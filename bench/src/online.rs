//! The production topology, driven from outside: wire frames over one
//! loopback TCP connection → `serve_online_sanitized` (ingest → sanitize →
//! window router → one warm window shard → merge → archive stage), with
//! checkpointing on. One load-generator thread, one connection, one shard,
//! `Params::threads = 1`.

use crate::input::{due_offsets_ns, Input, WINDOW};
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};
use tw_capture::wire::encode_records;
use tw_core::{Params, TraceWeaver};
use tw_model::mapping::Mapping;
use tw_model::span::RpcRecord;
use tw_pipeline::net::serve_online_sanitized;
use tw_pipeline::{
    CheckpointConfig, DegradationLevel, OnlineConfig, SanitizeConfig, SanitizeStats, WindowResult,
};
use tw_store::ArchiveConfig;
use tw_telemetry::trace::SpanRecorder;
use tw_telemetry::Registry;

/// Records per wire write. At the paced rate one chunk is ~17 ms of
/// stream, the granularity of the open-loop schedule.
pub const CHUNK_RECORDS: usize = 64;

/// Archive segment size: small enough that ~35 segments seal (and fsync)
/// inside a 30 s stream, so the write path is in the measured region.
pub const SEGMENT_BYTES: u64 = 256 << 10;

/// One wire write: the encoded frames of up to [`CHUNK_RECORDS`] records.
pub struct Chunk {
    pub bytes: Vec<u8>,
    pub records: usize,
    /// Scheduled send instant, nanoseconds after the first chunk: the due
    /// time of the chunk's last record (a chunk cannot leave before its
    /// last record exists).
    pub due_ns: u64,
    /// Highest `recv_resp` delivered once this chunk is sent — what the
    /// engine's watermark will have reached.
    pub watermark_ns: u64,
}

/// Wire-encode a stream into chunks and attach the open-loop schedule.
pub fn encode_chunks(records: &[RpcRecord]) -> Vec<Chunk> {
    let due = due_offsets_ns(records);
    let first = records.first().map_or(0, |r| r.recv_resp.0);
    records
        .chunks(CHUNK_RECORDS)
        .zip(due.chunks(CHUNK_RECORDS))
        .map(|(recs, due)| {
            let due_ns = *due.last().expect("chunks are non-empty");
            Chunk {
                bytes: encode_records(recs).to_vec(),
                records: recs.len(),
                due_ns,
                watermark_ns: first + due_ns,
            }
        })
        .collect()
}

/// For every window index, the schedule offset (ns) at which the chunk
/// that pushes the watermark past `window end + grace` is due — the
/// instant the window's cut, and so its result, becomes possible.
/// Windows the stream never closes (the tail flushed at shutdown) get no
/// entry.
pub fn window_due_ns(chunks: &[Chunk], window_ns: u64, grace_ns: u64) -> Vec<Option<u64>> {
    let last_wm = chunks.last().map_or(0, |c| c.watermark_ns);
    let windows = (last_wm / window_ns + 1) as usize;
    let mut out = vec![None; windows];
    let mut next = 0usize;
    for chunk in chunks {
        while next < windows && chunk.watermark_ns >= (next as u64 + 1) * window_ns + grace_ns {
            out[next] = Some(chunk.due_ns);
            next += 1;
        }
    }
    out
}

/// `registry` is a fresh `Registry::new()` per run — exactly what
/// `OnlineConfig::default()` would create, but held by the bench so the
/// run's public `tw_*` series can be read after shutdown. `recorder` is
/// set only in traced runs.
pub fn online_config(
    dir: &Path,
    registry: &Registry,
    recorder: Option<&SpanRecorder>,
) -> OnlineConfig {
    OnlineConfig {
        window: WINDOW,
        warm_start: true,
        archive: Some(ArchiveConfig {
            segment_bytes: SEGMENT_BYTES,
            ..ArchiveConfig::new(dir.join("archive"))
        }),
        checkpoint: Some(CheckpointConfig::new(dir.join("checkpoint"))),
        telemetry: registry.clone(),
        trace: recorder.cloned(),
        ..OnlineConfig::default()
    }
}

/// What the bench keeps of one `WindowResult`. The result itself is
/// dropped as soon as it is received — as a consumer that forwards it
/// would — so the process's peak memory is the program's, not a pile of
/// results held for the report.
pub struct Window {
    pub index: u64,
    /// Instant the result reached the live `results()` consumer (`None`
    /// for the few the shutdown drain returned).
    pub arrived: Option<Instant>,
    pub records: usize,
    /// `WindowResult::latency`: wall time of the reconstruction.
    pub reconstruct: Duration,
    pub queue_depth: usize,
    pub degradation: DegradationLevel,
    pub shed_records: usize,
    pub mapped_spans: usize,
    pub top_choice_spans: usize,
    pub total_spans: usize,
}

/// Window summaries plus the merged mapping of everything received.
#[derive(Default)]
struct Received {
    windows: Vec<Window>,
    mapping: Mapping,
}

impl Received {
    fn take(&mut self, arrived: Option<Instant>, w: WindowResult) {
        let summary = w.reconstruction.summary();
        self.windows.push(Window {
            index: w.index,
            arrived,
            records: w.records.len(),
            reconstruct: w.latency,
            queue_depth: w.queue_depth,
            degradation: w.degradation,
            shed_records: w.shed_records,
            mapped_spans: summary.mapped_spans,
            top_choice_spans: summary.top_choice_spans,
            total_spans: summary.total_spans,
        });
        self.mapping.merge(w.reconstruction.mapping);
    }
}

pub struct OnlineRun {
    /// First byte sent → `shutdown` returned (last window archived).
    pub wall_s: f64,
    /// Last byte sent → `shutdown` returned.
    pub drain_s: f64,
    pub sent_records: usize,
    /// Window summaries in index order.
    pub windows: Vec<Window>,
    /// Every window's mapping, merged.
    pub mapping: Mapping,
    pub epoch: Instant,
    pub sanitize: SanitizeStats,
    pub dead_letters: usize,
    /// The run's telemetry registry, final after shutdown.
    pub registry: Registry,
    pub committed_bytes: u64,
    pub committed_traces: u64,
    pub segments: usize,
    /// Actual minus scheduled send instant per chunk, ms (paced runs).
    pub lag_ms: Vec<f64>,
    /// Thread CPU is not observable per thread from outside, so the load
    /// generator's share is its busy (non-sleeping) wall time.
    pub loadgen_busy_s: f64,
}

impl OnlineRun {
    pub fn window_records(&self) -> usize {
        self.windows.iter().map(|w| w.records).sum()
    }

    /// Records that reached no window result and no archive for any
    /// reason other than being an injected duplicate the sanitizer is
    /// there to remove.
    pub fn failed_records(&self) -> u64 {
        let s = &self.sanitize;
        let never_decoded = (self.sent_records as u64).saturating_sub(s.received);
        let shed: u64 = self.windows.iter().map(|w| w.shed_records as u64).sum();
        never_decoded + s.truncated + s.non_causal + s.late + shed + self.dead_letters as u64
    }
}

/// Push `chunks` through a fresh topology rooted at `dir` and wait until
/// the last window is archived. `paced` sends every chunk at its
/// scheduled instant (open loop); otherwise chunks go as fast as the
/// socket accepts them (closed loop).
pub fn run_topology(
    input: &Input,
    chunks: &[Chunk],
    dir: &Path,
    recorder: Option<&SpanRecorder>,
    paced: bool,
) -> OnlineRun {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("benchmark scratch directory is writable");
    let tw = TraceWeaver::new(input.graph.clone(), Params::default());
    let registry = Registry::new();
    let (server, engine) = serve_online_sanitized(
        "127.0.0.1:0",
        tw,
        online_config(dir, &registry, recorder),
        SanitizeConfig::default(),
    )
    .expect("loopback listener binds");
    let archive = engine.archive().expect("archive configured").clone();
    let dead_letters = engine.dead_letters().clone();
    let live = engine.results().clone();
    let consumer = std::thread::spawn(move || {
        let mut seen = Received::default();
        while let Ok(w) = live.recv() {
            seen.take(Some(Instant::now()), w);
        }
        seen
    });

    let mut stream = TcpStream::connect(server.local_addr()).expect("loopback connect");
    stream.set_nodelay(true).expect("TCP_NODELAY");
    let mut lag_ms = Vec::new();
    let mut slept = Duration::ZERO;
    let epoch = Instant::now();
    for chunk in chunks {
        if paced {
            let due = epoch + Duration::from_nanos(chunk.due_ns);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
                slept += due - now;
            }
            lag_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        }
        stream
            .write_all(&chunk.bytes)
            .expect("ingest server accepts frames");
    }
    stream.shutdown(Shutdown::Write).expect("half-close");
    let sent_at = Instant::now();
    drop(stream);
    server.shutdown();
    let (tail, stats) = engine.shutdown_with_stats();
    let done = Instant::now();

    let mut received = consumer.join().expect("results consumer thread");
    for w in tail {
        received.take(None, w);
    }
    let Received {
        mut windows,
        mapping,
    } = received;
    windows.sort_by_key(|w| w.index);
    OnlineRun {
        wall_s: (done - epoch).as_secs_f64(),
        drain_s: (done - sent_at).as_secs_f64(),
        sent_records: chunks.iter().map(|c| c.records).sum(),
        windows,
        mapping,
        epoch,
        sanitize: stats.expect("sanitize stage configured"),
        dead_letters: dead_letters.len(),
        registry,
        committed_bytes: archive.committed_bytes(),
        committed_traces: archive.committed_traces(),
        segments: archive.segment_count(),
        lag_ms,
        loadgen_busy_s: (sent_at - epoch).saturating_sub(slept).as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(due_ms: u64, watermark_ms: u64) -> Chunk {
        Chunk {
            bytes: Vec::new(),
            records: 1,
            due_ns: due_ms * 1_000_000,
            watermark_ns: watermark_ms * 1_000_000,
        }
    }

    #[test]
    fn a_window_is_due_when_the_watermark_passes_its_end_plus_grace() {
        // 250 ms windows, 200 ms grace: window 0 cuts at watermark 450 ms,
        // window 1 at 700 ms.
        let chunks = vec![
            chunk(0, 100),
            chunk(300, 400),
            chunk(360, 460),
            chunk(400, 500),
            chunk(900, 1_000),
        ];
        let due = window_due_ns(&chunks, 250_000_000, 200_000_000);
        assert_eq!(due.len(), 5);
        assert_eq!(due[0], Some(360_000_000));
        // One chunk can close several windows at once.
        assert_eq!(due[1], Some(900_000_000));
        assert_eq!(due[2], Some(900_000_000));
        // 1000 ms < 4 * 250 + 200: the stream never closes windows 3, 4.
        assert_eq!(due[3], None);
        assert_eq!(due[4], None);
    }

    #[test]
    fn chunks_carry_the_schedule_of_their_last_record() {
        let input = crate::input::online_stream(5, 300);
        let chunks = encode_chunks(&input.records);
        assert_eq!(
            chunks.iter().map(|c| c.records).sum::<usize>(),
            input.records.len()
        );
        assert!(chunks.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        let due = due_offsets_ns(&input.records);
        assert_eq!(chunks[0].due_ns, due[chunks[0].records - 1]);
        assert_eq!(chunks.last().unwrap().due_ns, *due.last().unwrap());
        let first = input.records[0].recv_resp.0;
        assert_eq!(chunks[0].watermark_ns, first + chunks[0].due_ns);
    }
}
