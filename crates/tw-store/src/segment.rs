//! Segment files: immutable, CRC-framed batches of sealed reconstructed
//! traces, each carrying a footer index so queries can prune a segment
//! without reading its body.
//!
//! A segment is a [`crate::frame`] file with the `TWSG` magic. Version 2,
//! the only one written, has three frames (DESIGN.md "Durable files" has
//! the offsets):
//!
//! 1. the **trace directory** — one 45-byte little-endian row per trace:
//!    its own fields and its span count;
//! 2. the **span rows** — one 69-byte row per span, traces in directory
//!    order, spans in pre-order;
//! 3. the **footer** — the JSON [`SegmentIndex`] the manifest embeds.
//!
//! Every field is fixed width and stored as it is, so any `StoredTrace`
//! value round-trips — and `scan_segment` can answer a query from the
//! directory and the callee columns, building a trace only for a match
//! its limit can return (a match past the limit still has its span rows
//! validated, so the limit never changes whether a segment is rejected).
//! Version 1 (one JSON `Vec<StoredTrace>` frame, then the footer) is still
//! read; compaction rewrites such segments in version 2.
//!
//! [`read_segment_index`] validates the header, seeks past the body, and
//! parses only the footer — the cheap path the query planner uses before
//! deciding to read a segment's traces at all.

use crate::frame::{from_json, to_json, write_frames, FrameReader, StoreError};
use crate::query::TraceQuery;
use serde::{Deserialize, Serialize};
use std::path::Path;
use tw_model::ids::{Endpoint, OperationId, RpcId, ServiceId};
use tw_model::span::RpcRecord;
use tw_model::time::Nanos;

const MAGIC: [u8; 4] = *b"TWSG";
/// Read only: a JSON `Vec<StoredTrace>` frame, then the footer.
const V1_JSON: u32 = 1;
/// Directory frame, span-row frame, footer.
const V2_ROWS: u32 = 2;

/// Bytes of one trace-directory row: `window`, `root`, `start`, `end`,
/// `latency_ns` as `u64`, `degraded` as one byte, the span count as `u32`.
const DIR_ROW: usize = 45;
/// Bytes of one span row: `depth u32`, `rpc u64`, `caller u32`,
/// `caller_replica u16`, callee `service u32` and `op u32`,
/// `callee_replica u16`, the four timestamps as `u64`, a thread-presence
/// byte (bit 0 caller, bit 1 callee) and the two thread ids as `u32`.
const SPAN_ROW: usize = 69;
/// Offset of the callee service in a span row; the operation follows it.
const CALLEE_AT: usize = 18;

/// Upper bounds (ns) of the per-segment latency histogram in
/// [`SegmentIndex`]: 1ms · 2^k for k in 0..12 (1ms … ~2s); one implicit
/// overflow bucket follows.
pub const LATENCY_BOUNDS_NS: [u64; 12] = [
    1_000_000,
    2_000_000,
    4_000_000,
    8_000_000,
    16_000_000,
    32_000_000,
    64_000_000,
    128_000_000,
    256_000_000,
    512_000_000,
    1_024_000_000,
    2_048_000_000,
];

/// One span of a stored trace: the wire record plus its depth in the
/// reconstructed tree (0 = root), in pre-order.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StoredSpan {
    pub depth: u32,
    pub record: RpcRecord,
}

/// One reconstructed trace as the archive persists it: the assembled tree
/// below an external root, flattened in pre-order with depths.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredTrace {
    /// Window index the trace was reconstructed in — the same id the
    /// `window_id` exemplars on `tw_engine_window_latency_seconds` carry,
    /// so an exemplar resolves to its stored traces.
    pub window: u64,
    /// Root RPC id (`caller == EXTERNAL`).
    pub root: u64,
    /// Client-side start: the root's `send_req` (ns).
    pub start: u64,
    /// Client-side end: the root's `recv_resp` (ns).
    pub end: u64,
    /// End-to-end latency (ns): `end - start`.
    pub latency_ns: u64,
    /// True when the window ran below `DegradationLevel::Full` — the
    /// mapping may be partial, and retention preferentially keeps it.
    pub degraded: bool,
    /// Pre-order spans, root first.
    pub spans: Vec<StoredSpan>,
}

impl StoredTrace {
    /// The archive's result order: window, client start, root id, end.
    pub(crate) fn sort_key(&self) -> (u64, u64, u64, u64) {
        (self.window, self.start, self.root, self.end)
    }
}

/// Cut `items` to the `limit` whose traces come first in result order,
/// ties in the order they were in; fewer stay as they are.
pub(crate) fn keep_first<T>(items: &mut Vec<T>, limit: usize, trace: impl Fn(&T) -> &StoredTrace) {
    if items.len() > limit {
        items.sort_by_key(|item| trace(item).sort_key());
        items.truncate(limit);
    }
}

/// Per-service record count inside one segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceCount {
    pub service: u32,
    pub records: u64,
}

/// Per-endpoint (callee service + operation) record count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EndpointCount {
    pub service: u32,
    pub op: u32,
    pub records: u64,
}

/// The footer index of one segment: everything the query planner needs to
/// decide whether the segment can contain a match, without reading the
/// body. Also embedded in the manifest so most queries never touch
/// non-matching files at all.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SegmentIndex {
    /// Traces in the body.
    pub traces: u64,
    /// Spans summed over all traces.
    pub records: u64,
    /// Earliest trace start (ns; 0 when empty).
    pub min_ts: u64,
    /// Latest trace end (ns).
    pub max_ts: u64,
    /// Lowest window index present.
    pub min_window: u64,
    /// Highest window index present.
    pub max_window: u64,
    /// Record counts by callee service, ascending service id.
    pub by_service: Vec<ServiceCount>,
    /// Record counts by callee endpoint, ascending (service, op).
    pub by_endpoint: Vec<EndpointCount>,
    /// Trace-latency histogram: counts per [`LATENCY_BOUNDS_NS`] bucket
    /// plus one trailing overflow bucket (`len == bounds.len() + 1`).
    pub latency_counts: Vec<u64>,
    /// Largest trace latency in the segment (ns).
    pub max_latency_ns: u64,
    /// Traces flagged degraded.
    pub degraded_traces: u64,
}

impl SegmentIndex {
    /// Build the footer index over a sealed batch.
    pub fn build(traces: &[StoredTrace]) -> SegmentIndex {
        let mut index = SegmentIndex {
            traces: traces.len() as u64,
            min_ts: u64::MAX,
            min_window: u64::MAX,
            latency_counts: vec![0; LATENCY_BOUNDS_NS.len() + 1],
            ..SegmentIndex::default()
        };
        let mut by_service: std::collections::BTreeMap<u32, u64> = Default::default();
        let mut by_endpoint: std::collections::BTreeMap<(u32, u32), u64> = Default::default();
        for trace in traces {
            index.records += trace.spans.len() as u64;
            index.min_ts = index.min_ts.min(trace.start);
            index.max_ts = index.max_ts.max(trace.end);
            index.min_window = index.min_window.min(trace.window);
            index.max_window = index.max_window.max(trace.window);
            index.max_latency_ns = index.max_latency_ns.max(trace.latency_ns);
            let bucket = LATENCY_BOUNDS_NS
                .iter()
                .position(|&b| trace.latency_ns <= b)
                .unwrap_or(LATENCY_BOUNDS_NS.len());
            index.latency_counts[bucket] += 1;
            if trace.degraded {
                index.degraded_traces += 1;
            }
            for span in &trace.spans {
                *by_service.entry(span.record.callee.service.0).or_default() += 1;
                *by_endpoint
                    .entry((span.record.callee.service.0, span.record.callee.op.0))
                    .or_default() += 1;
            }
        }
        if traces.is_empty() {
            index.min_ts = 0;
            index.min_window = 0;
        }
        index.by_service = by_service
            .into_iter()
            .map(|(service, records)| ServiceCount { service, records })
            .collect();
        index.by_endpoint = by_endpoint
            .into_iter()
            .map(|((service, op), records)| EndpointCount {
                service,
                op,
                records,
            })
            .collect();
        index
    }
}

/// Bytes `trace` occupies in a segment's directory and span-row frames.
pub(crate) fn encoded_len(trace: &StoredTrace) -> u64 {
    (DIR_ROW + SPAN_ROW * trace.spans.len()) as u64
}

fn encode_dir_row(out: &mut Vec<u8>, trace: &StoredTrace, spans: u32) {
    for field in [
        trace.window,
        trace.root,
        trace.start,
        trace.end,
        trace.latency_ns,
    ] {
        out.extend_from_slice(&field.to_le_bytes());
    }
    out.push(u8::from(trace.degraded));
    out.extend_from_slice(&spans.to_le_bytes());
}

fn encode_span_row(out: &mut Vec<u8>, span: &StoredSpan) {
    let r = &span.record;
    out.extend_from_slice(&span.depth.to_le_bytes());
    out.extend_from_slice(&r.rpc.0.to_le_bytes());
    out.extend_from_slice(&r.caller.0.to_le_bytes());
    out.extend_from_slice(&r.caller_replica.to_le_bytes());
    out.extend_from_slice(&r.callee.service.0.to_le_bytes());
    out.extend_from_slice(&r.callee.op.0.to_le_bytes());
    out.extend_from_slice(&r.callee_replica.to_le_bytes());
    for ts in [r.send_req, r.recv_req, r.send_resp, r.recv_resp] {
        out.extend_from_slice(&ts.0.to_le_bytes());
    }
    out.push(u8::from(r.caller_thread.is_some()) | u8::from(r.callee_thread.is_some()) << 1);
    out.extend_from_slice(&r.caller_thread.unwrap_or(0).to_le_bytes());
    out.extend_from_slice(&r.callee_thread.unwrap_or(0).to_le_bytes());
}

/// The `N` bytes at `at` of a fixed-width row.
fn le<const N: usize>(row: &[u8], at: usize) -> [u8; N] {
    row[at..at + N]
        .try_into()
        .expect("field lies inside its fixed-width row")
}

fn bad(what: impl Into<String>) -> StoreError {
    StoreError::BadPayload(what.into())
}

/// One directory row as a trace without its spans, and its span count.
/// Rejects every byte pattern [`encode_dir_row`] cannot produce.
fn decode_dir_row(row: &[u8]) -> Result<(StoredTrace, u32), StoreError> {
    let degraded = match row[40] {
        0 => false,
        1 => true,
        other => return Err(bad(format!("degraded byte {other}"))),
    };
    let trace = StoredTrace {
        window: u64::from_le_bytes(le(row, 0)),
        root: u64::from_le_bytes(le(row, 8)),
        start: u64::from_le_bytes(le(row, 16)),
        end: u64::from_le_bytes(le(row, 24)),
        latency_ns: u64::from_le_bytes(le(row, 32)),
        degraded,
        spans: Vec::new(),
    };
    Ok((trace, u32::from_le_bytes(le(row, 41))))
}

/// A span row's caller and callee thread ids. Rejects the byte patterns
/// [`encode_span_row`] cannot produce there: thread flags above 3, and a
/// thread id under a clear flag.
fn thread_ids(row: &[u8]) -> Result<(Option<u32>, Option<u32>), StoreError> {
    let flags = row[60];
    if flags > 3 {
        return Err(bad(format!("thread flags {flags}")));
    }
    let thread = |bit: u8, at: usize| match (flags & bit != 0, u32::from_le_bytes(le(row, at))) {
        (true, id) => Ok(Some(id)),
        (false, 0) => Ok(None),
        (false, id) => Err(bad(format!("thread id {id} without its flag"))),
    };
    Ok((thread(1, 61)?, thread(2, 65)?))
}

/// Rejects every byte pattern [`encode_span_row`] cannot produce.
fn decode_span_row(row: &[u8]) -> Result<StoredSpan, StoreError> {
    let (caller_thread, callee_thread) = thread_ids(row)?;
    Ok(StoredSpan {
        depth: u32::from_le_bytes(le(row, 0)),
        record: RpcRecord {
            rpc: RpcId(u64::from_le_bytes(le(row, 4))),
            caller: ServiceId(u32::from_le_bytes(le(row, 12))),
            caller_replica: u16::from_le_bytes(le(row, 16)),
            callee: Endpoint::new(
                ServiceId(u32::from_le_bytes(le(row, CALLEE_AT))),
                OperationId(u32::from_le_bytes(le(row, CALLEE_AT + 4))),
            ),
            callee_replica: u16::from_le_bytes(le(row, 26)),
            send_req: Nanos(u64::from_le_bytes(le(row, 28))),
            recv_req: Nanos(u64::from_le_bytes(le(row, 36))),
            send_resp: Nanos(u64::from_le_bytes(le(row, 44))),
            recv_resp: Nanos(u64::from_le_bytes(le(row, 52))),
            caller_thread,
            callee_thread,
        },
    })
}

/// Encode and atomically write one sealed segment. Returns the file's
/// size in bytes and the footer index it carries.
pub fn write_segment(path: &Path, traces: &[StoredTrace]) -> std::io::Result<(u64, SegmentIndex)> {
    let index = SegmentIndex::build(traces);
    let mut directory = Vec::with_capacity(traces.len() * DIR_ROW);
    let mut rows = Vec::with_capacity(index.records as usize * SPAN_ROW);
    for trace in traces {
        let spans = u32::try_from(trace.spans.len()).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a trace holds more spans than a directory row can count",
            )
        })?;
        encode_dir_row(&mut directory, trace, spans);
        for span in &trace.spans {
            encode_span_row(&mut rows, span);
        }
    }
    let footer = to_json(&index)?;
    let len = write_frames(path, MAGIC, V2_ROWS, &[&directory, &rows, &footer])?;
    Ok((len, index))
}

/// The traces of one segment that `q` matches, in file order; when more
/// than `limit` match, only the first `limit` in result order (ties in
/// file order), as no other can be in the query's answer. Every frame a
/// returned trace was decoded from has had its CRC checked, and the
/// footer is validated even though it is not used: a segment with a torn
/// index is corrupt even when its body decodes.
pub(crate) fn scan_segment(
    path: &Path,
    q: &TraceQuery,
    limit: usize,
) -> Result<Vec<StoredTrace>, StoreError> {
    let (mut reader, version) = FrameReader::open(path, MAGIC, &[V1_JSON, V2_ROWS])?;
    let traces = if version == V1_JSON {
        let mut traces: Vec<StoredTrace> = from_json(&reader.frame()?)?;
        traces.retain(|t| q.matches(t));
        keep_first(&mut traces, limit, |t| t);
        traces
    } else {
        scan_rows(&mut reader, q, limit)?
    };
    let _: SegmentIndex = from_json(&reader.frame()?)?;
    reader.finish()?;
    Ok(traces)
}

/// The two body frames of a version-2 segment. The directory decides the
/// time, window and latency filters; when no row survives, the span rows
/// are seeked past, unread. Lengths are reconciled — whole directory rows,
/// and exactly the span rows the directory counts — before anything is
/// sized from them, so no allocation exceeds the file's own length. Every
/// match's span rows are validated, built or not, so the verdict on a
/// segment is the same at every limit.
fn scan_rows(
    reader: &mut FrameReader,
    q: &TraceQuery,
    limit: usize,
) -> Result<Vec<StoredTrace>, StoreError> {
    let directory = reader.frame()?;
    if directory.len() % DIR_ROW != 0 {
        return Err(bad("directory is not whole rows"));
    }
    // (trace without spans, index of its first span row, span count)
    let mut hits: Vec<(StoredTrace, usize, usize)> = Vec::new();
    let mut spans_total = 0u64;
    for row in directory.chunks_exact(DIR_ROW) {
        let (trace, spans) = decode_dir_row(row)?;
        if q.matches_header(&trace) {
            // Both fit: checked against the row frame's length below,
            // before either is used.
            hits.push((trace, spans_total as usize, spans as usize));
        }
        spans_total = spans_total
            .checked_add(u64::from(spans))
            .ok_or_else(|| bad("span counts overflow"))?;
    }
    let (rows, rows_len) = if hits.is_empty() {
        (Vec::new(), reader.skip_frame()?)
    } else {
        let rows = reader.frame()?;
        let len = rows.len() as u64;
        (rows, len)
    };
    if Some(rows_len) != spans_total.checked_mul(SPAN_ROW as u64) {
        return Err(bad("span rows disagree with the directory"));
    }

    let callee_matches = |row: &[u8]| {
        q.matches_callee(
            u32::from_le_bytes(le(row, CALLEE_AT)),
            u32::from_le_bytes(le(row, CALLEE_AT + 4)),
        )
    };
    let mut matched = Vec::with_capacity(hits.len());
    for (trace, first, spans) in hits {
        let rows = &rows[first * SPAN_ROW..][..spans * SPAN_ROW];
        if !q.filters_spans() || rows.chunks_exact(SPAN_ROW).any(callee_matches) {
            rows.chunks_exact(SPAN_ROW)
                .try_for_each(|row| thread_ids(row).map(drop))?;
            matched.push((trace, rows));
        }
    }
    keep_first(&mut matched, limit, |(trace, _)| trace);
    let mut out = Vec::with_capacity(matched.len());
    for (mut trace, rows) in matched {
        trace.spans = Vec::with_capacity(rows.len() / SPAN_ROW);
        for row in rows.chunks_exact(SPAN_ROW) {
            trace.spans.push(decode_span_row(row)?);
        }
        #[cfg(test)]
        testutil::BUILT.with(|n| n.set(n.get() + 1));
        out.push(trace);
    }
    Ok(out)
}

/// Read and validate a whole segment: every frame CRC-checked, the body
/// decoded into traces.
pub fn read_segment(path: &Path) -> Result<Vec<StoredTrace>, StoreError> {
    scan_segment(path, &TraceQuery::default(), usize::MAX)
}

/// Read only a segment's footer index, seeking past the body — the cheap
/// pruning path. The body CRCs are *not* checked here; `scan_segment`
/// validates them before any trace is returned to a query.
pub fn read_segment_index(path: &Path) -> Result<SegmentIndex, StoreError> {
    let (mut reader, version) = FrameReader::open(path, MAGIC, &[V1_JSON, V2_ROWS])?;
    let body_frames = if version == V1_JSON { 1 } else { 2 };
    for _ in 0..body_frames {
        reader.skip_frame()?;
    }
    let index = from_json(&reader.frame()?)?;
    reader.finish()?;
    Ok(index)
}

/// Test fixtures shared by this crate's unit tests.
#[cfg(test)]
pub(crate) mod testutil {
    use super::{StoredSpan, StoredTrace};
    use tw_model::ids::{Endpoint, OperationId, RpcId, ServiceId};
    use tw_model::span::{RpcRecord, EXTERNAL};
    use tw_model::time::Nanos;

    thread_local! {
        /// Traces the version-2 scan has built on this thread: what the
        /// limit saves, counted rather than timed.
        pub(crate) static BUILT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// Traces the scans `f` runs build.
    pub(crate) fn built<R>(f: impl FnOnce() -> R) -> (R, usize) {
        let before = BUILT.with(|n| n.get());
        let out = f();
        (out, BUILT.with(|n| n.get()) - before)
    }

    pub(crate) fn record(rpc: u64, service: u32, op: u32, start: u64, end: u64) -> RpcRecord {
        RpcRecord {
            rpc: RpcId(rpc),
            caller: EXTERNAL,
            caller_replica: 0,
            callee: Endpoint::new(ServiceId(service), OperationId(op)),
            callee_replica: 0,
            send_req: Nanos(start),
            recv_req: Nanos(start + 1),
            send_resp: Nanos(end - 1),
            recv_resp: Nanos(end),
            caller_thread: None,
            callee_thread: None,
        }
    }

    pub(crate) fn trace(window: u64, rpc: u64, service: u32, start: u64, end: u64) -> StoredTrace {
        StoredTrace {
            window,
            root: rpc,
            start,
            end,
            latency_ns: end - start,
            degraded: false,
            spans: vec![StoredSpan {
                depth: 0,
                record: record(rpc, service, 0, start, end),
            }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::trace;
    use super::*;
    use proptest::prelude::*;
    use std::path::PathBuf;

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("twsg-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn segment_round_trips_with_footer_index() {
        let dir = fresh_dir("rt");
        let path = dir.join("seg-00000000.twsg");
        let traces = vec![
            trace(3, 1, 7, 1_000_000, 5_000_000),
            trace(4, 2, 9, 2_000_000, 600_000_000),
        ];
        let (bytes, index) = write_segment(&path, &traces).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        assert_eq!(index.traces, 2);
        assert_eq!(index.records, 2);
        assert_eq!((index.min_ts, index.max_ts), (1_000_000, 600_000_000));
        assert_eq!((index.min_window, index.max_window), (3, 4));
        let services: Vec<(u32, u64)> = index
            .by_service
            .iter()
            .map(|c| (c.service, c.records))
            .collect();
        assert_eq!(services, [(7, 1), (9, 1)]);
        let endpoints: Vec<(u32, u32, u64)> = index
            .by_endpoint
            .iter()
            .map(|c| (c.service, c.op, c.records))
            .collect();
        assert_eq!(endpoints, [(7, 0, 1), (9, 0, 1)]);
        assert_eq!(index.max_latency_ns, 598_000_000);
        // 4ms lands in the <=4ms bucket; 598ms in the <=1024ms bucket.
        assert_eq!(index.latency_counts[2], 1);
        assert_eq!(index.latency_counts[10], 1);

        assert_eq!(read_segment(&path).unwrap(), traces);
        assert_eq!(read_segment_index(&path).unwrap(), index);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_truncated_segments_rejected_cleanly() {
        let dir = fresh_dir("bad");
        let path = dir.join("seg-00000000.twsg");
        assert!(matches!(read_segment(&path), Err(StoreError::Missing)));

        let traces = vec![trace(0, 1, 2, 10, 20)];
        write_segment(&path, &traces).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Flip a directory bit, then a span-row bit: the frame's CRC must
        // catch either.
        for at in [8 + 12 + 2, 8 + 12 + DIR_ROW + 12 + 2] {
            let mut bad = good.clone();
            bad[at] ^= 0x01;
            std::fs::write(&path, &bad).unwrap();
            let err = read_segment(&path).unwrap_err();
            assert!(matches!(err, StoreError::BadCrc), "byte {at}: got {err}");
            assert_eq!(err.reason(), "corrupt");
        }

        // Truncate mid-footer: the index read fails cleanly too.
        std::fs::write(&path, &good[..good.len() - 3]).unwrap();
        assert!(matches!(read_segment(&path), Err(StoreError::Truncated)));
        assert!(matches!(
            read_segment_index(&path),
            Err(StoreError::Truncated)
        ));

        // Wrong magic and future version.
        let mut wrong = good.clone();
        wrong[0] = b'X';
        std::fs::write(&path, &wrong).unwrap();
        assert!(matches!(read_segment(&path), Err(StoreError::BadMagic)));
        let mut future = good;
        future[4] = 99;
        std::fs::write(&path, &future).unwrap();
        assert!(matches!(
            read_segment(&path),
            Err(StoreError::BadVersion(99))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Frames whose CRCs hold but whose rows the encoder cannot have
    /// written: each is a `BadPayload`, and a span count the file cannot
    /// back is rejected before anything is sized from it.
    #[test]
    fn rows_the_encoder_cannot_produce_are_bad_payloads() {
        let dir = fresh_dir("rows");
        let path = dir.join("seg-00000000.twsg");
        let mut t = trace(0, 1, 2, 10, 20);
        t.spans[0].record.callee_thread = Some(0);
        let mut directory = Vec::new();
        encode_dir_row(&mut directory, &t, 1);
        let mut rows = Vec::new();
        encode_span_row(&mut rows, &t.spans[0]);
        let footer = to_json(&SegmentIndex::build(std::slice::from_ref(&t))).unwrap();
        let write = |directory: &[u8], rows: &[u8]| {
            write_frames(&path, MAGIC, V2_ROWS, &[directory, rows, &footer]).unwrap();
        };
        write(&directory, &rows);
        assert_eq!(read_segment(&path).unwrap(), vec![t]);

        let patched = |bytes: &[u8], at: usize, with: &[u8]| {
            let mut bytes = bytes.to_vec();
            bytes[at..at + with.len()].copy_from_slice(with);
            bytes
        };
        let nowhere = TraceQuery {
            window: Some(99),
            ..TraceQuery::default()
        };
        let cases = [
            (
                "half a directory row",
                directory[..44].to_vec(),
                rows.clone(),
            ),
            (
                "degraded byte 2",
                patched(&directory, 40, &[2]),
                rows.clone(),
            ),
            (
                "more spans than the file holds",
                patched(&directory, 41, &u32::MAX.to_le_bytes()),
                rows.clone(),
            ),
            (
                "rows the directory does not count",
                directory.clone(),
                rows.repeat(2),
            ),
            (
                "thread flags 4",
                directory.clone(),
                patched(&rows, 60, &[4]),
            ),
            (
                "thread id without its flag",
                directory.clone(),
                patched(&rows, 61, &[9]),
            ),
        ];
        for (what, directory, rows) in cases {
            write(&directory, &rows);
            let err = read_segment(&path).unwrap_err();
            assert!(matches!(err, StoreError::BadPayload(_)), "{what}: {err}");
            // A query no directory row survives seeks past the span rows,
            // and still reconciles their length with the directory.
            if rows.len() != SPAN_ROW {
                let err = scan_segment(&path, &nowhere, 1).unwrap_err();
                assert!(matches!(err, StoreError::BadPayload(_)), "{what}: {err}");
            }
        }

        write(&directory, &rows);
        let mut trailing = std::fs::read(&path).unwrap();
        trailing.push(0);
        std::fs::write(&path, &trailing).unwrap();
        for err in [
            read_segment(&path).unwrap_err(),
            read_segment_index(&path).map(|_| ()).unwrap_err(),
        ] {
            assert!(matches!(err, StoreError::BadPayload(_)), "trailing: {err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Half the draws land in `0..4`, so generated filters select
    /// something; the other half take the full range.
    fn mixed() -> impl Strategy<Value = u64> {
        (any::<bool>(), 0u64..4, any::<u64>())
            .prop_map(|(wide, small, full)| if wide { full } else { small })
    }

    /// Any span at all: no field is constrained by another.
    fn stored_span() -> impl Strategy<Value = StoredSpan> {
        (
            (any::<u32>(), any::<u64>(), any::<u32>(), any::<u16>()),
            (mixed(), mixed(), any::<u16>()),
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            (prop::option::of(0u32..3), prop::option::of(any::<u32>())),
        )
            .prop_map(|(caller, callee, ts, threads)| StoredSpan {
                depth: caller.0,
                record: RpcRecord {
                    rpc: RpcId(caller.1),
                    caller: ServiceId(caller.2),
                    caller_replica: caller.3,
                    callee: Endpoint::new(ServiceId(callee.0 as u32), OperationId(callee.1 as u32)),
                    callee_replica: callee.2,
                    send_req: Nanos(ts.0),
                    recv_req: Nanos(ts.1),
                    send_resp: Nanos(ts.2),
                    recv_resp: Nanos(ts.3),
                    caller_thread: threads.0,
                    callee_thread: threads.1,
                },
            })
    }

    /// Any trace at all, the zero-span one included: `latency_ns` need not
    /// be `end - start`, `start` need not precede `end`.
    fn stored_trace() -> impl Strategy<Value = StoredTrace> {
        (
            (mixed(), any::<u64>(), mixed(), mixed(), mixed()),
            any::<bool>(),
            prop::collection::vec(stored_span(), 0..5),
        )
            .prop_map(|(header, degraded, spans)| StoredTrace {
                window: header.0,
                root: header.1,
                start: header.2,
                end: header.3,
                latency_ns: header.4,
                degraded,
                spans,
            })
    }

    /// A query with every filter set; [`masked`] clears a subset.
    fn full_query() -> impl Strategy<Value = TraceQuery> {
        (mixed(), mixed(), mixed(), mixed(), mixed(), mixed()).prop_map(|f| TraceQuery {
            from_ns: Some(f.0),
            to_ns: Some(f.1),
            service: Some(f.2 as u32),
            op: Some(f.3 as u32),
            min_latency_ns: Some(f.4),
            window: Some(f.5),
            limit: 0,
        })
    }

    /// `q` with only the filters whose bit is set in `mask` (6 bits).
    fn masked(q: &TraceQuery, mask: u32) -> TraceQuery {
        let keep = |bit: u32| mask & (1 << bit) != 0;
        TraceQuery {
            from_ns: q.from_ns.filter(|_| keep(0)),
            to_ns: q.to_ns.filter(|_| keep(1)),
            service: q.service.filter(|_| keep(2)),
            op: q.op.filter(|_| keep(3)),
            min_latency_ns: q.min_latency_ns.filter(|_| keep(4)),
            window: q.window.filter(|_| keep(5)),
            limit: 0,
        }
    }

    fn brute_force(traces: &[StoredTrace], q: &TraceQuery) -> Vec<StoredTrace> {
        traces.iter().filter(|t| q.matches(t)).cloned().collect()
    }

    /// What a scan at `limit` returns, by definition: every match in file
    /// order, or, when more match, the `limit` that sort first by
    /// (window, start, root, end), ties in file order.
    fn first_matches(traces: &[StoredTrace], q: &TraceQuery, limit: usize) -> Vec<StoredTrace> {
        let mut hits: Vec<(usize, &StoredTrace)> = traces
            .iter()
            .enumerate()
            .filter(|(_, t)| q.matches(t))
            .collect();
        if hits.len() > limit {
            hits.sort_by_key(|&(i, t)| (t.window, t.start, t.root, t.end, i));
            hits.truncate(limit);
        }
        hits.into_iter().map(|(_, t)| t.clone()).collect()
    }

    /// `traces` laid out as a segment's two body frames.
    fn body(traces: &[StoredTrace]) -> (Vec<u8>, Vec<u8>) {
        let (mut directory, mut rows) = (Vec::new(), Vec::new());
        for t in traces {
            encode_dir_row(&mut directory, t, t.spans.len() as u32);
            t.spans
                .iter()
                .for_each(|span| encode_span_row(&mut rows, span));
        }
        (directory, rows)
    }

    proptest! {
        /// Write, read, re-write: the same traces, the same index, the
        /// same bytes — and every combination of filters scans to what
        /// `TraceQuery::matches` selects from the traces in memory.
        #[test]
        fn any_segment_round_trips_and_scans_like_brute_force(
            traces in prop::collection::vec(stored_trace(), 0..8),
            q in full_query(),
        ) {
            let dir = fresh_dir("prop-rt");
            let path = dir.join("seg-00000000.twsg");
            let (bytes, index) = write_segment(&path, &traces).unwrap();
            prop_assert_eq!(&index, &SegmentIndex::build(&traces));
            prop_assert_eq!(read_segment_index(&path).unwrap(), index);
            let read_back = read_segment(&path).unwrap();
            prop_assert_eq!(&read_back, &traces);

            let encoded: u64 = traces.iter().map(encoded_len).sum();
            let footer = to_json(&SegmentIndex::build(&traces)).unwrap().len() as u64;
            prop_assert_eq!(bytes, 8 + 3 * 12 + encoded + footer);
            let again = dir.join("seg-00000001.twsg");
            write_segment(&again, &read_back).unwrap();
            prop_assert_eq!(std::fs::read(&again).unwrap(), std::fs::read(&path).unwrap());

            for mask in 0..64 {
                let q = masked(&q, mask);
                prop_assert_eq!(
                    scan_segment(&path, &q, usize::MAX).unwrap(),
                    brute_force(&traces, &q),
                    "{:?}", q
                );
                for limit in 1..4 {
                    let (hits, built) = testutil::built(|| scan_segment(&path, &q, limit));
                    let want = first_matches(&traces, &q, limit);
                    prop_assert_eq!(built, want.len());
                    prop_assert_eq!(hits.unwrap(), want, "{:?} limit {}", q, limit);
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }

    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A valid file with a bit flipped, a tail cut off, bytes added,
        /// or a run of another valid file's bytes written over its own:
        /// every reader answers with a typed error or with exactly what
        /// the intact file holds — never a panic, never other traces. The
        /// same run over the body frames, or one byte of a span row's
        /// thread fields, with the CRCs made good reaches the row decoder,
        /// which may accept other traces; at every limit, the scan rejects
        /// exactly the files it rejects unlimited.
        #[test]
        fn hostile_bytes_are_typed_errors_or_the_original(
            traces in prop::collection::vec(stored_trace(), 0..6),
            donor in prop::collection::vec(stored_trace(), 0..6),
            q in full_query(),
            mask in 0u32..64,
            damage in (0u32..6, any::<u64>(), any::<u64>(), any::<u64>()),
            limit in 1usize..4,
        ) {
            let dir = fresh_dir("prop-hostile");
            let path = dir.join("seg-00000000.twsg");
            let (_, index) = write_segment(&path, &traces).unwrap();
            let mut bytes = std::fs::read(&path).unwrap();
            let (kind, a, b, c) = damage;
            let pick = |n: u64, below: usize| (n % below as u64) as usize;
            // A run of `donor` over `bytes`, at offsets drawn from `a`, `b`.
            let overwrite = |bytes: &mut [u8], donor: &[u8]| {
                if !bytes.is_empty() && !donor.is_empty() {
                    let (from, to) = (pick(a, donor.len()), pick(b, bytes.len()));
                    let n = (1 + pick(c, 96)).min(donor.len() - from).min(bytes.len() - to);
                    bytes[to..to + n].copy_from_slice(&donor[from..from + n]);
                }
            };
            let len = bytes.len();
            match kind {
                0 => bytes[pick(a, len)] ^= 1 << (b % 8),
                1 => bytes.truncate(pick(a, len)),
                2 => bytes.extend(b.to_le_bytes().iter().take(1 + pick(a, 8))),
                3 => {
                    write_segment(&path, &donor).unwrap();
                    overwrite(&mut bytes, &std::fs::read(&path).unwrap());
                }
                _ => {
                    let (mut directory, mut rows) = body(&traces);
                    if kind == 4 {
                        let (donor_directory, donor_rows) = body(&donor);
                        let mut run = [directory.clone(), rows].concat();
                        overwrite(&mut run, &[donor_directory, donor_rows].concat());
                        rows = run.split_off(directory.len());
                        directory = run;
                    } else if !rows.is_empty() {
                        let row = pick(a, rows.len() / SPAN_ROW);
                        rows[row * SPAN_ROW + 60 + pick(b, 9)] = c as u8;
                    }
                    let footer = to_json(&index).unwrap();
                    write_frames(&path, MAGIC, V2_ROWS, &[&directory, &rows, &footer]).unwrap();
                    bytes = std::fs::read(&path).unwrap();
                }
            }
            std::fs::write(&path, &bytes).unwrap();

            let q = masked(&q, mask);
            let unlimited = scan_segment(&path, &q, usize::MAX);
            let limited = scan_segment(&path, &q, limit);
            prop_assert_eq!(limited.is_ok(), unlimited.is_ok(), "{:?} limit {}", q, limit);
            if let (Ok(limited), Ok(unlimited)) = (limited, &unlimited) {
                prop_assert_eq!(limited, first_matches(unlimited, &TraceQuery::default(), limit));
            }
            if kind < 4 {
                if let Ok(read) = read_segment(&path) {
                    prop_assert_eq!(read, traces.clone());
                }
                if let Ok(read) = read_segment_index(&path) {
                    prop_assert_eq!(read, index);
                }
                if let Ok(hits) = unlimited {
                    prop_assert_eq!(hits, brute_force(&traces, &q));
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
