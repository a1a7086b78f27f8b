//! Segment files: immutable, CRC-framed batches of sealed reconstructed
//! traces, each carrying a footer index so queries can prune a segment
//! without parsing its body.
//!
//! A segment is a [`crate::frame`] file with the `TWSG` magic and *two*
//! frames: the body (JSON `Vec<StoredTrace>`) and the footer (JSON
//! [`SegmentIndex`]).
//!
//! [`read_segment_index`] validates the header, seeks past the body, and
//! parses only the footer — the cheap path the query planner uses before
//! deciding to read a segment's traces at all.

use crate::frame::{from_json, to_json, write_frames, FrameReader, StoreError};
use serde::{Deserialize, Serialize};
use std::path::Path;
use tw_model::span::RpcRecord;

const MAGIC: [u8; 4] = *b"TWSG";

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

    /// Records for a callee service (0 when absent).
    pub fn service_records(&self, service: u32) -> u64 {
        self.by_service
            .iter()
            .find(|c| c.service == service)
            .map_or(0, |c| c.records)
    }

    /// Records for a callee endpoint (0 when absent).
    pub fn endpoint_records(&self, service: u32, op: u32) -> u64 {
        self.by_endpoint
            .iter()
            .find(|c| c.service == service && c.op == op)
            .map_or(0, |c| c.records)
    }
}

/// Serialize and atomically write one sealed segment. Returns the file's
/// size in bytes and the footer index it carries.
pub fn write_segment(path: &Path, traces: &[StoredTrace]) -> std::io::Result<(u64, SegmentIndex)> {
    let index = SegmentIndex::build(traces);
    let body = to_json(&traces.to_vec())?;
    let footer = to_json(&index)?;
    let len = write_frames(path, MAGIC, &[&body, &footer])?;
    Ok((len, index))
}

/// Read and validate a whole segment: both frames CRC-checked, the body
/// parsed into traces.
pub fn read_segment(path: &Path) -> Result<Vec<StoredTrace>, StoreError> {
    let mut reader = FrameReader::open(path, MAGIC)?;
    let body = reader.frame()?;
    // Validate the footer too: a segment with a torn index is corrupt
    // even when its body happens to parse.
    let _: SegmentIndex = from_json(&reader.frame()?)?;
    from_json(&body)
}

/// Read only a segment's footer index, seeking past the body — the cheap
/// pruning path. The body CRC is *not* checked here; [`read_segment`]
/// validates it before any trace is returned to a query.
pub fn read_segment_index(path: &Path) -> Result<SegmentIndex, StoreError> {
    let mut reader = FrameReader::open(path, MAGIC)?;
    reader.skip_frame()?;
    from_json(&reader.frame()?)
}

/// Test fixtures shared by this crate's unit tests.
#[cfg(test)]
pub(crate) mod testutil {
    use super::{StoredSpan, StoredTrace};
    use tw_model::ids::{Endpoint, OperationId, RpcId, ServiceId};
    use tw_model::span::{RpcRecord, EXTERNAL};
    use tw_model::time::Nanos;

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

    #[test]
    fn segment_round_trips_with_footer_index() {
        let dir = std::env::temp_dir().join(format!("twsg-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
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
        assert_eq!(index.service_records(7), 1);
        assert_eq!(index.service_records(9), 1);
        assert_eq!(index.endpoint_records(7, 0), 1);
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
        let dir = std::env::temp_dir().join(format!("twsg-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg-00000000.twsg");
        assert!(matches!(read_segment(&path), Err(StoreError::Missing)));

        let traces = vec![trace(0, 1, 2, 10, 20)];
        write_segment(&path, &traces).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Flip a body bit: the CRC must catch it.
        let mut bad = good.clone();
        bad[8 + 12 + 2] ^= 0x01; // file header + frame header + 2
        std::fs::write(&path, &bad).unwrap();
        let err = read_segment(&path).unwrap_err();
        assert!(matches!(err, StoreError::BadCrc), "got {err}");
        assert_eq!(err.reason(), "corrupt");

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
}
