//! The archive's read model: [`TraceQuery`] filters (time range ×
//! service × endpoint × min-latency × window) with segment-level pruning
//! against the footer [`SegmentIndex`], so a query touches only segments
//! that can contain a match.

use crate::segment::{EndpointCount, SegmentIndex, StoredTrace};
use serde::{Deserialize, Serialize};

/// A trace query. All filters are conjunctive; `None` means "any".
/// Timestamps are in stream nanoseconds (the same clock the records
/// carry).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceQuery {
    /// Keep traces ending at or after this (ns).
    pub from_ns: Option<u64>,
    /// Keep traces starting at or before this (ns).
    pub to_ns: Option<u64>,
    /// Keep traces touching this callee service.
    pub service: Option<u32>,
    /// Keep traces touching this operation (combined with `service` this
    /// is an endpoint filter; alone it matches the op on any service).
    pub op: Option<u32>,
    /// Keep traces with end-to-end latency at or above this (ns).
    pub min_latency_ns: Option<u64>,
    /// Keep traces reconstructed in this window (the exemplar
    /// `window_id` resolution path).
    pub window: Option<u64>,
    /// Maximum traces returned (0 = the default cap of 100).
    pub limit: usize,
}

impl TraceQuery {
    /// The effective result cap.
    pub fn effective_limit(&self) -> usize {
        if self.limit == 0 {
            100
        } else {
            self.limit
        }
    }

    /// True when a trace passes every filter.
    pub fn matches(&self, trace: &StoredTrace) -> bool {
        self.matches_header(trace)
            && (!self.filters_spans()
                || trace
                    .spans
                    .iter()
                    .any(|s| self.matches_callee(s.record.callee.service.0, s.record.callee.op.0)))
    }

    /// The filters a trace's own fields decide (time range, window,
    /// latency) — everything a segment's trace directory holds, so a scan
    /// applies this before it touches a span.
    pub(crate) fn matches_header(&self, trace: &StoredTrace) -> bool {
        self.from_ns.is_none_or(|from| trace.end >= from)
            && self.to_ns.is_none_or(|to| trace.start <= to)
            && self.window.is_none_or(|window| trace.window == window)
            && self
                .min_latency_ns
                .is_none_or(|min| trace.latency_ns >= min)
    }

    /// True when a trace must also have a span passing
    /// [`matches_callee`](Self::matches_callee).
    pub(crate) fn filters_spans(&self) -> bool {
        self.service.is_some() || self.op.is_some()
    }

    /// The `service`/`op` filters against one span's callee.
    pub(crate) fn matches_callee(&self, service: u32, op: u32) -> bool {
        self.service.is_none_or(|s| s == service) && self.op.is_none_or(|o| o == op)
    }

    /// Segment-level pruning: false when the footer index proves the
    /// segment cannot contain a match, so its body is never read.
    pub fn may_match_segment(&self, index: &SegmentIndex) -> bool {
        let callee = |e: &EndpointCount| e.records > 0 && self.matches_callee(e.service, e.op);
        index.traces > 0
            && (!self.filters_spans() || index.by_endpoint.iter().any(callee))
            && self.from_ns.is_none_or(|from| index.max_ts >= from)
            && self.to_ns.is_none_or(|to| index.min_ts <= to)
            && self
                .window
                .is_none_or(|w| (index.min_window..=index.max_window).contains(&w))
            && self
                .min_latency_ns
                .is_none_or(|min| index.max_latency_ns >= min)
    }
}

/// The JSON document `GET /traces` serves and `twctl query` parses.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TracesDoc {
    pub traces: Vec<StoredTrace>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::testutil::trace;

    #[test]
    fn filters_are_conjunctive_and_prune_segments() {
        let fast = trace(3, 1, 7, 1_000, 2_000);
        let slow = trace(4, 2, 9, 5_000, 900_000_000);
        let index = SegmentIndex::build(&[fast.clone(), slow.clone()]);

        let q = TraceQuery::default();
        assert!(q.matches(&fast) && q.matches(&slow));
        assert!(q.may_match_segment(&index));

        let q = TraceQuery {
            service: Some(7),
            ..TraceQuery::default()
        };
        assert!(q.matches(&fast) && !q.matches(&slow));
        assert!(q.may_match_segment(&index));
        let q = TraceQuery {
            service: Some(42),
            ..TraceQuery::default()
        };
        assert!(!q.may_match_segment(&index), "absent service prunes");

        let q = TraceQuery {
            min_latency_ns: Some(10_000_000),
            ..TraceQuery::default()
        };
        assert!(!q.matches(&fast) && q.matches(&slow));

        let q = TraceQuery {
            window: Some(3),
            ..TraceQuery::default()
        };
        assert!(q.matches(&fast) && !q.matches(&slow));
        let q = TraceQuery {
            window: Some(99),
            ..TraceQuery::default()
        };
        assert!(!q.may_match_segment(&index), "window range prunes");

        let q = TraceQuery {
            from_ns: Some(4_000),
            to_ns: Some(1_000_000_000),
            service: Some(9),
            op: Some(0),
            min_latency_ns: Some(1_000_000),
            ..TraceQuery::default()
        };
        assert!(!q.matches(&fast) && q.matches(&slow));
        assert!(q.may_match_segment(&index));

        let empty = SegmentIndex::build(&[]);
        assert!(!TraceQuery::default().may_match_segment(&empty));
    }
}
