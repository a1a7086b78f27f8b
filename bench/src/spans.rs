//! The benchmark's own span recorder: one span (name, start, end, parent,
//! window id) around every call the traced run makes into a layer. Spans
//! stay in memory and are written to `bench/out/trace-<workload>.json`
//! when the run ends. Spans *inside* the program are the program's own
//! `tw_telemetry::trace` trees, read back through its public API.

use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Window id of spans that belong to no reconstruction window.
pub const NO_WINDOW: u64 = u64::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub window: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by direct children.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. Children are recorded on one thread and
/// nest strictly, so the covered part is the sum of their durations
/// (clipped to the parent, so a clock hiccup can never go negative).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            covered[p] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(*c))
        .collect()
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Single-threaded span recorder with an explicit open-span stack.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        window: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            window,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Time one leaf call.
    pub fn call<R>(&mut self, name: &'static str, window: u64, f: impl FnOnce() -> R) -> R {
        self.span(name, window, |_| f())
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        totals_by_name(&self.spans)
    }

    /// Durations (ms) of every span called `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// The trace document: per-name totals first (what a reader usually
    /// wants), then every span with its self time.
    pub fn to_json(&self, workload: &str, seed: u64) -> Value {
        let selfs = self_times(&self.spans);
        let totals = self
            .totals()
            .into_iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    Value::Map(vec![
                        ("count".to_string(), Value::U64(t.count)),
                        ("total_ns".to_string(), Value::U64(t.total_ns)),
                        ("self_ns".to_string(), Value::U64(t.self_ns)),
                    ]),
                )
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .zip(selfs)
            .enumerate()
            .map(|(id, (s, self_ns))| {
                Value::Map(vec![
                    ("id".to_string(), Value::U64(id as u64)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ),
                    ("name".to_string(), Value::Str(s.name.to_string())),
                    (
                        "window".to_string(),
                        if s.window == NO_WINDOW {
                            Value::Null
                        } else {
                            Value::U64(s.window)
                        },
                    ),
                    ("start_ns".to_string(), Value::U64(s.start_ns)),
                    ("end_ns".to_string(), Value::U64(s.end_ns)),
                    ("self_ns".to_string(), Value::U64(self_ns)),
                ])
            })
            .collect();
        Value::Map(vec![
            ("workload".to_string(), Value::Str(workload.to_string())),
            ("seed".to_string(), Value::U64(seed)),
            ("totals_by_name".to_string(), Value::Map(totals)),
            ("spans".to_string(), Value::Seq(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            window: NO_WINDOW,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 50, 70),
            span("a.inner", Some(1), 15, 25),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10]);
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["root"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(totals["a"].self_ns, 20);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        // A child that (through a clock hiccup) ends after its parent may
        // not drive the parent's self time below zero.
        let spans = vec![span("p", None, 10, 20), span("c", Some(0), 5, 30)];
        assert_eq!(self_times(&spans), vec![0, 25]);
    }

    #[test]
    fn tracer_nests_by_call_structure() {
        let mut t = Tracer::new();
        t.span("outer", 7, |t| {
            t.call("inner", 7, || std::hint::black_box(1 + 1));
            t.call("inner", 7, || std::hint::black_box(2 + 2));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert_eq!(t.totals()["inner"].count, 2);
        assert_eq!(t.durations_ms("inner").len(), 2);
        let doc = serde_json::to_string(&t.to_json("w", 1)).expect("serializable");
        assert!(doc.contains("\"totals_by_name\""));
        assert!(doc.contains("\"window\":7"));
    }
}
