//! Golden-file and determinism tests for the Prometheus text exposition.
//!
//! The golden file pins HELP/TYPE ordering, label escaping (`\`, `"`,
//! newline), histogram bucket cumulativity and the `+Inf` bucket. Regenerate
//! with `TW_UPDATE_GOLDEN=1 cargo test -p tw-telemetry` after an intentional
//! renderer change, and review the diff.

use tw_telemetry::{Buckets, Registry};

/// Build a registry exercising every renderer feature with fixed values.
fn golden_registry() -> Registry {
    let r = Registry::new();

    r.counter("tw_demo_frames_total", "Frames accepted by the demo stage.")
        .add(42);

    let dropped = |reason: &str| {
        r.counter_with(
            "tw_demo_dropped_total",
            "Records dropped, by reason.",
            &[("reason", reason), ("stage", "sanitize")],
        )
    };
    dropped("duplicate").add(7);
    dropped("late").add(2);

    // Label values that need escaping: backslash, double quote, newline.
    r.counter_with(
        "tw_demo_escaped_total",
        "Escaping torture case: backslash \\ and\nnewline in help.",
        &[("path", "C:\\temp\\\"spans\".jsonl\nline2")],
    )
    .inc();

    r.gauge_with(
        "tw_demo_skew_offset_ns",
        "Estimated per-service clock skew offset.",
        &[("service", "3")],
    )
    .set(-1250.5);
    r.gauge_with(
        "tw_demo_skew_offset_ns",
        "Estimated per-service clock skew offset.",
        &[("service", "7")],
    )
    .set(0.25);

    let fixed = r.histogram(
        "tw_demo_batch_size",
        "Batch sizes (fixed buckets).",
        Buckets::fixed(&[1.0, 5.0, 10.0, 30.0]),
    );
    for v in [1.0, 4.0, 10.0, 11.0, 64.0] {
        fixed.observe(v);
    }

    let exp = r.histogram_with(
        "tw_demo_stage_seconds",
        "Stage wall time (log-scaled buckets).",
        Buckets::exponential(0.001, 10.0, 4),
        &[("stage", "optimize")],
    );
    for v in [0.0005, 0.02, 3.0, 250.0] {
        exp.observe(v);
    }

    r
}

#[test]
fn golden_exposition() {
    let text = golden_registry().render();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_exposition.txt");
    if std::env::var_os("TW_UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &text).expect("write golden file");
    }
    let golden = std::fs::read_to_string(path).expect("golden file exists");
    assert_eq!(
        text, golden,
        "rendered exposition diverged from tests/golden_exposition.txt \
         (set TW_UPDATE_GOLDEN=1 to regenerate after intentional changes)"
    );
    // The golden output itself must satisfy the linter.
    let report = tw_telemetry::lint::lint(&text).expect("golden output lints clean");
    assert_eq!(report.families, 6);
}

#[test]
fn histogram_buckets_are_cumulative_with_inf() {
    let text = golden_registry().render();
    // Fixed histogram: observations 1,4,10,11,64 against bounds 1,5,10,30.
    assert!(text.contains("tw_demo_batch_size_bucket{le=\"1\"} 1"));
    assert!(text.contains("tw_demo_batch_size_bucket{le=\"5\"} 2"));
    assert!(text.contains("tw_demo_batch_size_bucket{le=\"10\"} 3"));
    assert!(text.contains("tw_demo_batch_size_bucket{le=\"30\"} 4"));
    assert!(text.contains("tw_demo_batch_size_bucket{le=\"+Inf\"} 5"));
    assert!(text.contains("tw_demo_batch_size_count 5"));
    assert!(text.contains("tw_demo_batch_size_sum 90"));
    // Log-scaled histogram bounds 0.001..1 with labeled series keep their
    // label alongside le.
    assert!(text.contains("tw_demo_stage_seconds_bucket{stage=\"optimize\",le=\"0.001\"} 1"));
    assert!(text.contains("tw_demo_stage_seconds_bucket{stage=\"optimize\",le=\"+Inf\"} 4"));

    // Seeded sweep against a plain reference: each observation lands in the
    // first bucket whose bound is >= it (NaN and values past the last bound
    // in +Inf), the snapshot accumulates, the count is the total and the sum
    // adds in observation order.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for buckets in [
        Buckets::fixed(&[1.0, 5.0, 10.0, 30.0]),
        Buckets::exponential(0.001, 10.0, 4),
    ] {
        let r = Registry::new();
        let hist = r.histogram("tw_demo_sweep", "sweep", buckets.clone());
        let bounds = match buckets {
            Buckets::Fixed(b) => b,
            Buckets::Exponential {
                start,
                factor,
                count,
            } => (0..count).map(|i| start * factor.powi(i as i32)).collect(),
        };
        let mut counts = vec![0u64; bounds.len() + 1];
        let mut sum = 0.0f64;
        for _ in 0..2000 {
            let v = match next() % 8 {
                0 => bounds[next() as usize % bounds.len()],
                1 => -((next() % 1000) as f64) / 7.0,
                2 => 0.0,
                3 => bounds[bounds.len() - 1] * (1.0 + (next() % 1000) as f64),
                _ => (next() % 1_000_000) as f64 / 1e6 * 2.0 * bounds[bounds.len() - 1],
            };
            let before = hist.snapshot().0;
            hist.observe(v);
            let after = hist.snapshot().0;
            let idx = bounds.iter().position(|b| v <= *b).unwrap_or(bounds.len());
            let landed = (0..after.len()).find(|&i| after[i] != before[i]);
            assert_eq!(landed, Some(idx), "observation {v} in the wrong bucket");
            counts[idx] += 1;
            sum += v;
        }
        assert_eq!(hist.sum().to_bits(), sum.to_bits());
        let infinities = [(f64::NEG_INFINITY, 0), (f64::INFINITY, bounds.len())];
        for (v, idx) in [(f64::NAN, bounds.len())].into_iter().chain(infinities) {
            hist.observe(v);
            counts[idx] += 1;
        }
        let (cumulative, got_sum, count) = hist.snapshot();
        let reference: Vec<u64> = counts
            .iter()
            .scan(0, |acc, c| {
                *acc += c;
                Some(*acc)
            })
            .collect();
        assert_eq!(cumulative, reference);
        assert_eq!(count, 2003);
        assert!(got_sum.is_nan(), "a NaN observation makes the sum NaN");
        tw_telemetry::lint::lint(&r.render()).expect("sweep exposition lints clean");
    }
}

#[test]
fn label_escaping_in_output() {
    let text = golden_registry().render();
    assert!(text.contains(r#"path="C:\\temp\\\"spans\".jsonl\nline2""#));
    assert!(text.contains("Escaping torture case: backslash \\\\ and\\nnewline in help."));
}

/// The exposition must be byte-identical no matter how many threads wrote
/// the metrics, as long as the recorded totals match: series order is
/// defined by (name, labels), never by write arrival.
#[test]
fn deterministic_across_writer_threads() {
    let render_with_threads = |threads: usize| -> String {
        let r = Registry::new();
        let counter = r.counter("tw_demo_ops_total", "ops");
        // Dyadic observations (multiples of 0.25) keep the f64 _sum exact,
        // so it cannot depend on shard/thread summation order.
        let hist = r.histogram(
            "tw_demo_lat_seconds",
            "latency",
            Buckets::exponential(0.25, 2.0, 4),
        );
        let per_label: Vec<_> = (0..4)
            .map(|i| {
                r.counter_with(
                    "tw_demo_shard_total",
                    "per-shard ops",
                    &[("shard", &i.to_string())],
                )
            })
            .collect();

        // 4800 increments and observations, partitioned across writers.
        const TOTAL: usize = 4800;
        let work = TOTAL / threads;
        std::thread::scope(|s| {
            for t in 0..threads {
                let counter = counter.clone();
                let hist = hist.clone();
                let per_label = per_label.clone();
                s.spawn(move || {
                    for i in 0..work {
                        counter.inc();
                        let v = 0.25 * (1 + (t * work + i) % 7) as f64;
                        hist.observe(v);
                        per_label[(t * work + i) % 4].inc();
                    }
                });
            }
        });
        r.render()
    };

    let one = render_with_threads(1);
    let two = render_with_threads(2);
    let eight = render_with_threads(8);
    assert_eq!(one, two, "1-thread vs 2-thread exposition differs");
    assert_eq!(one, eight, "1-thread vs 8-thread exposition differs");
    assert!(one.contains("tw_demo_ops_total 4800"));
    tw_telemetry::lint::lint(&one).expect("concurrent exposition lints clean");
}

/// Registry exercising OpenMetrics exemplar rendering with fixed values.
fn openmetrics_registry() -> Registry {
    let r = Registry::new();
    r.counter("tw_demo_frames_total", "Frames accepted by the demo stage.")
        .add(42);
    let hist = r.histogram(
        "tw_demo_window_latency_seconds",
        "Window close-to-emit latency.",
        Buckets::fixed(&[0.1, 1.0, 10.0]),
    );
    hist.observe(0.05);
    hist.observe_exemplar(0.4, &[("window_id", "7"), ("span_id", "19")]);
    hist.observe_exemplar(25.0, &[("window_id", "12"), ("span_id", "31")]);
    r
}

#[test]
fn golden_openmetrics_exposition_with_exemplars() {
    let r = openmetrics_registry();
    let text = Registry::render_multi_openmetrics(&[&r]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_openmetrics.txt");
    if std::env::var_os("TW_UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &text).expect("write golden file");
    }
    let golden = std::fs::read_to_string(path).expect("golden file exists");
    assert_eq!(
        text, golden,
        "OpenMetrics exposition diverged from tests/golden_openmetrics.txt \
         (set TW_UPDATE_GOLDEN=1 to regenerate after intentional changes)"
    );
    // Exemplar syntax: `bucket_count # {labels} value`, plus `# EOF`.
    assert!(text.contains(
        "tw_demo_window_latency_seconds_bucket{le=\"1\"} 2 # {window_id=\"7\",span_id=\"19\"} 0.4"
    ));
    assert!(text.contains(
        "tw_demo_window_latency_seconds_bucket{le=\"+Inf\"} 3 # {window_id=\"12\",span_id=\"31\"} 25"
    ));
    assert!(text.ends_with("# EOF\n"));
    let report = tw_telemetry::lint::lint(&text).expect("openmetrics output lints clean");
    assert_eq!(report.exemplars, 2);
}

#[test]
fn v004_render_is_unchanged_by_exemplars() {
    let r = openmetrics_registry();
    let text = r.render();
    assert!(!text.contains(" # {"), "v0.0.4 render must omit exemplars");
    assert!(!text.contains("# EOF"));
    tw_telemetry::lint::lint(&text).expect("v0.0.4 output lints clean");
}

#[test]
fn exemplar_snapshot_and_oversized_label_drop() {
    let r = Registry::new();
    let hist = r.histogram("h", "help", Buckets::fixed(&[1.0]));
    assert!(!tw_telemetry::snapshot_has_exemplars(&r.snapshot()));
    hist.observe_exemplar(0.5, &[("window_id", "3")]);
    let exemplars = hist.exemplars();
    assert_eq!(exemplars.len(), 2);
    let ex = exemplars[0].as_ref().expect("exemplar in first bucket");
    assert_eq!(ex.value, 0.5);
    assert_eq!(ex.labels, vec![("window_id".to_string(), "3".to_string())]);
    assert!(tw_telemetry::snapshot_has_exemplars(&r.snapshot()));
    // Oversized label sets drop the exemplar but keep the observation.
    let big = "v".repeat(200);
    hist.observe_exemplar(5.0, &[("big", &big)]);
    assert!(hist.exemplars()[1].is_none());
    assert_eq!(hist.count(), 2);
}

/// Hammer a histogram from writer threads while snapshotting: every
/// snapshot must satisfy `+Inf == count` (the invariant the renderer and
/// linter assert), which the old unsynchronized read could violate.
#[test]
fn histogram_snapshot_is_consistent_under_concurrent_observe() {
    let r = Registry::new();
    let hist = r.histogram(
        "tw_demo_torn_seconds",
        "torn-read hammer",
        Buckets::fixed(&[0.5, 2.0]),
    );
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        for t in 0..4 {
            let hist = hist.clone();
            let stop = &stop;
            s.spawn(move || {
                let mut i = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    hist.observe((((t + i) % 3) as f64) + 0.25);
                    i += 1;
                }
            });
        }
        for _ in 0..2000 {
            let (cumulative, _sum, count) = hist.snapshot();
            assert_eq!(
                *cumulative.last().unwrap(),
                count,
                "+Inf bucket diverged from count under concurrent observes"
            );
            for w in cumulative.windows(2) {
                assert!(w[0] <= w[1], "cumulative counts must be non-decreasing");
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    // Quiescent snapshot is exact.
    let (cumulative, _sum, count) = hist.snapshot();
    assert_eq!(*cumulative.last().unwrap(), count);
}

/// render_multi merges registries, deduplicates identical ones, and stays
/// lint-clean.
#[test]
fn render_multi_merges_and_dedups() {
    let a = Registry::new();
    a.counter("tw_a_total", "a").add(1);
    let b = Registry::new();
    b.counter("tw_b_total", "b").add(2);
    let merged = Registry::render_multi(&[&a, &b, &a]);
    let report = tw_telemetry::lint::lint(&merged).expect("merged output lints");
    assert_eq!(report.samples, 2);
    let pos_a = merged.find("tw_a_total").unwrap();
    let pos_b = merged.find("tw_b_total").unwrap();
    assert!(pos_a < pos_b, "families sorted by name");
}
