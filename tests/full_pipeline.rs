//! Workspace-level integration tests: the complete TraceWeaver pipeline
//! across crates — capture → wire transport → call-graph learning →
//! reconstruction → evaluation — plus the production-dataset path.

use traceweaver::alibaba;
use traceweaver::capture::{
    decode_records, encode_records, generate_test_traces, infer_call_graph,
};
use traceweaver::prelude::*;
use traceweaver::sim::{Fault, FaultPlan};

#[test]
fn capture_to_reconstruction_with_learned_graph() {
    // Learn the call graph purely from test-environment replays, then
    // reconstruct production traffic through the wire format.
    let app = traceweaver::sim::apps::hotel_reservation(301);
    let traces = generate_test_traces(&app.config, app.roots[0], 10, 5);
    let learned = infer_call_graph(&traces);

    let sim = Simulator::new(app.config).unwrap();
    let out = sim.run(&Workload::poisson(app.roots[0], 250.0, Nanos::from_secs(1)));

    // Round-trip the records through the binary wire format.
    let shipped = decode_records(encode_records(&out.records)).unwrap();
    assert_eq!(shipped, out.records);

    let tw = TraceWeaver::new(learned, Params::default());
    let result = tw.reconstruct_records(&shipped);
    let acc = end_to_end_accuracy_all_roots(&result.mapping, &out.truth);
    assert!(
        acc.ratio() > 0.85,
        "learned-graph reconstruction accuracy {}",
        acc.ratio()
    );
}

#[test]
fn degraded_capture_still_works() {
    // Thread ids dropped and small timestamp jitter: TraceWeaver uses
    // neither thread ids nor exact timestamps, so accuracy holds.
    let app = traceweaver::sim::apps::hotel_reservation(302);
    let call_graph = app.config.call_graph();
    let sim = Simulator::new(app.config).unwrap();
    let out = sim.run(&Workload::poisson(app.roots[0], 200.0, Nanos::from_secs(1)));

    let (observed, _) = FaultPlan::new(1)
        .with(Fault::Jitter { max_ns: 2_000 }) // ±2us
        .apply(&out.records);
    let tw = TraceWeaver::new(call_graph, Params::default());
    let result = tw.reconstruct_records(&observed);
    let acc = end_to_end_accuracy_all_roots(&result.mapping, &out.truth);
    assert!(
        acc.ratio() > 0.8,
        "degraded-capture accuracy {}",
        acc.ratio()
    );
}

#[test]
fn alibaba_compression_pipeline() {
    let ds = alibaba::generate(303, 3, 20);
    for case in &ds.cases {
        let tw = TraceWeaver::new(case.config.call_graph(), Params::default());

        // Uncompressed base traces: near-trivial.
        let base = tw.reconstruct_records(&case.base.records);
        let base_acc = end_to_end_accuracy_all_roots(&base.mapping, &case.base.truth);
        assert!(
            base_acc.ratio() > 0.85,
            "{}: base accuracy {}",
            case.name,
            base_acc.ratio()
        );

        // Heavy compression raises concurrency and lowers accuracy, but
        // the algorithm must not collapse.
        let compressed = alibaba::compress_traces(&case.base.records, &case.base.truth, 50.0);
        let hard = tw.reconstruct_records(&compressed);
        let hard_acc = end_to_end_accuracy_all_roots(&hard.mapping, &case.base.truth);
        assert!(
            hard_acc.ratio() <= base_acc.ratio() + 1e-9,
            "{}: compression should not help",
            case.name
        );
    }
}

#[test]
fn parallel_reconstruction_is_deterministic() {
    // The executor must be invisible in the output: across thread counts
    // the Mapping AND the RankedMapping (candidate sets and scores) are
    // identical, bit for bit. Scheduling may only change wall time.
    let app = traceweaver::sim::apps::hotel_reservation(307);
    let call_graph = app.config.call_graph();
    let sim = Simulator::new(app.config).unwrap();
    let out = sim.run(&Workload::poisson(app.roots[0], 400.0, Nanos::from_secs(1)));

    let reference =
        TraceWeaver::new(call_graph.clone(), Params::default()).reconstruct_records(&out.records);
    for threads in [1usize, 2, 8] {
        let tw = TraceWeaver::new(call_graph.clone(), Params::with_threads(threads));
        let result = tw.reconstruct_records(&out.records);
        assert_eq!(
            reference.reports.len(),
            result.reports.len(),
            "{threads} threads: task count diverged"
        );
        for rec in &out.records {
            assert_eq!(
                reference.mapping.children(rec.rpc),
                result.mapping.children(rec.rpc),
                "{threads} threads: mapping diverged at {:?}",
                rec.rpc
            );
            assert_eq!(
                reference.ranked.candidates(rec.rpc),
                result.ranked.candidates(rec.rpc),
                "{threads} threads: ranked candidates diverged at {:?}",
                rec.rpc
            );
            let (a, b) = (
                reference.ranked.scores(rec.rpc),
                result.ranked.scores(rec.rpc),
            );
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{threads} threads: score bits diverged at {:?}",
                    rec.rpc
                );
            }
        }
    }
}

#[test]
fn dense_stream_is_solved_exactly_and_deterministically() {
    // `hotel_reservation(2)` at 900 rps for 20 ms (144 records): the
    // shortest stream, in 10 ms steps over seeds 1–12, on which the
    // weight-sum MIS bound of PR 18 ran one batch out of its node budget
    // (`inexact_batches == 1`, 20 of 24 roots right). The clique-cover
    // bound must close every batch, lose no accuracy, and stay invisible
    // to the executor.
    let app = traceweaver::sim::apps::hotel_reservation(2);
    let call_graph = app.config.call_graph();
    let sim = Simulator::new(app.config).unwrap();
    let out = sim.run(&Workload::poisson(
        app.roots[0],
        900.0,
        Nanos::from_millis(20),
    ));
    assert_eq!(
        out.records.len(),
        144,
        "the stream the numbers above are for"
    );

    let one = TraceWeaver::new(call_graph.clone(), Params::with_threads(1))
        .reconstruct_records(&out.records);
    assert_eq!(one.summary().inexact_batches, 0);
    let acc = end_to_end_accuracy_all_roots(&one.mapping, &out.truth);
    assert_eq!(acc.total, 24);
    assert!(acc.correct >= 20, "{} of 24 roots right", acc.correct);

    let eight =
        TraceWeaver::new(call_graph, Params::with_threads(8)).reconstruct_records(&out.records);
    assert_eq!(eight.summary().inexact_batches, 0);
    for rec in &out.records {
        assert_eq!(
            one.mapping.children(rec.rpc),
            eight.mapping.children(rec.rpc),
            "1 vs 8 threads: mapping diverged at {:?}",
            rec.rpc
        );
    }
}

#[test]
fn warm_reconstruction_is_deterministic_across_threads() {
    // Warm starts must preserve the executor-invisibility invariant: with
    // the same prior registry, every thread count produces bit-identical
    // mappings, ranked candidates, and score bits — and an identical
    // posterior registry.
    let app = traceweaver::sim::apps::hotel_reservation(308);
    let call_graph = app.config.call_graph();
    let sim = Simulator::new(app.config).unwrap();
    let out = sim.run(&Workload::poisson(app.roots[0], 400.0, Nanos::from_secs(1)));
    let mid = Nanos::from_millis(500);
    let first: Vec<_> = out
        .records
        .iter()
        .filter(|r| r.send_req < mid)
        .copied()
        .collect();
    let second: Vec<_> = out
        .records
        .iter()
        .filter(|r| r.send_req >= mid)
        .copied()
        .collect();
    assert!(!first.is_empty() && !second.is_empty());

    // Build a prior from the first half, warm-reconstruct the second.
    let (reference, ref_posterior) = {
        let tw = TraceWeaver::new(call_graph.clone(), Params::default());
        let (_, prior) = tw.reconstruct_records_with_registry(&first, &DelayRegistry::new());
        assert!(!prior.is_empty(), "first half must produce a prior");
        tw.reconstruct_records_with_registry(&second, &prior)
    };
    for threads in [1usize, 2, 8] {
        let tw = TraceWeaver::new(call_graph.clone(), Params::with_threads(threads));
        let (_, prior) = tw.reconstruct_records_with_registry(&first, &DelayRegistry::new());
        let (result, posterior) = tw.reconstruct_records_with_registry(&second, &prior);
        assert_eq!(
            posterior.len(),
            ref_posterior.len(),
            "{threads} threads: posterior edge count diverged"
        );
        for rec in &second {
            assert_eq!(
                reference.mapping.children(rec.rpc),
                result.mapping.children(rec.rpc),
                "{threads} threads: warm mapping diverged at {:?}",
                rec.rpc
            );
            assert_eq!(
                reference.ranked.candidates(rec.rpc),
                result.ranked.candidates(rec.rpc),
                "{threads} threads: warm ranked candidates diverged at {:?}",
                rec.rpc
            );
            let (a, b) = (
                reference.ranked.scores(rec.rpc),
                result.ranked.scores(rec.rpc),
            );
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{threads} threads: warm score bits diverged at {:?}",
                    rec.rpc
                );
            }
        }
    }
}

#[test]
fn warm_second_window_matches_cold_on_stationary_workload() {
    // On a stationary workload the warm path's prior describes exactly the
    // delays the second window will see, so warm reconstruction must map
    // at least as many spans as a cold start on the same window.
    let app = traceweaver::sim::apps::hotel_reservation(309);
    let call_graph = app.config.call_graph();
    let sim = Simulator::new(app.config).unwrap();
    let out = sim.run(&Workload::poisson(app.roots[0], 400.0, Nanos::from_secs(2)));
    let mid = Nanos::from_secs(1);
    let first: Vec<_> = out
        .records
        .iter()
        .filter(|r| r.send_req < mid)
        .copied()
        .collect();
    let second: Vec<_> = out
        .records
        .iter()
        .filter(|r| r.send_req >= mid)
        .copied()
        .collect();

    let tw = TraceWeaver::new(call_graph, Params::default());
    let (first_rec, prior) = tw.reconstruct_records_with_registry(&first, &DelayRegistry::new());
    let (warm, _) = tw.reconstruct_records_with_registry(&second, &prior);
    let cold = tw.reconstruct_records(&second);
    let mapped = |r: &Reconstruction| r.summary().mapped_spans;
    assert!(
        mapped(&warm) >= mapped(&cold),
        "warm window mapped {} spans, cold mapped {}",
        mapped(&warm),
        mapped(&cold)
    );
    // And end-to-end accuracy over the whole run (both windows merged)
    // holds up against ground truth. Traces straddling the split point
    // lose children to the other window, so the bar allows for a handful
    // of boundary casualties.
    let mut merged = Mapping::new();
    merged.merge(first_rec.mapping.clone());
    merged.merge(warm.mapping.clone());
    let warm_acc = end_to_end_accuracy_all_roots(&merged, &out.truth);
    assert!(
        warm_acc.ratio() > 0.85,
        "warm accuracy {}",
        warm_acc.ratio()
    );
}

#[test]
fn ablations_do_not_beat_full_system() {
    let app = traceweaver::sim::apps::hotel_reservation(305);
    let call_graph = app.config.call_graph();
    let sim = Simulator::new(app.config).unwrap();
    let out = sim.run(&Workload::poisson(
        app.roots[0],
        700.0,
        Nanos::from_millis(800),
    ));

    let accuracy = |p: Params| {
        let tw = TraceWeaver::new(call_graph.clone(), p);
        end_to_end_accuracy_all_roots(&tw.reconstruct_records(&out.records).mapping, &out.truth)
            .ratio()
    };
    let full = accuracy(Params::default());
    let no_order = accuracy(Params::default().ablate_order_constraints());
    let no_joint = accuracy(Params::default().ablate_joint_optimization());
    assert!(
        full >= no_order - 0.02,
        "full {full} vs no_order {no_order}"
    );
    assert!(
        full >= no_joint - 0.02,
        "full {full} vs no_joint {no_joint}"
    );
}

#[test]
fn drift_faulted_stream_is_corrected_and_deterministic() {
    // End-to-end drift path: per-service clock drift injected by the
    // fault plan → sanitizer (two-state offset+drift filter) → online
    // engine. Corrected timestamps must be monotone-causal again (child
    // spans nest inside their parents despite the injected ramp), and
    // the whole pipeline must stay deterministic across engine worker
    // counts.
    use std::collections::HashMap;
    use traceweaver::model::span::RpcRecord;
    use traceweaver::pipeline::{SanitizeConfig, Sanitizer};

    let app = traceweaver::sim::apps::hotel_reservation(309);
    let call_graph = app.config.call_graph();
    let sim = Simulator::new(app.config).unwrap();
    let out = sim.run(&Workload::poisson(app.roots[0], 150.0, Nanos::from_secs(4)));
    let mut arrival: Vec<RpcRecord> = out.records.clone();
    arrival.sort_by_key(|r| (r.recv_resp, r.rpc));

    // Service 1's clock starts 3ms fast and gains 300 ppm; service 2
    // drifts the other way. Both offsets are far above the sanitizer's
    // 50µs noise floor.
    let plan = FaultPlan::new(9)
        .with(Fault::ClockSkew {
            service: traceweaver::model::ids::ServiceId(1),
            offset_ns: 3_000_000,
            drift_ppm: 300.0,
        })
        .with(Fault::ClockSkew {
            service: traceweaver::model::ids::ServiceId(2),
            offset_ns: -2_000_000,
            drift_ppm: -200.0,
        });
    let (perturbed, log) = plan.apply(&arrival);
    assert_eq!(log.emitted, arrival.len(), "skew drops nothing");

    let mut sanitizer = Sanitizer::new(SanitizeConfig::default());
    let corrected = sanitizer.sanitize_batch(perturbed.iter().copied());
    assert_eq!(
        corrected.len(),
        arrival.len(),
        "skew is repaired, not dropped"
    );
    assert!(sanitizer.stats().skew_corrected > 0);

    // Monotone-causal: after correction, every child span nests inside
    // its true parent's span again — `recv_req` at the callee cannot
    // precede `send_req` at the caller (one-way delays are positive in
    // the common frame). Skip the warmup prefix where the filter is
    // still converging on the injected offsets.
    let by_id: HashMap<_, _> = corrected.iter().map(|r| (r.rpc, r)).collect();
    let warmup = corrected.len() / 5;
    let mut checked = 0usize;
    for rec in corrected.iter().skip(warmup) {
        assert!(
            rec.recv_req >= rec.send_req,
            "corrected request travels backwards at {:?}: {} -> {}",
            rec.rpc,
            rec.send_req.0,
            rec.recv_req.0
        );
        assert!(
            rec.recv_resp >= rec.send_resp,
            "corrected response travels backwards at {:?}",
            rec.rpc
        );
        for &child in out.truth.children(rec.rpc) {
            if let Some(c) = by_id.get(&child) {
                assert!(
                    c.recv_req >= rec.recv_req && c.send_resp <= rec.send_resp,
                    "corrected child {:?} escapes parent {:?}",
                    child,
                    rec.rpc
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 100, "nesting assertions actually ran: {checked}");

    // Determinism: the sanitized stream feeds the warm online engine at
    // 1/2/8 worker threads; window shapes and merged mappings must match.
    let run = |threads: usize| {
        let params = Params {
            threads,
            ..Params::default()
        };
        let tw = TraceWeaver::new(call_graph.clone(), params);
        let engine = OnlineEngine::start(
            tw,
            OnlineConfig {
                window: Nanos::from_millis(250),
                grace: Nanos::from_millis(50),
                warm_start: true,
                ..OnlineConfig::default()
            },
        );
        let ingest = engine.ingest_handle();
        for r in &corrected {
            ingest.send(*r).unwrap();
        }
        drop(ingest);
        let windows = engine.shutdown();
        let shapes: Vec<(u64, usize)> =
            windows.iter().map(|w| (w.index, w.records.len())).collect();
        let mut mapping = Mapping::new();
        for w in &windows {
            mapping.merge(w.reconstruction.mapping.clone());
        }
        (shapes, mapping)
    };
    let (ref_shapes, ref_mapping) = run(1);
    let acc = end_to_end_accuracy_all_roots(&ref_mapping, &out.truth);
    assert!(
        acc.ratio() > 0.7,
        "drift-corrected reconstruction accuracy {}",
        acc.ratio()
    );
    for threads in [2usize, 8] {
        let (shapes, mapping) = run(threads);
        assert_eq!(
            ref_shapes, shapes,
            "{threads} threads: window shapes diverged"
        );
        for rec in &corrected {
            assert_eq!(
                ref_mapping.children(rec.rpc),
                mapping.children(rec.rpc),
                "{threads} threads: mapping diverged at {:?}",
                rec.rpc
            );
        }
    }
}

/// The benchmark's `records_conserved` and
/// `only_injected_duplicates_dropped` output checks at tier-1 size: the
/// same fault plan (every fault one the sanitizer repairs), the default
/// sanitizer, the warm online engine. Every record is accounted for and
/// the only records rejected are the injected duplicates.
#[test]
fn faulted_stream_is_conserved_and_only_injected_duplicates_drop() {
    use traceweaver::pipeline::SanitizeConfig;

    let app = traceweaver::sim::apps::hotel_reservation(331);
    let call_graph = app.config.call_graph();
    let root = app.roots[0];
    let rate = app.config.catalog.lookup_service("rate").unwrap();
    let sim = Simulator::new(app.config).unwrap();
    let out = sim.run(&Workload::poisson(root, 600.0, Nanos::from_secs(1)));
    let mut arrival = out.records;
    arrival.sort_by_key(|r| (r.recv_resp, r.rpc));

    let plan = FaultPlan::new(0x331)
        .with(Fault::Duplicate {
            rate: 0.02,
            max_lag: Nanos::from_millis(5),
        })
        .with(Fault::Reorder {
            rate: 0.02,
            max_delay: Nanos::from_millis(20),
        })
        .with(Fault::ClockSkew {
            service: rate,
            offset_ns: 300_000,
            drift_ppm: 100.0,
        });
    let (faulted, log) = plan.apply(&arrival);
    assert!(log.duplicated > 0 && log.reordered > 0 && log.skewed > 0);
    assert_eq!(log.emitted, faulted.len());

    let engine = OnlineEngine::start(
        TraceWeaver::new(call_graph, Params::default()),
        OnlineConfig {
            window: Nanos::from_millis(250),
            warm_start: true,
            sanitize: Some(SanitizeConfig::default()),
            ..OnlineConfig::default()
        },
    );
    let ingest = engine.ingest_handle();
    for r in &faulted {
        ingest.send(*r).unwrap();
    }
    drop(ingest);
    let (windows, stats) = engine.shutdown_with_stats();
    let stats = stats.expect("sanitize stage embedded");

    let in_windows: usize = windows.iter().map(|w| w.records.len()).sum();
    assert_eq!(stats.received, faulted.len() as u64);
    assert_eq!(stats.received, stats.passed + stats.rejected());
    assert_eq!(stats.passed, in_windows as u64);
    assert_eq!(stats.duplicates, stats.rejected());
    assert_eq!(stats.duplicates, log.duplicated as u64);
}
