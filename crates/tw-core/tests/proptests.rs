//! Property-based tests for the reconstruction algorithm's invariants,
//! on hand-built span layouts and on simulated workloads.

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use tw_core::batching::make_batches;
use tw_core::candidates::{enumerate_candidates, OutgoingPool, SlotLayout};
use tw_core::delays::edge_gaps;
use tw_core::params::Params;
use tw_core::{Params as P, TraceWeaver};
use tw_model::callgraph::{CallGraph, DependencySpec, Stage};
use tw_model::ids::{Endpoint, OperationId, RpcId, ServiceId};
use tw_model::span::{ObservedSpan, RpcRecord, SpanView};
use tw_model::time::Nanos;
use tw_sim::apps::{hotel_reservation, media_microservices, nodejs_app};
use tw_sim::{Simulator, Workload};

fn ep(s: u32) -> Endpoint {
    Endpoint::new(ServiceId(s), OperationId(0))
}

fn span(rpc: u64, e: Endpoint, start: u64, dur: u64) -> ObservedSpan {
    ObservedSpan {
        rpc: RpcId(rpc),
        peer: e.service,
        endpoint: e,
        start: Nanos(start),
        end: Nanos(start + dur),
        thread: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every enumerated candidate satisfies nesting and order constraints.
    #[test]
    fn candidates_respect_constraints(
        parent_start in 0u64..1_000,
        parent_dur in 100u64..2_000,
        children in prop::collection::vec((0u64..3_000, 1u64..800, 0u32..2), 0..12),
    ) {
        let spec = DependencySpec::new(vec![Stage::single(ep(1)), Stage::single(ep(2))]);
        let layout = SlotLayout::from_spec(&spec, true);
        let outgoing: Vec<ObservedSpan> = children
            .iter()
            .enumerate()
            .map(|(i, &(s, d, which))| span(100 + i as u64, ep(1 + which), s, d))
            .collect();
        let pool = OutgoingPool::new(&outgoing);
        let parent = span(0, ep(0), parent_start, parent_dur);
        let cands = enumerate_candidates(0, &parent, &layout, &pool, &Params::default(), false);

        for c in &cands {
            let b = c.children[0].map(|i| pool.span(i));
            let cc = c.children[1].map(|i| pool.span(i));
            for child in [b, cc].iter().flatten() {
                prop_assert!(parent.start <= child.start);
                prop_assert!(child.end <= parent.end);
            }
            if let (Some(b), Some(cc)) = (b, cc) {
                prop_assert!(b.end <= cc.start, "order constraint violated");
            }
            // All edge gaps of a feasible candidate are non-negative.
            for (_, gap) in edge_gaps(ep(0), &parent, &layout, c, &pool) {
                prop_assert!(gap >= -1e-9, "negative gap {gap}");
            }
        }
    }

    /// Batching covers every span exactly once, in order, within size cap.
    #[test]
    fn batches_partition_input(
        sets in prop::collection::vec(prop::collection::vec(0usize..40, 0..6), 1..80),
        raw_ends in prop::collection::vec(0u64..10_000, 1..80),
        cap in 1usize..20,
    ) {
        let n = sets.len().min(raw_ends.len());
        let mut feasible: Vec<Vec<usize>> = sets[..n].to_vec();
        for f in &mut feasible {
            f.sort_unstable();
            f.dedup();
        }
        let ends = raw_ends[..n].to_vec();
        let batches = make_batches(&feasible, &ends, cap);
        prop_assert_eq!(batches.first().map(|r| r.start), Some(0));
        prop_assert_eq!(batches.last().map(|r| r.end), Some(n));
        for w in batches.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
        for b in &batches {
            prop_assert!(b.len() <= cap.max(1));
            prop_assert!(!b.is_empty());
        }
    }

    /// Reconstruction output never assigns one outgoing span to two
    /// parents, regardless of timing layout.
    #[test]
    fn no_double_assignment(
        parents in prop::collection::vec((0u64..5_000, 500u64..3_000), 1..15),
        children in prop::collection::vec((0u64..8_000, 50u64..400), 0..15),
    ) {
        let mut g = CallGraph::new();
        g.insert(ep(0), DependencySpec::new(vec![Stage::single(ep(1))]));
        let mut view = SpanView {
            incoming: parents
                .iter()
                .enumerate()
                .map(|(i, &(s, d))| span(i as u64, ep(0), s, d))
                .collect(),
            outgoing: children
                .iter()
                .enumerate()
                .map(|(i, &(s, d))| span(1_000 + i as u64, ep(1), s, d))
                .collect(),
        };
        view.sort();
        let mut views = std::collections::HashMap::new();
        views.insert(tw_model::span::ProcessKey::new(ServiceId(0), 0), view);
        let tw = TraceWeaver::new(g, P::default());
        let result = tw.reconstruct(&views);

        let mut used: HashSet<RpcId> = HashSet::new();
        for (_, kids) in result.mapping.iter() {
            for &k in kids {
                prop_assert!(used.insert(k), "span {k:?} assigned twice");
            }
        }
    }

    /// With dynamism on, reconstruction still never double-assigns and
    /// never panics on arbitrary inputs.
    #[test]
    fn dynamism_robustness(
        parents in prop::collection::vec((0u64..5_000, 500u64..3_000), 1..10),
        children in prop::collection::vec((0u64..8_000, 50u64..400), 0..8),
    ) {
        let mut g = CallGraph::new();
        g.insert(
            ep(0),
            DependencySpec::new(vec![Stage::single(ep(1)), Stage::single(ep(2))]),
        );
        let mut view = SpanView {
            incoming: parents
                .iter()
                .enumerate()
                .map(|(i, &(s, d))| span(i as u64, ep(0), s, d))
                .collect(),
            outgoing: children
                .iter()
                .enumerate()
                .map(|(i, &(s, d))| span(1_000 + i as u64, ep(1 + (i as u32 % 2)), s, d))
                .collect(),
        };
        view.sort();
        let mut views = std::collections::HashMap::new();
        views.insert(tw_model::span::ProcessKey::new(ServiceId(0), 0), view);
        let tw = TraceWeaver::new(g, P::with_dynamism());
        let result = tw.reconstruct(&views);
        let mut used: HashSet<RpcId> = HashSet::new();
        for (_, kids) in result.mapping.iter() {
            for &k in kids {
                prop_assert!(used.insert(k));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every mapping reconstructed from a simulated workload obeys the
    /// paper's constraints (§4.1 step 1): each child lies inside its
    /// parent on the process clock, a later dependency stage starts only
    /// after every child of an earlier one has ended, no child has two
    /// parents, and the ranked top-K list holds the chosen child set.
    #[test]
    fn simulated_mappings_satisfy_paper_invariants(
        app in 0usize..3,
        seed in any::<u64>(),
        rps in 100.0f64..900.0,
        dynamism in any::<bool>(),
    ) {
        let app = match app {
            0 => hotel_reservation(seed),
            1 => media_microservices(seed),
            _ => nodejs_app(seed),
        };
        let graph = app.config.call_graph();
        let out = Simulator::new(app.config)
            .unwrap()
            .run(&Workload::poisson(app.roots[0], rps, Nanos::from_millis(200)));
        let params = if dynamism { P::with_dynamism() } else { P::default() };
        let result = TraceWeaver::new(graph.clone(), params).reconstruct_records(&out.records);
        let records: HashMap<RpcId, &RpcRecord> = out.records.iter().map(|r| (r.rpc, r)).collect();
        prop_assert!(!result.mapping.is_empty(), "nothing mapped");

        let mut used: HashSet<RpcId> = HashSet::new();
        for (parent, kids) in result.mapping.iter() {
            let p = records[&parent];
            let stages_of = |e: Endpoint| -> Vec<usize> {
                let spec = graph.get(p.callee).expect("a mapped parent has a spec");
                (0..spec.stages.len()).filter(|&k| spec.stages[k].calls.contains(&e)).collect()
            };
            for &k in kids {
                prop_assert!(used.insert(k), "span {k:?} has two parents");
                let c = records[&k];
                prop_assert!(
                    p.recv_req <= c.send_req && c.recv_resp <= p.send_resp,
                    "child {k:?} outside parent {parent:?}"
                );
            }
            for &a in kids {
                for &b in kids {
                    let (a, b) = (records[&a], records[&b]);
                    let (sa, sb) = (stages_of(a.callee), stages_of(b.callee));
                    if sa.iter().max() < sb.iter().min() {
                        prop_assert!(a.recv_resp <= b.send_req, "stage order under {parent:?}");
                    }
                }
            }
            let ranked = result.ranked.candidates(parent);
            prop_assert!(ranked.len() <= params.top_k);
            prop_assert!(ranked.iter().any(|c| c.as_slice() == kids), "{parent:?} unranked");
        }
    }
}
