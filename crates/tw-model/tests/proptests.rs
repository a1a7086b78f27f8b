//! Property-based tests for the domain model.

use proptest::prelude::*;
use tw_model::ids::{Endpoint, OperationId, RpcId, ServiceId};
use tw_model::mapping::Mapping;
use tw_model::span::{split_by_process, RpcRecord, EXTERNAL};
use tw_model::time::Nanos;
use tw_model::truth::TruthIndex;

/// Strategy for a causally-ordered record.
fn record_strategy() -> impl Strategy<Value = RpcRecord> {
    (
        0u64..1000,
        0u32..5,
        0u32..5,
        0u32..3,
        0u64..1_000_000,
        0u64..1_000,
        0u64..1_000_000,
        0u64..1_000,
    )
        .prop_map(|(rpc, caller, callee, op, t0, d1, d2, d3)| RpcRecord {
            rpc: RpcId(rpc),
            caller: if caller == 0 {
                EXTERNAL
            } else {
                ServiceId(caller)
            },
            caller_replica: 0,
            callee: Endpoint::new(ServiceId(callee), OperationId(op)),
            callee_replica: 0,
            send_req: Nanos(t0),
            recv_req: Nanos(t0 + d1),
            send_resp: Nanos(t0 + d1 + d2),
            recv_resp: Nanos(t0 + d1 + d2 + d3),
            caller_thread: None,
            callee_thread: None,
        })
}

proptest! {
    #[test]
    fn generated_records_well_formed(rec in record_strategy()) {
        prop_assert!(rec.is_well_formed());
    }

    #[test]
    fn split_conserves_spans(records in prop::collection::vec(record_strategy(), 0..100)) {
        let views = split_by_process(&records);
        let incoming_total: usize = views.values().map(|v| v.incoming.len()).sum();
        prop_assert_eq!(incoming_total, records.len(), "each record has exactly one incoming span");
        let outgoing_total: usize = views.values().map(|v| v.outgoing.len()).sum();
        let internal = records.iter().filter(|r| r.caller != EXTERNAL).count();
        prop_assert_eq!(outgoing_total, internal, "non-external records get one outgoing span");
        // All views sorted.
        for v in views.values() {
            for w in v.incoming.windows(2) {
                prop_assert!(w[0].start <= w[1].start);
            }
        }
    }

    #[test]
    fn truth_roots_plus_children_consistent(
        parents in prop::collection::vec(prop::option::of(0u64..30), 1..60)
    ) {
        // parent[i] = Some(p) means rpc i's parent is rpc p (skip self).
        let pairs: Vec<(RpcId, Option<RpcId>)> = parents
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let parent = p.filter(|&p| p != i as u64).map(RpcId);
                (RpcId(i as u64), parent)
            })
            .collect();
        let t = TruthIndex::from_pairs(pairs.clone());
        // Every rpc is either a root or its parent's child list contains it.
        for (rpc, parent) in &pairs {
            match parent {
                None => prop_assert!(t.roots().contains(rpc)),
                Some(p) => prop_assert!(t.children(*p).contains(rpc)),
            }
        }
        prop_assert_eq!(t.len(), parents.len());
    }

    #[test]
    fn mapping_assemble_terminates_and_dedups(
        links in prop::collection::vec((0u64..20, 0u64..20), 0..60)
    ) {
        // Arbitrary (even cyclic) parent->child links.
        let mut m = Mapping::new();
        for (p, c) in links {
            m.assign(RpcId(p), [RpcId(c)]);
        }
        let t = m.assemble(RpcId(0));
        // No rpc appears twice.
        let mut seen = std::collections::HashSet::new();
        for rpc in t.rpcs() {
            prop_assert!(seen.insert(rpc), "duplicate {rpc:?} in assembled trace");
        }
        prop_assert!(t.nodes.len() <= 21);
    }

    #[test]
    fn mapping_children_sorted_unique(
        kids in prop::collection::vec(0u64..50, 0..40)
    ) {
        let mut m = Mapping::new();
        m.assign(RpcId(99), kids.iter().map(|&k| RpcId(k)));
        let out = m.children(RpcId(99));
        for w in out.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn nanos_arithmetic_consistent(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let x = Nanos(a);
        let y = Nanos(b);
        prop_assert_eq!(x + y, Nanos(a + b));
        prop_assert_eq!(x.saturating_sub(y), Nanos(a.saturating_sub(b)));
        prop_assert_eq!(x.max(y).0, a.max(b));
        // micros_since is antisymmetric.
        prop_assert!((x.micros_since(y) + y.micros_since(x)).abs() < 1e-6);
    }
}
