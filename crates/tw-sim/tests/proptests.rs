//! Property-based tests for the simulator: arbitrary small topologies and
//! workloads must produce causally consistent, complete, deterministic
//! output, and capture noise from a [`FaultPlan`] must keep records
//! well-formed and reproducible.

use proptest::prelude::*;
use tw_model::ids::{Catalog, Endpoint, OperationId, RpcId, ServiceId};
use tw_model::span::{RpcRecord, EXTERNAL};
use tw_model::time::Nanos;
use tw_sim::config::{
    AppConfig, CallBehavior, EndpointBehavior, ServiceConfig, StageBehavior, ThreadingModel,
};
use tw_sim::{Fault, FaultPlan, Simulator, Workload};
use tw_stats::sampler::DelayDistribution;

#[derive(Debug, Clone)]
struct TopoSpec {
    /// Per non-root service: number of replicas and threading selector.
    leaves: Vec<(u16, u8)>,
    /// Stage split point: leaves [0..split) in stage 1, rest in stage 2.
    split: usize,
    root_threads: u16,
    seed: u64,
    rps: f64,
}

fn topo_strategy() -> impl Strategy<Value = TopoSpec> {
    (
        prop::collection::vec((1u16..3, 0u8..3), 1..5),
        any::<usize>(),
        1u16..8,
        any::<u64>(),
        50.0f64..800.0,
    )
        .prop_map(|(leaves, split, root_threads, seed, rps)| TopoSpec {
            split: split % (leaves.len() + 1),
            leaves,
            root_threads,
            seed,
            rps,
        })
}

fn build_app(spec: &TopoSpec) -> (AppConfig, Endpoint) {
    let mut catalog = Catalog::new();
    let root_id = catalog.service("root");
    let op = catalog.operation("op");
    let us = |v: f64| DelayDistribution::Constant { value: v };

    let mut services = Vec::new();
    let mut leaf_eps = Vec::new();
    for (i, &(replicas, threading)) in spec.leaves.iter().enumerate() {
        let id = catalog.service(&format!("leaf{i}"));
        let threading = match threading {
            0 => ThreadingModel::BlockingPool { threads: 4 },
            1 => ThreadingModel::RpcPool {
                io_threads: 2,
                workers: 8,
            },
            _ => ThreadingModel::AsyncEventLoop,
        };
        leaf_eps.push(Endpoint::new(id, op));
        services.push(ServiceConfig {
            id,
            replicas,
            threading,
            endpoints: vec![(
                op,
                EndpointBehavior::leaf(DelayDistribution::LogNormal {
                    mu: 5.0,
                    sigma: 0.4,
                }),
            )],
        });
    }

    let mut stages = Vec::new();
    let (s1, s2) = leaf_eps.split_at(spec.split);
    for group in [s1, s2] {
        if !group.is_empty() {
            stages.push(StageBehavior::new(
                us(5.0),
                group
                    .iter()
                    .map(|&e| CallBehavior::new(e, us(1.0)))
                    .collect(),
            ));
        }
    }
    services.insert(
        0,
        ServiceConfig {
            id: root_id,
            replicas: 1,
            threading: ThreadingModel::BlockingPool {
                threads: spec.root_threads,
            },
            endpoints: vec![(
                op,
                EndpointBehavior::with_stages(us(20.0), stages, us(10.0)),
            )],
        },
    );

    (
        AppConfig {
            catalog,
            services,
            network_delay: us(50.0),
            seed: spec.seed,
        },
        Endpoint::new(root_id, op),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arbitrary_topology_invariants(spec in topo_strategy()) {
        let (config, root) = build_app(&spec);
        prop_assert_eq!(config.validate(), Ok(()));
        let expected_spans = 1 + spec.leaves.len();
        let sim = Simulator::new(config).unwrap();
        let out = sim.run(&Workload::poisson(root, spec.rps, Nanos::from_millis(200)));

        // Everything completes.
        prop_assert_eq!(out.stats.completed_roots, out.stats.arrivals);
        // Causality per record.
        for rec in &out.records {
            prop_assert!(rec.is_well_formed());
        }
        // Tree shape and nesting per trace.
        for &r in out.truth.roots() {
            let desc = out.truth.descendants(r);
            prop_assert_eq!(desc.len(), expected_spans);
            for &d in &desc {
                if let Some(Some(parent)) = out.truth.parent(d) {
                    let c = &out.records[d.0 as usize];
                    let p = &out.records[parent.0 as usize];
                    prop_assert!(p.recv_req <= c.send_req);
                    prop_assert!(c.recv_resp <= p.send_resp);
                }
            }
        }
        // Exactly the roots have EXTERNAL callers.
        let external = out.records.iter().filter(|r| r.caller == EXTERNAL).count();
        prop_assert_eq!(external, out.truth.roots().len());
    }

    #[test]
    fn determinism(spec in topo_strategy()) {
        let (config, root) = build_app(&spec);
        let w = Workload::poisson(root, spec.rps, Nanos::from_millis(100));
        let a = Simulator::new(config.clone()).unwrap().run(&w);
        let b = Simulator::new(config).unwrap().run(&w);
        prop_assert_eq!(a.records, b.records);
    }
}

/// Well-formed records with distinct ids, at timestamps up to epoch scale
/// (beyond 2^53 ns, where a float detour would round).
fn records_strategy() -> impl Strategy<Value = Vec<RpcRecord>> {
    prop::collection::vec(
        (0u64..1 << 62, any::<[u16; 3]>(), any::<u32>(), any::<u32>()),
        0..40,
    )
    .prop_map(|recs| {
        recs.into_iter()
            .enumerate()
            .map(|(i, (base, gaps, t1, t2))| {
                let recv_req = base + u64::from(gaps[0]);
                let send_resp = recv_req + u64::from(gaps[1]);
                RpcRecord {
                    rpc: RpcId(i as u64),
                    caller: EXTERNAL,
                    caller_replica: 0,
                    callee: Endpoint::new(ServiceId(i as u32 % 3), OperationId(0)),
                    callee_replica: 0,
                    send_req: Nanos(base),
                    recv_req: Nanos(recv_req),
                    send_resp: Nanos(send_resp),
                    recv_resp: Nanos(send_resp + u64::from(gaps[2])),
                    caller_thread: Some(t1),
                    callee_thread: Some(t2),
                }
            })
            .collect()
    })
}

fn by_id(mut records: Vec<RpcRecord>) -> Vec<RpcRecord> {
    records.sort_by_key(|r| r.rpc);
    records
}

proptest! {
    #[test]
    fn jitter_keeps_records_well_formed_and_within_bound(
        records in records_strategy(),
        max_ns in 0u64..100_000,
        seed in any::<u64>(),
    ) {
        let (out, log) = FaultPlan::new(seed)
            .with(Fault::Jitter { max_ns })
            .apply(&records);
        let out = by_id(out);
        prop_assert_eq!(out.len(), records.len());
        let moved = out.iter().zip(&records).filter(|(o, r)| o != r).count();
        prop_assert_eq!(log.jittered, moved);
        prop_assert_eq!(log.total_faulted(), 0);
        for (o, r) in out.iter().zip(&records) {
            prop_assert!(o.is_well_formed(), "jitter broke causality: {:?}", o);
            for (a, b) in [
                (o.send_req, r.send_req),
                (o.recv_req, r.recv_req),
                (o.send_resp, r.send_resp),
                (o.recv_resp, r.recv_resp),
            ] {
                prop_assert!(a.0.abs_diff(b.0) <= max_ns);
            }
        }
    }

    #[test]
    fn capture_noise_is_deterministic_per_seed(
        records in records_strategy(),
        max_ns in 1u64..100_000,
        seed in any::<u64>(),
    ) {
        let plan = FaultPlan::new(seed)
            .with(Fault::Jitter { max_ns })
            .with(Fault::Drop { rate: 0.1 });
        prop_assert_eq!(plan.apply(&records), plan.apply(&records));
    }

    #[test]
    fn jitter_does_not_undo_clock_skew(
        records in records_strategy(),
        max_ns in 0u64..100_000,
        offset_ns in -1_000_000i64..1_000_000,
        seed in any::<u64>(),
    ) {
        // Callee-side timestamps of the skewed service keep the injected
        // offset to within the jitter bound, non-causal or not.
        let skewed = ServiceId(1);
        let (out, _) = FaultPlan::new(seed)
            .with(Fault::ClockSkew { service: skewed, offset_ns, drift_ppm: 0.0 })
            .with(Fault::Jitter { max_ns })
            .apply(&records);
        for (o, r) in by_id(out).iter().zip(&records) {
            let offset = if r.callee.service == skewed { offset_ns } else { 0 };
            for (a, b) in [(o.recv_req, r.recv_req), (o.send_resp, r.send_resp)] {
                let err = i128::from(a.0) - i128::from(b.0) - i128::from(offset);
                prop_assert!(err.abs() <= i128::from(max_ns), "skew lost: {:?} vs {:?}", o, r);
            }
        }
    }

    #[test]
    fn empty_plan_is_identity_up_to_arrival_order(
        records in records_strategy(),
        seed in any::<u64>(),
    ) {
        let (out, log) = FaultPlan::new(seed).apply(&records);
        prop_assert_eq!(log.total_faulted(), 0);
        let mut want = records.clone();
        want.sort_by_key(|r| (r.recv_resp, r.rpc));
        prop_assert_eq!(out, want);
    }
}
