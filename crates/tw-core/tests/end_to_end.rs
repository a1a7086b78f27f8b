//! End-to-end reconstruction accuracy against the simulator — the core
//! validation of the reproduction: TraceWeaver must reconstruct benchmark
//! application traces with high accuracy at moderate load (paper Figure 4a
//! reports ~93% across the DeathStarBench apps).

use tw_core::{Params, TraceWeaver};
use tw_model::metrics::{end_to_end_accuracy_all_roots, per_service_accuracy, top_k_accuracy};
use tw_model::time::Nanos;
use tw_sim::apps::{
    hotel_reservation, hotel_reservation_with, media_microservices, nodejs_app, HotelOptions,
};
use tw_sim::{Simulator, Workload};

fn run_app(app: tw_sim::apps::BenchApp, rps: f64, secs_ms: u64) -> (tw_sim::SimOutput, f64) {
    let call_graph = app.config.call_graph();
    let root = app.roots[0];
    let sim = Simulator::new(app.config).unwrap();
    let out = sim.run(&Workload::poisson(root, rps, Nanos::from_millis(secs_ms)));
    let tw = TraceWeaver::new(call_graph, Params::default());
    let result = tw.reconstruct_records(&out.records);
    let acc = end_to_end_accuracy_all_roots(&result.mapping, &out.truth).ratio();
    (out, acc)
}

#[test]
fn hotel_low_load_high_accuracy() {
    let (_, acc) = run_app(hotel_reservation(101), 100.0, 1_000);
    assert!(acc > 0.95, "hotel @100rps accuracy {acc}");
}

#[test]
fn hotel_moderate_load_good_accuracy() {
    let (out, acc) = run_app(hotel_reservation(102), 400.0, 1_000);
    assert!(out.stats.arrivals > 300);
    assert!(acc > 0.80, "hotel @400rps accuracy {acc}");
}

#[test]
fn media_compose_flow_accuracy() {
    let app = media_microservices(103);
    let (_, acc) = run_app(app, 150.0, 1_000);
    assert!(acc > 0.80, "media @150rps accuracy {acc}");
}

#[test]
fn nodejs_accuracy() {
    let (_, acc) = run_app(nodejs_app(104), 200.0, 1_000);
    assert!(acc > 0.85, "nodejs @200rps accuracy {acc}");
}

#[test]
fn media_mixed_flows_accuracy() {
    let app = media_microservices(111);
    let call_graph = app.config.call_graph();
    let sim = Simulator::new(app.config).unwrap();
    // Both flows mixed: a read-heavy compose-review / read-page pattern.
    let out = sim.run(
        &Workload::poisson(app.roots[0], 150.0, Nanos::from_millis(1_000))
            .with_mix(vec![(app.roots[0], 1.0), (app.roots[1], 3.0)]),
    );
    let tw = TraceWeaver::new(call_graph, Params::default());
    let result = tw.reconstruct_records(&out.records);
    let acc = end_to_end_accuracy_all_roots(&result.mapping, &out.truth).ratio();
    assert!(acc > 0.8, "media mixed flows accuracy {acc}");
}

#[test]
fn per_service_accuracy_above_e2e() {
    let app = hotel_reservation(105);
    let call_graph = app.config.call_graph();
    let root = app.roots[0];
    let sim = Simulator::new(app.config).unwrap();
    let out = sim.run(&Workload::poisson(root, 300.0, Nanos::from_millis(1_000)));
    let tw = TraceWeaver::new(call_graph, Params::default());
    let result = tw.reconstruct_records(&out.records);
    let e2e = end_to_end_accuracy_all_roots(&result.mapping, &out.truth).ratio();
    let all_parents: Vec<_> = out.records.iter().map(|r| r.rpc).collect();
    let per_svc = per_service_accuracy(&result.mapping, &out.truth, all_parents).ratio();
    // A trace is correct only if all its spans are: per-span accuracy must
    // dominate end-to-end accuracy.
    assert!(per_svc >= e2e, "per-span {per_svc} < e2e {e2e}");
    assert!(per_svc > 0.9);
}

#[test]
fn top_k_accuracy_dominates_top_1() {
    let app = hotel_reservation(106);
    let call_graph = app.config.call_graph();
    let root = app.roots[0];
    let sim = Simulator::new(app.config).unwrap();
    let out = sim.run(&Workload::poisson(root, 600.0, Nanos::from_millis(800)));
    let tw = TraceWeaver::new(call_graph, Params::default());
    let result = tw.reconstruct_records(&out.records);
    let parents: Vec<_> = out.records.iter().map(|r| r.rpc).collect();
    let top1 = top_k_accuracy(&result.ranked, &out.truth, parents.clone(), 1).ratio();
    let top5 = top_k_accuracy(&result.ranked, &out.truth, parents, 5).ratio();
    assert!(top5 >= top1, "top5 {top5} < top1 {top1}");
    assert!(top5 > 0.9, "top-5 accuracy {top5}");
}

#[test]
fn caching_dynamism_handled() {
    let app = hotel_reservation_with(HotelOptions {
        search_cache_prob: 0.4,
        seed: 107,
        ..HotelOptions::default()
    });
    let call_graph = app.config.call_graph();
    let root = app.roots[0];
    let sim = Simulator::new(app.config).unwrap();
    let out = sim.run(&Workload::poisson(root, 200.0, Nanos::from_millis(1_000)));

    let tw = TraceWeaver::new(call_graph, Params::with_dynamism());
    let result = tw.reconstruct_records(&out.records);
    let acc = end_to_end_accuracy_all_roots(&result.mapping, &out.truth).ratio();
    assert!(acc > 0.6, "hotel with 40% cache accuracy {acc}");
}

#[test]
fn confidence_tracks_accuracy_direction() {
    // Low load (easy) must yield higher mean confidence than extreme load.
    let conf_at = |rps: f64, seed: u64| {
        let app = hotel_reservation(seed);
        let call_graph = app.config.call_graph();
        let root = app.roots[0];
        let sim = Simulator::new(app.config).unwrap();
        let out = sim.run(&Workload::poisson(root, rps, Nanos::from_millis(600)));
        let tw = TraceWeaver::new(call_graph, Params::default());
        let result = tw.reconstruct_records(&out.records);
        let confs = result.confidence_by_service();
        confs.values().sum::<f64>() / confs.len() as f64
    };
    let low = conf_at(100.0, 108);
    let high = conf_at(1_500.0, 108);
    assert!(
        low > high,
        "confidence should fall with load: low {low} vs high {high}"
    );
}

/// A service whose parent→child gap is strongly bimodal: the seed
/// Gaussian centers between the modes, so iterating into a GMM (which the
/// BIC sweep will make two-component) must not lose accuracy and usually
/// gains it. Exercises §4.1 steps 3/6 beyond what a unimodal app can.
#[test]
fn gmm_iterations_help_on_bimodal_gaps() {
    use tw_model::ids::Endpoint;
    use tw_sim::{
        AppConfig, CallBehavior, EndpointBehavior, ServiceConfig, StageBehavior, ThreadingModel,
    };
    use tw_stats::sampler::DelayDistribution;

    let mut catalog = tw_model::Catalog::new();
    let front = catalog.service("front");
    let back = catalog.service("back");
    let op = catalog.operation("op");
    let bimodal_gap = DelayDistribution::Bimodal {
        mu1: 30.0,
        sigma1: 5.0,
        mu2: 900.0,
        sigma2: 30.0,
        p2: 0.5,
    };
    let config = AppConfig {
        catalog,
        services: vec![
            ServiceConfig {
                id: front,
                replicas: 1,
                threading: ThreadingModel::RpcPool {
                    io_threads: 2,
                    workers: 32,
                },
                endpoints: vec![(
                    op,
                    EndpointBehavior::with_stages(
                        DelayDistribution::Constant { value: 10.0 },
                        vec![StageBehavior::new(
                            DelayDistribution::Constant { value: 0.0 },
                            vec![CallBehavior::new(Endpoint::new(back, op), bimodal_gap)],
                        )],
                        DelayDistribution::Constant { value: 20.0 },
                    ),
                )],
            },
            ServiceConfig {
                id: back,
                replicas: 1,
                threading: ThreadingModel::RpcPool {
                    io_threads: 2,
                    workers: 32,
                },
                endpoints: vec![(
                    op,
                    EndpointBehavior::leaf(DelayDistribution::LogNormal {
                        mu: 300.0f64.ln(),
                        sigma: 0.4,
                    }),
                )],
            },
        ],
        network_delay: DelayDistribution::LogNormal {
            mu: 100.0f64.ln(),
            sigma: 0.3,
        },
        seed: 110,
    };
    let call_graph = config.call_graph();
    let root = Endpoint::new(front, op);
    let sim = Simulator::new(config).unwrap();
    let out = sim.run(&Workload::poisson(root, 900.0, Nanos::from_millis(1_000)));

    let acc = |p: Params| {
        let tw = TraceWeaver::new(call_graph.clone(), p);
        end_to_end_accuracy_all_roots(&tw.reconstruct_records(&out.records).mapping, &out.truth)
            .ratio()
    };
    let one = acc(Params::default().ablate_iteration());
    let three = acc(Params::default());
    assert!(
        three >= one - 0.01,
        "iterating must not hurt: 1 iter {one}, 3 iters {three}"
    );
    assert!(three > 0.8, "GMM iterations accuracy {three}");
}

#[test]
fn deterministic_reconstruction() {
    let mk = || {
        let app = hotel_reservation(109);
        let call_graph = app.config.call_graph();
        let root = app.roots[0];
        let sim = Simulator::new(app.config).unwrap();
        let out = sim.run(&Workload::poisson(root, 300.0, Nanos::from_millis(400)));
        let tw = TraceWeaver::new(call_graph, Params::default());
        let result = tw.reconstruct_records(&out.records);
        (out, result)
    };
    let (out1, r1) = mk();
    let (_, r2) = mk();
    for rec in &out1.records {
        assert_eq!(r1.mapping.children(rec.rpc), r2.mapping.children(rec.rpc));
    }
}
