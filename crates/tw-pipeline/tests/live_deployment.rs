//! The full online deployment path end to end: a capture agent exports
//! wire frames over real TCP → the ingestion server decodes them → the
//! online engine reconstructs windows → a tail sampler keeps whole traces.
//! This is the paper's §5.3 online mode, wired together for real.

use tw_core::{Params, TraceWeaver};
use tw_model::metrics::end_to_end_accuracy_all_roots;
use tw_model::time::Nanos;
use tw_pipeline::{export_records, IngestServer, OnlineConfig, OnlineEngine, TailSampler};
use tw_sim::apps::hotel_reservation;
use tw_sim::{Simulator, Workload};
use tw_telemetry::Registry;

#[test]
fn tcp_to_engine_to_sampler() {
    // Capture traffic.
    let app = hotel_reservation(401);
    let call_graph = app.config.call_graph();
    let sim = Simulator::new(app.config).unwrap();
    let out = sim.run(&Workload::poisson(app.roots[0], 250.0, Nanos::from_secs(2)));

    // The warm online engine, on two reconstruction threads, fed by a TCP
    // ingestion server.
    let params = Params {
        threads: 2,
        ..Params::default()
    };
    let tw = TraceWeaver::new(call_graph, params);
    let engine = OnlineEngine::start(
        tw,
        OnlineConfig {
            window: Nanos::from_millis(500),
            grace: Nanos::from_millis(100),
            channel_capacity: 16_384,
            warm_start: true,
            ..OnlineConfig::default()
        },
    );
    let server =
        IngestServer::bind("127.0.0.1:0", engine.ingest_handle(), &Registry::new()).unwrap();
    let addr = server.local_addr();

    // Two agents export disjoint halves concurrently (e.g. two nodes).
    let mut records = out.records.clone();
    records.sort_by_key(|r| r.send_req);
    let (a, b) = records.split_at(records.len() / 2);
    let (a, b) = (a.to_vec(), b.to_vec());
    let h1 = std::thread::spawn(move || export_records(addr, &a).unwrap());
    let h2 = std::thread::spawn(move || export_records(addr, &b).unwrap());
    h1.join().unwrap();
    h2.join().unwrap();

    // Close the pipeline: server first (drains connections), then engine.
    server.shutdown();
    let results = engine.results().clone();
    let mut windows = engine.shutdown();
    windows.extend(results.try_iter());

    let total: usize = windows.iter().map(|w| w.records.len()).sum();
    assert_eq!(
        total,
        out.records.len(),
        "every span processed exactly once"
    );

    // Accuracy holds across the network hop.
    let mut merged = tw_model::Mapping::new();
    for w in &windows {
        merged.merge(w.reconstruction.mapping.clone());
    }
    let acc = end_to_end_accuracy_all_roots(&merged, &out.truth);
    assert!(acc.ratio() > 0.85, "accuracy over TCP {}", acc.ratio());

    // Tail-sample 20%: whole traces only.
    let mut sampler = TailSampler::new(0.2, 7);
    let mut kept = 0usize;
    for w in &windows {
        let sample = sampler.sample(&w.records, &w.reconstruction);
        // Hotel traces are 6 spans; correct whole-tree samples come in
        // multiples of full traces (allowing reconstruction error, just
        // check we keep something structured).
        kept += sample.len();
    }
    assert!(kept > 0 && kept < total, "sampled {kept} of {total}");
}
