//! Online deployment with tail-based sampling (paper §5.3).
//!
//! Spans stream into a live engine (here over a channel, in production
//! over the wire using `tw_capture::wire` frames); windows are
//! reconstructed in real time and a tail sampler keeps 10% of complete
//! traces — the sampling style that is impossible head-based without
//! context propagation.
//!
//! ```sh
//! cargo run --release --example online_sampling
//! ```

use traceweaver::capture::{decode_records, encode_records};
use traceweaver::prelude::*;

fn main() {
    let app = traceweaver::sim::apps::nodejs_app(17);
    let call_graph = app.config.call_graph();
    let sim = Simulator::new(app.config).expect("valid config");
    let out = sim.run(&Workload::poisson(app.roots[0], 400.0, Nanos::from_secs(3)));

    // Ship the records through the binary wire format, as a capture agent
    // would across the network.
    let frames = encode_records(&out.records);
    println!(
        "captured {} spans ({} KiB on the wire)",
        out.records.len(),
        frames.len() / 1024
    );
    let mut received = decode_records(frames).expect("well-formed frames");
    received.sort_by_key(|r| r.send_req);

    // Live engine: 500ms windows.
    let tw = TraceWeaver::new(call_graph, Params::default());
    let engine = OnlineEngine::start(
        tw,
        OnlineConfig {
            window: Nanos::from_millis(500),
            grace: Nanos::from_millis(100),
            channel_capacity: 8_192,
            ..OnlineConfig::default()
        },
    );
    let ingest = engine.ingest_handle();
    for rec in received {
        ingest.send(rec).expect("engine alive");
    }
    drop(ingest);

    let results = engine.results().clone();
    let mut windows = engine.shutdown();
    windows.extend(results.try_iter());
    windows.sort_by_key(|w| w.index);

    // Tail-sample 10% of reconstructed traces per window.
    let mut sampler = TailSampler::new(0.10, 3);
    let mut kept_total = 0usize;
    let mut span_total = 0usize;
    println!("\n window |  spans | kept after 10% tail sampling");
    println!("{}", "-".repeat(48));
    for w in &windows {
        let kept = sampler.sample(&w.records, &w.reconstruction);
        println!(
            "{:>7} | {:>6} | {:>6}",
            w.index,
            w.records.len(),
            kept.len()
        );
        kept_total += kept.len();
        span_total += w.records.len();
    }
    println!(
        "\nstored {} of {} spans ({:.1}%) while keeping every sampled trace complete",
        kept_total,
        span_total,
        100.0 * kept_total as f64 / span_total as f64
    );

    // Accuracy check over all windows.
    let mut merged = Mapping::new();
    for w in &windows {
        merged.merge(w.reconstruction.mapping.clone());
    }
    let acc = end_to_end_accuracy_all_roots(&merged, &out.truth);
    println!("online end-to-end accuracy: {:.1}%", acc.percent());
}
