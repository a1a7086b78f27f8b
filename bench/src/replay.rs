//! The stage replay of a traced run: one thread pushes the workload's own
//! input through each layer's public functions in turn, with a span around
//! every call, so each layer has a cost measured from outside that does
//! not depend on the program's own timers.
//!
//! The replay is bounded (a prefix of the stream, a dozen windows, one EM
//! iteration per task) so that a traced run takes about as long as an
//! untraced one.

use crate::common::{as_window, Scratch};
use crate::input::WINDOW;
use crate::report::{check, Check, Values};
use crate::series::Snap;
use crate::spans::{Tracer, NO_WINDOW};
use crate::stats::{median, percentile};
use crate::workloads::query::{brute_force, every_trace, query_list, segments_scanned, CLASSES};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::path::Path;
use tw_capture::wire::{encode_records, FrameDecoder};
use tw_core::batching::make_batches;
use tw_core::candidates::{enumerate_candidates, Candidate, OutgoingPool, SlotLayout};
use tw_core::delays::{edge_gaps, score_candidate, DelayModel, EdgeKey};
use tw_core::optimize::optimize_batch;
use tw_core::{DelayRegistry, Params, TraceWeaver};
use tw_model::callgraph::CallGraph;
use tw_model::ids::Endpoint;
use tw_model::span::{split_by_process, RpcRecord};
use tw_pipeline::{
    load_checkpoint, stored_traces, write_checkpoint, CheckpointDoc, SanitizeConfig, Sanitizer,
};
use tw_store::{
    load_manifest, read_query, read_segment, read_segment_index, write_segment, ArchiveConfig,
    StoredTrace, TraceArchive,
};
use tw_telemetry::Registry;

/// Records of the stream the replay consumes (~3 s of the online stream,
/// all of the dense one).
const REPLAY_RECORDS: usize = 12_000;
/// Windows reconstructed cold and warm.
const REPLAY_WINDOWS: usize = 10;
/// Query cycles against the replay's own small archive.
const REPLAY_QUERY_CYCLES: usize = 10;
/// Repetitions of the sub-millisecond calls whose median is reported.
const SMALL_CALL_REPS: usize = 5;
/// Segment size of the replay archive: several segments from a dozen
/// windows, so pruning has something to prune.
const REPLAY_SEGMENT_BYTES: u64 = 64 << 10;

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// One EM iteration of one per-container task, through the same public
/// functions `ReconstructionTask::run` composes, each under a span.
#[derive(Default)]
struct EmCounts {
    tasks: usize,
    parents: usize,
    candidates: usize,
    batches: usize,
    edges: usize,
}

fn replay_em_iteration(
    t: &mut Tracer,
    graph: &CallGraph,
    params: &Params,
    records: &[RpcRecord],
    window: u64,
) -> EmCounts {
    let mut counts = EmCounts::default();
    let mut views: Vec<_> = split_by_process(records).into_iter().collect();
    views.sort_by_key(|(key, _)| *key);
    for (_, mut view) in views {
        if view.incoming.is_empty() {
            continue;
        }
        view.sort();
        let (incoming, outgoing) = (&view.incoming, &view.outgoing);
        counts.tasks += 1;
        counts.parents += incoming.len();
        t.span("core.task", window, |t| {
            let layouts: HashMap<Endpoint, SlotLayout> =
                t.call("core.slot_layouts", window, || {
                    incoming
                        .iter()
                        .map(|s| s.endpoint)
                        .collect::<HashSet<_>>()
                        .into_iter()
                        .map(|e| {
                            let layout =
                                SlotLayout::from_spec(&graph.spec(e), params.use_order_constraints);
                            (e, layout)
                        })
                        .collect()
                });
            let pool = t.call("core.outgoing_pool", window, || OutgoingPool::new(outgoing));
            let feasible: Vec<Vec<usize>> = t.call("core.feasible_for_window", window, || {
                incoming
                    .iter()
                    .map(|p| {
                        let mut set: Vec<usize> = layouts[&p.endpoint]
                            .stages
                            .iter()
                            .flatten()
                            .flat_map(|&e| pool.feasible_for_window(e, p.start, p.end))
                            .collect();
                        set.sort_unstable();
                        set.dedup();
                        set
                    })
                    .collect()
            });
            let mut candidates: Vec<Vec<Candidate>> =
                t.call("core.enumerate_candidates", window, || {
                    incoming
                        .iter()
                        .enumerate()
                        .map(|(i, p)| {
                            enumerate_candidates(i, p, &layouts[&p.endpoint], &pool, params, false)
                        })
                        .collect()
                });
            counts.candidates += candidates.iter().map(Vec::len).sum::<usize>();
            let ends: Vec<u64> = incoming.iter().map(|s| s.end.0).collect();
            let batches = t.call("core.make_batches", window, || {
                make_batches(&feasible, &ends, params.batch_size)
            });
            counts.batches += batches.len();
            let model = t.call("core.seed", window, || {
                DelayModel::seed(incoming, &pool, &layouts, outgoing, params)
            });
            t.call("core.score_candidates", window, || {
                for (p, cands) in incoming.iter().zip(candidates.iter_mut()) {
                    let layout = &layouts[&p.endpoint];
                    for c in cands.iter_mut() {
                        c.score = score_candidate(p.endpoint, p, layout, c, &pool, &model, params);
                    }
                    cands.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("finite scores"));
                }
            });
            let mut used: HashSet<usize> = HashSet::new();
            let mut gaps: HashMap<EdgeKey, Vec<f64>> = HashMap::new();
            for range in &batches {
                let per_parent: Vec<Vec<Candidate>> = range
                    .clone()
                    .map(|i| {
                        candidates[i]
                            .iter()
                            .filter(|c| c.children.iter().flatten().all(|x| !used.contains(x)))
                            .take(params.top_k)
                            .cloned()
                            .collect()
                    })
                    .collect();
                let outcome = t.call("solver.optimize_batch", window, || {
                    optimize_batch(&per_parent, params, None)
                });
                for (i, pick) in range.clone().zip(&outcome.picks) {
                    let Some(c) = pick else { continue };
                    let cand = &per_parent[i - range.start][*c];
                    used.extend(cand.children.iter().flatten());
                    let p = &incoming[i];
                    for (key, gap) in edge_gaps(p.endpoint, p, &layouts[&p.endpoint], cand, &pool) {
                        gaps.entry(key).or_default().push(gap);
                    }
                }
            }
            counts.edges += gaps.len();
            black_box(t.call("core.refit", window, || model.refit(&gaps, params)));
        });
    }
    counts
}

/// Push `records` through every layer; fill the `<layer>.<metric>` values
/// that are timed from outside and return the checks the replay makes.
pub fn stage_replay(
    t: &mut Tracer,
    graph: &CallGraph,
    records: &[RpcRecord],
    scratch: &Scratch,
    values: &mut Values,
) -> Vec<Check> {
    let records = &records[..REPLAY_RECORDS.min(records.len())];
    let n = records.len();
    let mut checks = Vec::new();
    t.span("replay", NO_WINDOW, |t| {
        // --- capture: wire encode and incremental decode ---------------
        let frames = t.call("capture.encode_records", NO_WINDOW, || {
            encode_records(records)
        });
        let decoded = t.call("capture.decode", NO_WINDOW, || {
            let mut decoder = FrameDecoder::new();
            let mut out = Vec::with_capacity(n);
            // 16 KiB reads, as the ingest server's connection loop does.
            for piece in frames.chunks(16 * 1024) {
                decoder.feed(piece);
                while let Ok(Some(rec)) = decoder.next_record() {
                    out.push(rec);
                }
            }
            out
        });
        checks.push(check(
            "wire_round_trip",
            decoded == records,
            format!(
                "{} of {n} records decode to what was encoded",
                decoded.len()
            ),
        ));

        // --- sanitize ---------------------------------------------------
        let mut sanitizer = Sanitizer::new(SanitizeConfig::default());
        let clean: Vec<RpcRecord> = t.call("sanitize", NO_WINDOW, || {
            decoded
                .into_iter()
                .filter_map(|r| sanitizer.sanitize(r))
                .collect()
        });
        let stats = sanitizer.stats();
        values.set("sanitize.records_in", stats.received as f64, 1);
        values.set("sanitize.records_out", stats.passed as f64, 1);
        values.set("sanitize.dropped", stats.rejected() as f64, 1);
        values.set(
            "sanitize.pass_ratio",
            stats.passed as f64 / stats.received.max(1) as f64,
            1,
        );

        // --- core per window, cold and warm; archive stage conversion --
        let mut by_window: BTreeMap<u64, Vec<RpcRecord>> = BTreeMap::new();
        for rec in &clean {
            let index = rec.recv_resp.0.div_ceil(WINDOW.0).saturating_sub(1);
            by_window.entry(index).or_default().push(*rec);
        }
        let params = Params::default();
        let tw = TraceWeaver::new(graph.clone(), params);
        let mut registry = DelayRegistry::new();
        let mut windows: Vec<(u64, Vec<StoredTrace>)> = Vec::new();
        let (mut mapped, mut top, mut total) = (0usize, 0usize, 0usize);
        for (&index, recs) in by_window.iter().take(REPLAY_WINDOWS) {
            t.span("window", index, |t| {
                black_box(t.call("core.reconstruct_cold", index, || {
                    tw.reconstruct_records(recs)
                }));
                let (result, posterior) = t.call("core.reconstruct_warm", index, || {
                    tw.reconstruct_records_with_registry(recs, &registry)
                });
                registry = posterior;
                let summary = result.summary();
                mapped += summary.mapped_spans;
                top += summary.top_choice_spans;
                total += summary.total_spans;
                let window = as_window(index, recs, result);
                let traces = t.call("archive_stage.stored_traces", index, || {
                    stored_traces(&window)
                });
                windows.push((index, traces));
            });
        }
        let em = by_window
            .iter()
            .nth(1)
            .or_else(|| by_window.iter().next())
            .map(|(&index, recs)| {
                t.span("core.em_iteration", index, |t| {
                    replay_em_iteration(t, graph, &params, recs, index)
                })
            })
            .unwrap_or_default();

        // --- store -------------------------------------------------------
        let dir = scratch.dir("replay");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch is writable");
        let all: Vec<StoredTrace> = windows
            .iter()
            .flat_map(|(_, t)| t.iter().cloned())
            .collect();
        let spans: usize = all.iter().map(|t| t.spans.len()).sum();
        t.call("store.encode_traces", NO_WINDOW, || {
            for trace in &all {
                black_box(serde_json::to_string(trace).expect("trace serializes"));
            }
        });
        let segment = dir.join("seg-replay.twsg");
        let (seg_bytes, _) = t
            .call("store.write_segment", NO_WINDOW, || {
                write_segment(&segment, &all)
            })
            .expect("segment write");
        let read_back = t
            .call("store.read_segment", NO_WINDOW, || read_segment(&segment))
            .expect("segment read");
        for _ in 0..SMALL_CALL_REPS {
            black_box(
                t.call("store.read_segment_index", NO_WINDOW, || {
                    read_segment_index(&segment)
                })
                .expect("segment index read"),
            );
        }
        checks.push(check(
            "segment_round_trip",
            read_back == all,
            format!("{} of {} traces read back", read_back.len(), all.len()),
        ));
        values.set(
            "store.bytes_per_span",
            seg_bytes as f64 / spans.max(1) as f64,
            spans,
        );

        let archive_dir = dir.join("archive");
        let store_registry = Registry::new();
        let config = |segment_bytes| ArchiveConfig {
            segment_bytes,
            ..ArchiveConfig::new(&archive_dir)
        };
        {
            let archive = TraceArchive::open(config(REPLAY_SEGMENT_BYTES), &store_registry)
                .expect("replay archive opens");
            for (index, traces) in &windows {
                t.call("store.observe_window", *index, || {
                    archive.observe_window(*index, traces.clone())
                });
            }
            t.call("store.sync", NO_WINDOW, || archive.sync());
        }
        for _ in 0..SMALL_CALL_REPS {
            black_box(t.call("store.open", NO_WINDOW, || {
                TraceArchive::open(config(REPLAY_SEGMENT_BYTES), &Registry::new())
                    .expect("replay archive reopens")
            }));
        }
        let archive = TraceArchive::open(config(REPLAY_SEGMENT_BYTES), &store_registry)
            .expect("replay archive reopens");
        let queries = query_list(&brute_force(&all, &every_trace()));
        let manifest = load_manifest(&archive_dir).expect("replay manifest loads");
        let (may_match, pairs) = segments_scanned(&queries, &manifest);
        values.set(
            "store.segments_scanned_ratio",
            may_match as f64 / pairs.max(1) as f64,
            pairs,
        );
        let mut equal = 0;
        for cycle in 0..REPLAY_QUERY_CYCLES {
            t.span("store.query_cycle", NO_WINDOW, |t| {
                for (i, q) in queries.iter().enumerate() {
                    let got = t.call(CLASSES[i / 2].replay_span, NO_WINDOW, || archive.query(q));
                    if cycle == 0 && got == brute_force(&all, q) {
                        equal += 1;
                    }
                }
            });
        }
        checks.push(check(
            "replay_queries_equal_brute_force",
            equal == queries.len(),
            format!("{equal} of {} queries on the replay archive", queries.len()),
        ));
        for q in &queries {
            black_box(
                t.call("store.read_query", NO_WINDOW, || {
                    read_query(&archive_dir, q)
                })
                .expect("read-only query"),
            );
        }
        drop(archive);
        // Reopened with 16x larger segments every sealed segment counts as
        // small, so one maintenance pass merges them all: the compactor's
        // whole job in one timed call.
        let compactor = TraceArchive::open(config(16 * REPLAY_SEGMENT_BYTES), &store_registry)
            .expect("replay archive reopens");
        t.call("store.maintain", NO_WINDOW, || compactor.maintain());
        let store = Snap::of(&store_registry);
        checks.push(check(
            "compaction_keeps_every_trace",
            compactor.committed_traces() == all.len() as u64
                && store.value("tw_store_compactions_total", &[]) == 1.0,
            format!(
                "{} traces in {} segment(s) after one pass",
                compactor.committed_traces(),
                compactor.segment_count()
            ),
        ));
        values.set("store.seals", store.value("tw_store_seals_total", &[]), 1);
        values.set(
            "store.appends",
            store.value("tw_store_appends_total", &[]),
            1,
        );

        // --- checkpoint --------------------------------------------------
        let ckpt_dir = dir.join("checkpoint");
        let doc = CheckpointDoc {
            watermark: windows.last().map_or(0, |(i, _)| i + 1),
            window_ns: WINDOW.0,
            sanitizer: Some(sanitizer.snapshot()),
            registry: Some(registry.clone()),
            archived: Some(compactor.watermark()),
        };
        for _ in 0..SMALL_CALL_REPS {
            t.call("checkpoint.write", NO_WINDOW, || {
                write_checkpoint(&ckpt_dir, &doc)
            })
            .expect("checkpoint write");
            let loaded = t
                .call("checkpoint.load", NO_WINDOW, || load_checkpoint(&ckpt_dir))
                .expect("checkpoint load");
            assert_eq!(loaded.watermark, doc.watermark, "checkpoint round trip");
        }
        let ckpt_bytes = std::fs::metadata(ckpt_dir.join("online.ckpt")).map_or(0, |m| m.len());
        values.set("checkpoint.bytes", ckpt_bytes as f64, 1);
        values.set("checkpoint.writes", SMALL_CALL_REPS as f64, 1);

        // --- telemetry -----------------------------------------------------
        for _ in 0..SMALL_CALL_REPS {
            black_box(t.call("telemetry.render", NO_WINDOW, || {
                Registry::render_multi(&[tw_telemetry::global(), &store_registry])
            }));
        }
        values.set(
            "telemetry.series",
            (tw_telemetry::global().series_count() + store_registry.series_count()) as f64,
            1,
        );

        // --- everything that is a span total -----------------------------
        let totals = t.totals();
        let total_ns = |name: &str| totals.get(name).map_or(0, |s| s.total_ns) as f64;
        let per = |name: &str, units: usize| total_ns(name) / units.max(1) as f64;
        values.set(
            "capture.encode_ns_per_rec",
            per("capture.encode_records", n),
            n,
        );
        values.set("capture.decode_ns_per_rec", per("capture.decode", n), n);
        values.set(
            "capture.wire_bytes_per_rec",
            frames.len() as f64 / n.max(1) as f64,
            n,
        );
        values.set("sanitize.ns_per_rec", per("sanitize", n), n);
        let cold = t.durations_ms("core.reconstruct_cold");
        // The first warm window starts from an empty registry: it is cold.
        let warm = t.durations_ms("core.reconstruct_warm");
        let warm = warm.get(1..).unwrap_or_default();
        values.set("core.cold_window_p50_ms", median(&cold), cold.len());
        values.set("core.warm_window_p50_ms", median(warm), warm.len());
        values.set(
            "core.mapped_ratio",
            mapped as f64 / total.max(1) as f64,
            total,
        );
        values.set(
            "core.top_choice_ratio",
            top as f64 / total.max(1) as f64,
            total,
        );
        values.set("registry.edges", registry.len() as f64, 1);
        values.set("registry.quarantined", registry.quarantined() as f64, 1);
        values.set(
            "core.candidates_ns_per_parent",
            per("core.enumerate_candidates", em.parents),
            em.parents,
        );
        values.set(
            "core.batching_ns_per_parent",
            per("core.make_batches", em.parents),
            em.parents,
        );
        values.set(
            "core.seed_us_per_task",
            per("core.seed", em.tasks) / 1e3,
            em.tasks,
        );
        values.set(
            "core.score_ns_per_candidate",
            per("core.score_candidates", em.candidates),
            em.candidates,
        );
        values.set(
            "core.refit_us_per_edge",
            per("core.refit", em.edges) / 1e3,
            em.edges,
        );
        values.set(
            "solver.optimize_batch_us",
            per("solver.optimize_batch", em.batches) / 1e3,
            em.batches,
        );
        values.set(
            "archive_stage.stored_traces_us_per_window",
            per("archive_stage.stored_traces", windows.len()) / 1e3,
            windows.len(),
        );
        values.set(
            "store.encode_ns_per_trace",
            per("store.encode_traces", all.len()),
            all.len(),
        );
        let mb = seg_bytes as f64 / 1e6;
        values.set(
            "store.write_segment_mb_per_s",
            mb / secs(total_ns("store.write_segment") as u64),
            1,
        );
        values.set(
            "store.read_segment_mb_per_s",
            mb / secs(total_ns("store.read_segment") as u64),
            1,
        );
        let index_us: Vec<f64> = t
            .durations_ms("store.read_segment_index")
            .iter()
            .map(|ms| ms * 1e3)
            .collect();
        values.set("store.index_read_us", median(&index_us), index_us.len());
        let open = t.durations_ms("store.open");
        values.set("store.open_ms", median(&open), open.len());
        for class in &CLASSES {
            let ms = t.durations_ms(class.replay_span);
            values.set(class.metric, median(&ms), ms.len());
        }
        let cycles = t.durations_ms("store.query_cycle");
        values.set(
            "store.query_cycle_p90_ms",
            percentile(&cycles, 0.9),
            cycles.len(),
        );
        let rq = t.durations_ms("store.read_query");
        values.set("store.read_query_p50_ms", median(&rq), rq.len());
        values.set(
            "store.compaction_s",
            secs(total_ns("store.maintain") as u64),
            1,
        );
        let w = t.durations_ms("checkpoint.write");
        let l = t.durations_ms("checkpoint.load");
        values.set("checkpoint.write_ms", median(&w), w.len());
        values.set("checkpoint.load_ms", median(&l), l.len());
        let r = t.durations_ms("telemetry.render");
        values.set("telemetry.render_ms", median(&r), r.len());
    });
    checks
}

/// Write the trace document of a traced run to `bench/out/`.
pub fn write_trace(t: &Tracer, out_dir: &Path, workload: &str, seed: u64) {
    let path = out_dir.join(format!("trace-{workload}.json"));
    let doc = serde_json::to_string(&t.to_json(workload, seed)).expect("trace serializes");
    std::fs::write(&path, doc).expect("bench/out is writable");
    println!("spans written to {}", path.display());
}
