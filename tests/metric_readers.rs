//! Every metric family has one reader. `READERS` lists each literal
//! `tw_*` family that non-test source under `crates/*/src` defines, with
//! the one place that reads it by name: a benchmark file, a CI step, the
//! operator screen of `twctl top`, or the conservation check of the scrape
//! test. A family that nothing reads is deleted, not listed.

use std::collections::BTreeSet;
use std::path::Path;

/// Where a family is read.
#[derive(Clone, Copy, Debug)]
enum Reader {
    /// A per-layer figure or an output check of the benchmark, in the
    /// named `bench/src` file.
    Bench(&'static str),
    /// A gate or a known value in a CI step.
    Ci,
    /// A fixed line of `twctl top`.
    Twctl,
    /// A term of the conservation law the scrape test checks.
    Law,
}

impl Reader {
    fn file(self) -> &'static str {
        match self {
            Reader::Bench(file) => file,
            Reader::Ci => ".github/workflows/ci.yml",
            Reader::Twctl => "src/bin/twctl/ops.rs",
            Reader::Law => "crates/tw-pipeline/tests/metrics_exposition.rs",
        }
    }
}

use Reader::{Bench, Ci, Law, Twctl};

const SERIES: Reader = Bench("bench/src/series.rs");
const ONLINE: Reader = Bench("bench/src/workloads/online.rs");
const REPLAY: Reader = Bench("bench/src/replay.rs");
const QUERY: Reader = Bench("bench/src/workloads/query.rs");

/// Every family and its reader, by layer.
const READERS: &[(&str, Reader)] = &[
    ("tw_ingest_connections_total", Law),
    ("tw_ingest_connections_dropped_total", Law),
    ("tw_ingest_frames_total", Law),
    ("tw_ingest_decode_errors_total", ONLINE),
    ("tw_ingest_bytes_discarded_total", Law),
    ("tw_sanitize_received_total", Law),
    ("tw_sanitize_passed_total", Law),
    ("tw_sanitize_dropped_total", Law),
    ("tw_sanitize_skew_corrected_total", Twctl),
    ("tw_sanitize_skew_offset_ns", Twctl),
    ("tw_sanitize_drift_ppb", Twctl),
    ("tw_sanitize_drift_samples_total", Twctl),
    ("tw_sanitize_drift_innovation_ns_total", Twctl),
    ("tw_pipeline_queue_depth", Twctl),
    ("tw_pipeline_items_total", Twctl),
    ("tw_pipeline_stage_busy_seconds", ONLINE),
    ("tw_pipeline_stage_panics_total", Ci),
    ("tw_pipeline_stage_restarts_total", Ci),
    ("tw_pipeline_dead_letter_total", Ci),
    ("tw_pipeline_checkpoint_writes_total", ONLINE),
    ("tw_pipeline_checkpoint_errors_total", Ci),
    ("tw_pipeline_recovery_cold_starts_total", Ci),
    ("tw_pipeline_recovery_restores_total", Ci),
    ("tw_pipeline_recovery_watermark", Ci),
    ("tw_pipeline_recovery_windows_lost", Ci),
    ("tw_pipeline_recovery_replayed_total", Ci),
    ("tw_engine_windows_total", Law),
    ("tw_engine_shed_records_total", Law),
    ("tw_engine_shed_transitions_total", Twctl),
    ("tw_engine_pickup_queue_depth", Twctl),
    ("tw_engine_window_latency_seconds", Ci),
    ("tw_engine_warm_edges", Ci),
    ("tw_core_tasks_total", SERIES),
    ("tw_core_warm_tasks_total", SERIES),
    ("tw_core_spans_mapped_total", Twctl),
    ("tw_core_candidates_total", SERIES),
    ("tw_core_candidates_per_span", SERIES),
    ("tw_core_batches_total", SERIES),
    ("tw_core_batch_size", SERIES),
    ("tw_core_em_iterations_total", SERIES),
    ("tw_core_gmm_components", SERIES),
    ("tw_core_stage_seconds", SERIES),
    ("tw_core_registry_quarantined_total", ONLINE),
    ("tw_core_registry_edges", ONLINE),
    ("tw_solver_solves_total", SERIES),
    ("tw_solver_nodes_expanded_total", SERIES),
    ("tw_solver_inexact_total", SERIES),
    ("tw_solver_deadline_expired_total", SERIES),
    ("tw_trace_windows_sampled_total", Ci),
    ("tw_store_segments", Ci),
    ("tw_store_bytes", Ci),
    ("tw_store_watermark", Ci),
    ("tw_store_appends_total", ONLINE),
    ("tw_store_seals_total", ONLINE),
    ("tw_store_compactions_total", REPLAY),
    ("tw_store_retention_dropped_total", Ci),
    ("tw_store_tail_kept_total", Ci),
    ("tw_store_query_seconds", Ci),
    ("tw_store_errors_total", QUERY),
    ("tw_store_cold_starts_total", Ci),
    ("tw_store_orphans_total", Ci),
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A file's text before its test module: up to the first `#[cfg(test)]`
/// line whose next line of code declares a `mod`. A reader's own unit
/// tests do not read a family for it; a file without such a module, like
/// the scrape test or `ci.yml`, counts whole.
fn before_tests(text: &str) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let end = (0..lines.len())
        .find(|&i| {
            lines[i].trim() == "#[cfg(test)]"
                && lines[i + 1..]
                    .iter()
                    .map(|l| l.trim())
                    .find(|l| !(l.is_empty() || l.starts_with("//") || l.starts_with("#[")))
                    .is_some_and(|l| {
                        let l = l.strip_prefix("pub ").unwrap_or(l);
                        l.starts_with("mod ") || l.starts_with("pub(crate) mod ")
                    })
        })
        .unwrap_or(lines.len());
    lines[..end].join("\n")
}

fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `"tw_…"` string literal in non-test source under `crates/*/src`.
fn defined_families() -> BTreeSet<String> {
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root().join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut families = BTreeSet::new();
    for file in files {
        let text = before_tests(&read(&file));
        for (at, _) in text.match_indices("\"tw_") {
            let name: String = text[at + 1..]
                .chars()
                .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '_')
                .collect();
            if text[at + 1 + name.len()..].starts_with('"') {
                families.insert(name);
            }
        }
    }
    families
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Whether `text` names the family `name` as a whole word, alone or as
/// one of its histogram's `_bucket`/`_sum`/`_count` series.
fn names(text: &str, name: &str) -> bool {
    text.match_indices(name).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = &text[at + name.len()..];
        let after = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| after.strip_prefix(suffix))
            .filter(|rest| !rest.starts_with(is_ident))
            .unwrap_or(after);
        !before.is_some_and(is_ident) && !after.starts_with(is_ident)
    })
}

#[test]
fn every_defined_family_has_a_reader_that_reads_it() {
    let listed: BTreeSet<String> = READERS.iter().map(|(f, _)| f.to_string()).collect();
    assert_eq!(listed.len(), READERS.len(), "a family is listed twice");
    let defined = defined_families();
    let unread: Vec<&String> = defined.difference(&listed).collect();
    assert!(unread.is_empty(), "families with no reader: {unread:?}");
    let gone: Vec<&String> = listed.difference(&defined).collect();
    assert!(gone.is_empty(), "listed but defined nowhere: {gone:?}");
    for &(family, reader) in READERS {
        assert!(
            names(&before_tests(&read(&root().join(reader.file()))), family),
            "{family}: its reader {reader:?} ({}) does not read it",
            reader.file()
        );
    }
}

/// README.md's metric reference and DESIGN.md §10 name every family, and
/// neither document names one that does not exist. Crate paths
/// (`tw_core`) and prefixes (`tw_store_`) are not family names.
#[test]
fn the_docs_name_exactly_the_listed_families() {
    let listed: BTreeSet<&str> = READERS.iter().map(|(f, _)| *f).collect();
    for doc in ["README.md", "DESIGN.md"] {
        let text = read(&root().join(doc));
        let mut named = BTreeSet::new();
        for (at, _) in text.match_indices("tw_") {
            if text[..at].chars().next_back().is_some_and(is_ident) {
                continue;
            }
            let token: String = text[at..].chars().take_while(|&c| is_ident(c)).collect();
            let token = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suffix| token.strip_suffix(suffix))
                .unwrap_or(&token)
                .to_string();
            if token.split('_').count() >= 3 && !token.ends_with('_') {
                named.insert(token);
            }
        }
        let unknown: Vec<&String> = named
            .iter()
            .filter(|n| !listed.contains(n.as_str()))
            .collect();
        assert!(unknown.is_empty(), "{doc} names {unknown:?}");
        let missing: Vec<&&str> = listed.iter().filter(|f| !named.contains(**f)).collect();
        assert!(missing.is_empty(), "{doc} does not name {missing:?}");
    }
}
