//! Table printing and JSON artifact persistence.

use serde::Serialize;
use std::path::PathBuf;

/// Provenance stamped into every JSON artifact, so a results file is
/// interpretable without the shell session that produced it: which
/// commit, how many reconstruction threads, and whether workloads were
/// shrunk by quick mode.
#[derive(Debug, Clone, Serialize)]
pub struct RunMeta {
    pub git_sha: String,
    pub threads: usize,
    pub quick: bool,
}

impl RunMeta {
    pub fn capture() -> Self {
        let git_sha = std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        RunMeta {
            git_sha,
            threads: crate::bench_threads(),
            quick: crate::quick_mode(),
        }
    }
}

/// A printable, persistable results table.
#[derive(Debug, Clone, Serialize)]
pub struct Table {
    pub title: String,
    pub meta: RunMeta,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            meta: RunMeta::capture(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
    }

    /// Print as an aligned text table.
    pub fn print(&self) {
        println!("\n== {} ==", self.title);
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let parts: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            println!("{}", parts.join("  "));
        };
        line(&self.headers);
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            line(row);
        }
    }

    /// Persist under `results/<name>.json` (created relative to the
    /// workspace root when run via cargo, else the current directory).
    pub fn save_json(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.json"));
        let json = serde_json::to_string_pretty(self).expect("table serializes");
        std::fs::write(&path, json)?;
        println!("[saved {}]", path.display());
        Ok(path)
    }
}

fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR points at crates/tw-bench; hop to the workspace
    // root so all artifacts land in one place.
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => PathBuf::from(dir).join("../../results"),
        Err(_) => PathBuf::from("results"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rows_and_print() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["333".into(), "4".into()]);
        assert_eq!(t.rows.len(), 2);
        t.print(); // must not panic
    }

    #[test]
    #[should_panic]
    fn mismatched_row_width_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn save_json_round_trip() {
        let mut t = Table::new("demo", &["x"]);
        t.row(vec!["v".into()]);
        let path = t.save_json("test-artifact").unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("\"demo\""));
        // Run metadata rides along in every artifact.
        for key in ["\"meta\"", "\"git_sha\"", "\"threads\"", "\"quick\""] {
            assert!(content.contains(key), "missing {key} in artifact");
        }
        std::fs::remove_file(path).ok();
    }
}
