//! Process CPU time and peak memory, read from `/proc/self`.
//!
//! The parsers take the file contents as a string so they can be tested
//! without a live `/proc`.

/// Kernel clock ticks per second for `utime`/`stime` in `/proc/<pid>/stat`.
/// `sysconf(_SC_CLK_TCK)` is 100 on every Linux the benchmark targets, and
/// reading it would need libc.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU ticks of the whole process (all threads) from the
/// contents of `/proc/<pid>/stat`. The second field (`comm`) is wrapped
/// in parentheses and may itself contain spaces and parentheses, so the
/// numbered fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state); utime and stime are fields
    // 14 and 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size in KiB from the contents of
/// `/proc/<pid>/status` (the `VmHWM:` line).
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_ascii_whitespace();
    let value: u64 = parts.next()?.parse().ok()?;
    match parts.next() {
        Some("kB") | None => Some(value),
        Some(_) => None,
    }
}

/// CPU seconds (user + system, all threads) this process has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat readable");
    let ticks = parse_stat_cpu_ticks(&stat).expect("utime and stime in /proc/self/stat");
    ticks as f64 / TICKS_PER_SECOND
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kib = parse_vm_hwm_kib(&status).expect("VmHWM in /proc/self/status");
    kib as f64 / 1024.0
}

/// Host description printed with every report: results from a different
/// core count or CPU are not comparable.
pub fn host() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown cpu".to_string());
    format!("{cores} cores, {model}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_counts_fields_after_the_last_paren() {
        let stat = "4242 (tw bench) R) S 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                    1507 293 0 0 20 0 5 0 8765 123456789 2345 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1507 + 293));
    }

    #[test]
    fn stat_parser_rejects_short_or_malformed_input() {
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no parens here"), None);
        assert_eq!(
            parse_stat_cpu_ticks("1 (x) S 1 1 1 0 -1 0 0 0 0 0 abc 5 0 0"),
            None
        );
    }

    #[test]
    fn vm_hwm_parser_reads_the_kib_value() {
        let status =
            "Name:\ttw-e2e-bench\nVmPeak:\t  300000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\nVmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn live_proc_is_readable() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
