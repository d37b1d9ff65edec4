//! Process CPU time and peak memory from `/proc/self`.

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. `USER_HZ` is 100 on every Linux ABI Rust targets.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may hold spaces and parentheses, so fields are
/// counted from the last `)`; `utime` and `stime` are fields 14 and 15.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime is 11 fields further on.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set (`VmHWM`) in MB (10⁶ bytes) from the text of
/// `/proc/<pid>/status`.
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut it = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = it.next()?.parse().ok()?;
    (it.next()? == "kB").then_some(kb * 1024.0 / 1e6)
}

/// CPU seconds this process has used so far.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_seconds(&s))
        .expect("benchmark needs a readable /proc/self/stat")
}

/// Peak resident set of this process, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_peak_rss_mb(&s))
        .expect("benchmark needs VmHWM in /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (bench (v2) x) R 1 4242 4242 0 -1 4194304 901 0 0 0 \
        1234 66 0 0 20 0 3 0 5555 123456789 2048 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    #[test]
    fn cpu_seconds_skips_hostile_command_names() {
        // utime 1234 + stime 66 ticks = 13.00 s
        assert_eq!(parse_cpu_seconds(STAT), Some(13.0));
        assert_eq!(parse_cpu_seconds("1 (x) R 1 2"), None);
        assert_eq!(parse_cpu_seconds("no parens"), None);
    }

    #[test]
    fn peak_rss_reads_vmhwm_in_kb() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  999999 kB\nVmHWM:\t  250000 kB\nVmRSS:\t  100 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(256.0));
        assert_eq!(parse_peak_rss_mb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_peak_rss_mb("VmHWM:\t 12 pages\n"), None);
    }
}
