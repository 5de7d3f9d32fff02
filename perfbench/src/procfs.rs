//! Process counters from `/proc/self`: peak resident memory, CPU time and
//! minor page faults. The parsers take the file text so tests can feed
//! them fixed samples.

/// Kernel clock ticks per second for the `/proc/<pid>/stat` time fields.
/// `USER_HZ` is part of the Linux user-space ABI and is 100 on every
/// architecture this runs on.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// `VmHWM` (peak resident set size) in KiB from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
}

/// CPU time and fault counters read from `/proc/<pid>/stat`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSample {
    /// User plus system CPU seconds of every thread of the process.
    pub cpu_s: f64,
    /// Minor page faults of the process so far.
    pub minor_faults: u64,
}

/// Parse `/proc/<pid>/stat` text. The command name (field 2) is wrapped in
/// parentheses and may itself hold spaces or parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat(stat: &str) -> Option<CpuSample> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // Fields after the name start at field 3 (state); minflt is field 10,
    // utime 14 and stime 15 (1-based, proc(5)).
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let field = |n: usize| -> Option<u64> { fields.get(n - 3)?.parse().ok() };
    let minor_faults = field(10)?;
    let ticks = field(14)? + field(15)?;
    Some(CpuSample {
        cpu_s: ticks as f64 / CLOCK_TICKS_PER_S,
        minor_faults,
    })
}

/// Peak resident memory of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = parse_vm_hwm_kib(&status).expect("VmHWM line in /proc/self/status");
    kib as f64 / 1024.0
}

/// This process's CPU time and minor faults so far.
pub fn cpu_sample() -> CpuSample {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat(&stat).expect("parse /proc/self/stat")
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tpbw-perfbench\nUmask:\t0022\nState:\tR (running)\n\
VmPeak:\t  912344 kB\nVmSize:\t  900100 kB\nVmHWM:\t  523776 kB\nVmRSS:\t  401234 kB\n\
Threads:\t3\n";

    #[test]
    fn vm_hwm_is_read_in_kib() {
        assert_eq!(parse_vm_hwm_kib(STATUS), Some(523_776));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 12 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn stat_fields_counted_after_the_name() {
        // Fields: pid (comm) state ppid pgrp session tty tpgid flags
        // minflt cminflt majflt cmajflt utime stime ...
        let stat = "4242 (pbw-perfbench) R 1 4242 4242 0 -1 4194560 \
                    12345 0 7 0 250 50 0 0 20 0 3 0 100 0 0";
        let s = parse_stat(stat).unwrap();
        assert_eq!(s.minor_faults, 12_345);
        assert!((s.cpu_s - 3.0).abs() < 1e-12);
    }

    #[test]
    fn stat_name_with_spaces_and_parens() {
        let stat = "7 (a) b (c)) S 1 7 7 0 -1 0 99 0 0 0 1 2 0 0 20 0 1 0 5 0 0";
        let s = parse_stat(stat).unwrap();
        assert_eq!(s.minor_faults, 99);
        assert!((s.cpu_s - 0.03).abs() < 1e-12);
    }

    #[test]
    fn truncated_stat_is_rejected() {
        assert_eq!(parse_stat("1 (x) R 1 1"), None);
        assert_eq!(parse_stat("no parens here"), None);
    }

    #[test]
    fn live_counters_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        let a = cpu_sample();
        let b = cpu_sample();
        assert!(b.cpu_s >= a.cpu_s);
        assert!(b.minor_faults >= a.minor_faults);
    }
}
