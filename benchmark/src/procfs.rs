//! Process-level counters from `/proc/self`: CPU time split into user and
//! system, minor page faults, and peak resident memory. System time per
//! operation is what exposes a harness that retains results (it spends its
//! window page-faulting instead of serving).

/// Kernel clock ticks per second for `/proc/self/stat` times (USER_HZ is
/// 100 on every Linux this runs on).
const TICKS_PER_S: f64 = 100.0;

/// A reading of the process counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    /// User-mode CPU seconds.
    pub user_s: f64,
    /// Kernel-mode CPU seconds.
    pub sys_s: f64,
    /// Minor page faults.
    pub minor_faults: f64,
}

impl ProcSample {
    /// Read the counters now (all zero where `/proc` is unavailable).
    pub fn now() -> ProcSample {
        std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| parse_stat(&s))
            .unwrap_or_default()
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
        }
    }
}

/// Parse one `/proc/<pid>/stat` line. The command name (field 2) may hold
/// spaces and parentheses, so fields are counted from the last `)`.
fn parse_stat(stat: &str) -> Option<ProcSample> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state): minflt is field 10, utime 14,
    // stime 15.
    let field = |n: usize| fields.get(n - 3)?.parse::<f64>().ok();
    Some(ProcSample {
        minor_faults: field(10)?,
        user_s: field(14)? / TICKS_PER_S,
        sys_s: field(15)? / TICKS_PER_S,
    })
}

/// Peak resident set size in MB (`VmHWM`), 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_stat_line_with_an_awkward_command_name() {
        let line = "4242 (rox bench) x) S 1 4242 4242 0 -1 4194304 1234 0 5 0 250 75 0 0 20 0 3 0 100 1000 200 18446744073709551615";
        let s = parse_stat(line).unwrap();
        assert_eq!(s.minor_faults, 1234.0);
        assert_eq!(s.user_s, 2.5);
        assert_eq!(s.sys_s, 0.75);
        assert!(parse_stat("garbage").is_none());
    }

    #[test]
    fn live_counters_are_monotone() {
        let a = ProcSample::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let d = ProcSample::now().since(&a);
        assert!(d.user_s >= 0.0 && d.sys_s >= 0.0 && d.minor_faults >= 0.0);
    }
}
