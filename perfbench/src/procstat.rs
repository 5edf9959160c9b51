//! CPU and memory accounting from `/proc`: per-thread CPU of this process,
//! per-process CPU of shard hosts, resident-set sizes and load average.

use std::collections::BTreeMap;

/// Kernel clock ticks per second in `/proc/*/stat` (`USER_HZ`, fixed at
/// 100 by the Linux ABI on every mainstream architecture).
pub const TICKS_PER_S: f64 = 100.0;

/// `(comm, utime + stime in ticks)` from one `/proc/<pid>[/task/<tid>]/stat`
/// line. `comm` is everything between the first `(` and the *last* `)`:
/// a thread may name itself with spaces or parentheses.
pub fn parse_stat(line: &str) -> Option<(String, u64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    if close < open {
        return None;
    }
    let comm = line[open + 1..close].to_string();
    // After the comm: state(3) ppid(4) … utime(14) stime(15).
    let rest: Vec<&str> = line[close + 1..].split_whitespace().collect();
    let utime: u64 = rest.get(11)?.parse().ok()?;
    let stime: u64 = rest.get(12)?.parse().ok()?;
    Some((comm, utime + stime))
}

/// CPU ticks of every live thread of this process, keyed by thread id.
pub fn thread_ticks() -> BTreeMap<u32, (String, u64)> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        // A thread can exit between listing and reading; skip it.
        if let Ok(line) = std::fs::read_to_string(entry.path().join("stat")) {
            if let Some(sample) = parse_stat(&line) {
                out.insert(tid, sample);
            }
        }
    }
    out
}

/// CPU ticks of a whole process (all its threads).
pub fn process_ticks(pid: u32) -> Option<u64> {
    let line = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    parse_stat(&line).map(|(_, ticks)| ticks)
}

/// Thread id of the calling thread.
pub fn current_tid() -> Option<u32> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`, …).
pub fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status_field_kb(&status, field)
}

fn status_field_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|l| {
        let rest = l.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Reset this process's peak-RSS mark (`VmHWM`) to its current RSS, so a
/// later `VmHWM` reading covers only what happened since. Returns whether
/// the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// One-minute load average.
pub fn loadavg_1m() -> Option<f64> {
    let s = std::fs::read_to_string("/proc/loadavg").ok()?;
    s.split_whitespace().next()?.parse().ok()
}

/// CPU ticks accumulated per thread-name group and per host process across
/// the timed intervals of a run ([`CpuMeter::begin`] … [`CpuMeter::end`],
/// repeated). A thread is counted over an interval only if it lived at
/// both ends of it.
#[derive(Default)]
pub struct CpuMeter {
    threads: BTreeMap<u32, (String, u64)>,
    hosts: Vec<(u32, u64)>,
    /// Ticks and distinct threads per group name.
    groups: BTreeMap<&'static str, (u64, std::collections::BTreeSet<u32>)>,
    /// Ticks of the host processes.
    host_ticks: u64,
    /// Wall seconds covered by the measured intervals.
    pub wall_s: f64,
    start: Option<std::time::Instant>,
}

impl CpuMeter {
    /// Start an interval; `hosts` are the shard-host pids to account.
    pub fn begin(&mut self, hosts: &[u32]) {
        self.threads = thread_ticks();
        self.hosts = hosts
            .iter()
            .filter_map(|&p| Some((p, process_ticks(p)?)))
            .collect();
        self.start = Some(std::time::Instant::now());
    }

    /// Close the interval, attributing each thread to the group
    /// `group_of(tid, comm)` names (threads it names none for are skipped).
    pub fn end(&mut self, group_of: impl Fn(u32, &str) -> Option<&'static str>) {
        let Some(start) = self.start.take() else {
            return;
        };
        self.wall_s += start.elapsed().as_secs_f64();
        for (tid, (comm, ticks)) in thread_ticks() {
            let Some((_, before)) = self.threads.get(&tid) else {
                continue;
            };
            if let Some(name) = group_of(tid, &comm) {
                let g = self.groups.entry(name).or_default();
                g.0 += ticks.saturating_sub(*before);
                g.1.insert(tid);
            }
        }
        for &(pid, before) in &self.hosts {
            if let Some(now) = process_ticks(pid) {
                self.host_ticks += now.saturating_sub(before);
            }
        }
    }

    /// Busy share of one group: its CPU seconds over (wall × threads).
    pub fn busy_frac(&self, group: &str) -> f64 {
        match self.groups.get(group) {
            Some((ticks, tids)) if !tids.is_empty() && self.wall_s > 0.0 => {
                *ticks as f64 / TICKS_PER_S / (self.wall_s * tids.len() as f64)
            }
            _ => 0.0,
        }
    }

    /// Busy share of the host processes: CPU seconds over (wall × hosts).
    pub fn host_busy_frac(&self) -> f64 {
        if self.hosts.is_empty() || self.wall_s <= 0.0 {
            return 0.0;
        }
        self.host_ticks as f64 / TICKS_PER_S / (self.wall_s * self.hosts.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_with_spaces_and_parens() {
        let line = "4242 (eagr) (shard 1)) S 1 4242 4242 0 -1 4194560 100 0 0 0 \
                    731 52 0 0 20 0 3 0 12345 1000 200 18446744073709551615";
        let (comm, ticks) = parse_stat(line).expect("parses");
        assert_eq!(comm, "eagr) (shard 1)");
        assert_eq!(ticks, 731 + 52);
    }

    #[test]
    fn plain_and_malformed_lines() {
        let line = "7 (eagr-shard-0) R 1 7 7 0 -1 0 0 0 0 0 5 6 0 0 20 0 1 0 1 1 1";
        assert_eq!(parse_stat(line), Some(("eagr-shard-0".to_string(), 11)));
        assert_eq!(parse_stat("7 (short) R 1 2"), None);
        assert_eq!(parse_stat("no parens at all"), None);
    }

    #[test]
    fn status_fields() {
        let status = "Name:\tx\nVmHWM:\t  2048 kB\nVmRSS:\t  1024 kB\n";
        assert_eq!(status_field_kb(status, "VmHWM"), Some(2048));
        assert_eq!(status_field_kb(status, "VmRSS"), Some(1024));
        assert_eq!(status_field_kb(status, "VmSwap"), None);
    }

    #[test]
    fn live_process_is_readable() {
        assert!(current_tid().is_some());
        assert!(!thread_ticks().is_empty());
        assert!(process_ticks(std::process::id()).is_some());
        assert!(status_kb("VmRSS").is_some());
    }
}
