//! OS accounting taken from outside the program: per-thread CPU time
//! from `/proc/self/task/*/schedstat` (ns), grouped by thread-name
//! prefix; the process total, exited threads included, from
//! `/proc/self/stat` (ticks); memory and context switches from the
//! `status` files.

use std::collections::BTreeMap;

/// `/proc` reports CPU time in USER_HZ ticks, which Linux fixes at 100.
const TICK_NS: u64 = 10_000_000;

/// Thread-name prefixes, each a group of its own; everything else falls
/// in "other". Linux truncates thread names to 15 bytes.
pub const GROUPS: [&str; 7] = [
    "snow-tcp-write",
    "snow-tcp-read",
    "snow-daemon",
    "snow-scheduler",
    "snow-init",
    "bench-worker",
    "bench-hot",
];

/// Parse utime + stime (ns) and the name out of a `stat` line.
fn parse_stat(line: &str) -> Option<(String, u64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let name = line[open + 1..close].to_string();
    let fields: Vec<&str> = line[close + 2..].split_whitespace().collect();
    // Fields after the name start at field 3 (state); utime is 14, stime 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((name, (utime + stime) * TICK_NS))
}

/// CPU ns of the whole process, exited threads included.
pub fn process_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .map(|(_, ns)| ns)
        .unwrap_or(0)
}

/// A `status` field in its own unit (kB for memory, a count for
/// context switches).
fn status_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Restart the peak-RSS high-water mark from the current resident set,
/// so the peak a run reports is its own and not that of an earlier
/// set-up. Best effort: without it the peak covers the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    status_field("/proc/self/status", "VmHWM").unwrap_or(0) as f64 / 1024.0
}

fn task_ids() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .map(|d| {
            d.filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().into_owned()))
                .collect()
        })
        .unwrap_or_default()
}

/// One thread's counters.
#[derive(Debug, Clone, Default)]
struct Task {
    name: String,
    /// On-CPU ns from `schedstat`.
    run_ns: u64,
    /// utime + stime from `stat`, tick resolution, comparable with the
    /// process total.
    tick_ns: u64,
    invol: u64,
}

/// One reading of every live thread.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// tid → counters
    tasks: BTreeMap<String, Task>,
    process_cpu_ns: u64,
    at: Option<std::time::Instant>,
}

impl Snapshot {
    pub fn take() -> Snapshot {
        let mut tasks = BTreeMap::new();
        for tid in task_ids() {
            let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat"));
            if let Some((name, tick_ns)) = stat.ok().and_then(|s| parse_stat(&s)) {
                let run_ns = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat"))
                    .ok()
                    .and_then(|s| s.split_whitespace().next()?.parse().ok())
                    .unwrap_or(tick_ns);
                let invol = status_field(
                    &format!("/proc/self/task/{tid}/status"),
                    "nonvoluntary_ctxt_switches",
                )
                .unwrap_or(0);
                let task = Task {
                    name,
                    run_ns,
                    tick_ns,
                    invol,
                };
                tasks.insert(tid, task);
            }
        }
        Snapshot {
            tasks,
            process_cpu_ns: process_cpu_ns(),
            at: Some(std::time::Instant::now()),
        }
    }
}

/// Periodic readings over a run, so threads that exit before the end
/// (a migrated rank's old incarnation) are still charged to their group
/// up to their last reading.
pub struct Sampler {
    start: Snapshot,
    seen: Snapshot,
    active: bool,
    last: std::time::Instant,
    pub threads_max: usize,
}

/// Readings at most this often.
const SAMPLE_EVERY: std::time::Duration = std::time::Duration::from_millis(50);

impl Sampler {
    /// Start reading at the start of a measured window (which also
    /// restarts the peak-RSS mark); `active` enables the periodic
    /// readings.
    pub fn start(active: bool) -> Sampler {
        reset_peak_rss();
        let start = Snapshot::take();
        Sampler {
            threads_max: start.tasks.len(),
            seen: start.clone(),
            start,
            active,
            last: std::time::Instant::now(),
        }
    }

    fn absorb(&mut self, newer: Snapshot) {
        self.threads_max = self.threads_max.max(newer.tasks.len());
        self.seen.tasks.extend(newer.tasks);
        self.seen.process_cpu_ns = newer.process_cpu_ns;
        self.seen.at = newer.at;
    }

    pub fn tick(&mut self) {
        if self.active && self.last.elapsed() >= SAMPLE_EVERY {
            self.absorb(Snapshot::take());
            self.last = std::time::Instant::now();
        }
    }

    pub fn finish(mut self) -> (Usage, usize) {
        self.absorb(Snapshot::take());
        let mut usage = Usage::between(&self.start, &self.seen);
        usage.peak_rss_mib = peak_rss_mib();
        (usage, self.threads_max)
    }
}

/// What happened between two snapshots.
#[derive(Debug, Clone, Default)]
pub struct Usage {
    pub wall_s: f64,
    pub process_cpu_s: f64,
    /// CPU seconds per group of [`GROUPS`], plus "other".
    pub group_cpu_s: BTreeMap<&'static str, f64>,
    /// Process CPU not charged to any thread reading: what threads did
    /// after their last reading before they exited.
    pub exited_cpu_s: f64,
    pub invol_ctx_switches: u64,
    /// `VmHWM` when the window closed, MiB.
    pub peak_rss_mib: f64,
}

impl Usage {
    pub fn between(a: &Snapshot, b: &Snapshot) -> Usage {
        let mut groups: BTreeMap<&'static str, f64> = GROUPS
            .iter()
            .map(|g| (*g, 0.0))
            .chain([("other", 0.0)])
            .collect();
        let mut seen_ticks = 0u64;
        let mut invol = 0u64;
        for (tid, t) in &b.tasks {
            let t0 = a.tasks.get(tid).cloned().unwrap_or_default();
            seen_ticks += t.tick_ns.saturating_sub(t0.tick_ns);
            invol += t.invol.saturating_sub(t0.invol);
            let g = GROUPS
                .iter()
                .find(|g| t.name.starts_with(*g))
                .copied()
                .unwrap_or("other");
            let d = t.run_ns.saturating_sub(t0.run_ns);
            *groups.get_mut(g).expect("every group is present") += d as f64 / 1e9;
        }
        let total = b.process_cpu_ns.saturating_sub(a.process_cpu_ns);
        let wall_s = match (a.at, b.at) {
            (Some(x), Some(y)) => y.duration_since(x).as_secs_f64(),
            _ => 0.0,
        };
        Usage {
            wall_s,
            process_cpu_s: total as f64 / 1e9,
            group_cpu_s: groups,
            exited_cpu_s: total.saturating_sub(seen_ticks) as f64 / 1e9,
            invol_ctx_switches: invol,
            peak_rss_mib: 0.0,
        }
    }

    pub fn group(&self, g: &str) -> f64 {
        self.group_cpu_s.get(g).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_handles_names_with_spaces() {
        let line = "42 (snow-tcp-read 1) S 1 2 3 4 5 6 7 8 9 10 150 50 0 0 20 0 1 0";
        let (name, ns) = parse_stat(line).unwrap();
        assert_eq!(name, "snow-tcp-read 1");
        assert_eq!(ns, 200 * TICK_NS);
    }

    #[test]
    fn own_process_is_readable() {
        let s = Snapshot::take();
        assert!(!s.tasks.is_empty());
        assert!(peak_rss_mib() > 0.0);
        let u = Usage::between(&s, &Snapshot::take());
        assert!(u.wall_s >= 0.0);
    }
}
