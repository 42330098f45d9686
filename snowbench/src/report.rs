//! The command's output: a human-readable table (name, value, unit,
//! sample count) and, as the last line, one JSON object.

use crate::osacct::Usage;
use crate::rec::Rec;
use crate::stats::Span;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, when it is a statistic of samples.
    pub n: Option<u64>,
    pub note: String,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Notes printed above the table (checks, remainders).
    pub lines: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// The traced run's spans, written out when the run ends.
    pub spans: Vec<Span>,
}

/// Median of a small sample (set-up times).
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Per-layer metrics every workload measures the same way: the
/// `core::process` calls, the queues, and OS accounting over the
/// measured window, driven by `workers` pool threads.
pub fn add_layers(r: &mut Report, rec: &Rec, u: &Usage, threads_max: usize, workers: usize) {
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let n_send = rec.send.count();
    let n_recv = rec.recv.count();
    r.add_opt(
        "core.process.send_ns_p50",
        rec.send.quantile(0.5),
        "ns",
        n_send,
    );
    r.add_opt(
        "core.process.recv_ns_p50",
        rec.recv.quantile(0.5),
        "ns",
        n_recv,
    );
    r.add(
        "core.process.send_refused_frac",
        ratio(rec.send_refused, rec.send_calls),
        "ratio",
        Some(rec.send_calls),
    );
    r.add(
        "core.process.recv_hit_frac",
        ratio(rec.recv_hits, rec.recv_calls),
        "ratio",
        Some(rec.recv_calls),
    );
    let worker_ns = u.wall_s * 1e9 * workers as f64;
    r.add(
        "core.process.busy_frac",
        rec.busy_ns as f64 / worker_ns,
        "ratio",
        None,
    );
    let transit = rec.transit.quantile(0.5).map(|v| v / 1e3);
    r.add_opt(
        "core.process.transit_us_p50",
        transit,
        "us",
        rec.transit.count(),
    );
    r.add("vm.post.backlog_max", rec.backlog_max as f64, "count", None);
    r.add("core.rml.len_max", rec.rml_max as f64, "count", None);
    let msgs = rec.delivered.max(1) as f64;
    r.add(
        "vm.tcp.write_cpu_ns_per_msg",
        u.group("snow-tcp-write") * 1e9 / msgs,
        "ns",
        Some(rec.delivered),
    );
    r.add(
        "vm.tcp.read_cpu_ns_per_msg",
        u.group("snow-tcp-read") * 1e9 / msgs,
        "ns",
        Some(rec.delivered),
    );
    r.add("vm.daemon.cpu_s", u.group("snow-daemon"), "s", None);
    r.add("sched.cpu_s", u.group("snow-scheduler"), "s", None);
    r.add("core.init.cpu_s", u.group("snow-init"), "s", None);
    r.add(
        "bench.workers.cpu_s",
        u.group("bench-worker") + u.group("bench-hot"),
        "s",
        None,
    );
    let ncpu = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    r.add(
        "process.cpu_frac",
        u.process_cpu_s / (u.wall_s * ncpu as f64),
        "ratio",
        None,
    );
    r.add(
        "process.invol_ctx_switches_per_s",
        u.invol_ctx_switches as f64 / u.wall_s,
        "1/s",
        None,
    );
    r.add("process.threads_max", threads_max as f64, "count", None);
    r.add("process.exited_threads_cpu_s", u.exited_cpu_s, "s", None);
    r.add(
        "bench.pool_idle_frac",
        ratio(rec.idle_sweeps, rec.sweeps),
        "ratio",
        Some(rec.sweeps),
    );
    r.lines.push(format!(
        "cpu by thread group over {:.3} s: {} exited={:.3}s total={:.3}s peak_rss={:.1}MiB",
        u.wall_s,
        u.group_cpu_s
            .iter()
            .map(|(g, s)| format!("{g}={s:.3}s"))
            .collect::<Vec<_>>()
            .join(" "),
        u.exited_cpu_s,
        u.process_cpu_s,
        u.peak_rss_mib
    ));
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, n: Option<u64>) {
        self.add_noted(name, value, unit, n, String::new());
    }

    pub fn add_noted(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        n: Option<u64>,
        note: String,
    ) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n,
            note,
        });
    }

    /// A statistic that may be unsupported by its sample: reported as 0
    /// with the reason, never as a number the sample cannot carry.
    pub fn add_opt(&mut self, name: &str, value: Option<f64>, unit: &'static str, n: u64) {
        match value {
            Some(v) => self.add(name, v, unit, Some(n)),
            None => self.add_noted(
                name,
                0.0,
                unit,
                Some(n),
                "not supported by the sample".into(),
            ),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Print the table, then the JSON line holding the metrics named in
    /// `keep` (in that order). Fails when one is missing, not finite, or
    /// measured in another unit.
    pub fn print(&self, title: &str, keep: &[(&str, &str)]) -> Result<(), String> {
        println!("{title}");
        for l in &self.lines {
            println!("  {l}");
        }
        for m in &self.metrics {
            let n = m.n.map(|n| format!("n={n}")).unwrap_or_default();
            println!(
                "  {:<40} {:>16.6} {:<8} {:<12} {}",
                m.name, m.value, m.unit, n, m.note
            );
        }
        let mut json = Vec::new();
        for (name, unit) in keep {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite: {}", m.value));
            }
            if m.unit != *unit {
                return Err(format!("metric {name} is in {}, not {unit}", m.unit));
            }
            json.push(format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        println!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
        Ok(())
    }
}
