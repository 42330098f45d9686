//! Per-migration metrics registry.
//!
//! Every component that holds the shared [`crate::Tracer`] can
//! contribute measurements: the migrating process records one
//! [`MigrationMetrics`] per `migrate()` call (phase latencies, bytes
//! moved, chunk counts, retry/abort causes), the scheduler records its
//! verdicts from the in-flight table, and the post office contributes
//! per-link queue-depth samples. The registry exports everything as
//! JSONL (one record per line, `record` field naming the type) plus a
//! human summary table.

use crate::report::JsonValue;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How one migration resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationVerdict {
    /// The destination acknowledged the state and the directory points
    /// at it: the source terminated.
    Committed,
    /// The migration rolled back; the source resumed in place.
    Aborted,
}

impl MigrationVerdict {
    fn as_str(self) -> &'static str {
        match self {
            MigrationVerdict::Committed => "committed",
            MigrationVerdict::Aborted => "aborted",
        }
    }
}

/// Everything measured about one `migrate()` call, source-side.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationMetrics {
    /// The migrating rank.
    pub rank: usize,
    /// How the migration resolved.
    pub verdict: MigrationVerdict,
    /// Transfer attempts made (1 = no retries).
    pub attempts: u32,
    /// Real seconds coordinating peers (drain phase).
    pub coordinate_s: f64,
    /// Modeled seconds collecting the state.
    pub collect_s: f64,
    /// Modeled seconds transmitting the state.
    pub tx_s: f64,
    /// Modeled seconds restoring at the destination.
    pub restore_s: f64,
    /// Modeled makespan of the overlapped collect→tx→restore pipeline.
    pub pipelined_s: f64,
    /// Real wall-clock seconds for the whole `migrate()` call.
    pub wall_s: f64,
    /// Canonical state size in bytes.
    pub state_bytes: usize,
    /// Chunks the state was streamed as, the header chunk included.
    pub chunks: usize,
    /// In-transit messages captured and forwarded with the transfer.
    pub rml_forwarded: usize,
    /// Messages restored to the RML on abort (0 for commits).
    pub rml_restored: usize,
    /// One cause string per failed attempt that was retried.
    pub retry_causes: Vec<String>,
    /// The failure that triggered the final abort, if the migration
    /// aborted.
    pub abort_cause: Option<String>,
}

impl MigrationMetrics {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("record".into(), JsonValue::Str("migration".into())),
            ("rank".into(), JsonValue::Num(self.rank as f64)),
            (
                "verdict".into(),
                JsonValue::Str(self.verdict.as_str().into()),
            ),
            ("attempts".into(), JsonValue::Num(self.attempts as f64)),
            ("coordinate_s".into(), JsonValue::Num(self.coordinate_s)),
            ("collect_s".into(), JsonValue::Num(self.collect_s)),
            ("tx_s".into(), JsonValue::Num(self.tx_s)),
            ("restore_s".into(), JsonValue::Num(self.restore_s)),
            ("pipelined_s".into(), JsonValue::Num(self.pipelined_s)),
            ("wall_s".into(), JsonValue::Num(self.wall_s)),
            (
                "state_bytes".into(),
                JsonValue::Num(self.state_bytes as f64),
            ),
            ("chunks".into(), JsonValue::Num(self.chunks as f64)),
            (
                "rml_forwarded".into(),
                JsonValue::Num(self.rml_forwarded as f64),
            ),
            (
                "rml_restored".into(),
                JsonValue::Num(self.rml_restored as f64),
            ),
            (
                "retry_causes".into(),
                JsonValue::Array(
                    self.retry_causes
                        .iter()
                        .map(|c| JsonValue::Str(c.clone()))
                        .collect(),
                ),
            ),
            (
                "abort_cause".into(),
                self.abort_cause
                    .as_ref()
                    .map_or(JsonValue::Null, |c| JsonValue::Str(c.clone())),
            ),
        ])
    }
}

/// One scheduler ruling on an in-flight migration, recorded when the
/// scheduler closes (commits, retries, or abandons) a table entry.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerRuling {
    /// The migrating rank the ruling concerns.
    pub rank: usize,
    /// "commit", "retry", or "abort".
    pub action: String,
    /// Attempt count at ruling time.
    pub attempts: u32,
    /// Failure reason, for retry/abort rulings.
    pub cause: Option<String>,
}

impl SchedulerRuling {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("record".into(), JsonValue::Str("sched_ruling".into())),
            ("rank".into(), JsonValue::Num(self.rank as f64)),
            ("action".into(), JsonValue::Str(self.action.clone())),
            ("attempts".into(), JsonValue::Num(self.attempts as f64)),
            (
                "cause".into(),
                self.cause
                    .as_ref()
                    .map_or(JsonValue::Null, |c| JsonValue::Str(c.clone())),
            ),
        ])
    }
}

/// Aggregate metrics of one host drain (gang migration through the
/// scheduler's bounded worker pool). The scheduler deposits exactly one
/// record per drain, at the drain's terminal verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct DrainMetrics {
    /// The evacuated host's id.
    pub host: usize,
    /// Gang size at admission.
    pub ranks: usize,
    /// Migrants that committed off the host.
    pub completed: usize,
    /// Migrants whose migration finally aborted (resumed in place).
    pub aborted: usize,
    /// Retry rulings issued across the gang (re-targets after
    /// destination deaths).
    pub retried: usize,
    /// Real seconds from admission to the terminal verdict.
    pub makespan_s: f64,
    /// Configured pool width.
    pub max_workers: usize,
    /// Highest concurrent job count observed.
    pub peak_active: usize,
    /// "evacuated" or "partial".
    pub outcome: String,
}

impl DrainMetrics {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("record".into(), JsonValue::Str("drain".into())),
            ("host".into(), JsonValue::Num(self.host as f64)),
            ("ranks".into(), JsonValue::Num(self.ranks as f64)),
            ("completed".into(), JsonValue::Num(self.completed as f64)),
            ("aborted".into(), JsonValue::Num(self.aborted as f64)),
            ("retried".into(), JsonValue::Num(self.retried as f64)),
            ("makespan_s".into(), JsonValue::Num(self.makespan_s)),
            (
                "max_workers".into(),
                JsonValue::Num(self.max_workers as f64),
            ),
            (
                "peak_active".into(),
                JsonValue::Num(self.peak_active as f64),
            ),
            ("outcome".into(), JsonValue::Str(self.outcome.clone())),
        ])
    }
}

/// A point sample of one inbox/link queue depth.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueDepthSample {
    /// Label of the queue's owner ("p0", "daemon:h2", …).
    pub label: String,
    /// Nanoseconds since trace start, as reported by the sampler.
    pub t_ns: u64,
    /// Frames queued (including staged modeled-delivery frames).
    pub depth: usize,
}

impl QueueDepthSample {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("record".into(), JsonValue::Str("queue_depth".into())),
            ("label".into(), JsonValue::Str(self.label.clone())),
            ("t_ns".into(), JsonValue::Num(self.t_ns as f64)),
            ("depth".into(), JsonValue::Num(self.depth as f64)),
        ])
    }
}

/// Thread-safe collector for everything above. One per [`crate::Tracer`].
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    migrations: Mutex<Vec<MigrationMetrics>>,
    rulings: Mutex<Vec<SchedulerRuling>>,
    drains: Mutex<Vec<DrainMetrics>>,
    queues: Mutex<Vec<QueueDepthSample>>,
    /// Injected-fault counters, keyed by fault class ("delay", "reset",
    /// "drop:conn_req", …). Ordered so exports are deterministic.
    faults: Mutex<BTreeMap<String, u64>>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one finished migration (source-side view).
    pub fn record_migration(&self, m: MigrationMetrics) {
        self.migrations.lock().push(m);
    }

    /// Record one scheduler ruling on an in-flight migration.
    pub fn record_ruling(&self, r: SchedulerRuling) {
        self.rulings.lock().push(r);
    }

    /// Record one terminal host-drain verdict. The scheduler calls this
    /// exactly once per drain.
    pub fn record_drain(&self, d: DrainMetrics) {
        self.drains.lock().push(d);
    }

    /// Record one queue-depth sample.
    pub fn sample_queue_depth(&self, label: &str, t_ns: u64, depth: usize) {
        self.queues.lock().push(QueueDepthSample {
            label: label.to_string(),
            t_ns,
            depth,
        });
    }

    /// Count one injected fault of `class` ("delay", "reset",
    /// "drop:conn_req", "dup:conn_reply", …), so audits can correlate
    /// injected faults with observed retries and aborts.
    pub fn record_fault(&self, class: &str) {
        *self.faults.lock().entry(class.to_string()).or_insert(0) += 1;
    }

    /// Copy out the injected-fault counters, sorted by class.
    pub fn fault_counts(&self) -> Vec<(String, u64)> {
        self.faults
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Total injected faults across every class.
    pub fn total_faults(&self) -> u64 {
        self.faults.lock().values().sum()
    }

    /// Copy out the migration records.
    pub fn migrations(&self) -> Vec<MigrationMetrics> {
        self.migrations.lock().clone()
    }

    /// Copy out the scheduler rulings.
    pub fn rulings(&self) -> Vec<SchedulerRuling> {
        self.rulings.lock().clone()
    }

    /// Copy out the host-drain records.
    pub fn drains(&self) -> Vec<DrainMetrics> {
        self.drains.lock().clone()
    }

    /// Copy out the queue-depth samples.
    pub fn queue_samples(&self) -> Vec<QueueDepthSample> {
        self.queues.lock().clone()
    }

    /// Nothing recorded at all?
    pub fn is_empty(&self) -> bool {
        self.migrations.lock().is_empty()
            && self.rulings.lock().is_empty()
            && self.drains.lock().is_empty()
            && self.queues.lock().is_empty()
            && self.faults.lock().is_empty()
    }

    /// Export every record as JSONL: one JSON object per line, each with
    /// a `record` field ("migration", "sched_ruling", "queue_depth").
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for m in self.migrations.lock().iter() {
            let _ = writeln!(out, "{}", m.to_json());
        }
        for r in self.rulings.lock().iter() {
            let _ = writeln!(out, "{}", r.to_json());
        }
        for d in self.drains.lock().iter() {
            let _ = writeln!(out, "{}", d.to_json());
        }
        for q in self.queues.lock().iter() {
            let _ = writeln!(out, "{}", q.to_json());
        }
        for (class, count) in self.faults.lock().iter() {
            let record = JsonValue::Object(vec![
                ("record".into(), JsonValue::Str("fault".into())),
                ("class".into(), JsonValue::Str(class.clone())),
                ("count".into(), JsonValue::Num(*count as f64)),
            ]);
            let _ = writeln!(out, "{record}");
        }
        out
    }

    /// Render a human-readable summary of the registry.
    pub fn summary(&self) -> String {
        let migs = self.migrations.lock();
        let rulings = self.rulings.lock();
        let queues = self.queues.lock();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "migration metrics: {} migration(s), {} scheduler ruling(s), {} queue sample(s)",
            migs.len(),
            rulings.len(),
            queues.len()
        );
        if !migs.is_empty() {
            let _ = writeln!(
                out,
                "{:>4} {:>9} {:>3} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9} {:>6} {:>4} {:>4}",
                "rank",
                "verdict",
                "try",
                "coord(s)",
                "collect(s)",
                "tx(s)",
                "restore(s)",
                "wall(s)",
                "bytes",
                "chunks",
                "rmlF",
                "rmlR"
            );
            for m in migs.iter() {
                let _ = writeln!(
                    out,
                    "{:>4} {:>9} {:>3} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>9} {:>6} {:>4} {:>4}",
                    m.rank,
                    m.verdict.as_str(),
                    m.attempts,
                    m.coordinate_s,
                    m.collect_s,
                    m.tx_s,
                    m.restore_s,
                    m.wall_s,
                    m.state_bytes,
                    m.chunks,
                    m.rml_forwarded,
                    m.rml_restored
                );
            }
            for m in migs.iter() {
                for (i, c) in m.retry_causes.iter().enumerate() {
                    let _ = writeln!(out, "  rank {} retry {}: {c}", m.rank, i + 1);
                }
                if let Some(c) = &m.abort_cause {
                    let _ = writeln!(out, "  rank {} abort: {c}", m.rank);
                }
            }
        }
        for r in rulings.iter() {
            let _ = writeln!(
                out,
                "  scheduler: rank {} {} (attempt {}){}",
                r.rank,
                r.action,
                r.attempts,
                r.cause
                    .as_ref()
                    .map(|c| format!(" — {c}"))
                    .unwrap_or_default()
            );
        }
        for d in self.drains.lock().iter() {
            let _ = writeln!(
                out,
                "  drain host {}: {} ({} rank(s), {} completed, {} aborted, {} retried, \
                 peak {} of {} worker(s), {:.4}s)",
                d.host,
                d.outcome,
                d.ranks,
                d.completed,
                d.aborted,
                d.retried,
                d.peak_active,
                d.max_workers,
                d.makespan_s
            );
        }
        if !queues.is_empty() {
            let peak = queues.iter().map(|q| q.depth).max().unwrap_or(0);
            let _ = writeln!(out, "  queue depth peak: {peak} frame(s)");
        }
        let faults = self.faults.lock();
        if !faults.is_empty() {
            let classes: Vec<String> = faults.iter().map(|(c, n)| format!("{c}={n}")).collect();
            let _ = writeln!(out, "  injected faults: {}", classes.join(" "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_migration() -> MigrationMetrics {
        MigrationMetrics {
            rank: 3,
            verdict: MigrationVerdict::Aborted,
            attempts: 2,
            coordinate_s: 0.01,
            collect_s: 0.5,
            tx_s: 1.5,
            restore_s: 0.25,
            pipelined_s: 1.75,
            wall_s: 0.02,
            state_bytes: 100_000,
            chunks: 25,
            rml_forwarded: 3,
            rml_restored: 4,
            retry_causes: vec!["chunk 0 rejected".into()],
            abort_cause: Some("destination vanished".into()),
        }
    }

    #[test]
    fn jsonl_has_one_record_per_line() {
        let reg = MetricsRegistry::new();
        reg.record_migration(sample_migration());
        reg.record_ruling(SchedulerRuling {
            rank: 3,
            action: "abort".into(),
            attempts: 2,
            cause: Some("destination vanished".into()),
        });
        reg.sample_queue_depth("p0", 123, 7);
        let jsonl = reg.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            let v = JsonValue::parse(line).unwrap();
            assert!(v.get("record").is_some(), "{line}");
        }
        assert!(lines[0].contains("\"record\":\"migration\""));
        assert!(lines[1].contains("\"record\":\"sched_ruling\""));
        assert!(lines[2].contains("\"record\":\"queue_depth\""));
    }

    #[test]
    fn jsonl_migration_fields_roundtrip() {
        let reg = MetricsRegistry::new();
        reg.record_migration(sample_migration());
        let line = reg.to_jsonl();
        let v = JsonValue::parse(line.trim()).unwrap();
        assert_eq!(v.get("rank").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("verdict").unwrap().as_str(), Some("aborted"));
        assert_eq!(v.get("state_bytes").unwrap().as_u64(), Some(100_000));
        assert_eq!(v.get("retry_causes").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(
            v.get("abort_cause").unwrap().as_str(),
            Some("destination vanished")
        );
    }

    #[test]
    fn summary_mentions_causes_and_peak() {
        let reg = MetricsRegistry::new();
        reg.record_migration(sample_migration());
        reg.sample_queue_depth("p1", 5, 9);
        let s = reg.summary();
        assert!(s.contains("aborted"), "{s}");
        assert!(s.contains("destination vanished"), "{s}");
        assert!(s.contains("chunk 0 rejected"), "{s}");
        assert!(s.contains("peak: 9"), "{s}");
    }

    #[test]
    fn fault_counters_aggregate_and_export() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.total_faults(), 0);
        reg.record_fault("delay");
        reg.record_fault("delay");
        reg.record_fault("drop:conn_req");
        assert!(!reg.is_empty());
        assert_eq!(reg.total_faults(), 3);
        assert_eq!(
            reg.fault_counts(),
            vec![("delay".to_string(), 2), ("drop:conn_req".to_string(), 1)]
        );
        let jsonl = reg.to_jsonl();
        let fault_lines: Vec<&str> = jsonl
            .lines()
            .filter(|l| l.contains("\"record\":\"fault\""))
            .collect();
        assert_eq!(fault_lines.len(), 2);
        let v = JsonValue::parse(fault_lines[0]).unwrap();
        assert_eq!(v.get("class").unwrap().as_str(), Some("delay"));
        assert_eq!(v.get("count").unwrap().as_u64(), Some(2));
        assert!(
            reg.summary().contains("injected faults: delay=2"),
            "{}",
            reg.summary()
        );
    }

    #[test]
    fn drain_record_exports_and_summarizes() {
        let reg = MetricsRegistry::new();
        reg.record_drain(DrainMetrics {
            host: 1,
            ranks: 8,
            completed: 7,
            aborted: 1,
            retried: 3,
            makespan_s: 0.25,
            max_workers: 4,
            peak_active: 4,
            outcome: "partial".into(),
        });
        assert!(!reg.is_empty());
        assert_eq!(reg.drains().len(), 1);
        let jsonl = reg.to_jsonl();
        let drain_lines: Vec<&str> = jsonl
            .lines()
            .filter(|l| l.contains("\"record\":\"drain\""))
            .collect();
        assert_eq!(drain_lines.len(), 1);
        let v = JsonValue::parse(drain_lines[0]).unwrap();
        assert_eq!(v.get("host").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("ranks").unwrap().as_u64(), Some(8));
        assert_eq!(v.get("completed").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("aborted").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("retried").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("peak_active").unwrap().as_u64(), Some(4));
        assert_eq!(v.get("outcome").unwrap().as_str(), Some("partial"));
        let s = reg.summary();
        assert!(s.contains("drain host 1: partial"), "{s}");
        assert!(s.contains("peak 4 of 4 worker(s)"), "{s}");
    }

    #[test]
    fn empty_registry_reports_empty() {
        let reg = MetricsRegistry::new();
        assert!(reg.is_empty());
        assert_eq!(reg.to_jsonl(), "");
        assert!(reg.summary().contains("0 migration(s)"));
    }

    #[test]
    fn registry_is_shared_safely() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        let mut handles = Vec::new();
        for i in 0..4 {
            let reg = std::sync::Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                for j in 0..25 {
                    reg.sample_queue_depth(&format!("p{i}"), j, j as usize);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.queue_samples().len(), 100);
    }
}
