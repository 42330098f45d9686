//! `snow-bench scale` — the delivery-substrate scale suite.
//!
//! Two scenarios, each run at a sweep of rank counts (256 / 1k / 5k /
//! 10k by default), emitting one schema'd record apiece into
//! `BENCH_scale.json` (`snow-bench-scale/v1`) so the perf trajectory
//! of the substrate is tracked from this PR forward:
//!
//! * **all-pairs flood** — drives the post office, the sharded
//!   registry and the O(1) rank directory directly (no application
//!   protocol): every rank sends to a stride-sampled set of peers
//!   (all pairs when the budget allows), worker threads doing the
//!   directory lookup → registry borrow → `send` per message while
//!   receiver threads drain the inboxes. Messages carry an
//!   epoch-relative nanosecond stamp, so delivery latency is measured
//!   end to end through the real lookup+delivery path.
//! * **migration-under-load** — a real [`Computation`] ring (rank r →
//!   r+1) with co-located ranks on a fixed host pool; one mid-ring
//!   rank migrates to a spare host mid-run. The ranks are launched
//!   cooperatively and multiplexed onto a bounded worker pool (the
//!   non-blocking `try_send`/`try_recv`/`connect_step` API), so the
//!   10k-rank entry fits on one machine instead of needing 10k OS
//!   threads. Records steady-state throughput/latency plus the
//!   migration pause (wall time of the blocking migrate call, and the
//!   trace-derived start→commit interval when tracing is on). At ≤ 1k
//!   ranks the run is traced and audited against the §4 guarantees;
//!   untraced entries stamp `audit_skipped` with the reason.
//!
//! Latency quantiles come from a log-bucketed histogram
//! ([`LatencyHistogram`]) so the 10k-rank flood never holds millions
//! of raw samples.

use bytes::Bytes;
use snow_core::{Computation, MigrationOutcome, SnowProcess, Start};
use snow_net::{FrameClass, LinkModel, TimeScale};
use snow_sched::{Directory, IndexedDirectory, PlEntry};
use snow_state::{ExecState, MemoryGraph, ProcessState};
use snow_trace::report::JsonValue;
use snow_trace::{audit, EventKind, Tracer};
use snow_vm::vm::{ProcAddr, Registry};
use snow_vm::wire::{Envelope, ExeStatus, Incoming, Payload, ENVELOPE_OVERHEAD_BYTES};
use snow_vm::{HostId, HostSpec, NodeId, Post, TcpTransport, Transport, Vmid};
use std::path::Path;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Schema tag stamped into every emitted document.
pub const SCHEMA: &str = "snow-bench-scale/v1";

/// Which [`snow_vm::Transport`] backend a scenario drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// The default in-process substrate (direct registry delivery).
    InProc,
    /// Framed localhost-TCP sockets ([`snow_vm::TcpTransport`]).
    Tcp,
}

impl TransportKind {
    /// The name stamped into records and accepted by `--transport`.
    pub fn as_str(self) -> &'static str {
        match self {
            TransportKind::InProc => "inproc",
            TransportKind::Tcp => "tcp",
        }
    }

    /// Parse a `--transport` argument.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "inproc" => Some(TransportKind::InProc),
            "tcp" => Some(TransportKind::Tcp),
            _ => None,
        }
    }
}

pub use crate::hist::LatencyHistogram;

// ---------------------------------------------------------------------
// records
// ---------------------------------------------------------------------

/// One scenario measurement, serialised as one element of the
/// `records` array in `BENCH_scale.json`.
#[derive(Debug, Clone)]
pub struct ScaleRecord {
    /// `"all_pairs_flood"` or `"migration_under_load"`.
    pub scenario: &'static str,
    /// Transport backend the scenario ran on (`"inproc"` or `"tcp"`).
    pub transport: &'static str,
    /// Rank count the scenario ran at.
    pub ranks: usize,
    /// Messages delivered.
    pub msgs: u64,
    /// Wire bytes moved (payload + envelope overhead per message).
    pub bytes_moved: u64,
    /// Wall-clock seconds of the measured window.
    pub wall_s: f64,
    /// Delivered messages per wall second.
    pub msgs_per_sec: f64,
    /// Median delivery latency, microseconds.
    pub p50_latency_us: f64,
    /// 99th-percentile delivery latency, microseconds.
    pub p99_latency_us: f64,
    /// Aggregate staged high-water mark over every inbox (satellite:
    /// the PR 3 queue-depth accounting, summed across the sharded
    /// post office).
    pub staged_high_water: u64,
    /// Destinations each rank flooded (flood only; `ranks - 1` means
    /// true all-pairs).
    pub fanout: Option<usize>,
    /// Ring rounds (migration scenario only).
    pub rounds: Option<u64>,
    /// Wall milliseconds the blocking migrate call took (migration
    /// scenario only): request → transfer → commit.
    pub pause_ms: Option<f64>,
    /// Trace-derived MigrationStart → MigrationCommit interval in
    /// milliseconds (traced migration runs only).
    pub pause_trace_ms: Option<f64>,
    /// §4 audit verdict (traced migration runs only).
    pub audit_clean: Option<bool>,
    /// Why the §4 audit did *not* run (untraced migration runs).
    /// Exactly one of `audit_clean` / `audit_skipped` is set on a
    /// migration record, so a null audit is always an explicit,
    /// explained decision rather than a silently dropped check.
    pub audit_skipped: Option<&'static str>,
    /// Whether the mid-run migration finally aborted after the
    /// harness's retry (migration scenario only). `Some(false)` is the
    /// healthy verdict; `Some(true)` is reported instead of panicking
    /// the bench.
    pub migration_aborted: Option<bool>,
}

impl ScaleRecord {
    /// This record as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let opt_num = |v: Option<f64>| v.map_or(JsonValue::Null, JsonValue::Num);
        JsonValue::Object(vec![
            ("scenario".into(), JsonValue::Str(self.scenario.into())),
            ("transport".into(), JsonValue::Str(self.transport.into())),
            ("ranks".into(), JsonValue::Num(self.ranks as f64)),
            ("msgs".into(), JsonValue::Num(self.msgs as f64)),
            (
                "bytes_moved".into(),
                JsonValue::Num(self.bytes_moved as f64),
            ),
            ("wall_s".into(), JsonValue::Num(self.wall_s)),
            ("msgs_per_sec".into(), JsonValue::Num(self.msgs_per_sec)),
            ("p50_latency_us".into(), JsonValue::Num(self.p50_latency_us)),
            ("p99_latency_us".into(), JsonValue::Num(self.p99_latency_us)),
            (
                "staged_high_water".into(),
                JsonValue::Num(self.staged_high_water as f64),
            ),
            (
                "fanout".into(),
                self.fanout
                    .map_or(JsonValue::Null, |f| JsonValue::Num(f as f64)),
            ),
            (
                "rounds".into(),
                self.rounds
                    .map_or(JsonValue::Null, |r| JsonValue::Num(r as f64)),
            ),
            ("pause_ms".into(), opt_num(self.pause_ms)),
            ("pause_trace_ms".into(), opt_num(self.pause_trace_ms)),
            (
                "audit_clean".into(),
                self.audit_clean.map_or(JsonValue::Null, JsonValue::Bool),
            ),
            (
                "audit_skipped".into(),
                self.audit_skipped
                    .map_or(JsonValue::Null, |r| JsonValue::Str(r.into())),
            ),
            (
                "migration_aborted".into(),
                self.migration_aborted
                    .map_or(JsonValue::Null, JsonValue::Bool),
            ),
        ])
    }
}

/// Wrap records into the full `snow-bench-scale/v1` document.
pub fn emit_document(records: &[ScaleRecord], smoke: bool) -> JsonValue {
    let created = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    JsonValue::Object(vec![
        ("schema".into(), JsonValue::Str(SCHEMA.into())),
        ("created_unix".into(), JsonValue::Num(created as f64)),
        ("smoke".into(), JsonValue::Bool(smoke)),
        (
            "records".into(),
            JsonValue::Array(records.iter().map(ScaleRecord::to_json).collect()),
        ),
    ])
}

/// Validate a parsed `BENCH_scale.json` document against the
/// `snow-bench-scale/v1` schema: the CI `bench-smoke` gate. Checks the
/// schema tag, that at least one record of *each* scenario is present,
/// and that every record carries the required numeric fields
/// (throughput, both latency quantiles, bytes moved — and a pause for
/// migration records).
pub fn validate_document(doc: &JsonValue) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("missing schema tag")?;
    if schema != SCHEMA {
        return Err(format!("schema {schema:?}, expected {SCHEMA:?}"));
    }
    let records = doc
        .get("records")
        .and_then(JsonValue::as_array)
        .ok_or("missing records array")?;
    if records.is_empty() {
        return Err("records array is empty".into());
    }
    let mut seen_flood = false;
    let mut seen_migration = false;
    for (i, rec) in records.iter().enumerate() {
        let ctx = |field: &str| format!("record {i}: bad or missing {field}");
        let scenario = rec
            .get("scenario")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ctx("scenario"))?;
        match scenario {
            "all_pairs_flood" => seen_flood = true,
            "migration_under_load" => seen_migration = true,
            other => return Err(format!("record {i}: unknown scenario {other:?}")),
        }
        let num = |field: &str| -> Result<f64, String> {
            rec.get(field)
                .and_then(JsonValue::as_f64)
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| ctx(field))
        };
        if num("ranks")? < 1.0 {
            return Err(ctx("ranks"));
        }
        if num("msgs")? < 1.0 {
            return Err(ctx("msgs"));
        }
        if num("msgs_per_sec")? <= 0.0 {
            return Err(ctx("msgs_per_sec"));
        }
        num("bytes_moved")?;
        num("wall_s")?;
        num("p50_latency_us")?;
        num("p99_latency_us")?;
        num("staged_high_water")?;
        if scenario == "migration_under_load" {
            if num("pause_ms").is_err() {
                return Err(format!("record {i}: migration record without pause_ms"));
            }
            // §4 audit status must be explicit: a verdict, or a stamped
            // reason the audit was skipped — never both, never neither.
            let audited = rec
                .get("audit_clean")
                .and_then(JsonValue::as_bool)
                .is_some();
            let skipped = rec
                .get("audit_skipped")
                .and_then(JsonValue::as_str)
                .is_some_and(|s| !s.is_empty());
            if audited == skipped {
                return Err(format!(
                    "record {i}: migration record needs exactly one of \
                     audit_clean / audit_skipped"
                ));
            }
        }
    }
    if !seen_flood {
        return Err("no all_pairs_flood record".into());
    }
    if !seen_migration {
        return Err("no migration_under_load record".into());
    }
    Ok(())
}

// ---------------------------------------------------------------------
// regression gate
// ---------------------------------------------------------------------

/// Tolerances for [`gate_document`]. Ratios are against the committed
/// baseline: generous by default because the CI runners' absolute
/// numbers swing hard with machine load — the gate exists to catch
/// order-of-magnitude regressions, not single-digit noise.
#[derive(Debug, Clone, Copy)]
pub struct GateTolerances {
    /// Minimum fraction of baseline throughput a record must keep.
    pub min_throughput_ratio: f64,
    /// Maximum multiple of baseline p50/p99 latency a record may show.
    pub max_latency_ratio: f64,
}

impl Default for GateTolerances {
    fn default() -> Self {
        GateTolerances {
            min_throughput_ratio: 0.2,
            max_latency_ratio: 5.0,
        }
    }
}

/// Latencies below this floor (microseconds) are never gated: at
/// single-digit-µs baselines a ratio check only measures scheduler
/// jitter. Shared by the scale and workload gates.
pub(crate) const GATE_LATENCY_FLOOR_US: f64 = 50.0;

/// Read and parse a bench document (a run, a baseline, or a file to
/// validate).
pub fn read_doc(path: &Path) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    JsonValue::parse(&text).map_err(|e| format!("{} is not JSON: {e}", path.display()))
}

fn gate_key(rec: &JsonValue) -> Option<(String, String, u64)> {
    let scenario = rec.get("scenario")?.as_str()?.to_string();
    // Baselines written before the transport field default to inproc.
    let transport = rec
        .get("transport")
        .and_then(JsonValue::as_str)
        .unwrap_or("inproc")
        .to_string();
    let ranks = rec.get("ranks")?.as_f64()? as u64;
    Some((scenario, transport, ranks))
}

/// Gate a fresh `BENCH_scale.json` run against the committed baseline:
/// for every `(scenario, transport, ranks)` pair present in *both*
/// documents, throughput must not collapse below
/// `min_throughput_ratio × baseline` and the latency quantiles must not
/// balloon past `max_latency_ratio × baseline` (sub-50 µs baselines are
/// exempt from the latency check). At least one common pair is
/// required. Returns every violation, not just the first.
pub fn gate_document(
    current: &JsonValue,
    baseline: &JsonValue,
    tol: GateTolerances,
) -> Result<(), Vec<String>> {
    let records = |doc: &JsonValue| -> Vec<JsonValue> {
        doc.get("records")
            .and_then(JsonValue::as_array)
            .map(|a| a.to_vec())
            .unwrap_or_default()
    };
    let base_recs = records(baseline);
    let cur_recs = records(current);
    let mut compared = 0usize;
    let mut violations = Vec::new();
    for cur in &cur_recs {
        let Some(key) = gate_key(cur) else { continue };
        let Some(base) = base_recs
            .iter()
            .find(|b| gate_key(b).as_ref() == Some(&key))
        else {
            continue;
        };
        compared += 1;
        let tag = format!("{}/{}@{}", key.0, key.1, key.2);
        let num = |rec: &JsonValue, field: &str| rec.get(field).and_then(JsonValue::as_f64);
        if let (Some(c), Some(b)) = (num(cur, "msgs_per_sec"), num(base, "msgs_per_sec")) {
            let floor = b * tol.min_throughput_ratio;
            if c < floor {
                violations.push(format!(
                    "{tag}: throughput {c:.0} msgs/s below gate {floor:.0} \
                     (baseline {b:.0} × {:.2})",
                    tol.min_throughput_ratio
                ));
            }
        }
        for q in ["p50_latency_us", "p99_latency_us"] {
            if let (Some(c), Some(b)) = (num(cur, q), num(base, q)) {
                let ceil = (b * tol.max_latency_ratio).max(GATE_LATENCY_FLOOR_US);
                if c > ceil {
                    violations.push(format!(
                        "{tag}: {q} {c:.1} above gate {ceil:.1} (baseline {b:.1} × {:.2})",
                        tol.max_latency_ratio
                    ));
                }
            }
        }
        if cur.get("migration_aborted").and_then(JsonValue::as_bool) == Some(true) {
            violations.push(format!("{tag}: migration aborted after retry"));
        }
        if cur.get("audit_clean").and_then(JsonValue::as_bool) == Some(false) {
            violations.push(format!("{tag}: §4 audit violation"));
        }
    }
    if compared == 0 {
        violations.push("no (scenario, transport, ranks) pair is common to both documents".into());
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

// ---------------------------------------------------------------------
// scenario 1: all-pairs flood
// ---------------------------------------------------------------------

/// Parameters of one flood run.
#[derive(Debug, Clone, Copy)]
pub struct FloodConfig {
    /// Rank count.
    pub ranks: usize,
    /// Total message budget; fanout and per-pair counts derive from it.
    pub budget_msgs: u64,
    /// Payload bytes per message (≥ 8 for the timestamp).
    pub payload_bytes: usize,
    /// Sender/receiver worker threads per side.
    pub workers: usize,
    /// Backend the flood drives.
    pub transport: TransportKind,
}

impl FloodConfig {
    /// The standard sweep entry for `ranks` (2M-message budget, 64 B
    /// payloads, worker count matched to the machine).
    pub fn standard(ranks: usize) -> Self {
        FloodConfig {
            ranks,
            budget_msgs: 2_000_000,
            payload_bytes: 64,
            workers: default_workers(),
            transport: TransportKind::InProc,
        }
    }

    /// CI smoke variant: same shape, 1/20 the budget.
    pub fn smoke(ranks: usize) -> Self {
        FloodConfig {
            budget_msgs: 100_000,
            ..Self::standard(ranks)
        }
    }

    /// Destinations per source rank: all pairs when the budget covers
    /// them, stride-sampled otherwise.
    pub fn fanout(&self) -> usize {
        let per_rank = (self.budget_msgs / self.ranks as u64).max(1) as usize;
        per_rank.min(self.ranks - 1)
    }

    /// Messages per (source, destination) pair.
    pub fn msgs_per_pair(&self) -> u64 {
        (self.budget_msgs / (self.ranks as u64 * self.fanout() as u64)).max(1)
    }
}

/// Pool workers for the cooperative drivers: half the cores, 2–8.
pub(crate) fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get() / 2)
        .unwrap_or(4)
        .clamp(2, 8)
}

/// Cap on in-flight messages: senders stall (spin-yield) while this
/// many posts are undelivered, bounding flood memory to tens of MB
/// instead of the whole budget.
const FLOOD_WINDOW: i64 = 200_000;

/// Hosts the flood spreads its vmids across (shard-spread only — no
/// daemons are involved in the direct substrate drive).
const FLOOD_HOSTS: u32 = 64;

/// Run the all-pairs flood: N inboxes behind the sharded registry, the
/// O(1) rank directory in front, sender workers flooding and receiver
/// workers draining concurrently.
pub fn run_flood(cfg: &FloodConfig) -> ScaleRecord {
    assert!(cfg.ranks >= 2, "flood needs at least two ranks");
    assert!(cfg.payload_bytes >= 8, "payload must hold the timestamp");
    let ranks = cfg.ranks;
    let fanout = cfg.fanout();
    let msgs_per_pair = cfg.msgs_per_pair();
    let total: u64 = ranks as u64 * fanout as u64 * msgs_per_pair;

    // Build the routing plane: rank → vmid directory, vmid → inbox
    // registry — exactly the two lookups every protocol-level send pays.
    let registry = Registry::new();
    let mut dir = IndexedDirectory::with_capacity(ranks);
    let mut posts: Vec<Post<Incoming>> = Vec::with_capacity(ranks);
    for rank in 0..ranks {
        let (tx, post) = Post::channel(LinkModel::INSTANT, TimeScale::ZERO);
        let (sig_tx, _sig_rx) = crossbeam::channel::unbounded();
        let vmid = Vmid {
            host: HostId(rank as u32 % FLOOD_HOSTS),
            pid: (rank as u32) / FLOOD_HOSTS,
        };
        registry.register(
            vmid,
            ProcAddr {
                inbox: tx,
                signals: sig_tx,
                host: vmid.host,
                label: format!("p{rank}"),
            },
        );
        dir.insert(
            rank,
            PlEntry {
                vmid,
                status: ExeStatus::Running,
            },
        );
        posts.push(post);
    }
    let dir = Arc::new(dir);
    // `--transport tcp` routes every flood message through the framed
    // socket backend: same registry behind the scenes, but each send
    // crosses a localhost TCP stream (encode → frame → decode) before
    // the receiver-side delivery. The in-process run keeps the direct
    // registry drive so the baseline still measures the bare substrate.
    let tcp: Option<Arc<TcpTransport>> = match cfg.transport {
        TransportKind::InProc => None,
        TransportKind::Tcp => {
            let t = Arc::new(TcpTransport::new());
            t.attach(registry.clone());
            for h in 0..(ranks as u32).min(FLOOD_HOSTS) {
                t.host_joined(NodeId(h), None);
            }
            Some(t)
        }
    };
    let tracer = Tracer::disabled();
    let epoch = Instant::now();
    let outstanding = Arc::new(AtomicI64::new(0));
    let delivered = Arc::new(AtomicU64::new(0));

    // Receivers: each drains a contiguous slice of inboxes until the
    // whole budget has landed, then reports its histogram and the
    // staged high-water sum of its slice.
    let workers = cfg.workers.max(1);
    let chunk = ranks.div_ceil(workers);
    let mut rx_handles = Vec::new();
    let mut slices: Vec<Vec<Post<Incoming>>> = Vec::new();
    while !posts.is_empty() {
        let rest = posts.split_off(posts.len().min(chunk));
        slices.push(std::mem::replace(&mut posts, rest));
    }
    for slice in slices {
        let outstanding = Arc::clone(&outstanding);
        let delivered = Arc::clone(&delivered);
        rx_handles.push(std::thread::spawn(move || {
            let mut hist = LatencyHistogram::new();
            loop {
                let mut drained = 0u64;
                for post in &slice {
                    while let Ok(Some(Incoming::Data(env))) = post.try_recv() {
                        if let Payload::Data(b) = &env.payload {
                            let sent = u64::from_le_bytes(b[..8].try_into().unwrap());
                            let now = epoch.elapsed().as_nanos() as u64;
                            hist.record(now.saturating_sub(sent));
                        }
                        drained += 1;
                    }
                }
                if drained > 0 {
                    outstanding.fetch_sub(drained as i64, Ordering::Relaxed);
                    delivered.fetch_add(drained, Ordering::Relaxed);
                } else if delivered.load(Ordering::Relaxed) >= total {
                    break;
                } else {
                    std::thread::yield_now();
                }
            }
            let staged: u64 = slice.iter().map(|p| p.staged_high_water() as u64).sum();
            (hist, staged)
        }));
    }

    // Senders: partition the source ranks; destinations are stride-
    // sampled so a capped fanout still spreads over the whole rank
    // space (and covers all pairs when fanout == ranks - 1).
    let stride = ((ranks - 1) / fanout).max(1);
    let t0 = Instant::now();
    let mut tx_handles = Vec::new();
    for w in 0..workers {
        let registry = registry.clone();
        let dir = Arc::clone(&dir);
        let tracer = Arc::clone(&tracer);
        let outstanding = Arc::clone(&outstanding);
        let payload_bytes = cfg.payload_bytes;
        let tcp = tcp.clone();
        tx_handles.push(std::thread::spawn(move || {
            for src in (w..ranks).step_by(workers) {
                for k in 0..fanout {
                    let dest = (src + 1 + k * stride) % ranks;
                    for _ in 0..msgs_per_pair {
                        while outstanding.load(Ordering::Relaxed) >= FLOOD_WINDOW {
                            std::thread::yield_now();
                        }
                        let mut buf = vec![0u8; payload_bytes];
                        let now = epoch.elapsed().as_nanos() as u64;
                        buf[..8].copy_from_slice(&now.to_le_bytes());
                        let env = Envelope {
                            src,
                            tag: 7,
                            msg: tracer.next_msg_id(),
                            payload: Payload::Data(Bytes::from(buf)),
                        };
                        let bytes = env.wire_bytes();
                        let vmid = dir.lookup(dest).expect("dense directory").vmid;
                        outstanding.fetch_add(1, Ordering::Relaxed);
                        match &tcp {
                            Some(t) => t
                                .send_to(
                                    NodeId(src as u32 % FLOOD_HOSTS),
                                    vmid,
                                    Incoming::Data(env),
                                    bytes,
                                    FrameClass::Data,
                                )
                                .expect("flood nodes stay routable"),
                            None => registry
                                .with_addr(vmid, |addr| {
                                    addr.inbox.send_classed(
                                        Incoming::Data(env),
                                        bytes,
                                        FrameClass::Data,
                                    )
                                })
                                .expect("flood inboxes stay registered")
                                .expect("flood inboxes stay open"),
                        }
                    }
                }
            }
        }));
    }
    for h in tx_handles {
        h.join().unwrap();
    }
    let mut hist = LatencyHistogram::new();
    let mut staged_total = 0u64;
    for h in rx_handles {
        let (h_part, staged) = h.join().unwrap();
        hist.merge(&h_part);
        staged_total += staged;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    if let Some(t) = &tcp {
        t.shutdown();
    }

    assert_eq!(hist.count(), total, "every flooded message is delivered");
    ScaleRecord {
        scenario: "all_pairs_flood",
        transport: cfg.transport.as_str(),
        ranks,
        msgs: total,
        bytes_moved: total * (cfg.payload_bytes as u64 + ENVELOPE_OVERHEAD_BYTES as u64),
        wall_s,
        msgs_per_sec: total as f64 / wall_s,
        p50_latency_us: hist.quantile_ns(0.50) / 1_000.0,
        p99_latency_us: hist.quantile_ns(0.99) / 1_000.0,
        staged_high_water: staged_total,
        fanout: Some(fanout),
        rounds: None,
        pause_ms: None,
        pause_trace_ms: None,
        audit_clean: None,
        audit_skipped: None,
        migration_aborted: None,
    }
}

// ---------------------------------------------------------------------
// scenario 2: migration under load
// ---------------------------------------------------------------------

/// Parameters of one migration-under-load run.
#[derive(Debug, Clone, Copy)]
pub struct MigrationLoadConfig {
    /// Rank count (ring of this size, co-located on [`Self::hosts`]).
    pub ranks: usize,
    /// Data rounds each rank drives through the ring.
    pub rounds: u64,
    /// Host pool size (plus one spare migration target).
    pub hosts: usize,
    /// Payload bytes per ring message (≥ 8 for the timestamp).
    pub payload_bytes: usize,
    /// Trace the run and audit it against §4. Adds per-event cost, so
    /// the ≥ 5k sweep entries turn it off; ≤ 1k keeps it on (the
    /// acceptance gate).
    pub trace: bool,
    /// Backend the ring's environment is built on.
    pub transport: TransportKind,
    /// Worker threads the ranks are multiplexed onto. The ring is
    /// driven cooperatively (`try_send`/`try_recv`), so rank count and
    /// thread count are decoupled: 10k ranks run on a handful of
    /// workers instead of 10k OS threads.
    pub workers: usize,
}

impl MigrationLoadConfig {
    /// The standard sweep entry for `ranks`: rounds scale inversely
    /// with the ring size, tracing on through 1k ranks.
    pub fn standard(ranks: usize) -> Self {
        MigrationLoadConfig {
            ranks,
            rounds: (20_000 / ranks as u64).clamp(4, 64),
            hosts: 16.min(ranks),
            payload_bytes: 64,
            trace: ranks <= 1024,
            transport: TransportKind::InProc,
            workers: default_workers(),
        }
    }

    /// CI smoke variant: a short traced ring.
    pub fn smoke(ranks: usize) -> Self {
        MigrationLoadConfig {
            rounds: 6,
            ..Self::standard(ranks)
        }
    }
}

/// Where a cooperatively driven ring rank stands between worker visits.
enum RingPhase {
    /// Trying to post this round's message to the right neighbour.
    Send,
    /// Waiting for this round's message from the left neighbour.
    Recv,
    /// The migrant, parked at its trigger round: pumping peers while it
    /// waits for the scheduler's `migration_request` signal.
    AwaitMigration,
    /// Finished (ring complete, or migrated away).
    Done,
}

/// One ring rank multiplexed onto the worker pool: the per-rank loop of
/// the old thread-per-rank runner, unrolled into a state machine the
/// pool advances one non-blocking step at a time.
struct RingDrive {
    p: Option<SnowProcess>,
    rank: usize,
    round: u64,
    phase: RingPhase,
    /// Abort count of the in-place migration attempts (migrant only).
    attempts: u32,
    /// The migrant's trigger fires at most once.
    migration_resolved: bool,
    local: LatencyHistogram,
}

/// Shared measurement plumbing the pool workers feed.
struct RingShared {
    epoch: Instant,
    hist: Mutex<LatencyHistogram>,
    staged: AtomicU64,
    /// Ranks that completed their first round — the migration request
    /// only fires once the whole ring is connected and in steady
    /// state, so the pause measures the protocol, not the connection
    /// storm (at 5k+ ranks the storm alone can swamp a single-core
    /// scheduler).
    ready: AtomicU64,
}

/// Run the migration-under-load ring at `cfg.ranks`.
///
/// Ranks are launched cooperatively ([`Computation::launch_cooperative`])
/// and multiplexed onto `cfg.workers` pool threads — the 10k-rank sweep
/// entry would need 10k OS threads (plus their stacks) under the old
/// thread-per-rank model. Ranks are dealt round-robin over the workers,
/// which guarantees the migrant and its two ring neighbours sit on
/// three different workers (for `workers ≥ 2` the neighbours never
/// share the migrant's worker): while the migrant's worker blocks
/// inside the drain/transfer, the neighbours keep pumping, which is
/// exactly what the drain needs to terminate.
pub fn run_migration_under_load(cfg: &MigrationLoadConfig) -> ScaleRecord {
    assert!(cfg.ranks >= 4, "ring needs at least four ranks");
    assert!(cfg.payload_bytes >= 8, "payload must hold the timestamp");
    let n = cfg.ranks;
    let rounds = cfg.rounds;
    let migrant = n / 2;
    // Migrate once the ring is in steady state, with rounds left after.
    let trigger = (rounds / 3).max(1);
    let payload_bytes = cfg.payload_bytes;

    let tracer = if cfg.trace {
        Tracer::new()
    } else {
        Tracer::disabled()
    };
    let mut builder = Computation::builder()
        .hosts(HostSpec::ideal(), cfg.hosts + 1)
        .tracer(Arc::clone(&tracer));
    if cfg.transport == TransportKind::Tcp {
        builder = builder.transport(Arc::new(TcpTransport::new()));
    }
    let comp = builder.build();
    let spare = comp.hosts()[cfg.hosts];
    let placement: Vec<HostId> = (0..n).map(|r| comp.hosts()[r % cfg.hosts]).collect();

    let shared = Arc::new(RingShared {
        epoch: Instant::now(),
        hist: Mutex::new(LatencyHistogram::new()),
        staged: AtomicU64::new(0),
        ready: AtomicU64::new(0),
    });

    // The resumed migrant runs on a scheduler-owned thread, so it keeps
    // the straightforward blocking style: the ring from its restored
    // round to the end.
    let app_shared = Arc::clone(&shared);
    let t0 = Instant::now();
    let procs = comp.launch_cooperative(&placement, move |mut p, start| {
        let me = p.rank();
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        let from = match &start {
            Start::Fresh => 0u64,
            Start::Resumed(s) => s
                .exec
                .local("round")
                .and_then(snow_codec::Value::as_u64)
                .unwrap_or(0),
        };
        let mut local = LatencyHistogram::new();
        for _round in from..rounds {
            let mut buf = vec![0u8; payload_bytes];
            buf[..8].copy_from_slice(&(app_shared.epoch.elapsed().as_nanos() as u64).to_le_bytes());
            p.send(right, 1, Bytes::from(buf)).unwrap();
            let (_s, _t, b) = p.recv(Some(left), Some(1)).unwrap();
            let sent = u64::from_le_bytes(b[..8].try_into().unwrap());
            local.record((app_shared.epoch.elapsed().as_nanos() as u64).saturating_sub(sent));
        }
        app_shared
            .staged
            .fetch_add(p.cell().inbox_staged_high_water() as u64, Ordering::Relaxed);
        app_shared.hist.lock().unwrap().merge(&local);
        p.finish();
    });

    let mut drives: Vec<RingDrive> = procs
        .into_iter()
        .enumerate()
        .map(|(rank, p)| RingDrive {
            p: Some(p),
            rank,
            round: 0,
            phase: RingPhase::Send,
            attempts: 0,
            migration_resolved: false,
            local: LatencyHistogram::new(),
        })
        .collect();

    let workers = cfg.workers.clamp(2, n);
    let mut partitions: Vec<Vec<RingDrive>> = (0..workers).map(|_| Vec::new()).collect();
    for d in drives.drain(..).rev() {
        partitions[d.rank % workers].push(d);
    }

    let mut migration_aborted = false;
    let mut pause_ms = 0.0;
    std::thread::scope(|s| {
        for mine in partitions.drain(..) {
            let shared = Arc::clone(&shared);
            let vm = comp.vm();
            s.spawn(move || {
                let mut mine = mine;
                loop {
                    let mut progressed = false;
                    let mut live = 0usize;
                    for d in &mut mine {
                        if matches!(d.phase, RingPhase::Done) {
                            continue;
                        }
                        live += 1;
                        progressed |= step_ring_rank(
                            d,
                            &shared,
                            vm,
                            n,
                            rounds,
                            trigger,
                            migrant,
                            payload_bytes,
                        );
                    }
                    if live == 0 {
                        break;
                    }
                    if !progressed {
                        std::thread::yield_now();
                    }
                }
            });
        }

        // Main thread, inside the scope: wait for steady state, then
        // fire the migration while the pool keeps the ring under load.
        while shared.ready.load(Ordering::Relaxed) < n as u64 {
            std::thread::yield_now();
        }
        let t_pause = Instant::now();
        // A scheduler-side abort (destination init failure, deadline
        // sweep) is a legitimate outcome under load: retry once against
        // the same spare, and report a second abort in the record
        // instead of panicking the bench run.
        migration_aborted = match comp.migrate(migrant, spare) {
            Ok(_) => false,
            Err(_) => comp.migrate(migrant, spare).is_err(),
        };
        pause_ms = t_pause.elapsed().as_secs_f64() * 1_000.0;
    });
    comp.join_init_processes();
    let wall_s = t0.elapsed().as_secs_f64();

    let hist = shared.hist.lock().unwrap().clone();
    let msgs = hist.count();
    let (pause_trace_ms, audit_clean, audit_skipped) = if cfg.trace {
        let events = tracer.snapshot();
        let start_ns = events.iter().find_map(|e| match e.kind {
            EventKind::MigrationStart { rank } if rank == migrant => Some(e.t_ns),
            _ => None,
        });
        let commit_ns = events.iter().find_map(|e| match e.kind {
            EventKind::MigrationCommit { rank } if rank == migrant => Some(e.t_ns),
            _ => None,
        });
        let pause = match (start_ns, commit_ns) {
            (Some(s), Some(c)) if c > s => Some((c - s) as f64 / 1_000_000.0),
            _ => None,
        };
        let report = audit::audit(&events);
        (pause, Some(report.is_clean()), None)
    } else {
        // Satellite: an untraced run used to emit audit_clean: null and
        // pause_trace_ms: null with no explanation — stamp the reason
        // and say so on stderr, so a dropped audit is always visible.
        let reason = "trace disabled at this rank count: per-event tracing cost \
                      would distort the measurement";
        eprintln!(
            "scale: migration_under_load ranks={n} transport={}: \
             §4 audit skipped ({reason})",
            cfg.transport.as_str()
        );
        (None, None, Some(reason))
    };

    ScaleRecord {
        scenario: "migration_under_load",
        transport: cfg.transport.as_str(),
        ranks: n,
        msgs,
        bytes_moved: msgs * (payload_bytes as u64 + ENVELOPE_OVERHEAD_BYTES as u64),
        wall_s,
        msgs_per_sec: msgs as f64 / wall_s,
        p50_latency_us: hist.quantile_ns(0.50) / 1_000.0,
        p99_latency_us: hist.quantile_ns(0.99) / 1_000.0,
        staged_high_water: shared.staged.load(Ordering::Relaxed),
        fanout: None,
        rounds: Some(rounds),
        pause_ms: Some(pause_ms),
        pause_trace_ms,
        audit_clean,
        audit_skipped,
        migration_aborted: Some(migration_aborted),
    }
}

/// Advance one ring rank by one cooperative step; returns whether any
/// progress was made. Mirrors one iteration slice of the old blocking
/// per-rank loop: send right → recv left → (migrant only) migrate at
/// the trigger round.
#[allow(clippy::too_many_arguments)]
fn step_ring_rank(
    d: &mut RingDrive,
    shared: &RingShared,
    vm: &snow_vm::VirtualMachine,
    n: usize,
    rounds: u64,
    trigger: u64,
    migrant: usize,
    payload_bytes: usize,
) -> bool {
    let me = d.rank;
    let right = (me + 1) % n;
    let left = (me + n - 1) % n;
    match d.phase {
        RingPhase::Send => {
            // The migrant parks *before* sending the round after its
            // trigger, matching the old runner: round `trigger` traffic
            // completes, then the process waits for the scheduler's
            // signal so the resumed process restarts at round
            // `trigger + 1`.
            if me == migrant && d.round == trigger + 1 && !d.migration_resolved {
                d.phase = RingPhase::AwaitMigration;
                return true;
            }
            let p = d.p.as_mut().expect("live rank has a process");
            let mut buf = vec![0u8; payload_bytes];
            buf[..8].copy_from_slice(&(shared.epoch.elapsed().as_nanos() as u64).to_le_bytes());
            let sent = p
                .try_send(right, 1, &Bytes::from(buf))
                .unwrap_or_else(|e| panic!("rank {me}: ring send failed: {e}"));
            if sent {
                d.phase = RingPhase::Recv;
            }
            sent
        }
        RingPhase::Recv => {
            let p = d.p.as_mut().expect("live rank has a process");
            let got = p
                .try_recv(Some(left), Some(1))
                .unwrap_or_else(|e| panic!("rank {me}: ring recv failed: {e}"));
            match got {
                Some((_s, _t, b)) => {
                    let sent_ns = u64::from_le_bytes(b[..8].try_into().unwrap());
                    d.local
                        .record((shared.epoch.elapsed().as_nanos() as u64).saturating_sub(sent_ns));
                    if d.round == 0 {
                        shared.ready.fetch_add(1, Ordering::Relaxed);
                    }
                    d.round += 1;
                    if d.round == rounds {
                        let p = d.p.take().expect("live rank has a process");
                        shared.staged.fetch_add(
                            p.cell().inbox_staged_high_water() as u64,
                            Ordering::Relaxed,
                        );
                        shared.hist.lock().unwrap().merge(&d.local);
                        let vmid = p.vmid();
                        p.finish();
                        // The caller-owned epilogue of a cooperative
                        // rank (launch_placed's threads run this on
                        // body return).
                        vm.retire(vmid);
                        d.phase = RingPhase::Done;
                    } else {
                        d.phase = RingPhase::Send;
                    }
                    true
                }
                None => false,
            }
        }
        RingPhase::AwaitMigration => {
            let p = d.p.as_mut().expect("live rank has a process");
            // Keep draining peer traffic (and granting inbound
            // connections) while parked, or the ring stalls harder than
            // the migration pause itself.
            p.pump()
                .unwrap_or_else(|e| panic!("rank {me}: pump failed: {e}"));
            if !p
                .poll_point()
                .unwrap_or_else(|e| panic!("rank {me}: poll failed: {e}"))
            {
                return false;
            }
            // The request is pending: run the blocking migrate on this
            // worker. Round-robin partitioning keeps both ring
            // neighbours on other workers, so the drain's
            // marker/end-of-messages handshake stays live.
            let p = d.p.take().expect("live rank has a process");
            let old_vmid = p.vmid();
            let state = ProcessState::new(
                ExecState::at_entry().with_local("round", snow_codec::Value::U64(d.round)),
                MemoryGraph::new(),
            );
            match p
                .migrate(&state)
                .unwrap_or_else(|e| panic!("rank {me}: migrate failed: {e}"))
            {
                MigrationOutcome::Completed(_) => {
                    shared.hist.lock().unwrap().merge(&d.local);
                    // The old incarnation is gone: retire its vmid so
                    // peers' conn_reqs are nacked into re-lookup
                    // instead of routed to a dead inbox. The resumed
                    // process (scheduler-owned thread) finishes the
                    // ring.
                    vm.retire(old_vmid);
                    d.phase = RingPhase::Done;
                }
                MigrationOutcome::Aborted(a) => {
                    // Rolled back in place (same vmid, RML restored).
                    // The harness retries once, so park again for the
                    // second request; after that, keep the ring alive
                    // in place instead of panicking the bench.
                    d.p = Some(a.process);
                    d.attempts += 1;
                    if d.attempts >= 2 {
                        d.migration_resolved = true;
                        d.phase = RingPhase::Send;
                    }
                }
            }
            true
        }
        RingPhase::Done => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_flood_delivers_budget_without_staging() {
        let cfg = FloodConfig {
            ranks: 64,
            budget_msgs: 20_000,
            payload_bytes: 32,
            workers: 4,
            transport: TransportKind::InProc,
        };
        let rec = run_flood(&cfg);
        assert_eq!(rec.scenario, "all_pairs_flood");
        assert_eq!(rec.ranks, 64);
        assert_eq!(
            rec.msgs,
            64 * rec.fanout.unwrap() as u64 * cfg.msgs_per_pair()
        );
        assert!(rec.msgs_per_sec > 0.0);
        assert!(rec.p50_latency_us >= 0.0);
        assert!(rec.p99_latency_us >= rec.p50_latency_us);
        // ZERO-scale frames ride the immediate fast path end to end:
        // the staged accounting must stay empty in aggregate.
        assert_eq!(rec.staged_high_water, 0, "flood frames must not stage");
    }

    #[test]
    fn small_migration_ring_audits_clean() {
        let cfg = MigrationLoadConfig {
            ranks: 8,
            rounds: 6,
            hosts: 4,
            payload_bytes: 32,
            trace: true,
            transport: TransportKind::InProc,
            workers: 3,
        };
        let rec = run_migration_under_load(&cfg);
        assert_eq!(rec.scenario, "migration_under_load");
        assert!(rec.pause_ms.unwrap() > 0.0);
        assert_eq!(rec.audit_clean, Some(true), "§4 audit must stay clean");
        assert_eq!(rec.migration_aborted, Some(false));
        assert!(rec.msgs >= 8 * 5, "most ring rounds complete: {}", rec.msgs);
    }

    #[test]
    fn small_flood_crosses_tcp_sockets() {
        let cfg = FloodConfig {
            ranks: 16,
            budget_msgs: 2_000,
            payload_bytes: 32,
            workers: 2,
            transport: TransportKind::Tcp,
        };
        let rec = run_flood(&cfg);
        assert_eq!(rec.transport, "tcp");
        assert_eq!(
            rec.msgs,
            16 * rec.fanout.unwrap() as u64 * cfg.msgs_per_pair()
        );
    }

    #[test]
    fn document_roundtrip_validates() {
        let flood = ScaleRecord {
            scenario: "all_pairs_flood",
            transport: "inproc",
            ranks: 256,
            msgs: 1000,
            bytes_moved: 128_000,
            wall_s: 0.5,
            msgs_per_sec: 2000.0,
            p50_latency_us: 10.0,
            p99_latency_us: 90.0,
            staged_high_water: 0,
            fanout: Some(255),
            rounds: None,
            pause_ms: None,
            pause_trace_ms: None,
            audit_clean: None,
            audit_skipped: None,
            migration_aborted: None,
        };
        let migration = ScaleRecord {
            scenario: "migration_under_load",
            transport: "inproc",
            ranks: 256,
            msgs: 5000,
            bytes_moved: 640_000,
            wall_s: 1.0,
            msgs_per_sec: 5000.0,
            p50_latency_us: 15.0,
            p99_latency_us: 120.0,
            staged_high_water: 0,
            fanout: None,
            rounds: Some(20),
            pause_ms: Some(12.0),
            pause_trace_ms: Some(9.5),
            audit_clean: Some(true),
            audit_skipped: None,
            migration_aborted: Some(false),
        };
        let doc = emit_document(&[flood.clone(), migration.clone()], true);
        let parsed = JsonValue::parse(&doc.to_string()).unwrap();
        validate_document(&parsed).unwrap();

        // Schema violations are caught.
        let missing_migration = emit_document(&[flood], true);
        assert!(validate_document(&missing_migration).is_err());
        let mut broken = migration;
        broken.pause_ms = None;
        let doc = emit_document(
            &[
                ScaleRecord {
                    scenario: "all_pairs_flood",
                    ..broken.clone()
                },
                broken,
            ],
            true,
        );
        assert!(
            validate_document(&doc).is_err(),
            "pause-less migration record"
        );
        assert!(validate_document(&JsonValue::parse("{}").unwrap()).is_err());
    }

    fn gate_fixture(msgs_per_sec: f64, p99_us: f64, aborted: Option<bool>) -> JsonValue {
        let rec = ScaleRecord {
            scenario: "all_pairs_flood",
            transport: "inproc",
            ranks: 256,
            msgs: 1000,
            bytes_moved: 128_000,
            wall_s: 0.5,
            msgs_per_sec,
            p50_latency_us: p99_us / 2.0,
            p99_latency_us: p99_us,
            staged_high_water: 0,
            fanout: Some(255),
            rounds: None,
            pause_ms: None,
            pause_trace_ms: None,
            audit_clean: None,
            audit_skipped: None,
            migration_aborted: aborted,
        };
        emit_document(&[rec], true)
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_on_collapse() {
        let baseline = gate_fixture(100_000.0, 500.0, None);
        let tol = GateTolerances::default();
        // Half the throughput, slightly worse tail: inside tolerance.
        assert!(gate_document(&gate_fixture(50_000.0, 800.0, None), &baseline, tol).is_ok());
        // Throughput collapse: gated.
        let errs = gate_document(&gate_fixture(1_000.0, 500.0, None), &baseline, tol).unwrap_err();
        assert!(errs[0].contains("throughput"), "{errs:?}");
        // Latency blow-up: gated.
        let errs =
            gate_document(&gate_fixture(100_000.0, 50_000.0, None), &baseline, tol).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("p99")), "{errs:?}");
        // A reported migration abort is gated even with healthy numbers.
        let errs =
            gate_document(&gate_fixture(100_000.0, 500.0, Some(true)), &baseline, tol).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("aborted")), "{errs:?}");
    }

    #[test]
    fn gate_requires_a_common_record() {
        let baseline = gate_fixture(100_000.0, 500.0, None);
        let mut other = ScaleRecord {
            scenario: "migration_under_load",
            transport: "tcp",
            ranks: 64,
            msgs: 100,
            bytes_moved: 12_800,
            wall_s: 0.1,
            msgs_per_sec: 1_000.0,
            p50_latency_us: 10.0,
            p99_latency_us: 20.0,
            staged_high_water: 0,
            fanout: None,
            rounds: Some(6),
            pause_ms: Some(5.0),
            pause_trace_ms: None,
            audit_clean: Some(true),
            audit_skipped: None,
            migration_aborted: Some(false),
        };
        let current = emit_document(std::slice::from_ref(&other), true);
        assert!(gate_document(&current, &baseline, GateTolerances::default()).is_err());
        // A baseline predating the transport field still matches an
        // inproc record: the key defaults missing transports.
        other.scenario = "all_pairs_flood";
        other.transport = "inproc";
        other.ranks = 256;
        other.msgs_per_sec = 90_000.0;
        let current = emit_document(&[other], true);
        let stripped = baseline
            .to_string()
            .replace("\"transport\":\"inproc\",", "");
        assert!(
            stripped.len() < baseline.to_string().len(),
            "field stripped"
        );
        let baseline_old = JsonValue::parse(&stripped).unwrap();
        assert!(gate_document(&current, &baseline_old, GateTolerances::default()).is_ok());
    }
}
