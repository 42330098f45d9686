//! `snow-bench workload` — open-loop service latency under migration.
//!
//! The scale suite's flood is *closed-loop*: senders wait for the
//! substrate, so a migration pause thins the offered load instead of
//! queueing behind it and the latency cost of the pause is invisible.
//! This module drives ranks **open-loop**: every message has a
//! *scheduled* arrival time that exists independently of how the system
//! copes, latency is measured from that schedule, and a stalled rank
//! shows up as a tail-latency spike rather than a throughput dip — the
//! number production actually cares about during a migration.
//!
//! The generator is deterministic the way `chaos.rs` scenarios are:
//! every arrival time, payload size and destination is a pure function
//! of `(seed, source, index)` via splitmix64 hashing, so two runs of the
//! same config offer bit-identical traffic regardless of thread
//! interleaving (`--twice` digests must match). Inter-arrivals are
//! exponential (Poisson process per source), sizes are bounded-Pareto
//! (heavy-tailed, like real RPC fan-out), and destinations are
//! Zipf-skewed over a seeded rank permutation so one hot rank absorbs a
//! disproportionate fan-in — the interesting victim to migrate.
//!
//! Service latencies land in log-bucketed histograms
//! ([`LatencyHistogram`]) sliced by migration phase (pre / during /
//! post) via a live classifier the driver flips around each blocking
//! `migrate` call; traced runs additionally derive the window from the
//! event log ([`PhaseWindows`]) and audit the §4 guarantees. The same
//! generated schedules then drive the three `snow-baselines`
//! mini-systems, producing the first *quantified* §7 ablation table
//! (see [`run_ablation`]).

use bytes::Bytes;
use snow_baselines::{
    broadcast::run_broadcast_load, cocheck::run_cocheck_load, forwarding::run_forwarding_load,
    snow_reference_metrics, LoadSamples, Offered,
};
use snow_core::{Computation, MigrationOutcome, SnowProcess, Start};
use snow_net::TimeScale;
use snow_state::{fnv1a, fnv1a_with_seed, ExecState, MemoryGraph, ProcessState, FNV_OFFSET};
use snow_trace::report::JsonValue;
use snow_trace::{audit, PhaseWindows, Tracer};
use snow_vm::wire::ENVELOPE_OVERHEAD_BYTES;
use snow_vm::{HostId, HostSpec, TcpTransport};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::hist::LatencyHistogram;
use crate::scale::{default_workers, TransportKind, GATE_LATENCY_FLOOR_US};

/// Schema tag stamped into every emitted document.
pub const SCHEMA: &str = "snow-bench-workload/v1";

/// Tag carried by every workload message.
const TAG: i32 = 7;

// ---------------------------------------------------------------------
// deterministic generator
// ---------------------------------------------------------------------

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash `(seed, src, i, salt)` to a uniform u64. Pure: no shared RNG
/// state, so per-source streams are identical under any interleaving.
fn mix(seed: u64, src: u64, i: u64, salt: u64) -> u64 {
    let mut h = splitmix(seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407));
    h = splitmix(h ^ src.wrapping_mul(0x9FB2_1C65_1E98_DF25));
    splitmix(h ^ i)
}

/// Map a hash to a uniform f64 in `[0, 1)`.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

const SALT_GAP: u64 = 0x01;
const SALT_SIZE: u64 = 0x02;
const SALT_DEST: u64 = 0x03;
const SALT_PERM: u64 = 0x04;

/// Parameters of the deterministic traffic generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenConfig {
    /// Seed: every arrival is a pure function of it.
    pub seed: u64,
    /// Rank count (sources and destinations).
    pub ranks: usize,
    /// Aggregate arrival rate across all ranks, messages/second.
    pub rate_hz: f64,
    /// Bounded-Pareto tail index for payload sizes (smaller = heavier).
    pub pareto_alpha: f64,
    /// Smallest payload, bytes (≥ 16: the scheduled-time stamp needs 8).
    pub min_bytes: u32,
    /// Largest payload, bytes (the Pareto bound).
    pub max_bytes: u32,
    /// Zipf exponent for destination popularity (0 = uniform).
    pub zipf_theta: f64,
}

impl GenConfig {
    /// Stable serialization of the generation parameters (hashed into
    /// the run digest).
    pub fn canonical(&self) -> String {
        format!(
            "workload seed={} ranks={} rate={} alpha={} bytes={}..{} theta={}",
            self.seed,
            self.ranks,
            self.rate_hz,
            self.pareto_alpha,
            self.min_bytes,
            self.max_bytes,
            self.zipf_theta
        )
    }

    /// The seeded destination-popularity permutation: `perm[0]` is the
    /// hottest rank (largest Zipf weight), `perm[1]` the next, …
    /// Seeded Fisher–Yates, so the hot set moves with the seed.
    pub fn popularity_perm(&self) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..self.ranks).collect();
        for i in (1..self.ranks).rev() {
            let j = (mix(self.seed, 0, i as u64, SALT_PERM) % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        perm
    }
}

/// Precomputed Zipf CDF over popularity slots: weight of slot `k` is
/// `1/(k+1)^theta`.
pub struct ZipfTable {
    cum: Vec<f64>,
}

impl ZipfTable {
    /// Build the table for `n` slots with exponent `theta`.
    pub fn new(n: usize, theta: f64) -> ZipfTable {
        assert!(n > 0);
        let mut cum = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(theta);
            cum.push(total);
        }
        for c in &mut cum {
            *c /= total;
        }
        ZipfTable { cum }
    }

    /// Map a uniform `u ∈ [0,1)` to a popularity slot.
    pub fn sample(&self, u: f64) -> usize {
        self.cum
            .partition_point(|&c| c <= u)
            .min(self.cum.len() - 1)
    }
}

/// One generated message: scheduled emission time, size, destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Scheduled emission time, nanoseconds after the run epoch.
    pub at_ns: u64,
    /// Payload bytes.
    pub bytes: u32,
    /// Destination rank.
    pub dest: usize,
}

/// The deterministic per-source arrival stream: exponential
/// inter-arrivals at `rate_hz / ranks`, bounded-Pareto sizes,
/// Zipf-skewed destinations. Infinite; take while `at_ns` is inside the
/// soak horizon.
pub struct ArrivalStream<'a> {
    cfg: &'a GenConfig,
    zipf: &'a ZipfTable,
    perm: &'a [usize],
    src: usize,
    i: u64,
    t_ns: f64,
}

impl<'a> ArrivalStream<'a> {
    /// The stream of source rank `src`.
    pub fn new(
        cfg: &'a GenConfig,
        zipf: &'a ZipfTable,
        perm: &'a [usize],
        src: usize,
    ) -> ArrivalStream<'a> {
        ArrivalStream {
            cfg,
            zipf,
            perm,
            src,
            i: 0,
            t_ns: 0.0,
        }
    }
}

impl Iterator for ArrivalStream<'_> {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        let cfg = self.cfg;
        let (seed, src, i) = (cfg.seed, self.src as u64, self.i);
        // Exponential gap: Poisson arrivals per source.
        let per_src = cfg.rate_hz / cfg.ranks as f64;
        let u_gap = unit(mix(seed, src, i, SALT_GAP));
        self.t_ns += -(1.0 - u_gap).ln() / per_src * 1e9;
        // Bounded-Pareto size via inverse CDF.
        let (lo, hi, a) = (cfg.min_bytes as f64, cfg.max_bytes as f64, cfg.pareto_alpha);
        let u_sz = unit(mix(seed, src, i, SALT_SIZE));
        let bytes =
            (lo / (1.0 - u_sz * (1.0 - (lo / hi).powf(a))).powf(1.0 / a)).clamp(lo, hi) as u32;
        // Zipf destination over the popularity permutation; self-sends
        // shift to the next slot.
        let u_dst = unit(mix(seed, src, i, SALT_DEST));
        let slot = self.zipf.sample(u_dst);
        let mut dest = self.perm[slot];
        if dest == self.src {
            dest = self.perm[(slot + 1) % self.perm.len()];
        }
        self.i += 1;
        Some(Arrival {
            at_ns: self.t_ns as u64,
            bytes: bytes.max(16),
            dest,
        })
    }
}

/// Generate every source's arrivals inside `horizon_ns`.
pub fn generate_streams(cfg: &GenConfig, horizon_ns: u64) -> Vec<Vec<Arrival>> {
    let zipf = ZipfTable::new(cfg.ranks, cfg.zipf_theta);
    let perm = cfg.popularity_perm();
    (0..cfg.ranks)
        .map(|src| {
            ArrivalStream::new(cfg, &zipf, &perm, src)
                .take_while(|a| a.at_ns < horizon_ns)
                .collect()
        })
        .collect()
}

// ---------------------------------------------------------------------
// soak runner
// ---------------------------------------------------------------------

/// Parameters of one open-loop soak.
#[derive(Debug, Clone, Copy)]
pub struct SoakConfig {
    /// Traffic generator parameters.
    pub gen: GenConfig,
    /// Soak length: arrivals are scheduled across this window.
    pub duration_ms: u64,
    /// Hosts the ranks are co-located on (spares for migration are
    /// added on top).
    pub hosts: usize,
    /// Worker threads the ranks are multiplexed onto.
    pub workers: usize,
    /// Mid-soak migrations to fire (hottest ranks first).
    pub migrations: usize,
    /// Record the event log and run the §4 audit (costs memory at high
    /// message counts).
    pub trace: bool,
    /// Transport backend.
    pub transport: TransportKind,
    /// Link time scale for the modeled network.
    pub time_scale: TimeScale,
}

impl SoakConfig {
    /// The standard committed-baseline entry: an 8-second soak, untraced
    /// (tracing ~300k messages would distort the measurement — the
    /// record stamps `audit_skipped` with that reason).
    pub fn standard(ranks: usize) -> SoakConfig {
        SoakConfig {
            gen: GenConfig {
                seed: 42,
                ranks,
                rate_hz: 40_000.0,
                pareto_alpha: 1.3,
                min_bytes: 32,
                max_bytes: 4096,
                zipf_theta: 0.8,
            },
            duration_ms: 8_000,
            hosts: 16.min(ranks),
            workers: default_workers(),
            migrations: 1,
            trace: false,
            transport: TransportKind::InProc,
            time_scale: TimeScale::ZERO,
        }
    }

    /// CI smoke variant: a ~1.5-second traced soak, audited clean.
    pub fn smoke(ranks: usize) -> SoakConfig {
        let std = Self::standard(ranks);
        SoakConfig {
            gen: GenConfig {
                rate_hz: 24_000.0,
                ..std.gen
            },
            duration_ms: 1_500,
            trace: true,
            ..std
        }
    }

    fn horizon_ns(&self) -> u64 {
        self.duration_ms * 1_000_000
    }

    /// Stable serialization hashed into the digest (transport is
    /// deliberately excluded: the delivered lanes are
    /// transport-invariant, and the digest proves exactly that).
    pub fn canonical(&self) -> String {
        format!(
            "{} dur_ms={} migrations={}",
            self.gen.canonical(),
            self.duration_ms,
            self.migrations
        )
    }
}

/// Phase indices for the live classifier.
const PRE: usize = 0;
const DURING: usize = 1;
const POST: usize = 2;

/// Measurement state a migrating rank hands across the migration. Only
/// plumbing of the *bench* (lane hashes for the digest) rides this side
/// channel — protocol-relevant state (`next`, `recvd`) travels in the
/// captured [`ExecState`] like any real application local.
#[derive(Default)]
struct SideState {
    lanes: BTreeMap<usize, u64>,
}

struct WorkShared {
    epoch: Instant,
    phase: AtomicU8,
    hists: Mutex<[LatencyHistogram; 3]>,
    lanes: Mutex<BTreeMap<(usize, usize), u64>>,
    side: Mutex<HashMap<usize, SideState>>,
    delivered: AtomicU64,
    payload_bytes: AtomicU64,
}

impl WorkShared {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn record_recv(
        &self,
        local: &mut [LatencyHistogram; 3],
        lanes: &mut BTreeMap<usize, u64>,
        src: usize,
        payload: &[u8],
    ) {
        let sched = u64::from_le_bytes(payload[..8].try_into().unwrap());
        let lat = self.now_ns().saturating_sub(sched);
        let phase = (self.phase.load(Ordering::Relaxed) as usize).min(POST);
        local[phase].record(lat);
        let h = lanes.entry(src).or_insert(FNV_OFFSET);
        *h = fnv1a_with_seed(*h, &(payload.len() as u64).to_le_bytes());
        *h = fnv1a_with_seed(*h, &sched.to_le_bytes());
        self.delivered.fetch_add(1, Ordering::Relaxed);
        self.payload_bytes
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
    }

    fn commit(&self, rank: usize, local: &mut [LatencyHistogram; 3], lanes: BTreeMap<usize, u64>) {
        let mut g = self.hists.lock().unwrap();
        for (dst, src) in g.iter_mut().zip(local.iter()) {
            dst.merge(src);
        }
        drop(g);
        let mut gl = self.lanes.lock().unwrap();
        for (sender, h) in lanes {
            gl.insert((rank, sender), h);
        }
        *local = [
            LatencyHistogram::new(),
            LatencyHistogram::new(),
            LatencyHistogram::new(),
        ];
    }
}

/// One soak rank multiplexed onto the worker pool.
struct WorkDrive {
    p: Option<SnowProcess>,
    rank: usize,
    next: usize,
    recvd: u64,
    expected: u64,
    local: [LatencyHistogram; 3],
    lanes: BTreeMap<usize, u64>,
    done: bool,
}

/// Advance one rank by one cooperative step; returns whether progress
/// was made.
fn step_work_rank(
    d: &mut WorkDrive,
    shared: &WorkShared,
    vm: &snow_vm::VirtualMachine,
    arrivals: &[Arrival],
) -> bool {
    let me = d.rank;
    let mut progressed = false;
    let p = d.p.as_mut().expect("live rank has a process");

    // Drain deliveries (bounded per visit, so a hot rank cannot starve
    // its own sends). try_recv pumps, which also grants inbound
    // connections.
    for _ in 0..128 {
        match p
            .try_recv(None, Some(TAG))
            .unwrap_or_else(|e| panic!("rank {me}: recv failed: {e}"))
        {
            Some((src, _tag, b)) => {
                shared.record_recv(&mut d.local, &mut d.lanes, src, &b);
                d.recvd += 1;
                progressed = true;
            }
            None => break,
        }
    }

    // Emit everything the schedule says is due. Open loop: a late send
    // keeps its original stamp, so backlog shows up as latency.
    let now = shared.now_ns();
    while d.next < arrivals.len() && arrivals[d.next].at_ns <= now {
        let a = &arrivals[d.next];
        let mut buf = vec![0u8; a.bytes as usize];
        buf[..8].copy_from_slice(&a.at_ns.to_le_bytes());
        let sent = p
            .try_send(a.dest, TAG, &Bytes::from(buf))
            .unwrap_or_else(|e| panic!("rank {me}: send to {} failed: {e}", a.dest));
        if !sent {
            break;
        }
        d.next += 1;
        progressed = true;
    }

    // Service a pending migration request: run the blocking migrate on
    // this worker, with the bench-side lane hashes parked in the side
    // table for the resumed incarnation.
    if p.poll_point()
        .unwrap_or_else(|e| panic!("rank {me}: poll failed: {e}"))
    {
        let p = d.p.take().expect("live rank has a process");
        let old_vmid = p.vmid();
        shared.commit(usize::MAX, &mut d.local, BTreeMap::new()); // merge hists only
        shared.side.lock().unwrap().insert(
            me,
            SideState {
                lanes: std::mem::take(&mut d.lanes),
            },
        );
        let state = ProcessState::new(
            ExecState::at_entry()
                .with_local("next", snow_codec::Value::U64(d.next as u64))
                .with_local("recvd", snow_codec::Value::U64(d.recvd)),
            MemoryGraph::new(),
        );
        match p
            .migrate(&state)
            .unwrap_or_else(|e| panic!("rank {me}: migrate failed: {e}"))
        {
            MigrationOutcome::Completed(_) => {
                vm.retire(old_vmid);
                d.done = true;
            }
            MigrationOutcome::Aborted(a) => {
                // Rolled back in place: reclaim the parked lane hashes
                // and keep serving from the pool.
                d.p = Some(a.process);
                d.lanes = shared
                    .side
                    .lock()
                    .unwrap()
                    .remove(&me)
                    .map(|s| s.lanes)
                    .unwrap_or_default();
            }
        }
        return true;
    }

    // Retire once the whole schedule was sent and everything expected
    // arrived.
    if d.next == arrivals.len() && d.recvd == d.expected {
        let p = d.p.take().expect("live rank has a process");
        shared.commit(me, &mut d.local, std::mem::take(&mut d.lanes));
        let vmid = p.vmid();
        p.finish();
        vm.retire(vmid);
        d.done = true;
        return true;
    }
    progressed
}

/// One soak measurement, serialised as one element of the `records`
/// array in `BENCH_workload.json`.
#[derive(Debug, Clone)]
pub struct WorkloadRecord {
    /// Always `"open_loop_soak"`.
    pub scenario: &'static str,
    /// `"inproc"` or `"tcp"`.
    pub transport: &'static str,
    /// Rank count.
    pub ranks: usize,
    /// Generator seed.
    pub seed: u64,
    /// Aggregate offered rate, messages/second.
    pub rate_hz: f64,
    /// Scheduled soak length, milliseconds.
    pub duration_ms: u64,
    /// Migrations fired mid-soak.
    pub migrations: usize,
    /// Messages delivered.
    pub msgs: u64,
    /// Wire bytes moved (payload + envelope overhead).
    pub bytes_moved: u64,
    /// Wall seconds from launch to full delivery.
    pub wall_s: f64,
    /// Delivered messages per wall second.
    pub msgs_per_sec: f64,
    /// Latency quantiles of deliveries before the first migration.
    pub pre: PhaseStats,
    /// Latency quantiles of deliveries inside a migration window.
    pub during: PhaseStats,
    /// Latency quantiles of deliveries after the last migration window.
    pub post: PhaseStats,
    /// Summed wall milliseconds of the blocking migrate calls.
    pub pause_ms: f64,
    /// Trace-derived total MigrationStart→Commit window (traced runs).
    pub pause_trace_ms: Option<f64>,
    /// Deterministic digest over the delivered lanes, 16 hex digits.
    pub digest: String,
    /// §4 audit verdict (traced runs only).
    pub audit_clean: Option<bool>,
    /// Why the audit did not run. Exactly one of
    /// `audit_clean`/`audit_skipped` is always set.
    pub audit_skipped: Option<&'static str>,
    /// Whether any migration finally aborted after the retry.
    pub migration_aborted: bool,
}

/// Latency quantiles of one phase's histogram.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseStats {
    /// Samples recorded in the phase.
    pub count: u64,
    /// Median latency, µs.
    pub p50_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// 99.9th percentile, µs.
    pub p999_us: f64,
}

impl PhaseStats {
    /// Summarise a histogram.
    pub fn from_hist(h: &LatencyHistogram) -> PhaseStats {
        PhaseStats {
            count: h.count(),
            p50_us: h.quantile_us(0.50),
            p99_us: h.quantile_us(0.99),
            p999_us: h.quantile_us(0.999),
        }
    }

    fn to_json(self) -> JsonValue {
        JsonValue::Object(vec![
            ("count".into(), JsonValue::Num(self.count as f64)),
            ("p50_us".into(), JsonValue::Num(self.p50_us)),
            ("p99_us".into(), JsonValue::Num(self.p99_us)),
            ("p999_us".into(), JsonValue::Num(self.p999_us)),
        ])
    }
}

/// Run one open-loop soak; fires `cfg.migrations` migrations of the
/// hottest ranks (by the seeded popularity permutation) spread across
/// the middle of the window, each to a dedicated spare host.
pub fn run_workload(cfg: &SoakConfig) -> WorkloadRecord {
    assert!(cfg.gen.ranks >= 4, "soak needs at least four ranks");
    assert!(cfg.gen.min_bytes >= 16, "payload must hold the stamp");
    assert!(
        cfg.migrations < cfg.gen.ranks,
        "cannot migrate more ranks than exist"
    );
    let n = cfg.gen.ranks;
    let horizon = cfg.horizon_ns();
    let streams = Arc::new(generate_streams(&cfg.gen, horizon));
    let mut expected = vec![0u64; n];
    let mut offered = 0u64;
    for s in streams.iter() {
        for a in s {
            expected[a.dest] += 1;
            offered += 1;
        }
    }
    let expected = Arc::new(expected);
    // Victims: the hottest ranks, where migration hurts most.
    let victims: Vec<usize> = cfg.gen.popularity_perm()[..cfg.migrations].to_vec();

    let tracer = if cfg.trace {
        Tracer::new()
    } else {
        Tracer::disabled()
    };
    let mut builder = Computation::builder()
        .hosts(HostSpec::ideal(), cfg.hosts + cfg.migrations)
        .time_scale(cfg.time_scale)
        .tracer(Arc::clone(&tracer));
    if cfg.transport == TransportKind::Tcp {
        builder = builder.transport(Arc::new(TcpTransport::new()));
    }
    let comp = builder.build();
    let spares: Vec<HostId> = (0..cfg.migrations)
        .map(|k| comp.hosts()[cfg.hosts + k])
        .collect();
    let placement: Vec<HostId> = (0..n).map(|r| comp.hosts()[r % cfg.hosts]).collect();

    let shared = Arc::new(WorkShared {
        epoch: Instant::now(),
        phase: AtomicU8::new(PRE as u8),
        hists: Mutex::new([
            LatencyHistogram::new(),
            LatencyHistogram::new(),
            LatencyHistogram::new(),
        ]),
        lanes: Mutex::new(BTreeMap::new()),
        side: Mutex::new(HashMap::new()),
        delivered: AtomicU64::new(0),
        payload_bytes: AtomicU64::new(0),
    });

    // The resumed incarnation of a migrated rank runs on a
    // scheduler-owned thread in plain blocking style: replay the rest
    // of its schedule, drain what it is owed, hand its measurements
    // back through the shared state.
    let app_shared = Arc::clone(&shared);
    let app_streams = Arc::clone(&streams);
    let app_expected = Arc::clone(&expected);
    let t0 = Instant::now();
    let procs = comp.launch_cooperative(&placement, move |mut p, start| {
        let me = p.rank();
        let (mut next, mut recvd) = match &start {
            Start::Fresh => (0usize, 0u64),
            Start::Resumed(s) => (
                s.exec
                    .local("next")
                    .and_then(snow_codec::Value::as_u64)
                    .unwrap_or(0) as usize,
                s.exec
                    .local("recvd")
                    .and_then(snow_codec::Value::as_u64)
                    .unwrap_or(0),
            ),
        };
        let mut lanes = app_shared
            .side
            .lock()
            .unwrap()
            .remove(&me)
            .map(|s| s.lanes)
            .unwrap_or_default();
        let mut local = [
            LatencyHistogram::new(),
            LatencyHistogram::new(),
            LatencyHistogram::new(),
        ];
        let arrivals = &app_streams[me];
        let expected = app_expected[me];
        while next < arrivals.len() || recvd < expected {
            let mut progressed = false;
            while let Some((src, _tag, b)) = p
                .try_recv(None, Some(TAG))
                .unwrap_or_else(|e| panic!("resumed rank {me}: recv failed: {e}"))
            {
                app_shared.record_recv(&mut local, &mut lanes, src, &b);
                recvd += 1;
                progressed = true;
            }
            let now = app_shared.now_ns();
            while next < arrivals.len() && arrivals[next].at_ns <= now {
                let a = &arrivals[next];
                let mut buf = vec![0u8; a.bytes as usize];
                buf[..8].copy_from_slice(&a.at_ns.to_le_bytes());
                if p.try_send(a.dest, TAG, &Bytes::from(buf))
                    .unwrap_or_else(|e| panic!("resumed rank {me}: send failed: {e}"))
                {
                    next += 1;
                    progressed = true;
                } else {
                    break;
                }
            }
            if !progressed {
                if next < arrivals.len() {
                    let gap = arrivals[next].at_ns.saturating_sub(app_shared.now_ns());
                    std::thread::sleep(Duration::from_nanos(gap.min(200_000)));
                } else {
                    std::thread::yield_now();
                }
            }
        }
        app_shared.commit(me, &mut local, lanes);
        p.finish();
    });

    let mut drives: Vec<WorkDrive> = procs
        .into_iter()
        .enumerate()
        .map(|(rank, p)| WorkDrive {
            p: Some(p),
            rank,
            next: 0,
            recvd: 0,
            expected: expected[rank],
            local: [
                LatencyHistogram::new(),
                LatencyHistogram::new(),
                LatencyHistogram::new(),
            ],
            lanes: BTreeMap::new(),
            done: false,
        })
        .collect();

    // Victims get a dedicated worker each: the blocking `migrate` call
    // parks its worker thread for the whole handshake, and the hot
    // migrant's peers — potentially every rank — must keep pumping on
    // other threads for the protocol to make progress.
    let workers = cfg.workers.clamp(2, n);
    let mut partitions: Vec<Vec<WorkDrive>> =
        (0..workers + victims.len()).map(|_| Vec::new()).collect();
    for d in drives.drain(..).rev() {
        match victims.iter().position(|&v| v == d.rank) {
            Some(k) => partitions[workers + k].push(d),
            None => partitions[d.rank % workers].push(d),
        }
    }

    let mut pause_ms = 0.0f64;
    let mut migration_aborted = false;
    std::thread::scope(|s| {
        for mine in partitions.drain(..) {
            let shared = Arc::clone(&shared);
            let streams = Arc::clone(&streams);
            let vm = comp.vm();
            s.spawn(move || {
                let mut mine = mine;
                loop {
                    let mut progressed = false;
                    let mut live = 0usize;
                    for d in &mut mine {
                        if d.done {
                            continue;
                        }
                        live += 1;
                        progressed |= step_work_rank(d, &shared, vm, &streams[d.rank]);
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

        // Driver: fire the migrations across the middle of the soak
        // window while the pool keeps the traffic flowing.
        for (k, &victim) in victims.iter().enumerate() {
            let frac = if victims.len() == 1 {
                0.4
            } else {
                0.25 + 0.45 * k as f64 / (victims.len() - 1) as f64
            };
            let target_ns = (horizon as f64 * frac) as u64;
            while shared.now_ns() < target_ns {
                std::thread::sleep(Duration::from_micros(500));
            }
            shared.phase.store(DURING as u8, Ordering::Relaxed);
            let t_pause = Instant::now();
            // A scheduler-side abort under load is a legitimate outcome:
            // retry once, then report instead of panicking.
            let aborted = match comp.migrate(victim, spares[k]) {
                Ok(_) => false,
                Err(_) => comp.migrate(victim, spares[k]).is_err(),
            };
            pause_ms += t_pause.elapsed().as_secs_f64() * 1_000.0;
            shared.phase.store(POST as u8, Ordering::Relaxed);
            migration_aborted |= aborted;
        }
    });
    comp.join_init_processes();
    let wall_s = t0.elapsed().as_secs_f64();

    let delivered = shared.delivered.load(Ordering::Relaxed);
    assert_eq!(
        delivered, offered,
        "open-loop soak must deliver the whole offered load (§4 zero loss)"
    );
    let hists = shared.hists.lock().unwrap();
    let (pause_trace_ms, audit_clean, audit_skipped) = if cfg.trace {
        let events = tracer.snapshot();
        let windows = PhaseWindows::from_events(&events);
        let pause = if windows.is_empty() {
            None
        } else {
            Some(windows.during_ns() as f64 / 1_000_000.0)
        };
        let report = audit::audit(&events);
        (pause, Some(report.is_clean()), None)
    } else {
        let reason = "trace disabled for this soak: per-event tracing at this \
                      message count would distort the measurement";
        eprintln!(
            "workload: open_loop_soak ranks={n} transport={}: §4 audit skipped ({reason})",
            cfg.transport.as_str()
        );
        (None, None, Some(reason))
    };

    // Digest: the canonical config plus every (receiver, sender) lane's
    // delivery hash, in sorted order. Stable across transports, worker
    // counts and migration timing — the open-loop replay is
    // deterministic per seed.
    let mut h = fnv1a(cfg.canonical().as_bytes());
    for ((recv, from), lane) in shared.lanes.lock().unwrap().iter() {
        h = fnv1a_with_seed(h, &(*recv as u64).to_le_bytes());
        h = fnv1a_with_seed(h, &(*from as u64).to_le_bytes());
        h = fnv1a_with_seed(h, &lane.to_le_bytes());
    }

    WorkloadRecord {
        scenario: "open_loop_soak",
        transport: cfg.transport.as_str(),
        ranks: n,
        seed: cfg.gen.seed,
        rate_hz: cfg.gen.rate_hz,
        duration_ms: cfg.duration_ms,
        migrations: cfg.migrations,
        msgs: delivered,
        bytes_moved: shared.payload_bytes.load(Ordering::Relaxed)
            + delivered * ENVELOPE_OVERHEAD_BYTES as u64,
        wall_s,
        msgs_per_sec: delivered as f64 / wall_s,
        pre: PhaseStats::from_hist(&hists[PRE]),
        during: PhaseStats::from_hist(&hists[DURING]),
        post: PhaseStats::from_hist(&hists[POST]),
        pause_ms,
        pause_trace_ms,
        digest: format!("{h:016x}"),
        audit_clean,
        audit_skipped,
        migration_aborted,
    }
}

// ---------------------------------------------------------------------
// §7 ablation under the same load
// ---------------------------------------------------------------------

/// Parameters of the §7 ablation: the same generated schedules drive
/// SNOW and the three comparator mini-systems.
#[derive(Debug, Clone, Copy)]
pub struct AblationConfig {
    /// Generator seed (shared across all four strategies).
    pub seed: u64,
    /// Participant count.
    pub procs: usize,
    /// Load window, milliseconds.
    pub span_ms: u64,
    /// Aggregate offered rate, messages/second.
    pub rate_hz: f64,
    /// Modeled per-process state size, bytes.
    pub state_bytes: u64,
    /// When the migration fires, as a fraction of the span.
    pub migrate_frac: f64,
    /// Modeled state-transfer stall, milliseconds (forwarding,
    /// broadcast).
    pub transfer_ms: u64,
    /// Per-hop forwarder delay, microseconds.
    pub hop_delay_us: u64,
    /// Checkpoint-restart stall, milliseconds (cocheck).
    pub restart_ms: u64,
}

impl AblationConfig {
    /// The standard committed-baseline entry.
    pub fn standard(seed: u64) -> AblationConfig {
        AblationConfig {
            seed,
            procs: 8,
            span_ms: 400,
            rate_hz: 4_000.0,
            state_bytes: 64 * 1024,
            migrate_frac: 0.4,
            transfer_ms: 10,
            hop_delay_us: 100,
            restart_ms: 10,
        }
    }

    /// CI smoke variant: same shape, a third of the window.
    pub fn smoke(seed: u64) -> AblationConfig {
        AblationConfig {
            span_ms: 150,
            rate_hz: 3_000.0,
            ..Self::standard(seed)
        }
    }
}

/// One row of the quantified §7 table.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// `"snow"`, `"forwarding"`, `"broadcast"` or `"cocheck"`.
    pub strategy: &'static str,
    /// Participants in the scenario.
    pub participants: usize,
    /// Application messages delivered.
    pub msgs: u64,
    /// Control messages spent on the migration.
    pub coordination_msgs: u64,
    /// Processes interrupted.
    pub processes_disturbed: u64,
    /// Mean extra hops on post-migration traffic.
    pub residual_hops: f64,
    /// Application messages delayed/buffered by the migration.
    pub blocked_msgs: u64,
    /// Does correctness still depend on the source host afterwards?
    pub residual_dependency: bool,
    /// Bytes of process state moved.
    pub state_bytes_moved: u64,
    /// Steady-state median before the migration, µs.
    pub pre_p50_us: Option<f64>,
    /// Tail inside the migration window, µs.
    pub during_p99_us: Option<f64>,
    /// Tail after the migration window, µs.
    pub post_p99_us: Option<f64>,
}

impl AblationRow {
    fn to_json(&self) -> JsonValue {
        let opt = |v: Option<f64>| v.map_or(JsonValue::Null, JsonValue::Num);
        JsonValue::Object(vec![
            ("strategy".into(), JsonValue::Str(self.strategy.into())),
            (
                "participants".into(),
                JsonValue::Num(self.participants as f64),
            ),
            ("msgs".into(), JsonValue::Num(self.msgs as f64)),
            (
                "coordination_msgs".into(),
                JsonValue::Num(self.coordination_msgs as f64),
            ),
            (
                "processes_disturbed".into(),
                JsonValue::Num(self.processes_disturbed as f64),
            ),
            ("residual_hops".into(), JsonValue::Num(self.residual_hops)),
            (
                "blocked_msgs".into(),
                JsonValue::Num(self.blocked_msgs as f64),
            ),
            (
                "residual_dependency".into(),
                JsonValue::Bool(self.residual_dependency),
            ),
            (
                "state_bytes_moved".into(),
                JsonValue::Num(self.state_bytes_moved as f64),
            ),
            ("pre_p50_us".into(), opt(self.pre_p50_us)),
            ("during_p99_us".into(), opt(self.during_p99_us)),
            ("post_p99_us".into(), opt(self.post_p99_us)),
        ])
    }
}

/// Every strategy name an ablation table must cover.
pub const ABLATION_STRATEGIES: [&str; 4] = ["snow", "forwarding", "broadcast", "cocheck"];

fn samples_row(
    strategy: &'static str,
    participants: usize,
    m: snow_baselines::Metrics,
    s: &LoadSamples,
) -> AblationRow {
    AblationRow {
        strategy,
        participants,
        msgs: s.total() as u64,
        coordination_msgs: m.coordination_msgs,
        processes_disturbed: m.processes_disturbed,
        residual_hops: m.post_migration_extra_hops,
        blocked_msgs: m.blocked_messages,
        residual_dependency: m.residual_dependency,
        state_bytes_moved: m.state_bytes_moved,
        pre_p50_us: LoadSamples::quantile_us(&s.pre, 0.5),
        during_p99_us: LoadSamples::quantile_us(&s.during, 0.99),
        post_p99_us: LoadSamples::quantile_us(&s.post, 0.99),
    }
}

/// Run the same seeded offered load through SNOW and the three §7
/// comparator mini-systems. The SNOW row is *measured* (a real
/// [`run_workload`] soak with one migration) with its coordination
/// costs from the §3 analytic model; the baseline rows are measured on
/// the `snow-baselines` mini-systems fed the identical schedules.
pub fn run_ablation(cfg: &AblationConfig) -> Vec<AblationRow> {
    let n = cfg.procs;
    let gen = GenConfig {
        seed: cfg.seed,
        ranks: n,
        rate_hz: cfg.rate_hz,
        pareto_alpha: 1.3,
        min_bytes: 32,
        max_bytes: 4096,
        zipf_theta: 0.8,
    };
    let horizon = cfg.span_ms * 1_000_000;
    let streams = generate_streams(&gen, horizon);
    let schedules: Vec<Vec<Offered>> = streams
        .iter()
        .map(|s| {
            s.iter()
                .map(|a| Offered {
                    at_ns: a.at_ns,
                    bytes: a.bytes,
                })
                .collect()
        })
        .collect();
    let migrate_at = (horizon as f64 * cfg.migrate_frac) as u64;
    let transfer = Duration::from_millis(cfg.transfer_ms);

    // SNOW, measured: the same generator drives a real soak with one
    // mid-stream migration of the hottest rank.
    let soak = SoakConfig {
        gen,
        duration_ms: cfg.span_ms,
        hosts: 4.min(n),
        workers: 4,
        migrations: 1,
        trace: true,
        transport: TransportKind::InProc,
        time_scale: TimeScale::ZERO,
    };
    let rec = run_workload(&soak);
    // §3: SNOW coordinates only the migrant's directly connected peers —
    // under Zipf fan-in the hot migrant hears from everyone, so charge
    // the worst case.
    let snow_m = snow_reference_metrics(n as u64 - 1, cfg.state_bytes);
    let some = |c: u64, v: f64| if c > 0 { Some(v) } else { None };
    let mut rows = vec![AblationRow {
        strategy: "snow",
        participants: n,
        msgs: rec.msgs,
        coordination_msgs: snow_m.coordination_msgs,
        processes_disturbed: snow_m.processes_disturbed,
        residual_hops: snow_m.post_migration_extra_hops,
        blocked_msgs: snow_m.blocked_messages,
        residual_dependency: snow_m.residual_dependency,
        state_bytes_moved: snow_m.state_bytes_moved,
        pre_p50_us: some(rec.pre.count, rec.pre.p50_us),
        during_p99_us: some(rec.during.count, rec.during.p99_us),
        post_p99_us: some(rec.post.count, rec.post.p99_us),
    }];

    // Forwarding: the whole fan-in converges on one endpoint through a
    // growing relay chain.
    let mut merged: Vec<Offered> = schedules.iter().flatten().copied().collect();
    merged.sort_unstable_by_key(|o| o.at_ns);
    let (m, s) = run_forwarding_load(
        &merged,
        migrate_at,
        transfer,
        Duration::from_micros(cfg.hop_delay_us),
        cfg.state_bytes,
    );
    rows.push(samples_row("forwarding", n, m, &s));

    let (m, s) = run_broadcast_load(&schedules, migrate_at, transfer, cfg.state_bytes);
    rows.push(samples_row("broadcast", n, m, &s));

    let (m, s) = run_cocheck_load(
        &schedules,
        migrate_at,
        Duration::from_millis(cfg.restart_ms),
        cfg.state_bytes,
    );
    rows.push(samples_row("cocheck", n, m, &s));
    rows
}

// ---------------------------------------------------------------------
// document emit / validate / gate
// ---------------------------------------------------------------------

impl WorkloadRecord {
    /// This record as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("scenario".into(), JsonValue::Str(self.scenario.into())),
            ("transport".into(), JsonValue::Str(self.transport.into())),
            ("ranks".into(), JsonValue::Num(self.ranks as f64)),
            ("seed".into(), JsonValue::Num(self.seed as f64)),
            ("rate_hz".into(), JsonValue::Num(self.rate_hz)),
            (
                "duration_ms".into(),
                JsonValue::Num(self.duration_ms as f64),
            ),
            ("migrations".into(), JsonValue::Num(self.migrations as f64)),
            ("msgs".into(), JsonValue::Num(self.msgs as f64)),
            (
                "bytes_moved".into(),
                JsonValue::Num(self.bytes_moved as f64),
            ),
            ("wall_s".into(), JsonValue::Num(self.wall_s)),
            ("msgs_per_sec".into(), JsonValue::Num(self.msgs_per_sec)),
            (
                "phases".into(),
                JsonValue::Object(vec![
                    ("pre".into(), self.pre.to_json()),
                    ("during".into(), self.during.to_json()),
                    ("post".into(), self.post.to_json()),
                ]),
            ),
            ("pause_ms".into(), JsonValue::Num(self.pause_ms)),
            (
                "pause_trace_ms".into(),
                self.pause_trace_ms.map_or(JsonValue::Null, JsonValue::Num),
            ),
            ("digest".into(), JsonValue::Str(self.digest.clone())),
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
                JsonValue::Bool(self.migration_aborted),
            ),
        ])
    }
}

/// Wrap soak records and the ablation table into the full
/// `snow-bench-workload/v1` document.
pub fn emit_document(
    records: &[WorkloadRecord],
    ablation: &[AblationRow],
    smoke: bool,
) -> JsonValue {
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
            JsonValue::Array(records.iter().map(WorkloadRecord::to_json).collect()),
        ),
        (
            "ablation".into(),
            JsonValue::Array(ablation.iter().map(AblationRow::to_json).collect()),
        ),
    ])
}

/// Validate a parsed `BENCH_workload.json` against the
/// `snow-bench-workload/v1` schema: both transports present, every
/// record carrying phase-sliced quantiles with a non-empty
/// during-migration slice (when a migration fired), an explicit audit
/// disposition, a well-formed digest — and an ablation table covering
/// all four §7 strategies.
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
    let mut transports_seen = std::collections::BTreeSet::new();
    for (i, rec) in records.iter().enumerate() {
        let ctx = |field: &str| format!("record {i}: bad or missing {field}");
        let scenario = rec
            .get("scenario")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ctx("scenario"))?;
        if scenario != "open_loop_soak" {
            return Err(format!("record {i}: unknown scenario {scenario:?}"));
        }
        let transport = rec
            .get("transport")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ctx("transport"))?;
        transports_seen.insert(transport.to_string());
        let num = |field: &str| -> Result<f64, String> {
            rec.get(field)
                .and_then(JsonValue::as_f64)
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| ctx(field))
        };
        if num("ranks")? < 4.0 {
            return Err(ctx("ranks"));
        }
        if num("msgs")? < 1.0 {
            return Err(ctx("msgs"));
        }
        if num("msgs_per_sec")? <= 0.0 {
            return Err(ctx("msgs_per_sec"));
        }
        num("rate_hz")?;
        num("duration_ms")?;
        num("bytes_moved")?;
        num("wall_s")?;
        num("pause_ms")?;
        let migrations = num("migrations")?;
        let digest = rec
            .get("digest")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ctx("digest"))?;
        if digest.len() != 16 || !digest.chars().all(|c| c.is_ascii_hexdigit()) {
            return Err(format!(
                "record {i}: digest {digest:?} is not 16 hex digits"
            ));
        }
        let phases = rec.get("phases").ok_or_else(|| ctx("phases"))?;
        for name in ["pre", "during", "post"] {
            let ph = phases
                .get(name)
                .ok_or_else(|| format!("record {i}: missing phase {name:?}"))?;
            for field in ["count", "p50_us", "p99_us", "p999_us"] {
                ph.get(field)
                    .and_then(JsonValue::as_f64)
                    .filter(|v| v.is_finite() && *v >= 0.0)
                    .ok_or_else(|| format!("record {i}: phase {name}: bad {field}"))?;
            }
        }
        if migrations >= 1.0 {
            let during = phases
                .get("during")
                .and_then(|p| p.get("count"))
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0);
            if during < 1.0 {
                return Err(format!(
                    "record {i}: a migration fired but the during-migration \
                     histogram is empty"
                ));
            }
        }
        // §4 audit status must be explicit, exactly one way.
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
                "record {i}: needs exactly one of audit_clean / audit_skipped"
            ));
        }
    }
    for t in ["inproc", "tcp"] {
        if !transports_seen.contains(t) {
            return Err(format!("no record on transport {t:?}"));
        }
    }
    let ablation = doc
        .get("ablation")
        .and_then(JsonValue::as_array)
        .ok_or("missing ablation array")?;
    for want in ABLATION_STRATEGIES {
        let row = ablation
            .iter()
            .find(|r| r.get("strategy").and_then(JsonValue::as_str) == Some(want))
            .ok_or_else(|| format!("ablation missing strategy {want:?}"))?;
        for field in [
            "participants",
            "msgs",
            "coordination_msgs",
            "processes_disturbed",
            "residual_hops",
            "blocked_msgs",
            "state_bytes_moved",
        ] {
            row.get(field)
                .and_then(JsonValue::as_f64)
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| format!("ablation {want}: bad {field}"))?;
        }
        row.get("residual_dependency")
            .and_then(JsonValue::as_bool)
            .ok_or_else(|| format!("ablation {want}: bad residual_dependency"))?;
    }
    Ok(())
}

/// Gate a fresh `BENCH_workload.json` against the committed baseline:
/// for every `(transport, ranks)` pair in both documents, throughput
/// must not collapse and the **pre/post** p50 latencies must not
/// balloon. The during-migration slice is deliberately not gated — its
/// magnitude is the quantity under study and swings with machine load;
/// regressions there surface through pause_ms and the p99 columns of
/// the committed table instead. Audit violations and aborted
/// migrations always gate.
pub fn gate_document(
    current: &JsonValue,
    baseline: &JsonValue,
    tol: crate::scale::GateTolerances,
) -> Result<(), Vec<String>> {
    let records = |doc: &JsonValue| -> Vec<JsonValue> {
        doc.get("records")
            .and_then(JsonValue::as_array)
            .map(|a| a.to_vec())
            .unwrap_or_default()
    };
    let key = |rec: &JsonValue| -> Option<(String, u64)> {
        Some((
            rec.get("transport")?.as_str()?.to_string(),
            rec.get("ranks")?.as_f64()? as u64,
        ))
    };
    let base_recs = records(baseline);
    let mut compared = 0usize;
    let mut violations = Vec::new();
    for cur in &records(current) {
        let Some(k) = key(cur) else { continue };
        let Some(base) = base_recs.iter().find(|b| key(b).as_ref() == Some(&k)) else {
            continue;
        };
        compared += 1;
        let tag = format!("open_loop_soak/{}@{}", k.0, k.1);
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
        for phase in ["pre", "post"] {
            let p50 = |rec: &JsonValue| {
                rec.get("phases")?
                    .get(phase)?
                    .get("p50_us")
                    .and_then(JsonValue::as_f64)
            };
            if let (Some(c), Some(b)) = (p50(cur), p50(base)) {
                let ceil = (b * tol.max_latency_ratio).max(GATE_LATENCY_FLOOR_US);
                if c > ceil {
                    violations.push(format!(
                        "{tag}: {phase} p50 {c:.1} µs above gate {ceil:.1} \
                         (baseline {b:.1} × {:.2})",
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
        violations.push("no (transport, ranks) pair is common to both documents".into());
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_gen() -> GenConfig {
        GenConfig {
            seed: 7,
            ranks: 16,
            rate_hz: 64_000.0,
            pareto_alpha: 1.3,
            min_bytes: 32,
            max_bytes: 1 << 20,
            zipf_theta: 0.9,
        }
    }

    #[test]
    fn same_seed_same_streams_under_any_interleaving() {
        let cfg = small_gen();
        let horizon = 200_000_000;
        let sequential = generate_streams(&cfg, horizon);
        // Regenerate each source on its own thread, joined in reverse:
        // a different interleaving must produce bit-identical streams.
        let threaded: Vec<Vec<Arrival>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..cfg.ranks)
                .map(|src| {
                    s.spawn(move || {
                        let zipf = ZipfTable::new(cfg.ranks, cfg.zipf_theta);
                        let perm = cfg.popularity_perm();
                        ArrivalStream::new(&cfg, &zipf, &perm, src)
                            .take_while(|a| a.at_ns < horizon)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(sequential, threaded);
        // And a different seed must not.
        let other = generate_streams(&GenConfig { seed: 8, ..cfg }, horizon);
        assert_ne!(sequential, other);
    }

    #[test]
    fn pareto_tail_index_matches_alpha() {
        // MLE for the (effectively unbounded, max >> min) Pareto:
        // alpha_hat = n / Σ ln(x/L). Pinned seed, generous tolerance.
        let cfg = small_gen();
        let zipf = ZipfTable::new(cfg.ranks, cfg.zipf_theta);
        let perm = cfg.popularity_perm();
        let mut n = 0u64;
        let mut log_sum = 0.0f64;
        for src in 0..cfg.ranks {
            for a in ArrivalStream::new(&cfg, &zipf, &perm, src).take(2_000) {
                n += 1;
                log_sum += (a.bytes as f64 / cfg.min_bytes as f64).ln();
            }
        }
        let alpha_hat = n as f64 / log_sum;
        assert!(
            (alpha_hat - cfg.pareto_alpha).abs() < 0.1,
            "alpha_hat = {alpha_hat}, want ≈ {}",
            cfg.pareto_alpha
        );
    }

    #[test]
    fn zipf_skew_concentrates_on_the_hot_rank() {
        let cfg = small_gen();
        let zipf = ZipfTable::new(cfg.ranks, cfg.zipf_theta);
        let perm = cfg.popularity_perm();
        let hot = perm[0];
        let mut counts = vec![0u64; cfg.ranks];
        let mut total = 0u64;
        for src in 0..cfg.ranks {
            for a in ArrivalStream::new(&cfg, &zipf, &perm, src).take(3_000) {
                counts[a.dest] += 1;
                total += 1;
            }
        }
        let uniform_share = total as f64 / cfg.ranks as f64;
        assert!(
            counts[hot] as f64 > 3.0 * uniform_share,
            "hot rank {hot} got {} of {total}, uniform share {uniform_share}",
            counts[hot]
        );
        let max = counts.iter().copied().max().unwrap();
        assert_eq!(
            counts[hot], max,
            "the permutation head must be the most popular destination"
        );
        assert!(counts[hot] < total, "skewed, not degenerate");
    }

    #[test]
    fn arrival_rate_matches_config() {
        let cfg = GenConfig {
            ranks: 4,
            rate_hz: 50_000.0,
            ..small_gen()
        };
        let horizon = 2_000_000_000; // 2 s
        let total: usize = generate_streams(&cfg, horizon).iter().map(Vec::len).sum();
        let want = cfg.rate_hz * 2.0;
        assert!(
            (total as f64 - want).abs() < want * 0.1,
            "generated {total} arrivals, want ≈ {want}"
        );
    }

    #[test]
    fn destinations_never_self_and_sizes_bounded() {
        let cfg = small_gen();
        for (src, stream) in generate_streams(&cfg, 50_000_000).iter().enumerate() {
            for a in stream {
                assert_ne!(a.dest, src, "self-sends are remapped");
                assert!(a.dest < cfg.ranks);
                assert!(a.bytes >= cfg.min_bytes && a.bytes <= cfg.max_bytes);
            }
        }
    }

    #[test]
    fn small_soak_without_migration_is_deterministic() {
        let cfg = SoakConfig {
            gen: GenConfig {
                seed: 11,
                ranks: 8,
                rate_hz: 4_000.0,
                pareto_alpha: 1.3,
                min_bytes: 32,
                max_bytes: 1024,
                zipf_theta: 0.8,
            },
            duration_ms: 250,
            hosts: 4,
            workers: 3,
            migrations: 0,
            trace: false,
            transport: TransportKind::InProc,
            time_scale: TimeScale::ZERO,
        };
        let a = run_workload(&cfg);
        let b = run_workload(&cfg);
        assert_eq!(a.digest, b.digest, "same seed ⇒ same delivered lanes");
        assert!(a.msgs > 0);
        assert_eq!(a.msgs, b.msgs);
        // No migration: the live classifier never leaves the pre phase.
        assert_eq!(a.pre.count, a.msgs);
        assert_eq!(a.during.count, 0);
        assert_eq!(a.post.count, 0);
        assert_eq!(a.pause_ms, 0.0);
        assert!(!a.migration_aborted);
    }

    fn sample_record(transport: &'static str) -> WorkloadRecord {
        WorkloadRecord {
            scenario: "open_loop_soak",
            transport,
            ranks: 256,
            seed: 42,
            rate_hz: 40_000.0,
            duration_ms: 8_000,
            migrations: 1,
            msgs: 320_000,
            bytes_moved: 40_000_000,
            wall_s: 8.2,
            msgs_per_sec: 39_000.0,
            pre: PhaseStats {
                count: 100_000,
                p50_us: 20.0,
                p99_us: 90.0,
                p999_us: 200.0,
            },
            during: PhaseStats {
                count: 500,
                p50_us: 400.0,
                p99_us: 3_000.0,
                p999_us: 6_000.0,
            },
            post: PhaseStats {
                count: 219_500,
                p50_us: 22.0,
                p99_us: 95.0,
                p999_us: 220.0,
            },
            pause_ms: 4.2,
            pause_trace_ms: None,
            digest: "0123456789abcdef".into(),
            audit_clean: None,
            audit_skipped: Some("trace disabled"),
            migration_aborted: false,
        }
    }

    fn sample_ablation() -> Vec<AblationRow> {
        ABLATION_STRATEGIES
            .iter()
            .map(|&s| AblationRow {
                strategy: match s {
                    "snow" => "snow",
                    "forwarding" => "forwarding",
                    "broadcast" => "broadcast",
                    _ => "cocheck",
                },
                participants: 8,
                msgs: 1_600,
                coordination_msgs: 26,
                processes_disturbed: 8,
                residual_hops: 0.0,
                blocked_msgs: 0,
                residual_dependency: s == "forwarding",
                state_bytes_moved: 65_536,
                pre_p50_us: Some(15.0),
                during_p99_us: Some(900.0),
                post_p99_us: Some(120.0),
            })
            .collect()
    }

    #[test]
    fn document_roundtrip_validates_and_catches_violations() {
        let records = [sample_record("inproc"), sample_record("tcp")];
        let ablation = sample_ablation();
        let doc = emit_document(&records, &ablation, true);
        let parsed = JsonValue::parse(&doc.to_string()).unwrap();
        validate_document(&parsed).unwrap();

        // Missing a transport.
        let one = emit_document(&records[..1], &ablation, true);
        assert!(validate_document(&one).is_err());

        // Empty during slice with a migration fired.
        let mut broken = sample_record("tcp");
        broken.during = PhaseStats::default();
        let doc = emit_document(&[sample_record("inproc"), broken], &ablation, true);
        assert!(validate_document(&doc).unwrap_err().contains("during"));

        // Ablation missing a strategy.
        let doc = emit_document(&records, &ablation[..3], true);
        assert!(validate_document(&doc).unwrap_err().contains("cocheck"));

        // Both audit fields set.
        let mut broken = sample_record("tcp");
        broken.audit_clean = Some(true);
        let doc = emit_document(&[sample_record("inproc"), broken], &ablation, true);
        assert!(validate_document(&doc).unwrap_err().contains("audit"));
    }

    #[test]
    fn gate_flags_collapse_and_passes_noise() {
        let records = [sample_record("inproc"), sample_record("tcp")];
        let base = emit_document(&records, &sample_ablation(), false);

        let mut slow = sample_record("inproc");
        slow.msgs_per_sec = 1_000.0; // < 0.2 × baseline
        slow.post.p50_us = 1_000.0; // > 5 × baseline (and > floor)
        let cur = emit_document(&[slow, sample_record("tcp")], &sample_ablation(), false);
        let violations = gate_document(&cur, &base, Default::default()).unwrap_err();
        assert!(violations.iter().any(|v| v.contains("throughput")));
        assert!(violations.iter().any(|v| v.contains("post p50")));

        // Single-digit-µs noise below the floor never gates; the
        // during slice is never gated at all.
        let mut noisy = sample_record("inproc");
        noisy.pre.p50_us = 45.0; // > 5 × 20 but under the 50 µs floor
        noisy.during.p99_us = 500_000.0;
        let cur = emit_document(&[noisy, sample_record("tcp")], &sample_ablation(), false);
        gate_document(&cur, &base, Default::default()).unwrap();

        // Aborted migration always gates.
        let mut aborted = sample_record("tcp");
        aborted.migration_aborted = true;
        let cur = emit_document(
            &[sample_record("inproc"), aborted],
            &sample_ablation(),
            false,
        );
        assert!(gate_document(&cur, &base, Default::default()).is_err());
    }

    #[test]
    fn zipf_table_slots_are_monotone() {
        let z = ZipfTable::new(8, 1.0);
        assert_eq!(z.sample(0.0), 0, "the hot slot owns the low quantiles");
        assert_eq!(z.sample(0.999_999), 7);
        let mut last = 0;
        for i in 0..100 {
            let s = z.sample(i as f64 / 100.0);
            assert!(s >= last, "CDF sampling must be monotone");
            last = s;
        }
    }
}
