//! The open-loop migration soak (`migrate_soak`).
//!
//! 32 ranks on two TCP hosts plus a spare. Every rank but the hot one
//! sends on a seeded Poisson schedule with bounded-Pareto sizes and
//! Zipf-skewed destinations, the hot rank being the most popular, so it
//! is connected to every rank. The hot rank carries the paper's migrant
//! state (an `MgCheckpoint` slab padded to 7.5 MB, plus its lane table)
//! and is moved between its home host and the spare on a fixed
//! schedule. It runs on a thread of its own, because `migrate` blocks
//! its caller; the other ranks share the pool.
//!
//! A migration window opens at the order and closes when the last peer's
//! first post-commit send to the migrant is accepted, so the reconnect
//! storm counts as migration cost.

use crate::env::{self, Failure, RANKS};
use crate::gen::{mix, schedule_digest, Arrival, SoakGen};
use crate::lanes::{self, LaneChecker, Stamp};
use crate::osacct::{Sampler, Usage};
use crate::rec::{since, span_id, Rec};
use crate::report::{add_layers, median, Report};
use crate::stats::{self_time, Hist, Samples, Span};
use snow_codec::Value;
use snow_core::{MigrationOutcome, PipelineConfig, SnowProcess, Start};
use snow_mg::{MgCheckpoint, MgConfig, Slab};
use snow_sched::MigrationPhase;
use snow_state::{stream_chunks, ChunkedRestorer, ExecState, ProcessState};
use snow_vm::{HostId, VirtualMachine};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The migrant.
const HOT: usize = 0;
/// Aggregate offered rate, about a tenth of `stream_tcp`'s throughput.
const RATE_HZ: f64 = 28_000.0;
const MIN_BYTES: usize = 32;
const MAX_BYTES: usize = 4096;
const PARETO_ALPHA: f64 = 1.2;
const ZIPF_S: f64 = 1.0;
/// The paper's migrant state: "over 7.5 Mbytes of execution and memory
/// state" (§6.2).
const STATE_BYTES: usize = 7_500_000;
/// One migration order per period, alternating spare and home.
const MIGRATION_PERIOD: Duration = Duration::from_millis(250);
/// Longest nap of an idle open-loop thread: deliveries wait at most
/// this long to be noticed.
const IDLE_NAP: Duration = Duration::from_micros(100);
const RECV_BURST: usize = 256;
const DRAIN_LIMIT: Duration = Duration::from_secs(30);
const WARMUP_LIMIT: Duration = Duration::from_secs(60);
/// The exec-state local carrying the migrant's expected-seq table.
const LANES_LOCAL: &str = "bench_lanes";

const WARM: u8 = 0;
const RUN: u8 = 1;

/// The current migration, published by the controller before it orders.
#[derive(Clone, Copy, Default)]
struct Order {
    index: usize,
    root_span: u64,
    order_ns: u64,
}

/// What the migrant saw of one migration.
#[derive(Clone, Copy, Default)]
struct MigrantSide {
    poll_ns: u64,
    call_start_ns: u64,
    call_end_ns: u64,
    entry_ns: u64,
    coordinate_s: f64,
    rml_forwarded: usize,
    completed: bool,
}

struct Shared {
    epoch: Instant,
    schedule: Vec<Vec<Arrival>>,
    /// Messages each rank must receive, warm-ups included.
    expected: Vec<u64>,
    lanes_total: usize,
    traced: bool,
    /// Whether this set-up runs the schedule; a set-up that is only
    /// timed ends after its warm-up.
    measure: bool,
    phase: AtomicU8,
    start_ns: AtomicU64,
    warm: AtomicUsize,
    migrations_over: AtomicBool,
    done_ranks: AtomicUsize,
    failure: Failure,
    order: Mutex<Order>,
    migrant: Mutex<Vec<MigrantSide>>,
    /// The exec state sent with the latest migration.
    sent_exec: Mutex<Option<ExecState>>,
    reference: Arc<ProcessState>,
    /// Records of threads that have ended.
    recs: Mutex<Vec<Rec>>,
}

impl Shared {
    /// The arrivals `src` sends after the warm-up.
    fn arrivals(&self, src: usize) -> &[Arrival] {
        if self.measure {
            &self.schedule[src]
        } else {
            &[]
        }
    }

    fn run_ns(&self) -> Option<u64> {
        (self.phase.load(Ordering::Acquire) == RUN).then(|| self.start_ns.load(Ordering::Acquire))
    }
}

/// A sending rank on the pool.
struct Drive {
    p: Option<SnowProcess>,
    me: usize,
    next: usize,
    /// Next sequence number per destination lane.
    lane_seq: Vec<u32>,
    /// Destinations not yet warmed up.
    warm_todo: Vec<usize>,
    checker: LaneChecker,
    received: u64,
}

/// The soak's migrant state: an MG checkpoint of the default grid,
/// filled from the seed and padded to 7.5 MB, as the Table 1 harness
/// builds it.
fn migrant_state(seed: u64) -> ProcessState {
    let cfg = MgConfig::default();
    let mut u = Slab::zeros(cfg.nz(), cfg.n);
    for (i, v) in u.as_mut_slice().iter_mut().enumerate() {
        *v = (mix(seed, 0x51ab, i as u64, 0) >> 11) as f64 / (1u64 << 53) as f64;
    }
    let cp = MgCheckpoint {
        u,
        iteration: 2,
        residuals: vec![1.0, 0.5],
    };
    let mut state = cp.to_state();
    set_lanes(&mut state.exec, &LaneChecker::new(HOT, RANKS));
    state.pad_to(STATE_BYTES);
    state
}

fn set_lanes(exec: &mut ExecState, checker: &LaneChecker) {
    let table = Value::I64Array(checker.table().iter().map(|&s| s as i64).collect());
    match exec.locals.iter_mut().find(|(n, _)| n == LANES_LOCAL) {
        Some((_, v)) => *v = table,
        None => exec.locals.push((LANES_LOCAL.to_string(), table)),
    }
}

fn lanes_of(exec: &ExecState) -> Result<LaneChecker, String> {
    match exec.local(LANES_LOCAL) {
        Some(Value::I64Array(t)) => Ok(LaneChecker::from_table(
            HOT,
            t.iter().map(|&s| s as u32).collect(),
        )),
        _ => Err("restored state lost the lane table".to_string()),
    }
}

/// Take every delivery waiting for `p`, checking its lane.
fn receive(
    p: &mut SnowProcess,
    checker: &mut LaneChecker,
    received: &mut u64,
    sh: &Shared,
    rec: &mut Rec,
) -> Result<bool, String> {
    let me = p.rank();
    let mut progressed = false;
    for _ in 0..RECV_BURST {
        let Some(m) = rec
            .try_recv(p)
            .map_err(|e| format!("rank {me}: try_recv failed: {e}"))?
        else {
            break;
        };
        let s = checker.accept(m.src, &m.body).map_err(|v| v.to_string())?;
        *received += 1;
        progressed = true;
        if s.seq == 0 {
            sh.warm.fetch_add(1, Ordering::Relaxed);
        } else {
            rec.svc_pairs
                .push((s.sched_ns, m.end_ns.saturating_sub(s.sched_ns)));
            rec.delivered(&m, &s);
        }
    }
    Ok(progressed)
}

/// One visit of a sending rank. Returns whether it progressed.
fn step(d: &mut Drive, sh: &Shared, rec: &mut Rec, vm: &VirtualMachine) -> Result<bool, String> {
    let Some(p) = d.p.as_mut() else {
        return Ok(false);
    };
    let me = d.me;
    rec.sample_queues(p);
    let mut progressed = receive(p, &mut d.checker, &mut d.received, sh, rec)?;
    match sh.run_ns() {
        None => {
            // Every lane's first send opens its connection; the ones
            // still connecting are retried on the next visit.
            let mut todo = std::mem::take(&mut d.warm_todo);
            for &dest in &todo {
                let stamp = Stamp {
                    src: me,
                    dst: dest,
                    seq: 0,
                    sched_ns: 0,
                    sent_ns: 0,
                };
                let body = lanes::encode(&stamp, MIN_BYTES);
                if rec
                    .try_send(p, dest, &body, 0)
                    .map_err(|e| format!("rank {me}: warm-up send to {dest} failed: {e}"))?
                {
                    d.lane_seq[dest] = 1;
                    progressed = true;
                }
            }
            todo.retain(|&dest| d.lane_seq[dest] == 0);
            d.warm_todo = todo;
        }
        Some(start) => {
            let arrivals = sh.arrivals(me);
            while let Some(a) = arrivals.get(d.next) {
                let due = start + a.at_ns;
                let now = rec.now();
                if due > now {
                    break;
                }
                let seq = d.lane_seq[a.dest];
                let stamp = Stamp {
                    src: me,
                    dst: a.dest,
                    seq,
                    sched_ns: due,
                    sent_ns: now,
                };
                let body = lanes::encode(&stamp, a.bytes);
                if !rec
                    .try_send(p, a.dest, &body, seq)
                    .map_err(|e| format!("rank {me}: try_send to {} failed: {e}", a.dest))?
                {
                    break;
                }
                let accepted = rec.now();
                if a.dest == HOT {
                    rec.hot_accepts.push((me, accepted));
                }
                if rec.traced {
                    rec.lag.record(accepted - due);
                }
                d.lane_seq[a.dest] += 1;
                d.next += 1;
                progressed = true;
            }
        }
    }
    // The poll point services disconnection signals (Fig 6).
    rec.poll_point(p)
        .map_err(|e| format!("rank {me}: poll point failed: {e}"))?;
    if d.next == sh.arrivals(me).len()
        && d.received == sh.expected[me]
        && sh.run_ns().is_some()
        && sh.migrations_over.load(Ordering::Acquire)
    {
        let p = d.p.take().expect("checked above");
        let vmid = p.vmid();
        p.finish();
        vm.retire(vmid);
        sh.done_ranks.fetch_add(1, Ordering::SeqCst);
        progressed = true;
    }
    Ok(progressed)
}

fn worker(mut mine: Vec<Drive>, sh: &Shared, vm: &VirtualMachine) {
    let mut rec = Rec::new(sh.traced, sh.epoch);
    while !sh.failure.is_set() && mine.iter().any(|d| d.p.is_some()) {
        let mut progressed = false;
        for d in mine.iter_mut() {
            match step(d, sh, &mut rec, vm) {
                Ok(p) => progressed |= p,
                Err(e) => sh.failure.set(e),
            }
        }
        rec.sweeps += 1;
        if !progressed {
            rec.idle_sweeps += 1;
            // Sleep until the next arrival is due, but no longer than
            // the nap that bounds how late a delivery is noticed.
            let now = rec.now();
            let nap = sh
                .run_ns()
                .and_then(|start| {
                    mine.iter()
                        .filter(|d| d.p.is_some())
                        .filter_map(|d| sh.arrivals(d.me).get(d.next))
                        .map(|a| (start + a.at_ns).saturating_sub(now))
                        .min()
                })
                .map_or(IDLE_NAP, |ns| IDLE_NAP.min(Duration::from_nanos(ns)));
            std::thread::sleep(nap);
        }
    }
    sh.recs.lock().expect("recs poisoned").push(rec);
}

/// The migrant's loop, for every incarnation: receive, check, and at the
/// poll point migrate. `coop` marks the first, cooperatively launched
/// incarnation, which owns its retirement.
fn hot_loop(
    mut p: SnowProcess,
    mut state: ProcessState,
    mut checker: LaneChecker,
    mut check: Option<JoinHandle<(ProcessState, bool)>>,
    coop: bool,
    sh: &Shared,
    vm: &VirtualMachine,
) -> Result<(), String> {
    let mut rec = Rec::new(sh.traced, sh.epoch);
    let mut received: u64 = checker.table().iter().map(|&s| s as u64).sum();
    let result = loop {
        if sh.failure.is_set() {
            break Ok(());
        }
        rec.sample_queues(&p);
        let got = receive(&mut p, &mut checker, &mut received, sh, &mut rec)?;
        let asked = rec
            .poll_point(&mut p)
            .map_err(|e| format!("hot rank: poll point failed: {e}"))?;
        if asked {
            let poll_ns = rec.now();
            let order = *sh.order.lock().expect("order poisoned");
            if let Some(h) = check.take() {
                let (st, ok) = h.join().expect("state check thread panicked");
                if !ok {
                    break Err(format!(
                        "state restored after migration {} differs from the state sent",
                        order.index.saturating_sub(1)
                    ));
                }
                state = st;
            }
            set_lanes(&mut state.exec, &checker);
            *sh.sent_exec.lock().expect("sent_exec poisoned") = Some(state.exec.clone());
            let old_vmid = p.vmid();
            let call_start_ns = rec.now();
            let outcome = p
                .migrate(&state)
                .map_err(|e| format!("hot rank: migrate failed: {e}"))?;
            let call_end_ns = rec.now();
            let mut side = MigrantSide {
                poll_ns,
                call_start_ns,
                call_end_ns,
                ..MigrantSide::default()
            };
            if rec.traced {
                rec.span(
                    "core.migrate.poll_wait",
                    order.index as u64,
                    order.root_span,
                    order.order_ns,
                    poll_ns,
                );
                rec.span(
                    "core.process.migrate",
                    order.index as u64,
                    order.root_span,
                    call_start_ns,
                    call_end_ns,
                );
            }
            match outcome {
                MigrationOutcome::Completed(t) => {
                    side.completed = true;
                    side.coordinate_s = t.coordinate_real_s;
                    side.rml_forwarded = t.rml_forwarded;
                    record_side(sh, order.index, side, false);
                    if coop {
                        vm.retire(old_vmid);
                    }
                    break Ok(());
                }
                MigrationOutcome::Aborted(a) => {
                    record_side(sh, order.index, side, false);
                    p = a.process;
                }
            }
            continue;
        }
        if received == sh.expected[HOT]
            && sh.run_ns().is_some()
            && sh.migrations_over.load(Ordering::Acquire)
        {
            if let Some(h) = check.take() {
                if !h.join().expect("state check thread panicked").1 {
                    break Err(
                        "state restored after the last migration differs from the state sent"
                            .into(),
                    );
                }
            }
            let vmid = p.vmid();
            p.finish();
            if coop {
                vm.retire(vmid);
            }
            sh.done_ranks.fetch_add(1, Ordering::SeqCst);
            break Ok(());
        }
        if !got {
            rec.idle_sweeps += 1;
            std::thread::sleep(IDLE_NAP);
        }
        rec.sweeps += 1;
    };
    sh.recs.lock().expect("recs poisoned").push(rec);
    result
}

fn record_side(sh: &Shared, index: usize, side: MigrantSide, entry: bool) {
    let mut v = sh.migrant.lock().expect("migrant poisoned");
    if v.len() <= index {
        v.resize(index + 1, MigrantSide::default());
    }
    if entry {
        v[index].entry_ns = side.entry_ns;
    } else {
        let entry_ns = v[index].entry_ns;
        v[index] = MigrantSide { entry_ns, ..side };
    }
}

/// The body of a resumed incarnation (the migration-enabled image).
fn resumed(p: SnowProcess, state: ProcessState, sh: &Arc<Shared>, vm: &VirtualMachine) {
    let entry_ns = since(sh.epoch);
    let order = *sh.order.lock().expect("order poisoned");
    record_side(
        sh,
        order.index,
        MigrantSide {
            entry_ns,
            ..MigrantSide::default()
        },
        true,
    );
    let outcome = (|| {
        let sent = sh.sent_exec.lock().expect("sent_exec poisoned").clone();
        if sent.as_ref() != Some(&state.exec) {
            return Err(format!(
                "exec state restored after migration {} differs from the one sent",
                order.index
            ));
        }
        let checker = lanes_of(&state.exec)?;
        // The memory image is compared off the migrant's thread, so the
        // check stays out of the service times; it is joined before the
        // next migration.
        let reference = Arc::clone(&sh.reference);
        let check = std::thread::Builder::new()
            .name("bench-check".into())
            .spawn(move || {
                let ok = state.memory == reference.memory;
                (state, ok)
            })
            .map_err(|e| format!("spawning the state check: {e}"))?;
        hot_loop(
            p,
            ProcessState::empty(),
            checker,
            Some(check),
            false,
            sh,
            vm,
        )
    })();
    if let Err(e) = outcome {
        sh.failure.set(e);
    }
}

/// One migration as the controller saw it.
#[derive(Clone, Copy)]
struct Ordered {
    order_ns: u64,
    done_ns: u64,
    ok: bool,
    root_span: u64,
}

/// What one measured run saw.
pub struct Measured {
    rec: Rec,
    start_ns: u64,
    usage: Usage,
    threads_max: usize,
    ordered: Vec<Ordered>,
    migrant: Vec<MigrantSide>,
    /// Scheduler phase stamps per migration: requested, started,
    /// restored, committed (ns after the epoch), and attempts.
    phases: Vec<([Option<u64>; 4], u32)>,
    offered: u64,
}

fn run_once(sh: Arc<Shared>, seconds: f64) -> Result<(f64, Option<Measured>), String> {
    let measure = sh.measure;
    let state = (*sh.reference).clone();
    let t_setup = Instant::now();
    let comp = Arc::new(env::build(true, env::APP_HOSTS + 1));
    let hosts = comp.hosts().to_vec();
    let (home, spare) = (hosts[HOT % env::APP_HOSTS], hosts[env::APP_HOSTS]);
    let placement: Vec<HostId> = (0..RANKS).map(|r| hosts[r % env::APP_HOSTS]).collect();
    let image_sh = Arc::clone(&sh);
    let image_comp = Arc::downgrade(&comp);
    let procs = comp.launch_cooperative(&placement, move |p, start| {
        let (Start::Resumed(state), Some(comp)) = (start, image_comp.upgrade()) else {
            return;
        };
        resumed(p, state, &image_sh, comp.vm());
    });
    let workers = env::load_threads(RANKS);
    let mut parts: Vec<Vec<Drive>> = (0..workers).map(|_| Vec::new()).collect();
    let mut hot = None;
    for p in procs {
        let me = p.rank();
        if me == HOT {
            hot = Some(p);
            continue;
        }
        let mut warm_todo: Vec<usize> = sh.schedule[me].iter().map(|a| a.dest).collect();
        warm_todo.sort_unstable();
        warm_todo.dedup();
        parts[me % workers].push(Drive {
            p: Some(p),
            me,
            next: 0,
            lane_seq: vec![0; RANKS],
            warm_todo,
            checker: LaneChecker::new(me, RANKS),
            received: 0,
        });
    }
    let hot = hot.expect("the hot rank was launched");
    let vm = comp.vm();
    let out = std::thread::scope(|s| {
        let sh = &sh;
        for (w, mine) in parts.into_iter().enumerate() {
            std::thread::Builder::new()
                .name(format!("bench-worker-{w}"))
                .spawn_scoped(s, move || worker(mine, sh, vm))
                .expect("spawn pool thread");
        }
        std::thread::Builder::new()
            .name("bench-hot".into())
            .spawn_scoped(s, move || {
                let checker = LaneChecker::new(HOT, RANKS);
                if let Err(e) = hot_loop(hot, state, checker, None, true, sh, vm) {
                    sh.failure.set(e);
                }
            })
            .expect("spawn hot rank thread");
        let deadline = Instant::now() + WARMUP_LIMIT;
        while sh.warm.load(Ordering::Relaxed) < sh.lanes_total && !sh.failure.is_set() {
            if Instant::now() > deadline {
                sh.failure.set(format!(
                    "warm-up stalled: {} of {} lanes delivered",
                    sh.warm.load(Ordering::Relaxed),
                    sh.lanes_total
                ));
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        let setup_s = t_setup.elapsed().as_secs_f64();
        let mut sampler = Sampler::start(sh.traced);
        let start_ns = since(sh.epoch);
        sh.start_ns.store(start_ns, Ordering::Release);
        sh.phase.store(RUN, Ordering::Release);
        let mut ordered = Vec::new();
        let migrations = if measure {
            (seconds / MIGRATION_PERIOD.as_secs_f64()).floor() as usize
        } else {
            0
        };
        for k in 0..migrations {
            let due = start_ns + ((k as f64 + 0.5) * MIGRATION_PERIOD.as_nanos() as f64) as u64;
            while since(sh.epoch) < due && !sh.failure.is_set() {
                let left = due.saturating_sub(since(sh.epoch));
                std::thread::sleep(Duration::from_nanos(left).min(Duration::from_millis(10)));
                sampler.tick();
            }
            if sh.failure.is_set() {
                break;
            }
            let root_span = span_id();
            let order_ns = since(sh.epoch);
            *sh.order.lock().expect("order poisoned") = Order {
                index: k,
                root_span,
                order_ns,
            };
            let target = if k % 2 == 0 { spare } else { home };
            let ok = comp.migrate(HOT, target).is_ok();
            ordered.push(Ordered {
                order_ns,
                done_ns: since(sh.epoch),
                ok,
                root_span,
            });
        }
        sh.migrations_over.store(true, Ordering::Release);
        let end = start_ns + (seconds * 1e9) as u64 + DRAIN_LIMIT.as_nanos() as u64;
        while sh.done_ranks.load(Ordering::SeqCst) < RANKS && !sh.failure.is_set() {
            if since(sh.epoch) > end {
                sh.failure.set(format!(
                    "messages lost: only {} of {RANKS} ranks received everything they were sent",
                    sh.done_ranks.load(Ordering::SeqCst)
                ));
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
            sampler.tick();
        }
        (setup_s, sampler.finish(), start_ns, ordered)
    });
    // Resumed incarnations run on scheduler-owned threads.
    comp.join_init_processes();
    if let Some(why) = sh.failure.take() {
        return Err(why);
    }
    let (setup_s, (usage, threads_max), start_ns, ordered) = out;
    let phases = comp
        .migration_records()
        .iter()
        .map(|r| {
            let at = |ph: MigrationPhase| {
                r.phases
                    .iter()
                    .find(|(p, _)| *p == ph)
                    .map(|(_, t)| t.saturating_duration_since(sh.epoch).as_nanos() as u64)
            };
            (
                [
                    at(MigrationPhase::Requested),
                    at(MigrationPhase::Started),
                    at(MigrationPhase::Restored),
                    at(MigrationPhase::Committed),
                ],
                r.attempts,
            )
        })
        .collect();
    comp.shutdown();
    if !measure {
        return Ok((setup_s, None));
    }
    let mut rec = Rec::new(sh.traced, sh.epoch);
    for r in sh.recs.lock().expect("recs poisoned").drain(..) {
        rec.merge(r);
    }
    Ok((
        setup_s,
        Some(Measured {
            rec,
            start_ns,
            usage,
            threads_max,
            ordered,
            migrant: sh.migrant.lock().expect("migrant poisoned").clone(),
            phases,
            offered: sh.schedule.iter().map(|s| s.len() as u64).sum(),
        }),
    ))
}

fn shared(
    schedule: &[Vec<Arrival>],
    reference: &Arc<ProcessState>,
    traced: bool,
    measure: bool,
) -> Arc<Shared> {
    let mut expected = vec![0u64; RANKS];
    let mut lanes_total = 0;
    for arrivals in schedule {
        let mut dests: Vec<usize> = arrivals.iter().map(|a| a.dest).collect();
        if measure {
            for d in &dests {
                expected[*d] += 1;
            }
        }
        dests.sort_unstable();
        dests.dedup();
        lanes_total += dests.len();
        for d in dests {
            expected[d] += 1;
        }
    }
    Arc::new(Shared {
        epoch: Instant::now(),
        schedule: schedule.to_vec(),
        expected,
        lanes_total,
        traced,
        measure,
        phase: AtomicU8::new(WARM),
        start_ns: AtomicU64::new(0),
        warm: AtomicUsize::new(0),
        migrations_over: AtomicBool::new(false),
        done_ranks: AtomicUsize::new(0),
        failure: Failure::default(),
        order: Mutex::new(Order::default()),
        migrant: Mutex::new(Vec::new()),
        sent_exec: Mutex::new(None),
        reference: Arc::clone(reference),
        recs: Mutex::new(Vec::new()),
    })
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Run the soak and report: the end-to-end metrics and the migration
/// breakdown always, the per-layer metrics when `traced`.
pub fn report(seed: u64, seconds: f64, traced: bool, setups: usize) -> Result<Report, String> {
    // Inputs are generated before any clock starts.
    let gen = SoakGen {
        seed,
        ranks: RANKS,
        hot: HOT,
        rate_hz: RATE_HZ,
        min_bytes: MIN_BYTES,
        max_bytes: MAX_BYTES,
        alpha: PARETO_ALPHA,
        zipf_s: ZIPF_S,
    };
    let horizon = (seconds * 1e9) as u64;
    let schedule = gen.schedule(horizon);
    let digest = schedule_digest(&schedule);
    let reference = Arc::new(migrant_state(seed));
    // The first set-up is measured; the rest are only timed.
    let (first, m) = run_once(shared(&schedule, &reference, traced, true), seconds)?;
    let m = m.expect("the first set-up is measured");
    let mut setup_times = vec![first];
    for _ in 1..setups {
        let sh = shared(&schedule, &reference, false, false);
        setup_times.push(run_once(sh, seconds)?.0);
    }
    let mut r = Report::default();
    r.lines.push(format!("schedule digest {digest:016x}"));
    build_report(&mut r, &m, &setup_times, traced);
    if traced {
        pipeline_report(&mut r, &reference)?;
    }
    Ok(r)
}

fn build_report(r: &mut Report, m: &Measured, setup_times: &[f64], traced: bool) {
    let rec = &m.rec;
    let ordered = m.ordered.len() as u64;
    let failed_migrations = m.ordered.iter().filter(|o| !o.ok).count() as u64;
    r.attempted = m.offered + ordered;
    r.failed = failed_migrations;

    // Migration windows: order → the last peer's first accepted send to
    // the migrant after the commit reply (capped at the next order).
    let mut by_peer: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for &(peer, t) in &rec.hot_accepts {
        by_peer.entry(peer).or_default().push(t);
    }
    for v in by_peer.values_mut() {
        v.sort_unstable();
    }
    let mut windows = Vec::new();
    let mut reconnect = Samples::default();
    for (k, o) in m.ordered.iter().enumerate() {
        let cap = m.ordered.get(k + 1).map_or(u64::MAX, |n| n.order_ns);
        let mut close = o.done_ns;
        for accepts in by_peer.values() {
            let i = accepts.partition_point(|&t| t < o.done_ns);
            if let Some(&t) = accepts.get(i).filter(|&&t| t < cap) {
                close = close.max(t);
                reconnect.push(ms(t - o.done_ns));
            }
        }
        windows.push((o.order_ns, close));
    }
    let mut steady = Hist::default();
    let mut during = Hist::default();
    let mut all = Hist::default();
    for &(sched, lat) in &rec.svc_pairs {
        let i = windows.partition_point(|w| w.0 <= sched);
        let inside = i > 0 && sched <= windows[i - 1].1;
        if inside { &mut during } else { &mut steady }.record(lat);
        all.record(lat);
    }
    let us = |h: &Hist, q: f64| h.quantile(q).map(|v| v / 1e3);
    let run_s = ms(rec.last_delivery_ns.saturating_sub(m.start_ns)) / 1e3;
    r.add(
        "msgs_per_s",
        rec.delivered as f64 / run_s,
        "msg/s",
        Some(rec.delivered),
    );
    r.add_opt(
        "svc_us_mean",
        all.mean().map(|v| v / 1e3),
        "us",
        all.count(),
    );
    r.add_opt("svc_us_p50", us(&all, 0.5), "us", all.count());
    r.add_opt("svc_us_p99", us(&all, 0.99), "us", all.count());
    r.add(
        "setup_s",
        median(setup_times),
        "s",
        Some(setup_times.len() as u64),
    );
    r.add("peak_rss_mb", m.usage.peak_rss_mib, "MiB", None);

    let mut pause = Samples::default();
    for o in m.ordered.iter().filter(|o| o.ok) {
        pause.push(ms(o.done_ns - o.order_ns));
    }
    r.add_opt(
        "pause_ms_p50",
        pause.quantile(0.5),
        "ms",
        pause.len() as u64,
    );
    match pause.tail() {
        Some((q, v)) => r.add_noted(
            "pause_ms_tail",
            v,
            "ms",
            Some(pause.len() as u64),
            format!("p{}", q * 100.0),
        ),
        None => r.add_opt("pause_ms_tail", None, "ms", pause.len() as u64),
    }
    r.add_opt("svc_steady_us_p50", us(&steady, 0.5), "us", steady.count());
    r.add_opt("svc_steady_us_p99", us(&steady, 0.99), "us", steady.count());
    r.add_opt("svc_during_us_p50", us(&during, 0.5), "us", during.count());
    r.add_opt("svc_during_us_p99", us(&during, 0.99), "us", during.count());
    r.add(
        "failed_frac",
        failed_migrations as f64 / (m.offered + ordered).max(1) as f64,
        "ratio",
        Some(m.offered + ordered),
    );
    r.add("bench.migrations", ordered as f64, "count", None);

    // Migration breakdown (cheap: every number comes from a return
    // value or the scheduler's records).
    let mut phase = [Samples::default(), Samples::default(), Samples::default()];
    let mut unattributed = Samples::default();
    let mut attempts = Samples::default();
    let mut spans = Vec::new();
    for (k, (o, (stamps, tries))) in m.ordered.iter().zip(&m.phases).enumerate() {
        attempts.push(*tries as f64);
        let [Some(a), Some(b), Some(c), Some(d)] = *stamps else {
            continue;
        };
        let kids = [(a, b), (b, c), (c, d)];
        for (i, (s, e)) in kids.iter().enumerate() {
            phase[i].push(ms(e.saturating_sub(*s)));
        }
        unattributed.push(ms(self_time((o.order_ns, o.done_ns), &kids)));
        if traced {
            let names = [
                "sched.requested_to_started",
                "sched.started_to_restored",
                "sched.restored_to_committed",
            ];
            for (name, (s, e)) in names.iter().zip(kids) {
                spans.push(Span {
                    id: span_id(),
                    parent: o.root_span,
                    req: k as u64,
                    name,
                    start_ns: s,
                    end_ns: e,
                });
            }
        }
    }
    let mut poll_wait = Samples::default();
    let mut call = Samples::default();
    let mut resume = Samples::default();
    let mut coordinate = Samples::default();
    let mut forwarded = Samples::default();
    for (k, (o, side)) in m.ordered.iter().zip(&m.migrant).enumerate() {
        if traced {
            spans.push(Span {
                id: o.root_span,
                parent: 0,
                req: k as u64,
                name: "core.Computation.migrate",
                start_ns: o.order_ns,
                end_ns: o.done_ns,
            });
        }
        if !side.completed {
            continue;
        }
        poll_wait.push(ms(side.poll_ns.saturating_sub(o.order_ns)));
        call.push(ms(side.call_end_ns - side.call_start_ns));
        resume.push(ms(side.entry_ns.saturating_sub(side.call_end_ns)));
        coordinate.push(side.coordinate_s * 1e3);
        forwarded.push(side.rml_forwarded as f64);
        if traced && side.entry_ns > side.call_end_ns {
            spans.push(Span {
                id: span_id(),
                parent: o.root_span,
                req: k as u64,
                name: "core.migrate.resume",
                start_ns: side.call_end_ns,
                end_ns: side.entry_ns,
            });
        }
    }
    let n = |s: &Samples| s.len() as u64;
    let medians = [
        ("core.migrate.poll_wait_ms_p50", &poll_wait),
        ("core.migrate.call_ms_p50", &call),
        ("core.migrate.resume_ms_p50", &resume),
        ("core.migrate.coordinate_ms_p50", &coordinate),
        ("sched.requested_to_started_ms_p50", &phase[0]),
        ("sched.started_to_restored_ms_p50", &phase[1]),
        ("sched.restored_to_committed_ms_p50", &phase[2]),
        ("sched.unattributed_ms_p50", &unattributed),
    ];
    for (name, s) in medians {
        r.add_opt(name, s.quantile(0.5), "ms", n(s));
    }
    let rml = forwarded.mean();
    r.add_opt(
        "core.migrate.rml_forwarded_mean",
        rml,
        "count",
        n(&forwarded),
    );
    r.add_opt(
        "sched.attempts_mean",
        attempts.mean(),
        "count",
        n(&attempts),
    );
    let parts: f64 = phase.iter().filter_map(|s| s.quantile(0.5)).sum::<f64>()
        + unattributed.quantile(0.5).unwrap_or(0.0);
    if let Some(p50) = pause.quantile(0.5) {
        r.lines.push(format!(
            "pause_ms_p50 {p50:.3} = phases {:.3} + unattributed {:.3} (sum of medians {parts:.3}, remainder {:.3} ms)",
            parts - unattributed.quantile(0.5).unwrap_or(0.0),
            unattributed.quantile(0.5).unwrap_or(0.0),
            p50 - parts
        ));
    }
    r.lines.push(format!(
        "windows: {} migrations, {} messages during, {} steady; reconnects n={}",
        m.ordered.len(),
        during.count(),
        steady.count(),
        reconnect.len()
    ));
    if traced {
        r.add_opt(
            "core.process.reconnect_ms_p50",
            reconnect.quantile(0.5),
            "ms",
            n(&reconnect),
        );
        let lag = rec.lag.quantile(0.99).map(|v| v / 1e3);
        r.add_opt("core.process.send_lag_us_p99", lag, "us", rec.lag.count());
        add_layers(r, rec, &m.usage, m.threads_max, env::load_threads(RANKS));
        r.spans = spans;
        r.spans.extend(rec.spans.iter().cloned());
    }
}

/// `state::pipeline` on the soak's own state, off the clock of the run:
/// `stream_chunks` with the default configuration (the path `migrate`
/// takes), then `ChunkedRestorer`; the result must equal the input.
fn pipeline_report(r: &mut Report, state: &ProcessState) -> Result<(), String> {
    let cfg = PipelineConfig::default();
    let mut stream_ms = Vec::new();
    let mut restore_ms = Vec::new();
    let mut last = (0usize, 0u32);
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut chunks = Vec::new();
        let summary = stream_chunks(state, &cfg, |c| {
            chunks.push(c.clone());
            Ok::<(), String>(())
        })?;
        stream_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t1 = Instant::now();
        let mut restorer = ChunkedRestorer::new();
        for c in &chunks {
            restorer
                .push(c.seq, c.checksum, &c.bytes)
                .map_err(|e| format!("restoring chunk {}: {e}", c.seq))?;
        }
        let back = restorer
            .finish(summary.digest, summary.chunks, summary.total_bytes as u64)
            .map_err(|e| format!("finishing the restore: {e}"))?;
        restore_ms.push(t1.elapsed().as_secs_f64() * 1e3);
        if &back != state {
            return Err("state::pipeline round trip changed the state".into());
        }
        last = (summary.total_bytes, summary.chunks);
    }
    r.add(
        "state.pipeline.stream_chunks_ms",
        median(&stream_ms),
        "ms",
        Some(3),
    );
    r.add(
        "state.pipeline.restore_ms",
        median(&restore_ms),
        "ms",
        Some(3),
    );
    r.add("state.pipeline.bytes", last.0 as f64, "B", None);
    r.add("state.pipeline.chunks", last.1 as f64, "count", None);
    Ok(())
}
