//! The closed-loop stream workloads (`stream_inproc`, `stream_tcp`).
//!
//! 32 ranks, 16 per host, launched cooperatively and stepped through
//! `try_send` / `try_recv` by at most `nproc` pool threads. Each rank
//! sends fixed 64 B messages round-robin to every rank on the other
//! host. SNOW's send is buffered (§2.3) and the in-process inbox is
//! unbounded, so each lane may hold at most `WINDOW` undelivered
//! messages: a slow receiver slows its senders, which is what makes the
//! loop closed.

use crate::env::{self, Failure, RANKS};
use crate::gen::permute;
use crate::lanes::{self, LaneChecker, Stamp};
use crate::osacct::{Sampler, Usage};
use crate::rec::{since, Rec};
use crate::report::{add_layers, median, Report};
use snow_core::SnowProcess;
use snow_vm::{HostId, VirtualMachine};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Undelivered messages a lane may hold. One keeps the per-message
/// latency a property of the path rather than of queueing behind the
/// window.
const WINDOW: u32 = 1;
/// Payload bytes of every stream message.
const MSG_BYTES: usize = 64;
/// Receipts one visit may take before the rank sends again.
const RECV_BURST: usize = 512;
/// A lane still short this long after the stop has lost messages.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);
const WARMUP_LIMIT: Duration = Duration::from_secs(60);

const WARM: u8 = 0;
const RUN: u8 = 1;
const STOP: u8 = 2;

struct Shared {
    epoch: Instant,
    /// Verified deliveries per lane, indexed `src * RANKS + dst`.
    delivered: Vec<AtomicU32>,
    /// Lanes whose warm-up message has arrived.
    warm: AtomicUsize,
    phase: AtomicU8,
    stop_ns: AtomicU64,
    workers: usize,
    stopped: AtomicUsize,
    sent_total: AtomicU64,
    delivered_total: AtomicU64,
    failure: Failure,
}

struct Lane {
    dest: usize,
    sent: u32,
}

struct Drive {
    p: SnowProcess,
    me: usize,
    lanes: Vec<Lane>,
    checker: LaneChecker,
    /// Every verified delivery, warm-up included.
    deliveries: u64,
}

/// What one measured run saw.
pub struct Measured {
    pub rec: Rec,
    pub start_ns: u64,
    pub usage: Usage,
    pub threads_max: usize,
}

impl Measured {
    pub fn msgs_per_s(&self) -> f64 {
        let s = (self.rec.last_delivery_ns.saturating_sub(self.start_ns)) as f64 / 1e9;
        self.rec.delivered as f64 / s
    }
}

/// One visit of one rank: take what arrived, then refill every lane's
/// window one message per lane per pass.
fn step(d: &mut Drive, sh: &Shared, rec: &mut Rec, phase: u8) -> Result<bool, String> {
    let me = d.me;
    let mut progressed = false;
    rec.sample_queues(&d.p);
    for _ in 0..RECV_BURST {
        let Some(m) = rec
            .try_recv(&mut d.p)
            .map_err(|e| format!("rank {me}: try_recv failed: {e}"))?
        else {
            break;
        };
        let s = d
            .checker
            .accept(m.src, &m.body)
            .map_err(|v| v.to_string())?;
        sh.delivered[m.src * RANKS + me].fetch_add(1, Ordering::Relaxed);
        d.deliveries += 1;
        if s.seq == 0 {
            sh.warm.fetch_add(1, Ordering::Relaxed);
        } else {
            rec.svc.record(m.end_ns.saturating_sub(s.sched_ns));
            rec.delivered(&m, &s);
        }
        progressed = true;
    }
    if phase == STOP {
        return Ok(progressed);
    }
    loop {
        let mut sent_any = false;
        for lane in d.lanes.iter_mut() {
            let limit = match phase {
                WARM => 1,
                _ => sh.delivered[me * RANKS + lane.dest].load(Ordering::Relaxed) + WINDOW,
            };
            if lane.sent >= limit {
                continue;
            }
            let now = rec.now();
            let stamp = Stamp {
                src: me,
                dst: lane.dest,
                seq: lane.sent,
                sched_ns: now,
                sent_ns: now,
            };
            let body = lanes::encode(&stamp, MSG_BYTES);
            let accepted = rec
                .try_send(&mut d.p, lane.dest, &body, lane.sent)
                .map_err(|e| format!("rank {me}: try_send to {} failed: {e}", lane.dest))?;
            if accepted {
                lane.sent += 1;
                sent_any = true;
            }
        }
        if !sent_any {
            return Ok(progressed);
        }
        progressed = true;
    }
}

/// Lanes of `mine` still owed messages, for the loss report.
fn short_lanes(mine: &[Drive], sh: &Shared) -> String {
    let mut out = Vec::new();
    for d in mine {
        for l in &d.lanes {
            let got = sh.delivered[d.me * RANKS + l.dest].load(Ordering::Relaxed);
            if got < l.sent {
                out.push(format!(
                    "lane {}->{}: {} of {} delivered",
                    d.me, l.dest, got, l.sent
                ));
            }
        }
    }
    out.join("; ")
}

fn worker(mut mine: Vec<Drive>, sh: &Shared, vm: &VirtualMachine, traced: bool) -> Rec {
    let mut rec = Rec::new(traced, sh.epoch);
    let mut published_sent = false;
    let mut published_deliveries = 0u64;
    let mut idle = 0u32;
    while !sh.failure.is_set() {
        let phase = sh.phase.load(Ordering::Acquire);
        let mut progressed = false;
        for d in mine.iter_mut() {
            match step(d, sh, &mut rec, phase) {
                Ok(p) => progressed |= p,
                Err(e) => sh.failure.set(e),
            }
        }
        let deliveries: u64 = mine.iter().map(|d| d.deliveries).sum();
        sh.delivered_total
            .fetch_add(deliveries - published_deliveries, Ordering::SeqCst);
        published_deliveries = deliveries;
        if phase == STOP {
            if !published_sent {
                let sent: u64 = mine
                    .iter()
                    .flat_map(|d| d.lanes.iter().map(|l| l.sent as u64))
                    .sum();
                sh.sent_total.fetch_add(sent, Ordering::SeqCst);
                sh.stopped.fetch_add(1, Ordering::SeqCst);
                published_sent = true;
            }
            if sh.stopped.load(Ordering::SeqCst) == sh.workers
                && sh.delivered_total.load(Ordering::SeqCst) == sh.sent_total.load(Ordering::SeqCst)
            {
                break;
            }
            let stop_ns = sh.stop_ns.load(Ordering::SeqCst);
            if since(sh.epoch) > stop_ns + DRAIN_LIMIT.as_nanos() as u64 {
                sh.failure
                    .set(format!("messages lost: {}", short_lanes(&mine, sh)));
            }
        }
        rec.sweeps += 1;
        if progressed {
            idle = 0;
        } else {
            rec.idle_sweeps += 1;
            idle += 1;
            // Nothing to do until a receiver frees a window: give the
            // processor to the transport threads instead of spinning.
            if idle > 16 {
                std::thread::sleep(Duration::from_micros(50));
            } else {
                std::thread::yield_now();
            }
        }
    }
    if !sh.failure.is_set() {
        for d in mine {
            let vmid = d.p.vmid();
            d.p.finish();
            vm.retire(vmid);
        }
    }
    rec
}

/// Build, launch and warm up one environment; measure it for `seconds`
/// when `measure` is set, else tear it down at once. Returns the set-up
/// time and the measurement.
fn run_once(
    tcp: bool,
    seed: u64,
    seconds: f64,
    traced: bool,
    measure: bool,
) -> Result<(f64, Option<Measured>), String> {
    let t_setup = Instant::now();
    let comp = env::build(tcp, env::APP_HOSTS);
    let hosts = comp.hosts().to_vec();
    let placement: Vec<HostId> = (0..RANKS).map(|r| hosts[r % env::APP_HOSTS]).collect();
    let procs = comp.launch_cooperative(&placement, |_p, _start| {});
    let workers = env::load_threads(RANKS);
    let mut parts: Vec<Vec<Drive>> = (0..workers).map(|_| Vec::new()).collect();
    for p in procs {
        let me = p.rank();
        let mut dests: Vec<usize> = (0..RANKS)
            .filter(|d| d % env::APP_HOSTS != me % env::APP_HOSTS)
            .collect();
        permute(seed, me as u64, &mut dests);
        parts[me % workers].push(Drive {
            p,
            me,
            lanes: dests
                .into_iter()
                .map(|dest| Lane { dest, sent: 0 })
                .collect(),
            checker: LaneChecker::new(me, RANKS),
            deliveries: 0,
        });
    }
    let lanes_total: usize = parts.iter().flatten().map(|d| d.lanes.len()).sum();
    let sh = Shared {
        epoch: Instant::now(),
        delivered: (0..RANKS * RANKS).map(|_| AtomicU32::new(0)).collect(),
        warm: AtomicUsize::new(0),
        phase: AtomicU8::new(WARM),
        stop_ns: AtomicU64::new(0),
        workers,
        stopped: AtomicUsize::new(0),
        sent_total: AtomicU64::new(0),
        delivered_total: AtomicU64::new(0),
        failure: Failure::default(),
    };
    let vm = comp.vm();
    let out = std::thread::scope(|s| {
        let handles: Vec<_> = parts
            .into_iter()
            .enumerate()
            .map(|(w, mine)| {
                let sh = &sh;
                std::thread::Builder::new()
                    .name(format!("bench-worker-{w}"))
                    .spawn_scoped(s, move || worker(mine, sh, vm, traced))
                    .expect("spawn pool thread")
            })
            .collect();
        // Set-up ends when every lane has delivered its warm-up message,
        // so the connect storm (Fig 3) is paid here, not in the run.
        let deadline = Instant::now() + WARMUP_LIMIT;
        while sh.warm.load(Ordering::Relaxed) < lanes_total && !sh.failure.is_set() {
            if Instant::now() > deadline {
                sh.failure.set(format!(
                    "warm-up stalled: {} of {lanes_total} lanes delivered",
                    sh.warm.load(Ordering::Relaxed)
                ));
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        let setup_s = t_setup.elapsed().as_secs_f64();
        let mut timing = None;
        if measure && !sh.failure.is_set() {
            let mut sampler = Sampler::start(traced);
            let start_ns = since(sh.epoch);
            sh.phase.store(RUN, Ordering::Release);
            let end = Instant::now() + Duration::from_secs_f64(seconds);
            while !sh.failure.is_set() {
                let left = end.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                std::thread::sleep(left.min(Duration::from_millis(10)));
                sampler.tick();
            }
            timing = Some((sampler, start_ns));
        }
        sh.stop_ns.store(since(sh.epoch), Ordering::SeqCst);
        sh.phase.store(STOP, Ordering::Release);
        let mut rec = Rec::new(traced, sh.epoch);
        for h in handles {
            rec.merge(h.join().expect("pool thread panicked"));
        }
        let measured = timing.map(|(sampler, start_ns)| {
            let (usage, threads_max) = sampler.finish();
            Measured {
                rec,
                start_ns,
                usage,
                threads_max,
            }
        });
        (setup_s, measured)
    });
    if let Some(why) = sh.failure.take() {
        return Err(why);
    }
    comp.shutdown();
    Ok(out)
}

/// Run a stream workload and report its metrics: the end-to-end ones
/// always, the per-layer ones when `traced`. Of `setups` set-ups the
/// first is measured (a fresh process, so its memory reading does not
/// depend on what earlier set-ups left behind) and the rest only timed.
pub fn report(
    tcp: bool,
    seed: u64,
    seconds: f64,
    traced: bool,
    setups: usize,
) -> Result<Report, String> {
    let (first, m) = run_once(tcp, seed, seconds, traced, true)?;
    let m = m.expect("the first set-up is measured");
    let mut setup_times = vec![first];
    for _ in 1..setups {
        setup_times.push(run_once(tcp, seed, seconds, false, false)?.0);
    }
    let rec = &m.rec;
    let mut r = Report {
        attempted: rec.delivered,
        ..Report::default()
    };
    let svc = |q: f64| rec.svc.quantile(q).map(|v| v / 1e3);
    r.add("msgs_per_s", m.msgs_per_s(), "msg/s", Some(rec.delivered));
    r.add_opt(
        "svc_us_mean",
        rec.svc.mean().map(|v| v / 1e3),
        "us",
        rec.svc.count(),
    );
    r.add_opt("svc_us_p50", svc(0.5), "us", rec.svc.count());
    r.add_opt("svc_us_p99", svc(0.99), "us", rec.svc.count());
    r.add(
        "setup_s",
        median(&setup_times),
        "s",
        Some(setup_times.len() as u64),
    );
    r.add("peak_rss_mb", m.usage.peak_rss_mib, "MiB", None);
    if traced {
        add_layers(
            &mut r,
            rec,
            &m.usage,
            m.threads_max,
            env::load_threads(RANKS),
        );
        r.spans = m.rec.spans;
    }
    Ok(r)
}
