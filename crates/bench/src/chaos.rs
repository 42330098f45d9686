//! Seeded chaos scenarios: random traffic + a migration, run under a
//! random deterministic [`FaultPlan`], audited against the §4
//! guarantees.
//!
//! A [`Scenario`] is a pure function of its seed: the traffic matrix,
//! the migrant, and the fault plan are all drawn from one seeded
//! generator, and the fault plan itself replays deterministic
//! per-frame/per-datagram decisions (see [`snow_net::fault`]). A chaos
//! run therefore needs only its seed to be reproduced.
//!
//! The run digest hashes the scenario together with the canonical
//! *delivery lanes*: for every `(receiver rank, sender rank)` pair, the
//! in-order sequence of `(tag, len)` the receiver consumed. Theorems 2
//! and 3 (zero loss, per-sender FIFO) make those lanes a function of
//! the scenario alone — so the digest is stable across reruns even
//! though thread interleavings (and hence individual fault verdicts)
//! may differ, and any digest change flags a protocol-level divergence.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snow_core::{Computation, MigrationOutcome, RetryPolicy, SnowProcess, Start};
use snow_net::{FaultPlan, FaultSpec, LinkSel, TimeScale};
use snow_state::{fnv1a, fnv1a_with_seed, ExecState, MemoryGraph, ProcessState};
use snow_trace::{Event, EventKind, Tracer};
use snow_vm::HostSpec;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// One generated chaos scenario (a pure function of `seed`).
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The generating seed.
    pub seed: u64,
    /// Number of application ranks (each on its own host, plus a spare
    /// migration target).
    pub ranks: usize,
    /// `msgs[s][d]` messages from rank `s` to rank `d`.
    pub msgs: Vec<Vec<u8>>,
    /// The rank that migrates.
    pub migrant: usize,
    /// Percent of its inbound traffic the migrant consumes before
    /// migrating (the rest crosses the migration through the RML).
    pub consume_frac: u8,
    /// The deterministic fault plan the environment runs under.
    pub plan: FaultPlan,
}

impl Scenario {
    /// Generate the scenario for `seed`.
    pub fn generate(seed: u64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_cafe);
        let ranks = rng.gen_range(2usize..=4);
        let msgs: Vec<Vec<u8>> = (0..ranks)
            .map(|_| (0..ranks).map(|_| rng.gen_range(0u8..6)).collect())
            .collect();
        let migrant = rng.gen_range(0..ranks);
        let consume_frac = rng.gen_range(0u8..=100);

        // Compose a fault spec from a random subset of the fault
        // classes. Probabilities stay moderate: the protocol must
        // *recover* (re-send, reconnect, abort+retry), not starve.
        let mut spec = FaultSpec::none();
        if rng.gen_range(0.0..1.0) < 0.7 {
            spec = spec.jitter(rng.gen_range(0.1..0.5), rng.gen_range(0.2..2.0));
        }
        if rng.gen_range(0.0..1.0) < 0.5 {
            spec = spec.drops(rng.gen_range(0.05..0.35));
        }
        if rng.gen_range(0.0..1.0) < 0.4 {
            spec = spec.duplicates(rng.gen_range(0.05..0.35));
        }
        if rng.gen_range(0.0..1.0) < 0.35 {
            spec = spec.resets(rng.gen_range(0.02..0.12), rng.gen_range(2u64..12));
        }
        if rng.gen_range(0.0..1.0) < 0.3 {
            spec = spec.partition(rng.gen_range(2u64..16), rng.gen_range(0.5..4.0));
        }
        let plan = FaultPlan::new(seed).rule(LinkSel::Any, spec);
        Scenario {
            seed,
            ranks,
            msgs,
            migrant,
            consume_frac,
            plan,
        }
    }

    /// Stable serialization of the generation parameters (hashed into
    /// the run digest).
    pub fn canonical(&self) -> String {
        format!(
            "seed={} ranks={} msgs={:?} migrant={} frac={} plan={:?}",
            self.seed, self.ranks, self.msgs, self.migrant, self.consume_frac, self.plan
        )
    }
}

/// Result of one chaos run.
pub struct ChaosRun {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// Digest over scenario + canonical delivery lanes.
    pub digest: u64,
    /// How the scheduled migration ended (`completed` / `aborted: …`).
    pub migration: String,
    /// Injected-fault counters from the metrics registry.
    pub fault_counts: Vec<(String, u64)>,
    /// Full event log (export on failure; feed to the auditor).
    pub events: Vec<Event>,
}

/// Deterministic payload length for message `i` of the `s → d` stream.
fn body_len(s: usize, d: usize, i: u8) -> usize {
    1 + (s * 7 + d * 3 + i as usize * 11) % 48
}

/// Digest of a finished run: scenario parameters plus the canonical
/// per-`(receiver, sender)` delivery lanes. Receiver identity is the
/// *rank* (labels `p3` and `init:3` hash alike), so the digest is
/// invariant to whether the migration committed or aborted mid-tail.
pub fn run_digest(sc: &Scenario, events: &[Event]) -> u64 {
    lanes_digest(&sc.canonical(), events)
}

/// Hash `canonical` plus the per-`(receiver, sender)` delivery lanes.
fn lanes_digest(canonical: &str, events: &[Event]) -> u64 {
    let mut lanes: BTreeMap<(String, String), Vec<(i64, u64)>> = BTreeMap::new();
    for e in events {
        if let EventKind::RecvDone {
            from, tag, bytes, ..
        } = &e.kind
        {
            let receiver: String = e
                .who
                .chars()
                .filter(|c| c.is_ascii_digit())
                .collect::<String>();
            lanes
                .entry((receiver, format!("{from}")))
                .or_default()
                .push((*tag as i64, *bytes as u64));
        }
    }
    let mut h = fnv1a(canonical.as_bytes());
    for ((recv, from), seq) in &lanes {
        h = fnv1a_with_seed(h, recv.as_bytes());
        h = fnv1a_with_seed(h, from.as_bytes());
        for (tag, len) in seq {
            h = fnv1a_with_seed(h, &tag.to_le_bytes());
            h = fnv1a_with_seed(h, &len.to_le_bytes());
        }
    }
    h
}

/// Run one chaos scenario end-to-end and return its log + digest.
///
/// The run itself never asserts: callers audit `events` (e.g. via
/// [`snow_trace::audit::assert_clean`]) so a failing run can first dump
/// its seed and JSONL log. Panics only if a rank thread itself panics —
/// which the auditor would flag anyway.
pub fn run_scenario(sc: &Scenario) -> ChaosRun {
    let tracer = Tracer::new();
    let comp = Computation::builder()
        .hosts(HostSpec::ideal(), sc.ranks + 1)
        .tracer(Arc::clone(&tracer))
        .time_scale(TimeScale::MILLI)
        .migration_retry(RetryPolicy {
            max_attempts: 3,
            backoff: Duration::from_millis(10),
            jitter: Duration::from_millis(5),
            seed: sc.seed,
        })
        .fault_plan(sc.plan.clone())
        .build();
    let spare = comp.hosts()[sc.ranks];
    let sc2 = sc.clone();

    let handles = comp.launch(sc.ranks, move |mut p, start| {
        let me = p.rank();
        let sc = &sc2;
        let inbound: u64 = (0..sc.ranks)
            .filter(|s| *s != me)
            .map(|s| sc.msgs[s][me] as u64)
            .sum();
        let send_all = |p: &mut SnowProcess| {
            for d in 0..sc.ranks {
                if d == me {
                    continue;
                }
                for i in 0..sc.msgs[me][d] {
                    let mut body = vec![0u8; body_len(me, d, i)];
                    body[0] = i;
                    p.send(d, me as i32, Bytes::from(body)).unwrap();
                }
            }
        };
        // Per-source next-expected counters; panics on gaps/reorders.
        let recv_n = |p: &mut SnowProcess, next: &mut [u8], k: u64| {
            for _ in 0..k {
                let (s, _t, b) = p.recv(None, None).unwrap();
                assert_eq!(b[0], next[s], "rank {me}: reorder from {s}");
                next[s] += 1;
            }
        };
        match start {
            Start::Fresh => {
                send_all(&mut p);
                let mut next = vec![0u8; sc.ranks];
                if me == sc.migrant {
                    let before = inbound * sc.consume_frac as u64 / 100;
                    recv_n(&mut p, &mut next, before);
                    // Event-driven wait for the scheduler's signal.
                    while !p.await_migration_request(Duration::from_secs(5)).unwrap() {}
                    let mut exec = ExecState::at_entry();
                    for (s, nx) in next.iter().enumerate() {
                        exec =
                            exec.with_local(&format!("n{s}"), snow_codec::Value::U64(*nx as u64));
                    }
                    match p
                        .migrate(&ProcessState::new(exec, MemoryGraph::new()))
                        .unwrap()
                    {
                        MigrationOutcome::Completed(_) => {
                            // The resumed half finishes the tail.
                        }
                        MigrationOutcome::Aborted(a) => {
                            // Rolled back in place: this process still
                            // owns the tail of its inbound traffic.
                            let mut p = a.process;
                            recv_n(&mut p, &mut next, inbound - before);
                            p.finish();
                        }
                    }
                } else {
                    recv_n(&mut p, &mut next, inbound);
                    p.finish();
                }
            }
            Start::Resumed(state) => {
                let mut next = vec![0u8; sc.ranks];
                let mut done = 0u64;
                for (s, nx) in next.iter_mut().enumerate() {
                    let v = state
                        .exec
                        .local(&format!("n{s}"))
                        .and_then(snow_codec::Value::as_u64)
                        .unwrap();
                    *nx = v as u8;
                    done += v;
                }
                recv_n(&mut p, &mut next, inbound - done);
                p.finish();
            }
        }
    });

    let migration = match comp.migrate(sc.migrant, spare) {
        Ok(vmid) => format!("completed at {vmid}"),
        Err(e) => format!("aborted: {e}"),
    };
    for h in handles {
        h.join().expect("rank thread survives chaos");
    }
    comp.join_init_processes();
    comp.shutdown();

    let events = tracer.snapshot();
    let digest = run_digest(sc, &events);
    ChaosRun {
        scenario: sc.clone(),
        digest,
        migration,
        fault_counts: tracer.metrics().fault_counts(),
        events,
    }
}

/// One generated host-evacuation scenario (a pure function of `seed`):
/// a gang of co-located ranks with cross traffic, drained through a
/// bounded worker pool — optionally while a destination host is killed
/// mid-drain.
#[derive(Debug, Clone)]
pub struct DrainScenario {
    /// The generating seed.
    pub seed: u64,
    /// Co-located evacuees, all placed on the drained host.
    pub ranks: usize,
    /// Destination hosts besides the scheduler's (which also accepts
    /// migrants).
    pub dests: usize,
    /// `msgs[s][d]` messages from rank `s` to rank `d`.
    pub msgs: Vec<Vec<u8>>,
    /// Percent of its inbound traffic each rank consumes before parking
    /// at its migration point (the rest crosses the drain via RMLs).
    pub consume_frac: u8,
    /// Worker-pool width for the drain.
    pub max_workers: usize,
    /// Remove the first dedicated destination host mid-drain.
    pub kill_dest: bool,
    /// The deterministic fault plan the environment runs under.
    pub plan: FaultPlan,
}

impl DrainScenario {
    /// Generate the drain scenario for `seed`.
    pub fn generate(seed: u64) -> DrainScenario {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xd5a1_4bad);
        let ranks = rng.gen_range(8usize..=10);
        let dests = rng.gen_range(2usize..=3);
        let msgs: Vec<Vec<u8>> = (0..ranks)
            .map(|_| (0..ranks).map(|_| rng.gen_range(0u8..4)).collect())
            .collect();
        let consume_frac = rng.gen_range(0u8..=100);
        let max_workers = rng.gen_range(2usize..=4);
        let kill_dest = rng.gen_range(0.0..1.0) < 0.5;
        // Moderate faults: evacuation must terminate, not starve.
        let mut spec = FaultSpec::none();
        if rng.gen_range(0.0..1.0) < 0.5 {
            spec = spec.jitter(rng.gen_range(0.1..0.4), rng.gen_range(0.2..1.0));
        }
        if rng.gen_range(0.0..1.0) < 0.4 {
            spec = spec.drops(rng.gen_range(0.05..0.25));
        }
        if rng.gen_range(0.0..1.0) < 0.3 {
            spec = spec.duplicates(rng.gen_range(0.05..0.25));
        }
        if rng.gen_range(0.0..1.0) < 0.25 {
            spec = spec.partition(rng.gen_range(2u64..10), rng.gen_range(0.5..2.0));
        }
        let plan = FaultPlan::new(seed).rule(LinkSel::Any, spec);
        DrainScenario {
            seed,
            ranks,
            dests,
            msgs,
            consume_frac,
            max_workers,
            kill_dest,
            plan,
        }
    }

    /// Stable serialization of the generation parameters (hashed into
    /// the run digest).
    pub fn canonical(&self) -> String {
        format!(
            "drain seed={} ranks={} dests={} msgs={:?} frac={} workers={} kill={} plan={:?}",
            self.seed,
            self.ranks,
            self.dests,
            self.msgs,
            self.consume_frac,
            self.max_workers,
            self.kill_dest,
            self.plan
        )
    }
}

/// Result of one host-evacuation chaos run.
pub struct DrainChaosRun {
    /// The scenario that ran.
    pub scenario: DrainScenario,
    /// Digest over scenario + canonical delivery lanes. Lanes are a
    /// function of the traffic alone (§4), so the digest is stable even
    /// though which migrants retried or aborted may race the host kill.
    pub digest: u64,
    /// Terminal verdict line: `evacuated …` or `partial …`.
    pub verdict: String,
    /// Migrants that committed off the host.
    pub completed: usize,
    /// Migrants whose migration finally aborted (resumed in place).
    pub aborted: usize,
    /// Retry rulings issued across the gang.
    pub retried: usize,
    /// Injected-fault counters from the metrics registry.
    pub fault_counts: Vec<(String, u64)>,
    /// Full event log (export on failure; feed to the auditor).
    pub events: Vec<Event>,
    /// `"record":"drain"` metrics deposited by the scheduler (exactly
    /// one per drain).
    pub drain_records: usize,
}

/// Run one host-evacuation scenario end-to-end: all ranks co-located on
/// one host, cross traffic in flight, then a `HostDrain` through the
/// bounded pool — with the first dedicated destination host optionally
/// ripped out mid-gang. Never asserts; callers audit `events`.
pub fn run_drain_scenario(sc: &DrainScenario) -> DrainChaosRun {
    use snow_core::{DrainOutcome, DrainPoolConfig};

    let tracer = Tracer::new();
    let comp = Computation::builder()
        .hosts(HostSpec::ideal(), 2 + sc.dests)
        .tracer(Arc::clone(&tracer))
        .time_scale(TimeScale::MILLI)
        .migration_retry(RetryPolicy {
            max_attempts: 4,
            backoff: Duration::from_millis(10),
            jitter: Duration::from_millis(8),
            seed: sc.seed,
        })
        .fault_plan(sc.plan.clone())
        .build();
    let src_host = comp.hosts()[1];
    let victim = comp.hosts()[2];
    let sc2 = sc.clone();

    // The drain is held back until every rank has finished sending and
    // consumed its pre-migration share: post-rendezvous traffic is
    // recv-only (tails ride the RMLs), so no rank ever needs a *new*
    // channel to a gang-mate that landed on the soon-to-die host.
    //
    // The rendezvous spins on `probe` rather than parking in a barrier:
    // a parked rank stops granting conn_reqs, and under datagram drops
    // a straggler whose first conn_req (or its reply) was eaten would
    // resend into a gang of non-polling peers forever.
    let ready = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let gate = Arc::clone(&ready);

    let placement = vec![src_host; sc.ranks];
    let handles = comp.launch_placed(&placement, move |mut p, start| {
        let me = p.rank();
        let sc = &sc2;
        let inbound: u64 = (0..sc.ranks)
            .filter(|s| *s != me)
            .map(|s| sc.msgs[s][me] as u64)
            .sum();
        let recv_n = |p: &mut SnowProcess, next: &mut [u8], k: u64| {
            for _ in 0..k {
                let (s, _t, b) = p.recv(None, None).unwrap();
                assert_eq!(b[0], next[s], "rank {me}: reorder from {s}");
                next[s] += 1;
            }
        };
        match start {
            Start::Fresh => {
                for d in 0..sc.ranks {
                    if d == me {
                        continue;
                    }
                    for i in 0..sc.msgs[me][d] {
                        let mut body = vec![0u8; body_len(me, d, i)];
                        body[0] = i;
                        p.send(d, me as i32, Bytes::from(body)).unwrap();
                    }
                }
                let mut next = vec![0u8; sc.ranks];
                let before = inbound * sc.consume_frac as u64 / 100;
                recv_n(&mut p, &mut next, before);
                gate.fetch_add(1, Ordering::SeqCst);
                while gate.load(Ordering::SeqCst) < sc.ranks {
                    // Keep servicing inbound conn_reqs for gang-mates
                    // still sending; `probe` drains without consuming.
                    p.probe(None, None).unwrap();
                    std::thread::sleep(Duration::from_millis(1));
                }
                // Park at the migration point. Disconnect signals from
                // gang-mates draining first are serviced in here, so
                // waiting one's turn never wedges a neighbour.
                while !p.await_migration_request(Duration::from_secs(5)).unwrap() {}
                let mut exec = ExecState::at_entry();
                for (s, nx) in next.iter().enumerate() {
                    exec = exec.with_local(&format!("n{s}"), snow_codec::Value::U64(*nx as u64));
                }
                match p
                    .migrate(&ProcessState::new(exec, MemoryGraph::new()))
                    .unwrap()
                {
                    MigrationOutcome::Completed(_) => {
                        // The resumed half finishes the tail elsewhere.
                    }
                    MigrationOutcome::Aborted(a) => {
                        // Rolled back in place: still owns its tail.
                        let mut p = a.process;
                        recv_n(&mut p, &mut next, inbound - before);
                        p.finish();
                    }
                }
            }
            Start::Resumed(state) => {
                let mut next = vec![0u8; sc.ranks];
                let mut done = 0u64;
                for (s, nx) in next.iter_mut().enumerate() {
                    let v = state
                        .exec
                        .local(&format!("n{s}"))
                        .and_then(snow_codec::Value::as_u64)
                        .unwrap();
                    *nx = v as u8;
                    done += v;
                }
                recv_n(&mut p, &mut next, inbound - done);
                p.finish();
            }
        }
    });

    while ready.load(Ordering::SeqCst) < sc.ranks {
        std::thread::sleep(Duration::from_millis(1));
    }
    comp.drain_host_async(
        src_host,
        DrainPoolConfig {
            max_workers: sc.max_workers,
            job_queue_size: 64,
            res_queue_size: 64,
            progress_log_period: Duration::from_millis(20),
        },
    )
    .expect("scheduler is running");
    if sc.kill_dest {
        // Long enough for the first wave of transfers to be in flight,
        // short enough that the gang is still mid-drain.
        std::thread::sleep(Duration::from_millis(25));
        comp.vm().remove_host(victim);
    }
    let (verdict, completed, aborted, retried) = match comp.wait_drain_done(src_host) {
        Ok(report) => match report.outcome {
            DrainOutcome::Evacuated { completed, retried } => (
                format!("evacuated completed={completed} retried={retried}"),
                completed,
                0,
                retried,
            ),
            DrainOutcome::PartiallyEvacuated {
                completed,
                aborted,
                retried,
            } => (
                format!("partial completed={completed} aborted={aborted} retried={retried}"),
                completed,
                aborted,
                retried,
            ),
        },
        Err(cause) => (format!("drain failed: {cause}"), 0, 0, 0),
    };
    for h in handles {
        h.join().expect("rank thread survives evacuation");
    }
    comp.join_init_processes();
    comp.shutdown();

    let events = tracer.snapshot();
    let digest = lanes_digest(&sc.canonical(), &events);
    DrainChaosRun {
        scenario: sc.clone(),
        digest,
        verdict,
        completed,
        aborted,
        retried,
        fault_counts: tracer.metrics().fault_counts(),
        events,
        drain_records: tracer.metrics().drains().len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_pure_functions_of_the_seed() {
        for seed in [0u64, 1, 42, 0xdead_beef] {
            let a = Scenario::generate(seed);
            let b = Scenario::generate(seed);
            assert_eq!(a.canonical(), b.canonical());
        }
        assert_ne!(
            Scenario::generate(1).canonical(),
            Scenario::generate(2).canonical()
        );
    }

    #[test]
    fn drain_scenarios_are_pure_functions_of_the_seed() {
        for seed in [0u64, 7, 42, 0xfeed_f00d] {
            let a = DrainScenario::generate(seed);
            let b = DrainScenario::generate(seed);
            assert_eq!(a.canonical(), b.canonical());
            assert!(a.ranks >= 8, "gang must be ≥ 8 co-located ranks");
        }
        assert_ne!(
            DrainScenario::generate(1).canonical(),
            DrainScenario::generate(2).canonical()
        );
    }

    #[test]
    fn digest_ignores_timestamps_and_labels_incarnation() {
        use snow_trace::Event;
        let sc = Scenario::generate(3);
        let ev = |who: &str, t: u64| Event {
            t_ns: t,
            seq: 0,
            who: who.into(),
            kind: EventKind::RecvDone {
                from: 1,
                tag: 7,
                bytes: 12,
                msg: snow_trace::MsgId(t),
                from_rml: false,
            },
        };
        let a = run_digest(&sc, &[ev("p0", 5)]);
        let b = run_digest(&sc, &[ev("init:0", 999)]);
        assert_eq!(a, b, "rank identity, not label/time, feeds the digest");
        let c = run_digest(&sc, &[ev("p2", 5)]);
        assert_ne!(a, c);
    }
}
