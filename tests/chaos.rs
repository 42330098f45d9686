//! Pinned-seed chaos regressions: fault modes the random battery may
//! not hit get a deterministic scenario each, audited against the §4
//! guarantees. The `chaos` binary explores; this file pins.
//!
//! Every test runs a [`Scenario`] end-to-end under an armed
//! [`FaultPlan`] and requires (a) the audit comes back clean and (b)
//! where the mode is hand-built, that the intended faults actually
//! fired — so a refactor that silently disarms the injector fails here
//! instead of quietly passing.

use snow_bench::chaos::{run_scenario, ChaosRun, Scenario};
use snow_net::{FaultPlan, FaultSpec, LinkSel};

/// Audit a finished run, dumping the log + repro seed on violations.
fn assert_clean(run: &ChaosRun) {
    let report = snow_trace::audit::audit(&run.events);
    if !report.is_clean() {
        eprintln!("{}", report.render());
        eprintln!(
            "reproduce with: cargo run -p snow-bench --bin chaos -- --seed {}",
            run.scenario.seed
        );
        panic!("chaos seed {} left a dirty audit", run.scenario.seed);
    }
}

fn fault_total(run: &ChaosRun, prefix: &str) -> u64 {
    run.fault_counts
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(_, v)| v)
        .sum()
}

/// A scenario with hand-chosen traffic and a hand-built plan. Ranks sit
/// on hosts `0..ranks`; the migration spare is host `ranks`.
fn pinned(seed: u64, ranks: usize, migrant: usize, consume_frac: u8, plan: FaultPlan) -> Scenario {
    Scenario {
        seed,
        ranks,
        // Dense traffic: 4 messages on every directed pair.
        msgs: (0..ranks)
            .map(|s| (0..ranks).map(|d| if s == d { 0 } else { 4 }).collect())
            .collect(),
        migrant,
        consume_frac,
        plan,
    }
}

#[test]
fn same_seed_same_digest() {
    // Seed 0 exercises daemon-level conn_req/conn_reply drops (the
    // connect re-send path); pin that it still does, and that the run
    // digest is a pure function of the seed.
    let a = run_scenario(&Scenario::generate(0));
    let b = run_scenario(&Scenario::generate(0));
    assert_clean(&a);
    assert_clean(&b);
    assert_eq!(a.digest, b.digest, "seed 0 must be bit-for-bit replayable");
    assert!(
        fault_total(&a, "drop:") > 0,
        "seed 0 regression: expected daemon-level datagram drops, got {:?}",
        a.fault_counts
    );
}

#[test]
fn random_battery_stays_clean() {
    for seed in 1..6 {
        let run = run_scenario(&Scenario::generate(seed));
        assert_clean(&run);
    }
}

#[test]
fn partition_during_rml_drain_stays_clean() {
    // consume_frac 0: the migrant consumes nothing before migrating, so
    // its whole inbound load crosses the migration through the RML —
    // and the partition window (arming after the first frame on every
    // wire) stalls peers' in-flight traffic right into the drain.
    let plan = FaultPlan::new(91).rule(LinkSel::Any, FaultSpec::none().partition(1, 2.0));
    let run = run_scenario(&pinned(91, 3, 1, 0, plan));
    assert_clean(&run);
    assert!(
        fault_total(&run, "delay") > 0,
        "partition never held a frame: {:?}",
        run.fault_counts
    );
    assert!(
        run.migration.starts_with("completed"),
        "partition is delay, not loss — migration must still commit: {}",
        run.migration
    );
}

#[test]
fn duplicate_control_datagrams_during_restore_are_deduped() {
    // Every conn_req/conn_reply forwarded twice — including the restore
    // phase, where the resumed process re-builds its connections. The
    // daemons and targets must dedup on req_id or the audit sees
    // duplicate grants/deliveries.
    let plan = FaultPlan::new(92).rule(LinkSel::Any, FaultSpec::none().duplicates(1.0));
    let run = run_scenario(&pinned(92, 3, 0, 50, plan));
    assert_clean(&run);
    assert!(
        fault_total(&run, "dup:") > 0,
        "duplicator never fired: {:?}",
        run.fault_counts
    );
    assert!(run.migration.starts_with("completed"), "{}", run.migration);
}

#[test]
fn connect_survives_heavy_daemon_drops() {
    // Over half of all signaling datagrams vanish; connect(), which
    // also opens the state-transfer channel, re-sends under the same
    // req_id until a reply lands. Loss is recoverable, so the run must
    // still commit.
    let plan = FaultPlan::new(93).rule(LinkSel::Any, FaultSpec::none().drops(0.55));
    let run = run_scenario(&pinned(93, 2, 1, 100, plan));
    assert_clean(&run);
    assert!(
        fault_total(&run, "drop:") > 0,
        "dropper never fired: {:?}",
        run.fault_counts
    );
    assert!(run.migration.starts_with("completed"), "{}", run.migration);
}

#[test]
fn reset_on_spare_link_retries_to_another_host() {
    // Every data frame from the migrant's host (0) to the spare (3)
    // resets the connection: the first state-transfer attempt dies, the
    // retry policy rolls the source back and re-targets, and the
    // migration commits on a host whose link is healthy.
    let plan = FaultPlan::new(94).rule(LinkSel::Directed(0, 3), FaultSpec::none().resets(1.0, 0));
    let run = run_scenario(&pinned(94, 3, 0, 40, plan));
    assert_clean(&run);
    assert!(
        fault_total(&run, "reset") > 0,
        "reset injector never fired: {:?}",
        run.fault_counts
    );
    assert!(
        run.migration.starts_with("completed") && !run.migration.contains("h3"),
        "expected a commit away from the dead spare link: {}",
        run.migration
    );
}

#[test]
fn reset_storm_on_every_transfer_link_forces_clean_abort() {
    // All outbound data from the migrant's host resets — and the
    // migrant sends no application traffic, so the only casualties are
    // state-transfer frames. Every attempt (spare and re-targets alike)
    // dies, the retry budget burns out, and the migration rolls back:
    // the aborted process finishes its inbound tail in place, RML
    // intact, audit clean.
    let plan = FaultPlan::new(96).rule(LinkSel::FromHost(0), FaultSpec::none().resets(1.0, 0));
    let mut sc = pinned(96, 3, 0, 40, plan);
    sc.msgs[0] = vec![0; 3];
    let run = run_scenario(&sc);
    assert_clean(&run);
    assert!(
        fault_total(&run, "reset") > 0,
        "reset injector never fired: {:?}",
        run.fault_counts
    );
    assert!(
        run.migration.starts_with("aborted"),
        "no healthy transfer link exists — the migration cannot commit: {}",
        run.migration
    );
}

#[test]
fn jittered_tail_from_instantly_finishing_peer_survives_drain() {
    // Regression for a zero-loss hole the fault layer exposed: rank 0
    // receives nothing, so it terminates the moment its sends return —
    // and with jitter armed, its last frame to the migrant is still in
    // flight behind a modeled wire delay. The drain loop prunes the
    // terminated peer (it can never produce an end_of_messages marker);
    // it must then wait out the staged backlog before closing the
    // channels, or that in-flight frame is lost.
    // Heavy jitter (up to 30 modeled seconds per frame) so the frames
    // are still staged when the drain runs; no other traffic, so no
    // live peer's marker exchange holds the drain open long enough to
    // mask the race.
    let plan = FaultPlan::new(97).rule(LinkSel::Any, FaultSpec::none().jitter(1.0, 30.0));
    let mut sc = pinned(97, 2, 1, 0, plan);
    sc.msgs = vec![vec![0, 4], vec![0, 0]];
    let run = run_scenario(&sc);
    assert_clean(&run);
    assert!(
        fault_total(&run, "delay") > 0,
        "jitter never fired: {:?}",
        run.fault_counts
    );
    assert!(run.migration.starts_with("completed"), "{}", run.migration);
}

#[test]
fn digest_is_invariant_to_fault_outcome_noise() {
    // Same traffic under two different fault plans (pure jitter vs
    // none): §4's zero-loss + FIFO guarantees make the delivery lanes —
    // and hence everything the digest hashes beyond the scenario line —
    // identical.
    let quiet = pinned(95, 2, 0, 100, FaultPlan::new(95));
    let noisy = pinned(
        95,
        2,
        0,
        100,
        FaultPlan::new(95).rule(LinkSel::Any, FaultSpec::none().jitter(0.9, 1.5)),
    );
    let a = run_scenario(&quiet);
    let b = run_scenario(&noisy);
    assert_clean(&a);
    assert_clean(&b);
    // Digests differ only through the plan line of the canonical
    // scenario string — strip that by comparing delivery lanes instead.
    let lanes = |run: &ChaosRun| {
        let mut v: Vec<(String, usize, i32, usize)> = run
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                snow_trace::EventKind::RecvDone {
                    from, tag, bytes, ..
                } => Some((e.who.clone(), *from, *tag, *bytes)),
                _ => None,
            })
            .collect();
        v.sort();
        v
    };
    assert_eq!(
        lanes(&a),
        lanes(&b),
        "jitter must not change what anyone received"
    );
}
