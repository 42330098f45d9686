//! The abort/rollback protocol: migrations whose destination fails
//! mid-transfer roll back and hand the process back to the source
//! (`MigrationOutcome::Aborted`), with the drained RML restored — no
//! message lost, FIFO intact — or, under a retry policy, re-target an
//! alternate live host and still commit.

mod support;

use bytes::Bytes;
use snow::prelude::*;
use snow::sched::MigrationPhase;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use support::await_migration;

fn spin_until(flag: &AtomicBool) {
    while !flag.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The destination fails after the migration is ordered but before the
/// transfer starts: either its host leaves the virtual machine, or the
/// destination process alone is gone while its host stays up (every
/// state-transfer `conn_req` is then nacked). Either way the source
/// aborts within seconds, rolls back, and resumes in place. The messages
/// rank 1 sent before the migration survive the drain → rollback round
/// trip unharmed and in order, and the resumed source still exchanges
/// traffic both ways.
#[test]
fn destination_vanishes_source_resumes_without_loss() {
    for retire_process_only in [false, true] {
        let tracer = Tracer::new();
        let comp = Computation::builder()
            .hosts(HostSpec::ideal(), 4)
            .tracer(tracer.clone())
            .build();
        let doomed = comp.hosts()[3];
        let ready = Arc::new(AtomicBool::new(false));
        let go = Arc::new(AtomicBool::new(false));
        let (ready_t, go_t) = (Arc::clone(&ready), Arc::clone(&go));

        let handles = comp.launch(2, move |mut p, start| match (p.rank(), start) {
            (0, Start::Fresh) => {
                // Consume m1 (this also opens the rank 1 connection);
                // m2..m4 stay buffered in the RML and ride through the
                // migration drain.
                let (_s, t, _b) = p.recv(Some(1), Some(1)).unwrap();
                assert_eq!(t, 1);
                await_migration(&mut p);
                // Tell the harness the migration order landed, then wait
                // for it to take the destination down before we transfer.
                ready_t.store(true, Ordering::Release);
                spin_until(&go_t);
                let mut state = ProcessState::empty();
                state.pad_to(100_000);
                let t0 = Instant::now();
                let aborted = match p.migrate(&state).unwrap() {
                    MigrationOutcome::Aborted(a) => a,
                    MigrationOutcome::Completed(_) => {
                        panic!("the destination was gone before the transfer began")
                    }
                };
                assert!(
                    t0.elapsed() < Duration::from_secs(5),
                    "abort took {:?}: {}",
                    t0.elapsed(),
                    aborted.reason
                );
                assert_eq!(aborted.attempts, 1, "no retry policy installed");
                assert!(
                    aborted.rml_restored >= 3,
                    "m2..m4 must be restored, got {}",
                    aborted.rml_restored
                );
                let mut p = aborted.process;
                // Zero loss + FIFO: the buffered burst survives the
                // rollback in send order.
                for expect in 2..=4 {
                    let (_s, tag, b) = p.recv(Some(1), None).unwrap();
                    assert_eq!(tag, expect);
                    assert_eq!(&b[..], format!("m{expect}").as_bytes());
                }
                // The resumed source keeps communicating in both
                // directions.
                p.send(1, 9, Bytes::from_static(b"ping")).unwrap();
                let (_s, _t, b) = p.recv(Some(1), Some(10)).unwrap();
                assert_eq!(&b[..], b"pong");
                p.finish();
            }
            (0, Start::Resumed(_)) => unreachable!("the migration must abort, not complete"),
            (1, Start::Fresh) => {
                for t in 1..=4 {
                    p.send(0, t, Bytes::from(format!("m{t}").into_bytes()))
                        .unwrap();
                }
                let (_s, _t, b) = p.recv(Some(0), Some(9)).unwrap();
                assert_eq!(&b[..], b"ping");
                p.send(0, 10, Bytes::from_static(b"pong")).unwrap();
                p.finish();
            }
            _ => unreachable!(),
        });

        comp.migrate_async(0, doomed).unwrap();
        spin_until(&ready);
        if retire_process_only {
            let dest = comp
                .migration_records()
                .into_iter()
                .find(|r| r.rank == 0)
                .expect("migration was recorded")
                .new_vmid;
            assert_eq!(dest.host, doomed);
            comp.vm().retire(dest);
        } else {
            comp.vm().remove_host(doomed);
        }
        go.store(true, Ordering::Release);

        let err = comp
            .wait_migration_done(0)
            .expect_err("the migration must abort, not commit");
        assert!(err.contains("aborted"), "{err}");
        for h in handles {
            h.join().unwrap();
        }
        // Deliberately NOT joining init processes: the orphaned
        // destination process only unblocks at its watchdog (a
        // workstation that lost its network, not its power, or a process
        // whose registration vanished).
        let name = if retire_process_only {
            "abort_destination_retired"
        } else {
            "abort_destination_vanishes"
        };
        support::audit_and_export(&tracer, name);
    }
}

/// A corrupted chunk makes the destination reject the transfer; with a
/// retry policy installed the scheduler re-targets an alternate live
/// host and the second attempt commits there.
#[test]
fn corrupted_chunk_retries_on_alternate_host() {
    let tracer = Tracer::new();
    let comp = Computation::builder()
        .hosts(HostSpec::ideal(), 4)
        .tracer(tracer.clone())
        .pipeline(PipelineConfig {
            chunk_bytes: 4096,
            workers: 2,
        })
        .migration_retry(RetryPolicy {
            max_attempts: 3,
            backoff: Duration::from_millis(2),
            ..RetryPolicy::default()
        })
        .build();
    let target = comp.hosts()[2];

    let handles = comp.launch(1, move |mut p, start| match start {
        Start::Fresh => {
            await_migration(&mut p);
            // The first transfer attempt misdeclares the checksum of
            // chunk 0; the destination rejects the stream and negative-
            // acks. The injection is one-shot, so the retry is clean.
            p.inject_chunk_corruption(0);
            let mut state = ProcessState::empty();
            state.pad_to(20_000);
            p.migrate(&state).unwrap().expect_completed();
        }
        Start::Resumed(_) => p.finish(),
    });

    let new_vmid = comp
        .migrate(0, target)
        .expect("the retry policy completes the migration");
    assert_ne!(new_vmid.host, target, "committed on an alternate host");
    assert_eq!(
        new_vmid.host,
        comp.hosts()[1],
        "lowest-id live host excluding the source's and the failed one"
    );

    let rec = comp
        .migration_records()
        .into_iter()
        .rev()
        .find(|r| r.rank == 0)
        .expect("migration was recorded");
    assert_eq!(rec.attempts, 2, "one failed + one clean attempt");
    assert!(rec.reached(MigrationPhase::Retried));
    assert!(rec.reached(MigrationPhase::Committed));
    assert!(!rec.reached(MigrationPhase::Aborted));

    for h in handles {
        h.join().unwrap();
    }
    comp.join_init_processes();
    support::audit_and_export(&tracer, "abort_corrupted_chunk_retry");
    // The retry must surface in the metrics registry with its cause.
    let migs = tracer.metrics().migrations();
    let m = migs.iter().find(|m| m.rank == 0).expect("metrics recorded");
    assert_eq!(m.attempts, 2);
    assert_eq!(m.retry_causes.len(), 1, "one failed attempt: {m:?}");
}

/// Two ranks migrate simultaneously; rank 0's transfer is corrupted
/// (and no retry policy is installed) so it aborts and resumes in
/// place, while rank 1's commits. The aborted source then exchanges
/// messages with the *migrated* rank 1 — the rollback re-announcement
/// and the post-commit PL updates compose.
#[test]
fn simultaneous_migration_one_side_aborts() {
    let tracer = Tracer::new();
    let comp = Computation::builder()
        .hosts(HostSpec::ideal(), 4)
        .tracer(tracer.clone())
        .pipeline(PipelineConfig {
            chunk_bytes: 4096,
            workers: 2,
        })
        .build();
    let (dest0, dest1) = (comp.hosts()[2], comp.hosts()[3]);

    let handles = comp.launch(2, move |mut p, start| match (p.rank(), start) {
        (0, Start::Fresh) => {
            // Connect both ways before the simultaneous migrations.
            p.send(1, 1, Bytes::from_static(b"hello")).unwrap();
            let _ = p.recv(Some(1), Some(1)).unwrap();
            await_migration(&mut p);
            p.inject_chunk_corruption(0);
            let mut state = ProcessState::empty();
            state.pad_to(10_000);
            let aborted = match p.migrate(&state).unwrap() {
                MigrationOutcome::Aborted(a) => a,
                MigrationOutcome::Completed(_) => {
                    panic!("the corrupted transfer must abort without a retry policy")
                }
            };
            let mut p = aborted.process;
            // The resumed source talks to the migrated rank 1.
            p.send(1, 2, Bytes::from_static(b"ping")).unwrap();
            let (_s, _t, b) = p.recv(Some(1), Some(3)).unwrap();
            assert_eq!(&b[..], b"pong");
            p.finish();
        }
        (0, Start::Resumed(_)) => unreachable!("rank 0's migration must abort"),
        (1, Start::Fresh) => {
            p.send(0, 1, Bytes::from_static(b"hello")).unwrap();
            let _ = p.recv(Some(0), Some(1)).unwrap();
            await_migration(&mut p);
            p.migrate(&ProcessState::empty())
                .unwrap()
                .expect_completed();
        }
        (1, Start::Resumed(_)) => {
            let (_s, _t, b) = p.recv(Some(0), Some(2)).unwrap();
            assert_eq!(&b[..], b"ping");
            p.send(0, 3, Bytes::from_static(b"pong")).unwrap();
            p.finish();
        }
        _ => unreachable!(),
    });

    comp.migrate_async(0, dest0).unwrap();
    comp.migrate_async(1, dest1).unwrap();

    let v1 = comp
        .wait_migration_done(1)
        .expect("rank 1's migration commits");
    assert_eq!(v1.host, dest1);
    let err = comp
        .wait_migration_done(0)
        .expect_err("rank 0's migration aborts");
    assert!(err.contains("aborted"), "{err}");

    for h in handles {
        h.join().unwrap();
    }
    comp.join_init_processes();
    support::audit_and_export(&tracer, "abort_simultaneous_one_aborts");
    // One aborted, one committed migration in the registry.
    let migs = tracer.metrics().migrations();
    assert!(migs.iter().any(|m| m.rank == 0 && m.abort_cause.is_some()));
    assert!(migs.iter().any(|m| m.rank == 1 && m.abort_cause.is_none()));
}
