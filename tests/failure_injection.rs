//! Failure injection beyond the paper's failure model: peers dying
//! uncoordinated, destination hosts vanishing mid-migration, old hosts
//! leaving in waves. The protocol must *surface* such failures (error
//! or completed-with-pruning), never hang or silently corrupt.

use bytes::Bytes;
use snow::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::Duration;

mod support;
use support::await_migration;

/// A connected peer dies (thread exits without coordination) while we
/// migrate: the liveness pruning in the drain loop notices the dead
/// peer and the migration still completes.
#[test]
fn peer_dies_mid_coordination() {
    let comp = Computation::builder().hosts(HostSpec::ideal(), 3).build();
    let spare = comp.hosts()[2];

    let handles = comp.launch(2, move |mut p, start| match (p.rank(), start) {
        (0, Start::Fresh) => {
            // Connect to rank 1 (receive its hello), then migrate. By
            // then rank 1 is gone and will never send end_of_messages.
            let _ = p.recv(Some(1), Some(1)).unwrap();
            // Give rank 1 time to exit.
            std::thread::sleep(Duration::from_millis(50));
            await_migration(&mut p);
            let t = p
                .migrate(&ProcessState::empty())
                .unwrap()
                .expect_completed();
            assert!(t.serial_total_s() >= 0.0);
        }
        (0, Start::Resumed(_)) => {
            p.finish();
        }
        (1, Start::Fresh) => {
            p.send(0, 1, Bytes::from_static(b"hello")).unwrap();
            // Die abruptly: no finish(), no coordination.
        }
        _ => unreachable!(),
    });

    comp.migrate(0, spare)
        .expect("migration completes despite the dead peer");
    for h in handles {
        h.join().unwrap();
    }
    comp.join_init_processes();
}

/// The destination host is removed while the migrating process is
/// transferring state: the migrating side either wins the race and
/// commits, or aborts cleanly and resumes in place — never hangs,
/// never surfaces a hard error.
#[test]
fn destination_vanishes_mid_migration() {
    let comp = Computation::builder().hosts(HostSpec::ideal(), 3).build();
    let doomed = comp.hosts()[2];
    let outcome: Arc<Mutex<Option<&'static str>>> = Arc::new(Mutex::new(None));
    let outcome_w = Arc::clone(&outcome);

    let handles = comp.launch(1, move |mut p, start| match start {
        Start::Fresh => {
            await_migration(&mut p);
            // Carry a large state so the destination's death can land
            // during or before transfer.
            let mut state = ProcessState::empty();
            state.pad_to(2_000_000);
            match p.migrate(&state).expect("failures abort, not error") {
                MigrationOutcome::Completed(_) => {
                    *outcome_w.lock().unwrap() = Some("completed");
                }
                MigrationOutcome::Aborted(a) => {
                    // The rollback handed the process back; it must be
                    // fully usable — finish proves the scheduler still
                    // knows it by its pre-migration identity.
                    a.process.finish();
                    *outcome_w.lock().unwrap() = Some("aborted");
                }
            }
        }
        Start::Resumed(_) => {
            // Happens when the removal raced the transfer completion.
            p.finish();
        }
    });

    comp.migrate_async(0, doomed).unwrap();
    // Yank the destination once the migration is under way.
    std::thread::sleep(Duration::from_millis(20));
    comp.vm().remove_host(doomed);

    for h in handles {
        h.join().unwrap();
    }
    // Deliberately NOT joining the initialized process: if the removal
    // caught it mid-handshake it only unblocks at its 60 s watchdog
    // (threads of a removed host are orphaned, not killed — like a real
    // workstation that lost its network, not its power).
    let got = *outcome.lock().unwrap();
    assert!(
        matches!(got, Some("completed") | Some("aborted")),
        "migrating process must have reported, got {got:?}"
    );
}

/// Waves of migrations with the abandoned source hosts leaving after
/// each wave; traffic keeps flowing to the migrant throughout.
#[test]
fn host_leave_waves() {
    const WAVES: usize = 3;
    let comp = Computation::builder()
        .hosts(HostSpec::ideal(), WAVES + 3)
        .build();
    // rank 0 hops: hosts[1] → hosts[2] → ... ; rank 1 stays on the last
    // host and keeps sending.
    let sender_host = comp.hosts()[WAVES + 2];
    let placement = vec![comp.hosts()[1], sender_host];

    let handles = comp.launch_placed(&placement, move |mut p, start| {
        match (p.rank(), start) {
            (0, Start::Fresh) => {
                let (_s, _t, b) = p.recv(Some(1), None).unwrap();
                assert_eq!(&b[..], b"wave 0");
                await_migration(&mut p);
                let state = ProcessState::new(
                    ExecState::at_entry().with_local("wave", snow::codec::Value::U64(1)),
                    MemoryGraph::new(),
                );
                p.migrate(&state).unwrap().expect_completed();
            }
            (0, Start::Resumed(state)) => {
                let wave = state
                    .exec
                    .local("wave")
                    .and_then(snow::codec::Value::as_u64)
                    .unwrap() as usize;
                let (_s, _t, b) = p.recv(Some(1), None).unwrap();
                assert_eq!(b, format!("wave {wave}").as_bytes());
                if wave < WAVES {
                    await_migration(&mut p);
                    let state = ProcessState::new(
                        ExecState::at_entry()
                            .with_local("wave", snow::codec::Value::U64(wave as u64 + 1)),
                        MemoryGraph::new(),
                    );
                    p.migrate(&state).unwrap().expect_completed();
                } else {
                    p.finish();
                }
            }
            (1, Start::Fresh) => {
                for wave in 0..=WAVES {
                    // Sends across ever-changing locations; the protocol
                    // re-resolves as needed.
                    p.send(0, 1, Bytes::from(format!("wave {wave}").into_bytes()))
                        .unwrap();
                    // Pace the waves so each lands after the hop.
                    std::thread::sleep(Duration::from_millis(30));
                }
                p.finish();
            }
            _ => unreachable!(),
        }
    });

    let mut old = comp.hosts()[1];
    for wave in 0..WAVES {
        let dest = comp.hosts()[2 + wave];
        comp.migrate(0, dest).expect("wave migration commits");
        // The abandoned source resigns from the virtual machine.
        comp.vm().remove_host(old);
        assert!(!comp.vm().has_host(old));
        old = dest;
    }
    for h in handles {
        h.join().unwrap();
    }
    comp.join_init_processes();
}

/// A message with an empty payload and one over a megabyte cross a
/// migration unharmed (size edge cases through RML forwarding).
#[test]
fn payload_size_edges_across_migration() {
    let comp = Computation::builder().hosts(HostSpec::ideal(), 2).build();
    let spare = comp.hosts()[1];
    let big = vec![0xabu8; 1 << 20];
    let big2 = big.clone();

    let handles = comp.launch(2, move |mut p, start| match (p.rank(), start) {
        (0, Start::Fresh) => {
            let _ = p.recv(Some(1), Some(9)).unwrap(); // "go" only
            assert!(p.rml_len() >= 2, "empty+big buffered");
            await_migration(&mut p);
            let t = p
                .migrate(&ProcessState::empty())
                .unwrap()
                .expect_completed();
            assert!(t.rml_forwarded >= 2);
        }
        (0, Start::Resumed(_)) => {
            let (_s, _t, b0) = p.recv(Some(1), Some(1)).unwrap();
            assert_eq!(b0.len(), 0);
            let (_s, _t, b1) = p.recv(Some(1), Some(2)).unwrap();
            assert_eq!(b1.len(), 1 << 20);
            assert!(b1.iter().all(|&x| x == 0xab));
            p.finish();
        }
        (1, Start::Fresh) => {
            p.send(0, 1, Bytes::new()).unwrap();
            p.send(0, 2, Bytes::from(big2.clone())).unwrap();
            p.send(0, 9, Bytes::from_static(b"go")).unwrap();
            p.finish();
        }
        _ => unreachable!(),
    });

    comp.migrate(0, spare).unwrap();
    for h in handles {
        h.join().unwrap();
    }
    comp.join_init_processes();
}

/// Regression for a deadlock found by the `snow-model` schedule
/// explorer: a migration is ordered for a rank that is *blocked in
/// recv*. The PL table must keep naming the (still accepting) old
/// process until `migration_start`, so the wanted message reaches it,
/// it progresses to a poll point, and only then migrates. Redirecting
/// at order time would starve it forever.
#[test]
fn migration_ordered_while_blocked_in_recv() {
    let comp = Computation::builder().hosts(HostSpec::ideal(), 3).build();
    let spare = comp.hosts()[2];

    let handles = comp.launch(2, move |mut p, start| match (p.rank(), start) {
        (0, Start::Fresh) => {
            // Block in recv BEFORE any migration polling; the unblocking
            // message is sent only after the migration order is placed.
            let (_s, _t, b) = p.recv(Some(1), Some(1)).unwrap();
            assert_eq!(&b[..], b"unblock");
            await_migration(&mut p);
            p.migrate(&ProcessState::empty())
                .unwrap()
                .expect_completed();
        }
        (0, Start::Resumed(_)) => {
            let (_s, _t, b) = p.recv(Some(1), Some(2)).unwrap();
            assert_eq!(&b[..], b"after");
            p.finish();
        }
        (1, Start::Fresh) => {
            // Wait until the migration order is surely in flight, then
            // send the message rank 0 is blocked on. It must reach the
            // OLD process (fresh connection, PL not yet flipped).
            std::thread::sleep(Duration::from_millis(60));
            p.send(0, 1, Bytes::from_static(b"unblock")).unwrap();
            std::thread::sleep(Duration::from_millis(60));
            p.send(0, 2, Bytes::from_static(b"after")).unwrap();
            p.finish();
        }
        _ => unreachable!(),
    });

    // Order the migration while rank 0 is still blocked.
    comp.migrate_async(0, spare).unwrap();
    let v = comp.wait_migration_done(0).expect("no starvation deadlock");
    assert_eq!(v.host, spare);
    for h in handles {
        h.join().unwrap();
    }
    comp.join_init_processes();
}
