//! Dynamic membership (§2): hosts join and leave the virtual machine;
//! the protocols leave *no residual dependency* on departed hosts —
//! "data communication between the migrating process and others can be
//! done without existence of old hosts".
//!
//! Choreography is event-driven: processes park on
//! [`support::await_migration`] for the scheduler's signal and on
//! shared [`Barrier`]s for harness-side membership changes, instead of
//! the fixed settle-sleeps this suite used to carry (which went flaky
//! the moment a loaded CI runner stretched past the guessed budget).

mod support;

use bytes::Bytes;
use snow::prelude::*;
use snow::vm::process::EnvError;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// After rank 0 migrates away, its source host leaves entirely; a peer
/// that has never spoken to rank 0 can still reach it (via scheduler
/// redirect, not via the old host).
#[test]
fn source_host_can_leave_after_migration() {
    let comp = Computation::builder().hosts(HostSpec::ideal(), 4).build();
    let old_host = comp.hosts()[1];
    let spare = comp.hosts()[3];

    // Rank 1 holds its send until the harness has migrated rank 0 *and*
    // removed the source host, so the message provably cannot ride any
    // route through the departed workstation.
    let host_gone = Arc::new(Barrier::new(2));
    let host_gone_app = Arc::clone(&host_gone);

    // Explicit placement: scheduler shares hosts[0]; rank 0 on
    // hosts[1], rank 1 on hosts[2].
    let placement = vec![comp.hosts()[1], comp.hosts()[2]];
    let handles = comp.launch_placed(&placement, move |mut p, start| match (p.rank(), start) {
        (0, Start::Fresh) => {
            support::await_migration(&mut p);
            p.migrate(&ProcessState::empty())
                .unwrap()
                .expect_completed();
        }
        (0, Start::Resumed(_)) => {
            let (_s, _t, b) = p.recv(Some(1), None).unwrap();
            assert_eq!(&b[..], b"post-leave");
            p.finish();
        }
        (1, Start::Fresh) => {
            host_gone_app.wait();
            p.send(0, 1, Bytes::from_static(b"post-leave")).unwrap();
            p.finish();
        }
        _ => unreachable!(),
    });

    comp.migrate(0, spare).expect("migration commits");
    // The source workstation resigns from the virtual machine.
    comp.vm().remove_host(old_host);
    assert!(!comp.vm().has_host(old_host));
    host_gone.wait();

    for h in handles {
        h.join().unwrap();
    }
    comp.join_init_processes();
}

/// A host that joins *after* launch can be a migration destination.
#[test]
fn late_joining_host_receives_migrant() {
    let comp = Computation::builder().hosts(HostSpec::ideal(), 2).build();

    // Rank 1 holds its greeting until the migrant has landed on the
    // newcomer, so delivery must route to the late-joined host.
    let landed = Arc::new(Barrier::new(2));
    let landed_app = Arc::clone(&landed);

    let handles = comp.launch(2, move |mut p, start| match (p.rank(), start) {
        (0, Start::Fresh) => {
            support::await_migration(&mut p);
            p.migrate(&ProcessState::empty())
                .unwrap()
                .expect_completed();
        }
        (0, Start::Resumed(_)) => {
            let (_s, _t, b) = p.recv(Some(1), None).unwrap();
            assert_eq!(&b[..], b"hello newcomer");
            p.finish();
        }
        (1, Start::Fresh) => {
            landed_app.wait();
            p.send(0, 1, Bytes::from_static(b"hello newcomer")).unwrap();
            p.finish();
        }
        _ => unreachable!(),
    });

    // The newcomer joins mid-run and immediately hosts the migrant.
    let newcomer = comp.vm().add_host(HostSpec::ultra5());
    let new_vmid = comp.migrate(0, newcomer).expect("migration commits");
    assert_eq!(new_vmid.host, newcomer);
    landed.wait();

    for h in handles {
        h.join().unwrap();
    }
    comp.join_init_processes();
}

/// Sending toward a vanished host (left without migration) surfaces a
/// clean error — the requester's daemon rejects on behalf of the
/// missing target daemon — and both drivers of the connect machine
/// reach the same verdict.
#[test]
fn vanished_host_yields_nack_not_hang() {
    for driver in support::Driver::BOTH {
        send_into_vanished_host(driver);
    }
}

fn send_into_vanished_host(driver: support::Driver) {
    let comp = Computation::builder().hosts(HostSpec::ideal(), 3).build();
    let victim_host = comp.hosts()[1];

    // Rank 1 sends only after the harness has yanked the victim host;
    // rank 0 lingers (alive, never telling the scheduler it terminated)
    // until rank 1 has observed the failure.
    let removed = Arc::new(Barrier::new(2));
    let removed_app = Arc::clone(&removed);
    let probed = Arc::new(Barrier::new(2));

    let probed_app = Arc::clone(&probed);
    let placement = vec![comp.hosts()[1], comp.hosts()[2]];
    let handles = comp.launch_placed(&placement, move |mut p, _start| match p.rank() {
        0 => {
            // Just linger; the host is yanked from under us.
            probed_app.wait();
        }
        1 => {
            removed_app.wait();
            // rank 0's host is gone and rank 0 never told the scheduler
            // it terminated: the re-lookup still names the departed
            // host, so the daemon's rejection surfaces as HostGone —
            // never a hang or a silent drop.
            let t0 = Instant::now();
            let r = driver.send(&mut p, 0, 1, Bytes::from_static(b"?"));
            let took = t0.elapsed();
            probed_app.wait();
            assert!(
                matches!(r, Err(ProtoError::Env(EnvError::HostGone(h))) if h == victim_host),
                "{driver:?}: send into a vanished host gave {r:?}"
            );
            assert!(
                took < Duration::from_secs(5),
                "{driver:?}: verdict took {took:?}"
            );
        }
        _ => unreachable!(),
    });

    // launch_placed only returns once every rank is registered and
    // running, so the removal below always races *behind* placement.
    comp.vm().remove_host(victim_host);
    removed.wait();
    for h in handles {
        h.join().unwrap();
    }
    comp.join_init_processes();
}
