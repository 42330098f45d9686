//! Theorem 4 (§4.3): the guarantees extend to *simultaneous*
//! migrations — two connected processes migrating at once exchange
//! `peer_migrating` markers and each treats the other's marker as the
//! channel close. Also exercises repeated migrations of the same rank
//! (the mobility the title promises).

mod support;

use bytes::Bytes;
use snow::prelude::*;
use std::time::Duration;

fn await_migration(p: &mut SnowProcess) {
    while !p.poll_point().unwrap() {
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn seq_payload(i: u64) -> Bytes {
    Bytes::copy_from_slice(&i.to_be_bytes())
}

fn seq_of(b: &[u8]) -> u64 {
    u64::from_be_bytes(b[..8].try_into().unwrap())
}

/// Two connected processes exchange numbered messages, both migrate at
/// the same time, then finish the exchange. Order and delivery hold on
/// both sides.
#[test]
fn both_ends_migrate_simultaneously() {
    const HALF: u64 = 10;
    let tracer = Tracer::new();
    let comp = Computation::builder()
        .hosts(HostSpec::ideal(), 4)
        .tracer(tracer.clone())
        .build();
    let (d0, d1) = (comp.hosts()[2], comp.hosts()[3]);

    let phase = move |p: &mut SnowProcess, from: u64, to: u64| {
        let other = 1 - p.rank();
        for i in from..to {
            p.send(other, 5, seq_payload(i)).unwrap();
        }
        for i in from..to {
            let (_s, _t, b) = p.recv(Some(other), Some(5)).unwrap();
            assert_eq!(seq_of(&b), i, "rank {} reorder", p.rank());
        }
    };

    let handles = comp.launch(2, move |mut p, start| match start {
        Start::Fresh => {
            phase(&mut p, 0, HALF);
            await_migration(&mut p);
            let t = p
                .migrate(&ProcessState::empty())
                .unwrap()
                .expect_completed();
            assert!(t.serial_total_s() >= 0.0);
        }
        Start::Resumed(_) => {
            phase(&mut p, HALF, 2 * HALF);
            p.finish();
        }
    });

    // Fire both migrations without waiting in between.
    comp.migrate_async(0, d0).unwrap();
    comp.migrate_async(1, d1).unwrap();
    let v0 = comp.wait_migration_done(0).unwrap();
    let v1 = comp.wait_migration_done(1).unwrap();
    assert_eq!(v0.host, d0);
    assert_eq!(v1.host, d1);

    for h in handles {
        h.join().unwrap();
    }
    comp.join_init_processes();
    let st = SpaceTime::build(tracer.snapshot());
    assert!(st.undelivered().is_empty(), "{:?}", st.undelivered());
    assert!(st.duplicate_receives().is_empty());
    assert!(st.fifo_violations().is_empty());
    support::audit_and_export(&tracer, "simultaneous_both_ends");
}

/// A rank migrates twice in a row (old hosts differ each time); peers
/// keep reaching it via on-demand location updates.
#[test]
fn repeated_migration_of_one_rank() {
    const LEG: u64 = 8;
    let tracer = Tracer::new();
    let comp = Computation::builder()
        .hosts(HostSpec::ideal(), 4)
        .tracer(tracer.clone())
        .build();
    let (d1, d2) = (comp.hosts()[2], comp.hosts()[3]);

    let handles = comp.launch(2, move |mut p, start| match (p.rank(), start) {
        (0, Start::Fresh) => {
            for i in 0..LEG {
                let (_s, _t, b) = p.recv(Some(1), Some(5)).unwrap();
                assert_eq!(seq_of(&b), i);
            }
            await_migration(&mut p);
            let state = ProcessState::new(
                ExecState::at_entry().with_local("leg", snow::codec::Value::U64(1)),
                MemoryGraph::new(),
            );
            p.migrate(&state).unwrap().expect_completed();
        }
        (0, Start::Resumed(state)) => {
            let leg = state
                .exec
                .local("leg")
                .and_then(snow::codec::Value::as_u64)
                .unwrap();
            let base = leg * LEG;
            for i in base..base + LEG {
                let (_s, _t, b) = p.recv(Some(1), Some(5)).unwrap();
                assert_eq!(seq_of(&b), i);
            }
            if leg == 1 {
                await_migration(&mut p);
                let state = ProcessState::new(
                    ExecState::at_entry().with_local("leg", snow::codec::Value::U64(2)),
                    MemoryGraph::new(),
                );
                p.migrate(&state).unwrap().expect_completed();
            } else {
                p.finish();
            }
        }
        (1, Start::Fresh) => {
            for i in 0..3 * LEG {
                p.send(0, 5, seq_payload(i)).unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
            p.finish();
        }
        _ => unreachable!(),
    });

    comp.migrate(0, d1).expect("first migration");
    comp.migrate(0, d2).expect("second migration");
    for h in handles {
        h.join().unwrap();
    }
    comp.join_init_processes();
    support::audit_and_export(&tracer, "simultaneous_repeated_rank");
}

/// Several ranks of a larger computation migrate concurrently while the
/// rest keep communicating (a "migration storm").
#[test]
fn migration_storm() {
    const N: usize = 5;
    const MSGS: u64 = 12;
    let tracer = Tracer::new();
    let comp = Computation::builder()
        .hosts(HostSpec::ideal(), N + 3)
        .tracer(tracer.clone())
        .build();
    let spares: Vec<HostId> = comp.hosts()[N..N + 3].to_vec();

    // Ring traffic: rank r sends MSGS numbered messages to (r+1)%N and
    // receives MSGS from (r-1)%N, in two halves around a poll point.
    let handles = comp.launch(N, move |mut p, start| {
        let me = p.rank();
        let right = (me + 1) % N;
        let left = (me + N - 1) % N;
        let do_phase = |p: &mut SnowProcess, from: u64, to: u64| {
            for i in from..to {
                p.send(right, 5, seq_payload(i)).unwrap();
            }
            for i in from..to {
                let (_s, _t, b) = p.recv(Some(left), Some(5)).unwrap();
                assert_eq!(seq_of(&b), i, "rank {me}");
            }
        };
        match start {
            Start::Fresh => {
                do_phase(&mut p, 0, MSGS / 2);
                if me < 3 {
                    // The migrating ranks wait for their request here.
                    await_migration(&mut p);
                    p.migrate(&ProcessState::empty())
                        .unwrap()
                        .expect_completed();
                } else {
                    do_phase(&mut p, MSGS / 2, MSGS);
                    p.finish();
                }
            }
            Start::Resumed(_) => {
                do_phase(&mut p, MSGS / 2, MSGS);
                p.finish();
            }
        }
    });

    for (i, spare) in spares.iter().enumerate() {
        comp.migrate_async(i, *spare).unwrap();
    }
    for i in 0..spares.len() {
        comp.wait_migration_done(i).unwrap();
    }
    for h in handles {
        h.join().unwrap();
    }
    comp.join_init_processes();
    let st = SpaceTime::build(tracer.snapshot());
    assert!(st.undelivered().is_empty(), "{:?}", st.undelivered());
    assert!(st.fifo_violations().is_empty());
    support::audit_and_export(&tracer, "simultaneous_storm");
}
