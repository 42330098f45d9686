//! End-to-end migration smoke tests: a rank migrates mid-computation
//! while peers keep sending to it; delivery, ordering and resumption are
//! checked.

use bytes::Bytes;
use snow_codec::Value;
use snow_core::{Computation, SnowProcess, Start};
use snow_state::{ExecState, MemoryGraph, ProcessState};
use snow_vm::HostSpec;
use std::time::Duration;

/// Spin at poll points until the migration request arrives (the
/// deterministic analogue of "the signal interrupts a computation
/// event").
fn await_migration(p: &mut SnowProcess) {
    while !p.poll_point().unwrap() {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Rank 0 receives the first half of a numbered stream from rank 1,
/// migrates (with messages still in flight), and receives the rest on
/// the new host in order. Rank 1 has no prior knowledge of the
/// migration; connection nacks redirect it on demand.
#[test]
fn receiver_migrates_mid_stream() {
    const ROUNDS: u64 = 40;
    const MIGRATE_AT: u64 = 13;
    let comp = Computation::builder().hosts(HostSpec::ideal(), 3).build();
    let spare = comp.hosts()[2];

    fn receive_range(p: &mut SnowProcess, from: u64, to: u64) {
        for i in from..to {
            let (_src, _tag, body) = p.recv(Some(1), Some(5)).unwrap();
            let got = u64::from_be_bytes(body[..8].try_into().unwrap());
            assert_eq!(got, i, "message order broken across migration");
        }
    }

    let handles = comp.launch(2, move |mut p, start| {
        match (p.rank(), start) {
            (0, Start::Fresh) => {
                receive_range(&mut p, 0, MIGRATE_AT);
                await_migration(&mut p);
                let state = ProcessState::new(
                    ExecState::at_entry()
                        .enter("receive_range")
                        .with_local("next", Value::U64(MIGRATE_AT)),
                    MemoryGraph::new(),
                );
                let t = p.migrate(&state).unwrap().expect_completed();
                assert!(t.serial_total_s() >= 0.0);
                // Fig 5 line 11: the migrating process terminates.
            }
            (0, Start::Resumed(state)) => {
                let next = state
                    .exec
                    .local("next")
                    .and_then(Value::as_u64)
                    .expect("restored poll-point state");
                receive_range(&mut p, next, ROUNDS);
                p.finish();
            }
            (1, Start::Fresh) => {
                for i in 0..ROUNDS {
                    p.send(0, 5, Bytes::copy_from_slice(&i.to_be_bytes()))
                        .unwrap();
                    p.poll_point().unwrap();
                }
                p.finish();
            }
            _ => unreachable!(),
        }
    });

    let new_vmid = comp.migrate(0, spare).expect("migration commits");
    assert_eq!(new_vmid.host, spare);

    for h in handles {
        h.join().unwrap();
    }
    comp.join_init_processes();

    let recs = comp.migration_records();
    assert_eq!(recs.len(), 1);
    assert!(recs[0].total_seconds().unwrap() >= 0.0);
}

/// The sender migrates instead: messages sent before and after the
/// migration arrive in order at a stationary receiver (Lemma 2).
#[test]
fn sender_migrates_mid_stream() {
    const ROUNDS: u64 = 30;
    const MIGRATE_AT: u64 = 11;
    let comp = Computation::builder().hosts(HostSpec::ideal(), 3).build();
    let spare = comp.hosts()[2];

    let handles = comp.launch(2, move |mut p, start| match (p.rank(), start) {
        (0, Start::Fresh) => {
            for i in 0..ROUNDS {
                let (_s, _t, body) = p.recv(Some(1), None).unwrap();
                let got = u64::from_be_bytes(body[..8].try_into().unwrap());
                assert_eq!(got, i, "sender migration broke ordering");
            }
            p.finish();
        }
        (1, Start::Fresh) => {
            for i in 0..MIGRATE_AT {
                p.send(0, 1, Bytes::copy_from_slice(&i.to_be_bytes()))
                    .unwrap();
            }
            await_migration(&mut p);
            let state = ProcessState::new(
                ExecState::at_entry().with_local("i", Value::U64(MIGRATE_AT)),
                MemoryGraph::new(),
            );
            p.migrate(&state).unwrap().expect_completed();
        }
        (1, Start::Resumed(state)) => {
            let from = state.exec.local("i").and_then(Value::as_u64).unwrap();
            assert_eq!(from, MIGRATE_AT);
            for i in from..ROUNDS {
                p.send(0, 1, Bytes::copy_from_slice(&i.to_be_bytes()))
                    .unwrap();
            }
            p.finish();
        }
        _ => unreachable!(),
    });

    comp.migrate(1, spare).expect("migration commits");
    for h in handles {
        h.join().unwrap();
    }
    comp.join_init_processes();
}

/// Migrating a process that holds buffered-but-unread messages forwards
/// them: nothing is lost and order is preserved (Theorem 2 + 3).
#[test]
fn rml_contents_forwarded_on_migration() {
    let comp = Computation::builder().hosts(HostSpec::ideal(), 2).build();
    let spare = comp.hosts()[1];

    let handles = comp.launch(2, move |mut p, start| match (p.rank(), start) {
        (0, Start::Fresh) => {
            // Receive ONLY the tag-9 message first, forcing the tag-7
            // messages into the RML, then migrate with them buffered.
            let (_s, t, _b) = p.recv(Some(1), Some(9)).unwrap();
            assert_eq!(t, 9);
            assert!(p.rml_len() >= 3, "tag-7 messages should be buffered");
            await_migration(&mut p);
            let timings = p
                .migrate(&ProcessState::empty())
                .unwrap()
                .expect_completed();
            assert!(timings.rml_forwarded >= 3, "RML must be forwarded");
        }
        (0, Start::Resumed(_)) => {
            for expect in 0u8..3 {
                let (_s, _t, body) = p.recv(Some(1), Some(7)).unwrap();
                assert_eq!(body[0], expect, "forwarded RML order broken");
            }
            p.finish();
        }
        (1, Start::Fresh) => {
            for i in 0u8..3 {
                p.send(0, 7, Bytes::from(vec![i])).unwrap();
            }
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
