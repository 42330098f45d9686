//! Theorem 2 (§4.2): no message loss because of process migration —
//! every sent message arrives exactly once at its destination. Verified
//! both at the application level (all expected messages received) and
//! at the trace level (no unmatched sends, no duplicate receives).

use bytes::Bytes;
mod support;

use snow::prelude::*;
use std::time::{Duration, Instant};

fn await_migration(p: &mut SnowProcess) {
    while !p.poll_point().unwrap() {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Three senders stream to one receiver; the receiver migrates mid-
/// stream. The trace must show every Send matched by exactly one
/// RecvDone.
#[test]
fn exactly_once_delivery_across_migration() {
    const SENDERS: usize = 3;
    const MSGS: u64 = 30;
    let tracer = Tracer::new();
    let comp = Computation::builder()
        .hosts(HostSpec::ideal(), SENDERS + 2)
        .tracer(tracer.clone())
        .build();
    let spare = comp.hosts()[SENDERS + 1];

    let handles = comp.launch(SENDERS + 1, move |mut p, start| {
        match (p.rank(), start) {
            (0, Start::Fresh) => {
                // Receive a third of the traffic, then migrate.
                for _ in 0..(SENDERS as u64 * MSGS / 3) {
                    let _ = p.recv(None, None).unwrap();
                }
                await_migration(&mut p);
                let done = SENDERS as u64 * MSGS / 3;
                let state = ProcessState::new(
                    ExecState::at_entry().with_local("done", snow::codec::Value::U64(done)),
                    MemoryGraph::new(),
                );
                p.migrate(&state).unwrap().expect_completed();
            }
            (0, Start::Resumed(state)) => {
                let done = state
                    .exec
                    .local("done")
                    .and_then(snow::codec::Value::as_u64)
                    .unwrap();
                for _ in done..SENDERS as u64 * MSGS {
                    let _ = p.recv(None, None).unwrap();
                }
                p.finish();
            }
            (s, Start::Fresh) => {
                for i in 0..MSGS {
                    p.send(0, s as i32, Bytes::copy_from_slice(&i.to_be_bytes()))
                        .unwrap();
                    if i % 7 == 0 {
                        std::thread::yield_now();
                    }
                }
                p.finish();
            }
            _ => unreachable!(),
        }
    });

    comp.migrate(0, spare).expect("migration commits");
    for h in handles {
        h.join().unwrap();
    }
    comp.join_init_processes();

    let st = SpaceTime::build(tracer.snapshot());
    let undelivered = st.undelivered();
    assert!(
        undelivered.is_empty(),
        "lost messages: {:?}",
        undelivered
            .iter()
            .map(|l| (l.msg, l.from.clone(), l.tag))
            .collect::<Vec<_>>()
    );
    assert!(
        st.duplicate_receives().is_empty(),
        "duplicated: {:?}",
        st.duplicate_receives()
    );
    // Total data-message count: SENDERS × MSGS.
    assert_eq!(st.lines().len() as u64, SENDERS as u64 * MSGS);
}

/// Messages buffered in the RML at migration time (received but not yet
/// consumed by the application) are forwarded, not dropped.
#[test]
fn unconsumed_rml_messages_survive() {
    let tracer = Tracer::new();
    let comp = Computation::builder()
        .hosts(HostSpec::ideal(), 3)
        .tracer(tracer.clone())
        .build();
    let spare = comp.hosts()[2];

    let handles = comp.launch(2, move |mut p, start| match (p.rank(), start) {
        (0, Start::Fresh) => {
            // Consume only the "go" message; ten payload messages stay
            // buffered in the RML.
            let _ = p.recv(Some(1), Some(99)).unwrap();
            assert!(p.rml_len() >= 10);
            await_migration(&mut p);
            p.migrate(&ProcessState::empty())
                .unwrap()
                .expect_completed();
        }
        (0, Start::Resumed(_)) => {
            for i in 0u8..10 {
                let (_s, _t, b) = p.recv(Some(1), Some(7)).unwrap();
                assert_eq!(b[0], i);
            }
            p.finish();
        }
        (1, Start::Fresh) => {
            for i in 0u8..10 {
                p.send(0, 7, Bytes::from(vec![i])).unwrap();
            }
            p.send(0, 99, Bytes::from_static(b"go")).unwrap();
            p.finish();
        }
        _ => unreachable!(),
    });

    comp.migrate(0, spare).unwrap();
    for h in handles {
        h.join().unwrap();
    }
    comp.join_init_processes();

    let st = SpaceTime::build(tracer.snapshot());
    assert!(st.undelivered().is_empty());
    // The forwarded batch shows up as an RmlForwarded event with ≥ 10
    // messages.
    let forwarded = st
        .events()
        .iter()
        .find_map(|e| match e.kind {
            snow::trace::EventKind::RmlForwarded { count, .. } => Some(count),
            _ => None,
        })
        .expect("migration must forward the RML");
    assert!(forwarded >= 10, "only {forwarded} forwarded");
}

/// Sending to a rank that has exited reports an error rather than
/// silently dropping, and both drivers of the connect machine reach the
/// same verdict: "destination terminated" once the scheduler knows
/// (Fig 3 line 13), and the stale-retry cap when the rank returned
/// without `finish()`, so the directory keeps its dead vmid and the
/// daemon nacks every `conn_req`.
#[test]
fn send_to_terminated_rank_errors() {
    for driver in support::Driver::BOTH {
        send_to_departed_rank(driver, true, ProtoError::DestinationTerminated(0));
        send_to_departed_rank(driver, false, ProtoError::Watchdog("connect retries"));
    }
}

/// Rank 0 exits — through `finish()` when `finish` is set, else by just
/// returning — and rank 1 then sends to it through `driver`. The send
/// must fail with `want` within 5 s.
fn send_to_departed_rank(driver: support::Driver, finish: bool, want: ProtoError) {
    let comp = Computation::builder().hosts(HostSpec::ideal(), 2).build();
    let handles = comp.launch(2, move |mut p, _start| match p.rank() {
        0 => {
            if finish {
                p.finish();
            }
        }
        1 => {
            // Wait for rank 0 to be gone, then try to reach it.
            std::thread::sleep(Duration::from_millis(50));
            let (err, took) = loop {
                let t0 = Instant::now();
                match driver.send(&mut p, 0, 1, Bytes::from_static(b"into the void")) {
                    Err(e) => break (e, t0.elapsed()),
                    // Raced the exit: the channel was still up. Retry
                    // until the exit is seen.
                    Ok(()) => std::thread::sleep(Duration::from_millis(10)),
                }
            };
            assert_eq!(err, want, "{driver:?}");
            assert!(
                took < Duration::from_secs(5),
                "{driver:?}: verdict took {took:?}"
            );
            p.finish();
        }
        _ => unreachable!(),
    });
    for h in handles {
        h.join().unwrap();
    }
    comp.join_init_processes();
}
