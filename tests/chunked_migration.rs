//! Chunked (pipelined) state transfer under fire: a migration whose
//! exe+mem state is fragmented into many `ExeMemStateChunk` frames must
//! still capture in-transit messages into the RML and preserve
//! per-sender FIFO order across the move (Fig 13), and the modeled
//! pipelined schedule must beat the serial Table 2 sum on a
//! bandwidth-limited link.

mod support;

use bytes::Bytes;
use snow::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use support::await_migration;

/// Build a state big enough that a small `chunk_bytes` fragments it
/// into dozens of frames.
fn padded_state(bytes: usize) -> ProcessState {
    let exec = ExecState::at_entry()
        .enter("kernel")
        .at_poll(1)
        .with_local("seq", snow::codec::Value::U64(0x00ff_eedd_ccbb_aa99));
    let mut mem = MemoryGraph::new();
    let a = mem.add_node(snow::codec::Value::Str("pipelined".into()));
    let b = mem.add_node(snow::codec::Value::F64Array(vec![2.5; 64]));
    mem.add_edge(a, 0, b);
    // Pad with many small heap objects (2 KiB each) so whole-node
    // chunking can fragment the state finely.
    for _ in 0..bytes.div_ceil(2048) {
        mem.add_node(snow::codec::Value::Bytes(vec![0xa5; 2048]));
    }
    ProcessState::new(exec, mem)
}

/// Fig 13 with fragmentation: two peers flood the migrant while its
/// state crosses the wire in many chunks. Every message must be
/// delivered exactly once, in per-sender FIFO order, after the resume.
#[test]
fn in_transit_messages_survive_fragmented_migration() {
    const PER_SENDER: usize = 16;
    let tracer = Tracer::new();
    let comp = Computation::builder()
        .hosts(HostSpec::ultra5(), 4)
        .tracer(tracer.clone())
        // 2 KiB chunks over a ~130 KiB state: dozens of frames.
        .pipeline(PipelineConfig {
            chunk_bytes: 2048,
            workers: 4,
        })
        .build();
    let target = comp.hosts()[3];

    let timings: Arc<Mutex<Option<MigrationTimings>>> = Arc::new(Mutex::new(None));
    let timings_w = Arc::clone(&timings);
    let placement = vec![comp.hosts()[1], comp.hosts()[2], comp.hosts()[2]];
    let handles = comp.launch_placed(&placement, move |mut p, start| {
        match (p.rank(), start) {
            (0, Start::Fresh) => {
                // Handshakes so channels exist, then dawdle so the
                // peers' bursts are in flight when migration starts.
                let _ = p.recv(Some(1), Some(0)).unwrap();
                let _ = p.recv(Some(2), Some(0)).unwrap();
                await_migration(&mut p);
                let t = p
                    .migrate(&padded_state(130_000))
                    .unwrap()
                    .expect_completed();
                *timings_w.lock().unwrap() = Some(t);
            }
            (0, Start::Resumed(state)) => {
                // The fragmented state reassembled intact.
                assert_eq!(
                    state.exec.local("seq").and_then(snow::codec::Value::as_u64),
                    Some(0x00ff_eedd_ccbb_aa99)
                );
                assert!(state.collected_bytes() >= 130_000);
                // Per-sender FIFO across the migration: each peer's
                // burst arrives complete and in send order.
                for src in [1usize, 2] {
                    for i in 0..PER_SENDER {
                        let (s, _t, b) = p.recv(Some(src), Some(5)).unwrap();
                        assert_eq!(s, src);
                        assert_eq!(
                            b[0] as usize, i,
                            "sender {src} reordered: got {} at position {i}",
                            b[0]
                        );
                    }
                }
                p.finish();
            }
            (r @ (1 | 2), Start::Fresh) => {
                p.send(0, 0, Bytes::from_static(b"hs")).unwrap();
                // Burst into the moving target.
                for i in 0..PER_SENDER as u8 {
                    p.send(0, 5, Bytes::from(vec![i, r as u8])).unwrap();
                }
                p.finish();
            }
            _ => unreachable!(),
        }
    });

    // Let the bursts land in transit, then move the receiver.
    std::thread::sleep(Duration::from_millis(40));
    comp.migrate(0, target).unwrap();
    for h in handles {
        h.join().unwrap();
    }
    comp.join_init_processes();

    let t = timings.lock().unwrap().clone().expect("timings recorded");
    assert!(
        t.chunks >= 32,
        "2 KiB chunks over a 130 KiB state must fragment heavily, got {}",
        t.chunks
    );
    assert_eq!(t.workers, 4);
    assert_eq!(t.state_bytes, t.state_bytes.max(130_000));

    // No message lost, and the trace shows the fragmented transfer.
    let st = SpaceTime::build(tracer.snapshot());
    assert!(st.undelivered().is_empty(), "messages lost in migration");
    let chunk_frames = st
        .events()
        .iter()
        .filter(|e| matches!(e.kind, snow::trace::EventKind::StateChunkSent { .. }))
        .count();
    assert!(
        chunk_frames >= 32,
        "trace must show the chunk stream, saw {chunk_frames}"
    );
    let restored_frames = st
        .events()
        .iter()
        .filter(|e| matches!(e.kind, snow::trace::EventKind::StateChunkRestored { .. }))
        .count();
    assert_eq!(
        chunk_frames, restored_frames,
        "every chunk sent must be restored on the destination"
    );
    support::audit_and_export(&tracer, "chunked_fragmented_migration");
    // The migration shows up in the metrics registry with its chunk
    // count and payload size.
    let migs = tracer.metrics().migrations();
    let m = migs.iter().find(|m| m.rank == 0).expect("metrics recorded");
    assert!(m.chunks >= 32);
    assert!(m.state_bytes >= 130_000);
    assert!(m.abort_cause.is_none());
}

/// End-to-end acceptance: with >= 4 workers on the paper's
/// bandwidth-limited 10 Mbit link, the pipelined modeled total beats
/// the serial Table 2 sum, because collect/tx/restore overlap.
#[test]
fn pipelined_total_beats_serial_sum_end_to_end() {
    let tracer = Tracer::new();
    let comp = Computation::builder()
        .host(HostSpec::ultra5())
        .host(HostSpec::dec5000())
        .host(HostSpec::ultra5())
        .time_scale(TimeScale::MILLI)
        .tracer(tracer.clone())
        .pipeline(PipelineConfig {
            chunk_bytes: 32 * 1024,
            workers: 4,
        })
        .build();
    let dec = comp.hosts()[1];
    let ultra = comp.hosts()[2];

    let timings: Arc<Mutex<Option<MigrationTimings>>> = Arc::new(Mutex::new(None));
    let timings_w = Arc::clone(&timings);
    let placement = vec![dec];
    let handles = comp.launch_placed(&placement, move |mut p, start| match (p.rank(), start) {
        (0, Start::Fresh) => {
            await_migration(&mut p);
            let t = p
                .migrate(&padded_state(500_000))
                .unwrap()
                .expect_completed();
            *timings_w.lock().unwrap() = Some(t);
        }
        (0, Start::Resumed(state)) => {
            assert!(state.collected_bytes() >= 500_000);
            p.finish();
        }
        _ => unreachable!(),
    });

    comp.migrate(0, ultra).unwrap();
    for h in handles {
        h.join().unwrap();
    }
    comp.join_init_processes();

    let t = timings.lock().unwrap().clone().expect("timings recorded");
    assert!(t.chunks >= 8, "expected many chunks, got {}", t.chunks);
    assert!(
        t.pipelined_total_s() < t.serial_total_s(),
        "pipelined {} must beat serial {} with {} workers over {} chunks",
        t.pipelined_total_s(),
        t.serial_total_s(),
        t.workers,
        t.chunks
    );
    // The overlap is substantial, not marginal: the stages hide at
    // least a fifth of the serial stage sum on this link.
    let serial_stages = t.serial_total_s() - t.coordinate_real_s;
    let pipelined_stages = t.pipelined_modeled_s;
    assert!(
        pipelined_stages < 0.8 * serial_stages,
        "overlap too small: {pipelined_stages} vs serial {serial_stages}"
    );
    support::audit_and_export(&tracer, "chunked_pipelined_beats_serial");
    // The registry mirrors the timings handed back to the app.
    let migs = tracer.metrics().migrations();
    let m = migs.iter().find(|m| m.rank == 0).expect("metrics recorded");
    assert!((m.pipelined_s - t.pipelined_modeled_s).abs() < 1e-9);
    assert_eq!(m.attempts, 1);
}
