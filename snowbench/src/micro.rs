//! `net::frame` on its own: `encode_frame`, `BatchWriter::push_encoded`
//! with `flush` into a sink, and `read_frame`, on a stream message's
//! ~100 B frame body and on a 256 KiB state chunk. Measured after the
//! run, off its clock.

use crate::report::{median, Report};
use snow_net::{encode_frame, read_frame, BatchWriter, FrameKind};
use std::hint::black_box;
use std::time::Instant;

/// ns per call of `f` over `iters` calls, median of `reps` batches.
fn per_call(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        v.push(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    median(&v)
}

fn measure(r: &mut Report, label: &str, body_len: usize, iters: usize) {
    let body: Vec<u8> = (0..body_len).map(|i| (i * 7) as u8).collect();
    let frame = encode_frame(FrameKind::Inbox, &body).expect("body within the frame cap");
    let encode = per_call(7, iters, || {
        black_box(encode_frame(FrameKind::Inbox, black_box(&body)).expect("valid body"));
    });
    let mut w = BatchWriter::new(std::io::sink());
    let batch = per_call(7, iters, || {
        w.push_encoded(black_box(&frame)).expect("sink accepts");
        if w.pending() >= 64 {
            w.flush().expect("sink accepts");
        }
    });
    let stream: Vec<u8> = frame
        .iter()
        .copied()
        .cycle()
        .take(frame.len() * iters)
        .collect();
    let read = per_call(7, 1, || {
        let mut cur = std::io::Cursor::new(black_box(&stream[..]));
        while let Some(f) = read_frame(&mut cur).expect("well-formed frames") {
            black_box(f);
        }
    }) / iters as f64;
    r.add(
        &format!("net.frame.encode_ns_{label}"),
        encode,
        "ns",
        Some(iters as u64),
    );
    r.add(
        &format!("net.frame.batch_ns_{label}"),
        batch,
        "ns",
        Some(iters as u64),
    );
    r.add(
        &format!("net.frame.read_ns_{label}"),
        read,
        "ns",
        Some(iters as u64),
    );
}

pub fn frame_report(r: &mut Report) {
    measure(r, "small", 100, 20_000);
    measure(r, "chunk", 256 * 1024, 40);
}
