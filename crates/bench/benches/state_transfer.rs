//! A4 — throughput of the heterogeneous state machinery that feeds the
//! Table 2 Collect/Restore rows: canonical encoding of values, memory
//! graphs and full process-state snapshots from 64 KB to 8 MB, plus the
//! monolithic-vs-pipelined chunk-stream comparison.
//!
//! This file is also registered as a `[[test]]` target so the modeled
//! pipelined-beats-serial property is asserted by `cargo test`, not
//! only eyeballed from bench output.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use snow_codec::Value;
use snow_state::{collect_chunks, ExecState, MemoryGraph, PipelineConfig, ProcessState};

const SIZES: [usize; 4] = [64 << 10, 512 << 10, 2 << 20, 8 << 20];

fn padded_state(bytes: usize) -> ProcessState {
    let exec = ExecState::at_entry()
        .enter("kernelMG")
        .with_local("iteration", Value::U64(2));
    let mut mem = MemoryGraph::new();
    // A linked structure plus a dense payload, like a real heap.
    let arr = mem.add_node(Value::F64Array(vec![1.5; 4096]));
    let hdr = mem.add_node(Value::Str("grid".into()));
    mem.add_edge(hdr, 0, arr);
    let mut s = ProcessState::new(exec, mem);
    s.pad_to(bytes);
    s
}

fn bench_collect_restore(c: &mut Criterion) {
    let mut g = c.benchmark_group("state");
    g.sample_size(10);
    for &bytes in &SIZES {
        let state = padded_state(bytes);
        let collected = state.collect();
        g.throughput(Throughput::Bytes(collected.len() as u64));
        g.bench_with_input(BenchmarkId::new("collect", bytes), &state, |b, s| {
            b.iter(|| s.collect());
        });
        g.bench_with_input(
            BenchmarkId::new("restore", bytes),
            &collected,
            |b, bytes| {
                b.iter(|| ProcessState::restore(bytes).unwrap());
            },
        );
    }
    g.finish();
}

fn bench_memory_graph(c: &mut Criterion) {
    let mut g = c.benchmark_group("memory_graph");
    g.sample_size(20);
    for nodes in [16usize, 256, 2048] {
        let mut graph = MemoryGraph::new();
        let ids: Vec<_> = (0..nodes)
            .map(|i| graph.add_node(Value::F64Array(vec![i as f64; 32])))
            .collect();
        for w in ids.windows(2) {
            graph.add_edge(w[0], 0, w[1]);
        }
        // Cross links + a cycle for realism.
        graph.add_edge(ids[nodes - 1], 0, ids[0]);
        let encoded = graph.encode();
        g.throughput(Throughput::Bytes(encoded.len() as u64));
        g.bench_with_input(BenchmarkId::new("encode", nodes), &graph, |b, gr| {
            b.iter(|| gr.encode());
        });
        g.bench_with_input(BenchmarkId::new("decode", nodes), &encoded, |b, e| {
            b.iter(|| MemoryGraph::decode(e).unwrap());
        });
    }
    g.finish();
}

fn bench_value_roundtrip(c: &mut Criterion) {
    let mut g = c.benchmark_group("value");
    let v = Value::Record(vec![
        ("grid".into(), Value::F64Array(vec![0.5; 8192])),
        ("name".into(), Value::Str("kernelMG".into())),
        ("iter".into(), Value::U64(2)),
    ]);
    let bytes = v.encode();
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("encode", |b| b.iter(|| v.encode()));
    g.bench_function("decode", |b| b.iter(|| Value::decode(&bytes).unwrap()));
    g.finish();
}

/// Monolithic single-buffer encode vs the chunked pipeline at 1 and 4
/// workers: same canonical bytes, different wall-clock shape.
fn bench_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);
    for &bytes in &[512 << 10, 8 << 20] {
        let state = padded_state(bytes);
        let total = state.collect().len();
        g.throughput(Throughput::Bytes(total as u64));
        g.bench_with_input(BenchmarkId::new("monolithic", bytes), &state, |b, s| {
            b.iter(|| s.collect());
        });
        for workers in [1usize, 4] {
            let cfg = PipelineConfig {
                chunk_bytes: 256 * 1024,
                workers,
            };
            g.bench_with_input(
                BenchmarkId::new(format!("chunked_w{workers}"), bytes),
                &state,
                |b, s| {
                    b.iter(|| collect_chunks(s, &cfg));
                },
            );
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_collect_restore,
    bench_memory_graph,
    bench_value_roundtrip,
    bench_pipeline
);
// Under the libtest harness (the [[test]] registration of this file)
// the generated harness main takes over and this one is dead code.
criterion_main!(benches);

// Module-level `use` would count as unused in the bench build (where
// the `#[test]` items are stripped), so each test imports locally.
#[cfg(test)]
mod tests {
    /// With >= 4 workers on a bandwidth-limited 10 Mbit link, the
    /// pipelined modeled total is strictly below the serial
    /// Collect + Tx + Restore sum for a realistically chunked
    /// paper-scale state.
    #[test]
    fn pipelined_modeled_total_beats_serial_sum() {
        use super::*;
        use snow_net::LinkModel;
        use snow_state::{pipelined_makespan, StateCostModel};
        use snow_vm::HostSpec;

        let state = padded_state(2 << 20);
        let cfg = PipelineConfig {
            chunk_bytes: 256 * 1024,
            workers: 4,
        };
        let (chunks, _) = collect_chunks(&state, &cfg);
        assert!(chunks.len() >= 8, "want many chunks, got {}", chunks.len());

        let cost = StateCostModel::PAPER;
        let src = HostSpec::dec5000().speed;
        let dst = HostSpec::ultra5().speed;
        let link = LinkModel::ETHERNET_10M;
        let collect: Vec<f64> = chunks
            .iter()
            .map(|c| cost.collect_seconds(c.bytes.len(), src))
            .collect();
        let tx: Vec<f64> = chunks
            .iter()
            .map(|c| link.transfer_seconds(c.bytes.len()))
            .collect();
        let restore: Vec<f64> = chunks
            .iter()
            .map(|c| cost.restore_seconds(c.bytes.len(), dst))
            .collect();

        let serial: f64 =
            collect.iter().sum::<f64>() + tx.iter().sum::<f64>() + restore.iter().sum::<f64>();
        let pipelined = pipelined_makespan(&collect, &tx, &restore, 4);
        assert!(
            pipelined < serial,
            "pipelined {pipelined} must beat serial {serial}"
        );
        // The overlap is substantial: the pipeline hides at least a
        // fifth of the serial stage sum on this link, and never beats
        // the wire itself (tx is the FIFO bottleneck).
        let wire: f64 = tx.iter().sum();
        assert!(
            pipelined >= wire,
            "cannot beat the wire: {pipelined} vs {wire}"
        );
        assert!(
            pipelined < 0.8 * serial,
            "overlap too small: {pipelined} vs serial {serial}"
        );
    }

    /// The chunked encoders produce exactly the monolithic bytes — the
    /// bench above compares equal work.
    #[test]
    fn bench_inputs_agree() {
        use super::*;

        let state = padded_state(512 << 10);
        let mono = state.collect();
        for workers in [1usize, 4] {
            let cfg = PipelineConfig {
                chunk_bytes: 256 * 1024,
                workers,
            };
            let (chunks, summary) = collect_chunks(&state, &cfg);
            let concat: Vec<u8> = chunks
                .iter()
                .flat_map(|c| c.bytes.iter().copied())
                .collect();
            assert_eq!(&concat[..], &mono[8..]);
            assert_eq!(
                summary.digest,
                u64::from_be_bytes(mono[..8].try_into().unwrap())
            );
        }
    }
}
