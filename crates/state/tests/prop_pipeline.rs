//! Property tests on the chunked state-transfer pipeline: for any
//! state, any chunk size and any worker count, the chunk stream must
//! reassemble to the identical `ProcessState` and carry the identical
//! whole-state digest as the monolithic encoding.

use proptest::prelude::*;
use snow_codec::Value;
use snow_state::{
    collect_chunks, xxh64, ChunkedRestorer, ExecState, MemoryGraph, PipelineConfig, ProcessState,
    StateError,
};

fn arb_payload() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::I64),
        "[a-z]{0,12}".prop_map(Value::Str),
        proptest::collection::vec(any::<f64>(), 0..16).prop_map(Value::F64Array),
        proptest::collection::vec(any::<u8>(), 0..32).prop_map(Value::Bytes),
    ]
}

fn arb_graph() -> impl Strategy<Value = MemoryGraph> {
    (1usize..24)
        .prop_flat_map(|n| {
            (
                proptest::collection::vec(arb_payload(), n..=n),
                proptest::collection::vec((0..n, 0u32..4, 0..n), 0..3 * n),
            )
        })
        .prop_map(|(payloads, edges)| {
            let mut g = MemoryGraph::new();
            let ids: Vec<_> = payloads.into_iter().map(|p| g.add_node(p)).collect();
            for (from, slot, to) in edges {
                g.add_edge(ids[from], slot, ids[to]);
            }
            g
        })
}

fn arb_exec() -> impl Strategy<Value = ExecState> {
    (
        proptest::collection::vec("[a-zA-Z_][a-zA-Z0-9_]{0,10}", 1..5),
        any::<u32>(),
        proptest::collection::vec(("[a-z]{1,8}", arb_payload()), 0..6),
    )
        .prop_map(|(call_path, poll_point, locals)| ExecState {
            call_path,
            poll_point,
            locals,
        })
}

/// Chunk size 1 B (one node per chunk), a mid-size bound, and "whole
/// state in one chunk" — crossed with 0 (which counts as 1), 1 and 4
/// workers.
const CHUNK_SIZES: [usize; 3] = [1, 4096, usize::MAX];
const WORKER_COUNTS: [usize; 3] = [0, 1, 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chunked_roundtrip_matches_monolithic(e in arb_exec(), g in arb_graph()) {
        let s = ProcessState::new(e, g);
        let mono = s.collect();
        let mono_digest = u64::from_be_bytes(mono[..8].try_into().unwrap());
        let mono_restored = ProcessState::restore(&mono).unwrap();

        for chunk_bytes in CHUNK_SIZES {
            for workers in WORKER_COUNTS {
                let cfg = PipelineConfig { chunk_bytes, workers };
                let (chunks, summary) = collect_chunks(&s, &cfg);

                // The stream digest IS the monolithic checksum.
                prop_assert_eq!(
                    summary.digest, mono_digest,
                    "digest differs (cb={}, w={})", chunk_bytes, workers
                );
                // The concatenated chunks ARE the monolithic body.
                let concat: Vec<u8> =
                    chunks.iter().flat_map(|c| c.bytes.iter().copied()).collect();
                prop_assert_eq!(&concat[..], &mono[8..]);

                // Incremental restore produces the identical state.
                let mut r = ChunkedRestorer::new();
                for c in &chunks {
                    r.push(c.seq, c.checksum, &c.bytes).unwrap();
                }
                let back = r
                    .finish(summary.digest, summary.chunks, summary.total_bytes as u64)
                    .unwrap();
                prop_assert_eq!(&back.exec, &mono_restored.exec);
                prop_assert!(back.memory.isomorphic(&mono_restored.memory));
                // And re-collecting it is canonical.
                prop_assert_eq!(back.collect(), mono.clone());
            }
        }
    }

    #[test]
    fn chunk_corruption_always_detected(
        e in arb_exec(),
        g in arb_graph(),
        flip_seed in any::<u64>(),
    ) {
        let s = ProcessState::new(e, g);
        let cfg = PipelineConfig { chunk_bytes: 64, workers: 1 };
        let (mut chunks, summary) = collect_chunks(&s, &cfg);
        let victim = (flip_seed as usize) % chunks.len();
        if chunks[victim].bytes.is_empty() {
            return Ok(());
        }
        let idx = (flip_seed as usize / 7) % chunks[victim].bytes.len();
        chunks[victim].bytes[idx] ^= 1u8 << (flip_seed % 8);

        let mut r = ChunkedRestorer::new();
        let mut outcome = Ok(());
        for c in &chunks {
            outcome = r.push(c.seq, c.checksum, &c.bytes);
            if outcome.is_err() {
                break;
            }
        }
        // The per-chunk checksum must catch the flip on the victim chunk
        // itself — never decode past it.
        prop_assert!(
            matches!(outcome, Err(StateError::ChecksumMismatch { .. })),
            "flip in chunk {} not caught: {:?}", victim, outcome
        );
        let _ = summary;
    }

    #[test]
    fn digest_frame_tampering_detected(e in arb_exec(), g in arb_graph(), delta in 1u64..u64::MAX) {
        let s = ProcessState::new(e, g);
        let cfg = PipelineConfig { chunk_bytes: 128, workers: 1 };
        let (chunks, summary) = collect_chunks(&s, &cfg);
        let mut r = ChunkedRestorer::new();
        for c in &chunks {
            r.push(c.seq, c.checksum, &c.bytes).unwrap();
        }
        let bad = summary.digest.wrapping_add(delta);
        let err = r
            .finish(bad, summary.chunks, summary.total_bytes as u64)
            .unwrap_err();
        prop_assert!(matches!(err, StateError::DigestMismatch { .. }), "{:?}", err);
    }

    #[test]
    fn stream_digest_equals_xxh64_of_body(e in arb_exec(), g in arb_graph()) {
        let s = ProcessState::new(e, g);
        let (_, summary) = collect_chunks(&s, &PipelineConfig::default());
        prop_assert_eq!(summary.digest, xxh64(&s.collect_body()));
    }
}
