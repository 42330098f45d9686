//! The complete exe+mem state bundle shipped during migration.

use crate::exec::ExecState;
use crate::hash::xxh64;
use crate::memory::MemoryGraph;
use snow_codec::{CodecError, Value, WireReader, WireWriter};

/// Errors while packing/unpacking a state snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// The canonical payload failed to decode.
    Codec(CodecError),
    /// The integrity checksum did not match — the state was corrupted in
    /// transit.
    ChecksumMismatch {
        /// Checksum carried in the snapshot.
        expected: u64,
        /// Checksum recomputed from the payload.
        actual: u64,
    },
    /// A state chunk arrived out of sequence (frames are FIFO per
    /// channel, so this means chunks were dropped or duplicated).
    ChunkSequence {
        /// Sequence number the restorer expected next.
        expected: u32,
        /// Sequence number that actually arrived.
        got: u32,
    },
    /// The digest frame closing a chunked stream disagreed with the
    /// received chunks (whole-state digest, chunk count or byte total).
    DigestMismatch {
        /// Value carried in the digest frame.
        expected: u64,
        /// Value recomputed from the received chunks.
        actual: u64,
    },
    /// A chunked stream ended while the state was still incomplete.
    StreamIncomplete(&'static str),
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::Codec(e) => write!(f, "state codec error: {e}"),
            StateError::ChecksumMismatch { expected, actual } => write!(
                f,
                "state checksum mismatch: expected {expected:#x}, got {actual:#x}"
            ),
            StateError::ChunkSequence { expected, got } => write!(
                f,
                "state chunk out of sequence: expected #{expected}, got #{got}"
            ),
            StateError::DigestMismatch { expected, actual } => write!(
                f,
                "state stream digest mismatch: expected {expected:#x}, got {actual:#x}"
            ),
            StateError::StreamIncomplete(what) => {
                write!(f, "state stream ended early: {what}")
            }
        }
    }
}

impl std::error::Error for StateError {}

impl From<CodecError> for StateError {
    fn from(e: CodecError) -> Self {
        StateError::Codec(e)
    }
}

/// FNV-1a offset basis (the seed of a fresh digest).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// FNV-1a 64 over `bytes`, for short keys and replay digests (the
/// benchmarks' lane check words and delivery digests). The migrating
/// state is checked with [`crate::hash::xxh64`] instead: FNV-1a folds
/// one byte per multiply, a serial chain too slow for multi-megabyte
/// states. Identical output to the textbook byte-at-a-time loop; see
/// [`fnv1a_with_seed`] for the implementation notes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_with_seed(FNV_OFFSET, bytes)
}

/// Continue an FNV-1a digest from `seed` over `bytes`. Folding a byte
/// stream in arbitrary splits gives the same digest as hashing it whole.
///
/// The body loads eight bytes per iteration and unrolls the fold, which
/// removes per-byte bounds checks; the digest is bit-identical to the
/// plain loop.
pub fn fnv1a_with_seed(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    let mut words = bytes.chunks_exact(8);
    for w in words.by_ref() {
        let x = u64::from_le_bytes(w.try_into().unwrap());
        h = (h ^ (x & 0xff)).wrapping_mul(FNV_PRIME);
        h = (h ^ ((x >> 8) & 0xff)).wrapping_mul(FNV_PRIME);
        h = (h ^ ((x >> 16) & 0xff)).wrapping_mul(FNV_PRIME);
        h = (h ^ ((x >> 24) & 0xff)).wrapping_mul(FNV_PRIME);
        h = (h ^ ((x >> 32) & 0xff)).wrapping_mul(FNV_PRIME);
        h = (h ^ ((x >> 40) & 0xff)).wrapping_mul(FNV_PRIME);
        h = (h ^ ((x >> 48) & 0xff)).wrapping_mul(FNV_PRIME);
        h = (h ^ (x >> 56)).wrapping_mul(FNV_PRIME);
    }
    for &b in words.remainder() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// A process's execution + memory state: what a migration collects,
/// streams as [`crate::pipeline`] chunks and restores (Fig 5 line 10 →
/// Fig 7 line 4).
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessState {
    /// Where to resume.
    pub exec: ExecState,
    /// The heap.
    pub memory: MemoryGraph,
}

impl ProcessState {
    /// Bundle exec and memory state.
    pub fn new(exec: ExecState, memory: MemoryGraph) -> Self {
        ProcessState { exec, memory }
    }

    /// Minimal state (entry point, empty heap).
    pub fn empty() -> Self {
        ProcessState {
            exec: ExecState::at_entry(),
            memory: MemoryGraph::new(),
        }
    }

    /// Canonical *body* bytes, without the leading checksum. Layout:
    /// `uvarint(len(exec)) ‖ exec ‖ memory`, where the memory section
    /// runs to the end of the body with no length prefix — so it can be
    /// produced and consumed as a stream of node chunks (see
    /// [`crate::pipeline`]) without knowing its total size up front.
    pub fn collect_body(&self) -> Vec<u8> {
        let exec = self.exec.encode();
        let mut w = WireWriter::with_capacity(
            exec.len() + self.memory.payload_bytes() + 16 * self.memory.len() + 24,
        );
        w.put_bytes(&exec);
        self.memory.encode_into(&mut w);
        w.into_bytes()
    }

    /// *Collect* the state into canonical bytes (the source half of the
    /// heterogeneous transfer). Layout: XXH64 checksum ‖ body (see
    /// [`ProcessState::collect_body`]).
    pub fn collect(&self) -> Vec<u8> {
        let body = self.collect_body();
        let mut w = WireWriter::with_capacity(body.len() + 8);
        w.put_u64(xxh64(&body));
        w.put_raw(&body);
        w.into_bytes()
    }

    /// Decode canonical *body* bytes (no checksum prefix) — the inverse
    /// of [`ProcessState::collect_body`].
    pub fn restore_body(body: &[u8]) -> Result<Self, StateError> {
        let mut br = WireReader::new(body);
        let exec_bytes = br.get_bytes()?;
        let mem_bytes = br.get_raw(br.remaining())?;
        Ok(ProcessState {
            exec: ExecState::decode(exec_bytes)?,
            memory: MemoryGraph::decode(mem_bytes)?,
        })
    }

    /// Check the integrity checksum of collected bytes before
    /// [`ProcessState::restore`] decodes the body.
    fn verify(bytes: &[u8]) -> Result<(), StateError> {
        let mut r = WireReader::new(bytes);
        let expected = r.get_u64()?;
        let body = r.get_raw(r.remaining())?;
        let actual = xxh64(body);
        if actual != expected {
            return Err(StateError::ChecksumMismatch { expected, actual });
        }
        Ok(())
    }

    /// *Restore* the state from canonical bytes (the destination half).
    pub fn restore(bytes: &[u8]) -> Result<Self, StateError> {
        Self::verify(bytes)?;
        let mut r = WireReader::new(bytes);
        let _checksum = r.get_u64()?;
        let body = r.get_raw(r.remaining())?;
        Self::restore_body(body)
    }

    /// Pad the heap with an opaque block so the collected size reaches at
    /// least `target_bytes`. Used by harnesses to reproduce the paper's
    /// "over 7.5 Mbytes of execution and memory state".
    pub fn pad_to(&mut self, target_bytes: usize) {
        let current = self.collect().len();
        if current < target_bytes {
            // A Bytes block encodes with a handful of framing bytes; add
            // a small safety margin so we land at or just above target.
            // Padding is split into 64 KiB blocks — real heaps are many
            // objects, and whole-node chunking can then fragment them.
            const BLOCK: usize = 64 * 1024;
            let mut deficit = target_bytes - current + 16;
            while deficit > 0 {
                let n = deficit.min(BLOCK);
                self.memory.add_node(Value::Bytes(vec![0xa5; n]));
                deficit -= n;
            }
        }
    }

    /// Collected size in bytes (what the link cost model charges).
    pub fn collected_bytes(&self) -> usize {
        self.collect().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snow_codec::Value;

    fn sample() -> ProcessState {
        let exec = ExecState::at_entry()
            .enter("kernelMG")
            .at_poll(2)
            .with_local("iter", Value::U64(2));
        let mut mem = MemoryGraph::new();
        let grid = mem.add_node(Value::F64Array(vec![1.5; 512]));
        let hdr = mem.add_node(Value::Str("grid".into()));
        mem.add_edge(hdr, 0, grid);
        ProcessState::new(exec, mem)
    }

    #[test]
    fn fnv1a_matches_published_vectors() {
        // Official FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv1a_unrolled_matches_plain_loop() {
        // Lengths around the 8-byte unroll boundary, bytes with all
        // values represented.
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 255, 256, 1031] {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let mut plain: u64 = FNV_OFFSET;
            for &b in &data {
                plain = (plain ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
            assert_eq!(fnv1a(&data), plain, "len {len}");
        }
    }

    #[test]
    fn fnv1a_seeded_fold_equals_whole() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let whole = fnv1a(&data);
        for split in [0usize, 1, 7, 8, 100, 999, 1000] {
            let partial = fnv1a_with_seed(fnv1a(&data[..split]), &data[split..]);
            assert_eq!(partial, whole, "split {split}");
        }
    }

    #[test]
    fn collect_restore_roundtrip() {
        let s = sample();
        let bytes = s.collect();
        let back = ProcessState::restore(&bytes).unwrap();
        assert_eq!(back.exec, s.exec);
        assert!(back.memory.isomorphic(&s.memory));
    }

    #[test]
    fn corruption_detected() {
        let s = sample();
        let mut bytes = s.collect();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        match ProcessState::restore(&bytes) {
            Err(StateError::ChecksumMismatch { .. }) | Err(StateError::Codec(_)) => {}
            other => panic!("corruption not detected: {other:?}"),
        }
    }

    #[test]
    fn truncation_detected() {
        let s = sample();
        let bytes = s.collect();
        assert!(ProcessState::restore(&bytes[..4]).is_err());
    }

    #[test]
    fn pad_to_reaches_target() {
        let mut s = ProcessState::empty();
        s.pad_to(7_500_000);
        let n = s.collected_bytes();
        assert!(n >= 7_500_000, "{n}");
        assert!(n < 7_600_000, "overshoot: {n}");
        // Padded state still round-trips.
        let back = ProcessState::restore(&s.collect()).unwrap();
        assert!(back.memory.isomorphic(&s.memory));
    }

    #[test]
    fn pad_to_noop_when_already_big() {
        let mut s = ProcessState::empty();
        s.pad_to(1000);
        let n1 = s.collected_bytes();
        s.pad_to(100);
        assert_eq!(s.collected_bytes(), n1);
    }

    #[test]
    fn empty_state_roundtrip() {
        let s = ProcessState::empty();
        let back = ProcessState::restore(&s.collect()).unwrap();
        assert_eq!(back.exec, s.exec);
        assert!(back.memory.is_empty());
    }
}
