//! XXH64, the integrity hash of the migrating state.
//!
//! Every check on the exe+mem state uses it with seed 0: the whole
//! snapshot checksum ([`crate::ProcessState::collect`]), each chunk's
//! checksum and the whole-stream digest of the pipelined transfer
//! ([`crate::pipeline`]). It catches transport corruption, not an
//! adversary. XXH64 folds each 32-byte stripe into four independent
//! accumulators, so it hashes at memory speed where FNV-1a's one
//! multiply per byte forms a serial chain: over a 7.5 MB state on a
//! 2-core Xeon host FNV-1a takes about 10 ms per pass (0.7 GB/s) and
//! XXH64 0.8 ms (9.5 GB/s), and the transfer hashes the state twice on
//! each side.
//!
//! Written from the published algorithm (Yann Collet's xxHash
//! specification, XXH64); [`xxh64`] and [`Xxh64`] produce the reference
//! implementation's output, pinned by its published vectors.

const PRIME_1: u64 = 0x9e37_79b1_85eb_ca87;
const PRIME_2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const PRIME_3: u64 = 0x1656_67b1_9e37_79f9;
const PRIME_4: u64 = 0x85eb_ca77_c2b2_ae63;
const PRIME_5: u64 = 0x27d4_eb2f_1656_67c5;

const STRIPE: usize = 32;

/// XXH64 of `bytes` with seed 0.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let mut h = Xxh64::new(0);
    h.update(bytes);
    h.digest()
}

/// Streaming XXH64: feeding a byte stream in any split gives the same
/// digest as [`xxh64`] over the whole stream. The chunked state transfer
/// folds its chunks through one of these so the stream digest equals the
/// checksum [`crate::ProcessState::collect`] stores.
#[derive(Debug)]
pub struct Xxh64 {
    seed: u64,
    acc: [u64; 4],
    total_len: u64,
    /// Bytes of an incomplete stripe, waiting for the next update.
    tail: [u8; STRIPE],
    tail_len: usize,
}

impl Xxh64 {
    /// A fresh hasher. The state-integrity checks all use seed 0.
    pub fn new(seed: u64) -> Self {
        Xxh64 {
            seed,
            acc: [
                seed.wrapping_add(PRIME_1).wrapping_add(PRIME_2),
                seed.wrapping_add(PRIME_2),
                seed,
                seed.wrapping_sub(PRIME_1),
            ],
            total_len: 0,
            tail: [0; STRIPE],
            tail_len: 0,
        }
    }

    /// Feed the next bytes of the stream.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total_len += bytes.len() as u64;
        if self.tail_len > 0 {
            let take = (STRIPE - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < STRIPE {
                return;
            }
            let stripe = self.tail;
            self.consume(&stripe);
            self.tail_len = 0;
        }
        let whole = bytes.len() - bytes.len() % STRIPE;
        self.consume(&bytes[..whole]);
        let rest = &bytes[whole..];
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// Fold whole stripes into the four accumulators.
    fn consume(&mut self, stripes: &[u8]) {
        let [mut a, mut b, mut c, mut d] = self.acc;
        for s in stripes.chunks_exact(STRIPE) {
            a = round(a, read_u64(&s[0..8]));
            b = round(b, read_u64(&s[8..16]));
            c = round(c, read_u64(&s[16..24]));
            d = round(d, read_u64(&s[24..32]));
        }
        self.acc = [a, b, c, d];
    }

    /// The digest of everything fed so far (the hasher stays usable).
    pub fn digest(&self) -> u64 {
        let mut h = if self.total_len >= STRIPE as u64 {
            let [a, b, c, d] = self.acc;
            let mut h = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18));
            for v in self.acc {
                h = merge_round(h, v);
            }
            h
        } else {
            self.seed.wrapping_add(PRIME_5)
        };
        h = h.wrapping_add(self.total_len);

        let mut rest = &self.tail[..self.tail_len];
        while rest.len() >= 8 {
            h ^= round(0, read_u64(&rest[..8]));
            h = h
                .rotate_left(27)
                .wrapping_mul(PRIME_1)
                .wrapping_add(PRIME_4);
            rest = &rest[8..];
        }
        if rest.len() >= 4 {
            let k = u32::from_le_bytes(rest[..4].try_into().expect("four bytes"));
            h ^= u64::from(k).wrapping_mul(PRIME_1);
            h = h
                .rotate_left(23)
                .wrapping_mul(PRIME_2)
                .wrapping_add(PRIME_3);
            rest = &rest[4..];
        }
        for &byte in rest {
            h ^= u64::from(byte).wrapping_mul(PRIME_5);
            h = h.rotate_left(11).wrapping_mul(PRIME_1);
        }

        h ^= h >> 33;
        h = h.wrapping_mul(PRIME_2);
        h ^= h >> 29;
        h = h.wrapping_mul(PRIME_3);
        h ^ (h >> 32)
    }
}

fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("eight bytes"))
}

fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(PRIME_2))
        .rotate_left(31)
        .wrapping_mul(PRIME_1)
}

fn merge_round(h: u64, acc: u64) -> u64 {
    (h ^ round(0, acc))
        .wrapping_mul(PRIME_1)
        .wrapping_add(PRIME_4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xxh64_matches_published_vectors() {
        assert_eq!(xxh64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(xxh64(b"xxhash"), 0x32dd_3895_2c4b_c720);
        let mut seeded = Xxh64::new(20_141_025);
        seeded.update(b"xxhash");
        assert_eq!(seeded.digest(), 0xb559_b98d_844e_0635);
        // 39 bytes: one 32-byte stripe, then a 4-byte and three 1-byte
        // tail steps.
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
        // No vector above reaches the 8-byte tail step. A zstd frame
        // stores the low 32 bits of XXH64 (seed 0) of its content as the
        // checksum; `zstd --check` over these 1005 bytes (31 stripes, then
        // 8-, 4- and 1-byte steps) writes 0x8adfa645.
        let data: Vec<u8> = (0..1005u32).map(|i| (i * 37 + 11) as u8).collect();
        assert_eq!(xxh64(&data) as u32, 0x8adf_a645);
    }

    #[test]
    fn streaming_equals_one_shot_for_any_split() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 37 + 11) as u8).collect();
        let whole = xxh64(&data);
        let cuts = [
            0usize, 1, 3, 4, 7, 8, 9, 31, 32, 33, 63, 64, 65, 500, 999, 1000,
        ];
        for &i in &cuts {
            for &j in cuts.iter().filter(|&&j| j >= i) {
                let mut h = Xxh64::new(0);
                h.update(&data[..i]);
                h.update(&data[i..j]);
                h.update(&data[j..]);
                assert_eq!(h.digest(), whole, "splits at {i} and {j}");
            }
        }
    }
}
