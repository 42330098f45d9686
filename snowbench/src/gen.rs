//! Seeded input generation. Every arrival time, size and destination is
//! a pure function of `(seed, src, i)`: a counter-based mixer turns the
//! triple into uniform draws, so no generator state is shared between
//! ranks and a schedule can be regenerated lane by lane.

/// SplitMix64 finalizer.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A 64-bit draw keyed by `(seed, a, b, c)`.
pub fn mix(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    splitmix(splitmix(splitmix(splitmix(seed) ^ a) ^ b) ^ c)
}

/// A uniform draw in `[0, 1)` keyed by `(seed, a, b, c)`.
pub fn unit(seed: u64, a: u64, b: u64, c: u64) -> f64 {
    (mix(seed, a, b, c) >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded permutation of `items` (Fisher–Yates on keyed draws).
pub fn permute<T>(seed: u64, key: u64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = (mix(seed, key, i as u64, 0xfeed) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// One scheduled message of the open-loop soak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Due time, nanoseconds after the measurement starts.
    pub at_ns: u64,
    /// Destination rank.
    pub dest: usize,
    /// Payload size in bytes.
    pub bytes: usize,
}

/// Parameters of the soak's arrival process: Poisson arrivals per
/// sender, bounded-Pareto sizes, Zipf-skewed destinations whose most
/// popular entry is the hot rank.
#[derive(Debug, Clone)]
pub struct SoakGen {
    pub seed: u64,
    pub ranks: usize,
    pub hot: usize,
    /// Aggregate offered rate over all senders, messages per second.
    pub rate_hz: f64,
    pub min_bytes: usize,
    pub max_bytes: usize,
    /// Bounded-Pareto shape.
    pub alpha: f64,
    /// Zipf exponent over the popularity order.
    pub zipf_s: f64,
}

const DRAW_GAP: u64 = 0;
const DRAW_SIZE: u64 = 1;
const DRAW_DEST: u64 = 2;

impl SoakGen {
    /// Destinations by decreasing popularity: the hot rank first, then a
    /// seeded order of the rest.
    fn popularity(&self) -> Vec<usize> {
        let mut rest: Vec<usize> = (0..self.ranks).filter(|&r| r != self.hot).collect();
        permute(self.seed, u64::MAX, &mut rest);
        let mut order = vec![self.hot];
        order.extend(rest);
        order
    }

    fn zipf_cdf(&self) -> Vec<f64> {
        let w: Vec<f64> = (0..self.ranks)
            .map(|k| 1.0 / ((k + 1) as f64).powf(self.zipf_s))
            .collect();
        let total: f64 = w.iter().sum();
        let mut acc = 0.0;
        w.iter()
            .map(|x| {
                acc += x / total;
                acc
            })
            .collect()
    }

    /// Bounded Pareto on `[min_bytes, max_bytes]` by inverse transform.
    fn size(&self, u: f64) -> usize {
        let (l, h, a) = (self.min_bytes as f64, self.max_bytes as f64, self.alpha);
        let ratio = (l / h).powf(a);
        let x = l / (1.0 - u * (1.0 - ratio)).powf(1.0 / a);
        (x.round() as usize).clamp(self.min_bytes, self.max_bytes)
    }

    /// The arrivals of `src` due before `horizon_ns`.
    pub fn arrivals(&self, src: usize, horizon_ns: u64) -> Vec<Arrival> {
        let per_sender = self.rate_hz / (self.ranks - 1) as f64;
        let order = self.popularity();
        let cdf = self.zipf_cdf();
        let s = src as u64;
        let mut out = Vec::new();
        let mut t = 0.0f64;
        for i in 0u64.. {
            let gap = -(1.0 - unit(self.seed, s, i, DRAW_GAP)).ln() / per_sender;
            t += gap * 1e9;
            if t >= horizon_ns as f64 {
                break;
            }
            // Redraw (deterministically) when the draw names the sender.
            let dest = (0u64..)
                .map(|j| {
                    let u = unit(self.seed, s, i, DRAW_DEST + 8 * j);
                    order[cdf.partition_point(|&c| c <= u).min(self.ranks - 1)]
                })
                .find(|&d| d != src)
                .expect("at least two ranks");
            out.push(Arrival {
                at_ns: t as u64,
                dest,
                bytes: self.size(unit(self.seed, s, i, DRAW_SIZE)),
            });
        }
        out
    }

    /// Every sender's arrivals, indexed by rank (the hot rank's is empty).
    pub fn schedule(&self, horizon_ns: u64) -> Vec<Vec<Arrival>> {
        (0..self.ranks)
            .map(|r| {
                if r == self.hot {
                    Vec::new()
                } else {
                    self.arrivals(r, horizon_ns)
                }
            })
            .collect()
    }
}

/// A digest of a whole schedule: equal schedules, equal digests.
pub fn schedule_digest(schedule: &[Vec<Arrival>]) -> u64 {
    let mut bytes = Vec::new();
    for (src, arrivals) in schedule.iter().enumerate() {
        bytes.extend_from_slice(&(src as u64).to_le_bytes());
        for a in arrivals {
            bytes.extend_from_slice(&a.at_ns.to_le_bytes());
            bytes.extend_from_slice(&(a.dest as u64).to_le_bytes());
            bytes.extend_from_slice(&(a.bytes as u64).to_le_bytes());
        }
    }
    snow_state::fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(seed: u64) -> SoakGen {
        SoakGen {
            seed,
            ranks: 8,
            hot: 0,
            rate_hz: 4_000.0,
            min_bytes: 32,
            max_bytes: 4096,
            alpha: 1.2,
            zipf_s: 1.0,
        }
    }

    #[test]
    fn deterministic_same_seed_same_digest() {
        let a = schedule_digest(&gen(7).schedule(200_000_000));
        let b = schedule_digest(&gen(7).schedule(200_000_000));
        assert_eq!(a, b);
        let c = schedule_digest(&gen(8).schedule(200_000_000));
        assert_ne!(a, c);
    }

    #[test]
    fn arrivals_respect_bounds_and_skew() {
        let g = gen(3);
        let sched = g.schedule(1_000_000_000);
        assert!(sched[g.hot].is_empty());
        let mut to_hot = 0usize;
        let mut total = 0usize;
        for (src, arrivals) in sched.iter().enumerate() {
            let mut last = 0;
            for a in arrivals {
                assert!(a.at_ns >= last && a.at_ns < 1_000_000_000);
                assert!((32..=4096).contains(&a.bytes));
                assert_ne!(a.dest, src);
                last = a.at_ns;
                to_hot += usize::from(a.dest == g.hot);
                total += 1;
            }
        }
        // Poisson at 4 kHz for 1 s, and the hot rank is the most popular.
        assert!((3_400..4_600).contains(&total), "{total}");
        assert!(to_hot * 8 > total * 2, "{to_hot} of {total}");
    }
}
