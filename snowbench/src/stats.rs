//! Distributions and spans: a log-linear histogram for per-message
//! times, exact samples for per-migration times, the tail-percentile
//! rule, and the span record with its self-time arithmetic.

/// Sub-buckets per power of two: 256 gives ≤ 0.4% relative error.
const SUB_BITS: u32 = 8;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB as usize;

/// Percentiles considered for a tail, lowest first.
const TAIL_LADDER: [f64; 7] = [0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 0.9999];

/// Samples a percentile needs beyond it to be reported.
const TAIL_MIN_BEYOND: f64 = 10.0;

/// Can percentile `q` be reported from `n` samples? Only when at least
/// ten samples lie beyond it.
pub fn supports(n: u64, q: f64) -> bool {
    n as f64 * (1.0 - q) >= TAIL_MIN_BEYOND - 1e-9
}

/// The highest percentile of the ladder that `n` samples support.
pub fn tail_level(n: u64) -> Option<f64> {
    TAIL_LADDER.iter().rev().copied().find(|&q| supports(n, q))
}

/// A log-linear histogram of non-negative integer values (nanoseconds,
/// counts).
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
    sum: u128,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
            sum: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < 2 * SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    ((shift as u64 + 1) * SUB + ((v >> shift) - SUB)) as usize
}

fn bucket_mid(b: usize) -> f64 {
    let b = b as u64;
    if b < 2 * SUB {
        return b as f64;
    }
    let shift = b / SUB - 1;
    let low = (SUB + b % SUB) << shift;
    low as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.n += 1;
        self.sum += v as u128;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then(|| self.sum as f64 / self.n as f64)
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
    }

    /// The `q` quantile, or `None` when the sample cannot support it.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.n == 0 || (q > 0.5 && !supports(self.n, q)) {
            return None;
        }
        let target = (q * (self.n - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > target {
                return Some(bucket_mid(b));
            }
        }
        None
    }
}

/// Exact samples, for per-migration quantities.
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn mean(&self) -> Option<f64> {
        (!self.0.is_empty()).then(|| self.0.iter().sum::<f64>() / self.0.len() as f64)
    }

    /// Linearly interpolated `q` quantile, or `None` when the sample
    /// cannot support it.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let n = self.0.len();
        if n == 0 || (q > 0.5 && !supports(n as u64, q)) {
            return None;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let pos = q * (n - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
    }

    /// `(percentile, value)` at the highest supported tail level.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let q = tail_level(self.0.len() as u64)?;
        Some((q, self.quantile(q)?))
    }
}

/// One timed call the benchmark made into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span, 0 at the root.
    pub parent: u64,
    /// Request id: a message's spans share `src << 32 | seq`, a
    /// migration's spans share its index.
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            self.id, self.parent, self.req, self.name, self.start_ns, self.end_ns
        )
    }
}

/// Self time of the interval `[start, end)`: its length minus the part
/// the child intervals cover. Children may nest, overlap each other or
/// stick out of the parent; only their union inside the parent counts.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_of_disjoint_and_nested_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        // A grandchild inside a child adds no coverage.
        assert_eq!(self_time((0, 100), &[(10, 60), (20, 30)]), 50);
    }

    #[test]
    fn self_time_of_overlapping_and_protruding_children() {
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 60)]), 50);
        assert_eq!(self_time((0, 100), &[(30, 60), (10, 40), (55, 70)]), 40);
        // Parts outside the parent do not count.
        assert_eq!(self_time((50, 100), &[(0, 60), (90, 200)]), 30);
        assert_eq!(self_time((50, 100), &[(0, 10), (120, 200)]), 50);
        assert_eq!(self_time((0, 100), &[(0, 100), (20, 30)]), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_level(9), None);
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(20), Some(0.5));
        assert_eq!(tail_level(40), Some(0.75));
        assert_eq!(tail_level(99), Some(0.75));
        assert_eq!(tail_level(100), Some(0.9));
        assert_eq!(tail_level(1_000), Some(0.99));
        assert_eq!(tail_level(9_999), Some(0.99));
        assert_eq!(tail_level(10_000), Some(0.999));

        let few = Samples((1..=15).map(f64::from).collect());
        assert_eq!(few.tail(), None);
        assert_eq!(few.quantile(0.9), None);
        assert!(few.quantile(0.5).is_some());

        let mut h = Hist::default();
        for v in 0..999 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.99), None);
        h.record(5_000);
        assert!(h.quantile(0.99).is_some());
    }

    #[test]
    fn histogram_quantiles_are_close() {
        let mut h = Hist::default();
        for v in 1..=100_000u64 {
            h.record(v * 1_000);
        }
        for q in [0.5, 0.9, 0.99] {
            let got = h.quantile(q).unwrap();
            let want = q * 100_000_000.0;
            assert!((got - want).abs() / want < 0.005, "q{q}: {got} vs {want}");
        }
        assert_eq!(bucket_of(7), 7);
        assert_eq!(bucket_mid(bucket_of(300)), 300.0);
    }

    #[test]
    fn sample_quantiles_interpolate() {
        let s = Samples(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.quantile(0.5), Some(2.5));
        assert_eq!(s.mean(), Some(2.5));
    }
}
