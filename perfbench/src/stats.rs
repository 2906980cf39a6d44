//! Sample summaries and the benchmark's own random streams.
//!
//! The traffic generators draw from these streams rather than from any
//! sampler in the crates under test, so a change to the program can never
//! change the workload it is measured on.

/// A summary of one metric's samples within a run: count, median and
/// quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// Value at quantile `q` (0..=1) of an ascending slice, nearest rank.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Summarize unsorted samples.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Summary {
        n: s.len(),
        q1: quantile_sorted(&s, 0.25),
        median: median_sorted(&s),
        q3: quantile_sorted(&s, 0.75),
    }
}

fn median_sorted(s: &[f64]) -> f64 {
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// SplitMix64: the stateless mixer behind every draw. `draw(seed, salt, i)`
/// is a pure function, so any entry of a schedule can be regenerated from
/// its index alone.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draw `i` of the stream named by `(seed, salt)`, as a uniform `u64`.
pub fn draw(seed: u64, salt: u64, i: u64) -> u64 {
    mix64(mix64(seed ^ salt).wrapping_add(i))
}

/// Uniform integer in `0..n` from a draw.
pub fn below(x: u64, n: usize) -> usize {
    ((x as u128 * n as u128) >> 64) as usize
}

/// Uniform float in `[0, 1)` from a draw.
pub fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Zipf(s) over ranks `0..n` by inverse CDF over precomputed weights.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(
            n > 0 && s > 0.0,
            "zipf needs a population and a positive exponent"
        );
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// The rank a uniform draw maps to.
    pub fn rank(&self, x: u64) -> usize {
        let u = unit(x);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates over the draw stream), so
/// each seed puts a different set of keys at the head of the Zipf curve.
pub fn permutation(n: usize, seed: u64, salt: u64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = below(draw(seed, salt, i as u64), i + 1);
        p.swap(i, j);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_a_known_set() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (4, 1.0, 2.5, 3.0));
    }

    #[test]
    fn zipf_head_is_heaviest_and_draws_repeat() {
        let z = Zipf::new(100, 1.1);
        let ranks: Vec<usize> = (0..10_000).map(|i| z.rank(draw(7, 1, i))).collect();
        let head = ranks.iter().filter(|&&r| r == 0).count();
        let tail = ranks.iter().filter(|&&r| r == 99).count();
        assert!(head > 10 * tail.max(1));
        assert_eq!(z.rank(draw(7, 1, 5)), ranks[5]);
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = permutation(50, 3, 9);
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
    }
}
