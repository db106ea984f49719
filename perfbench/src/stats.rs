//! Small numeric helpers: quantiles, the lap aggregation, seeded draws and
//! the outcome digest.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use stp_sim::RunStats;

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs` (sorted in place).
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    xs.sort_by(f64::total_cmp);
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The lap aggregation. The host alternates between a fast and a slow speed
/// band, each lasting seconds, so a median over laps reports whichever band
/// the run happened to sit in. The fast decile over laps (the 90th
/// percentile of a rate, the 10th of a time) is the figure every run long
/// enough to visit the fast band agrees on.
pub fn fast_decile_rate(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.9)
}

/// See [`fast_decile_rate`]; for times, lower is faster.
pub fn fast_decile_time(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.1)
}

/// SplitMix64: the benchmark's own seeded stream, independent of the
/// program's PRNGs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x5EED_BE4C_0DE5_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Digest of every field of a run's statistics.
pub fn stats_digest(stats: &RunStats) -> u64 {
    let mut h = DefaultHasher::new();
    stats.steps.hash(&mut h);
    stats.sends_s.hash(&mut h);
    stats.sends_r.hash(&mut h);
    stats.deliveries_r.hash(&mut h);
    stats.deliveries_s.hash(&mut h);
    stats.drops.hash(&mut h);
    stats.written.hash(&mut h);
    stats.input_len.hash(&mut h);
    stats.safe.hash(&mut h);
    stats.write_steps.hash(&mut h);
    h.finish()
}

/// Order-sensitive fold of digests.
pub fn fold(acc: u64, x: u64) -> u64 {
    (acc ^ x).wrapping_mul(0x0100_0000_01B3).rotate_left(17)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let mut xs = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut xs, 0.0), 1.0);
        assert_eq!(quantile(&mut xs, 1.0), 4.0);
        assert_eq!(median(&mut xs), 2.5);
    }

    #[test]
    fn splitmix_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = SplitMix::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
    }
}
