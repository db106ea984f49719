//! A minimal, offline, API-compatible stand-in for the `rand` facade.
//!
//! Provides the trait surface this workspace uses — [`RngCore`],
//! [`SeedableRng`], the extension trait [`Rng`] with `gen_bool` /
//! `gen_range`, and the precomputed coin [`Bernoulli`] — over any
//! concrete generator (the vendored `rand_chacha::ChaCha8Rng` here).
//! Streams are deterministic per seed but are **not** bit-compatible with
//! upstream `rand`; derived experiment numbers are regenerated rather
//! than compared against old runs.

#![forbid(unsafe_code)]

use std::ops::Range;

/// Core entropy source: everything derives from `next_u64`.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits (high half of [`Self::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seedable construction, trimmed to the `seed_from_u64` entry point the
/// workspace uses.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a deterministic function of
    /// `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// A half-open range that can be sampled uniformly.
pub trait SampleRange<T> {
    /// Draws a uniform sample from the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                // Multiply-shift keeps the draw unbiased enough for
                // simulation workloads without a rejection loop.
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                self.start + hi as $t
            }
        }
    )*};
}

impl_sample_range!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_range_signed {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                (self.start as i128 + hi as i128) as $t
            }
        }
    )*};
}

impl_sample_range_signed!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

/// A coin that lands `true` with probability `p`, its threshold fixed when
/// it is made.
///
/// A draw takes the top 53 bits `x` of one `next_u64` and returns
/// `x / 2^53 < p`. Scaling by 2^53 is exact, so for an integer `x` that is
/// `x < ceil(p · 2^53)`: one integer compare against a threshold computed
/// once, with the same outcome from the same word as the float formula.
/// [`Rng::gen_bool`] draws through it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bernoulli {
    /// `ceil(p · 2^53)`: `0` never lands, `2^53` always does.
    threshold: u64,
}

impl Bernoulli {
    /// A coin that lands `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    #[inline]
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        // `p · 2^53` is exact and at most 2^53, so the truncating cast is
        // its floor and one compare rounds it up: the ceiling without a
        // call to libm's `ceil`, which `gen_bool` would pay on every draw.
        let scaled = p * (1u64 << 53) as f64;
        let floor = scaled as u64;
        Bernoulli {
            threshold: floor + u64::from((floor as f64) < scaled),
        }
    }

    /// Draws one outcome from one `next_u64`.
    #[inline]
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> bool {
        (rng.next_u64() >> 11) < self.threshold
    }
}

/// The user-facing extension trait: sampling helpers over [`RngCore`].
pub trait Rng: RngCore {
    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        Bernoulli::new(p).sample(self)
    }

    /// Draws a uniform sample from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Counting(u64);

    impl RngCore for Counting {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
            self.0
        }
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = Counting(7);
        for _ in 0..1000 {
            let v = rng.gen_range(3usize..9);
            assert!((3..9).contains(&v));
        }
    }

    #[test]
    fn gen_bool_extremes_are_exact() {
        let mut rng = Counting(7);
        for _ in 0..100 {
            assert!(!rng.gen_bool(0.0));
            assert!(rng.gen_bool(1.0));
        }
    }

    /// Returns one fixed word.
    struct Word(u64);

    impl RngCore for Word {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn bernoulli_matches_the_float_formula_on_boundary_words() {
        let two_53 = 1u64 << 53;
        let ps = [
            0.0,
            1.0,
            0.5,
            0.7,
            0.8,
            0.9,
            1e-300,
            5e-324,
            1.0 - f64::EPSILON / 2.0,
        ];
        for p in ps {
            let coin = Bernoulli::new(p);
            let t = coin.threshold;
            assert!(t <= two_53, "p={p}");
            for x in [0, t.wrapping_sub(1), t, two_53 - 1] {
                if x >= two_53 {
                    continue;
                }
                // The top 53 bits carry `x`; the low 11 bits are ignored.
                for low in [0, 0x7ff] {
                    let word = (x << 11) | low;
                    let float = ((word >> 11) as f64 / two_53 as f64) < p;
                    assert_eq!(coin.sample(&mut Word(word)), float, "p={p} x={x}");
                    assert_eq!(Word(word).gen_bool(p), float, "p={p} x={x}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn gen_bool_rejects_bad_probability() {
        Counting(7).gen_bool(1.5);
    }
}
