//! Vendored, dependency-free shim of the `rand` 0.8 API surface used by
//! this workspace.
//!
//! The container this reproduction builds in has no crates-io access, and
//! determinism is a core requirement of the PREPARE experiments (every
//! figure is a seeded, replayable simulation). This shim therefore
//! provides *only* seeded generators: there is deliberately no
//! `thread_rng()`, no `random()`, and no OS-entropy path — `cargo xtask
//! lint` treats any appearance of those tokens in library code as a
//! determinism hazard.
//!
//! The generator is xoshiro256** seeded via SplitMix64, so streams are
//! identical on every platform and every run for a given seed. The
//! numeric streams differ from crates-io `rand`'s `StdRng` (ChaCha12);
//! nothing in the workspace depends on the concrete stream, only on
//! seed-determinism.

/// Seedable generator types.
pub mod rngs {
    /// The workspace's standard deterministic generator (xoshiro256**).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        pub(crate) s: [u64; 4],
    }
}

use rngs::StdRng;

impl StdRng {
    fn next_raw(&mut self) -> u64 {
        // xoshiro256** by Blackman & Vigna (public domain reference code).
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// Types that can seed-construct a generator.
pub trait SeedableRng: Sized {
    /// Builds a generator whose entire stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion of the 64-bit seed into the 256-bit state,
        // as recommended by the xoshiro authors.
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        StdRng {
            s: [next(), next(), next(), next()],
        }
    }
}

/// A half-open or inclusive range a generator can sample uniformly.
pub trait SampleRange<T> {
    /// Draws one uniform value from the range.
    fn sample_from(self, rng: &mut dyn RngCore) -> T;
}

/// Object-safe core of a generator: a stream of `u64`s.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        self.next_raw()
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Values producible uniformly over their "standard" domain (`[0,1)` for
/// floats, the full domain for integers and `bool`).
pub trait Standard: Sized {
    /// Draws one value.
    fn standard(rng: &mut dyn RngCore) -> Self;
}

impl Standard for f64 {
    fn standard(rng: &mut dyn RngCore) -> Self {
        // 53 random mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    fn standard(rng: &mut dyn RngCore) -> Self {
        rng.next_u64()
    }
}

impl Standard for bool {
    fn standard(rng: &mut dyn RngCore) -> Self {
        rng.next_u64() & 1 == 1
    }
}

fn uniform_u64_below(rng: &mut dyn RngCore, bound: u64) -> u64 {
    debug_assert!(bound > 0, "empty range");
    // Rejection sampling over the largest multiple of `bound`, so the
    // draw is exactly uniform (no modulo bias).
    let zone = u64::MAX - (u64::MAX % bound);
    loop {
        let v = rng.next_u64();
        if v < zone {
            return v % bound;
        }
    }
}

macro_rules! impl_int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from(self, rng: &mut dyn RngCore) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                let off = uniform_u64_below(rng, span);
                (self.start as i128 + off as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from(self, rng: &mut dyn RngCore) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                let off = uniform_u64_below(rng, span + 1);
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}

impl_int_ranges!(usize, u64, u32, i64, i32);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_from(self, rng: &mut dyn RngCore) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        assert!(
            self.start.is_finite() && self.end.is_finite(),
            "cannot sample non-finite range"
        );
        let u = f64::standard(rng);
        let v = self.start + (self.end - self.start) * u;
        // Floating rounding can land exactly on `end`; clamp back inside.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

impl SampleRange<f64> for core::ops::RangeInclusive<f64> {
    fn sample_from(self, rng: &mut dyn RngCore) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "cannot sample empty range");
        assert!(
            lo.is_finite() && hi.is_finite(),
            "cannot sample non-finite range"
        );
        lo + (hi - lo) * f64::standard(rng)
    }
}

/// The user-facing generator interface (subset of `rand::Rng`).
pub trait Rng: RngCore {
    /// Draws a value uniformly over `T`'s standard domain.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::standard(self)
    }

    /// Draws a value uniformly from `range`.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Bernoulli draw with probability `p` of `true`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        f64::standard(self) < p
    }
}

impl<R: RngCore> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be effectively independent");
    }

    #[test]
    fn f64_standard_in_unit_interval() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v: f64 = r.gen();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn int_range_uniform_and_in_bounds() {
        let mut r = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[r.gen_range(0usize..10)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "skewed bucket: {counts:?}");
        }
        for _ in 0..1000 {
            let v = r.gen_range(-5i64..5);
            assert!((-5..5).contains(&v));
        }
        assert_eq!(r.gen_range(4u32..=4), 4);
    }

    #[test]
    fn f64_range_in_bounds() {
        let mut r = StdRng::seed_from_u64(11);
        for _ in 0..10_000 {
            let v = r.gen_range(2.5f64..3.5);
            assert!((2.5..3.5).contains(&v));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = StdRng::seed_from_u64(5);
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }
}
