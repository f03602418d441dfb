//! Self-contained seeded pseudo-random number generation.
//!
//! The workspace builds hermetically with no external crates, so this
//! module vendors the small slice of a PRNG library the reproduction
//! needs: a [`SplitMix64`] seeder, a [`Xoshiro256pp`] generator
//! (xoshiro256++, Blackman & Vigna), and [`Rng`]/[`SeedableRng`] traits
//! whose surface mirrors the subset of `rand 0.8` the codebase was
//! originally written against (`gen`, `gen_range`, `gen_bool`). Every
//! experiment stays bit-for-bit reproducible from a `u64` seed.
//!
//! # Examples
//!
//! ```
//! use milo_tensor::rng::{Rng, SeedableRng, Xoshiro256pp};
//!
//! let mut rng = Xoshiro256pp::seed_from_u64(7);
//! let x: f64 = rng.gen();
//! assert!((0.0..1.0).contains(&x));
//! let k = rng.gen_range(0..10u32);
//! assert!(k < 10);
//! ```

use std::ops::{Range, RangeInclusive};

/// Low-level source of random 64-bit words. Everything else is derived
/// from [`RngCore::next_u64`].
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits (the high half of a 64-bit draw,
    /// which carries the best-mixed bits of xoshiro-family generators).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
}

/// Construction of a generator from a `u64` seed.
///
/// Mirrors `rand::SeedableRng::seed_from_u64`, the only constructor the
/// codebase uses: every test, example, and experiment derives its whole
/// random stream from one integer.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// SplitMix64 (Steele, Lea & Flood): a tiny 64-bit generator used both
/// directly and to expand a single `u64` seed into xoshiro state. Passes
/// through every output of a 64-bit counter exactly once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a SplitMix64 generator from a raw state word.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }
}

impl SeedableRng for SplitMix64 {
    fn seed_from_u64(seed: u64) -> Self {
        Self::new(seed)
    }
}

impl RngCore for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ (Blackman & Vigna, 2019): the workspace's standard
/// generator. 256 bits of state, period 2^256 − 1, and excellent
/// statistical quality for non-cryptographic simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl SeedableRng for Xoshiro256pp {
    /// Expands `seed` through SplitMix64, the seeding procedure the
    /// xoshiro authors recommend (it guarantees a nonzero state and
    /// decorrelates nearby seeds).
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self { s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()] }
    }
}

impl RngCore for Xoshiro256pp {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// Default workspace generator; the name is kept so call sites read the
/// same as they did against the `rand` crate, but the algorithm is the
/// vendored [`Xoshiro256pp`] (streams therefore differ from `rand`'s).
pub type StdRng = Xoshiro256pp;

/// Types that can be sampled from their "standard" distribution:
/// uniform over `[0, 1)` for floats, uniform over the full domain for
/// integers, a fair coin for `bool`.
pub trait SampleStandard {
    /// Draws one standard-distributed value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl SampleStandard for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits → uniform on [0, 1) with full f64 density.
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl SampleStandard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl SampleStandard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_uint {
    ($($t:ty),*) => {$(
        impl SampleStandard for $t {
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Uniform draw from `[0, n)` using Lemire's multiply-shift reduction
/// with a rejection step for exact uniformity.
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n > 0, "empty sampling range");
    let mul = |x: u64| -> (u64, u64) {
        let wide = (x as u128) * (n as u128);
        ((wide >> 64) as u64, wide as u64)
    };
    let (mut hi, mut lo) = mul(rng.next_u64());
    if lo < n {
        let threshold = n.wrapping_neg() % n;
        while lo < threshold {
            let next = mul(rng.next_u64());
            hi = next.0;
            lo = next.1;
        }
    }
    hi
}

/// Ranges that [`Rng::gen_range`] accepts, mirroring
/// `rand::distributions::uniform::SampleRange`.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(uniform_below(rng, span) as $t)
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample from empty range");
                let span = (end as i128 - start as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    // Only reachable for the full u64/i64/usize domain.
                    return rng.next_u64() as $t;
                }
                start.wrapping_add(uniform_below(rng, span as u64) as $t)
            }
        }
    )*};
}
impl_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let u: $t = SampleStandard::sample_standard(rng); // [0, 1)
                self.start + u * (self.end - self.start)
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample from empty range");
                // 53 (or 24) bits scaled by 1/(2^bits − 1) → closed [0, 1].
                let u = (rng.next_u64() >> 11) as f64 / ((1u64 << 53) - 1) as f64;
                start + u as $t * (end - start)
            }
        }
    )*};
}
impl_range_float!(f32, f64);

/// High-level sampling interface, blanket-implemented for every
/// [`RngCore`]. The method set intentionally matches the subset of
/// `rand::Rng` the codebase uses.
pub trait Rng: RngCore {
    /// Samples a value from the standard distribution of `T`
    /// (uniform `[0, 1)` for floats, full domain for integers).
    fn gen<T: SampleStandard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// Samples uniformly from `range` (`a..b` or `a..=b`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of [0, 1]");
        f64::sample_standard(self) < p
    }
}

impl<R: RngCore> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from the public-domain
        // splitmix64.c reference implementation.
        let mut sm = SplitMix64::new(1234567);
        assert_eq!(sm.next_u64(), 6457827717110365317);
        assert_eq!(sm.next_u64(), 3203168211198807973);
        assert_eq!(sm.next_u64(), 9817491932198370423);
    }

    #[test]
    fn xoshiro_is_deterministic_under_seed() {
        let mut a = Xoshiro256pp::seed_from_u64(42);
        let mut b = Xoshiro256pp::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn distinct_seeds_give_distinct_streams() {
        let mut a = Xoshiro256pp::seed_from_u64(1);
        let mut b = Xoshiro256pp::seed_from_u64(2);
        let matches = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(matches, 0, "adjacent seeds should decorrelate via SplitMix64");
    }

    #[test]
    fn unit_floats_stay_in_range() {
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x), "{x}");
            let y: f32 = rng.gen();
            assert!((0.0..1.0).contains(&y), "{y}");
        }
    }

    #[test]
    fn gen_range_covers_all_integer_values() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 8 values should appear: {seen:?}");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        for _ in 0..10_000 {
            let v: i32 = rng.gen_range(-5..5);
            assert!((-5..5).contains(&v), "{v}");
            let f: f32 = rng.gen_range(-0.5f32..=0.5);
            assert!((-0.5..=0.5).contains(&f), "{f}");
        }
    }

    #[test]
    fn inclusive_float_range_can_hit_both_ends_region() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let (mut lo_half, mut hi_half) = (0u32, 0u32);
        for _ in 0..10_000 {
            let v: f64 = rng.gen_range(0.0f64..=1.0);
            if v < 0.5 {
                lo_half += 1;
            } else {
                hi_half += 1;
            }
        }
        // Crude balance check: both halves within 10% of each other.
        let ratio = lo_half as f64 / hi_half as f64;
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        let p = hits as f64 / 100_000.0;
        assert!((p - 0.25).abs() < 0.01, "p {p}");
    }

    #[test]
    fn uniform_below_is_unbiased_over_small_modulus() {
        let mut rng = Xoshiro256pp::seed_from_u64(10);
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            counts[uniform_below(&mut rng, 3) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as f64 / 10_000.0 - 1.0).abs() < 0.05, "counts {counts:?}");
        }
    }

    #[test]
    fn works_through_mut_references() {
        fn draw(rng: &mut impl Rng) -> u64 {
            rng.next_u64()
        }
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        // &mut Xoshiro256pp must itself satisfy Rng (reborrow pattern used
        // throughout the samplers).
        let a = draw(&mut rng);
        let b = draw(&mut rng);
        assert_ne!(a, b);
    }
}
