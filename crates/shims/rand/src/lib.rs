//! Offline shim for the subset of the `rand` 0.8 API this workspace uses:
//! `StdRng` (+ `SeedableRng::seed_from_u64` / `from_seed`), the `Rng`
//! extension trait (`gen`, `gen_range`, `gen_bool`), and
//! `seq::SliceRandom::shuffle` / `choose`.
//!
//! The generator is xoshiro256++ seeded through SplitMix64 — fast, well
//! distributed, and fully deterministic for a given seed, which is all the
//! simulation layer needs. It makes no attempt to match upstream `rand`'s
//! value streams.

pub mod rngs;
pub mod seq;

/// Core source of randomness: 64 uniformly random bits per call.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&bytes[..n]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Seedable generators (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    type Seed: Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = SplitMix64 { state };
        for chunk in seed.as_mut().chunks_mut(8) {
            let bytes = sm.next().to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&bytes[..n]);
        }
        Self::from_seed(seed)
    }
}

struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Types producible by `Rng::gen` (stand-in for the `Standard` distribution).
pub trait Standard: Sized {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for bool {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }
    )*}
}

standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges usable with `Rng::gen_range` (stand-in for `SampleRange`).
/// Parameterized over the output type so integer literals in ranges unify
/// with the call site's expected type, as in upstream rand.
pub trait SampleRange<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    // Debiased multiply-shift, nearly divisionless (Lemire). A draw is
    // rejected when the product's low word is below `2^64 mod span`,
    // which is less than `span`: a low word of at least `span` is always
    // accepted, so the division runs only for the rare low word below
    // `span`. Span 0 is rejected by callers.
    let mut m = (rng.next_u64() as u128).wrapping_mul(span as u128);
    if (m as u64) < span {
        let threshold = span.wrapping_neg() % span;
        while (m as u64) < threshold {
            m = (rng.next_u64() as u128).wrapping_mul(span as u128);
        }
    }
    (m >> 64) as u64
}

macro_rules! sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + uniform_u64(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + uniform_u64(rng, span as u64) as i128) as $t
            }
        }
    )*}
}

sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! sample_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let unit: $t = Standard::from_rng(rng);
                self.start + unit * (self.end - self.start)
            }
        }
    )*}
}

sample_range_float!(f32, f64);

/// Convenience extension methods (subset of `rand::Rng`).
pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::from_rng(self)
    }

    fn gen_range<T, Range: SampleRange<T>>(&mut self, range: Range) -> T {
        range.sample_from(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        let unit: f64 = Standard::from_rng(self);
        unit < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub use rngs::StdRng;

#[cfg(test)]
mod tests {
    use super::*;

    /// The rejection loop `uniform_u64` replaced: it divides on every call.
    fn uniform_u64_dividing<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
        let threshold = span.wrapping_neg() % span;
        loop {
            let x = rng.next_u64();
            let m = (x as u128).wrapping_mul(span as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    #[test]
    fn bounded_draws_match_the_dividing_loop() {
        // Small spans, spans near powers of two and spans above 2^63,
        // where rejection is frequent.
        let mut spans: Vec<u64> = (1..=300).collect();
        for b in [8, 16, 31, 32, 33, 62, 63] {
            spans.extend([(1u64 << b) - 1, 1 << b, (1 << b) + 1]);
        }
        spans.extend([u64::MAX, u64::MAX - 1, (1 << 63) + 12_345, 3 << 62, u64::MAX / 3]);
        for seed in 0..40u64 {
            let mut new = rngs::StdRng::seed_from_u64(seed);
            let mut old = rngs::StdRng::seed_from_u64(seed);
            for (i, &span) in spans.iter().enumerate() {
                for _ in 0..4 {
                    let want = uniform_u64_dividing(&mut old, span);
                    assert_eq!(uniform_u64(&mut new, span), want, "seed {seed}, span {span} ({i})");
                }
            }
            // Both streams consumed the same number of words.
            assert_eq!(new.next_u64(), old.next_u64(), "seed {seed}");
        }
    }
}
