//! Offline stand-in for the `rand` crate.
//!
//! The build container has no crates.io access, so the workspace vendors
//! the *subset* of `rand` 0.8's API that the reproduction actually uses:
//! the [`Rng`]/[`SeedableRng`] traits, [`rngs::StdRng`], and `gen` for the
//! primitive types drawn by the kernel and simulator. The generator is a
//! deterministic xoshiro256** seeded through SplitMix64 — statistically
//! strong enough for key-material modelling and fault-injection campaigns,
//! and bit-for-bit reproducible across runs and platforms (which the
//! deterministic fault campaigns require).
//!
//! This is explicitly **not** a cryptographically secure RNG; the security
//! argument of the reproduction rests on QARMA-64, not on this generator.

#![forbid(unsafe_code)]

/// Types that can be drawn uniformly from an RNG (the used subset of
/// `rand::distributions::Standard`).
pub trait Fill: Sized {
    /// Draws one uniformly distributed value.
    fn fill_from(rng: &mut dyn RngCore) -> Self;
}

/// Object-safe core of [`Rng`]: a source of uniform 64-bit words.
pub trait RngCore {
    /// The next uniform 64-bit word.
    fn next_u64(&mut self) -> u64;
}

/// The user-facing RNG trait (used subset of `rand::Rng`).
pub trait Rng: RngCore {
    /// Draws a uniformly distributed value of type `T`.
    fn gen<T: Fill>(&mut self) -> T
    where
        Self: Sized,
    {
        T::fill_from(self)
    }

    /// Draws a value in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    fn gen_range(&mut self, range: core::ops::Range<u64>) -> u64
    where
        Self: Sized,
    {
        assert!(range.start < range.end, "gen_range on an empty range");
        let span = range.end - range.start;
        // Multiply-shift bounded draw; bias is < 2^-64 * span, irrelevant
        // for simulation purposes.
        range.start + ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64
    }

    /// Fills `dest` with uniform bytes.
    fn fill_bytes(&mut self, dest: &mut [u8])
    where
        Self: Sized,
    {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

impl Fill for u64 {
    fn fill_from(rng: &mut dyn RngCore) -> Self {
        rng.next_u64()
    }
}

impl Fill for u32 {
    fn fill_from(rng: &mut dyn RngCore) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Fill for u16 {
    fn fill_from(rng: &mut dyn RngCore) -> Self {
        (rng.next_u64() >> 48) as u16
    }
}

impl Fill for u8 {
    fn fill_from(rng: &mut dyn RngCore) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl Fill for bool {
    fn fill_from(rng: &mut dyn RngCore) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl<const N: usize> Fill for [u8; N] {
    fn fill_from(rng: &mut dyn RngCore) -> Self {
        let mut out = [0u8; N];
        for chunk in out.chunks_mut(8) {
            let word = rng.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
        out
    }
}

impl<const N: usize> Fill for [u64; N] {
    fn fill_from(rng: &mut dyn RngCore) -> Self {
        let mut out = [0u64; N];
        for slot in &mut out {
            *slot = rng.next_u64();
        }
        out
    }
}

/// Seedable construction (used subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256** generator (stand-in for `rand`'s
    /// `StdRng`; same API, different — but fixed — stream).
    #[derive(Debug, Clone, Hash)]
    pub struct StdRng {
        state: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, the canonical xoshiro seeding routine.
            let mut sm = seed;
            let mut next = move || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            Self {
                state: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let [s0, s1, s2, s3] = self.state;
            let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s1 << 17;
            let mut n2 = s2 ^ s0;
            let n3 = s3 ^ s1;
            let n1 = s1 ^ n2;
            let n0 = s0 ^ n3;
            n2 ^= t;
            self.state = [n0, n1, n2, n3.rotate_left(45)];
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rngs::StdRng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!((a.next_u64(), a.next_u64()), (b.next_u64(), b.next_u64()));
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.gen_range(10..20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn gen_supports_used_types() {
        let mut rng = StdRng::seed_from_u64(3);
        let _: u64 = rng.gen();
        let _: u32 = rng.gen();
        let _: bool = rng.gen();
        let _: [u8; 16] = rng.gen();
        let _: [u64; 3] = rng.gen();
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
