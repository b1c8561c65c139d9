//! Offline stand-in for the `rand` crate, implementing exactly the surface
//! LAAB uses: `StdRng::seed_from_u64`, `Rng::gen::<f64/bool>()` and
//! `Rng::gen_range(Range<usize>)`.
//!
//! The container this workspace builds in has no access to a crates
//! registry, so external dependencies are replaced by small in-repo shims
//! (see `shims/README.md`). The generator is xoshiro256++ seeded via
//! SplitMix64 — deterministic, fast, and statistically far better than the
//! workloads here require. It is **not** the upstream `StdRng` stream;
//! seeds produce different (but equally reproducible) operand data.

pub mod rngs {
    /// The standard RNG: xoshiro256++ behind the same name upstream uses.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        pub(crate) fn from_u64_seed(seed: u64) -> Self {
            // SplitMix64 expansion, as recommended by the xoshiro authors.
            let mut x = seed;
            let mut next = move || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            Self { s: [next(), next(), next(), next()] }
        }

        pub(crate) fn next_u64_impl(&mut self) -> u64 {
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
}

/// Seeding constructors (subset of upstream `SeedableRng`).
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for rngs::StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        rngs::StdRng::from_u64_seed(seed)
    }
}

/// Types that `Rng::gen` can produce (upstream: the `Standard` distribution).
pub trait Standard: Sized {
    /// Draw one value from `rng`. Generic rather than `dyn`, so a draw
    /// inlines into its loop instead of making a virtual call.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// Object-safe core of a generator.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

impl RngCore for rngs::StdRng {
    fn next_u64(&mut self) -> u64 {
        self.next_u64_impl()
    }
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

/// The user-facing generator trait (subset of upstream `Rng`).
pub trait Rng: RngCore + Sized {
    /// Draw a value of type `T` (f64/f32 in `[0,1)`, uniform bool/ints).
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// Uniform draw from `range` (upstream takes any `SampleRange`; the
    /// shim supports the `Range<usize>` LAAB uses).
    fn gen_range(&mut self, range: std::ops::Range<usize>) -> usize {
        assert!(range.start < range.end, "gen_range: empty range");
        let span = (range.end - range.start) as u64;
        // Multiply-shift rejection-free mapping; bias is < 2^-64 * span,
        // irrelevant for benchmark operand generation.
        range.start + ((self.next_u64() as u128 * span as u128) >> 64) as usize
    }
}

impl<T: RngCore + Sized> Rng for T {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn unit_interval_and_range_bounds() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: f64 = r.gen();
            assert!((0.0..1.0).contains(&x));
            let i = r.gen_range(3..17);
            assert!((3..17).contains(&i));
        }
    }
}
