//! Offline stand-in for `rand` 0.8, covering exactly the calls the `mphpc`
//! workspace makes. The generator and the sampling algorithms follow the
//! published crate (ChaCha12 block generator behind a 64-word buffer, PCG32
//! seed expansion, widening-multiply integer ranges, 53-bit floats) so the
//! program pays the same kind of cost per draw; streams are deterministic per
//! seed but are not promised to equal the published crate's bit for bit.

pub mod rngs;
pub mod seq;

use std::ops::{Range, RangeInclusive};

/// Source of random words.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A generator that can be built from a fixed-size seed.
pub trait SeedableRng: Sized {
    type Seed: Sized + Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    /// Expands a `u64` into a full seed with PCG32, as `rand_core` does.
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            let x = xorshifted.rotate_right(rot).to_le_bytes();
            chunk.copy_from_slice(&x[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// A type `Rng::gen` can produce.
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}
impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}
impl Standard for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}
impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() as i32) < 0
    }
}
impl Standard for f64 {
    /// 53 random bits scaled into `[0, 1)`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}
impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// A range `Rng::gen_range` can sample from.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_range {
    ($ty:ty, $unsigned:ty, $large:ty, $wide:ty) => {
        impl SampleRange<$ty> for RangeInclusive<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                let (low, high) = self.into_inner();
                assert!(low <= high, "cannot sample empty range");
                let range = (high.wrapping_sub(low) as $unsigned).wrapping_add(1) as $large;
                if range == 0 {
                    return <$large as Standard>::sample(rng) as $ty;
                }
                // Widening multiply with a rejection zone: unbiased, and
                // rejects rarely for small ranges.
                let zone = (range << range.leading_zeros()).wrapping_sub(1);
                loop {
                    let v = <$large as Standard>::sample(rng);
                    let wide = (v as $wide) * (range as $wide);
                    let (hi, lo) = ((wide >> <$large>::BITS) as $large, wide as $large);
                    if lo <= zone {
                        return low.wrapping_add(hi as $ty);
                    }
                }
            }
        }
        impl SampleRange<$ty> for Range<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "cannot sample empty range");
                (self.start..=self.end - 1).sample_single(rng)
            }
        }
    };
}

int_range!(u8, u8, u32, u64);
int_range!(u16, u16, u32, u64);
int_range!(u32, u32, u32, u64);
int_range!(i32, u32, u32, u64);
int_range!(u64, u64, u64, u128);
int_range!(i64, u64, u64, u128);
int_range!(usize, usize, u64, u128);

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (low, high) = (self.start, self.end);
        assert!(low < high, "cannot sample empty range");
        let mut scale = high - low;
        assert!(scale.is_finite(), "range overflow");
        loop {
            // A float in [1, 2) from 52 random mantissa bits.
            let value1_2 = f64::from_bits((rng.next_u64() >> 12) | (1023u64 << 52));
            let res = value1_2 * scale + (low - scale);
            if res < high {
                return res;
            }
            // Rounding reached `high`: shrink the scale by one ulp and retry.
            scale = f64::from_bits(scale.to_bits() - 1);
        }
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (low, high) = self.into_inner();
        assert!(low <= high, "cannot sample empty range");
        let max_rand = 1.0 - f64::EPSILON;
        let scale = (high - low) / max_rand;
        let value0_1 = f64::from_bits((rng.next_u64() >> 12) | (1023u64 << 52)) - 1.0;
        (value0_1 * scale + low).min(high)
    }
}

impl SampleRange<f32> for Range<f32> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        let (low, high) = (self.start, self.end);
        assert!(low < high, "cannot sample empty range");
        let mut scale = high - low;
        loop {
            let value1_2 = f32::from_bits((rng.next_u32() >> 9) | (127u32 << 23));
            let res = value1_2 * scale + (low - scale);
            if res < high {
                return res;
            }
            scale = f32::from_bits(scale.to_bits() - 1);
        }
    }
}

/// The user-facing sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        if p >= 1.0 {
            return true;
        }
        // 2^64 as f64; `p < 1` keeps the product below it.
        let p_int = (p * 18446744073709551616.0) as u64;
        self.next_u64() < p_int
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream_and_ranges_hold() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..200).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..200).map(|_| b.gen()).collect();
        let zs: Vec<u64> = (0..200).map(|_| c.gen()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        let mut sum = 0.0;
        for _ in 0..20_000 {
            let f: f64 = a.gen_range(-2.0..3.0);
            assert!((-2.0..3.0).contains(&f));
            let i = a.gen_range(3..9usize);
            assert!((3..9).contains(&i));
            let u: f64 = a.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        assert!((sum / 20_000.0 - 0.5).abs() < 0.02);
    }

    /// RFC 7539 §2.3.2 block with 20 rounds: checks the quarter round,
    /// constants and word layout the 12-round generator shares.
    #[test]
    fn chacha_block_matches_rfc7539() {
        let mut key = [0u32; 8];
        for (i, k) in key.iter_mut().enumerate() {
            let b = (4 * i) as u32;
            *k = b | (b + 1) << 8 | (b + 2) << 16 | (b + 3) << 24;
        }
        let state = super::rngs::initial_state(&key, [1, 0x0900_0000, 0x4a00_0000, 0]);
        let out = super::rngs::chacha_block(&state, 10);
        assert_eq!(out[0], 0xe4e7f110);
        assert_eq!(out[15], 0x4e3c50a2);
    }

    #[test]
    fn shuffle_permutes_and_sample_is_distinct() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut v: Vec<usize> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted);
        for (len, amount) in [(1000, 10), (1000, 800), (100_000, 300)] {
            let mut picked: Vec<usize> = super::seq::index::sample(&mut rng, len, amount)
                .into_iter()
                .collect();
            assert_eq!(picked.len(), amount);
            picked.sort_unstable();
            picked.dedup();
            assert_eq!(picked.len(), amount);
            assert!(picked.iter().all(|&i| i < len));
        }
        assert!(v.choose(&mut rng).is_some());
        assert!(Vec::<u8>::new().choose(&mut rng).is_none());
    }
}
