//! Offline stand-in for `rand_chacha`.
//!
//! Provides a type named [`ChaCha8Rng`] with the constructor surface the
//! workspace uses (`SeedableRng::seed_from_u64` + [`ChaCha8Rng::set_stream`]).
//! The generator is **not** the ChaCha stream cipher — there is no registry
//! access in this build environment — but a splitmix64-keyed xoshiro256++
//! generator with the same contract the workspace relies on:
//!
//! * fully deterministic in `(seed, stream)`;
//! * distinct seeds and distinct streams give statistically independent
//!   sequences;
//! * `set_stream` rewinds to the start of the selected stream, matching how
//!   every call site uses it (construct → `set_stream` → draw).
//!
//! Expanding `(seed, stream)` into the xoshiro state is deferred to the
//! first draw, so the construct → `set_stream` → draw idiom expands once,
//! not twice. The all-zero state, which the expansion never produces,
//! marks "not yet expanded"; the output is the same as expanding eagerly.

use rand::{RngCore, SeedableRng};

/// splitmix64 finalizer: the standard way to expand a 64-bit key into
/// independent generator states.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic per-`(seed, stream)` pseudo-random generator (xoshiro256++
/// core). Named after the upstream type it replaces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaCha8Rng {
    seed: u64,
    stream: u64,
    /// The xoshiro state, or all zero until the first draw expands it.
    s: [u64; 4],
}

impl ChaCha8Rng {
    /// Expand `(seed, stream)` into the xoshiro state: once per stream,
    /// out of line so the draw stays small enough to inline.
    #[cold]
    #[inline(never)]
    fn reset_state(&mut self) {
        // Key the state from both seed and stream so streams are independent.
        let mut key = self.seed ^ self.stream.wrapping_mul(0xA24B_AED4_963E_E407);
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = splitmix64(&mut key);
        }
        // xoshiro must not start from the all-zero state.
        if s == [0, 0, 0, 0] {
            s[0] = 0x1234_5678_9ABC_DEF1;
        }
        self.s = s;
    }

    /// Select an independent stream for the same seed, rewinding to the
    /// stream's start. Mirrors `rand_chacha`'s multi-stream API as used by
    /// `proc_rng`-style helpers: one stream per simulated processor.
    pub fn set_stream(&mut self, stream: u64) {
        self.stream = stream;
        self.s = [0; 4];
    }

    /// The stream currently selected.
    pub fn get_stream(&self) -> u64 {
        self.stream
    }
}

impl SeedableRng for ChaCha8Rng {
    fn seed_from_u64(state: u64) -> Self {
        ChaCha8Rng {
            seed: state,
            stream: 0,
            s: [0; 4],
        }
    }
}

impl RngCore for ChaCha8Rng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        // A nonzero xoshiro state never steps to zero, so zero means the
        // state has not been expanded since construction or `set_stream`.
        if self.s[0] | self.s[1] | self.s[2] | self.s[3] == 0 {
            self.reset_state();
        }
        // xoshiro256++ step.
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
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

/// Alias kept for API parity with upstream `rand_chacha`.
pub type ChaCha12Rng = ChaCha8Rng;
/// Alias kept for API parity with upstream `rand_chacha`.
pub type ChaCha20Rng = ChaCha8Rng;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_decorrelate() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn streams_decorrelate_and_rewind() {
        let mut a = ChaCha8Rng::seed_from_u64(7);
        a.set_stream(3);
        let first: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        a.set_stream(4);
        let other: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        assert_ne!(first, other);
        a.set_stream(3);
        let replay: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        assert_eq!(first, replay);
    }

    fn first3(mut rng: ChaCha8Rng) -> [u64; 3] {
        [rng.next_u64(), rng.next_u64(), rng.next_u64()]
    }

    fn streamed(seed: u64, stream: u64) -> ChaCha8Rng {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        rng.set_stream(stream);
        rng
    }

    /// The first draws of a few `(seed, stream)` keys, recorded while the
    /// state was still expanded eagerly at construction and again at every
    /// `set_stream`: deferring the expansion must not change a single bit.
    #[test]
    fn first_draws_match_the_eagerly_expanded_generator() {
        assert_eq!(
            first3(ChaCha8Rng::seed_from_u64(42)),
            [0xd0764d4f4476689f, 0x519e4174576f3791, 0xfbe07cfb0c24ed8c]
        );
        assert_eq!(
            first3(ChaCha8Rng::seed_from_u64(0)),
            [0x53175d61490b23df, 0x61da6f3dc380d507, 0x5c0fdf91ec9a7bfc]
        );
        assert_eq!(
            first3(streamed(7, 3)),
            [0xc2d6e853b91217c3, 0x335108f3bc1d5076, 0x3c17559a672991b2]
        );
        assert_eq!(
            first3(streamed(u64::MAX, 8191)),
            [0xf032a64e1db47f44, 0xde42a3a39a3dfea8, 0x5baac100a99473f4]
        );
        // A clone taken before the first draw draws the same sequence.
        let original = streamed(11, 5);
        let expected = [0xf7a0c4b42ccaaba9, 0xf871bf2a62104dfb, 0xb6e79908d30bba0d];
        assert_eq!(first3(original.clone()), expected);
        assert_eq!(first3(original), expected);
        // `set_stream` after a draw rewinds to the new stream's start.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        rng.next_u64();
        rng.set_stream(2);
        assert_eq!(
            first3(rng),
            [0x8ce7a3821c44006b, 0xf4267ba49fafa927, 0xa35e1b253aff8f86]
        );
    }

    #[test]
    fn output_is_roughly_uniform() {
        let mut rng = ChaCha8Rng::seed_from_u64(1234);
        let n = 20_000;
        let mut buckets = [0u32; 8];
        for _ in 0..n {
            buckets[rng.gen_range(0..8usize)] += 1;
        }
        for (i, &b) in buckets.iter().enumerate() {
            assert!(
                (n / 8) as f64 * 0.9 < b as f64 && (b as f64) < (n / 8) as f64 * 1.1,
                "bucket {i} = {b}"
            );
        }
    }
}
