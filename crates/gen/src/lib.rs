//! # atscale-gen — synthetic input generators (paper Table II)
//!
//! The paper drives each workload with the synthetic input generator
//! embedded in its benchmark suite, sweeping sizes to produce memory
//! footprints from ~250 MB to ~600 GB. This crate keeps the pieces the
//! workspace runs:
//!
//! | Item | Shape | Used by |
//! |------|-------|---------|
//! | [`urand`] | GAPBS uniform-random graph (Erdős–Rényi-like) | the reference CC kernel in `atscale`'s `model_vs_kernel` test |
//! | [`kron`]  | GAPBS Kronecker/RMAT scale-free graph | the same kernel's tests |
//! | [`zipf`]  | Zipf(θ) ranks in O(1) state | the kron graph and mcf models' skewed draws |
//! | [`splitmix64`] | 64-bit mixing | the models, the sweep's per-footprint seeds and the run store |
//! | [`seed_stream`] | per-stream seeds | [`urand`] and [`kron`] |
//!
//! All generators are deterministic functions of an explicit seed, and the
//! graph generators can *stream*: edge `i` (or vertex `v`'s neighbour list)
//! is recomputable in O(1) memory via [`splitmix64`] hashing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kron;
pub mod urand;
pub mod zipf;

/// SplitMix64: a fast, high-quality 64-bit mixing function.
///
/// Used to derive per-entity random streams (e.g. "the neighbours of vertex
/// `v`") from a master seed without storing anything.
///
/// # Example
///
/// ```
/// use atscale_gen::splitmix64;
///
/// let a = splitmix64(42);
/// let b = splitmix64(43);
/// assert_ne!(a, b);
/// assert_eq!(a, splitmix64(42)); // pure function
/// ```
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Combines a seed with a stream index into a new seed.
#[inline]
pub fn seed_stream(seed: u64, stream: u64) -> u64 {
    splitmix64(seed ^ splitmix64(stream))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        let outputs: Vec<u64> = (0..1000).map(splitmix64).collect();
        let mut sorted = outputs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 1000, "no collisions over small inputs");
        // Bits look balanced: average popcount near 32.
        let mean_pop: f64 =
            outputs.iter().map(|v| v.count_ones() as f64).sum::<f64>() / outputs.len() as f64;
        assert!((mean_pop - 32.0).abs() < 1.5, "mean popcount {mean_pop}");
    }

    #[test]
    fn seed_stream_separates_streams() {
        assert_ne!(seed_stream(1, 0), seed_stream(1, 1));
        assert_ne!(seed_stream(1, 0), seed_stream(2, 0));
        assert_eq!(seed_stream(9, 4), seed_stream(9, 4));
    }
}
