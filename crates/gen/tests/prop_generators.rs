//! Property tests for the input generators: determinism, range safety,
//! and distribution-shape invariants.

use atscale_gen::kron::{self, KronConfig};
use atscale_gen::urand::{self, UrandConfig};
use atscale_gen::zipf::{zeta, Zipf};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

proptest! {
    /// urand edges stay in range and are reproducible for any seed/scale.
    #[test]
    fn urand_edges_in_range(seed in 0u64..1000, scale in 4u32..12) {
        let cfg = UrandConfig::new(scale, seed);
        let n = cfg.vertices();
        for (i, (u, v)) in urand::edges(cfg).take(200).enumerate() {
            prop_assert!(u < n && v < n);
            let again = urand::edges(cfg).nth(i).unwrap();
            prop_assert_eq!((u, v), again);
        }
    }

    /// Streaming urand neighbours are pure functions of (seed, v, k).
    #[test]
    fn urand_neighbors_deterministic(seed in 0u64..1000, v in 0u64..4096, k in 0u32..16) {
        let cfg = UrandConfig::new(12, seed);
        let a = urand::neighbor(cfg, v, k);
        prop_assert_eq!(a, urand::neighbor(cfg, v, k));
        prop_assert!(a < cfg.vertices());
    }

    /// kron edges stay in range for any seed, and the generator never
    /// panics across scales.
    #[test]
    fn kron_edges_in_range(seed in 0u64..1000, scale in 4u32..12, idx in 0u64..10_000) {
        let cfg = KronConfig::new(scale, seed);
        let i = idx % cfg.edges();
        let (u, v) = kron::edge(cfg, i);
        prop_assert!(u < cfg.vertices() && v < cfg.vertices());
        prop_assert_eq!((u, v), kron::edge(cfg, i));
    }

    /// Zipf samples are in range for any domain size and skew, and zeta is
    /// monotone in n.
    #[test]
    fn zipf_range_and_zeta_monotonicity(
        n in 1u64..200_000,
        theta_millis in 10u64..990,
        seed in 0u64..500,
    ) {
        let theta = theta_millis as f64 / 1000.0;
        let zipf = Zipf::new(n, theta);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(zipf.sample(&mut rng) < n);
        }
        if n > 1 {
            prop_assert!(zeta(n, theta) > zeta(n - 1, theta));
        }
    }
}

/// The kron degree distribution is heavier-tailed than urand's at equal
/// size — the structural property the paper's workload pairs rely on.
#[test]
fn kron_is_heavier_tailed_than_urand() {
    let scale = 11u32;
    let n = 1usize << scale;
    let mut kron_deg = vec![0u32; n];
    for (u, v) in kron::edges(KronConfig::new(scale, 5)) {
        kron_deg[u as usize] += 1;
        kron_deg[v as usize] += 1;
    }
    let mut urand_deg = vec![0u32; n];
    for (u, v) in urand::edges(UrandConfig::new(scale, 5)) {
        urand_deg[u as usize] += 1;
        urand_deg[v as usize] += 1;
    }
    let max_kron = *kron_deg.iter().max().unwrap();
    let max_urand = *urand_deg.iter().max().unwrap();
    assert!(
        max_kron > 4 * max_urand,
        "kron hub degree {max_kron} should dwarf urand max {max_urand}"
    );
}
