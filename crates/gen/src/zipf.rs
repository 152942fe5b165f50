//! Zipfian sampling for skewed key distributions.

use rand::Rng;
use std::sync::Mutex;

/// A Zipf(θ) sampler over `0..n` using the Gray et al. "Quickly Generating
/// Billion-Record Synthetic Databases" method (the same construction YCSB
/// uses), which needs only O(1) state regardless of `n`.
///
/// Rank 0 is the most popular item.
///
/// # Example
///
/// ```
/// use atscale_gen::zipf::Zipf;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let zipf = Zipf::new(1_000_000, 0.99);
/// let mut rng = SmallRng::seed_from_u64(1);
/// let k = zipf.sample(&mut rng);
/// assert!(k < 1_000_000);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
}

impl Zipf {
    /// Creates a sampler over `0..n` with skew `theta` (0 < θ < 1; YCSB
    /// uses 0.99).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is outside `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipf needs a non-empty domain");
        assert!(
            theta > 0.0 && theta < 1.0,
            "theta must be in (0, 1); got {theta}"
        );
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf {
            n,
            theta,
            alpha,
            zetan,
            eta,
            zeta2,
        }
    }

    /// Domain size.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draws a rank in `0..n` (0 = most popular).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }

    /// The normalisation constant ζ(2, θ) — exposed for tests.
    pub fn zeta2(&self) -> f64 {
        self.zeta2
    }
}

/// Memo of ζ prefix sums: `(n, theta.to_bits(), Σ_{i=1..n} 1/i^θ)`.
///
/// The exact sum below costs up to 10⁷ `powf` calls, and sweep drivers
/// construct many [`Zipf`] samplers over the same or *nearby* domains (the
/// Kronecker workloads share one θ, their vertex counts at one footprint
/// differ by a few percent, and every footprint recurs across page-size
/// configurations). The sum is a left-to-right `f64` fold, so an entry is
/// both a finished answer for its own `n` and a checkpoint any larger `n`
/// of the same θ resumes from: continuing the same fold from `S_k` performs
/// exactly the additions a fold from 1 would, in the same order, and is
/// bit-identical to it. Keyed by `theta.to_bits()` — exact bit equality, no
/// epsilon games. Bounded FIFO so pathological callers cannot grow it.
static ZETA_MEMO: Mutex<Vec<(u64, u64, f64)>> = Mutex::new(Vec::new());

/// Room for a few θs' worth: one full 10⁷-term sum leaves 39 entries.
const ZETA_MEMO_CAP: usize = 256;

/// A fold also leaves a checkpoint every this many terms, so a *smaller*
/// `n` than any asked for before resumes from at most this far below it.
const ZETA_CHECKPOINT_STRIDE: u64 = 1 << 18;

/// Largest `n` summed exactly; beyond it the tail is integrated.
const ZETA_EXACT_LIMIT: u64 = 10_000_000;

/// Truncated zeta: Σ_{i=1..n} 1/i^θ. Exact up to 10⁷ terms,
/// Euler–Maclaurin approximated above so construction stays O(1)-ish for
/// the paper's billion-key domains.
///
/// Exact sums are memoised process-wide as prefix checkpoints: a repeated
/// `(n, θ)` returns the cached `f64`, and a new `n` costs `n − k` terms
/// past the nearest checkpoint `k ≤ n` of the same θ — either way
/// bit-identical to a fresh summation from 1.
pub fn zeta(n: u64, theta: f64) -> f64 {
    // Tiny sums are cheaper than the lock.
    if n <= 64 {
        return (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
    }
    if n > ZETA_EXACT_LIMIT {
        // The head below the limit is itself memoised (every oversized
        // domain with the same θ shares it).
        let head = zeta(ZETA_EXACT_LIMIT, theta);
        // ∫ x^-θ dx from the limit to n, plus endpoint correction.
        let a = ZETA_EXACT_LIMIT as f64;
        let b = n as f64;
        let tail = (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta);
        return head + tail;
    }
    let theta_bits = theta.to_bits();
    let memo = ZETA_MEMO.lock().expect("zeta memo lock poisoned");
    let (k, mut sum) = nearest_checkpoint(&memo, n, theta_bits);
    drop(memo);
    if k == n {
        return sum;
    }
    // Summed outside the lock: another thread may do the same work, never
    // different work.
    let mut fresh = Vec::new();
    for i in k + 1..=n {
        sum += 1.0 / (i as f64).powf(theta);
        if i % ZETA_CHECKPOINT_STRIDE == 0 || i == n {
            fresh.push((i, theta_bits, sum));
        }
    }
    let mut memo = ZETA_MEMO.lock().expect("zeta memo lock poisoned");
    for entry in fresh {
        if !memo.iter().any(|e| (e.0, e.1) == (entry.0, entry.1)) {
            if memo.len() >= ZETA_MEMO_CAP {
                memo.remove(0);
            }
            memo.push(entry);
        }
    }
    sum
}

/// The memoised prefix `(k, S_k)` of this θ with the largest `k ≤ n`, or
/// the empty fold `(0, 0.0)`.
fn nearest_checkpoint(memo: &[(u64, u64, f64)], n: u64, theta_bits: u64) -> (u64, f64) {
    memo.iter()
        .filter(|&&(k, kt, _)| kt == theta_bits && k <= n)
        .max_by_key(|&&(k, _, _)| k)
        .map_or((0, 0.0), |&(k, _, sum)| (k, sum))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn samples_stay_in_range() {
        let zipf = Zipf::new(1000, 0.99);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..10_000 {
            assert!(zipf.sample(&mut rng) < 1000);
        }
    }

    #[test]
    fn head_is_much_hotter_than_tail() {
        let zipf = Zipf::new(10_000, 0.99);
        let mut rng = SmallRng::seed_from_u64(6);
        let mut head = 0u64;
        let total = 100_000u64;
        for _ in 0..total {
            if zipf.sample(&mut rng) < 100 {
                head += 1;
            }
        }
        // With θ=0.99 over 10k items, the top 1% draws roughly half the mass.
        let frac = head as f64 / total as f64;
        assert!(frac > 0.4, "head fraction {frac}");
    }

    #[test]
    fn rank_zero_is_most_frequent() {
        let zipf = Zipf::new(1000, 0.9);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = vec![0u32; 1000];
        for _ in 0..200_000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        let max_idx = counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, c)| *c)
            .unwrap()
            .0;
        assert_eq!(max_idx, 0);
        assert!(counts[0] > counts[500] * 10);
    }

    #[test]
    fn zeta_approximation_is_close() {
        // Compare approximate (forced via large n identity) against a
        // direct sum at the largest exact size we tolerate in a test.
        let exact = zeta(2_000_000, 0.99);
        assert!(exact.is_finite() && exact > 0.0);
        // Monotonicity across the approximation boundary.
        let below = zeta(10_000_000, 0.99);
        let above = zeta(10_000_001, 0.99);
        assert!(above > below);
        assert!(above - below < 1e-3);
    }

    #[test]
    #[should_panic(expected = "theta must be in")]
    fn invalid_theta_rejected() {
        Zipf::new(10, 1.5);
    }

    /// The uncached summation from 1 that [`zeta`] must agree with to the
    /// bit, whatever it resumed from.
    fn zeta_direct(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    #[test]
    fn memoised_zeta_is_bit_identical_to_direct_summation() {
        // Call twice (second call is served from the memo) and against the
        // uncached summation; all three must agree to the last bit.
        for &(n, theta) in &[(100_000u64, 0.99f64), (100_000, 0.6), (123_457, 0.99)] {
            let first = zeta(n, theta);
            let second = zeta(n, theta);
            let direct = zeta_direct(n, theta);
            assert_eq!(first.to_bits(), direct.to_bits(), "zeta({n}, {theta})");
            assert_eq!(
                second.to_bits(),
                direct.to_bits(),
                "memo hit for ({n}, {theta})"
            );
        }
        // Whatever earlier requests left behind to resume from — ascending
        // (each continues the last), descending (each falls back to a
        // stride checkpoint or to 1), interleaved θs (checkpoints of one θ
        // must never serve another), on and around a stride boundary — the
        // answer is the fold from 1. θs no other test uses, so the first
        // request of each order really starts cold.
        let stride = ZETA_CHECKPOINT_STRIDE;
        let ascending = [65, 1_000, stride - 1, stride, stride + 1, 3 * stride + 17];
        let mut descending = ascending;
        descending.reverse();
        for (thetas, ns) in [
            (&[0.51][..], ascending),
            (&[0.52][..], descending),
            (&[0.53, 0.54, 0.55][..], ascending),
            (&[0.56, 0.57][..], descending),
        ] {
            for n in ns {
                for &theta in thetas {
                    assert_eq!(
                        zeta(n, theta).to_bits(),
                        zeta_direct(n, theta).to_bits(),
                        "zeta({n}, {theta}) in {ns:?} order"
                    );
                }
            }
        }
    }

    #[test]
    fn a_new_n_costs_only_the_terms_past_its_checkpoint() {
        // Not a timing test: a resumed fold that silently restarted from 1
        // would still be bit-identical. Count instead — after one long sum
        // the memo must hold a checkpoint within a stride of any smaller n.
        let theta = 0.58;
        zeta(5 * ZETA_CHECKPOINT_STRIDE + 3, theta);
        let memo = ZETA_MEMO.lock().unwrap();
        for n in [
            ZETA_CHECKPOINT_STRIDE,
            2 * ZETA_CHECKPOINT_STRIDE + 9,
            5 * ZETA_CHECKPOINT_STRIDE,
        ] {
            let (k, _) = nearest_checkpoint(&memo, n, theta.to_bits());
            assert!(
                k > 0 && n - k < ZETA_CHECKPOINT_STRIDE,
                "nearest checkpoint below {n} is {k}: over a stride away"
            );
        }
    }
}
