//! Mergeable log-bucket quantile sketch over fixed-point WCPI values.
//!
//! Values are quantized to integers at [`VALUE_SCALE`] before they ever
//! reach a sketch, and the sketch state is integers only (bucket counts
//! and an `i128` fixed-point sum). That makes every operation *exactly*
//! associative and commutative, and retraction an exact inverse: a
//! store's live sketch after any mix of appends, supersessions and
//! reopens is bit-identical to one built from its live rows in one pass —
//! the property the daemon's online aggregation and `store_compact`'s
//! verify pass both lean on, pinned by `tests/prop_merge.rs`.
//!
//! Positive values land in geometric buckets of ratio `2^(1/8)`; a
//! quantile is reported as its bucket's geometric midpoint, so the
//! **documented relative error bound is `2^(1/16) − 1 ≈ 4.5%`** (plus the
//! one-part-in-`VALUE_SCALE` quantization, negligible for WCPI). Zero and
//! negative values (an idle run's WCPI is exactly 0) count in a dedicated
//! zero bucket reported as `0.0`, exactly.

/// Fixed-point scale for sketched values (WCPI): 1 unit = 1e-9.
pub const VALUE_SCALE: f64 = 1e9;

/// Buckets per doubling; relative error is `2^(1/(2·BUCKETS_PER_OCTAVE)) − 1`.
const BUCKETS_PER_OCTAVE: f64 = 8.0;

/// Documented worst-case relative error of [`Sketch::quantile`] for
/// positive values: `2^(1/16) − 1`.
pub const QUANTILE_RELATIVE_ERROR: f64 = 0.0443;

/// Quantizes a value to the sketch's fixed-point representation.
pub fn value_fp(v: f64) -> i64 {
    let scaled = v * VALUE_SCALE;
    debug_assert!(scaled.abs() < 9.0e18, "value {v} overflows fixed point");
    scaled.round() as i64
}

fn bucket_of(fp: i64) -> i32 {
    debug_assert!(fp > 0);
    ((fp as f64 / VALUE_SCALE).log2() * BUCKETS_PER_OCTAVE).floor() as i32
}

fn bucket_midpoint(bucket: i32) -> f64 {
    2f64.powf((f64::from(bucket) + 0.5) / BUCKETS_PER_OCTAVE)
}

/// A mergeable quantile/mean summary. See the module docs for the exact
/// associativity guarantee and the quantile error bound.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sketch {
    count: u64,
    zero_count: u64,
    sum_fp: i128,
    /// `(bucket, count)` sorted by bucket, counts strictly positive — the
    /// canonical form `PartialEq` compares.
    buckets: Vec<(i32, u64)>,
}

impl Sketch {
    /// An empty sketch.
    pub fn new() -> Sketch {
        Sketch::default()
    }

    /// Number of values observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when no values have been observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Observes one fixed-point value.
    pub fn add_fp(&mut self, fp: i64) {
        self.count += 1;
        self.sum_fp += i128::from(fp);
        if fp <= 0 {
            self.zero_count += 1;
            return;
        }
        let b = bucket_of(fp);
        match self.buckets.binary_search_by_key(&b, |(id, _)| *id) {
            Ok(i) => self.buckets[i].1 += 1,
            Err(i) => self.buckets.insert(i, (b, 1)),
        }
    }

    /// Retracts one previously-added value (used when a re-saved record
    /// supersedes an older row for the same key). Exact: the state returns
    /// to what it would have been had the value never been added.
    pub fn remove_fp(&mut self, fp: i64) {
        debug_assert!(self.count > 0, "removing from an empty sketch");
        self.count = self.count.saturating_sub(1);
        self.sum_fp -= i128::from(fp);
        if fp <= 0 {
            self.zero_count = self.zero_count.saturating_sub(1);
            return;
        }
        let b = bucket_of(fp);
        if let Ok(i) = self.buckets.binary_search_by_key(&b, |(id, _)| *id) {
            self.buckets[i].1 -= 1;
            if self.buckets[i].1 == 0 {
                self.buckets.remove(i);
            }
        }
    }

    /// Merges `other` into `self`. Exactly associative and commutative.
    pub fn merge(&mut self, other: &Sketch) {
        self.count += other.count;
        self.zero_count += other.zero_count;
        self.sum_fp += other.sum_fp;
        for &(b, n) in &other.buckets {
            match self.buckets.binary_search_by_key(&b, |(id, _)| *id) {
                // analyze:allow(panic): `i` is the Ok index binary_search just returned for this vec, so the access cannot be out of bounds
                Ok(i) => self.buckets[i].1 += n,
                Err(i) => self.buckets.insert(i, (b, n)),
            }
        }
    }

    /// Exact mean of the observed values (fixed-point sum over count).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum_fp as f64 / VALUE_SCALE / self.count as f64
    }

    /// The `q`-quantile (`q` in `[0, 1]`), within
    /// [`QUANTILE_RELATIVE_ERROR`] of the true order statistic for
    /// positive values and exact (`0.0`) for the zero bucket. Returns
    /// `0.0` on an empty sketch.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = self.zero_count;
        if target <= cum {
            return 0.0;
        }
        for &(b, n) in &self.buckets {
            cum += n;
            if target <= cum {
                return bucket_midpoint(b);
            }
        }
        // Unreachable when counts are consistent; fall back to the top
        // bucket rather than panicking on a hand-edited state.
        self.buckets
            .last()
            .map_or(0.0, |&(b, _)| bucket_midpoint(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch_of(values: &[f64]) -> Sketch {
        let mut s = Sketch::new();
        for &v in values {
            s.add_fp(value_fp(v));
        }
        s
    }

    #[test]
    fn empty_sketch_is_canonical() {
        let s = Sketch::new();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn mean_is_exact_and_quantiles_bounded() {
        let values: Vec<f64> = (1..=1000).map(|i| f64::from(i) * 0.001).collect();
        let s = sketch_of(&values);
        let exact_mean = values.iter().sum::<f64>() / values.len() as f64;
        assert!((s.mean() - exact_mean).abs() < 1e-9);
        for (q, truth) in [(0.5, 0.5), (0.99, 0.99), (0.01, 0.01)] {
            let got = s.quantile(q);
            assert!(
                (got - truth).abs() / truth <= QUANTILE_RELATIVE_ERROR + 1e-6,
                "q{q}: got {got}, truth {truth}"
            );
        }
    }

    #[test]
    fn zeros_are_exact() {
        let s = sketch_of(&[0.0, 0.0, 0.0, 1.0]);
        assert_eq!(s.quantile(0.5), 0.0);
        assert!(s.quantile(1.0) > 0.9);
    }

    #[test]
    fn merge_equals_concatenation() {
        let a = sketch_of(&[0.1, 0.2, 0.3]);
        let b = sketch_of(&[0.4, 0.0, 7.5]);
        let mut merged = a.clone();
        merged.merge(&b);
        let together = sketch_of(&[0.1, 0.2, 0.3, 0.4, 0.0, 7.5]);
        assert_eq!(merged, together);
        let mut reversed = b;
        reversed.merge(&a);
        assert_eq!(reversed, together, "commutative");
    }

    #[test]
    fn remove_restores_prior_state() {
        let before = sketch_of(&[0.25, 1.5]);
        let mut s = before.clone();
        s.add_fp(value_fp(0.75));
        s.remove_fp(value_fp(0.75));
        assert_eq!(s, before);
        s.add_fp(value_fp(0.0));
        s.remove_fp(value_fp(0.0));
        assert_eq!(s, before);
    }
}
