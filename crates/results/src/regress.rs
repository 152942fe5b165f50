//! Streaming β/c regression state for the paper's scaling fit
//! `WCPI = β · log10(M_KB) + c`.
//!
//! The state is the four OLS sums over fixed-point integers (`x` at
//! [`X_SCALE`], `y` at [`crate::VALUE_SCALE`]) accumulated in `i128`.
//! Integer sums are independent of the order the points arrive in, so
//! the fit over a set of rows is **bit-identical** however they are
//! visited.

use crate::aggregate::VALUE_SCALE;

/// Fixed-point scale for the regressor `log10(footprint_KB)`: 1 unit = 1e-6.
pub const X_SCALE: f64 = 1e6;

/// Quantizes a regressor value to fixed point.
pub fn x_fp(x: f64) -> i64 {
    let scaled = x * X_SCALE;
    debug_assert!(scaled.abs() < 9.0e18, "regressor {x} overflows fixed point");
    scaled.round() as i64
}

/// A fitted line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fit {
    /// Slope β of WCPI against `log10(M_KB)`.
    pub beta: f64,
    /// Intercept c.
    pub intercept: f64,
}

/// OLS accumulator. All state is integral; see the module docs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Regress {
    n: u64,
    sx: i128,
    sy: i128,
    sxx: i128,
    sxy: i128,
}

impl Regress {
    /// An empty accumulator.
    pub fn new() -> Regress {
        Regress::default()
    }

    /// Observes one `(x, y)` fixed-point pair.
    pub fn add(&mut self, x_fp: i64, y_fp: i64) {
        let (x, y) = (i128::from(x_fp), i128::from(y_fp));
        self.n += 1;
        self.sx += x;
        self.sy += y;
        self.sxx += x * x;
        self.sxy += x * y;
    }

    /// The least-squares fit, or `None` with fewer than two points or no
    /// spread in `x` (a single-footprint group has no slope). The result
    /// is a pure function of the integer sums, so any order of adding the
    /// same point multiset yields the identical `Fit`.
    pub fn fit(&self) -> Option<Fit> {
        if self.n < 2 {
            return None;
        }
        let n = i128::from(self.n);
        let denom = n * self.sxx - self.sx * self.sx; // units: X_SCALE^2
        if denom == 0 {
            return None;
        }
        let num = n * self.sxy - self.sx * self.sy; // units: X_SCALE * VALUE_SCALE
        let beta = (num as f64 / denom as f64) * (X_SCALE / VALUE_SCALE);
        let mean_y = self.sy as f64 / VALUE_SCALE / self.n as f64;
        let mean_x = self.sx as f64 / X_SCALE / self.n as f64;
        Some(Fit {
            beta,
            intercept: mean_y - beta * mean_x,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::value_fp;

    fn accumulate(points: &[(f64, f64)]) -> Regress {
        let mut r = Regress::new();
        for &(x, y) in points {
            r.add(x_fp(x), value_fp(y));
        }
        r
    }

    #[test]
    fn fits_a_known_line() {
        // y = 0.5x + 0.25 over the fig1 footprint decades.
        let points: Vec<(f64, f64)> = (0..8)
            .map(|i| {
                let x = 4.0 + 0.5 * f64::from(i);
                (x, 0.5 * x + 0.25)
            })
            .collect();
        let fit = accumulate(&points).fit().unwrap();
        assert!((fit.beta - 0.5).abs() < 1e-6, "beta {}", fit.beta);
        assert!((fit.intercept - 0.25).abs() < 1e-6, "c {}", fit.intercept);
    }

    #[test]
    fn degenerate_inputs_have_no_fit() {
        assert_eq!(Regress::new().fit(), None);
        assert_eq!(accumulate(&[(4.0, 1.0)]).fit(), None);
        // Same x twice: no spread, no slope.
        assert_eq!(accumulate(&[(4.0, 1.0), (4.0, 2.0)]).fit(), None);
    }
}
