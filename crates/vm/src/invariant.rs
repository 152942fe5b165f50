//! Lightweight runtime invariant checking.
//!
//! The simulator's credibility rests on counter identities the paper takes
//! from hardware (Table VI walk accounting, Eq. 1's decomposition inputs).
//! This module provides the machinery that keeps those identities *checked*
//! rather than assumed:
//!
//! * [`invariant!`](crate::invariant!) — an assertion macro active in
//!   debug builds and compiled to nothing in release builds. Every
//!   evaluation is counted in a process-wide tally so a run can report
//!   "N invariant checks executed, 0 violations" (see [`summary`]).
//! * [`CheckInvariants`] — a trait implemented by every stateful structure
//!   in the translation stack (page table, address space, cache hierarchy,
//!   TLBs, paging-structure caches, counters, the machine itself). Hot
//!   paths call `check_invariants()` at a bounded cadence in debug builds.
//!
//! The `atscale-audit` static-analysis pass verifies that every public
//! mutating entry point of the counter/TLB/cache state is covered by one of
//! these checks; see `crates/audit`.
//!
//! # Example
//!
//! ```
//! use atscale_vm::invariant;
//!
//! let (a, b) = (2u64, 3u64);
//! invariant!(a < b, "expected {a} < {b}");
//! # let _ = atscale_vm::invariant::summary();
//! ```

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

static CHECKS: AtomicU64 = AtomicU64::new(0);
static VIOLATIONS: AtomicU64 = AtomicU64::new(0);

/// Records one executed check. Called by [`invariant!`]; not public API.
#[doc(hidden)]
pub fn record_check() {
    CHECKS.fetch_add(1, Ordering::Relaxed);
}

/// Records a violated check and panics. Called by [`invariant!`].
#[doc(hidden)]
pub fn record_violation(location: &str, message: &str) -> ! {
    VIOLATIONS.fetch_add(1, Ordering::Relaxed);
    panic!("invariant violated at {location}: {message}");
}

/// Number of invariant checks executed by this process so far.
///
/// Always 0 in release builds, where [`invariant!`](crate::invariant!)
/// compiles out.
pub fn checks_run() -> u64 {
    CHECKS.load(Ordering::Relaxed)
}

/// Number of invariant violations observed by this process so far.
///
/// Non-zero only if a violation panic was caught and execution continued.
pub fn violations_observed() -> u64 {
    VIOLATIONS.load(Ordering::Relaxed)
}

/// Snapshot of the process-wide invariant tallies, for end-of-run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvariantSummary {
    /// Checks executed.
    pub checks: u64,
    /// Violations observed.
    pub violations: u64,
}

/// Takes a snapshot of the process-wide invariant tallies.
pub fn summary() -> InvariantSummary {
    InvariantSummary {
        checks: checks_run(),
        violations: violations_observed(),
    }
}

impl fmt::Display for InvariantSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.checks == 0 {
            // Zero also happens in debug builds when every run was served
            // from the result cache and no simulation executed.
            if cfg!(debug_assertions) {
                write!(f, "invariant checks: none executed")
            } else {
                write!(f, "invariant checks: disabled (release build)")
            }
        } else {
            write!(
                f,
                "invariant checks: {} executed, {} violated",
                self.checks, self.violations
            )
        }
    }
}

/// Structures whose internal consistency can be verified at runtime.
///
/// Implementations panic (via [`invariant!`](crate::invariant!)) on
/// violation in debug builds and are free in release builds. Callers in hot paths should invoke this
/// at a bounded cadence (e.g. once per accounting window), not per access.
pub trait CheckInvariants {
    /// Verifies every structural invariant of `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if an invariant is violated.
    fn check_invariants(&self);
}

/// Asserts a structural invariant.
///
/// In debug builds, evaluates the condition, tallies the check, and panics
/// with the formatted message on failure. In release builds the whole macro
/// compiles to nothing (the condition is not evaluated).
///
/// ```
/// # let walks = 3u64; let completions = 3u64;
/// atscale_vm::invariant!(completions <= walks, "completed {completions} of {walks}");
/// ```
#[macro_export]
macro_rules! invariant {
    ($cond:expr $(,)?) => {
        $crate::invariant!($cond, "{}", stringify!($cond))
    };
    ($cond:expr, $($arg:tt)+) => {
        if cfg!(debug_assertions) {
            $crate::invariant::record_check();
            if !($cond) {
                $crate::invariant::record_violation(
                    concat!(file!(), ":", line!()),
                    &format!($($arg)+),
                );
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_invariant_increments_check_tally() {
        let before = checks_run();
        invariant!(1 + 1 == 2);
        invariant!(true, "with {} message", "formatted");
        if cfg!(debug_assertions) {
            assert!(checks_run() >= before + 2);
        } else {
            assert_eq!(checks_run(), 0);
        }
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "invariants compile out in release")]
    fn failing_invariant_panics_with_location() {
        let result = std::panic::catch_unwind(|| {
            invariant!(2 < 1, "two is not less than {}", 1);
        });
        let err = result.expect_err("invariant must panic in debug builds");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic payload is a String");
        assert!(msg.contains("invariant violated"), "message: {msg}");
        assert!(msg.contains("two is not less than 1"), "message: {msg}");
        assert!(violations_observed() >= 1);
    }

    #[test]
    fn summary_displays_counts() {
        let s = InvariantSummary {
            checks: 10,
            violations: 0,
        };
        assert_eq!(s.to_string(), "invariant checks: 10 executed, 0 violated");
        let idle = InvariantSummary {
            checks: 0,
            violations: 0,
        };
        // Debug test builds report "none executed"; release, "disabled".
        let expected = if cfg!(debug_assertions) {
            "none executed"
        } else {
            "disabled"
        };
        assert!(idle.to_string().contains(expected), "got: {idle}");
    }
}
