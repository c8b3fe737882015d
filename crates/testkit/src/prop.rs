//! A minimal seeded property-testing harness.
//!
//! A property test here is a pair of closures: a **generator** that builds
//! an arbitrary input from a [`Gen`] (a seeded PRNG plus a *size* budget),
//! and a **property** that checks the input and reports failure as an
//! `Err(String)`. [`check`] drives them:
//!
//! 1. persisted **regression cases** (explicit `(seed, size)` pairs checked
//!    into the test source) are re-run first, so past failures can never
//!    silently return;
//! 2. fresh cases are generated from per-case seeds derived off the
//!    config's base seed, with the size budget ramping up across the run;
//! 3. on failure, the case is **shrunk by halving**: the same seed is
//!    re-generated at size/2, size/4, … for as long as the property keeps
//!    failing, and the smallest still-failing `(seed, size)` is reported.
//!
//! Because every [`Gen`] draw scales its span by `size`, regenerating at a
//! halved size yields a structurally smaller input (fewer nodes, shorter
//! vectors, smaller magnitudes) — not a sub-structure of the original
//! failure, but a fresh small counterexample from the same seed, which in
//! practice is what one debugs.
//!
//! The panic message prints the minimal failing pair and the environment
//! override (`IMS_PROP_SEED` / `IMS_PROP_SIZE`) that replays exactly that
//! case; `IMS_PROP_CASES` globally overrides the iteration budget.

use std::fmt::Debug;

use crate::rng::{Rng, SampleRange, SplitMix64, Xoshiro256};

/// Default size budget for the largest generated cases.
pub const MAX_SIZE: u32 = 100;

/// A case generator: a seeded PRNG plus a size budget in `[1, 100]`.
///
/// The sized helpers (`usize_in`, `i64_in`, `vec_with`, …) scale the
/// *span* of their range by `size/100`, so a small budget produces inputs
/// near the lower bounds — the shrinking knob of the harness. Draws that
/// must not shrink (e.g. an independent stream seed) use [`Gen::rng`]
/// directly.
#[derive(Debug)]
pub struct Gen {
    rng: Xoshiro256,
    size: u32,
}

impl Gen {
    /// A generator for the given case seed and size budget (clamped to
    /// `[1, MAX_SIZE]`).
    pub fn new(seed: u64, size: u32) -> Self {
        Gen {
            rng: Xoshiro256::seed_from_u64(seed),
            size: size.clamp(1, MAX_SIZE),
        }
    }

    /// The underlying PRNG, for unscaled draws.
    pub fn rng(&mut self) -> &mut Xoshiro256 {
        &mut self.rng
    }

    /// The current size budget.
    pub fn size(&self) -> u32 {
        self.size
    }

    fn scaled_span(&self, span: u64) -> u64 {
        (span as u128 * self.size as u128)
            .div_ceil(MAX_SIZE as u128)
            .max(1) as u64
    }

    /// A `usize` in `[lo, hi)`, span scaled by the size budget.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range");
        let span = self.scaled_span((hi - lo) as u64);
        lo + self.rng.gen_range(0..span) as usize
    }

    /// An `i64` in `[lo, hi)`, span scaled by the size budget.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn i64_in(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range");
        let span = self.scaled_span((hi - lo) as u64);
        lo + self.rng.gen_range(0..span) as i64
    }

    /// A `u32` in `[lo, hi)`, span scaled by the size budget.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        self.usize_in(lo as usize, hi as usize) as u32
    }

    /// An unscaled draw from `range` (uniform at every size).
    pub fn unscaled<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        self.rng.gen_range(range)
    }

    /// A full-range `u64` (unscaled; used for derived stream seeds).
    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// An unbiased `bool` (unscaled).
    pub fn bool(&mut self) -> bool {
        self.rng.gen_bool(0.5)
    }

    /// A vector of `0..=max_len` elements (length scaled by the size
    /// budget) built by `f`.
    pub fn vec_with<T>(&mut self, max_len: usize, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let len = self.usize_in(0, max_len + 1);
        (0..len).map(|_| f(self)).collect()
    }
}

/// A persisted regression case: a `(seed, size)` pair that once failed.
///
/// Keep these in an array next to the test (the moral equivalent of a
/// `proptest-regressions` file, but in plain source so nothing is lost in
/// refactors); [`check`] re-runs them before generating new cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Regression {
    /// The case seed.
    pub seed: u64,
    /// The size budget the failure was minimal at.
    pub size: u32,
}

impl Regression {
    /// A regression case from its printed `seed` and `size`.
    pub const fn new(seed: u64, size: u32) -> Self {
        Regression { seed, size }
    }
}

/// Configuration for one [`check`] run.
#[derive(Debug, Clone)]
pub struct PropConfig {
    /// Number of fresh cases to generate (after regressions). Overridden
    /// by the `IMS_PROP_CASES` environment variable.
    pub cases: u32,
    /// Base seed from which per-case seeds are derived.
    pub seed: u64,
}

impl PropConfig {
    /// `cases` fresh cases from the default base seed.
    pub fn with_cases(cases: u32) -> Self {
        PropConfig {
            cases,
            seed: DEFAULT_SEED,
        }
    }
}

/// The default base seed (any fixed constant works; changing it changes
/// which cases a run explores, not whether regressions are re-run).
pub const DEFAULT_SEED: u64 = 0x001A_50DD_5EED;

/// Runs `property` over `config.cases` generated inputs, after re-running
/// every persisted `regression` case.
///
/// # Panics
///
/// Panics on the first failing case, after shrinking, with a message that
/// includes the minimal failing `(seed, size)` pair, the `Debug` form of
/// the regenerated input, and the environment override that replays it.
pub fn check<T: Debug>(
    name: &str,
    config: &PropConfig,
    regressions: &[Regression],
    generator: impl Fn(&mut Gen) -> T,
    property: impl Fn(&T) -> Result<(), String>,
) {
    let run_case = |seed: u64, size: u32| -> Result<(), (T, String)> {
        let mut g = Gen::new(seed, size);
        let value = generator(&mut g);
        property(&value).map_err(|msg| (value, msg))
    };

    // Environment override: replay exactly one case.
    if let Ok(seed_str) = std::env::var("IMS_PROP_SEED") {
        let seed = parse_u64(&seed_str)
            .unwrap_or_else(|| panic!("IMS_PROP_SEED {seed_str:?} is not a u64"));
        let size = std::env::var("IMS_PROP_SIZE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(MAX_SIZE);
        if let Err((value, msg)) = run_case(seed, size) {
            panic!(
                "property '{name}' failed on replayed case seed={seed:#x} size={size}\n\
                 input: {value:?}\n{msg}"
            );
        }
        return;
    }

    for r in regressions {
        if let Err((value, msg)) = run_case(r.seed, r.size) {
            panic!(
                "property '{name}' failed on persisted regression seed={:#x} size={}\n\
                 input: {value:?}\n{msg}",
                r.seed, r.size
            );
        }
    }

    let cases = std::env::var("IMS_PROP_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(config.cases)
        .max(1);
    let mut seeds = SplitMix64::new(config.seed);
    for i in 0..cases {
        let seed = seeds.next_u64();
        // Ramp the size budget: small quick cases first, full-size by the
        // second half of the run.
        let size = (MAX_SIZE * (2 * i + 2) / (cases + 1)).clamp(4, MAX_SIZE);
        if let Err((value, msg)) = run_case(seed, size) {
            // Shrink by halving the size budget while the failure persists.
            let (mut best_size, mut best_value, mut best_msg) = (size, value, msg);
            let mut s = size / 2;
            while s >= 1 {
                match run_case(seed, s) {
                    Err((v, m)) => {
                        best_size = s;
                        best_value = v;
                        best_msg = m;
                        s /= 2;
                    }
                    Ok(()) => break,
                }
            }
            panic!(
                "property '{name}' failed (case {i} of {cases})\n\
                 minimal failing case: seed={seed:#x} size={best_size}\n\
                 input: {best_value:?}\n\
                 {best_msg}\n\
                 reproduce with: IMS_PROP_SEED={seed:#x} IMS_PROP_SIZE={best_size} cargo test {name}\n\
                 to pin it, add Regression::new({seed:#x}, {best_size}) to this test's regression list"
            );
        }
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Asserts a condition inside a property closure, returning a formatted
/// `Err` (not panicking) so the harness can shrink the case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {}: {}",
                stringify!($cond),
                format!($($fmt)+)
            ));
        }
    };
}

/// Asserts equality inside a property closure (see [`prop_assert!`]).
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!(
                "assertion failed: {} == {}\n  left: {a:?}\n right: {b:?}",
                stringify!($a),
                stringify!($b)
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!(
                "assertion failed: {} == {}: {}\n  left: {a:?}\n right: {b:?}",
                stringify!($a),
                stringify!($b),
                format!($($fmt)+)
            ));
        }
    }};
}

/// Skips a generated case that does not satisfy a precondition. The case
/// counts as passed; use sparingly (prefer generators that construct valid
/// inputs directly).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Ok(());
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_completes() {
        check(
            "always_true",
            &PropConfig::with_cases(50),
            &[],
            |g| g.usize_in(0, 100),
            |&x| {
                prop_assert!(x < 100);
                Ok(())
            },
        );
    }

    #[test]
    fn generation_is_deterministic_per_seed_and_size() {
        let draw = |seed, size| {
            let mut g = Gen::new(seed, size);
            (g.usize_in(0, 1000), g.i64_in(-50, 50), g.u64())
        };
        assert_eq!(draw(42, 100), draw(42, 100));
        assert_ne!(draw(42, 100), draw(43, 100));
    }

    #[test]
    fn size_budget_bounds_magnitudes() {
        // At size 1 the scaled helpers draw from the bottom ~1% of their
        // ranges.
        let mut g = Gen::new(77, 1);
        for _ in 0..100 {
            assert!(g.usize_in(5, 1000) <= 15);
            assert!(g.i64_in(-3, 1000) <= 8);
            assert!(g.vec_with(50, |g| g.bool()).is_empty());
        }
        // At full size the whole range is reachable.
        let mut g = Gen::new(77, MAX_SIZE);
        assert!((0..200).map(|_| g.usize_in(0, 10)).any(|x| x >= 8));
    }

    #[test]
    fn failing_property_shrinks_and_reports_seed() {
        let result = std::panic::catch_unwind(|| {
            check(
                "fails_when_large",
                &PropConfig::with_cases(200),
                &[],
                |g| g.usize_in(0, 1000),
                |&x| {
                    prop_assert!(x < 10, "x was {x}");
                    Ok(())
                },
            );
        });
        let msg = *result.expect_err("must fail").downcast::<String>().unwrap();
        assert!(msg.contains("minimal failing case"), "{msg}");
        assert!(msg.contains("IMS_PROP_SEED="), "{msg}");
        // Shrinking by halving must have pulled the size well below max.
        let size: u32 = msg
            .split("size=")
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(size < MAX_SIZE, "no shrinking happened: {msg}");
    }

    #[test]
    fn regressions_run_first() {
        let result = std::panic::catch_unwind(|| {
            check(
                "regression_guard",
                &PropConfig::with_cases(1),
                &[Regression::new(0xDEAD, 13)],
                |g| g.usize_in(0, 10),
                |_| Err("always fails".into()),
            );
        });
        let msg = *result.expect_err("must fail").downcast::<String>().unwrap();
        assert!(msg.contains("persisted regression"), "{msg}");
        assert!(msg.contains("0xdead"), "{msg}");
    }

    #[test]
    fn prop_assume_skips() {
        check(
            "assume_skips",
            &PropConfig::with_cases(30),
            &[],
            |g| g.usize_in(0, 100),
            |&x| {
                prop_assume!(x % 2 == 0);
                prop_assert!(x % 2 == 0);
                Ok(())
            },
        );
    }

    #[test]
    fn parse_u64_accepts_hex_and_decimal() {
        assert_eq!(parse_u64("0x10"), Some(16));
        assert_eq!(parse_u64("16"), Some(16));
        assert_eq!(parse_u64("zzz"), None);
    }
}
