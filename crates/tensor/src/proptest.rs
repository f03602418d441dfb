//! A minimal in-repo property-testing harness.
//!
//! Replaces the external `proptest` crate for the hermetic workspace:
//! seeded case generation through the vendored [`Xoshiro256pp`]
//! generator, greedy input shrinking on failure, and assumption
//! (rejection) support. The API is deliberately tiny — a [`Strategy`]
//! trait, a [`check`] runner, and the [`prop_assert!`](crate::prop_assert),
//! [`prop_assert_eq!`](crate::prop_assert_eq), and
//! [`prop_assume!`](crate::prop_assume) macros — but it keeps the
//! properties in `tests/properties.rs` seeded and reproducible: a
//! failure report always names the seed and case index that produced it.
//!
//! # Examples
//!
//! ```
//! use milo_tensor::proptest::{check, vec_of, uniform_f32, Config};
//! use milo_tensor::prop_assert;
//!
//! check(&Config::default(), &vec_of(uniform_f32(-1.0, 1.0), 16), |xs| {
//!     prop_assert!(xs.iter().all(|x| x.abs() <= 1.0));
//!     Ok(())
//! });
//! ```

use crate::prng::{Rng, SeedableRng, Xoshiro256pp};

/// Why a single test case did not pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseFailure {
    /// The case's inputs violated an assumption; the case is discarded
    /// and regenerated rather than counted as a failure.
    Reject(String),
    /// A property assertion failed.
    Fail(String),
}

impl CaseFailure {
    /// Builds an assertion failure.
    pub fn fail(msg: impl Into<String>) -> Self {
        CaseFailure::Fail(msg.into())
    }

    /// Builds an assumption rejection.
    pub fn reject(msg: impl Into<String>) -> Self {
        CaseFailure::Reject(msg.into())
    }
}

/// Outcome of one property evaluation: `Ok(())`, a rejection, or a
/// failure with a message.
pub type CaseResult = Result<(), CaseFailure>;

/// Harness configuration: number of cases, master seed, shrink budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Number of accepted (non-rejected) cases to run.
    pub cases: u32,
    /// Master seed; every generated input derives from it.
    pub seed: u64,
    /// Maximum number of shrinking steps after a failure.
    pub max_shrink_steps: u32,
    /// Maximum number of rejected cases before the run aborts (a guard
    /// against assumptions that almost never hold).
    pub max_rejects: u32,
}

impl Default for Config {
    fn default() -> Self {
        Self { cases: 64, seed: 0x4d69_4c6f_5052_4e47, max_shrink_steps: 512, max_rejects: 4096 }
    }
}

impl Config {
    /// A config running `cases` cases with the default seed and budgets.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases, ..Self::default() }
    }
}

/// A generator of test inputs plus a shrinker toward "simpler" inputs.
pub trait Strategy {
    /// The type of generated inputs.
    type Value: Clone + std::fmt::Debug;

    /// Generates one input from the given seeded generator.
    fn generate(&self, rng: &mut Xoshiro256pp) -> Self::Value;

    /// Proposes strictly simpler variants of `value` to try when a case
    /// fails; an empty vector ends shrinking. Candidates are tried in
    /// order and the first still-failing one is recursed on.
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let _ = value;
        Vec::new()
    }
}

/// Runs `property` on `cfg.cases` inputs drawn from `strategy`,
/// shrinking and panicking on the first failure.
///
/// # Panics
///
/// Panics with the minimal failing input (plus seed and case index for
/// reproduction) if the property fails, or if `cfg.max_rejects`
/// assumptions fail before enough cases are accepted.
pub fn check<S: Strategy>(
    cfg: &Config,
    strategy: &S,
    property: impl Fn(&S::Value) -> CaseResult,
) {
    let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed);
    let mut accepted = 0u32;
    let mut rejected = 0u32;
    let mut case_index = 0u64;
    while accepted < cfg.cases {
        case_index += 1;
        let input = strategy.generate(&mut rng);
        match property(&input) {
            Ok(()) => accepted += 1,
            Err(CaseFailure::Reject(_)) => {
                rejected += 1;
                assert!(
                    rejected <= cfg.max_rejects,
                    "property rejected {rejected} inputs before accepting {} \
                     (seed {:#x}); the assumption is too strict",
                    cfg.cases,
                    cfg.seed,
                );
            }
            Err(CaseFailure::Fail(msg)) => {
                let (minimal, min_msg, steps) =
                    shrink_failure(cfg, strategy, &property, input, msg);
                panic!(
                    "property failed (seed {:#x}, case {case_index}, \
                     {steps} shrink steps)\n  failure: {min_msg}\n  minimal input: \
                     {minimal:?}",
                    cfg.seed,
                );
            }
        }
    }
}

/// Greedily shrinks a failing input: repeatedly takes the first shrink
/// candidate that still fails, until no candidate fails or the step
/// budget runs out. Returns the minimal input, its failure message, and
/// the number of successful shrink steps.
fn shrink_failure<S: Strategy>(
    cfg: &Config,
    strategy: &S,
    property: &impl Fn(&S::Value) -> CaseResult,
    mut current: S::Value,
    mut message: String,
    ) -> (S::Value, String, u32) {
    let mut steps = 0u32;
    'outer: while steps < cfg.max_shrink_steps {
        for candidate in strategy.shrink(&current) {
            if let Err(CaseFailure::Fail(msg)) = property(&candidate) {
                current = candidate;
                message = msg;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (current, message, steps)
}

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

/// Uniform `f32` on `[lo, hi)`; shrinks toward `0.0` (or the in-range
/// endpoint closest to it).
#[derive(Debug, Clone, Copy)]
pub struct UniformF32 {
    lo: f32,
    hi: f32,
}

/// Uniform `f32` strategy on `[lo, hi)`.
pub fn uniform_f32(lo: f32, hi: f32) -> UniformF32 {
    assert!(lo < hi, "empty range [{lo}, {hi})");
    UniformF32 { lo, hi }
}

impl UniformF32 {
    fn origin(&self) -> f32 {
        0.0f32.clamp(self.lo, self.hi - f32::EPSILON * self.hi.abs().max(1.0))
    }
}

impl Strategy for UniformF32 {
    type Value = f32;

    fn generate(&self, rng: &mut Xoshiro256pp) -> f32 {
        rng.gen_range(self.lo..self.hi)
    }

    fn shrink(&self, value: &f32) -> Vec<f32> {
        let origin = self.origin();
        if *value == origin {
            return Vec::new();
        }
        let half = origin + (value - origin) / 2.0;
        let mut out = vec![origin];
        if half != *value && half != origin {
            out.push(half);
        }
        out
    }
}

/// Uniform integer strategy on `[lo, hi)`; shrinks toward `lo`.
#[derive(Debug, Clone, Copy)]
pub struct UniformU8 {
    lo: u8,
    hi: u8,
}

/// Uniform `u8` strategy on `[lo, hi)`.
pub fn uniform_u8(lo: u8, hi: u8) -> UniformU8 {
    assert!(lo < hi, "empty range [{lo}, {hi})");
    UniformU8 { lo, hi }
}

impl Strategy for UniformU8 {
    type Value = u8;

    fn generate(&self, rng: &mut Xoshiro256pp) -> u8 {
        rng.gen_range(self.lo..self.hi)
    }

    fn shrink(&self, value: &u8) -> Vec<u8> {
        if *value == self.lo {
            return Vec::new();
        }
        let mid = self.lo + (value - self.lo) / 2;
        let mut out = vec![self.lo];
        if mid != *value && mid != self.lo {
            out.push(mid);
        }
        out
    }
}

/// Fixed-length vector of draws from an element strategy. Shrinking
/// keeps the length (the properties under test require exact shapes)
/// and simplifies elements, coarse-to-fine: first the whole vector
/// toward the element origin, then halves, then single elements.
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    elem: S,
    len: usize,
}

/// Fixed-length vector strategy.
pub fn vec_of<S: Strategy>(elem: S, len: usize) -> VecStrategy<S> {
    VecStrategy { elem, len }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut Xoshiro256pp) -> Vec<S::Value> {
        (0..self.len).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let mut out = Vec::new();
        // Pass 1: simplify every element at once (first shrink candidate
        // of each, usually the origin).
        let firsts: Vec<Option<S::Value>> =
            value.iter().map(|v| self.elem.shrink(v).into_iter().next()).collect();
        if firsts.iter().any(|f| f.is_some()) {
            out.push(
                value
                    .iter()
                    .zip(&firsts)
                    .map(|(v, f)| f.clone().unwrap_or_else(|| v.clone()))
                    .collect(),
            );
        }
        // Pass 2: simplify each half.
        if value.len() >= 2 {
            for (start, end) in [(0, value.len() / 2), (value.len() / 2, value.len())] {
                let mut candidate = value.clone();
                let mut changed = false;
                for (i, slot) in candidate[start..end].iter_mut().enumerate() {
                    if let Some(f) = &firsts[start + i] {
                        *slot = f.clone();
                        changed = true;
                    }
                }
                if changed {
                    out.push(candidate);
                }
            }
        }
        // Pass 3: single-element shrinks (bounded to keep candidate lists
        // small on wide inputs).
        for (i, v) in value.iter().enumerate().take(16) {
            for simpler in self.elem.shrink(v).into_iter().take(2) {
                let mut candidate = value.clone();
                candidate[i] = simpler;
                out.push(candidate);
            }
        }
        out
    }
}

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);

    fn generate(&self, rng: &mut Xoshiro256pp) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }

    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        let mut out: Vec<Self::Value> = self
            .0
            .shrink(&value.0)
            .into_iter()
            .map(|a| (a, value.1.clone()))
            .collect();
        out.extend(self.1.shrink(&value.1).into_iter().map(|b| (value.0.clone(), b)));
        out
    }
}

/// Asserts a property-scope condition, returning a [`CaseFailure::Fail`]
/// from the enclosing closure when it does not hold.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::proptest::CaseFailure::fail(format!(
                "assertion failed: {} ({}:{})",
                stringify!($cond),
                file!(),
                line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::proptest::CaseFailure::fail(format!(
                "assertion failed: {} ({}:{}): {}",
                stringify!($cond),
                file!(),
                line!(),
                format!($($fmt)+)
            )));
        }
    };
}

/// Asserts equality in a property scope.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err($crate::proptest::CaseFailure::fail(format!(
                "assertion failed: {} == {} ({}:{})\n  left: {:?}\n  right: {:?}",
                stringify!($left),
                stringify!($right),
                file!(),
                line!(),
                l,
                r
            )));
        }
    }};
}

/// Discards the current case (without failing) when its inputs violate
/// an assumption.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::proptest::CaseFailure::reject(format!(
                "assumption failed: {}",
                stringify!($cond)
            )));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let count = std::cell::Cell::new(0u32);
        check(&Config::with_cases(32), &uniform_f32(-1.0, 1.0), |x| {
            count.set(count.get() + 1);
            prop_assert!(x.abs() <= 1.0);
            Ok(())
        });
        assert_eq!(count.get(), 32);
    }

    #[test]
    fn failing_property_panics_and_shrinks() {
        let panic = std::panic::catch_unwind(|| {
            check(&Config::default(), &uniform_f32(0.0, 100.0), |x| {
                prop_assert!(*x < 10.0, "x = {x}");
                Ok(())
            });
        })
        .expect_err("property should fail");
        let msg = panic.downcast_ref::<String>().expect("panic carries a String");
        assert!(msg.contains("minimal input"), "{msg}");
        // Greedy bisection toward 0 should land near the 10.0 boundary,
        // far below the ~90 mean of raw failing draws.
        let minimal: f32 = msg
            .rsplit("minimal input: ")
            .next()
            .unwrap()
            .trim()
            .parse()
            .expect("minimal input parses");
        assert!((10.0..20.5).contains(&minimal), "shrunk to {minimal}");
    }

    #[test]
    fn failure_reports_are_deterministic() {
        let run = || {
            std::panic::catch_unwind(|| {
                check(&Config::default(), &vec_of(uniform_u8(0, 200), 8), |xs| {
                    prop_assert!(xs.iter().all(|&x| x < 150), "xs = {xs:?}");
                    Ok(())
                });
            })
            .expect_err("must fail")
            .downcast_ref::<String>()
            .expect("string panic")
            .clone()
        };
        assert_eq!(run(), run(), "same seed must reproduce the same minimal case");
    }

    #[test]
    fn vector_shrinking_zeroes_irrelevant_elements() {
        let panic = std::panic::catch_unwind(|| {
            check(&Config::default(), &vec_of(uniform_u8(0, 255), 8), |xs| {
                // Fails whenever element 3 is large; the other elements are
                // irrelevant and should shrink to the origin.
                prop_assert!(xs[3] < 100, "xs = {xs:?}");
                Ok(())
            });
        })
        .expect_err("must fail");
        let msg = panic.downcast_ref::<String>().unwrap();
        let minimal = msg.rsplit("minimal input: ").next().expect("minimal input section");
        let list_start = minimal.find('[').expect("vector debug output");
        let nums: Vec<u32> = minimal[list_start + 1..minimal.rfind(']').unwrap()]
            .split(',')
            .map(|s| s.trim().parse().unwrap())
            .collect();
        assert_eq!(nums.len(), 8);
        for (i, &n) in nums.iter().enumerate() {
            if i != 3 {
                assert_eq!(n, 0, "irrelevant element {i} should shrink to 0: {nums:?}");
            }
        }
        assert!(nums[3] >= 100, "culprit element must still fail: {nums:?}");
    }

    #[test]
    fn rejection_regenerates_without_failing() {
        let accepted = std::cell::Cell::new(0u32);
        check(&Config::with_cases(16), &uniform_f32(0.0, 1.0), |x| {
            prop_assume!(*x >= 0.5);
            accepted.set(accepted.get() + 1);
            prop_assert!(*x >= 0.5);
            Ok(())
        });
        assert_eq!(accepted.get(), 16);
    }

    #[test]
    #[should_panic(expected = "too strict")]
    fn impossible_assumption_aborts() {
        check(
            &Config { max_rejects: 32, ..Config::default() },
            &uniform_f32(0.0, 1.0),
            |x| {
                prop_assume!(*x > 2.0);
                Ok(())
            },
        );
    }

    #[test]
    fn tuple_strategy_generates_and_shrinks_both_sides() {
        let strat = (uniform_f32(0.0, 4.0), uniform_u8(0, 16));
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let v = strat.generate(&mut rng);
        assert!((0.0..4.0).contains(&v.0) && v.1 < 16);
        let shrunk = strat.shrink(&(2.0, 8));
        assert!(shrunk.iter().any(|&(a, b)| a == 0.0 && b == 8));
        assert!(shrunk.iter().any(|&(a, b)| a == 2.0 && b == 0));
    }
}
