//! Vendored, dependency-free shim of the `proptest` API surface used by
//! this workspace's property tests.
//!
//! Unlike upstream proptest this shim is *fully deterministic*: each
//! `proptest!` test derives its generator seed from the test's module path
//! and name, so a failing case reproduces on every run and every machine
//! with no persistence files. There is no shrinking — failing inputs are
//! printed whole via `Debug` instead.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Strategy combinators and test-harness types, mirroring
/// `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest, Arbitrary,
        BoxedStrategy, ProptestConfig, Strategy, TestCaseRng,
    };
}

/// The RNG handed to strategies while generating one test case.
pub struct TestCaseRng(StdRng);

impl TestCaseRng {
    /// Seeds a case generator from a stable textual key (test path) and a
    /// case index, via FNV-1a — no wall clock, no OS entropy.
    pub fn for_test(key: &str) -> TestCaseRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestCaseRng(StdRng::seed_from_u64(h))
    }
}

impl RngCore for TestCaseRng {
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// Harness configuration (`cases` = number of generated inputs per test).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases each `proptest!` test runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Upstream defaults to 256; 64 keeps the deterministic suite fast
        // while still sweeping each strategy broadly.
        ProptestConfig { cases: 64 }
    }
}

/// A generator of values of one type (shim of `proptest::strategy::Strategy`).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestCaseRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy `f` builds
    /// from it (dependent generation).
    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erases the strategy (needed by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestCaseRng) -> T {
        self.0.generate(rng)
    }
}

/// `prop_map` adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestCaseRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// `prop_flat_map` adapter.
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, F, S2> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestCaseRng) -> S2::Value {
        let mid = self.inner.generate(rng);
        (self.f)(mid).generate(rng)
    }
}

/// Uniform choice between boxed alternatives (backs `prop_oneof!`).
pub struct Union<T>(Vec<BoxedStrategy<T>>);

impl<T> Union<T> {
    /// A union over `alternatives`, each equally likely.
    ///
    /// # Panics
    ///
    /// Panics if `alternatives` is empty.
    pub fn new(alternatives: Vec<BoxedStrategy<T>>) -> Self {
        assert!(
            !alternatives.is_empty(),
            "prop_oneof! needs at least one arm"
        );
        Union(alternatives)
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestCaseRng) -> T {
        let i = rng.gen_range(0..self.0.len());
        self.0[i].generate(rng)
    }
}

macro_rules! impl_range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestCaseRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestCaseRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategies!(usize, u64, u32, i64, i32, f64);

macro_rules! impl_tuple_strategies {
    ($(($($s:ident $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestCaseRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategies! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
}

/// Types with a canonical whole-domain strategy (shim of
/// `proptest::arbitrary::Arbitrary`).
pub trait Arbitrary: Sized {
    /// The whole-domain strategy.
    fn arbitrary() -> BoxedStrategy<Self>;
}

struct AnyBool;
impl Strategy for AnyBool {
    type Value = bool;
    fn generate(&self, rng: &mut TestCaseRng) -> bool {
        rng.gen_range(0u32..2) == 1
    }
}

impl Arbitrary for bool {
    fn arbitrary() -> BoxedStrategy<bool> {
        AnyBool.boxed()
    }
}

/// The whole-domain strategy for `T` (shim of `proptest::prelude::any`).
pub fn any<T: Arbitrary>() -> BoxedStrategy<T> {
    T::arbitrary()
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestCaseRng};
    use rand::Rng;

    /// A size spec for generated collections: an exact size or a range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a size drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Vectors of `element` values with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestCaseRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.size.lo..self.size.hi);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Option strategies (`proptest::option`).
pub mod option {
    use super::{Strategy, TestCaseRng};
    use rand::Rng;

    /// Strategy for `Option<S::Value>`.
    pub struct OptionStrategy<S>(S);

    /// `None` one time in four, `Some(inner)` otherwise (matches upstream's
    /// default `Some` weighting closely enough for coverage).
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestCaseRng) -> Option<S::Value> {
            if rng.gen_range(0u32..4) == 0 {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }
}

/// Union of alternative strategies; arms are boxed so they may be
/// different concrete types with one `Value`.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Asserts inside a property body (no shrinking, so a plain panic).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assert inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Skips the current case when its precondition does not hold.
///
/// Only valid directly inside a `proptest!` body (it `continue`s the
/// case loop).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            continue;
        }
    };
}

/// Declares deterministic property tests over strategies.
///
/// Supported shape (the subset this workspace uses):
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn name(x in 0usize..5, ys in proptest::collection::vec(0..3, 1..9)) {
///         prop_assert!(x < 5);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_cases! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_cases! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_cases {
    ( ($cfg:expr)
      $( #[test] fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )*
    ) => {
        $(
            #[test]
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut case_rng = $crate::TestCaseRng::for_test(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                for _case in 0..config.cases {
                    $(
                        let $arg = $crate::Strategy::generate(&($strat), &mut case_rng);
                    )+
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn seeded_key_is_stable() {
        let mut a = TestCaseRng::for_test("k");
        let mut b = TestCaseRng::for_test("k");
        use rand::RngCore;
        assert_eq!(a.next_u64(), b.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn ranges_and_collections_compose(
            n in 1usize..5,
            xs in crate::collection::vec(0u64..10, 2..9),
            flag in any::<bool>(),
            opt in crate::option::of(0.5f64..1.5),
        ) {
            prop_assert!((1..5).contains(&n));
            prop_assert!(xs.len() >= 2 && xs.len() < 9);
            prop_assert!(xs.iter().all(|&x| x < 10));
            let _ = flag;
            if let Some(v) = opt {
                prop_assert!((0.5..1.5).contains(&v));
            }
        }

        #[test]
        fn oneof_maps_cover_all_arms(
            v in prop_oneof![
                (0usize..3).prop_map(|i| ("small", i)),
                (10usize..13).prop_map(|i| ("big", i)),
            ],
        ) {
            match v {
                ("small", i) => prop_assert!(i < 3),
                ("big", i) => prop_assert!((10..13).contains(&i)),
                other => panic!("unexpected arm {other:?}"),
            }
        }

        #[test]
        fn assume_skips_cases(x in 0usize..10) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }
}
