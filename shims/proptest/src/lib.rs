//! Offline stand-in for [`proptest`](https://crates.io/crates/proptest).
//!
//! The build environment cannot reach crates.io, so this workspace ships
//! a compact random-testing harness covering exactly the API the
//! property suites use:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(..)]`),
//!   including tuple-pattern arguments like `(array, m) in strategy()`;
//! * [`strategy::Strategy`] with `prop_map` / `prop_flat_map`, range and
//!   tuple strategies, [`strategy::Just`], [`prop_oneof!`], and
//!   [`collection::vec`];
//! * [`arbitrary::any`] for primitive types;
//! * `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!` /
//!   `prop_assume!` and [`test_runner::TestCaseError`].
//!
//! Differences from real proptest: failing cases are **not shrunk** (the
//! failing inputs are reported as generated), and generation is seeded
//! deterministically per test from the test's module path, so runs are
//! reproducible without a persistence file.

pub mod test_runner {
    use std::fmt;

    /// Per-test configuration accepted by `#![proptest_config(..)]`.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of successful cases required for the test to pass.
        pub cases: u32,
        /// Maximum rejected cases (`prop_assume!`) before giving up.
        pub max_global_rejects: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self {
                cases: 256,
                max_global_rejects: 65_536,
            }
        }
    }

    impl ProptestConfig {
        /// Config running `cases` successful cases.
        pub fn with_cases(cases: u32) -> Self {
            Self {
                cases,
                ..Self::default()
            }
        }
    }

    /// Why a single generated case did not pass.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// The case was vetoed by `prop_assume!`; it is skipped, not
        /// counted as a failure.
        Reject(String),
        /// An assertion failed; the whole test fails.
        Fail(String),
    }

    impl TestCaseError {
        /// A failure with the given message.
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError::Fail(reason.into())
        }

        /// A rejection (assumption not met) with the given message.
        pub fn reject(reason: impl Into<String>) -> Self {
            TestCaseError::Reject(reason.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TestCaseError::Reject(r) => write!(f, "input rejected: {r}"),
                TestCaseError::Fail(r) => write!(f, "{r}"),
            }
        }
    }

    /// Result type of one generated case (and of helper functions used
    /// with `?` inside `proptest!` bodies).
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Deterministic generator driving all strategies (SplitMix64).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed the generator from an arbitrary string (e.g. the test's
        /// module path) via FNV-1a.
        pub fn seed_from_str(name: &str) -> Self {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            Self { state: h }
        }

        /// The next 64 uniform bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// A uniform index in `[0, n)`; `n` must be non-zero.
        pub fn index(&mut self, n: usize) -> usize {
            assert!(n > 0, "cannot pick from an empty set");
            (self.next_u64() % n as u64) as usize
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of an associated type.
    ///
    /// Unlike real proptest there is no value tree / shrinking: a
    /// strategy simply draws a value from the deterministic RNG.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draw one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Map generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { source: self, f }
        }

        /// Generate from `self`, then from the strategy `f` returns.
        fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { source: self, f }
        }

        /// Erase the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy, as produced by [`Strategy::boxed`].
    pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            (**self).generate(rng)
        }
    }

    /// Strategy that always yields a clone of its value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.source.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        source: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.source.generate(rng)).generate(rng)
        }
    }

    /// Uniform choice among alternative strategies; built by
    /// [`prop_oneof!`](crate::prop_oneof).
    pub struct Union<V> {
        options: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// A union over the given (non-empty) alternatives.
        pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Self { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let idx = rng.index(self.options.len());
            self.options[idx].generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let off = (u128::from(rng.next_u64()) % span) as i128;
                    (self.start as i128 + off) as $t
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start() <= self.end(), "empty range strategy");
                    let span = (*self.end() as i128 - *self.start() as i128 + 1) as u128;
                    let off = (u128::from(rng.next_u64()) % span) as i128;
                    (*self.start() as i128 + off) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A 0, B 1)
        (A 0, B 1, C 2)
        (A 0, B 1, C 2, D 3)
    }

    /// Strategy for any [`Arbitrary`](crate::arbitrary::Arbitrary) type;
    /// see [`any`](crate::arbitrary::any).
    pub struct AnyStrategy<T>(pub(crate) PhantomData<T>);

    impl<T: crate::arbitrary::Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

pub mod arbitrary {
    use crate::strategy::AnyStrategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical "generate anything" strategy.
    pub trait Arbitrary: Sized {
        /// Draw one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            // Finite, unit-interval values keep downstream arithmetic sane.
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// The canonical strategy for `T`, e.g. `any::<bool>()`.
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy(PhantomData)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy for `Vec`s with element strategy `S`; see [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// `Vec`s whose length is drawn from `size` (half-open) and whose
    /// elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(
            size.start < size.end,
            "empty size range for collection::vec"
        );
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything the property suites import with `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// Mirror of real proptest's `prelude::prop` module alias.
    pub mod prop {
        pub use crate::collection;
        pub use crate::strategy;
    }
}

/// Assert a condition inside a proptest body or a helper returning
/// [`test_runner::TestCaseResult`]; failure aborts the current case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// `prop_assert!(a == b)` with value reporting.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`: {}",
            left,
            right,
            format!($($fmt)*)
        );
    }};
}

/// `prop_assert!(a != b)` with value reporting.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `(left != right)`\n  both: `{:?}`",
            left
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `(left != right)`\n  both: `{:?}`: {}",
            left,
            format!($($fmt)*)
        );
    }};
}

/// Skip the current case unless `cond` holds (does not count as a
/// failure).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(
                concat!("assumption failed: ", stringify!($cond)).to_owned(),
            ));
        }
    };
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($option:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(::std::boxed::Box::new($option)
                as ::std::boxed::Box<dyn $crate::strategy::Strategy<Value = _>>,)+
        ])
    };
}

/// Define `#[test]` functions whose arguments are drawn from strategies,
/// mirroring `proptest::proptest!`.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $($(#[$meta:meta])+ fn $name:ident($($arg:pat in $strategy:expr),* $(,)?) $body:block)*
    ) => {
        $crate::proptest!(@impl ($config) $($(#[$meta])+ fn $name($($arg in $strategy),*) $body)*);
    };
    (
        $($(#[$meta:meta])+ fn $name:ident($($arg:pat in $strategy:expr),* $(,)?) $body:block)*
    ) => {
        $crate::proptest!(@impl ($crate::test_runner::ProptestConfig::default())
            $($(#[$meta])+ fn $name($($arg in $strategy),*) $body)*);
    };
    (@impl ($config:expr)
        $($(#[$meta:meta])+ fn $name:ident($($arg:pat in $strategy:expr),*) $body:block)*
    ) => {
        $(
            $(#[$meta])+
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                let mut rng = $crate::test_runner::TestRng::seed_from_str(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                let mut passed = 0u32;
                let mut rejected = 0u32;
                while passed < config.cases {
                    let outcome: $crate::test_runner::TestCaseResult = (|| {
                        $(let $arg = $crate::strategy::Strategy::generate(&($strategy), &mut rng);)*
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    match outcome {
                        ::std::result::Result::Ok(()) => passed += 1,
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject(r)) => {
                            rejected += 1;
                            if rejected > config.max_global_rejects {
                                panic!("proptest: too many rejected inputs ({r})");
                            }
                        }
                        ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                            panic!("proptest case {} failed: {}", passed + 1, msg);
                        }
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn pairs() -> impl Strategy<Value = Vec<(u32, bool)>> {
        prop::collection::vec((0u32..10, any::<bool>()), 0..50)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_respect_bounds(x in 3u32..17, y in -5i64..5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-5..5).contains(&y));
        }

        #[test]
        fn vec_strategy_respects_size_and_elements(v in pairs()) {
            prop_assert!(v.len() < 50);
            for &(x, _) in &v {
                prop_assert!(x < 10, "element {} out of range", x);
            }
        }

        #[test]
        fn tuple_patterns_work((a, b) in (0u32..4, 0u32..4)) {
            prop_assert!(a < 4 && b < 4);
        }

        #[test]
        fn flat_map_and_just_compose(
            (v, m) in (1u32..8).prop_flat_map(|m| (prop::collection::vec(0..m, 1..20), Just(m)))
        ) {
            prop_assume!(!v.is_empty());
            for &x in &v {
                prop_assert!(x < m);
            }
        }

        #[test]
        fn oneof_picks_only_listed_options(v in prop_oneof![
            prop::collection::vec(0u32..8, 1..10),
            prop::collection::vec(100u32..108, 1..10),
        ]) {
            for &x in &v {
                prop_assert!(x < 8 || (100u32..108).contains(&x));
            }
        }
    }

    #[test]
    fn helper_functions_compose_with_question_mark() {
        fn check(x: u32) -> TestCaseResult {
            prop_assert_eq!(x, x, "reflexivity");
            prop_assert_ne!(x, x + 1);
            Ok(())
        }
        fn outer() -> TestCaseResult {
            check(7)?;
            Ok(())
        }
        assert!(outer().is_ok());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1))]

        #[test]
        #[should_panic(expected = "proptest case 1 failed")]
        fn failures_panic_with_message(x in 0u32..1) {
            prop_assert!(x > 100, "x was {}", x);
        }
    }
}
