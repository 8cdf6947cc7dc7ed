//! Offline stand-in for the subset of [`proptest` 1.x](https://docs.rs/proptest)
//! this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors a minimal property-testing engine with the same surface syntax:
//! the [`proptest!`] macro, [`strategy::Strategy`] with `prop_map`,
//! [`prop_oneof!`], [`strategy::Just`], [`arbitrary::any`], range and
//! regex-string strategies, [`collection::vec`] and [`sample::Index`].
//!
//! Differences from the real crate:
//!
//! * **No shrinking.** A failing case panics with the generated inputs so
//!   it can be reproduced, but no minimisation is attempted.
//! * **Deterministic.** Case `i` of test `t` draws from an RNG seeded by
//!   `hash(t, i)`; a failure therefore reproduces on every run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod test_runner {
    //! The case runner: configuration, RNG and failure plumbing.

    /// Test configuration. Only `cases` is honoured.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of accepted (non-rejected) cases to run per property.
        pub cases: u32,
        /// Maximum rejected cases (`prop_assume!` failures) tolerated
        /// before the property errors out.
        pub max_global_rejects: u32,
    }

    impl Config {
        /// A config running `cases` accepted cases.
        pub fn with_cases(cases: u32) -> Self {
            Self {
                cases,
                ..Self::default()
            }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Self {
                cases: 256,
                max_global_rejects: 65_536,
            }
        }
    }

    /// Why a single case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// An assertion failed; the message describes it.
        Fail(String),
        /// The case was rejected by `prop_assume!` and should be retried.
        Reject(String),
    }

    impl TestCaseError {
        /// Constructs a failure with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// Constructs a rejection with the given reason.
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    /// The per-case deterministic generator (xoshiro256** seeded by
    /// SplitMix64 over `(test name hash, case index)`).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        s: [u64; 4],
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl TestRng {
        /// RNG for case number `case` of the test named `name`.
        pub fn for_case(name: &str, case: u32) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            let mut state = h ^ (u64::from(case) << 32) ^ u64::from(case);
            let mut s = [0u64; 4];
            for word in &mut s {
                *word = splitmix(&mut state);
            }
            if s == [0; 4] {
                s[0] = 1;
            }
            Self { s }
        }

        /// Next 64 uniform bits.
        pub fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        /// Uniform value in `[0, span)` (`span` > 0).
        pub fn below(&mut self, span: u64) -> u64 {
            debug_assert!(span > 0);
            ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64
        }
    }
}

pub mod strategy {
    //! Value-generation strategies.

    use crate::test_runner::TestRng;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of one type.
    ///
    /// Unlike the real crate there is no value tree and no shrinking; a
    /// strategy is just a deterministic function of the case RNG.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { source: self, f }
        }

        /// Generates with `self`, then generates from the strategy `f`
        /// builds out of that value.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { source: self, f }
        }

        /// Rejects generated values failing `f`, retrying (bounded).
        fn prop_filter<F: Fn(&Self::Value) -> bool>(
            self,
            _whence: &'static str,
            f: F,
        ) -> Filter<Self, F>
        where
            Self: Sized,
        {
            Filter { source: self, f }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

    impl<V> Strategy for Box<dyn Strategy<Value = V>> {
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

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
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

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;

        fn generate(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.source.generate(rng)).generate(rng)
        }
    }

    /// See [`Strategy::prop_filter`].
    pub struct Filter<S, F> {
        source: S,
        f: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;

        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1_000 {
                let value = self.source.generate(rng);
                if (self.f)(&value) {
                    return value;
                }
            }
            panic!("prop_filter rejected 1000 consecutive values");
        }
    }

    /// Uniform choice between boxed strategies — the engine of
    /// [`crate::prop_oneof!`].
    pub struct Union<V> {
        options: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// A union over the given options (must be non-empty).
        pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Self { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;

        fn generate(&self, rng: &mut TestRng) -> V {
            let pick = rng.below(self.options.len() as u64) as usize;
            self.options[pick].generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty => $signed:literal),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    // Widen before subtracting: narrow signed spans can
                    // exceed the type's own range.
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start.wrapping_add(rng.below(span) as $t)
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as u64).wrapping_sub(lo as u64);
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    lo.wrapping_add(rng.below(span + 1) as $t)
                }
            }
        )*};
    }

    impl_range_strategy!(
        u8 => false, u16 => false, u32 => false, u64 => false, usize => false,
        i8 => true, i16 => true, i32 => true, i64 => true, isize => true
    );

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);

    /// String strategies from a regex subset: literal characters, `\PC`
    /// (any printable character), character classes `[a-z0-9, ]` with
    /// ranges, and `{m,n}` repetition counts.
    impl Strategy for &'static str {
        type Value = String;

        fn generate(&self, rng: &mut TestRng) -> String {
            generate_from_pattern(self, rng)
        }
    }

    enum Atom {
        Literal(char),
        Printable,
        Class(Vec<(char, char)>),
    }

    fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
        let mut chars = pattern.chars().peekable();
        let mut out = String::new();
        while let Some(c) = chars.next() {
            let atom = match c {
                '\\' => match chars.next() {
                    Some('P') => {
                        // `\PC`: any character not in category C (control).
                        match chars.next() {
                            Some('C') => Atom::Printable,
                            other => panic!("unsupported escape \\P{other:?} in {pattern:?}"),
                        }
                    }
                    Some(esc) => Atom::Literal(esc),
                    None => panic!("dangling escape in {pattern:?}"),
                },
                '[' => {
                    let mut entries = Vec::new();
                    loop {
                        match chars.next() {
                            Some(']') => break,
                            Some(lo) => {
                                if chars.peek() == Some(&'-') {
                                    chars.next();
                                    let hi = chars
                                        .next()
                                        .unwrap_or_else(|| panic!("bad class in {pattern:?}"));
                                    if hi == ']' {
                                        entries.push((lo, lo));
                                        entries.push(('-', '-'));
                                        break;
                                    }
                                    entries.push((lo, hi));
                                } else {
                                    entries.push((lo, lo));
                                }
                            }
                            None => panic!("unterminated class in {pattern:?}"),
                        }
                    }
                    Atom::Class(entries)
                }
                other => Atom::Literal(other),
            };
            // Optional {m,n} repetition.
            let (lo, hi) = if chars.peek() == Some(&'{') {
                chars.next();
                let mut spec = String::new();
                for c in chars.by_ref() {
                    if c == '}' {
                        break;
                    }
                    spec.push(c);
                }
                let (m, n) = spec
                    .split_once(',')
                    .unwrap_or_else(|| panic!("unsupported repetition {{{spec}}} in {pattern:?}"));
                (
                    m.trim().parse::<usize>().expect("repetition lower bound"),
                    n.trim().parse::<usize>().expect("repetition upper bound"),
                )
            } else {
                (1, 1)
            };
            let count = lo + rng.below((hi - lo + 1) as u64) as usize;
            for _ in 0..count {
                out.push(match &atom {
                    Atom::Literal(c) => *c,
                    Atom::Printable => char::from(0x20 + rng.below(0x5F) as u8),
                    Atom::Class(entries) => {
                        let total: u64 = entries
                            .iter()
                            .map(|(lo, hi)| (*hi as u64) - (*lo as u64) + 1)
                            .sum();
                        let mut pick = rng.below(total);
                        let mut chosen = entries[0].0;
                        for (lo, hi) in entries {
                            let size = (*hi as u64) - (*lo as u64) + 1;
                            if pick < size {
                                chosen = char::from_u32(*lo as u32 + pick as u32)
                                    .expect("class range is valid chars");
                                break;
                            }
                            pick -= size;
                        }
                        chosen
                    }
                });
            }
        }
        out
    }

    /// Strategy produced by [`crate::arbitrary::any`].
    pub struct Any<T>(pub(crate) PhantomData<T>);

    impl<T: crate::arbitrary::Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

pub mod arbitrary {
    //! Default strategies per type.

    use crate::strategy::Any;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical uniform generator.
    pub trait Arbitrary: Sized {
        /// Generates one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for u128 {
        fn arbitrary(rng: &mut TestRng) -> u128 {
            (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
        }
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for char {
        fn arbitrary(rng: &mut TestRng) -> char {
            char::from(0x20 + rng.below(0x5F) as u8)
        }
    }

    macro_rules! impl_arbitrary_tuple {
        ($($name:ident),+) => {
            impl<$($name: Arbitrary),+> Arbitrary for ($($name,)+) {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    ($($name::arbitrary(rng),)+)
                }
            }
        };
    }

    impl_arbitrary_tuple!(A);
    impl_arbitrary_tuple!(A, B);
    impl_arbitrary_tuple!(A, B, C);
    impl_arbitrary_tuple!(A, B, C, D);

    impl Arbitrary for crate::sample::Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            crate::sample::Index::from_raw(rng.next_u64())
        }
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A size specification for collection strategies.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            Self {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    /// Generates `Vec`s whose length lies in `size` and whose elements come
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_inclusive - self.size.lo + 1) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod sample {
    //! Sampling helpers.

    /// A deferred index: a uniform raw value mapped onto any collection
    /// length at use time.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Index(u64);

    impl Index {
        pub(crate) fn from_raw(raw: u64) -> Self {
            Self(raw)
        }

        /// This index projected onto a collection of `len` elements.
        ///
        /// # Panics
        ///
        /// Panics if `len` is zero.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            ((u128::from(self.0) * len as u128) >> 64) as usize
        }
    }
}

pub mod prelude {
    //! Everything the property tests import.

    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// The `prop::` module alias used by `prop::collection::vec` etc.
    pub use crate as prop;
}

/// Asserts a condition inside a property, failing the case (not panicking
/// directly) so the harness can report the generated inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Asserts two expressions are equal inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), left, right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "{}\n  left: {:?}\n right: {:?}",
            format!($($fmt)*), left, right
        );
    }};
}

/// Asserts two expressions differ inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left), stringify!($right), left
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "{}\n  both: {:?}",
            format!($($fmt)*), left
        );
    }};
}

/// Rejects the current case, drawing a replacement instead of failing.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                format!($($fmt)*),
            ));
        }
    };
}

/// Uniform choice among strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        // `.boxed()` (rather than an `as` cast) lets the arm's associated
        // `Value` type drive inference of the union's element type.
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// Declares property tests: each `#[test] fn name(binding in strategy, ...)`
/// runs the body over many generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

/// Internal expansion of [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::Config = $config;
            let mut accepted: u32 = 0;
            let mut attempts: u32 = 0;
            while accepted < config.cases {
                attempts += 1;
                if attempts > config.cases.saturating_add(config.max_global_rejects) {
                    panic!(
                        "proptest '{}': too many rejected cases ({} attempts)",
                        stringify!($name),
                        attempts
                    );
                }
                let mut __rng = $crate::test_runner::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    attempts,
                );
                $(let $arg = $crate::strategy::Strategy::generate(&($strategy), &mut __rng);)+
                let __inputs = format!(
                    concat!($("\n  ", stringify!($arg), " = {:?}"),+),
                    $(&$arg),+
                );
                #[allow(clippy::redundant_closure_call)]
                let __outcome = (|| -> ::core::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    ::core::result::Result::Ok(())
                })();
                match __outcome {
                    ::core::result::Result::Ok(()) => accepted += 1,
                    ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest '{}' failed at case {}: {}\ninputs:{}",
                            stringify!($name),
                            accepted + 1,
                            msg,
                            __inputs
                        );
                    }
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, y in -5i64..=5, z in any::<u64>()) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-5..=5).contains(&y));
            let _ = z;
        }

        #[test]
        fn assume_rejects_without_failing(a in any::<u8>()) {
            prop_assume!(a.is_multiple_of(2));
            prop_assert_eq!(a % 2, 0);
        }

        #[test]
        fn oneof_and_map_compose(v in prop_oneof![Just(1u32), 10u32..20, Just(3u32)]) {
            prop_assert!(v == 1 || v == 3 || (10..20).contains(&v));
        }

        #[test]
        fn vec_strategy_obeys_size(items in prop::collection::vec(0u64..100, 2..6)) {
            prop_assert!((2..6).contains(&items.len()));
            prop_assert!(items.iter().all(|&i| i < 100));
        }

        #[test]
        fn regex_subset_generates_matching_strings(s in "[a-z]{2,8} [a-z0-9, ]{0,16}") {
            let (head, tail) = s.split_once(' ').expect("space separator present");
            prop_assert!((2..=8).contains(&head.len()), "head {:?}", head);
            prop_assert!(head.chars().all(|c| c.is_ascii_lowercase()));
            prop_assert!(tail.len() <= 16);
        }

        #[test]
        fn printable_escape_generates_printables(s in "\\PC{0,200}") {
            prop_assert!(s.len() <= 200);
            prop_assert!(s.chars().all(|c| !c.is_control()));
        }

        #[test]
        fn index_projects_into_range(ix in any::<prop::sample::Index>()) {
            prop_assert!(ix.index(7) < 7);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn config_override_is_accepted(x in any::<bool>()) {
            let _ = x;
        }
    }

    // No inner #[test] attribute: a test item nested in a function body is
    // unnameable by the harness (and rustc warns); the outer test drives it.
    proptest! {
        fn always_fails(x in 0u32..10) {
            prop_assert!(x > 100, "x was {}", x);
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_panic_with_inputs() {
        always_fails();
    }
}
