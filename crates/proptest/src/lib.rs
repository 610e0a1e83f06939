//! Deterministic in-workspace stand-in for the `proptest` crate.
//!
//! The build environment has no network route to a crates.io mirror, so
//! the real `proptest` cannot be resolved. This shim implements the
//! subset of its API the workspace's property tests use — `proptest!`,
//! `Strategy` + `prop_map`, `prop_oneof!`, `any::<T>()`, integer-range
//! strategies, `prop::collection::{vec, hash_set}`, `prop::option::of`,
//! and the `prop_assert*` / `prop_assume!` macros — with a fixed-seed
//! SplitMix64 generator so every run of every test explores the same
//! cases (failures are trivially reproducible; no shrinking is needed
//! because inputs are replayed identically).
//!
//! Values are drawn uniformly, except integers which return the edge
//! values `0`, `1`, and `MAX` with elevated probability — the cheap
//! two-thirds of what the real crate's biased generators buy.

#![forbid(unsafe_code)]

pub mod test_runner {
    //! Test configuration and the deterministic RNG.

    /// Configuration accepted by `#![proptest_config(..)]`.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }

    /// SplitMix64 — tiny, fast, and statistically fine for test-case
    /// generation.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// RNG seeded directly.
        pub fn seeded(seed: u64) -> Self {
            Self { state: seed ^ 0x9E37_79B9_7F4A_7C15 }
        }

        /// RNG seeded from a test's fully qualified name, so each
        /// property explores its own (fixed) sequence.
        pub fn for_test(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            Self::seeded(h)
        }

        /// Next raw 64-bit draw.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw in `[0, n)` (`0` when `n == 0`).
        pub fn below(&mut self, n: u64) -> u64 {
            if n == 0 {
                0
            } else {
                self.next_u64() % n
            }
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    impl<V> Strategy for Box<dyn Strategy<Value = V>> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            (**self).generate(rng)
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Strategy producing a fixed value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Weighted union over boxed strategies (backs `prop_oneof!`).
    pub struct Union<V> {
        arms: Vec<(u32, Box<dyn Strategy<Value = V>>)>,
        total: u64,
    }

    impl<V> Union<V> {
        /// Builds a union; panics on an empty or zero-weight arm list.
        pub fn new(arms: Vec<(u32, Box<dyn Strategy<Value = V>>)>) -> Self {
            let total: u64 = arms.iter().map(|(w, _)| *w as u64).sum();
            assert!(total > 0, "prop_oneof! needs at least one arm with weight > 0");
            Self { arms, total }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let mut pick = rng.below(self.total);
            for (w, s) in &self.arms {
                if pick < *w as u64 {
                    return s.generate(rng);
                }
                pick -= *w as u64;
            }
            unreachable!("weights sum to total")
        }
    }

    /// Boxes one `prop_oneof!` arm (lets heterogeneous strategy types
    /// unify on their `Value`).
    pub fn weighted<S>(w: u32, s: S) -> (u32, Box<dyn Strategy<Value = S::Value>>)
    where
        S: Strategy + 'static,
    {
        (w, Box::new(s))
    }

    macro_rules! int_range_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let width = (self.end as i128 - self.start as i128).max(1) as u64;
                    (self.start as i128 + rng.below(width) as i128) as $t
                }
            }

            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let width = (*self.end() as i128 - *self.start() as i128 + 1).max(1) as u64;
                    (*self.start() as i128 + rng.below(width) as i128) as $t
                }
            }

            impl Strategy for core::ops::RangeFrom<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let width = (<$t>::MAX as i128 - self.start as i128 + 1).max(1) as u64;
                    (self.start as i128 + rng.below(width) as i128) as $t
                }
            }
        )*};
    }

    int_range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! tuple_strategies {
        ($(($($s:ident $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategies! {
        (A 0)
        (A 0, B 1)
        (A 0, B 1, C 2)
        (A 0, B 1, C 2, D 3)
        (A 0, B 1, C 2, D 3, E 4)
        (A 0, B 1, C 2, D 3, E 4, F 5)
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6)
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7)
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7, I 8)
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7, I 8, J 9)
    }
}

pub mod arbitrary {
    //! `any::<T>()` — strategies for "any value of `T`".

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use core::marker::PhantomData;

    /// Types with a canonical "draw any value" strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// Strategy returned by [`any`].
    #[derive(Debug)]
    pub struct Any<T>(PhantomData<T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Self {
            Any(PhantomData)
        }
    }

    /// Strategy generating any value of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    // 1-in-8 bias towards the edge values that break
                    // arithmetic; uniform otherwise.
                    match rng.below(8) {
                        0 => match rng.below(3) {
                            0 => 0 as $t,
                            1 => 1 as $t,
                            _ => <$t>::MAX,
                        },
                        _ => rng.next_u64() as $t,
                    }
                }
            }
        )*};
    }

    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for u128 {
        fn arbitrary(rng: &mut TestRng) -> u128 {
            ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
        }
    }

    impl<const N: usize> Arbitrary for [u8; N] {
        fn arbitrary(rng: &mut TestRng) -> [u8; N] {
            let mut out = [0u8; N];
            for b in out.iter_mut() {
                *b = rng.next_u64() as u8;
            }
            out
        }
    }
}

pub mod collection {
    //! Collection strategies (`prop::collection`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::HashSet;
    use std::hash::Hash;

    /// Size bound for generated collections: `[min, max)`.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max_excl: usize,
    }

    impl SizeRange {
        fn draw(&self, rng: &mut TestRng) -> usize {
            let width = self.max_excl.saturating_sub(self.min).max(1);
            self.min + rng.below(width as u64) as usize
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            Self { min: r.start, max_excl: r.end.max(r.start + 1) }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            Self { min: *r.start(), max_excl: r.end().saturating_add(1) }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { min: n, max_excl: n + 1 }
        }
    }

    /// Strategy for `Vec<S::Value>` (from [`vec()`]).
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// Vector of `size`-many draws from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { elem, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.draw(rng);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// Strategy for `HashSet<S::Value>` (from [`hash_set`]).
    #[derive(Debug, Clone)]
    pub struct HashSetStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// Hash set aiming for `size`-many distinct draws from `elem`
    /// (bounded retries; the set may come up short if the element
    /// domain is too small).
    pub fn hash_set<S>(elem: S, size: impl Into<SizeRange>) -> HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Hash + Eq,
    {
        HashSetStrategy { elem, size: size.into() }
    }

    impl<S> Strategy for HashSetStrategy<S>
    where
        S: Strategy,
        S::Value: Hash + Eq,
    {
        type Value = HashSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> HashSet<S::Value> {
            let target = self.size.draw(rng);
            let mut out = HashSet::with_capacity(target);
            let mut attempts = 0usize;
            while out.len() < target && attempts < target * 10 + 16 {
                out.insert(self.elem.generate(rng));
                attempts += 1;
            }
            out
        }
    }
}

pub mod option {
    //! `Option` strategies (`prop::option`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy for `Option<S::Value>` (from [`of`]).
    #[derive(Debug, Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// `None` half the time, `Some(draw)` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() & 1 == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

/// The `prop::` namespace the real crate's prelude exposes.
pub mod prop {
    pub use crate::collection;
    pub use crate::option;
}

pub mod prelude {
    //! One-stop import, mirroring `proptest::prelude::*`.

    pub use crate::arbitrary::{any, Any, Arbitrary};
    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest};
}

/// Defines property tests: each `fn` runs `cases` times over freshly
/// drawn inputs (deterministic per test name).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $( $(#[$attr:meta])*
         fn $name:ident ( $($pat:pat in $strat:expr),* $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$attr])*
            fn $name() {
                let __cfg: $crate::test_runner::ProptestConfig = $cfg;
                let mut __rng = $crate::test_runner::TestRng::for_test(
                    concat!(module_path!(), "::", stringify!($name)),
                );
                for __case in 0..__cfg.cases {
                    let _ = __case;
                    let ($($pat,)*) = ($(
                        $crate::strategy::Strategy::generate(&($strat), &mut __rng),
                    )*);
                    // A closure per case so `prop_assume!` can skip the
                    // rest of one case with `return`.
                    let __one_case = || $body;
                    __one_case();
                }
            }
        )*
    };
}

/// Asserts within a property (panics on failure — inputs replay
/// identically on the next run, so no counterexample persistence is
/// needed).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Equality assertion within a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Inequality assertion within a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Skips the current case when its precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($rest:tt)*)?) => {
        if !($cond) {
            return;
        }
    };
}

/// Picks among several strategies, optionally weighted
/// (`weight => strategy`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::weighted($weight as u32, $strat)),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::weighted(1u32, $strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRng::for_test("x");
        let mut b = TestRng::for_test("x");
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_in_bounds(x in 3u64..17, y in 1usize..=4, z in 250u8..) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((1..=4).contains(&y));
            prop_assert!(z >= 250);
        }

        #[test]
        fn collections_sized(v in prop::collection::vec(any::<u8>(), 2..5),
                             s in prop::collection::hash_set(any::<u64>(), 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
            prop_assert!(s.len() >= 2 && s.len() < 5);
        }

        #[test]
        fn oneof_and_map(x in prop_oneof![3 => (0u32..10).prop_map(|v| v as u64),
                                          1 => 100u64..110]) {
            prop_assert!(x < 10 || (100..110).contains(&x));
        }

        #[test]
        fn assume_skips(x in any::<u32>()) {
            prop_assume!(x != 0);
            prop_assert_ne!(x, 0);
        }
    }
}
