//! Offline drop-in subset of the `proptest` 1.x API.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the slice of proptest its test-suite uses: the [`proptest!`]
//! macro, range / `any::<T>()` / tuple strategies, [`Strategy::prop_map`](strategy::Strategy::prop_map),
//! `prop_assert*` and `prop_assume!`, and [`ProptestConfig::with_cases`].
//!
//! Semantics differences from upstream, deliberate for a test shim:
//! failing cases panic immediately (no shrinking), and the per-test RNG is
//! seeded deterministically from the test name, so runs are reproducible.

#![forbid(unsafe_code)]

pub use rand;

/// Per-block configuration; only `cases` is honoured.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` generated inputs per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// FNV-1a, used to derive a per-test RNG seed from the test name.
#[doc(hidden)]
pub fn __fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

pub mod strategy {
    //! Value-generation strategies.

    use rand::rngs::StdRng;
    use rand::Rng;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;

        /// Applies `f` to every generated value.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// The [`Strategy::prop_map`] adapter.
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut StdRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut StdRng) -> f64 {
            rng.gen_range(self.clone())
        }
    }

    /// Marker strategy for "any value of `T`" (see [`any`]).
    #[derive(Debug, Clone)]
    pub struct Any<T>(PhantomData<T>);

    /// The full-domain strategy for primitive `T`.
    pub fn any<T>() -> Any<T>
    where
        Any<T>: Strategy<Value = T>,
    {
        Any(PhantomData)
    }

    macro_rules! impl_any_uint {
        ($($t:ty),*) => {$(
            impl Strategy for Any<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    use rand::RngCore;
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_any_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Any<bool> {
        type Value = bool;
        fn generate(&self, rng: &mut StdRng) -> bool {
            use rand::RngCore;
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut StdRng) -> Self::Value {
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
}

pub mod prelude {
    //! The customary `use proptest::prelude::*` surface.
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest, ProptestConfig};
}

/// Defines `#[test]` functions over generated inputs.
///
/// Supports the upstream form used in this workspace:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn prop(x in 0u64..10, g in arb_graph(8)) { ... }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_fns {
    ( ($cfg:expr); $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                let __strategy = ($($strat,)+);
                let __seed = $crate::__fnv(concat!(module_path!(), "::", stringify!($name)));
                for __case in 0..__config.cases {
                    let mut __rng = <$crate::rand::rngs::StdRng as $crate::rand::SeedableRng>::seed_from_u64(
                        __seed ^ (__case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    let ($($arg,)+) =
                        $crate::strategy::Strategy::generate(&__strategy, &mut __rng);
                    $body
                }
            }
        )*
    };
}

/// Proptest-flavoured `assert!` (panics; no shrinking in this shim).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Proptest-flavoured `assert_eq!` (panics; no shrinking in this shim).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Skips the current generated case when its precondition fails.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            continue;
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_pair() -> impl Strategy<Value = (u64, u64)> {
        (0u64..100, 0u64..100).prop_map(|(a, b)| (a.min(b), a.max(b)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_respected(x in 3usize..8, y in -2i64..=2) {
            prop_assert!((3..8).contains(&x));
            prop_assert!((-2..=2).contains(&y));
        }

        #[test]
        fn map_and_assume(p in arb_pair(), flag in any::<bool>()) {
            prop_assume!(p.0 != p.1 || flag);
            prop_assert!(p.0 <= p.1);
            prop_assert_eq!(p.0.min(p.1), p.0, "ordered by construction: {:?}", p);
        }
    }
}
