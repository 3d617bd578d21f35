//! Offline stand-in for the subset of `proptest` this workspace uses.
//!
//! Same surface syntax — the `proptest!` macro, `Strategy` combinators
//! (`prop_map`, `prop_flat_map`, `prop_filter_map`), range and tuple
//! strategies, `collection::vec`, `prop_assert!`/`prop_assert_eq!`,
//! `ProptestConfig::with_cases` — backed by a deterministic seeded
//! generator instead of upstream proptest's shrinking engine. Each
//! `#[test]` in a `proptest!` block runs its body over `cases` inputs
//! drawn from a seed derived from the test name, so failures are
//! reproducible run-to-run (there is no shrinking: the failing input is
//! printed as-is by the assertion message).

use rand::rngs::StdRng;

#[doc(hidden)]
pub use rand as __rand;

/// Error signalling a failed property, carried by `prop_assert!`.
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Per-block configuration (only `cases` is honoured by the shim).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run each property over exactly `cases` inputs (an explicit count
    /// wins over the environment, like upstream proptest).
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    /// 64 cases, overridable via the `PROPTEST_CASES` environment
    /// variable — mirroring upstream proptest, so scheduled deep-fuzz CI
    /// runs can raise the count without touching the suites.
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        ProptestConfig { cases }
    }
}

/// Derive a deterministic seed from a test name (FNV-1a).
pub fn seed_for(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Value-generation strategies.
pub mod strategy {
    use super::StdRng;
    use rand::Rng;

    /// A generator of values of type `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draw one value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;

        /// Map generated values through `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Generate an intermediate value, then generate from the strategy
        /// `f` returns for it.
        fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }

        /// Keep only values `f` maps to `Some` (bounded retries).
        fn prop_filter_map<U, F: Fn(Self::Value) -> Option<U>>(
            self,
            whence: &'static str,
            f: F,
        ) -> FilterMap<Self, F>
        where
            Self: Sized,
        {
            FilterMap {
                inner: self,
                f,
                whence,
            }
        }

        /// Keep only values satisfying `f` (bounded retries).
        fn prop_filter<F: Fn(&Self::Value) -> bool>(
            self,
            whence: &'static str,
            f: F,
        ) -> Filter<Self, F>
        where
            Self: Sized,
        {
            Filter {
                inner: self,
                f,
                whence,
            }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    #[derive(Debug)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut StdRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// Strategy returned by [`Strategy::prop_flat_map`].
    #[derive(Debug)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn generate(&self, rng: &mut StdRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// Strategy returned by [`Strategy::prop_filter_map`].
    #[derive(Debug)]
    pub struct FilterMap<S, F> {
        inner: S,
        f: F,
        whence: &'static str,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> Option<U>> Strategy for FilterMap<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut StdRng) -> U {
            for _ in 0..1000 {
                if let Some(v) = (self.f)(self.inner.generate(rng)) {
                    return v;
                }
            }
            panic!("prop_filter_map retry budget exhausted: {}", self.whence);
        }
    }

    /// Strategy returned by [`Strategy::prop_filter`].
    #[derive(Debug)]
    pub struct Filter<S, F> {
        inner: S,
        f: F,
        whence: &'static str,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn generate(&self, rng: &mut StdRng) -> S::Value {
            for _ in 0..1000 {
                let v = self.inner.generate(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!("prop_filter retry budget exhausted: {}", self.whence);
        }
    }

    /// Always-the-same-value strategy.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }
    impl_range_strategy!(usize, u8, u16, u32, u64, f64);

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident . $idx:tt),+))+) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )+};
    }
    impl_tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
    }
}

/// Boolean strategies (`proptest::bool::ANY`).
pub mod bool {
    use super::strategy::Strategy;
    use super::StdRng;
    use rand::Rng;

    /// Strategy drawing a fair coin.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// A uniformly random `bool`.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = core::primitive::bool;
        fn generate(&self, rng: &mut StdRng) -> core::primitive::bool {
            rng.gen_bool(0.5)
        }
    }
}

/// Collection strategies.
pub mod collection {
    use super::strategy::Strategy;
    use super::StdRng;
    use rand::Rng;

    /// Lengths acceptable to [`vec`](fn@vec): a fixed `usize` or a `Range<usize>`.
    pub trait IntoSizeRange {
        /// Draw a concrete length.
        fn sample_len(&self, rng: &mut StdRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn sample_len(&self, _rng: &mut StdRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for core::ops::Range<usize> {
        fn sample_len(&self, rng: &mut StdRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    impl IntoSizeRange for core::ops::RangeInclusive<usize> {
        fn sample_len(&self, rng: &mut StdRng) -> usize {
            rng.gen_range(self.clone())
        }
    }

    /// Strategy for `Vec<S::Value>` with the given length (range).
    #[derive(Debug)]
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    impl<S: Strategy, L: IntoSizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = self.len.sample_len(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `proptest::collection::vec`: a vector of `element` draws.
    pub fn vec<S: Strategy, L: IntoSizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }
}

/// The `proptest::prelude` equivalent.
pub mod prelude {
    pub use crate::collection;
    pub use crate::proptest;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume};
    pub use crate::{ProptestConfig, TestCaseError};

    /// Namespace mirror so `prop::collection::vec(..)` also resolves.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Assert inside a property body, failing the case (not panicking directly).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {} at {}:{}",
                stringify!($cond),
                file!(),
                line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {} ({}) at {}:{}",
                stringify!($cond),
                format!($($fmt)+),
                file!(),
                line!()
            )));
        }
    };
}

/// Assert equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (va, vb) = (&$a, &$b);
        if !(va == vb) {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {} == {} ({:?} vs {:?}; {}) at {}:{}",
                stringify!($a),
                stringify!($b),
                va,
                vb,
                format!($($fmt)+),
                file!(),
                line!()
            )));
        }
    }};
    ($a:expr, $b:expr $(,)?) => {{
        let (va, vb) = (&$a, &$b);
        if !(va == vb) {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {} == {} ({:?} vs {:?}) at {}:{}",
                stringify!($a),
                stringify!($b),
                va,
                vb,
                file!(),
                line!()
            )));
        }
    }};
}

/// Assert inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (va, vb) = (&$a, &$b);
        if va == vb {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {} != {} (both {:?}) at {}:{}",
                stringify!($a),
                stringify!($b),
                va,
                file!(),
                line!()
            )));
        }
    }};
}

/// Discard the current case when an assumption does not hold (the shim
/// simply skips the case successfully — no global discard budget).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Ok(());
        }
    };
}

/// Define property tests. Each function runs its body over `cases` inputs
/// drawn from the listed strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr) $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                use $crate::strategy::Strategy as _;
                use $crate::__rand::SeedableRng as _;
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::__rand::rngs::StdRng::seed_from_u64(
                    $crate::seed_for(concat!(module_path!(), "::", stringify!($name))),
                );
                for case in 0..config.cases {
                    $(let $arg = ($strat).generate(&mut rng);)*
                    let outcome: ::core::result::Result<(), $crate::TestCaseError> =
                        (|| { $body Ok(()) })();
                    if let Err(e) = outcome {
                        panic!(
                            "property {} failed on case {}/{}: {}",
                            stringify!($name),
                            case + 1,
                            config.cases,
                            e
                        );
                    }
                }
            }
        )*
    };
}
