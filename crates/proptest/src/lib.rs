//! Vendored subset of the `proptest` 1.x API.
//!
//! The build environment cannot reach the crate registry, so the workspace
//! ships the slice of proptest it actually uses: the [`proptest!`] macro,
//! [`Strategy`] with `prop_map`/`prop_flat_map`, range and tuple strategies,
//! [`collection::vec`], [`any`], [`prop_oneof!`], and the
//! `prop_assert*`/`prop_assume!` macros.
//!
//! Semantics: each test samples `ProptestConfig::cases` random inputs from
//! its strategies (deterministically — the stream is a pure function of the
//! test name and attempt number, so failures reproduce exactly on re-run).
//! Unlike upstream proptest there is **no shrinking**: a failure reports the
//! assertion message and the attempt number instead of a minimized input.

use rand::rngs::StdRng;
use rand::SeedableRng;

pub mod strategy;

pub use strategy::{any, Any, Arbitrary, Just, Strategy, Union};

pub mod collection {
    //! Strategies for collections.

    use crate::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Inclusive length bounds for [`vec()`].
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty vec size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy producing `Vec`s whose elements come from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `Vec` strategy with a length drawn from `size` (a range or an exact
    /// `usize`).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            let len = if self.size.lo == self.size.hi {
                self.size.lo
            } else {
                rng.gen_range(self.size.lo..=self.size.hi)
            };
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod prelude {
    //! One-stop imports, mirroring `proptest::prelude`.

    pub use crate::strategy::{any, Any, Arbitrary, Just, Strategy, Union};
    pub use crate::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Per-test runner configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of accepted (non-rejected) cases each property must pass.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Why a single sampled case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// An assertion failed: the property is violated.
    Fail(String),
    /// The case was vetoed by `prop_assume!` and is resampled.
    Reject(String),
}

impl TestCaseError {
    /// A failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Drives one property: samples cases until `config.cases` are accepted.
/// Used by the [`proptest!`] macro expansion; not part of the public API.
#[doc(hidden)]
pub fn __run_cases<F>(config: &ProptestConfig, name: &str, mut case: F)
where
    F: FnMut(&mut StdRng) -> Result<(), TestCaseError>,
{
    let master = fnv1a(name.as_bytes());
    let mut accepted = 0u32;
    let mut attempt = 0u64;
    let max_attempts = config.cases as u64 * 16 + 100;
    while accepted < config.cases {
        attempt += 1;
        assert!(
            attempt <= max_attempts,
            "proptest `{name}`: too many rejected cases ({accepted}/{} accepted \
             after {max_attempts} attempts)",
            config.cases
        );
        let mut rng = StdRng::seed_from_u64(master ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        match case(&mut rng) {
            Ok(()) => accepted += 1,
            Err(TestCaseError::Reject(_)) => continue,
            Err(TestCaseError::Fail(msg)) => {
                panic!("proptest `{name}` failed (attempt {attempt}): {msg}")
            }
        }
    }
}

/// Declares property tests. Mirrors `proptest::proptest!`:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(32))]
///     #[test]
///     fn addition_commutes(a in 0u32..1000, b in 0u32..1000) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!{ ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!{ ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($config:expr);) => {};
    (($config:expr);
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::__run_cases(&($config), stringify!($name), |__rng| {
                $(let $pat = $crate::Strategy::sample(&($strat), __rng);)+
                $body
                ::std::result::Result::Ok(())
            });
        }
        $crate::__proptest_items!{ ($config); $($rest)* }
    };
}

/// `assert!` for property bodies: fails the case instead of panicking
/// directly, so the runner can report the attempt number.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// `assert_eq!` for property bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left == right,
            "assertion failed: `{:?}` != `{:?}`", left, right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(left == right, $($fmt)*);
    }};
}

/// `assert_ne!` for property bodies.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left != right,
            "assertion failed: `{:?}` == `{:?}`", left, right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(left != right, $($fmt)*);
    }};
}

/// Vetoes the current case (it is resampled, not counted as a failure).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject(
                concat!("assumption failed: ", stringify!($cond)).into(),
            ));
        }
    };
}

/// Uniform choice between strategies of the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::union_of(vec![$($crate::strategy::boxed($strat)),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn ranges_stay_in_bounds(a in 3usize..9, b in -2i64..=2, f in 0.5f64..1.5) {
            prop_assert!((3..9).contains(&a));
            prop_assert!((-2..=2).contains(&b));
            prop_assert!((0.5..1.5).contains(&f));
        }

        #[test]
        fn flat_map_and_vec_compose(
            (len, items) in (1usize..6).prop_flat_map(|len| {
                crate::collection::vec(0u32..100, len..len + 1)
                    .prop_map(move |items| (len, items))
            })
        ) {
            prop_assert_eq!(items.len(), len);
            prop_assert!(items.iter().all(|&x| x < 100));
        }

        #[test]
        fn oneof_only_yields_listed_values(v in prop_oneof![Just(1i32), Just(-1i32)]) {
            prop_assert!(v == 1 || v == -1);
        }

        #[test]
        fn assume_rejects_without_failing(n in 0u32..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }

        #[test]
        fn exact_vec_sizes_are_honored(items in crate::collection::vec(any::<bool>(), 6)) {
            prop_assert_eq!(items.len(), 6);
        }
    }

    #[test]
    #[should_panic(expected = "proptest `always_fails` failed")]
    fn failures_panic_with_context() {
        crate::__run_cases(&ProptestConfig::with_cases(4), "always_fails", |_| {
            Err(crate::TestCaseError::fail("boom"))
        });
    }
}
