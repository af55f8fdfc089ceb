//! Minimal in-repo stand-in for the `proptest` crate.
//!
//! Provides the subset of the proptest API this workspace's property tests
//! use: the [`proptest!`] macro (including `#![proptest_config(..)]`),
//! `prop_assert!`/`prop_assert_eq!`, range and tuple strategies, `Just`,
//! `any::<T>()`, `prop_oneof!`, `Strategy::prop_map`, `prop::collection::vec`
//! and `prop::option::of`.
//!
//! Unlike the real crate there is **no shrinking** and no persisted failure
//! seeds: each test runs `cases` deterministic samples drawn from an RNG
//! seeded by the test's name, so failures reproduce exactly across runs, and
//! a failing test prints which case it was (`test_runner::CaseGuard`).
//!
//! To rerun only that case, set `PROPTEST_CASE`:
//!
//! ```text
//! PROPTEST_CASE=7 cargo test -p dacapo-core my_property
//! ```
//!
//! Every property the run reaches then executes its case 7 alone. The
//! inputs of cases 0–6 are still drawn (and dropped), so case 7 sees exactly
//! the inputs it saw in the full run; a property with fewer cases runs none.

#![forbid(unsafe_code)]

pub mod arbitrary;
pub mod collection;
pub mod option;
pub mod strategy;
pub mod test_runner;

/// Prelude mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Runs the enclosed functions as sampled property tests.
///
/// Supported grammar (a practical subset of the real macro):
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(16))] // optional
///     #[test]
///     fn my_property(x in 0usize..10, (a, b) in (0.0f64..1.0, 0.0f64..1.0)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($config); $($rest)*);
    };
    (@run ($config:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),* $(,)?) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                let mut rng = $crate::test_runner::TestRng::from_name(stringify!($name));
                let only = $crate::test_runner::selected_case();
                for case in 0..config.cases {
                    let _guard = $crate::test_runner::CaseGuard {
                        test: stringify!($name),
                        case,
                        cases: config.cases,
                    };
                    $(let $arg = $crate::strategy::Strategy::sample(&($strat), &mut rng);)*
                    match only {
                        Some(k) if case < k => continue,
                        Some(k) if case > k => break,
                        _ => $body,
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::test_runner::ProptestConfig::default()); $($rest)*);
    };
}

/// Asserts a condition inside a property test (panics on failure, like
/// `assert!`; this shim has no error-propagation machinery).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Picks one of several strategies, optionally weighted
/// (`weight => strategy`). All branches must produce the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::boxed_sampler($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::boxed_sampler($strat))),+
        ])
    };
}
