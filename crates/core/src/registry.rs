//! The shared machinery behind the workspace's pluggable-factory registries.
//!
//! Six subsystems in this crate expose the same extension pattern —
//! schedulers ([`crate::sched`]), platforms ([`crate::platform`]), arbiters
//! ([`crate::arbiter`]), share policies ([`crate::share`]), and the edge
//! tier's uplink profiles and offload policies ([`crate::edge`]): a global,
//! case-insensitive name → `Arc<dyn Factory>` map with `register` /
//! `by_name` / `registered_names` entry points, optional `:<params>` name
//! suffixes, and reserved-name protection. Each module keeps its public
//! functions (so the API is unchanged) and delegates the storage, lookup,
//! and name-validation rules here instead of carrying its own copy.
//!
//! The machinery is public so sibling crates can add registry families of
//! their own with the exact same semantics — `dacapo-telemetry`'s sink
//! registry (`chrome-trace`, `json-lines`, `summary`, reserved `null`) is
//! built on [`Registry`] this way.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// A global factory registry: lower-cased name → factory.
pub struct Registry<F: ?Sized> {
    /// What the registry holds, for panic messages (e.g. `"share policy"`).
    what: &'static str,
    /// Whether lookups strip a `:<params>` suffix before resolving (and
    /// `register` therefore rejects colon-bearing names as unreachable).
    params: ParamNames,
    /// Names [`Registry::register`] refuses to (re)claim.
    reserved: &'static [&'static str],
    factories: RwLock<BTreeMap<String, Arc<F>>>,
}

/// Whether a registry's names may carry `:<params>` suffixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamNames {
    /// Lookups strip a `:<suffix>`; registered names must not contain `':'`.
    Split,
    /// Names resolve verbatim (the scheduler registry's convention).
    Verbatim,
}

impl<F: ?Sized> Registry<F> {
    /// Creates a registry seeded with builtin factories. Seeding bypasses
    /// the reserved-name check — that is how reserved builtins get in.
    ///
    /// # Panics
    ///
    /// Panics if a reserved name is not among the seeded factories: a
    /// reserved list that drifted from the builtins would protect a name
    /// nothing answers to.
    pub fn new(
        what: &'static str,
        params: ParamNames,
        reserved: &'static [&'static str],
        seed: Vec<(String, Arc<F>)>,
    ) -> Self {
        let mut factories = BTreeMap::new();
        for (name, factory) in seed {
            factories.insert(name.to_lowercase(), factory);
        }
        for name in reserved {
            assert!(
                factories.contains_key(*name),
                "{what} name '{name}' is reserved but no builtin is seeded under it"
            );
        }
        Self { what, params, reserved, factories: RwLock::new(factories) }
    }

    /// Registers (or replaces) a factory under the case-insensitive `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` contains `':'` in a [`ParamNames::Split`] registry
    /// (the colon introduces the parameter suffix during lookup, so such a
    /// name could never be resolved), or if `name` is reserved.
    pub fn register(&self, name: &str, factory: Arc<F>) {
        let key = name.to_lowercase();
        if self.params == ParamNames::Split {
            assert!(
                !key.contains(':'),
                "{} name '{key}' must not contain ':' (reserved for parameter suffixes)",
                self.what
            );
        }
        assert!(
            !self.reserved.contains(&key.as_str()),
            "{} name '{key}' is reserved for the builtin policy",
            self.what
        );
        self.lock_write().insert(key, factory);
    }

    /// Looks up a factory by case-insensitive name, stripping a `:<params>`
    /// suffix first in [`ParamNames::Split`] registries.
    pub fn by_name(&self, name: &str) -> Option<Arc<F>> {
        let base = match self.params {
            ParamNames::Split => split_params(name).0,
            ParamNames::Verbatim => name,
        };
        self.lock_read().get(&base.to_lowercase()).cloned()
    }

    /// The registered base names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.lock_read().keys().cloned().collect()
    }

    #[expect(
        clippy::panic,
        reason = "a poisoned registry lock means a register() call panicked mid-insert; no \
                  caller can make progress after that"
    )]
    fn lock_read(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, Arc<F>>> {
        self.factories.read().unwrap_or_else(|_| panic!("{} registry poisoned", self.what))
    }

    #[expect(clippy::panic, reason = "same poisoning invariant as lock_read")]
    fn lock_write(&self) -> std::sync::RwLockWriteGuard<'_, BTreeMap<String, Arc<F>>> {
        self.factories.write().unwrap_or_else(|_| panic!("{} registry poisoned", self.what))
    }
}

/// Splits a registry name into its base name and optional parameter suffix
/// (`"correlated:0.7"` → `("correlated", Some("0.7"))`).
pub fn split_params(name: &str) -> (&str, Option<&str>) {
    match name.split_once(':') {
        Some((base, params)) => (base, Some(params)),
        None => (name, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    trait Named: Send + Sync {
        fn id(&self) -> u32;
    }
    struct N(u32);
    impl Named for N {
        fn id(&self) -> u32 {
            self.0
        }
    }

    fn registry() -> Registry<dyn Named> {
        Registry::new(
            "test factory",
            ParamNames::Split,
            &["builtin"],
            vec![("Builtin".to_string(), Arc::new(N(0)) as Arc<dyn Named>)],
        )
    }

    #[test]
    fn lookup_is_case_insensitive_and_param_stripping() {
        let registry = registry();
        registry.register("Custom", Arc::new(N(1)));
        assert_eq!(registry.by_name("custom").unwrap().id(), 1);
        assert_eq!(registry.by_name("CUSTOM:3,4").unwrap().id(), 1);
        assert_eq!(registry.by_name("builtin").unwrap().id(), 0);
        assert!(registry.by_name("missing").is_none());
        assert_eq!(registry.names(), vec!["builtin".to_string(), "custom".to_string()]);
    }

    #[test]
    fn verbatim_registries_resolve_colons_literally() {
        let registry: Registry<dyn Named> =
            Registry::new("verbatim factory", ParamNames::Verbatim, &[], Vec::new());
        registry.register("weird:name", Arc::new(N(7)));
        assert_eq!(registry.by_name("weird:name").unwrap().id(), 7);
        assert!(registry.by_name("weird").is_none());
    }

    #[test]
    #[should_panic(expected = "must not contain ':'")]
    fn split_registries_reject_colon_names() {
        registry().register("bad:name", Arc::new(N(2)));
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_names_cannot_be_reclaimed() {
        registry().register("builtin", Arc::new(N(3)));
    }

    #[test]
    #[should_panic(expected = "reserved but no builtin")]
    fn reserved_names_must_be_seeded() {
        let _: Registry<dyn Named> =
            Registry::new("test factory", ParamNames::Split, &["builtin"], Vec::new());
    }

    #[test]
    fn split_params_splits_once() {
        assert_eq!(split_params("priority:3,1"), ("priority", Some("3,1")));
        assert_eq!(split_params("plain"), ("plain", None));
        assert_eq!(split_params("a:b:c"), ("a", Some("b:c")));
    }
}
