//! The shared machinery behind the workspace's plugin registries.
//!
//! Five subsystems in this crate expose the same extension pattern —
//! schedulers ([`crate::sched`]), platforms ([`crate::platform`]), arbiters
//! ([`crate::arbiter`]), share policies ([`crate::share`]) and offload
//! policies ([`crate::edge`]) — and `dacapo-telemetry`'s sinks are the
//! sixth. A plugin is a name and a function: each family is a global,
//! case-insensitive name → build-function map (`F` is the family's
//! `dyn Fn(..) + Send + Sync`) with `register(name, build)` /
//! `registered_names` entry points. Every name follows one grammar,
//! `<name>[:<params>]`, and [`Registry::resolve`] is the one place it is
//! parsed: the base name picks the build function, the suffix is handed to
//! it, and an unknown base name is an error listing every registered one.
//!
//! A family whose stage is optional declares the name that leaves it out
//! as **reserved** (`"none"` for sharing, `"local-only"` for offload,
//! `"null"` for sinks). Nothing is built behind a reserved name: the caller
//! asks [`Registry::is_reserved`] and skips the stage, `resolve` refuses it
//! as selecting no policy, and `register` refuses to claim it.
//!
//! The machinery is public so sibling crates can add registry families of
//! their own with the exact same semantics, as `dacapo-telemetry` does.

use std::collections::BTreeMap;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A global plugin registry: lower-cased name → build function.
pub struct Registry<F: ?Sized> {
    /// What the registry holds, for messages (e.g. `"share policy"`).
    what: &'static str,
    /// The family's stage-absent names, lower-case: never registered,
    /// never resolved.
    reserved: &'static [&'static str],
    builds: RwLock<BTreeMap<String, Arc<F>>>,
}

impl<F: ?Sized> Registry<F> {
    /// Creates an empty registry; the family [`register`](Self::register)s
    /// its builtins next.
    pub fn new(what: &'static str, reserved: &'static [&'static str]) -> Self {
        Self { what, reserved, builds: RwLock::new(BTreeMap::new()) }
    }

    /// Registers (or replaces) a build function under the case-insensitive
    /// `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` contains `':'` (the colon introduces the parameter
    /// suffix during lookup, so such a name could never be resolved), or if
    /// `name` is reserved.
    pub fn register(&self, name: &str, build: Arc<F>) {
        let key = name.to_lowercase();
        assert!(
            !key.contains(':'),
            "{} name '{key}' must not contain ':' (reserved for parameter suffixes)",
            self.what
        );
        assert!(
            !self.is_reserved(&key),
            "{} name '{key}' is reserved: it means the stage is absent",
            self.what
        );
        self.lock_write().insert(key, build);
    }

    /// Looks up a build function by case-insensitive name, ignoring a
    /// `:<params>` suffix. Reserved names have none.
    fn by_name(&self, name: &str) -> Option<Arc<F>> {
        self.lock_read().get(&split_params(name).0.to_lowercase()).cloned()
    }

    /// Whether `name` — the bare name, in any case, without a suffix — is
    /// one of the family's stage-absent names.
    pub fn is_reserved(&self, name: &str) -> bool {
        self.reserved.iter().any(|reserved| reserved.eq_ignore_ascii_case(name))
    }

    /// Resolves `<name>[:<params>]` into its build function and parameter
    /// suffix.
    ///
    /// # Errors
    ///
    /// Returns the reason as text, for the family to wrap in its own error
    /// type: a reserved base name selects no policy, and an unknown one is
    /// named together with every registered name.
    pub fn resolve<'n>(&self, name: &'n str) -> Result<(Arc<F>, Option<&'n str>), String> {
        let (base, params) = split_params(name);
        if self.is_reserved(base) {
            return Err(format!(
                "{} '{name}' selects no policy: '{base}' is reserved and means the stage is absent",
                self.what
            ));
        }
        match self.by_name(base) {
            Some(build) => Ok((build, params)),
            None => Err(format!(
                "unknown {what} '{base}'; registered {what} names: {}",
                self.names().join(", "),
                what = self.what
            )),
        }
    }

    /// The registered base names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.lock_read().keys().cloned().collect()
    }

    // `register` asserts before it locks, so the write lock can be poisoned
    // only by a replaced build function's `Drop` panicking, after `insert`
    // has completed: a poisoned map is still a consistent one.
    fn lock_read(&self) -> RwLockReadGuard<'_, BTreeMap<String, Arc<F>>> {
        self.builds.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_write(&self) -> RwLockWriteGuard<'_, BTreeMap<String, Arc<F>>> {
        self.builds.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The error text of a builtin that takes no parameters, when it is handed
/// a `:<params>` suffix (`"<what> '<name>' takes no parameters, got
/// ':<params>'"`).
///
/// # Errors
///
/// Returns that text when `params` is `Some`.
pub fn no_params(what: &str, name: &str, params: Option<&str>) -> Result<(), String> {
    match params {
        Some(params) => Err(format!("{what} '{name}' takes no parameters, got ':{params}'")),
        None => Ok(()),
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
        let registry: Registry<dyn Named> = Registry::new("test factory", &["absent"]);
        registry.register("Builtin", Arc::new(N(0)));
        registry
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
    fn resolve_hands_the_suffix_to_the_factory_and_names_what_is_registered() {
        let registry = registry();
        let (factory, params) = registry.resolve("BUILTIN:3,4").unwrap();
        assert_eq!((factory.id(), params), (0, Some("3,4")));
        assert_eq!(registry.resolve("builtin").unwrap().1, None);
        let err = registry.resolve("missing:1").err().unwrap();
        assert!(err.contains("unknown test factory 'missing'"), "{err}");
        assert!(err.contains("registered test factory names: builtin"), "{err}");
    }

    #[test]
    fn reserved_names_are_bare_and_resolve_to_no_policy() {
        let registry = registry();
        assert!(registry.is_reserved("absent"));
        assert!(registry.is_reserved("ABSENT"));
        assert!(!registry.is_reserved("absent:1"), "only the bare name is the sentinel");
        assert!(!registry.is_reserved("absently"));
        assert!(registry.by_name("absent").is_none());
        assert!(!registry.names().contains(&"absent".to_string()));
        for name in ["absent", "Absent:1"] {
            let err = registry.resolve(name).err().unwrap();
            assert!(err.contains("selects no policy") && err.contains("absent"), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "must not contain ':'")]
    fn split_registries_reject_colon_names() {
        registry().register("bad:name", Arc::new(N(2)));
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_names_cannot_be_reclaimed() {
        registry().register("Absent", Arc::new(N(3)));
    }

    #[test]
    fn a_factory_whose_drop_panics_leaves_the_registry_usable() {
        struct Exploding;
        impl Named for Exploding {
            fn id(&self) -> u32 {
                7
            }
        }
        impl Drop for Exploding {
            fn drop(&mut self) {
                panic!("replaced factory panicked on drop");
            }
        }
        let registry = registry();
        registry.register("volatile", Arc::new(Exploding));
        // Replacing it drops the old factory under the write lock, and its
        // panic poisons the lock; the insert has already completed.
        let replace = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            registry.register("volatile", Arc::new(N(1)));
        }));
        assert!(replace.is_err(), "the drop panic propagates to the caller");
        assert_eq!(registry.by_name("VOLATILE").unwrap().id(), 1);
        assert_eq!(registry.resolve("volatile:x").map(|(f, p)| (f.id(), p)), Ok((1, Some("x"))));
        assert_eq!(registry.names(), vec!["builtin".to_string(), "volatile".to_string()]);
        registry.register("later", Arc::new(N(2)));
        assert_eq!(registry.by_name("later").unwrap().id(), 2);
    }

    #[test]
    fn split_params_splits_once() {
        assert_eq!(split_params("priority:3,1"), ("priority", Some("3,1")));
        assert_eq!(split_params("plain"), ("plain", None));
        assert_eq!(split_params("a:b:c"), ("a", Some("b:c")));
    }
}
