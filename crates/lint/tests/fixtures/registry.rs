//! Registry fixture module documenting `good-name` and reserving
//! `reserved-name` (reserved).

/// A factory whose builtin name the docs above cover.
pub struct Documented;

impl Documented {
    /// The documented builtin's base name.
    pub fn name(&self) -> &'static str {
        "good-name"
    }
}

/// A second factory whose name never shows up in any docs.
pub struct Undocumented;

impl Undocumented {
    fn name(&self) -> &'static str {
        "undocumented-name"
    }
}

/// A third factory, excused by a standalone annotation.
pub struct Excused;

impl Excused {
    // lint: allow(registry) — fixture: internal name, undocumented on purpose
    fn name(&self) -> &'static str {
        "excused-name"
    }
}

fn seed() {
    let _ = Registry::new("widget", ParamNames::Split, &["reserved-name", "drifted-name"]);
}
