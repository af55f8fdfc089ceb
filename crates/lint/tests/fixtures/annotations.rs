//! Annotation fixture: malformed forms are findings under the meta-rule.

/// The meta-rule fires on each malformed annotation below.
pub fn noisy() {
    // lint: allow(barrier)
    let a = 1;
    // lint: allow(nonsense) — not a rule
    let b = 2;
    // lint: deny(barrier) — unknown verb
    let c = 3;
    // lint: allow(panic) — clippy owns this family; its opt-out is #[expect]
    let d = 4;
    // lint: allow — no clause
    let e = 5;
    let _ = (a, b, c, d, e);
}
