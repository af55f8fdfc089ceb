//! Test configuration and the deterministic RNG driving sample generation.

use std::io::Write as _;

/// Configuration for one `proptest!` test, mirroring
/// `proptest::test_runner::Config`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of sampled cases to run.
    pub cases: u32,
}

impl ProptestConfig {
    /// Runs `cases` sampled cases.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 32 }
    }
}

/// Held across one sampled case of a `proptest!` test: if the case's body
/// panics, dropping the guard says which case it was — the assertion alone
/// does not, and with no shrinking the case number is the whole repro.
#[derive(Debug)]
pub struct CaseGuard {
    /// The test function's name.
    pub test: &'static str,
    /// The running case, counted from 0.
    pub case: u32,
    /// How many cases the test runs.
    pub cases: u32,
}

impl Drop for CaseGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // A failed write must not panic inside an unwind.
            let _ = writeln!(
                std::io::stderr(),
                "{test}: failed at case {case} of {cases} (cases are a pure function of the test \
                 name); rerun it alone with `PROPTEST_CASE={case} cargo test {test}`",
                test = self.test,
                case = self.case,
                cases = self.cases
            );
        }
    }
}

/// The case `PROPTEST_CASE=<k>` selects: every property then runs its case
/// `k` alone (drawing, and dropping, the inputs of the cases before it), or
/// none if it has no case `k`. `None` when the variable is unset: every case
/// runs.
///
/// # Panics
///
/// Panics if the variable is set to anything but a case number.
#[must_use]
pub fn selected_case() -> Option<u32> {
    // Test tooling: the one environment read, and only a test binary's.
    #[allow(clippy::disallowed_methods)]
    let value = std::env::var_os("PROPTEST_CASE")?;
    let case = value.to_str().and_then(|text| text.trim().parse().ok());
    assert!(case.is_some(), "PROPTEST_CASE must be a case number, got {value:?}");
    case
}

/// Deterministic splitmix64 generator seeded from the test name, so every run
/// (and every CI machine) samples the same cases.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the generator from a test name.
    #[must_use]
    pub fn from_name(name: &str) -> Self {
        // FNV-1a over the name.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in name.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self { state: hash }
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        self.next_u64() % bound
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = TestRng::from_name("x");
        let mut b = TestRng::from_name("x");
        let mut c = TestRng::from_name("y");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    crate::proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        #[test]
        fn printing_property(x in crate::arbitrary::any::<u64>(), y in 0u32..1000) {
            println!("input: {x} {y}");
        }
    }

    /// The inputs `printing_property` printed when this test binary ran it
    /// alone, with `PROPTEST_CASE` set to `case` or unset.
    fn printed_inputs(case: Option<&str>) -> Vec<String> {
        let mut command = std::process::Command::new(std::env::current_exe().unwrap());
        command.args(["--exact", "test_runner::tests::printing_property", "--nocapture"]);
        command.env_remove("PROPTEST_CASE");
        if let Some(case) = case {
            command.env("PROPTEST_CASE", case);
        }
        let output = command.output().unwrap();
        assert!(output.status.success(), "{output:?}");
        let stdout = String::from_utf8(output.stdout).unwrap();
        stdout.lines().filter(|line| line.starts_with("input: ")).map(str::to_owned).collect()
    }

    #[test]
    fn proptest_case_runs_one_case_on_the_inputs_of_the_full_run() {
        let full = printed_inputs(None);
        assert_eq!(full.len(), 6);
        for case in [0, 3, 5] {
            assert_eq!(printed_inputs(Some(&case.to_string())), [full[case].clone()]);
        }
        assert!(printed_inputs(Some("6")).is_empty(), "a property without case 6 runs none");
    }
}
