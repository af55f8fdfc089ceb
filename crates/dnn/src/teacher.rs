//! The teacher oracle used for labeling sampled frames.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{DeError, Deserialize, Serialize, Value};

/// A stand-in for the large teacher DNN (WideResNet / ViT-B/16 in the paper).
///
/// The continuous-learning loop never inspects the teacher's internals — it
/// only consumes its labels, paying the teacher's (large) compute cost per
/// labeled sample. The oracle therefore models the teacher as a labeler with
/// a configurable base accuracy and a penalty under difficult conditions
/// (for example night-time frames), producing a uniformly random wrong class
/// otherwise.
///
/// # Examples
///
/// ```
/// use dacapo_dnn::TeacherOracle;
///
/// let mut teacher = TeacherOracle::new(10, 0.95, 7);
/// let label = teacher.label(3, 0.0);
/// assert!(label < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TeacherOracle {
    num_classes: usize,
    base_accuracy: f64,
    rng: StdRngState,
}

/// Serialisable wrapper around a live generator: the original seed, the
/// number of labeling draws served (diagnostics), and the generator's raw
/// state, so a deserialised teacher resumes the exact label stream —
/// snapshot / restore of a mid-run session depends on this.
#[derive(Debug, Clone, PartialEq)]
struct StdRngState {
    seed: u64,
    draws: u64,
    rng: StdRng,
}

impl Serialize for StdRngState {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("seed".to_string(), self.seed.to_value()),
            ("draws".to_string(), self.draws.to_value()),
            ("state".to_string(), self.rng.state().to_value()),
        ])
    }
}

impl Deserialize for StdRngState {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(Self {
            seed: serde::de::field(value, "StdRngState", "seed")?,
            draws: serde::de::field(value, "StdRngState", "draws")?,
            rng: StdRng::from_state(serde::de::field(value, "StdRngState", "state")?),
        })
    }
}

impl TeacherOracle {
    /// Creates a teacher oracle.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes` is zero or `base_accuracy` is outside `[0, 1]`.
    #[must_use]
    pub fn new(num_classes: usize, base_accuracy: f64, seed: u64) -> Self {
        assert!(num_classes > 0, "teacher needs at least one class");
        assert!((0.0..=1.0).contains(&base_accuracy), "base accuracy must be in [0, 1]");
        Self {
            num_classes,
            base_accuracy,
            rng: StdRngState { seed, draws: 0, rng: StdRng::seed_from_u64(seed) },
        }
    }

    /// Number of classes the teacher can emit.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The teacher's accuracy on easy (penalty 0) samples.
    #[must_use]
    pub fn base_accuracy(&self) -> f64 {
        self.base_accuracy
    }

    /// Labels a sample whose ground-truth class is `true_class`.
    ///
    /// `difficulty_penalty` (in `[0, 1]`) lowers the effective labeling
    /// accuracy, modelling conditions like night-time or unusual weather where
    /// even the teacher errs more often.
    ///
    /// # Panics
    ///
    /// Panics if `true_class` is out of range.
    pub fn label(&mut self, true_class: usize, difficulty_penalty: f64) -> usize {
        assert!(true_class < self.num_classes, "true class {true_class} out of range");
        let accuracy = (self.base_accuracy - difficulty_penalty).clamp(0.0, 1.0);
        self.rng.draws += 1;
        if self.rng.rng.gen_bool(accuracy) || self.num_classes == 1 {
            true_class
        } else {
            // Uniformly pick a wrong class.
            let mut wrong = self.rng.rng.gen_range(0..self.num_classes - 1);
            if wrong >= true_class {
                wrong += 1;
            }
            wrong
        }
    }
}

/// The datacenter-grade labeling tier behind a modeled uplink.
///
/// Where [`TeacherOracle`] stands in for the *on-device* teacher DNN, the
/// cloud teacher models the labeling service an edge camera can offload to:
/// a larger ensemble with a higher base accuracy that is also far more
/// robust to difficult conditions (its difficulty penalty is discounted by
/// [`CloudTeacher::DIFFICULTY_DISCOUNT`]). It costs no local compute — the
/// price is paid in uplink bytes and round-trip latency, which the runtime
/// models separately.
///
/// # Examples
///
/// ```
/// use dacapo_dnn::CloudTeacher;
///
/// let mut cloud = CloudTeacher::new(10, 0.99, 7);
/// let label = cloud.label(3, 0.04);
/// assert!(label < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CloudTeacher {
    oracle: TeacherOracle,
}

impl CloudTeacher {
    /// Fraction of the per-frame difficulty penalty the cloud tier still
    /// pays: datacenter ensembles degrade far less under night/bad-weather
    /// frames than the on-device teacher.
    pub const DIFFICULTY_DISCOUNT: f64 = 0.25;

    /// Creates a cloud labeling tier.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes` is zero or `base_accuracy` is outside `[0, 1]`.
    #[must_use]
    pub fn new(num_classes: usize, base_accuracy: f64, seed: u64) -> Self {
        Self { oracle: TeacherOracle::new(num_classes, base_accuracy, seed) }
    }

    /// Number of classes the cloud tier can emit.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.oracle.num_classes()
    }

    /// The cloud tier's accuracy on easy (penalty 0) samples.
    #[must_use]
    pub fn base_accuracy(&self) -> f64 {
        self.oracle.base_accuracy()
    }

    /// Labels a sample whose ground-truth class is `true_class`, applying
    /// only [`Self::DIFFICULTY_DISCOUNT`] of the given difficulty penalty.
    ///
    /// # Panics
    ///
    /// Panics if `true_class` is out of range.
    pub fn label(&mut self, true_class: usize, difficulty_penalty: f64) -> usize {
        self.oracle.label(true_class, difficulty_penalty * Self::DIFFICULTY_DISCOUNT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_teacher_always_returns_truth() {
        let mut teacher = TeacherOracle::new(5, 1.0, 1);
        for c in 0..5 {
            assert_eq!(teacher.label(c, 0.0), c);
        }
    }

    #[test]
    fn zero_accuracy_teacher_never_returns_truth() {
        let mut teacher = TeacherOracle::new(5, 0.0, 2);
        for c in 0..5 {
            for _ in 0..20 {
                assert_ne!(teacher.label(c, 0.0), c);
            }
        }
    }

    #[test]
    fn labels_are_always_in_range() {
        let mut teacher = TeacherOracle::new(7, 0.5, 3);
        for i in 0..500 {
            let label = teacher.label(i % 7, 0.2);
            assert!(label < 7);
        }
    }

    #[test]
    fn empirical_accuracy_tracks_configuration() {
        let mut teacher = TeacherOracle::new(10, 0.9, 4);
        let n = 5000;
        let correct = (0..n).filter(|i| teacher.label(i % 10, 0.0) == i % 10).count();
        let observed = correct as f64 / n as f64;
        assert!((observed - 0.9).abs() < 0.03, "observed accuracy {observed}");
    }

    #[test]
    fn difficulty_penalty_lowers_accuracy() {
        let mut easy = TeacherOracle::new(10, 0.95, 5);
        let mut hard = TeacherOracle::new(10, 0.95, 5);
        let n = 4000;
        let easy_correct = (0..n).filter(|i| easy.label(i % 10, 0.0) == i % 10).count();
        let hard_correct = (0..n).filter(|i| hard.label(i % 10, 0.3) == i % 10).count();
        assert!(easy_correct > hard_correct);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_class_panics() {
        let mut teacher = TeacherOracle::new(3, 0.9, 7);
        let _ = teacher.label(3, 0.0);
    }

    #[test]
    fn single_class_teacher_is_trivially_correct() {
        let mut teacher = TeacherOracle::new(1, 0.0, 8);
        assert_eq!(teacher.label(0, 0.9), 0);
    }

    #[test]
    fn cloud_teacher_discounts_difficulty() {
        // Under a heavy penalty the cloud tier's effective accuracy stays
        // close to its base while the on-device teacher collapses.
        let mut local = TeacherOracle::new(10, 0.95, 11);
        let mut cloud = CloudTeacher::new(10, 0.95, 11);
        let n = 4000;
        let local_correct = (0..n).filter(|i| local.label(i % 10, 0.4) == i % 10).count();
        let cloud_correct = (0..n).filter(|i| cloud.label(i % 10, 0.4) == i % 10).count();
        assert!(
            cloud_correct > local_correct,
            "cloud {cloud_correct} should beat local {local_correct} under difficulty"
        );
    }

    #[test]
    fn cloud_teacher_serde_round_trip_resumes_the_exact_label_stream() {
        let mut cloud = CloudTeacher::new(10, 0.99, 12);
        for i in 0..53 {
            let _ = cloud.label(i % 10, 0.1);
        }
        let mut restored = CloudTeacher::from_value(&cloud.to_value()).expect("round-trips");
        assert_eq!(restored, cloud);
        let expected: Vec<usize> = (0..100).map(|i| cloud.label(i % 10, 0.02)).collect();
        let resumed: Vec<usize> = (0..100).map(|i| restored.label(i % 10, 0.02)).collect();
        assert_eq!(resumed, expected);
    }

    #[test]
    fn serde_round_trip_resumes_the_exact_label_stream() {
        let mut teacher = TeacherOracle::new(10, 0.7, 9);
        for i in 0..137 {
            let _ = teacher.label(i % 10, 0.1);
        }
        let mut restored = TeacherOracle::from_value(&teacher.to_value()).expect("round-trips");
        assert_eq!(restored, teacher);
        // The restored oracle continues the original's exact draw sequence.
        let expected: Vec<usize> = (0..200).map(|i| teacher.label(i % 10, 0.05)).collect();
        let resumed: Vec<usize> = (0..200).map(|i| restored.label(i % 10, 0.05)).collect();
        assert_eq!(resumed, expected);
    }
}
