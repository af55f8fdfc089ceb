//! The deployed student model: a thin continuous-learning wrapper around the
//! trainable network.

use crate::{CoreError, Result};
use dacapo_datagen::{Frame, NUM_CLASSES};
use dacapo_dnn::{Mlp, MlpConfig, QuantMode, TrainScratch};
use serde::{Deserialize, Serialize};

/// The student model as deployed in the continuous-learning loop.
///
/// Wraps the trainable [`Mlp`] and exposes the three operations the runtime
/// needs: per-frame inference accuracy (against ground truth, for reporting),
/// validation accuracy (against teacher labels, what the system can observe),
/// and retraining on buffered samples. Each runs through a caller-owned
/// [`TrainScratch`], so a session's steady-state loops copy no samples and
/// allocate no matrices; a scratch carries no numeric state between calls.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudentModel {
    network: Mlp,
    learning_rate: f32,
    batch_size: usize,
}

impl StudentModel {
    /// Builds a student for the given feature dimensionality and arithmetic
    /// modes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Dnn`] if the network configuration is invalid.
    pub fn new(
        feature_dim: usize,
        inference_quant: QuantMode,
        training_quant: QuantMode,
        learning_rate: f32,
        batch_size: usize,
        seed: u64,
    ) -> Result<Self> {
        if batch_size == 0 {
            return Err(CoreError::InvalidConfig { reason: "batch size must be positive".into() });
        }
        let config = MlpConfig {
            input_dim: feature_dim,
            hidden: vec![64, 32],
            num_classes: NUM_CLASSES,
            inference_mode: inference_quant,
            training_mode: training_quant,
            seed,
        };
        Ok(Self { network: Mlp::new(config)?, learning_rate, batch_size })
    }

    /// The wrapped network (for inspection by tests and tooling).
    #[must_use]
    pub fn network(&self) -> &Mlp {
        &self.network
    }

    /// Classification accuracy on a set of stream frames, judged against the
    /// ground-truth classes. This is the end-to-end accuracy the evaluation
    /// reports; the deployed system itself never sees it.
    ///
    /// Returns 0 for an empty slice.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Dnn`] if the feature width does not match.
    pub fn accuracy_on_frames(&self, frames: &[Frame], scratch: &mut TrainScratch) -> Result<f64> {
        let rows: Vec<&[f32]> = frames.iter().map(|f| f.sample.features.as_slice()).collect();
        let labels: Vec<usize> = frames.iter().map(|f| f.sample.true_class).collect();
        self.accuracy_on_rows(&rows, &labels, scratch)
    }

    /// Accuracy on feature rows against `labels` (one per row): the form
    /// every accuracy query reduces to, so rows can come straight from a
    /// sample buffer's slab, a frame batch, or owned records without being
    /// copied first. Judged against *teacher* labels this is the observable
    /// quantity Algorithm 1 uses for both validation (`acc_v`) and
    /// freshly-labeled data (`acc_l`).
    ///
    /// Returns 0 for no rows.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Dnn`] if the feature width does not match.
    pub fn accuracy_on_rows(
        &self,
        rows: &[&[f32]],
        labels: &[usize],
        scratch: &mut TrainScratch,
    ) -> Result<f64> {
        if rows.is_empty() {
            return Ok(0.0);
        }
        Ok(f64::from(self.network.evaluate_rows_with(rows, labels, scratch)?))
    }

    /// Retrains the student on feature rows against `labels` (one per row;
    /// the teacher labels, in the deployed loop) for the given number of
    /// epochs.
    ///
    /// Returns the number of sample presentations processed (samples ×
    /// epochs), which is what the platform's retraining throughput is charged
    /// for.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Dnn`] on dimension mismatches.
    pub fn retrain(
        &mut self,
        rows: &[&[f32]],
        labels: &[usize],
        epochs: usize,
        scratch: &mut TrainScratch,
    ) -> Result<usize> {
        if rows.is_empty() || epochs == 0 {
            return Ok(0);
        }
        self.network.train_rows_with(
            rows,
            labels,
            epochs,
            self.batch_size,
            self.learning_rate,
            scratch,
        )?;
        Ok(rows.len() * epochs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::LabeledSample;
    use dacapo_datagen::{FrameStream, Scenario, StreamConfig};

    fn make_student() -> StudentModel {
        StudentModel::new(16, QuantMode::Fp32, QuantMode::Fp32, 0.02, 16, 1).unwrap()
    }

    fn labeled_from_frames(frames: &[Frame]) -> Vec<LabeledSample> {
        frames
            .iter()
            .map(|f| LabeledSample {
                features: f.sample.features.clone(),
                teacher_label: f.sample.true_class,
                true_class: f.sample.true_class,
                timestamp_s: f.timestamp_s,
            })
            .collect()
    }

    /// The feature rows and teacher labels of owned records, as the student
    /// takes them.
    fn rows_and_teacher_labels(samples: &[LabeledSample]) -> (Vec<&[f32]>, Vec<usize>) {
        samples.iter().map(|s| (s.features.as_slice(), s.teacher_label)).unzip()
    }

    fn retrain_on(student: &mut StudentModel, samples: &[LabeledSample], epochs: usize) -> usize {
        let (rows, labels) = rows_and_teacher_labels(samples);
        student.retrain(&rows, &labels, epochs, &mut TrainScratch::new()).unwrap()
    }

    fn accuracy_on_samples(student: &StudentModel, samples: &[LabeledSample]) -> f64 {
        let (rows, labels) = rows_and_teacher_labels(samples);
        student.accuracy_on_rows(&rows, &labels, &mut TrainScratch::new()).unwrap()
    }

    #[test]
    fn zero_batch_size_is_rejected() {
        assert!(StudentModel::new(16, QuantMode::Fp32, QuantMode::Fp32, 0.02, 0, 1).is_err());
    }

    #[test]
    fn empty_inputs_return_zero_accuracy_and_no_work() {
        let mut student = make_student();
        let scratch = &mut TrainScratch::new();
        assert_eq!(student.accuracy_on_frames(&[], scratch).unwrap(), 0.0);
        assert_eq!(student.accuracy_on_rows(&[], &[], scratch).unwrap(), 0.0);
        assert_eq!(student.retrain(&[], &[], 5, scratch).unwrap(), 0);
        let row = [0.0f32; 16];
        assert_eq!(student.retrain(&[&row], &[0], 0, scratch).unwrap(), 0, "zero epochs");
    }

    #[test]
    fn retraining_on_segment_data_improves_accuracy_on_that_segment() {
        let stream = FrameStream::new(&Scenario::s1(), StreamConfig::default());
        let frames = stream.frames_between(0.0, 20.0, 2);
        let mut student = make_student();
        let scratch = &mut TrainScratch::new();
        let before = student.accuracy_on_frames(&frames, scratch).unwrap();
        let samples = labeled_from_frames(&frames);
        let processed = retrain_on(&mut student, &samples, 5);
        assert_eq!(processed, samples.len() * 5);
        let after = student.accuracy_on_frames(&frames, scratch).unwrap();
        assert!(
            after > before + 0.2 && after > 0.6,
            "retraining should lift accuracy substantially: {before:.2} -> {after:.2}"
        );
    }

    #[test]
    fn drift_lowers_accuracy_until_retrained_on_new_segment() {
        // Train on the first segment of ES1, then evaluate on a drifted
        // segment: accuracy must drop, and retraining on the new segment must
        // restore it. This is the core dynamic the whole system manages.
        let stream = FrameStream::new(&Scenario::es1(), StreamConfig::default());
        let scenario = stream.scenario().clone();
        let first_attrs = scenario.segments()[0].attributes;
        let drift_time = scenario
            .segments()
            .iter()
            .scan(0.0, |t, s| {
                let start = *t;
                *t += s.duration_s;
                Some((start, s.attributes))
            })
            .find(|(_, a)| *a != first_attrs)
            .map(|(t, _)| t)
            .expect("ES1 has drift");

        let mut student = make_student();
        let scratch = &mut TrainScratch::new();
        let old_frames = stream.frames_between(0.0, 30.0, 2);
        retrain_on(&mut student, &labeled_from_frames(&old_frames), 6);
        let acc_old = student.accuracy_on_frames(&old_frames, scratch).unwrap();

        let new_frames = stream.frames_between(drift_time, drift_time + 30.0, 2);
        let acc_drifted = student.accuracy_on_frames(&new_frames, scratch).unwrap();
        assert!(
            acc_drifted < acc_old - 0.1,
            "drift should hurt: old-segment {acc_old:.2}, drifted {acc_drifted:.2}"
        );

        retrain_on(&mut student, &labeled_from_frames(&new_frames), 6);
        let acc_recovered = student.accuracy_on_frames(&new_frames, scratch).unwrap();
        assert!(
            acc_recovered > acc_drifted + 0.1,
            "retraining on the new segment should recover: {acc_drifted:.2} -> {acc_recovered:.2}"
        );
    }

    #[test]
    fn accuracy_on_samples_uses_teacher_labels() {
        let stream = FrameStream::new(&Scenario::s1(), StreamConfig::default());
        let frames = stream.frames_between(0.0, 10.0, 3);
        let mut student = make_student();
        let mut samples = labeled_from_frames(&frames);
        retrain_on(&mut student, &samples, 6);
        let truthful = accuracy_on_samples(&student, &samples);
        // Corrupt the teacher labels: observable accuracy collapses even
        // though the model did not change.
        for s in &mut samples {
            s.teacher_label = (s.teacher_label + 1) % NUM_CLASSES;
        }
        let corrupted = accuracy_on_samples(&student, &samples);
        assert!(corrupted < truthful);
    }
}
