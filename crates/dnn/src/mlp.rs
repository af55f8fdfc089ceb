//! The trainable student network: a multi-layer perceptron with SGD and
//! optional MX fake-quantisation.

use crate::batch::{backward_pass, forward_pass, Pass, QuantisedWeights, TrainScratch};
use crate::layer::{Activation, Dense};
use crate::{loss, DnnError, Result};
use dacapo_mx::MxPrecision;
use dacapo_tensor::Matrix;
use serde::{de, DeError, Deserialize, Serialize, Value};

/// Arithmetic mode a pass executes in.
///
/// The paper's configuration runs retraining at MX9 and inference/labeling at
/// MX6 on the DaCapo accelerator, while GPU baselines run in FP32.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum QuantMode {
    /// Full single-precision floating point (GPU baselines). Its GEMMs
    /// accumulate the way those GPUs do, with the fused multiply–add — one
    /// rounding per product (`dacapo_tensor::ops`); everything elementwise
    /// rounds each operation.
    #[default]
    Fp32,
    /// MX block floating point at the given precision (DaCapo).
    Mx(MxPrecision),
}

impl QuantMode {
    fn precision(self) -> Option<MxPrecision> {
        match self {
            QuantMode::Fp32 => None,
            QuantMode::Mx(p) => Some(p),
        }
    }

    /// A forward pass in this mode that quantises the weights it multiplies.
    fn pass(self) -> Pass<'static> {
        self.precision().map_or(Pass::Fp32, |p| Pass::Mx(p, None))
    }
}

/// Configuration for building an [`Mlp`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Input feature dimension.
    pub input_dim: usize,
    /// Sizes of the hidden layers (may be empty for a linear classifier).
    pub hidden: Vec<usize>,
    /// Number of output classes.
    pub num_classes: usize,
    /// Arithmetic mode used by forward passes (inference).
    pub inference_mode: QuantMode,
    /// Arithmetic mode used by forward+backward passes during retraining.
    pub training_mode: QuantMode,
    /// RNG seed for weight initialisation.
    pub seed: u64,
}

/// A multi-layer perceptron classifier trained with SGD.
///
/// This is the *student* model of the continuous-learning loop: it runs
/// inference on every frame, is periodically retrained on the labeled sample
/// buffer, and is validated to detect data drift.
///
/// # Examples
///
/// ```
/// use dacapo_dnn::{Mlp, MlpConfig, QuantMode};
/// use dacapo_tensor::{init, Matrix};
///
/// # fn main() -> Result<(), dacapo_dnn::DnnError> {
/// let config = MlpConfig {
///     input_dim: 8,
///     hidden: vec![16],
///     num_classes: 3,
///     inference_mode: QuantMode::Fp32,
///     training_mode: QuantMode::Fp32,
///     seed: 1,
/// };
/// let mut student = Mlp::new(config)?;
/// let features = init::uniform(10, 8, -1.0, 1.0, 2)?;
/// let labels = vec![0usize, 1, 2, 0, 1, 2, 0, 1, 2, 0];
/// student.train(&features, &labels, 3, 16, 1e-2)?;
/// let accuracy = student.evaluate(&features, &labels)?;
/// assert!(accuracy >= 0.0 && accuracy <= 1.0);
/// # Ok(())
/// # }
/// ```
///
/// A network whose inference mode is MX also holds its weights quantised at
/// that precision. The copy is derived, not state: it is rebuilt wherever
/// the weights change ([`Mlp::new`], decoding, the end of
/// [`Mlp::train_rows_with`]) and never serialised, so the format and every
/// result are those of quantising the weights at each evaluation. Two
/// networks with equal weights and configuration hold equal copies.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Mlp {
    layers: Vec<Dense>,
    config: MlpConfig,
    #[serde(skip)]
    inference_weights: Option<QuantisedWeights>,
}

/// Deserialises through [`Mlp::validate`], so a decoded network holds what a
/// built one does — a layer per configured width, each of the shape the
/// kernels will index it by.
impl Deserialize for Mlp {
    fn from_value(value: &Value) -> std::result::Result<Self, DeError> {
        let mut net = Self {
            layers: de::field(value, "Mlp", "layers")?,
            config: de::field(value, "Mlp", "config")?,
            inference_weights: None,
        };
        net.validate().map_err(|e| DeError::new(format!("Mlp: {e}")))?;
        net.quantise_inference_weights();
        Ok(net)
    }
}

impl Mlp {
    /// Builds the network described by `config`.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidConfig`] if any dimension is zero.
    pub fn new(config: MlpConfig) -> Result<Self> {
        if config.input_dim == 0 || config.num_classes == 0 {
            return Err(DnnError::InvalidConfig {
                reason: "input dimension and class count must be positive".into(),
            });
        }
        if config.hidden.contains(&0) {
            return Err(DnnError::InvalidConfig {
                reason: "hidden layer sizes must be positive".into(),
            });
        }
        let mut layers = Vec::with_capacity(config.hidden.len() + 1);
        let mut previous = config.input_dim;
        for (i, &width) in config.hidden.iter().chain([&config.num_classes]).enumerate() {
            let activation =
                if i < config.hidden.len() { Activation::Relu } else { Activation::Linear };
            layers.push(Dense::new(
                previous,
                width,
                activation,
                config.seed.wrapping_add(i as u64),
            )?);
            previous = width;
        }
        let mut net = Self { layers, config, inference_weights: None };
        net.quantise_inference_weights();
        Ok(net)
    }

    /// Rebuilds the quantised copy of the weights an MX inference mode
    /// multiplies by; an FP32 inference mode keeps none.
    fn quantise_inference_weights(&mut self) {
        self.inference_weights = self
            .config
            .inference_mode
            .precision()
            .map(|precision| QuantisedWeights::new(&self.layers, precision));
    }

    /// The forward pass [`Mlp::forward`] runs in `mode`.
    fn pass(&self, mode: QuantMode) -> Pass<'_> {
        match (&self.inference_weights, mode) {
            (Some(weights), QuantMode::Mx(p)) if mode == self.config.inference_mode => {
                Pass::Mx(p, Some(weights))
            }
            _ => mode.pass(),
        }
    }

    /// The configuration the network was built with.
    #[must_use]
    pub fn config(&self) -> &MlpConfig {
        &self.config
    }

    /// Checks that the layers realise the configuration: one layer per
    /// hidden width plus the output layer, layer `i` a `previous × width`
    /// weight matrix with a `1 × width` bias along `input_dim → hidden… →
    /// num_classes`. [`Mlp::new`] builds exactly that, decoding an `Mlp`
    /// ends in this check, and the kernels index by these shapes.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidConfig`] naming the first layer that does
    /// not fit.
    pub fn validate(&self) -> Result<()> {
        let widths = self.config.hidden.iter().chain([&self.config.num_classes]);
        if self.layers.len() != self.config.hidden.len() + 1 {
            return Err(DnnError::InvalidConfig {
                reason: format!(
                    "{} layers for {} hidden widths and an output layer",
                    self.layers.len(),
                    self.config.hidden.len()
                ),
            });
        }
        let mut previous = self.config.input_dim;
        for (i, (layer, &width)) in self.layers.iter().zip(widths).enumerate() {
            // A `Matrix` always holds `rows × cols` elements (decoding checks
            // it too), so the shape is the whole fit.
            let fits = |m: &Matrix, rows| m.shape() == (rows, width);
            if !(fits(layer.weights(), previous) && fits(layer.bias(), 1)) {
                return Err(DnnError::InvalidConfig {
                    reason: format!("layers[{i}] is not {previous}×{width} with a 1×{width} bias"),
                });
            }
            previous = width;
        }
        Ok(())
    }

    /// Total number of trainable parameters.
    #[must_use]
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Dense::num_params).sum()
    }

    /// Runs a forward pass in the given mode and returns the logits: the
    /// production forward pass of [`Mlp::evaluate_rows_with`] through a
    /// fresh [`TrainScratch`] — over the quantised copy of the weights at an
    /// MX inference mode, quantising them per call at any other mode.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::DimensionMismatch`] if the feature width is wrong.
    pub fn forward(&self, features: &Matrix, mode: QuantMode) -> Result<Matrix> {
        let mut scratch = TrainScratch::new();
        scratch.ensure(self.layers.len());
        let TrainScratch { ws, acts, layers: lscr, .. } = &mut scratch;
        forward_pass(&self.layers, features, self.pass(mode), ws, acts, lscr)?;
        Ok(scratch.acts.swap_remove(self.layers.len() - 1))
    }

    /// Classification accuracy on a labeled batch, using the configured
    /// inference mode.
    ///
    /// # Errors
    ///
    /// Returns an error on dimension or label mismatches.
    pub fn evaluate(&self, features: &Matrix, labels: &[usize]) -> Result<f32> {
        let logits = self.forward(features, self.config.inference_mode)?;
        loss::accuracy(&logits, labels)
    }

    /// Retrains the network with mini-batch SGD in the configured training
    /// mode: [`Mlp::train_rows_with`] over the rows of `features` through a
    /// fresh [`TrainScratch`].
    ///
    /// The paper's retraining hyperparameters (Section VII-A) are SGD with
    /// learning rate `1e-3` and batch size 16; callers pass them explicitly so
    /// experiments can sweep them.
    ///
    /// # Errors
    ///
    /// Returns an error on dimension or label mismatches, or if `batch_size`
    /// or `epochs` is zero.
    pub fn train(
        &mut self,
        features: &Matrix,
        labels: &[usize],
        epochs: usize,
        batch_size: usize,
        learning_rate: f32,
    ) -> Result<()> {
        let rows: Vec<&[f32]> = features.iter_rows().collect();
        self.train_rows_with(
            &rows,
            labels,
            epochs,
            batch_size,
            learning_rate,
            &mut TrainScratch::new(),
        )
    }

    /// Retrains on a slice of feature rows through a reusable
    /// [`TrainScratch`] arena — the one training implementation, allocation-
    /// free once the arena has grown, which a session's retraining phase
    /// calls directly. Every step quantises the weights it multiplies (in an
    /// MX training mode); the quantised copy inference uses is rebuilt once,
    /// at the end, whether training finished or failed part-way.
    ///
    /// # Errors
    ///
    /// Returns an error on dimension or label mismatches, or if `batch_size`
    /// or `epochs` is zero.
    pub fn train_rows_with(
        &mut self,
        rows: &[&[f32]],
        labels: &[usize],
        epochs: usize,
        batch_size: usize,
        learning_rate: f32,
        scratch: &mut TrainScratch,
    ) -> Result<()> {
        let trained = self.sgd(rows, labels, epochs, batch_size, learning_rate, scratch);
        self.quantise_inference_weights();
        trained
    }

    /// The body of [`Mlp::train_rows_with`]: mini-batch SGD, which leaves
    /// the quantised inference weights behind the weights it moves.
    fn sgd(
        &mut self,
        rows: &[&[f32]],
        labels: &[usize],
        epochs: usize,
        batch_size: usize,
        learning_rate: f32,
        scratch: &mut TrainScratch,
    ) -> Result<()> {
        if batch_size == 0 || epochs == 0 {
            return Err(DnnError::InvalidConfig {
                reason: "epochs and batch size must be positive".into(),
            });
        }
        if labels.len() != rows.len() {
            return Err(DnnError::InvalidLabels {
                reason: format!("{} labels for {} feature rows", labels.len(), rows.len()),
            });
        }
        let mode = self.config.training_mode;
        scratch.ensure(self.layers.len());
        let TrainScratch { ws, features, grad, acts, layers: lscr } = scratch;

        for _epoch in 0..epochs {
            let mut start = 0usize;
            while start < rows.len() {
                let end = (start + batch_size).min(rows.len());
                features.copy_rows_from(&rows[start..end])?;
                let batch_labels = &labels[start..end];

                forward_pass(&self.layers, features, mode.pass(), ws, acts, lscr)?;
                loss::cross_entropy_into(&acts[self.layers.len() - 1], batch_labels, grad)?;

                backward_pass(
                    &mut self.layers,
                    features,
                    grad,
                    mode.precision(),
                    learning_rate,
                    ws,
                    acts,
                    lscr,
                )?;
                start = end;
            }
        }
        Ok(())
    }

    /// Classification accuracy on a slice of feature rows through a reusable
    /// [`TrainScratch`] arena, using the configured inference mode.
    ///
    /// # Errors
    ///
    /// Returns an error on dimension or label mismatches.
    pub fn evaluate_rows_with(
        &self,
        rows: &[&[f32]],
        labels: &[usize],
        scratch: &mut TrainScratch,
    ) -> Result<f32> {
        scratch.ensure(self.layers.len());
        let TrainScratch { ws, features, acts, layers: lscr, .. } = scratch;
        features.copy_rows_from(rows)?;
        forward_pass(
            &self.layers,
            features,
            self.pass(self.config.inference_mode),
            ws,
            acts,
            lscr,
        )?;
        loss::accuracy(&acts[self.layers.len() - 1], labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::ForwardCache;
    use dacapo_tensor::init;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Two well-separated Gaussian-ish clusters the MLP must learn to split.
    fn two_cluster_data(n: usize, dim: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut features = Matrix::zeros(n, dim).unwrap();
        let mut labels = Vec::with_capacity(n);
        for r in 0..n {
            let class = r % 2;
            let center = if class == 0 { -1.0f32 } else { 1.0 };
            for c in 0..dim {
                features[(r, c)] = center + rng.gen_range(-0.3..0.3);
            }
            labels.push(class);
        }
        (features, labels)
    }

    fn fp32_config(input_dim: usize, classes: usize) -> MlpConfig {
        MlpConfig {
            input_dim,
            hidden: vec![16],
            num_classes: classes,
            inference_mode: QuantMode::Fp32,
            training_mode: QuantMode::Fp32,
            seed: 7,
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(Mlp::new(MlpConfig { input_dim: 0, ..fp32_config(4, 2) }).is_err());
        assert!(Mlp::new(MlpConfig { num_classes: 0, ..fp32_config(4, 2) }).is_err());
        assert!(Mlp::new(MlpConfig { hidden: vec![8, 0], ..fp32_config(4, 2) }).is_err());
    }

    #[test]
    fn validate_accepts_built_networks_and_names_the_layer_that_does_not_fit() {
        use serde::Serialize as _;
        let config = MlpConfig { hidden: vec![16, 8], ..fp32_config(10, 3) };
        let net = Mlp::new(config).unwrap();
        net.validate().unwrap();
        Mlp::new(MlpConfig { hidden: vec![], ..fp32_config(10, 3) }).unwrap().validate().unwrap();
        assert_eq!(Mlp::from_value(&net.to_value()).unwrap(), net);

        type Misfit = (&'static str, fn(&mut Mlp));
        let misfits: [Misfit; 5] = [
            ("1 layers", |n| n.layers.truncate(1)),
            ("0 layers", |n| n.layers.clear()),
            ("layers[1]", |n| n.layers[1] = Dense::new(16, 9, Activation::Relu, 0).unwrap()),
            ("layers[2]", |n| n.layers[2] = Dense::new(9, 3, Activation::Linear, 0).unwrap()),
            ("layers[0]", |n| n.config.input_dim = 11),
        ];
        for (names, mutate) in misfits {
            let mut broken = net.clone();
            mutate(&mut broken);
            match broken.validate() {
                Err(DnnError::InvalidConfig { reason }) => {
                    assert!(reason.contains(names), "{reason}")
                }
                other => panic!("{names}: expected InvalidConfig, got {other:?}"),
            }
            // Decoding ends in the same check: the misfit, serialised, is a
            // `DeError` naming the layer, not a network that panics later.
            let err: DeError = Mlp::from_value(&broken.to_value()).unwrap_err();
            assert!(err.to_string().contains(names), "{err}");
        }
    }

    #[test]
    fn a_serialised_network_with_a_short_weight_matrix_does_not_deserialise() {
        use serde::{Deserialize as _, Serialize as _, Value};
        /// Drops the last element of the first `"data"` array under `value`.
        fn truncate_first_data(value: &mut Value) -> bool {
            match value {
                Value::Object(entries) => entries.iter_mut().any(|(key, v)| match v {
                    Value::Array(items) if key == "data" => items.pop().is_some(),
                    _ => truncate_first_data(v),
                }),
                Value::Array(items) => items.iter_mut().any(truncate_first_data),
                _ => false,
            }
        }
        // `validate` checks shapes only: that a decoded matrix's storage
        // matches its shape is the type's guarantee.
        let net = Mlp::new(fp32_config(4, 2)).unwrap();
        let mut encoded = net.to_value();
        assert_eq!(Mlp::from_value(&encoded).unwrap(), net);
        assert!(truncate_first_data(&mut encoded));
        let err = Mlp::from_value(&encoded).unwrap_err().to_string();
        assert!(err.contains("data length mismatch"), "{err}");
    }

    #[test]
    fn param_count_matches_layer_sum() {
        let net = Mlp::new(fp32_config(10, 3)).unwrap();
        // 10*16 + 16 + 16*3 + 3
        assert_eq!(net.num_params(), 10 * 16 + 16 + 16 * 3 + 3);
    }

    #[test]
    fn training_learns_separable_clusters() {
        let (features, labels) = two_cluster_data(200, 6, 42);
        let mut net = Mlp::new(fp32_config(6, 2)).unwrap();
        let before = net.evaluate(&features, &labels).unwrap();
        net.train(&features, &labels, 5, 16, 0.05).unwrap();
        let after = net.evaluate(&features, &labels).unwrap();
        assert!(after > 0.95, "after-training accuracy {after}");
        assert!(after >= before, "training made accuracy worse: {before} -> {after}");
    }

    #[test]
    fn mx_quantised_training_also_learns() {
        let (features, labels) = two_cluster_data(200, 6, 43);
        let config = MlpConfig {
            inference_mode: QuantMode::Mx(MxPrecision::Mx6),
            training_mode: QuantMode::Mx(MxPrecision::Mx9),
            ..fp32_config(6, 2)
        };
        let mut net = Mlp::new(config).unwrap();
        net.train(&features, &labels, 5, 16, 0.05).unwrap();
        let accuracy = net.evaluate(&features, &labels).unwrap();
        assert!(accuracy > 0.9, "MX-quantised training accuracy {accuracy}");
    }

    #[test]
    fn mx4_inference_is_no_better_than_mx9() {
        // Train in FP32, then compare evaluation accuracy at different
        // inference precisions; MX4 should not beat MX9 on average.
        let (features, labels) = two_cluster_data(300, 8, 44);
        let mut net = Mlp::new(fp32_config(8, 2)).unwrap();
        net.train(&features, &labels, 5, 16, 0.05).unwrap();
        let logits9 = net.forward(&features, QuantMode::Mx(MxPrecision::Mx9)).unwrap();
        let logits4 = net.forward(&features, QuantMode::Mx(MxPrecision::Mx4)).unwrap();
        let acc9 = loss::accuracy(&logits9, &labels).unwrap();
        let acc4 = loss::accuracy(&logits4, &labels).unwrap();
        assert!(acc9 + 1e-6 >= acc4, "MX9 {acc9} vs MX4 {acc4}");
    }

    impl Mlp {
        /// The layer reference forward pass — the [`Dense::forward`] chain,
        /// one allocation per intermediate — with the caches
        /// [`Dense::backward`] consumes. Production passes
        /// (`batch::forward_pass`) are tested bit-identical to it.
        pub(crate) fn reference_forward(
            &self,
            features: &Matrix,
            mode: QuantMode,
        ) -> (Matrix, Vec<ForwardCache>) {
            let mut caches = Vec::with_capacity(self.layers.len());
            let mut current = features.clone();
            for layer in &self.layers {
                let (next, cache) = layer.forward(&current, mode.precision()).unwrap();
                caches.push(cache);
                current = next;
            }
            (current, caches)
        }
    }

    /// Mini-batch SGD through the layer reference API (`Dense::forward` /
    /// `Dense::backward` / `loss::cross_entropy`): what the production path
    /// must reproduce bit for bit.
    fn train_reference(net: &mut Mlp, features: &Matrix, labels: &[usize], epochs: usize) {
        let mode = net.config.training_mode;
        let rows: Vec<&[f32]> = features.iter_rows().collect();
        for _ in 0..epochs {
            for (batch_rows, batch_labels) in rows.chunks(16).zip(labels.chunks(16)) {
                let batch = Matrix::from_rows(batch_rows).unwrap();
                let (logits, caches) = net.reference_forward(&batch, mode);
                let (_, mut upstream) = loss::cross_entropy(&logits, batch_labels).unwrap();
                for (layer, cache) in net.layers.iter_mut().zip(&caches).rev() {
                    let grads = layer.backward(cache, &upstream, mode.precision()).unwrap();
                    layer.apply_gradients(&grads, 0.05).unwrap();
                    upstream = grads.input;
                }
            }
        }
    }

    #[test]
    fn scratch_training_is_bit_identical_to_the_allocating_layer_reference() {
        // 40 rows in batches of 16 leave a batch of 8: an MX block along the
        // batch dimension that is half padding.
        let (features, labels) = two_cluster_data(40, 20, 47);
        let modes = MxPrecision::ALL.map(QuantMode::Mx).into_iter().chain([QuantMode::Fp32]);
        for mode in modes {
            // An inference mode equal to the training mode too: training must
            // quantise the weights of every step, never the copy inference
            // keeps of the weights it started from.
            for inference_mode in [QuantMode::Fp32, mode] {
                let config = MlpConfig {
                    hidden: vec![24, 9],
                    training_mode: mode,
                    inference_mode,
                    ..fp32_config(20, 3)
                };
                let mut reference = Mlp::new(config).unwrap();
                let mut net = reference.clone();
                train_reference(&mut reference, &features, &labels, 2);
                reference.quantise_inference_weights();
                let rows: Vec<&[f32]> = features.iter_rows().collect();
                net.train_rows_with(&rows, &labels, 2, 16, 0.05, &mut TrainScratch::new()).unwrap();
                assert_eq!(net, reference, "{mode:?}, inference {inference_mode:?}");
            }
        }
    }

    /// `net` built again from its weights and configuration alone.
    fn rebuilt(net: &Mlp) -> Mlp {
        let mut rebuilt =
            Mlp { layers: net.layers.clone(), config: net.config.clone(), inference_weights: None };
        rebuilt.quantise_inference_weights();
        rebuilt
    }

    /// `net` evaluates `features` at its inference mode exactly as the layer
    /// reference, which quantises the weights at every call, does — logits
    /// and accuracy — and holds the quantised copy a network rebuilt from its
    /// weights holds.
    fn assert_evaluates_as_its_weights(net: &Mlp, features: &Matrix, labels: &[usize], what: &str) {
        let mode = net.config.inference_mode;
        let (reference, _) = net.reference_forward(features, mode);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&net.forward(features, mode).unwrap()), bits(&reference), "{what}");
        let rows: Vec<&[f32]> = features.iter_rows().collect();
        let accuracy = net.evaluate_rows_with(&rows, labels, &mut TrainScratch::new()).unwrap();
        let expected = loss::accuracy(&reference, labels).unwrap();
        assert_eq!(accuracy.to_bits(), expected.to_bits(), "{what}");
        assert_eq!(net, &rebuilt(net), "{what}");
    }

    #[test]
    fn every_way_to_a_network_evaluates_as_its_weights() {
        use serde::{Deserialize as _, Serialize as _};
        let (features, labels) = two_cluster_data(40, 16, 48);
        let rows: Vec<&[f32]> = features.iter_rows().collect();
        for (inference, training) in [
            (QuantMode::Mx(MxPrecision::Mx6), QuantMode::Mx(MxPrecision::Mx9)),
            (QuantMode::Mx(MxPrecision::Mx6), QuantMode::Fp32),
            (QuantMode::Mx(MxPrecision::Mx9), QuantMode::Mx(MxPrecision::Mx9)),
        ] {
            let config = MlpConfig {
                hidden: vec![64, 32],
                inference_mode: inference,
                training_mode: training,
                ..fp32_config(16, 10)
            };
            let mut net = Mlp::new(config).unwrap();
            assert!(net.inference_weights.is_some());
            assert_evaluates_as_its_weights(&net, &features, &labels, "built");
            net.train_rows_with(&rows, &labels, 2, 16, 0.05, &mut TrainScratch::new()).unwrap();
            assert_evaluates_as_its_weights(&net, &features, &labels, "retrained");
            assert_evaluates_as_its_weights(&net.clone(), &features, &labels, "cloned");
            let decoded = Mlp::from_value(&net.to_value()).unwrap();
            assert_evaluates_as_its_weights(&decoded, &features, &labels, "decoded");
            // A training call that fails part-way has moved the weights of
            // the batches before the failure; the copy follows them too.
            let mut bad_rows = rows.clone();
            let narrow = [0.5f32; 15];
            bad_rows[20] = &narrow;
            let before = net.clone();
            assert!(net
                .train_rows_with(&bad_rows, &labels, 1, 16, 0.05, &mut TrainScratch::new())
                .is_err());
            assert_ne!(net.layers, before.layers, "the first batch trained");
            assert_evaluates_as_its_weights(&net, &features, &labels, "failed part-way");
        }
        // An FP32 inference mode keeps no copy.
        assert!(Mlp::new(fp32_config(16, 10)).unwrap().inference_weights.is_none());
    }

    #[test]
    fn a_non_finite_weight_fails_the_first_evaluation_after_it() {
        let (features, labels) = two_cluster_data(16, 16, 49);
        let rows: Vec<&[f32]> = features.iter_rows().collect();
        let config = MlpConfig {
            hidden: vec![64, 32],
            inference_mode: QuantMode::Mx(MxPrecision::Mx6),
            ..fp32_config(16, 10)
        };
        let mut net = Mlp::new(config).unwrap();
        // One FP32 batch at an infinite rate: it succeeds, and leaves every
        // layer's weights non-finite.
        net.train_rows_with(&rows, &labels, 1, 16, f32::INFINITY, &mut TrainScratch::new())
            .unwrap();
        assert!(net.layers[0].weights().as_slice().iter().any(|w| !w.is_finite()));
        // What the pass that quantises the weights at every call reports.
        let mut scratch = TrainScratch::new();
        scratch.ensure(net.layers.len());
        let TrainScratch { ws, acts, layers: lscr, .. } = &mut scratch;
        let mode = QuantMode::Mx(MxPrecision::Mx6);
        let expected = forward_pass(&net.layers, &features, mode.pass(), ws, acts, lscr);
        let Err(DnnError::Tensor(dacapo_tensor::TensorError::Quantization(expected))) = expected
        else {
            panic!("expected a quantisation error, got {expected:?}");
        };
        let got = [
            net.evaluate_rows_with(&rows, &labels, &mut TrainScratch::new()).unwrap_err(),
            net.forward(&features, mode).unwrap_err(),
            net.evaluate(&features, &labels).unwrap_err(),
        ];
        for error in got {
            // `{:?}` compares a NaN value as its text, which `==` cannot.
            assert_eq!(
                format!("{error:?}"),
                format!("{:?}", DnnError::Tensor(expected.clone().into()))
            );
        }
    }

    #[test]
    fn train_validates_inputs() {
        let (features, labels) = two_cluster_data(20, 4, 45);
        let mut net = Mlp::new(fp32_config(4, 2)).unwrap();
        assert!(net.train(&features, &labels[..10], 1, 8, 0.01).is_err());
        assert!(net.train(&features, &labels, 0, 8, 0.01).is_err());
        assert!(net.train(&features, &labels, 1, 0, 0.01).is_err());
        let bad = init::uniform(20, 5, -1.0, 1.0, 0).unwrap();
        assert!(net.train(&bad, &labels, 1, 8, 0.01).is_err());
    }

    #[test]
    fn networks_with_same_seed_are_identical() {
        let a = Mlp::new(fp32_config(4, 2)).unwrap();
        let b = Mlp::new(fp32_config(4, 2)).unwrap();
        assert_eq!(a, b);
    }
}
