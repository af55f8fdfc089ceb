//! The production forward/backward pass and the arena it runs in.
//!
//! The continuous-learning loop retrains a small MLP thousands of times per
//! simulated run, so there is one forward pass and one backward pass, and
//! both run out of caller-owned scratch:
//!
//! * [`TrainScratch`] — one arena of reusable matrices plus a packed-GEMM
//!   [`Workspace`] covering everything a forward/backward pass needs. Buffers
//!   grow to the high-water mark of the shapes they see and are then reused,
//!   so steady-state training steps perform no heap allocation in the kernel
//!   path. A scratch carries no numeric state between calls (every pass fully
//!   overwrites what it reads), so sharing one across models cannot change
//!   results — which is what lets an arena belong to whoever *runs* the
//!   kernels rather than to a model. Every `Mlp` entry point runs these
//!   passes; the ones that take no scratch
//!   (`Mlp::{forward, predict, evaluate, train}`) bring a fresh one.
//!
//!   **Who owns one.** The executor, not the camera: in `dacapo-core` each
//!   accelerator loop of a cluster holds exactly one arena and lends it to
//!   every kernel call of every resident session — admission pre-training,
//!   labeling-accuracy and validation evaluations, measurements and
//!   retraining alike — the way a sub-accelerator's buffers serve whichever
//!   model's kernel is scheduled on it. A session stepped on its own
//!   (`Session::step`) computes in one it makes for itself. The
//!   arena is then as large as the largest batch any resident computes
//!   ([`TrainScratch::capacity_bytes`]), independent of how many residents
//!   there are, and it is the same few dozen kilobytes under every step,
//!   where per-session arenas are that much cold memory per camera.
//! * [`StackedJob`] / [`train_stacked`] — several networks' retraining run
//!   back to back over one arena: a `for` loop over [`Mlp::train_rows_with`],
//!   which a session's retraining phase calls directly. Their only caller is
//!   the frozen benchmark's layer sheet (`dnn.train_stacked_us_per_sample`).
//!   Fusing jobs into one GEMM would merely pad a block-diagonal operand
//!   with zeros, since each network trains its own weights.
//!
//! Bit-identity with the layer reference — the [`Dense::forward`] /
//! [`Dense::backward`] / `loss::cross_entropy` chain, which allocates every
//! intermediate and exists for the tests to compare against — is the design
//! constraint throughout: the packed kernels accumulate in the same order
//! as the naive loops, the two gradient GEMMs address the operand the
//! reference transposes instead of copying it (`xᵀ · δ` by columns,
//! `δ · Wᵀ` as a transposed panel), the ReLU backward uses the same multiply
//! form as the mask-and-hadamard reference, and the MX paths quantise
//! exactly the operands the reference quantises.

use crate::layer::{Activation, Dense};
use crate::{DnnError, Mlp, Result};
use dacapo_mx::MxPrecision;
use dacapo_tensor::{ops, quant, Matrix, TensorError, Workspace};

/// Per-layer reusable matrices for one forward/backward pass.
#[derive(Debug, Clone)]
pub(crate) struct LayerScratch {
    /// Quantised layer input (the MX forward cache; unused in FP32 mode).
    pub(crate) x_q: Matrix,
    /// Pre-activation output (the activation-derivative cache).
    pub(crate) pre: Matrix,
    /// Upstream gradient after the activation derivative.
    pub(crate) delta: Matrix,
    /// Weight gradient. An MX training forward pass first quantises the
    /// layer's weights into it, since it has their shape and the layer's
    /// backward step is the first to write it after.
    pub(crate) d_w: Matrix,
    /// Bias gradient.
    pub(crate) d_b: Matrix,
    /// Input gradient — the next (shallower) layer's upstream.
    pub(crate) d_x: Matrix,
}

impl LayerScratch {
    fn fresh() -> Self {
        Self {
            x_q: Matrix::identity(1),
            pre: Matrix::identity(1),
            delta: Matrix::identity(1),
            d_w: Matrix::identity(1),
            d_b: Matrix::identity(1),
            d_x: Matrix::identity(1),
        }
    }
}

/// Reusable arena for allocation-free MLP training and evaluation.
///
/// Holds the packed-GEMM workspace, the gathered feature batch, per-layer
/// activations, and per-layer backward scratch. One scratch serves any
/// sequence of networks and batch shapes; see the [module docs](self) for
/// why sharing is sound.
#[derive(Debug, Clone)]
pub struct TrainScratch {
    pub(crate) ws: Workspace,
    pub(crate) features: Matrix,
    pub(crate) grad: Matrix,
    pub(crate) acts: Vec<Matrix>,
    pub(crate) layers: Vec<LayerScratch>,
}

impl TrainScratch {
    /// Creates an empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self {
            ws: Workspace::new(),
            features: Matrix::identity(1),
            grad: Matrix::identity(1),
            acts: Vec::new(),
            layers: Vec::new(),
        }
    }

    /// Bytes of backing storage the arena has grown to: the sum of its
    /// buffers' capacities, which is what a holder of one pays for it. It
    /// only ever rises, to the high-water mark of the shapes seen.
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        let Self { ws, features, grad, acts, layers } = self;
        let per_layer =
            layers.iter().flat_map(|l| [&l.x_q, &l.pre, &l.delta, &l.d_w, &l.d_b, &l.d_x]);
        let elements: usize =
            [features, grad].into_iter().chain(acts).chain(per_layer).map(Matrix::capacity).sum();
        ws.capacity_bytes() + elements * std::mem::size_of::<f32>()
    }

    /// Grows the per-layer slots to cover a network of `layers` layers.
    pub(crate) fn ensure(&mut self, layers: usize) {
        if self.acts.len() < layers {
            self.acts.resize_with(layers, || Matrix::identity(1));
        }
        if self.layers.len() < layers {
            self.layers.resize_with(layers, LayerScratch::fresh);
        }
    }
}

impl Default for TrainScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Each layer's weights quantised down their columns at one precision: the
/// right operands of an MX forward pass, exactly what a pass without the
/// copy quantises for itself. An `Mlp` whose inference mode is MX derives
/// one from its weights wherever they change, so an evaluation quantises
/// only its activations.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct QuantisedWeights {
    /// Per layer, its quantised weights, or the error quantising them gave
    /// (a non-finite weight): the first pass to reach the layer returns it,
    /// as quantising the weights in the pass would have.
    layers: Vec<std::result::Result<Matrix, TensorError>>,
}

impl QuantisedWeights {
    pub(crate) fn new(layers: &[Dense], precision: MxPrecision) -> Self {
        let quantise = |layer: &Dense| quant::quantize_cols(layer.weights(), precision);
        Self { layers: layers.iter().map(quantise).collect() }
    }
}

/// The arithmetic of a forward pass, and where its weight operands come from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Pass<'a> {
    /// FP32 GEMMs on the weights as they are.
    Fp32,
    /// MX at this precision: the f32 GEMM on the activations quantised along
    /// their rows and the weights down their columns — taken from the copy
    /// when there is one (evaluation at the inference mode), quantised into
    /// the arena otherwise (training, whose weights move every step).
    Mx(MxPrecision, Option<&'a QuantisedWeights>),
}

/// Forward pass through `layers`, writing activation `i` into `acts[i]` and
/// per-layer caches into `lscr`. Bit-identical to the reference
/// [`Dense::forward`] chain.
pub(crate) fn forward_pass(
    layers: &[Dense],
    x0: &Matrix,
    pass: Pass<'_>,
    ws: &mut Workspace,
    acts: &mut [Matrix],
    lscr: &mut [LayerScratch],
) -> Result<()> {
    for (i, layer) in layers.iter().enumerate() {
        let (done, rest) = acts.split_at_mut(i);
        let x: &Matrix = if i == 0 { x0 } else { &done[i - 1] };
        if x.cols() != layer.input_dim() {
            return Err(DnnError::DimensionMismatch { expected: layer.input_dim(), got: x.cols() });
        }
        let scr = &mut lscr[i];
        let (x, weights) = match pass {
            Pass::Fp32 => (x, layer.weights()),
            Pass::Mx(p, copy) => {
                // `x_q` stays for the backward pass's weight gradient.
                quant::quantize_rows_into(x, p, &mut scr.x_q)?;
                let weights = match copy {
                    Some(QuantisedWeights { layers }) => {
                        layers[i].as_ref().map_err(Clone::clone)?
                    }
                    None => {
                        quant::quantize_cols_into(layer.weights(), p, &mut scr.d_w)?;
                        &scr.d_w
                    }
                };
                (&scr.x_q, weights)
            }
        };
        ops::matmul_into(x, weights, &mut scr.pre, ws)?;
        let (rows, cols) = scr.pre.shape();
        let bias = layer.bias();
        if bias.shape() != (1, cols) {
            return Err(TensorError::ShapeMismatch {
                op: "add_row_broadcast",
                left: scr.pre.shape(),
                right: bias.shape(),
            }
            .into());
        }
        // Bias-add and activation in one pass: `pre` keeps `x·W + b` for the
        // backward pass, `out` takes the activation of the same value.
        let out = &mut rest[0];
        out.resize_for_overwrite(rows, cols)?;
        let relu = layer.activation_kind() == Activation::Relu;
        for (pre, out) in scr
            .pre
            .as_mut_slice()
            .chunks_exact_mut(cols)
            .zip(out.as_mut_slice().chunks_exact_mut(cols))
        {
            for ((p, o), b) in pre.iter_mut().zip(out).zip(bias.as_slice()) {
                *p += b;
                *o = if relu { p.max(0.0) } else { *p };
            }
        }
    }
    Ok(())
}

/// Backward pass with immediate SGD application, mirroring the reference
/// [`Dense::backward`] + `apply_gradients` sequence layer by layer (gradients
/// for layer `i` are always computed against pre-update weights).
// The arguments are the disjoint fields of a destructured `TrainScratch`:
// bundling them back into a struct would re-merge borrows the caller
// deliberately splits.
#[allow(clippy::too_many_arguments)]
pub(crate) fn backward_pass(
    layers: &mut [Dense],
    x0: &Matrix,
    grad: &Matrix,
    precision: Option<MxPrecision>,
    learning_rate: f32,
    ws: &mut Workspace,
    acts: &[Matrix],
    lscr: &mut [LayerScratch],
) -> Result<()> {
    let depth = layers.len();
    for i in (0..depth).rev() {
        let (shallow, deep) = lscr.split_at_mut(i + 1);
        let upstream: &Matrix = if i + 1 == depth { grad } else { &deep[0].d_x };
        let LayerScratch { x_q, pre, delta, d_w, d_b, d_x } = &mut shallow[i];
        let layer = &mut layers[i];
        let delta: &Matrix = match layer.activation_kind() {
            Activation::Relu => {
                if upstream.shape() != pre.shape() {
                    return Err(TensorError::ShapeMismatch {
                        op: "hadamard",
                        left: upstream.shape(),
                        right: pre.shape(),
                    }
                    .into());
                }
                let (rows, cols) = pre.shape();
                delta.resize_for_overwrite(rows, cols)?;
                // Multiply by a 1.0/0.0 factor (not a branch) for bitwise
                // parity with hadamard(upstream, mask), signed zeros included.
                for ((d, &u), &p) in
                    delta.as_mut_slice().iter_mut().zip(upstream.as_slice()).zip(pre.as_slice())
                {
                    *d = u * (if p > 0.0 { 1.0 } else { 0.0 });
                }
                delta
            }
            Activation::Linear => upstream,
        };
        let x_input: &Matrix = match precision {
            Some(_) => x_q,
            None => {
                if i == 0 {
                    x0
                } else {
                    &acts[i - 1]
                }
            }
        };
        // Neither gradient GEMM materialises a transpose: `d_w = xᵀ · δ` reads
        // `x` by columns and `d_x = δ · Wᵀ` packs its panel from `W`'s
        // columns, each accumulating (and, in MX, blocking its operands along
        // the reduction dimension) exactly as the GEMM on the materialised
        // transpose does (property-tested). Layer 0's input gradient has no
        // consumer, so it is skipped entirely; weights are unaffected.
        match precision {
            Some(p) => quant::mx_matmul_at_b_into(x_input, delta, p, d_w, ws)?,
            None => ops::matmul_at_b(x_input, delta, d_w, ws)?,
        }
        if i > 0 {
            match precision {
                Some(p) => quant::mx_matmul_a_bt_into(delta, layer.weights(), p, d_x, ws)?,
                None => ops::matmul_a_bt(delta, layer.weights(), d_x, ws)?,
            }
        }
        ops::sum_rows_into(delta, d_b);
        layer.apply_gradients_raw(d_w, d_b, learning_rate)?;
    }
    Ok(())
}

/// One network's retraining work, as submitted to [`train_stacked`].
#[derive(Debug)]
pub struct StackedJob<'a> {
    /// The network to train (each job owns distinct weights).
    pub net: &'a mut Mlp,
    /// Feature rows of the training batch.
    pub rows: Vec<&'a [f32]>,
    /// Class labels, one per row.
    pub labels: Vec<usize>,
    /// Number of passes over the batch.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub learning_rate: f32,
}

/// Runs a stack of retraining jobs through one shared arena.
///
/// Jobs execute back to back over `scratch`; each is bit-identical to
/// calling [`Mlp::train_rows_with`] for that network alone, since the arena
/// carries no numeric state between jobs. The frozen benchmark's layer sheet
/// is the only caller (see the [module docs](self)).
///
/// # Errors
///
/// Propagates the first failing job's error; earlier jobs in the stack have
/// already been applied, later ones have not run.
pub fn train_stacked(jobs: &mut [StackedJob<'_>], scratch: &mut TrainScratch) -> Result<()> {
    for job in jobs.iter_mut() {
        job.net.train_rows_with(
            &job.rows,
            &job.labels,
            job.epochs,
            job.batch_size,
            job.learning_rate,
            scratch,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MlpConfig, QuantMode};
    use dacapo_tensor::init;

    fn config(mode: QuantMode) -> MlpConfig {
        MlpConfig {
            input_dim: 10,
            hidden: vec![12, 8],
            num_classes: 4,
            inference_mode: mode,
            training_mode: mode,
            seed: 21,
        }
    }

    fn data(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let features = init::uniform(n, 10, -1.0, 1.0, seed).unwrap();
        let labels = (0..n).map(|i| i % 4).collect();
        (features, labels)
    }

    #[test]
    fn stacked_jobs_are_bit_identical_to_sequential_training() {
        for mode in [QuantMode::Fp32, QuantMode::Mx(dacapo_mx::MxPrecision::Mx9)] {
            let (features, labels) = data(24, 91);
            let (features2, labels2) = data(17, 92);
            let mut solo_a = Mlp::new(config(mode)).unwrap();
            let mut solo_b = Mlp::new(MlpConfig { seed: 22, ..config(mode) }).unwrap();
            let mut stacked_a = solo_a.clone();
            let mut stacked_b = solo_b.clone();

            solo_a.train(&features, &labels, 2, 8, 0.05).unwrap();
            solo_b.train(&features2, &labels2, 3, 8, 0.05).unwrap();

            let rows: Vec<&[f32]> = features.iter_rows().collect();
            let rows2: Vec<&[f32]> = features2.iter_rows().collect();
            let mut jobs = [
                StackedJob {
                    net: &mut stacked_a,
                    rows,
                    labels: labels.clone(),
                    epochs: 2,
                    batch_size: 8,
                    learning_rate: 0.05,
                },
                StackedJob {
                    net: &mut stacked_b,
                    rows: rows2,
                    labels: labels2.clone(),
                    epochs: 3,
                    batch_size: 8,
                    learning_rate: 0.05,
                },
            ];
            let mut scratch = TrainScratch::new();
            train_stacked(&mut jobs, &mut scratch).unwrap();

            assert_eq!(stacked_a, solo_a);
            assert_eq!(stacked_b, solo_b);
        }
    }

    #[test]
    fn shared_scratch_carries_no_state_between_jobs() {
        // Training an unrelated large job first must not perturb a later job.
        let mode = QuantMode::Mx(dacapo_mx::MxPrecision::Mx6);
        let (features, labels) = data(24, 93);
        let mut fresh = Mlp::new(config(mode)).unwrap();
        let mut reused = fresh.clone();

        let mut fresh_scratch = TrainScratch::new();
        let rows: Vec<&[f32]> = features.iter_rows().collect();
        fresh.train_rows_with(&rows, &labels, 2, 8, 0.05, &mut fresh_scratch).unwrap();

        let mut dirty_scratch = TrainScratch::new();
        let (other_features, other_labels) = data(40, 94);
        let mut other = Mlp::new(MlpConfig { seed: 77, ..config(mode) }).unwrap();
        let other_rows: Vec<&[f32]> = other_features.iter_rows().collect();
        other.train_rows_with(&other_rows, &other_labels, 1, 16, 0.1, &mut dirty_scratch).unwrap();
        reused.train_rows_with(&rows, &labels, 2, 8, 0.05, &mut dirty_scratch).unwrap();

        assert_eq!(reused, fresh);
    }

    #[test]
    fn capacity_bytes_is_a_high_water_mark() {
        let mut scratch = TrainScratch::new();
        assert!(scratch.capacity_bytes() <= 64, "a fresh arena holds two placeholders");
        let mut net = Mlp::new(config(QuantMode::Mx(dacapo_mx::MxPrecision::Mx9))).unwrap();
        let mut train = |n: usize, scratch: &mut TrainScratch| {
            let (features, labels) = data(n, 96);
            let rows: Vec<&[f32]> = features.iter_rows().collect();
            net.train_rows_with(&rows, &labels, 1, n, 0.05, scratch).unwrap();
            scratch.capacity_bytes()
        };
        let grown = train(24, &mut scratch);
        // At least the gathered batch and one activation per layer.
        assert!(grown >= 24 * (10 + 12 + 8 + 4) * std::mem::size_of::<f32>(), "{grown}");
        assert_eq!(train(24, &mut scratch), grown, "the same shapes again allocate nothing");
        assert_eq!(train(7, &mut scratch), grown, "smaller shapes fit inside");
        assert!(train(40, &mut scratch) > grown);
    }

    #[test]
    fn evaluate_rows_matches_allocating_evaluate() {
        for mode in [QuantMode::Fp32, QuantMode::Mx(dacapo_mx::MxPrecision::Mx6)] {
            let (features, labels) = data(15, 95);
            let net = Mlp::new(config(mode)).unwrap();
            let (reference_logits, _) = net.reference_forward(&features, mode);
            let reference = crate::loss::accuracy(&reference_logits, &labels).unwrap();
            let rows: Vec<&[f32]> = features.iter_rows().collect();
            let mut scratch = TrainScratch::new();
            let with_scratch = net.evaluate_rows_with(&rows, &labels, &mut scratch).unwrap();
            assert!(with_scratch.to_bits() == reference.to_bits());
            assert_eq!(net.forward(&features, mode).unwrap(), reference_logits);
            assert!(net.evaluate(&features, &labels).unwrap().to_bits() == reference.to_bits());
        }
    }
}
