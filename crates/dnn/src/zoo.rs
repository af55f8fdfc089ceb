//! The paper-model zoo: GEMM-level descriptions of the six DNNs evaluated in
//! the DaCapo paper (Table III).
//!
//! The continuous-learning *performance* results depend only on how much
//! compute each kernel needs, which is determined by the models' GEMM shapes.
//! This module reconstructs those shapes layer by layer — convolutions via
//! the im2col lowering, transformer blocks via their projection and attention
//! GEMMs — so that parameter counts and forward GFLOPs match Table III of the
//! paper, and so the accelerator simulator can tile real layer shapes.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A single GEMM of shape `M×K · K×N`, possibly repeated (e.g. once per
/// attention head).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GemmShape {
    /// Number of output rows (for conv layers: output pixels per image).
    pub m: usize,
    /// Reduction dimension.
    pub k: usize,
    /// Number of output columns (for conv layers: output channels).
    pub n: usize,
    /// How many times this GEMM runs per forward pass of one sample.
    pub repeat: usize,
}

impl GemmShape {
    /// Creates a GEMM shape that runs once per sample.
    #[must_use]
    pub const fn new(m: usize, k: usize, n: usize) -> Self {
        Self { m, k, n, repeat: 1 }
    }

    /// Multiply-accumulate operations for one execution of all repeats.
    #[must_use]
    pub const fn macs(&self) -> u64 {
        (self.m as u64) * (self.k as u64) * (self.n as u64) * (self.repeat as u64)
    }
}

/// One named layer of a model: its GEMM lowering and parameter count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerSpec {
    /// Human-readable layer name (e.g. `"layer2.0.conv1"`).
    pub name: String,
    /// The GEMM this layer lowers to (per sample).
    pub gemm: GemmShape,
    /// Trainable parameters contributed by this layer (weights + bias +
    /// normalisation parameters attributed to it).
    pub params: u64,
}

/// The six DNN models evaluated in the paper (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PaperModel {
    /// ResNet-18 student (11.7 M parameters, 1.82 GFLOPs).
    ResNet18,
    /// ResNet-34 student (21.8 M parameters, 3.67 GFLOPs).
    ResNet34,
    /// ViT-B/32 student (88.2 M parameters, 4.37 GFLOPs).
    ViTB32,
    /// WideResNet-50-2 teacher (68.9 M parameters, 11.43 GFLOPs).
    WideResNet50,
    /// ViT-B/16 teacher (86.6 M parameters, 16.87 GFLOPs).
    ViTB16,
    /// WideResNet-101-2 teacher (126.9 M parameters, 22.80 GFLOPs).
    WideResNet101,
}

impl PaperModel {
    /// All six models in Table III order.
    pub const ALL: [PaperModel; 6] = [
        PaperModel::ResNet18,
        PaperModel::ResNet34,
        PaperModel::ViTB32,
        PaperModel::WideResNet50,
        PaperModel::ViTB16,
        PaperModel::WideResNet101,
    ];

    /// Whether the paper uses this model as a lightweight student.
    #[must_use]
    pub const fn is_student(self) -> bool {
        matches!(self, PaperModel::ResNet18 | PaperModel::ResNet34 | PaperModel::ViTB32)
    }

    /// Parameter count reported in Table III, in millions.
    #[must_use]
    pub const fn table3_params_millions(self) -> f64 {
        match self {
            PaperModel::ResNet18 => 11.7,
            PaperModel::ResNet34 => 21.8,
            PaperModel::ViTB32 => 88.2,
            PaperModel::WideResNet50 => 68.9,
            PaperModel::ViTB16 => 86.6,
            PaperModel::WideResNet101 => 126.9,
        }
    }

    /// Forward GFLOPs (multiply-accumulate count, 224×224 input) reported in
    /// Table III.
    #[must_use]
    pub const fn table3_gflops(self) -> f64 {
        match self {
            PaperModel::ResNet18 => 1.82,
            PaperModel::ResNet34 => 3.67,
            PaperModel::ViTB32 => 4.37,
            PaperModel::WideResNet50 => 11.43,
            PaperModel::ViTB16 => 16.87,
            PaperModel::WideResNet101 => 22.80,
        }
    }

    /// Builds the layer-by-layer GEMM decomposition of this model.
    #[must_use]
    pub fn spec(self) -> ModelSpec {
        match self {
            PaperModel::ResNet18 => build_resnet(self, &[2, 2, 2, 2], BlockKind::Basic, 64),
            PaperModel::ResNet34 => build_resnet(self, &[3, 4, 6, 3], BlockKind::Basic, 64),
            PaperModel::WideResNet50 => {
                build_resnet(self, &[3, 4, 6, 3], BlockKind::Bottleneck, 128)
            }
            PaperModel::WideResNet101 => {
                build_resnet(self, &[3, 4, 23, 3], BlockKind::Bottleneck, 128)
            }
            PaperModel::ViTB32 => build_vit(self, 32),
            PaperModel::ViTB16 => build_vit(self, 16),
        }
    }
}

impl fmt::Display for PaperModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            PaperModel::ResNet18 => "ResNet18",
            PaperModel::ResNet34 => "ResNet34",
            PaperModel::ViTB32 => "ViT-B/32",
            PaperModel::WideResNet50 => "WideResNet50",
            PaperModel::ViTB16 => "ViT-B/16",
            PaperModel::WideResNet101 => "WideResNet101",
        };
        write!(f, "{name}")
    }
}

/// The (student, teacher) pairs evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelPair {
    /// ResNet18 student with WideResNet50 teacher.
    ResNet18Wrn50,
    /// ViT-B/32 student with ViT-B/16 teacher.
    VitB32VitB16,
    /// ResNet34 student with WideResNet101 teacher.
    ResNet34Wrn101,
}

impl ModelPair {
    /// All three evaluated pairs in the order Figure 9 presents them.
    pub const ALL: [ModelPair; 3] =
        [ModelPair::ResNet18Wrn50, ModelPair::VitB32VitB16, ModelPair::ResNet34Wrn101];

    /// The student model of the pair.
    #[must_use]
    pub const fn student(self) -> PaperModel {
        match self {
            ModelPair::ResNet18Wrn50 => PaperModel::ResNet18,
            ModelPair::VitB32VitB16 => PaperModel::ViTB32,
            ModelPair::ResNet34Wrn101 => PaperModel::ResNet34,
        }
    }

    /// The teacher model of the pair.
    #[must_use]
    pub const fn teacher(self) -> PaperModel {
        match self {
            ModelPair::ResNet18Wrn50 => PaperModel::WideResNet50,
            ModelPair::VitB32VitB16 => PaperModel::ViTB16,
            ModelPair::ResNet34Wrn101 => PaperModel::WideResNet101,
        }
    }
}

impl fmt::Display for ModelPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} & {}", self.student(), self.teacher())
    }
}

/// A complete GEMM-level model description.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelSpec {
    model: PaperModel,
    layers: Vec<LayerSpec>,
}

impl ModelSpec {
    /// Which paper model this spec describes.
    #[must_use]
    pub fn model(&self) -> PaperModel {
        self.model
    }

    /// The layer list in execution order.
    #[must_use]
    pub fn layers(&self) -> &[LayerSpec] {
        &self.layers
    }

    /// Total trainable parameters.
    #[must_use]
    pub fn params(&self) -> u64 {
        self.layers.iter().map(|l| l.params).sum()
    }

    /// Forward multiply-accumulate operations for one sample.
    #[must_use]
    pub fn forward_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.gemm.macs()).sum()
    }

    /// Forward GFLOPs (MAC count / 1e9), the convention Table III uses.
    #[must_use]
    pub fn forward_gflops(&self) -> f64 {
        self.forward_macs() as f64 / 1e9
    }

    /// Training multiply-accumulate operations for one sample.
    ///
    /// A training step runs the forward pass plus two GEMMs of the same shape
    /// per layer in the backward pass (input gradients and weight gradients),
    /// so the standard 3× forward approximation is used.
    #[must_use]
    pub fn training_macs(&self) -> u64 {
        self.forward_macs() * 3
    }

    /// The GEMM workload of one forward pass at the given batch size.
    ///
    /// Convolution GEMMs grow their `M` dimension with the batch (more output
    /// pixels); transformer GEMMs likewise process `batch ×` more tokens.
    #[must_use]
    pub fn forward_gemms(&self, batch: usize) -> Vec<GemmShape> {
        self.layers.iter().map(|l| GemmShape { m: l.gemm.m * batch.max(1), ..l.gemm }).collect()
    }

    /// The GEMM workload of one training step (forward + backward) at the
    /// given batch size: for every forward GEMM `M×K·K×N`, the backward pass
    /// adds the input-gradient GEMM (`M×N·N×K`) and the weight-gradient GEMM
    /// (`K×M·M×N`).
    #[must_use]
    pub fn training_gemms(&self, batch: usize) -> Vec<GemmShape> {
        let mut gemms = Vec::with_capacity(self.layers.len() * 3);
        for l in &self.layers {
            let m = l.gemm.m * batch.max(1);
            let (k, n, repeat) = (l.gemm.k, l.gemm.n, l.gemm.repeat);
            gemms.push(GemmShape { m, k, n, repeat });
            gemms.push(GemmShape { m, k: n, n: k, repeat });
            gemms.push(GemmShape { m: k, k: m, n, repeat });
        }
        gemms
    }
}

enum BlockKind {
    Basic,
    Bottleneck,
}

struct ResNetBuilder {
    layers: Vec<LayerSpec>,
    /// Current spatial resolution (feature map is `size × size`).
    size: usize,
    channels: usize,
}

impl ResNetBuilder {
    fn conv(&mut self, name: &str, in_ch: usize, out_ch: usize, kernel: usize, stride: usize) {
        let out_size = self.size.div_ceil(stride);
        self.layers.push(LayerSpec {
            name: name.to_string(),
            gemm: GemmShape::new(out_size * out_size, in_ch * kernel * kernel, out_ch),
            // Convolution weights plus the batch-norm scale/shift that follows
            // every convolution in the torchvision reference implementations.
            params: (in_ch * kernel * kernel * out_ch + 2 * out_ch) as u64,
        });
        self.size = out_size;
        self.channels = out_ch;
    }
}

/// Builds ResNet-18/34 (basic blocks) or WideResNet-50-2/101-2 (bottleneck
/// blocks with doubled inner width) for a 224×224 input.
fn build_resnet(
    model: PaperModel,
    blocks: &[usize; 4],
    kind: BlockKind,
    base_width: usize,
) -> ModelSpec {
    let mut b = ResNetBuilder { layers: Vec::new(), size: 224, channels: 3 };
    b.conv("conv1", 3, 64, 7, 2);
    // 3×3 max pool, stride 2: spatial only, no GEMM, no params.
    b.size = b.size.div_ceil(2);

    let stage_planes = [64usize, 128, 256, 512];
    let expansion = match kind {
        BlockKind::Basic => 1,
        BlockKind::Bottleneck => 4,
    };

    for (stage, (&planes, &num_blocks)) in stage_planes.iter().zip(blocks.iter()).enumerate() {
        for block in 0..num_blocks {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            let in_ch = b.channels;
            let out_ch = planes * expansion;
            let prefix = format!("layer{}.{}", stage + 1, block);
            match kind {
                BlockKind::Basic => {
                    b.conv(&format!("{prefix}.conv1"), in_ch, planes, 3, stride);
                    b.conv(&format!("{prefix}.conv2"), planes, planes, 3, 1);
                }
                BlockKind::Bottleneck => {
                    let width = planes * base_width / 64;
                    b.conv(&format!("{prefix}.conv1"), in_ch, width, 1, 1);
                    b.conv(&format!("{prefix}.conv2"), width, width, 3, stride);
                    b.conv(&format!("{prefix}.conv3"), width, out_ch, 1, 1);
                }
            }
            if block == 0 && (stride != 1 || in_ch != out_ch) {
                // Downsample shortcut: 1×1 convolution on the block input.
                let out_size = b.size;
                b.layers.push(LayerSpec {
                    name: format!("{prefix}.downsample"),
                    gemm: GemmShape::new(out_size * out_size, in_ch, out_ch),
                    params: (in_ch * out_ch + 2 * out_ch) as u64,
                });
                b.channels = out_ch;
            }
        }
    }

    // Global average pool, then the classification head.
    let fc_in = b.channels;
    b.layers.push(LayerSpec {
        name: "fc".to_string(),
        gemm: GemmShape::new(1, fc_in, 1000),
        params: (fc_in * 1000 + 1000) as u64,
    });

    ModelSpec { model, layers: b.layers }
}

/// Builds ViT-B/32 or ViT-B/16 for a 224×224 input.
fn build_vit(model: PaperModel, patch: usize) -> ModelSpec {
    let dim = 768usize;
    let mlp_dim = 3072usize;
    let heads = 12usize;
    let depth = 12usize;
    let head_dim = dim / heads;
    let grid = 224 / patch;
    let tokens = grid * grid + 1; // patches + class token

    let mut layers = Vec::new();
    // Patch embedding convolution (stride = kernel = patch size).
    layers.push(LayerSpec {
        name: "patch_embed".to_string(),
        gemm: GemmShape::new(grid * grid, 3 * patch * patch, dim),
        params: (3 * patch * patch * dim + dim) as u64,
    });
    // Class token and positional embedding (parameters only, no GEMM).
    layers.push(LayerSpec {
        name: "pos_embed".to_string(),
        gemm: GemmShape { m: 0, k: 0, n: 0, repeat: 0 },
        params: (tokens * dim + dim) as u64,
    });

    for block in 0..depth {
        let prefix = format!("encoder.{block}");
        // Pre-attention layer norm (params only).
        layers.push(LayerSpec {
            name: format!("{prefix}.ln1"),
            gemm: GemmShape { m: 0, k: 0, n: 0, repeat: 0 },
            params: (2 * dim) as u64,
        });
        layers.push(LayerSpec {
            name: format!("{prefix}.attn.qkv"),
            gemm: GemmShape::new(tokens, dim, 3 * dim),
            params: (dim * 3 * dim + 3 * dim) as u64,
        });
        layers.push(LayerSpec {
            name: format!("{prefix}.attn.scores"),
            gemm: GemmShape { m: tokens, k: head_dim, n: tokens, repeat: heads },
            params: 0,
        });
        layers.push(LayerSpec {
            name: format!("{prefix}.attn.context"),
            gemm: GemmShape { m: tokens, k: tokens, n: head_dim, repeat: heads },
            params: 0,
        });
        layers.push(LayerSpec {
            name: format!("{prefix}.attn.proj"),
            gemm: GemmShape::new(tokens, dim, dim),
            params: (dim * dim + dim) as u64,
        });
        layers.push(LayerSpec {
            name: format!("{prefix}.ln2"),
            gemm: GemmShape { m: 0, k: 0, n: 0, repeat: 0 },
            params: (2 * dim) as u64,
        });
        layers.push(LayerSpec {
            name: format!("{prefix}.mlp.fc1"),
            gemm: GemmShape::new(tokens, dim, mlp_dim),
            params: (dim * mlp_dim + mlp_dim) as u64,
        });
        layers.push(LayerSpec {
            name: format!("{prefix}.mlp.fc2"),
            gemm: GemmShape::new(tokens, mlp_dim, dim),
            params: (mlp_dim * dim + dim) as u64,
        });
    }

    // Final layer norm and classification head.
    layers.push(LayerSpec {
        name: "ln_final".to_string(),
        gemm: GemmShape { m: 0, k: 0, n: 0, repeat: 0 },
        params: (2 * dim) as u64,
    });
    layers.push(LayerSpec {
        name: "head".to_string(),
        gemm: GemmShape::new(1, dim, 1000),
        params: (dim * 1000 + 1000) as u64,
    });

    ModelSpec { model, layers }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameters_match_table3_within_two_percent() {
        for model in PaperModel::ALL {
            let spec = model.spec();
            let measured = spec.params() as f64 / 1e6;
            let reference = model.table3_params_millions();
            let rel = (measured - reference).abs() / reference;
            assert!(
                rel < 0.02,
                "{model}: measured {measured:.2}M vs Table III {reference}M ({:.1}% off)",
                rel * 100.0
            );
        }
    }

    #[test]
    fn gflops_match_table3_within_six_percent() {
        // Table III counts only projection/convolution GEMMs for the ViTs
        // (the attention score/context matmuls are excluded by the profiler
        // the authors used), so our slightly larger totals are expected.
        for model in PaperModel::ALL {
            let spec = model.spec();
            let measured = spec.forward_gflops();
            let reference = model.table3_gflops();
            let rel = (measured - reference).abs() / reference;
            assert!(
                rel < 0.06,
                "{model}: measured {measured:.2} GFLOPs vs Table III {reference} ({:.1}% off)",
                rel * 100.0
            );
        }
    }

    #[test]
    fn teachers_are_heavier_than_their_students() {
        // Note: heavier in compute, not necessarily in parameters — Table III
        // itself lists ViT-B/32 (student, 88.2M) above ViT-B/16 (teacher,
        // 86.6M) because the larger patch embedding adds parameters while
        // processing 4x fewer tokens.
        for pair in ModelPair::ALL {
            let student = pair.student().spec();
            let teacher = pair.teacher().spec();
            assert!(teacher.forward_macs() > student.forward_macs(), "{pair}");
        }
    }

    #[test]
    fn training_is_three_times_forward() {
        let spec = PaperModel::ResNet18.spec();
        assert_eq!(spec.training_macs(), 3 * spec.forward_macs());
    }

    #[test]
    fn training_gemm_macs_equal_training_macs() {
        let spec = PaperModel::ResNet34.spec();
        let total: u64 = spec.training_gemms(1).iter().map(GemmShape::macs).sum();
        assert_eq!(total, spec.training_macs());
    }

    #[test]
    fn batched_forward_scales_linearly() {
        let spec = PaperModel::ViTB32.spec();
        let single: u64 = spec.forward_gemms(1).iter().map(GemmShape::macs).sum();
        let batched: u64 = spec.forward_gemms(16).iter().map(GemmShape::macs).sum();
        assert_eq!(batched, 16 * single);
    }

    #[test]
    fn student_teacher_classification_is_correct() {
        assert!(PaperModel::ResNet18.is_student());
        assert!(PaperModel::ViTB32.is_student());
        assert!(!PaperModel::WideResNet101.is_student());
        assert!(!PaperModel::ViTB16.is_student());
        assert!(!PaperModel::WideResNet50.is_student());
    }

    #[test]
    fn pairs_map_to_expected_models() {
        assert_eq!(ModelPair::ResNet18Wrn50.student(), PaperModel::ResNet18);
        assert_eq!(ModelPair::ResNet18Wrn50.teacher(), PaperModel::WideResNet50);
        assert_eq!(ModelPair::VitB32VitB16.teacher(), PaperModel::ViTB16);
        assert_eq!(ModelPair::ResNet34Wrn101.student(), PaperModel::ResNet34);
    }

    #[test]
    fn resnet18_has_expected_structure() {
        let spec = PaperModel::ResNet18.spec();
        // conv1 + 8 basic blocks * 2 convs + 3 downsamples + fc = 21 layers.
        assert_eq!(spec.layers().len(), 21);
        assert_eq!(spec.layers()[0].name, "conv1");
        assert_eq!(spec.layers().last().unwrap().name, "fc");
        // First conv lowers to a 12544 x 147 x 64 GEMM.
        assert_eq!(spec.layers()[0].gemm, GemmShape::new(112 * 112, 147, 64));
    }

    #[test]
    fn vit_token_counts_follow_patch_size() {
        let b32 = PaperModel::ViTB32.spec();
        let b16 = PaperModel::ViTB16.spec();
        let qkv32 = b32.layers().iter().find(|l| l.name.ends_with("attn.qkv")).unwrap();
        let qkv16 = b16.layers().iter().find(|l| l.name.ends_with("attn.qkv")).unwrap();
        assert_eq!(qkv32.gemm.m, 50);
        assert_eq!(qkv16.gemm.m, 197);
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(PaperModel::ViTB16.to_string(), "ViT-B/16");
        assert_eq!(ModelPair::ResNet18Wrn50.to_string(), "ResNet18 & WideResNet50");
    }
}
