//! Deterministic per-frame sample generation.

use crate::attributes::SegmentAttributes;
use crate::classes::{class_prior, NUM_CLASSES};
use crate::error::DatagenError;
use crate::noise;
use crate::scenario::Scenario;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the synthetic frame stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamConfig {
    /// Frame rate in frames per second (the paper's scenarios run at 30).
    pub fps: f64,
    /// Dimensionality of the per-object feature vector.
    pub feature_dim: usize,
    /// Standard deviation of the per-sample Gaussian noise.
    pub noise_std: f32,
    /// Magnitude of the attribute-conditioned shift of each class centre.
    /// Larger values make data drift hit the student harder.
    pub attribute_shift: f32,
    /// Base RNG seed; the whole stream is a pure function of (seed, frame).
    pub seed: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self { fps: 30.0, feature_dim: 16, noise_std: 0.45, attribute_shift: 1.0, seed: 2024 }
    }
}

impl StreamConfig {
    /// Validates the configuration: a caller-facing, typed alternative to
    /// the assertions in [`FrameStream::new`]. [`SimConfig`][simconfig]
    /// validation routes through this, so a bad stream configuration
    /// surfaces as an error at session construction instead of a panic at
    /// frame-generation time.
    ///
    /// [simconfig]: https://docs.rs/dacapo-core
    ///
    /// # Errors
    ///
    /// Returns [`DatagenError::InvalidStreamConfig`] when the frame rate is
    /// non-positive or non-finite, the feature dimension is zero, or the
    /// noise/shift magnitudes are negative or non-finite.
    pub fn validate(&self) -> Result<(), DatagenError> {
        if !self.fps.is_finite() || self.fps <= 0.0 {
            return Err(DatagenError::InvalidStreamConfig {
                reason: format!("frame rate must be positive and finite, got {}", self.fps),
            });
        }
        if self.feature_dim == 0 {
            return Err(DatagenError::InvalidStreamConfig {
                reason: "feature dimension must be positive".into(),
            });
        }
        if !self.noise_std.is_finite() || self.noise_std < 0.0 {
            return Err(DatagenError::InvalidStreamConfig {
                reason: format!(
                    "noise std must be non-negative and finite, got {}",
                    self.noise_std
                ),
            });
        }
        if !self.attribute_shift.is_finite() || self.attribute_shift < 0.0 {
            return Err(DatagenError::InvalidStreamConfig {
                reason: format!(
                    "attribute shift must be non-negative and finite, got {}",
                    self.attribute_shift
                ),
            });
        }
        Ok(())
    }
}

/// One labeled object crop: the feature vector the student classifies and its
/// ground-truth class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Feature vector of length [`StreamConfig::feature_dim`].
    pub features: Vec<f32>,
    /// Ground-truth class index in `0..NUM_CLASSES`.
    pub true_class: usize,
}

/// One frame of the stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Frame {
    /// Frame index from the start of the scenario.
    pub index: u64,
    /// Timestamp in seconds from the start of the scenario.
    pub timestamp_s: f64,
    /// Attributes of the segment this frame belongs to.
    pub attributes: SegmentAttributes,
    /// The object sample to classify.
    pub sample: Sample,
}

/// A deterministic, randomly-accessible stream of frames for one scenario.
///
/// Every frame is a pure function of `(config.seed, frame index)`, so
/// schedulers that process frames out of order (or repeatedly, like
/// validation) observe a consistent world.
///
/// # Examples
///
/// ```
/// use dacapo_datagen::{FrameStream, Scenario, StreamConfig};
///
/// let stream = FrameStream::new(&Scenario::s1(), StreamConfig::default());
/// assert_eq!(stream.num_frames(), 36_000); // 20 min at 30 FPS
/// let f = stream.frame_at(1234);
/// assert_eq!(f.index, 1234);
/// assert!(f.sample.true_class < dacapo_datagen::NUM_CLASSES);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameStream {
    scenario: Scenario,
    config: StreamConfig,
}

impl FrameStream {
    /// Creates a stream for the given scenario.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid ([`StreamConfig::validate`]
    /// is the typed alternative; the core `SimConfig` validation calls it
    /// before any stream is built).
    #[must_use]
    #[expect(
        clippy::panic,
        reason = "documented constructor contract; core callers get the typed error from \
                  StreamConfig::validate first"
    )]
    pub fn new(scenario: &Scenario, config: StreamConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        Self { scenario: scenario.clone(), config }
    }

    /// The stream configuration.
    #[must_use]
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// The scenario this stream renders.
    #[must_use]
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Total number of frames in the scenario.
    #[must_use]
    pub fn num_frames(&self) -> u64 {
        (self.scenario.duration_s() * self.config.fps).round() as u64
    }

    /// The context-dependent remapping of class appearances.
    ///
    /// Lightweight students have limited capacity: what makes continuous
    /// learning necessary is that the *appearance* of classes changes with
    /// the context (night-time cars look like daytime trucks, highway signage
    /// differs from city signage, …), so a model specialised to the previous
    /// context actively mis-classifies the new one. We model that by letting
    /// each context remap a seeded subset of class identities onto other
    /// classes' base appearance vectors; a model can fit any single context
    /// well, but fitting the union of conflicting contexts is beyond it —
    /// exactly the "data drift" premise of the paper.
    fn context_permutation(&self, attributes: &SegmentAttributes) -> [usize; NUM_CLASSES] {
        let mut permutation: [usize; NUM_CLASSES] = std::array::from_fn(|class| class);
        let mut rng = StdRng::seed_from_u64(
            self.config
                .seed
                .wrapping_add(0x517c_c1b7_2722_0a95)
                .wrapping_mul(attributes.context_id() + 1),
        );
        // Swap a handful of class pairs per context (scaled by the configured
        // attribute shift): with the default of 1.0, three swaps remap roughly
        // six of the ten classes, so a model specialised to one context
        // mis-classifies a large fraction of the next one.
        let swaps = (3.0 * f64::from(self.config.attribute_shift)).round().max(0.0) as usize;
        for _ in 0..swaps {
            let a = rng.gen_range(0..NUM_CLASSES);
            let b = rng.gen_range(0..NUM_CLASSES);
            permutation.swap(a, b);
        }
        permutation
    }

    /// The class centre for a (class, attribute) combination.
    ///
    /// The centre combines the base appearance of the (context-remapped)
    /// class identity with a smaller context-specific offset; when a
    /// segment's attributes change, both move and previously learned decision
    /// boundaries go stale — the data-drift mechanism.
    #[must_use]
    pub fn class_center(&self, class: usize, attributes: &SegmentAttributes) -> Vec<f32> {
        assert!(class < NUM_CLASSES, "class {class} out of range");
        let appearance = self.context_permutation(attributes)[class];
        let mut center = vec![0.0f32; self.config.feature_dim];
        let mut class_rng = StdRng::seed_from_u64(
            self.config.seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(appearance as u64 + 1),
        );
        let mut context_rng = StdRng::seed_from_u64(
            self.config
                .seed
                .wrapping_add(0x517c_c1b7_2722_0a95)
                .wrapping_mul(attributes.context_id() + 1)
                .wrapping_add(class as u64 * 7919),
        );
        for value in &mut center {
            let class_part: f32 = class_rng.gen_range(-1.0..1.0);
            let context_part: f32 = context_rng.gen_range(-1.0..1.0);
            *value = class_part + 0.4 * self.config.attribute_shift * context_part;
        }
        center
    }

    /// The class whose share of the unit interval, laid out in `prior`'s
    /// order, holds the frame RNG's uniform `draw`.
    fn class_at(prior: &[f64; NUM_CLASSES], mut draw: f64) -> usize {
        for (class, p) in prior.iter().enumerate() {
            if draw < *p {
                return class;
            }
            draw -= p;
        }
        NUM_CLASSES - 1
    }

    /// The RNG that drives a single frame's class and noise draws.
    fn frame_rng(&self, index: u64) -> StdRng {
        StdRng::seed_from_u64(self.config.seed.wrapping_mul(0x100_0000_01b3).wrapping_add(index))
    }

    /// The one frame body: the frame RNG's first draw picks the class,
    /// `context` turns it into that class and its centre — from a prior and
    /// a centre derived fresh, or both replayed from a cache — and the same
    /// RNG draws the noise around the centre ([`noise::around`]). Prior and
    /// centres are functions of the attributes alone, seeded independently of
    /// the frame RNG, so where they come from cannot change a draw.
    fn frame_with<C: AsRef<[f32]>>(
        &self,
        index: u64,
        context: impl FnOnce(&SegmentAttributes, f64) -> (usize, C),
    ) -> Frame {
        let timestamp_s = index as f64 / self.config.fps;
        let attributes = self.scenario.attributes_at(timestamp_s);
        let mut rng = self.frame_rng(index);
        let (true_class, center) = context(&attributes, rng.gen_range(0.0..1.0));
        let features = noise::around(center.as_ref(), self.config.noise_std, &mut rng);
        Frame { index, timestamp_s, attributes, sample: Sample { features, true_class } }
    }

    /// Generates the frame at `index` (clamped semantics are not provided:
    /// indices past the end still generate deterministic frames using the
    /// last segment's attributes), deriving its class prior and its one
    /// class centre fresh.
    #[must_use]
    pub fn frame_at(&self, index: u64) -> Frame {
        self.frame_with(index, |attributes, draw| {
            let class = Self::class_at(&class_prior(attributes), draw);
            (class, self.class_center(class, attributes))
        })
    }

    /// [`Self::frame_at`] with the class prior and the class centres served
    /// by `cache` — bit-identical output, an order of magnitude less RNG
    /// work on hits.
    #[must_use]
    pub fn frame_at_cached(&self, index: u64, cache: &mut CenterCache) -> Frame {
        self.frame_with(index, |attributes, draw| {
            let (prior, centers) = cache.context(self, attributes);
            let class = Self::class_at(prior, draw);
            (class, &centers[class])
        })
    }

    /// Iterator over all frames of the scenario in order.
    pub fn iter(&self) -> impl Iterator<Item = Frame> + '_ {
        (0..self.num_frames()).map(|i| self.frame_at(i))
    }

    /// Collects every `step`-th frame of the half-open time range
    /// `[start_s, end_s)` — the sampling primitive used by the labeling
    /// kernel: [`Self::frames_between_cached`] with a fresh cache.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero or the range is inverted.
    #[must_use]
    pub fn frames_between(&self, start_s: f64, end_s: f64, step: u64) -> Vec<Frame> {
        self.frames_between_cached(start_s, end_s, step, &mut CenterCache::new())
    }

    /// Collects every `step`-th frame of the half-open time range
    /// `[start_s, end_s)`, with centre lookups served by `cache` (see
    /// [`Self::frame_at_cached`]).
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero or the range is inverted.
    #[must_use]
    pub fn frames_between_cached(
        &self,
        start_s: f64,
        end_s: f64,
        step: u64,
        cache: &mut CenterCache,
    ) -> Vec<Frame> {
        assert!(end_s >= start_s, "time range is inverted");
        self.cursor_at(start_s).frames_until_cached(self, end_s, step, cache)
    }

    /// A resumable cursor at the start of the stream. Frames are a pure
    /// function of the index, so a cursor is just a serialisable position —
    /// checkpoint it, restore it later (even in another process), and the
    /// stream resumes exactly where it left off.
    #[must_use]
    pub fn cursor(&self) -> StreamCursor {
        StreamCursor { next_index: 0 }
    }

    /// A resumable cursor positioned at the first frame at or after
    /// `start_s` (clamped to the end of the stream).
    #[must_use]
    pub fn cursor_at(&self, start_s: f64) -> StreamCursor {
        let index = (start_s.max(0.0) * self.config.fps).ceil() as u64;
        StreamCursor { next_index: index.min(self.num_frames()) }
    }
}

/// A memo table of what a frame needs from its segment's context: the
/// [`class_prior`] and every class's [`FrameStream::class_center`].
///
/// Deriving a class centre seeds three `StdRng`s and draws
/// `2 × feature_dim` uniforms — per frame, that is an order of magnitude
/// more RNG work than the frame's own class-and-noise draws — and the prior
/// is ten `f64` divides. But both are *pure functions* of the stream config
/// and the segment's context id (and, for a centre, the class), and
/// scenarios only have a handful of contexts, so a run re-derives the same
/// few values tens of thousands of times. This cache memoises them. Every
/// range method generates through it — the forms without a `_cached` suffix
/// bring a fresh one — and only [`FrameStream::frame_at`] derives its prior
/// and its single centre directly; the two agree bit for bit because neither
/// depends on the per-frame RNG.
///
/// The cache remembers which stream configuration filled it and resets
/// itself when handed a stream with a different one, so a stale or shared
/// cache can never leak centres across streams. It is pure derived state:
/// sessions hold one as a scratch field, excluded from snapshots.
///
/// # Examples
///
/// ```
/// use dacapo_datagen::{CenterCache, FrameStream, Scenario, StreamConfig};
///
/// let stream = FrameStream::new(&Scenario::s1(), StreamConfig::default());
/// let mut cache = CenterCache::new();
/// let cached = stream.frame_at_cached(1234, &mut cache);
/// assert_eq!(cached, stream.frame_at(1234)); // bit-identical
/// ```
#[derive(Debug, Clone, Default)]
pub struct CenterCache {
    /// The configuration the cached centres were derived under; a mismatch
    /// invalidates everything.
    config: Option<StreamConfig>,
    /// `(context id, class prior, per-class centres)` — scenarios have a
    /// handful of contexts, so a linear scan beats hashing.
    contexts: Vec<(u64, [f64; NUM_CLASSES], Vec<Vec<f32>>)>,
}

impl CenterCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct contexts currently cached.
    #[must_use]
    pub fn contexts_cached(&self) -> usize {
        self.contexts.len()
    }

    /// The cached class prior and per-class centres for `attributes` under
    /// `stream`'s configuration, deriving and storing them on first sight of
    /// the context.
    fn context(
        &mut self,
        stream: &FrameStream,
        attributes: &SegmentAttributes,
    ) -> (&[f64; NUM_CLASSES], &[Vec<f32>]) {
        if self.config != Some(stream.config) {
            self.contexts.clear();
            self.config = Some(stream.config);
        }
        let context = attributes.context_id();
        let slot = match self.contexts.iter().position(|(id, ..)| *id == context) {
            Some(found) => found,
            None => {
                let centers =
                    (0..NUM_CLASSES).map(|c| stream.class_center(c, attributes)).collect();
                self.contexts.push((context, class_prior(attributes), centers));
                self.contexts.len() - 1
            }
        };
        let (_, prior, centers) = &self.contexts[slot];
        (prior, centers)
    }
}

/// A serialisable read position into a [`FrameStream`] — the stream's
/// resumable cursor.
///
/// The cursor holds no generator state (frames are pure functions of the
/// index), so checkpointing a stream is just checkpointing this position:
/// iterating a restored cursor yields exactly the frames the original would
/// have produced next.
///
/// # Examples
///
/// ```
/// use dacapo_datagen::{FrameStream, Scenario, StreamConfig};
///
/// let stream = FrameStream::new(&Scenario::s1(), StreamConfig::default());
/// let mut cursor = stream.cursor();
/// let first = cursor.next(&stream).unwrap();
/// assert_eq!(first.index, 0);
/// let snapshot = cursor; // Copy: this is the whole checkpoint
/// let mut resumed = snapshot;
/// assert_eq!(cursor.next(&stream), resumed.next(&stream));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamCursor {
    next_index: u64,
}

impl StreamCursor {
    /// The index of the next frame this cursor will yield.
    #[must_use]
    pub fn position(&self) -> u64 {
        self.next_index
    }

    /// Whether the cursor has consumed every frame of `stream`.
    #[must_use]
    pub fn is_exhausted(&self, stream: &FrameStream) -> bool {
        self.next_index >= stream.num_frames()
    }

    /// Yields the next frame and advances, or `None` once the stream's end
    /// is reached.
    pub fn next(&mut self, stream: &FrameStream) -> Option<Frame> {
        if self.is_exhausted(stream) {
            return None;
        }
        let frame = stream.frame_at(self.next_index);
        self.next_index += 1;
        Some(frame)
    }

    /// Moves the cursor forward to the first frame at or after `time_s`.
    /// Seeking backwards is a no-op: a cursor models consumption, and
    /// consumed frames stay consumed.
    pub fn seek_time(&mut self, stream: &FrameStream, time_s: f64) {
        let target = stream.cursor_at(time_s);
        self.next_index = self.next_index.max(target.next_index);
    }

    /// Consumes every `step`-th frame from the current position up to (but
    /// excluding) `end_s`, advancing the cursor to the range's end:
    /// [`Self::frames_until_cached`] with a fresh cache.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero.
    #[must_use]
    pub fn frames_until(&mut self, stream: &FrameStream, end_s: f64, step: u64) -> Vec<Frame> {
        self.frames_until_cached(stream, end_s, step, &mut CenterCache::new())
    }

    /// Consumes every `step`-th frame from the current position up to (but
    /// excluding) `end_s`, clamped to the stream's end, advancing the cursor
    /// to the range's end — the one range computation, which
    /// [`FrameStream::frames_between_cached`] runs from a cursor at its start
    /// time. Centre lookups are served by `cache` (see
    /// [`FrameStream::frame_at_cached`]).
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero.
    #[must_use]
    pub fn frames_until_cached(
        &mut self,
        stream: &FrameStream,
        end_s: f64,
        step: u64,
        cache: &mut CenterCache,
    ) -> Vec<Frame> {
        assert!(step > 0, "step must be positive");
        let last = ((end_s * stream.config.fps).ceil() as u64).min(stream.num_frames());
        if last <= self.next_index {
            return Vec::new();
        }
        let collected = (self.next_index..last)
            .step_by(step as usize)
            .map(|i| stream.frame_at_cached(i, cache))
            .collect();
        self.next_index = last;
        collected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scenario;

    fn stream() -> FrameStream {
        FrameStream::new(&Scenario::s1(), StreamConfig::default())
    }

    #[test]
    fn twenty_minutes_at_30fps_is_36000_frames() {
        assert_eq!(stream().num_frames(), 36_000);
    }

    #[test]
    fn frames_are_deterministic() {
        let s = stream();
        let a = s.frame_at(777);
        let b = s.frame_at(777);
        assert_eq!(a, b);
        let other_seed = FrameStream::new(
            &Scenario::s1(),
            StreamConfig { seed: 999, ..StreamConfig::default() },
        );
        assert_ne!(a.sample, other_seed.frame_at(777).sample);
    }

    #[test]
    fn classes_and_features_are_well_formed() {
        let s = stream();
        for i in (0..36_000).step_by(997) {
            let f = s.frame_at(i);
            assert!(f.sample.true_class < NUM_CLASSES);
            assert_eq!(f.sample.features.len(), 16);
            assert!(f.sample.features.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn class_frequencies_follow_the_segment_prior() {
        let s = stream();
        // First segment of S1 is traffic-only: pedestrians/bicycles never occur.
        let counts = (0..1800u64).map(|i| s.frame_at(i).sample.true_class).fold(
            vec![0usize; NUM_CLASSES],
            |mut acc, c| {
                acc[c] += 1;
                acc
            },
        );
        assert_eq!(counts[crate::ObjectClass::Pedestrian.index()], 0);
        assert!(counts[crate::ObjectClass::Car.index()] > 600, "cars should dominate");
    }

    #[test]
    fn attribute_change_moves_class_centers() {
        let s = FrameStream::new(&Scenario::es1(), StreamConfig::default());
        let day = s.scenario().segments()[0].attributes;
        let drifted = s
            .scenario()
            .segments()
            .iter()
            .find(|seg| seg.attributes != day)
            .expect("ES1 drifts")
            .attributes;
        for class in 0..NUM_CLASSES {
            let a = s.class_center(class, &day);
            let b = s.class_center(class, &drifted);
            let dist: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).powi(2)).sum::<f32>().sqrt();
            assert!(dist > 0.5, "class {class} centre barely moved ({dist})");
        }
    }

    #[test]
    fn different_classes_have_distinct_centers() {
        let s = stream();
        let attrs = SegmentAttributes::default();
        for a in 0..NUM_CLASSES {
            for b in (a + 1)..NUM_CLASSES {
                let ca = s.class_center(a, &attrs);
                let cb = s.class_center(b, &attrs);
                let dist: f32 =
                    ca.iter().zip(&cb).map(|(x, y)| (x - y).powi(2)).sum::<f32>().sqrt();
                assert!(dist > 0.5, "classes {a} and {b} nearly collide ({dist})");
            }
        }
    }

    #[test]
    fn frames_between_respects_step_and_bounds() {
        let s = stream();
        let sampled = s.frames_between(0.0, 10.0, 10);
        assert_eq!(sampled.len(), 30); // 300 frames / step 10
        assert!(sampled.iter().all(|f| f.timestamp_s < 10.0));
        let all = s.frames_between(0.0, 1.0, 1);
        assert_eq!(all.len(), 30);
    }

    #[test]
    fn iterator_yields_every_frame_in_order() {
        let short = Scenario::try_from_segments(
            "tiny",
            vec![crate::Segment { attributes: SegmentAttributes::default(), duration_s: 2.0 }],
        )
        .expect("segments are non-empty with positive durations");
        let s = FrameStream::new(&short, StreamConfig::default());
        let frames: Vec<Frame> = s.iter().collect();
        assert_eq!(frames.len(), 60);
        assert!(frames.windows(2).all(|w| w[1].index == w[0].index + 1));
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn zero_step_panics() {
        let _ = stream().frames_between(0.0, 1.0, 0);
    }

    #[test]
    fn cached_generation_is_bit_identical_to_uncached() {
        // Spans several segments (context changes) of a drifting scenario, so
        // the cache sees hits, misses, and context switches.
        let s = FrameStream::new(&Scenario::es1(), StreamConfig::default());
        let mut cache = CenterCache::new();
        for i in (0..s.num_frames()).step_by(311) {
            assert_eq!(s.frame_at_cached(i, &mut cache), s.frame_at(i), "frame {i}");
        }
        assert!(cache.contexts_cached() >= 2, "ES1 drifts across contexts");

        // 30 fps: [5 s, 65 s) is frames 150..1950, [30 s, 90 s) is 900..2700.
        let between: Vec<Frame> = (150..1950).step_by(7).map(|i| s.frame_at(i)).collect();
        assert_eq!(s.frames_between_cached(5.0, 65.0, 7, &mut cache), between);
        assert_eq!(s.frames_between(5.0, 65.0, 7), between);

        let until: Vec<Frame> = (900..2700).step_by(3).map(|i| s.frame_at(i)).collect();
        let mut plain = s.cursor_at(30.0);
        let mut cached = s.cursor_at(30.0);
        assert_eq!(cached.frames_until_cached(&s, 90.0, 3, &mut cache), until);
        assert_eq!(plain.frames_until(&s, 90.0, 3), until);
        assert_eq!(cached, plain);
        assert_eq!(cached.position(), 2700);
    }

    #[test]
    fn center_cache_resets_when_the_stream_config_changes() {
        let a = stream();
        let b = FrameStream::new(
            &Scenario::s1(),
            StreamConfig { seed: 999, ..StreamConfig::default() },
        );
        let mut cache = CenterCache::new();
        // Warm the cache on stream `a`, then reuse it on `b`: the config
        // mismatch must flush the stale centres, not serve them.
        let _ = a.frame_at_cached(0, &mut cache);
        assert_eq!(b.frame_at_cached(0, &mut cache), b.frame_at(0));
        assert_eq!(a.frame_at_cached(0, &mut cache), a.frame_at(0));
    }

    #[test]
    fn cursor_iteration_matches_direct_indexing() {
        let s = stream();
        let mut cursor = s.cursor();
        for i in 0..100 {
            assert_eq!(cursor.next(&s).unwrap(), s.frame_at(i));
        }
        assert_eq!(cursor.position(), 100);
    }

    #[test]
    fn cursor_exhausts_at_stream_end() {
        let short = Scenario::try_from_segments(
            "tiny",
            vec![crate::Segment { attributes: SegmentAttributes::default(), duration_s: 1.0 }],
        )
        .expect("segments are non-empty with positive durations");
        let s = FrameStream::new(&short, StreamConfig::default());
        let mut cursor = s.cursor();
        let mut count = 0;
        while cursor.next(&s).is_some() {
            count += 1;
        }
        assert_eq!(count, 30);
        assert!(cursor.is_exhausted(&s));
        assert_eq!(cursor.next(&s), None, "exhausted cursors stay exhausted");
    }

    #[test]
    fn restored_cursor_resumes_the_exact_frame_sequence() {
        use serde::{Deserialize as _, Serialize as _};
        let s = stream();
        let mut cursor = s.cursor();
        for _ in 0..777 {
            let _ = cursor.next(&s);
        }
        let mut restored = StreamCursor::from_value(&cursor.to_value()).expect("round-trips");
        assert_eq!(restored, cursor);
        for _ in 0..100 {
            assert_eq!(restored.next(&s), cursor.next(&s));
        }
    }

    #[test]
    fn cursor_seek_is_forward_only_and_frames_until_matches_frames_between() {
        let s = stream();
        let mut cursor = s.cursor();
        cursor.seek_time(&s, 10.0);
        assert_eq!(cursor.position(), 300);
        cursor.seek_time(&s, 5.0);
        assert_eq!(cursor.position(), 300, "backward seeks are no-ops");

        let by_index: Vec<Frame> = (300..600).step_by(7).map(|i| s.frame_at(i)).collect();
        let via_cursor = cursor.frames_until(&s, 20.0, 7);
        assert_eq!(via_cursor, by_index);
        assert_eq!(s.frames_between(10.0, 20.0, 7), by_index);
        assert_eq!(cursor.position(), 600, "frames_until consumes the whole range");
        assert!(cursor.frames_until(&s, 15.0, 1).is_empty(), "past ranges yield nothing");

        // Clamped at the end of the stream.
        let mut tail = s.cursor_at(1199.9);
        let last = tail.frames_until(&s, 5000.0, 1);
        assert_eq!(last.len(), 3);
        assert!(tail.is_exhausted(&s));
        assert_eq!(s.cursor_at(99_999.0).position(), s.num_frames());
    }
}
