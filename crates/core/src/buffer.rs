//! The fixed-capacity labeled sample buffer and the columnar block labels
//! travel in.
//!
//! Labels are the scarce product of the system, so the path a label takes —
//! teacher → [`SampleBuffer`] → peers → retraining — never clones a sample
//! it will not keep. Both types here are structure-of-arrays: one flat `f32`
//! slab of `rows × dim` features beside parallel label / class / timestamp
//! columns. Admitting a sample is a few `copy_from_slice`s into those
//! columns, a draw is a list of row indices, and retraining reads feature
//! rows straight out of the slab. [`LabeledSample`] is the owned row record
//! that survives at the API and serde edges; [`SampleRef`] is its borrowed
//! counterpart.
//!
//! # Cost model
//!
//! | operation | cost |
//! |---|---|
//! | `push` / `admit_row` | one `dim`-float copy + three scalar stores, no allocation once the slab reached `capacity × dim` |
//! | `admit_grants`, grants short of `capacity` | one row copy per granted row |
//! | `admit_grants`, grants reaching `capacity` | one `Arc` clone; the tail's `capacity` row copies are paid once per barrier by the first buffer with that tail |
//! | `draw_indices` | one shuffled `Vec<usize>` of `len` indices, no sample copied |
//! | `gather` | one `&[f32]` and one label per drawn index |
//!
//! The slab grows on demand (never beyond `capacity × dim`), so a buffer
//! that stays small never pays for its capacity. A buffer over a shared
//! tail is full, and takes all of it on its first own row.
//!
//! # Shared tails
//!
//! A FIFO of capacity `C` fed a sequence `S` ends as the last `C` elements
//! of `old ++ S`, so when one barrier grants an importer at least `C` rows
//! its old rows are all evicted and what it holds is a function of the
//! grants alone. Importers granted the same rows (in a broadcast fleet,
//! every importer whose own export is not among the last `C` rows) would
//! hold byte-identical buffers, so the barrier builds that tail once, as a
//! [`SampleBlock`] behind an `Arc` ([`SharedTails`]), and each such buffer
//! becomes a view of it. The buffer's own later rows fill the physical slots
//! `[0, k)` in front of the shared `[k, C)`, oldest first, so nothing is
//! copied on first write; at `k == C` (or on `reset`) the base is dropped
//! and the buffer is a plain ring again. The first own row sizes that
//! prefix's slab for all `C` slots, as a full ring's is: grown by doubling,
//! what each buffer owned would follow how many rows happened to arrive
//! between two barriers, and a fleet's peak memory with it, seed by seed.
//! The contents are at every point exactly what the row-by-row FIFO would
//! hold, so serde, equality and draws cannot tell the states apart.

use crate::{CoreError, Result};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{de, DeError, Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// One sample that has been labeled by the teacher, as an owned record.
///
/// The buffer stores the teacher's label (what the system trains and
/// validates against) alongside the ground-truth class, which only the
/// evaluation harness may look at.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabeledSample {
    /// Feature vector of the object crop.
    pub features: Vec<f32>,
    /// Label assigned by the teacher model.
    pub teacher_label: usize,
    /// Ground-truth class (hidden from the system; used only for reporting).
    pub true_class: usize,
    /// Stream timestamp at which the sample was captured, in seconds.
    pub timestamp_s: f64,
}

impl LabeledSample {
    /// Borrows the record as a [`SampleRef`].
    #[must_use]
    pub fn view(&self) -> SampleRef<'_> {
        SampleRef {
            features: &self.features,
            teacher_label: self.teacher_label,
            true_class: self.true_class,
            timestamp_s: self.timestamp_s,
        }
    }
}

/// A borrowed labeled sample: one row of a [`SampleBuffer`] (or any other
/// columnar store), field for field what [`LabeledSample`] owns. Serialises
/// exactly like the owned record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleRef<'a> {
    /// Feature vector of the object crop.
    pub features: &'a [f32],
    /// Label assigned by the teacher model.
    pub teacher_label: usize,
    /// Ground-truth class (hidden from the system; used only for reporting).
    pub true_class: usize,
    /// Stream timestamp at which the sample was captured, in seconds.
    pub timestamp_s: f64,
}

impl SampleRef<'_> {
    /// Copies the row into an owned [`LabeledSample`].
    #[must_use]
    pub fn to_sample(&self) -> LabeledSample {
        LabeledSample {
            features: self.features.to_vec(),
            teacher_label: self.teacher_label,
            true_class: self.true_class,
            timestamp_s: self.timestamp_s,
        }
    }
}

impl Serialize for SampleRef<'_> {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("features".to_string(), self.features.to_value()),
            ("teacher_label".to_string(), self.teacher_label.to_value()),
            ("true_class".to_string(), self.true_class.to_value()),
            ("timestamp_s".to_string(), self.timestamp_s.to_value()),
        ])
    }
}

/// A columnar batch of labeled samples: the one batch type on the label
/// path (a session's recorded exports, a barrier's per-camera export
/// batches, and the storage behind [`SampleBuffer`]).
///
/// Every resident row has the same length, fixed by the first row pushed
/// into an empty block.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct SampleBlock {
    /// Row stride in `f32`s (meaningful while the block is non-empty).
    dim: usize,
    features: Vec<f32>,
    teacher_labels: Vec<usize>,
    true_classes: Vec<usize>,
    timestamps_s: Vec<f64>,
}

impl SampleBlock {
    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.teacher_labels.len()
    }

    /// Whether the block holds no rows.
    pub(crate) fn is_empty(&self) -> bool {
        self.teacher_labels.is_empty()
    }

    /// Whether a row of `dim` features fits beside the resident rows.
    fn accepts(&self, dim: usize) -> bool {
        self.is_empty() || self.dim == dim
    }

    /// Row `i` as a borrowed sample.
    pub(crate) fn get(&self, i: usize) -> SampleRef<'_> {
        SampleRef {
            features: &self.features[i * self.dim..(i + 1) * self.dim],
            teacher_label: self.teacher_labels[i],
            true_class: self.true_classes[i],
            timestamp_s: self.timestamps_s[i],
        }
    }

    /// Every row, in order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = SampleRef<'_>> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row's length differs from the resident rows' — blocks
    /// are filled by one session from one stream, so a mismatch is a bug.
    pub(crate) fn push(&mut self, row: SampleRef<'_>) {
        assert!(self.accepts(row.features.len()), "sample block rows must share one length");
        self.dim = row.features.len();
        self.features.extend_from_slice(row.features);
        self.teacher_labels.push(row.teacher_label);
        self.true_classes.push(row.true_class);
        self.timestamps_s.push(row.timestamp_s);
    }

    /// Appends `rows` of `src` (same stride, checked by the caller).
    fn extend_from_rows(&mut self, src: &SampleBlock, rows: Range<usize>) {
        debug_assert!(self.accepts(src.dim));
        self.dim = src.dim;
        self.features.extend_from_slice(&src.features[rows.start * src.dim..rows.end * src.dim]);
        self.teacher_labels.extend_from_slice(&src.teacher_labels[rows.clone()]);
        self.true_classes.extend_from_slice(&src.true_classes[rows.clone()]);
        self.timestamps_s.extend_from_slice(&src.timestamps_s[rows]);
    }

    /// Appends every row of `other`.
    ///
    /// # Panics
    ///
    /// Panics on a stride mismatch, like [`SampleBlock::push`].
    pub(crate) fn append(&mut self, other: &SampleBlock) {
        if other.is_empty() {
            return;
        }
        assert!(self.accepts(other.dim), "sample block rows must share one length");
        self.extend_from_rows(other, 0..other.len());
    }

    /// Appends `rows` of `src`, or refuses a stride mismatch.
    fn try_extend_from_rows(&mut self, src: &SampleBlock, rows: Range<usize>) -> Result<()> {
        if !self.accepts(src.dim) {
            return Err(stride_error(src.dim, self.dim));
        }
        self.extend_from_rows(src, rows);
        Ok(())
    }

    /// Overwrites the rows starting at `at` with `rows` of `src` (same
    /// stride, checked by the caller).
    fn overwrite_rows(&mut self, at: usize, src: &SampleBlock, rows: Range<usize>) {
        let n = rows.len();
        let dim = self.dim;
        self.features[at * dim..(at + n) * dim]
            .copy_from_slice(&src.features[rows.start * dim..rows.end * dim]);
        self.teacher_labels[at..at + n].copy_from_slice(&src.teacher_labels[rows.clone()]);
        self.true_classes[at..at + n].copy_from_slice(&src.true_classes[rows.clone()]);
        self.timestamps_s[at..at + n].copy_from_slice(&src.timestamps_s[rows]);
    }

    /// Overwrites row `at` with `row` (same stride, checked by the caller).
    fn set(&mut self, at: usize, row: SampleRef<'_>) {
        self.features[at * self.dim..(at + 1) * self.dim].copy_from_slice(row.features);
        self.teacher_labels[at] = row.teacher_label;
        self.true_classes[at] = row.true_class;
        self.timestamps_s[at] = row.timestamp_s;
    }

    /// Makes room for `additional` more rows of `dim` features without the
    /// amortised over-allocation `Vec` growth would add.
    fn reserve_rows_exact(&mut self, additional: usize, dim: usize) {
        self.features.reserve_exact(additional * dim);
        self.teacher_labels.reserve_exact(additional);
        self.true_classes.reserve_exact(additional);
        self.timestamps_s.reserve_exact(additional);
    }

    /// Removes every row, keeping the allocation.
    fn clear(&mut self) {
        self.features.clear();
        self.teacher_labels.clear();
        self.true_classes.clear();
        self.timestamps_s.clear();
    }
}

/// Serialises as a FIFO-ordered array of [`LabeledSample`]-shaped objects —
/// the one row format every sample store shares (see [`SampleBuffer`]'s
/// impl), written by [`SampleRef::to_value`] and read by
/// [`LabeledSample::from_value`].
impl Serialize for SampleBlock {
    fn to_value(&self) -> Value {
        Value::Array(self.rows().map(|row| row.to_value()).collect())
    }
}

impl Deserialize for SampleBlock {
    fn from_value(value: &Value) -> std::result::Result<Self, DeError> {
        let rows =
            value.as_array().ok_or_else(|| DeError::expected("an array of samples", value))?;
        let mut block = Self::default();
        for (i, row) in rows.iter().enumerate() {
            let sample = LabeledSample::from_value(row)
                .map_err(|e| DeError::new(format!("samples[{i}]: {e}")))?;
            if !block.accepts(sample.features.len()) {
                return Err(DeError::new(format!(
                    "samples[{i}]: feature length differs from the samples before it"
                )));
            }
            if block.is_empty() {
                block.reserve_rows_exact(rows.len(), sample.features.len());
            }
            block.push(sample.view());
        }
        Ok(block)
    }
}

/// The error for a `dim`-feature row offered to rows of `resident_dim`.
fn stride_error(dim: usize, resident_dim: usize) -> CoreError {
    CoreError::InvalidConfig {
        reason: format!(
            "a {dim}-feature sample cannot enter a buffer of {resident_dim}-feature samples"
        ),
    }
}

/// One grant of a barrier's exchange: the first `rows` rows of `block`,
/// camera `source`'s export batch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Grant<'a> {
    /// The exporting camera's admission index: within one barrier it names
    /// `block`, so two importers' grants compare without their rows.
    pub(crate) source: usize,
    pub(crate) block: &'a SampleBlock,
    pub(crate) rows: usize,
}

/// The tails one barrier built for the buffers its grants fill, keyed by
/// where their rows come from: one `(source, first row, end row)` per run.
/// Each is built on the first request for its key and shared by every later
/// one; the barrier drops the table, so a tail lives exactly as long as some
/// buffer still views it.
#[derive(Debug, Default)]
pub(crate) struct SharedTails {
    built: BTreeMap<Vec<(usize, usize, usize)>, Arc<SampleBlock>>,
    /// The key being looked up, kept to reuse its allocation.
    key: Vec<(usize, usize, usize)>,
}

impl SharedTails {
    /// The last `capacity` rows of `grants` (which hold at least that many).
    fn tail(&mut self, grants: &[Grant<'_>], capacity: usize) -> Result<Arc<SampleBlock>> {
        // Walk back from the newest grant until the grants hold `capacity`
        // rows: the tail starts in that one, past its oldest `skip` rows.
        let mut held = 0;
        let first = grants
            .iter()
            .rposition(|grant| {
                held += grant.rows;
                held >= capacity
            })
            .unwrap_or(0);
        let skip = held.saturating_sub(capacity);
        let runs = grants[first..]
            .iter()
            .enumerate()
            .map(move |(i, grant)| (grant, if i == 0 { skip } else { 0 }..grant.rows));
        self.key.clear();
        self.key.extend(runs.clone().map(|(grant, rows)| (grant.source, rows.start, rows.end)));
        if let Some(tail) = self.built.get(self.key.as_slice()) {
            return Ok(Arc::clone(tail));
        }
        let mut tail = SampleBlock::default();
        tail.reserve_rows_exact(capacity, grants[first].block.dim);
        for (grant, rows) in runs {
            tail.try_extend_from_rows(grant.block, rows)?;
        }
        let tail = Arc::new(tail);
        self.built.insert(self.key.clone(), Arc::clone(&tail));
        Ok(tail)
    }
}

/// Fixed-capacity buffer of labeled samples (Section VI-A).
///
/// New samples evict the oldest ones once the capacity is reached; a data
/// drift clears the buffer entirely so stale samples stop polluting
/// retraining. Storage is a structure-of-arrays ring — one flat `f32` slab of
/// `len × dim` features, grown on demand up to `capacity × dim`, beside
/// parallel label / class / timestamp columns — so a steady-state push is
/// O(1), overwrites the oldest slot in place and allocates nothing, and
/// [`SampleBuffer::draw`] hands out borrowed rows instead of clones. After a
/// barrier's grants filled it, the ring may view a tail it shares with
/// other importers (see the module docs); no method can tell.
///
/// All resident samples share one feature length, fixed by the first sample
/// pushed into an empty buffer.
///
/// # Examples
///
/// ```
/// use dacapo_core::{LabeledSample, SampleBuffer};
///
/// let mut buffer = SampleBuffer::new(2);
/// for i in 0..3 {
///     buffer.push(LabeledSample {
///         features: vec![i as f32],
///         teacher_label: 0,
///         true_class: 0,
///         timestamp_s: i as f64,
///     });
/// }
/// assert_eq!(buffer.len(), 2);
/// assert_eq!(buffer.samples().next().unwrap().timestamp_s, 1.0); // oldest was evicted
/// ```
#[derive(Debug, Clone)]
pub struct SampleBuffer {
    capacity: usize,
    /// Slot of the oldest sample: 0 while the ring fills in order from slot
    /// 0, and while `base` is set the first shared slot (`slots.len()`).
    head: usize,
    /// The buffer's own rows, in physical order: every slot without a
    /// `base`, the prefix `[0, k)` in front of it with one
    /// (`slots.len() <= capacity`).
    slots: SampleBlock,
    /// A tail of exactly `capacity` rows shared with other buffers: slot
    /// `s >= slots.len()` reads its row `s`.
    base: Option<Arc<SampleBlock>>,
}

impl SampleBuffer {
    /// Creates an empty buffer with capacity `C_b`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "sample buffer capacity must be positive");
        Self { capacity, head: 0, slots: SampleBlock::default(), base: None }
    }

    /// Buffer capacity `C_b`.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of buffered samples.
    #[must_use]
    pub fn len(&self) -> usize {
        if self.base.is_some() {
            self.capacity
        } else {
            self.slots.len()
        }
    }

    /// Whether the buffer holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slot holding the `i`-th oldest sample.
    fn slot(&self, i: usize) -> usize {
        let slot = self.head + i;
        if slot >= self.capacity {
            slot - self.capacity
        } else {
            slot
        }
    }

    /// The `i`-th oldest sample.
    fn get(&self, i: usize) -> SampleRef<'_> {
        let slot = self.slot(i);
        match &self.base {
            Some(base) if slot >= self.slots.len() => base.get(slot),
            _ => self.slots.get(slot),
        }
    }

    /// Iterates over the buffered samples, oldest first.
    pub fn samples(
        &self,
    ) -> impl DoubleEndedIterator<Item = SampleRef<'_>> + ExactSizeIterator + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Adds one sample, evicting the oldest if the buffer is full. O(1).
    ///
    /// # Panics
    ///
    /// Panics if the sample's feature length differs from the buffered
    /// samples' (rows share one stride).
    pub fn push(&mut self, sample: LabeledSample) {
        assert!(
            self.resident().accepts(sample.features.len()),
            "sample feature length must match the buffered samples'"
        );
        self.insert(sample.view());
    }

    /// Adds a batch of samples (in order), evicting the oldest as needed.
    ///
    /// # Panics
    ///
    /// Panics on a feature-length mismatch, like [`SampleBuffer::push`].
    pub fn extend(&mut self, samples: impl IntoIterator<Item = LabeledSample>) {
        for sample in samples {
            self.push(sample);
        }
    }

    /// [`SampleBuffer::push`] for rows arriving from inside the runtime.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] on a feature-length mismatch.
    pub(crate) fn admit_row(&mut self, row: SampleRef<'_>) -> Result<()> {
        self.check_stride(row.features.len())?;
        self.insert(row);
        Ok(())
    }

    /// Admits the first `rows` rows of each grant, in order — exactly as if
    /// every granted row had been pushed one by one — while copying only
    /// the rows that survive.
    ///
    /// Grants short of `capacity` rows are copied in, beside the residents
    /// that survive them. Grants reaching it evict every resident, so the
    /// buffer becomes a view of their last `capacity` rows, which `tails`
    /// builds once for every buffer granted the same rows (see the module
    /// docs).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if a surviving block's feature
    /// length differs from the buffered samples' or from another surviving
    /// block's. Grants before the offending one may already have been
    /// admitted.
    pub(crate) fn admit_grants(
        &mut self,
        grants: &[Grant<'_>],
        tails: &mut SharedTails,
    ) -> Result<()> {
        let granted: usize = grants.iter().map(|grant| grant.rows).sum();
        if granted < self.capacity {
            for grant in grants.iter().filter(|grant| grant.rows > 0) {
                self.check_stride(grant.block.dim)?;
                self.insert_rows(grant.block, grant.rows);
            }
            return Ok(());
        }
        let tail = tails.tail(grants, self.capacity)?;
        self.check_stride(tail.dim)?;
        self.slots.clear();
        self.head = 0;
        self.base = Some(tail);
        Ok(())
    }

    /// A block holding resident rows, if any: their stride is its.
    fn resident(&self) -> &SampleBlock {
        self.base.as_deref().unwrap_or(&self.slots)
    }

    fn check_stride(&self, dim: usize) -> Result<()> {
        let resident = self.resident();
        if resident.accepts(dim) {
            return Ok(());
        }
        Err(stride_error(dim, resident.dim))
    }

    /// Grows the slot columns for `additional` more rows: doubling, but
    /// never past `capacity` rows. Over a shared base the buffer is full, so
    /// its own rows get all `capacity` slots at once, as a full ring holds
    /// them: how much a buffer owns then never depends on how many rows
    /// happened to arrive between two barriers.
    fn grow(&mut self, additional: usize, dim: usize) {
        let len = self.slots.len();
        if len + additional > self.slots.teacher_labels.capacity() {
            let target = if self.base.is_some() {
                self.capacity
            } else {
                (len + additional).max(len * 2).max(4).min(self.capacity)
            };
            self.slots.reserve_rows_exact(target - len, dim);
        }
    }

    /// Moves the head past own rows just written into free slots: over a
    /// shared base it follows the own prefix, and once that prefix covers
    /// every slot the base is dropped and slot 0 holds the oldest row.
    fn claim_filled(&mut self) {
        if self.base.is_some() {
            self.head = self.slots.len() % self.capacity;
            if self.head == 0 {
                self.base = None;
            }
        }
    }

    /// Inserts one stride-checked row.
    fn insert(&mut self, row: SampleRef<'_>) {
        if self.slots.len() < self.capacity {
            self.grow(1, row.features.len());
            self.slots.push(row);
            self.claim_filled();
        } else {
            self.slots.set(self.head, row);
            self.head = self.slot(1);
        }
    }

    /// Inserts the first `rows` rows of a stride-checked block (fewer than
    /// `capacity`): free or shared slots fill first, then the oldest slots
    /// are overwritten in at most two contiguous runs.
    fn insert_rows(&mut self, block: &SampleBlock, rows: usize) {
        debug_assert!(rows < self.capacity);
        let fill = (self.capacity - self.slots.len()).min(rows);
        if fill > 0 {
            self.grow(fill, block.dim);
            self.slots.extend_from_rows(block, 0..fill);
            self.claim_filled();
        }
        let mut next = fill;
        while next < rows {
            let run = (rows - next).min(self.capacity - self.head);
            self.slots.overwrite_rows(self.head, block, next..next + run);
            self.head = self.slot(run);
            next += run;
        }
    }

    /// Removes every sample (the drift response of Algorithm 1, line 12).
    pub fn reset(&mut self) {
        self.slots.clear();
        self.head = 0;
        self.base = None;
    }

    /// Draws disjoint retraining and validation subsets of up to `train` and
    /// `validation` samples (Algorithm 1, line 4). The draw is a seeded
    /// shuffle so experiments are reproducible; the returned samples borrow
    /// the buffer's rows.
    ///
    /// Requesting zero samples on either side is honoured exactly (a
    /// zero-validation draw never returns validation data and vice versa;
    /// `train + validation == 0` yields two empty sets). If the buffer
    /// holds fewer than `train + validation` samples, the available samples
    /// are split proportionally (when both subsets were requested,
    /// validation gets at least one sample whenever the buffer holds at
    /// least two).
    #[must_use]
    pub fn draw(
        &self,
        train: usize,
        validation: usize,
        seed: u64,
    ) -> (Vec<SampleRef<'_>>, Vec<SampleRef<'_>>) {
        let (train, validation) = self.draw_indices(train, validation, seed);
        let resolve = |indices: Vec<usize>| indices.into_iter().map(|i| self.get(i)).collect();
        (resolve(train), resolve(validation))
    }

    /// [`SampleBuffer::draw`] as sample indices (0 = oldest), valid until
    /// the buffer is next mutated; resolve them with
    /// [`SampleBuffer::gather`].
    pub(crate) fn draw_indices(
        &self,
        train: usize,
        validation: usize,
        seed: u64,
    ) -> (Vec<usize>, Vec<usize>) {
        let want_total = train + validation;
        if self.is_empty() || want_total == 0 {
            return (Vec::new(), Vec::new());
        }
        let mut indices: Vec<usize> = (0..self.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        indices.shuffle(&mut rng);

        let available = indices.len();
        let (n_train, n_val) = if available >= want_total {
            (train, validation)
        } else if train == 0 {
            // A validation-only request never returns training samples.
            (0, available)
        } else if validation == 0 {
            // A train-only request never loses a sample to validation.
            (available, 0)
        } else if available >= 2 {
            let n_val = ((available * validation) / want_total).max(1);
            (available - n_val, n_val)
        } else {
            (available, 0)
        };
        let val_set = indices[n_train..n_train + n_val].to_vec();
        indices.truncate(n_train);
        (indices, val_set)
    }

    /// The feature rows and teacher labels of the samples at `indices`, in
    /// that order — the operands `train_rows_with` / `evaluate_rows_with`
    /// take, borrowed straight from the slab.
    pub(crate) fn gather(&self, indices: &[usize]) -> (Vec<&[f32]>, Vec<usize>) {
        indices
            .iter()
            .map(|&i| {
                let row = self.get(i);
                (row.features, row.teacher_label)
            })
            .unzip()
    }

    /// How many own rows cover the shared tail the buffer views, if any.
    #[cfg(test)]
    pub(crate) fn own_rows_over_shared_tail(&self) -> Option<usize> {
        self.base.as_ref().map(|_| self.slots.len())
    }

    /// Fraction of buffered samples captured at or after `timestamp_s`, a
    /// cheap freshness measure used by diagnostics.
    #[must_use]
    pub fn fresh_fraction(&self, timestamp_s: f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let fresh = |stamps: &[f64]| stamps.iter().filter(|&&t| t >= timestamp_s).count();
        let shared =
            self.base.as_deref().map_or(0, |base| fresh(&base.timestamps_s[self.slots.len()..]));
        (fresh(&self.slots.timestamps_s) + shared) as f64 / self.len() as f64
    }
}

/// Buffers are equal when they hold the same samples in the same FIFO order
/// under the same capacity; where the ring happens to start is not state.
impl PartialEq for SampleBuffer {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity
            && self.len() == other.len()
            && self.samples().eq(other.samples())
    }
}

/// Serialises as `{capacity, samples: [...]}` with the samples as a
/// FIFO-ordered array of [`LabeledSample`]-shaped objects — the shape of the
/// `Vec`-backed buffer the ring replaced, so snapshots keep their format.
impl Serialize for SampleBuffer {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("capacity".to_string(), self.capacity.to_value()),
            ("samples".to_string(), Value::Array(self.samples().map(|s| s.to_value()).collect())),
        ])
    }
}

impl Deserialize for SampleBuffer {
    fn from_value(value: &Value) -> std::result::Result<Self, DeError> {
        let capacity: usize = de::field(value, "SampleBuffer", "capacity")?;
        if capacity == 0 {
            return Err(DeError::new("SampleBuffer.capacity: must be positive"));
        }
        // The rows arrive oldest first, so they are the ring unwrapped.
        let slots: SampleBlock = de::field(value, "SampleBuffer", "samples")?;
        if slots.len() > capacity {
            return Err(DeError::new(format!(
                "SampleBuffer.samples: {} samples exceed the capacity of {capacity}",
                slots.len()
            )));
        }
        Ok(Self { capacity, head: 0, slots, base: None })
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "the O(1)-eviction regression guard times the host")]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    fn sample(t: f64, label: usize) -> LabeledSample {
        LabeledSample {
            features: vec![t as f32; 4],
            teacher_label: label,
            true_class: label,
            timestamp_s: t,
        }
    }

    /// The columnar block holding `samples`, in order.
    fn block_of(samples: &[LabeledSample]) -> SampleBlock {
        let mut block = SampleBlock::default();
        samples.iter().for_each(|s| block.push(s.view()));
        block
    }

    fn grant(source: usize, block: &SampleBlock, rows: usize) -> Grant<'_> {
        Grant { source, block, rows }
    }

    #[test]
    fn capacity_is_enforced_fifo() {
        let mut buffer = SampleBuffer::new(3);
        for t in 0..5 {
            buffer.push(sample(t as f64, 0));
        }
        assert_eq!(buffer.len(), 3);
        let times: Vec<f64> = buffer.samples().map(|s| s.timestamp_s).collect();
        assert_eq!(times, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn steady_state_pushes_are_constant_time() {
        // A regression guard for the old Vec::remove(0) eviction: pushing
        // far past capacity must not shift the whole buffer per sample.
        // 200k pushes into a 4k buffer finish instantly at O(1) per push
        // but would cost ~800M element moves at O(capacity).
        let mut buffer = SampleBuffer::new(4096);
        let started = std::time::Instant::now();
        for t in 0..200_000u32 {
            buffer.push(sample(f64::from(t), 0));
        }
        assert!(started.elapsed().as_secs_f64() < 5.0, "eviction degenerated to O(capacity)");
        assert_eq!(buffer.len(), 4096);
        assert_eq!(buffer.samples().next().unwrap().timestamp_s, f64::from(200_000u32 - 4096));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = SampleBuffer::new(0);
    }

    #[test]
    #[should_panic(expected = "feature length must match")]
    fn pushing_a_row_of_another_length_panics() {
        let mut buffer = SampleBuffer::new(4);
        buffer.push(sample(0.0, 0));
        buffer.push(LabeledSample { features: vec![0.0; 5], ..sample(1.0, 0) });
    }

    #[test]
    fn internal_admits_report_a_length_mismatch_as_a_typed_error() {
        let mut buffer = SampleBuffer::new(4);
        buffer.push(sample(0.0, 0));
        let wide = LabeledSample { features: vec![0.0; 5], ..sample(1.0, 0) };
        let err = buffer.admit_row(wide.view()).unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig { .. }), "{err}");
        let block = block_of(&[wide.clone(), wide.clone(), wide.clone(), wide]);
        let tails = &mut SharedTails::default();
        assert!(buffer.admit_grants(&[grant(0, &block, 1)], tails).is_err());
        assert_eq!(buffer.len(), 1, "a refused admit leaves the buffer untouched");
        assert!(buffer.admit_grants(&[grant(0, &block, 4)], tails).is_err(), "a refused tail");
        assert_eq!(buffer.len(), 1, "a refused tail leaves the buffer untouched");
        // Rows of two lengths cannot make one tail either.
        let narrow = block_of(&[sample(0.0, 0)]);
        let mixed = [grant(0, &narrow, 1), grant(1, &block, 4)];
        assert!(
            SampleBuffer::new(4).admit_grants(&mixed, tails).is_ok(),
            "the narrow row is evicted"
        );
        let mixed = [grant(0, &block, 3), grant(1, &narrow, 1)];
        assert!(SampleBuffer::new(4).admit_grants(&mixed, &mut SharedTails::default()).is_err());
        // An emptied buffer takes whatever length comes first.
        buffer.reset();
        buffer.admit_grants(&[grant(0, &block, 1)], tails).unwrap();
        assert_eq!(buffer.samples().next().unwrap().features.len(), 5);
    }

    #[test]
    fn the_slab_grows_on_demand_and_never_past_capacity() {
        let mut buffer = SampleBuffer::new(100);
        assert_eq!(buffer.slots.features.capacity(), 0, "an empty buffer owns no slab");
        buffer.extend((0..10).map(|t| sample(t as f64, 0)));
        assert!(buffer.slots.features.capacity() < 100 * 4, "ten samples do not claim the slab");
        buffer.extend((10..350).map(|t| sample(t as f64, 0)));
        assert_eq!(buffer.slots.features.capacity(), 100 * 4);
        assert_eq!(buffer.slots.teacher_labels.capacity(), 100);
    }

    #[test]
    fn reset_clears_everything() {
        let mut buffer = SampleBuffer::new(4);
        buffer.extend((0..4).map(|t| sample(t as f64, t)));
        assert_eq!(buffer.len(), 4);
        buffer.reset();
        assert!(buffer.is_empty());
        assert_eq!(buffer.capacity(), 4);
    }

    #[test]
    fn draw_returns_disjoint_requested_sizes() {
        let mut buffer = SampleBuffer::new(100);
        buffer.extend((0..100).map(|t| sample(t as f64, t % 10)));
        let (train, val) = buffer.draw(60, 20, 7);
        assert_eq!(train.len(), 60);
        assert_eq!(val.len(), 20);
        // Disjoint: no timestamp appears in both.
        for t in &train {
            assert!(!val.iter().any(|v| v.timestamp_s == t.timestamp_s));
        }
    }

    #[test]
    fn draw_is_deterministic_per_seed() {
        let mut buffer = SampleBuffer::new(50);
        buffer.extend((0..50).map(|t| sample(t as f64, t % 5)));
        let a = buffer.draw(30, 10, 42);
        let b = buffer.draw(30, 10, 42);
        let c = buffer.draw(30, 10, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn draw_from_small_buffer_splits_proportionally() {
        let mut buffer = SampleBuffer::new(100);
        buffer.extend((0..10).map(|t| sample(t as f64, 0)));
        let (train, val) = buffer.draw(60, 20, 1);
        assert_eq!(train.len() + val.len(), 10);
        assert!(!val.is_empty(), "validation gets at least one sample");
        assert!(train.len() > val.len());
    }

    #[test]
    fn draw_from_empty_and_singleton_buffers() {
        let buffer = SampleBuffer::new(10);
        let (train, val) = buffer.draw(5, 2, 0);
        assert!(train.is_empty() && val.is_empty());

        let mut buffer = SampleBuffer::new(10);
        buffer.push(sample(1.0, 0));
        let (train, val) = buffer.draw(5, 2, 0);
        assert_eq!(train.len(), 1);
        assert!(val.is_empty());
    }

    #[test]
    fn drawing_zero_samples_yields_empty_sets() {
        // Regression: the proportional-split branch used to apply .max(1)
        // even for a zero-sample request, returning (available - 1, 1)
        // instead of nothing.
        let mut buffer = SampleBuffer::new(10);
        buffer.extend((0..10).map(|t| sample(t as f64, 0)));
        let (train, val) = buffer.draw(0, 0, 3);
        assert!(train.is_empty(), "a zero-sample draw must not return training data");
        assert!(val.is_empty(), "a zero-sample draw must not return validation data");
        // Zero on one side only is still honoured exactly.
        let (train, val) = buffer.draw(4, 0, 3);
        assert_eq!(train.len(), 4);
        assert!(val.is_empty());
        let (train, val) = buffer.draw(0, 4, 3);
        assert!(train.is_empty());
        assert_eq!(val.len(), 4);
        // …including when the buffer is under-stocked: the proportional
        // split must not conjure a validation sample nobody asked for (or a
        // training sample on a validation-only request).
        let (train, val) = buffer.draw(25, 0, 3);
        assert_eq!(train.len(), 10);
        assert!(val.is_empty(), "a zero-validation draw must never return validation data");
        let (train, val) = buffer.draw(0, 25, 3);
        assert!(train.is_empty(), "a zero-train draw must never return training data");
        assert_eq!(val.len(), 10);
    }

    #[test]
    fn fresh_fraction_reflects_timestamps() {
        let mut buffer = SampleBuffer::new(10);
        buffer.extend((0..10).map(|t| sample(t as f64, 0)));
        assert!((buffer.fresh_fraction(5.0) - 0.5).abs() < 1e-9);
        assert_eq!(buffer.fresh_fraction(100.0), 0.0);
        assert_eq!(buffer.fresh_fraction(0.0), 1.0);
        assert_eq!(SampleBuffer::new(3).fresh_fraction(0.0), 0.0);
    }

    #[test]
    fn fresh_fraction_boundary_is_at_or_after() {
        // Pins the documented inclusive boundary: a sample captured exactly
        // at the cutoff counts as fresh.
        let mut buffer = SampleBuffer::new(4);
        buffer.extend([sample(1.0, 0), sample(2.0, 0), sample(3.0, 0), sample(4.0, 0)]);
        assert!((buffer.fresh_fraction(2.0) - 0.75).abs() < 1e-12, "t = 2.0 itself is fresh");
        assert!((buffer.fresh_fraction(2.0 + 1e-9) - 0.5).abs() < 1e-12);
        assert!((buffer.fresh_fraction(4.0) - 0.25).abs() < 1e-12, "the newest sample counts");
    }

    #[test]
    fn serde_format_matches_the_vec_backed_layout() {
        use serde::Serialize as _;
        let mut buffer = SampleBuffer::new(2);
        for t in 0..3 {
            buffer.push(sample(t as f64, t));
        }
        // {capacity, samples: [...]} with samples as a FIFO-ordered array —
        // the exact shape the old Vec-backed derive produced.
        let value = buffer.to_value();
        let serde::Value::Object(fields) = value else { panic!("expected an object") };
        assert_eq!(fields[0].0, "capacity");
        assert_eq!(fields[0].1, serde::Value::UInt(2));
        assert_eq!(fields[1].0, "samples");
        let serde::Value::Array(samples) = &fields[1].1 else { panic!("expected an array") };
        assert_eq!(samples.len(), 2);
        let expected: Vec<serde::Value> = buffer.samples().map(|s| s.to_value()).collect();
        assert_eq!(samples, &expected, "array order is FIFO (oldest first)");
        // A borrowed row and the owned record serialise identically.
        let owned: Vec<serde::Value> = buffer.samples().map(|s| s.to_sample().to_value()).collect();
        assert_eq!(owned, expected);
    }

    #[test]
    fn a_wrapped_ring_round_trips_through_serde_as_an_equal_buffer() {
        let mut buffer = SampleBuffer::new(3);
        buffer.extend((0..5).map(|t| sample(t as f64, t)));
        assert_ne!(buffer.head, 0, "the test needs a wrapped ring");
        let restored = SampleBuffer::from_value(&buffer.to_value()).unwrap();
        assert_eq!(restored.head, 0, "restored rings start at slot 0");
        assert_eq!(restored, buffer, "equality is about contents, not ring position");
        assert_eq!(restored.draw(2, 1, 9), buffer.draw(2, 1, 9));
    }

    #[test]
    fn hostile_serialised_buffers_are_rejected() {
        let mut value = SampleBuffer::new(2).to_value();
        let serde::Value::Object(fields) = &mut value else { panic!("expected an object") };
        fields[0].1 = serde::Value::UInt(0);
        assert!(SampleBuffer::from_value(&value).is_err(), "zero capacity");

        let mut buffer = SampleBuffer::new(3);
        buffer.extend((0..3).map(|t| sample(t as f64, t)));
        let mut value = buffer.to_value();
        let serde::Value::Object(fields) = &mut value else { panic!("expected an object") };
        fields[0].1 = serde::Value::UInt(2);
        assert!(SampleBuffer::from_value(&value).is_err(), "more samples than capacity");

        let mut value = buffer.to_value();
        let serde::Value::Object(fields) = &mut value else { panic!("expected an object") };
        let serde::Value::Array(samples) = &mut fields[1].1 else { panic!("expected an array") };
        samples[1] = LabeledSample { features: vec![0.0; 7], ..sample(1.0, 1) }.to_value();
        assert!(SampleBuffer::from_value(&value).is_err(), "ragged feature lengths");
    }

    #[test]
    fn a_block_serialises_exactly_like_the_records_it_was_built_from() {
        for n in [0usize, 1, 5] {
            let records: Vec<LabeledSample> = (0..n).map(|t| sample(t as f64, t)).collect();
            let block = block_of(&records);
            assert_eq!(block.to_value(), records.to_value(), "{n} rows");
            assert_eq!(SampleBlock::from_value(&records.to_value()).unwrap(), block);
            let parsed = Vec::<LabeledSample>::from_value(&block.to_value()).unwrap();
            assert_eq!(parsed, records);
        }
        // Rows of differing width are a parse error, never a panic.
        let ragged =
            vec![sample(0.0, 0), LabeledSample { features: vec![0.0; 7], ..sample(1.0, 1) }];
        let err = SampleBlock::from_value(&ragged.to_value()).unwrap_err();
        assert!(err.to_string().contains("samples[1]"), "{err}");
        assert!(SampleBlock::from_value(&serde::Value::UInt(3)).is_err(), "not an array");
    }

    /// The `VecDeque`-of-records buffer the ring replaced, kept as the
    /// reference the ring is tested against.
    #[derive(Clone)]
    struct Reference {
        capacity: usize,
        samples: VecDeque<LabeledSample>,
    }

    impl Reference {
        fn push(&mut self, sample: LabeledSample) {
            if self.samples.len() == self.capacity {
                self.samples.pop_front();
            }
            self.samples.push_back(sample);
        }

        fn draw(
            &self,
            train: usize,
            validation: usize,
            seed: u64,
        ) -> (Vec<LabeledSample>, Vec<LabeledSample>) {
            let want_total = train + validation;
            if self.samples.is_empty() || want_total == 0 {
                return (Vec::new(), Vec::new());
            }
            let mut indices: Vec<usize> = (0..self.samples.len()).collect();
            indices.shuffle(&mut StdRng::seed_from_u64(seed));
            let available = indices.len();
            let (n_train, n_val) = if available >= want_total {
                (train, validation)
            } else if train == 0 {
                (0, available)
            } else if validation == 0 {
                (available, 0)
            } else if available >= 2 {
                let n_val = ((available * validation) / want_total).max(1);
                (available - n_val, n_val)
            } else {
                (available, 0)
            };
            let pick = |range: Range<usize>| {
                indices[range].iter().map(|&i| self.samples[i].clone()).collect()
            };
            (pick(0..n_train), pick(n_train..n_train + n_val))
        }

        fn fresh_fraction(&self, timestamp_s: f64) -> f64 {
            if self.samples.is_empty() {
                return 0.0;
            }
            let fresh = self.samples.iter().filter(|s| s.timestamp_s >= timestamp_s).count();
            fresh as f64 / self.samples.len() as f64
        }
    }

    fn owned(rows: Vec<SampleRef<'_>>) -> Vec<LabeledSample> {
        rows.iter().map(SampleRef::to_sample).collect()
    }

    fn assert_matches_reference(ring: &SampleBuffer, reference: &Reference, probe: u64) {
        let ring_samples: Vec<LabeledSample> = ring.samples().map(|s| s.to_sample()).collect();
        let reference_samples: Vec<LabeledSample> = reference.samples.iter().cloned().collect();
        assert_eq!(ring_samples, reference_samples);
        let (train, validation) = ring.draw(5, 3, probe);
        assert_eq!((owned(train), owned(validation)), reference.draw(5, 3, probe));
        let cutoff = probe as f64 / 2.0;
        assert_eq!(ring.fresh_fraction(cutoff), reference.fresh_fraction(cutoff));
    }

    /// `n` new samples stamped with consecutive ticks of `clock`.
    fn fresh(clock: &mut u64, n: usize) -> Vec<LabeledSample> {
        (0..n)
            .map(|_| {
                *clock += 1;
                sample(*clock as f64, (*clock % 7) as usize)
            })
            .collect()
    }

    /// Two grants drawn from `clock`, as one barrier offers them: `n` rows
    /// from camera 0, then half of `n / 2 + 1` rows from camera 1.
    fn two_grants(clock: &mut u64, n: usize) -> ([SampleBlock; 2], [usize; 2], Vec<LabeledSample>) {
        let first = fresh(clock, n);
        let second = fresh(clock, n / 2 + 1);
        let keep = second.len() / 2;
        let blocks = [block_of(&first), block_of(&second)];
        let admitted = first.into_iter().chain(second.into_iter().take(keep)).collect();
        (blocks, [n, keep], admitted)
    }

    proptest! {
        /// Two rings behave exactly like two `VecDeque` references under any
        /// interleaving of single pushes, bulk extends, partial and full
        /// grants (full ones through one tail table, so the rings may share
        /// a base), resets and clone-then-mutate — across wrap-around, at
        /// every step, and writing into one ring never moves the other.
        #[test]
        fn the_ring_matches_the_vecdeque_reference(
            capacity in 1usize..24,
            ops in prop::collection::vec((0u8..8, 0usize..60, 0usize..2), 1..32),
        ) {
            let mut rings = [SampleBuffer::new(capacity), SampleBuffer::new(capacity)];
            let empty = Reference { capacity, samples: VecDeque::new() };
            let mut references = [empty.clone(), empty];
            let mut clock = 0u64;
            for (op, n, target) in ops {
                let (ring, reference) = (&mut rings[target], &mut references[target]);
                match op {
                    0 => {
                        ring.reset();
                        reference.samples.clear();
                    }
                    1 | 2 => {
                        for sample in fresh(&mut clock, n % 4 + 1) {
                            ring.push(sample.clone());
                            reference.push(sample);
                        }
                    }
                    3 => {
                        let batch = fresh(&mut clock, n);
                        ring.extend(batch.iter().cloned());
                        batch.into_iter().for_each(|s| reference.push(s));
                    }
                    4 | 5 => {
                        let (blocks, rows, admitted) = two_grants(&mut clock, n);
                        let grants = [grant(0, &blocks[0], rows[0]), grant(1, &blocks[1], rows[1])];
                        ring.admit_grants(&grants, &mut SharedTails::default()).unwrap();
                        admitted.into_iter().for_each(|s| reference.push(s));
                    }
                    6 => {
                        // One barrier's grants to both rings: a tail they
                        // reach is built once and viewed by both.
                        let (blocks, rows, admitted) = two_grants(&mut clock, n);
                        let grants = [grant(0, &blocks[0], rows[0]), grant(1, &blocks[1], rows[1])];
                        let tails = &mut SharedTails::default();
                        for (ring, reference) in rings.iter_mut().zip(&mut references) {
                            ring.admit_grants(&grants, tails).unwrap();
                            admitted.iter().cloned().for_each(|s| reference.push(s));
                        }
                        if rows[0] + rows[1] >= capacity {
                            let [a, b] = &rings;
                            prop_assert!(a.base.as_ref().zip(b.base.as_ref()).is_some_and(|(a, b)| Arc::ptr_eq(a, b)));
                        }
                    }
                    _ => {
                        rings[1 - target] = rings[target].clone();
                        references[1 - target] = references[target].clone();
                    }
                }
                for (ring, reference) in rings.iter().zip(&references) {
                    prop_assert!(ring.len() <= capacity);
                    prop_assert!(ring.base.as_ref().is_none_or(|base| base.len() == capacity));
                    assert_matches_reference(ring, reference, clock);
                }
            }
        }
    }

    #[test]
    fn importers_outside_the_tail_region_share_one_block() {
        // Six cameras export three rows each; every camera imports all of
        // its peers' rows into a buffer of eight, as a broadcast barrier
        // grants them. The last eight rows of cameras 0–2's grants come from
        // cameras 3–5 alone, so those three importers view one tail; cameras
        // 3–5 each skip their own export and keep a tail of their own.
        let exports: Vec<SampleBlock> = (0..6)
            .map(|camera| {
                block_of(&(0..3).map(|k| sample((camera * 3 + k) as f64, k)).collect::<Vec<_>>())
            })
            .collect();
        let tails = &mut SharedTails::default();
        let buffers: Vec<SampleBuffer> = (0..6)
            .map(|importer| {
                let grants: Vec<Grant<'_>> = (0..6)
                    .filter(|&exporter| exporter != importer)
                    .map(|exporter| grant(exporter, &exports[exporter], 3))
                    .collect();
                let mut buffer = SampleBuffer::new(8);
                buffer.push(sample(-1.0, 0));
                buffer.admit_grants(&grants, tails).unwrap();
                // The contents are the per-sample FIFO's.
                let mut reference = SampleBuffer::new(8);
                reference.push(sample(-1.0, 0));
                for &Grant { block, rows, .. } in &grants {
                    (0..rows).for_each(|i| reference.push(block.get(i).to_sample()));
                }
                assert_eq!(buffer, reference);
                assert_eq!(buffer.to_value(), reference.to_value());
                buffer
            })
            .collect();
        let base = |i: usize| buffers[i].base.as_ref().unwrap();
        assert!(Arc::ptr_eq(base(0), base(1)) && Arc::ptr_eq(base(0), base(2)));
        for own in 3..6 {
            assert!((0..6).filter(|&i| i != own).all(|i| !Arc::ptr_eq(base(own), base(i))));
        }
        assert_eq!(tails.built.len(), 4, "one tail for cameras 0–2, one each for 3–5");
    }

    /// A buffer in each of its states: growing, a full and wrapped ring, a
    /// shared base, and a shared base under an own prefix.
    fn buffers_in_every_state() -> Vec<(&'static str, SampleBuffer)> {
        let mut growing = SampleBuffer::new(6);
        growing.extend((0..4).map(|t| sample(t as f64, t)));
        let mut ring = SampleBuffer::new(6);
        ring.extend((0..9).map(|t| sample(t as f64, t)));
        let peers = block_of(&(10..20).map(|t| sample(t as f64, t % 7)).collect::<Vec<_>>());
        let mut shared = SampleBuffer::new(6);
        shared.admit_grants(&[grant(1, &peers, 10)], &mut SharedTails::default()).unwrap();
        let mut prefixed = shared.clone();
        prefixed.extend((20..23).map(|t| sample(t as f64, t % 7)));
        assert!(shared.base.is_some() && shared.slots.is_empty());
        assert!(prefixed.base.is_some() && prefixed.slots.len() == 3);
        vec![("growing", growing), ("ring", ring), ("shared", shared), ("prefixed", prefixed)]
    }

    #[test]
    fn every_buffer_state_is_a_serde_fixed_point() {
        for (state, buffer) in buffers_in_every_state() {
            let text = serde_json::to_string(&buffer).unwrap();
            let decoded: SampleBuffer = serde_json::from_str(&text).unwrap();
            assert_eq!(decoded, buffer, "{state}");
            assert_eq!(serde_json::to_string(&decoded).unwrap(), text, "{state}");
            // The same rows pushed one by one serialise to the same bytes.
            let mut pushed = SampleBuffer::new(buffer.capacity());
            pushed.extend(buffer.samples().map(|s| s.to_sample()));
            assert_eq!(serde_json::to_string(&pushed).unwrap(), text, "{state}");
        }
    }

    #[test]
    fn a_shared_base_is_dropped_once_own_rows_cover_it_or_on_reset() {
        let (_, shared) = buffers_in_every_state().swap_remove(2);
        let mut covered = shared.clone();
        covered.extend((30..35).map(|t| sample(t as f64, 0)));
        assert!(covered.base.is_some(), "five own rows over six slots");
        covered.push(sample(35.0, 0));
        assert!(covered.base.is_none() && covered.head == 0, "a plain ring again");
        let times: Vec<f64> = covered.samples().map(|s| s.timestamp_s).collect();
        assert_eq!(times, [30.0, 31.0, 32.0, 33.0, 34.0, 35.0]);
        // A grant that crosses the last shared slot drops the base mid-run.
        let mut crossed = shared.clone();
        let own = block_of(&(40..48).map(|t| sample(t as f64, 0)).collect::<Vec<_>>());
        crossed.admit_grants(&[grant(2, &own, 5)], &mut SharedTails::default()).unwrap();
        assert!(crossed.base.is_some());
        crossed.admit_grants(&[grant(2, &own, 3)], &mut SharedTails::default()).unwrap();
        let mut reference = SampleBuffer::new(6);
        reference.extend(shared.samples().map(|s| s.to_sample()));
        (0..5).chain(0..3).for_each(|i| reference.push(own.get(i).to_sample()));
        assert!(crossed.base.is_none());
        assert_eq!(crossed, reference);
        let mut reset = shared;
        reset.reset();
        assert!(reset.is_empty() && reset.base.is_none());
    }

    #[test]
    fn own_rows_over_a_shared_base_take_a_full_rings_slab_at_once() {
        // A growing buffer doubles its slab; a full one over a shared base
        // sizes it for every slot on its first own row, so what it owns does
        // not depend on how many rows arrive before the next barrier.
        let (_, mut shared) = buffers_in_every_state().swap_remove(2);
        assert_eq!(shared.slots.teacher_labels.capacity(), 0);
        shared.push(sample(30.0, 0));
        assert_eq!(shared.slots.teacher_labels.capacity(), shared.capacity());
        let own = block_of(&(40..42).map(|t| sample(t as f64, 0)).collect::<Vec<_>>());
        let mut granted = buffers_in_every_state().swap_remove(2).1;
        granted.admit_grants(&[grant(2, &own, 2)], &mut SharedTails::default()).unwrap();
        assert_eq!(granted.slots.teacher_labels.capacity(), granted.capacity());
        let mut growing = SampleBuffer::new(64);
        growing.push(sample(0.0, 0));
        assert!(growing.slots.teacher_labels.capacity() < growing.capacity());
    }
}
