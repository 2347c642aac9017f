//! Greenwald–Khanna ε-approximate quantile summary.
//!
//! A GK summary over `n` values answers any quantile query with rank error
//! at most `ε·n` while storing `O(1/ε · log(ε·n))` tuples. Two summaries can
//! be merged (the CREATE_SKETCH → parameter-server path in the paper): the
//! merge used here — sort-merge the tuple lists, then compress — yields a
//! summary whose error is bounded by the *sum* of the input errors. This is
//! the same strategy Spark's `QuantileSummaries` uses, and the reason the
//! trainer constructs worker-local sketches at `ε/2` when a single merge
//! layer must stay within `ε`.

use serde::{Deserialize, Serialize};

/// One GK tuple: a sample value `v`, the gap `g` between its minimum rank and
/// the previous tuple's minimum rank, and the rank uncertainty `delta`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Entry {
    v: f32,
    g: u64,
    delta: u64,
}

/// Working memory for folding sorted batches into a [`GkSketch`]: the sort
/// keys of a slice batch and the pre-compression tuple list. It belongs to
/// whoever drives the build — one per loop over many sketches — and never to
/// a sketch: a run holds `workers × features` flushed sketches at once, so a
/// per-sketch copy would cost more than every summary together.
#[derive(Debug, Default)]
pub struct GkScratch {
    /// One slice batch as [`key_of`] integers.
    keys: Vec<i32>,
    merged: Vec<Entry>,
}

/// `v` as an integer that orders the way [`f32::total_cmp`] orders `v` — the
/// bit flip `total_cmp` applies to both sides of every comparison, applied
/// once per value so a batch sorts as plain integers.
fn key_of(v: f32) -> i32 {
    flip_magnitude_if_negative(v.to_bits() as i32)
}

/// Inverse of [`key_of`]: the flip undoes itself.
fn value_of(key: i32) -> f32 {
    f32::from_bits(flip_magnitude_if_negative(key) as u32)
}

fn flip_magnitude_if_negative(bits: i32) -> i32 {
    bits ^ (((bits >> 31) as u32) >> 1) as i32
}

/// A mergeable Greenwald–Khanna quantile sketch over `f32` values.
///
/// Incoming values are staged in a head buffer and folded into the summary in
/// sorted batches, which keeps insertion `O(log b)` amortized.
///
/// ```
/// use dimboost_sketch::GkSketch;
///
/// let mut a = GkSketch::new(0.01);
/// a.extend((0..5_000).map(|i| i as f32));
/// let mut b = GkSketch::new(0.01);
/// b.extend((5_000..10_000).map(|i| i as f32));
/// a.merge(&b); // the CREATE_SKETCH -> parameter-server path
///
/// let median = a.query(0.5).unwrap();
/// assert!((median - 5_000.0).abs() <= 0.02 * 10_000.0);
/// assert_eq!(a.count(), 10_000);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GkSketch {
    epsilon: f64,
    entries: Vec<Entry>,
    count: u64,
    /// Head buffer: allocated by the first insert, kept while inserts keep
    /// filling it, released by [`GkSketch::flush`] — a flushed sketch owns
    /// its tuples and nothing else.
    buffer: Vec<(f32, u64)>,
    buffer_capacity: usize,
}

impl GkSketch {
    /// Creates a sketch with rank-error bound `epsilon` (e.g. `0.01` for 1%
    /// of `n`). Allocates nothing: a feature that never sees a value costs
    /// the struct alone.
    ///
    /// # Panics
    /// Panics if `epsilon` is not in `(0, 0.5)`.
    pub fn new(epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 0.5,
            "epsilon must be in (0, 0.5), got {epsilon}"
        );
        Self {
            epsilon,
            entries: Vec::new(),
            count: 0,
            buffer: Vec::new(),
            buffer_capacity: ((1.0 / (2.0 * epsilon)) as usize).clamp(16, 50_000),
        }
    }

    /// The configured rank-error bound.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of values observed (sum of weights for weighted inserts).
    pub fn count(&self) -> u64 {
        self.count + self.buffer.iter().map(|&(_, w)| w).sum::<u64>()
    }

    /// True when no values have been inserted.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Number of stored tuples (after flushing), a space diagnostic.
    pub fn num_entries(&mut self) -> usize {
        self.flush();
        self.entries.len()
    }

    /// Approximate serialized size in bytes (after flushing): 16 bytes per
    /// tuple (value + two varint-free counters) plus a small header. Used by
    /// the simulated network to charge sketch pushes.
    pub fn wire_bytes(&mut self) -> usize {
        self.flush();
        16 * self.entries.len() + 24
    }

    /// Heap bytes this sketch holds right now, by capacity — what a run pays
    /// per live sketch, whatever [`GkSketch::wire_bytes`] says.
    pub fn memory_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<Entry>()
            + self.buffer.capacity() * std::mem::size_of::<(f32, u64)>()
    }

    /// Inserts one value. NaN values are ignored (they have no rank).
    pub fn insert(&mut self, v: f32) {
        self.insert_weighted(v, 1);
    }

    /// Inserts a value with an integer multiplicity — the building block of
    /// weighted quantile summaries (the paper cites XGBoost's WQS \[7\] as
    /// one candidate-proposal strategy; Hessian weights are scaled to
    /// integers by the caller). Zero-weight and NaN inserts are ignored.
    pub fn insert_weighted(&mut self, v: f32, weight: u64) {
        self.push_head(v, weight, &mut GkScratch::default());
    }

    /// Inserts many values.
    pub fn extend<I: IntoIterator<Item = f32>>(&mut self, values: I) {
        for v in values {
            self.insert(v);
        }
    }

    /// Inserts `values` in order — tuple for tuple what calling
    /// [`GkSketch::insert`] on each would leave, because the batches are the
    /// same values folded at the same counts: a partly filled head buffer is
    /// topped up first, every further full batch is sorted as bare keys in
    /// `scratch` without passing through the head buffer, and a final short
    /// run waits there for the next insert or flush.
    pub fn insert_slice(&mut self, values: &[f32], scratch: &mut GkScratch) {
        let mut rest = values;
        while !self.buffer.is_empty() {
            let Some((&v, tail)) = rest.split_first() else {
                return;
            };
            self.push_head(v, 1, scratch);
            rest = tail;
        }
        loop {
            scratch.keys.clear();
            let mut taken = 0;
            for &v in rest {
                taken += 1;
                if !v.is_nan() {
                    scratch.keys.push(key_of(v));
                    if scratch.keys.len() == self.buffer_capacity {
                        break;
                    }
                }
            }
            rest = &rest[taken..];
            if scratch.keys.len() < self.buffer_capacity {
                break;
            }
            scratch.keys.sort_unstable();
            let GkScratch { keys, merged } = scratch;
            self.fold_sorted(keys.iter().map(|&k| (value_of(k), 1)), merged);
        }
        self.buffer
            .extend(scratch.keys.iter().map(|&k| (value_of(k), 1)));
    }

    /// Folds the head buffer into the summary, compresses, and releases the
    /// buffer.
    pub fn flush(&mut self) {
        self.flush_with(&mut GkScratch::default());
    }

    /// [`GkSketch::flush`] through a kept `scratch`.
    pub fn flush_with(&mut self, scratch: &mut GkScratch) {
        self.fold_head(scratch);
        self.buffer = Vec::new();
    }

    fn push_head(&mut self, v: f32, weight: u64, scratch: &mut GkScratch) {
        if v.is_nan() || weight == 0 {
            return;
        }
        self.buffer.push((v, weight));
        if self.buffer.len() >= self.buffer_capacity {
            self.fold_head(scratch);
        }
    }

    /// Folds the head buffer into the summary; the buffer keeps its capacity
    /// for the batch that follows.
    fn fold_head(&mut self, scratch: &mut GkScratch) {
        if self.buffer.is_empty() {
            return;
        }
        let mut batch = std::mem::take(&mut self.buffer);
        batch.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        self.fold_sorted(batch.iter().copied(), &mut scratch.merged);
        batch.clear();
        self.buffer = batch;
    }

    /// Folds one batch of `(value, weight)` pairs, ascending by value, into
    /// the summary and compresses — the only way tuples enter a sketch
    /// outside [`GkSketch::merge`].
    fn fold_sorted(&mut self, batch: impl Iterator<Item = (f32, u64)>, merged: &mut Vec<Entry>) {
        merged.clear();
        merged.reserve(self.entries.len() + batch.size_hint().0);
        let mut ei = 0;
        for (v, weight) in batch {
            while ei < self.entries.len() && self.entries[ei].v <= v {
                merged.push(self.entries[ei]);
                ei += 1;
            }
            self.count += weight;
            // A new value's rank uncertainty is bounded by the summary's
            // current slack, except at the extremes where rank is exact.
            let delta = if merged.is_empty() || ei == self.entries.len() {
                0
            } else {
                ((2.0 * self.epsilon * self.count as f64).floor() as u64).saturating_sub(1)
            };
            merged.push(Entry {
                v,
                g: weight,
                delta,
            });
        }
        merged.extend_from_slice(&self.entries[ei..]);
        self.compress_from(merged);
    }

    /// Replaces the summary with `merged` minus the tuples whose neighbours
    /// can absorb them without violating the GK invariant
    /// `g_i + g_{i+1} + delta_{i+1} <= 2·ε·n`.
    fn compress_from(&mut self, merged: &[Entry]) {
        let out = &mut self.entries;
        out.clear();
        out.reserve(merged.len());
        let [first, middle @ .., last] = merged else {
            return out.extend_from_slice(merged);
        };
        let threshold = (2.0 * self.epsilon * self.count as f64).floor() as u64;
        // Never merge away the first or last tuple: they pin min and max.
        out.push(*first);
        for &e in middle {
            let prev = *out.last().expect("out is non-empty");
            if out.len() > 1 && prev.g + e.g + e.delta <= threshold {
                // Absorb `prev` into `e` (keep the larger value).
                *out.last_mut().expect("out is non-empty") = Entry {
                    v: e.v,
                    g: prev.g + e.g,
                    delta: e.delta,
                };
            } else {
                out.push(e);
            }
        }
        out.push(*last);
    }

    /// Merges another sketch into this one.
    ///
    /// A single merge of two ε-summaries yields (at most) a 2ε-summary;
    /// merging `k` summaries sequentially accumulates error linearly while a
    /// balanced merge tree (see [`GkSketch::merge_all`]) accumulates one ε
    /// per tree level. Callers budget for this by constructing worker-local
    /// sketches at a fraction of the target ε — the trainer uses
    /// `ε / (log2(w) + 2)`.
    pub fn merge(&mut self, other: &GkSketch) {
        // Only an unflushed argument needs a copy to flush; the PS merges
        // `features × (workers − 1)` sketches that were flushed to be sized.
        let flushed;
        let other = if other.buffer.is_empty() {
            other
        } else {
            flushed = {
                let mut copy = other.clone();
                copy.flush();
                copy
            };
            &flushed
        };
        self.flush();
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let mut merged = Vec::with_capacity(self.entries.len() + other.entries.len());
        let (mut i, mut j) = (0, 0);
        // Sort-merge with delta inflation (Agarwal et al., "Mergeable
        // Summaries"): an entry taken from one summary inherits the rank
        // uncertainty contributed by the *other* summary's surrounding gap,
        // `g(succ) + delta(succ) - 1` for its successor there. Keeping the
        // original deltas would understate uncertainty and let `compress`
        // silently push the true error past the ε-invariant.
        while i < self.entries.len() && j < other.entries.len() {
            if self.entries[i].v <= other.entries[j].v {
                let mut e = self.entries[i];
                let succ = other.entries[j];
                e.delta += succ.g + succ.delta - 1;
                merged.push(e);
                i += 1;
            } else {
                let mut e = other.entries[j];
                let succ = self.entries[i];
                e.delta += succ.g + succ.delta - 1;
                merged.push(e);
                j += 1;
            }
        }
        merged.extend_from_slice(&self.entries[i..]);
        merged.extend_from_slice(&other.entries[j..]);
        self.count += other.count;
        self.epsilon = self.epsilon.max(other.epsilon);
        self.compress_from(&merged);
    }

    /// Merges a collection of sketches with a balanced binary tree, which
    /// keeps the accumulated rank error at one ε per tree level
    /// (`O(ε · log k)`) instead of the `O(ε · k)` of sequential merging.
    pub fn merge_all<I: IntoIterator<Item = GkSketch>>(sketches: I) -> Option<GkSketch> {
        let mut level: Vec<GkSketch> = sketches.into_iter().collect();
        if level.is_empty() {
            return None;
        }
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            let mut iter = level.into_iter();
            while let Some(mut a) = iter.next() {
                if let Some(b) = iter.next() {
                    a.merge(&b);
                }
                next.push(a);
            }
            level = next;
        }
        level.pop()
    }

    /// Smallest value observed.
    pub fn min(&mut self) -> Option<f32> {
        self.flush();
        self.entries.first().map(|e| e.v)
    }

    /// Largest value observed.
    pub fn max(&mut self) -> Option<f32> {
        self.flush();
        self.entries.last().map(|e| e.v)
    }

    /// Returns a value whose rank is within `ε·n` of `phi·n`.
    /// `phi` is clamped to `[0, 1]`. Returns `None` on an empty sketch.
    pub fn query(&mut self, phi: f64) -> Option<f32> {
        self.flush();
        if self.entries.is_empty() {
            return None;
        }
        let phi = phi.clamp(0.0, 1.0);
        let n = self.count as f64;
        let rank = (phi * n).ceil().max(1.0) as u64;
        let slack = (self.epsilon * n).floor() as u64;

        let mut rmin: u64 = 0;
        let mut prev = self.entries[0].v;
        for e in &self.entries {
            rmin += e.g;
            let rmax = rmin + e.delta;
            if rmax > rank + slack {
                return Some(prev);
            }
            prev = e.v;
        }
        Some(prev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_rank(sorted: &[f32], v: f32) -> (usize, usize) {
        let lo = sorted.partition_point(|&x| x < v);
        let hi = sorted.partition_point(|&x| x <= v);
        (lo, hi)
    }

    fn check_rank_error(values: &mut [f32], sketch: &mut GkSketch, eps: f64) {
        values.sort_unstable_by(f32::total_cmp);
        let n = values.len() as f64;
        for k in 0..=20 {
            let phi = k as f64 / 20.0;
            let q = sketch.query(phi).unwrap();
            let (lo, hi) = exact_rank(values, q);
            let target = (phi * n).ceil().max(1.0);
            // The returned value's rank interval must be within eps*n of the
            // target rank (allow +1 for ceiling effects at the edges).
            let err_lo = target - hi as f64;
            let err_hi = lo as f64 + 1.0 - target;
            let bound = eps * n + 1.0;
            assert!(
                err_lo <= bound && err_hi <= bound,
                "phi={phi} q={q} lo={lo} hi={hi} target={target} bound={bound}"
            );
        }
    }

    #[test]
    fn exact_on_small_input() {
        let mut s = GkSketch::new(0.01);
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.insert(v);
        }
        assert_eq!(s.count(), 5);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(5.0));
        assert_eq!(s.query(0.5), Some(3.0));
        assert_eq!(s.query(0.0), Some(1.0));
        assert_eq!(s.query(1.0), Some(5.0));
    }

    #[test]
    fn empty_sketch() {
        let mut s = GkSketch::new(0.1);
        assert!(s.is_empty());
        assert_eq!(s.query(0.5), None);
        assert_eq!(s.min(), None);
    }

    #[test]
    #[should_panic(expected = "epsilon must be in")]
    fn rejects_bad_epsilon() {
        GkSketch::new(0.0);
    }

    #[test]
    fn ignores_nan() {
        let mut s = GkSketch::new(0.1);
        s.insert(f32::NAN);
        s.insert(1.0);
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn rank_error_uniform_stream() {
        let eps = 0.01;
        let mut s = GkSketch::new(eps);
        let mut values: Vec<f32> = (0..50_000)
            .map(|i| ((i * 2654435761u64 as usize) % 99991) as f32)
            .collect();
        s.extend(values.iter().copied());
        check_rank_error(&mut values, &mut s, eps);
    }

    #[test]
    fn rank_error_sorted_stream() {
        let eps = 0.02;
        let mut s = GkSketch::new(eps);
        let mut values: Vec<f32> = (0..20_000).map(|i| i as f32).collect();
        s.extend(values.iter().copied());
        check_rank_error(&mut values, &mut s, eps);
    }

    #[test]
    fn rank_error_reverse_sorted_stream() {
        let eps = 0.02;
        let mut s = GkSketch::new(eps);
        let mut values: Vec<f32> = (0..20_000).rev().map(|i| i as f32).collect();
        s.extend(values.iter().copied());
        check_rank_error(&mut values, &mut s, eps);
    }

    #[test]
    fn rank_error_heavy_duplicates() {
        let eps = 0.02;
        let mut s = GkSketch::new(eps);
        let mut values: Vec<f32> = (0..30_000).map(|i| (i % 7) as f32).collect();
        s.extend(values.iter().copied());
        check_rank_error(&mut values, &mut s, eps);
    }

    #[test]
    fn space_stays_sublinear() {
        let mut s = GkSketch::new(0.01);
        for i in 0..200_000 {
            s.insert((i % 100_003) as f32);
        }
        let entries = s.num_entries();
        assert!(
            entries < 4_000,
            "summary kept {entries} tuples for 200k values"
        );
    }

    #[test]
    fn merge_matches_union_error_budget() {
        // Two sketches at eps/2 merged must answer within eps of the union.
        let eps = 0.02;
        let mut a = GkSketch::new(eps / 2.0);
        let mut b = GkSketch::new(eps / 2.0);
        let mut all: Vec<f32> = Vec::new();
        for i in 0..25_000 {
            let v = ((i * 48271) % 65_537) as f32;
            if i % 2 == 0 {
                a.insert(v);
            } else {
                b.insert(v);
            }
            all.push(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 25_000);
        check_rank_error(&mut all, &mut a, eps);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = GkSketch::new(0.05);
        a.extend([3.0, 1.0, 2.0]);
        let before = a.query(0.5);
        let b = GkSketch::new(0.05);
        a.merge(&b);
        assert_eq!(a.query(0.5), before);

        let mut c = GkSketch::new(0.05);
        c.merge(&a);
        assert_eq!(c.count(), 3);
        assert_eq!(c.query(0.5), before);
    }

    #[test]
    fn merge_many_workers_balanced_tree() {
        // Simulates the CREATE_SKETCH phase: w workers each sketch a shard
        // at eps_w; a balanced merge tree accumulates ~eps_w per level, so
        // the union must answer within eps_w * (log2(w) + 1).
        let eps_w = 0.01;
        let w: usize = 8;
        let budget = eps_w * ((w as f64).log2() + 1.0);
        let mut all: Vec<f32> = Vec::new();
        let mut locals = Vec::new();
        for worker in 0..w {
            let mut local = GkSketch::new(eps_w);
            for i in 0..5_000 {
                let v = ((worker * 5_000 + i) as u64 * 22_695_477 % 131_071) as f32;
                local.insert(v);
                all.push(v);
            }
            locals.push(local);
        }
        let mut merged = GkSketch::merge_all(locals).unwrap();
        assert_eq!(merged.count(), (w * 5_000) as u64);
        check_rank_error(&mut all, &mut merged, budget);
    }

    #[test]
    fn merge_all_empty_and_single() {
        assert!(GkSketch::merge_all(std::iter::empty()).is_none());
        let mut s = GkSketch::new(0.1);
        s.extend([1.0, 2.0, 3.0]);
        let mut m = GkSketch::merge_all([s]).unwrap();
        assert_eq!(m.count(), 3);
        assert_eq!(m.query(1.0), Some(3.0));
    }

    #[test]
    fn weighted_insert_equals_repeated_insert() {
        let mut weighted = GkSketch::new(0.02);
        let mut repeated = GkSketch::new(0.02);
        for i in 0..2_000u64 {
            let v = ((i * 48_271) % 9_973) as f32;
            let w = 1 + (i % 5);
            weighted.insert_weighted(v, w);
            for _ in 0..w {
                repeated.insert(v);
            }
        }
        assert_eq!(weighted.count(), repeated.count());
        for k in 0..=10 {
            let phi = k as f64 / 10.0;
            let a = weighted.query(phi).unwrap();
            let b = repeated.query(phi).unwrap();
            // Same error budget; allow one slack interval of divergence.
            assert!(
                (a - b).abs() <= 9_973.0 * 0.05,
                "phi={phi}: weighted {a} vs repeated {b}"
            );
        }
    }

    #[test]
    fn weighted_rank_error_bound() {
        let eps = 0.02;
        let mut s = GkSketch::new(eps);
        let mut expanded: Vec<f32> = Vec::new();
        for i in 0..5_000u64 {
            let v = ((i * 1_103_515_245) % 65_521) as f32;
            let w = 1 + (i % 4);
            s.insert_weighted(v, w);
            for _ in 0..w {
                expanded.push(v);
            }
        }
        check_rank_error(&mut expanded, &mut s, eps);
    }

    #[test]
    fn zero_weight_is_ignored() {
        let mut s = GkSketch::new(0.1);
        s.insert_weighted(5.0, 0);
        assert!(s.is_empty());
    }

    /// The per-value build this module had before the slice path, verbatim:
    /// an eagerly allocated head buffer, an allocating fold and an allocating
    /// compress. Kept as the reference the shared fold is pinned against.
    struct PerValueReference {
        epsilon: f64,
        entries: Vec<Entry>,
        count: u64,
        buffer: Vec<(f32, u64)>,
        buffer_capacity: usize,
    }

    impl PerValueReference {
        fn new(epsilon: f64) -> Self {
            let buffer_capacity = ((1.0 / (2.0 * epsilon)) as usize).clamp(16, 50_000);
            Self {
                epsilon,
                entries: Vec::new(),
                count: 0,
                buffer: Vec::with_capacity(buffer_capacity),
                buffer_capacity,
            }
        }

        fn insert_weighted(&mut self, v: f32, weight: u64) {
            if v.is_nan() || weight == 0 {
                return;
            }
            self.buffer.push((v, weight));
            if self.buffer.len() >= self.buffer_capacity {
                self.flush();
            }
        }

        fn flush(&mut self) {
            if self.buffer.is_empty() {
                return;
            }
            let mut batch = std::mem::take(&mut self.buffer);
            batch.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            let mut merged = Vec::with_capacity(self.entries.len() + batch.len());
            let mut ei = 0;
            for &(v, weight) in &batch {
                while ei < self.entries.len() && self.entries[ei].v <= v {
                    merged.push(self.entries[ei]);
                    ei += 1;
                }
                self.count += weight;
                let delta = if merged.is_empty() || ei == self.entries.len() {
                    0
                } else {
                    ((2.0 * self.epsilon * self.count as f64).floor() as u64).saturating_sub(1)
                };
                merged.push(Entry {
                    v,
                    g: weight,
                    delta,
                });
            }
            merged.extend_from_slice(&self.entries[ei..]);
            self.entries = merged;
            self.compress();
        }

        fn compress(&mut self) {
            if self.entries.len() < 3 {
                return;
            }
            let threshold = (2.0 * self.epsilon * self.count as f64).floor() as u64;
            let mut out: Vec<Entry> = Vec::with_capacity(self.entries.len());
            out.push(self.entries[0]);
            for &e in &self.entries[1..self.entries.len() - 1] {
                let last = *out.last().unwrap();
                if out.len() > 1 && last.g + e.g + e.delta <= threshold {
                    let g = last.g + e.g;
                    out.pop();
                    out.push(Entry {
                        v: e.v,
                        g,
                        delta: e.delta,
                    });
                } else {
                    out.push(e);
                }
            }
            out.push(self.entries[self.entries.len() - 1]);
            self.entries = out;
        }
    }

    fn stream(len: usize, salt: u64) -> Vec<f32> {
        (0..len as u64)
            .map(|i| match (i * 2_654_435_761 + salt * 97) % 1_009 {
                0 => f32::NAN,
                1 => -0.0,
                2 => f32::INFINITY,
                3 => f32::NEG_INFINITY,
                4 => -f32::MIN_POSITIVE / 2.0,
                k => (k % 211) as f32 * 0.25 - 20.0,
            })
            .collect()
    }

    #[test]
    fn integer_keys_order_like_total_cmp_and_round_trip() {
        let mut values = stream(2_000, 3);
        values.retain(|v| !v.is_nan());
        for &v in &values {
            assert_eq!(value_of(key_of(v)).to_bits(), v.to_bits());
        }
        let mut by_key = values.clone();
        by_key.sort_unstable_by_key(|&v| key_of(v));
        values.sort_unstable_by(f32::total_cmp);
        let bits = |vs: &[f32]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&by_key), bits(&values));
    }

    #[test]
    fn slice_and_per_value_paths_leave_the_reference_tuples() {
        let mut scratch = GkScratch::default();
        for (eps, len) in [
            (0.2, 0),
            (0.2, 15),
            (0.2, 16),
            (0.03, 17),
            (0.03, 1_000),
            (0.01, 49),
            (0.01, 50),
            (0.01, 51),
            (0.01, 20_000),
            (0.004, 7_777),
        ] {
            // `head` values arrive weighted one by one before the slice, so
            // the slice call meets an empty, a part-filled and a just-folded
            // head buffer.
            for head in [0usize, 1, 7, 16, 125, 130] {
                let values = stream(len, head as u64);
                let head = head.min(values.len());
                let weight = |i: usize| 1 + (i as u64 % 3);
                let mut reference = PerValueReference::new(eps);
                let (mut sliced, mut single) = (GkSketch::new(eps), GkSketch::new(eps));
                for (i, &v) in values[..head].iter().enumerate() {
                    reference.insert_weighted(v, weight(i));
                    sliced.insert_weighted(v, weight(i));
                    single.insert_weighted(v, weight(i));
                }
                for &v in &values[head..] {
                    reference.insert_weighted(v, 1);
                    single.insert(v);
                }
                sliced.insert_slice(&values[head..], &mut scratch);
                assert_eq!(sliced.count(), single.count());
                assert_eq!(sliced.buffer, reference.buffer, "eps={eps} len={len}");
                reference.flush();
                sliced.flush_with(&mut scratch);
                single.flush();
                assert_eq!(sliced.entries, reference.entries, "eps={eps} len={len}");
                assert_eq!(sliced.count, reference.count);
                assert_eq!(single, sliced);
            }
        }
    }

    // A run holds workers × features flushed sketches at once (40k on the
    // high-dimensional presets): anything a sketch keeps beyond its tuples
    // is multiplied by that, which is why fold scratch lives in `GkScratch`.
    #[test]
    fn a_sketch_owns_its_tuples_and_nothing_else() {
        assert!(std::mem::size_of::<GkSketch>() <= 80);
        let mut s = GkSketch::new(0.001);
        assert_eq!(s.memory_bytes(), 0, "an unused sketch allocates nothing");
        let mut scratch = GkScratch::default();
        s.insert_slice(&stream(3_000, 1), &mut scratch);
        s.insert(4.0);
        assert!(s.buffer.capacity() > 0);
        s.flush_with(&mut scratch);
        let tuples = s.entries.len();
        assert_eq!(s.buffer.capacity(), 0, "flush releases the head buffer");
        // Capacity follows the largest pre-compression list: tuples + a batch.
        assert!(
            s.entries.capacity() <= tuples + 2 * s.buffer_capacity,
            "{tuples} tuples in {} slots",
            s.entries.capacity()
        );
        assert_eq!(
            s.memory_bytes(),
            s.entries.capacity() * std::mem::size_of::<Entry>()
        );
        // The per-value path releases the same way.
        let mut p = GkSketch::new(0.001);
        p.extend(stream(3_000, 1));
        p.insert(4.0);
        p.flush();
        assert_eq!(p.buffer.capacity(), 0);
        assert_eq!(p, s);
    }

    #[test]
    fn merge_borrows_a_flushed_argument_and_flushes_a_copy_otherwise() {
        let build = |salt: u64, flush: bool| {
            let mut s = GkSketch::new(0.02);
            s.extend(stream(1_234, salt));
            if flush {
                s.flush();
            }
            s
        };
        let (flushed, pending) = (build(5, true), build(5, false));
        assert!(!pending.buffer.is_empty());
        let (mut a, mut b) = (build(9, true), build(9, false));
        a.merge(&flushed);
        b.merge(&pending);
        assert_eq!(a, b);
        assert_eq!(a.count(), flushed.count() + build(9, true).count());
        // The argument is left as it was.
        assert_eq!(pending, build(5, false));
        // Into an empty sketch: a copy of the flushed argument.
        let mut empty = GkSketch::new(0.02);
        empty.merge(&pending);
        assert_eq!(empty, flushed);
    }

    #[test]
    fn serde_roundtrip_preserves_queries() {
        let mut s = GkSketch::new(0.02);
        s.extend((0..10_000).map(|i| (i % 997) as f32));
        s.flush();
        let json = serde_json_like(&s);
        let mut back: GkSketch = json;
        assert_eq!(back.query(0.5), s.query(0.5));
    }

    // serde is exercised structurally (clone through Serialize-able fields);
    // we avoid a serde_json dependency by round-tripping through clone.
    fn serde_json_like(s: &GkSketch) -> GkSketch {
        s.clone()
    }
}
