//! Recompute-over-store for the prediction-error history.
//!
//! The per-metric error series is *derived*: every stored error was the
//! return of [`OnlineLearner::feed`] on a value that is itself retained
//! in the paired [`TieredSeries`]. Unlike raw metric values — which
//! Gorilla-compress to a few percent of their flat footprint because
//! monitored signals repeat — prediction errors are incompressible by
//! construction: the adapting model's decayed transition masses shift on
//! every observation, so each error carries fresh low-mantissa entropy
//! (measured 0.74–0.88 of flat under XOR or dictionary coding).
//!
//! [`DerivedSeries`] therefore stores no cold error tier at all. It keeps
//! the raw hot suffix the streaming engine reads on every push, plus a
//! *shadow learner*: a snapshot of the live learner exactly as it was
//! before absorbing the oldest retained value. Deep reads clone the
//! shadow and replay the stored values through it — `feed` is a pure
//! deterministic f64 computation and decoded cold values are bit-exact,
//! so regenerated errors match what the live learner produced bit for
//! bit. The shadow advances one `feed` per eviction (consuming the value
//! about to leave the window), amortized by decoding the paired series'
//! doomed prefix in chunks.
//!
//! The daemon sizes the hot suffix for `W + 3` samples, so neither the
//! per-push read `errors[len − 1 − W]` nor a sketch-floored analysis
//! (which reads errors from `len − W − 3`) ever replays. Deep error
//! reads happen on sketch rebuilds (series transitions) and on analyses
//! whose error floor comes from the history — a look-back override, a
//! violation before the latest tick, a series not yet steady, or the
//! batch engine. Each replays up to `capacity` cheap `feed` calls,
//! counted as `error_history_replayed`; that is the price of
//! eliminating the one cold tier that refuses to compress.

use fchain_metrics::TieredSeries;
use fchain_model::OnlineLearner;
use std::collections::VecDeque;

/// How many doomed values are decoded from the paired series per refill
/// of the eviction buffer — one cold block, so the per-push shadow
/// advance costs O(1) amortized.
const EVICT_CHUNK: usize = 128;

/// Bounded error history that materializes only its raw hot suffix and
/// regenerates everything older by replaying the paired value series
/// through a shadow learner. Reads are bit-identical to a flat ring of
/// the same capacity.
///
/// Every read that may reach below the hot suffix takes the paired
/// `values` series; the caller (the per-metric state) owns both and
/// pushes them in lockstep, so `len()` always equals `values.len()`.
#[derive(Debug)]
pub(crate) struct DerivedSeries {
    /// Materialized suffix: ring-local indices `[len − hot.len(), len)`.
    hot: VecDeque<f64>,
    /// Raw samples the hot suffix retains once warmed.
    hot_capacity: usize,
    /// Logical window size; mirrors the paired series' capacity.
    capacity: usize,
    /// Logical length (samples currently in the window).
    len: usize,
    /// The live learner's state as of ring-local index 0: feeding it
    /// `values[0..]` reproduces `errors[0..]` exactly.
    shadow: OnlineLearner,
    /// Values about to be evicted from the paired series, decoded ahead
    /// in chunks; the front is always the paired series' ring-local 0.
    evict_buf: VecDeque<f64>,
}

impl DerivedSeries {
    /// Creates an empty series whose shadow starts as a fresh learner —
    /// identical to the live learner before its first sample.
    pub(crate) fn new(capacity: usize, hot_capacity: usize, shadow: OnlineLearner) -> Self {
        assert!(capacity > 0, "capacity must be non-zero");
        assert!(hot_capacity > 0, "hot capacity must be non-zero");
        DerivedSeries {
            hot: VecDeque::new(),
            hot_capacity,
            capacity,
            len: 0,
            shadow,
            evict_buf: VecDeque::new(),
        }
    }

    /// Logical length.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Advances the shadow past the value the paired series is about to
    /// evict. Must be called exactly once before each eviction-causing
    /// push, while `values` still holds the doomed sample at ring-local
    /// index 0.
    pub(crate) fn pre_evict(&mut self, values: &TieredSeries) {
        if self.evict_buf.is_empty() {
            self.evict_buf
                .extend(values.iter_range(0, EVICT_CHUNK.min(values.len())));
        }
        let doomed = self.evict_buf.pop_front().expect("refilled above");
        let _ = self.shadow.feed(doomed);
        self.len -= 1;
    }

    /// Appends the error the live learner just produced. The caller must
    /// have routed any same-push eviction through
    /// [`DerivedSeries::pre_evict`] first.
    pub(crate) fn push(&mut self, error: f64) {
        debug_assert!(self.len < self.capacity, "pre_evict must run first");
        self.len += 1;
        self.hot.push_back(error);
        while self.hot.len() > self.hot_capacity.min(self.len) {
            self.hot.pop_front();
        }
    }

    /// The error at ring-local index `i`: a direct read inside the hot
    /// suffix, a shadow replay below it.
    pub(crate) fn get(&self, i: usize, values: &TieredSeries) -> Option<f64> {
        if i >= self.len {
            return None;
        }
        let hot_start = self.len - self.hot.len();
        if i >= hot_start {
            return Some(self.hot[i - hot_start]);
        }
        let mut shadow = self.shadow.clone();
        let mut out = None;
        for (j, v) in values.iter_range(0, i + 1).enumerate() {
            let e = shadow.feed(v);
            if j == i {
                out = Some(e);
            }
        }
        out
    }

    /// Copies the errors at ring-local `[start, end)` (`end` clamped to
    /// the length) into `out`, replacing its contents, and returns how
    /// many samples the shadow learner re-fed to regenerate them.
    ///
    /// A range inside the hot suffix is a plain copy and replays nothing.
    /// The shadow sits at ring-local index 0, so a range reaching below
    /// the hot suffix replays every value up to the hot start (or to
    /// `end`, if sooner): the values are decoded into `out` and each is
    /// overwritten with its error in place, so the only allocation is the
    /// shadow clone (and `out` growing on first use).
    pub(crate) fn copy_range_into(
        &self,
        start: usize,
        end: usize,
        values: &TieredSeries,
        out: &mut Vec<f64>,
    ) -> usize {
        out.clear();
        let end = end.min(self.len);
        let start = start.min(end);
        let hot_start = self.len - self.hot.len();
        let mut replayed = 0;
        if start < end.min(hot_start) {
            replayed = end.min(hot_start);
            values.copy_range_into(0, replayed, out);
            let mut shadow = self.shadow.clone();
            for x in out.iter_mut() {
                *x = shadow.feed(*x);
            }
            out.drain(..start);
        }
        if end > hot_start {
            let from = start.max(hot_start) - hot_start;
            out.extend(self.hot.range(from..end - hot_start).copied());
        }
        replayed
    }

    /// The whole series as a vector, oldest first.
    #[cfg(test)]
    pub(crate) fn to_vec(&self, values: &TieredSeries) -> Vec<f64> {
        let mut out = Vec::new();
        self.copy_range_into(0, self.len, values, &mut out);
        out
    }

    /// Heap bytes of the materialized state (hot suffix + eviction
    /// buffer); the shadow learner is accounted with the model matrices.
    pub(crate) fn hot_bytes(&self) -> usize {
        (self.hot.capacity() + self.evict_buf.capacity()) * std::mem::size_of::<f64>()
    }

    /// Heap bytes an equivalent flat ring of `capacity` would hold.
    pub(crate) fn flat_ring_bytes(&self) -> usize {
        self.capacity * std::mem::size_of::<f64>()
    }

    /// Total heap footprint, excluding the shadow's model matrices.
    pub(crate) fn approx_bytes(&self) -> usize {
        std::mem::size_of::<DerivedSeries>() + self.hot_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fchain_model::LearnerConfig;

    /// A jagged signal that keeps the learner's decayed masses moving, so
    /// regenerated errors only match if the shadow replay is bit-exact.
    fn value(t: u64) -> f64 {
        40.0 + ((t / 6 * 3 + t * t % 11) % 7) as f64 + (t % 13) as f64 * 0.25
    }

    /// Drives a live learner + paired stores exactly like the daemon's
    /// push path and returns the flat reference error list alongside.
    fn build(ticks: u64, capacity: usize, hot: usize) -> (TieredSeries, DerivedSeries, Vec<f64>) {
        let config = LearnerConfig::default();
        let mut learner = OnlineLearner::new(config.clone());
        let mut values = TieredSeries::new(capacity, hot);
        let mut errors = DerivedSeries::new(capacity, hot, OnlineLearner::new(config));
        let mut reference = Vec::new();
        for t in 0..ticks {
            let v = value(t);
            if values.len() == values.capacity() {
                errors.pre_evict(&values);
            }
            let e = learner.feed(v);
            values.push(v);
            errors.push(e);
            reference.push(e);
            assert_eq!(errors.len(), values.len());
        }
        let start = reference.len().saturating_sub(capacity);
        (values, errors, reference.split_off(start))
    }

    #[test]
    fn replay_matches_flat_reference_across_evictions() {
        // 4200 pushes through a 4000-slot window: the shadow advances 200
        // times, the hot suffix covers only the last 512 samples, and
        // every regenerated index must still match the live feed.
        let (values, errors, reference) = build(4200, 4000, 512);
        assert_eq!(errors.len(), reference.len());
        for i in [0, 1, 59, 60, 61, 1000, 3487, 3488, 3999] {
            assert_eq!(
                errors.get(i, &values).unwrap().to_bits(),
                reference[i].to_bits(),
                "index {i} diverged"
            );
        }
        let full = errors.to_vec(&values);
        assert_eq!(full.len(), reference.len());
        for (i, (a, b)) in full.iter().zip(&reference).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "index {i} diverged");
        }
    }

    /// `errors[start..end]` through the range read, with its replay count.
    fn range(
        errors: &DerivedSeries,
        values: &TieredSeries,
        start: usize,
        end: usize,
    ) -> (Vec<f64>, usize) {
        // A dirty buffer: the read must replace its contents.
        let mut out = vec![f64::NAN; 7];
        let replayed = errors.copy_range_into(start, end, values, &mut out);
        (out, replayed)
    }

    #[test]
    fn range_reads_stitch_replay_and_hot() {
        let (values, errors, reference) = build(4200, 4000, 512);
        // Straddles the replay/hot boundary (hot starts at 4000 − 512).
        let (span, replayed) = range(&errors, &values, 3400, 3600);
        assert_eq!(span.len(), 200);
        assert_eq!(replayed, 3488);
        for (i, e) in span.iter().enumerate() {
            assert_eq!(e.to_bits(), reference[3400 + i].to_bits());
        }
        // Wholly below the hot suffix: the replay stops at the range end.
        let (span, replayed) = range(&errors, &values, 100, 300);
        assert_eq!(replayed, 300);
        for (i, e) in span.iter().enumerate() {
            assert_eq!(e.to_bits(), reference[100 + i].to_bits());
        }
        assert_eq!(range(&errors, &values, 100, 100), (Vec::new(), 0));
        assert_eq!(range(&errors, &values, 3990, 9999).0.len(), 10);
    }

    #[test]
    fn window_suffix_reads_replay_nothing() {
        // The daemon sizes the hot suffix with `hot_capacity_for(W)`; a
        // sketch-floored analysis reads errors from `len − W − 3`. At
        // W = 126, `W + 2` is a whole block, so that read is the one a
        // `W + 2` sizing would push one sample into the replay.
        for w in [100usize, 126] {
            let hot = super::super::daemon::hot_capacity_for(w as u64);
            let (values, errors, reference) = build(4200, 4000, hot);
            let len = errors.len();
            let (suffix, replayed) = range(&errors, &values, len - w - 3, len);
            assert_eq!(replayed, 0, "W = {w}");
            for (e, r) in suffix.iter().zip(&reference[len - w - 3..]) {
                assert_eq!(e.to_bits(), r.to_bits(), "W = {w}");
            }
            // One sample below the hot suffix replays up to its start.
            let hot_start = len - hot;
            let (deep, replayed) = range(&errors, &values, hot_start - 1, len);
            assert_eq!(replayed, hot_start, "W = {w}");
            assert_eq!(deep[0].to_bits(), reference[hot_start - 1].to_bits());
        }
    }

    #[test]
    fn small_windows_never_outgrow_their_length() {
        // Chaos-lab shape: capacity barely above the hot target, so the
        // hot suffix is clamped by the logical length, not hot_capacity.
        let (values, errors, reference) = build(700, 516, 512);
        assert_eq!(errors.len(), 516);
        let full = errors.to_vec(&values);
        for (i, (a, b)) in full.iter().zip(&reference).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "index {i} diverged");
        }
    }

    #[test]
    fn stores_no_cold_tier() {
        let (_, errors, _) = build(4200, 4000, 512);
        // Hot suffix + at most one decode chunk, far below the flat ring.
        assert!(errors.hot_bytes() < 2 * (512 + EVICT_CHUNK) * 8);
        assert_eq!(errors.flat_ring_bytes(), 4000 * 8);
    }
}
