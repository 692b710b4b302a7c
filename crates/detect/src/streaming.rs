//! Streaming front-end for the CUSUM + bootstrap detector.
//!
//! The batch [`CusumDetector`] re-allocates its prefix table, bootstrap
//! scratch and output vector on every call — fine for one-shot analysis,
//! wasteful for a daemon that re-examines the same metric at every SLO
//! violation. [`StreamingCusum`] keeps those buffers (and optionally the
//! sample window itself) alive across calls: samples are folded in one at
//! a time at ingest, and change points for any suffix window are produced
//! on demand without re-ingesting history and without allocating after
//! warm-up.
//!
//! Detection results are bit-for-bit identical to
//! [`CusumDetector::detect`] on the same window: the per-query prefix
//! table is recomputed with the exact same summation order (an
//! incrementally accumulated prefix would round differently), and the
//! bootstrap draws from a freshly seeded RNG exactly as the batch
//! detector does. What the streaming form saves is allocation and
//! re-buffering, not arithmetic — the bootstrap itself only runs when a
//! caller actually asks for change points.

use crate::cusum::{ChangePoint, CusumConfig, CusumDetector};
use std::collections::VecDeque;

/// A [`CusumDetector`] with persistent state for streaming use.
///
/// Two usage styles are supported:
///
/// * **fold + suffix query**: push samples with [`StreamingCusum::fold`]
///   as they arrive (O(1) amortized, the window is bounded by the
///   capacity passed to [`StreamingCusum::new`]) and ask for the change
///   points of the most recent `len` samples with
///   [`StreamingCusum::detect_suffix`];
/// * **external window**: keep the samples elsewhere and call
///   [`StreamingCusum::detect_window`] on a prepared slice — only the
///   detector scratch is reused. This is how the streaming analysis
///   engine runs CUSUM over the smoothed look-back window.
///
/// The detector scratch grows to `(1 + 8)·n` samples for the largest
/// window `n` queried so far — the shuffle buffer plus the `n × 8` lane
/// block of the bootstrap kernel — and is then reused by every query.
///
/// # Examples
///
/// ```
/// use fchain_detect::{CusumConfig, StreamingCusum};
///
/// let mut stream = StreamingCusum::new(CusumConfig::default(), 256);
/// for i in 0..100 {
///     stream.fold(if i < 50 { 10.0 } else { 30.0 });
/// }
/// let cps = stream.detect_suffix(100);
/// assert_eq!(cps.len(), 1);
/// assert!((cps[0].index as i64 - 50).unsigned_abs() <= 2);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingCusum {
    detector: CusumDetector,
    capacity: usize,
    window: VecDeque<f64>,
    suffix: Vec<f64>,
    prefix: Vec<f64>,
    scratch: Vec<f64>,
    out: Vec<ChangePoint>,
}

impl StreamingCusum {
    /// Creates a streaming detector whose folded window keeps the most
    /// recent `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or the configuration is invalid (same
    /// rules as [`CusumDetector::new`]).
    pub fn new(config: CusumConfig, capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be non-zero");
        StreamingCusum {
            detector: CusumDetector::new(config),
            capacity,
            window: VecDeque::with_capacity(capacity),
            suffix: Vec::new(),
            prefix: Vec::new(),
            scratch: Vec::new(),
            out: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CusumConfig {
        self.detector.config()
    }

    /// Number of samples currently folded into the window.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether no samples have been folded yet.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Folds one sample into the window, evicting the oldest sample once
    /// the window is full. O(1) amortized; never allocates after the
    /// window first fills.
    pub fn fold(&mut self, x: f64) {
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(x);
    }

    /// Drops all folded samples (e.g. after a monitoring outage reset).
    /// Scratch buffers are kept, so the next query still does not
    /// allocate.
    pub fn clear(&mut self) {
        self.window.clear();
    }

    /// Change points of the most recent `len` folded samples (capped at
    /// the current window length), sorted by index into that suffix.
    ///
    /// Bit-identical to running [`CusumDetector::detect`] on the same
    /// suffix; only the O(n) suffix assembly and prefix rebuild are paid
    /// per query — the buffers persist, so nothing allocates after
    /// warm-up.
    pub fn detect_suffix(&mut self, len: usize) -> &[ChangePoint] {
        let len = len.min(self.window.len());
        self.suffix.clear();
        let start = self.window.len() - len;
        let (a, b) = self.window.as_slices();
        if start < a.len() {
            self.suffix.extend_from_slice(&a[start..]);
            self.suffix.extend_from_slice(b);
        } else {
            self.suffix.extend_from_slice(&b[start - a.len()..]);
        }
        self.detector.detect_into(
            &self.suffix,
            &mut self.prefix,
            &mut self.scratch,
            &mut self.out,
        );
        &self.out
    }

    /// Change points of a caller-provided window, reusing the persistent
    /// detector scratch. Bit-identical to [`CusumDetector::detect`] on
    /// `xs`.
    pub fn detect_window(&mut self, xs: &[f64]) -> &[ChangePoint] {
        self.detector
            .detect_into(xs, &mut self.prefix, &mut self.scratch, &mut self.out);
        &self.out
    }

    /// [`StreamingCusum::detect_window`] with bootstrap pruning
    /// ([`CusumDetector::detect_into_pruned`]): rejection-certain
    /// segments stop their bootstrap early with the RNG fast-forwarded,
    /// so the result stays bit-identical while stretches of the window
    /// with no significant change cost a fraction of the full bootstrap.
    /// This is the variant the streaming analysis engine runs.
    pub fn detect_window_pruned(&mut self, xs: &[f64]) -> &[ChangePoint] {
        self.detector
            .detect_into_pruned(xs, &mut self.prefix, &mut self.scratch, &mut self.out);
        &self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(pre: f64, post: f64, at: usize, n: usize) -> Vec<f64> {
        (0..n).map(|i| if i < at { pre } else { post }).collect()
    }

    #[test]
    fn detect_window_matches_batch_detector() {
        let xs = step(5.0, 25.0, 40, 100);
        let batch = CusumDetector::default().detect(&xs);
        let mut stream = StreamingCusum::new(CusumConfig::default(), 128);
        assert_eq!(stream.detect_window(&xs), &batch[..]);
        // Reusing the same scratch must not change the answer.
        assert_eq!(stream.detect_window(&xs), &batch[..]);
    }

    #[test]
    fn detect_suffix_matches_batch_on_every_suffix() {
        let mut xs = step(5.0, 25.0, 30, 70);
        xs.extend(step(25.0, 60.0, 20, 50));
        let mut stream = StreamingCusum::new(CusumConfig::default(), 128);
        for &x in &xs {
            stream.fold(x);
        }
        let detector = CusumDetector::default();
        for len in [0, 1, 12, 40, 100, 120, 500] {
            let take = len.min(xs.len());
            let batch = detector.detect(&xs[xs.len() - take..]);
            assert_eq!(stream.detect_suffix(len), &batch[..], "suffix {len}");
        }
    }

    #[test]
    fn pruned_window_matches_plain_window() {
        let mut xs = step(5.0, 25.0, 30, 70);
        xs.extend(step(25.0, 60.0, 20, 50));
        xs.extend(std::iter::repeat_n(60.0, 40));
        let mut stream = StreamingCusum::new(CusumConfig::default(), 256);
        let plain = stream.detect_window(&xs).to_vec();
        assert_eq!(stream.detect_window_pruned(&xs), &plain[..]);
    }

    #[test]
    fn fold_evicts_beyond_capacity() {
        let mut stream = StreamingCusum::new(CusumConfig::default(), 50);
        let xs = step(5.0, 45.0, 70, 100);
        for &x in &xs {
            stream.fold(x);
        }
        assert_eq!(stream.len(), 50);
        // The window now holds xs[50..100]; so does the batch detector.
        let batch = CusumDetector::default().detect(&xs[50..]);
        assert_eq!(stream.detect_suffix(50), &batch[..]);
    }

    #[test]
    fn detect_suffix_wraps_around_the_ring_seam() {
        // Force the VecDeque into a wrapped state by filling past capacity
        // several times; the suffix assembly must stitch the two slices in
        // order.
        let mut stream = StreamingCusum::new(CusumConfig::default(), 64);
        let xs: Vec<f64> = (0..200)
            .map(|i| if i % 97 < 48 { 3.0 } else { 19.0 } + (i % 3) as f64)
            .collect();
        let detector = CusumDetector::default();
        for (i, &x) in xs.iter().enumerate() {
            stream.fold(x);
            if i > 80 && i % 17 == 0 {
                let window: Vec<f64> = xs[i + 1 - 64..=i].to_vec();
                let batch = detector.detect(&window);
                assert_eq!(stream.detect_suffix(64), &batch[..], "at sample {i}");
            }
        }
    }

    #[test]
    fn clear_resets_the_window_but_not_the_answerability() {
        let mut stream = StreamingCusum::new(CusumConfig::default(), 128);
        for &x in &step(5.0, 25.0, 40, 100) {
            stream.fold(x);
        }
        assert!(!stream.detect_suffix(100).is_empty());
        stream.clear();
        assert!(stream.is_empty());
        assert!(stream.detect_suffix(100).is_empty());
        for &x in &step(2.0, 42.0, 20, 60) {
            stream.fold(x);
        }
        let batch = CusumDetector::default().detect(&step(2.0, 42.0, 20, 60));
        assert_eq!(stream.detect_suffix(60), &batch[..]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = StreamingCusum::new(CusumConfig::default(), 0);
    }
}
