//! Tiered hot/cold metric storage.
//!
//! [`TieredSeries`] is a drop-in logical replacement for
//! [`RingBuffer`](crate::RingBuffer): it exposes the same windowed view
//! (the most recent `capacity` pushes, oldest first) with bit-identical
//! reads, but keeps only a short *hot* suffix as raw `f64`s. Everything
//! older lives in immutable *cold blocks*, each compressed with the
//! smaller of two lossless encodings: the Gorilla XOR value codec
//! ([`crate::gorilla`]) for smooth readings, or a per-block dictionary
//! for streams cycling through a small set of unrelated bit patterns
//! (the shape of prediction errors under a periodic workload). Both
//! return the exact bit patterns that were pushed — the equivalence is
//! pinned by proptest against a flat ring.
//!
//! Layout invariants (everything else follows from these):
//!
//! * every cold block holds exactly [`COLD_BLOCK_SAMPLES`] values;
//! * cold blocks are contiguous and ordered: block `b` covers *stored*
//!   indices `[b·B, (b+1)·B)` counted from the oldest retained sample;
//! * the hot deque holds the newest `stored − cold` samples and never
//!   dips below `hot_capacity` once it has filled past it, so reads
//!   within `hot_capacity` of the end never touch a cold block;
//! * the logical window is the last `min(total_pushed, capacity)`
//!   stored samples; the front cold block is dropped as soon as it
//!   falls entirely outside that window.
//!
//! Freezing is amortized: one block encode per `COLD_BLOCK_SAMPLES`
//! pushes, so `push` is O(1) amortized and the per-sample cost is a few
//! nanoseconds. Point reads in the hot suffix are O(1); reads into the
//! cold region decode one block (O(B)); ranged reads decode each
//! overlapping block exactly once.

use crate::gorilla::{BitWriter, ValueDecoder, ValueEncoder};
use std::collections::VecDeque;

/// Samples per frozen cold block.
///
/// 128 keeps the decode unit small (a point read in the cold region
/// costs at most 128 decode steps) while amortizing the per-block
/// header across enough samples for the XOR codec to win.
pub const COLD_BLOCK_SAMPLES: usize = 128;

/// Largest dictionary the dictionary block mode will build. 32 entries
/// cost `32 × 64` header bits and 5 bits per sample — past that the XOR
/// stream wins anyway.
const DICT_MAX: usize = 32;

/// One immutable compressed run of [`COLD_BLOCK_SAMPLES`] values.
///
/// Each block picks the smaller of two lossless encodings (tagged by
/// the leading bit):
///
/// * `0` — the Gorilla XOR stream ([`ValueEncoder`]): wins on smooth
///   readings where consecutive values share most of their bits;
/// * `1` — a per-block dictionary (distinct bit patterns + fixed-width
///   indices): wins on streams that *cycle* through a small value set
///   with unrelated bit patterns — exactly what prediction errors of a
///   periodic workload look like, where every consecutive XOR is a
///   full-mantissa difference the window codec cannot narrow.
#[derive(Debug, Clone)]
struct ColdBlock {
    bits: BitWriter,
}

impl ColdBlock {
    /// Compresses `values` (exactly one block's worth), picking the
    /// smaller encoding.
    fn freeze(values: impl Iterator<Item = f64>) -> Self {
        let values: Vec<f64> = values.collect();
        debug_assert_eq!(
            values.len(),
            COLD_BLOCK_SAMPLES,
            "cold blocks are always full"
        );
        let mut xor = BitWriter::new();
        xor.write_bits(0, 1);
        let mut enc = ValueEncoder::new();
        for &v in &values {
            enc.push(v, &mut xor);
        }
        let mut bits = match Self::dict_encode(&values) {
            Some(dict) if dict.bit_len() < xor.bit_len() => dict,
            _ => xor,
        };
        bits.shrink_to_fit();
        ColdBlock { bits }
    }

    /// The dictionary candidate, or `None` past [`DICT_MAX`] distinct
    /// bit patterns. Exact bit patterns are stored, so NaN payloads and
    /// signed zeros survive like they do in the XOR stream.
    fn dict_encode(values: &[f64]) -> Option<BitWriter> {
        let mut dict: Vec<u64> = Vec::new();
        let mut indices = [0u8; COLD_BLOCK_SAMPLES];
        for (slot, v) in values.iter().enumerate() {
            let pattern = v.to_bits();
            let idx = match dict.iter().position(|&d| d == pattern) {
                Some(i) => i,
                None => {
                    if dict.len() == DICT_MAX {
                        return None;
                    }
                    dict.push(pattern);
                    dict.len() - 1
                }
            };
            indices[slot] = idx as u8;
        }
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits((dict.len() - 1) as u64, 5);
        for &pattern in &dict {
            w.write_bits(pattern, 64);
        }
        let width = Self::index_width(dict.len());
        for &i in &indices {
            w.write_bits(u64::from(i), width);
        }
        Some(w)
    }

    /// Fixed index width for a dictionary of `len` entries.
    fn index_width(len: usize) -> u32 {
        debug_assert!((1..=DICT_MAX).contains(&len));
        (usize::BITS - (len - 1).leading_zeros()).max(1)
    }

    /// Decodes the whole block into `out` (appended). Allocates only if
    /// `out` must grow.
    fn decode_into(&self, out: &mut Vec<f64>) {
        let mut r = self.bits.reader();
        if r.read_bit() {
            let len = r.read_bits(5) as usize + 1;
            let mut dict = [0u64; DICT_MAX];
            for slot in &mut dict[..len] {
                *slot = r.read_bits(64);
            }
            let width = Self::index_width(len);
            for _ in 0..COLD_BLOCK_SAMPLES {
                out.push(f64::from_bits(dict[r.read_bits(width) as usize]));
            }
        } else {
            let mut dec = ValueDecoder::new();
            for _ in 0..COLD_BLOCK_SAMPLES {
                out.push(dec.next(&mut r));
            }
        }
    }

    /// Decodes a single in-block offset.
    fn get(&self, offset: usize) -> f64 {
        debug_assert!(offset < COLD_BLOCK_SAMPLES);
        let mut r = self.bits.reader();
        if r.read_bit() {
            let len = r.read_bits(5) as usize + 1;
            let mut dict = [0u64; DICT_MAX];
            for slot in &mut dict[..len] {
                *slot = r.read_bits(64);
            }
            let width = Self::index_width(len);
            let mut idx = r.read_bits(width);
            for _ in 0..offset {
                idx = r.read_bits(width);
            }
            f64::from_bits(dict[idx as usize])
        } else {
            let mut dec = ValueDecoder::new();
            let mut value = dec.next(&mut r);
            for _ in 0..offset {
                value = dec.next(&mut r);
            }
            value
        }
    }

    /// Compressed footprint in bytes.
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<ColdBlock>() + self.bits.approx_bytes()
    }
}

/// A fixed-capacity series with a raw hot suffix and compressed cold
/// prefix, logically identical to a flat [`RingBuffer`](crate::RingBuffer).
#[derive(Debug, Clone)]
pub struct TieredSeries {
    /// Logical window: number of trailing pushes that stay readable.
    capacity: usize,
    /// Minimum raw suffix length (once warm). Reads within this
    /// distance of the end are guaranteed O(1).
    hot_capacity: usize,
    /// Newest samples, oldest first.
    hot: VecDeque<f64>,
    /// Frozen blocks, oldest first. All full.
    cold: VecDeque<ColdBlock>,
    /// Samples held across `cold` (= `cold.len() * COLD_BLOCK_SAMPLES`).
    cold_samples: usize,
    /// Lifetime pushes.
    total_pushed: u64,
}

impl TieredSeries {
    /// Creates an empty series retaining the last `capacity` pushes,
    /// with at least the last `hot_capacity` of those kept raw.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, hot_capacity: usize) -> Self {
        assert!(capacity > 0, "tiered series capacity must be non-zero");
        TieredSeries {
            capacity,
            hot_capacity: hot_capacity.max(1),
            hot: VecDeque::new(),
            cold: VecDeque::new(),
            cold_samples: 0,
            total_pushed: 0,
        }
    }

    /// Logical window size.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Guaranteed-raw suffix length once the series has warmed past it.
    pub fn hot_capacity(&self) -> usize {
        self.hot_capacity
    }

    /// Number of readable values (`min(total_pushed, capacity)`).
    pub fn len(&self) -> usize {
        if self.total_pushed >= self.capacity as u64 {
            self.capacity
        } else {
            self.total_pushed as usize
        }
    }

    /// Whether nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.total_pushed == 0
    }

    /// Lifetime pushes (including ones that have scrolled out).
    pub fn total_pushed(&self) -> u64 {
        self.total_pushed
    }

    /// Stored samples across both tiers (may exceed `len()` by the
    /// not-yet-trimmed overhang at the front of the oldest block).
    fn stored(&self) -> usize {
        self.cold_samples + self.hot.len()
    }

    /// Stored index of logical index 0.
    fn overhang(&self) -> usize {
        self.stored() - self.len()
    }

    /// Appends a value, evicting the oldest once past capacity.
    pub fn push(&mut self, value: f64) {
        self.hot.push_back(value);
        self.total_pushed += 1;
        // Freeze: keep the raw suffix in [hot_capacity, hot_capacity + B).
        if self.hot.len() == self.hot_capacity + COLD_BLOCK_SAMPLES {
            let block = ColdBlock::freeze(self.hot.drain(..COLD_BLOCK_SAMPLES));
            self.cold.push_back(block);
            self.cold_samples += COLD_BLOCK_SAMPLES;
        }
        // Trim: drop front blocks that fell entirely out of the window.
        while !self.cold.is_empty() && self.overhang() >= COLD_BLOCK_SAMPLES {
            self.cold.pop_front();
            self.cold_samples -= COLD_BLOCK_SAMPLES;
        }
    }

    /// The most recently pushed value.
    pub fn latest(&self) -> Option<f64> {
        self.hot.back().copied()
    }

    /// Value at logical index `i` (0 = oldest retained). O(1) in the
    /// hot suffix, one block decode in the cold region.
    pub fn get(&self, i: usize) -> Option<f64> {
        if i >= self.len() {
            return None;
        }
        let j = i + self.overhang();
        if j >= self.cold_samples {
            return self.hot.get(j - self.cold_samples).copied();
        }
        Some(self.cold[j / COLD_BLOCK_SAMPLES].get(j % COLD_BLOCK_SAMPLES))
    }

    /// Copies logical indices `[start, end)` (oldest first) into `out`,
    /// replacing its contents; `end` is clamped to `len()`. Only the cold
    /// blocks overlapping the range are decoded, each once, straight into
    /// `out` — a buffer that has grown to the range once is reused with
    /// no further allocation.
    pub fn copy_range_into(&self, start: usize, end: usize, out: &mut Vec<f64>) {
        out.clear();
        let end = end.min(self.len());
        let start = start.min(end);
        // Stored indices of the range, then its cold part.
        let overhang = self.overhang();
        let (lo, hi) = (start + overhang, end + overhang);
        let cold_hi = hi.min(self.cold_samples);
        if lo < cold_hi {
            let first = lo / COLD_BLOCK_SAMPLES;
            let last = (cold_hi - 1) / COLD_BLOCK_SAMPLES;
            for block in self.cold.range(first..=last) {
                block.decode_into(out);
            }
            // Trim the partial blocks at either end.
            let base = first * COLD_BLOCK_SAMPLES;
            out.truncate(cold_hi - base);
            out.drain(..lo - base);
        }
        if hi > self.cold_samples {
            let hot_lo = lo.max(self.cold_samples) - self.cold_samples;
            out.extend(self.hot.range(hot_lo..hi - self.cold_samples).copied());
        }
        debug_assert_eq!(out.len(), end - start);
    }

    /// The window as a fresh vector, oldest first.
    pub fn to_vec(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.copy_range_into(0, self.len(), &mut out);
        out
    }

    /// Iterates logical indices `[start, end)`, decoding each cold
    /// block at most once. `end` is clamped to `len()`.
    pub fn iter_range(&self, start: usize, end: usize) -> TieredRange<'_> {
        let end = end.min(self.len());
        TieredRange {
            series: self,
            next: start.min(end),
            end,
            block: Vec::new(),
            block_start: usize::MAX,
        }
    }

    /// Heap bytes of the raw hot tier.
    pub fn hot_bytes(&self) -> usize {
        self.hot.capacity() * std::mem::size_of::<f64>()
    }

    /// Heap bytes of the compressed cold tier.
    pub fn cold_bytes(&self) -> usize {
        self.cold.iter().map(ColdBlock::approx_bytes).sum()
    }

    /// Total heap footprint of the series.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<TieredSeries>() + self.hot_bytes() + self.cold_bytes()
    }

    /// Heap bytes an equivalent flat ring of `capacity` would hold.
    pub fn flat_ring_bytes(&self) -> usize {
        self.capacity * std::mem::size_of::<f64>()
    }
}

/// Ranged iterator over a [`TieredSeries`]; see
/// [`TieredSeries::iter_range`].
#[derive(Debug)]
pub struct TieredRange<'a> {
    series: &'a TieredSeries,
    next: usize,
    end: usize,
    /// Decoded copy of the cold block covering `block_start`.
    block: Vec<f64>,
    /// Stored index of `block[0]`, `usize::MAX` when nothing is cached.
    block_start: usize,
}

impl Iterator for TieredRange<'_> {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        if self.next >= self.end {
            return None;
        }
        let j = self.next + self.series.overhang();
        self.next += 1;
        if j >= self.series.cold_samples {
            return self.series.hot.get(j - self.series.cold_samples).copied();
        }
        let start = (j / COLD_BLOCK_SAMPLES) * COLD_BLOCK_SAMPLES;
        if start != self.block_start {
            self.block.clear();
            self.series.cold[start / COLD_BLOCK_SAMPLES].decode_into(&mut self.block);
            self.block_start = start;
        }
        Some(self.block[j - start])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.end - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for TieredRange<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RingBuffer;

    /// Pushes the same stream into both stores and checks every read.
    fn assert_matches_ring(capacity: usize, hot: usize, values: &[f64]) {
        let mut ring = RingBuffer::new(capacity);
        let mut tiered = TieredSeries::new(capacity, hot);
        for &v in values {
            ring.push(v);
            tiered.push(v);
            assert_eq!(tiered.len(), ring.len());
            assert_eq!(tiered.total_pushed(), ring.total_pushed());
            assert_eq!(
                tiered.latest().map(f64::to_bits),
                ring.latest().map(f64::to_bits)
            );
        }
        let flat_ring: Vec<u64> = ring.to_vec().iter().map(|v| v.to_bits()).collect();
        let flat_tiered: Vec<u64> = tiered.to_vec().iter().map(|v| v.to_bits()).collect();
        assert_eq!(flat_tiered, flat_ring);
        for i in 0..ring.len() {
            assert_eq!(
                tiered.get(i).map(f64::to_bits),
                ring.get(i).map(f64::to_bits),
                "index {i}"
            );
        }
        assert_eq!(tiered.get(ring.len()), None);
        let ranged: Vec<u64> = tiered
            .iter_range(0, tiered.len())
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(ranged, flat_ring);
    }

    #[test]
    fn small_windows_match_a_flat_ring() {
        let values: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 50.0).collect();
        assert_matches_ring(5, 3, &values);
        assert_matches_ring(100, 16, &values);
        assert_matches_ring(2000, 128, &values);
    }

    #[test]
    fn boundary_straddling_reads_are_exact() {
        // Capacity engineered so the window front lands mid-block.
        let mut tiered = TieredSeries::new(300, 64);
        let mut ring = RingBuffer::new(300);
        for i in 0..(COLD_BLOCK_SAMPLES * 5 + 17) {
            let v = (i as f64) * 0.25 - 13.0;
            tiered.push(v);
            ring.push(v);
        }
        assert_eq!(tiered.to_vec(), ring.to_vec());
        // Point reads across the hot/cold boundary.
        for i in 0..tiered.len() {
            assert_eq!(tiered.get(i), ring.get(i), "index {i}");
        }
        // Ranged read straddling cold blocks and the hot suffix.
        let mid: Vec<f64> = tiered.iter_range(50, 280).collect();
        assert_eq!(&mid[..], &ring.to_vec()[50..280]);
    }

    #[test]
    fn range_reads_reuse_the_buffer() {
        // Dictionary and XOR blocks both: a warmed buffer is refilled in
        // place, never reallocated, whatever the range's block alignment.
        let mut tiered = TieredSeries::new(1000, 128);
        for i in 0..3000u64 {
            tiered.push(if i % 512 < 256 {
                (i % 3) as f64
            } else {
                (i as f64).sqrt()
            });
        }
        let mut out = Vec::new();
        tiered.copy_range_into(0, tiered.len(), &mut out);
        let (ptr, cap) = (out.as_ptr(), out.capacity());
        for start in [0, 1, 127, 128, 129, 700, 999] {
            tiered.copy_range_into(start, tiered.len(), &mut out);
            assert_eq!(out, tiered.to_vec()[start..], "start {start}");
            assert_eq!((out.as_ptr(), out.capacity()), (ptr, cap), "start {start}");
        }
    }

    #[test]
    fn nan_bits_survive_the_cold_tier() {
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        let mut tiered = TieredSeries::new(600, 8);
        for i in 0..500 {
            tiered.push(if i % 7 == 0 { weird } else { i as f64 });
        }
        assert!(tiered.cold_samples > 0, "cold tier must have engaged");
        for i in 0..tiered.len() {
            let want = if i % 7 == 0 {
                weird.to_bits()
            } else {
                (i as f64).to_bits()
            };
            assert_eq!(tiered.get(i).unwrap().to_bits(), want, "index {i}");
        }
    }

    #[test]
    fn memory_stays_bounded_and_compressed() {
        // Smooth quantized series, the monitoring-feed shape.
        let mut tiered = TieredSeries::new(4000, 512);
        for i in 0..100_000u64 {
            tiered.push(40.0 + ((i * 3) % 5) as f64);
        }
        assert_eq!(tiered.len(), 4000);
        // Stored overhang never exceeds one block + the hot slack.
        assert!(tiered.stored() < 4000 + COLD_BLOCK_SAMPLES);
        assert!(
            tiered.hot.len() >= tiered.hot_capacity
                && tiered.hot.len() < tiered.hot_capacity + COLD_BLOCK_SAMPLES
        );
        // The compressed window beats the flat ring comfortably.
        let flat = tiered.flat_ring_bytes();
        assert!(
            tiered.cold_bytes() + tiered.hot.len() * 8 < flat,
            "tiered {} vs flat {}",
            tiered.approx_bytes(),
            flat
        );
    }

    #[test]
    fn cycling_full_mantissa_values_pick_the_dictionary() {
        // Prediction-error shape: a few unrelated full-mantissa bit
        // patterns cycling, so every consecutive XOR is nearly full
        // width and the window codec cannot narrow — the dictionary
        // mode must win and stay bit-exact.
        let cycle = [
            std::f64::consts::FRAC_1_SQRT_2,
            -std::f64::consts::SQRT_2,
            std::f64::consts::LN_10,
            0.0,
            std::f64::consts::PI,
        ];
        let mut tiered = TieredSeries::new(4000, 512);
        let mut ring = RingBuffer::new(4000);
        for i in 0..5000 {
            let v = cycle[i % cycle.len()];
            tiered.push(v);
            ring.push(v);
        }
        for i in 0..ring.len() {
            assert_eq!(
                tiered.get(i).map(f64::to_bits),
                ring.get(i).map(f64::to_bits),
                "index {i}"
            );
        }
        // A 5-entry dictionary costs ~(6 + 5·64 + 128·3) bits per block
        // — well under a quarter of the 1 KiB a flat block holds.
        assert!(
            tiered.cold_bytes() * 4 < tiered.flat_ring_bytes(),
            "dictionary mode did not engage: cold {} vs flat {}",
            tiered.cold_bytes(),
            tiered.flat_ring_bytes()
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_rejected() {
        TieredSeries::new(0, 8);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::RingBuffer;
    use proptest::prelude::*;

    /// Value streams shaped like the daemon's inputs under chaos:
    /// smooth runs, repeats (duplicate bridging), constant gap fills,
    /// resets to zero, and raw bit noise.
    fn adversarial_values() -> impl Strategy<Value = Vec<f64>> {
        let value = (0u32..4, 0u64..=u64::MAX).prop_map(|(shape, bits)| match shape {
            0 => (bits % 2_000_000) as f64 - 1e6, // plain readings
            1 => 0.0,                             // resets
            2 => 42.0,                            // long repeats / gap fill
            _ => f64::from_bits(bits),            // bit noise incl. NaN
        });
        proptest::collection::vec(value, 0..700)
    }

    proptest! {
        /// Every read on a TieredSeries is bit-identical to a flat
        /// RingBuffer fed the same stream, across capacities that put
        /// the window edge anywhere relative to block boundaries.
        #[test]
        fn tiered_reads_match_flat_ring(
            capacity in 1usize..600,
            hot in 1usize..200,
            values in adversarial_values(),
        ) {
            let mut ring = RingBuffer::new(capacity);
            let mut tiered = TieredSeries::new(capacity, hot);
            for &v in &values {
                ring.push(v);
                tiered.push(v);
            }
            prop_assert_eq!(tiered.len(), ring.len());
            prop_assert_eq!(tiered.total_pushed(), ring.total_pushed());
            prop_assert_eq!(
                tiered.latest().map(f64::to_bits),
                ring.latest().map(f64::to_bits)
            );
            let want: Vec<u64> = ring.to_vec().iter().map(|v| v.to_bits()).collect();
            let got: Vec<u64> = tiered.to_vec().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got, want);
            for i in 0..ring.len() {
                prop_assert_eq!(
                    tiered.get(i).map(f64::to_bits),
                    ring.get(i).map(f64::to_bits)
                );
            }
        }

        /// Ranged iteration agrees with point reads on arbitrary
        /// sub-windows (cold-only, straddling, hot-only).
        #[test]
        fn ranged_reads_match_point_reads(
            hot in 1usize..64,
            n in 0usize..800,
            start in 0usize..800,
            span in 0usize..800,
        ) {
            let capacity = 500;
            let mut tiered = TieredSeries::new(capacity, hot);
            for i in 0..n {
                tiered.push((i as f64) * 1.5 - 7.0);
            }
            let end = (start + span).min(tiered.len());
            let start = start.min(end);
            let ranged: Vec<u64> = tiered.iter_range(start, start + span).map(f64::to_bits).collect();
            let points: Vec<u64> = (start..end)
                .map(|i| tiered.get(i).unwrap().to_bits())
                .collect();
            prop_assert_eq!(&ranged, &points);
            // The buffer starts dirty: the read must replace it.
            let mut copied = vec![f64::NAN; 3];
            tiered.copy_range_into(start, start + span, &mut copied);
            let copied: Vec<u64> = copied.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(copied, points);
        }
    }
}
