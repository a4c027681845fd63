//! A fixed-capacity sliding buffer for the online history.
//!
//! [`OnlineLarp`](crate::OnlineLarp) needs its recent history as one
//! contiguous `&[f64]` (the pool predictors and the trainer take slices), but
//! the old `Vec` + `drain(..excess)` bound moved the entire history left by
//! one slot on every steady-state push — `O(len)` per sample. [`HistoryRing`]
//! keeps the same logical contents contiguous while amortising eviction:
//! values append at the tail, a start cursor advances past evicted ones, and
//! the buffer compacts with one `copy_within` of `cap` values after every
//! `slack = max(cap/4, 1)` evictions. Steady-state cost is O(1) amortised per
//! push (four copied values per push at most) with zero heap allocation:
//! the backing `Vec` is sized to hold `cap + slack` values on the first push
//! and never grows past it.
//!
//! # Storage precision
//!
//! The ring stores either `f64` (default) or `f32` values. The `f32` mode
//! halves the per-stream ring allocation for the million-stream memory
//! budget (DESIGN.md §11): a value is quantized once on `push` (see
//! [`quantize`]) and read back widened to `f64`, so every downstream
//! computation still runs in `f64` over the *same* quantized inputs — which
//! keeps serve/snapshot/restore bit-identical within a mode. Reading the ring
//! as a contiguous `&[f64]` goes through [`HistoryRing::materialized`]: a
//! zero-copy borrow in `f64` mode, a widening copy into caller scratch in
//! `f32` mode.

use std::ops::Range;

use timeseries::ZScore;

/// Backing storage: full-precision or quantized.
#[derive(Debug, Clone)]
enum RingBuf {
    F64(Vec<f64>),
    F32(Vec<f32>),
}

/// A contiguous sliding window over the most recent `cap` values. The
/// owning [`OnlineLarp`](crate::OnlineLarp) derives `cap` from what serving
/// reads (`OnlineLarp::history_cap`).
#[derive(Debug, Clone)]
pub(crate) struct HistoryRing {
    buf: RingBuf,
    /// Index of the logically-first retained value in `buf`.
    start: usize,
    cap: usize,
}

impl HistoryRing {
    /// Creates a ring in the requested storage mode. The backing buffer is
    /// allocated lazily on the first push (`cap + slack` values), so a
    /// registered but never-pushed stream holds no ring memory at all.
    pub(crate) fn new_mode(cap: usize, f32_mode: bool) -> Self {
        debug_assert!(cap > 0, "a history ring retains at least one value");
        let buf = if f32_mode { RingBuf::F32(Vec::new()) } else { RingBuf::F64(Vec::new()) };
        Self { buf, start: 0, cap }
    }

    /// Builds a ring from logical contents (used by snapshot restore),
    /// keeping at most the last `cap` values. In `f32` mode each value goes
    /// through the same [`quantize`] step `push` applies, so restoring a
    /// snapshot written by an `f32` ring is exact.
    pub(crate) fn from_vec_mode(values: Vec<f64>, cap: usize, f32_mode: bool) -> Self {
        let mut ring = Self::new_mode(cap, f32_mode);
        for &v in &values[values.len().saturating_sub(cap)..] {
            ring.push(v);
        }
        ring
    }

    /// Appends one value, evicting the oldest when over capacity.
    pub(crate) fn push(&mut self, value: f64) {
        // `cap + slack` backing: each slot past `cap` absorbs one eviction,
        // so the copy_within of `cap` values runs once per `slack` pushes.
        // The reservation happens here, not at construction, so idle
        // streams pay nothing.
        let (cap, slack) = (self.cap, self.slack());
        let start = &mut self.start;
        match &mut self.buf {
            RingBuf::F64(buf) => {
                reserve_on_first_fill(buf, cap + slack);
                buf.push(value);
                evict_one(buf, start, cap, slack);
            }
            RingBuf::F32(buf) => {
                reserve_on_first_fill(buf, cap + slack);
                buf.push(quantize(value));
                evict_one(buf, start, cap, slack);
            }
        }
    }

    /// Evictions a compaction absorbs: the backing buffer holds this many
    /// values beyond `cap`.
    pub(crate) fn slack(&self) -> usize {
        (self.cap / 4).max(1)
    }

    /// Number of retained values.
    pub(crate) fn len(&self) -> usize {
        let stored = match &self.buf {
            RingBuf::F64(buf) => buf.len(),
            RingBuf::F32(buf) => buf.len(),
        };
        stored - self.start
    }

    /// Whether nothing is retained.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The retained values as one contiguous `&[f64]`, oldest first: a direct
    /// borrow of the backing buffer in `f64` mode (zero copy, preserving the
    /// allocation-free hot path), a widening copy into `scratch` in `f32`
    /// mode (allocation-free once the scratch buffer is warm).
    pub(crate) fn materialized<'a>(&'a self, scratch: &'a mut Vec<f64>) -> &'a [f64] {
        match &self.buf {
            RingBuf::F64(buf) => &buf[self.start..],
            RingBuf::F32(buf) => {
                // Widening through the dispatched kernel (vcvtps2pd under
                // AVX2) — the conversion is exact, so mode cannot change
                // results.
                linalg::kernels::widen_into(&buf[self.start..], scratch);
                scratch.as_slice()
            }
        }
    }

    /// Iterates the retained values widened to `f64`, oldest first.
    pub(crate) fn iter64(&self) -> RingIter64<'_> {
        match &self.buf {
            RingBuf::F64(buf) => RingIter64::F64(buf[self.start..].iter()),
            RingBuf::F32(buf) => RingIter64::F32(buf[self.start..].iter()),
        }
    }

    /// The most recent value.
    pub(crate) fn last(&self) -> Option<f64> {
        match &self.buf {
            RingBuf::F64(buf) => buf.last().copied(),
            RingBuf::F32(buf) => buf.last().map(|&v| v as f64),
        }
    }

    /// Writes retained values `range` (logical positions, oldest = 0)
    /// normalised with `zscore` into `out` (cleared first). An `f32` ring
    /// quantizes each normalised value as it quantizes a reading —
    /// `quantize(zscore.apply(v))`, widened back. An `f64` ring goes through
    /// the batched kernel, bit-identical to per-value `apply`.
    /// Allocation-free once `out` has held a range this long.
    pub(crate) fn normalized_into(&self, range: Range<usize>, zscore: &ZScore, out: &mut Vec<f64>) {
        let (from, to) = (self.start + range.start, self.start + range.end);
        match &self.buf {
            RingBuf::F64(buf) => zscore.apply_slice_into(&buf[from..to], out),
            RingBuf::F32(buf) => {
                out.clear();
                out.extend(
                    buf[from..to].iter().map(|&v| f64::from(quantize(zscore.apply(f64::from(v))))),
                );
            }
        }
    }

    /// The retention capacity.
    pub(crate) fn cap(&self) -> usize {
        self.cap
    }

    /// Heap bytes held by the backing buffer.
    pub(crate) fn heap_bytes(&self) -> usize {
        match &self.buf {
            RingBuf::F64(buf) => buf.capacity() * std::mem::size_of::<f64>(),
            RingBuf::F32(buf) => buf.capacity() * std::mem::size_of::<f32>(),
        }
    }
}

/// Iterator over a ring's retained values, widened to `f64`.
pub(crate) enum RingIter64<'a> {
    F64(std::slice::Iter<'a, f64>),
    F32(std::slice::Iter<'a, f32>),
}

impl Iterator for RingIter64<'_> {
    type Item = f64;
    fn next(&mut self) -> Option<f64> {
        match self {
            RingIter64::F64(it) => it.next().copied(),
            RingIter64::F32(it) => it.next().map(|&v| v as f64),
        }
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            RingIter64::F64(it) => it.size_hint(),
            RingIter64::F32(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for RingIter64<'_> {}

/// The `f32` storage of a reading: the nearest `f32`, with a finite value
/// beyond ±`f32::MAX` saturated to ±`f32::MAX` instead of overflowing to
/// ±inf (a finite input must not turn into a non-finite history value).
/// NaN and ±inf pass through. A stored value re-quantizes to itself.
#[inline]
fn quantize(value: f64) -> f32 {
    if value.is_finite() {
        value.clamp(-f64::from(f32::MAX), f64::from(f32::MAX)) as f32
    } else {
        value as f32
    }
}

/// The lazy `cap + slack` backing reservation (`backing` values), made when
/// the first value goes into a ring's still-unallocated buffer.
#[inline]
fn reserve_on_first_fill<T>(buf: &mut Vec<T>, backing: usize) {
    if buf.capacity() == 0 {
        buf.reserve_exact(backing);
    }
}

/// Drops the oldest retained value once `buf[start..]` holds more than
/// `cap`, compacting the retained values to the front after `slack`
/// evictions, so `buf` never holds more than `cap + slack` values.
#[inline]
fn evict_one<T: Copy>(buf: &mut Vec<T>, start: &mut usize, cap: usize, slack: usize) {
    if buf.len() - *start > cap {
        *start += 1;
        if *start >= slack {
            buf.copy_within(*start.., 0);
            buf.truncate(buf.len() - *start);
            *start = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contents(r: &HistoryRing) -> Vec<f64> {
        r.iter64().collect()
    }

    #[test]
    fn normalized_into_matches_a_pushed_normalised_ring() {
        // What a second ring fed `zscore.apply(v)` on every push would hold,
        // read over every range, bit for bit — in both modes, across
        // evictions and compactions.
        let zscore = ZScore::fit(&[3.0, 7.5, -1.25, 4.0]).unwrap();
        for f32_mode in [false, true] {
            let mut source = HistoryRing::new_mode(8, f32_mode);
            let mut pushed = HistoryRing::new_mode(8, f32_mode);
            let mut out = Vec::new();
            for i in 0..23 {
                source.push((i as f64 * 0.37).sin() * 5.0 + 1e-9 * i as f64);
                pushed.push(zscore.apply(source.last().unwrap()));
                let expected: Vec<u64> = pushed.iter64().map(f64::to_bits).collect();
                let len = source.len();
                for from in 0..=len {
                    for to in from..=len {
                        source.normalized_into(from..to, &zscore, &mut out);
                        let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(got, expected[from..to], "f32 {f32_mode}, push {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn bounded_ring_matches_vec_drain_reference() {
        // The ring must present exactly the contents the old Vec+drain code
        // kept, at every step, across several capacities — in both modes.
        for f32_mode in [false, true] {
            for cap in [1, 2, 3, 7, 64] {
                let mut ring = HistoryRing::new_mode(cap, f32_mode);
                let mut reference: Vec<f64> = Vec::new();
                for i in 0..(cap * 10 + 3) {
                    let v = (i as f64) * 0.5 - 3.0;
                    ring.push(v);
                    let stored = if f32_mode { v as f32 as f64 } else { v };
                    reference.push(stored);
                    if reference.len() > cap {
                        let excess = reference.len() - cap;
                        reference.drain(..excess);
                    }
                    assert_eq!(contents(&ring), reference, "cap {cap}, step {i}");
                    assert_eq!(ring.len(), reference.len());
                    assert_eq!(ring.last(), reference.last().copied());
                }
            }
        }
    }

    #[test]
    fn steady_state_never_reallocates() {
        let cap = 32;
        let mut r = HistoryRing::new_mode(cap, false);
        for i in 0..cap {
            r.push(i as f64);
        }
        let RingBuf::F64(buf) = &r.buf else { panic!("f64 mode") };
        let ptr = buf.as_ptr();
        let backing = buf.capacity();
        for i in 0..10_000 {
            r.push(i as f64);
        }
        let RingBuf::F64(buf) = &r.buf else { panic!("f64 mode") };
        assert_eq!(ptr, buf.as_ptr(), "backing buffer moved");
        assert_eq!(backing, buf.capacity(), "backing buffer grew");
        assert_eq!(r.len(), cap);
    }

    #[test]
    fn allocation_is_lazy_and_exact() {
        // A never-pushed ring holds no heap memory; the first push reserves
        // exactly cap + slack and steady state stays there (both modes).
        for f32_mode in [false, true] {
            for (cap, slack) in [(1, 1), (3, 1), (40, 10), (64, 16)] {
                let mut r = HistoryRing::new_mode(cap, f32_mode);
                assert_eq!(r.slack(), slack);
                assert_eq!(r.heap_bytes(), 0, "no allocation before first push");
                r.push(1.0);
                let elem = if f32_mode { 4 } else { 8 };
                assert_eq!(r.heap_bytes(), (cap + slack) * elem);
                for i in 0..1000 {
                    r.push(i as f64);
                }
                assert_eq!(r.heap_bytes(), (cap + slack) * elem, "steady state never grows");
            }
        }
    }

    #[test]
    fn f32_mode_quantizes_once_and_reads_back_stably() {
        let max = f64::from(f32::MAX);
        let mut r = HistoryRing::new_mode(8, true);
        for (pushed, stored) in [
            (0.1, 0.1f32 as f64), // not f32-representable
            // A finite value beyond f32 range saturates instead of
            // overflowing to inf; non-finite values pass through.
            (3.5e38, max),
            (-1e300, -max),
            (f64::INFINITY, f64::INFINITY),
            (f64::NEG_INFINITY, f64::NEG_INFINITY),
        ] {
            r.push(pushed);
            assert_eq!(r.last().unwrap().to_bits(), stored.to_bits(), "{pushed}");
            // Re-quantizing the read-back value is a fixed point: pushing what
            // we read stores the identical value (snapshot/restore cycles
            // cannot drift).
            r.push(r.last().unwrap());
            assert_eq!(r.last().unwrap().to_bits(), stored.to_bits(), "{pushed} again");
        }
        r.push(f64::NAN);
        assert!(r.last().unwrap().is_nan());

        // A normalised read quantizes the same way: finite stays finite.
        let mut source = HistoryRing::new_mode(4, true);
        for v in [0.0, 1.0, 3.0e38, 3.4e38] {
            source.push(v);
        }
        let mut normalized = Vec::new();
        source.normalized_into(0..4, &ZScore::fit(&[0.0, 1e-30]).unwrap(), &mut normalized);
        assert!(normalized.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn materialized_reads_identical_to_iter64() {
        for f32_mode in [false, true] {
            let mut r = HistoryRing::new_mode(16, f32_mode);
            for i in 0..40 {
                r.push((i as f64) * 0.3 - 2.0);
            }
            let mut scratch = Vec::new();
            assert_eq!(r.materialized(&mut scratch), contents(&r).as_slice());
        }
    }

    #[test]
    fn from_vec_truncates_to_cap() {
        let r = HistoryRing::from_vec_mode((0..10).map(f64::from).collect(), 4, false);
        assert_eq!(contents(&r), &[6.0, 7.0, 8.0, 9.0]);
        let r = HistoryRing::from_vec_mode(vec![1.0, 2.0], 4, false);
        assert_eq!(contents(&r), &[1.0, 2.0]);
        assert_eq!(r.cap(), 4);
    }

    #[test]
    fn from_vec_mode_round_trips_f32_contents() {
        let values: Vec<f64> = (0..20).map(|i| (i as f64) * 0.7).collect();
        let mut live = HistoryRing::new_mode(8, true);
        for &v in &values {
            live.push(v);
        }
        // Serializing iter64() and restoring through from_vec_mode is exact:
        // the stored values are f32-representable, so `as f32` is lossless.
        let restored = HistoryRing::from_vec_mode(contents(&live), 8, true);
        assert_eq!(contents(&restored), contents(&live));
    }
}
