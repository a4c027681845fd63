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
    /// Creates an `f64` ring retaining the last `cap` values.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn new(cap: usize) -> Self {
        Self::new_mode(cap, false)
    }

    /// Creates a ring in the requested storage mode. The backing buffer is
    /// allocated lazily on the first push (`cap + slack` values), so a
    /// registered but never-pushed stream holds no ring memory at all.
    pub(crate) fn new_mode(cap: usize, f32_mode: bool) -> Self {
        debug_assert!(cap > 0, "a history ring retains at least one value");
        let buf = if f32_mode { RingBuf::F32(Vec::new()) } else { RingBuf::F64(Vec::new()) };
        Self { buf, start: 0, cap }
    }

    /// Builds an `f64` ring from logical contents (used by snapshot restore);
    /// keeps at most the last `cap` values.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn from_vec(values: Vec<f64>, cap: usize) -> Self {
        Self::from_vec_mode(values, cap, false)
    }

    /// [`HistoryRing::from_vec`] in the requested storage mode. In `f32` mode
    /// each value goes through the same [`quantize`] step `push` applies,
    /// so restoring a snapshot written by an `f32` ring is exact.
    pub(crate) fn from_vec_mode(values: Vec<f64>, cap: usize, f32_mode: bool) -> Self {
        let mut ring = Self::new_mode(cap, f32_mode);
        for &v in &values[values.len().saturating_sub(cap)..] {
            ring.push(v);
        }
        ring
    }

    /// Whether the ring stores quantized `f32` values.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn is_f32(&self) -> bool {
        matches!(self.buf, RingBuf::F32(_))
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
                reserve_on_first_fill(buf, cap + slack, 1);
                buf.push(value);
                evict_one(buf, start, cap, slack);
            }
            RingBuf::F32(buf) => {
                reserve_on_first_fill(buf, cap + slack, 1);
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

    /// Replaces the contents with `zscore` applied to every value of
    /// `source`, oldest first — exactly what clearing and pushing
    /// `zscore.apply(v)` for each `v` of `source` leaves, without a ring push
    /// per value (`f64` rings normalise through the batched kernel, which is
    /// bit-identical to per-value `apply`). `source` must share this ring's
    /// storage mode and capacity, as the normalised mirror shares its
    /// history's.
    pub(crate) fn refill_normalized(&mut self, source: &HistoryRing, zscore: &ZScore) {
        debug_assert_eq!(self.cap, source.cap);
        let backing = self.cap + self.slack();
        self.start = 0;
        match (&mut self.buf, &source.buf) {
            (RingBuf::F64(buf), RingBuf::F64(src)) => {
                let src = &src[source.start..];
                reserve_on_first_fill(buf, backing, src.len());
                zscore.apply_slice_into(src, buf);
            }
            (RingBuf::F32(buf), RingBuf::F32(src)) => {
                let src = &src[source.start..];
                reserve_on_first_fill(buf, backing, src.len());
                buf.clear();
                buf.extend(src.iter().map(|&v| quantize(zscore.apply(f64::from(v)))));
            }
            _ => unreachable!("a normalised mirror shares its history's storage mode"),
        }
    }

    /// Drops all retained values (capacity preserved).
    pub(crate) fn clear(&mut self) {
        match &mut self.buf {
            RingBuf::F64(buf) => buf.clear(),
            RingBuf::F32(buf) => buf.clear(),
        }
        self.start = 0;
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
/// the first `len > 0` values go into a ring's still-unallocated buffer.
#[inline]
fn reserve_on_first_fill<T>(buf: &mut Vec<T>, backing: usize, len: usize) {
    if buf.capacity() == 0 && len > 0 {
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
    fn refill_normalized_matches_clear_then_push() {
        let zscore = ZScore::fit(&[3.0, 7.5, -1.25, 4.0]).unwrap();
        for f32_mode in [false, true] {
            for pushed in [0usize, 3, 7, 8, 9, 20, 23] {
                // Two mirrors with the same push history (a clone would not
                // keep the backing capacity).
                let mut source = HistoryRing::new_mode(8, f32_mode);
                let mut pushed_norm = HistoryRing::new_mode(8, f32_mode);
                let mut refilled = HistoryRing::new_mode(8, f32_mode);
                for i in 0..pushed {
                    source.push((i as f64 * 0.37).sin() * 5.0);
                    pushed_norm.push(0.5);
                    refilled.push(0.5);
                }
                pushed_norm.clear();
                for v in source.iter64() {
                    pushed_norm.push(zscore.apply(v));
                }
                refilled.refill_normalized(&source, &zscore);
                let bits = |r: &HistoryRing| -> Vec<u64> {
                    contents(r).iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(bits(&refilled), bits(&pushed_norm), "f32 {f32_mode}, {pushed}");
                assert_eq!(refilled.heap_bytes(), pushed_norm.heap_bytes());
                refilled.push(1.0);
                pushed_norm.push(1.0);
                assert_eq!(bits(&refilled), bits(&pushed_norm));
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
        let mut r = HistoryRing::new(cap);
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
        assert!(r.is_f32());
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

        // The normalised mirror quantizes the same way.
        let mut source = HistoryRing::new_mode(4, true);
        for v in [0.0, 1.0, 3.0e38, 3.4e38] {
            source.push(v);
        }
        let mut mirror = HistoryRing::new_mode(4, true);
        mirror.refill_normalized(&source, &ZScore::fit(&[0.0, 1e-30]).unwrap());
        assert!(mirror.iter64().all(f64::is_finite));
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
        let r = HistoryRing::from_vec((0..10).map(f64::from).collect(), 4);
        assert_eq!(contents(&r), &[6.0, 7.0, 8.0, 9.0]);
        let r = HistoryRing::from_vec(vec![1.0, 2.0], 4);
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

    #[test]
    fn clear_empties_but_keeps_capacity() {
        let mut r = HistoryRing::new(8);
        for i in 0..20 {
            r.push(i as f64);
        }
        let backing = r.heap_bytes();
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.heap_bytes(), backing);
        r.push(5.0);
        assert_eq!(contents(&r), &[5.0]);
    }
}
