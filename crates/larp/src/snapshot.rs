//! Serializable snapshots of serving state — checkpoint/restore without
//! retraining.
//!
//! A fleet serving thousands of [`OnlineLarp`] streams cannot afford to refit
//! every model after a restart: training is the expensive phase (labelling,
//! PCA, k-NN indexing), and the QA history, quarantine clocks and fault
//! counters are operational state worth carrying across process boundaries.
//! This module encodes the *complete* serving state of an [`OnlineLarp`] (and
//! a [`GuardedLarp`], which adds the sanitizer) as a plain byte vector:
//!
//! * struct-of-vecs layout, little-endian `u64`/`f64` (bit-exact round trip,
//!   NaN payloads included), no external dependencies;
//! * an 8-byte magic (`LARPSNAP`), a format version and a kind byte up front,
//!   so foreign bytes fail fast with [`LarpError::Snapshot`] instead of
//!   misdecoding;
//! * the trained model is stored as (specs, fitted states) pairs — restore
//!   rebuilds each pool member via [`predictors::ModelSpec::rebuild`] and the
//!   k-NN index from its stored points, never touching training data.
//!
//! The only piece deliberately *not* serialized is the fallback
//! [`PoolErrorTracker`](crate::selector::PoolErrorTracker): its windowed-error accounting is advisory (consulted
//! only while a predictor is quarantined) and restarts cold, exactly as it
//! does after a retrain.
//!
//! ```
//! use larp::{LarpConfig, OnlineLarp, QualityAssuror};
//!
//! let mut live = OnlineLarp::new(LarpConfig::default(), 40, QualityAssuror::new(2.0, 8, 4).unwrap()).unwrap();
//! for t in 0..60 {
//!     live.push((t as f64 * 0.2).sin());
//! }
//! let bytes = live.to_snapshot_bytes();
//! let mut restored = OnlineLarp::from_snapshot_bytes(&bytes).unwrap();
//! assert_eq!(restored.retrain_count(), live.retrain_count());
//! assert_eq!(restored.push(0.5), live.push(0.5));
//! ```

use std::collections::VecDeque;
use std::sync::Arc;

use learn::{KnnClassifier, Pca};
use linalg::Matrix;
use predictors::{ModelSpec, PredictorId, PredictorPool};
use timeseries::ZScore;

use crate::config::{FeatureReduction, LarpConfig, ResilienceConfig};
use crate::ingest::{GapFill, GuardedLarp, IngestConfig, IngestStats, OutlierPolicy, Sanitizer};
use crate::model::TrainedLarp;
use crate::online::{history_cap, OnlineCounters, OnlineLarp, PredictorHealth};
use crate::qa::QualityAssuror;
use crate::ring::HistoryRing;
use crate::{LarpError, Result};

/// Leading magic of every snapshot produced by this module.
pub const MAGIC: [u8; 8] = *b"LARPSNAP";
/// Current snapshot format version. Writers always emit the current version;
/// the reader accepts every version listed in [`MIN_VERSION`]`..=VERSION`.
///
/// * **v1** — the original format.
/// * **v2** — appends [`ResilienceConfig::f32_history`] to the resilience
///   block (the memory-diet `f32` ring mode). History values are still
///   written as `f64` (an `f32`-quantized value is `f64`-lossless), so the
///   rest of the wire layout is unchanged and v1 snapshots restore
///   bit-identically as `f64`-ring streams.
pub const VERSION: u32 = 2;
/// Oldest snapshot version the reader still accepts.
pub const MIN_VERSION: u32 = 1;

/// Snapshot kind: a bare [`OnlineLarp`].
pub const KIND_ONLINE: u8 = 1;
/// Snapshot kind: a [`GuardedLarp`] (sanitizer + online predictor).
pub const KIND_GUARDED: u8 = 2;

fn err(msg: impl Into<String>) -> LarpError {
    LarpError::Snapshot(msg.into())
}

// ---------------------------------------------------------------------------
// Byte codec
// ---------------------------------------------------------------------------

/// Append-only little-endian encoder.
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new(kind: u8) -> Self {
        Self::over(Vec::with_capacity(256), kind)
    }

    /// A writer over `buf`'s allocation; its old contents are dropped.
    pub(crate) fn over(mut buf: Vec<u8>, kind: u8) -> Self {
        buf.clear();
        let mut w = Self { buf };
        w.buf.extend_from_slice(&MAGIC);
        w.u32(VERSION);
        w.u8(kind);
        w
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    pub(crate) fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }

    pub(crate) fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
            None => self.u8(0),
        }
    }

    pub(crate) fn f64_seq<'a>(&mut self, v: impl ExactSizeIterator<Item = &'a f64>) {
        self.usize(v.len());
        for &x in v {
            self.f64(x);
        }
    }

    pub(crate) fn f64_iter(&mut self, v: impl ExactSizeIterator<Item = f64>) {
        self.usize(v.len());
        for x in v {
            self.f64(x);
        }
    }
}

/// Checked little-endian decoder over a snapshot byte slice.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Format version declared by the snapshot being read; fields appended in
    /// later versions are skipped (and defaulted) for older snapshots.
    pub(crate) version: u32,
}

impl<'a> Reader<'a> {
    /// Opens a snapshot, validating magic, version and kind.
    pub(crate) fn new(bytes: &'a [u8], expected_kind: u8) -> Result<Self> {
        let mut r = Self { buf: bytes, pos: 0, version: 0 };
        let magic = r.take(MAGIC.len())?;
        if magic != MAGIC {
            return Err(err("not a LARPSNAP snapshot (bad magic)"));
        }
        let version = r.u32()?;
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(err(format!(
                "unsupported snapshot version {version} (expected {MIN_VERSION}..={VERSION})"
            )));
        }
        r.version = version;
        let kind = r.u8()?;
        if kind != expected_kind {
            return Err(err(format!(
                "snapshot kind {kind} does not match expected {expected_kind}"
            )));
        }
        Ok(r)
    }

    /// The bytes read since offset `start`, an earlier value of `pos`.
    fn since(&self, start: usize) -> &'a [u8] {
        &self.buf[start..self.pos]
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(err(format!(
                "truncated snapshot: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub(crate) fn usize(&mut self) -> Result<usize> {
        usize::try_from(self.u64()?).map_err(|_| err("length exceeds this platform's usize"))
    }

    pub(crate) fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(err(format!("invalid bool byte {b}"))),
        }
    }

    pub(crate) fn opt_u64(&mut self) -> Result<Option<u64>> {
        Ok(if self.bool()? { Some(self.u64()?) } else { None })
    }

    pub(crate) fn opt_f64(&mut self) -> Result<Option<f64>> {
        Ok(if self.bool()? { Some(self.f64()?) } else { None })
    }

    /// Reads a length-prefixed `f64` sequence, rejecting lengths the
    /// remaining bytes cannot possibly hold (corrupt-input OOM guard).
    pub(crate) fn f64_seq(&mut self) -> Result<Vec<f64>> {
        let n = self.checked_len(8)?;
        // Sized exactly: restored buffers hold what they held live.
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    /// Bytes not yet read.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads a sequence length and checks it against the remaining bytes
    /// assuming at least `min_item_bytes` per item.
    pub(crate) fn checked_len(&mut self, min_item_bytes: usize) -> Result<usize> {
        let n = self.usize()?;
        let remaining = self.remaining();
        if n.saturating_mul(min_item_bytes) > remaining {
            return Err(err(format!(
                "corrupt snapshot: sequence of {n} items cannot fit in {remaining} remaining bytes"
            )));
        }
        Ok(n)
    }

    /// Asserts every byte was consumed (catches mismatched encodings early).
    pub(crate) fn finish(&self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(err(format!(
                "snapshot has {} trailing bytes after decoding",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Enum / config encodings
// ---------------------------------------------------------------------------

fn put_model_spec(w: &mut Writer, spec: &ModelSpec) {
    match spec {
        ModelSpec::Last => w.u8(0),
        ModelSpec::SwAvg { window } => {
            w.u8(1);
            w.usize(*window);
        }
        ModelSpec::Mean => w.u8(2),
        ModelSpec::Ewma { alpha } => {
            w.u8(3);
            w.f64(*alpha);
        }
        ModelSpec::Median { window } => {
            w.u8(4);
            w.usize(*window);
        }
        ModelSpec::TrimmedMean { window, alpha } => {
            w.u8(5);
            w.usize(*window);
            w.f64(*alpha);
        }
        ModelSpec::AdaptiveMean => w.u8(6),
        ModelSpec::AdaptiveMedian => w.u8(7),
        ModelSpec::Tendency { window } => {
            w.u8(8);
            w.usize(*window);
        }
        ModelSpec::PolyFit { window, degree } => {
            w.u8(9);
            w.usize(*window);
            w.usize(*degree);
        }
        ModelSpec::Ar { order } => {
            w.u8(10);
            w.usize(*order);
        }
        ModelSpec::Ari { order, diff } => {
            w.u8(11);
            w.usize(*order);
            w.usize(*diff);
        }
    }
}

fn get_model_spec(r: &mut Reader) -> Result<ModelSpec> {
    Ok(match r.u8()? {
        0 => ModelSpec::Last,
        1 => ModelSpec::SwAvg { window: r.usize()? },
        2 => ModelSpec::Mean,
        3 => ModelSpec::Ewma { alpha: r.f64()? },
        4 => ModelSpec::Median { window: r.usize()? },
        5 => ModelSpec::TrimmedMean { window: r.usize()?, alpha: r.f64()? },
        6 => ModelSpec::AdaptiveMean,
        7 => ModelSpec::AdaptiveMedian,
        8 => ModelSpec::Tendency { window: r.usize()? },
        9 => ModelSpec::PolyFit { window: r.usize()?, degree: r.usize()? },
        10 => ModelSpec::Ar { order: r.usize()? },
        11 => ModelSpec::Ari { order: r.usize()?, diff: r.usize()? },
        t => return Err(err(format!("unknown ModelSpec tag {t}"))),
    })
}

fn put_larp_config(w: &mut Writer, c: &LarpConfig) {
    w.usize(c.window);
    match &c.reduction {
        FeatureReduction::Pca { dims } => {
            w.u8(0);
            w.usize(*dims);
        }
        FeatureReduction::PcaFraction { min_fraction } => {
            w.u8(1);
            w.f64(*min_fraction);
        }
        FeatureReduction::None => w.u8(2),
    }
    w.usize(c.k);
    w.u8(BRUTE_FORCE_TAG);
    w.usize(c.pool.len());
    for spec in &c.pool {
        put_model_spec(w, spec);
    }
}

fn get_larp_config(r: &mut Reader) -> Result<LarpConfig> {
    let window = r.usize()?;
    let reduction = match r.u8()? {
        0 => FeatureReduction::Pca { dims: r.usize()? },
        1 => FeatureReduction::PcaFraction { min_fraction: r.f64()? },
        2 => FeatureReduction::None,
        t => return Err(err(format!("unknown FeatureReduction tag {t}"))),
    };
    let k = r.usize()?;
    skip_search_tag(r)?;
    let n = r.checked_len(1)?;
    let pool = (0..n).map(|_| get_model_spec(r)).collect::<Result<Vec<_>>>()?;
    let config = LarpConfig { window, reduction, k, pool };
    config.validate()?;
    Ok(config)
}

/// The k-NN search tag the config and model blocks carry: brute force.
const BRUTE_FORCE_TAG: u8 = 0;

/// Reads a k-NN search tag. Older writers could record a k-d tree (1); it
/// reads as brute force, since the two searches returned the same
/// neighbours in the same order.
fn skip_search_tag(r: &mut Reader) -> Result<()> {
    match r.u8()? {
        0 | 1 => Ok(()),
        t => Err(err(format!("unknown k-NN search tag {t}"))),
    }
}

/// Writes the resilience block. `stored_cap` fills the slot that once held
/// the configured history bound (`max_history`); it now records the
/// stream's derived ring capacity and is informational only.
fn put_resilience(w: &mut Writer, c: &ResilienceConfig, stored_cap: usize) {
    w.f64(c.divergence_factor);
    w.usize(c.max_strikes);
    w.usize(c.quarantine_base);
    w.usize(c.quarantine_cap);
    w.usize(c.retrain_backoff_base);
    w.usize(c.retrain_backoff_cap);
    w.usize(stored_cap);
    w.bool(c.f32_history); // appended in v2
}

/// Reads the resilience block and the stored ring capacity (see
/// [`put_resilience`]).
fn get_resilience(r: &mut Reader) -> Result<(ResilienceConfig, usize)> {
    let mut c = ResilienceConfig {
        divergence_factor: r.f64()?,
        max_strikes: r.usize()?,
        quarantine_base: r.usize()?,
        quarantine_cap: r.usize()?,
        retrain_backoff_base: r.usize()?,
        retrain_backoff_cap: r.usize()?,
        f32_history: false,
    };
    let stored_cap = r.usize()?;
    // v1 snapshots predate the f32 ring mode: they were written by (and
    // restore as) f64-ring streams.
    c.f32_history = r.version >= 2 && r.bool()?;
    c.validate()?;
    Ok((c, stored_cap))
}

fn put_ingest_config(w: &mut Writer, c: &IngestConfig) {
    w.u8(match c.gap_fill {
        GapFill::HoldLast => 0,
        GapFill::Interpolate => 1,
    });
    w.usize(c.max_gap_fill);
    match c.outlier {
        OutlierPolicy::None => w.u8(0),
        OutlierPolicy::MadClamp { threshold } => {
            w.u8(1);
            w.f64(threshold);
        }
    }
    w.usize(c.robust_window);
    w.f64_seq(c.sentinel_values.iter());
    w.usize(c.stuck_run_threshold);
}

fn get_ingest_config(r: &mut Reader) -> Result<IngestConfig> {
    let gap_fill = match r.u8()? {
        0 => GapFill::HoldLast,
        1 => GapFill::Interpolate,
        t => return Err(err(format!("unknown GapFill tag {t}"))),
    };
    let max_gap_fill = r.usize()?;
    let outlier = match r.u8()? {
        0 => OutlierPolicy::None,
        1 => OutlierPolicy::MadClamp { threshold: r.f64()? },
        t => return Err(err(format!("unknown OutlierPolicy tag {t}"))),
    };
    let config = IngestConfig {
        gap_fill,
        max_gap_fill,
        outlier,
        robust_window: r.usize()?,
        sentinel_values: r.f64_seq()?,
        stuck_run_threshold: r.usize()?,
    };
    config.validate()?;
    Ok(config)
}

// ---------------------------------------------------------------------------
// Trained model
// ---------------------------------------------------------------------------

fn put_trained(w: &mut Writer, m: &TrainedLarp) {
    put_larp_config(w, &m.config);
    w.f64(m.zscore.mean());
    w.f64(m.zscore.std());
    let specs = m.pool.specs();
    w.usize(specs.len());
    for spec in specs {
        put_model_spec(w, spec);
    }
    for state in m.pool.fitted_states() {
        w.f64_seq(state.iter());
    }
    match &m.pca {
        None => w.u8(0),
        Some(p) => {
            w.u8(1);
            w.f64_seq(p.mean().iter());
            w.usize(p.components().rows());
            w.usize(p.components().cols());
            w.f64_seq(p.components().as_slice().iter());
            w.f64_seq(p.eigenvalues().iter());
            w.f64(p.total_variance());
        }
    }
    w.usize(m.knn.k());
    w.u8(BRUTE_FORCE_TAG);
    // The k-NN index stores its points as one flat row-major buffer; emit
    // them point-by-point to keep the wire layout identical to the nested
    // representation this format was defined with.
    w.usize(m.knn.len());
    for p in m.knn.points_flat().chunks_exact(m.knn.dim()) {
        w.f64_seq(p.iter());
    }
    for &label in m.knn.labels() {
        w.usize(usize::from(label));
    }
    w.usize(m.train_len);
}

/// Reads a trained model. `online` is the enclosing stream's decoded config
/// and its encoded bytes: a model whose encoded config is the same bytes
/// shares that `Arc`, as a live stream's model does.
fn get_trained(r: &mut Reader, online: (&Arc<LarpConfig>, &[u8])) -> Result<TrainedLarp> {
    let start = r.pos;
    let decoded = get_larp_config(r)?;
    let config = if r.since(start) == online.1 { Arc::clone(online.0) } else { Arc::new(decoded) };
    let zscore = ZScore::from_coefficients(r.f64()?, r.f64()?)?;
    let n_specs = r.checked_len(1)?;
    let specs = (0..n_specs).map(|_| get_model_spec(r)).collect::<Result<Vec<_>>>()?;
    let states = (0..n_specs).map(|_| r.f64_seq()).collect::<Result<Vec<_>>>()?;
    let pool = PredictorPool::from_fitted(&specs, &states)?;
    let pca = match r.u8()? {
        0 => None,
        1 => {
            let mean = r.f64_seq()?;
            let rows = r.usize()?;
            let cols = r.usize()?;
            let data = r.f64_seq()?;
            if data.len() != rows.saturating_mul(cols) {
                return Err(err(format!(
                    "PCA projection data has {} values for a {rows}x{cols} matrix",
                    data.len()
                )));
            }
            let components = Matrix::from_vec(rows, cols, data)
                .map_err(|e| err(format!("PCA projection: {e}")))?;
            let eigenvalues = r.f64_seq()?;
            let total_variance = r.f64()?;
            Some(Pca::from_parts(mean, components, eigenvalues, total_variance)?)
        }
        t => return Err(err(format!("unknown PCA tag {t}"))),
    };
    let k = r.usize()?;
    skip_search_tag(r)?;
    let knn = get_knn(r, k)?;
    let train_len = r.usize()?;
    Ok(TrainedLarp { config, zscore, pool, pca, knn, train_len })
}

/// Reads the k-NN index: the points, stored one length-prefixed sequence
/// per point, go into one flat row-major buffer whose width is the first
/// point's, then one label per point. A point of another width is a
/// snapshot error.
fn get_knn(r: &mut Reader, k: usize) -> Result<KnnClassifier> {
    let n_points = r.checked_len(8)?;
    let mut points = Vec::new();
    let mut dim = 0;
    for i in 0..n_points {
        let len = r.checked_len(8)?;
        if i == 0 {
            dim = len;
            // All points take `n_points · (dim + 1)` words, the first length
            // already read: check they fit before sizing the buffer.
            let need = n_points.saturating_mul(dim.saturating_add(1)).saturating_mul(8) - 8;
            if need > r.remaining() {
                return Err(err(format!(
                    "corrupt snapshot: {n_points} k-NN points of dim {dim} cannot fit in {} \
                     remaining bytes",
                    r.remaining()
                )));
            }
            points.reserve_exact(n_points * dim);
        } else if len != dim {
            return Err(err(format!("k-NN point {i} has dim {len}, expected {dim}")));
        }
        for _ in 0..len {
            points.push(r.f64()?);
        }
    }
    let labels = (0..n_points).map(|_| r.usize()).collect::<Result<Vec<_>>>()?;
    Ok(KnnClassifier::fit_flat(&points, dim, &labels, k)?)
}

// ---------------------------------------------------------------------------
// Online / guarded serving state
// ---------------------------------------------------------------------------

fn put_qa(w: &mut Writer, qa: &QualityAssuror) {
    w.f64(qa.threshold);
    w.usize(qa.audit_window);
    w.usize(qa.audit_period);
    w.f64_seq(qa.errors.iter());
    w.usize(qa.since_audit);
    w.usize(qa.audits);
    w.usize(qa.retrains_signalled);
}

fn get_qa(r: &mut Reader) -> Result<QualityAssuror> {
    let threshold = r.f64()?;
    let audit_window = r.usize()?;
    let audit_period = r.usize()?;
    // The constructor re-runs its parameter validation on the restored values.
    let mut qa = QualityAssuror::new(threshold, audit_window, audit_period)?;
    qa.errors = VecDeque::from(r.f64_seq()?);
    qa.since_audit = r.usize()?;
    qa.audits = r.usize()?;
    qa.retrains_signalled = r.usize()?;
    Ok(qa)
}

fn put_online(w: &mut Writer, o: &OnlineLarp) {
    put_larp_config(w, &o.config);
    put_resilience(w, &o.resilience, o.history.cap());
    put_qa(w, &o.qa);
    // `f32`-ring values widen to `f64` losslessly, so one wire type serves
    // both modes; restore re-quantizes, which is exact for these values.
    w.f64_iter(o.history.iter64());
    w.usize(o.seen);
    w.usize(o.train_size);
    match &o.model {
        None => w.u8(0),
        Some(m) => {
            w.u8(1);
            put_trained(w, m);
        }
    }
    match o.pending {
        None => w.u8(0),
        Some((producer, forecast)) => {
            w.u8(1);
            w.opt_u64(producer.map(|id| id.0 as u64));
            w.f64(forecast);
        }
    }
    w.usize(o.retrain_count);
    w.u64(o.clock);
    w.usize(o.predictor_health.len());
    for h in &o.predictor_health {
        w.usize(h.strikes);
        w.opt_u64(h.quarantined_until);
        w.u64(u64::from(h.times_quarantined));
    }
    w.usize(o.counters.quarantines);
    w.usize(o.counters.retrain_failures);
    w.usize(o.counters.nonfinite_forecasts);
    w.usize(o.counters.degraded_steps);
    w.usize(o.counters.fallback_steps);
    w.u64(u64::from(o.consecutive_retrain_failures));
    w.u64(o.next_retrain_at);
    w.bool(o.retrain_pending);
}

fn get_online(r: &mut Reader) -> Result<OnlineLarp> {
    let start = r.pos;
    let config = Arc::new(get_larp_config(r)?);
    let config_bytes = r.since(start);
    let (resilience, stored_cap) = get_resilience(r)?;
    let qa = get_qa(r)?;
    let history = r.f64_seq()?;
    let seen = r.usize()?;
    let train_size = r.usize()?;
    let model = match r.u8()? {
        0 => None,
        1 => Some(get_trained(r, (&config, config_bytes))?),
        t => return Err(err(format!("unknown model tag {t}"))),
    };
    let pending = match r.u8()? {
        0 => None,
        1 => {
            let producer = r.opt_u64()?.map(|id| PredictorId(id as usize));
            Some((producer, r.f64()?))
        }
        t => return Err(err(format!("unknown pending tag {t}"))),
    };
    let retrain_count = r.usize()?;
    let clock = r.u64()?;
    let n_health = r.checked_len(17)?;
    let mut predictor_health = Vec::with_capacity(n_health);
    for _ in 0..n_health {
        predictor_health.push(PredictorHealth {
            strikes: r.usize()?,
            quarantined_until: r.opt_u64()?,
            times_quarantined: u32::try_from(r.u64()?)
                .map_err(|_| err("times_quarantined exceeds u32"))?,
        });
    }
    let counters = OnlineCounters {
        quarantines: r.usize()?,
        retrain_failures: r.usize()?,
        nonfinite_forecasts: r.usize()?,
        degraded_steps: r.usize()?,
        fallback_steps: r.usize()?,
    };
    let consecutive_retrain_failures =
        u32::try_from(r.u64()?).map_err(|_| err("retrain failure count exceeds u32"))?;
    let next_retrain_at = r.u64()?;
    let retrain_pending = r.bool()?;
    if let Some(m) = &model {
        if predictor_health.len() != m.pool.len() {
            return Err(err(format!(
                "{} health slots for a pool of {} members",
                predictor_health.len(),
                m.pool.len()
            )));
        }
    }
    // The same integrity bounds the constructor enforces; a snapshot written
    // by a live instance always satisfies them.
    let min_train = config.window + config.k.max(2);
    if train_size < min_train {
        return Err(err(format!("train_size {train_size} below minimum {min_train}")));
    }
    // The stored capacity (0 once meant unbounded) is checked as the writer
    // left it, then ignored: the restored rings take the capacity derived
    // from this build's rule and keep the newest values that fit.
    if stored_cap != 0 && stored_cap < train_size {
        return Err(err(format!(
            "stored history cap {stored_cap} cannot hold train_size {train_size}"
        )));
    }
    let cap = history_cap(&config, train_size);
    // The fallback error tracker is advisory, windowed state: it restarts
    // cold, created before the restored stream's first read of it.
    Ok(OnlineLarp {
        config,
        qa,
        history: HistoryRing::from_vec_mode(history, cap, resilience.f32_history),
        resilience,
        seen,
        train_size,
        model,
        pending,
        retrain_count,
        clock,
        predictor_health,
        tracker: None,
        counters,
        consecutive_retrain_failures,
        next_retrain_at,
        retrain_pending,
        obs: None,
    })
}

fn put_sanitizer(w: &mut Writer, s: &Sanitizer) {
    put_ingest_config(w, &s.config);
    w.opt_u64(s.last_minute);
    w.opt_f64(s.last_value);
    w.opt_f64(s.last_raw);
    w.f64_seq(s.recent.iter());
    w.usize(s.stuck_len);
    w.bool(s.stuck_counted);
    w.usize(s.stats.received);
    w.usize(s.stats.emitted);
    w.usize(s.stats.duplicates_dropped);
    w.usize(s.stats.gap_samples_filled);
    w.usize(s.stats.gap_samples_skipped);
    w.usize(s.stats.nonfinite_replaced);
    w.usize(s.stats.sentinels_replaced);
    w.usize(s.stats.outliers_clamped);
    w.usize(s.stats.stuck_runs);
}

fn get_sanitizer(r: &mut Reader) -> Result<Sanitizer> {
    let config = get_ingest_config(r)?;
    let mut sanitizer = Sanitizer {
        config,
        last_minute: r.opt_u64()?,
        last_value: r.opt_f64()?,
        last_raw: r.opt_f64()?,
        recent: VecDeque::from(r.f64_seq()?),
        stuck_len: r.usize()?,
        stuck_counted: r.bool()?,
        stats: IngestStats {
            received: r.usize()?,
            emitted: r.usize()?,
            duplicates_dropped: r.usize()?,
            gap_samples_filled: r.usize()?,
            gap_samples_skipped: r.usize()?,
            nonfinite_replaced: r.usize()?,
            sentinels_replaced: r.usize()?,
            outliers_clamped: r.usize()?,
            stuck_runs: r.usize()?,
        },
        robust_scratch: Vec::new(),
    };
    sanitizer.rebuild_robust_mirror();
    Ok(sanitizer)
}

impl OnlineLarp {
    /// Serializes the complete serving state (trained model, QA history,
    /// quarantine clocks, counters) as a self-describing byte vector.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(KIND_ONLINE);
        put_online(&mut w, self);
        w.into_bytes()
    }

    /// Restores an [`OnlineLarp`] from [`OnlineLarp::to_snapshot_bytes`]
    /// output, without retraining: subsequent `push` calls behave exactly as
    /// they would have on the snapshotted instance.
    ///
    /// # Errors
    ///
    /// Returns [`LarpError::Snapshot`] for malformed bytes and propagates
    /// validation errors for inconsistent state.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes, KIND_ONLINE)?;
        let online = get_online(&mut r)?;
        r.finish()?;
        Ok(online)
    }
}

impl GuardedLarp {
    /// Serializes sanitizer plus online predictor state as one byte vector.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        self.write_snapshot(&mut out);
        out
    }

    /// [`GuardedLarp::to_snapshot_bytes`] into a caller's buffer: replaces
    /// `out`'s contents with the snapshot, reusing its allocation, so a
    /// writer serializing many streams in turn needs one buffer, not one
    /// per stream.
    pub fn write_snapshot(&self, out: &mut Vec<u8>) {
        let mut w = Writer::over(std::mem::take(out), KIND_GUARDED);
        put_sanitizer(&mut w, &self.sanitizer);
        put_online(&mut w, &self.online);
        *out = w.into_bytes();
    }

    /// Restores a [`GuardedLarp`] from [`GuardedLarp::to_snapshot_bytes`]
    /// output, without retraining.
    ///
    /// # Errors
    ///
    /// Returns [`LarpError::Snapshot`] for malformed bytes and propagates
    /// validation errors for inconsistent state.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes, KIND_GUARDED)?;
        let sanitizer = get_sanitizer(&mut r)?;
        let online = get_online(&mut r)?;
        r.finish()?;
        Ok(GuardedLarp { sanitizer, online })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::{HealthState, OnlineStep};
    use crate::selector::PoolErrorTracker;

    fn qa() -> QualityAssuror {
        QualityAssuror::new(2.0, 8, 4).unwrap()
    }

    fn signal(t: usize) -> f64 {
        100.0 + (t as f64 * 0.2).sin() * 5.0 + ((t * 37) % 11) as f64 * 0.1
    }

    #[test]
    fn online_round_trip_is_bit_exact() {
        let mut live = OnlineLarp::new(LarpConfig::default(), 40, qa()).unwrap();
        for t in 0..90 {
            live.push(signal(t));
        }
        assert!(live.is_trained());

        let bytes = live.to_snapshot_bytes();
        let mut restored = OnlineLarp::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(restored.retrain_count(), live.retrain_count());
        assert_eq!(restored.seen(), live.seen());
        assert_eq!(restored.counters(), live.counters());
        assert_eq!(restored.qa().audits(), live.qa().audits());

        // The restored instance must continue *identically* — same forecasts,
        // same chosen predictors, same health — with no retraining.
        let retrains_before = restored.retrain_count();
        for t in 90..220 {
            let a: OnlineStep = live.push(signal(t));
            let b: OnlineStep = restored.push(signal(t));
            assert_eq!(a, b, "divergence at step {t}");
        }
        // A QA-triggered retrain may fire in both equally, but the initial
        // training must not have been redone at restore time.
        assert!(restored.retrain_count() >= retrains_before);
        assert_eq!(restored.retrain_count(), live.retrain_count());
    }

    #[test]
    fn a_stream_and_its_model_share_one_config() {
        let mut live = OnlineLarp::new(LarpConfig::default(), 40, qa()).unwrap();
        for t in 0..90 {
            live.push(signal(t));
        }
        let shares = |o: &OnlineLarp| Arc::ptr_eq(&o.config, &o.model.as_ref().unwrap().config);
        assert!(shares(&live), "a refit references the stream's config");
        let bytes = live.to_snapshot_bytes();
        let restored = OnlineLarp::from_snapshot_bytes(&bytes).unwrap();
        assert!(shares(&restored), "equal encoded configs decode to one Arc");
        assert_eq!(restored.to_snapshot_bytes(), bytes);

        // A model whose encoded config differs keeps its own, byte for byte.
        let own = LarpConfig {
            reduction: FeatureReduction::PcaFraction { min_fraction: 0.9 },
            ..LarpConfig::default()
        };
        live.model.as_mut().unwrap().config = Arc::new(own.clone());
        let bytes = live.to_snapshot_bytes();
        let restored = OnlineLarp::from_snapshot_bytes(&bytes).unwrap();
        assert!(!shares(&restored));
        assert_eq!(*restored.model.as_ref().unwrap().config, own);
        assert_eq!(restored.to_snapshot_bytes(), bytes);
    }

    #[test]
    fn untrained_online_round_trips() {
        let mut live = OnlineLarp::new(LarpConfig::default(), 40, qa()).unwrap();
        for t in 0..10 {
            live.push(signal(t));
        }
        let mut restored = OnlineLarp::from_snapshot_bytes(&live.to_snapshot_bytes()).unwrap();
        assert!(!restored.is_trained());
        for t in 10..60 {
            assert_eq!(live.push(signal(t)), restored.push(signal(t)));
        }
        assert!(restored.is_trained(), "initial training happens at the same step");
    }

    #[test]
    fn quarantine_state_survives_the_round_trip() {
        let mut live = OnlineLarp::new(LarpConfig::default(), 40, qa()).unwrap();
        for t in 0..60 {
            live.push(signal(t));
        }
        live.quarantine_predictor(PredictorId(1)).unwrap();
        let restored = OnlineLarp::from_snapshot_bytes(&live.to_snapshot_bytes()).unwrap();
        assert!(restored.is_quarantined(PredictorId(1)));
        assert_eq!(restored.quarantined(), live.quarantined());
        assert_eq!(restored.counters().quarantines, 1);
    }

    #[test]
    fn a_stream_restored_mid_quarantine_ranks_its_fallbacks_as_before() {
        // The tracker restarts cold on restore. Whenever the restored stream
        // creates it, it must hold what a tracker created at the restore
        // would: one restore is compared with a copy given that eager
        // tracker, from snapshots taken 0 and 30 steps into a quarantine.
        let resilience = ResilienceConfig { quarantine_base: 200, ..ResilienceConfig::default() };
        for observed in [0, 30] {
            let mut live =
                OnlineLarp::with_resilience(LarpConfig::default(), 40, qa(), resilience.clone())
                    .unwrap();
            let mut chosen = None;
            for t in 0..60 {
                chosen = live.push(signal(t)).chosen.or(chosen);
            }
            live.quarantine_predictor(chosen.expect("a trained stream chose a member")).unwrap();
            for t in 60..60 + observed {
                live.push(signal(t));
            }
            let bytes = live.to_snapshot_bytes();
            let mut lazy = OnlineLarp::from_snapshot_bytes(&bytes).unwrap();
            let mut eager = OnlineLarp::from_snapshot_bytes(&bytes).unwrap();
            assert!(lazy.tracker.is_none(), "restored cold");
            let pool = eager.model.as_ref().unwrap().pool().len();
            eager.tracker = Some(PoolErrorTracker::new(pool, eager.config.window.max(8)).unwrap());
            let mut degraded = 0;
            for t in 60 + observed..300 {
                let (a, b) = (lazy.push(signal(t)), eager.push(signal(t)));
                assert_eq!(a, b, "{observed} steps observed, minute {t}");
                if lazy.tracker.is_some() {
                    assert_eq!(
                        format!("{:?}", lazy.tracker),
                        format!("{:?}", eager.tracker),
                        "{observed} steps observed, minute {t}"
                    );
                }
                degraded += usize::from(a.health == HealthState::Degraded);
            }
            assert!(lazy.tracker.is_some(), "the quarantined steps created the tracker");
            assert!(degraded > 10, "{degraded} steps reached rung 2");
        }
    }

    #[test]
    fn guarded_round_trip_with_faulty_tail() {
        let mut live = GuardedLarp::new(
            crate::ingest::IngestConfig::default(),
            LarpConfig::default(),
            40,
            qa(),
        )
        .unwrap();
        for t in 0..120u64 {
            let v = if t % 13 == 0 { f64::NAN } else { signal(t as usize) };
            live.ingest(t, v);
        }
        let bytes = live.to_snapshot_bytes();
        // A reused buffer holds exactly the snapshot, whatever it held before.
        for leftover in [Vec::new(), vec![0xAB; 3], vec![0xCD; bytes.len() * 2]] {
            let mut buf = leftover;
            live.write_snapshot(&mut buf);
            assert_eq!(buf, bytes);
        }
        let mut restored = GuardedLarp::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(restored.sanitizer().stats(), live.sanitizer().stats());
        assert_eq!(restored.online().retrain_count(), live.online().retrain_count());

        for t in 120..260u64 {
            let v = match t % 11 {
                0 => f64::NAN,
                5 => -1.0, // sentinel
                _ => signal(t as usize),
            };
            let a = live.ingest(t, v);
            let b = restored.ingest(t, v);
            assert_eq!(a, b, "divergence at minute {t}");
        }
        assert_eq!(restored.sanitizer().stats(), live.sanitizer().stats());
    }

    #[test]
    fn extended_pool_with_fitted_ar_members_round_trips() {
        // The extended pool exercises every ModelSpec tag including the
        // fitted AR/ARI members whose coefficients must survive verbatim.
        let config = LarpConfig::extended(5);
        let mut live = OnlineLarp::new(config, 60, qa()).unwrap();
        for t in 0..120 {
            live.push(signal(t));
        }
        assert!(live.is_trained());
        let mut restored = OnlineLarp::from_snapshot_bytes(&live.to_snapshot_bytes()).unwrap();
        for t in 120..200 {
            assert_eq!(live.push(signal(t)), restored.push(signal(t)));
        }
    }

    #[test]
    fn malformed_bytes_error_instead_of_panicking() {
        assert!(matches!(
            OnlineLarp::from_snapshot_bytes(b"not a snapshot at all"),
            Err(LarpError::Snapshot(_))
        ));
        assert!(matches!(OnlineLarp::from_snapshot_bytes(&[]), Err(LarpError::Snapshot(_))));

        let mut live = OnlineLarp::new(LarpConfig::default(), 40, qa()).unwrap();
        for t in 0..60 {
            live.push(signal(t));
        }
        let bytes = live.to_snapshot_bytes();
        // Truncations at every prefix must fail cleanly, never panic.
        for cut in [9, 13, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                OnlineLarp::from_snapshot_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        // A ragged k-NN point set: the second point claims one value where
        // the first holds two.
        let knn = live.model.as_ref().expect("trained").knn();
        let first: Vec<u8> = [2u64, knn.point(0)[0].to_bits(), knn.point(0)[1].to_bits()]
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect();
        let at = bytes.windows(first.len()).position(|w| w == first).expect("first point") + 24;
        assert_eq!(bytes[at..at + 8], 2u64.to_le_bytes());
        let mut ragged = bytes.clone();
        ragged[at..at + 8].copy_from_slice(&1u64.to_le_bytes());
        assert!(matches!(
            OnlineLarp::from_snapshot_bytes(&ragged),
            Err(LarpError::Snapshot(e)) if e.contains("k-NN point 1 has dim 1")
        ));
        // A first point wider than the rest of the bytes can hold.
        ragged[at - 24..at - 16].copy_from_slice(&40u64.to_le_bytes());
        assert!(matches!(OnlineLarp::from_snapshot_bytes(&ragged), Err(LarpError::Snapshot(_))));
        // A guarded snapshot is not an online snapshot.
        let guarded = GuardedLarp::new(
            crate::ingest::IngestConfig::default(),
            LarpConfig::default(),
            40,
            qa(),
        )
        .unwrap();
        assert!(matches!(
            OnlineLarp::from_snapshot_bytes(&guarded.to_snapshot_bytes()),
            Err(LarpError::Snapshot(_))
        ));
    }

    #[test]
    fn snapshot_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<OnlineLarp>();
        assert_send::<GuardedLarp>();
    }
}
