//! Metric primitives: single-atomic counters, bit-cast f64 gauges, and
//! histograms with fixed or log-scaled buckets.
//!
//! Each series has one writer in practice — the engine is a chain of
//! single-threaded stages — so a series is one atomic cell; extra writers
//! stay exact and only share its line. A counter increment is one relaxed
//! `fetch_add` on a cache-line-aligned word, which keeps two stages'
//! counters off a shared line. Histogram observation is a binary search over the bucket bounds,
//! one bucket `fetch_add` and one compare-and-swap on the `f64` sum; the
//! count is the bucket total, so `+Inf == _count` in every snapshot.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

#[repr(align(64))]
#[derive(Debug)]
pub(crate) struct CounterCore(AtomicU64);

impl CounterCore {
    pub(crate) fn new() -> Self {
        CounterCore(AtomicU64::new(0))
    }

    #[inline]
    fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Monotonically increasing counter. Cloning is cheap and clones observe the
/// same underlying series.
#[derive(Clone, Debug)]
pub struct Counter {
    pub(crate) core: Arc<CounterCore>,
}

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, v: u64) {
        self.core.add(v);
    }

    pub fn get(&self) -> u64 {
        self.core.get()
    }
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

#[derive(Debug)]
pub(crate) struct GaugeCore {
    bits: AtomicU64,
}

impl GaugeCore {
    pub(crate) fn new() -> Self {
        GaugeCore {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Add `delta` to the `f64` whose bits `cell` holds.
#[inline]
fn add_f64(cell: &AtomicU64, delta: f64) {
    let add = |bits| Some((f64::from_bits(bits) + delta).to_bits());
    // `add` never returns `None`, so the update always lands.
    let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, add);
}

/// Instantaneous value stored as f64 bits in an atomic word.
#[derive(Clone, Debug)]
pub struct Gauge {
    pub(crate) core: Arc<GaugeCore>,
}

impl Gauge {
    #[inline]
    pub fn set(&self, v: f64) {
        self.core.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, delta: f64) {
        add_f64(&self.core.bits, delta);
    }

    pub fn get(&self) -> f64 {
        self.core.get()
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Bucket layout for a histogram: explicit upper bounds, or a log-scaled
/// (exponential) ladder `start * factor^i` for `i in 0..count`.
#[derive(Clone, Debug, PartialEq)]
pub enum Buckets {
    Fixed(Vec<f64>),
    Exponential {
        start: f64,
        factor: f64,
        count: usize,
    },
}

impl Buckets {
    pub fn fixed(bounds: &[f64]) -> Self {
        Buckets::Fixed(bounds.to_vec())
    }

    pub fn exponential(start: f64, factor: f64, count: usize) -> Self {
        Buckets::Exponential {
            start,
            factor,
            count,
        }
    }

    /// Resolved, validated finite upper bounds in strictly ascending order.
    /// The implicit `+Inf` bucket is appended by the histogram itself.
    pub(crate) fn bounds(&self) -> Vec<f64> {
        let out = match self {
            Buckets::Fixed(b) => b.clone(),
            Buckets::Exponential {
                start,
                factor,
                count,
            } => {
                assert!(*start > 0.0 && *factor > 1.0, "invalid exponential buckets");
                (0..*count).map(|i| start * factor.powi(i as i32)).collect()
            }
        };
        assert!(!out.is_empty(), "histogram needs at least one bucket bound");
        for w in out.windows(2) {
            assert!(w[0] < w[1], "bucket bounds must be strictly ascending");
        }
        assert!(
            out.iter().all(|b| b.is_finite()),
            "bucket bounds must be finite (+Inf is implicit)"
        );
        out
    }
}

/// One sampled observation attached to a histogram bucket, rendered in
/// OpenMetrics exemplar syntax (`# {labels} value`). The combined UTF-8
/// length of label names and values is capped at
/// [`EXEMPLAR_MAX_LABEL_CHARS`] per the OpenMetrics spec; oversized label
/// sets are dropped at record time.
#[derive(Clone, Debug, PartialEq)]
pub struct Exemplar {
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

/// OpenMetrics cap on the combined length of exemplar label names and
/// values, in UTF-8 code points.
pub const EXEMPLAR_MAX_LABEL_CHARS: usize = 128;

impl Exemplar {
    /// Combined label-set length in UTF-8 code points (names + values).
    pub fn label_chars(&self) -> usize {
        self.labels
            .iter()
            .map(|(k, v)| k.chars().count() + v.chars().count())
            .sum()
    }
}

#[derive(Debug)]
pub(crate) struct HistogramCore {
    bounds: Box<[f64]>,
    /// One slot per bound plus the trailing `+Inf` bucket. Non-cumulative;
    /// the snapshot accumulates, and their total is the count.
    buckets: Box<[AtomicU64]>,
    sum_bits: AtomicU64,
    /// One exemplar slot per bucket (incl. `+Inf`). Written only by the
    /// explicit [`Histogram::observe_exemplar`] path, which is rare
    /// (per-window, not per-record), so a plain mutex per slot is cheap and
    /// never touches the plain `observe` hot path.
    exemplars: Box<[Mutex<Option<Exemplar>>]>,
}

impl HistogramCore {
    pub(crate) fn new(bounds: Vec<f64>) -> Self {
        let buckets = (0..bounds.len() + 1)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let exemplars = (0..bounds.len() + 1)
            .map(|_| Mutex::new(None))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        HistogramCore {
            bounds: bounds.into_boxed_slice(),
            buckets,
            sum_bits: AtomicU64::new(0f64.to_bits()),
            exemplars,
        }
    }

    pub(crate) fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    #[inline]
    fn bucket_index(&self, v: f64) -> usize {
        // First bound >= v is the `le` bucket; NaN falls through to +Inf.
        if v.is_nan() {
            return self.bounds.len();
        }
        self.bounds.partition_point(|b| *b < v)
    }

    #[inline]
    fn observe(&self, v: f64) {
        self.buckets[self.bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        add_f64(&self.sum_bits, v);
    }

    /// Observe `v` and store an exemplar in the bucket it lands in. The
    /// exemplar is dropped (observation kept) if the label set exceeds the
    /// OpenMetrics 128-code-point cap.
    fn observe_exemplar(&self, v: f64, exemplar: Exemplar) {
        self.observe(v);
        if exemplar.label_chars() > EXEMPLAR_MAX_LABEL_CHARS {
            return;
        }
        let idx = self.bucket_index(v);
        if let Ok(mut slot) = self.exemplars[idx].lock() {
            *slot = Some(exemplar);
        }
    }

    /// (cumulative bucket counts incl. +Inf, sum, count). The count is the
    /// `+Inf` total, so the two agree even mid-write; the sum may lead or
    /// trail them by the observations in flight.
    pub(crate) fn snapshot(&self) -> (Vec<u64>, f64, u64) {
        let mut acc = 0u64;
        let cumulative: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| {
                acc += b.load(Ordering::Relaxed);
                acc
            })
            .collect();
        let sum = f64::from_bits(self.sum_bits.load(Ordering::Relaxed));
        (cumulative, sum, acc)
    }

    /// Current exemplar per bucket (incl. `+Inf`), in bucket order.
    pub(crate) fn exemplars(&self) -> Vec<Option<Exemplar>> {
        self.exemplars
            .iter()
            .map(|slot| slot.lock().map(|e| e.clone()).unwrap_or(None))
            .collect()
    }
}

/// Distribution metric with cumulative `le` buckets, `_sum`, `_count`.
#[derive(Clone, Debug)]
pub struct Histogram {
    pub(crate) core: Arc<HistogramCore>,
}

impl Histogram {
    #[inline]
    pub fn observe(&self, v: f64) {
        self.core.observe(v);
    }

    /// Observe `v` and attach an exemplar (OpenMetrics `# {labels} value`)
    /// to the bucket the observation lands in. Each bucket holds one
    /// bounded exemplar slot; a later exemplar in the same bucket replaces
    /// the earlier one. Label sets longer than 128 UTF-8 code points drop
    /// the exemplar but keep the observation.
    pub fn observe_exemplar(&self, v: f64, labels: &[(&str, &str)]) {
        let exemplar = Exemplar {
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value: v,
        };
        self.core.observe_exemplar(v, exemplar);
    }

    /// RAII timer that observes elapsed seconds into this histogram on drop.
    pub fn start_timer(&self) -> StageTimer {
        StageTimer {
            hist: self.clone(),
            start: Instant::now(),
            armed: true,
        }
    }

    pub fn snapshot(&self) -> (Vec<u64>, f64, u64) {
        self.core.snapshot()
    }

    /// Current exemplar per bucket (incl. `+Inf`), in bucket order.
    pub fn exemplars(&self) -> Vec<Option<Exemplar>> {
        self.core.exemplars()
    }

    pub fn count(&self) -> u64 {
        self.core.snapshot().2
    }

    pub fn sum(&self) -> f64 {
        self.core.snapshot().1
    }
}

/// Scoped stage timer: created via [`Histogram::start_timer`], records the
/// elapsed wall time in seconds when dropped (or explicitly via
/// [`StageTimer::stop`]). [`StageTimer::discard`] cancels the observation.
#[derive(Debug)]
pub struct StageTimer {
    hist: Histogram,
    start: Instant,
    armed: bool,
}

impl StageTimer {
    /// Stop the timer now and record the observation.
    pub fn stop(self) {
        // Drop does the work.
    }

    /// Consume without recording anything.
    pub fn discard(mut self) {
        self.armed = false;
    }
}

impl Drop for StageTimer {
    fn drop(&mut self) {
        if self.armed {
            self.hist.observe(self.start.elapsed().as_secs_f64());
        }
    }
}
