//! Metric primitives: sharded-atomic counters, bit-cast f64 gauges, and
//! histograms with fixed or log-scaled buckets.
//!
//! Hot-path design: a counter increment is one relaxed `fetch_add` on a
//! cache-line-padded shard picked per thread, so concurrent writers never
//! contend on the same line. Histogram observation is a binary search over
//! the bucket bounds plus three relaxed atomic updates (bucket, per-shard
//! count, per-shard sum). Reads (snapshots) sum across shards and are only
//! taken at scrape time.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of per-metric shards. Power of two so the thread index wraps with
/// a mask. 16 shards * 64 bytes = 1 KiB per counter: cardinality stays low
/// (see DESIGN.md §10) so the memory cost is bounded.
pub(crate) const SHARDS: usize = 16;

#[repr(align(64))]
#[derive(Debug)]
pub(crate) struct Shard(pub(crate) AtomicU64);

impl Shard {
    fn new() -> Self {
        Shard(AtomicU64::new(0))
    }
}

/// Stable per-thread shard index in `0..SHARDS`, assigned round-robin the
/// first time a thread touches any metric.
pub(crate) fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static IDX: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    IDX.with(|c| {
        let mut v = c.get();
        if v == usize::MAX {
            v = NEXT.fetch_add(1, Ordering::Relaxed) & (SHARDS - 1);
            c.set(v);
        }
        v
    })
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

#[derive(Debug)]
pub(crate) struct CounterCore {
    shards: [Shard; SHARDS],
}

impl CounterCore {
    pub(crate) fn new() -> Self {
        CounterCore {
            shards: std::array::from_fn(|_| Shard::new()),
        }
    }

    #[inline]
    fn add(&self, v: u64) {
        self.shards[shard_index()].0.fetch_add(v, Ordering::Relaxed);
    }

    pub(crate) fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
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

    /// Current value (sums all shards; scrape-time cost only).
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
        let mut cur = self.core.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self.core.bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
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

#[repr(align(64))]
#[derive(Debug)]
struct HistShard {
    count: AtomicU64,
    sum_bits: AtomicU64,
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
    /// the snapshot accumulates.
    buckets: Box<[AtomicU64]>,
    shards: [HistShard; SHARDS],
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
            shards: std::array::from_fn(|_| HistShard {
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0f64.to_bits()),
            }),
            exemplars,
        }
    }

    pub(crate) fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    #[inline]
    fn bucket_index(&self, v: f64) -> usize {
        // First bound >= v is the `le` bucket; NaN falls through to +Inf.
        self.bounds.partition_point(|b| *b < v)
    }

    #[inline]
    fn observe(&self, v: f64) {
        let idx = self.bucket_index(v);
        // Release so a snapshot that observes the per-shard count (Acquire)
        // also observes the bucket increment that preceded it — the
        // consistency protocol in `snapshot` relies on this ordering.
        self.buckets[idx].fetch_add(1, Ordering::Release);
        let shard = &self.shards[shard_index()];
        shard.count.fetch_add(1, Ordering::Release);
        let mut cur = shard.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match shard.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
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

    fn total_count(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.count.load(Ordering::Acquire))
            .sum()
    }

    /// (cumulative bucket counts incl. +Inf, sum, count)
    ///
    /// Consistency protocol (retry-on-change): a snapshot taken during
    /// concurrent `observe` calls must never report a `count` inconsistent
    /// with the bucket totals — the renderer and `lint` both assert
    /// `+Inf == _count`. We read the shard counts, then the buckets, then
    /// the shard counts again; if nothing moved and the bucket total equals
    /// the count, the view is consistent. Under sustained concurrent writes
    /// the retry loop may never settle, so after a bounded number of
    /// attempts we reconcile by reporting `count := bucket total` — buckets
    /// are incremented before shard counts (Release/Acquire ordered), so the
    /// bucket total is the authoritative, monotone value.
    pub(crate) fn snapshot(&self) -> (Vec<u64>, f64, u64) {
        const ATTEMPTS: usize = 8;
        let mut cumulative = Vec::with_capacity(self.buckets.len());
        for attempt in 0..ATTEMPTS {
            let c1 = self.total_count();
            cumulative.clear();
            let mut acc = 0u64;
            for b in self.buckets.iter() {
                acc += b.load(Ordering::Acquire);
                cumulative.push(acc);
            }
            let sum: f64 = self
                .shards
                .iter()
                .map(|s| f64::from_bits(s.sum_bits.load(Ordering::Relaxed)))
                .sum();
            let c2 = self.total_count();
            if c1 == c2 && acc == c1 {
                return (cumulative, sum, c1);
            }
            if attempt == ATTEMPTS - 1 {
                // Reconcile: the bucket total is monotone and, by write
                // ordering, never behind the shard counts we could observe.
                return (cumulative, sum, acc);
            }
            std::hint::spin_loop();
        }
        unreachable!("snapshot retry loop always returns");
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
