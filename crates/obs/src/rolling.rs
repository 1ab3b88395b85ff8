//! Sharded, time-bucketed rolling aggregation: "what are p99 and QPS
//! *right now*", not "what were they over the whole run".
//!
//! The metrics [`Registry`](crate::Registry) accumulates forever — the
//! right shape for end-of-run reports, the wrong one for live serving,
//! where a latency spike five minutes ago must not haunt the current
//! p99. A [`RollingRecorder`] instead buckets observations into
//! fixed-width time buckets (1 s by default) held in a ring whose
//! extent is the configured window; reading merges only the buckets
//! inside the requested window, so expired data vanishes without any
//! background sweeper.
//!
//! Design notes:
//!
//! - **Sharded**: observations land in one of N shards (picked by a
//!   dense per-thread number, or explicitly by the deterministic load
//!   generator), each behind its own short-critical-section mutex, so
//!   concurrent serving threads rarely contend. Reads merge shards;
//!   [`Histogram::merge`] and counter addition are commutative, so the
//!   merged result is independent of shard assignment.
//! - **Injectable time**: every timestamp comes from a [`Clock`] or is
//!   passed explicitly ([`RollingRecorder::record_at`]). Under a
//!   [`ManualClock`](crate::ManualClock) the entire window content is
//!   a pure function of the recorded (timestamp, value) pairs —
//!   bit-identical across runs and thread interleavings.
//! - **Clamped**: a shard never moves backwards in time. If a
//!   timestamp regresses (NTP-style clock trouble, or interleaved
//!   virtual times sharing a shard), the observation is recorded into
//!   the shard's latest bucket instead of resurrecting an old one.
//! - **Lazy expiry**: a ring slot is reset the moment a write lands in
//!   a newer epoch for that slot, and reads filter buckets by epoch —
//!   a series idle for longer than the window reports empty without
//!   anyone sweeping it.

use crate::clock::Clock;
use crate::histogram::Histogram;
use parking_lot::Mutex;
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Nanoseconds per second, the unit bridge used throughout.
pub const SECOND_NS: u64 = 1_000_000_000;

/// Epoch marker for a never-written ring slot.
const EMPTY_EPOCH: u64 = u64::MAX;

/// Shape of a [`RollingRecorder`].
#[derive(Debug, Clone)]
pub struct RollingConfig {
    /// Width of one time bucket, seconds (>= 1).
    pub bucket_secs: u64,
    /// Ring extent, seconds: the largest window a read can ask for.
    pub window_secs: u64,
    /// Number of shards (>= 1). More shards, less write contention.
    pub shards: usize,
}

impl Default for RollingConfig {
    fn default() -> Self {
        Self {
            bucket_secs: 1,
            window_secs: 60,
            shards: 8,
        }
    }
}

/// One time bucket of one series in one shard.
#[derive(Debug)]
struct Bucket {
    /// Which absolute bucket epoch this slot currently holds.
    epoch: u64,
    count: u64,
    errors: u64,
    hist: Histogram,
}

impl Bucket {
    fn empty() -> Self {
        Self {
            epoch: EMPTY_EPOCH,
            count: 0,
            errors: 0,
            hist: Histogram::new(),
        }
    }

    fn reset_to(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.count = 0;
        self.errors = 0;
        self.hist = Histogram::new();
    }
}

/// Per-shard state: ring buffers per series name, plus the clamp floor.
#[derive(Debug, Default)]
struct ShardState {
    series: BTreeMap<String, Vec<Bucket>>,
    /// Latest epoch this shard has written; timestamps that regress
    /// below it are clamped up to it.
    last_epoch: u64,
}

/// Windowed aggregate of one series, read at one instant.
#[derive(Debug, Clone)]
pub struct WindowStats {
    /// Series name (span names reuse the `stage.substage` convention).
    pub name: String,
    /// The window this was computed over, seconds.
    pub window_secs: u64,
    /// Observations inside the window.
    pub count: u64,
    /// Observations flagged as errors.
    pub errors: u64,
    /// `count` over the interval actually observed: from the start of
    /// the earliest non-empty bucket in the window through the end of
    /// the bucket containing the read instant, capped at `window_secs`
    /// (0 when the window is empty).
    pub qps: f64,
    /// `errors / count` (0 when the window is empty).
    pub error_rate: f64,
    /// Windowed latency percentiles, nanoseconds.
    pub p50_ns: u64,
    /// 95th percentile, nanoseconds.
    pub p95_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
    /// Smallest observation in the window.
    pub min_ns: u64,
    /// Largest observation in the window.
    pub max_ns: u64,
    /// Mean observation, nanoseconds.
    pub mean_ns: f64,
    /// The merged distribution itself — the SLO evaluator counts
    /// over-threshold observations from it.
    pub histogram: Histogram,
}

impl WindowStats {
    fn from_merged(
        name: &str,
        window_secs: u64,
        observed_secs: f64,
        count: u64,
        errors: u64,
        hist: Histogram,
    ) -> Self {
        Self {
            name: name.to_string(),
            window_secs,
            count,
            errors,
            qps: if count == 0 {
                0.0
            } else {
                count as f64 / observed_secs
            },
            error_rate: if count == 0 {
                0.0
            } else {
                errors as f64 / count as f64
            },
            p50_ns: hist.quantile(0.50),
            p95_ns: hist.quantile(0.95),
            p99_ns: hist.quantile(0.99),
            min_ns: hist.min(),
            max_ns: hist.max(),
            mean_ns: hist.mean(),
            histogram: hist,
        }
    }

    /// JSON object form (field order fixed; the histogram itself is
    /// summarized by the percentile fields, not serialized).
    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            ("window_secs".to_string(), Value::UInt(self.window_secs)),
            ("count".to_string(), Value::UInt(self.count)),
            ("errors".to_string(), Value::UInt(self.errors)),
            ("qps".to_string(), Value::Float(self.qps)),
            ("error_rate".to_string(), Value::Float(self.error_rate)),
            ("p50_ns".to_string(), Value::UInt(self.p50_ns)),
            ("p95_ns".to_string(), Value::UInt(self.p95_ns)),
            ("p99_ns".to_string(), Value::UInt(self.p99_ns)),
            ("min_ns".to_string(), Value::UInt(self.min_ns)),
            ("max_ns".to_string(), Value::UInt(self.max_ns)),
            ("mean_ns".to_string(), Value::Float(self.mean_ns)),
        ])
    }
}

/// The sharded time-bucketed recorder. See the module docs.
pub struct RollingRecorder {
    bucket_ns: u64,
    n_buckets: usize,
    window_secs: u64,
    shards: Vec<Mutex<ShardState>>,
    clock: Arc<dyn Clock>,
}

impl RollingRecorder {
    /// A recorder with `config`'s shape reading time from `clock`.
    pub fn new(config: RollingConfig, clock: Arc<dyn Clock>) -> Self {
        let bucket_secs = config.bucket_secs.max(1);
        let window_secs = config.window_secs.max(bucket_secs);
        let n_buckets = (window_secs.div_ceil(bucket_secs)) as usize;
        Self {
            bucket_ns: bucket_secs * SECOND_NS,
            n_buckets,
            window_secs,
            shards: (0..config.shards.max(1))
                .map(|_| Mutex::new(ShardState::default()))
                .collect(),
            clock,
        }
    }

    /// The ring extent, seconds — the largest answerable window.
    pub fn window_secs(&self) -> u64 {
        self.window_secs
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The recorder's clock (callers use it to timestamp "now" reads).
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Record one observation at the clock's current time, sharded by
    /// the calling thread.
    pub fn record(&self, name: &str, value_ns: u64, error: bool) {
        let shard = (crate::trace::current_tid() as usize) % self.shards.len();
        self.record_at(shard, name, self.clock.now_ns(), value_ns, error);
    }

    /// Record one observation with an explicit shard and timestamp —
    /// the deterministic path: a load-generator worker that owns its
    /// shard and feeds monotonic virtual timestamps gets bit-identical
    /// windows on every run, regardless of thread scheduling.
    pub fn record_at(&self, shard: usize, name: &str, ts_ns: u64, value_ns: u64, error: bool) {
        let shard = &self.shards[shard % self.shards.len()];
        let mut state = shard.lock();
        // Clamp: a shard never travels back in time (see module docs).
        let epoch = (ts_ns / self.bucket_ns).max(state.last_epoch);
        state.last_epoch = epoch;
        let n_buckets = self.n_buckets;
        let ring = state
            .series
            .entry(name.to_string())
            .or_insert_with(|| (0..n_buckets).map(|_| Bucket::empty()).collect());
        let slot = &mut ring[(epoch % n_buckets as u64) as usize];
        if slot.epoch != epoch {
            slot.reset_to(epoch);
        }
        slot.count += 1;
        if error {
            slot.errors += 1;
        }
        slot.hist.record(value_ns);
    }

    /// Every series name seen so far, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names = BTreeSet::new();
        for shard in &self.shards {
            for name in shard.lock().series.keys() {
                names.insert(name.clone());
            }
        }
        names.into_iter().collect()
    }

    /// Windowed stats for one series over the trailing `window_secs`
    /// ending at `at_ns` (inclusive of the bucket containing `at_ns`).
    /// Returns `None` for a never-recorded series; an idle-but-known
    /// series reports zeros. Windows longer than the ring extent are
    /// clamped to it.
    pub fn window_at(&self, name: &str, window_secs: u64, at_ns: u64) -> Option<WindowStats> {
        let window_secs = window_secs.clamp(1, self.window_secs);
        let at_epoch = at_ns / self.bucket_ns;
        let span = (window_secs * SECOND_NS).div_ceil(self.bucket_ns);
        let first_epoch = (at_epoch + 1).saturating_sub(span);
        let mut seen = false;
        let mut earliest = at_epoch;
        let mut count = 0u64;
        let mut errors = 0u64;
        let mut hist = Histogram::new();
        for shard in &self.shards {
            let state = shard.lock();
            let Some(ring) = state.series.get(name) else {
                continue;
            };
            seen = true;
            for bucket in ring {
                if bucket.epoch == EMPTY_EPOCH
                    || bucket.epoch < first_epoch
                    || bucket.epoch > at_epoch
                {
                    continue;
                }
                if bucket.count > 0 {
                    earliest = earliest.min(bucket.epoch);
                }
                count += bucket.count;
                errors += bucket.errors;
                hist.merge(&bucket.hist);
            }
        }
        // A burst shorter than the window is a rate over the burst's
        // buckets, not diluted across the whole window.
        let observed_ns = ((at_epoch - earliest + 1) * self.bucket_ns).min(window_secs * SECOND_NS);
        let observed_secs = observed_ns as f64 / SECOND_NS as f64;
        seen.then(|| {
            WindowStats::from_merged(name, window_secs, observed_secs, count, errors, hist)
        })
    }

    /// [`window_at`](Self::window_at) read at the clock's current time.
    pub fn window(&self, name: &str, window_secs: u64) -> Option<WindowStats> {
        self.window_at(name, window_secs, self.clock.now_ns())
    }

    /// Windowed stats for every known series at `at_ns`, sorted by
    /// name — the dashboard's one-call data source.
    pub fn snapshot_at(&self, window_secs: u64, at_ns: u64) -> Vec<WindowStats> {
        self.names()
            .iter()
            .filter_map(|name| self.window_at(name, window_secs, at_ns))
            .collect()
    }

    /// [`snapshot_at`](Self::snapshot_at) at the clock's current time.
    pub fn snapshot(&self, window_secs: u64) -> Vec<WindowStats> {
        self.snapshot_at(window_secs, self.clock.now_ns())
    }

    /// Drop every bucket of every series (the series names are dropped
    /// too). Part of the [`Registry::reset`](crate::Registry::reset)
    /// contract.
    pub fn reset(&self) {
        for shard in &self.shards {
            let mut state = shard.lock();
            state.series.clear();
            state.last_epoch = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn recorder(window_secs: u64, shards: usize) -> (Arc<ManualClock>, RollingRecorder) {
        let clock = Arc::new(ManualClock::new(0));
        let rec = RollingRecorder::new(
            RollingConfig {
                bucket_secs: 1,
                window_secs,
                shards,
            },
            clock.clone() as Arc<dyn Clock>,
        );
        (clock, rec)
    }

    #[test]
    fn empty_series_is_none_and_unknown_window_clamps() {
        let (_, rec) = recorder(10, 2);
        assert!(rec.window("nope", 5).is_none());
        rec.record_at(0, "a", 0, 10, false);
        let w = rec.window_at("a", 10_000, 0).expect("series exists");
        assert_eq!(w.window_secs, 10, "window clamps to the ring extent");
    }

    #[test]
    fn counts_qps_and_error_rate() {
        let (clock, rec) = recorder(10, 1);
        for i in 0..20u64 {
            clock.set_ns(i * SECOND_NS / 4); // 4 per second, 5 seconds
            rec.record("q", 100 + i, i % 5 == 0);
        }
        let w = rec.window_at("q", 5, 4 * SECOND_NS).expect("recorded");
        assert_eq!(w.count, 20);
        assert_eq!(w.errors, 4);
        assert!((w.qps - 4.0).abs() < 1e-12);
        assert!((w.error_rate - 0.2).abs() < 1e-12);
        assert_eq!(w.min_ns, 100);
        assert_eq!(w.max_ns, 119);
    }

    #[test]
    fn qps_covers_the_observed_interval_not_the_whole_window() {
        let (clock, rec) = recorder(60, 2);
        // A 2,400-query burst inside one 1 s bucket of a 60 s window.
        clock.set_ns(10 * SECOND_NS + SECOND_NS / 5);
        for i in 0..2400u64 {
            rec.record("q", 100 + i, false);
        }
        let w = rec.window_at("q", 60, 10 * SECOND_NS).expect("recorded");
        assert_eq!(w.count, 2400);
        assert!((w.qps - 2400.0).abs() < 1e-9, "qps {}", w.qps);
        // Two seconds later the same queries span three buckets.
        let later = rec.window_at("q", 60, 12 * SECOND_NS).expect("recorded");
        assert!((later.qps - 800.0).abs() < 1e-9, "qps {}", later.qps);
        // A window that has seen traffic for longer than itself stays
        // capped at its own length.
        let (_, long) = recorder(10, 1);
        for s in 0..30u64 {
            long.record_at(0, "q", s * SECOND_NS, 1, false);
        }
        let w10 = long.window_at("q", 10, 29 * SECOND_NS).expect("recorded");
        assert!((w10.qps - 1.0).abs() < 1e-9, "qps {}", w10.qps);
    }

    #[test]
    fn old_buckets_fall_out_of_the_window() {
        let (_, rec) = recorder(60, 1);
        rec.record_at(0, "q", 0, 5, false); // t = 0 s
        rec.record_at(0, "q", 30 * SECOND_NS, 7, false); // t = 30 s
        let at = 35 * SECOND_NS;
        assert_eq!(rec.window_at("q", 10, at).unwrap().count, 1);
        assert_eq!(rec.window_at("q", 60, at).unwrap().count, 2);
    }

    #[test]
    fn merged_windows_are_shard_assignment_independent() {
        let (_, a) = recorder(30, 1);
        let (_, b) = recorder(30, 4);
        for i in 0..100u64 {
            let ts = (i % 20) * SECOND_NS;
            a.record_at(0, "q", ts, i * 1000, i % 7 == 0);
            b.record_at((i % 4) as usize, "q", ts, i * 1000, i % 7 == 0);
        }
        let wa = a.window_at("q", 30, 20 * SECOND_NS).unwrap();
        let wb = b.window_at("q", 30, 20 * SECOND_NS).unwrap();
        assert_eq!(
            (wa.count, wa.errors, wa.p50_ns, wa.p95_ns, wa.p99_ns),
            (wb.count, wb.errors, wb.p50_ns, wb.p95_ns, wb.p99_ns),
        );
    }

    #[test]
    fn reset_empties_everything() {
        let (_, rec) = recorder(10, 3);
        rec.record_at(1, "q", SECOND_NS, 5, false);
        assert_eq!(rec.names(), vec!["q".to_string()]);
        rec.reset();
        assert!(rec.names().is_empty());
        assert!(rec.window_at("q", 10, SECOND_NS).is_none());
    }
}
