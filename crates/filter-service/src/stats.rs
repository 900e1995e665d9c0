//! Service metrics: the serving-layer analogue of `gpu_sim`'s
//! `KernelStats`. Where the substrate counts memory transactions per kernel
//! launch, the service counts operations per flush — throughput, the
//! batch-size histogram (how well aggregation is amortizing per-call
//! costs, the paper's §4.2 lesson applied to serving), queue depths
//! (backpressure headroom), and flush latency.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of power-of-two batch-size buckets tracked (1, 2–3, 4–7, …,
/// ≥ 2¹⁵).
pub const HIST_BUCKETS: usize = 16;

/// Histogram of flushed batch sizes in power-of-two buckets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchHistogram {
    /// `buckets[i]` counts flushes of `2^i ..= 2^(i+1) - 1` items (the last
    /// bucket absorbs everything larger).
    pub buckets: [u64; HIST_BUCKETS],
}

impl BatchHistogram {
    /// Bucket index for a flush of `n` items.
    pub fn bucket_of(n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        (usize::BITS - 1 - n.leading_zeros()).min(HIST_BUCKETS as u32 - 1) as usize
    }

    /// Total flushes recorded.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Render as `"1:12 2-3:40 …"`, skipping empty buckets.
    pub fn render(&self) -> String {
        let mut parts = Vec::new();
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let lo = 1usize << i;
            let hi = (1usize << (i + 1)) - 1;
            if i == HIST_BUCKETS - 1 {
                parts.push(format!("{lo}+:{c}"));
            } else if lo == hi {
                parts.push(format!("{lo}:{c}"));
            } else {
                parts.push(format!("{lo}-{hi}:{c}"));
            }
        }
        if parts.is_empty() {
            "(no flushes)".to_string()
        } else {
            parts.join(" ")
        }
    }
}

/// Number of 10%-wide distinct-key-ratio buckets.
pub const RATIO_BUCKETS: usize = 10;

/// Histogram of per-flush distinct-key ratios (`distinct / total`) in
/// ten 10%-wide buckets — the production-visible measure of key skew.
/// A uniform stream piles into the top bucket (every key distinct); a
/// Zipf-skewed stream drifts left as duplicates dominate. Every query
/// flush records its ratio: its coalescing sort-dedup computes the
/// distinct count anyway.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RatioHistogram {
    /// `buckets[i]` counts flushes whose distinct ratio fell in
    /// `[i*10%, (i+1)*10%)`; the last bucket is closed at 100%.
    pub buckets: [u64; RATIO_BUCKETS],
}

impl RatioHistogram {
    /// Bucket index for a flush of `total` keys, `distinct` of them
    /// unique.
    pub fn bucket_of(distinct: usize, total: usize) -> usize {
        if total == 0 {
            return RATIO_BUCKETS - 1;
        }
        (distinct * RATIO_BUCKETS / total).min(RATIO_BUCKETS - 1)
    }

    /// Total flushes recorded.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Render as `"0-9%:2 90-100%:40"`, skipping empty buckets.
    pub fn render(&self) -> String {
        let mut parts = Vec::new();
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let lo = i * 10;
            if i == RATIO_BUCKETS - 1 {
                parts.push(format!("{lo}-100%:{c}"));
            } else {
                parts.push(format!("{lo}-{}%:{c}", lo + 9));
            }
        }
        if parts.is_empty() {
            "(no coalesced flushes)".to_string()
        } else {
            parts.join(" ")
        }
    }
}

/// Number of latency buckets: one underflow bucket below 2^`LAT_OCT_MIN`
/// ns, then 4 log-linear sub-buckets per power of two up to
/// 2^`LAT_OCT_MAX` ns (the last bucket absorbs everything larger).
pub const LAT_BUCKETS: usize = 1 + 4 * (LAT_OCT_MAX - LAT_OCT_MIN + 1) as usize;
/// Smallest resolved octave: 2^10 ns ≈ 1 µs.
const LAT_OCT_MIN: u32 = 10;
/// Largest resolved octave: 2^36 ns ≈ 69 s.
const LAT_OCT_MAX: u32 = 36;

/// Concurrent log-linear latency histogram — the service-side sibling of
/// an HDR histogram, sized so `record` is two relaxed atomic adds and the
/// quantile error stays under one part in eight (4 sub-buckets per
/// octave). Shard workers record one sample per flushed operation,
/// measured from the instant the operation entered a handle, so snapshots
/// report true end-to-end service latency (queue wait + linger + flush).
pub(crate) struct LatencyRecorder {
    buckets: [AtomicU64; LAT_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        LatencyRecorder {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for LatencyRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LatencyRecorder(n={})", self.count.load(Ordering::Relaxed))
    }
}

/// Bucket index for a sample of `ns` nanoseconds.
fn lat_bucket_of(ns: u64) -> usize {
    if ns < (1 << LAT_OCT_MIN) {
        return 0;
    }
    let oct = (63 - ns.leading_zeros()).min(LAT_OCT_MAX);
    let sub = if 63 - ns.leading_zeros() > LAT_OCT_MAX {
        3 // beyond the top octave: clamp into its last sub-bucket
    } else {
        ((ns >> (oct - 2)) & 0b11) as usize
    };
    1 + 4 * (oct - LAT_OCT_MIN) as usize + sub
}

/// Midpoint (representative) latency of bucket `i`, in nanoseconds.
fn lat_bucket_mid(i: usize) -> u64 {
    if i == 0 {
        return 1 << (LAT_OCT_MIN - 1);
    }
    let oct = LAT_OCT_MIN + ((i - 1) / 4) as u32;
    let sub = ((i - 1) % 4) as u64;
    let width = 1u64 << (oct - 2); // each octave splits into 4 sub-buckets
    (1u64 << oct) + sub * width + width / 2
}

impl LatencyRecorder {
    pub fn record(&self, elapsed: Duration) {
        let ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
        self.buckets[lat_bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> LatencySnapshot {
        let o = Ordering::Relaxed;
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(o)).collect();
        let count: u64 = counts.iter().sum();
        let max = Duration::from_nanos(self.max_ns.load(o));
        let quantile = |q: f64| -> Duration {
            if count == 0 {
                return Duration::ZERO;
            }
            let target = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= target {
                    return Duration::from_nanos(lat_bucket_mid(i)).min(max);
                }
            }
            max
        };
        LatencySnapshot {
            count,
            mean: Duration::from_nanos(self.sum_ns.load(o).checked_div(count).unwrap_or_default()),
            p50: quantile(0.50),
            p99: quantile(0.99),
            p999: quantile(0.999),
            max,
        }
    }
}

/// Point-in-time per-operation end-to-end latency summary (enqueue →
/// flush completion), carried inside [`ServiceStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Operations with a recorded latency sample.
    pub count: u64,
    /// Mean end-to-end latency.
    pub mean: Duration,
    /// Median.
    pub p50: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// 99.9th percentile.
    pub p999: Duration,
    /// Worst sample.
    pub max: Duration,
}

impl LatencySnapshot {
    /// Render as `"p50 1.2ms p99 4ms p999 9ms max 12ms (n=...)"`.
    pub fn render(&self) -> String {
        if self.count == 0 {
            return "(no samples)".to_string();
        }
        format!(
            "p50 {:.2?} p99 {:.2?} p999 {:.2?} max {:.2?} (n={})",
            self.p50, self.p99, self.p999, self.max, self.count
        )
    }
}

/// Shared atomic counters, updated by handles (enqueue side) and shard
/// workers (flush side).
#[derive(Debug, Default)]
pub(crate) struct StatsInner {
    pub inserts: AtomicU64,
    pub queries: AtomicU64,
    pub deletes: AtomicU64,
    pub query_hits: AtomicU64,
    pub insert_failures: AtomicU64,
    pub delete_failures: AtomicU64,
    pub batches_flushed: AtomicU64,
    pub items_flushed: AtomicU64,
    pub hist: [AtomicU64; HIST_BUCKETS],
    pub flush_ns_total: AtomicU64,
    pub flush_ns_max: AtomicU64,
    pub queue_depth: AtomicU64,
    pub queue_depth_max: AtomicU64,
    pub rejected: AtomicU64,
    // -- capacity-lifecycle ledger (PR 5) --
    pub grow_events: AtomicU64,
    pub regrown_keys: AtomicU64,
    pub scale_outs: AtomicU64,
    pub scale_ins: AtomicU64,
    pub migration_events: AtomicU64,
    pub keys_moved: AtomicU64,
    // -- per-operation end-to-end latency (PR 6) --
    pub latency: LatencyRecorder,
    // -- skew fast path (PR 10) --
    pub cache_hits: AtomicU64,
    pub cache_misses: AtomicU64,
    pub cache_invalidations: AtomicU64,
    pub coalesced_keys: AtomicU64,
    pub ratio_hist: [AtomicU64; RATIO_BUCKETS],
}

impl StatsInner {
    pub fn record_flush(&self, items: usize, elapsed: Duration) {
        let ns = elapsed.as_nanos() as u64;
        self.batches_flushed.fetch_add(1, Ordering::Relaxed);
        self.items_flushed.fetch_add(items as u64, Ordering::Relaxed);
        self.hist[BatchHistogram::bucket_of(items)].fetch_add(1, Ordering::Relaxed);
        self.flush_ns_total.fetch_add(ns, Ordering::Relaxed);
        self.flush_ns_max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Record one query flush's distinct-key ratio.
    pub fn record_distinct_ratio(&self, distinct: usize, total: usize) {
        self.ratio_hist[RatioHistogram::bucket_of(distinct, total)].fetch_add(1, Ordering::Relaxed);
    }

    pub fn enqueued(&self, n: u64) {
        let depth = self.queue_depth.fetch_add(n, Ordering::Relaxed) + n;
        self.queue_depth_max.fetch_max(depth, Ordering::Relaxed);
    }

    pub fn dequeued(&self, n: u64) {
        self.queue_depth.fetch_sub(n, Ordering::Relaxed);
    }
}

/// A point-in-time snapshot of service activity (see
/// [`ShardedFilter::stats`](crate::ShardedFilter::stats)).
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Number of shards serving.
    pub shards: usize,
    /// Insert operations accepted.
    pub inserts: u64,
    /// Query operations accepted.
    pub queries: u64,
    /// Delete operations accepted.
    pub deletes: u64,
    /// Queries that reported "possibly present".
    pub query_hits: u64,
    /// Inserts the backends rejected (filter full).
    pub insert_failures: u64,
    /// Deletes the backends refused with an error (batch not applied).
    pub delete_failures: u64,
    /// Batches flushed to backends.
    pub batches_flushed: u64,
    /// Total items flushed inside those batches.
    pub items_flushed: u64,
    /// Flushed-batch size distribution.
    pub batch_hist: BatchHistogram,
    /// Cumulative time spent inside backend bulk calls.
    pub flush_total: Duration,
    /// Worst single backend bulk call.
    pub flush_max: Duration,
    /// Operations currently queued (all shards).
    pub queue_depth: u64,
    /// High-water mark of queued operations.
    pub queue_depth_max: u64,
    /// Operations rejected because the service had stopped.
    pub rejected: u64,
    /// Backend grow events (worker auto-growth under the policy, plus
    /// grows performed while migrating a scale-out).
    pub grow_events: u64,
    /// Keys that failed an insert, were absorbed by a grow, and then
    /// succeeded on retry — capacity failures the lifecycle hid from
    /// callers.
    pub regrown_keys: u64,
    /// Completed `set_shards` resizes that grew the fleet.
    pub scale_outs: u64,
    /// Completed `set_shards` resizes that shrank the fleet (decommissioned
    /// shards drained into their ring successors).
    pub scale_ins: u64,
    /// Merge migrations performed during resizes (one per old backend a
    /// new shard absorbed).
    pub migration_events: u64,
    /// Estimated keys whose shard assignment changed across all resizes
    /// (measured moved-fraction of the routing change × estimated live
    /// items at resize time).
    pub keys_moved: u64,
    /// End-to-end per-operation latency percentiles (enqueue → flush).
    pub latency: LatencySnapshot,
    /// Hot-key cache lookups answered from a current-epoch entry.
    pub cache_hits: u64,
    /// Hot-key cache lookups that fell through to a backend probe.
    pub cache_misses: u64,
    /// Cache epoch bumps — one per insert/delete flush on a shard with an
    /// armed cache (each conservatively invalidates that shard's whole
    /// cache).
    pub cache_invalidations: u64,
    /// Duplicate keys the in-batch coalescer removed from query flushes
    /// (backend probes saved before the cache is even consulted).
    pub coalesced_keys: u64,
    /// Per-flush distinct-key ratio distribution (one sample per query
    /// flush) — how skewed the served key stream actually is.
    pub distinct_ratio_hist: RatioHistogram,
    /// Time since the service started.
    pub elapsed: Duration,
}

impl ServiceStats {
    pub(crate) fn snapshot(inner: &StatsInner, shards: usize, elapsed: Duration) -> Self {
        let o = Ordering::Relaxed;
        let mut hist = BatchHistogram::default();
        for (d, s) in hist.buckets.iter_mut().zip(&inner.hist) {
            *d = s.load(o);
        }
        let mut ratio_hist = RatioHistogram::default();
        for (d, s) in ratio_hist.buckets.iter_mut().zip(&inner.ratio_hist) {
            *d = s.load(o);
        }
        ServiceStats {
            shards,
            inserts: inner.inserts.load(o),
            queries: inner.queries.load(o),
            deletes: inner.deletes.load(o),
            query_hits: inner.query_hits.load(o),
            insert_failures: inner.insert_failures.load(o),
            delete_failures: inner.delete_failures.load(o),
            batches_flushed: inner.batches_flushed.load(o),
            items_flushed: inner.items_flushed.load(o),
            batch_hist: hist,
            flush_total: Duration::from_nanos(inner.flush_ns_total.load(o)),
            flush_max: Duration::from_nanos(inner.flush_ns_max.load(o)),
            queue_depth: inner.queue_depth.load(o),
            queue_depth_max: inner.queue_depth_max.load(o),
            rejected: inner.rejected.load(o),
            grow_events: inner.grow_events.load(o),
            regrown_keys: inner.regrown_keys.load(o),
            scale_outs: inner.scale_outs.load(o),
            scale_ins: inner.scale_ins.load(o),
            migration_events: inner.migration_events.load(o),
            keys_moved: inner.keys_moved.load(o),
            latency: inner.latency.snapshot(),
            cache_hits: inner.cache_hits.load(o),
            cache_misses: inner.cache_misses.load(o),
            cache_invalidations: inner.cache_invalidations.load(o),
            coalesced_keys: inner.coalesced_keys.load(o),
            distinct_ratio_hist: ratio_hist,
            elapsed,
        }
    }

    /// Total operations accepted.
    pub fn ops(&self) -> u64 {
        self.inserts + self.queries + self.deletes
    }

    /// Accepted operations per second of service lifetime.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.ops() as f64 / self.elapsed.as_secs_f64()
    }

    /// Mean flushed-batch size — the amortization factor the batching layer
    /// achieved (1.0 means it degenerated to point calls).
    pub fn mean_batch(&self) -> f64 {
        if self.batches_flushed == 0 {
            return 0.0;
        }
        self.items_flushed as f64 / self.batches_flushed as f64
    }

    /// Mean time per backend bulk call.
    ///
    /// Computed in `u128` nanoseconds: `Duration / u32` would force the
    /// divisor through a clamp at `u32::MAX` batches, silently inflating
    /// the mean on long-lived services.
    pub fn mean_flush(&self) -> Duration {
        if self.batches_flushed == 0 {
            return Duration::ZERO;
        }
        let mean_ns = self.flush_total.as_nanos() / u128::from(self.batches_flushed);
        Duration::from_nanos(mean_ns.min(u128::from(u64::MAX)) as u64)
    }

    /// Multi-line human-readable report.
    pub fn render(&self) -> String {
        format!(
            "service: {} shards, {:.0} ops/s over {:.2?}\n\
             ops: {} inserts ({} failed), {} queries ({} hits), {} deletes ({} failed)\n\
             batches: {} flushed, mean size {:.1}, hist {}\n\
             skew: {} keys coalesced, cache {} hits / {} misses / {} invalidations\n\
             distinct ratio: {}\n\
             flush: mean {:.2?}, max {:.2?}; queue depth {} (max {}), rejected {}\n\
             latency: {}\n\
             lifecycle: {} grows ({} keys regrown), {} scale-outs, {} scale-ins \
             ({} migrations, ~{} keys moved)",
            self.shards,
            self.throughput(),
            self.elapsed,
            self.inserts,
            self.insert_failures,
            self.queries,
            self.query_hits,
            self.deletes,
            self.delete_failures,
            self.batches_flushed,
            self.mean_batch(),
            self.batch_hist.render(),
            self.coalesced_keys,
            self.cache_hits,
            self.cache_misses,
            self.cache_invalidations,
            self.distinct_ratio_hist.render(),
            self.mean_flush(),
            self.flush_max,
            self.queue_depth,
            self.queue_depth_max,
            self.rejected,
            self.latency.render(),
            self.grow_events,
            self.regrown_keys,
            self.scale_outs,
            self.scale_ins,
            self.migration_events,
            self.keys_moved,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(BatchHistogram::bucket_of(0), 0);
        assert_eq!(BatchHistogram::bucket_of(1), 0);
        assert_eq!(BatchHistogram::bucket_of(2), 1);
        assert_eq!(BatchHistogram::bucket_of(3), 1);
        assert_eq!(BatchHistogram::bucket_of(4), 2);
        assert_eq!(BatchHistogram::bucket_of(1 << 20), HIST_BUCKETS - 1);
    }

    #[test]
    fn snapshot_reflects_recorded_flushes() {
        let inner = StatsInner::default();
        inner.inserts.fetch_add(10, Ordering::Relaxed);
        inner.record_flush(8, Duration::from_micros(5));
        inner.record_flush(1, Duration::from_micros(20));
        let s = ServiceStats::snapshot(&inner, 4, Duration::from_secs(1));
        assert_eq!(s.batches_flushed, 2);
        assert_eq!(s.items_flushed, 9);
        assert_eq!(s.batch_hist.buckets[3], 1);
        assert_eq!(s.batch_hist.buckets[0], 1);
        assert!(s.mean_batch() > 4.0);
        assert_eq!(s.flush_max, Duration::from_micros(20));
        assert!(s.render().contains("4 shards"));
    }

    #[test]
    fn mean_flush_is_exact_past_u32_max_batches() {
        // A `Duration / u32` division has to clamp the divisor at
        // `u32::MAX`, which doubled the reported mean at 2·u32::MAX
        // batches. The u128 path stays exact.
        let inner = StatsInner::default();
        let batches = 2 * u64::from(u32::MAX);
        inner.batches_flushed.store(batches, Ordering::Relaxed);
        inner.flush_ns_total.store(batches * 100, Ordering::Relaxed);
        let s = ServiceStats::snapshot(&inner, 1, Duration::from_secs(1));
        assert_eq!(s.mean_flush(), Duration::from_nanos(100));
    }

    #[test]
    fn queue_depth_tracks_high_water() {
        let inner = StatsInner::default();
        inner.enqueued(5);
        inner.enqueued(7);
        inner.dequeued(10);
        let s = ServiceStats::snapshot(&inner, 1, Duration::from_secs(1));
        assert_eq!(s.queue_depth, 2);
        assert_eq!(s.queue_depth_max, 12);
    }

    #[test]
    fn latency_buckets_are_total_and_monotone() {
        // Every sample lands in a valid bucket, and bucket index never
        // decreases as the sample grows.
        let mut last = 0usize;
        for shift in 0..63u32 {
            for off in [0u64, 1, 3] {
                let ns = (1u64 << shift) | (off << shift.saturating_sub(2));
                let b = lat_bucket_of(ns);
                assert!(b < LAT_BUCKETS, "bucket {b} out of range for {ns}ns");
                assert!(b >= last, "bucket regressed at {ns}ns: {b} < {last}");
                last = b;
            }
        }
        // Representatives sit inside (or at least near) their bucket.
        for i in 1..LAT_BUCKETS {
            assert_eq!(lat_bucket_of(lat_bucket_mid(i)), i, "mid of bucket {i} maps back");
        }
    }

    #[test]
    fn latency_percentiles_track_a_known_distribution() {
        let rec = LatencyRecorder::default();
        // 1000 samples: 988 at ~100µs, 10 at ~5ms, 2 at ~50ms — nearest
        // rank puts p50 in the first mode, p99 in the second, p999 in the
        // third.
        for _ in 0..988 {
            rec.record(Duration::from_micros(100));
        }
        for _ in 0..10 {
            rec.record(Duration::from_millis(5));
        }
        rec.record(Duration::from_millis(50));
        rec.record(Duration::from_millis(50));
        let s = rec.snapshot();
        assert_eq!(s.count, 1000);
        let close = |d: Duration, target_us: u64| {
            let us = d.as_micros() as f64;
            let t = target_us as f64;
            us > t * 0.75 && us < t * 1.35
        };
        assert!(close(s.p50, 100), "p50 {:?}", s.p50);
        assert!(close(s.p99, 5000), "p99 {:?}", s.p99);
        assert!(close(s.p999, 50_000), "p999 {:?}", s.p999);
        assert_eq!(s.max, Duration::from_millis(50));
        assert!(s.p50 <= s.p99 && s.p99 <= s.p999 && s.p999 <= s.max);
        assert!(s.render().contains("n=1000"));
    }

    #[test]
    fn latency_snapshot_empty_is_zero() {
        let s = LatencyRecorder::default().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p999, Duration::ZERO);
        assert_eq!(s.render(), "(no samples)");
    }

    #[test]
    fn ratio_bucket_boundaries() {
        assert_eq!(RatioHistogram::bucket_of(1, 100), 0);
        assert_eq!(RatioHistogram::bucket_of(9, 100), 0);
        assert_eq!(RatioHistogram::bucket_of(10, 100), 1);
        assert_eq!(RatioHistogram::bucket_of(55, 100), 5);
        assert_eq!(RatioHistogram::bucket_of(99, 100), 9);
        assert_eq!(RatioHistogram::bucket_of(100, 100), 9);
        assert_eq!(RatioHistogram::bucket_of(1, 1), 9);
        assert_eq!(RatioHistogram::bucket_of(0, 0), RATIO_BUCKETS - 1);
    }

    #[test]
    fn snapshot_carries_skew_counters_and_ratio_hist() {
        let inner = StatsInner::default();
        inner.cache_hits.fetch_add(7, Ordering::Relaxed);
        inner.cache_misses.fetch_add(3, Ordering::Relaxed);
        inner.cache_invalidations.fetch_add(2, Ordering::Relaxed);
        inner.coalesced_keys.fetch_add(40, Ordering::Relaxed);
        inner.record_distinct_ratio(5, 100);
        inner.record_distinct_ratio(100, 100);
        let s = ServiceStats::snapshot(&inner, 1, Duration::from_secs(1));
        assert_eq!((s.cache_hits, s.cache_misses, s.cache_invalidations), (7, 3, 2));
        assert_eq!(s.coalesced_keys, 40);
        assert_eq!(s.distinct_ratio_hist.buckets[0], 1);
        assert_eq!(s.distinct_ratio_hist.buckets[RATIO_BUCKETS - 1], 1);
        assert_eq!(s.distinct_ratio_hist.total(), 2);
        let r = s.render();
        assert!(r.contains("40 keys coalesced"));
        assert!(r.contains("cache 7 hits / 3 misses / 2 invalidations"));
        assert!(r.contains("0-9%:1"));
        assert!(r.contains("90-100%:1"));
    }

    #[test]
    fn ratio_histogram_renders_sparse_buckets() {
        let mut h = RatioHistogram::default();
        assert_eq!(h.render(), "(no coalesced flushes)");
        h.buckets[2] = 4;
        h.buckets[9] = 1;
        let r = h.render();
        assert!(r.contains("20-29%:4"));
        assert!(r.contains("90-100%:1"));
    }

    #[test]
    fn histogram_renders_sparse_buckets() {
        let mut h = BatchHistogram::default();
        assert_eq!(h.render(), "(no flushes)");
        h.buckets[0] = 3;
        h.buckets[4] = 1;
        let r = h.render();
        assert!(r.contains("1:3"));
        assert!(r.contains("16-31:1"));
    }
}
