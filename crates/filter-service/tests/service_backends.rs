//! The serving layer must behave identically over every backend family:
//! the bulk TCF, the bulk GQF, and the blocked Bloom filter (whose "bulk"
//! API is an adapter over point operations). One generic test body runs
//! against all three.

use baselines::BlockedBloomFilter;
use filter_core::{hashed_keys, DynFilter, FilterError, ServiceBackend};
use filter_service::{ShardedFilter, ShardedFilterBuilder};
use gqf::BulkGqf;
use std::time::Duration;
use tcf::BulkTcf;

fn builder(shards: usize) -> ShardedFilterBuilder {
    ShardedFilterBuilder::new()
        .shards(shards)
        .batch_capacity(512)
        .linger(Duration::from_micros(100))
}

/// Insert/query/batch behaviour every backend must satisfy.
fn exercise_generic<B: ServiceBackend + 'static>(service: ShardedFilter<B>, seed: u64) {
    let h = service.handle();
    let keys = hashed_keys(seed, 5000);

    // Batched insert then batched query: no false negatives.
    assert_eq!(h.insert_batch(&keys).unwrap(), 0);
    let hits = h.query_batch(&keys).unwrap();
    assert!(hits.iter().all(|&x| x), "false negative through the service");

    // Blocking point surface agrees.
    assert!(h.contains(keys[0]));
    h.insert(keys[0] ^ 0xabcd).unwrap();
    assert!(h.contains(keys[0] ^ 0xabcd));

    // Pipeline + barrier makes writes visible.
    let more = hashed_keys(seed + 1, 2000);
    h.insert_batch_pipelined(&more).unwrap();
    h.barrier().unwrap();
    assert!(h.query_batch(&more).unwrap().iter().all(|&x| x));

    // Stats observed aggregation.
    let stats = service.stats();
    assert_eq!(stats.shards, service.shard_count());
    assert!(stats.inserts >= 7001, "inserts {}", stats.inserts);
    assert!(stats.batches_flushed > 0);
    assert!(stats.mean_batch() > 1.0, "no aggregation:\n{}", stats.render());
    assert!(stats.items_flushed >= stats.ops() - stats.queue_depth);

    // Shutdown returns the backends and stops the handles.
    let backends = service.shutdown();
    assert!(!backends.is_empty());
    assert!(matches!(h.insert(1), Err(FilterError::ServiceStopped)));
    assert!(matches!(h.query_batch(&keys[..3]), Err(FilterError::ServiceStopped)));
    assert!(!h.contains(keys[0]), "queries on a stopped service report absent");
    assert!(
        matches!(h.barrier(), Err(FilterError::ServiceStopped)),
        "a barrier on a stopped service must not report durability"
    );
}

#[test]
fn serves_bulk_tcf() {
    let service = builder(4).build(|_| BulkTcf::new(1 << 13)).unwrap();
    exercise_generic(service, 101);
}

#[test]
fn serves_bulk_gqf() {
    let service = builder(4).build(|_| BulkGqf::new_cori(13, 8)).unwrap();
    exercise_generic(service, 202);
}

#[test]
fn serves_blocked_bloom() {
    let service = builder(4).build(|_| BlockedBloomFilter::new(1 << 14)).unwrap();
    exercise_generic(service, 303);
}

#[test]
fn deletable_service_removes_keys() {
    let service = builder(2).build_deletable(|_| BulkTcf::new(1 << 12)).unwrap();
    let h = service.handle();
    let keys = hashed_keys(7, 1000);
    assert_eq!(h.insert_batch(&keys).unwrap(), 0);

    // Point remove reports presence correctly.
    assert!(h.remove(keys[0]).unwrap());
    assert!(!h.contains(keys[0]));

    // Batch delete reports the not-found count.
    let absent = h.delete_batch(&keys[..10]).unwrap();
    assert_eq!(absent, 1, "keys[0] was already removed");
    for &k in &keys[..10] {
        assert!(!h.contains(k));
    }
    for &k in &keys[10..20] {
        assert!(h.contains(k));
    }
}

#[test]
fn non_deletable_service_refuses_removes() {
    let service = builder(2).build(|_| BlockedBloomFilter::new(1 << 12)).unwrap();
    let h = service.handle();
    assert!(matches!(h.remove(1), Err(FilterError::Unsupported(_))));
    assert!(matches!(h.delete_batch(&[1, 2]), Err(FilterError::Unsupported(_))));
    assert!(!h.supports_delete());
}

#[test]
fn concurrent_blocking_callers_fill_batches() {
    let service = ShardedFilterBuilder::new()
        .shards(4)
        .batch_capacity(256)
        .linger(Duration::from_millis(2))
        .build(|_| BulkTcf::new(1 << 14))
        .unwrap();
    let h = service.handle();
    let n_threads = 8usize;
    let per_thread = 2000usize;
    std::thread::scope(|s| {
        for t in 0..n_threads {
            let h = h.clone();
            s.spawn(move || {
                let keys = hashed_keys(1000 + t as u64, per_thread);
                for chunk in keys.chunks(100) {
                    assert_eq!(h.insert_batch(chunk).unwrap(), 0);
                }
                for chunk in keys.chunks(100) {
                    assert!(h.query_batch(chunk).unwrap().iter().all(|&x| x));
                }
            });
        }
    });
    let stats = service.stats();
    assert_eq!(stats.inserts, (n_threads * per_thread) as u64);
    assert_eq!(stats.queries, (n_threads * per_thread) as u64);
    assert_eq!(stats.query_hits, stats.queries, "no false negatives under concurrency");
    assert!(
        stats.mean_batch() > 8.0,
        "concurrent chunks should aggregate well:\n{}",
        stats.render()
    );
}

#[test]
fn per_key_order_insert_then_remove_then_query() {
    // Same-key ops from one caller must apply in order even through the
    // pipeline surface, because a key always lands on one shard's FIFO.
    let service = builder(8).batch_capacity(64).build_deletable(|_| BulkTcf::new(1 << 12)).unwrap();
    let h = service.handle();
    for round in 0..50u64 {
        let k = filter_core::hash64(round);
        h.insert(k).unwrap();
        assert!(h.remove(k).unwrap(), "round {round}");
        assert!(!h.contains(k), "round {round}: remove then query misordered");
    }
}

#[test]
fn full_backend_reports_insert_failures() {
    // One tiny shard: overfill it and check blocking inserts see Full and
    // the stats account for the rejections.
    let service = ShardedFilterBuilder::new()
        .shards(1)
        .batch_capacity(64)
        .linger(Duration::from_micros(50))
        .build(|_| BulkTcf::new(256))
        .unwrap();
    let h = service.handle();
    let keys = hashed_keys(55, 2000);
    let mut saw_full = false;
    for chunk in keys.chunks(64) {
        if h.insert_batch(chunk).unwrap() > 0 {
            saw_full = true;
            break;
        }
    }
    assert!(saw_full, "a 256-slot TCF cannot absorb 2000 keys");
    assert!(service.stats().insert_failures > 0);
}

/// Overfill a one-shard service with one pipelined batch of 20,000 keys:
/// every key the backend did not store, and no other, is counted as an
/// insert failure.
fn pipelined_overfill_counts_failures<B, F>(make: F)
where
    B: ServiceBackend + DynFilter + 'static,
    F: FnMut(usize) -> Result<B, FilterError>,
{
    let service = ShardedFilterBuilder::new().shards(1).build(make).unwrap();
    let h = service.handle();
    let keys = hashed_keys(56, 20_000);
    h.insert_batch_pipelined(&keys).unwrap();
    h.barrier().unwrap();
    let stored = service.backends()[0].read().unwrap().len_hint().expect("stored-item count");
    assert!(stored < keys.len(), "the backend must overflow ({stored} stored)");
    assert_eq!(service.stats().insert_failures, (keys.len() - stored) as u64);
}

#[test]
fn pipelined_inserts_count_every_failed_key() {
    pipelined_overfill_counts_failures(|_| BulkTcf::new(256));
    // A GQF carries a 2 × 8192-slot spill pad past its 2^q canonical
    // slots, so the smallest quotient still holds 16,448 slots.
    pipelined_overfill_counts_failures(|_| BulkGqf::new_cori(6, 16));
}

#[test]
fn stats_histogram_tracks_flush_sizes() {
    let service = ShardedFilterBuilder::new()
        .shards(1)
        .batch_capacity(1 << 20)
        .linger(Duration::from_secs(10))
        .build(|_| BulkTcf::new(1 << 13))
        .unwrap();
    let h = service.handle();
    // 1000 pipelined inserts then a barrier: the worker should see large
    // aggregated flushes, not 1000 singletons.
    let keys = hashed_keys(9, 1000);
    h.insert_batch_pipelined(&keys).unwrap();
    h.barrier().unwrap();
    let stats = service.stats();
    assert!(stats.mean_batch() > 100.0, "expected large flushes:\n{}", stats.render());
    assert_eq!(stats.items_flushed, 1000);
}
