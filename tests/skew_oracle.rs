//! Skew-fast-path oracle: the serving layer's in-batch query coalescing
//! and epoch-invalidated hot-key cache are *transparent* optimizations —
//! with the fast path on or off, every per-key outcome (including the
//! false-positive set, which is a property of the backend's state, not of
//! the query path) must be bit-identical.
//!
//! Three angles:
//!
//! * randomized duplicate-heavy traces of blocking batched ops, both
//!   deletable backend families (TCF and GQF), fast arm vs. base arm;
//! * mixed-op runs *pipelined into a single flush* — duplicate keys
//!   spanning insert → delete → query inside one flush must resolve
//!   against the worker's post-mutation state, which is what the
//!   per-mutation-run epoch bump guarantees;
//! * cache-epoch correctness across a delete-everything step, with the
//!   ServiceStats counters confirming the machinery actually engaged.

use filter_core::{OpKind, Xorwow};
use gpu_filters::datasets::hashed_keys;
use gpu_filters::prelude::*;
use std::sync::mpsc;
use std::time::Duration;

/// A duplicate-heavy key batch: `len` draws over a `universe`-key pool.
fn dup_batch(pool: &[u64], g: &mut Xorwow, len: usize) -> Vec<u64> {
    (0..len).map(|_| pool[g.next_u32() as usize % pool.len()]).collect()
}

/// The fast arm: coalescing on, a small cache armed.
fn fast_builder() -> ShardedFilterBuilder {
    ShardedFilterBuilder::new()
        .shards(3)
        .batch_capacity(256)
        .linger(Duration::from_micros(200))
        .coalesce_queries(true)
        .query_cache(1 << 10)
}

/// The base arm: the pre-PR query path, bit for bit.
fn base_builder() -> ShardedFilterBuilder {
    ShardedFilterBuilder::new()
        .shards(3)
        .batch_capacity(256)
        .linger(Duration::from_micros(200))
        .coalesce_queries(false)
        .query_cache(0)
}

/// Drive an identical randomized mixed trace through both arms and demand
/// identical outcomes for every call — insert failure counts, per-key
/// query verdicts (hits *and* false positives), delete not-present counts.
fn randomized_trace_agrees<B, F>(seed: u64, build: F)
where
    B: ServiceBackend + BulkDeletable + 'static,
    F: Fn(usize) -> Result<B, FilterError> + Copy,
{
    let fast = fast_builder().build_deletable(build).unwrap();
    let base = base_builder().build_deletable(build).unwrap();
    let (hf, hb) = (fast.handle(), base.handle());

    // A small pool → heavy duplication inside every batch; a disjoint
    // absent pool probes the false-positive set.
    let pool = hashed_keys(seed, 400);
    let absent = hashed_keys(seed ^ 0xdead, 1000);
    let mut g = Xorwow::new(seed);

    for round in 0..60 {
        let batch = dup_batch(&pool, &mut g, 64 + (round % 5) * 50);
        match g.next_u32() % 4 {
            0 => {
                let (a, b) = (hf.insert_batch(&batch), hb.insert_batch(&batch));
                assert_eq!(a.ok(), b.ok(), "insert outcome diverged at round {round}");
            }
            1 => {
                let (a, b) = (hf.delete_batch(&batch), hb.delete_batch(&batch));
                assert_eq!(a.ok(), b.ok(), "delete outcome diverged at round {round}");
            }
            _ => {
                let (a, b) = (hf.query_batch(&batch).unwrap(), hb.query_batch(&batch).unwrap());
                assert_eq!(a, b, "query verdicts diverged at round {round}");
            }
        }
    }

    // The false-positive sets must be bit-identical: same backends, same
    // state, so the exact same absent keys collide.
    let (fp_fast, fp_base) = (hf.query_batch(&absent).unwrap(), hb.query_batch(&absent).unwrap());
    assert_eq!(fp_fast, fp_base, "false-positive sets diverged");

    let s = fast.stats();
    assert!(s.coalesced_keys > 0, "duplicate-heavy trace never coalesced");
    assert!(s.cache_hits + s.cache_misses > 0, "cache never consulted");
    assert!(s.cache_invalidations > 0, "mutations never bumped the epoch");
}

#[test]
fn randomized_duplicate_heavy_traces_are_bit_identical_tcf() {
    for seed in [7u64, 21, 63] {
        randomized_trace_agrees(seed, |_| BulkTcf::new(1 << 12));
    }
}

#[test]
fn randomized_duplicate_heavy_traces_are_bit_identical_gqf() {
    for seed in [5u64, 17] {
        randomized_trace_agrees(seed, |_| BulkGqf::new_cori(11, 8));
    }
}

/// Pipeline duplicate keys through insert → delete → query *within one
/// flush* (single shard, capacity and linger far above the submission),
/// on both arms. The query run resolves after the same-flush mutations,
/// so its verdicts must match the base arm's — this is the case the
/// per-mutation-run epoch bump exists for.
fn one_flush_mixed_ops(build: impl Fn(usize) -> Result<BulkTcf, FilterError> + Copy) {
    let mk = |builder: ShardedFilterBuilder| {
        builder
            .shards(1)
            .batch_capacity(1 << 14)
            .linger(Duration::from_millis(40))
            .build_deletable(build)
            .unwrap()
    };

    let mut g = Xorwow::new(99);
    let pool = hashed_keys(1234, 200);
    for _ in 0..8 {
        let ins = dup_batch(&pool, &mut g, 300);
        let del = dup_batch(&pool, &mut g, 120);
        let qry = dup_batch(&pool, &mut g, 300);

        let run = |service: &ShardedFilter<BulkTcf>| {
            let h = service.handle();
            // Warm state so deletes have something to remove, then stack
            // all three runs into the worker's queue before any flush
            // deadline can fire.
            h.insert_batch(&ins).unwrap();
            h.insert_batch_pipelined(&ins).unwrap();
            h.delete_batch_pipelined(&del).unwrap();
            let (tx, rx) = mpsc::channel();
            h.submit_batch(OpKind::Query, &qry, move |report| {
                let _ = tx.send(report);
            })
            .unwrap();
            let report = rx.recv().unwrap();
            assert_eq!(report.aborted, 0, "query run aborted");
            h.barrier().unwrap();
            report.results
        };

        let fast = mk(fast_builder());
        let base = mk(base_builder());
        let vf = run(&fast);
        let vb = run(&base);
        assert_eq!(vf, vb, "same-flush insert→delete→query verdicts diverged");

        // The flush really did see coalescable duplicates and mutations.
        let s = fast.stats();
        assert!(s.coalesced_keys > 0, "expected in-batch duplicates to coalesce");
        assert!(s.cache_invalidations > 0, "same-flush mutations must bump the epoch");
    }
}

#[test]
fn mixed_ops_in_one_flush_resolve_against_post_mutation_state() {
    one_flush_mixed_ops(|_| BulkTcf::new(1 << 12));
}

/// Delete-everything epoch test: a cache saturated with positive verdicts
/// must never replay them after the backing keys are gone.
#[test]
fn cache_never_outlives_a_mutation_epoch() {
    let service = ShardedFilterBuilder::new()
        .shards(1)
        .batch_capacity(512)
        .query_cache(1 << 12)
        .build_deletable(|_| BulkTcf::new(1 << 13))
        .unwrap();
    let h = service.handle();
    let keys = hashed_keys(77, 256);

    assert_eq!(h.insert_batch(&keys).unwrap(), 0);
    for _ in 0..4 {
        assert!(h.query_batch(&keys).unwrap().iter().all(|&x| x), "lost keys");
    }
    let before = service.stats();
    assert!(before.cache_hits > 0, "repeat queries should hit the cache");

    assert_eq!(h.delete_batch(&keys).unwrap(), 0, "every key must delete");
    let after_delete = service.stats();
    assert!(
        after_delete.cache_invalidations > before.cache_invalidations,
        "delete batches must invalidate"
    );

    // An emptied TCF holds nothing: any stale cached `true` would show
    // up here as a false positive the backend cannot produce.
    assert!(
        h.query_batch(&keys).unwrap().iter().all(|&x| !x),
        "stale cache verdict survived a mutation epoch"
    );
}
