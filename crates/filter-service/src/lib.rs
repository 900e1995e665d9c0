//! # filter-service — a sharded, batch-aggregating serving layer
//!
//! The paper's central performance lesson is that bulk/cooperative APIs
//! amortize per-item costs that point APIs pay on every call (§4.2 bulk
//! TCF, §5.3 GQF even-odd phased insertion). This crate applies the same
//! lesson to a CPU-side serving system: concurrent point requests are
//! **sharded** across `N` independent filter instances by a
//! consistent-hash [`RingRouter`], **aggregated** into per-shard batches, and
//! **flushed** through the backends' existing [`filter_core::BulkFilter`]
//! APIs when a batch fills or a linger deadline passes — mirroring GPU
//! kernel-launch amortization. Shards run on dedicated worker threads
//! behind bounded MPSC queues (backpressure for free), and a
//! [`ServiceStats`] snapshot reports throughput, the batch-size histogram,
//! queue depths, and flush latency, analogously to `gpu_sim::KernelStats`.
//!
//! The service is generic over any [`filter_core::ServiceBackend`] — the
//! blanket trait every thread-safe bulk filter implements — so the same
//! front-end serves a `BulkTcf`, a `BulkGqf`, or a `BlockedBloomFilter`.
//!
//! ## Quickstart
//!
//! ```
//! use filter_service::ShardedFilterBuilder;
//! use std::time::Duration;
//!
//! // Four shards, each its own 2^14-slot bulk TCF, deletes enabled.
//! let service = ShardedFilterBuilder::new()
//!     .shards(4)
//!     .batch_capacity(1024)
//!     .linger(Duration::from_micros(100))
//!     .build_deletable(|_shard| tcf::BulkTcf::new(1 << 14))?;
//!
//! // Blocking point surface: parks until the operation's batch flushes.
//! let h = service.handle();
//! h.insert(0xfeed_beef)?;
//! assert!(h.contains(0xfeed_beef));
//! assert!(h.remove(0xfeed_beef)?);
//!
//! // Batched surface: one call fans out across shards and reassembles
//! // results in order.
//! let keys: Vec<u64> = (0..4096u64).map(|i| i.wrapping_mul(0x9e3779b97f4a7c15)).collect();
//! assert_eq!(h.insert_batch(&keys)?, 0);
//! assert!(h.query_batch(&keys)?.iter().all(|&hit| hit));
//!
//! // Pipeline surface for streaming: enqueue, then fence.
//! h.insert_batch_pipelined(&keys[..1000])?;
//! h.barrier()?;
//!
//! let stats = service.stats();
//! assert!(stats.mean_batch() > 1.0, "batching should aggregate:\n{}", stats.render());
//! # Ok::<(), filter_core::FilterError>(())
//! ```
//!
//! ## Semantics
//!
//! * Operations on the **same key** are applied in submission order (a key
//!   always routes to one shard, whose worker applies its queue FIFO).
//! * A blocking call returns once its batch has been applied; pipeline
//!   calls are fenced by [`ServiceHandle::barrier`].
//! * Shutting the service down aborts (never strands) outstanding
//!   waiters, which observe [`filter_core::FilterError::ServiceStopped`].
//!
//! ## Skew-aware query fast path
//!
//! Real query streams are skewed — a few hot keys dominate — and the
//! worker exploits that twice on the flush path, both times *behind* the
//! backend's bulk API so every per-key verdict equals a plain backend
//! probe (enforced by `tests/skew_oracle.rs`):
//!
//! * **In-batch coalescing** (every query flush): duplicate keys inside
//!   one query run are probed once and the verdict fanned back to every
//!   slot. Queries only — duplicate inserts/deletes have multiset
//!   semantics on counting backends and are never coalesced.
//! * **Hot-key query cache** ([`ShardedFilterBuilder::query_cache`],
//!   off by default): a small per-shard set-associative cache of query
//!   verdicts, invalidated in O(1) by a per-shard epoch that every
//!   insert/delete run bumps. A stale epoch reads as a miss, so
//!   correctness never depends on the cache's contents — see the
//!   rationale in the `cache` module docs.
//!
//! Each shard worker also reuses its flush scratch vectors across
//! flushes: the drained op buffer, the current same-kind run, its key
//! column and the query path's sort-dedup and cache working set. A flush
//! still allocates its answers: every insert and delete flush a per-key
//! outcome vector, every query flush the backend's verdict vector (and a
//! backend's report kernel may allocate its own per-key flags, as the
//! bulk GQF's do).
//!
//! ```
//! use filter_service::ShardedFilterBuilder;
//! let service = ShardedFilterBuilder::new()
//!     .shards(4)
//!     .query_cache(1 << 14)       // arm the per-shard verdict cache
//!     .build(|_| tcf::BulkTcf::new(1 << 14))?;
//! let h = service.handle();
//! h.insert_batch(&[1, 2, 3])?;
//! assert!(h.query_batch(&[3, 3, 3])?.iter().all(|&hit| hit));
//! let stats = service.stats();
//! assert!(stats.coalesced_keys >= 2, "{}", stats.render());
//! # Ok::<(), filter_core::FilterError>(())
//! ```
//!
//! [`ServiceStats`] reports the fast path's behaviour: `coalesced_keys`,
//! `cache_hits` / `cache_misses` / `cache_invalidations`, and a
//! `distinct_ratio_hist` histogram of per-flush distinct-to-total key
//! ratios (low buckets = heavy duplication = coalescing is paying off).
//!
//! ## Elastic resizing
//!
//! Keys are placed by a consistent-hash [`RingRouter`]: each shard owns
//! a set of arcs on a 64-bit ring, marked by [`DEFAULT_VNODES`] virtual
//! nodes whose per-shard counts are balance-corrected against the ring's
//! exact arc measure (worst shard within a few percent of uniform).
//! Tune the vnode count with [`ShardedFilterBuilder::ring_vnodes`], or
//! skew ownership toward bigger shards with
//! [`ShardedFilterBuilder::shard_weights`]. Because arc ownership — not
//! a modular range — defines a shard,
//! [`ShardedFilter::set_shards`] supports **any** live resize sequence,
//! scale-out and scale-in alike, re-routing only ~`k/n` of the key space
//! on an `n → n ± k` resize. On a scale-in the decommissioned shards
//! drain (workers flush and stop under the paused routing state) and
//! their contents `merge` into the ring successors, growing the
//! absorbers on [`filter_core::FilterError::NeedsGrowth`]; no
//! acknowledged outcome is lost, and the
//! [`ServiceStats`] ledger records `scale_ins`, `migration_events`, and
//! an estimated `keys_moved`.

#![forbid(unsafe_code)]

mod cache;
pub mod router;
pub mod service;
pub mod stats;

pub use router::{RingRouter, DEFAULT_VNODES, ROUTER_SEED};
pub use service::{
    BatchReport, ServiceControl, ServiceHandle, ShardedFilter, ShardedFilterBuilder,
};
pub use stats::{BatchHistogram, LatencySnapshot, RatioHistogram, ServiceStats};
