//! The sharded, batch-aggregating serving layer.
//!
//! Architecture (one box per shard):
//!
//! ```text
//!  callers ──► ServiceHandle ──router──► bounded MPSC ──► shard worker ──► backend
//!               (clone-able)             (backpressure)    (aggregates      (BulkTcf /
//!                                                           into batches,    BulkGqf /
//!                                                           flushes on       BBF / …)
//!                                                           fill or linger)
//! ```
//!
//! Each shard owns an independent backend instance and a dedicated worker
//! thread. Workers pull operations off a bounded queue into a pending
//! buffer and flush maximal same-kind runs through the backend's bulk API
//! when the buffer fills or a linger deadline passes — the CPU-side
//! equivalent of amortizing GPU kernel-launch overhead across a batch
//! (§4.2 bulk TCF, §5.3 GQF phased insertion). Within a shard, operations
//! are applied in arrival order, so per-key ordering is global: a key
//! always routes to the same shard.
//!
//! Three usage modes per handle:
//!
//! * **blocking** — `insert` / `contains` / `remove` / `*_batch` park the
//!   caller until the flush containing their operations completes; many
//!   concurrent callers naturally fill batches.
//! * **pipeline** — `insert_pipelined` / `*_batch_pipelined` enqueue and
//!   return; `barrier()` waits for everything already enqueued. Streaming
//!   workloads use this to keep every shard busy from one thread.
//! * **callback** — `submit_batch` enqueues and returns; a callback
//!   receives the per-key answers (the network reactor's path).
//!
//! All three go through one private fan-out: it routes the keys, sends
//! each shard one task, and, when the caller wants answers, gives each
//! key a claim on one completion gate. The gate's last answer wakes the
//! parked caller or fires the callback.
//!
//! **Capacity lifecycle.** Shard workers built over a
//! [`MaintainableFilter`] backend auto-grow it under the spec's
//! [`GrowthPolicy`], retrying exactly the keys a full backend failed — so
//! a service over a growable kind never surfaces capacity failures. The
//! service itself resizes live: [`ShardedFilter::set_shards`] moves the
//! fleet to *any* shard count — out or in — by consulting the
//! consistent-hash [`RingRouter`]: each new shard merge-absorbs exactly
//! the old backends whose ring arcs it takes over
//! ([`RingRouter::inheritors`]), correct under concurrent blocking and
//! pipelined handles (intake pauses on the shared routing state while old
//! shards drain). An `n → n ± k` resize re-owns only ~`k/n` of the key
//! space. Growth, migration, scale-out/in, and moved-key events land in
//! the [`ServiceStats`] ledger.

use crate::cache::QueryCache;
use crate::router::{RingRouter, DEFAULT_VNODES, ROUTER_SEED};
use crate::stats::{ServiceStats, StatsInner};
use filter_core::{
    DeleteOutcome, FilterError, FilterSpec, GrowthPolicy, InsertOutcome, MaintainableFilter,
    OpKind, Parallelism, ServiceBackend,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Grow events one flush (or one scale-out merge) may trigger — the
/// runaway-policy backstop shared with the facade-side
/// [`filter_core::GrowingFilter`] loop.
const MAX_GROWS_PER_FLUSH: u32 = filter_core::growth::MAX_GROWS_PER_OP;

/// Deterministic probe keys sampled by [`ShardedFilter::set_shards`] to
/// measure the fraction of the key space a routing change re-routes (the
/// basis of the `keys_moved` ledger estimate).
const MOVE_PROBE_KEYS: u64 = 4096;

/// Aggregate result of an asynchronously submitted batch
/// ([`ServiceHandle::submit_batch`]), delivered to the completion callback
/// once every key of the batch has flushed.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-key answers in submission order — insert: accepted, query:
    /// possibly present, delete: removed.
    pub results: Vec<bool>,
    /// Keys whose worker disappeared before answering (service stopped
    /// mid-flight); their result slots read `false`.
    pub aborted: usize,
}

type BatchCallback = Box<dyn FnOnce(BatchReport) + Send + 'static>;

/// Completion gate of one submission: a result slot per key (or per
/// shard, for a barrier). Its last answer either wakes the caller parked
/// in [`Gate::wait`] or, when the gate carries a callback, fires it —
/// outside the gate lock, on whichever thread delivered that answer.
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

struct GateState {
    results: Vec<bool>,
    remaining: usize,
    aborted: usize,
    on_done: Option<BatchCallback>,
}

impl GateState {
    fn report(&mut self) -> BatchReport {
        BatchReport { results: std::mem::take(&mut self.results), aborted: self.aborted }
    }
}

impl Gate {
    /// A gate over `n` slots; without `on_done`, a caller parks in
    /// [`Self::wait`].
    fn new(n: usize, on_done: Option<BatchCallback>) -> Arc<Self> {
        let state = GateState { results: vec![false; n], remaining: n, aborted: 0, on_done };
        Arc::new(Gate { state: Mutex::new(state), cv: Condvar::new() })
    }

    /// Record one slot's answer; `aborted` slots keep `false`.
    fn answer(&self, slot: u32, value: bool, aborted: bool) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        s.results[slot as usize] = value;
        s.aborted += usize::from(aborted);
        s.remaining -= 1;
        if s.remaining > 0 {
            return;
        }
        match s.on_done.take() {
            Some(on_done) => {
                let report = s.report();
                drop(s);
                on_done(report);
            }
            None => self.cv.notify_all(),
        }
    }

    /// Park until every slot is answered.
    fn wait(&self) -> BatchReport {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while s.remaining > 0 {
            s = self.cv.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        s.report()
    }

    /// Park, then report the answers — or `ServiceStopped` when `sent`
    /// records a refused send or a claim was dropped unanswered.
    fn settle(&self, sent: Result<(), FilterError>) -> Result<Vec<bool>, FilterError> {
        let report = self.wait();
        sent?;
        if report.aborted > 0 {
            return Err(FilterError::ServiceStopped);
        }
        Ok(report.results)
    }
}

/// One key's claim on a [`Gate`] slot. Dropping it unanswered (its task
/// dropped on a dead channel, its worker gone) records an abort, so a
/// parked caller never hangs and a submitted batch's callback always
/// fires, even when the service stops mid-flight.
struct Claim {
    gate: Arc<Gate>,
    slot: u32,
    done: bool,
}

impl Claim {
    fn new(gate: &Arc<Gate>, slot: u32) -> Self {
        Claim { gate: Arc::clone(gate), slot, done: false }
    }

    fn fulfill(mut self, value: bool) {
        self.done = true;
        self.gate.answer(self.slot, value, false);
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        if !self.done {
            self.gate.answer(self.slot, false, true);
        }
    }
}

/// One buffered operation awaiting a flush, stamped with its submission
/// time so the flushing worker can record end-to-end service latency.
/// Maximal runs of one `kind` become one backend bulk call each.
struct Pending {
    kind: OpKind,
    key: u64,
    at: Instant,
    /// `None` for pipelined operations, which answer nobody.
    claim: Option<Claim>,
}

impl Pending {
    /// Deliver the per-key answer (insert: accepted; query: possibly
    /// present; delete: removed).
    fn answer(self, value: bool) {
        if let Some(claim) = self.claim {
            claim.fulfill(value);
        }
    }
}

/// What flows through a shard's queue.
enum Task {
    /// A single operation.
    One(Pending),
    /// A pre-routed batch of operations (kept in submission order).
    Many(Vec<Pending>),
    /// Flush everything buffered, then answer the claim.
    Barrier(Claim),
    /// Flush, acknowledge nothing, and exit the worker.
    Stop,
}

impl Task {
    fn ops(&self) -> u64 {
        match self {
            Task::One(_) | Task::Barrier(_) => 1,
            Task::Many(v) => v.len() as u64,
            // Stop never passes through a handle's `send`, so it is never
            // counted as enqueued; counting it dequeued would underflow
            // the queue-depth gauge.
            Task::Stop => 0,
        }
    }
}

/// Per-backend bulk-delete hooks, captured at build time so delete
/// support is a monomorphized capability rather than a trait-object
/// downcast. The report hook (`out[i]` answers `keys[i]`) serves blocking
/// callers — their answers come from the delete itself, no pre-query
/// round trip — while the aggregate hook keeps ack-free pipelined flushes
/// on the cheaper plain-sort path.
/// Signature of the per-key report hook.
type DeleteReportFn<B> = fn(&B, &[u64], &mut [DeleteOutcome]) -> Result<(), FilterError>;

struct DeleteHooks<B> {
    report: DeleteReportFn<B>,
    aggregate: fn(&B, &[u64]) -> Result<usize, FilterError>,
}

// Manual impls: the fields are plain fn pointers, so the hooks are Copy
// for every `B` (a derive would demand `B: Copy`).
impl<B> Clone for DeleteHooks<B> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<B> Copy for DeleteHooks<B> {}

/// Per-backend capacity-lifecycle hooks, captured at build time like
/// [`DeleteHooks`] so maintenance is a monomorphized capability. `auto`
/// carries the [`GrowthPolicy::Auto`] parameters when shard workers
/// should grow their backend on load/failure; the grow/merge hooks also
/// serve [`ShardedFilter::set_shards`] regardless of policy.
struct MaintainHooks<B> {
    load: fn(&B) -> f64,
    grow: fn(&mut B, u32) -> Result<(), FilterError>,
    merge: fn(&mut B, &B) -> Result<(), FilterError>,
    /// `Some((max_load, factor))` when workers auto-grow.
    auto: Option<(f64, u32)>,
}

impl<B> Clone for MaintainHooks<B> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<B> Copy for MaintainHooks<B> {}

impl<B: MaintainableFilter> MaintainHooks<B> {
    fn for_policy(growth: GrowthPolicy) -> Self {
        MaintainHooks {
            load: |b| b.load(),
            grow: |b, factor| b.grow(factor),
            merge: |b, other| b.merge(other),
            auto: match growth {
                GrowthPolicy::Fixed => None,
                GrowthPolicy::Auto { max_load, factor } => Some((max_load, factor)),
            },
        }
    }
}

/// Configuration for a [`ShardedFilter`]; see the field setters.
#[derive(Debug, Clone)]
pub struct ShardedFilterBuilder {
    shards: usize,
    batch_capacity: usize,
    linger: Duration,
    queue_tasks: usize,
    seed: u64,
    vnodes: u32,
    weights: Option<Vec<f64>>,
    parallelism: Parallelism,
    growth: GrowthPolicy,
    coalesce: bool,
    cache_entries: usize,
}

impl Default for ShardedFilterBuilder {
    fn default() -> Self {
        ShardedFilterBuilder {
            shards: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            batch_capacity: 4096,
            linger: Duration::from_micros(200),
            queue_tasks: 1024,
            seed: ROUTER_SEED,
            vnodes: DEFAULT_VNODES,
            weights: None,
            parallelism: Parallelism::Auto,
            growth: GrowthPolicy::Fixed,
            coalesce: true,
            cache_entries: 0,
        }
    }
}

impl ShardedFilterBuilder {
    /// Start from the defaults: one shard per core, 4096-op batches,
    /// 200 µs linger, 1024-task queues.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of independent shards (worker thread + backend instance
    /// each). Zero is clamped to one.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Flush a shard's buffer once it holds this many operations. One
    /// degenerates the service to point calls (useful as a baseline).
    pub fn batch_capacity(mut self, n: usize) -> Self {
        self.batch_capacity = n.max(1);
        self
    }

    /// Maximum time an operation waits for its batch to fill before the
    /// shard flushes anyway — bounds blocking-call latency under light
    /// load, exactly as a GPU driver bounds kernel-launch batching.
    pub fn linger(mut self, d: Duration) -> Self {
        self.linger = d;
        self
    }

    /// Bounded queue length (in tasks) per shard; senders block when a
    /// shard's queue is full, providing backpressure.
    pub fn queue_depth(mut self, tasks: usize) -> Self {
        self.queue_tasks = tasks.max(1);
        self
    }

    /// Override the seed of the key hash and of every ring point (see
    /// [`RingRouter::with_seed`]); two services over one key space can use
    /// different seeds to decorrelate their hot shards.
    pub fn router_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Virtual nodes per unit-weight shard on the consistent-hash ring
    /// (default 128; zero clamps to one). More vnodes tighten balance
    /// (the residual imbalance after correction is ~one vnode arc) at the
    /// cost of a larger binary-search table.
    pub fn ring_vnodes(mut self, vnodes: u32) -> Self {
        self.vnodes = vnodes.max(1);
        self
    }

    /// Per-shard ring weights for heterogeneous capacity: shard `i`
    /// serves a key-space share proportional to `weights[i]`. Entries
    /// beyond the live shard count are ignored; missing, non-finite, or
    /// non-positive entries default to `1.0`. A resize keeps applying the
    /// same weight vector to however many shards then exist.
    pub fn shard_weights(mut self, weights: Vec<f64>) -> Self {
        self.weights = Some(weights);
        self
    }

    /// The ring this configuration produces for `shards` live shards.
    fn make_router(&self, shards: usize) -> RingRouter {
        RingRouter::with_config(shards, self.seed, self.vnodes, self.weights.as_deref())
    }

    /// Service-wide host-parallelism budget for the backends' bulk phases
    /// (the paper's partition/sort/apply structure, CPU-side). The budget
    /// covers the whole service: [`Self::shard_spec`] divides it across
    /// shard workers, giving each shard at most `ceil(n / shards)`
    /// backend workers — when `n` does not divide evenly, the aggregate
    /// `shards × backend workers` can round up to one extra worker per
    /// shard (and every shard always keeps at least one).
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Capacity-growth policy for the shard workers (only effective on a
    /// service built with [`Self::build_maintainable`] /
    /// [`Self::build_maintainable_deletable`]): under
    /// [`GrowthPolicy::Auto`], a worker whose backend fails keys or whose
    /// load crosses the threshold grows the backend in place and retries
    /// the failed keys, so callers never observe capacity failures.
    pub fn growth(mut self, growth: GrowthPolicy) -> Self {
        self.growth = growth;
        self
    }

    /// Toggle in-batch duplicate coalescing for query flushes (default
    /// on). When on, a worker sort-dedups each query run's keys, probes
    /// every distinct key exactly once, and fans the verdicts back to the
    /// original slots — on skewed (Zipf-like) key popularity most backend
    /// probes are duplicates, so this removes the bulk of the flush work.
    /// Only query runs coalesce: duplicate inserts and deletes carry
    /// multiset semantics on counting backends (each copy is a distinct
    /// fingerprint occurrence), so mutation runs always execute key by
    /// key and per-key outcomes are bit-identical either way.
    pub fn coalesce_queries(mut self, on: bool) -> Self {
        self.coalesce = on;
        self
    }

    /// Arm a per-shard hot-key query cache of roughly `entries` verdict
    /// lines (default 0 = no cache). Cached verdicts are invalidated in
    /// O(1) by a per-shard mutation epoch — any insert/delete flush bumps
    /// it, and lookups ignore entries from older epochs — so a stale
    /// entry can cost a redundant backend probe but never a wrong answer
    /// (see the `cache` module docs for why the conservative epoch beats
    /// per-key invalidation). Hits, misses, and invalidations land in
    /// [`ServiceStats`].
    pub fn query_cache(mut self, entries: usize) -> Self {
        self.cache_entries = entries;
        self
    }

    /// Derive the per-shard backend spec from one service-wide spec:
    /// capacity splits evenly across shards (with the spec's own headroom
    /// policy left to the backend), and a `Threads(n)` budget divides into
    /// `ceil(n / shards)` workers per shard (so the aggregate may round
    /// up when `n % shards != 0` — see [`Self::parallelism`]).
    /// `Sequential` and `Auto` pass through unchanged. Use inside the
    /// `make` closure of [`Self::build`] / [`Self::build_deletable`]:
    ///
    /// ```ignore
    /// let builder = ShardedFilterBuilder::new().shards(4).parallelism(Parallelism::Threads(8));
    /// let spec = FilterSpec::items(1 << 20);
    /// let service = builder
    ///     .clone()
    ///     .build(|_| BulkTcf::from_spec(&builder.shard_spec(&spec)))?;
    /// ```
    pub fn shard_spec(&self, spec: &FilterSpec) -> FilterSpec {
        let shards = self.shards.max(1) as u64;
        let per_shard = match self.parallelism {
            Parallelism::Threads(n) => {
                Parallelism::Threads((n as u64).div_ceil(shards).max(1) as u32)
            }
            other => other,
        };
        spec.clone().parallelism(per_shard).capacity(spec.capacity.div_ceil(shards).max(1))
    }

    /// Build with one backend per shard from `make(shard_index)`.
    /// The service supports inserts and queries; `remove` reports
    /// [`FilterError::Unsupported`].
    pub fn build<B, F>(self, make: F) -> Result<ShardedFilter<B>, FilterError>
    where
        B: ServiceBackend + 'static,
        F: FnMut(usize) -> Result<B, FilterError>,
    {
        self.build_inner(make, None, None)
    }

    /// Build over a backend with bulk deletion, enabling `remove` and the
    /// delete batch operations.
    pub fn build_deletable<B, F>(self, make: F) -> Result<ShardedFilter<B>, FilterError>
    where
        B: ServiceBackend + filter_core::BulkDeletable + 'static,
        F: FnMut(usize) -> Result<B, FilterError>,
    {
        self.build_inner(make, Some(DeleteHooks::new()), None)
    }

    /// Build over a backend with the capacity lifecycle
    /// ([`MaintainableFilter`]): shard workers auto-grow under the
    /// builder's [`Self::growth`] policy, and the service supports live
    /// elastic resizing via [`ShardedFilter::set_shards`].
    pub fn build_maintainable<B, F>(self, make: F) -> Result<ShardedFilter<B>, FilterError>
    where
        B: ServiceBackend + MaintainableFilter + 'static,
        F: FnMut(usize) -> Result<B, FilterError>,
    {
        let hooks = MaintainHooks::for_policy(self.growth);
        self.build_inner(make, None, Some(hooks))
    }

    /// [`Self::build_maintainable`] plus bulk deletion.
    pub fn build_maintainable_deletable<B, F>(
        self,
        make: F,
    ) -> Result<ShardedFilter<B>, FilterError>
    where
        B: ServiceBackend + filter_core::BulkDeletable + MaintainableFilter + 'static,
        F: FnMut(usize) -> Result<B, FilterError>,
    {
        let hooks = MaintainHooks::for_policy(self.growth);
        self.build_inner(make, Some(DeleteHooks::new()), Some(hooks))
    }

    fn build_inner<B, F>(
        self,
        mut make: F,
        delete_fn: Option<DeleteHooks<B>>,
        maintain: Option<MaintainHooks<B>>,
    ) -> Result<ShardedFilter<B>, FilterError>
    where
        B: ServiceBackend + 'static,
        F: FnMut(usize) -> Result<B, FilterError>,
    {
        let shards = self.shards.max(1);
        let stats: Arc<StatsInner> = Arc::default();
        let linger_ns =
            Arc::new(AtomicU64::new(self.linger.as_nanos().min(u64::MAX as u128) as u64));
        let mut backends = Vec::with_capacity(shards);
        for i in 0..shards {
            backends.push(Arc::new(RwLock::new(make(i)?)));
        }
        let (senders, workers) =
            spawn_workers(&backends, &stats, &self, &linger_ns, delete_fn, maintain, 0)?;
        let router = self.make_router(shards);
        Ok(ShardedFilter {
            backends,
            ring: Arc::new(RwLock::new(RouteState { senders, router })),
            workers,
            cfg: self.clone(),
            stats,
            linger_ns,
            started: Instant::now(),
            delete_fn,
            maintain,
            worker_generation: 0,
        })
    }
}

impl<B: ServiceBackend + filter_core::BulkDeletable> DeleteHooks<B> {
    fn new() -> Self {
        DeleteHooks {
            report: |b: &B, keys, out| b.bulk_delete_report(keys, out),
            aggregate: |b: &B, keys| b.bulk_delete(keys),
        }
    }
}

/// One live shard fleet: a sender per worker plus the worker handles.
type ShardFleet = (Vec<SyncSender<Task>>, Vec<JoinHandle<()>>);

/// Spawn one worker thread per backend, returning the matching senders.
/// `generation` disambiguates thread names across scale-outs.
fn spawn_workers<B: ServiceBackend + 'static>(
    backends: &[Arc<RwLock<B>>],
    stats: &Arc<StatsInner>,
    cfg: &ShardedFilterBuilder,
    linger_ns: &Arc<AtomicU64>,
    delete_fn: Option<DeleteHooks<B>>,
    maintain: Option<MaintainHooks<B>>,
    generation: u64,
) -> Result<ShardFleet, FilterError> {
    let mut senders = Vec::with_capacity(backends.len());
    let mut workers = Vec::with_capacity(backends.len());
    for (i, backend) in backends.iter().enumerate() {
        let (tx, rx) = sync_channel::<Task>(cfg.queue_tasks);
        let worker = WorkerConfig {
            backend: Arc::clone(backend),
            rx,
            stats: Arc::clone(stats),
            capacity: cfg.batch_capacity,
            linger_ns: Arc::clone(linger_ns),
            delete_fn,
            maintain,
            coalesce: cfg.coalesce,
            cache: QueryCache::new(cfg.cache_entries),
        };
        let handle = std::thread::Builder::new()
            .name(format!("filter-shard-{i}.g{generation}"))
            .spawn(move || worker.run())
            .map_err(|e| FilterError::BadConfig(format!("spawn shard worker: {e}")))?;
        senders.push(tx);
        workers.push(handle);
    }
    Ok((senders, workers))
}

/// The handle-visible routing state: one sender per live shard plus the
/// router that addresses them. Swapped atomically (behind one `RwLock`,
/// the `ring` field on every owner) by [`ShardedFilter::set_shards`], so
/// every handle — blocking or pipelined, cloned before or after a
/// resize — always routes against a consistent (senders, router) pair.
struct RouteState {
    senders: Vec<SyncSender<Task>>,
    router: RingRouter,
}

/// Per-shard worker: drains the queue, buffers, flushes. The backend
/// sits behind a `RwLock`: flushes hold the read side (the worker is the
/// only operation path), and the write side serves in-place growth —
/// from this worker's own auto-grow or from a scale-out migration, which
/// only runs after the worker has been stopped.
struct WorkerConfig<B: ServiceBackend> {
    backend: Arc<RwLock<B>>,
    rx: Receiver<Task>,
    stats: Arc<StatsInner>,
    capacity: usize,
    /// Linger in nanoseconds, shared with [`ServiceControl`] so an
    /// external controller (the adaptive network tier) can retune it live;
    /// read when a deadline is armed.
    linger_ns: Arc<AtomicU64>,
    delete_fn: Option<DeleteHooks<B>>,
    maintain: Option<MaintainHooks<B>>,
    /// Sort-dedup query runs before probing (see
    /// [`ShardedFilterBuilder::coalesce_queries`]).
    coalesce: bool,
    /// Hot-key verdict cache, when armed (fresh per worker generation, so
    /// a resize never carries verdicts across migrated backends).
    cache: Option<QueryCache>,
}

/// Per-worker scratch reused across flushes so a steady-state worker
/// allocates nothing per batch: the drained op buffer, the current
/// same-kind run, its key column, and the query-path working vectors.
#[derive(Default)]
struct FlushScratch {
    ops: Vec<Pending>,
    run: Vec<Pending>,
    keys: Vec<u64>,
    q: QueryScratch,
}

/// Query-flush working set: `(key, slot)` pairs for the sort-dedup, the
/// distinct key column with its verdicts, cache-miss positions, and the
/// fanned-out per-slot verdicts.
#[derive(Default)]
struct QueryScratch {
    pairs: Vec<(u64, u32)>,
    distinct: Vec<u64>,
    dverdict: Vec<bool>,
    miss_pos: Vec<u32>,
    miss_keys: Vec<u64>,
    verdicts: Vec<bool>,
}

impl<B: ServiceBackend> WorkerConfig<B> {
    fn backend(&self) -> RwLockReadGuard<'_, B> {
        self.backend.read().unwrap_or_else(|e| e.into_inner())
    }

    fn linger(&self) -> Duration {
        Duration::from_nanos(self.linger_ns.load(Ordering::Relaxed))
    }

    /// Auto-grow loop after an insert flush: while keys failed or the
    /// load sits past the policy threshold, grow the backend and retry
    /// exactly the failed keys, rewriting their outcomes. Returns the
    /// final failure count (0 unless growth is exhausted or refused).
    /// This is the monomorphized, ledger-recording sibling of
    /// `filter_core::GrowingFilter::settle_inserts` (which serves the
    /// boxed facade and reports `NeedsGrowth` instead of counting);
    /// changes to either loop's semantics belong in both.
    fn settle_inserts(&self, keys: &[u64], outcomes: &mut [InsertOutcome]) -> usize {
        let Some(hooks) = self.maintain else {
            return outcomes.iter().filter(|o| o.failed()).count();
        };
        let Some((max_load, factor)) = hooks.auto else {
            return outcomes.iter().filter(|o| o.failed()).count();
        };
        for _ in 0..MAX_GROWS_PER_FLUSH {
            let failed: Vec<usize> =
                (0..outcomes.len()).filter(|&i| outcomes[i].failed()).collect();
            let over = (hooks.load)(&self.backend()) >= max_load;
            if failed.is_empty() && !over {
                return 0;
            }
            {
                let mut b = self.backend.write().unwrap_or_else(|e| e.into_inner());
                if (hooks.grow)(&mut b, factor).is_err() {
                    return failed.len();
                }
            }
            self.stats.grow_events.fetch_add(1, Ordering::Relaxed);
            if !failed.is_empty() {
                let retry_keys: Vec<u64> = failed.iter().map(|&i| keys[i]).collect();
                let mut retry_out = vec![InsertOutcome::Inserted; retry_keys.len()];
                if self.backend().bulk_insert_report(&retry_keys, &mut retry_out).is_err() {
                    return failed.len();
                }
                let recovered = retry_out.iter().filter(|o| o.inserted()).count() as u64;
                self.stats.regrown_keys.fetch_add(recovered, Ordering::Relaxed);
                for (slot, outcome) in failed.into_iter().zip(retry_out) {
                    outcomes[slot] = outcome;
                }
            }
        }
        outcomes.iter().filter(|o| o.failed()).count()
    }
    fn run(self) {
        let mut pending: Vec<Pending> = Vec::with_capacity(self.capacity);
        let mut scratch = FlushScratch::default();
        let mut deadline: Option<Instant> = None;
        loop {
            let task = if pending.is_empty() {
                match self.rx.recv() {
                    Ok(t) => t,
                    Err(_) => break,
                }
            } else {
                let dl = deadline.unwrap_or_else(Instant::now);
                match self.rx.recv_timeout(dl.saturating_duration_since(Instant::now())) {
                    Ok(t) => t,
                    Err(RecvTimeoutError::Timeout) => {
                        self.flush(&mut pending, &mut scratch);
                        deadline = None;
                        continue;
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        self.flush(&mut pending, &mut scratch);
                        break;
                    }
                }
            };
            self.stats.dequeued(task.ops());
            match task {
                Task::One(p) => pending.push(p),
                Task::Many(ps) => pending.extend(ps),
                Task::Barrier(claim) => {
                    self.flush(&mut pending, &mut scratch);
                    deadline = None;
                    claim.fulfill(true);
                    continue;
                }
                Task::Stop => {
                    self.flush(&mut pending, &mut scratch);
                    return;
                }
            }
            // Flush on a full buffer or an expired linger deadline. The
            // deadline must be re-checked here, not only on recv timeout:
            // under a sustained arrival stream recv_timeout keeps
            // returning Ok and would otherwise starve the deadline until
            // the buffer fills, unboundedly delaying blocking callers.
            if pending.len() >= self.capacity || deadline.is_some_and(|d| Instant::now() >= d) {
                self.flush(&mut pending, &mut scratch);
                deadline = None;
            } else if deadline.is_none() {
                deadline = Some(Instant::now() + self.linger());
            }
        }
        self.flush(&mut pending, &mut scratch);
    }

    /// Apply the buffer in arrival order: each maximal run of same-kind
    /// operations becomes one backend bulk call. Same-kind runs dominate
    /// real streams, and honoring arrival order keeps per-key semantics
    /// sequential (a key always lands on one shard).
    fn flush(&self, pending: &mut Vec<Pending>, scratch: &mut FlushScratch) {
        if pending.is_empty() {
            return;
        }
        let FlushScratch { ops, run, keys, q } = scratch;
        ops.clear();
        ops.append(pending);
        let mut iter = ops.drain(..).peekable();
        while let Some(first) = iter.next() {
            let kind = first.kind;
            keys.clear();
            keys.push(first.key);
            run.push(first);
            while iter.peek().map(|p| p.kind) == Some(kind) {
                let p = iter.next().unwrap();
                keys.push(p.key);
                run.push(p);
            }
            // Mutation runs advance the cache epoch *before* any later
            // query run in this same flush resolves, so a verdict cached
            // under the pre-mutation backend can never answer a query
            // sequenced after the mutation.
            match kind {
                OpKind::Insert => {
                    self.flush_inserts(keys, run.drain(..));
                    self.invalidate_cache();
                }
                OpKind::Query => self.flush_queries(keys, run.drain(..), q),
                _ => {
                    self.flush_deletes(keys, run.drain(..));
                    self.invalidate_cache();
                }
            }
        }
    }

    /// Bump the hot-key cache's mutation epoch (when one is armed) after
    /// an insert or delete run touched the backend.
    fn invalidate_cache(&self) {
        if let Some(cache) = &self.cache {
            cache.invalidate();
            self.stats.cache_invalidations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record one end-to-end latency sample (submission → flush done).
    fn record_latency(&self, p: &Pending) {
        self.stats.latency.record(p.at.elapsed());
    }

    fn flush_inserts(&self, keys: &[u64], run: std::vec::Drain<'_, Pending>) {
        // Fully pipelined runs need only the aggregate failure count —
        // unless an auto-growth policy is armed, in which case the
        // per-key report drives the grow-and-retry loop even for them.
        let wants_answers = run.as_slice().iter().any(|p| p.claim.is_some());
        let auto_growth = self.maintain.is_some_and(|m| m.auto.is_some());
        if !wants_answers && !auto_growth {
            let t0 = Instant::now();
            let failed = self.backend().bulk_insert(keys).unwrap_or(keys.len());
            self.stats.record_flush(keys.len(), t0.elapsed());
            if failed > 0 {
                self.stats.insert_failures.fetch_add(failed as u64, Ordering::Relaxed);
            }
            for p in run {
                self.record_latency(&p);
            }
            return;
        }
        // Per-key outcomes come straight from the backend's report API, so
        // individual failures are attributed exactly — and, under an Auto
        // policy, retried across grows until they land.
        let mut outcomes = vec![InsertOutcome::Inserted; keys.len()];
        let t0 = Instant::now();
        let result = self.backend().bulk_insert_report(keys, &mut outcomes);
        match result {
            Ok(()) => {
                let failed = self.settle_inserts(keys, &mut outcomes);
                self.stats.record_flush(keys.len(), t0.elapsed());
                if failed > 0 {
                    self.stats.insert_failures.fetch_add(failed as u64, Ordering::Relaxed);
                }
                for (p, outcome) in run.zip(outcomes) {
                    self.record_latency(&p);
                    p.answer(outcome.inserted());
                }
            }
            Err(_) => {
                self.stats.record_flush(keys.len(), t0.elapsed());
                self.stats.insert_failures.fetch_add(keys.len() as u64, Ordering::Relaxed);
                for p in run {
                    self.record_latency(&p);
                    p.answer(false);
                }
            }
        }
    }

    fn flush_queries(&self, keys: &[u64], run: std::vec::Drain<'_, Pending>, q: &mut QueryScratch) {
        let t0 = Instant::now();
        if !self.coalesce && self.cache.is_none() {
            // Baseline: one bulk probe over the run exactly as it arrived.
            let hits = self.backend().bulk_query_vec(keys);
            self.stats.record_flush(keys.len(), t0.elapsed());
            let n_hits = hits.iter().filter(|&&h| h).count() as u64;
            self.stats.query_hits.fetch_add(n_hits, Ordering::Relaxed);
            for (p, hit) in run.zip(hits) {
                self.record_latency(&p);
                p.answer(hit);
            }
            return;
        }
        // Fast path: resolve a verdict per slot through the sort-dedup
        // coalescer and/or the hot-key cache. Queries are pure, and every
        // cached verdict carries the current mutation epoch, so the
        // per-slot answers (and hence the observable fp set) are
        // bit-identical to the baseline probe.
        q.verdicts.clear();
        q.verdicts.resize(keys.len(), false);
        if self.coalesce {
            self.coalesced_verdicts(keys, q);
        } else {
            self.cached_verdicts(keys, q);
        }
        self.stats.record_flush(keys.len(), t0.elapsed());
        let n_hits = q.verdicts.iter().filter(|&&h| h).count() as u64;
        self.stats.query_hits.fetch_add(n_hits, Ordering::Relaxed);
        for (p, &hit) in run.zip(q.verdicts.iter()) {
            self.record_latency(&p);
            p.answer(hit);
        }
    }

    /// Sort-dedup the run's keys (the CPU-side sibling of the bulk
    /// pipeline's partition/sort phases), resolve each distinct key once,
    /// and fan the verdicts back to the original slots.
    fn coalesced_verdicts(&self, keys: &[u64], q: &mut QueryScratch) {
        q.pairs.clear();
        q.pairs.extend(keys.iter().enumerate().map(|(slot, &k)| (k, slot as u32)));
        q.pairs.sort_unstable();
        q.distinct.clear();
        let mut i = 0;
        while i < q.pairs.len() {
            let k = q.pairs[i].0;
            q.distinct.push(k);
            while i < q.pairs.len() && q.pairs[i].0 == k {
                i += 1;
            }
        }
        let dups = (keys.len() - q.distinct.len()) as u64;
        if dups > 0 {
            self.stats.coalesced_keys.fetch_add(dups, Ordering::Relaxed);
        }
        self.stats.record_distinct_ratio(q.distinct.len(), keys.len());
        self.probe_distinct(q);
        let (mut i, mut di) = (0, 0);
        while i < q.pairs.len() {
            let k = q.pairs[i].0;
            let v = q.dverdict[di];
            while i < q.pairs.len() && q.pairs[i].0 == k {
                q.verdicts[q.pairs[i].1 as usize] = v;
                i += 1;
            }
            di += 1;
        }
    }

    /// Resolve `q.distinct` into `q.dverdict`: consult the hot-key cache
    /// first (when armed), then settle the misses with one backend bulk
    /// probe and feed the fresh verdicts back into the cache.
    fn probe_distinct(&self, q: &mut QueryScratch) {
        let QueryScratch { distinct, dverdict, miss_pos, miss_keys, .. } = q;
        dverdict.clear();
        dverdict.resize(distinct.len(), false);
        let Some(cache) = &self.cache else {
            let hits = self.backend().bulk_query_vec(distinct);
            dverdict.copy_from_slice(&hits);
            return;
        };
        let hits = cache.lookup_batch(distinct, dverdict, miss_pos, miss_keys);
        self.stats.cache_hits.fetch_add(hits, Ordering::Relaxed);
        self.stats.cache_misses.fetch_add(miss_keys.len() as u64, Ordering::Relaxed);
        if miss_keys.is_empty() {
            return;
        }
        let probed = self.backend().bulk_query_vec(miss_keys);
        for (&pos, &hit) in miss_pos.iter().zip(&probed) {
            dverdict[pos as usize] = hit;
        }
        cache.store_batch(miss_keys, &probed);
    }

    /// Cache-only fast path (coalescing off): resolve the run in arrival
    /// order, probing cache misses — duplicates included — in one bulk
    /// call.
    fn cached_verdicts(&self, keys: &[u64], q: &mut QueryScratch) {
        let cache = self.cache.as_ref().expect("cached_verdicts requires an armed cache");
        let QueryScratch { verdicts, miss_pos, miss_keys, .. } = q;
        let hits = cache.lookup_batch(keys, verdicts, miss_pos, miss_keys);
        self.stats.cache_hits.fetch_add(hits, Ordering::Relaxed);
        self.stats.cache_misses.fetch_add(miss_keys.len() as u64, Ordering::Relaxed);
        if miss_keys.is_empty() {
            return;
        }
        let probed = self.backend().bulk_query_vec(miss_keys);
        for (&pos, &hit) in miss_pos.iter().zip(&probed) {
            verdicts[pos as usize] = hit;
        }
        cache.store_batch(miss_keys, &probed);
    }

    fn flush_deletes(&self, keys: &[u64], run: std::vec::Drain<'_, Pending>) {
        let Some(hooks) = self.delete_fn else {
            // Unreachable through the public API (handles refuse deletes on
            // a non-deletable service); dropping the claims aborts waiters.
            drop(run);
            return;
        };
        // Fully pipelined runs read no per-key answers; keep them on the
        // cheaper aggregate path.
        let wants_answers = run.as_slice().iter().any(|p| p.claim.is_some());
        if !wants_answers {
            let t0 = Instant::now();
            if (hooks.aggregate)(&self.backend(), keys).is_err() {
                self.stats.delete_failures.fetch_add(keys.len() as u64, Ordering::Relaxed);
            }
            self.stats.record_flush(keys.len(), t0.elapsed());
            for p in run {
                self.record_latency(&p);
            }
            return;
        }
        // The backend's per-key delete outcomes answer each blocking
        // caller directly — the pre-query round trip the old aggregate
        // API forced is gone, halving the backend work of a blocking
        // delete batch.
        let mut outcomes = vec![DeleteOutcome::NotFound; keys.len()];
        let t0 = Instant::now();
        let deleted = (hooks.report)(&self.backend(), keys, &mut outcomes);
        self.stats.record_flush(keys.len(), t0.elapsed());
        if deleted.is_err() {
            // The backend refused the whole batch: nothing was removed.
            // Report "not removed" to blocking callers and account the
            // failure.
            self.stats.delete_failures.fetch_add(keys.len() as u64, Ordering::Relaxed);
            for p in run {
                self.record_latency(&p);
                p.answer(false);
            }
            return;
        }
        for (p, outcome) in run.zip(outcomes) {
            self.record_latency(&p);
            p.answer(outcome.removed());
        }
    }
}

/// A cheap, cloneable submission handle onto a [`ShardedFilter`].
///
/// Handles are deliberately not generic over the backend, so application
/// code routing traffic into the service does not need to name the filter
/// type. Handles reference the service's *shared* routing state, so a
/// live resize ([`ShardedFilter::set_shards`]) transparently redirects
/// every handle — cloned before or after the resize — to the new shard
/// fleet.
#[derive(Clone)]
pub struct ServiceHandle {
    ring: Arc<RwLock<RouteState>>,
    stats: Arc<StatsInner>,
    deletes: bool,
}

impl ServiceHandle {
    /// Read-lock the routing state: one consistent (senders, router)
    /// view per operation. Held across route + send so a concurrent
    /// resize can never split an operation between fleets; dropped
    /// before any gate wait so draining workers (which never take this
    /// lock) can make progress.
    fn route_state(&self) -> RwLockReadGuard<'_, RouteState> {
        self.ring.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueue a task; on success, credit its operations to `accepted`
    /// (an operation rejected at the queue counts only as rejected, never
    /// as accepted).
    fn send(
        &self,
        rs: &RouteState,
        shard: usize,
        task: Task,
        accepted: Option<&AtomicU64>,
    ) -> Result<(), FilterError> {
        let n = task.ops();
        self.stats.enqueued(n);
        // A stopped service has drained its senders; a routed shard index
        // with no sender means "stopped", never a panic.
        let Some(sender) = rs.senders.get(shard) else {
            self.stats.dequeued(n);
            self.stats.rejected.fetch_add(n, Ordering::Relaxed);
            return Err(FilterError::ServiceStopped);
        };
        match sender.send(task) {
            Ok(()) => {
                if let Some(counter) = accepted {
                    counter.fetch_add(n, Ordering::Relaxed);
                }
                Ok(())
            }
            Err(_) => {
                self.stats.dequeued(n);
                self.stats.rejected.fetch_add(n, Ordering::Relaxed);
                Err(FilterError::ServiceStopped)
            }
        }
    }

    /// Refuse `op` unless it is a data operation this service serves.
    fn admit(&self, op: OpKind) -> Result<(), FilterError> {
        match op {
            OpKind::Insert | OpKind::Query => Ok(()),
            OpKind::Delete if self.deletes => Ok(()),
            OpKind::Delete => Err(FilterError::Unsupported("service built without deletes")),
            _ => Err(FilterError::Unsupported("submit_batch serves data ops only")),
        }
    }

    /// The one submission path: route `keys`, build each shard's task —
    /// with a claim on `gate` per key, slot = input position, when the
    /// caller wants answers — and send it; a one-key call sends
    /// [`Task::One`]. Every shard is tried even after one refuses, so
    /// each key is either enqueued or counted in
    /// [`ServiceStats::rejected`]; any refusal reports `ServiceStopped`.
    /// A refused task drops its claims, aborting their slots.
    fn fan_out(
        &self,
        op: OpKind,
        keys: &[u64],
        gate: Option<&Arc<Gate>>,
    ) -> Result<(), FilterError> {
        let accepted = match op {
            OpKind::Insert => &self.stats.inserts,
            OpKind::Query => &self.stats.queries,
            _ => &self.stats.deletes,
        };
        let at = Instant::now();
        let pending =
            |key, slot| Pending { kind: op, key, at, claim: gate.map(|g| Claim::new(g, slot)) };
        let rs = self.route_state();
        if let &[key] = keys {
            let task = Task::One(pending(key, 0));
            return self.send(&rs, rs.router.route(key), task, Some(accepted));
        }
        let (by_shard, positions) = rs.router.partition(keys);
        let mut sent = Ok(());
        for (shard, (shard_keys, slots)) in by_shard.into_iter().zip(positions).enumerate() {
            if shard_keys.is_empty() {
                continue;
            }
            let ops = shard_keys.into_iter().zip(slots).map(|(k, slot)| pending(k, slot)).collect();
            if let Err(e) = self.send(&rs, shard, Task::Many(ops), Some(accepted)) {
                sent = Err(e);
            }
        }
        sent
    }

    /// Fan `keys` out under a parking gate and wait for every answer, in
    /// submission order.
    fn call(&self, op: OpKind, keys: &[u64]) -> Result<Vec<bool>, FilterError> {
        self.admit(op)?;
        let gate = Gate::new(keys.len(), None);
        let sent = self.fan_out(op, keys, Some(&gate));
        gate.settle(sent)
    }

    /// Insert one key, parking until its batch flushes. Returns
    /// `Err(Full)` when the owning shard's backend rejected the key and
    /// `Err(ServiceStopped)` when the service shut down first.
    pub fn insert(&self, key: u64) -> Result<(), FilterError> {
        if self.call(OpKind::Insert, &[key])?[0] {
            Ok(())
        } else {
            Err(FilterError::Full)
        }
    }

    /// Query one key, parking until its batch flushes. Reports `false`
    /// (definitely absent) if the service stopped; use [`Self::query`] to
    /// distinguish.
    pub fn contains(&self, key: u64) -> bool {
        self.query(key).unwrap_or(false)
    }

    /// Query one key; `Err(ServiceStopped)` if the service shut down.
    pub fn query(&self, key: u64) -> Result<bool, FilterError> {
        Ok(self.call(OpKind::Query, &[key])?[0])
    }

    /// Remove one previously-inserted key; `Ok(true)` when a matching
    /// fingerprint was present. Requires a service built with
    /// [`ShardedFilterBuilder::build_deletable`]. If the backend refuses
    /// the delete batch with an error, nothing is removed: the call
    /// reports `Ok(false)` and the failure is counted in
    /// [`ServiceStats::delete_failures`].
    pub fn remove(&self, key: u64) -> Result<bool, FilterError> {
        Ok(self.call(OpKind::Delete, &[key])?[0])
    }

    /// Insert a batch, parking until every key's flush completes. Returns
    /// the number of keys the backends rejected (0 on full success),
    /// mirroring [`filter_core::BulkFilter::bulk_insert`].
    pub fn insert_batch(&self, keys: &[u64]) -> Result<usize, FilterError> {
        Ok(self.call(OpKind::Insert, keys)?.iter().filter(|&&ok| !ok).count())
    }

    /// Query a batch, parking until flushed; `out[i]` answers `keys[i]`.
    pub fn query_batch(&self, keys: &[u64]) -> Result<Vec<bool>, FilterError> {
        self.call(OpKind::Query, keys)
    }

    /// Delete a batch, parking until flushed; returns how many keys were
    /// *not* present (mirroring [`filter_core::BulkDeletable`]). Keys in
    /// a backend-refused delete batch count as not present and are
    /// recorded in [`ServiceStats::delete_failures`].
    pub fn delete_batch(&self, keys: &[u64]) -> Result<usize, FilterError> {
        Ok(self.call(OpKind::Delete, keys)?.iter().filter(|&&found| !found).count())
    }

    /// Fire-and-forget insert: enqueue and return. Failures surface only
    /// in [`ServiceStats::insert_failures`]; call [`Self::barrier`] to
    /// bound completion.
    pub fn insert_pipelined(&self, key: u64) -> Result<(), FilterError> {
        self.fan_out(OpKind::Insert, &[key], None)
    }

    /// Fire-and-forget batch insert (pre-routed, no completion gate). A
    /// stopped shard does not stop the others: every shard is tried,
    /// then `ServiceStopped` reports the refusal.
    pub fn insert_batch_pipelined(&self, keys: &[u64]) -> Result<(), FilterError> {
        self.fan_out(OpKind::Insert, keys, None)
    }

    /// Fire-and-forget batch delete (window expiry in streaming dedup and
    /// similar). Requires delete support; refusals report like
    /// [`Self::insert_batch_pipelined`].
    pub fn delete_batch_pipelined(&self, keys: &[u64]) -> Result<(), FilterError> {
        self.admit(OpKind::Delete)?;
        self.fan_out(OpKind::Delete, keys, None)
    }

    /// Submit a batch asynchronously: enqueue every key and return
    /// without parking; `on_done` fires exactly once — on a shard worker
    /// thread — when every key has flushed, carrying per-key answers in
    /// submission order.
    ///
    /// This is the network reactor's bridge into the service: the reactor
    /// thread never blocks on a completion gate, and the callback hands
    /// the finished [`BatchReport`] back to it (e.g. over a channel).
    /// `op` must be a data operation ([`OpKind::is_data`]); deletes
    /// additionally require a deletable service. On `Err` nothing was
    /// enqueued and the callback never fires (except the trivial
    /// empty-batch case, which fires it synchronously). After a
    /// successful return the callback *always* fires eventually: if the
    /// service stops mid-flight the dropped slots surface as
    /// [`BatchReport::aborted`] rather than a lost response.
    ///
    /// Note the enqueue itself still honors backpressure — a full shard
    /// queue blocks this call until the worker drains it, exactly like
    /// the parking submission paths.
    pub fn submit_batch(
        &self,
        op: OpKind,
        keys: &[u64],
        on_done: impl FnOnce(BatchReport) + Send + 'static,
    ) -> Result<(), FilterError> {
        self.admit(op)?;
        if keys.is_empty() {
            on_done(BatchReport { results: Vec::new(), aborted: 0 });
            return Ok(());
        }
        let gate = Gate::new(keys.len(), Some(Box::new(on_done)));
        // A refused send aborts its slots, so the callback still fires
        // and `aborted` accounts for them: one report, no second error.
        let _ = self.fan_out(op, keys, Some(&gate));
        Ok(())
    }

    /// Park until every operation enqueued (by any handle) before this
    /// call has been flushed on every shard.
    pub fn barrier(&self) -> Result<(), FilterError> {
        let (gate, sent) = {
            let rs = self.route_state();
            // A stopped service has no senders left; a zero-fence barrier
            // would report success for work that never flushed.
            if rs.senders.is_empty() {
                return Err(FilterError::ServiceStopped);
            }
            let gate = Gate::new(rs.senders.len(), None);
            let mut sent = Ok(());
            for shard in 0..rs.senders.len() {
                let fence = Task::Barrier(Claim::new(&gate, shard as u32));
                if let Err(e) = self.send(&rs, shard, fence, None) {
                    sent = Err(e);
                }
            }
            (gate, sent)
        };
        gate.settle(sent).map(drop)
    }

    /// Whether this service supports delete operations.
    pub fn supports_delete(&self) -> bool {
        self.deletes
    }

    /// The ring currently in use (e.g. to co-locate auxiliary per-shard
    /// state). By value: a resize replaces the live ring, so cache this
    /// only for as long as the shard count is known stable.
    pub fn router(&self) -> RingRouter {
        self.route_state().router.clone()
    }
}

/// A cheap, cloneable observe-and-tune handle onto a service.
///
/// Where [`ServiceHandle`] submits traffic, `ServiceControl` watches and
/// steers: live queue depth and accepted-operation counts (rate
/// estimation), full [`ServiceStats`] snapshots, and the batch linger —
/// readable and *writable at runtime*, the knob the adaptive network
/// tier turns to trade batch amortization against tail latency. Like
/// handles, it is not generic over the backend type.
#[derive(Clone)]
pub struct ServiceControl {
    ring: Arc<RwLock<RouteState>>,
    stats: Arc<StatsInner>,
    linger_ns: Arc<AtomicU64>,
    started: Instant,
}

impl ServiceControl {
    /// Current number of shards (live resizes change it).
    pub fn shards(&self) -> usize {
        self.ring.read().unwrap_or_else(|e| e.into_inner()).router.shards()
    }

    /// Operations currently queued across all shards.
    pub fn queue_depth(&self) -> u64 {
        self.stats.queue_depth.load(Ordering::Relaxed)
    }

    /// Total operations accepted so far (inserts + queries + deletes) —
    /// the monotone counter controllers difference for arrival rates.
    pub fn ops_accepted(&self) -> u64 {
        let o = Ordering::Relaxed;
        self.stats.inserts.load(o) + self.stats.queries.load(o) + self.stats.deletes.load(o)
    }

    /// The batch linger currently in force.
    pub fn linger(&self) -> Duration {
        Duration::from_nanos(self.linger_ns.load(Ordering::Relaxed))
    }

    /// Retune the batch linger live; each shard worker picks it up the
    /// next time it arms a flush deadline.
    pub fn set_linger(&self, linger: Duration) {
        self.linger_ns.store(linger.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
    }

    /// Snapshot of the service metrics.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats::snapshot(&self.stats, self.shards(), self.started.elapsed())
    }
}

/// A sharded, batch-aggregating serving front-end over `N` independent
/// instances of a bulk filter backend. See the [module docs](self) for the
/// architecture and the [crate docs](crate) for a quickstart.
pub struct ShardedFilter<B: ServiceBackend + 'static> {
    backends: Vec<Arc<RwLock<B>>>,
    ring: Arc<RwLock<RouteState>>,
    workers: Vec<JoinHandle<()>>,
    cfg: ShardedFilterBuilder,
    stats: Arc<StatsInner>,
    linger_ns: Arc<AtomicU64>,
    started: Instant,
    delete_fn: Option<DeleteHooks<B>>,
    maintain: Option<MaintainHooks<B>>,
    worker_generation: u64,
}

impl<B: ServiceBackend + 'static> ShardedFilter<B> {
    /// A new submission handle (cheap; clone freely across threads).
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            ring: Arc::clone(&self.ring),
            stats: Arc::clone(&self.stats),
            deletes: self.delete_fn.is_some(),
        }
    }

    fn route_state(&self) -> RwLockReadGuard<'_, RouteState> {
        self.ring.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Snapshot of the service metrics.
    pub fn stats(&self) -> ServiceStats {
        let shards = self.route_state().router.shards();
        ServiceStats::snapshot(&self.stats, shards, self.started.elapsed())
    }

    /// An observe-and-tune handle (cheap; clone freely across threads):
    /// live stats, queue depth, and the batch linger, without naming the
    /// backend type. The adaptive network tier steers the service through
    /// this.
    pub fn control(&self) -> ServiceControl {
        ServiceControl {
            ring: Arc::clone(&self.ring),
            stats: Arc::clone(&self.stats),
            linger_ns: Arc::clone(&self.linger_ns),
            started: self.started,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.route_state().router.shards()
    }

    /// The ring currently mapping keys to shards (by value: resizes
    /// replace it).
    pub fn router(&self) -> RingRouter {
        self.route_state().router.clone()
    }

    /// Shared references to the per-shard backends. Lock a backend
    /// (read) for metadata access; the write side belongs to the
    /// maintenance paths.
    pub fn backends(&self) -> &[Arc<RwLock<B>>] {
        &self.backends
    }

    /// Total heap bytes across all shard tables.
    pub fn table_bytes(&self) -> usize {
        self.backends
            .iter()
            .map(|b| b.read().unwrap_or_else(|e| e.into_inner()).table_bytes())
            .sum()
    }

    /// Total capacity slots across all shards.
    pub fn capacity_slots(&self) -> u64 {
        self.backends
            .iter()
            .map(|b| b.read().unwrap_or_else(|e| e.into_inner()).capacity_slots())
            .sum()
    }

    /// Live elastic resize: move the fleet to `new_shards` — more
    /// (scale-out) or fewer (scale-in) — migrating contents by merging so
    /// no acknowledged key loses its membership answer. *Any* resize
    /// sequence is valid (4 → 6 → 3 → 8 …).
    ///
    /// `make(shard_index)` builds the new backends (size them with
    /// [`ShardedFilterBuilder::shard_spec`] over the *new* shard count,
    /// or reuse the original per-shard spec — each new shard must be able
    /// to absorb the live contents it inherits, growing under the
    /// maintain hooks when a merge reports [`FilterError::NeedsGrowth`]).
    ///
    /// Correctness under concurrent traffic: intake pauses (handles block
    /// on the shared routing state) while the old workers drain and stop,
    /// so no enqueued operation is lost and blocking callers are answered
    /// before migration begins. [`RingRouter::inheritors`] then names,
    /// for every new shard, exactly the old backends whose key-space arcs
    /// it takes over — on a scale-out mostly its own predecessor, on a
    /// scale-in additionally the decommissioned shards' arcs, which the
    /// ring hands to their clockwise successors — and each new backend
    /// merge-absorbs those sources before the new fleet goes live. On a
    /// migration error the old fleet is restored intact (merges only
    /// write into the new backends; survivors that already absorbed a
    /// source can only over-approximate, never lose a key).
    ///
    /// Cost model — what merge-based migration buys and what it does not:
    /// filters store fingerprints, not keys, so a source's contents
    /// cannot be *partitioned* by router arc; an inheritor absorbs each
    /// source's **full** contents instead. The service-wide
    /// false-positive rate is unchanged at the moment of the resize (no
    /// fingerprint is dropped), and out-of-range fingerprints an
    /// inheritor picks up are inert but undeletable (deletes for those
    /// keys route to the owning shard). What the resize buys is the ring
    /// economics *forward*: every new key lands in exactly one shard, an
    /// `n → n ± k` resize re-routes only ~`k/n` of the key space
    /// (ledgered in [`ServiceStats::keys_moved`](crate::ServiceStats) as
    /// `moved-fraction × estimated live items`), and a scale-in actually
    /// retires worker threads and their queues. A deployment that needs
    /// stale fingerprints reclaimed rebuilds shards from its source of
    /// truth (out of scope here).
    ///
    /// Requires a service built with
    /// [`ShardedFilterBuilder::build_maintainable`] /
    /// [`build_maintainable_deletable`](ShardedFilterBuilder::build_maintainable_deletable)
    /// (the merge hook does the migration).
    pub fn set_shards<F>(&mut self, new_shards: usize, mut make: F) -> Result<(), FilterError>
    where
        F: FnMut(usize) -> Result<B, FilterError>,
    {
        let Some(hooks) = self.maintain else {
            return FilterError::unsupported("live resize needs a maintainable backend");
        };
        let old_shards = self.backends.len();
        if new_shards == old_shards {
            return Ok(());
        }
        if new_shards == 0 {
            return Err(FilterError::BadConfig(
                "set_shards: shard count must be positive".to_string(),
            ));
        }
        let grow_factor = hooks.auto.map(|(_, f)| f).unwrap_or(2);

        // Build the new fleet and router before pausing intake.
        let mut new_backends = Vec::with_capacity(new_shards);
        for j in 0..new_shards {
            new_backends.push(Arc::new(RwLock::new(make(j)?)));
        }
        let new_router = self.cfg.make_router(new_shards);

        // Pause intake: handles block acquiring the read side; workers
        // never take this lock, so their queues keep draining. (The Arc
        // is cloned so the guard does not pin `self`.)
        let ring = Arc::clone(&self.ring);
        let mut rs = ring.write().unwrap_or_else(|e| e.into_inner());

        // Stop the old workers. `Task::Stop` flushes everything buffered
        // first, so every already-enqueued operation completes (blocking
        // callers get their acks) before migration starts.
        for tx in rs.senders.drain(..) {
            let _ = tx.send(Task::Stop);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.worker_generation += 1;

        // What moves: each new shard's inheritor set (the old backends
        // whose arcs it takes over), plus the movement estimate for the
        // ledger — measured routing churn on a deterministic key probe,
        // scaled by the old fleet's estimated live item count.
        let inherit = RingRouter::inheritors(&rs.router, &new_router);
        let moved_fraction = rs.router.moved_fraction(&new_router, MOVE_PROBE_KEYS);
        let est_items: f64 = self
            .backends
            .iter()
            .map(|b| {
                let b = b.read().unwrap_or_else(|e| e.into_inner());
                (hooks.load)(&b) * b.capacity_slots() as f64
            })
            .sum();

        // Merge-migrate every inheritor set into its (fresh) new backend.
        // On an unrecoverable error, restore the old fleet (its backends
        // are untouched — merges only write into the new ones).
        let migrate = || -> Result<(), FilterError> {
            for (j, child) in new_backends.iter().enumerate() {
                for &src in &inherit[j] {
                    let parent = self.backends[src].read().unwrap_or_else(|e| e.into_inner());
                    let mut child_b = child.write().unwrap_or_else(|e| e.into_inner());
                    let mut grows = 0;
                    loop {
                        match (hooks.merge)(&mut child_b, &parent) {
                            Ok(()) => break,
                            Err(FilterError::NeedsGrowth { .. }) if grows < MAX_GROWS_PER_FLUSH => {
                                (hooks.grow)(&mut child_b, grow_factor)?;
                                grows += 1;
                                self.stats.grow_events.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => return Err(e),
                        }
                    }
                    self.stats.migration_events.fetch_add(1, Ordering::Relaxed);
                }
            }
            Ok(())
        };
        if let Err(e) = migrate() {
            let (senders, workers) = spawn_workers(
                &self.backends,
                &self.stats,
                &self.cfg,
                &self.linger_ns,
                self.delete_fn,
                self.maintain,
                self.worker_generation,
            )?;
            rs.senders = senders;
            self.workers = workers;
            return Err(e);
        }

        // Install the new fleet and resume intake.
        let (senders, workers) = spawn_workers(
            &new_backends,
            &self.stats,
            &self.cfg,
            &self.linger_ns,
            self.delete_fn,
            self.maintain,
            self.worker_generation,
        )?;
        self.backends = new_backends;
        rs.senders = senders;
        rs.router = new_router;
        self.workers = workers;
        if new_shards > old_shards {
            self.stats.scale_outs.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.scale_ins.fetch_add(1, Ordering::Relaxed);
        }
        self.stats
            .keys_moved
            .fetch_add((moved_fraction * est_items).round() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Stop accepting work, flush every shard, join the workers, and hand
    /// back the backends (e.g. to persist or merge them). Outstanding
    /// handles observe [`FilterError::ServiceStopped`] afterwards; their
    /// in-flight blocking calls complete or abort, never hang.
    pub fn shutdown(mut self) -> Vec<Arc<RwLock<B>>> {
        self.stop_workers();
        std::mem::take(&mut self.backends)
    }

    fn stop_workers(&mut self) {
        let ring = Arc::clone(&self.ring);
        let mut rs = ring.write().unwrap_or_else(|e| e.into_inner());
        for tx in rs.senders.drain(..) {
            // A full queue blocks until the worker drains it; a worker that
            // already exited surfaces as a send error, which is fine.
            let _ = tx.send(Task::Stop);
        }
        drop(rs);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl<B: ServiceBackend + 'static> Drop for ShardedFilter<B> {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

#[cfg(test)]
mod async_tests {
    use super::*;
    use std::sync::mpsc;
    use tcf::BulkTcf;

    fn service() -> ShardedFilter<BulkTcf> {
        ShardedFilterBuilder::new()
            .shards(2)
            .batch_capacity(256)
            .linger(Duration::from_micros(100))
            .build_deletable(|_| BulkTcf::new(1 << 13))
            .unwrap()
    }

    #[test]
    fn submit_batch_fires_callback_with_per_key_results() {
        let svc = service();
        let h = svc.handle();
        let keys: Vec<u64> = filter_core::hashed_keys(9, 500);
        let (tx, rx) = mpsc::channel();
        let tx2 = tx.clone();
        h.submit_batch(OpKind::Insert, &keys, move |r| tx2.send(r).unwrap()).unwrap();
        let r = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(r.aborted, 0);
        assert!(r.results.iter().all(|&ok| ok), "all inserts must land");

        // Queries answer in submission order: present then absent.
        let mut probe = keys[..100].to_vec();
        probe.extend(filter_core::hashed_keys(10, 100));
        h.submit_batch(OpKind::Query, &probe, move |r| tx.send(r).unwrap()).unwrap();
        let r = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(r.aborted, 0);
        assert!(r.results[..100].iter().all(|&hit| hit), "inserted keys must hit");
        let fp = r.results[100..].iter().filter(|&&hit| hit).count();
        assert!(fp < 20, "absent keys mostly miss, got {fp} hits");

        // The ledger saw the async traffic and recorded its latency.
        let stats = svc.stats();
        assert_eq!(stats.inserts, 500);
        assert_eq!(stats.queries, 200);
        assert!(stats.latency.count >= 700, "latency samples: {}", stats.latency.count);
        assert!(stats.latency.p999 >= stats.latency.p50);
    }

    #[test]
    fn submit_batch_refuses_non_data_ops_and_unsupported_deletes() {
        let svc = ShardedFilterBuilder::new().shards(1).build(|_| BulkTcf::new(1 << 10)).unwrap();
        let h = svc.handle();
        let fired = Arc::new(std::sync::atomic::AtomicBool::new(false));
        for op in [OpKind::Ping, OpKind::Shutdown, OpKind::Delete] {
            let f = Arc::clone(&fired);
            let err = h.submit_batch(op, &[1, 2], move |_| {
                f.store(true, Ordering::Relaxed);
            });
            assert!(err.is_err(), "{op:?} must be refused on this service");
        }
        assert!(!fired.load(Ordering::Relaxed), "refused submissions must not call back");
        // Empty batches complete synchronously.
        let f = Arc::clone(&fired);
        h.submit_batch(OpKind::Insert, &[], move |r| {
            assert_eq!(r.results.len(), 0);
            f.store(true, Ordering::Relaxed);
        })
        .unwrap();
        assert!(fired.load(Ordering::Relaxed));
    }

    #[test]
    fn submit_batch_after_shutdown_reports_aborts_not_silence() {
        let svc = service();
        let h = svc.handle();
        drop(svc.shutdown());
        let (tx, rx) = mpsc::channel();
        h.submit_batch(OpKind::Insert, &[1, 2, 3], move |r| tx.send(r).unwrap()).unwrap();
        let r = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(r.aborted, 3, "stopped service must abort every slot");
        assert!(r.results.iter().all(|&ok| !ok));
    }

    #[test]
    fn pipelined_batches_try_every_shard_after_a_refusal() {
        let svc = ShardedFilterBuilder::new()
            .shards(4)
            .build_deletable(|_| BulkTcf::new(1 << 12))
            .unwrap();
        let (h, ctl) = (svc.handle(), svc.control());
        drop(svc.shutdown());
        let keys = filter_core::hashed_keys(3, 400);
        assert!(matches!(h.insert_batch_pipelined(&keys), Err(FilterError::ServiceStopped)));
        assert!(matches!(h.delete_batch_pipelined(&keys), Err(FilterError::ServiceStopped)));
        let stats = ctl.stats();
        assert_eq!(stats.rejected, 800, "every key of every refused shard is counted");
        assert_eq!(stats.queue_depth, 0);
    }

    #[test]
    fn skew_fast_path_counts_and_epoch_invalidation_tracks_mutations() {
        let svc = ShardedFilterBuilder::new()
            .shards(1)
            .batch_capacity(512)
            .linger(Duration::from_micros(100))
            .query_cache(1 << 12)
            .build_deletable(|_| BulkTcf::new(1 << 13))
            .unwrap();
        let h = svc.handle();
        let keys: Vec<u64> = filter_core::hashed_keys(21, 64);
        h.insert_batch(&keys).unwrap();

        // A duplicate-heavy probe: every key four times, well inside one
        // flush (a single Task::Many under the batch capacity).
        let mut probe = Vec::new();
        for _ in 0..4 {
            probe.extend_from_slice(&keys);
        }
        let first = h.query_batch(&probe).unwrap();
        assert!(first.iter().all(|&hit| hit), "inserted keys must hit");
        // No mutation in between: the repeat probe is served by the cache.
        let again = h.query_batch(&probe).unwrap();
        assert_eq!(first, again);

        let s = svc.stats();
        assert!(s.coalesced_keys >= 3 * 64, "coalescer removed {} dups", s.coalesced_keys);
        assert!(s.cache_hits >= 64, "repeat probe must hit the cache, got {}", s.cache_hits);
        assert!(s.cache_invalidations >= 1, "the insert flush must bump the epoch");
        assert!(s.distinct_ratio_hist.total() >= 1, "coalesced flushes record their ratio");
        assert_eq!(s.query_hits, 2 * probe.len() as u64, "per-slot hit accounting is unchanged");

        // Empty the filter: the delete flush bumps the epoch, so the
        // cached "present" verdicts cannot leak through — and an emptied
        // TCF answers definite misses.
        let not_present = h.delete_batch(&keys).unwrap();
        assert_eq!(not_present, 0, "every inserted key must be removed");
        let after = h.query_batch(&probe).unwrap();
        assert!(after.iter().all(|&hit| !hit), "stale verdicts must die with the epoch");
        assert!(svc.stats().cache_invalidations > s.cache_invalidations);
    }

    #[test]
    fn control_observes_and_retunes_the_live_service() {
        let svc = service();
        let ctl = svc.control();
        assert_eq!(ctl.shards(), 2);
        assert_eq!(ctl.linger(), Duration::from_micros(100));
        ctl.set_linger(Duration::from_millis(2));
        assert_eq!(ctl.linger(), Duration::from_millis(2));

        let h = svc.handle();
        h.insert_batch(&filter_core::hashed_keys(11, 300)).unwrap();
        assert_eq!(ctl.ops_accepted(), 300);
        assert_eq!(ctl.queue_depth(), 0, "blocking batch drains before returning");
        let stats = ctl.stats();
        assert_eq!(stats.inserts, 300);
        assert!(stats.latency.count >= 300);
        // The control handle outlives a clone and shares the same knob.
        let ctl2 = ctl.clone();
        ctl2.set_linger(Duration::from_micros(50));
        assert_eq!(ctl.linger(), Duration::from_micros(50));
    }
}

#[cfg(test)]
mod builder_tests {
    use super::*;

    #[test]
    fn shard_spec_divides_capacity_and_thread_budget() {
        let spec = FilterSpec::items(1_000_000).fp_rate(1e-3);
        let b = ShardedFilterBuilder::new().shards(4).parallelism(Parallelism::Threads(8));
        let per = b.shard_spec(&spec);
        assert_eq!(per.capacity, 250_000);
        assert_eq!(per.parallelism, Parallelism::Threads(2));
        assert_eq!(per.fp_rate, spec.fp_rate, "other knobs pass through");

        // Budgets smaller than the shard count clamp to one worker each.
        let b = ShardedFilterBuilder::new().shards(8).parallelism(Parallelism::Threads(3));
        assert_eq!(b.shard_spec(&spec).parallelism, Parallelism::Threads(1));

        // Sequential and Auto pass through unchanged.
        let b = ShardedFilterBuilder::new().shards(4).parallelism(Parallelism::Sequential);
        assert_eq!(b.shard_spec(&spec).parallelism, Parallelism::Sequential);
        let b = ShardedFilterBuilder::new().shards(4);
        assert_eq!(b.shard_spec(&spec).parallelism, Parallelism::Auto);
    }

    #[test]
    fn skew_knobs_default_and_toggle() {
        let b = ShardedFilterBuilder::new();
        assert!(b.coalesce, "coalescing defaults on");
        assert_eq!(b.cache_entries, 0, "cache defaults off");
        let b = b.coalesce_queries(false).query_cache(512);
        assert!(!b.coalesce);
        assert_eq!(b.cache_entries, 512);
    }
}

#[cfg(test)]
mod gate_tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{OnceLock, Weak};

    #[test]
    fn parked_gate_returns_fulfilled_values_and_counts_dropped_claims() {
        let gate = Gate::new(5, None);
        let claims: Vec<Claim> = (0..5).map(|slot| Claim::new(&gate, slot)).collect();
        let waiter = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || gate.wait())
        };
        for (slot, claim) in claims.into_iter().enumerate() {
            match slot {
                1 | 3 => drop(claim),
                _ => claim.fulfill(slot != 2),
            }
        }
        let report = waiter.join().unwrap();
        assert_eq!(report.results, vec![true, false, false, false, true]);
        assert_eq!(report.aborted, 2, "dropped claims count as aborted");
    }

    #[test]
    fn callback_gate_fires_once_after_its_last_claim_outside_the_lock() {
        for drop_last in [false, true] {
            let fired = Arc::new(AtomicUsize::new(0));
            let report = Arc::new(Mutex::new(None));
            let me: Arc<OnceLock<Weak<Gate>>> = Arc::default();
            let on_done = {
                let (fired, report, me) =
                    (Arc::clone(&fired), Arc::clone(&report), Arc::clone(&me));
                move |r: BatchReport| {
                    let gate = me.get().and_then(Weak::upgrade).expect("gate alive");
                    assert!(gate.state.try_lock().is_ok(), "callback ran under the gate lock");
                    fired.fetch_add(1, Ordering::Relaxed);
                    *report.lock().unwrap() = Some(r);
                }
            };
            let gate = Gate::new(3, Some(Box::new(on_done)));
            me.set(Arc::downgrade(&gate)).unwrap();
            let mut claims: Vec<Claim> = (0..3).map(|slot| Claim::new(&gate, slot)).collect();
            let last = claims.pop().unwrap();
            drop(claims.pop());
            claims.pop().unwrap().fulfill(true);
            assert_eq!(fired.load(Ordering::Relaxed), 0, "fired before its last claim");
            if drop_last {
                drop(last);
            } else {
                last.fulfill(true);
            }
            assert_eq!(fired.load(Ordering::Relaxed), 1, "the last claim fires exactly once");
            let r = report.lock().unwrap().take().unwrap();
            assert_eq!(r.results, vec![true, false, !drop_last]);
            assert_eq!(r.aborted, 1 + usize::from(drop_last));
        }
    }
}
