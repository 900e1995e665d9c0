//! Workload `service`: application threads sharing the sharded filter
//! in-process. Two closed-loop clients make blocking 64-key calls through
//! `ServiceHandle`: 80% Zipf(1.1) queries of keys no one deletes, 10%
//! inserts of fresh keys, 10% deletes of the client's oldest keys.
//!
//! Its wall-clock throughput and latency swing with the host's steal too
//! much to bound, so it is runnable but not in `BENCHMARK.json` (see
//! `perfbench/README.md`). The service set-up and the per-layer metrics
//! here are shared with the `wire` workload.

use crate::gen::{Keys, Rng, Stream, Zipf};
use crate::report::Report;
use crate::stats::{median, windowed_percentile, windows};
use crate::timed::{Timed, TCF};
use crate::trace::{self_times, Span, Tracer};
use crate::Args;
use filter_core::{BulkDeletable, FilterError, FilterSpec, ServiceBackend};
use filter_service::{
    ServiceControl, ServiceHandle, ServiceStats, ShardedFilter, ShardedFilterBuilder,
};
use gpu_sim::cost::estimate;
use gpu_sim::metrics::{self, Counter, Counters};
use gpu_sim::{DeviceProfile, KernelStats};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tcf::BulkTcf;

/// Shards, each a TCF of [`SHARD_SLOTS`] slots (fits in L2).
pub const SHARDS: usize = 2;
pub const SHARD_SLOTS: u64 = 1 << 19;
/// Keys loaded during set-up and never deleted: the query set.
pub const STABLE: u64 = 1 << 19;
/// Churn keys each client loads during set-up as its delete backlog;
/// `STABLE + 2 * CHURN_PER_CLIENT` fills 60% of the slots.
const CHURN_PER_CLIENT: u64 = 52_428;
const CLIENTS: usize = 2;
const CALL_KEYS: usize = 64;
const ZIPF_S: f64 = 1.1;
const PRELOAD_CHUNK: usize = 4096;

/// Per-shard spec: exactly [`SHARD_SLOTS`] slots, the 1% class, and the
/// default `Parallelism::Auto` host workers.
pub fn shard_spec() -> FilterSpec {
    FilterSpec::items(SHARD_SLOTS * 9 / 10).fp_rate(0.01)
}

/// Keys [`build`] loads: the stable keys plus `churn` backlog keys per
/// client.
pub fn preloaded(churn: u64) -> u64 {
    STABLE + CLIENTS as u64 * churn
}

/// First churn-stream index owned by client `c`.
pub fn churn_base(c: usize) -> u64 {
    (c as u64) << 40
}

/// Build a service with `ShardedFilterBuilder` defaults over [`SHARDS`] backends
/// from `make`, and load the stable keys plus `churn` backlog keys per
/// client through its handle.
pub fn build<B>(
    make: &dyn Fn(usize) -> Result<B, FilterError>,
    keys: &Keys,
    churn: u64,
) -> Result<ShardedFilter<B>, String>
where
    B: ServiceBackend + BulkDeletable + 'static,
{
    let svc = ShardedFilterBuilder::new()
        .shards(SHARDS)
        .build_deletable(make)
        .map_err(|e| format!("building the service: {e}"))?;
    let h = svc.handle();
    let load = |stream: Stream, start: u64, n: u64| -> Result<(), String> {
        for off in (0..n).step_by(PRELOAD_CHUNK) {
            let batch = keys.range(stream, start + off, PRELOAD_CHUNK.min((n - off) as usize));
            match h.insert_batch(&batch) {
                Ok(0) => {}
                Ok(refused) => return Err(format!("preload refused {refused} keys")),
                Err(e) => return Err(format!("preload: {e}")),
            }
        }
        Ok(())
    };
    load(Stream::Stable, 0, STABLE)?;
    for c in 0..CLIENTS {
        load(Stream::Churn, churn_base(c), churn)?;
    }
    for b in svc.backends() {
        let slots = b.read().expect("backend lock poisoned").capacity_slots();
        if slots != SHARD_SLOTS {
            return Err(format!("shard has {slots} slots, expected {SHARD_SLOTS}"));
        }
    }
    Ok(svc)
}

/// One client's results. Samples are `(completion time in seconds since
/// the phase started, value)`.
#[derive(Debug, Default)]
struct ClientOut {
    lat_ms: Vec<(f64, f64)>,
    keys: Vec<(f64, f64)>,
    attempted: u64,
    failed: u64,
    queue_max: u64,
}

/// A client's delete backlog: churn indices `lo..hi`, minus keys whose
/// insert outcome is unknown (a batch that reported refusals).
struct Backlog {
    lo: u64,
    hi: u64,
    unknown: HashSet<u64>,
}

/// What every client shares: the service, the inputs and the tracer.
struct Load<'a> {
    seed: u64,
    h: &'a ServiceHandle,
    control: &'a ServiceControl,
    zipf: &'a Zipf,
    keys: &'a Keys,
    tracer: &'a Tracer,
}

fn client(
    load: &Load,
    lane: usize,
    backlog: &mut Backlog,
    start: Instant,
    until: Instant,
) -> ClientOut {
    let Load { seed, h, control, zipf, keys, tracer } = *load;
    let mut rng = Rng::new(seed, 100 + lane as u64);
    let mut out = ClientOut::default();
    let mut batch = Vec::with_capacity(CALL_KEYS);
    while Instant::now() < until {
        out.queue_max = out.queue_max.max(control.queue_depth());
        let dice = rng.below(10);
        batch.clear();
        let call = Instant::now();
        let failed = if dice == 0 || (dice == 1 && backlog.hi - backlog.lo < CALL_KEYS as u64) {
            batch.extend((0..CALL_KEYS as u64).map(|i| keys.key(Stream::Churn, backlog.hi + i)));
            let n = batch.len() as u64;
            let res = tracer.span("filter-service.insert_batch", 0, n, || h.insert_batch(&batch));
            let refused = res.map_or(n, |r| r as u64);
            if refused > 0 {
                backlog.unknown.extend(backlog.hi..backlog.hi + n);
            }
            backlog.hi += n;
            refused
        } else if dice == 1 {
            let (lo, unknown) = (backlog.lo, &mut backlog.unknown);
            batch.extend(
                (lo..lo + CALL_KEYS as u64)
                    .filter(|i| !unknown.remove(i))
                    .map(|i| keys.key(Stream::Churn, i)),
            );
            backlog.lo += CALL_KEYS as u64;
            let n = batch.len() as u64;
            let res = tracer.span("filter-service.delete_batch", 0, n, || h.delete_batch(&batch));
            res.map_or(n, |missing| missing as u64)
        } else {
            batch.extend(
                (0..CALL_KEYS).map(|_| keys.key(Stream::Stable, zipf.sample(&mut rng) as u64)),
            );
            let n = batch.len() as u64;
            let res = tracer.span("filter-service.query_batch", 0, n, || h.query_batch(&batch));
            res.map_or(n, |hits| hits.iter().filter(|&&hit| !hit).count() as u64)
        };
        let (done, n) = (start.elapsed().as_secs_f64(), batch.len() as u64);
        out.lat_ms.push((done, call.elapsed().as_secs_f64() * 1e3));
        out.keys.push((done, n as f64));
        out.attempted += n;
        out.failed += failed;
    }
    out
}

/// Totals of one measured phase.
#[derive(Debug)]
struct Phase {
    cpu: f64,
    seconds: f64,
    wall: Duration,
    lat_ms: Vec<(f64, f64)>,
    keys: Vec<(f64, f64)>,
    attempted: u64,
    failed: u64,
    queue_max: u64,
}

impl Phase {
    /// Keys completed per second over the whole phase.
    fn mkeys_s(&self) -> f64 {
        self.attempted as f64 / self.wall.as_secs_f64() / 1e6
    }

    /// Median across windows of the keys completed per second.
    fn windowed_mkeys_s(&self) -> (f64, usize) {
        let (groups, len) = windows(&self.keys, self.seconds);
        let rates: Vec<f64> = groups.iter().map(|g| g.iter().sum::<f64>() / len / 1e6).collect();
        (median(&rates), rates.len())
    }
}

fn drive(load: &Load, backlogs: &mut [Backlog], seconds: f64) -> Phase {
    let start = Instant::now();
    let cpu0 = crate::host::process_cpu_s();
    let until = start + Duration::from_secs_f64(seconds);
    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let workers: Vec<_> = backlogs
            .iter_mut()
            .enumerate()
            .map(|(lane, backlog)| s.spawn(move || client(load, lane, backlog, start, until)))
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread panicked")).collect()
    });
    let wall = start.elapsed();
    let cpu = crate::host::process_cpu_s() - cpu0;
    let mut phase = Phase {
        cpu,
        seconds,
        wall,
        lat_ms: Vec::new(),
        keys: Vec::new(),
        attempted: 0,
        failed: 0,
        queue_max: 0,
    };
    for o in outs {
        phase.lat_ms.extend(o.lat_ms);
        phase.keys.extend(o.keys);
        phase.attempted += o.attempted;
        phase.failed += o.failed;
        phase.queue_max = phase.queue_max.max(o.queue_max);
    }
    phase
}

/// Service and gpu-sim state at the start of a measured window.
pub struct Window {
    pub stats: ServiceStats,
    pub counters: Counters,
}

impl Window {
    pub fn open(control: &ServiceControl) -> Self {
        Window { stats: control.stats(), counters: metrics::snapshot() }
    }
}

/// Per-layer metrics of the filter-service, tcf and gpu-sim layers over
/// a window, from the service's own counters and the backend spans (wall
/// time) of TCF shards of `shard_bytes` each. Returns the mean backend
/// call time in microseconds.
pub fn backend_layers(
    r: &mut Report,
    before: &Window,
    control: &ServiceControl,
    backend: &[Span],
    wall: Duration,
    queue_max: u64,
    shard_bytes: u64,
) -> f64 {
    let after = control.stats();
    let counters = metrics::snapshot().since(&before.counters);
    let calls = backend.len().max(1) as f64;
    let busy: u64 = backend.iter().map(Span::dur_ns).sum();
    let keys: u64 = backend.iter().map(|s| s.keys).sum();
    let call_us = busy as f64 / calls / 1e3;
    r.metric(
        "tcf.mkeys_s",
        keys as f64 / busy as f64 * 1e3,
        "Mkeys/s",
        format!("{keys} keys in {:.3} s of backend calls (wall)", busy as f64 / 1e9),
    );
    for (op, span) in [("insert", TCF.insert), ("query", TCF.query), ("delete", TCF.delete)] {
        let name = format!("tcf.{op}_ns_per_key");
        let (n, ns) = backend
            .iter()
            .filter(|s| s.name == span)
            .fold((0, 0), |(n, ns), s| (n + s.keys, ns + s.dur_ns()));
        if n == 0 {
            r.not_exercised(&[&name], &format!("no {op} calls"));
        } else {
            r.metric(&name, ns as f64 / n as f64, "ns", format!("wall, {n} keys"));
        }
    }
    r.metric("tcf.call_us_mean", call_us, "us", format!("wall, {calls} calls"));
    r.metric("tcf.keys_per_call", keys as f64 / calls, "keys", format!("{keys} keys"));
    let items = after.items_flushed - before.stats.items_flushed;
    let flushes = after.batches_flushed - before.stats.batches_flushed;
    r.metric(
        "filter-service.keys_per_flush",
        items as f64 / flushes.max(1) as f64,
        "keys",
        format!("{items} keys over {flushes} flushes"),
    );
    r.metric(
        "filter-service.backend_busy_frac",
        busy as f64 / (wall.as_secs_f64() * 1e9 * SHARDS as f64),
        "ratio",
        format!("backend span time over {SHARDS} shards x wall"),
    );
    let queries = after.queries - before.stats.queries;
    let coalesced = after.coalesced_keys - before.stats.coalesced_keys;
    r.metric(
        "filter-service.coalesced_frac",
        coalesced as f64 / queries.max(1) as f64,
        "ratio",
        format!("{coalesced} of {queries} queried keys"),
    );
    r.metric(
        "filter-service.queue_depth_max",
        queue_max as f64,
        "ops",
        "largest queue depth a client saw before a call",
    );
    let launches = counters.get(Counter::KernelLaunches);
    r.metric(
        "gpu-sim.launches_per_call",
        launches as f64 / calls,
        "count",
        format!("{launches} launches over {calls} backend calls"),
    );
    let lines = counters.get(Counter::LinesLoaded) + counters.get(Counter::LinesStored);
    r.metric(
        "gpu-sim.tcf_lines_per_key",
        lines as f64 / keys.max(1) as f64,
        "lines",
        format!("{lines} lines over {keys} keys"),
    );
    let profile = DeviceProfile::cori_v100();
    let stats = KernelStats {
        counters,
        wall: Duration::from_nanos(busy),
        items: keys,
        cg_size: 1,
        active_threads: ((keys as f64 / calls) as u64).min(profile.max_threads),
    };
    r.metric(
        "gpu-sim.tcf_modeled_mkeys_s",
        estimate(&stats, &profile, shard_bytes).throughput / 1e6,
        "Mkeys/s",
        "cost-model time at the service's batch sizes, not wall time; unvalidated",
    );
    r.not_exercised(
        &[
            "gqf.mkeys_s",
            "gqf.insert_ns_per_key",
            "gqf.query_ns_per_key",
            "gqf.delete_ns_per_key",
            "gpu-sim.gqf_lines_per_key",
            "gpu-sim.gqf_modeled_mkeys_s",
        ],
        "the shards are TCFs",
    );
    call_us
}

/// Table bytes of one shard.
pub fn shard_bytes<B: ServiceBackend>(svc: &ShardedFilter<B>) -> u64 {
    svc.backends()[0].read().expect("backend lock poisoned").table_bytes() as u64
}

pub fn run(args: &Args) -> Result<Report, String> {
    let tracer = Arc::new(Tracer::new(false));
    if args.trace {
        let t = Arc::clone(&tracer);
        let make = move |_| Ok(Timed::new(BulkTcf::from_spec(&shard_spec())?, Arc::clone(&t), TCF));
        run_with(args, &make, &tracer)
    } else {
        run_with(args, &|_| BulkTcf::from_spec(&shard_spec()), &tracer)
    }
}

fn run_with<B>(
    args: &Args,
    make: &dyn Fn(usize) -> Result<B, FilterError>,
    tracer: &Tracer,
) -> Result<Report, String>
where
    B: ServiceBackend + BulkDeletable + 'static,
{
    let keys = Keys::new(args.seed);
    let zipf = Zipf::new(STABLE as usize, ZIPF_S);
    let (svc, setup) = crate::setup_repeated(|| build(make, &keys, CHURN_PER_CLIENT))?;
    let (h, control) = (svc.handle(), svc.control());
    let load = Load { seed: args.seed, h: &h, control: &control, zipf: &zipf, keys: &keys, tracer };
    let mut backlogs: Vec<Backlog> = (0..CLIENTS)
        .map(|c| Backlog {
            lo: churn_base(c),
            hi: churn_base(c) + CHURN_PER_CLIENT,
            unknown: HashSet::new(),
        })
        .collect();
    let mut report = Report::new();
    setup.report(&mut report, !args.trace);
    report.line(format!(
        "queries: Zipf({ZIPF_S}) over {STABLE} stable keys, head mass {:.4}",
        zipf.head_mass()
    ));
    let phase = if !args.trace {
        drive(&load, &mut backlogs, args.seconds)
    } else {
        let before = Window::open(&control);
        tracer.set_enabled(true);
        let traced = drive(&load, &mut backlogs, args.seconds / 2.0);
        tracer.set_enabled(false);
        let spans = tracer.spans();
        let (backend, calls): (Vec<Span>, Vec<Span>) =
            spans.iter().partition(|s| s.name.starts_with("tcf."));
        let bytes = shard_bytes(&svc);
        backend_layers(
            &mut report,
            &before,
            &control,
            &backend,
            traced.wall,
            traced.queue_max,
            bytes,
        );
        let self_ns: u64 = self_times(
            &calls.iter().map(|c| (c.start_ns, c.end_ns)).collect::<Vec<_>>(),
            &backend.iter().map(|b| (b.start_ns, b.end_ns)).collect::<Vec<_>>(),
        )
        .iter()
        .sum();
        report.metric(
            "filter-service.self_us_mean",
            self_ns as f64 / calls.len().max(1) as f64 / 1e3,
            "us",
            format!("call time not covered by backend spans, {} calls", calls.len()),
        );
        report.metric(
            "tcf.failed_per_mkey",
            traced.failed as f64 * 1e6 / traced.attempted as f64,
            "count",
            format!("{} of {} key operations", traced.failed, traced.attempted),
        );
        let untraced = drive(&load, &mut backlogs, args.seconds / 2.0);
        report.metric(
            "trace.overhead_frac",
            untraced.mkeys_s() / traced.mkeys_s() - 1.0,
            "ratio",
            format!(
                "throughput untraced {:.4} vs traced {:.4} Mkeys/s",
                untraced.mkeys_s(),
                traced.mkeys_s()
            ),
        );
        let path = crate::trace_path(args);
        let n = tracer.write_jsonl(&path).map_err(|e| format!("writing spans: {e}"))?;
        report.line(format!("spans: {n} written to {}", path.display()));
        traced
    };
    report.attempted = phase.attempted;
    report.failed = phase.failed;
    report.line(format!(
        "service: {} calls, {} key operations in {:.3} s, {} failed, {:.3} us process CPU per key",
        phase.lat_ms.len(),
        phase.attempted,
        phase.wall.as_secs_f64(),
        phase.failed,
        phase.cpu * 1e6 / phase.attempted as f64
    ));
    if !args.trace {
        let (mkeys_s, n) = phase.windowed_mkeys_s();
        report.metric(
            "throughput_mkeys_s",
            mkeys_s,
            "Mkeys/s",
            format!("keys completed by clients, median of {n} windows"),
        );
        latency_metrics(&mut report, &phase.lat_ms, phase.seconds, "per blocking call")?;
    }
    Ok(report)
}

/// `p50_ms` and `p99_ms`, each the median across windows of the
/// window's percentile, with their sample counts.
fn latency_metrics(
    r: &mut Report,
    lat_ms: &[(f64, f64)],
    seconds: f64,
    what: &str,
) -> Result<(), String> {
    for (name, q) in [("p50_ms", 0.5), ("p99_ms", 0.99)] {
        let w = windowed_percentile(lat_ms, seconds, q)?;
        r.metric(
            name,
            w.value,
            "ms",
            format!(
                "{what}; median of {} windows, n={}, >= {} beyond in each",
                w.windows, w.samples, w.min_beyond
            ),
        );
    }
    Ok(())
}
