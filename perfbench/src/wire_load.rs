//! Workload `wire`: remote clients over loopback. `filter_net::serve`
//! with its default configuration fronts the sharded TCF service; one
//! load thread drives 2 connections with an open-loop Poisson schedule of
//! a fixed 1,500 requests/s of 16 keys: 25% inserts of fresh keys, 75%
//! uniform queries of preloaded keys. Latency is timed from each
//! request's scheduled send.

use crate::gen::{poisson_schedule, Keys, Rng, Stream};
use crate::report::Report;
use crate::service::{self, backend_layers, churn_base, shard_bytes, shard_spec, Window};
use crate::stats::{percentile, sorted, windowed_percentile};
use crate::timed::{Timed, TCF};
use crate::trace::Tracer;
use crate::wire::{Client, Op, Status};
use crate::Args;
use filter_core::{BulkDeletable, FilterError, ServiceBackend};
use filter_net::{serve, NetStats, RunningServer, ServerConfig};
use filter_service::{ServiceControl, ShardedFilter};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tcf::BulkTcf;

/// Offered load: requests per second over all connections.
const RATE: f64 = 1500.0;
const CONNECTIONS: usize = 2;
const KEYS_PER_REQUEST: usize = 16;
/// Preloaded churn keys per backlog, as in `service` (60% load).
const PRELOAD_CHURN: u64 = 52_428;
/// How long to wait for answers after the last scheduled send.
const DRAIN: Duration = Duration::from_secs(5);
/// Never-inserted keys queried on every shard after the run for
/// `fp_rate`: ~2,500 false positives per shard at their ~0.25% rate.
const FP_PROBE: u64 = 1 << 20;
/// Keys per probe call, small so the probe adds nothing to peak RSS.
const PROBE_CHUNK: usize = 1 << 14;

/// A served fleet: the service, its wire front end and the clients.
struct Served<B: ServiceBackend + 'static> {
    svc: ShardedFilter<B>,
    server: Option<RunningServer>,
    clients: Vec<Client>,
}

impl<B: ServiceBackend + 'static> Drop for Served<B> {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            let _ = server.shutdown();
        }
    }
}

/// One load lane's state that persists across phases: its next fresh
/// insert key.
struct Lane {
    next_insert: u64,
}

/// One lane's results over one phase. Latency samples are `(scheduled
/// send in seconds since the phase started, latency)`.
#[derive(Debug, Default)]
struct LaneOut {
    lat_ms: Vec<(f64, f64)>,
    lag_us: Vec<f64>,
    requests: u64,
    keys: u64,
    /// Keys inserted and answered as inserted.
    inserted: u64,
    failed_keys: u64,
    queue_max: u64,
}

/// One connection's open-loop schedule over one phase, generated before
/// the phase starts, and what came back.
struct LaneRun {
    schedule: Vec<f64>,
    ops: Vec<Op>,
    batches: Vec<Vec<u64>>,
    next: usize,
    answered: Vec<bool>,
    out: LaneOut,
}

impl LaneRun {
    fn new(lane: &mut Lane, seed: u64, rng_lane: u64, keys: &Keys, seconds: f64) -> Self {
        let mut rng = Rng::new(seed, rng_lane);
        let schedule = poisson_schedule(&mut rng, RATE / CONNECTIONS as f64, seconds);
        let mut ops = Vec::with_capacity(schedule.len());
        let mut batches = Vec::with_capacity(schedule.len());
        for _ in &schedule {
            let op = if rng.below(4) == 0 { Op::Insert } else { Op::Query };
            let batch: Vec<u64> = match op {
                Op::Insert => {
                    let b = keys.range(Stream::Churn, lane.next_insert, KEYS_PER_REQUEST);
                    lane.next_insert += KEYS_PER_REQUEST as u64;
                    b
                }
                _ => (0..KEYS_PER_REQUEST)
                    .map(|_| keys.key(Stream::Stable, rng.below(service::STABLE)))
                    .collect(),
            };
            ops.push(op);
            batches.push(batch);
        }
        let n = schedule.len();
        let out = LaneOut {
            requests: n as u64,
            lat_ms: Vec::with_capacity(n),
            lag_us: Vec::with_capacity(n),
            ..Default::default()
        };
        LaneRun { schedule, ops, batches, next: 0, answered: vec![false; n], out }
    }

    fn due(&self, start: Instant, i: usize) -> Instant {
        start + Duration::from_secs_f64(self.schedule[i])
    }

    /// Take in every response that has arrived, then send every request
    /// that is due.
    fn pump(
        &mut self,
        client: &mut Client,
        start: Instant,
        control: &ServiceControl,
    ) -> Result<(), String> {
        let io = |e: std::io::Error| format!("connection: {e}");
        let resps = client.try_recv().map_err(io)?;
        let now = Instant::now();
        for r in resps {
            let i = r.id as usize;
            if i >= self.next || self.answered[i] {
                return Err(format!("unexpected response id {}", r.id));
            }
            self.answered[i] = true;
            let lat = now.duration_since(self.due(start, i)).as_secs_f64() * 1e3;
            self.out.lat_ms.push((self.schedule[i], lat));
            self.out.failed_keys += match r.status {
                Status::Ok if r.outcomes.len() == KEYS_PER_REQUEST => {
                    let yes = r.outcomes.iter().filter(|&&yes| yes).count();
                    if self.ops[i] == Op::Insert {
                        self.out.inserted += yes as u64;
                    }
                    (KEYS_PER_REQUEST - yes) as u64
                }
                Status::Ok => return Err(format!("response {} has the wrong key count", r.id)),
                Status::Shed | Status::Error => KEYS_PER_REQUEST as u64,
            };
        }
        while self.next < self.schedule.len() && Instant::now() >= self.due(start, self.next) {
            let i = self.next;
            self.out.queue_max = self.out.queue_max.max(control.queue_depth());
            client.send(self.ops[i], i as u64, &self.batches[i]).map_err(io)?;
            let lag = Instant::now().duration_since(self.due(start, i));
            self.out.lag_us.push(lag.as_secs_f64() * 1e6);
            self.out.keys += KEYS_PER_REQUEST as u64;
            self.next += 1;
        }
        Ok(())
    }

    fn sent_all(&self) -> bool {
        self.next == self.schedule.len()
    }

    /// Every settled response adds one latency sample.
    fn answered_all(&self) -> bool {
        self.out.lat_ms.len() == self.schedule.len()
    }

    /// Close the phase: unanswered requests fail with every key they
    /// carried.
    fn finish(mut self) -> LaneOut {
        let unanswered = self.schedule.len() - self.out.lat_ms.len();
        self.out.failed_keys += (unanswered * KEYS_PER_REQUEST) as u64;
        self.out
    }
}

/// Totals of one measured phase over every lane.
#[derive(Debug, Default)]
struct Phase {
    /// Process CPU seconds, less the load thread's own.
    cpu: f64,
    seconds: f64,
    lat_ms: Vec<(f64, f64)>,
    lag_us: Vec<f64>,
    requests: u64,
    keys: u64,
    inserted: u64,
    failed_keys: u64,
    queue_max: u64,
    wall: Duration,
}

impl Phase {
    fn cpu_us_per_key(&self) -> f64 {
        self.cpu * 1e6 / self.keys as f64
    }
}

/// Drive every connection from one load thread. The thread never sleeps:
/// it yields between passes, so its virtual CPU stays busy and a due send
/// or an arriving response is seen at once rather than after a timer
/// wake-up that a shared host may delay by milliseconds.
fn drive(
    clients: &mut [Client],
    lanes: &mut [Lane],
    phase_tag: u64,
    args: &Args,
    keys: &Keys,
    control: &ServiceControl,
    seconds: f64,
) -> Result<Phase, String> {
    let mut runs: Vec<LaneRun> = lanes
        .iter_mut()
        .enumerate()
        .map(|(i, lane)| {
            LaneRun::new(lane, args.seed, 200 + 10 * phase_tag + i as u64, keys, seconds)
        })
        .collect();
    let start = Instant::now();
    let (cpu0, load_cpu0) = (crate::host::process_cpu_s(), crate::host::thread_cpu_ns());
    let mut drain_until = None;
    loop {
        for (run, client) in runs.iter_mut().zip(clients.iter_mut()) {
            run.pump(client, start, control)?;
        }
        if runs.iter().all(LaneRun::sent_all) {
            let until = *drain_until.get_or_insert_with(|| Instant::now() + DRAIN);
            if runs.iter().all(LaneRun::answered_all) || Instant::now() >= until {
                break;
            }
        }
        std::thread::yield_now();
    }
    let load_cpu = (crate::host::thread_cpu_ns() - load_cpu0) as f64 / 1e9;
    let mut phase = Phase {
        seconds,
        wall: start.elapsed(),
        cpu: crate::host::process_cpu_s() - cpu0 - load_cpu,
        ..Default::default()
    };
    for o in runs.into_iter().map(LaneRun::finish) {
        phase.lat_ms.extend(o.lat_ms);
        phase.lag_us.extend(o.lag_us);
        phase.requests += o.requests;
        phase.keys += o.keys;
        phase.inserted += o.inserted;
        phase.failed_keys += o.failed_keys;
        phase.queue_max = phase.queue_max.max(o.queue_max);
    }
    Ok(phase)
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

fn setup<B>(
    make: &dyn Fn(usize) -> Result<B, FilterError>,
    keys: &Keys,
) -> Result<Served<B>, String>
where
    B: ServiceBackend + BulkDeletable + 'static,
{
    let svc = service::build(make, keys, PRELOAD_CHURN)?;
    let server = serve("127.0.0.1:0", svc.handle(), svc.control(), ServerConfig::default())
        .map_err(|e| format!("serve: {e}"))?;
    let mut served = Served { svc, server: None, clients: Vec::new() };
    let addr = server.local_addr();
    served.server = Some(server);
    for _ in 0..CONNECTIONS {
        served.clients.push(Client::connect(addr).map_err(|e| format!("connect: {e}"))?);
    }
    Ok(served)
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
    let (mut served, setup) = crate::setup_repeated(|| setup(make, &keys))?;
    let control = served.svc.control();
    let net = |s: &Served<B>| s.server.as_ref().expect("server runs until drop").stats();
    let mut lanes: Vec<Lane> =
        (0..CONNECTIONS).map(|i| Lane { next_insert: churn_base(2 + i) }).collect();
    let mut report = Report::new();
    setup.report(&mut report, !args.trace);
    let phase = if !args.trace {
        drive(&mut served.clients, &mut lanes, 0, args, &keys, &control, args.seconds)?
    } else {
        let before = Window::open(&control);
        let net_before = net(&served);
        tracer.set_enabled(true);
        let traced =
            drive(&mut served.clients, &mut lanes, 1, args, &keys, &control, args.seconds / 2.0)?;
        tracer.set_enabled(false);
        let spans = tracer.spans();
        let bytes = shard_bytes(&served.svc);
        let call_us = backend_layers(
            &mut report,
            &before,
            &control,
            &spans,
            traced.wall,
            traced.queue_max,
            bytes,
        );
        net_layers(&mut report, &before, &control, &net_before, &net(&served), &traced, call_us);
        report.metric(
            "tcf.failed_per_mkey",
            traced.failed_keys as f64 * 1e6 / traced.keys as f64,
            "count",
            format!("{} of {} keys", traced.failed_keys, traced.keys),
        );
        let lag = percentile(&sorted(traced.lag_us.clone()), 0.99)?;
        report.metric(
            "loadgen.send_lag_us_p99",
            lag.value,
            "us",
            format!("send time past schedule, n={}, {} beyond", lag.samples, lag.beyond),
        );
        let untraced =
            drive(&mut served.clients, &mut lanes, 2, args, &keys, &control, args.seconds / 2.0)?;
        let (t, u) = (traced.cpu_us_per_key(), untraced.cpu_us_per_key());
        report.metric(
            "trace.overhead_frac",
            t / u - 1.0,
            "ratio",
            format!("server CPU per key traced {t:.3} vs untraced {u:.3} us"),
        );
        let path = crate::trace_path(args);
        let n = tracer.write_jsonl(&path).map_err(|e| format!("writing spans: {e}"))?;
        report.line(format!("spans: {n} written to {}", path.display()));
        traced
    };
    let lag = percentile(&sorted(phase.lag_us.clone()), 0.99)?;
    report.line(format!(
        "wire: {} requests ({} keys) in {:.3} s, {} keys failed; send lag p99 {:.1} us",
        phase.requests,
        phase.keys,
        phase.wall.as_secs_f64(),
        phase.failed_keys,
        lag.value
    ));
    // Latency is printed, not bounded: on a shared 2-vCPU host it swings
    // with the hypervisor's steal from run to run (see README.md).
    for (name, q) in [("p50", 0.5), ("p99", 0.99)] {
        report.line(match windowed_percentile(&phase.lat_ms, phase.seconds, q) {
            Ok(w) => format!(
                "latency {name} {:.4} ms from scheduled send: median of {} windows, n={}, >= {} beyond in each",
                w.value, w.windows, w.samples, w.min_beyond
            ),
            Err(e) => format!("latency {name}: {e}"),
        });
    }
    report.attempted = phase.keys;
    report.failed = phase.failed_keys;
    if !args.trace {
        report.metric(
            "cpu_us_per_key",
            phase.cpu_us_per_key(),
            "us",
            format!("process CPU less the load thread's, over {} keys", phase.keys),
        );
        let (fps, probed) = fp_probe(&served.svc, &keys);
        report.metric(
            "fp_rate",
            fps as f64 / probed as f64,
            "ratio",
            format!("{fps} of {probed} never-inserted keys, probed on every shard after the run"),
        );
        let live = service::preloaded(PRELOAD_CHURN) + phase.inserted;
        let bytes: usize = served
            .svc
            .backends()
            .iter()
            .map(|b| b.read().expect("backend lock poisoned").table_bytes())
            .sum();
        report.metric(
            "bits_per_key",
            bytes as f64 * 8.0 / live as f64,
            "bits",
            format!("{bytes} table bytes over the shards, {live} live keys"),
        );
    }
    Ok(report)
}

/// Query [`FP_PROBE`] never-inserted keys on every shard directly:
/// `(answered present, probed)`.
fn fp_probe<B: ServiceBackend>(svc: &ShardedFilter<B>, keys: &Keys) -> (u64, u64) {
    let mut out = vec![false; PROBE_CHUNK];
    let mut hits = 0;
    for start in (0..FP_PROBE).step_by(PROBE_CHUNK) {
        let probe = keys.range(Stream::Absent, start, PROBE_CHUNK);
        for b in svc.backends() {
            b.read().expect("backend lock poisoned").bulk_query(&probe, &mut out);
            hits += out.iter().filter(|&&hit| hit).count() as u64;
        }
    }
    (hits, FP_PROBE * svc.backends().len() as u64)
}

/// Per-layer metrics of the filter-net tier, and the filter-service's
/// own share of an operation's time: the service's mean operation
/// latency (diffed from `ServiceStats` count x mean) less the mean
/// backend call that operation waited for.
fn net_layers(
    r: &mut Report,
    before: &Window,
    control: &ServiceControl,
    a: &NetStats,
    b: &NetStats,
    traced: &Phase,
    backend_call_us: f64,
) {
    let after = control.stats();
    let (lb, la) = (&before.stats.latency, &after.latency);
    let svc_ns =
        la.mean.as_nanos() as f64 * la.count as f64 - lb.mean.as_nanos() as f64 * lb.count as f64;
    let svc_mean_us = svc_ns / (la.count - lb.count).max(1) as f64 / 1e3;
    r.metric(
        "filter-service.self_us_mean",
        svc_mean_us - backend_call_us,
        "us",
        format!(
            "service op mean {svc_mean_us:.1} us minus backend call mean {backend_call_us:.1} us"
        ),
    );
    let req_mean_us =
        traced.lat_ms.iter().map(|s| s.1).sum::<f64>() * 1e3 / traced.lat_ms.len().max(1) as f64;
    r.metric(
        "filter-net.self_us_mean",
        req_mean_us - svc_mean_us,
        "us",
        format!("request mean {req_mean_us:.1} us minus service mean {svc_mean_us:.1} us"),
    );
    let bytes = (b.bytes_in + b.bytes_out) - (a.bytes_in + a.bytes_out);
    r.metric(
        "filter-net.bytes_per_key",
        bytes as f64 / traced.keys as f64,
        "bytes",
        format!("{bytes} framed bytes both ways"),
    );
    let (hits, misses) = (b.pool_hits - a.pool_hits, b.pool_misses - a.pool_misses);
    r.metric(
        "filter-net.pool_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        format!("{hits} pooled of {} response buffers", hits + misses),
    );
    let shed = b.resp_shed - a.resp_shed;
    let requests = b.requests() - a.requests();
    r.metric(
        "filter-net.shed_frac",
        shed as f64 / requests.max(1) as f64,
        "ratio",
        format!("{shed} of {requests} requests"),
    );
}
