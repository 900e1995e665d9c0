//! Workload `bulk`: the paper's library user. One thread drives a TCF
//! and a GQF through the bulk API, each preloaded to 75% load during
//! set-up and then churned in alternating rounds that keep the load level;
//! both are rebuilt, untimed, every [`EPOCH_ROUNDS`] rounds.

use crate::gen::{Keys, Rng, Stream};
use crate::host;
use crate::report::Report;
use crate::stats::median;
use crate::timed::{CallNames, GQF, TCF};
use crate::trace::{Span, Tracer};
use crate::Args;
use filter_core::{
    BulkDeletable, DeleteOutcome, FilterMeta, FilterSpec, InsertOutcome, Parallelism,
};
use gpu_sim::cost::estimate;
use gpu_sim::metrics::{self, Counter};
use gpu_sim::{DeviceProfile, KernelStats};
use gqf::BulkGqf;
use std::collections::HashSet;
use std::time::{Duration, Instant};
use tcf::BulkTcf;

/// Table slots per filter: 2^22, larger than a 2 MiB L2.
pub const SLOTS: u64 = 1 << 22;
/// Keys per bulk call.
pub const BATCH: usize = 1 << 18;
/// Preload: 12 batches = 75% of the slots.
pub const PRELOAD_BATCHES: u64 = 12;
/// Churn rounds one pair of filters serves before both are built and
/// preloaded again, untimed. From about the 11th round, once ~2.9 M keys
/// have churned through its 3.1 M live keys, the TCF starts answering
/// live keys absent and missing deletes (see README.md); eight rounds keep
/// every run below that, so a faster program does not fail more
/// operations by reaching further.
const EPOCH_ROUNDS: u64 = 8;
/// Rounds at the start of the traced phase over which gpu-sim counters
/// are read. A fixed amount of work from a seed-determined state, so the
/// counts repeat exactly between runs with the same seed.
const COUNTER_ROUNDS: u64 = 1;

/// Both filters' spec: sized so the table has exactly [`SLOTS`] slots at
/// the recommended 90% load, one host worker. A 1% target gives the
/// paper's geometries (16-bit TCF fingerprints, 8-bit GQF remainders)
/// and false positives frequent enough to count steadily.
fn spec() -> FilterSpec {
    FilterSpec::items(SLOTS * 9 / 10).fp_rate(0.01).parallelism(Parallelism::Sequential)
}

/// Per-operation totals of one filter.
#[derive(Debug, Default, Clone, Copy)]
struct OpTotals {
    keys: u64,
    ns: u64,
}

/// Totals of one filter over a measured phase.
#[derive(Debug, Default, Clone)]
struct Tally {
    insert: OpTotals,
    query: OpTotals,
    delete: OpTotals,
    calls: u64,
    /// Inserts refused + deletes of inserted keys that found nothing +
    /// live keys answered absent.
    failed: u64,
    absent_queries: u64,
    false_positives: u64,
    /// `(keys, CPU ns inside the calls)` of each round.
    rounds: Vec<(u64, u64)>,
}

impl Tally {
    fn keys(&self) -> u64 {
        self.insert.keys + self.query.keys + self.delete.keys
    }
    fn ns(&self) -> u64 {
        self.insert.ns + self.query.ns + self.delete.ns
    }
    fn mkeys_s(&self) -> f64 {
        self.keys() as f64 / self.ns() as f64 * 1e3
    }
    /// Keys per second inside the calls, one value per round.
    fn round_mkeys_s(&self) -> Vec<f64> {
        self.rounds.iter().map(|&(keys, ns)| keys as f64 / ns as f64 * 1e3).collect()
    }
}

/// CPU microseconds per key inside both filters' calls, one value per
/// pair of rounds (a TCF round and the GQF round after it).
fn pair_us_per_key(tcf: &Tally, gqf: &Tally) -> Vec<f64> {
    tcf.rounds
        .iter()
        .zip(&gqf.rounds)
        .map(|(t, g)| (t.1 + g.1) as f64 / (t.0 + g.0) as f64 / 1e3)
        .collect()
}

/// One filter under churn: the live keys are the churn-stream indices
/// `lo..hi`, minus the few whose insert was refused.
struct Churn<F> {
    names: CallNames,
    round_name: &'static str,
    filter: F,
    keys: Keys,
    rng: Rng,
    lo: u64,
    hi: u64,
    absent_next: u64,
    refused: HashSet<u64>,
    /// Churn rounds run since set-up.
    rounds: u64,
}

/// The TCF and the GQF the workload churns.
type Pair = (Churn<BulkTcf>, Churn<BulkGqf>);

/// Build and preload both filters (the timed set-up) for `epoch`, each
/// epoch with keys of its own.
fn build_pair(seed: u64, epoch: u64) -> Result<Pair, String> {
    let tcf = BulkTcf::from_spec(&spec()).map_err(|e| format!("TCF: {e}"))?;
    let gqf = BulkGqf::from_spec(&spec()).map_err(|e| format!("GQF: {e}"))?;
    Ok((
        Churn::setup(TCF, "bulk.tcf_round", tcf, seed, 1 + 2 * epoch),
        Churn::setup(GQF, "bulk.gqf_round", gqf, seed, 2 + 2 * epoch),
    ))
}

impl<F: BulkDeletable> Churn<F> {
    /// Build and preload (the timed set-up).
    fn setup(names: CallNames, round_name: &'static str, filter: F, seed: u64, lane: u64) -> Self {
        let mut c = Churn {
            names,
            round_name,
            filter,
            keys: Keys::new(seed ^ lane),
            rng: Rng::new(seed, lane),
            lo: 0,
            hi: 0,
            absent_next: 0,
            refused: HashSet::new(),
            rounds: 0,
        };
        for _ in 0..PRELOAD_BATCHES {
            let mut t = Tally::default();
            c.insert(&Tracer::new(false), 0, &mut t);
        }
        c
    }

    fn timed<T>(
        &self,
        tracer: &Tracer,
        name: &'static str,
        parent: u64,
        keys: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let (t0, cpu0) = (tracer.now_ns(), host::thread_cpu_ns());
        let out = f();
        let (t1, cpu1) = (tracer.now_ns(), host::thread_cpu_ns());
        if tracer.enabled() {
            tracer.record(Span {
                id: tracer.next_id(),
                parent,
                name,
                start_ns: t0,
                end_ns: t1,
                keys,
            });
        }
        (out, cpu1 - cpu0)
    }

    fn insert(&mut self, tracer: &Tracer, parent: u64, t: &mut Tally) {
        let batch = self.keys.range(Stream::Churn, self.hi, BATCH);
        let mut out = vec![InsertOutcome::Inserted; BATCH];
        let (res, ns) = self.timed(tracer, self.names.insert, parent, BATCH as u64, || {
            self.filter.bulk_insert_report(&batch, &mut out)
        });
        res.expect("bulk insert refused the whole batch");
        for (i, o) in out.iter().enumerate() {
            if *o != InsertOutcome::Inserted {
                self.refused.insert(self.hi + i as u64);
                t.failed += 1;
            }
        }
        self.hi += BATCH as u64;
        t.insert.keys += BATCH as u64;
        t.insert.ns += ns;
        t.calls += 1;
    }

    fn query(&mut self, tracer: &Tracer, parent: u64, t: &mut Tally) {
        // One call: BATCH live keys drawn uniformly from the live window,
        // then BATCH keys never inserted.
        let half = BATCH;
        let mut batch = Vec::with_capacity(2 * BATCH);
        while batch.len() < half {
            let i = self.lo + self.rng.below(self.hi - self.lo);
            if !self.refused.contains(&i) {
                batch.push(self.keys.key(Stream::Churn, i));
            }
        }
        batch.extend(self.keys.range(Stream::Absent, self.absent_next, BATCH));
        self.absent_next += BATCH as u64;
        let mut out = vec![false; batch.len()];
        let ((), ns) = self.timed(tracer, self.names.query, parent, batch.len() as u64, || {
            self.filter.bulk_query(&batch, &mut out)
        });
        t.failed += out[..half].iter().filter(|&&hit| !hit).count() as u64;
        t.false_positives += out[half..].iter().filter(|&&hit| hit).count() as u64;
        t.absent_queries += BATCH as u64;
        t.query.keys += batch.len() as u64;
        t.query.ns += ns;
        t.calls += 1;
    }

    fn delete(&mut self, tracer: &Tracer, parent: u64, t: &mut Tally) {
        let batch: Vec<u64> = (self.lo..self.lo + BATCH as u64)
            .filter(|i| !self.refused.remove(i))
            .map(|i| self.keys.key(Stream::Churn, i))
            .collect();
        let mut out = vec![DeleteOutcome::NotFound; batch.len()];
        let (res, ns) = self.timed(tracer, self.names.delete, parent, batch.len() as u64, || {
            self.filter.bulk_delete_report(&batch, &mut out)
        });
        res.expect("bulk delete refused the whole batch");
        t.failed += out.iter().filter(|o| **o != DeleteOutcome::Removed).count() as u64;
        self.lo += BATCH as u64;
        t.delete.keys += batch.len() as u64;
        t.delete.ns += ns;
        t.calls += 1;
    }

    /// One churn round: insert fresh keys, query live and absent keys,
    /// delete the oldest keys.
    fn round(&mut self, tracer: &Tracer, t: &mut Tally) {
        let id = tracer.next_id();
        let t0 = tracer.now_ns();
        let (keys, ns) = (t.keys(), t.ns());
        self.insert(tracer, id, t);
        self.query(tracer, id, t);
        self.delete(tracer, id, t);
        t.rounds.push((t.keys() - keys, t.ns() - ns));
        self.rounds += 1;
        let name = self.round_name;
        tracer.record(Span { id, parent: 0, name, start_ns: t0, end_ns: tracer.now_ns(), keys: 0 });
    }

    fn live(&self) -> u64 {
        self.hi - self.lo - self.refused.len() as u64
    }
}

/// Alternate TCF and GQF rounds, in whole pairs, while the next pair is
/// expected to end within `budget` of round time (at least one pair), so
/// both filters sample the host across the whole run. A pair that has run
/// [`EPOCH_ROUNDS`] rounds is replaced by a fresh one, untimed. Given two
/// tallies per filter, pairs switch the tracer on and off in turn and
/// count into `[0]` (traced) and `[1]` (untraced). Returns the last pair
/// and the number of pairs built.
fn run_pairs(
    mut pair: Pair,
    seed: u64,
    tracer: &Tracer,
    budget: Duration,
    t_tcf: &mut [Tally],
    t_gqf: &mut [Tally],
) -> Result<(Pair, u64), String> {
    let (mut spent, mut done, mut epoch) = (Duration::ZERO, 0u32, 0);
    loop {
        if pair.0.rounds == EPOCH_ROUNDS {
            drop(pair);
            epoch += 1;
            pair = build_pair(seed, epoch)?;
        }
        let k = done as usize % t_tcf.len();
        if t_tcf.len() > 1 {
            tracer.set_enabled(k == 0);
        }
        let start = Instant::now();
        pair.0.round(tracer, &mut t_tcf[k]);
        pair.1.round(tracer, &mut t_gqf[k]);
        spent += start.elapsed();
        done += 1;
        if spent + spent / done > budget {
            return Ok((pair, epoch + 1));
        }
    }
}

/// gpu-sim accounting over a fixed number of rounds.
struct SimWindow {
    lines: u64,
    launches: u64,
    calls: u64,
    keys: u64,
    modeled_mkeys_s: f64,
}

fn sim_window<F: BulkDeletable>(c: &mut Churn<F>, tracer: &Tracer) -> (SimWindow, Tally) {
    let mut t = Tally::default();
    let before = metrics::snapshot();
    let start = Instant::now();
    for _ in 0..COUNTER_ROUNDS {
        c.round(tracer, &mut t);
    }
    let wall = start.elapsed();
    let counters = metrics::snapshot().since(&before);
    let profile = DeviceProfile::cori_v100();
    let stats = KernelStats {
        counters,
        wall,
        items: t.keys(),
        cg_size: 1,
        active_threads: (BATCH as u64).min(profile.max_threads),
    };
    let modeled = estimate(&stats, &profile, c.filter.table_bytes() as u64);
    let w = SimWindow {
        lines: counters.get(Counter::LinesLoaded) + counters.get(Counter::LinesStored),
        launches: counters.get(Counter::KernelLaunches),
        calls: t.calls,
        keys: t.keys(),
        modeled_mkeys_s: modeled.throughput / 1e6,
    };
    (w, t)
}

fn merge(a: &mut Tally, b: &Tally) {
    for (x, y) in [(&mut a.insert, b.insert), (&mut a.query, b.query), (&mut a.delete, b.delete)] {
        x.keys += y.keys;
        x.ns += y.ns;
    }
    a.calls += b.calls;
    a.failed += b.failed;
    a.absent_queries += b.absent_queries;
    a.false_positives += b.false_positives;
    a.rounds.extend(&b.rounds);
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::new();
    let (mut pair, setup) = crate::setup_repeated(|| build_pair(args.seed, 0))?;
    setup.report(&mut report, !args.trace);
    for (name, slots) in
        [("tcf", pair.0.filter.capacity_slots()), ("gqf", pair.1.filter.capacity_slots())]
    {
        if slots != SLOTS {
            return Err(format!("{name} has {slots} slots, expected {SLOTS}"));
        }
    }

    let total = Duration::from_secs_f64(args.seconds);
    let tracer = Tracer::new(args.trace);
    let (mut t_tcf, mut t_gqf) = (Tally::default(), Tally::default());
    let pairs_built = if !args.trace {
        let (last, built) = run_pairs(
            pair,
            args.seed,
            &tracer,
            total,
            std::slice::from_mut(&mut t_tcf),
            std::slice::from_mut(&mut t_gqf),
        )?;
        pair = last;
        built
    } else {
        // The counter windows start from the seed-determined post-set-up
        // state; traced and untraced pairs of rounds then alternate.
        let (w_tcf, first) = sim_window(&mut pair.0, &tracer);
        let mut tcf_split = [first, Tally::default()];
        let (w_gqf, first) = sim_window(&mut pair.1, &tracer);
        let mut gqf_split = [first, Tally::default()];
        let (last, built) =
            run_pairs(pair, args.seed, &tracer, total, &mut tcf_split, &mut gqf_split)?;
        pair = last;
        tracer.set_enabled(false);
        traced_metrics(&mut report, &tcf_split[0], &gqf_split[0], &w_tcf, &w_gqf);
        let slowdown =
            |t: &[Tally; 2]| median(&t[1].round_mkeys_s()) / median(&t[0].round_mkeys_s()) - 1.0;
        report.metric(
            "trace.overhead_frac",
            (slowdown(&tcf_split) + slowdown(&gqf_split)) / 2.0,
            "ratio",
            "untraced over traced round throughput, mean of both filters",
        );
        let path = crate::trace_path(args);
        let n = tracer.write_jsonl(&path).map_err(|e| format!("writing spans: {e}"))?;
        report.line(format!("spans: {n} written to {}", path.display()));
        for (total, split) in [(&mut t_tcf, &tcf_split), (&mut t_gqf, &gqf_split)] {
            merge(total, &split[0]);
            merge(total, &split[1]);
        }
        built
    };
    let (tcf, gqf) = pair;
    report.line(format!(
        "filter pairs: {pairs_built}, each churned for at most {EPOCH_ROUNDS} rounds and rebuilt untimed"
    ));

    for (label, t, c_live) in [("tcf", &t_tcf, tcf.live()), ("gqf", &t_gqf, gqf.live())] {
        let rounds = t.round_mkeys_s();
        report.line(format!(
            "{label}: median {:.4} Mkeys/s of CPU time inside its calls over {} rounds ({:.4?}), \
             {} keys in {:.3} s of calls, {} failed, {} live keys, {} of {} absent keys present",
            median(&rounds),
            rounds.len(),
            rounds,
            t.keys(),
            t.ns() as f64 / 1e9,
            t.failed,
            c_live,
            t.false_positives,
            t.absent_queries
        ));
    }
    report.attempted = t_tcf.keys() + t_gqf.keys();
    report.failed = t_tcf.failed + t_gqf.failed;
    if !args.trace {
        let pairs = pair_us_per_key(&t_tcf, &t_gqf);
        report.metric(
            "cpu_us_per_key",
            median(&pairs),
            "us",
            format!("CPU inside both filters' calls, median of {} round pairs", pairs.len()),
        );
        let absent = t_tcf.absent_queries + t_gqf.absent_queries;
        let fps = t_tcf.false_positives + t_gqf.false_positives;
        report.metric("fp_rate", fps as f64 / absent as f64, "ratio", format!("{fps} of {absent}"));
        let bytes = tcf.filter.table_bytes() + gqf.filter.table_bytes();
        let live = tcf.live() + gqf.live();
        report.metric(
            "bits_per_key",
            bytes as f64 * 8.0 / live as f64,
            "bits",
            format!("{bytes} table bytes, {live} live keys"),
        );
    }
    Ok(report)
}

fn traced_metrics(r: &mut Report, tcf: &Tally, gqf: &Tally, w_tcf: &SimWindow, w_gqf: &SimWindow) {
    for (layer, t) in [("tcf", tcf), ("gqf", gqf)] {
        r.metric(
            &format!("{layer}.mkeys_s"),
            t.mkeys_s(),
            "Mkeys/s",
            format!("{} keys in {:.3} s of CPU inside the calls", t.keys(), t.ns() as f64 / 1e9),
        );
        for (op, o) in [("insert", t.insert), ("query", t.query), ("delete", t.delete)] {
            r.metric(
                &format!("{layer}.{op}_ns_per_key"),
                o.ns as f64 / o.keys as f64,
                "ns",
                format!("{} keys", o.keys),
            );
        }
    }
    r.metric(
        "tcf.call_us_mean",
        tcf.ns() as f64 / tcf.calls as f64 / 1e3,
        "us",
        format!("CPU time, {} calls", tcf.calls),
    );
    r.metric("tcf.keys_per_call", tcf.keys() as f64 / tcf.calls as f64, "keys", "");
    r.metric(
        "tcf.failed_per_mkey",
        tcf.failed as f64 * 1e6 / tcf.keys() as f64,
        "count",
        format!("{} of {}", tcf.failed, tcf.keys()),
    );
    for (layer, w) in [("tcf", w_tcf), ("gqf", w_gqf)] {
        r.metric(
            &format!("gpu-sim.{layer}_lines_per_key"),
            w.lines as f64 / w.keys as f64,
            "lines",
            format!("{} lines over {} keys, {COUNTER_ROUNDS} round", w.lines, w.keys),
        );
        r.metric(
            &format!("gpu-sim.{layer}_modeled_mkeys_s"),
            w.modeled_mkeys_s,
            "Mkeys/s",
            "cost-model time, not wall time; unvalidated",
        );
    }
    let (launches, calls) = (w_tcf.launches + w_gqf.launches, w_tcf.calls + w_gqf.calls);
    r.metric(
        "gpu-sim.launches_per_call",
        launches as f64 / calls as f64,
        "count",
        format!("{launches} launches over {calls} calls"),
    );
    r.not_exercised(
        &[
            "filter-service.self_us_mean",
            "filter-service.keys_per_flush",
            "filter-service.backend_busy_frac",
            "filter-service.coalesced_frac",
            "filter-service.queue_depth_max",
            "filter-net.self_us_mean",
            "filter-net.bytes_per_key",
            "filter-net.pool_hit_ratio",
            "filter-net.shed_frac",
            "loadgen.send_lag_us_p99",
        ],
        "bulk calls the filters directly",
    );
}
