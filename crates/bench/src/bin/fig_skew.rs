//! Skew-aware serving fast path: query throughput under Zipf-distributed
//! key popularity, with and without the epoch-invalidated hot-key cache.
//!
//! Real serving workloads are skewed: a handful of hot keys dominate the
//! query stream. The serving layer exploits that twice — every query
//! flush probes the duplicate keys inside it once (coalescing), and an
//! armed per-shard cache replays verdicts for recently-probed keys until a
//! mutation bumps the shard's epoch. Both sit *behind* the backend's bulk
//! API, so the win scales with backend probe cost; the sweep uses the GQF
//! (rank-select scans per probe, the most expensive probe in the tree) as
//! the backend.
//!
//! The sweep crosses Zipf coefficient (uniform, 1.1, 1.5) × cache size,
//! with a `base` arm per coefficient (the default service: coalescing, no
//! cache) as the denominator. A query-only timed phase keeps the epoch
//! stable, which is the regime the cache is built for; mutation-epoch
//! correctness is the oracle tier's job (`tests/skew_oracle.rs`), not a
//! throughput question. The extras record the best cache arm's speed-up
//! over the base arm at Zipf 1.5 (`speedup_z15`) and on uniform keys
//! (`uniform_ratio`, where most cache lookups miss).
//!
//! ```sh
//! cargo run --release -p bench --bin fig_skew             # full sweep
//! cargo run --release -p bench --bin fig_skew -- --smoke  # CI scale
//! ```

use bench::{measure_wall, BenchArgs, Json, Probe, Trajectory};
use filter_core::{hashed_keys, Xorwow};
use filter_service::{ServiceHandle, ShardedFilterBuilder};
use gqf::BulkGqf;
use std::time::Duration;
use workloads::ZipfSampler;

/// Keys per client-issued query batch.
const CHUNK: usize = 8192;
/// Client threads driving the service.
const CLIENTS: usize = 16;
/// Shard workers.
const SHARDS: usize = 4;
/// GQF remainder bits (the tree's standard configuration).
const R_BITS: u32 = 8;

/// Label for the uniform (no skew) rows; `zipf` metric 0.0.
const UNIFORM: f64 = 0.0;

/// Per-shard quotient bits sized so the whole universe lands at a *high*
/// per-shard load factor (the paper's operating regime, ~85% at the
/// default universe): GQF probe cost scales with run length, so a
/// lightly-loaded filter would hide the probe savings this figure
/// measures behind fixed serving overhead.
fn shard_q_bits(universe: usize) -> u32 {
    let per_shard_slots = (universe / SHARDS).next_power_of_two().max(1 << 10);
    per_shard_slots.trailing_zeros()
}

/// The query trace: `total` lookups over `keys`, drawn uniformly
/// (`zipf == 0`) or Zipf-distributed by rank (rank 0 = `keys[0]` is the
/// hottest). Deterministic per (zipf, seed).
fn query_trace(keys: &[u64], zipf: f64, total: usize, seed: u64) -> Vec<u64> {
    let mut g = Xorwow::new(seed);
    if zipf == UNIFORM {
        (0..total).map(|_| keys[g.next_u32() as usize % keys.len()]).collect()
    } else {
        let z = ZipfSampler::new(keys.len(), zipf);
        (0..total).map(|_| keys[z.rank(&mut g)]).collect()
    }
}

/// Drive the query trace through `CLIENTS` blocking client threads; every
/// key is inserted up front, so the no-false-negative backends must
/// answer true for every query.
fn drive_queries(h: &ServiceHandle, trace: &[u64]) {
    let per_client = trace.len().div_ceil(CLIENTS);
    std::thread::scope(|s| {
        for part in trace.chunks(per_client) {
            let h = h.clone();
            s.spawn(move || {
                for chunk in part.chunks(CHUNK) {
                    let hits = h.query_batch(chunk).expect("service query");
                    assert!(hits.iter().all(|&x| x), "service lost keys");
                }
            });
        }
    });
}

/// One row: query `trace` against a fresh service with a per-shard
/// query cache of `cache_entries` (0 = none, the base arm). Pushes the
/// row onto `traj`, which prints it, then prints the arm's service stats
/// under it.
fn run_arm(
    traj: &mut Trajectory,
    args: &BenchArgs,
    keys: &[u64],
    trace: &[u64],
    zipf: f64,
    cache_entries: usize,
) {
    let q = shard_q_bits(keys.len());
    let zlabel = if zipf == UNIFORM { "uniform".to_string() } else { format!("z{zipf}") };
    let label = if cache_entries > 0 {
        format!("skew/{zlabel}/c{cache_entries}/fast")
    } else {
        format!("skew/{zlabel}/base")
    };
    let probe = Probe::new(&label, "gqf-bulk", "query", q + R_BITS, trace.len() as u64);
    let (row, service) = measure_wall(
        args,
        &probe,
        || {
            let service = ShardedFilterBuilder::new()
                .shards(SHARDS)
                .batch_capacity(CHUNK)
                .linger(Duration::from_micros(200))
                .query_cache(cache_entries)
                .build(|_| BulkGqf::new_cori(q, R_BITS))
                .expect("service");
            assert_eq!(service.handle().insert_batch(keys).expect("load"), 0);
            service
        },
        |service| drive_queries(&service.handle(), trace),
    );
    let stats = service.stats();
    let looked_up = stats.cache_hits + stats.cache_misses;
    let hit_rate = if looked_up > 0 { stats.cache_hits as f64 / looked_up as f64 } else { 0.0 };
    traj.push(
        row.metric("zipf", zipf)
            .metric("cache_entries", cache_entries as f64)
            .metric("cache_hit_rate", hit_rate)
            .metric("coalesced_keys", stats.coalesced_keys as f64)
            .metric("shards", SHARDS as f64)
            .metric("clients", CLIENTS as f64),
    );
    println!("    └─ {}", stats.render().replace('\n', "\n       "));
}

fn main() {
    let mut universe = 120_000usize;
    let mut queries = 1_000_000usize;
    let mut out_dir = "experiments".to_string();
    let mut repeats = 3u32;
    let mut warmup = 0u32;
    let mut smoke = false;
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--keys" => {
                i += 1;
                universe = argv[i].parse().expect("bad --keys");
            }
            "--queries" => {
                i += 1;
                queries = argv[i].parse().expect("bad --queries");
            }
            "--quick" => queries = 200_000,
            "--smoke" => smoke = true,
            "--repeats" => {
                i += 1;
                repeats = argv[i].parse().expect("bad --repeats");
            }
            "--warmup" => {
                i += 1;
                warmup = argv[i].parse().expect("bad --warmup");
            }
            "--out" => {
                i += 1;
                out_dir = argv[i].clone();
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }
    let mut zipfs: Vec<f64> = vec![UNIFORM, 1.1, 1.5];
    let mut cache_sizes: Vec<usize> = vec![1 << 12, 1 << 14];
    if smoke {
        universe = 3_000;
        queries = 40_000;
        repeats = 1;
        warmup = 0;
        zipfs = vec![UNIFORM, 1.5];
        cache_sizes = vec![1 << 10];
    }
    let args = BenchArgs {
        sizes_log2: Vec::new(),
        out_dir,
        repeats: repeats.max(1),
        warmup,
        smoke,
        threads: Vec::new(),
    };

    println!(
        "skew fast path: universe {universe}, {queries} queries, chunk {CHUNK}, \
         {SHARDS} shards, {} repeats\n",
        args.repeats
    );
    let keys = hashed_keys(0x5caf_f01d, universe);

    let mut traj = Trajectory::new("skew", &args);
    for &zipf in &zipfs {
        let trace = query_trace(&keys, zipf, queries, 0xbead + zipf.to_bits());
        // Denominator: the default service, no cache.
        run_arm(&mut traj, &args, &keys, &trace, zipf, 0);
        for &entries in &cache_sizes {
            run_arm(&mut traj, &args, &keys, &trace, zipf, entries);
        }
    }

    let best = |zipf: f64, cached: bool| {
        traj.rows
            .iter()
            .filter(|m| {
                m.get_metric("zipf") == Some(zipf)
                    && (m.get_metric("cache_entries").unwrap_or(0.0) > 0.0) == cached
            })
            .map(|m| m.items_per_sec.median / 1e6)
            .fold(0.0, f64::max)
    };
    let speedup_z15 = best(1.5, true) / best(1.5, false);
    let uniform_ratio = best(UNIFORM, true) / best(UNIFORM, false);
    println!("\nbest cache arm at zipf 1.5 vs no cache: {speedup_z15:.2}x");
    println!("best cache arm on uniform keys vs no cache: {uniform_ratio:.2}x");

    traj.set_extra("universe", Json::num(universe as f64));
    traj.set_extra("queries", Json::num(queries as f64));
    traj.set_extra("chunk", Json::num(CHUNK as f64));
    traj.set_extra("zipf_sweep", Json::Arr(zipfs.iter().map(|&z| Json::num(z)).collect()));
    traj.set_extra(
        "cache_sweep",
        Json::Arr(cache_sizes.iter().map(|&c| Json::num(c as f64)).collect()),
    );
    traj.set_extra("workload", Json::str("query-only trace over preloaded keys"));
    traj.set_extra("speedup_z15", Json::num(speedup_z15));
    traj.set_extra("uniform_ratio", Json::num(uniform_ratio));
    traj.write(&args);
}
