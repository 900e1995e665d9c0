//! Design-choice ablations, from the paper's §4.1 / §6.8 and the claims
//! cited per item:
//!
//! 1. backing table on/off → maximum achievable load factor (paper:
//!    90% with vs 79.6% without);
//! 2. shortcut-threshold sweep (0 / 0.25 / 0.5 / 0.75 / 1.0) → insert
//!    throughput and block-load variance (paper picks 0.75);
//! 3. GQF even-odd bulk vs lock-based point insertion of the same batch;
//! 4. map-reduce on/off for Zipfian counting (§5.4);
//! 5. cuckoo kicking cost vs TCF at rising load factor (§3.2's analysis);
//! 6. the even-odd scheme beyond filters (§1's generalization claim):
//!    linear-probing hash-table bulk insertion, even-odd phased vs
//!    per-insert region locks, plus dynamic-graph batch ingestion;
//! 7. counting Bloom filter space overhead (§3.2 footnote 2): BPI of the
//!    CBF vs the GQF at the same false-positive target, the number that
//!    makes the CBF "highly inefficient in practice".
//!
//! Timed ablations run through the shared measurement harness (fresh
//! state per repeat, median wall/modeled statistics).
//!
//! ```sh
//! cargo run --release -p bench --bin ablations -- --sizes 18
//! cargo run --release -p bench --bin ablations -- --smoke
//! ```

use bench::harness::counters_around;
use bench::{measure_bulk, measure_point, parse_args, write_report, Measurement, Probe};
use filter_core::{hashed_keys, Filter, FilterMeta};
use gpu_sim::{Counter, Device};
use gqf::REGION_SLOTS;
use std::fmt::Write as _;
use tcf::{PointTcf, TcfConfig};

/// Median wall and modeled throughput, formatted the ablation-table way.
fn rates(row: &Measurement) -> (f64, f64) {
    (row.modeled_items_per_sec.unwrap_or(0.0), row.items_per_sec.median)
}

fn main() {
    let args = parse_args(&[18]);
    let s = args.sizes_log2[0];
    let slots = 1usize << s;
    let cori = Device::cori();
    let devices = [&cori];
    let mut out = String::new();

    // ---------- 1. backing table on/off ----------
    let _ = writeln!(out, "## Ablation 1: backing table → max achievable load factor");
    for backing in [true, false] {
        let cfg = TcfConfig { backing_table: backing, max_load: 0.99, ..Default::default() };
        let f = PointTcf::with_config(slots, cfg).unwrap();
        let keys = hashed_keys(11_000, f.slots());
        let mut reached = 0usize;
        for &k in &keys {
            if f.insert(k).is_err() {
                break;
            }
            reached += 1;
        }
        let load = reached as f64 / f.slots() as f64;
        let _ = writeln!(
            out,
            "  backing={backing:<5} → first failure at load {:.1}%  (paper: {} )",
            load * 100.0,
            if backing { "90%+" } else { "79.6%" }
        );
    }

    // ---------- 2. shortcut threshold sweep ----------
    let _ = writeln!(out, "\n## Ablation 2: shortcut-threshold sweep (inserts to 85% load)");
    for cut in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let cfg = TcfConfig { shortcut_fill: cut, ..Default::default() };
        let build = || PointTcf::with_config(slots, cfg).unwrap();
        let sample = build();
        let n = (sample.slots() as f64 * 0.85) as usize;
        let keys = hashed_keys(12_000, n);
        let probe = Probe::new("TCF", "tcf-point", "insert", s, n as u64)
            .cg(4)
            .footprint(sample.table_bytes() as u64);
        drop(sample);
        let (rows, f) = measure_point(&devices, &args, &probe, build, |f, i| {
            let _ = f.insert(keys[i]);
        });
        let (modeled, wall) = rates(&rows[0]);
        let _ = writeln!(
            out,
            "  shortcut={cut:<5} → modeled {:>7.3} B/s  wall {:>6.1} M/s  backing_overflow={}",
            modeled / 1e9,
            wall / 1e6,
            f.backing_occupancy(),
        );
    }

    // ---------- 3. even-odd bulk vs locked point (GQF) ----------
    let _ = writeln!(out, "\n## Ablation 3: GQF even-odd bulk vs lock-based point inserts");
    let n = (slots as f64 * 0.85) as usize;
    let keys = hashed_keys(13_000, n);
    let regions = (slots / REGION_SLOTS).max(1) as u64;
    {
        let build = || gqf::BulkGqf::new(s, 8, cori.clone()).unwrap();
        let probe = Probe::new("GQF-bulk", "gqf-bulk", "insert", s, n as u64)
            .footprint(build().table_bytes() as u64)
            .active_threads(regions / 2);
        let (row, _) = measure_bulk(&cori, &args, &probe, build, |bulk| {
            assert_eq!(bulk.insert_batch(&keys), 0);
        });
        let (modeled, wall) = rates(&row);
        let _ = writeln!(
            out,
            "  even-odd bulk → modeled {:>7.3} B/s  wall {:>6.1} M/s",
            modeled / 1e9,
            wall / 1e6
        );
    }
    {
        let build = || gqf::PointGqf::new(s, 8).unwrap();
        let probe = Probe::new("GQF-point", "gqf-point", "insert", s, n as u64)
            .footprint(build().table_bytes() as u64);
        let (rows, _) = measure_point(&devices, &args, &probe, build, |point, i| {
            let _ = point.insert(keys[i]);
        });
        let (modeled, wall) = rates(&rows[0]);
        let _ = writeln!(
            out,
            "  locked point  → modeled {:>7.3} B/s  wall {:>6.1} M/s  [{}]",
            modeled / 1e9,
            wall / 1e6,
            rows[0].bound.as_deref().unwrap_or("-")
        );
    }

    // ---------- 4. map-reduce on/off for Zipfian ----------
    let _ = writeln!(out, "\n## Ablation 4: Zipfian counting, naive vs map-reduce (§5.4)");
    let zipf = workloads::zipfian_count_dataset(n, 1.5, 14_000);
    for mapreduce in [false, true] {
        let build = || gqf::BulkGqf::new(s, 8, cori.clone()).unwrap();
        let probe = Probe::new("GQF", "gqf-bulk", "count", s, zipf.items.len() as u64)
            .footprint(build().table_bytes() as u64)
            .active_threads(regions / 2);
        let (row, _) = measure_bulk(&cori, &args, &probe, build, |gqf| {
            let fails = if mapreduce {
                gqf.insert_batch_mapreduce(&zipf.items)
            } else {
                gqf.insert_batch(&zipf.items)
            };
            assert_eq!(fails, 0);
        });
        let (modeled, wall) = rates(&row);
        let _ = writeln!(
            out,
            "  map-reduce={mapreduce:<5} → modeled {:>8.1} M/s  wall {:>6.1} M/s",
            modeled / 1e6,
            wall / 1e6
        );
    }

    // ---------- 5. cuckoo kicking vs TCF at rising load ----------
    let _ = writeln!(out, "\n## Ablation 5: cuckoo kicking cost vs TCF by load factor (§3.2)");
    let _ = writeln!(out, "  {:<8}{:>16}{:>16}", "load", "cuckoo lines/op", "TCF lines/op");
    for load in [0.5, 0.7, 0.85, 0.93] {
        let cuckoo = baselines::CuckooFilter::new(slots).unwrap();
        let tcf = PointTcf::new(slots).unwrap();
        let n = (slots as f64 * load) as usize;
        let keys = hashed_keys(15_000, n);
        let warm = (n as f64 * 0.95) as usize;
        for &k in &keys[..warm] {
            let _ = cuckoo.insert(k);
            let _ = tcf.insert(k);
        }
        // Measure the marginal insert cost near the target load.
        let tail = &keys[warm..];
        let c1 = counters_around(|| {
            for &k in tail {
                let _ = cuckoo.insert(k);
            }
        });
        let c2 = counters_around(|| {
            for &k in tail {
                let _ = tcf.insert(k);
            }
        });
        let per = |c: &gpu_sim::Counters| {
            (c.get(Counter::LinesLoaded) + c.get(Counter::LinesStored)) as f64
                / tail.len().max(1) as f64
        };
        let _ = writeln!(out, "  {load:<8}{:>16.2}{:>16.2}", per(&c1), per(&c2));
    }

    // ---------- 6. even-odd beyond filters: hash table + graph ----------
    let _ = writeln!(out, "\n## Ablation 6: even-odd scheme on a linear-probing hash table (§1)");
    let n = (slots as f64 * 0.8) as usize;
    let keys = hashed_keys(16_000, n);
    let pairs: Vec<(u64, u64)> = keys.iter().enumerate().map(|(i, &k)| (k, i as u64)).collect();
    let ht_regions = ((slots / eo_ht::REGION_SLOTS).max(2) / 2) as u64;
    {
        let build = || eo_ht::EoHashTable::with_device(slots, cori.clone()).unwrap();
        let probe = Probe::new("EoHT", "eo-ht", "insert", s, n as u64)
            .footprint(build().bytes() as u64)
            .active_threads(ht_regions);
        let (row, _) = measure_bulk(&cori, &args, &probe, build, |t| {
            assert_eq!(t.bulk_upsert(&pairs), 0);
        });
        let (modeled, wall) = rates(&row);
        let _ = writeln!(
            out,
            "  even-odd bulk → modeled {:>7.3} B/s  wall {:>6.1} M/s",
            modeled / 1e9,
            wall / 1e6
        );
    }
    {
        let t = eo_ht::EoHashTable::with_device(slots, cori.clone()).unwrap();
        let spins = counters_around(|| {
            assert_eq!(t.bulk_upsert_locked(&pairs), 0);
        });
        let build = || eo_ht::EoHashTable::with_device(slots, cori.clone()).unwrap();
        // The locked path maps one thread per item (point-style), so it is
        // charged with that full parallelism; its cost is the lock traffic.
        let probe = Probe::new("EoHT-locked", "eo-ht", "insert", s, n as u64)
            .footprint(t.bytes() as u64)
            .active_threads(n as u64);
        let (row, _) = measure_bulk(&cori, &args, &probe, build, |t2| {
            assert_eq!(t2.bulk_upsert_locked(&pairs), 0);
        });
        let (modeled, wall) = rates(&row);
        let _ = writeln!(
            out,
            "  locked point  → modeled {:>7.3} B/s  wall {:>6.1} M/s  lock_spins={}",
            modeled / 1e9,
            wall / 1e6,
            spins.get(Counter::LockSpins)
        );
    }
    {
        // Dynamic-graph ingest through the same scheme (power-law stream).
        let edges = workloads::powerlaw_edges(16_500, n, 65_536).edges;
        let build = || eo_ht::DynamicGraph::with_device(edges.len(), cori.clone()).unwrap();
        let probe = Probe::new("EoGraph", "eo-graph", "edges", s, edges.len() as u64)
            .footprint(build().bytes() as u64)
            .active_threads(ht_regions);
        let (row, g) = measure_bulk(&cori, &args, &probe, build, |g| {
            g.bulk_add_edges(&edges).unwrap();
        });
        let (modeled, wall) = rates(&row);
        let _ = writeln!(
            out,
            "  graph ingest  → modeled {:>7.3} B edges/s  wall {:>6.1} M/s  ({} distinct edges)",
            modeled / 1e9,
            wall / 1e6,
            g.n_edges()
        );
    }

    // ---------- 7. counting Bloom filter space overhead ----------
    let _ = writeln!(out, "\n## Ablation 7: counting-filter space, CBF vs GQF (§3.2 fn.2)");
    {
        let n = (slots as f64 * 0.85) as usize;
        let keys = hashed_keys(17_000, n);
        let cbf = baselines::CountingBloomFilter::new(n).unwrap();
        let gqf = gqf::PointGqf::new(s, 8).unwrap();
        for &k in &keys {
            cbf.insert(k).unwrap();
            gqf.insert(k).unwrap();
        }
        let probes = hashed_keys(17_500, 200_000);
        let fp = |hits: usize| hits as f64 / probes.len() as f64 * 100.0;
        let cbf_fp = fp(probes.iter().filter(|&&k| cbf.contains(k)).count());
        let gqf_fp = fp(probes.iter().filter(|&&k| gqf.contains(k)).count());
        let bpi = |bytes: usize| bytes as f64 * 8.0 / n as f64;
        let _ = writeln!(
            out,
            "  CBF → {:>6.2} bits/item at FP {:.2}%   (4-bit counters, counts cap at 15)",
            bpi(cbf.table_bytes()),
            cbf_fp
        );
        let _ = writeln!(
            out,
            "  GQF → {:>6.2} bits/item at FP {:.2}%   (variable-size counters, unbounded)",
            bpi(gqf.table_bytes()),
            gqf_fp
        );
        let _ = writeln!(
            out,
            "  overhead: {:.1}x more space for a capped-count CBF",
            cbf.table_bytes() as f64 / gqf.table_bytes() as f64
        );
    }

    println!("{out}");
    write_report(&args, "ablations.txt", &out);
}
