//! Figure 6: deletion throughput — point TCF (tombstone CAS), bulk GQF
//! (even-odd phased, sorted, descending), and SQF (serialized on one
//! device thread, unsorted) on the Cori model, with every filter built by
//! the registry and driven through the `DynFilter` facade. Every repeat
//! reloads a fresh filter (untimed) before timing the deletes, so repeat
//! statistics measure deletion alone. Log-scale separations of roughly an
//! order of magnitude each are the paper's result; the trajectory lands
//! in `experiments/BENCH_fig6.json`.
//!
//! ```sh
//! cargo run --release -p bench --bin fig6_deletes -- --sizes 18,20,22
//! cargo run --release -p bench --bin fig6_deletes -- --smoke   # CI scale
//! ```

use bench::{measure_bulk, measure_point, parse_args, Json, Probe, Trajectory};
use filter_core::{hashed_keys, FilterKind, FilterSpec};
use gpu_filters::build_filter;
use gpu_sim::Device;
use gqf::REGION_SLOTS;

fn main() {
    let args = parse_args(&[18, 20, 22]);
    let cori = Device::cori();
    let devices = [&cori];
    let mut traj = Trajectory::new("fig6", &args);

    for &s in &args.sizes_log2 {
        let slots = 1usize << s;
        let n = (slots as f64 * 0.85) as usize;
        let keys = hashed_keys(7000 + s as u64, n);

        // ---- TCF: point deletes (one atomicCAS per delete) ----
        let spec = FilterSpec::items(n as u64).fp_rate(5e-4);
        let load_tcf = || {
            let f = build_filter(FilterKind::TcfPoint, &spec).unwrap();
            for &k in &keys {
                f.insert(k).unwrap();
            }
            f
        };
        let sample = load_tcf();
        let probe = Probe::new(sample.name(), FilterKind::TcfPoint.name(), "delete", s, n as u64)
            .cg(4)
            .footprint(sample.table_bytes() as u64)
            .spec(&spec);
        drop(sample);
        let (rows, _) = measure_point(&devices, &args, &probe, load_tcf, |f, i| {
            let _ = f.remove(keys[i]);
        });
        traj.push_all(rows);

        // ---- GQF: bulk even-odd deletes ----
        let spec = FilterSpec::items(n as u64).fp_rate(4e-3);
        let load_gqf = || {
            let f = build_filter(FilterKind::GqfBulk, &spec).unwrap();
            assert_eq!(f.bulk_insert(&keys).unwrap(), 0);
            f
        };
        let sample = load_gqf();
        let regions = (sample.capacity_slots() / REGION_SLOTS as u64).max(1);
        let probe = Probe::new(sample.name(), FilterKind::GqfBulk.name(), "delete", s, n as u64)
            .footprint(sample.table_bytes() as u64)
            .active_threads(regions / 2)
            .spec(&spec);
        drop(sample);
        let (row, _) = measure_bulk(&cori, &args, &probe, load_gqf, |f| {
            assert_eq!(f.bulk_delete(&keys).unwrap(), 0);
        });
        traj.push(row);

        // ---- SQF: serialized deletes (published caps permitting) ----
        let spec = FilterSpec::items(n as u64).fp_rate(4e-2);
        match build_filter(FilterKind::Sqf, &spec) {
            Ok(sample) => {
                let probe =
                    Probe::new(sample.name(), FilterKind::Sqf.name(), "delete", s, n as u64)
                        .footprint(sample.table_bytes() as u64)
                        .spec(&spec);
                drop(sample);
                let load_sqf = || {
                    let f = build_filter(FilterKind::Sqf, &spec).unwrap();
                    assert_eq!(f.bulk_insert(&keys).unwrap(), 0);
                    f
                };
                let (row, _) = measure_bulk(&cori, &args, &probe, load_sqf, |f| {
                    assert_eq!(f.bulk_delete(&keys).unwrap(), 0);
                });
                traj.push(row);
            }
            Err(e) => {
                println!("SQF unavailable at 2^{s}: {e}");
                traj.set_extra(format!("unavailable_sqf_2^{s}"), Json::str(e.to_string()));
            }
        }
    }

    traj.write(&args);
}
