//! Figure 4: bulk-API aggregate throughput (one batch), with the filters
//! built by the registry from one [`FilterSpec`] per (kind, device) pair.
//! Inserts re-measure from a freshly built filter every repeat; kinds
//! whose published size caps exclude a sweep point (SQF/RSQF past 2^26)
//! report themselves unavailable instead of crashing the sweep. The
//! trajectory lands in `experiments/BENCH_fig4.json`.
//!
//! ```sh
//! cargo run --release -p bench --bin fig4_bulk -- --sizes 18,20,22
//! cargo run --release -p bench --bin fig4_bulk -- --smoke   # CI scale
//! ```

use bench::{measure_bulk, parse_args, Json, Probe, Trajectory};
use filter_core::{hashed_keys, AnyFilter, DeviceModel, FilterKind, FilterSpec, Parallelism};
use gpu_filters::build_filter;
use gpu_sim::Device;
use gqf::REGION_SLOTS;

/// The figure's bulk filters and their published-configuration ε targets.
const KINDS: [(FilterKind, f64); 4] = [
    (FilterKind::TcfBulk, 4e-3),
    (FilterKind::GqfBulk, 4e-3),
    (FilterKind::Sqf, 4e-2),
    (FilterKind::Rsqf, 4e-2),
];

/// Concurrently useful lanes of one bulk call — the kernel-shape metadata
/// the cost model needs (blocks for the TCF, phased regions for the
/// quotient filters, one serial thread for the RSQF).
fn active_threads(kind: FilterKind, f: &AnyFilter) -> u64 {
    let slots = f.capacity_slots();
    match kind {
        FilterKind::TcfBulk => (slots / 128).max(1),
        FilterKind::GqfBulk | FilterKind::Sqf => (slots / REGION_SLOTS as u64).max(1) / 2,
        _ => 1,
    }
}

fn main() {
    let args = parse_args(&[18, 20, 22]);
    let cori = Device::cori();
    let perl = Device::perlmutter();
    let mut traj = Trajectory::new("fig4", &args);

    for &s in &args.sizes_log2 {
        let slots = 1usize << s;
        let n = (slots as f64 * 0.89) as usize;
        let keys = hashed_keys(1100 + s as u64, n);
        let fresh = hashed_keys(2100 + s as u64, n);

        for (dev, model) in [(&cori, DeviceModel::Cori), (&perl, DeviceModel::Perlmutter)] {
            let dev_name = dev.profile().name;
            for (kind, eps) in KINDS {
                let spec = FilterSpec::items(n as u64).fp_rate(eps).device(model);
                let build = || build_filter(kind, &spec);
                let sample = match build() {
                    Ok(f) => f,
                    Err(e) => {
                        println!("{kind}@{dev_name} unavailable at 2^{s}: {e}");
                        traj.set_extra(
                            format!("unavailable_{kind}@{dev_name}_2^{s}"),
                            Json::str(e.to_string()),
                        );
                        continue;
                    }
                };
                let label = format!("{}@{dev_name}", sample.name());
                let probe = Probe::new(&label, kind.name(), "insert", s, n as u64)
                    .footprint(sample.table_bytes() as u64)
                    .active_threads(active_threads(kind, &sample))
                    .spec(&spec);
                drop(sample);

                let (row, f) = measure_bulk(
                    dev,
                    &args,
                    &probe,
                    || build().expect("built once already"),
                    |f| {
                        assert_eq!(f.bulk_insert(&keys).unwrap(), 0, "{label} failures at 2^{s}");
                    },
                );
                traj.push(row);

                let query_probe = probe.with_op("pos-query").active_threads(n as u64);
                let (row, out) = measure_bulk(
                    dev,
                    &args,
                    &query_probe,
                    || vec![false; n],
                    |out| {
                        f.bulk_query(&keys, out).unwrap();
                    },
                );
                traj.push(row);
                assert!(out.iter().all(|&x| x), "{label} lost keys at 2^{s}");

                let rand_probe = probe.with_op("rand-query").active_threads(n as u64);
                let (row, _) = measure_bulk(
                    dev,
                    &args,
                    &rand_probe,
                    || vec![false; n],
                    |out| {
                        f.bulk_query(&fresh, out).unwrap();
                    },
                );
                traj.push(row);
            }
        }
    }

    // Threads sweep: the same bulk batch with the host-side
    // partition/sort/apply phases bounded to t workers, at the largest
    // sweep size on the primary (Cori) device. Parallel-vs-sequential
    // equivalence is the parallel-oracle tier's job; these rows record the
    // wall-clock trajectory of the knob (≈ 1.0× on a single-core host).
    let threads_sweep = args.threads_sweep(&[1, 2, 4]);
    let s = *args.sizes_log2.iter().max().expect("at least one size");
    let slots = 1usize << s;
    let n = (slots as f64 * 0.89) as usize;
    let keys = hashed_keys(1100 + s as u64, n);
    for (kind, eps) in [(FilterKind::TcfBulk, 4e-3), (FilterKind::GqfBulk, 4e-3)] {
        for &t in &threads_sweep {
            let spec =
                FilterSpec::items(n as u64).fp_rate(eps).parallelism(Parallelism::Threads(t));
            let build = || build_filter(kind, &spec);
            let sample = build().expect("threads-sweep build");
            let label = format!("{}@cori/t{t}", sample.name());
            let probe = Probe::new(&label, kind.name(), "insert", s, n as u64)
                .footprint(sample.table_bytes() as u64)
                .active_threads(active_threads(kind, &sample))
                .spec(&spec);
            drop(sample);
            let (row, f) = measure_bulk(
                &cori,
                &args,
                &probe,
                || build().expect("built once already"),
                |f| {
                    assert_eq!(f.bulk_insert(&keys).unwrap(), 0, "{label} failures at 2^{s}");
                },
            );
            traj.push(row.metric("threads", f64::from(t)));
            let query_probe = probe.with_op("pos-query");
            let (row, out) = measure_bulk(
                &cori,
                &args,
                &query_probe,
                || vec![false; n],
                |out| {
                    f.bulk_query(&keys, out).unwrap();
                },
            );
            traj.push(row.metric("threads", f64::from(t)));
            assert!(out.iter().all(|&x| x), "{label} lost keys at 2^{s}");
        }
    }
    traj.set_extra(
        "threads_sweep",
        Json::Arr(threads_sweep.iter().map(|&t| Json::num(f64::from(t))).collect()),
    );

    traj.write(&args);
}
