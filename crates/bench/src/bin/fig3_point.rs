//! Figure 3: point-API aggregate throughput — inserts, positive queries,
//! random (negative) queries — priced for both Cori (V100) and Perlmutter
//! (A100). The filters come from the registry (one [`FilterSpec`] per
//! kind); inserts are re-measured from a freshly built filter every
//! repeat, and the trajectory lands in `experiments/BENCH_fig3.json`.
//!
//! ```sh
//! cargo run --release -p bench --bin fig3_point -- --sizes 18,20,22
//! cargo run --release -p bench --bin fig3_point -- --smoke   # CI scale
//! ```

use bench::{measure_point, parse_args, Probe, Trajectory};
use filter_core::{hashed_keys, FilterKind, FilterSpec};
use gpu_filters::build_filter;
use gpu_sim::Device;
use std::sync::atomic::{AtomicU64, Ordering};

/// The figure's point filters: (kind, CG lanes, target ε matching the
/// published configuration).
const KINDS: [(FilterKind, u32, f64); 4] = [
    (FilterKind::TcfPoint, 4, 5e-4),
    (FilterKind::GqfPoint, 1, 4e-3),
    (FilterKind::Bloom, 1, 8e-3),
    // 4.4e-2 compensates the BBF's ~5.5× blocking inflation back to the
    // paper's k=7 / 10.1-bpi geometry.
    (FilterKind::BlockedBloom, 1, 4.4e-2),
];

fn main() {
    let args = parse_args(&[18, 20, 22]);
    let cori = Device::cori();
    let perl = Device::perlmutter();
    let devices = [&cori, &perl];
    let mut traj = Trajectory::new("fig3", &args);

    for &s in &args.sizes_log2 {
        let slots = 1usize << s;
        let n = (slots as f64 * 0.89) as usize;
        let keys = hashed_keys(1000 + s as u64, n);
        let fresh = hashed_keys(2000 + s as u64, n);

        for (kind, cg, eps) in KINDS {
            let spec = FilterSpec::items(n as u64).fp_rate(eps);
            let build = || {
                build_filter(kind, &spec)
                    .unwrap_or_else(|e| panic!("registry build {kind} at 2^{s}: {e}"))
            };
            let sample = build();
            let probe = Probe::new(sample.name(), kind.name(), "insert", s, n as u64)
                .cg(cg)
                .footprint(sample.table_bytes() as u64)
                .spec(&spec);
            drop(sample);

            let fails = AtomicU64::new(0);
            let (rows, f) = measure_point(&devices, &args, &probe, build, |f, i| {
                if f.insert(keys[i]).is_err() {
                    fails.fetch_add(1, Ordering::Relaxed);
                }
            });
            traj.push_all(rows);
            assert_eq!(fails.load(Ordering::Relaxed), 0, "{kind} insert failures at 2^{s}");

            // The GQF's paper-grade point queries are lock-free (safe in a
            // query-only phase); the facade's `contains` takes region
            // locks, so the query kernels downcast for that one filter.
            let gqf = f.as_any().downcast_ref::<gqf::PointGqf>();
            let (rows, _) = measure_point(
                &devices,
                &args,
                &probe.with_op("pos-query"),
                || (),
                |_, i| match gqf {
                    Some(g) => assert!(g.count_unlocked(keys[i]) > 0),
                    None => assert!(f.contains(keys[i]).unwrap()),
                },
            );
            traj.push_all(rows);
            let (rows, _) = measure_point(
                &devices,
                &args,
                &probe.with_op("rand-query"),
                || (),
                |_, i| match gqf {
                    Some(g) => {
                        std::hint::black_box(g.count_unlocked(fresh[i]));
                    }
                    None => {
                        std::hint::black_box(f.contains(fresh[i]).unwrap());
                    }
                },
            );
            traj.push_all(rows);
        }
    }

    traj.write(&args);
}
