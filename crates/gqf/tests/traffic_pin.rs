//! Pins the bulk GQF's modeled traffic: the gpu-sim counts of every bulk
//! path, step by step, on a one-worker device. A change to the GQF core or
//! its bulk phases that means to keep the charged work must leave every
//! figure as it is; one that moves a figure records the new one and says
//! why.
//!
//! One test in its own binary: `metrics::snapshot()` is process-global,
//! so no other test may run beside it.

use filter_core::{hashed_keys, DeleteOutcome, InsertOutcome, MaintainableFilter};
use gpu_sim::{metrics, Counter, Device};
use gqf::BulkGqf;

/// The pinned counters, in the order of each step's expected figures.
const PINNED: [Counter; 5] = [
    Counter::LinesLoaded,
    Counter::LinesStored,
    Counter::AtomicOps,
    Counter::KernelLaunches,
    Counter::Items,
];

/// Run `step`, assert its pinned counts, and return its result.
fn pinned<R>(name: &str, want: [u64; 5], step: impl FnOnce() -> R) -> R {
    let before = metrics::snapshot();
    let r = step();
    let delta = metrics::snapshot().since(&before);
    assert_eq!(PINNED.map(|c| delta.get(c)), want, "{name}: {PINNED:?}");
    r
}

/// 2^14 canonical slots with 8-bit remainders, on one worker.
fn filter() -> BulkGqf {
    BulkGqf::new(14, 8, Device::cori().with_workers(1)).unwrap()
}

#[test]
fn bulk_gqf_traffic_is_pinned() {
    let mut f = filter();
    let plain = hashed_keys(201, 8_000);
    assert_eq!(pinned("plain insert", [33662, 23781, 0, 2, 2], || f.insert_batch(&plain)), 0);

    let reported = hashed_keys(202, 2_000);
    let mut outcomes = vec![InsertOutcome::Failed; reported.len()];
    pinned("insert report", [11086, 7559, 0, 2, 2], || {
        f.insert_batch_report(&reported, &mut outcomes)
    });
    assert!(outcomes.iter().all(|o| !o.failed()));

    // Counts 1 to 7: singletons, doubled remainders and counter groups.
    let counted: Vec<(u64, u64)> = hashed_keys(203, 500).into_iter().zip((1..=7).cycle()).collect();
    assert_eq!(
        pinned("counted insert", [3173, 2442, 0, 2, 2], || f.insert_counted_batch(&counted)),
        0
    );

    // 200 distinct keys, key i repeated i % 9 + 1 times.
    let skewed: Vec<u64> = hashed_keys(204, 200)
        .into_iter()
        .enumerate()
        .flat_map(|(i, k)| std::iter::repeat_n(k, i % 9 + 1))
        .collect();
    assert_eq!(
        pinned("map-reduce insert", [2022, 1384, 0, 2, 2], || f.insert_batch_mapreduce(&skewed)),
        0
    );

    // Values up to 999 ride as counts: counter groups of up to 6 slots.
    let valued: Vec<(u64, u64)> = hashed_keys(205, 300)
        .into_iter()
        .enumerate()
        .map(|(i, k)| (k, i as u64 * 7 % 1000))
        .collect();
    assert_eq!(
        pinned("valued insert", [4084, 2516, 0, 2, 2], || f.insert_values_batch(&valued)),
        0
    );

    let probes: Vec<u64> =
        plain.iter().chain(&reported).copied().chain(hashed_keys(206, 4_000)).collect();
    let counts = pinned("count", [53365, 0, 0, 1, 14000], || f.count_batch(&probes));
    assert_eq!(counts.iter().filter(|&&c| c > 0).count(), 10_011);

    let valued_keys: Vec<u64> = valued.iter().map(|&(k, _)| k).collect();
    let values = pinned("value query", [1304, 0, 0, 1, 300], || f.query_values_batch(&valued_keys));
    assert!(values.iter().zip(&valued).all(|(v, &(_, want))| *v == Some(want)));

    // Every other plain key, then the reported keys with 100 absent ones.
    let doomed: Vec<u64> = plain.iter().copied().step_by(2).collect();
    assert_eq!(pinned("delete", [22152, 16060, 0, 2, 2], || f.delete_batch(&doomed)), 0);
    let doomed: Vec<u64> = reported.iter().copied().chain(hashed_keys(207, 100)).collect();
    let mut removed = vec![DeleteOutcome::NotFound; doomed.len()];
    pinned("delete report", [12487, 8532, 0, 2, 2], || {
        f.delete_batch_report(&doomed, &mut removed)
    });
    assert_eq!(removed.iter().filter(|o| o.removed()).count(), 2_000);

    let other = filter();
    assert_eq!(other.insert_batch(&hashed_keys(208, 3_000)), 0);
    pinned("merge", [43417, 31846, 0, 4, 4], || f.merge(&other)).unwrap();
    // 2^15 slots of 7-bit remainders: nine per word, not a power of two.
    pinned("grow(2)", [41222, 28585, 0, 2, 4], || f.grow(2)).unwrap();
    assert_eq!(f.core().layout().r_bits, 7);
    f.core().check_invariants();
}
