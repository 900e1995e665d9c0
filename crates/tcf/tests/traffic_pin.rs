//! Pins the bulk TCF's modeled traffic: the gpu-sim counts of every bulk
//! path, step by step, on a one-worker device. A change to the bulk
//! passes that means to keep the charged work must leave every figure as
//! it is; one that moves a figure records the new one and says why.
//!
//! One test in its own binary: `metrics::snapshot()` is process-global,
//! so no other test may run beside it.

use filter_core::{hashed_keys, MaintainableFilter};
use gpu_sim::{metrics, Counter, Device};
use tcf::{BulkTcf, TcfConfig};

/// The pinned counters, in the order of each step's expected figures.
const PINNED: [Counter; 6] = [
    Counter::LinesLoaded,
    Counter::LinesStored,
    Counter::AtomicOps,
    Counter::SharedOps,
    Counter::KernelLaunches,
    Counter::Items,
];

/// Run `step`, assert its pinned counts, and return its result.
fn pinned<R>(name: &str, want: [u64; 6], step: impl FnOnce() -> R) -> R {
    let before = metrics::snapshot();
    let r = step();
    let delta = metrics::snapshot().since(&before);
    assert_eq!(PINNED.map(|c| delta.get(c)), want, "{name}: {PINNED:?}");
    r
}

/// 2^14 slots (128 blocks of 128) with 32-bit values, on one worker.
fn filter() -> BulkTcf {
    BulkTcf::with_config(1 << 14, TcfConfig::bulk_default(), Device::cori().with_workers(1))
        .unwrap()
        .with_values(32)
        .unwrap()
}

#[test]
fn bulk_tcf_traffic_is_pinned() {
    let mut f = filter();
    // 15,000 keys (92% load) in one batch: the late keys of full blocks
    // reach passes 2 and 3, and 28 spill to the backing table. Pass 2
    // stages only the blocks pass 1 did not, so inserts load fewer lines
    // than the two stagings per leftover they once did.
    let plain = hashed_keys(101, 15_000);
    assert_eq!(
        pinned("plain insert", [37747, 19848, 28, 142727, 3, 343], || f.insert_batch(&plain)),
        0
    );
    assert_eq!(f.backing_occupancy(), 28);

    // A valued batch into the full table reaches pass 3; what it cannot
    // place fails instead of spilling, because backing slots hold no value.
    let valued: Vec<(u64, u64)> = hashed_keys(102, 600).into_iter().map(|k| (k, k >> 32)).collect();
    assert_eq!(
        pinned("valued insert", [3418, 1868, 0, 14843, 3, 260], || f.insert_values_batch(&valued)),
        26
    );
    assert_eq!(f.backing_occupancy(), 28);

    let valued_keys: Vec<u64> = valued.iter().map(|&(k, _)| k).collect();
    let probes: Vec<u64> =
        plain.iter().chain(&valued_keys).copied().chain(hashed_keys(103, 4000)).collect();
    let mut hits = vec![false; probes.len()];
    pinned("query", [52754, 0, 0, 0, 1, 19600], || f.query_batch(&probes, &mut hits));
    assert_eq!(hits.iter().filter(|&&h| h).count(), 15_588);
    let mut sorted = vec![false; probes.len()];
    pinned("sorted query", [53010, 19600, 0, 0, 2, 4626], || {
        f.query_batch_sorted(&probes, &mut sorted)
    });
    assert_eq!(sorted, hits);
    let values =
        pinned("value query", [2400, 0, 0, 0, 1, 600], || f.query_values_batch(&valued_keys));
    assert_eq!(values.iter().filter(|v| v.is_some()).count(), 574);

    // Every other plain key: both block passes run, and 15 of the 28
    // backing entries go.
    let doomed: Vec<u64> = plain.iter().copied().step_by(2).collect();
    assert_eq!(pinned("delete", [16341, 8632, 15, 0, 2, 185], || f.delete_batch(&doomed)), 0);
    assert_eq!(f.backing_occupancy(), 13);

    let other = filter();
    assert_eq!(other.insert_batch(&hashed_keys(104, 4000)), 0);
    pinned("merge", [1549, 781, 13, 0, 1, 128], || f.merge(&other)).unwrap();
    // The grow migrates 256 child blocks, then drains the 13 backing
    // entries through one placement pass.
    pinned("grow(2)", [1640, 1624, 0, 602, 2, 268], || f.grow(2)).unwrap();
    assert_eq!(f.backing_occupancy(), 0);
}
