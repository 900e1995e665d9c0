//! Shape regression: the paper's headline *orderings* as executable
//! assertions. These run the real kernels at small scale, price them with
//! the device model, and pin the relationships every figure depends on —
//! so a refactor that silently breaks a reproduction claim fails CI.

use filter_core::{hashed_keys, BulkDeletable, BulkFilter, Deletable, Filter, FilterMeta};
use gpu_filters::substrate::cost::estimate;
use gpu_filters::substrate::metrics;
use gpu_filters::substrate::{Device, KernelStats};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

// Large enough that the GQF's even-odd scheme has real region-level
// parallelism (2^20 slots = 128 regions); below ~2^18 the GQF-vs-serial
// ratios the paper reports are structurally compressed.
const SIZE_LOG2: u32 = 20;

/// The transaction counters these tests price with are process-global, so
/// two tests running concurrently would see each other's memory traffic and
/// compress every modeled ratio. Each test holds this lock for its duration.
///
/// The whole suite is release-only (`cargo test --release`): at dev-profile
/// speeds the 2^20-slot kernels take minutes, and the modeled ratios are
/// calibrated for optimized execution.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Price a point-op batch on the Cori model.
fn modeled_point(
    dev: &Device,
    cg: u32,
    footprint: u64,
    n: usize,
    kernel: impl Fn(usize) + Sync,
) -> f64 {
    let stats = dev.launch_point(n, cg, kernel);
    estimate(&stats, dev.profile(), footprint).throughput
}

/// Price a bulk call on the Cori model.
fn modeled_bulk(dev: &Device, footprint: u64, items: u64, active: u64, f: impl FnOnce()) -> f64 {
    let before = metrics::snapshot();
    let start = Instant::now();
    f();
    let stats = KernelStats {
        counters: metrics::snapshot().since(&before),
        wall: start.elapsed(),
        items,
        cg_size: 1,
        active_threads: active,
    };
    estimate(&stats, dev.profile(), footprint).throughput
}

#[test]
#[cfg_attr(debug_assertions, ignore = "shape ratios need release-profile runs at 2^20 scale")]
fn fig3_point_insert_ordering() {
    let _guard = serial();
    let dev = Device::cori();
    let slots = 1usize << SIZE_LOG2;
    let n = (slots as f64 * 0.85) as usize;
    let keys = hashed_keys(9001, n);

    let tcf = tcf::PointTcf::new(slots).unwrap();
    let t_tcf = modeled_point(&dev, 4, tcf.table_bytes() as u64, n, |i| {
        let _ = tcf.insert(keys[i]);
    });
    let gqf = gqf::PointGqf::new(SIZE_LOG2, 8).unwrap();
    let t_gqf = modeled_point(&dev, 1, gqf.table_bytes() as u64, n, |i| {
        let _ = gqf.insert(keys[i]);
    });
    let bf = baselines::BloomFilter::new(n).unwrap();
    let t_bf = modeled_point(&dev, 1, bf.table_bytes() as u64, n, |i| {
        let _ = bf.insert(keys[i]);
    });
    let bbf = baselines::BlockedBloomFilter::new(n).unwrap();
    let t_bbf = modeled_point(&dev, 1, bbf.table_bytes() as u64, n, |i| {
        let _ = bbf.insert(keys[i]);
    });

    // Fig. 3a: BBF > TCF > BF > GQF.
    assert!(t_bbf > t_tcf, "BBF ({t_bbf:.2e}) must beat TCF ({t_tcf:.2e})");
    assert!(t_tcf > t_bf, "TCF ({t_tcf:.2e}) must beat BF ({t_bf:.2e})");
    assert!(t_bf > t_gqf, "BF ({t_bf:.2e}) must beat GQF ({t_gqf:.2e}) — the §6.1 lock cost");
    // Headline claim 1: TCF is several times the next deletion-supporting
    // filter.
    assert!(t_tcf > 3.0 * t_gqf, "TCF/GQF ratio {:.1}", t_tcf / t_gqf);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "shape ratios need release-profile runs at 2^20 scale")]
fn fig4_bulk_insert_ordering_and_rsqf_collapse() {
    let _guard = serial();
    let dev = Device::cori();
    let slots = 1usize << SIZE_LOG2;
    let n = (slots as f64 * 0.85) as usize;
    let keys = hashed_keys(9002, n);
    let regions = (slots / gqf::REGION_SLOTS).max(1) as u64;

    let btcf = tcf::BulkTcf::new(slots).unwrap();
    let t_tcf =
        modeled_bulk(&dev, btcf.table_bytes() as u64, n as u64, (slots / 128) as u64, || {
            assert_eq!(btcf.insert_batch(&keys), 0);
        });
    let bgqf = gqf::BulkGqf::new(SIZE_LOG2, 8, dev.clone()).unwrap();
    let t_gqf = modeled_bulk(&dev, bgqf.table_bytes() as u64, n as u64, regions / 2 + 1, || {
        assert_eq!(bgqf.insert_batch(&keys), 0);
    });
    let rsqf = baselines::Rsqf::new(SIZE_LOG2, 5, dev.clone()).unwrap();
    let t_rsqf = modeled_bulk(&dev, rsqf.table_bytes() as u64, n as u64, 1, || {
        assert_eq!(rsqf.bulk_insert(&keys).unwrap(), 0);
    });

    // Fig. 4: bulk TCF is the fastest insert path; the RSQF's serial
    // insert sits orders of magnitude below everything.
    assert!(t_tcf > t_gqf, "bulk TCF ({t_tcf:.2e}) must beat bulk GQF ({t_gqf:.2e})");
    assert!(t_gqf > 20.0 * t_rsqf, "GQF/RSQF ratio {:.0}", t_gqf / t_rsqf);
    assert!(t_tcf > 100.0 * t_rsqf, "TCF/RSQF ratio {:.0}", t_tcf / t_rsqf);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "shape ratios need release-profile runs at 2^20 scale")]
fn fig6_delete_ordering() {
    let _guard = serial();
    let dev = Device::cori();
    let slots = 1usize << SIZE_LOG2;
    let n = (slots as f64 * 0.8) as usize;
    let keys = hashed_keys(9003, n);

    let tcf = tcf::PointTcf::new(slots).unwrap();
    for &k in &keys {
        tcf.insert(k).unwrap();
    }
    let t_tcf = modeled_point(&dev, 4, tcf.table_bytes() as u64, n, |i| {
        let _ = tcf.remove(keys[i]);
    });

    let bgqf = gqf::BulkGqf::new(SIZE_LOG2, 8, dev.clone()).unwrap();
    assert_eq!(bgqf.insert_batch(&keys), 0);
    let regions = (slots / gqf::REGION_SLOTS).max(1) as u64;
    let t_gqf = modeled_bulk(&dev, bgqf.table_bytes() as u64, n as u64, regions / 2 + 1, || {
        assert_eq!(bgqf.delete_batch(&keys), 0);
    });

    let sqf = baselines::Sqf::new(SIZE_LOG2, 5, dev.clone()).unwrap();
    assert_eq!(sqf.insert_batch(&keys), 0);
    let t_sqf = modeled_bulk(&dev, sqf.table_bytes() as u64, n as u64, 1, || {
        assert_eq!(sqf.bulk_delete(&keys).unwrap(), 0);
    });

    // Fig. 6: TCF ≫ GQF-bulk ≫ SQF (an order of magnitude each).
    assert!(t_tcf > 5.0 * t_gqf, "TCF/GQF delete ratio {:.1}", t_tcf / t_gqf);
    assert!(t_gqf > 5.0 * t_sqf, "GQF/SQF delete ratio {:.1}", t_gqf / t_sqf);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "shape ratios need release-profile runs at 2^20 scale")]
fn fig5_interior_cg_optimum() {
    let _guard = serial();
    let dev = Device::cori();
    let slots = 1usize << SIZE_LOG2;
    let n = (slots as f64 * 0.8) as usize;
    let keys = hashed_keys(9004, n);
    let mut tput = Vec::new();
    for cg in [1u32, 4, 32] {
        let cfg = tcf::TcfConfig::default().with_cg(cg);
        let f = tcf::PointTcf::with_config(slots, cfg).unwrap();
        tput.push(modeled_point(&dev, cg, f.table_bytes() as u64, n, |i| {
            let _ = f.insert(keys[i]);
        }));
    }
    // Fig. 5: CG 4 beats both extremes for the default 16-slot blocks.
    assert!(tput[1] > tput[0], "CG4 ({:.2e}) must beat CG1 ({:.2e})", tput[1], tput[0]);
    assert!(tput[1] > tput[2], "CG4 ({:.2e}) must beat CG32 ({:.2e})", tput[1], tput[2]);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "shape ratios need release-profile runs at 2^20 scale")]
fn table5_mapreduce_rescues_zipfian() {
    let _guard = serial();
    let dev = Device::cori();
    let n = 1usize << (SIZE_LOG2 - 1);
    let zipf = workloads::zipfian_count_dataset(n, 1.5, 9005);
    let regions = ((1usize << SIZE_LOG2) / gqf::REGION_SLOTS).max(1) as u64;

    let naive = gqf::BulkGqf::new(SIZE_LOG2, 8, dev.clone()).unwrap();
    let par = naive.effective_parallelism(&zipf.items).min(regions / 2 + 1);
    let t_naive =
        modeled_bulk(&dev, naive.table_bytes() as u64, zipf.items.len() as u64, par, || {
            assert_eq!(naive.insert_batch(&zipf.items), 0);
        });

    let mr = gqf::BulkGqf::new(SIZE_LOG2, 8, dev.clone()).unwrap();
    let mut distinct = zipf.items.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let par = mr.effective_parallelism(&distinct).min(regions / 2 + 1);
    let t_mr = modeled_bulk(&dev, mr.table_bytes() as u64, zipf.items.len() as u64, par, || {
        assert_eq!(mr.insert_batch_mapreduce(&zipf.items), 0);
    });

    // §5.4 / Table 5: map-reduce gives a multiple-factor speedup on skew.
    assert!(t_mr > 2.5 * t_naive, "MR/naive ratio {:.1}", t_mr / t_naive);
    // Both produce identical counts.
    let probe: Vec<u64> = distinct.into_iter().take(500).collect();
    assert_eq!(naive.count_batch(&probe), mr.count_batch(&probe));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "shape ratios need release-profile runs at 2^20 scale")]
fn table4_gpu_designs_beat_cpu_designs() {
    let _guard = serial();
    // The GPU-model TCF/GQF must model far above their wall-clock CPU
    // counterparts on this host (the Table 4 relationship).
    let dev = Device::cori();
    let slots = 1usize << SIZE_LOG2;
    let n = (slots as f64 * 0.8) as usize;
    let keys = hashed_keys(9006, n);

    let cpu = baselines::CpuVqf::new(slots).unwrap();
    let cpu_tput = cpu.insert_all_threads(&keys);

    let tcf = tcf::PointTcf::new(slots).unwrap();
    let gpu_tput = modeled_point(&dev, 4, tcf.table_bytes() as u64, n, |i| {
        let _ = tcf.insert(keys[i]);
    });
    assert!(
        gpu_tput > 10.0 * cpu_tput,
        "modeled GPU ({gpu_tput:.2e}) must dwarf host CPU ({cpu_tput:.2e})"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "shape ratios need release-profile runs at 2^20 scale")]
fn l2_residency_bump_exists() {
    let _guard = serial();
    // Fig. 3's BF outliers: the same kernel models faster when the filter
    // fits in L2 than when it spills to HBM.
    let dev = Device::cori();
    let n = 1usize << 15;
    let keys = hashed_keys(9007, n);
    let bf = baselines::BloomFilter::new(n).unwrap();
    for &k in &keys {
        bf.insert(k).unwrap();
    }
    let small = modeled_point(&dev, 1, 4 << 20, n, |i| {
        std::hint::black_box(bf.contains(keys[i]));
    });
    let large = modeled_point(&dev, 1, 4 << 30, n, |i| {
        std::hint::black_box(bf.contains(keys[i]));
    });
    assert!(small > large * 1.5, "L2-resident {small:.2e} vs HBM {large:.2e}");
}
