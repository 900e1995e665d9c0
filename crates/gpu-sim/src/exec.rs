//! Kernel launch machinery: maps simulated GPU grids onto a Rayon pool.
//!
//! Two launch styles mirror the paper's two API families:
//!
//! * [`Device::launch_point`] — one cooperative group per *item* (the
//!   device-side point APIs): the item space is striped across CPU workers,
//!   every worker's groups race through the shared [`crate::memory`]
//!   buffers with real atomics.
//! * [`Device::launch_regions`] — one thread per *region* (the bulk APIs).
//!   Two wrappers hand each region thread a slice of a sorted batch:
//!   [`Device::launch_grouped`] one per distinct target in one launch —
//!   §4.2's block kernels (every bulk-TCF pass) — and
//!   [`Device::launch_even_odd`] one per fixed-width key region in two
//!   launches, even regions then odd — §5.3's lock-free update for any
//!   linear-probing structure (the bulk GQF, SQF and EO hash table).
//!
//! A launch returns [`KernelStats`]: wall-clock time plus the metric delta
//! for the launch window, which [`crate::cost`] converts to modeled GPU
//! time. Launches are assumed to run one-at-a-time per process (true for
//! the benchmark harness); concurrent launches would fold their traffic
//! into each other's windows.

use crate::metrics::{self, bump, Counter, Counters};
use crate::profile::DeviceProfile;
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A simulated GPU: a hardware profile plus the host thread pool that
/// executes its kernels.
#[derive(Debug, Clone)]
pub struct Device {
    profile: DeviceProfile,
    /// Host workers the bulk phases may occupy (0 = the whole pool).
    workers: usize,
}

/// Execution statistics for one kernel launch.
#[derive(Debug, Clone)]
pub struct KernelStats {
    /// Metric delta over the launch window.
    pub counters: Counters,
    /// Host wall-clock time of the launch.
    pub wall: Duration,
    /// Items processed (grid size for point launches).
    pub items: u64,
    /// Cooperative-group size used by the kernel (1 for region kernels).
    pub cg_size: u32,
    /// Parallelism exposed to the device (items for point kernels, regions
    /// for region kernels) — drives the occupancy model.
    pub active_threads: u64,
}

impl KernelStats {
    /// Measured CPU-side throughput (items / wall second).
    pub fn wall_throughput(&self) -> f64 {
        if self.wall.is_zero() {
            return f64::INFINITY;
        }
        self.items as f64 / self.wall.as_secs_f64()
    }

    /// Merge two launches (e.g. the GQF's even phase + odd phase).
    pub fn merge(&self, other: &KernelStats) -> KernelStats {
        KernelStats {
            counters: self.counters.merge(&other.counters),
            wall: self.wall + other.wall,
            items: self.items + other.items,
            cg_size: self.cg_size.max(other.cg_size),
            active_threads: self.active_threads.max(other.active_threads),
        }
    }
}

impl Device {
    /// Build a device with the given hardware profile.
    pub fn new(profile: DeviceProfile) -> Self {
        Device { profile, workers: 0 }
    }

    /// Bound the host parallelism of every launch (and device-bounded
    /// sort) on this device: `n` workers, `0` = the whole pool, whose
    /// width ([`rayon::current_num_threads`]) is fixed for the process.
    /// Any bound yields bit-for-bit identical results — the bulk phases
    /// are scheduling-independent — so this is purely a throughput knob
    /// (`filter_core::Parallelism::workers` maps onto it directly).
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Resolved host worker budget (≥ 1): the bound, or for `0` the pool
    /// width, which is read once per process and never probes the
    /// environment on a launch.
    pub fn host_workers(&self) -> usize {
        if self.workers == 0 {
            rayon::current_num_threads().max(1)
        } else {
            self.workers
        }
    }

    /// The paper's Cori testbed (Tesla V100).
    pub fn cori() -> Self {
        Device::new(DeviceProfile::cori_v100())
    }

    /// The paper's Perlmutter testbed (A100).
    pub fn perlmutter() -> Self {
        Device::new(DeviceProfile::perlmutter_a100())
    }

    /// Look up a device by model name (`"cori"` / `"perlmutter"`,
    /// case-insensitive) — the single source of truth mapping
    /// `filter_core::DeviceModel::name()` strings onto substrate devices,
    /// so spec-driven constructors across crates cannot drift apart.
    pub fn by_model_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "cori" => Some(Device::cori()),
            "perlmutter" => Some(Device::perlmutter()),
            _ => None,
        }
    }

    /// [`Self::by_model_name`] with the spec-construction fallback policy:
    /// model names the substrate does not know yet price as the paper's
    /// primary (Cori/V100) system.
    pub fn for_model_name(name: &str) -> Self {
        Self::by_model_name(name).unwrap_or_else(Device::cori)
    }

    /// Hardware profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Launch a point-style kernel: `kernel(i)` once per item `i`, one
    /// cooperative group of `cg_size` lanes per item, all items concurrent.
    ///
    /// Point kernels are *not* shadow-checked under `race-check`: they
    /// contend through atomics and simulated per-block locks by design
    /// (the paper's device-side point APIs).
    pub fn launch_point<F>(&self, n_items: usize, cg_size: u32, kernel: F) -> KernelStats
    where
        F: Fn(usize) + Sync,
    {
        self.launch_inner(n_items, cg_size, n_items as u64 * cg_size as u64, false, kernel)
    }

    /// Launch a region-style kernel: `kernel(r)` once per region `r`, one
    /// device thread per region (the bulk-API mapping, which the paper
    /// notes exposes far fewer active threads than point kernels).
    ///
    /// Under `race-check`, every [`crate::GpuBuffer`] access inside the
    /// kernel is logged per region and the launch asserts cross-region
    /// write-write / read-write disjointness — the bulk APIs' exclusive
    /// region ownership, checked instead of assumed (see [`crate::shadow`]).
    pub fn launch_regions<F>(&self, n_regions: usize, kernel: F) -> KernelStats
    where
        F: Fn(usize) + Sync,
    {
        self.launch_inner(n_regions, 1, n_regions as u64, true, kernel)
    }

    /// Sort and apply phases of §4.2's block kernels: stable-sort
    /// `(target, payload)` pairs by target, then run `kernel(group)` once
    /// per distinct target in one region launch, `group` holding that
    /// target's pairs in batch order, so each region thread owns its
    /// target exclusively. An empty batch launches nothing.
    pub fn launch_grouped<F>(&self, mut pairs: Vec<(u64, u64)>, kernel: F)
    where
        F: Fn(&[(u64, u64)]) + Sync,
    {
        if pairs.is_empty() {
            return;
        }
        self.sort_pairs(&mut pairs);
        let bounds = crate::sort::segment_bounds_pairs_bounded(&pairs, self.host_workers());
        self.launch_regions(bounds.len() - 1, |g| kernel(&pairs[bounds[g]..bounds[g + 1]]));
    }

    /// Apply phase of §5.3's lock-free bulk update, for any
    /// linear-probing structure. `sorted` is ascending by `key`; region
    /// `g`'s slice holds the items whose key lies in
    /// `[g * span, (g + 1) * span)`, found by successor search (a
    /// data-parallel `partition_point` per region), and the last region
    /// also takes every larger key. `kernel(slice)` runs once per
    /// non-empty region: the even regions in one launch, then the odd
    /// ones, an empty parity launching nothing. A kernel whose probe runs
    /// past its region's end only reaches the next region, which is idle
    /// during that launch, so no locks are needed. Returns the sum of the
    /// kernels' results (the callers' per-item failure counts).
    pub fn launch_even_odd<T, K, F>(
        &self,
        sorted: &[T],
        n_regions: usize,
        span: u64,
        key: K,
        kernel: F,
    ) -> usize
    where
        T: Sync,
        K: Fn(&T) -> u64 + Sync,
        F: Fn(&[T]) -> usize + Sync,
    {
        let mut bounds =
            self.par_map(n_regions, |g| sorted.partition_point(|t| key(t) < g as u64 * span));
        bounds.push(sorted.len());
        let total = AtomicUsize::new(0);
        for parity in 0..2 {
            let regions: Vec<usize> =
                (parity..n_regions).step_by(2).filter(|&g| bounds[g] < bounds[g + 1]).collect();
            if regions.is_empty() {
                continue;
            }
            self.launch_regions(regions.len(), |i| {
                let g = regions[i];
                let n = kernel(&sorted[bounds[g]..bounds[g + 1]]);
                if n > 0 {
                    total.fetch_add(n, Ordering::Relaxed);
                }
            });
        }
        total.into_inner()
    }

    /// Partition phase of the bulk-synchronous pattern: compute `f(i)` for
    /// every batch item as independent data-parallel tasks over item
    /// ranges, bounded by this device's worker budget. Output order is the
    /// input order regardless of the budget.
    pub fn par_map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let launch = crate::shadow::new_launch_id();
        let out = (0..n)
            .into_par_iter()
            .with_min_len(self.min_task_len(n))
            .map(|i| {
                let _task = crate::shadow::task_enter(launch, i as u64);
                f(i)
            })
            .collect();
        crate::shadow::assert_launch_clean(launch, "par_map");
        out
    }

    /// Sort phase: device-bounded stable radix sort of `(key, payload)`
    /// pairs (see [`crate::sort::radix_sort_pairs_bounded`]).
    pub fn sort_pairs(&self, data: &mut [(u64, u64)]) {
        crate::sort::radix_sort_pairs_bounded(data, self.host_workers());
    }

    /// Sort phase: device-bounded radix sort of raw hashes.
    pub fn sort_u64(&self, data: &mut [u64]) {
        crate::sort::radix_sort_u64_bounded(data, self.host_workers());
    }

    /// Reduce phase of the map-reduce insert path (§5.4): collapse a sorted
    /// batch into `(key, multiplicity)` pairs (see
    /// [`crate::sort::reduce_by_key_bounded`]).
    pub fn reduce_by_key(&self, sorted: &[u64]) -> Vec<(u64, u64)> {
        crate::sort::reduce_by_key_bounded(sorted, self.host_workers())
    }

    /// Minimum items per parallel task so a launch of `n` items spawns at
    /// most `host_workers` tasks (under a bounded budget) or the default
    /// fine-grained striping (unbounded).
    fn min_task_len(&self, n: usize) -> usize {
        if self.workers == 0 {
            // Chunked striping keeps per-task overhead negligible while
            // still interleaving many simulated groups across CPU workers.
            (n / (rayon::current_num_threads() * 8)).max(1)
        } else {
            n.div_ceil(self.workers.max(1))
        }
    }

    fn launch_inner<F>(
        &self,
        n: usize,
        cg_size: u32,
        active_threads: u64,
        checked: bool,
        kernel: F,
    ) -> KernelStats
    where
        F: Fn(usize) + Sync,
    {
        let before = metrics::snapshot();
        let start = Instant::now();
        bump(Counter::KernelLaunches, 1);
        if checked {
            // Scope every simulated worker so the shadow logger attributes
            // buffer traffic to the region (not the host thread), then
            // assert the launch's cross-region exclusivity invariant.
            let launch = crate::shadow::new_launch_id();
            (0..n).into_par_iter().with_min_len(self.min_task_len(n)).for_each(|r| {
                let _task = crate::shadow::task_enter(launch, r as u64);
                kernel(r)
            });
            crate::shadow::assert_launch_clean(launch, "region");
        } else {
            (0..n).into_par_iter().with_min_len(self.min_task_len(n)).for_each(&kernel);
        }
        let wall = start.elapsed();
        bump(Counter::Items, n as u64);
        let counters = metrics::snapshot().since(&before);
        KernelStats {
            counters,
            wall,
            items: n as u64,
            cg_size,
            active_threads: active_threads.min(self.profile.max_threads.max(1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn point_launch_runs_every_item_once() {
        let dev = Device::cori();
        let n = 10_000;
        let hits = AtomicU64::new(0);
        // The launch counter is bumped on the calling thread; reading only
        // this thread's counters keeps launches from concurrently running
        // tests out of the count.
        let before = metrics::snapshot_current_thread();
        let stats = dev.launch_point(n, 4, |_i| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        let own = metrics::snapshot_current_thread().since(&before);
        assert_eq!(hits.load(Ordering::Relaxed), n as u64);
        assert_eq!(stats.items, n as u64);
        assert_eq!(stats.cg_size, 4);
        assert_eq!(own.get(Counter::KernelLaunches), 1);
        assert!(stats.counters.get(Counter::Items) >= n as u64);
    }

    #[test]
    fn region_launch_covers_all_regions() {
        let dev = Device::perlmutter();
        let n = 513;
        let seen = (0..n).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        let stats = dev.launch_regions(n, |r| {
            seen[r].fetch_add(1, Ordering::Relaxed);
        });
        assert!(seen.iter().all(|s| s.load(Ordering::Relaxed) == 1));
        assert_eq!(stats.active_threads, n as u64);
    }

    #[test]
    fn active_threads_clamped_to_device() {
        let dev = Device::cori();
        let stats = dev.launch_point(1_000_000, 32, |_| {});
        assert!(stats.active_threads <= dev.profile().max_threads);
    }

    #[test]
    fn stats_merge_adds_items_and_walls() {
        let dev = Device::cori();
        let a = dev.launch_regions(10, |_| {});
        let b = dev.launch_regions(20, |_| {});
        let m = a.merge(&b);
        assert_eq!(m.items, 30);
        assert!(m.wall >= a.wall);
    }

    #[test]
    fn worker_budget_resolves_and_bounds() {
        let dev = Device::cori();
        assert_eq!(dev.host_workers(), rayon::current_num_threads(), "auto is the pool width");
        let dev1 = Device::cori().with_workers(1);
        assert_eq!(dev1.host_workers(), 1);
        assert_eq!(dev1.min_task_len(1000), 1000, "one worker ⇒ one task");
        let dev3 = Device::cori().with_workers(3);
        assert_eq!(dev3.min_task_len(1000), 334, "ceil(n / workers)");
    }

    #[test]
    fn par_map_preserves_input_order_for_every_budget() {
        for workers in [0usize, 1, 2, 8] {
            let dev = Device::cori().with_workers(workers);
            let out = dev.par_map(10_000, |i| i as u64 * 3);
            assert!(out.iter().enumerate().all(|(i, &x)| x == i as u64 * 3), "w={workers}");
        }
    }

    #[test]
    fn grouped_launch_gives_each_target_one_group_in_batch_order() {
        let dev = Device::cori().with_workers(2);
        // Interleaved targets, past the small-sort cutoff; payloads are
        // batch positions, so each group's order can be checked.
        let pairs: Vec<(u64, u64)> = (0..20_000u64).map(|i| ((i * 7919) % 37, i)).collect();
        let visited: Vec<AtomicU64> = (0..pairs.len()).map(|_| AtomicU64::new(0)).collect();
        let groups: Vec<AtomicU64> = (0..37).map(|_| AtomicU64::new(0)).collect();
        let launches = |pairs: Vec<(u64, u64)>| {
            let before = metrics::snapshot_current_thread();
            dev.launch_grouped(pairs, |group| {
                let target = group[0].0;
                groups[target as usize].fetch_add(1, Ordering::Relaxed);
                assert!(group.iter().all(|&(t, _)| t == target), "a group mixes targets");
                assert!(group.windows(2).all(|w| w[0].1 < w[1].1), "a group left batch order");
                for &(_, i) in group {
                    visited[i as usize].fetch_add(1, Ordering::Relaxed);
                }
            });
            metrics::snapshot_current_thread().since(&before).get(Counter::KernelLaunches)
        };
        assert_eq!(launches(pairs), 1);
        assert!(visited.iter().all(|v| v.load(Ordering::Relaxed) == 1), "one call per pair");
        assert!(groups.iter().all(|g| g.load(Ordering::Relaxed) == 1), "one group per target");
        assert_eq!(launches(Vec::new()), 0, "an empty batch launches nothing");
    }

    #[test]
    fn even_odd_slices_partition_the_batch_by_region() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut keys: Vec<u64> = (0..50_000).map(|_| rng.gen()).collect();
        keys.sort_unstable();
        // (key, position) items, so every kernel call can mark what it saw.
        let items: Vec<(u64, u64)> = keys.iter().enumerate().map(|(i, &k)| (k, i as u64)).collect();
        // 16 regions of span 2^60 − 1: region 15 also takes the keys above
        // 16 × span, so the slices must still cover the whole batch.
        let (n_regions, span) = (16usize, u64::MAX / 16);
        let region = |k: u64| (k / span).min(n_regions as u64 - 1);
        let mut per_region = vec![0usize; n_regions];
        for &k in &keys {
            per_region[region(k) as usize] += 1;
        }
        let want: usize = per_region.iter().map(|n| n % 7).sum();
        let visited: Vec<AtomicU64> = (0..items.len()).map(|_| AtomicU64::new(0)).collect();
        let calls = AtomicU64::new(0);
        let dev = Device::cori().with_workers(2);
        let got = dev.launch_even_odd(
            &items,
            n_regions,
            span,
            |&(k, _)| k,
            |slice| {
                calls.fetch_add(1, Ordering::Relaxed);
                let g = region(slice[0].0);
                for &(k, i) in slice {
                    assert_eq!(region(k), g, "one call saw keys of two regions");
                    visited[i as usize].fetch_add(1, Ordering::Relaxed);
                }
                slice.len() % 7
            },
        );
        assert!(visited.iter().all(|v| v.load(Ordering::Relaxed) == 1), "not a partition");
        assert_eq!(calls.into_inner(), per_region.iter().filter(|&&n| n > 0).count() as u64);
        assert_eq!(got, want, "the result is the sum of the kernels' results");
    }

    #[test]
    fn even_odd_launches_once_per_occupied_parity() {
        let dev = Device::cori();
        let launches = |keys: &[u64]| {
            let before = metrics::snapshot_current_thread();
            let placed = dev.launch_even_odd(keys, 4, 10, |&k| k, |slice| slice.len());
            assert_eq!(placed, keys.len());
            metrics::snapshot_current_thread().since(&before).get(Counter::KernelLaunches)
        };
        assert_eq!(launches(&[]), 0, "an empty batch launches nothing");
        assert_eq!(launches(&[1, 5, 20, 29]), 1, "regions 0 and 2: the even launch only");
        assert_eq!(launches(&[12, 35]), 1, "regions 1 and 3: the odd launch only");
        assert_eq!(launches(&[3, 12, 25]), 2, "both parities occupied");
    }

    /// The even-odd contract under the sanitizer: each kernel writes its
    /// own region and the first slots of the next, which is idle during
    /// that launch, so neither launch may report a race.
    #[test]
    #[cfg(feature = "race-check")]
    fn even_odd_kernels_may_spill_into_the_next_region() {
        let dev = Device::cori().with_workers(2);
        let (n_regions, span) = (6usize, 16usize);
        let buf = crate::GpuBuffer::new((n_regions + 1) * span, 16);
        let keys: Vec<u64> = (0..(n_regions * span) as u64).collect();
        let before = crate::shadow::launches_verified();
        dev.launch_even_odd(
            &keys,
            n_regions,
            span as u64,
            |&k| k,
            |slice| {
                let base = slice[0] as usize;
                for s in base..base + span + 4 {
                    buf.write(s, 1);
                }
                0
            },
        );
        assert!(crate::shadow::launches_verified() >= before + 2, "both launches verified");
    }

    /// The sanitizer's live-fire proof: a region launch whose kernels
    /// write overlapping slots of one buffer must panic under
    /// `race-check`. (The static analogue lives in `filter-lint`'s
    /// fixtures; this is the dynamic one.)
    #[test]
    #[cfg(feature = "race-check")]
    #[should_panic(expected = "race-check")]
    fn overlapping_region_writes_trip_the_sanitizer() {
        let dev = Device::cori().with_workers(2);
        let buf = crate::GpuBuffer::new(64, 16);
        // Every region writes slot 0: a cross-worker write-write race.
        dev.launch_regions(4, |_r| {
            buf.write(0, 7);
        });
    }

    #[test]
    #[cfg(feature = "race-check")]
    fn disjoint_region_writes_pass_the_sanitizer() {
        let dev = Device::cori().with_workers(2);
        let buf = crate::GpuBuffer::new(64, 16);
        let before = crate::shadow::launches_verified();
        dev.launch_regions(4, |r| {
            let base = r * 16;
            for s in 0..16 {
                buf.write(base + s, s as u64);
            }
            // Reading the worker's own slots back is equally legal.
            for s in 0..16 {
                assert_eq!(buf.read(base + s), s as u64);
            }
        });
        assert!(crate::shadow::launches_verified() > before, "launch was not verified");
        assert!(crate::shadow::accesses_recorded() > 0);
    }

    #[test]
    #[cfg(feature = "race-check")]
    #[should_panic(expected = "read-write")]
    fn cross_worker_read_of_written_slots_trips_the_sanitizer() {
        let dev = Device::cori().with_workers(2);
        let buf = crate::GpuBuffer::new(64, 16);
        dev.launch_regions(2, |r| {
            if r == 0 {
                buf.write(5, 1);
            } else {
                let _ = buf.read(5);
            }
        });
    }

    #[test]
    fn wall_throughput_positive() {
        let dev = Device::cori();
        let stats = dev.launch_point(1000, 1, |_| {
            std::hint::black_box(0u64);
        });
        assert!(stats.wall_throughput() > 0.0);
    }
}
