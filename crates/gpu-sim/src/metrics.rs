//! Memory-traffic and execution counters.
//!
//! Every simulated-GPU memory access records into a per-thread slot
//! (single-writer, so plain relaxed stores — no RMW cost on the hot path).
//! The benchmark harness snapshots the global aggregate before and after a
//! kernel and diffs; the difference feeds the analytic cost model
//! ([`crate::cost`]) that converts transaction counts into modeled GPU time.
//! A thread that exits folds its counts into a retired total and leaves
//! the registry, so a snapshot walks only live threads and stays
//! cumulative for the process.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of distinct counters tracked.
pub const N_COUNTERS: usize = 12;

/// Counter indices (also used as display order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// 128-byte global-memory cache-line reads.
    LinesLoaded = 0,
    /// 128-byte global-memory cache-line writes (a coalesced write = 1).
    LinesStored = 1,
    /// Global atomic operations issued (CAS/OR/ADD/EXCH attempts).
    AtomicOps = 2,
    /// CAS attempts that failed (contention or neighbor-bit interference).
    CasFailures = 3,
    /// CAS failures caused purely by bits *outside* the slot (sub-word
    /// packing interference, §4.1 of the paper).
    NeighborInterference = 4,
    /// Shared-memory (block-local) accesses.
    SharedOps = 5,
    /// Cooperative-group strides (compute proxy: one stride = each lane of
    /// the CG processes one slot).
    CgSteps = 6,
    /// Branches where lanes of one CG took different paths.
    DivergentBranches = 7,
    /// Region-lock acquisitions (point GQF).
    LockAcquires = 8,
    /// Spin iterations while waiting for a region lock (thrashing proxy).
    LockSpins = 9,
    /// Kernel launches.
    KernelLaunches = 10,
    /// Items processed (set by the launch wrappers).
    Items = 11,
}

/// A plain, copyable snapshot of all counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// One slot per [`Counter`] variant, indexed by discriminant.
    pub vals: [u64; N_COUNTERS],
}

impl Counters {
    /// Value of one counter.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.vals[c as usize]
    }

    /// Element-wise difference (`self - earlier`), saturating at zero.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let mut out = Counters::default();
        for i in 0..N_COUNTERS {
            out.vals[i] = self.vals[i].saturating_sub(earlier.vals[i]);
        }
        out
    }

    /// Element-wise sum.
    pub fn merge(&self, other: &Counters) -> Counters {
        let mut out = *self;
        for i in 0..N_COUNTERS {
            out.vals[i] += other.vals[i];
        }
        out
    }

    /// Human-readable multi-line rendering (used by the harness's
    /// `--verbose` mode and EXPERIMENTS.md appendices).
    pub fn render(&self) -> String {
        const NAMES: [&str; N_COUNTERS] = [
            "lines_loaded",
            "lines_stored",
            "atomic_ops",
            "cas_failures",
            "neighbor_interference",
            "shared_ops",
            "cg_steps",
            "divergent_branches",
            "lock_acquires",
            "lock_spins",
            "kernel_launches",
            "items",
        ];
        let mut s = String::new();
        for (i, name) in NAMES.iter().enumerate() {
            s.push_str(&format!("{name:>22}: {}\n", self.vals[i]));
        }
        s
    }
}

/// Per-thread counter slot. Only its owning thread writes it; any thread
/// may read it (relaxed) during a snapshot.
struct ThreadSlot {
    vals: [AtomicU64; N_COUNTERS],
}

impl ThreadSlot {
    fn new() -> Self {
        ThreadSlot { vals: std::array::from_fn(|_| AtomicU64::new(0)) }
    }

    #[inline(always)]
    fn bump(&self, c: Counter, by: u64) {
        // Single-writer: a load+store pair is safe and cheaper than RMW.
        let cell = &self.vals[c as usize];
        cell.store(cell.load(Ordering::Relaxed) + by, Ordering::Relaxed);
    }
}

/// The slots of live threads plus the counts of threads that have exited.
struct Registry {
    live: Vec<Arc<ThreadSlot>>,
    retired: Counters,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry { live: Vec::new(), retired: Counters::default() }))
}

/// Lock the registry. Every update leaves it consistent (a push, or a
/// retirement that adds the counts and then removes the slot), so a guard
/// poisoned by a panic elsewhere is still sound to use.
fn lock_registry() -> std::sync::MutexGuard<'static, Registry> {
    registry().lock().unwrap_or_else(|e| e.into_inner())
}

/// A thread's registered slot; dropping it (at thread exit) retires it.
struct SlotHandle(Arc<ThreadSlot>);

impl Drop for SlotHandle {
    fn drop(&mut self) {
        let mut reg = lock_registry();
        for i in 0..N_COUNTERS {
            reg.retired.vals[i] += self.0.vals[i].load(Ordering::Relaxed);
        }
        if let Some(pos) = reg.live.iter().position(|s| Arc::ptr_eq(s, &self.0)) {
            reg.live.swap_remove(pos);
        }
    }
}

thread_local! {
    static SLOT: SlotHandle = {
        let slot = Arc::new(ThreadSlot::new());
        lock_registry().live.push(Arc::clone(&slot));
        SlotHandle(slot)
    };
}

/// Record `by` events of kind `c` for the current thread.
#[inline(always)]
pub fn bump(c: Counter, by: u64) {
    SLOT.with(|s| s.0.bump(c, by));
}

/// Snapshot the aggregate across all threads that ever recorded traffic:
/// the live threads' slots plus the retired total of those that exited.
///
/// Counters are cumulative for the process lifetime; callers measure a
/// window by diffing two snapshots ([`Counters::since`]).
pub fn snapshot() -> Counters {
    let reg = lock_registry();
    let mut out = reg.retired;
    for slot in &reg.live {
        for i in 0..N_COUNTERS {
            out.vals[i] += slot.vals[i].load(Ordering::Relaxed);
        }
    }
    out
}

/// Slots in the registry (live threads only).
#[cfg(test)]
fn live_slots() -> usize {
    lock_registry().live.len()
}

/// Snapshot only the calling thread's counters — immune to traffic from
/// concurrently running threads. Used by tests that assert exact counts
/// for single-threaded access sequences.
pub fn snapshot_current_thread() -> Counters {
    SLOT.with(|SlotHandle(s)| {
        let mut out = Counters::default();
        for i in 0..N_COUNTERS {
            out.vals[i] = s.vals[i].load(Ordering::Relaxed);
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_visible_in_snapshot() {
        let before = snapshot();
        bump(Counter::LinesLoaded, 3);
        bump(Counter::AtomicOps, 1);
        let diff = snapshot().since(&before);
        assert!(diff.get(Counter::LinesLoaded) >= 3);
        assert!(diff.get(Counter::AtomicOps) >= 1);
    }

    #[test]
    fn since_saturates() {
        let mut a = Counters::default();
        let mut b = Counters::default();
        a.vals[0] = 5;
        b.vals[0] = 10;
        assert_eq!(a.since(&b).vals[0], 0);
        assert_eq!(b.since(&a).vals[0], 5);
    }

    #[test]
    fn merge_adds() {
        let mut a = Counters::default();
        let mut b = Counters::default();
        a.vals[2] = 7;
        b.vals[2] = 4;
        assert_eq!(a.merge(&b).vals[2], 11);
    }

    #[test]
    fn cross_thread_snapshot_sees_all() {
        let before = snapshot();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..100 {
                        bump(Counter::SharedOps, 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let diff = snapshot().since(&before);
        assert!(diff.get(Counter::SharedOps) >= 400);
    }

    #[test]
    fn exited_threads_keep_their_counts_and_leave_the_registry() {
        let before = snapshot();
        let slots_before = live_slots();
        let handles: Vec<_> =
            (0..64).map(|_| std::thread::spawn(|| bump(Counter::LockSpins, 1))).collect();
        for h in handles {
            h.join().unwrap();
        }
        let diff = snapshot().since(&before);
        assert!(diff.get(Counter::LockSpins) >= 64, "retired counts were lost");
        assert!(live_slots() < slots_before + 64, "exited threads stayed registered");
    }

    #[test]
    fn render_lists_every_counter() {
        let c = snapshot();
        let r = c.render();
        assert!(r.contains("lines_loaded"));
        assert!(r.contains("lock_spins"));
        assert!(r.contains("items"));
        assert_eq!(r.lines().count(), N_COUNTERS);
    }
}
