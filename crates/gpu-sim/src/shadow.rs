//! Shadow-memory access logging: a data-race sanitizer for the simulated
//! GPU (feature `race-check`).
//!
//! The paper's correctness story rests on *exclusive region ownership*:
//! per-block locks for the point kernels, even-odd phase ownership for the
//! bulk kernels. The bulk side has no locks at all — [`crate::GpuBuffer`]
//! deliberately uses plain (tracked) reads and writes inside region
//! kernels, because the phase structure is supposed to make every slot
//! reachable by exactly one worker per launch. Nothing verified that
//! claim mechanically until now.
//!
//! With `--features race-check`, every [`GpuBuffer`](crate::GpuBuffer)
//! access made inside a checked launch ([`crate::Device::par_map`], and
//! [`crate::Device::launch_regions`] with its wrappers
//! [`crate::Device::launch_grouped`] and [`crate::Device::launch_even_odd`])
//! is recorded into a per-launch shadow log as
//! `(worker, buffer, slot-range, read|write)`, where *worker* is the
//! simulated task index (the region / item id), **not** the host thread —
//! the exclusivity invariant is about the simulated machine, and must
//! hold for every host schedule. When the launch completes,
//! `verify_launch` asserts that across any two distinct workers:
//!
//! * write ranges never overlap (write-write race), and
//! * write ranges never overlap read ranges (read-write race).
//!
//! Atomic operations (`cas`, `atomic_or`, `atomic_add`, `atomic_exch`)
//! are *not* recorded: they are the sanctioned synchronization vocabulary,
//! exactly as ThreadSanitizer exempts atomics. Point launches
//! ([`crate::Device::launch_point`]) are also exempt — point kernels race
//! through atomics and simulated per-block locks by design.
//!
//! Without the feature, every hook in this module is an empty `#[inline]`
//! function and the logger costs nothing.

#[cfg(feature = "race-check")]
mod imp {
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// One coalesced access record: `worker` touched `buffer` slots
    /// `[start, end)`.
    #[derive(Debug, Clone, Copy)]
    pub struct Access {
        pub buffer: u64,
        pub worker: u64,
        pub start: usize,
        pub end: usize,
        pub write: bool,
    }

    /// A write-write or read-write overlap between two workers.
    #[derive(Debug, Clone)]
    pub struct Violation {
        pub buffer: u64,
        pub first: Access,
        pub second: Access,
    }

    impl std::fmt::Display for Violation {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            let kind =
                if self.first.write && self.second.write { "write-write" } else { "read-write" };
            write!(
                f,
                "{kind} race on buffer #{}: worker {} {} slots {}..{} vs worker {} {} slots {}..{}",
                self.buffer,
                self.first.worker,
                if self.first.write { "wrote" } else { "read" },
                self.first.start,
                self.first.end,
                self.second.worker,
                if self.second.write { "wrote" } else { "read" },
                self.second.start,
                self.second.end,
            )
        }
    }

    static NEXT_BUFFER: AtomicU64 = AtomicU64::new(1);
    static NEXT_LAUNCH: AtomicU64 = AtomicU64::new(1);
    static LAUNCHES_VERIFIED: AtomicU64 = AtomicU64::new(0);
    static ACCESSES_RECORDED: AtomicU64 = AtomicU64::new(0);

    /// Per-launch logs, keyed by launch id. Concurrent launches (e.g. two
    /// filters under test in different threads) keep separate logs and can
    /// never cross-contaminate: buffer ids are globally unique.
    fn logs() -> &'static Mutex<HashMap<u64, Vec<Access>>> {
        static LOGS: std::sync::OnceLock<Mutex<HashMap<u64, Vec<Access>>>> =
            std::sync::OnceLock::new();
        LOGS.get_or_init(|| Mutex::new(HashMap::new()))
    }

    thread_local! {
        /// The (launch, worker) scope the current host thread is executing,
        /// plus the thread-local record buffer flushed at scope exit.
        static CURRENT: RefCell<Option<TaskScope>> = const { RefCell::new(None) };
    }

    struct TaskScope {
        launch: u64,
        worker: u64,
        records: Vec<Access>,
    }

    /// Allocate a shadow id for a new buffer.
    pub fn new_buffer_id() -> u64 {
        NEXT_BUFFER.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocate a launch id (one per checked launch).
    pub fn new_launch_id() -> u64 {
        NEXT_LAUNCH.fetch_add(1, Ordering::Relaxed)
    }

    /// Enter a simulated worker's scope on this host thread. Returns the
    /// previous scope so nested launches restore correctly.
    pub fn task_enter(launch: u64, worker: u64) -> TaskToken {
        CURRENT.with(|c| {
            let prev = c.replace(Some(TaskScope { launch, worker, records: Vec::new() }));
            TaskToken { prev }
        })
    }

    /// RAII token restoring the previous scope and flushing records.
    pub struct TaskToken {
        prev: Option<TaskScope>,
    }

    impl Drop for TaskToken {
        fn drop(&mut self) {
            CURRENT.with(|c| {
                let fin = c.replace(self.prev.take());
                if let Some(scope) = fin {
                    if !scope.records.is_empty() {
                        ACCESSES_RECORDED.fetch_add(scope.records.len() as u64, Ordering::Relaxed);
                        let mut logs = logs().lock().unwrap_or_else(|e| e.into_inner());
                        logs.entry(scope.launch).or_default().extend(scope.records);
                    }
                }
            });
        }
    }

    /// Record an access to `buffer` slots `[start, end)` by the worker
    /// currently scoped on this thread (no-op outside a checked launch).
    /// Adjacent same-kind accesses coalesce so cluster walks and span
    /// loads stay one record each.
    pub fn record(buffer: u64, start: usize, end: usize, write: bool) {
        if end <= start {
            return;
        }
        CURRENT.with(|c| {
            let mut cur = c.borrow_mut();
            let Some(scope) = cur.as_mut() else { return };
            if let Some(last) = scope.records.last_mut() {
                // Coalesce with the previous record when it is the same
                // kind on the same buffer and the ranges touch or overlap.
                if last.buffer == buffer
                    && last.write == write
                    && start <= last.end
                    && end >= last.start
                {
                    last.start = last.start.min(start);
                    last.end = last.end.max(end);
                    return;
                }
            }
            let worker = scope.worker;
            scope.records.push(Access { buffer, worker, start, end, write });
        });
    }

    /// Check one launch's log for cross-worker overlaps and drop it.
    /// Returns every violation (empty = the launch upheld the exclusivity
    /// invariant).
    pub fn verify_launch(launch: u64) -> Vec<Violation> {
        let records = {
            let mut logs = logs().lock().unwrap_or_else(|e| e.into_inner());
            logs.remove(&launch).unwrap_or_default()
        };
        LAUNCHES_VERIFIED.fetch_add(1, Ordering::Relaxed);
        let mut by_buffer: HashMap<u64, Vec<Access>> = HashMap::new();
        for r in records {
            by_buffer.entry(r.buffer).or_default().push(r);
        }
        let mut violations = Vec::new();
        for (buffer, mut accesses) in by_buffer {
            // Sweep in slot order; a record conflicts with every record
            // starting before it ends, so compare each against the live
            // window of overlapping predecessors.
            accesses.sort_by_key(|a| (a.start, a.end));
            let mut window: Vec<Access> = Vec::new();
            for a in accesses {
                window.retain(|w| w.end > a.start);
                for w in &window {
                    if w.worker != a.worker && (w.write || a.write) {
                        violations.push(Violation { buffer, first: *w, second: a });
                    }
                }
                window.push(a);
            }
        }
        violations
    }

    /// Panic-on-violation wrapper used by the launch machinery.
    pub fn assert_launch_clean(launch: u64, what: &str) {
        let violations = verify_launch(launch);
        if let Some(v) = violations.first() {
            panic!("race-check: {} violation(s) in {what} launch — first: {v}", violations.len());
        }
    }

    /// Launches verified since process start (sanitizer liveness signal).
    pub fn launches_verified() -> u64 {
        LAUNCHES_VERIFIED.load(Ordering::Relaxed)
    }

    /// Coalesced access records flushed since process start.
    pub fn accesses_recorded() -> u64 {
        ACCESSES_RECORDED.load(Ordering::Relaxed)
    }
}

#[cfg(feature = "race-check")]
pub use imp::{
    accesses_recorded, assert_launch_clean, launches_verified, new_buffer_id, new_launch_id,
    record, task_enter, verify_launch, Access, TaskToken, Violation,
};

#[cfg(not(feature = "race-check"))]
mod stub {
    //! Zero-cost stand-ins compiled without `race-check`: the launch and
    //! memory hooks below inline to nothing.

    /// Stand-in scope token (no state).
    pub struct TaskToken;

    #[inline(always)]
    pub fn new_buffer_id() -> u64 {
        0
    }

    #[inline(always)]
    pub fn new_launch_id() -> u64 {
        0
    }

    #[inline(always)]
    pub fn task_enter(_launch: u64, _worker: u64) -> TaskToken {
        TaskToken
    }

    #[inline(always)]
    pub fn record(_buffer: u64, _start: usize, _end: usize, _write: bool) {}

    #[inline(always)]
    pub fn assert_launch_clean(_launch: u64, _what: &str) {}

    /// Always 0 without the feature.
    #[inline(always)]
    pub fn launches_verified() -> u64 {
        0
    }

    /// Always 0 without the feature.
    #[inline(always)]
    pub fn accesses_recorded() -> u64 {
        0
    }
}

#[cfg(not(feature = "race-check"))]
pub use stub::{
    accesses_recorded, assert_launch_clean, launches_verified, new_buffer_id, new_launch_id,
    record, task_enter, TaskToken,
};

#[cfg(all(test, feature = "race-check"))]
mod tests {
    use super::*;

    #[test]
    fn disjoint_writes_are_clean() {
        let launch = new_launch_id();
        let buf = new_buffer_id();
        for w in 0..4u64 {
            let tok = task_enter(launch, w);
            record(buf, w as usize * 10, w as usize * 10 + 10, true);
            drop(tok);
        }
        assert!(verify_launch(launch).is_empty());
    }

    #[test]
    fn cross_worker_write_overlap_is_a_violation() {
        let launch = new_launch_id();
        let buf = new_buffer_id();
        let tok = task_enter(launch, 0);
        record(buf, 0, 16, true);
        drop(tok);
        let tok = task_enter(launch, 1);
        record(buf, 8, 24, true);
        drop(tok);
        let v = verify_launch(launch);
        assert_eq!(v.len(), 1);
        assert!(v[0].to_string().contains("write-write"));
    }

    #[test]
    fn read_write_overlap_is_a_violation_but_read_read_is_not() {
        let launch = new_launch_id();
        let buf = new_buffer_id();
        let tok = task_enter(launch, 0);
        record(buf, 0, 16, false);
        drop(tok);
        let tok = task_enter(launch, 1);
        record(buf, 0, 16, false);
        drop(tok);
        assert!(verify_launch(launch).is_empty(), "read-read must be legal");

        let launch = new_launch_id();
        let tok = task_enter(launch, 0);
        record(buf, 0, 16, false);
        drop(tok);
        let tok = task_enter(launch, 1);
        record(buf, 4, 8, true);
        drop(tok);
        let v = verify_launch(launch);
        assert_eq!(v.len(), 1);
        assert!(v[0].to_string().contains("read-write"));
    }

    #[test]
    fn same_worker_overlap_is_legal_and_coalesces() {
        let launch = new_launch_id();
        let buf = new_buffer_id();
        let tok = task_enter(launch, 3);
        // A cluster walk: many adjacent writes coalesce to one record.
        for slot in 0..64 {
            record(buf, slot, slot + 1, true);
        }
        record(buf, 10, 20, true);
        drop(tok);
        assert!(verify_launch(launch).is_empty());
    }

    #[test]
    fn accesses_outside_a_task_scope_are_ignored() {
        let before = accesses_recorded();
        record(new_buffer_id(), 0, 100, true);
        assert_eq!(accesses_recorded(), before);
    }
}
