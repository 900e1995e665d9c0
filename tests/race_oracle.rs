//! Race oracle: registry-wide dynamic verification of the bulk stack's
//! exclusivity invariant, under the `race-check` shadow-memory sanitizer
//! (`gpu-sim::shadow`).
//!
//! The paper's bulk kernels have no locks: even-odd phase ownership
//! (GQF/SQF) and grouped block ownership (TCF: `launch_grouped` gives each
//! block's items to one worker) are supposed to make every
//! table slot reachable by exactly one worker per launch. With
//! `--features race-check`, every `GpuBuffer` access inside a checked
//! launch is logged as `(worker, slot-range, read|write)` and the launch
//! panics on any cross-worker write-write or read-write overlap — so
//! simply *driving* every `FilterKind` through its full bulk surface at
//! several worker budgets is the test. A final liveness assertion proves
//! the sanitizer actually observed accesses (a silently-disabled logger
//! must not pass).
//!
//! Run with: `cargo test --release -p gpu-filters --features race-check
//! --test race_oracle` (release: the logger multiplies memory-op cost).
//! Without the feature this file compiles to nothing and tier-1 is
//! unaffected.

#![cfg(feature = "race-check")]

use gpu_filters::{build_filter, AnyFilter, FilterError, FilterKind, FilterSpec, Parallelism};

const ITEMS: u64 = 2000;
const UNIVERSE: usize = 900;
const ROUNDS: usize = 2;
const INSERTS_PER_ROUND: usize = 350;
const DELETES_PER_ROUND: usize = 120;
const PROBES: usize = 4000;

/// Worker budgets under which every kind's bulk surface must stay
/// race-free. `Sequential` is included deliberately: the invariant is
/// about *simulated* workers (region / item ids), so a single host
/// thread replaying all workers still detects ownership violations.
const SETTINGS: [Parallelism; 3] =
    [Parallelism::Sequential, Parallelism::Threads(2), Parallelism::Threads(8)];

/// splitmix64, same shape as the parallel oracle's.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

fn insert_all(f: &AnyFilter, batch: &[u64]) {
    let mut out = vec![gpu_filters::InsertOutcome::Inserted; batch.len()];
    match f.bulk_insert_report(batch, &mut out) {
        Ok(()) => {}
        Err(FilterError::Unsupported(_)) => {
            for &k in batch {
                let _ = f.insert(k);
            }
        }
        Err(e) => panic!("insert: {e}"),
    }
}

fn query_all(f: &AnyFilter, batch: &[u64]) {
    match f.bulk_query_vec(batch) {
        Ok(_) => {}
        Err(FilterError::Unsupported(_)) => {
            for &k in batch {
                let _ = f.contains(k);
            }
        }
        Err(e) => panic!("query: {e}"),
    }
}

fn delete_all(f: &AnyFilter, batch: &[u64]) {
    let mut out = vec![gpu_filters::DeleteOutcome::NotFound; batch.len()];
    match f.bulk_delete_report(batch, &mut out) {
        Ok(()) => {}
        Err(FilterError::Unsupported(_)) => {
            for &k in batch {
                let _ = f.remove(k);
            }
        }
        Err(e) => panic!("delete: {e}"),
    }
}

/// Drive one kind's whole bulk surface under one worker budget. Every
/// checked launch self-verifies on completion — a violation panics with
/// a `race-check:` message naming the overlapping workers and slots.
fn drive(kind: FilterKind, parallelism: Parallelism, grow: bool) {
    let seed =
        kind.name().bytes().fold(0x5eed_u64, |a, b| a.wrapping_mul(31).wrapping_add(u64::from(b)));
    let mut rng = Rng(seed);
    let universe = filter_core::hashed_keys(0xabad ^ seed, UNIVERSE);
    let probes = filter_core::hashed_keys(0xcafe ^ seed, PROBES);

    let spec = FilterSpec::items(ITEMS).fp_rate(4e-2).parallelism(parallelism);
    let mut f = build_filter(kind, &spec).unwrap_or_else(|e| panic!("{kind}@{parallelism}: {e}"));
    for _ in 0..ROUNDS {
        let batch: Vec<u64> =
            (0..INSERTS_PER_ROUND).map(|_| universe[rng.below(UNIVERSE)]).collect();
        insert_all(&f, &batch);
        if grow {
            f.grow(2).unwrap_or_else(|e| panic!("{kind}@{parallelism}: grow: {e}"));
            query_all(&f, &batch);
            query_all(&f, &probes);
            return;
        }
        query_all(&f, &batch);
        let victims: Vec<u64> =
            (0..DELETES_PER_ROUND).map(|_| universe[rng.below(UNIVERSE)]).collect();
        delete_all(&f, &victims);
        query_all(&f, &probes);
    }
}

#[test]
fn every_kind_is_race_free_at_every_worker_budget() {
    let launches_before = gpu_sim::shadow::launches_verified();
    for kind in FilterKind::ALL {
        for setting in SETTINGS {
            drive(kind, setting, false);
        }
    }
    // Liveness: the sanitizer must have verified launches and observed
    // real accesses, otherwise this tier is vacuous.
    assert!(
        gpu_sim::shadow::launches_verified() > launches_before,
        "race-check sanitizer verified no launches — the tier is not exercising it"
    );
    assert!(
        gpu_sim::shadow::accesses_recorded() > 0,
        "race-check sanitizer recorded no accesses — the memory hooks are dead"
    );
}

#[test]
fn growth_migrations_are_race_free() {
    // A grow is itself a bulk pipeline (enumerate -> sort -> phased
    // apply) and must uphold the same per-launch exclusivity.
    for kind in FilterKind::ALL {
        let spec = FilterSpec::items(ITEMS).fp_rate(4e-2);
        if !build_filter(kind, &spec).unwrap().supports_growth() {
            continue;
        }
        for setting in SETTINGS {
            drive(kind, setting, true);
        }
    }
}
