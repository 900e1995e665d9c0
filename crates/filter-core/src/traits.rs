//! Filter traits: the uniform API surface over every filter in the
//! workspace (paper Table 1 is generated from these impls).
//!
//! Point APIs take `&self` and must be safe to call from many threads at
//! once — this mirrors the paper's device-side point APIs, where every CUDA
//! thread operates on the shared filter concurrently. Bulk APIs also take
//! `&self`; internally they launch cooperative kernels.

use crate::error::FilterError;
use crate::features::Features;
use crate::outcome::{count_delete_misses, count_insert_failures, DeleteOutcome, InsertOutcome};

/// Static metadata about a filter implementation.
pub trait FilterMeta {
    /// Short display name used in benchmark tables ("TCF", "GQF", ...).
    fn name(&self) -> &'static str;

    /// Which operations this filter supports, in which API modes (Table 1).
    fn features(&self) -> Features;

    /// Total heap bytes owned by the filter's table(s) — used for the
    /// bits-per-item measurements of Table 2.
    fn table_bytes(&self) -> usize;

    /// Number of slots (or bits, for Bloom variants) the filter was sized
    /// for; `2^q` in quotient-filter terms.
    fn capacity_slots(&self) -> u64;

    /// Maximum recommended load factor (0.9 for TCF/GQF per the paper).
    fn max_load_factor(&self) -> f64 {
        0.9
    }
}

/// Approximate-membership filter: point insert and query.
pub trait Filter: FilterMeta + Sync {
    /// Insert one item. Returns `Err(FilterError::Full)` when the structure
    /// cannot place the item (both TCF blocks + backing table full, etc.).
    fn insert(&self, key: u64) -> Result<(), FilterError>;

    /// Query one item: `true` means "possibly present" (false positives at
    /// rate ε), `false` means "definitely absent" (no false negatives).
    fn contains(&self, key: u64) -> bool;

    /// Current number of occupied slots (approximate for concurrent use).
    fn len(&self) -> usize;

    /// True when no items are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Filters supporting point deletion (TCF, GQF, SQF).
pub trait Deletable: Filter {
    /// Remove one instance of `key`. Returns `true` if a matching
    /// fingerprint was found and removed.
    ///
    /// Like all practical filters, deleting a key that was never inserted
    /// may remove a colliding fingerprint; callers must only delete keys
    /// they previously inserted.
    fn remove(&self, key: u64) -> Result<bool, FilterError>;
}

/// Counting filters (GQF): multiset semantics with count queries.
pub trait Counting: Filter {
    /// Insert `count` instances of `key` in one operation.
    fn insert_count(&self, key: u64, count: u64) -> Result<(), FilterError>;

    /// Estimated count of `key`. Never undercounts: the returned value is
    /// ≥ the true count, and equals it unless a fingerprint collision
    /// occurred (probability ≤ ε).
    fn count(&self, key: u64) -> u64;
}

/// Filters that can associate a small value with each item (TCF, GQF).
pub trait Valued: Filter {
    /// Number of value bits storable per item.
    fn value_bits(&self) -> u32;

    /// Insert `key` with an associated value (truncated to `value_bits`).
    fn insert_value(&self, key: u64, value: u64) -> Result<(), FilterError>;

    /// Look up the value associated with `key`; `None` when absent.
    /// A false positive may return an arbitrary colliding value.
    fn query_value(&self, key: u64) -> Option<u64>;
}

/// Host-side bulk API: one call ingests/queries an entire batch, using the
/// sorted/cooperative kernels described in §4.2 (bulk TCF) and §5.3 (GQF
/// even-odd phased insertion).
pub trait BulkFilter: FilterMeta + Sync {
    /// Insert a batch, reporting each key's outcome: `out[i]` answers
    /// `keys[i]` (`out.len()` must equal `keys.len()`). The paper's bulk
    /// filters report failures rather than aborting the batch; this is the
    /// per-key form a serving layer needs to acknowledge individual
    /// callers without re-querying the batch.
    fn bulk_insert_report(
        &self,
        keys: &[u64],
        out: &mut [InsertOutcome],
    ) -> Result<(), FilterError>;

    /// Aggregate form: insert a batch and return the number of items that
    /// failed (0 on full success).
    fn bulk_insert(&self, keys: &[u64]) -> Result<usize, FilterError> {
        let mut out = vec![InsertOutcome::Inserted; keys.len()];
        self.bulk_insert_report(keys, &mut out)?;
        Ok(count_insert_failures(&out))
    }

    /// Query a batch; `out[i]` corresponds to `keys[i]`.
    fn bulk_query(&self, keys: &[u64], out: &mut [bool]);

    /// Convenience wrapper allocating the output vector.
    fn bulk_query_vec(&self, keys: &[u64]) -> Vec<bool> {
        let mut out = vec![false; keys.len()];
        self.bulk_query(keys, &mut out);
        out
    }
}

/// The capacity-lifecycle capability (PR 5): load accounting, in-place
/// growth, and merging — the maintenance operations a long-lived
/// deployment needs once capacity stops being a constructor-time constant.
///
/// The paper's GQF is built for exactly this (its stored hashes losslessly
/// represent `h(S)`, so remainders migrate wholesale into a larger table,
/// §5); the TCF grows by doubling its block array and splitting each
/// block's fingerprints between the two children; SQF/RSQF extend their
/// quotient by re-splitting the same `p = q + r` stored bits. All
/// migrations run on the bulk-synchronous phase abstraction, so they are
/// scheduling-independent like every other bulk path (the parallel-oracle
/// tier's contract).
pub trait MaintainableFilter: FilterMeta {
    /// Current load factor in `[0, 1]`: the fraction of capacity in use.
    /// Monotone under inserts and strictly decreasing across a grow.
    fn load(&self) -> f64;

    /// Multiply capacity by `factor` (a power of two ≥ 2) in place,
    /// migrating every stored fingerprint — with its count/value — into
    /// the larger geometry. Membership answers for previously inserted
    /// keys are preserved exactly; the realized false-positive rate after
    /// one doubling stays within 2× of the construction target. On error
    /// the filter is unchanged.
    fn grow(&mut self, factor: u32) -> Result<(), FilterError>;

    /// Absorb `other`'s entire contents into `self` (counts summed for
    /// counting filters). Requires compatible geometry — filters built
    /// from the same spec stay compatible across grows. Returns
    /// [`FilterError::NeedsGrowth`] (state unchanged) when `self` lacks
    /// room; callers grow and retry.
    fn merge(&mut self, other: &Self) -> Result<(), FilterError>
    where
        Self: Sized;
}

/// Validate and decompose a growth factor into doubling steps.
/// Shared by every [`MaintainableFilter`] implementation.
pub fn growth_steps(factor: u32) -> Result<u32, FilterError> {
    if factor < 2 || !factor.is_power_of_two() {
        return Err(FilterError::BadConfig(format!(
            "growth factor must be a power of two >= 2, got {factor}"
        )));
    }
    Ok(factor.trailing_zeros())
}

/// Bulk deletion (TCF, GQF, SQF).
pub trait BulkDeletable: BulkFilter {
    /// Delete a batch of previously-inserted keys, reporting each key's
    /// outcome: `out[i]` answers `keys[i]` (`out.len()` must equal
    /// `keys.len()`). As with point deletes, a key that was never inserted
    /// may report [`DeleteOutcome::Removed`] when it collides with a
    /// stored fingerprint.
    fn bulk_delete_report(
        &self,
        keys: &[u64],
        out: &mut [DeleteOutcome],
    ) -> Result<(), FilterError>;

    /// Aggregate form: delete a batch and return the number of keys whose
    /// fingerprints were not found.
    fn bulk_delete(&self, keys: &[u64]) -> Result<usize, FilterError> {
        let mut out = vec![DeleteOutcome::NotFound; keys.len()];
        self.bulk_delete_report(keys, &mut out)?;
        Ok(count_delete_misses(&out))
    }
}

/// Everything a serving layer (the `filter-service` crate) needs from a
/// filter backend: the [`BulkFilter`] batch surface, on a type that can
/// move to a shard worker thread.
///
/// Blanket-implemented for every thread-crossing [`BulkFilter`]. This is
/// the inverse of the paper's observation that bulk APIs amortize what
/// point APIs pay per call (§4.2, §5.3) — a serving layer aggregates point
/// traffic *back into* batches, so the only surface it needs is the bulk
/// one.
pub trait ServiceBackend: BulkFilter + Send {}

impl<T: BulkFilter + Send + ?Sized> ServiceBackend for T {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{ApiMode, Features, Operation};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A trivially correct exact "filter" used to exercise the trait
    /// surface and default methods.
    struct ExactSet {
        items: parking_lot_free::Mutex<std::collections::HashSet<u64>>,
        len: AtomicUsize,
    }

    // Minimal mutex shim so filter-core keeps zero runtime deps.
    mod parking_lot_free {
        pub use std::sync::Mutex as StdMutex;
        pub struct Mutex<T>(StdMutex<T>);
        impl<T> Mutex<T> {
            pub fn new(v: T) -> Self {
                Mutex(StdMutex::new(v))
            }
            pub fn lock(&self) -> std::sync::MutexGuard<'_, T> {
                self.0.lock().unwrap()
            }
        }
    }

    impl ExactSet {
        fn new() -> Self {
            ExactSet {
                items: parking_lot_free::Mutex::new(Default::default()),
                len: AtomicUsize::new(0),
            }
        }
    }

    impl FilterMeta for ExactSet {
        fn name(&self) -> &'static str {
            "ExactSet"
        }
        fn features(&self) -> Features {
            Features::new("ExactSet")
                .with(Operation::Insert, ApiMode::Point)
                .with(Operation::Query, ApiMode::Point)
        }
        fn table_bytes(&self) -> usize {
            self.items.lock().len() * 8
        }
        fn capacity_slots(&self) -> u64 {
            u64::MAX
        }
    }

    impl Filter for ExactSet {
        fn insert(&self, key: u64) -> Result<(), FilterError> {
            if self.items.lock().insert(key) {
                self.len.fetch_add(1, Ordering::Relaxed);
            }
            Ok(())
        }
        fn contains(&self, key: u64) -> bool {
            self.items.lock().contains(&key)
        }
        fn len(&self) -> usize {
            self.len.load(Ordering::Relaxed)
        }
    }

    #[test]
    fn default_is_empty() {
        let s = ExactSet::new();
        assert!(s.is_empty());
        s.insert(5).unwrap();
        assert!(!s.is_empty());
        assert!(s.contains(5));
        assert!(!s.contains(6));
    }

    #[test]
    fn default_max_load_factor() {
        let s = ExactSet::new();
        assert_eq!(s.max_load_factor(), 0.9);
    }

    #[test]
    fn growth_steps_validates_factors() {
        assert_eq!(growth_steps(2).unwrap(), 1);
        assert_eq!(growth_steps(8).unwrap(), 3);
        assert!(growth_steps(0).is_err());
        assert!(growth_steps(1).is_err());
        assert!(growth_steps(3).is_err());
        assert!(growth_steps(6).is_err());
    }

    #[test]
    fn filter_trait_is_object_safe() {
        let s = ExactSet::new();
        let dyn_f: &dyn Filter = &s;
        dyn_f.insert(1).unwrap();
        assert!(dyn_f.contains(1));
    }
}
