//! An exact linear-probing hash table with even-odd phased bulk insertion.
//!
//! This is the paper's §5.3 scheme lifted out of the quotient filter: the
//! table is split into 8192-slot regions; a bulk batch is sorted by home
//! slot, then [`Device::launch_even_odd`] (the apply phase the bulk GQF
//! also runs) partitions it into per-region buffers by successor search
//! and updates the even regions first, then the odd ones. A probe
//! sequence that overflows its region only ever reaches the *next*
//! region, which is guaranteed idle during the current phase, so no locks
//! or atomics are needed on the bulk path. The same structure also offers a concurrent
//! point API (CAS claim, then value publish) and a locking bulk baseline
//! for the ablation benchmarks.
//!
//! Unlike the filters in this workspace the table is exact: full 64-bit
//! keys are stored, and `get` never returns a false positive.

use filter_core::{hash64, FilterError};
use gpu_sim::locks::RegionLocks;
use gpu_sim::{Device, GpuBuffer};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Slots per exclusive-access region — the paper's 8192, which keeps
/// phased writers ≈16K slots apart (§5.3).
pub const REGION_SLOTS: usize = 8192;

/// Key slot states. User keys must avoid both sentinels.
const EMPTY_KEY: u64 = 0;
const TOMBSTONE_KEY: u64 = u64::MAX;

/// Value published marker: a claimed slot holds this until its value
/// lands. User values must be `< u64::MAX`.
const VALUE_UNSET: u64 = u64::MAX;

/// How long a reader waits for an in-flight value publish before
/// linearizing the lookup *before* the racing insert.
const PUBLISH_SPINS: usize = 1 << 10;

/// Longest legal probe sequence: one full region of slack, the same bound
/// the even-odd phases rely on.
const MAX_PROBE: usize = REGION_SLOTS;

/// An exact, GPU-style linear-probing key→value table.
///
/// Semantics under concurrency (point API):
/// * distinct-key operations are exact and lock-free;
/// * `get` racing an unfinished insert of the same key may return `None`
///   (it linearizes before the insert's value publish);
/// * two threads concurrently inserting the *same new* key may both claim
///   a slot — `get` then consistently returns the earlier slot's value.
///   Batches with distinct keys (the bulk path) are always exact.
pub struct EoHashTable {
    keys: GpuBuffer,
    values: GpuBuffer,
    locks: RegionLocks,
    occupied: AtomicUsize,
    tombstones: AtomicUsize,
    device: Device,
}

impl EoHashTable {
    /// Build a table with at least `capacity` slots (rounded up to whole
    /// regions) on the Cori device model.
    pub fn new(capacity: usize) -> Result<Self, FilterError> {
        Self::with_device(capacity, Device::cori())
    }

    /// Build on a specific device model.
    pub fn with_device(capacity: usize, device: Device) -> Result<Self, FilterError> {
        if capacity == 0 {
            return Err(FilterError::BadConfig("capacity must be nonzero".into()));
        }
        // An even region count keeps the wraparound probe sound: the last
        // region is odd, so a probe wrapping into region 0 (even) lands in
        // a region that is idle during the odd phase.
        let regions = capacity.div_ceil(REGION_SLOTS).max(2).next_multiple_of(2);
        let slots = regions * REGION_SLOTS;
        Ok(EoHashTable {
            keys: GpuBuffer::new(slots, 64),
            values: {
                let v = GpuBuffer::new(slots, 64);
                for i in 0..slots {
                    v.write_free(i, VALUE_UNSET);
                }
                v
            },
            locks: RegionLocks::new(slots / REGION_SLOTS),
            occupied: AtomicUsize::new(0),
            tombstones: AtomicUsize::new(0),
            device,
        })
    }

    /// Total slots.
    pub fn slots(&self) -> usize {
        self.keys.len()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.occupied.load(Ordering::Relaxed)
    }

    /// True when the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live entries plus tombstones, over total slots.
    pub fn load_factor(&self) -> f64 {
        (self.occupied.load(Ordering::Relaxed) + self.tombstones.load(Ordering::Relaxed)) as f64
            / self.slots() as f64
    }

    /// Bytes owned by the table (keys + values + locks).
    pub fn bytes(&self) -> usize {
        self.keys.bytes() + self.values.bytes() + self.locks.bytes()
    }

    /// Number of 8192-slot regions.
    pub fn n_regions(&self) -> usize {
        self.slots() / REGION_SLOTS
    }

    /// Home slot of a key: multiply-shift over the key's hash, so sorted
    /// home slots are what the bulk path's successor search partitions.
    #[inline]
    pub fn home_slot(&self, key: u64) -> usize {
        ((hash64(key) as u128 * self.slots() as u128) >> 64) as usize
    }

    #[inline]
    fn check_key(key: u64) -> Result<(), FilterError> {
        if key == EMPTY_KEY || key == TOMBSTONE_KEY {
            return Err(FilterError::BadConfig("keys 0 and u64::MAX are reserved".into()));
        }
        Ok(())
    }

    /// Insert-or-update through the concurrent point API. Returns the
    /// previous value when `key` was already present.
    pub fn upsert(&self, key: u64, value: u64) -> Result<Option<u64>, FilterError> {
        Self::check_key(key)?;
        if value == VALUE_UNSET {
            return Err(FilterError::BadConfig("value u64::MAX is reserved".into()));
        }
        let n = self.slots();
        let home = self.home_slot(key);
        // One pass: update on key match, remember the first reusable slot,
        // claim it (or the terminating empty) when the key is absent.
        let mut reusable: Option<usize> = None;
        let mut i = 0usize;
        while i < MAX_PROBE {
            let slot = (home + i) % n;
            let k = self.keys.read(slot);
            if k == key {
                return Ok(self.publish_swap(slot, value));
            }
            if k == TOMBSTONE_KEY && reusable.is_none() {
                reusable = Some(slot);
            }
            if k == EMPTY_KEY {
                let target = reusable.unwrap_or(slot);
                let expect = if Some(target) == reusable { TOMBSTONE_KEY } else { EMPTY_KEY };
                match self.keys.cas(target, expect, key) {
                    Ok(()) => {
                        // Publish with a CAS: if a racing updater of this
                        // key already swapped a value in, theirs is the
                        // later write and must survive.
                        let _ = self.values.cas(target, VALUE_UNSET, value);
                        self.occupied.fetch_add(1, Ordering::Relaxed);
                        if expect == TOMBSTONE_KEY {
                            self.tombstones.fetch_sub(1, Ordering::Relaxed);
                        }
                        return Ok(None);
                    }
                    Err(now) if now == key => {
                        // Another thread inserted our key into this very
                        // slot; fall through to update it.
                        return Ok(self.publish_swap(target, value));
                    }
                    Err(_) => {
                        // Slot stolen for a different key: resume the scan
                        // *at* the stolen slot (it may still terminate the
                        // chain if our claim target was the tombstone).
                        reusable = None;
                        i = (target + n - home) % n;
                        continue;
                    }
                }
            }
            i += 1;
        }
        Err(FilterError::Full)
    }

    /// Swap in `value` on a slot whose key already matched. Returns the
    /// previous value, or `None` when the racing claimant had not yet
    /// published — in that serialization our write *is* the insert (the
    /// claimant's publish CAS will observe it and yield).
    fn publish_swap(&self, slot: usize, value: u64) -> Option<u64> {
        let prev = self.values.atomic_exch(slot, value);
        if prev == VALUE_UNSET {
            None
        } else {
            Some(prev)
        }
    }

    /// Look up `key`. Exact: `None` means definitely absent.
    pub fn get(&self, key: u64) -> Option<u64> {
        if Self::check_key(key).is_err() {
            return None;
        }
        let n = self.slots();
        let home = self.home_slot(key);
        for i in 0..MAX_PROBE {
            let slot = (home + i) % n;
            let k = self.keys.read(slot);
            if k == EMPTY_KEY {
                return None;
            }
            if k == key {
                // Wait briefly for an in-flight publish; give up and
                // linearize before the insert if it doesn't land.
                for _ in 0..PUBLISH_SPINS {
                    let v = self.values.read(slot);
                    if v != VALUE_UNSET {
                        return Some(v);
                    }
                    std::hint::spin_loop();
                }
                return None;
            }
        }
        None
    }

    /// Add `delta` to `key`'s value, inserting it with `delta` when
    /// absent. Returns the post-add value. This is the degree-counting
    /// primitive the dynamic-graph store uses.
    pub fn fetch_add(&self, key: u64, delta: u64) -> Result<u64, FilterError> {
        Self::check_key(key)?;
        let n = self.slots();
        let home = self.home_slot(key);
        let mut reusable: Option<usize> = None;
        let mut i = 0usize;
        while i < MAX_PROBE {
            let slot = (home + i) % n;
            let k = self.keys.read(slot);
            if k == key {
                return Ok(self.add_published(slot, delta));
            }
            if k == TOMBSTONE_KEY && reusable.is_none() {
                reusable = Some(slot);
            }
            if k == EMPTY_KEY {
                let target = reusable.unwrap_or(slot);
                let expect = if Some(target) == reusable { TOMBSTONE_KEY } else { EMPTY_KEY };
                match self.keys.cas(target, expect, key) {
                    Ok(()) => {
                        self.occupied.fetch_add(1, Ordering::Relaxed);
                        if expect == TOMBSTONE_KEY {
                            self.tombstones.fetch_sub(1, Ordering::Relaxed);
                        }
                        // A racing adder that matched our key may publish
                        // first; if so, fold our delta into its total.
                        return if self.values.cas(target, VALUE_UNSET, delta).is_ok() {
                            Ok(delta)
                        } else {
                            Ok(self.values.atomic_add(target, delta).wrapping_add(delta))
                        };
                    }
                    Err(now) if now == key => return Ok(self.add_published(target, delta)),
                    Err(_) => {
                        reusable = None;
                        i = (target + n - home) % n;
                        continue;
                    }
                }
            }
            i += 1;
        }
        Err(FilterError::Full)
    }

    /// Atomic add once the slot's value is published. Claims the publish
    /// itself (acting as the insert) if the racing claimant still hasn't
    /// landed after the bounded wait.
    fn add_published(&self, slot: usize, delta: u64) -> u64 {
        for _ in 0..PUBLISH_SPINS {
            let v = self.values.read(slot);
            if v == VALUE_UNSET {
                std::hint::spin_loop();
                continue;
            }
            return self.values.atomic_add(slot, delta).wrapping_add(delta);
        }
        if self.values.cas(slot, VALUE_UNSET, delta).is_ok() {
            delta
        } else {
            self.values.atomic_add(slot, delta).wrapping_add(delta)
        }
    }

    /// Remove `key`; returns its value if present. Concurrent `get`s of
    /// other keys are unaffected; a `get` of the dying key racing the
    /// removal may see either outcome.
    pub fn remove(&self, key: u64) -> Option<u64> {
        if Self::check_key(key).is_err() {
            return None;
        }
        let n = self.slots();
        let home = self.home_slot(key);
        for i in 0..MAX_PROBE {
            let slot = (home + i) % n;
            let k = self.keys.read(slot);
            if k == EMPTY_KEY {
                return None;
            }
            if k == key {
                // Un-publish first so a tombstone claimant's stale value
                // can never be observed under its new key.
                let value = self.values.atomic_exch(slot, VALUE_UNSET);
                self.keys.atomic_exch(slot, TOMBSTONE_KEY);
                self.occupied.fetch_sub(1, Ordering::Relaxed);
                self.tombstones.fetch_add(1, Ordering::Relaxed);
                return if value == VALUE_UNSET { None } else { Some(value) };
            }
        }
        None
    }

    /// Sort phase of the bulk paths: `(home slot, batch index)` pairs in
    /// home order, sorted within the device's worker budget, so each
    /// region's items form one range of the batch — the GQF's
    /// zero-allocation buffer trick (§5.3).
    fn region_plan(&self, pairs: &[(u64, u64)]) -> Vec<(u64, u64)> {
        let mut order: Vec<(u64, u64)> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(k, _))| (self.home_slot(k) as u64, i as u64))
            .collect();
        self.device.sort_pairs(&mut order);
        order
    }

    /// Exclusive-region upsert: plain (non-atomic) probe/claim, legal only
    /// while this thread owns `home`'s region and the next one.
    fn upsert_exclusive(&self, key: u64, value: u64) -> Result<Option<u64>, FilterError> {
        let n = self.slots();
        let home = self.home_slot(key);
        let mut reusable: Option<usize> = None;
        for i in 0..MAX_PROBE {
            let slot = (home + i) % n;
            let k = self.keys.read(slot);
            if k == key {
                let prev = self.values.read(slot);
                self.values.write(slot, value);
                return Ok(Some(prev));
            }
            if k == TOMBSTONE_KEY && reusable.is_none() {
                reusable = Some(slot);
            }
            if k == EMPTY_KEY {
                let target = reusable.unwrap_or(slot);
                self.keys.write(target, key);
                self.values.write(target, value);
                self.occupied.fetch_add(1, Ordering::Relaxed);
                if reusable == Some(target) {
                    self.tombstones.fetch_sub(1, Ordering::Relaxed);
                }
                return Ok(None);
            }
        }
        Err(FilterError::Full)
    }

    /// Even-odd phased bulk upsert (lock-free). Returns the number of
    /// pairs that could not be placed. Duplicate keys within the batch
    /// resolve to the last occurrence in batch order.
    pub fn bulk_upsert(&self, pairs: &[(u64, u64)]) -> usize {
        for &(k, v) in pairs {
            if Self::check_key(k).is_err() || v == VALUE_UNSET {
                return pairs.len(); // reject the whole malformed batch
            }
        }
        let order = self.region_plan(pairs);
        self.device.launch_even_odd(
            &order,
            self.n_regions(),
            REGION_SLOTS as u64,
            |&(home, _)| home,
            |items| {
                let mut fails = 0usize;
                for &(_, idx) in items {
                    let (k, v) = pairs[idx as usize];
                    if self.upsert_exclusive(k, v).is_err() {
                        fails += 1;
                    }
                }
                fails
            },
        )
    }

    /// Exclusive-region fetch-add (plain ops, same ownership contract as
    /// [`EoHashTable::upsert_exclusive`]). Returns the post-add total.
    fn fetch_add_exclusive(&self, key: u64, delta: u64) -> Result<u64, FilterError> {
        let n = self.slots();
        let home = self.home_slot(key);
        let mut reusable: Option<usize> = None;
        for i in 0..MAX_PROBE {
            let slot = (home + i) % n;
            let k = self.keys.read(slot);
            if k == key {
                let total = self.values.read(slot).wrapping_add(delta);
                self.values.write(slot, total);
                return Ok(total);
            }
            if k == TOMBSTONE_KEY && reusable.is_none() {
                reusable = Some(slot);
            }
            if k == EMPTY_KEY {
                let target = reusable.unwrap_or(slot);
                self.keys.write(target, key);
                self.values.write(target, delta);
                self.occupied.fetch_add(1, Ordering::Relaxed);
                if reusable == Some(target) {
                    self.tombstones.fetch_sub(1, Ordering::Relaxed);
                }
                return Ok(delta);
            }
        }
        Err(FilterError::Full)
    }

    /// Even-odd phased bulk fetch-add: each pair's delta is folded into
    /// its key's value (inserting absent keys), and `out[i]` receives the
    /// post-add total for `pairs[i]` — `u64::MAX` marks a failed placement.
    /// A batch holding a reserved key is rejected whole: nothing is added,
    /// every `out` slot reads `u64::MAX`, and the result is `pairs.len()`.
    /// Duplicate keys in one batch accumulate in batch order per region.
    pub fn bulk_fetch_add(&self, pairs: &[(u64, u64)], out: &mut [u64]) -> usize {
        assert_eq!(pairs.len(), out.len());
        for &(k, _) in pairs {
            if Self::check_key(k).is_err() {
                out.fill(VALUE_UNSET);
                return pairs.len();
            }
        }
        let order = self.region_plan(pairs);
        let results: Vec<AtomicU64> =
            (0..pairs.len()).map(|_| AtomicU64::new(VALUE_UNSET)).collect();
        let failures = self.device.launch_even_odd(
            &order,
            self.n_regions(),
            REGION_SLOTS as u64,
            |&(home, _)| home,
            |items| {
                let mut fails = 0usize;
                for &(_, idx) in items {
                    let (k, d) = pairs[idx as usize];
                    match self.fetch_add_exclusive(k, d) {
                        Ok(total) => results[idx as usize].store(total, Ordering::Relaxed),
                        Err(_) => fails += 1,
                    }
                }
                fails
            },
        );
        for (o, r) in out.iter_mut().zip(results) {
            *o = r.into_inner();
        }
        failures
    }

    /// Locking bulk baseline: every thread point-inserts its chunk under
    /// per-region locks (the point-GQF §5.2 strategy). Same result as
    /// [`EoHashTable::bulk_upsert`] for distinct-key batches; the ablation
    /// benches price the two against each other.
    pub fn bulk_upsert_locked(&self, pairs: &[(u64, u64)]) -> usize {
        let failures = AtomicUsize::new(0);
        let failures_ref = &failures;
        self.device.launch_point(pairs.len(), 1, |i| {
            let (k, v) = pairs[i];
            let region = self.home_slot(k) / REGION_SLOTS;
            // A probe from the last region can wrap into region 0, so that
            // case locks region 0 too — still in ascending order, keeping
            // the acquisition deadlock-free.
            let wraps = region == self.n_regions() - 1;
            if wraps {
                self.locks.acquire(0);
            }
            self.locks.acquire_range(region, region + 1);
            let r = self.upsert_exclusive(k, v);
            self.locks.release_range(region, region + 1);
            if wraps {
                self.locks.release(0);
            }
            if r.is_err() {
                failures_ref.fetch_add(1, Ordering::Relaxed);
            }
        });
        failures.load(Ordering::Relaxed)
    }

    /// Enumerate all live `(key, value)` entries (host-side scan; callers
    /// must ensure no concurrent writers, like the filters' enumerate).
    pub fn entries(&self) -> Vec<(u64, u64)> {
        (0..self.slots())
            .filter_map(|slot| {
                let k = self.keys.read_free(slot);
                if k == EMPTY_KEY || k == TOMBSTONE_KEY {
                    return None;
                }
                let v = self.values.read_free(slot);
                Some((k, if v == VALUE_UNSET { 0 } else { v }))
            })
            .collect()
    }

    /// Batched exact lookup; `out[i]` answers `keys[i]`.
    pub fn bulk_get(&self, keys: &[u64], out: &mut [Option<u64>]) {
        assert_eq!(keys.len(), out.len());
        let results: Vec<AtomicU64> =
            (0..keys.len()).map(|_| AtomicU64::new(VALUE_UNSET)).collect();
        let results_ref = &results;
        self.device.launch_point(keys.len(), 1, |i| {
            if let Some(v) = self.get(keys[i]) {
                results_ref[i].store(v, Ordering::Relaxed);
            }
        });
        for (o, r) in out.iter_mut().zip(results) {
            let v = r.into_inner();
            *o = if v == VALUE_UNSET { None } else { Some(v) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use filter_core::hashed_keys;
    use std::sync::Arc;

    #[test]
    fn upsert_get_roundtrip() {
        let t = EoHashTable::new(1 << 13).unwrap();
        let keys = hashed_keys(71, 5000);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(t.upsert(k, i as u64).unwrap(), None);
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(t.get(k), Some(i as u64), "key {i}");
        }
        assert_eq!(t.len(), 5000);
    }

    #[test]
    fn get_is_exact_no_false_positives() {
        let t = EoHashTable::new(1 << 13).unwrap();
        let keys = hashed_keys(72, 3000);
        for &k in &keys {
            t.upsert(k, 1).unwrap();
        }
        for &k in &hashed_keys(7200, 3000) {
            assert_eq!(t.get(k), None);
        }
    }

    #[test]
    fn upsert_returns_previous_value() {
        let t = EoHashTable::new(REGION_SLOTS).unwrap();
        assert_eq!(t.upsert(10, 1).unwrap(), None);
        assert_eq!(t.upsert(10, 2).unwrap(), Some(1));
        assert_eq!(t.upsert(10, 3).unwrap(), Some(2));
        assert_eq!(t.get(10), Some(3));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn reserved_keys_and_values_rejected() {
        let t = EoHashTable::new(REGION_SLOTS).unwrap();
        assert!(t.upsert(EMPTY_KEY, 1).is_err());
        assert!(t.upsert(TOMBSTONE_KEY, 1).is_err());
        assert!(t.upsert(5, VALUE_UNSET).is_err());
        assert_eq!(t.get(EMPTY_KEY), None);
        assert_eq!(t.remove(TOMBSTONE_KEY), None);
    }

    #[test]
    fn remove_then_reinsert_reuses_tombstones() {
        let t = EoHashTable::new(REGION_SLOTS).unwrap();
        let keys = hashed_keys(73, 1000);
        for &k in &keys {
            t.upsert(k, k ^ 1).unwrap();
        }
        for &k in &keys[..500] {
            assert_eq!(t.remove(k), Some(k ^ 1));
        }
        assert_eq!(t.len(), 500);
        for &k in &keys[..500] {
            assert_eq!(t.get(k), None);
        }
        // Reinsertion claims tombstoned slots; occupancy comes back and
        // tombstones drain.
        for &k in &keys[..500] {
            t.upsert(k, 9).unwrap();
        }
        assert_eq!(t.len(), 1000);
        for &k in &keys[..500] {
            assert_eq!(t.get(k), Some(9));
        }
    }

    #[test]
    fn fetch_add_counts() {
        let t = EoHashTable::new(REGION_SLOTS).unwrap();
        assert_eq!(t.fetch_add(42, 5).unwrap(), 5);
        assert_eq!(t.fetch_add(42, 3).unwrap(), 8);
        assert_eq!(t.get(42), Some(8));
    }

    #[test]
    fn bulk_upsert_places_everything() {
        let t = EoHashTable::new(1 << 15).unwrap();
        let keys = hashed_keys(74, 20_000);
        let pairs: Vec<(u64, u64)> = keys.iter().enumerate().map(|(i, &k)| (k, i as u64)).collect();
        assert_eq!(t.bulk_upsert(&pairs), 0);
        let mut out = vec![None; keys.len()];
        t.bulk_get(&keys, &mut out);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, Some(i as u64), "key {i}");
        }
    }

    #[test]
    fn bulk_matches_point_and_locked() {
        let slots = 1 << 14;
        let keys = hashed_keys(75, 9000);
        let pairs: Vec<(u64, u64)> = keys.iter().enumerate().map(|(i, &k)| (k, i as u64)).collect();

        let a = EoHashTable::new(slots).unwrap();
        assert_eq!(a.bulk_upsert(&pairs), 0);
        let b = EoHashTable::new(slots).unwrap();
        assert_eq!(b.bulk_upsert_locked(&pairs), 0);
        let c = EoHashTable::new(slots).unwrap();
        for &(k, v) in &pairs {
            c.upsert(k, v).unwrap();
        }
        for &k in &keys {
            let want = c.get(k);
            assert_eq!(a.get(k), want);
            assert_eq!(b.get(k), want);
        }
    }

    #[test]
    fn bulk_duplicate_keys_last_wins() {
        let t = EoHashTable::new(REGION_SLOTS).unwrap();
        assert_eq!(t.bulk_upsert(&[(7, 1), (8, 2), (7, 3)]), 0);
        assert_eq!(t.get(7), Some(3));
        assert_eq!(t.get(8), Some(2));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn bulk_rejects_reserved_keys() {
        let t = EoHashTable::new(REGION_SLOTS).unwrap();
        assert_eq!(t.bulk_upsert(&[(1, 1), (EMPTY_KEY, 2)]), 2);
        assert_eq!(t.get(1), None, "malformed batches are rejected whole");
    }

    #[test]
    fn concurrent_distinct_inserts_are_exact() {
        let t = Arc::new(EoHashTable::new(1 << 14).unwrap());
        let keys = Arc::new(hashed_keys(76, 8000));
        let handles: Vec<_> = (0..8usize)
            .map(|h| {
                let t = Arc::clone(&t);
                let keys = Arc::clone(&keys);
                std::thread::spawn(move || {
                    for &k in &keys[h * 1000..(h + 1) * 1000] {
                        t.upsert(k, k >> 3).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 8000);
        for &k in keys.iter() {
            assert_eq!(t.get(k), Some(k >> 3));
        }
    }

    #[test]
    fn concurrent_fetch_add_no_lost_updates() {
        let t = Arc::new(EoHashTable::new(REGION_SLOTS).unwrap());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        t.fetch_add(99, 1).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.get(99), Some(8000));
    }

    #[test]
    fn fills_to_high_load_factor() {
        let t = EoHashTable::new(REGION_SLOTS * 2).unwrap();
        let n = (t.slots() as f64 * 0.85) as usize;
        let keys = hashed_keys(77, n);
        let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, 1)).collect();
        assert_eq!(t.bulk_upsert(&pairs), 0);
        assert!(t.load_factor() >= 0.84);
    }

    #[test]
    fn overfull_table_reports_failures() {
        let t = EoHashTable::new(REGION_SLOTS).unwrap();
        let keys = hashed_keys(78, t.slots() + 4000);
        let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, 1)).collect();
        assert!(t.bulk_upsert(&pairs) > 0, "more items than slots must fail");
    }

    #[test]
    fn capacity_rounds_to_regions() {
        let t = EoHashTable::new(1).unwrap();
        assert_eq!(t.slots(), 2 * REGION_SLOTS);
        assert_eq!(t.n_regions(), 2);
        // Region counts round up to even so wraparound probes stay phased.
        let t = EoHashTable::new(3 * REGION_SLOTS - 1).unwrap();
        assert_eq!(t.n_regions(), 4);
    }

    #[test]
    fn zero_capacity_rejected() {
        assert!(EoHashTable::new(0).is_err());
    }
}
