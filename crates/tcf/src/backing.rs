//! The TCF's backing store (§4.1): a small double-hashing table, sized to
//! ~1/100 of the main table, that absorbs the rare items whose two
//! candidate blocks are both full. It is what lifts the achievable load
//! factor from ~79.6% to 90%.
//!
//! To the best of the paper authors' knowledge the TCF is the first filter
//! to use a backing store; it costs nothing on inserts and positive
//! queries (≪1% of items land here) but adds at least one extra block
//! probe to every *negative* query — and up to [`MAX_PROBES`] in the worst
//! case — exactly the trade-off §6.1 describes.

use filter_core::fingerprint::{EMPTY, TOMBSTONE};
use filter_core::hash::{double_hash_probe, hash64_seeded};
use filter_core::FilterError;
use gpu_sim::GpuBuffer;

/// Maximum probe length before an insert/query gives up (the paper's
/// worst-case "up to 20 buckets").
pub const MAX_PROBES: u64 = 20;

/// Seeds for the two probe hashes (distinct from the main-table POTC
/// seeds so backing placement is independent of block placement).
const SEED_H1: u64 = 0xbac_c1e5;
const SEED_H2: u64 = 0x00dd_ba11;

/// Double-hashing overflow table storing the same fingerprints as the
/// main table, plus — a deviation from the paper recorded for the PR 5
/// capacity lifecycle — the spilled item itself. The paper's backing
/// stores only fingerprints; retaining the 64-bit key (≈0.64 extra bits
/// per *main-table* slot at the 1/100 sizing) is what lets maintenance
/// migrations re-probe spilled items: a grow drains the backing into the
/// enlarged main table, and a merge re-probes the partner's spilled items
/// instead of requiring its exact slot layout.
pub struct BackingTable {
    slots: GpuBuffer,
    /// Spilled item per occupied slot (valid wherever `slots` holds a
    /// live fingerprint; written exclusively by the slot's CAS winner).
    keys: GpuBuffer,
    n_slots: u64,
}

impl BackingTable {
    /// Size the backing table at `main_slots / 100`, rounded up to a power
    /// of two (the double-hash probe needs a power-of-two cycle), minimum
    /// 64 slots.
    pub fn for_main_table(main_slots: usize, fp_bits: u32) -> Self {
        let want = (main_slots / 100).max(64);
        let n = want.next_power_of_two();
        BackingTable {
            slots: GpuBuffer::new(n, fp_bits),
            keys: GpuBuffer::new(n, 64),
            n_slots: n as u64,
        }
    }

    /// Number of slots.
    pub fn len_slots(&self) -> usize {
        self.n_slots as usize
    }

    /// Allocated bytes (fingerprint slots + retained keys).
    pub fn bytes(&self) -> usize {
        self.slots.bytes() + self.keys.bytes()
    }

    #[inline]
    fn probes(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        let h1 = hash64_seeded(key, SEED_H1);
        let h2 = hash64_seeded(key, SEED_H2);
        let n = self.n_slots;
        (0..MAX_PROBES.min(n)).map(move |i| double_hash_probe(h1, h2, i, n) as usize)
    }

    /// Try to store `fp` for `key`. Each probe reads one line; claiming a
    /// slot is one CAS. Returns false when all probes are full.
    pub fn insert(&self, key: u64, fp: u64) -> bool {
        for slot in self.probes(key) {
            loop {
                let cur = self.slots.read(slot);
                if cur != EMPTY && cur != TOMBSTONE {
                    break; // occupied by someone else; next probe
                }
                match self.slots.cas(slot, cur, fp) {
                    Ok(()) => {
                        // CAS winner owns the slot; the key write races
                        // with nobody.
                        self.keys.write(slot, key);
                        return true;
                    }
                    Err(actual) if actual == EMPTY || actual == TOMBSTONE => continue,
                    Err(_) => break,
                }
            }
        }
        false
    }

    /// Query for `fp` under `key`'s probe sequence. Stops early at an
    /// EMPTY slot (the item can never be stored past the first hole it
    /// would have claimed); continues past tombstones.
    pub fn contains(&self, key: u64, fp: u64) -> bool {
        for slot in self.probes(key) {
            let cur = self.slots.read(slot);
            if cur == fp {
                return true;
            }
            if cur == EMPTY {
                return false;
            }
        }
        false
    }

    /// Delete one copy of `key`'s entry under its probe sequence, replacing
    /// it with a tombstone. Returns true if found. Unlike [`Self::contains`],
    /// which answers from fingerprints alone as the paper's table does, a
    /// delete also matches the retained key: a slot on `key`'s probe path
    /// that holds the same fingerprint may belong to another spilled key,
    /// which must stay present.
    pub fn remove(&self, key: u64, fp: u64) -> bool {
        for slot in self.probes(key) {
            let cur = self.slots.read(slot);
            if cur == fp
                && self.keys.read(slot) == key
                && self.slots.cas(slot, fp, TOMBSTONE).is_ok()
            {
                return true;
            }
            if cur == EMPTY {
                return false;
            }
        }
        false
    }

    /// Occupied slots (host-side scan; used by tests and space accounting).
    pub fn occupied(&self) -> usize {
        self.slots.to_vec().iter().filter(|&&v| v != EMPTY && v != TOMBSTONE).count()
    }

    /// Enumerate the live `(key, fingerprint)` entries in slot order
    /// (host-side; deterministic) — the migration source for grow/merge.
    pub fn entries(&self) -> Vec<(u64, u64)> {
        (0..self.n_slots as usize)
            .filter_map(|slot| {
                let fp = self.slots.read_free(slot);
                if fp == EMPTY || fp == TOMBSTONE {
                    None
                } else {
                    Some((self.keys.read_free(slot), fp))
                }
            })
            .collect()
    }

    /// A fresh table with this table's contents re-probed in slot order —
    /// used by merges to build the union off to the side before
    /// committing. Fails only if a probe sequence exhausts (the table is
    /// effectively full).
    pub fn reprobed_clone(&self) -> Result<BackingTable, FilterError> {
        let clone = BackingTable {
            slots: GpuBuffer::new(self.n_slots as usize, self.slots.elem_bits()),
            keys: GpuBuffer::new(self.n_slots as usize, 64),
            n_slots: self.n_slots,
        };
        for (key, fp) in self.entries() {
            if !clone.insert(key, fp) {
                return Err(FilterError::Full);
            }
        }
        Ok(clone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use filter_core::Fingerprint;

    fn fp_of(key: u64) -> u64 {
        Fingerprint::from_hash(filter_core::hash64_seeded(key, 0xf00d), 16).value()
    }

    #[test]
    fn sizing_is_one_percent_power_of_two() {
        let b = BackingTable::for_main_table(1 << 20, 16);
        let expected = ((1usize << 20) / 100).next_power_of_two();
        assert_eq!(b.len_slots(), expected);
        assert!(b.len_slots().is_power_of_two());
        let small = BackingTable::for_main_table(100, 16);
        assert_eq!(small.len_slots(), 64);
    }

    #[test]
    fn insert_then_contains() {
        let b = BackingTable::for_main_table(10_000, 16);
        for key in 0..50u64 {
            assert!(b.insert(key, fp_of(key)));
        }
        for key in 0..50u64 {
            assert!(b.contains(key, fp_of(key)), "key {key}");
        }
        assert!(!b.contains(9999, fp_of(9999)));
    }

    #[test]
    fn remove_then_absent_then_reusable() {
        let b = BackingTable::for_main_table(10_000, 16);
        assert!(b.insert(5, fp_of(5)));
        assert!(b.remove(5, fp_of(5)));
        assert!(!b.contains(5, fp_of(5)));
        // Tombstoned slot is reusable.
        assert!(b.insert(5, fp_of(5)));
        assert!(b.contains(5, fp_of(5)));
    }

    #[test]
    fn query_continues_past_tombstones() {
        let b = BackingTable::for_main_table(100_000, 16);
        // Two keys; delete the first — the second must stay findable even
        // if it probed past the first's slot.
        for key in 0..200u64 {
            assert!(b.insert(key, fp_of(key)));
        }
        for key in 0..100u64 {
            assert!(b.remove(key, fp_of(key)));
        }
        for key in 100..200u64 {
            assert!(b.contains(key, fp_of(key)), "key {key}");
        }
    }

    #[test]
    fn fills_up_gracefully() {
        let b = BackingTable::for_main_table(100, 16); // 64 slots
        let mut stored = 0;
        for key in 0..2000u64 {
            if b.insert(key, fp_of(key)) {
                stored += 1;
            }
        }
        assert!(stored <= 64);
        assert!(stored > 32, "double hashing should fill most of a small table, got {stored}");
        assert_eq!(b.occupied(), stored);
    }

    #[test]
    fn entries_enumerate_live_keys_with_fingerprints() {
        let b = BackingTable::for_main_table(100_000, 16);
        for key in 0..100u64 {
            assert!(b.insert(key, fp_of(key)));
        }
        assert!(b.remove(50, fp_of(50)));
        let entries = b.entries();
        assert_eq!(entries.len(), 99);
        for (key, fp) in entries {
            assert_ne!(key, 50, "tombstoned entry must not enumerate");
            assert_eq!(fp, fp_of(key), "key and fingerprint must pair up");
        }
    }

    #[test]
    fn remove_leaves_another_key_with_the_same_fingerprint() {
        let fp8 = |key| Fingerprint::from_hash(filter_core::hash64_seeded(key, 0xf00d), 8).value();
        let b = BackingTable::for_main_table(100, 8); // 64 slots
        let (k1, fp) = (1u64, fp8(1));
        assert!(b.insert(k1, fp));
        let k1_slot = b.probes(k1).next();
        let k2 = (2..).find(|&k| fp8(k) == fp && b.probes(k).next() == k1_slot).unwrap();
        assert!(b.insert(k2, fp));
        assert!(b.remove(k2, fp));
        assert_eq!(b.entries(), vec![(k1, fp)], "the delete removed the other key");
        assert!(!b.remove(k2, fp), "k2 was deleted once already");
    }

    #[test]
    fn reprobed_clone_compacts_tombstones_and_keeps_members() {
        let b = BackingTable::for_main_table(100_000, 16);
        for key in 0..200u64 {
            assert!(b.insert(key, fp_of(key)));
        }
        for key in 0..100u64 {
            assert!(b.remove(key, fp_of(key)));
        }
        let clone = b.reprobed_clone().unwrap();
        for key in 100..200u64 {
            assert!(clone.contains(key, fp_of(key)), "key {key} lost in reprobe");
        }
        assert_eq!(clone.occupied(), 100);
        // The original is untouched.
        assert_eq!(b.occupied(), 100);
    }

    #[test]
    fn concurrent_inserts_never_lose_items() {
        use std::sync::Arc;
        // 4096 slots for 800 items: at 20% load a 20-probe failure is
        // ~0.2^20, so insert success is deterministic in practice.
        let b = Arc::new(BackingTable::for_main_table(400_000, 16));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for k in (t * 100)..(t * 100 + 100) {
                        assert!(b.insert(k, fp_of(k)));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for k in 0..800u64 {
            assert!(b.contains(k, fp_of(k)), "key {k}");
        }
    }
}
