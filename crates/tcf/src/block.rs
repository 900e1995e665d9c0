//! Cooperative block operations — the paper's Algorithm 1 and Figure 1.
//!
//! A block is a cache-line-sized run of fingerprint slots. A cooperative
//! group stages the block out of global memory, ballots over candidate
//! slots, elects a leader with `__ffs`, and the leader claims a slot with
//! `atomicCAS`; on failure the group re-ballots and tries the next
//! candidate. Queries and deletes are strided staged scans.

use filter_core::fingerprint::{EMPTY, TOMBSTONE};
use gpu_sim::{Cg, GpuBuffer, SpanView};

/// Fill state of a block: how many slots hold live fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockFill {
    /// Live fingerprints.
    pub live: usize,
    /// Free slots (empty or tombstoned).
    pub free: usize,
}

impl BlockFill {
    /// Fill ratio in `[0, 1]`. A zero-slot block reports `1.0` (full: it
    /// has no free slots), never NaN — a NaN here made every
    /// load-threshold comparison silently false downstream.
    pub fn ratio(&self, slots: usize) -> f64 {
        if slots == 0 {
            return 1.0;
        }
        self.live as f64 / slots as f64
    }
}

/// Ballot for free (empty-or-tombstone) slots.
fn free_ballot(view: &SpanView<'_>, cg: &Cg, start: usize, slots: usize) -> u64 {
    cg.ballot_scan(slots, |i| {
        let v = view.get(start + i);
        v == EMPTY || v == TOMBSTONE
    })
}

/// Ballot for slots equal to `fp`.
fn eq_ballot(view: &SpanView<'_>, cg: &Cg, start: usize, slots: usize, fp: u64) -> u64 {
    cg.ballot_scan(slots, |i| view.get(start + i) == fp)
}

/// Stage a block and measure its fill. One span load; the scan itself is
/// strided across the group.
pub fn block_fill(table: &GpuBuffer, cg: &Cg, start: usize, slots: usize) -> BlockFill {
    let view = table.load_span(start, slots);
    let mask = free_ballot(&view, cg, start, slots);
    let free = mask.count_ones() as usize;
    BlockFill { live: slots - free, free }
}

/// Algorithm 1: cooperative insert of `fp` into the block at `start`.
///
/// Returns the absolute index of the claimed slot, or `None` when no slot
/// could be claimed (the block was or became full). The group stages the
/// block, ballots for empty-or-tombstone slots, and leaders attempt
/// `atomicCAS` until one wins or candidates are exhausted. Lost CAS races
/// against concurrent groups re-ballot exactly as the kernel does.
pub fn block_insert_at(
    table: &GpuBuffer,
    cg: &Cg,
    start: usize,
    slots: usize,
    fp: u64,
) -> Option<usize> {
    let view = table.load_span(start, slots);
    let mask = free_ballot(&view, cg, start, slots);
    let mut won = None;
    cg.elect_and_attempt(mask, |i| {
        let slot = start + i;
        // CAS against what the staged copy saw; if a racer took the slot,
        // the failed CAS returns the live value and this candidate is
        // abandoned (the next ballot candidate is tried), unless the slot
        // merely flipped between the two free encodings.
        let mut expect = view.get(slot);
        loop {
            match table.cas(slot, expect, fp) {
                Ok(()) => {
                    won = Some(slot);
                    return true;
                }
                Err(actual) if actual == EMPTY || actual == TOMBSTONE => expect = actual,
                Err(_) => return false,
            }
        }
    });
    won
}

/// [`block_insert_at`] without the slot index.
pub fn block_insert(table: &GpuBuffer, cg: &Cg, start: usize, slots: usize, fp: u64) -> bool {
    block_insert_at(table, cg, start, slots, fp).is_some()
}

/// Cooperative membership scan: stage the block, stride over it looking
/// for `fp`.
pub fn block_query(table: &GpuBuffer, cg: &Cg, start: usize, slots: usize, fp: u64) -> bool {
    let view = table.load_span(start, slots);
    cg.find_strided(slots, |i| view.get(start + i) == fp).is_some()
}

/// Cooperative delete: find `fp` and replace one copy with a tombstone
/// using a single `atomicCAS` (the order-of-magnitude-faster-than-GQF
/// deletion path of Fig. 6).
pub fn block_delete(table: &GpuBuffer, cg: &Cg, start: usize, slots: usize, fp: u64) -> bool {
    let view = table.load_span(start, slots);
    let mask = eq_ballot(&view, cg, start, slots, fp);
    cg.elect_and_attempt(mask, |i| table.cas(start + i, fp, TOMBSTONE).is_ok())
}

/// Read one block's live fingerprints (host-side; enumeration and tests).
pub fn block_contents(table: &GpuBuffer, start: usize, slots: usize) -> Vec<u64> {
    (0..slots)
        .map(|i| table.read_free(start + i))
        .filter(|&v| v != EMPTY && v != TOMBSTONE)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(slots: usize) -> (GpuBuffer, Cg) {
        (GpuBuffer::new(slots, 16), Cg::new(4))
    }

    #[test]
    fn insert_fills_every_slot_then_fails() {
        let (table, cg) = setup(16);
        for i in 0..16u64 {
            assert!(block_insert(&table, &cg, 0, 16, i + 2), "slot {i}");
        }
        assert!(!block_insert(&table, &cg, 0, 16, 999));
        let fill = block_fill(&table, &cg, 0, 16);
        assert_eq!(fill.live, 16);
        assert_eq!(fill.free, 0);
    }

    #[test]
    fn query_finds_inserted_fp() {
        let (table, cg) = setup(16);
        assert!(block_insert(&table, &cg, 0, 16, 77));
        assert!(block_query(&table, &cg, 0, 16, 77));
        assert!(!block_query(&table, &cg, 0, 16, 78));
    }

    #[test]
    fn delete_tombstones_one_copy() {
        let (table, cg) = setup(16);
        assert!(block_insert(&table, &cg, 0, 16, 42));
        assert!(block_insert(&table, &cg, 0, 16, 42));
        assert!(block_delete(&table, &cg, 0, 16, 42));
        // One copy remains.
        assert!(block_query(&table, &cg, 0, 16, 42));
        assert!(block_delete(&table, &cg, 0, 16, 42));
        assert!(!block_query(&table, &cg, 0, 16, 42));
        assert!(!block_delete(&table, &cg, 0, 16, 42));
    }

    #[test]
    fn tombstones_are_reusable_free_slots() {
        let (table, cg) = setup(8);
        for i in 0..8u64 {
            assert!(block_insert(&table, &cg, 0, 8, i + 2));
        }
        assert!(block_delete(&table, &cg, 0, 8, 5));
        let fill = block_fill(&table, &cg, 0, 8);
        assert_eq!(fill.free, 1);
        assert!(block_insert(&table, &cg, 0, 8, 100));
        assert!(!block_insert(&table, &cg, 0, 8, 101));
    }

    #[test]
    fn blocks_are_independent() {
        let (table, cg) = setup(32); // two 16-slot blocks
        assert!(block_insert(&table, &cg, 0, 16, 7));
        assert!(!block_query(&table, &cg, 16, 16, 7));
        assert!(block_insert(&table, &cg, 16, 16, 9));
        assert!(!block_query(&table, &cg, 0, 16, 9));
    }

    #[test]
    fn contents_lists_live_only() {
        let (table, cg) = setup(16);
        block_insert(&table, &cg, 0, 16, 10);
        block_insert(&table, &cg, 0, 16, 11);
        block_delete(&table, &cg, 0, 16, 10);
        assert_eq!(block_contents(&table, 0, 16), vec![11]);
    }

    #[test]
    fn concurrent_groups_claim_distinct_slots() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let table = Arc::new(GpuBuffer::new(64, 16));
        let wins = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let table = Arc::clone(&table);
                let wins = Arc::clone(&wins);
                std::thread::spawn(move || {
                    let cg = Cg::new(4);
                    for k in 0..16u64 {
                        if block_insert(&table, &cg, 0, 64, t * 100 + k + 2) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // 8 threads × 16 inserts = 128 attempts against 64 slots: exactly
        // 64 must win.
        assert_eq!(wins.load(Ordering::Relaxed), 64);
        assert_eq!(block_contents(&table, 0, 64).len(), 64);
    }

    #[test]
    fn works_at_every_cg_size() {
        for g in [1u32, 2, 4, 8, 16, 32] {
            let table = GpuBuffer::new(16, 16);
            let cg = Cg::new(g);
            for i in 0..16u64 {
                assert!(block_insert(&table, &cg, 0, 16, i + 2), "cg {g} slot {i}");
            }
            for i in 0..16u64 {
                assert!(block_query(&table, &cg, 0, 16, i + 2), "cg {g} fp {i}");
            }
        }
    }

    #[test]
    fn zero_slot_fill_ratio_is_full_not_nan() {
        let fill = BlockFill { live: 0, free: 0 };
        assert_eq!(fill.ratio(0), 1.0);
        let fill = BlockFill { live: 3, free: 1 };
        assert!((fill.ratio(4) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn twelve_bit_blocks_work() {
        let table = GpuBuffer::new(16, 12);
        let cg = Cg::new(4);
        for i in 0..16u64 {
            assert!(block_insert(&table, &cg, 0, 16, (i * 37 % 4000) + 2));
        }
        assert!(!block_insert(&table, &cg, 0, 16, 123));
    }
}
