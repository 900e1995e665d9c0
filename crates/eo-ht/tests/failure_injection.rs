//! Failure injection for the even-odd hash table: probe-cap overflows,
//! wraparound at the last region, malformed batches, and reserved-key
//! misuse must all fail cleanly without corrupting stored entries.

use eo_ht::{EoHashTable, REGION_SLOTS};
use filter_core::hashed_keys;

/// Keys engineered to share one home region, to overflow its probe cap.
fn clustered_keys(t: &EoHashTable, region: usize, n: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(n);
    let mut k = 1u64;
    while out.len() < n {
        if t.home_slot(k) / REGION_SLOTS == region {
            out.push(k);
        }
        k += 1;
    }
    out
}

#[test]
fn probe_cap_overflow_reports_full_cleanly() {
    let t = EoHashTable::new(2 * REGION_SLOTS).unwrap();
    // More keys homed in region 0 than one region-length probe can place:
    // the cap is one full region of slack, so past ~2×REGION_SLOTS of
    // clustered occupancy inserts must start failing.
    let keys = clustered_keys(&t, 0, 2 * REGION_SLOTS);
    let mut stored = Vec::new();
    let mut failures = 0usize;
    for &k in &keys {
        match t.upsert(k, k) {
            Ok(_) => stored.push(k),
            Err(_) => failures += 1,
        }
    }
    assert!(failures > 0, "probe cap must eventually reject clustered keys");
    for &k in &stored {
        assert_eq!(t.get(k), Some(k), "accepted key lost after Full rejections");
    }
}

#[test]
fn wraparound_from_last_region_is_sound() {
    let t = EoHashTable::new(2 * REGION_SLOTS).unwrap();
    // Saturate the tail of the last region so inserts homed there must
    // wrap into region 0.
    let last = t.n_regions() - 1;
    let keys = clustered_keys(&t, last, REGION_SLOTS + 200);
    let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k ^ 1)).collect();
    let fails = t.bulk_upsert(&pairs);
    // Everything that was accepted must be found, including entries that
    // wrapped past slot 0.
    let mut out = vec![None; keys.len()];
    t.bulk_get(&keys, &mut out);
    let found = out.iter().filter(|v| v.is_some()).count();
    assert_eq!(found, keys.len() - fails);
    for (i, v) in out.iter().enumerate() {
        if let Some(val) = v {
            assert_eq!(*val, keys[i] ^ 1, "wrapped entry corrupt");
        }
    }
}

#[test]
fn bulk_and_locked_agree_under_overflow() {
    // Even when some items fail, both bulk strategies must agree on what
    // a lookup returns for the keys they did accept.
    let slots = 2 * REGION_SLOTS;
    let keys = hashed_keys(801, slots + slots / 2);
    let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k >> 1)).collect();

    let a = EoHashTable::new(slots).unwrap();
    let b = EoHashTable::new(slots).unwrap();
    let fails_a = a.bulk_upsert(&pairs);
    let fails_b = b.bulk_upsert_locked(&pairs);
    assert!(fails_a > 0 && fails_b > 0, "oversubscription must fail items");
    let mut hits = 0usize;
    for &k in &keys {
        let (va, vb) = (a.get(k), b.get(k));
        if va.is_some() && vb.is_some() {
            assert_eq!(va, vb);
            hits += 1;
        }
    }
    assert!(hits > slots / 2, "both paths should store most of the table");
}

#[test]
fn reserved_keys_never_enter_via_any_path() {
    let t = EoHashTable::new(REGION_SLOTS * 2).unwrap();
    assert!(t.upsert(0, 1).is_err());
    assert!(t.fetch_add(u64::MAX, 1).is_err());
    assert_eq!(t.bulk_upsert(&[(5, 5), (0, 1)]), 2, "whole batch rejected");
    // A reused buffer must not keep old totals that look valid.
    let mut out = vec![7u64; 2];
    assert_eq!(t.bulk_fetch_add(&[(5, 5), (u64::MAX, 1)], &mut out), 2);
    assert_eq!(out, [u64::MAX; 2], "a rejected batch marks every slot failed");
    assert_eq!(t.len(), 0, "nothing may slip in beside a reserved key");
    assert!(t.entries().is_empty());
}

#[test]
fn enumeration_skips_tombstones_and_unpublished() {
    let t = EoHashTable::new(REGION_SLOTS * 2).unwrap();
    for k in 1..=100u64 {
        t.upsert(k, k * 2).unwrap();
    }
    for k in 1..=50u64 {
        t.remove(k);
    }
    let mut entries = t.entries();
    entries.sort_unstable();
    assert_eq!(entries.len(), 50);
    assert_eq!(entries[0], (51, 102));
    assert_eq!(entries[49], (100, 200));
}
