//! Property tests for the GQF: counter-encoding round trips, model-based
//! upsert/delete/query equivalence, and structural invariants.

use gqf::runs::{decode_run, encode_run, Entry};
use gqf::{GqfCore, Layout, REGION_SLOTS};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

/// Strategy: a sorted run of entries with strictly ascending remainders.
fn entries_strategy(r_bits: u32, max_len: usize) -> impl Strategy<Value = Vec<Entry>> {
    let max_rem = if r_bits >= 63 { u64::MAX } else { (1u64 << r_bits) - 1 };
    vec((0..=max_rem, 1u64..1_000_000), 1..max_len).prop_map(|mut raw| {
        raw.sort_by_key(|&(r, _)| r);
        raw.dedup_by_key(|&mut (r, _)| r);
        raw.into_iter().map(|(remainder, count)| Entry { remainder, count }).collect()
    })
}

/// Quotient bits of the delete test's table: two 8192-slot regions, so a
/// window can straddle the region boundary, plus the spill pad.
const DELETE_Q_BITS: u32 = 14;

/// Quotients per window: narrow enough that its runs pack into
/// multi-run clusters.
const WINDOW: usize = 24;

/// First quotient of each window: one away from every edge, one across
/// the region boundary, and one ending at the last canonical quotient,
/// whose clusters spill into the pad.
const WINDOWS: [usize; 3] = [1_000, REGION_SLOTS - WINDOW / 2, (1 << DELETE_Q_BITS) - WINDOW];

/// One step of the delete property test. Remainders are drawn from a
/// small range so runs hold several entries and deletes often miss.
#[derive(Debug, Clone)]
enum DeleteOp {
    /// Upsert `count` copies of `(WINDOWS[window] + offset, r)`.
    Insert { window: usize, offset: usize, r: u64, count: u64 },
    /// Delete `delta` copies of `(WINDOWS[window] + offset, r)`, present
    /// or not.
    Delete { window: usize, offset: usize, r: u64, delta: u64 },
    /// Delete `extra` more copies than the `pick`-th live entry holds.
    Overdelete { pick: usize, extra: u64 },
    /// Delete a remainder absent from the `pick`-th live entry's
    /// (occupied) quotient.
    AbsentInOccupied { pick: usize },
    /// Upsert 4 copies, then delete every copy one at a time: the
    /// encoding shrinks through 5, 4, 2 and 1 slots to none.
    StepDown { window: usize, offset: usize, r: u64 },
}

fn delete_op() -> impl Strategy<Value = DeleteOp> {
    let at = || (0usize..WINDOWS.len(), 0usize..WINDOW, 0u64..12);
    let insert = || {
        (at(), 1u64..6).prop_map(|((window, offset, r), count)| DeleteOp::Insert {
            window,
            offset,
            r,
            count,
        })
    };
    // Arms are picked uniformly; inserts get two so clusters build up
    // faster than the deletes drain them.
    prop_oneof![
        insert(),
        insert(),
        (at(), 1u64..3).prop_map(|((window, offset, r), delta)| DeleteOp::Delete {
            window,
            offset,
            r,
            delta
        }),
        (any::<usize>(), 1u64..4).prop_map(|(pick, extra)| DeleteOp::Overdelete { pick, extra }),
        any::<usize>().prop_map(|pick| DeleteOp::AbsentInOccupied { pick }),
        at().prop_map(|(window, offset, r)| DeleteOp::StepDown { window, offset, r }),
    ]
}

/// Delete `delta` copies of `(q, r)` from `core` and from `model`; assert
/// the outcome, the canonical layout, and the remaining count.
fn delete_checked(
    core: &GqfCore,
    model: &mut BTreeMap<(usize, u64), u64>,
    q: usize,
    r: u64,
    delta: u64,
) {
    let present = model.get(&(q, r)).copied().unwrap_or(0);
    assert_eq!(core.delete(q, r, delta).unwrap(), present > 0, "delete q={q} r={r}");
    core.check_invariants();
    if present > delta {
        model.insert((q, r), present - delta);
    } else {
        model.remove(&(q, r));
    }
    assert_eq!(core.query(q, r), present.saturating_sub(delta), "count q={q} r={r}");
}

/// The `pick`-th live entry, if any.
fn live_entry(model: &BTreeMap<(usize, u64), u64>, pick: usize) -> Option<((usize, u64), u64)> {
    model.iter().nth(pick % model.len().max(1)).map(|(&k, &c)| (k, c))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn encode_decode_roundtrip_8bit(entries in entries_strategy(8, 20)) {
        let encoded = encode_run(&entries, 8);
        prop_assert_eq!(decode_run(&encoded, 8), entries);
    }

    #[test]
    fn encode_decode_roundtrip_16bit(entries in entries_strategy(16, 20)) {
        let encoded = encode_run(&entries, 16);
        prop_assert_eq!(decode_run(&encoded, 16), entries);
    }

    #[test]
    fn encode_decode_roundtrip_64bit(entries in entries_strategy(64, 8)) {
        let encoded = encode_run(&entries, 64);
        prop_assert_eq!(decode_run(&encoded, 64), entries);
    }

    #[test]
    fn singleton_runs_cost_exactly_one_slot_each(
        rems in proptest::collection::btree_set(0u64..256, 1..30)
    ) {
        let entries: Vec<Entry> =
            rems.iter().map(|&r| Entry { remainder: r, count: 1 }).collect();
        prop_assert_eq!(encode_run(&entries, 8).len(), entries.len());
    }

    /// Model-based test: the core agrees with a HashMap on arbitrary
    /// (quotient, remainder, op) sequences, and its invariants hold.
    #[test]
    fn core_matches_model(ops in vec((0usize..512, 0u64..256, 0u8..4, 1u64..40), 1..250)) {
        let core = GqfCore::new(Layout::new(10, 8).unwrap());
        let mut model: HashMap<(usize, u64), u64> = HashMap::new();
        for (q, r, op, c) in ops {
            match op {
                0 | 1 => {
                    if core.upsert(q, r, c).is_ok() {
                        *model.entry((q, r)).or_default() += c;
                    }
                }
                2 => {
                    let want = model.get(&(q, r)).copied().unwrap_or(0);
                    prop_assert_eq!(core.query(q, r), want, "query mismatch q={} r={}", q, r);
                }
                _ => {
                    let present = model.get(&(q, r)).copied().unwrap_or(0);
                    let removed = core.delete(q, r, c).unwrap();
                    prop_assert_eq!(removed, present > 0);
                    if present > 0 {
                        if present <= c {
                            model.remove(&(q, r));
                        } else {
                            model.insert((q, r), present - c);
                        }
                    }
                }
            }
        }
        core.check_invariants();
        for (&(q, r), &want) in &model {
            prop_assert_eq!(core.query(q, r), want);
        }
        let total: u64 = model.values().sum();
        prop_assert_eq!(core.items() as u64, total);
    }

    /// Deletes leave the canonical layout `check_invariants` asserts —
    /// checked after every delete — and exact counts, in dense multi-run
    /// clusters, across the region boundary, in the spill pad, while
    /// counter encodings shrink, for absent remainders in occupied
    /// quotients, and when `delta` exceeds the count.
    #[test]
    fn deletes_keep_canonical_layout_and_counts(ops in vec(delete_op(), 1..120)) {
        let core = GqfCore::new(Layout::new(DELETE_Q_BITS, 8).unwrap());
        let mut model: BTreeMap<(usize, u64), u64> = BTreeMap::new();
        for op in ops {
            match op {
                DeleteOp::Insert { window, offset, r, count } => {
                    let q = WINDOWS[window] + offset;
                    core.upsert(q, r, count).unwrap();
                    *model.entry((q, r)).or_default() += count;
                }
                DeleteOp::Delete { window, offset, r, delta } => {
                    delete_checked(&core, &mut model, WINDOWS[window] + offset, r, delta);
                }
                DeleteOp::Overdelete { pick, extra } => {
                    if let Some(((q, r), count)) = live_entry(&model, pick) {
                        delete_checked(&core, &mut model, q, r, count + extra);
                    }
                }
                DeleteOp::AbsentInOccupied { pick } => {
                    if let Some(((q, _), _)) = live_entry(&model, pick) {
                        let r = (0..).find(|&r| !model.contains_key(&(q, r))).unwrap();
                        let items = core.items();
                        delete_checked(&core, &mut model, q, r, 1);
                        prop_assert_eq!(core.items(), items);
                    }
                }
                DeleteOp::StepDown { window, offset, r } => {
                    let q = WINDOWS[window] + offset;
                    let before = model.get(&(q, r)).copied().unwrap_or(0);
                    core.upsert(q, r, 4).unwrap();
                    model.insert((q, r), before + 4);
                    for _ in 0..before + 4 {
                        delete_checked(&core, &mut model, q, r, 1);
                    }
                }
            }
        }
        for (&(q, r), &want) in &model {
            prop_assert_eq!(core.query(q, r), want);
        }
        prop_assert_eq!(core.items() as u64, model.values().sum::<u64>());
    }

    /// Enumeration returns exactly the stored multiset.
    #[test]
    fn enumerate_is_exact(ops in vec((0usize..200, 0u64..256, 1u64..30), 1..120)) {
        let core = GqfCore::new(Layout::new(10, 8).unwrap());
        let mut model: HashMap<u64, u64> = HashMap::new();
        for (q, r, c) in ops {
            if core.upsert(q, r, c).is_ok() {
                *model.entry(core.layout().join(q, r)).or_default() += c;
            }
        }
        let mut got = core.enumerate();
        got.sort_unstable();
        let mut want: Vec<(u64, u64)> = model.into_iter().collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// Resize preserves the exact multiset.
    #[test]
    fn resize_preserves_counts(keys in vec((any::<u64>(), 1u64..20), 1..100)) {
        let f = gqf::PointGqf::new(10, 16).unwrap();
        let mut model: HashMap<u64, u64> = HashMap::new();
        for &(k, c) in &keys {
            use filter_core::Counting;
            if f.insert_count(k, c).is_ok() {
                *model.entry(k).or_default() += c;
            }
        }
        let big = f.resized().unwrap();
        for (&k, &c) in &model {
            use filter_core::Counting;
            prop_assert!(big.count(k) >= c, "resize lost counts for {}", k);
        }
    }
}
