//! Run encoding: the CQF's variable-sized counters (§5.1), adapted to the
//! GQF's word-aligned slots.
//!
//! Within a run (all items sharing a quotient) remainders are kept in
//! ascending order. Multiplicities are encoded with escape sequences that
//! cost nothing for singletons — the property that gives the CQF its
//! asymptotically optimal counting space:
//!
//! * count 1 → `[x]`
//! * count 2 → `[x, x]`
//! * count c ≥ 3 → `[x, x, x, L, D₁ … D_L]` where `D₁ … D_L` encode
//!   `c − 3` in little-endian base-`2^r` digits and `L` is the digit
//!   count (`c = 3` encodes as `[x, x, x, 0]`).
//!
//! Because remainders within a run are *strictly ascending* across
//! entries, the value following a completed group can never equal `x`, so
//! "two x's" (count 2) and "three x's" (counter group) are unambiguous,
//! and the digit payload is framed by the explicit length — digits may
//! take any value, including values colliding with other remainders.
//! This differs from the reference CQF's digit scheme (digits < remainder
//! with special cases for 0) by up to two extra slots per *counted* item;
//! singletons — the common case the space bound cares about — are
//! identical.
//!
//! An entry's encoding depends on that entry alone, so the GQF core
//! edits one entry of a run in place (`find_entry`, `replace_entry`),
//! reading and rewriting the run in buffers that stay inline for runs of
//! typical length.

use std::ops::{Deref, Range};

/// One decoded run entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Remainder value.
    pub remainder: u64,
    /// Multiplicity (≥ 1).
    pub count: u64,
}

/// Slots a [`RunSlots`] holds without allocating.
const INLINE_SLOTS: usize = 16;

/// One run's slot values: inline up to [`INLINE_SLOTS`] slots and on the
/// heap beyond, so an operation on a run of typical length allocates
/// nothing.
#[derive(Debug, Default)]
pub(crate) struct RunSlots {
    inline: [u64; INLINE_SLOTS],
    len: usize,
    /// Every slot once the run outgrows `inline` (`len` is then unused).
    heap: Vec<u64>,
}

impl RunSlots {
    /// Append one slot value.
    fn push(&mut self, v: u64) {
        if self.heap.is_empty() && self.len < INLINE_SLOTS {
            self.inline[self.len] = v;
            self.len += 1;
        } else {
            if self.heap.is_empty() {
                self.heap.extend_from_slice(&self.inline[..self.len]);
            }
            self.heap.push(v);
        }
    }
}

impl Deref for RunSlots {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        if self.heap.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.heap
        }
    }
}

impl Extend<u64> for RunSlots {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

impl FromIterator<u64> for RunSlots {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut slots = RunSlots::default();
        slots.extend(iter);
        slots
    }
}

/// Digit base at `r` bits (full slot width).
#[inline]
fn base(r_bits: u32) -> u128 {
    1u128 << r_bits.min(64)
}

/// Append one entry's encoding to `out`.
///
/// # Panics
/// If the count is zero.
pub(crate) fn encode_entry(e: Entry, r_bits: u32, out: &mut impl Extend<u64>) {
    assert!(e.count >= 1, "zero-count entry");
    let x = e.remainder;
    match e.count {
        1 => out.extend([x]),
        2 => out.extend([x, x]),
        c => {
            // c − 3 in little-endian base-2^r digits, after their count.
            let b = base(r_bits);
            let digits = std::iter::successors(Some(u128::from(c - 3)), |&rest| Some(rest / b))
                .take_while(|&rest| rest > 0);
            out.extend([x, x, x, digits.clone().count() as u64]);
            out.extend(digits.map(|rest| (rest % b) as u64));
        }
    }
}

/// Encode a sorted entry list into slot values.
///
/// # Panics
/// If entries are not strictly ascending by remainder or a count is zero.
pub fn encode_run(entries: &[Entry], r_bits: u32) -> Vec<u64> {
    let mut out = Vec::with_capacity(entries.len() * 2);
    let mut prev: Option<u64> = None;
    for &e in entries {
        if let Some(p) = prev {
            assert!(e.remainder > p, "entries must be strictly ascending");
        }
        prev = Some(e.remainder);
        encode_entry(e, r_bits, &mut out);
    }
    out
}

/// The entry whose encoding starts at `slots[i]`, and the index after
/// that encoding (at most `slots.len()`).
fn entry_at(slots: &[u64], i: usize, b: u128) -> (Entry, usize) {
    let n = slots.len();
    let x = slots[i];
    if i + 2 < n && slots[i + 1] == x && slots[i + 2] == x {
        // Counter group: [x, x, x, L, digits…].
        let l = if i + 3 < n { slots[i + 3] as usize } else { 0 };
        let l = l.min(n.saturating_sub(i + 4));
        let mut c = 0u128;
        for k in (0..l).rev() {
            c = c * b + slots[i + 4 + k] as u128;
        }
        let count = 3u64.saturating_add(c.min(u64::MAX as u128 - 3) as u64);
        (Entry { remainder: x, count }, (i + 4 + l).min(n))
    } else if i + 1 < n && slots[i + 1] == x {
        (Entry { remainder: x, count: 2 }, i + 2)
    } else {
        (Entry { remainder: x, count: 1 }, i + 1)
    }
}

/// Decode a run's slot values back into entries. A well-formed encoding
/// always round-trips (see the tests); malformed tails decode greedily.
pub fn decode_run(slots: &[u64], r_bits: u32) -> Vec<Entry> {
    let b = base(r_bits);
    let mut entries = Vec::new();
    let mut i = 0usize;
    while i < slots.len() {
        let (e, next) = entry_at(slots, i, b);
        entries.push(e);
        i = next;
    }
    entries
}

/// Find `remainder` in the encoded run `slots` without decoding the rest:
/// its entry's slot range and count, or, when absent, the empty range
/// where its encoding belongs (before the first larger remainder) and 0.
pub(crate) fn find_entry(slots: &[u64], r_bits: u32, remainder: u64) -> (Range<usize>, u64) {
    let b = base(r_bits);
    let mut i = 0usize;
    while i < slots.len() {
        let (e, next) = entry_at(slots, i, b);
        if e.remainder == remainder {
            return (i..next, e.count);
        }
        if e.remainder > remainder {
            break;
        }
        i = next;
    }
    (i..i, 0)
}

/// The run `slots` with the slot range `at` (as [`find_entry`] gives it)
/// re-encoded as `entry`, or dropped when `entry` is `None`. Every other
/// entry keeps its encoding, so on a well-formed run this equals decoding,
/// editing the entry list and re-encoding it.
pub(crate) fn replace_entry(
    slots: &[u64],
    at: Range<usize>,
    entry: Option<Entry>,
    r_bits: u32,
) -> RunSlots {
    let mut out: RunSlots = slots[..at.start].iter().copied().collect();
    if let Some(e) = entry {
        encode_entry(e, r_bits, &mut out);
    }
    out.extend(slots[at.end..].iter().copied());
    out
}

/// Total count across entries.
pub fn total_count(entries: &[Entry]) -> u64 {
    entries.iter().map(|e| e.count).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The entry-list edits the GQF core once ran on every decoded run:
    // the reference `find_entry` + `replace_entry` must agree with.

    /// Merge `(remainder, delta)` into a sorted entry list (insert or bump).
    fn merge_entry(entries: &mut Vec<Entry>, remainder: u64, delta: u64) {
        match entries.binary_search_by_key(&remainder, |e| e.remainder) {
            Ok(i) => entries[i].count = entries[i].count.saturating_add(delta),
            Err(i) => entries.insert(i, Entry { remainder, count: delta }),
        }
    }

    /// Remove `delta` instances of `remainder`; returns `true` if the
    /// remainder was present. Removes the entry entirely when its count
    /// reaches zero.
    fn remove_entry(entries: &mut Vec<Entry>, remainder: u64, delta: u64) -> bool {
        match entries.binary_search_by_key(&remainder, |e| e.remainder) {
            Ok(i) => {
                if entries[i].count <= delta {
                    entries.remove(i);
                } else {
                    entries[i].count -= delta;
                }
                true
            }
            Err(_) => false,
        }
    }

    fn roundtrip(entries: &[Entry], r_bits: u32) {
        let encoded = encode_run(entries, r_bits);
        let decoded = decode_run(&encoded, r_bits);
        assert_eq!(decoded, entries, "r_bits {r_bits} encoded {encoded:?}");
    }

    #[test]
    fn singletons_cost_one_slot_each() {
        let entries = [Entry { remainder: 3, count: 1 }, Entry { remainder: 9, count: 1 }];
        assert_eq!(encode_run(&entries, 8).len(), 2);
        roundtrip(&entries, 8);
    }

    #[test]
    fn count_two_is_doubled_remainder() {
        let entries = [Entry { remainder: 7, count: 2 }];
        assert_eq!(encode_run(&entries, 8), vec![7, 7]);
        roundtrip(&entries, 8);
    }

    #[test]
    fn count_three_is_triple_plus_zero_length() {
        let entries = [Entry { remainder: 7, count: 3 }];
        assert_eq!(encode_run(&entries, 8), vec![7, 7, 7, 0]);
        roundtrip(&entries, 8);
    }

    #[test]
    fn large_counts_roundtrip() {
        for c in [4u64, 5, 100, 255, 256, 257, 65_535, 1_000_000, u64::MAX / 2, u64::MAX] {
            roundtrip(&[Entry { remainder: 42, count: c }], 8);
            roundtrip(&[Entry { remainder: 42, count: c }], 16);
            roundtrip(&[Entry { remainder: 42, count: c }], 32);
        }
    }

    #[test]
    fn zero_and_max_remainders_work() {
        for c in [1u64, 2, 3, 4, 300, 70_000] {
            roundtrip(&[Entry { remainder: 0, count: c }], 8);
            roundtrip(&[Entry { remainder: 255, count: c }], 8);
        }
    }

    #[test]
    fn mixed_runs_roundtrip() {
        let entries = [
            Entry { remainder: 0, count: 5 },
            Entry { remainder: 1, count: 1 },
            Entry { remainder: 2, count: 2 },
            Entry { remainder: 100, count: 1000 },
            Entry { remainder: 255, count: 3 },
        ];
        roundtrip(&entries, 8);
    }

    #[test]
    fn digit_values_may_collide_with_other_remainders() {
        // The counter digits of remainder 9 include the value 5, which is
        // also a stored remainder — the length framing keeps it safe.
        let entries = [
            Entry { remainder: 5, count: 2 },
            Entry { remainder: 9, count: 3 + 5 }, // digit payload contains 5
        ];
        roundtrip(&entries, 8);
    }

    #[test]
    fn adjacent_counted_entries_roundtrip() {
        let entries = [
            Entry { remainder: 4, count: 1000 },
            Entry { remainder: 5, count: 1000 },
            Entry { remainder: 6, count: 2 },
        ];
        roundtrip(&entries, 8);
    }

    #[test]
    fn merge_and_remove_entries() {
        let mut entries = vec![Entry { remainder: 5, count: 1 }];
        merge_entry(&mut entries, 3, 2);
        merge_entry(&mut entries, 5, 1);
        assert_eq!(
            entries,
            vec![Entry { remainder: 3, count: 2 }, Entry { remainder: 5, count: 2 }]
        );
        assert!(remove_entry(&mut entries, 3, 1));
        assert_eq!(entries[0].count, 1);
        assert!(remove_entry(&mut entries, 3, 5));
        assert_eq!(entries.len(), 1);
        assert!(!remove_entry(&mut entries, 99, 1));
    }

    #[test]
    #[should_panic]
    fn unsorted_entries_panic() {
        let _ =
            encode_run(&[Entry { remainder: 9, count: 1 }, Entry { remainder: 3, count: 1 }], 8);
    }

    #[test]
    fn in_place_edits_match_entry_list_edits() {
        // Runs of up to two entries with remainders below 6 and counts
        // from 1 to 40 (two 4-bit counter digits), edited at every
        // remainder below 7 by upserts and deletes of 1, 2 and 9.
        let mut runs = vec![vec![]];
        for r1 in 0..6u64 {
            for c1 in [1u64, 2, 3, 7, 40] {
                runs.push(vec![Entry { remainder: r1, count: c1 }]);
                for r2 in r1 + 1..6 {
                    for c2 in [1u64, 4] {
                        runs.push(vec![
                            Entry { remainder: r1, count: c1 },
                            Entry { remainder: r2, count: c2 },
                        ]);
                    }
                }
            }
        }
        for entries in runs {
            let slots = encode_run(&entries, 4);
            for r in 0..7u64 {
                let (at, count) = find_entry(&slots, 4, r);
                let want = entries.iter().find(|e| e.remainder == r).map_or(0, |e| e.count);
                assert_eq!(count, want, "{entries:?} r={r}");
                for delta in [1u64, 2, 9] {
                    let mut merged = entries.clone();
                    merge_entry(&mut merged, r, delta);
                    let entry = Entry { remainder: r, count: count + delta };
                    let upserted = replace_entry(&slots, at.clone(), Some(entry), 4);
                    assert_eq!(&upserted[..], encode_run(&merged, 4), "{entries:?} +{delta}@{r}");
                    let mut pruned = entries.clone();
                    if remove_entry(&mut pruned, r, delta) {
                        let left = count.saturating_sub(delta);
                        let entry = (left > 0).then_some(Entry { remainder: r, count: left });
                        let deleted = replace_entry(&slots, at.clone(), entry, 4);
                        assert_eq!(
                            &deleted[..],
                            encode_run(&pruned, 4),
                            "{entries:?} -{delta}@{r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn exhaustive_small_runs_roundtrip() {
        // Every pair of entries with small remainders and counts.
        for r1 in 0..6u64 {
            for r2 in (r1 + 1)..7u64 {
                for c1 in 1..8u64 {
                    for c2 in 1..8u64 {
                        roundtrip(
                            &[
                                Entry { remainder: r1, count: c1 },
                                Entry { remainder: r2, count: c2 },
                            ],
                            8,
                        );
                    }
                }
            }
        }
    }
}
