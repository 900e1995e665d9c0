//! The GQF's quotient-filter core: Robin Hood layout, cluster walks, run
//! rewrites, the custom right-shift `memmove` of inserts (§5.1–5.2), and
//! the left slide of deletes (§6.4). Both shifts move only the cluster
//! tail after the changed run.
//!
//! Every method on [`GqfCore`] **requires exclusive access to the cluster
//! it touches** — provided by region locks in the point API
//! ([`crate::point`]) or by even-odd phase ownership in the bulk API
//! ([`crate::bulk`]). The core therefore uses tracked (charged) plain
//! reads/writes rather than per-slot atomics, exactly as the paper's
//! kernels do once a thread owns a region: every write lands in a region
//! its caller owns, so when a buffer's words never span two regions (the
//! metadata and every power-of-two remainder width) a store is one load
//! and one plain store of the word ([`crate::bits::Tracked::set`]); other
//! widths keep a CAS that preserves the neighbouring owner's slots.
//!
//! Cluster starts, run ends, run ranks, occupied-quotient scans and empty
//! slots are found by the word-at-a-time metadata walks of
//! [`crate::bits`] — 64 metadata bits per step, as in the paper's GQF.
//!
//! Both shifts move whole words, as the paper's `memmove` does: an
//! insert's right shift moves the remainders and continuation bits with
//! one word-level move each and sets the shifted bits with one fill; a
//! delete's left slide finds the tail's runs with plain word scans and
//! moves each maximal group of runs that slide by the same distance at
//! once. Their cursors charge the lines of the slot-by-slot loops they
//! replace, in the same order, so every modeled count is that of the
//! per-slot shifts — which survive as `#[cfg(test)]` references that the
//! tests run side by side with the word paths.
//!
//! Layout invariants (the classic quotient-filter encoding, §5.1):
//! * items with quotient `q` form a *run* of slots with ascending
//!   remainders; the first run slot has `continuation = 0`, the rest `1`;
//! * `occupieds[q] = 1` iff a run for `q` exists somewhere;
//! * a slot holds `shifted = 1` iff its item sits right of its canonical
//!   slot; a slot with all three bits clear is empty;
//! * runs are ordered by quotient and packed into *clusters* — maximal
//!   empty-free slot ranges, each starting at an unshifted slot;
//! * the layout is canonical: each run starts at max(previous run end,
//!   quotient), so it depends only on the stored multiset.

use crate::bits::{self, BitScan, MetaCursor, Metadata, Tracked, Walk};
use crate::layout::Layout;
use crate::runs::{
    decode_run, encode_entry, encode_run, find_entry, replace_entry, total_count, Entry, RunSlots,
};
use filter_core::FilterError;
use gpu_sim::GpuBuffer;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The exclusive-access quotient filter core shared by the GQF's point and
/// bulk APIs.
pub struct GqfCore {
    layout: Layout,
    remainders: GpuBuffer,
    meta: Metadata,
    /// Physical slots currently holding data (load-factor accounting).
    used_slots: AtomicUsize,
    /// Total multiset size (sum of counts).
    items: AtomicUsize,
    /// Shift with the slot-by-slot reference loops instead of the word
    /// moves (tests compare the two).
    #[cfg(test)]
    per_slot_shifts: bool,
}

/// A run collected during a cluster walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run {
    /// The run's quotient.
    pub quotient: usize,
    /// Decoded entries, ascending by remainder.
    pub entries: Vec<Entry>,
}

impl GqfCore {
    /// Allocate an empty filter with the given layout.
    pub fn new(layout: Layout) -> Self {
        let n = layout.physical_slots();
        GqfCore {
            remainders: GpuBuffer::new(n, layout.r_bits),
            meta: Metadata::new(n),
            used_slots: AtomicUsize::new(0),
            items: AtomicUsize::new(0),
            layout,
            #[cfg(test)]
            per_slot_shifts: false,
        }
    }

    /// Table geometry.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Total multiset size.
    pub fn items(&self) -> usize {
        self.items.load(Ordering::Relaxed)
    }

    /// Physical slots in use.
    pub fn used_slots(&self) -> usize {
        self.used_slots.load(Ordering::Relaxed)
    }

    /// Load factor over canonical slots.
    pub fn load_factor(&self) -> f64 {
        self.used_slots() as f64 / self.layout.canonical_slots() as f64
    }

    /// Bytes owned by the table (remainders + metadata bitvectors).
    pub fn bytes(&self) -> usize {
        self.remainders.bytes() + self.meta.bytes()
    }

    /// Split a key's 64-bit hash into (quotient, remainder).
    #[inline]
    pub fn parts(&self, key: u64) -> (usize, u64) {
        self.layout.split(filter_core::hash64(key))
    }

    /// Read-only probe of the cluster start covering quotient `q` — used
    /// by the point API to size its lock span before acquiring. May be
    /// stale under concurrency; callers must re-verify under their locks.
    pub fn probe_cluster_start(&self, q: usize) -> usize {
        let mut shift = Tracked::new(&self.meta.shifteds);
        self.cluster_start(&mut shift, q)
    }

    // ------------------------------------------------------------------
    // Walks (read-only)
    // ------------------------------------------------------------------

    /// Start of the cluster covering `q`: the nearest unshifted slot at or
    /// left of `q`.
    fn cluster_start(&self, shift: &mut Tracked<'_>, q: usize) -> usize {
        bits::prev_clear(shift, q)
    }

    /// Last slot of the run starting at `s`: the slot before the first
    /// clear continuation bit after `s` (clamped to the table end).
    fn run_end(&self, cont: &mut Tracked<'_>, s: usize) -> usize {
        let n = self.layout.physical_slots();
        if s + 1 >= n {
            return s;
        }
        bits::next_clear(cont, s + 1, n) - 1
    }

    /// Start slot of quotient `q`'s run (or where it would begin if `q` is
    /// not yet occupied). Requires slot `q` to be non-empty or occupied —
    /// i.e. not the trivial-insert case.
    fn run_start(&self, cur: &mut MetaCursor<'_>, q: usize) -> usize {
        if !cur.shift.get_bit(q) {
            return q;
        }
        let c0 = self.cluster_start(&mut cur.shift, q);
        // Skip one run per occupied quotient in [c0, q); the cluster's
        // first run always belongs to quotient c0 (a cluster start is an
        // unshifted run start), so the walk is a simple pairing: rank the
        // occupied bits word-at-a-time, then make that many run-end jumps
        // (a jump does not depend on *which* quotient triggered it).
        let mut s = c0;
        for _ in 0..bits::rank_set(&mut cur.occ, c0, q) {
            s = self.run_end(&mut cur.cont, s) + 1;
        }
        // Robin Hood: a run never starts left of its canonical slot.
        debug_assert!(s >= q || !cur.occ.get_bit(q), "run start {s} left of quotient {q}");
        s.max(q)
    }

    /// First empty slot at or after `from`.
    fn first_empty(&self, cur: &mut MetaCursor<'_>, from: usize) -> Result<usize, FilterError> {
        let n = self.layout.physical_slots();
        let i = bits::next_empty(cur, from, n);
        if i < n {
            Ok(i)
        } else {
            Err(FilterError::Full)
        }
    }

    /// Read the raw slot values of the run starting at `start`.
    /// Returns (values, end_exclusive).
    fn read_run(
        &self,
        cont: &mut Tracked<'_>,
        rem: &mut Tracked<'_>,
        start: usize,
    ) -> (RunSlots, usize) {
        let end = self.run_end(cont, start);
        let vals = (start..=end).map(|i| rem.get(i)).collect();
        (vals, end + 1)
    }

    // ------------------------------------------------------------------
    // Mutations (require exclusive cluster access)
    // ------------------------------------------------------------------

    /// Shift `[a, e)` one slot right (`e` must be empty): the custom
    /// `memmove` of §5.2. The remainders and continuation bits move a
    /// word at a time, and one fill marks every moved slot shifted; the
    /// charges are those of `memmove_right_one_per_slot` (tests only), which
    /// walks right to left so the overlapping ranges are safe.
    fn memmove_right_one(
        &self,
        cur: &mut MetaCursor<'_>,
        rem: &mut Tracked<'_>,
        a: usize,
        e: usize,
    ) {
        debug_assert!(self.meta.is_empty_slot(cur, e));
        #[cfg(test)]
        if self.per_slot_shifts {
            return self.memmove_right_one_per_slot(cur, rem, a, e);
        }
        rem.charge_loads(a..e, Walk::Down);
        rem.move_slots(a, a + 1, e - a);
        cur.cont.charge_loads(a..e, Walk::Down);
        cur.cont.move_slots(a, a + 1, e - a);
        cur.shift.fill(a + 1..e + 1, 1, Walk::Down);
    }

    /// Open `k` holes at `[pos, pos + k)`, shifting cluster contents right.
    ///
    /// `origin_q` is the canonical slot of the item being placed. The
    /// shift is refused (`Full`) if it would escape the two regions the
    /// caller owns — the structural guarantee behind both the point API's
    /// two-lock scheme and the bulk API's even-odd phases (§5.2/§5.3:
    /// clusters stay under 8192 slots at supported load factors; an
    /// overfilled filter fails the insert instead of racing a neighbour).
    fn open_gap(
        &self,
        cur: &mut MetaCursor<'_>,
        rem: &mut Tracked<'_>,
        origin_q: usize,
        pos: usize,
        k: usize,
    ) -> Result<(), FilterError> {
        use crate::layout::REGION_SLOTS;
        let owned_end = ((self.layout.region_of(origin_q) + 2) * REGION_SLOTS)
            .min(self.layout.physical_slots());
        // Pre-flight: the gap must be coverable by empties inside the
        // owned span, otherwise nothing is moved and the insert fails
        // cleanly (no partial state to roll back).
        let mut from = pos;
        for _ in 0..k {
            let e = bits::next_empty(cur, from, owned_end);
            if e == owned_end {
                return Err(FilterError::Full);
            }
            from = e + 1;
        }
        for step in 0..k {
            let target = pos + step;
            let e = self.first_empty(cur, target)?;
            debug_assert!(e < owned_end);
            if e != target {
                self.memmove_right_one(cur, rem, target, e);
                // The vacated slot is a hole until the caller writes it.
                cur.cont.set_bit(target, false);
                cur.shift.set_bit(target, false);
            }
        }
        self.used_slots.fetch_add(k, Ordering::Relaxed);
        Ok(())
    }

    /// Write a run's slots at `[start, start + vals.len())` with correct
    /// metadata for quotient `q`.
    fn write_run(
        &self,
        cur: &mut MetaCursor<'_>,
        rem: &mut Tracked<'_>,
        q: usize,
        start: usize,
        vals: &[u64],
    ) {
        for (i, &v) in vals.iter().enumerate() {
            rem.set(start + i, v);
            cur.cont.set_bit(start + i, i != 0);
            cur.shift.set_bit(start + i, if i == 0 { start != q } else { true });
        }
    }

    /// Add `delta` instances of the item hashing to `(q, r)`.
    ///
    /// Fast paths: an empty canonical slot costs one slot write; growing a
    /// run shifts only the cluster tail right. Requires exclusive access
    /// to the affected regions.
    pub fn upsert(&self, q: usize, r: u64, delta: u64) -> Result<(), FilterError> {
        debug_assert!(q < self.layout.canonical_slots());
        let mut cur = self.meta.cursor();
        let mut rem = Tracked::new(&self.remainders);
        let was_occupied = cur.occ.get_bit(q);

        if !was_occupied && self.meta.is_empty_slot(&mut cur, q) && delta == 1 {
            // Trivial case (§5.1): the canonical slot is free.
            rem.set(q, r);
            cur.occ.set_bit(q, true);
            self.used_slots.fetch_add(1, Ordering::Relaxed);
            self.items.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }

        if was_occupied {
            let start = self.run_start(&mut cur, q);
            let (old_vals, end_ex) = self.read_run(&mut cur.cont, &mut rem, start);
            let (at, count) = find_entry(&old_vals, self.layout.r_bits, r);
            let entry = Entry { remainder: r, count: count.saturating_add(delta) };
            let new_vals = replace_entry(&old_vals, at, Some(entry), self.layout.r_bits);
            let old_len = end_ex - start;
            if new_vals.len() > old_len {
                self.open_gap(&mut cur, &mut rem, q, end_ex, new_vals.len() - old_len)?;
            }
            debug_assert!(new_vals.len() >= old_len, "upsert never shrinks a run");
            self.write_run(&mut cur, &mut rem, q, start, &new_vals);
        } else {
            // New run: find its position among the cluster's runs.
            let start =
                if self.meta.is_empty_slot(&mut cur, q) { q } else { self.run_start(&mut cur, q) };
            let mut new_vals = RunSlots::default();
            encode_entry(Entry { remainder: r, count: delta }, self.layout.r_bits, &mut new_vals);
            self.open_gap(&mut cur, &mut rem, q, start, new_vals.len())?;
            self.write_run(&mut cur, &mut rem, q, start, &new_vals);
            cur.occ.set_bit(q, true);
        }
        self.items.fetch_add(delta as usize, Ordering::Relaxed);
        Ok(())
    }

    /// Count of items hashing to `(q, r)` (0 when absent; never
    /// undercounts true insertions of the same fingerprint).
    pub fn query(&self, q: usize, r: u64) -> u64 {
        let mut cur = self.meta.cursor();
        if !cur.occ.get_bit(q) {
            return 0;
        }
        let mut rem = Tracked::new(&self.remainders);
        let start = self.run_start(&mut cur, q);
        let (vals, _) = self.read_run(&mut cur.cont, &mut rem, start);
        find_entry(&vals, self.layout.r_bits, r).1
    }

    /// Collect every run of the cluster starting at `c0`.
    /// Returns the runs and the exclusive cluster end.
    fn collect_cluster(
        &self,
        cur: &mut MetaCursor<'_>,
        rem: &mut Tracked<'_>,
        c0: usize,
    ) -> (Vec<Run>, usize) {
        let mut runs = Vec::new();
        let mut s = c0;
        let mut q_cursor = c0;
        while s < self.layout.physical_slots() && !self.meta.is_empty_slot(cur, s) {
            let b = self.next_occupied(&mut cur.occ, q_cursor, s + 1);
            debug_assert!(b <= s, "run at {s} has no occupied quotient");
            let (vals, end_ex) = self.read_run(&mut cur.cont, rem, s);
            runs.push(Run { quotient: b, entries: decode_run(&vals, self.layout.r_bits) });
            q_cursor = b + 1;
            s = end_ex;
        }
        (runs, s)
    }

    /// First occupied quotient in `[from, to)`, else `to`.
    fn next_occupied(&self, occ: &mut Tracked<'_>, from: usize, to: usize) -> usize {
        bits::next_set(occ, from, to)
    }

    /// Close the hole `[dst, src)` that quotient `q`'s run left when it
    /// shrank: slide each following run of the cluster left, never past
    /// its own quotient, and clear the slots nothing moves into — the
    /// left-shift of §6.4, touching only what follows the removed item.
    /// The slide stops at the first empty slot or unshifted run start
    /// (neither can move), so it stays inside the cluster and the regions
    /// its caller owns. Each moved run starts at max(previous run end,
    /// quotient), the canonical layout [`Self::check_invariants`] asserts,
    /// so every occupied quotient's slot stays covered and no freed slot
    /// carries an occupied bit.
    ///
    /// The tail (every slot up to the first clear shifted bit) is read
    /// with plain word scans: run starts are its clear continuation bits,
    /// and the runs' quotients the next occupied bits. Consecutive runs
    /// that slide by the same distance form one segment, moved at once;
    /// when one slot was freed that is the whole tail. A run that lands on
    /// its quotient gets its shifted bit cleared. The cursors charge the
    /// lines of `slide_left_per_slot` (tests only) exactly: its shifted-bit
    /// check at each run start and at the tail's end, its occupied and
    /// continuation walks, and its ascending stores.
    fn slide_left(
        &self,
        cur: &mut MetaCursor<'_>,
        rem: &mut Tracked<'_>,
        q: usize,
        mut dst: usize,
        src: usize,
    ) {
        #[cfg(test)]
        if self.per_slot_shifts {
            return self.slide_left_per_slot(cur, rem, q, dst, src);
        }
        let n = self.layout.physical_slots();
        let meta = &self.meta;
        // The three bitvectors share one geometry.
        let line = |slot: usize| meta.shifteds.line_of(slot);
        let tail_end = BitScan::clear(&meta.shifteds, src, n).next().unwrap_or(n);
        let mut starts = BitScan::clear(&meta.continuations, src, tail_end);
        let mut quotients = BitScan::set(&meta.occupieds, q + 1, n);
        // The segment being gathered: its first source slot and distance
        // (0 before the first run, which always slides).
        let mut segment = (src, 0);
        // The first destination slot whose shifted bit is not yet stored.
        let mut shifted_from = dst;
        let mut last_quotient = None;
        let mut run = starts.next();
        while let Some(start) = run {
            cur.shift.load_lines().touch(line(start));
            let b = quotients.next().expect("a shifted run has an occupied quotient");
            debug_assert!(b < start, "shifted run at {start} has no occupied quotient");
            run = starts.next();
            let to = dst.max(b);
            if start - to != segment.1 {
                self.slide_segment(cur, rem, segment, start);
                cur.cont.fill(dst..to, 0, Walk::Up);
                segment = (start, start - to);
            }
            if to == b {
                // The run lands on its quotient: its first slot and the
                // gap before it (if any) are unshifted.
                cur.shift.fill(shifted_from..dst, 1, Walk::Up);
                cur.shift.fill(dst..to + 1, 0, Walk::Up);
                shifted_from = to + 1;
            }
            dst = to + (run.unwrap_or(tail_end) - start);
            last_quotient = Some(b);
        }
        self.slide_segment(cur, rem, segment, tail_end);
        cur.cont.fill(dst..tail_end, 0, Walk::Up);
        cur.shift.fill(shifted_from..dst, 1, Walk::Up);
        cur.shift.fill(dst..tail_end, 0, Walk::Up);
        if tail_end < n {
            cur.shift.load_lines().touch(line(tail_end));
        }
        if let Some(b) = last_quotient {
            cur.occ.load_lines().walk(line(q + 1), line(b));
            if src + 1 < n {
                cur.cont.load_lines().walk(line(src + 1), line(tail_end.min(n - 1)));
            }
        }
    }

    /// Move the slide segment `(first, distance)` — the runs in
    /// `[first, end)` — left by its distance: remainders and continuation
    /// bits, each with one word-level move.
    fn slide_segment(
        &self,
        cur: &mut MetaCursor<'_>,
        rem: &mut Tracked<'_>,
        (first, distance): (usize, usize),
        end: usize,
    ) {
        let len = end - first;
        rem.charge_loads(first..end, Walk::Up);
        rem.move_slots(first, first - distance, len);
        cur.cont.move_slots(first, first - distance, len);
    }

    /// Remove `delta` instances of `(q, r)`. Returns `true` if the
    /// fingerprint was present.
    ///
    /// Re-encodes only `r`'s entry of `q`'s run; if the run shrank,
    /// `slide_left` closes the freed slots. Requires exclusive access to
    /// the cluster.
    pub fn delete(&self, q: usize, r: u64, delta: u64) -> Result<bool, FilterError> {
        let mut cur = self.meta.cursor();
        if !cur.occ.get_bit(q) {
            return Ok(false);
        }
        let mut rem = Tracked::new(&self.remainders);
        let start = self.run_start(&mut cur, q);
        let (old_vals, old_end) = self.read_run(&mut cur.cont, &mut rem, start);
        let (at, count) = find_entry(&old_vals, self.layout.r_bits, r);
        if count == 0 {
            return Ok(false);
        }
        let left = count.saturating_sub(delta);
        let entry = (left > 0).then_some(Entry { remainder: r, count: left });
        let new_vals = replace_entry(&old_vals, at, entry, self.layout.r_bits);
        if new_vals.is_empty() {
            cur.occ.set_bit(q, false);
        }
        self.write_run(&mut cur, &mut rem, q, start, &new_vals);
        let freed = old_vals.len() - new_vals.len();
        if freed > 0 {
            self.slide_left(&mut cur, &mut rem, q, start + new_vals.len(), old_end);
            self.used_slots.fetch_sub(freed, Ordering::Relaxed);
        }
        self.items.fetch_sub((count - left) as usize, Ordering::Relaxed);
        Ok(true)
    }

    /// Enumerate the stored multiset as `(hash_prefix, count)` pairs —
    /// the lossless `h(S)` representation (supports merging, resizing,
    /// and the database-join use cases of §1).
    pub fn enumerate(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cur = self.meta.cursor();
        let mut rem = Tracked::new(&self.remainders);
        let mut s = 0usize;
        while s < self.layout.physical_slots() {
            if self.meta.is_empty_slot(&mut cur, s) {
                s += 1;
                continue;
            }
            let (runs, end) = self.collect_cluster(&mut cur, &mut rem, s);
            for run in runs {
                for e in run.entries {
                    out.push((self.layout.join(run.quotient, e.remainder), e.count));
                }
            }
            s = end;
        }
        out
    }

    /// Streaming iterator over the stored multiset as `(hash, count)`
    /// pairs, cluster by cluster — the enumeration API database engines
    /// need for merges and joins (§1) without materializing a vector.
    /// Requires no concurrent writers.
    pub fn iter(&self) -> MultisetIter<'_> {
        MultisetIter { core: self, next_slot: 0, pending: Vec::new() }
    }

    /// Verify the structural invariants (test / debugging aid), panicking
    /// on a violation. One O(n) pass checks that every run
    /// * starts at max(previous run end, quotient) — the canonical layout
    ///   an upsert's right shift and a delete's left slide both keep;
    /// * has its first slot marked shifted exactly when start ≠ quotient;
    /// * sets continuation bits on exactly its non-first slots, all of
    ///   them shifted;
    /// * holds exactly `encode_run` of its decoded, strictly ascending
    ///   entries;
    ///
    /// and that every occupied quotient owns one run and the slot and
    /// item accounting is exact.
    pub fn check_invariants(&self) {
        let n = self.layout.physical_slots();
        let r_bits = self.layout.r_bits;
        let mut cur = self.meta.cursor();
        let mut rem = Tracked::new(&self.remainders);
        let (mut used, mut items, mut runs) = (0usize, 0u64, 0usize);
        // Exclusive end of the previous run, and the lowest quotient the
        // next run may belong to.
        let (mut prev_end, mut q_next) = (0usize, 0usize);
        let mut s = 0usize;
        while s < n {
            // Skip empty slots (all three bits clear) a word at a time;
            // `n` is a multiple of 64.
            let busy =
                (cur.occ.get_word(s) | cur.cont.get_word(s) | cur.shift.get_word(s)) >> (s % 64);
            if busy == 0 {
                s = (s | 63) + 1;
                continue;
            }
            s += busy.trailing_zeros() as usize;
            assert!(!cur.cont.get_bit(s), "run start {s} marked as a continuation");
            let b = self.next_occupied(&mut cur.occ, q_next, s + 1);
            assert!(b <= s, "run at {s} has no occupied quotient");
            assert_eq!(s, prev_end.max(b), "run of quotient {b} is not at max(prev end, quotient)");
            assert_eq!(cur.shift.get_bit(s), s != b, "run start {s} has a wrong shifted bit");
            let (vals, end) = self.read_run(&mut cur.cont, &mut rem, s);
            for i in s + 1..end {
                assert!(cur.shift.get_bit(i), "continuation slot {i} not marked shifted");
            }
            let entries = decode_run(&vals, r_bits);
            for pair in entries.windows(2) {
                assert!(pair[0].remainder < pair[1].remainder, "run remainders out of order");
            }
            assert_eq!(
                encode_run(&entries, r_bits),
                &vals[..],
                "run at {s} is not canonically encoded"
            );
            items += total_count(&entries);
            used += end - s;
            runs += 1;
            (prev_end, q_next, s) = (end, b + 1, end);
        }
        let occupied = bits::rank_set(&mut cur.occ, 0, n);
        assert_eq!(occupied, runs, "occupied quotients and runs differ in number");
        assert_eq!(used, self.used_slots(), "used-slot accounting drift");
        assert_eq!(items, self.items() as u64, "item accounting drift");
    }
}

/// The slot-by-slot shifts the word moves replace: the references the
/// tests run side by side with them.
#[cfg(test)]
impl GqfCore {
    /// An empty filter that shifts with the per-slot references.
    fn with_per_slot_shifts(layout: Layout) -> Self {
        GqfCore { per_slot_shifts: true, ..GqfCore::new(layout) }
    }

    /// [`Self::memmove_right_one`] one slot per step, right to left.
    fn memmove_right_one_per_slot(
        &self,
        cur: &mut MetaCursor<'_>,
        rem: &mut Tracked<'_>,
        a: usize,
        e: usize,
    ) {
        for i in (a..e).rev() {
            let v = rem.get(i);
            rem.set(i + 1, v);
            let c = cur.cont.get_bit(i);
            cur.cont.set_bit(i + 1, c);
            cur.shift.set_bit(i + 1, true);
        }
    }

    /// Mark `[from, to)` empty by clearing continuation and shifted bits
    /// (a freed slot carries no occupied bit).
    fn clear_slots(&self, cur: &mut MetaCursor<'_>, from: usize, to: usize) {
        for i in from..to {
            cur.cont.set_bit(i, false);
            cur.shift.set_bit(i, false);
        }
    }

    /// [`Self::slide_left`] one run and one slot per step.
    fn slide_left_per_slot(
        &self,
        cur: &mut MetaCursor<'_>,
        rem: &mut Tracked<'_>,
        q: usize,
        mut dst: usize,
        mut src: usize,
    ) {
        let n = self.layout.physical_slots();
        let mut q_next = q + 1;
        // After a run end, a shifted slot starts the cluster's next run.
        while src < n && cur.shift.get_bit(src) {
            let b = self.next_occupied(&mut cur.occ, q_next, src);
            debug_assert!(b < src, "shifted run at {src} has no occupied quotient");
            let end = self.run_end(&mut cur.cont, src) + 1;
            let to = dst.max(b);
            self.clear_slots(cur, dst, to);
            // `to < src`, so an ascending copy never reads a written slot.
            for i in 0..end - src {
                let v = rem.get(src + i);
                rem.set(to + i, v);
                cur.cont.set_bit(to + i, i != 0);
                cur.shift.set_bit(to + i, i != 0 || to != b);
            }
            dst = to + (end - src);
            src = end;
            q_next = b + 1;
        }
        self.clear_slots(cur, dst, src);
    }
}

/// Streaming `(hash, count)` iterator over a [`GqfCore`].
pub struct MultisetIter<'a> {
    core: &'a GqfCore,
    next_slot: usize,
    /// Entries of the most recently decoded cluster, reversed for pop().
    pending: Vec<(u64, u64)>,
}

impl Iterator for MultisetIter<'_> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        loop {
            if let Some(item) = self.pending.pop() {
                return Some(item);
            }
            // Advance to the next cluster.
            let mut cur = self.core.meta.cursor();
            let mut rem = Tracked::new(&self.core.remainders);
            while self.next_slot < self.core.layout.physical_slots()
                && self.core.meta.is_empty_slot(&mut cur, self.next_slot)
            {
                self.next_slot += 1;
            }
            if self.next_slot >= self.core.layout.physical_slots() {
                return None;
            }
            let (runs, end) = self.core.collect_cluster(&mut cur, &mut rem, self.next_slot);
            self.next_slot = end;
            for run in runs.into_iter().rev() {
                for e in run.entries.into_iter().rev() {
                    self.pending.push((self.core.layout.join(run.quotient, e.remainder), e.count));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> GqfCore {
        GqfCore::new(Layout::new(10, 8).unwrap())
    }

    #[test]
    fn trivial_insert_and_query() {
        let f = small();
        f.upsert(100, 7, 1).unwrap();
        assert_eq!(f.query(100, 7), 1);
        assert_eq!(f.query(100, 8), 0);
        assert_eq!(f.query(101, 7), 0);
        f.check_invariants();
    }

    #[test]
    fn same_quotient_builds_sorted_run() {
        let f = small();
        for r in [9u64, 3, 7, 1, 200] {
            f.upsert(50, r, 1).unwrap();
        }
        for r in [1u64, 3, 7, 9, 200] {
            assert_eq!(f.query(50, r), 1, "remainder {r}");
        }
        f.check_invariants();
    }

    #[test]
    fn colliding_quotients_shift_robin_hood() {
        let f = small();
        // Fill quotients 10..20 with two remainders each: clusters form.
        for q in 10..20usize {
            f.upsert(q, 5, 1).unwrap();
            f.upsert(q, 9, 1).unwrap();
        }
        for q in 10..20usize {
            assert_eq!(f.query(q, 5), 1, "q {q}");
            assert_eq!(f.query(q, 9), 1, "q {q}");
            assert_eq!(f.query(q, 6), 0, "q {q}");
        }
        f.check_invariants();
    }

    #[test]
    fn duplicate_inserts_count() {
        let f = small();
        for _ in 0..5 {
            f.upsert(30, 77, 1).unwrap();
        }
        assert_eq!(f.query(30, 77), 5);
        f.upsert(30, 77, 100).unwrap();
        assert_eq!(f.query(30, 77), 105);
        f.check_invariants();
    }

    #[test]
    fn counted_insert_in_one_call() {
        let f = small();
        f.upsert(40, 3, 1000).unwrap();
        assert_eq!(f.query(40, 3), 1000);
        assert_eq!(f.items(), 1000);
        f.check_invariants();
    }

    #[test]
    fn delete_decrements_and_removes() {
        let f = small();
        f.upsert(60, 8, 3).unwrap();
        assert!(f.delete(60, 8, 1).unwrap());
        assert_eq!(f.query(60, 8), 2);
        assert!(f.delete(60, 8, 2).unwrap());
        assert_eq!(f.query(60, 8), 0);
        assert!(!f.delete(60, 8, 1).unwrap());
        assert_eq!(f.items(), 0);
        assert_eq!(f.used_slots(), 0);
        f.check_invariants();
    }

    #[test]
    fn delete_middle_run_relayouts_cluster() {
        let f = small();
        for q in 70..75usize {
            for r in [2u64, 4] {
                f.upsert(q, r, 1).unwrap();
            }
        }
        assert!(f.delete(72, 2, 1).unwrap());
        assert!(f.delete(72, 4, 1).unwrap());
        f.check_invariants();
        for q in 70..75usize {
            if q == 72 {
                assert_eq!(f.query(q, 2), 0);
            } else {
                assert_eq!(f.query(q, 2), 1, "q {q}");
                assert_eq!(f.query(q, 4), 1, "q {q}");
            }
        }
    }

    #[test]
    fn enumerate_returns_exact_multiset() {
        let f = small();
        let inserted = [(5usize, 1u64, 3u64), (5, 9, 1), (6, 1, 2), (900, 200, 7)];
        for &(q, r, c) in &inserted {
            f.upsert(q, r, c).unwrap();
        }
        let mut got = f.enumerate();
        got.sort_unstable();
        let mut want: Vec<(u64, u64)> =
            inserted.iter().map(|&(q, r, c)| (f.layout().join(q, r), c)).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn dense_region_fills_and_recovers() {
        let f = small();
        // Hammer a narrow quotient range to force long clusters and
        // multi-run shifting.
        for i in 0..200u64 {
            f.upsert(500 + (i % 10) as usize, i, 1).unwrap();
        }
        f.check_invariants();
        for i in 0..200u64 {
            assert!(f.query(500 + (i % 10) as usize, i) >= 1, "item {i}");
        }
        for i in 0..200u64 {
            assert!(f.delete(500 + (i % 10) as usize, i, 1).unwrap(), "delete {i}");
        }
        assert_eq!(f.items(), 0);
        f.check_invariants();
    }

    #[test]
    fn random_workload_matches_reference_model() {
        use std::collections::HashMap;
        let f = GqfCore::new(Layout::new(12, 8).unwrap());
        let mut model: HashMap<(usize, u64), u64> = HashMap::new();
        let mut rng = 0x12345u64;
        let mut next = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            rng
        };
        for _ in 0..3000 {
            let q = (next() % 512) as usize; // dense → long clusters
            let r = next() % 256;
            match next() % 4 {
                0 | 1 => {
                    f.upsert(q, r, 1).unwrap();
                    *model.entry((q, r)).or_default() += 1;
                }
                2 => {
                    let c = next() % 50 + 1;
                    f.upsert(q, r, c).unwrap();
                    *model.entry((q, r)).or_default() += c;
                }
                _ => {
                    let present = model.get(&(q, r)).copied().unwrap_or(0);
                    let deleted = f.delete(q, r, 1).unwrap();
                    assert_eq!(deleted, present > 0, "delete mismatch q={q} r={r}");
                    if present > 0 {
                        if present == 1 {
                            model.remove(&(q, r));
                        } else {
                            model.insert((q, r), present - 1);
                        }
                    }
                }
            }
        }
        f.check_invariants();
        for (&(q, r), &c) in &model {
            assert_eq!(f.query(q, r), c, "final count q={q} r={r}");
        }
    }

    #[test]
    fn full_filter_errors() {
        // 64 canonical slots + 16384 pad slots; 16-bit remainders give
        // enough distinct fingerprints to exhaust every physical slot.
        let f = GqfCore::new(Layout::new(6, 16).unwrap());
        let physical = f.layout().physical_slots() as u64;
        // Ascending (q, r) order appends at cluster end, so filling is
        // O(n) — each insert still decodes only its own run.
        let mut n = 0u64;
        let mut err = None;
        'outer: for q in 0..64usize {
            for r in 0..2048u64 {
                match f.upsert(q, r, 1) {
                    Ok(()) => n += 1,
                    Err(e) => {
                        err = Some(e);
                        break 'outer;
                    }
                }
                assert!(n <= physical + 1, "filter never filled");
            }
        }
        assert_eq!(err, Some(FilterError::Full));
        // A sample of items inserted before the failure is queryable.
        for r in (0..2048u64).step_by(211) {
            assert_eq!(f.query(0, r), 1);
        }
    }

    #[test]
    fn iter_streams_same_multiset_as_enumerate() {
        let f = small();
        for (q, r, c) in [(3usize, 9u64, 2u64), (3, 11, 1), (500, 0, 7), (900, 255, 3)] {
            f.upsert(q, r, c).unwrap();
        }
        let mut streamed: Vec<(u64, u64)> = f.iter().collect();
        let mut enumerated = f.enumerate();
        streamed.sort_unstable();
        enumerated.sort_unstable();
        assert_eq!(streamed, enumerated);
    }

    #[test]
    fn iter_on_empty_filter_is_empty() {
        let f = small();
        assert_eq!(f.iter().count(), 0);
    }

    #[test]
    fn iter_preserves_quotient_order_within_cluster() {
        let f = small();
        for q in 100..110usize {
            f.upsert(q, 1, 1).unwrap();
            f.upsert(q, 2, 1).unwrap();
        }
        let hashes: Vec<u64> = f.iter().map(|(h, _)| h).collect();
        let mut sorted = hashes.clone();
        sorted.sort_unstable();
        assert_eq!(hashes, sorted, "cluster iteration yields ascending hashes");
    }

    /// Every remainder and metadata word of a core.
    fn words(core: &GqfCore) -> Vec<u64> {
        let meta = &core.meta;
        [&core.remainders, &meta.occupieds, &meta.continuations, &meta.shifteds]
            .into_iter()
            .flat_map(|buf| {
                (0..buf.len()).step_by(buf.slots_per_word()).map(|s| buf.read_word_free(s))
            })
            .collect()
    }

    /// `op`'s result and the line loads and stores it charged.
    fn charged<T>(op: impl FnOnce() -> T) -> (T, u64, u64) {
        use gpu_sim::{metrics, Counter};
        let before = metrics::snapshot_current_thread();
        let out = op();
        let diff = metrics::snapshot_current_thread().since(&before);
        (out, diff.get(Counter::LinesLoaded), diff.get(Counter::LinesStored))
    }

    /// The word shifts against the per-slot references: random upserts
    /// (counts 1–7) and deletes (delta 1, or the full count, which frees
    /// several slots) on twin cores, at CAS widths (5, 12), an owned width
    /// with dead bits (13) and dense widths (8, 16). After every operation
    /// the two hold the same words, both keep their invariants, and both
    /// charged the same line loads and stores.
    #[test]
    fn word_shifts_match_per_slot_references() {
        for r_bits in [5u32, 8, 12, 13, 16] {
            let layout = Layout::new(11, r_bits).unwrap();
            let (word, per_slot) = (GqfCore::new(layout), GqfCore::with_per_slot_shifts(layout));
            let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ u64::from(r_bits);
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let mut live: Vec<(usize, u64, u64)> = Vec::new();
            for step in 0..1_500 {
                // 200 quotients around the first metadata line edge (slot 1024)
                // take ~300 items: dense clusters, with runs
                // that land on their quotients when the tail slides.
                let delete = !live.is_empty() && (next() % 5 < 2 || live.len() > 300);
                // `(q, r, count or delta)` of this step's upsert or delete.
                let (q, r, n) = if delete {
                    let at = next() as usize % live.len();
                    let (q, r, count) = live[at];
                    let delta = if next() % 2 == 0 { 1 } else { count };
                    if delta == count {
                        live.swap_remove(at);
                    } else {
                        live[at].2 -= delta;
                    }
                    (q, r, delta)
                } else {
                    let (q, r) = (924 + next() as usize % 200, next() % (1 << r_bits));
                    let count = 1 + next() % 7;
                    match live.iter_mut().find(|(lq, lr, _)| (*lq, *lr) == (q, r)) {
                        Some(entry) => entry.2 += count,
                        None => live.push((q, r, count)),
                    }
                    (q, r, count)
                };
                let op = |f: &GqfCore| {
                    if delete {
                        f.delete(q, r, n)
                    } else {
                        f.upsert(q, r, n).map(|()| true)
                    }
                };
                let (a, b) = (charged(|| op(&word)), charged(|| op(&per_slot)));
                let case = format!("r={r_bits} step={step} delete={delete}");
                assert_eq!(a, b, "{case}: result, line loads, line stores");
                assert_eq!(words(&word), words(&per_slot), "{case}: words");
                word.check_invariants();
                per_slot.check_invariants();
            }
        }
    }

    #[test]
    fn cluster_spanning_boundary_of_quotient_space() {
        let f = small();
        let last = f.layout().canonical_slots() - 1;
        // Push a cluster into the spill pad.
        for r in 0..20u64 {
            f.upsert(last, r, 1).unwrap();
        }
        for r in 0..20u64 {
            assert_eq!(f.query(last, r), 1);
        }
        f.check_invariants();
    }
}
