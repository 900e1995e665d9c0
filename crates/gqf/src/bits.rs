//! Traffic-tracked access to the GQF's slot array and metadata bitvectors,
//! and the word-at-a-time metadata walks the GQF core runs (§5.1–5.2).
//!
//! GQF operations hold exclusive access to their slots (region locks or
//! even-odd phases), so reads and writes need no per-access atomicity —
//! but they must still be *priced* like GPU traffic. A [`Tracked`] cursor
//! charges one line load (or store) whenever an access crosses into a
//! cache line different from the last one it touched, which models the
//! sequential cluster walks and the custom `memmove` of §5.2 at
//! cache-line granularity. It counts those charges itself and publishes
//! them to [`gpu_sim::metrics`] when it drops, so read the counters only
//! after the operation's cursors are gone.
//!
//! The walks ([`prev_clear`], [`next_clear`], [`next_set`], [`rank_set`],
//! [`next_empty`]) read a 1-bit metadata vector 64 bits per step and
//! answer with `count_ones` / `trailing_zeros` / `leading_zeros`, as the
//! paper's GQF does. Their one-bit-per-step scalar references live only
//! in this module's tests, which check the two bit-identical.
//!
//! The shifts move whole words too: [`Tracked::move_slots`] and
//! [`Tracked::fill`] store each word once ([`GpuBuffer::move_slots`],
//! [`GpuBuffer::fill_slots`]) and charge the lines of the per-slot loop
//! they replace, in its order, so the modeled counts are those of a
//! slot-by-slot `memmove`. A caller that scans words itself with a
//! [`BitScan`] charges its reference walk's loads through
//! [`Tracked::charge_loads`] and [`Tracked::load_lines`].

use crate::layout::REGION_SLOTS;
use gpu_sim::metrics::{bump, Counter};
use gpu_sim::GpuBuffer;
use std::ops::Range;

/// A line-granular traffic cursor over one buffer.
///
/// Create one per kernel operation; drop it when the operation ends,
/// which publishes its line loads and stores.
pub struct Tracked<'a> {
    buf: &'a GpuBuffer,
    /// Line charges so far, published on drop.
    loads: Lines,
    stores: Lines,
    /// Stores are owner stores ([`GpuBuffer::write_owned`]); see
    /// [`words_are_region_owned`].
    owned: bool,
}

const NO_LINE: usize = usize::MAX;

/// The line charges of one access kind (loads or stores) of a cursor:
/// the line touched last and the lines charged so far.
#[derive(Debug, Clone, Copy)]
pub struct Lines {
    last: usize,
    charged: u64,
}

impl Lines {
    const NONE: Lines = Lines { last: NO_LINE, charged: 0 };

    /// Touch `line`: one charge unless it is the line touched last.
    #[inline]
    pub fn touch(&mut self, line: usize) {
        if line != self.last {
            self.charged += 1;
            self.last = line;
        }
    }

    /// Touch every line from `from` to `to` in turn, in either direction:
    /// the charges of a per-slot walk between two slots on those lines.
    #[inline]
    pub fn walk(&mut self, from: usize, to: usize) {
        self.charged += from.abs_diff(to) as u64 + u64::from(from != self.last);
        self.last = to;
    }

    /// Touch the lines of a per-slot loop over `slots` of `buf`, in `walk`
    /// order.
    #[inline]
    fn walk_slots(&mut self, buf: &GpuBuffer, slots: Range<usize>, walk: Walk) {
        if slots.is_empty() {
            return;
        }
        let (lo, hi) = (buf.line_of(slots.start), buf.line_of(slots.end - 1));
        match walk {
            Walk::Up => self.walk(lo, hi),
            Walk::Down => self.walk(hi, lo),
        }
    }
}

/// The order of a per-slot loop over a slot range, which fixes the order
/// of its line charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walk {
    /// Ascending slots.
    Up,
    /// Descending slots.
    Down,
}

/// Whether no backing word of `buf` spans two GQF regions: its slots per
/// word divide [`REGION_SLOTS`], i.e. are a power of two (the 1-bit
/// metadata and remainder widths 8, 13, 16, 32 and 64). The core writes a
/// slot only while it owns the slot's region, so the owner of such a
/// word's region is its only writer and may store it with
/// [`GpuBuffer::write_owned`]. Other widths (5, 7, 12 bits) put some word
/// across a region boundary and keep [`GpuBuffer::write_free`]'s CAS.
fn words_are_region_owned(buf: &GpuBuffer) -> bool {
    REGION_SLOTS.is_multiple_of(buf.slots_per_word())
}

impl<'a> Tracked<'a> {
    /// Wrap a buffer.
    pub fn new(buf: &'a GpuBuffer) -> Self {
        let owned = words_are_region_owned(buf);
        Tracked { buf, loads: Lines::NONE, stores: Lines::NONE, owned }
    }

    /// Read a slot, charging a line load when leaving the cached line.
    #[inline]
    pub fn get(&mut self, slot: usize) -> u64 {
        self.loads.touch(self.buf.line_of(slot));
        self.buf.read_free(slot)
    }

    /// Write a slot, charging a line store when leaving the cached line:
    /// an owner store when the buffer's words never span two regions,
    /// else a CAS that preserves a neighbouring region owner's slots.
    #[inline]
    pub fn set(&mut self, slot: usize, value: u64) {
        self.stores.touch(self.buf.line_of(slot));
        if self.owned {
            self.buf.write_owned(slot, value);
        } else {
            self.buf.write_free(slot, value);
        }
    }

    /// Boolean view for 1-bit buffers.
    #[inline]
    pub fn get_bit(&mut self, slot: usize) -> bool {
        self.get(slot) != 0
    }

    /// Read the whole 64-slot backing word containing `slot` (for 1-bit
    /// buffers: 64 metadata bits at once — the walks' data path),
    /// charging a line load exactly like a slot read on the same line.
    #[inline]
    pub fn get_word(&mut self, slot: usize) -> u64 {
        self.loads.touch(self.buf.line_of(slot));
        self.buf.read_word_free(slot)
    }

    /// Set a 1-bit slot.
    #[inline]
    pub fn set_bit(&mut self, slot: usize, value: bool) {
        self.set(slot, value as u64);
    }

    /// Charge the loads of a per-slot read loop over `slots` in `walk`
    /// order, without reading: for a caller that reads the words itself.
    #[inline]
    pub fn charge_loads(&mut self, slots: Range<usize>, walk: Walk) {
        self.loads.walk_slots(self.buf, slots, walk);
    }

    /// The cursor's load charges, for a caller that reads words itself
    /// and touches the lines its per-slot reference would read.
    #[inline]
    pub fn load_lines(&mut self) -> &mut Lines {
        &mut self.loads
    }

    /// Move `n` slots from `src` to `dst` a word at a time
    /// ([`GpuBuffer::move_slots`], with this cursor's store rule),
    /// charging the stores of a per-slot copy loop in the safe direction:
    /// descending when `dst > src`. The caller charges whatever loads its
    /// per-slot reference made ([`Self::charge_loads`]).
    #[inline]
    pub fn move_slots(&mut self, src: usize, dst: usize, n: usize) {
        let walk = if dst > src { Walk::Down } else { Walk::Up };
        self.stores.walk_slots(self.buf, dst..dst + n, walk);
        self.buf.move_slots(src, dst, n, self.owned);
    }

    /// Store `value` into every slot of `slots` a word at a time
    /// ([`GpuBuffer::fill_slots`]), charging the stores of a per-slot loop
    /// in `walk` order.
    #[inline]
    pub fn fill(&mut self, slots: Range<usize>, value: u64, walk: Walk) {
        self.stores.walk_slots(self.buf, slots.clone(), walk);
        self.buf.fill_slots(slots, value, self.owned);
    }
}

impl Drop for Tracked<'_> {
    /// Publish the operation's line loads and stores, one bump each.
    fn drop(&mut self) {
        if self.loads.charged > 0 {
            bump(Counter::LinesLoaded, self.loads.charged);
        }
        if self.stores.charged > 0 {
            bump(Counter::LinesStored, self.stores.charged);
        }
    }
}

/// The three metadata bitvectors of the quotient-filter encoding, kept in
/// separate arrays so remainder slots stay machine-word aligned (§6: the
/// GQF's word-aligned slots are what let it support 8/16/32/64-bit
/// remainders, unlike the SQF's in-slot metadata packing).
pub struct Metadata {
    /// `occupieds[q]` — some item with quotient `q` is stored.
    pub occupieds: GpuBuffer,
    /// `continuations[s]` — slot `s` continues the run started earlier.
    pub continuations: GpuBuffer,
    /// `shifteds[s]` — the item in slot `s` is right of its canonical slot.
    pub shifteds: GpuBuffer,
}

impl Metadata {
    /// Allocate zeroed metadata for `physical_slots`.
    pub fn new(physical_slots: usize) -> Self {
        Metadata {
            occupieds: GpuBuffer::new(physical_slots, 1),
            continuations: GpuBuffer::new(physical_slots, 1),
            shifteds: GpuBuffer::new(physical_slots, 1),
        }
    }

    /// Total metadata bytes.
    pub fn bytes(&self) -> usize {
        self.occupieds.bytes() + self.continuations.bytes() + self.shifteds.bytes()
    }

    /// A slot is empty iff all three bits are clear (classic quotient-
    /// filter emptiness test).
    pub fn is_empty_slot(&self, cur: &mut MetaCursor<'_>, slot: usize) -> bool {
        !cur.occ.get_bit(slot) && !cur.cont.get_bit(slot) && !cur.shift.get_bit(slot)
    }

    /// Start a tracked cursor set.
    pub fn cursor(&self) -> MetaCursor<'_> {
        MetaCursor {
            occ: Tracked::new(&self.occupieds),
            cont: Tracked::new(&self.continuations),
            shift: Tracked::new(&self.shifteds),
        }
    }
}

/// Tracked cursors over the three bitvectors for one operation.
pub struct MetaCursor<'a> {
    /// Occupieds bitvector cursor.
    pub occ: Tracked<'a>,
    /// Run-continuation bitvector cursor.
    pub cont: Tracked<'a>,
    /// Shifted bitvector cursor.
    pub shift: Tracked<'a>,
}

// ----------------------------------------------------------------------
// Metadata walks. Each reads one 64-bit word per step through
// [`Tracked::get_word`], so a walk charges the lines it crosses; a word
// read may touch a line a bit-by-bit walk that stopped early would have
// skipped (line-count parity with a scalar walk is within ±1 line).
// ----------------------------------------------------------------------

/// Largest `p <= q` whose bit is *clear*, or 0 when bits `1..=q` are all
/// set (bit 0 is never consulted in that case — cluster starts clamp to
/// the table base): the backward shifted-bit walk to a cluster start.
pub fn prev_clear(t: &mut Tracked<'_>, q: usize) -> usize {
    let mut base = q & !63;
    let mut off = (q - base) as u32;
    loop {
        let w = t.get_word(base);
        let below = if off == 63 { u64::MAX } else { (1u64 << (off + 1)) - 1 };
        let clear = !w & below;
        if clear != 0 {
            return base + (63 - clear.leading_zeros()) as usize;
        }
        if base == 0 {
            return 0;
        }
        base -= 64;
        off = 63;
    }
}

/// First `i` in `[from, n)` whose bit is *clear*, else `n`: the run-end /
/// continuation forward walk.
pub fn next_clear(t: &mut Tracked<'_>, from: usize, n: usize) -> usize {
    let mut i = from;
    while i < n {
        let base = i & !63;
        let end = (n - base).min(64) as u32;
        let w = t.get_word(base);
        let window = mask_range((i - base) as u32, end);
        let clear = !w & window;
        if clear != 0 {
            return base + clear.trailing_zeros() as usize;
        }
        i = base + 64;
    }
    n
}

/// First `i` in `[from, n)` whose bit is *set*, else `n`: the
/// occupied-quotient forward walk.
pub fn next_set(t: &mut Tracked<'_>, from: usize, n: usize) -> usize {
    let mut i = from;
    while i < n {
        let base = i & !63;
        let end = (n - base).min(64) as u32;
        let w = t.get_word(base);
        let set = w & mask_range((i - base) as u32, end);
        if set != 0 {
            return base + set.trailing_zeros() as usize;
        }
        i = base + 64;
    }
    n
}

/// Number of set bits in `[lo, hi)` — the rank half of the rank-select
/// metadata walk, one `count_ones` per word.
pub fn rank_set(t: &mut Tracked<'_>, lo: usize, hi: usize) -> usize {
    let mut count = 0usize;
    let mut i = lo;
    while i < hi {
        let base = i & !63;
        let end = (hi - base).min(64) as u32;
        let w = t.get_word(base);
        count += (w & mask_range((i - base) as u32, end)).count_ones() as usize;
        i = base + 64;
    }
    count
}

/// First slot in `[from, n)` with occupied, continuation, and shifted all
/// clear (the classic quotient-filter emptiness test), else `n`: OR the
/// three metadata words and select the first clear bit.
pub fn next_empty(cur: &mut MetaCursor<'_>, from: usize, n: usize) -> usize {
    let mut i = from;
    while i < n {
        let base = i & !63;
        let end = (n - base).min(64) as u32;
        let busy = cur.occ.get_word(base) | cur.cont.get_word(base) | cur.shift.get_word(base);
        let empty = !busy & mask_range((i - base) as u32, end);
        if empty != 0 {
            return base + empty.trailing_zeros() as usize;
        }
        i = base + 64;
    }
    n
}

/// Ones at bit positions `[lo, hi)` of a word; `hi <= 64`.
#[inline]
fn mask_range(lo: u32, hi: u32) -> u64 {
    debug_assert!(lo < 64 && hi <= 64 && lo <= hi);
    let upper = if hi == 64 { u64::MAX } else { (1u64 << hi) - 1 };
    upper & !((1u64 << lo) - 1)
}

/// The set (or clear) bits of a 1-bit buffer in `[from, end)`, ascending,
/// read a word at a time with plain loads ([`GpuBuffer::read_word_free`])
/// and charged nothing: for a walk whose caller charges the lines its
/// per-slot reference would read.
pub struct BitScan<'a> {
    buf: &'a GpuBuffer,
    /// XORed into every word: 0 to find set bits, all ones for clear ones.
    flip: u64,
    base: usize,
    /// Unreported hits of the word at `base`.
    bits: u64,
    end: usize,
}

impl<'a> BitScan<'a> {
    /// The set bits of `buf` in `[from, end)`.
    pub fn set(buf: &'a GpuBuffer, from: usize, end: usize) -> Self {
        Self::new(buf, from, end, 0)
    }

    /// The clear bits of `buf` in `[from, end)`.
    pub fn clear(buf: &'a GpuBuffer, from: usize, end: usize) -> Self {
        Self::new(buf, from, end, u64::MAX)
    }

    fn new(buf: &'a GpuBuffer, from: usize, end: usize, flip: u64) -> Self {
        let mut scan = BitScan { buf, flip, base: from & !63, bits: 0, end };
        if from < end {
            scan.bits = scan.load() & !((1u64 << (from & 63)) - 1);
        }
        scan
    }

    /// The word at `base`, flipped, without the bits at or past `end`.
    #[inline]
    fn load(&self) -> u64 {
        let word = self.buf.read_word_free(self.base) ^ self.flip;
        word & mask_range(0, (self.end - self.base).min(64) as u32)
    }
}

impl Iterator for BitScan<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.base += 64;
            if self.base >= self.end {
                return None;
            }
            self.bits = self.load();
        }
        let i = self.base + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::metrics;

    // Scalar references for the word walks: one bit per step.

    fn prev_clear_scalar(t: &mut Tracked<'_>, q: usize) -> usize {
        let mut i = q;
        while i > 0 && t.get_bit(i) {
            i -= 1;
        }
        i
    }

    fn next_clear_scalar(t: &mut Tracked<'_>, from: usize, n: usize) -> usize {
        let mut i = from;
        while i < n && t.get_bit(i) {
            i += 1;
        }
        i
    }

    fn next_set_scalar(t: &mut Tracked<'_>, from: usize, n: usize) -> usize {
        let mut i = from;
        while i < n && !t.get_bit(i) {
            i += 1;
        }
        i
    }

    fn rank_set_scalar(t: &mut Tracked<'_>, lo: usize, hi: usize) -> usize {
        (lo..hi).filter(|&i| t.get_bit(i)).count()
    }

    /// Replicates the short-circuit of [`Metadata::is_empty_slot`].
    fn next_empty_scalar(cur: &mut MetaCursor<'_>, from: usize, n: usize) -> usize {
        (from..n)
            .find(|&i| !cur.occ.get_bit(i) && !cur.cont.get_bit(i) && !cur.shift.get_bit(i))
            .unwrap_or(n)
    }

    #[test]
    fn tracked_roundtrip() {
        let buf = GpuBuffer::new(100, 8);
        let mut t = Tracked::new(&buf);
        t.set(3, 42);
        assert_eq!(t.get(3), 42);
        assert_eq!(t.get(4), 0);
    }

    #[test]
    fn owner_stores_only_where_words_never_span_regions() {
        // The 1-bit metadata and r = 8, 13, 16, 32, 64 keep every word
        // inside one region; r = 5, 7, 12 put some word across a boundary
        // (12 bits: slots 8190 to 8194 share one word), so they keep the CAS.
        for bits in [1u32, 8, 13, 16, 32, 64] {
            assert!(words_are_region_owned(&GpuBuffer::new(64, bits)), "r={bits}");
        }
        for bits in [5u32, 7, 12] {
            assert!(!words_are_region_owned(&GpuBuffer::new(64, bits)), "r={bits}");
        }
    }

    #[test]
    fn sequential_walk_charges_lines_not_slots() {
        // 8-bit slots: 128 per line. Walking 256 slots = 2 line loads.
        let buf = GpuBuffer::new(1024, 8);
        let before = metrics::snapshot_current_thread();
        let mut t = Tracked::new(&buf);
        for i in 0..256 {
            let _ = t.get(i);
        }
        drop(t);
        let diff = metrics::snapshot_current_thread().since(&before);
        assert_eq!(diff.get(Counter::LinesLoaded), 2);
    }

    #[test]
    fn bit_buffer_walk_is_very_cheap() {
        // 1-bit slots: 1024 per line. Walking 1000 bits = 1 line load.
        let buf = GpuBuffer::new(4096, 1);
        let before = metrics::snapshot_current_thread();
        let mut t = Tracked::new(&buf);
        for i in 0..1000 {
            let _ = t.get_bit(i);
        }
        drop(t);
        let diff = metrics::snapshot_current_thread().since(&before);
        assert_eq!(diff.get(Counter::LinesLoaded), 1);
    }

    #[test]
    fn writes_charge_separately_from_reads() {
        let buf = GpuBuffer::new(1024, 8);
        let before = metrics::snapshot_current_thread();
        let mut t = Tracked::new(&buf);
        let _ = t.get(0);
        t.set(0, 9);
        drop(t);
        let diff = metrics::snapshot_current_thread().since(&before);
        assert_eq!(diff.get(Counter::LinesLoaded), 1);
        assert_eq!(diff.get(Counter::LinesStored), 1);
    }

    /// Every word walk against its scalar reference, bit-identical on
    /// random bit patterns, all-set, all-clear, and word-boundary-straddling
    /// probes.
    #[test]
    fn scan_twins_are_bit_identical() {
        let n = 1000; // deliberately not a multiple of 64
        let patterns: [&dyn Fn(usize) -> bool; 5] = [
            &|_| false,
            &|_| true,
            &|i| i % 3 == 0,
            &|i| (i / 64) % 2 == 0, // whole words set / clear
            &|i| {
                let mut h = i as u64;
                h ^= h >> 33;
                h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
                h & 1 == 0
            },
        ];
        // Probes around word boundaries and the span edges.
        let probes = [0usize, 1, 62, 63, 64, 65, 127, 128, 500, 511, 512, 513, 960, 998, 999];
        for (pi, pat) in patterns.iter().enumerate() {
            let buf = GpuBuffer::new(1024, 1);
            for i in 0..n {
                buf.write_free(i, pat(i) as u64);
            }
            let mut t = Tracked::new(&buf);
            for &p in &probes {
                assert_eq!(
                    prev_clear_scalar(&mut t, p),
                    prev_clear(&mut t, p),
                    "prev_clear pat={pi} p={p}"
                );
                assert_eq!(
                    next_clear_scalar(&mut t, p, n),
                    next_clear(&mut t, p, n),
                    "next_clear pat={pi} p={p}"
                );
                assert_eq!(
                    next_set_scalar(&mut t, p, n),
                    next_set(&mut t, p, n),
                    "next_set pat={pi} p={p}"
                );
                // The uncharged scans list every matching bit in order.
                let (set, clear): (Vec<usize>, Vec<usize>) = (p..n).partition(|&i| pat(i));
                assert_eq!(BitScan::set(&buf, p, n).collect::<Vec<_>>(), set, "pat={pi} p={p}");
                assert_eq!(BitScan::clear(&buf, p, n).collect::<Vec<_>>(), clear, "pat={pi} p={p}");
                for &q in &probes {
                    if p <= q {
                        assert_eq!(
                            rank_set_scalar(&mut t, p, q),
                            rank_set(&mut t, p, q),
                            "rank pat={pi} [{p},{q})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_slot_twins_are_bit_identical() {
        let m = Metadata::new(256);
        // Sprinkle metadata bits so empties are sparse and word-straddling.
        let mut cur = m.cursor();
        for i in 0..256usize {
            cur.occ.set_bit(i, i % 5 == 0);
            cur.cont.set_bit(i, i % 7 == 3);
            cur.shift.set_bit(i, i % 11 == 1);
        }
        for from in [0usize, 1, 63, 64, 65, 200, 255] {
            assert_eq!(
                next_empty_scalar(&mut cur, from, 256),
                next_empty(&mut cur, from, 256),
                "from={from}"
            );
        }
        // Saturated metadata: both report "none" as n.
        let full = Metadata::new(128);
        let mut cur = full.cursor();
        for i in 0..128usize {
            cur.occ.set_bit(i, true);
        }
        assert_eq!(next_empty_scalar(&mut cur, 0, 128), 128);
        assert_eq!(next_empty(&mut cur, 0, 128), 128);
    }

    #[test]
    fn get_word_charges_lines_like_bit_reads() {
        let buf = GpuBuffer::new(4096, 1);
        let before = metrics::snapshot_current_thread();
        let mut t = Tracked::new(&buf);
        // 1000 bits in word steps stay inside one 1024-bit line.
        for base in (0..1000).step_by(64) {
            let _ = t.get_word(base);
        }
        drop(t);
        let diff = metrics::snapshot_current_thread().since(&before);
        assert_eq!(diff.get(Counter::LinesLoaded), 1);
    }

    #[test]
    fn metadata_empty_slot_test() {
        let m = Metadata::new(256);
        let mut cur = m.cursor();
        assert!(m.is_empty_slot(&mut cur, 10));
        cur.shift.set_bit(10, true);
        assert!(!m.is_empty_slot(&mut cur, 10));
        cur.shift.set_bit(10, false);
        cur.occ.set_bit(10, true);
        assert!(!m.is_empty_slot(&mut cur, 10));
    }
}
