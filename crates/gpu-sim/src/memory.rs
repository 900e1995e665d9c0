//! Simulated GPU global memory.
//!
//! A [`GpuBuffer`] is an array of bit-packed slots backed by real
//! `AtomicU64` words, so concurrent kernel code exercises *real* memory
//! ordering and contention. Every access records cache-line-granularity
//! traffic into [`crate::metrics`], which the cost model converts to
//! modeled GPU time.
//!
//! Packing rules mirror the constraints the paper discusses in §4.1:
//!
//! * slots are packed at `elem_bits` pitch but **never cross a 64-bit word
//!   boundary** (any leftover bits in a word are dead space);
//! * an atomic on a slot whose bit-range crosses an aligned 16-bit granule
//!   costs an extra atomic transaction (the minimum CUDA CAS width is
//!   2 bytes — with 12-bit fingerprints, 50% of slots pay this);
//! * a CAS that fails because *other* bits of the shared word changed is
//!   counted as neighbor interference and retried, exactly the failure mode
//!   the paper describes for sub-16-bit fingerprints.
//!
//! Besides the per-slot accesses, a buffer offers word-level range
//! kernels for writers that price their own traffic:
//! [`GpuBuffer::move_slots`] (the GQF's §5.2 `memmove`: every destination
//! word is built from the two source words it draws on with one funnel
//! shift and stored once, for every slot width) and
//! [`GpuBuffer::fill_slots`]. Staged block reads come in two forms:
//! [`GpuBuffer::load_span`] copies the span (a snapshot a CAS can be
//! checked against) and [`GpuBuffer::live_span`] reads it in place, with
//! the same charges.

use crate::metrics::{bump, Counter};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cache line (= GPU memory transaction) size in bytes.
pub const CACHE_LINE_BYTES: usize = 128;
/// 64-bit words per cache line.
pub const WORDS_PER_LINE: usize = CACHE_LINE_BYTES / 8;

/// A bit-packed array of `len` slots of `elem_bits` bits in simulated
/// global memory.
pub struct GpuBuffer {
    words: Box<[AtomicU64]>,
    elem_bits: u32,
    slots_per_word: usize,
    /// `log2(slots_per_word)` when that is a power of two (1-bit
    /// metadata, 8-, 13-, 16-, 32- and 64-bit slots), so [`Self::locate`]
    /// shifts and masks instead of dividing; `None` for the other widths.
    word_shift: Option<u32>,
    /// One 1 at each slot's lowest bit: `v * repunit` puts `v` in every
    /// slot of a word ([`Self::fill_slots`]).
    repunit: u64,
    len: usize,
    /// Identity in the `race-check` shadow logs (0 when the sanitizer is
    /// compiled out; see [`crate::shadow`]).
    shadow_id: u64,
}

impl GpuBuffer {
    /// Allocate a zeroed buffer of `len` slots of `elem_bits` bits each.
    ///
    /// # Panics
    /// If `elem_bits` is 0 or greater than 64.
    pub fn new(len: usize, elem_bits: u32) -> Self {
        assert!((1..=64).contains(&elem_bits), "elem_bits must be 1..=64");
        let slots_per_word = (64 / elem_bits) as usize;
        let n_words = len.div_ceil(slots_per_word);
        // Round the allocation to whole cache lines, as cudaMalloc would.
        let n_words = n_words.div_ceil(WORDS_PER_LINE) * WORDS_PER_LINE;
        let words = (0..n_words.max(WORDS_PER_LINE)).map(|_| AtomicU64::new(0)).collect();
        let shadow_id = crate::shadow::new_buffer_id();
        let word_shift = slots_per_word.is_power_of_two().then(|| slots_per_word.trailing_zeros());
        let mut buf =
            GpuBuffer { words, elem_bits, slots_per_word, word_shift, repunit: 0, len, shadow_id };
        buf.repunit = buf.used_bits() / buf.mask();
        buf
    }

    /// Number of slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when sized for zero slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot width in bits.
    #[inline]
    pub fn elem_bits(&self) -> u32 {
        self.elem_bits
    }

    /// Allocated bytes (whole cache lines, like a device allocation).
    #[inline]
    pub fn bytes(&self) -> usize {
        self.words.len() * 8
    }

    #[inline(always)]
    fn mask(&self) -> u64 {
        if self.elem_bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.elem_bits) - 1
        }
    }

    /// The live (non-dead) bits of a backing word: its `slots_per_word`
    /// slots. 5-, 7-, 12- and 13-bit words leave their top bits dead.
    #[inline(always)]
    fn used_bits(&self) -> u64 {
        let bits = self.slots_per_word as u32 * self.elem_bits;
        if bits == 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        }
    }

    /// Bits of the in-word slots `[lo, hi)` (`lo < hi <= slots_per_word`).
    #[inline(always)]
    fn slot_bits(&self, lo: usize, hi: usize) -> u64 {
        (self.used_bits() >> ((self.slots_per_word - hi) as u32 * self.elem_bits))
            & !((1u64 << (lo as u32 * self.elem_bits)) - 1)
    }

    /// (word index, bit offset inside word) of a slot: a shift and a mask
    /// when the slots per word are a power of two, else a division.
    #[inline(always)]
    fn locate(&self, slot: usize) -> (usize, u32) {
        debug_assert!(slot < self.len, "slot {slot} out of bounds {}", self.len);
        let (word, index) = match self.word_shift {
            Some(shift) => (slot >> shift, slot & (self.slots_per_word - 1)),
            None => (slot / self.slots_per_word, slot % self.slots_per_word),
        };
        (word, index as u32 * self.elem_bits)
    }

    /// Number of atomic transactions a RMW on `slot` costs. Native widths
    /// (16/32/64-bit, always aligned under this packing) are one
    /// transaction; narrower slots pay an extra transaction when their
    /// bits straddle an aligned 16-bit granule — the minimum CAS width on
    /// the GPU (§4.1: half of 12-bit fingerprint operations).
    #[inline(always)]
    fn atomic_cost(&self, slot: usize) -> u64 {
        if matches!(self.elem_bits, 16 | 32 | 64) {
            return 1;
        }
        let (_, off) = self.locate(slot);
        let first_granule = off / 16;
        let last_granule = (off + self.elem_bits - 1) / 16;
        if first_granule == last_granule {
            1
        } else {
            2
        }
    }

    /// Cache line of a slot (for traffic accounting and block alignment).
    #[inline(always)]
    pub fn line_of(&self, slot: usize) -> usize {
        let (word, _) = self.locate(slot);
        word / WORDS_PER_LINE
    }

    // ------------------------------------------------------------------
    // Point accesses (each counts its own global-memory traffic)
    // ------------------------------------------------------------------

    /// Read a slot (counts one line load).
    #[inline]
    pub fn read(&self, slot: usize) -> u64 {
        bump(Counter::LinesLoaded, 1);
        self.read_free(slot)
    }

    /// Read a slot without counting traffic — for data already staged in
    /// shared memory / registers by a prior [`Self::load_span`].
    #[inline]
    pub fn read_free(&self, slot: usize) -> u64 {
        crate::shadow::record(self.shadow_id, slot, slot + 1, false);
        let (word, off) = self.locate(slot);
        (self.words[word].load(Ordering::Acquire) >> off) & self.mask()
    }

    /// Read the entire 64-bit backing word containing `slot`, without
    /// traffic accounting (callers price it at line granularity, like the
    /// GQF's word-at-a-time metadata walks). The low bit of the result is
    /// the word's first slot. Records the whole word's slot range in the
    /// shadow logs; for 1-bit metadata buffers whose regions are multiples
    /// of 64 slots this never widens a read set across a region boundary.
    #[inline]
    pub fn read_word_free(&self, slot: usize) -> u64 {
        let (word, _) = self.locate(slot);
        let (lo, hi) = self.word_slots(word);
        crate::shadow::record(self.shadow_id, lo, hi, false);
        self.words[word].load(Ordering::Acquire)
    }

    /// Slots packed into each 64-bit backing word (`64 / elem_bits`).
    #[inline]
    pub fn slots_per_word(&self) -> usize {
        self.slots_per_word
    }

    /// Slot range `[lo, hi)` of backing word `word`, clamped to the buffer.
    #[inline(always)]
    fn word_slots(&self, word: usize) -> (usize, usize) {
        let lo = word * self.slots_per_word;
        (lo, (lo + self.slots_per_word).min(self.len))
    }

    /// Non-atomic store of a slot (counts one line store). Implemented as a
    /// word RMW so concurrent neighbors in the same word are preserved, but
    /// modeled as a plain ST instruction.
    #[inline]
    pub fn write(&self, slot: usize, value: u64) {
        bump(Counter::LinesStored, 1);
        self.write_free(slot, value);
    }

    /// Store without traffic accounting (for writers that count whole
    /// lines themselves). A compare-and-swap loop on the backing word, so a
    /// concurrent writer of another slot in the same word is never lost:
    /// the store for callers that share words with other writers.
    #[inline]
    pub fn write_free(&self, slot: usize, value: u64) {
        crate::shadow::record(self.shadow_id, slot, slot + 1, true);
        let (word, off) = self.locate(slot);
        self.cas_bits(word, self.mask() << off, value << off);
    }

    /// Owner store without traffic accounting: one load and one plain
    /// store of the backing word, no compare-and-swap.
    ///
    /// Only for a caller that is the sole writer of **every** slot in the
    /// word holding `slot` while it writes — e.g. a GQF region owner when
    /// [`Self::slots_per_word`] divides the region size, so no word spans
    /// two owners. The word's other slots then cannot change between the
    /// load and the store, and the outcome equals [`Self::write_free`]'s;
    /// a concurrent writer of a neighbouring slot would lose its update.
    /// Under `race-check` the whole word is logged as written, so the
    /// sanitizer flags any other worker that touches it.
    #[inline]
    pub fn write_owned(&self, slot: usize, value: u64) {
        let (word, off) = self.locate(slot);
        let (lo, hi) = self.word_slots(word);
        crate::shadow::record(self.shadow_id, lo, hi, true);
        let mask = self.mask() << off;
        let w = &self.words[word];
        let cur = w.load(Ordering::Relaxed);
        w.store((cur & !mask) | ((value << off) & mask), Ordering::Release);
    }

    /// Replace the bits under `mask` in backing word `word` with `bits`
    /// (pre-shifted; masked here) in one CAS loop, preserving every other
    /// bit against concurrent writers.
    #[inline(always)]
    fn cas_bits(&self, word: usize, mask: u64, bits: u64) {
        let v = bits & mask;
        let w = &self.words[word];
        let mut cur = w.load(Ordering::Relaxed);
        loop {
            let next = (cur & !mask) | v;
            match w.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Atomic compare-and-swap of a slot.
    ///
    /// Returns `Ok(())` when the slot transitioned `expect → new`, or
    /// `Err(actual)` with the observed value. Neighbor-bit interference
    /// (word CAS failing while the slot itself still holds `expect`) is
    /// retried internally and recorded, matching GPU sub-word CAS behaviour.
    pub fn cas(&self, slot: usize, expect: u64, new: u64) -> Result<(), u64> {
        bump(Counter::AtomicOps, self.atomic_cost(slot));
        let (word, off) = self.locate(slot);
        let mask = self.mask();
        let w = &self.words[word];
        let mut cur = w.load(Ordering::Acquire);
        loop {
            let field = (cur >> off) & mask;
            if field != expect {
                bump(Counter::CasFailures, 1);
                return Err(field);
            }
            let next = (cur & !(mask << off)) | ((new & mask) << off);
            match w.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return Ok(()),
                Err(actual) => {
                    // The word changed under us. If our slot is untouched it
                    // was neighbor interference — retry like the hardware
                    // (which would re-issue the CAS).
                    bump(Counter::CasFailures, 1);
                    bump(Counter::NeighborInterference, 1);
                    bump(Counter::AtomicOps, self.atomic_cost(slot));
                    cur = actual;
                }
            }
        }
    }

    /// Atomic OR of `bits` into a slot; returns the previous slot value.
    pub fn atomic_or(&self, slot: usize, bits: u64) -> u64 {
        bump(Counter::AtomicOps, self.atomic_cost(slot));
        let (word, off) = self.locate(slot);
        let mask = self.mask();
        let prev = self.words[word].fetch_or((bits & mask) << off, Ordering::AcqRel);
        (prev >> off) & mask
    }

    /// Atomic ADD (wrapping within the slot width); returns previous value.
    pub fn atomic_add(&self, slot: usize, delta: u64) -> u64 {
        bump(Counter::AtomicOps, self.atomic_cost(slot));
        let (word, off) = self.locate(slot);
        let mask = self.mask();
        let w = &self.words[word];
        let mut cur = w.load(Ordering::Acquire);
        loop {
            let field = (cur >> off) & mask;
            let next_field = field.wrapping_add(delta) & mask;
            let next = (cur & !(mask << off)) | (next_field << off);
            match w.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return field,
                Err(actual) => {
                    bump(Counter::CasFailures, 1);
                    cur = actual;
                }
            }
        }
    }

    /// Atomic exchange; returns the previous value.
    pub fn atomic_exch(&self, slot: usize, value: u64) -> u64 {
        bump(Counter::AtomicOps, self.atomic_cost(slot));
        let (word, off) = self.locate(slot);
        let mask = self.mask();
        let w = &self.words[word];
        let mut cur = w.load(Ordering::Acquire);
        loop {
            let next = (cur & !(mask << off)) | ((value & mask) << off);
            match w.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return (cur >> off) & mask,
                Err(actual) => {
                    bump(Counter::CasFailures, 1);
                    cur = actual;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Staged / coalesced accesses
    // ------------------------------------------------------------------

    /// Cooperatively load the span of slots `[start, start + n)` — the CG
    /// "loads the block into shared memory" step. Counts one line load per
    /// distinct cache line covered.
    ///
    /// The view is a snapshot: a copy of the span's words, taken once.
    /// The point TCF and the cuckoo baseline need exactly that, because
    /// they CAS a slot against the value they staged; a live read could
    /// return a racer's fresh value and let the CAS overwrite it. A reader
    /// with no concurrent writer uses [`Self::live_span`], which charges
    /// the same and copies nothing.
    pub fn load_span(&self, start: usize, n: usize) -> SpanView<'_> {
        self.charge_span(start, n);
        if n == 0 {
            return SpanView {
                base_slot: start,
                first_word: 0,
                words: SpanWords::Inline([0; INLINE_SPAN_WORDS], 0),
                buf: self,
            };
        }
        let (w0, _) = self.locate(start);
        let (w1, _) = self.locate(start + n - 1);
        let n_words = w1 - w0 + 1;
        // Spans up to four cache lines (every filter block) stage into an
        // inline buffer — no allocation on the hot path.
        let words = if n_words <= INLINE_SPAN_WORDS {
            let mut arr = [0u64; INLINE_SPAN_WORDS];
            for (i, w) in (w0..=w1).enumerate() {
                arr[i] = self.words[w].load(Ordering::Acquire);
            }
            SpanWords::Inline(arr, n_words)
        } else {
            SpanWords::Heap((w0..=w1).map(|w| self.words[w].load(Ordering::Acquire)).collect())
        };
        SpanView { base_slot: start, first_word: w0, words, buf: self }
    }

    /// Stage the span `[start, start + n)` in place: the line loads and
    /// shadow read of [`Self::load_span`], then reads of the live words
    /// (each an atomic load, as the copy's are). For a reader that no
    /// concurrent kernel writes against — a region kernel owning its
    /// block, or a query launch with no writer — it sees what a snapshot
    /// would, without zeroing and filling one.
    pub fn live_span(&self, start: usize, n: usize) -> LiveSpan<'_> {
        self.charge_span(start, n);
        LiveSpan { slots: start..start + n, buf: self }
    }

    /// The charges of staging `[start, start + n)`: one line load per
    /// distinct cache line and one shadow read of the span.
    fn charge_span(&self, start: usize, n: usize) {
        assert!(start + n <= self.len || n == 0);
        crate::shadow::record(self.shadow_id, start, start + n, false);
        if n > 0 {
            let lines = self.line_of(start + n - 1) - self.line_of(start) + 1;
            bump(Counter::LinesLoaded, lines as u64);
        }
    }

    /// Coalesced write of `values` into slots `[start, start + values.len())`.
    /// Counts one line store per distinct line (the 128-byte cache-wide
    /// coalesced write of the bulk TCF).
    ///
    /// Each backing word that lies wholly inside the span is packed and
    /// stored once: the span's writer owns all of its slots. An edge word
    /// the span shares with outside slots gets one masked CAS, so a
    /// concurrent writer of those slots is preserved. Per slot the outcome
    /// equals [`Self::write_free`] of each value in turn.
    pub fn write_span_coalesced(&self, start: usize, values: &[u64]) {
        if values.is_empty() {
            return;
        }
        let end = start + values.len();
        let (w0, _) = self.locate(start);
        let (w1, _) = self.locate(end - 1);
        let lines = w1 / WORDS_PER_LINE - w0 / WORDS_PER_LINE + 1;
        bump(Counter::LinesStored, lines as u64);
        crate::shadow::record(self.shadow_id, start, end, true);
        let (mask, spw) = (self.mask(), self.slots_per_word);
        for word in w0..=w1 {
            let first = word * spw;
            let (lo, hi) = (first.max(start), (first + spw).min(end));
            let (mut bits, mut covered) = (0u64, 0u64);
            let mut off = (lo - first) as u32 * self.elem_bits;
            for &v in &values[lo - start..hi - start] {
                bits |= (v & mask) << off;
                covered |= mask << off;
                off += self.elem_bits;
            }
            self.store_covered(word, covered, bits, false);
        }
    }

    // ------------------------------------------------------------------
    // Word-level range kernels (uncounted: their callers price the lines)
    // ------------------------------------------------------------------

    /// Move the `n` slots at `src` to `dst`, without traffic accounting.
    /// The ranges may overlap: the copy runs in the safe direction
    /// (descending when `dst > src`), so the result equals a per-slot
    /// copy loop in that direction.
    ///
    /// Each destination word is stored once. It is built from the two
    /// source words it draws on with one funnel shift in slot units (the
    /// source's dead bits masked off), the same code path for every slot
    /// width. A word the range covers whole is stored plainly: its slots
    /// are all the caller's. A word it covers in part gets an owner store
    /// (one load, one plain store, as [`Self::write_owned`]) when `owned`
    /// declares the caller the only writer of every word the range
    /// touches, and otherwise a masked CAS that keeps a concurrent writer
    /// of the word's other slots (as [`Self::write_free`]). Under
    /// `race-check` exactly the source slots are logged as read and the
    /// destination slots as written.
    pub fn move_slots(&self, src: usize, dst: usize, n: usize, owned: bool) {
        if n == 0 || src == dst {
            return;
        }
        assert!(src.max(dst) + n <= self.len, "move of {n} slots out of bounds {}", self.len);
        crate::shadow::record(self.shadow_id, src, src + n, false);
        crate::shadow::record(self.shadow_id, dst, dst + n, true);
        let (spw, eb) = (self.slots_per_word, self.elem_bits);
        let used = self.used_bits();
        // Destination word `w`'s first slot reads source slot
        // `w * spw - shift`: `skew` slots into source word `w - lag`.
        let shift = dst as isize - src as isize;
        let (skew, lag) = match self.word_shift {
            Some(log2) => ((-shift) & (spw as isize - 1), shift >> log2),
            None => ((-shift).rem_euclid(spw as isize), shift.div_euclid(spw as isize)),
        };
        // `lag` rounds the distance down; a skewed word draws on the
        // source word one further left.
        let lag = lag + isize::from(skew != 0);
        let skew = skew as u32;
        let load = |w: isize| {
            let word = usize::try_from(w).ok().and_then(|w| self.words.get(w));
            word.map_or(0, |word| word.load(Ordering::Acquire)) & used
        };
        let (first, last) = (self.locate(dst).0, self.locate(dst + n - 1).0);
        let store = |w: usize| {
            let from = w as isize - lag;
            let bits = if skew == 0 {
                load(from)
            } else {
                (load(from) >> (skew * eb)) | (load(from + 1) << ((spw as u32 - skew) * eb))
            };
            self.store_covered(w, self.covered(w, dst, dst + n), bits, owned);
        };
        if dst > src {
            (first..=last).rev().for_each(store);
        } else {
            (first..=last).for_each(store);
        }
    }

    /// Fill `slots` with `value`, without traffic accounting: each word is
    /// stored once with the pattern `value` × the slot width's repunit (no
    /// per-slot loop), by the store rule of [`Self::move_slots`].
    pub fn fill_slots(&self, slots: Range<usize>, value: u64, owned: bool) {
        if slots.is_empty() {
            return;
        }
        assert!(slots.end <= self.len, "fill of {slots:?} out of bounds {}", self.len);
        crate::shadow::record(self.shadow_id, slots.start, slots.end, true);
        let pattern = (value & self.mask()) * self.repunit;
        for w in self.locate(slots.start).0..=self.locate(slots.end - 1).0 {
            self.store_covered(w, self.covered(w, slots.start, slots.end), pattern, owned);
        }
    }

    /// Bits of word `w` that hold slots of `[start, end)`.
    #[inline(always)]
    fn covered(&self, w: usize, start: usize, end: usize) -> u64 {
        let base = w * self.slots_per_word;
        let lo = start.saturating_sub(base);
        let hi = (end - base).min(self.slots_per_word);
        self.slot_bits(lo, hi)
    }

    /// Store the `cover` bits of `bits` into word `w`: plainly when the
    /// range covers the word whole, else an owner store when `owned`, else
    /// a masked CAS (the rule [`Self::move_slots`] documents).
    #[inline(always)]
    fn store_covered(&self, w: usize, cover: u64, bits: u64, owned: bool) {
        let word = &self.words[w];
        if cover == self.used_bits() {
            word.store(bits & cover, Ordering::Release);
        } else if owned {
            let cur = word.load(Ordering::Relaxed);
            word.store((cur & !cover) | (bits & cover), Ordering::Release);
        } else {
            self.cas_bits(w, cover, bits);
        }
    }

    /// Zero every slot (host-side, not counted as kernel traffic).
    pub fn clear(&self) {
        for w in self.words.iter() {
            w.store(0, Ordering::Relaxed);
        }
    }

    /// Host-side readback of all slots (not counted; used by tests and
    /// enumeration checks).
    pub fn to_vec(&self) -> Vec<u64> {
        (0..self.len).map(|i| self.read_free(i)).collect()
    }
}

impl std::fmt::Debug for GpuBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuBuffer")
            .field("len", &self.len)
            .field("elem_bits", &self.elem_bits)
            .field("bytes", &self.bytes())
            .finish()
    }
}

/// Words staged inline for spans up to four cache lines.
const INLINE_SPAN_WORDS: usize = 4 * WORDS_PER_LINE;

/// Storage for a staged span: inline for block-sized spans, heap beyond.
/// The inline arm is deliberately large — that is the whole optimization
/// (no heap traffic for block-sized spans).
#[allow(clippy::large_enum_variant)]
enum SpanWords {
    Inline([u64; INLINE_SPAN_WORDS], usize),
    Heap(Vec<u64>),
}

impl SpanWords {
    #[inline(always)]
    fn get(&self, i: usize) -> u64 {
        match self {
            SpanWords::Inline(arr, n) => {
                debug_assert!(i < *n);
                arr[i]
            }
            SpanWords::Heap(v) => v[i],
        }
    }
}

/// A snapshot of a span of slots staged out of global memory (the shared-
/// memory copy a cooperative group works on). Reads are free; mutating the
/// underlying buffer goes through the live atomics.
pub struct SpanView<'a> {
    base_slot: usize,
    first_word: usize,
    words: SpanWords,
    buf: &'a GpuBuffer,
}

impl<'a> SpanView<'a> {
    /// First slot covered by the view.
    #[inline]
    pub fn base(&self) -> usize {
        self.base_slot
    }

    /// Read the staged copy of absolute slot index `slot` (free).
    #[inline]
    pub fn get(&self, slot: usize) -> u64 {
        let (word, off) = self.buf.locate(slot);
        debug_assert!(word >= self.first_word);
        (self.words.get(word - self.first_word) >> off) & self.buf.mask()
    }

    /// Re-read absolute slot `slot` from the live buffer (free — models a
    /// register re-check after a failed CAS, which hits the same line).
    #[inline]
    pub fn reload(&self, slot: usize) -> u64 {
        self.buf.read_free(slot)
    }
}

/// A span of slots staged in place by [`GpuBuffer::live_span`]: reads
/// are free and go to the live words.
pub struct LiveSpan<'a> {
    slots: Range<usize>,
    buf: &'a GpuBuffer,
}

impl LiveSpan<'_> {
    /// Read absolute slot `slot` of the span (free).
    #[inline]
    pub fn get(&self, slot: usize) -> u64 {
        debug_assert!(self.slots.contains(&slot), "slot {slot} outside {:?}", self.slots);
        let (word, off) = self.buf.locate(slot);
        (self.buf.words[word].load(Ordering::Acquire) >> off) & self.buf.mask()
    }

    /// Append the absolute slots `slots` of the span to `out`, loading
    /// each backing word once (free).
    pub fn unpack(&self, slots: Range<usize>, out: &mut Vec<u64>) {
        debug_assert!(self.slots.start <= slots.start && slots.end <= self.slots.end);
        let (mask, eb) = (self.buf.mask(), self.buf.elem_bits);
        let mut slot = slots.start;
        while slot < slots.end {
            let (word, off) = self.buf.locate(slot);
            let take = (self.buf.slots_per_word - (off / eb) as usize).min(slots.end - slot);
            let bits = self.buf.words[word].load(Ordering::Acquire) >> off;
            out.extend((0..take as u32).map(|i| (bits >> (i * eb)) & mask));
            slot += take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{self, Counter};

    #[test]
    fn write_then_read_roundtrip_various_widths() {
        for bits in [1u32, 5, 8, 12, 13, 16, 32, 64] {
            let buf = GpuBuffer::new(100, bits);
            let mask = if bits == 64 { u64::MAX } else { (1 << bits) - 1 };
            for i in 0..100usize {
                let v = (i as u64).wrapping_mul(0x9e3779b97f4a7c15) & mask;
                buf.write(i, v);
                assert_eq!(buf.read(i), v, "bits {bits} slot {i}");
            }
        }
    }

    #[test]
    fn neighbors_in_same_word_are_independent() {
        let buf = GpuBuffer::new(16, 12); // 5 slots per word
        for i in 0..16 {
            buf.write(i, (i as u64 + 1) * 7 % 4096);
        }
        for i in 0..16 {
            assert_eq!(buf.read(i), (i as u64 + 1) * 7 % 4096);
        }
    }

    #[test]
    fn cas_success_and_failure() {
        let buf = GpuBuffer::new(8, 16);
        assert!(buf.cas(3, 0, 42).is_ok());
        assert_eq!(buf.cas(3, 0, 99), Err(42));
        assert_eq!(buf.read(3), 42);
        assert!(buf.cas(3, 42, 43).is_ok());
        assert_eq!(buf.read(3), 43);
    }

    #[test]
    fn atomic_add_wraps_in_slot_width() {
        let buf = GpuBuffer::new(4, 8);
        buf.write(0, 250);
        let prev = buf.atomic_add(0, 10);
        assert_eq!(prev, 250);
        assert_eq!(buf.read(0), 4); // 260 mod 256
    }

    #[test]
    fn atomic_or_sets_bits() {
        let buf = GpuBuffer::new(128, 1);
        assert_eq!(buf.atomic_or(77, 1), 0);
        assert_eq!(buf.atomic_or(77, 1), 1);
        assert_eq!(buf.read(77), 1);
        assert_eq!(buf.read(76), 0);
    }

    #[test]
    fn atomic_exch_returns_previous() {
        let buf = GpuBuffer::new(4, 32);
        buf.write(1, 7);
        assert_eq!(buf.atomic_exch(1, 9), 7);
        assert_eq!(buf.read(1), 9);
    }

    #[test]
    fn twelve_bit_slots_cost_extra_atomics_half_the_time() {
        let buf = GpuBuffer::new(1000, 12);
        let costly: u64 = (0..1000).map(|s| buf.atomic_cost(s) - 1).sum();
        // 5 slots per word at offsets 0,12,24,36,48: the slots at offsets
        // 12 and 24 straddle an aligned 16-bit granule → 2 of every 5 pay
        // an extra transaction. The paper's "50%" figure assumes tight
        // 12-bit pitch; word-aligned packing gives 40%, same effect.
        assert_eq!(costly, 400, "expected 2-in-5 two-transaction slots");
        let buf16 = GpuBuffer::new(1000, 16);
        let costly16: u64 = (0..1000).map(|s| buf16.atomic_cost(s) - 1).sum();
        assert_eq!(costly16, 0, "aligned 16-bit slots never pay extra");
    }

    #[test]
    fn span_view_reads_match_buffer() {
        let buf = GpuBuffer::new(64, 16);
        for i in 0..64 {
            buf.write(i, i as u64 * 3);
        }
        let view = buf.load_span(10, 40);
        for i in 10..50 {
            assert_eq!(view.get(i), i as u64 * 3);
        }
    }

    #[test]
    fn span_load_counts_lines_not_slots() {
        let buf = GpuBuffer::new(1024, 16); // 16-bit: 4 per word, 64 per line
        let before = metrics::snapshot_current_thread();
        let _v = buf.load_span(0, 64); // exactly one 128B line
        let diff = metrics::snapshot_current_thread().since(&before);
        assert_eq!(diff.get(Counter::LinesLoaded), 1);
        let before = metrics::snapshot_current_thread();
        let _v = buf.load_span(0, 65); // spills into a second line
        let diff = metrics::snapshot_current_thread().since(&before);
        assert_eq!(diff.get(Counter::LinesLoaded), 2);
    }

    #[test]
    fn coalesced_write_counts_lines() {
        let buf = GpuBuffer::new(256, 16);
        let vals: Vec<u64> = (0..64).map(|i| i as u64).collect();
        let before = metrics::snapshot_current_thread();
        buf.write_span_coalesced(0, &vals);
        let diff = metrics::snapshot_current_thread().since(&before);
        assert_eq!(diff.get(Counter::LinesStored), 1);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(buf.read_free(i), v);
        }
    }

    /// Deterministic xorshift, so the tests need no RNG plumbing.
    fn xorshift(mut s: u64) -> impl FnMut() -> u64 {
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        }
    }

    #[test]
    fn coalesced_span_matches_per_slot_writes() {
        let mut next = xorshift(0xD1B5_4A32_D192_ED03);
        for bits in [1u32, 5, 8, 12, 13, 16, 32, 64] {
            let len = 600;
            let (span, reference) = (GpuBuffer::new(len, bits), GpuBuffer::new(len, bits));
            for i in 0..len {
                let v = next();
                span.write_free(i, v);
                reference.write_free(i, v);
            }
            // Unaligned starts and ends, single-word spans, spans ending
            // on the buffer's last slot, and one covering all of it.
            for &(start, n) in
                &[(0usize, 1usize), (3, 2), (7, 64), (1, 130), (64, 128), (333, 267), (0, len)]
            {
                let vals: Vec<u64> = (0..n).map(|_| next()).collect();
                let lines: std::collections::BTreeSet<usize> =
                    (start..start + n).map(|s| reference.line_of(s)).collect();
                let before = metrics::snapshot_current_thread();
                span.write_span_coalesced(start, &vals);
                let diff = metrics::snapshot_current_thread().since(&before);
                for (i, &v) in vals.iter().enumerate() {
                    reference.write_free(start + i, v);
                }
                assert_eq!(span.to_vec(), reference.to_vec(), "bits={bits} start={start} n={n}");
                assert_eq!(diff.get(Counter::LinesStored), lines.len() as u64, "bits={bits}");
            }
        }
    }

    /// Per-slot reference of [`GpuBuffer::move_slots`]: a copy loop in
    /// the safe direction.
    fn move_per_slot(buf: &GpuBuffer, src: usize, dst: usize, n: usize) {
        let copy = |i: usize| buf.write_free(dst + i, buf.read_free(src + i));
        if dst > src {
            (0..n).rev().for_each(copy);
        } else {
            (0..n).for_each(copy);
        }
    }

    /// Raw backing words, dead bits included.
    fn raw_words(buf: &GpuBuffer) -> Vec<u64> {
        buf.words.iter().map(|w| w.load(Ordering::Relaxed)).collect()
    }

    #[test]
    fn word_moves_and_fills_match_per_slot_references() {
        let mut next = xorshift(0x2545_F491_4F6C_DD1D);
        for bits in [1u32, 5, 7, 8, 12, 13, 16, 32, 64] {
            let spw = (64 / bits) as usize;
            // 50 words: a span of 33 words crosses two 128-byte lines.
            let len = 50 * spw;
            // Distances of one slot up to three words' worth of slots.
            let mut distances = vec![1, spw / 2 + 1, spw, spw + 1, 2 * spw - 1, 3 * spw];
            distances.dedup();
            // Starts and lengths mid-word, on word edges, and across lines.
            let starts = [0, 1, spw - 1, spw, spw + spw / 2, 3 * spw + 1];
            let lens = [1, spw - 1, spw, spw + 2, 2 * spw + 1, 33 * spw + 3];
            for owned in [false, true] {
                let (moved, reference) = (GpuBuffer::new(len, bits), GpuBuffer::new(len, bits));
                for slot in 0..len {
                    let v = next();
                    moved.write_free(slot, v);
                    reference.write_free(slot, v);
                }
                for &from in &starts {
                    for &n in lens.iter().filter(|&&n| n > 0) {
                        for &d in &distances {
                            if from + n + d > len {
                                continue;
                            }
                            // Up (overlapping when d < n), then back down.
                            for (src, dst) in [(from, from + d), (from + d, from)] {
                                moved.move_slots(src, dst, n, owned);
                                move_per_slot(&reference, src, dst, n);
                                let case = format!("bits={bits} owned={owned} {src}->{dst} n={n}");
                                assert_eq!(raw_words(&moved), raw_words(&reference), "{case}");
                            }
                        }
                        let v = next();
                        moved.fill_slots(from..from + n, v, owned);
                        for slot in from..from + n {
                            reference.write_free(slot, v);
                        }
                        let case = format!("bits={bits} owned={owned} fill {from}+{n}");
                        assert_eq!(raw_words(&moved), raw_words(&reference), "{case}");
                    }
                }
                // A fill pattern keeps every slot's value, the top one too.
                moved.fill_slots(0..len, u64::MAX, owned);
                assert!(moved.to_vec().iter().all(|&v| v == moved.mask()), "bits={bits}");
                assert_eq!(raw_words(&moved)[0], moved.used_bits(), "bits={bits}");
            }
        }
    }

    #[test]
    fn word_moves_keep_a_concurrent_neighbours_slots() {
        // 12-bit slots, 5 per word: the mover's range [0, 7) and the
        // neighbour's [7, 14) share word 1 (slots 5..10), which the mover
        // stores with a masked CAS every round.
        let buf = GpuBuffer::new(64, 12);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let (buf, start) = (&buf, &start);
            s.spawn(move || {
                start.wait();
                for round in 1..=10_000u64 {
                    let v = round & 0xFFF;
                    buf.fill_slots(0..7, v, false);
                    buf.write_free(0, v ^ 1);
                    buf.move_slots(0, 1, 6, false);
                    for slot in 0..7 {
                        let want = if slot < 2 { v ^ 1 } else { v };
                        assert_eq!(buf.read_free(slot), want, "mover lost slot {slot}");
                    }
                }
            });
            s.spawn(move || {
                start.wait();
                for round in 1..=10_000u64 {
                    for slot in 7..14 {
                        buf.write_free(slot, (round + slot as u64) & 0xFFF);
                    }
                    for slot in 7..14 {
                        let want = (round + slot as u64) & 0xFFF;
                        assert_eq!(buf.read_free(slot), want, "neighbour lost slot {slot}");
                    }
                }
            });
        });
    }

    #[test]
    fn live_span_reads_and_charges_like_a_snapshot() {
        let mut next = xorshift(0xA076_1D64_78BD_642F);
        for bits in [1u32, 5, 8, 12, 16, 32, 64] {
            let buf = GpuBuffer::new(700, bits);
            for slot in 0..700 {
                buf.write_free(slot, next());
            }
            for (start, n) in [(0usize, 1usize), (3, 130), (64, 128), (333, 367)] {
                let before = metrics::snapshot_current_thread();
                let snapshot = buf.load_span(start, n);
                let mid = metrics::snapshot_current_thread();
                let live = buf.live_span(start, n);
                let after = metrics::snapshot_current_thread();
                let (copied, read) = (mid.since(&before), after.since(&mid));
                assert_eq!(copied.get(Counter::LinesLoaded), read.get(Counter::LinesLoaded));
                let mut unpacked = Vec::new();
                live.unpack(start + 1..start + n, &mut unpacked);
                assert_eq!(unpacked.len(), n - 1);
                for slot in start..start + n {
                    assert_eq!(live.get(slot), snapshot.get(slot), "bits={bits} slot={slot}");
                    if slot > start {
                        assert_eq!(unpacked[slot - start - 1], snapshot.get(slot), "bits={bits}");
                    }
                }
            }
        }
    }

    #[test]
    fn owner_store_matches_cas_store() {
        let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
        for bits in [1u32, 5, 8, 12, 13, 16, 32, 64] {
            let (owned, cas) = (GpuBuffer::new(300, bits), GpuBuffer::new(300, bits));
            for _ in 0..1_000 {
                let (slot, v) = (next() as usize % 300, next());
                owned.write_owned(slot, v);
                cas.write_free(slot, v);
            }
            assert_eq!(owned.to_vec(), cas.to_vec(), "bits={bits}");
        }
    }

    #[test]
    fn concurrent_spans_sharing_an_edge_word_keep_both_writers_slots() {
        // 12-bit slots, 5 per word: [0, 7) and [7, 14) share word 1
        // (slots 5..10), so both writers CAS that edge word every round;
        // the barrier starts both writers together.
        let buf = GpuBuffer::new(64, 12);
        let start = std::sync::Barrier::new(2);
        let last = |t: u64, round: u64| (round * 2 + t) & 0xFFF;
        std::thread::scope(|s| {
            for (t, span) in [(0u64, 0..7usize), (1, 7..14)] {
                let (buf, start) = (&buf, &start);
                s.spawn(move || {
                    start.wait();
                    for round in 1..=10_000u64 {
                        let v = last(t, round);
                        buf.write_span_coalesced(span.start, &vec![v; span.len()]);
                        for slot in span.clone() {
                            assert_eq!(buf.read_free(slot), v, "writer {t} lost slot {slot}");
                        }
                    }
                });
            }
        });
        for slot in 0..14 {
            assert_eq!(buf.read_free(slot), last(u64::from(slot >= 7), 10_000), "slot {slot}");
        }
    }

    #[test]
    fn concurrent_cas_claims_each_slot_once() {
        use std::sync::Arc;
        let buf = Arc::new(GpuBuffer::new(64, 16));
        let mut handles = Vec::new();
        let wins = Arc::new(std::sync::atomic::AtomicU64::new(0));
        for t in 0..8u64 {
            let buf = Arc::clone(&buf);
            let wins = Arc::clone(&wins);
            handles.push(std::thread::spawn(move || {
                for slot in 0..64 {
                    if buf.cas(slot, 0, t + 2).is_ok() {
                        wins.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Exactly one winner per slot.
        assert_eq!(wins.load(Ordering::Relaxed), 64);
        for slot in 0..64 {
            assert!(buf.read_free(slot) >= 2);
        }
    }

    #[test]
    fn concurrent_subword_neighbors_do_not_corrupt() {
        use std::sync::Arc;
        // 8 threads hammer adjacent 8-bit slots that share words.
        let buf = Arc::new(GpuBuffer::new(64, 8));
        let handles: Vec<_> = (0..8usize)
            .map(|t| {
                let buf = Arc::clone(&buf);
                std::thread::spawn(move || {
                    for round in 0..1000u64 {
                        let slot = t * 8 + (round % 8) as usize;
                        buf.atomic_add(slot, 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = (0..64).map(|s| buf.read_free(s)).sum();
        assert_eq!(total, 8 * 1000, "no lost updates");
    }

    #[test]
    fn shift_and_mask_addressing_equals_division() {
        for bits in 1..=64u32 {
            let spw = (64 / bits) as usize;
            // About 1,000 slots ending in a partial word (a multiple of
            // the slots per word only when that is 1), sampled every 7
            // slots and at the last two.
            let len = 1_000 / spw * spw + spw.div_ceil(2);
            assert!(spw == 1 || !len.is_multiple_of(spw));
            let buf = GpuBuffer::new(len, bits);
            assert_eq!(buf.slots_per_word(), spw);
            let slots = (0..len).step_by(7).chain([len - 2, len - 1]);
            for slot in slots {
                let (word, off) = buf.locate(slot);
                assert_eq!(word, slot / spw, "bits={bits} slot={slot}");
                assert_eq!(off, (slot % spw) as u32 * bits, "bits={bits} slot={slot}");
                assert_eq!(
                    buf.line_of(slot),
                    slot / spw / WORDS_PER_LINE,
                    "bits={bits} slot={slot}"
                );
            }
        }
    }

    #[test]
    fn buffer_rounds_to_cache_lines() {
        let buf = GpuBuffer::new(1, 8);
        assert_eq!(buf.bytes() % CACHE_LINE_BYTES, 0);
    }

    #[test]
    #[should_panic]
    fn zero_elem_bits_panics() {
        let _ = GpuBuffer::new(8, 0);
    }
}
