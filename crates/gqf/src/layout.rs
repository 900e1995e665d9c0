//! GQF table geometry: quotient/remainder split, region layout, and the
//! spill pad that replaces toroidal wraparound.
//!
//! The table has `2^q` canonical slots plus a pad of two lock regions at
//! the end, so clusters near the boundary shift into the pad instead of
//! wrapping — the same trick the reference CQF uses (`nslots + extra`).

use filter_core::FilterError;

/// Slots per lock/phase region (§5.2: clusters stay below 8192 slots at
/// ≤95% load with high probability, so 8192-slot regions guarantee an
/// insert holding its region and the next never escapes the locked zone).
pub const REGION_SLOTS: usize = 8192;

/// Geometry of one GQF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Quotient bits: the table has `2^q` canonical slots.
    pub q_bits: u32,
    /// Remainder bits stored per slot (8, 16, 32 or 64 for word alignment;
    /// resize produces intermediate widths).
    pub r_bits: u32,
}

impl Layout {
    /// Build and validate a layout.
    pub fn new(q_bits: u32, r_bits: u32) -> Result<Self, FilterError> {
        if !(6..=36).contains(&q_bits) {
            return Err(FilterError::BadConfig(format!("q_bits must be 6..=36, got {q_bits}")));
        }
        if !(2..=64).contains(&r_bits) || q_bits + r_bits > 64 {
            return Err(FilterError::BadConfig(format!(
                "r_bits must be 2..=64 with q+r ≤ 64, got q={q_bits} r={r_bits}"
            )));
        }
        Ok(Layout { q_bits, r_bits })
    }

    /// Layout for `capacity` items at false-positive rate `eps`, choosing
    /// the word-aligned remainder width the GQF supports (§6: "8, 16, 32,
    /// and 64 bit remainders to keep the slots machine-word aligned").
    pub fn for_fp_rate(capacity: u64, eps: f64) -> Result<Self, FilterError> {
        if !(f64::MIN_POSITIVE..1.0).contains(&eps) {
            return Err(FilterError::BadConfig(format!("eps must be in (0,1), got {eps}")));
        }
        let q_bits = (capacity.max(64) as f64).log2().ceil() as u32;
        // ε ≈ 2^-r ⇒ r = ceil(log2(1/ε)), rounded up to a machine width.
        let want = (1.0 / eps).log2().ceil() as u32;
        let r_bits = [8u32, 16, 32, 64]
            .into_iter()
            .find(|&w| w >= want && q_bits + w <= 64)
            .ok_or_else(|| FilterError::BadConfig(format!("no aligned width ≥ {want} bits")))?;
        Layout::new(q_bits, r_bits)
    }

    /// Canonical slots (`2^q`).
    #[inline]
    pub fn canonical_slots(&self) -> usize {
        1usize << self.q_bits
    }

    /// Physical slots including the spill pad.
    #[inline]
    pub fn physical_slots(&self) -> usize {
        self.canonical_slots() + 2 * REGION_SLOTS
    }

    /// Number of lock/phase regions over the canonical slots.
    #[inline]
    pub fn n_regions(&self) -> usize {
        self.canonical_slots().div_ceil(REGION_SLOTS)
    }

    /// Width of one region in stored-hash space: a hash in
    /// `[g * span, (g + 1) * span)` has its quotient in region `g`, which
    /// is what the bulk paths' even-odd phases partition sorted hashes by.
    /// Saturates at `u64::MAX` when `REGION_SLOTS << r` does not fit in 64
    /// bits, which happens only for tables of a single region.
    #[inline]
    pub fn region_span(&self) -> u64 {
        u64::try_from((REGION_SLOTS as u128) << self.r_bits).unwrap_or(u64::MAX)
    }

    /// Region of a canonical slot.
    #[inline]
    pub fn region_of(&self, slot: usize) -> usize {
        slot / REGION_SLOTS
    }

    /// Split a 64-bit hash into (quotient, remainder).
    #[inline]
    pub fn split(&self, hash: u64) -> (usize, u64) {
        let (q, r) = filter_core::split_quotient_remainder(hash, self.q_bits, self.r_bits);
        (q as usize, r)
    }

    /// Recombine (quotient, remainder) into the stored hash prefix — the
    /// lossless `h(x)` representation that underpins counting and resize.
    #[inline]
    pub fn join(&self, quotient: usize, remainder: u64) -> u64 {
        ((quotient as u64) << self.r_bits) | remainder
    }

    /// Theoretical false-positive rate at `n` stored items: collisions on
    /// the `p = q + r`-bit fingerprint, `ε ≈ n / 2^p`.
    pub fn theoretical_fp_rate(&self, n: u64) -> f64 {
        n as f64 / 2f64.powi((self.q_bits + self.r_bits) as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_join_roundtrip() {
        let l = Layout::new(20, 8).unwrap();
        for h in [0u64, 1, 0xfff_ffff, (1 << 28) - 1] {
            let (q, r) = l.split(h);
            assert_eq!(l.join(q, r), h & ((1 << 28) - 1));
        }
    }

    #[test]
    fn fp_rate_sizing_picks_aligned_width() {
        // 0.1% target → 10 bits → rounds to 16.
        let l = Layout::for_fp_rate(1 << 20, 0.001).unwrap();
        assert_eq!(l.r_bits, 16);
        // 0.5% → 8 bits exactly.
        let l = Layout::for_fp_rate(1 << 20, 1.0 / 256.0).unwrap();
        assert_eq!(l.r_bits, 8);
    }

    #[test]
    fn regions_cover_canonical_slots() {
        let l = Layout::new(20, 8).unwrap();
        assert_eq!(l.n_regions(), (1 << 20) / REGION_SLOTS);
        assert_eq!(l.region_of(0), 0);
        assert_eq!(l.region_of(REGION_SLOTS), 1);
        assert_eq!(l.region_of((1 << 20) - 1), l.n_regions() - 1);
    }

    #[test]
    fn region_span_matches_region_of_the_quotient() {
        let l = Layout::new(20, 8).unwrap();
        for h in [0u64, 1, (1 << 28) - 1, 0x0abc_def1] {
            let h = h & ((1 << 28) - 1);
            assert_eq!((h / l.region_span()) as usize, l.region_of(l.split(h).0), "hash {h:#x}");
        }
        assert_eq!(Layout::new(6, 58).unwrap().region_span(), u64::MAX, "one region, saturated");
    }

    #[test]
    fn physical_has_spill_pad() {
        let l = Layout::new(16, 16).unwrap();
        assert_eq!(l.physical_slots(), (1 << 16) + 2 * REGION_SLOTS);
    }

    #[test]
    fn invalid_layouts_rejected() {
        assert!(Layout::new(4, 8).is_err());
        assert!(Layout::new(40, 8).is_err());
        assert!(Layout::new(60, 8).is_err());
        assert!(Layout::new(20, 1).is_err());
        assert!(Layout::for_fp_rate(1 << 20, 0.0).is_err());
        assert!(Layout::for_fp_rate(1 << 20, 1.5).is_err());
    }

    #[test]
    fn small_q_still_one_region() {
        let l = Layout::new(10, 8).unwrap();
        assert_eq!(l.n_regions(), 1);
    }
}
