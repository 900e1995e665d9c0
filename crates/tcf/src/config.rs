//! TCF configurations: fingerprint width × block size × cooperative-group
//! size, including the seven variants swept in the paper's Fig. 5, and
//! the key mapping and value store both TCF variants share.

use filter_core::{FilterError, Fingerprint, HashPair};
use gpu_sim::GpuBuffer;

/// Seed for the fingerprint hash (independent of the POTC block hashes).
const SEED_FP: u64 = 0xf1f0_feed;

/// Configuration of a two-choice filter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcfConfig {
    /// Fingerprint width in bits (8, 12, 16 or 32).
    pub fp_bits: u32,
    /// Slots per block. Point blocks are sized to fit a 128-byte cache
    /// line; the bulk TCF uses 128-slot blocks (two lines at 16 bits).
    pub block_slots: usize,
    /// Cooperative-group lanes per operation (Fig. 5 sweeps 1–32).
    pub cg_size: u32,
    /// Primary-block fill ratio below which the shortcut optimization
    /// inserts without probing the secondary block (§4.1: 0.75).
    pub shortcut_fill: f64,
    /// Attach the 1/100-size double-hashing backing table (§4.1). Turning
    /// it off reproduces the ~79.6% max-load ablation.
    pub backing_table: bool,
    /// Maximum recommended load factor (0.9 with the backing table).
    pub max_load: f64,
}

impl Default for TcfConfig {
    /// The paper's default point configuration: 16-bit fingerprints,
    /// 16-slot (32-byte) blocks, groups of 4.
    fn default() -> Self {
        TcfConfig {
            fp_bits: 16,
            block_slots: 16,
            cg_size: 4,
            shortcut_fill: 0.75,
            backing_table: true,
            max_load: 0.9,
        }
    }
}

impl TcfConfig {
    /// The bulk TCF's default: 128-slot blocks of 16-bit keys (§4.2),
    /// giving the 0.3–0.4% error rate the paper reports.
    pub fn bulk_default() -> Self {
        TcfConfig { block_slots: 128, ..TcfConfig::default() }
    }

    /// A Fig. 5 variant written as the paper labels them: the left number
    /// is the fingerprint size, the right is the block size ("12-16" =
    /// 12-bit fingerprints in 16-slot blocks).
    pub fn variant(fp_bits: u32, block_slots: usize) -> Self {
        TcfConfig { fp_bits, block_slots, ..TcfConfig::default() }
    }

    /// All seven variants of Fig. 5, in the legend's order.
    pub fn fig5_variants() -> Vec<(&'static str, TcfConfig)> {
        vec![
            ("8-8", TcfConfig::variant(8, 8)),
            ("12-8", TcfConfig::variant(12, 8)),
            ("12-12", TcfConfig::variant(12, 12)),
            ("12-16", TcfConfig::variant(12, 16)),
            ("12-32", TcfConfig::variant(12, 32)),
            ("16-16", TcfConfig::variant(16, 16)),
            ("16-32", TcfConfig::variant(16, 32)),
        ]
    }

    /// Override the cooperative-group size.
    pub fn with_cg(mut self, cg: u32) -> Self {
        self.cg_size = cg;
        self
    }

    /// Pick the narrowest supported fingerprint width whose theoretical
    /// false-positive rate (`2B/2^f`) meets the target `eps`, keeping the
    /// block geometry. Errors when even 32-bit fingerprints cannot reach
    /// the target at this block size.
    pub fn with_fp_rate(mut self, eps: f64) -> Result<Self, FilterError> {
        let two_b = (2 * self.block_slots) as f64;
        self.fp_bits = [8u32, 12, 16, 32]
            .into_iter()
            .find(|&f| two_b / 2f64.powi(f as i32) <= eps)
            .ok_or_else(|| {
                FilterError::BadConfig(format!(
                    "no TCF fingerprint width reaches fp rate {eps} at {} -slot blocks",
                    self.block_slots
                ))
            })?;
        Ok(self)
    }

    /// Block footprint in bytes (slot pitch is word-aligned packing, so
    /// 12-bit slots occupy 64/⌊64/12⌋ = 12.8 bits each).
    pub fn block_bytes(&self) -> usize {
        let slots_per_word = (64 / self.fp_bits) as usize;
        self.block_slots.div_ceil(slots_per_word) * 8
    }

    /// Theoretical false-positive rate `2B / 2^f` (two blocks of B slots
    /// against an f-bit fingerprint).
    pub fn theoretical_fp_rate(&self) -> f64 {
        (2 * self.block_slots) as f64 / 2f64.powi(self.fp_bits as i32)
    }

    /// `key`'s fingerprint at this width (never EMPTY). With
    /// [`Self::base_blocks`], the one key mapping of both TCFs.
    #[inline]
    pub(crate) fn fingerprint(&self, key: u64) -> u64 {
        Fingerprint::from_hash(filter_core::hash64_seeded(key, SEED_FP), self.fp_bits).value()
    }

    /// `key`'s primary and secondary block among `n_blocks` base blocks:
    /// the two independent power-of-two-choice hashes.
    #[inline]
    pub(crate) fn base_blocks(&self, key: u64, n_blocks: usize) -> (usize, usize) {
        let (b1, b2) = HashPair::new(key).blocks(n_blocks as u64);
        (b1 as usize, b2 as usize)
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), FilterError> {
        if ![8, 12, 16, 32].contains(&self.fp_bits) {
            return Err(FilterError::BadConfig(format!(
                "fp_bits must be 8, 12, 16 or 32, got {}",
                self.fp_bits
            )));
        }
        if self.block_slots == 0 || self.block_slots > 128 {
            return Err(FilterError::BadConfig(format!(
                "block_slots must be in 1..=128, got {}",
                self.block_slots
            )));
        }
        if !self.cg_size.is_power_of_two() || self.cg_size > 32 {
            return Err(FilterError::BadConfig(format!(
                "cg_size must be a power of two ≤ 32, got {}",
                self.cg_size
            )));
        }
        if !(0.0..=1.0).contains(&self.shortcut_fill) {
            return Err(FilterError::BadConfig("shortcut_fill must be in [0,1]".into()));
        }
        if !(0.0..=0.99).contains(&self.max_load) {
            return Err(FilterError::BadConfig("max_load must be in [0,0.99]".into()));
        }
        Ok(())
    }
}

/// A per-slot value store of `value_bits` (8, 16, 32 or 64) for a table
/// of `slots` slots.
pub(crate) fn value_store(slots: usize, value_bits: u32) -> Result<GpuBuffer, FilterError> {
    if ![8, 16, 32, 64].contains(&value_bits) {
        return Err(FilterError::BadConfig(format!(
            "value_bits must be 8, 16, 32 or 64, got {value_bits}"
        )));
    }
    Ok(GpuBuffer::new(slots, value_bits))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = TcfConfig::default();
        assert_eq!(c.fp_bits, 16);
        assert_eq!(c.block_slots, 16);
        assert_eq!(c.cg_size, 4);
        assert!((c.shortcut_fill - 0.75).abs() < 1e-12);
        assert!(c.backing_table);
        c.validate().unwrap();
        // §4.1: 16-bit keys, block of 16 → 0.049% error.
        let fp = c.theoretical_fp_rate();
        assert!((fp - 0.000488).abs() < 1e-5, "fp {fp}");
    }

    #[test]
    fn bulk_default_matches_paper() {
        let c = TcfConfig::bulk_default();
        assert_eq!(c.block_slots, 128);
        c.validate().unwrap();
        // §4.2: block 128 × 16-bit → ~0.39% error ("0.3%" in the text).
        let fp = c.theoretical_fp_rate();
        assert!((0.002..0.005).contains(&fp), "fp {fp}");
    }

    #[test]
    fn all_fig5_variants_valid_and_cache_line_sized() {
        for (label, c) in TcfConfig::fig5_variants() {
            c.validate().unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(c.block_bytes() <= 128, "{label} block {}B", c.block_bytes());
        }
    }

    #[test]
    fn block_bytes_accounts_for_packing() {
        // 16 bits × 16 slots = 32 bytes exactly.
        assert_eq!(TcfConfig::variant(16, 16).block_bytes(), 32);
        // 12-bit slots pack 5 per word: 16 slots → 4 words = 32 bytes.
        assert_eq!(TcfConfig::variant(12, 16).block_bytes(), 32);
        // 8 bits × 8 slots = 1 word.
        assert_eq!(TcfConfig::variant(8, 8).block_bytes(), 8);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(TcfConfig { fp_bits: 10, ..Default::default() }.validate().is_err());
        assert!(TcfConfig { block_slots: 256, ..Default::default() }.validate().is_err());
        assert!(TcfConfig { block_slots: 0, ..Default::default() }.validate().is_err());
        assert!(TcfConfig { cg_size: 3, ..Default::default() }.validate().is_err());
        assert!(TcfConfig { shortcut_fill: 1.5, ..Default::default() }.validate().is_err());
        assert!(TcfConfig { max_load: 1.0, ..Default::default() }.validate().is_err());
    }

    #[test]
    fn with_cg_overrides() {
        assert_eq!(TcfConfig::default().with_cg(8).cg_size, 8);
    }

    #[test]
    fn with_fp_rate_picks_narrowest_width() {
        // Point blocks (B=16): the paper's 0.1%-class target lands on the
        // default 16-bit fingerprints; a loose 1% target shrinks to 12.
        assert_eq!(TcfConfig::default().with_fp_rate(5e-4).unwrap().fp_bits, 16);
        assert_eq!(TcfConfig::default().with_fp_rate(0.01).unwrap().fp_bits, 12);
        // Bulk blocks (B=128): the paper's 0.39% config needs 16 bits.
        assert_eq!(TcfConfig::bulk_default().with_fp_rate(0.004).unwrap().fp_bits, 16);
        // Unreachable targets error instead of silently overshooting.
        assert!(TcfConfig::default().with_fp_rate(1e-12).is_err());
    }
}
