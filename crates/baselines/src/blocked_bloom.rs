//! Blocked Bloom filter baseline (§6): the WarpCore-style filter of
//! Jünger et al., the fastest filter in the paper's point benchmarks.
//!
//! The first hash picks a 64-bit block word; the remaining hashes set `k`
//! bits *inside that word*. An insert is then a single cache-line access
//! and a single `atomicOr` — cheaper than the `atomicCAS` every
//! fingerprint filter needs (§6.1) — and a query is one load. The price
//! is a ~5.5× higher false-positive rate than a Bloom filter at the same
//! bits per item (§2, Table 2).

use filter_core::{
    BulkFilter, Features, Filter, FilterError, FilterMeta, FilterSpec, InsertOutcome, Operation,
};
use gpu_sim::metrics::{bump, Counter};
use gpu_sim::GpuBuffer;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bits set per item inside the block word.
pub const DEFAULT_K: u32 = 7;
/// Default bits per item (matches the paper's BF configuration so the
/// space is comparable — Table 2 lists 9.73 BPI for the BBF).
pub const DEFAULT_BITS_PER_ITEM: f64 = 10.1;

/// Measured inflation of the realized false-positive rate over a classic
/// Bloom filter at equal space, caused by confining all `k` bits to one
/// word (§2 cites ~5.5×); [`BlockedBloomFilter::from_spec`] compensates
/// its geometry by this factor.
pub const BLOCKING_INFLATION: f64 = 5.5;

/// A GPU-model blocked Bloom filter with 64-bit blocks.
pub struct BlockedBloomFilter {
    words: GpuBuffer,
    n_words: u64,
    k: u32,
    items: AtomicUsize,
}

impl BlockedBloomFilter {
    /// Filter for `capacity` items at `bits_per_item`, `k` bits per item.
    pub fn with_params(capacity: usize, bits_per_item: f64, k: u32) -> Result<Self, FilterError> {
        if k == 0 || k > 32 {
            return Err(FilterError::BadConfig(format!("k must be 1..=32, got {k}")));
        }
        if bits_per_item <= 0.0 {
            return Err(FilterError::BadConfig("bits_per_item must be positive".into()));
        }
        let n_words = (((capacity as f64 * bits_per_item) / 64.0).ceil() as u64).max(16);
        Ok(BlockedBloomFilter {
            words: GpuBuffer::new(n_words as usize, 64),
            n_words,
            k,
            items: AtomicUsize::new(0),
        })
    }

    /// The paper's recommended configuration. Thin wrapper over
    /// [`Self::with_params`]; prefer [`Self::from_spec`] for target-error
    /// driven sizing.
    pub fn new(capacity: usize) -> Result<Self, FilterError> {
        Self::with_params(capacity, DEFAULT_BITS_PER_ITEM, DEFAULT_K)
    }

    /// Build from a declarative [`FilterSpec`]. Blocking confines all `k`
    /// bits to one 64-bit word, inflating the realized rate ~5.5× over a
    /// classic Bloom filter's at the same space (§2, Table 2) — the price
    /// of the one-line insert/query this baseline exists to showcase — so
    /// the geometry is derived for `ε / 5.5`: the spec's `fp_rate`
    /// contract holds, at proportionally more bits per item.
    pub fn from_spec(spec: &FilterSpec) -> Result<Self, FilterError> {
        spec.validate()?;
        if spec.counting {
            return FilterError::unsupported("BBF counting");
        }
        if spec.value_bits > 0 {
            return FilterError::unsupported("BBF value association");
        }
        let compensated = spec.clone().fp_rate(spec.fp_rate / BLOCKING_INFLATION);
        let (k, bits_per_item) = compensated.bloom_params();
        Self::with_params(spec.capacity as usize, bits_per_item, k)
    }

    /// (block word index, mask of exactly `k` distinct bits) for a key.
    ///
    /// The indices must be distinct: drawing them with replacement let
    /// duplicate draws silently lower the effective `k`, pushing the
    /// measured false-positive rate above the `ε / 5.5` design point the
    /// geometry was solved for. Collisions resolve by stepping to the
    /// next free bit (at most 63 steps — `k <= 32` is enforced), so the
    /// loop terminates deterministically; the query still tests all `k`
    /// bits of the block word in a single mask comparison.
    #[inline]
    fn pattern(&self, key: u64) -> (usize, u64) {
        let word =
            filter_core::hash::fast_reduce(filter_core::hash64_seeded(key, 0xb10c), self.n_words);
        let mut mask = 0u64;
        let mut h = filter_core::hash64_seeded(key, 0xbb);
        for _ in 0..self.k {
            let mut b = (h & 63) as u32;
            while mask & (1u64 << b) != 0 {
                b = (b + 1) & 63;
            }
            mask |= 1u64 << b;
            h = h.rotate_right(6).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (h >> 29);
        }
        (word as usize, mask)
    }
}

impl FilterMeta for BlockedBloomFilter {
    fn name(&self) -> &'static str {
        "BBF"
    }

    fn features(&self) -> Features {
        Features::new("BBF").with_both(Operation::Insert).with_both(Operation::Query)
    }

    fn table_bytes(&self) -> usize {
        self.words.bytes()
    }

    fn capacity_slots(&self) -> u64 {
        self.n_words * 64
    }

    fn max_load_factor(&self) -> f64 {
        1.0
    }
}

impl Filter for BlockedBloomFilter {
    fn insert(&self, key: u64) -> Result<(), FilterError> {
        let (word, mask) = self.pattern(key);
        // One line of traffic + one atomicOr: the whole insert.
        bump(Counter::LinesLoaded, 1);
        self.words.atomic_or(word, mask);
        self.items.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn contains(&self, key: u64) -> bool {
        let (word, mask) = self.pattern(key);
        self.words.read(word) & mask == mask
    }

    fn len(&self) -> usize {
        self.items.load(Ordering::Relaxed)
    }
}

/// Batch adapter over the point operations. The BBF needs no sorting or
/// phasing to batch safely — every insert is one idempotent `atomicOr` —
/// so the bulk API is a straight loop; it exists so the filter can slot
/// into bulk-only consumers such as the `filter-service` serving layer.
impl BulkFilter for BlockedBloomFilter {
    fn bulk_insert_report(
        &self,
        keys: &[u64],
        out: &mut [InsertOutcome],
    ) -> Result<(), FilterError> {
        assert_eq!(keys.len(), out.len());
        for (o, &k) in out.iter_mut().zip(keys) {
            self.insert(k)?;
            *o = InsertOutcome::Inserted;
        }
        Ok(())
    }

    fn bulk_query(&self, keys: &[u64], out: &mut [bool]) {
        for (o, &k) in out.iter_mut().zip(keys) {
            *o = self.contains(k);
        }
    }
}

impl filter_core::DynFilter for BlockedBloomFilter {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn len_hint(&self) -> Option<usize> {
        Some(Filter::len(self))
    }

    fn insert(&self, key: u64) -> Result<(), FilterError> {
        Filter::insert(self, key)
    }

    fn contains(&self, key: u64) -> Result<bool, FilterError> {
        Ok(Filter::contains(self, key))
    }

    filter_core::dyn_forward_bulk!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use filter_core::hashed_keys;
    use gpu_sim::metrics;

    #[test]
    fn no_false_negatives() {
        let f = BlockedBloomFilter::new(10_000).unwrap();
        let keys = hashed_keys(71, 10_000);
        for &k in &keys {
            f.insert(k).unwrap();
        }
        for &k in &keys {
            assert!(f.contains(k));
        }
    }

    #[test]
    fn insert_is_one_line_one_atomic() {
        let f = BlockedBloomFilter::new(1 << 20).unwrap();
        let before = metrics::snapshot_current_thread();
        f.insert(42).unwrap();
        let diff = metrics::snapshot_current_thread().since(&before);
        assert_eq!(diff.get(Counter::LinesLoaded), 1);
        assert_eq!(diff.get(Counter::AtomicOps), 1);
    }

    #[test]
    fn fp_rate_higher_than_plain_bloom() {
        let n = 20_000;
        let bbf = BlockedBloomFilter::new(n).unwrap();
        let bf = crate::bloom::BloomFilter::new(n).unwrap();
        for &k in &hashed_keys(72, n) {
            bbf.insert(k).unwrap();
            bf.insert(k).unwrap();
        }
        let probes = hashed_keys(720, 200_000);
        let fp_bbf = probes.iter().filter(|&&k| bbf.contains(k)).count() as f64;
        let fp_bf = probes.iter().filter(|&&k| bf.contains(k)).count() as f64;
        // §2: "up to 5×" higher FP at the same bits per item.
        assert!(fp_bbf > fp_bf * 1.5, "BBF FP ({fp_bbf}) should clearly exceed BF FP ({fp_bf})");
        assert!(fp_bbf / 200_000.0 < 0.05, "BBF FP out of band");
    }

    #[test]
    fn pattern_is_deterministic_and_k_bits() {
        let f = BlockedBloomFilter::new(1000).unwrap();
        let (w1, m1) = f.pattern(123);
        let (w2, m2) = f.pattern(123);
        assert_eq!((w1, m1), (w2, m2));
        // The k drawn indices are distinct, so the mask has exactly k bits.
        assert_eq!(m1.count_ones(), DEFAULT_K);
        for key in 0..500u64 {
            let (_, m) = f.pattern(key);
            assert_eq!(m.count_ones(), DEFAULT_K, "key {key}");
        }
    }

    /// Satellite regression: a spec-built BBF must realize its `fp_rate`
    /// contract. With-replacement index draws lowered the effective k and
    /// pushed the measured rate above target.
    #[test]
    fn measured_fp_rate_meets_spec_target() {
        let n = 20_000u64;
        let eps = 1e-2;
        let spec = FilterSpec::items(n).fp_rate(eps);
        let f = BlockedBloomFilter::from_spec(&spec).unwrap();
        for &k in &hashed_keys(74, n as usize) {
            f.insert(k).unwrap();
        }
        let probes = hashed_keys(740, 400_000);
        let fps = probes.iter().filter(|&&k| f.contains(k)).count() as f64;
        let measured = fps / probes.len() as f64;
        assert!(
            measured <= eps * 1.5,
            "measured fp {measured:.5} above spec target {eps} (×1.5 margin)"
        );
    }

    #[test]
    fn concurrent_inserts_sound() {
        use std::sync::Arc;
        let f = Arc::new(BlockedBloomFilter::new(50_000).unwrap());
        let keys = Arc::new(hashed_keys(73, 4000));
        let handles: Vec<_> = (0..4usize)
            .map(|t| {
                let f = Arc::clone(&f);
                let keys = Arc::clone(&keys);
                std::thread::spawn(move || {
                    for &k in &keys[t * 1000..(t + 1) * 1000] {
                        f.insert(k).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for &k in keys.iter() {
            assert!(f.contains(k));
        }
    }
}
