//! The point TCF: device-side concurrent inserts, queries, and deletes
//! (§4, §4.1).
//!
//! Placement is power-of-two-choice over cache-line-sized blocks, with the
//! shortcut optimization (skip the secondary-block probe when the primary
//! is under 75% full) and the 1/100-size backing table that together give
//! the 90% achievable load factor.

use crate::backing::BackingTable;
use crate::block::{block_delete, block_fill, block_insert_at, block_query};
use crate::config::{value_store, TcfConfig};
use filter_core::{
    Deletable, Features, Filter, FilterError, FilterMeta, FilterSpec, Operation, Valued,
};
use gpu_sim::{Cg, GpuBuffer};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Where an item was found/placed — used internally and by the value path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Placement {
    Primary,
    Secondary,
    Backing,
}

/// A point-API two-choice filter.
///
/// All operations take `&self` and are safe to call concurrently from many
/// threads — each call plays the role of one cooperative group in the
/// paper's device-side API.
pub struct PointTcf {
    cfg: TcfConfig,
    table: GpuBuffer,
    /// Optional per-slot value store (value association, Table 1).
    values: Option<GpuBuffer>,
    backing: BackingTable,
    n_blocks: usize,
    occupied: AtomicUsize,
}

impl PointTcf {
    /// Build a filter with at least `capacity` slots under `cfg`.
    /// The slot count is rounded up to a power-of-two number of blocks.
    pub fn with_config(capacity: usize, cfg: TcfConfig) -> Result<Self, FilterError> {
        cfg.validate()?;
        if cfg.block_slots > 64 {
            return Err(FilterError::BadConfig(
                "point TCF blocks are capped at 64 slots (ballot width)".into(),
            ));
        }
        let n_blocks = (capacity.div_ceil(cfg.block_slots)).next_power_of_two().max(2);
        let n_slots = n_blocks * cfg.block_slots;
        Ok(PointTcf {
            table: GpuBuffer::new(n_slots, cfg.fp_bits),
            values: None,
            backing: BackingTable::for_main_table(n_slots, cfg.fp_bits),
            n_blocks,
            occupied: AtomicUsize::new(0),
            cfg,
        })
    }

    /// Build with the paper's default configuration (16-bit fingerprints,
    /// 16-slot blocks, CG of 4). Thin wrapper over [`Self::with_config`];
    /// `capacity` is a raw slot budget. Prefer [`Self::from_spec`] for
    /// item-count/error-rate-driven sizing.
    pub fn new(capacity: usize) -> Result<Self, FilterError> {
        Self::with_config(capacity, TcfConfig::default())
    }

    /// Build from a declarative [`FilterSpec`]: the table is sized so
    /// `spec.capacity` *items* fit at the recommended load factor, the
    /// narrowest fingerprint meeting `spec.fp_rate` is chosen, and a value
    /// store is attached when `spec.value_bits > 0`. Counting specs are
    /// refused (Table 1: the TCF does not count — use the GQF).
    pub fn from_spec(spec: &FilterSpec) -> Result<Self, FilterError> {
        spec.validate()?;
        if spec.counting {
            return FilterError::unsupported("TCF counting (use the GQF)");
        }
        let cfg = TcfConfig::default().with_fp_rate(spec.fp_rate)?;
        let filter = Self::with_config(spec.slots_for_load(cfg.max_load), cfg)?;
        if spec.value_bits > 0 {
            filter.with_values(spec.value_bits)
        } else {
            Ok(filter)
        }
    }

    /// Attach a value store of `value_bits` per slot (8, 16, 32 or 64).
    pub fn with_values(mut self, value_bits: u32) -> Result<Self, FilterError> {
        self.values = Some(value_store(self.table.len(), value_bits)?);
        Ok(self)
    }

    /// The active configuration.
    pub fn config(&self) -> &TcfConfig {
        &self.cfg
    }

    /// Total slot count of the main table.
    pub fn slots(&self) -> usize {
        self.table.len()
    }

    /// Current load factor over main-table slots.
    pub fn load_factor(&self) -> f64 {
        self.occupied.load(Ordering::Relaxed) as f64 / self.table.len() as f64
    }

    #[inline]
    fn hash_parts(&self, key: u64) -> (usize, usize, u64) {
        let (b1, b2) = self.cfg.base_blocks(key, self.n_blocks);
        let b = self.cfg.block_slots;
        (b1 * b, b2 * b, self.cfg.fingerprint(key))
    }

    /// Insert returning where the item landed (used by the value path).
    fn insert_placed(&self, key: u64) -> Result<(Placement, usize), FilterError> {
        if self.occupied.load(Ordering::Relaxed) as f64
            >= self.cfg.max_load * self.table.len() as f64
        {
            return Err(FilterError::Full);
        }
        let (p, s, fp) = self.hash_parts(key);
        let cg = Cg::new(self.cfg.cg_size);
        let b = self.cfg.block_slots;

        // Shortcut optimization (§4.1): a lightly filled primary block is
        // written without ever probing the secondary.
        let p_fill = block_fill(&self.table, &cg, p, b);
        if p_fill.ratio(b) < self.cfg.shortcut_fill {
            if let Some(slot) = block_insert_at(&self.table, &cg, p, b, fp) {
                self.occupied.fetch_add(1, Ordering::Relaxed);
                return Ok((Placement::Primary, slot));
            }
        } else {
            // Full POTC: load the secondary fill, insert into the emptier.
            let s_fill = block_fill(&self.table, &cg, s, b);
            let (first, second, first_pl, second_pl) = if s_fill.live < p_fill.live {
                (s, p, Placement::Secondary, Placement::Primary)
            } else {
                (p, s, Placement::Primary, Placement::Secondary)
            };
            if let Some(slot) = block_insert_at(&self.table, &cg, first, b, fp) {
                self.occupied.fetch_add(1, Ordering::Relaxed);
                return Ok((first_pl, slot));
            }
            if let Some(slot) = block_insert_at(&self.table, &cg, second, b, fp) {
                self.occupied.fetch_add(1, Ordering::Relaxed);
                return Ok((second_pl, slot));
            }
        }
        // Secondary path for shortcut misses: the primary rejected us.
        if let Some(slot) = block_insert_at(&self.table, &cg, s, b, fp) {
            self.occupied.fetch_add(1, Ordering::Relaxed);
            return Ok((Placement::Secondary, slot));
        }
        // Both blocks full → backing table (§4.1).
        if self.cfg.backing_table && self.backing.insert(key, fp) {
            self.occupied.fetch_add(1, Ordering::Relaxed);
            return Ok((Placement::Backing, 0));
        }
        Err(FilterError::Full)
    }

    /// Find the slot index currently holding `key`'s fingerprint, if any.
    fn find_slot(&self, key: u64) -> Option<(Placement, usize)> {
        let (p, s, fp) = self.hash_parts(key);
        let b = self.cfg.block_slots;
        let view = self.table.load_span(p, b);
        for i in 0..b {
            if view.get(p + i) == fp {
                return Some((Placement::Primary, p + i));
            }
        }
        let view = self.table.load_span(s, b);
        for i in 0..b {
            if view.get(s + i) == fp {
                return Some((Placement::Secondary, s + i));
            }
        }
        if self.cfg.backing_table && self.backing.contains(key, fp) {
            return Some((Placement::Backing, 0));
        }
        None
    }

    /// Number of items that overflowed into the backing table (host-side
    /// scan; "<0.07% of items" in the paper's runs).
    pub fn backing_occupancy(&self) -> usize {
        self.backing.occupied()
    }

    /// Enumerate all live fingerprints in the main table (host-side).
    pub fn enumerate_fingerprints(&self) -> Vec<u64> {
        crate::block::block_contents(&self.table, 0, self.table.len())
    }
}

impl FilterMeta for PointTcf {
    fn name(&self) -> &'static str {
        "TCF"
    }

    fn features(&self) -> Features {
        Features::new("TCF")
            .with_both(Operation::Insert)
            .with_both(Operation::Query)
            .with_both(Operation::Delete)
    }

    fn table_bytes(&self) -> usize {
        self.table.bytes() + self.backing.bytes() + self.values.as_ref().map_or(0, |v| v.bytes())
    }

    fn capacity_slots(&self) -> u64 {
        self.table.len() as u64
    }

    fn max_load_factor(&self) -> f64 {
        self.cfg.max_load
    }
}

impl Filter for PointTcf {
    fn insert(&self, key: u64) -> Result<(), FilterError> {
        self.insert_placed(key).map(|_| ())
    }

    fn contains(&self, key: u64) -> bool {
        let (p, s, fp) = self.hash_parts(key);
        let cg = Cg::new(self.cfg.cg_size);
        let b = self.cfg.block_slots;
        if block_query(&self.table, &cg, p, b, fp) {
            return true;
        }
        if block_query(&self.table, &cg, s, b, fp) {
            return true;
        }
        self.cfg.backing_table && self.backing.contains(key, fp)
    }

    fn len(&self) -> usize {
        self.occupied.load(Ordering::Relaxed)
    }
}

impl Deletable for PointTcf {
    fn remove(&self, key: u64) -> Result<bool, FilterError> {
        let (p, s, fp) = self.hash_parts(key);
        let cg = Cg::new(self.cfg.cg_size);
        let b = self.cfg.block_slots;
        let removed = block_delete(&self.table, &cg, p, b, fp)
            || block_delete(&self.table, &cg, s, b, fp)
            || (self.cfg.backing_table && self.backing.remove(key, fp));
        if removed {
            self.occupied.fetch_sub(1, Ordering::Relaxed);
        }
        Ok(removed)
    }
}

impl Valued for PointTcf {
    fn value_bits(&self) -> u32 {
        self.values.as_ref().map_or(0, |v| v.elem_bits())
    }

    fn insert_value(&self, key: u64, value: u64) -> Result<(), FilterError> {
        let values =
            self.values.as_ref().ok_or(FilterError::Unsupported("values not configured"))?;
        match self.insert_placed(key)? {
            (Placement::Backing, _) => {
                // Backing-table items cannot carry values; the paper's
                // value-bearing deployments (MetaHipMer) size the filter so
                // overflow is negligible. Roll the insert back.
                let _ = Deletable::remove(self, key);
                Err(FilterError::Full)
            }
            (_, slot) => {
                values.write(slot, value);
                Ok(())
            }
        }
    }

    fn query_value(&self, key: u64) -> Option<u64> {
        let values = self.values.as_ref()?;
        match self.find_slot(key)? {
            (Placement::Backing, _) => None,
            (_, slot) => Some(values.read(slot)),
        }
    }
}

impl filter_core::DynFilter for PointTcf {
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

    fn remove(&self, key: u64) -> Result<bool, FilterError> {
        Deletable::remove(self, key)
    }

    fn value_bits(&self) -> u32 {
        Valued::value_bits(self)
    }

    fn insert_value(&self, key: u64, value: u64) -> Result<(), FilterError> {
        Valued::insert_value(self, key, value)
    }

    fn query_value(&self, key: u64) -> Result<Option<u64>, FilterError> {
        Ok(Valued::query_value(self, key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use filter_core::{hashed_keys, ApiMode};

    #[test]
    fn insert_query_roundtrip() {
        let f = PointTcf::new(1 << 12).unwrap();
        let keys = hashed_keys(1, 2000);
        for &k in &keys {
            f.insert(k).unwrap();
        }
        for &k in &keys {
            assert!(f.contains(k));
        }
        assert_eq!(f.len(), 2000);
    }

    #[test]
    fn no_false_negatives_at_90_percent_load() {
        let f = PointTcf::new(1 << 12).unwrap();
        let n = (f.slots() as f64 * 0.9) as usize;
        let keys = hashed_keys(2, n);
        for (i, &k) in keys.iter().enumerate() {
            f.insert(k).unwrap_or_else(|e| panic!("insert {i}/{n} failed: {e}"));
        }
        for &k in &keys {
            assert!(f.contains(k));
        }
        assert!(f.load_factor() >= 0.89);
    }

    #[test]
    fn false_positive_rate_within_theory() {
        let f = PointTcf::new(1 << 12).unwrap();
        let n = (f.slots() as f64 * 0.9) as usize;
        for &k in &hashed_keys(3, n) {
            f.insert(k).unwrap();
        }
        let probes = hashed_keys(999, 200_000);
        let fps = probes.iter().filter(|&&k| f.contains(k)).count();
        let rate = fps as f64 / probes.len() as f64;
        // Theory: 2B/2^f at full blocks ≈ 0.049%; allow generous slack for
        // the backing-table contribution and load on small tables.
        assert!(rate < 0.004, "fp rate {rate}");
    }

    #[test]
    fn without_backing_table_fails_before_90() {
        let cfg = TcfConfig { backing_table: false, max_load: 0.95, ..Default::default() };
        let f = PointTcf::with_config(1 << 12, cfg).unwrap();
        let keys = hashed_keys(4, f.slots());
        let mut inserted = 0usize;
        for &k in &keys {
            if f.insert(k).is_err() {
                break;
            }
            inserted += 1;
        }
        let reached = inserted as f64 / f.slots() as f64;
        // The paper measured 79.6% for the full-size filter; small tables
        // fail somewhat earlier. With the backing table this test would
        // reach 90+.
        assert!(
            (0.55..0.90).contains(&reached),
            "load without backing should fail before 90%, got {reached}"
        );
    }

    #[test]
    fn with_backing_reaches_90() {
        let cfg = TcfConfig { max_load: 0.9, ..Default::default() };
        let f = PointTcf::with_config(1 << 12, cfg).unwrap();
        let keys = hashed_keys(5, (f.slots() as f64 * 0.9) as usize);
        for &k in &keys {
            f.insert(k).unwrap();
        }
        assert!(f.load_factor() >= 0.89);
        // The overflow share is tiny (paper: <0.07% at 90% load on big
        // tables; small tables see a little more).
        let overflow = f.backing_occupancy() as f64 / f.len() as f64;
        assert!(overflow < 0.05, "overflow share {overflow}");
    }

    #[test]
    fn delete_then_query_absent() {
        let f = PointTcf::new(1 << 10).unwrap();
        let keys = hashed_keys(6, 500);
        for &k in &keys {
            f.insert(k).unwrap();
        }
        for &k in &keys[..250] {
            assert!(f.remove(k).unwrap(), "remove {k}");
        }
        for &k in &keys[..250] {
            assert!(!f.contains(k), "key {k} should be gone");
        }
        for &k in &keys[250..] {
            assert!(f.contains(k), "key {k} should remain");
        }
        assert_eq!(f.len(), 250);
    }

    #[test]
    fn delete_refill_cycle_stays_consistent() {
        let f = PointTcf::new(1 << 10).unwrap();
        for round in 0..5u64 {
            let keys = hashed_keys(100 + round, 400);
            for &k in &keys {
                f.insert(k).unwrap();
            }
            for &k in &keys {
                assert!(f.remove(k).unwrap());
            }
            assert_eq!(f.len(), 0, "round {round}");
        }
    }

    #[test]
    fn full_filter_reports_full() {
        let cfg = TcfConfig { max_load: 0.5, ..Default::default() };
        let f = PointTcf::with_config(1 << 8, cfg).unwrap();
        let keys = hashed_keys(7, f.slots());
        let mut full_seen = false;
        for &k in &keys {
            if matches!(f.insert(k), Err(FilterError::Full)) {
                full_seen = true;
                break;
            }
        }
        assert!(full_seen);
        assert!(f.load_factor() <= 0.51);
    }

    #[test]
    fn values_roundtrip() {
        let f = PointTcf::new(1 << 10).unwrap().with_values(16).unwrap();
        let keys = hashed_keys(8, 300);
        for (i, &k) in keys.iter().enumerate() {
            f.insert_value(k, i as u64).unwrap();
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(f.query_value(k), Some(i as u64 & 0xffff), "key {i}");
        }
        assert_eq!(f.query_value(hashed_keys(9, 1)[0]), None);
    }

    #[test]
    fn value_on_unconfigured_filter_errors() {
        let f = PointTcf::new(1 << 8).unwrap();
        assert!(matches!(f.insert_value(1, 2), Err(FilterError::Unsupported(_))));
        assert_eq!(f.value_bits(), 0);
    }

    #[test]
    fn concurrent_inserts_and_queries() {
        use std::sync::Arc;
        let f = Arc::new(PointTcf::new(1 << 14).unwrap());
        let keys = Arc::new(hashed_keys(10, 8000));
        let handles: Vec<_> = (0..8usize)
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
        assert_eq!(f.len(), 8000);
        for &k in keys.iter() {
            assert!(f.contains(k));
        }
    }

    #[test]
    fn enumerate_matches_len_without_collisions() {
        let f = PointTcf::new(1 << 10).unwrap();
        let keys = hashed_keys(11, 200);
        for &k in &keys {
            f.insert(k).unwrap();
        }
        let fps = f.enumerate_fingerprints();
        assert_eq!(fps.len() + f.backing_occupancy(), 200);
    }

    #[test]
    fn from_spec_sizes_for_items_and_picks_default_width() {
        let spec = FilterSpec::items(9000).fp_rate(5e-4);
        let f = PointTcf::from_spec(&spec).unwrap();
        assert_eq!(f.config().fp_bits, 16);
        assert!(f.slots() as f64 * f.config().max_load >= 9000.0, "slots {}", f.slots());
        let keys = hashed_keys(40, 9000);
        for &k in &keys {
            f.insert(k).unwrap();
        }
        for &k in &keys {
            assert!(f.contains(k));
        }
    }

    #[test]
    fn from_spec_values_and_counting() {
        let f = PointTcf::from_spec(&FilterSpec::items(500).value_bits(16)).unwrap();
        f.insert_value(7, 99).unwrap();
        assert_eq!(f.query_value(7), Some(99));
        assert!(matches!(
            PointTcf::from_spec(&FilterSpec::items(500).counting(true)),
            Err(FilterError::Unsupported(_))
        ));
    }

    #[test]
    fn dyn_facade_roundtrip() {
        let f: filter_core::AnyFilter =
            Box::new(PointTcf::from_spec(&FilterSpec::items(500)).unwrap());
        f.insert(42).unwrap();
        assert!(f.contains(42).unwrap());
        assert!(f.remove(42).unwrap());
        assert!(!f.contains(42).unwrap());
        assert!(matches!(f.count(42), Err(FilterError::Unsupported(_))));
        assert!(matches!(f.bulk_insert(&[1, 2]), Err(FilterError::Unsupported(_))));
        assert!(f.as_any().downcast_ref::<PointTcf>().is_some());
    }

    #[test]
    fn meta_reports_tcf_features() {
        let f = PointTcf::new(1 << 8).unwrap();
        let feats = f.features();
        assert!(feats.supports(Operation::Delete, ApiMode::Point));
        assert!(!feats.supports(Operation::Count, ApiMode::Point));
        assert!(f.table_bytes() > 0);
        assert_eq!(f.name(), "TCF");
    }
}
