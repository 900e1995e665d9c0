//! Geil et al.'s standard quotient filter (SQF) — the prior GPU quotient
//! filter the paper compares against (§6).
//!
//! Reproduced with its published limitations:
//! * only two configurations, 5-bit and 13-bit remainders (the three
//!   metadata bits pack with the remainder into 8/16-bit machine words,
//!   so `q + r < 32`), giving the ~1.17% false-positive rate of Table 2
//!   rather than the 0.1% target;
//! * at most 2^26 slots (5-bit remainders) / 2^18 (13-bit);
//! * bulk API only (Table 1: no point operations, no counting);
//! * queries sort the batch first (the reference implementation's sorted
//!   lookup, §6.2);
//! * deletes run serialized on one device thread in batch order, unsorted
//!   — the two-orders-of-magnitude gap to the GQF's even-odd phased
//!   deletes in Fig. 6.
//!
//! The filter is a [`BulkGqf`] in a published configuration: its bulk
//! build, grow and merge are the GQF's, and only the sorted query and the
//! serialized deletes are its own. The SQF's packed-slot storage is
//! modeled by the GQF core's separate remainder/metadata arrays of the
//! same total width, a layout deviation whose traffic profile is within
//! one line per operation.

use filter_core::{
    ApiMode, BulkDeletable, BulkFilter, DeleteOutcome, Features, FilterError, FilterMeta,
    FilterSpec, InsertOutcome, MaintainableFilter, Operation,
};
use gpu_sim::Device;
use gqf::{BulkGqf, GqfCore};
use std::sync::atomic::{AtomicBool, Ordering};

/// The SQF's two supported remainder widths.
pub const SUPPORTED_R_BITS: [u32; 2] = [5, 13];

/// Shared SQF/RSQF published-configuration geometry for a validated
/// spec: the 5-bit remainder build when the target ε is within its
/// theoretical 2^-5 rate, else the 13-bit build (whose size cap then
/// decides); targets below the 13-bit rate are refused so a spec never
/// silently overshoots its requested ε.
pub(crate) fn quotient_geometry(
    spec: &FilterSpec,
    family: &'static str,
) -> Result<(u32, u32), FilterError> {
    if spec.fp_rate < 2f64.powi(-13) {
        return Err(FilterError::BadConfig(format!(
            "{family} remainders are 5 or 13 bits; fp rate {} is unreachable",
            spec.fp_rate
        )));
    }
    let r_bits = if spec.fp_rate >= 2f64.powi(-5) { 5 } else { 13 };
    let q_bits = (spec.slots_for_load(0.9).max(64) as f64).log2().ceil() as u32;
    Ok((q_bits, r_bits))
}

/// The bulk GQF behind an SQF or RSQF, built after the shared
/// published-configuration check: 5- or 13-bit remainders, and at most
/// 2^26 slots (r = 5) or 2^18 (r = 13) as in the reference
/// implementation. Grows leave that configuration space (a recorded
/// deviation); the packed-word constraint `q + r < 32` still holds
/// because a grow keeps `p = q + r`.
pub(crate) fn published_gqf(
    q_bits: u32,
    r_bits: u32,
    device: Device,
    family: &'static str,
) -> Result<BulkGqf, FilterError> {
    if !SUPPORTED_R_BITS.contains(&r_bits) {
        return Err(FilterError::BadConfig(format!(
            "{family} supports only 5- or 13-bit remainders, got {r_bits}"
        )));
    }
    let q_cap = if r_bits == 5 { 26 } else { 18 };
    if q_bits > q_cap {
        return Err(FilterError::CapacityExceeded {
            requested: 1u64 << q_bits,
            maximum: 1u64 << q_cap,
        });
    }
    BulkGqf::new(q_bits, r_bits, device)
}

/// Geil et al.'s GPU standard quotient filter.
pub struct Sqf {
    gqf: BulkGqf,
}

impl Sqf {
    /// Build an SQF. `r_bits` must be 5 or 13; `q_bits` is capped at 26
    /// (r=5) or 18 (r=13) as in the reference implementation.
    pub fn new(q_bits: u32, r_bits: u32, device: Device) -> Result<Self, FilterError> {
        Ok(Sqf { gqf: published_gqf(q_bits, r_bits, device, "SQF")? })
    }

    /// Build from a declarative [`FilterSpec`], within the published
    /// configuration limits: the 13-bit remainder build when the target ε
    /// is tighter than the 5-bit build's 2^-5 rate (capped at 2^18
    /// slots), else the 5-bit build (capped at 2^26). Targets below what 13-bit remainders reach, and
    /// counting/value specs, are refused.
    pub fn from_spec(spec: &FilterSpec) -> Result<Self, FilterError> {
        spec.validate()?;
        if spec.counting {
            return FilterError::unsupported("SQF counting");
        }
        if spec.value_bits > 0 {
            return FilterError::unsupported("SQF value association");
        }
        let (q_bits, r_bits) = quotient_geometry(spec, "SQF")?;
        let device =
            Device::for_model_name(spec.device.name()).with_workers(spec.parallelism.workers());
        Self::new(q_bits, r_bits, device)
    }

    /// Shared core (tests, space accounting).
    pub fn core(&self) -> &GqfCore {
        self.gqf.core()
    }

    /// Current load factor.
    pub fn load_factor(&self) -> f64 {
        self.gqf.load_factor()
    }

    /// Bulk build: the segmented parallel build of the reference
    /// implementation, which is the GQF's sorted even-odd insert
    /// ([`BulkGqf::insert_batch`]) with the same region machinery.
    pub fn insert_batch(&self, keys: &[u64]) -> usize {
        self.gqf.insert_batch(keys)
    }

    /// Bulk build with per-key outcomes: `out[i]` answers `keys[i]`
    /// ([`BulkGqf::insert_batch_report`]).
    pub fn insert_batch_report(&self, keys: &[u64], out: &mut [InsertOutcome]) {
        self.gqf.insert_batch_report(keys, out)
    }

    /// Bulk query using the reference implementation's *sorted* lookup
    /// strategy: the batch is sorted first (extra preprocessing the paper
    /// blames for the SQF's lower query throughput, §6.2).
    pub fn query_batch(&self, keys: &[u64], out: &mut [bool]) {
        assert_eq!(keys.len(), out.len());
        let (core, device) = (self.gqf.core(), self.gqf.device());
        let l = *core.layout();
        let mut order: Vec<(u64, u64)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let (q, r) = l.split(filter_core::hash64(k));
                (l.join(q, r), i as u64)
            })
            .collect();
        device.sort_pairs(&mut order);
        let results: Vec<AtomicBool> = (0..keys.len()).map(|_| AtomicBool::new(false)).collect();
        let order_ref = &order;
        let results_ref = &results;
        device.launch_point(order.len(), 1, |i| {
            let (h, idx) = order_ref[i];
            let (q, r) = l.split(h);
            results_ref[idx as usize].store(core.query(q, r) > 0, Ordering::Relaxed);
        });
        for (o, r) in out.iter_mut().zip(results) {
            *o = r.into_inner();
        }
    }

    /// Bulk delete with per-key outcomes: `out[i]` answers `keys[i]`.
    /// One device thread deletes every item in batch order, unsorted.
    /// That serialization, not the per-item delete (the GQF core's local
    /// left slide), is the SQF's Fig. 6 deletion collapse.
    pub fn delete_batch_report(&self, keys: &[u64], out: &mut [DeleteOutcome]) {
        assert_eq!(keys.len(), out.len());
        let core = self.gqf.core();
        let l = *core.layout();
        let removed: Vec<AtomicBool> = (0..keys.len()).map(|_| AtomicBool::new(false)).collect();
        let removed_ref = &removed;
        self.gqf.device().launch_regions(1, |_| {
            for (i, &k) in keys.iter().enumerate() {
                let (q, r) = l.split(filter_core::hash64(k));
                if matches!(core.delete(q, r, 1), Ok(true)) {
                    removed_ref[i].store(true, Ordering::Relaxed);
                }
            }
        });
        for (o, r) in out.iter_mut().zip(&removed) {
            *o = if r.load(Ordering::Relaxed) {
                DeleteOutcome::Removed
            } else {
                DeleteOutcome::NotFound
            };
        }
    }
}

/// The GQF's quotient-bit-extension grow and counted merge.
impl MaintainableFilter for Sqf {
    fn load(&self) -> f64 {
        self.gqf.load()
    }

    fn grow(&mut self, factor: u32) -> Result<(), FilterError> {
        self.gqf.grow(factor)
    }

    fn merge(&mut self, other: &Self) -> Result<(), FilterError> {
        self.gqf.merge(&other.gqf)
    }
}

impl FilterMeta for Sqf {
    fn name(&self) -> &'static str {
        "SQF"
    }

    fn features(&self) -> Features {
        Features::new("SQF")
            .with(Operation::Insert, ApiMode::Bulk)
            .with(Operation::Query, ApiMode::Bulk)
            .with(Operation::Delete, ApiMode::Bulk)
            .with_growth()
    }

    fn table_bytes(&self) -> usize {
        self.gqf.table_bytes()
    }

    fn capacity_slots(&self) -> u64 {
        self.gqf.capacity_slots()
    }
}

impl BulkFilter for Sqf {
    fn bulk_insert_report(
        &self,
        keys: &[u64],
        out: &mut [InsertOutcome],
    ) -> Result<(), FilterError> {
        self.insert_batch_report(keys, out);
        Ok(())
    }

    fn bulk_insert(&self, keys: &[u64]) -> Result<usize, FilterError> {
        Ok(self.insert_batch(keys))
    }

    fn bulk_query(&self, keys: &[u64], out: &mut [bool]) {
        self.query_batch(keys, out)
    }
}

impl BulkDeletable for Sqf {
    fn bulk_delete_report(
        &self,
        keys: &[u64],
        out: &mut [DeleteOutcome],
    ) -> Result<(), FilterError> {
        self.delete_batch_report(keys, out);
        Ok(())
    }
}

impl filter_core::DynFilter for Sqf {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.gqf.core().items())
    }

    filter_core::dyn_forward_bulk!();
    filter_core::dyn_forward_bulk_delete!();
    filter_core::dyn_forward_maintain!(Sqf);
}

#[cfg(test)]
mod tests {
    use super::*;
    use filter_core::hashed_keys;

    fn sqf(q: u32) -> Sqf {
        Sqf::new(q, 5, Device::cori()).unwrap()
    }

    #[test]
    fn only_published_configs_accepted() {
        assert!(Sqf::new(20, 8, Device::cori()).is_err());
        assert!(Sqf::new(27, 5, Device::cori()).is_err());
        assert!(Sqf::new(19, 13, Device::cori()).is_err());
        assert!(Sqf::new(18, 13, Device::cori()).is_ok());
        assert!(Sqf::new(26, 5, Device::cori()).is_ok());
    }

    #[test]
    fn bulk_roundtrip() {
        let f = sqf(14);
        let keys = hashed_keys(81, 8000);
        assert_eq!(f.insert_batch(&keys), 0);
        let mut out = vec![false; keys.len()];
        f.query_batch(&keys, &mut out);
        assert!(out.iter().all(|&x| x));
        f.core().check_invariants();
    }

    #[test]
    fn five_bit_remainders_have_high_fp_rate() {
        let f = sqf(14);
        let n = ((1 << 14) as f64 * 0.9) as usize;
        f.insert_batch(&hashed_keys(82, n));
        let probes = hashed_keys(820, 100_000);
        let mut out = vec![false; probes.len()];
        f.query_batch(&probes, &mut out);
        let fp = out.iter().filter(|&&x| x).count() as f64 / 1e5;
        // Table 2: ~1.17% — an order of magnitude above the 0.1% target.
        assert!(fp > 0.004, "5-bit remainders should show ~1% FP, got {fp}");
        assert!(fp < 0.05, "fp out of band: {fp}");
    }

    #[test]
    fn delete_batch_works_but_serially() {
        let f = sqf(13);
        let keys = hashed_keys(83, 2000);
        f.insert_batch(&keys);
        assert_eq!(f.bulk_delete(&keys).unwrap(), 0);
        assert_eq!(f.core().items(), 0);
        f.core().check_invariants();
    }

    #[test]
    fn features_match_table1() {
        let f = sqf(10);
        assert!(f.features().supports(Operation::Insert, ApiMode::Bulk));
        assert!(!f.features().supports(Operation::Insert, ApiMode::Point));
        assert!(!f.features().supports(Operation::Count, ApiMode::Bulk));
        assert!(f.features().supports(Operation::Delete, ApiMode::Bulk));
        assert!(f.features().supports_growth());
    }

    #[test]
    fn quotient_extension_grow_preserves_membership() {
        let mut f = sqf(13);
        let keys = hashed_keys(84, 4000);
        assert_eq!(f.insert_batch(&keys), 0);
        let load_before = f.load();
        f.grow(2).unwrap();
        assert_eq!(f.core().layout().q_bits, 14);
        assert_eq!(f.core().layout().r_bits, 4, "grown geometry leaves the published widths");
        assert!(f.load() < load_before);
        let mut out = vec![false; keys.len()];
        f.query_batch(&keys, &mut out);
        assert!(out.iter().all(|&x| x), "zero false negatives across a grow");
        f.core().check_invariants();
        // r=4 has 2 extensible bits left; a grow past that is refused.
        assert!(f.grow(8).is_err());
        assert!(f.grow(4).is_ok());
    }

    #[test]
    fn merge_unions_two_filters_or_demands_growth() {
        let mut a = sqf(13);
        let b = sqf(13);
        let keys = hashed_keys(85, 5000);
        assert_eq!(a.insert_batch(&keys[..2500]), 0);
        assert_eq!(b.insert_batch(&keys[2500..]), 0);
        a.merge(&b).unwrap();
        let mut out = vec![false; keys.len()];
        a.query_batch(&keys, &mut out);
        assert!(out.iter().all(|&x| x));
        a.core().check_invariants();

        // Near-full merge partners refuse with NeedsGrowth; growing
        // first resolves it.
        let mut c = sqf(12);
        let d = sqf(12);
        let n = ((1usize << 12) as f64 * 0.8) as usize;
        assert_eq!(c.insert_batch(&hashed_keys(86, n)), 0);
        assert_eq!(d.insert_batch(&hashed_keys(87, n)), 0);
        assert!(matches!(c.merge(&d), Err(FilterError::NeedsGrowth { .. })));
        c.grow(2).unwrap();
        c.merge(&d).unwrap();
        assert_eq!(c.core().items(), 2 * n);
    }
}
