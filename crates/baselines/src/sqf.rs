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
//! * deletes run serialized on one device thread in batch order, unsorted
//!   — the two-orders-of-magnitude gap to the GQF's even-odd phased
//!   deletes in Fig. 6.
//!
//! The quotient-filter core is shared with the GQF crate; the SQF's
//! packed-slot storage is modeled by separate remainder/metadata arrays
//! of the same total width (a layout deviation recorded in DESIGN.md —
//! the traffic profile is within one line per operation).

use filter_core::{
    ApiMode, BulkDeletable, BulkFilter, DeleteOutcome, Features, FilterError, FilterMeta,
    FilterSpec, InsertOutcome, Operation,
};
use gpu_sim::Device;
use gqf::{refill_core, GqfCore, Layout, REGION_SLOTS};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

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

/// Grow `core` by quotient-bit extension (q+d, r−d) — the shared SQF/RSQF
/// [`grow`](filter_core::MaintainableFilter::grow) body, migrating
/// through [`gqf::refill_core`] (the same even-odd phased primitive the
/// GQF's own resize uses, so any worker budget grows into the same
/// table). Returns the replacement core; the caller swaps it in on
/// success. Grown geometries leave the published 5/13-bit configuration
/// space (a recorded deviation); the packed-word constraint `q + r < 32`
/// is preserved because `p` never changes.
pub(crate) fn grown_core(
    core: &GqfCore,
    device: &Device,
    factor: u32,
    family: &'static str,
) -> Result<GqfCore, FilterError> {
    let d = filter_core::growth_steps(factor)?;
    let old = *core.layout();
    if old.r_bits < d + 2 {
        return Err(FilterError::BadConfig(format!(
            "{family}: cannot extend quotient by {d} bits with {} remainder bits",
            old.r_bits
        )));
    }
    let bigger = GqfCore::new(Layout::new(old.q_bits + d, old.r_bits - d)?);
    if refill_core(&bigger, device, core)? > 0 {
        return Err(FilterError::Full);
    }
    Ok(bigger)
}

/// Merge `other` into a fresh core with `core`'s layout — the shared
/// SQF/RSQF [`merge`](filter_core::MaintainableFilter::merge) body.
/// Returns the union core; `NeedsGrowth` when it does not fit at the 90%
/// recommended load.
pub(crate) fn merged_core(
    core: &GqfCore,
    device: &Device,
    other: &GqfCore,
) -> Result<GqfCore, FilterError> {
    let layout = *core.layout();
    let union = GqfCore::new(layout);
    for src in [core, other] {
        if refill_core(&union, device, src)? > 0 {
            return Err(FilterError::needs_growth(core.load_factor()));
        }
    }
    if union.load_factor() > 0.9 {
        return Err(FilterError::needs_growth(union.load_factor()));
    }
    Ok(union)
}

/// Geil et al.'s GPU standard quotient filter.
pub struct Sqf {
    core: GqfCore,
    device: Device,
}

impl Sqf {
    /// Build an SQF. `r_bits` must be 5 or 13; `q_bits` is capped at 26
    /// (r=5) or 18 (r=13) as in the reference implementation.
    pub fn new(q_bits: u32, r_bits: u32, device: Device) -> Result<Self, FilterError> {
        if !SUPPORTED_R_BITS.contains(&r_bits) {
            return Err(FilterError::BadConfig(format!(
                "SQF supports only 5- or 13-bit remainders, got {r_bits}"
            )));
        }
        let q_cap = if r_bits == 5 { 26 } else { 18 };
        if q_bits > q_cap {
            return Err(FilterError::CapacityExceeded {
                requested: 1u64 << q_bits,
                maximum: 1u64 << q_cap,
            });
        }
        Ok(Sqf { core: GqfCore::new(Layout::new(q_bits, r_bits)?), device })
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
        &self.core
    }

    /// Current load factor.
    pub fn load_factor(&self) -> f64 {
        self.core.load_factor()
    }

    #[inline]
    fn stored_hash(&self, key: u64) -> u64 {
        let l = self.core.layout();
        let (q, r) = l.split(filter_core::hash64(key));
        l.join(q, r)
    }

    fn region_bounds(&self, sorted: &[u64]) -> Vec<usize> {
        let l = self.core.layout();
        let mut bounds: Vec<usize> = (0..l.n_regions())
            .map(|g| gpu_sim::sort::lower_bound(sorted, ((g * REGION_SLOTS) as u64) << l.r_bits))
            .collect();
        bounds.push(sorted.len());
        bounds
    }

    /// Pair-carrying twin of [`Self::region_bounds`] for the report path.
    fn region_bounds_pairs(&self, sorted: &[(u64, u64)]) -> Vec<usize> {
        let l = self.core.layout();
        let mut bounds: Vec<usize> = (0..l.n_regions())
            .map(|g| sorted.partition_point(|&(h, _)| h < ((g * REGION_SLOTS) as u64) << l.r_bits))
            .collect();
        bounds.push(sorted.len());
        bounds
    }

    /// Bulk build: sort the batch and insert region-by-region in two
    /// phases (the segmented parallel build of the reference
    /// implementation, expressed with the same region machinery as the
    /// GQF).
    pub fn insert_batch(&self, keys: &[u64]) -> usize {
        let mut hashes: Vec<u64> = keys.iter().map(|&k| self.stored_hash(k)).collect();
        self.device.sort_u64(&mut hashes);
        let bounds = self.region_bounds(&hashes);
        let l = *self.core.layout();
        let failures = AtomicUsize::new(0);
        let hashes_ref = &hashes;
        let failures_ref = &failures;
        self.phased(&bounds, |range| {
            for &h in &hashes_ref[range] {
                let (q, r) = l.split(h);
                if self.core.upsert(q, r, 1).is_err() {
                    failures_ref.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        failures.load(Ordering::Relaxed)
    }

    /// Run `per_region` over every non-empty region's batch range in two
    /// phases (even regions then odd) — the segmented parallel build
    /// shared by the aggregate and report insert paths.
    fn phased(&self, bounds: &[usize], per_region: impl Fn(std::ops::Range<usize>) + Sync) {
        let n_regions = bounds.len() - 1;
        for parity in 0..2usize {
            let regions: Vec<usize> =
                (0..n_regions).filter(|&g| g % 2 == parity && bounds[g] < bounds[g + 1]).collect();
            if regions.is_empty() {
                continue;
            }
            let regions_ref = &regions;
            self.device.launch_regions(regions.len(), |i| {
                let g = regions_ref[i];
                per_region(bounds[g]..bounds[g + 1]);
            });
        }
    }

    /// Bulk build with per-key outcomes: `out[i]` answers `keys[i]`. Same
    /// segmented two-phase flow as [`Self::insert_batch`], with batch
    /// indices riding through the sort.
    pub fn insert_batch_report(&self, keys: &[u64], out: &mut [InsertOutcome]) {
        assert_eq!(keys.len(), out.len());
        out.fill(InsertOutcome::Inserted);
        let mut hashed: Vec<(u64, u64)> =
            keys.iter().enumerate().map(|(i, &k)| (self.stored_hash(k), i as u64)).collect();
        self.device.sort_pairs(&mut hashed);
        let bounds = self.region_bounds_pairs(&hashed);
        let l = *self.core.layout();
        let failed: Vec<AtomicBool> = (0..keys.len()).map(|_| AtomicBool::new(false)).collect();
        let hashed_ref = &hashed;
        let failed_ref = &failed;
        self.phased(&bounds, |range| {
            for &(h, idx) in &hashed_ref[range] {
                let (q, r) = l.split(h);
                if self.core.upsert(q, r, 1).is_err() {
                    failed_ref[idx as usize].store(true, Ordering::Relaxed);
                }
            }
        });
        for (o, f) in out.iter_mut().zip(&failed) {
            if f.load(Ordering::Relaxed) {
                *o = InsertOutcome::Failed;
            }
        }
    }

    /// Bulk query using the reference implementation's *sorted* lookup
    /// strategy: the batch is sorted first (extra preprocessing the paper
    /// blames for the SQF's lower query throughput, §6.2).
    pub fn query_batch(&self, keys: &[u64], out: &mut [bool]) {
        assert_eq!(keys.len(), out.len());
        let mut order: Vec<(u64, u64)> =
            keys.iter().enumerate().map(|(i, &k)| (self.stored_hash(k), i as u64)).collect();
        self.device.sort_pairs(&mut order);
        let l = *self.core.layout();
        let results: Vec<std::sync::atomic::AtomicBool> =
            (0..keys.len()).map(|_| std::sync::atomic::AtomicBool::new(false)).collect();
        let order_ref = &order;
        let results_ref = &results;
        self.device.launch_point(order.len(), 1, |i| {
            let (h, idx) = order_ref[i];
            let (q, r) = l.split(h);
            results_ref[idx as usize].store(self.core.query(q, r) > 0, Ordering::Relaxed);
        });
        for (o, r) in out.iter_mut().zip(results) {
            *o = r.into_inner();
        }
    }

    /// Bulk delete — one device thread deletes every item in batch order,
    /// unsorted. That serialization, not the per-item delete (the GQF
    /// core's local left slide), is the SQF's Fig. 6 deletion collapse.
    pub fn delete_batch(&self, keys: &[u64]) -> usize {
        let l = *self.core.layout();
        let missing = AtomicUsize::new(0);
        let missing_ref = &missing;
        // One device thread owns the whole delete batch.
        self.device.launch_regions(1, |_| {
            for &k in keys {
                let (q, r) = l.split(filter_core::hash64(k));
                if !matches!(self.core.delete(q, r, 1), Ok(true)) {
                    missing_ref.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        missing.load(Ordering::Relaxed)
    }

    /// Bulk delete with per-key outcomes: `out[i]` answers `keys[i]`.
    /// Serialized like [`Self::delete_batch`] — the Fig. 6 collapse — but
    /// attributable.
    pub fn delete_batch_report(&self, keys: &[u64], out: &mut [DeleteOutcome]) {
        assert_eq!(keys.len(), out.len());
        let l = *self.core.layout();
        let removed: Vec<AtomicBool> = (0..keys.len()).map(|_| AtomicBool::new(false)).collect();
        let removed_ref = &removed;
        self.device.launch_regions(1, |_| {
            for (i, &k) in keys.iter().enumerate() {
                let (q, r) = l.split(filter_core::hash64(k));
                if matches!(self.core.delete(q, r, 1), Ok(true)) {
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

impl filter_core::MaintainableFilter for Sqf {
    fn load(&self) -> f64 {
        self.core.load_factor().clamp(0.0, 1.0)
    }

    fn grow(&mut self, factor: u32) -> Result<(), FilterError> {
        self.core = grown_core(&self.core, &self.device, factor, "SQF")?;
        Ok(())
    }

    fn merge(&mut self, other: &Self) -> Result<(), FilterError> {
        self.core = merged_core(&self.core, &self.device, &other.core)?;
        Ok(())
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
        self.core.bytes()
    }

    fn capacity_slots(&self) -> u64 {
        self.core.layout().canonical_slots() as u64
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

    fn bulk_delete(&self, keys: &[u64]) -> Result<usize, FilterError> {
        Ok(self.delete_batch(keys))
    }
}

impl filter_core::DynFilter for Sqf {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.core.items())
    }

    filter_core::dyn_forward_bulk!();
    filter_core::dyn_forward_bulk_delete!();
    filter_core::dyn_forward_maintain!(Sqf);
}

#[cfg(test)]
mod tests {
    use super::*;
    use filter_core::{hashed_keys, MaintainableFilter};

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
        assert_eq!(f.delete_batch(&keys), 0);
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
