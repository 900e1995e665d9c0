//! Geil et al.'s rank-select quotient filter (RSQF) baseline (§6).
//!
//! The RSQF's published behaviour, reproduced: very fast bulk queries
//! (its rank-select metadata makes lookups a couple of cache probes), but
//! *no deletes*, no counting, the same ≤2^26 sizing cap as the SQF — and
//! catastrophically slow inserts, because "an optimized function for
//! inserts is not provided by the authors" (§6.2): the available insert
//! path processes the batch serially, topping out around 8 M/s, three
//! orders of magnitude behind the other filters in Fig. 4.
//!
//! The occupied/runend metadata scans live in [`GqfCore`], which this
//! baseline shares with the GQF/SQF: they run word-at-a-time
//! (`count_ones` rank, `trailing_zeros` select) via the walks in
//! `gqf::bits`, so the RSQF gets its rank-select lookups without any code
//! of its own. At 13-bit remainders its slot stores are owner stores; at
//! 5 bits a remainder word spans two regions and each store is a CAS.

use filter_core::{
    ApiMode, BulkFilter, Features, FilterError, FilterMeta, FilterSpec, InsertOutcome, Operation,
};
use gpu_sim::Device;
use gqf::{GqfCore, Layout};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Geil et al.'s GPU rank-select quotient filter.
pub struct Rsqf {
    core: GqfCore,
    device: Device,
}

impl Rsqf {
    /// Build an RSQF (same width/size limits as the SQF).
    pub fn new(q_bits: u32, r_bits: u32, device: Device) -> Result<Self, FilterError> {
        if !crate::sqf::SUPPORTED_R_BITS.contains(&r_bits) {
            return Err(FilterError::BadConfig(format!(
                "RSQF supports only 5- or 13-bit remainders, got {r_bits}"
            )));
        }
        let q_cap = if r_bits == 5 { 26 } else { 18 };
        if q_bits > q_cap {
            return Err(FilterError::CapacityExceeded {
                requested: 1u64 << q_bits,
                maximum: 1u64 << q_cap,
            });
        }
        Ok(Rsqf { core: GqfCore::new(Layout::new(q_bits, r_bits)?), device })
    }

    /// Build from a declarative [`FilterSpec`], with the same published
    /// configuration limits and remainder choice as the
    /// [`Sqf`](crate::Sqf). Deletes, counting, and values are refused
    /// (Table 1: bulk insert + query only).
    pub fn from_spec(spec: &FilterSpec) -> Result<Self, FilterError> {
        spec.validate()?;
        if spec.counting {
            return FilterError::unsupported("RSQF counting");
        }
        if spec.value_bits > 0 {
            return FilterError::unsupported("RSQF value association");
        }
        let (q_bits, r_bits) = crate::sqf::quotient_geometry(spec, "RSQF")?;
        let device =
            Device::for_model_name(spec.device.name()).with_workers(spec.parallelism.workers());
        Self::new(q_bits, r_bits, device)
    }

    /// Shared core.
    pub fn core(&self) -> &GqfCore {
        &self.core
    }

    /// The unoptimized insert path: the whole batch on one device thread.
    pub fn insert_batch(&self, keys: &[u64]) -> usize {
        let l = *self.core.layout();
        let failures = AtomicUsize::new(0);
        let failures_ref = &failures;
        self.device.launch_regions(1, |_| {
            for &k in keys {
                let (q, r) = l.split(filter_core::hash64(k));
                if self.core.upsert(q, r, 1).is_err() {
                    failures_ref.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        failures.load(Ordering::Relaxed)
    }

    /// The unoptimized insert path with per-key outcomes: `out[i]`
    /// answers `keys[i]`. Still one device thread for the whole batch.
    pub fn insert_batch_report(&self, keys: &[u64], out: &mut [InsertOutcome]) {
        assert_eq!(keys.len(), out.len());
        out.fill(InsertOutcome::Inserted);
        let l = *self.core.layout();
        let failed: Vec<AtomicBool> = (0..keys.len()).map(|_| AtomicBool::new(false)).collect();
        let failed_ref = &failed;
        self.device.launch_regions(1, |_| {
            for (i, &k) in keys.iter().enumerate() {
                let (q, r) = l.split(filter_core::hash64(k));
                if self.core.upsert(q, r, 1).is_err() {
                    failed_ref[i].store(true, Ordering::Relaxed);
                }
            }
        });
        for (o, f) in out.iter_mut().zip(&failed) {
            if f.load(Ordering::Relaxed) {
                *o = InsertOutcome::Failed;
            }
        }
    }

    /// Fast fully-parallel bulk queries (the RSQF's strong suit, §6.2).
    pub fn query_batch(&self, keys: &[u64], out: &mut [bool]) {
        assert_eq!(keys.len(), out.len());
        let l = *self.core.layout();
        let results: Vec<std::sync::atomic::AtomicBool> =
            (0..keys.len()).map(|_| std::sync::atomic::AtomicBool::new(false)).collect();
        let results_ref = &results;
        self.device.launch_point(keys.len(), 1, |i| {
            let (q, r) = l.split(filter_core::hash64(keys[i]));
            results_ref[i].store(self.core.query(q, r) > 0, Ordering::Relaxed);
        });
        for (o, r) in out.iter_mut().zip(results) {
            *o = r.into_inner();
        }
    }
}

impl filter_core::MaintainableFilter for Rsqf {
    fn load(&self) -> f64 {
        self.core.load_factor().clamp(0.0, 1.0)
    }

    fn grow(&mut self, factor: u32) -> Result<(), FilterError> {
        self.core = crate::sqf::grown_core(&self.core, &self.device, factor, "RSQF")?;
        Ok(())
    }

    fn merge(&mut self, other: &Self) -> Result<(), FilterError> {
        self.core = crate::sqf::merged_core(&self.core, &self.device, &other.core)?;
        Ok(())
    }
}

impl FilterMeta for Rsqf {
    fn name(&self) -> &'static str {
        "RSQF"
    }

    fn features(&self) -> Features {
        // Table 1: bulk insert + query only ("RSQF can support deletes but
        // it is not implemented by the authors").
        Features::new("RSQF")
            .with(Operation::Insert, ApiMode::Bulk)
            .with(Operation::Query, ApiMode::Bulk)
            .with_growth()
    }

    fn table_bytes(&self) -> usize {
        self.core.bytes()
    }

    fn capacity_slots(&self) -> u64 {
        self.core.layout().canonical_slots() as u64
    }
}

impl BulkFilter for Rsqf {
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

impl filter_core::DynFilter for Rsqf {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.core.items())
    }

    filter_core::dyn_forward_bulk!();
    filter_core::dyn_forward_maintain!(Rsqf);
}

#[cfg(test)]
mod tests {
    use super::*;
    use filter_core::hashed_keys;

    #[test]
    fn insert_query_roundtrip() {
        let f = Rsqf::new(13, 5, Device::cori()).unwrap();
        let keys = hashed_keys(91, 4000);
        assert_eq!(f.insert_batch(&keys), 0);
        let mut out = vec![false; keys.len()];
        f.query_batch(&keys, &mut out);
        assert!(out.iter().all(|&x| x));
        f.core().check_invariants();
    }

    #[test]
    fn no_deletes_in_feature_matrix() {
        let f = Rsqf::new(10, 5, Device::cori()).unwrap();
        assert!(!f.features().supports(Operation::Delete, ApiMode::Bulk));
        assert!(!f.features().supports(Operation::Delete, ApiMode::Point));
    }

    #[test]
    fn size_caps_enforced() {
        assert!(Rsqf::new(27, 5, Device::cori()).is_err());
        assert!(Rsqf::new(26, 5, Device::cori()).is_ok());
    }

    #[test]
    fn grow_and_merge_preserve_membership() {
        use filter_core::MaintainableFilter;
        let mut f = Rsqf::new(13, 5, Device::cori()).unwrap();
        let keys = hashed_keys(92, 4000);
        assert_eq!(f.insert_batch(&keys), 0);
        f.grow(2).unwrap();
        assert_eq!(f.core().layout().q_bits, 14);
        let mut out = vec![false; keys.len()];
        f.query_batch(&keys, &mut out);
        assert!(out.iter().all(|&x| x));

        let mut other = Rsqf::new(13, 5, Device::cori()).unwrap();
        let more = hashed_keys(93, 2000);
        assert_eq!(other.insert_batch(&more), 0);
        other.grow(2).unwrap();
        f.merge(&other).unwrap();
        let mut out = vec![false; more.len()];
        f.query_batch(&more, &mut out);
        assert!(out.iter().all(|&x| x));
        f.core().check_invariants();
    }
}
