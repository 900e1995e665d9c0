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
//! Like the [`Sqf`](crate::Sqf), the filter is a [`BulkGqf`] in a
//! published configuration: grow and merge are the GQF's, while the
//! single-thread inserts and the unsorted parallel queries are its own.
//! The occupied/runend metadata scans live in [`GqfCore`]: they run
//! word-at-a-time (`count_ones` rank, `trailing_zeros` select) via the
//! walks in `gqf::bits`, so the RSQF gets its rank-select lookups without
//! any code of its own. At 13-bit remainders its slot stores are owner
//! stores; at 5 bits a remainder word spans two regions and each store is
//! a CAS.

use filter_core::{
    ApiMode, BulkFilter, Features, FilterError, FilterMeta, FilterSpec, InsertOutcome,
    MaintainableFilter, Operation,
};
use gpu_sim::Device;
use gqf::{BulkGqf, GqfCore};
use std::sync::atomic::{AtomicBool, Ordering};

/// Geil et al.'s GPU rank-select quotient filter.
pub struct Rsqf {
    gqf: BulkGqf,
}

impl Rsqf {
    /// Build an RSQF (same width/size limits as the SQF).
    pub fn new(q_bits: u32, r_bits: u32, device: Device) -> Result<Self, FilterError> {
        Ok(Rsqf { gqf: crate::sqf::published_gqf(q_bits, r_bits, device, "RSQF")? })
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
        self.gqf.core()
    }

    /// The unoptimized insert path, with per-key outcomes: the whole
    /// batch on one device thread; `out[i]` answers `keys[i]`.
    pub fn insert_batch_report(&self, keys: &[u64], out: &mut [InsertOutcome]) {
        assert_eq!(keys.len(), out.len());
        out.fill(InsertOutcome::Inserted);
        let core = self.gqf.core();
        let l = *core.layout();
        let failed: Vec<AtomicBool> = (0..keys.len()).map(|_| AtomicBool::new(false)).collect();
        let failed_ref = &failed;
        self.gqf.device().launch_regions(1, |_| {
            for (i, &k) in keys.iter().enumerate() {
                let (q, r) = l.split(filter_core::hash64(k));
                if core.upsert(q, r, 1).is_err() {
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
        let core = self.gqf.core();
        let l = *core.layout();
        let results: Vec<AtomicBool> = (0..keys.len()).map(|_| AtomicBool::new(false)).collect();
        let results_ref = &results;
        self.gqf.device().launch_point(keys.len(), 1, |i| {
            let (q, r) = l.split(filter_core::hash64(keys[i]));
            results_ref[i].store(core.query(q, r) > 0, Ordering::Relaxed);
        });
        for (o, r) in out.iter_mut().zip(results) {
            *o = r.into_inner();
        }
    }
}

/// The GQF's quotient-bit-extension grow and counted merge.
impl MaintainableFilter for Rsqf {
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
        self.gqf.table_bytes()
    }

    fn capacity_slots(&self) -> u64 {
        self.gqf.capacity_slots()
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

    fn bulk_query(&self, keys: &[u64], out: &mut [bool]) {
        self.query_batch(keys, out)
    }
}

impl filter_core::DynFilter for Rsqf {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.gqf.core().items())
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
        assert_eq!(f.bulk_insert(&keys).unwrap(), 0);
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
        let mut f = Rsqf::new(13, 5, Device::cori()).unwrap();
        let keys = hashed_keys(92, 4000);
        assert_eq!(f.bulk_insert(&keys).unwrap(), 0);
        f.grow(2).unwrap();
        assert_eq!(f.core().layout().q_bits, 14);
        let mut out = vec![false; keys.len()];
        f.query_batch(&keys, &mut out);
        assert!(out.iter().all(|&x| x));

        let mut other = Rsqf::new(13, 5, Device::cori()).unwrap();
        let more = hashed_keys(93, 2000);
        assert_eq!(other.bulk_insert(&more).unwrap(), 0);
        other.grow(2).unwrap();
        f.merge(&other).unwrap();
        let mut out = vec![false; more.len()];
        f.query_batch(&more, &mut out);
        assert!(out.iter().all(|&x| x));
        f.core().check_invariants();
    }
}
