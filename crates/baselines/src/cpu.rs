//! CPU comparison filters for Table 4: the CQF and VQF running on host
//! threads.
//!
//! Table 4 contrasts the same filter *designs* on CPU vs GPU. In this
//! workspace the designs are shared: the CPU CQF is the GQF's quotient-
//! filter core driven by host threads through the same region locks, and
//! the CPU VQF is the two-choice-block design the TCF descends from (§2),
//! driven by host threads. CPU rows of Table 4 are measured by wall
//! clock; GPU rows by the device cost model.

use filter_core::{Counting, Deletable, Filter, FilterError, FilterMeta};
use rayon::prelude::*;
use std::time::Instant;

/// CPU counting quotient filter (the paper's CQF row).
pub struct CpuCqf {
    inner: gqf::PointGqf,
}

impl CpuCqf {
    /// Build with `2^q` slots and `r`-bit remainders.
    pub fn new(q_bits: u32, r_bits: u32) -> Result<Self, FilterError> {
        Ok(CpuCqf { inner: gqf::PointGqf::new(q_bits, r_bits)? })
    }

    /// The underlying filter.
    pub fn filter(&self) -> &(impl Counting + Deletable) {
        &self.inner
    }

    /// Insert a batch from all host threads; returns wall throughput
    /// (items/second).
    pub fn insert_all_threads(&self, keys: &[u64]) -> f64 {
        let start = Instant::now();
        keys.par_iter().for_each(|&k| {
            let _ = self.inner.insert(k);
        });
        keys.len() as f64 / start.elapsed().as_secs_f64()
    }

    /// Query a batch from all host threads; returns (hits, throughput).
    pub fn query_all_threads(&self, keys: &[u64]) -> (usize, f64) {
        let start = Instant::now();
        let hits = keys.par_iter().filter(|&&k| self.inner.contains(k)).count();
        (hits, keys.len() as f64 / start.elapsed().as_secs_f64())
    }
}

impl FilterMeta for CpuCqf {
    fn name(&self) -> &'static str {
        "CQF"
    }
    fn features(&self) -> filter_core::Features {
        self.inner.features()
    }
    fn table_bytes(&self) -> usize {
        self.inner.table_bytes()
    }
    fn capacity_slots(&self) -> u64 {
        self.inner.capacity_slots()
    }
}

/// CPU vector quotient filter (the paper's VQF row): power-of-two-choice
/// blocks, no counting.
pub struct CpuVqf {
    inner: tcf::PointTcf,
}

impl CpuVqf {
    /// Build with at least `capacity` slots.
    pub fn new(capacity: usize) -> Result<Self, FilterError> {
        // The VQF uses larger cache-line blocks than the GPU TCF; 32-slot
        // blocks model its 64-byte-line layout on the host.
        let cfg = tcf::TcfConfig { block_slots: 32, ..Default::default() };
        Ok(CpuVqf { inner: tcf::PointTcf::with_config(capacity, cfg)? })
    }

    /// The underlying filter.
    pub fn filter(&self) -> &impl Deletable {
        &self.inner
    }

    /// Insert a batch from all host threads; returns wall throughput.
    pub fn insert_all_threads(&self, keys: &[u64]) -> f64 {
        let start = Instant::now();
        keys.par_iter().for_each(|&k| {
            let _ = self.inner.insert(k);
        });
        keys.len() as f64 / start.elapsed().as_secs_f64()
    }

    /// Query a batch from all host threads; returns (hits, throughput).
    pub fn query_all_threads(&self, keys: &[u64]) -> (usize, f64) {
        let start = Instant::now();
        let hits = keys.par_iter().filter(|&&k| self.inner.contains(k)).count();
        (hits, keys.len() as f64 / start.elapsed().as_secs_f64())
    }
}

impl FilterMeta for CpuVqf {
    fn name(&self) -> &'static str {
        "VQF"
    }
    fn features(&self) -> filter_core::Features {
        self.inner.features()
    }
    fn table_bytes(&self) -> usize {
        self.inner.table_bytes()
    }
    fn capacity_slots(&self) -> u64 {
        self.inner.capacity_slots()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use filter_core::hashed_keys;

    #[test]
    fn cpu_cqf_parallel_roundtrip() {
        let f = CpuCqf::new(14, 8).unwrap();
        let keys = hashed_keys(111, 10_000);
        let tput = f.insert_all_threads(&keys);
        assert!(tput > 0.0);
        let (hits, _) = f.query_all_threads(&keys);
        assert_eq!(hits, keys.len());
    }

    #[test]
    fn cpu_vqf_parallel_roundtrip() {
        let f = CpuVqf::new(1 << 14).unwrap();
        let keys = hashed_keys(112, 10_000);
        f.insert_all_threads(&keys);
        let (hits, _) = f.query_all_threads(&keys);
        assert_eq!(hits, keys.len());
    }

    #[test]
    fn names_match_table4_rows() {
        assert_eq!(CpuCqf::new(10, 8).unwrap().name(), "CQF");
        assert_eq!(CpuVqf::new(1024).unwrap().name(), "VQF");
    }
}
