//! # mhm-sim — the MetaHipMer k-mer analysis phase (§6.5, Table 3)
//!
//! MetaHipMer's k-mer counting is its most memory-hungry phase: singleton
//! k-mers (mostly sequencing errors) can take up to 70% of the memory if
//! every k-mer gets a hash-table entry. The paper integrates the TCF as a
//! pre-filter: the *first* sighting of a k-mer goes into the TCF; only on
//! a second sighting is the k-mer promoted to the exact counting hash
//! table. Singletons never reach the table, cutting application memory by
//! ~38% on the Western Arctic (WA) dataset.
//!
//! This crate reproduces that pipeline against synthetic metagenomes
//! (real WA/Rhizo reads are not redistributable) and
//! reports the same three memory columns as Table 3, both raw and scaled
//! to the paper's aggregate node counts.

#![forbid(unsafe_code)]

use filter_core::{Deletable, Filter, FilterMeta};
use std::collections::HashMap;
use tcf::{PointTcf, TcfConfig};
use workloads::{extract_kmers, synthetic_reads, GenomeProfile};

/// Bytes per exact hash-table entry: 8-byte k-mer + 4-byte count + open
/// addressing at 70% load — the accounting MetaHipMer's own reports use.
pub const HT_ENTRY_BYTES: f64 = 12.0 / 0.7;

/// Memory report for one k-mer analysis run (one Table 3 row).
#[derive(Debug, Clone)]
pub struct MemoryReport {
    /// Method label ("TCF" or "No TCF").
    pub method: &'static str,
    /// Dataset label.
    pub dataset: &'static str,
    /// TCF bytes (0 when the TCF is disabled).
    pub tcf_bytes: usize,
    /// Exact hash-table bytes.
    pub ht_bytes: usize,
    /// Distinct k-mers seen.
    pub distinct: usize,
    /// Distinct k-mers that were singletons.
    pub singletons: usize,
    /// Exact per-k-mer counts kept by the pipeline (non-singletons only
    /// when the TCF is enabled).
    pub ht_entries: usize,
}

impl MemoryReport {
    /// Total bytes (TCF + hash table).
    pub fn total_bytes(&self) -> usize {
        self.tcf_bytes + self.ht_bytes
    }

    /// Fraction of distinct k-mers that are singletons.
    pub fn singleton_fraction(&self) -> f64 {
        self.singletons as f64 / self.distinct.max(1) as f64
    }

    /// Scale this run's bytes to a paper-sized aggregate: multiply by
    /// `target_distinct / distinct` (memory is linear in distinct k-mers).
    pub fn scaled_total_gb(&self, target_distinct: f64) -> f64 {
        let scale = target_distinct / self.distinct.max(1) as f64;
        self.total_bytes() as f64 * scale / 1e9
    }
}

/// How the exact k-mer counts are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExactStore {
    /// Host `HashMap` with MetaHipMer's per-entry byte *accounting*
    /// ([`HT_ENTRY_BYTES`]) — the fast mode for scaled Table 3 columns.
    Accounted,
    /// A real [`eo_ht::EoHashTable`] on the GPU substrate: the "HT mem"
    /// column measured from an actual structure (16-byte slots at the
    /// sized load factor), and counts maintained by `fetch_add`.
    EoHashTable,
}

/// The k-mer analysis phase.
pub struct KmerAnalysis {
    /// k-mer length (MetaHipMer's first round uses k=21).
    pub k: usize,
    /// Route first sightings through a TCF (the paper's integration) or
    /// count every k-mer in the hash table directly.
    pub use_tcf: bool,
    /// Backing store for exact counts.
    pub store: ExactStore,
}

impl KmerAnalysis {
    /// Run the phase over `reads`, returning the memory report.
    ///
    /// With the TCF enabled, the pipeline is exactly MetaHipMer's: query
    /// the TCF; on miss, insert into the TCF (first sighting); on hit,
    /// promote to the hash table with count 2 and delete from the TCF
    /// (slot reuse), counting subsequent sightings exactly.
    pub fn run(&self, reads: &[Vec<u8>], dataset: &'static str) -> MemoryReport {
        let kmers = extract_kmers(reads, self.k);

        // Ground truth for singleton accounting.
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &km in &kmers {
            *truth.entry(km).or_default() += 1;
        }
        let distinct = truth.len();
        let singletons = truth.values().filter(|&&c| c == 1).count();

        // Size the exact table for what will actually reach it: every
        // distinct k-mer without the TCF, only the non-singletons with it
        // (MetaHipMer provisions its table the same way — the whole point
        // of the integration is the smaller table).
        let ht_hint = if self.use_tcf { (distinct - singletons).max(1) } else { distinct };
        let mut ht = CountStore::new(self.store, ht_hint);
        if !self.use_tcf {
            for &km in &kmers {
                ht.add(km, 1);
            }
            return MemoryReport {
                method: "No TCF",
                dataset,
                tcf_bytes: 0,
                ht_bytes: ht.bytes(),
                distinct,
                singletons,
                ht_entries: ht.len(),
            };
        }

        // TCF sized for the distinct k-mers at its 90% load target.
        let capacity = ((distinct as f64) / 0.9).ceil() as usize;
        let tcf = PointTcf::with_config(capacity.max(1024), TcfConfig::default())
            .expect("TCF construction");
        for &km in &kmers {
            if ht.contains(km) {
                ht.add(km, 1);
            } else if tcf.contains(km) {
                // Second sighting: promote to the exact table.
                ht.add(km, 2);
                let _ = tcf.remove(km);
            } else {
                let _ = tcf.insert(km);
            }
        }
        MemoryReport {
            method: "TCF",
            dataset,
            tcf_bytes: tcf.table_bytes(),
            ht_bytes: ht.bytes(),
            distinct,
            singletons,
            ht_entries: ht.len(),
        }
    }
}

/// The exact counting table behind the pipeline: either accounted bytes
/// over a host map, or a real even-odd hash table on the substrate.
/// (One store exists per pipeline, so the size skew between arms is moot.)
#[allow(clippy::large_enum_variant)]
enum CountStore {
    Accounted(HashMap<u64, u64>),
    Table(eo_ht::EoHashTable),
}

impl CountStore {
    fn new(kind: ExactStore, distinct_hint: usize) -> Self {
        match kind {
            ExactStore::Accounted => CountStore::Accounted(HashMap::new()),
            ExactStore::EoHashTable => {
                // Sized like MetaHipMer's table: distinct k-mers at 70% load.
                let capacity = ((distinct_hint as f64) / 0.7).ceil() as usize;
                CountStore::Table(
                    eo_ht::EoHashTable::new(capacity.max(1024)).expect("table construction"),
                )
            }
        }
    }

    /// Packed k-mers can be zero (poly-A); offset past the reserved key.
    #[inline]
    fn key(km: u64) -> u64 {
        km.wrapping_add(1)
    }

    fn contains(&self, km: u64) -> bool {
        match self {
            CountStore::Accounted(m) => m.contains_key(&km),
            CountStore::Table(t) => t.get(Self::key(km)).is_some(),
        }
    }

    fn add(&mut self, km: u64, delta: u64) {
        match self {
            CountStore::Accounted(m) => *m.entry(km).or_default() += delta,
            CountStore::Table(t) => {
                t.fetch_add(Self::key(km), delta).expect("count table overflow");
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            CountStore::Accounted(m) => m.len(),
            CountStore::Table(t) => t.len(),
        }
    }

    fn bytes(&self) -> usize {
        match self {
            CountStore::Accounted(m) => (m.len() as f64 * HT_ENTRY_BYTES) as usize,
            CountStore::Table(t) => t.bytes(),
        }
    }
}

/// Run the Table 3 comparison (TCF vs No TCF) for one dataset profile
/// using the accounted store (the scaled-GB columns).
pub fn table3_rows(profile: &GenomeProfile, k: usize, seed: u64) -> (MemoryReport, MemoryReport) {
    table3_rows_with(profile, k, seed, ExactStore::Accounted)
}

/// Run the Table 3 comparison with a chosen exact-count store. With
/// [`ExactStore::EoHashTable`] the "HT mem" column is the measured byte
/// footprint of a real even-odd hash table holding the counts.
pub fn table3_rows_with(
    profile: &GenomeProfile,
    k: usize,
    seed: u64,
    store: ExactStore,
) -> (MemoryReport, MemoryReport) {
    let reads = synthetic_reads(profile, seed);
    let with = KmerAnalysis { k, use_tcf: true, store }.run(&reads, profile.label);
    let without = KmerAnalysis { k, use_tcf: false, store }.run(&reads, profile.label);
    (with, without)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wa_small() -> GenomeProfile {
        GenomeProfile::metagenome_wa(30_000)
    }

    #[test]
    fn tcf_pipeline_counts_non_singletons_exactly() {
        let reads = synthetic_reads(&wa_small(), 1);
        let analysis = KmerAnalysis { k: 21, use_tcf: true, store: ExactStore::Accounted };
        let report = analysis.run(&reads, "test");
        // Promoted entries = distinct − singletons, modulo the rare TCF
        // false positive that promotes a singleton early.
        let expected = report.distinct - report.singletons;
        let got = report.ht_entries;
        let drift = (got as f64 - expected as f64).abs() / expected.max(1) as f64;
        assert!(drift < 0.02, "promotions {got} vs non-singletons {expected}");
    }

    #[test]
    fn tcf_cuts_total_memory() {
        let (with, without) = table3_rows(&wa_small(), 21, 2);
        assert!(with.singleton_fraction() > 0.3, "WA-like needs singletons");
        assert!(
            with.total_bytes() < without.total_bytes(),
            "TCF run must use less memory: {} vs {}",
            with.total_bytes(),
            without.total_bytes()
        );
        // The hash table itself shrinks by at least the singleton share.
        assert!(
            with.ht_bytes as f64 <= without.ht_bytes as f64 * (1.05 - with.singleton_fraction())
        );
    }

    #[test]
    fn rhizo_profile_saves_more_than_wa() {
        let (wa_with, wa_without) = table3_rows(&GenomeProfile::metagenome_wa(30_000), 21, 3);
        let (rh_with, rh_without) = table3_rows(&GenomeProfile::metagenome_rhizo(30_000), 21, 3);
        let wa_ratio = wa_with.total_bytes() as f64 / wa_without.total_bytes() as f64;
        let rh_ratio = rh_with.total_bytes() as f64 / rh_without.total_bytes() as f64;
        // Table 3: Rhizo's reduction (146/790) is deeper than WA's (607/1742).
        assert!(
            rh_ratio < wa_ratio,
            "higher singleton fraction ⇒ deeper reduction (wa {wa_ratio:.2}, rhizo {rh_ratio:.2})"
        );
    }

    #[test]
    fn eoht_store_counts_match_accounted_store() {
        let reads = synthetic_reads(&wa_small(), 6);
        let acc =
            KmerAnalysis { k: 21, use_tcf: true, store: ExactStore::Accounted }.run(&reads, "test");
        let real = KmerAnalysis { k: 21, use_tcf: true, store: ExactStore::EoHashTable }
            .run(&reads, "test");
        assert_eq!(acc.ht_entries, real.ht_entries, "same promotions in both stores");
        assert_eq!(acc.distinct, real.distinct);
        assert!(real.ht_bytes > 0);
    }

    #[test]
    fn eoht_store_preserves_the_memory_cut() {
        let (with, without) = table3_rows_with(&wa_small(), 21, 7, ExactStore::EoHashTable);
        assert!(
            with.total_bytes() < without.total_bytes(),
            "real-table run must still show the Table 3 saving: {} vs {}",
            with.total_bytes(),
            without.total_bytes()
        );
        // The real table is sized for non-singletons only, so its
        // footprint tracks the promoted-entry count.
        assert!(with.ht_bytes < without.ht_bytes);
    }

    #[test]
    fn no_tcf_row_has_zero_tcf_bytes() {
        let reads = synthetic_reads(&wa_small(), 4);
        let report = KmerAnalysis { k: 21, use_tcf: false, store: ExactStore::Accounted }
            .run(&reads, "test");
        assert_eq!(report.tcf_bytes, 0);
        assert_eq!(report.ht_entries, report.distinct);
    }

    #[test]
    fn scaling_is_linear() {
        let reads = synthetic_reads(&wa_small(), 5);
        let report = KmerAnalysis { k: 21, use_tcf: false, store: ExactStore::Accounted }
            .run(&reads, "test");
        let gb = report.scaled_total_gb(report.distinct as f64 * 10.0);
        assert!((gb - report.total_bytes() as f64 * 10.0 / 1e9).abs() < 1e-9);
    }
}
