//! # workloads — every dataset the paper's evaluation draws from
//!
//! * hashed-XORWOW 64-bit key streams (the microbenchmark input, §6);
//! * the three counting distributions of Table 5 — uniform-random,
//!   uniform-random counts in `1..=100`, and Zipfian counts with
//!   coefficient 1.5 over a universe the size of the dataset;
//! * synthetic genomics: FASTQ-like reads with a sequencing-error model
//!   and k-mer extraction, standing in for the *M. balbisiana* Squeakr
//!   dataset and the MetaHipMer metagenomes: the substitution keeps the
//!   two properties that drive the filters, a skewed k-mer multiplicity
//!   distribution and a tunable singleton fraction (see [`genomics`]);
//! * graph edge streams (power-law and uniform) for the even-odd
//!   dynamic-graph store of §1's generalization claim;
//! * open-loop Poisson arrival schedules with burst episodes and a Zipf
//!   key-popularity sampler, for the network serving tier's
//!   latency-vs-offered-load benchmarks.

#![forbid(unsafe_code)]

pub mod arrivals;
pub mod counting;
pub mod genomics;
pub mod graph;

pub use arrivals::{open_loop_arrivals, BurstProfile, ZipfSampler};
pub use counting::{ur_count_dataset, ur_dataset, zipfian_count_dataset, CountDataset};
pub use filter_core::hashed_keys;
pub use genomics::{extract_kmers, kmer_dataset, synthetic_reads, GenomeProfile};
pub use graph::{powerlaw_edges, uniform_edges, EdgeStream};
