//! # eo-ht — the even-odd scheme beyond filters
//!
//! The paper's §1 claims its even-odd phased bulk-insertion scheme "can
//! also be applied to other linear-probing-based hash tables to accelerate
//! insertions and also for storing dynamic graphs on GPUs". This crate
//! makes that claim concrete:
//!
//! * [`EoHashTable`] — an *exact* (not approximate) open-addressing
//!   linear-probing key→value table on the `gpu-sim` substrate, with a
//!   concurrent point API and a lock-free bulk API that partitions the
//!   table into 8192-slot regions and updates even regions then odd
//!   regions through the same substrate primitive as the GQF's §5.3
//!   scheme ([`gpu_sim::Device::launch_even_odd`]);
//! * [`EoHashTable::bulk_upsert_locked`] — the locking bulk baseline the
//!   ablation benchmarks compare against (per-insert region locks, the
//!   point-GQF strategy);
//! * [`graph::DynamicGraph`] — a dynamic-graph edge store built on the
//!   table: edge-set membership, degree counting, and batched edge
//!   ingestion through the even-odd path.
//!
//! ```
//! use eo_ht::EoHashTable;
//!
//! let t = EoHashTable::new(1 << 13).unwrap();
//! assert_eq!(t.upsert(42, 7).unwrap(), None);
//! assert_eq!(t.get(42), Some(7));
//! assert_eq!(t.upsert(42, 8).unwrap(), Some(7));
//! let pairs: Vec<(u64, u64)> = (1..1000u64).map(|k| (k, k * 2)).collect();
//! assert_eq!(t.bulk_upsert(&pairs), 0);
//! assert_eq!(t.get(500), Some(1000));
//! ```

#![forbid(unsafe_code)]

pub mod graph;
pub mod table;

pub use graph::DynamicGraph;
pub use table::{EoHashTable, REGION_SLOTS};
