//! # gqf — the GPU Counting Quotient Filter
//!
//! The paper's second contribution (§5): a GPU port of the counting
//! quotient filter with all the features data-analytics applications
//! demand — counting, deletion, value association, enumeration, resizing,
//! and merging — at a performance cost relative to the TCF.
//!
//! * [`PointGqf`] — device-side concurrent API guarded by cache-aligned
//!   8192-slot region locks (§5.2);
//! * [`BulkGqf`] — the coordinated lock-free batch API: hash and sort the
//!   batch, then one even-odd apply phase
//!   ([`gpu_sim::Device::launch_even_odd`]) partitions it into regions by
//!   successor search and updates even regions then odd regions (§5.3),
//!   with a map-reduce pre-pass for skewed counts (§5.4). Grow and merge
//!   refill through the same counted apply; the SQF and RSQF baselines
//!   are built on it.
//!
//! ```
//! use gqf::PointGqf;
//! use filter_core::{Filter, Counting};
//!
//! let f = PointGqf::new(10, 8).unwrap();
//! f.insert(42).unwrap();
//! f.insert(42).unwrap();
//! assert!(f.contains(42));
//! assert_eq!(f.count(42), 2);
//! ```

#![forbid(unsafe_code)]

pub mod bits;
pub mod bulk;
pub mod core;
pub mod layout;
pub mod point;
pub mod runs;

pub use bulk::BulkGqf;
pub use core::GqfCore;
pub use layout::{Layout, REGION_SLOTS};
pub use point::PointGqf;

/// Region spinlocks, re-exported from the substrate.
///
/// The GQF needs no locking machinery of its own — and in particular no
/// per-*run* lock table. The point GQF locks at *region* granularity
/// (8192 slots, §5.2): an operation's cluster can span a run boundary and,
/// under shifting, even a region boundary, so any lock finer than the
/// cluster's maximal extent (per-run locks included) could not make an
/// insert's read-shift-write atomic without hierarchical lock ordering
/// across runs. The cache-aligned region locks in
/// [`gpu_sim::locks`] already cover the maximal cluster span (see
/// [`PointGqf`]'s optimistic span discovery), and the bulk GQF avoids
/// locks entirely via even-odd phasing (§5.3).
pub use gpu_sim::locks::RegionLocks;
