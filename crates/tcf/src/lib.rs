//! # tcf — the Two-Choice Filter
//!
//! The paper's first contribution (§4): fingerprints in cache-line-sized
//! blocks, power-of-two-choice placement, cooperative-group block
//! operations (Algorithm 1), a shortcut optimization for lightly loaded
//! primary blocks, and a 1/100-size double-hashing backing table that
//! lifts the achievable load factor to 90%.
//!
//! Two variants:
//! * [`PointTcf`] — device-side concurrent insert/query/delete plus value
//!   association;
//! * [`BulkTcf`] — host-side batched kernels with sorted blocks,
//!   binary-search queries, and coalesced write-back (§4.2).
//!
//! ```
//! use tcf::PointTcf;
//! use filter_core::{Filter, Deletable};
//!
//! let f = PointTcf::new(1 << 10).unwrap();
//! f.insert(12345).unwrap();
//! assert!(f.contains(12345));
//! f.remove(12345).unwrap();
//! assert!(!f.contains(12345));
//! ```

#![forbid(unsafe_code)]

pub mod backing;
pub mod block;
pub mod bulk;
pub mod config;
pub mod point;

pub use backing::BackingTable;
pub use bulk::BulkTcf;
pub use config::TcfConfig;
pub use point::PointTcf;
