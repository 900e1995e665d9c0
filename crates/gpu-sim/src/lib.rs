//! # gpu-sim
//!
//! A GPU *execution-model* substrate: the primitives the paper's CUDA
//! kernels are written against — warps and cooperative groups, global
//! memory with sub-word atomics, shared-memory staging, coalesced
//! transactions, and kernel launches — implemented on real CPU threads and
//! real atomics, with cache-line-granularity traffic accounting feeding an
//! analytic V100/A100 cost model.
//!
//! Why a substrate instead of CUDA: rust-cuda toolchains are not yet
//! mature enough for warp-cooperative kernels, so this workspace runs the
//! paper's algorithms unchanged against a simulated device. Correctness
//! and concurrency are real (Rayon workers racing through `AtomicU64`
//! words); device performance is modeled from the transaction counts the
//! kernels actually generate.
//!
//! ```
//! use gpu_sim::{Device, GpuBuffer};
//!
//! let dev = Device::cori();
//! let table = GpuBuffer::new(1 << 16, 16);
//! let stats = dev.launch_point(1 << 16, 4, |i| {
//!     let _ = table.cas(i, 0, (i as u64 % 65_535) + 1);
//! });
//! let modeled = gpu_sim::cost::estimate(&stats, dev.profile(), table.bytes() as u64);
//! assert!(modeled.throughput > 0.0);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod cost;
pub mod exec;
pub mod locks;
pub mod memory;
pub mod metrics;
pub mod profile;
pub mod shadow;
pub mod sort;
pub mod warp;

pub use exec::{Device, KernelStats};
pub use memory::{GpuBuffer, LiveSpan, SpanView, CACHE_LINE_BYTES, WORDS_PER_LINE};
pub use metrics::{Counter, Counters};
pub use profile::DeviceProfile;
pub use warp::{Cg, WARP_SIZE};
