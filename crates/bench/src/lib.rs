//! # bench — the paper's evaluation harness
//!
//! One binary per table/figure regenerates the corresponding result (see
//! DESIGN.md §4 for the experiment index):
//!
//! | target | reproduces |
//! |---|---|
//! | `fig3_point`     | Fig. 3 point-API throughput (Cori + Perlmutter) |
//! | `fig4_bulk`      | Fig. 4 bulk-API throughput |
//! | `fig5_cg_sweep`  | Fig. 5 cooperative-group sweep |
//! | `fig6_deletes`   | Fig. 6 deletion throughput |
//! | `table1_features`| Table 1 API matrix |
//! | `table2_fp_bpi`  | Table 2 FP rate / bits per item |
//! | `table3_mhm`     | Table 3 MetaHipMer memory |
//! | `table4_cpu_gpu` | Table 4 CPU vs GPU |
//! | `table5_counting`| Table 5 GQF counting throughput |
//! | `ablations`      | §4.1/§6.8 design-choice ablations |
//! | `service_throughput` | serving-layer point-vs-bulk comparison |
//! | `fig_net`        | network tier: tail latency vs offered load |
//!
//! Every binary measures through the [`harness`]: `warmup + repeats`
//! executions per row, median/p10/p90 wall statistics (the same
//! aggregation the vendored criterion shim reports for the substrate
//! micro-benchmark in `benches/`), plus
//! the device cost model's **modeled** throughput — the numbers comparable
//! to the paper's figures. Each figure's rows land in
//! `experiments/BENCH_<figure>.json` on the schema described in this
//! crate's README; binaries accept `--sizes a,b,c` (log2 slot counts),
//! `--repeats N`, and `--smoke` (CI-scale: small n, 1 repeat).

#![forbid(unsafe_code)]

pub mod harness;
pub mod json;

pub use harness::{
    measure_bulk, measure_point, measure_wall, parse_args, parse_args_with, parse_threads, stats,
    write_report, BenchArgs, Measurement, Probe, SampleStats, Trajectory,
};
pub use json::Json;
