//! The repository's benchmark: one command runs workload `bulk`,
//! `service` or `wire` from a seed, checks every answer, and prints every
//! metric by name and unit, then one JSON result line.
//!
//! ```text
//! perfbench --workload <bulk|service|wire> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` records spans
//! around the calls into each layer, writes them under `perfbench/out/`,
//! and prints the per-layer metrics. See `perfbench/README.md`.

mod bulk;
mod gen;
mod host;
mod report;
mod service;
mod stats;
mod timed;
mod trace;
mod wire;
mod wire_load;

use std::path::PathBuf;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {}", args.seconds));
    }
    Ok(args)
}

/// A run is correct while at most one operation in this many failed.
/// Known filter faults stay far below it (the TCF answers about 2 live
/// keys per million absent under churn); a broken filter or server does
/// not.
const MAX_FAILED_PER: u64 = 10_000;

/// The workloads of `BENCHMARK.json`: each prints exactly the manifest's
/// metrics. `service` is run by hand and prints its own.
const MANIFEST_WORKLOADS: [&str; 2] = ["bulk", "wire"];

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// A workload's set-up cost: the median over [`SETUPS`] set-ups.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// Process CPU seconds (time the hypervisor stole is not charged).
    pub cpu_s: f64,
    pub wall_s: f64,
}

impl Setup {
    /// Report `setup_s` (on untraced runs) and the wall-clock context.
    pub fn report(&self, r: &mut report::Report, untraced: bool) {
        r.line(format!(
            "set-up: median of {SETUPS}: {:.3} s CPU, {:.3} s wall",
            self.cpu_s, self.wall_s
        ));
        if untraced {
            r.metric("setup_s", self.cpu_s, "s", format!("process CPU, median of {SETUPS}"));
        }
    }
}

/// Run a workload's set-up [`SETUPS`] times, dropping each result but
/// the last, and return the last with its median cost.
pub fn setup_repeated<S>(
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, Setup), String> {
    let mut cpu = Vec::with_capacity(SETUPS);
    let mut wall = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let (start, cpu0) = (std::time::Instant::now(), host::process_cpu_s());
        last = Some(setup()?);
        cpu.push(host::process_cpu_s() - cpu0);
        wall.push(start.elapsed().as_secs_f64());
    }
    let cost = Setup { cpu_s: stats::median(&cpu), wall_s: stats::median(&wall) };
    Ok((last.expect("SETUPS >= 1"), cost))
}

/// Where a traced run writes its spans.
pub fn trace_path(args: &Args) -> PathBuf {
    PathBuf::from(format!("perfbench/out/spans-{}-seed{}.jsonl", args.workload, args.seed))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <bulk|service|wire> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let cpu_before = host::CpuTimes::read();
    let result = match args.workload.as_str() {
        "bulk" => bulk::run(&args),
        "service" => service::run(&args),
        "wire" => wire_load::run(&args),
        other => Err(format!("unknown workload {other:?} (bulk, service or wire)")),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if report.attempted == 0 {
        eprintln!("perfbench: {} attempted no operations", args.workload);
        std::process::exit(1);
    }
    report.correct = report.failed <= report.attempted / MAX_FAILED_PER;
    let steal = cpu_before.steal_frac_until(&host::CpuTimes::read());
    report.lines.insert(
        0,
        format!(
            "workload {} seed {} seconds {} trace {} | nproc {} | rev {} | host steal {:.4}",
            args.workload,
            args.seed,
            args.seconds,
            args.trace as u8,
            host::nproc(),
            host::git_revision(),
            steal
        ),
    );
    let manifest = if args.trace {
        report.metric("host.steal_frac", steal, "ratio", "from /proc/stat across the run");
        report::PER_LAYER
    } else {
        report.metric("peak_rss_mb", host::peak_rss_mb(), "MiB", "VmHWM");
        report::END_TO_END
    };
    if MANIFEST_WORKLOADS.contains(&args.workload.as_str()) {
        if let Err(e) = report.conform(manifest) {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
    print!("{}", report.render());
    println!("{}", report.json());
}
