//! The unified measurement subsystem: every figure/table binary (and,
//! through the same statistics code, the criterion-shim substrate bench)
//! measures the same way and records the result in one machine-readable
//! schema.
//!
//! The layer has three pieces:
//!
//! * **Measurement loop** — [`measure_point`] / [`measure_bulk`] run a
//!   kernel `warmup + repeats` times (a fresh state per repeat via the
//!   `setup` closure, so mutating operations like inserts are re-measured
//!   from a clean filter) and aggregate the per-repeat wall times with the
//!   vendored criterion shim's [`stats`] module — median, p10, p90 — the
//!   same aggregation `benches/substrate.rs` reports.
//! * **[`Measurement`]** — one row: label, filter kind, op, size, items,
//!   repeat statistics for seconds and items/sec, the device cost model's
//!   modeled throughput, and an echo of the [`FilterSpec`] that built the
//!   filter, so a trajectory file is self-describing.
//! * **[`Trajectory`]** — a figure's rows plus figure-level context,
//!   written to (and read back from, by the same serde-free
//!   [`Json`] code) `experiments/BENCH_<figure>.json`.
//!   These files are the repo's perf trajectory: every PR regenerates
//!   them, and the schema-regression test keeps them parseable.
//!
//! Every binary accepts `--smoke` (small n, 1 repeat, no warmup), which CI
//! runs on every PR so a broken bench binary fails fast.

pub use criterion::stats::{self, SampleStats};
use filter_core::{DeviceModel, FilterSpec, GrowthPolicy, Parallelism};
use gpu_sim::cost::estimate;
use gpu_sim::metrics::{self, Counters};
use gpu_sim::{Device, KernelStats};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::json::Json;

/// Version stamp of the trajectory schema; bump on breaking changes.
pub const SCHEMA_VERSION: u64 = 1;

/// `--smoke` shrinks every sweep to this log2 size.
pub const SMOKE_SIZE_LOG2: u32 = 12;

/// Command-line arguments shared by the bench binaries.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// log2 filter sizes to sweep.
    pub sizes_log2: Vec<u32>,
    /// Output directory for trajectory/report files.
    pub out_dir: String,
    /// Timed repeats per measurement (each on a fresh state).
    pub repeats: u32,
    /// Untimed warmup runs per measurement.
    pub warmup: u32,
    /// CI smoke mode: small n, 1 repeat, no warmup.
    pub smoke: bool,
    /// Host-worker budgets to sweep for bulk phases (`--threads 1,2,4`);
    /// empty = the binary's default sweep.
    pub threads: Vec<u32>,
}

impl BenchArgs {
    /// The threads sweep to run: the `--threads` override, or `default`.
    pub fn threads_sweep(&self, default: &[u32]) -> Vec<u32> {
        if self.threads.is_empty() {
            default.to_vec()
        } else {
            self.threads.clone()
        }
    }
}

/// Parse a `--threads` value list (`"1,2,4"`): comma-separated positive
/// worker counts — the one grammar both the shared parser and the
/// binaries with hand-rolled flag loops (`service_throughput`) use.
pub fn parse_threads(arg: &str) -> Vec<u32> {
    let threads: Vec<u32> =
        arg.split(',').map(|s| s.trim().parse().expect("bad --threads entry")).collect();
    assert!(!threads.contains(&0), "--threads entries must be >= 1");
    threads
}

/// Parse `--sizes 20,22,24`, `--quick`, `--full`, `--smoke`,
/// `--repeats N`, `--warmup N`, `--threads a,b,c`, `--out DIR` with 5
/// timed repeats by default.
///
/// Size defaults are laptop-scale (the paper sweeps 2^22–2^30 on 16–40 GB
/// devices; the substrate defaults to 2^18–2^22 and `--full` raises it).
pub fn parse_args(default_sizes: &[u32]) -> BenchArgs {
    parse_args_with(default_sizes, 5)
}

/// [`parse_args`] with a per-binary default repeat count (slow sweeps pass
/// a smaller one; `--repeats` still overrides).
pub fn parse_args_with(default_sizes: &[u32], default_repeats: u32) -> BenchArgs {
    let mut sizes: Vec<u32> = default_sizes.to_vec();
    let mut out_dir = "experiments".to_string();
    let mut repeats = default_repeats;
    let mut warmup = 1;
    let mut smoke = false;
    let mut threads: Vec<u32> = Vec::new();
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--sizes" => {
                i += 1;
                sizes = args[i]
                    .split(',')
                    .map(|s| s.trim().parse().expect("bad --sizes entry"))
                    .collect();
            }
            "--quick" => sizes = vec![*default_sizes.first().unwrap_or(&18)],
            "--full" => sizes = (22..=26).collect(),
            "--smoke" => smoke = true,
            "--repeats" => {
                i += 1;
                repeats = args[i].parse().expect("bad --repeats");
            }
            "--warmup" => {
                i += 1;
                warmup = args[i].parse().expect("bad --warmup");
            }
            "--threads" => {
                i += 1;
                threads = parse_threads(&args[i]);
            }
            "--out" => {
                i += 1;
                out_dir = args[i].clone();
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }
    if smoke {
        sizes = vec![SMOKE_SIZE_LOG2];
        repeats = 1;
        warmup = 0;
    }
    BenchArgs { sizes_log2: sizes, out_dir, repeats: repeats.max(1), warmup, smoke, threads }
}

/// What one measurement is probing: identity (label/kind/op), workload
/// shape (size, items), and the kernel metadata the device cost model
/// needs (CG width, footprint, bulk-phase parallelism).
#[derive(Debug, Clone)]
pub struct Probe {
    /// Display label (figure line).
    pub label: String,
    /// Stable filter-kind identifier (`FilterKind::name`, or a slug for
    /// non-registry subjects like `cpu-cqf`).
    pub kind: String,
    /// Operation ("insert", "pos-query", "rand-query", "delete", …).
    pub op: String,
    /// log2 of the structure size.
    pub size_log2: u32,
    /// Items processed per repeat.
    pub n: u64,
    /// Cooperative-group lanes per point op.
    pub cg: u32,
    /// Device-memory footprint in bytes (cost-model cache term).
    pub footprint: u64,
    /// Concurrently useful lanes of one bulk call.
    pub active_threads: u64,
    /// The spec that built the subject filter, echoed into the row.
    pub spec: Option<FilterSpec>,
}

impl Probe {
    /// A probe with neutral kernel metadata (CG 1, no footprint, serial).
    pub fn new(
        label: impl Into<String>,
        kind: impl Into<String>,
        op: impl Into<String>,
        size_log2: u32,
        n: u64,
    ) -> Probe {
        Probe {
            label: label.into(),
            kind: kind.into(),
            op: op.into(),
            size_log2,
            n,
            cg: 1,
            footprint: 0,
            active_threads: 1,
            spec: None,
        }
    }

    /// Set the cooperative-group width.
    pub fn cg(mut self, cg: u32) -> Probe {
        self.cg = cg;
        self
    }

    /// Set the device-memory footprint.
    pub fn footprint(mut self, bytes: u64) -> Probe {
        self.footprint = bytes;
        self
    }

    /// Set the bulk-call parallelism.
    pub fn active_threads(mut self, threads: u64) -> Probe {
        self.active_threads = threads;
        self
    }

    /// Echo the constructing spec into the row.
    pub fn spec(mut self, spec: &FilterSpec) -> Probe {
        self.spec = Some(spec.clone());
        self
    }

    /// Same probe, different operation.
    pub fn with_op(&self, op: impl Into<String>) -> Probe {
        let mut p = self.clone();
        p.op = op.into();
        p
    }
}

/// One measured operation batch: repeat statistics plus context.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Figure-line label (may carry a `@device` suffix).
    pub label: String,
    /// Stable filter-kind identifier.
    pub kind: String,
    /// Operation measured.
    pub op: String,
    /// log2 of the structure size.
    pub size_log2: u32,
    /// Items processed per repeat.
    pub n: u64,
    /// Timed repeats aggregated.
    pub repeats: u32,
    /// Untimed warmup runs before them.
    pub warmup: u32,
    /// Wall seconds per repeat.
    pub secs: SampleStats,
    /// Wall items/sec per repeat.
    pub items_per_sec: SampleStats,
    /// Modeled device throughput, items/s (from the first repeat's
    /// transaction counts — those are deterministic across repeats).
    pub modeled_items_per_sec: Option<f64>,
    /// Which pipeline stage bound the modeled time.
    pub bound: Option<String>,
    /// The spec that built the subject filter.
    pub spec: Option<FilterSpec>,
    /// Figure-specific per-row scalars (fp rate, bits/item, shards, …).
    pub metrics: Vec<(String, f64)>,
}

impl Measurement {
    /// Attach a figure-specific scalar to the row.
    pub fn metric(mut self, key: impl Into<String>, value: f64) -> Measurement {
        self.metrics.push((key.into(), value));
        self
    }

    /// Fetch a figure-specific scalar from the row.
    pub fn get_metric(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    /// Render as a live report line.
    pub fn line(&self) -> String {
        let wall = format!(
            "wall {:>9.2} M/s [{:.2}..{:.2}]",
            self.items_per_sec.median / 1e6,
            self.items_per_sec.p10 / 1e6,
            self.items_per_sec.p90 / 1e6
        );
        let modeled = match (self.modeled_items_per_sec, &self.bound) {
            (Some(m), Some(b)) => format!("  modeled {:>8.3} B/s [{b}]", m / 1e9),
            (Some(m), None) => format!("  modeled {:>8.3} B/s", m / 1e9),
            _ => String::new(),
        };
        format!(
            "{:<22} {:<11} 2^{:<3} {:>10} items  {wall}{modeled}  ({}x)",
            self.label, self.op, self.size_log2, self.n, self.repeats
        )
    }

    fn to_json(&self) -> Json {
        let mut row = vec![
            ("label".to_string(), Json::str(&self.label)),
            ("filter".to_string(), Json::str(&self.kind)),
            ("op".to_string(), Json::str(&self.op)),
            ("size_log2".to_string(), Json::num(f64::from(self.size_log2))),
            ("n".to_string(), Json::num(self.n as f64)),
            ("repeats".to_string(), Json::num(f64::from(self.repeats))),
            ("warmup".to_string(), Json::num(f64::from(self.warmup))),
            ("secs".to_string(), stats_to_json(&self.secs)),
            ("items_per_sec".to_string(), stats_to_json(&self.items_per_sec)),
        ];
        if let Some(m) = self.modeled_items_per_sec {
            row.push(("modeled_items_per_sec".to_string(), Json::num(m)));
        }
        if let Some(b) = &self.bound {
            row.push(("bound".to_string(), Json::str(b)));
        }
        if let Some(spec) = &self.spec {
            row.push(("spec".to_string(), spec_to_json(spec)));
        }
        if !self.metrics.is_empty() {
            row.push((
                "metrics".to_string(),
                Json::Obj(self.metrics.iter().map(|(k, v)| (k.clone(), Json::num(*v))).collect()),
            ));
        }
        Json::Obj(row)
    }

    fn from_json(row: &Json) -> Result<Measurement, String> {
        let str_field = |key: &str| -> Result<String, String> {
            row.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("row missing string field '{key}'"))
        };
        let u64_field = |key: &str| -> Result<u64, String> {
            row.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("row missing integer field '{key}'"))
        };
        let kind = str_field("filter")?;
        if kind.is_empty() {
            return Err("row field 'filter' is empty".into());
        }
        let metrics = match row.get("metrics") {
            Some(m) => m
                .as_obj()
                .ok_or("row field 'metrics' is not an object")?
                .iter()
                .map(|(k, v)| {
                    v.as_f64()
                        .map(|x| (k.clone(), x))
                        .ok_or_else(|| format!("metric '{k}' is not a number"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        };
        Ok(Measurement {
            label: str_field("label")?,
            kind,
            op: str_field("op")?,
            size_log2: u64_field("size_log2")? as u32,
            n: u64_field("n")?,
            repeats: u64_field("repeats")? as u32,
            warmup: u64_field("warmup")? as u32,
            secs: stats_from_json(row.get("secs").ok_or("row missing 'secs'")?)?,
            items_per_sec: stats_from_json(
                row.get("items_per_sec").ok_or("row missing 'items_per_sec'")?,
            )?,
            modeled_items_per_sec: row.get("modeled_items_per_sec").and_then(Json::as_f64),
            bound: row.get("bound").and_then(Json::as_str).map(str::to_string),
            spec: match row.get("spec") {
                Some(s) => Some(spec_from_json(s)?),
                None => None,
            },
            metrics,
        })
    }

    /// Schema invariants every trajectory row must satisfy.
    pub fn validate(&self) -> Result<(), String> {
        if self.kind.is_empty() {
            return Err(format!("row '{}': empty filter kind", self.label));
        }
        if self.n == 0 {
            return Err(format!("row '{}': n must be positive", self.label));
        }
        if self.repeats == 0 {
            return Err(format!("row '{}': repeats must be >= 1", self.label));
        }
        for (name, s) in [("secs", &self.secs), ("items_per_sec", &self.items_per_sec)] {
            if !(s.median.is_finite() && s.p10.is_finite() && s.p90.is_finite()) {
                return Err(format!("row '{}': non-finite {name} statistics", self.label));
            }
            if s.median < 0.0 {
                return Err(format!("row '{}': negative {name} median", self.label));
            }
            if s.n == 0 {
                return Err(format!("row '{}': {name} aggregates zero samples", self.label));
            }
        }
        Ok(())
    }
}

fn stats_to_json(s: &SampleStats) -> Json {
    Json::Obj(vec![
        ("n".to_string(), Json::num(f64::from(s.n))),
        ("median".to_string(), Json::num(s.median)),
        ("p10".to_string(), Json::num(s.p10)),
        ("p90".to_string(), Json::num(s.p90)),
        ("min".to_string(), Json::num(s.min)),
        ("max".to_string(), Json::num(s.max)),
    ])
}

fn stats_from_json(j: &Json) -> Result<SampleStats, String> {
    let field = |key: &str| -> Result<f64, String> {
        j.get(key).and_then(Json::as_f64).ok_or_else(|| format!("stats missing field '{key}'"))
    };
    Ok(SampleStats {
        n: j.get("n").and_then(Json::as_u64).ok_or("stats missing field 'n'")? as u32,
        median: field("median")?,
        p10: field("p10")?,
        p90: field("p90")?,
        min: field("min")?,
        max: field("max")?,
    })
}

fn spec_to_json(spec: &FilterSpec) -> Json {
    Json::Obj(vec![
        ("capacity".to_string(), Json::num(spec.capacity as f64)),
        ("fp_rate".to_string(), Json::num(spec.fp_rate)),
        ("value_bits".to_string(), Json::num(f64::from(spec.value_bits))),
        ("counting".to_string(), Json::Bool(spec.counting)),
        ("device".to_string(), Json::str(spec.device.name())),
        ("parallelism".to_string(), Json::str(spec.parallelism.label())),
        ("growth".to_string(), Json::str(spec.growth.label())),
    ])
}

fn spec_from_json(j: &Json) -> Result<FilterSpec, String> {
    let capacity = j.get("capacity").and_then(Json::as_u64).ok_or("spec missing 'capacity'")?;
    let fp_rate = j.get("fp_rate").and_then(Json::as_f64).ok_or("spec missing 'fp_rate'")?;
    let value_bits =
        j.get("value_bits").and_then(Json::as_u64).ok_or("spec missing 'value_bits'")?;
    let counting = j.get("counting").and_then(Json::as_bool).ok_or("spec missing 'counting'")?;
    let device = match j.get("device").and_then(Json::as_str).ok_or("spec missing 'device'")? {
        "cori" => DeviceModel::Cori,
        "perlmutter" => DeviceModel::Perlmutter,
        other => return Err(format!("unknown device model '{other}'")),
    };
    // Additive schema field: trajectories written before the parallelism
    // knob existed echo no budget, which means the pool default.
    let parallelism = match j.get("parallelism") {
        Some(p) => p
            .as_str()
            .ok_or("spec field 'parallelism' is not a string")?
            .parse::<Parallelism>()
            .map_err(|e| e.to_string())?,
        None => Parallelism::Auto,
    };
    // Additive (PR 5): pre-lifecycle trajectories echo no policy, which
    // means fixed capacity.
    let growth = match j.get("growth") {
        Some(g) => g
            .as_str()
            .ok_or("spec field 'growth' is not a string")?
            .parse::<GrowthPolicy>()
            .map_err(|e| e.to_string())?,
        None => GrowthPolicy::Fixed,
    };
    Ok(FilterSpec::items(capacity)
        .fp_rate(fp_rate)
        .value_bits(value_bits as u32)
        .counting(counting)
        .device(device)
        .parallelism(parallelism)
        .growth(growth))
}

/// A figure's measurements plus figure-level context — the unit that one
/// `experiments/BENCH_<figure>.json` file holds.
#[derive(Debug, Clone)]
pub struct Trajectory {
    /// Figure identifier ("fig3", "table2", "service", …).
    pub figure: String,
    /// Whether this run was a CI smoke run.
    pub smoke: bool,
    /// Host cores the wall numbers were taken on.
    pub host_cores: u64,
    /// All measured rows.
    pub rows: Vec<Measurement>,
    /// Figure-level scalars (speedups, workload notes, …).
    pub extra: Vec<(String, Json)>,
}

impl Trajectory {
    /// Fresh trajectory for `figure` under the parsed arguments.
    pub fn new(figure: impl Into<String>, args: &BenchArgs) -> Trajectory {
        Trajectory {
            figure: figure.into(),
            smoke: args.smoke,
            host_cores: std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(1),
            rows: Vec::new(),
            extra: Vec::new(),
        }
    }

    /// Append a row (also prints it live).
    pub fn push(&mut self, m: Measurement) {
        println!("{}", m.line());
        self.rows.push(m);
    }

    /// Append several rows (e.g. one per priced device).
    pub fn push_all(&mut self, ms: Vec<Measurement>) {
        for m in ms {
            self.push(m);
        }
    }

    /// Record a figure-level scalar.
    pub fn set_extra(&mut self, key: impl Into<String>, value: Json) {
        self.extra.push((key.into(), value));
    }

    /// Rows matching a (label, op) pair.
    pub fn get(&self, label: &str, op: &str) -> Vec<&Measurement> {
        self.rows.iter().filter(|m| m.label == label && m.op == op).collect()
    }

    /// The file this trajectory lands in.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.figure)
    }

    /// Serialize onto the shared schema.
    pub fn to_json(&self) -> Json {
        let mut doc = vec![
            ("schema_version".to_string(), Json::num(SCHEMA_VERSION as f64)),
            ("figure".to_string(), Json::str(&self.figure)),
            ("smoke".to_string(), Json::Bool(self.smoke)),
            ("host_cores".to_string(), Json::num(self.host_cores as f64)),
            ("rows".to_string(), Json::Arr(self.rows.iter().map(Measurement::to_json).collect())),
        ];
        if !self.extra.is_empty() {
            doc.push(("extra".to_string(), Json::Obj(self.extra.clone())));
        }
        Json::Obj(doc)
    }

    /// Deserialize from the shared schema.
    pub fn from_json(doc: &Json) -> Result<Trajectory, String> {
        let version =
            doc.get("schema_version").and_then(Json::as_u64).ok_or("missing 'schema_version'")?;
        if version != SCHEMA_VERSION {
            return Err(format!("schema version {version}, this reader supports {SCHEMA_VERSION}"));
        }
        let figure = doc
            .get("figure")
            .and_then(Json::as_str)
            .ok_or("missing string field 'figure'")?
            .to_string();
        let rows = doc
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or("missing array field 'rows'")?
            .iter()
            .map(Measurement::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Trajectory {
            figure,
            smoke: doc.get("smoke").and_then(Json::as_bool).unwrap_or(false),
            host_cores: doc.get("host_cores").and_then(Json::as_u64).unwrap_or(1),
            rows,
            extra: doc
                .get("extra")
                .and_then(Json::as_obj)
                .map(<[(String, Json)]>::to_vec)
                .unwrap_or_default(),
        })
    }

    /// Schema invariants for the whole file.
    pub fn validate(&self) -> Result<(), String> {
        if self.figure.is_empty() {
            return Err("empty figure name".into());
        }
        if self.rows.is_empty() {
            return Err(format!("trajectory '{}' has no rows", self.figure));
        }
        for row in &self.rows {
            row.validate().map_err(|e| format!("{}: {e}", self.figure))?;
        }
        Ok(())
    }

    /// Validate and write `BENCH_<figure>.json` under the output dir.
    pub fn write(&self, args: &BenchArgs) -> PathBuf {
        self.validate().expect("trajectory fails its own schema");
        let dir = Path::new(&args.out_dir);
        std::fs::create_dir_all(dir).expect("create experiments dir");
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json().render()).expect("write trajectory");
        println!("→ wrote {}", path.display());
        path
    }

    /// Read a trajectory file back (the schema-regression reader).
    pub fn read(path: &Path) -> Result<Trajectory, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
        Trajectory::from_json(&doc).map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn measurement_from(
    probe: &Probe,
    label: String,
    args: &BenchArgs,
    secs_samples: &[f64],
    modeled: Option<f64>,
    bound: Option<&str>,
) -> Measurement {
    let ips_samples: Vec<f64> =
        secs_samples.iter().map(|&s| stats::items_per_sec(probe.n, s)).collect();
    Measurement {
        label,
        kind: probe.kind.clone(),
        op: probe.op.clone(),
        size_log2: probe.size_log2,
        n: probe.n,
        repeats: secs_samples.len() as u32,
        warmup: args.warmup,
        secs: SampleStats::from_samples(secs_samples).expect("at least one repeat"),
        items_per_sec: SampleStats::from_samples(&ips_samples).expect("at least one repeat"),
        modeled_items_per_sec: modeled,
        bound: bound.map(str::to_string),
        spec: probe.spec.clone(),
        metrics: Vec::new(),
    }
}

/// Measure a batch of point-style operations over `warmup + repeats`
/// kernel launches, each on a fresh state from `setup` (so inserts measure
/// a clean filter every repeat, not an increasingly loaded one).
///
/// Wall statistics come from launches on `devices[0]`; the substrate's
/// transaction counts are device-independent, so the first repeat prices a
/// modeled row per device profile (labels get an `@device` suffix when
/// more than one device is priced). Returns the rows and the last repeat's
/// state, which callers reuse as the loaded filter for query phases.
pub fn measure_point<T: Sync>(
    devices: &[&Device],
    args: &BenchArgs,
    probe: &Probe,
    mut setup: impl FnMut() -> T,
    kernel: impl Fn(&T, usize) + Sync,
) -> (Vec<Measurement>, T) {
    let n = probe.n as usize;
    for _ in 0..args.warmup {
        let state = setup();
        devices[0].launch_point(n, probe.cg, |i| kernel(&state, i));
    }
    let mut secs = Vec::with_capacity(args.repeats as usize);
    let mut first_stats: Option<KernelStats> = None;
    let mut last_state: Option<T> = None;
    for _ in 0..args.repeats.max(1) {
        let state = setup();
        let stats = devices[0].launch_point(n, probe.cg, |i| kernel(&state, i));
        secs.push(stats.wall.as_secs_f64());
        if first_stats.is_none() {
            first_stats = Some(stats);
        }
        last_state = Some(state);
    }
    let stats = first_stats.expect("repeats >= 1");
    let rows = devices
        .iter()
        .map(|dev| {
            let modeled = estimate(&stats, dev.profile(), probe.footprint);
            let label = if devices.len() > 1 {
                format!("{}@{}", probe.label, dev.profile().name)
            } else {
                probe.label.clone()
            };
            measurement_from(
                probe,
                label,
                args,
                &secs,
                Some(modeled.throughput),
                Some(modeled.breakdown.bound()),
            )
        })
        .collect();
    (rows, last_state.expect("repeats >= 1"))
}

/// Measure a host-side bulk call over `warmup + repeats` executions, each
/// on a fresh state from `setup`; substrate metrics are diffed around
/// `run`, which is responsible for all kernel launches (sorting included).
/// Returns the row and the last repeat's state.
pub fn measure_bulk<T>(
    device: &Device,
    args: &BenchArgs,
    probe: &Probe,
    mut setup: impl FnMut() -> T,
    run: impl Fn(&mut T),
) -> (Measurement, T) {
    for _ in 0..args.warmup {
        let mut state = setup();
        run(&mut state);
    }
    let mut secs = Vec::with_capacity(args.repeats as usize);
    let mut first_stats: Option<KernelStats> = None;
    let mut last_state: Option<T> = None;
    for _ in 0..args.repeats.max(1) {
        let mut state = setup();
        let before = metrics::snapshot();
        let start = Instant::now();
        run(&mut state);
        let wall = start.elapsed();
        let counters = metrics::snapshot().since(&before);
        secs.push(wall.as_secs_f64());
        if first_stats.is_none() {
            first_stats = Some(KernelStats {
                counters,
                wall,
                items: probe.n,
                cg_size: 1,
                active_threads: probe.active_threads.min(device.profile().max_threads),
            });
        }
        last_state = Some(state);
    }
    let stats = first_stats.expect("repeats >= 1");
    let modeled = estimate(&stats, device.profile(), probe.footprint);
    let row = measurement_from(
        probe,
        probe.label.clone(),
        args,
        &secs,
        Some(modeled.throughput),
        Some(modeled.breakdown.bound()),
    );
    (row, last_state.expect("repeats >= 1"))
}

/// Measure wall time only (no substrate metrics, no cost model): the
/// harness primitive for host-side subjects like the serving layer or the
/// CPU comparison filters. Each repeat runs `run` on a fresh state.
pub fn measure_wall<T>(
    args: &BenchArgs,
    probe: &Probe,
    mut setup: impl FnMut() -> T,
    run: impl Fn(&mut T),
) -> (Measurement, T) {
    for _ in 0..args.warmup {
        let mut state = setup();
        run(&mut state);
    }
    let mut secs = Vec::with_capacity(args.repeats as usize);
    let mut last_state: Option<T> = None;
    for _ in 0..args.repeats.max(1) {
        let mut state = setup();
        let start = Instant::now();
        run(&mut state);
        secs.push(start.elapsed().as_secs_f64());
        last_state = Some(state);
    }
    let row = measurement_from(probe, probe.label.clone(), args, &secs, None, None);
    (row, last_state.expect("repeats >= 1"))
}

/// Pretty duration for logs.
pub fn fmt_dur(d: Duration) -> String {
    format!("{:.2?}", d)
}

/// Counter delta helper for ablation reporting.
pub fn counters_around(f: impl FnOnce()) -> Counters {
    let before = metrics::snapshot();
    f();
    metrics::snapshot().since(&before)
}

/// Write a plain-text report file under the output directory (the table
/// binaries keep a human-readable rendition next to their trajectory).
pub fn write_report(args: &BenchArgs, name: &str, content: &str) {
    let dir = Path::new(&args.out_dir);
    std::fs::create_dir_all(dir).expect("create experiments dir");
    let path = dir.join(name);
    std::fs::write(&path, content).expect("write report");
    println!("→ wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_args() -> BenchArgs {
        BenchArgs {
            sizes_log2: vec![12],
            out_dir: "experiments".into(),
            repeats: 3,
            warmup: 1,
            smoke: false,
            threads: Vec::new(),
        }
    }

    fn sample_measurement() -> Measurement {
        let probe = Probe::new("TCF", "tcf-point", "insert", 12, 1000)
            .cg(4)
            .footprint(1 << 16)
            .spec(&FilterSpec::items(1000).fp_rate(5e-4).parallelism(Parallelism::Threads(2)));
        measurement_from(&probe, "TCF".into(), &test_args(), &[0.5, 0.25, 1.0], Some(2e9), None)
            .metric("fp_rate", 3.5e-3)
    }

    #[test]
    fn measurement_roundtrips_through_json() {
        let m = sample_measurement();
        let back = Measurement::from_json(&m.to_json()).unwrap();
        assert_eq!(back.label, "TCF");
        assert_eq!(back.kind, "tcf-point");
        assert_eq!(back.n, 1000);
        assert_eq!(back.repeats, 3);
        assert_eq!(back.secs.median, 0.5);
        assert_eq!(back.items_per_sec.median, 2000.0);
        assert_eq!(back.modeled_items_per_sec, Some(2e9));
        assert_eq!(back.spec, m.spec);
        assert_eq!(back.get_metric("fp_rate"), Some(3.5e-3));
        back.validate().unwrap();
    }

    #[test]
    fn legacy_spec_echo_defaults_parallelism_to_auto() {
        let doc = Json::parse(
            r#"{"capacity": 10, "fp_rate": 0.001, "value_bits": 0,
                "counting": false, "device": "cori"}"#,
        )
        .unwrap();
        let spec = spec_from_json(&doc).unwrap();
        assert_eq!(spec.parallelism, Parallelism::Auto);
        let doc = Json::parse(
            r#"{"capacity": 10, "fp_rate": 0.001, "value_bits": 0,
            "counting": false, "device": "cori", "parallelism": "lots"}"#,
        )
        .unwrap();
        assert!(spec_from_json(&doc).is_err(), "bad parallelism labels are rejected");
    }

    #[test]
    fn trajectory_roundtrips_and_validates() {
        let mut t = Trajectory::new("unit", &test_args());
        t.rows.push(sample_measurement());
        t.set_extra("speedup", Json::num(2.5));
        let back = Trajectory::from_json(&t.to_json()).unwrap();
        assert_eq!(back.figure, "unit");
        assert_eq!(back.rows.len(), 1);
        assert_eq!(back.extra[0].0, "speedup");
        back.validate().unwrap();
        assert_eq!(back.file_name(), "BENCH_unit.json");
    }

    #[test]
    fn validation_rejects_schema_drift() {
        let mut t = Trajectory::new("unit", &test_args());
        assert!(t.validate().is_err(), "empty trajectories are invalid");
        let mut bad = sample_measurement();
        bad.kind.clear();
        t.rows.push(bad);
        assert!(t.validate().is_err(), "rows need a filter kind");
        t.rows[0].kind = "tcf-point".into();
        t.rows[0].repeats = 0;
        assert!(t.validate().is_err(), "rows need at least one repeat");

        // A document missing required fields fails the reader, not just
        // the validator.
        let doc = Json::parse(r#"{"schema_version": 1, "figure": "x"}"#).unwrap();
        assert!(Trajectory::from_json(&doc).is_err());
        let doc = Json::parse(r#"{"schema_version": 99, "figure": "x", "rows": []}"#).unwrap();
        assert!(Trajectory::from_json(&doc).is_err(), "future schema versions are rejected");
    }

    #[test]
    fn measure_point_repeats_on_fresh_state() {
        let dev = Device::cori();
        let args = test_args();
        let buf = gpu_sim::GpuBuffer::new(1 << 12, 16);
        let mut setups = 0u32;
        let probe = Probe::new("x", "unit", "insert", 12, 1 << 12).cg(4).footprint(1 << 16);
        let (rows, _) = measure_point(
            &[&dev],
            &args,
            &probe,
            || {
                setups += 1;
            },
            |_, i| {
                let _ = buf.cas(i, 0, 5);
            },
        );
        assert_eq!(setups, args.warmup + args.repeats, "one fresh state per run");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].repeats, args.repeats);
        assert_eq!(rows[0].label, "x", "no @device suffix for a single device");
        assert!(rows[0].secs.median > 0.0);
        assert!(rows[0].items_per_sec.median > 0.0);
        assert!(rows[0].modeled_items_per_sec.unwrap() > 0.0);
        rows[0].validate().unwrap();
    }

    #[test]
    fn measure_point_prices_each_device() {
        let cori = Device::cori();
        let perl = Device::perlmutter();
        let args = test_args();
        let buf = gpu_sim::GpuBuffer::new(1 << 10, 16);
        let probe = Probe::new("x", "unit", "insert", 10, 1 << 10).cg(4).footprint(1 << 14);
        let (rows, _) = measure_point(
            &[&cori, &perl],
            &args,
            &probe,
            || (),
            |_, i| {
                let _ = buf.cas(i, 0, 5);
            },
        );
        assert_eq!(rows.len(), 2);
        assert!(rows[0].label.contains('@') && rows[1].label.contains('@'));
        assert_ne!(rows[0].label, rows[1].label);
    }

    #[test]
    fn measure_bulk_and_wall_report_stats() {
        let dev = Device::cori();
        let args = test_args();
        let probe = Probe::new("b", "unit", "op", 10, 1000).active_threads(8);
        let (row, last) = measure_bulk(
            &dev,
            &args,
            &probe,
            || 0u64,
            |state| {
                *state += 1;
                std::hint::black_box(*state);
            },
        );
        assert_eq!(row.repeats, 3);
        assert_eq!(last, 1, "each repeat runs once on a fresh state");
        row.validate().unwrap();

        let (row, _) = measure_wall(
            &args,
            &probe,
            || (),
            |_| {
                std::hint::black_box(filter_core::hashed_keys(1, 64));
            },
        );
        assert!(row.modeled_items_per_sec.is_none());
        assert!(row.secs.median > 0.0);
        row.validate().unwrap();
    }
}
