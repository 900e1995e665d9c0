//! Schema regression: every `experiments/BENCH_*.json` trajectory file
//! must parse through the harness's own serde-free reader and satisfy the
//! shared schema (figure, filter kind, n, repeats, median, …), so the
//! repo's perf-trajectory files cannot silently drift as binaries evolve.

use bench::Trajectory;
use std::path::PathBuf;

fn experiments_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../experiments")
}

fn trajectory_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(experiments_dir())
        .expect("experiments/ exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("BENCH_") && name.ends_with(".json")
        })
        .collect();
    files.sort();
    files
}

/// Every figure the measurement subsystem is contracted to record. A
/// missing file is as much schema drift as a malformed one.
const REQUIRED_FIGURES: [&str; 13] = [
    "fig3", "fig4", "fig5", "fig6", "growth", "net", "service", "skew", "table1", "table2",
    "table3", "table4", "table5",
];

/// The PR 4 acceptance contract: fig4 and service must record a threads
/// sweep (host-parallelism rows for the bulk phases).
#[test]
fn fig4_and_service_record_a_threads_sweep() {
    for (figure, metric) in [("fig4", "threads"), ("service", "backend_threads")] {
        let path = experiments_dir().join(format!("BENCH_{figure}.json"));
        let traj = Trajectory::read(&path).unwrap_or_else(|e| panic!("{e}"));
        let swept: Vec<f64> = traj.rows.iter().filter_map(|m| m.get_metric(metric)).collect();
        assert!(
            swept.iter().any(|&t| t >= 2.0)
                && swept.iter().any(|&t| (t - 1.0).abs() < f64::EPSILON),
            "{figure}: no threads sweep recorded (metric '{metric}' values: {swept:?})"
        );
        assert!(
            traj.extra.iter().any(|(k, _)| k.contains("threads_sweep")),
            "{figure}: missing threads_sweep extra"
        );
    }
}

/// The PR 5 acceptance contract: the growth trajectory must record the
/// amortized growth-cost rows (a fixed arm and a grown arm that actually
/// grew, per growable kind) and the service scale-out row.
#[test]
fn growth_trajectory_records_amortized_cost_and_scale_out() {
    let path = experiments_dir().join("BENCH_growth.json");
    let traj = Trajectory::read(&path).unwrap_or_else(|e| panic!("{e}"));

    for kind in ["tcf-bulk", "gqf-bulk", "sqf", "rsqf"] {
        let fixed: Vec<_> =
            traj.rows.iter().filter(|m| m.kind == kind && m.op == "insert-fixed").collect();
        let grown: Vec<_> =
            traj.rows.iter().filter(|m| m.kind == kind && m.op == "insert-grown").collect();
        assert!(!fixed.is_empty(), "growth: no fixed arm for {kind}");
        assert!(!grown.is_empty(), "growth: no grown arm for {kind}");
        for m in grown {
            assert!(
                m.get_metric("grow_events").unwrap_or(0.0) >= 1.0,
                "growth: {kind} grown arm recorded no grow events"
            );
            assert!(
                m.get_metric("amortized_cost_vs_fixed").unwrap_or(0.0) > 0.0,
                "growth: {kind} grown arm missing the amortized-cost metric"
            );
            let spec = m.spec.as_ref().expect("grown arm echoes its spec");
            assert!(
                matches!(spec.growth, filter_core::GrowthPolicy::Auto { .. }),
                "growth: {kind} grown arm must echo an Auto policy, got {}",
                spec.growth
            );
        }
    }

    let scale_out: Vec<_> = traj.rows.iter().filter(|m| m.op == "scale-out").collect();
    assert!(!scale_out.is_empty(), "growth: no service scale-out row");
    for m in scale_out {
        assert!(m.get_metric("scale_outs").unwrap_or(0.0) >= 2.0, "scale-out row: no resizes");
        assert!(
            m.get_metric("migration_events").unwrap_or(0.0)
                >= m.get_metric("final_shards").unwrap_or(f64::MAX),
            "scale-out row: migrations must cover at least the final fleet"
        );
    }

    // ISSUE 8: the ring rows — a live scale-in that lands with its
    // movement ledger, and routing-movement rows inside the 2/n
    // consistent-hashing bound.
    let scale_in: Vec<_> = traj.rows.iter().filter(|m| m.op == "scale-in").collect();
    assert!(!scale_in.is_empty(), "growth: no service scale-in row");
    for m in scale_in {
        assert!(m.get_metric("scale_ins").unwrap_or(0.0) >= 1.0, "scale-in row: no resize");
        assert!(
            m.get_metric("migration_events").unwrap_or(0.0)
                >= m.get_metric("final_shards").unwrap_or(f64::MAX),
            "scale-in row: survivors must absorb at least the final fleet's worth of sources"
        );
        assert!(
            m.get_metric("keys_moved").unwrap_or(0.0) > 0.0,
            "scale-in row: movement estimate missing from the ledger"
        );
    }

    let movement: Vec<_> = traj.rows.iter().filter(|m| m.label.contains("ring-movement")).collect();
    assert!(movement.len() >= 3, "growth: expected ring-movement rows at several shard counts");
    for m in movement {
        let moved = m.get_metric("moved_fraction").expect("moved_fraction metric");
        let bound = m.get_metric("movement_bound").expect("movement_bound metric");
        assert!(
            moved > 0.0 && moved <= bound,
            "ring-movement row {}: moved {moved:.4} outside (0, {bound:.4}]",
            m.op
        );
    }
}

/// The PR 6 acceptance contract: the net trajectory must sweep offered
/// load below and beyond saturation for both batching policies, record
/// ordered latency percentiles per point, and show the adaptive policy
/// holding p99 where the static policy collapses.
#[test]
fn net_trajectory_records_tail_latency_vs_offered_load() {
    let path = experiments_dir().join("BENCH_net.json");
    let traj = Trajectory::read(&path).unwrap_or_else(|e| panic!("{e}"));

    for mode in ["static", "adaptive"] {
        let rows: Vec<_> = traj.rows.iter().filter(|m| m.label == mode).collect();
        assert!(rows.len() >= 4, "net: {mode} has {} load points, need >= 4", rows.len());
        let rhos: Vec<f64> = rows.iter().map(|m| m.get_metric("rho").unwrap_or(0.0)).collect();
        assert!(
            rhos.iter().any(|&r| r < 0.9) && rhos.iter().any(|&r| r > 1.1),
            "net: {mode} load sweep must span below and beyond saturation, got {rhos:?}"
        );
        for m in &rows {
            let (p50, p99, p999) = (
                m.get_metric("p50_ms").expect("p50_ms metric"),
                m.get_metric("p99_ms").expect("p99_ms metric"),
                m.get_metric("p999_ms").expect("p999_ms metric"),
            );
            assert!(
                p50 > 0.0 && p50 <= p99 && p99 <= p999,
                "net: {mode} ρ={} has disordered percentiles {p50}/{p99}/{p999}",
                m.get_metric("rho").unwrap_or(f64::NAN)
            );
            assert!(m.get_metric("offered_rps").unwrap_or(0.0) > 0.0);
            assert!(m.get_metric("achieved_rps").unwrap_or(-1.0) >= 0.0);
        }
    }

    // The static arm never sheds; the adaptive arm must shed past
    // saturation — that is what buys the bounded tail.
    let top = |mode: &str| {
        traj.rows
            .iter()
            .filter(|m| m.label == mode)
            .max_by(|a, b| {
                a.get_metric("rho").unwrap().partial_cmp(&b.get_metric("rho").unwrap()).unwrap()
            })
            .expect("top load point")
    };
    assert_eq!(top("static").get_metric("shed_frac"), Some(0.0), "static must not shed");
    assert!(
        top("adaptive").get_metric("shed_frac").unwrap_or(0.0) > 0.0,
        "net: adaptive shed nothing beyond saturation"
    );
    assert!(
        top("adaptive").get_metric("p99_ms").unwrap() < top("static").get_metric("p99_ms").unwrap(),
        "net: adaptive p99 must beat static p99 past saturation"
    );
    assert_eq!(
        traj.extra.iter().find(|(k, _)| k == "adaptive_holds_p99_past_saturation").map(|(_, v)| v),
        Some(&bench::Json::Bool(true)),
        "net: the figure's claim flag must be recorded true"
    );
}

#[test]
fn every_trajectory_file_parses_and_validates() {
    let files = trajectory_files();
    assert!(!files.is_empty(), "no BENCH_*.json files under experiments/");
    for path in &files {
        let traj = Trajectory::read(path).unwrap_or_else(|e| panic!("{e}"));
        traj.validate().unwrap_or_else(|e| panic!("{}: {e}", path.display()));

        // The file name and the figure field must agree, so a figure
        // can't overwrite another figure's trajectory.
        let expect = format!("BENCH_{}.json", traj.figure);
        assert_eq!(
            path.file_name().and_then(|n| n.to_str()),
            Some(expect.as_str()),
            "{}: figure field disagrees with file name",
            path.display()
        );
    }
}

#[test]
fn required_figures_are_present() {
    let present: Vec<String> =
        trajectory_files().iter().map(|p| Trajectory::read(p).unwrap().figure).collect();
    for figure in REQUIRED_FIGURES {
        assert!(
            present.iter().any(|f| f == figure),
            "missing experiments/BENCH_{figure}.json (present: {present:?})"
        );
    }
}

#[test]
fn rows_carry_the_required_fields() {
    for path in trajectory_files() {
        let traj = Trajectory::read(&path).unwrap();
        for row in &traj.rows {
            // validate() covers structure; these are the semantic floors
            // the ISSUE contract names explicitly.
            assert!(!row.kind.is_empty(), "{}: row without filter kind", path.display());
            assert!(row.n > 0, "{}: row with n = 0", path.display());
            assert!(row.repeats >= 1, "{}: row with no repeats", path.display());
            assert!(
                row.secs.median.is_finite() && row.secs.median >= 0.0,
                "{}: row '{}' has invalid median",
                path.display(),
                row.label
            );
            assert_eq!(
                row.secs.n,
                row.repeats,
                "{}: row '{}' aggregates a different number of samples than it claims",
                path.display(),
                row.label
            );
            // Spec echoes, where present, must be valid specs.
            if let Some(spec) = &row.spec {
                spec.validate().unwrap_or_else(|e| {
                    panic!("{}: row '{}' echoes invalid spec: {e}", path.display(), row.label)
                });
            }
        }
    }
}

#[test]
fn reader_rejects_unversioned_documents() {
    // The old ad-hoc BENCH_service.json shape (no schema_version) must be
    // rejected by the shared reader, not half-parsed.
    let legacy = r#"{"bench": "service_throughput", "rows": []}"#;
    let doc = bench::Json::parse(legacy).unwrap();
    assert!(Trajectory::from_json(&doc).is_err());
}

/// The skew contract: the trajectory must record a base arm (the default
/// service: coalescing, no cache) and cache arms per Zipf coefficient,
/// coalesce at Zipf 1.5, and — at full scale — show the hot-key cache
/// answering most Zipf 1.5 lookups.
#[test]
fn skew_trajectory_records_fast_path_acceptance() {
    let path = experiments_dir().join("BENCH_skew.json");
    let traj = Trajectory::read(&path).unwrap_or_else(|e| panic!("{e}"));

    for zipf in [0.0, 1.5] {
        let base: Vec<_> = traj
            .rows
            .iter()
            .filter(|m| {
                m.get_metric("zipf") == Some(zipf) && m.get_metric("cache_entries") == Some(0.0)
            })
            .collect();
        let fast: Vec<_> = traj
            .rows
            .iter()
            .filter(|m| {
                m.get_metric("zipf") == Some(zipf)
                    && m.get_metric("cache_entries").unwrap_or(0.0) > 0.0
            })
            .collect();
        assert!(!base.is_empty(), "skew: no base arm at zipf {zipf}");
        assert!(!fast.is_empty(), "skew: no fast arm at zipf {zipf}");
    }
    // The skewed fast arms must actually engage the machinery they claim.
    let hot = traj
        .rows
        .iter()
        .find(|m| {
            m.get_metric("zipf") == Some(1.5) && m.get_metric("cache_entries").unwrap_or(0.0) > 0.0
        })
        .expect("a fast row at zipf 1.5");
    assert!(hot.get_metric("coalesced_keys").unwrap_or(0.0) > 0.0, "skew: nothing coalesced");

    let extra = |key: &str| {
        traj.extra
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("skew: missing extra '{key}'"))
    };
    assert!(extra("speedup_z15").as_f64().unwrap_or(0.0) > 0.0, "skew: no speedup recorded");
    extra("uniform_ratio");

    // The hit-rate bound binds on full-scale trajectories only — the CI
    // bench-smoke job rewrites this file at --smoke scale, where the tiny
    // universe and short trace don't warm the cache.
    if !traj.smoke {
        assert!(
            hot.get_metric("cache_hit_rate").unwrap_or(0.0) > 0.5,
            "skew: hot-key cache barely hit at zipf 1.5"
        );
    }
}

/// Shape assertion: the paper's bulk-beats-point ordering. Compared on
/// the modeled (transaction-priced) throughput of the canonical sweep
/// rows — wall time on the simulator host is not the figure's claim —
/// with a small tolerance because the GQF's point and bulk query paths
/// price within a fraction of a percent of each other at the smallest
/// sizes.
#[test]
fn bulk_query_keeps_pace_with_point_query() {
    let f3 = Trajectory::read(&experiments_dir().join("BENCH_fig3.json")).unwrap();
    let f4 = Trajectory::read(&experiments_dir().join("BENCH_fig4.json")).unwrap();
    let modeled_max = |traj: &Trajectory, kind: &str, device: &str| -> f64 {
        traj.rows
            .iter()
            .filter(|m| {
                m.kind == kind
                    && m.op == "pos-query"
                    && m.label.contains(device)
                    && m.get_metric("threads").is_none()
            })
            .max_by_key(|m| m.size_log2)
            .and_then(|m| m.modeled_items_per_sec)
            .unwrap_or_else(|| panic!("no modeled pos-query row for {kind}@{device}"))
    };
    for (point_kind, bulk_kind) in [("tcf-point", "tcf-bulk"), ("gqf-point", "gqf-bulk")] {
        for device in ["Cori-V100", "Perlmutter-A100"] {
            let point = modeled_max(&f3, point_kind, device);
            let bulk = modeled_max(&f4, bulk_kind, device);
            assert!(
                bulk >= point * 0.95,
                "{bulk_kind}@{device} ({bulk:.3e}) fell behind {point_kind} ({point:.3e})"
            );
        }
    }
}
