//! The lint suite's own proof of life, plus its tier-1 enforcement hook.
//!
//! Each pass is aimed at a known-bad fixture under `fixtures/` and must
//! fire exactly where the defect is planted (and nowhere else) — a lint
//! that cannot fail its fixture is decoration. The final test runs every
//! pass over the real workspace and requires zero findings, which is what
//! makes `cargo test` (tier 1) a static-analysis gate: regressing the
//! unsafe audit, the lock hierarchy, registry/wire coverage, or the
//! codec's allocation bounds fails the build.

use filter_lint::{
    alloc_bound, coverage, lock_order, run_all, scan_file, unsafe_audit, workspace_root,
    workspace_sources,
};

fn fixture(name: &str) -> filter_lint::scan::SourceFile {
    scan_file(&workspace_root(), &format!("crates/filter-lint/fixtures/{name}"))
        .unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

#[test]
fn unsafe_audit_fires_exactly_on_the_undocumented_site() {
    let file = fixture("missing_safety.rs");
    let (findings, inventory) = unsafe_audit::run(std::slice::from_ref(&file));
    assert_eq!(inventory.len(), 2, "both unsafe blocks inventoried: {inventory:?}");
    assert_eq!(findings.len(), 1, "exactly the undocumented block flagged: {findings:?}");
    assert!(findings[0].file.ends_with("missing_safety.rs"));
    // The flagged site is the one inside `undocumented`, not `documented`.
    let undoc = inventory.iter().find(|s| !s.documented).unwrap();
    assert_eq!(findings[0].line, undoc.line);
    assert!(inventory.iter().any(|s| s.documented && s.safety_excerpt.contains("SAFETY:")));
}

#[test]
fn lock_order_fires_on_the_inverted_path_and_the_undeclared_lock() {
    let manifest = lock_order::Manifest::parse(
        r#"
        [scope]
        paths = ["crates/filter-lint/fixtures/lock_inversion.rs"]
        [[class]]
        name = "routing"
        rank = 10
        files = ["crates/filter-lint/fixtures/lock_inversion.rs"]
        receivers = ["state"]
        methods = ["write", "read"]
        declares = ["state"]
        [[class]]
        name = "backend"
        rank = 20
        files = ["crates/filter-lint/fixtures/lock_inversion.rs"]
        receivers = ["backend"]
        methods = ["read", "write"]
        declares = ["backend"]
        "#,
    )
    .expect("fixture manifest parses");
    let file = fixture("lock_inversion.rs");
    let findings = lock_order::run(&[&file], &manifest);
    assert_eq!(findings.len(), 2, "{findings:?}");
    let inversion = findings.iter().find(|f| f.message.contains("after")).unwrap();
    assert!(
        inversion.message.contains("routing") && inversion.message.contains("backend"),
        "{inversion}"
    );
    let undeclared = findings.iter().find(|f| f.message.contains("not declared")).unwrap();
    assert!(undeclared.message.contains("rogue"), "{undeclared}");
}

#[test]
fn coverage_fires_on_the_orphan_variant_and_the_undecodable_op() {
    let config = coverage::Config {
        kind_file: "crates/filter-lint/fixtures/uncovered_variant.rs".into(),
        kind_enum: "FilterKind".into(),
        tiers: vec![],
        wire_file: Some("crates/filter-lint/fixtures/uncovered_variant.rs".into()),
        wire_enums: vec![coverage::WireEnum {
            name: "OpKind".into(),
            require_all: true,
            arm_fns: vec!["from_u8".into()],
        }],
        wire_test_files: vec![],
    };
    let findings = coverage::run_with(&workspace_root(), &config);
    assert_eq!(findings.len(), 3, "{findings:?}");
    assert!(
        findings.iter().any(|f| f.message.contains("Orphan") && f.message.contains("ALL")),
        "orphan variant must be flagged as missing from ALL: {findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.message.contains("Compact") && f.message.contains("from_u8")),
        "undecodable op must be flagged: {findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.message.contains("Compact") && f.message.contains("test")),
        "untested op must be flagged: {findings:?}"
    );
}

#[test]
fn alloc_bound_fires_on_the_unchecked_decode_only() {
    let file = fixture("unvalidated_capacity.rs");
    let findings = alloc_bound::run(&[&file]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("declared"), "{}", findings[0]);
    // The flagged line is inside decode_unchecked (the first function),
    // well before decode_checked's guarded allocation.
    let guard_line =
        file.lines.iter().find(|l| l.code.contains("fn decode_checked")).map(|l| l.number).unwrap();
    assert!(findings[0].line < guard_line, "guarded decode must stay quiet: {findings:?}");
}

#[test]
fn alloc_bound_fires_on_the_unbounded_pool_acquisition_only() {
    let file = fixture("unbounded_pool.rs");
    let findings = alloc_bound::run(&[&file]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("hint"), "{}", findings[0]);
    // The flagged site is the unbounded acquisition; the const-sized and
    // clamped sites below it must stay quiet.
    let bounded_line =
        file.lines.iter().find(|l| l.code.contains("fn get_bounded")).map(|l| l.number).unwrap();
    assert!(findings[0].line < bounded_line, "bounded acquisitions must stay quiet: {findings:?}");
    // The real pool is in scope for the workspace gate.
    assert!(alloc_bound::in_scope("crates/filter-net/src/pool.rs"));
}

#[test]
fn fixtures_are_excluded_from_the_workspace_scan() {
    let sources = workspace_sources(&workspace_root());
    assert!(!sources.is_empty());
    assert!(
        sources.iter().all(|s| !s.contains("fixtures/")),
        "fixtures must never be linted as first-party code"
    );
    assert!(sources.iter().any(|s| s.ends_with("filter-core/src/wire.rs")));
}

/// The tier-1 gate: every pass, real configuration, zero findings.
#[test]
fn the_workspace_is_lint_clean() {
    let (findings, inventory) = run_all(&workspace_root());
    assert!(
        findings.is_empty(),
        "filter-lint found {} issue(s):\n{}",
        findings.len(),
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
    assert!(inventory.len() >= 7, "expected the full unsafe inventory, got {}", inventory.len());
    assert!(
        inventory.iter().all(|s| s.documented),
        "every unsafe site must carry a SAFETY: comment"
    );
}
