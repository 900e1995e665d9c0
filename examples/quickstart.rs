//! Quickstart: the five-minute tour of the v2 API — declare what you
//! need with a `FilterSpec`, let the registry pick and build the backend,
//! and drive everything through one uniform surface.
//!
//! ```sh
//! cargo run --release -p gpu-filters --example quickstart
//! ```
//!
//! # Analysis
//!
//! Everything this tour drives is mechanically checked on every PR:
//! `cargo run -p filter-lint` runs the in-tree static analysis (unsafe
//! audit → `experiments/UNSAFE_AUDIT.json`, lock-order manifest,
//! registry/wire coverage, bounded codec allocation — see
//! `crates/filter-lint/README.md`), and
//! `cargo test --release -p gpu-filters --features race-check --test
//! race_oracle` replays the whole registry under the gpu-sim
//! shadow-memory race sanitizer, asserting every bulk launch touches
//! disjoint slots per simulated worker.

use gpu_filters::prelude::*;

fn main() -> Result<(), FilterError> {
    // ---- 1. Say what you need, not which knobs to turn -----------------
    // 2^16 items at a 0.1% false-positive target. No more guessing
    // q_bits/r_bits/k/bits-per-item per backend.
    let spec = FilterSpec::items(1 << 16).fp_rate(1e-3);

    // The TCF is the paper's default choice (§6.8): fast, deletes, values.
    let tcf = build_filter(FilterKind::TcfPoint, &spec)?;
    tcf.insert(42)?;
    tcf.insert(1337)?;
    assert!(tcf.contains(42)?);
    tcf.remove(42)?;
    assert!(!tcf.contains(42)?);
    println!("TCF via spec: inserted, queried, deleted ✓ ({} bytes)", tcf.table_bytes());

    // ---- 2. Need counting? Ask for it ----------------------------------
    // The registry refuses specs a backend cannot honour…
    assert!(build_filter(FilterKind::TcfPoint, &spec.clone().counting(true)).is_err());
    // …and the GQF honours all of them.
    let gqf = build_filter(FilterKind::GqfPoint, &spec.clone().counting(true))?;
    gqf.insert_count(2024, 95)?;
    for _ in 0..5 {
        gqf.insert(2024)?;
    }
    assert_eq!(gqf.count(2024)?, 100);
    assert_eq!(gqf.count(777)?, 0);
    println!("GQF via spec: counted 100 instances ✓");

    // ---- 3. Bulk APIs with per-key outcomes ----------------------------
    let bulk = build_filter(FilterKind::TcfBulk, &spec)?;
    let keys: Vec<u64> = (0..40_000u64).map(|i| i.wrapping_mul(0x9e3779b97f4a7c15)).collect();
    let mut outcomes = vec![InsertOutcome::Inserted; keys.len()];
    bulk.bulk_insert_report(&keys, &mut outcomes)?;
    let failed = outcomes.iter().filter(|o| o.failed()).count();
    assert_eq!(failed, 0);
    assert!(bulk.bulk_query_vec(&keys)?.iter().all(|&h| h));
    println!("Bulk TCF: {} keys in one batch, 0 per-key failures ✓", keys.len());

    let mut deleted = vec![DeleteOutcome::NotFound; 20_000];
    bulk.bulk_delete_report(&keys[..20_000], &mut deleted)?;
    let removed = deleted.iter().filter(|o| o.removed()).count();
    println!("Bulk TCF: deleted {removed}/20000 with per-key outcomes ✓");

    // ---- 4. Dial bulk-phase parallelism without changing answers -------
    // The bulk partition/sort/apply phases fan out over host workers;
    // `Parallelism` bounds the budget. Any setting yields bit-for-bit
    // identical filters (the parallel-oracle test tier enforces it), so
    // pick per deployment: `Sequential` for reproducible debugging,
    // `Threads(n)` to share cores with other work, `Auto` (default) for
    // the full pool.
    let seq =
        build_filter(FilterKind::TcfBulk, &spec.clone().parallelism(Parallelism::Sequential))?;
    let par =
        build_filter(FilterKind::TcfBulk, &spec.clone().parallelism(Parallelism::Threads(4)))?;
    seq.bulk_insert(&keys)?;
    par.bulk_insert(&keys)?;
    assert_eq!(seq.bulk_query_vec(&keys)?, par.bulk_query_vec(&keys)?);
    println!("Parallelism knob: 4-worker build answers identically to sequential ✓");

    // ---- 5. Let capacity be a lifecycle, not a constant ----------------
    // Under `GrowthPolicy::Auto`, growable kinds (bulk TCF/GQF, SQF,
    // RSQF — see the feature matrix's Grow column) never surface
    // capacity failures: when the load crosses the threshold or a key
    // fails for space, the filter grows in place (quotient-bit extension
    // for the GQF family, block-array doubling for the TCF) and the
    // failed keys are retried. Here a filter sized for 4k items absorbs
    // 40k without a single failure.
    let small_spec = FilterSpec::items(1 << 12).fp_rate(1e-3).growth(GrowthPolicy::AUTO_DEFAULT);
    let growing = build_filter(FilterKind::TcfBulk, &small_spec)?;
    let before = growing.capacity_slots();
    assert_eq!(growing.bulk_insert(&keys)?, 0, "auto-growth absorbs 10x the spec capacity");
    assert!(growing.bulk_query_vec(&keys)?.iter().all(|&h| h));
    println!(
        "GrowthPolicy::Auto: {} keys into a {}-slot spec, grown to {} slots, 0 failures ✓",
        keys.len(),
        before,
        growing.capacity_slots()
    );
    // The capability surface is also explicit: load / grow / merge.
    let mut a = build_filter(FilterKind::GqfBulk, &FilterSpec::items(4096).counting(true))?;
    let b = build_filter(FilterKind::GqfBulk, &FilterSpec::items(4096).counting(true))?;
    a.bulk_insert(&[1, 2, 3])?;
    b.bulk_insert(&[3, 4])?;
    a.grow(2)?; // twice the slots, same answers
    a.merge_from(&*b)?; // absorb b (counts sum)
    assert_eq!(a.bulk_count(&[1, 2, 3, 4])?, vec![1, 1, 2, 1]);
    println!("Lifecycle surface: grow(2) + merge kept every count exact ✓");

    // ---- 6. Put it on the wire -----------------------------------------
    // `filter-net` serves a sharded service over TCP: length-prefixed
    // binary frames in, per-key outcomes back, adaptive batch linger +
    // admission control keeping tail latency bounded under overload.
    // Here: a 2-shard service, a loopback server, and a simulated client
    // fleet (open-loop Poisson arrivals, Zipf keys) hammering it.
    let svc =
        ShardedFilterBuilder::new().shards(2).build(|_| gpu_filters::BulkTcf::new(1 << 16))?;
    let server = gpu_filters::net::serve(
        "127.0.0.1:0",
        svc.handle(),
        svc.control(),
        gpu_filters::net::ServerConfig::default(),
    )
    .expect("bind loopback");
    let report = gpu_filters::net::run_fleet(&gpu_filters::net::FleetConfig {
        addr: server.local_addr(),
        connections: 16,
        rate: 4_000.0,
        duration: std::time::Duration::from_millis(300),
        ..Default::default()
    })
    .expect("fleet");
    assert!(report.complete(), "every request answered");
    let net = server.shutdown().expect("clean shutdown");
    println!(
        "Network tier: {} requests over {} conns, p99 {:.2?}, ledger balanced ✓",
        net.requests(),
        net.conns_accepted,
        report.p99()
    );

    // ---- 7. Or sweep every filter in the workspace ---------------------
    // The benchmark tables are generated exactly this way.
    println!("\nregistry sweep at {} items:", spec.capacity);
    for (kind, built) in all_filters(&spec) {
        match built {
            Ok(f) => println!(
                "  {:<14} {:>9} bytes  {:>12} slots",
                f.name(),
                f.table_bytes(),
                f.capacity_slots()
            ),
            Err(e) => println!("  {:<14} unavailable: {e}", kind.name()),
        }
    }
    Ok(())
}
