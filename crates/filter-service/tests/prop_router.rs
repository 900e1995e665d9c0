//! Property tests for the consistent-hash ring router and its end-to-end
//! guarantee: routing is a deterministic function of the key, shards
//! partition the key space, ring loads are near-uniform, resizes move a
//! bounded key fraction, and membership through a sharded service never
//! yields false negatives.

use filter_service::{RingRouter, ShardedFilterBuilder};
use proptest::collection::vec;
use proptest::prelude::*;
use tcf::BulkTcf;

/// Deterministic well-mixed probe keys, independent of the router hash.
fn probe_keys(m: u64) -> impl Iterator<Item = u64> {
    (0..m).map(|i| i.wrapping_mul(0x6a09_e667_f3bc_c909).wrapping_add(0xb7e1_5162_8aed_2a6b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ring routing is a pure function of (key, shard count, seed, vnode
    /// count): independently constructed rings always agree.
    #[test]
    fn ring_routing_is_deterministic(keys in vec(any::<u64>(), 1..500), shards in 1usize..32) {
        let a = RingRouter::new(shards);
        let b = RingRouter::new(shards);
        for &k in &keys {
            prop_assert_eq!(a.route(k), b.route(k));
            prop_assert_eq!(a.route(k), a.route(k));
        }
    }

    /// Shards partition the key space: every key routes to exactly one
    /// in-range shard, and partition() scatters the keys so that each
    /// input position is claimed by exactly one shard.
    #[test]
    fn shards_partition_the_key_space(keys in vec(any::<u64>(), 1..500), shards in 1usize..32) {
        let r = RingRouter::new(shards);
        for &k in &keys {
            prop_assert!(r.route(k) < shards, "key routed out of range");
        }
        let (by_shard, positions) = r.partition(&keys);
        prop_assert_eq!(by_shard.len(), shards);
        prop_assert_eq!(positions.len(), shards);
        let total: usize = by_shard.iter().map(|v| v.len()).sum();
        prop_assert_eq!(total, keys.len(), "keys lost or duplicated across shards");
        let mut seen = vec![false; keys.len()];
        for ps in &positions {
            for &p in ps {
                prop_assert!(!seen[p as usize], "input position claimed twice");
                seen[p as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&x| x));
    }

    /// The ring's partition() agrees with route() and preserves input
    /// positions.
    #[test]
    fn ring_partition_matches_route(keys in vec(any::<u64>(), 1..500), shards in 1usize..32) {
        let r = RingRouter::new(shards);
        let (by_shard, positions) = r.partition(&keys);
        for (s, (ks, ps)) in by_shard.iter().zip(&positions).enumerate() {
            prop_assert_eq!(ks.len(), ps.len());
            for (&k, &p) in ks.iter().zip(ps) {
                prop_assert_eq!(r.route(k), s, "key in a shard it does not route to");
                prop_assert_eq!(keys[p as usize], k);
            }
        }
    }

    /// Sampled key loads at the default 128 vnodes stay within ±10% of
    /// uniform — the balance-corrected vnode counts hold the arc-measure
    /// deviation to a few percent, leaving headroom for sampling noise.
    #[test]
    fn ring_load_is_uniform_within_ten_percent(shards in 2usize..17) {
        let m = 100_000u64;
        let r = RingRouter::new(shards);
        let mut counts = vec![0u64; shards];
        for k in probe_keys(m) {
            counts[r.route(k)] += 1;
        }
        let target = m as f64 / shards as f64;
        for (s, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - target).abs() / target;
            prop_assert!(
                dev <= 0.10,
                "shard {}/{} holds {} of target {:.0} ({:+.1}%)",
                s, shards, c, target, 100.0 * (c as f64 - target) / target
            );
        }
    }

    /// An n → n±1 resize re-routes at most 2·m/n of m sampled keys — the
    /// consistent-hashing economics `set_shards` relies on.
    #[test]
    fn ring_resize_moves_a_bounded_fraction(shards in 2usize..24, up in any::<bool>()) {
        let m = 20_000u64;
        let old = RingRouter::new(shards);
        let new_n = if up { shards + 1 } else { shards - 1 };
        let new = RingRouter::new(new_n.max(1));
        let moved = probe_keys(m).filter(|&k| old.route(k) != new.route(k)).count();
        let bound = 2.0 * m as f64 / shards.min(new_n.max(1)) as f64;
        prop_assert!(
            (moved as f64) <= bound,
            "{} → {} moved {}/{} keys, bound {:.0}",
            shards, new_n, moved, m, bound
        );
    }

    /// End-to-end: `contains` after a sharded `insert` never yields a
    /// false negative, for shard counts 1, 2, and 8.
    #[test]
    fn no_false_negatives_across_shard_counts(keys in vec(any::<u64>(), 1..300)) {
        for shards in [1usize, 2, 8] {
            let service = ShardedFilterBuilder::new()
                .shards(shards)
                .batch_capacity(128)
                .build(|_| BulkTcf::new(1 << 12))
                .unwrap();
            let h = service.handle();
            prop_assert_eq!(h.insert_batch(&keys).unwrap(), 0, "shards={}", shards);
            let hits = h.query_batch(&keys).unwrap();
            for (i, &hit) in hits.iter().enumerate() {
                prop_assert!(hit, "false negative for keys[{}] at shards={}", i, shards);
            }
            // The blocking point surface agrees with the batch surface.
            for &k in keys.iter().take(20) {
                prop_assert!(h.contains(k), "point query lost key at shards={}", shards);
            }
        }
    }
}
