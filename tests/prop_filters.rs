//! Property-based tests over the core filter invariants (proptest).

use gpu_filters::prelude::*;
use gpu_filters::substrate::sort::{radix_sort_u64, reduce_by_key};
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// TCF: anything inserted is found; deleted items with no remaining
    /// copies are (w.h.p.) absent — exercised over arbitrary op orders.
    #[test]
    fn tcf_no_false_negatives(keys in vec(any::<u64>(), 1..400)) {
        let f = PointTcf::new(4096).unwrap();
        for &k in &keys {
            f.insert(k).unwrap();
        }
        for &k in &keys {
            prop_assert!(f.contains(k));
        }
    }

    /// GQF: counts are exact for multisets without fingerprint collisions
    /// and never undercount in general.
    #[test]
    fn gqf_counts_never_undercount(
        keys in vec(any::<u64>(), 1..200),
        reps in vec(1u64..20, 1..200),
    ) {
        let f = PointGqf::new(12, 16).unwrap();
        let mut truth = std::collections::HashMap::new();
        for (k, r) in keys.iter().zip(&reps) {
            f.insert_count(*k, *r).unwrap();
            *truth.entry(*k).or_insert(0u64) += *r;
        }
        for (k, want) in truth {
            prop_assert!(f.count(k) >= want);
        }
    }

    /// GQF: arbitrary interleavings of inserts and deletes keep the
    /// structural invariants intact.
    #[test]
    fn gqf_invariants_hold_under_mixed_ops(ops in vec((any::<u16>(), any::<bool>()), 1..300)) {
        let f = PointGqf::new(10, 8).unwrap();
        for (key, is_insert) in ops {
            let k = key as u64;
            if is_insert {
                let _ = f.insert(k);
            } else {
                let _ = f.remove(k);
            }
        }
        f.core().check_invariants();
    }

    /// TCF delete: inserting n copies then deleting n copies leaves the
    /// key absent; deleting more returns false.
    #[test]
    fn tcf_multiset_delete_semantics(key in any::<u64>(), n in 1usize..12) {
        let f = PointTcf::new(2048).unwrap();
        for _ in 0..n {
            f.insert(key).unwrap();
        }
        for _ in 0..n {
            prop_assert!(f.remove(key).unwrap());
        }
        prop_assert!(!f.contains(key));
        prop_assert!(!f.remove(key).unwrap());
    }

    /// Radix sort sorts, stably and completely.
    #[test]
    fn radix_sort_matches_std(mut data in vec(any::<u64>(), 0..2000)) {
        let mut expect = data.clone();
        radix_sort_u64(&mut data);
        expect.sort_unstable();
        prop_assert_eq!(data, expect);
    }

    /// reduce_by_key sums to the input length and matches a HashMap.
    #[test]
    fn reduce_by_key_is_exact(data in vec(0u64..64, 0..2000)) {
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let reduced = reduce_by_key(&sorted);
        let total: u64 = reduced.iter().map(|&(_, c)| c).sum();
        prop_assert_eq!(total as usize, data.len());
        let mut truth = std::collections::HashMap::new();
        for &d in &data {
            *truth.entry(d).or_insert(0u64) += 1;
        }
        for (k, c) in reduced {
            prop_assert_eq!(truth[&k], c);
        }
    }

    /// Bulk TCF ≡ point TCF on membership for random key sets.
    #[test]
    fn bulk_tcf_equals_point_tcf(keys in vec(any::<u64>(), 1..300)) {
        let point = PointTcf::new(2048).unwrap();
        let bulk = BulkTcf::new(2048).unwrap();
        for &k in &keys {
            point.insert(k).unwrap();
        }
        bulk.bulk_insert(&keys).unwrap();
        for &k in &keys {
            prop_assert!(point.contains(k));
        }
        prop_assert!(bulk.bulk_query_vec(&keys).iter().all(|&x| x));
    }

    /// GQF value association: last write wins, zero distinguishable from
    /// absent.
    #[test]
    fn gqf_value_overwrite_semantics(key in any::<u64>(), v1 in 0u64..1000, v2 in 0u64..1000) {
        let f = PointGqf::new(10, 16).unwrap();
        prop_assert_eq!(f.query_value(key), None);
        f.insert_value(key, v1).unwrap();
        prop_assert_eq!(f.query_value(key), Some(v1));
        f.insert_value(key, v2).unwrap();
        prop_assert_eq!(f.query_value(key), Some(v2));
    }
}
