//! Property tests for the baseline filters: the approximate-membership
//! contract (no false negatives), counting soundness for the CBF, delete
//! semantics, and the SQF/RSQF's published configuration limits.

use baselines::{BloomFilter, CountingBloomFilter, CuckooFilter, Rsqf, Sqf};
use filter_core::{BulkFilter, Counting, Deletable, Filter};
use gpu_sim::Device;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bloom: anything inserted answers present, whatever the key mix.
    #[test]
    fn bloom_no_false_negatives(keys in vec(any::<u64>(), 1..500)) {
        let f = BloomFilter::new(keys.len().max(64)).unwrap();
        for &k in &keys {
            f.insert(k).unwrap();
        }
        for &k in &keys {
            prop_assert!(f.contains(k));
        }
    }

    /// CBF: counts never undercount below the saturation ceiling.
    #[test]
    fn cbf_counts_never_undercount(
        inserts in vec(0u64..40, 1..300),
    ) {
        let f = CountingBloomFilter::new(2048).unwrap();
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &k in &inserts {
            f.insert(k).unwrap();
            *truth.entry(k).or_insert(0) += 1;
        }
        for (&k, &c) in &truth {
            let capped = c.min(baselines::counting_bloom::COUNTER_MAX);
            prop_assert!(
                f.count(k) >= capped,
                "key {} counted {} < true {}", k, f.count(k), capped
            );
        }
    }

    /// CBF: deleting exactly what was inserted leaves other keys'
    /// membership intact (the counter sharing never *under*flows).
    #[test]
    fn cbf_delete_preserves_other_keys(
        keep in vec(0u64..500, 1..100),
        churn in vec(500u64..1000, 1..100),
    ) {
        let f = CountingBloomFilter::new(4096).unwrap();
        for &k in &keep {
            f.insert(k).unwrap();
        }
        for &k in &churn {
            f.insert(k).unwrap();
        }
        for &k in &churn {
            f.remove(k).unwrap();
        }
        for &k in &keep {
            prop_assert!(f.contains(k), "churned deletes lost key {}", k);
        }
    }

    /// Cuckoo: no false negatives as long as inserts succeed.
    #[test]
    fn cuckoo_no_false_negatives(keys in vec(any::<u64>(), 1..400)) {
        let f = CuckooFilter::new((keys.len() * 2).max(128)).unwrap();
        let mut stored = Vec::new();
        for &k in &keys {
            if f.insert(k).is_ok() {
                stored.push(k);
            }
        }
        for &k in &stored {
            prop_assert!(f.contains(k));
        }
    }

    /// Cuckoo: delete removes one instance per call (multiset semantics
    /// shared with the TCF/GQF). Duplicates cap at one bucket's worth:
    /// a key whose two candidate buckets coincide can hold only
    /// BUCKET_SLOTS copies — the duplicate-insertion limit Fan et al.
    /// document for cuckoo filters.
    #[test]
    fn cuckoo_delete_multiset(key in any::<u64>(), n in 1usize..5) {
        let f = CuckooFilter::new(256).unwrap();
        for _ in 0..n {
            f.insert(key).unwrap();
        }
        for i in 0..n {
            prop_assert!(f.contains(key), "lost at {}/{}", i, n);
            prop_assert!(f.remove(key).unwrap());
        }
        prop_assert!(!f.contains(key));
    }

    /// SQF bulk contract on arbitrary batches within its size limits.
    #[test]
    fn sqf_no_false_negatives(keys in vec(any::<u64>(), 1..300)) {
        let f = Sqf::new(12, 5, Device::cori()).unwrap();
        let fails = f.insert_batch(&keys);
        prop_assert_eq!(fails, 0);
        let mut out = vec![false; keys.len()];
        f.query_batch(&keys, &mut out);
        for (i, &hit) in out.iter().enumerate() {
            prop_assert!(hit, "key {} lost", i);
        }
    }

    /// RSQF bulk contract (no deletes, queries only).
    #[test]
    fn rsqf_no_false_negatives(keys in vec(any::<u64>(), 1..300)) {
        let f = Rsqf::new(12, 5, Device::cori()).unwrap();
        prop_assert_eq!(f.bulk_insert(&keys).unwrap(), 0);
        let mut out = vec![false; keys.len()];
        f.query_batch(&keys, &mut out);
        for (i, &hit) in out.iter().enumerate() {
            prop_assert!(hit, "key {} lost", i);
        }
    }
}

/// The published implementation limits (§6: "they can only support up to
/// 2^26 items with 5-bit remainders and 2^18 items with 13-bit
/// remainders") are enforced, not just documented.
#[test]
fn sqf_rsqf_published_limits_enforced() {
    // Only 5- and 13-bit remainders exist.
    for bad_r in [4u32, 8, 12, 16] {
        assert!(Sqf::new(12, bad_r, Device::cori()).is_err(), "r={bad_r}");
        assert!(Rsqf::new(12, bad_r, Device::cori()).is_err(), "r={bad_r}");
    }
    // q + r must stay under 32 → q caps at 26 (r=5) and 18 (r=13).
    assert!(Sqf::new(26, 5, Device::cori()).is_ok());
    assert!(Sqf::new(27, 5, Device::cori()).is_err());
    assert!(Sqf::new(18, 13, Device::cori()).is_ok());
    assert!(Sqf::new(19, 13, Device::cori()).is_err());
    assert!(Rsqf::new(27, 5, Device::cori()).is_err());
}
