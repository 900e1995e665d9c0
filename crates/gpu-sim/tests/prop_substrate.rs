//! Property tests for the GPU substrate: packed-buffer semantics, CAS
//! atomicity, and the Thrust-substitute primitives.

use gpu_sim::sort::{radix_sort_pairs, radix_sort_u64, reduce_by_key};
use gpu_sim::GpuBuffer;
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Writes then reads round-trip for every slot width.
    #[test]
    fn buffer_roundtrip_any_width(
        bits in prop_oneof![Just(1u32), Just(5), Just(8), Just(12), Just(13), Just(16), Just(32), Just(64)],
        writes in vec((0usize..500, any::<u64>()), 1..200),
    ) {
        let buf = GpuBuffer::new(500, bits);
        let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
        let mut model = std::collections::HashMap::new();
        for &(slot, v) in &writes {
            buf.write(slot, v & mask);
            model.insert(slot, v & mask);
        }
        for (&slot, &v) in &model {
            prop_assert_eq!(buf.read(slot), v);
        }
    }

    /// A CAS sequence behaves like an atomic register.
    #[test]
    fn cas_register_semantics(ops in vec((any::<u64>(), any::<u64>()), 1..100)) {
        let buf = GpuBuffer::new(4, 16);
        let mut cur = 0u64;
        for &(expect, new) in &ops {
            let (e, n) = (expect & 0xffff, new & 0xffff);
            match buf.cas(1, e, n) {
                Ok(()) => {
                    prop_assert_eq!(e, cur);
                    cur = n;
                }
                Err(actual) => {
                    prop_assert_eq!(actual, cur);
                    prop_assert_ne!(e, cur);
                }
            }
        }
        prop_assert_eq!(buf.read(1), cur);
    }

    /// atomic_add accumulates modulo the slot width.
    #[test]
    fn atomic_add_accumulates(deltas in vec(0u64..1000, 1..100)) {
        let buf = GpuBuffer::new(2, 8);
        let mut sum = 0u64;
        for &d in &deltas {
            buf.atomic_add(0, d);
            sum = (sum + d) & 0xff;
        }
        prop_assert_eq!(buf.read(0), sum);
    }

    #[test]
    fn radix_sort_pairs_matches_stable_sort(data in vec((any::<u64>(), any::<u64>()), 0..3000)) {
        let mut got = data.clone();
        let mut want = data.clone();
        radix_sort_pairs(&mut got);
        want.sort_by_key(|&(k, _)| k);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn radix_sort_u64_sorts(data in vec(any::<u64>(), 0..3000)) {
        let mut got = data.clone();
        let mut want = data;
        radix_sort_u64(&mut got);
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn reduce_by_key_total_is_input_len(data in vec(0u64..100, 0..1000)) {
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let total: u64 = reduce_by_key(&sorted).iter().map(|&(_, c)| c).sum();
        prop_assert_eq!(total as usize, data.len());
    }

    /// Coalesced span writes equal slot-by-slot writes.
    #[test]
    fn coalesced_write_equals_pointwise(vals in vec(0u64..0x10000, 1..200)) {
        let a = GpuBuffer::new(vals.len(), 16);
        let b = GpuBuffer::new(vals.len(), 16);
        a.write_span_coalesced(0, &vals);
        for (i, &v) in vals.iter().enumerate() {
            b.write(i, v);
        }
        prop_assert_eq!(a.to_vec(), b.to_vec());
    }
}
