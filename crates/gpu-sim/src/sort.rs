//! Device-side sorting and reduction primitives — the Thrust substitute.
//!
//! The paper's bulk APIs lean on Thrust for three things: in-place sorts of
//! the input batch (§5.3 "Sorting hashes"), `reduce_by_key` for the
//! map-reduce counting strategy (§5.4), and successor search to locate
//! region-buffer boundaries in the sorted batch. This module provides the
//! first two with Rayon (an LSD radix sort, the algorithm GPU sorts use, and
//! a reduce-by-key); [`crate::Device::launch_even_odd`] does the search.

use crate::metrics::{bump, Counter};
use rayon::prelude::*;

const RADIX_BITS: u32 = 8;
const BUCKETS: usize = 1 << RADIX_BITS;
/// Below this size, a sequential comparison sort beats the parallel radix
/// machinery's constant factors.
const SMALL_SORT: usize = 1 << 14;

/// Raw shared output buffer for the scatter phase. Chunks write disjoint
/// (precomputed) index sets, so the aliasing is safe.
struct ScatterPtr<T>(*mut T);
// SAFETY: ScatterPtr is only shared across the scatter phase's workers;
// each chunk writes exclusively to the index range its prefix-summed
// histogram cursor assigned it, so concurrent writes never overlap. T is
// Send so moving values into the buffer from another thread is sound.
unsafe impl<T: Send> Sync for ScatterPtr<T> {}

/// Charge the device traffic of a Thrust-style radix sort over `n` items
/// of `bytes_per_item`: each of the 8 digit passes streams the data once
/// for histograms and once more (read + write) for the scatter. Bulk-API
/// throughput in the paper includes this preprocessing, so the modeled
/// cost must too.
fn charge_sort_traffic(n: usize, bytes_per_item: usize) {
    let lines_per_stream = (n * bytes_per_item).div_ceil(crate::memory::CACHE_LINE_BYTES) as u64;
    let passes = (64 / RADIX_BITS) as u64;
    bump(Counter::LinesLoaded, 2 * passes * lines_per_stream);
    bump(Counter::LinesStored, passes * lines_per_stream);
}

/// A mutable ping-pong buffer view used by the radix passes.
type Lane<'a, T> = &'a mut [T];
/// [`Lane`] over `(key, value)` pairs.
type PairLane<'a> = Lane<'a, (u64, u64)>;

/// Sort a `u64` slice in place with a parallel LSD radix sort.
pub fn radix_sort_u64(data: &mut [u64]) {
    radix_sort_u64_bounded(data, 0);
}

/// [`radix_sort_u64`] bounded to at most `workers` concurrent scatter
/// tasks (0 = the pool default). The sort is stable and its output is
/// independent of the bound.
pub fn radix_sort_u64_bounded(data: &mut [u64], workers: usize) {
    charge_sort_traffic(data.len(), 8);
    if data.len() < SMALL_SORT {
        data.sort_unstable();
        return;
    }
    let mut aux = vec![0u64; data.len()];
    let mut src_is_data = true;
    // A digit every key shares costs no pass at all.
    for shift in varying_digits(data, workers, |&v| v) {
        let (src, dst): (Lane<'_, u64>, Lane<'_, u64>) =
            if src_is_data { (data, &mut aux) } else { (&mut aux, data) };
        radix_pass(src, dst, shift, workers, |&v| v);
        src_is_data = !src_is_data;
    }
    if !src_is_data {
        data.copy_from_slice(&aux);
    }
}

/// Sort `(key, value)` pairs in place by key (stable within equal keys).
pub fn radix_sort_pairs(data: &mut [(u64, u64)]) {
    radix_sort_pairs_bounded(data, 0);
}

/// [`radix_sort_pairs`] bounded to at most `workers` concurrent scatter
/// tasks (0 = the pool default). Stability makes the output identical for
/// every bound — the property the parallel-oracle test tier leans on.
pub fn radix_sort_pairs_bounded(data: &mut [(u64, u64)], workers: usize) {
    charge_sort_traffic(data.len(), 16);
    if data.len() < SMALL_SORT {
        data.sort_by_key(|&(k, _)| k);
        return;
    }
    let mut aux = vec![(0u64, 0u64); data.len()];
    let mut src_is_data = true;
    // A digit every key shares costs no pass at all.
    for shift in varying_digits(data, workers, |&(k, _)| k) {
        let (src, dst): (PairLane<'_>, PairLane<'_>) =
            if src_is_data { (data, &mut aux) } else { (&mut aux, data) };
        radix_pass(src, dst, shift, workers, |&(k, _)| k);
        src_is_data = !src_is_data;
    }
    if !src_is_data {
        data.copy_from_slice(&aux);
    }
}

/// Segment boundaries of a key-sorted pair batch: `bounds[s]..bounds[s+1]`
/// spans segment `s` (one segment per distinct key; includes the final
/// `len` sentinel). Boundary detection runs data-parallel over the batch
/// in at most `workers` concurrent scan tasks (0 = the pool default); the
/// output is independent of the bound.
pub fn segment_bounds_pairs_bounded(sorted: &[(u64, u64)], workers: usize) -> Vec<usize> {
    debug_assert!(sorted.windows(2).all(|w| w[0].0 <= w[1].0), "input must be key-sorted");
    let min_len = if workers == 0 { 1 } else { sorted.len().div_ceil(workers.max(1)) };
    let mut bounds: Vec<usize> = (0..sorted.len())
        .into_par_iter()
        .with_min_len(min_len)
        .filter(|&i| i == 0 || sorted[i].0 != sorted[i - 1].0)
        .collect();
    bounds.push(sorted.len());
    bounds
}

/// Chunk length of a data-parallel pass over `n` items. Unbounded
/// (`workers` = 0): over-decompose for load balance. Bounded: exactly one
/// chunk per permitted worker.
fn chunk_len(n: usize, workers: usize) -> usize {
    let n_chunks =
        if workers == 0 { rayon::current_num_threads().max(1) * 4 } else { workers.max(1) };
    n.div_ceil(n_chunks).max(1)
}

/// One stable counting pass over `shift..shift+8` key bits, scattering
/// `src` into `dst`. The sorts run it only for digits on which some keys
/// differ ([`varying_digits`]), so no pass is an identity permutation
/// and every pass scatters.
fn radix_pass<T: Copy + Send + Sync>(
    src: &mut [T],
    dst: &mut [T],
    shift: u32,
    workers: usize,
    key: impl Fn(&T) -> u64 + Sync,
) {
    let n = src.len();
    let chunk_len = chunk_len(n, workers);

    // Per-chunk histograms.
    let histograms: Vec<[u32; BUCKETS]> = src
        .par_chunks(chunk_len)
        .map(|chunk| {
            let mut h = [0u32; BUCKETS];
            for item in chunk {
                h[((key(item) >> shift) & 0xff) as usize] += 1;
            }
            h
        })
        .collect();

    // Bucket totals.
    let mut totals = [0u64; BUCKETS];
    for h in &histograms {
        for (b, &c) in h.iter().enumerate() {
            totals[b] += c as u64;
        }
    }

    // Exclusive prefix sum of bucket starts.
    let mut bucket_start = [0u64; BUCKETS];
    let mut acc = 0u64;
    for b in 0..BUCKETS {
        bucket_start[b] = acc;
        acc += totals[b];
    }

    // Per-chunk write cursors: bucket_start + counts of earlier chunks.
    let mut cursors: Vec<[u64; BUCKETS]> = Vec::with_capacity(histograms.len());
    let mut running = bucket_start;
    for h in &histograms {
        cursors.push(running);
        for (b, &c) in h.iter().enumerate() {
            running[b] += c as u64;
        }
    }

    // Scatter: each chunk owns disjoint destination indices by construction.
    let out = ScatterPtr(dst.as_mut_ptr());
    src.par_chunks(chunk_len).zip(cursors.into_par_iter()).for_each(|(chunk, mut cur)| {
        let out = &out;
        for &item in chunk {
            let b = ((key(&item) >> shift) & 0xff) as usize;
            // SAFETY: cursor ranges are disjoint across chunks and within
            // bounds (they partition 0..n).
            unsafe { out.0.add(cur[b] as usize).write(item) };
            cur[b] += 1;
        }
    });
}

/// Shifts of the digits on which some keys differ, ascending: one OR/AND
/// pass over the batch. A digit every key shares would sort as an
/// identity permutation, so it gets no histogram and no scatter — TCF
/// block ids below 2^15 vary in 2 digits, 30-bit GQF hashes in 4.
fn varying_digits<T: Sync>(
    data: &[T],
    workers: usize,
    key: impl Fn(&T) -> u64 + Sync,
) -> impl Iterator<Item = u32> {
    let folds: Vec<(u64, u64)> = data
        .par_chunks(chunk_len(data.len(), workers))
        .map(|chunk| chunk.iter().fold((0, u64::MAX), |(or, and), t| (or | key(t), and & key(t))))
        .collect();
    let (or, and) = folds.iter().fold((0, u64::MAX), |(or, and), &(o, a)| (or | o, and & a));
    let varying = or ^ and;
    (0..64).step_by(RADIX_BITS as usize).filter(move |&shift| (varying >> shift) & 0xff != 0)
}

/// Reduce a *sorted* key slice into `(key, multiplicity)` pairs — Thrust's
/// `reduce_by_key` as used by the GQF's map-reduce counting path.
pub fn reduce_by_key(sorted: &[u64]) -> Vec<(u64, u64)> {
    reduce_by_key_bounded(sorted, 0)
}

/// [`reduce_by_key`] bounded to at most `workers` concurrent scan tasks
/// per phase (0 = the pool default); the output is independent of the
/// bound.
pub fn reduce_by_key_bounded(sorted: &[u64], workers: usize) -> Vec<(u64, u64)> {
    if sorted.is_empty() {
        return Vec::new();
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input must be sorted");
    let min_len = |n: usize| if workers == 0 { 1 } else { n.div_ceil(workers.max(1)) };
    // Segment boundaries: indices where a new key begins.
    let mut bounds: Vec<usize> = (0..sorted.len())
        .into_par_iter()
        .with_min_len(min_len(sorted.len()))
        .filter(|&i| i == 0 || sorted[i] != sorted[i - 1])
        .collect();
    bounds.push(sorted.len());
    bounds
        .par_windows(2)
        .with_min_len(min_len(bounds.len() - 1))
        .map(|w| (sorted[w[0]], (w[1] - w[0]) as u64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn random_vec(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen()).collect()
    }

    #[test]
    fn radix_matches_std_sort_small() {
        let mut a = random_vec(1000, 1);
        let mut b = a.clone();
        radix_sort_u64(&mut a);
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn radix_matches_std_sort_large() {
        let mut a = random_vec(300_000, 2);
        let mut b = a.clone();
        radix_sort_u64(&mut a);
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn radix_handles_duplicates_and_extremes() {
        let mut a = vec![5, 5, 5, 0, u64::MAX, 1, u64::MAX, 0];
        a.extend(random_vec(100_000, 3).iter().map(|v| v % 16));
        let mut b = a.clone();
        radix_sort_u64(&mut a);
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn radix_empty_and_single() {
        let mut e: Vec<u64> = vec![];
        radix_sort_u64(&mut e);
        assert!(e.is_empty());
        let mut s = vec![42u64];
        radix_sort_u64(&mut s);
        assert_eq!(s, vec![42]);
    }

    #[test]
    fn only_digits_some_keys_differ_on_get_a_pass() {
        // Keys that differ only in bits 40..42 and 8..10, over a shared
        // constant byte: two varying digits, and a stable sort by them.
        let keys: Vec<u64> = (0..50_000u64).map(|i| (i % 5) << 40 | (i % 3) << 8 | 0xAB).collect();
        assert_eq!(varying_digits(&keys, 0, |&k| k).collect::<Vec<_>>(), vec![8, 40]);
        let mut pairs: Vec<(u64, u64)> = keys.iter().copied().zip(0..).collect();
        let mut expect = pairs.clone();
        expect.sort_by_key(|&(k, _)| k);
        radix_sort_pairs(&mut pairs);
        assert_eq!(pairs, expect);
        // Equal keys: no pass at all, and the data stays as it was.
        assert_eq!(varying_digits(&[7u64; 20_000], 2, |&k| k).count(), 0);
        let mut same = vec![7u64; 20_000];
        radix_sort_u64_bounded(&mut same, 2);
        assert!(same.iter().all(|&k| k == 7));
    }

    #[test]
    fn pair_sort_is_stable_by_key() {
        // Equal keys keep their original payload order (LSD radix is stable).
        let mut pairs: Vec<(u64, u64)> = (0..200_000u64).map(|i| (i % 16, i)).collect();
        radix_sort_pairs(&mut pairs);
        for w in pairs.windows(2) {
            assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "stability violated for key {}", w[0].0);
            }
        }
    }

    #[test]
    fn pair_sort_matches_std() {
        let mut pairs: Vec<(u64, u64)> =
            random_vec(150_000, 4).into_iter().enumerate().map(|(i, k)| (k, i as u64)).collect();
        let mut expect = pairs.clone();
        radix_sort_pairs(&mut pairs);
        expect.sort_by_key(|&(k, _)| k);
        assert_eq!(pairs.len(), expect.len());
        for (a, b) in pairs.iter().zip(&expect) {
            assert_eq!(a.0, b.0);
        }
    }

    #[test]
    fn reduce_by_key_matches_hashmap() {
        let mut data: Vec<u64> = random_vec(100_000, 5).into_iter().map(|v| v % 1000).collect();
        let mut expect = std::collections::HashMap::<u64, u64>::new();
        for &k in &data {
            *expect.entry(k).or_default() += 1;
        }
        radix_sort_u64(&mut data);
        let reduced = reduce_by_key(&data);
        assert_eq!(reduced.len(), expect.len());
        for (k, c) in reduced {
            assert_eq!(expect[&k], c, "key {k}");
        }
    }

    #[test]
    fn reduce_by_key_empty() {
        assert!(reduce_by_key(&[]).is_empty());
    }

    #[test]
    fn reduce_by_key_single_run() {
        assert_eq!(reduce_by_key(&[7, 7, 7]), vec![(7, 3)]);
    }

    #[test]
    fn bounded_sorts_match_unbounded_for_every_budget() {
        let base: Vec<(u64, u64)> = random_vec(120_000, 7)
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k % 512, i as u64))
            .collect();
        let mut expect = base.clone();
        radix_sort_pairs(&mut expect);
        for workers in [1usize, 2, 3, 8] {
            let mut got = base.clone();
            radix_sort_pairs_bounded(&mut got, workers);
            assert_eq!(got, expect, "pair sort diverged at workers={workers}");
        }
        let base: Vec<u64> = random_vec(80_000, 8);
        let mut expect = base.clone();
        radix_sort_u64(&mut expect);
        for workers in [1usize, 2, 7] {
            let mut got = base.clone();
            radix_sort_u64_bounded(&mut got, workers);
            assert_eq!(got, expect, "u64 sort diverged at workers={workers}");
        }
        let mut sorted: Vec<u64> = base.iter().map(|v| v % 4096).collect();
        radix_sort_u64(&mut sorted);
        let expect = reduce_by_key(&sorted);
        for workers in [1usize, 2, 3, 8] {
            let got = reduce_by_key_bounded(&sorted, workers);
            assert_eq!(got, expect, "reduce_by_key diverged at workers={workers}");
        }
    }

    #[test]
    fn segment_bounds_partition_sorted_pairs() {
        let mut pairs: Vec<(u64, u64)> = (0..50_000u64).map(|i| ((i * 31) % 97, i)).collect();
        radix_sort_pairs(&mut pairs);
        let bounds = segment_bounds_pairs_bounded(&pairs, 2);
        assert_eq!(bounds[0], 0);
        assert_eq!(*bounds.last().unwrap(), pairs.len());
        for w in bounds.windows(2) {
            let seg = &pairs[w[0]..w[1]];
            assert!(!seg.is_empty(), "segments are non-empty by construction");
            assert!(seg.iter().all(|&(k, _)| k == seg[0].0), "mixed keys in one segment");
            if w[1] < pairs.len() {
                assert_ne!(pairs[w[1]].0, seg[0].0, "split mid-segment");
            }
        }
        assert_eq!(segment_bounds_pairs_bounded(&[], 2), vec![0]);
    }
}
