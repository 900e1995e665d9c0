//! The bulk GQF: coordinated lock-free batch operations (§5.3–5.4).
//!
//! Every batch operation runs the substrate's bulk-synchronous phases:
//!
//! 1. **hash** — keys map onto stored hashes in parallel
//!    ([`Device::par_map`]);
//! 2. **sort** — the Thrust in-place sort of §5.3 ([`Device::sort_u64`],
//!    or [`Device::sort_pairs`] when a count, value or batch index rides
//!    along), plus the map-reduce path's **reduce**
//!    ([`Device::reduce_by_key`]);
//! 3. **apply** — [`Device::launch_even_odd`]: successor search cuts the
//!    sorted batch into 8192-slot region buffers (index ranges into the
//!    batch, exactly the zero-allocation pointer trick the paper
//!    describes), then threads own the even regions, then the odd ones. A
//!    thread shifting past its region's end only ever reaches the (idle)
//!    next region, so no locks are needed — the even-odd scheme the paper
//!    proposes for any linear-probing structure.
//!
//! For skewed count distributions, [`BulkGqf::insert_batch_mapreduce`]
//! reduces the sorted batch to `(item, count)` pairs (Thrust
//! `reduce_by_key`), turning millions of contended single inserts into
//! one counted insert per distinct item (§5.4). It shares one counted
//! apply with [`BulkGqf::insert_counted_batch`] and the grow/merge refill.
//!
//! Every phase is bounded by the spec's
//! [`Parallelism`](filter_core::Parallelism) worker budget and is
//! scheduling-independent, so any budget produces identical filters.

use crate::core::GqfCore;
use crate::layout::Layout;
use filter_core::{
    ApiMode, BulkDeletable, BulkFilter, DeleteOutcome, Features, FilterError, FilterMeta,
    FilterSpec, InsertOutcome, Operation,
};
use gpu_sim::Device;
use std::sync::atomic::{AtomicBool, Ordering};

/// Counted apply: insert key-sorted `(hash, count)` pairs into `core`
/// through the even-odd phases, each hash split under `core`'s layout.
/// Returns the count that could not be placed.
fn insert_counted_sorted(core: &GqfCore, device: &Device, sorted: &[(u64, u64)]) -> usize {
    let l = *core.layout();
    device.launch_even_odd(
        sorted,
        l.n_regions(),
        l.region_span(),
        |&(h, _)| h,
        |items| {
            let mut fails = 0usize;
            for &(h, c) in items {
                let (q, r) = l.split(h);
                if core.upsert(q, r, c).is_err() {
                    fails += c as usize;
                }
            }
            fails
        },
    )
}

/// Refill `target` from `src`'s enumerated `(hash, count)` multiset,
/// re-splitting each lossless stored hash under `target`'s layout. Both
/// layouts must store the same `p = q + r` bits so the re-split loses
/// nothing — the quotient-bit-extension migration behind
/// [`grow`](filter_core::MaintainableFilter::grow) and
/// [`merge`](filter_core::MaintainableFilter::merge). Returns the count
/// that could not be placed.
fn refill_core(target: &GqfCore, device: &Device, src: &GqfCore) -> Result<usize, FilterError> {
    let from = src.layout();
    let to = target.layout();
    if from.q_bits + from.r_bits != to.q_bits + to.r_bits {
        return Err(FilterError::BadConfig(format!(
            "hash widths differ: p={} vs p={} — filters must share a stored-hash width",
            from.q_bits + from.r_bits,
            to.q_bits + to.r_bits
        )));
    }
    let mut pairs: Vec<(u64, u64)> = src.enumerate();
    device.sort_pairs(&mut pairs);
    Ok(insert_counted_sorted(target, device, &pairs))
}

/// A bulk-API GPU counting quotient filter.
///
/// ```
/// use gqf::BulkGqf;
///
/// let f = BulkGqf::new_cori(12, 8).unwrap();
/// let batch = vec![1u64, 2, 2, 3, 3, 3];
/// assert_eq!(f.insert_batch(&batch), 0);
/// assert_eq!(f.count_batch(&[1, 2, 3, 4]), vec![1, 2, 3, 0]);
/// ```
pub struct BulkGqf {
    core: GqfCore,
    device: Device,
    max_load: f64,
}

impl BulkGqf {
    /// Build with `2^q` slots and `r`-bit remainders on `device`.
    pub fn new(q_bits: u32, r_bits: u32, device: Device) -> Result<Self, FilterError> {
        let layout = Layout::new(q_bits, r_bits)?;
        Ok(BulkGqf { core: GqfCore::new(layout), device, max_load: 0.9 })
    }

    /// Build on the Cori (V100) device model.
    pub fn new_cori(q_bits: u32, r_bits: u32) -> Result<Self, FilterError> {
        Self::new(q_bits, r_bits, Device::cori())
    }

    /// Build from a declarative [`FilterSpec`]: sized so `spec.capacity`
    /// items fit at the recommended 90% load, with the word-aligned
    /// remainder width meeting `spec.fp_rate`, on the spec's device model
    /// with the spec's host-parallelism budget.
    pub fn from_spec(spec: &FilterSpec) -> Result<Self, FilterError> {
        spec.validate()?;
        let layout = Layout::for_fp_rate(spec.slots_for_load(0.9) as u64, spec.fp_rate)?;
        Ok(BulkGqf {
            core: GqfCore::new(layout),
            device: Device::for_model_name(spec.device.name())
                .with_workers(spec.parallelism.workers()),
            max_load: 0.9,
        })
    }

    /// Shared core.
    pub fn core(&self) -> &GqfCore {
        &self.core
    }

    /// The simulated device the batch phases run on.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Current load factor.
    pub fn load_factor(&self) -> f64 {
        self.core.load_factor()
    }

    /// Hash of a key, masked to the stored p = q + r bits.
    #[inline]
    fn stored_hash(&self, key: u64) -> u64 {
        let l = self.core.layout();
        let (q, r) = l.split(filter_core::hash64(key));
        l.join(q, r)
    }

    /// Hash and sort phases for a plain batch: the sorted stored hashes.
    fn sorted_hashes(&self, keys: &[u64]) -> Vec<u64> {
        let mut hashes = self.device.par_map(keys.len(), |i| self.stored_hash(keys[i]));
        self.device.sort_u64(&mut hashes);
        hashes
    }

    /// Hash and sort phases for a pair batch: `item(i)` gives the key and
    /// payload of item `i`, and the result holds `(stored hash, payload)`
    /// pairs sorted stably by hash.
    fn sorted_pairs(&self, n: usize, item: impl Fn(usize) -> (u64, u64) + Sync) -> Vec<(u64, u64)> {
        let mut pairs = self.device.par_map(n, |i| {
            let (key, payload) = item(i);
            (self.stored_hash(key), payload)
        });
        self.device.sort_pairs(&mut pairs);
        pairs
    }

    /// Effective parallelism of a phased batch under skew (§5.4): each
    /// phase is bounded by its most loaded region, so the device sees at
    /// most `total / max_region_items` concurrently useful lanes. A
    /// Zipfian batch collapses this to a handful (the hot item's region
    /// holds most of the batch); the map-reduce pre-pass restores it by
    /// shrinking the hot buffer to one counted entry.
    pub fn effective_parallelism(&self, keys: &[u64]) -> u64 {
        let l = self.core.layout();
        let mut per_region = vec![0usize; l.n_regions()];
        for &k in keys {
            per_region[l.region_of(l.split(filter_core::hash64(k)).0)] += 1;
        }
        let max_items = per_region.iter().copied().max().unwrap_or(0).max(1);
        let nonempty = per_region.iter().filter(|&&n| n > 0).count();
        ((keys.len() / max_items).max(1)).min(nonempty.max(1)) as u64
    }

    /// Insert a batch of keys. Returns the number of items that could not
    /// be placed (0 on success).
    pub fn insert_batch(&self, keys: &[u64]) -> usize {
        let hashes = self.sorted_hashes(keys);
        let l = *self.core.layout();
        self.device.launch_even_odd(
            &hashes,
            l.n_regions(),
            l.region_span(),
            |&h| h,
            |items| {
                let mut fails = 0usize;
                for &h in items {
                    let (q, r) = l.split(h);
                    if self.core.upsert(q, r, 1).is_err() {
                        fails += 1;
                    }
                }
                fails
            },
        )
    }

    /// Insert a batch with per-key outcomes: `out[i]` answers `keys[i]`.
    /// Same even-odd phased flow as [`Self::insert_batch`], with batch
    /// indices riding through the sort so failures are attributable.
    pub fn insert_batch_report(&self, keys: &[u64], out: &mut [InsertOutcome]) {
        assert_eq!(keys.len(), out.len());
        let hashed = self.sorted_pairs(keys.len(), |i| (keys[i], i as u64));
        let l = *self.core.layout();
        let failed: Vec<AtomicBool> = (0..keys.len()).map(|_| AtomicBool::new(false)).collect();
        self.device.launch_even_odd(
            &hashed,
            l.n_regions(),
            l.region_span(),
            |&(h, _)| h,
            |items| {
                for &(h, idx) in items {
                    let (q, r) = l.split(h);
                    if self.core.upsert(q, r, 1).is_err() {
                        failed[idx as usize].store(true, Ordering::Relaxed);
                    }
                }
                0
            },
        );
        for (o, f) in out.iter_mut().zip(failed) {
            *o = if f.into_inner() { InsertOutcome::Failed } else { InsertOutcome::Inserted };
        }
    }

    /// Insert a batch with the map-reduce preprocessing of §5.4: sort,
    /// reduce duplicates to `(hash, count)`, then one counted insert per
    /// distinct item.
    pub fn insert_batch_mapreduce(&self, keys: &[u64]) -> usize {
        let reduced = self.device.reduce_by_key(&self.sorted_hashes(keys));
        insert_counted_sorted(&self.core, &self.device, &reduced)
    }

    /// Insert pre-counted `(key, count)` pairs.
    pub fn insert_counted_batch(&self, pairs: &[(u64, u64)]) -> usize {
        let hashed = self.sorted_pairs(pairs.len(), |i| pairs[i]);
        insert_counted_sorted(&self.core, &self.device, &hashed)
    }

    /// Query a batch; `out[i]` answers `keys[i]`.
    pub fn query_batch(&self, keys: &[u64], out: &mut [bool]) {
        assert_eq!(keys.len(), out.len());
        let counts = self.count_batch(keys);
        for (o, c) in out.iter_mut().zip(counts) {
            *o = c > 0;
        }
    }

    /// Count a batch.
    pub fn count_batch(&self, keys: &[u64]) -> Vec<u64> {
        let out: Vec<std::sync::atomic::AtomicU64> =
            (0..keys.len()).map(|_| std::sync::atomic::AtomicU64::new(0)).collect();
        let l = *self.core.layout();
        let out_ref = &out;
        self.device.launch_point(keys.len(), 1, |i| {
            let (q, r) = l.split(self.stored_hash(keys[i]));
            out_ref[i].store(self.core.query(q, r), Ordering::Relaxed);
        });
        out.into_iter().map(|a| a.into_inner()).collect()
    }

    /// Associate small values with keys in bulk. A value `v` rides in the
    /// variable-sized counters as count `v + 1` (the Mantis re-purposing
    /// the paper cites in §2), so this must not be mixed with counting
    /// inserts for the same keys. Values ≥ 2 encode as counter groups of
    /// up to `4 + ⌈log2(v)/r⌉` slots — size the filter for ~5 slots per
    /// association when values use the full small-value range. Existing associations are replaced;
    /// duplicate keys within one batch resolve to the *last* pair in batch
    /// order (the sort is stable on the hash, and within a region the
    /// replace-then-insert sequence is exclusive, so the outcome is
    /// deterministic). Returns the number of pairs that could not be
    /// placed.
    pub fn insert_values_batch(&self, pairs: &[(u64, u64)]) -> usize {
        let hashed = self.sorted_pairs(pairs.len(), |i| pairs[i]);
        let l = *self.core.layout();
        self.device.launch_even_odd(
            &hashed,
            l.n_regions(),
            l.region_span(),
            |&(h, _)| h,
            |items| {
                let mut fails = 0usize;
                for &(h, v) in items {
                    let (q, r) = l.split(h);
                    let existing = self.core.query(q, r);
                    if existing > 0 && self.core.delete(q, r, existing).is_err() {
                        fails += 1;
                        continue;
                    }
                    if self.core.upsert(q, r, v + 1).is_err() {
                        fails += 1;
                    }
                }
                fails
            },
        )
    }

    /// Look up the values associated with a batch of keys; `None` when the
    /// key is absent. A false positive (rate ε) may surface a colliding
    /// key's value.
    pub fn query_values_batch(&self, keys: &[u64]) -> Vec<Option<u64>> {
        self.count_batch(keys)
            .into_iter()
            .map(|c| if c == 0 { None } else { Some(c - 1) })
            .collect()
    }

    /// Delete a batch of previously inserted keys in two phases,
    /// processing each region's items in descending order. A delete
    /// slides only the cluster tail after its run left, so deleting
    /// larger items first leaves each slide less to move ("deleting
    /// larger items first" minimizes left-shifting, §6.4). Returns the
    /// count not found.
    pub fn delete_batch(&self, keys: &[u64]) -> usize {
        let hashes = self.sorted_hashes(keys);
        let l = *self.core.layout();
        self.device.launch_even_odd(
            &hashes,
            l.n_regions(),
            l.region_span(),
            |&h| h,
            |items| {
                let mut missing = 0usize;
                for &h in items.iter().rev() {
                    let (q, r) = l.split(h);
                    if !matches!(self.core.delete(q, r, 1), Ok(true)) {
                        missing += 1;
                    }
                }
                missing
            },
        )
    }

    /// Delete a batch with per-key outcomes: `out[i]` answers `keys[i]`.
    /// Two phases, descending within each region like
    /// [`Self::delete_batch`], with batch indices riding through the sort.
    pub fn delete_batch_report(&self, keys: &[u64], out: &mut [DeleteOutcome]) {
        assert_eq!(keys.len(), out.len());
        let hashed = self.sorted_pairs(keys.len(), |i| (keys[i], i as u64));
        let l = *self.core.layout();
        let removed: Vec<AtomicBool> = (0..keys.len()).map(|_| AtomicBool::new(false)).collect();
        self.device.launch_even_odd(
            &hashed,
            l.n_regions(),
            l.region_span(),
            |&(h, _)| h,
            |items| {
                for &(h, idx) in items.iter().rev() {
                    let (q, r) = l.split(h);
                    if matches!(self.core.delete(q, r, 1), Ok(true)) {
                        removed[idx as usize].store(true, Ordering::Relaxed);
                    }
                }
                0
            },
        );
        for (o, r) in out.iter_mut().zip(removed) {
            *o = if r.into_inner() { DeleteOutcome::Removed } else { DeleteOutcome::NotFound };
        }
    }
}

impl filter_core::MaintainableFilter for BulkGqf {
    fn load(&self) -> f64 {
        self.core.load_factor().clamp(0.0, 1.0)
    }

    /// Quotient-bit extension (q+d, r−d): the table multiplies by
    /// `factor` while the stored `p = q + r` hash bits — and therefore
    /// every membership answer and count — carry over losslessly. Runs
    /// the same enumerate → device sort → even-odd phased apply pipeline
    /// as every bulk path, so any worker budget grows into a bit-identical
    /// filter. On error the filter is unchanged.
    fn grow(&mut self, factor: u32) -> Result<(), FilterError> {
        let d = filter_core::growth_steps(factor)?;
        let old = *self.core.layout();
        if old.r_bits < d + 2 {
            return Err(FilterError::BadConfig(format!(
                "cannot extend quotient by {d} bits: only {} remainder bits left",
                old.r_bits
            )));
        }
        let bigger = GqfCore::new(Layout::new(old.q_bits + d, old.r_bits - d)?);
        if refill_core(&bigger, &self.device, &self.core)? > 0 {
            return Err(FilterError::Full);
        }
        self.core = bigger;
        Ok(())
    }

    /// Absorb `other`'s multiset (counts summed). Requires the same
    /// stored-hash width `p = q + r` — which filters built from one spec
    /// keep across any number of grows. Builds the union into a fresh
    /// core first, so a refusal ([`FilterError::NeedsGrowth`]) leaves
    /// `self` untouched.
    fn merge(&mut self, other: &Self) -> Result<(), FilterError> {
        let union = GqfCore::new(*self.core.layout());
        for src in [&self.core, &other.core] {
            if refill_core(&union, &self.device, src)? > 0 {
                return Err(FilterError::needs_growth(self.core.load_factor()));
            }
        }
        if union.load_factor() > self.max_load {
            return Err(FilterError::needs_growth(union.load_factor()));
        }
        self.core = union;
        Ok(())
    }
}

impl FilterMeta for BulkGqf {
    fn name(&self) -> &'static str {
        "GQF-Bulk"
    }

    fn features(&self) -> Features {
        Features::new("GQF-Bulk")
            .with(Operation::Insert, ApiMode::Bulk)
            .with(Operation::Query, ApiMode::Bulk)
            .with(Operation::Delete, ApiMode::Bulk)
            .with(Operation::Count, ApiMode::Bulk)
            .with_growth()
    }

    fn table_bytes(&self) -> usize {
        self.core.bytes()
    }

    fn capacity_slots(&self) -> u64 {
        self.core.layout().canonical_slots() as u64
    }

    fn max_load_factor(&self) -> f64 {
        self.max_load
    }
}

impl BulkFilter for BulkGqf {
    fn bulk_insert_report(
        &self,
        keys: &[u64],
        out: &mut [InsertOutcome],
    ) -> Result<(), FilterError> {
        self.insert_batch_report(keys, out);
        Ok(())
    }

    fn bulk_insert(&self, keys: &[u64]) -> Result<usize, FilterError> {
        Ok(self.insert_batch(keys))
    }

    fn bulk_query(&self, keys: &[u64], out: &mut [bool]) {
        self.query_batch(keys, out)
    }
}

impl BulkDeletable for BulkGqf {
    fn bulk_delete_report(
        &self,
        keys: &[u64],
        out: &mut [DeleteOutcome],
    ) -> Result<(), FilterError> {
        self.delete_batch_report(keys, out);
        Ok(())
    }

    fn bulk_delete(&self, keys: &[u64]) -> Result<usize, FilterError> {
        Ok(self.delete_batch(keys))
    }
}

impl filter_core::DynFilter for BulkGqf {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.core.items())
    }

    filter_core::dyn_forward_bulk!();
    filter_core::dyn_forward_bulk_delete!();
    filter_core::dyn_forward_maintain!(BulkGqf);

    fn bulk_count(&self, keys: &[u64]) -> Result<Vec<u64>, FilterError> {
        Ok(self.count_batch(keys))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use filter_core::hashed_keys;

    fn filter(q: u32) -> BulkGqf {
        BulkGqf::new_cori(q, 8).unwrap()
    }

    #[test]
    fn bulk_insert_query_roundtrip() {
        let f = filter(14);
        let keys = hashed_keys(51, 10_000);
        assert_eq!(f.insert_batch(&keys), 0);
        let mut out = vec![false; keys.len()];
        f.query_batch(&keys, &mut out);
        assert!(out.iter().all(|&x| x));
        f.core().check_invariants();
    }

    #[test]
    fn one_big_batch_to_90_percent() {
        let f = filter(14);
        let n = ((1usize << 14) as f64 * 0.9) as usize;
        let keys = hashed_keys(52, n);
        assert_eq!(f.insert_batch(&keys), 0);
        assert!(f.load_factor() >= 0.85, "load {}", f.load_factor());
        let mut out = vec![false; n];
        f.query_batch(&keys, &mut out);
        assert!(out.iter().all(|&x| x));
        f.core().check_invariants();
    }

    #[test]
    fn duplicates_in_batch_are_counted() {
        let f = filter(12);
        let k = hashed_keys(53, 1)[0];
        let batch: Vec<u64> = std::iter::repeat_n(k, 50).collect();
        assert_eq!(f.insert_batch(&batch), 0);
        assert_eq!(f.count_batch(&[k]), vec![50]);
    }

    #[test]
    fn mapreduce_equals_naive_counting() {
        let f1 = filter(13);
        let f2 = filter(13);
        // Zipf-ish batch: many duplicates.
        let base = hashed_keys(54, 200);
        let mut batch = Vec::new();
        for (i, &k) in base.iter().enumerate() {
            for _ in 0..=(i % 17) {
                batch.push(k);
            }
        }
        assert_eq!(f1.insert_batch(&batch), 0);
        assert_eq!(f2.insert_batch_mapreduce(&batch), 0);
        for &k in &base {
            assert_eq!(
                f1.count_batch(&[k]),
                f2.count_batch(&[k]),
                "map-reduce must produce identical counts"
            );
        }
        f1.core().check_invariants();
        f2.core().check_invariants();
    }

    #[test]
    fn counted_batch_inserts() {
        let f = filter(12);
        let keys = hashed_keys(55, 100);
        let pairs: Vec<(u64, u64)> =
            keys.iter().enumerate().map(|(i, &k)| (k, (i + 1) as u64)).collect();
        assert_eq!(f.insert_counted_batch(&pairs), 0);
        let counts = f.count_batch(&keys);
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(*c, (i + 1) as u64);
        }
    }

    #[test]
    fn bulk_delete_removes_batch() {
        let f = filter(13);
        let keys = hashed_keys(56, 4000);
        f.insert_batch(&keys);
        assert_eq!(f.delete_batch(&keys[..2000]), 0);
        let mut out = vec![false; 2000];
        f.query_batch(&keys[2000..], &mut out);
        assert!(out.iter().all(|&x| x), "survivors remain");
        f.query_batch(&keys[..2000], &mut out);
        let fp = out.iter().filter(|&&x| x).count();
        assert!(fp < 40, "deleted keys should be gone (fp {fp})");
        f.core().check_invariants();
    }

    #[test]
    fn multiple_batches_accumulate() {
        let f = filter(14);
        for round in 0..4u64 {
            let keys = hashed_keys(570 + round, 2000);
            assert_eq!(f.insert_batch(&keys), 0);
        }
        assert_eq!(f.core().items(), 8000);
        f.core().check_invariants();
    }

    #[test]
    fn empty_batch_is_noop() {
        let f = filter(12);
        assert_eq!(f.insert_batch(&[]), 0);
        assert_eq!(f.delete_batch(&[]), 0);
        let out = f.count_batch(&[]);
        assert!(out.is_empty());
    }

    #[test]
    fn bulk_values_roundtrip() {
        // 16-bit remainders: p = 29 bits, so 1500 keys collide with
        // probability ~2^-10 — any mismatch would be a real bug, not a
        // fingerprint collision.
        let f = BulkGqf::new_cori(13, 16).unwrap();
        let keys = hashed_keys(60, 1500);
        let pairs: Vec<(u64, u64)> =
            keys.iter().enumerate().map(|(i, &k)| (k, (i % 250) as u64)).collect();
        assert_eq!(f.insert_values_batch(&pairs), 0);
        let got = f.query_values_batch(&keys);
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, Some((i % 250) as u64), "key {i}");
        }
        f.core().check_invariants();
    }

    #[test]
    fn bulk_values_zero_is_distinguishable_from_absent() {
        let f = filter(12);
        let keys = hashed_keys(61, 50);
        let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, 0)).collect();
        assert_eq!(f.insert_values_batch(&pairs), 0);
        assert!(f.query_values_batch(&keys).iter().all(|&v| v == Some(0)));
        let fresh = hashed_keys(6100, 50);
        let miss = f.query_values_batch(&fresh);
        let hits = miss.iter().filter(|v| v.is_some()).count();
        assert!(hits <= 2, "absent keys should be None (got {hits} hits)");
    }

    #[test]
    fn bulk_values_overwrite_across_batches() {
        let f = filter(12);
        let keys = hashed_keys(62, 300);
        let first: Vec<(u64, u64)> = keys.iter().map(|&k| (k, 7)).collect();
        let second: Vec<(u64, u64)> = keys.iter().map(|&k| (k, 1000)).collect();
        assert_eq!(f.insert_values_batch(&first), 0);
        assert_eq!(f.insert_values_batch(&second), 0);
        assert!(f.query_values_batch(&keys).iter().all(|&v| v == Some(1000)));
        f.core().check_invariants();
    }

    #[test]
    fn bulk_values_duplicate_keys_resolve_to_last() {
        let f = filter(12);
        let k = hashed_keys(63, 1)[0];
        assert_eq!(f.insert_values_batch(&[(k, 3), (k, 9), (k, 5)]), 0);
        assert_eq!(f.query_values_batch(&[k]), vec![Some(5)]);
    }

    #[test]
    fn bulk_filter_trait_usable() {
        let f = filter(12);
        let keys = hashed_keys(58, 500);
        let dyn_f: &dyn BulkFilter = &f;
        dyn_f.bulk_insert(&keys).unwrap();
        assert!(dyn_f.bulk_query_vec(&keys).iter().all(|&x| x));
    }

    #[test]
    fn per_key_report_matches_plain_batch() {
        // Same batch through the aggregate and report paths must leave
        // identical filter contents and consistent failure accounting.
        let a = filter(12);
        let b = filter(12);
        let keys = hashed_keys(59, 3000);
        let plain_fails = a.insert_batch(&keys);
        let mut out = vec![InsertOutcome::Inserted; keys.len()];
        b.insert_batch_report(&keys, &mut out);
        assert_eq!(plain_fails, out.iter().filter(|o| o.failed()).count());
        let probe: Vec<u64> = keys.iter().copied().chain(hashed_keys(60, 1000)).collect();
        assert_eq!(a.count_batch(&probe), b.count_batch(&probe));
    }

    #[test]
    fn per_key_delete_outcomes_track_multiset() {
        let f = filter(12);
        let key = hashed_keys(61, 1)[0];
        assert_eq!(f.insert_batch(&[key, key]), 0);
        let mut out = vec![DeleteOutcome::NotFound; 3];
        f.delete_batch_report(&[key, key, key], &mut out);
        // Two instances removable, the third delete misses.
        assert_eq!(out.iter().filter(|o| o.removed()).count(), 2);
        assert_eq!(f.count_batch(&[key]), vec![0]);
        f.core().check_invariants();
    }

    #[test]
    fn every_worker_budget_builds_an_identical_filter() {
        use filter_core::Parallelism;
        let spec = FilterSpec::items(8000).fp_rate(0.004).counting(true);
        let oracle =
            BulkGqf::from_spec(&spec.clone().parallelism(Parallelism::Sequential)).unwrap();
        let keys = hashed_keys(65, 8000);
        let dupes: Vec<u64> = keys[..500].iter().flat_map(|&k| [k, k]).collect();
        let probes = hashed_keys(66, 40_000);
        assert_eq!(oracle.insert_batch(&keys), 0);
        assert_eq!(oracle.insert_batch(&dupes), 0);
        assert_eq!(oracle.delete_batch(&keys[..3000]), 0);
        let oracle_counts = oracle.count_batch(&probes);
        let oracle_present = oracle.count_batch(&keys);
        for workers in [1u32, 2, 8] {
            let f = BulkGqf::from_spec(&spec.clone().parallelism(Parallelism::Threads(workers)))
                .unwrap();
            assert_eq!(f.insert_batch(&keys), 0, "w={workers}");
            assert_eq!(f.insert_batch(&dupes), 0, "w={workers}");
            assert_eq!(f.delete_batch(&keys[..3000]), 0, "w={workers}");
            assert_eq!(f.count_batch(&probes), oracle_counts, "probe counts, w={workers}");
            assert_eq!(f.count_batch(&keys), oracle_present, "present counts, w={workers}");
            f.core().check_invariants();
        }
    }

    #[test]
    fn from_spec_picks_aligned_remainder() {
        let f = BulkGqf::from_spec(&FilterSpec::items(3000).fp_rate(0.004)).unwrap();
        assert_eq!(f.core().layout().r_bits, 8);
        let keys = hashed_keys(62, 3000);
        assert_eq!(f.insert_batch(&keys), 0);
        assert_eq!(f.count_batch(&keys[..5]), vec![1, 1, 1, 1, 1]);
    }

    #[test]
    fn in_place_grow_preserves_the_multiset() {
        use filter_core::MaintainableFilter;
        let mut f = BulkGqf::new_cori(12, 16).unwrap();
        let keys = hashed_keys(70, 900);
        let pairs: Vec<(u64, u64)> =
            keys.iter().enumerate().map(|(i, &k)| (k, (i % 4 + 1) as u64)).collect();
        assert_eq!(f.insert_counted_batch(&pairs), 0);
        let load_before = f.load();
        let slots_before = f.capacity_slots();
        f.grow(4).unwrap();
        assert_eq!(f.capacity_slots(), 4 * slots_before);
        assert!(f.load() < load_before, "load must strictly decrease across a grow");
        let counts = f.count_batch(&keys);
        for (i, &c) in counts.iter().enumerate() {
            assert_eq!(c, (i % 4 + 1) as u64, "key {i}");
        }
        f.core().check_invariants();
    }

    #[test]
    fn grow_rejects_bad_factors_and_exhausted_remainders() {
        use filter_core::MaintainableFilter;
        let mut f = BulkGqf::new_cori(12, 8).unwrap();
        assert!(f.grow(3).is_err());
        assert!(f.grow(0).is_err());
        // r=8 can give up at most 6 bits (r must stay >= 2).
        assert!(f.grow(1 << 7).is_err());
        assert!(f.grow(1 << 6).is_ok());
        assert_eq!(f.core().layout().r_bits, 2);
    }

    #[test]
    fn in_place_merge_sums_counts_and_refuses_when_full() {
        use filter_core::MaintainableFilter;
        let mut a = filter(13);
        let b = filter(13);
        let keys = hashed_keys(71, 600);
        a.insert_batch(&keys[..400]);
        b.insert_batch(&keys[200..]);
        a.merge(&b).unwrap();
        let counts = a.count_batch(&keys);
        for (i, &c) in counts.iter().enumerate() {
            let want = if (200..400).contains(&i) { 2 } else { 1 };
            assert_eq!(c, want, "key {i}");
        }
        a.core().check_invariants();

        // Merging two near-full filters must refuse with NeedsGrowth and
        // leave the target unchanged.
        let mut c = filter(12);
        let d = filter(12);
        let n = ((1usize << 12) as f64 * 0.85) as usize;
        assert_eq!(c.insert_batch(&hashed_keys(72, n)), 0);
        assert_eq!(d.insert_batch(&hashed_keys(73, n)), 0);
        let items_before = c.core().items();
        match c.merge(&d) {
            Err(FilterError::NeedsGrowth { .. }) => {}
            other => panic!("expected NeedsGrowth, got {other:?}"),
        }
        assert_eq!(c.core().items(), items_before, "refused merge must not mutate");
        // Growing first makes the same merge succeed.
        c.grow(2).unwrap();
        c.merge(&d).unwrap();
        assert_eq!(c.core().items(), 2 * items_before);
    }

    #[test]
    fn grown_filters_remain_mergeable() {
        use filter_core::MaintainableFilter;
        // Same spec, different grow histories: p = q + r stays equal, so
        // merge still works.
        let mut a = BulkGqf::new_cori(12, 16).unwrap();
        let b = BulkGqf::new_cori(12, 16).unwrap();
        let keys = hashed_keys(74, 800);
        a.insert_batch(&keys[..400]);
        b.insert_batch(&keys[400..]);
        a.grow(2).unwrap();
        a.merge(&b).unwrap();
        let counts = a.count_batch(&keys);
        assert!(counts.iter().all(|&c| c >= 1), "all keys present after grow+merge");
        // Mismatched p is refused.
        let narrow = BulkGqf::new_cori(12, 8).unwrap();
        assert!(a.merge(&narrow).is_err());
    }

    #[test]
    fn dyn_facade_routes_the_capacity_lifecycle() {
        use filter_core::FilterSpec;
        let spec = FilterSpec::items(500).fp_rate(4e-3).counting(true);
        let mut f: filter_core::AnyFilter = Box::new(BulkGqf::from_spec(&spec).unwrap());
        let other: filter_core::AnyFilter = Box::new(BulkGqf::from_spec(&spec).unwrap());
        assert!(f.supports_growth());
        assert!(f.features().supports_growth());
        assert_eq!(f.bulk_insert(&[1, 2, 3]).unwrap(), 0);
        assert_eq!(other.bulk_insert(&[3, 4]).unwrap(), 0);
        let before = f.load().unwrap();
        f.grow(2).unwrap();
        assert!(f.load().unwrap() < before);
        f.merge_from(&*other).unwrap();
        assert_eq!(f.bulk_count(&[1, 2, 3, 4, 5]).unwrap(), vec![1, 1, 2, 1, 0]);
    }

    #[test]
    fn dyn_facade_bulk_count() {
        let f: filter_core::AnyFilter =
            Box::new(BulkGqf::from_spec(&FilterSpec::items(1000).counting(true)).unwrap());
        let batch = vec![1u64, 2, 2, 3, 3, 3];
        assert_eq!(f.bulk_insert(&batch).unwrap(), 0);
        assert_eq!(f.bulk_count(&[1, 2, 3, 4]).unwrap(), vec![1, 2, 3, 0]);
        assert_eq!(f.bulk_delete(&[3]).unwrap(), 0);
        assert_eq!(f.bulk_count(&[3]).unwrap(), vec![2]);
    }
}
