//! The bulk TCF (§4.2): host-side batched kernels that sort items by
//! block, stage each block in shared memory, zip-merge the incoming
//! fingerprints with the block's sorted contents, and write the result
//! back as one coalesced 128-byte-wide store.
//!
//! Unlike the point TCF, blocks keep their live fingerprints *sorted* in a
//! prefix (queries binary-search in `O(log B)`), and a batch is placed in
//! three sorted passes that mirror the paper's three per-block lists:
//!
//! 1. **shortcut pass** — items merge into their primary block while its
//!    fill stays under the shortcut threshold;
//! 2. **POTC pass** — spilled items go to the less-full of their two
//!    blocks, to capacity;
//! 3. **spill pass** — whatever remains tries the other block, then the
//!    backing table.
//!
//! A delete runs a primary-block pass and a secondary-block pass, then
//! tries the backing table; a sorted query runs one primary-block pass,
//! then looks its misses up key by key.
//!
//! Every block pass has one shape: a data-parallel **partition**
//! ([`Device::par_map`] computes every item's target block), then
//! [`Device::launch_grouped`], which **sorts** the items by block and
//! **applies** one region kernel per block. The kernel stages its block
//! once and, when it changes the block, writes it back in one coalesced
//! store. One thread owns one block, so all block mutations are
//! exclusive. Every phase is bounded by the [`FilterSpec::parallelism`]
//! worker budget and scheduling-independent: every budget yields
//! bit-for-bit identical tables (the parallel-oracle test tier's
//! contract).

use crate::backing::BackingTable;
use crate::config::{value_store, TcfConfig};
use filter_core::fingerprint::EMPTY;
use filter_core::{
    ApiMode, DeleteOutcome, Features, FilterError, FilterMeta, FilterSpec, InsertOutcome, Operation,
};
use gpu_sim::metrics::{bump, Counter};
use gpu_sim::{Device, GpuBuffer, LiveSpan};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};

/// A bulk-API two-choice filter.
///
/// ```
/// use tcf::BulkTcf;
/// use filter_core::BulkFilter;
///
/// let f = BulkTcf::new(1 << 12).unwrap();
/// let keys: Vec<u64> = (0..2000u64).map(|i| i.wrapping_mul(0x9e3779b97f4a7c15)).collect();
/// assert_eq!(f.bulk_insert(&keys).unwrap(), 0);
/// assert!(f.bulk_query_vec(&keys).iter().all(|&hit| hit));
/// ```
pub struct BulkTcf {
    cfg: TcfConfig,
    table: GpuBuffer,
    /// Optional per-slot value store; values permute with their
    /// fingerprints through every zip-merge and delete compaction.
    values: Option<GpuBuffer>,
    backing: BackingTable,
    n_blocks: usize,
    /// Doubling generations applied since construction. A grown table
    /// addresses blocks as `(base_block << levels) | (fp & mask(levels))`
    /// — the POTC hashes pick the *base* block and the fingerprint's low
    /// bits pick the child — so a stored fingerprint alone determines
    /// where it migrates on the next doubling (the Cuckoo-GPU
    /// fingerprint-migration primitive). At `levels == 0` this is exactly
    /// the ungrown addressing.
    grow_levels: u32,
    occupied: AtomicUsize,
    device: Device,
}

/// One batch item flowing through the passes.
#[derive(Debug, Clone, Copy)]
struct Item {
    key: u64,
    fp: u64,
    /// Position in the caller's batch, so per-key outcomes (and a valued
    /// batch's values) survive the sort/leftover shuffling of the passes.
    idx: usize,
    /// The block the item's current pass targets; a leftover keeps the
    /// block it tried.
    block: usize,
}

/// One result flag per batch item. A launch's kernels each set only
/// their own items' flags, and the launch joins before anyone reads them.
struct Flags(Vec<AtomicBool>);

impl Flags {
    fn new(n: usize) -> Self {
        Flags((0..n).map(|_| AtomicBool::new(false)).collect())
    }

    fn set(&self, i: usize) {
        self.0[i].store(true, Ordering::Relaxed);
    }

    fn get(&self, i: usize) -> bool {
        self.0[i].load(Ordering::Relaxed)
    }

    /// The items whose flags stayed clear, in batch order.
    fn unset(&self, items: &[Item]) -> Vec<Item> {
        items.iter().enumerate().filter(|&(i, _)| !self.get(i)).map(|(_, &it)| it).collect()
    }
}

/// One block's live entries in slot order: fingerprints and, with a value
/// store, their values. Parallel vectors, so a block without values moves
/// no second vector, and a delete moves 8-byte elements.
struct Entries {
    fps: Vec<u64>,
    vals: Option<Vec<u64>>,
}

impl Entries {
    fn push(&mut self, fp: u64, val: u64) {
        self.fps.push(fp);
        if let Some(vals) = &mut self.vals {
            vals.push(val);
        }
    }

    fn remove(&mut self, pos: usize) {
        self.fps.remove(pos);
        if let Some(vals) = &mut self.vals {
            vals.remove(pos);
        }
    }

    /// `(fingerprint, value)` pairs, values 0 without a store.
    fn iter(&self) -> impl DoubleEndedIterator<Item = (u64, u64)> + ExactSizeIterator + '_ {
        self.fps.iter().enumerate().map(|(i, &fp)| (fp, self.vals.as_ref().map_or(0, |v| v[i])))
    }

    /// The one sorted-run merge (§4.2's zip-merge): merge the sorted run
    /// `incoming` into these sorted entries in place, from the back. On
    /// equal fingerprints the stored entry stays first, and values travel
    /// with their fingerprints.
    fn merge(&mut self, incoming: impl DoubleEndedIterator<Item = (u64, u64)> + ExactSizeIterator) {
        // Stored entries not yet moved are `..i`; `k` is the next free
        // position, counting down from the merged length.
        let mut i = self.fps.len();
        let mut k = i + incoming.len();
        self.fps.resize(k, EMPTY);
        if let Some(vals) = &mut self.vals {
            vals.resize(k, 0);
        }
        for (fp, val) in incoming.rev() {
            while i > 0 && self.fps[i - 1] > fp {
                (i, k) = (i - 1, k - 1);
                self.fps[k] = self.fps[i];
                if let Some(vals) = &mut self.vals {
                    vals[k] = vals[i];
                }
            }
            k -= 1;
            self.fps[k] = fp;
            if let Some(vals) = &mut self.vals {
                vals[k] = val;
            }
        }
    }

    /// Coalesced write-back of a whole block of `b` slots at `start` —
    /// the file's only stores: the fingerprints EMPTY-padded and, with a
    /// value store, the values 0-padded.
    fn store(mut self, table: &GpuBuffer, values: Option<&GpuBuffer>, start: usize, b: usize) {
        self.fps.resize(b, EMPTY);
        table.write_span_coalesced(start, &self.fps);
        if let (Some(vb), Some(mut vals)) = (values, self.vals) {
            vals.resize(b, 0);
            vb.write_span_coalesced(start, &vals);
        }
    }
}

impl BulkTcf {
    /// Build a bulk filter of at least `capacity` slots on `device`.
    pub fn with_config(
        capacity: usize,
        cfg: TcfConfig,
        device: Device,
    ) -> Result<Self, FilterError> {
        cfg.validate()?;
        let n_blocks = capacity.div_ceil(cfg.block_slots).next_power_of_two().max(2);
        let n_slots = n_blocks * cfg.block_slots;
        Ok(BulkTcf {
            table: GpuBuffer::new(n_slots, cfg.fp_bits),
            values: None,
            backing: BackingTable::for_main_table(n_slots, cfg.fp_bits),
            n_blocks,
            grow_levels: 0,
            occupied: AtomicUsize::new(0),
            device,
            cfg,
        })
    }

    /// Default bulk configuration (128-slot blocks of 16-bit keys, §4.2)
    /// on the Cori (V100) device model. Thin wrapper over
    /// [`Self::with_config`]; `capacity` is a raw slot budget. Prefer
    /// [`Self::from_spec`] for item-count/error-rate-driven sizing.
    pub fn new(capacity: usize) -> Result<Self, FilterError> {
        Self::with_config(capacity, TcfConfig::bulk_default(), Device::cori())
    }

    /// Build from a declarative [`FilterSpec`]: sized so `spec.capacity`
    /// items fit at the recommended load, with the narrowest fingerprint
    /// meeting `spec.fp_rate` at the bulk block geometry, on the spec's
    /// device model with the spec's host-parallelism budget. Counting
    /// specs are refused (use the GQF).
    pub fn from_spec(spec: &FilterSpec) -> Result<Self, FilterError> {
        spec.validate()?;
        if spec.counting {
            return FilterError::unsupported("TCF counting (use the GQF)");
        }
        let cfg = TcfConfig::bulk_default().with_fp_rate(spec.fp_rate)?;
        let filter = Self::with_config(
            spec.slots_for_load(cfg.max_load),
            cfg,
            Device::for_model_name(spec.device.name()).with_workers(spec.parallelism.workers()),
        )?;
        if spec.value_bits > 0 {
            filter.with_values(spec.value_bits)
        } else {
            Ok(filter)
        }
    }

    /// Attach a value store of `value_bits` per slot (8, 16, 32 or 64).
    /// Values move with their fingerprints through the sorted-block
    /// merges, so they survive any sequence of batches and deletes.
    pub fn with_values(mut self, value_bits: u32) -> Result<Self, FilterError> {
        self.values = Some(value_store(self.table.len(), value_bits)?);
        Ok(self)
    }

    /// Width of the attached value store (0 when none).
    pub fn value_bits(&self) -> u32 {
        self.values.as_ref().map_or(0, |v| v.elem_bits())
    }

    /// Active configuration.
    pub fn config(&self) -> &TcfConfig {
        &self.cfg
    }

    /// Main-table slot count.
    pub fn slots(&self) -> usize {
        self.table.len()
    }

    /// Load factor over main-table slots.
    pub fn load_factor(&self) -> f64 {
        self.occupied.load(Ordering::Relaxed) as f64 / self.table.len() as f64
    }

    #[inline]
    fn blocks_of(&self, key: u64) -> (usize, usize) {
        let levels = self.grow_levels;
        let (b1, b2) = self.cfg.base_blocks(key, self.n_blocks >> levels);
        if levels == 0 {
            return (b1, b2);
        }
        // Grown table: the fingerprint's low bits select the child block,
        // so placement stays derivable from stored state alone.
        let sub = (self.cfg.fingerprint(key) & ((1u64 << levels) - 1)) as usize;
        ((b1 << levels) | sub, (b2 << levels) | sub)
    }

    /// Stage `block` in shared memory — the file's one table load — and
    /// hand `f` the staged view, the block's first slot and its live
    /// length. The block is read in place ([`GpuBuffer::live_span`]): a
    /// region kernel owns its block, and queries run while no kernel
    /// writes the table, so the live words are what a copy would hold (a
    /// copy taken word by word is no more atomic against a writer).
    #[inline]
    fn stage<R>(&self, block: usize, f: impl FnOnce(&LiveSpan<'_>, usize, usize) -> R) -> R {
        let b = self.cfg.block_slots;
        let start = block * b;
        let view = self.table.live_span(start, b);
        // Live fingerprints (≥ 2) fill a sorted prefix and empties (0) the
        // suffix, so the first empty slot is a binary search away.
        let (mut lo, mut hi) = (0, b);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if view.get(start + mid) != EMPTY {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        f(&view, start, lo)
    }

    /// A staged block's live entries, with room for the whole block; loads
    /// the block's values span.
    fn read_entries(&self, view: &LiveSpan<'_>, start: usize, live: usize) -> Entries {
        let b = self.cfg.block_slots;
        let read = |span: &LiveSpan<'_>| {
            let mut run = Vec::with_capacity(b);
            span.unpack(start..start + live, &mut run);
            run
        };
        Entries {
            fps: read(view),
            vals: self.values.as_ref().map(|vb| read(&vb.live_span(start, b))),
        }
    }

    /// The one block-pass shape: group the batch positions `0..n` by
    /// `target(i)`, stage each target block once, and run
    /// `kernel(view, start, live, group, flags)` on it, where `group`
    /// holds the block's `(block, position)` pairs in batch order. Returns
    /// the flags the kernels set.
    fn block_pass<T, K>(&self, n: usize, target: T, kernel: K) -> Flags
    where
        T: Fn(usize) -> usize + Sync,
        K: Fn(&LiveSpan<'_>, usize, usize, &[(u64, u64)], &Flags) + Sync,
    {
        let pairs = self.device.par_map(n, |i| (target(i) as u64, i as u64));
        let flags = Flags::new(n);
        self.device.launch_grouped(pairs, |group| {
            self.stage(group[0].0 as usize, |view, start, live| {
                kernel(view, start, live, group, &flags)
            })
        });
        flags
    }

    /// One placement pass: each target block takes its items, in batch
    /// order, up to `fill_cap` live slots, with their values from `pairs`
    /// (0 for a plain batch). With `fills`, each target block's fill when
    /// the pass is done with it is recorded there (never 0: a staged
    /// block keeps or gains at least one item). Returns the items it could
    /// not place.
    fn placement_pass(
        &self,
        items: Vec<Item>,
        fill_cap: usize,
        pairs: Option<&[(u64, u64)]>,
        fills: Option<&[AtomicU8]>,
    ) -> Vec<Item> {
        let b = self.cfg.block_slots;
        let placed = self.block_pass(
            items.len(),
            |i| items[i].block,
            |view, start, live, group, placed| {
                // A fill fits a byte: blocks hold at most 128 slots.
                let record = |fill: usize| {
                    if let Some(fills) = fills {
                        fills[group[0].0 as usize].store(fill as u8, Ordering::Relaxed);
                    }
                };
                if live >= fill_cap {
                    record(live);
                    return;
                }
                let take = (fill_cap - live).min(group.len());
                let mut entries = self.read_entries(view, start, live);

                // Gather + sort the incoming fingerprints in shared memory;
                // values travel with their fingerprint through the sort.
                let mut incoming: Vec<(u64, u64)> = group[..take]
                    .iter()
                    .map(|&(_, i)| {
                        let item = items[i as usize];
                        (item.fp, pairs.map_or(0, |p| p[item.idx].1))
                    })
                    .collect();
                incoming.sort_unstable();

                // Zip-merge (the three-list parallel zip of §4.2 collapses to
                // two lists per pass here), then write the whole block back.
                entries.merge(incoming.into_iter());
                record(entries.fps.len());
                // Shared-memory work, charged once: the gather's writes,
                // the sort and the merge.
                let sort = (take as f64 * (take.max(2) as f64).log2()) as u64;
                bump(Counter::SharedOps, take as u64 + sort + entries.fps.len() as u64);
                entries.store(&self.table, self.values.as_ref(), start, b);
                for &(_, i) in &group[..take] {
                    placed.set(i as usize);
                }
            },
        );
        placed.unset(&items)
    }

    /// One delete pass: each item removes one copy of its fingerprint
    /// from its target block. Returns the items whose fingerprint the
    /// block did not hold.
    fn delete_pass(&self, items: Vec<Item>) -> Vec<Item> {
        let b = self.cfg.block_slots;
        let removed = self.block_pass(
            items.len(),
            |i| items[i].block,
            |view, start, live, group, removed| {
                let mut entries = self.read_entries(view, start, live);
                for &(_, i) in group {
                    if let Ok(pos) = entries.fps.binary_search(&items[i as usize].fp) {
                        entries.remove(pos);
                        removed.set(i as usize);
                    }
                }
                if entries.fps.len() < live {
                    entries.store(&self.table, self.values.as_ref(), start, b);
                }
            },
        );
        removed.unset(&items)
    }

    /// Binary-search one staged block for `fp`.
    fn block_search(&self, block: usize, fp: u64) -> bool {
        self.block_find(block, fp).is_some()
    }

    /// Search one staged block, returning the in-block position of a
    /// matching fingerprint (used by the value path). The search has
    /// *first-match* (lower-bound) semantics: an early-equal binary search
    /// would return an arbitrary duplicate, so the value read for a
    /// duplicated fingerprint would depend on search order.
    fn block_find(&self, block: usize, fp: u64) -> Option<usize> {
        self.stage(block, |view, start, live| {
            let (mut lo, mut hi) = (0usize, live);
            while lo < hi {
                let mid = (lo + hi) / 2;
                if view.get(start + mid) < fp {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            (lo < live && view.get(start + lo) == fp).then_some(lo)
        })
    }

    /// Enumerate all live fingerprints (host-side; sorted within blocks).
    pub fn enumerate_fingerprints(&self) -> Vec<u64> {
        let b = self.cfg.block_slots;
        (0..self.n_blocks)
            .flat_map(|blk| {
                let start = blk * b;
                (0..b).map(move |i| start + i).collect::<Vec<_>>()
            })
            .map(|slot| self.table.read_free(slot))
            .filter(|&v| v != EMPTY)
            .collect()
    }

    /// Items that overflowed into the backing table.
    pub fn backing_occupancy(&self) -> usize {
        self.backing.occupied()
    }

    /// Doubling generations applied since construction.
    pub fn grow_levels(&self) -> u32 {
        self.grow_levels
    }

    /// One block's live entries. Shared by the grow/merge migrations.
    fn block_entries(&self, block: usize) -> Entries {
        self.stage(block, |view, start, live| self.read_entries(view, start, live))
    }

    /// Entries of `self`'s block `src` that belong in child block `dst`
    /// of a table with `dst_levels` doubling generations (`dst_levels >=
    /// self.grow_levels`): the fingerprint's low `dst_levels` bits must
    /// spell `dst`'s sub-index. Order (sorted) is preserved.
    fn entries_for_child(&self, src: usize, dst: usize, dst_levels: u32) -> Entries {
        let b = self.cfg.block_slots;
        let mask = (1u64 << dst_levels) - 1;
        // Room for the whole block, so a grow's write-back pads in place.
        let mut entries = Entries {
            fps: Vec::with_capacity(b),
            vals: self.values.as_ref().map(|_| Vec::with_capacity(b)),
        };
        for (fp, val) in self.block_entries(src).iter() {
            if fp & mask == dst as u64 & mask {
                entries.push(fp, val);
            }
        }
        entries
    }
}

impl filter_core::MaintainableFilter for BulkTcf {
    fn load(&self) -> f64 {
        self.load_factor().clamp(0.0, 1.0)
    }

    /// Double the block array `log2(factor)` times in one migration pass.
    /// Every old block splits into `factor` children; a stored
    /// fingerprint's low bits pick its child, so migration is a pure
    /// function of stored state — each child has exactly one parent and
    /// one owning worker, making the grown table bit-identical under any
    /// worker budget. The backing table (which retains its spilled items'
    /// keys) is then drained through the normal placement passes: the
    /// enlarged blocks absorb the old overflow, and a fresh backing sized
    /// for the new table takes whatever still spills.
    fn grow(&mut self, factor: u32) -> Result<(), FilterError> {
        let d = filter_core::growth_steps(factor)?;
        let new_levels = self.grow_levels + d;
        // Each level consumes one low fingerprint bit for child selection;
        // keep at least 8 bits of residual fingerprint entropy.
        if new_levels + 8 > self.cfg.fp_bits {
            return Err(FilterError::BadConfig(format!(
                "cannot grow to {new_levels} levels with {}-bit fingerprints",
                self.cfg.fp_bits
            )));
        }
        let b = self.cfg.block_slots;
        let old_levels = self.grow_levels;
        let new_blocks = self.n_blocks << d;
        let new_table = GpuBuffer::new(new_blocks * b, self.cfg.fp_bits);
        let new_values =
            self.values.as_ref().map(|v| GpuBuffer::new(new_blocks * b, v.elem_bits()));

        self.device.launch_regions(new_blocks, |nb| {
            // The one parent whose entries can land in child `nb`: same
            // base block, same low `old_levels` fingerprint bits.
            let parent = ((nb >> new_levels) << old_levels) | (nb & ((1usize << old_levels) - 1));
            let entries = self.entries_for_child(parent, nb, new_levels);
            if !entries.fps.is_empty() {
                entries.store(&new_table, new_values.as_ref(), nb * b, b);
            }
        });

        // Commit the enlarged geometry, keeping the old state aside so a
        // drain failure below can restore it ("on error the filter is
        // unchanged" — the MaintainableFilter contract).
        let old_table = std::mem::replace(&mut self.table, new_table);
        let old_values = std::mem::replace(&mut self.values, new_values);
        let old_backing = std::mem::replace(
            &mut self.backing,
            BackingTable::for_main_table(new_blocks * b, self.cfg.fp_bits),
        );
        let old_blocks = std::mem::replace(&mut self.n_blocks, new_blocks);
        self.grow_levels = new_levels;

        // Drain the old backing into the enlarged table: re-insert each
        // spilled item through the normal placement passes (slot order →
        // deterministic), spilling into the fresh, proportionally larger
        // backing only if its two (now half-empty) blocks are somehow
        // still full.
        let spilled = old_backing.entries();
        if !spilled.is_empty() {
            self.occupied.fetch_sub(spilled.len(), Ordering::Relaxed);
            let items: Vec<Item> = spilled
                .iter()
                .enumerate()
                .map(|(idx, &(key, fp))| Item { key, fp, idx, block: self.blocks_of(key).0 })
                .collect();
            let failures = self.insert_items(items, None);
            if !failures.is_empty() {
                // Both candidate blocks and the fresh backing refused an
                // item straight after capacity doubled — not a reachable
                // state at sane loads, but if it happens, roll the whole
                // grow back rather than lose the spilled keys.
                self.table = old_table;
                self.values = old_values;
                self.backing = old_backing;
                self.n_blocks = old_blocks;
                self.grow_levels = old_levels;
                // `insert_items` already re-counted the drains it
                // accepted; restoring the failed remainder lands the
                // counter exactly where it started.
                self.occupied.fetch_add(failures.len(), Ordering::Relaxed);
                return Err(FilterError::Full);
            }
        }
        Ok(())
    }

    /// Absorb `other`'s contents. Requires the same block geometry and
    /// base block count; `other` may have *fewer* doubling generations
    /// (its entries re-split into this table's children during the
    /// merge). The union is built into fresh buffers first, so a refusal
    /// — a child block without room ([`FilterError::NeedsGrowth`]: grow
    /// and retry) or a backing-slot collision — leaves `self` untouched.
    fn merge(&mut self, other: &Self) -> Result<(), FilterError> {
        if self.cfg.block_slots != other.cfg.block_slots
            || self.cfg.fp_bits != other.cfg.fp_bits
            || (self.n_blocks >> self.grow_levels) != (other.n_blocks >> other.grow_levels)
            || self.values.is_some() != other.values.is_some()
        {
            return Err(FilterError::BadConfig(
                "TCF merge requires the same base geometry (block size, fingerprint width, \
                 base block count, value store)"
                    .into(),
            ));
        }
        if other.grow_levels > self.grow_levels {
            return Err(FilterError::needs_growth(self.load_factor()));
        }
        let b = self.cfg.block_slots;
        let ls = self.grow_levels;
        let lo = other.grow_levels;
        let new_table = GpuBuffer::new(self.n_blocks * b, self.cfg.fp_bits);
        let new_values =
            self.values.as_ref().map(|v| GpuBuffer::new(self.n_blocks * b, v.elem_bits()));
        let overflow = AtomicBool::new(false);

        self.device.launch_regions(self.n_blocks, |nb| {
            let mut mine = self.block_entries(nb);
            let parent = ((nb >> ls) << lo) | (nb & ((1usize << lo) - 1));
            let theirs = other.entries_for_child(parent, nb, ls);
            if mine.fps.len() + theirs.fps.len() > b {
                overflow.store(true, Ordering::Relaxed);
                return;
            }
            if mine.fps.is_empty() && theirs.fps.is_empty() {
                return;
            }
            mine.merge(theirs.iter());
            mine.store(&new_table, new_values.as_ref(), nb * b, b);
        });
        if overflow.load(Ordering::Relaxed) {
            return Err(FilterError::needs_growth(self.load_factor()));
        }
        // Union the backings by re-probing: both sides retain their
        // spilled items' keys, so the partner's entries probe into a
        // fresh copy of ours regardless of the two tables' sizes. A probe
        // exhaustion means the backing is saturated — NeedsGrowth, since
        // a grow drains the backing into the enlarged main table.
        let new_backing = match self.backing.reprobed_clone() {
            Ok(clone) => clone,
            Err(_) => return Err(FilterError::needs_growth(self.load_factor())),
        };
        for (key, fp) in other.backing.entries() {
            if !new_backing.insert(key, fp) {
                return Err(FilterError::needs_growth(self.load_factor()));
            }
        }

        self.table = new_table;
        self.values = new_values;
        self.backing = new_backing;
        self.occupied.fetch_add(other.occupied.load(Ordering::Relaxed), Ordering::Relaxed);
        Ok(())
    }
}

impl BulkTcf {
    /// Insert a batch; returns the number of items that could not be
    /// placed anywhere (0 on success).
    pub fn insert_batch(&self, keys: &[u64]) -> usize {
        self.insert_items(self.hash_items(keys.len(), |i| keys[i]), None).len()
    }

    /// Hash phase: every batch key's fingerprint and primary block,
    /// computed in parallel (batch order kept).
    fn hash_items(&self, n: usize, key_at: impl Fn(usize) -> u64 + Sync) -> Vec<Item> {
        self.device.par_map(n, |idx| {
            let key = key_at(idx);
            Item { key, fp: self.cfg.fingerprint(key), idx, block: self.blocks_of(key).0 }
        })
    }

    /// Insert a batch with per-key outcomes: `out[i]` answers `keys[i]`.
    pub fn insert_batch_report(&self, keys: &[u64], out: &mut [InsertOutcome]) {
        assert_eq!(keys.len(), out.len());
        out.fill(InsertOutcome::Inserted);
        for idx in self.insert_items(self.hash_items(keys.len(), |i| keys[i]), None) {
            out[idx] = InsertOutcome::Failed;
        }
    }

    /// Insert a batch of `(key, value)` associations. Requires a value
    /// store ([`BulkTcf::with_values`]); items that would spill to the
    /// backing table are failed instead, because backing slots cannot
    /// carry values (the point TCF makes the same call). Returns the
    /// failure count.
    pub fn insert_values_batch(&self, pairs: &[(u64, u64)]) -> usize {
        if self.values.is_none() {
            return pairs.len();
        }
        self.insert_items(self.hash_items(pairs.len(), |i| pairs[i].0), Some(pairs)).len()
    }

    /// Look up the values associated with a batch of keys (`None` when
    /// absent or when no value store is attached). For multiset contents
    /// the value of one instance is returned.
    pub fn query_values_batch(&self, keys: &[u64]) -> Vec<Option<u64>> {
        let Some(vb) = self.values.as_ref() else {
            return vec![None; keys.len()];
        };
        let b = self.cfg.block_slots;
        let found = Flags::new(keys.len());
        let vals: Vec<AtomicU64> = (0..keys.len()).map(|_| AtomicU64::new(0)).collect();
        self.device.launch_point(keys.len(), self.cfg.cg_size, |i| {
            let fp = self.cfg.fingerprint(keys[i]);
            let (p, s) = self.blocks_of(keys[i]);
            let slot = self
                .block_find(p, fp)
                .map(|pos| p * b + pos)
                .or_else(|| self.block_find(s, fp).map(|pos| s * b + pos));
            if let Some(slot) = slot {
                vals[i].store(vb.read(slot), Ordering::Relaxed);
                found.set(i);
            }
        });
        vals.into_iter().enumerate().map(|(i, v)| found.get(i).then(|| v.into_inner())).collect()
    }

    /// Shared batch-insert flow for plain and valued items; a valued
    /// batch passes its `(key, value)` pairs. Returns the original batch
    /// indices of the items that could not be placed.
    fn insert_items(&self, items: Vec<Item>, pairs: Option<&[(u64, u64)]>) -> Vec<usize> {
        let b = self.cfg.block_slots;
        let n = items.len();
        // Pass 1 — shortcut: the primary block (the hash phase's target)
        // up to the shortcut threshold. It records the fill of every
        // block it stages (0: not staged).
        let cap1 = ((b as f64) * self.cfg.shortcut_fill).floor() as usize;
        let fills: Vec<AtomicU8> = (0..self.n_blocks).map(|_| AtomicU8::new(0)).collect();
        let left = self.placement_pass(items, cap1.max(1), pairs, Some(&fills));

        // Pass 2 — POTC: the less-full of the two blocks, to capacity.
        // Block fills are final after pass 1, so the inspection reads pass
        // 1's record, stages only the blocks pass 1 did not, and
        // parallelizes over the leftover items.
        let fill = |block: usize| match fills[block].load(Ordering::Relaxed) {
            0 => self.stage(block, |_, _, live| live),
            recorded => usize::from(recorded),
        };
        let left = self.device.par_map(left.len(), |i| {
            let (p, s) = self.blocks_of(left[i].key);
            Item { block: if fill(s) < fill(p) { s } else { p }, ..left[i] }
        });
        let left = self.placement_pass(left, b, pairs, None);

        // Pass 3 — spill: the block pass 2 did not target.
        let left = self.device.par_map(left.len(), |i| {
            let (p, s) = self.blocks_of(left[i].key);
            Item { block: if left[i].block == p { s } else { p }, ..left[i] }
        });
        let left = self.placement_pass(left, b, pairs, None);

        // Final spill — backing table (valued items fail instead: backing
        // slots cannot carry values).
        let failures: Vec<usize> = left
            .iter()
            .filter(|it| {
                !(pairs.is_none() && self.cfg.backing_table && self.backing.insert(it.key, it.fp))
            })
            .map(|it| it.idx)
            .collect();
        self.occupied.fetch_add(n - failures.len(), Ordering::Relaxed);
        failures
    }

    /// Query a batch.
    pub fn query_batch(&self, keys: &[u64], out: &mut [bool]) {
        assert_eq!(keys.len(), out.len());
        let hits = Flags::new(keys.len());
        self.device.launch_point(keys.len(), self.cfg.cg_size, |i| {
            let key = keys[i];
            let fp = self.cfg.fingerprint(key);
            let (p, s) = self.blocks_of(key);
            if self.block_search(p, fp)
                || self.block_search(s, fp)
                || (self.cfg.backing_table && self.backing.contains(key, fp))
            {
                hits.set(i);
            }
        });
        for (i, o) in out.iter_mut().enumerate() {
            *o = hits.get(i);
        }
    }

    /// Sorted-batch query (§4.2: blocks "can be queried … in linear time
    /// for a batch of queries"): one grouped pass stages each primary
    /// block once and scans it against its whole query group with a
    /// two-pointer merge, instead of one binary search per query. Misses
    /// fall back to the secondary block and backing table.
    pub fn query_batch_sorted(&self, keys: &[u64], out: &mut [bool]) {
        assert_eq!(keys.len(), out.len());
        if keys.is_empty() {
            return;
        }
        let primary = |i: usize| self.blocks_of(keys[i]).0;
        let hits = self.block_pass(keys.len(), primary, |view, start, live, group, hits| {
            // Sort this block's query fingerprints, then merge-scan the
            // staged sorted prefix in one linear pass.
            let mut fps: Vec<(u64, u64)> =
                group.iter().map(|&(_, i)| (self.cfg.fingerprint(keys[i as usize]), i)).collect();
            fps.sort_unstable();
            let mut slot = start;
            for (fp, i) in fps {
                // Advance the cursor to the first stored slot >= fp. Equal
                // fingerprints in the batch re-test the same slot; the
                // cursor never moves backwards because fps ascend.
                while slot < start + live && view.get(slot) < fp {
                    slot += 1;
                }
                if slot < start + live && view.get(slot) == fp {
                    hits.set(i as usize);
                }
            }
        });

        // Fallback pass for misses: secondary block + backing table (it
        // launches even when nothing missed).
        let miss: Vec<usize> = (0..keys.len()).filter(|&i| !hits.get(i)).collect();
        self.device.launch_point(miss.len(), self.cfg.cg_size, |j| {
            let key = keys[miss[j]];
            let fp = self.cfg.fingerprint(key);
            if self.block_search(self.blocks_of(key).1, fp)
                || (self.cfg.backing_table && self.backing.contains(key, fp))
            {
                hits.set(miss[j]);
            }
        });
        for (i, o) in out.iter_mut().enumerate() {
            *o = hits.get(i);
        }
    }

    /// Delete a batch of previously inserted keys; returns the count whose
    /// fingerprints were not found.
    pub fn delete_batch(&self, keys: &[u64]) -> usize {
        self.delete_items(keys).len()
    }

    /// Delete a batch with per-key outcomes: `out[i]` answers `keys[i]`.
    pub fn delete_batch_report(&self, keys: &[u64], out: &mut [DeleteOutcome]) {
        assert_eq!(keys.len(), out.len());
        out.fill(DeleteOutcome::Removed);
        for idx in self.delete_items(keys) {
            out[idx] = DeleteOutcome::NotFound;
        }
    }

    /// Shared batch-delete flow: primary-block pass, secondary-block pass,
    /// then the backing table. Returns the original batch indices of the
    /// keys whose fingerprints were not found.
    fn delete_items(&self, keys: &[u64]) -> Vec<usize> {
        let left = self.delete_pass(self.hash_items(keys.len(), |i| keys[i]));
        let left = self
            .device
            .par_map(left.len(), |i| Item { block: self.blocks_of(left[i].key).1, ..left[i] });
        let left = self.delete_pass(left);

        // The backing table gets a shot at the rest.
        let missing: Vec<usize> = left
            .iter()
            .filter(|it| !(self.cfg.backing_table && self.backing.remove(it.key, it.fp)))
            .map(|it| it.idx)
            .collect();
        self.occupied.fetch_sub(keys.len() - missing.len(), Ordering::Relaxed);
        missing
    }
}

impl FilterMeta for BulkTcf {
    fn name(&self) -> &'static str {
        "BulkTCF"
    }

    fn features(&self) -> Features {
        Features::new("BulkTCF")
            .with(Operation::Insert, ApiMode::Bulk)
            .with(Operation::Query, ApiMode::Bulk)
            .with(Operation::Delete, ApiMode::Bulk)
            .with_growth()
    }

    fn table_bytes(&self) -> usize {
        self.table.bytes() + self.values.as_ref().map_or(0, |v| v.bytes()) + self.backing.bytes()
    }

    fn capacity_slots(&self) -> u64 {
        self.table.len() as u64
    }

    fn max_load_factor(&self) -> f64 {
        self.cfg.max_load
    }
}

impl filter_core::BulkFilter for BulkTcf {
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

impl filter_core::BulkDeletable for BulkTcf {
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

impl filter_core::DynFilter for BulkTcf {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.occupied.load(Ordering::Relaxed))
    }

    fn value_bits(&self) -> u32 {
        BulkTcf::value_bits(self)
    }

    filter_core::dyn_forward_bulk!();
    filter_core::dyn_forward_bulk_delete!();
    filter_core::dyn_forward_maintain!(BulkTcf);
}

#[cfg(test)]
mod tests {
    use super::*;
    use filter_core::{hashed_keys, BulkFilter};

    #[test]
    fn bulk_insert_then_query_all_present() {
        let f = BulkTcf::new(1 << 12).unwrap();
        let keys = hashed_keys(21, 3000);
        assert_eq!(f.insert_batch(&keys), 0);
        let mut out = vec![false; keys.len()];
        f.query_batch(&keys, &mut out);
        assert!(out.iter().all(|&x| x), "all inserted keys must be found");
    }

    #[test]
    fn blocks_stay_sorted_after_inserts() {
        let f = BulkTcf::new(1 << 12).unwrap();
        let keys = hashed_keys(22, 3000);
        f.insert_batch(&keys);
        let b = f.cfg.block_slots;
        for blk in 0..f.n_blocks {
            let mut prev = 0u64;
            let mut in_suffix = false;
            for i in 0..b {
                let v = f.table.read_free(blk * b + i);
                if v == EMPTY {
                    in_suffix = true;
                } else {
                    assert!(!in_suffix, "live slot after empty in block {blk}");
                    assert!(v >= prev, "unsorted block {blk}");
                    prev = v;
                }
            }
        }
    }

    #[test]
    fn reaches_90_percent_load_in_one_batch() {
        let f = BulkTcf::new(1 << 13).unwrap();
        let n = (f.slots() as f64 * 0.9) as usize;
        let keys = hashed_keys(23, n);
        let failures = f.insert_batch(&keys);
        assert_eq!(failures, 0, "bulk TCF must reach 90% load");
        assert!(f.load_factor() >= 0.89);
        let mut out = vec![false; n];
        f.query_batch(&keys, &mut out);
        assert!(out.iter().all(|&x| x));
    }

    #[test]
    fn negative_queries_mostly_negative() {
        let f = BulkTcf::new(1 << 12).unwrap();
        let keys = hashed_keys(24, (f.slots() as f64 * 0.9) as usize);
        f.insert_batch(&keys);
        let probes = hashed_keys(2400, 100_000);
        let mut out = vec![false; probes.len()];
        f.query_batch(&probes, &mut out);
        let fp_rate = out.iter().filter(|&&x| x).count() as f64 / probes.len() as f64;
        // Bulk config theory: 2·128/2^16 ≈ 0.39%; backing adds a little.
        assert!(fp_rate < 0.02, "fp rate {fp_rate}");
    }

    #[test]
    fn multiple_batches_accumulate() {
        let f = BulkTcf::new(1 << 12).unwrap();
        let k1 = hashed_keys(25, 1000);
        let k2 = hashed_keys(26, 1000);
        f.insert_batch(&k1);
        f.insert_batch(&k2);
        let mut out = vec![false; 1000];
        f.query_batch(&k1, &mut out);
        assert!(out.iter().all(|&x| x));
        f.query_batch(&k2, &mut out);
        assert!(out.iter().all(|&x| x));
        assert_eq!(f.len_items(), 2000);
    }

    #[test]
    fn delete_batch_removes_exactly_the_batch() {
        let f = BulkTcf::new(1 << 12).unwrap();
        let keys = hashed_keys(27, 2000);
        f.insert_batch(&keys);
        let not_found = f.delete_batch(&keys[..1000]);
        assert_eq!(not_found, 0);
        let mut out = vec![false; 1000];
        f.query_batch(&keys[1000..], &mut out);
        assert!(out.iter().all(|&x| x), "survivors must remain");
        assert_eq!(f.len_items(), 1000);
    }

    /// Satellite: `query_batch_sorted` must agree with `query_batch` on
    /// batches containing duplicate keys and keys whose fingerprints sit
    /// at segment boundaries (the first and last live slot of a block).
    #[test]
    fn sorted_query_matches_point_query_with_duplicates_and_boundary_keys() {
        let f = BulkTcf::new(1 << 12).unwrap();
        let keys = hashed_keys(92, 3000);
        assert_eq!(f.insert_batch(&keys), 0);

        // Keys resident in the first or last live slot of their primary
        // block — the merge-scan cursor's edge positions.
        let mut boundary = Vec::new();
        for &k in &keys {
            let fp = f.cfg.fingerprint(k);
            let at_edge = f.stage(f.blocks_of(k).0, |view, start, live| {
                live > 0 && (view.get(start) == fp || view.get(start + live - 1) == fp)
            });
            if at_edge {
                boundary.push(k);
            }
            if boundary.len() >= 64 {
                break;
            }
        }
        assert!(!boundary.is_empty(), "no boundary-resident keys found");

        let absent = hashed_keys(9200, 500);
        let mut probes = Vec::new();
        probes.extend_from_slice(&keys[..600]);
        probes.extend_from_slice(&absent);
        // Duplicates of present, absent, and boundary keys, interleaved
        // so sorted grouping has same-key runs inside one segment.
        probes.extend_from_slice(&keys[..100]);
        probes.extend_from_slice(&keys[..100]);
        probes.extend_from_slice(&absent[..50]);
        for &k in &boundary {
            probes.extend_from_slice(&[k, k, k]);
        }

        let mut point = vec![false; probes.len()];
        let mut sorted = vec![true; probes.len()];
        f.query_batch(&probes, &mut point);
        f.query_batch_sorted(&probes, &mut sorted);
        assert_eq!(point, sorted, "sorted query diverged from point query");
        // Sanity: every inserted probe hits.
        assert!(probes.iter().zip(&point).all(|(k, &h)| h || !keys.contains(k)));
    }

    /// Satellite: duplicate fingerprints must resolve to the *first*
    /// stored copy — the value path would otherwise return an arbitrary
    /// duplicate's value depending on binary-search order.
    #[test]
    fn block_find_returns_the_first_duplicate() {
        let f = BulkTcf::new(1 << 10).unwrap();
        let key = hashed_keys(93, 1)[0];
        f.insert_batch(&[key; 5]);
        let fp = f.cfg.fingerprint(key);
        let (p, s) = f.blocks_of(key);
        for blk in [p, s] {
            let first =
                f.stage(blk, |view, start, live| (0..live).find(|&i| view.get(start + i) == fp));
            assert_eq!(f.block_find(blk, fp), first, "block {blk}");
        }
    }

    #[test]
    fn duplicate_keys_stored_as_multiset() {
        let f = BulkTcf::new(1 << 10).unwrap();
        let key = hashed_keys(28, 1)[0];
        f.insert_batch(&[key, key, key]);
        assert_eq!(f.delete_batch(&[key]), 0);
        let mut out = vec![false];
        f.query_batch(&[key], &mut out);
        assert!(out[0], "two copies should remain");
        f.delete_batch(&[key, key]);
        f.query_batch(&[key], &mut out);
        assert!(!out[0], "all copies deleted");
    }

    #[test]
    fn per_key_insert_outcomes_match_aggregate() {
        // Overfill a tiny filter without a backing table so some keys fail.
        let cfg = TcfConfig { backing_table: false, ..TcfConfig::bulk_default() };
        let f = BulkTcf::with_config(1 << 9, cfg, Device::cori()).unwrap();
        let keys = hashed_keys(30, f.slots() + 200);
        let mut out = vec![InsertOutcome::Inserted; keys.len()];
        f.insert_batch_report(&keys, &mut out);
        let failed = out.iter().filter(|o| o.failed()).count();
        assert!(failed > 0, "overfill must fail some keys");
        // Every key reported Inserted must be findable (no false negatives
        // on acknowledged keys).
        let hits = f.bulk_query_vec(&keys);
        for (i, o) in out.iter().enumerate() {
            if o.inserted() {
                assert!(hits[i], "key {i} reported inserted but is absent");
            }
        }
        // A fresh identical filter's aggregate count agrees.
        let g = BulkTcf::with_config(
            1 << 9,
            TcfConfig { backing_table: false, ..TcfConfig::bulk_default() },
            Device::cori(),
        )
        .unwrap();
        assert_eq!(g.insert_batch(&keys), failed);
    }

    #[test]
    fn per_key_delete_outcomes() {
        let f = BulkTcf::new(1 << 12).unwrap();
        let keys = hashed_keys(31, 2000);
        assert_eq!(f.insert_batch(&keys), 0);
        // Delete the first half plus some never-inserted keys.
        let absent = hashed_keys(32, 500);
        let batch: Vec<u64> = keys[..1000].iter().chain(&absent).copied().collect();
        let mut out = vec![DeleteOutcome::NotFound; batch.len()];
        f.delete_batch_report(&batch, &mut out);
        for (i, o) in out[..1000].iter().enumerate() {
            assert!(o.removed(), "inserted key {i} must report Removed");
        }
        // Absent keys are NotFound except for rare fingerprint collisions.
        let ghost_hits = out[1000..].iter().filter(|o| o.removed()).count();
        assert!(ghost_hits < 25, "ghost removals {ghost_hits}");
        // Survivors remain queryable, except any whose colliding
        // fingerprint a ghost delete legally claimed.
        let lost = f.bulk_query_vec(&keys[1000..]).iter().filter(|&&h| !h).count();
        assert!(lost <= ghost_hits, "lost {lost} > ghost removals {ghost_hits}");
    }

    #[test]
    fn every_worker_budget_builds_an_identical_table() {
        use filter_core::Parallelism;
        let spec = FilterSpec::items(6000).fp_rate(0.004);
        let oracle =
            BulkTcf::from_spec(&spec.clone().parallelism(Parallelism::Sequential)).unwrap();
        let keys = hashed_keys(71, 6000);
        let probes = hashed_keys(72, 40_000);
        assert_eq!(oracle.insert_batch(&keys), 0);
        assert_eq!(oracle.delete_batch(&keys[..2000]), 0);
        let oracle_fps = oracle.enumerate_fingerprints();
        let oracle_hits = oracle.bulk_query_vec(&probes);
        for workers in [1u32, 2, 8] {
            let f = BulkTcf::from_spec(&spec.clone().parallelism(Parallelism::Threads(workers)))
                .unwrap();
            assert_eq!(f.insert_batch(&keys), 0, "w={workers}");
            assert_eq!(f.delete_batch(&keys[..2000]), 0, "w={workers}");
            assert_eq!(
                f.enumerate_fingerprints(),
                oracle_fps,
                "stored fingerprints diverge at workers={workers}"
            );
            assert_eq!(
                f.bulk_query_vec(&probes),
                oracle_hits,
                "probe outcomes diverge at workers={workers}"
            );
        }
    }

    #[test]
    fn grow_preserves_membership_and_halves_load() {
        use filter_core::MaintainableFilter;
        let mut f = BulkTcf::new(1 << 12).unwrap();
        let keys = hashed_keys(80, 3000);
        assert_eq!(f.insert_batch(&keys), 0);
        let load_before = f.load();
        let slots_before = f.slots();
        f.grow(2).unwrap();
        assert_eq!(f.slots(), 2 * slots_before);
        assert_eq!(f.grow_levels(), 1);
        assert!((f.load() - load_before / 2.0).abs() < 1e-9, "load must halve");
        let mut out = vec![false; keys.len()];
        f.query_batch(&keys, &mut out);
        assert!(out.iter().all(|&x| x), "zero false negatives across a grow");
        // The grown filter keeps ingesting and deleting normally.
        let more = hashed_keys(81, 3000);
        assert_eq!(f.insert_batch(&more), 0);
        assert_eq!(f.delete_batch(&keys[..1000]), 0);
        let mut out = vec![false; more.len()];
        f.query_batch(&more, &mut out);
        assert!(out.iter().all(|&x| x));
    }

    #[test]
    fn grow_keeps_fp_rate_in_class() {
        use filter_core::MaintainableFilter;
        let mut f = BulkTcf::new(1 << 12).unwrap();
        let keys = hashed_keys(82, (f.slots() as f64 * 0.85) as usize);
        assert_eq!(f.insert_batch(&keys), 0);
        let probes = hashed_keys(8200, 100_000);
        let fp_at = |f: &BulkTcf| {
            let mut out = vec![false; probes.len()];
            f.query_batch(&probes, &mut out);
            out.iter().filter(|&&x| x).count() as f64 / probes.len() as f64
        };
        let before = fp_at(&f);
        f.grow(2).unwrap();
        let after = fp_at(&f);
        // Halved per-block occupancy compensates the sub-index bit: the
        // realized rate stays within 2x (it barely moves in practice).
        assert!(after <= before * 2.0 + 1e-3, "fp {before} -> {after}");
    }

    #[test]
    fn grow_values_travel_with_fingerprints() {
        use filter_core::MaintainableFilter;
        let mut f = BulkTcf::new(1 << 12).unwrap().with_values(32).unwrap();
        let keys = hashed_keys(83, 2000);
        let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k & 0xffff_ffff)).collect();
        assert_eq!(f.insert_values_batch(&pairs), 0);
        f.grow(4).unwrap();
        let got = f.query_values_batch(&keys);
        let exact = keys.iter().zip(&got).filter(|&(&k, v)| *v == Some(k & 0xffff_ffff)).count();
        assert!(exact as f64 / keys.len() as f64 > 0.99, "exact {exact}/{}", keys.len());
    }

    #[test]
    fn grown_table_is_identical_under_any_worker_budget() {
        use filter_core::{MaintainableFilter, Parallelism};
        let spec = FilterSpec::items(4000).fp_rate(0.004);
        let keys = hashed_keys(84, 4000);
        let probes = hashed_keys(85, 40_000);
        let build = |p: Parallelism| {
            let mut f = BulkTcf::from_spec(&spec.clone().parallelism(p)).unwrap();
            assert_eq!(f.insert_batch(&keys), 0);
            f.grow(2).unwrap();
            assert_eq!(f.insert_batch(&probes[..2000]), 0);
            f
        };
        let oracle = build(Parallelism::Sequential);
        let oracle_fps = oracle.enumerate_fingerprints();
        let oracle_hits = oracle.bulk_query_vec(&probes);
        for workers in [1u32, 2, 8] {
            let f = build(Parallelism::Threads(workers));
            assert_eq!(f.enumerate_fingerprints(), oracle_fps, "w={workers}");
            assert_eq!(f.bulk_query_vec(&probes), oracle_hits, "w={workers}");
        }
    }

    #[test]
    fn merge_absorbs_another_filter_and_refuses_when_tight() {
        use filter_core::MaintainableFilter;
        let mut a = BulkTcf::new(1 << 12).unwrap();
        let b = BulkTcf::new(1 << 12).unwrap();
        let keys = hashed_keys(86, 2600);
        assert_eq!(a.insert_batch(&keys[..1300]), 0);
        assert_eq!(b.insert_batch(&keys[1300..]), 0);
        a.merge(&b).unwrap();
        let mut out = vec![false; keys.len()];
        a.query_batch(&keys, &mut out);
        assert!(out.iter().all(|&x| x), "merge must keep both sides' keys");

        // Two near-full filters exceed block capacity: NeedsGrowth, state
        // unchanged; growing first makes it succeed.
        let mut c = BulkTcf::new(1 << 10).unwrap();
        let d = BulkTcf::new(1 << 10).unwrap();
        let n = (c.slots() as f64 * 0.85) as usize;
        assert_eq!(c.insert_batch(&hashed_keys(87, n)), 0);
        assert_eq!(d.insert_batch(&hashed_keys(88, n)), 0);
        let before = c.enumerate_fingerprints();
        match c.merge(&d) {
            Err(FilterError::NeedsGrowth { .. }) => {}
            other => panic!("expected NeedsGrowth, got {other:?}"),
        }
        assert_eq!(c.enumerate_fingerprints(), before, "refused merge must not mutate");
        c.grow(4).unwrap();
        c.merge(&d).unwrap();
        let keys_d = hashed_keys(88, n);
        assert!(c.bulk_query_vec(&keys_d).iter().all(|&h| h));
    }

    #[test]
    fn merge_respects_geometry_preconditions() {
        use filter_core::MaintainableFilter;
        let mut a = BulkTcf::new(1 << 12).unwrap();
        // Different base block count.
        let b = BulkTcf::new(1 << 13).unwrap();
        assert!(a.merge(&b).is_err());
        // Value-store mismatch.
        let c = BulkTcf::new(1 << 12).unwrap().with_values(16).unwrap();
        assert!(a.merge(&c).is_err());
        // A more-grown partner cannot merge downward...
        let mut d = BulkTcf::new(1 << 12).unwrap();
        d.grow(2).unwrap();
        assert!(matches!(a.merge(&d), Err(FilterError::NeedsGrowth { .. })));
        // ...but the grown side absorbs the ungrown side fine.
        let keys = hashed_keys(89, 1000);
        assert_eq!(a.insert_batch(&keys), 0);
        d.merge(&a).unwrap();
        assert!(d.bulk_query_vec(&keys).iter().all(|&h| h));
    }

    #[test]
    fn from_spec_builds_paper_bulk_geometry() {
        let f = BulkTcf::from_spec(&FilterSpec::items(10_000).fp_rate(0.004)).unwrap();
        assert_eq!(f.config().fp_bits, 16);
        assert_eq!(f.config().block_slots, 128);
        assert!(f.slots() as f64 * f.config().max_load >= 10_000.0);
        let keys = hashed_keys(33, 10_000);
        assert_eq!(f.insert_batch(&keys), 0);
        assert!(f.bulk_query_vec(&keys).iter().all(|&h| h));
    }

    #[test]
    fn dyn_facade_bulk_surface() {
        let f: filter_core::AnyFilter =
            Box::new(BulkTcf::from_spec(&FilterSpec::items(2000)).unwrap());
        let keys = hashed_keys(34, 1000);
        assert_eq!(f.bulk_insert(&keys).unwrap(), 0);
        assert!(f.bulk_query_vec(&keys).unwrap().iter().all(|&h| h));
        assert_eq!(f.bulk_delete(&keys).unwrap(), 0);
        // Point ops are not part of the bulk TCF's surface.
        assert!(matches!(f.insert(1), Err(FilterError::Unsupported(_))));
    }

    #[test]
    fn bulk_filter_trait_object() {
        let f = BulkTcf::new(1 << 10).unwrap();
        let keys = hashed_keys(29, 100);
        let dyn_f: &dyn BulkFilter = &f;
        assert_eq!(dyn_f.bulk_insert(&keys).unwrap(), 0);
        let out = dyn_f.bulk_query_vec(&keys);
        assert!(out.iter().all(|&x| x));
    }

    impl BulkTcf {
        fn len_items(&self) -> usize {
            self.occupied.load(Ordering::Relaxed)
        }
    }
}

#[cfg(test)]
mod sorted_query_tests {
    use super::*;
    use filter_core::hashed_keys;

    #[test]
    fn sorted_query_matches_pointwise_query() {
        let f = BulkTcf::new(1 << 12).unwrap();
        let keys = hashed_keys(61, 3000);
        f.insert_batch(&keys);
        let probes: Vec<u64> = keys.iter().copied().chain(hashed_keys(62, 3000)).collect();
        let mut a = vec![false; probes.len()];
        let mut b = vec![false; probes.len()];
        f.query_batch(&probes, &mut a);
        f.query_batch_sorted(&probes, &mut b);
        assert_eq!(a, b, "sorted and pointwise bulk queries must agree");
    }

    #[test]
    fn sorted_query_finds_all_members() {
        let f = BulkTcf::new(1 << 12).unwrap();
        let keys = hashed_keys(63, (f.slots() as f64 * 0.85) as usize);
        f.insert_batch(&keys);
        let mut out = vec![false; keys.len()];
        f.query_batch_sorted(&keys, &mut out);
        assert!(out.iter().all(|&x| x));
    }

    #[test]
    fn sorted_query_handles_duplicate_probes() {
        let f = BulkTcf::new(1 << 10).unwrap();
        let k = hashed_keys(64, 1)[0];
        f.insert_batch(&[k]);
        let probes = vec![k, k, k, k ^ 1, k];
        let mut out = vec![false; probes.len()];
        f.query_batch_sorted(&probes, &mut out);
        assert_eq!(out, vec![true, true, true, false, true]);
    }

    #[test]
    fn sorted_query_empty_batch() {
        let f = BulkTcf::new(1 << 10).unwrap();
        let mut out = vec![];
        f.query_batch_sorted(&[], &mut out);
    }

    #[test]
    fn bulk_values_roundtrip() {
        let f = BulkTcf::new(1 << 14).unwrap().with_values(16).unwrap();
        let keys = hashed_keys(65, 8000);
        let pairs: Vec<(u64, u64)> =
            keys.iter().enumerate().map(|(i, &k)| (k, (i % 60_000) as u64)).collect();
        assert_eq!(f.insert_values_batch(&pairs), 0);
        let got = f.query_values_batch(&keys);
        let exact =
            keys.iter().enumerate().filter(|&(i, _)| got[i] == Some((i % 60_000) as u64)).count();
        // Fingerprint collisions may alias a few values; the rest are exact.
        assert!(exact as f64 / keys.len() as f64 > 0.99, "exact {exact}/{}", keys.len());
    }

    #[test]
    fn values_survive_merges_across_batches() {
        // Multiple batches hit the same blocks, forcing zip-merges that
        // shift stored fingerprints; their values must shift with them.
        let f = BulkTcf::new(1 << 12).unwrap().with_values(32).unwrap();
        let keys = hashed_keys(66, 2400);
        for chunk in keys.chunks(300) {
            let pairs: Vec<(u64, u64)> = chunk.iter().map(|&k| (k, k & 0xffff_ffff)).collect();
            assert_eq!(f.insert_values_batch(&pairs), 0);
        }
        let got = f.query_values_batch(&keys);
        let exact = keys.iter().zip(&got).filter(|&(&k, v)| *v == Some(k & 0xffff_ffff)).count();
        assert!(exact as f64 / keys.len() as f64 > 0.99, "exact {exact}/{}", keys.len());
    }

    #[test]
    fn values_survive_deletes() {
        let f = BulkTcf::new(1 << 12).unwrap().with_values(32).unwrap();
        let keys = hashed_keys(67, 2000);
        let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k >> 32)).collect();
        assert_eq!(f.insert_values_batch(&pairs), 0);
        // Delete the first half; the second half's values must be intact
        // even where deletions compacted their blocks.
        assert_eq!(f.delete_batch(&keys[..1000]), 0);
        let got = f.query_values_batch(&keys[1000..]);
        let exact = keys[1000..].iter().zip(&got).filter(|&(&k, v)| *v == Some(k >> 32)).count();
        assert!(exact >= 990, "exact {exact}/1000");
    }

    #[test]
    fn values_without_store_fail_clean() {
        let f = BulkTcf::new(1 << 10).unwrap();
        assert_eq!(f.value_bits(), 0);
        assert_eq!(f.insert_values_batch(&[(1, 2)]), 1);
        assert_eq!(f.query_values_batch(&[1]), vec![None]);
    }

    /// `u64::MAX` is a legal value in a 64-bit store, so it must not
    /// double as the "absent" mark.
    #[test]
    fn a_stored_u64_max_reads_back_as_a_value() {
        let f = BulkTcf::new(1 << 10).unwrap().with_values(64).unwrap();
        assert_eq!(f.insert_values_batch(&[(11, u64::MAX), (12, 7), (13, u64::MAX - 1)]), 0);
        assert_eq!(
            f.query_values_batch(&[11, 12, 13, 14]),
            vec![Some(u64::MAX), Some(7), Some(u64::MAX - 1), None]
        );
    }

    #[test]
    fn plain_and_valued_batches_coexist() {
        let f = BulkTcf::new(1 << 12).unwrap().with_values(16).unwrap();
        let keys = hashed_keys(68, 1000);
        assert_eq!(
            f.insert_values_batch(&keys[..500].iter().map(|&k| (k, 7)).collect::<Vec<_>>()),
            0
        );
        assert_eq!(f.insert_batch(&keys[500..]), 0);
        let mut out = vec![false; keys.len()];
        f.query_batch(&keys, &mut out);
        assert!(out.iter().all(|&x| x));
        let vals = f.query_values_batch(&keys[..500]);
        let sevens = vals.iter().filter(|&&v| v == Some(7)).count();
        assert!(sevens >= 495, "sevens {sevens}");
    }

    #[test]
    fn value_store_counts_in_table_bytes() {
        use filter_core::FilterMeta;
        let plain = BulkTcf::new(1 << 12).unwrap();
        let valued = BulkTcf::new(1 << 12).unwrap().with_values(16).unwrap();
        assert!(valued.table_bytes() > plain.table_bytes());
    }
}
