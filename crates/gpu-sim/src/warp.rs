//! Cooperative groups: the intra-warp SIMT primitives the paper's kernels
//! are built from (`CG.ballot`, `__ffs`, leader election, strided scans).
//!
//! A [`Cg`] models one cooperative group (a warp tile of 1–32 lanes). The
//! lanes of a group execute *within one simulated thread* — what is real in
//! this substrate is the concurrency **between** groups (each group runs on
//! a CPU worker and races against all others through [`crate::memory`]'s
//! atomics). The group records the SIMT costs the cost model needs: strides
//! (`CgSteps`) and divergent windows (`DivergentBranches`).

use crate::metrics::{bump, Counter};

/// Number of lanes in a full warp.
pub const WARP_SIZE: u32 = 32;

/// A cooperative group (warp tile) of `size` lanes, `size ∈ {1,2,4,8,16,32}`.
#[derive(Debug, Clone, Copy)]
pub struct Cg {
    size: u32,
}

impl Cg {
    /// Create a group of `size` lanes.
    ///
    /// # Panics
    /// If `size` is not a power of two in `1..=32`.
    pub fn new(size: u32) -> Self {
        assert!(
            size.is_power_of_two() && (1..=WARP_SIZE).contains(&size),
            "cooperative group size must be a power of two in 1..=32, got {size}"
        );
        Cg { size }
    }

    /// Number of lanes.
    #[inline]
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Groups per warp at this tile size (drives memory-level parallelism
    /// in the Fig. 5 model).
    #[inline]
    pub fn groups_per_warp(&self) -> u32 {
        WARP_SIZE / self.size
    }

    /// Strided ballot over `len` items: every lane evaluates `pred` for the
    /// items it owns (lane `r` handles `r, r+size, r+2·size, …` — the
    /// `for i = CG.thread_rank(); i < bucket_len; i += CG.size()` loop of
    /// Algorithm 1), and the group ballots the results into a bitmask.
    ///
    /// Returns a bitmask over item indices (`len ≤ 64`). Counts
    /// `ceil(len / size)` strides and one divergent branch per stride
    /// window in which lanes disagreed.
    pub fn ballot_scan(&self, len: usize, mut pred: impl FnMut(usize) -> bool) -> u64 {
        assert!(len <= 64, "ballot_scan supports at most 64 items, got {len}");
        let strides = len.div_ceil(self.size as usize) as u64;
        bump(Counter::CgSteps, strides);
        let mut mask = 0u64;
        for window in 0..strides as usize {
            let start = window * self.size as usize;
            let end = (start + self.size as usize).min(len);
            let mut any = false;
            let mut all = true;
            for i in start..end {
                let p = pred(i);
                any |= p;
                all &= p;
                if p {
                    mask |= 1u64 << i;
                }
            }
            if any && !all {
                bump(Counter::DivergentBranches, 1);
            }
        }
        mask
    }

    /// Cooperative strided visit of `len` items without a ballot (query
    /// scans). Counts the strides; returns the first index for which
    /// `pred` is true, if any.
    pub fn find_strided(&self, len: usize, mut pred: impl FnMut(usize) -> bool) -> Option<usize> {
        let strides = len.div_ceil(self.size as usize).max(1) as u64;
        bump(Counter::CgSteps, strides);
        (0..len).find(|&i| pred(i))
    }

    /// One extra cooperative step (leader broadcast, re-ballot, sync).
    #[inline]
    pub fn step(&self) {
        bump(Counter::CgSteps, 1);
    }

    /// Leader election over a ballot mask: `__ffs(ballot) - 1`.
    #[inline]
    pub fn ffs(mask: u64) -> Option<u32> {
        if mask == 0 {
            None
        } else {
            Some(mask.trailing_zeros())
        }
    }

    /// Algorithm 1's retry loop skeleton: walk the candidates in a ballot
    /// mask in leader order, calling `attempt` for each; stop at the first
    /// success. Each failed attempt re-ballots (one step). Returns `true`
    /// if any attempt succeeded.
    pub fn elect_and_attempt(&self, mut mask: u64, mut attempt: impl FnMut(usize) -> bool) -> bool {
        while let Some(lead) = Self::ffs(mask) {
            if attempt(lead as usize) {
                // `CG.ballot(true)` success broadcast.
                self.step();
                return true;
            }
            // Failure broadcast + clear the candidate: `ballot ^= 1 << ffs-1`.
            self.step();
            mask ^= 1u64 << lead;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{self, Counter};

    #[test]
    #[should_panic]
    fn rejects_non_power_of_two() {
        let _ = Cg::new(3);
    }

    #[test]
    #[should_panic]
    fn rejects_oversize() {
        let _ = Cg::new(64);
    }

    #[test]
    fn groups_per_warp() {
        assert_eq!(Cg::new(4).groups_per_warp(), 8);
        assert_eq!(Cg::new(32).groups_per_warp(), 1);
    }

    #[test]
    fn ballot_scan_mask_matches_predicate() {
        let cg = Cg::new(8);
        let data = [3u64, 0, 0, 7, 0, 9, 0, 0, 0, 4, 0, 0, 1, 0, 0, 2];
        let mask = cg.ballot_scan(data.len(), |i| data[i] == 0);
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(mask & (1 << i) != 0, v == 0, "index {i}");
        }
    }

    #[test]
    fn ballot_scan_counts_strides() {
        let before = metrics::snapshot_current_thread();
        let cg = Cg::new(4);
        let _ = cg.ballot_scan(16, |_| false);
        let diff = metrics::snapshot_current_thread().since(&before);
        assert_eq!(diff.get(Counter::CgSteps), 4); // 16 items / 4 lanes
    }

    #[test]
    fn ffs_is_lowest_set_bit() {
        assert_eq!(Cg::ffs(0), None);
        assert_eq!(Cg::ffs(0b1000), Some(3));
        assert_eq!(Cg::ffs(u64::MAX), Some(0));
    }

    #[test]
    fn elect_and_attempt_walks_in_order_until_success() {
        let cg = Cg::new(4);
        let mut tried = Vec::new();
        let ok = cg.elect_and_attempt(0b101100, |i| {
            tried.push(i);
            i == 5
        });
        assert!(ok);
        assert_eq!(tried, vec![2, 3, 5]);
    }

    #[test]
    fn elect_and_attempt_exhausts_mask() {
        let cg = Cg::new(4);
        let mut tried = Vec::new();
        let ok = cg.elect_and_attempt(0b11, |i| {
            tried.push(i);
            false
        });
        assert!(!ok);
        assert_eq!(tried, vec![0, 1]);
    }

    #[test]
    fn divergence_counted_when_lanes_disagree() {
        let before = metrics::snapshot_current_thread();
        let cg = Cg::new(8);
        // First window uniform-false, second mixed.
        let _ = cg.ballot_scan(16, |i| i == 12);
        let diff = metrics::snapshot_current_thread().since(&before);
        assert_eq!(diff.get(Counter::DivergentBranches), 1);
    }

    #[test]
    fn find_strided_returns_first_match() {
        let cg = Cg::new(2);
        assert_eq!(cg.find_strided(10, |i| i >= 7), Some(7));
        assert_eq!(cg.find_strided(10, |_| false), None);
    }
}
