//! Wire buffer pooling: recycled response-frame buffers for the serving
//! tier.
//!
//! Every data request used to cost two transient heap allocations on the
//! response path — one `Vec<u8>` encoded on a shard worker inside the
//! completion callback, and one per immediate (ping/shed/error) response
//! on the reactor thread. Under a saturating query workload that is an
//! allocator round trip per response. [`BufPool`] keeps a bounded free
//! list of frame buffers instead: `get` hands out a cleared buffer with
//! the full response-frame capacity already reserved, `put` returns it
//! once the reactor has copied the frame into the connection's own write
//! buffer. Request frames need no pool — they land in each
//! [`FramedConn`](crate::conn::FramedConn)'s persistent read buffer,
//! which already amortizes across the connection's lifetime.
//!
//! Sizing is tied to the wire constants: a pooled buffer reserves
//! [`POOL_BUF_BYTES`] (the largest response frame the codec can emit, by
//! [`MAX_KEYS`]), and `put` refuses buffers that
//! grew past twice that, so a pathological frame cannot pin memory in the
//! pool. The free list is bounded by the pool's `max_pooled`; a pool
//! built with zero capacity degenerates to plain allocation (every `get`
//! misses, every `put` drops).

use crate::codec::{HEADER_BYTES, MAX_KEYS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Reserved capacity of a fresh pooled buffer: the 4-byte length prefix
/// plus the largest response frame the codec can emit (header + one
/// result byte per key at the protocol's [`MAX_KEYS`] cap).
pub const POOL_BUF_BYTES: usize = 4 + HEADER_BYTES + MAX_KEYS;

/// Free-list bound of the reactor's default pool: enough buffers for the
/// completions of every shard worker plus a burst of immediate responses,
/// while capping retained memory at `64 × POOL_BUF_BYTES` ≈ 4 MiB.
pub const DEFAULT_POOLED_BUFS: usize = 64;

/// A bounded free list of response-frame buffers, shared between the
/// reactor thread and the shard-worker completion callbacks.
#[derive(Debug)]
pub struct BufPool {
    bufs: Mutex<Vec<Vec<u8>>>,
    max_pooled: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    recycled: AtomicU64,
    dropped: AtomicU64,
}

/// Point-in-time pool accounting (see [`BufPool::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers currently parked in the free list.
    pub pooled: u64,
    /// `get` calls served from the free list.
    pub hits: u64,
    /// `get` calls that had to allocate.
    pub misses: u64,
    /// `put` calls that parked their buffer for reuse.
    pub recycled: u64,
    /// `put` calls that released their buffer (list full, oversized
    /// buffer, or a zero-capacity pool).
    pub dropped: u64,
}

impl BufPool {
    /// A pool retaining at most `max_pooled` buffers; zero disables
    /// pooling entirely.
    pub fn new(max_pooled: usize) -> Self {
        BufPool {
            bufs: Mutex::new(Vec::new()),
            max_pooled,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            recycled: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Vec<u8>>> {
        self.bufs.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// An empty buffer ready for one encoded response frame: recycled
    /// when the free list has one, freshly reserved otherwise.
    pub fn get(&self) -> Vec<u8> {
        if let Some(mut buf) = self.lock().pop() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            buf.clear();
            return buf;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        Vec::with_capacity(POOL_BUF_BYTES)
    }

    /// Return a buffer once its bytes have been copied out. Oversized
    /// buffers (capacity past `2 × POOL_BUF_BYTES`) and overflow beyond
    /// `max_pooled` are released to the allocator instead of parked.
    pub fn put(&self, buf: Vec<u8>) {
        if buf.capacity() <= 2 * POOL_BUF_BYTES {
            let mut bufs = self.lock();
            if bufs.len() < self.max_pooled {
                bufs.push(buf);
                drop(bufs);
                self.recycled.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Current accounting.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            pooled: self.lock().len() as u64,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            recycled: self.recycled.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_roundtrip_recycles_capacity() {
        let pool = BufPool::new(4);
        let mut a = pool.get();
        a.extend_from_slice(b"response bytes");
        let cap = a.capacity();
        pool.put(a);
        let b = pool.get();
        assert!(b.is_empty(), "recycled buffers come back cleared");
        assert_eq!(b.capacity(), cap, "capacity survives the round trip");
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.recycled, s.dropped), (1, 1, 1, 0));
    }

    #[test]
    fn free_list_is_bounded() {
        let pool = BufPool::new(2);
        for _ in 0..5 {
            pool.put(Vec::with_capacity(8));
        }
        let s = pool.stats();
        assert_eq!(s.pooled, 2);
        assert_eq!(s.recycled, 2);
        assert_eq!(s.dropped, 3);
    }

    #[test]
    fn oversized_buffers_are_released_not_parked() {
        let pool = BufPool::new(4);
        pool.put(Vec::with_capacity(2 * POOL_BUF_BYTES + 1));
        let s = pool.stats();
        assert_eq!(s.pooled, 0);
        assert_eq!(s.dropped, 1);
    }

    #[test]
    fn zero_capacity_pool_degenerates_to_allocation() {
        let pool = BufPool::new(0);
        pool.put(pool.get());
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.recycled, s.dropped), (0, 1, 0, 1));
        assert_eq!(s.pooled, 0);
    }

    #[test]
    fn fresh_buffers_reserve_a_full_response_frame() {
        let pool = BufPool::new(1);
        assert!(pool.get().capacity() >= POOL_BUF_BYTES);
    }
}
