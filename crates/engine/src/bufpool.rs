//! A free-list buffer pool for probe encodings.
//!
//! Every in-flight probe holds its encoded datagram so retransmits can
//! resend the cached bytes (with a patched query id) instead of
//! re-encoding. Allocating a fresh `Vec` per probe would put the hot path
//! back on the allocator; the pool recycles buffers so a steady-state
//! campaign reuses the same handful of allocations forever.

use cde_telemetry::{counter_block, Collector, Metric};
use std::sync::atomic::Ordering;
use std::sync::Arc;

counter_block! {
    #[derive(Debug, Default)]
    struct PoolCounters;
    struct PoolCounts;

    minted: AtomicU64, sum, counter "cde_bufpool_minted_total"
        "Buffers allocated because the free list was empty" => record_minted;
    recycled: AtomicU64, sum, counter "cde_bufpool_recycled_total"
        "Buffer takes served from the free list" => record_recycled;
    discarded: AtomicU64, sum, counter "cde_bufpool_discarded_total"
        "Returned buffers dropped by the retention cap" => record_discarded;
    idle: AtomicU64, sum, gauge "cde_bufpool_idle" "Buffers currently in the free list";
}

/// Thread-safe view of a pool's recycling behaviour, shareable with a
/// [`MetricsRegistry`](cde_telemetry::MetricsRegistry) while the pool
/// itself stays single-threaded inside the reactor loop.
///
/// A healthy steady state mints once and recycles forever; a climbing
/// `minted` count after warm-up means buffers are leaking past the pool.
#[derive(Debug, Default)]
pub struct PoolStats {
    counters: PoolCounters,
    /// When set, every exported series carries a `shard` label so the
    /// per-shard pools of a sharded reactor stay distinguishable.
    shard: Option<u64>,
}

impl PoolStats {
    /// Buffers allocated fresh because the free list was empty.
    pub fn minted(&self) -> u64 {
        self.counters.minted.load(Ordering::Relaxed)
    }

    /// Takes served from the free list.
    pub fn recycled(&self) -> u64 {
        self.counters.recycled.load(Ordering::Relaxed)
    }

    /// Returned buffers dropped because the free list was full.
    pub fn discarded(&self) -> u64 {
        self.counters.discarded.load(Ordering::Relaxed)
    }

    /// Buffers sitting in the free list right now.
    pub fn idle(&self) -> u64 {
        self.counters.idle.load(Ordering::Relaxed)
    }
}

impl Collector for PoolStats {
    fn collect(&self, out: &mut Vec<Metric>) {
        let label = |m: Metric| match self.shard {
            Some(s) => m.with_label("shard", s.to_string()),
            None => m,
        };
        self.counters.load().collect_into(label, out);
    }
}

/// Recycles `Vec<u8>` buffers between probes.
///
/// Not thread-safe by design: the reactor loop is single-threaded and the
/// pool lives inside it. Only the [`PoolStats`] handle crosses threads.
#[derive(Debug)]
pub struct BufferPool {
    free: Vec<Vec<u8>>,
    /// Initial capacity of newly minted buffers.
    buf_capacity: usize,
    /// Retained free buffers; beyond this, returned buffers are dropped.
    max_free: usize,
    stats: Arc<PoolStats>,
}

impl BufferPool {
    /// A pool minting `buf_capacity`-byte buffers and retaining at most
    /// `max_free` of them between uses.
    pub fn new(buf_capacity: usize, max_free: usize) -> BufferPool {
        BufferPool {
            free: Vec::with_capacity(max_free.min(1024)),
            buf_capacity,
            max_free,
            stats: Arc::new(PoolStats::default()),
        }
    }

    /// Like [`BufferPool::new`], but the stats handle tags its exported
    /// series with `shard` so several pools can share one registry.
    pub fn new_labeled(buf_capacity: usize, max_free: usize, shard: u64) -> BufferPool {
        let stats = Arc::new(PoolStats {
            shard: Some(shard),
            ..PoolStats::default()
        });
        BufferPool {
            stats,
            ..BufferPool::new(buf_capacity, max_free)
        }
    }

    /// Takes an empty buffer (recycled if available, fresh otherwise).
    pub fn take(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(mut buf) => {
                buf.clear();
                self.stats.counters.record_recycled();
                self.stats
                    .counters
                    .idle
                    .store(self.free.len() as u64, Ordering::Relaxed);
                buf
            }
            None => {
                self.stats.counters.record_minted();
                Vec::with_capacity(self.buf_capacity)
            }
        }
    }

    /// Returns a buffer to the pool for reuse.
    pub fn give(&mut self, buf: Vec<u8>) {
        if self.free.len() < self.max_free {
            self.free.push(buf);
            self.stats
                .counters
                .idle
                .store(self.free.len() as u64, Ordering::Relaxed);
        } else {
            self.stats.counters.record_discarded();
        }
    }

    /// Buffers currently sitting in the free list.
    pub fn idle(&self) -> usize {
        self.free.len()
    }

    /// The shareable stats handle (register it into a metrics registry).
    pub fn stats(&self) -> Arc<PoolStats> {
        Arc::clone(&self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_capacity() {
        let mut pool = BufferPool::new(64, 8);
        let mut a = pool.take();
        a.extend_from_slice(&[1; 100]); // grow beyond the mint size
        let cap = a.capacity();
        let ptr = a.as_ptr();
        pool.give(a);
        let b = pool.take();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap);
        assert_eq!(b.as_ptr(), ptr, "the same allocation must come back");
    }

    #[test]
    fn bounded_retention() {
        let mut pool = BufferPool::new(16, 2);
        let bufs: Vec<_> = (0..4).map(|_| pool.take()).collect();
        for buf in bufs {
            pool.give(buf);
        }
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn mints_when_empty() {
        let mut pool = BufferPool::new(32, 4);
        assert_eq!(pool.idle(), 0);
        let buf = pool.take();
        assert!(buf.capacity() >= 32);
    }

    #[test]
    fn stats_track_mint_recycle_discard() {
        let mut pool = BufferPool::new(16, 1);
        let stats = pool.stats();
        let a = pool.take();
        let b = pool.take();
        pool.give(a);
        pool.give(b); // beyond max_free → discarded
        let _c = pool.take(); // recycled
        assert_eq!(stats.minted(), 2);
        assert_eq!(stats.recycled(), 1);
        assert_eq!(stats.discarded(), 1);
        assert_eq!(stats.idle(), 0);
        let mut out = Vec::new();
        stats.collect(&mut out);
        assert!(out.iter().any(|m| m.name == "cde_bufpool_minted_total"));
    }

    #[test]
    fn labeled_pool_tags_every_series() {
        let pool = BufferPool::new_labeled(16, 2, 3);
        let mut out = Vec::new();
        pool.stats().collect(&mut out);
        assert_eq!(out.len(), 4);
        for metric in &out {
            assert!(
                metric.labels.iter().any(|(k, v)| *k == "shard" && v == "3"),
                "{} missing shard label",
                metric.name
            );
        }
        // The unlabeled constructor stays label-free (golden stability).
        let mut out = Vec::new();
        BufferPool::new(16, 2).stats().collect(&mut out);
        assert!(out.iter().all(|m| m.labels.is_empty()));
    }
}
