//! The write-back buffer between the two cache levels.
//!
//! When a dirty V-cache block is replaced, the paper copies it into a write
//! buffer and lets the R-cache remember that fact in the block's *buffer
//! bit*. The buffered write-back then completes while the processor keeps
//! executing. Coherence and synonym traffic may need to reach into the
//! buffer:
//!
//! * a *sameset* synonym hit cancels the pending write-back (the data never
//!   left the V-cache set),
//! * a bus read-miss for a block whose buffer bit is set triggers
//!   `flush(buffer)`,
//! * a bus invalidation for such a block triggers `invalidate(buffer)`.
//!
//! [`WriteBuffer`] models a FIFO of pending write-backs with by-block
//! lookup, cancellation, and stall accounting (a push into a full buffer
//! stalls the processor until the oldest entry retires).

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::geometry::BlockId;

/// One pending write-back.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PendingWrite<M> {
    /// The *physical* block being written back (write-backs travel on the
    /// physical side of the hierarchy).
    pub block: BlockId,
    /// Caller payload (e.g. data-version bookkeeping for the oracle).
    pub payload: M,
    /// Logical time at which the entry was enqueued.
    pub enqueued_at: u64,
}

/// Statistics kept by a [`WriteBuffer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WriteBufferStats {
    /// Entries pushed.
    pub pushed: u64,
    /// Entries retired by normal draining.
    pub drained: u64,
    /// Pushes that found the buffer full (processor stall).
    pub full_stalls: u64,
    /// Entries cancelled (synonym sameset).
    pub cancelled: u64,
    /// Entries removed by coherence flush/invalidate.
    pub coherence_removed: u64,
    /// Maximum occupancy ever observed.
    pub high_water: u32,
}

/// A bounded FIFO of pending write-backs.
///
/// # Example
///
/// ```
/// use vrcache_cache::geometry::BlockId;
/// use vrcache_cache::write_buffer::WriteBuffer;
///
/// let mut wb: WriteBuffer<()> = WriteBuffer::new(1);
/// assert!(wb.push(BlockId::new(1), (), 100).is_none());
/// // Second push overflows the single slot: the oldest entry is forced out
/// // (a stall) and returned so the caller can complete it immediately.
/// let forced = wb.push(BlockId::new(2), (), 101).unwrap();
/// assert_eq!(forced.block, BlockId::new(1));
/// assert_eq!(wb.stats().full_stalls, 1);
/// ```
#[derive(Debug)]
pub struct WriteBuffer<M> {
    capacity: usize,
    entries: VecDeque<PendingWrite<M>>,
    stats: WriteBufferStats,
}
vrcache_mem::clone_fields!(WriteBuffer<M> { capacity, entries, stats } where M: Clone);

impl<M> WriteBuffer<M> {
    /// Creates a buffer with room for `capacity` pending write-backs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — the paper's scheme requires at least
    /// one buffer (its Table 3 argument is that *one* suffices).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "write buffer capacity must be nonzero");
        WriteBuffer {
            capacity,
            entries: VecDeque::with_capacity(capacity),
            stats: WriteBufferStats::default(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of pending entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no write-backs are pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> WriteBufferStats {
        self.stats
    }

    /// Enqueues a write-back of `block` at logical time `now`.
    ///
    /// If the buffer is full, the *oldest* entry is forced out and returned;
    /// the caller must complete that write-back immediately (this is the
    /// processor-visible stall counted in
    /// [`WriteBufferStats::full_stalls`]).
    pub fn push(&mut self, block: BlockId, payload: M, now: u64) -> Option<PendingWrite<M>> {
        self.stats.pushed += 1;
        let forced = if self.entries.len() == self.capacity {
            self.stats.full_stalls += 1;
            self.entries.pop_front()
        } else {
            None
        };
        self.entries.push_back(PendingWrite {
            block,
            payload,
            enqueued_at: now,
        });
        self.stats.high_water = self.stats.high_water.max(self.entries.len() as u32);
        forced
    }

    /// Retires the oldest pending write-back, if any. Called by the
    /// hierarchy between processor references to model the buffer draining
    /// in parallel with execution.
    pub fn drain_one(&mut self) -> Option<PendingWrite<M>> {
        let e = self.entries.pop_front()?;
        self.stats.drained += 1;
        Some(e)
    }

    /// Enqueues a write of `block`, *coalescing* with a pending entry for
    /// the same block if one exists (write-through buffers merge successive
    /// stores to one block). Returns the forced-out oldest entry when the
    /// buffer was full and no coalescing was possible.
    pub fn push_coalescing(
        &mut self,
        block: BlockId,
        payload: M,
        now: u64,
    ) -> Option<PendingWrite<M>> {
        if let Some(e) = self.entries.iter_mut().find(|e| e.block == block) {
            e.payload = payload;
            e.enqueued_at = now;
            self.stats.pushed += 1;
            return None;
        }
        self.push(block, payload, now)
    }

    /// True if a write-back of `block` is pending.
    pub fn contains(&self, block: BlockId) -> bool {
        self.entries.iter().any(|e| e.block == block)
    }

    /// Cancels the pending write-back of `block` (synonym *sameset* path:
    /// the data is still live in the V-cache, so the write-back is moot).
    pub fn cancel(&mut self, block: BlockId) -> Option<PendingWrite<M>> {
        let idx = self.entries.iter().position(|e| e.block == block)?;
        self.stats.cancelled += 1;
        self.entries.remove(idx)
    }

    /// Removes the pending write-back of `block` on behalf of a coherence
    /// request (`flush(buffer)` / `invalidate(buffer)`), returning it so the
    /// caller can supply or discard the data.
    pub fn coherence_take(&mut self, block: BlockId) -> Option<PendingWrite<M>> {
        let idx = self.entries.iter().position(|e| e.block == block)?;
        self.stats.coherence_removed += 1;
        self.entries.remove(idx)
    }

    /// Completes the pending write-back of `block` ahead of its turn —
    /// used when its destination line is about to be re-read or evicted.
    /// Counted as a normal drain.
    pub fn force_complete(&mut self, block: BlockId) -> Option<PendingWrite<M>> {
        let idx = self.entries.iter().position(|e| e.block == block)?;
        self.stats.drained += 1;
        self.entries.remove(idx)
    }

    /// Iterates over the pending entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &PendingWrite<M>> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_drain_fifo_order() {
        let mut wb: WriteBuffer<u32> = WriteBuffer::new(4);
        wb.push(BlockId::new(1), 10, 0);
        wb.push(BlockId::new(2), 20, 1);
        assert_eq!(wb.len(), 2);
        assert_eq!(wb.drain_one().unwrap().block, BlockId::new(1));
        assert_eq!(wb.drain_one().unwrap().payload, 20);
        assert!(wb.drain_one().is_none());
        assert!(wb.is_empty());
        assert_eq!(wb.stats().drained, 2);
    }

    #[test]
    fn is_empty_reflects_pending_entries() {
        let mut wb: WriteBuffer<()> = WriteBuffer::new(2);
        assert!(wb.is_empty());
        wb.push(BlockId::new(1), (), 0);
        assert!(!wb.is_empty(), "a pending entry must be visible");
        wb.drain_one();
        assert!(wb.is_empty());
    }

    #[test]
    fn overflow_forces_oldest_and_counts_stall() {
        let mut wb: WriteBuffer<()> = WriteBuffer::new(2);
        assert!(wb.push(BlockId::new(1), (), 0).is_none());
        assert!(wb.push(BlockId::new(2), (), 1).is_none());
        let forced = wb.push(BlockId::new(3), (), 2).unwrap();
        assert_eq!(forced.block, BlockId::new(1));
        assert_eq!(wb.len(), 2);
        assert_eq!(wb.stats().full_stalls, 1);
        assert_eq!(wb.stats().pushed, 3);
    }

    #[test]
    fn cancel_removes_by_block() {
        let mut wb: WriteBuffer<()> = WriteBuffer::new(4);
        wb.push(BlockId::new(1), (), 0);
        wb.push(BlockId::new(2), (), 1);
        assert!(wb.contains(BlockId::new(1)));
        let c = wb.cancel(BlockId::new(1)).unwrap();
        assert_eq!(c.block, BlockId::new(1));
        assert!(!wb.contains(BlockId::new(1)));
        assert_eq!(wb.cancel(BlockId::new(1)), None);
        assert_eq!(wb.stats().cancelled, 1);
        // Order of remaining entries preserved.
        assert_eq!(wb.drain_one().unwrap().block, BlockId::new(2));
    }

    #[test]
    fn coherence_take_counts_separately() {
        let mut wb: WriteBuffer<u8> = WriteBuffer::new(2);
        wb.push(BlockId::new(7), 70, 5);
        let t = wb.coherence_take(BlockId::new(7)).unwrap();
        assert_eq!(t.payload, 70);
        assert_eq!(t.enqueued_at, 5);
        assert_eq!(wb.stats().coherence_removed, 1);
        assert_eq!(wb.stats().cancelled, 0);
    }

    #[test]
    fn high_water_tracks_max() {
        let mut wb: WriteBuffer<()> = WriteBuffer::new(8);
        for i in 0..5 {
            wb.push(BlockId::new(i), (), i);
        }
        for _ in 0..5 {
            wb.drain_one();
        }
        assert_eq!(wb.stats().high_water, 5);
        assert_eq!(wb.len(), 0);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        let _: WriteBuffer<()> = WriteBuffer::new(0);
    }

    #[test]
    fn push_coalescing_merges_same_block() {
        let mut wb: WriteBuffer<u32> = WriteBuffer::new(1);
        assert!(wb.push_coalescing(BlockId::new(1), 10, 0).is_none());
        // Same block: coalesces in place, never overflows.
        assert!(wb.push_coalescing(BlockId::new(1), 11, 1).is_none());
        assert_eq!(wb.len(), 1);
        assert_eq!(wb.stats().full_stalls, 0);
        assert_eq!(wb.stats().pushed, 2);
        let e = wb.drain_one().unwrap();
        assert_eq!(e.payload, 11, "latest write wins");
        assert_eq!(e.enqueued_at, 1, "timestamp refreshed");
    }

    #[test]
    fn push_coalescing_still_overflows_on_distinct_blocks() {
        let mut wb: WriteBuffer<u32> = WriteBuffer::new(1);
        assert!(wb.push_coalescing(BlockId::new(1), 10, 0).is_none());
        let forced = wb.push_coalescing(BlockId::new(2), 20, 1).unwrap();
        assert_eq!(forced.block, BlockId::new(1));
        assert_eq!(wb.stats().full_stalls, 1);
    }

    #[test]
    fn force_complete_counts_as_drain() {
        let mut wb: WriteBuffer<u32> = WriteBuffer::new(2);
        wb.push(BlockId::new(1), 10, 0);
        wb.push(BlockId::new(2), 20, 1);
        let e = wb.force_complete(BlockId::new(2)).unwrap();
        assert_eq!(e.payload, 20);
        assert_eq!(wb.stats().drained, 1);
        assert_eq!(wb.force_complete(BlockId::new(2)), None);
        // FIFO order of the rest preserved.
        assert_eq!(wb.drain_one().unwrap().block, BlockId::new(1));
    }

    #[test]
    fn iter_is_oldest_first() {
        let mut wb: WriteBuffer<()> = WriteBuffer::new(4);
        for i in [3u64, 1, 2] {
            wb.push(BlockId::new(i), (), i);
        }
        let order: Vec<u64> = wb.iter().map(|e| e.block.raw()).collect();
        assert_eq!(order, vec![3, 1, 2]);
    }
}
