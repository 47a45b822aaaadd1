//! The telemetry ring: a bounded, non-blocking event queue.
//!
//! The contract the reactor's hot path needs is strict: an emitter must
//! *never* wait on the drain side, and under backpressure the ring sheds
//! the **oldest** events (the newest are the ones an operator diagnosing
//! a live campaign still cares about), counting every shed event exactly
//! once. Emitters only ever contend with each other for the short
//! push critical section; a stalled — or absent — drainer costs nothing.
//!
//! The queue is preallocated to capacity, so steady-state emission does
//! not touch the allocator.

use crate::event::Event;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// Most events one [`EventRing::drain_chunk`] moves: what a drainer holds
/// at once, whatever the ring's capacity or the drain interval.
pub const DRAIN_CHUNK: usize = 256;

/// Bounded drop-oldest MPMC event queue. See the module docs.
#[derive(Debug)]
pub struct EventRing {
    queue: Mutex<VecDeque<Event>>,
    capacity: usize,
    /// Events pushed, shed or not (updated under the queue lock so the
    /// `emitted == drained + queued + dropped` invariant is exact).
    emitted: AtomicU64,
    /// Events shed by drop-oldest.
    dropped: AtomicU64,
    /// Dropped count already reported to a drainer (see `take_dropped`).
    dropped_reported: AtomicU64,
}

impl EventRing {
    /// A ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> EventRing {
        let capacity = capacity.max(1);
        EventRing {
            queue: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            emitted: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            dropped_reported: AtomicU64::new(0),
        }
    }

    /// Pushes one event, shedding the oldest queued event when full.
    /// Never blocks on the drain side.
    pub fn push(&self, event: Event) {
        let mut queue = self.queue.lock();
        if queue.len() >= self.capacity {
            queue.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        queue.push_back(event);
        self.emitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Pushes every event of `events`, in order, under one lock, and
    /// leaves `events` empty with its capacity kept for reuse. Sheds
    /// exactly as that many [`push`](Self::push)es would: the oldest
    /// queued events first, and of a batch larger than the ring, its
    /// own oldest, which are counted shed without ever being queued.
    pub fn push_all(&self, events: &mut Vec<Event>) {
        let n = events.len();
        if n == 0 {
            return;
        }
        let unqueued = n.saturating_sub(self.capacity);
        let mut queue = self.queue.lock();
        let evicted = (queue.len() + n - unqueued).saturating_sub(self.capacity);
        queue.drain(..evicted);
        queue.extend(events.drain(unqueued..));
        events.clear();
        self.dropped
            .fetch_add((unqueued + evicted) as u64, Ordering::Relaxed);
        self.emitted.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Moves the oldest queued events into `out`, at most
    /// [`DRAIN_CHUNK`] of them, and returns how many it moved. The lock
    /// covers only this move, so an emitter waits for one chunk's copy at
    /// most, never for a drainer's rendering or I/O.
    pub fn drain_chunk(&self, out: &mut Vec<Event>) -> usize {
        let mut queue = self.queue.lock();
        let n = queue.len().min(DRAIN_CHUNK);
        out.extend(queue.drain(..n));
        n
    }

    /// Events currently queued.
    pub fn len(&self) -> usize {
        self.queue.lock().len()
    }

    /// `true` when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever pushed (including later-shed ones).
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }

    /// Total events shed by drop-oldest.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events shed since the last call — lets a drainer surface loss in
    /// the output stream (as an `EventsDropped` record) without double
    /// counting across drains.
    pub fn take_dropped(&self) -> u64 {
        let total = self.dropped.load(Ordering::Relaxed);
        let prev = self.dropped_reported.swap(total, Ordering::Relaxed);
        total.saturating_sub(prev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(token: u64) -> Event {
        Event {
            at_us: token,
            campaign: 0,
            kind: EventKind::ProbePlanned { token },
        }
    }

    #[test]
    fn drops_oldest_when_full() {
        let ring = EventRing::new(3);
        for t in 0..5 {
            ring.push(ev(t));
        }
        assert_eq!(tokens(&ring), vec![2, 3, 4], "oldest must be shed first");
        assert_eq!(ring.emitted(), 5);
        assert_eq!(ring.dropped(), 2);
    }

    #[test]
    fn accounting_is_exact() {
        let ring = EventRing::new(4);
        for t in 0..10 {
            ring.push(ev(t));
        }
        let drained = tokens(&ring);
        assert_eq!(
            ring.emitted(),
            drained.len() as u64 + ring.dropped() + ring.len() as u64
        );
    }

    /// Drains the ring chunk by chunk and returns the tokens, in order.
    fn tokens(ring: &EventRing) -> Vec<u64> {
        let mut out = Vec::new();
        while ring.drain_chunk(&mut out) > 0 {}
        out.iter().map(|e| e.at_us).collect()
    }

    #[test]
    fn a_chunk_moves_at_most_drain_chunk_events_oldest_first() {
        let ring = EventRing::new(2 * DRAIN_CHUNK);
        let total = DRAIN_CHUNK as u64 + 10;
        for t in 0..total {
            ring.push(ev(t));
        }
        let mut chunk = Vec::new();
        assert_eq!(ring.drain_chunk(&mut chunk), DRAIN_CHUNK);
        assert_eq!(ring.len(), 10);
        assert_eq!(ring.drain_chunk(&mut chunk), 10);
        assert_eq!(ring.drain_chunk(&mut chunk), 0);
        let drained: Vec<u64> = chunk.iter().map(|e| e.at_us).collect();
        assert_eq!(drained, (0..total).collect::<Vec<_>>());
    }

    #[test]
    fn push_all_keeps_order_and_empties_the_batch() {
        let ring = EventRing::new(16);
        ring.push(ev(0));
        let mut batch: Vec<Event> = (1..6).map(ev).collect();
        let capacity = batch.capacity();
        ring.push_all(&mut batch);
        assert!(batch.is_empty());
        assert_eq!(batch.capacity(), capacity, "the batch is reused, not freed");
        ring.push(ev(6));
        assert_eq!(tokens(&ring), (0..7).collect::<Vec<_>>());
        assert_eq!((ring.emitted(), ring.dropped()), (7, 0));
        // An empty batch is no push at all.
        ring.push_all(&mut batch);
        assert_eq!(ring.emitted(), 7);
    }

    #[test]
    fn push_all_sheds_exactly_what_single_pushes_would() {
        for (queued, batch, capacity) in [(2, 3, 4), (3, 9, 4), (0, 4, 4), (4, 1, 4), (1, 12, 5)] {
            let single = EventRing::new(capacity);
            let batched = EventRing::new(capacity);
            for t in 0..queued {
                single.push(ev(t));
                batched.push(ev(t));
            }
            let mut events: Vec<Event> = (queued..queued + batch).map(ev).collect();
            for &e in &events {
                single.push(e);
            }
            batched.push_all(&mut events);
            assert_eq!(
                (batched.emitted(), batched.dropped(), batched.len()),
                (single.emitted(), single.dropped(), single.len()),
                "{queued} queued + {batch} into {capacity}"
            );
            let kept = tokens(&batched);
            // The newest survive, in order: the oldest were shed.
            let newest: Vec<u64> = (0..queued + batch)
                .skip((queued + batch).saturating_sub(capacity as u64) as usize)
                .collect();
            assert_eq!(kept, newest);
            assert_eq!(kept, tokens(&single));
            assert_eq!(
                batched.emitted(),
                kept.len() as u64 + batched.len() as u64 + batched.dropped()
            );
        }
    }

    #[test]
    fn push_all_losses_are_reported_once() {
        let ring = EventRing::new(2);
        let mut batch: Vec<Event> = (0..5).map(ev).collect();
        ring.push_all(&mut batch);
        assert_eq!(ring.take_dropped(), 3);
        assert_eq!(ring.take_dropped(), 0);
        batch.extend((5..7).map(ev));
        ring.push_all(&mut batch);
        assert_eq!(ring.take_dropped(), 2);
        assert_eq!(ring.take_dropped(), 0);
        assert_eq!(tokens(&ring), vec![5, 6]);
    }

    #[test]
    fn take_dropped_reports_each_loss_once() {
        let ring = EventRing::new(1);
        ring.push(ev(0));
        ring.push(ev(1));
        assert_eq!(ring.take_dropped(), 1);
        assert_eq!(ring.take_dropped(), 0);
        ring.push(ev(2));
        assert_eq!(ring.take_dropped(), 1);
    }
}
