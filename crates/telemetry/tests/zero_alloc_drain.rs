//! A warm telemetry drain touches the heap zero times: the chunk of
//! events and its JSONL rendering live in buffers the hub reuses, so
//! draining 10k events into a writer — or counting them without one, or
//! through a `ProgressReporter` — allocates nothing once the buffers have
//! grown.
//!
//! Allocations are counted per thread, so libtest's other threads (and
//! the other tests of this file running beside one) cannot move a test's
//! count.

use cde_telemetry::{DropReason, EventKind, ProgressReporter, TelemetryHub};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::io;
use std::sync::Arc;

/// Counts every allocation and reallocation on the calling thread.
struct CountingAllocator;

thread_local! {
    // `const`-initialised and without a destructor: reading it never
    // allocates and it is never torn down, so the allocator may touch it
    // from inside `alloc`, on any thread, at any time.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates verbatim to the system allocator; the counter has no
// effect on layout or pointers.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations this thread makes while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Events per drain: more than the ring holds, so every drain also
/// renders an `events_dropped` record.
const EVENTS: u64 = 10_050;
const RING: usize = 10_000;

/// Fills the hub with `EVENTS` events of the kinds a campaign emits.
fn fill(hub: &TelemetryHub) {
    for token in 0..EVENTS {
        let kind = match token % 6 {
            0 => EventKind::CampaignProgress {
                submitted: token,
                completed: token / 2,
                answered: token / 3,
                in_flight: 128,
            },
            1 => EventKind::ProbeSent { token, attempt: 0 },
            2 => EventKind::ProbeMatched {
                token,
                attempt: 1,
                rtt_us: 700 + token,
                retransmit_ambiguous: token % 4 == 0,
            },
            3 => EventKind::CampaignNote {
                key: "estimated_caches",
                value: token,
            },
            4 => EventKind::ReplyDropped {
                reason: DropReason::Spoofed,
            },
            _ => EventKind::ProbeTimedOut { token, attempts: 3 },
        };
        hub.emit(1, kind);
    }
}

#[test]
fn the_counter_sees_an_allocation() {
    let allocated = allocations_in(|| {
        black_box(Vec::<u8>::with_capacity(black_box(64)));
    });
    assert!(allocated >= 1, "the counting allocator missed a Vec");
}

#[test]
fn a_warm_jsonl_drain_allocates_nothing() {
    let hub = TelemetryHub::new(RING);
    let mut sink = io::sink();
    fill(&hub);
    assert_eq!(hub.drain_jsonl(&mut sink).unwrap(), RING + 1);
    fill(&hub);
    let mut lines = 0;
    let allocated = allocations_in(|| lines = hub.drain_jsonl(&mut sink).unwrap());
    assert_eq!(lines, RING + 1, "the drain rendered every event");
    assert_eq!(allocated, 0, "a warm drain_jsonl allocated");
}

#[test]
fn a_warm_drain_without_a_writer_allocates_nothing() {
    let hub = TelemetryHub::new(RING);
    fill(&hub);
    hub.drain_chunks(None, |_| {}).unwrap();
    fill(&hub);
    let mut counted = 0;
    let allocated = allocations_in(|| counted = hub.drain_chunks(None, |_| {}).unwrap());
    assert_eq!(counted, RING + 1);
    assert_eq!(allocated, 0, "a warm count-only drain allocated");
}

#[test]
fn a_warm_reporter_flush_allocates_nothing() {
    let hub = TelemetryHub::new(RING);
    let mut reporter = ProgressReporter::new(Arc::clone(&hub)).to_sink(io::sink());
    fill(&hub);
    reporter.flush().unwrap();
    fill(&hub);
    let allocated = allocations_in(|| reporter.flush().unwrap());
    assert_eq!(reporter.events_written(), 2 * (RING as u64 + 1));
    assert_eq!(allocated, 0, "a warm reporter flush allocated");
}
