//! The probe hot path touches the heap zero times once warm: a
//! reusable-writer query encode plus a peek decode of the reply, and a
//! timer-wheel round of schedule / cancel / cascading advance.
//!
//! Allocations are counted per thread, so libtest's other threads (and
//! the other tests of this file running beside one) cannot move a test's
//! count.

use cde_dns::wire::WireWriter;
use cde_dns::{Message, MessagePeek, Name, Question, RData, Record, RecordType, Ttl};
use cde_engine::{TimerKey, TimerWheel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::net::Ipv4Addr;

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

#[test]
fn the_counter_sees_an_allocation() {
    let allocated = allocations_in(|| {
        black_box(Vec::<u8>::with_capacity(black_box(64)));
    });
    assert!(allocated >= 1, "the counting allocator missed a Vec");
}

/// A typical CDE probe cycle: encode a honey-name query through the
/// reusable writer, then peek-decode the response and verify the echoed
/// question — what the reactor does per probe.
#[test]
fn a_warm_probe_cycle_allocates_nothing() {
    let qname: Name = "x-1234.sub-9.cache.example".parse().unwrap();
    let response_bytes = {
        let query = Message::query(7, Question::new(qname.clone(), RecordType::A));
        let mut resp = Message::response_to(&query);
        resp.answers.push(Record::new(
            qname.clone(),
            Ttl::from_secs(60),
            RData::A(Ipv4Addr::new(198, 51, 100, 1)),
        ));
        resp.encode().unwrap()
    };
    let mut writer = WireWriter::new();
    // Warm up: the first encode sizes the writer's buffers.
    Message::encode_query_into(&mut writer, 1, &qname, RecordType::A);

    let allocated = allocations_in(|| {
        for id in 0..64u16 {
            Message::encode_query_into(&mut writer, black_box(id), &qname, RecordType::A);
            let peek = MessagePeek::parse(black_box(&response_bytes)).unwrap();
            assert!(peek.is_response());
            assert!(peek.question_matches(&qname, RecordType::A).unwrap());
        }
    });
    assert_eq!(
        allocated, 0,
        "probe encode+decode must not touch the heap after warm-up"
    );
}

/// One probe window's worth of timers through the wheel: deadlines on
/// every level, half of them cancelled (answered probes), the rest
/// expired by an advance long enough to cross level-1 and level-2
/// cascade boundaries. The first round grows the wheel's node arena;
/// once warm, a round must not allocate — cascades relink nodes, and
/// expiry and cancellation recycle them.
#[test]
fn a_warm_timer_wheel_round_allocates_nothing() {
    const TIMERS: usize = 512;
    let mut wheel: TimerWheel<u64> = TimerWheel::new(0);
    let mut expired = Vec::with_capacity(TIMERS);
    let mut keys: [Option<TimerKey>; TIMERS] = [None; TIMERS];
    let mut round = |wheel: &mut TimerWheel<u64>, expired: &mut Vec<u64>| {
        let now = wheel.now();
        for (i, key) in keys.iter_mut().enumerate() {
            // Deltas 1 … 8 999: fine, level-1 and level-2 deadlines.
            let delta = 1 + (i as u64 * 97) % 8_999;
            *key = Some(wheel.schedule(now + delta, i as u64));
        }
        for key in keys.iter_mut().step_by(2) {
            assert!(wheel.cancel(key.take().unwrap()).is_some());
        }
        expired.clear();
        wheel.advance(now + 9_000, expired);
        assert_eq!(expired.len(), TIMERS / 2);
        assert!(wheel.is_empty());
    };
    round(&mut wheel, &mut expired);

    let allocated = allocations_in(|| {
        for _ in 0..4 {
            round(&mut wheel, &mut expired);
        }
    });
    assert_eq!(
        allocated, 0,
        "a warm timer wheel must not touch the heap to schedule, cancel or cascade"
    );
}
