//! DNS wire-format benches: message encode/decode with compression, plus
//! an allocation-counting proof that the probe hot path (reusable-writer
//! encode + peek decode, and the timer wheel's schedule / cancel /
//! advance) touches the heap zero times after warm-up.

use cde_dns::wire::WireWriter;
use cde_dns::{Message, MessagePeek, Name, Question, RData, Record, RecordType, Ttl};
use cde_engine::{TimerKey, TimerWheel};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every heap allocation so the zero-alloc bench can *assert* the
/// property it measures, not just time it.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to the system allocator; the counter has no
// effect on layout or pointers.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn sample_response(answers: usize) -> Message {
    let qname: Name = "x-1.cache.example".parse().unwrap();
    let q = Message::query(0x1234, Question::new(qname.clone(), RecordType::A));
    let mut resp = Message::response_to(&q);
    resp.answers.push(Record::new(
        qname,
        Ttl::from_secs(60),
        RData::Cname("name.cache.example".parse().unwrap()),
    ));
    for i in 0..answers {
        resp.answers.push(Record::new(
            "name.cache.example".parse().unwrap(),
            Ttl::from_secs(60),
            RData::A(Ipv4Addr::new(198, 51, 100, i as u8)),
        ));
    }
    resp
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire/encode");
    for answers in [1usize, 8, 32] {
        let msg = sample_response(answers);
        group.bench_with_input(BenchmarkId::from_parameter(answers), &msg, |b, msg| {
            b.iter(|| black_box(msg.encode().unwrap()));
        });
    }
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire/decode");
    for answers in [1usize, 8, 32] {
        let bytes = sample_response(answers).encode().unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(answers), &bytes, |b, bytes| {
            b.iter(|| black_box(Message::decode(bytes).unwrap()));
        });
    }
    group.finish();
}

fn bench_name_parse(c: &mut Criterion) {
    c.bench_function("wire/name_parse", |b| {
        b.iter(|| black_box("x-1234.sub-9.cache.example".parse::<Name>().unwrap()));
    });
}

fn bench_zero_alloc_probe(c: &mut Criterion) {
    // A typical CDE probe cycle: encode a honey-name query through the
    // reusable writer, then peek-decode the response and verify the
    // echoed question — exactly what the reactor does per probe.
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

    // The property itself, asserted (not just timed): one full
    // encode + peek + question check performs zero heap allocations.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for id in 0..64u16 {
        Message::encode_query_into(&mut writer, id, &qname, RecordType::A);
        let peek = MessagePeek::parse(&response_bytes).unwrap();
        assert!(peek.is_response());
        assert!(peek.question_matches(&qname, RecordType::A).unwrap());
    }
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "probe encode+decode must not touch the heap after warm-up"
    );
    assert_warm_wheel_allocates_nothing();

    c.bench_function("wire/zero_alloc_probe", |b| {
        b.iter(|| {
            Message::encode_query_into(&mut writer, black_box(3), &qname, RecordType::A);
            let peek = MessagePeek::parse(black_box(&response_bytes)).unwrap();
            black_box(peek.question_matches(&qname, RecordType::A).unwrap())
        });
    });
}

/// One probe window's worth of timers through the wheel: deadlines on
/// every level, half of them cancelled (answered probes), the rest
/// expired by an advance long enough to cross level-1 and level-2
/// cascade boundaries. The first round grows the wheel's node arena;
/// once warm, a round must not allocate — cascades relink nodes, and
/// expiry and cancellation recycle them.
fn assert_warm_wheel_allocates_nothing() {
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
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..4 {
        round(&mut wheel, &mut expired);
    }
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "a warm timer wheel must not touch the heap to schedule, cancel or cascade"
    );
}

criterion_group!(
    benches,
    bench_encode,
    bench_decode,
    bench_name_parse,
    bench_zero_alloc_probe
);
criterion_main!(benches);
