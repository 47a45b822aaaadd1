//! A cache lookup clones no key: a positive hit allocates only the
//! TTL-decayed copy of its records, and a miss, a negative hit, `peek`
//! of a negative entry and `contains_fresh` allocate nothing.
//!
//! Allocations are counted per thread, so libtest's other threads cannot
//! move a test's count.

use cde_cache::{CacheLookup, DnsCache, NegativeKind};
use cde_dns::{Name, RData, Record, RecordType, Ttl};
use cde_netsim::{SimDuration, SimTime};
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

// SAFETY: delegates verbatim to the system allocator; the counter has no
// effect on layout or pointers.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
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

const LOOKUPS: u64 = 64;

fn name(s: &str) -> Name {
    s.parse().unwrap()
}

fn at(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// A cache holding one A record for `name-1.cache.example` and a
/// negative entry for `missing.cache.example`.
fn warm_cache() -> DnsCache {
    let mut cache = DnsCache::with_defaults(1);
    let honey = name("name-1.cache.example");
    cache.insert(
        honey.clone(),
        RecordType::A,
        vec![Record::new(
            honey,
            Ttl::from_secs(3600),
            RData::A(Ipv4Addr::new(198, 51, 100, 4)),
        )],
        at(0),
    );
    cache.insert_negative(
        name("missing.cache.example"),
        RecordType::A,
        NegativeKind::NxDomain,
        Ttl::from_secs(300),
        at(0),
    );
    cache
}

#[test]
fn the_counter_sees_an_allocation() {
    let allocated = allocations_in(|| {
        black_box(Vec::<u8>::with_capacity(black_box(64)));
    });
    assert!(allocated >= 1, "the counting allocator missed a Vec");
}

/// The copy of one A record is its `Vec` and the record's owner name:
/// two allocations, and nothing for the key.
#[test]
fn a_positive_hit_allocates_only_the_record_copy() {
    let mut cache = warm_cache();
    let honey = name("name-1.cache.example");
    let allocated = allocations_in(|| {
        for ms in 1..=LOOKUPS {
            match cache.lookup(black_box(&honey), RecordType::A, at(ms)) {
                CacheLookup::Hit(records) => assert_eq!(records.len(), 1),
                other => panic!("expected a hit, got {other:?}"),
            }
        }
    });
    assert_eq!(
        allocated,
        2 * LOOKUPS,
        "a hit must allocate the record copy and nothing else"
    );
    assert_eq!(cache.stats().hits, LOOKUPS);
}

#[test]
fn misses_negative_hits_and_freshness_probes_allocate_nothing() {
    let mut cache = warm_cache();
    let honey = name("name-1.cache.example");
    let missing = name("missing.cache.example");
    let absent = name("absent.cache.example");
    let allocated = allocations_in(|| {
        for ms in 1..=LOOKUPS {
            assert_eq!(
                cache.lookup(black_box(&absent), RecordType::A, at(ms)),
                CacheLookup::Miss
            );
            assert!(cache
                .lookup(black_box(&missing), RecordType::A, at(ms))
                .is_hit());
            assert!(cache.contains_fresh(black_box(&honey), RecordType::A, at(ms)));
            assert!(cache
                .peek(black_box(&missing), RecordType::A, at(ms))
                .is_none());
        }
    });
    assert_eq!(allocated, 0, "no lookup may clone its key");
    assert_eq!(cache.stats().misses, LOOKUPS);
    assert_eq!(cache.stats().negative_hits, LOOKUPS);
}
