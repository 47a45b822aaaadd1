//! Ring contention: concurrent emitters against a deliberately slow
//! drain must never block, and every event must be accounted for exactly
//! once — `emitted == drained + queued + shed`, with the shed total also
//! surfaced in-stream via `events_dropped` records.

use cde_telemetry::ring::DRAIN_CHUNK;
use cde_telemetry::{EventKind, TelemetryHub};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const EMITTERS: u64 = 4;
const PER_EMITTER: u64 = 50_000;
/// Far smaller than the event volume, so the drop-oldest path is
/// exercised constantly, not incidentally.
const RING_CAPACITY: usize = 512;

#[test]
fn concurrent_emitters_never_block_and_drops_are_exact() {
    let hub = TelemetryHub::new(RING_CAPACITY);
    let emitters_done = Arc::new(AtomicBool::new(false));

    let drainer = {
        let hub = Arc::clone(&hub);
        let emitters_done = Arc::clone(&emitters_done);
        thread::spawn(move || {
            let mut drained = 0u64;
            let mut shed_reported = 0u64;
            let mut tally = |events: Vec<cde_telemetry::Event>| {
                for ev in events {
                    match ev.kind {
                        EventKind::EventsDropped { count } => shed_reported += count,
                        _ => drained += 1,
                    }
                }
            };
            loop {
                tally(hub.drain());
                if emitters_done.load(Ordering::Acquire) {
                    // Emitters have stopped: one final sweep picks up the
                    // tail and any not-yet-reported shed count.
                    tally(hub.drain());
                    return (drained, shed_reported);
                }
                // Slow consumer: the ring overflows many times per sleep.
                thread::sleep(Duration::from_millis(2));
            }
        })
    };

    let handles: Vec<_> = (0..EMITTERS)
        .map(|e| {
            let hub = Arc::clone(&hub);
            thread::spawn(move || {
                for i in 0..PER_EMITTER {
                    hub.emit(
                        0,
                        EventKind::ProbeSent {
                            token: (e << 32) | i,
                            attempt: 0,
                        },
                    );
                }
            })
        })
        .collect();
    // Emission is a bounded ring push — if any emitter blocked on the
    // slow drain, these joins would hang and the test harness time out.
    for h in handles {
        h.join().unwrap();
    }
    emitters_done.store(true, Ordering::Release);
    let (drained, shed_reported) = drainer.join().unwrap();

    let total = EMITTERS * PER_EMITTER;
    assert_eq!(hub.emitted(), total);
    assert_eq!(hub.queued(), 0, "final sweep must leave the ring empty");
    assert!(
        hub.dropped() > 0,
        "a {RING_CAPACITY}-slot ring under {total} events must shed"
    );
    // Every emitted event is either delivered or counted as shed — no
    // double counting, no silent loss.
    assert_eq!(drained + hub.dropped(), total);
    // And the in-stream `events_dropped` records agree with the counter.
    assert_eq!(shed_reported, hub.dropped());
}

/// Reactor shards push a pass's events in one `emit_all` while other
/// threads emit one at a time: the batched pushes must shed and account
/// exactly like single ones, and keep each emitter's own order.
#[test]
fn batched_and_single_emitters_account_exactly_and_keep_order() {
    const BATCHES: u64 = 400;
    let hub = TelemetryHub::new(RING_CAPACITY);
    // Batch sizes cycle 1 … 700, so some batches are larger than the
    // ring itself and shed part of their own head.
    let batch_len = |b: u64| 1 + (b * 37) % 700;
    let batched_total: u64 = (0..BATCHES).map(batch_len).sum();
    let emitters_done = Arc::new(AtomicBool::new(false));

    let drainer = {
        let hub = Arc::clone(&hub);
        let emitters_done = Arc::clone(&emitters_done);
        thread::spawn(move || {
            let (mut drained, mut shed_reported) = (0u64, 0u64);
            // Per emitter, the lowest sequence number the next event
            // may carry: order check.
            let mut next = [0u64; 3];
            let mut tally = |events: Vec<cde_telemetry::Event>| {
                for ev in events {
                    match ev.kind {
                        EventKind::EventsDropped { count } => shed_reported += count,
                        EventKind::ProbeSent { token, attempt } => {
                            let emitter = attempt as usize;
                            assert!(
                                token >= next[emitter],
                                "emitter {emitter} reordered: {token} after {}",
                                next[emitter] - 1
                            );
                            next[emitter] = token + 1;
                            drained += 1;
                        }
                        ref other => panic!("unexpected {other:?}"),
                    }
                }
            };
            loop {
                tally(hub.drain());
                if emitters_done.load(Ordering::Acquire) {
                    tally(hub.drain());
                    return (drained, shed_reported);
                }
                thread::sleep(Duration::from_millis(2));
            }
        })
    };

    // Emitter 0 batches; emitters 1 and 2 emit one event at a time. The
    // emitter rides in `attempt`, its sequence number in `token`.
    let batched = {
        let hub = Arc::clone(&hub);
        thread::spawn(move || {
            let mut pass = Vec::new();
            let mut seq = 0u64;
            for b in 0..BATCHES {
                let at = std::time::Instant::now();
                for _ in 0..batch_len(b) {
                    pass.push(hub.event_at(
                        at,
                        0,
                        EventKind::ProbeSent {
                            token: seq,
                            attempt: 0,
                        },
                    ));
                    seq += 1;
                }
                hub.emit_all(&mut pass);
                assert!(pass.is_empty());
            }
        })
    };
    let singles: Vec<_> = (1..=2u32)
        .map(|e| {
            let hub = Arc::clone(&hub);
            thread::spawn(move || {
                for token in 0..PER_EMITTER {
                    hub.emit(0, EventKind::ProbeSent { token, attempt: e });
                }
            })
        })
        .collect();
    batched.join().unwrap();
    for h in singles {
        h.join().unwrap();
    }
    emitters_done.store(true, Ordering::Release);
    let (drained, shed_reported) = drainer.join().unwrap();

    let total = batched_total + 2 * PER_EMITTER;
    assert_eq!(hub.emitted(), total);
    assert_eq!(hub.queued(), 0);
    assert!(hub.dropped() > 0, "the ring never overflowed");
    assert_eq!(drained + hub.dropped(), total);
    assert_eq!(shed_reported, hub.dropped());
}

/// Counts the lines written to it.
#[derive(Default)]
struct LineCount(usize);

impl io::Write for LineCount {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 += buf.iter().filter(|&&b| b == b'\n').count();
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The drainer works chunk by chunk while a batched emitter and two
/// single emitters push: every chunk is at most `DRAIN_CHUNK` events,
/// each emitter's events arrive in order, each drain carries at most
/// one `events_dropped` record and only after all its events, every
/// event handed over is also rendered, and the totals balance exactly.
#[test]
fn chunked_drains_against_batched_and_single_emitters() {
    const BATCHES: u64 = 300;
    let hub = TelemetryHub::new(RING_CAPACITY);
    let batch_len = |b: u64| 1 + (b * 53) % 600;
    let batched_total: u64 = (0..BATCHES).map(batch_len).sum();
    let emitters_done = Arc::new(AtomicBool::new(false));

    let drainer = {
        let hub = Arc::clone(&hub);
        let emitters_done = Arc::clone(&emitters_done);
        thread::spawn(move || {
            let (mut drained, mut shed_reported, mut drains) = (0u64, 0u64, 0u64);
            let mut next = [0u64; 3];
            let mut lines = LineCount::default();
            let mut drain_once = |lines: &mut LineCount| {
                let mut record_seen = false;
                let handed = hub
                    .drain_chunks(Some(lines), |chunk| {
                        assert!(!chunk.is_empty() && chunk.len() <= DRAIN_CHUNK);
                        for ev in chunk {
                            assert!(!record_seen, "an event after this drain's loss record");
                            match ev.kind {
                                EventKind::EventsDropped { count } => {
                                    record_seen = true;
                                    shed_reported += count;
                                }
                                EventKind::ProbeSent { token, attempt } => {
                                    let emitter = attempt as usize;
                                    assert!(token >= next[emitter], "emitter {emitter} reordered");
                                    next[emitter] = token + 1;
                                    drained += 1;
                                }
                                ref other => panic!("unexpected {other:?}"),
                            }
                        }
                    })
                    .unwrap();
                drains += 1;
                handed
            };
            let mut handed = 0;
            loop {
                handed += drain_once(&mut lines);
                if emitters_done.load(Ordering::Acquire) {
                    // The last drains pick up the tail; an empty one
                    // shows nothing is left. What they hand over counts
                    // too: they render it.
                    loop {
                        let tail = drain_once(&mut lines);
                        handed += tail;
                        if tail == 0 {
                            break;
                        }
                    }
                    assert_eq!(lines.0, handed, "every event handed over was rendered");
                    return (drained, shed_reported, drains);
                }
                thread::sleep(Duration::from_millis(1));
            }
        })
    };

    let batched = {
        let hub = Arc::clone(&hub);
        thread::spawn(move || {
            let mut pass = Vec::new();
            let mut seq = 0u64;
            for b in 0..BATCHES {
                let at = std::time::Instant::now();
                for _ in 0..batch_len(b) {
                    pass.push(hub.event_at(
                        at,
                        0,
                        EventKind::ProbeSent {
                            token: seq,
                            attempt: 0,
                        },
                    ));
                    seq += 1;
                }
                hub.emit_all(&mut pass);
            }
        })
    };
    let singles: Vec<_> = (1..=2u32)
        .map(|e| {
            let hub = Arc::clone(&hub);
            thread::spawn(move || {
                for token in 0..PER_EMITTER {
                    hub.emit(0, EventKind::ProbeSent { token, attempt: e });
                }
            })
        })
        .collect();
    batched.join().unwrap();
    for h in singles {
        h.join().unwrap();
    }
    emitters_done.store(true, Ordering::Release);
    let (drained, shed_reported, drains) = drainer.join().unwrap();

    let total = batched_total + 2 * PER_EMITTER;
    assert!(drains > 1);
    assert_eq!(hub.emitted(), total);
    assert_eq!(hub.queued(), 0);
    assert!(hub.dropped() > 0, "the ring never overflowed");
    assert_eq!(hub.emitted(), drained + hub.queued() as u64 + hub.dropped());
    assert_eq!(shed_reported, hub.dropped());
}

#[test]
fn burst_then_drain_accounts_without_a_consumer_thread() {
    // Single-threaded worst case: nobody drains during the burst.
    let hub = TelemetryHub::new(64);
    for token in 0..1_000u64 {
        hub.emit(0, EventKind::ProbePlanned { token });
    }
    assert_eq!(hub.emitted(), 1_000);
    assert_eq!(hub.queued(), 64, "ring keeps the newest events");
    assert_eq!(hub.dropped(), 1_000 - 64);

    let events = hub.drain();
    let shed: u64 = events
        .iter()
        .filter_map(|ev| match ev.kind {
            EventKind::EventsDropped { count } => Some(count),
            _ => None,
        })
        .sum();
    let delivered = events.len() as u64 - 1; // minus the events_dropped record
    assert_eq!(delivered, 64);
    assert_eq!(shed, 1_000 - 64);
    // Drop-oldest: what survives is the newest tail, in order.
    match events[0].kind {
        EventKind::ProbePlanned { token } => assert_eq!(token, 1_000 - 64),
        ref other => panic!("expected probe_planned, got {other:?}"),
    }
}
