//! One reactor shard: an independent event loop owning its sockets,
//! correlation slab, timer wheel and buffer pool.
//!
//! The sharded reactor (see [`crate::reactor`]) runs N of these, one per
//! core. Nothing on a shard's hot path is shared with another shard:
//! probes arrive over a per-shard lock-free ring ([`cde_sysio::MpscRing`]),
//! partitioned by [`shard_for_target`] so every probe for a given target
//! ingress always lands on the same shard (and therefore the same socket
//! pool and correlation slab — replies can only match where the query
//! was sent from). The only cross-shard structures are intrinsically
//! mergeable: the per-shard [`MetricsBlock`], the shared telemetry hub,
//! the shared rate limiter (per-ingress buckets, each owned by exactly
//! one shard's targets), and the insight digest set (lock-free atomics).

use crate::bufpool::BufferPool;
use crate::flight::{FlightDisposition, FlightRecord, FlightRing};
use crate::metrics::MetricsBlock;
use crate::mulhash::MulMap;
use crate::ratelimit::RateLimiter;
use crate::reactor::{ProbeCompletion, ReactorInsight};
use crate::retry::RetryPolicy;
use crate::rto::RtoTable;
use crate::timer::{TimerKey, TimerWheel};
use crate::transport::TransportReply;
use cde_dns::wire::WireWriter;
use cde_dns::{Message, MessagePeek, Name, RecordType};
use cde_faults::{refused_reply, Direction, FaultInjector, FaultPlan, Verdict};
use cde_insight::Phase;
use cde_netsim::{DetRng, SimDuration};
use cde_pulse::{ExemplarReservoir, ProbeExemplar};
use cde_sysio::{MpscRing, Poller, RecvSlot, SendItem, MAX_BATCH};
use cde_telemetry::{DropReason, Event, EventKind as TelemetryEvent, TelemetryHub};
use crossbeam::channel::Sender;
use rand::Rng;
use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, VecDeque};
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Picks the shard that owns `ingress`, out of `shards`.
///
/// The partition is a stable FNV-1a hash of the address octets: pure,
/// total (every ingress maps to exactly one shard below `shards`) and
/// independent of process state, so a submitter, a test and a resumed
/// campaign all agree on placement. Replies arrive on the socket that
/// sent the query, so partitioning by target keeps correlation entirely
/// shard-local.
pub fn shard_for_target(ingress: Ipv4Addr, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in ingress.octets() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % shards as u64) as usize
}

/// A probe handed to a shard.
pub(crate) struct Submission {
    pub(crate) token: u64,
    pub(crate) ingress: Ipv4Addr,
    pub(crate) qname: Name,
    pub(crate) qtype: RecordType,
    pub(crate) done: Sender<ProbeCompletion>,
}

/// Where one in-flight probe stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PendingState {
    /// Waiting to be (re)sent — rate-limit delay or retransmit backoff.
    Scheduled,
    /// On the wire, awaiting a reply until the deadline timer fires.
    Waiting,
}

/// One correlation-table entry.
pub(crate) struct Pending {
    token: u64,
    ingress: Ipv4Addr,
    qname: Name,
    qtype: RecordType,
    target: SocketAddrV4,
    /// Cached wire encoding; retransmits patch bytes 0–1 (the id).
    bytes: Vec<u8>,
    socket: usize,
    id: u16,
    attempt: u32,
    sent_at: Instant,
    /// When the submission entered a correlation slot (exemplar lifetime
    /// base).
    admitted_at: Instant,
    /// Admission-to-first-send latency in microseconds; `u64::MAX` until
    /// the first send goes out.
    queue_us: u64,
    /// Deadline armed for the most recent attempt, in microseconds —
    /// the "RTO used" the flight record reports. 0 until the first send.
    last_rto_us: u32,
    state: PendingState,
    /// The one timer armed for this probe — its pending `Send` while
    /// `Scheduled` (if any), its read deadline while `Waiting` — so
    /// retiring the probe cancels it.
    timer: Option<TimerKey>,
    done: Sender<ProbeCompletion>,
}

/// What a timer firing means, and for which slot. A slot has at most
/// one timer armed, and retiring the slot cancels it (see
/// [`ShardLoop::complete`]), so every event the wheel hands back is for
/// the probe that armed it, in the state it armed it in.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TimerEvent {
    slot: usize,
    kind: EventKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventKind {
    /// The attempt's read deadline passed: retransmit or give up.
    Deadline,
    /// A scheduled (delayed) send is now due.
    Send,
}

/// A datagram held back by the fault layer, ordered by due tick (ties
/// broken by injection order so replay is exact).
pub(crate) struct DelayedDatagram {
    due: u64,
    seq: u64,
    socket: usize,
    bytes: Vec<u8>,
    addr: SocketAddrV4,
}

impl PartialEq for DelayedDatagram {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for DelayedDatagram {}
impl PartialOrd for DelayedDatagram {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for DelayedDatagram {
    // Reversed: BinaryHeap is a max-heap, we want earliest-due first.
    fn cmp(&self, other: &Self) -> CmpOrdering {
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

/// The reactor's chaos shim: a [`FaultInjector`] at the socket seam plus
/// the holding pens for delayed copies in both directions.
///
/// The injector's decision stream is stateful and must run in
/// transmission order, so a reactor with faults configured clamps to a
/// single shard (see [`crate::reactor::Reactor::launch`]).
pub(crate) struct FaultLayer {
    injector: FaultInjector,
    /// Outbound copies waiting for their injected delay.
    delayed_out: BinaryHeap<DelayedDatagram>,
    /// Inbound datagrams (delayed replies, synthesized REFUSED answers)
    /// waiting to re-enter correlation.
    delayed_in: BinaryHeap<DelayedDatagram>,
    seq: u64,
}

impl FaultLayer {
    pub(crate) fn new(plan: &FaultPlan) -> FaultLayer {
        FaultLayer {
            injector: FaultInjector::new(plan),
            delayed_out: BinaryHeap::new(),
            delayed_in: BinaryHeap::new(),
            seq: 0,
        }
    }

    pub(crate) fn stats(&self) -> Arc<cde_faults::FaultStats> {
        self.injector.stats()
    }

    fn push_out(&mut self, due: u64, socket: usize, bytes: Vec<u8>, addr: SocketAddrV4) {
        self.seq += 1;
        let seq = self.seq;
        self.delayed_out.push(DelayedDatagram {
            due,
            seq,
            socket,
            bytes,
            addr,
        });
    }

    fn push_in(&mut self, due: u64, socket: usize, bytes: Vec<u8>, addr: SocketAddrV4) {
        self.seq += 1;
        let seq = self.seq;
        self.delayed_in.push(DelayedDatagram {
            due,
            seq,
            socket,
            bytes,
            addr,
        });
    }
}

/// A shard's telemetry for one pass: events stamped from the loop's
/// clock as they happen, handed to the hub in one locked batch before
/// the pass delivers its completions (see [`ShardLoop::run`]).
pub(crate) struct PassEvents {
    hub: Arc<TelemetryHub>,
    queued: Vec<Event>,
}

impl PassEvents {
    pub(crate) fn new(hub: Arc<TelemetryHub>) -> PassEvents {
        PassEvents {
            hub,
            queued: Vec::new(),
        }
    }

    /// Queues one event that happened at `at`; nothing when the hub is
    /// disabled.
    fn emit(&mut self, at: Instant, kind: TelemetryEvent) {
        if self.hub.is_enabled() {
            self.queued.push(self.hub.event_at(at, 0, kind));
        }
    }

    /// Pushes the pass's events to the hub, in the order they happened.
    fn flush(&mut self) {
        self.hub.emit_all(&mut self.queued);
    }
}

/// One shard's event loop. Everything here is owned by the loop thread;
/// the `Arc`s cross threads only for submission (`ring`, plus the
/// poller's [`cde_sysio::Waker`]), control (`shutdown`, `drain`,
/// `exited`) and mergeable observability.
pub(crate) struct ShardLoop {
    pub(crate) targets: MulMap<Ipv4Addr, SocketAddr>,
    /// The shard's sockets and the one place the loop ever blocks.
    pub(crate) poller: Poller,
    pub(crate) next_socket: usize,
    pub(crate) ring: Arc<MpscRing<Submission>>,
    pub(crate) exited: Arc<AtomicBool>,
    pub(crate) slots: Vec<Option<Pending>>,
    pub(crate) free_slots: Vec<usize>,
    pub(crate) occupied: usize,
    pub(crate) correlation: MulMap<(usize, u16), usize>,
    pub(crate) timers: TimerWheel<TimerEvent>,
    pub(crate) expired: Vec<TimerEvent>,
    pub(crate) ready: VecDeque<usize>,
    pub(crate) admitted: Vec<usize>,
    pub(crate) pool: BufferPool,
    pub(crate) writer: WireWriter,
    pub(crate) recv_slots: Vec<RecvSlot>,
    pub(crate) policy: RetryPolicy,
    pub(crate) limiter: Option<Arc<RateLimiter>>,
    pub(crate) rng: DetRng,
    pub(crate) start: Instant,
    /// The loop's clock: its latest reading, taken at the start of each
    /// pass and right after each send and receive batch returns. Every
    /// per-probe time (send and admission stamps, RTT, timer ticks,
    /// flight and telemetry times) derives from it, so the loop pays
    /// for a clock read per batch, not per probe.
    pub(crate) now: Instant,
    pub(crate) block: Arc<MetricsBlock>,
    pub(crate) telemetry: PassEvents,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) drain: Arc<AtomicBool>,
    pub(crate) faults: Option<FaultLayer>,
    pub(crate) insight: Option<Arc<ReactorInsight>>,
    pub(crate) shard_id: u32,
    pub(crate) exemplars: Option<Arc<ExemplarReservoir>>,
    /// Adaptive per-ingress RTO table, shared across shards (each
    /// ingress's cell is only ever written by the one shard that owns
    /// the ingress). `None` runs the static [`RetryPolicy`] schedule.
    pub(crate) rto: Option<Arc<RtoTable>>,
    /// This shard's flight-recorder ring; the loop is its single
    /// writer. `None` when the recorder is off.
    pub(crate) flight: Option<Arc<FlightRing>>,
    /// Completions made this pass, each with its submitter's channel;
    /// flushed before the pass ends (see [`Self::flush_completions`]).
    pub(crate) outbox: Vec<(Sender<ProbeCompletion>, ProbeCompletion)>,
}

/// Builds a shard's pending-slot vector (the type is private to this
/// module, so the reactor's launch code sizes it through here).
pub(crate) fn empty_slots(max_in_flight: usize) -> Vec<Option<Pending>> {
    (0..max_in_flight).map(|_| None).collect()
}

/// Whole microseconds from `from` to `to`; 0 when `to` is earlier.
fn micros_between(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from)
        .as_micros()
        .min(u128::from(u64::MAX)) as u64
}

/// Attempts-made for a flight record from a zero-based attempt index.
fn attempts_made(attempt: u32) -> u8 {
    (attempt + 1).min(255) as u8
}

impl ShardLoop {
    /// Writes one record into this shard's flight ring (the caller has
    /// already checked the ring exists) and keeps the counters exact.
    fn flight_write(&self, ring: &FlightRing, rec: &FlightRecord) {
        if ring.record(rec) {
            self.block.record_flight_shed();
        }
        self.block.record_flight_record();
    }

    /// Starts a sampled phase timer; `None` when capture is off or this
    /// entry is not sampled. Zero-cost (no clock read) in both cases.
    #[inline]
    fn phase_begin(&self, phase: Phase) -> Option<Instant> {
        self.insight.as_ref().and_then(|i| i.phases().begin(phase))
    }

    /// Closes a sampled phase timer opened by [`Self::phase_begin`].
    #[inline]
    fn phase_end(&self, phase: Phase, started: Option<Instant>) {
        if let (Some(insight), Some(_)) = (&self.insight, started) {
            insight.phases().end(phase, started);
        }
    }

    pub(crate) fn run(mut self) {
        while !self.shutdown.load(Ordering::SeqCst) {
            let iter_start = Instant::now();
            self.now = iter_start;
            let mut progress = self.admit();
            progress |= self.fire_timers();
            progress |= self.send_ready();
            progress |= self.receive();
            progress |= self.release_delayed();
            // Telemetry first: a submitter that sees its completion
            // finds the probe's events already in the hub.
            self.telemetry.flush();
            self.flush_completions();
            self.block.set_wheel_pending(self.timers.len() as u64);
            self.block.set_ring_depth(self.ring.len() as u64);
            self.block.record_loop_iteration(iter_start.elapsed());
            // Graceful drain: once asked, exit as soon as the queued
            // backlog is admitted and every in-flight probe has answered
            // or timed out — all completions delivered, nothing dropped.
            if self.drain.load(Ordering::SeqCst) && self.occupied == 0 && self.ring.is_empty() {
                break;
            }
            self.wait(progress);
        }
        // Final gauge flush so a post-shutdown scrape reflects the
        // drained state instead of the last mid-flight sample.
        self.block.set_in_flight(self.occupied as u64);
        self.block.set_wheel_pending(self.timers.len() as u64);
        self.block.set_ring_depth(self.ring.len() as u64);
        self.exited.store(true, Ordering::SeqCst);
    }

    /// The timer wheel's clock at the loop's latest reading: whole
    /// milliseconds since `start`. Deadlines and backoffs are
    /// millisecond-scale, so a 1 ms tick wastes no precision the wire
    /// could deliver.
    fn now_tick(&self) -> u64 {
        self.now.saturating_duration_since(self.start).as_millis() as u64
    }

    fn ticks(d: Duration) -> u64 {
        if d.is_zero() {
            0
        } else {
            (d.as_millis() as u64).max(1)
        }
    }

    /// Pulls submissions into free correlation slots; batch-debits the
    /// rate limiter for everything admitted this round.
    fn admit(&mut self) -> bool {
        debug_assert!(self.admitted.is_empty());
        while !self.free_slots.is_empty() {
            match self.ring.pop() {
                Some(sub) => self.admit_one(sub),
                None => break,
            }
        }
        if self.admitted.is_empty() {
            return false;
        }
        self.block.set_in_flight(self.occupied as u64);
        let admitted = std::mem::take(&mut self.admitted);
        if let Some(limiter) = self.limiter.clone() {
            // Batch-aware token take: one bucket update per distinct
            // ingress in the admitted burst, not one per probe.
            let mut groups: Vec<(Ipv4Addr, u32)> = Vec::new();
            for &slot in &admitted {
                let ingress = self.slots[slot].as_ref().expect("admitted slot").ingress;
                match groups.iter_mut().find(|(ip, _)| *ip == ingress) {
                    Some((_, n)) => *n += 1,
                    None => groups.push((ingress, 1)),
                }
            }
            let mut waits: Vec<(Ipv4Addr, Duration)> = Vec::with_capacity(groups.len());
            for (ingress, n) in groups {
                waits.push((ingress, limiter.debit_n(ingress, n)));
            }
            let now_tick = self.now_tick();
            for &slot in &admitted {
                let ingress = self.slots[slot].as_ref().expect("admitted slot").ingress;
                let wait = waits
                    .iter()
                    .find(|(ip, _)| *ip == ingress)
                    .map(|(_, w)| *w)
                    .unwrap_or_default();
                if wait.is_zero() {
                    self.ready.push_back(slot);
                } else {
                    // Pay the limiter by scheduling, not sleeping.
                    self.block.record_rate_limit_stall(wait);
                    self.arm(slot, now_tick + Self::ticks(wait), EventKind::Send);
                }
            }
        } else {
            self.ready.extend(admitted.iter().copied());
        }
        self.admitted = admitted;
        self.admitted.clear();
        true
    }

    fn admit_one(&mut self, sub: Submission) {
        let target = match self.targets.get(&sub.ingress) {
            Some(SocketAddr::V4(v4)) => *v4,
            // No route to this ingress — indistinguishable from loss.
            _ => {
                if let Some(ring) = &self.flight {
                    let now_us = ring.instant_us(self.now);
                    self.flight_write(
                        ring,
                        &FlightRecord {
                            token: sub.token,
                            ingress: sub.ingress,
                            shard: self.shard_id as u16,
                            attempts: 0,
                            disposition: FlightDisposition::Unroutable,
                            recorded_at_us: now_us,
                            sent_at_us: 0,
                            matched_at_us: 0,
                            expired_at_us: now_us,
                            rto_us: 0,
                            wire_size: 0,
                            qid: 0,
                        },
                    );
                }
                self.block.record_timeout();
                self.telemetry.emit(
                    self.now,
                    TelemetryEvent::ProbeTimedOut {
                        token: sub.token,
                        attempts: 0,
                    },
                );
                self.outbox.push((
                    sub.done,
                    ProbeCompletion {
                        token: sub.token,
                        reply: TransportReply::TimedOut,
                    },
                ));
                return;
            }
        };
        let slot = self.free_slots.pop().expect("admit checked free_slots");
        self.slots[slot] = Some(Pending {
            token: sub.token,
            ingress: sub.ingress,
            qname: sub.qname,
            qtype: sub.qtype,
            target,
            bytes: self.pool.take(),
            socket: usize::MAX,
            id: 0,
            attempt: 0,
            sent_at: self.now,
            admitted_at: self.now,
            queue_us: u64::MAX,
            last_rto_us: 0,
            state: PendingState::Scheduled,
            timer: None,
            done: sub.done,
        });
        self.occupied += 1;
        self.admitted.push(slot);
    }

    /// Arms `slot`'s one timer: `kind` at tick `deadline`.
    fn arm(&mut self, slot: usize, deadline: u64, kind: EventKind) {
        let key = self.timers.schedule(deadline, TimerEvent { slot, kind });
        let p = self.slots[slot].as_mut().expect("arming an occupied slot");
        debug_assert!(p.timer.is_none(), "slot {slot} already has a timer");
        p.timer = Some(key);
    }

    /// Advances the wheel and acts on every expired event. Retiring a
    /// probe cancels its timer, so each event's slot still holds the
    /// probe that armed it, in the state it armed it in.
    fn fire_timers(&mut self) -> bool {
        let now_tick = self.now_tick();
        let mut expired = std::mem::take(&mut self.expired);
        expired.clear();
        let t_timers = self.phase_begin(Phase::Timers);
        self.timers.advance(now_tick, &mut expired);
        self.phase_end(Phase::Timers, t_timers);
        let progress = !expired.is_empty();
        for ev in expired.drain(..) {
            let p = self.slots[ev.slot]
                .as_mut()
                .expect("an armed timer's slot is occupied");
            debug_assert!(p.timer.is_some(), "slot {} fired unarmed", ev.slot);
            p.timer = None;
            match ev.kind {
                EventKind::Send => {
                    debug_assert_eq!(p.state, PendingState::Scheduled);
                    self.ready.push_back(ev.slot);
                }
                EventKind::Deadline => {
                    debug_assert_eq!(p.state, PendingState::Waiting);
                    let attempt = p.attempt;
                    // The attempt is dead: late replies to its id must
                    // land as strays, never match.
                    self.correlation.remove(&(p.socket, p.id));
                    // A deadline expiry is an unambiguous loss signal
                    // (unlike replies after a retransmit): back the
                    // learned RTO off before deciding retry-vs-give-up.
                    if let Some(table) = &self.rto {
                        table.observe_timeout(p.ingress);
                        self.block.record_rto_backoff();
                    }
                    if attempt + 1 >= self.policy.attempts.max(1) {
                        self.block.record_timeout();
                        self.telemetry.emit(
                            self.now,
                            TelemetryEvent::ProbeTimedOut {
                                token: p.token,
                                attempts: attempt + 1,
                            },
                        );
                        self.complete(ev.slot, TransportReply::TimedOut);
                    } else {
                        let delay = self.policy.delay_before(attempt + 1, &mut self.rng);
                        p.attempt += 1;
                        p.state = PendingState::Scheduled;
                        self.block.record_retry();
                        self.telemetry.emit(
                            self.now,
                            TelemetryEvent::ProbeRetried {
                                token: p.token,
                                attempt: attempt + 1,
                            },
                        );
                        self.arm(ev.slot, now_tick + Self::ticks(delay), EventKind::Send);
                    }
                }
            }
        }
        self.expired = expired;
        progress
    }

    /// Drains the ready queue in batches: one `sendmmsg` per socket per
    /// round, rotating sockets for source-port diversity.
    fn send_ready(&mut self) -> bool {
        if self.ready.is_empty() {
            return false;
        }
        let mut progress = false;
        for _ in 0..self.poller.sockets().len() {
            if self.ready.is_empty() {
                break;
            }
            let socket_idx = self.next_socket;
            self.next_socket = (self.next_socket + 1) % self.poller.sockets().len();
            let count = self.ready.len().min(MAX_BATCH);
            let mut batch = [0usize; MAX_BATCH];
            for b in batch.iter_mut().take(count) {
                *b = self.ready.pop_front().expect("counted");
            }
            let batch = &batch[..count];
            // Arm each probe: fresh id patched into the cached encoding
            // (first send encodes via the reusable writer — no per-probe
            // allocation either way).
            let t_encode = self.phase_begin(Phase::Encode);
            for &slot in batch {
                let id = fresh_id(&mut self.rng, &self.correlation, socket_idx);
                let p = self.slots[slot].as_mut().expect("ready slot occupied");
                p.socket = socket_idx;
                p.id = id;
                if p.bytes.is_empty() {
                    Message::encode_query_into(&mut self.writer, id, &p.qname, p.qtype);
                    p.bytes.extend_from_slice(self.writer.as_slice());
                } else {
                    p.bytes[0..2].copy_from_slice(&id.to_be_bytes());
                }
                self.correlation.insert((socket_idx, id), slot);
            }
            self.phase_end(Phase::Encode, t_encode);
            let outcome = if self.faults.is_some() {
                // Chaos path: every armed probe is "sent" from the
                // engine's point of view (deadlines, retries and loss
                // feedback behave), but each datagram runs the fault
                // gauntlet on its way to the wire.
                let mut layer = self.faults.take().expect("checked is_some");
                for &slot in batch {
                    self.emit_faulty(&mut layer, socket_idx, slot);
                }
                self.faults = Some(layer);
                Ok(count)
            } else {
                let empty: &[u8] = &[];
                let mut items = [SendItem {
                    payload: empty,
                    dest: SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0),
                }; MAX_BATCH];
                for (item, &slot) in items.iter_mut().zip(batch) {
                    let p = self.slots[slot].as_ref().expect("ready slot occupied");
                    *item = SendItem {
                        payload: &p.bytes,
                        dest: p.target,
                    };
                }
                let t_send = self.phase_begin(Phase::SendBatch);
                let sent =
                    cde_sysio::send_batch(&self.poller.sockets()[socket_idx], &items[..count]);
                self.phase_end(Phase::SendBatch, t_send);
                sent
            };
            self.now = Instant::now();
            let now_tick = self.now_tick();
            match outcome {
                Ok(sent) => {
                    if sent > 0 {
                        progress = true;
                        self.block.record_send_batch(sent);
                    }
                    for (i, &slot) in batch.iter().enumerate().rev() {
                        if i < sent {
                            let p = self.slots[slot].as_mut().expect("ready slot occupied");
                            p.state = PendingState::Waiting;
                            p.sent_at = self.now;
                            if p.queue_us == u64::MAX {
                                p.queue_us = micros_between(p.admitted_at, self.now);
                            }
                            self.block.record_sent();
                            self.telemetry.emit(
                                self.now,
                                TelemetryEvent::ProbeSent {
                                    token: p.token,
                                    attempt: p.attempt,
                                },
                            );
                            // Adaptive deadlines never exceed the static
                            // schedule: `timeout_for` stays the upper
                            // bound, so graces derived from
                            // `RetryPolicy::worst_case` remain honest.
                            let timeout = match &self.rto {
                                Some(table) => {
                                    self.block.record_adaptive_deadline();
                                    table
                                        .deadline_for(p.ingress, p.attempt)
                                        .min(self.policy.timeout_for(p.attempt))
                                }
                                None => self.policy.timeout_for(p.attempt),
                            };
                            p.last_rto_us = timeout.as_micros().min(u128::from(u32::MAX)) as u32;
                            let deadline = now_tick + Self::ticks(timeout).max(1);
                            self.arm(slot, deadline, EventKind::Deadline);
                        } else {
                            // Kernel backpressure: retract and retry next
                            // round (reverse order keeps FIFO).
                            let p = self.slots[slot].as_ref().expect("ready slot occupied");
                            self.correlation.remove(&(socket_idx, p.id));
                            self.ready.push_front(slot);
                        }
                    }
                }
                Err(_) => {
                    // A hard socket error: fail the whole batch rather
                    // than spin on it.
                    for &slot in batch {
                        let p = self.slots[slot].as_ref().expect("ready slot occupied");
                        self.correlation.remove(&(socket_idx, p.id));
                        self.block.record_timeout();
                        self.complete(slot, TransportReply::TimedOut);
                    }
                }
            }
        }
        progress
    }

    /// Drains, in batches, the receive queue of every socket the last
    /// wait reported — every socket, when it could not say (see
    /// [`Poller::ready`]) — and correlates. A datagram that lands on
    /// any other socket meanwhile is not lost to this: readiness is
    /// level-triggered, so it ends the wait this pass is about to enter.
    fn receive(&mut self) -> bool {
        let mut progress = false;
        let mut recv_slots = std::mem::take(&mut self.recv_slots);
        for socket_idx in 0..self.poller.sockets().len() {
            if !self.poller.ready(socket_idx) {
                continue;
            }
            loop {
                let t_recv = self.phase_begin(Phase::RecvBatch);
                let received =
                    cde_sysio::recv_batch(&self.poller.sockets()[socket_idx], &mut recv_slots);
                self.phase_end(Phase::RecvBatch, t_recv);
                let got = match received {
                    Ok(got) => got,
                    Err(_) => {
                        // A socket that cannot be read may still poll
                        // ready, and readiness is level-triggered: clear
                        // a pending SO_ERROR, count the failure, and sit
                        // this socket out of the next wait so the loop
                        // falls back to its timer deadline instead of
                        // spinning on a wake source it cannot drain.
                        let _ = self.poller.sockets()[socket_idx].take_error();
                        self.block.record_decode_error();
                        self.poller.mute_next(socket_idx);
                        0
                    }
                };
                self.block.record_recv_batch(got);
                if got == 0 {
                    break;
                }
                self.now = Instant::now();
                progress = true;
                // A coalesced run is many replies from one source; each
                // is checked and correlated on its own.
                for rs in recv_slots.iter().take(got) {
                    let Some(from) = rs.from() else { continue };
                    for datagram in rs.datagrams() {
                        if self.faults.is_some() {
                            self.receive_faulty(socket_idx, datagram, from);
                        } else {
                            self.process_datagram(socket_idx, datagram, from);
                        }
                    }
                }
                if got < recv_slots.len() {
                    break;
                }
            }
        }
        self.recv_slots = recv_slots;
        progress
    }

    /// Sends one armed probe through the fault layer: dropped, REFUSED
    /// (a synthesized answer queued inbound), or delivered — possibly
    /// delayed, duplicated or truncated.
    fn emit_faulty(&mut self, layer: &mut FaultLayer, socket_idx: usize, slot: usize) {
        // The fault layer reads the clock per datagram, into the loop's
        // clock so the shard's stamps stay monotone.
        self.now = Instant::now();
        let now = self.now.saturating_duration_since(self.start);
        let now_tick = self.now_tick();
        let p = self.slots[slot].as_ref().expect("ready slot occupied");
        match layer
            .injector
            .decide(Direction::ClientToServer, now, p.bytes.len())
        {
            Verdict::Refuse => {
                // The "resolver" answers REFUSED without resolving: the
                // synthesized reply re-enters through correlation (from
                // the probed target, so the anti-spoofing checks pass).
                if let Some(reply) = refused_reply(&p.bytes) {
                    layer.push_in(now_tick, socket_idx, reply, p.target);
                }
            }
            // Nothing reaches the wire; the deadline timer will fire.
            // The flight ring keeps the engine-side wire observation —
            // this query died *outbound*, so the cache behind the target
            // stayed cold. Forensics joins it back by token.
            Verdict::Drop(_) => {
                if let Some(ring) = &self.flight {
                    let now_us = ring.instant_us(self.now);
                    self.flight_write(
                        ring,
                        &FlightRecord {
                            token: p.token,
                            ingress: p.ingress,
                            shard: self.shard_id as u16,
                            attempts: attempts_made(p.attempt),
                            disposition: FlightDisposition::QueryDropped,
                            recorded_at_us: now_us,
                            sent_at_us: now_us,
                            matched_at_us: 0,
                            expired_at_us: 0,
                            rto_us: 0,
                            wire_size: p.bytes.len().min(usize::from(u16::MAX)) as u16,
                            qid: p.id,
                        },
                    );
                }
            }
            Verdict::Deliver(copies) => {
                for copy in copies {
                    let len = copy.truncate_to.unwrap_or(p.bytes.len()).min(p.bytes.len());
                    if copy.delay.is_zero() && len == p.bytes.len() {
                        let _ = self.poller.sockets()[socket_idx].send_to(&p.bytes, p.target);
                    } else {
                        layer.push_out(
                            now_tick + Self::ticks(copy.delay),
                            socket_idx,
                            p.bytes[..len].to_vec(),
                            p.target,
                        );
                    }
                }
            }
        }
    }

    /// Runs one received datagram through the reply-direction gauntlet
    /// before correlation: lost replies vanish, delayed/duplicated
    /// copies queue up (late duplicates then land as strays — exactly
    /// the taxonomy a chaotic wire produces).
    fn receive_faulty(&mut self, socket_idx: usize, bytes: &[u8], from: SocketAddrV4) {
        self.now = Instant::now();
        let now = self.now.saturating_duration_since(self.start);
        let now_tick = self.now_tick();
        let mut immediate = 0u32;
        {
            let layer = self.faults.as_mut().expect("faults enabled");
            match layer
                .injector
                .decide(Direction::ServerToClient, now, bytes.len())
            {
                // The reply existed and died *inbound*: the query did
                // reach the serving chain (the cache is warm). Joined
                // back to its probe by the correlation entry, which is
                // still live — the deadline hasn't retired it yet.
                Verdict::Drop(_) => {
                    if let Some(ring) = &self.flight {
                        let peeked = MessagePeek::parse(bytes).ok();
                        let qid = peeked.as_ref().map(MessagePeek::id).unwrap_or(0);
                        let (token, ingress, attempts) = peeked
                            .and_then(|pk| self.correlation.get(&(socket_idx, pk.id())).copied())
                            .and_then(|slot| self.slots[slot].as_ref())
                            .map(|p| (p.token, p.ingress, attempts_made(p.attempt)))
                            .unwrap_or((FlightRecord::NO_TOKEN, *from.ip(), 0));
                        let now_us = ring.instant_us(self.now);
                        let rec = FlightRecord {
                            token,
                            ingress,
                            shard: self.shard_id as u16,
                            attempts,
                            disposition: FlightDisposition::ReplyDropped,
                            recorded_at_us: now_us,
                            sent_at_us: 0,
                            matched_at_us: 0,
                            expired_at_us: 0,
                            rto_us: 0,
                            wire_size: bytes.len().min(usize::from(u16::MAX)) as u16,
                            qid,
                        };
                        if ring.record(&rec) {
                            self.block.record_flight_shed();
                        }
                        self.block.record_flight_record();
                    }
                }
                Verdict::Refuse => {}
                Verdict::Deliver(copies) => {
                    for copy in copies {
                        let len = copy.truncate_to.unwrap_or(bytes.len()).min(bytes.len());
                        if copy.delay.is_zero() && len == bytes.len() {
                            immediate += 1;
                        } else {
                            layer.push_in(
                                now_tick + Self::ticks(copy.delay),
                                socket_idx,
                                bytes[..len].to_vec(),
                                from,
                            );
                        }
                    }
                }
            }
        }
        for _ in 0..immediate {
            self.process_datagram(socket_idx, bytes, from);
        }
    }

    /// Flushes fault-layer datagrams whose injected delay has elapsed:
    /// outbound copies hit the wire, inbound ones re-enter correlation.
    fn release_delayed(&mut self) -> bool {
        if self.faults.is_none() {
            return false;
        }
        let mut layer = self.faults.take().expect("checked is_none");
        // A released reply's RTT runs to its release.
        self.now = Instant::now();
        let now_tick = self.now_tick();
        let mut progress = false;
        while layer.delayed_out.peek().is_some_and(|d| d.due <= now_tick) {
            let d = layer.delayed_out.pop().expect("peeked");
            let _ = self.poller.sockets()[d.socket].send_to(&d.bytes, d.addr);
            progress = true;
        }
        while layer.delayed_in.peek().is_some_and(|d| d.due <= now_tick) {
            let d = layer.delayed_in.pop().expect("peeked");
            self.process_datagram(d.socket, &d.bytes, d.addr);
            progress = true;
        }
        self.faults = Some(layer);
        progress
    }

    /// Correlates one inbound datagram, enforcing the anti-spoofing
    /// checks: id match, source address match, echoed-question match.
    fn process_datagram(&mut self, socket_idx: usize, bytes: &[u8], from: SocketAddrV4) {
        let t_decode = self.phase_begin(Phase::Decode);
        let parsed = MessagePeek::parse(bytes);
        self.phase_end(Phase::Decode, t_decode);
        let Ok(peek) = parsed else {
            self.block.record_decode_error();
            return;
        };
        if !peek.is_response() {
            return;
        }
        let t_correlate = self.phase_begin(Phase::Correlate);
        let Some(&slot) = self.correlation.get(&(socket_idx, peek.id())) else {
            // Wrong id, or a duplicate/late reply after the deadline
            // already retired the attempt — including a reply that
            // somehow landed on a socket whose shard never sent the
            // probe (correlation is strictly shard-local).
            if let Some(ring) = &self.flight {
                let now_us = ring.instant_us(self.now);
                self.flight_write(
                    ring,
                    &FlightRecord {
                        token: FlightRecord::NO_TOKEN,
                        ingress: *from.ip(),
                        shard: self.shard_id as u16,
                        attempts: 0,
                        disposition: FlightDisposition::StrayReply,
                        recorded_at_us: now_us,
                        sent_at_us: 0,
                        matched_at_us: 0,
                        expired_at_us: 0,
                        rto_us: 0,
                        wire_size: bytes.len().min(usize::from(u16::MAX)) as u16,
                        qid: peek.id(),
                    },
                );
            }
            self.block.record_stray_reply();
            self.telemetry.emit(
                self.now,
                TelemetryEvent::ReplyDropped {
                    reason: DropReason::Stray,
                },
            );
            self.phase_end(Phase::Correlate, t_correlate);
            return;
        };
        let p = self.slots[slot].as_ref().expect("correlated slot occupied");
        if from != p.target {
            // Right id, wrong source: off-path spoofing. Keep waiting for
            // the genuine answer.
            self.block.record_spoofed_reply();
            self.telemetry.emit(
                self.now,
                TelemetryEvent::ReplyDropped {
                    reason: DropReason::Spoofed,
                },
            );
            self.phase_end(Phase::Correlate, t_correlate);
            return;
        }
        match peek.question_matches(&p.qname, p.qtype) {
            Ok(true) => {}
            Ok(false) => {
                // Id collision: someone else's answer hashed onto our id.
                self.block.record_qname_mismatch();
                self.telemetry.emit(
                    self.now,
                    TelemetryEvent::ReplyDropped {
                        reason: DropReason::Duplicate,
                    },
                );
                self.phase_end(Phase::Correlate, t_correlate);
                return;
            }
            Err(_) => {
                self.block.record_decode_error();
                self.phase_end(Phase::Correlate, t_correlate);
                return;
            }
        }
        self.phase_end(Phase::Correlate, t_correlate);
        // From the return of the send batch that carried the query to
        // the return of the receive call that carried the reply.
        let rtt = self.now.saturating_duration_since(p.sent_at);
        let rtt_us = rtt.as_micros().min(u128::from(u64::MAX)) as u64;
        // A reply arriving after a retransmit can belong to *either*
        // attempt; its last-send RTT is untrustworthy for timing
        // analysis, so both the digest and the event carry the flag.
        let retransmit_ambiguous = p.attempt > 0;
        self.block.record_received(rtt);
        // Karn's rule at the one place attempt counts are known: only
        // first-attempt replies feed the estimator a sample; ambiguous
        // deliveries just clear its backoff.
        if let Some(table) = &self.rto {
            if retransmit_ambiguous {
                table.observe_delivery_ambiguous(p.ingress);
            } else {
                table.observe_rtt(p.ingress, rtt_us);
            }
        }
        if let Some(insight) = &self.insight {
            insight
                .digests()
                .record(p.ingress, rtt_us, retransmit_ambiguous);
        }
        self.telemetry.emit(
            self.now,
            TelemetryEvent::ProbeMatched {
                token: p.token,
                attempt: p.attempt,
                rtt_us,
                retransmit_ambiguous,
            },
        );
        self.complete(
            slot,
            TransportReply::Answered {
                latency: Some(SimDuration::from_micros(rtt.as_micros() as u64)),
                rcode: peek.flags().rcode,
            },
        );
    }

    /// Retires a slot: cancels its armed timer (a matched probe's read
    /// deadline; a probe retired by its own timer has none left), frees
    /// the correlation entry, recycles the buffer and queues the
    /// completion for this pass's flush. So the wheel holds live timers
    /// only — never more than the slots in use.
    fn complete(&mut self, slot: usize, reply: TransportReply) {
        let p = self.slots[slot].take().expect("completing occupied slot");
        if let Some(key) = p.timer {
            let cancelled = self.timers.cancel(key);
            debug_assert!(cancelled.is_some_and(|ev| ev.slot == slot));
        }
        self.correlation.remove(&(p.socket, p.id));
        if let Some(ring) = self.flight.as_ref().map(Arc::clone) {
            let now_us = ring.instant_us(self.now);
            let disposition = match &reply {
                TransportReply::Answered { rcode, .. } => {
                    if *rcode == cde_dns::Rcode::Refused {
                        FlightDisposition::Refused
                    } else {
                        FlightDisposition::Answered
                    }
                }
                TransportReply::TimedOut => FlightDisposition::TimedOut,
            };
            let ever_sent = p.queue_us != u64::MAX;
            self.flight_write(
                &ring,
                &FlightRecord {
                    token: p.token,
                    ingress: p.ingress,
                    shard: self.shard_id as u16,
                    attempts: if ever_sent {
                        attempts_made(p.attempt)
                    } else {
                        0
                    },
                    disposition,
                    recorded_at_us: now_us,
                    sent_at_us: if ever_sent {
                        ring.instant_us(p.sent_at)
                    } else {
                        0
                    },
                    matched_at_us: if disposition == FlightDisposition::TimedOut {
                        0
                    } else {
                        now_us
                    },
                    expired_at_us: if disposition == FlightDisposition::TimedOut {
                        now_us
                    } else {
                        0
                    },
                    rto_us: p.last_rto_us,
                    wire_size: p.bytes.len().min(usize::from(u16::MAX)) as u16,
                    qid: p.id,
                },
            );
        }
        self.pool.give(p.bytes);
        self.occupied -= 1;
        self.free_slots.push(slot);
        self.block.set_in_flight(self.occupied as u64);
        if let Some(reservoir) = &self.exemplars {
            let rtt_us = match &reply {
                TransportReply::Answered {
                    latency: Some(l), ..
                } => l.as_micros(),
                _ => 0,
            };
            reservoir.record(ProbeExemplar {
                token: p.token,
                shard: self.shard_id,
                ingress: p.ingress,
                attempts: p.attempt + 1,
                rtt_us,
                queue_us: if p.queue_us == u64::MAX {
                    0
                } else {
                    p.queue_us
                },
                lifetime_us: micros_between(p.admitted_at, self.now),
                answered: matches!(reply, TransportReply::Answered { .. }),
            });
        }
        self.outbox.push((
            p.done,
            ProbeCompletion {
                token: p.token,
                reply,
            },
        ));
    }

    /// Delivers the pass's completions: one locked push per run of
    /// consecutive completions bound for the same channel, instead of a
    /// lock (and a wake) per probe. `run` calls this once per pass,
    /// before the drain check and the wait, so no completion outlives
    /// the pass that made it — nor sits behind a blocking wait.
    fn flush_completions(&mut self) {
        let mut outbox = self.outbox.drain(..).peekable();
        while let Some((done, first)) = outbox.next() {
            // The run's other senders drop inside `send_all`; `done`
            // outlives them, so none is the channel's last.
            let run = std::iter::once(first).chain(std::iter::from_fn(|| {
                outbox
                    .next_if(|(next, _)| next.same_channel(&done))
                    .map(|(_, completion)| completion)
            }));
            let _ = done.send_all(run);
        }
    }

    /// Where every pass ends, and the only place the loop learns which
    /// sockets to read: the shard's one wait, over until a socket turns
    /// readable, a submitter (or drain/shutdown) fires the waker, or the
    /// next thing this loop scheduled for itself falls due — with no
    /// deadline at all when nothing is pending. Readiness is
    /// level-triggered, so after a pass that left datagrams queued the
    /// wait is over at once and names their sockets.
    fn wait(&mut self, progress: bool) {
        // Ticks are milliseconds since `start` (see `now_tick`).
        let timeout = self.next_due_tick().map(|tick| {
            (self.start + Duration::from_millis(tick)).saturating_duration_since(Instant::now())
        });
        // Queued submissions are work only while a slot is free to admit
        // them into; with the slab full the loop is waiting on replies.
        let ring = &self.ring;
        let can_admit = !self.free_slots.is_empty();
        // A poller blind to its sockets would nap on whatever a pass
        // that found datagrams left behind: sweep again instead.
        let sweep_again = progress && !self.poller.sees_sockets();
        self.block.begin_park();
        let wake = self
            .poller
            .wait(timeout, || sweep_again || (can_admit && !ring.is_empty()));
        self.block.end_park(wake.is_some());
        match wake {
            Some(wake) => {
                if let Some(latency) = wake.wake_latency {
                    self.block.record_wake_latency(latency);
                }
            }
            // Work was already queued: stay hot, but let serving
            // threads run on small machines.
            None => std::thread::yield_now(),
        }
    }

    /// The earliest tick at which this loop has something to do that no
    /// outside event will announce: a timer, a fault-layer datagram
    /// coming out of its delay, or a send the kernel pushed back.
    fn next_due_tick(&self) -> Option<u64> {
        let delayed = self.faults.iter().flat_map(|layer| {
            [&layer.delayed_out, &layer.delayed_in]
                .into_iter()
                .filter_map(|pen| pen.peek().map(|d| d.due))
        });
        // A full send buffer leaves probes on the ready queue: retry on
        // the next tick, as `send_batch` asks.
        let backpressured = (!self.ready.is_empty()).then(|| self.now_tick() + 1);
        self.timers
            .next_due()
            .into_iter()
            .chain(delayed)
            .chain(backpressured)
            .min()
    }
}

/// The most probes one shard holds in flight: the query-id space of one
/// socket. The reactor clamps each shard's slab to it, so a socket holds
/// at most 65 535 live ids while [`fresh_id`] arms the 65 536th slot.
pub(crate) const MAX_SLAB: usize = 1 << 16;

/// Picks a query id unused on `socket`, preferring a random draw and
/// linearly probing on collision.
fn fresh_id(rng: &mut DetRng, correlation: &MulMap<(usize, u16), usize>, socket: usize) -> u16 {
    let mut id: u16 = rng.gen();
    for _ in 0..=u16::MAX {
        if !correlation.contains_key(&(socket, id)) {
            return id;
        }
        id = id.wrapping_add(1);
    }
    // Unreachable: the slot being armed holds no id, and the slab
    // (at most `MAX_SLAB` slots) leaves one free on every socket.
    id
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_total_and_stable() {
        for shards in 1..=9usize {
            for a in 0..=255u8 {
                let ip = Ipv4Addr::new(10, 0, a, a.wrapping_mul(7));
                let s = shard_for_target(ip, shards);
                assert!(s < shards);
                assert_eq!(s, shard_for_target(ip, shards), "must be deterministic");
            }
        }
    }

    #[test]
    fn partition_spreads_across_shards() {
        // Not a uniformity proof — just that FNV over last-octet-varying
        // addresses doesn't collapse onto one shard.
        let shards = 4;
        let mut seen = vec![0usize; shards];
        for d in 1..=64u8 {
            seen[shard_for_target(Ipv4Addr::new(192, 0, 2, d), shards)] += 1;
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "64 consecutive addresses left a shard empty: {seen:?}"
        );
    }

    #[test]
    fn fresh_id_finds_the_one_free_id_on_a_full_socket() {
        let free = 40_000u16;
        let mut correlation = MulMap::default();
        for id in (0..=u16::MAX).filter(|&id| id != free) {
            correlation.insert((1, id), usize::from(id));
        }
        // The free id being live on another socket does not count.
        correlation.insert((0, free), 0);
        assert_eq!(correlation.len(), usize::from(u16::MAX) + 1);
        let mut rng = DetRng::seed(7);
        for _ in 0..4 {
            assert_eq!(fresh_id(&mut rng, &correlation, 1), free);
        }
    }

    /// A shard loop over `sockets`, everything optional switched off.
    #[cfg(unix)]
    fn bare_loop(
        sockets: Vec<std::net::UdpSocket>,
        target: SocketAddr,
        policy: RetryPolicy,
    ) -> ShardLoop {
        const SLOTS: usize = 4;
        ShardLoop {
            targets: [(Ipv4Addr::new(192, 0, 2, 1), target)]
                .into_iter()
                .collect(),
            poller: Poller::new(sockets).unwrap(),
            next_socket: 0,
            ring: Arc::new(MpscRing::with_capacity(8)),
            exited: Arc::new(AtomicBool::new(false)),
            slots: empty_slots(SLOTS),
            free_slots: (0..SLOTS).rev().collect(),
            occupied: 0,
            correlation: MulMap::default(),
            timers: TimerWheel::new(0),
            expired: Vec::new(),
            ready: VecDeque::new(),
            admitted: Vec::new(),
            pool: BufferPool::new(128, SLOTS),
            writer: WireWriter::new(),
            recv_slots: (0..MAX_BATCH).map(|_| RecvSlot::new()).collect(),
            policy,
            limiter: None,
            rng: DetRng::seed(1),
            start: Instant::now(),
            now: Instant::now(),
            block: Arc::new(MetricsBlock::new()),
            telemetry: PassEvents::new(TelemetryHub::disabled()),
            shutdown: Arc::new(AtomicBool::new(false)),
            drain: Arc::new(AtomicBool::new(false)),
            faults: None,
            insight: None,
            shard_id: 0,
            exemplars: None,
            rto: None,
            flight: None,
            outbox: Vec::new(),
        }
    }

    /// `/dev/null` dressed as a socket: `poll` reports it readable for
    /// ever and every receive on it fails with ENOTSOCK — the sickest
    /// socket there is, from safe code.
    #[cfg(unix)]
    fn sick_socket() -> std::net::UdpSocket {
        std::os::fd::OwnedFd::from(std::fs::File::open("/dev/null").unwrap()).into()
    }

    #[cfg(unix)]
    #[test]
    fn unreadable_socket_is_counted_and_cannot_spin_the_blocked_loop() {
        let healthy = std::net::UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        healthy.set_nonblocking(true).unwrap();
        // A target that exists and never answers: the probe's only
        // future is its 60 ms deadline.
        let silent = std::net::UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let timeout = Duration::from_millis(60);
        let shard = bare_loop(
            vec![healthy, sick_socket()],
            silent.local_addr().unwrap(),
            RetryPolicy {
                attempts: 1,
                timeout,
                backoff: 1.0,
                base_delay: Duration::from_millis(1),
                jitter: 0.0,
            },
        );
        let (ring, waker) = (Arc::clone(&shard.ring), shard.poller.waker());
        let (block, shutdown) = (Arc::clone(&shard.block), Arc::clone(&shard.shutdown));
        let thread = std::thread::spawn(move || shard.run());

        let (done_tx, done_rx) = crossbeam::channel::unbounded();
        let start = Instant::now();
        let pushed = ring.push(Submission {
            token: 9,
            ingress: Ipv4Addr::new(192, 0, 2, 1),
            qname: "sick.cache.example".parse().unwrap(),
            qtype: RecordType::A,
            done: done_tx,
        });
        assert!(pushed.is_ok());
        waker.wake();
        let completion = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the deadline never fired");
        // The sick socket sat the waits out; the timer still ended them.
        assert_eq!(completion.reply, TransportReply::TimedOut);
        assert!(start.elapsed() >= timeout - Duration::from_millis(1));
        // Idle again, sick socket still "readable": stays blocked.
        std::thread::sleep(Duration::from_millis(50));
        let snap = block.snapshot();
        assert!(
            snap.decode_errors >= 1,
            "the receive failure went uncounted"
        );
        if cde_sysio::backend() != "fallback" {
            // A pass that reads the sick socket fails and mutes it for
            // one wait; the wait after that one reports it again and is
            // over at once. So passes alternate between reading it and
            // not, two per real event (start-up, the submission, the
            // deadline). A loop spinning on its readiness would do
            // ~10^5 in 110 ms.
            assert!(
                snap.decode_errors >= 2,
                "the sick socket was never read again"
            );
            assert!(
                snap.loop_count <= 2 * snap.decode_errors,
                "{} iterations for {} failed reads",
                snap.loop_count,
                snap.decode_errors
            );
            assert!(snap.loop_count <= 8, "{} iterations", snap.loop_count);
        }
        shutdown.store(true, Ordering::SeqCst);
        waker.force_wake();
        thread.join().unwrap();
    }
}
