//! **cde-flight** — an always-on, bounded, lock-free flight recorder.
//!
//! Aggregate counters (`unanswered`, `strays`, `fully_accounted`) can
//! say *that* probes were lost but never *which* probe died *where* —
//! and the paper's enumeration math cares about the difference: a query
//! that never reached the authority left the cache cold, while a reply
//! that died on the way back left it warm, so the two failures pull the
//! coupon-collector bound in opposite directions. The flight recorder
//! keeps the last `capacity` probe-lifecycle records per shard in a
//! fixed-size ring written from the shard event loops, cheap enough to
//! leave on in production, so a health transition, an operator request,
//! or SIGUSR1 can snapshot exactly what the engine just did.
//!
//! Design:
//!
//! * Each shard owns one [`FlightRing`]; the shard loop is its **only
//!   writer** (mirroring the reactor's share-nothing topology), so
//!   writes need no CAS loops — just a per-slot seqlock so concurrent
//!   readers (dump triggers on other threads) never observe a torn
//!   record.
//! * A record is seven `u64` data words plus one sequence word, all
//!   plain atomics (the crate forbids `unsafe`). The writer bumps the
//!   sequence to an odd value, stores the words, then publishes an even
//!   value derived from the monotonic write index; readers retry on
//!   odd/unequal sequences.
//! * The ring drops oldest on wrap and accounts every shed record
//!   exactly: `shed() == written().saturating_sub(capacity)`.
//! * [`FlightRecorder`] owns all shard rings plus the shared epoch
//!   instant every timestamp is measured from, merges snapshots in
//!   `recorded_at_us` order, and renders the versioned JSONL dump
//!   artifact (`flight_version` 1) consumed by `cde-analyze
//!   --forensics`.

use std::net::Ipv4Addr;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cde_telemetry::json::write_str;

/// Enables the flight recorder on a reactor
/// ([`ReactorConfig::flight`](crate::reactor::ReactorConfig::flight)).
#[derive(Debug, Clone)]
pub struct FlightOptions {
    /// Records retained per shard before drop-oldest kicks in.
    pub per_shard: usize,
}

impl Default for FlightOptions {
    /// 4096 records/shard — 256 KiB of atomics per shard, several
    /// seconds of history at typical loopback probe rates.
    fn default() -> Self {
        FlightOptions { per_shard: 4096 }
    }
}

/// Where a recorded datagram or probe ended up.
///
/// The first four variants close out a *probe*; the last three record
/// individual *wire observations* (one datagram each) that the
/// forensics reconciler joins back to probes by token or query id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlightDisposition {
    /// A matching reply arrived with a non-REFUSED rcode.
    Answered,
    /// A matching reply arrived carrying rcode REFUSED.
    Refused,
    /// Every attempt's deadline expired without a matching reply.
    TimedOut,
    /// The target address had no socket route; never sent.
    Unroutable,
    /// A reply datagram with no live correlation entry (late, spoofed,
    /// or duplicated) — recorded with the query id it carried.
    StrayReply,
    /// The fault layer dropped an outbound query datagram.
    QueryDropped,
    /// The fault layer dropped an inbound reply datagram.
    ReplyDropped,
}

impl FlightDisposition {
    /// Stable lower-snake name used in the JSONL dump.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightDisposition::Answered => "answered",
            FlightDisposition::Refused => "refused",
            FlightDisposition::TimedOut => "timed_out",
            FlightDisposition::Unroutable => "unroutable",
            FlightDisposition::StrayReply => "stray_reply",
            FlightDisposition::QueryDropped => "query_dropped",
            FlightDisposition::ReplyDropped => "reply_dropped",
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            FlightDisposition::Answered => 0,
            FlightDisposition::Refused => 1,
            FlightDisposition::TimedOut => 2,
            FlightDisposition::Unroutable => 3,
            FlightDisposition::StrayReply => 4,
            FlightDisposition::QueryDropped => 5,
            FlightDisposition::ReplyDropped => 6,
        }
    }

    fn from_u8(v: u8) -> Option<FlightDisposition> {
        Some(match v {
            0 => FlightDisposition::Answered,
            1 => FlightDisposition::Refused,
            2 => FlightDisposition::TimedOut,
            3 => FlightDisposition::Unroutable,
            4 => FlightDisposition::StrayReply,
            5 => FlightDisposition::QueryDropped,
            6 => FlightDisposition::ReplyDropped,
            _ => return None,
        })
    }
}

/// One fixed-size lifecycle record. All timestamps are µs since the
/// recorder's epoch (reactor launch); zero means "never happened".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightRecord {
    /// Caller-assigned probe token; [`FlightRecord::NO_TOKEN`] for wire
    /// observations that could not be correlated to a live probe.
    pub token: u64,
    /// Target ingress the probe (or datagram) concerned.
    pub ingress: Ipv4Addr,
    /// Shard that wrote the record.
    pub shard: u16,
    /// Send attempts made when the record was written (0 = never sent).
    pub attempts: u8,
    /// Terminal state of the probe, or kind of wire observation.
    pub disposition: FlightDisposition,
    /// When the record was written (µs since epoch). Monotone per shard.
    pub recorded_at_us: u64,
    /// When the last attempt hit the wire (0 = never sent).
    pub sent_at_us: u64,
    /// When a matching reply was correlated (0 = no match).
    pub matched_at_us: u64,
    /// When the final deadline gave up (0 = did not expire).
    pub expired_at_us: u64,
    /// Retransmission timeout armed for the last attempt, µs.
    pub rto_us: u32,
    /// Encoded datagram size on the wire, bytes.
    pub wire_size: u16,
    /// DNS query id of the last attempt (the correlation digest).
    pub qid: u16,
}

impl FlightRecord {
    /// Token sentinel for uncorrelated wire observations.
    pub const NO_TOKEN: u64 = u64::MAX;
}

/// Data words per slot (the sequence word is separate).
const WORDS: usize = 7;

#[derive(Debug)]
struct Slot {
    /// Even = consistent (value `2 * (write_index + 1)`), odd = write
    /// in progress, 0 = never written.
    seq: AtomicU64,
    words: [AtomicU64; WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            words: Default::default(),
        }
    }
}

fn pack(rec: &FlightRecord) -> [u64; WORDS] {
    [
        rec.token,
        rec.recorded_at_us,
        rec.sent_at_us,
        rec.matched_at_us,
        rec.expired_at_us,
        (u64::from(u32::from(rec.ingress)) << 32) | u64::from(rec.rto_us),
        (u64::from(rec.wire_size) << 48)
            | (u64::from(rec.qid) << 32)
            | (u64::from(rec.shard) << 16)
            | (u64::from(rec.attempts) << 8)
            | u64::from(rec.disposition.to_u8()),
    ]
}

fn unpack(words: &[u64; WORDS]) -> Option<FlightRecord> {
    Some(FlightRecord {
        token: words[0],
        recorded_at_us: words[1],
        sent_at_us: words[2],
        matched_at_us: words[3],
        expired_at_us: words[4],
        ingress: Ipv4Addr::from((words[5] >> 32) as u32),
        rto_us: words[5] as u32,
        wire_size: (words[6] >> 48) as u16,
        qid: (words[6] >> 32) as u16,
        shard: (words[6] >> 16) as u16,
        attempts: (words[6] >> 8) as u8,
        disposition: FlightDisposition::from_u8(words[6] as u8)?,
    })
}

/// One shard's bounded record ring: single writer (the owning shard
/// loop), any number of concurrent snapshot readers.
#[derive(Debug)]
pub struct FlightRing {
    epoch: Instant,
    slots: Box<[Slot]>,
    /// Records ever written (monotonic); the next write index.
    head: AtomicU64,
}

impl FlightRing {
    fn new(epoch: Instant, capacity: usize) -> FlightRing {
        let capacity = capacity.max(1);
        FlightRing {
            epoch,
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Microseconds from the recorder's shared epoch to `at` — the time
    /// base for every field of a [`FlightRecord`]; 0 for an `at` before
    /// launch.
    pub fn instant_us(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Appends a record, overwriting the oldest once full. Returns
    /// `true` when an old record was shed to make room.
    ///
    /// Must only be called from the ring's single writer (the owning
    /// shard loop); readers may snapshot concurrently.
    pub fn record(&self, rec: &FlightRecord) -> bool {
        let i = self.head.load(Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        #[allow(clippy::manual_is_multiple_of)] // MSRV 1.81
        let slot = &self.slots[(i % cap) as usize];
        // Seqlock write: go odd (the swap's acquire half keeps the word
        // stores from floating above it), store the payload, publish the
        // even sequence derived from the write index.
        slot.seq.swap(2 * i + 1, Ordering::AcqRel);
        let words = pack(rec);
        for (w, v) in slot.words.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
        }
        slot.seq.store(2 * (i + 1), Ordering::Release);
        self.head.store(i + 1, Ordering::Release);
        i >= cap
    }

    /// Records ever written to this ring.
    pub fn written(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Records overwritten before ever being read — exact by
    /// construction: every write past capacity evicts exactly one.
    pub fn shed(&self) -> u64 {
        self.written().saturating_sub(self.slots.len() as u64)
    }

    /// Slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Tear-free copy of the current contents, oldest first. Slots
    /// being overwritten mid-read are skipped, never misread.
    pub fn snapshot(&self) -> Vec<FlightRecord> {
        let mut out: Vec<(u64, FlightRecord)> = Vec::with_capacity(self.slots.len());
        for (idx, slot) in self.slots.iter().enumerate() {
            let s1 = slot.seq.load(Ordering::Acquire);
            #[allow(clippy::manual_is_multiple_of)] // MSRV 1.81
            if s1 == 0 || s1 % 2 == 1 {
                continue; // never written, or write in progress
            }
            let mut words = [0u64; WORDS];
            for (v, w) in words.iter_mut().zip(slot.words.iter()) {
                *v = w.load(Ordering::Relaxed);
            }
            // Order the relaxed word loads before the confirming
            // sequence load (the classic seqlock read fence).
            fence(Ordering::Acquire);
            let s2 = slot.seq.load(Ordering::Relaxed);
            if s1 != s2 {
                continue; // overwritten while reading
            }
            let write_index = s1 / 2 - 1;
            if write_index % self.slots.len() as u64 != idx as u64 {
                continue; // torn sequence (cannot happen single-writer)
            }
            if let Some(rec) = unpack(&words) {
                out.push((write_index, rec));
            }
        }
        out.sort_unstable_by_key(|(i, _)| *i);
        out.into_iter().map(|(_, r)| r).collect()
    }
}

/// All shard rings plus the shared epoch: the engine-wide black box.
#[derive(Debug)]
pub struct FlightRecorder {
    rings: Vec<Arc<FlightRing>>,
    per_shard: usize,
}

impl FlightRecorder {
    /// One ring per shard, all measuring time from one shared epoch so
    /// merged timestamps are comparable across shards.
    pub fn new(shards: usize, per_shard: usize) -> FlightRecorder {
        let epoch = Instant::now();
        FlightRecorder {
            rings: (0..shards.max(1))
                .map(|_| Arc::new(FlightRing::new(epoch, per_shard)))
                .collect(),
            per_shard: per_shard.max(1),
        }
    }

    /// The writer handle for one shard.
    pub fn ring(&self, shard: usize) -> Arc<FlightRing> {
        Arc::clone(&self.rings[shard])
    }

    /// Number of shard rings.
    pub fn shards(&self) -> usize {
        self.rings.len()
    }

    /// Slots per shard ring.
    pub fn per_shard(&self) -> usize {
        self.per_shard
    }

    /// Total records ever written across shards.
    pub fn written(&self) -> u64 {
        self.rings.iter().map(|r| r.written()).sum()
    }

    /// Total records shed (overwritten unread) across shards.
    pub fn shed(&self) -> u64 {
        self.rings.iter().map(|r| r.shed()).sum()
    }

    /// Merged tear-free snapshot of every shard ring, ordered by
    /// `recorded_at_us` (shards share the epoch, so the order is the
    /// engine-wide wall-clock order up to clock resolution).
    pub fn snapshot(&self) -> Vec<FlightRecord> {
        let mut all: Vec<FlightRecord> = self.rings.iter().flat_map(|r| r.snapshot()).collect();
        all.sort_by_key(|r| (r.recorded_at_us, r.shard, r.token));
        all
    }

    /// Renders the versioned dump artifact: one JSON header line
    /// (`"kind": "flight_header"`, `flight_version` 1, ring geometry,
    /// exact written/shed totals) followed by one line per record in
    /// merged timestamp order.
    pub fn render_jsonl(&self) -> String {
        let records = self.snapshot();
        let mut out = String::with_capacity(64 + records.len() * 160);
        out.push_str(&format!(
            "{{\"kind\": \"flight_header\", \"flight_version\": 1, \
             \"shards\": {}, \"capacity_per_shard\": {}, \
             \"written\": {}, \"shed\": {}, \"records\": {}}}\n",
            self.rings.len(),
            self.per_shard,
            self.written(),
            self.shed(),
            records.len(),
        ));
        for rec in &records {
            render_record(&mut out, rec);
            out.push('\n');
        }
        out
    }
}

fn render_record(out: &mut String, rec: &FlightRecord) {
    out.push_str("{\"kind\": \"flight_record\", \"token\": ");
    if rec.token == FlightRecord::NO_TOKEN {
        out.push_str("null");
    } else {
        out.push_str(&rec.token.to_string());
    }
    out.push_str(", \"ingress\": ");
    write_str(out, &rec.ingress.to_string());
    out.push_str(&format!(
        ", \"shard\": {}, \"attempts\": {}, \"disposition\": \"{}\", \
         \"recorded_at_us\": {}, \"sent_at_us\": {}, \"matched_at_us\": {}, \
         \"expired_at_us\": {}, \"rto_us\": {}, \"wire_size\": {}, \"qid\": {}}}",
        rec.shard,
        rec.attempts,
        rec.disposition.as_str(),
        rec.recorded_at_us,
        rec.sent_at_us,
        rec.matched_at_us,
        rec.expired_at_us,
        rec.rto_us,
        rec.wire_size,
        rec.qid,
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    fn rec(token: u64, at: u64, disposition: FlightDisposition) -> FlightRecord {
        FlightRecord {
            token,
            ingress: Ipv4Addr::new(192, 0, 2, (token % 200) as u8 + 1),
            shard: 0,
            attempts: (token % 5) as u8,
            disposition,
            recorded_at_us: at,
            sent_at_us: at.saturating_sub(10),
            matched_at_us: 0,
            expired_at_us: at,
            rto_us: 150_000,
            wire_size: 33,
            qid: (token as u16).wrapping_mul(31),
        }
    }

    #[test]
    fn pack_roundtrips_every_field() {
        let r = FlightRecord {
            token: 0xdead_beef_cafe_f00d,
            ingress: Ipv4Addr::new(10, 1, 2, 3),
            shard: 513,
            attempts: 7,
            disposition: FlightDisposition::ReplyDropped,
            recorded_at_us: u64::MAX / 3,
            sent_at_us: 12345,
            matched_at_us: 0,
            expired_at_us: 99999,
            rto_us: u32::MAX,
            wire_size: 512,
            qid: 0xbeef,
        };
        assert_eq!(unpack(&pack(&r)), Some(r));
    }

    #[test]
    fn disposition_names_roundtrip() {
        for v in 0..7u8 {
            let d = FlightDisposition::from_u8(v).unwrap();
            assert_eq!(d.to_u8(), v);
            assert!(!d.as_str().is_empty());
        }
        assert_eq!(FlightDisposition::from_u8(7), None);
    }

    #[test]
    fn ring_wraparound_sheds_exactly_and_keeps_newest() {
        let ring = FlightRing::new(Instant::now(), 8);
        let mut sheds = 0u64;
        for i in 0..20 {
            if ring.record(&rec(i, i * 100, FlightDisposition::Answered)) {
                sheds += 1;
            }
        }
        assert_eq!(ring.written(), 20);
        assert_eq!(ring.shed(), 12);
        assert_eq!(sheds, 12);
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 8);
        // Oldest-first, exactly the last 8 written.
        let tokens: Vec<u64> = snap.iter().map(|r| r.token).collect();
        assert_eq!(tokens, (12..20).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_and_partial_rings_snapshot_cleanly() {
        let ring = FlightRing::new(Instant::now(), 16);
        assert!(ring.snapshot().is_empty());
        assert_eq!(ring.shed(), 0);
        ring.record(&rec(1, 5, FlightDisposition::TimedOut));
        ring.record(&rec(2, 9, FlightDisposition::StrayReply));
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].token, 1);
        assert_eq!(snap[1].disposition, FlightDisposition::StrayReply);
    }

    /// The satellite test: shard writers hammering their own rings
    /// through many wraparounds while readers snapshot concurrently.
    /// Shed accounting stays exact, no snapshot ever contains a torn
    /// record, and the merged dump is timestamp-ordered.
    #[test]
    fn concurrent_shard_writers_never_tear_and_shed_exactly() {
        const SHARDS: usize = 4;
        const CAP: usize = 32;
        const WRITES: u64 = 4000;
        let recorder = Arc::new(FlightRecorder::new(SHARDS, CAP));
        let stop = Arc::new(AtomicBool::new(false));

        let writers: Vec<_> = (0..SHARDS)
            .map(|s| {
                let ring = recorder.ring(s);
                thread::spawn(move || {
                    let mut sheds = 0u64;
                    for i in 0..WRITES {
                        // Token encodes (shard, i) so readers can verify
                        // internal consistency of whatever they observe.
                        let token = (s as u64) << 32 | i;
                        let mut r = rec(token, 0, FlightDisposition::TimedOut);
                        r.shard = s as u16;
                        r.recorded_at_us = i + 1;
                        r.sent_at_us = i + 1; // mirror field for tear check
                        r.qid = i as u16;
                        if ring.record(&r) {
                            sheds += 1;
                        }
                    }
                    sheds
                })
            })
            .collect();

        let readers: Vec<_> = (0..2)
            .map(|_| {
                let recorder = Arc::clone(&recorder);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut seen = 0u64;
                    loop {
                        // Check-after-snapshot: even if the writers beat
                        // us to the finish, one full pass still runs.
                        let done = stop.load(Ordering::Relaxed);
                        for r in recorder.snapshot() {
                            seen += 1;
                            // A torn record would mix words of two
                            // different writes; every word is derived
                            // from the same (shard, i), so check the
                            // cross-field invariants.
                            let s = (r.token >> 32) as u16;
                            let i = r.token & 0xffff_ffff;
                            assert_eq!(r.shard, s, "token/shard torn");
                            assert_eq!(r.recorded_at_us, i + 1, "token/ts torn");
                            assert_eq!(r.sent_at_us, i + 1, "ts/ts torn");
                            assert_eq!(r.qid, i as u16, "token/qid torn");
                        }
                        if done {
                            break;
                        }
                    }
                    seen
                })
            })
            .collect();

        let mut writer_sheds = 0u64;
        for w in writers {
            writer_sheds += w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0, "reader never saw a record");
        }

        assert_eq!(recorder.written(), SHARDS as u64 * WRITES);
        assert_eq!(recorder.shed(), SHARDS as u64 * (WRITES - CAP as u64));
        assert_eq!(writer_sheds, recorder.shed());

        // Quiescent merged snapshot: full, timestamp-ordered, newest
        // CAP records of each shard.
        let snap = recorder.snapshot();
        assert_eq!(snap.len(), SHARDS * CAP);
        for pair in snap.windows(2) {
            assert!(pair[0].recorded_at_us <= pair[1].recorded_at_us);
        }
        for r in &snap {
            assert!(r.token & 0xffff_ffff >= WRITES - CAP as u64);
        }
    }

    #[test]
    fn jsonl_dump_has_versioned_header_and_ordered_records() {
        let recorder = FlightRecorder::new(2, 8);
        recorder
            .ring(0)
            .record(&rec(7, 50, FlightDisposition::Answered));
        recorder
            .ring(1)
            .record(&rec(9, 20, FlightDisposition::QueryDropped));
        let mut stray = rec(FlightRecord::NO_TOKEN, 80, FlightDisposition::StrayReply);
        stray.ingress = Ipv4Addr::new(127, 0, 0, 1);
        recorder.ring(0).record(&stray);

        let dump = recorder.render_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"kind\": \"flight_header\""));
        assert!(lines[0].contains("\"flight_version\": 1"));
        assert!(lines[0].contains("\"shards\": 2"));
        assert!(lines[0].contains("\"written\": 3"));
        assert!(lines[0].contains("\"shed\": 0"));
        // Ordered by recorded_at_us across shards: 20, 50, 80.
        assert!(lines[1].contains("\"disposition\": \"query_dropped\""));
        assert!(lines[2].contains("\"disposition\": \"answered\""));
        assert!(lines[3].contains("\"token\": null"));
        assert!(lines[3].contains("\"ingress\": \"127.0.0.1\""));
    }

    #[test]
    fn epoch_timestamps_are_shared_across_rings() {
        let recorder = FlightRecorder::new(3, 4);
        let a = recorder.ring(0).instant_us(Instant::now());
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = recorder.ring(2).instant_us(Instant::now());
        assert!(b > a, "later ring read must be later on the shared epoch");
    }
}
