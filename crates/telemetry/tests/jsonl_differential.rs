//! The JSONL renderer against its `core::fmt` oracle: a seeded sweep of
//! every event kind, with integers at every digit-count edge and strings
//! that need every kind of escape, must render byte for byte as the
//! `write!`-based renderer it replaced — one event at a time, and through
//! a hub's chunked drain.

use cde_telemetry::{DropReason, Event, EventKind, TelemetryHub};
use std::fmt::Write;

/// The `write!`-based renderer the byte writers replaced, kept here as
/// the reference output.
fn oracle_jsonl(ev: &Event, out: &mut String) {
    fn oracle_str(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    let _ = write!(
        out,
        "{{\"at_us\": {}, \"campaign\": {}, \"kind\": ",
        ev.at_us, ev.campaign
    );
    oracle_str(out, ev.kind.name());
    match ev.kind {
        EventKind::CampaignBegin { name, planned } => {
            out.push_str(", \"name\": ");
            oracle_str(out, name);
            let _ = write!(out, ", \"planned\": {planned}");
        }
        EventKind::CampaignProgress {
            submitted,
            completed,
            answered,
            in_flight,
        } => {
            let _ = write!(
                out,
                ", \"submitted\": {submitted}, \"completed\": {completed}, \
                 \"answered\": {answered}, \"in_flight\": {in_flight}"
            );
        }
        EventKind::CampaignNote { key, value } => {
            out.push_str(", \"key\": ");
            oracle_str(out, key);
            let _ = write!(out, ", \"value\": {value}");
        }
        EventKind::CampaignTenant { tenant } => {
            out.push_str(", \"tenant\": ");
            oracle_str(out, tenant);
        }
        EventKind::CampaignEnd {
            completed,
            answered,
            timeouts,
        } => {
            let _ = write!(
                out,
                ", \"completed\": {completed}, \"answered\": {answered}, \
                 \"timeouts\": {timeouts}"
            );
        }
        EventKind::ProbePlanned { token } => {
            let _ = write!(out, ", \"token\": {token}");
        }
        EventKind::ProbeSent { token, attempt } | EventKind::ProbeRetried { token, attempt } => {
            let _ = write!(out, ", \"token\": {token}, \"attempt\": {attempt}");
        }
        EventKind::ProbeMatched {
            token,
            attempt,
            rtt_us,
            retransmit_ambiguous,
        } => {
            let _ = write!(
                out,
                ", \"token\": {token}, \"attempt\": {attempt}, \"rtt_us\": {rtt_us}, \
                 \"retransmit_ambiguous\": {retransmit_ambiguous}"
            );
        }
        EventKind::ProbeTimedOut { token, attempts } => {
            let _ = write!(out, ", \"token\": {token}, \"attempts\": {attempts}");
        }
        EventKind::ReplyDropped { reason } => {
            out.push_str(", \"reason\": ");
            oracle_str(out, reason.as_str());
        }
        EventKind::EventsDropped { count } => {
            let _ = write!(out, ", \"count\": {count}");
        }
    }
    out.push_str("}\n");
}

/// Campaign names, tenants and keys: plain, every escape, control bytes
/// at both ends of the escaped range, DEL (not escaped) and non-ASCII.
const STRINGS: &[&str] = &[
    "",
    "enumerate_adaptive",
    "alice",
    "quote\"in",
    "back\\slash",
    "new\nline",
    "\u{1}",
    "\u{0}start",
    "end\u{1f}",
    "tab\tcr\r",
    "del\u{7f}",
    "héllo wörld",
    "日本語のキャッシュ",
    "🚀 rocket",
    "\"\\\n\u{1}é\u{10}\u{b}",
];

/// Integers at every edge the digit-pair writer has: one and two digits,
/// the first three-digit value, and the widest `u32` and `u64`.
const U64_EDGES: &[u64] = &[
    0,
    9,
    10,
    99,
    100,
    999,
    1_000,
    u32::MAX as u64,
    u32::MAX as u64 + 1,
    u64::MAX - 1,
    u64::MAX,
];
const U32_EDGES: &[u32] = &[0, 9, 10, 99, 100, 1_000, u32::MAX];

/// xorshift64*: a seeded, dependency-free stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// An edge value half the time, otherwise a random value of a random
    /// width, so every digit count from 1 to 20 turns up.
    fn u64(&mut self) -> u64 {
        let r = self.next();
        if r & 1 == 0 {
            U64_EDGES[(r >> 1) as usize % U64_EDGES.len()]
        } else {
            self.next() >> ((r >> 1) % 64)
        }
    }

    fn u32(&mut self) -> u32 {
        let r = self.next();
        if r & 1 == 0 {
            U32_EDGES[(r >> 1) as usize % U32_EDGES.len()]
        } else {
            (self.next() >> 32) as u32 >> ((r >> 1) % 32)
        }
    }

    fn str(&mut self) -> &'static str {
        STRINGS[self.next() as usize % STRINGS.len()]
    }
}

/// Kind `i % 12`: a sweep in index order visits every kind in turn.
fn event(rng: &mut Rng, i: usize) -> Event {
    let kind = match i % 12 {
        0 => EventKind::CampaignBegin {
            name: rng.str(),
            planned: rng.u64(),
        },
        1 => EventKind::CampaignProgress {
            submitted: rng.u64(),
            completed: rng.u64(),
            answered: rng.u64(),
            in_flight: rng.u64(),
        },
        2 => EventKind::CampaignNote {
            key: rng.str(),
            value: rng.u64(),
        },
        3 => EventKind::CampaignTenant { tenant: rng.str() },
        4 => EventKind::CampaignEnd {
            completed: rng.u64(),
            answered: rng.u64(),
            timeouts: rng.u64(),
        },
        5 => EventKind::ProbePlanned { token: rng.u64() },
        6 => EventKind::ProbeSent {
            token: rng.u64(),
            attempt: rng.u32(),
        },
        7 => EventKind::ProbeRetried {
            token: rng.u64(),
            attempt: rng.u32(),
        },
        8 => EventKind::ProbeMatched {
            token: rng.u64(),
            attempt: rng.u32(),
            rtt_us: rng.u64(),
            retransmit_ambiguous: rng.next() & 1 == 1,
        },
        9 => EventKind::ProbeTimedOut {
            token: rng.u64(),
            attempts: rng.u32(),
        },
        10 => EventKind::ReplyDropped {
            reason: [
                DropReason::Stray,
                DropReason::Spoofed,
                DropReason::Duplicate,
            ][rng.next() as usize % 3],
        },
        _ => EventKind::EventsDropped { count: rng.u64() },
    };
    Event {
        at_us: rng.u64(),
        campaign: rng.u32(),
        kind,
    }
}

#[test]
fn every_kind_renders_byte_identical_to_the_fmt_oracle() {
    for seed in [1u64, 12, 31, 0x5eed_cafe] {
        let mut rng = Rng(seed);
        let (mut got, mut want) = (String::new(), String::new());
        for i in 0..24_000 {
            let ev = event(&mut rng, i);
            got.clear();
            want.clear();
            ev.write_jsonl(&mut got);
            oracle_jsonl(&ev, &mut want);
            assert_eq!(got, want, "seed {seed}, event {i}: {ev:?}");
        }
    }
}

#[test]
fn a_chunked_drain_writes_the_oracle_stream() {
    let mut rng = Rng(7);
    // Smaller than the sweep, so the drain ends with an `events_dropped`
    // record as well.
    let hub = TelemetryHub::new(5_000);
    let events: Vec<Event> = (0..5_123).map(|i| event(&mut rng, i)).collect();
    for ev in &events {
        hub.emit(ev.campaign, ev.kind);
    }
    let mut drained = Vec::new();
    let lines = hub.drain_jsonl(&mut drained).unwrap();
    let text = String::from_utf8(drained).unwrap();
    assert_eq!(lines, 5_001);
    assert_eq!(text.lines().count(), lines);

    // Timestamps are the hub's own: compare the rest of each line with
    // the oracle's rendering of the events that survived the shedding,
    // then the loss record.
    let mut want = String::new();
    for ev in &events[123..] {
        oracle_jsonl(ev, &mut want);
    }
    oracle_jsonl(
        &Event {
            at_us: 0,
            campaign: 0,
            kind: EventKind::EventsDropped { count: 123 },
        },
        &mut want,
    );
    let (got, want) = (
        cde_telemetry::strip_at_us(&text),
        cde_telemetry::strip_at_us(&want),
    );
    assert_eq!(got.lines().count(), want.lines().count());
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {i}");
    }
}
