//! Pins the RTT-fidelity contract under retransmission: when an answer
//! only arrives after a retransmit, the measured RTT is taken from the
//! *last* send (the one that plausibly elicited it), and the sample is
//! flagged `retransmit_ambiguous` everywhere it surfaces — the reactor's
//! streaming digest and the telemetry JSONL trace — so downstream timing
//! analysis can exclude it. And pins the single time base: the
//! completion, the telemetry trace and the flight record of one probe
//! tell the same RTT, and a probe's events are in the hub before its
//! completion reaches the submitter.

use cde_dns::Message;
use cde_dns::RecordType;
use cde_engine::reactor::{Reactor, ReactorConfig};
use cde_engine::{FlightDisposition, FlightOptions, InsightOptions, RetryPolicy, TransportReply};
use cde_telemetry::{Event, EventKind, TelemetryHub};
use crossbeam::channel::unbounded;
use std::collections::HashMap;
use std::net::{Ipv4Addr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const INGRESS: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
/// First-attempt deadline. The honest first-send RTT would exceed this
/// (the first datagram is dropped), so a from-last-send measurement must
/// land well under it.
const FIRST_TIMEOUT: Duration = Duration::from_millis(150);

#[test]
fn retransmitted_match_is_measured_from_last_send_and_flagged_ambiguous() {
    let hub = TelemetryHub::new(4096);

    // An authority that loses exactly the first datagram it sees and
    // answers every later one promptly.
    let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    socket
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let server_addr = socket.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let server = std::thread::spawn({
        let stop = Arc::clone(&stop);
        move || {
            let mut buf = [0u8; 2048];
            let mut seen = 0u32;
            while !stop.load(Ordering::SeqCst) {
                if let Ok((len, peer)) = socket.recv_from(&mut buf) {
                    seen += 1;
                    if seen == 1 {
                        continue;
                    }
                    if let Ok(query) = Message::decode(&buf[..len]) {
                        let resp = Message::response_to(&query);
                        let _ = socket.send_to(&resp.encode().unwrap(), peer);
                    }
                }
            }
        }
    });

    let mut targets = HashMap::new();
    targets.insert(INGRESS, server_addr);
    let reactor = Reactor::launch(
        targets,
        ReactorConfig {
            policy: RetryPolicy {
                attempts: 3,
                timeout: FIRST_TIMEOUT,
                backoff: 1.0,
                base_delay: Duration::from_millis(1),
                jitter: 0.0,
            },
            telemetry: Some(Arc::clone(&hub)),
            insight: Some(InsightOptions::default()),
            ..ReactorConfig::default()
        },
    )
    .unwrap();
    let insight = reactor.insight().expect("insight enabled");

    let (done_tx, done_rx) = unbounded();
    assert!(reactor.handle().submit(
        7,
        INGRESS,
        "retry.cache.example".parse().unwrap(),
        RecordType::A,
        &done_tx,
    ));
    let completion = done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("probe never completed");
    assert!(
        completion.reply.is_answered(),
        "the retransmit must be answered, got {:?}",
        completion.reply
    );

    // Digest tier: one sample, ambiguous, and timed from the *last* send
    // — a from-first-send measurement could not come in under the first
    // attempt's deadline plus the retransmit delay.
    let snap = insight.digests().merged();
    assert_eq!(snap.count(), 1);
    assert_eq!(snap.ambiguous(), 1, "the sample must be flagged ambiguous");
    let rtt = snap.max_us().unwrap();
    assert!(
        rtt < FIRST_TIMEOUT.as_micros() as u64,
        "RTT must be measured from the retransmit, got {rtt} µs"
    );

    // Trace tier: the matched event carries attempt 1 and the flag.
    let mut sink = Vec::new();
    hub.drain_jsonl(&mut sink).unwrap();
    let jsonl = String::from_utf8(sink).unwrap();
    let matched = jsonl
        .lines()
        .find(|l| l.contains("\"probe_matched\""))
        .expect("no probe_matched event in trace");
    assert!(
        matched.contains("\"attempt\": 1"),
        "match must be on the second attempt: {matched}"
    );
    assert!(
        matched.contains("\"retransmit_ambiguous\": true"),
        "trace must flag the ambiguous RTT: {matched}"
    );

    // The offline analyzer quarantines it: the sample lands in
    // `ambiguous_us`, never in the clean `rtt_us` series.
    let analysis = cde_insight::analyze(&jsonl);
    assert_eq!(analysis.orphan.ambiguous_us.len(), 1);
    assert!(analysis.orphan.rtt_us.is_empty());

    drop(reactor);
    stop.store(true, Ordering::SeqCst);
    server.join().unwrap();
}

/// A responder that answers every query at once, until `stop`.
fn echo_responder(stop: &Arc<AtomicBool>) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    socket
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let addr = socket.local_addr().unwrap();
    let stop = Arc::clone(stop);
    let thread = std::thread::spawn(move || {
        let mut buf = [0u8; 2048];
        while !stop.load(Ordering::SeqCst) {
            if let Ok((len, peer)) = socket.recv_from(&mut buf) {
                if let Ok(query) = Message::decode(&buf[..len]) {
                    let resp = Message::response_to(&query);
                    let _ = socket.send_to(&resp.encode().unwrap(), peer);
                }
            }
        }
    });
    (addr, thread)
}

/// The probe token an event is about, if any.
fn token_of(event: &Event) -> Option<u64> {
    match event.kind {
        EventKind::ProbePlanned { token }
        | EventKind::ProbeSent { token, .. }
        | EventKind::ProbeRetried { token, .. }
        | EventKind::ProbeMatched { token, .. }
        | EventKind::ProbeTimedOut { token, .. } => Some(token),
        _ => None,
    }
}

#[test]
fn completion_trace_and_flight_record_share_one_time_base() {
    const PROBES: u64 = 256;
    let hub = TelemetryHub::new(16 * 1024);
    let stop = Arc::new(AtomicBool::new(false));
    let (server_addr, server) = echo_responder(&stop);
    // Four ingresses over two shards, all served by the one responder.
    let ingresses: Vec<Ipv4Addr> = (1..=4).map(|d| Ipv4Addr::new(192, 0, 2, d)).collect();
    let targets: HashMap<_, _> = ingresses.iter().map(|&ip| (ip, server_addr)).collect();
    let reactor = Reactor::launch(
        targets,
        ReactorConfig {
            shards: 2,
            policy: RetryPolicy {
                attempts: 2,
                timeout: Duration::from_secs(5),
                backoff: 1.0,
                base_delay: Duration::from_millis(1),
                jitter: 0.0,
            },
            telemetry: Some(Arc::clone(&hub)),
            insight: Some(InsightOptions::default()),
            flight: Some(FlightOptions::default()),
            ..ReactorConfig::default()
        },
    )
    .unwrap();
    let flight = reactor.flight().expect("flight enabled");

    let span = hub.begin_campaign("single_time_base", PROBES);
    let (done_tx, done_rx) = unbounded();
    for token in 0..PROBES {
        span.event(EventKind::ProbePlanned { token });
        assert!(reactor.handle().submit(
            token,
            ingresses[token as usize % ingresses.len()],
            format!("t{token}.cache.example").parse().unwrap(),
            RecordType::A,
            &done_tx,
        ));
    }

    // Each completion finds its probe's match already in the hub.
    let mut events: Vec<Event> = Vec::new();
    let mut latency_us = HashMap::new();
    for _ in 0..PROBES {
        let completion = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("probe never completed");
        hub.drain_into(&mut events);
        let token = completion.token;
        assert!(
            events.iter().any(|e| matches!(
                e.kind,
                EventKind::ProbeMatched { token: t, .. } if t == token
            )),
            "token {token} completed before its probe_matched reached the hub"
        );
        match completion.reply {
            TransportReply::Answered {
                latency: Some(latency),
                ..
            } => latency_us.insert(token, latency.as_micros()),
            other => panic!("token {token}: {other:?}"),
        };
    }
    span.end(PROBES, PROBES, 0);
    hub.drain_into(&mut events);
    assert!(
        !events
            .iter()
            .any(|e| matches!(e.kind, EventKind::EventsDropped { .. })),
        "the ring shed events"
    );

    let mut by_token: HashMap<u64, Vec<&Event>> = HashMap::new();
    for e in &events {
        if let Some(token) = token_of(e) {
            by_token.entry(token).or_default().push(e);
        }
    }
    let records: HashMap<u64, _> = flight
        .snapshot()
        .into_iter()
        .filter(|r| r.disposition == FlightDisposition::Answered)
        .map(|r| (r.token, r))
        .collect();
    let mut first_attempt = 0;
    for token in 0..PROBES {
        let trail = &by_token[&token];
        let names: Vec<&str> = trail.iter().map(|e| e.kind.name()).collect();
        let EventKind::ProbeMatched {
            attempt, rtt_us, ..
        } = trail.last().unwrap().kind
        else {
            panic!("token {token} does not end matched: {names:?}");
        };
        assert_eq!(
            names.first(),
            Some(&"probe_planned"),
            "token {token}: {names:?}"
        );
        if attempt > 0 {
            // A retransmit on a loaded machine: its RTT is the
            // ambiguous one, pinned by the test above.
            continue;
        }
        first_attempt += 1;
        assert_eq!(
            names,
            ["probe_planned", "probe_sent", "probe_matched"],
            "token {token}"
        );
        assert_eq!(
            latency_us[&token], rtt_us,
            "token {token}: completion vs trace"
        );
        let traced = trail[2].at_us - trail[1].at_us;
        assert!(
            traced.abs_diff(rtt_us) <= 1,
            "token {token}: matched − sent = {traced} µs, rtt {rtt_us} µs"
        );
        let rec = &records[&token];
        let recorded = rec.matched_at_us - rec.sent_at_us;
        assert!(
            recorded.abs_diff(rtt_us) <= 1,
            "token {token}: flight matched − sent = {recorded} µs, rtt {rtt_us} µs"
        );
    }
    assert!(
        first_attempt >= PROBES / 2,
        "only {first_attempt} of {PROBES} answered first time"
    );

    drop(reactor);
    stop.store(true, Ordering::SeqCst);
    server.join().unwrap();
}
