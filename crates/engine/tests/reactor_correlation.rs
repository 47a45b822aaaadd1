//! Reply-correlation hardening: the reactor must never match a reply
//! that is not the genuine answer to an outstanding probe.
//!
//! Each test stands up a deliberately misbehaving UDP "authority" and
//! asserts two things: the probe outcome is untouched by the bogus
//! traffic (timed out or answered exactly once), and the drop is visible
//! in [`EngineMetrics`] under the right counter — wrong query id and
//! late/duplicate replies as strays, id collisions as qname mismatches,
//! off-path sources as spoofed replies. The last tests check the bounds
//! on what a shard holds: no more probes than one socket has query ids
//! (which keeps ids unique in the first place), and no more timers than
//! probes — retiring a probe, answered or not, takes its timer with it.

use cde_dns::{Message, Name, Question, RecordType};
use cde_engine::reactor::{ProbeCompletion, Reactor, ReactorConfig};
use cde_engine::{MetricsSnapshot, RetryPolicy, TransportReply};
use crossbeam::channel::unbounded;
use std::collections::{HashMap, HashSet};
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const INGRESS: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

fn policy(attempts: u32, timeout_ms: u64) -> RetryPolicy {
    RetryPolicy {
        attempts,
        timeout: Duration::from_millis(timeout_ms),
        backoff: 1.0,
        base_delay: Duration::from_millis(1),
        jitter: 0.0,
    }
}

/// A UDP server running `behave` on every datagram until stopped.
struct Misbehaver {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Misbehaver {
    fn launch<F>(mut behave: F) -> Misbehaver
    where
        F: FnMut(&UdpSocket, &[u8], SocketAddr) + Send + 'static,
    {
        let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        socket
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let addr = socket.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let thread = std::thread::spawn({
            let stop = Arc::clone(&stop);
            move || {
                let mut buf = [0u8; 2048];
                while !stop.load(Ordering::SeqCst) {
                    if let Ok((len, peer)) = socket.recv_from(&mut buf) {
                        behave(&socket, &buf[..len], peer);
                    }
                }
            }
        });
        Misbehaver {
            addr,
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for Misbehaver {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Submits one probe for `qname` and returns its reply.
fn probe_once(reactor: &Reactor, qname: &str) -> TransportReply {
    let (done_tx, done_rx) = unbounded();
    let qname: Name = qname.parse().unwrap();
    assert!(reactor
        .handle()
        .submit(1, INGRESS, qname, RecordType::A, &done_tx));
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("probe never completed")
        .reply
}

fn launch_reactor(target: SocketAddr, policy: RetryPolicy) -> Reactor {
    let mut targets = HashMap::new();
    targets.insert(INGRESS, target);
    Reactor::launch(targets, ReactorConfig::with_policy(policy, 5)).unwrap()
}

/// Polls the reactor's metrics until `pred` holds or two seconds pass.
fn wait_for_metrics(reactor: &Reactor, pred: impl Fn(&MetricsSnapshot) -> bool) -> MetricsSnapshot {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let snap = reactor.metrics().snapshot();
        if pred(&snap) || Instant::now() > deadline {
            return snap;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn wrong_query_id_is_a_stray_and_never_matches() {
    // The server echoes a well-formed answer under the wrong id.
    let server = Misbehaver::launch(|socket, datagram, peer| {
        if let Ok(query) = Message::decode(datagram) {
            let mut resp = Message::response_to(&query);
            resp.id = query.id.wrapping_add(1);
            let _ = socket.send_to(&resp.encode().unwrap(), peer);
        }
    });
    let reactor = launch_reactor(server.addr, policy(2, 60));
    let reply = probe_once(&reactor, "wrong-id.cache.example");
    assert_eq!(reply, TransportReply::TimedOut);
    let snap = wait_for_metrics(&reactor, |s| s.stray_replies >= 2);
    assert_eq!(snap.received, 0, "a wrong-id reply must never match");
    assert_eq!(snap.stray_replies, 2, "one stray per attempt");
    assert_eq!(snap.timeouts, 1);
}

#[test]
fn id_collision_with_wrong_question_is_counted_and_dropped() {
    // Right id, wrong echoed question: what an id collision with another
    // client's probe looks like from the reactor's side of the socket.
    let server = Misbehaver::launch(|socket, datagram, peer| {
        if let Ok(query) = Message::decode(datagram) {
            let other = Message::query(
                query.id,
                Question::new("somebody-else.example".parse().unwrap(), RecordType::A),
            );
            let resp = Message::response_to(&other);
            let _ = socket.send_to(&resp.encode().unwrap(), peer);
        }
    });
    let reactor = launch_reactor(server.addr, policy(2, 60));
    let reply = probe_once(&reactor, "collision.cache.example");
    assert_eq!(reply, TransportReply::TimedOut);
    let snap = wait_for_metrics(&reactor, |s| s.qname_mismatches >= 2);
    assert_eq!(snap.received, 0, "a colliding reply must never match");
    assert_eq!(snap.qname_mismatches, 2);
    assert_eq!(snap.timeouts, 1);
}

#[test]
fn reply_from_unexpected_source_is_spoofed_and_dropped() {
    // A second socket answers correctly — right id, right question — but
    // from an address the probe was never sent to (off-path spoofing).
    let spoofer = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let server = Misbehaver::launch(move |_socket, datagram, peer| {
        if let Ok(query) = Message::decode(datagram) {
            let resp = Message::response_to(&query);
            let _ = spoofer.send_to(&resp.encode().unwrap(), peer);
        }
    });
    let reactor = launch_reactor(server.addr, policy(2, 60));
    let reply = probe_once(&reactor, "spoofed.cache.example");
    assert_eq!(reply, TransportReply::TimedOut);
    let snap = wait_for_metrics(&reactor, |s| s.spoofed_replies >= 2);
    assert_eq!(snap.received, 0, "a spoofed reply must never match");
    assert_eq!(snap.spoofed_replies, 2);
    assert_eq!(snap.timeouts, 1);
}

#[test]
fn duplicate_and_late_replies_count_as_strays() {
    // First query: answered twice (duplicate). The retransmitted flavour —
    // a reply arriving after the deadline retired the attempt — hits the
    // same code path: the correlation entry is already gone.
    let server = Misbehaver::launch(|socket, datagram, peer| {
        if let Ok(query) = Message::decode(datagram) {
            let resp = Message::response_to(&query).encode().unwrap();
            let _ = socket.send_to(&resp, peer);
            let _ = socket.send_to(&resp, peer);
        }
    });
    let reactor = launch_reactor(server.addr, policy(1, 500));
    let reply = probe_once(&reactor, "duplicate.cache.example");
    assert!(reply.is_answered(), "the first copy is the genuine answer");
    let snap = wait_for_metrics(&reactor, |s| s.stray_replies >= 1);
    assert_eq!(snap.received, 1, "the duplicate must not match again");
    assert_eq!(snap.stray_replies, 1);
    assert_eq!(snap.dropped_replies(), 1);
}

#[test]
fn reply_after_timeout_is_a_stray_not_a_match() {
    // The server answers correctly but only after the probe's deadline
    // has already retired it.
    let server = Misbehaver::launch(|socket, datagram, peer| {
        if let Ok(query) = Message::decode(datagram) {
            std::thread::sleep(Duration::from_millis(150));
            let resp = Message::response_to(&query);
            let _ = socket.send_to(&resp.encode().unwrap(), peer);
        }
    });
    let reactor = launch_reactor(server.addr, policy(1, 50));
    let reply = probe_once(&reactor, "late.cache.example");
    assert_eq!(reply, TransportReply::TimedOut);
    let snap = wait_for_metrics(&reactor, |s| s.stray_replies >= 1);
    assert_eq!(snap.received, 0, "a late reply must never match");
    assert_eq!(snap.stray_replies, 1);
    assert_eq!(snap.timeouts, 1);
}

#[test]
fn slab_is_clamped_to_one_sockets_id_space() {
    // One socket, 100 000 probes asked for: unclamped, the 65 537th
    // live probe could only reuse a live id and overwrite its entry.
    let unused = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let reactor = Reactor::launch(
        HashMap::from([(INGRESS, unused.local_addr().unwrap())]),
        ReactorConfig {
            sockets: 1,
            max_in_flight: 100_000,
            shards: 1,
            ..ReactorConfig::with_policy(policy(1, 50), 5)
        },
    )
    .unwrap();
    assert_eq!(reactor.metrics().snapshot().slab_capacity, 65_536);
}

/// Answers every query at once — with `drop_first`, every query but the
/// first of each name, so each probe is answered on its retransmission.
fn echo(drop_first: bool) -> Misbehaver {
    let mut seen = HashSet::new();
    Misbehaver::launch(move |socket, datagram, peer| {
        if let Ok(query) = Message::decode(datagram) {
            if drop_first && seen.insert(query.questions[0].qname().to_string()) {
                return;
            }
            let _ = socket.send_to(&Message::response_to(&query).encode().unwrap(), peer);
        }
    })
}

/// Runs `probes` probes through one shard with `window` in flight — a
/// new one submitted as each completes — then drains the reactor and
/// returns its final metrics and every completion.
fn closed_loop(
    target: SocketAddr,
    policy: RetryPolicy,
    probes: u64,
    window: u64,
) -> (MetricsSnapshot, Vec<ProbeCompletion>) {
    let mut reactor = Reactor::launch(
        HashMap::from([(INGRESS, target)]),
        ReactorConfig {
            shards: 1,
            ..ReactorConfig::with_policy(policy, 5)
        },
    )
    .unwrap();
    let (done_tx, done_rx) = unbounded();
    let handle = reactor.handle();
    let submit = |token: u64| {
        let qname: Name = format!("loop{token}.cache.example").parse().unwrap();
        assert!(handle.submit(token, INGRESS, qname, RecordType::A, &done_tx));
    };
    (0..window.min(probes)).for_each(submit);
    let mut completions = Vec::with_capacity(probes as usize);
    while (completions.len() as u64) < probes {
        completions.push(
            done_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("probe never completed"),
        );
        let next = completions.len() as u64 + window - 1;
        if next < probes {
            submit(next);
        }
    }
    assert!(reactor.shutdown_graceful(Duration::from_secs(5)));
    (reactor.metrics().snapshot(), completions)
}

#[test]
fn answered_probes_take_their_deadlines_out_of_the_wheel() {
    // Each probe is answered in well under a millisecond and arms a
    // 250 ms deadline. Left in the wheel until they expire, those
    // deadlines would pile up by the thousand behind a window of 64.
    let server = echo(false);
    let (snap, completions) = closed_loop(server.addr, policy(1, 250), 20_000, 64);
    assert!(completions.iter().all(|c| c.reply.is_answered()));
    assert!(snap.in_flight_peak <= 64);
    assert!(
        snap.wheel_pending_peak <= snap.in_flight_peak,
        "{} timers pending at peak for {} probes in flight",
        snap.wheel_pending_peak,
        snap.in_flight_peak
    );
    assert_eq!(snap.wheel_pending, 0, "timers outlived their probes");
}

#[test]
fn retransmitted_probes_leave_an_empty_wheel() {
    // Every first attempt dies by its deadline, which arms the retry's
    // send timer, whose send arms the second deadline — answered, so
    // cancelled. Each probe must still complete exactly once.
    let server = echo(true);
    let (snap, completions) = closed_loop(server.addr, policy(2, 20), 2_000, 64);
    let mut tokens: Vec<u64> = completions.iter().map(|c| c.token).collect();
    tokens.sort_unstable();
    assert_eq!(tokens, (0..2_000).collect::<Vec<_>>());
    assert!(completions.iter().all(|c| c.reply.is_answered()));
    assert_eq!(snap.retries, 2_000);
    assert!(snap.wheel_pending_peak <= snap.in_flight_peak);
    assert_eq!(snap.wheel_pending, 0, "timers outlived their probes");
}
