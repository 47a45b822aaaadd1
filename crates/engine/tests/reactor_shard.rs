//! Sharded-reactor invariants: the target partition is stable and
//! total, correlation is strictly shard-local (a reply landing on the
//! wrong shard's socket is a stray, never a match), the per-shard
//! metrics blocks and RTT digests merge to the same totals a
//! single-shard run produces, a multi-shard drain delivers every
//! completion, and submitters sharing a shard each get exactly their
//! own completions.
//!
//! Everything runs on loopback with an in-test echo server, so these
//! hold on a single-core host too — the shard count is forced through
//! [`ReactorConfig::shards`], not inferred from the machine.

use cde_dns::{Message, Name, RecordType};
use cde_engine::{
    run_campaign_pipelined, shard_for_target, InsightOptions, Probe, Reactor, ReactorConfig,
    RetryPolicy,
};
use crossbeam::channel::unbounded;
use proptest::prelude::*;
use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn policy_ms(attempts: u32, timeout_ms: u64) -> RetryPolicy {
    RetryPolicy {
        attempts,
        timeout: Duration::from_millis(timeout_ms),
        backoff: 1.0,
        base_delay: Duration::from_millis(1),
        jitter: 0.0,
    }
}

/// An echo thread answering every well-formed query on `server`.
fn spawn_echo(server: UdpSocket, stop: Arc<AtomicBool>) -> std::thread::JoinHandle<()> {
    server
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    std::thread::spawn(move || {
        let mut buf = [0u8; 2048];
        while !stop.load(Ordering::SeqCst) {
            let Ok((len, peer)) = server.recv_from(&mut buf) else {
                continue;
            };
            if let Ok(q) = Message::decode(&buf[..len]) {
                let resp = Message::response_to(&q);
                let _ = server.send_to(&resp.encode().unwrap(), peer);
            }
        }
    })
}

proptest! {
    /// The partition is total (always a shard below the count) and
    /// stable (a pure function of the address — repeated calls and
    /// calls in any order agree), so submitter, shard loop and resumed
    /// campaign all place a target identically.
    #[test]
    fn partition_is_stable_and_total(ip in any::<u32>(), shards in 1usize..=16) {
        let ingress = Ipv4Addr::from(ip);
        let first = shard_for_target(ingress, shards);
        prop_assert!(first < shards);
        // Interleave other lookups: the partition must not carry state.
        let _ = shard_for_target(Ipv4Addr::from(ip.wrapping_add(1)), shards);
        prop_assert_eq!(first, shard_for_target(ingress, shards));
        // One shard means no choice at all.
        prop_assert_eq!(shard_for_target(ingress, 1), 0);
    }
}

/// A reply that would match perfectly — right id, right question, right
/// source address — must still be dropped as a stray when it arrives on
/// a socket owned by a shard that never sent the probe: correlation is
/// strictly shard-local.
#[test]
fn wrong_shard_reply_counts_as_stray() {
    let server = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    server
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let server_addr = server.local_addr().unwrap();
    let ingress = Ipv4Addr::new(192, 0, 2, 9);
    let mut targets = HashMap::new();
    targets.insert(ingress, server_addr);
    let reactor = Reactor::launch(
        targets,
        ReactorConfig {
            sockets: 2,
            max_in_flight: 16,
            shards: 2,
            ..ReactorConfig::with_policy(policy_ms(1, 4_000), 21)
        },
    )
    .unwrap();
    assert_eq!(reactor.shards(), 2);

    let (done_tx, done_rx) = unbounded();
    let qname: Name = "stray.cache.example".parse().unwrap();
    assert!(reactor
        .handle()
        .submit(1, ingress, qname, RecordType::A, &done_tx));

    // Catch the probe on the wire and craft the genuine response.
    let mut buf = [0u8; 2048];
    let (len, peer) = server.recv_from(&mut buf).unwrap();
    let query = Message::decode(&buf[..len]).unwrap();
    let response = Message::response_to(&query).encode().unwrap();

    // First deliver it to the *other* shard's socket. The datagram is
    // byte-identical to the real answer and comes from the probed
    // target, but that shard holds no correlation entry for it.
    let owner = shard_for_target(ingress, 2);
    let wrong_shard_addr: SocketAddr = reactor.shard_socket_addrs()[1 - owner][0];
    server.send_to(&response, wrong_shard_addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(2);
    while reactor.metrics().snapshot().stray_replies == 0 {
        assert!(Instant::now() < deadline, "stray reply never counted");
        std::thread::sleep(Duration::from_millis(5));
    }
    let snap = reactor.metrics().snapshot();
    assert_eq!(snap.received, 0, "wrong-shard reply must not match");
    assert!(
        done_rx.try_recv().is_err(),
        "wrong-shard reply must not complete the probe"
    );

    // The same bytes on the socket that sent the probe: a clean match.
    server.send_to(&response, peer).unwrap();
    let completion = done_rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert!(completion.reply.is_answered());
    let snap = reactor.metrics().snapshot();
    assert_eq!(snap.received, 1);
    assert_eq!(snap.stray_replies, 1);
}

/// The same 200-probe, 8-ingress workload through four shards and
/// through one: per-shard blocks sum exactly to the merged snapshot,
/// per-shard accounting closes (every probe routed to a shard is
/// answered or timed out there), the RTT digests hold one sample per
/// match, and the campaign-level totals agree with the single-shard
/// run.
#[test]
fn merged_observability_matches_single_shard_run() {
    let ingresses: Vec<Ipv4Addr> = (1..=8).map(|d| Ipv4Addr::new(192, 0, 2, d)).collect();
    let per_ingress = 25u64;
    let run = |shards: usize| {
        let server = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let server_addr = server.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let echo = spawn_echo(server, Arc::clone(&stop));
        let targets: HashMap<Ipv4Addr, SocketAddr> =
            ingresses.iter().map(|&ip| (ip, server_addr)).collect();
        let mut reactor = Reactor::launch(
            targets,
            ReactorConfig {
                sockets: 4,
                max_in_flight: 256,
                shards,
                insight: Some(InsightOptions::default()),
                ..ReactorConfig::with_policy(policy_ms(3, 500), 17)
            },
        )
        .unwrap();
        let mut probes = Vec::new();
        for &ingress in &ingresses {
            for i in 0..per_ingress {
                let qname: Name = format!("m-{i}.{ingress}.example").parse().unwrap();
                probes.push(Probe::a(ingress, qname));
            }
        }
        let total = probes.len();
        let report = run_campaign_pipelined(&reactor, probes, 64);
        // Stopped loops: the merged and the per-shard snapshots below
        // are read at different moments and must see the same counts.
        assert!(reactor.shutdown_graceful(Duration::from_secs(10)));
        stop.store(true, Ordering::SeqCst);
        echo.join().unwrap();
        assert!(report.fully_accounted(total), "{shards}-shard run leaked");
        (reactor, report)
    };

    let (sharded, sharded_report) = run(4);
    let (single, single_report) = run(1);
    assert_eq!(sharded.metrics().shards(), 4);
    assert_eq!(single.metrics().shards(), 1);
    let total = 8 * per_ingress;

    // Loopback echo loses nothing: both runs answer everything.
    assert_eq!(sharded_report.answered() as u64, total);
    assert_eq!(single_report.answered() as u64, total);
    let merged = sharded.metrics().snapshot();
    let single_snap = single.metrics().snapshot();
    assert_eq!(merged.received, single_snap.received);
    assert_eq!(merged.timeouts, single_snap.timeouts);
    assert_eq!(merged.in_flight, 0);

    // The merged snapshot is exactly the sum of the per-shard blocks.
    let mut sum_sent = 0;
    let mut sum_received = 0;
    let mut sum_timeouts = 0;
    let mut sum_retries = 0;
    let mut sum_loops = 0;
    for i in 0..4 {
        let shard = sharded.metrics().shard_snapshot(i);
        sum_sent += shard.sent;
        sum_received += shard.received;
        sum_timeouts += shard.timeouts;
        sum_retries += shard.retries;
        sum_loops += shard.loop_count;
        // Per-shard accounting closes: every probe the partition routed
        // here was answered or timed out here, none crossed shards.
        let routed = ingresses
            .iter()
            .filter(|&&ip| shard_for_target(ip, 4) == i)
            .count() as u64
            * per_ingress;
        assert_eq!(
            shard.received + shard.timeouts,
            routed,
            "shard {i} accounting"
        );
        assert_eq!(shard.in_flight, 0, "shard {i} drained");
    }
    assert_eq!(sum_sent, merged.sent);
    assert_eq!(sum_received, merged.received);
    assert_eq!(sum_timeouts, merged.timeouts);
    assert_eq!(sum_retries, merged.retries);
    assert_eq!(sum_loops, merged.loop_count);

    // Every shard records into the shared digest set: one sample per
    // matched reply, per ingress and in total.
    let insight = sharded.insight().expect("launched with insight");
    let mut digest_total = 0;
    for &ingress in &ingresses {
        let digest = insight.digests().digest(ingress).expect("known ingress");
        assert_eq!(digest.count(), per_ingress, "{ingress} digest");
        digest_total += digest.count();
    }
    assert_eq!(digest_total, merged.received);
}

/// `shutdown_graceful` must drain *all* shards: every submitted probe
/// resolves, every shard's loop exits cleanly within the budget.
#[test]
fn graceful_drain_covers_every_shard() {
    let ingresses: Vec<Ipv4Addr> = (1..=8).map(|d| Ipv4Addr::new(192, 0, 2, d)).collect();
    let server = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let server_addr = server.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let echo = spawn_echo(server, Arc::clone(&stop));
    let targets: HashMap<Ipv4Addr, SocketAddr> =
        ingresses.iter().map(|&ip| (ip, server_addr)).collect();
    let mut reactor = Reactor::launch(
        targets,
        ReactorConfig {
            sockets: 4,
            max_in_flight: 256,
            shards: 4,
            ..ReactorConfig::with_policy(policy_ms(3, 500), 29)
        },
    )
    .unwrap();
    // The partition must actually spread this ingress set, or the test
    // would degenerate to a single-shard drain.
    let used: std::collections::HashSet<usize> = ingresses
        .iter()
        .map(|&ip| shard_for_target(ip, 4))
        .collect();
    assert!(used.len() > 1, "ingress set landed on one shard: {used:?}");

    let (done_tx, done_rx) = unbounded();
    let handle = reactor.handle();
    let total = 200u64;
    for token in 0..total {
        let ingress = ingresses[(token % 8) as usize];
        let qname: Name = format!("d-{token}.cache.example").parse().unwrap();
        assert!(handle.submit(token, ingress, qname, RecordType::A, &done_tx));
    }
    let drained = reactor.shutdown_graceful(Duration::from_secs(10));
    assert!(drained, "all shards should drain within the budget");
    stop.store(true, Ordering::SeqCst);
    echo.join().unwrap();
    let mut completions = 0;
    while done_rx.try_recv().is_ok() {
        completions += 1;
    }
    assert_eq!(completions, total, "drain must deliver every completion");
    for i in 0..4 {
        assert_eq!(
            reactor.metrics().shard_snapshot(i).in_flight,
            0,
            "shard {i} left probes in flight"
        );
    }
}

/// A pass delivers its completions in one push per run of consecutive
/// completions bound for one channel. Two submitters whose probes
/// interleave on one shard must still each get exactly their own
/// tokens, every one exactly once.
#[test]
fn interleaved_submitters_on_one_shard_get_exactly_their_own_tokens() {
    const PER_SUBMITTER: u64 = 300;
    let ingress = Ipv4Addr::new(192, 0, 2, 1);
    let server = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let server_addr = server.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let echo = spawn_echo(server, Arc::clone(&stop));
    let mut reactor = Reactor::launch(
        HashMap::from([(ingress, server_addr)]),
        ReactorConfig {
            sockets: 2,
            max_in_flight: 64,
            shards: 1,
            ..ReactorConfig::with_policy(policy_ms(3, 500), 41)
        },
    )
    .unwrap();
    let submitters: Vec<_> = [0u64, 1_000_000]
        .into_iter()
        .map(|base| {
            let handle = reactor.handle();
            std::thread::spawn(move || {
                let (done_tx, done_rx) = unbounded();
                for token in base..base + PER_SUBMITTER {
                    let qname: Name = format!("i-{token}.cache.example").parse().unwrap();
                    assert!(handle.submit(token, ingress, qname, RecordType::A, &done_tx));
                }
                let mut got: Vec<u64> = (0..PER_SUBMITTER)
                    .map(|_| {
                        let done = done_rx
                            .recv_timeout(Duration::from_secs(10))
                            .expect("a completion went missing");
                        assert!(done.reply.is_answered(), "{:?}", done.reply);
                        done.token
                    })
                    .collect();
                got.sort_unstable();
                (base, got, done_rx)
            })
        })
        .collect();
    let results: Vec<_> = submitters.into_iter().map(|s| s.join().unwrap()).collect();
    assert!(reactor.shutdown_graceful(Duration::from_secs(10)));
    for (base, got, done_rx) in results {
        assert_eq!(got, (base..base + PER_SUBMITTER).collect::<Vec<_>>());
        // Nothing further: no completion of the other submitter's.
        assert!(done_rx.try_recv().is_err());
    }
    stop.store(true, Ordering::SeqCst);
    echo.join().unwrap();
}
