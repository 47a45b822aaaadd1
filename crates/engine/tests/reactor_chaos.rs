//! Live-loopback chaos: the reactor under an injected [`FaultPlan`].
//!
//! Real UDP datagrams cross loopback sockets while the reactor's fault
//! layer drops, delays, duplicates, truncates and REFUSES them. The
//! assertions check two things everywhere: the measurement survives
//! (exact counts, every probe accounted), and the chaos is *visible* in
//! the existing taxonomy (retries, strays, decode errors, fault stats).
//!
//! Seeds come from `CDE_CHAOS_SEED`; failures print the replay recipe.

use cde_core::{enumerate_adaptive, CdeInfra, SurveyOptions};
use cde_dns::{Message, Name, Rcode, RecordType};
use cde_engine::scheduler::{run_campaign_pipelined, Probe};
use cde_engine::{
    EngineAccess, LiveTestbed, MetricsSnapshot, Reactor, ReactorConfig, ResolverConfig,
    RetryPolicy, Transport, TransportReply,
};
use cde_faults::{
    DelayFault, DuplicateFault, FaultPlan, RateLimitAction, RateLimitFault, TruncateFault,
};
use cde_netsim::{seed_from_env, SeedGuard, SimTime};
use cde_platform::{NameserverNet, PlatformBuilder, ResolutionPlatform, SelectorKind};
use crossbeam::channel::unbounded;
use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const INGRESS: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

fn build_world(caches: usize, seed: u64) -> (ResolutionPlatform, NameserverNet, CdeInfra) {
    let mut net = NameserverNet::new();
    let infra = CdeInfra::install(&mut net);
    let platform = PlatformBuilder::new(seed)
        .ingress(vec![INGRESS])
        .egress((1..=3).map(|d| Ipv4Addr::new(192, 0, 3, d)).collect())
        .cluster(caches, SelectorKind::Random)
        .build();
    (platform, net, infra)
}

fn policy(attempts: u32, timeout_ms: u64) -> RetryPolicy {
    RetryPolicy {
        attempts,
        timeout: Duration::from_millis(timeout_ms),
        backoff: 1.0,
        base_delay: Duration::from_millis(1),
        jitter: 0.0,
    }
}

/// A well-behaved echo authority: decodes each query and answers it
/// correctly. All misbehaviour comes from the fault layer in front.
struct EchoServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl EchoServer {
    fn launch() -> EchoServer {
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
                        // Truncated queries fail to decode and are
                        // silently ignored — like a real server.
                        if let Ok(query) = Message::decode(&buf[..len]) {
                            let resp = Message::response_to(&query);
                            let _ = socket.send_to(&resp.encode().unwrap(), peer);
                        }
                    }
                }
            }
        });
        EchoServer {
            addr,
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for EchoServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn launch_reactor(target: SocketAddr, config: ReactorConfig) -> Reactor {
    let mut targets = HashMap::new();
    targets.insert(INGRESS, target);
    Reactor::launch(targets, config).unwrap()
}

/// Polls the reactor's metrics until `pred` holds or three seconds pass.
fn wait_for_metrics(reactor: &Reactor, pred: impl Fn(&MetricsSnapshot) -> bool) -> MetricsSnapshot {
    let deadline = Instant::now() + Duration::from_secs(3);
    loop {
        let snap = reactor.metrics().snapshot();
        if pred(&snap) || Instant::now() > deadline {
            return snap;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn campaign_probes(n: usize) -> Vec<Probe> {
    (0..n)
        .map(|i| {
            let qname: Name = format!("chaos-{i}.cache.example").parse().unwrap();
            Probe::a(INGRESS, qname)
        })
        .collect()
}

#[test]
fn adaptive_enumeration_survives_bursty_chaos() {
    let seed = seed_from_env("CDE_CHAOS_SEED", 4747);
    let _guard = SeedGuard::new("CDE_CHAOS_SEED", seed);
    let caches = 5;
    let (platform, net, mut infra) = build_world(caches, seed);
    let testbed = LiveTestbed::launch(platform, net, ResolverConfig::default()).unwrap();
    // 25% bursty loss in 3-packet runs on the query direction; the retry
    // policy gets enough attempts to outlast a burst.
    let config = ReactorConfig {
        faults: Some(FaultPlan::bursty(seed, 0.25, 3.0)),
        ..ReactorConfig::with_policy(policy(6, 150), seed)
    };
    let mut transport = testbed.reactor_transport(config).unwrap();

    let opts = SurveyOptions {
        loss: 0.25,
        ..SurveyOptions::default()
    };
    let e = {
        let mut access = EngineAccess::new(&mut transport, INGRESS);
        enumerate_adaptive(&mut access, &mut infra, &opts, SimTime::ZERO)
    };
    assert_eq!(
        e.estimated, caches as u64,
        "enumeration under bursty chaos must recover the count (got {e:?}, seed {seed})"
    );

    let snap = transport.metrics().snapshot();
    assert!(snap.retries > 0, "bursty loss must force retransmissions");
    let stats = transport
        .reactor()
        .fault_stats()
        .expect("fault layer enabled");
    assert!(stats.query_drops() > 0, "chaos run was accidentally clean");
}

#[test]
fn duplicated_replies_land_as_strays_not_double_matches() {
    let seed = seed_from_env("CDE_CHAOS_SEED", 5151);
    let _guard = SeedGuard::new("CDE_CHAOS_SEED", seed);
    let server = EchoServer::launch();
    // Every datagram is doubled, both directions: the echo server sees
    // two queries per attempt and the reactor sees up to four replies.
    let plan = FaultPlan {
        duplicate: Some(DuplicateFault {
            rate: 1.0,
            copies: 1,
        }),
        ..FaultPlan::clean(seed)
    };
    let reactor = launch_reactor(
        server.addr,
        ReactorConfig {
            faults: Some(plan),
            ..ReactorConfig::with_policy(policy(3, 400), seed)
        },
    );
    let report = run_campaign_pipelined(&reactor, campaign_probes(24), 16);
    assert_eq!(report.answered(), 24, "duplicates must not break matching");
    assert!(report.fully_accounted(24), "probe accounting leaked");
    let snap = wait_for_metrics(&reactor, |s| s.stray_replies > 0);
    assert_eq!(snap.received, 24, "each probe must match exactly once");
    assert!(
        snap.stray_replies > 0,
        "extra copies must surface as strays, not matches"
    );
    let stats = reactor.fault_stats().expect("fault layer enabled");
    assert!(stats.duplicated() > 0, "duplication never fired");
}

#[test]
fn delay_spikes_beyond_the_deadline_retire_then_stray() {
    let seed = seed_from_env("CDE_CHAOS_SEED", 6262);
    let _guard = SeedGuard::new("CDE_CHAOS_SEED", seed);
    let server = EchoServer::launch();
    // Every copy is held 60ms per direction against a 30ms deadline: no
    // attempt can be answered in time — the reply always lands after the
    // slot was retired, as a stray.
    let plan = FaultPlan {
        delay: Some(DelayFault {
            jitter: Duration::ZERO,
            spike_rate: 1.0,
            spike: Duration::from_millis(60),
        }),
        ..FaultPlan::clean(seed)
    };
    let reactor = launch_reactor(
        server.addr,
        ReactorConfig {
            faults: Some(plan),
            ..ReactorConfig::with_policy(policy(2, 30), seed)
        },
    );
    let report = run_campaign_pipelined(&reactor, campaign_probes(12), 8);
    assert_eq!(report.answered(), 0, "no reply can beat a 120ms spike");
    assert!(report.fully_accounted(12), "probe accounting leaked");
    let snap = wait_for_metrics(&reactor, |s| s.stray_replies > 0);
    assert!(snap.retries > 0, "timed-out attempts must retry");
    assert_eq!(snap.timeouts, 12, "every probe must retire by timeout");
    assert!(
        snap.stray_replies > 0,
        "spiked replies must land as strays after the deadline"
    );
    let stats = reactor.fault_stats().expect("fault layer enabled");
    assert!(stats.delayed() > 0, "spikes never fired");
}

#[test]
fn truncated_datagrams_are_decode_errors_not_matches() {
    let seed = seed_from_env("CDE_CHAOS_SEED", 7373);
    let _guard = SeedGuard::new("CDE_CHAOS_SEED", seed);
    let server = EchoServer::launch();
    // 40% of datagrams (each direction) are cut in half: truncated
    // queries die at the echo server's decoder, truncated replies at the
    // reactor's — visible as decode errors, never as matches.
    let plan = FaultPlan {
        truncate: Some(TruncateFault { rate: 0.4 }),
        ..FaultPlan::clean(seed)
    };
    let reactor = launch_reactor(
        server.addr,
        ReactorConfig {
            faults: Some(plan),
            ..ReactorConfig::with_policy(policy(6, 100), seed)
        },
    );
    let report = run_campaign_pipelined(&reactor, campaign_probes(24), 16);
    assert!(report.fully_accounted(24), "probe accounting leaked");
    assert!(
        report.answered() >= 18,
        "six attempts must usually outlast 40% truncation, got {} (seed {seed})",
        report.answered()
    );
    let snap = reactor.metrics().snapshot();
    assert!(
        snap.decode_errors > 0,
        "truncated replies must be counted as decode errors"
    );
    let stats = reactor.fault_stats().expect("fault layer enabled");
    assert!(stats.truncated() > 0, "truncation never fired");
}

#[test]
fn rate_limit_refusals_come_back_as_refused_answers() {
    let seed = seed_from_env("CDE_CHAOS_SEED", 8484);
    let _guard = SeedGuard::new("CDE_CHAOS_SEED", seed);
    let server = EchoServer::launch();
    // Two queries fit the bucket; the rest are REFUSED by a synthesized
    // reply that must still pass the reactor's anti-spoofing checks
    // (right id, right source, echoed question).
    let plan = FaultPlan {
        rate_limit: Some(RateLimitFault {
            qps: 0.001,
            burst: 2.0,
            action: RateLimitAction::Refuse,
        }),
        ..FaultPlan::clean(seed)
    };
    let reactor = launch_reactor(
        server.addr,
        ReactorConfig {
            faults: Some(plan),
            ..ReactorConfig::with_policy(policy(1, 400), seed)
        },
    );
    let (done_tx, done_rx) = unbounded();
    let mut refused = 0;
    let mut answered = 0;
    for i in 0..6 {
        let qname: Name = format!("limited-{i}.cache.example").parse().unwrap();
        assert!(reactor
            .handle()
            .submit(i, INGRESS, qname, RecordType::A, &done_tx));
        match done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("probe never completed")
            .reply
        {
            TransportReply::Answered { rcode, .. } => {
                answered += 1;
                if rcode == Rcode::Refused {
                    refused += 1;
                }
            }
            TransportReply::TimedOut => {}
        }
    }
    assert_eq!(answered, 6, "REFUSED answers must still complete probes");
    assert_eq!(refused, 4, "four of six probes must overflow the bucket");
    let stats = reactor.fault_stats().expect("fault layer enabled");
    assert_eq!(stats.refused(), 4);
}
