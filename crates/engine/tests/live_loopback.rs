//! Hermetic end-to-end tests of the live measurement chain.
//!
//! Everything here runs over *real* UDP datagrams on loopback:
//!
//! ```text
//! enumerate_adaptive ──▶ ReactorTransport ──▶ LoopbackResolver(platform)
//!                                                  │ upstream replay
//!                                                  ▼
//!                                             WireAuthority
//! ```
//!
//! The assertions mirror the simulator's: the paper's enumeration recovers
//! the planted cache count, now across actual sockets — and keeps
//! recovering it when the wire deterministically drops queries.

use cde_core::{enumerate_adaptive, CdeInfra, SurveyOptions};
use cde_engine::scheduler::{run_campaign_pipelined, Probe};
use cde_engine::{
    EngineAccess, LiveTestbed, RateConfig, RateLimiter, Reactor, ReactorConfig, ResolverConfig,
    RetryPolicy, SimTransport, Transport,
};
use cde_netsim::{Link, SimTime};
use cde_platform::{NameserverNet, PlatformBuilder, ResolutionPlatform, SelectorKind};
use cde_probers::DirectProber;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

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

/// A retry policy tight enough for a fast test but still able to absorb
/// injected loss.
fn test_policy() -> RetryPolicy {
    RetryPolicy {
        attempts: 4,
        timeout: Duration::from_millis(400),
        backoff: 1.5,
        base_delay: Duration::from_millis(2),
        jitter: 0.5,
    }
}

#[test]
fn sim_and_live_backends_agree_on_the_same_platform() {
    let caches = 6;

    // Simulated backend.
    let (platform, net, mut infra) = build_world(caches, 67);
    let prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), 67);
    let mut sim = SimTransport::new(platform, net, prober);
    let sim_estimate = {
        let mut access = EngineAccess::new(&mut sim, INGRESS);
        enumerate_adaptive(
            &mut access,
            &mut infra,
            &SurveyOptions::default(),
            SimTime::ZERO,
        )
        .estimated
    };

    // Live backend over an identically-built platform.
    let (platform, net, mut infra) = build_world(caches, 67);
    let testbed = LiveTestbed::launch(platform, net, ResolverConfig::default()).unwrap();
    let mut transport = testbed
        .reactor_transport(ReactorConfig::with_policy(test_policy(), 67))
        .unwrap();
    let live_estimate = {
        let mut access = EngineAccess::new(&mut transport, INGRESS);
        enumerate_adaptive(
            &mut access,
            &mut infra,
            &SurveyOptions::default(),
            SimTime::ZERO,
        )
        .estimated
    };

    assert_eq!(sim_estimate, caches as u64);
    assert_eq!(
        sim_estimate, live_estimate,
        "both transports must expose the same platform to the same algorithm"
    );
}

#[test]
fn enumeration_over_reactor_backend_recovers_cache_count() {
    let caches = 5;
    let (platform, net, mut infra) = build_world(caches, 71);
    let testbed = LiveTestbed::launch(platform, net, ResolverConfig::default()).unwrap();
    let mut transport = testbed
        .reactor_transport(ReactorConfig::with_policy(test_policy(), 71))
        .unwrap();

    let e = {
        let mut access = EngineAccess::new(&mut transport, INGRESS);
        enumerate_adaptive(
            &mut access,
            &mut infra,
            &SurveyOptions::default(),
            SimTime::ZERO,
        )
    };
    assert_eq!(
        e.estimated, caches as u64,
        "reactor-backed enumeration must recover the planted cache count (got {e:?})"
    );

    let snap = transport.metrics().snapshot();
    assert!(snap.sent > 0, "no datagrams sent");
    assert_eq!(snap.sent, snap.received, "unexpected loss on loopback");
    assert_eq!(snap.dropped_replies(), 0, "no strays expected on loopback");
    assert!(
        testbed.authority().queries_served() > 0,
        "the wire authority never saw the platform's upstream traffic"
    );
}

#[test]
fn enumeration_over_reactor_survives_injected_loss() {
    let caches = 4;
    let (platform, net, mut infra) = build_world(caches, 59);
    let testbed = LiveTestbed::launch(
        platform,
        net,
        ResolverConfig {
            query_loss: 0.25,
            seed: 7,
        },
    )
    .unwrap();
    let policy = RetryPolicy {
        attempts: 5,
        timeout: Duration::from_millis(120),
        backoff: 1.5,
        base_delay: Duration::from_millis(2),
        jitter: 0.5,
    };
    let mut transport = testbed
        .reactor_transport(ReactorConfig::with_policy(policy, 59))
        .unwrap();

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
        "reactor enumeration under loss must still recover the cache count (got {e:?})"
    );

    let snap = transport.metrics().snapshot();
    assert!(snap.retries > 0, "injected loss must force retransmissions");
    assert!(snap.sent > snap.received, "loss must be visible in metrics");
    assert!(
        transport.observed_loss_rate() > 0.05,
        "observed loss rate should reflect the injected loss, got {}",
        transport.observed_loss_rate()
    );
}

#[test]
fn pipelined_campaign_over_reactor() {
    let caches = 2;
    let (platform, mut net, mut infra) = build_world(caches, 31);
    // Open the session before launch so the resolver's world already
    // contains the honey record (a bare reactor carries no sync link).
    let session = infra.new_session(&mut net, 0);
    let testbed = LiveTestbed::launch(platform, net, ResolverConfig::default()).unwrap();

    let limiter = Arc::new(RateLimiter::new(
        RateConfig {
            per_second: 4000.0,
            burst: 2.0,
        },
        None,
    ));
    let reactor = Reactor::launch(
        testbed.resolver().ingress_addrs().clone(),
        ReactorConfig {
            policy: test_policy(),
            limiter: Some(limiter),
            seed: 31,
            ..ReactorConfig::default()
        },
    )
    .unwrap();
    let probes: Vec<Probe> = (0..24)
        .map(|_| Probe::a(INGRESS, session.honey.clone()))
        .collect();
    let report = run_campaign_pipelined(&reactor, probes, 16);
    assert_eq!(report.answered(), 24, "every probe must be answered");
    assert_eq!(report.outcomes.len(), 24);
    assert!(
        report.rate_limit_stalls > 0,
        "the batch-aware limiter never engaged"
    );
    // Observed (zero) loss feeds the next plan.
    assert_eq!(report.plan_for(8).loss, 0.0);
    let snap = reactor.metrics().snapshot();
    assert!(snap.in_flight_peak > 1, "probes never overlapped");
    assert!(testbed.authority().queries_served() > 0);
}

#[test]
fn telemetry_streams_campaign_and_probe_lifecycle() {
    use cde_engine::scheduler::run_campaign_pipelined_reported;
    use cde_telemetry::{MetricsRegistry, ProgressReporter, TelemetryHub};

    let caches = 2;
    let (platform, mut net, mut infra) = build_world(caches, 37);
    let session = infra.new_session(&mut net, 0);
    let testbed = LiveTestbed::launch(platform, net, ResolverConfig::default()).unwrap();

    let hub = TelemetryHub::new(16 * 1024);
    let registry = MetricsRegistry::new();
    let limiter = Arc::new(RateLimiter::new(
        RateConfig {
            per_second: 4000.0,
            burst: 2.0,
        },
        None,
    ));
    let reactor = Reactor::launch(
        testbed.resolver().ingress_addrs().clone(),
        ReactorConfig {
            policy: test_policy(),
            limiter: Some(limiter),
            seed: 37,
            telemetry: Some(Arc::clone(&hub)),
            registry: Some(Arc::clone(&registry)),
            ..ReactorConfig::default()
        },
    )
    .unwrap();

    // JSONL sink shared with the reporter so we can inspect the stream.
    #[derive(Clone, Default)]
    struct SharedSink(Arc<parking_lot::Mutex<Vec<u8>>>);
    impl std::io::Write for SharedSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let sink = SharedSink::default();
    let mut reporter = ProgressReporter::new(Arc::clone(&hub))
        .to_sink(sink.clone())
        .every(Duration::from_millis(1));

    let probes: Vec<Probe> = (0..24)
        .map(|_| Probe::a(INGRESS, session.honey.clone()))
        .collect();
    let report =
        run_campaign_pipelined_reported(&reactor, probes, 8, "telemetry_e2e", Some(&mut reporter));
    assert_eq!(report.answered(), 24, "every probe must be answered");

    // The JSONL stream must show the campaign span and the full probe
    // lifecycle observed on the wire.
    let jsonl = String::from_utf8(sink.0.lock().clone()).unwrap();
    for kind in [
        "campaign_begin",
        "probe_planned",
        "probe_sent",
        "probe_matched",
        "campaign_progress",
        "campaign_end",
    ] {
        assert!(
            jsonl.contains(&format!("\"kind\": \"{kind}\"")),
            "missing {kind} in JSONL stream:\n{jsonl}"
        );
    }
    assert!(jsonl.contains("\"name\": \"telemetry_e2e\""));
    assert!(jsonl.contains("\"planned\": 24"));
    assert_eq!(hub.dropped(), 0, "ring must not shed at this volume");

    // The registry saw every collector the reactor registered.
    let prom = registry.prometheus_text();
    for family in [
        "cde_engine_sent_total",
        "cde_engine_received_total",
        "cde_engine_probe_rtt_seconds_bucket",
        "cde_engine_loop_tick_seconds_bucket",
        "cde_engine_wheel_pending_peak",
        "cde_engine_slab_capacity",
        "cde_bufpool_recycled_total",
        "cde_ratelimit_tokens_total",
        "cde_telemetry_events_emitted_total",
    ] {
        assert!(prom.contains(family), "missing {family} in:\n{prom}");
    }

    // Reactor health gauges must have sampled real values in-loop.
    let snap = reactor.metrics().snapshot();
    assert!(snap.slab_capacity > 0);
    assert!(
        snap.wheel_pending_peak > 0,
        "deadline timers must have been pending at some point"
    );
    assert!(snap.loop_count > 0);
    assert!(snap.loop_latency_quantile(0.5).is_some());
    assert!(snap.batch_fill_ratio(cde_sysio::MAX_BATCH).is_some());
}
