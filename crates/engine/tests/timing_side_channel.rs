//! The §IV-B3 timing side channel, end to end over live loopback UDP.
//!
//! The paper's indirect-egress channel counts caches from wall-clock
//! latency alone: a cache hit answers in internal-hop time, a miss pays
//! an upstream round trip. This test makes that physically true on
//! loopback — the wire authority holds every answer back ~120 ms, and
//! only cache misses reach it — then runs the *same* `calibrate` /
//! `enumerate_via_timing` code the simulator uses, over the reactor
//! backend, on real measured RTTs:
//!
//! ```text
//! enumerate_via_timing ─▶ ReactorTransport ─▶ LoopbackResolver(platform)
//!                                                 │ miss: replay +120 ms
//!                                                 ▼
//!                                          WireAuthority (delayed)
//! ```
//!
//! The same probe stream is captured three ways and all three must agree
//! on the cached/uncached split: the live classifier (exact cache
//! count), the reactor's streaming RTT digests (bimodal), and the
//! offline `cde-insight` trace analyzer fed the telemetry JSONL.
//!
//! One `#[test]` per file: it installs the process-global telemetry hub.

use cde_core::{calibrate, enumerate_via_timing, AccessChannel, CdeInfra};
use cde_engine::{
    EngineAccess, InsightOptions, LiveTestbed, ReactorConfig, ResolverConfig, RetryPolicy,
};
use cde_insight::{split_digest, PHASES};
use cde_netsim::SimTime;
use cde_platform::{NameserverNet, PlatformBuilder, SelectorKind};
use cde_telemetry::TelemetryHub;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

const INGRESS: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
const CACHES: usize = 3;
/// Injected authority-side distance. Far above loopback hit latency —
/// even a scheduler hiccup's worth of hit jitter stays octaves away in
/// log space — and far below the retry timeout, so misses are
/// unmistakable and never retried.
const UPSTREAM_DELAY: Duration = Duration::from_millis(120);
/// Enough probes that every cache is selected at least once with
/// overwhelming probability (random selector: 3·(2/3)^40 ≈ 1e-7).
const PROBES: u64 = 40;

#[test]
fn timing_side_channel_counts_caches_over_live_loopback() {
    // One hub for everything: the core algorithms' campaign spans (via
    // the process global) and the reactor's probe lifecycle events.
    let hub = TelemetryHub::new(64 * 1024);
    cde_telemetry::install_global(Arc::clone(&hub));

    let mut net = NameserverNet::new();
    let mut infra = CdeInfra::install(&mut net);
    let platform = PlatformBuilder::new(97)
        .ingress(vec![INGRESS])
        .egress(vec![Ipv4Addr::new(192, 0, 3, 1)])
        .cluster(CACHES, SelectorKind::Random)
        .build();
    let testbed = LiveTestbed::launch_with_upstream_delay(
        platform,
        net,
        ResolverConfig::default(),
        UPSTREAM_DELAY,
    )
    .unwrap();
    let policy = RetryPolicy {
        attempts: 4,
        timeout: Duration::from_millis(500),
        backoff: 1.5,
        base_delay: Duration::from_millis(2),
        jitter: 0.5,
    };
    let mut transport = testbed
        .reactor_transport(ReactorConfig {
            policy,
            seed: 97,
            telemetry: Some(Arc::clone(&hub)),
            insight: Some(InsightOptions::default()),
            ..ReactorConfig::default()
        })
        .unwrap();
    let insight = transport.reactor().insight().expect("insight enabled");

    // Live calibration + enumeration: real wall-clock RTTs end to end.
    let (cal, timing) = {
        let mut access = EngineAccess::new(&mut transport, INGRESS);
        let cal = calibrate(&mut access, &mut infra, 12, SimTime::ZERO)
            .expect("hits and misses must separate over live loopback");
        let session = infra.new_session(access.net_mut(), 0);
        let t = enumerate_via_timing(&mut access, &session.honey, cal, PROBES, SimTime::ZERO);
        (cal, t)
    };

    // The calibration found the injected contrast: hits answer in
    // internal-hop time, misses pay the authority's 120 ms.
    assert!(cal.cached_median < cal.uncached_median);
    assert!(
        cal.uncached_median.as_micros() >= 90_000,
        "miss latency must carry the injected upstream delay, got {:?}",
        cal.uncached_median
    );
    assert!(
        cal.threshold.as_micros() > cal.cached_median.as_micros(),
        "threshold must clear the hit mode"
    );

    // The paper's claim, live: slow responses count the caches exactly.
    assert_eq!(
        timing.slow_responses, CACHES as u64,
        "timing enumeration must recover the planted cache count (got {timing:?})"
    );
    assert_eq!(timing.fast_responses, PROBES - CACHES as u64);
    assert_eq!(timing.unclassified, 0, "no probe may time out on loopback");

    // Capture tier: the streaming digest saw the same bimodal world.
    let snap = insight.digests().merged();
    assert!(
        snap.count() >= PROBES,
        "digest must have recorded every matched probe, got {}",
        snap.count()
    );
    assert_eq!(snap.ambiguous(), 0, "no retransmits expected on loopback");
    let digest_split = split_digest(&snap).expect("live RTTs must be bimodal");
    // With 3 misses against ~49 hits the w0·w1 weight factor caps Otsu
    // separation well below the "clearly" bar of 0.85, so assert a floor
    // that unimodal data (uniform tops out at 0.75 only on balanced
    // splits; real hit jitter scores ~0.5) cannot reach.
    assert!(
        digest_split.separation > 0.6,
        "separation {}",
        digest_split.separation
    );
    assert!(
        digest_split.upper.count >= CACHES as u64,
        "the slow mode must hold at least the enumeration misses"
    );
    assert!(
        digest_split.upper.mean_us >= 20_000.0,
        "slow mode must sit near the injected delay, got {} µs",
        digest_split.upper.mean_us
    );

    // Phase profiling ran on the hot path without disturbing any of the
    // above: every phase was entered and sampled at least once.
    for stats in insight.phases().snapshot() {
        assert!(stats.calls > 0, "phase {:?} never entered", stats.phase);
        assert!(stats.sampled > 0, "phase {:?} never sampled", stats.phase);
    }
    assert_eq!(insight.phases().snapshot().len(), PHASES.len());

    // Consumption tier: the offline analyzer reproduces the same split
    // from nothing but the JSONL trace.
    let mut sink = Vec::new();
    hub.drain_jsonl(&mut sink).unwrap();
    let jsonl = String::from_utf8(sink).unwrap();
    let analysis = cde_insight::analyze(&jsonl);
    assert!(analysis.check(), "trace must hold a completed campaign");
    let campaign = analysis
        .campaigns
        .iter()
        .find(|c| c.name == "enumerate_via_timing")
        .expect("enumeration span missing from trace");
    assert!(campaign.completed_ok());
    assert_eq!(campaign.rtt_us.len(), PROBES as usize);
    let offline = campaign.mode_split().expect("trace RTTs must be bimodal");
    assert_eq!(
        offline.upper.count, CACHES as u64,
        "offline analysis must recover the cache count from the trace alone"
    );
    assert_eq!(offline.lower.count, PROBES - CACHES as u64);
    // Same imbalance-capped floor as the live digest split above.
    assert!(
        offline.separation > 0.6,
        "separation {}",
        offline.separation
    );
    // Offline and live agree on the classification boundary's side.
    assert!(offline.threshold_us < cal.uncached_median.as_micros());
}
