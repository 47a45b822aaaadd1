//! Time-to-exact-count: the adaptive loop against the static plan.
//!
//! Both runs enumerate the same planted platform over real loopback UDP
//! behind the same fixed-seed 30% Gilbert–Elliott fault plan:
//!
//! * **static** — the fixed-budget enumeration an operator runs blind:
//!   the coupon-collector budget for `N_MAX` caches at the hinted loss,
//!   with every attempt waiting out the static retry timeout;
//! * **adaptive** — per-ingress RTO table (retransmit deadlines learned
//!   from live RTT) plus the sequential stopping planner (the campaign
//!   ends once the exact-count criterion holds).
//!
//! Both must recover the planted count exactly; the adaptive run must
//! spend fewer probes, at most 0.36× the retransmits and at most 0.30×
//! the static run's wall-clock.

use cde_core::{enumerate_identical, enumerate_sequential, CdeInfra, EnumerateOptions, ProbePlan};
use cde_engine::{
    AdaptiveRtoConfig, EngineAccess, LiveTestbed, ReactorConfig, ResolverConfig, RetryPolicy,
    Transport,
};
use cde_faults::FaultPlan;
use cde_netsim::SimTime;
use cde_platform::{NameserverNet, PlatformBuilder, SelectorKind};
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

const INGRESS: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
/// Platform, fault plan and reactor RNG all derive from this seed, so
/// the loss bursts land on the same datagrams every run.
const SEED: u64 = 17;
/// Caches actually planted behind the ingress.
const CACHES: usize = 5;
/// The upper bound the static plan budgets for: the operator does not
/// know the true count, which is what the sequential planner exploits.
const N_MAX: u64 = 16;
/// Gilbert–Elliott loss rate and mean burst length on the query path.
const LOSS: f64 = 0.30;
const BURST: f64 = 3.0;
/// Residual failure probability of the sequential stopping rule.
const EPSILON: f64 = 0.001;

/// The timeout an operator would pick without RTT knowledge. The
/// adaptive RTO table can only tighten deadlines below it.
fn static_policy() -> RetryPolicy {
    RetryPolicy {
        attempts: 6,
        timeout: Duration::from_millis(100),
        backoff: 1.0,
        base_delay: Duration::from_millis(1),
        jitter: 0.0,
    }
}

struct Run {
    elapsed: Duration,
    retransmits: u64,
    spent: u64,
    observed: u64,
}

fn run(adaptive: bool) -> Run {
    let mut net = NameserverNet::new();
    let mut infra = CdeInfra::install(&mut net);
    let session = infra.new_session(&mut net, 0);
    let platform = PlatformBuilder::new(SEED)
        .ingress(vec![INGRESS])
        .egress((1..=3).map(|d| Ipv4Addr::new(192, 0, 3, d)).collect())
        .cluster(CACHES, SelectorKind::Random)
        .build();
    let testbed = LiveTestbed::launch(platform, net, ResolverConfig::default()).unwrap();
    let mut transport = testbed
        .reactor_transport(ReactorConfig {
            faults: Some(FaultPlan::bursty(SEED, LOSS, BURST)),
            adaptive: adaptive.then(AdaptiveRtoConfig::default),
            ..ReactorConfig::with_policy(static_policy(), SEED)
        })
        .unwrap();
    let plan = ProbePlan::for_bursty_target(N_MAX, LOSS, BURST);
    let opts = EnumerateOptions {
        probes: plan.probes,
        redundancy: plan.redundancy,
        ..EnumerateOptions::default()
    };
    let start = Instant::now();
    let (spent, observed) = {
        let mut access = EngineAccess::new(&mut transport, INGRESS);
        if adaptive {
            let r =
                enumerate_sequential(&mut access, &infra, &session, opts, EPSILON, SimTime::ZERO);
            (r.enumeration.probes, r.enumeration.observed)
        } else {
            let e = enumerate_identical(&mut access, &infra, &session, opts, SimTime::ZERO);
            (e.probes, e.observed)
        }
    };
    Run {
        elapsed: start.elapsed(),
        retransmits: transport.metrics().snapshot().retries,
        spent,
        observed,
    }
}

#[test]
fn adaptive_loop_reaches_the_exact_count_faster_than_the_static_plan() {
    let fixed = run(false);
    let adaptive = run(true);
    let summary = format!(
        "static {:.2}s / {} retransmits / {} spent / observed {}; \
         adaptive {:.2}s / {} retransmits / {} spent / observed {}",
        fixed.elapsed.as_secs_f64(),
        fixed.retransmits,
        fixed.spent,
        fixed.observed,
        adaptive.elapsed.as_secs_f64(),
        adaptive.retransmits,
        adaptive.spent,
        adaptive.observed,
    );
    eprintln!("{summary}");
    assert_eq!(
        fixed.observed, CACHES as u64,
        "static run miscounted: {summary}"
    );
    assert_eq!(
        adaptive.observed, CACHES as u64,
        "adaptive run miscounted: {summary}"
    );
    assert!(adaptive.spent < fixed.spent, "no probes saved: {summary}");
    // Every run records 14 / 58 ≈ 0.24 of the retransmits (the counts
    // are fixed by the seed) and 1.22 / 6.18 s ≈ 0.20 of the wall-clock
    // on a 2-core VM. The ceilings are the ones the adaptive loop was
    // first gated at: room for a loaded machine, none for the win to
    // quietly shrink.
    assert!(
        adaptive.retransmits as f64 <= 0.36 * fixed.retransmits as f64,
        "adaptive run retransmits above 0.36x static: {summary}"
    );
    assert!(
        adaptive.elapsed.as_secs_f64() <= 0.30 * fixed.elapsed.as_secs_f64(),
        "adaptive run above 0.30x static wall-clock: {summary}"
    );
}
