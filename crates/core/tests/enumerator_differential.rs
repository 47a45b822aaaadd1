//! Differential oracle for the [`cde_core::Enumerator`] drivers.
//!
//! The four counting loops as they were written before the `Enumerator`
//! existed are kept below as reference implementations, verbatim except
//! for `Enumeration::from_counts`, which is gone from the crate (its
//! arithmetic is now `Enumerator::enumeration`) and is copied here as
//! `from_counts`. They stay until cde-serve drives the `Enumerator` too.
//! Every case builds two identical seeded worlds, runs the reference
//! loop in one and the public driver in the other, and asserts:
//!
//! * equal results (`Enumeration`, and for the sequential variant
//!   `stopped_early`, the final planner and the telemetry span's events,
//!   campaign ids and timestamps aside),
//! * an equal trigger trace: the same `(qname, SimTime)` sequence,
//! * no more reads of the nameserver log (`AccessChannel::net`) than the
//!   reference made.
//!
//! The grid is variant × every selector × n ∈ 1..=12 × three client
//! links (ideal, 20 % Bernoulli loss, Gilbert–Elliott bursts) ×
//! redundancy 1–3 × ceiling {0, 1, q, 2q} with q = `query_budget(n, ε)`
//! × ε ∈ {0.01, 0.001}: 17 280 cases, one test per variant.

use cde_analysis::coupon::query_budget;
use cde_analysis::estimators::estimate_cache_count;
use cde_core::access::{AccessChannel, DirectAccess, TriggerOutcome};
use cde_core::enumerate::{
    enumerate_cname_farm, enumerate_identical, enumerate_names_hierarchy, EnumerateOptions,
    Enumeration,
};
use cde_core::{enumerate_sequential, CdeInfra, SequentialEnumeration, SequentialPlanner, Session};
use cde_dns::Name;
use cde_netsim::{DetRng, GilbertElliott, LatencyModel, Link, LossModel, SimDuration, SimTime};
use cde_platform::{NameserverNet, PlatformBuilder, SelectorKind};
use cde_probers::DirectProber;
use cde_telemetry::{EventKind, TelemetryHub};
use std::cell::Cell;
use std::net::Ipv4Addr;

const INGRESS: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
const SIZES: std::ops::RangeInclusive<usize> = 1..=12;
const REDUNDANCY: std::ops::RangeInclusive<u64> = 1..=3;
const EPSILONS: [f64; 2] = [0.01, 0.001];

// ---------------------------------------------------------------------
// Reference implementations: the loops before the `Enumerator`.
// ---------------------------------------------------------------------

fn from_counts(probes: u64, delivered: u64, observed: u64) -> Enumeration {
    // ω can exceed the probe count under response loss + upstream
    // retries; clamp for the estimator's precondition.
    let clamped = observed.min(probes.max(1));
    Enumeration {
        probes,
        delivered,
        observed,
        estimated: estimate_cache_count(clamped, probes.max(1)),
    }
}

fn reference_identical<A: AccessChannel>(
    access: &mut A,
    infra: &CdeInfra,
    session: &Session,
    opts: EnumerateOptions,
    start: SimTime,
) -> Enumeration {
    let mut now = start;
    let mut delivered = 0u64;
    for _ in 0..opts.probes {
        for _ in 0..opts.redundancy {
            if access.trigger(&session.honey, now).is_delivered() {
                delivered += 1;
                break;
            }
        }
        now += opts.gap;
    }
    let observed = infra.count_honey_fetches(access.net(), &session.honey) as u64;
    from_counts(opts.probes, delivered, observed)
}

fn reference_cname_farm<A: AccessChannel>(
    access: &mut A,
    infra: &CdeInfra,
    session: &Session,
    opts: EnumerateOptions,
    start: SimTime,
) -> Enumeration {
    assert!(
        session.farm.len() as u64 >= opts.probes,
        "session farm ({}) smaller than probe count ({})",
        session.farm.len(),
        opts.probes
    );
    let mut now = start;
    let mut delivered = 0u64;
    for alias in session.farm.iter().take(opts.probes as usize) {
        for _ in 0..opts.redundancy {
            if access.trigger(alias, now).is_delivered() {
                delivered += 1;
                break;
            }
        }
        now += opts.gap;
    }
    let observed = infra.count_honey_fetches(access.net(), &session.honey) as u64;
    from_counts(opts.probes, delivered, observed)
}

fn reference_names_hierarchy<A: AccessChannel>(
    access: &mut A,
    infra: &CdeInfra,
    session: &Session,
    opts: EnumerateOptions,
    start: SimTime,
) -> Enumeration {
    assert!(
        session.sub_farm.len() as u64 >= opts.probes,
        "session subzone farm ({}) smaller than probe count ({})",
        session.sub_farm.len(),
        opts.probes
    );
    let mut now = start;
    let mut delivered = 0u64;
    for name in session.sub_farm.iter().take(opts.probes as usize) {
        for _ in 0..opts.redundancy {
            if access.trigger(name, now).is_delivered() {
                delivered += 1;
                break;
            }
        }
        now += opts.gap;
    }
    let observed = infra.count_referral_fetches(access.net(), session) as u64;
    from_counts(opts.probes, delivered, observed)
}

fn reference_sequential<A: AccessChannel>(
    access: &mut A,
    infra: &CdeInfra,
    session: &Session,
    opts: EnumerateOptions,
    epsilon: f64,
    start: SimTime,
) -> SequentialEnumeration {
    let span = cde_telemetry::global().begin_campaign("enumerate_sequential", opts.probes);
    let mut planner = SequentialPlanner::new(epsilon);
    let mut now = start;
    let mut delivered = 0u64;
    let mut spent = 0u64;
    let mut stopped_early = false;
    for _ in 0..opts.probes {
        spent += 1;
        let mut hit = false;
        for _ in 0..opts.redundancy {
            if access.trigger(&session.honey, now).is_delivered() {
                hit = true;
                break;
            }
        }
        now += opts.gap;
        let observed = infra.count_honey_fetches(access.net(), &session.honey) as u64;
        let new_caches = observed.saturating_sub(planner.observed());
        if hit {
            delivered += 1;
            planner.record_delivered(new_caches);
        } else {
            planner.record_lost(new_caches);
        }
        if planner.should_stop() {
            stopped_early = spent < opts.probes;
            break;
        }
    }
    let observed = infra.count_honey_fetches(access.net(), &session.honey) as u64;
    span.note("observed_caches", observed);
    span.note("stopped_early", stopped_early as u64);
    span.end(spent, delivered, spent - delivered);
    SequentialEnumeration {
        enumeration: from_counts(spent, delivered, observed),
        stopped_early,
        planner,
    }
}

// ---------------------------------------------------------------------
// The harness.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Variant {
    Identical,
    CnameFarm,
    NamesHierarchy,
    Sequential,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ClientLink {
    Ideal,
    Bernoulli,
    GilbertElliott,
}

#[derive(Debug, Clone, Copy)]
struct Case {
    variant: Variant,
    selector: SelectorKind,
    n: usize,
    link: ClientLink,
    redundancy: u64,
    ceiling: u64,
    epsilon: f64,
    seed: u64,
}

/// A direct channel that records every trigger and every log read, and
/// optionally drops queries on the client side with a Gilbert–Elliott
/// chain before they reach the platform.
struct Recorded<'a> {
    inner: DirectAccess<'a>,
    bursts: Option<(GilbertElliott, DetRng)>,
    trace: Vec<(Name, SimTime)>,
    net_reads: Cell<u64>,
}

impl AccessChannel for Recorded<'_> {
    fn trigger(&mut self, qname: &Name, now: SimTime) -> TriggerOutcome {
        self.trace.push((qname.clone(), now));
        if let Some((chain, rng)) = &mut self.bursts {
            if chain.drops(rng) {
                return TriggerOutcome::TimedOut;
            }
        }
        self.inner.trigger(qname, now)
    }

    fn net(&self) -> &NameserverNet {
        self.net_reads.set(self.net_reads.get() + 1);
        self.inner.net()
    }

    fn net_mut(&mut self) -> &mut NameserverNet {
        self.inner.net_mut()
    }
}

/// The result of one run, of either shape.
#[derive(Debug, PartialEq)]
enum Counted {
    Fixed(Enumeration),
    Sequential(SequentialEnumeration, Vec<EventKind>),
}

/// The events the run emitted into the global hub, which only the
/// sequential test installs.
fn span_events() -> Vec<EventKind> {
    cde_telemetry::global()
        .drain()
        .into_iter()
        .map(|e| e.kind)
        .collect()
}

/// What one side of a case produced.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Counted,
    trace: Vec<(Name, SimTime)>,
}

/// Builds the case's world and runs `reference` (the old loop) or the
/// public driver in it. Returns the outcome and the number of log reads.
fn run(case: &Case, reference: bool) -> (Outcome, u64) {
    let mut net = NameserverNet::new();
    let mut infra = CdeInfra::install(&mut net);
    let mut platform = PlatformBuilder::new(case.seed)
        .ingress(vec![INGRESS])
        .egress((1..=4).map(|d| Ipv4Addr::new(192, 0, 3, d)).collect())
        .cluster(case.n, case.selector)
        .build();
    let farm = match case.variant {
        Variant::CnameFarm | Variant::NamesHierarchy => case.ceiling as usize,
        Variant::Identical | Variant::Sequential => 0,
    };
    let session = infra.new_session(&mut net, farm);
    let link = match case.link {
        ClientLink::Bernoulli => Link::new(
            LatencyModel::Constant(SimDuration::from_millis(10)),
            LossModel::with_rate(0.2),
        ),
        ClientLink::Ideal | ClientLink::GilbertElliott => Link::ideal(),
    };
    let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), link, case.seed ^ 0xc0de);
    let bursts = (case.link == ClientLink::GilbertElliott)
        .then(|| (GilbertElliott::bursty(0.3, 3.0), DetRng::seed(case.seed)));
    let mut access = Recorded {
        inner: DirectAccess::new(&mut prober, &mut platform, INGRESS, &mut net),
        bursts,
        trace: Vec::new(),
        net_reads: Cell::new(0),
    };
    let opts = EnumerateOptions {
        probes: case.ceiling,
        redundancy: case.redundancy,
        gap: SimDuration::from_millis(20),
    };
    let start = SimTime::ZERO;
    let a = &mut access;
    let (infra, session, eps) = (&infra, &session, case.epsilon);
    let result = match (case.variant, reference) {
        (Variant::Identical, true) => {
            Counted::Fixed(reference_identical(a, infra, session, opts, start))
        }
        (Variant::Identical, false) => {
            Counted::Fixed(enumerate_identical(a, infra, session, opts, start))
        }
        (Variant::CnameFarm, true) => {
            Counted::Fixed(reference_cname_farm(a, infra, session, opts, start))
        }
        (Variant::CnameFarm, false) => {
            Counted::Fixed(enumerate_cname_farm(a, infra, session, opts, start))
        }
        (Variant::NamesHierarchy, true) => {
            Counted::Fixed(reference_names_hierarchy(a, infra, session, opts, start))
        }
        (Variant::NamesHierarchy, false) => {
            Counted::Fixed(enumerate_names_hierarchy(a, infra, session, opts, start))
        }
        (Variant::Sequential, true) => {
            let r = reference_sequential(a, infra, session, opts, eps, start);
            Counted::Sequential(r, span_events())
        }
        (Variant::Sequential, false) => {
            let r = enumerate_sequential(a, infra, session, opts, eps, start);
            Counted::Sequential(r, span_events())
        }
    };
    let reads = access.net_reads.get();
    (
        Outcome {
            result,
            trace: access.trace,
        },
        reads,
    )
}

/// Every case of the grid for one variant, each with its own seed.
fn grid(variant: Variant) -> Vec<Case> {
    let mut cases = Vec::new();
    for selector in SelectorKind::all() {
        for n in SIZES {
            for link in [
                ClientLink::Ideal,
                ClientLink::Bernoulli,
                ClientLink::GilbertElliott,
            ] {
                for redundancy in REDUNDANCY {
                    for epsilon in EPSILONS {
                        let q = query_budget(n as u64, epsilon);
                        for ceiling in [0, 1, q, 2 * q] {
                            let seed = 0x5eed_0000 + cases.len() as u64 * 4 + variant as u64;
                            cases.push(Case {
                                variant,
                                selector,
                                n,
                                link,
                                redundancy,
                                ceiling,
                                epsilon,
                                seed,
                            });
                        }
                    }
                }
            }
        }
    }
    cases
}

fn check_variant(variant: Variant) {
    let cases = grid(variant);
    for case in &cases {
        let (old, old_reads) = run(case, true);
        let (new, new_reads) = run(case, false);
        assert_eq!(new.result, old.result, "{case:?}");
        if let Counted::Sequential(_, span) = &new.result {
            assert!(span.len() >= 4, "the span went unrecorded: {case:?}");
        }
        assert!(new.trace == old.trace, "trigger traces differ: {case:?}");
        assert!(
            new_reads <= old_reads,
            "{new_reads} log reads against the reference's {old_reads}: {case:?}"
        );
    }
}

#[test]
fn the_grid_spans_ten_thousand_cases() {
    let total: usize = [
        Variant::Identical,
        Variant::CnameFarm,
        Variant::NamesHierarchy,
        Variant::Sequential,
    ]
    .into_iter()
    .map(|v| grid(v).len())
    .sum();
    assert!(total >= 10_000, "{total} cases");
}

#[test]
fn identical_matches_the_reference() {
    check_variant(Variant::Identical);
}

#[test]
fn cname_farm_matches_the_reference() {
    check_variant(Variant::CnameFarm);
}

#[test]
fn names_hierarchy_matches_the_reference() {
    check_variant(Variant::NamesHierarchy);
}

#[test]
fn sequential_matches_the_reference() {
    cde_telemetry::install_global(TelemetryHub::new(cde_telemetry::DEFAULT_RING_CAPACITY));
    check_variant(Variant::Sequential);
}
