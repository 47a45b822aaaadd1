//! Cache enumeration (paper §IV-B1a, §IV-B2, §V).
//!
//! All variants share one counting principle: probes funnel onto a single
//! *honey record* in the CDE domain, and each hidden cache fetches that
//! record from the CDE nameserver exactly once (its first miss). The
//! number of fetches `ω` observed at the nameserver is the number of
//! caches probed; with enough probes, `ω = n`.
//!
//! One sans-IO [`Enumerator`] decides when to probe, read `ω` and stop;
//! the variants drive it, each naming its probes and reading `ω`:
//!
//! * [`enumerate_identical`] — direct access: `q` identical queries for
//!   the honey name (§IV-B1a),
//! * [`enumerate_cname_farm`] — indirect access: `q` distinct aliases
//!   `x-i` CNAME-ing to the honey record bypass local caches (§IV-B2a),
//! * [`enumerate_names_hierarchy`] — indirect access: `q` distinct names
//!   in a freshly delegated subzone; the *parent* nameserver counts one
//!   referral fetch per cache (§IV-B2b),
//! * [`crate::sequential::enumerate_sequential`] — identical queries
//!   with the sequential stopping rule,
//! * [`enumerate_two_phase`] — the paper's init/validate protocol with
//!   `N` seeds run "in parallel" (§V-B).

use crate::access::AccessChannel;
use crate::infra::{CdeInfra, Session};
use crate::sequential::SequentialPlanner;
use cde_analysis::estimators::estimate_cache_count;
use cde_dns::Name;
use cde_netsim::{SimDuration, SimTime};
use cde_platform::NameserverNet;

/// Result of one enumeration run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Enumeration {
    /// Probes triggered (before carpet-bombing redundancy).
    pub probes: u64,
    /// Probes whose response (or trigger) was observed by the prober.
    pub delivered: u64,
    /// Fetches observed at the CDE nameserver — the raw cache count ω.
    pub observed: u64,
    /// Bias-corrected estimate of the cache count.
    pub estimated: u64,
}

/// Options shared by the enumeration variants.
#[derive(Debug, Clone, Copy)]
pub struct EnumerateOptions {
    /// Number of logical probes `q`.
    pub probes: u64,
    /// Carpet-bombing redundancy: each probe is triggered `k` times
    /// (§V; use [`cde_analysis::estimators::carpet_bombing_k`] to pick it
    /// from the measured loss rate).
    pub redundancy: u64,
    /// Virtual time gap between consecutive probes.
    pub gap: SimDuration,
}

impl Default for EnumerateOptions {
    fn default() -> EnumerateOptions {
        EnumerateOptions {
            probes: 64,
            redundancy: 1,
            gap: SimDuration::from_millis(20),
        }
    }
}

impl EnumerateOptions {
    /// Convenience constructor for lossless settings.
    pub fn with_probes(probes: u64) -> EnumerateOptions {
        EnumerateOptions {
            probes,
            ..EnumerateOptions::default()
        }
    }
}

/// What an [`Enumerator`] asks its driver to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Trigger probe `index` up to `copies` times, stopping at the first
    /// delivered copy, then call [`Enumerator::on_probe`].
    Probe {
        /// Zero-based probe number; the driver maps it to a name.
        index: u64,
        /// Carpet-bombing copies.
        copies: u64,
    },
    /// Read `ω` at the nameserver, then call [`Enumerator::on_count`].
    Count,
    /// The run is over.
    Done,
}

/// The counting procedure with no clock and no I/O: it owns the ceiling,
/// the copies, the stop decision and the tallies, and a driver performs
/// each [`Step`]. With no planner it is the fixed budget (every probe,
/// then one count); with a [`SequentialPlanner`] it counts after every
/// probe and stops once the rule fires or the ceiling is spent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Enumerator {
    ceiling: u64,
    copies: u64,
    planner: Option<SequentialPlanner>,
    spent: u64,
    delivered: u64,
    observed: u64,
    /// Delivery of the probe whose count the planner still awaits.
    pending: Option<bool>,
    done: bool,
}

impl Enumerator {
    /// At most `ceiling` probes of `copies` copies each; `planner` adds
    /// the sequential stopping rule.
    pub fn new(ceiling: u64, copies: u64, planner: Option<SequentialPlanner>) -> Enumerator {
        Enumerator {
            ceiling,
            copies,
            planner,
            ..Enumerator::default()
        }
    }

    /// The step to perform; the same one until it is reported.
    pub fn next(&self) -> Step {
        if self.done {
            Step::Done
        } else if self.pending.is_some() || self.spent == self.ceiling {
            Step::Count
        } else {
            Step::Probe {
                index: self.spent,
                copies: self.copies,
            }
        }
    }

    /// Reports a [`Step::Probe`]: `delivered` when any copy was answered.
    pub fn on_probe(&mut self, delivered: bool) {
        self.spent += 1;
        self.delivered += u64::from(delivered);
        self.pending = self.planner.is_some().then_some(delivered);
    }

    /// Reports a [`Step::Count`]: the nameserver's fetch count `ω`.
    pub fn on_count(&mut self, observed: u64) {
        self.observed = observed;
        if let (Some(planner), Some(delivered)) = (&mut self.planner, self.pending.take()) {
            let new_caches = observed.saturating_sub(planner.observed());
            if delivered {
                planner.record_delivered(new_caches);
            } else {
                planner.record_lost(new_caches);
            }
            self.done = planner.should_stop();
        }
        self.done |= self.spent == self.ceiling;
    }

    /// The tallies as every variant reports them; `probes` is the number
    /// spent. ω can exceed it under response loss and upstream retries,
    /// so the estimator sees ω clamped.
    pub fn enumeration(&self) -> Enumeration {
        let probes = self.spent.max(1);
        Enumeration {
            probes: self.spent,
            delivered: self.delivered,
            observed: self.observed,
            estimated: estimate_cache_count(self.observed.min(probes), probes),
        }
    }

    /// True when the stopping rule fired before the ceiling was spent.
    pub fn stopped_early(&self) -> bool {
        self.spent < self.ceiling && self.planner.as_ref().is_some_and(|p| p.should_stop())
    }

    /// The sequential planner; `None` for a fixed budget.
    pub fn planner(&self) -> Option<&SequentialPlanner> {
        self.planner.as_ref()
    }
}

/// Steps an [`Enumerator`] over `access` until it is done: probe `i` asks
/// for `name(i)` at `start + i·gap`, and `count` reads `ω`.
pub(crate) fn drive<'n, A: AccessChannel>(
    access: &mut A,
    opts: EnumerateOptions,
    planner: Option<SequentialPlanner>,
    start: SimTime,
    name: impl Fn(u64) -> &'n Name,
    count: impl Fn(&NameserverNet) -> u64,
) -> Enumerator {
    let mut machine = Enumerator::new(opts.probes, opts.redundancy, planner);
    let mut now = start;
    loop {
        match machine.next() {
            Step::Probe { index, copies } => {
                let qname = name(index);
                machine.on_probe((0..copies).any(|_| access.trigger(qname, now).is_delivered()));
                now += opts.gap;
            }
            Step::Count => machine.on_count(count(access.net())),
            Step::Done => return machine,
        }
    }
}

/// Direct enumeration: `q` identical queries for the session's honey name.
///
/// Requires direct ingress access (indirect channels would be blocked by
/// local caches after the first query; use [`enumerate_cname_farm`]).
pub fn enumerate_identical<A: AccessChannel>(
    access: &mut A,
    infra: &CdeInfra,
    session: &Session,
    opts: EnumerateOptions,
    start: SimTime,
) -> Enumeration {
    let honey = |net: &NameserverNet| infra.count_honey_fetches(net, &session.honey) as u64;
    drive(access, opts, None, start, |_| &session.honey, honey).enumeration()
}

/// Indirect enumeration via the CNAME farm: probe `q` *distinct* aliases;
/// local caches never see a repeated hostname, yet every alias converges
/// on the honey record, which each cache fetches once.
///
/// # Panics
///
/// Panics when the session's farm is smaller than `opts.probes`.
pub fn enumerate_cname_farm<A: AccessChannel>(
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
    let alias = |i: u64| &session.farm[i as usize];
    let honey = |net: &NameserverNet| infra.count_honey_fetches(net, &session.honey) as u64;
    drive(access, opts, None, start, alias, honey).enumeration()
}

/// Indirect enumeration via the names hierarchy: probe `q` distinct names
/// in the session's delegated subzone. Each cache asks the *parent*
/// nameserver for the delegation exactly once; subsequent probes landing
/// on that cache go straight to the child server.
///
/// # Panics
///
/// Panics when the session's subzone farm is smaller than `opts.probes`.
pub fn enumerate_names_hierarchy<A: AccessChannel>(
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
    let sub_name = |i: u64| &session.sub_farm[i as usize];
    let referrals = |net: &NameserverNet| infra.count_referral_fetches(net, session) as u64;
    drive(access, opts, None, start, sub_name, referrals).enumeration()
}

/// Result of the two-phase init/validate protocol (§V-B).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwoPhaseEnumeration {
    /// Caches first observed during the init phase.
    pub observed_init: u64,
    /// Additional caches first observed during the validate phase.
    pub observed_validate: u64,
    /// Validate probes answered without any nameserver fetch — evidence
    /// the seed was present in the sampled cache.
    pub validate_hits: u64,
    /// Seeds used per phase (the paper's `N`).
    pub seeds: u64,
    /// Final cache count: everything observed across both phases.
    pub total_observed: u64,
    /// Bias-corrected estimate from `2N` total probes.
    pub estimated: u64,
}

/// The paper's init/validate protocol: send `N` seed probes for the honey
/// record in rapid succession ("in parallel"), then `N` validate probes
/// checking seed presence. With `N ≥ 2n` the expected uncovered fraction
/// after init is `exp(−N/n) ≤ e⁻²`; validate catches stragglers and
/// reports the hit rate.
pub fn enumerate_two_phase<A: AccessChannel>(
    access: &mut A,
    infra: &CdeInfra,
    session: &Session,
    seeds: u64,
    start: SimTime,
) -> TwoPhaseEnumeration {
    // Init: N probes back-to-back (the paper sends them in parallel, i.e.
    // without waiting for responses; a zero gap models that).
    for _ in 0..seeds {
        let _ = access.trigger(&session.honey, start);
    }
    let observed_init = infra.count_honey_fetches(access.net(), &session.honey) as u64;

    // Validate: N more probes; a probe causing no new fetch was answered
    // from a cache that already held the seed.
    let validate_start = start + SimDuration::from_millis(50);
    let mut validate_hits = 0u64;
    let mut fetches_so_far = observed_init;
    for _ in 0..seeds {
        let _ = access.trigger(&session.honey, validate_start);
        let now_count = infra.count_honey_fetches(access.net(), &session.honey) as u64;
        if now_count == fetches_so_far {
            validate_hits += 1;
        }
        fetches_so_far = now_count;
    }
    let total_observed = fetches_so_far;
    let observed_validate = total_observed - observed_init;
    let probes = 2 * seeds;
    TwoPhaseEnumeration {
        observed_init,
        observed_validate,
        validate_hits,
        seeds,
        total_observed,
        estimated: estimate_cache_count(total_observed.min(probes.max(1)), probes.max(1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::DirectAccess;
    use cde_netsim::{DetRng, LatencyModel, Link, LossModel};
    use cde_platform::{NameserverNet, PlatformBuilder, ResolutionPlatform, SelectorKind};
    use cde_probers::DirectProber;
    use rand::Rng;
    use std::net::Ipv4Addr;

    fn world(
        caches: usize,
        selector: SelectorKind,
        seed: u64,
    ) -> (ResolutionPlatform, NameserverNet, CdeInfra) {
        let mut net = NameserverNet::new();
        let infra = CdeInfra::install(&mut net);
        let platform = PlatformBuilder::new(seed)
            .ingress(vec![Ipv4Addr::new(192, 0, 2, 1)])
            .egress((1..=4).map(|d| Ipv4Addr::new(192, 0, 3, d)).collect())
            .cluster(caches, selector)
            .build();
        (platform, net, infra)
    }

    fn direct<'a>(
        prober: &'a mut DirectProber,
        platform: &'a mut ResolutionPlatform,
        net: &'a mut NameserverNet,
    ) -> DirectAccess<'a> {
        DirectAccess::new(prober, platform, Ipv4Addr::new(192, 0, 2, 1), net)
    }

    #[test]
    fn identical_enumeration_exact_under_round_robin() {
        // §V-B: with round robin, q = n probes suffice and ω = n exactly.
        for n in [1usize, 2, 4, 8] {
            let (mut platform, mut net, mut infra) = world(n, SelectorKind::RoundRobin, n as u64);
            let session = infra.new_session(&mut net, 8);
            let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), 1);
            let mut access = direct(&mut prober, &mut platform, &mut net);
            let e = enumerate_identical(
                &mut access,
                &infra,
                &session,
                EnumerateOptions::with_probes(n as u64),
                SimTime::ZERO,
            );
            assert_eq!(e.observed, n as u64, "n={n}");
            assert_eq!(e.delivered, n as u64);
        }
    }

    #[test]
    fn identical_enumeration_converges_under_random_selection() {
        for n in [1usize, 3, 6] {
            let (mut platform, mut net, mut infra) = world(n, SelectorKind::Random, 100 + n as u64);
            let session = infra.new_session(&mut net, 8);
            let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), 2);
            let mut access = direct(&mut prober, &mut platform, &mut net);
            let q = cde_analysis::coupon::query_budget(n as u64, 0.001);
            let e = enumerate_identical(
                &mut access,
                &infra,
                &session,
                EnumerateOptions::with_probes(q),
                SimTime::ZERO,
            );
            assert_eq!(e.observed, n as u64, "n={n} with q={q}");
            assert_eq!(e.estimated, n as u64);
        }
    }

    #[test]
    fn qname_hash_selector_defeats_identical_enumeration() {
        // With a domain-hash selector all identical probes land on one
        // cache — the measurement sees exactly 1 regardless of n. This is
        // the §IV-A "complex strategies" caveat, kept as documented
        // behaviour.
        let (mut platform, mut net, mut infra) = world(6, SelectorKind::QnameHash, 9);
        let session = infra.new_session(&mut net, 8);
        let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), 3);
        let mut access = direct(&mut prober, &mut platform, &mut net);
        let e = enumerate_identical(
            &mut access,
            &infra,
            &session,
            EnumerateOptions::with_probes(64),
            SimTime::ZERO,
        );
        assert_eq!(e.observed, 1);
    }

    #[test]
    fn cname_farm_enumeration_matches_identical() {
        for n in [2usize, 5] {
            let (mut platform, mut net, mut infra) = world(n, SelectorKind::Random, 200 + n as u64);
            let session = infra.new_session(&mut net, 128);
            let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), 4);
            let mut access = direct(&mut prober, &mut platform, &mut net);
            let q = cde_analysis::coupon::query_budget(n as u64, 0.001);
            let e = enumerate_cname_farm(
                &mut access,
                &infra,
                &session,
                EnumerateOptions::with_probes(q),
                SimTime::ZERO,
            );
            assert_eq!(e.observed, n as u64, "n={n}");
        }
    }

    #[test]
    fn cname_farm_beats_qname_hash() {
        // Distinct aliases spread over a qname-hash balancer DO cover all
        // caches — the farm technique is strictly stronger here.
        let (mut platform, mut net, mut infra) = world(6, SelectorKind::QnameHash, 10);
        let session = infra.new_session(&mut net, 256);
        let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), 5);
        let mut access = direct(&mut prober, &mut platform, &mut net);
        let e = enumerate_cname_farm(
            &mut access,
            &infra,
            &session,
            EnumerateOptions::with_probes(128),
            SimTime::ZERO,
        );
        assert_eq!(e.observed, 6);
    }

    #[test]
    fn names_hierarchy_counts_referrals_at_parent() {
        for n in [1usize, 4] {
            let (mut platform, mut net, mut infra) = world(n, SelectorKind::Random, 300 + n as u64);
            let session = infra.new_session(&mut net, 128);
            let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), 6);
            let mut access = direct(&mut prober, &mut platform, &mut net);
            let q = cde_analysis::coupon::query_budget(n as u64, 0.001);
            let e = enumerate_names_hierarchy(
                &mut access,
                &infra,
                &session,
                EnumerateOptions::with_probes(q),
                SimTime::ZERO,
            );
            assert_eq!(e.observed, n as u64, "n={n}");
        }
    }

    #[test]
    fn two_phase_covers_and_validates() {
        let n = 5usize;
        let (mut platform, mut net, mut infra) = world(n, SelectorKind::Random, 42);
        let session = infra.new_session(&mut net, 8);
        let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), 7);
        let mut access = direct(&mut prober, &mut platform, &mut net);
        let seeds = 4 * n as u64; // N = 4n → uncovered ≈ e⁻⁴ ≈ 1.8%
        let r = enumerate_two_phase(&mut access, &infra, &session, seeds, SimTime::ZERO);
        assert_eq!(r.total_observed, n as u64);
        assert_eq!(r.observed_init + r.observed_validate, r.total_observed);
        // Most validate probes must be hits once the caches are seeded.
        assert!(
            r.validate_hits >= seeds - n as u64,
            "hits {} of {seeds}",
            r.validate_hits
        );
        assert_eq!(r.estimated, n as u64);
    }

    #[test]
    fn carpet_bombing_recovers_lossy_enumeration() {
        let n = 4usize;
        // 11% client-side loss (Iran profile).
        let lossy_link = Link::new(
            LatencyModel::Constant(SimDuration::from_millis(10)),
            LossModel::with_rate(0.11),
        );
        let trials = 12;
        let mut plain_wrong = 0;
        let mut carpet_wrong = 0;
        for t in 0..trials {
            // Without redundancy.
            let (mut platform, mut net, mut infra) = world(n, SelectorKind::Random, 900 + t);
            let session = infra.new_session(&mut net, 8);
            let mut prober =
                DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), lossy_link.clone(), 70 + t);
            let mut access = direct(&mut prober, &mut platform, &mut net);
            let e = enumerate_identical(
                &mut access,
                &infra,
                &session,
                EnumerateOptions {
                    probes: 24,
                    redundancy: 1,
                    gap: SimDuration::from_millis(20),
                },
                SimTime::ZERO,
            );
            if e.observed != n as u64 {
                plain_wrong += 1;
            }
            // With K chosen from the loss rate.
            let (mut platform, mut net, mut infra) = world(n, SelectorKind::Random, 950 + t);
            let session = infra.new_session(&mut net, 8);
            let mut prober =
                DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), lossy_link.clone(), 80 + t);
            let mut access = direct(&mut prober, &mut platform, &mut net);
            let k = cde_analysis::estimators::carpet_bombing_k(0.11, 0.001);
            let e = enumerate_identical(
                &mut access,
                &infra,
                &session,
                EnumerateOptions {
                    probes: 24,
                    redundancy: k,
                    gap: SimDuration::from_millis(20),
                },
                SimTime::ZERO,
            );
            if e.observed != n as u64 {
                carpet_wrong += 1;
            }
        }
        assert!(
            carpet_wrong <= plain_wrong,
            "carpet {carpet_wrong} vs plain {plain_wrong}"
        );
        assert!(
            carpet_wrong <= 2,
            "carpet bombing still wrong {carpet_wrong}/{trials}"
        );
    }

    #[test]
    fn estimator_corrects_underprobed_runs() {
        // Deliberately too few probes: ω < n but the estimate moves closer.
        let n = 12usize;
        let mut rng = DetRng::seed(5);
        let mut raw_err = 0i64;
        let mut est_err = 0i64;
        for t in 0..10 {
            let (mut platform, mut net, mut infra) =
                world(n, SelectorKind::Random, 500 + t + rng.gen::<u8>() as u64);
            let session = infra.new_session(&mut net, 8);
            let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), 8 + t);
            let mut access = direct(&mut prober, &mut platform, &mut net);
            let e = enumerate_identical(
                &mut access,
                &infra,
                &session,
                EnumerateOptions::with_probes(n as u64),
                SimTime::ZERO,
            );
            raw_err += (n as i64 - e.observed as i64).abs();
            est_err += (n as i64 - e.estimated as i64).abs();
        }
        assert!(est_err <= raw_err, "estimated {est_err} vs raw {raw_err}");
    }

    /// Drives `machine` to the end with every probe delivered and `ω = 1`
    /// once any probe went out; returns the steps and the final state.
    fn steps(mut machine: Enumerator) -> (Vec<Step>, Enumerator) {
        let mut seen = Vec::new();
        loop {
            let step = machine.next();
            seen.push(step);
            match step {
                Step::Probe { .. } => machine.on_probe(true),
                Step::Count => machine.on_count(machine.enumeration().probes.min(1)),
                Step::Done => return (seen, machine),
            }
        }
    }

    fn probe(index: u64, copies: u64) -> Step {
        Step::Probe { index, copies }
    }

    #[test]
    fn fixed_budget_probes_q_times_then_counts_once() {
        let (seen, end) = steps(Enumerator::new(4, 3, None));
        let mut want: Vec<Step> = (0..4).map(|i| probe(i, 3)).collect();
        want.extend([Step::Count, Step::Done]);
        assert_eq!(seen, want);
        assert_eq!(end.enumeration().probes, 4);
        assert!(!end.stopped_early());
    }

    #[test]
    fn zero_ceiling_counts_then_ends() {
        for planner in [None, Some(SequentialPlanner::new(0.01))] {
            let (seen, end) = steps(Enumerator::new(0, 1, planner));
            assert_eq!(seen, [Step::Count, Step::Done]);
            assert_eq!(end.enumeration().probes, 0);
            assert!(!end.stopped_early());
        }
    }

    #[test]
    fn a_stop_on_the_last_allowed_probe_is_not_early() {
        // ε = 0.5: one cache, then one quiet delivered probe, fires the
        // rule on the second probe.
        for (ceiling, early) in [(2, false), (3, true)] {
            let planner = Some(SequentialPlanner::new(0.5));
            let (seen, end) = steps(Enumerator::new(ceiling, 1, planner));
            let want = [probe(0, 1), Step::Count, probe(1, 1), Step::Count];
            assert_eq!(seen[..4], want);
            assert_eq!(seen[4..], [Step::Done]);
            assert_eq!(end.stopped_early(), early, "ceiling {ceiling}");
            assert!(end.planner().is_some_and(SequentialPlanner::should_stop));
        }
    }

    #[test]
    #[should_panic(expected = "farm")]
    fn farm_smaller_than_probes_panics() {
        let (mut platform, mut net, mut infra) = world(2, SelectorKind::Random, 1);
        let session = infra.new_session(&mut net, 2);
        let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), 9);
        let mut access = direct(&mut prober, &mut platform, &mut net);
        enumerate_cname_farm(
            &mut access,
            &infra,
            &session,
            EnumerateOptions::with_probes(10),
            SimTime::ZERO,
        );
    }
}
