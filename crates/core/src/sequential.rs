//! Sequential stopping for exact-count enumeration (§V-B, sharpened).
//!
//! The fixed-`q` plans in [`crate::planner`] budget for the coupon
//! collector's worst case up front: `q = query_budget(n_max, eps)` probes
//! are spent even when the platform turns out to hold two caches that
//! answered within the first dozen probes. This module closes that gap
//! with a *sequential probability ratio* flavour of the same guarantee:
//! keep probing while the evidence is still consistent with an uncounted
//! cache, stop the moment it is not.
//!
//! The test is against the worst-case alternative. Suppose the true count
//! were `n = ω + 1` where `ω` is the number of distinct caches observed
//! so far. Under uniform cache selection every *delivered* probe lands on
//! the unseen cache with probability `1/(ω+1)`, so a run of `c`
//! consecutive delivered probes revealing nothing new has probability at
//! most `(ω/(ω+1))^c`. Once that drops below `ε`, the hypothesis "at
//! least one cache remains" is rejected at level `ε` — and every `n > ω+1`
//! is rejected a fortiori, because a larger pool makes a quiet run even
//! less likely per remaining cache count. Only delivered probes count:
//! a lost probe says nothing about coverage, so it never advances the
//! quiet run (bursty loss cannot fake convergence).

use crate::access::AccessChannel;
use crate::enumerate::{drive, EnumerateOptions, Enumeration};
use crate::infra::{CdeInfra, Observer, Session};
use cde_netsim::SimTime;

/// Sequential stopping rule over distinct-cache evidence.
///
/// Feed it one call per logical probe —
/// [`record_delivered`](SequentialPlanner::record_delivered) when any copy of the probe
/// produced a response, [`record_lost`](SequentialPlanner::record_lost)
/// otherwise — with the number of *new* nameserver fetches the probe
/// caused. [`should_stop`](SequentialPlanner::should_stop) turns true as
/// soon as the exact-count criterion holds.
#[derive(Debug, Clone, PartialEq)]
pub struct SequentialPlanner {
    /// Residual failure probability `ε`: the chance the rule stops while
    /// a cache is still uncounted.
    epsilon: f64,
    /// Distinct caches observed so far (`ω`).
    omega: u64,
    /// Consecutive delivered probes since the last new cache.
    consecutive: u64,
    /// Logical probes recorded in total.
    probes: u64,
    /// Recorded probes that were delivered.
    delivered: u64,
}

impl SequentialPlanner {
    /// Creates a planner with residual failure probability `epsilon`.
    ///
    /// # Panics
    ///
    /// Panics when `epsilon` is outside `(0, 1)`.
    pub fn new(epsilon: f64) -> SequentialPlanner {
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "epsilon must be in (0, 1), got {epsilon}"
        );
        SequentialPlanner {
            epsilon,
            omega: 0,
            consecutive: 0,
            probes: 0,
            delivered: 0,
        }
    }

    /// Records a delivered probe that caused `new_caches` first-time
    /// fetches at the nameserver. Zero extends the quiet run; anything
    /// positive restarts it.
    pub fn record_delivered(&mut self, new_caches: u64) {
        self.probes += 1;
        self.delivered += 1;
        self.omega += new_caches;
        if new_caches > 0 {
            self.consecutive = 0;
        } else {
            self.consecutive += 1;
        }
    }

    /// Records a lost probe. Loss is uninformative about coverage, so the
    /// quiet run does not advance — but if the probe still caused fetches
    /// (query delivered, response lost), the new evidence restarts it.
    pub fn record_lost(&mut self, new_caches: u64) {
        self.probes += 1;
        self.omega += new_caches;
        if new_caches > 0 {
            self.consecutive = 0;
        }
    }

    /// Adds `new_caches` to `ω` and restarts the quiet run without
    /// recording a probe: evidence a batched count cannot tie to one.
    pub(crate) fn restart(&mut self, new_caches: u64) {
        self.omega += new_caches;
        self.consecutive = 0;
    }

    /// Distinct caches observed so far (`ω`).
    pub fn observed(&self) -> u64 {
        self.omega
    }

    /// Residual failure probability the planner was built with.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Logical probes recorded.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Recorded probes that were delivered.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Delivered probes since the last new cache.
    pub fn consecutive_quiet(&self) -> u64 {
        self.consecutive
    }

    /// Probability of the current quiet run under the worst-case
    /// alternative `n = ω + 1`: `(ω/(ω+1))^consecutive`. This is `1.0`
    /// until at least one cache has been observed.
    pub fn miss_probability(&self) -> f64 {
        if self.omega == 0 {
            return 1.0;
        }
        let ratio = self.omega as f64 / (self.omega + 1) as f64;
        ratio.powf(self.consecutive as f64)
    }

    /// Smallest quiet run that satisfies the criterion at the current
    /// `ω`: `⌈ln ε / ln(ω/(ω+1))⌉`, roughly `(ω+1)·ln(1/ε)`. Returns
    /// `u64::MAX` while no cache has been observed (the rule can never
    /// fire on an empty record).
    pub fn required_quiet(&self) -> u64 {
        if self.omega == 0 {
            return u64::MAX;
        }
        let ratio = self.omega as f64 / (self.omega + 1) as f64;
        let quiet = (self.epsilon.ln() / ratio.ln()).ceil();
        if quiet >= u64::MAX as f64 {
            u64::MAX
        } else {
            (quiet as u64).max(1)
        }
    }

    /// True once the exact-count criterion holds: at least one cache
    /// observed and `miss_probability() ≤ ε`.
    pub fn should_stop(&self) -> bool {
        self.omega >= 1 && self.miss_probability() <= self.epsilon
    }

    /// Serializes the planner as one `seqplan key=value ...` line for
    /// versioned checkpoint files;
    /// [`SequentialPlanner::from_snapshot_line`] round-trips it exactly
    /// (`epsilon` uses shortest-round-trip float formatting).
    pub fn snapshot_line(&self) -> String {
        format!(
            "seqplan epsilon={} omega={} consecutive={} probes={} delivered={}",
            self.epsilon, self.omega, self.consecutive, self.probes, self.delivered
        )
    }

    /// Parses a line written by [`SequentialPlanner::snapshot_line`].
    /// Returns `None` on malformed input and on states no run reaches
    /// (`delivered > probes` or `consecutive > delivered`); unknown keys
    /// are ignored so newer writers stay readable by older parsers.
    pub fn from_snapshot_line(line: &str) -> Option<SequentialPlanner> {
        let mut fields = line.split_whitespace();
        if fields.next() != Some("seqplan") {
            return None;
        }
        let (mut epsilon, mut omega, mut consecutive, mut probes, mut delivered) =
            (None, None, None, None, None);
        for field in fields {
            let (key, value) = field.split_once('=')?;
            match key {
                "epsilon" => epsilon = Some(value.parse().ok()?),
                "omega" => omega = Some(value.parse().ok()?),
                "consecutive" => consecutive = Some(value.parse().ok()?),
                "probes" => probes = Some(value.parse().ok()?),
                "delivered" => delivered = Some(value.parse().ok()?),
                _ => {}
            }
        }
        let epsilon: f64 = epsilon?;
        let (consecutive, probes, delivered): (u64, u64, u64) = (consecutive?, probes?, delivered?);
        // `record_*` keeps consecutive ≤ delivered ≤ probes; anything else
        // is a corrupt file, which would break a resumed tally.
        if !(epsilon > 0.0 && epsilon < 1.0) || delivered > probes || consecutive > delivered {
            return None;
        }
        Some(SequentialPlanner {
            epsilon,
            omega: omega?,
            consecutive,
            probes,
            delivered,
        })
    }
}

/// Result of a sequential enumeration run.
#[derive(Debug, Clone, PartialEq)]
pub struct SequentialEnumeration {
    /// Counts in the shape every other variant reports; `probes` is the
    /// number actually spent, not the budget.
    pub enumeration: Enumeration,
    /// True when the stopping rule fired before the probe budget ran out.
    pub stopped_early: bool,
    /// Final planner state (for checkpointing and inspection).
    pub planner: SequentialPlanner,
}

/// Direct enumeration with sequential stopping: identical honey probes as
/// [`crate::enumerate::enumerate_identical`], but the
/// [`Enumerator`](crate::enumerate::Enumerator) carries a planner, so the
/// nameserver's fetch count is polled after every probe and the campaign
/// ends as soon as [`SequentialPlanner::should_stop`] fires —
/// `opts.probes` is a budget ceiling, not a spend target.
///
/// Exactness is preserved: the rule only stops once an uncounted cache is
/// ruled out at level `epsilon`, so the count matches the exhaustive run
/// with probability at least `1 − ε` while typically spending far fewer
/// probes.
pub fn enumerate_sequential<A: AccessChannel>(
    access: &mut A,
    infra: &CdeInfra,
    session: &Session,
    opts: EnumerateOptions,
    epsilon: f64,
    start: SimTime,
) -> SequentialEnumeration {
    let span = cde_telemetry::global().begin_campaign("enumerate_sequential", opts.probes);
    let rule = Some(SequentialPlanner::new(epsilon));
    let count = (&mut infra.observer(session), Observer::honey_fetches);
    let machine = drive(access, opts, rule, start, |_| &session.honey, count);
    let planner = machine.planner().cloned();
    let r = SequentialEnumeration {
        enumeration: machine.enumeration(),
        stopped_early: machine.stopped_early(),
        planner: planner.expect("a sequential run keeps its planner"),
    };
    span.note("observed_caches", r.enumeration.observed);
    span.note("stopped_early", r.stopped_early as u64);
    let (spent, delivered) = (r.enumeration.probes, r.enumeration.delivered);
    span.end(spent, delivered, spent - delivered);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::DirectAccess;
    use cde_analysis::coupon::query_budget;
    use cde_netsim::{LatencyModel, Link, LossModel, SimDuration};
    use cde_platform::{NameserverNet, PlatformBuilder, ResolutionPlatform, SelectorKind};
    use cde_probers::DirectProber;
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

    #[test]
    fn criterion_matches_required_quiet_exactly() {
        // should_stop must flip exactly when the quiet run reaches
        // required_quiet, never a probe earlier.
        let mut p = SequentialPlanner::new(0.001);
        p.record_delivered(1);
        p.record_delivered(1);
        p.record_delivered(1); // ω = 3
        let need = p.required_quiet();
        for i in 0..need {
            assert!(!p.should_stop(), "stopped after {i} of {need} quiet probes");
            p.record_delivered(0);
        }
        assert!(p.should_stop());
        assert!(p.miss_probability() <= 0.001);
    }

    #[test]
    fn required_quiet_tracks_omega() {
        // ⌈ln ε / ln(ω/(ω+1))⌉ ≈ (ω+1)·ln(1/ε): more caches need longer
        // quiet runs, and the planner can never stop at ω = 0.
        let p = SequentialPlanner::new(0.001);
        assert_eq!(p.required_quiet(), u64::MAX);
        assert!(!p.should_stop());
        let mut prev = 0u64;
        for omega in 1..=16u64 {
            let mut p = SequentialPlanner::new(0.001);
            p.record_delivered(omega);
            let need = p.required_quiet();
            assert!(need > prev, "quiet must grow with omega");
            // 1/(ω+1) ≤ ln(1+1/ω) ≤ 1/ω brackets the exact requirement
            // between ω·ln(1/ε) and (ω+1)·ln(1/ε).
            let lo = (omega as f64 * 1000f64.ln()).floor() as u64;
            let hi = ((omega + 1) as f64 * 1000f64.ln()).ceil() as u64;
            assert!(
                (lo..=hi).contains(&need),
                "omega={omega}: exact {need} outside [{lo}, {hi}]"
            );
            prev = need;
        }
    }

    #[test]
    fn lost_probes_never_advance_the_quiet_run() {
        let mut p = SequentialPlanner::new(0.01);
        p.record_delivered(1);
        for _ in 0..10_000 {
            p.record_lost(0);
        }
        assert_eq!(p.consecutive_quiet(), 0);
        assert!(!p.should_stop(), "pure loss must not fake convergence");
    }

    #[test]
    fn new_cache_restarts_the_quiet_run() {
        let mut p = SequentialPlanner::new(0.001);
        p.record_delivered(1);
        for _ in 0..5 {
            p.record_delivered(0);
        }
        assert_eq!(p.consecutive_quiet(), 5);
        p.record_delivered(1);
        assert_eq!(p.consecutive_quiet(), 0);
        // Evidence on a lost probe (response lost, query delivered) also
        // restarts it.
        for _ in 0..5 {
            p.record_delivered(0);
        }
        p.record_lost(1);
        assert_eq!(p.consecutive_quiet(), 0);
        assert_eq!(p.observed(), 3);
    }

    #[test]
    fn sequential_enumeration_is_exact_and_cheaper() {
        for n in [1usize, 3, 6, 12] {
            let (mut platform, mut net, mut infra) = world(n, SelectorKind::Random, 40 + n as u64);
            let session = infra.new_session(&mut net, 8);
            let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), 1);
            let mut access = DirectAccess::new(
                &mut prober,
                &mut platform,
                Ipv4Addr::new(192, 0, 2, 1),
                &mut net,
            );
            let budget = query_budget(n as u64, 0.001);
            let r = enumerate_sequential(
                &mut access,
                &infra,
                &session,
                EnumerateOptions::with_probes(budget),
                0.001,
                SimTime::ZERO,
            );
            assert_eq!(r.enumeration.observed, n as u64, "n={n}");
            assert_eq!(r.planner.observed(), n as u64);
            assert!(
                r.enumeration.probes <= budget,
                "n={n}: spent {} of {budget}",
                r.enumeration.probes
            );
        }
    }

    #[test]
    fn sequential_enumeration_stays_exact_under_loss() {
        // 20% loss each way: lost probes must not shorten the campaign
        // into an undercount.
        let lossy = Link::new(
            LatencyModel::Constant(SimDuration::from_millis(5)),
            LossModel::with_rate(0.2),
        );
        let n = 5usize;
        let mut exact = 0;
        for t in 0..8u64 {
            let (mut platform, mut net, mut infra) = world(n, SelectorKind::Random, 700 + t);
            let session = infra.new_session(&mut net, 8);
            let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), lossy.clone(), t);
            let mut access = DirectAccess::new(
                &mut prober,
                &mut platform,
                Ipv4Addr::new(192, 0, 2, 1),
                &mut net,
            );
            let r = enumerate_sequential(
                &mut access,
                &infra,
                &session,
                EnumerateOptions {
                    probes: 4 * query_budget(n as u64, 0.001),
                    redundancy: 2,
                    gap: SimDuration::from_millis(10),
                },
                0.001,
                SimTime::ZERO,
            );
            if r.enumeration.observed == n as u64 {
                exact += 1;
            }
        }
        assert!(exact >= 7, "exact in {exact}/8 lossy runs");
    }

    #[test]
    fn snapshot_line_round_trips_exactly() {
        let mut p = SequentialPlanner::new(0.012_345_678_9);
        p.record_delivered(3);
        p.record_delivered(0);
        p.record_lost(0);
        p.record_delivered(1);
        let line = p.snapshot_line();
        let parsed = SequentialPlanner::from_snapshot_line(&line)
            .unwrap_or_else(|| panic!("unparseable: {line}"));
        assert_eq!(parsed, p, "line {line}");
    }

    #[test]
    fn snapshot_line_rejects_malformed_input() {
        assert!(SequentialPlanner::from_snapshot_line("").is_none());
        assert!(SequentialPlanner::from_snapshot_line("seqplan").is_none());
        assert!(SequentialPlanner::from_snapshot_line("plan epsilon=0.1").is_none());
        assert!(
            SequentialPlanner::from_snapshot_line(
                "seqplan epsilon=0.1 omega=1 consecutive=2 probes=3"
            )
            .is_none(),
            "missing delivered"
        );
        assert!(
            SequentialPlanner::from_snapshot_line(
                "seqplan epsilon=2.0 omega=1 consecutive=2 probes=3 delivered=3"
            )
            .is_none(),
            "epsilon out of range"
        );
        assert!(
            SequentialPlanner::from_snapshot_line(
                "seqplan epsilon=0.1 omega=1 consecutive=2 probes=3 delivered=4"
            )
            .is_none(),
            "more delivered than probed"
        );
        assert!(
            SequentialPlanner::from_snapshot_line(
                "seqplan epsilon=0.1 omega=1 consecutive=3 probes=3 delivered=2"
            )
            .is_none(),
            "a quiet run longer than the delivered probes"
        );
        // Unknown keys are tolerated for forward compatibility.
        let line = "seqplan epsilon=0.001 omega=4 consecutive=9 probes=20 delivered=18 future=1";
        assert!(SequentialPlanner::from_snapshot_line(line).is_some());
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn zero_epsilon_rejected() {
        SequentialPlanner::new(0.0);
    }
}
