//! Property-based tests for the sequential stopping planner: the rule
//! may only fire when the exact-count criterion holds, for *any*
//! interleaving of delivered, lost and cache-revealing probes — and the
//! [`Enumerator`] that carries it stops exactly where the planner does.

use cde_core::access::DirectAccess;
use cde_core::enumerate::EnumerateOptions;
use cde_core::{enumerate_sequential, CdeInfra, Enumerator, SequentialPlanner, Step};
use cde_netsim::{Link, SimTime};
use cde_platform::{NameserverNet, PlatformBuilder, SelectorKind};
use cde_probers::DirectProber;
use proptest::prelude::*;
use std::net::Ipv4Addr;

const INGRESS: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

/// One recorded probe: was it delivered, and how many first-time cache
/// fetches did it cause.
fn event() -> impl Strategy<Value = (bool, u64)> {
    // The vendored proptest rejects weighted `prop_oneof` arms, so the
    // mix is shaped by repeating arms: mostly quiet delivered probes,
    // some losses, occasional new-cache evidence.
    prop_oneof![
        Just((true, 0)),
        Just((true, 0)),
        Just((true, 0)),
        Just((true, 0)),
        Just((false, 0)),
        Just((false, 0)),
        Just((true, 1)),
        Just((false, 1)),
        Just((true, 2)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After every recorded event, `should_stop` is *exactly* the
    /// criterion: at least one cache observed and a quiet run of at
    /// least `required_quiet` delivered probes, i.e. the miss
    /// probability under the worst-case alternative is at most ε.
    /// In particular the rule never fires a single probe early.
    #[test]
    fn stopping_rule_is_exactly_the_criterion(
        events in proptest::collection::vec(event(), 1..400),
        eps_millis in 1u64..500,
    ) {
        let epsilon = eps_millis as f64 / 1000.0;
        let mut p = SequentialPlanner::new(epsilon);
        for (delivered, new_caches) in events {
            if delivered {
                p.record_delivered(new_caches);
            } else {
                p.record_lost(new_caches);
            }
            let criterion = p.observed() >= 1
                && p.consecutive_quiet() >= p.required_quiet();
            prop_assert_eq!(
                p.should_stop(),
                criterion,
                "omega={} quiet={} need={} miss={}",
                p.observed(), p.consecutive_quiet(), p.required_quiet(), p.miss_probability()
            );
            if p.should_stop() {
                prop_assert!(p.miss_probability() <= epsilon);
            } else if p.observed() >= 1 {
                // One quiet probe short must leave the rule unfired.
                prop_assert!(p.miss_probability() > epsilon
                    || p.consecutive_quiet() >= p.required_quiet());
            }
        }
    }

    /// The same streams fed through an [`Enumerator`] with a ceiling: it
    /// asks for a count after every probe, is `Done` exactly at the first
    /// event where the planner's rule holds or at the ceiling, never
    /// probes again after that, spends at most the ceiling, and reports
    /// `stopped_early` exactly when the rule fired before the ceiling.
    #[test]
    fn enumerator_stops_exactly_where_the_planner_does(
        events in proptest::collection::vec(event(), 1..400),
        eps_millis in 1u64..500,
        ceiling in 0u64..400,
        copies in 1u64..4,
    ) {
        let epsilon = eps_millis as f64 / 1000.0;
        let mut machine = Enumerator::new(ceiling, copies, Some(SequentialPlanner::new(epsilon)));
        let mut planner = SequentialPlanner::new(epsilon);
        let mut omega = 0u64;
        if ceiling == 0 {
            prop_assert_eq!(machine.next(), Step::Count);
            machine.on_count(0);
        }
        for (i, &(delivered, new_caches)) in events.iter().enumerate() {
            if machine.next() == Step::Done {
                break;
            }
            prop_assert_eq!(machine.next(), Step::Probe { index: i as u64, copies });
            machine.on_probe(delivered);
            prop_assert_eq!(machine.next(), Step::Count);
            omega += new_caches;
            machine.on_count(omega);
            if delivered {
                planner.record_delivered(new_caches);
            } else {
                planner.record_lost(new_caches);
            }
            let ends = planner.should_stop() || i as u64 + 1 == ceiling;
            prop_assert_eq!(machine.next() == Step::Done, ends, "event {}", i);
        }
        let spent = machine.enumeration().probes;
        prop_assert!(spent <= ceiling);
        prop_assert_eq!(machine.planner(), Some(&planner));
        prop_assert_eq!(machine.stopped_early(), planner.should_stop() && spent < ceiling);
        if machine.next() == Step::Done {
            machine.on_count(omega);
            prop_assert_eq!(machine.next(), Step::Done, "a stray count reopened the run");
        }
    }

    /// Loss alone never drives the planner to stop, no matter how long
    /// the campaign runs: only delivered probes carry evidence.
    #[test]
    fn pure_loss_never_stops(
        losses in 1u64..5_000,
        eps_millis in 1u64..500,
    ) {
        let mut p = SequentialPlanner::new(eps_millis as f64 / 1000.0);
        p.record_delivered(1);
        for _ in 0..losses {
            p.record_lost(0);
        }
        prop_assert_eq!(p.consecutive_quiet(), 0);
        prop_assert!(!p.should_stop());
    }

    /// The snapshot line round-trips the planner exactly at any point in
    /// a campaign, so checkpoint/resume preserves the stopping decision.
    #[test]
    fn snapshot_round_trips_mid_campaign(
        events in proptest::collection::vec(event(), 0..200),
        eps_millis in 1u64..500,
    ) {
        let mut p = SequentialPlanner::new(eps_millis as f64 / 1000.0);
        for (delivered, new_caches) in events {
            if delivered {
                p.record_delivered(new_caches);
            } else {
                p.record_lost(new_caches);
            }
        }
        let parsed = SequentialPlanner::from_snapshot_line(&p.snapshot_line());
        prop_assert_eq!(parsed.as_ref(), Some(&p));
        if let Some(parsed) = parsed {
            prop_assert_eq!(parsed.should_stop(), p.should_stop());
            prop_assert_eq!(parsed.required_quiet(), p.required_quiet());
        }
    }

    /// End to end on a lossless platform: the sequential run recovers
    /// the exact hidden count whenever it stops early (ε = 10⁻⁵ keeps
    /// the 256-case flake budget negligible).
    #[test]
    fn early_stop_preserves_exactness(
        n in 1usize..10,
        seed in 0u64..10_000,
    ) {
        let mut net = NameserverNet::new();
        let mut infra = CdeInfra::install(&mut net);
        let mut platform = PlatformBuilder::new(seed)
            .ingress(vec![INGRESS])
            .egress(vec![Ipv4Addr::new(192, 0, 3, 1)])
            .cluster(n, SelectorKind::Random)
            .build();
        let session = infra.new_session(&mut net, 0);
        let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), seed);
        let mut access = DirectAccess::new(&mut prober, &mut platform, INGRESS, &mut net);
        let budget = cde_analysis::coupon::query_budget(n as u64, 1e-5);
        let r = enumerate_sequential(
            &mut access,
            &infra,
            &session,
            EnumerateOptions::with_probes(budget),
            1e-5,
            SimTime::ZERO,
        );
        prop_assert_eq!(r.enumeration.observed, n as u64);
        prop_assert!(r.enumeration.probes <= budget);
        prop_assert_eq!(r.planner.observed(), r.enumeration.observed);
    }
}
