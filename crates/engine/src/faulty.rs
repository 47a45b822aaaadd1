//! A fault-injecting wrapper any [`AccessChannel`] can wear.
//!
//! [`FaultyAccess`] interposes a [`FaultInjector`] at the trigger seam of
//! an inner channel — direct probes, SMTP-triggered lookups or ad-network
//! browsers: queries may be dropped, REFUSED or truncated before the inner
//! channel ever triggers them, and replies may be dropped, delayed or
//! mangled on the way back. The wrapper keeps the paper's cache semantics
//! honest — a query that *reached* the resolver warms its cache even when
//! the reply is lost, while a query dropped on the way out leaves the
//! cache cold — so `enumerate_*` and the planner's observed-loss feedback
//! react to injected faults exactly as they would to real ones.
//!
//! This is the hermetic chaos path (a simulator channel inside, fully
//! deterministic); the live counterpart is the fault layer inside the
//! [reactor](crate::reactor)
//! ([`ReactorConfig::faults`](crate::ReactorConfig::faults)).

use cde_core::{AccessChannel, TriggerOutcome};
use cde_dns::Name;
use cde_faults::{Direction, FaultInjector, FaultPlan, FaultStats, Verdict};
use cde_netsim::{SimDuration, SimTime};
use cde_platform::NameserverNet;
use cde_telemetry::{EventKind as TelemetryEvent, TelemetryHub};
use std::sync::Arc;
use std::time::Duration;

/// Typical size of one CDE probe datagram on the wire, used to size
/// truncation decisions (only the injector's verdict needs a length).
const NOMINAL_PROBE_LEN: usize = 64;

/// An inner [`AccessChannel`] wrapped in a [`FaultPlan`].
#[derive(Debug)]
pub struct FaultyAccess<A: AccessChannel> {
    inner: A,
    injector: FaultInjector,
    telemetry: Arc<TelemetryHub>,
    next_token: u64,
}

impl<A: AccessChannel> FaultyAccess<A> {
    /// Wraps `inner` so every probe runs the gauntlet of `plan`.
    pub fn new(inner: A, plan: &FaultPlan) -> FaultyAccess<A> {
        FaultyAccess {
            inner,
            injector: FaultInjector::new(plan),
            telemetry: cde_telemetry::global(),
            next_token: 1,
        }
    }

    /// Routes this wrapper's probe events into `hub` instead of the
    /// process-global one — chaos tests use per-run hubs so two runs of
    /// the same seed can diff their event streams.
    pub fn with_telemetry(mut self, hub: Arc<TelemetryHub>) -> FaultyAccess<A> {
        self.telemetry = hub;
        self
    }

    /// Counters of what the fault layer actually injected.
    pub fn fault_stats(&self) -> Arc<FaultStats> {
        self.injector.stats()
    }

    /// Emits the event that closes probe `token` and hands `outcome` back.
    fn settle(&self, token: u64, outcome: TriggerOutcome) -> TriggerOutcome {
        let rtt_us = match outcome {
            TriggerOutcome::Delivered { latency: Some(l) } => l.as_micros(),
            _ => 0,
        };
        let event = match outcome {
            TriggerOutcome::TimedOut => TelemetryEvent::ProbeTimedOut { token, attempts: 1 },
            // A local cache's answer closes the probe like any reply.
            _ => TelemetryEvent::ProbeMatched {
                token,
                attempt: 0,
                rtt_us,
                retransmit_ambiguous: false,
            },
        };
        self.telemetry.emit(0, event);
        outcome
    }
}

/// Injected delay of the first copy that survived truncation, if any: a
/// truncated datagram fails DNS decoding at the receiver, so only intact
/// copies count, and a dropped datagram has none.
fn intact_delay(verdict: &Verdict) -> Option<Duration> {
    match verdict {
        Verdict::Deliver(copies) => copies
            .iter()
            .find(|c| c.truncate_to.is_none())
            .map(|c| c.delay),
        Verdict::Drop(_) | Verdict::Refuse => None,
    }
}

impl<A: AccessChannel> AccessChannel for FaultyAccess<A> {
    fn trigger(&mut self, qname: &Name, now: SimTime) -> TriggerOutcome {
        let token = self.next_token;
        self.next_token += 1;
        self.telemetry
            .emit(0, TelemetryEvent::ProbeSent { token, attempt: 0 });

        let clock = Duration::from_micros(now.as_micros());
        let outbound = self
            .injector
            .decide(Direction::ClientToServer, clock, NOMINAL_PROBE_LEN);
        let outcome = match (&outbound, intact_delay(&outbound)) {
            // The resolver refuses without resolving: an answer comes
            // back, but the platform never sees the query (no cache
            // warming, no honey fetch).
            (Verdict::Refuse, _) => TriggerOutcome::Delivered {
                latency: self.inner.measures_latency().then_some(SimDuration::ZERO),
            },
            // Dropped, or every copy truncated and discarded as
            // malformed: the inner channel never triggers, the cache
            // stays cold.
            (_, None) => TriggerOutcome::TimedOut,
            // The query reached the platform: the inner channel triggers
            // it for real (warming caches), then the reply runs the
            // gauntlet. A lost or mangled reply only makes the *probe*
            // look lost — the cache is already warm.
            (_, Some(query_delay)) => match self.inner.trigger(qname, now) {
                TriggerOutcome::Delivered { latency } => {
                    let inbound =
                        self.injector
                            .decide(Direction::ServerToClient, clock, NOMINAL_PROBE_LEN);
                    match intact_delay(&inbound) {
                        None => TriggerOutcome::TimedOut,
                        Some(reply_delay) => {
                            let injected = (query_delay + reply_delay).as_micros() as u64;
                            TriggerOutcome::Delivered {
                                latency: latency
                                    .map(|l| SimDuration::from_micros(l.as_micros() + injected)),
                            }
                        }
                    }
                }
                other => other,
            },
        };
        self.settle(token, outcome)
    }

    fn net(&self) -> &NameserverNet {
        self.inner.net()
    }

    fn net_mut(&mut self) -> &mut NameserverNet {
        self.inner.net_mut()
    }

    fn measures_latency(&self) -> bool {
        self.inner.measures_latency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cde_core::{CdeInfra, DirectAccess, Session};
    use cde_faults::{DelayFault, LossFault, RateLimitAction, RateLimitFault};
    use cde_netsim::{LatencyModel, Link, LossModel};
    use cde_platform::{PlatformBuilder, ResolutionPlatform, SelectorKind};
    use cde_probers::DirectProber;
    use std::net::Ipv4Addr;

    const INGRESS: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

    /// A one-cache platform probed directly, with one planted session.
    struct World {
        prober: DirectProber,
        platform: ResolutionPlatform,
        net: NameserverNet,
        infra: CdeInfra,
        session: Session,
    }

    fn world(link: Link) -> World {
        let mut net = NameserverNet::new();
        let mut infra = CdeInfra::install(&mut net);
        let platform = PlatformBuilder::new(11)
            .ingress(vec![INGRESS])
            .egress(vec![Ipv4Addr::new(192, 0, 3, 1)])
            .cluster(1, SelectorKind::Random)
            .build();
        let session = infra.new_session(&mut net, 0);
        World {
            prober: DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), link, 11),
            platform,
            net,
            infra,
            session,
        }
    }

    impl World {
        fn direct(&mut self) -> DirectAccess<'_> {
            DirectAccess::new(&mut self.prober, &mut self.platform, INGRESS, &mut self.net)
        }

        fn honey_fetches(&self) -> usize {
            self.infra
                .count_honey_fetches(&self.net, &self.session.honey)
        }
    }

    #[test]
    fn dropped_query_times_out_without_triggering() {
        let mut w = world(Link::ideal());
        let honey = w.session.honey.clone();
        let plan = FaultPlan {
            query_loss: LossFault::Uniform { rate: 0.999 },
            ..FaultPlan::clean(2)
        };
        let mut faulty = FaultyAccess::new(w.direct(), &plan);
        assert_eq!(
            faulty.trigger(&honey, SimTime::ZERO),
            TriggerOutcome::TimedOut
        );
        assert_eq!(faulty.fault_stats().query_drops(), 1);
        drop(faulty);
        assert_eq!(
            w.honey_fetches(),
            0,
            "a dropped query must leave the cache cold"
        );
        assert_eq!(
            w.prober.sent(),
            0,
            "a dropped query must never reach the prober"
        );
    }

    #[test]
    fn dropped_reply_times_out_with_the_cache_warm() {
        let mut w = world(Link::ideal());
        let honey = w.session.honey.clone();
        let plan = FaultPlan {
            reply_loss: LossFault::Uniform { rate: 0.999 },
            ..FaultPlan::clean(3)
        };
        let mut faulty = FaultyAccess::new(w.direct(), &plan);
        assert_eq!(
            faulty.trigger(&honey, SimTime::ZERO),
            TriggerOutcome::TimedOut
        );
        assert_eq!(faulty.fault_stats().reply_drops(), 1);
        drop(faulty);
        assert_eq!(w.honey_fetches(), 1, "the query reached the platform");
        assert_eq!(w.prober.sent(), 1);
    }

    #[test]
    fn refused_query_is_delivered_but_never_reaches_the_platform() {
        let mut w = world(Link::ideal());
        let honey = w.session.honey.clone();
        // A second session's honey spends the bucket's only token.
        let spender = w.infra.new_session(&mut w.net, 0).honey;
        let plan = FaultPlan {
            rate_limit: Some(RateLimitFault {
                qps: 1.0,
                burst: 1.0,
                action: RateLimitAction::Refuse,
            }),
            ..FaultPlan::clean(4)
        };
        let mut faulty = FaultyAccess::new(w.direct(), &plan);
        assert!(faulty.trigger(&spender, SimTime::ZERO).is_delivered());
        assert_eq!(
            faulty.trigger(&honey, SimTime::ZERO),
            TriggerOutcome::Delivered {
                latency: Some(SimDuration::ZERO)
            }
        );
        assert_eq!(faulty.fault_stats().refused(), 1);
        drop(faulty);
        assert_eq!(w.honey_fetches(), 0, "REFUSED must not warm the cache");
        assert_eq!(w.prober.sent(), 1, "only the admitted query was sent");
    }

    #[test]
    fn injected_delay_inflates_measured_latency() {
        let mut bare_world = world(Link::ideal());
        let honey = bare_world.session.honey.clone();
        let bare = bare_world.direct().trigger(&honey, SimTime::ZERO);

        let mut w = world(Link::ideal());
        let plan = FaultPlan {
            delay: Some(DelayFault {
                jitter: Duration::ZERO,
                spike_rate: 1.0,
                spike: Duration::from_millis(30),
            }),
            ..FaultPlan::clean(5)
        };
        let mut faulty = FaultyAccess::new(w.direct(), &plan);
        let delayed = faulty.trigger(&honey, SimTime::ZERO);
        assert_eq!(faulty.fault_stats().delayed(), 2);
        // One spike on the query and one on the reply.
        match (bare, delayed) {
            (
                TriggerOutcome::Delivered { latency: Some(b) },
                TriggerOutcome::Delivered { latency: Some(d) },
            ) => assert_eq!(d.as_micros(), b.as_micros() + 60_000),
            other => panic!("expected two timed answers, got {other:?}"),
        }
    }

    /// Records every `(qname, now)` the wrapped channel is asked to trigger.
    struct Recording<'t, A> {
        inner: A,
        trace: &'t mut Vec<(Name, SimTime)>,
    }

    impl<A: AccessChannel> AccessChannel for Recording<'_, A> {
        fn trigger(&mut self, qname: &Name, now: SimTime) -> TriggerOutcome {
            self.trace.push((qname.clone(), now));
            self.inner.trigger(qname, now)
        }

        fn net(&self) -> &NameserverNet {
            self.inner.net()
        }

        fn net_mut(&mut self) -> &mut NameserverNet {
            self.inner.net_mut()
        }

        fn measures_latency(&self) -> bool {
            self.inner.measures_latency()
        }
    }

    #[test]
    fn clean_plan_is_transparent() {
        // A lossy link, so the bare channel's own timeouts show up too.
        let link = Link::new(LatencyModel::typical_wan(), LossModel::with_rate(0.3));
        fn probe(access: &mut impl AccessChannel, honey: &Name) -> Vec<TriggerOutcome> {
            (0..24)
                .map(|i| access.trigger(honey, SimTime::from_micros(i * 10_000)))
                .collect()
        }

        let mut bare_world = world(link.clone());
        let honey = bare_world.session.honey.clone();
        let mut bare_trace = Vec::new();
        let bare = probe(
            &mut Recording {
                inner: bare_world.direct(),
                trace: &mut bare_trace,
            },
            &honey,
        );

        let mut faulty_world = world(link);
        let mut faulty_trace = Vec::new();
        let mut faulty = FaultyAccess::new(
            Recording {
                inner: faulty_world.direct(),
                trace: &mut faulty_trace,
            },
            &FaultPlan::clean(1),
        );
        let wrapped = probe(&mut faulty, &honey);
        assert!(!faulty.fault_stats().anything_injected());
        drop(faulty);

        assert!(bare.contains(&TriggerOutcome::TimedOut));
        assert_eq!(wrapped, bare, "a clean plan must not perturb outcomes");
        assert_eq!(
            faulty_trace, bare_trace,
            "a clean plan must not perturb triggers"
        );
        assert_eq!(faulty_world.prober.sent(), bare_world.prober.sent());
    }
}
