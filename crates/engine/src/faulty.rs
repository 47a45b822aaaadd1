//! A fault-injecting wrapper any [`Transport`] can wear.
//!
//! [`FaultyTransport`] interposes a [`FaultInjector`] at the query/reply
//! seam of an inner transport: queries may be dropped, REFUSED or
//! truncated before the inner transport ever sees them, and replies may
//! be dropped, delayed or mangled on the way back. The wrapper keeps the
//! paper's cache semantics honest — a query that *reached* the resolver
//! warms its cache even when the reply is lost, while a query dropped on
//! the way out leaves the cache cold — so `enumerate_*` and the planner's
//! observed-loss feedback react to injected faults exactly as they would
//! to real ones.
//!
//! This is the hermetic chaos path ([`SimTransport`](crate::SimTransport)
//! inside, fully deterministic); the live counterpart is the fault layer
//! inside the [reactor](crate::reactor)
//! ([`ReactorConfig::faults`](crate::ReactorConfig::faults)).

use crate::metrics::EngineMetrics;
use crate::transport::{Transport, TransportReply};
use cde_core::AccessProvider;
use cde_dns::{Name, Rcode, RecordType};
use cde_faults::{Delivery, Direction, FaultInjector, FaultPlan, FaultStats, Verdict};
use cde_netsim::{SimDuration, SimTime};
use cde_platform::NameserverNet;
use cde_telemetry::{EventKind as TelemetryEvent, TelemetryHub};
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

/// Typical size of one CDE probe datagram on the wire, used to size
/// truncation decisions (the inner transport encodes for real; only the
/// injector's verdict needs a length).
const NOMINAL_PROBE_LEN: usize = 64;

/// An inner [`Transport`] wrapped in a [`FaultPlan`].
#[derive(Debug)]
pub struct FaultyTransport<T: Transport> {
    inner: T,
    injector: FaultInjector,
    metrics: Arc<EngineMetrics>,
    telemetry: Arc<TelemetryHub>,
    next_token: u64,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner` so every probe runs the gauntlet of `plan`.
    pub fn new(inner: T, plan: &FaultPlan) -> FaultyTransport<T> {
        FaultyTransport {
            inner,
            injector: FaultInjector::new(plan),
            metrics: Arc::new(EngineMetrics::new()),
            telemetry: cde_telemetry::global(),
            next_token: 1,
        }
    }

    /// Routes this wrapper's probe events into `hub` instead of the
    /// process-global one — chaos tests use per-run hubs so two runs of
    /// the same seed can diff their event streams.
    pub fn with_telemetry(mut self, hub: Arc<TelemetryHub>) -> FaultyTransport<T> {
        self.telemetry = hub;
        self
    }

    /// Counters of what the fault layer actually injected.
    pub fn fault_stats(&self) -> Arc<FaultStats> {
        self.injector.stats()
    }

    /// The plan seed — print it when a chaos assertion fails.
    pub fn seed(&self) -> u64 {
        self.injector.seed()
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Unwraps back to the inner transport.
    pub fn into_inner(self) -> T {
        self.inner
    }

    fn fresh_token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    fn timed_out(&self, token: u64) -> TransportReply {
        self.metrics.record_timeout();
        self.telemetry
            .emit(0, TelemetryEvent::ProbeTimedOut { token, attempts: 1 });
        TransportReply::TimedOut
    }

    fn answered(&self, token: u64, latency: Option<SimDuration>, rcode: Rcode) -> TransportReply {
        let rtt_us = latency.map(|l| l.as_micros()).unwrap_or(0);
        self.metrics.record_received(Duration::from_micros(rtt_us));
        self.telemetry.emit(
            0,
            TelemetryEvent::ProbeMatched {
                token,
                attempt: 0,
                rtt_us,
                retransmit_ambiguous: false,
            },
        );
        TransportReply::Answered { latency, rcode }
    }

    /// First copy that survived truncation, if any: a truncated datagram
    /// fails DNS decoding at the receiver, so only intact copies count.
    fn first_intact(copies: &[Delivery]) -> Option<Delivery> {
        copies.iter().copied().find(|c| c.truncate_to.is_none())
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn query(
        &mut self,
        ingress: Ipv4Addr,
        qname: &Name,
        qtype: RecordType,
        now: SimTime,
    ) -> TransportReply {
        let token = self.fresh_token();
        self.metrics.record_sent();
        self.telemetry
            .emit(0, TelemetryEvent::ProbeSent { token, attempt: 0 });

        let clock = Duration::from_micros(now.as_micros());
        let outbound = self
            .injector
            .decide(Direction::ClientToServer, clock, NOMINAL_PROBE_LEN);
        let query_delay = match outbound {
            Verdict::Refuse => {
                // The resolver refuses without resolving: an answer comes
                // back, but the platform never sees the query (no cache
                // warming, no honey fetch).
                return self.answered(token, Some(SimDuration::from_micros(0)), Rcode::Refused);
            }
            Verdict::Drop(_) => return self.timed_out(token),
            Verdict::Deliver(ref copies) => match Self::first_intact(copies) {
                // Every copy was truncated: the resolver drops them all
                // as malformed, the cache stays cold.
                None => return self.timed_out(token),
                Some(copy) => copy.delay,
            },
        };

        // The query reached the platform: the inner transport resolves it
        // for real (warming caches), then the reply runs the gauntlet.
        match self.inner.query(ingress, qname, qtype, now) {
            TransportReply::TimedOut => self.timed_out(token),
            TransportReply::Answered { latency, rcode } => {
                let inbound =
                    self.injector
                        .decide(Direction::ServerToClient, clock, NOMINAL_PROBE_LEN);
                match inbound {
                    // The cache is already warm; losing or mangling the
                    // reply only makes the *probe* look lost.
                    Verdict::Drop(_) | Verdict::Refuse => self.timed_out(token),
                    Verdict::Deliver(ref copies) => match Self::first_intact(copies) {
                        None => self.timed_out(token),
                        Some(copy) => {
                            let injected = query_delay + copy.delay;
                            let latency = latency.map(|l| {
                                SimDuration::from_micros(
                                    l.as_micros() + injected.as_micros() as u64,
                                )
                            });
                            self.answered(token, latency, rcode)
                        }
                    },
                }
            }
        }
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

    fn metrics(&self) -> Arc<EngineMetrics> {
        Arc::clone(&self.metrics)
    }
}

impl<T: Transport> AccessProvider for FaultyTransport<T> {
    type Channel<'a>
        = crate::transport::EngineAccess<'a, FaultyTransport<T>>
    where
        Self: 'a;

    fn channel(&mut self, ingress: Ipv4Addr) -> Self::Channel<'_> {
        crate::transport::EngineAccess::new(self, ingress)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimTransport;
    use cde_core::CdeInfra;
    use cde_faults::LossFault;
    use cde_netsim::Link;
    use cde_platform::{PlatformBuilder, ResolutionPlatform, SelectorKind};
    use cde_probers::DirectProber;

    fn sim(seed: u64) -> (SimTransport, Ipv4Addr, Name) {
        let mut net = NameserverNet::new();
        let mut infra = CdeInfra::install(&mut net);
        let ingress = Ipv4Addr::new(192, 0, 2, 1);
        let platform: ResolutionPlatform = PlatformBuilder::new(seed)
            .ingress(vec![ingress])
            .egress(vec![Ipv4Addr::new(192, 0, 3, 1)])
            .cluster(1, SelectorKind::Random)
            .build();
        let prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), seed);
        let session = infra.new_session(&mut net, 0);
        let transport = SimTransport::new(platform, net, prober);
        (transport, ingress, session.honey)
    }

    #[test]
    fn clean_plan_is_transparent() {
        let (inner, ingress, qname) = sim(11);
        let mut faulty = FaultyTransport::new(inner, &FaultPlan::clean(1));
        let reply = faulty.query(ingress, &qname, RecordType::A, SimTime::ZERO);
        assert!(reply.is_answered(), "clean plan must not perturb probes");
        assert!(!faulty.fault_stats().anything_injected());
        let m = faulty.metrics().snapshot();
        assert_eq!((m.sent, m.received, m.timeouts), (1, 1, 0));
    }

    #[test]
    fn query_loss_times_out_without_warming() {
        let (inner, ingress, qname) = sim(11);
        let plan = FaultPlan {
            query_loss: LossFault::Uniform { rate: 0.999 },
            ..FaultPlan::clean(2)
        };
        let mut faulty = FaultyTransport::new(inner, &plan);
        let mut timeouts = 0;
        for _ in 0..20 {
            if let TransportReply::TimedOut =
                faulty.query(ingress, &qname, RecordType::A, SimTime::ZERO)
            {
                timeouts += 1;
            }
        }
        assert!(timeouts >= 18, "0.999 loss must time out, got {timeouts}");
        assert!(faulty.fault_stats().query_drops() >= 18);
        assert_eq!(faulty.metrics().snapshot().timeouts, timeouts);
        // The inner transport was never invoked for dropped queries.
        assert_eq!(
            faulty.inner().metrics().snapshot().sent,
            20 - timeouts,
            "dropped queries must not reach the platform"
        );
    }

    #[test]
    fn rate_limit_refusal_is_visible_as_refused_rcode() {
        let (inner, ingress, qname) = sim(11);
        let plan = FaultPlan {
            rate_limit: Some(cde_faults::RateLimitFault {
                qps: 1.0,
                burst: 1.0,
                action: cde_faults::RateLimitAction::Refuse,
            }),
            ..FaultPlan::clean(3)
        };
        let mut faulty = FaultyTransport::new(inner, &plan);
        // First query passes; the second (same instant) is refused.
        assert!(faulty
            .query(ingress, &qname, RecordType::A, SimTime::ZERO)
            .is_answered());
        match faulty.query(ingress, &qname, RecordType::A, SimTime::ZERO) {
            TransportReply::Answered { rcode, .. } => assert_eq!(rcode, Rcode::Refused),
            other => panic!("expected REFUSED answer, got {other:?}"),
        }
        assert_eq!(faulty.fault_stats().refused(), 1);
    }

    #[test]
    fn reply_delay_inflates_measured_latency() {
        let (inner, ingress, qname) = sim(11);
        let plan = FaultPlan {
            delay: Some(cde_faults::DelayFault {
                jitter: Duration::ZERO,
                spike_rate: 1.0,
                spike: Duration::from_millis(30),
            }),
            ..FaultPlan::clean(4)
        };
        // Same platform seed as the faulty run: identical base latency.
        let (clean_inner, clean_ingress, clean_qname) = sim(11);
        let mut clean = FaultyTransport::new(clean_inner, &FaultPlan::clean(4));
        let baseline = match clean.query(clean_ingress, &clean_qname, RecordType::A, SimTime::ZERO)
        {
            TransportReply::Answered { latency, .. } => latency.unwrap(),
            other => panic!("expected answer, got {other:?}"),
        };
        let mut faulty = FaultyTransport::new(inner, &plan);
        match faulty.query(ingress, &qname, RecordType::A, SimTime::ZERO) {
            TransportReply::Answered { latency, .. } => {
                // Spikes fire on both directions: ≥ 60ms over baseline.
                assert!(
                    latency.unwrap().as_micros() >= baseline.as_micros() + 60_000,
                    "injected spikes must inflate latency"
                );
            }
            other => panic!("expected answer, got {other:?}"),
        }
        assert!(faulty.fault_stats().delayed() >= 2);
    }
}
