//! The simulated transport backend.
//!
//! [`SimTransport`] runs the engine interface over an in-process
//! [`ResolutionPlatform`], probing through the same [`DirectProber`] the
//! rest of the workspace uses. It exists so a measurement campaign can be
//! developed, seeded and regression-tested deterministically, then pointed
//! at [`ReactorTransport`](crate::reactor::ReactorTransport) without
//! touching the algorithm code.

use crate::metrics::EngineMetrics;
use crate::transport::{Transport, TransportReply};
use cde_dns::{Name, RecordType};
use cde_netsim::SimTime;
use cde_platform::{NameserverNet, ResolutionPlatform};
use cde_probers::{DirectProber, ProbeReply};
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

/// [`Transport`] over an in-process simulated platform.
#[derive(Debug)]
pub struct SimTransport {
    prober: DirectProber,
    platform: ResolutionPlatform,
    net: NameserverNet,
    metrics: Arc<EngineMetrics>,
}

impl SimTransport {
    /// Wraps a platform, its authoritative world and a prober.
    pub fn new(
        platform: ResolutionPlatform,
        net: NameserverNet,
        prober: DirectProber,
    ) -> SimTransport {
        SimTransport {
            prober,
            platform,
            net,
            metrics: Arc::new(EngineMetrics::new()),
        }
    }

    /// Ground-truth access to the platform (validation only).
    pub fn platform(&self) -> &ResolutionPlatform {
        &self.platform
    }

    /// The prober's cumulative loss estimate.
    pub fn observed_loss_rate(&self) -> f64 {
        self.prober.observed_loss_rate()
    }
}

impl Transport for SimTransport {
    fn query(
        &mut self,
        ingress: Ipv4Addr,
        qname: &Name,
        qtype: RecordType,
        now: SimTime,
    ) -> TransportReply {
        self.metrics.record_sent();
        match self.prober.probe(
            &mut self.platform,
            ingress,
            qname,
            qtype,
            now,
            &mut self.net,
        ) {
            ProbeReply::Answered {
                result, latency, ..
            } => {
                self.metrics
                    .record_received(Duration::from_micros(latency.as_micros()));
                TransportReply::Answered {
                    latency: Some(latency),
                    rcode: result.rcode(),
                }
            }
            ProbeReply::Timeout { .. } => {
                self.metrics.record_timeout();
                TransportReply::TimedOut
            }
        }
    }

    fn net(&self) -> &NameserverNet {
        &self.net
    }

    fn net_mut(&mut self) -> &mut NameserverNet {
        &mut self.net
    }

    fn metrics(&self) -> Arc<EngineMetrics> {
        Arc::clone(&self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cde_core::{enumerate_adaptive, AccessChannel, CdeInfra, SurveyOptions};
    use cde_netsim::Link;
    use cde_platform::{PlatformBuilder, SelectorKind};

    fn build(n: usize, seed: u64) -> (SimTransport, CdeInfra, Ipv4Addr) {
        let mut net = NameserverNet::new();
        let infra = CdeInfra::install(&mut net);
        let ingress = Ipv4Addr::new(192, 0, 2, 1);
        let platform = PlatformBuilder::new(seed)
            .ingress(vec![ingress])
            .egress((1..=3).map(|d| Ipv4Addr::new(192, 0, 3, d)).collect())
            .cluster(n, SelectorKind::Random)
            .build();
        let prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), seed);
        (SimTransport::new(platform, net, prober), infra, ingress)
    }

    #[test]
    fn existing_enumeration_runs_unchanged_over_sim_transport() {
        let (mut transport, mut infra, ingress) = build(5, 91);
        let mut access = crate::transport::EngineAccess::new(&mut transport, ingress);
        let e = enumerate_adaptive(
            &mut access,
            &mut infra,
            &SurveyOptions::default(),
            SimTime::ZERO,
        );
        assert_eq!(e.estimated, 5);
        let snap = transport.metrics().snapshot();
        assert!(snap.sent > 0);
        assert_eq!(snap.sent, snap.received);
    }

    #[test]
    fn trigger_reports_latency_and_metrics_count() {
        let (mut transport, mut infra, ingress) = build(1, 92);
        let session = {
            let mut access = crate::transport::EngineAccess::new(&mut transport, ingress);
            infra.new_session(access.net_mut(), 0)
        };
        let mut access = crate::transport::EngineAccess::new(&mut transport, ingress);
        let out = access.trigger(&session.honey, SimTime::ZERO);
        assert!(matches!(
            out,
            cde_core::TriggerOutcome::Delivered { latency: Some(_) }
        ));
        assert_eq!(infra.count_honey_fetches(access.net(), &session.honey), 1);
    }
}
