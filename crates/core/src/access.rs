//! Access channels: how probes reach a target platform.
//!
//! The paper runs the same logical techniques over three channels
//! (§IV-B): direct queries to open resolvers, SMTP-triggered lookups and
//! browser-triggered lookups. [`AccessChannel`] abstracts the channel so
//! enumeration and mapping are written once. Implementations deliberately
//! expose only what the real channel exposes: indirect channels cannot
//! pick the query type or observe precise latency per probe.

use cde_dns::{Name, RecordType};
use cde_netsim::{SimDuration, SimTime};
use cde_platform::{NameserverNet, ResolutionPlatform};
use cde_probers::{
    AdNetProber, DirectProber, EnterpriseMailServer, ProbeReply, SmtpProber, WebClient,
};
use std::net::Ipv4Addr;

/// What the prober observed for one triggered probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TriggerOutcome {
    /// A response came back; latency is only available on channels that
    /// can measure it (direct access).
    Delivered {
        /// Measured round-trip latency, when the channel exposes it.
        latency: Option<SimDuration>,
    },
    /// The probe timed out (lost on the wire).
    TimedOut,
    /// A local cache answered before the probe reached the platform
    /// (indirect channels only).
    BlockedLocally,
}

impl TriggerOutcome {
    /// `true` when the probe reached the platform and a response returned.
    pub fn is_delivered(&self) -> bool {
        matches!(self, TriggerOutcome::Delivered { .. })
    }
}

/// A channel through which probes for names in the CDE domain can be
/// triggered against one target platform.
///
/// Implementations borrow the platform and the simulated Internet for the
/// duration of a measurement.
pub trait AccessChannel {
    /// Triggers one probe for `qname` at virtual time `now`.
    fn trigger(&mut self, qname: &Name, now: SimTime) -> TriggerOutcome;

    /// Read access to the authoritative side (the CDE observation point).
    fn net(&self) -> &NameserverNet;

    /// Mutable access to the authoritative side (for clearing logs).
    fn net_mut(&mut self) -> &mut NameserverNet;

    /// `true` when the channel controls probe timing and can measure
    /// latency (direct access; §IV-B3's direct-ingress timing channel
    /// needs this).
    fn measures_latency(&self) -> bool {
        false
    }
}

/// Direct access to an open resolver's ingress address (set-up 2, Fig. 1).
#[derive(Debug)]
pub struct DirectAccess<'a> {
    /// The probing client.
    pub prober: &'a mut DirectProber,
    /// Target platform.
    pub platform: &'a mut ResolutionPlatform,
    /// Ingress address probed.
    pub ingress: Ipv4Addr,
    /// The authoritative world.
    pub net: &'a mut NameserverNet,
    /// Query type used for probes.
    pub qtype: RecordType,
}

impl<'a> DirectAccess<'a> {
    /// Creates a direct channel probing `ingress` with A queries.
    pub fn new(
        prober: &'a mut DirectProber,
        platform: &'a mut ResolutionPlatform,
        ingress: Ipv4Addr,
        net: &'a mut NameserverNet,
    ) -> DirectAccess<'a> {
        DirectAccess {
            prober,
            platform,
            ingress,
            net,
            qtype: RecordType::A,
        }
    }
}

impl AccessChannel for DirectAccess<'_> {
    fn trigger(&mut self, qname: &Name, now: SimTime) -> TriggerOutcome {
        match self.prober.probe(
            self.platform,
            self.ingress,
            qname,
            self.qtype,
            now,
            self.net,
        ) {
            ProbeReply::Answered { latency, .. } => TriggerOutcome::Delivered {
                latency: Some(latency),
            },
            ProbeReply::Timeout { .. } => TriggerOutcome::TimedOut,
        }
    }

    fn net(&self) -> &NameserverNet {
        self.net
    }

    fn net_mut(&mut self) -> &mut NameserverNet {
        self.net
    }

    fn measures_latency(&self) -> bool {
        true
    }
}

/// Indirect access through an enterprise mail server (§III-B).
#[derive(Debug)]
pub struct SmtpAccess<'a> {
    /// The probing side.
    pub prober: &'a mut SmtpProber,
    /// The enterprise's MTA.
    pub mta: &'a mut EnterpriseMailServer,
    /// The enterprise's resolution platform.
    pub platform: &'a mut ResolutionPlatform,
    /// The authoritative world.
    pub net: &'a mut NameserverNet,
}

impl AccessChannel for SmtpAccess<'_> {
    fn trigger(&mut self, qname: &Name, now: SimTime) -> TriggerOutcome {
        let triggered = self
            .prober
            .send_probe_email(self.mta, self.platform, self.net, qname, now);
        if triggered.iter().any(|t| t.reached_platform) {
            TriggerOutcome::Delivered { latency: None }
        } else if triggered.is_empty() {
            // MTA performs no sender verification at all: the channel
            // cannot generate probes for this name.
            TriggerOutcome::TimedOut
        } else {
            TriggerOutcome::BlockedLocally
        }
    }

    fn net(&self) -> &NameserverNet {
        self.net
    }

    fn net_mut(&mut self) -> &mut NameserverNet {
        self.net
    }
}

/// Indirect access through an ad-network web client (§III-C).
#[derive(Debug)]
pub struct AdNetAccess<'a> {
    /// The campaign driver.
    pub prober: &'a mut AdNetProber,
    /// The visitor's browser environment.
    pub client: &'a mut WebClient,
    /// The visitor's ISP platform.
    pub platform: &'a mut ResolutionPlatform,
    /// The authoritative world.
    pub net: &'a mut NameserverNet,
}

impl AccessChannel for AdNetAccess<'_> {
    fn trigger(&mut self, qname: &Name, now: SimTime) -> TriggerOutcome {
        let run = self.prober.run_forced(
            self.client,
            self.platform,
            self.net,
            std::slice::from_ref(qname),
            now,
        );
        if !run.reached_platform.is_empty() {
            TriggerOutcome::Delivered { latency: None }
        } else {
            TriggerOutcome::BlockedLocally
        }
    }

    fn net(&self) -> &NameserverNet {
        self.net
    }

    fn net_mut(&mut self) -> &mut NameserverNet {
        self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infra::CdeInfra;
    use cde_netsim::Link;
    use cde_platform::{PlatformBuilder, SelectorKind};
    use cde_probers::MailChecks;

    fn build_world() -> (ResolutionPlatform, NameserverNet, CdeInfra) {
        let mut net = NameserverNet::new();
        let infra = CdeInfra::install(&mut net);
        let platform = PlatformBuilder::new(77)
            .ingress(vec![Ipv4Addr::new(192, 0, 2, 1)])
            .egress(vec![Ipv4Addr::new(192, 0, 3, 1)])
            .cluster(2, SelectorKind::Random)
            .build();
        (platform, net, infra)
    }

    #[test]
    fn direct_access_delivers_and_measures_latency() {
        let (mut platform, mut net, mut infra) = build_world();
        let session = infra.new_session(&mut net, 4);
        let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), 1);
        let mut access = DirectAccess::new(
            &mut prober,
            &mut platform,
            Ipv4Addr::new(192, 0, 2, 1),
            &mut net,
        );
        assert!(access.measures_latency());
        let out = access.trigger(&session.honey, SimTime::ZERO);
        assert!(matches!(
            out,
            TriggerOutcome::Delivered { latency: Some(_) }
        ));
        assert_eq!(infra.count_honey_fetches(access.net(), &session.honey), 1);
    }

    #[test]
    fn smtp_access_delivers_via_mta() {
        let (mut platform, mut net, mut infra) = build_world();
        let session = infra.new_session(&mut net, 4);
        let mut prober = SmtpProber::new(2);
        let mut mta = EnterpriseMailServer::new(
            Ipv4Addr::new(198, 18, 0, 25),
            MailChecks {
                spf_txt: true,
                ..MailChecks::default()
            },
            Ipv4Addr::new(192, 0, 2, 1),
        );
        let mut access = SmtpAccess {
            prober: &mut prober,
            mta: &mut mta,
            platform: &mut platform,
            net: &mut net,
        };
        assert!(!access.measures_latency());
        let out = access.trigger(&session.farm[0], SimTime::ZERO);
        assert!(out.is_delivered());
        // The farm alias chased the CNAME to the honey record.
        assert_eq!(infra.count_honey_fetches(access.net(), &session.honey), 1);
    }

    #[test]
    fn smtp_access_reports_blocked_on_repeat() {
        let (mut platform, mut net, mut infra) = build_world();
        let session = infra.new_session(&mut net, 4);
        let mut prober = SmtpProber::new(3);
        let mut mta = EnterpriseMailServer::new(
            Ipv4Addr::new(198, 18, 0, 25),
            MailChecks {
                spf_txt: true,
                ..MailChecks::default()
            },
            Ipv4Addr::new(192, 0, 2, 1),
        );
        let mut access = SmtpAccess {
            prober: &mut prober,
            mta: &mut mta,
            platform: &mut platform,
            net: &mut net,
        };
        // The SPF TXT answer for the honey name is cacheable in the stub...
        let _ = access.trigger(&session.honey, SimTime::ZERO);
        let second = access.trigger(&session.honey, SimTime::ZERO);
        // ...so the repeat must either be blocked locally or, if the first
        // answer was not cached (NODATA), still be delivered.
        assert!(second.is_delivered() || second == TriggerOutcome::BlockedLocally);
    }

    #[test]
    fn smtp_access_without_checks_cannot_probe() {
        let (mut platform, mut net, mut infra) = build_world();
        let session = infra.new_session(&mut net, 4);
        let mut prober = SmtpProber::new(4);
        let mut mta = EnterpriseMailServer::new(
            Ipv4Addr::new(198, 18, 0, 25),
            MailChecks::default(),
            Ipv4Addr::new(192, 0, 2, 1),
        );
        let mut access = SmtpAccess {
            prober: &mut prober,
            mta: &mut mta,
            platform: &mut platform,
            net: &mut net,
        };
        assert_eq!(
            access.trigger(&session.honey, SimTime::ZERO),
            TriggerOutcome::TimedOut
        );
    }

    #[test]
    fn adnet_access_delivers_distinct_names_and_blocks_repeats() {
        let (mut platform, mut net, mut infra) = build_world();
        let session = infra.new_session(&mut net, 4);
        let mut prober = AdNetProber::new(5);
        let mut client =
            WebClient::new(Ipv4Addr::new(203, 0, 113, 50), Ipv4Addr::new(192, 0, 2, 1));
        let mut access = AdNetAccess {
            prober: &mut prober,
            client: &mut client,
            platform: &mut platform,
            net: &mut net,
        };
        let first = access.trigger(&session.farm[0], SimTime::ZERO);
        assert!(first.is_delivered());
        let repeat = access.trigger(&session.farm[0], SimTime::ZERO);
        assert_eq!(repeat, TriggerOutcome::BlockedLocally);
        let other = access.trigger(&session.farm[1], SimTime::ZERO);
        assert!(other.is_delivered());
    }
}
