//! The transport abstraction: one interface, simulated or live.
//!
//! A [`Transport`] issues single DNS probes toward a platform ingress and
//! owns the canonical [`NameserverNet`] — the observation point every CDE
//! technique reads. [`EngineAccess`] adapts any transport to `cde-core`'s
//! [`AccessChannel`], so `enumerate_*` and timing code runs unchanged
//! whether probes cross real sockets or virtual links.

use crate::metrics::EngineMetrics;
use cde_core::{AccessChannel, TriggerOutcome};
use cde_dns::{Name, Rcode, RecordType};
use cde_netsim::{SimDuration, SimTime};
use cde_platform::NameserverNet;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// What one probe produced, as seen at the transport boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportReply {
    /// A response arrived.
    Answered {
        /// Measured round trip, when the transport can time probes.
        latency: Option<SimDuration>,
        /// Response code of the answer.
        rcode: Rcode,
    },
    /// No response within the transport's deadline (after any retries).
    TimedOut,
}

impl TransportReply {
    /// `true` when a response arrived.
    pub fn is_answered(&self) -> bool {
        matches!(self, TransportReply::Answered { .. })
    }
}

/// A probe channel toward a resolution platform plus the authoritative
/// observation point.
///
/// The transport owns the canonical net: implementations that serve zone
/// data remotely (the live UDP path) watch [`Transport::net_mut`] for
/// zone edits and push snapshots to the serving side, and fold remotely
/// observed queries back into the canonical logs after each probe.
pub trait Transport {
    /// Sends one query for `qname`/`qtype` to the platform ingress
    /// `ingress`, honouring the transport's timeout/retry policy.
    fn query(
        &mut self,
        ingress: Ipv4Addr,
        qname: &Name,
        qtype: RecordType,
        now: SimTime,
    ) -> TransportReply;

    /// The canonical authoritative net (the CDE observation point).
    fn net(&self) -> &NameserverNet;

    /// Mutable canonical net — for planting sessions and clearing logs.
    /// Live transports treat any call as a zone edit and re-sync lazily.
    fn net_mut(&mut self) -> &mut NameserverNet;

    /// Engine counters for this transport.
    fn metrics(&self) -> Arc<EngineMetrics>;
}

/// Adapter: one [`Transport`] aimed at one ingress, as an
/// [`AccessChannel`].
///
/// This is the seam between the wire engine and the paper's measurement
/// algorithms: `enumerate_adaptive(&mut EngineAccess::new(...), ...)`
/// enumerates over real sockets with the same code path the simulator
/// uses.
#[derive(Debug)]
pub struct EngineAccess<'a, T: Transport> {
    transport: &'a mut T,
    ingress: Ipv4Addr,
    qtype: RecordType,
}

impl<'a, T: Transport> EngineAccess<'a, T> {
    /// Aims `transport` at `ingress`, probing with A queries.
    pub fn new(transport: &'a mut T, ingress: Ipv4Addr) -> EngineAccess<'a, T> {
        EngineAccess {
            transport,
            ingress,
            qtype: RecordType::A,
        }
    }
}

impl<T: Transport> AccessChannel for EngineAccess<'_, T> {
    fn trigger(&mut self, qname: &Name, now: SimTime) -> TriggerOutcome {
        match self.transport.query(self.ingress, qname, self.qtype, now) {
            TransportReply::Answered { latency, .. } => TriggerOutcome::Delivered { latency },
            TransportReply::TimedOut => TriggerOutcome::TimedOut,
        }
    }

    fn net(&self) -> &NameserverNet {
        self.transport.net()
    }

    fn net_mut(&mut self) -> &mut NameserverNet {
        self.transport.net_mut()
    }

    // Both transports time every probe.
    fn measures_latency(&self) -> bool {
        true
    }
}
