//! **CDE — Caches Discovery and Enumeration**: the primary contribution of
//! *Counting in the Dark: DNS Caches Discovery and Enumeration in the
//! Internet* (DSN 2017), reproduced as a library.
//!
//! DNS resolution platforms hide their caches behind ingress and egress
//! IP addresses. This crate discovers and counts those caches using only
//! standard DNS behaviour:
//!
//! * [`infra`] — the measurement infrastructure: an owned domain, session
//!   honey records, CNAME farms and delegated subzones, plus the
//!   nameserver-side observation channel (§IV-A),
//! * [`access`] — the three access channels: direct (open resolvers),
//!   SMTP and ad-network web clients (§III, §IV-B),
//! * [`enumerate`] — cache enumeration: one sans-IO [`Enumerator`]
//!   decides when to probe, count and stop, and the identical-query,
//!   CNAME-farm, names-hierarchy and sequential variants drive it; plus
//!   the two-phase init/validate protocol (§IV-B1a, §IV-B2, §V-B),
//! * [`mapping`] — ingress→cache-cluster mapping via honey records and
//!   egress address discovery (§IV-B1b),
//! * [`timing`] — the latency side channel for indirect egress access
//!   (§IV-B3),
//! * [`planner`] — loss measurement, carpet bombing and query budgets
//!   (§V),
//! * [`sequential`] — sequential stopping: keep the coupon-collector
//!   posterior as distinct-cache evidence arrives and end the campaign
//!   the moment the exact-count criterion holds, instead of running
//!   fixed-`q` plans to exhaustion,
//! * [`survey`] — the end-to-end pipeline producing everything the
//!   paper's evaluation reports per network.
//!
//! # Examples
//!
//! Enumerate the caches of a simulated platform without ever reading its
//! ground truth:
//!
//! ```
//! use cde_core::access::DirectAccess;
//! use cde_core::enumerate::{enumerate_identical, EnumerateOptions};
//! use cde_core::CdeInfra;
//! use cde_netsim::{Link, SimTime};
//! use cde_platform::{NameserverNet, PlatformBuilder, SelectorKind};
//! use cde_probers::DirectProber;
//! use std::net::Ipv4Addr;
//!
//! let mut net = NameserverNet::new();
//! let mut infra = CdeInfra::install(&mut net);
//! let mut platform = PlatformBuilder::new(1)
//!     .ingress(vec![Ipv4Addr::new(192, 0, 2, 1)])
//!     .egress(vec![Ipv4Addr::new(192, 0, 3, 1)])
//!     .cluster(4, SelectorKind::Random)
//!     .build();
//! let session = infra.new_session(&mut net, 0);
//! let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), 7);
//! let mut access = DirectAccess::new(&mut prober, &mut platform, Ipv4Addr::new(192, 0, 2, 1), &mut net);
//! let e = enumerate_identical(&mut access, &infra, &session, EnumerateOptions::with_probes(64), SimTime::ZERO);
//! assert_eq!(e.observed, 4); // the hidden cache count, recovered
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod consistency;
pub mod enumerate;
pub mod fingerprint;
pub mod infra;
pub mod longitudinal;
pub mod mapping;
pub mod planner;
pub mod resilience;
pub mod sequential;
pub mod survey;
pub mod timing;

pub use access::{
    AccessChannel, AccessProvider, AdNetAccess, DirectAccess, DirectAccessProvider, SmtpAccess,
    TriggerOutcome,
};
pub use consistency::{audit_ttl_consistency, ConsistencyOptions, ConsistencyReport, TtlVerdict};
pub use enumerate::{
    enumerate_cname_farm, enumerate_identical, enumerate_names_hierarchy, enumerate_two_phase,
    EnumerateOptions, Enumeration, Enumerator, Step, TwoPhaseEnumeration,
};
pub use fingerprint::{classify, fingerprint_software, Fingerprint, FingerprintOptions};
pub use infra::{CdeInfra, Session};
pub use longitudinal::{CapacityChange, EpochMeasurement, PlatformTracker, Timeline};
pub use mapping::{
    discover_egress, map_ingress_to_clusters, map_ingress_to_clusters_with,
    mapping_matches_ground_truth, EgressDiscovery, IngressMapping, MappingOptions, MappingStrategy,
};
pub use planner::{measure_loss, ProbePlan};
pub use resilience::{
    expected_attack_attempts, poisoning_success_probability, simulate_attack_campaign,
    CampaignOutcome,
};
pub use sequential::{enumerate_sequential, SequentialEnumeration, SequentialPlanner};
pub use survey::{
    discover_egress_adaptive, enumerate_adaptive, survey_platform, survey_platform_with,
    validate_survey, PlatformSurvey, SurveyOptions,
};
pub use timing::{
    calibrate, enumerate_via_timing, CalibrationError, TimingCalibration, TimingEnumeration,
};
