//! The Caches Discovery and Enumeration (CDE) measurement infrastructure.
//!
//! The infrastructure owns a domain (`cache.example` by default), operates
//! authoritative nameservers for it and for delegated subdomains, and
//! observes the queries arriving there (paper §IV-A, Fig. 1). Each
//! measurement opens a fresh *session*: a new honey record, a farm of
//! CNAME aliases pointing at it (§IV-B2a) and a freshly delegated subzone
//! for the names-hierarchy bypass (§IV-B2b), so repeated measurements
//! never contaminate each other through leftover TTL state.

use cde_dns::{Name, RData, Record, RecordType, Ttl, Zone};
use cde_platform::{AuthServer, NameserverNet, QueryLogEntry};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Addresses the infrastructure claims inside the simulation.
const ROOT_ADDR: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const TLD_ADDR: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 10);
const ZONE_ADDR: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 20);
const SUB_ADDR: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 30);
const SERVERS: [Ipv4Addr; 4] = [ROOT_ADDR, TLD_ADDR, ZONE_ADDR, SUB_ADDR];

/// TTL given to session records; long enough that a measurement finishes
/// well within it.
fn session_ttl() -> Ttl {
    Ttl::from_secs(3600)
}

/// One measurement session's names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Session {
    /// The honey record all aliases converge on; fetched once per cache.
    pub honey: Name,
    /// CNAME aliases `x-<s>-<i>` → honey (local-cache bypass §IV-B2a).
    pub farm: Vec<Name>,
    /// Names inside the session's delegated subzone (§IV-B2b).
    pub sub_farm: Vec<Name>,
    /// Apex of the session's delegated subzone.
    pub sub_apex: Name,
}

/// The CDE infrastructure handle.
///
/// `Clone` yields an independent handle over the *same* installed
/// infrastructure — useful when a second driver (e.g. a resumed
/// campaign manager) needs to derive names against an apex that is
/// already being served. Counters diverge after the clone; resuming
/// drivers should [`CdeInfra::restore_session_counter`] from a
/// checkpoint rather than trust a stale clone.
///
/// # Examples
///
/// ```
/// use cde_core::CdeInfra;
/// use cde_platform::NameserverNet;
///
/// let mut net = NameserverNet::new();
/// let mut infra = CdeInfra::install(&mut net);
/// let session = infra.new_session(&mut net, 16);
/// assert_eq!(session.farm.len(), 16);
/// assert_eq!(infra.count_honey_fetches(&net, &session.honey), 0);
/// ```
#[derive(Debug, Clone)]
pub struct CdeInfra {
    apex: Name,
    session_counter: u64,
}

impl CdeInfra {
    /// Installs the infrastructure into `net`: a root server, an `example`
    /// TLD server, the `cache.example` zone server and a server for
    /// delegated measurement subzones.
    ///
    /// # Panics
    ///
    /// Panics if `net` already has a server at one of the infrastructure
    /// addresses (install on a fresh network).
    pub fn install(net: &mut NameserverNet) -> CdeInfra {
        let apex: Name = "cache.example".parse().expect("static name");
        for addr in SERVERS {
            assert!(
                net.server(addr).is_none(),
                "infrastructure address {addr} already in use"
            );
        }

        let mut root = Zone::new(Name::root());
        root.add(ns_record("example", "ns.example"))
            .expect("in zone");
        root.add(a_record("ns.example", TLD_ADDR)).expect("in zone");
        net.add_server(AuthServer::new(ROOT_ADDR, vec![root]));

        let mut tld = Zone::with_soa("example".parse().expect("static"), Ttl::from_secs(300));
        tld.add(ns_record("cache.example", "ns1.cache.example"))
            .expect("in zone");
        tld.add(a_record("ns1.cache.example", ZONE_ADDR))
            .expect("in zone");
        net.add_server(AuthServer::new(TLD_ADDR, vec![tld]));

        // A high SOA MINIMUM makes the *target's* negative-TTL cap the
        // binding constraint, which is what software fingerprinting
        // measures (crate::fingerprint).
        let zone = Zone::with_soa(apex.clone(), Ttl::from_secs(86_400));
        net.add_server(AuthServer::new(ZONE_ADDR, vec![zone]));

        net.add_server(AuthServer::new(SUB_ADDR, Vec::new()));

        CdeInfra {
            apex,
            session_counter: 0,
        }
    }

    /// The domain the infrastructure owns.
    pub fn apex(&self) -> &Name {
        &self.apex
    }

    /// Address of the nameserver for the main zone (the primary
    /// observation point).
    pub fn zone_server_addr(&self) -> Ipv4Addr {
        ZONE_ADDR
    }

    /// Address of the server hosting delegated measurement subzones.
    pub fn sub_server_addr(&self) -> Ipv4Addr {
        SUB_ADDR
    }

    /// The counter every session and nonce name derives from. Snapshot
    /// it *before* calling [`CdeInfra::new_session`] and a later
    /// [`CdeInfra::restore_session_counter`] +`new_session` pair will
    /// regenerate that session's exact names (`name-<s>`, `x-<s>-<i>`,
    /// `sub-<s>`) — the seam checkpoint/resume builds on.
    pub fn session_counter(&self) -> u64 {
        self.session_counter
    }

    /// Restores the session counter from a checkpoint. The next
    /// [`CdeInfra::new_session`] re-derives the same names a session
    /// created at this counter value produced. Callers resuming into a
    /// live infrastructure must take care not to rewind below sessions
    /// still being served, or names would collide.
    pub fn restore_session_counter(&mut self, counter: u64) {
        self.session_counter = counter;
    }

    /// Opens a fresh session with `farm_size` aliases and as many subzone
    /// names, installing all records into the served zones. Records carry
    /// a 1-hour TTL; use [`CdeInfra::new_session_with_ttl`] when the
    /// measurement manipulates TTLs (e.g. the §II-C consistency audit).
    pub fn new_session(&mut self, net: &mut NameserverNet, farm_size: usize) -> Session {
        self.new_session_with_ttl(net, farm_size, session_ttl())
    }

    /// Like [`CdeInfra::new_session`] with an explicit record TTL.
    pub fn new_session_with_ttl(
        &mut self,
        net: &mut NameserverNet,
        farm_size: usize,
        ttl: Ttl,
    ) -> Session {
        self.session_counter += 1;
        let s = self.session_counter;
        let label = |parent: &Name, l: String| parent.prepend_label(l).expect("session label fits");
        let record = |owner: &Name, rdata| Record::new(owner.clone(), ttl, rdata);
        let honey = label(&self.apex, format!("name-{s}"));
        let sub_apex = label(&self.apex, format!("sub-{s}"));
        let sub_ns = label(&sub_apex, "ns".into());
        let farm_under = |parent: &Name| -> Vec<Name> {
            (1..=farm_size)
                .map(|i| label(parent, format!("x-{s}-{i}")))
                .collect()
        };
        let (farm, sub_farm) = (farm_under(&self.apex), farm_under(&sub_apex));

        // Main zone: honey A record, subzone delegation, CNAME farm.
        let zone = net
            .server_mut(ZONE_ADDR)
            .and_then(|server| server.zone_mut(&self.apex))
            .expect("apex zone served");
        let records = [
            record(&honey, RData::A(Ipv4Addr::new(198, 51, 100, 4))),
            record(&sub_apex, RData::Ns(sub_ns.clone())),
            record(&sub_ns, RData::A(SUB_ADDR)),
        ];
        let aliases = farm.iter().map(|a| record(a, RData::Cname(honey.clone())));
        for r in records.into_iter().chain(aliases) {
            zone.add(r).expect("in zone");
        }

        // Child zone on the sub server.
        let mut sub_zone = Zone::with_soa(sub_apex.clone(), Ttl::from_secs(300));
        for name in &sub_farm {
            let a = RData::A(Ipv4Addr::new(198, 51, 100, 5));
            sub_zone.add(record(name, a)).expect("in zone");
        }
        net.server_mut(SUB_ADDR)
            .expect("sub server installed")
            .add_zone(sub_zone);

        Session {
            honey,
            farm,
            sub_farm,
            sub_apex,
        }
    }

    /// A fresh, guaranteed-uncached name under the apex (for loss probing
    /// and timing calibration). Does **not** install a record — queries for
    /// it produce NXDOMAIN, which still exercises the full upstream path.
    pub fn fresh_nonce_name(&mut self) -> Name {
        self.session_counter += 1;
        self.apex
            .prepend_label(format!("nonce-{}", self.session_counter))
            .expect("session label fits")
    }

    /// An [`Observer`] of `session`'s honey and referral fetches.
    pub fn observer(&self, session: &Session) -> Observer {
        Observer::watching(Some(session.honey.clone()), Some(session.sub_apex.clone()))
    }

    /// The enumeration count ω for `honey` (see [`Observer`]), read once.
    pub fn count_honey_fetches(&self, net: &NameserverNet, honey: &Name) -> usize {
        let mut observer = Observer::watching(Some(honey.clone()), None);
        observer.update(net).honey_fetches()
    }

    /// The names-hierarchy count for `session` (see [`Observer`]), read once.
    pub fn count_referral_fetches(&self, net: &NameserverNet, session: &Session) -> usize {
        self.observer(session).update(net).referral_fetches()
    }

    /// Distinct egress addresses at all infrastructure servers, ascending.
    pub fn observed_egress_sources(&self, net: &NameserverNet) -> Vec<Ipv4Addr> {
        Observer::default().update(net).egress_sources().to_vec()
    }

    /// EDNS adoption observed at all infrastructure servers since the last
    /// log clear: `(queries with an OPT record, total queries)`. This is
    /// the §II-C use case of "measuring adoption of new mechanisms for
    /// DNS, such as the transport layer EDNS mechanism".
    pub fn observed_edns_adoption(&self, net: &NameserverNet) -> (usize, usize) {
        let entries = SERVERS.into_iter().flat_map(|addr| log(net, addr));
        let with = entries.clone().filter(|e| e.edns.is_some()).count();
        (with, entries.count())
    }

    /// Clears all infrastructure query logs (between measurement phases).
    pub fn clear_observations(&self, net: &mut NameserverNet) {
        for addr in SERVERS {
            if let Some(s) = net.server_mut(addr) {
                s.clear_log();
            }
        }
    }
}

/// A running read of the infrastructure's query logs, and the one place
/// that says what counts as a fetch. It keeps a cursor per server and
/// folds each new entry once into three tallies: honey fetches at the main
/// zone server per query type (ω is the maximum over types, since an MTA
/// asks TXT, MX and A per probe, §III-B, and each type enumerates the
/// caches on its own); referral fetches, main zone queries under the
/// session's subzone (§IV-B2b); and the distinct egress sources seen at
/// any infrastructure server.
///
/// Nothing clears a log during an `Observer`'s life. A log shorter than
/// its cursor means a clear, and the `Observer` starts again from zero,
/// which is what a rescan would report. [`CdeInfra::observer`] watches a
/// session; `Observer::default()` tallies egress sources only.
///
/// ```
/// use cde_core::CdeInfra;
/// use cde_dns::{Question, RecordType};
/// use cde_platform::NameserverNet;
///
/// let mut net = NameserverNet::new();
/// let mut infra = CdeInfra::install(&mut net);
/// let session = infra.new_session(&mut net, 0);
/// let mut observer = infra.observer(&session);
/// let honey = Question::new(session.honey.clone(), RecordType::A);
/// for (i, from) in ["192.0.3.1", "192.0.3.2", "192.0.3.2"].iter().enumerate() {
///     let zone = infra.zone_server_addr();
///     net.deliver(zone, from.parse().unwrap(), &honey, Default::default());
///     assert_eq!(observer.update(&net).honey_fetches(), i + 1);
/// }
/// assert_eq!(observer.egress_sources().len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Observer {
    honey: Option<Name>,
    sub_apex: Option<Name>,
    /// Entries folded so far, per server in [`SERVERS`] order.
    cursors: [usize; 4],
    per_qtype: HashMap<RecordType, usize>,
    referral_fetches: usize,
    /// Sorted, without duplicates.
    egress: Vec<Ipv4Addr>,
}

impl Observer {
    fn watching(honey: Option<Name>, sub_apex: Option<Name>) -> Observer {
        Observer {
            honey,
            sub_apex,
            ..Observer::default()
        }
    }

    /// Folds the entries logged since the last update.
    pub fn update(&mut self, net: &NameserverNet) -> &Observer {
        if (0..4).any(|i| log(net, SERVERS[i]).len() < self.cursors[i]) {
            *self = Observer::watching(self.honey.take(), self.sub_apex.take());
        }
        for (cursor, addr) in self.cursors.iter_mut().zip(SERVERS) {
            let (log, zone) = (log(net, addr), addr == ZONE_ADDR);
            for e in &log[*cursor..] {
                if let Err(at) = self.egress.binary_search(&e.from) {
                    self.egress.insert(at, e.from);
                }
                if zone && self.honey.as_ref() == Some(&e.qname) {
                    *self.per_qtype.entry(e.qtype).or_insert(0) += 1;
                }
                if zone && matches!(&self.sub_apex, Some(s) if e.qname.is_subdomain_of(s)) {
                    self.referral_fetches += 1;
                }
            }
            *cursor = log.len();
        }
        self
    }

    /// ω: honey fetches at the main zone server, maximum over query types.
    pub fn honey_fetches(&self) -> usize {
        self.per_qtype.values().copied().max().unwrap_or(0)
    }

    /// Main zone queries for names under the session's subzone.
    pub fn referral_fetches(&self) -> usize {
        self.referral_fetches
    }

    /// Distinct egress addresses seen at any server, in ascending order.
    pub fn egress_sources(&self) -> &[Ipv4Addr] {
        &self.egress
    }
}

/// The query log of the infrastructure server at `addr`.
fn log(net: &NameserverNet, addr: Ipv4Addr) -> &[QueryLogEntry] {
    net.server(addr).map_or(&[], |s| s.log())
}

fn ns_record(owner: &str, host: &str) -> Record {
    Record::new(
        owner.parse().expect("static name"),
        Ttl::from_secs(86_400),
        RData::Ns(host.parse().expect("static name")),
    )
}

fn a_record(owner: &str, addr: Ipv4Addr) -> Record {
    Record::new(
        owner.parse().expect("static name"),
        Ttl::from_secs(86_400),
        RData::A(addr),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cde_dns::Question;
    use cde_netsim::SimTime;

    #[test]
    fn install_registers_four_servers() {
        let mut net = NameserverNet::new();
        let infra = CdeInfra::install(&mut net);
        assert_eq!(net.root_addr(), ROOT_ADDR);
        assert!(net.server(infra.zone_server_addr()).is_some());
        assert!(net.server(infra.sub_server_addr()).is_some());
        assert_eq!(net.servers().count(), 4);
    }

    #[test]
    #[should_panic(expected = "already in use")]
    fn double_install_panics() {
        let mut net = NameserverNet::new();
        let _ = CdeInfra::install(&mut net);
        let _ = CdeInfra::install(&mut net);
    }

    #[test]
    fn restored_counter_regenerates_identical_session_names() {
        let mut net = NameserverNet::new();
        let mut infra = CdeInfra::install(&mut net);
        let _burned = infra.new_session(&mut net, 4); // advance the counter
        let before = infra.session_counter();
        let original = infra.new_session(&mut net, 8);

        // A fresh process resuming from a checkpoint taken before the
        // session opened: restore the counter, re-open, same names.
        let mut net2 = NameserverNet::new();
        let mut infra2 = CdeInfra::install(&mut net2);
        infra2.restore_session_counter(before);
        let resumed = infra2.new_session(&mut net2, 8);
        assert_eq!(original.honey, resumed.honey);
        assert_eq!(original.farm, resumed.farm);
        assert_eq!(original.sub_apex, resumed.sub_apex);
        assert_eq!(infra.session_counter(), infra2.session_counter());
    }

    #[test]
    fn sessions_use_fresh_names() {
        let mut net = NameserverNet::new();
        let mut infra = CdeInfra::install(&mut net);
        let s1 = infra.new_session(&mut net, 4);
        let s2 = infra.new_session(&mut net, 4);
        assert_ne!(s1.honey, s2.honey);
        assert_ne!(s1.sub_apex, s2.sub_apex);
        assert!(s1.farm.iter().all(|f| !s2.farm.contains(f)));
    }

    #[test]
    fn session_records_are_served() {
        let mut net = NameserverNet::new();
        let mut infra = CdeInfra::install(&mut net);
        let s = infra.new_session(&mut net, 2);
        // Honey record answers authoritatively.
        let resp = net
            .deliver(
                ZONE_ADDR,
                Ipv4Addr::new(1, 1, 1, 1),
                &Question::new(s.honey.clone(), RecordType::A),
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(resp.answers.len(), 1);
        // Farm names answer with a CNAME only (minimal responses).
        let resp = net
            .deliver(
                ZONE_ADDR,
                Ipv4Addr::new(1, 1, 1, 1),
                &Question::new(s.farm[0].clone(), RecordType::A),
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(resp.answers.len(), 1);
        assert_eq!(resp.answers[0].rtype(), RecordType::Cname);
        // Subzone names answer from the sub server.
        let resp = net
            .deliver(
                SUB_ADDR,
                Ipv4Addr::new(1, 1, 1, 1),
                &Question::new(s.sub_farm[0].clone(), RecordType::A),
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(resp.answers.len(), 1);
        assert_eq!(resp.answers[0].rtype(), RecordType::A);
    }

    #[test]
    fn parent_refers_to_session_subzone() {
        let mut net = NameserverNet::new();
        let mut infra = CdeInfra::install(&mut net);
        let s = infra.new_session(&mut net, 2);
        let resp = net
            .deliver(
                ZONE_ADDR,
                Ipv4Addr::new(1, 1, 1, 1),
                &Question::new(s.sub_farm[0].clone(), RecordType::A),
                SimTime::ZERO,
            )
            .unwrap();
        assert!(resp.answers.is_empty());
        assert_eq!(resp.authorities.len(), 1);
        assert_eq!(resp.authorities[0].rtype(), RecordType::Ns);
        assert_eq!(resp.additionals.len(), 1); // glue
    }

    #[test]
    fn honey_fetch_counting_and_clearing() {
        let mut net = NameserverNet::new();
        let mut infra = CdeInfra::install(&mut net);
        let s = infra.new_session(&mut net, 2);
        let q = Question::new(s.honey.clone(), RecordType::A);
        for i in 0..3 {
            net.deliver(ZONE_ADDR, Ipv4Addr::new(2, 2, 2, i), &q, SimTime::ZERO);
        }
        assert_eq!(infra.count_honey_fetches(&net, &s.honey), 3);
        assert_eq!(infra.observed_egress_sources(&net).len(), 3);
        infra.clear_observations(&mut net);
        assert_eq!(infra.count_honey_fetches(&net, &s.honey), 0);
        assert!(infra.observed_egress_sources(&net).is_empty());
    }

    #[test]
    fn referral_fetches_count_subzone_queries_at_parent() {
        let mut net = NameserverNet::new();
        let mut infra = CdeInfra::install(&mut net);
        let s = infra.new_session(&mut net, 2);
        let q = Question::new(s.sub_farm[0].clone(), RecordType::A);
        net.deliver(ZONE_ADDR, Ipv4Addr::new(3, 3, 3, 3), &q, SimTime::ZERO);
        assert_eq!(infra.count_referral_fetches(&net, &s), 1);
        // Queries at the child do not count.
        net.deliver(SUB_ADDR, Ipv4Addr::new(3, 3, 3, 3), &q, SimTime::ZERO);
        assert_eq!(infra.count_referral_fetches(&net, &s), 1);
    }

    #[test]
    fn nonce_names_are_unique_and_in_apex() {
        let mut net = NameserverNet::new();
        let mut infra = CdeInfra::install(&mut net);
        let a = infra.fresh_nonce_name();
        let b = infra.fresh_nonce_name();
        assert_ne!(a, b);
        assert!(a.is_subdomain_of(infra.apex()));
    }
}
