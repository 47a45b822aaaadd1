//! Iterative resolution performed by one cache instance.
//!
//! Each hidden cache is a full recursive-resolver worker: on a miss it
//! walks the delegation tree from the root hints, caching NS records and
//! glue along the way. This reproduces the behaviour the names-hierarchy
//! bypass (§IV-B2b) exploits — after the first resolution the cache holds
//! the child zone's NS/glue and subsequent queries go *directly* to the
//! child nameserver, skipping the parent where the CDE counts.

use crate::authserver::NameserverNet;
use cde_cache::{CacheLookup, DnsCache, NegativeKind};
use cde_dns::{Edns, Name, Question, RData, Rcode, Record, RecordType, Ttl};
use cde_netsim::{DetRng, Link, SimDuration, SimTime};
use rand::Rng;
use std::borrow::Cow;
use std::net::Ipv4Addr;

/// Maximum CNAME hops a resolution follows.
const MAX_CNAME_CHAIN: usize = 12;
/// Maximum referral hops per target name.
const MAX_REFERRALS: usize = 32;

/// Final status of a resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveResult {
    /// Records answering the question (including any CNAME chain followed).
    Records(Vec<Record>),
    /// The name does not exist.
    NxDomain,
    /// The name exists without the queried type.
    NoData,
    /// Upstream unreachable or looping delegations.
    ServFail,
}

impl ResolveResult {
    /// `true` when records were produced.
    pub fn is_success(&self) -> bool {
        matches!(self, ResolveResult::Records(_))
    }

    /// The corresponding response code.
    pub fn rcode(&self) -> Rcode {
        match self {
            ResolveResult::Records(_) | ResolveResult::NoData => Rcode::NoError,
            ResolveResult::NxDomain => Rcode::NxDomain,
            ResolveResult::ServFail => Rcode::ServFail,
        }
    }
}

/// What one resolution cost and touched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolveOutcome {
    /// Final status.
    pub result: ResolveResult,
    /// Wall-clock (virtual) time the resolution took.
    pub latency: SimDuration,
    /// Upstream queries actually sent (including retries).
    pub upstream_queries: usize,
    /// `true` when the whole answer came from cache, with no upstream
    /// traffic — the paper's *cache hit* event.
    pub cache_hit: bool,
}

/// Everything a cache needs to reach the authoritative world.
#[derive(Debug)]
pub struct Upstream<'a> {
    /// The simulated authoritative Internet.
    pub net: &'a mut NameserverNet,
    /// Egress addresses the platform may source queries from. One is drawn
    /// uniformly per upstream query — the paper observed that "multiple
    /// different egress IP addresses participated in a resolution of a
    /// given name" (§VII).
    pub egress_ips: &'a [Ipv4Addr],
    /// Link between egress resolvers and nameservers.
    pub link: &'a Link,
    /// Retries after a lost packet before giving up.
    pub retries: u32,
    /// Latency charged per lost-packet timeout.
    pub timeout: SimDuration,
    /// EDNS parameters advertised in upstream queries; `None` models
    /// legacy software without EDNS support (§II-C adoption studies).
    pub edns: Option<Edns>,
}

/// Resolves `qname`/`qtype` using `cache`, going upstream on misses.
///
/// The negative-caching TTL is taken from the SOA record in negative
/// responses when present, defaulting to 300 s.
pub fn resolve(
    cache: &mut DnsCache,
    qname: &Name,
    qtype: RecordType,
    now: SimTime,
    rng: &mut DetRng,
    up: &mut Upstream<'_>,
) -> ResolveOutcome {
    let mut latency = SimDuration::ZERO;
    let mut upstream_queries = 0usize;
    let mut chain: Vec<Record> = Vec::new();
    // Borrowed until a CNAME hop or a cache insert needs it owned.
    let mut current = Cow::Borrowed(qname);

    for _hop in 0..=MAX_CNAME_CHAIN {
        // 1. Try the cache, chasing cached CNAMEs.
        match cache.lookup(&current, qtype, now) {
            CacheLookup::Hit(rrs) => {
                // A first-lookup hit is the cache's copy as it stands.
                let records = if chain.is_empty() {
                    rrs
                } else {
                    chain.extend(rrs);
                    chain
                };
                return ResolveOutcome {
                    result: ResolveResult::Records(records),
                    latency,
                    upstream_queries,
                    cache_hit: upstream_queries == 0,
                };
            }
            CacheLookup::NegativeHit(kind) => {
                return ResolveOutcome {
                    result: match kind {
                        NegativeKind::NxDomain => ResolveResult::NxDomain,
                        NegativeKind::NoData => ResolveResult::NoData,
                    },
                    latency,
                    upstream_queries,
                    cache_hit: upstream_queries == 0,
                };
            }
            CacheLookup::Miss => {}
        }
        if qtype != RecordType::Cname {
            if let CacheLookup::Hit(cnames) = cache.lookup(&current, RecordType::Cname, now) {
                if let Some(RData::Cname(target)) = cnames.first().map(Record::rdata) {
                    let target = target.clone();
                    chain.extend(cnames);
                    current = Cow::Owned(target);
                    continue;
                }
            }
        }

        // 2. Iterate from the best known nameserver.
        match iterate(
            cache,
            &current,
            qtype,
            now,
            rng,
            up,
            &mut latency,
            &mut upstream_queries,
        ) {
            IterOutcome::Answer(rrs) => {
                // Answer may itself start with a CNAME (authoritative server
                // with minimal responses): cache pieces and maybe continue.
                if qtype != RecordType::Cname
                    && rrs.first().map(Record::rtype) == Some(RecordType::Cname)
                {
                    let target = match rrs[0].rdata() {
                        RData::Cname(t) => t.clone(),
                        _ => unreachable!("cname rtype carries cname rdata"),
                    };
                    cache.insert(current.into_owned(), RecordType::Cname, rrs.clone(), now);
                    chain.extend(rrs);
                    current = Cow::Owned(target);
                    continue;
                }
                cache.insert(current.into_owned(), qtype, rrs.clone(), now);
                chain.extend(rrs);
                return ResolveOutcome {
                    result: ResolveResult::Records(chain),
                    latency,
                    upstream_queries,
                    cache_hit: false,
                };
            }
            IterOutcome::Negative(kind, neg_ttl) => {
                cache.insert_negative(current.into_owned(), qtype, kind, neg_ttl, now);
                return ResolveOutcome {
                    result: match kind {
                        NegativeKind::NxDomain => ResolveResult::NxDomain,
                        NegativeKind::NoData => ResolveResult::NoData,
                    },
                    latency,
                    upstream_queries,
                    cache_hit: false,
                };
            }
            IterOutcome::Fail => {
                return ResolveOutcome {
                    result: ResolveResult::ServFail,
                    latency,
                    upstream_queries,
                    cache_hit: false,
                };
            }
        }
    }

    // CNAME chain too long.
    ResolveOutcome {
        result: ResolveResult::ServFail,
        latency,
        upstream_queries,
        cache_hit: false,
    }
}

enum IterOutcome {
    Answer(Vec<Record>),
    Negative(NegativeKind, Ttl),
    Fail,
}

/// Iteratively queries authoritative servers for one target name.
#[allow(clippy::too_many_arguments)]
fn iterate(
    cache: &mut DnsCache,
    qname: &Name,
    qtype: RecordType,
    now: SimTime,
    rng: &mut DetRng,
    up: &mut Upstream<'_>,
    latency: &mut SimDuration,
    upstream_queries: &mut usize,
) -> IterOutcome {
    let question = Question::new(qname.clone(), qtype);
    for _ in 0..MAX_REFERRALS {
        let ns_addr = best_nameserver(cache, qname, now, up);
        let Some(resp) =
            send_with_retries(ns_addr, &question, now, rng, up, latency, upstream_queries)
        else {
            return IterOutcome::Fail;
        };

        if resp.flags.rcode == Rcode::NxDomain {
            let neg_ttl = soa_minimum(&resp.authorities).unwrap_or(Ttl::from_secs(300));
            return IterOutcome::Negative(NegativeKind::NxDomain, neg_ttl);
        }
        if resp.flags.rcode != Rcode::NoError {
            // Refused/ServFail from this server: give up (real resolvers
            // would try siblings; one server per zone here).
            return IterOutcome::Fail;
        }
        if !resp.answers.is_empty() {
            return IterOutcome::Answer(resp.answers);
        }
        // Referral?
        let ns_records: Vec<&Record> = resp
            .authorities
            .iter()
            .filter(|r| r.rtype() == RecordType::Ns)
            .collect();
        if !resp.flags.aa && !ns_records.is_empty() {
            // Cache the delegation NS set and its glue.
            let zone = ns_records[0].name().clone();
            let ns_owned: Vec<Record> = ns_records.into_iter().cloned().collect();
            cache.insert(zone, RecordType::Ns, ns_owned, now);
            for glue in &resp.additionals {
                if matches!(glue.rtype(), RecordType::A | RecordType::Aaaa) {
                    cache.insert(glue.name().clone(), glue.rtype(), vec![glue.clone()], now);
                }
            }
            continue;
        }
        // Authoritative empty answer: NODATA.
        let neg_ttl = soa_minimum(&resp.authorities).unwrap_or(Ttl::from_secs(300));
        return IterOutcome::Negative(NegativeKind::NoData, neg_ttl);
    }
    IterOutcome::Fail
}

/// Deepest cached delegation with a usable address, else the root.
fn best_nameserver(cache: &DnsCache, qname: &Name, now: SimTime, up: &Upstream<'_>) -> Ipv4Addr {
    for zone in qname.ancestors() {
        if let Some(ns_set) = cache.peek(&zone, RecordType::Ns, now) {
            for ns in &ns_set {
                if let RData::Ns(host) = ns.rdata() {
                    if let Some(addrs) = cache.peek(host, RecordType::A, now) {
                        if let Some(RData::A(ip)) = addrs.first().map(Record::rdata) {
                            return *ip;
                        }
                    }
                }
            }
        }
    }
    up.net.root_addr()
}

/// Sends one query with loss-aware retries; returns `None` when every
/// attempt failed.
#[allow(clippy::too_many_arguments)]
fn send_with_retries(
    ns_addr: Ipv4Addr,
    question: &Question,
    now: SimTime,
    rng: &mut DetRng,
    up: &mut Upstream<'_>,
    latency: &mut SimDuration,
    upstream_queries: &mut usize,
) -> Option<cde_dns::Message> {
    for _attempt in 0..=up.retries {
        let egress = up.egress_ips[rng.gen_range(0..up.egress_ips.len())];
        *upstream_queries += 1;
        // Query direction.
        let Some(fwd) = up.link.transmit(rng) else {
            *latency += up.timeout;
            continue;
        };
        let arrival = now + *latency + fwd;
        let Some(resp) = up
            .net
            .deliver_with_edns(ns_addr, egress, question, up.edns, arrival)
        else {
            // Blackhole: charge a full timeout.
            *latency += up.timeout;
            continue;
        };
        // Response direction.
        let Some(back) = up.link.transmit(rng) else {
            *latency += up.timeout;
            continue;
        };
        *latency += fwd + back;
        return Some(resp);
    }
    None
}

fn soa_minimum(authorities: &[Record]) -> Option<Ttl> {
    authorities.iter().find_map(|r| match r.rdata() {
        RData::Soa(soa) => Some(Ttl::from_secs(soa.minimum)),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authserver::AuthServer;
    use cde_dns::Zone;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn ip(d: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, d)
    }

    /// Builds root + cache.example + delegated sub.cache.example.
    fn build_net() -> NameserverNet {
        let mut net = NameserverNet::new();

        let mut root = Zone::new(Name::root());
        root.add(Record::new(
            n("example"),
            Ttl::from_secs(86400),
            RData::Ns(n("ns.example")),
        ))
        .unwrap();
        root.add(Record::new(
            n("ns.example"),
            Ttl::from_secs(86400),
            RData::A(ip(10)),
        ))
        .unwrap();
        net.add_server(AuthServer::new(ip(1), vec![root]));

        // .example TLD server delegating cache.example.
        let mut tld = Zone::with_soa(n("example"), Ttl::from_secs(300));
        tld.add(Record::new(
            n("cache.example"),
            Ttl::from_secs(86400),
            RData::Ns(n("ns1.cache.example")),
        ))
        .unwrap();
        tld.add(Record::new(
            n("ns1.cache.example"),
            Ttl::from_secs(86400),
            RData::A(ip(20)),
        ))
        .unwrap();
        net.add_server(AuthServer::new(ip(10), vec![tld]));

        // cache.example zone with CNAME farm and delegation to sub.
        let mut zone = Zone::with_soa(n("cache.example"), Ttl::from_secs(300));
        zone.add(Record::new(
            n("name.cache.example"),
            Ttl::from_secs(3600),
            RData::A(Ipv4Addr::new(198, 51, 100, 4)),
        ))
        .unwrap();
        for i in 1..=8 {
            zone.add(Record::new(
                n(&format!("x-{i}.cache.example")),
                Ttl::from_secs(3600),
                RData::Cname(n("name.cache.example")),
            ))
            .unwrap();
        }
        zone.add(Record::new(
            n("sub.cache.example"),
            Ttl::from_secs(3600),
            RData::Ns(n("ns.sub.cache.example")),
        ))
        .unwrap();
        zone.add(Record::new(
            n("ns.sub.cache.example"),
            Ttl::from_secs(3600),
            RData::A(ip(30)),
        ))
        .unwrap();
        net.add_server(AuthServer::new(ip(20), vec![zone]));

        // sub.cache.example child server.
        let mut sub = Zone::with_soa(n("sub.cache.example"), Ttl::from_secs(300));
        for i in 1..=8 {
            sub.add(Record::new(
                n(&format!("x-{i}.sub.cache.example")),
                Ttl::from_secs(3600),
                RData::A(Ipv4Addr::new(198, 51, 100, 5)),
            ))
            .unwrap();
        }
        net.add_server(AuthServer::new(ip(30), vec![sub]));
        net
    }

    fn upstream<'a>(
        net: &'a mut NameserverNet,
        link: &'a Link,
        egress: &'a [Ipv4Addr],
    ) -> Upstream<'a> {
        Upstream {
            net,
            egress_ips: egress,
            link,
            retries: 3,
            timeout: SimDuration::from_millis(800),
            edns: Some(Edns::default()),
        }
    }

    #[test]
    fn cold_resolution_walks_from_root() {
        let mut net = build_net();
        let link = Link::ideal();
        let egress = [Ipv4Addr::new(203, 0, 113, 1)];
        let mut cache = DnsCache::with_defaults(0);
        let mut rng = DetRng::seed(0);
        let mut up = upstream(&mut net, &link, &egress);
        let out = resolve(
            &mut cache,
            &n("name.cache.example"),
            RecordType::A,
            SimTime::ZERO,
            &mut rng,
            &mut up,
        );
        assert!(out.result.is_success());
        assert!(!out.cache_hit);
        // root → tld → zone = 3 queries.
        assert_eq!(out.upstream_queries, 3);
        // Each server logged once.
        assert_eq!(net.server(ip(1)).unwrap().log().len(), 1);
        assert_eq!(net.server(ip(10)).unwrap().log().len(), 1);
        assert_eq!(net.server(ip(20)).unwrap().log().len(), 1);
    }

    #[test]
    fn second_resolution_is_a_cache_hit() {
        let mut net = build_net();
        let link = Link::ideal();
        let egress = [Ipv4Addr::new(203, 0, 113, 1)];
        let mut cache = DnsCache::with_defaults(0);
        let mut rng = DetRng::seed(0);
        {
            let mut up = upstream(&mut net, &link, &egress);
            resolve(
                &mut cache,
                &n("name.cache.example"),
                RecordType::A,
                SimTime::ZERO,
                &mut rng,
                &mut up,
            );
        }
        let mut up = upstream(&mut net, &link, &egress);
        let out = resolve(
            &mut cache,
            &n("name.cache.example"),
            RecordType::A,
            SimTime::ZERO,
            &mut rng,
            &mut up,
        );
        assert!(out.cache_hit);
        assert_eq!(out.upstream_queries, 0);
        assert_eq!(out.latency, SimDuration::ZERO);
    }

    #[test]
    fn cname_restart_costs_separate_target_query() {
        let mut net = build_net();
        let link = Link::ideal();
        let egress = [Ipv4Addr::new(203, 0, 113, 1)];
        let mut cache = DnsCache::with_defaults(0);
        let mut rng = DetRng::seed(0);
        let mut up = upstream(&mut net, &link, &egress);
        let out = resolve(
            &mut cache,
            &n("x-1.cache.example"),
            RecordType::A,
            SimTime::ZERO,
            &mut rng,
            &mut up,
        );
        assert!(out.result.is_success());
        // root, tld, x-1 (CNAME), name (A) = 4.
        assert_eq!(out.upstream_queries, 4);
        let zone_server = net.server(ip(20)).unwrap();
        assert_eq!(zone_server.count_queries_for(&n("x-1.cache.example")), 1);
        assert_eq!(zone_server.count_queries_for(&n("name.cache.example")), 1);
        match out.result {
            ResolveResult::Records(rrs) => {
                assert_eq!(rrs[0].rtype(), RecordType::Cname);
                assert_eq!(rrs.last().unwrap().rtype(), RecordType::A);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cname_target_already_cached_needs_no_target_query() {
        let mut net = build_net();
        let link = Link::ideal();
        let egress = [Ipv4Addr::new(203, 0, 113, 1)];
        let mut cache = DnsCache::with_defaults(0);
        let mut rng = DetRng::seed(0);
        {
            let mut up = upstream(&mut net, &link, &egress);
            resolve(
                &mut cache,
                &n("name.cache.example"),
                RecordType::A,
                SimTime::ZERO,
                &mut rng,
                &mut up,
            );
        }
        net.clear_logs();
        let mut up = upstream(&mut net, &link, &egress);
        let out = resolve(
            &mut cache,
            &n("x-2.cache.example"),
            RecordType::A,
            SimTime::ZERO,
            &mut rng,
            &mut up,
        );
        assert!(out.result.is_success());
        // Only the x-2 CNAME fetch; the target came from cache. This is the
        // exact signal the CNAME-chain enumeration counts.
        assert_eq!(
            net.server(ip(20))
                .unwrap()
                .count_queries_for(&n("name.cache.example")),
            0
        );
    }

    #[test]
    fn names_hierarchy_caches_child_delegation() {
        let mut net = build_net();
        let link = Link::ideal();
        let egress = [Ipv4Addr::new(203, 0, 113, 1)];
        let mut cache = DnsCache::with_defaults(0);
        let mut rng = DetRng::seed(0);
        {
            let mut up = upstream(&mut net, &link, &egress);
            let out = resolve(
                &mut cache,
                &n("x-1.sub.cache.example"),
                RecordType::A,
                SimTime::ZERO,
                &mut rng,
                &mut up,
            );
            assert!(out.result.is_success());
        }
        // Parent (ip 20) saw the referral query once.
        assert_eq!(net.server(ip(20)).unwrap().log().len(), 1);
        net.clear_logs();
        // Second, different name under sub: goes straight to the child.
        let mut up = upstream(&mut net, &link, &egress);
        let out = resolve(
            &mut cache,
            &n("x-2.sub.cache.example"),
            RecordType::A,
            SimTime::ZERO,
            &mut rng,
            &mut up,
        );
        assert!(out.result.is_success());
        assert_eq!(out.upstream_queries, 1);
        assert_eq!(net.server(ip(20)).unwrap().log().len(), 0);
        assert_eq!(net.server(ip(30)).unwrap().log().len(), 1);
    }

    #[test]
    fn nxdomain_is_negatively_cached() {
        let mut net = build_net();
        let link = Link::ideal();
        let egress = [Ipv4Addr::new(203, 0, 113, 1)];
        let mut cache = DnsCache::with_defaults(0);
        let mut rng = DetRng::seed(0);
        {
            let mut up = upstream(&mut net, &link, &egress);
            let out = resolve(
                &mut cache,
                &n("ghost.cache.example"),
                RecordType::A,
                SimTime::ZERO,
                &mut rng,
                &mut up,
            );
            assert_eq!(out.result, ResolveResult::NxDomain);
        }
        net.clear_logs();
        let mut up = upstream(&mut net, &link, &egress);
        let out = resolve(
            &mut cache,
            &n("ghost.cache.example"),
            RecordType::A,
            SimTime::ZERO,
            &mut rng,
            &mut up,
        );
        assert_eq!(out.result, ResolveResult::NxDomain);
        assert_eq!(out.upstream_queries, 0);
    }

    #[test]
    fn nodata_for_wrong_type() {
        let mut net = build_net();
        let link = Link::ideal();
        let egress = [Ipv4Addr::new(203, 0, 113, 1)];
        let mut cache = DnsCache::with_defaults(0);
        let mut rng = DetRng::seed(0);
        let mut up = upstream(&mut net, &link, &egress);
        let out = resolve(
            &mut cache,
            &n("name.cache.example"),
            RecordType::Mx,
            SimTime::ZERO,
            &mut rng,
            &mut up,
        );
        assert_eq!(out.result, ResolveResult::NoData);
    }

    #[test]
    fn total_loss_yields_servfail_with_timeout_latency() {
        let mut net = build_net();
        let link = Link::new(
            cde_netsim::LatencyModel::Constant(SimDuration::from_millis(10)),
            cde_netsim::LossModel::with_rate(1.0),
        );
        let egress = [Ipv4Addr::new(203, 0, 113, 1)];
        let mut cache = DnsCache::with_defaults(0);
        let mut rng = DetRng::seed(0);
        let mut up = upstream(&mut net, &link, &egress);
        let out = resolve(
            &mut cache,
            &n("name.cache.example"),
            RecordType::A,
            SimTime::ZERO,
            &mut rng,
            &mut up,
        );
        assert_eq!(out.result, ResolveResult::ServFail);
        // 4 attempts × 800 ms.
        assert_eq!(out.latency, SimDuration::from_millis(3200));
    }

    #[test]
    fn egress_ips_rotate_across_queries() {
        let mut net = build_net();
        let link = Link::ideal();
        let egress: Vec<Ipv4Addr> = (1..=8).map(|d| Ipv4Addr::new(203, 0, 113, d)).collect();
        let mut cache = DnsCache::with_defaults(0);
        let mut rng = DetRng::seed(3);
        {
            let mut up = upstream(&mut net, &link, &egress);
            for i in 1..=8 {
                resolve(
                    &mut cache,
                    &n(&format!("x-{i}.cache.example")),
                    RecordType::A,
                    SimTime::ZERO,
                    &mut rng,
                    &mut up,
                );
            }
        }
        let seen: std::collections::HashSet<Ipv4Addr> = net
            .server(ip(20))
            .unwrap()
            .log()
            .iter()
            .map(|e| e.from)
            .collect();
        assert!(seen.len() >= 3, "expected several egress IPs, saw {seen:?}");
    }

    #[test]
    fn latency_accumulates_link_delays() {
        let mut net = build_net();
        let link = Link::new(
            cde_netsim::LatencyModel::Constant(SimDuration::from_millis(10)),
            cde_netsim::LossModel::none(),
        );
        let egress = [Ipv4Addr::new(203, 0, 113, 1)];
        let mut cache = DnsCache::with_defaults(0);
        let mut rng = DetRng::seed(0);
        let mut up = upstream(&mut net, &link, &egress);
        let out = resolve(
            &mut cache,
            &n("name.cache.example"),
            RecordType::A,
            SimTime::ZERO,
            &mut rng,
            &mut up,
        );
        // 3 upstream round trips × 20 ms.
        assert_eq!(out.latency, SimDuration::from_millis(60));
    }
}
