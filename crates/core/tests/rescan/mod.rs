//! The three log rescans `CdeInfra` counted with before the `Observer`,
//! copied verbatim as test oracles: each re-reads whole query logs on
//! every call. The address constants are `infra.rs`'s, and
//! `observer_differential` checks that they still match.

// Each test crate that includes this module uses only some of it.
#![allow(dead_code)]

use cde_core::Session;
use cde_dns::Name;
use cde_platform::NameserverNet;
use std::net::Ipv4Addr;

pub const ROOT_ADDR: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
pub const TLD_ADDR: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 10);
pub const ZONE_ADDR: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 20);
pub const SUB_ADDR: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 30);

/// The enumeration count ω: queries for `honey` observed at the main
/// zone server, counted **per query type** (maximum over types).
pub fn count_honey_fetches(net: &NameserverNet, honey: &Name) -> usize {
    let Some(server) = net.server(ZONE_ADDR) else {
        return 0;
    };
    let mut per_type: std::collections::HashMap<cde_dns::RecordType, usize> =
        std::collections::HashMap::new();
    for e in server.log().iter().filter(|e| &e.qname == honey) {
        *per_type.entry(e.qtype).or_insert(0) += 1;
    }
    per_type.values().copied().max().unwrap_or(0)
}

/// Number of queries observed at the main zone server for the
/// *delegation* of a session subzone.
pub fn count_referral_fetches(net: &NameserverNet, session: &Session) -> usize {
    net.server(ZONE_ADDR)
        .map(|s| {
            s.log()
                .iter()
                .filter(|e| e.qname.is_subdomain_of(&session.sub_apex))
                .count()
        })
        .unwrap_or(0)
}

/// Distinct egress addresses observed across all infrastructure servers
/// since the last log clear.
pub fn observed_egress_sources(net: &NameserverNet) -> Vec<Ipv4Addr> {
    let mut out: Vec<Ipv4Addr> = [ZONE_ADDR, SUB_ADDR, TLD_ADDR, ROOT_ADDR]
        .iter()
        .filter_map(|a| net.server(*a))
        .flat_map(|s| s.log().iter().map(|e| e.from))
        .collect();
    out.sort();
    out.dedup();
    out
}
