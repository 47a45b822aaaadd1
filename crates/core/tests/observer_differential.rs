//! Differential oracle for [`cde_core::Observer`].
//!
//! The three whole-log rescans `CdeInfra` counted with before the
//! `Observer` are kept in `rescan/` as oracles. Seeded streams of query
//! log entries go to all four infrastructure servers, and after every
//! append one long-lived `Observer`'s tallies must equal the rescans:
//! honey fetches (ω), referral fetches and the distinct egress sources.
//! Clears that leave a log shorter than the `Observer`'s cursor are
//! covered, and so is a 256-cache sequential enumeration.

mod rescan;

use cde_analysis::coupon::query_budget;
use cde_core::access::{AccessChannel, DirectAccess, TriggerOutcome};
use cde_core::enumerate::EnumerateOptions;
use cde_core::{enumerate_sequential, CdeInfra, Observer, Session};
use cde_dns::{Name, RecordType};
use cde_netsim::{DetRng, Link, SimTime};
use cde_platform::{NameserverNet, PlatformBuilder, QueryLogEntry, SelectorKind};
use cde_probers::DirectProber;
use rand::Rng;
use std::net::Ipv4Addr;

const SERVERS: [Ipv4Addr; 4] = [
    rescan::ROOT_ADDR,
    rescan::TLD_ADDR,
    rescan::ZONE_ADDR,
    rescan::SUB_ADDR,
];

/// Asserts that `observer`, brought up to date, tallies what the rescans
/// report for `session`.
fn assert_matches_rescans(observer: &mut Observer, net: &NameserverNet, session: &Session) {
    let tallies = observer.update(net);
    let honey = rescan::count_honey_fetches(net, &session.honey);
    assert_eq!(tallies.honey_fetches(), honey, "honey fetches");
    let referrals = rescan::count_referral_fetches(net, session);
    assert_eq!(tallies.referral_fetches(), referrals, "referral fetches");
    let egress = rescan::observed_egress_sources(net);
    assert_eq!(
        tallies.egress_sources(),
        egress.as_slice(),
        "egress sources"
    );
}

/// Asserts that the one-shot `CdeInfra` reads agree with the rescans too.
fn assert_one_shots_match(infra: &CdeInfra, net: &NameserverNet, session: &Session) {
    let honey = rescan::count_honey_fetches(net, &session.honey);
    assert_eq!(infra.count_honey_fetches(net, &session.honey), honey);
    let referrals = rescan::count_referral_fetches(net, session);
    assert_eq!(infra.count_referral_fetches(net, session), referrals);
    assert_eq!(
        infra.observed_egress_sources(net),
        rescan::observed_egress_sources(net)
    );
}

/// The names a stream draws from: the watched session's honey (also in
/// upper case), farm, subzone apex and subzone names; another session's
/// honey and subzone names; nonces; and names that only look related.
fn name_pool(infra: &mut CdeInfra, net: &mut NameserverNet, watched: &Session) -> Vec<Name> {
    let other = infra.new_session(net, 3);
    let mut names = vec![
        watched.honey.clone(),
        watched.honey.to_string().to_uppercase().parse().unwrap(),
        watched.sub_apex.clone(),
        other.honey.clone(),
        other.sub_apex.clone(),
        infra.apex().clone(),
        // A label that extends the subzone apex's, not a name under it.
        infra
            .apex()
            .prepend_label(format!(
                "x{}",
                watched.sub_apex.to_string().split('.').next().unwrap()
            ))
            .unwrap(),
    ];
    names.extend(watched.farm.iter().cloned());
    names.extend(watched.sub_farm.iter().cloned());
    names.extend(other.sub_farm.iter().cloned());
    names.extend((0..3).map(|_| infra.fresh_nonce_name()));
    names
}

/// Appends one random entry to a random infrastructure server's log.
fn append(
    rng: &mut DetRng,
    net: &mut NameserverNet,
    names: &[Name],
    sources: &[Ipv4Addr],
    at: u64,
) {
    // The main zone server sees most of the traffic, as in a measurement.
    let addr = match rng.gen_range(0..10u32) {
        0 => rescan::ROOT_ADDR,
        1 => rescan::TLD_ADDR,
        2 | 3 => rescan::SUB_ADDR,
        _ => rescan::ZONE_ADDR,
    };
    // Honey queries of three types, as an MTA asks them (§III-B).
    let qtype = [RecordType::A, RecordType::Txt, RecordType::Mx][rng.gen_range(0..3usize)];
    let entry = QueryLogEntry {
        at: SimTime::from_micros(at),
        from: sources[rng.gen_range(0..sources.len())],
        qname: names[rng.gen_range(0..names.len())].clone(),
        qtype,
        edns: None,
    };
    net.server_mut(addr).unwrap().record_query(entry);
}

#[test]
fn the_oracle_addresses_are_the_infrastructures() {
    let mut net = NameserverNet::new();
    let infra = CdeInfra::install(&mut net);
    assert_eq!(infra.zone_server_addr(), rescan::ZONE_ADDR);
    assert_eq!(infra.sub_server_addr(), rescan::SUB_ADDR);
    assert_eq!(net.root_addr(), rescan::ROOT_ADDR);
    let mut addrs: Vec<Ipv4Addr> = net.servers().map(|s| s.addr()).collect();
    addrs.sort();
    let mut want = SERVERS.to_vec();
    want.sort();
    assert_eq!(addrs, want);
}

#[test]
fn seeded_streams_match_the_rescans_after_every_append() {
    let mut clears = 0;
    for seed in 0..48u64 {
        let mut rng = DetRng::seed(0x0b5e_0000 + seed);
        let mut net = NameserverNet::new();
        let mut infra = CdeInfra::install(&mut net);
        let watched = infra.new_session(&mut net, 4);
        let names = name_pool(&mut infra, &mut net, &watched);
        // 1 to 300 distinct sources, sometimes all of them in one stream.
        let pool = if seed % 4 == 0 {
            300
        } else {
            rng.gen_range(1..=300u32)
        };
        let sources: Vec<Ipv4Addr> = (0..pool).map(|i| Ipv4Addr::from(0xc000_0300 + i)).collect();
        let mut observer = infra.observer(&watched);
        for at in 0..rng.gen_range(200..600u64) {
            append(&mut rng, &mut net, &names, &sources, at);
            assert_matches_rescans(&mut observer, &net, &watched);
            if rng.gen_bool(0.005) {
                // A clear between measurement phases: every log, or one.
                if rng.gen_bool(0.5) {
                    infra.clear_observations(&mut net);
                } else {
                    let addr = SERVERS[rng.gen_range(0..4usize)];
                    net.server_mut(addr).unwrap().clear_log();
                }
                clears += 1;
                assert_matches_rescans(&mut observer, &net, &watched);
            }
        }
        assert_one_shots_match(&infra, &net, &watched);
    }
    assert!(clears >= 10, "only {clears} clears exercised");
}

#[test]
fn a_clear_below_the_cursor_starts_the_tallies_again() {
    let mut rng = DetRng::seed(7);
    let mut net = NameserverNet::new();
    let mut infra = CdeInfra::install(&mut net);
    let watched = infra.new_session(&mut net, 2);
    let names = name_pool(&mut infra, &mut net, &watched);
    let sources: Vec<Ipv4Addr> = (1..=5).map(|d| Ipv4Addr::new(192, 0, 3, d)).collect();
    let mut observer = infra.observer(&watched);
    for at in 0..400 {
        append(&mut rng, &mut net, &names, &sources, at);
    }
    assert_matches_rescans(&mut observer, &net, &watched);
    assert!(observer.honey_fetches() > 0 && observer.referral_fetches() > 0);

    // One server cleared and refilled, but still shorter than its cursor:
    // the tallies restart from the other servers' whole logs.
    let zone = net.server_mut(rescan::ZONE_ADDR).unwrap();
    let cursor = zone.log().len();
    zone.clear_log();
    for at in 0..3 {
        append(&mut rng, &mut net, &names, &sources, 1_000 + at);
    }
    assert!(net.server(rescan::ZONE_ADDR).unwrap().log().len() < cursor);
    assert_matches_rescans(&mut observer, &net, &watched);

    // Every log cleared: all three tallies read zero again.
    infra.clear_observations(&mut net);
    let tallies = observer.update(&net);
    assert_eq!(tallies.honey_fetches(), 0);
    assert_eq!(tallies.referral_fetches(), 0);
    assert!(tallies.egress_sources().is_empty());
    for at in 0..50 {
        append(&mut rng, &mut net, &names, &sources, 2_000 + at);
        assert_matches_rescans(&mut observer, &net, &watched);
    }
}

/// A direct channel that checks a long-lived `Observer` against the
/// rescans after every probe.
struct Checked<'a> {
    inner: DirectAccess<'a>,
    observer: Observer,
    session: Session,
}

impl AccessChannel for Checked<'_> {
    fn trigger(&mut self, qname: &Name, now: SimTime) -> TriggerOutcome {
        let outcome = self.inner.trigger(qname, now);
        assert_matches_rescans(&mut self.observer, self.inner.net(), &self.session);
        outcome
    }

    fn net(&self) -> &NameserverNet {
        self.inner.net()
    }

    fn net_mut(&mut self) -> &mut NameserverNet {
        self.inner.net_mut()
    }
}

#[test]
fn a_256_cache_sequential_enumeration_matches_the_rescans() {
    let n = 256;
    let ingress = Ipv4Addr::new(192, 0, 2, 1);
    let mut net = NameserverNet::new();
    let mut infra = CdeInfra::install(&mut net);
    let mut platform = PlatformBuilder::new(256)
        .ingress(vec![ingress])
        .egress((1..=16).map(|d| Ipv4Addr::new(192, 0, 3, d)).collect())
        .cluster(n, SelectorKind::Random)
        .build();
    let session = infra.new_session(&mut net, 0);
    let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), 256);
    let observer = infra.observer(&session);
    let mut access = Checked {
        inner: DirectAccess::new(&mut prober, &mut platform, ingress, &mut net),
        observer,
        session: session.clone(),
    };
    let opts = EnumerateOptions::with_probes(query_budget(n as u64, 0.001));
    let r = enumerate_sequential(&mut access, &infra, &session, opts, 0.001, SimTime::ZERO);
    let observed = rescan::count_honey_fetches(access.net(), &session.honey);
    assert_eq!(r.enumeration.observed, observed as u64);
    assert_eq!(observed, n);
    assert_matches_rescans(&mut access.observer, access.inner.net(), &session);
    assert_one_shots_match(&infra, access.inner.net(), &session);
}
