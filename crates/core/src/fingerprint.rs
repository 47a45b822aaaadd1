//! DNS software fingerprinting via cache behaviour (paper §II-C).
//!
//! "Caches on DNS resolution platforms are often running different DNS
//! software. For distribution and integration of patches it is important
//! to know which software the caches are running." Unlike prior
//! query-pattern fingerprinting (which, as §VI notes, identifies the
//! egress resolver software, not the caches), this classifier probes the
//! *caching behaviour itself*: resolver implementations enforce distinct
//! default positive and negative TTL caps, and those caps are observable
//! from outside by planting long-TTL records and timing their re-fetch.

use crate::access::AccessChannel;
use crate::infra::CdeInfra;
use cde_analysis::coupon::query_budget;
use cde_cache::SoftwareProfile;
use cde_dns::{Name, Ttl};
use cde_netsim::{SimDuration, SimTime};

/// What the fingerprinting probes measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Smallest probed horizon at which a *positive* record the platform
    /// cached had expired (its effective positive-TTL cap); `None` when it
    /// survived every probed horizon.
    pub positive_cap: Option<Ttl>,
    /// Smallest probed horizon at which a cached *negative* answer had
    /// expired; `None` when it survived every probed horizon.
    pub negative_cap: Option<Ttl>,
    /// The software profile matching the measured cap pair, if any.
    pub classified: Option<SoftwareProfile>,
}

/// Options for fingerprinting.
#[derive(Debug, Clone)]
pub struct FingerprintOptions {
    /// Candidate positive-cap horizons, ascending (defaults: 1 day, 1
    /// week — the caps of the profiled software).
    pub positive_candidates: Vec<Ttl>,
    /// Candidate negative-cap horizons, ascending (defaults: 15 min, 1 h,
    /// 3 h).
    pub negative_candidates: Vec<Ttl>,
    /// Assumed cache-count bound (sets per-phase probe budgets).
    pub n_max: u64,
}

impl Default for FingerprintOptions {
    fn default() -> FingerprintOptions {
        FingerprintOptions {
            positive_candidates: vec![Ttl::from_secs(86_400), Ttl::from_secs(604_800)],
            negative_candidates: vec![
                Ttl::from_secs(900),
                Ttl::from_secs(3_600),
                Ttl::from_secs(10_800),
            ],
            n_max: 16,
        }
    }
}

/// Fingerprints the software of the caches behind `access`.
///
/// For each candidate horizon `C`: plant a fresh honey record whose
/// nominal TTL far exceeds `C`, saturate the caches, then re-probe just
/// past `C`. A fetch at the CDE nameserver means the platform expired the
/// record early — its cap is at most `C`. The same procedure with a
/// non-existent name measures the negative cap. The `(positive,
/// negative)` cap pair identifies the software profile.
pub fn fingerprint_software<A: AccessChannel>(
    access: &mut A,
    infra: &mut CdeInfra,
    opts: &FingerprintOptions,
    start: SimTime,
) -> Fingerprint {
    let budget = query_budget(opts.n_max, 0.001);
    let mut now = start;

    // Positive cap: ascending candidates, fresh honey per candidate.
    let mut positive_cap = None;
    for &cand in &opts.positive_candidates {
        let session = infra.new_session_with_ttl(
            access.net_mut(),
            0,
            Ttl::from_secs(cand.as_secs().saturating_mul(8).max(30 * 86_400)),
        );
        for _ in 0..budget {
            let _ = access.trigger(&session.honey, now);
        }
        let seeded = infra.count_honey_fetches(access.net(), &session.honey) as u64;
        let check_at = now + SimDuration::from_secs(cand.as_secs() as u64 + 60);
        for _ in 0..4 {
            let _ = access.trigger(&session.honey, check_at);
        }
        let after = infra.count_honey_fetches(access.net(), &session.honey) as u64;
        now = check_at + SimDuration::from_secs(60);
        if after > seeded {
            positive_cap = Some(cand);
            break;
        }
    }

    // Negative cap: ascending candidates, fresh nonce per candidate. The
    // CDE zone's SOA MINIMUM (1 day) exceeds every candidate, so an early
    // re-fetch can only come from the platform's own negative cap.
    let mut negative_cap = None;
    for &cand in &opts.negative_candidates {
        let nonce = infra.fresh_nonce_name();
        for _ in 0..budget {
            let _ = access.trigger(&nonce, now);
        }
        let seeded = count_nonce_fetches(access, infra, &nonce) as u64;
        let check_at = now + SimDuration::from_secs(cand.as_secs() as u64 + 60);
        for _ in 0..4 {
            let _ = access.trigger(&nonce, check_at);
        }
        let after = count_nonce_fetches(access, infra, &nonce) as u64;
        now = check_at + SimDuration::from_secs(60);
        if after > seeded {
            negative_cap = Some(cand);
            break;
        }
    }

    Fingerprint {
        positive_cap,
        negative_cap,
        classified: classify(positive_cap, negative_cap),
    }
}

fn count_nonce_fetches<A: AccessChannel>(access: &A, infra: &CdeInfra, nonce: &Name) -> usize {
    let zone = access.net().server(infra.zone_server_addr());
    zone.map_or(0, |s| s.count_queries_for(nonce))
}

/// Maps a measured cap pair to a profile when exactly one matches.
pub fn classify(positive: Option<Ttl>, negative: Option<Ttl>) -> Option<SoftwareProfile> {
    match (positive.map(Ttl::as_secs), negative.map(Ttl::as_secs)) {
        (Some(604_800), Some(10_800)) => Some(SoftwareProfile::BindLike),
        (Some(86_400), Some(3_600)) => Some(SoftwareProfile::UnboundLike),
        (Some(86_400), Some(900)) => Some(SoftwareProfile::MsdnsLike),
        (None, None) => Some(SoftwareProfile::DnsmasqLike),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::DirectAccess;
    use cde_netsim::Link;
    use cde_platform::{
        ClusterConfig, NameserverNet, PlatformBuilder, ResolutionPlatform, SelectorKind,
    };
    use cde_probers::DirectProber;
    use std::net::Ipv4Addr;

    const INGRESS: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

    fn build(
        profile: SoftwareProfile,
        caches: usize,
        seed: u64,
    ) -> (ResolutionPlatform, NameserverNet, CdeInfra) {
        let mut net = NameserverNet::new();
        let infra = CdeInfra::install(&mut net);
        let platform = PlatformBuilder::new(seed)
            .ingress(vec![INGRESS])
            .egress(vec![Ipv4Addr::new(192, 0, 3, 1)])
            .cluster_config(ClusterConfig {
                cache_count: caches,
                cache_config: profile.cache_config(),
                selector: SelectorKind::Random,
            })
            .build();
        (platform, net, infra)
    }

    fn fingerprint(profile: SoftwareProfile, caches: usize, seed: u64) -> Fingerprint {
        let (mut platform, mut net, mut infra) = build(profile, caches, seed);
        let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), seed);
        let mut access = DirectAccess::new(&mut prober, &mut platform, INGRESS, &mut net);
        fingerprint_software(
            &mut access,
            &mut infra,
            &FingerprintOptions::default(),
            SimTime::ZERO,
        )
    }

    #[test]
    fn classifies_every_profile_on_single_cache_platforms() {
        for profile in SoftwareProfile::all() {
            let fp = fingerprint(profile, 1, 61);
            assert_eq!(fp.classified, Some(profile), "{profile}: {fp:?}");
        }
    }

    #[test]
    fn classifies_profiles_behind_multiple_caches() {
        for profile in SoftwareProfile::all() {
            let fp = fingerprint(profile, 4, 62);
            assert_eq!(fp.classified, Some(profile), "{profile}: {fp:?}");
        }
    }

    #[test]
    fn measured_caps_match_profile_constants() {
        let fp = fingerprint(SoftwareProfile::UnboundLike, 2, 63);
        assert_eq!(fp.positive_cap, Some(Ttl::from_secs(86_400)));
        assert_eq!(fp.negative_cap, Some(Ttl::from_secs(3_600)));
    }

    #[test]
    fn classify_rejects_ambiguous_pairs() {
        assert_eq!(classify(Some(Ttl::from_secs(604_800)), None), None);
        assert_eq!(classify(None, Some(Ttl::from_secs(900))), None);
        assert_eq!(
            classify(Some(Ttl::from_secs(86_400)), Some(Ttl::from_secs(10_800))),
            None
        );
    }
}
