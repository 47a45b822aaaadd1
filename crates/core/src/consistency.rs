//! TTL-consistency auditing (paper §II-C, first motivating example).
//!
//! Requesting the same record twice within its TTL should cost the
//! resolution platform at most one upstream query — *per cache*. Earlier
//! studies interpreted extra upstream queries as TTL violations; the
//! paper points out they may simply indicate multiple caches. This module
//! separates the two, and additionally detects the two real TTL
//! inconsistencies platforms introduce by clamping (§II-C footnote 2):
//!
//! * **early refresh** — the platform caps TTLs below the record's value
//!   (a `max_ttl` clamp), so fetches recur within the nominal TTL even
//!   after every cache holds the record;
//! * **stale serving** — the platform raises TTLs above the record's
//!   value (a `min_ttl` clamp), so the record keeps being served from
//!   cache after it should have expired.

use crate::access::AccessChannel;
use crate::enumerate::{enumerate_identical, EnumerateOptions};
use crate::infra::CdeInfra;
use cde_analysis::coupon::query_budget;
use cde_dns::Ttl;
use cde_netsim::{SimDuration, SimTime};

/// The audit's verdict on one platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TtlVerdict {
    /// Multiple upstream fetches were fully explained by the cache count;
    /// TTLs are respected in both directions.
    Consistent,
    /// Fetches recurred within the record's TTL beyond what the cache
    /// count explains: the platform expires records early.
    EarlyRefresh,
    /// The record kept being answered from cache after its TTL expired:
    /// the platform serves stale records.
    StaleServing,
}

impl std::fmt::Display for TtlVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TtlVerdict::Consistent => write!(f, "consistent"),
            TtlVerdict::EarlyRefresh => write!(f, "early-refresh"),
            TtlVerdict::StaleServing => write!(f, "stale-serving"),
        }
    }
}

/// Full audit report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsistencyReport {
    /// Caches counted in the warm-up phase — the number of upstream
    /// fetches that is *expected and consistent* (the paper's correction
    /// to naive TTL studies).
    pub caches: u64,
    /// Extra fetches observed while re-probing within the TTL (0 for a
    /// consistent platform).
    pub refetches_within_ttl: u64,
    /// Fetches observed when probing after expiry (≈ `caches` for a
    /// consistent platform; 0 under stale serving).
    pub fetches_after_expiry: u64,
    /// Record TTL used by the audit.
    pub record_ttl: Ttl,
    /// The verdict.
    pub verdict: TtlVerdict,
}

/// Options for the audit.
#[derive(Debug, Clone, Copy)]
pub struct ConsistencyOptions {
    /// TTL given to the audit's honey record.
    pub record_ttl: Ttl,
    /// Assumed upper bound on the cache count (sets probe budgets).
    pub n_max: u64,
    /// Number of within-TTL re-probe rounds.
    pub recheck_rounds: u64,
}

impl Default for ConsistencyOptions {
    fn default() -> ConsistencyOptions {
        ConsistencyOptions {
            record_ttl: Ttl::from_secs(600),
            n_max: 16,
            recheck_rounds: 3,
        }
    }
}

/// Audits one platform's TTL behaviour through `access`.
///
/// Phase 1 (warm-up, t≈0): enumerate the caches with a generous budget —
/// these fetches are the legitimate per-cache first misses.
/// Phase 2 (within TTL): re-probe at several points strictly inside the
/// TTL; any further fetch is an early refresh.
/// Phase 3 (after expiry): probe past the TTL; a consistent platform
/// re-fetches (per probed cache), a stale-serving one stays silent.
pub fn audit_ttl_consistency<A: AccessChannel>(
    access: &mut A,
    infra: &mut CdeInfra,
    opts: ConsistencyOptions,
    start: SimTime,
) -> ConsistencyReport {
    let session = infra.new_session_with_ttl(access.net_mut(), 0, opts.record_ttl);
    let budget = query_budget(opts.n_max, 0.001);
    let ttl_span = SimDuration::from_secs(opts.record_ttl.as_secs() as u64);

    // Phase 1: warm-up enumeration at t ≈ 0.
    let warmup = enumerate_identical(
        access,
        infra,
        &session,
        EnumerateOptions {
            probes: budget,
            redundancy: 1,
            gap: SimDuration::from_millis(5),
        },
        start,
    );
    let caches = warmup.observed;

    // Phase 2: probes spread strictly inside the TTL window. The warm-up
    // itself stays within a few seconds, far from the TTL.
    let baseline = infra.count_honey_fetches(access.net(), &session.honey) as u64;
    for round in 1..=opts.recheck_rounds {
        // Sit at 1/4, 2/4, 3/4 ... of the TTL (never reaching it).
        let at = start + ttl_span * round / (opts.recheck_rounds + 1);
        for _ in 0..budget.min(2 * opts.n_max) {
            let _ = access.trigger(&session.honey, at);
        }
    }
    let before_expiry_probes = infra.count_honey_fetches(access.net(), &session.honey) as u64;
    let refetches_within_ttl = before_expiry_probes - baseline;

    // Phase 3: after expiry (half a TTL past the end, measured from the
    // last phase-2 probe so every legitimate entry has lapsed).
    let after = start + ttl_span * 2 + ttl_span / 2;
    for _ in 0..budget.min(2 * opts.n_max) {
        let _ = access.trigger(&session.honey, after);
    }
    let fetches_after_expiry =
        infra.count_honey_fetches(access.net(), &session.honey) as u64 - before_expiry_probes;

    let verdict = if refetches_within_ttl > 0 {
        TtlVerdict::EarlyRefresh
    } else if fetches_after_expiry == 0 {
        TtlVerdict::StaleServing
    } else {
        TtlVerdict::Consistent
    };

    ConsistencyReport {
        caches,
        refetches_within_ttl,
        fetches_after_expiry,
        record_ttl: opts.record_ttl,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::DirectAccess;
    use cde_cache::CacheConfig;
    use cde_netsim::Link;
    use cde_platform::{
        ClusterConfig, NameserverNet, PlatformBuilder, ResolutionPlatform, SelectorKind,
    };
    use cde_probers::DirectProber;
    use std::net::Ipv4Addr;

    const INGRESS: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

    fn build(
        caches: usize,
        cache_config: CacheConfig,
        seed: u64,
    ) -> (ResolutionPlatform, NameserverNet, CdeInfra) {
        let mut net = NameserverNet::new();
        let infra = CdeInfra::install(&mut net);
        let platform = PlatformBuilder::new(seed)
            .ingress(vec![INGRESS])
            .egress(vec![Ipv4Addr::new(192, 0, 3, 1)])
            .cluster_config(ClusterConfig {
                cache_count: caches,
                cache_config,
                selector: SelectorKind::Random,
            })
            .build();
        (platform, net, infra)
    }

    fn audit(
        platform: &mut ResolutionPlatform,
        net: &mut NameserverNet,
        infra: &mut CdeInfra,
    ) -> ConsistencyReport {
        let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), 1);
        let mut access = DirectAccess::new(&mut prober, platform, INGRESS, net);
        audit_ttl_consistency(
            &mut access,
            infra,
            ConsistencyOptions::default(),
            SimTime::ZERO,
        )
    }

    #[test]
    fn multi_cache_consistent_platform_is_not_flagged() {
        // The paper's central point: 4 upstream fetches for one record is
        // NOT a TTL violation when there are 4 caches.
        let (mut platform, mut net, mut infra) = build(4, CacheConfig::default(), 51);
        let report = audit(&mut platform, &mut net, &mut infra);
        assert_eq!(report.caches, 4);
        assert_eq!(report.refetches_within_ttl, 0);
        assert!(report.fetches_after_expiry >= 1);
        assert_eq!(report.verdict, TtlVerdict::Consistent);
    }

    #[test]
    fn max_ttl_clamp_is_flagged_as_early_refresh() {
        // Platform caps TTLs at 60 s; our record claims 600 s. Probes at
        // 150/300/450 s keep triggering fetches.
        let (mut platform, mut net, mut infra) = build(
            2,
            CacheConfig {
                max_ttl: Ttl::from_secs(60),
                ..CacheConfig::default()
            },
            52,
        );
        let report = audit(&mut platform, &mut net, &mut infra);
        assert!(report.refetches_within_ttl > 0);
        assert_eq!(report.verdict, TtlVerdict::EarlyRefresh);
    }

    #[test]
    fn min_ttl_clamp_is_flagged_as_stale_serving() {
        // Platform lifts TTLs to at least 86400 s; our 600 s record is
        // still served at t = 1500 s.
        let (mut platform, mut net, mut infra) = build(
            2,
            CacheConfig {
                min_ttl: Ttl::from_secs(86_400),
                ..CacheConfig::default()
            },
            53,
        );
        let report = audit(&mut platform, &mut net, &mut infra);
        assert_eq!(report.refetches_within_ttl, 0);
        assert_eq!(report.fetches_after_expiry, 0);
        assert_eq!(report.verdict, TtlVerdict::StaleServing);
    }

    #[test]
    fn single_cache_platform_is_consistent() {
        let (mut platform, mut net, mut infra) = build(1, CacheConfig::default(), 54);
        let report = audit(&mut platform, &mut net, &mut infra);
        assert_eq!(report.caches, 1);
        assert_eq!(report.verdict, TtlVerdict::Consistent);
    }

    #[test]
    fn audit_counts_caches_like_plain_enumeration() {
        let (mut platform, mut net, mut infra) = build(8, CacheConfig::default(), 55);
        let report = audit(&mut platform, &mut net, &mut infra);
        assert_eq!(report.caches, 8);
        assert_eq!(report.record_ttl, Ttl::from_secs(600));
    }

    #[test]
    fn verdict_display_is_terse() {
        assert_eq!(TtlVerdict::Consistent.to_string(), "consistent");
        assert_eq!(TtlVerdict::EarlyRefresh.to_string(), "early-refresh");
        assert_eq!(TtlVerdict::StaleServing.to_string(), "stale-serving");
    }

    #[test]
    fn audits_are_reproducible() {
        let run = || {
            let (mut platform, mut net, mut infra) = build(3, CacheConfig::default(), 56);
            audit(&mut platform, &mut net, &mut infra)
        };
        assert_eq!(run(), run());
    }
}
