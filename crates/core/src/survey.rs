//! Whole-platform surveys: the measurement pipeline behind §V's figures.
//!
//! A survey takes the externally visible facts about a network — its
//! ingress addresses — and produces everything the paper reports per
//! network: the ingress→cluster mapping, the cache count per cluster and
//! in total, and the discovered egress addresses. The pipeline never reads
//! platform ground truth; validation code compares afterwards.

use crate::access::{AccessChannel, DirectAccess};
use crate::enumerate::{enumerate_identical, EnumerateOptions, Enumeration};
use crate::infra::CdeInfra;
use crate::mapping::{map_ingress_to_clusters, probe_egress, IngressMapping, MappingOptions};
use crate::planner::ProbePlan;
use cde_netsim::{SimDuration, SimTime};
use cde_platform::{NameserverNet, ResolutionPlatform};
use cde_probers::DirectProber;
use std::net::Ipv4Addr;

/// Options for a full survey.
#[derive(Debug, Clone, Copy)]
pub struct SurveyOptions {
    /// Initial assumed cache-count bound; doubled adaptively when the
    /// measurement saturates it.
    pub initial_n_max: u64,
    /// Hard ceiling for the adaptive escalation.
    pub n_max_ceiling: u64,
    /// Loss rate used for planning (measure it first via
    /// [`crate::planner::measure_loss`]).
    pub loss: f64,
    /// Consecutive probes with no new egress address before egress
    /// discovery stops.
    pub egress_patience: u64,
    /// Mapping options for multi-ingress platforms.
    pub mapping: MappingOptions,
}

impl Default for SurveyOptions {
    fn default() -> SurveyOptions {
        SurveyOptions {
            initial_n_max: 4,
            n_max_ceiling: 256,
            loss: 0.0,
            egress_patience: 24,
            mapping: MappingOptions::default(),
        }
    }
}

/// Everything a survey learns about one platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlatformSurvey {
    /// Ingress addresses surveyed (input).
    pub ingress_ips: Vec<Ipv4Addr>,
    /// Discovered ingress→cluster grouping.
    pub mapping: IngressMapping,
    /// Cache count measured per discovered cluster.
    pub caches_per_cluster: Vec<u64>,
    /// Total caches across clusters.
    pub total_caches: u64,
    /// Distinct egress addresses observed.
    pub egress_ips: Vec<Ipv4Addr>,
}

impl PlatformSurvey {
    /// Number of ingress addresses surveyed.
    pub fn ingress_count(&self) -> usize {
        self.ingress_ips.len()
    }

    /// Number of egress addresses discovered.
    pub fn egress_count(&self) -> usize {
        self.egress_ips.len()
    }
}

/// Adaptive enumeration: grows the assumed bound until the estimate fits
/// comfortably inside it, so no a-priori knowledge of `n` is needed.
pub fn enumerate_adaptive<A: AccessChannel>(
    access: &mut A,
    infra: &mut CdeInfra,
    opts: &SurveyOptions,
    start: SimTime,
) -> Enumeration {
    let span = cde_telemetry::global().begin_campaign("enumerate_adaptive", 0);
    let mut n_max = opts.initial_n_max.max(1);
    let mut now = start;
    loop {
        span.note("n_max", n_max);
        let plan = ProbePlan::for_target(n_max, opts.loss);
        let session = infra.new_session(access.net_mut(), 0);
        let e = enumerate_identical(
            access,
            infra,
            &session,
            EnumerateOptions {
                probes: plan.probes,
                redundancy: plan.redundancy,
                gap: SimDuration::from_millis(10),
            },
            now,
        );
        now += SimDuration::from_secs(1);
        if e.estimated * 2 <= n_max || n_max >= opts.n_max_ceiling {
            span.note("estimated_caches", e.estimated);
            span.end(e.probes, e.delivered, e.probes.saturating_sub(e.delivered));
            return e;
        }
        n_max = (n_max * 4).min(opts.n_max_ceiling);
    }
}

/// Adaptive egress discovery: probes fresh nonces until `patience`
/// consecutive probes reveal no new egress address.
pub fn discover_egress_adaptive<A: AccessChannel>(
    access: &mut A,
    infra: &mut CdeInfra,
    patience: u64,
    start: SimTime,
) -> Vec<Ipv4Addr> {
    let span = cde_telemetry::global().begin_campaign("discover_egress", 0);
    let (mut known, mut quiet) = (0, 0u64);
    let quiet_rule = |seen: usize| {
        quiet = if seen > known { 0 } else { quiet + 1 };
        known = known.max(seen);
        // Scale the quiet threshold with the pool discovered so far:
        // when k of E addresses are known, finding the next takes
        // ~E/(E−k) probes, so a fixed patience under-covers large
        // pools (coupon-collector tail).
        quiet >= patience.max(4 * known as u64)
    };
    // Bound total work: even enormous pools finish.
    let gap = SimDuration::from_millis(10);
    let (found, delivered) = probe_egress(access, infra, start, gap, 100_000, quiet_rule);
    span.note("egress_discovered", found.egress_ips.len() as u64);
    span.end(found.probes, delivered, found.probes - delivered);
    found.egress_ips
}

/// Runs the full pipeline against one platform over direct access.
pub fn survey_platform(
    prober: &mut DirectProber,
    platform: &mut ResolutionPlatform,
    net: &mut NameserverNet,
    infra: &mut CdeInfra,
    ingress: &[Ipv4Addr],
    opts: &SurveyOptions,
    start: SimTime,
) -> PlatformSurvey {
    assert!(!ingress.is_empty(), "survey needs at least one ingress");
    let span = cde_telemetry::global().begin_campaign("survey_platform", ingress.len() as u64);
    // 0. Pre-enumerate through the first ingress so the mapping phase can
    // seed honey records proportionally to the real cache count —
    // under-seeding would leave caches uncovered and false-split clusters.
    let pre = {
        let mut access = DirectAccess::new(prober, platform, ingress[0], net);
        enumerate_adaptive(&mut access, infra, opts, start)
    };
    let mut mapping_opts = opts.mapping;
    mapping_opts.seeds_per_pivot = mapping_opts.seeds_per_pivot.max(6 * pre.estimated.max(1));

    // 1. Group ingress addresses into cache clusters.
    let mapping = if ingress.len() > 1 {
        map_ingress_to_clusters(prober, platform, net, infra, ingress, mapping_opts, start)
    } else {
        IngressMapping {
            clusters: vec![vec![ingress[0]]],
            queries_spent: 0,
        }
    };

    // 2. Enumerate caches behind one representative ingress per cluster.
    let mut caches_per_cluster = Vec::with_capacity(mapping.clusters.len());
    let mut now = start + SimDuration::from_secs(5);
    for cluster in &mapping.clusters {
        let representative = cluster[0];
        let mut access = DirectAccess::new(prober, platform, representative, net);
        let e = enumerate_adaptive(&mut access, infra, opts, now);
        caches_per_cluster.push(e.estimated);
        now += SimDuration::from_secs(5);
    }

    // 3. Discover egress addresses through the first ingress.
    let mut access = DirectAccess::new(prober, platform, ingress[0], net);
    let egress_ips = discover_egress_adaptive(&mut access, infra, opts.egress_patience, now);

    let total_caches: u64 = caches_per_cluster.iter().sum();
    span.note("clusters", mapping.cluster_count() as u64);
    span.note("total_caches", total_caches);
    span.note("egress_discovered", egress_ips.len() as u64);
    span.end(ingress.len() as u64, ingress.len() as u64, 0);
    PlatformSurvey {
        ingress_ips: ingress.to_vec(),
        total_caches,
        caches_per_cluster,
        mapping,
        egress_ips,
    }
}

/// Convenience: checks a survey against the platform's ground truth,
/// returning a list of human-readable discrepancies (empty = perfect).
pub fn validate_survey(survey: &PlatformSurvey, platform: &ResolutionPlatform) -> Vec<String> {
    let truth = platform.ground_truth();
    let mut issues = Vec::new();
    if survey.mapping.cluster_count() != truth.cluster_cache_counts.len() {
        issues.push(format!(
            "cluster count: measured {}, truth {}",
            survey.mapping.cluster_count(),
            truth.cluster_cache_counts.len()
        ));
    }
    if survey.total_caches != truth.total_caches() as u64 {
        issues.push(format!(
            "total caches: measured {}, truth {}",
            survey.total_caches,
            truth.total_caches()
        ));
    }
    let measured_egress: std::collections::BTreeSet<Ipv4Addr> =
        survey.egress_ips.iter().copied().collect();
    let truth_egress: std::collections::BTreeSet<Ipv4Addr> =
        truth.egress_ips.iter().copied().collect();
    if measured_egress != truth_egress {
        issues.push(format!(
            "egress: measured {} addresses, truth {}",
            measured_egress.len(),
            truth_egress.len()
        ));
    }
    issues
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::DirectAccess;
    use cde_netsim::{LatencyModel, Link, LossModel};
    use cde_platform::{PlatformBuilder, SelectorKind};
    use cde_telemetry::EventKind;

    fn ing(d: u8) -> Ipv4Addr {
        Ipv4Addr::new(192, 0, 2, d)
    }

    #[test]
    fn survey_recovers_simple_platform_exactly() {
        let mut net = NameserverNet::new();
        let mut infra = CdeInfra::install(&mut net);
        let mut platform = PlatformBuilder::new(71)
            .ingress(vec![ing(1)])
            .egress((1..=3).map(|d| Ipv4Addr::new(192, 0, 3, d)).collect())
            .cluster(3, SelectorKind::Random)
            .build();
        let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), 1);
        let survey = survey_platform(
            &mut prober,
            &mut platform,
            &mut net,
            &mut infra,
            &[ing(1)],
            &SurveyOptions::default(),
            SimTime::ZERO,
        );
        assert_eq!(survey.total_caches, 3);
        assert_eq!(survey.egress_count(), 3);
        assert!(validate_survey(&survey, &platform).is_empty());
    }

    #[test]
    fn survey_recovers_multi_cluster_platform() {
        let mut net = NameserverNet::new();
        let mut infra = CdeInfra::install(&mut net);
        let mut platform = PlatformBuilder::new(72)
            .ingress((1..=4).map(ing).collect())
            .egress((1..=5).map(|d| Ipv4Addr::new(192, 0, 3, d)).collect())
            .cluster(2, SelectorKind::Random)
            .cluster(4, SelectorKind::Random)
            .ingress_assignment(vec![0, 0, 1, 1])
            .build();
        let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), 2);
        let survey = survey_platform(
            &mut prober,
            &mut platform,
            &mut net,
            &mut infra,
            &(1..=4).map(ing).collect::<Vec<_>>(),
            &SurveyOptions::default(),
            SimTime::ZERO,
        );
        assert_eq!(survey.mapping.cluster_count(), 2);
        let mut counts = survey.caches_per_cluster.clone();
        counts.sort_unstable();
        assert_eq!(counts, vec![2, 4]);
        assert!(validate_survey(&survey, &platform).is_empty());
    }

    #[test]
    fn adaptive_enumeration_escalates_past_initial_bound() {
        let mut net = NameserverNet::new();
        let mut infra = CdeInfra::install(&mut net);
        let mut platform = PlatformBuilder::new(73)
            .ingress(vec![ing(1)])
            .egress(vec![Ipv4Addr::new(192, 0, 3, 1)])
            .cluster(24, SelectorKind::Random) // well past initial_n_max = 4
            .build();
        let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), 3);
        let mut access = DirectAccess::new(&mut prober, &mut platform, ing(1), &mut net);
        let e = enumerate_adaptive(
            &mut access,
            &mut infra,
            &SurveyOptions::default(),
            SimTime::ZERO,
        );
        assert_eq!(e.estimated, 24);
    }

    #[test]
    fn egress_discovery_stops_after_patience() {
        let mut net = NameserverNet::new();
        let mut infra = CdeInfra::install(&mut net);
        let mut platform = PlatformBuilder::new(74)
            .ingress(vec![ing(1)])
            .egress(vec![Ipv4Addr::new(192, 0, 3, 1)]) // single egress
            .cluster(1, SelectorKind::Random)
            .build();
        let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), 4);
        let mut access = DirectAccess::new(&mut prober, &mut platform, ing(1), &mut net);
        let egress = discover_egress_adaptive(&mut access, &mut infra, 8, SimTime::ZERO);
        assert_eq!(egress, vec![Ipv4Addr::new(192, 0, 3, 1)]);
    }

    /// Held by the tests that install a process-global hub, so one test's
    /// hub is not replaced while its spans are open.
    static GLOBAL_HUB: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn survey_emits_campaign_spans_when_hub_installed() {
        // Installs a process-global hub; other tests may emit into it
        // concurrently, so assertions are containment, not equality.
        let _hub = GLOBAL_HUB.lock().unwrap_or_else(|e| e.into_inner());
        let hub = cde_telemetry::TelemetryHub::new(64 * 1024);
        cde_telemetry::install_global(std::sync::Arc::clone(&hub));
        let mut net = NameserverNet::new();
        let mut infra = CdeInfra::install(&mut net);
        let mut platform = PlatformBuilder::new(76)
            .ingress(vec![ing(1)])
            .egress(vec![Ipv4Addr::new(192, 0, 3, 1)])
            .cluster(2, SelectorKind::Random)
            .build();
        let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), 6);
        let survey = survey_platform(
            &mut prober,
            &mut platform,
            &mut net,
            &mut infra,
            &[ing(1)],
            &SurveyOptions::default(),
            SimTime::ZERO,
        );
        assert_eq!(survey.total_caches, 2);
        let events = hub.drain();
        let begins: Vec<&str> = events
            .iter()
            .filter_map(|e| match e.kind {
                cde_telemetry::EventKind::CampaignBegin { name, .. } => Some(name),
                _ => None,
            })
            .collect();
        assert!(begins.contains(&"survey_platform"), "spans: {begins:?}");
        assert!(begins.contains(&"enumerate_adaptive"));
        assert!(begins.contains(&"discover_egress"));
        let notes: Vec<(&str, u64)> = events
            .iter()
            .filter_map(|e| match e.kind {
                cde_telemetry::EventKind::CampaignNote { key, value } => Some((key, value)),
                _ => None,
            })
            .collect();
        assert!(notes.contains(&("total_caches", 2)), "notes: {notes:?}");
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, cde_telemetry::EventKind::CampaignEnd { .. })),
            "survey spans must close"
        );
    }

    #[test]
    fn egress_span_ends_with_probe_outcomes() {
        // Over a lossy link some nonce probes time out; the span must end
        // with delivered + lost = sent, not with the address count.
        let _hub = GLOBAL_HUB.lock().unwrap_or_else(|e| e.into_inner());
        let hub = cde_telemetry::TelemetryHub::new(64 * 1024);
        cde_telemetry::install_global(std::sync::Arc::clone(&hub));
        let mut net = NameserverNet::new();
        let mut infra = CdeInfra::install(&mut net);
        let mut platform = PlatformBuilder::new(77)
            .ingress(vec![ing(1)])
            .egress((1..=8).map(|d| Ipv4Addr::new(192, 0, 3, d)).collect())
            .cluster(2, SelectorKind::Random)
            .build();
        let lossy = Link::new(
            LatencyModel::Constant(SimDuration::from_millis(10)),
            LossModel::with_rate(0.3),
        );
        let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), lossy, 7);
        let mut access = DirectAccess::new(&mut prober, &mut platform, ing(1), &mut net);
        let egress = discover_egress_adaptive(&mut access, &mut infra, 8, SimTime::ZERO);
        assert!(!egress.is_empty());
        // Other tests may run egress discovery into this hub too, over
        // ideal links: every span must add up, and one must show loss.
        let events = hub.drain();
        let spans: Vec<u32> = events
            .iter()
            .filter(|e| {
                matches!(e.kind, EventKind::CampaignBegin { name, .. } if name == "discover_egress")
            })
            .map(|e| e.campaign)
            .collect();
        let ends: Vec<(u64, u64, u64)> = events
            .iter()
            .filter(|e| spans.contains(&e.campaign))
            .filter_map(|e| match e.kind {
                EventKind::CampaignEnd {
                    completed,
                    answered,
                    timeouts,
                } => Some((completed, answered, timeouts)),
                _ => None,
            })
            .collect();
        assert!(!ends.is_empty(), "the egress span never ended");
        for &(completed, answered, timeouts) in &ends {
            assert_eq!(answered + timeouts, completed, "{ends:?}");
        }
        assert!(
            ends.iter().any(|&(_, _, timeouts)| timeouts > 0),
            "{ends:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one ingress")]
    fn empty_ingress_rejected() {
        let mut net = NameserverNet::new();
        let mut infra = CdeInfra::install(&mut net);
        let mut platform = PlatformBuilder::new(75)
            .ingress(vec![ing(1)])
            .egress(vec![Ipv4Addr::new(192, 0, 3, 1)])
            .build();
        let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), 5);
        survey_platform(
            &mut prober,
            &mut platform,
            &mut net,
            &mut infra,
            &[],
            &SurveyOptions::default(),
            SimTime::ZERO,
        );
    }
}
