//! IP-to-caches mapping and egress discovery (paper §IV-B1b).
//!
//! *Ingress mapping*: plant a honey record in all caches behind one
//! ingress address, then query it through every other ingress address; an
//! address whose queries are answered without touching the CDE nameserver
//! shares the pivot's cache cluster.
//!
//! *Egress discovery*: force a stream of cache misses and record the
//! source addresses arriving at the CDE nameservers; repeated experiments
//! cover the whole egress pool (coupon collector over egress addresses).

use crate::access::{AccessChannel, DirectAccess};
use crate::infra::{CdeInfra, Observer, Session};
use cde_netsim::{SimDuration, SimTime};
use cde_platform::{NameserverNet, ResolutionPlatform};
use cde_probers::DirectProber;
use std::net::Ipv4Addr;

/// How the mapping procedure spends honey records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MappingStrategy {
    /// A fresh honey record per (pivot, candidate) test. Immune to
    /// cross-test cache pollution; costs one seeding round per test.
    #[default]
    FreshHoneyPerTest,
    /// One honey record per pivot, reused for every candidate — the
    /// paper's described procedure. Cheaper, but a candidate's test
    /// queries plant the pivot's honey in *its* cluster, which can
    /// misclassify later candidates of that cluster (worst with 1-cache
    /// clusters). Kept for the ablation bench.
    SharedHoneyPerPivot,
}

impl std::fmt::Display for MappingStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MappingStrategy::FreshHoneyPerTest => write!(f, "fresh-honey-per-test"),
            MappingStrategy::SharedHoneyPerPivot => write!(f, "shared-honey-per-pivot"),
        }
    }
}

/// Options for ingress mapping.
#[derive(Debug, Clone, Copy)]
pub struct MappingOptions {
    /// Seed queries planting the honey record via the pivot; pick
    /// `≥ 2·n_max` (paper §V-B), scaled by carpet bombing under loss.
    pub seeds_per_pivot: u64,
    /// Test queries per candidate address; all must be answered without a
    /// nameserver fetch to classify as "same cluster".
    pub test_probes: u64,
    /// Strategy (see [`MappingStrategy`]).
    pub strategy: MappingStrategy,
    /// Virtual-time gap between queries.
    pub gap: SimDuration,
}

impl Default for MappingOptions {
    fn default() -> MappingOptions {
        MappingOptions {
            seeds_per_pivot: 64,
            test_probes: 3,
            strategy: MappingStrategy::default(),
            gap: SimDuration::from_millis(20),
        }
    }
}

/// Discovered grouping of ingress addresses by shared cache cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngressMapping {
    /// Each inner vector is one discovered cluster of ingress addresses.
    pub clusters: Vec<Vec<Ipv4Addr>>,
    /// Total queries spent.
    pub queries_spent: u64,
}

impl IngressMapping {
    /// Number of discovered clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// The cluster index of `ip`, if mapped.
    pub fn cluster_of(&self, ip: Ipv4Addr) -> Option<usize> {
        self.clusters.iter().position(|c| c.contains(&ip))
    }
}

/// Maps every ingress address of `platform` to a cache cluster using the
/// honey-record procedure.
///
/// Requires direct access: the prober must choose which ingress address
/// to query, so each seeding and test round opens a [`DirectAccess`] on
/// the address it needs.
pub fn map_ingress_to_clusters(
    prober: &mut DirectProber,
    platform: &mut ResolutionPlatform,
    net: &mut NameserverNet,
    infra: &mut CdeInfra,
    ingress: &[Ipv4Addr],
    opts: MappingOptions,
    start: SimTime,
) -> IngressMapping {
    let mut clusters: Vec<Vec<Ipv4Addr>> = Vec::new();
    // For the shared strategy: honey session per cluster, seeded once.
    let mut cluster_session: Vec<Session> = Vec::new();
    let mut queries = 0u64;
    let mut now = start;

    for &candidate in ingress {
        let mut joined = None;
        for (ci, cluster) in clusters.iter().enumerate() {
            let pivot = cluster[0];
            let session = match opts.strategy {
                MappingStrategy::FreshHoneyPerTest => {
                    let mut access = DirectAccess::new(prober, platform, pivot, net);
                    let session = infra.new_session(access.net_mut(), 0);
                    // Seed via pivot.
                    for _ in 0..opts.seeds_per_pivot {
                        let _ = access.trigger(&session.honey, now);
                        queries += 1;
                        now += opts.gap;
                    }
                    session
                }
                MappingStrategy::SharedHoneyPerPivot => cluster_session[ci].clone(),
            };
            let mut access = DirectAccess::new(prober, platform, candidate, net);
            infra.clear_observations(access.net_mut());
            let mut observer = infra.observer(&session);
            let mut fetched = false;
            for _ in 0..opts.test_probes {
                let _ = access.trigger(&session.honey, now);
                queries += 1;
                now += opts.gap;
                if observer.update(access.net()).honey_fetches() > 0 {
                    fetched = true;
                    break;
                }
            }
            if !fetched {
                joined = Some(ci);
                break;
            }
        }
        match joined {
            Some(ci) => clusters[ci].push(candidate),
            None => {
                // New cluster pivoted at `candidate`.
                clusters.push(vec![candidate]);
                let mut access = DirectAccess::new(prober, platform, candidate, net);
                let session = infra.new_session(access.net_mut(), 0);
                for _ in 0..opts.seeds_per_pivot {
                    let _ = access.trigger(&session.honey, now);
                    queries += 1;
                    now += opts.gap;
                }
                cluster_session.push(session);
            }
        }
    }

    IngressMapping {
        clusters,
        queries_spent: queries,
    }
}

/// Result of egress discovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EgressDiscovery {
    /// Distinct egress addresses observed at the CDE nameservers.
    pub egress_ips: Vec<Ipv4Addr>,
    /// Probes triggered.
    pub probes: u64,
}

/// Discovers the egress addresses of the platform behind `access` by
/// forcing `probes` cache misses (fresh nonce names) and recording the
/// source addresses of the resulting upstream queries.
pub fn discover_egress<A: AccessChannel>(
    access: &mut A,
    infra: &mut CdeInfra,
    probes: u64,
    start: SimTime,
) -> EgressDiscovery {
    let gap = SimDuration::from_millis(20);
    probe_egress(access, infra, start, gap, probes, |_| false).0
}

/// The egress loop of both discovery variants: clears the logs, then sends
/// a fresh nonce every `gap` until `limit` probes are spent or `stop(egress
/// addresses seen)` holds. Also returns the number of probes delivered.
pub(crate) fn probe_egress<A: AccessChannel>(
    access: &mut A,
    infra: &mut CdeInfra,
    start: SimTime,
    gap: SimDuration,
    limit: u64,
    mut stop: impl FnMut(usize) -> bool,
) -> (EgressDiscovery, u64) {
    infra.clear_observations(access.net_mut());
    let mut observer = Observer::default();
    let (mut probes, mut delivered) = (0, 0);
    while probes < limit {
        let nonce = infra.fresh_nonce_name();
        delivered += u64::from(access.trigger(&nonce, start + gap * probes).is_delivered());
        probes += 1;
        if stop(observer.update(access.net()).egress_sources().len()) {
            break;
        }
    }
    let egress_ips = observer.update(access.net()).egress_sources().to_vec();
    (EgressDiscovery { egress_ips, probes }, delivered)
}

/// Ground-truth comparison helper: `true` when the discovered mapping
/// partitions `ingress` identically to the platform's real assignment.
pub fn mapping_matches_ground_truth(
    mapping: &IngressMapping,
    platform: &ResolutionPlatform,
) -> bool {
    let truth = platform.ground_truth().ingress_clusters;
    // Same-cluster relation must coincide on every address pair.
    let ips: Vec<Ipv4Addr> = truth.keys().copied().collect();
    for (i, &a) in ips.iter().enumerate() {
        for &b in &ips[i + 1..] {
            let measured_same =
                mapping.cluster_of(a).is_some() && mapping.cluster_of(a) == mapping.cluster_of(b);
            let truth_same = truth[&a] == truth[&b];
            if measured_same != truth_same {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::DirectAccess;
    use cde_netsim::Link;
    use cde_platform::{PlatformBuilder, SelectorKind};

    fn ing(d: u8) -> Ipv4Addr {
        Ipv4Addr::new(192, 0, 2, d)
    }

    fn build(
        clusters: &[usize],
        assignment: Vec<usize>,
        seed: u64,
    ) -> (ResolutionPlatform, NameserverNet, CdeInfra) {
        let mut net = NameserverNet::new();
        let infra = CdeInfra::install(&mut net);
        let ingress: Vec<Ipv4Addr> = (1..=assignment.len() as u8).map(ing).collect();
        let mut builder = PlatformBuilder::new(seed)
            .ingress(ingress)
            .egress((1..=6).map(|d| Ipv4Addr::new(192, 0, 3, d)).collect())
            .ingress_assignment(assignment);
        for &c in clusters {
            builder = builder.cluster(c, SelectorKind::Random);
        }
        (builder.build(), net, infra)
    }

    #[test]
    fn maps_two_clear_clusters() {
        // 4 ingress IPs: {1,3} → cluster 0, {2,4} → cluster 1.
        let (mut platform, mut net, mut infra) = build(&[2, 3], vec![0, 1, 0, 1], 21);
        let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), 1);
        let mapping = map_ingress_to_clusters(
            &mut prober,
            &mut platform,
            &mut net,
            &mut infra,
            &[ing(1), ing(2), ing(3), ing(4)],
            MappingOptions::default(),
            SimTime::ZERO,
        );
        assert_eq!(mapping.cluster_count(), 2);
        assert_eq!(mapping.cluster_of(ing(1)), mapping.cluster_of(ing(3)));
        assert_eq!(mapping.cluster_of(ing(2)), mapping.cluster_of(ing(4)));
        assert_ne!(mapping.cluster_of(ing(1)), mapping.cluster_of(ing(2)));
        assert!(mapping_matches_ground_truth(&mapping, &platform));
    }

    #[test]
    fn single_cluster_platform_maps_to_one() {
        let (mut platform, mut net, mut infra) = build(&[3], vec![0, 0, 0], 22);
        let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), 2);
        let mapping = map_ingress_to_clusters(
            &mut prober,
            &mut platform,
            &mut net,
            &mut infra,
            &[ing(1), ing(2), ing(3)],
            MappingOptions::default(),
            SimTime::ZERO,
        );
        assert_eq!(mapping.cluster_count(), 1);
        assert!(mapping_matches_ground_truth(&mapping, &platform));
    }

    #[test]
    fn fresh_honey_strategy_correct_on_single_cache_clusters() {
        // The adversarial case for the shared strategy: 3 clusters of one
        // cache each; candidate order interleaves the clusters.
        let (mut platform, mut net, mut infra) = build(&[1, 1, 1], vec![0, 1, 2, 0, 1, 2], 23);
        let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), 3);
        let mapping = map_ingress_to_clusters(
            &mut prober,
            &mut platform,
            &mut net,
            &mut infra,
            &[ing(1), ing(2), ing(3), ing(4), ing(5), ing(6)],
            MappingOptions {
                strategy: MappingStrategy::FreshHoneyPerTest,
                ..MappingOptions::default()
            },
            SimTime::ZERO,
        );
        assert_eq!(mapping.cluster_count(), 3);
        assert!(mapping_matches_ground_truth(&mapping, &platform));
    }

    #[test]
    fn shared_honey_strategy_can_misclassify_single_cache_clusters() {
        // Documented limitation: with shared honey, testing ingress 2
        // (cluster 1) against pivot 1 plants pivot honey into cluster 1's
        // only cache; ingress 4 (cluster 1 again) then false-joins the
        // pivot's cluster.
        let (mut platform, mut net, mut infra) = build(&[1, 1], vec![0, 1, 0, 1], 24);
        let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), 4);
        let mapping = map_ingress_to_clusters(
            &mut prober,
            &mut platform,
            &mut net,
            &mut infra,
            &[ing(1), ing(2), ing(3), ing(4)],
            MappingOptions {
                strategy: MappingStrategy::SharedHoneyPerPivot,
                ..MappingOptions::default()
            },
            SimTime::ZERO,
        );
        assert!(!mapping_matches_ground_truth(&mapping, &platform));
    }

    #[test]
    fn fresh_strategy_spends_more_queries_than_shared() {
        let run = |strategy| {
            let (mut platform, mut net, mut infra) = build(&[2, 2], vec![0, 1, 0, 1], 25);
            let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), 5);
            map_ingress_to_clusters(
                &mut prober,
                &mut platform,
                &mut net,
                &mut infra,
                &[ing(1), ing(2), ing(3), ing(4)],
                MappingOptions {
                    strategy,
                    ..MappingOptions::default()
                },
                SimTime::ZERO,
            )
            .queries_spent
        };
        assert!(
            run(MappingStrategy::FreshHoneyPerTest) > run(MappingStrategy::SharedHoneyPerPivot)
        );
    }

    #[test]
    fn egress_discovery_covers_pool() {
        let (mut platform, mut net, mut infra) = build(&[2], vec![0], 26);
        let truth: std::collections::HashSet<Ipv4Addr> =
            platform.egress_ips().iter().copied().collect();
        let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), 6);
        let mut access = DirectAccess::new(&mut prober, &mut platform, ing(1), &mut net);
        let d = discover_egress(&mut access, &mut infra, 64, SimTime::ZERO);
        let found: std::collections::HashSet<Ipv4Addr> = d.egress_ips.iter().copied().collect();
        assert_eq!(found, truth);
    }

    #[test]
    fn egress_discovery_underestimates_with_few_probes() {
        let (mut platform, mut net, mut infra) = build(&[1], vec![0], 27);
        let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), 7);
        let mut access = DirectAccess::new(&mut prober, &mut platform, ing(1), &mut net);
        let d = discover_egress(&mut access, &mut infra, 1, SimTime::ZERO);
        // One probe cannot reveal all 6 egress addresses (it sends at most
        // a handful of upstream queries).
        assert!(d.egress_ips.len() < 6);
        assert!(!d.egress_ips.is_empty());
    }
}
