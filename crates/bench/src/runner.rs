//! Shared measurement runner: surveys whole populations in parallel.
//!
//! Every figure experiment follows the same recipe: generate a
//! ground-truth population (calibrated to the paper), run the CDE
//! measurement pipeline against each network, and aggregate the *measured*
//! values. Ground truth is kept alongside for validation columns.

use cde_core::{survey_platform, CdeInfra, SurveyOptions};
use cde_datasets::{generate_population, NetworkSpec, PopulationKind};
use cde_netsim::SimTime;
use cde_platform::NameserverNet;
use cde_probers::DirectProber;
use std::net::Ipv4Addr;

/// Measurement results for one network, next to its ground truth.
#[derive(Debug, Clone)]
pub struct MeasuredNetwork {
    /// The generated ground truth.
    pub spec: NetworkSpec,
    /// Caches measured by the CDE pipeline.
    pub measured_caches: u64,
    /// Egress addresses discovered.
    pub measured_egress: u64,
    /// Clusters discovered among the sampled ingress addresses.
    pub measured_clusters: usize,
}

impl MeasuredNetwork {
    /// `true` when the measured cache count equals ground truth.
    pub fn caches_exact(&self) -> bool {
        self.measured_caches == self.spec.total_caches() as u64
    }
}

/// How many ingress addresses of each network the survey samples (the
/// paper likewise probes the resolver addresses its dataset lists; huge
/// anycast farms are sampled, not exhausted).
pub const INGRESS_SAMPLE: usize = 6;

/// Surveys one network spec end-to-end.
pub fn measure_network(spec: &NetworkSpec) -> MeasuredNetwork {
    let mut net = NameserverNet::new();
    let mut infra = CdeInfra::install(&mut net);
    let mut platform = spec.build();

    let ingress_all = spec.ingress_ips();
    let ingress: Vec<Ipv4Addr> = if ingress_all.len() <= INGRESS_SAMPLE {
        ingress_all
    } else {
        // A fixed stride through the list. Platforms assign ingress
        // addresses to clusters round-robin, so when the stride is a
        // multiple of the cluster count every sample lands in cluster 0
        // and the other clusters are never enumerated (ROADMAP item 15).
        let step = ingress_all.len() / INGRESS_SAMPLE;
        (0..INGRESS_SAMPLE).map(|i| ingress_all[i * step]).collect()
    };

    let mut prober = DirectProber::new(
        Ipv4Addr::new(203, 0, 113, 77),
        spec.client_link(),
        0xBEEF ^ spec.id,
    );
    let opts = SurveyOptions {
        loss: spec.country.loss_rate(),
        ..SurveyOptions::default()
    };
    let survey = survey_platform(
        &mut prober,
        &mut platform,
        &mut net,
        &mut infra,
        &ingress,
        &opts,
        SimTime::ZERO,
    );
    MeasuredNetwork {
        spec: spec.clone(),
        measured_caches: survey.total_caches,
        measured_egress: survey.egress_count() as u64,
        measured_clusters: survey.mapping.cluster_count(),
    }
}

/// Generates and measures a whole population, in parallel across worker
/// threads (each network is an isolated simulation).
pub fn survey_population(kind: PopulationKind, size: usize, seed: u64) -> Vec<MeasuredNetwork> {
    let specs = generate_population(kind, size, seed);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(specs.len().max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let (tx, rx) = crossbeam::channel::unbounded::<(usize, MeasuredNetwork)>();
    crossbeam::thread::scope(|scope| {
        for _ in 0..workers {
            let specs = &specs;
            let next = &next;
            let tx = tx.clone();
            scope.spawn(move |_| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                if i >= specs.len() {
                    break;
                }
                tx.send((i, measure_network(&specs[i])))
                    .expect("collector alive");
            });
        }
    })
    .expect("worker panicked");
    drop(tx);
    let mut indexed: Vec<(usize, MeasuredNetwork)> = rx.into_iter().collect();
    indexed.sort_by_key(|(i, _)| *i);
    assert_eq!(indexed.len(), specs.len(), "every network measured");
    indexed.into_iter().map(|(_, m)| m).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_network_recovers_small_spec() {
        let specs = generate_population(PopulationKind::OpenResolvers, 30, 99);
        // Pick a small, lossless, random-selector network for an exactness
        // check.
        let spec = specs
            .iter()
            .find(|s| {
                s.total_caches() <= 4
                    && s.ingress_count <= 3
                    && s.country == cde_netsim::CountryProfile::Typical
                    && s.selector == cde_platform::SelectorKind::Random
            })
            .expect("population contains a small network");
        let m = measure_network(spec);
        assert!(
            m.caches_exact(),
            "measured {} truth {}",
            m.measured_caches,
            spec.total_caches()
        );
        assert_eq!(m.measured_egress, spec.egress_count as u64);
    }

    #[test]
    fn survey_population_parallel_matches_serial() {
        let specs = generate_population(PopulationKind::Isps, 8, 5);
        let parallel = survey_population(PopulationKind::Isps, 8, 5);
        for (spec, m) in specs.iter().zip(&parallel) {
            assert_eq!(spec.id, m.spec.id);
            let serial = measure_network(spec);
            assert_eq!(serial.measured_caches, m.measured_caches);
            assert_eq!(serial.measured_egress, m.measured_egress);
        }
    }
}
