//! Longitudinal platform tracking (paper §I-B).
//!
//! "Our tools enable repetitive studies of the caches over periods of
//! time. This allows to perform analyses of adoption of new mechanisms,
//! trends, growth of the DNS resolution platforms and more." A
//! [`PlatformTracker`] re-measures the same platform at successive epochs
//! — each with a fresh honey session, so epochs never contaminate each
//! other — and reports the timeline plus detected capacity changes
//! (growth, or the §II-B failure case: "a DNS platform uses four caches,
//! but our tool measures two, namely two are down").

use crate::access::AccessChannel;
use crate::enumerate::{drive, EnumerateOptions};
use crate::infra::{CdeInfra, Observer};
use cde_analysis::coupon::query_budget;
use cde_netsim::{SimDuration, SimTime};

/// One epoch's measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochMeasurement {
    /// When the epoch ran.
    pub at: SimTime,
    /// Caches measured.
    pub caches: u64,
    /// Egress addresses observed during the epoch.
    pub egress: u64,
}

/// A detected change between consecutive epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityChange {
    /// Cache count grew (platform expansion).
    Growth {
        /// Epoch index where the change was first seen.
        epoch: usize,
        /// Count before.
        from: u64,
        /// Count after.
        to: u64,
    },
    /// Cache count shrank (failure or decommissioning — the §II-B alert).
    Shrink {
        /// Epoch index where the change was first seen.
        epoch: usize,
        /// Count before.
        from: u64,
        /// Count after.
        to: u64,
    },
}

/// Timeline produced by a tracking run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    /// Per-epoch measurements, in order.
    pub epochs: Vec<EpochMeasurement>,
    /// Detected capacity changes.
    pub changes: Vec<CapacityChange>,
}

impl Timeline {
    /// `true` when every epoch measured the same cache count.
    pub fn is_stable(&self) -> bool {
        self.changes.is_empty()
    }

    /// The latest measured cache count, if any epoch ran.
    pub fn current_caches(&self) -> Option<u64> {
        self.epochs.last().map(|e| e.caches)
    }
}

/// Tracks one platform across measurement epochs.
#[derive(Debug)]
pub struct PlatformTracker {
    n_max: u64,
    epochs: Vec<EpochMeasurement>,
}

impl PlatformTracker {
    /// Creates a tracker with an assumed cache-count bound.
    pub fn new(n_max: u64) -> PlatformTracker {
        PlatformTracker {
            n_max: n_max.max(1),
            epochs: Vec::new(),
        }
    }

    /// Runs one measurement epoch through `access` at virtual time `at`.
    ///
    /// Each epoch uses a fresh honey session, so a record planted in an
    /// earlier epoch never answers a later one.
    pub fn measure_epoch<A: AccessChannel>(
        &mut self,
        access: &mut A,
        infra: &mut CdeInfra,
        at: SimTime,
    ) -> EpochMeasurement {
        infra.clear_observations(access.net_mut());
        let session = infra.new_session(access.net_mut(), 0);
        // `enumerate_identical`, keeping its Observer for the egress count.
        let mut observer = infra.observer(&session);
        let opts = EnumerateOptions {
            probes: query_budget(self.n_max, 0.001),
            redundancy: 1,
            gap: SimDuration::from_millis(10),
        };
        let count = (&mut observer, Observer::honey_fetches);
        let e = drive(access, opts, None, at, |_| &session.honey, count).enumeration();
        let egress = observer.update(access.net()).egress_sources().len() as u64;
        let m = EpochMeasurement {
            at,
            caches: e.estimated,
            egress,
        };
        self.epochs.push(m);
        m
    }

    /// The timeline so far, with detected changes.
    pub fn timeline(&self) -> Timeline {
        let mut changes = Vec::new();
        for (i, pair) in self.epochs.windows(2).enumerate() {
            let (prev, next) = (pair[0], pair[1]);
            if next.caches > prev.caches {
                changes.push(CapacityChange::Growth {
                    epoch: i + 1,
                    from: prev.caches,
                    to: next.caches,
                });
            } else if next.caches < prev.caches {
                changes.push(CapacityChange::Shrink {
                    epoch: i + 1,
                    from: prev.caches,
                    to: next.caches,
                });
            }
        }
        Timeline {
            epochs: self.epochs.clone(),
            changes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::DirectAccess;
    use cde_netsim::Link;
    use cde_platform::{NameserverNet, PlatformBuilder, ResolutionPlatform, SelectorKind};
    use cde_probers::DirectProber;
    use std::net::Ipv4Addr;

    const INGRESS: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

    fn build(caches: usize, seed: u64) -> ResolutionPlatform {
        PlatformBuilder::new(seed)
            .ingress(vec![INGRESS])
            .egress((1..=3).map(|d| Ipv4Addr::new(192, 0, 3, d)).collect())
            .cluster(caches, SelectorKind::Random)
            .build()
    }

    fn epoch_at(hours: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(hours * 3600)
    }

    #[test]
    fn stable_platform_has_flat_timeline() {
        let mut net = NameserverNet::new();
        let mut infra = CdeInfra::install(&mut net);
        let mut platform = build(3, 71);
        let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), 1);
        let mut tracker = PlatformTracker::new(8);
        for h in 0..4 {
            let mut access = DirectAccess::new(&mut prober, &mut platform, INGRESS, &mut net);
            let m = tracker.measure_epoch(&mut access, &mut infra, epoch_at(h * 24));
            assert_eq!(m.caches, 3, "epoch {h}");
        }
        let tl = tracker.timeline();
        assert!(tl.is_stable());
        assert_eq!(tl.current_caches(), Some(3));
        assert_eq!(tl.epochs.len(), 4);
    }

    #[test]
    fn outage_is_reported_as_shrink() {
        let mut net = NameserverNet::new();
        let mut infra = CdeInfra::install(&mut net);
        let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), 2);
        let mut tracker = PlatformTracker::new(8);
        // Epoch 0: healthy 4-cache platform.
        let mut healthy = build(4, 72);
        {
            let mut access = DirectAccess::new(&mut prober, &mut healthy, INGRESS, &mut net);
            tracker.measure_epoch(&mut access, &mut infra, epoch_at(0));
        }
        // Epoch 1: two instances down (the balancer stops routing to them).
        let mut degraded = build(2, 72);
        {
            let mut access = DirectAccess::new(&mut prober, &mut degraded, INGRESS, &mut net);
            tracker.measure_epoch(&mut access, &mut infra, epoch_at(24));
        }
        let tl = tracker.timeline();
        assert_eq!(
            tl.changes,
            vec![CapacityChange::Shrink {
                epoch: 1,
                from: 4,
                to: 2
            }]
        );
    }

    #[test]
    fn growth_is_reported() {
        let mut net = NameserverNet::new();
        let mut infra = CdeInfra::install(&mut net);
        let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), 3);
        let mut tracker = PlatformTracker::new(16);
        for (h, caches) in [(0u64, 2usize), (24, 2), (48, 6)] {
            let mut platform = build(caches, 73);
            let mut access = DirectAccess::new(&mut prober, &mut platform, INGRESS, &mut net);
            tracker.measure_epoch(&mut access, &mut infra, epoch_at(h));
        }
        let tl = tracker.timeline();
        assert_eq!(
            tl.changes,
            vec![CapacityChange::Growth {
                epoch: 2,
                from: 2,
                to: 6
            }]
        );
    }

    #[test]
    fn epochs_do_not_contaminate_each_other() {
        // The same live platform tracked over epochs: the later epochs use
        // fresh honey, so earlier sessions' cached records cannot deflate
        // the count.
        let mut net = NameserverNet::new();
        let mut infra = CdeInfra::install(&mut net);
        let mut platform = build(5, 74);
        let mut prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), 4);
        let mut tracker = PlatformTracker::new(8);
        for h in 0..3 {
            let mut access = DirectAccess::new(&mut prober, &mut platform, INGRESS, &mut net);
            // Epochs only minutes apart: all session TTLs still alive.
            let m = tracker.measure_epoch(
                &mut access,
                &mut infra,
                SimTime::ZERO + SimDuration::from_secs(h * 120),
            );
            assert_eq!(m.caches, 5, "epoch {h}");
        }
        assert!(tracker.timeline().is_stable());
    }
}
