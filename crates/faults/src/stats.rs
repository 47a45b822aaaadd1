//! Atomic accounting of everything the injector did to the traffic.

use cde_telemetry::{counter_block, Collector, Metric};
use std::sync::atomic::Ordering;

counter_block! {
    /// Counters of injected faults, shared between the injector and whoever
    /// wants to assert on (or export) what the chaos layer actually did.
    ///
    /// Registered into a [`MetricsRegistry`](cde_telemetry::MetricsRegistry)
    /// these surface as `cde_faults_*` counter families.
    #[derive(Debug, Default)]
    pub struct FaultStats;
    struct FaultCounts;

    query_drops: AtomicU64, sum, counter "cde_faults_query_drops_total"
        "Queries dropped by injected loss" => pub(crate) record_query_drop;
    reply_drops: AtomicU64, sum, counter "cde_faults_reply_drops_total"
        "Replies dropped by injected loss" => pub(crate) record_reply_drop;
    hard_errors: AtomicU64, sum, counter "cde_faults_hard_errors_total"
        "Queries killed by injected hard (ICMP-style) errors" => pub(crate) record_hard_error;
    rate_limited: AtomicU64, sum, counter "cde_faults_rate_limited_total"
        "Queries over the injected resolver rate limit" => pub(crate) record_rate_limited;
    refused: AtomicU64, sum, counter "cde_faults_refused_total"
        "Rate-limited queries answered REFUSED" => pub(crate) record_refused;
    duplicated: AtomicU64, sum, counter "cde_faults_duplicated_total"
        "Extra datagram copies injected" => pub(crate) record_duplicated;
    delayed: AtomicU64, sum, counter "cde_faults_delayed_total"
        "Datagrams held back by injected jitter/spikes" => pub(crate) record_delayed;
    truncated: AtomicU64, sum, counter "cde_faults_truncated_total"
        "Datagrams cut short by injected truncation" => pub(crate) record_truncated;
    delivered: AtomicU64, sum, counter "cde_faults_delivered_total"
        "Datagrams the injector let through" => pub(crate) record_delivered;
}

impl FaultStats {
    /// Fresh, all-zero counters.
    pub fn new() -> FaultStats {
        FaultStats::default()
    }

    /// Queries dropped by injected loss.
    pub fn query_drops(&self) -> u64 {
        self.query_drops.load(Ordering::Relaxed)
    }

    /// Replies dropped by injected loss.
    pub fn reply_drops(&self) -> u64 {
        self.reply_drops.load(Ordering::Relaxed)
    }

    /// Queries killed by injected hard (ICMP-style) errors.
    pub fn hard_errors(&self) -> u64 {
        self.hard_errors.load(Ordering::Relaxed)
    }

    /// Queries over the injected resolver rate limit.
    pub fn rate_limited(&self) -> u64 {
        self.rate_limited.load(Ordering::Relaxed)
    }

    /// Rate-limited queries answered REFUSED.
    pub fn refused(&self) -> u64 {
        self.refused.load(Ordering::Relaxed)
    }

    /// Extra datagram copies injected.
    pub fn duplicated(&self) -> u64 {
        self.duplicated.load(Ordering::Relaxed)
    }

    /// Datagrams held back by injected jitter/spikes.
    pub fn delayed(&self) -> u64 {
        self.delayed.load(Ordering::Relaxed)
    }

    /// Datagrams cut short by injected truncation.
    pub fn truncated(&self) -> u64 {
        self.truncated.load(Ordering::Relaxed)
    }

    /// Datagrams the injector let through.
    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }

    /// Datagrams removed from the wire for any reason (loss, hard error,
    /// rate-limit drops — REFUSED answers are not drops).
    pub fn total_drops(&self) -> u64 {
        self.query_drops() + self.reply_drops() + self.hard_errors()
    }

    /// Any fault injected at all? Used by tests to assert the chaos run
    /// was not accidentally a clean run.
    pub fn anything_injected(&self) -> bool {
        self.total_drops() > 0
            || self.rate_limited() > 0
            || self.duplicated() > 0
            || self.delayed() > 0
            || self.truncated() > 0
    }
}

impl Collector for FaultStats {
    fn collect(&self, out: &mut Vec<Metric>) {
        self.load().collect_into(|m| m, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_export() {
        let stats = FaultStats::new();
        stats.record_query_drop();
        stats.record_query_drop();
        stats.record_refused();
        assert_eq!(stats.query_drops(), 2);
        assert_eq!(stats.total_drops(), 2);
        assert!(stats.anything_injected());
        let mut out = Vec::new();
        stats.collect(&mut out);
        assert_eq!(out.len(), 9);
        assert!(out.iter().all(|m| m.name.starts_with("cde_faults_")));
    }

    #[test]
    fn fresh_stats_report_nothing_injected() {
        let stats = FaultStats::new();
        stats.record_delivered();
        assert!(!stats.anything_injected());
    }
}
