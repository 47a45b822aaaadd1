//! Golden-file pin of the Prometheus text exposition.
//!
//! Feeds a deterministic script of observations into every collector the
//! reactor registers — [`EngineMetrics`] (including the shard-runtime
//! series: ring depth, receive calls, parks, wake latency, duty cycle),
//! the per-target RTT digests, the phase profiler and a [`Pulse`] health
//! engine with an exemplar reservoir — and compares the rendered
//! exposition byte for byte against `tests/golden/metrics.prom`. Any
//! change to a family name, help string, label, bucket edge or
//! cumulative-histogram shape (`_bucket`/`_sum`/`_count`) shows up as a
//! reviewable golden diff instead of a silent dashboard break.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p cde-engine --test prometheus_golden
//! ```

use cde_engine::EngineMetrics;
use cde_insight::{PhaseProfiler, RttDigestSet, PHASES};
use cde_pulse::{CounterSample, ExemplarReservoir, ProbeExemplar, Pulse, ShardStat, SloSpec};
use cde_telemetry::MetricsRegistry;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn prometheus_exposition_matches_golden() {
    let registry = MetricsRegistry::new();

    let metrics = Arc::new(EngineMetrics::new());
    let block = metrics.shard(0);
    for _ in 0..6 {
        block.record_sent();
    }
    block.record_received(Duration::from_micros(120));
    block.record_received(Duration::from_micros(950));
    block.record_received(Duration::from_micros(42_000));
    block.record_received(Duration::from_micros(120_000));
    block.record_retry();
    block.record_timeout();
    block.record_rate_limit_stall(Duration::from_micros(1_500));
    block.record_decode_error();
    block.record_stray_reply();
    block.record_spoofed_reply();
    block.record_qname_mismatch();
    block.set_in_flight(4);
    block.set_in_flight(1);
    block.record_send_batch(3);
    block.record_send_batch(16);
    block.record_loop_iteration(Duration::from_micros(80));
    block.record_recv_batch(3);
    block.record_recv_batch(0);
    block.set_wheel_pending(2);
    block.set_slab_capacity(512);
    block.set_ring_depth(12);
    block.set_ring_depth(3);
    block.record_park(Duration::from_micros(240));
    block.record_wake_latency(Duration::from_micros(35));
    registry.register(metrics);

    let digests = Arc::new(RttDigestSet::for_targets([
        Ipv4Addr::new(192, 0, 2, 1),
        Ipv4Addr::new(192, 0, 2, 2),
    ]));
    for us in [110, 130, 150, 40_000, 41_000] {
        digests.record(Ipv4Addr::new(192, 0, 2, 1), us, false);
    }
    digests.record(Ipv4Addr::new(192, 0, 2, 2), 95, false);
    digests.record(Ipv4Addr::new(192, 0, 2, 2), 52_000, true);
    registry.register(digests);

    let phases = Arc::new(PhaseProfiler::new(1));
    for (i, &phase) in PHASES.iter().enumerate() {
        phases.record(phase, Duration::from_micros(10 * (i as u64 + 1)));
    }
    registry.register(phases);

    let reservoir = Arc::new(ExemplarReservoir::with_capacity(4));
    reservoir.record(ProbeExemplar {
        token: 7,
        shard: 0,
        ingress: Ipv4Addr::new(192, 0, 2, 1),
        attempts: 2,
        rtt_us: 42_000,
        queue_us: 15,
        lifetime_us: 190_000,
        answered: true,
    });
    let pulse = Arc::new(Pulse::new(SloSpec::default()).with_exemplars(Arc::clone(&reservoir)));
    for i in 0..=20u64 {
        pulse.observe(CounterSample {
            at_ms: i * 1_000,
            sent: i * 100,
            received: i * 99,
            emitted: i * 200,
            ..CounterSample::default()
        });
    }
    pulse.observe_shards(vec![
        ShardStat {
            shard: 0,
            busy_us: 6_000,
            parked_us: 4_000,
            ring_depth: 3,
            ring_depth_peak: 12,
            in_flight: 1,
            parks: 5,
            unparks: 4,
        },
        ShardStat {
            shard: 1,
            busy_us: 4_000,
            parked_us: 6_000,
            ring_depth: 1,
            ring_depth_peak: 6,
            in_flight: 0,
            parks: 9,
            unparks: 8,
        },
    ]);
    registry.register(pulse);

    let rendered = registry.prometheus_text();
    // Every shard-runtime and pulse family must carry HELP/TYPE metadata
    // regardless of what the golden currently pins.
    for family in [
        "cde_engine_ring_depth",
        "cde_engine_ring_depth_peak",
        "cde_engine_recv_batches_total",
        "cde_engine_recv_empty_total",
        "cde_engine_parks_total",
        "cde_engine_parked_us_total",
        "cde_engine_unparks_total",
        "cde_engine_wake_latency_us_total",
        "cde_engine_wake_latency_max_us",
        "cde_engine_duty_cycle",
        "cde_pulse_health_status",
        "cde_pulse_probe_rate",
        "cde_pulse_timeout_ratio",
        "cde_pulse_stray_ratio",
        "cde_pulse_shed_ratio",
        "cde_pulse_shard_duty_skew",
        "cde_pulse_shard_queue_skew",
        "cde_pulse_exemplars_observed_total",
        "cde_pulse_exemplar_worst_lifetime_us",
    ] {
        assert!(
            rendered.contains(&format!("# HELP {family} ")),
            "missing HELP for {family}"
        );
        assert!(
            rendered.contains(&format!("# TYPE {family} ")),
            "missing TYPE for {family}"
        );
    }
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics.prom");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(golden_path).expect("golden file missing");
    assert_eq!(
        rendered, golden,
        "Prometheus exposition drifted from tests/golden/metrics.prom; \
         rerun with UPDATE_GOLDEN=1 if the change is intentional"
    );
}
