//! Engine benches: live-path building blocks the campaign hot loop hits
//! per probe — rate-limiter debits, retry-schedule computation, metrics
//! recording — plus a full round trip through the reactor over real
//! loopback UDP.

use cde_core::CdeInfra;
use cde_dns::RecordType;
use cde_engine::{
    EngineMetrics, RateConfig, RateLimiter, ReactorConfig, ReactorTransport, ResolverConfig,
    RetryPolicy, Transport,
};
use cde_netsim::{DetRng, SimTime};
use cde_platform::{NameserverNet, PlatformBuilder, SelectorKind};
use cde_telemetry::{EventKind, MetricsRegistry, TelemetryHub};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::net::Ipv4Addr;
use std::time::Duration;

fn bench_rate_limiter(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/rate_limiter_debit");
    for &targets in &[1usize, 16, 256] {
        // High budget so debits never compute a wait in the hot loop.
        let limiter = RateLimiter::new(
            RateConfig {
                per_second: 1e9,
                burst: 1e9,
            },
            Some(RateConfig {
                per_second: 1e9,
                burst: 1e9,
            }),
        );
        group.bench_with_input(BenchmarkId::from_parameter(targets), &targets, |b, &n| {
            let mut i = 0u32;
            b.iter(|| {
                let target = Ipv4Addr::new(192, 0, (i % n as u32) as u8, 1);
                i = i.wrapping_add(1);
                black_box(limiter.debit(target))
            });
        });
    }
    group.finish();
}

fn bench_retry_schedule(c: &mut Criterion) {
    let policy = RetryPolicy::default();
    c.bench_function("engine/retry_schedule", |b| {
        let mut rng = DetRng::seed(5);
        b.iter(|| {
            let mut total = Duration::ZERO;
            for attempt in 0..policy.attempts {
                total += policy.timeout_for(attempt) + policy.delay_before(attempt, &mut rng);
            }
            black_box(total)
        });
    });
}

fn bench_shard_partition(c: &mut Criterion) {
    // The submit-path tax of sharding: one FNV hash of the target
    // ingress per probe, routing it to its owning shard. This has to
    // stay in the nanoseconds for the partition to be free relative to
    // the syscalls it sits in front of.
    let mut group = c.benchmark_group("engine/shard_partition");
    for &shards in &[1usize, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(shards), &shards, |b, &n| {
            let mut i = 0u32;
            b.iter(|| {
                i = i.wrapping_add(1);
                black_box(cde_engine::shard_for_target(Ipv4Addr::from(i), n))
            });
        });
    }
    group.finish();
}

fn bench_metrics_record(c: &mut Criterion) {
    let metrics = EngineMetrics::new();
    c.bench_function("engine/metrics_record", |b| {
        b.iter(|| {
            metrics.record_sent();
            metrics.record_received(Duration::from_micros(700));
        });
    });
    black_box(metrics.snapshot());
}

fn bench_telemetry_emit(c: &mut Criterion) {
    // Per-event cost of the telemetry seam the reactor's hot path pays:
    // a disabled hub is one branch, an enabled one is a clock read plus
    // a ring push under an uncontended mutex.
    let mut group = c.benchmark_group("engine/telemetry_emit");
    let disabled = TelemetryHub::disabled();
    group.bench_function("disabled", |b| {
        let mut token = 0u64;
        b.iter(|| {
            token = token.wrapping_add(1);
            disabled.emit(0, EventKind::ProbeSent { token, attempt: 0 });
        });
    });
    let enabled = TelemetryHub::new(64 * 1024);
    group.bench_function("enabled", |b| {
        let mut token = 0u64;
        b.iter(|| {
            token = token.wrapping_add(1);
            enabled.emit(0, EventKind::ProbeSent { token, attempt: 0 });
        });
    });
    group.finish();
    black_box(enabled.emitted());
}

fn bench_reactor_probe_roundtrip(c: &mut Criterion) {
    // One full probe over real loopback UDP through the reactor's
    // blocking seam: submit → event loop → resolver (platform
    // resolution) → completion. One probe at a time, so this measures
    // the per-probe floor of a live campaign, not the pipelining win
    // (the repo benchmark's `reflector_flood` measures that). Run once with
    // telemetry disabled and once with a hub + registry attached — the
    // acceptance bar is that streaming probe lifecycle events costs the
    // reactor hot path within noise (≤2%).
    let mut group = c.benchmark_group("engine/reactor_probe_roundtrip");
    for telemetry_on in [false, true] {
        let mut net = NameserverNet::new();
        let mut infra = CdeInfra::install(&mut net);
        let session = infra.new_session(&mut net, 0);
        let ingress = Ipv4Addr::new(192, 0, 2, 1);
        let platform = PlatformBuilder::new(3)
            .ingress(vec![ingress])
            .egress(vec![Ipv4Addr::new(192, 0, 3, 1)])
            .cluster(2, SelectorKind::Random)
            .build();
        let resolver = cde_engine::LoopbackResolver::launch(
            platform,
            net.clone(),
            None,
            ResolverConfig::default(),
            cde_engine::EngineClock::start(),
        )
        .expect("loopback sockets");
        let hub = telemetry_on.then(|| TelemetryHub::new(64 * 1024));
        let registry = telemetry_on.then(MetricsRegistry::new);
        let mut transport = ReactorTransport::connect(
            &resolver,
            None,
            net,
            ReactorConfig {
                telemetry: hub.clone(),
                registry,
                ..ReactorConfig::with_policy(RetryPolicy::single(Duration::from_secs(1)), 3)
            },
        )
        .expect("reactor sockets");

        let label = if telemetry_on {
            "telemetry_on"
        } else {
            "telemetry_off"
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                // Keep the ring from saturating so the telemetry-on run
                // pays the steady-state push, not the drop-oldest path.
                if let Some(hub) = &hub {
                    if hub.queued() > 32 * 1024 {
                        black_box(hub.drain().len());
                    }
                }
                black_box(transport.query(ingress, &session.honey, RecordType::A, SimTime::ZERO))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_rate_limiter,
    bench_retry_schedule,
    bench_shard_partition,
    bench_metrics_record,
    bench_telemetry_emit,
    bench_reactor_probe_roundtrip
);
criterion_main!(benches);
