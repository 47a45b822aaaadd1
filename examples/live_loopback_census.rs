//! Live loopback census: the paper's enumeration running over *real* UDP.
//!
//! Launches the full live chain hermetically on `127.0.0.1` — a
//! [`WireAuthority`] farm serving the CDE zones, a [`LoopbackResolver`]
//! fronting a hidden simulated cache platform, and the event-driven probe
//! reactor multiplexing real datagrams at it with retries and jittered
//! backoff — then runs the exact same `enumerate_adaptive` the simulator
//! uses and compares its estimate against ground truth. A second pass
//! injects 20% request loss to show the retry machinery absorbing it.
//!
//! The whole run is observable: a process-wide telemetry hub streams the
//! campaign span and per-probe lifecycle events, each reactor registers
//! its metrics (counters, RTT/tick histograms, health gauges) into a
//! `MetricsRegistry`, and insight capture keeps per-target streaming RTT
//! digests the summary lines quote. Pipe the JSONL through `cde-analyze`
//! for the offline view of the same run.
//!
//! Run with: `cargo run --release --example live_loopback_census`
//!
//! Flags:
//!
//! * `--telemetry-jsonl <path>` — append the telemetry event stream
//!   (campaign spans + probe lifecycle) to `<path>` as JSON Lines;
//! * `--prometheus` — dump the final registry in Prometheus text format;
//! * `--chaos` — run a third pass under a seeded [`FaultPlan`] (30%
//!   bursty loss, duplication, jitter) injected by the reactor's fault
//!   layer; the seed comes from `CDE_CHAOS_SEED` (default 4242);
//! * `--flight-dump <path>` — enable the reactor's flight recorder and
//!   snapshot its rings to `<path>` after each pass (the last pass
//!   wins). Feed the artifact to `cde-analyze --forensics` for the
//!   per-ingress fate table.

use counting_dark::cde::{enumerate_adaptive, CdeInfra, SurveyOptions};
use counting_dark::engine::{
    EngineAccess, FlightOptions, InsightOptions, LiveTestbed, ReactorConfig, ResolverConfig,
    RetryPolicy, MAX_BATCH,
};
use counting_dark::faults::{DelayFault, DuplicateFault, FaultPlan};
use counting_dark::netsim::{seed_from_env, SimTime};
use counting_dark::platform::{NameserverNet, PlatformBuilder, SelectorKind};
use counting_dark::telemetry::{
    install_global, MetricsRegistry, ProgressReporter, TelemetryHub, DEFAULT_RING_CAPACITY,
};
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

const INGRESS: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

fn census(
    caches: usize,
    seed: u64,
    cfg: ResolverConfig,
    faults: Option<FaultPlan>,
    label: &str,
    reporter: &mut ProgressReporter,
    flight_dump: Option<&std::path::Path>,
) -> Arc<MetricsRegistry> {
    // A fresh registry per pass: each pass launches its own reactor, and
    // re-registering a second reactor's collectors into the same registry
    // would duplicate every metric family.
    let registry = MetricsRegistry::new();
    let mut net = NameserverNet::new();
    let mut infra = CdeInfra::install(&mut net);
    let platform = PlatformBuilder::new(seed)
        .ingress(vec![INGRESS])
        .egress((1..=3).map(|d| Ipv4Addr::new(192, 0, 3, d)).collect())
        .cluster(caches, SelectorKind::Random)
        .build();

    let testbed = LiveTestbed::launch(platform, net, cfg).expect("loopback sockets");
    let policy = RetryPolicy {
        attempts: 5,
        timeout: Duration::from_millis(150),
        backoff: 1.5,
        base_delay: Duration::from_millis(2),
        jitter: 0.5,
    };
    let injected_loss = faults.as_ref().map_or(0.0, FaultPlan::worst_loss);
    let mut transport = testbed
        .reactor_transport(ReactorConfig {
            registry: Some(Arc::clone(&registry)),
            faults,
            insight: Some(InsightOptions::default()),
            flight: flight_dump.map(|_| FlightOptions::default()),
            ..ReactorConfig::with_policy(policy, seed)
        })
        .expect("reactor transport");

    let opts = SurveyOptions {
        loss: cfg.query_loss.max(injected_loss),
        ..SurveyOptions::default()
    };
    let estimate = {
        let mut access = EngineAccess::new(&mut transport, INGRESS);
        enumerate_adaptive(&mut access, &mut infra, &opts, SimTime::ZERO).estimated
    };
    reporter.flush().expect("drain telemetry");

    let snap = transport.reactor().metrics().snapshot();
    println!("{label}");
    println!("  ground truth      : {caches} caches");
    println!(
        "  measured          : {estimate} caches ({})",
        if estimate == caches as u64 {
            "exact"
        } else {
            "off"
        }
    );
    println!(
        "  wire traffic      : {} datagrams sent, {} answered, {} retries",
        snap.sent, snap.received, snap.retries
    );
    println!(
        "  observed loss     : {:4.1}%  (injected {:4.1}%)",
        snap.loss_rate() * 100.0,
        (cfg.query_loss.max(injected_loss)) * 100.0
    );
    if let Some(stats) = transport.reactor().fault_stats() {
        println!(
            "  fault layer       : {} query drops, {} reply drops, {} duplicated, {} delayed",
            stats.query_drops(),
            stats.reply_drops(),
            stats.duplicated(),
            stats.delayed()
        );
    }
    if let Some(p50) = snap.latency_quantile(0.5) {
        println!("  median probe RTT  : {p50:?}");
    }
    print!(
        "  reactor health    : wheel peak {}",
        snap.wheel_pending_peak
    );
    if let Some(fill) = snap.slab_fill_peak() {
        print!(", slab fill peak {:.1}%", fill * 100.0);
    }
    if let Some(fill) = snap.batch_fill_ratio(MAX_BATCH) {
        print!(", send-batch fill {:.1}%", fill * 100.0);
    }
    println!();
    if let (Some(p50), Some(p99)) = (
        snap.loop_latency_quantile(0.5),
        snap.loop_latency_quantile(0.99),
    ) {
        println!(
            "  loop tick latency : p50 {:?}, p99 {:?} over {} iterations",
            p50, p99, snap.loop_count
        );
    }
    if let Some(insight) = transport.reactor().insight() {
        let d = insight.digests().merged();
        if let (Some(p50), Some(p99)) = (d.percentile(50.0), d.percentile(99.0)) {
            println!(
                "  rtt digest        : p50 {p50} µs, p99 {p99} µs over {} samples ({} ambiguous)",
                d.count(),
                d.ambiguous()
            );
        }
    }
    if let Some(path) = flight_dump {
        let flight = transport.reactor().flight().expect("flight enabled");
        // Same torn-artifact discipline as the daemon: temp + rename.
        let tmp = path.with_extension("jsonl.tmp");
        std::fs::write(&tmp, flight.render_jsonl()).expect("write flight dump");
        std::fs::rename(&tmp, path).expect("rename flight dump");
        println!(
            "  flight recorder   : {} records ({} shed) dumped to {}",
            flight
                .written()
                .min(flight.shards() as u64 * flight.per_shard() as u64),
            flight.shed(),
            path.display()
        );
    }
    println!(
        "  authority queries : {} served over real UDP\n",
        testbed.authority().queries_served()
    );
    registry
}

fn main() {
    let mut telemetry_jsonl: Option<std::path::PathBuf> = None;
    let mut flight_dump: Option<std::path::PathBuf> = None;
    let mut print_prometheus = false;
    let mut chaos = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--telemetry-jsonl" => {
                telemetry_jsonl = Some(args.next().expect("--telemetry-jsonl needs a path").into());
            }
            "--flight-dump" => {
                flight_dump = Some(args.next().expect("--flight-dump needs a path").into());
            }
            "--prometheus" => print_prometheus = true,
            "--chaos" => chaos = true,
            other => panic!("unknown flag {other}"),
        }
    }

    // Install the hub before anything runs: the reactor picks it up via
    // `cde_telemetry::global()`, and cde-core's `enumerate_adaptive`
    // wraps each census in a campaign span on the same hub.
    let hub = TelemetryHub::new(DEFAULT_RING_CAPACITY);
    install_global(Arc::clone(&hub));
    let mut reporter = ProgressReporter::new(Arc::clone(&hub));
    if let Some(path) = &telemetry_jsonl {
        let file = std::fs::File::create(path).expect("create telemetry jsonl");
        reporter = reporter.to_sink(file);
    }

    println!("live loopback census — real sockets, hermetic world\n");
    census(
        7,
        101,
        ResolverConfig::default(),
        None,
        "clean wire (no injected loss):",
        &mut reporter,
        flight_dump.as_deref(),
    );
    let mut registry = census(
        7,
        102,
        ResolverConfig {
            query_loss: 0.20,
            seed: 11,
        },
        None,
        "lossy wire (20% of requests dropped, absorbed by retries):",
        &mut reporter,
        flight_dump.as_deref(),
    );

    if chaos {
        // The reactor's own fault layer this time: bursty loss in
        // 3-packet runs plus duplicated and jittered datagrams, all
        // replayable from one seed.
        let seed = seed_from_env("CDE_CHAOS_SEED", 4242);
        let plan = FaultPlan {
            duplicate: Some(DuplicateFault {
                rate: 0.10,
                copies: 1,
            }),
            delay: Some(DelayFault {
                jitter: Duration::from_millis(3),
                spike_rate: 0.0,
                spike: Duration::ZERO,
            }),
            ..FaultPlan::bursty(seed, 0.30, 3.0)
        };
        registry = census(
            7,
            103,
            ResolverConfig::default(),
            Some(plan),
            &format!("chaotic wire (seeded fault plan, CDE_CHAOS_SEED={seed}):"),
            &mut reporter,
            flight_dump.as_deref(),
        );
    }

    if let Some(path) = &telemetry_jsonl {
        println!(
            "telemetry: {} events written to {} ({} dropped)",
            reporter.events_written(),
            path.display(),
            hub.dropped()
        );
    }
    if print_prometheus {
        println!("{}", registry.prometheus_text());
    }
}
