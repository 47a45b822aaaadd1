//! The `cde-serve` daemon: a simulated-testbed world, a campaign
//! manager and the HTTP control plane wired together, with telemetry
//! drained to a JSONL file.
//!
//! The daemon serves the in-process loopback testbed (real UDP over
//! loopback against the simulated resolver platform) — the same world
//! the chaos suites use — so a whole multi-tenant enumeration service
//! can be exercised end to end on one machine, kill -9 included.

use crate::http::ControlPlane;
use crate::manager::{CampaignManager, ManagerConfig, World};
use cde_core::CdeInfra;
use cde_engine::{
    EngineMetrics, FlightOptions, LiveTestbed, PulseOptions, RateConfig, ReactorConfig,
    ResolverConfig, RetryPolicy,
};
use cde_faults::FaultPlan;
use cde_platform::{NameserverNet, PlatformBuilder, SelectorKind};
use cde_pulse::{CounterSample, Pulse, ShardStat, SloSpec};
use cde_telemetry::{MetricsRegistry, TelemetryHub};
use std::fs;
use std::io::{self, Write};
use std::net::{Ipv4Addr, SocketAddr};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The testbed ingress every campaign probes through by default.
pub const INGRESS: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

/// How long a graceful shutdown waits for the reactor to drain.
const SHUTDOWN_DRAIN: Duration = Duration::from_secs(30);

/// Everything the `cde-serve` binary needs to start.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Control-plane listen address (port 0 picks an ephemeral port).
    pub listen: SocketAddr,
    /// Directory campaign snapshots live in (created if absent).
    pub checkpoint_dir: PathBuf,
    /// Hidden caches planted in the simulated testbed.
    pub caches: usize,
    /// Seed for the testbed platform and the reactor fault layer.
    pub seed: u64,
    /// Optional Gilbert–Elliott chaos: `(loss, mean_burst)` on the
    /// query path.
    pub chaos: Option<(f64, f64)>,
    /// Global probe budget shared by all tenants.
    pub rate: RateConfig,
    /// Where telemetry events are appended as JSONL (absent = dropped).
    pub telemetry_jsonl: Option<PathBuf>,
    /// File the bound control-plane address is written to, for scripts
    /// that start the daemon with port 0.
    pub addr_file: Option<PathBuf>,
    /// Resume every resumable snapshot in `checkpoint_dir` at startup.
    pub resume: bool,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            listen: SocketAddr::from(([127, 0, 0, 1], 0)),
            checkpoint_dir: PathBuf::from("cde-serve-checkpoints"),
            caches: 6,
            seed: 4242,
            chaos: None,
            rate: RateConfig {
                per_second: 2000.0,
                burst: 8.0,
            },
            telemetry_jsonl: None,
            addr_file: None,
            resume: false,
        }
    }
}

/// The assembled daemon. Dropping it tears everything down abruptly;
/// call [`Daemon::run`] for the orderly path.
pub struct Daemon {
    // Field order is drop order: the control plane stops accepting,
    // then the manager (and the reactor inside its world) goes away,
    // then the testbed joins its resolver threads.
    control: ControlPlane,
    manager: Arc<CampaignManager>,
    _testbed: LiveTestbed,
    hub: Arc<TelemetryHub>,
    pulse: Arc<Pulse>,
    engine_metrics: Arc<EngineMetrics>,
    epoch: Instant,
    jsonl: Option<fs::File>,
    resumed: Vec<String>,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("addr", &self.control.addr())
            .field("resumed", &self.resumed)
            .finish()
    }
}

impl Daemon {
    /// Builds the testbed world, the manager and the control plane.
    /// With `config.resume`, every resumable snapshot restarts
    /// immediately.
    pub fn start(config: DaemonConfig) -> io::Result<Daemon> {
        fs::create_dir_all(&config.checkpoint_dir)?;
        let hub = TelemetryHub::new(cde_telemetry::DEFAULT_RING_CAPACITY);
        let registry = MetricsRegistry::new();

        let mut net = NameserverNet::new();
        let infra = CdeInfra::install(&mut net);
        let platform = PlatformBuilder::new(config.seed)
            .ingress(vec![INGRESS])
            .egress((1..=3).map(|d| Ipv4Addr::new(192, 0, 3, d)).collect())
            .cluster(config.caches, SelectorKind::Random)
            .build();
        let testbed = LiveTestbed::launch(platform, net, ResolverConfig::default())?;

        // Enough attempts to outlast a chaos burst, short enough that a
        // fully lost probe retires in under a second.
        let policy = RetryPolicy {
            attempts: 6,
            timeout: Duration::from_millis(150),
            backoff: 1.0,
            base_delay: Duration::from_millis(1),
            jitter: 0.0,
        };
        let reactor_config = ReactorConfig {
            telemetry: Some(Arc::clone(&hub)),
            registry: Some(Arc::clone(&registry)),
            faults: config
                .chaos
                .map(|(loss, burst)| FaultPlan::bursty(config.seed, loss, burst)),
            pulse: Some(PulseOptions::default()),
            flight: Some(FlightOptions::default()),
            ..ReactorConfig::with_policy(policy, config.seed)
        };
        let transport = testbed.reactor_transport(reactor_config)?;

        let manager = CampaignManager::new(
            World { transport, infra },
            ManagerConfig {
                checkpoint_dir: config.checkpoint_dir.clone(),
                global_rate: config.rate,
                hub: Arc::clone(&hub),
                registry: Some(Arc::clone(&registry)),
            },
        );
        let resumed = if config.resume {
            manager.resume_all()?
        } else {
            Vec::new()
        };

        // The health engine: fed by the run loop's ~100ms sampler from
        // the reactor's merged metrics, surfaced on /v1/health and in
        // the Prometheus scrape.
        let mut pulse = Pulse::new(SloSpec::default());
        if let Some(exemplars) = manager.exemplars() {
            pulse = pulse.with_exemplars(exemplars);
        }
        let pulse = Arc::new(pulse);
        registry.register(Arc::clone(&pulse) as Arc<dyn cde_telemetry::Collector>);
        let engine_metrics = manager.engine_metrics();

        let control = ControlPlane::start(
            config.listen,
            Arc::clone(&manager),
            registry,
            Some(Arc::clone(&pulse)),
        )?;
        if let Some(path) = &config.addr_file {
            fs::write(path, format!("{}\n", control.addr()))?;
        }
        let jsonl = match &config.telemetry_jsonl {
            Some(path) => Some(
                fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            ),
            None => None,
        };
        Ok(Daemon {
            control,
            manager,
            _testbed: testbed,
            hub,
            pulse,
            engine_metrics,
            epoch: Instant::now(),
            jsonl,
            resumed,
        })
    }

    /// The bound control-plane address.
    pub fn addr(&self) -> SocketAddr {
        self.control.addr()
    }

    /// The campaign manager, for embedding the daemon in tests.
    pub fn manager(&self) -> &Arc<CampaignManager> {
        &self.manager
    }

    /// Campaign ids resumed from disk at startup.
    pub fn resumed(&self) -> &[String] {
        &self.resumed
    }

    /// The live health engine behind `/v1/health`, for embedding the
    /// daemon in tests.
    pub fn pulse(&self) -> &Arc<Pulse> {
        &self.pulse
    }

    /// Feeds the health engine one snapshot: the merged engine counters
    /// as a timestamped [`CounterSample`] plus every shard's runtime
    /// stats. Called from the run loop at telemetry-drain cadence.
    fn sample_pulse(&self) {
        let snap = self.engine_metrics.snapshot();
        self.pulse.observe(CounterSample {
            at_ms: self.epoch.elapsed().as_millis().min(u128::from(u64::MAX)) as u64,
            sent: snap.sent,
            received: snap.received,
            timeouts: snap.timeouts,
            retries: snap.retries,
            strays: snap.stray_replies,
            shed: self.hub.dropped(),
            emitted: self.hub.emitted(),
            in_flight: snap.in_flight,
        });
        let stats: Vec<ShardStat> = (0..self.engine_metrics.shards())
            .map(|i| {
                let shard = self.engine_metrics.shard_snapshot(i);
                ShardStat {
                    shard: i as u64,
                    busy_us: shard.loop_sum_us,
                    parked_us: shard.parked_us,
                    ring_depth: shard.ring_depth,
                    ring_depth_peak: shard.ring_depth_peak,
                    in_flight: shard.in_flight,
                    parks: shard.parks,
                    unparks: shard.unparks,
                }
            })
            .collect();
        self.pulse.observe_shards(stats);
    }

    /// Drains the hub into the JSONL file. With no file nobody reads the
    /// rendering, so the events are only drained and counted.
    fn drain_telemetry(&mut self) -> io::Result<()> {
        let jsonl = self.jsonl.as_mut().map(|f| f as &mut dyn io::Write);
        self.hub.drain_chunks(jsonl, |_| {})?;
        match &mut self.jsonl {
            Some(file) => file.flush(),
            None => Ok(()),
        }
    }

    /// Triggers a flight dump when the run loop observes a reason to:
    /// a pending SIGUSR1 (operator `kill -USR1`) or a health-verdict
    /// edge into Critical. Dump failures are reported on stderr but
    /// never stop the daemon — the black box must not take down the
    /// plane.
    fn poll_flight_triggers(&self) {
        let signalled = cde_sysio::take_sigusr1();
        let went_critical = matches!(
            self.pulse.status_transition(),
            Some((_, cde_pulse::HealthStatus::Critical))
        );
        if !signalled && !went_critical {
            return;
        }
        let reason = if signalled {
            "SIGUSR1"
        } else {
            "health Critical"
        };
        match self.manager.write_flight_dump() {
            Ok(Some(path)) => eprintln!("cde-serve: flight dump ({reason}): {}", path.display()),
            Ok(None) => {}
            Err(err) => eprintln!("cde-serve: flight dump ({reason}) failed: {err}"),
        }
    }

    /// Serves until a client POSTs `/v1/shutdown`, draining telemetry
    /// and feeding the health engine every ~100ms, then shuts down
    /// gracefully: every campaign pauses behind a resumable snapshot,
    /// the reactor drains its in-flight probes, and the final telemetry
    /// flush lands in the JSONL file. SIGUSR1 and health-verdict edges
    /// into Critical snapshot the flight rings to a dump artifact
    /// alongside the checkpoints.
    pub fn run(mut self) -> io::Result<()> {
        cde_sysio::watch_sigusr1();
        while !self.control.shutdown_requested() {
            std::thread::sleep(Duration::from_millis(100));
            self.sample_pulse();
            self.poll_flight_triggers();
            self.drain_telemetry()?;
        }
        let drained = self.manager.graceful_shutdown(SHUTDOWN_DRAIN);
        self.control.stop();
        self.drain_telemetry()?;
        if !drained {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "reactor did not drain before the shutdown deadline",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cde_telemetry::EventKind;

    #[test]
    fn a_drain_without_a_jsonl_file_keeps_the_totals() {
        let dir = std::env::temp_dir().join(format!("cde-serve-drain-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut daemon = Daemon::start(DaemonConfig {
            checkpoint_dir: dir.clone(),
            ..DaemonConfig::default()
        })
        .expect("daemon starts");
        let hub = Arc::clone(&daemon.hub);
        let before = hub.emitted();
        let burst = cde_telemetry::DEFAULT_RING_CAPACITY as u64 + 70;
        for token in 0..burst {
            hub.emit(0, EventKind::ProbePlanned { token });
        }
        daemon.drain_telemetry().expect("drain");
        assert_eq!(hub.emitted(), before + burst);
        assert_eq!(hub.dropped(), 70);
        assert_eq!(hub.queued(), 0);
        // The loss was taken by that drain: the next one has no record.
        assert!(hub
            .drain()
            .iter()
            .all(|ev| !matches!(ev.kind, EventKind::EventsDropped { .. })));
        drop(daemon);
        let _ = fs::remove_dir_all(&dir);
    }
}
