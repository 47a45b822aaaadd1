//! The probe reactor: thousands of probes in flight, one shard per core.
//!
//! The [`Reactor`] is the engine's only wire path: readiness-driven
//! event loops over non-blocking sockets, so throughput is bounded by
//! the loop's per-probe cost, not by `threads / RTT`. Since one loop
//! saturates around a single core's syscall and correlation budget, the
//! reactor runs **N independent shards** (default: one per core) and
//! partitions probes across them:
//!
//! * each shard (see the `shard` module) owns its own socket pool,
//!   **correlation table** keyed on `(socket, query id)`, [hierarchical
//!   timer wheel](crate::timer::TimerWheel) and buffer pool — nothing on
//!   the hot path is shared, so shards scale without lock contention;
//! * probes are partitioned by a **stable hash of the target ingress**
//!   ([`shard_for_target`]), so a target's replies always arrive on the
//!   shard (and socket) that probed it and correlation stays local;
//! * submissions travel over **per-shard lock-free rings**
//!   ([`cde_sysio::MpscRing`]); an idle shard blocks in one
//!   [`cde_sysio::Poller`] wait over its sockets, a submitter's
//!   [`cde_sysio::Waker`] and its next timer deadline — no mutex between
//!   submitters and any shard loop, and no nap between a reply landing
//!   and the loop reading it;
//! * observability merges instead of sharing: each shard writes its own
//!   [`MetricsBlock`](crate::metrics::MetricsBlock) (snapshots sum;
//!   exported series grow a `shard` label when sharded), RTT digests and
//!   phase timers are lock-free atomics, and the telemetry hub is
//!   multi-producer by construction.
//!
//! Probes are submitted through a [`ReactorHandle`] and complete over a
//! caller-supplied channel, so any number of clients can pipeline against
//! one reactor. [`ReactorTransport`] wraps it back into the blocking
//! one-probe [`Transport`] seam for `cde-core`'s algorithms.
//!
//! One deliberate exception: a reactor launched with
//! [`ReactorConfig::faults`] clamps to a single shard, because the fault
//! injector's decision stream is stateful and must observe datagrams in
//! one deterministic transmission order for replays to be exact.

use crate::authority::{AuthoritySync, Observation, WireAuthority};
use crate::bufpool::BufferPool;
use crate::flight::{FlightOptions, FlightRecorder};
use crate::metrics::EngineMetrics;
use crate::mulhash::MulMap;
use crate::ratelimit::RateLimiter;
use crate::resolver::{LoopbackResolver, ResolverSync};
use crate::retry::RetryPolicy;
use crate::rto::RtoTable;
pub use crate::shard::shard_for_target;
use crate::shard::{empty_slots, FaultLayer, ShardLoop, Submission, MAX_SLAB};
use crate::timer::TimerWheel;
use crate::transport::{Transport, TransportReply};
use cde_core::AccessProvider;
use cde_dns::wire::WireWriter;
use cde_dns::{Name, RecordType};
use cde_faults::{FaultPlan, FaultStats};
use cde_insight::{PhaseProfiler, RttDigestSet};
use cde_netsim::{DetRng, SimTime};
use cde_platform::NameserverNet;
use cde_pulse::ExemplarReservoir;
use cde_sysio::{MpscRing, Poller, RecvSlot, Waker, MAX_BATCH};
use cde_telemetry::{MetricsRegistry, TelemetryHub};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hardware-derived in-flight default: enough depth to hide RTT on any
/// machine, scaled up with cores.
fn default_max_in_flight() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .saturating_mul(1024)
        .clamp(1024, 16 * 1024)
}

/// Default shard count: one event loop per core.
fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Sizing and policy knobs for one [`Reactor`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Sockets in the pool, divided across shards. Replies correlate per
    /// socket, so the pool bounds id-space pressure; each shard rotates
    /// sends across its share for source-port diversity.
    pub sockets: usize,
    /// Correlation-table capacity: probes held in flight at once, summed
    /// across shards (each shard gets an equal slice, at most 65 536 —
    /// one socket's query-id space).
    pub max_in_flight: usize,
    /// Event-loop shards. Defaults to `available_parallelism`; clamped
    /// to 1 when [`faults`](Self::faults) are configured (the injector's
    /// decision stream needs one deterministic transmission order).
    pub shards: usize,
    /// Per-probe deadline/retransmit schedule.
    pub policy: RetryPolicy,
    /// Optional shared pacing (batch-aware token take). Shared across
    /// shards; each ingress's bucket is only ever touched by the one
    /// shard that owns the ingress.
    pub limiter: Option<Arc<RateLimiter>>,
    /// Seed for query-id generation and retransmit jitter (each shard
    /// forks its own indexed substream).
    pub seed: u64,
    /// Event hub for probe lifecycle events. `None` uses the process
    /// [`global`](cde_telemetry::global) hub (a no-op unless a binary
    /// installed one), so instrumentation costs one branch by default.
    pub telemetry: Option<Arc<TelemetryHub>>,
    /// Registry to register the engine's collectors into at launch:
    /// [`EngineMetrics`], the per-shard buffer-pool stats, the rate
    /// limiter (if any) and the event hub itself.
    pub registry: Option<Arc<MetricsRegistry>>,
    /// Chaos: a deterministic fault plan worn at the send/recv seam.
    /// Outbound datagrams can be dropped, REFUSED, delayed, duplicated
    /// or truncated before they reach the wire; inbound replies run the
    /// same gauntlet before correlation — so retries, timeouts and the
    /// stray/decode-error taxonomy react to injected faults exactly as
    /// they would to real ones. The injector's [`FaultStats`] register
    /// into `registry` when both are set. Forces a single shard.
    pub faults: Option<FaultPlan>,
    /// Latency capture: per-target RTT digests recorded at match time
    /// plus sampled hot-path phase timers (see [`ReactorInsight`]).
    /// Both register into `registry` when both are set.
    pub insight: Option<InsightOptions>,
    /// Health capture: a shared [`ExemplarReservoir`] every shard feeds
    /// its completed probe lifecycles into (slowest and most-retried
    /// top-K, see [`PulseOptions`]). Obtained from
    /// [`Reactor::exemplars`]; cde-serve attaches it to its
    /// [`Pulse`](cde_pulse::Pulse) so `/v1/health` carries exemplars.
    pub pulse: Option<PulseOptions>,
    /// Adaptive per-ingress retransmission timeouts: when set, the shard
    /// loops arm deadlines from a learned [`RtoTable`] (RFC 6298
    /// SRTT/RTTVAR/RTO per target ingress) instead of the static
    /// [`policy`](Self::policy) schedule — the policy's `timeout_for`
    /// stays the per-attempt upper bound, so every grace computed from
    /// [`RetryPolicy::worst_case`] remains valid. The table registers
    /// into [`registry`](Self::registry) and is obtained from
    /// [`Reactor::rto`].
    pub adaptive: Option<crate::rto::AdaptiveRtoConfig>,
    /// Always-on flight recorder: each shard loop writes a bounded ring
    /// of full-fidelity probe lifecycle records
    /// ([`FlightRecord`](crate::flight::FlightRecord)s — send / match /
    /// expiry timestamps, RTO used, disposition, wire size, query id),
    /// drop-oldest with exact shed accounting. Obtained from
    /// [`Reactor::flight`]; dump triggers (health transitions, operator
    /// requests, SIGUSR1) snapshot it to the versioned JSONL artifact
    /// `cde-analyze --forensics` consumes.
    pub flight: Option<FlightOptions>,
}

/// Knobs for the reactor's health-capture tier.
#[derive(Debug, Clone)]
pub struct PulseOptions {
    /// Exemplars kept per list (slowest / most-retried). The reservoir's
    /// admission floors make the non-candidate fast path two relaxed
    /// atomic loads, so small K keeps the hot path unmeasurable.
    pub exemplars: usize,
}

impl Default for PulseOptions {
    fn default() -> PulseOptions {
        PulseOptions { exemplars: 16 }
    }
}

/// Knobs for the reactor's latency-capture tier.
#[derive(Debug, Clone)]
pub struct InsightOptions {
    /// Wall-clock-time one in this many entries per hot-path phase.
    /// Digest recording is not sampled (it is a few relaxed atomic adds
    /// per *matched* reply, off the per-datagram fast path); this rate
    /// only throttles the `Instant::now()` pairs around timers / encode
    /// / send-batch / recv-batch / decode / correlate.
    pub phase_sample_every: u32,
}

impl Default for InsightOptions {
    fn default() -> InsightOptions {
        InsightOptions {
            phase_sample_every: 64,
        }
    }
}

/// The reactor's capture tier, shared between the shard loops and the
/// caller: lock-free per-target RTT digests (fed at reply-match time)
/// and the sampled phase profiler. Both structures are multi-producer
/// atomics, so every shard records into the same instances and a
/// snapshot is already the cross-shard merge. Obtained from
/// [`Reactor::insight`]; both pieces also register into
/// [`ReactorConfig::registry`] for Prometheus/JSON export.
#[derive(Debug)]
pub struct ReactorInsight {
    digests: Arc<RttDigestSet>,
    phases: Arc<PhaseProfiler>,
}

impl ReactorInsight {
    /// Per-target-ingress RTT digests.
    pub fn digests(&self) -> &Arc<RttDigestSet> {
        &self.digests
    }

    /// The sampled hot-path phase timers.
    pub fn phases(&self) -> &Arc<PhaseProfiler> {
        &self.phases
    }
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        let max_in_flight = default_max_in_flight();
        ReactorConfig {
            // Pool sized to the in-flight target: one socket per ~256
            // outstanding probes keeps the id space per socket sparse.
            sockets: (max_in_flight / 256).clamp(4, 16),
            max_in_flight,
            shards: default_shards(),
            policy: RetryPolicy::default(),
            limiter: None,
            seed: 0,
            telemetry: None,
            registry: None,
            faults: None,
            insight: None,
            pulse: None,
            adaptive: None,
            flight: None,
        }
    }
}

impl ReactorConfig {
    /// The default sizing with a specific retry policy and seed.
    pub fn with_policy(policy: RetryPolicy, seed: u64) -> ReactorConfig {
        ReactorConfig {
            policy,
            seed,
            ..ReactorConfig::default()
        }
    }
}

/// One finished probe, delivered on the submitter's completion channel.
#[derive(Debug, Clone)]
pub struct ProbeCompletion {
    /// The caller's correlation token, echoed back.
    pub token: u64,
    /// What the wire produced.
    pub reply: TransportReply,
}

/// Everything a submission handle needs, shared by all clones.
struct HandleShared {
    rings: Vec<Arc<MpscRing<Submission>>>,
    wakers: Vec<Waker>,
    exited: Vec<Arc<AtomicBool>>,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<EngineMetrics>,
    telemetry: Arc<TelemetryHub>,
    exemplars: Option<Arc<ExemplarReservoir>>,
    flight: Option<Arc<FlightRecorder>>,
}

/// Clone-able submission handle to a running [`Reactor`].
///
/// Routing is in the handle: [`submit`](Self::submit) hashes the target
/// ingress ([`shard_for_target`]) to pick the owning shard and pushes
/// onto that shard's lock-free ring — no lock is taken on this path, on
/// any number of concurrent submitters.
#[derive(Clone)]
pub struct ReactorHandle {
    shared: Arc<HandleShared>,
}

impl ReactorHandle {
    /// Submits one probe; its [`ProbeCompletion`] (tagged `token`) will
    /// arrive on `done`. Returns `false` if the reactor has shut down.
    ///
    /// A full ring is backpressure, not failure: the submitter spins
    /// (waking the shard each try) until the loop drains a slot — the
    /// ring is sized at twice the shard's in-flight window, so a steady
    /// submitter only ever hits this when genuinely outrunning the wire.
    pub fn submit(
        &self,
        token: u64,
        ingress: Ipv4Addr,
        qname: Name,
        qtype: RecordType,
        done: &Sender<ProbeCompletion>,
    ) -> bool {
        let shard = shard_for_target(ingress, self.shared.rings.len());
        let mut sub = Submission {
            token,
            ingress,
            qname,
            qtype,
            done: done.clone(),
        };
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst)
                || self.shared.exited[shard].load(Ordering::SeqCst)
            {
                return false;
            }
            match self.shared.rings[shard].push(sub) {
                Ok(()) => {
                    self.shared.wakers[shard].wake();
                    return true;
                }
                Err(back) => {
                    sub = back;
                    self.shared.wakers[shard].wake();
                    std::thread::yield_now();
                }
            }
        }
    }

    /// The reactor's shared metrics (merged across shards on snapshot).
    pub fn metrics(&self) -> Arc<EngineMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// The event hub the reactor emits probe lifecycle events into.
    pub fn telemetry(&self) -> Arc<TelemetryHub> {
        Arc::clone(&self.shared.telemetry)
    }

    /// The slow-probe exemplar reservoir — `None` unless the reactor was
    /// launched with [`ReactorConfig::pulse`].
    pub fn exemplars(&self) -> Option<Arc<ExemplarReservoir>> {
        self.shared.exemplars.as_ref().map(Arc::clone)
    }

    /// The flight recorder — `None` unless the reactor was launched with
    /// [`ReactorConfig::flight`]. Dump paths snapshot through this
    /// without touching the shard loops.
    pub fn flight(&self) -> Option<Arc<FlightRecorder>> {
        self.shared.flight.as_ref().map(Arc::clone)
    }
}

impl std::fmt::Debug for ReactorHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorHandle")
            .field("shards", &self.shared.rings.len())
            .finish()
    }
}

/// The sharded event-driven probe engine. See the module docs.
pub struct ShardedReactor {
    handle: ReactorHandle,
    policy: RetryPolicy,
    fault_stats: Option<Arc<FaultStats>>,
    insight: Option<Arc<ReactorInsight>>,
    rto: Option<Arc<RtoTable>>,
    flight: Option<Arc<FlightRecorder>>,
    shutdown: Arc<AtomicBool>,
    drain: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    /// Local addresses of each shard's sockets, in shard order (tests
    /// aim crafted datagrams at specific shards through these).
    socket_addrs: Vec<Vec<SocketAddr>>,
}

/// The historical name: the reactor has been sharded since the
/// shard-per-core refactor, and every seam kept working.
pub type Reactor = ShardedReactor;

impl ShardedReactor {
    /// Binds the per-shard socket pools and starts one event loop per
    /// shard.
    ///
    /// `targets` maps platform ingress addresses to the real sockets
    /// serving them (e.g. [`LoopbackResolver::ingress_addrs`]).
    pub fn launch(
        targets: HashMap<Ipv4Addr, SocketAddr>,
        config: ReactorConfig,
    ) -> io::Result<Reactor> {
        // Fault injection consumes one stateful decision stream in
        // transmission order; more than one shard would interleave it
        // nondeterministically, so chaos runs single-shard.
        let shards = if config.faults.is_some() {
            1
        } else {
            config.shards.max(1)
        };
        let max_in_flight = config.max_in_flight.max(1);
        // A shard's slab never outgrows one socket's query-id space (see
        // `MAX_SLAB`), so two live probes on a socket never share an id.
        let per_shard_in_flight = max_in_flight.div_ceil(shards).clamp(1, MAX_SLAB);
        let per_shard_sockets = config.sockets.max(1).div_ceil(shards).max(1);
        let metrics = Arc::new(EngineMetrics::with_shards(shards));
        let shutdown = Arc::new(AtomicBool::new(false));
        let drain = Arc::new(AtomicBool::new(false));
        let telemetry = config
            .telemetry
            .clone()
            .unwrap_or_else(cde_telemetry::global);
        let mut faults = config.faults.as_ref().map(FaultLayer::new);
        let fault_stats = faults.as_ref().map(FaultLayer::stats);
        let insight = config.insight.as_ref().map(|opts| {
            Arc::new(ReactorInsight {
                digests: Arc::new(RttDigestSet::for_targets(targets.keys().copied())),
                phases: Arc::new(PhaseProfiler::new(opts.phase_sample_every)),
            })
        });
        let exemplars = config
            .pulse
            .as_ref()
            .map(|opts| Arc::new(ExemplarReservoir::with_capacity(opts.exemplars)));
        let rto = config
            .adaptive
            .as_ref()
            .map(|cfg| Arc::new(RtoTable::for_targets(targets.keys().copied(), *cfg)));
        let flight = config
            .flight
            .as_ref()
            .map(|opts| Arc::new(FlightRecorder::new(shards, opts.per_shard)));
        if let Some(registry) = &config.registry {
            registry.register(Arc::clone(&metrics) as Arc<dyn cde_telemetry::Collector>);
            registry.register(Arc::clone(&telemetry) as Arc<dyn cde_telemetry::Collector>);
            if let Some(limiter) = &config.limiter {
                registry.register(Arc::clone(limiter) as Arc<dyn cde_telemetry::Collector>);
            }
            if let Some(stats) = &fault_stats {
                registry.register(Arc::clone(stats) as Arc<dyn cde_telemetry::Collector>);
            }
            if let Some(insight) = &insight {
                registry
                    .register(Arc::clone(&insight.digests) as Arc<dyn cde_telemetry::Collector>);
                registry.register(Arc::clone(&insight.phases) as Arc<dyn cde_telemetry::Collector>);
            }
            if let Some(rto) = &rto {
                registry.register(Arc::clone(rto) as Arc<dyn cde_telemetry::Collector>);
            }
        }
        let mut rings = Vec::with_capacity(shards);
        let mut wakers = Vec::with_capacity(shards);
        let mut exited = Vec::with_capacity(shards);
        let mut threads = Vec::with_capacity(shards);
        let mut socket_addrs = Vec::with_capacity(shards);
        for i in 0..shards {
            let mut sockets = Vec::with_capacity(per_shard_sockets);
            let mut addrs = Vec::with_capacity(per_shard_sockets);
            for _ in 0..per_shard_sockets {
                let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
                socket.set_nonblocking(true)?;
                // A run of replies then arrives as one message (see
                // `ShardLoop::receive`); where the kernel cannot, each
                // arrives alone, as before.
                cde_sysio::coalesce_receives(&socket);
                addrs.push(socket.local_addr()?);
                sockets.push(socket);
            }
            socket_addrs.push(addrs);
            let pool = if shards > 1 {
                BufferPool::new_labeled(128, per_shard_in_flight, i as u64)
            } else {
                BufferPool::new(128, per_shard_in_flight)
            };
            if let Some(registry) = &config.registry {
                registry.register(pool.stats());
            }
            let block = metrics.shard(i);
            block.set_slab_capacity(per_shard_in_flight as u64);
            // Twice the in-flight window: a submitter can stage a full
            // refill while the current window drains, without the ring
            // ever being the bottleneck.
            let ring = Arc::new(MpscRing::with_capacity((per_shard_in_flight * 2).max(1024)));
            let poller = Poller::new(sockets)?;
            let waker = poller.waker();
            let shard_exited = Arc::new(AtomicBool::new(false));
            let shard_loop = ShardLoop {
                targets: targets.iter().map(|(&ip, &addr)| (ip, addr)).collect(),
                poller,
                next_socket: 0,
                ring: Arc::clone(&ring),
                exited: Arc::clone(&shard_exited),
                slots: empty_slots(per_shard_in_flight),
                free_slots: (0..per_shard_in_flight).rev().collect(),
                occupied: 0,
                correlation: MulMap::with_capacity_and_hasher(
                    per_shard_in_flight,
                    Default::default(),
                ),
                timers: TimerWheel::new(0),
                expired: Vec::new(),
                ready: VecDeque::with_capacity(per_shard_in_flight),
                admitted: Vec::new(),
                pool,
                writer: WireWriter::new(),
                recv_slots: (0..MAX_BATCH).map(|_| RecvSlot::new()).collect(),
                policy: config.policy,
                limiter: config.limiter.clone(),
                rng: DetRng::seed(config.seed).fork_indexed("reactor", i as u64),
                start: Instant::now(),
                block,
                telemetry: Arc::clone(&telemetry),
                shutdown: Arc::clone(&shutdown),
                drain: Arc::clone(&drain),
                faults: faults.take(),
                insight: insight.as_ref().map(Arc::clone),
                shard_id: i as u32,
                exemplars: exemplars.as_ref().map(Arc::clone),
                rto: rto.as_ref().map(Arc::clone),
                flight: flight.as_ref().map(|f| f.ring(i)),
                outbox: Vec::new(),
            };
            let thread = std::thread::Builder::new()
                .name(format!("cde-reactor-{i}"))
                .spawn(move || shard_loop.run())?;
            rings.push(ring);
            wakers.push(waker);
            exited.push(shard_exited);
            threads.push(thread);
        }
        Ok(ShardedReactor {
            handle: ReactorHandle {
                shared: Arc::new(HandleShared {
                    rings,
                    wakers,
                    exited,
                    shutdown: Arc::clone(&shutdown),
                    metrics,
                    telemetry,
                    exemplars,
                    flight: flight.as_ref().map(Arc::clone),
                }),
            },
            policy: config.policy,
            fault_stats,
            insight,
            rto,
            flight,
            shutdown,
            drain,
            threads,
            socket_addrs,
        })
    }

    /// A clone-able submission handle.
    pub fn handle(&self) -> ReactorHandle {
        self.handle.clone()
    }

    /// The reactor's shared metrics (merged across shards on snapshot).
    pub fn metrics(&self) -> Arc<EngineMetrics> {
        self.handle.metrics()
    }

    /// The event hub this reactor emits into (the configured one, or the
    /// process global at launch time).
    pub fn telemetry(&self) -> Arc<TelemetryHub> {
        self.handle.telemetry()
    }

    /// The per-probe retry policy the loops apply.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// How many shard loops this reactor is running.
    pub fn shards(&self) -> usize {
        self.threads.len().max(self.socket_addrs.len())
    }

    /// Local addresses of every shard's sockets, indexed by shard. Tests
    /// use these to aim crafted datagrams at a *specific* shard (e.g. to
    /// prove a reply landing on the wrong shard's socket counts as a
    /// stray rather than matching).
    pub fn shard_socket_addrs(&self) -> &[Vec<SocketAddr>] {
        &self.socket_addrs
    }

    /// Counters of what the chaos layer injected — `None` unless the
    /// reactor was launched with [`ReactorConfig::faults`].
    pub fn fault_stats(&self) -> Option<Arc<FaultStats>> {
        self.fault_stats.as_ref().map(Arc::clone)
    }

    /// The latency-capture tier (RTT digests + phase timers) — `None`
    /// unless the reactor was launched with [`ReactorConfig::insight`].
    pub fn insight(&self) -> Option<Arc<ReactorInsight>> {
        self.insight.as_ref().map(Arc::clone)
    }

    /// The per-ingress adaptive RTO table — `None` unless the reactor
    /// was launched with [`ReactorConfig::adaptive`]. cde-serve snapshots
    /// and restores the learned state through this at checkpoint time.
    pub fn rto(&self) -> Option<Arc<RtoTable>> {
        self.rto.as_ref().map(Arc::clone)
    }

    /// The slow-probe exemplar reservoir — `None` unless the reactor was
    /// launched with [`ReactorConfig::pulse`].
    pub fn exemplars(&self) -> Option<Arc<ExemplarReservoir>> {
        self.handle.exemplars()
    }

    /// The always-on flight recorder — `None` unless the reactor was
    /// launched with [`ReactorConfig::flight`]. Snapshot/render it at
    /// any time; readers never block the shard loops.
    pub fn flight(&self) -> Option<Arc<FlightRecorder>> {
        self.flight.as_ref().map(Arc::clone)
    }

    fn wake_all(&self) {
        for waker in &self.handle.shared.wakers {
            waker.force_wake();
        }
    }

    /// Asks every shard loop to drain and exit: each keeps admitting
    /// already-queued submissions and lets every in-flight probe answer
    /// or time out, then stops on its own. Returns immediately; pair
    /// with [`Reactor::shutdown_graceful`] to wait for completion.
    pub fn begin_drain(&self) {
        self.drain.store(true, Ordering::SeqCst);
        self.wake_all();
    }

    /// Graceful shutdown: drains in-flight probes (see
    /// [`Reactor::begin_drain`]) and waits up to `timeout` for every
    /// shard loop to exit on its own, falling back to the abrupt stop
    /// otherwise.
    ///
    /// Returns `true` when all shards drained cleanly within the budget.
    /// Either way every loop thread is joined before returning, so every
    /// completion has been delivered and the telemetry hub holds every
    /// event the reactor will ever emit — callers should flush their
    /// drains (JSONL, insight digests) *after* this returns.
    pub fn shutdown_graceful(&mut self, timeout: Duration) -> bool {
        self.drain.store(true, Ordering::SeqCst);
        self.wake_all();
        let deadline = Instant::now() + timeout;
        let drained = loop {
            if self.threads.iter().all(JoinHandle::is_finished) {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake_all();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        drained
    }
}

impl Drop for ShardedReactor {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake_all();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl std::fmt::Debug for ShardedReactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedReactor")
            .field("policy", &self.policy)
            .field("shards", &self.shards())
            .finish()
    }
}

/// Back-channel to the serving side of a live deployment: zone edits go
/// out to the resolver (and authority), observed queries come back.
struct SyncLink {
    resolver: ResolverSync,
    authority: Option<AuthoritySync>,
    observations: Receiver<Observation>,
}

impl SyncLink {
    fn connect(resolver: &LoopbackResolver, authority: Option<&WireAuthority>) -> SyncLink {
        SyncLink {
            resolver: resolver.syncer(),
            authority: authority.map(WireAuthority::syncer),
            observations: resolver.observations(),
        }
    }

    /// Pushes zone snapshots to the serving side.
    fn push(&self, net: &NameserverNet) {
        self.resolver.sync(net);
        if let Some(authority) = &self.authority {
            authority.sync(net);
        }
    }

    /// Folds queries observed at the serving side into the canonical net.
    fn drain_into(&self, net: &mut NameserverNet) {
        for (vaddr, entry) in self.observations.try_iter() {
            if let Some(server) = net.server_mut(vaddr) {
                server.record_query(entry);
            }
        }
    }
}

/// The one-shot blocking seam over a [`Reactor`]: a [`Transport`], so
/// `cde-core`'s algorithms (and [`EngineAccess`](crate::EngineAccess))
/// run on the reactor unchanged.
///
/// The transport owns the canonical [`NameserverNet`]. Zone edits made
/// through [`Transport::net_mut`] are pushed to the serving side before
/// the next probe, and queries observed there are folded back in after
/// each probe, so `cde-core`'s honey counting reads exactly what it
/// reads in the simulator.
pub struct ReactorTransport {
    reactor: Reactor,
    net: NameserverNet,
    link: Option<SyncLink>,
    done_tx: Sender<ProbeCompletion>,
    done_rx: Receiver<ProbeCompletion>,
    next_token: u64,
    dirty: bool,
}

impl ReactorTransport {
    /// Wires a reactor-backed transport to a launched resolver (and,
    /// when the resolver replays upstream traffic, the authority behind
    /// it). `net` is the canonical authoritative world — normally the
    /// same net the resolver and authority were launched from.
    pub fn connect(
        resolver: &LoopbackResolver,
        authority: Option<&WireAuthority>,
        net: NameserverNet,
        config: ReactorConfig,
    ) -> io::Result<ReactorTransport> {
        let mut transport =
            ReactorTransport::direct(resolver.ingress_addrs().clone(), net, config)?;
        transport.link = Some(SyncLink::connect(resolver, authority));
        Ok(transport)
    }

    /// A reactor-backed transport aimed at arbitrary `targets` with no
    /// serving-side back-channel.
    pub fn direct(
        targets: HashMap<Ipv4Addr, SocketAddr>,
        net: NameserverNet,
        config: ReactorConfig,
    ) -> io::Result<ReactorTransport> {
        let reactor = Reactor::launch(targets, config)?;
        let (done_tx, done_rx) = unbounded();
        Ok(ReactorTransport {
            reactor,
            net,
            link: None,
            done_tx,
            done_rx,
            next_token: 0,
            dirty: true,
        })
    }

    /// The reactor behind this transport (for pipelined submission).
    pub fn reactor(&self) -> &Reactor {
        &self.reactor
    }

    /// Pushes pending zone edits (anything done through `net_mut`) to
    /// the serving side now, without waiting for the next `query`.
    /// Long-lived daemons call this after installing new sessions so
    /// probes submitted via the [`ReactorHandle`] resolve against the
    /// updated zones.
    pub fn sync_serving_side(&mut self) {
        self.sync_if_dirty();
    }

    /// Folds queued serving-side observations into the canonical net
    /// now, without waiting for the next `query`. Daemons that drive
    /// probes through the raw [`ReactorHandle`] use this to pull
    /// nameserver-log evidence at checkpoint time; between calls the
    /// observations stay queued on the resolver's bounded channel.
    pub fn drain_serving_observations(&mut self) {
        self.drain_observations();
    }

    /// Gracefully shuts the backing reactor down: drains in-flight
    /// probes and joins the loop threads. See
    /// [`Reactor::shutdown_graceful`].
    pub fn shutdown_graceful(&mut self, timeout: Duration) -> bool {
        self.reactor.shutdown_graceful(timeout)
    }

    /// Per-attempt wire loss observed so far.
    pub fn observed_loss_rate(&self) -> f64 {
        self.reactor.metrics().snapshot().loss_rate()
    }

    fn sync_if_dirty(&mut self) {
        if !self.dirty {
            return;
        }
        if let Some(link) = &self.link {
            link.push(&self.net);
        }
        self.dirty = false;
    }

    fn drain_observations(&mut self) {
        if let Some(link) = &self.link {
            link.drain_into(&mut self.net);
        }
    }
}

impl std::fmt::Debug for ReactorTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorTransport")
            .field("reactor", &self.reactor)
            .finish()
    }
}

impl Transport for ReactorTransport {
    fn query(
        &mut self,
        ingress: Ipv4Addr,
        qname: &Name,
        qtype: RecordType,
        _now: SimTime,
    ) -> TransportReply {
        self.sync_if_dirty();
        let token = self.next_token;
        self.next_token += 1;
        if !self
            .reactor
            .handle
            .submit(token, ingress, qname.clone(), qtype, &self.done_tx)
        {
            return TransportReply::TimedOut;
        }
        // Generous upper bound: the reactor itself enforces the real
        // deadlines; this only guards against a dead loop.
        let grace = self.reactor.policy().worst_case() + Duration::from_secs(2);
        loop {
            match self.done_rx.recv_timeout(grace) {
                Ok(c) if c.token == token => {
                    self.drain_observations();
                    return c.reply;
                }
                // A stale completion from an abandoned earlier query.
                Ok(_) => continue,
                Err(_) => {
                    self.drain_observations();
                    return TransportReply::TimedOut;
                }
            }
        }
    }

    fn net(&self) -> &NameserverNet {
        &self.net
    }

    fn net_mut(&mut self) -> &mut NameserverNet {
        self.dirty = true;
        &mut self.net
    }

    fn metrics(&self) -> Arc<EngineMetrics> {
        self.reactor.metrics()
    }
}

impl AccessProvider for ReactorTransport {
    type Channel<'a>
        = crate::transport::EngineAccess<'a, ReactorTransport>
    where
        Self: 'a;

    fn channel(&mut self, ingress: Ipv4Addr) -> Self::Channel<'_> {
        crate::transport::EngineAccess::new(self, ingress)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cde_dns::Message;

    fn policy_ms(attempts: u32, timeout_ms: u64) -> RetryPolicy {
        RetryPolicy {
            attempts,
            timeout: Duration::from_millis(timeout_ms),
            backoff: 1.0,
            base_delay: Duration::from_millis(1),
            jitter: 0.0,
        }
    }

    #[test]
    fn unroutable_ingress_completes_as_timeout() {
        let reactor = Reactor::launch(
            HashMap::new(),
            ReactorConfig::with_policy(policy_ms(1, 20), 3),
        )
        .unwrap();
        let (done_tx, done_rx) = unbounded();
        let qname: Name = "x.example".parse().unwrap();
        assert!(reactor.handle().submit(
            7,
            Ipv4Addr::new(192, 0, 2, 1),
            qname,
            RecordType::A,
            &done_tx
        ));
        let c = done_rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(c.token, 7);
        assert_eq!(c.reply, TransportReply::TimedOut);
        assert_eq!(reactor.metrics().snapshot().timeouts, 1);
    }

    #[test]
    fn silent_target_retries_then_times_out() {
        let sink = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let ingress = Ipv4Addr::new(192, 0, 2, 1);
        let mut targets = HashMap::new();
        targets.insert(ingress, sink.local_addr().unwrap());
        let reactor =
            Reactor::launch(targets, ReactorConfig::with_policy(policy_ms(3, 15), 9)).unwrap();
        let (done_tx, done_rx) = unbounded();
        let qname: Name = "y.example".parse().unwrap();
        reactor
            .handle()
            .submit(1, ingress, qname, RecordType::A, &done_tx);
        let c = done_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(c.reply, TransportReply::TimedOut);
        let snap = reactor.metrics().snapshot();
        assert_eq!(snap.sent, 3);
        assert_eq!(snap.retries, 2);
        assert_eq!(snap.timeouts, 1);
        assert_eq!(snap.in_flight, 0);
        assert_eq!(snap.in_flight_peak, 1);
    }

    #[test]
    fn many_probes_pipeline_through_one_echo_server() {
        // An echo server answering every query: N probes must all
        // complete while overlapping in flight.
        let server = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        server
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let server_addr = server.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let server_thread = std::thread::spawn({
            let stop = Arc::clone(&stop);
            move || {
                let mut buf = [0u8; 2048];
                while !stop.load(Ordering::SeqCst) {
                    let Ok((len, peer)) = server.recv_from(&mut buf) else {
                        continue;
                    };
                    if let Ok(q) = Message::decode(&buf[..len]) {
                        let resp = Message::response_to(&q);
                        let _ = server.send_to(&resp.encode().unwrap(), peer);
                    }
                }
            }
        });

        let ingress = Ipv4Addr::new(192, 0, 2, 5);
        let mut targets = HashMap::new();
        targets.insert(ingress, server_addr);
        let reactor =
            Reactor::launch(targets, ReactorConfig::with_policy(policy_ms(3, 500), 11)).unwrap();
        let (done_tx, done_rx) = unbounded();
        let total = 300u64;
        let handle = reactor.handle();
        for token in 0..total {
            let qname: Name = format!("p-{token}.cache.example").parse().unwrap();
            assert!(handle.submit(token, ingress, qname, RecordType::A, &done_tx));
        }
        let mut answered = 0;
        for _ in 0..total {
            let c = done_rx.recv_timeout(Duration::from_secs(10)).unwrap();
            if c.reply.is_answered() {
                answered += 1;
            }
        }
        stop.store(true, Ordering::SeqCst);
        server_thread.join().unwrap();
        assert_eq!(answered, total, "every echoed probe must complete");
        let snap = reactor.metrics().snapshot();
        assert_eq!(snap.received, total);
        assert!(
            snap.in_flight_peak > 1,
            "probes never overlapped (peak {})",
            snap.in_flight_peak
        );
        assert!(snap.batches_sent() > 0);
        assert!(snap.loop_count > 0);
    }

    #[test]
    fn pulse_reservoir_captures_probe_lifecycles() {
        let server = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        server
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let server_addr = server.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let server_thread = std::thread::spawn({
            let stop = Arc::clone(&stop);
            move || {
                let mut buf = [0u8; 2048];
                while !stop.load(Ordering::SeqCst) {
                    let Ok((len, peer)) = server.recv_from(&mut buf) else {
                        continue;
                    };
                    if let Ok(q) = Message::decode(&buf[..len]) {
                        let resp = Message::response_to(&q);
                        let _ = server.send_to(&resp.encode().unwrap(), peer);
                    }
                }
            }
        });

        let ingress = Ipv4Addr::new(192, 0, 2, 9);
        let mut targets = HashMap::new();
        targets.insert(ingress, server_addr);
        let config = ReactorConfig {
            pulse: Some(crate::reactor::PulseOptions { exemplars: 4 }),
            ..ReactorConfig::with_policy(policy_ms(3, 500), 21)
        };
        let reactor = Reactor::launch(targets, config).unwrap();
        let reservoir = reactor.exemplars().expect("pulse configured");
        let (done_tx, done_rx) = unbounded();
        let total = 50u64;
        let handle = reactor.handle();
        assert!(handle.exemplars().is_some(), "handle exposes the reservoir");
        for token in 0..total {
            let qname: Name = format!("e-{token}.cache.example").parse().unwrap();
            assert!(handle.submit(token, ingress, qname, RecordType::A, &done_tx));
        }
        for _ in 0..total {
            done_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        stop.store(true, Ordering::SeqCst);
        server_thread.join().unwrap();
        assert_eq!(reservoir.observed(), total);
        let slowest = reservoir.slowest();
        assert!(!slowest.is_empty() && slowest.len() <= 4);
        let worst = &slowest[0];
        assert_eq!(worst.ingress, ingress);
        assert!(worst.answered);
        assert!(worst.attempts >= 1);
        assert!(worst.lifetime_us > 0);
        assert!(worst.lifetime_us >= worst.rtt_us);
        assert!(reservoir.worst_lifetime_us() >= worst.lifetime_us);
    }

    #[test]
    fn flight_ring_records_full_probe_lifecycles() {
        let server = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        server
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let server_addr = server.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let server_thread = std::thread::spawn({
            let stop = Arc::clone(&stop);
            move || {
                let mut buf = [0u8; 2048];
                while !stop.load(Ordering::SeqCst) {
                    let Ok((len, peer)) = server.recv_from(&mut buf) else {
                        continue;
                    };
                    if let Ok(q) = Message::decode(&buf[..len]) {
                        let resp = Message::response_to(&q);
                        let _ = server.send_to(&resp.encode().unwrap(), peer);
                    }
                }
            }
        });

        let ingress = Ipv4Addr::new(192, 0, 2, 11);
        let unroutable = Ipv4Addr::new(192, 0, 2, 12);
        let mut targets = HashMap::new();
        targets.insert(ingress, server_addr);
        let config = ReactorConfig {
            flight: Some(FlightOptions { per_shard: 256 }),
            ..ReactorConfig::with_policy(policy_ms(3, 500), 33)
        };
        let reactor = Reactor::launch(targets, config).unwrap();
        let recorder = reactor.flight().expect("flight configured");
        let (done_tx, done_rx) = unbounded();
        let total = 40u64;
        let handle = reactor.handle();
        assert!(handle.flight().is_some(), "handle exposes the recorder");
        for token in 0..total {
            let qname: Name = format!("f-{token}.cache.example").parse().unwrap();
            assert!(handle.submit(token, ingress, qname, RecordType::A, &done_tx));
        }
        let qname: Name = "f-unroutable.cache.example".parse().unwrap();
        assert!(handle.submit(total, unroutable, qname, RecordType::A, &done_tx));
        for _ in 0..=total {
            done_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        stop.store(true, Ordering::SeqCst);
        server_thread.join().unwrap();

        assert_eq!(recorder.written(), total + 1);
        assert_eq!(recorder.shed(), 0);
        let records = recorder.snapshot();
        assert_eq!(records.len() as u64, total + 1);
        let answered: Vec<_> = records
            .iter()
            .filter(|r| r.disposition == crate::flight::FlightDisposition::Answered)
            .collect();
        assert_eq!(answered.len() as u64, total);
        for r in &answered {
            assert_eq!(r.ingress, ingress);
            assert!(r.attempts >= 1);
            assert!(r.sent_at_us > 0, "answered probes were sent");
            assert!(r.matched_at_us >= r.sent_at_us, "match follows send");
            assert_eq!(r.expired_at_us, 0, "answered probes never expired");
            assert!(r.rto_us > 0, "the armed deadline is recorded");
            assert!(r.wire_size > 0, "encoded size is recorded");
            assert!(r.recorded_at_us >= r.matched_at_us);
        }
        let dead: Vec<_> = records
            .iter()
            .filter(|r| r.disposition == crate::flight::FlightDisposition::Unroutable)
            .collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].token, total);
        assert_eq!(dead[0].ingress, unroutable);
        assert_eq!(
            dead[0].sent_at_us, 0,
            "unroutable probes never hit the wire"
        );
        let snap = reactor.metrics().snapshot();
        assert_eq!(snap.flight_records, total + 1);
        assert_eq!(snap.flight_shed, 0);
        // The dump artifact renders with the versioned header.
        let dump = recorder.render_jsonl();
        assert!(dump.starts_with("{\"kind\": \"flight_header\", \"flight_version\": 1"));
    }

    #[test]
    fn flight_ring_records_expiries_with_final_deadline() {
        let sink = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let ingress = Ipv4Addr::new(192, 0, 2, 13);
        let mut targets = HashMap::new();
        targets.insert(ingress, sink.local_addr().unwrap());
        let config = ReactorConfig {
            flight: Some(FlightOptions::default()),
            ..ReactorConfig::with_policy(policy_ms(2, 15), 17)
        };
        let reactor = Reactor::launch(targets, config).unwrap();
        let (done_tx, done_rx) = unbounded();
        let qname: Name = "t.cache.example".parse().unwrap();
        assert!(reactor
            .handle()
            .submit(5, ingress, qname, RecordType::A, &done_tx));
        let c = done_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(c.reply, TransportReply::TimedOut);
        let records = reactor.flight().unwrap().snapshot();
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.disposition, crate::flight::FlightDisposition::TimedOut);
        assert_eq!(r.token, 5);
        assert_eq!(r.attempts, 2, "both attempts were made before giving up");
        assert!(r.sent_at_us > 0);
        assert_eq!(r.matched_at_us, 0, "no reply ever matched");
        assert!(
            r.expired_at_us >= r.sent_at_us,
            "expiry follows the last send"
        );
    }

    #[test]
    fn graceful_shutdown_drains_in_flight_probes() {
        let server = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        server
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let server_addr = server.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let server_thread = std::thread::spawn({
            let stop = Arc::clone(&stop);
            move || {
                let mut buf = [0u8; 2048];
                while !stop.load(Ordering::SeqCst) {
                    let Ok((len, peer)) = server.recv_from(&mut buf) else {
                        continue;
                    };
                    if let Ok(q) = Message::decode(&buf[..len]) {
                        let resp = Message::response_to(&q);
                        let _ = server.send_to(&resp.encode().unwrap(), peer);
                    }
                }
            }
        });

        let ingress = Ipv4Addr::new(192, 0, 2, 6);
        let mut targets = HashMap::new();
        targets.insert(ingress, server_addr);
        let mut reactor =
            Reactor::launch(targets, ReactorConfig::with_policy(policy_ms(3, 500), 8)).unwrap();
        let (done_tx, done_rx) = unbounded();
        let total = 120u64;
        let handle = reactor.handle();
        for token in 0..total {
            let qname: Name = format!("g-{token}.cache.example").parse().unwrap();
            assert!(handle.submit(token, ingress, qname, RecordType::A, &done_tx));
        }
        // Ask for a drain while most of the burst is still queued or in
        // flight: every submitted probe must still be resolved before
        // the loop exits.
        let drained = reactor.shutdown_graceful(Duration::from_secs(10));
        assert!(drained, "loop should exit within the drain budget");
        stop.store(true, Ordering::SeqCst);
        server_thread.join().unwrap();
        let mut completions = 0;
        while done_rx.try_recv().is_ok() {
            completions += 1;
        }
        assert_eq!(completions, total, "drain must deliver every completion");
        let snap = reactor.metrics().snapshot();
        assert_eq!(snap.in_flight, 0, "nothing left in flight after drain");
    }
}
