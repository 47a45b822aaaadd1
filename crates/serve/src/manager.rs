//! The campaign manager: many concurrent campaigns multiplexed over one
//! shared reactor, with weighted per-tenant pacing and checkpoint/resume.
//!
//! # Ownership
//!
//! The manager owns the [`World`] — the reactor-backed transport plus
//! the [`CdeInfra`] name authority — behind one mutex. Campaign workers
//! never touch the world on their hot path: they submit probes through
//! a cloned [`ReactorHandle`] and receive completions on their own
//! channel. The world lock is taken only to open sessions (submission /
//! resume) and to drain observation evidence at checkpoint time.
//!
//! # Counting
//!
//! Each campaign's worker steps one [`Enumerator`], the counting loop
//! the simulator drivers step too, with the campaign's `window` and a
//! count every `checkpoint_every` completions: `Probe` submits under the
//! tenant's pacing, `Wait` takes a completion, `Count` is a checkpoint
//! and `Done` closes the campaign with the `Enumerator`'s tallies.
//!
//! # Checkpoint exactness
//!
//! Serving-side observations (honey fetches seen by the nameserver) are
//! drained from the resolver's shared channel **only** inside
//! `CampaignManager::checkpoint_campaign`: drain → count through the
//! campaign's `Observer` → `Enumerator::on_count` → write temp file →
//! atomic rename, all in one hold of the campaign's lock, so two
//! checkpoints of one campaign never interleave and a count that ends
//! the run writes the terminal snapshot. Between checkpoints the events
//! stay queued on the resolver's bounded channel, which survives the
//! death of this process's transport — a resumed manager's fresh
//! transport drains the pre-kill remainder. Combined with the counting
//! principle (warm caches never re-fetch the honey record, so
//! re-probing undecided indexes cannot inflate the count),
//! `snapshot.observed + count(new net)` is exact across kill/resume.
//! The only loss window is a crash *between* the drain and the rename,
//! which is a handful of microseconds of file IO; see DESIGN.md §6g.

use crate::campaign::{valid_name, CampaignSpec, CampaignState, CampaignStatus};
use crate::snapshot::{CampaignSnapshot, ProbeDisposition};
use crate::tenant::TenantRegistry;
use cde_core::{CdeInfra, Enumerator, Observer, ProbePlan, SequentialPlanner, Session, Step};
use cde_dns::{Rcode, RecordType};
use cde_engine::rto::EstimatorSnapshot;
use cde_engine::scheduler::{CampaignReport, Probe, ProbeOutcome};
use cde_engine::{
    EngineMetrics, FlightRecorder, RateConfig, ReactorHandle, ReactorTransport, RtoTable,
    TenantRate, Transport, TransportReply, WeightedRateLimiter,
};
use cde_pulse::ExemplarReservoir;
use cde_telemetry::{CampaignSpan, MetricsRegistry, TelemetryHub};
use crossbeam::channel::{unbounded, RecvTimeoutError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs;
use std::io;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Flag-check granularity for pacing sleeps and completion waits, so
/// cancel/pause/kill requests take effect promptly.
const POLL: Duration = Duration::from_millis(25);

/// The measurement world a manager drives: one reactor-backed transport
/// (owning the canonical net) plus the name authority deriving session
/// names over it.
#[derive(Debug)]
pub struct World {
    /// Live transport over the deployment (testbed or real resolvers).
    pub transport: ReactorTransport,
    /// The CDE zone authority handle.
    pub infra: CdeInfra,
}

/// Construction knobs for a [`CampaignManager`].
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// Directory campaign snapshots are written to.
    pub checkpoint_dir: PathBuf,
    /// Global probe budget shared (weighted) between tenants.
    pub global_rate: RateConfig,
    /// Hub campaign spans are emitted into.
    pub hub: Arc<TelemetryHub>,
    /// Registry to export tenant counters and limiter shares into.
    pub registry: Option<Arc<MetricsRegistry>>,
}

impl ManagerConfig {
    /// A config with a generous default budget (2000 probes/s, burst 8)
    /// and a fresh enabled hub.
    pub fn new(checkpoint_dir: PathBuf) -> ManagerConfig {
        ManagerConfig {
            checkpoint_dir,
            global_rate: RateConfig {
                per_second: 2000.0,
                burst: 8.0,
            },
            hub: TelemetryHub::new(cde_telemetry::DEFAULT_RING_CAPACITY),
            registry: None,
        }
    }
}

#[derive(Debug)]
struct Progress {
    state: CampaignState,
    outcomes: Vec<ProbeDisposition>,
    /// The counting procedure; its tallies are the campaign's.
    machine: Enumerator,
    /// This campaign's read of the serving-side logs, from a cursor.
    observer: Observer,
    resumed_from: u64,
    checkpoints: u64,
    checkpoint_path: Option<PathBuf>,
}

/// One campaign's immutable parameters plus its mutable progress.
#[derive(Debug)]
pub(crate) struct CampaignHandle {
    id: String,
    tenant: &'static str,
    tenant_name: String,
    label: String,
    ingress: Ipv4Addr,
    farm_size: usize,
    redundancy: u64,
    window: usize,
    checkpoint_every: u64,
    kill_after: Option<u64>,
    session_counter: u64,
    plan: ProbePlan,
    session: Session,
    total: u64,
    /// Honey fetches accounted by snapshots of *previous* processes;
    /// the live count in this world's net adds on top.
    observed_base: u64,
    /// Outcomes, `Enumerator` and `Observer` under one lock, which a
    /// checkpoint holds from its count through the rename.
    progress: Mutex<Progress>,
    cancel: AtomicBool,
    pause: AtomicBool,
    kill: AtomicBool,
    thread: Mutex<Option<JoinHandle<()>>>,
}

/// The multi-tenant campaign daemon core. See the module docs.
pub struct CampaignManager {
    world: Mutex<World>,
    handle: ReactorHandle,
    /// The reactor's adaptive RTO table, when one is configured; cloned
    /// out once so checkpoints and resumes never take the world lock to
    /// reach estimator state.
    rto: Option<Arc<RtoTable>>,
    /// The reactor's flight recorder, when one is configured; cloned out
    /// once so dump triggers never take the world lock.
    flight: Option<Arc<FlightRecorder>>,
    grace: Duration,
    limiter: Arc<WeightedRateLimiter>,
    tenants: Arc<TenantRegistry>,
    hub: Arc<TelemetryHub>,
    checkpoint_dir: PathBuf,
    campaigns: Mutex<Vec<Arc<CampaignHandle>>>,
    next_id: AtomicU64,
}

impl std::fmt::Debug for CampaignManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignManager")
            .field("checkpoint_dir", &self.checkpoint_dir)
            .field("campaigns", &self.campaigns.lock().len())
            .finish()
    }
}

impl CampaignManager {
    /// Wraps `world` in a manager. The reactor behind the transport
    /// stays under the manager's control; its submission handle is
    /// cloned out once here.
    pub fn new(world: World, config: ManagerConfig) -> Arc<CampaignManager> {
        let handle = world.transport.reactor().handle();
        let rto = world.transport.reactor().rto();
        let flight = world.transport.reactor().flight();
        let grace = world.transport.reactor().policy().worst_case() + Duration::from_secs(2);
        let limiter = Arc::new(WeightedRateLimiter::new(config.global_rate));
        let tenants = TenantRegistry::new();
        if let Some(registry) = &config.registry {
            registry.register(Arc::clone(&tenants) as Arc<dyn cde_telemetry::Collector>);
            registry.register(Arc::clone(&limiter) as Arc<dyn cde_telemetry::Collector>);
        }
        Arc::new(CampaignManager {
            world: Mutex::new(world),
            handle,
            rto,
            flight,
            grace,
            limiter,
            tenants,
            hub: config.hub,
            checkpoint_dir: config.checkpoint_dir,
            campaigns: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
        })
    }

    /// The tenant registry (names, weights, per-tenant counters).
    pub fn tenants(&self) -> &Arc<TenantRegistry> {
        &self.tenants
    }

    /// The weighted limiter sharing the global probe budget.
    pub fn limiter(&self) -> &Arc<WeightedRateLimiter> {
        &self.limiter
    }

    /// Where snapshots are written.
    pub fn checkpoint_dir(&self) -> &Path {
        &self.checkpoint_dir
    }

    /// The hub campaign spans are emitted into.
    pub fn hub(&self) -> &Arc<TelemetryHub> {
        &self.hub
    }

    /// The shared reactor's engine metrics (merged across shards on
    /// snapshot; per-shard blocks via `shard_snapshot`). The health
    /// sampler reads these without taking the world lock.
    pub fn engine_metrics(&self) -> Arc<EngineMetrics> {
        self.handle.metrics()
    }

    /// The reactor's slow-probe exemplar reservoir, when the reactor was
    /// launched with pulse options.
    pub fn exemplars(&self) -> Option<Arc<ExemplarReservoir>> {
        self.handle.exemplars()
    }

    /// The reactor's flight recorder, when the reactor was launched
    /// with flight options.
    pub fn flight(&self) -> Option<&Arc<FlightRecorder>> {
        self.flight.as_ref()
    }

    /// Snapshots the flight rings to a versioned JSONL artifact
    /// (`flight-<n>.jsonl`, monotonically numbered) alongside the live
    /// checkpoints. Like checkpoints, the dump lands via temp file +
    /// fsync + atomic rename, so a kill -9 at any point never leaves a
    /// torn artifact. Returns `Ok(None)` when no flight recorder is
    /// configured.
    pub fn write_flight_dump(&self) -> io::Result<Option<PathBuf>> {
        let Some(flight) = &self.flight else {
            return Ok(None);
        };
        let jsonl = flight.render_jsonl();
        let next = fs::read_dir(&self.checkpoint_dir)?
            .filter_map(|entry| {
                let name = entry.ok()?.file_name().into_string().ok()?;
                let idx = name.strip_prefix("flight-")?.strip_suffix(".jsonl")?;
                idx.parse::<u64>().ok()
            })
            .max()
            .map_or(0, |max| max + 1);
        let path = self.checkpoint_dir.join(format!("flight-{next}.jsonl"));
        let tmp = self.checkpoint_dir.join(format!("flight-{next}.jsonl.tmp"));
        {
            let mut file = fs::File::create(&tmp)?;
            std::io::Write::write_all(&mut file, jsonl.as_bytes())?;
            file.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        Ok(Some(path))
    }

    /// The current per-ingress RTT estimator snapshots, empty when the
    /// reactor runs the static retry policy. Sorted by ingress address.
    pub fn rto_snapshots(&self) -> Vec<(Ipv4Addr, EstimatorSnapshot)> {
        self.rto
            .as_ref()
            .map(|table| table.snapshots())
            .unwrap_or_default()
    }

    /// Registers (or re-weights) a tenant in both the registry and the
    /// weighted limiter.
    pub fn register_tenant(
        &self,
        name: &str,
        weight: f64,
        cap: Option<RateConfig>,
    ) -> io::Result<()> {
        if !valid_name(name) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("invalid tenant name {name:?}"),
            ));
        }
        if !(weight > 0.0 && weight.is_finite()) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("tenant weight must be positive and finite, got {weight}"),
            ));
        }
        self.tenants.register(name, weight);
        self.limiter.register(name, TenantRate { weight, cap });
        Ok(())
    }

    /// Validates `spec`, derives its plan, opens a session and spawns
    /// the campaign worker. Returns the new campaign id.
    pub fn submit(self: &Arc<Self>, spec: CampaignSpec) -> io::Result<String> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidInput, msg);
        if !valid_name(&spec.tenant) {
            return Err(invalid(format!("invalid tenant name {:?}", spec.tenant)));
        }
        if !valid_name(&spec.label) {
            return Err(invalid(format!("invalid label {:?}", spec.label)));
        }
        if !(0.0..1.0).contains(&spec.loss_hint) {
            return Err(invalid(format!(
                "loss_hint {} outside [0, 1)",
                spec.loss_hint
            )));
        }
        if spec.sequential_epsilon != 0.0 && !(0.0..1.0).contains(&spec.sequential_epsilon) {
            return Err(invalid(format!(
                "sequential_epsilon {} outside [0, 1)",
                spec.sequential_epsilon
            )));
        }
        let n_max = spec.caches_hint.max(1);
        let plan = if spec.mean_burst_hint > 1.0 {
            ProbePlan::for_bursty_target(n_max, spec.loss_hint, spec.mean_burst_hint)
        } else {
            ProbePlan::for_target(n_max, spec.loss_hint)
        };
        let farm_size = if spec.farm_size > 0 {
            spec.farm_size
        } else {
            plan.probes.clamp(1, 4096) as usize
        };
        let redundancy = if spec.redundancy > 0 {
            spec.redundancy
        } else {
            plan.redundancy.max(1)
        };
        let total = farm_size as u64 * redundancy;
        let tenant = self.tenants.intern(&spec.tenant);
        let id = format!("c-{}", self.next_id.fetch_add(1, Ordering::SeqCst));
        let (session_counter, session, observer) = {
            let mut world = self.world.lock();
            let counter_before = world.infra.session_counter();
            let World { transport, infra } = &mut *world;
            let session = infra.new_session(transport.net_mut(), farm_size);
            transport.sync_serving_side();
            let observer = infra.observer(&session);
            (counter_before, session, observer)
        };
        let planner = (spec.sequential_epsilon > 0.0)
            .then(|| SequentialPlanner::new(spec.sequential_epsilon));
        self.tenants.record_campaign(&spec.tenant);
        let camp = Arc::new(CampaignHandle {
            id: id.clone(),
            tenant,
            tenant_name: spec.tenant,
            label: spec.label,
            ingress: spec.ingress,
            farm_size,
            redundancy,
            window: spec.window.max(1),
            checkpoint_every: spec.checkpoint_every,
            kill_after: spec.kill_after,
            session_counter,
            plan,
            session,
            total,
            observed_base: 0,
            progress: Mutex::new(Progress {
                state: CampaignState::Running,
                outcomes: vec![ProbeDisposition::Pending; total as usize],
                machine: Enumerator::new(total, 1, planner)
                    .windowed(spec.window as u64, spec.checkpoint_every),
                observer,
                resumed_from: 0,
                checkpoints: 0,
                checkpoint_path: None,
            }),
            cancel: AtomicBool::new(false),
            pause: AtomicBool::new(false),
            kill: AtomicBool::new(false),
            thread: Mutex::new(None),
        });
        self.campaigns.lock().push(Arc::clone(&camp));
        self.spawn_worker(camp);
        Ok(id)
    }

    /// Continues a campaign from its snapshot: restores the session
    /// counter, re-derives the exact session names, rebuilds the
    /// `Enumerator` from the outcomes, `observed` and `seqplan` line and
    /// spawns a worker that probes only the still-undecided indexes.
    pub fn resume(self: &Arc<Self>, snap: CampaignSnapshot) -> io::Result<String> {
        if !snap.resumable() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("snapshot {} is terminal ({})", snap.id, snap.state.as_str()),
            ));
        }
        if snap.outcomes.len() != snap.farm_size * snap.redundancy as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "snapshot {}: {} outcomes for {}×{} probes",
                    snap.id,
                    snap.outcomes.len(),
                    snap.farm_size,
                    snap.redundancy
                ),
            ));
        }
        if !self.tenants.known(&snap.tenant) {
            self.register_tenant(&snap.tenant, snap.weight, None)?;
        }
        let tenant = self.tenants.intern(&snap.tenant);
        // Learned RTOs ride the snapshot: seed this process's estimator
        // table so the resumed campaign keeps its adaptive deadlines
        // instead of re-learning from the cold-start schedule.
        if let Some(table) = &self.rto {
            for (ingress, estimator) in &snap.rto {
                table.restore(*ingress, estimator);
            }
        }
        // Keep fresh ids above every resumed id.
        if let Some(n) = snap
            .id
            .strip_prefix("c-")
            .and_then(|s| s.parse::<u64>().ok())
        {
            self.next_id.fetch_max(n + 1, Ordering::SeqCst);
        }
        let (session, observer) = {
            let mut world = self.world.lock();
            let current = world.infra.session_counter();
            world.infra.restore_session_counter(snap.session_counter);
            let World { transport, infra } = &mut *world;
            let session = infra.new_session(transport.net_mut(), snap.farm_size);
            // Never rewind below sessions already live in this world.
            let after = world.infra.session_counter();
            world.infra.restore_session_counter(current.max(after));
            world.transport.sync_serving_side();
            let observer = world.infra.observer(&session);
            (session, observer)
        };
        let completed = snap
            .outcomes
            .iter()
            .filter(|d| **d != ProbeDisposition::Pending)
            .count() as u64;
        let answered = snap
            .outcomes
            .iter()
            .filter(|d| **d == ProbeDisposition::Answered)
            .count() as u64;
        let total = snap.outcomes.len() as u64;
        let camp = Arc::new(CampaignHandle {
            id: snap.id.clone(),
            tenant,
            tenant_name: snap.tenant.clone(),
            label: snap.label.clone(),
            ingress: snap.ingress,
            farm_size: snap.farm_size,
            redundancy: snap.redundancy,
            window: snap.window.max(1),
            checkpoint_every: snap.checkpoint_every,
            kill_after: None,
            session_counter: snap.session_counter,
            plan: snap.plan,
            session,
            total,
            observed_base: snap.observed,
            progress: Mutex::new(Progress {
                state: CampaignState::Running,
                outcomes: snap.outcomes,
                machine: Enumerator::new(total, 1, snap.planner)
                    .windowed(snap.window as u64, snap.checkpoint_every)
                    .resumed(completed, answered, snap.observed),
                observer,
                resumed_from: completed,
                checkpoints: snap.seq,
                checkpoint_path: Some(
                    self.checkpoint_dir
                        .join(CampaignSnapshot::file_name(&snap.id)),
                ),
            }),
            cancel: AtomicBool::new(false),
            pause: AtomicBool::new(false),
            kill: AtomicBool::new(false),
            thread: Mutex::new(None),
        });
        let id = snap.id;
        self.campaigns.lock().push(Arc::clone(&camp));
        self.spawn_worker(camp);
        Ok(id)
    }

    /// Resumes every resumable snapshot in the checkpoint directory
    /// (the daemon's `--resume` startup path). Returns resumed ids.
    pub fn resume_all(self: &Arc<Self>) -> io::Result<Vec<String>> {
        let mut ids = Vec::new();
        for snap in CampaignSnapshot::load_dir(&self.checkpoint_dir)? {
            if snap.resumable() {
                ids.push(self.resume(snap)?);
            }
        }
        Ok(ids)
    }

    fn find(&self, id: &str) -> Option<Arc<CampaignHandle>> {
        self.campaigns
            .lock()
            .iter()
            .find(|c| c.id == id)
            .map(Arc::clone)
    }

    /// The status of campaign `id`, if known to this process.
    pub fn status(&self, id: &str) -> Option<CampaignStatus> {
        self.find(id).map(|camp| Self::status_of(&camp))
    }

    /// Statuses of every campaign this process has seen, oldest first.
    pub fn list(&self) -> Vec<CampaignStatus> {
        self.campaigns
            .lock()
            .iter()
            .map(|c| Self::status_of(c))
            .collect()
    }

    /// The campaign's tallies are its `Enumerator`'s; the estimate and
    /// the accounting check are reported once the campaign is done.
    fn status_of(camp: &CampaignHandle) -> CampaignStatus {
        let progress = camp.progress.lock();
        let e = progress.machine.enumeration();
        let done = progress.state == CampaignState::Done;
        let decided = progress
            .outcomes
            .iter()
            .filter(|d| **d != ProbeDisposition::Pending);
        CampaignStatus {
            id: camp.id.clone(),
            tenant: camp.tenant_name.clone(),
            label: camp.label.clone(),
            state: progress.state,
            total: camp.total,
            completed: e.probes,
            answered: e.delivered,
            timeouts: e.probes - e.delivered,
            observed: e.observed,
            estimated: if done { e.estimated } else { 0 },
            fully_accounted: done && decided.count() as u64 == e.probes,
            resumed_from: progress.resumed_from,
            checkpoints: progress.checkpoints,
            checkpoint_path: progress.checkpoint_path.clone(),
        }
    }

    /// Rebuilds the engine-level [`CampaignReport`] for campaign `id`
    /// from its recorded outcomes (latencies are not persisted, so
    /// answered replies carry `latency: None`).
    pub fn report(&self, id: &str) -> Option<CampaignReport> {
        let camp = self.find(id)?;
        let progress = camp.progress.lock();
        let outcomes: Vec<ProbeOutcome> = progress
            .outcomes
            .iter()
            .enumerate()
            .filter(|(_, d)| **d != ProbeDisposition::Pending)
            .map(|(i, d)| ProbeOutcome {
                probe: Probe::a(
                    camp.ingress,
                    camp.session.farm[i % camp.session.farm.len()].clone(),
                ),
                reply: match d {
                    ProbeDisposition::Answered => TransportReply::Answered {
                        latency: None,
                        rcode: Rcode::NoError,
                    },
                    _ => TransportReply::TimedOut,
                },
            })
            .collect();
        let e = progress.machine.enumeration();
        Some(CampaignReport {
            outcomes,
            sent: e.probes,
            received: e.delivered,
            timeouts: e.probes - e.delivered,
            retries: 0,
            rate_limit_stalls: 0,
        })
    }

    /// Asks campaign `id` to stop. The worker drains its in-flight
    /// probes, writes a terminal snapshot and ends its span. Returns
    /// `false` for unknown ids.
    pub fn cancel(&self, id: &str) -> bool {
        match self.find(id) {
            Some(camp) => {
                camp.cancel.store(true, Ordering::SeqCst);
                true
            }
            None => false,
        }
    }

    /// Counts and writes a snapshot of campaign `id` right now (the
    /// control plane's `POST /v1/campaigns/<id>/checkpoint`). Safe to
    /// call while the worker runs: it takes the same per-campaign lock
    /// as the worker's own checkpoints.
    pub fn checkpoint_now(&self, id: &str) -> io::Result<PathBuf> {
        let camp = self.find(id).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("unknown campaign {id}"))
        })?;
        self.checkpoint_campaign(&camp, None)
    }

    /// A [`Step::Count`] and its snapshot, in one hold of the campaign's
    /// lock: drain the serving-side observations, count this campaign's
    /// honey fetches through its `Observer`, report them to its
    /// `Enumerator`, then write the snapshot atomically. The single
    /// place observations are consumed — see the module docs. A count
    /// that ends the run writes the terminal snapshot; `stop` is the
    /// state a cancel or pause ends in.
    fn checkpoint_campaign(
        &self,
        camp: &CampaignHandle,
        stop: Option<CampaignState>,
    ) -> io::Result<PathBuf> {
        let mut guard = camp.progress.lock();
        let progress = &mut *guard;
        let fetches = {
            let mut world = self.world.lock();
            world.transport.drain_serving_observations();
            progress
                .observer
                .update(world.transport.net())
                .honey_fetches() as u64
        };
        progress.machine.on_count(camp.observed_base + fetches);
        if let Some(state) = stop {
            progress.state = state;
        } else if progress.machine.next() == Step::Done {
            progress.state = CampaignState::Done;
        }
        progress.checkpoints += 1;
        let snap = CampaignSnapshot {
            id: camp.id.clone(),
            tenant: camp.tenant_name.clone(),
            weight: self.tenants.weight(&camp.tenant_name).unwrap_or(1.0),
            label: camp.label.clone(),
            state: progress.state,
            ingress: camp.ingress,
            farm_size: camp.farm_size,
            redundancy: camp.redundancy,
            window: camp.window,
            checkpoint_every: camp.checkpoint_every,
            session_counter: camp.session_counter,
            plan: camp.plan,
            observed: progress.machine.enumeration().observed,
            seq: progress.checkpoints,
            outcomes: progress.outcomes.clone(),
            rto: self.rto_snapshots(),
            planner: progress.machine.planner().cloned(),
        };
        let path = snap.write_to(&self.checkpoint_dir)?;
        progress.checkpoint_path = Some(path.clone());
        Ok(path)
    }

    /// Test hook simulating `kill -9`: every worker abandons its
    /// campaign immediately — no checkpoint, no final events — and the
    /// reactor is left to be torn down abruptly when the manager drops.
    /// Snapshots on disk stay exactly as the last checkpoint left them.
    pub fn kill(&self) {
        let campaigns: Vec<Arc<CampaignHandle>> = self.campaigns.lock().clone();
        for camp in &campaigns {
            camp.kill.store(true, Ordering::SeqCst);
        }
        self.join_all();
    }

    /// Graceful shutdown: pauses every running campaign (each writes a
    /// resumable snapshot), then drains the reactor. Returns `true`
    /// when the reactor drained within `timeout`. Flush telemetry
    /// *after* this returns — the hub then holds every event.
    pub fn graceful_shutdown(&self, timeout: Duration) -> bool {
        let campaigns: Vec<Arc<CampaignHandle>> = self.campaigns.lock().clone();
        for camp in &campaigns {
            camp.pause.store(true, Ordering::SeqCst);
        }
        self.join_all();
        self.world.lock().transport.shutdown_graceful(timeout)
    }

    /// Blocks until campaign `id`'s worker thread exits. Returns
    /// `false` for unknown ids.
    pub fn join(&self, id: &str) -> bool {
        match self.find(id) {
            Some(camp) => {
                if let Some(thread) = camp.thread.lock().take() {
                    let _ = thread.join();
                }
                true
            }
            None => false,
        }
    }

    /// Blocks until every worker thread exits.
    pub fn join_all(&self) {
        let campaigns: Vec<Arc<CampaignHandle>> = self.campaigns.lock().clone();
        for camp in campaigns {
            if let Some(thread) = camp.thread.lock().take() {
                let _ = thread.join();
            }
        }
    }

    fn spawn_worker(self: &Arc<Self>, camp: Arc<CampaignHandle>) {
        let mgr = Arc::clone(self);
        let camp_for_thread = Arc::clone(&camp);
        let thread = std::thread::Builder::new()
            .name(format!("cde-serve-{}", camp.id))
            .spawn(move || run_worker(&mgr, &camp_for_thread))
            .expect("spawn campaign worker");
        *camp.thread.lock() = Some(thread);
    }
}

/// Emits the contiguous decided prefix as ordered per-probe notes.
///
/// Completions can land out of order under a wide window, but notes are
/// only emitted for index `i` once indexes `0..i` are all decided — so
/// the note stream is a deterministic function of the final outcome
/// vector, independent of completion order, and a resumed campaign's
/// replayed prefix is byte-identical to the uninterrupted run's.
fn advance_notes(span: &CampaignSpan, outcomes: &[ProbeDisposition], emit_cursor: &mut usize) {
    while *emit_cursor < outcomes.len() {
        match outcomes[*emit_cursor] {
            ProbeDisposition::Pending => break,
            ProbeDisposition::Answered => span.note("probe_ok", *emit_cursor as u64),
            ProbeDisposition::TimedOut => span.note("probe_timeout", *emit_cursor as u64),
        }
        *emit_cursor += 1;
    }
}

/// Sleeps `wait` in small slices, returning early if the campaign was
/// asked to stop — a tenant paced at a slow share must still react to
/// cancel/kill promptly.
fn paced_sleep(camp: &CampaignHandle, wait: Duration) {
    let deadline = Instant::now() + wait;
    loop {
        if halted(camp) {
            return;
        }
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        std::thread::sleep((deadline - now).min(POLL));
    }
}

fn record_outcome(
    mgr: &CampaignManager,
    camp: &CampaignHandle,
    span: &CampaignSpan,
    (slot, index): (usize, u64),
    answered: bool,
    emit_cursor: &mut usize,
) {
    let mut progress = camp.progress.lock();
    progress.outcomes[slot] = if answered {
        ProbeDisposition::Answered
    } else {
        ProbeDisposition::TimedOut
    };
    progress.machine.on_probe(index, answered);
    if answered {
        mgr.tenants.record_answered(&camp.tenant_name);
    }
    advance_notes(span, &progress.outcomes, emit_cursor);
}

/// True once the campaign was asked to stop or die.
fn halted(camp: &CampaignHandle) -> bool {
    camp.cancel.load(Ordering::SeqCst)
        || camp.pause.load(Ordering::SeqCst)
        || camp.kill.load(Ordering::SeqCst)
}

/// The campaign worker: steps the campaign's `Enumerator` (see the
/// module docs) and emits deterministic span events.
fn run_worker(mgr: &Arc<CampaignManager>, camp: &Arc<CampaignHandle>) {
    let span = mgr.hub.begin_campaign("serve_campaign", camp.total);
    span.tenant(camp.tenant);
    let mut emit_cursor = 0usize;
    // Replay: the decided prefix restored from a snapshot emits its
    // notes first, exactly as the uninterrupted run would have.
    advance_notes(&span, &camp.progress.lock().outcomes, &mut emit_cursor);

    let (done_tx, done_rx) = unbounded();
    // Outcome slot → the `Enumerator`'s token for the probe in it.
    let mut in_flight: HashMap<usize, u64> = HashMap::new();
    let mut next_slot = 0usize;
    let mut completions_this_run = 0u64;
    let mut last_activity = Instant::now();

    loop {
        let step = camp.progress.lock().machine.next();
        let died = camp.kill_after.is_some_and(|k| completions_this_run >= k);
        if camp.kill.load(Ordering::SeqCst) || (died && step != Step::Count) {
            // Abrupt abandonment: no checkpoint, no final notes. The
            // span's Drop emits campaign_end with last-known tallies.
            camp.progress.lock().state = CampaignState::Killed;
            return;
        }
        let stopping = camp.cancel.load(Ordering::SeqCst) || camp.pause.load(Ordering::SeqCst);
        match step {
            Step::Done => return finalize(camp, span),
            Step::Count => {
                let _ = mgr.checkpoint_campaign(camp, None);
                continue;
            }
            Step::Probe { .. } if !stopping => {
                paced_sleep(camp, mgr.limiter.debit_n(camp.tenant, 1));
                let mut progress = camp.progress.lock();
                let Step::Probe { index, .. } = progress.machine.next() else {
                    continue;
                };
                if halted(camp) {
                    continue;
                }
                // Slots decided before a resume are skipped.
                while progress.outcomes[next_slot] != ProbeDisposition::Pending {
                    next_slot += 1;
                }
                progress.machine.on_send(index);
                drop(progress);
                let slot = next_slot;
                next_slot += 1;
                mgr.tenants.record_probe(&camp.tenant_name);
                let qname = camp.session.farm[slot % camp.session.farm.len()].clone();
                if mgr
                    .handle
                    .submit(slot as u64, camp.ingress, qname, RecordType::A, &done_tx)
                {
                    in_flight.insert(slot, index);
                    last_activity = Instant::now();
                } else {
                    // Reactor gone: the probe can never run.
                    record_outcome(mgr, camp, &span, (slot, index), false, &mut emit_cursor);
                    completions_this_run += 1;
                }
                continue;
            }
            _ if stopping && in_flight.is_empty() => return stop(mgr, camp, span),
            _ => {}
        }

        match done_rx.recv_timeout(POLL) {
            Ok(completion) => {
                let slot = completion.token as usize;
                if let Some(index) = in_flight.remove(&slot) {
                    let answered = completion.reply.is_answered();
                    record_outcome(mgr, camp, &span, (slot, index), answered, &mut emit_cursor);
                    completions_this_run += 1;
                    last_activity = Instant::now();
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if !in_flight.is_empty() && last_activity.elapsed() > mgr.grace {
                    // The reactor stopped delivering: account every
                    // outstanding probe as a timeout so the campaign
                    // still finishes fully-accounted.
                    for probe in in_flight.drain() {
                        record_outcome(mgr, camp, &span, probe, false, &mut emit_cursor);
                        completions_this_run += 1;
                    }
                }
            }
            Err(RecvTimeoutError::Disconnected) => unreachable!("worker holds done_tx"),
        }
    }
}

/// [`Step::Done`]: the count that ended the run wrote the terminal
/// snapshot; close the span with the `Enumerator`'s tallies. A
/// sequentially stopped campaign leaves the remainder unspent, so the
/// estimate runs over the probes actually decided.
fn finalize(camp: &CampaignHandle, span: CampaignSpan) {
    let status = CampaignManager::status_of(camp);
    if status.completed < camp.total {
        span.note("stopped_early", 1);
    }
    span.note("observed", status.observed.min(status.completed.max(1)));
    span.note("estimated", status.estimated);
    span.note("fully_accounted", u64::from(status.fully_accounted));
    span.end(status.completed, status.answered, status.timeouts);
}

/// Terminal path for a cancelled or paused campaign: drain already
/// happened (in-flight empty), write the snapshot in its terminal (or
/// resumable, for pause) state and close the span.
fn stop(mgr: &Arc<CampaignManager>, camp: &Arc<CampaignHandle>, span: CampaignSpan) {
    let state = if camp.cancel.load(Ordering::SeqCst) {
        CampaignState::Cancelled
    } else {
        CampaignState::Paused
    };
    let _ = mgr.checkpoint_campaign(camp, Some(state));
    let status = CampaignManager::status_of(camp);
    span.end(status.completed, status.answered, status.timeouts);
}
