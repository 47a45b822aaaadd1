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
//! # Checkpoint exactness
//!
//! Serving-side observations (honey fetches seen by the nameserver) are
//! drained from the resolver's shared channel **only** inside
//! `CampaignManager::checkpoint_campaign`: drain → count → write temp
//! file → atomic rename. Between checkpoints the events stay queued on
//! the resolver's bounded channel, which survives the death of this
//! process's transport — a resumed manager's fresh transport drains the
//! pre-kill remainder. Combined with the counting principle (warm
//! caches never re-fetch the honey record, so re-probing undecided
//! indexes cannot inflate the count), `snapshot.observed + count(new
//! net)` is exact across kill/resume. The only loss window is a crash
//! *between* the drain and the rename, which is a handful of
//! microseconds of file IO; see DESIGN.md §6g.

use crate::campaign::{valid_name, CampaignSpec, CampaignState, CampaignStatus};
use crate::snapshot::{CampaignSnapshot, ProbeDisposition};
use crate::tenant::TenantRegistry;
use cde_analysis::estimators::estimate_cache_count;
use cde_core::{CdeInfra, ProbePlan, SequentialPlanner, Session};
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
use std::collections::HashSet;
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
    completed: u64,
    answered: u64,
    timeouts: u64,
    observed: u64,
    estimated: u64,
    fully_accounted: bool,
    resumed_from: u64,
    checkpoints: u64,
    checkpoint_path: Option<PathBuf>,
}

/// Sequential-stopping state for one campaign: the planner plus the
/// high-water marks of the tallies already fed into it, so checkpoint
/// drains feed only the delta since the previous drain.
#[derive(Debug)]
struct PlannerState {
    planner: SequentialPlanner,
    fed_answered: u64,
    fed_timeouts: u64,
    fed_observed: u64,
}

impl PlannerState {
    fn fresh(planner: SequentialPlanner) -> PlannerState {
        PlannerState {
            fed_answered: planner.delivered(),
            fed_timeouts: planner.probes() - planner.delivered(),
            fed_observed: planner.observed(),
            planner,
        }
    }

    /// Feeds the deltas since the last drain. Evidence is drained in
    /// batches, so the exact interleaving is unknown; recording the
    /// quiet events first and attaching all new-cache evidence to the
    /// *last* event keeps the quiet run a lower bound on reality — the
    /// rule can only fire later than a per-probe feed would, never
    /// earlier.
    fn feed(&mut self, answered: u64, timeouts: u64, observed: u64) {
        let new_ans = answered.saturating_sub(self.fed_answered);
        let new_lost = timeouts.saturating_sub(self.fed_timeouts);
        let new_caches = observed.saturating_sub(self.fed_observed);
        for i in 0..new_lost {
            let last = i + 1 == new_lost && new_ans == 0;
            self.planner.record_lost(if last { new_caches } else { 0 });
        }
        for i in 0..new_ans {
            let last = i + 1 == new_ans;
            self.planner
                .record_delivered(if last { new_caches } else { 0 });
        }
        if new_ans == 0 && new_lost == 0 && new_caches > 0 {
            // Evidence with no completion delta: a response was lost but
            // the query landed. Record it as a lost probe carrying the
            // evidence so ω stays in sync.
            self.planner.record_lost(new_caches);
        }
        self.fed_answered = answered;
        self.fed_timeouts = timeouts;
        self.fed_observed = observed;
    }
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
    progress: Mutex<Progress>,
    /// Sequential stopping state; `None` runs the fixed plan to
    /// exhaustion. Fed only at checkpoint drains (the single place
    /// observation evidence is counted), never on the probe hot path.
    sequential: Mutex<Option<PlannerState>>,
    cancel: AtomicBool,
    pause: AtomicBool,
    kill: AtomicBool,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl CampaignHandle {
    /// True once the sequential stopping rule has fired.
    fn sequential_stopped(&self) -> bool {
        self.sequential
            .lock()
            .as_ref()
            .is_some_and(|s| s.planner.should_stop())
    }
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
        let (session_counter, session) = {
            let mut world = self.world.lock();
            let counter_before = world.infra.session_counter();
            let World { transport, infra } = &mut *world;
            let session = infra.new_session(transport.net_mut(), farm_size);
            transport.sync_serving_side();
            (counter_before, session)
        };
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
                completed: 0,
                answered: 0,
                timeouts: 0,
                observed: 0,
                estimated: 0,
                fully_accounted: false,
                resumed_from: 0,
                checkpoints: 0,
                checkpoint_path: None,
            }),
            sequential: Mutex::new(if spec.sequential_epsilon > 0.0 {
                Some(PlannerState::fresh(SequentialPlanner::new(
                    spec.sequential_epsilon,
                )))
            } else {
                None
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
    /// counter, re-derives the exact session names, seeds progress from
    /// the recorded outcomes and spawns a worker that probes only the
    /// still-undecided indexes.
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
        let session = {
            let mut world = self.world.lock();
            let current = world.infra.session_counter();
            world.infra.restore_session_counter(snap.session_counter);
            let World { transport, infra } = &mut *world;
            let session = infra.new_session(transport.net_mut(), snap.farm_size);
            // Never rewind below sessions already live in this world.
            let after = world.infra.session_counter();
            world.infra.restore_session_counter(current.max(after));
            world.transport.sync_serving_side();
            session
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
                completed,
                answered,
                timeouts: completed - answered,
                observed: snap.observed,
                estimated: 0,
                fully_accounted: false,
                resumed_from: completed,
                checkpoints: snap.seq,
                checkpoint_path: Some(
                    self.checkpoint_dir
                        .join(CampaignSnapshot::file_name(&snap.id)),
                ),
            }),
            sequential: Mutex::new(snap.planner.map(PlannerState::fresh)),
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

    fn status_of(camp: &CampaignHandle) -> CampaignStatus {
        let progress = camp.progress.lock();
        CampaignStatus {
            id: camp.id.clone(),
            tenant: camp.tenant_name.clone(),
            label: camp.label.clone(),
            state: progress.state,
            total: camp.total,
            completed: progress.completed,
            answered: progress.answered,
            timeouts: progress.timeouts,
            observed: progress.observed,
            estimated: progress.estimated,
            fully_accounted: progress.fully_accounted,
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
        Some(CampaignReport {
            outcomes,
            sent: progress.completed,
            received: progress.answered,
            timeouts: progress.timeouts,
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

    /// Writes a snapshot of campaign `id` right now (the control
    /// plane's `POST /v1/campaigns/<id>/checkpoint`). Safe to call
    /// while the worker runs — progress is locked for the copy and the
    /// file lands atomically.
    pub fn checkpoint_now(&self, id: &str) -> io::Result<PathBuf> {
        let camp = self.find(id).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("unknown campaign {id}"))
        })?;
        let state = camp.progress.lock().state;
        self.checkpoint_campaign(&camp, state)
    }

    /// Drains observation evidence, counts this campaign's honey
    /// fetches and writes its snapshot atomically. The single place
    /// observations are consumed — see the module docs.
    fn checkpoint_campaign(
        &self,
        camp: &CampaignHandle,
        state: CampaignState,
    ) -> io::Result<PathBuf> {
        let observed = {
            let mut world = self.world.lock();
            world.transport.drain_serving_observations();
            let World { transport, infra } = &mut *world;
            camp.observed_base
                + infra.count_honey_fetches(transport.net(), &camp.session.honey) as u64
        };
        // Feed the sequential planner the tallies gathered since the
        // previous drain — this is the only place fresh distinct-cache
        // evidence becomes visible, so it is also where stopping
        // decisions advance.
        let planner = {
            let (answered, timeouts) = {
                let progress = camp.progress.lock();
                (progress.answered, progress.timeouts)
            };
            let mut sequential = camp.sequential.lock();
            sequential.as_mut().map(|state| {
                state.feed(answered, timeouts, observed);
                state.planner.clone()
            })
        };
        let rto = self
            .rto
            .as_ref()
            .map(|table| table.snapshots())
            .unwrap_or_default();
        let snap;
        {
            let mut progress = camp.progress.lock();
            progress.observed = observed;
            progress.checkpoints += 1;
            snap = CampaignSnapshot {
                id: camp.id.clone(),
                tenant: camp.tenant_name.clone(),
                weight: self.tenants.weight(&camp.tenant_name).unwrap_or(1.0),
                label: camp.label.clone(),
                state,
                ingress: camp.ingress,
                farm_size: camp.farm_size,
                redundancy: camp.redundancy,
                window: camp.window,
                checkpoint_every: camp.checkpoint_every,
                session_counter: camp.session_counter,
                plan: camp.plan,
                observed,
                seq: progress.checkpoints,
                outcomes: progress.outcomes.clone(),
                rto,
                planner,
            };
        }
        let path = snap.write_to(&self.checkpoint_dir)?;
        camp.progress.lock().checkpoint_path = Some(path.clone());
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
        if camp.cancel.load(Ordering::SeqCst)
            || camp.pause.load(Ordering::SeqCst)
            || camp.kill.load(Ordering::SeqCst)
        {
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
    idx: usize,
    answered: bool,
    emit_cursor: &mut usize,
) {
    let mut progress = camp.progress.lock();
    if progress.outcomes[idx] != ProbeDisposition::Pending {
        return; // duplicate completion; first one wins
    }
    progress.outcomes[idx] = if answered {
        ProbeDisposition::Answered
    } else {
        ProbeDisposition::TimedOut
    };
    progress.completed += 1;
    if answered {
        progress.answered += 1;
        mgr.tenants.record_answered(&camp.tenant_name);
    } else {
        progress.timeouts += 1;
    }
    advance_notes(span, &progress.outcomes, emit_cursor);
}

/// The campaign worker: weighted pacing, sliding-window submission over
/// the shared reactor, deterministic span events, periodic checkpoints.
fn run_worker(mgr: &Arc<CampaignManager>, camp: &Arc<CampaignHandle>) {
    let span = mgr.hub.begin_campaign("serve_campaign", camp.total);
    span.tenant(camp.tenant);
    let mut emit_cursor = 0usize;
    // Replay: the decided prefix restored from a snapshot emits its
    // notes first, exactly as the uninterrupted run would have.
    advance_notes(&span, &camp.progress.lock().outcomes, &mut emit_cursor);

    let (done_tx, done_rx) = unbounded();
    let total = camp.total as usize;
    let mut in_flight: HashSet<usize> = HashSet::new();
    let mut next_submit = 0usize;
    let mut completions_this_run = 0u64;
    let mut last_activity = Instant::now();

    loop {
        if camp.kill.load(Ordering::SeqCst) {
            // Abrupt abandonment: no checkpoint, no final notes. The
            // span's Drop emits campaign_end with last-known tallies.
            camp.progress.lock().state = CampaignState::Killed;
            return;
        }
        let stopping = camp.cancel.load(Ordering::SeqCst) || camp.pause.load(Ordering::SeqCst);
        // The sequential rule only advances at checkpoint drains, so
        // `converged` flips between iterations, never mid-submission.
        let converged = camp.sequential_stopped();
        if !stopping && !converged {
            while in_flight.len() < camp.window && next_submit < total {
                if camp.progress.lock().outcomes[next_submit] != ProbeDisposition::Pending {
                    next_submit += 1; // restored from snapshot; skip
                    continue;
                }
                let wait = mgr.limiter.debit_n(camp.tenant, 1);
                if !wait.is_zero() {
                    paced_sleep(camp, wait);
                    if camp.cancel.load(Ordering::SeqCst)
                        || camp.pause.load(Ordering::SeqCst)
                        || camp.kill.load(Ordering::SeqCst)
                    {
                        break;
                    }
                }
                mgr.tenants.record_probe(&camp.tenant_name);
                let qname = camp.session.farm[next_submit % camp.session.farm.len()].clone();
                if mgr.handle.submit(
                    next_submit as u64,
                    camp.ingress,
                    qname,
                    RecordType::A,
                    &done_tx,
                ) {
                    in_flight.insert(next_submit);
                    last_activity = Instant::now();
                } else {
                    // Reactor gone: the probe can never run.
                    record_outcome(mgr, camp, &span, next_submit, false, &mut emit_cursor);
                    completions_this_run += 1;
                }
                next_submit += 1;
            }
        }

        let completed = camp.progress.lock().completed;
        if completed >= camp.total {
            finalize(mgr, camp, span);
            return;
        }
        if converged && !stopping && in_flight.is_empty() {
            // The exact-count criterion holds: end the campaign with the
            // undecided remainder unspent.
            finalize(mgr, camp, span);
            return;
        }
        if stopping && in_flight.is_empty() {
            stop(mgr, camp, span);
            return;
        }

        match done_rx.recv_timeout(POLL) {
            Ok(completion) => {
                let idx = completion.token as usize;
                if in_flight.remove(&idx) {
                    record_outcome(
                        mgr,
                        camp,
                        &span,
                        idx,
                        completion.reply.is_answered(),
                        &mut emit_cursor,
                    );
                    completions_this_run += 1;
                    last_activity = Instant::now();
                    let completed_now = camp.progress.lock().completed;
                    #[allow(clippy::manual_is_multiple_of)]
                    // u64::is_multiple_of needs 1.87, MSRV is 1.81
                    if camp.checkpoint_every > 0
                        && completed_now % camp.checkpoint_every == 0
                        && completed_now < camp.total
                    {
                        let _ = mgr.checkpoint_campaign(camp, CampaignState::Running);
                    }
                    if camp.kill_after.is_some_and(|k| completions_this_run >= k) {
                        camp.kill.store(true, Ordering::SeqCst);
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if !in_flight.is_empty() && last_activity.elapsed() > mgr.grace {
                    // The reactor stopped delivering: account every
                    // outstanding probe as a timeout so the campaign
                    // still finishes fully-accounted.
                    for idx in in_flight.drain() {
                        record_outcome(mgr, camp, &span, idx, false, &mut emit_cursor);
                        completions_this_run += 1;
                    }
                }
            }
            Err(RecvTimeoutError::Disconnected) => unreachable!("worker holds done_tx"),
        }
    }
}

/// Terminal path for a completed campaign: final evidence drain,
/// estimate, terminal snapshot, deterministic closing notes.
fn finalize(mgr: &Arc<CampaignManager>, camp: &Arc<CampaignHandle>, span: CampaignSpan) {
    let _ = mgr.checkpoint_campaign(camp, CampaignState::Done);
    let (completed, answered, timeouts, observed, estimated, fully_accounted);
    {
        let report = mgr.report(&camp.id).expect("own campaign");
        let sequential = camp.sequential.lock().is_some();
        let mut progress = camp.progress.lock();
        // A sequentially stopped campaign intentionally leaves the
        // remainder unspent: accounting and the estimate run over the
        // probes actually decided, not the budget ceiling.
        let spent = if sequential {
            progress.completed
        } else {
            camp.total
        };
        progress.fully_accounted = report.fully_accounted(spent as usize);
        let clamped = progress.observed.min(spent.max(1));
        progress.estimated = estimate_cache_count(clamped, spent.max(1));
        progress.state = CampaignState::Done;
        completed = progress.completed;
        answered = progress.answered;
        timeouts = progress.timeouts;
        observed = clamped;
        estimated = progress.estimated;
        fully_accounted = progress.fully_accounted;
    }
    if completed < camp.total {
        span.note("stopped_early", 1);
    }
    span.note("observed", observed);
    span.note("estimated", estimated);
    span.note("fully_accounted", u64::from(fully_accounted));
    span.end(completed, answered, timeouts);
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
    let _ = mgr.checkpoint_campaign(camp, state);
    let (completed, answered, timeouts);
    {
        let mut progress = camp.progress.lock();
        progress.state = state;
        completed = progress.completed;
        answered = progress.answered;
        timeouts = progress.timeouts;
    }
    span.end(completed, answered, timeouts);
}
