//! The headline chaos acceptance for cde-serve: `kill -9` a campaign
//! mid-flight under Gilbert–Elliott bursty loss, resume it from the
//! last checkpoint in a fresh manager, and recover the exact planted
//! cache count with every probe accounted for.
//!
//! The kill is in-process (the worker abandons the campaign with no
//! checkpoint and no final events, and the reactor is torn down
//! abruptly), which models the syscall-level kill faithfully at the
//! layer that matters: snapshots on disk stay exactly as the last
//! checkpoint left them, and undrained observation evidence stays
//! queued on the resolver's channel. The script-level `kill -9` of the
//! real daemon binary rides in `scripts/serve_smoke.sh`.
//!
//! Seeds come from `CDE_CHAOS_SEED`; failures print the replay recipe.

use cde_core::CdeInfra;
use cde_engine::{
    AdaptiveRtoConfig, LiveTestbed, RateConfig, ReactorConfig, ResolverConfig, RetryPolicy,
};
use cde_faults::FaultPlan;
use cde_netsim::{seed_from_env, SeedGuard};
use cde_platform::{NameserverNet, PlatformBuilder, ResolutionPlatform, SelectorKind};
use cde_serve::{
    CampaignManager, CampaignSnapshot, CampaignSpec, CampaignState, ManagerConfig,
    ProbeDisposition, World,
};
use cde_telemetry::TelemetryHub;
use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const INGRESS: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
const CACHES: usize = 6;

fn build_world(seed: u64) -> (ResolutionPlatform, NameserverNet, CdeInfra) {
    let mut net = NameserverNet::new();
    let infra = CdeInfra::install(&mut net);
    let platform = PlatformBuilder::new(seed)
        .ingress(vec![INGRESS])
        .egress((1..=3).map(|d| Ipv4Addr::new(192, 0, 3, d)).collect())
        .cluster(CACHES, SelectorKind::Random)
        .build();
    (platform, net, infra)
}

/// Bursty chaos on the query path with a retry policy that can outlast
/// a burst — the same shape the reactor chaos suite proves out. The
/// adaptive RTO table is on, so checkpoints must carry learned
/// estimator state across the kill.
fn chaos_config(seed: u64) -> ReactorConfig {
    ReactorConfig {
        faults: Some(FaultPlan::bursty(seed, 0.25, 3.0)),
        adaptive: Some(AdaptiveRtoConfig::default()),
        ..ReactorConfig::with_policy(
            RetryPolicy {
                attempts: 6,
                timeout: Duration::from_millis(150),
                backoff: 1.0,
                base_delay: Duration::from_millis(1),
                jitter: 0.0,
            },
            seed,
        )
    }
}

fn manager_config(dir: PathBuf) -> ManagerConfig {
    ManagerConfig {
        checkpoint_dir: dir,
        global_rate: RateConfig {
            per_second: 4000.0,
            burst: 8.0,
        },
        hub: TelemetryHub::new(cde_telemetry::DEFAULT_RING_CAPACITY),
        registry: None,
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cde-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn killed_campaign_resumes_to_the_exact_cache_count() {
    let seed = seed_from_env("CDE_CHAOS_SEED", 4242);
    let _guard = SeedGuard::new("CDE_CHAOS_SEED", seed);
    let dir = fresh_dir("kill-resume");
    let (platform, net, infra) = build_world(seed);
    let testbed = LiveTestbed::launch(platform, net, ResolverConfig::default()).unwrap();

    // First life: submit, checkpoint every 8 completions, then die.
    let transport = testbed.reactor_transport(chaos_config(seed)).unwrap();
    let manager = CampaignManager::new(
        World {
            transport,
            infra: infra.clone(),
        },
        manager_config(dir.clone()),
    );
    let id = manager
        .submit(CampaignSpec {
            tenant: "chaos".into(),
            label: "kill-resume".into(),
            caches_hint: CACHES as u64,
            loss_hint: 0.25,
            farm_size: 48,
            redundancy: 2,
            window: 8,
            checkpoint_every: 8,
            ..CampaignSpec::default()
        })
        .unwrap();
    let total = manager.status(&id).unwrap().total;
    assert_eq!(total, 96);

    // Let it get a third of the way (several checkpoints deep), then
    // kill it abruptly: no final checkpoint, no goodbye events, and the
    // reactor is torn down with probes still in flight.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let status = manager.status(&id).unwrap();
        if status.completed >= total / 3 {
            assert!(
                status.checkpoints > 0,
                "a third of the campaign must span at least one checkpoint"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "campaign made no progress under chaos (seed {seed}): {status:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    manager.kill();
    let killed = manager.status(&id).unwrap();
    assert_eq!(killed.state, CampaignState::Killed, "seed {seed}");
    assert!(
        killed.completed < total,
        "kill landed after completion; tighten the poll (seed {seed})"
    );
    drop(manager);

    // The snapshot on disk must carry the estimator state the first
    // life learned under chaos.
    let snapshots = CampaignSnapshot::load_dir(&dir).unwrap();
    assert_eq!(snapshots.len(), 1, "seed {seed}");
    let learned = snapshots[0]
        .rto
        .iter()
        .find(|(ip, _)| *ip == INGRESS)
        .map(|(_, s)| *s)
        .unwrap_or_else(|| panic!("checkpoint has no rto line for {INGRESS} (seed {seed})"));
    assert!(
        learned.samples > 0,
        "first life must have fed RTT samples (seed {seed}): {learned:?}"
    );

    // Second life: a fresh manager over the same testbed finds the
    // snapshot, regenerates the exact session names, and finishes the
    // undecided remainder.
    let transport = testbed.reactor_transport(chaos_config(seed)).unwrap();
    let manager = CampaignManager::new(
        World {
            transport,
            infra: infra.clone(),
        },
        manager_config(dir),
    );
    let resumed = manager.resume_all().unwrap();
    assert_eq!(resumed, vec![id.clone()], "seed {seed}");
    assert!(manager.join(&id));

    let status = manager.status(&id).unwrap();
    assert_eq!(status.state, CampaignState::Done, "seed {seed}");
    assert_eq!(status.completed, total, "seed {seed}");
    assert!(
        status.resumed_from > 0 && status.resumed_from < total,
        "resume must continue mid-campaign, got {} of {} (seed {seed})",
        status.resumed_from,
        total
    );
    assert!(
        status.fully_accounted,
        "every probe must be accounted for across the kill (seed {seed}): {status:?}"
    );
    let report = manager.report(&id).unwrap();
    assert!(report.fully_accounted(total as usize), "seed {seed}");
    assert_eq!(
        status.observed, CACHES as u64,
        "honey-fetch evidence must survive the kill exactly (seed {seed}): {status:?}"
    );
    assert_eq!(
        status.estimated, CACHES as u64,
        "the resumed campaign must recover the planted cache count (seed {seed}): {status:?}"
    );
    // The second life restored the learned estimator before probing, so
    // its live counters start at the checkpoint's values and only grow.
    let restored = manager
        .rto_snapshots()
        .into_iter()
        .find(|(ip, _)| *ip == INGRESS)
        .map(|(_, s)| s)
        .expect("adaptive reactor must expose the ingress estimator");
    assert!(
        restored.samples >= learned.samples,
        "resume must keep learned RTT state (seed {seed}): {restored:?} vs {learned:?}"
    );
}

#[test]
fn graceful_shutdown_pauses_and_resumes_cleanly() {
    let seed = seed_from_env("CDE_CHAOS_SEED", 9191);
    let _guard = SeedGuard::new("CDE_CHAOS_SEED", seed);
    let dir = fresh_dir("pause-resume");
    let (platform, net, infra) = build_world(seed);
    let testbed = LiveTestbed::launch(platform, net, ResolverConfig::default()).unwrap();

    let transport = testbed.reactor_transport(chaos_config(seed)).unwrap();
    let manager = CampaignManager::new(
        World {
            transport,
            infra: infra.clone(),
        },
        manager_config(dir.clone()),
    );
    // Slow enough (200 probes/s against 96 probes) that the shutdown
    // lands mid-campaign.
    manager
        .register_tenant(
            "steady",
            1.0,
            Some(RateConfig {
                per_second: 200.0,
                burst: 1.0,
            }),
        )
        .unwrap();
    let id = manager
        .submit(CampaignSpec {
            tenant: "steady".into(),
            label: "pause".into(),
            caches_hint: CACHES as u64,
            loss_hint: 0.25,
            farm_size: 48,
            redundancy: 2,
            window: 8,
            checkpoint_every: 16,
            ..CampaignSpec::default()
        })
        .unwrap();
    let total = manager.status(&id).unwrap().total;
    let deadline = Instant::now() + Duration::from_secs(30);
    while manager.status(&id).unwrap().completed < 10 {
        assert!(Instant::now() < deadline, "no progress (seed {seed})");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        manager.graceful_shutdown(Duration::from_secs(10)),
        "reactor must drain in-flight probes on graceful shutdown (seed {seed})"
    );
    let paused = manager.status(&id).unwrap();
    assert_eq!(paused.state, CampaignState::Paused, "seed {seed}");
    assert!(paused.completed < total, "seed {seed}");
    drop(manager);

    let transport = testbed.reactor_transport(chaos_config(seed)).unwrap();
    let manager = CampaignManager::new(
        World {
            transport,
            infra: infra.clone(),
        },
        manager_config(dir),
    );
    let resumed = manager.resume_all().unwrap();
    assert_eq!(resumed, vec![id.clone()], "seed {seed}");
    assert!(manager.join(&id));
    let status = manager.status(&id).unwrap();
    assert_eq!(status.state, CampaignState::Done, "seed {seed}");
    assert!(status.fully_accounted, "seed {seed}: {status:?}");
    assert_eq!(status.estimated, CACHES as u64, "seed {seed}: {status:?}");
}

/// A sequential campaign killed mid-run under bursty loss resumes from
/// its checkpoint's outcomes and `seqplan` line, stops early at the
/// planted count, and its terminal planner has recorded exactly the
/// decided probes.
#[test]
fn killed_sequential_campaign_resumes_to_the_exact_count() {
    let seed = 4242;
    let dir = fresh_dir("kill-resume-seq");
    let (platform, net, infra) = build_world(seed);
    let testbed = LiveTestbed::launch(platform, net, ResolverConfig::default()).unwrap();
    let spec = CampaignSpec {
        tenant: "chaos".into(),
        label: "kill-resume-seq".into(),
        caches_hint: CACHES as u64,
        loss_hint: 0.25,
        farm_size: 256,
        redundancy: 1,
        window: 8,
        checkpoint_every: 8,
        kill_after: Some(20),
        sequential_epsilon: 1e-4,
        ..CampaignSpec::default()
    };
    let life = |dir: PathBuf| {
        let transport = testbed.reactor_transport(chaos_config(seed)).unwrap();
        let world = World {
            transport,
            infra: infra.clone(),
        };
        CampaignManager::new(world, manager_config(dir))
    };
    let manager = life(dir.clone());
    let id = manager.submit(spec).unwrap();
    assert!(manager.join(&id));
    let killed = manager.status(&id).unwrap();
    assert_eq!(killed.state, CampaignState::Killed, "{killed:?}");
    drop(manager);

    let manager = life(dir.clone());
    assert_eq!(manager.resume_all().unwrap(), vec![id.clone()]);
    assert!(manager.join(&id));
    let status = manager.status(&id).unwrap();
    assert_eq!(status.state, CampaignState::Done, "{status:?}");
    assert!(status.resumed_from > 0, "{status:?}");
    assert!(
        status.completed < status.total,
        "must stop early: {status:?}"
    );
    assert!(status.fully_accounted, "{status:?}");
    assert_eq!(status.observed, CACHES as u64, "{status:?}");
    assert_eq!(status.estimated, CACHES as u64, "{status:?}");

    let snapshots = CampaignSnapshot::load_dir(&dir).unwrap();
    let last = &snapshots[0];
    assert_eq!(last.state, CampaignState::Done);
    let planner = last
        .planner
        .clone()
        .expect("terminal checkpoint carries the planner");
    let decided = last
        .outcomes
        .iter()
        .filter(|d| **d != ProbeDisposition::Pending);
    let answered = last
        .outcomes
        .iter()
        .filter(|d| **d == ProbeDisposition::Answered);
    assert_eq!(planner.probes(), decided.count() as u64, "{planner:?}");
    assert_eq!(planner.delivered(), answered.count() as u64, "{planner:?}");
    assert!(planner.should_stop(), "{planner:?}");
}
