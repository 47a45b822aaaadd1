//! A checkpoint whose `seqplan` line holds a planner state no run can
//! reach (more delivered probes than probes, or a quiet run longer than
//! the delivered probes) is refused on `--resume` with `InvalidData`.
//! Accepting it would resume an `Enumerator` whose planner disagrees
//! with the recorded outcomes it is rebuilt from.

use cde_core::{CdeInfra, ProbePlan, SequentialPlanner};
use cde_engine::{LiveTestbed, ReactorConfig, ResolverConfig, RetryPolicy};
use cde_platform::{NameserverNet, PlatformBuilder, ResolutionPlatform, SelectorKind};
use cde_serve::{
    CampaignManager, CampaignSnapshot, CampaignState, ManagerConfig, ProbeDisposition, World,
};
use std::io;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::time::Duration;

const INGRESS: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

fn build_world(seed: u64) -> (ResolutionPlatform, NameserverNet, CdeInfra) {
    let mut net = NameserverNet::new();
    let infra = CdeInfra::install(&mut net);
    let platform = PlatformBuilder::new(seed)
        .ingress(vec![INGRESS])
        .egress(vec![Ipv4Addr::new(192, 0, 3, 1)])
        .cluster(2, SelectorKind::Random)
        .build();
    (platform, net, infra)
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cde-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A paused sequential campaign, four of eight probes decided, written
/// to `dir` with its planner line replaced by `seqplan`.
fn write_checkpoint(dir: &Path, seqplan: &str) {
    let mut outcomes = vec![ProbeDisposition::Pending; 8];
    outcomes[..3].fill(ProbeDisposition::Answered);
    outcomes[3] = ProbeDisposition::TimedOut;
    let mut planner = SequentialPlanner::new(0.001);
    planner.record_delivered(1);
    planner.record_delivered(0);
    planner.record_delivered(0);
    planner.record_lost(0);
    let snap = CampaignSnapshot {
        id: "c-1".into(),
        tenant: "corrupt".into(),
        weight: 1.0,
        label: "seqplan".into(),
        state: CampaignState::Paused,
        ingress: INGRESS,
        farm_size: 8,
        redundancy: 1,
        window: 1,
        checkpoint_every: 0,
        session_counter: 0,
        plan: ProbePlan::for_target(2, 0.0),
        observed: 1,
        seq: 1,
        outcomes,
        rto: Vec::new(),
        planner: Some(planner.clone()),
    };
    let path = snap.write_to(dir).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let corrupt = text.replace(&planner.snapshot_line(), seqplan);
    assert_ne!(corrupt, text, "the planner line must be in the file");
    std::fs::write(&path, corrupt).unwrap();
}

#[test]
fn impossible_planner_state_is_refused_on_resume() {
    let (platform, net, infra) = build_world(5);
    let testbed = LiveTestbed::launch(platform, net, ResolverConfig::default()).unwrap();
    for (tag, seqplan) in [
        (
            "delivered-over-probes",
            "seqplan epsilon=0.001 omega=1 consecutive=2 probes=4 delivered=9",
        ),
        (
            "quiet-over-delivered",
            "seqplan epsilon=0.001 omega=1 consecutive=7 probes=4 delivered=3",
        ),
    ] {
        let dir = fresh_dir(tag);
        write_checkpoint(&dir, seqplan);
        let transport = testbed
            .reactor_transport(ReactorConfig::with_policy(
                RetryPolicy {
                    attempts: 2,
                    timeout: Duration::from_millis(200),
                    backoff: 1.0,
                    base_delay: Duration::from_millis(1),
                    jitter: 0.0,
                },
                5,
            ))
            .unwrap();
        let manager = CampaignManager::new(
            World {
                transport,
                infra: infra.clone(),
            },
            ManagerConfig::new(dir.clone()),
        );
        let err = manager
            .resume_all()
            .expect_err("an impossible planner state must not resume");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{tag}: {err}");
        assert!(err.to_string().contains("bad seqplan line"), "{tag}: {err}");
        assert!(manager.list().is_empty(), "{tag}: nothing may start");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
