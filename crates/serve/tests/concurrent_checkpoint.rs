//! On-demand checkpoints racing the worker's own: three threads call
//! `checkpoint_now` in a loop while a sequential campaign checkpoints
//! after every completion. Every call must succeed, every file it leaves
//! must decode, and the last snapshot on disk must be the terminal one,
//! with a planner that has recorded exactly the decided probes.

use cde_core::CdeInfra;
use cde_engine::{LiveTestbed, ReactorConfig, ResolverConfig, RetryPolicy};
use cde_platform::{NameserverNet, PlatformBuilder, SelectorKind};
use cde_serve::{
    CampaignManager, CampaignSnapshot, CampaignSpec, CampaignState, ManagerConfig,
    ProbeDisposition, World,
};
use std::net::Ipv4Addr;
use std::time::Duration;

const INGRESS: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

/// The snapshot's planner has recorded exactly its decided probes.
fn assert_consistent(snap: &CampaignSnapshot) {
    let decided = snap
        .outcomes
        .iter()
        .filter(|d| **d != ProbeDisposition::Pending);
    let answered = snap
        .outcomes
        .iter()
        .filter(|d| **d == ProbeDisposition::Answered);
    let planner = snap
        .planner
        .as_ref()
        .expect("a sequential campaign's planner");
    assert_eq!(planner.probes(), decided.count() as u64, "{planner:?}");
    assert_eq!(planner.delivered(), answered.count() as u64, "{planner:?}");
}

#[test]
fn concurrent_checkpoints_end_on_the_terminal_snapshot() {
    let dir = std::env::temp_dir().join(format!("cde-serve-ckpt-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut net = NameserverNet::new();
    let infra = CdeInfra::install(&mut net);
    let platform = PlatformBuilder::new(31)
        .ingress(vec![INGRESS])
        .egress(vec![Ipv4Addr::new(192, 0, 3, 1)])
        .cluster(4, SelectorKind::Random)
        .build();
    let testbed = LiveTestbed::launch(platform, net, ResolverConfig::default()).unwrap();
    let policy = RetryPolicy {
        attempts: 3,
        timeout: Duration::from_millis(250),
        backoff: 1.0,
        base_delay: Duration::from_millis(1),
        jitter: 0.0,
    };
    let transport = testbed
        .reactor_transport(ReactorConfig::with_policy(policy, 31))
        .unwrap();
    let manager = CampaignManager::new(World { transport, infra }, ManagerConfig::new(dir.clone()));
    let id = manager
        .submit(CampaignSpec {
            tenant: "race".into(),
            label: "checkpoints".into(),
            caches_hint: 4,
            farm_size: 300,
            redundancy: 1,
            window: 8,
            checkpoint_every: 1,
            sequential_epsilon: 1e-30,
            ..CampaignSpec::default()
        })
        .unwrap();

    let calls = std::thread::scope(|scope| {
        let racers: Vec<_> = (0..3)
            .map(|_| {
                scope.spawn(|| {
                    let mut calls = 0u64;
                    while manager.status(&id).unwrap().state == CampaignState::Running {
                        let path = manager
                            .checkpoint_now(&id)
                            .unwrap_or_else(|e| panic!("checkpoint_now failed: {e}"));
                        let snap = CampaignSnapshot::load(&path)
                            .unwrap_or_else(|e| panic!("{} does not decode: {e}", path.display()));
                        assert_consistent(&snap);
                        calls += 1;
                    }
                    calls
                })
            })
            .collect();
        racers.into_iter().map(|r| r.join().unwrap()).sum::<u64>()
    });
    assert!(manager.join(&id));
    assert!(
        calls > 3,
        "the racers never overlapped the run: {calls} calls"
    );

    let status = manager.status(&id).unwrap();
    assert_eq!(status.state, CampaignState::Done, "{status:?}");
    let snapshots = CampaignSnapshot::load_dir(&dir).unwrap();
    assert_eq!(snapshots.len(), 1);
    let last = &snapshots[0];
    assert_eq!(
        last.state,
        CampaignState::Done,
        "the last snapshot must be terminal"
    );
    assert_consistent(last);
    let planner = last.planner.clone().unwrap();
    assert_eq!(planner.probes(), status.completed);
    let _ = std::fs::remove_dir_all(&dir);
}
