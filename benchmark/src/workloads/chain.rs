//! `chain_flood`: the paper's identical-query enumeration burst through
//! the whole product stack — `PipelinedCampaign` → reactor →
//! `LoopbackResolver` → platform → dns-cache, `WireAuthority` upstream.

use super::{
    flood_policy, wire_pings, Counters, CpuMeter, Env, Scratch, Segment, WorkloadRun, INGRESS,
    WINDOW,
};
use crate::report::Report;
use crate::schedule::component_seed;
use crate::spans::Tracer;
use crate::stats::percentile_of;
use cde_core::{CdeInfra, Session};
use cde_dns::Name;
use cde_engine::{
    CampaignReport, InsightOptions, LiveTestbed, PipelinedCampaign, Probe, ReactorConfig,
    ReactorTransport, ResolverConfig,
};
use cde_platform::{NameserverNet, PlatformBuilder, SelectorKind};
use cde_telemetry::MetricsRegistry;
use std::io;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Caches planted behind the ingress; each fetches the honey record
/// from the authority exactly once, during warm-up.
pub const PLANTED: usize = 2;
/// Probes per campaign, as in an enumeration burst.
const CAMPAIGN_PROBES: usize = 50_000;
const WARMUP_PROBES: usize = 5_000;
/// Blocking pings to the resolver before timing starts, and the time
/// from one to the next. The resolver naps while idle, and a ping that
/// finds it napping takes ten times one that finds it hot; sent back to
/// back, a set-up cost 10 ms or 100 ms by which of the two it fell into.
/// At this gap every ping finds it napping.
const WIRE_PINGS: usize = 50;
const PING_GAP: Duration = Duration::from_micros(800);
/// The deadline is looked at once per this many submissions.
const DEADLINE_STRIDE: usize = 64;

/// A launched full chain with one standing session.
pub struct Chain {
    pub testbed: LiveTestbed,
    pub transport: ReactorTransport,
    pub infra: CdeInfra,
    pub session: Session,
    /// A copy of the authoritative world the authority's observations
    /// are folded into, to count honey fetches.
    pub observed: NameserverNet,
}

impl Chain {
    pub fn launch(seed: u64, caches: usize, config: ReactorConfig) -> io::Result<Chain> {
        let mut net = NameserverNet::new();
        let mut infra = CdeInfra::install(&mut net);
        let session = infra.new_session(&mut net, 0);
        let platform = PlatformBuilder::new(seed)
            .ingress(vec![INGRESS])
            .egress((1..=3).map(|d| Ipv4Addr::new(192, 0, 3, d)).collect())
            .cluster(caches, SelectorKind::Random)
            .build();
        let resolver = ResolverConfig {
            seed,
            ..ResolverConfig::default()
        };
        let testbed = LiveTestbed::launch(platform, net.clone(), resolver)?;
        let mut transport = testbed.reactor_transport(config)?;
        transport.sync_serving_side();
        Ok(Chain {
            testbed,
            transport,
            infra,
            session,
            observed: net,
        })
    }

    /// Honey fetches the authority has seen so far.
    pub fn honey_fetches(&mut self) -> usize {
        self.testbed
            .authority()
            .drain_observations(&mut self.observed);
        self.infra
            .count_honey_fetches(&self.observed, &self.session.honey)
    }

    /// Blocking round trips of a plain socket to the resolver for
    /// `qname`, microseconds.
    pub fn wire_pings(&self, qname: &Name) -> io::Result<Vec<u32>> {
        let target = self
            .testbed
            .resolver()
            .addr_of(INGRESS)
            .expect("the resolver serves the ingress");
        wire_pings(target, WIRE_PINGS, PING_GAP, &|_| qname.clone(), &mut || {})
    }

    /// One campaign of up to `probes` identical honey probes, cut short
    /// at `deadline`.
    pub fn campaign(&self, probes: usize, deadline: Option<Instant>) -> CampaignReport {
        let mut campaign = PipelinedCampaign::new(self.transport.reactor(), WINDOW);
        for i in 0..probes {
            if i % DEADLINE_STRIDE == 0 && deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
            campaign.submit(Probe::a(INGRESS, self.session.honey.clone()));
        }
        campaign.finish()
    }
}

pub fn run(
    env: &Env,
    report: &mut Report,
    tracer: &mut Tracer,
    scratch: &mut Scratch,
) -> io::Result<WorkloadRun> {
    let mut segments = Vec::new();
    let (mut warm_fetches_ok, mut grew, mut unaccounted) = (true, 0usize, 0u64);
    let mut fetch_detail = Vec::new();
    for index in 0..crate::catalog::SEGMENTS {
        let traced = env.segment_traced(index);
        let seg = index as i32;
        let setup_started = Instant::now();
        let setup_span = tracer.begin_at("setup", 0, seg, setup_started);
        let registry = MetricsRegistry::new();
        let seed = component_seed(env.seed, "chain_flood", index as u64);
        let config = ReactorConfig {
            shards: 1,
            registry: Some(Arc::clone(&registry)),
            insight: traced.then(InsightOptions::default),
            ..ReactorConfig::with_policy(flood_policy(), seed)
        };
        let launch_span = tracer.begin("testbed.launch", setup_span, seg);
        let mut chain = Chain::launch(seed, PLANTED, config)?;
        tracer.end(launch_span);
        let warm_span = tracer.begin("warmup", setup_span, seg);
        let warm = chain.campaign(WARMUP_PROBES, None);
        let mut wire = chain.wire_pings(&chain.session.honey)?;
        tracer.end(warm_span);
        let fetched_warm = chain.honey_fetches();
        warm_fetches_ok &= fetched_warm == PLANTED && warm.answered() == WARMUP_PROBES;

        scratch.reset();
        let metrics = chain.transport.reactor().metrics();
        let served_before = chain.testbed.authority().queries_served();
        let before = metrics.snapshot();
        let cpu = CpuMeter::start();
        let started = Instant::now();
        tracer.end_at(setup_span, started);
        let segment_span = tracer.begin_at("segment", 0, seg, started);
        let deadline = started + env.segment_len();
        let (mut submitted, mut timed_out) = (0u64, 0u64);
        while Instant::now() < deadline {
            let span = tracer.begin("campaign", segment_span, seg);
            let result = chain.campaign(CAMPAIGN_PROBES, Some(deadline));
            tracer.end(span);
            submitted += result.outcomes.len() as u64;
            timed_out += result.timed_out() as u64;
            for outcome in &result.outcomes {
                scratch.record_rtt(&outcome.reply);
            }
        }
        let ended = Instant::now();
        let engine_cpu_ns = cpu.engine_ns();
        let host_steal_s = cpu.host_steal_s();
        let after = metrics.snapshot();
        tracer.end_at(segment_span, ended);

        let fetched_end = chain.honey_fetches();
        grew += fetched_end - fetched_warm;
        fetch_detail.push(format!("{fetched_warm}->{fetched_end}"));
        let mut counters = Counters::between(&before, &after, ended - started);
        counters.read_pool(&registry);
        if let Some(insight) = chain.transport.reactor().insight() {
            counters.read_phases(&insight.phases().snapshot());
        }
        counters.authority_served = chain.testbed.authority().queries_served() - served_before;
        counters.resolver_dropped_observations = chain.testbed.resolver().dropped_observations();
        unaccounted += submitted - (counters.answered + timed_out).min(submitted);
        let mut segment = Segment {
            traced,
            setup_s: (started - setup_started).as_secs_f64(),
            wall_s: (ended - started).as_secs_f64(),
            submitted,
            failed: timed_out,
            engine_cpu_ns,
            host_steal_s,
            wire_rtt_p50_us: percentile_of(&mut wire, 50.0),
            counters,
            ..Segment::default()
        };
        segment.take_rtts(scratch);
        segments.push(segment);
    }
    report.check(
        "honey_fetches_equal_planted_after_warmup",
        warm_fetches_ok,
        format!(
            "planted {PLANTED}; fetches per segment (warm->end) {}",
            fetch_detail.join(" ")
        ),
    );
    report.check(
        "honey_fetches_do_not_grow_while_timed",
        grew == 0,
        format!("{grew} extra fetches reached the authority during timing"),
    );
    report.check(
        "every_probe_accounted",
        unaccounted == 0,
        format!("{unaccounted} probes neither answered nor timed out"),
    );
    Ok(WorkloadRun {
        segments,
        closed_loop: true,
        ..WorkloadRun::default()
    })
}
