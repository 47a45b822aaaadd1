//! `lossy_count`: time-to-exact-count under bursty loss — sequential
//! enumerations over the full chain with the adaptive RTO table and the
//! sequential stopping rule. One probe in flight, timers fire,
//! retransmits happen.

use super::chain::Chain;
use super::{Counters, CpuMeter, Env, Scratch, Segment, WorkloadRun, INGRESS};
use crate::report::Report;
use crate::schedule::component_seed;
use crate::spans::Tracer;
use crate::stats;
use cde_core::{enumerate_sequential, EnumerateOptions, ProbePlan};
use cde_dns::{Name, RecordType};
use cde_engine::{
    AdaptiveRtoConfig, EngineAccess, EngineMetrics, InsightOptions, ReactorConfig,
    ReactorTransport, RetryPolicy, Transport, TransportReply,
};
use cde_faults::FaultPlan;
use cde_netsim::SimTime;
use cde_platform::NameserverNet;
use cde_telemetry::MetricsRegistry;
use std::io;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Caches planted behind the ingress, cycling per enumeration.
pub const PLANTED_CYCLE: [usize; 4] = [2, 3, 5, 8];
/// The upper bound the blind plan budgets for.
const N_MAX: u64 = 16;
/// Gilbert–Elliott mean loss and mean burst length on both directions.
const LOSS: f64 = 0.30;
const BURST: f64 = 3.0;
/// Residual failure probability of the sequential stopping rule.
const EPSILON: f64 = 0.001;
/// What one cycle of four enumerations costs on the reference box at
/// the commit that defined the benchmark. It only turns `--seconds` into
/// a whole number of cycles: every cycle is its own fixed scenario with
/// its own cost, so a run must not fit one more or one fewer of them
/// because the box, or the engine, got a little faster.
const NOMINAL_CYCLE_S: f64 = 7.2;

/// The scenario of the `index`-th enumeration: its loss realisation and
/// its platform (which cache each query lands on). It is part of the
/// workload, like the loss rate itself, and does not follow the run's
/// seed, for two reasons. The stopping rule runs at ε = 0.001, so about
/// one enumeration in a thousand *correctly* stops one cache short;
/// with platforms drawn from the run's seed one run in a hundred then
/// reports a wrong count (seen: 1 of 90 enumerations), and a benchmark's
/// workloads must not fail by chance. And with the loss drawn per run,
/// ten seeds spread `probes_per_s` by 21 % and `count_wall_s` by 22 %,
/// by how many datagrams each draw happened to eat. The run's seed still
/// drives the reactor (query ids, socket rotation).
fn scenario_seed(index: usize) -> u64 {
    component_seed(0x10_55, "lossy_count.scenario", index as u64)
}

/// The timeout an operator would pick without RTT knowledge; the
/// adaptive table can only tighten deadlines below it.
fn static_policy() -> RetryPolicy {
    RetryPolicy {
        attempts: 6,
        timeout: Duration::from_millis(100),
        backoff: 1.0,
        base_delay: Duration::from_millis(1),
        jitter: 0.0,
    }
}

/// Passes probes through to the reactor transport and keeps what the
/// benchmark reports about each: the engine's RTT and a span.
struct Recording<'a> {
    inner: &'a mut ReactorTransport,
    scratch: &'a mut Scratch,
    tracer: &'a mut Tracer,
    parent: u32,
    segment: i32,
}

impl Transport for Recording<'_> {
    fn query(
        &mut self,
        ingress: Ipv4Addr,
        qname: &Name,
        qtype: RecordType,
        now: SimTime,
    ) -> TransportReply {
        let span = self.tracer.begin("probe", self.parent, self.segment);
        let reply = self.inner.query(ingress, qname, qtype, now);
        self.tracer.end(span);
        self.scratch.record_rtt(&reply);
        reply
    }

    fn net(&self) -> &NameserverNet {
        self.inner.net()
    }

    fn net_mut(&mut self) -> &mut NameserverNet {
        self.inner.net_mut()
    }

    fn metrics(&self) -> Arc<EngineMetrics> {
        self.inner.metrics()
    }
}

pub fn run(
    env: &Env,
    report: &mut Report,
    tracer: &mut Tracer,
    scratch: &mut Scratch,
) -> io::Result<WorkloadRun> {
    // One segment per whole cycle of planted counts: enumerations with
    // different n cost differently, cycles do not.
    let mut segments: Vec<Segment> = Vec::new();
    let mut cycle: Vec<Segment> = Vec::new();
    let mut cycle_wire: Vec<u32> = Vec::new();
    let (mut walls, mut spent, mut retransmits, mut final_rto) = (vec![], vec![], vec![], vec![]);
    let mut verdicts = Vec::new();
    let plan = ProbePlan::for_bursty_target(N_MAX, LOSS, BURST);
    let opts = EnumerateOptions {
        probes: plan.probes,
        redundancy: plan.redundancy,
        ..EnumerateOptions::default()
    };
    let ping_name: Name = "wire.cache.example".parse().expect("static name");
    let cycles = ((env.seconds / NOMINAL_CYCLE_S).round() as usize).max(1);
    for index in 0..cycles * PLANTED_CYCLE.len() {
        let planted = PLANTED_CYCLE[index % PLANTED_CYCLE.len()];
        // Whole cycles alternate, so both sides see every planted n.
        let traced = env.traced && (index / PLANTED_CYCLE.len()) % 2 == 0;
        let seg = index as i32;
        let setup_started = Instant::now();
        let setup_span = tracer.begin_at("setup", 0, seg, setup_started);
        let registry = MetricsRegistry::new();
        let seed = component_seed(env.seed, "lossy_count", index as u64);
        let config = ReactorConfig {
            shards: 1,
            registry: Some(Arc::clone(&registry)),
            faults: Some(FaultPlan::bursty(scenario_seed(index), LOSS, BURST)),
            adaptive: Some(AdaptiveRtoConfig::default()),
            insight: traced.then_some(InsightOptions {
                phase_sample_every: 1,
            }),
            ..ReactorConfig::with_policy(static_policy(), seed)
        };
        let launch_span = tracer.begin("testbed.launch", setup_span, seg);
        let mut chain = Chain::launch(scenario_seed(index), planted, config)?;
        tracer.end(launch_span);
        // Not the honey name: the caches must meet that one cold.
        let warm_span = tracer.begin("warmup", setup_span, seg);
        let mut wire = chain.wire_pings(&ping_name)?;
        tracer.end(warm_span);

        if cycle.is_empty() {
            scratch.reset();
        }
        let metrics = chain.transport.reactor().metrics();
        let served_before = chain.testbed.authority().queries_served();
        let before = metrics.snapshot();
        let cpu = CpuMeter::start();
        let started = Instant::now();
        tracer.end_at(setup_span, started);
        let span = tracer.begin_at("enumerate", 0, seg, started);
        let result = {
            let mut recording = Recording {
                inner: &mut chain.transport,
                scratch,
                tracer,
                parent: span,
                segment: seg,
            };
            let mut access = EngineAccess::new(&mut recording, INGRESS);
            enumerate_sequential(
                &mut access,
                &chain.infra,
                &chain.session,
                opts,
                EPSILON,
                SimTime::ZERO,
            )
        };
        let ended = Instant::now();
        let engine_cpu_ns = cpu.engine_ns();
        let host_steal_s = cpu.host_steal_s();
        let after = metrics.snapshot();
        tracer.end_at(span, ended);

        let mut counters = Counters::between(&before, &after, ended - started);
        counters.read_pool(&registry);
        let reactor = chain.transport.reactor();
        if let Some(insight) = reactor.insight() {
            counters.read_phases(&insight.phases().snapshot());
        }
        if let Some(stats) = reactor.fault_stats() {
            counters.query_drops = stats.query_drops();
            counters.reply_drops = stats.reply_drops();
        }
        if let Some(snap) = reactor.rto().and_then(|t| t.snapshot(INGRESS)) {
            final_rto.push(snap.rto_us as f64);
        }
        counters.authority_served = chain.testbed.authority().queries_served() - served_before;
        counters.resolver_dropped_observations = chain.testbed.resolver().dropped_observations();
        let observed = result.enumeration.observed;
        let exact = observed == planted as u64;
        verdicts.push(format!("{observed}/{planted}"));
        walls.push((ended - started).as_secs_f64());
        spent.push(result.enumeration.probes as f64);
        retransmits.push(counters.retries as f64);
        cycle_wire.append(&mut wire);
        cycle.push(Segment {
            traced,
            setup_s: (started - setup_started).as_secs_f64(),
            wall_s: (ended - started).as_secs_f64(),
            // The unit of work here is the count, not the probe.
            submitted: 1,
            failed: u64::from(!exact),
            engine_cpu_ns,
            host_steal_s,
            counters,
            ..Segment::default()
        });

        if (index + 1) % PLANTED_CYCLE.len() != 0 {
            continue;
        }
        let mut whole = Segment {
            traced,
            setup_s: stats::median(&cycle.iter().map(|e| e.setup_s).collect::<Vec<_>>()),
            wire_rtt_p50_us: stats::percentile_of(&mut cycle_wire, 50.0),
            engine_cpu_ns: cycle.iter().map(|e| e.engine_cpu_ns).sum(),
            host_steal_s: cycle.iter().map(|e| e.host_steal_s).sum(),
            ..Segment::default()
        };
        for enumeration in cycle.drain(..) {
            whole.wall_s += enumeration.wall_s;
            whole.submitted += enumeration.submitted;
            whole.failed += enumeration.failed;
            whole.counters.add(&enumeration.counters);
        }
        cycle_wire.clear();
        whole.take_rtts(scratch);
        segments.push(whole);
    }
    let wrong: u64 = segments.iter().map(|s| s.failed).sum();
    report.check(
        "every_enumeration_returns_the_planted_count",
        wrong == 0,
        format!("observed/planted per enumeration: {}", verdicts.join(" ")),
    );
    report.set("enumerations", walls.len() as f64, "count");
    // Per enumeration, averaged over whole cycles of the planted counts,
    // so the number of cycles a run fits does not move them.
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    report.set("count_wall_s", mean(&walls), "s");
    report.set("probes_spent", mean(&spent), "count");
    report.set("retransmits", mean(&retransmits), "count");
    report.set("engine.rto.final_rto_us", stats::median(&final_rto), "us");
    Ok(WorkloadRun {
        segments,
        ..WorkloadRun::default()
    })
}
