//! `reflector_flood` and `reflector_observed`: the reactor alone,
//! saturated, against the inline reflector — with the observability
//! tiers off, and with all four on.

use super::{
    flood_policy, submitted_rows, wire_pings, ClosedLoop, Counters, CpuMeter, Env, LoopTrace,
    PhaseTotal, Scratch, Segment, Stop, WorkloadRun, BENCH_ZONE, INGRESS, PIPELINE_SAMPLE,
};
use crate::join;
use crate::reflector::InlineReflector;
use crate::report::Report;
use crate::schedule::component_seed;
use crate::spans::Tracer;
use cde_dns::Name;
use cde_engine::{
    FlightOptions, FlightRecord, FlightRecorder, InsightOptions, PulseOptions, Reactor,
    ReactorConfig,
};
use cde_pulse::{CounterSample, Pulse, SloSpec};
use cde_telemetry::{MetricsRegistry, TelemetryHub, DEFAULT_RING_CAPACITY};
use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Unmeasured probes before each segment's timing starts: pools minted,
/// branch and page state hot.
const WARMUP_PROBES: u64 = 20_000;
/// Blocking pings through the reflector before each segment.
const WIRE_PINGS: usize = 200;
/// Flight ring depth in a traced segment; the generator snapshots it
/// every half ring, so no sampled record is shed before it is read.
const TRACED_FLIGHT_RING: usize = 1 << 16;
/// How often the generator drains the telemetry hub (at two events a
/// probe the default ring would otherwise wrap in a fraction of a
/// second) and how often it plays the health sampler.
const DRAIN_EVERY: Duration = Duration::from_millis(10);
const PULSE_EVERY: Duration = Duration::from_millis(100);

/// Discards what is written and counts it: the telemetry drain's cost
/// is rendering the JSONL, not storing it.
#[derive(Default)]
struct CountingSink {
    bytes: u64,
}

impl io::Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The observability tiers of `reflector_observed`, driven from the
/// generator thread.
struct Tiers {
    hub: Arc<TelemetryHub>,
    pulse: Pulse,
    sink: CountingSink,
    epoch: Instant,
    next_drain: Instant,
    next_pulse: Instant,
    drained_events: u64,
    drain_ns: u64,
}

/// Sampled flight records of a traced segment, gathered before the
/// ring can wrap over them.
struct FlightTap {
    recorder: Arc<FlightRecorder>,
    read_at: u64,
    kept: HashMap<u64, FlightRecord>,
}

impl FlightTap {
    fn poll(&mut self, force: bool) {
        let written = self.recorder.written();
        if force || written - self.read_at >= (TRACED_FLIGHT_RING / 2) as u64 {
            self.read_at = written;
            for rec in self.recorder.snapshot() {
                if rec.token != FlightRecord::NO_TOKEN && rec.token % PIPELINE_SAMPLE == 0 {
                    self.kept.insert(rec.token, rec);
                }
            }
        }
    }
}

pub fn run(
    env: &Env,
    observed: bool,
    report: &mut Report,
    tracer: &mut Tracer,
    scratch: &mut Scratch,
) -> io::Result<WorkloadRun> {
    let label = if observed {
        "reflector_observed"
    } else {
        "reflector_flood"
    };
    let honey: Name = format!("honey.{BENCH_ZONE}").parse().expect("static name");
    let mut segments = Vec::new();
    let (mut pipelines, mut phase_totals) = (Vec::new(), Vec::new());
    let (mut served_total, mut sent_total, mut lost_tokens, mut duplicates) =
        (0u64, 0u64, 0u64, 0u64);
    let (mut drained_events, mut drain_ns, mut join_share) = (0u64, 0u64, Vec::new());
    for index in 0..crate::catalog::SEGMENTS {
        let traced = env.segment_traced(index);
        let seg = index as i32;
        let setup_started = Instant::now();
        let setup_span = tracer.begin_at("setup", 0, seg, setup_started);

        let mut reflector = InlineReflector::bind()?;
        let registry = MetricsRegistry::new();
        let hub = observed.then(|| TelemetryHub::new(DEFAULT_RING_CAPACITY));
        let flight = match (traced, observed) {
            (true, _) => Some(FlightOptions {
                per_shard: TRACED_FLIGHT_RING,
            }),
            (false, true) => Some(FlightOptions::default()),
            (false, false) => None,
        };
        let config = ReactorConfig {
            shards: 1,
            registry: Some(Arc::clone(&registry)),
            telemetry: hub.clone(),
            insight: (observed || traced).then(InsightOptions::default),
            pulse: observed.then(PulseOptions::default),
            flight,
            ..ReactorConfig::with_policy(
                flood_policy(),
                component_seed(env.seed, label, index as u64),
            )
        };
        let launch_span = tracer.begin("reactor.launch", setup_span, seg);
        let reactor = Reactor::launch(HashMap::from([(INGRESS, reflector.addr())]), config)?;
        tracer.end(launch_span);
        let handle = reactor.handle();
        let metrics = reactor.metrics();
        let mut tiers = hub.map(|hub| {
            let now = Instant::now();
            Tiers {
                hub,
                pulse: Pulse::new(SloSpec::default())
                    .with_exemplars(reactor.exemplars().expect("pulse tier is on")),
                sink: CountingSink::default(),
                epoch: now,
                next_drain: now + DRAIN_EVERY,
                next_pulse: now + PULSE_EVERY,
                drained_events: 0,
                drain_ns: 0,
            }
        });
        let mut tap = traced.then(|| FlightTap {
            recorder: reactor.flight().expect("traced segments record flight"),
            read_at: 0,
            kept: HashMap::new(),
        });
        let mut tick = |now: Instant| {
            if let Some(t) = &mut tiers {
                if now >= t.next_drain {
                    t.next_drain = now + DRAIN_EVERY;
                    let started = Instant::now();
                    t.drained_events += t.hub.drain_jsonl(&mut t.sink).unwrap_or(0) as u64;
                    t.drain_ns += started.elapsed().as_nanos() as u64;
                }
                if now >= t.next_pulse {
                    t.next_pulse = now + PULSE_EVERY;
                    let snap = metrics.snapshot();
                    t.pulse.observe(CounterSample {
                        at_ms: t.epoch.elapsed().as_millis() as u64,
                        sent: snap.sent,
                        received: snap.received,
                        timeouts: snap.timeouts,
                        retries: snap.retries,
                        strays: snap.stray_replies,
                        shed: t.hub.dropped(),
                        emitted: t.hub.emitted(),
                        in_flight: snap.in_flight,
                    });
                }
            }
            if let Some(tap) = &mut tap {
                tap.poll(false);
            }
        };

        let warm_span = tracer.begin("warmup", setup_span, seg);
        let mut wire = {
            let target = reflector.addr();
            wire_pings(
                target,
                WIRE_PINGS,
                Duration::ZERO,
                &|_| honey.clone(),
                &mut || {
                    while reflector.serve() == 0 {
                        std::hint::spin_loop();
                    }
                },
            )?
        };
        let mut generator = ClosedLoop::new(&handle, Some(&mut reflector), &honey);
        scratch.reset();
        let warm = generator.drive(Stop::Probes(WARMUP_PROBES), scratch, None, &mut tick);
        tracer.end(warm_span);
        scratch.reset();
        let before = metrics.snapshot();
        let cpu = CpuMeter::start();
        let started = Instant::now();
        tracer.end_at(setup_span, started);

        let segment_span = tracer.begin_at("segment", 0, seg, started);
        let mut loop_trace = traced.then(|| LoopTrace::new(tracer, segment_span, seg));
        let outcome = generator.drive(
            Stop::At(started + env.segment_len()),
            scratch,
            loop_trace.as_mut(),
            &mut tick,
        );
        if observed {
            // Once per segment, what a scrape of the daemon would cost.
            std::hint::black_box(registry.prometheus_text());
        }
        let ended = Instant::now();
        let engine_cpu_ns = cpu.engine_ns();
        let host_steal_s = cpu.host_steal_s();
        let after = metrics.snapshot();
        let (phases, sampled) = match loop_trace {
            Some(t) => (Some(t.phases), t.sampled),
            None => (None, Vec::new()),
        };
        tracer.end_at(segment_span, ended);
        drop(generator);

        let mut counters = Counters::between(&before, &after, ended - started);
        counters.read_pool(&registry);
        if let Some(insight) = reactor.insight() {
            counters.read_phases(&insight.phases().snapshot());
        }
        if let Some(t) = &tiers {
            counters.events_emitted = t.hub.emitted();
            counters.events_dropped = t.hub.dropped();
            drained_events += t.drained_events;
            drain_ns += t.drain_ns;
        }
        if let (Some(mut tap), Some(p)) = (tap.take(), phases) {
            tap.poll(true);
            let ring = tap.recorder.ring(0);
            let rows = submitted_rows(&sampled, |at| ring.instant_us(at));
            let released: Vec<(u64, u64)> = reflector
                .take_releases()
                .into_iter()
                .map(|(token, at)| (token, ring.instant_us(at)))
                .collect();
            let flight: Vec<FlightRecord> = tap.kept.into_values().collect();
            // The tap also kept warm-up probes whose token happens to
            // be a sampled one; joining from the generator's rows
            // leaves them out.
            let joined = join::join(&rows, &released, &flight);
            join_share.push(joined.share());
            pipelines.extend(joined.pipelines);
            for (name, total_ns) in [
                ("submit", p.submit_ns),
                ("reflect", p.reflect_ns),
                ("complete", p.complete_ns),
                ("tick", p.tick_ns),
                ("idle", p.idle_ns),
                ("drain_jsonl", tiers.as_ref().map_or(0, |t| t.drain_ns)),
            ] {
                phase_totals.push(PhaseTotal {
                    segment: seg,
                    name,
                    calls: p.iterations,
                    total_ns,
                });
            }
        }

        served_total += reflector.served();
        sent_total += after.sent + WIRE_PINGS as u64;
        lost_tokens += (warm.submitted + outcome.submitted)
            - (warm.answered + warm.timed_out + outcome.answered + outcome.timed_out)
            + warm.refused
            + outcome.refused;
        duplicates += warm.duplicates + outcome.duplicates;
        let mut segment = Segment {
            traced,
            setup_s: (started - setup_started).as_secs_f64(),
            wall_s: (ended - started).as_secs_f64(),
            submitted: outcome.submitted,
            failed: outcome.timed_out + outcome.refused,
            engine_cpu_ns,
            host_steal_s,
            wire_rtt_p50_us: crate::stats::percentile_of(&mut wire, 50.0),
            counters,
            ..Segment::default()
        };
        segment.take_rtts(scratch);
        segments.push(segment);
    }

    report.check(
        "tokens_complete_exactly_once",
        lost_tokens == 0 && duplicates == 0,
        format!("{lost_tokens} never completed, {duplicates} completed twice"),
    );
    let retried: u64 = segments
        .iter()
        .map(|s| s.counters.retries + s.counters.timeouts)
        .sum();
    report.check(
        "reflector_served_equals_engine_sent",
        if retried == 0 {
            served_total == sent_total
        } else {
            served_total <= sent_total
        },
        format!("reflector served {served_total}, engine sent {sent_total}, {retried} retried or timed out"),
    );
    if observed {
        report.set(
            "bench.telemetry.drained_events",
            drained_events as f64,
            "count",
        );
        report.set(
            "bench.telemetry.drain_ns_per_event",
            if drained_events == 0 {
                0.0
            } else {
                drain_ns as f64 / drained_events as f64
            },
            "ns",
        );
    }
    if !join_share.is_empty() {
        let share = crate::stats::median(&join_share);
        report.set("bench.pipeline_join_share", share, "ratio");
        report.check(
            "sampled_probes_join",
            share >= 0.99,
            format!(
                "{:.4} of sampled probes joined across generator, reflector and flight logs",
                share
            ),
        );
    }
    Ok(WorkloadRun {
        segments,
        closed_loop: true,
        pipelines,
        phase_totals,
    })
}
