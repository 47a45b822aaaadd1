//! `paced_rtt`: RTT fidelity. Open loop, Poisson arrivals, every probe
//! its own name, against a reflector that holds each reply for a known
//! time — so what the engine reports beyond that time is what its loop
//! added. The loop is idle between events here: latency is set by its
//! nap and its waker, not by per-probe CPU.

use super::{
    wire_pings, Counters, CpuMeter, Env, Scratch, Segment, WorkloadRun, BENCH_ZONE, INGRESS,
};
use crate::join::{self, Submitted};
use crate::reflector::HeldReflector;
use crate::report::Report;
use crate::schedule::{component_seed, poisson_schedule, SeedRng};
use crate::spans::Tracer;
use crate::stats::{over_segments, percentile_of};
use cde_dns::{Name, RecordType};
use cde_engine::{
    FlightOptions, InsightOptions, ProbeCompletion, Reactor, ReactorConfig, RetryPolicy,
    TransportReply,
};
use cde_telemetry::MetricsRegistry;
use crossbeam::channel::{unbounded, Receiver};
use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Mean arrival rate. Poisson rather than a fixed period on purpose: a
/// fixed 2,000/s schedule has the period of the loop's own nap and the
/// measured RTT then flips between two modes from run to run.
const RATE_PER_S: f64 = 1_000.0;
/// How long the reflector holds every reply.
pub const HOLD: Duration = Duration::from_micros(2_000);
/// Flight ring depth: a segment's probes fit, nothing is shed.
const FLIGHT_RING: usize = 16_384;
/// Blocking pings through the held reflector before each segment.
const WIRE_PINGS: usize = 50;
/// Unmeasured probes through the reactor before each segment.
const WARMUP_PROBES: u64 = 100;
/// Tokens of warm-up probes and pings start here, clear of the
/// schedule's, so the reflector's log cannot confuse them.
const UNTIMED_TOKENS: u64 = 1_000_000_000;
/// The generator's median lateness above which the run measured the
/// host's scheduler, not the engine.
const MAX_GEN_LATE_P50_US: f64 = 500.0;

fn policy() -> RetryPolicy {
    RetryPolicy {
        attempts: 3,
        timeout: Duration::from_millis(250),
        backoff: 2.0,
        base_delay: Duration::from_millis(2),
        jitter: 0.5,
    }
}

fn probe_name(prefix: char, token: u64) -> Name {
    format!("{prefix}{token}.{BENCH_ZONE}")
        .parse()
        .expect("generated name is valid")
}

/// What the generator logs per probe.
struct Sent {
    due: Instant,
    submit: Instant,
    completed: Option<Instant>,
}

fn take(done: ProbeCompletion, log: &mut [Sent], scratch: &mut Scratch, timed_out: &mut u64) {
    let at = Instant::now();
    if let Some(sent) = log.get_mut(done.token as usize) {
        sent.completed = Some(at);
        scratch.record_rtt(&done.reply);
        if done.reply == TransportReply::TimedOut {
            *timed_out += 1;
        }
    }
}

/// Spins until `due`, serving the held reflector and taking completions
/// the moment they arrive. The generator never sleeps: with the
/// reflector on this thread the workload is two busy threads, the box's
/// two cores, and the shard's wake-ups do not queue behind a third.
fn spin_until(
    due: Instant,
    reflector: &mut HeldReflector,
    done_rx: &Receiver<ProbeCompletion>,
    mut on_done: impl FnMut(ProbeCompletion),
) {
    loop {
        reflector.poll();
        while let Ok(done) = done_rx.try_recv() {
            on_done(done);
        }
        if Instant::now() >= due {
            return;
        }
        std::hint::spin_loop();
    }
}

pub fn run(
    env: &Env,
    report: &mut Report,
    tracer: &mut Tracer,
    scratch: &mut Scratch,
) -> io::Result<WorkloadRun> {
    let mut segments = Vec::new();
    let mut pipelines = Vec::new();
    let mut per_segment: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let (mut never_completed, mut join_shares) = (0usize, Vec::new());
    let (mut served_total, mut sent_total, mut retried_total) = (0u64, 0u64, 0u64);
    for index in 0..crate::catalog::SEGMENTS {
        let traced = env.segment_traced(index);
        let seg = index as i32;
        let setup_started = Instant::now();
        let setup_span = tracer.begin_at("setup", 0, seg, setup_started);
        let mut reflector = HeldReflector::bind(HOLD)?;
        let target = reflector.addr();
        let registry = MetricsRegistry::new();
        let config = ReactorConfig {
            shards: 1,
            registry: Some(Arc::clone(&registry)),
            flight: Some(FlightOptions {
                per_shard: FLIGHT_RING,
            }),
            insight: traced.then_some(InsightOptions {
                phase_sample_every: 1,
            }),
            ..ReactorConfig::with_policy(
                policy(),
                component_seed(env.seed, "paced_rtt", index as u64),
            )
        };
        let launch_span = tracer.begin("reactor.launch", setup_span, seg);
        let reactor = Reactor::launch(HashMap::from([(INGRESS, target)]), config)?;
        tracer.end(launch_span);
        let handle = reactor.handle();
        let metrics = reactor.metrics();
        let (done_tx, done_rx) = unbounded();

        let schedule = poisson_schedule(
            &mut SeedRng::derive(env.seed, "paced_rtt.arrivals", index as u64),
            RATE_PER_S,
            env.segment_len().as_nanos() as u64,
        );
        let names: Vec<Name> = (0..schedule.len() as u64)
            .map(|token| probe_name('p', token))
            .collect();

        let warm_span = tracer.begin("warmup", setup_span, seg);
        let mut wire = wire_pings(
            target,
            WIRE_PINGS,
            Duration::ZERO,
            &|i| probe_name('w', UNTIMED_TOKENS + i),
            &mut || {
                let next = reflector.released() + 1;
                while reflector.released() < next {
                    reflector.poll();
                }
            },
        )?;
        let mut warm = 0;
        for i in 0..WARMUP_PROBES {
            let token = UNTIMED_TOKENS + i;
            handle.submit(
                token,
                INGRESS,
                probe_name('u', token),
                RecordType::A,
                &done_tx,
            );
            let next = Instant::now() + Duration::from_millis(1);
            spin_until(next, &mut reflector, &done_rx, |_| warm += 1);
        }
        let give_up = Instant::now() + policy().worst_case();
        while warm < WARMUP_PROBES && Instant::now() < give_up {
            spin_until(Instant::now(), &mut reflector, &done_rx, |_| warm += 1);
        }
        tracer.end(warm_span);

        scratch.reset();
        let mut log: Vec<Sent> = Vec::with_capacity(schedule.len());
        let mut timed_out = 0u64;
        let before = metrics.snapshot();
        let cpu = CpuMeter::start();
        let started = Instant::now();
        tracer.end_at(setup_span, started);
        let segment_span = tracer.begin_at("segment", 0, seg, started);
        for (token, (due_ns, name)) in schedule.iter().zip(names).enumerate() {
            let due = started + Duration::from_nanos(*due_ns);
            spin_until(due, &mut reflector, &done_rx, |done| {
                take(done, &mut log, scratch, &mut timed_out)
            });
            let submit = Instant::now();
            handle.submit(token as u64, INGRESS, name, RecordType::A, &done_tx);
            if traced {
                tracer.closed("submit", segment_span, seg, submit, Instant::now());
            }
            log.push(Sent {
                due,
                submit,
                completed: None,
            });
        }
        let give_up = Instant::now() + policy().worst_case() + Duration::from_secs(1);
        let mut left = log.iter().filter(|s| s.completed.is_none()).count();
        while left > 0 && Instant::now() < give_up {
            spin_until(Instant::now(), &mut reflector, &done_rx, |done| {
                take(done, &mut log, scratch, &mut timed_out);
                left = left.saturating_sub(1);
            });
        }
        let ended = log
            .iter()
            .filter_map(|s| s.completed)
            .max()
            .unwrap_or_else(Instant::now);
        let engine_cpu_ns = cpu.engine_ns();
        let host_steal_s = cpu.host_steal_s();
        let after = metrics.snapshot();
        tracer.end_at(segment_span, ended);

        let recorder = reactor.flight().expect("flight is on");
        let ring = recorder.ring(0);
        let flight = recorder.snapshot();
        let mut counters = Counters::between(&before, &after, ended - started);
        counters.read_pool(&registry);
        if let Some(insight) = reactor.insight() {
            counters.read_phases(&insight.phases().snapshot());
        }
        drop(reactor);
        let held = reflector.finish();
        served_total += held.len() as u64;
        sent_total += after.sent + WIRE_PINGS as u64;
        retried_total += after.retries + after.timeouts;

        never_completed += log.iter().filter(|s| s.completed.is_none()).count();
        let rows: Vec<Submitted> = log
            .iter()
            .enumerate()
            .filter_map(|(token, s)| {
                Some(Submitted {
                    token: token as u64,
                    due_us: ring.instant_us(s.due),
                    submit_us: ring.instant_us(s.submit),
                    completed_us: ring.instant_us(s.completed?),
                })
            })
            .collect();
        let released: Vec<(u64, u64)> = held
            .iter()
            .filter_map(|h| {
                Some((
                    h.token.filter(|&t| t < UNTIMED_TOKENS)?,
                    ring.instant_us(h.released),
                ))
            })
            .collect();
        let joined = join::join(&rows, &released, &flight);
        join_shares.push(joined.share());

        let mut p = |name: &'static str, samples: &mut [u32], pct: f64, scale: f64| {
            per_segment
                .entry(name)
                .or_default()
                .push(percentile_of(samples, pct) / scale);
        };
        let mut pickup: Vec<u32> = joined
            .pipelines
            .iter()
            .map(|j| j.reply_pickup_us() as u32)
            .collect();
        let mut to_send: Vec<u32> = joined
            .pipelines
            .iter()
            .map(|j| j.submit_to_send_us() as u32)
            .collect();
        let mut completion: Vec<u32> = joined
            .pipelines
            .iter()
            .map(|j| j.completion_us() as u32)
            .collect();
        // Lateness is sub-microsecond when the spin lands: keep it in
        // nanoseconds until it is reported.
        let mut late: Vec<u32> = log
            .iter()
            .map(|s| (s.submit - s.due).as_nanos() as u32)
            .collect();
        let mut release_late: Vec<u32> = held
            .iter()
            .map(|h| (h.released - h.received).saturating_sub(HOLD).as_nanos() as u32)
            .collect();
        p("reply_pickup_p50_us", &mut pickup, 50.0, 1.0);
        p("engine.reactor.reply_pickup_p99_us", &mut pickup, 99.0, 1.0);
        p("submit_to_send_p50_us", &mut to_send, 50.0, 1.0);
        p("completion_p50_us", &mut completion, 50.0, 1.0);
        p("bench.gen_late_p50_us", &mut late, 50.0, 1e3);
        p("bench.gen_late_p99_us", &mut late, 99.0, 1e3);
        p(
            "bench.reflector_release_late_p99_us",
            &mut release_late,
            99.0,
            1e3,
        );
        pipelines.extend(joined.pipelines);

        let mut segment = Segment {
            traced,
            setup_s: (started - setup_started).as_secs_f64(),
            wall_s: (ended - started).as_secs_f64(),
            submitted: log.len() as u64,
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
    for (name, values) in &per_segment {
        report.set_stat(name, over_segments(values), "us");
    }
    report.check(
        "tokens_complete_exactly_once",
        never_completed == 0,
        format!("{never_completed} probes never completed"),
    );
    report.check(
        "reflector_served_equals_engine_sent",
        if retried_total == 0 {
            served_total == sent_total
        } else {
            served_total <= sent_total
        },
        format!("reflector served {served_total}, engine and pings sent {sent_total}, {retried_total} retried or timed out"),
    );
    let share = crate::stats::median(&join_shares);
    report.set("bench.pipeline_join_share", share, "ratio");
    report.check(
        "probes_join_across_logs",
        share >= 0.99,
        format!("{share:.4} of probes joined across generator, reflector and flight logs"),
    );
    let late_p50 = report.get("bench.gen_late_p50_us").unwrap_or(0.0);
    // Advisory: on a shared box the host can stall the generator for
    // milliseconds, and that is not the program under test failing.
    report.advise(
        "generator_kept_its_schedule",
        late_p50 <= MAX_GEN_LATE_P50_US,
        format!("median lateness {late_p50} us (limit {MAX_GEN_LATE_P50_US}); a late generator measures the host's scheduler"),
    );
    Ok(WorkloadRun {
        segments,
        pipelines,
        ..WorkloadRun::default()
    })
}
