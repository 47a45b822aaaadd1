//! The five workloads and what they share: the segment record, the
//! closed-loop generator, counter totals and the roll-up into a
//! [`Report`].

pub mod chain;
pub mod flood;
pub mod lossy;
pub mod paced;

use crate::catalog::SEGMENTS;
use crate::join::{Pipeline, Submitted};
use crate::keepawake;
use crate::procstat;
use crate::reflector::InlineReflector;
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{self, over_segments};
use cde_dns::wire::WireWriter;
use cde_dns::{Message, Name, RecordType};
use cde_engine::{MetricsSnapshot, ProbeCompletion, ReactorHandle, RetryPolicy, TransportReply};
use cde_insight::{PhaseStats, PHASES};
use cde_telemetry::MetricsRegistry;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::HashMap;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

/// The one platform ingress every workload probes.
pub const INGRESS: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
/// Probes a closed-loop generator keeps in flight: enough to hide the
/// responder's per-datagram service time, small enough that its receive
/// queue stays under the default socket buffer (deeper windows overflow
/// it and turn the flood into a retransmission bench).
pub const WINDOW: usize = 128;
/// Zone the reflector workloads ask about.
pub const BENCH_ZONE: &str = "bench.example";
/// In a traced flood one token in this many carries its own name, so
/// the reflector can tell which probe it is answering.
pub const PIPELINE_SAMPLE: u64 = 256;

/// The run's arguments, as the workloads see them.
#[derive(Debug, Clone, Copy)]
pub struct Env {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

impl Env {
    pub fn segment_len(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / SEGMENTS as f64)
    }

    /// In a traced run segments alternate traced / plain, starting and
    /// ending traced, and the difference is the tracing overhead.
    pub fn segment_traced(&self, segment: usize) -> bool {
        self.traced && segment % 2 == 0
    }
}

/// Static deadlines for the floods: loopback is lossless, but a loaded
/// burst can still shed the odd datagram at a socket buffer, and a
/// short first timeout keeps that from dominating a segment.
pub fn flood_policy() -> RetryPolicy {
    RetryPolicy {
        attempts: 4,
        timeout: Duration::from_millis(250),
        backoff: 2.0,
        base_delay: Duration::from_millis(2),
        jitter: 0.5,
    }
}

/// Buffers allocated and touched once per run, so that peak memory does
/// not depend on how many probes a segment happened to complete.
pub struct Scratch {
    /// Engine-reported RTTs of the current segment, microseconds.
    pub rtt: Vec<u32>,
    /// One bit per token of the current segment: completion seen.
    seen: Vec<u64>,
}

/// RTT samples kept per segment; later ones are counted but not kept.
const RTT_SAMPLES: usize = 1 << 20;
const SEEN_WORDS: usize = 1 << 16;

impl Scratch {
    pub fn new() -> Scratch {
        let mut rtt = vec![1u32; RTT_SAMPLES];
        rtt.clear();
        Scratch {
            rtt,
            seen: vec![0; SEEN_WORDS],
        }
    }

    pub fn reset(&mut self) {
        self.rtt.clear();
        self.seen.fill(0);
    }

    /// Marks `token` complete; `false` if it already was.
    fn mark(&mut self, token: u64) -> bool {
        let (word, bit) = ((token / 64) as usize, token % 64);
        if word >= self.seen.len() {
            self.seen.resize(word + SEEN_WORDS, 0);
        }
        let fresh = self.seen[word] & (1 << bit) == 0;
        self.seen[word] |= 1 << bit;
        fresh
    }

    pub fn record_rtt(&mut self, reply: &TransportReply) {
        if let TransportReply::Answered {
            latency: Some(l), ..
        } = reply
        {
            if self.rtt.len() < RTT_SAMPLES {
                self.rtt.push(l.as_micros().min(u64::from(u32::MAX)) as u32);
            }
        }
    }
}

/// Wall-clock the generator spent in each of its own phases.
#[derive(Debug, Default, Clone, Copy)]
pub struct LoopPhases {
    pub iterations: u64,
    pub submit_ns: u64,
    pub reflect_ns: u64,
    pub complete_ns: u64,
    /// The workload's own work from the generator thread (`tick`).
    pub tick_ns: u64,
    /// Yielding the CPU because nothing moved.
    pub idle_ns: u64,
}

/// Exact wall-clock total of one generator phase over a traced segment.
/// The spans in the trace file sample one iteration in
/// `ITERATION_SPAN_EVERY`; these totals cover them all.
#[derive(Debug, Clone, Copy)]
pub struct PhaseTotal {
    pub segment: i32,
    pub name: &'static str,
    pub calls: u64,
    pub total_ns: u64,
}

/// What a workload hands back: its segments and, from traced segments,
/// the per-probe pipelines and generator phase totals for the trace
/// file.
#[derive(Default)]
pub struct WorkloadRun {
    pub segments: Vec<Segment>,
    /// The segments are repeats of one saturated closed loop, whose
    /// throughput is read at their upper quartile.
    pub closed_loop: bool,
    pub pipelines: Vec<Pipeline>,
    pub phase_totals: Vec<PhaseTotal>,
}

/// One generator iteration in this many is written out as spans.
const ITERATION_SPAN_EVERY: u64 = 1024;

/// What a traced segment records inside the generator loop.
pub struct LoopTrace<'a> {
    pub tracer: &'a mut Tracer,
    pub parent: u32,
    pub segment: i32,
    pub phases: LoopPhases,
    /// `(token, submit instant, completion instant)` of the sampled
    /// probes, for the pipeline join.
    pub sampled: Vec<(u64, Instant, Option<Instant>)>,
}

impl<'a> LoopTrace<'a> {
    pub fn new(tracer: &'a mut Tracer, parent: u32, segment: i32) -> LoopTrace<'a> {
        LoopTrace {
            tracer,
            parent,
            segment,
            phases: LoopPhases::default(),
            sampled: Vec::new(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Submit exactly this many probes.
    Probes(u64),
    /// Submit until this instant.
    At(Instant),
}

#[derive(Debug, Default, Clone, Copy)]
pub struct LoopOutcome {
    pub submitted: u64,
    pub answered: u64,
    pub timed_out: u64,
    /// Completions for a token that had already completed.
    pub duplicates: u64,
    /// Submissions refused because the reactor had shut down.
    pub refused: u64,
}

/// The closed-loop generator: keeps `window` probes in flight through
/// `ReactorHandle::submit` (the seam cde-serve uses), serves the inline
/// reflector from the same thread, and takes completions as they come.
pub struct ClosedLoop<'a> {
    pub handle: &'a ReactorHandle,
    pub reflector: Option<&'a mut InlineReflector>,
    pub qname: &'a Name,
    pub window: usize,
    done_tx: Sender<ProbeCompletion>,
    done_rx: Receiver<ProbeCompletion>,
    next_token: u64,
}

impl<'a> ClosedLoop<'a> {
    pub fn new(
        handle: &'a ReactorHandle,
        reflector: Option<&'a mut InlineReflector>,
        qname: &'a Name,
    ) -> ClosedLoop<'a> {
        let (done_tx, done_rx) = unbounded();
        ClosedLoop {
            handle,
            reflector,
            qname,
            window: WINDOW,
            done_tx,
            done_rx,
            next_token: 0,
        }
    }

    /// Runs until `stop`, then waits for every probe still in flight.
    /// `tick` is called once per iteration with the current time, for
    /// work the workload does from the generator thread.
    pub fn drive(
        &mut self,
        stop: Stop,
        scratch: &mut Scratch,
        mut trace: Option<&mut LoopTrace<'_>>,
        tick: &mut dyn FnMut(Instant),
    ) -> LoopOutcome {
        let mut out = LoopOutcome::default();
        let mut in_flight = 0usize;
        let mut stopping = false;
        let sample_zone: Option<Name> = trace
            .is_some()
            .then(|| BENCH_ZONE.parse().expect("static zone name"));
        loop {
            let now = Instant::now();
            stopping = stopping
                || match stop {
                    Stop::Probes(n) => out.submitted >= n,
                    Stop::At(deadline) => now >= deadline,
                };
            if stopping && in_flight == 0 {
                return out;
            }
            let before = (out.submitted, out.answered + out.timed_out);
            while !stopping && in_flight < self.window {
                if let Stop::Probes(n) = stop {
                    if out.submitted >= n {
                        break;
                    }
                }
                let token = self.next_token;
                let qname = match (&mut trace, &sample_zone) {
                    (Some(t), Some(zone)) if token % PIPELINE_SAMPLE == 0 => {
                        t.sampled.push((token, Instant::now(), None));
                        zone.prepend_label(format!("s{token}"))
                            .expect("token label is valid")
                    }
                    _ => self.qname.clone(),
                };
                if !self
                    .handle
                    .submit(token, INGRESS, qname, RecordType::A, &self.done_tx)
                {
                    out.refused += 1;
                    stopping = true;
                    break;
                }
                self.next_token += 1;
                out.submitted += 1;
                in_flight += 1;
            }
            let submitted_at = trace.is_some().then(Instant::now);
            let reflected = self.reflector.as_mut().map_or(0, |r| r.serve());
            let reflected_at = trace.is_some().then(Instant::now);
            while let Ok(done) = self.done_rx.try_recv() {
                in_flight -= 1;
                if !scratch.mark(done.token) {
                    out.duplicates += 1;
                }
                match &done.reply {
                    TransportReply::Answered { .. } => out.answered += 1,
                    TransportReply::TimedOut => out.timed_out += 1,
                }
                scratch.record_rtt(&done.reply);
                if let Some(t) = &mut trace {
                    if done.token % PIPELINE_SAMPLE == 0 {
                        let at = Instant::now();
                        if let Some(s) = t.sampled.iter_mut().rev().find(|s| s.0 == done.token) {
                            s.2 = Some(at);
                        }
                    }
                }
            }
            if let (Some(t), Some(submitted_at), Some(reflected_at)) =
                (&mut trace, submitted_at, reflected_at)
            {
                let completed_at = Instant::now();
                t.phases.iterations += 1;
                t.phases.submit_ns += (submitted_at - now).as_nanos() as u64;
                t.phases.reflect_ns += (reflected_at - submitted_at).as_nanos() as u64;
                t.phases.complete_ns += (completed_at - reflected_at).as_nanos() as u64;
                if t.phases.iterations % ITERATION_SPAN_EVERY == 1 {
                    let id = t.tracer.begin_at("iteration", t.parent, t.segment, now);
                    t.tracer.closed("submit", id, t.segment, now, submitted_at);
                    t.tracer
                        .closed("reflect", id, t.segment, submitted_at, reflected_at);
                    t.tracer
                        .closed("complete", id, t.segment, reflected_at, completed_at);
                    t.tracer.end_at(id, completed_at);
                }
            }
            let ticked_at = trace.is_some().then(Instant::now);
            tick(now);
            let after_tick = trace.is_some().then(Instant::now);
            let after = (out.submitted, out.answered + out.timed_out);
            if before == after && reflected == 0 {
                std::thread::yield_now();
            }
            if let (Some(t), Some(ticked_at), Some(after_tick)) =
                (&mut trace, ticked_at, after_tick)
            {
                t.phases.tick_ns += (after_tick - ticked_at).as_nanos() as u64;
                t.phases.idle_ns += after_tick.elapsed().as_nanos() as u64;
            }
        }
    }
}

/// The samples a segment ends with, as `Submitted` rows on the flight
/// recorder's clock. Probes whose completion was never seen are left
/// out (they show up as unmatched in the exactly-once check instead).
pub fn submitted_rows(
    sampled: &[(u64, Instant, Option<Instant>)],
    to_us: impl Fn(Instant) -> u64,
) -> Vec<Submitted> {
    sampled
        .iter()
        .filter_map(|&(token, submit, completed)| {
            Some(Submitted {
                token,
                due_us: to_us(submit),
                submit_us: to_us(submit),
                completed_us: to_us(completed?),
            })
        })
        .collect()
}

/// Round trips of a plain blocking socket to `target`, in microseconds:
/// the wire RTT the engine's own figure is held against. `between` runs
/// after each send, for a responder served from the calling thread.
/// Sends are at least `gap` apart (spun out, not slept): with a gap
/// longer than any round trip the pings take `count * gap`, whatever
/// mood the responder's idle nap is in.
pub fn wire_pings(
    target: SocketAddr,
    count: usize,
    gap: Duration,
    name: &dyn Fn(u64) -> Name,
    between: &mut dyn FnMut(),
) -> io::Result<Vec<u32>> {
    let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
    socket.set_read_timeout(Some(Duration::from_secs(1)))?;
    let mut writer = WireWriter::new();
    let mut buf = [0u8; 2048];
    let mut rtts = Vec::with_capacity(count);
    for i in 0..count {
        Message::encode_query_into(&mut writer, i as u16, &name(i as u64), RecordType::A);
        let sent = Instant::now();
        socket.send_to(writer.as_slice(), target)?;
        between();
        socket.recv_from(&mut buf)?;
        rtts.push(sent.elapsed().as_micros() as u32);
        while sent.elapsed() < gap {
            std::hint::spin_loop();
        }
    }
    Ok(rtts)
}

/// On-CPU time of every thread but the benchmark's own (the caller and
/// the keep-awake spinners), sampled while the engine's threads are
/// alive.
pub struct CpuMeter {
    before: Option<HashMap<u32, u64>>,
    steal_before: Option<f64>,
}

impl CpuMeter {
    pub fn start() -> CpuMeter {
        CpuMeter {
            before: procstat::thread_cpu_ns(),
            steal_before: procstat::host_steal_s(),
        }
    }

    /// CPU seconds the host took from this machine since `start`.
    pub fn host_steal_s(&self) -> Option<f64> {
        Some(procstat::host_steal_s()? - self.steal_before?)
    }

    pub fn engine_ns(&self) -> Option<u64> {
        let before = self.before.as_ref()?;
        let after = procstat::thread_cpu_ns()?;
        let mut mine = keepawake::spinner_tids();
        mine.push(procstat::current_tid()?);
        Some(procstat::engine_cpu_ns(before, &after, &mine))
    }
}

/// Counter movement over a segment's timed part, from two public
/// snapshots, plus what the other public handles report.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub wall_us: f64,
    pub answered: u64,
    pub sent: u64,
    pub retries: u64,
    pub timeouts: u64,
    pub strays: u64,
    pub decode_errors: u64,
    pub loop_count: u64,
    pub loop_sum_us: u64,
    pub batches: u64,
    pub batch_datagrams: u64,
    pub parks: u64,
    pub parked_us: u64,
    pub unparks: u64,
    pub wake_latency_us: u64,
    pub adaptive_deadlines: u64,
    pub rto_backoffs: u64,
    pub flight_records: u64,
    pub flight_shed: u64,
    pub in_flight_peak: u64,
    pub ring_depth_peak: u64,
    pub wheel_pending_peak: u64,
    pub pool_minted: u64,
    pub pool_recycled: u64,
    pub events_emitted: u64,
    pub events_dropped: u64,
    pub query_drops: u64,
    pub reply_drops: u64,
    pub authority_served: u64,
    pub resolver_dropped_observations: u64,
    /// `(total ns, samples)` per hot-path phase, in `PHASES` order.
    pub phases: [(u64, u64); 6],
}

impl Counters {
    pub fn between(before: &MetricsSnapshot, after: &MetricsSnapshot, wall: Duration) -> Counters {
        Counters {
            wall_us: wall.as_secs_f64() * 1e6,
            answered: after.received - before.received,
            sent: after.sent - before.sent,
            retries: after.retries - before.retries,
            timeouts: after.timeouts - before.timeouts,
            strays: after.stray_replies - before.stray_replies,
            decode_errors: after.decode_errors - before.decode_errors,
            loop_count: after.loop_count - before.loop_count,
            loop_sum_us: after.loop_sum_us - before.loop_sum_us,
            batches: after.batches_sent() - before.batches_sent(),
            batch_datagrams: after.batch_datagrams - before.batch_datagrams,
            parks: after.parks - before.parks,
            parked_us: after.parked_us - before.parked_us,
            unparks: after.unparks - before.unparks,
            wake_latency_us: after.wake_latency_us - before.wake_latency_us,
            adaptive_deadlines: after.adaptive_deadlines - before.adaptive_deadlines,
            rto_backoffs: after.rto_backoffs - before.rto_backoffs,
            flight_records: after.flight_records - before.flight_records,
            flight_shed: after.flight_shed - before.flight_shed,
            in_flight_peak: after.in_flight_peak,
            ring_depth_peak: after.ring_depth_peak,
            wheel_pending_peak: after.wheel_pending_peak,
            ..Counters::default()
        }
    }

    /// Buffer-pool totals from the registry the reactor registered its
    /// pool into (the pool itself is private to the shard).
    pub fn read_pool(&mut self, registry: &MetricsRegistry) {
        for metric in registry.gather() {
            if let cde_telemetry::MetricValue::Counter(v) = metric.value {
                match metric.name {
                    "cde_bufpool_minted_total" => self.pool_minted += v,
                    "cde_bufpool_recycled_total" => self.pool_recycled += v,
                    _ => {}
                }
            }
        }
    }

    pub fn read_phases(&mut self, stats: &[PhaseStats]) {
        for (slot, phase) in self.phases.iter_mut().zip(PHASES) {
            if let Some(s) = stats.iter().find(|s| s.phase == phase) {
                *slot = (s.sum_ns, s.sampled);
            }
        }
    }

    fn add(&mut self, o: &Counters) {
        self.wall_us += o.wall_us;
        self.answered += o.answered;
        self.sent += o.sent;
        self.retries += o.retries;
        self.timeouts += o.timeouts;
        self.strays += o.strays;
        self.decode_errors += o.decode_errors;
        self.loop_count += o.loop_count;
        self.loop_sum_us += o.loop_sum_us;
        self.batches += o.batches;
        self.batch_datagrams += o.batch_datagrams;
        self.parks += o.parks;
        self.parked_us += o.parked_us;
        self.unparks += o.unparks;
        self.wake_latency_us += o.wake_latency_us;
        self.adaptive_deadlines += o.adaptive_deadlines;
        self.rto_backoffs += o.rto_backoffs;
        self.flight_records += o.flight_records;
        self.flight_shed += o.flight_shed;
        self.in_flight_peak = self.in_flight_peak.max(o.in_flight_peak);
        self.ring_depth_peak = self.ring_depth_peak.max(o.ring_depth_peak);
        self.wheel_pending_peak = self.wheel_pending_peak.max(o.wheel_pending_peak);
        self.pool_minted += o.pool_minted;
        self.pool_recycled += o.pool_recycled;
        self.events_emitted += o.events_emitted;
        self.events_dropped += o.events_dropped;
        self.query_drops += o.query_drops;
        self.reply_drops += o.reply_drops;
        self.authority_served += o.authority_served;
        self.resolver_dropped_observations += o.resolver_dropped_observations;
        for (mine, theirs) in self.phases.iter_mut().zip(o.phases) {
            mine.0 += theirs.0;
            mine.1 += theirs.1;
        }
    }
}

/// One segment (or, for `lossy_count`, one enumeration): set-up, then a
/// timed part.
#[derive(Debug, Default, Clone)]
pub struct Segment {
    pub traced: bool,
    pub setup_s: f64,
    pub wall_s: f64,
    /// Probes submitted and probes that timed out or were refused.
    pub submitted: u64,
    pub failed: u64,
    pub engine_cpu_ns: Option<u64>,
    /// CPU seconds the host took from the machine during the timed part.
    pub host_steal_s: Option<f64>,
    pub rtt_p50_us: f64,
    pub rtt_p99_us: f64,
    /// Median blocking-socket round trip to the same responder.
    pub wire_rtt_p50_us: f64,
    pub counters: Counters,
}

impl Segment {
    pub fn take_rtts(&mut self, scratch: &mut Scratch) {
        scratch.rtt.sort_unstable();
        self.rtt_p50_us = stats::percentile(&scratch.rtt, 50.0).map_or(0.0, f64::from);
        self.rtt_p99_us = stats::percentile(&scratch.rtt, 99.0).map_or(0.0, f64::from);
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Rolls the segments up: end-to-end metrics are medians over all
/// segments (a closed loop's throughput, their upper quartile); per-layer counters are totals over the traced segments of
/// a traced run (all segments otherwise).
pub fn summarize(report: &mut Report, env: &Env, run: &WorkloadRun) {
    let segments = &run.segments[..];
    // Diagnostics on standard error: what each segment read, so a noisy
    // second can be told from a slow run.
    for (i, s) in segments.iter().enumerate() {
        eprintln!(
            "segment {i}: traced {} setup_s {:.4} wall_s {:.4} answered {} probes_per_s {:.1} \
             engine_cpu_us_per_probe {:.3} rtt_p50_us {} host_steal_s {:.2}",
            s.traced,
            s.setup_s,
            s.wall_s,
            s.counters.answered,
            ratio(s.counters.answered as f64, s.wall_s),
            ratio(
                s.engine_cpu_ns.unwrap_or(0) as f64 / 1e3,
                s.counters.answered as f64
            ),
            s.rtt_p50_us,
            s.host_steal_s.unwrap_or(0.0),
        );
    }
    let per_segment =
        |f: &dyn Fn(&Segment) -> f64| -> Vec<f64> { segments.iter().map(f).collect() };
    report.set_stat("setup_s", over_segments(&per_segment(&|s| s.setup_s)), "s");
    let throughputs = per_segment(&|s| ratio(s.counters.answered as f64, s.wall_s));
    let pps = if run.closed_loop {
        stats::upper_quartile_over_segments(&throughputs)
    } else {
        over_segments(&throughputs)
    };
    report.set_stat("probes_per_s", pps, "1/s");
    report.set_stat(
        "rtt_p50_us",
        over_segments(&per_segment(&|s| s.rtt_p50_us)),
        "us",
    );
    report.set_stat(
        "sends_per_answer",
        over_segments(&per_segment(&|s| {
            ratio(s.counters.sent as f64, s.counters.answered as f64)
        })),
        "ratio",
    );
    report.set_stat(
        "bench.wire_rtt_p50_us",
        over_segments(&per_segment(&|s| s.wire_rtt_p50_us)),
        "us",
    );
    let cpu: Vec<f64> = segments
        .iter()
        .filter_map(|s| {
            Some(ratio(
                s.engine_cpu_ns? as f64 / 1e3,
                s.counters.answered as f64,
            ))
        })
        .collect();
    if !cpu.is_empty() {
        report.set_stat("engine_cpu_us_per_probe", over_segments(&cpu), "us");
    }
    if let Some(mb) = procstat::peak_rss_mb() {
        report.set("peak_rss_mb", mb, "MB");
    }
    // How much of the machine the host kept for others while the run was
    // timed: beside a slow run, the reason.
    let stolen: Option<f64> = segments.iter().map(|s| s.host_steal_s).sum();
    if let Some(stolen) = stolen {
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        let timed: f64 = segments.iter().map(|s| s.wall_s).sum();
        report.set(
            "bench.host_steal_share",
            ratio(stolen, cpus as f64 * timed),
            "ratio",
        );
    }
    report.attempted += segments.iter().map(|s| s.submitted).sum::<u64>();
    report.failed += segments.iter().map(|s| s.failed).sum::<u64>();
    report.set(
        "failed_share",
        ratio(report.failed as f64, report.attempted as f64),
        "ratio",
    );

    let chosen: Vec<&Segment> = segments.iter().filter(|s| s.traced == env.traced).collect();
    let mut c = Counters::default();
    for s in &chosen {
        c.add(&s.counters);
    }
    let answered = c.answered as f64;
    let r = "engine.reactor.";
    report.set(
        &format!("{r}busy_share"),
        1.0 - ratio(c.parked_us as f64, c.wall_us),
        "ratio",
    );
    report.set(
        &format!("{r}loop_iters_per_probe"),
        ratio(c.loop_count as f64, answered),
        "count",
    );
    report.set(
        &format!("{r}loop_mean_us"),
        ratio(c.loop_sum_us as f64, c.loop_count as f64),
        "us",
    );
    report.set(
        &format!("{r}send_batch_mean"),
        ratio(c.batch_datagrams as f64, c.batches as f64),
        "count",
    );
    report.set(
        &format!("{r}parks_per_probe"),
        ratio(c.parks as f64, answered),
        "count",
    );
    report.set(
        &format!("{r}wake_latency_mean_us"),
        ratio(c.wake_latency_us as f64, c.unparks as f64),
        "us",
    );
    report.set(
        &format!("{r}in_flight_peak"),
        c.in_flight_peak as f64,
        "count",
    );
    report.set(
        &format!("{r}ring_depth_peak"),
        c.ring_depth_peak as f64,
        "count",
    );
    report.set(
        &format!("{r}wheel_pending_peak"),
        c.wheel_pending_peak as f64,
        "count",
    );
    report.set(&format!("{r}retries"), c.retries as f64, "count");
    report.set(&format!("{r}timeouts"), c.timeouts as f64, "count");
    report.set(&format!("{r}strays"), c.strays as f64, "count");
    report.set(
        &format!("{r}decode_errors"),
        c.decode_errors as f64,
        "count",
    );
    let p99: Vec<f64> = chosen.iter().map(|s| s.rtt_p99_us).collect();
    report.set_stat(&format!("{r}rtt_p99_us"), over_segments(&p99), "us");
    for ((total_ns, samples), phase) in c.phases.iter().zip(PHASES) {
        report.set(
            &format!("{r}phase.{}_ns", phase.as_str()),
            ratio(*total_ns as f64, *samples as f64),
            "ns",
        );
    }
    report.set("engine.bufpool.minted", c.pool_minted as f64, "count");
    report.set(
        "engine.bufpool.recycled_share",
        ratio(
            c.pool_recycled as f64,
            (c.pool_recycled + c.pool_minted) as f64,
        ),
        "ratio",
    );
    report.set(
        "engine.rto.adaptive_deadlines",
        c.adaptive_deadlines as f64,
        "count",
    );
    report.set("engine.rto.backoffs", c.rto_backoffs as f64, "count");
    report.set("faults.query_drops", c.query_drops as f64, "count");
    report.set("faults.reply_drops", c.reply_drops as f64, "count");
    report.set("telemetry.events_emitted", c.events_emitted as f64, "count");
    report.set("telemetry.events_dropped", c.events_dropped as f64, "count");
    report.set("engine.flight.records", c.flight_records as f64, "count");
    report.set("engine.flight.shed", c.flight_shed as f64, "count");
    report.set(
        "engine.authority.queries_served",
        c.authority_served as f64,
        "count",
    );
    report.set(
        "engine.resolver.dropped_observations",
        c.resolver_dropped_observations as f64,
        "count",
    );
    if env.traced {
        // Wall-clock per answered probe, traced over plain segments.
        let side = |traced: bool| -> Vec<f64> {
            segments
                .iter()
                .filter(|s| s.traced == traced)
                .map(|s| ratio(s.wall_s, s.counters.answered as f64))
                .collect()
        };
        let plain = stats::median(&side(false));
        report.set(
            "bench.trace_overhead_share",
            ratio(stats::median(&side(true)) - plain, plain),
            "ratio",
        );
    }
}
