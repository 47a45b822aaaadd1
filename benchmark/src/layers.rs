//! The isolated layer timings: each layer's public functions called in
//! a tight loop, nanoseconds per operation. They run inside every traced
//! run, so the per-layer ledger is taken on the same box, in the same
//! minutes, as the workload it is held against.

use crate::report::Report;
use crate::stats::median;
use crate::workloads::chain::{Chain, PLANTED};
use crate::workloads::{flood_policy, ClosedLoop, Scratch, Stop, INGRESS, WINDOW};
use cde_cache::DnsCache;
use cde_core::{enumerate_identical, CdeInfra, EnumerateOptions, SequentialPlanner, Session};
use cde_dns::wire::WireWriter;
use cde_dns::{Message, MessagePeek, Name, Question, RData, Record, RecordType, Ttl};
use cde_engine::{
    AdaptiveRtoConfig, BufferPool, EngineAccess, EngineClock, FlightDisposition, FlightRecord,
    FlightRecorder, LoopbackResolver, RateConfig, RateLimiter, ReactorConfig, ResolverConfig,
    RtoTable, SimTransport, TenantRate, TimerWheel, WeightedRateLimiter, WireAuthority,
};
use cde_faults::{Direction, FaultInjector, FaultPlan};
use cde_insight::{RttConfig, RttDigestSet, RttEstimator};
use cde_netsim::{Link, SimTime};
use cde_platform::{NameserverNet, PlatformBuilder, ResolutionPlatform, SelectorKind};
use cde_probers::DirectProber;
use cde_pulse::{ExemplarReservoir, ProbeExemplar};
use cde_sysio::{recv_batch, send_batch, MpscRing, RecvSlot, SendItem};
use cde_telemetry::{EventKind, TelemetryHub, DEFAULT_RING_CAPACITY};
use std::hint::black_box;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long each timing runs. The full pass (`run.sh --layers-ms 500`)
/// gives every layer half a second; inside a driver run they share a
/// few seconds.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub per_timing: Duration,
}

/// Operations per timed batch; a batch is long enough that the two
/// clock reads around it do not count.
const BATCH: u64 = 4_096;

/// Median over batches of the mean nanoseconds per operation.
fn ns_per_op(budget: Budget, batch: u64, mut op: impl FnMut(u64)) -> f64 {
    let mut per_batch = Vec::new();
    let mut i = 0u64;
    let started = Instant::now();
    // One untimed batch first: caches, branch state, lazy allocation.
    for _ in 0..batch {
        op(i);
        i += 1;
    }
    while per_batch.len() < 3 || started.elapsed() < budget.per_timing {
        let t = Instant::now();
        for _ in 0..batch {
            op(i);
            i += 1;
        }
        per_batch.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&per_batch)
}

fn honey_world(caches: usize, seed: u64) -> (ResolutionPlatform, NameserverNet, CdeInfra, Session) {
    let mut net = NameserverNet::new();
    let mut infra = CdeInfra::install(&mut net);
    let session = infra.new_session(&mut net, 0);
    let platform = PlatformBuilder::new(seed)
        .ingress(vec![INGRESS])
        .egress(vec![Ipv4Addr::new(192, 0, 3, 1)])
        .cluster(caches, SelectorKind::Random)
        .build();
    (platform, net, infra, session)
}

fn query_bytes(id: u16, qname: &Name) -> Vec<u8> {
    let mut w = WireWriter::new();
    Message::encode_query_into(&mut w, id, qname, RecordType::A);
    w.as_slice().to_vec()
}

fn dns_core(r: &mut Report, b: Budget) {
    let qname: Name = "name-1.cache.example".parse().expect("static name");
    let mut writer = WireWriter::new();
    r.set(
        "dns-core.encode_query_ns",
        ns_per_op(b, BATCH, |i| {
            Message::encode_query_into(&mut writer, i as u16, black_box(&qname), RecordType::A);
            black_box(writer.as_slice());
        }),
        "ns",
    );
    let allocs_before = crate::alloc::thread_allocations();
    for i in 0..BATCH {
        Message::encode_query_into(&mut writer, i as u16, black_box(&qname), RecordType::A);
        black_box(writer.as_slice());
    }
    r.set(
        "dns-core.allocs_per_encode",
        (crate::alloc::thread_allocations() - allocs_before) as f64 / BATCH as f64,
        "count",
    );

    let query = Message::query(7, Question::new(qname.clone(), RecordType::A));
    let mut response = Message::response_to(&query);
    response.answers = vec![Record::new(
        qname.clone(),
        Ttl::from_secs(300),
        RData::A(Ipv4Addr::new(198, 51, 100, 7)),
    )];
    let wire = response.encode().expect("response encodes");
    r.set(
        "dns-core.peek_parse_ns",
        ns_per_op(b, BATCH, |_| {
            let peek = MessagePeek::parse(black_box(&wire)).expect("valid response");
            black_box(
                peek.question_matches(&qname, RecordType::A)
                    .expect("valid question"),
            );
        }),
        "ns",
    );
    r.set(
        "dns-core.decode_ns",
        ns_per_op(b, BATCH, |_| {
            black_box(Message::decode(black_box(&wire)).expect("valid response"));
        }),
        "ns",
    );
}

fn socket_pair() -> io::Result<(UdpSocket, UdpSocket, SocketAddrV4)> {
    let a = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
    let b = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
    a.set_nonblocking(true)?;
    b.set_nonblocking(true)?;
    match b.local_addr()? {
        SocketAddr::V4(dest) => Ok((a, b, dest)),
        SocketAddr::V6(_) => Err(io::Error::other("bound an IPv4 address, got IPv6")),
    }
}

fn sysio(r: &mut Report, b: Budget) -> io::Result<()> {
    let ring: MpscRing<u64> = MpscRing::with_capacity(1024);
    r.set(
        "sysio.ring_push_pop_ns",
        ns_per_op(b, BATCH, |i| {
            let _ = ring.push(black_box(i));
            black_box(ring.pop());
        }),
        "ns",
    );

    let (a, peer, dest) = socket_pair()?;
    let payload = query_bytes(1, &"name-1.cache.example".parse().expect("static name"));
    let mut slots: Vec<RecvSlot> = (0..32).map(|_| RecvSlot::new()).collect();
    for size in [1usize, 8, 32] {
        let items = vec![
            SendItem {
                payload: &payload,
                dest,
            };
            size
        ];
        let (mut send_ns, mut recv_ns) = (Vec::new(), Vec::new());
        let started = Instant::now();
        // Send and receive share the timing's budget.
        while send_ns.len() < 64 || started.elapsed() < b.per_timing * 2 {
            let t0 = Instant::now();
            let sent = send_batch(&a, &items)?;
            let t1 = Instant::now();
            let mut got = 0;
            // Loopback delivers before `sendmmsg` returns, so the first
            // call takes the whole batch; the loop is for a short count.
            while got < sent {
                got += recv_batch(&peer, &mut slots[got..sent])?;
            }
            let t2 = Instant::now();
            if sent == size {
                send_ns.push((t1 - t0).as_nanos() as f64 / size as f64);
                recv_ns.push((t2 - t1).as_nanos() as f64 / size as f64);
            }
        }
        r.set(
            &format!("sysio.send_batch_ns_per_dgram.b{size}"),
            median(&send_ns),
            "ns",
        );
        r.set(
            &format!("sysio.recv_batch_ns_per_dgram.b{size}"),
            median(&recv_ns),
            "ns",
        );
    }
    Ok(())
}

fn engine_parts(r: &mut Report, b: Budget) {
    // Deadlines land where the reactor's do: a few hundred ticks out.
    let mut wheel: TimerWheel<u64> = TimerWheel::new(0);
    let mut expired = Vec::with_capacity(BATCH as usize);
    let mut schedule_ns = Vec::new();
    let mut advance_ns = Vec::new();
    let mut filtered_ns = Vec::new();
    let started = Instant::now();
    let mut round = 0u64;
    while schedule_ns.len() < 6 || started.elapsed() < b.per_timing * 3 {
        let now = wheel.now();
        let t0 = Instant::now();
        for i in 0..BATCH {
            wheel.schedule(now + 200 + (i % 100), black_box(i));
        }
        let t1 = Instant::now();
        expired.clear();
        if round % 2 == 0 {
            wheel.advance(now + 301, &mut expired);
            advance_ns.push(t1.elapsed().as_nanos() as f64 / BATCH as f64);
        } else {
            // Half the entries are stale, as lazily cancelled deadlines are.
            wheel.advance_filtered(now + 301, &mut expired, |v| v % 2 == 0);
            filtered_ns.push(t1.elapsed().as_nanos() as f64 / BATCH as f64);
        }
        black_box(expired.len());
        schedule_ns.push((t1 - t0).as_nanos() as f64 / BATCH as f64);
        round += 1;
    }
    r.set("engine.timer.schedule_ns", median(&schedule_ns), "ns");
    r.set(
        "engine.timer.advance_ns_per_entry",
        median(&advance_ns),
        "ns",
    );
    r.set(
        "engine.timer.advance_filtered_ns_per_entry",
        median(&filtered_ns),
        "ns",
    );

    let mut pool = BufferPool::new(128, 1024);
    r.set(
        "engine.bufpool.take_give_ns",
        ns_per_op(b, BATCH, |_| {
            let mut buf = pool.take();
            buf.push(1);
            pool.give(black_box(buf));
        }),
        "ns",
    );

    // A rate no debit ever waits for: the cost is the bucket update.
    let unlimited = RateConfig {
        per_second: 1e12,
        burst: 1e12,
    };
    let limiter = RateLimiter::new(unlimited, None);
    r.set(
        "engine.ratelimit.debit_ns",
        ns_per_op(b, BATCH, |_| {
            black_box(limiter.debit(black_box(INGRESS)));
        }),
        "ns",
    );
    let weighted = WeightedRateLimiter::new(unlimited);
    weighted.register("tenant", TenantRate::weighted(1.0));
    r.set(
        "engine.ratelimit.weighted_debit_ns",
        ns_per_op(b, BATCH, |_| {
            black_box(weighted.debit_n(black_box("tenant"), 1));
        }),
        "ns",
    );

    let rto = RtoTable::for_targets([INGRESS], AdaptiveRtoConfig::default());
    r.set(
        "engine.rto.observe_rtt_ns",
        ns_per_op(b, BATCH, |i| rto.observe_rtt(INGRESS, 400 + i % 200)),
        "ns",
    );
    r.set(
        "engine.rto.deadline_for_ns",
        ns_per_op(b, BATCH, |i| {
            black_box(rto.deadline_for(INGRESS, (i % 2) as u32));
        }),
        "ns",
    );

    let recorder = FlightRecorder::new(1, 4096);
    let ring = recorder.ring(0);
    r.set(
        "engine.flight.record_ns",
        ns_per_op(b, BATCH, |i| {
            black_box(ring.record(&FlightRecord {
                token: i,
                ingress: INGRESS,
                shard: 0,
                attempts: 1,
                disposition: FlightDisposition::Answered,
                recorded_at_us: i + 500,
                sent_at_us: i,
                matched_at_us: i + 500,
                expired_at_us: 0,
                rto_us: 250_000,
                wire_size: 38,
                qid: i as u16,
            }));
        }),
        "ns",
    );
}

fn tiers(r: &mut Report, b: Budget) {
    let digests = RttDigestSet::for_targets([INGRESS]);
    r.set(
        "insight.digest_record_ns",
        ns_per_op(b, BATCH, |i| digests.record(INGRESS, 300 + i % 700, false)),
        "ns",
    );
    let mut estimator = RttEstimator::new(RttConfig::default());
    r.set(
        "insight.estimator_observe_ns",
        ns_per_op(b, BATCH, |i| {
            estimator.observe_rtt(black_box(400 + i % 200))
        }),
        "ns",
    );
    black_box(estimator.rto_us());

    // Nearly every probe is below the reservoir's admission floor, as in
    // a steady flood; one in 1024 is slow enough to be admitted.
    let reservoir = ExemplarReservoir::with_capacity(16);
    r.set(
        "pulse.exemplar_record_ns",
        ns_per_op(b, BATCH, |i| {
            let rtt_us = if i % 1024 == 0 {
                5_000 + i
            } else {
                400 + i % 200
            };
            reservoir.record(ProbeExemplar {
                token: i,
                shard: 0,
                ingress: INGRESS,
                attempts: 1,
                rtt_us,
                queue_us: 5,
                lifetime_us: rtt_us + 10,
                answered: true,
            });
        }),
        "ns",
    );

    // The ring is drained between batches, untimed, so an emit never
    // pays for shedding the oldest event.
    let event = |i: u64| EventKind::ProbeMatched {
        token: i,
        attempt: 0,
        rtt_us: 500,
        retransmit_ambiguous: false,
    };
    let hub = TelemetryHub::new(DEFAULT_RING_CAPACITY);
    let mut drained = Vec::new();
    let timed_emit = |hub: &TelemetryHub, drained: &mut Vec<_>| -> f64 {
        let mut per_batch = Vec::new();
        let started = Instant::now();
        let mut i = 0u64;
        while per_batch.len() < 3 || started.elapsed() < b.per_timing {
            let t = Instant::now();
            for _ in 0..BATCH {
                hub.emit(0, event(i));
                i += 1;
            }
            per_batch.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
            drained.clear();
            hub.drain_into(drained);
        }
        median(&per_batch)
    };
    r.set("telemetry.emit_ns", timed_emit(&hub, &mut drained), "ns");

    // A second emitter on its own thread, as a second shard would be.
    let stop = Arc::new(AtomicBool::new(false));
    let contender = std::thread::spawn({
        let (hub, stop) = (Arc::clone(&hub), Arc::clone(&stop));
        move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                hub.emit(0, event(i));
                i += 1;
            }
        }
    });
    r.set(
        "telemetry.emit_contended_ns",
        timed_emit(&hub, &mut drained),
        "ns",
    );
    stop.store(true, Ordering::Relaxed);
    contender.join().expect("contending emitter panicked");
    drained.clear();
    hub.drain_into(&mut drained);

    let mut per_event = Vec::new();
    let started = Instant::now();
    let mut sink = io::sink();
    while per_event.len() < 3 || started.elapsed() < b.per_timing {
        for i in 0..BATCH {
            hub.emit(0, event(i));
        }
        let t = Instant::now();
        let lines = hub.drain_jsonl(&mut sink).unwrap_or(0).max(1);
        per_event.push(t.elapsed().as_nanos() as f64 / lines as f64);
    }
    r.set(
        "telemetry.drain_jsonl_ns_per_event",
        median(&per_event),
        "ns",
    );

    let mut injector = FaultInjector::new(&FaultPlan::bursty(17, 0.30, 3.0));
    r.set(
        "faults.decide_ns",
        ns_per_op(b, BATCH, |i| {
            black_box(injector.decide(
                Direction::ClientToServer,
                Duration::from_micros(i),
                black_box(38),
            ));
        }),
        "ns",
    );
}

fn serving(r: &mut Report, b: Budget, seed: u64) {
    let client = Ipv4Addr::new(100, 64, 0, 9);
    let (mut platform, mut net, _infra, session) = honey_world(PLANTED, seed);
    let honey = session.honey;
    r.set(
        "platform.handle_query_hit_ns",
        ns_per_op(b, 512, |_| {
            black_box(
                platform
                    .handle_query(
                        client,
                        INGRESS,
                        &honey,
                        RecordType::A,
                        SimTime::ZERO,
                        &mut net,
                    )
                    .expect("known ingress"),
            );
        }),
        "ns",
    );
    // Names nobody has asked for: every query walks the hierarchy. The
    // names are made outside the timed loop, the upstream logs cleared.
    let mut per_batch = Vec::new();
    let started = Instant::now();
    let mut next = 0u64;
    while per_batch.len() < 3 || started.elapsed() < b.per_timing {
        let names: Vec<Name> = (0..256)
            .map(|i| {
                format!("miss-{}.cache.example", next + i)
                    .parse()
                    .expect("valid name")
            })
            .collect();
        next += 256;
        let t = Instant::now();
        for name in &names {
            black_box(
                platform
                    .handle_query(
                        client,
                        INGRESS,
                        name,
                        RecordType::A,
                        SimTime::ZERO,
                        &mut net,
                    )
                    .expect("known ingress"),
            );
        }
        per_batch.push(t.elapsed().as_nanos() as f64 / names.len() as f64);
        net.clear_logs();
    }
    r.set("platform.handle_query_miss_ns", median(&per_batch), "ns");

    let mut cache = DnsCache::with_defaults(1);
    let names: Vec<Name> = (0..1024)
        .map(|i| {
            format!("host-{i}.cache.example")
                .parse()
                .expect("valid name")
        })
        .collect();
    let record = |name: &Name| {
        vec![Record::new(
            name.clone(),
            Ttl::from_secs(300),
            RData::A(Ipv4Addr::new(198, 51, 100, 7)),
        )]
    };
    for name in &names {
        cache.insert(name.clone(), RecordType::A, record(name), SimTime::ZERO);
    }
    r.set(
        "dns-cache.lookup_hit_ns",
        ns_per_op(b, BATCH, |i| {
            black_box(cache.lookup(
                &names[i as usize % names.len()],
                RecordType::A,
                SimTime::ZERO,
            ));
        }),
        "ns",
    );
    // Re-inserting over live entries: the key and the record set are
    // built inside the loop because `insert` takes them by value, as the
    // resolver's own insert does.
    r.set(
        "dns-cache.insert_ns",
        ns_per_op(b, 1024, |i| {
            let name = &names[i as usize % names.len()];
            cache.insert(name.clone(), RecordType::A, record(name), SimTime::ZERO);
        }),
        "ns",
    );

    let mut planner = SequentialPlanner::new(0.001);
    r.set(
        "core.planner_record_ns",
        ns_per_op(b, BATCH, |i| {
            planner.record_delivered(u64::from(i % 4096 == 0));
            black_box(planner.should_stop());
        }),
        "ns",
    );

    let mut rates = Vec::new();
    let started = Instant::now();
    while rates.len() < 3 || started.elapsed() < b.per_timing {
        // A fresh world per pass: the honey name is cold in every cache.
        let (platform, net, infra, session) = honey_world(5, seed + rates.len() as u64);
        let prober = DirectProber::new(Ipv4Addr::new(203, 0, 113, 1), Link::ideal(), seed);
        let mut sim = SimTransport::new(platform, net, prober);
        let probes = 512;
        let t = Instant::now();
        let counted = enumerate_identical(
            &mut EngineAccess::new(&mut sim, INGRESS),
            &infra,
            &session,
            EnumerateOptions::with_probes(probes),
            SimTime::ZERO,
        );
        rates.push(probes as f64 / t.elapsed().as_secs_f64());
        black_box(counted);
    }
    r.set("core.enumerate_sim_probes_per_s", median(&rates), "1/s");
}

/// A plain blocking client against one serving socket: median of
/// one-at-a-time round trips, then answers per second with `window`
/// queries outstanding. No reactor anywhere, so this is the serving
/// side's own speed — which side of `chain_flood` is the bottleneck.
fn serve_timings(target: SocketAddr, qname: &Name, b: Budget) -> io::Result<(f64, f64)> {
    const PING_BATCH: usize = 64;
    const BLAST_WINDOW: usize = 64;
    let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
    socket.set_read_timeout(Some(Duration::from_secs(1)))?;
    let query = query_bytes(1, qname);
    let mut buf = [0u8; 2048];
    // Untimed: the first query is the cache miss.
    for _ in 0..8 {
        socket.send_to(&query, target)?;
        socket.recv_from(&mut buf)?;
    }
    let mut pings = Vec::new();
    let started = Instant::now();
    while pings.len() < PING_BATCH || started.elapsed() < b.per_timing * 2 {
        let t = Instant::now();
        socket.send_to(&query, target)?;
        socket.recv_from(&mut buf)?;
        pings.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    let mut rates = Vec::new();
    let started = Instant::now();
    while rates.len() < 3 || started.elapsed() < b.per_timing * 2 {
        let total = 4_096;
        let (mut sent, mut received) = (0, 0);
        let t = Instant::now();
        while received < total {
            while sent < total && sent - received < BLAST_WINDOW {
                socket.send_to(&query, target)?;
                sent += 1;
            }
            socket.recv_from(&mut buf)?;
            received += 1;
        }
        rates.push(total as f64 / t.elapsed().as_secs_f64());
    }
    Ok((median(&pings), median(&rates)))
}

fn live(r: &mut Report, b: Budget, seed: u64, scratch: &mut Scratch) -> io::Result<()> {
    let (platform, net, infra, session) = honey_world(PLANTED, seed);
    let honey = session.honey;
    let clock = EngineClock::start();
    {
        let resolver = LoopbackResolver::launch(
            platform,
            net.clone(),
            None,
            ResolverConfig {
                seed,
                ..ResolverConfig::default()
            },
            clock,
        )?;
        let target = resolver
            .addr_of(INGRESS)
            .expect("resolver serves the ingress");
        let (us, rate) = serve_timings(target, &honey, b)?;
        r.set("engine.resolver.serve_hit_us", us, "us");
        r.set("engine.resolver.serve_rate_per_s", rate, "1/s");
    }
    {
        let authority = WireAuthority::launch(&net, clock)?;
        let target = authority
            .addr_of(infra.zone_server_addr())
            .expect("authority serves the zone");
        let (us, rate) = serve_timings(target, &honey, b)?;
        r.set("engine.authority.serve_us", us, "us");
        r.set("engine.authority.serve_rate_per_s", rate, "1/s");
    }

    // The same chain_flood traffic twice: through PipelinedCampaign and
    // through the bare handle. The difference per probe is the
    // scheduler layer.
    let config = ReactorConfig {
        shards: 1,
        ..ReactorConfig::with_policy(flood_policy(), seed)
    };
    let chain = Chain::launch(seed, PLANTED, config)?;
    chain.campaign(2_000, None);
    let handle = chain.transport.reactor().handle();
    let probes = 10_000u64;
    let (mut pipelined, mut bare) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while pipelined.len() < 2 || started.elapsed() < b.per_timing * 8 {
        let t = Instant::now();
        let report = chain.campaign(probes as usize, None);
        pipelined.push(t.elapsed().as_nanos() as f64 / 1e3 / report.answered().max(1) as f64);
        scratch.reset();
        let mut generator = ClosedLoop::new(&handle, None, &chain.session.honey);
        generator.window = WINDOW;
        let t = Instant::now();
        let outcome = generator.drive(Stop::Probes(probes), scratch, None, &mut |_| {});
        bare.push(t.elapsed().as_nanos() as f64 / 1e3 / outcome.answered.max(1) as f64);
    }
    r.set(
        "engine.scheduler.pipelined_overhead_us_per_probe",
        median(&pipelined) - median(&bare),
        "us",
    );
    r.set(
        "bench.chain.pipelined_us_per_probe",
        median(&pipelined),
        "us",
    );
    r.set("bench.chain.bare_handle_us_per_probe", median(&bare), "us");
    Ok(())
}

/// Runs every isolated timing and stores it in `report`.
pub fn run(
    report: &mut Report,
    budget: Budget,
    seed: u64,
    scratch: &mut Scratch,
) -> io::Result<()> {
    dns_core(report, budget);
    sysio(report, budget)?;
    engine_parts(report, budget);
    tiers(report, budget);
    serving(report, budget, seed);
    live(report, budget, seed, scratch)
}

/// `ledger.reactor_attributed_share`: the isolated costs of the steps a
/// probe takes through the shard, times how often the workload's own
/// counters say each step ran, over the shard's busy time per probe.
/// What it leaves unattributed is the correlation table, the completion
/// channel and the loop's own bookkeeping, none of which has a public
/// function to time.
pub fn attributed_share(report: &Report, observed_tiers: bool) -> Option<f64> {
    let get = |name: &str| report.get(name);
    let answered_per_s = get("probes_per_s")?;
    let busy_ns_per_probe = get("engine.reactor.busy_share")? * 1e9 / answered_per_s;
    let batch = get("engine.reactor.send_batch_mean")?;
    let by_batch = |prefix: &str| -> Option<f64> {
        let size = if batch < 3.0 {
            1
        } else if batch < 16.0 {
            8
        } else {
            32
        };
        get(&format!("{prefix}.b{size}"))
    };
    let mut ns = get("sysio.ring_push_pop_ns")?
        + get("engine.bufpool.take_give_ns")?
        + get("dns-core.encode_query_ns")?
        + get("engine.timer.schedule_ns")?
        + get("engine.timer.advance_filtered_ns_per_entry")?
        + by_batch("sysio.send_batch_ns_per_dgram")?
        + by_batch("sysio.recv_batch_ns_per_dgram")?
        + get("dns-core.peek_parse_ns")?;
    if observed_tiers {
        ns += 2.0 * get("telemetry.emit_ns")?
            + get("insight.digest_record_ns")?
            + get("pulse.exemplar_record_ns")?
            + get("engine.flight.record_ns")?;
    }
    (busy_ns_per_probe > 0.0).then(|| ns / busy_ns_per_probe)
}
