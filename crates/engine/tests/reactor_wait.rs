//! The shard loop's one blocking wait: it must cost nothing while idle,
//! add (almost) nothing to a measured round trip, and still wake for
//! everything the loop scheduled for itself.
//!
//! The loop blocks in a [`cde_sysio::Poller`] over its sockets, its
//! waker and a timeout taken from the timer wheel and the fault layer's
//! holding pens. Each test here removes all but one of those wake
//! sources and checks the remaining one on its own. Where an assertion
//! depends on the backend observing socket readiness it is made on the
//! native backend only; under `CDE_SYSIO_FALLBACK=1` the same test runs
//! with the portable backend's documented bound instead.
//!
//! The wait is also where the loop learns which sockets to read. The
//! last three tests count what it does with that — passes and receive
//! calls per probe — and check that a reply on a socket the wait did
//! not name is picked up by the next one rather than stranded. A pass
//! also delivers its completions before it waits, which the first test
//! after the ping comparison checks.
//!
//! Lower bounds ("never early", iteration counts) are hard assertions.
//! Upper bounds on elapsed time can be broken by a shared runner
//! descheduling a thread for tens of milliseconds, so each timed
//! scenario runs through [`within_three_tries`]: a loop that is really
//! late is late every time, a noisy neighbour is not.

use cde_dns::{Message, Name, RecordType};
use cde_engine::reactor::{ProbeCompletion, Reactor, ReactorConfig};
use cde_engine::{FlightOptions, RateConfig, RateLimiter, RetryPolicy, TransportReply};
use cde_faults::{DelayFault, FaultPlan};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const INGRESS: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

/// What the loop may add to a round trip at the 80th percentile, µs:
/// its own work plus scheduling noise on a shared runner.
const MARGIN_US: u64 = 150;

/// [`MARGIN_US`] on the native backend; the portable one cannot see a
/// reply land, so its pickup is bounded by its nap on top.
fn pickup_bound_us() -> u64 {
    if readiness_driven() {
        MARGIN_US
    } else {
        MARGIN_US + cde_sysio::poll::FALLBACK_NAP.as_micros() as u64
    }
}

/// Whether the wait can see a datagram land (see the module docs).
fn readiness_driven() -> bool {
    cde_sysio::backend() != "fallback"
}

fn policy(attempts: u32, timeout_ms: u64) -> RetryPolicy {
    RetryPolicy {
        attempts,
        timeout: Duration::from_millis(timeout_ms),
        backoff: 1.0,
        base_delay: Duration::from_millis(1),
        jitter: 0.0,
    }
}

/// A UDP responder that answers its `n`-th query after holding it for
/// `hold(n)`, and records when each query arrived.
struct Responder {
    addr: SocketAddr,
    arrivals: Arc<Mutex<Vec<Instant>>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Responder {
    /// Runs `serve(socket, stop, arrivals)` on a thread of its own. The
    /// socket's reads time out every 50 ms so `stop` is seen.
    fn spawn(
        serve: impl FnOnce(UdpSocket, &AtomicBool, &Mutex<Vec<Instant>>) + Send + 'static,
    ) -> Responder {
        let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        socket
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let addr = socket.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let arrivals = Arc::new(Mutex::new(Vec::new()));
        let thread = std::thread::spawn({
            let stop = Arc::clone(&stop);
            let arrivals = Arc::clone(&arrivals);
            move || serve(socket, &stop, &arrivals)
        });
        Responder {
            addr,
            arrivals,
            stop,
            thread: Some(thread),
        }
    }

    fn launch(hold: fn(usize) -> Duration) -> Responder {
        Responder::spawn(move |socket, stop, arrivals| {
            let mut buf = [0u8; 2048];
            let mut served = 0;
            while !stop.load(Ordering::SeqCst) {
                let Ok((len, peer)) = socket.recv_from(&mut buf) else {
                    continue;
                };
                let arrived = Instant::now();
                arrivals.lock().unwrap().push(arrived);
                let hold = hold(served);
                served += 1;
                let Ok(query) = Message::decode(&buf[..len]) else {
                    continue;
                };
                let reply = Message::response_to(&query).encode().unwrap();
                // Sleep through most of the hold (a responder that
                // spins through all of it takes a core from the loop
                // under test on a two-core runner), then spin the
                // last stretch: the hold has to be the same to a few
                // microseconds for both clients it is compared
                // across.
                if let Some(coarse) = hold.checked_sub(Duration::from_micros(300)) {
                    std::thread::sleep(coarse);
                }
                while arrived.elapsed() < hold {
                    std::hint::spin_loop();
                }
                let _ = socket.send_to(&reply, peer);
            }
        })
    }

    /// Answers each query the moment the *next* one arrives — and the
    /// last one once a whole read timeout has gone by in silence.
    fn launch_one_behind() -> Responder {
        Responder::spawn(|socket, stop, arrivals| {
            let mut buf = [0u8; 2048];
            let mut held: Option<(Vec<u8>, SocketAddr)> = None;
            while !stop.load(Ordering::SeqCst) {
                let query = socket.recv_from(&mut buf).ok();
                if query.is_some() {
                    arrivals.lock().unwrap().push(Instant::now());
                }
                if let Some((reply, peer)) = held.take() {
                    let _ = socket.send_to(&reply, peer);
                }
                held = query.and_then(|(len, peer)| {
                    let query = Message::decode(&buf[..len]).ok()?;
                    Some((Message::response_to(&query).encode().unwrap(), peer))
                });
            }
        })
    }

    fn arrivals(&self) -> Vec<Instant> {
        self.arrivals.lock().unwrap().clone()
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn launch(target: SocketAddr, config: ReactorConfig) -> Reactor {
    Reactor::launch(HashMap::from([(INGRESS, target)]), config).unwrap()
}

fn qname(i: usize) -> Name {
    format!("w{i}.cache.example").parse().unwrap()
}

fn submit(reactor: &Reactor, token: u64, done: &Sender<ProbeCompletion>) {
    assert!(reactor
        .handle()
        .submit(token, INGRESS, qname(token as usize), RecordType::A, done));
}

fn complete(done: &Receiver<ProbeCompletion>) -> ProbeCompletion {
    done.recv_timeout(Duration::from_secs(10))
        .expect("probe never completed")
}

/// The next completion's reported round trip, µs; panics unless it is
/// probe `token`, answered.
fn answered_rtt_us(done: &Receiver<ProbeCompletion>, token: u64) -> u64 {
    let completion = complete(done);
    assert_eq!(completion.token, token);
    match completion.reply {
        TransportReply::Answered {
            latency: Some(l), ..
        } => l.as_micros(),
        other => panic!("probe {token}: {other:?}"),
    }
}

/// Runs a timed scenario up to three times; passes on the first `Ok`.
fn within_three_tries(mut scenario: impl FnMut() -> Result<(), String>) {
    let failures: Vec<String> = (0..3).map_while(|_| scenario().err()).collect();
    assert!(failures.len() < 3, "late on every try: {failures:#?}");
}

/// `Ok` when `took` is no more than `slack` past `due`; panics when it
/// is more than `early` before it — a wait never returns early, so
/// that is a wrong deadline rather than noise.
fn on_time(
    what: &str,
    took: Duration,
    due: Duration,
    early: Duration,
    slack: Duration,
) -> Result<(), String> {
    assert!(took + early >= due, "{what}: {took:?}, due at {due:?}");
    if took <= due + slack {
        Ok(())
    } else {
        Err(format!("{what}: {took:?}, due at {due:?}"))
    }
}

/// The value four fifths of the way up `xs`.
fn p80(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs[xs.len() * 4 / 5]
}

#[test]
fn idle_reactor_does_not_iterate_and_drops_promptly() {
    // The target is never sent to; it only has to exist.
    let unused = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    within_three_tries(|| {
        let reactor = launch(
            unused.local_addr().unwrap(),
            ReactorConfig::with_policy(policy(1, 100), 7),
        );
        // Let every shard run its first iteration and go to sleep.
        std::thread::sleep(Duration::from_millis(50));
        let before = reactor.metrics().snapshot();
        std::thread::sleep(Duration::from_millis(200));
        let after = reactor.metrics().snapshot();
        let iterations = after.loop_count - before.loop_count;
        let shards = reactor.shards() as u64;
        if readiness_driven() {
            // Nothing in flight, nothing scheduled: no deadline to wake
            // for. (The nap-driven loop did ~10 per shard here.)
            assert!(
                iterations <= shards,
                "{iterations} iterations across {shards} idle shards in 200 ms"
            );
            // …and with no iterations the duty cycle can only fall.
            assert!(after.duty_cycle().unwrap() < before.duty_cycle().unwrap());
        } else {
            let naps = 200_000 / cde_sysio::poll::FALLBACK_NAP.as_micros() as u64;
            assert!(iterations <= 2 * naps * shards, "{iterations} iterations");
        }
        // The waits still in progress are visible as parked time: an
        // idle reactor's duty cycle does not freeze at its last value.
        let parked = after.parked_us - before.parked_us;
        assert!(
            parked >= 150_000 * shards,
            "only {parked} µs parked across {shards} shards in 200 ms"
        );
        // Shutdown reaches a loop blocked without a deadline at once
        // (the nap-driven loop bounded this with a 20 ms idle park).
        let start = Instant::now();
        drop(reactor);
        on_time(
            "drop of an idle reactor",
            start.elapsed(),
            Duration::ZERO,
            Duration::ZERO,
            Duration::from_millis(5),
        )
    });
}

/// What the event loop adds to a round trip, against a plain blocking
/// socket talking to the same responder.
///
/// The responder holds every reply about 2 ms, so the loop is idle —
/// blocked in its wait — when the reply lands. A loop that naps instead
/// picks the reply up when the nap in progress ends. The holds step
/// through a window as wide as the 500 µs nap (plus timer slack) this
/// wait replaced, so whatever phase such a loop's naps fall into, what
/// it adds beyond the hold is spread over a whole nap. The comparison is
/// made at the 80th percentile of that addition: a napping loop shows
/// most of a nap there (~300 µs) on any host, whereas its median depends
/// on how punctually the host fires a halted CPU's timer. Blocking in
/// `recv` and blocking in the poller are woken by the same kernel path,
/// so the margin covers only the loop's own work plus scheduling noise
/// on a shared runner.
#[test]
fn reported_rtt_is_within_a_margin_of_a_blocking_ping() {
    const PROBES: usize = 120;
    // Both clients send whole multiples of the 8-step schedule, so probe
    // `i` of either is held `hold(i)`.
    fn hold(n: usize) -> Duration {
        Duration::from_micros(2000 + 70 * (n as u64 % 8))
    }
    /// 80th percentile of what each round trip took beyond its hold, µs.
    fn added(rtts: impl Iterator<Item = u64>) -> u64 {
        p80(rtts
            .enumerate()
            .map(|(i, rtt)| rtt.saturating_sub(hold(i).as_micros() as u64))
            .collect())
    }
    let responder = Responder::launch(hold);
    let reactor = launch(
        responder.addr,
        ReactorConfig {
            shards: 1,
            ..ReactorConfig::with_policy(policy(1, 500), 11)
        },
    );
    let (done_tx, done_rx) = unbounded();
    let client = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let mut buf = [0u8; 2048];
    let bound = pickup_bound_us();
    within_three_tries(|| {
        let blocking = added((0..PROBES).map(|i| {
            let question = cde_dns::Question::new(qname(i), RecordType::A);
            let query = Message::query(i as u16, question).encode().unwrap();
            let start = Instant::now();
            client.send_to(&query, responder.addr).unwrap();
            client.recv_from(&mut buf).expect("blocking ping timed out");
            start.elapsed().as_micros() as u64
        }));
        let reported = added((0..PROBES).map(|i| {
            submit(&reactor, i as u64, &done_tx);
            answered_rtt_us(&done_rx, i as u64)
        }));
        if reported <= blocking + bound {
            Ok(())
        } else {
            Err(format!(
                "p80 added to the hold: {reported} µs reported vs {blocking} µs by a blocking ping"
            ))
        }
    });
}

/// A pass queues its completions and delivers them, one push per
/// channel, before it waits. The responder stays silent for 5 ms, so
/// the loop is blocked when the reply lands; after the pass that reads
/// it, the next wait has nothing to end it — the probe's 10 s deadline
/// left the wheel with the probe — so a completion held until that
/// wait ends would arrive only with the next submission, which this
/// test makes only once it has the completion.
#[test]
fn lone_completion_is_delivered_before_the_next_wait() {
    const HOLD: Duration = Duration::from_millis(5);
    let responder = Responder::launch(|_| HOLD);
    let bound = HOLD + Duration::from_millis(10) + Duration::from_micros(pickup_bound_us());
    within_three_tries(|| {
        let reactor = launch(
            responder.addr,
            ReactorConfig {
                shards: 1,
                ..ReactorConfig::with_policy(policy(1, 10_000), 3)
            },
        );
        let (done_tx, done_rx) = unbounded();
        for token in 0..5 {
            let submitted = Instant::now();
            submit(&reactor, token, &done_tx);
            answered_rtt_us(&done_rx, token);
            let took = submitted.elapsed();
            if took > bound {
                return Err(format!("probe {token} completed after {took:?}"));
            }
        }
        Ok(())
    });
}

#[test]
fn rate_limited_send_fires_on_its_tick_with_nothing_else_waking_the_loop() {
    // One token every 50 ms and no burst: a probe submitted right after
    // the first was answered is scheduled 50 ms behind it, and with
    // nothing in flight that Send timer is the loop's only wake source.
    let spacing = Duration::from_millis(50);
    within_three_tries(|| {
        let responder = Responder::launch(|_| Duration::ZERO);
        let limiter = Arc::new(RateLimiter::new(
            RateConfig {
                per_second: 20.0,
                burst: 1.0,
            },
            None,
        ));
        let reactor = launch(
            responder.addr,
            ReactorConfig {
                shards: 1,
                limiter: Some(limiter),
                flight: Some(FlightOptions::default()),
                ..ReactorConfig::with_policy(policy(1, 500), 13)
            },
        );
        let (done_tx, done_rx) = unbounded();
        for token in 0..2 {
            submit(&reactor, token, &done_tx);
            assert!(matches!(
                complete(&done_rx).reply,
                TransportReply::Answered { .. }
            ));
        }
        // The engine's own send stamps, on one time base: the first
        // datagram's trip to the responder is not part of the interval.
        let records = reactor.flight().expect("flight configured").snapshot();
        let sent_at_us = |token: u64| {
            records
                .iter()
                .find(|r| r.token == token)
                .expect("every answered probe is recorded")
                .sent_at_us
        };
        // Early by at most two ticks: the wheel counts whole
        // milliseconds, and so does the wait it is asked for.
        on_time(
            "second send after the first",
            Duration::from_micros(sent_at_us(1).saturating_sub(sent_at_us(0))),
            spacing,
            Duration::from_millis(2),
            Duration::from_millis(3),
        )
    });
}

#[test]
fn fault_layer_delays_release_on_their_tick_with_nothing_else_waking_the_loop() {
    // Every datagram, in both directions, is held 20 ms by the fault
    // layer: the query sits in `delayed_out`, the reply in `delayed_in`,
    // and while each sits there its due tick is the loop's only wake
    // source (the probe's own deadline is 500 ms away).
    let hold = Duration::from_millis(20);
    within_three_tries(|| {
        let responder = Responder::launch(|_| Duration::ZERO);
        let reactor = launch(
            responder.addr,
            ReactorConfig {
                faults: Some(FaultPlan {
                    delay: Some(DelayFault {
                        jitter: Duration::ZERO,
                        spike_rate: 1.0,
                        spike: hold,
                    }),
                    ..FaultPlan::clean(17)
                }),
                ..ReactorConfig::with_policy(policy(1, 500), 17)
            },
        );
        let (done_tx, done_rx) = unbounded();
        let start = Instant::now();
        submit(&reactor, 0, &done_tx);
        assert!(matches!(
            complete(&done_rx).reply,
            TransportReply::Answered { .. }
        ));
        let took = start.elapsed();
        let outbound = responder.arrivals()[0] - start;
        // Each hold may end a tick early: due ticks are whole
        // milliseconds since the loop started.
        on_time(
            "query reached the wire",
            outbound,
            hold,
            Duration::from_millis(1),
            Duration::from_millis(3),
        )?;
        on_time(
            "probe completed",
            took,
            2 * hold,
            Duration::from_millis(2),
            Duration::from_millis(5),
        )
    });
}

/// The wait names the sockets to read, so a paced probe costs the loop
/// two passes (submission → send, reply → match) and one receive call,
/// however many sockets the shard owns. A loop that sweeps every socket
/// on every pass, and follows each productive pass with an empty one
/// before it may block, does ~3.3 passes and ~26 calls here.
#[test]
fn paced_probe_costs_two_passes_and_one_receive_call() {
    const PROBES: u64 = 200;
    let responder = Responder::launch(|_| Duration::from_millis(1));
    let reactor = launch(
        responder.addr,
        ReactorConfig {
            shards: 1,
            ..ReactorConfig::with_policy(policy(1, 500), 19)
        },
    );
    let (done_tx, done_rx) = unbounded();
    // The loop's first pass knows nothing yet and sweeps: let it go by.
    std::thread::sleep(Duration::from_millis(50));
    let before = reactor.metrics().snapshot();
    for token in 0..PROBES {
        submit(&reactor, token, &done_tx);
        std::thread::sleep(Duration::from_millis(2));
    }
    for _ in 0..PROBES {
        assert!(matches!(
            complete(&done_rx).reply,
            TransportReply::Answered { .. }
        ));
    }
    let after = reactor.metrics().snapshot();
    let passes = after.loop_count - before.loop_count;
    let calls = after.recv_calls - before.recv_calls;
    let empty = after.recv_empty - before.recv_empty;
    // A call that returned anything returned at least one of the replies.
    assert!(calls - empty <= PROBES, "{calls} calls, {empty} empty");
    if readiness_driven() {
        assert!(2 * calls <= 3 * PROBES, "{calls} receive calls");
        assert!(2 * passes <= 5 * PROBES, "{passes} passes");
        assert!(
            empty as f64 <= 0.35 * calls as f64,
            "{empty} of {calls} receive calls came back empty"
        );
    }
}

/// Replies that land on a socket the wait did not name, while the loop
/// is in a pass that has work of its own: probe k is answered the moment
/// probe k+1 reaches the responder, so its reply arrives — on another
/// socket of the rotation — as the loop finishes the pass that sent
/// k+1, a pass begun by the waker with no socket to read. Nothing but
/// the next wait can hand that reply to the loop; a loop that slept on
/// it would report the 2 ms to the next submission as round-trip time,
/// and leave the last reply to its 2 s deadline.
#[test]
fn reply_on_an_unreported_socket_during_a_productive_pass_is_not_stranded() {
    const PROBES: usize = 120;
    within_three_tries(|| {
        let responder = Responder::launch_one_behind();
        let reactor = launch(
            responder.addr,
            ReactorConfig {
                shards: 1,
                sockets: 4,
                ..ReactorConfig::with_policy(policy(1, 2000), 23)
            },
        );
        let (done_tx, done_rx) = unbounded();
        let mut rtts = Vec::with_capacity(PROBES);
        for i in 0..PROBES {
            submit(&reactor, i as u64, &done_tx);
            if let Some(answered) = i.checked_sub(1) {
                rtts.push(answered_rtt_us(&done_rx, answered as u64));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // The last one waits out the responder's 50 ms of silence.
        answered_rtt_us(&done_rx, PROBES as u64 - 1);
        assert_eq!(reactor.metrics().snapshot().timeouts, 0);
        // Probe k was held from its own arrival until probe k+1's.
        let arrivals = responder.arrivals();
        let added = p80(rtts
            .iter()
            .zip(arrivals.windows(2))
            .map(|(rtt, pair)| rtt.saturating_sub((pair[1] - pair[0]).as_micros() as u64))
            .collect());
        if added <= pickup_bound_us() {
            Ok(())
        } else {
            Err(format!("p80 added to the hold: {added} µs"))
        }
    });
}

#[test]
fn wait_ended_by_the_waker_or_a_timer_reads_no_socket() {
    // A target that exists and never answers: the probe's life is one
    // wake by the submitter and one by its 50 ms deadline.
    let silent = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let reactor = launch(
        silent.local_addr().unwrap(),
        ReactorConfig {
            shards: 1,
            ..ReactorConfig::with_policy(policy(1, 50), 29)
        },
    );
    let (done_tx, done_rx) = unbounded();
    std::thread::sleep(Duration::from_millis(50));
    let before = reactor.metrics().snapshot();
    submit(&reactor, 0, &done_tx);
    assert_eq!(complete(&done_rx).reply, TransportReply::TimedOut);
    // Sent, so the waker's pass ran; timed out, so the timer's did.
    let after = reactor.metrics().snapshot();
    assert_eq!(after.sent - before.sent, 1);
    if readiness_driven() {
        assert_eq!(after.recv_calls, before.recv_calls);
    }
}
