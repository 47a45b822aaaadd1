//! The wire authority: CDE nameservers on real loopback sockets.
//!
//! The paper's infrastructure is a set of authoritative nameservers whose
//! query logs *are* the measurement (§IV-A). [`WireAuthority`] lifts a
//! simulated [`NameserverNet`] onto real UDP sockets: every virtual server
//! address (`10.0.0.x`) gets its own `127.0.0.1:port` socket, answering
//! with `cde-dns` wire encoding and recording the source of every query it
//! sees. Observed queries stream back over a channel so the canonical net
//! — the one the measurement algorithms read — stays the single source of
//! truth.
//!
//! One thread serves every socket. It blocks in a [`cde_sysio::Poller`]
//! wait until a query lands or `Drop` fires the waker, so an idle
//! authority costs no wake-ups. Answers held back by an upstream delay
//! queue in arrival order, and the oldest one's due time is the wait's
//! timeout: one server's hold never delays another server's answers.
//!
//! Hermetic by construction: loopback only, ephemeral ports, no fixtures.

use crate::clock::EngineClock;
use cde_dns::{Edns, Message};
use cde_platform::{AuthServer, NameserverNet, QueryLogEntry};
use cde_sysio::{Poller, Waker};
use crossbeam::channel::{bounded, unbounded, Receiver, SendError, Sender};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Largest datagram a server reads (standard EDNS buffer size).
const MAX_DATAGRAM: usize = 4096;
/// Capacity of the observation back-channels. A pipelined campaign can
/// produce observations far faster than the measurement thread drains
/// them; the bound turns that into drop-oldest instead of unbounded
/// memory growth.
pub(crate) const OBS_QUEUE_CAP: usize = 1 << 16;

/// One observed query: which virtual server saw it, and the log entry.
pub type Observation = (Ipv4Addr, QueryLogEntry);

/// Producer half of a bounded observation queue with drop-oldest
/// overflow: when the consumer falls behind, the *stalest* observation is
/// evicted (and counted) rather than blocking a serving thread or growing
/// without bound.
#[derive(Clone)]
pub(crate) struct ObsSender {
    tx: Sender<Observation>,
    rx: Receiver<Observation>,
    dropped: Arc<AtomicU64>,
}

impl ObsSender {
    pub(crate) fn push(&self, obs: Observation) {
        match self.tx.try_send(obs) {
            Ok(()) => {}
            Err(SendError(obs)) => {
                // Full (or the consumer is gone): evict the oldest entry
                // and retry once. Whatever ends up lost is counted.
                let evicted = self.rx.try_recv().is_ok();
                let requeued = self.tx.try_send(obs).is_ok();
                let lost = u64::from(evicted) + u64::from(!requeued);
                if lost > 0 {
                    self.dropped.fetch_add(lost, Ordering::Relaxed);
                }
            }
        }
    }
}

/// Builds a bounded observation queue; returns the producer handle, the
/// consumer end and the dropped-observation counter.
pub(crate) fn obs_queue(cap: usize) -> (ObsSender, Receiver<Observation>, Arc<AtomicU64>) {
    let (tx, rx) = bounded(cap);
    let dropped = Arc::new(AtomicU64::new(0));
    (
        ObsSender {
            tx,
            rx: rx.clone(),
            dropped: Arc::clone(&dropped),
        },
        rx,
        dropped,
    )
}

enum Control {
    /// Replace the zone snapshot served at this socket index.
    Sync(usize, AuthServer),
}

/// Clone-able handle pushing zone snapshots to the serving thread.
#[derive(Clone)]
pub struct AuthoritySync {
    ctl: Sender<Control>,
    /// Virtual server address → its socket's index in the serving loop.
    index: Arc<HashMap<Ipv4Addr, usize>>,
}

impl AuthoritySync {
    /// Ships a fresh snapshot of every matching server in `net` to the
    /// serving thread. Servers in `net` without a socket are ignored.
    pub fn sync(&self, net: &NameserverNet) {
        for server in net.servers() {
            if let Some(&i) = self.index.get(&server.addr()) {
                let mut snapshot = server.clone();
                snapshot.clear_log();
                let _ = self.ctl.send(Control::Sync(i, snapshot));
            }
        }
    }
}

/// Clone-able handle registering local source ports as virtual egresses.
#[derive(Clone)]
pub struct SourceRegistrar {
    map: Arc<Mutex<HashMap<u16, Ipv4Addr>>>,
}

impl SourceRegistrar {
    /// Marks queries from local `port` as coming from virtual `egress`.
    pub fn register(&self, port: u16, egress: Ipv4Addr) {
        self.map.lock().insert(port, egress);
    }
}

/// A farm of authoritative nameservers on loopback UDP sockets.
pub struct WireAuthority {
    addrs: HashMap<Ipv4Addr, SocketAddr>,
    sync: AuthoritySync,
    obs_rx: Receiver<Observation>,
    obs_dropped: Arc<AtomicU64>,
    source_map: Arc<Mutex<HashMap<u16, Ipv4Addr>>>,
    served: Arc<AtomicU64>,
    /// Serve-loop passes started; an idle authority adds none.
    passes: Arc<AtomicU64>,
    shutdown: Arc<AtomicBool>,
    /// Ends the serving thread's wait so `Drop` joins promptly.
    waker: Waker,
    handle: Option<JoinHandle<()>>,
}

impl WireAuthority {
    /// Binds one loopback socket per server in `net` and starts serving
    /// snapshots of their zones.
    pub fn launch(net: &NameserverNet, clock: EngineClock) -> io::Result<WireAuthority> {
        WireAuthority::launch_with_delay(net, clock, Duration::ZERO)
    }

    /// Like [`WireAuthority::launch`], but every answer is held back by
    /// `delay` before it goes on the wire — a stand-in for upstream
    /// (authority-side) network distance. In the live chain only cache
    /// *misses* reach the authority, so a visible delay here is exactly
    /// what makes the §IV-B3 timing side channel measurable on loopback:
    /// hits answer in internal-hop time, misses pay `delay`.
    pub fn launch_with_delay(
        net: &NameserverNet,
        clock: EngineClock,
        delay: Duration,
    ) -> io::Result<WireAuthority> {
        let mut addrs = HashMap::new();
        let mut index = HashMap::new();
        let mut sockets = Vec::new();
        let mut servers = Vec::new();
        for server in net.servers() {
            let vaddr = server.addr();
            let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
            socket.set_nonblocking(true)?;
            addrs.insert(vaddr, socket.local_addr()?);
            index.insert(vaddr, sockets.len());
            sockets.push(socket);
            let mut snapshot = server.clone();
            snapshot.clear_log();
            servers.push(snapshot);
        }
        let poller = Poller::new(sockets)?;
        let waker = poller.waker();
        let (ctl_tx, ctl_rx) = unbounded();
        let (obs_tx, obs_rx, obs_dropped) = obs_queue(OBS_QUEUE_CAP);
        let source_map: Arc<Mutex<HashMap<u16, Ipv4Addr>>> = Arc::new(Mutex::new(HashMap::new()));
        let served = Arc::new(AtomicU64::new(0));
        let passes = Arc::new(AtomicU64::new(0));
        let shutdown = Arc::new(AtomicBool::new(false));
        let handle = std::thread::spawn({
            let serving = Serving {
                servers,
                ctl_rx,
                obs_tx,
                source_map: Arc::clone(&source_map),
                served: Arc::clone(&served),
                clock,
                delay,
            };
            let passes = Arc::clone(&passes);
            let shutdown = Arc::clone(&shutdown);
            move || serving.run(poller, &passes, &shutdown)
        });
        Ok(WireAuthority {
            addrs,
            sync: AuthoritySync {
                ctl: ctl_tx,
                index: Arc::new(index),
            },
            obs_rx,
            obs_dropped,
            source_map,
            served,
            passes,
            shutdown,
            waker,
            handle: Some(handle),
        })
    }

    /// The real socket serving virtual server `vaddr`, if any.
    pub fn addr_of(&self, vaddr: Ipv4Addr) -> Option<SocketAddr> {
        self.addrs.get(&vaddr).copied()
    }

    /// Virtual-address → real-socket table for all served nameservers.
    pub fn addrs(&self) -> &HashMap<Ipv4Addr, SocketAddr> {
        &self.addrs
    }

    /// Zone-snapshot push handle (clone-able, thread-safe).
    pub fn syncer(&self) -> AuthoritySync {
        self.sync.clone()
    }

    /// Source-port registration handle (clone-able, thread-safe).
    pub fn registrar(&self) -> SourceRegistrar {
        SourceRegistrar {
            map: Arc::clone(&self.source_map),
        }
    }

    /// Registers the owner of a local source `port` as virtual address
    /// `egress`, so the servers attribute that client's queries to the
    /// platform egress it stands in for.
    pub fn register_source(&self, port: u16, egress: Ipv4Addr) {
        self.source_map.lock().insert(port, egress);
    }

    /// Total well-formed queries answered across all servers.
    pub fn queries_served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Observations evicted because the bounded back-channel overflowed
    /// (the consumer fell behind by more than the queue capacity).
    pub fn dropped_observations(&self) -> u64 {
        self.obs_dropped.load(Ordering::Relaxed)
    }

    /// Drains observed queries into the canonical `net`'s logs; returns
    /// how many entries were folded in.
    pub fn drain_observations(&self, net: &mut NameserverNet) -> usize {
        let mut n = 0;
        for (vaddr, entry) in self.obs_rx.try_iter() {
            if let Some(server) = net.server_mut(vaddr) {
                server.record_query(entry);
                n += 1;
            }
        }
        n
    }
}

impl Drop for WireAuthority {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.force_wake();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WireAuthority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireAuthority")
            .field("addrs", &self.addrs)
            .field("queries_served", &self.queries_served())
            .field("passes", &self.passes.load(Ordering::Relaxed))
            .finish()
    }
}

/// An answer held back by the upstream delay until `due`.
struct Held {
    due: Instant,
    /// Index of the socket that received the query.
    socket: usize,
    peer: SocketAddr,
    bytes: Vec<u8>,
}

/// Everything the serving thread owns besides its poller. `servers[i]`
/// is the zone snapshot answered at the poller's socket `i`.
struct Serving {
    servers: Vec<AuthServer>,
    ctl_rx: Receiver<Control>,
    obs_tx: ObsSender,
    source_map: Arc<Mutex<HashMap<u16, Ipv4Addr>>>,
    served: Arc<AtomicU64>,
    clock: EngineClock,
    delay: Duration,
}

impl Serving {
    /// The serving thread's loop: read every socket the wait reported
    /// until it would block, send the held answers that are due, then
    /// block until a query lands, the oldest held answer falls due, or
    /// `Drop` fires the waker.
    fn run(mut self, mut poller: Poller, passes: &AtomicU64, shutdown: &AtomicBool) {
        let mut buf = [0u8; MAX_DATAGRAM];
        // One constant delay keeps due times in arrival order, so the
        // front of the queue is always the next answer due.
        let mut held: VecDeque<Held> = VecDeque::new();
        while !shutdown.load(Ordering::SeqCst) {
            passes.fetch_add(1, Ordering::Relaxed);
            for (i, socket) in poller.sockets().iter().enumerate() {
                // Only the sockets the last wait reported — all of them
                // when it could not say (see `Poller::ready`).
                if !poller.ready(i) {
                    continue;
                }
                while let Ok((len, peer)) = socket.recv_from(&mut buf) {
                    let Some(bytes) = self.answer(i, &buf[..len], peer) else {
                        continue;
                    };
                    if self.delay.is_zero() {
                        let _ = socket.send_to(&bytes, peer);
                    } else {
                        // Injected upstream distance: the answer leaves
                        // as if the authority were a real network away.
                        held.push_back(Held {
                            due: Instant::now() + self.delay,
                            socket: i,
                            peer,
                            bytes,
                        });
                    }
                }
            }
            let now = Instant::now();
            while let Some(answer) = held.front().filter(|h| h.due <= now) {
                let _ = poller.sockets()[answer.socket].send_to(&answer.bytes, answer.peer);
                held.pop_front();
            }
            let timeout = held
                .front()
                .map(|h| h.due.saturating_duration_since(Instant::now()));
            poller.wait(timeout, || false);
        }
    }

    /// Answers one datagram read at socket `i`; `None` for anything that
    /// is not a well-formed query.
    fn answer(&mut self, i: usize, datagram: &[u8], peer: SocketAddr) -> Option<Vec<u8>> {
        // Zone edits before the query just read, so a snapshot pushed
        // before a probe was sent is always visible to that probe — even
        // one pushed while this pass was reading other sockets.
        while let Ok(Control::Sync(j, snapshot)) = self.ctl_rx.try_recv() {
            self.servers[j] = snapshot;
        }
        // Untrusted bytes: decode errors are dropped, never panic (the
        // hardened `cde_dns::wire` path is load-bearing here).
        let query = Message::decode(datagram).ok()?;
        if query.is_response() {
            return None;
        }
        let question = query.question()?;
        let edns = query.additionals.iter().find_map(Edns::from_record);
        let from = attribute_source(peer, &self.source_map);
        let server = &mut self.servers[i];
        let mut resp = server.handle_with_edns(from, question, edns, self.clock.now());
        resp.id = query.id;
        if let Some(entry) = server.log().last().cloned() {
            self.obs_tx.push((server.addr(), entry));
        }
        // The thread-local log only buffers the entry until it is streamed;
        // the canonical log lives with the measurement code.
        server.clear_log();
        // Count before sending, so the counter is never behind a response
        // a client has already received.
        self.served.fetch_add(1, Ordering::Relaxed);
        resp.encode().ok()
    }
}

/// Maps a real peer to the virtual address it stands in for: registered
/// source ports resolve to their platform egress, everything else keeps
/// its real (loopback) address.
fn attribute_source(peer: SocketAddr, source_map: &Mutex<HashMap<u16, Ipv4Addr>>) -> Ipv4Addr {
    if let Some(&egress) = source_map.lock().get(&peer.port()) {
        return egress;
    }
    match peer {
        SocketAddr::V4(v4) => *v4.ip(),
        SocketAddr::V6(_) => Ipv4Addr::LOCALHOST,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cde_dns::{Name, Question, RData, Rcode, Record, RecordType, Ttl, Zone};

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn test_net() -> NameserverNet {
        let mut zone = Zone::with_soa(n("cache.example"), Ttl::from_secs(300));
        zone.add(Record::new(
            n("name.cache.example"),
            Ttl::from_secs(3600),
            RData::A(Ipv4Addr::new(198, 51, 100, 4)),
        ))
        .unwrap();
        let mut net = NameserverNet::new();
        net.add_server(AuthServer::new(
            Ipv4Addr::new(10, 0, 0, 20),
            vec![zone.clone()],
        ));
        net.add_server(AuthServer::new(Ipv4Addr::new(10, 0, 0, 21), vec![zone]));
        net
    }

    /// Whether the poller's wait can see a datagram land; the portable
    /// backend (`CDE_SYSIO_FALLBACK=1`) naps instead.
    fn readiness_driven() -> bool {
        cde_sysio::backend() != "fallback"
    }

    /// Runs a timed scenario up to three times; passes on the first `Ok`.
    /// A shared runner can deschedule a thread for tens of milliseconds,
    /// so lateness is retried; a loop that is really late is late every
    /// time.
    fn within_three_tries(mut scenario: impl FnMut() -> Result<(), String>) {
        let failures: Vec<String> = (0..3).map_while(|_| scenario().err()).collect();
        assert!(failures.len() < 3, "late on every try: {failures:#?}");
    }

    fn ask(addr: SocketAddr, id: u16, qname: &Name) -> Option<Message> {
        let sock = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let query = Message::query(id, Question::new(qname.clone(), RecordType::A));
        sock.send_to(&query.encode().unwrap(), addr).unwrap();
        let mut buf = [0u8; MAX_DATAGRAM];
        let (len, _) = sock.recv_from(&mut buf).ok()?;
        Message::decode(&buf[..len]).ok()
    }

    #[test]
    fn serves_zone_data_over_real_udp() {
        let mut net = test_net();
        let authority = WireAuthority::launch(&net, EngineClock::start()).unwrap();
        let addr = authority.addr_of(Ipv4Addr::new(10, 0, 0, 20)).unwrap();
        let resp = ask(addr, 0x5a5a, &n("name.cache.example")).unwrap();
        assert_eq!(resp.id, 0x5a5a);
        assert!(resp.flags.qr && resp.flags.aa);
        assert_eq!(resp.answers.len(), 1);
        // The observation lands in the canonical net.
        assert_eq!(authority.drain_observations(&mut net), 1);
        let server = net.server(Ipv4Addr::new(10, 0, 0, 20)).unwrap();
        assert_eq!(server.count_queries_for(&n("name.cache.example")), 1);
        assert_eq!(authority.queries_served(), 1);
    }

    #[test]
    fn records_registered_virtual_sources() {
        let mut net = test_net();
        let authority = WireAuthority::launch(&net, EngineClock::start()).unwrap();
        let addr = authority.addr_of(Ipv4Addr::new(10, 0, 0, 20)).unwrap();
        let sock = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let egress = Ipv4Addr::new(192, 0, 3, 7);
        authority.register_source(sock.local_addr().unwrap().port(), egress);
        let query = Message::query(1, Question::new(n("name.cache.example"), RecordType::A));
        sock.send_to(&query.encode().unwrap(), addr).unwrap();
        let mut buf = [0u8; MAX_DATAGRAM];
        sock.recv_from(&mut buf).unwrap();
        authority.drain_observations(&mut net);
        let server = net.server(Ipv4Addr::new(10, 0, 0, 20)).unwrap();
        assert_eq!(server.sources_for(&n("name.cache.example")), vec![egress]);
    }

    #[test]
    fn zone_sync_makes_new_records_visible() {
        let mut net = test_net();
        let authority = WireAuthority::launch(&net, EngineClock::start()).unwrap();
        let addr = authority.addr_of(Ipv4Addr::new(10, 0, 0, 20)).unwrap();
        let honey = n("honey-77.cache.example");
        // Before the sync: NXDOMAIN.
        let resp = ask(addr, 2, &honey).unwrap();
        assert_eq!(resp.flags.rcode, Rcode::NxDomain);
        // Plant the record in the canonical net, push a snapshot.
        net.server_mut(Ipv4Addr::new(10, 0, 0, 20))
            .unwrap()
            .zone_mut(&n("cache.example"))
            .unwrap()
            .add(Record::new(
                honey.clone(),
                Ttl::from_secs(60),
                RData::A(Ipv4Addr::new(198, 51, 100, 9)),
            ))
            .unwrap();
        authority.syncer().sync(&net);
        let resp = ask(addr, 3, &honey).unwrap();
        assert_eq!(resp.flags.rcode, Rcode::NoError);
        assert_eq!(resp.answers.len(), 1);
    }

    #[test]
    fn bounded_obs_queue_drops_oldest_and_counts() {
        let (tx, rx, dropped) = obs_queue(2);
        let entry = |tag: u8| {
            (
                Ipv4Addr::new(10, 0, 0, 20),
                QueryLogEntry {
                    at: cde_netsim::SimTime::ZERO,
                    from: Ipv4Addr::new(192, 0, 3, tag),
                    qname: n("name.cache.example"),
                    qtype: RecordType::A,
                    edns: None,
                },
            )
        };
        for tag in 1..=5 {
            tx.push(entry(tag));
        }
        // Capacity 2: the three oldest were evicted, the two newest kept.
        assert_eq!(dropped.load(Ordering::Relaxed), 3);
        let kept: Vec<u8> = rx.try_iter().map(|(_, e)| e.from.octets()[3]).collect();
        assert_eq!(kept, vec![4, 5]);
    }

    #[test]
    fn garbage_datagrams_are_ignored() {
        let net = test_net();
        let authority = WireAuthority::launch(&net, EngineClock::start()).unwrap();
        let addr = authority.addr_of(Ipv4Addr::new(10, 0, 0, 20)).unwrap();
        let sock = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        sock.send_to(&[0xC0, 0x00, 0xFF], addr).unwrap();
        sock.send_to(&[], addr).unwrap();
        // The server survives and still answers real queries.
        let resp = ask(addr, 4, &n("name.cache.example")).unwrap();
        assert_eq!(resp.answers.len(), 1);
        assert_eq!(authority.queries_served(), 1);
    }

    #[test]
    fn idle_authority_makes_no_pass_and_drops_promptly() {
        let net = test_net();
        within_three_tries(|| {
            let authority = WireAuthority::launch(&net, EngineClock::start()).unwrap();
            assert_eq!(authority.addrs().len(), 2);
            // Let the loop run its first pass and go to sleep.
            std::thread::sleep(Duration::from_millis(50));
            let before = authority.passes.load(Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(200));
            let passes = authority.passes.load(Ordering::Relaxed) - before;
            if readiness_driven() {
                // Nothing to read and nothing held: no deadline to wake
                // for. (A thread per server, each waking on a 20 ms read
                // timeout, made ~15 passes here.)
                assert_eq!(passes, 0, "{passes} passes in 200 ms while idle");
            } else {
                let naps = 200_000 / cde_sysio::poll::FALLBACK_NAP.as_micros() as u64;
                assert!(passes <= 2 * naps, "{passes} passes");
            }
            // Shutdown reaches a loop blocked without a deadline at once.
            let start = Instant::now();
            drop(authority);
            let took = start.elapsed();
            if took <= Duration::from_millis(5) {
                Ok(())
            } else {
                Err(format!("drop of an idle authority took {took:?}"))
            }
        });
    }

    #[test]
    fn held_answers_from_two_servers_leave_together() {
        let delay = Duration::from_millis(100);
        let slack = delay / 2;
        let net = test_net();
        within_three_tries(|| {
            let authority =
                WireAuthority::launch_with_delay(&net, EngineClock::start(), delay).unwrap();
            let query = Message::query(7, Question::new(n("name.cache.example"), RecordType::A))
                .encode()
                .unwrap();
            let clients: Vec<UdpSocket> = (0..2)
                .map(|_| UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap())
                .collect();
            let start = Instant::now();
            for (client, addr) in clients.iter().zip(authority.addrs().values()) {
                client.send_to(&query, addr).unwrap();
            }
            let mut buf = [0u8; MAX_DATAGRAM];
            let mut last = Duration::ZERO;
            for client in &clients {
                client
                    .set_read_timeout(Some(Duration::from_secs(2)))
                    .unwrap();
                client.recv_from(&mut buf).unwrap();
                let took = start.elapsed();
                // Each answer is held from its query's arrival, which
                // follows its send: never early.
                assert!(took >= delay, "answered after {took:?}, held {delay:?}");
                last = last.max(took);
            }
            assert_eq!(authority.queries_served(), 2);
            // Holds that queued behind each other would end at 2·delay.
            if last <= delay + slack {
                Ok(())
            } else {
                Err(format!("second answer after {last:?}, held {delay:?}"))
            }
        });
    }
}
