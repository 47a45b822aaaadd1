//! The wire authority: CDE nameservers on real loopback sockets.
//!
//! The paper's infrastructure is a set of authoritative nameservers whose
//! query logs *are* the measurement (§IV-A). [`WireAuthority`] lifts a
//! simulated [`NameserverNet`] onto real UDP sockets: every virtual server
//! address (`10.0.0.x`) gets its own `127.0.0.1:port` socket and serving
//! thread, answering with `cde-dns` wire encoding and recording the source
//! of every query it sees. Observed queries stream back over a channel so
//! the canonical net — the one the measurement algorithms read — stays the
//! single source of truth.
//!
//! Hermetic by construction: loopback only, ephemeral ports, no fixtures.

use crate::clock::EngineClock;
use cde_dns::{Edns, Message};
use cde_platform::{AuthServer, NameserverNet, QueryLogEntry};
use crossbeam::channel::{bounded, unbounded, Receiver, SendError, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Largest datagram a server reads (standard EDNS buffer size).
const MAX_DATAGRAM: usize = 4096;
/// Poll granularity of the serving loops; bounds shutdown latency.
const POLL_TIMEOUT: Duration = Duration::from_millis(20);
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
    /// Replace the served zone snapshot.
    Sync(AuthServer),
}

/// Clone-able handle pushing zone snapshots to the serving threads.
#[derive(Clone)]
pub struct AuthoritySync {
    controls: Arc<HashMap<Ipv4Addr, Sender<Control>>>,
}

impl AuthoritySync {
    /// Ships a fresh snapshot of every matching server in `net` to its
    /// serving thread. Servers in `net` without a socket are ignored.
    pub fn sync(&self, net: &NameserverNet) {
        for server in net.servers() {
            if let Some(ctl) = self.controls.get(&server.addr()) {
                let mut snapshot = server.clone();
                snapshot.clear_log();
                let _ = ctl.send(Control::Sync(snapshot));
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
    shutdown: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
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
        let (obs_tx, obs_rx, obs_dropped) = obs_queue(OBS_QUEUE_CAP);
        let source_map: Arc<Mutex<HashMap<u16, Ipv4Addr>>> = Arc::new(Mutex::new(HashMap::new()));
        let served = Arc::new(AtomicU64::new(0));
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut addrs = HashMap::new();
        let mut controls = HashMap::new();
        let mut handles = Vec::new();

        for server in net.servers() {
            let vaddr = server.addr();
            let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
            socket.set_read_timeout(Some(POLL_TIMEOUT))?;
            addrs.insert(vaddr, socket.local_addr()?);
            let (ctl_tx, ctl_rx) = unbounded();
            controls.insert(vaddr, ctl_tx);
            let mut snapshot = server.clone();
            snapshot.clear_log();
            handles.push(std::thread::spawn({
                let obs_tx = obs_tx.clone();
                let source_map = Arc::clone(&source_map);
                let served = Arc::clone(&served);
                let shutdown = Arc::clone(&shutdown);
                move || {
                    serve(
                        socket, vaddr, snapshot, ctl_rx, obs_tx, source_map, served, shutdown,
                        clock, delay,
                    )
                }
            }));
        }

        Ok(WireAuthority {
            addrs,
            sync: AuthoritySync {
                controls: Arc::new(controls),
            },
            obs_rx,
            obs_dropped,
            source_map,
            served,
            shutdown,
            handles,
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
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WireAuthority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireAuthority")
            .field("addrs", &self.addrs)
            .field("queries_served", &self.queries_served())
            .finish()
    }
}

/// One server's blocking serve loop.
#[allow(clippy::too_many_arguments)]
fn serve(
    socket: UdpSocket,
    vaddr: Ipv4Addr,
    mut server: AuthServer,
    ctl_rx: Receiver<Control>,
    obs_tx: ObsSender,
    source_map: Arc<Mutex<HashMap<u16, Ipv4Addr>>>,
    served: Arc<AtomicU64>,
    shutdown: Arc<AtomicBool>,
    clock: EngineClock,
    delay: Duration,
) {
    let mut buf = [0u8; MAX_DATAGRAM];
    while !shutdown.load(Ordering::SeqCst) {
        let (len, peer) = match socket.recv_from(&mut buf) {
            Ok(ok) => ok,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => continue,
        };
        // Zone edits before the query that just arrived, so a snapshot
        // pushed before a probe was sent is always visible to that probe
        // (this thread was blocked in `recv_from` when it was pushed).
        while let Ok(Control::Sync(snapshot)) = ctl_rx.try_recv() {
            server = snapshot;
        }
        // Untrusted bytes: decode errors are dropped, never panic (the
        // hardened `cde_dns::wire` path is load-bearing here).
        let Ok(query) = Message::decode(&buf[..len]) else {
            continue;
        };
        if query.is_response() {
            continue;
        }
        let Some(question) = query.question() else {
            continue;
        };
        let edns = query.additionals.iter().find_map(Edns::from_record);
        let from = attribute_source(peer, &source_map);
        let mut resp = server.handle_with_edns(from, question, edns, clock.now());
        resp.id = query.id;
        if let Some(entry) = server.log().last().cloned() {
            obs_tx.push((vaddr, entry));
        }
        // The thread-local log only buffers the entry until it is streamed;
        // the canonical log lives with the measurement code.
        server.clear_log();
        // Count before sending, so the counter is never behind a response
        // a client has already received.
        served.fetch_add(1, Ordering::Relaxed);
        if !delay.is_zero() {
            // Injected upstream distance: the whole answer path slows, as
            // if the authority were a real network away.
            std::thread::sleep(delay);
        }
        if let Ok(bytes) = resp.encode() {
            let _ = socket.send_to(&bytes, peer);
        }
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
        net.add_server(AuthServer::new(Ipv4Addr::new(10, 0, 0, 20), vec![zone]));
        net
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
}
