//! The loopback resolver: a resolution platform behind real UDP sockets.
//!
//! [`LoopbackResolver`] stands in for the opaque DNS platform the paper
//! measures from outside. It binds one `127.0.0.1` socket per virtual
//! platform ingress and serves real DNS datagrams, answering from an
//! in-process [`ResolutionPlatform`] (caches, clusters, selectors — the
//! machinery under test). Every upstream query the platform makes is
//! *replayed* over real UDP to a [`WireAuthority`], so the cache-miss
//! traffic the measurement depends on crosses actual sockets, and the
//! authority's source attribution sees the platform's virtual egresses.
//!
//! Loss is injected here — deterministically, from a seeded RNG — which
//! is what makes retry/backoff behaviour testable hermetically.

use crate::authority::{obs_queue, ObsSender, Observation, SourceRegistrar, WireAuthority};
use crate::clock::EngineClock;
use cde_dns::{Message, Question, Rcode};
use cde_netsim::{DetRng, SimTime};
use cde_platform::{NameserverNet, ResolutionPlatform, ResolveResult};
use cde_sysio::{Poller, RecvSlot, SendItem, Waker, MAX_BATCH};
use crossbeam::channel::{unbounded, Receiver, Sender};
use rand::Rng;
use std::collections::HashMap;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const MAX_DATAGRAM: usize = 4096;
/// How long a replayed upstream query waits for the authority's answer.
const REPLAY_TIMEOUT: Duration = Duration::from_millis(250);
/// Datagrams drained per socket per loop pass. A reactor-driven campaign
/// lands whole `sendmmsg` bursts at once; the cap keeps one busy ingress
/// from starving the others (and the zone-snapshot channel) for longer
/// than a burst. A pass stops reading a socket once it has handled this
/// many, so it may overshoot by what its last receive call brought.
const RECV_BURST: usize = 64;

/// Behaviour knobs for the loopback platform front-end.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResolverConfig {
    /// Probability an inbound client query is silently dropped.
    pub query_loss: f64,
    /// Seed for the loss RNG (deterministic runs).
    pub seed: u64,
}

enum Control {
    /// Replace the resolver's authoritative world snapshot.
    Sync(NameserverNet),
}

/// Clone-able handle pushing zone snapshots to the resolver thread.
#[derive(Clone)]
pub struct ResolverSync {
    ctl: Sender<Control>,
}

impl ResolverSync {
    /// Ships a fresh snapshot of the authoritative world.
    pub fn sync(&self, net: &NameserverNet) {
        let mut snapshot = net.clone();
        snapshot.clear_logs();
        let _ = self.ctl.send(Control::Sync(snapshot));
    }
}

/// A resolution platform listening on real loopback UDP sockets.
pub struct LoopbackResolver {
    ingress_addrs: HashMap<Ipv4Addr, SocketAddr>,
    sync: ResolverSync,
    obs_rx: Receiver<Observation>,
    obs_dropped: Arc<AtomicU64>,
    shutdown: Arc<AtomicBool>,
    /// Ends the serving thread's wait so `Drop` joins promptly.
    waker: Waker,
    handle: Option<JoinHandle<()>>,
}

impl LoopbackResolver {
    /// Binds one socket per platform ingress and starts serving.
    ///
    /// When `authority` is given, every upstream query the platform makes
    /// is replayed to it over real UDP, attributed to the platform egress
    /// that made it.
    pub fn launch(
        platform: ResolutionPlatform,
        net: NameserverNet,
        authority: Option<&WireAuthority>,
        cfg: ResolverConfig,
        clock: EngineClock,
    ) -> io::Result<LoopbackResolver> {
        let mut ingress_addrs = HashMap::new();
        let ingresses: Vec<Ipv4Addr> = platform.ingress_ips().to_vec();
        let mut sockets = Vec::with_capacity(ingresses.len());
        for &ingress in &ingresses {
            let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
            socket.set_nonblocking(true)?;
            // A client's run of identical queries then arrives as one
            // message; the serve loop cuts it apart.
            cde_sysio::coalesce_receives(&socket);
            ingress_addrs.insert(ingress, socket.local_addr()?);
            sockets.push(socket);
        }
        let poller = Poller::new(sockets)?;
        let waker = poller.waker();
        let (ctl_tx, ctl_rx) = unbounded();
        let (obs_tx, obs_rx, obs_dropped) = obs_queue(crate::authority::OBS_QUEUE_CAP);
        let shutdown = Arc::new(AtomicBool::new(false));
        let authority_link = authority.map(|a| (a.addrs().clone(), a.registrar()));
        let handle = std::thread::spawn({
            let shutdown = Arc::clone(&shutdown);
            move || {
                run(
                    platform,
                    net,
                    ingresses,
                    poller,
                    ctl_rx,
                    obs_tx,
                    authority_link,
                    cfg,
                    clock,
                    shutdown,
                )
            }
        });
        Ok(LoopbackResolver {
            ingress_addrs,
            sync: ResolverSync { ctl: ctl_tx },
            obs_rx,
            obs_dropped,
            shutdown,
            waker,
            handle: Some(handle),
        })
    }

    /// The real socket standing in for virtual ingress `ingress`.
    pub fn addr_of(&self, ingress: Ipv4Addr) -> Option<SocketAddr> {
        self.ingress_addrs.get(&ingress).copied()
    }

    /// Virtual-ingress → real-socket table.
    pub fn ingress_addrs(&self) -> &HashMap<Ipv4Addr, SocketAddr> {
        &self.ingress_addrs
    }

    /// Zone-snapshot push handle (clone-able, thread-safe).
    pub fn syncer(&self) -> ResolverSync {
        self.sync.clone()
    }

    /// Drains the upstream queries observed since the last call.
    pub fn take_observations(&self) -> Vec<Observation> {
        self.obs_rx.try_iter().collect()
    }

    /// A clone of the observation stream, for a transport to drain.
    pub fn observations(&self) -> Receiver<Observation> {
        self.obs_rx.clone()
    }

    /// Observations evicted because the bounded back-channel overflowed.
    pub fn dropped_observations(&self) -> u64 {
        self.obs_dropped.load(Ordering::Relaxed)
    }
}

impl Drop for LoopbackResolver {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.force_wake();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for LoopbackResolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopbackResolver")
            .field("ingress_addrs", &self.ingress_addrs)
            .finish()
    }
}

/// Replays upstream queries observed in the local net to the wire
/// authority, one real socket per virtual egress.
struct Replayer {
    addrs: HashMap<Ipv4Addr, SocketAddr>,
    registrar: SourceRegistrar,
    sockets: HashMap<Ipv4Addr, UdpSocket>,
    rng: DetRng,
}

impl Replayer {
    fn replay(&mut self, server_vaddr: Ipv4Addr, egress: Ipv4Addr, question: &Question) {
        let Some(&target) = self.addrs.get(&server_vaddr) else {
            return;
        };
        let id: u16 = self.rng.gen();
        let socket = match self.socket_for(egress) {
            Some(s) => s,
            None => return,
        };
        let query = Message::query(id, question.clone());
        let Ok(bytes) = query.encode() else { return };
        if socket.send_to(&bytes, target).is_err() {
            return;
        }
        let deadline = Instant::now() + REPLAY_TIMEOUT;
        // Wait (briefly) for the authority's reply so the wire round trip
        // completes before the client sees its own response. An answer
        // that missed an earlier replay's deadline may still arrive on
        // this egress socket: it is skipped, and the wait goes on until
        // this replay's own deadline.
        let mut buf = [0u8; MAX_DATAGRAM];
        let mut shortened = false;
        loop {
            match socket.recv_from(&mut buf) {
                Ok((len, from)) if from == target && buf[..len].starts_with(&id.to_be_bytes()) => {
                    break
                }
                Ok(_) => {}
                // Read timeouts surface as either kind, by platform.
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == io::ErrorKind::TimedOut => {}
                Err(_) => break,
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || socket.set_read_timeout(Some(left)).is_err() {
                break;
            }
            shortened = true;
        }
        if shortened {
            let _ = socket.set_read_timeout(Some(REPLAY_TIMEOUT));
        }
    }

    fn socket_for(&mut self, egress: Ipv4Addr) -> Option<&UdpSocket> {
        if !self.sockets.contains_key(&egress) {
            let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).ok()?;
            socket.set_read_timeout(Some(REPLAY_TIMEOUT)).ok()?;
            self.registrar
                .register(socket.local_addr().ok()?.port(), egress);
            self.sockets.insert(egress, socket);
        }
        self.sockets.get(&egress)
    }
}

/// The resolver thread's main loop.
#[allow(clippy::too_many_arguments)]
fn run(
    mut platform: ResolutionPlatform,
    mut net: NameserverNet,
    ingresses: Vec<Ipv4Addr>,
    mut poller: Poller,
    ctl_rx: Receiver<Control>,
    obs_tx: ObsSender,
    authority_link: Option<(HashMap<Ipv4Addr, SocketAddr>, SourceRegistrar)>,
    cfg: ResolverConfig,
    clock: EngineClock,
    shutdown: Arc<AtomicBool>,
) {
    let mut rng = DetRng::seed(cfg.seed).fork("loopback-resolver");
    let mut replayer = authority_link.map(|(addrs, registrar)| Replayer {
        addrs,
        registrar,
        sockets: HashMap::new(),
        rng: DetRng::seed(cfg.seed).fork("replayer"),
    });
    let mut slots: Vec<RecvSlot> = (0..MAX_BATCH).map(|_| RecvSlot::new()).collect();
    let mut replies: Vec<(Vec<u8>, SocketAddrV4)> = Vec::with_capacity(RECV_BURST);
    while !shutdown.load(Ordering::SeqCst) {
        // Zone edits first, so a snapshot pushed before a probe arrives is
        // always visible to that probe's resolution: the probe's datagram
        // is what ends the wait below, and this drain runs before the
        // read that wait points at.
        while let Ok(Control::Sync(snapshot)) = ctl_rx.try_recv() {
            net = snapshot;
        }
        let mut served = false;
        for (i, (ingress, socket)) in ingresses.iter().zip(poller.sockets()).enumerate() {
            // Only the ingresses the last wait reported — all of them
            // when it could not say (see `Poller::ready`).
            if !poller.ready(i) {
                continue;
            }
            // Drain a whole burst per pass, a batch per call: batched
            // senders deliver many datagrams between two polls of this
            // loop. Datagrams are handled in arrival order, so the loss
            // RNG sees the order a one-by-one read would.
            let mut handled = 0;
            while handled < RECV_BURST {
                let got = cde_sysio::recv_batch(socket, &mut slots).unwrap_or(0);
                if got == 0 {
                    break;
                }
                // One clock reading per receive call: every query it
                // carried arrived by then.
                let now = clock.now();
                served = true;
                for slot in &slots[..got] {
                    let Some(peer) = slot.from() else { continue };
                    for datagram in slot.datagrams() {
                        handled += 1;
                        let reply = handle_datagram(
                            &mut platform,
                            &mut net,
                            *ingress,
                            datagram,
                            peer,
                            &mut rng,
                            &mut replayer,
                            &obs_tx,
                            &cfg,
                            now,
                        );
                        replies.extend(reply.map(|bytes| (bytes, peer)));
                    }
                }
                send_replies(socket, &replies);
                replies.clear();
                if got < slots.len() {
                    break;
                }
            }
        }
        // Block until a query lands (or `Drop` fires the waker). What a
        // capped burst left queued ends the wait at once; a poller blind
        // to its sockets would nap on it, so sweep again instead.
        let sweep_again = served && !poller.sees_sockets();
        poller.wait(None, || sweep_again);
    }
}

/// Sends one batch's replies from the ingress socket that received
/// their queries: a run of same-size replies to one client leaves as
/// one segmented message. A reply the kernel refuses — a full send
/// buffer, a socket error — is dropped, as a lone `send_to` would
/// drop it; the client's retry covers it.
fn send_replies(socket: &UdpSocket, replies: &[(Vec<u8>, SocketAddrV4)]) {
    let items: Vec<SendItem<'_>> = replies
        .iter()
        .map(|(payload, dest)| SendItem {
            payload,
            dest: *dest,
        })
        .collect();
    let mut sent = 0;
    while sent < items.len() {
        match cde_sysio::send_batch(socket, &items[sent..]) {
            Ok(0) => break,
            Ok(n) => sent += n,
            Err(_) => sent += 1,
        }
    }
}

/// Resolves one client datagram, received at `now`, and returns the
/// reply to send, if any.
#[allow(clippy::too_many_arguments)]
fn handle_datagram(
    platform: &mut ResolutionPlatform,
    net: &mut NameserverNet,
    ingress: Ipv4Addr,
    datagram: &[u8],
    peer: SocketAddrV4,
    rng: &mut DetRng,
    replayer: &mut Option<Replayer>,
    obs_tx: &ObsSender,
    cfg: &ResolverConfig,
    now: SimTime,
) -> Option<Vec<u8>> {
    // Untrusted bytes from the wire: drop anything malformed.
    let query = Message::decode(datagram).ok()?;
    if query.is_response() {
        return None;
    }
    let question = query.question()?;
    // Injected request-direction loss: the query never "reaches" us.
    if cfg.query_loss > 0.0 && rng.gen_bool(cfg.query_loss) {
        return None;
    }
    // Each distinct client port is a distinct synthetic client address, so
    // the platform's per-client behaviour (selectors, logs) still varies.
    let client = synth_client(peer);
    // Fresh logs so everything after handle_query is this query's traffic.
    net.clear_logs();
    let response = platform.handle_query(
        client,
        ingress,
        question.qname(),
        question.qtype(),
        now,
        net,
    );
    // Stream the upstream queries this resolution caused: replay each over
    // real UDP to the authority, then hand the observation (with its true
    // virtual egress) to whoever owns the canonical net.
    for server in net.servers() {
        let vaddr = server.addr();
        for entry in server.log() {
            if let Some(replayer) = replayer.as_mut() {
                replayer.replay(
                    vaddr,
                    entry.from,
                    &Question::new(entry.qname.clone(), entry.qtype),
                );
            }
            obs_tx.push((vaddr, entry.clone()));
        }
    }
    net.clear_logs();

    let mut resp = Message::response_to(&query);
    match response {
        Ok(platform_response) => match platform_response.outcome.result {
            ResolveResult::Records(records) => {
                resp.answers = records;
            }
            ResolveResult::NxDomain => resp.flags.rcode = Rcode::NxDomain,
            ResolveResult::NoData => {}
            ResolveResult::ServFail => resp.flags.rcode = Rcode::ServFail,
        },
        // A query for an address that is not an ingress of this platform:
        // answer REFUSED, as a real open resolver would.
        Err(_) => resp.flags.rcode = Rcode::Refused,
    }
    resp.encode().ok()
}

/// Maps a real loopback peer to a synthetic client address in the CGNAT
/// range (`100.64.0.0/10`), one per source port.
fn synth_client(peer: SocketAddrV4) -> Ipv4Addr {
    let port = peer.port();
    Ipv4Addr::new(100, 64, (port >> 8) as u8, (port & 0xff) as u8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cde_dns::RecordType;
    use cde_platform::{PlatformBuilder, SelectorKind};

    fn n(s: &str) -> cde_dns::Name {
        s.parse().unwrap()
    }

    /// Installs CDE infra, opens one session, launches a resolver over it.
    fn launch_simple(cfg: ResolverConfig) -> (LoopbackResolver, Ipv4Addr, cde_dns::Name) {
        let mut net = NameserverNet::new();
        let mut infra = cde_core::CdeInfra::install(&mut net);
        let session = infra.new_session(&mut net, 0);
        let ingress = Ipv4Addr::new(192, 0, 2, 1);
        let platform = PlatformBuilder::new(17)
            .ingress(vec![ingress])
            .egress(vec![Ipv4Addr::new(192, 0, 3, 1)])
            .cluster(2, SelectorKind::Random)
            .build();
        let resolver =
            LoopbackResolver::launch(platform, net, None, cfg, EngineClock::start()).unwrap();
        (resolver, ingress, session.honey)
    }

    fn ask(addr: SocketAddr, id: u16, qname: &cde_dns::Name) -> Option<Message> {
        let sock = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        sock.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let query = Message::query(id, Question::new(qname.clone(), RecordType::A));
        sock.send_to(&query.encode().unwrap(), addr).unwrap();
        let mut buf = [0u8; MAX_DATAGRAM];
        let (len, _) = sock.recv_from(&mut buf).ok()?;
        Message::decode(&buf[..len]).ok()
    }

    /// Sends queries `0..n` for `qname` from one client socket in
    /// `send_batch` calls — identical-size queries, so segmented runs —
    /// and returns the ids of the replies, sorted.
    fn ask_burst(addr: SocketAddr, n: u16, qname: &cde_dns::Name) -> Vec<u16> {
        let SocketAddr::V4(dest) = addr else {
            unreachable!("the resolver binds 127.0.0.1")
        };
        let sock = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        sock.set_nonblocking(true).unwrap();
        let queries: Vec<Vec<u8>> = (0..n)
            .map(|id| {
                Message::query(id, Question::new(qname.clone(), RecordType::A))
                    .encode()
                    .unwrap()
            })
            .collect();
        let items: Vec<SendItem<'_>> = queries
            .iter()
            .map(|payload| SendItem { payload, dest })
            .collect();
        let mut sent = 0;
        while sent < items.len() {
            sent += cde_sysio::send_batch(&sock, &items[sent..]).unwrap();
        }
        sock.set_nonblocking(false).unwrap();
        sock.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let mut ids = Vec::new();
        let mut buf = [0u8; MAX_DATAGRAM];
        while let Ok((len, _)) = sock.recv_from(&mut buf) {
            let reply = Message::decode(&buf[..len]).unwrap();
            assert!(reply.is_response());
            assert_eq!(reply.question().map(Question::qname), Some(qname));
            ids.push(reply.id);
        }
        ids.sort_unstable();
        ids
    }

    #[test]
    fn segmented_burst_gets_one_reply_per_query() {
        let (resolver, ingress, honey) = launch_simple(ResolverConfig::default());
        let addr = resolver.addr_of(ingress).unwrap();
        assert_eq!(ask_burst(addr, 64, &honey), (0..64).collect::<Vec<u16>>());
    }

    /// Batched serving draws the loss RNG in arrival order, as the
    /// one-datagram-per-read loop it replaced did: the same seed drops
    /// the same queries. The ids are the ones that loop answered.
    #[test]
    fn seeded_query_loss_answers_the_same_ids_as_one_by_one_serving() {
        let (resolver, ingress, honey) = launch_simple(ResolverConfig {
            query_loss: 0.25,
            seed: 7,
        });
        let addr = resolver.addr_of(ingress).unwrap();
        let answered: Vec<u16> = vec![
            0, 2, 3, 4, 5, 7, 8, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 21, 22, 23, 24, 26, 29,
            32, 33, 35, 36, 37, 39, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 53, 54, 56, 57, 58,
            59, 60, 62,
        ];
        assert_eq!(ask_burst(addr, 64, &honey), answered);
    }

    #[test]
    fn resolves_cde_zone_names_over_real_udp() {
        let (resolver, ingress, honey) = launch_simple(ResolverConfig::default());
        let addr = resolver.addr_of(ingress).unwrap();
        let resp = ask(addr, 0x1234, &honey).unwrap();
        assert_eq!(resp.id, 0x1234);
        assert_eq!(resp.flags.rcode, Rcode::NoError);
        assert!(!resp.answers.is_empty());
        // The upstream fetch surfaced as an observation.
        let obs = resolver.take_observations();
        assert!(!obs.is_empty());
    }

    #[test]
    fn nxdomain_is_propagated() {
        let (resolver, ingress, _) = launch_simple(ResolverConfig::default());
        let addr = resolver.addr_of(ingress).unwrap();
        let resp = ask(addr, 7, &n("no-such-name.cache.example")).unwrap();
        assert_eq!(resp.flags.rcode, Rcode::NxDomain);
    }

    #[test]
    fn total_query_loss_times_out() {
        let (resolver, ingress, honey) = launch_simple(ResolverConfig {
            query_loss: 1.0,
            ..ResolverConfig::default()
        });
        let addr = resolver.addr_of(ingress).unwrap();
        assert!(ask(addr, 9, &honey).is_none());
    }

    #[test]
    fn zone_sync_exposes_new_honey_records() {
        let mut net = NameserverNet::new();
        let mut infra = cde_core::CdeInfra::install(&mut net);
        let ingress = Ipv4Addr::new(192, 0, 2, 1);
        let platform = PlatformBuilder::new(23)
            .ingress(vec![ingress])
            .egress(vec![Ipv4Addr::new(192, 0, 3, 1)])
            .cluster(1, SelectorKind::Random)
            .build();
        let resolver = LoopbackResolver::launch(
            platform,
            net.clone(),
            None,
            ResolverConfig::default(),
            EngineClock::start(),
        )
        .unwrap();
        let addr = resolver.addr_of(ingress).unwrap();
        // Plant a session honey record in the canonical net and sync it.
        let session = infra.new_session(&mut net, 0);
        resolver.syncer().sync(&net);
        let resp = ask(addr, 11, &session.honey).unwrap();
        assert_eq!(resp.flags.rcode, Rcode::NoError);
    }

    /// An answer that lands after its replay gave up must not end the
    /// next replay on the same egress socket: that replay would return
    /// on the stale answer, before its own query's answer.
    #[test]
    fn replay_skips_an_answer_that_missed_an_earlier_deadline() {
        let mut net = NameserverNet::new();
        cde_core::CdeInfra::install(&mut net);
        // Every answer lands 150 ms after its replay gave up on it.
        let delay = REPLAY_TIMEOUT + Duration::from_millis(150);
        let authority =
            WireAuthority::launch_with_delay(&net, EngineClock::start(), delay).unwrap();
        let server = net.servers().next().unwrap().addr();
        let mut replayer = Replayer {
            addrs: authority.addrs().clone(),
            registrar: authority.registrar(),
            sockets: HashMap::new(),
            rng: DetRng::seed(5).fork("replayer"),
        };
        let egress = Ipv4Addr::new(192, 0, 3, 1);
        let question = Question::new(n("a.cache.example"), RecordType::A);
        replayer.replay(server, egress, &question);
        // The first answer arrives 150 ms into this replay.
        let start = Instant::now();
        replayer.replay(server, egress, &question);
        let took = start.elapsed();
        assert!(
            took >= REPLAY_TIMEOUT,
            "the second replay returned after {took:?}, on the first one's answer"
        );
        assert_eq!(authority.queries_served(), 2);
    }
}
