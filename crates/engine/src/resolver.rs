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
//!
//! A datagram is served without building a [`Message`]. Its header is
//! read through [`MessagePeek`]; a query of one question and no records —
//! what every client sends — has its question read in place into one
//! reused [`Question`], whose name is re-read only when the wire name
//! differs from the last one, so a run of identical queries reads it
//! once. Any other shape is validated by [`Message::decode`] and dropped
//! exactly when that fails. The platform answers, and
//! [`Message::encode_response_into`] writes the reply into one reused
//! writer, laid out byte for byte as `Message::response_to` then
//! `encode` would. Each receive call's replies are copied back to back
//! into one arena and sent by range with one `send_batch`, so a run of
//! same-size replies to one client still leaves as one segmented send.
//! A warm repeated hit allocates only the cache's copy of its answer.

use crate::authority::{obs_queue, ObsSender, Observation, SourceRegistrar, WireAuthority};
use crate::clock::EngineClock;
use cde_dns::wire::WireWriter;
use cde_dns::{Message, MessagePeek, Name, Question, Rcode, Record, RecordType};
use cde_netsim::{DetRng, SimTime};
use cde_platform::{NameserverNet, ResolutionPlatform, ResolveResult};
use cde_sysio::{Poller, RecvSlot, SendItem, Waker, MAX_BATCH};
use crossbeam::channel::{unbounded, Receiver, Sender};
use rand::Rng;
use std::collections::HashMap;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::ops::Range;
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
    platform: ResolutionPlatform,
    net: NameserverNet,
    ingresses: Vec<Ipv4Addr>,
    mut poller: Poller,
    ctl_rx: Receiver<Control>,
    obs_tx: ObsSender,
    authority_link: Option<(HashMap<Ipv4Addr, SocketAddr>, SourceRegistrar)>,
    cfg: ResolverConfig,
    clock: EngineClock,
    shutdown: Arc<AtomicBool>,
) {
    let replayer = authority_link.map(|(addrs, registrar)| Replayer {
        addrs,
        registrar,
        sockets: HashMap::new(),
        rng: DetRng::seed(cfg.seed).fork("replayer"),
    });
    let mut server = Server::new(platform, net, replayer, obs_tx, cfg);
    let mut slots: Vec<RecvSlot> = (0..MAX_BATCH).map(|_| RecvSlot::new()).collect();
    // One receive call's replies, back to back, and where each one lies.
    let mut arena: Vec<u8> = Vec::new();
    let mut replies: Vec<(Range<usize>, SocketAddrV4)> = Vec::with_capacity(RECV_BURST);
    while !shutdown.load(Ordering::SeqCst) {
        // Zone edits first, so a snapshot pushed before a probe arrives is
        // always visible to that probe's resolution: the probe's datagram
        // is what ends the wait below, and this drain runs before the
        // read that wait points at. Snapshots arrive with empty logs.
        while let Ok(Control::Sync(snapshot)) = ctl_rx.try_recv() {
            server.net = snapshot;
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
                        if let Some(reply) = server.serve(*ingress, datagram, peer, now) {
                            let start = arena.len();
                            arena.extend_from_slice(reply);
                            replies.push((start..arena.len(), peer));
                        }
                    }
                }
                send_replies(socket, &arena, &replies);
                arena.clear();
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
/// their queries: each reply is its range of `arena`, and a run of
/// same-size replies to one client leaves as one segmented message. A
/// reply the kernel refuses — a full send buffer, a socket error — is
/// dropped, as a lone `send_to` would drop it; the client's retry
/// covers it.
fn send_replies(socket: &UdpSocket, arena: &[u8], replies: &[(Range<usize>, SocketAddrV4)]) {
    let mut sent = 0;
    while sent < replies.len() {
        let window = &replies[sent..replies.len().min(sent + MAX_BATCH)];
        let mut items = [SendItem {
            payload: &[],
            dest: SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, 0),
        }; MAX_BATCH];
        for (item, (range, dest)) in items.iter_mut().zip(window) {
            *item = SendItem {
                payload: &arena[range.clone()],
                dest: *dest,
            };
        }
        match cde_sysio::send_batch(socket, &items[..window.len()]) {
            Ok(0) => break,
            Ok(n) => sent += n,
            Err(_) => sent += 1,
        }
    }
}

/// What the resolver thread serves with: the platform and the
/// authoritative world it resolves against, the loss RNG, the upstream
/// replayer, and the question and writer every datagram reuses.
struct Server {
    platform: ResolutionPlatform,
    net: NameserverNet,
    rng: DetRng,
    replayer: Option<Replayer>,
    obs_tx: ObsSender,
    cfg: ResolverConfig,
    /// The last question read in place: a run of identical queries reads
    /// its name once.
    question: Question,
    /// The reply to the datagram just served.
    writer: WireWriter,
}

impl Server {
    fn new(
        platform: ResolutionPlatform,
        mut net: NameserverNet,
        replayer: Option<Replayer>,
        obs_tx: ObsSender,
        cfg: ResolverConfig,
    ) -> Server {
        // Every query leaves the logs empty, so everything logged while
        // serving one is that query's upstream traffic.
        net.clear_logs();
        Server {
            platform,
            net,
            rng: DetRng::seed(cfg.seed).fork("loopback-resolver"),
            replayer,
            obs_tx,
            cfg,
            question: Question::new(Name::root(), RecordType::A),
            writer: WireWriter::new(),
        }
    }

    /// Resolves one client datagram, received at `now`, and returns the
    /// reply to send, if any. The reply lives in the server's writer
    /// until the next call.
    fn serve(
        &mut self,
        ingress: Ipv4Addr,
        datagram: &[u8],
        peer: SocketAddrV4,
        now: SimTime,
    ) -> Option<&[u8]> {
        // Untrusted bytes from the wire: drop anything malformed.
        let peek = MessagePeek::parse(datagram).ok()?;
        if peek.is_response() {
            return None;
        }
        let decoded: Message;
        let questions = if peek.qdcount() == 1 && peek.record_count() == 0 {
            // What clients send: one question and no records, read in
            // place. Trailing bytes are refused, as `Message::decode`
            // refuses them.
            if peek.read_question(&mut self.question).ok()? != datagram.len() {
                return None;
            }
            std::slice::from_ref(&self.question)
        } else {
            decoded = Message::decode(datagram).ok()?;
            decoded.questions.as_slice()
        };
        let question = questions.first()?;
        // Injected request-direction loss: the query never "reaches" us.
        if self.cfg.query_loss > 0.0 && self.rng.gen_bool(self.cfg.query_loss) {
            return None;
        }
        // Each distinct client port is a distinct synthetic client address,
        // so the platform's per-client behaviour (selectors, logs) still
        // varies.
        let client = synth_client(peer);
        let response = self.platform.handle_query(
            client,
            ingress,
            question.qname(),
            question.qtype(),
            now,
            &mut self.net,
        );
        // Stream the upstream queries this resolution caused: replay each
        // over real UDP to the authority, then hand the observation (with
        // its true virtual egress) to whoever owns the canonical net.
        for server in self.net.servers() {
            let vaddr = server.addr();
            for entry in server.log() {
                if let Some(replayer) = self.replayer.as_mut() {
                    replayer.replay(
                        vaddr,
                        entry.from,
                        &Question::new(entry.qname.clone(), entry.qtype),
                    );
                }
                self.obs_tx.push((vaddr, entry.clone()));
            }
        }
        self.net.clear_logs();

        let (rcode, answers): (Rcode, &[Record]) = match &response {
            Ok(platform_response) => match &platform_response.outcome.result {
                ResolveResult::Records(records) => (Rcode::NoError, records),
                other => (other.rcode(), &[]),
            },
            // A query for an address that is not an ingress of this
            // platform: answer REFUSED, as a real open resolver would.
            Err(_) => (Rcode::Refused, &[]),
        };
        Message::encode_response_into(
            &mut self.writer,
            peek.id(),
            peek.flags(),
            questions,
            rcode,
            answers,
        )
        .ok()?;
        Some(self.writer.as_slice())
    }
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

    /// The serve path `Server::serve` replaced, kept verbatim as its
    /// oracle: decode into a `Message`, clear the logs, resolve, answer
    /// through `Message::response_to` and encode into a fresh buffer.
    #[allow(clippy::too_many_arguments)]
    fn oracle_handle_datagram(
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

    /// Flips the case of some letters in the question section, leaving
    /// the header and the trailing qtype and qclass alone.
    fn mangle_case(bytes: &mut [u8], rng: &mut DetRng) {
        let end = bytes.len().saturating_sub(4);
        for b in bytes.iter_mut().take(end).skip(12) {
            if b.is_ascii_lowercase() && rng.gen_bool(0.3) {
                b.make_ascii_uppercase();
            }
        }
    }

    /// One corpus datagram: mostly well-formed queries (some repeated),
    /// then every odd shape a client could send.
    fn corpus_datagram(rng: &mut DetRng, names: &[cde_dns::Name], last: &[u8]) -> Vec<u8> {
        use cde_dns::{Opcode, RData, Record, Ttl};
        let qtypes = [
            RecordType::A,
            RecordType::A,
            RecordType::Aaaa,
            RecordType::Mx,
            RecordType::Txt,
            RecordType::Cname,
            RecordType::Ns,
            RecordType::Other(0x1234),
        ];
        let pick_name = |rng: &mut DetRng| names[rng.gen_range(0..names.len())].clone();
        let mut query = Message::query(
            rng.gen(),
            Question::new(pick_name(rng), qtypes[rng.gen_range(0..qtypes.len())]),
        );
        query.flags.rd = rng.gen_bool(0.8);
        if rng.gen_bool(0.1) {
            query.flags.opcode =
                [Opcode::IQuery, Opcode::Status, Opcode::Other(5)][rng.gen_range(0..3usize)];
        }
        let record = |name: cde_dns::Name| {
            Record::new(
                name,
                Ttl::from_secs(60),
                RData::A(Ipv4Addr::new(192, 0, 2, 9)),
            )
        };
        match rng.gen_range(0..100) {
            // The same datagram again, under a new id.
            0..=19 if last.len() >= 2 => {
                let mut bytes = last.to_vec();
                bytes[..2].copy_from_slice(&rng.gen::<u16>().to_be_bytes());
                bytes
            }
            // A plain query, maybe in mixed case, maybe class CH or ANY.
            0..=59 => {
                let mut bytes = query.encode().unwrap();
                if rng.gen_bool(0.4) {
                    mangle_case(&mut bytes, rng);
                }
                if rng.gen_bool(0.1) {
                    let class: u16 = if rng.gen() { 3 } else { 255 };
                    let at = bytes.len() - 2;
                    bytes[at..].copy_from_slice(&class.to_be_bytes());
                }
                bytes
            }
            // No question, or a second one (compressed against the first).
            60..=64 => {
                if rng.gen() {
                    query.questions.clear();
                } else {
                    query
                        .questions
                        .push(Question::new(pick_name(rng), RecordType::A));
                }
                query.encode().unwrap()
            }
            // Records in the answer, authority or additional section.
            65..=69 => {
                let name = pick_name(rng);
                match rng.gen_range(0..3) {
                    0 => query.answers.push(record(name)),
                    1 => query.authorities.push(record(name)),
                    _ => query.additionals.push(record(name)),
                }
                query.encode().unwrap()
            }
            // A question name compressed against the header: the id and
            // flags bytes spell the label "a" and the root, so the name
            // reads `foo.a`; or a pointer loop.
            70..=72 => {
                let mut bytes = vec![1, b'a', 0, 0, 0, 1, 0, 0, 0, 0, 0, 0];
                match rng.gen_range(0..3) {
                    0 => bytes.extend_from_slice(&[3, b'f', b'o', b'o', 0xC0, 0x00]),
                    1 => bytes.extend_from_slice(&[1, b'b', 0xC0, 0x0C]),
                    _ => bytes.extend_from_slice(&[0xC0, 0x0C]),
                }
                bytes.extend_from_slice(&[0, 1, 0, 1]);
                bytes
            }
            // Truncated anywhere, one byte too long, or a response.
            73..=79 => {
                let mut bytes = query.encode().unwrap();
                match rng.gen_range(0..3) {
                    0 => bytes.truncate(rng.gen_range(0..bytes.len())),
                    1 => bytes.push(rng.gen()),
                    _ => bytes[2] |= 0x80,
                }
                bytes
            }
            // A query with one byte changed.
            80..=89 => {
                let mut bytes = query.encode().unwrap();
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = rng.gen();
                bytes
            }
            // Random bytes, with or without a query-shaped header.
            _ => {
                let mut bytes: Vec<u8> = (0..rng.gen_range(0..48)).map(|_| rng.gen()).collect();
                if bytes.len() >= 12 && rng.gen() {
                    bytes[2..12].copy_from_slice(&[1, 0, 0, 1, 0, 0, 0, 0, 0, 0]);
                }
                bytes
            }
        }
    }

    /// `Server::serve` against the oracle on two platforms built from the
    /// same seed, over a seeded corpus of well-formed and malformed
    /// datagrams: every reply (or drop) and every observation must be
    /// identical, datagram by datagram, so the two stay in step.
    #[test]
    fn serve_matches_the_message_oracle_datagram_for_datagram() {
        let mut net = NameserverNet::new();
        let mut infra = cde_core::CdeInfra::install(&mut net);
        let long = infra.new_session(&mut net, 4);
        // Short-lived records: hits turn to misses as the clock runs.
        let brief = infra.new_session_with_ttl(&mut net, 3, cde_dns::Ttl::from_secs(20));
        let mut names = vec![
            long.honey.clone(),
            long.honey.clone(),
            brief.honey.clone(),
            long.sub_apex.clone(),
            n("no-such-name.cache.example"),
            n("cache.example"),
            n("elsewhere.invalid"),
        ];
        for session in [&long, &brief] {
            names.extend(session.farm.iter().cloned());
            names.extend(session.sub_farm.iter().cloned());
        }
        let ingress = Ipv4Addr::new(192, 0, 2, 1);
        let platform = || {
            PlatformBuilder::new(17)
                .ingress(vec![ingress])
                .egress(vec![
                    Ipv4Addr::new(192, 0, 3, 1),
                    Ipv4Addr::new(192, 0, 3, 2),
                ])
                .cluster(3, SelectorKind::Random)
                .build()
        };
        let cfg = ResolverConfig {
            query_loss: 0.05,
            seed: 3,
        };
        // A world handed over with queries in its logs: they are not this
        // resolver's traffic, and must never be observed.
        platform()
            .handle_query(
                Ipv4Addr::new(100, 64, 0, 9),
                ingress,
                &long.honey,
                RecordType::A,
                SimTime::ZERO,
                &mut net,
            )
            .unwrap();
        assert!(net.servers().any(|s| !s.log().is_empty()));
        // A clone keeps the map layout, so both walk the servers' logs in
        // one order.
        let mut oracle_net = net.clone();
        let mut oracle_platform = platform();
        let mut oracle_rng = DetRng::seed(cfg.seed).fork("loopback-resolver");
        let (oracle_tx, oracle_rx, _) = obs_queue(crate::authority::OBS_QUEUE_CAP);
        let (obs_tx, obs_rx, _) = obs_queue(crate::authority::OBS_QUEUE_CAP);
        let mut server = Server::new(platform(), net, None, obs_tx, cfg);

        let mut rng = DetRng::seed(0x5e12e).fork("corpus");
        let mut now = SimTime::ZERO;
        let mut last = Vec::new();
        let (mut answered, mut dropped, mut observed, mut no_data) = (0, 0, 0, 0);
        let mut rcodes = HashMap::new();
        let mut check = |datagram: &[u8], ingress: Ipv4Addr, peer: SocketAddrV4, now: SimTime| {
            let expected = oracle_handle_datagram(
                &mut oracle_platform,
                &mut oracle_net,
                ingress,
                datagram,
                peer,
                &mut oracle_rng,
                &mut None,
                &oracle_tx,
                &cfg,
                now,
            );
            let got = server
                .serve(ingress, datagram, peer, now)
                .map(<[u8]>::to_vec);
            assert_eq!(got, expected, "reply to {datagram:02x?}");
            let expected_obs: Vec<Observation> = oracle_rx.try_iter().collect();
            let got_obs: Vec<Observation> = obs_rx.try_iter().collect();
            assert_eq!(got_obs, expected_obs, "observations of {datagram:02x?}");
            observed += got_obs.len();
            match got {
                Some(reply) => {
                    answered += 1;
                    let peek = MessagePeek::parse(&reply).unwrap();
                    let rcode = peek.flags().rcode;
                    *rcodes.entry(rcode).or_insert(0) += 1;
                    if rcode == Rcode::NoError && peek.record_count() == 0 {
                        no_data += 1;
                    }
                }
                None => dropped += 1,
            }
        };
        for i in 0..12_000u32 {
            let datagram = corpus_datagram(&mut rng, &names, &last);
            // One datagram in 40 reaches an address that is no ingress.
            let at = if rng.gen_bool(0.025) {
                Ipv4Addr::new(192, 0, 2, 99)
            } else {
                ingress
            };
            let peer = SocketAddrV4::new(Ipv4Addr::LOCALHOST, 40_000 + rng.gen_range(0..4u16));
            now += cde_netsim::SimDuration::from_millis(rng.gen_range(0..20));
            check(&datagram, at, peer, now);
            // Every prefix of a few well-formed queries, too.
            if i % 1_000 == 0 && last.len() > 12 {
                for len in 0..last.len() {
                    check(&last[..len], ingress, peer, now);
                }
            }
            last = datagram;
        }
        assert!(
            answered > 5_000 && dropped > 1_000,
            "{answered} answered, {dropped} dropped"
        );
        assert!(observed > 100, "only {observed} upstream queries observed");
        let with_records = rcodes[&Rcode::NoError] - no_data;
        assert!(no_data > 50, "only {no_data} NoData answers");
        assert!(
            with_records > 500,
            "only {with_records} answers with records"
        );
        for rcode in [Rcode::NoError, Rcode::NxDomain, Rcode::Refused] {
            assert!(
                rcodes.get(&rcode).copied().unwrap_or(0) > 50,
                "{rcode:?}: {rcodes:?}"
            );
        }
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
