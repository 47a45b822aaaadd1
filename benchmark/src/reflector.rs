//! The benchmark-owned responder: flip QR, echo the question, nothing
//! else. With it the reactor is measured against a peer that is never
//! the bottleneck, and — holding each reply — against a peer whose delay
//! is known to the microsecond. Both forms are served from the
//! generator's thread.

use cde_sysio::{recv_batch, send_batch, RecvSlot, SendItem, MAX_BATCH};
use std::collections::VecDeque;
use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::time::{Duration, Instant};

/// Turns a query datagram into its reply in `reply`: same id, same
/// question, QR and RA set, no records. `false` (and nothing usable in
/// `reply`) for anything that is not a query.
pub fn reflect_into(query: &[u8], reply: &mut Vec<u8>) -> bool {
    if query.len() < 12 || query[2] & 0x80 != 0 {
        return false;
    }
    reply.clear();
    reply.extend_from_slice(query);
    reply[2] |= 0x80;
    reply[3] |= 0x80;
    true
}

/// The probe token carried in the first label of the question, for
/// names of the form `<letter><decimal token>.<zone>` — how the reflector
/// side of the flight join learns which probe a datagram belongs to.
pub fn qname_token(datagram: &[u8]) -> Option<u64> {
    let len = usize::from(*datagram.get(12)?);
    let label = datagram.get(13..13 + len)?;
    let (first, digits) = label.split_first()?;
    if !first.is_ascii_alphabetic() || digits.is_empty() || digits.len() > 19 {
        return None;
    }
    digits.iter().try_fold(0u64, |acc, b| {
        b.is_ascii_digit().then(|| acc * 10 + u64::from(b - b'0'))
    })
}

fn bind_loopback() -> io::Result<(UdpSocket, SocketAddr)> {
    let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
    let addr = socket.local_addr()?;
    Ok((socket, addr))
}

/// The reflector served from inside the generator's own loop, so a
/// flood has exactly two busy threads: generator+reflector and shard.
pub struct InlineReflector {
    socket: UdpSocket,
    addr: SocketAddr,
    slots: Vec<RecvSlot>,
    replies: Vec<Vec<u8>>,
    served: u64,
    /// `(token, instant the reply was handed to the kernel)` for
    /// datagrams whose name carries a token.
    releases: Vec<(u64, Instant)>,
}

impl InlineReflector {
    pub fn bind() -> io::Result<InlineReflector> {
        let (socket, addr) = bind_loopback()?;
        socket.set_nonblocking(true)?;
        Ok(InlineReflector {
            socket,
            addr,
            slots: (0..MAX_BATCH).map(|_| RecvSlot::new()).collect(),
            replies: (0..MAX_BATCH).map(|_| Vec::with_capacity(128)).collect(),
            served: 0,
            releases: Vec::new(),
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn served(&self) -> u64 {
        self.served
    }

    pub fn take_releases(&mut self) -> Vec<(u64, Instant)> {
        std::mem::take(&mut self.releases)
    }

    /// Answers whatever is queued on the socket right now; returns how
    /// many datagrams were reflected.
    pub fn serve(&mut self) -> usize {
        let mut total = 0;
        loop {
            let got = recv_batch(&self.socket, &mut self.slots).unwrap_or(0);
            if got == 0 {
                return total;
            }
            let mut dests = [SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0); MAX_BATCH];
            let mut n = 0;
            for slot in &self.slots[..got] {
                let Some(from) = slot.from() else { continue };
                if reflect_into(slot.bytes(), &mut self.replies[n]) {
                    dests[n] = from;
                    n += 1;
                }
            }
            let empty: &[u8] = &[];
            let mut items = [SendItem {
                payload: empty,
                dest: dests[0],
            }; MAX_BATCH];
            for i in 0..n {
                items[i] = SendItem {
                    payload: &self.replies[i],
                    dest: dests[i],
                };
            }
            let mut sent = 0;
            while sent < n {
                // A full send buffer is the only reason for a short
                // count on loopback; the shard drains it, so retry.
                match send_batch(&self.socket, &items[sent..n]) {
                    Ok(0) => std::thread::yield_now(),
                    Ok(k) => sent += k,
                    Err(_) => break,
                }
            }
            let now = Instant::now();
            for reply in &self.replies[..sent] {
                if let Some(token) = qname_token(reply) {
                    self.releases.push((token, now));
                }
            }
            self.served += sent as u64;
            total += sent;
            if got < self.slots.len() {
                return total;
            }
        }
    }
}

/// One datagram's passage through the held reflector.
#[derive(Debug, Clone, Copy)]
pub struct Held {
    pub token: Option<u64>,
    pub received: Instant,
    /// When the reply actually left (`received + hold` plus lateness).
    pub released: Instant,
}

/// A reflector that holds every reply for exactly `hold` after it saw
/// the query. Like [`InlineReflector`] it has no thread of its own: the
/// open-loop generator calls [`HeldReflector::poll`] from its spin, so
/// the workload has two busy threads on a two-core box and neither the
/// hold nor the engine's wake-ups wait for a third one to be scheduled.
pub struct HeldReflector {
    socket: UdpSocket,
    addr: SocketAddr,
    hold: Duration,
    /// Replies waiting for their release instant, oldest first.
    queue: VecDeque<(Instant, Option<u64>, Vec<u8>, SocketAddr)>,
    /// Reply buffers not in the queue.
    spare: Vec<Vec<u8>>,
    log: Vec<Held>,
}

impl HeldReflector {
    pub fn bind(hold: Duration) -> io::Result<HeldReflector> {
        let (socket, addr) = bind_loopback()?;
        socket.set_nonblocking(true)?;
        Ok(HeldReflector {
            socket,
            addr,
            hold,
            queue: VecDeque::new(),
            spare: Vec::new(),
            log: Vec::new(),
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Replies released so far.
    pub fn released(&self) -> usize {
        self.log.len()
    }

    /// Takes in the queries that have arrived and sends the replies that
    /// are due. The hold starts when `poll` sees the query, so the caller
    /// polls without sleeping while anything can arrive.
    pub fn poll(&mut self) {
        let mut buf = [0u8; 2048];
        while let Ok((len, peer)) = self.socket.recv_from(&mut buf) {
            let received = Instant::now();
            let mut reply = self.spare.pop().unwrap_or_default();
            if reflect_into(&buf[..len], &mut reply) {
                self.queue
                    .push_back((received, qname_token(&reply), reply, peer));
            } else {
                self.spare.push(reply);
            }
        }
        while let Some((received, ..)) = self.queue.front() {
            if Instant::now() < *received + self.hold {
                return;
            }
            let (received, token, bytes, peer) = self.queue.pop_front().expect("front exists");
            let _ = self.socket.send_to(&bytes, peer);
            self.log.push(Held {
                token,
                received,
                released: Instant::now(),
            });
            self.spare.push(bytes);
        }
    }

    /// Everything served, in release order.
    pub fn finish(self) -> Vec<Held> {
        self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cde_dns::wire::WireWriter;
    use cde_dns::{Message, MessagePeek, Name, RecordType};

    fn query(id: u16, name: &str) -> (Vec<u8>, Name) {
        let qname: Name = name.parse().unwrap();
        let mut w = WireWriter::new();
        Message::encode_query_into(&mut w, id, &qname, RecordType::A);
        (w.as_slice().to_vec(), qname)
    }

    #[test]
    fn reply_is_a_valid_response_to_the_question() {
        let (q, qname) = query(0xbeef, "p42.bench.example");
        let mut reply = Vec::new();
        assert!(reflect_into(&q, &mut reply));
        let peek = MessagePeek::parse(&reply).expect("engine's parser accepts the reply");
        assert!(peek.is_response());
        assert_eq!(peek.id(), 0xbeef);
        assert_eq!(peek.question_matches(&qname, RecordType::A), Ok(true));
        let other: Name = "p43.bench.example".parse().unwrap();
        assert_eq!(peek.question_matches(&other, RecordType::A), Ok(false));
        // A full decode agrees.
        let msg = Message::decode(&reply).unwrap();
        assert!(msg.is_response());
        assert_eq!(msg.question().unwrap().qname(), &qname);
    }

    #[test]
    fn responses_and_runts_are_not_reflected() {
        let (q, _) = query(1, "honey.bench.example");
        let mut reply = Vec::new();
        assert!(reflect_into(&q, &mut reply));
        let mut again = Vec::new();
        assert!(
            !reflect_into(&reply, &mut again),
            "a response is not a query"
        );
        assert!(!reflect_into(&q[..11], &mut again));
    }

    #[test]
    fn token_is_read_from_the_first_label() {
        assert_eq!(qname_token(&query(1, "p42.bench.example").0), Some(42));
        assert_eq!(qname_token(&query(1, "s0.bench.example").0), Some(0));
        assert_eq!(qname_token(&query(1, "honey.bench.example").0), None);
        assert_eq!(qname_token(&query(1, "p.bench.example").0), None);
        assert_eq!(qname_token(&query(1, "42.bench.example").0), None);
        assert_eq!(qname_token(&[0u8; 12]), None);
    }

    #[test]
    fn inline_reflector_answers_a_burst() {
        let mut reflector = InlineReflector::bind().unwrap();
        let client = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        for i in 0..40u16 {
            let (q, _) = query(i, &format!("s{i}.bench.example"));
            client.send_to(&q, reflector.addr()).unwrap();
        }
        let mut served = 0;
        let deadline = Instant::now() + Duration::from_secs(2);
        while served < 40 && Instant::now() < deadline {
            served += reflector.serve();
        }
        assert_eq!(served, 40);
        assert_eq!(reflector.served(), 40);
        let mut buf = [0u8; 512];
        for _ in 0..40 {
            let (len, _) = client.recv_from(&mut buf).unwrap();
            assert!(MessagePeek::parse(&buf[..len]).unwrap().is_response());
        }
        let mut tokens: Vec<u64> = reflector.take_releases().iter().map(|r| r.0).collect();
        tokens.sort_unstable();
        assert_eq!(tokens, (0..40).collect::<Vec<u64>>());
    }

    #[test]
    fn held_reflector_holds_for_the_asked_time() {
        let hold = Duration::from_millis(2);
        let mut reflector = HeldReflector::bind(hold).unwrap();
        let client = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let (q, _) = query(9, "p7.bench.example");
        let mut buf = [0u8; 512];
        for round in 1..=5 {
            let sent = Instant::now();
            client.send_to(&q, reflector.addr()).unwrap();
            while reflector.released() < round {
                reflector.poll();
            }
            client.recv_from(&mut buf).unwrap();
            assert!(sent.elapsed() >= hold);
        }
        let log = reflector.finish();
        assert_eq!(log.len(), 5);
        for held in log {
            assert_eq!(held.token, Some(7));
            assert!(held.released.duration_since(held.received) >= hold);
        }
    }
}
