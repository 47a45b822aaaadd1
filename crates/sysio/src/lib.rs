//! The probe reactor's system-call layer: batched UDP I/O and the one
//! wait its event loops block in.
//!
//! A campaign tick wants to hand the kernel a whole burst of datagrams
//! (and drain a whole burst of replies) per syscall. Linux exposes this
//! as `sendmmsg(2)`/`recvmmsg(2)`; everywhere else — and on Linux when
//! `CDE_SYSIO_FALLBACK=1` is set — we degrade to a loop of one-datagram
//! `send_to`/`recv_from` calls with identical semantics.
//!
//! Batching the syscall does not batch the network stack, which is paid
//! per datagram. So on Linux [`send_batch`] also hands each run of two
//! or more consecutive datagrams with the same destination and the same
//! payload length (at most 512 bytes, so a segment fits any
//! Ethernet-class MTU) to the kernel as one `UDP_SEGMENT` message: one
//! trip through the UDP/IP stack per run, split back into separate
//! datagrams, boundaries intact, before the wire or the receiving socket
//! sees them. The first time the kernel refuses such a message (no
//! checksum offload on the egress device, `SO_NO_CHECK`), a
//! process-wide latch turns segmentation off and the unsent items go
//! out one message each — in the same call when the refused run leads
//! the batch, else on the caller's retry of the short count. Kernels
//! before 4.18, which cannot segment, are detected once and never
//! asked.
//!
//! The receive side mirrors this. A socket passed to
//! [`coalesce_receives`] asks the kernel (`UDP_GRO`, Linux 5.0 and
//! later) to deliver such a run as it arrived: one message, one trip up
//! the stack, with the segment size beside it. [`recv_batch`] records
//! that size in the [`RecvSlot`], and [`RecvSlot::datagrams`] cuts the
//! message back into the datagrams that were sent. Every slot can hold
//! the largest run the kernel delivers (64 KiB), in memory that is
//! committed only where a receive writes. Where the kernel cannot
//! coalesce, and on the portable backend, each message is one datagram
//! and `datagrams()` yields it alone.
//!
//! Between bursts a loop has to wait for whichever comes first of a
//! reply, a submission from another thread, or its next timer. A
//! [`Poller`] owns the loop's sockets and blocks on them and a
//! [`Waker`] in one `ppoll(2)` call with a sub-millisecond timeout; the
//! portable backend degrades to a bounded thread park (see [`poll`]).
//!
//! This is deliberately the *only* crate in the workspace that contains
//! `unsafe` code (the FFI structs and calls live in [`mmsg`] and
//! [`poll`], the receive slots' mappings in `mapped`, the SIGUSR1
//! latch in [`signal`], and the lock-free submission ring in
//! [`MpscRing`]); every other crate keeps
//! `#![forbid(unsafe_code)]`.
//!
//! The batch functions assume a non-blocking socket: "nothing to do
//! right now" is reported as `Ok(0)`, never as an `Err(WouldBlock)` the
//! caller has to pattern-match.
//!
//! # Examples
//!
//! ```
//! use cde_sysio::{recv_batch, send_batch, Poller, RecvSlot, SendItem};
//! use std::net::{SocketAddrV4, UdpSocket};
//! use std::time::Duration;
//!
//! # fn main() -> std::io::Result<()> {
//! let a = UdpSocket::bind("127.0.0.1:0")?;
//! let b = UdpSocket::bind("127.0.0.1:0")?;
//! a.set_nonblocking(true)?;
//! b.set_nonblocking(true)?;
//! let dest = match b.local_addr()? {
//!     std::net::SocketAddr::V4(v4) => v4,
//!     _ => unreachable!(),
//! };
//!
//! let sent = send_batch(&a, &[SendItem { payload: b"ping", dest }])?;
//! assert_eq!(sent, 1);
//!
//! let mut slots = vec![RecvSlot::new()];
//! // Block until the datagram lands, then drain it without blocking.
//! let mut poller = Poller::new(vec![b])?;
//! let mut got = 0;
//! while got == 0 {
//!     poller.wait(Some(Duration::from_secs(1)), || false);
//!     got = recv_batch(&poller.sockets()[0], &mut slots)?;
//! }
//! assert_eq!(slots[0].bytes(), b"ping");
//! assert_eq!(slots[0].datagrams().collect::<Vec<_>>(), [b"ping"]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

use std::io;
use std::net::{SocketAddrV4, UdpSocket};
use std::sync::OnceLock;

mod mapped;
#[cfg(target_os = "linux")]
mod mmsg;
pub mod poll;
mod ring;
pub mod signal;

pub use poll::{Poller, Wake, Waker};
pub use ring::MpscRing;
pub use signal::{take_sigusr1, watch_sigusr1};

/// Largest number of datagrams moved per batched syscall. Callers may
/// pass longer slices; the excess simply waits for the next call.
pub const MAX_BATCH: usize = 32;

/// One outbound datagram in a [`send_batch`] call.
#[derive(Debug, Clone, Copy)]
pub struct SendItem<'a> {
    /// Wire bytes to transmit.
    pub payload: &'a [u8],
    /// Destination address.
    pub dest: SocketAddrV4,
}

/// One reusable receive slot for [`recv_batch`].
///
/// A slot holds one received message: a single datagram, or — on a
/// socket that [`coalesce_receives`] — a whole segmented run, which
/// [`datagrams`](RecvSlot::datagrams) cuts back apart. Its 64 KiB
/// buffer holds the largest either can be, and is mapped once when the
/// slot is made; pages are committed as receives first write them, and
/// every later `recv_batch` call reuses them.
#[derive(Debug)]
pub struct RecvSlot {
    buf: mapped::SlotBuf,
    len: usize,
    from: Option<SocketAddrV4>,
    /// Bytes per datagram of a coalesced message; 0 for one datagram.
    segment: usize,
}

impl RecvSlot {
    /// Creates an empty slot.
    pub fn new() -> RecvSlot {
        RecvSlot {
            buf: mapped::SlotBuf::new(),
            len: 0,
            from: None,
            segment: 0,
        }
    }

    /// The message received into this slot by the last `recv_batch`
    /// call that filled it. Empty if the slot was not filled. On a
    /// coalescing socket this can be several datagrams back to back;
    /// [`datagrams`](RecvSlot::datagrams) separates them.
    pub fn bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }

    /// The datagrams of the received message, in the order they were
    /// sent: the message cut every segment size bytes (the last piece
    /// may be shorter) when the kernel coalesced a run, else the
    /// message itself. Nothing if the slot was not filled.
    pub fn datagrams(&self) -> Datagrams<'_> {
        Datagrams {
            rest: self.from.map(|_| self.bytes()),
            segment: if self.segment == 0 {
                usize::MAX
            } else {
                self.segment
            },
        }
    }

    /// Source address of the received message, if the slot was filled.
    /// All datagrams of a coalesced message share it: the kernel only
    /// merges datagrams of one flow.
    pub fn from(&self) -> Option<SocketAddrV4> {
        self.from
    }

    /// Clears the slot (receive functions do this implicitly).
    pub fn reset(&mut self) {
        self.len = 0;
        self.from = None;
        self.segment = 0;
    }

    /// Records a received message of `len` bytes from `from`, cut every
    /// `segment` bytes (0: one datagram).
    fn fill(&mut self, len: usize, from: SocketAddrV4, segment: usize) {
        self.len = len.min(self.buf.len());
        self.from = Some(from);
        self.segment = segment;
    }

    fn buf_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl Default for RecvSlot {
    fn default() -> Self {
        RecvSlot::new()
    }
}

/// Iterator over the datagrams of one received message; see
/// [`RecvSlot::datagrams`].
#[derive(Debug, Clone)]
pub struct Datagrams<'a> {
    rest: Option<&'a [u8]>,
    segment: usize,
}

impl<'a> Iterator for Datagrams<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let rest = self.rest?;
        if rest.len() > self.segment {
            let (head, tail) = rest.split_at(self.segment);
            self.rest = Some(tail);
            Some(head)
        } else {
            self.rest = None;
            Some(rest)
        }
    }
}

fn use_fallback() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var("CDE_SYSIO_FALLBACK").is_ok_and(|v| !v.is_empty() && v != "0")
    })
}

/// Name of the active backend: `"mmsg"` (batched Linux syscalls) or
/// `"fallback"` (portable one-datagram loop).
pub fn backend() -> &'static str {
    #[cfg(target_os = "linux")]
    {
        if !use_fallback() {
            return "mmsg";
        }
    }
    "fallback"
}

/// Asks the kernel to deliver each segmented run that reaches `sock`
/// as one message (`UDP_GRO`), which [`recv_batch`] and
/// [`RecvSlot::datagrams`] then split. Returns whether it will: `false`
/// on the portable backend, off Linux, and on kernels before 5.0, where
/// every datagram keeps arriving alone. Either way `sock` must only be
/// read through [`recv_batch`] afterwards.
pub fn coalesce_receives(sock: &UdpSocket) -> bool {
    #[cfg(target_os = "linux")]
    {
        if !use_fallback() {
            return mmsg::coalesce_receives(sock);
        }
    }
    let _ = sock;
    false
}

/// Sends up to [`MAX_BATCH`] datagrams from `items`, returning how many
/// the kernel accepted (a prefix of `items`).
///
/// Runs of same-destination, same-length items go out segmented (see
/// the [crate docs](crate)); the receiver still gets one datagram per
/// item, in order, and the count is still of items.
///
/// `Ok(0)` means the socket's send buffer is full right now — try again
/// after the next reactor tick.
///
/// # Errors
///
/// Any socket error other than `WouldBlock`/`Interrupted` (those map to
/// `Ok(0)` and a short count respectively).
pub fn send_batch(sock: &UdpSocket, items: &[SendItem<'_>]) -> io::Result<usize> {
    let items = &items[..items.len().min(MAX_BATCH)];
    if items.is_empty() {
        return Ok(0);
    }
    #[cfg(target_os = "linux")]
    {
        if !use_fallback() {
            return mmsg::send_batch(sock, items);
        }
    }
    fallback::send_batch(sock, items)
}

/// Receives up to `slots.len().min(MAX_BATCH)` messages, filling slots
/// from the front and returning how many were filled. A message is one
/// datagram, or a coalesced run on a socket that
/// [`coalesce_receives`]; read each slot through
/// [`RecvSlot::datagrams`].
///
/// `Ok(0)` means nothing is queued on the socket right now.
///
/// # Errors
///
/// Any socket error other than `WouldBlock`/`Interrupted`.
pub fn recv_batch(sock: &UdpSocket, slots: &mut [RecvSlot]) -> io::Result<usize> {
    let n = slots.len().min(MAX_BATCH);
    let slots = &mut slots[..n];
    if slots.is_empty() {
        return Ok(0);
    }
    #[cfg(target_os = "linux")]
    {
        if !use_fallback() {
            return mmsg::recv_batch(sock, slots);
        }
    }
    fallback::recv_batch(sock, slots)
}

/// Portable implementation: a loop of one-datagram std calls.
mod fallback {
    use super::{RecvSlot, SendItem};
    use std::io::{self, ErrorKind};
    use std::net::{SocketAddr, UdpSocket};

    pub fn send_batch(sock: &UdpSocket, items: &[SendItem<'_>]) -> io::Result<usize> {
        let mut sent = 0;
        for item in items {
            match sock.send_to(item.payload, SocketAddr::V4(item.dest)) {
                Ok(_) => sent += 1,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => break,
                Err(e) => {
                    if sent > 0 {
                        break;
                    }
                    return Err(e);
                }
            }
        }
        Ok(sent)
    }

    pub fn recv_batch(sock: &UdpSocket, slots: &mut [RecvSlot]) -> io::Result<usize> {
        let mut filled = 0;
        for slot in slots.iter_mut() {
            slot.reset();
            match sock.recv_from(slot.buf_mut()) {
                Ok((len, SocketAddr::V4(from))) => {
                    slot.fill(len, from, 0);
                    filled += 1;
                }
                // The engine is IPv4-only; skip the slot but keep going.
                Ok((_, SocketAddr::V6(_))) => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => break,
                Err(e) => {
                    if filled > 0 {
                        break;
                    }
                    return Err(e);
                }
            }
        }
        Ok(filled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::SocketAddr;

    fn pair() -> (UdpSocket, UdpSocket, SocketAddrV4) {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        let dest = match b.local_addr().unwrap() {
            SocketAddr::V4(v4) => v4,
            _ => unreachable!(),
        };
        (a, b, dest)
    }

    fn drain(sock: &UdpSocket, slots: &mut [RecvSlot], want: usize) -> usize {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        let mut got = 0;
        while got < want && std::time::Instant::now() < deadline {
            got += recv_batch(sock, &mut slots[got..]).unwrap();
            if got < want {
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
        }
        got
    }

    fn roundtrip(send: impl Fn(&UdpSocket, &[SendItem<'_>]) -> io::Result<usize>) {
        let (a, b, dest) = pair();
        let payloads: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 16 + i as usize]).collect();
        let items: Vec<SendItem<'_>> = payloads
            .iter()
            .map(|p| SendItem { payload: p, dest })
            .collect();
        assert_eq!(send(&a, &items).unwrap(), 5);

        let mut slots: Vec<RecvSlot> = (0..8).map(|_| RecvSlot::new()).collect();
        assert_eq!(drain(&b, &mut slots, 5), 5);
        let src = match a.local_addr().unwrap() {
            SocketAddr::V4(v4) => v4,
            _ => unreachable!(),
        };
        for (slot, payload) in slots.iter().zip(&payloads) {
            assert_eq!(slot.bytes(), &payload[..]);
            assert_eq!(slot.from(), Some(src));
        }
        // Unfilled slots stay empty.
        assert!(slots[5].bytes().is_empty());
        assert_eq!(slots[5].from(), None);
    }

    #[test]
    fn default_backend_roundtrips() {
        roundtrip(send_batch);
    }

    #[test]
    fn fallback_backend_roundtrips() {
        roundtrip(fallback::send_batch);
        // And fallback receive against default send.
        let (a, b, dest) = pair();
        let payload = b"xyz".to_vec();
        assert_eq!(
            send_batch(
                &a,
                &[SendItem {
                    payload: &payload,
                    dest
                }]
            )
            .unwrap(),
            1
        );
        let mut slots = [RecvSlot::new()];
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        let mut got = 0;
        while got == 0 && std::time::Instant::now() < deadline {
            got = fallback::recv_batch(&b, &mut slots).unwrap();
        }
        assert_eq!(got, 1);
        assert_eq!(slots[0].bytes(), b"xyz");
    }

    thread_local! {
        static ALLOCATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// Counts heap allocations per thread, so a test can say the code it
    /// ran made none whatever the tests beside it are doing.
    struct CountingAllocator;

    // SAFETY: every call goes to `System` unchanged; the only addition
    // is a thread-local counter with a const initialiser and no
    // destructor, which neither allocates nor can be re-entered.
    unsafe impl std::alloc::GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
            // SAFETY: the caller's obligations for `alloc` are `System`'s.
            unsafe { std::alloc::System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
            // SAFETY: `ptr` came from `System.alloc` with this `layout`.
            unsafe { std::alloc::System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(
            &self,
            ptr: *mut u8,
            layout: std::alloc::Layout,
            new_size: usize,
        ) -> *mut u8 {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
            // SAFETY: `ptr` came from `System.alloc` with this `layout`.
            unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAllocator = CountingAllocator;

    /// The syscall seam sits on the reactor's zero-alloc hot path: once
    /// the caller's slots exist, a send + receive round touches the heap
    /// on neither backend.
    #[test]
    fn warm_batch_round_allocates_nothing() {
        type Send = fn(&UdpSocket, &[SendItem<'_>]) -> io::Result<usize>;
        type Recv = fn(&UdpSocket, &mut [RecvSlot]) -> io::Result<usize>;
        // The mmsg receiver once as is and once coalescing, where the
        // eight same-size datagrams arrive as one message.
        let mut runs: Vec<(&str, Send, Recv, bool)> = vec![(
            "fallback",
            fallback::send_batch,
            fallback::recv_batch,
            false,
        )];
        #[cfg(target_os = "linux")]
        runs.extend([
            (
                "mmsg",
                mmsg::send_batch as Send,
                mmsg::recv_batch as Recv,
                false,
            ),
            ("mmsg coalescing", mmsg::send_batch, mmsg::recv_batch, true),
        ]);
        for (name, send, recv, coalesce) in runs {
            let (a, b, dest) = pair();
            if coalesce {
                assert!(mmsg::coalesce_receives(&b), "{name}");
            }
            let payload = [7u8; 24];
            let items = [SendItem {
                payload: &payload,
                dest,
            }; 8];
            let mut slots: Vec<RecvSlot> = (0..8).map(|_| RecvSlot::new()).collect();
            let messages = if coalesce { 1 } else { 8 };
            // Loopback delivery is synchronous: what `send` accepted is
            // queued on `b` when it returns. The first round is the
            // warm-up; the second is the one counted.
            for counted in [false, true] {
                let before = ALLOCATIONS.with(std::cell::Cell::get);
                assert_eq!(send(&a, &items).unwrap(), 8, "{name}");
                assert_eq!(recv(&b, &mut slots).unwrap(), messages, "{name}");
                let datagrams: usize = slots.iter().map(|s| s.datagrams().count()).sum();
                let allocated = ALLOCATIONS.with(std::cell::Cell::get) - before;
                assert_eq!(datagrams, 8, "{name}");
                if counted {
                    assert_eq!(allocated, 0, "{name}: allocations in a warm round");
                }
            }
            assert_eq!(slots[messages - 1].datagrams().last(), Some(&payload[..]));
        }
    }

    /// A 3 000-byte datagram arrives whole, untruncated, on both
    /// backends.
    #[test]
    fn large_datagram_arrives_whole_on_both_backends() {
        type Recv = fn(&UdpSocket, &mut [RecvSlot]) -> io::Result<usize>;
        let mut backends: Vec<(&str, Recv)> = vec![("fallback", fallback::recv_batch)];
        #[cfg(target_os = "linux")]
        backends.push(("mmsg", mmsg::recv_batch));
        for (name, recv) in backends {
            let (a, b, dest) = pair();
            let payload: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
            a.send_to(&payload, dest).unwrap();
            let mut slots = [RecvSlot::new()];
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
            while recv(&b, &mut slots).unwrap() == 0 && std::time::Instant::now() < deadline {}
            assert_eq!(slots[0].bytes(), &payload[..], "{name}");
            assert_eq!(slots[0].datagrams().count(), 1, "{name}");
        }
    }

    #[test]
    fn datagrams_cut_a_message_at_its_segment_size() {
        let from = SocketAddrV4::new(std::net::Ipv4Addr::LOCALHOST, 53);
        let mut slot = RecvSlot::new();
        assert_eq!(slot.datagrams().count(), 0, "an unfilled slot has none");
        slot.buf_mut()[..10].copy_from_slice(b"aaaabbbbcc");
        slot.fill(10, from, 4);
        let pieces: Vec<&[u8]> = slot.datagrams().collect();
        assert_eq!(pieces, [&b"aaaa"[..], b"bbbb", b"cc"]);
        slot.fill(10, from, 0);
        assert_eq!(slot.datagrams().collect::<Vec<_>>(), [&b"aaaabbbbcc"[..]]);
        // An empty datagram is still one datagram.
        slot.fill(0, from, 0);
        assert_eq!(slot.datagrams().collect::<Vec<_>>(), [&b""[..]]);
    }

    #[test]
    fn coalescing_is_off_on_the_portable_backend() {
        let (a, _b, _dest) = pair();
        if backend() == "fallback" {
            assert!(!coalesce_receives(&a));
        }
    }

    #[test]
    fn empty_batches_are_noops() {
        let (a, _b, _dest) = pair();
        assert_eq!(send_batch(&a, &[]).unwrap(), 0);
        assert_eq!(recv_batch(&a, &mut []).unwrap(), 0);
    }

    #[test]
    fn recv_on_idle_socket_returns_zero() {
        let (a, _b, _dest) = pair();
        let mut slots = [RecvSlot::new()];
        assert_eq!(recv_batch(&a, &mut slots).unwrap(), 0);
    }

    #[test]
    fn backend_reports_a_known_name() {
        assert!(matches!(backend(), "mmsg" | "fallback"));
    }

    #[test]
    fn batch_larger_than_max_is_clamped() {
        let (a, b, dest) = pair();
        let payload = [7u8; 8];
        let items: Vec<SendItem<'_>> = (0..MAX_BATCH + 9)
            .map(|_| SendItem {
                payload: &payload,
                dest,
            })
            .collect();
        assert_eq!(send_batch(&a, &items).unwrap(), MAX_BATCH);
        let mut slots: Vec<RecvSlot> = (0..MAX_BATCH + 9).map(|_| RecvSlot::new()).collect();
        assert_eq!(drain(&b, &mut slots, MAX_BATCH), MAX_BATCH);
    }
}
