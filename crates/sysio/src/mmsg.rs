//! Linux `sendmmsg(2)`/`recvmmsg(2)` via direct FFI.
//!
//! The workspace vendors no `libc` crate, but `std` already links
//! against the platform C library, so declaring the few symbols (plus
//! the handful of `repr(C)` structs from `<bits/socket.h>`) is all the
//! binding we need. Layouts below match glibc on every 64-bit Linux
//! target; the struct-size assertions in the tests pin them.
//!
//! `send_batch` hands each run of two or more consecutive same-size
//! datagrams to one destination to the kernel as a single
//! `UDP_SEGMENT` message: one trip through the UDP/IP stack for the
//! whole run, split back into separate datagrams before they reach the
//! wire or the receiving socket. Direct enumeration is exactly such
//! runs — `q` identical queries for one honey name to one ingress.
//!
//! `recv_batch` is the mirror image: on a socket that
//! `coalesce_receives` set `UDP_GRO` on, the kernel delivers such a run
//! as one message and names its segment size in a control message,
//! which the slot records so the caller can cut the run apart.
//!
//! All `unsafe` in the workspace is confined to this crate.

use super::{RecvSlot, SendItem};
use std::io::{self, ErrorKind};
use std::net::{Ipv4Addr, SocketAddrV4, UdpSocket};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

const AF_INET: u16 = 2;
const MSG_DONTWAIT: i32 = 0x40;
const SOL_UDP: i32 = 17;
const UDP_SEGMENT: i32 = 103;
const UDP_GRO: i32 = 104;
const EIO: i32 = 5;
const EINVAL: i32 = 22;

/// Longest payload that joins a segmented run. Each segment plus its
/// IP and UDP headers must fit the egress MTU or the kernel refuses the
/// whole message; 512 bytes — the classic DNS-over-UDP ceiling — fits
/// any Ethernet-class link with room to spare, and a probe or its reply
/// is far smaller.
const MAX_SEGMENT_LEN: usize = 512;

// The kernel caps a segmented message at `UDP_MAX_SEGMENTS` segments
// (64 on older kernels); a run never spans more than one batch.
const _: () = assert!(super::MAX_BATCH <= 64);

/// Set, for the rest of the process, the first time the kernel refuses
/// a segmented message; every later batch goes out unsegmented.
static SEGMENTATION_REFUSED: AtomicBool = AtomicBool::new(false);

/// `struct iovec`.
#[repr(C)]
struct IoVec {
    base: *mut u8,
    len: usize,
}

/// `struct sockaddr_in` (always 16 bytes).
#[repr(C)]
#[derive(Clone, Copy)]
struct SockAddrIn {
    family: u16,
    /// Network byte order.
    port: u16,
    /// Network byte order.
    addr: u32,
    zero: [u8; 8],
}

impl SockAddrIn {
    fn from_v4(sa: SocketAddrV4) -> SockAddrIn {
        SockAddrIn {
            family: AF_INET,
            port: sa.port().to_be(),
            addr: u32::from(*sa.ip()).to_be(),
            zero: [0; 8],
        }
    }

    fn to_v4(self) -> Option<SocketAddrV4> {
        if self.family != AF_INET {
            return None;
        }
        Some(SocketAddrV4::new(
            Ipv4Addr::from(u32::from_be(self.addr)),
            u16::from_be(self.port),
        ))
    }

    fn zeroed() -> SockAddrIn {
        SockAddrIn {
            family: 0,
            port: 0,
            addr: 0,
            zero: [0; 8],
        }
    }
}

/// `struct msghdr` (glibc, 64-bit).
#[repr(C)]
struct MsgHdr {
    name: *mut SockAddrIn,
    namelen: u32,
    iov: *mut IoVec,
    iovlen: usize,
    control: *mut u8,
    controllen: usize,
    flags: i32,
}

/// A `struct cmsghdr` carrying one `u16`: the `SOL_UDP`/`UDP_SEGMENT`
/// control message, padded to `CMSG_SPACE(2)`.
#[repr(C)]
#[derive(Clone, Copy)]
struct SegmentCmsg {
    /// `CMSG_LEN(2)`: header plus data, without the trailing pad.
    len: usize,
    level: i32,
    kind: i32,
    /// Bytes per segment; the kernel cuts the message's payload here.
    gso_size: u16,
    pad: [u8; 6],
}

impl SegmentCmsg {
    fn new(gso_size: u16) -> SegmentCmsg {
        SegmentCmsg {
            len: 16 + 2,
            level: SOL_UDP,
            kind: UDP_SEGMENT,
            gso_size,
            pad: [0; 6],
        }
    }
}

/// A `struct cmsghdr` carrying one `int`: the `SOL_UDP`/`UDP_GRO`
/// control message a coalescing socket gets beside each coalesced run,
/// padded to `CMSG_SPACE(4)`.
#[repr(C)]
#[derive(Clone, Copy)]
struct GroCmsg {
    /// `CMSG_LEN(4)` when the kernel wrote one.
    len: usize,
    level: i32,
    kind: i32,
    /// Bytes per datagram of the run; the last may be shorter.
    gso_size: i32,
    pad: [u8; 4],
}

impl GroCmsg {
    const EMPTY: GroCmsg = GroCmsg {
        len: 0,
        level: 0,
        kind: 0,
        gso_size: 0,
        pad: [0; 4],
    };

    /// The segment size this control message reports, if the kernel
    /// wrote at least `CMSG_LEN(4)` bytes of it (`written`, the header's
    /// `controllen` after the call) and it is a `UDP_GRO` message.
    fn segment(&self, written: usize) -> Option<usize> {
        let complete = written >= 16 + 4;
        (complete && self.level == SOL_UDP && self.kind == UDP_GRO && self.gso_size > 0)
            .then_some(self.gso_size as usize)
    }
}

/// `struct mmsghdr`.
#[repr(C)]
struct MMsgHdr {
    hdr: MsgHdr,
    len: u32,
}

impl MMsgHdr {
    /// All zeroes and nulls: what the unused tail of a batch's header
    /// array holds. The headers live on the stack beside the arrays they
    /// point into — a batched call allocates nothing.
    const EMPTY: MMsgHdr = MMsgHdr {
        hdr: MsgHdr {
            name: std::ptr::null_mut(),
            namelen: 0,
            iov: std::ptr::null_mut(),
            iovlen: 0,
            control: std::ptr::null_mut(),
            controllen: 0,
            flags: 0,
        },
        len: 0,
    };
}

extern "C" {
    fn sendmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
    fn recvmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32, timeout: *mut u8) -> i32;
    fn getsockopt(fd: i32, level: i32, name: i32, value: *mut u8, len: *mut u32) -> i32;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const u8, len: u32) -> i32;
}

fn soft_error(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted)
}

pub fn send_batch(sock: &UdpSocket, items: &[SendItem<'_>]) -> io::Result<usize> {
    debug_assert!(items.len() <= super::MAX_BATCH);
    let segment = items.len() > 1 && segmentation_on(sock);
    let result = match send_messages(sock, items, segment) {
        // A refusal of the batch's first message — a segmented run —
        // rejects the mechanism, not the datagrams: latch segmentation
        // off and send the same items again, one message each. A refusal
        // behind an accepted message surfaces as a short count instead
        // (sendmmsg drops the error), and the caller's next call meets
        // that run first.
        Err(e) if segment && joins(&items[0], &items[1]) && refused(&e) => {
            SEGMENTATION_REFUSED.store(true, Ordering::Relaxed);
            send_messages(sock, items, false)
        }
        result => result,
    };
    match result {
        Err(e) if soft_error(&e) => Ok(0),
        result => result,
    }
}

/// Whether `next` extends a segmented run that `prev` is part of.
fn joins(prev: &SendItem<'_>, next: &SendItem<'_>) -> bool {
    let len = next.payload.len();
    prev.dest == next.dest && prev.payload.len() == len && (1..=MAX_SEGMENT_LEN).contains(&len)
}

/// `EINVAL` (no checksum offload for the socket — `SO_NO_CHECK` — or an
/// oversized segment) or `EIO` (an egress device that cannot segment).
fn refused(e: &io::Error) -> bool {
    matches!(e.raw_os_error(), Some(EIO | EINVAL))
}

fn segmentation_on(sock: &UdpSocket) -> bool {
    static SUPPORTED: OnceLock<bool> = OnceLock::new();
    !SEGMENTATION_REFUSED.load(Ordering::Relaxed)
        && *SUPPORTED.get_or_init(|| supports_udp_segment(sock))
}

/// Linux 4.18 and later answer `getsockopt(SOL_UDP, UDP_SEGMENT)`.
/// Older kernels return `ENOPROTOOPT` — and would skip the unknown
/// control message and send a run as one concatenated datagram, so
/// segmentation waits for this answer.
fn supports_udp_segment(sock: &UdpSocket) -> bool {
    let mut value: i32 = 0;
    let mut len = std::mem::size_of::<i32>() as u32;
    // SAFETY: `value` and `len` are live locals the kernel writes at
    // most `len` (4) bytes into; the fd is a valid socket.
    let rc = unsafe {
        getsockopt(
            sock.as_raw_fd(),
            SOL_UDP,
            UDP_SEGMENT,
            (&mut value as *mut i32).cast(),
            &mut len,
        )
    };
    rc == 0
}

/// Turns `UDP_GRO` on for `sock`: a segmented run then arrives as one
/// message. Kernels before 5.0 refuse with `ENOPROTOOPT`.
pub fn coalesce_receives(sock: &UdpSocket) -> bool {
    let on: i32 = 1;
    // SAFETY: `on` is a live local of the 4 bytes passed as its length;
    // the fd is a valid socket.
    let rc = unsafe {
        setsockopt(
            sock.as_raw_fd(),
            SOL_UDP,
            UDP_GRO,
            (&on as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        )
    };
    rc == 0
}

/// One `sendmmsg` over `items`: a message per item, or with `segment`
/// a message per maximal run of items that [`joins`] links. Returns how
/// many leading items went out; a segmented message is all-or-nothing,
/// so that is the sum of the accepted messages' run lengths.
fn send_messages(sock: &UdpSocket, items: &[SendItem<'_>], segment: bool) -> io::Result<usize> {
    let mut addrs = [SockAddrIn::zeroed(); super::MAX_BATCH];
    let mut iovecs: [IoVec; super::MAX_BATCH] = std::array::from_fn(|_| IoVec {
        base: std::ptr::null_mut(),
        len: 0,
    });
    let mut cmsgs = [SegmentCmsg::new(0); super::MAX_BATCH];
    // Items per message, in send order; a run's iovecs are contiguous.
    let mut runs = [0usize; super::MAX_BATCH];
    let mut msgs = 0;
    for (i, item) in items.iter().enumerate() {
        addrs[i] = SockAddrIn::from_v4(item.dest);
        iovecs[i] = IoVec {
            // sendmmsg only reads the buffer; the mut cast is an API
            // artefact of the shared iovec type.
            base: item.payload.as_ptr() as *mut u8,
            len: item.payload.len(),
        };
        if segment && i > 0 && joins(&items[i - 1], item) {
            runs[msgs - 1] += 1;
            // `joins` bounds the length by MAX_SEGMENT_LEN.
            cmsgs[msgs - 1] = SegmentCmsg::new(item.payload.len() as u16);
        } else {
            runs[msgs] = 1;
            msgs += 1;
        }
    }
    // Every slot is written before any pointer into them is taken, so no
    // later write can invalidate one.
    let (addr, iov, cmsg) = (addrs.as_mut_ptr(), iovecs.as_mut_ptr(), cmsgs.as_mut_ptr());
    let mut hdrs = [MMsgHdr::EMPTY; super::MAX_BATCH];
    let mut first = 0;
    for (m, hdr) in hdrs.iter_mut().take(msgs).enumerate() {
        let (control, controllen) = if runs[m] > 1 {
            (
                cmsg.wrapping_add(m).cast::<u8>(),
                std::mem::size_of::<SegmentCmsg>(),
            )
        } else {
            (std::ptr::null_mut(), 0)
        };
        hdr.hdr = MsgHdr {
            name: addr.wrapping_add(first),
            namelen: std::mem::size_of::<SockAddrIn>() as u32,
            iov: iov.wrapping_add(first),
            iovlen: runs[m],
            control,
            controllen,
            flags: 0,
        };
        first += runs[m];
    }
    // SAFETY: every pointer in the first `msgs` headers — all that vlen
    // lets the kernel touch — targets a live stack slot (`addrs`,
    // `iovecs`, `cmsgs`, each indexed below `items.len()`) or one of the
    // caller's payloads, and all of them outlive the call; a run's
    // `iovlen` iovecs are contiguous and in bounds because the runs
    // partition `items`. The fd is a valid UDP socket.
    let rc = unsafe {
        sendmmsg(
            sock.as_raw_fd(),
            hdrs.as_mut_ptr(),
            msgs as u32,
            MSG_DONTWAIT,
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(runs[..rc as usize].iter().sum())
}

pub fn recv_batch(sock: &UdpSocket, slots: &mut [RecvSlot]) -> io::Result<usize> {
    debug_assert!(slots.len() <= super::MAX_BATCH);
    let mut addrs = [SockAddrIn::zeroed(); super::MAX_BATCH];
    let mut iovecs: [IoVec; super::MAX_BATCH] = std::array::from_fn(|_| IoVec {
        base: std::ptr::null_mut(),
        len: 0,
    });
    // Room for one control message per slot. Only a coalescing socket
    // gets one, and only beside a coalesced run.
    let mut cmsgs = [GroCmsg::EMPTY; super::MAX_BATCH];
    let mut hdrs = [MMsgHdr::EMPTY; super::MAX_BATCH];
    for (i, slot) in slots.iter_mut().enumerate() {
        slot.reset();
        let buf = slot.buf_mut();
        iovecs[i] = IoVec {
            base: buf.as_mut_ptr(),
            len: buf.len(),
        };
        hdrs[i] = MMsgHdr {
            hdr: MsgHdr {
                name: &mut addrs[i],
                namelen: std::mem::size_of::<SockAddrIn>() as u32,
                iov: &mut iovecs[i],
                iovlen: 1,
                control: (&mut cmsgs[i] as *mut GroCmsg).cast(),
                controllen: std::mem::size_of::<GroCmsg>(),
                flags: 0,
            },
            len: 0,
        };
    }
    // SAFETY: as in send_messages — the first `slots.len()` headers point
    // at live buffers (the slots' mappings and the stack arrays, each
    // `controllen` or `iov_len` bytes long) that outlive the call, and
    // vlen stops the kernel there; a null timeout means "no timeout" (we
    // pass MSG_DONTWAIT so the call never blocks).
    let rc = unsafe {
        recvmmsg(
            sock.as_raw_fd(),
            hdrs.as_mut_ptr(),
            slots.len() as u32,
            MSG_DONTWAIT,
            std::ptr::null_mut(),
        )
    };
    if rc < 0 {
        let e = io::Error::last_os_error();
        if soft_error(&e) {
            return Ok(0);
        }
        return Err(e);
    }
    let filled = rc as usize;
    for (i, hdr) in hdrs.iter().take(filled).enumerate() {
        if let Some(from) = addrs[i].to_v4() {
            let segment = cmsgs[i].segment(hdr.hdr.controllen).unwrap_or(0);
            slots[i].fill(hdr.len as usize, from, segment);
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn struct_layouts_match_glibc() {
        // Pin the ABI this module hand-declares. If any of these fire,
        // the FFI structs no longer match the platform's C library.
        assert_eq!(std::mem::size_of::<SockAddrIn>(), 16);
        assert_eq!(std::mem::size_of::<IoVec>(), 16);
        assert_eq!(std::mem::size_of::<MsgHdr>(), 56);
        assert_eq!(std::mem::size_of::<MMsgHdr>(), 64);
        assert_eq!(std::mem::align_of::<MMsgHdr>(), 8);
        // CMSG_SPACE(sizeof(uint16_t)) on LP64.
        assert_eq!(std::mem::size_of::<SegmentCmsg>(), 24);
        assert_eq!(std::mem::align_of::<SegmentCmsg>(), 8);
        // CMSG_SPACE(sizeof(int)) on LP64, data at CMSG_DATA (16).
        assert_eq!(std::mem::size_of::<GroCmsg>(), 24);
        assert_eq!(std::mem::align_of::<GroCmsg>(), 8);
        assert_eq!(std::mem::offset_of!(GroCmsg, gso_size), 16);
    }

    #[test]
    fn sockaddr_roundtrips() {
        let sa = SocketAddrV4::new(Ipv4Addr::new(127, 0, 0, 1), 5353);
        assert_eq!(SockAddrIn::from_v4(sa).to_v4(), Some(sa));
        assert_eq!(SockAddrIn::zeroed().to_v4(), None);
    }

    fn bound() -> (UdpSocket, SocketAddrV4) {
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.set_nonblocking(true).unwrap();
        let addr = match sock.local_addr().unwrap() {
            std::net::SocketAddr::V4(v4) => v4,
            _ => unreachable!(),
        };
        (sock, addr)
    }

    /// A bound socket that asks for coalesced receives.
    fn coalescing() -> (UdpSocket, SocketAddrV4) {
        let (sock, addr) = bound();
        assert!(coalesce_receives(&sock), "UDP_GRO needs Linux 5.0 or later");
        (sock, addr)
    }

    /// Receives until `want` datagrams have arrived or two seconds pass;
    /// returns them, and the number of messages they came in.
    fn drain_messages(sock: &UdpSocket, want: usize) -> (Vec<Vec<u8>>, usize) {
        let mut slots: Vec<RecvSlot> = (0..super::super::MAX_BATCH)
            .map(|_| RecvSlot::new())
            .collect();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        let (mut got, mut messages) = (Vec::new(), 0);
        while got.len() < want && std::time::Instant::now() < deadline {
            let n = recv_batch(sock, &mut slots).unwrap();
            messages += n;
            got.extend(
                slots[..n]
                    .iter()
                    .flat_map(|s| s.datagrams().map(<[u8]>::to_vec)),
            );
        }
        (got, messages)
    }

    fn drain(sock: &UdpSocket, want: usize) -> Vec<Vec<u8>> {
        drain_messages(sock, want).0
    }

    /// Runs split by destination, by payload length and around payloads
    /// too long to segment, with singletons between them, all in one
    /// call: every datagram arrives alone, byte-exact, in send order.
    #[test]
    fn mixed_batch_segments_runs_and_keeps_boundaries() {
        mixed_batch(bound);
    }

    /// The same batch to receivers that coalesce: runs arrive as one
    /// message each, and cutting them at the reported segment size gives
    /// back the same datagrams in the same order.
    #[test]
    fn mixed_batch_to_coalescing_receivers_keeps_boundaries() {
        mixed_batch(coalescing);
    }

    fn mixed_batch(receiver: fn() -> (UdpSocket, SocketAddrV4)) {
        let (tx, _) = bound();
        let (rx_a, a) = receiver();
        let (rx_b, b) = receiver();
        // (destination, payload length) per item, in send order.
        let plan: Vec<(SocketAddrV4, usize)> = [
            (a, 20, 4),  // run
            (b, 20, 3),  // split by destination
            (b, 21, 2),  // split by length
            (a, 30, 1),  // singleton
            (a, 600, 3), // too long to segment: three singletons
            (a, 512, 2), // run at the cap
            (b, 7, 1),   // singleton
            (a, 20, 2),  // run
        ]
        .iter()
        .flat_map(|&(dest, len, k)| std::iter::repeat_n((dest, len), k))
        .collect();
        let payloads: Vec<Vec<u8>> = plan
            .iter()
            .enumerate()
            .map(|(i, &(_, len))| (0..len).map(|j| (i * 31 + j) as u8).collect())
            .collect();
        let items: Vec<SendItem<'_>> = plan
            .iter()
            .zip(&payloads)
            .map(|(&(dest, _), p)| SendItem { payload: p, dest })
            .collect();
        assert_eq!(send_batch(&tx, &items).unwrap(), items.len());
        for (rx, addr) in [(&rx_a, a), (&rx_b, b)] {
            let want: Vec<Vec<u8>> = plan
                .iter()
                .zip(&payloads)
                .filter(|((dest, _), _)| *dest == addr)
                .map(|(_, p)| p.clone())
                .collect();
            assert_eq!(drain(rx, want.len()), want);
        }
    }

    /// A 20-datagram run to a coalescing socket fills one slot whose
    /// datagrams are the payloads, byte for byte.
    #[test]
    fn segmented_run_arrives_as_one_coalesced_message() {
        let (tx, _) = bound();
        let (rx, dest) = coalescing();
        let payloads: Vec<Vec<u8>> = (0..20u8)
            .map(|i| (0..45).map(|j| i ^ j).collect())
            .collect();
        let items: Vec<SendItem<'_>> = payloads
            .iter()
            .map(|p| SendItem { payload: p, dest })
            .collect();
        assert_eq!(send_batch(&tx, &items).unwrap(), 20);
        let (got, messages) = drain_messages(&rx, 20);
        assert_eq!(got, payloads);
        assert_eq!(messages, 1, "the run was not coalesced");
    }

    #[test]
    fn mmsg_roundtrip_over_loopback() {
        let (a, _) = bound();
        let (b, dest) = bound();
        let payloads: Vec<Vec<u8>> = (0..4u8).map(|i| vec![0xA0 | i; 12]).collect();
        let items: Vec<SendItem<'_>> = payloads
            .iter()
            .map(|p| SendItem { payload: p, dest })
            .collect();
        assert_eq!(send_batch(&a, &items).unwrap(), 4);
        assert_eq!(drain(&b, 4), payloads);
    }
}
