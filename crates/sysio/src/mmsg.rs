//! Linux `sendmmsg(2)`/`recvmmsg(2)` via direct FFI.
//!
//! The workspace vendors no `libc` crate, but `std` already links
//! against the platform C library, so declaring the two symbols (plus
//! the handful of `repr(C)` structs from `<bits/socket.h>`) is all the
//! binding we need. Layouts below match glibc on every 64-bit Linux
//! target; the struct-size assertions in the tests pin them.
//!
//! All `unsafe` in the workspace is confined to this crate.

use super::{RecvSlot, SendItem};
use std::io::{self, ErrorKind};
use std::net::{Ipv4Addr, SocketAddrV4, UdpSocket};
use std::os::fd::AsRawFd;

const AF_INET: u16 = 2;
const MSG_DONTWAIT: i32 = 0x40;

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
}

fn soft_error(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted)
}

pub fn send_batch(sock: &UdpSocket, items: &[SendItem<'_>]) -> io::Result<usize> {
    debug_assert!(items.len() <= super::MAX_BATCH);
    let mut addrs = [SockAddrIn::zeroed(); super::MAX_BATCH];
    let mut iovecs: [IoVec; super::MAX_BATCH] = std::array::from_fn(|_| IoVec {
        base: std::ptr::null_mut(),
        len: 0,
    });
    let mut hdrs = [MMsgHdr::EMPTY; super::MAX_BATCH];
    for (i, item) in items.iter().enumerate() {
        addrs[i] = SockAddrIn::from_v4(item.dest);
        iovecs[i] = IoVec {
            // sendmmsg only reads the buffer; the mut cast is an API
            // artefact of the shared iovec type.
            base: item.payload.as_ptr() as *mut u8,
            len: item.payload.len(),
        };
        hdrs[i] = MMsgHdr {
            hdr: MsgHdr {
                name: &mut addrs[i],
                namelen: std::mem::size_of::<SockAddrIn>() as u32,
                iov: &mut iovecs[i],
                iovlen: 1,
                control: std::ptr::null_mut(),
                controllen: 0,
                flags: 0,
            },
            len: 0,
        };
    }
    // SAFETY: every pointer in the first `items.len()` headers — all
    // that vlen lets the kernel touch — targets a live stack slot
    // (`addrs`, `iovecs`) or one of the caller's payloads, and all of
    // them outlive the call; the fd is a valid UDP socket.
    let rc = unsafe {
        sendmmsg(
            sock.as_raw_fd(),
            hdrs.as_mut_ptr(),
            items.len() as u32,
            MSG_DONTWAIT,
        )
    };
    if rc < 0 {
        let e = io::Error::last_os_error();
        if soft_error(&e) {
            return Ok(0);
        }
        return Err(e);
    }
    Ok(rc as usize)
}

pub fn recv_batch(sock: &UdpSocket, slots: &mut [RecvSlot]) -> io::Result<usize> {
    debug_assert!(slots.len() <= super::MAX_BATCH);
    let mut addrs = [SockAddrIn::zeroed(); super::MAX_BATCH];
    let mut iovecs: [IoVec; super::MAX_BATCH] = std::array::from_fn(|_| IoVec {
        base: std::ptr::null_mut(),
        len: 0,
    });
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
                control: std::ptr::null_mut(),
                controllen: 0,
                flags: 0,
            },
            len: 0,
        };
    }
    // SAFETY: as in send_batch — the first `slots.len()` headers point
    // at live buffers that outlive the call and vlen stops the kernel
    // there; a null timeout means "no timeout" (we pass MSG_DONTWAIT so
    // the call never blocks).
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
            slots[i].fill(hdr.len as usize, from);
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
    }

    #[test]
    fn sockaddr_roundtrips() {
        let sa = SocketAddrV4::new(Ipv4Addr::new(127, 0, 0, 1), 5353);
        assert_eq!(SockAddrIn::from_v4(sa).to_v4(), Some(sa));
        assert_eq!(SockAddrIn::zeroed().to_v4(), None);
    }

    #[test]
    fn mmsg_roundtrip_over_loopback() {
        let a = UdpSocket::bind("127.0.0.1:0").unwrap();
        let b = UdpSocket::bind("127.0.0.1:0").unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        let dest = match b.local_addr().unwrap() {
            std::net::SocketAddr::V4(v4) => v4,
            _ => unreachable!(),
        };
        let payloads: Vec<Vec<u8>> = (0..4u8).map(|i| vec![0xA0 | i; 12]).collect();
        let items: Vec<SendItem<'_>> = payloads
            .iter()
            .map(|p| SendItem { payload: p, dest })
            .collect();
        assert_eq!(send_batch(&a, &items).unwrap(), 4);

        let mut slots: Vec<RecvSlot> = (0..4).map(|_| RecvSlot::new()).collect();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        let mut got = 0;
        while got < 4 && std::time::Instant::now() < deadline {
            got += recv_batch(&b, &mut slots[got..]).unwrap();
        }
        assert_eq!(got, 4);
        for (slot, payload) in slots.iter().zip(&payloads) {
            assert_eq!(slot.bytes(), &payload[..]);
        }
    }
}
