//! When the kernel refuses a segmented send, `send_batch` latches
//! segmentation off for the process and still delivers every datagram.
//!
//! `SO_NO_CHECK` (UDP checksums off) makes Linux refuse `UDP_SEGMENT`
//! with `EINVAL`. The latch is process-wide, so this test lives in its
//! own binary where it cannot turn segmentation off under the unit
//! tests. On the portable backend nothing is segmented and the same
//! assertions hold.

use cde_sysio::{recv_batch, send_batch, RecvSlot, SendItem, MAX_BATCH};
use std::net::{SocketAddr, SocketAddrV4, UdpSocket};
use std::time::{Duration, Instant};

#[cfg(target_os = "linux")]
fn disable_checksums(sock: &UdpSocket) {
    use std::os::fd::AsRawFd;
    const SOL_SOCKET: i32 = 1;
    const SO_NO_CHECK: i32 = 11;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const u8, len: u32) -> i32;
    }
    let on: i32 = 1;
    // SAFETY: `on` is a live local of the 4 bytes passed as its length;
    // the fd is a valid socket.
    let rc = unsafe {
        setsockopt(
            sock.as_raw_fd(),
            SOL_SOCKET,
            SO_NO_CHECK,
            (&on as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_NO_CHECK)");
}

#[cfg(not(target_os = "linux"))]
fn disable_checksums(_: &UdpSocket) {}

#[test]
fn refused_segmentation_falls_back_and_delivers_every_datagram() {
    let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
    let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
    tx.set_nonblocking(true).unwrap();
    rx.set_nonblocking(true).unwrap();
    disable_checksums(&tx);
    let dest: SocketAddrV4 = match rx.local_addr().unwrap() {
        SocketAddr::V4(v4) => v4,
        _ => unreachable!(),
    };
    // Two calls of one same-target, same-length run each: the first is
    // refused and resent unsegmented, the second finds the latch set.
    let payloads: Vec<Vec<u8>> = (0..2 * MAX_BATCH)
        .map(|i| (0..40).map(|j| (i * 7 + j) as u8).collect())
        .collect();
    for call in payloads.chunks(MAX_BATCH) {
        let items: Vec<SendItem<'_>> = call.iter().map(|p| SendItem { payload: p, dest }).collect();
        assert_eq!(send_batch(&tx, &items).unwrap(), MAX_BATCH);
    }

    let mut slots: Vec<RecvSlot> = (0..MAX_BATCH).map(|_| RecvSlot::new()).collect();
    let mut got: Vec<Vec<u8>> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(2);
    while got.len() < payloads.len() && Instant::now() < deadline {
        let n = recv_batch(&rx, &mut slots).unwrap();
        got.extend(slots[..n].iter().map(|s| s.bytes().to_vec()));
    }
    assert_eq!(got, payloads);
}
