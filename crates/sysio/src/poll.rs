//! One blocking wait over a fixed set of UDP sockets plus a cross-thread
//! waker.
//!
//! An event loop that polls non-blocking sockets needs somewhere to
//! stand when there is nothing to do. A fixed nap adds its remainder to
//! every measured round trip; [`Poller::wait`] instead blocks in one
//! `ppoll(2)` over the loop's sockets and an `eventfd(2)`, so a datagram
//! landing, a [`Waker::wake`] from another thread, or the caller's own
//! timer deadline ends the wait — whichever comes first. `ppoll` (not
//! `poll`/`epoll_wait`) because its `timespec` keeps sub-millisecond
//! timeouts: the reactor's timer wheel ticks at 1 ms and a wait rounded
//! up to whole milliseconds would fire every deadline a tick late. The
//! fd set is small and fixed for the poller's lifetime, so there is no
//! registration lifecycle to manage.
//!
//! The wait is also the caller's *readiness source*: afterwards
//! [`Poller::ready`] says which sockets the kernel reported, straight
//! off the `revents` that `ppoll` filled in, so the caller reads those
//! and no others. Whenever the poller does not know — no wait has run,
//! the last one was skipped for queued work or cut short by a signal —
//! every socket reads as ready: not knowing costs a sweep, never a
//! stranded datagram.
//!
//! Everywhere else — and on Linux under `CDE_SYSIO_FALLBACK=1` — the
//! wait degrades to a thread park bounded by [`FALLBACK_NAP`]: that
//! backend cannot observe socket readiness ([`Poller::sees_sockets`] is
//! false and every socket always reads as ready), so it returns at
//! least that often and lets the caller sweep its sockets. Same API,
//! same wake and timeout semantics; only reply pickup is coarser.
//!
//! Producers and the waiting loop run the sleeping-consumer handshake:
//! the loop publishes `sleeping = true` (SeqCst), then re-checks for
//! queued work before blocking; a producer queues its work, then swaps
//! `sleeping` to false (SeqCst) and signals only if it was set. The
//! SeqCst total order rules out the lost wake-up, a signal issued before
//! the loop blocks stays pending (eventfd counter / park token), and a
//! loop that is running hot costs its producers one atomic and no
//! syscall.

use std::io;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longest the portable backend blocks before returning so its caller
/// can sweep the sockets it cannot watch. Bounds the reply-pickup
/// latency that backend adds.
pub const FALLBACK_NAP: Duration = Duration::from_micros(500);

/// `timeout`, capped at [`FALLBACK_NAP`].
fn nap(timeout: Option<Duration>) -> Duration {
    timeout.map_or(FALLBACK_NAP, |t| t.min(FALLBACK_NAP))
}

/// How the waiting thread is signalled.
enum Signal {
    /// Linux: an eventfd in the `ppoll` set.
    #[cfg(target_os = "linux")]
    EventFd(std::fs::File),
    /// Portable: unpark the thread that last called [`Poller::wait`].
    Thread(std::sync::Mutex<Option<std::thread::Thread>>),
}

struct Shared {
    sleeping: AtomicBool,
    signal: Signal,
    /// Time base for the wake stamp below (`Instant` can't live in an
    /// atomic, so wakes are stamped as nanoseconds since this epoch).
    epoch: Instant,
    /// Nanoseconds-since-epoch of the last [`Waker::wake`] that found
    /// the loop sleeping, 0 when none is outstanding. The woken loop
    /// swaps it back to 0; the difference is the wake-to-resume latency.
    wake_at_nanos: AtomicU64,
}

impl Shared {
    fn now_nanos(&self) -> u64 {
        // `max(1)`: 0 means "no wake outstanding".
        (self.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64).max(1)
    }

    fn signal(&self) {
        match &self.signal {
            #[cfg(target_os = "linux")]
            Signal::EventFd(fd) => {
                use std::io::Write;
                // The only failure is EAGAIN on a saturated counter,
                // which is already as "signalled" as an eventfd gets.
                let _ = (&*fd).write(&1u64.to_ne_bytes());
            }
            Signal::Thread(thread) => {
                let guard = thread.lock().unwrap_or_else(|p| p.into_inner());
                if let Some(thread) = guard.as_ref() {
                    thread.unpark();
                }
            }
        }
    }
}

/// Clone-able handle that ends a [`Poller::wait`] from another thread.
#[derive(Clone)]
pub struct Waker {
    shared: Arc<Shared>,
}

impl Waker {
    /// Producer side of the handshake: signals the loop only if it is
    /// (or is about to be) blocked. Call *after* queueing the work the
    /// loop's `has_work` check looks for.
    pub fn wake(&self) {
        if self.shared.sleeping.swap(false, Ordering::SeqCst) {
            self.shared
                .wake_at_nanos
                .store(self.shared.now_nanos(), Ordering::SeqCst);
            self.shared.signal();
        }
    }

    /// Unconditional signal, for state the loop's `has_work` check does
    /// not cover (shutdown, drain): the signal stays pending until the
    /// next wait consumes it, so it cannot be lost to a race with the
    /// loop going to sleep.
    pub fn force_wake(&self) {
        self.shared.sleeping.store(false, Ordering::SeqCst);
        self.shared.signal();
    }
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Waker").finish_non_exhaustive()
    }
}

/// What ended one [`Poller::wait`] that really blocked. Which sockets
/// it found readable is asked of the poller: [`Poller::ready`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wake {
    /// Signal-to-resume latency when a [`Waker::wake`] ended the wait;
    /// absent on readiness, timeouts, [`Waker::force_wake`] and a wake
    /// issued before the wait began.
    pub wake_latency: Option<Duration>,
}

/// Owns a fixed set of non-blocking UDP sockets and blocks on them.
pub struct Poller {
    sockets: Vec<UdpSocket>,
    shared: Arc<Shared>,
    /// `ppoll` set: one entry per socket, then the eventfd. Empty on the
    /// portable backend.
    #[cfg(target_os = "linux")]
    fds: Vec<sys::PollFd>,
}

impl Poller {
    /// Takes ownership of `sockets` (the fds stay valid for as long as
    /// the poller watches them) and opens the wake channel.
    ///
    /// # Errors
    ///
    /// `eventfd(2)` failing — fd exhaustion, in practice.
    pub fn new(sockets: Vec<UdpSocket>) -> io::Result<Poller> {
        Poller::with_backend(sockets, super::use_fallback())
    }

    fn with_backend(sockets: Vec<UdpSocket>, fallback: bool) -> io::Result<Poller> {
        let shared = |signal| {
            Arc::new(Shared {
                sleeping: AtomicBool::new(false),
                signal,
                epoch: Instant::now(),
                wake_at_nanos: AtomicU64::new(0),
            })
        };
        #[cfg(target_os = "linux")]
        {
            if !fallback {
                let (eventfd, fds) = sys::open(&sockets)?;
                return Ok(Poller {
                    sockets,
                    shared: shared(Signal::EventFd(eventfd)),
                    fds,
                });
            }
        }
        let _ = fallback;
        Ok(Poller {
            sockets,
            shared: shared(Signal::Thread(std::sync::Mutex::new(None))),
            #[cfg(target_os = "linux")]
            fds: Vec::new(),
        })
    }

    /// The sockets this poller watches, in the order they were given.
    pub fn sockets(&self) -> &[UdpSocket] {
        &self.sockets
    }

    /// A handle that ends this poller's waits from any thread.
    pub fn waker(&self) -> Waker {
        Waker {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Whether this poller's waits observe its sockets. `false` on the
    /// portable backend, whose wait is a blind nap: a caller with more
    /// to read should skip that wait rather than sleep through it.
    pub fn sees_sockets(&self) -> bool {
        #[cfg(target_os = "linux")]
        {
            matches!(self.shared.signal, Signal::EventFd(_))
        }
        #[cfg(not(target_os = "linux"))]
        false
    }

    /// Whether socket `index` (as in [`sockets`](Self::sockets)) should
    /// be read now: the last [`wait`](Self::wait) reported it readable
    /// or in error — or readiness is unknown, which reads as ready for
    /// every socket. It is unknown before the first wait, after a wait
    /// `has_work` skipped, after one a signal or the kernel cut short,
    /// and always on the portable backend. A socket that sat the wait
    /// out under [`mute_next`](Self::mute_next) was not looked at and
    /// reads as not ready.
    pub fn ready(&self, index: usize) -> bool {
        debug_assert!(index < self.sockets.len());
        #[cfg(target_os = "linux")]
        if let Some(fd) = self.fds.get(index) {
            return fd.ready();
        }
        true
    }

    /// Drops what the last wait learned: every socket reads as ready.
    fn forget_readiness(&mut self) {
        #[cfg(target_os = "linux")]
        self.fds.iter_mut().for_each(sys::PollFd::assume_ready);
    }

    /// Leaves socket `index` out of the *next* wait that blocks, and of
    /// no other. For a socket that reports ready but cannot be read:
    /// level-triggered readiness would otherwise end every wait at once
    /// and spin the caller.
    pub fn mute_next(&mut self, index: usize) {
        #[cfg(target_os = "linux")]
        if index < self.sockets.len() && !self.fds.is_empty() {
            self.fds[index].mute();
        }
        let _ = index;
    }

    /// Blocks until a socket is readable, a [`Waker`] fires, or
    /// `timeout` elapses (`None`: no deadline). Returns `None` without
    /// blocking when `has_work` — evaluated *after* this thread is
    /// published as sleeping — reports work already queued. Either way
    /// [`ready`](Self::ready) answers for this call from here on.
    pub fn wait(
        &mut self,
        timeout: Option<Duration>,
        has_work: impl FnOnce() -> bool,
    ) -> Option<Wake> {
        // Stamped before `sleeping` is published: from there on a wake
        // may land (even inside `has_work`) and end the wait it belongs
        // to, so its stamp must not read as older than the wait.
        let entered = self.shared.now_nanos();
        self.shared.sleeping.store(true, Ordering::SeqCst);
        if has_work() {
            self.shared.sleeping.store(false, Ordering::SeqCst);
            // The sockets were not looked at: the previous wait's
            // report says nothing about them now.
            self.forget_readiness();
            return None;
        }
        self.block(timeout);
        self.shared.sleeping.store(false, Ordering::SeqCst);
        // A wake stamped before this wait began raced one that was
        // skipped for the work it queued: its signal ended this wait at
        // once, and the time since is not a wake-up's latency.
        let wake_latency = match self.shared.wake_at_nanos.swap(0, Ordering::SeqCst) {
            at if at >= entered => Some(Duration::from_nanos(
                self.shared.now_nanos().saturating_sub(at),
            )),
            _ => None,
        };
        Some(Wake { wake_latency })
    }

    fn block(&mut self, timeout: Option<Duration>) {
        match &self.shared.signal {
            #[cfg(target_os = "linux")]
            Signal::EventFd(eventfd) => {
                let sockets = self.sockets.len();
                match sys::wait(&mut self.fds, timeout) {
                    Ok(()) => {
                        if self.fds[sockets].ready() {
                            use std::io::Read;
                            // Reset the counter so the next wait blocks.
                            let _ = (&*eventfd).read(&mut [0u8; 8]);
                        }
                    }
                    // A signal landed: indistinguishable from a spurious
                    // wake, which every caller already tolerates.
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    // The kernel refused the wait outright (ENOMEM):
                    // degrade to the portable nap rather than spin.
                    Err(_) => std::thread::sleep(nap(timeout)),
                }
            }
            Signal::Thread(thread) => {
                *thread.lock().unwrap_or_else(|p| p.into_inner()) = Some(std::thread::current());
                // A wake that raced the registration above found
                // `sleeping` set and cleared it: don't park on it.
                if self.shared.sleeping.load(Ordering::SeqCst) {
                    std::thread::park_timeout(nap(timeout));
                }
            }
        }
    }
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller")
            .field("sockets", &self.sockets.len())
            .finish_non_exhaustive()
    }
}

/// Linux `ppoll(2)`/`eventfd(2)` via direct FFI, in the manner of the
/// `mmsg` module: `std` already links the C library, so two
/// declarations and two `repr(C)` structs are the whole binding.
#[cfg(target_os = "linux")]
mod sys {
    use std::fs::File;
    use std::io;
    use std::net::UdpSocket;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
    use std::os::raw::{c_long, c_ulong};
    use std::time::Duration;

    const POLLIN: i16 = 0x001;
    const EFD_CLOEXEC: i32 = 0o2_000_000;
    const EFD_NONBLOCK: i32 = 0o4_000;

    /// `struct pollfd`.
    #[repr(C)]
    pub(super) struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    impl PollFd {
        /// Starts out ready: nothing is known before the first wait.
        fn watching(fd: i32) -> PollFd {
            PollFd {
                fd,
                events: POLLIN,
                revents: POLLIN,
            }
        }

        /// Stands in for a report the kernel did not make.
        pub(super) fn assume_ready(&mut self) {
            self.revents = POLLIN;
        }

        /// Any returned event counts: POLLERR/POLLHUP/POLLNVAL need the
        /// caller's attention as much as POLLIN does.
        pub(super) fn ready(&self) -> bool {
            self.revents != 0
        }

        /// `poll` ignores entries with a negative fd; `!fd` is negative
        /// for every valid fd and is undone by [`wait`].
        pub(super) fn mute(&mut self) {
            if self.fd >= 0 {
                self.fd = !self.fd;
            }
        }
    }

    /// `struct timespec` (64-bit Linux: `time_t` and `long` are both
    /// 64-bit).
    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const u8,
        ) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
    }

    /// Opens the eventfd and builds the poll set `sockets… , eventfd`.
    pub(super) fn open(sockets: &[UdpSocket]) -> io::Result<(File, Vec<PollFd>)> {
        // SAFETY: eventfd takes no pointers; it returns a new fd or -1.
        let raw = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if raw < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `raw` is a freshly created fd that nothing else owns.
        let eventfd = File::from(unsafe { OwnedFd::from_raw_fd(raw) });
        let fds = sockets
            .iter()
            .map(AsRawFd::as_raw_fd)
            .chain([eventfd.as_raw_fd()])
            .map(PollFd::watching)
            .collect();
        Ok((eventfd, fds))
    }

    /// One `ppoll` over `fds`; un-mutes every entry afterwards. A call
    /// that fails reported nothing and leaves the previous call's
    /// `revents` in place: every entry is marked ready instead.
    pub(super) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
        let ts = timeout.map(|t| Timespec {
            sec: c_long::try_from(t.as_secs()).unwrap_or(c_long::MAX),
            nsec: c_long::from(t.subsec_nanos()),
        });
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `repr(C)` pollfds and nfds is its length; the timespec (or
        // null, meaning "block indefinitely") outlives the call; a null
        // sigmask makes ppoll behave as poll.
        let rc = unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                ts.as_ref()
                    .map_or(std::ptr::null(), |ts| ts as *const Timespec),
                std::ptr::null(),
            )
        };
        // Read errno before anything else can disturb it. (On success
        // the count is implied by the `revents` the callers inspect.)
        let result = if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        };
        for fd in fds.iter_mut() {
            if fd.fd < 0 {
                fd.fd = !fd.fd;
                fd.revents = 0;
            }
            if result.is_err() {
                fd.assume_ready();
            }
        }
        result
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn struct_layouts_match_glibc() {
            assert_eq!(std::mem::size_of::<PollFd>(), 8);
            assert_eq!(std::mem::size_of::<Timespec>(), 16);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::SocketAddr;

    /// Every test runs against both backends: `false` is the native one
    /// (which *is* the portable one off Linux), `true` forces the
    /// portable park.
    const BACKENDS: [bool; 2] = [false, true];

    fn native(fallback: bool) -> bool {
        cfg!(target_os = "linux") && !fallback
    }

    fn watched() -> (UdpSocket, SocketAddr) {
        let watched = UdpSocket::bind("127.0.0.1:0").unwrap();
        watched.set_nonblocking(true).unwrap();
        let addr = watched.local_addr().unwrap();
        (watched, addr)
    }

    fn poller(fallback: bool) -> (Poller, UdpSocket, SocketAddr) {
        let (watched, addr) = watched();
        let peer = UdpSocket::bind("127.0.0.1:0").unwrap();
        (
            Poller::with_backend(vec![watched], fallback).unwrap(),
            peer,
            addr,
        )
    }

    /// `ready(i)` for every socket of `poller`.
    fn readiness(poller: &Poller) -> Vec<bool> {
        (0..poller.sockets().len())
            .map(|i| poller.ready(i))
            .collect()
    }

    /// Spins until the poller's thread has published itself as sleeping,
    /// so the caller's next step is ordered after the handshake's first
    /// half without guessing at a delay.
    fn until_sleeping(waker: &Waker) {
        while !waker.shared.sleeping.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn readable_socket_ends_the_wait_and_is_reported() {
        for fallback in BACKENDS {
            let (mut poller, peer, addr) = poller(fallback);
            // Loopback delivery is synchronous: the datagram is queued
            // on the watched socket when send_to returns.
            peer.send_to(b"ping", addr).unwrap();
            let start = Instant::now();
            let wake = poller
                .wait(Some(Duration::from_secs(5)), || false)
                .expect("no queued work: the wait is entered");
            assert!(start.elapsed() < Duration::from_secs(1));
            assert_eq!(wake.wake_latency, None);
            assert!(poller.ready(0));
            if native(fallback) {
                // Level-triggered: still reported until it is read.
                let start = Instant::now();
                poller.wait(Some(Duration::from_secs(5)), || false);
                assert!(start.elapsed() < Duration::from_secs(1));
                assert!(poller.ready(0));
            }
            let mut buf = [0u8; 16];
            let (len, _) = poller.sockets()[0].recv_from(&mut buf).unwrap();
            assert_eq!(&buf[..len], b"ping");
        }
    }

    #[test]
    fn ready_names_the_sockets_the_last_wait_reported() {
        for fallback in BACKENDS {
            let (sockets, addrs): (Vec<_>, Vec<_>) = (0..3).map(|_| watched()).unzip();
            let mut poller = Poller::with_backend(sockets, fallback).unwrap();
            assert_eq!(poller.sees_sockets(), native(fallback));
            let all = vec![true; 3];
            assert_eq!(readiness(&poller), all, "nothing is known before a wait");
            let peer = UdpSocket::bind("127.0.0.1:0").unwrap();
            peer.send_to(b"ping", addrs[1]).unwrap();
            poller.wait(Some(Duration::from_secs(5)), || false);
            let reported = if native(fallback) {
                vec![false, true, false]
            } else {
                // A nap reports nothing: the caller sweeps.
                all.clone()
            };
            assert_eq!(readiness(&poller), reported);
            // A skipped wait looked at no socket, and the report of the
            // wait before it is stale — not an answer.
            assert!(poller.wait(None, || true).is_none());
            assert_eq!(readiness(&poller), all);
            poller.sockets()[1].recv_from(&mut [0u8; 16]).unwrap();
            poller.wait(Some(Duration::from_millis(1)), || false);
            assert_eq!(readiness(&poller), vec![!native(fallback); 3]);
        }
    }

    #[test]
    fn datagram_arriving_mid_wait_ends_it() {
        for fallback in BACKENDS {
            let (mut poller, peer, addr) = poller(fallback);
            let waker = poller.waker();
            let sender = std::thread::spawn(move || {
                until_sleeping(&waker);
                std::thread::sleep(Duration::from_millis(20));
                peer.send_to(b"late", addr).unwrap();
            });
            let start = Instant::now();
            let mut buf = [0u8; 16];
            // The caller's loop: wait, sweep, repeat. The portable
            // backend comes round every FALLBACK_NAP; the native one
            // blocks once, until the datagram.
            let mut waits = 0;
            let len = loop {
                poller.wait(None, || false);
                waits += 1;
                if let Ok((len, _)) = poller.sockets()[0].recv_from(&mut buf) {
                    break len;
                }
            };
            assert_eq!(&buf[..len], b"late");
            assert!(start.elapsed() >= Duration::from_millis(15));
            if native(fallback) {
                assert_eq!(waits, 1, "an unbounded wait returned with nothing to read");
            }
            sender.join().unwrap();
        }
    }

    #[test]
    fn waker_roundtrip_wakes_blocked_thread() {
        for fallback in BACKENDS {
            let (mut poller, _peer, _addr) = poller(fallback);
            let waker = poller.waker();
            let ready = Arc::new(AtomicBool::new(false));
            let producer = std::thread::spawn({
                let ready = Arc::clone(&ready);
                move || {
                    until_sleeping(&waker);
                    std::thread::sleep(Duration::from_millis(20));
                    ready.store(true, Ordering::SeqCst);
                    waker.wake();
                }
            });
            let start = Instant::now();
            // No timeout: only the producer's wake (or, on the portable
            // backend, the nap bound) ends a wait.
            let mut waits = 0;
            while !ready.load(Ordering::SeqCst) {
                poller.wait(None, || ready.load(Ordering::SeqCst));
                waits += 1;
            }
            assert!(start.elapsed() >= Duration::from_millis(15));
            if native(fallback) {
                assert_eq!(waits, 1, "`None` must block until woken");
            }
            producer.join().unwrap();
        }
    }

    #[test]
    fn wait_is_skipped_when_work_arrives_first() {
        for fallback in BACKENDS {
            let (mut poller, _peer, _addr) = poller(fallback);
            let start = Instant::now();
            let outcome = poller.wait(Some(Duration::from_secs(5)), || true);
            assert!(start.elapsed() < Duration::from_secs(1));
            assert!(outcome.is_none(), "skipped wait reports no outcome");
        }
    }

    #[test]
    fn wake_issued_before_the_wait_is_not_lost() {
        for fallback in BACKENDS {
            let (mut poller, _peer, _addr) = poller(fallback);
            let waker = poller.waker();
            // A producer that runs entirely before the loop goes to
            // sleep: its wake is a no-op, its work is what `has_work`
            // finds.
            let queued = AtomicBool::new(true);
            waker.wake();
            let start = Instant::now();
            assert!(poller
                .wait(None, || queued.load(Ordering::SeqCst))
                .is_none());
            // A forced wake has no queued work to be found by: the
            // signal itself must still be pending when the wait starts…
            waker.force_wake();
            let wake = poller.wait(Some(Duration::from_secs(5)), || false);
            assert!(start.elapsed() < Duration::from_secs(1));
            assert_eq!(wake.and_then(|w| w.wake_latency), None);
            // …and is consumed by it: the next wait runs to its timeout.
            let start = Instant::now();
            poller.wait(Some(Duration::from_millis(20)), || false);
            if native(fallback) {
                assert!(start.elapsed() >= Duration::from_millis(15));
            }
        }
    }

    #[test]
    fn wake_outcome_carries_wake_latency() {
        for fallback in BACKENDS {
            let (mut poller, _peer, _addr) = poller(fallback);
            let waker = poller.waker();
            let producer = std::thread::spawn(move || {
                until_sleeping(&waker);
                waker.wake();
            });
            let wake = poller
                .wait(Some(Duration::from_secs(5)), || false)
                .expect("the loop really blocked");
            let latency = wake.wake_latency.expect("ended by a wake, not a timeout");
            assert!(latency < Duration::from_secs(1), "latency {latency:?}");
            // The waker alone ended it: there is no socket to read.
            assert_eq!(poller.ready(0), !native(fallback));
            producer.join().unwrap();
        }
    }

    #[test]
    fn wake_landing_during_the_work_check_carries_wake_latency() {
        for fallback in BACKENDS {
            let (mut poller, _peer, _addr) = poller(fallback);
            let waker = poller.waker();
            // The wake lands after the loop published itself as sleeping
            // and before it blocks, and there is no work to skip for: it
            // is what ends this very wait.
            let start = Instant::now();
            let wake = poller
                .wait(Some(Duration::from_secs(5)), || {
                    waker.wake();
                    false
                })
                .expect("no queued work: the wait is entered");
            assert!(start.elapsed() < Duration::from_secs(1));
            let latency = wake.wake_latency.expect("ended by a wake, not a timeout");
            assert!(latency < Duration::from_secs(1), "latency {latency:?}");
        }
    }

    #[test]
    fn wake_that_raced_a_skipped_wait_is_not_charged_to_the_next_one() {
        for fallback in BACKENDS {
            let (mut poller, _peer, _addr) = poller(fallback);
            let waker = poller.waker();
            // The producer's wake lands after the loop published itself
            // as sleeping and before its re-check found the work: the
            // wait is skipped, the stamp and the signal stay behind.
            let raced = poller.wait(None, || {
                waker.wake();
                true
            });
            assert!(raced.is_none());
            std::thread::sleep(Duration::from_millis(20));
            let start = Instant::now();
            let wake = poller
                .wait(Some(Duration::from_secs(5)), || false)
                .expect("entered");
            assert!(start.elapsed() < Duration::from_secs(1));
            assert_eq!(wake.wake_latency, None, "20 ms of work is not a wake-up");
        }
    }

    #[test]
    fn timed_out_wait_has_no_wake_latency() {
        for fallback in BACKENDS {
            let (mut poller, _peer, _addr) = poller(fallback);
            let start = Instant::now();
            let wake = poller
                .wait(Some(Duration::from_millis(20)), || false)
                .expect("blocked");
            assert_eq!(wake, Wake { wake_latency: None });
            let floor = if native(fallback) {
                Duration::from_millis(20)
            } else {
                FALLBACK_NAP
            };
            assert!(start.elapsed() >= floor, "{:?}", start.elapsed());
        }
    }

    /// The reason the wait is `ppoll`: a timeout API in whole
    /// milliseconds would round 300 µs to 0 (fails the floor) or to 1 ms
    /// (fails the ceiling). Tolerance: never early, and the median of 50
    /// waits under 900 µs — kernel timer slack adds ~50 µs, a shared CI
    /// runner some wake-up latency on top.
    #[test]
    fn sub_millisecond_timeout_is_honoured() {
        for fallback in BACKENDS {
            let (mut poller, _peer, _addr) = poller(fallback);
            let timeout = Duration::from_micros(300);
            let mut took: Vec<Duration> = (0..50)
                .map(|_| {
                    let start = Instant::now();
                    poller.wait(Some(timeout), || false);
                    start.elapsed()
                })
                .collect();
            took.sort_unstable();
            assert!(took[0] >= timeout, "returned early: {:?}", took[0]);
            let median = took[took.len() / 2];
            assert!(
                median < Duration::from_micros(900),
                "median {median:?} for a 300 µs timeout (fallback: {fallback})"
            );
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn muted_socket_sits_out_exactly_one_wait() {
        let (mut poller, peer, addr) = poller(false);
        peer.send_to(b"unread", addr).unwrap();
        let ready = |p: &mut Poller| {
            p.wait(Some(Duration::from_millis(20)), || false)
                .expect("blocked");
            p.ready(0)
        };
        assert!(ready(&mut poller));
        poller.mute_next(0);
        // A wait skipped for queued work is not the wait it sits out.
        assert!(poller.wait(None, || true).is_none());
        assert!(poller.ready(0), "nothing was looked at: unknown, so ready");
        let start = Instant::now();
        assert!(!ready(&mut poller), "muted: not looked at, not ready");
        assert!(
            start.elapsed() >= Duration::from_millis(20),
            "muted: only the timeout ends it"
        );
        assert!(ready(&mut poller), "the mute lasts one wait");
    }

    /// A wait a signal cuts short learned nothing, and the `revents`
    /// still in the set are the wait-before's: they must not be served
    /// as this wait's report.
    #[cfg(target_os = "linux")]
    #[test]
    fn interrupted_wait_reports_unknown_readiness_not_the_previous_waits() {
        const SIGUSR2: i32 = 12;
        extern "C" fn ignore(_signum: i32) {}
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
            fn pthread_self() -> usize;
            fn pthread_kill(thread: usize, signum: i32) -> i32;
        }
        let (mut poller, _peer, _addr) = poller(false);
        poller.wait(Some(Duration::from_millis(1)), || false);
        assert!(!poller.ready(0), "timed out with nothing queued");
        let handler = ignore as extern "C" fn(i32);
        // SAFETY: installs an async-signal-safe (empty) handler for a
        // signal nothing else in this test binary uses.
        assert_ne!(unsafe { signal(SIGUSR2, handler as usize) }, usize::MAX);
        // SAFETY: no arguments; returns the calling thread's id.
        let waiter = unsafe { pthread_self() };
        let done = Arc::new(AtomicBool::new(false));
        let interrupter = std::thread::spawn({
            let (waker, done) = (poller.waker(), Arc::clone(&done));
            move || {
                until_sleeping(&waker);
                // One signal can land before the thread is inside
                // `ppoll`; keep them coming until one cuts it short.
                while !done.load(Ordering::SeqCst) {
                    // SAFETY: `waiter` is the id of a thread that stays
                    // alive until it has joined this one.
                    unsafe { pthread_kill(waiter, SIGUSR2) };
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        });
        let start = Instant::now();
        poller.wait(Some(Duration::from_secs(5)), || false);
        done.store(true, Ordering::SeqCst);
        interrupter.join().unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "never interrupted"
        );
        assert!(poller.ready(0));
    }
}
