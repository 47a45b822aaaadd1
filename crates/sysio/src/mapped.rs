//! The receive slot's buffer: [`SLOT_LEN`] bytes that cost memory only
//! where a datagram was written.
//!
//! A coalesced receive can deliver a whole segmented run — up to
//! 64 KiB — into one slot, so every slot must be able to hold that
//! much; but a reactor keeps [`MAX_BATCH`](crate::MAX_BATCH) slots per
//! loop and most messages are a few hundred bytes. On Linux the buffer
//! is a private anonymous mapping: the kernel commits a page the first
//! time a receive writes into it, so a slot that only ever held single
//! replies costs one page. Elsewhere it is a zeroed heap allocation.

/// Bytes per slot: the largest UDP payload rounded up to a power of
/// two, so a coalesced run is never truncated.
pub(crate) const SLOT_LEN: usize = 1 << 16;

pub(crate) use imp::SlotBuf;

#[cfg(target_os = "linux")]
mod imp {
    use super::SLOT_LEN;
    use std::ptr::NonNull;

    // <sys/mman.h>, identical on every 64-bit architecture glibc and
    // this crate's other hand-declared layouts support.
    const PROT_READ: i32 = 0x1;
    const PROT_WRITE: i32 = 0x2;
    const MAP_PRIVATE: i32 = 0x02;
    const MAP_ANONYMOUS: i32 = 0x20;
    const MAP_FAILED: *mut u8 = usize::MAX as *mut u8;
    const MADV_NOHUGEPAGE: i32 = 15;

    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
        fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;
        fn munmap(addr: *mut u8, len: usize) -> i32;
    }

    /// An owned, writable [`SLOT_LEN`]-byte private anonymous mapping.
    pub(crate) struct SlotBuf {
        ptr: NonNull<u8>,
    }

    // SAFETY: the mapping is owned by exactly one `SlotBuf` and reached
    // only through it (`&self` reads, `&mut self` writes), like the
    // heap block of a `Box<[u8]>`; no thread-local state is involved.
    unsafe impl Send for SlotBuf {}
    // SAFETY: as above — shared references only ever read.
    unsafe impl Sync for SlotBuf {}

    impl SlotBuf {
        pub(crate) fn new() -> SlotBuf {
            // SAFETY: a fresh anonymous mapping of SLOT_LEN bytes at an
            // address the kernel picks; no existing memory is touched.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    SLOT_LEN,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS,
                    -1,
                    0,
                )
            };
            if ptr == MAP_FAILED {
                // Out of address space or map count: what a failed heap
                // allocation does too.
                std::alloc::handle_alloc_error(
                    std::alloc::Layout::from_size_align(SLOT_LEN, 1).expect("valid layout"),
                );
            }
            // The kernel merges adjacent mappings, so a reactor's slots
            // can form a 2 MiB range that, with transparent huge pages
            // set to `always`, one fault would commit whole. Opt out; a
            // kernel without huge pages refuses, which changes nothing.
            // SAFETY: advice on the mapping just created, in bounds.
            unsafe { madvise(ptr, SLOT_LEN, MADV_NOHUGEPAGE) };
            SlotBuf {
                ptr: NonNull::new(ptr).expect("mmap never returns null without MAP_FIXED"),
            }
        }
    }

    impl std::ops::Deref for SlotBuf {
        type Target = [u8];

        fn deref(&self) -> &[u8] {
            // SAFETY: `ptr` addresses SLOT_LEN readable bytes (zero until
            // written) that live until `drop`.
            unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), SLOT_LEN) }
        }
    }

    impl std::ops::DerefMut for SlotBuf {
        fn deref_mut(&mut self) -> &mut [u8] {
            // SAFETY: as in `deref`; `&mut self` makes this the only
            // reference into the mapping.
            unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), SLOT_LEN) }
        }
    }

    impl Drop for SlotBuf {
        fn drop(&mut self) {
            // SAFETY: the mapping was created in `new` with this length
            // and no reference into it outlives `self`. A failure could
            // only leak the pages, so it is ignored.
            unsafe { munmap(self.ptr.as_ptr(), SLOT_LEN) };
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::SLOT_LEN;

    /// A zeroed [`SLOT_LEN`]-byte heap buffer.
    pub(crate) struct SlotBuf(Box<[u8]>);

    impl SlotBuf {
        pub(crate) fn new() -> SlotBuf {
            SlotBuf(vec![0; SLOT_LEN].into_boxed_slice())
        }
    }

    impl std::ops::Deref for SlotBuf {
        type Target = [u8];

        fn deref(&self) -> &[u8] {
            &self.0
        }
    }

    impl std::ops::DerefMut for SlotBuf {
        fn deref_mut(&mut self) -> &mut [u8] {
            &mut self.0
        }
    }
}

impl std::fmt::Debug for SlotBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SlotBuf({} bytes)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_buffer_is_zeroed_writable_and_full_length() {
        let mut buf = SlotBuf::new();
        assert_eq!(buf.len(), SLOT_LEN);
        assert!(buf.iter().all(|&b| b == 0));
        buf[0] = 1;
        buf[SLOT_LEN - 1] = 2;
        assert_eq!((buf[0], buf[SLOT_LEN - 1]), (1, 2));
        // Moving the owner does not move or free the bytes.
        let moved = std::thread::spawn(move || buf[SLOT_LEN - 1])
            .join()
            .unwrap();
        assert_eq!(moved, 2);
    }
}
