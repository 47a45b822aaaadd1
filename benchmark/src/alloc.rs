//! A counting allocator, so `dns-core.allocs_per_encode` can say the
//! probe path allocates nothing. The count is per thread: the engine's
//! threads never touch a shared counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

pub struct Counting;

// SAFETY: every call is passed through to `System` unchanged; the only
// addition is a thread-local counter with a const initialiser and no
// destructor, which neither allocates nor can be re-entered.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations for `alloc` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations (and reallocations) made by the calling thread.
pub fn thread_allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_allocations_only() {
        let before = thread_allocations();
        let v: Vec<u8> = Vec::with_capacity(64);
        std::hint::black_box(&v);
        assert_eq!(thread_allocations() - before, 1);
        let other = std::thread::spawn(|| {
            let before = thread_allocations();
            std::hint::black_box(vec![1u8; 16]);
            thread_allocations() - before
        })
        .join()
        .unwrap();
        assert_eq!(other, 1);
    }
}
