//! Per-thread allocation counting for allocation-audit tests.
//!
//! Several test binaries pin hot paths as allocation-free (or under a
//! byte budget) by installing a counting global allocator. A process-wide
//! counter would also see the test harness's own threads — other tests
//! running in parallel, the output capture — and fail at random. The
//! counters here are thread-local instead, so a measurement sees exactly
//! the allocations made by the thread that runs the code under test.
//!
//! Install it once per test binary and measure with [`measure`]. Without
//! the allocator installed every count reads zero.
//!
//! ```
//! use simkit::alloc_audit::{self, CountingAlloc};
//!
//! #[global_allocator]
//! static GLOBAL: CountingAlloc = CountingAlloc;
//!
//! fn main() {
//!     let (v, stats) = alloc_audit::measure(|| vec![0u8; 64]);
//!     assert_eq!((stats.allocs, stats.bytes), (1, 64));
//!     assert_eq!(v.len(), 64);
//! }
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocator traffic of one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Bytes newly requested: allocation sizes plus `realloc` growth.
    pub bytes: u64,
}

thread_local! {
    static COUNTS: Cell<AllocStats> = const {
        Cell::new(AllocStats { allocs: 0, bytes: 0 })
    };
}

fn note(bytes: usize) {
    // `try_with`: allocations during thread teardown go uncounted rather
    // than aborting.
    let _ = COUNTS.try_with(|c| {
        let s = c.get();
        c.set(AllocStats {
            allocs: s.allocs + 1,
            bytes: s.bytes + bytes as u64,
        });
    });
}

/// The system allocator, counting every allocation on the calling thread.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold for the returned memory. The counting only
// updates a const-initialized thread-local `Cell`, which never allocates
// and so cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations made so far by the calling thread.
pub fn thread_stats() -> AllocStats {
    COUNTS.with(Cell::get)
}

/// Run `f` and return its result with the allocations it made on this
/// thread.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, AllocStats) {
    let before = thread_stats();
    let r = f();
    let after = thread_stats();
    (
        r,
        AllocStats {
            allocs: after.allocs - before.allocs,
            bytes: after.bytes - before.bytes,
        },
    )
}
