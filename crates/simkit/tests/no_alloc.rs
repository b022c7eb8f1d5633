//! Allocation audit of the future-event-list hot path.
//!
//! Events are stored by value inside the FEL, so a steady-state push/pop
//! cycle at constant depth must never touch the heap once the backing
//! storage is warm: keys sift inside one vector, and payloads go back
//! into slots the pops vacated. This pins the zero-allocation property
//! the event-loop perf work relies on: per-event cost is key shuffling,
//! not allocator traffic.
//!
//! Lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide; the counts themselves are
//! per thread, so tests running in parallel do not see each other.

use simkit::alloc_audit::{self, CountingAlloc};
use simkit::{EventQueue, LruMap, SimDur, SimTime};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Hold the queue at constant depth: pop one event, push its follow-up a
/// little later — the steady state of every hardware server model.
fn cycle_allocs(q: &mut EventQueue<u64>, steps: u64) -> u64 {
    let before = alloc_audit::thread_stats().allocs;
    for _ in 0..steps {
        let (t, ev) = q.pop_next().expect("queue stays non-empty");
        q.at(t + SimDur::from_micros(100 + ev % striped(ev)), ev);
    }
    alloc_audit::thread_stats().allocs - before
}

/// Deterministic per-event jitter so pushes land at many heap depths.
fn striped(ev: u64) -> u64 {
    37 + (ev * 31) % 400
}

fn warmed_queue(warmup_steps: u64) -> EventQueue<u64> {
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..512u64 {
        q.at(SimTime::ZERO + SimDur::from_micros(i), i);
    }
    let _ = cycle_allocs(&mut q, warmup_steps);
    q
}

/// The FEL is *strictly* allocation-free once warm: sift-up and sift-down
/// move keys inside the backing vector, payload slots are reused, and
/// constant depth means neither vector regrows.
#[test]
fn event_heap_steady_state_is_allocation_free() {
    let mut q = warmed_queue(4096);
    let steady = cycle_allocs(&mut q, 100_000);
    assert_eq!(
        steady, 0,
        "heap FEL allocated {steady} times over 100k steady-state events"
    );
    assert_eq!(q.len(), 512);
}

/// An LRU costs nothing until it is used: a thousand-PE system builds
/// thousands of page caches, most of which never fill.
#[test]
fn lru_new_allocates_nothing() {
    let (lru, stats) = alloc_audit::measure(|| LruMap::<(u64, u64), ()>::new(100_000));
    assert_eq!(stats, alloc_audit::AllocStats::default());
    assert_eq!(lru.capacity(), 100_000);
}
