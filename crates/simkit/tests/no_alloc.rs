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
use simkit::{EventQueue, ItemKey, LaneLog, LruMap, MergeCursor, SimDur, SimTime};

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

/// The windowed executor's per-window machinery — formation item lists,
/// lane logs, and the merge cursor — reuses its backing storage, so a
/// steady-state form/execute/commit cycle allocates nothing once warm.
/// Windows now form during query operator phases too (not just pure-OLTP
/// stretches), so this loop runs millions of times per mixed-workload
/// soak; every item both defers a follow-up past the horizon and
/// consumes one in-window, covering both push paths and the commit-time
/// sequence burn.
#[test]
fn window_machinery_steady_state_is_allocation_free() {
    const LANES: usize = 4;
    const WINDOW: usize = 32;
    let mut q: EventQueue<u64> = EventQueue::with_capacity(1 << 10);
    for i in 0..128u64 {
        q.at(SimTime::ZERO + SimDur::from_micros(i * 100), i);
    }
    let mut logs: Vec<LaneLog<u64>> = (0..LANES).map(|_| LaneLog::new()).collect();
    let mut items: Vec<Vec<(SimTime, u64, u64)>> = (0..LANES).map(|_| Vec::new()).collect();
    let mut active: Vec<u32> = Vec::new();
    let mut merge = MergeCursor::new();
    let mut cycle = |q: &mut EventQueue<u64>, windows: usize| -> u64 {
        let before = alloc_audit::thread_stats().allocs;
        for _ in 0..windows {
            active.clear();
            for it in items.iter_mut() {
                it.clear();
            }
            for log in logs.iter_mut() {
                log.clear();
            }
            // Formation: route a fixed-size window into per-lane lists.
            for _ in 0..WINDOW {
                let Some((t, seq, ev)) = q.window_pop() else {
                    break;
                };
                let lane = (ev % LANES as u64) as usize;
                if items[lane].is_empty() {
                    active.push(lane as u32);
                }
                items[lane].push((t, seq, ev));
            }
            // Lane execution: one deferred push (keeps the FEL at
            // constant depth) plus one consumed same-time follow-up per
            // item, handled as its own Gen-keyed item.
            for &lane in &active {
                let l = lane as usize;
                let log = &mut logs[l];
                for k in 0..items[l].len() {
                    let (t, seq, ev) = items[l][k];
                    log.begin_item(t, ItemKey::Orig(seq));
                    log.push_defer(t + SimDur::from_micros(12_800), ev);
                    let rank = log.push_consumed(t + SimDur::from_nanos(1));
                    log.begin_item(t + SimDur::from_nanos(1), ItemKey::Gen(rank));
                }
            }
            // Merge commit, stepped through the incremental cursor as the
            // simulator does when interleaving residual streams.
            merge.begin(&logs, &active);
            while merge.replay_next(q, &mut logs).is_some() {}
        }
        alloc_audit::thread_stats().allocs - before
    };
    let _warm = cycle(&mut q, 64);
    let steady = cycle(&mut q, 2048);
    assert_eq!(
        steady, 0,
        "window machinery allocated {steady} times over 2048 steady-state windows"
    );
    assert_eq!(q.len(), 128);
}

/// An LRU costs nothing until it is used: a thousand-PE system builds
/// thousands of page caches, most of which never fill.
#[test]
fn lru_new_allocates_nothing() {
    let (lru, stats) = alloc_audit::measure(|| LruMap::<(u64, u64), ()>::new(100_000));
    assert_eq!(stats, alloc_audit::AllocStats::default());
    assert_eq!(lru.capacity(), 100_000);
}
