//! Allocation audit of the lock manager's and buffer manager's OLTP hot
//! paths.
//!
//! Every debit-credit transaction takes a handful of tuple locks and
//! releases them at commit. With the entry/vector free lists the whole
//! lock → release cycle must not touch the heap once the pools and hash
//! tables are warm — the counting global allocator turns that from a
//! code-review claim into a hard test (the same discipline
//! `lb_core/tests/no_alloc.rs` applies to the broker's placement path).
//! The buffer's page table grows with occupancy, so an empty buffer costs
//! nothing and a full one recycles frames without allocating.
//!
//! Lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide; the counts themselves are
//! per thread, so tests running in parallel do not see each other.

use dbmodel::buffer::{BufferManager, FixOutcome};
use dbmodel::catalog::PageAddr;
use dbmodel::lock::{LockManager, LockMode, LockOutcome, TxnToken};
use simkit::alloc_audit::{self, CountingAlloc};
use simkit::SimTime;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn txn(id: u64) -> TxnToken {
    TxnToken {
        id,
        birth: SimTime::ZERO,
    }
}

/// One steady-state "transaction": take `locks` exclusive tuple locks on
/// a private object range, then commit (release everything).
fn cycle_allocs(mgr: &mut LockManager, txns: u64, locks: u64) -> u64 {
    let before = alloc_audit::thread_stats().allocs;
    for t in 0..txns {
        let tok = txn(t);
        for o in 0..locks {
            // Objects cycle over a bounded working set with no overlap
            // between concurrent holders (t is committed before t+1
            // starts), mirroring the uncontended debit-credit common case.
            let object = (t % 64) * locks + o;
            assert_eq!(
                mgr.lock(tok, object, LockMode::Exclusive),
                LockOutcome::Granted
            );
        }
        let woken = mgr.release_all(tok);
        assert!(woken.is_empty());
    }
    alloc_audit::thread_stats().allocs - before
}

#[test]
fn lock_release_cycle_is_allocation_free_after_warmup() {
    let mut mgr = LockManager::new();
    // Warm-up sizes the hash tables and fills the entry/vector pools.
    let warmup = cycle_allocs(&mut mgr, 128, 8);
    let steady = cycle_allocs(&mut mgr, 4096, 8);
    assert!(mgr.is_quiescent());
    assert_eq!(
        steady, 0,
        "lock/release hot path allocated {steady} times over 4096 txns (warmup did {warmup})"
    );
}

/// Contended locks still resolve correctly with pooled entries: a waiter
/// parked behind an exclusive holder is woken at release, and the entry
/// keeps serving after its buffers have been recycled several times.
#[test]
fn pooled_entries_preserve_waiter_semantics() {
    let mut mgr = LockManager::new();
    for round in 0..10 {
        let a = txn(round * 2);
        let b = txn(round * 2 + 1);
        assert_eq!(mgr.lock(a, 7, LockMode::Exclusive), LockOutcome::Granted);
        assert_eq!(mgr.lock(b, 7, LockMode::Shared), LockOutcome::Waiting);
        let woken = mgr.release_all(a);
        assert_eq!(woken, vec![(b, 7)]);
        assert!(mgr.release_all(b).is_empty());
    }
    assert!(mgr.is_quiescent());
}

/// A fresh buffer allocates nothing; once full, misses alternate between
/// evicting the LRU page and refilling the freed frame, so a fix/evict
/// cycle (with dirty write-backs) reuses its storage and never touches the
/// heap.
#[test]
fn full_buffer_fix_evict_cycle_is_allocation_free() {
    let frames = 500u64;
    let (mut buf, fresh) = alloc_audit::measure(|| BufferManager::new(frames as u32, 1));
    assert_eq!(fresh.allocs, 0, "an empty buffer allocated");
    // Fill, then one warm-up eviction sizes the LRU's free list.
    for p in 0..=frames {
        assert!(!buf.fix(PageAddr::new(1, p), p % 2 == 0, false).is_hit());
    }
    let (writebacks, stats) = alloc_audit::measure(|| {
        let mut writebacks = 0u64;
        for p in frames + 1..frames * 40 {
            match buf.fix(PageAddr::new(1, p), p % 3 == 0, false) {
                FixOutcome::Miss { writeback } => writebacks += writeback.is_some() as u64,
                other => panic!("page {p}: expected a miss, got {other:?}"),
            }
        }
        writebacks
    });
    assert_eq!(
        stats.allocs, 0,
        "full buffer allocated {} times",
        stats.allocs
    );
    assert!(writebacks > 0, "dirty victims are written back");
    assert!(buf.global_in_use() as u64 >= frames - 1);
    buf.check_invariants();
}
