//! Construction footprint of a thousand-PE system.
//!
//! Per-PE state must track what a run touches, not what it could touch:
//! the buffer pools and disk-controller caches start empty and grow with
//! use (see the "Memory" section of ARCHITECTURE.md). Eager sizing once
//! made `System::new` for the 1000-PE soak request about 170 MB before the
//! first event; the budget below keeps that from creeping back.
//!
//! Lives in its own integration-test binary because a `#[global_allocator]`
//! is process-wide; the counts themselves are per thread.

use simkit::alloc_audit::{self, CountingAlloc};
use snsim::System;
use workload::scenario::ScenarioSpec;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes `System::new` may request for the 1000-PE joins soak.
const SOAK_NEW_BUDGET: u64 = 16 << 20;

fn soak_config() -> snsim::SimConfig {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/thousand_pe_soak_joins.json"
    );
    let text = std::fs::read_to_string(path).expect("read soak spec");
    let spec: ScenarioSpec = serde_json::from_str(&text).expect("parse soak spec");
    let mut runs = snsim::scenario::configs(&spec);
    assert_eq!(runs.len(), 1, "the soak spec has no sweep");
    let (_, cfg) = runs.pop().expect("one run");
    assert_eq!(cfg.n_pes, 1000);
    cfg
}

#[test]
fn thousand_pe_system_new_stays_within_byte_budget() {
    let cfg = soak_config();
    let (system, stats) = alloc_audit::measure(|| System::new(cfg));
    eprintln!(
        "System::new (1000 PEs): {} allocations, {} bytes",
        stats.allocs, stats.bytes
    );
    assert!(
        stats.bytes <= SOAK_NEW_BUDGET,
        "System::new requested {} bytes for 1000 PEs (budget {SOAK_NEW_BUDGET})",
        stats.bytes
    );
    drop(system);
}
