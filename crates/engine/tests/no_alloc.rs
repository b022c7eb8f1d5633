//! Allocation audit of the PPHJ batch path.
//!
//! Every redistributed build or probe batch is hash-split over the join's
//! partitions, millions of times per join-heavy run. The split is computed
//! per partition from its index, so a batch allocates nothing of its own;
//! the only allocation it may make is the box of each result message it
//! sends.
//!
//! Lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide; the counts themselves are per
//! thread, so tests running in parallel do not see each other.

use dbmodel::catalog::Catalog;
use dbmodel::log::LogParams;
use engine::api::{Action, EngineConfig, JoinPhase, Step};
use engine::ctx::Ctx;
use engine::pphj::JoinTask;
use engine::Pe;
use simkit::alloc_audit::{self, CountingAlloc};
use simkit::{SimRng, SimTime, Slab};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Harness {
    pes: Vec<Pe>,
    catalog: Catalog,
    cfg: EngineConfig,
    rng: SimRng,
    temp: u64,
    actions: Vec<Action>,
}

impl Harness {
    fn new(n: u32, buffer_pages: u32) -> Harness {
        Harness {
            pes: (0..n)
                .map(|i| Pe::new(i, buffer_pages, 1, 64, LogParams::default()))
                .collect(),
            catalog: Catalog::paper_default(n),
            cfg: EngineConfig::default(),
            rng: SimRng::new(7),
            temp: 0,
            actions: Vec::with_capacity(1 << 12),
        }
    }

    fn ctx(&mut self) -> Ctx<'_> {
        Ctx {
            now: SimTime::ZERO,
            cfg: &self.cfg,
            catalog: &self.catalog,
            pes: &mut self.pes,
            rng: &mut self.rng,
            out: &mut self.actions,
            temp_counter: &mut self.temp,
            control_pe: 0,
        }
    }

    /// Start `join` and feed its set-up completions back until it is
    /// ready for build batches.
    fn start(&mut self, join: &mut JoinTask) {
        join.start(&mut self.ctx());
        for _ in 0..100 {
            let steps: Vec<Step> = self
                .actions
                .drain(..)
                .filter_map(|a| match a {
                    Action::Cpu { token, .. } | Action::Io { token, .. } => Some(token.step),
                    _ => None,
                })
                .collect();
            if steps.is_empty() {
                return;
            }
            for step in steps {
                join.on_step(step, &mut self.ctx());
            }
        }
    }

    /// Feed `batches` batches of `tuples` each; return the allocations
    /// made and the messages sent. Batch CPU completions are no-ops, so
    /// the emitted actions are dropped without feeding them back.
    fn batches(
        &mut self,
        join: &mut JoinTask,
        phase: JoinPhase,
        batches: u32,
        tuples: u32,
    ) -> (u64, u64) {
        let mut sends = 0;
        let before = alloc_audit::thread_stats().allocs;
        for _ in 0..batches {
            join.on_batch(phase, tuples, false, &mut self.ctx());
            sends += self
                .actions
                .iter()
                .filter(|a| matches!(a, Action::Send(_)))
                .count() as u64;
            self.actions.clear();
        }
        (alloc_audit::thread_stats().allocs - before, sends)
    }
}

/// A join whose hash table stays resident: 64 build and 64 probe batches
/// over its 15 partitions, every batch split with a different
/// rotation.
#[test]
fn pphj_batches_allocate_only_their_result_messages() {
    let mut h = Harness::new(4, 400);
    let mut slab: Slab<u8> = Slab::new();
    let job = slab.insert(0);
    let mut join = JoinTask::new(job, 0, 1, 0, 1, 1, 200, 20_000);
    h.start(&mut join);
    let (build_allocs, build_sends) = h.batches(&mut join, JoinPhase::Build, 64, 50);
    assert_eq!(build_sends, 0, "build batches send nothing");
    assert_eq!(build_allocs, 0, "a build batch allocated");
    assert_eq!(join.build_tuples(), 64 * 50);
    join.on_phase_end(JoinPhase::Build, &mut h.ctx());
    h.actions.clear();
    let (probe_allocs, probe_sends) = h.batches(&mut join, JoinPhase::Probe, 64, 300);
    assert!(probe_sends > 0, "probing must stream result batches");
    assert_eq!(
        probe_allocs, probe_sends,
        "a probe batch allocated beyond its result-message boxes"
    );
}
