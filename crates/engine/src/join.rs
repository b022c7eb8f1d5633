//! The parallel hash-join query: coordinator state machine.
//!
//! Execution follows §2 of the paper: the coordinator obtains a placement
//! from the control node (degree of parallelism + join processors), starts
//! join subqueries (which reserve PPHJ memory), runs the **building phase**
//! (parallel scan of the inner relation A, redistributed to the join
//! processors), then the **probing phase** (scan of B, redistributed with
//! the same partitioning function), merges the result stream and commits
//! with the read-only single-phase optimization.

use crate::api::{
    Action, InKind, Input, JobId, JoinPhase, Msg, MsgKind, PeId, Step, TaskId, Token, COORD_TASK,
};
use crate::ctx::Ctx;
use crate::pphj::JoinTask;
use crate::scan::{ScanAccess, ScanSource, ScanTask};
use dbmodel::catalog::RelationId;
use dbmodel::lock::TxnToken;
use simkit::slab::SlabKey;
use simkit::SimTime;
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CState {
    Queued,
    Init,
    WaitPlacement,
    WaitReady,
    Build,
    Probe,
    Commit,
    Done,
}

/// Tasks of a join job.
pub enum Task {
    Join(JoinTask),
    Scan(ScanTask),
}

/// Per-job record of the placement decision (for metrics).
#[derive(Debug, Clone, Default)]
pub struct JoinOutcome {
    pub degree: u32,
    pub result_tuples: u64,
    pub spill_pages: u64,
    pub temp_reads: u64,
    pub mem_waits: u32,
}

/// A two-way parallel hash-join query.
pub struct JoinJob {
    pub class: u32,
    pub coord: PeId,
    pub inner: RelationId,
    pub outer: RelationId,
    pub selectivity: f64,
    pub submitted: SimTime,

    // Planner inputs for the load balancer.
    pub table_pages: f64,
    pub psu_opt: u32,
    pub psu_noio: u32,
    /// Expected inner/outer scan outputs (tuples).
    pub inner_out: u64,
    pub outer_out: u64,

    /// Redistribution skew (Zipf theta over join processors); 0 = uniform.
    pub skew: f64,
    /// Multi-way support: probe side streamed from the coordinator's
    /// in-memory intermediate instead of scanning `outer`.
    pub probe_override: Option<u64>,
    /// Multi-join stage index carried in placement requests (0 = first).
    pub stage: u32,
    /// Emit `JobDone` at commit (false for intermediate multi-way stages).
    pub finalize: bool,

    state: CState,
    pub placement: Vec<PeId>,
    tasks: Vec<Task>,
    /// Inner-scan sources: (fragment index, home PE at placement time).
    a_frags: Vec<(u32, PeId)>,
    /// Probe-scan sources (fragment, home PE), or the coordinator's
    /// in-memory intermediate for multi-way stages.
    b_frags: Vec<(u32, PeId)>,
    ready_cnt: u32,
    builddone_cnt: u32,
    joindone_cnt: u32,
    ack_cnt: u32,
    pub result_tuples: u64,
    /// Set when the job (stage) completed; consumed by multi-way driver.
    pub stage_complete: bool,
}

impl JoinJob {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        class: u32,
        coord: PeId,
        inner: RelationId,
        outer: RelationId,
        selectivity: f64,
        submitted: SimTime,
        table_pages: f64,
        psu_opt: u32,
        psu_noio: u32,
        inner_out: u64,
        outer_out: u64,
    ) -> JoinJob {
        JoinJob {
            class,
            coord,
            inner,
            outer,
            selectivity,
            submitted,
            table_pages,
            psu_opt,
            psu_noio,
            inner_out,
            outer_out,
            skew: 0.0,
            probe_override: None,
            stage: 0,
            finalize: true,
            state: CState::Queued,
            placement: Vec::new(),
            tasks: Vec::new(),
            a_frags: Vec::new(),
            b_frags: Vec::new(),
            ready_cnt: 0,
            builddone_cnt: 0,
            joindone_cnt: 0,
            ack_cnt: 0,
            result_tuples: 0,
            stage_complete: false,
        }
    }

    fn txn(&self, job: JobId) -> TxnToken {
        TxnToken {
            id: job.to_raw(),
            birth: self.submitted,
        }
    }

    /// One-line state summary for stuck-job diagnostics.
    pub fn debug_state(&self) -> String {
        format!(
            "Join state={:?} deg={} ready={}/{} builddone={} joindone={} acks={}/{} results={}/{}",
            self.state,
            self.placement.len(),
            self.ready_cnt,
            self.placement.len(),
            self.builddone_cnt,
            self.joindone_cnt,
            self.ack_cnt,
            self.tasks.len(),
            self.result_tuples,
            self.inner_out,
        )
    }

    /// Detailed per-task state (diagnostics).
    pub fn debug_tasks(&self) -> Vec<String> {
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| match t {
                Task::Join(j) => format!("  task{} {}", i, j.debug_state()),
                Task::Scan(s) => format!("  task{} {}", i, s.debug_state()),
            })
            .collect()
    }

    pub fn outcome(&self) -> JoinOutcome {
        let mut o = JoinOutcome {
            degree: self.placement.len() as u32,
            result_tuples: self.result_tuples,
            ..JoinOutcome::default()
        };
        for t in &self.tasks {
            if let Task::Join(j) = t {
                o.spill_pages += j.spill_pages_written;
                o.temp_reads += j.temp_pages_read;
                o.mem_waits += u32::from(j.mem_wait);
            }
        }
        o
    }

    /// Reset transient state for reuse as the next multi-way stage.
    pub fn reset_for_stage(
        &mut self,
        inner: RelationId,
        table_pages: f64,
        psu_opt: u32,
        psu_noio: u32,
        inner_out: u64,
        probe_tuples: u64,
    ) {
        self.inner = inner;
        self.table_pages = table_pages;
        self.psu_opt = psu_opt;
        self.psu_noio = psu_noio;
        self.inner_out = inner_out;
        self.outer_out = probe_tuples;
        self.probe_override = Some(probe_tuples);
        self.stage += 1;
        self.state = CState::Init;
        self.placement.clear();
        self.tasks.clear();
        self.a_frags.clear();
        self.b_frags.clear();
        self.ready_cnt = 0;
        self.builddone_cnt = 0;
        self.joindone_cnt = 0;
        self.ack_cnt = 0;
        self.result_tuples = 0;
        self.stage_complete = false;
    }

    /// Kick off a (next) stage: request a placement from the control node.
    pub fn request_placement(&mut self, job: JobId, ctx: &mut Ctx) {
        self.state = CState::WaitPlacement;
        ctx.send_to(
            self.coord,
            ctx.control_pe,
            job,
            COORD_TASK,
            ctx.cfg.ctrl_msg_bytes,
            MsgKind::ControlReq {
                table_pages: self.table_pages,
                psu_opt: self.psu_opt,
                psu_noio: self.psu_noio,
                outer_scan_nodes: match self.probe_override {
                    Some(_) => 1,
                    None => ctx.catalog.scan_pe_count(self.outer),
                },
                inner_rel: self.inner.0,
                stage: self.stage,
            },
        );
    }

    /// Main dispatch. Memory and lock wake-ups are addressed by PE (the
    /// simulator does not know task ids); they are routed to the matching
    /// task here.
    pub fn handle(&mut self, job: JobId, input: Input, ctx: &mut Ctx) {
        match &input.kind {
            InKind::MemGrant { pe, pages } => {
                let (pe, pages) = (*pe, *pages);
                if let Some(tid) = self.join_task_at(pe) {
                    self.task_input(job, tid, InKind::MemGrant { pe, pages }, ctx);
                }
                return;
            }
            InKind::MemSteal { pe, pages } => {
                let (pe, pages) = (*pe, *pages);
                if let Some(tid) = self.join_task_at(pe) {
                    self.task_input(job, tid, InKind::MemSteal { pe, pages }, ctx);
                }
                return;
            }
            InKind::LockGrant { pe, object } => {
                let (pe, object) = (*pe, *object);
                if let Some(tid) = self.scan_task_at(pe, object) {
                    self.task_input(job, tid, InKind::LockGrant { pe, object }, ctx);
                }
                return;
            }
            InKind::Alarm { pe } => {
                let pe = *pe;
                if let Some(tid) = self.join_task_at(pe) {
                    self.task_input(job, tid, InKind::Alarm { pe }, ctx);
                }
                return;
            }
            _ => {}
        }
        match input.task {
            COORD_TASK => self.coordinator(job, input.kind, ctx),
            t => self.task_input(job, t, input.kind, ctx),
        }
    }

    fn join_task_at(&self, pe: PeId) -> Option<TaskId> {
        self.placement
            .iter()
            .position(|&p| p == pe)
            .map(|i| i as TaskId)
    }

    /// Scan task waiting on `object` at `pe`. Matching on the lock object
    /// (a fragment lock) keeps routing exact when several fragments of one
    /// relation share a home PE.
    fn scan_task_at(&self, pe: PeId, object: u64) -> Option<TaskId> {
        self.tasks
            .iter()
            .position(|t| match t {
                Task::Scan(s) => s.pe == pe && !s.is_done() && s.lock_object() == Some(object),
                Task::Join(_) => false,
            })
            .map(|i| i as TaskId)
    }

    fn coordinator(&mut self, job: JobId, kind: InKind, ctx: &mut Ctx) {
        match kind {
            InKind::Start => {
                debug_assert_eq!(self.state, CState::Queued);
                self.state = CState::Init;
                ctx.cpu(
                    self.coord,
                    ctx.cfg.instr.init_txn,
                    false,
                    Token::new(job, COORD_TASK, Step::Init),
                );
            }
            InKind::Step(Step::Init) => {
                self.request_placement(job, ctx);
            }
            InKind::Msg(msg) => self.coord_msg(job, *msg, ctx),
            InKind::Step(Step::TermCpu) => {
                debug_assert_eq!(self.state, CState::Commit);
                self.state = CState::Done;
                self.stage_complete = true;
                if self.finalize {
                    ctx.out.push(Action::JobDone { job });
                }
            }
            other => unreachable!("join coordinator: unexpected input {other:?}"),
        }
    }

    fn coord_msg(&mut self, job: JobId, msg: Msg, ctx: &mut Ctx) {
        match msg.kind {
            MsgKind::ControlRep { nodes } => {
                debug_assert_eq!(self.state, CState::WaitPlacement);
                self.place(job, nodes, ctx);
            }
            MsgKind::JoinReady => {
                debug_assert_eq!(self.state, CState::WaitReady);
                self.ready_cnt += 1;
                if self.ready_cnt == self.placement.len() as u32 {
                    self.start_build(job, ctx);
                }
            }
            MsgKind::BuildDone => {
                debug_assert_eq!(self.state, CState::Build);
                self.builddone_cnt += 1;
                if self.builddone_cnt == self.placement.len() as u32 {
                    self.start_probe(job, ctx);
                }
            }
            MsgKind::ResultBatch { tuples } => {
                self.result_tuples += tuples as u64;
            }
            MsgKind::JoinDone => {
                debug_assert_eq!(self.state, CState::Probe);
                self.joindone_cnt += 1;
                if self.joindone_cnt == self.placement.len() as u32 {
                    self.start_commit(job, ctx);
                }
            }
            MsgKind::CommitAck => {
                debug_assert_eq!(self.state, CState::Commit);
                self.ack_cnt += 1;
                if self.ack_cnt == self.tasks.len() as u32 {
                    ctx.cpu(
                        self.coord,
                        ctx.cfg.instr.term_txn,
                        false,
                        Token::new(job, COORD_TASK, Step::TermCpu),
                    );
                }
            }
            other => unreachable!("join coordinator: unexpected message {other:?}"),
        }
    }

    /// Subjoin share weights: uniform, or Zipf-distributed under a skewed
    /// partitioning function. Sorted descending so the largest subjoin
    /// lands on `placement[0]` — which LUM/integrated strategies order by
    /// most-free memory first (the paper's §7 "assign larger subjoins to
    /// less loaded nodes").
    fn share_weights(&self, p: u32) -> Vec<f64> {
        if self.skew <= 0.0 {
            return vec![1.0 / p as f64; p as usize];
        }
        let raw: Vec<f64> = (1..=p).map(|i| 1.0 / (i as f64).powf(self.skew)).collect();
        let total: f64 = raw.iter().sum();
        raw.into_iter().map(|w| w / total).collect()
    }

    /// The control node answered: build tasks and start the join
    /// subqueries.
    fn place(&mut self, job: JobId, nodes: Vec<PeId>, ctx: &mut Ctx) {
        debug_assert!(!nodes.is_empty());
        self.placement = nodes;
        let p = self.placement.len() as u32;
        let weights = self.share_weights(p);
        self.a_frags = ctx
            .catalog
            .fragments(self.inner)
            .iter()
            .enumerate()
            .map(|(i, f)| (i as u32, f.pe))
            .collect();
        match self.probe_override {
            None => {
                self.b_frags = ctx
                    .catalog
                    .fragments(self.outer)
                    .iter()
                    .enumerate()
                    .map(|(i, f)| (i as u32, f.pe))
                    .collect();
            }
            Some(_) => {
                self.b_frags = vec![(0, self.coord)];
            }
        }
        let a_srcs = self.a_frags.len() as u32;
        let b_srcs = self.b_frags.len() as u32;

        // Task ids: joins first (so scan destination index == task id).
        self.tasks.clear();
        for (i, &pe) in self.placement.iter().enumerate() {
            let expected_inner_pages = ((self.table_pages * weights[i]).ceil() as u32).max(1);
            let expected_probe = ((self.outer_out as f64 * weights[i]).ceil() as u64).max(1);
            self.tasks.push(Task::Join(JoinTask::new(
                job,
                i as TaskId,
                pe,
                self.coord,
                a_srcs,
                b_srcs,
                expected_inner_pages,
                expected_probe,
            )));
        }
        let txn = self.txn(job);
        // One fan-out list for every scan task of this placement.
        let dests: Arc<[PeId]> = self.placement.as_slice().into();
        // Inner (A) scan tasks, one per fragment.
        for &(frag, pe) in self.a_frags.clone().iter() {
            let tid = self.tasks.len() as TaskId;
            let mut scan = ScanTask::new(
                job,
                tid,
                pe,
                self.coord,
                JoinPhase::Build,
                dests.clone(),
                ScanSource::Fragment {
                    relation: self.inner,
                    fragment: frag,
                    selectivity: self.selectivity,
                    access: ScanAccess::Clustered,
                },
                txn,
            );
            if self.skew > 0.0 {
                scan.set_weights(weights.clone());
            }
            self.tasks.push(Task::Scan(scan));
        }
        // Outer (B) scan tasks (or the in-memory intermediate).
        for &(frag, pe) in self.b_frags.clone().iter() {
            let tid = self.tasks.len() as TaskId;
            let source = match self.probe_override {
                None => ScanSource::Fragment {
                    relation: self.outer,
                    fragment: frag,
                    selectivity: self.selectivity,
                    access: ScanAccess::Clustered,
                },
                Some(tuples) => ScanSource::Memory { tuples },
            };
            let mut scan = ScanTask::new(
                job,
                tid,
                pe,
                self.coord,
                JoinPhase::Probe,
                dests.clone(),
                source,
                txn,
            );
            if self.skew > 0.0 {
                scan.set_weights(weights.clone());
            }
            self.tasks.push(Task::Scan(scan));
        }
        // Start the join subqueries.
        self.state = CState::WaitReady;
        for (i, &pe) in self.placement.clone().iter().enumerate() {
            let expected_inner_pages = ((self.table_pages * weights[i]).ceil() as u32).max(1);
            ctx.send_to(
                self.coord,
                pe,
                job,
                i as TaskId,
                ctx.cfg.ctrl_msg_bytes,
                MsgKind::StartJoin {
                    expected_inner_pages,
                    join_index: i as u32,
                    joiners: p,
                },
            );
        }
    }

    fn start_build(&mut self, job: JobId, ctx: &mut Ctx) {
        self.state = CState::Build;
        let p = self.placement.len() as u32;
        for (off, &(_, pe)) in self.a_frags.clone().iter().enumerate() {
            let tid = (p as usize + off) as TaskId;
            ctx.send_to(
                self.coord,
                pe,
                job,
                tid,
                ctx.cfg.ctrl_msg_bytes,
                MsgKind::StartScan {
                    relation: self.inner,
                    selectivity: self.selectivity,
                    phase: JoinPhase::Build,
                },
            );
        }
    }

    fn start_probe(&mut self, job: JobId, ctx: &mut Ctx) {
        self.state = CState::Probe;
        let base = self.placement.len() + self.a_frags.len();
        for (off, &(_, pe)) in self.b_frags.clone().iter().enumerate() {
            let tid = (base + off) as TaskId;
            ctx.send_to(
                self.coord,
                pe,
                job,
                tid,
                ctx.cfg.ctrl_msg_bytes,
                MsgKind::StartScan {
                    relation: self.outer,
                    selectivity: self.selectivity,
                    phase: JoinPhase::Probe,
                },
            );
        }
    }

    fn start_commit(&mut self, job: JobId, ctx: &mut Ctx) {
        debug_assert_eq!(
            self.result_tuples, self.inner_out,
            "tuple conservation: {} results, {} expected",
            self.result_tuples, self.inner_out
        );
        self.state = CState::Commit;
        for (tid, task) in self.tasks.iter().enumerate() {
            let pe = match task {
                Task::Join(j) => j.pe,
                Task::Scan(s) => s.pe,
            };
            ctx.send_to(
                self.coord,
                pe,
                job,
                tid as TaskId,
                ctx.cfg.ctrl_msg_bytes,
                MsgKind::Commit,
            );
        }
    }

    /// Route an input to a subquery task.
    fn task_input(&mut self, job: JobId, tid: TaskId, kind: InKind, ctx: &mut Ctx) {
        let idx = tid as usize;
        debug_assert!(idx < self.tasks.len(), "task {tid} out of range");
        match (&mut self.tasks[idx], kind) {
            (Task::Join(j), InKind::Msg(msg)) => match msg.kind {
                MsgKind::StartJoin { .. } => j.start(ctx),
                MsgKind::TupleBatch {
                    phase,
                    tuples,
                    last,
                } => j.on_batch(phase, tuples, last, ctx),
                MsgKind::PhaseEnd { phase } => j.on_phase_end(phase, ctx),
                MsgKind::Commit => j.commit(ctx),
                other => unreachable!("join task: unexpected message {other:?}"),
            },
            (Task::Join(j), InKind::Step(step)) => j.on_step(step, ctx),
            (Task::Join(j), InKind::MemGrant { pages, .. }) => j.mem_granted(ctx, pages),
            (Task::Join(j), InKind::MemSteal { pages, .. }) => j.mem_stolen(ctx, pages),
            (Task::Join(j), InKind::Alarm { .. }) => j.mem_wait_timeout(ctx),
            (Task::Scan(s), InKind::Msg(msg)) => match msg.kind {
                MsgKind::StartScan { .. } => s.start(ctx),
                MsgKind::Commit => {
                    let pe = s.pe;
                    let grants = s.commit(ctx);
                    for (txn, object) in grants {
                        ctx.out.push(Action::LockGranted {
                            job: SlabKey::from_raw(txn.id),
                            pe,
                            object,
                        });
                    }
                    ctx.cpu(
                        pe,
                        ctx.cfg.instr.term_txn,
                        false,
                        Token::new(job, tid, Step::TermCpu),
                    );
                    ctx.send_to(
                        pe,
                        self.coord,
                        job,
                        COORD_TASK,
                        ctx.cfg.ctrl_msg_bytes,
                        MsgKind::CommitAck,
                    );
                }
                other => unreachable!("scan task: unexpected message {other:?}"),
            },
            (Task::Scan(s), InKind::Step(Step::TermCpu)) => {
                let _ = s;
            }
            (Task::Scan(s), InKind::Step(step)) => s.on_step(step, ctx),
            (Task::Scan(s), InKind::LockGrant { .. }) => s.lock_granted(ctx),
            (t, k) => {
                let kind_name = match t {
                    Task::Join(_) => "join",
                    Task::Scan(_) => "scan",
                };
                unreachable!("{kind_name} task: unexpected input {k:?}")
            }
        }
    }
}
