//! Parallel sort with dynamic redistribution (§7: "we believe the
//! principles behind our strategies are equally valid for other relational
//! operators that use a dynamic redistribution of their input for parallel
//! execution (e.g., sort)").
//!
//! A sort query scans its relation in parallel, range-partitions the
//! output across `p` dynamically chosen sort processors (modelled as the
//! same redistribution machinery the join uses), sorts locally with an
//! external-merge scheme whose memory comes from the same working-space
//! pool as PPHJ (runs spill when the reservation cannot grow), and streams
//! the sorted result to the coordinator.

use crate::api::{Action, JobId, MsgKind, PeId, Step, TaskId, Token};
use crate::ctx::Ctx;
use hardware::{IoKind, IoRequest};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SState {
    Created,
    Init,
    /// Receiving redistributed tuples.
    Receive,
    /// Reading spilled runs back for the merge.
    MergeRead,
    /// Final sort/merge CPU.
    MergeCpu,
    Done,
    Committed,
}

/// One sort subquery on a chosen sort processor.
#[derive(Debug)]
pub struct SortTask {
    pub job: JobId,
    pub task_id: TaskId,
    pub pe: PeId,
    pub coord: PeId,
    srcs: u32,
    expected_pages: u32,

    state: SState,
    reserved: u32,
    /// Tuples currently buffered in memory (the open run).
    mem_tuples: u64,
    mem_pages: u32,
    /// Spilled run pages on the temp file.
    run_pages: u64,
    temp_obj: u64,
    ends_seen: u32,
    total_in: u64,
    results_sent: u64,
    result_acc: u32,
    merge_page: u64,

    pub spill_pages_written: u64,
    pub temp_pages_read: u64,
}

impl SortTask {
    pub fn new(
        job: JobId,
        task_id: TaskId,
        pe: PeId,
        coord: PeId,
        srcs: u32,
        expected_pages: u32,
    ) -> SortTask {
        SortTask {
            job,
            task_id,
            pe,
            coord,
            srcs,
            expected_pages,
            state: SState::Created,
            reserved: 0,
            mem_tuples: 0,
            mem_pages: 0,
            run_pages: 0,
            temp_obj: 0,
            ends_seen: 0,
            total_in: 0,
            results_sent: 0,
            result_acc: 0,
            merge_page: 0,
            spill_pages_written: 0,
            temp_pages_read: 0,
        }
    }

    fn token(&self, step: Step) -> Token {
        Token::new(self.job, self.task_id, step)
    }

    pub fn start(&mut self, ctx: &mut Ctx) {
        debug_assert_eq!(self.state, SState::Created);
        self.state = SState::Init;
        ctx.cpu(
            self.pe,
            ctx.cfg.instr.init_txn,
            false,
            self.token(Step::Init),
        );
    }

    fn reserve(&mut self, ctx: &mut Ctx) {
        // Best-effort: sort degrades to more/smaller runs under pressure.
        let key = Ctx::mem_key(self.job, self.pe);
        let (pages, writebacks) = ctx.pes[self.pe as usize]
            .buffer
            .reserve_best_effort(key, self.expected_pages.max(2));
        ctx.emit_writebacks(self.pe, &writebacks);
        self.reserved = pages;
        self.state = SState::Receive;
        ctx.send_to(
            self.pe,
            self.coord,
            self.job,
            crate::api::COORD_TASK,
            ctx.cfg.ctrl_msg_bytes,
            MsgKind::JoinReady,
        );
    }

    /// A redistributed batch arrived: run-formation CPU, spill when the
    /// open run exceeds the reservation.
    pub fn on_batch(&mut self, tuples: u32, last: bool, ctx: &mut Ctx) {
        debug_assert_eq!(self.state, SState::Receive);
        self.total_in += tuples as u64;
        self.mem_tuples += tuples as u64;
        let bf = ctx.cfg.tuples_per_page;
        let needed = (self.mem_tuples as f64 / bf as f64).ceil() as u32;
        let mut spill_ios = 0u64;
        if needed > self.mem_pages {
            let grow = needed - self.mem_pages;
            let key = Ctx::mem_key(self.job, self.pe);
            let have = self.reserved.saturating_sub(self.mem_pages);
            if have < grow {
                let (got, writebacks) = ctx.pes[self.pe as usize].buffer.try_grow(key, grow - have);
                ctx.emit_writebacks(self.pe, &writebacks);
                self.reserved += got;
            }
            if self.mem_pages + grow <= self.reserved.max(1) {
                self.mem_pages = needed;
            } else {
                // Spill the open run and start a new one.
                if self.temp_obj == 0 {
                    self.temp_obj = ctx.alloc_temp();
                }
                let pages = self.mem_pages.max(1);
                let disk = ctx.disk_of_page(self.temp_obj, 0);
                ctx.out.push(Action::IoAsync {
                    pe: self.pe,
                    disk,
                    req: IoRequest {
                        object: self.temp_obj,
                        page: self.run_pages,
                        kind: IoKind::Write { pages },
                    },
                });
                self.spill_pages_written += pages as u64;
                self.run_pages += pages as u64;
                spill_ios += 1;
                self.mem_tuples = tuples as u64;
                self.mem_pages = (self.mem_tuples as f64 / bf as f64).ceil() as u32;
            }
        }
        // Run formation: one comparison-insert per tuple.
        let c = ctx.cfg.instr;
        let instr = tuples as u64 * (c.read_tuple + c.hash_tuple) + spill_ios * c.io;
        ctx.cpu(self.pe, instr.max(1), false, self.token(Step::PageCpu));
        if last {
            self.on_phase_end(ctx);
        }
    }

    /// A scan source finished.
    pub fn on_phase_end(&mut self, ctx: &mut Ctx) {
        self.ends_seen += 1;
        debug_assert!(self.ends_seen <= self.srcs);
        if self.ends_seen == self.srcs {
            if self.run_pages > 0 {
                self.state = SState::MergeRead;
                self.merge_page = 0;
                self.advance_merge(ctx);
            } else {
                self.final_sort(ctx);
            }
        }
    }

    /// Read spilled runs back, one page at a time.
    fn advance_merge(&mut self, ctx: &mut Ctx) {
        if self.merge_page >= self.run_pages {
            self.final_sort(ctx);
            return;
        }
        let disk = ctx.disk_of_page(self.temp_obj, 0);
        let remaining = (self.run_pages - self.merge_page) as u32;
        ctx.out.push(Action::Io {
            pe: self.pe,
            disk,
            req: IoRequest {
                object: self.temp_obj,
                page: self.merge_page,
                kind: IoKind::SeqRead {
                    run_remaining: remaining,
                },
            },
            token: self.token(Step::TempIo),
        });
        self.temp_pages_read += 1;
    }

    /// Final n·log n sort/merge of everything this node received, then the
    /// sorted stream goes to the coordinator.
    fn final_sort(&mut self, ctx: &mut Ctx) {
        self.state = SState::MergeCpu;
        let c = ctx.cfg.instr;
        let n = self.total_in.max(2);
        let log2 = 64 - n.leading_zeros() as u64;
        let instr = n * c.hash_tuple * log2 / 4 + n * c.write_out;
        ctx.cpu(self.pe, instr.max(1), false, self.token(Step::DelayedCpu));
    }

    fn emit_results(&mut self, ctx: &mut Ctx) {
        let bf = ctx.cfg.tuples_per_page;
        let mut remaining = self.total_in - self.results_sent;
        while remaining > 0 {
            let t = (remaining as u32).min(bf);
            remaining -= t as u64;
            self.results_sent += t as u64;
            let bytes = ctx.cfg.batch_bytes(t, 400);
            ctx.send_to(
                self.pe,
                self.coord,
                self.job,
                crate::api::COORD_TASK,
                bytes,
                MsgKind::ResultBatch { tuples: t },
            );
        }
        let _ = self.result_acc;
        self.state = SState::Done;
        ctx.release_memory(self.job, self.pe);
        ctx.send_to(
            self.pe,
            self.coord,
            self.job,
            crate::api::COORD_TASK,
            ctx.cfg.ctrl_msg_bytes,
            MsgKind::JoinDone,
        );
    }

    pub fn on_step(&mut self, step: Step, ctx: &mut Ctx) {
        match (self.state, step) {
            (SState::Init, Step::Init) => self.reserve(ctx),
            (_, Step::PageCpu) => {}
            (SState::MergeRead, Step::TempIo) => {
                let c = ctx.cfg.instr;
                self.merge_page += 1;
                let instr = ctx.cfg.tuples_per_page as u64 * c.hash_tuple + c.io;
                // DelayedCpu drives the merge-read loop (PageCpu is the
                // generic no-op for trailing batch completions).
                ctx.cpu(self.pe, instr, false, self.token(Step::DelayedCpu));
            }
            (SState::MergeRead, Step::DelayedCpu) => self.advance_merge(ctx),
            (SState::MergeCpu, Step::DelayedCpu) => self.emit_results(ctx),
            (SState::Committed, Step::TermCpu) => {}
            (s, st) => unreachable!("sort task: step {st:?} in state {s:?}"),
        }
    }

    /// Commit: termination CPU + ack (memory already released).
    pub fn commit(&mut self, ctx: &mut Ctx) {
        debug_assert_eq!(self.state, SState::Done);
        self.state = SState::Committed;
        ctx.cpu(
            self.pe,
            ctx.cfg.instr.term_txn,
            false,
            self.token(Step::TermCpu),
        );
        ctx.send_to(
            self.pe,
            self.coord,
            self.job,
            crate::api::COORD_TASK,
            ctx.cfg.ctrl_msg_bytes,
            MsgKind::CommitAck,
        );
    }

    pub fn tuples_in(&self) -> u64 {
        self.total_in
    }
}

use crate::api::{InKind, Input, JoinPhase, Msg, COORD_TASK};
use crate::scan::{ScanAccess, ScanSource, ScanTask};
use dbmodel::catalog::RelationId;
use dbmodel::lock::TxnToken;
use simkit::slab::SlabKey;
use simkit::SimTime;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QState {
    Queued,
    Init,
    WaitPlacement,
    WaitReady,
    Running,
    Commit,
    Done,
}

/// Tasks of a sort query.
enum STask {
    Sort(SortTask),
    Scan(ScanTask),
}

/// A parallel sort query: scan + redistribute + local external sorts.
pub struct SortQueryJob {
    pub class: u32,
    pub coord: PeId,
    pub relation: RelationId,
    pub selectivity: f64,
    pub submitted: SimTime,
    // Planner numbers (like a join's, with the sort output as the table).
    pub table_pages: f64,
    pub psu_opt: u32,
    pub psu_noio: u32,
    pub expected_out: u64,

    state: QState,
    placement: Vec<PeId>,
    tasks: Vec<STask>,
    /// Scan sources: (fragment index, home PE at placement time).
    scan_frags: Vec<(u32, PeId)>,
    ready_cnt: u32,
    done_cnt: u32,
    ack_cnt: u32,
    pub result_tuples: u64,
}

impl SortQueryJob {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        class: u32,
        coord: PeId,
        relation: RelationId,
        selectivity: f64,
        submitted: SimTime,
        table_pages: f64,
        psu_opt: u32,
        psu_noio: u32,
        expected_out: u64,
    ) -> SortQueryJob {
        SortQueryJob {
            class,
            coord,
            relation,
            selectivity,
            submitted,
            table_pages,
            psu_opt,
            psu_noio,
            expected_out,
            state: QState::Queued,
            placement: Vec::new(),
            tasks: Vec::new(),
            scan_frags: Vec::new(),
            ready_cnt: 0,
            done_cnt: 0,
            ack_cnt: 0,
            result_tuples: 0,
        }
    }

    fn txn(&self, job: JobId) -> TxnToken {
        TxnToken {
            id: job.to_raw(),
            birth: self.submitted,
        }
    }

    pub fn handle(&mut self, job: JobId, input: Input, ctx: &mut Ctx) {
        // PE-addressed wake-ups (locks) route to the scan task there.
        if let InKind::LockGrant { pe, object } = input.kind {
            if let Some(tid) = self.tasks.iter().position(|t| match t {
                STask::Scan(s) => s.pe == pe && !s.is_done() && s.lock_object() == Some(object),
                STask::Sort(_) => false,
            }) {
                if let STask::Scan(s) = &mut self.tasks[tid] {
                    s.lock_granted(ctx);
                }
            }
            return;
        }
        match input.task {
            COORD_TASK => self.coordinator(job, input.kind, ctx),
            tid => self.task_input(job, tid, input.kind, ctx),
        }
    }

    fn coordinator(&mut self, job: JobId, kind: InKind, ctx: &mut Ctx) {
        match kind {
            InKind::Start => {
                debug_assert_eq!(self.state, QState::Queued);
                self.state = QState::Init;
                ctx.cpu(
                    self.coord,
                    ctx.cfg.instr.init_txn,
                    false,
                    Token::new(job, COORD_TASK, Step::Init),
                );
            }
            InKind::Step(Step::Init) => {
                self.state = QState::WaitPlacement;
                let srcs = ctx.catalog.scan_pe_count(self.relation);
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
                        outer_scan_nodes: srcs,
                        inner_rel: self.relation.0,
                        stage: 0,
                    },
                );
            }
            InKind::Msg(msg) => self.coord_msg(job, *msg, ctx),
            InKind::Step(Step::TermCpu) => {
                debug_assert_eq!(self.state, QState::Commit);
                self.state = QState::Done;
                ctx.out.push(Action::JobDone { job });
            }
            other => unreachable!("sort coordinator: unexpected input {other:?}"),
        }
    }

    fn coord_msg(&mut self, job: JobId, msg: Msg, ctx: &mut Ctx) {
        match msg.kind {
            MsgKind::ControlRep { nodes } => self.place(job, nodes, ctx),
            MsgKind::JoinReady => {
                self.ready_cnt += 1;
                if self.ready_cnt == self.placement.len() as u32 {
                    self.start_scans(job, ctx);
                }
            }
            MsgKind::ResultBatch { tuples } => self.result_tuples += tuples as u64,
            MsgKind::JoinDone => {
                self.done_cnt += 1;
                if self.done_cnt == self.placement.len() as u32 {
                    self.start_commit(job, ctx);
                }
            }
            MsgKind::CommitAck => {
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
            other => unreachable!("sort coordinator: unexpected message {other:?}"),
        }
    }

    fn place(&mut self, job: JobId, nodes: Vec<PeId>, ctx: &mut Ctx) {
        debug_assert_eq!(self.state, QState::WaitPlacement);
        self.placement = nodes;
        self.state = QState::WaitReady;
        let p = self.placement.len() as u32;
        self.scan_frags = ctx
            .catalog
            .fragments(self.relation)
            .iter()
            .enumerate()
            .map(|(i, f)| (i as u32, f.pe))
            .collect();
        let srcs = self.scan_frags.len() as u32;
        let expected = ((self.table_pages / p as f64).ceil() as u32).max(1);
        for (i, &pe) in self.placement.clone().iter().enumerate() {
            self.tasks.push(STask::Sort(SortTask::new(
                job,
                i as TaskId,
                pe,
                self.coord,
                srcs,
                expected,
            )));
            ctx.send_to(
                self.coord,
                pe,
                job,
                i as TaskId,
                ctx.cfg.ctrl_msg_bytes,
                MsgKind::StartJoin {
                    expected_inner_pages: expected,
                    join_index: i as u32,
                    joiners: p,
                },
            );
        }
    }

    fn start_scans(&mut self, job: JobId, ctx: &mut Ctx) {
        self.state = QState::Running;
        let txn = self.txn(job);
        // One fan-out list for every scan task of this placement.
        let dests: std::sync::Arc<[PeId]> = self.placement.as_slice().into();
        for &(frag, pe) in self.scan_frags.clone().iter() {
            let tid = self.tasks.len() as TaskId;
            self.tasks.push(STask::Scan(ScanTask::new(
                job,
                tid,
                pe,
                self.coord,
                JoinPhase::Build,
                dests.clone(),
                ScanSource::Fragment {
                    relation: self.relation,
                    fragment: frag,
                    selectivity: self.selectivity,
                    access: ScanAccess::Clustered,
                },
                txn,
            )));
            ctx.send_to(
                self.coord,
                pe,
                job,
                tid,
                ctx.cfg.ctrl_msg_bytes,
                MsgKind::StartScan {
                    relation: self.relation,
                    selectivity: self.selectivity,
                    phase: JoinPhase::Build,
                },
            );
        }
    }

    fn start_commit(&mut self, job: JobId, ctx: &mut Ctx) {
        debug_assert_eq!(
            self.result_tuples, self.expected_out,
            "sorted output must equal the scan output"
        );
        self.state = QState::Commit;
        for (tid, t) in self.tasks.iter().enumerate() {
            let pe = match t {
                STask::Sort(s) => s.pe,
                STask::Scan(s) => s.pe,
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

    fn task_input(&mut self, job: JobId, tid: TaskId, kind: InKind, ctx: &mut Ctx) {
        match (&mut self.tasks[tid as usize], kind) {
            (STask::Sort(t), InKind::Msg(msg)) => match msg.kind {
                MsgKind::StartJoin { .. } => t.start(ctx),
                MsgKind::TupleBatch { tuples, last, .. } => t.on_batch(tuples, last, ctx),
                MsgKind::PhaseEnd { .. } => t.on_phase_end(ctx),
                MsgKind::Commit => t.commit(ctx),
                other => unreachable!("sort task: message {other:?}"),
            },
            (STask::Sort(t), InKind::Step(step)) => t.on_step(step, ctx),
            (STask::Scan(s), InKind::Msg(msg)) => match msg.kind {
                MsgKind::StartScan { .. } => s.start(ctx),
                MsgKind::Commit => {
                    let pe = s.pe;
                    for (t, object) in s.commit(ctx) {
                        ctx.out.push(Action::LockGranted {
                            job: SlabKey::from_raw(t.id),
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
                other => unreachable!("sort scan: message {other:?}"),
            },
            (STask::Scan(_), InKind::Step(Step::TermCpu)) => {}
            (STask::Scan(s), InKind::Step(step)) => s.on_step(step, ctx),
            (_, k) => unreachable!("sort task: unexpected input {k:?}"),
        }
    }
}
