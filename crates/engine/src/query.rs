//! Stand-alone single-relation queries: relation scan, clustered index
//! scan, non-clustered index scan, and update statements (with and without
//! index support) — the remaining query types of §4.

use crate::api::{
    Action, InKind, Input, JobId, JoinPhase, MsgKind, PeId, Step, TaskId, Token, COORD_TASK,
};
use crate::ctx::{object, Ctx};
use crate::scan::{ScanAccess, ScanSource, ScanTask};
use dbmodel::catalog::{PageAddr, RelationId};
use dbmodel::lock::{LockMode, LockOutcome, TxnToken};
use dbmodel::log::ForceOutcome;
use hardware::IoKind;
use simkit::slab::SlabKey;
use simkit::SimTime;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QState {
    Queued,
    Init,
    Running,
    Commit,
    Done,
}

/// A read-only scan query over one relation, executed in parallel at the
/// relation's data PEs with results merged at the coordinator.
pub struct ScanQueryJob {
    pub class: u32,
    pub coord: PeId,
    pub relation: RelationId,
    pub selectivity: f64,
    pub access: ScanAccess,
    pub submitted: SimTime,

    state: QState,
    tasks: Vec<ScanTask>,
    done_cnt: u32,
    ack_cnt: u32,
    pub result_tuples: u64,
}

impl ScanQueryJob {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        class: u32,
        coord: PeId,
        relation: RelationId,
        selectivity: f64,
        access: ScanAccess,
        submitted: SimTime,
    ) -> ScanQueryJob {
        ScanQueryJob {
            class,
            coord,
            relation,
            selectivity,
            access,
            submitted,
            state: QState::Queued,
            tasks: Vec::new(),
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
        // PE-addressed lock grants (a scan blocked on an in-flight
        // fragment migration) route to the matching scan task.
        if let InKind::LockGrant { pe, object } = input.kind {
            if let Some(tid) = self
                .tasks
                .iter()
                .position(|s| s.pe == pe && !s.is_done() && s.lock_object() == Some(object))
            {
                self.tasks[tid].lock_granted(ctx);
            }
            return;
        }
        match input.task {
            COORD_TASK => match (self.state, input.kind) {
                (QState::Queued, InKind::Start) => {
                    self.state = QState::Init;
                    ctx.cpu(
                        self.coord,
                        ctx.cfg.instr.init_txn,
                        false,
                        Token::new(job, COORD_TASK, Step::Init),
                    );
                }
                (QState::Init, InKind::Step(Step::Init)) => self.start_scans(job, ctx),
                (QState::Running, InKind::Msg(msg)) => match msg.kind {
                    MsgKind::ResultBatch { tuples } => self.result_tuples += tuples as u64,
                    MsgKind::ScanDone => {
                        self.done_cnt += 1;
                        if self.done_cnt == self.tasks.len() as u32 {
                            self.start_commit(job, ctx);
                        }
                    }
                    other => unreachable!("scan query: message {other:?}"),
                },
                (QState::Commit, InKind::Msg(msg)) => match msg.kind {
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
                    // Late result stragglers cannot occur (per-link FIFO).
                    other => unreachable!("scan query commit: message {other:?}"),
                },
                (QState::Commit, InKind::Step(Step::TermCpu)) => {
                    self.state = QState::Done;
                    ctx.out.push(Action::JobDone { job });
                }
                (s, k) => unreachable!("scan query coordinator: {k:?} in {s:?}"),
            },
            tid => self.task_input(job, tid, input.kind, ctx),
        }
    }

    fn start_scans(&mut self, job: JobId, ctx: &mut Ctx) {
        self.state = QState::Running;
        let txn = self.txn(job);
        let frags: Vec<(u32, PeId)> = ctx
            .catalog
            .fragments(self.relation)
            .iter()
            .enumerate()
            .map(|(i, f)| (i as u32, f.pe))
            .collect();
        // No consumers: results stream to the coordinator.
        let no_dests: std::sync::Arc<[PeId]> = std::sync::Arc::new([]);
        for (i, &(frag, pe)) in frags.iter().enumerate() {
            self.tasks.push(ScanTask::new(
                job,
                i as TaskId,
                pe,
                self.coord,
                JoinPhase::Build,
                no_dests.clone(),
                ScanSource::Fragment {
                    relation: self.relation,
                    fragment: frag,
                    selectivity: self.selectivity,
                    access: self.access,
                },
                txn,
            ));
            ctx.send_to(
                self.coord,
                pe,
                job,
                i as TaskId,
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
        self.state = QState::Commit;
        for (tid, task) in self.tasks.iter().enumerate() {
            ctx.send_to(
                self.coord,
                task.pe,
                job,
                tid as TaskId,
                ctx.cfg.ctrl_msg_bytes,
                MsgKind::Commit,
            );
        }
    }

    fn task_input(&mut self, job: JobId, tid: TaskId, kind: InKind, ctx: &mut Ctx) {
        let s = &mut self.tasks[tid as usize];
        match kind {
            InKind::Msg(msg) => match msg.kind {
                MsgKind::StartScan { .. } => s.start(ctx),
                MsgKind::Commit => {
                    let pe = s.pe;
                    let grants = s.commit(ctx);
                    for (txn, obj) in grants {
                        ctx.out.push(Action::LockGranted {
                            job: SlabKey::from_raw(txn.id),
                            pe,
                            object: obj,
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
                other => unreachable!("scan query task: message {other:?}"),
            },
            InKind::Step(Step::TermCpu) => {}
            InKind::Step(step) => s.on_step(step, ctx),
            other => unreachable!("scan query task: input {other:?}"),
        }
    }
}

/// An update statement: locate `tuples` tuples (via the index or by a full
/// fragment scan) on the coordinator's local fragment, update them, force
/// the log.
pub struct UpdateJob {
    pub class: u32,
    pub pe: PeId,
    pub relation: RelationId,
    pub tuples: u32,
    pub via_index: bool,
    pub submitted: SimTime,

    state: QState,
    updated: u32,
    pending_ios: u32,
    io_instr: u64,
    scan_page: u64,
    seed: u64,
}

impl UpdateJob {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        class: u32,
        pe: PeId,
        relation: RelationId,
        tuples: u32,
        via_index: bool,
        submitted: SimTime,
        seed: u64,
    ) -> UpdateJob {
        UpdateJob {
            class,
            pe,
            relation,
            tuples,
            via_index,
            submitted,
            state: QState::Queued,
            updated: 0,
            pending_ios: 0,
            io_instr: 0,
            scan_page: 0,
            seed,
        }
    }

    fn txn(&self, job: JobId) -> TxnToken {
        TxnToken {
            id: job.to_raw(),
            birth: self.submitted,
        }
    }

    fn next_rand(&mut self) -> u64 {
        self.seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(1);
        let mut z = self.seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 27)
    }

    pub fn handle(&mut self, job: JobId, input: Input, ctx: &mut Ctx) {
        debug_assert_eq!(input.task, COORD_TASK);
        match (self.state, input.kind) {
            (QState::Queued, InKind::Start) => {
                self.state = QState::Init;
                ctx.cpu(
                    self.pe,
                    ctx.cfg.instr.init_txn,
                    false,
                    Token::new(job, COORD_TASK, Step::Init),
                );
            }
            (QState::Init, InKind::Step(Step::Init)) => {
                self.state = QState::Running;
                self.advance(job, ctx);
            }
            (QState::Running, InKind::Step(Step::PageIo)) => {
                debug_assert!(self.pending_ios > 0);
                self.pending_ios -= 1;
                if self.pending_ios == 0 {
                    self.charge_cpu(job, ctx);
                }
            }
            (QState::Running, InKind::Step(Step::PageCpu)) => {
                self.advance(job, ctx);
            }
            (QState::Running, InKind::LockGrant { .. }) => {
                self.fetch_target(job, ctx);
            }
            (QState::Commit, InKind::Step(Step::LogIo)) => {
                let pe = self.pe;
                let grants = ctx.pes[pe as usize].locks.release_all(self.txn(job));
                for (txn, obj) in grants {
                    ctx.out.push(Action::LockGranted {
                        job: SlabKey::from_raw(txn.id),
                        pe,
                        object: obj,
                    });
                }
                ctx.cpu(
                    pe,
                    ctx.cfg.instr.term_txn,
                    false,
                    Token::new(job, COORD_TASK, Step::TermCpu),
                );
            }
            (QState::Commit, InKind::Step(Step::TermCpu)) => {
                self.state = QState::Done;
                ctx.out.push(Action::JobDone { job });
            }
            (s, k) => unreachable!("update job: {k:?} in {s:?}"),
        }
    }

    /// Advance to the next update target (or commit).
    fn advance(&mut self, job: JobId, ctx: &mut Ctx) {
        if self.updated >= self.tuples {
            self.state = QState::Commit;
            let pe = &mut ctx.pes[self.pe as usize];
            pe.log.append(self.tuples + 1);
            match pe.log.force(ctx.now) {
                ForceOutcome::Write { pages } => ctx.out.push(Action::LogWrite {
                    pe: self.pe,
                    pages,
                    token: Token::new(job, COORD_TASK, Step::LogIo),
                }),
                ForceOutcome::Joined => ctx.pes[self.pe as usize].log_waiters.push(job),
            }
            return;
        }
        let frag_tuples = ctx.catalog.tuples_at(self.relation, self.pe).max(1);
        let tuple = self.next_rand() % frag_tuples;
        let lock_obj = object::tuple_lock(self.relation, tuple);
        if ctx.pes[self.pe as usize]
            .locks
            .lock(self.txn(job), lock_obj, LockMode::Exclusive)
            == LockOutcome::Waiting
        {
            return; // resumed by LockGrant
        }
        self.fetch_target(job, ctx);
    }

    /// Fetch the pages needed to update one tuple.
    fn fetch_target(&mut self, job: JobId, ctx: &mut Ctx) {
        let frag_tuples = ctx.catalog.tuples_at(self.relation, self.pe);
        let frag_pages = ctx.catalog.pages_at(self.relation, self.pe).max(1);
        self.pending_ios = 0;
        self.io_instr = 0;
        let token = Token::new(job, COORD_TASK, Step::PageIo);
        if self.via_index {
            let tuple = self.next_rand() % frag_tuples.max(1);
            let tree = dbmodel::btree::BTreeModel::new(ctx.cfg.btree_fanout, frag_tuples);
            for lvl in 0..tree.height() {
                let addr = PageAddr::new(object::index(self.relation), lvl as u64);
                if ctx.fix_page(self.pe, addr, false, false, IoKind::RandRead, token.clone()) {
                    self.pending_ios += 1;
                    self.io_instr += ctx.cfg.instr.io;
                }
            }
            let data = PageAddr::new(object::data(self.relation), tuple % frag_pages);
            if ctx.fix_page(self.pe, data, true, false, IoKind::RandRead, token) {
                self.pending_ios += 1;
                self.io_instr += ctx.cfg.instr.io;
            }
        } else {
            // No index: sequential walk of the fragment until the target.
            let addr = PageAddr::new(object::data(self.relation), self.scan_page % frag_pages);
            self.scan_page += 1;
            if ctx.fix_page(
                self.pe,
                addr,
                true,
                false,
                IoKind::SeqRead {
                    run_remaining: (frag_pages - (self.scan_page - 1) % frag_pages) as u32,
                },
                token,
            ) {
                self.pending_ios += 1;
                self.io_instr += ctx.cfg.instr.io;
            }
        }
        if self.pending_ios == 0 {
            self.charge_cpu(job, ctx);
        }
    }

    fn charge_cpu(&mut self, job: JobId, ctx: &mut Ctx) {
        let c = ctx.cfg.instr;
        let instr = c.read_tuple + c.write_out + self.io_instr;
        self.io_instr = 0;
        self.updated += 1;
        ctx.cpu(
            self.pe,
            instr,
            false,
            Token::new(job, COORD_TASK, Step::PageCpu),
        );
    }
}
