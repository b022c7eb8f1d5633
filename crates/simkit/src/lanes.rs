//! Deterministic lane-parallel window execution.
//!
//! A **window** is a prefix of the future event list whose events are all
//! *lane-local*: each touches the state of exactly one lane (one PE, in
//! the simulator built on top) and schedules follow-ups only for its own
//! lane. Such a prefix can be executed lane-by-lane on worker threads and
//! still reproduce the sequential run **bit-identically**, because the
//! `(time, seq)` total order over the window is known up front and every
//! observable side effect can be replayed in that order afterwards.
//!
//! The protocol has three phases, driven by the simulation's own run loop
//! (the kernel cannot know which events are lane-local):
//!
//! 1. **Formation** (serial). Pop window-compatible events with
//!    [`EventQueue::window_pop`] — which advances neither the clock nor
//!    the causality watermark — partitioning them into per-lane item
//!    lists. Stop at the first *barrier* (an event with cross-lane
//!    effects). The FEL head after formation is the window **horizon**.
//! 2. **Lane execution** (parallel). Each lane handles its items in
//!    `(time, seq)` order against lane-private state, recording every
//!    event push into its [`LaneLog`]. A push timestamped before the
//!    horizon is *consumed* — handled inside the same window by the same
//!    lane (it cannot commute past the horizon event otherwise) — and
//!    becomes a window item itself, keyed by a lane-local rank. A push at
//!    or past the horizon is *deferred* verbatim.
//! 3. **Merge commit** (serial). [`merge_commit`] re-traverses the window
//!    in global `(time, seq)` order and replays each item's pushes
//!    against the real FEL, allocating sequence numbers as it goes. This
//!    reproduces the exact allocation order of a sequential run — in
//!    particular, a *consumed* push still burns its sequence number, so
//!    every event left in (or later pushed into) the FEL carries the same
//!    `(time, seq)` key it would have sequentially, and all future pops
//!    are bit-identical. Items flagged as carrying effects are returned
//!    in commit order so the simulation can replay cross-lane side
//!    effects (job retirement, global counters) serially.
//!
//! Why consumed pushes must burn sequence numbers: two same-time events in
//! different lanes tie-break on `seq`. If lane A's consumed push skipped
//! its number, every later allocation would shift by one relative to the
//! sequential run, flipping tie orders arbitrarily far in the future.

use crate::dispatch::EventQueue;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How one window item is keyed in the global `(time, seq)` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKey {
    /// An event popped from the FEL at formation: its original sequence
    /// number, assigned before the window started.
    Orig(u64),
    /// A push consumed inside the window: a lane-local rank, resolved to
    /// a real sequence number when the producing push is replayed.
    Gen(u32),
}

/// One handled item: its timestamp, key, push range, and whether the
/// simulation recorded a deferred cross-lane effect for it.
struct ItemHdr {
    time: SimTime,
    key: ItemKey,
    push_start: u32,
    push_end: u32,
    effect: bool,
}

enum PushRec<E> {
    /// Replay verbatim at commit (timestamp ≥ horizon, or barrier-bound).
    Defer(SimTime, E),
    /// Consumed in-window by rank; commit only burns its seq number.
    Consumed(u32),
}

/// Per-lane record of one window's execution: the items handled, in lane
/// order, and every event push each produced.
///
/// Allocation-free in steady state: `clear` keeps the backing buffers.
pub struct LaneLog<E> {
    items: Vec<ItemHdr>,
    pushes: Vec<PushRec<E>>,
    /// Rank → committed sequence number, filled during merge.
    gen_seq: Vec<u64>,
}

const SEQ_UNASSIGNED: u64 = u64::MAX;

impl<E> Default for LaneLog<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> LaneLog<E> {
    pub fn new() -> Self {
        LaneLog {
            items: Vec::new(),
            pushes: Vec::new(),
            gen_seq: Vec::new(),
        }
    }

    /// Forget the previous window, keeping capacity.
    pub fn clear(&mut self) {
        self.items.clear();
        self.pushes.clear();
        self.gen_seq.clear();
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of items handled this window.
    pub fn item_count(&self) -> usize {
        self.items.len()
    }

    /// Open the record for the next handled item. Items must be begun in
    /// the lane's `(time, seq)` handling order.
    pub fn begin_item(&mut self, time: SimTime, key: ItemKey) {
        let at = self.pushes.len() as u32;
        self.items.push(ItemHdr {
            time,
            key,
            push_start: at,
            push_end: at,
            effect: false,
        });
    }

    /// Record a push the lane defers to commit.
    pub fn push_defer(&mut self, t: SimTime, ev: E) {
        self.pushes.push(PushRec::Defer(t, ev));
        self.items.last_mut().expect("begin_item first").push_end += 1;
    }

    /// Record a push the lane consumes in-window; returns the rank the
    /// lane must use as the consumed event's [`ItemKey::Gen`]. The
    /// timestamp is the lane's business (it keys the consumed item in the
    /// lane's local frontier); commit only burns the sequence number.
    pub fn push_consumed(&mut self, _t: SimTime) -> u32 {
        let rank = self.gen_seq.len() as u32;
        self.gen_seq.push(SEQ_UNASSIGNED);
        self.pushes.push(PushRec::Consumed(rank));
        self.items.last_mut().expect("begin_item first").push_end += 1;
        rank
    }

    /// Flag the current item as carrying a deferred cross-lane effect;
    /// [`merge_commit`] reports it in commit order.
    pub fn mark_effect(&mut self) {
        self.items.last_mut().expect("begin_item first").effect = true;
    }

    /// The committed `(time, seq)` key of item `idx` (seq resolved for
    /// consumed items; panics if its producer has not been replayed).
    fn committed_key(&self, idx: usize) -> (SimTime, u64) {
        let hdr = &self.items[idx];
        let seq = match hdr.key {
            ItemKey::Orig(s) => s,
            ItemKey::Gen(rank) => {
                let s = self.gen_seq[rank as usize];
                debug_assert!(
                    s != SEQ_UNASSIGNED,
                    "consumed item merged before its producing push"
                );
                s
            }
        };
        (hdr.time, seq)
    }
}

/// One lane item replayed by [`MergeCursor::replay_next`]: where it lived
/// (`lane`, `idx`), its committed timestamp, and whether the lane flagged
/// a deferred cross-lane effect for it.
#[derive(Debug, Clone, Copy)]
pub struct MergeStep {
    pub lane: u32,
    pub idx: u32,
    pub time: SimTime,
    pub effect: bool,
}

/// Incremental merge over one window's lane logs in global `(time, seq)`
/// order.
///
/// [`merge_commit`] drives it to exhaustion for the simple case where the
/// whole window replays back-to-back. Simulations that must *interleave*
/// the replay with other event streams (residual events handled serially,
/// fresh FEL pushes landing below the horizon) instead step it manually:
/// [`MergeCursor::peek_key`] exposes the next item's committed key so the
/// caller can pick the global minimum across streams, and
/// [`MergeCursor::replay_next`] commits exactly one item.
///
/// Reusable across windows ([`MergeCursor::begin`] keeps the backing
/// buffers), so steady-state commits allocate nothing.
pub struct MergeCursor {
    /// (key, lane) min-heap over each active lane's next unmerged item.
    /// Sequence numbers are globally unique, so keys never tie.
    heads: BinaryHeap<Reverse<((SimTime, u64), u32)>>,
    cursors: Vec<usize>,
}

impl Default for MergeCursor {
    fn default() -> Self {
        Self::new()
    }
}

impl MergeCursor {
    pub fn new() -> MergeCursor {
        MergeCursor {
            heads: BinaryHeap::new(),
            cursors: Vec::new(),
        }
    }

    /// Start merging a freshly executed window. Only lanes listed in
    /// `active` are visited.
    pub fn begin<E>(&mut self, lanes: &[LaneLog<E>], active: &[u32]) {
        self.heads.clear();
        self.cursors.clear();
        self.cursors.resize(lanes.len(), 0);
        for &lane in active {
            let log = &lanes[lane as usize];
            if !log.is_empty() {
                // A lane's first item is always an original (consumed
                // pushes are produced by earlier items of the same lane),
                // so its key is resolvable up front.
                self.heads.push(Reverse((log.committed_key(0), lane)));
            }
        }
    }

    /// Committed `(time, seq)` key of the next unmerged item, if any.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heads.peek().map(|Reverse((key, _))| *key)
    }

    /// Replay the next item in `(time, seq)` order: set the clock to its
    /// timestamp, count it as processed, and replay its pushes against
    /// `q` (allocating real sequence numbers in exactly the order a
    /// sequential run would have).
    pub fn replay_next<E>(
        &mut self,
        q: &mut EventQueue<E>,
        lanes: &mut [LaneLog<E>],
    ) -> Option<MergeStep> {
        let Reverse(((t, _seq), lane)) = self.heads.pop()?;
        let idx = self.cursors[lane as usize];
        self.cursors[lane as usize] += 1;
        q.window_set_now(t);
        q.note_processed();
        let log = &mut lanes[lane as usize];
        let (start, end, effect) = {
            let hdr = &log.items[idx];
            (hdr.push_start as usize, hdr.push_end as usize, hdr.effect)
        };
        for p in start..end {
            let seq = q.alloc_seq();
            match &mut log.pushes[p] {
                PushRec::Defer(tp, _) => {
                    let tp = *tp;
                    let PushRec::Defer(_, ev) =
                        std::mem::replace(&mut log.pushes[p], PushRec::Consumed(u32::MAX))
                    else {
                        unreachable!()
                    };
                    q.push_with_seq(tp, seq, ev);
                }
                PushRec::Consumed(rank) => {
                    log.gen_seq[*rank as usize] = seq;
                }
            }
        }
        let next = self.cursors[lane as usize];
        if next < log.item_count() {
            self.heads.push(Reverse((log.committed_key(next), lane)));
        }
        Some(MergeStep {
            lane,
            idx: idx as u32,
            time: t,
            effect,
        })
    }
}

/// Re-traverse one window in global `(time, seq)` order, replaying every
/// recorded push against `q` (allocating real sequence numbers in exactly
/// the order a sequential run would have) and counting each item as
/// processed. The clock is left at the last item's timestamp.
///
/// Items flagged with [`LaneLog::mark_effect`] are appended to
/// `effects_out` as `(time, lane, item_idx)` in commit order; the caller
/// replays their simulation-level effects afterwards (they must not touch
/// the FEL).
pub fn merge_commit<E>(
    q: &mut EventQueue<E>,
    lanes: &mut [LaneLog<E>],
    active: &[u32],
    effects_out: &mut Vec<(SimTime, u32, u32)>,
) {
    let mut cursor = MergeCursor::new();
    cursor.begin(lanes, active);
    while let Some(step) = cursor.replay_next(q, lanes) {
        if step.effect {
            effects_out.push((step.time, step.lane, step.idx));
        }
    }
}

#[cfg(test)]
mod tests {
    //! A toy lane-closed simulation, run both sequentially (via the plain
    //! dispatch loop) and through the full window protocol at several
    //! window sizes and thread counts. The handled-event trace, processed
    //! counter, and residual FEL must match bit-for-bit.

    use super::*;
    use crate::time::SimDur;

    /// Toy event: `(lane, hop)`. Handling `(lane, hop)` pushes
    /// `(lane, hop+1)` after a lane/hop-dependent delay (sometimes zero —
    /// a same-time tie — and sometimes large, crossing any horizon) until
    /// `hop == MAX_HOP`. All pushes stay in the source lane.
    type Ev = (u32, u32);
    const MAX_HOP: u32 = 5;

    fn delay(lane: u32, hop: u32) -> SimDur {
        SimDur::from_nanos(match (lane + hop) % 4 {
            0 => 0, // same-time follow-up: exercises seq tie-breaking
            1 => 3,
            2 => 17,
            _ => 1000, // likely beyond the horizon: exercises deferral
        })
    }

    fn seed_queue(lanes: u32) -> EventQueue<Ev> {
        let mut q = EventQueue::with_capacity(16);
        for lane in 0..lanes {
            q.at(SimTime(5 + (lane as u64 * 7) % 13), (lane, 0));
            q.at(SimTime(5 + (lane as u64 * 3) % 11), (lane, 100));
        }
        q
    }

    /// (processed trace, processed count, FEL residue) of a run — the
    /// full observable state the parity assertions compare.
    type RunResult = (Vec<(u64, Ev)>, u64, Vec<(u64, u64, Ev)>);

    fn handle(t: SimTime, ev: Ev, q_push: &mut impl FnMut(SimTime, Ev)) {
        let (lane, hop) = ev;
        if hop % 100 < MAX_HOP {
            q_push(t + delay(lane, hop), (lane, hop + 1));
        }
    }

    /// Reference: the plain sequential loop.
    fn run_sequential(lanes: u32) -> RunResult {
        let mut q = seed_queue(lanes);
        let mut trace = Vec::new();
        let end = SimTime(60);
        while let Some(t) = q.peek_time() {
            if t > end {
                break;
            }
            let (t, ev) = q.pop_next().unwrap();
            trace.push((t.as_nanos(), ev));
            handle(t, ev, &mut |tp, e| q.at(tp, e));
        }
        let processed = q.processed();
        let mut residue = Vec::new();
        while let Some((t, seq, ev)) = q.window_pop() {
            residue.push((t.as_nanos(), seq, ev));
        }
        (trace, processed, residue)
    }

    /// One lane's window execution: merge original items with consumed
    /// follow-ups (originals win same-time ties — their seqs predate the
    /// window) and log every push.
    fn run_lane(
        items: &[(SimTime, u64, Ev)],
        horizon: SimTime,
        log: &mut LaneLog<Ev>,
        handled: &mut Vec<(u64, Ev)>,
    ) {
        let mut gen: BinaryHeap<Reverse<(SimTime, u32)>> = BinaryHeap::new();
        let mut gen_ev: Vec<Option<Ev>> = Vec::new();
        let mut cursor = 0;
        loop {
            let take_orig = match (items.get(cursor), gen.peek()) {
                (Some((to, _, _)), Some(Reverse((tg, _)))) => to <= tg,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let (t, key, ev) = if take_orig {
                let (t, seq, ev) = items[cursor];
                cursor += 1;
                (t, ItemKey::Orig(seq), ev)
            } else {
                let Reverse((t, rank)) = gen.pop().unwrap();
                (t, ItemKey::Gen(rank), gen_ev[rank as usize].take().unwrap())
            };
            log.begin_item(t, key);
            handled.push((t.as_nanos(), ev));
            handle(t, ev, &mut |tp, e| {
                if tp < horizon {
                    let rank = log.push_consumed(tp);
                    debug_assert_eq!(rank as usize, gen_ev.len());
                    gen_ev.push(Some(e));
                    gen.push(Reverse((tp, rank)));
                } else {
                    log.push_defer(tp, e);
                }
            });
            log.mark_effect(); // trace ordering is checked via effects
        }
    }

    /// The windowed run: form fixed-size windows, execute lanes (on
    /// `threads` scoped threads when > 1), merge, repeat.
    fn run_windowed(lanes: u32, window_cap: usize, threads: usize) -> RunResult {
        let mut q = seed_queue(lanes);
        let end = SimTime(60);
        let mut logs: Vec<LaneLog<Ev>> = (0..lanes).map(|_| LaneLog::new()).collect();
        let mut trace: Vec<(u64, Ev)> = Vec::new();
        let mut effects: Vec<(SimTime, u32, u32)> = Vec::new();
        loop {
            // --- formation ---
            let mut items: Vec<Vec<(SimTime, u64, Ev)>> = (0..lanes).map(|_| Vec::new()).collect();
            let mut active: Vec<u32> = Vec::new();
            let mut n = 0;
            while n < window_cap {
                match q.peek() {
                    Some((t, _)) if t <= end => {}
                    _ => break,
                }
                let (t, seq, ev) = q.window_pop().unwrap();
                let lane = ev.0;
                if items[lane as usize].is_empty() {
                    active.push(lane);
                }
                items[lane as usize].push((t, seq, ev));
                n += 1;
            }
            if n == 0 {
                break;
            }
            let horizon = q.peek_time().map_or(end, |t| t.min(end));
            // --- lane execution ---
            let mut handled: Vec<Vec<(u64, Ev)>> = (0..lanes).map(|_| Vec::new()).collect();
            for log in &mut logs {
                log.clear();
            }
            if threads > 1 {
                let chunk = items.len().div_ceil(threads);
                std::thread::scope(|s| {
                    for ((items_c, logs_c), handled_c) in items
                        .chunks(chunk)
                        .zip(logs.chunks_mut(chunk))
                        .zip(handled.chunks_mut(chunk))
                    {
                        s.spawn(move || {
                            for ((it, log), h) in items_c
                                .iter()
                                .zip(logs_c.iter_mut())
                                .zip(handled_c.iter_mut())
                            {
                                run_lane(it, horizon, log, h);
                            }
                        });
                    }
                });
            } else {
                for ((it, log), h) in items.iter().zip(logs.iter_mut()).zip(handled.iter_mut()) {
                    run_lane(it, horizon, log, h);
                }
            }
            // --- merge commit ---
            effects.clear();
            merge_commit(&mut q, &mut logs, &active, &mut effects);
            for &(_, lane, idx) in &effects {
                trace.push(handled[lane as usize][idx as usize]);
            }
        }
        let processed = q.processed();
        let mut residue = Vec::new();
        while let Some((t, seq, ev)) = q.window_pop() {
            residue.push((t.as_nanos(), seq, ev));
        }
        (trace, processed, residue)
    }

    #[test]
    fn windowed_matches_sequential_bit_for_bit() {
        for lanes in [1u32, 3, 8] {
            let reference = run_sequential(lanes);
            for window_cap in [1usize, 2, 7, 64] {
                for threads in [1usize, 2, 8] {
                    let got = run_windowed(lanes, window_cap, threads);
                    assert_eq!(
                        got, reference,
                        "lanes={lanes} cap={window_cap} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn consumed_pushes_burn_sequence_numbers() {
        // After a window in which pushes were consumed, a fresh push must
        // receive the same seq it would have sequentially — i.e. the
        // committed FEL's scheduled_total matches the sequential run's.
        let seq_run = run_sequential(4);
        let win_run = run_windowed(4, 8, 2);
        // Residues carry raw seqs; equality already proves allocation
        // parity, but make the property explicit:
        let seq_ids: Vec<u64> = seq_run.2.iter().map(|r| r.1).collect();
        let win_ids: Vec<u64> = win_run.2.iter().map(|r| r.1).collect();
        assert_eq!(seq_ids, win_ids);
        assert!(!seq_ids.is_empty(), "test must exercise deferred pushes");
    }
}
