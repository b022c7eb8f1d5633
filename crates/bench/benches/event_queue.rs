//! Future-event-list microbenchmarks: the 4-ary packed-key `EventHeap`
//! against a plain `std::collections::BinaryHeap` of `(time, seq,
//! payload)` entries, the shape the event list had before. Push/pop mixes
//! are shaped like real runs:
//!
//! * a steady-state hold (every pop schedules a successor, the
//!   simulator's common case) at 4,096 live events;
//! * a soak-shaped hold at about 1,400 live events with gaps spread over
//!   2^13–2^25 ns, the depth and spread of the 1000-PE soaks;
//! * a fill-then-drain sweep;
//! * a heavy-tie burst (group commits and control ticks land whole
//!   cohorts on one timestamp).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use simkit::{EventHeap, SimRng, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const LIVE: usize = 4_096;
const SOAK_LIVE: usize = 1_400;
const OPS: usize = 10_000;

/// Pre-generated inter-event gaps, so both queues replay the identical
/// schedule.
fn gaps(seed: u64) -> Vec<u64> {
    let mut rng = SimRng::new(seed);
    (0..OPS).map(|_| rng.below(200_000) + 1).collect()
}

/// Gaps spread log-uniformly over 2^13–2^25 ns: from a CPU slice to a
/// think time.
fn soak_gaps(seed: u64) -> Vec<u64> {
    let mut rng = SimRng::new(seed);
    (0..OPS)
        .map(|_| {
            let e = 13 + rng.below(12);
            (1 << e) + rng.below(1 << e)
        })
        .collect()
}

/// Shared driver trait so one closure exercises both queues.
trait Fel {
    fn push(&mut self, t: SimTime, v: usize);
    fn pop(&mut self) -> Option<(SimTime, usize)>;
}

impl Fel for EventHeap<usize> {
    fn push(&mut self, t: SimTime, v: usize) {
        EventHeap::push(self, t, v)
    }
    fn pop(&mut self) -> Option<(SimTime, usize)> {
        EventHeap::pop(self)
    }
}

/// The reference: a max-heap of reversed `(time, seq, payload)` entries.
/// Sequence numbers are unique, so the payload never decides the order.
struct StdHeap {
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    next_seq: u64,
}

impl StdHeap {
    fn with_capacity(cap: usize) -> StdHeap {
        StdHeap {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }
}

impl Fel for StdHeap {
    fn push(&mut self, t: SimTime, v: usize) {
        self.heap.push(Reverse((t, self.next_seq, v)));
        self.next_seq += 1;
    }
    fn pop(&mut self) -> Option<(SimTime, usize)> {
        self.heap.pop().map(|Reverse((t, _, v))| (t, v))
    }
}

/// Hold `live` events in flight; every pop schedules one successor.
fn hold<Q: Fel>(q: &mut Q, live: usize, gaps: &[u64]) -> usize {
    for (i, &g) in gaps[..live].iter().enumerate() {
        q.push(SimTime(g), i);
    }
    let mut acc = 0usize;
    for &g in &gaps[live..] {
        let (t, v) = q.pop().expect("live set never empties");
        acc = acc.wrapping_add(v);
        q.push(SimTime(t.as_nanos() + g), v);
    }
    black_box(acc)
}

/// Fill completely, then drain dry (arrival floods, end-of-run tails).
fn fill_drain<Q: Fel>(q: &mut Q, gaps: &[u64]) -> usize {
    let mut t = 0u64;
    for (i, &g) in gaps.iter().enumerate() {
        t += g;
        q.push(SimTime(t), i);
    }
    let mut acc = 0usize;
    while let Some((_, v)) = q.pop() {
        acc = acc.wrapping_add(v);
    }
    black_box(acc)
}

/// Heavy ties: cohorts of 64 events share each timestamp (group commit /
/// control tick shape); FIFO order within a cohort is part of the
/// contract both queues honor.
fn tie_burst<Q: Fel>(q: &mut Q, gaps: &[u64]) -> usize {
    let mut t = 0u64;
    for (i, &g) in gaps.iter().enumerate() {
        if i % 64 == 0 {
            t += g;
        }
        q.push(SimTime(t), i);
    }
    let mut acc = 0usize;
    while let Some((_, v)) = q.pop() {
        acc = acc.wrapping_add(v);
    }
    black_box(acc)
}

/// Race the two queues on one shape, each starting empty with room for
/// `$cap` events; `$q` names the queue inside `$body`.
macro_rules! race {
    ($c:expr, $group:expr, $cap:expr, |$q:ident| $body:expr) => {{
        let mut g = $c.benchmark_group($group);
        g.bench_function("event_heap", |b| {
            b.iter(|| {
                let $q = &mut EventHeap::<usize>::with_capacity($cap);
                $body
            })
        });
        g.bench_function("std_binary_heap", |b| {
            b.iter(|| {
                let $q = &mut StdHeap::with_capacity($cap);
                $body
            })
        });
        g.finish();
    }};
}

fn bench_steady_state(c: &mut Criterion) {
    let gaps = gaps(1);
    race!(c, "event_queue/steady_state_4k_live", LIVE, |q| hold(
        q, LIVE, &gaps
    ));
}

fn bench_soak_hold(c: &mut Criterion) {
    let gaps = soak_gaps(4);
    race!(c, "event_queue/soak_hold_1400_live", SOAK_LIVE, |q| hold(
        q, SOAK_LIVE, &gaps
    ));
}

fn bench_fill_drain(c: &mut Criterion) {
    let gaps = gaps(2);
    race!(c, "event_queue/fill_drain_10k", OPS, |q| fill_drain(
        q, &gaps
    ));
}

fn bench_tie_burst(c: &mut Criterion) {
    let gaps = gaps(3);
    race!(c, "event_queue/tie_burst_10k", OPS, |q| tie_burst(q, &gaps));
}

criterion_group!(
    benches,
    bench_steady_state,
    bench_soak_hold,
    bench_fill_drain,
    bench_tie_burst
);
criterion_main!(benches);
