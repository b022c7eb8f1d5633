//! The future event list.
//!
//! A 4-ary min-heap that orders events by `(time, seq)`, where `seq` is a
//! monotonically increasing sequence number assigned at scheduling time.
//! The sequence number guarantees **deterministic FIFO tie-breaking** for
//! events scheduled at the same instant, which is what makes
//! whole-simulation runs reproducible across platforms.
//!
//! The heap itself moves only 16-byte keys: the time, plus one word that
//! packs the sequence number (high 40 bits) over the index of the slot
//! holding the payload (low 24 bits). Payloads stay where they were
//! written until popped, in a slot vector whose vacated slots are reused
//! last-in first-out. Four children per node halve the depth of a binary
//! heap, and the smallest child is picked with comparisons whose results
//! feed indices rather than branches.

use crate::time::SimTime;
use std::mem::MaybeUninit;

/// Low bits of [`Key::seq_slot`] that hold the payload slot.
const SLOT_BITS: u32 = 24;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;
/// Largest sequence number a key can hold (40 bits).
const MAX_SEQ: u64 = u64::MAX >> SLOT_BITS;

#[derive(Clone, Copy)]
struct Key {
    time: u64,
    /// `seq << SLOT_BITS | slot`. Sequence numbers are unique, so ordering
    /// by this word orders ties by `seq` and never looks at the slot.
    seq_slot: u64,
}

impl Key {
    /// The `(time, seq)` order as one integer.
    #[inline(always)]
    fn rank(self) -> u128 {
        (self.time as u128) << 64 | self.seq_slot as u128
    }

    #[inline(always)]
    fn seq(self) -> u64 {
        self.seq_slot >> SLOT_BITS
    }

    #[inline(always)]
    fn slot(self) -> usize {
        (self.seq_slot & SLOT_MASK) as usize
    }
}

/// Index of the smallest of `keys[c..c + 4]`: two pairwise picks, then
/// the smaller of the two winners.
#[inline(always)]
fn min_of_four(keys: &[Key], c: usize) -> usize {
    let k = &keys[c..c + 4];
    let a = usize::from(k[1].rank() < k[0].rank());
    let b = 2 + usize::from(k[3].rank() < k[2].rank());
    let m = if k[b].rank() < k[a].rank() { b } else { a };
    c + m
}

/// Min-ordered future event list with deterministic tie-breaking.
pub struct EventHeap<T> {
    keys: Vec<Key>,
    /// Payloads; exactly the slots named by `keys` are initialized. Not
    /// `Option<T>`: moving the payload out through an `Option` went
    /// through a stack copy that stalled every pop.
    slots: Vec<MaybeUninit<T>>,
    /// Vacated slots, reused last-in first-out.
    free: Vec<u32>,
    next_seq: u64,
    last_popped: SimTime,
}

impl<T> Default for EventHeap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventHeap<T> {
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    pub fn with_capacity(cap: usize) -> Self {
        EventHeap {
            keys: Vec::with_capacity(cap),
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedule `payload` at absolute time `time`.
    ///
    /// # Panics
    /// Panics if `time` lies before the time of the most recently popped
    /// event: scheduling into the past would silently corrupt causality.
    pub fn push(&mut self, time: SimTime, payload: T) {
        let seq = self.alloc_seq();
        self.push_with_seq(time, seq, payload);
    }

    /// Pop the earliest event, advancing the internal causality watermark.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let (time, _, payload) = self.pop_raw()?;
        debug_assert!(time >= self.last_popped);
        self.last_popped = time;
        Some((time, payload))
    }

    /// Time of the next event without popping it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.keys.first().map(|k| SimTime(k.time))
    }

    /// Time and payload of the next event without popping it.
    pub fn peek(&self) -> Option<(SimTime, &T)> {
        self.keys.first().map(|k| {
            // SAFETY: `k` is in `keys`, so its slot is initialized.
            let payload = unsafe { self.slots[k.slot()].assume_init_ref() };
            (SimTime(k.time), payload)
        })
    }

    /// `(time, seq)` key of the next event without popping it.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.keys.first().map(|k| (SimTime(k.time), k.seq()))
    }

    /// Pop the earliest event **without** advancing the causality
    /// watermark, exposing its sequence number. Used by the windowed
    /// executor, which re-traverses the popped prefix and must still be
    /// able to push follow-ups timestamped inside it.
    pub fn pop_raw(&mut self) -> Option<(SimTime, u64, T)> {
        let last = self.keys.pop()?;
        let top = match self.keys.first() {
            Some(&top) => {
                self.sift_down_from_root(last);
                top
            }
            None => last,
        };
        let slot = top.slot();
        // SAFETY: `top` was in `keys`, so its slot is initialized; it has
        // left `keys`, so the slot is read exactly once.
        let payload = unsafe { self.slots[slot].assume_init_read() };
        self.free.push(slot as u32);
        Some((SimTime(top.time), top.seq(), payload))
    }

    /// Reserve the next sequence number (the windowed executor replays
    /// the sequential push order, so every push — even one whose event
    /// was already consumed inside the window — must consume a number).
    ///
    /// # Panics
    /// Panics once 2^40 numbers are used up, rather than wrapping.
    pub fn alloc_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        assert!(seq <= MAX_SEQ, "event sequence numbers exhausted");
        self.next_seq += 1;
        seq
    }

    /// Schedule `payload` under a sequence number obtained from
    /// [`EventHeap::alloc_seq`] (windowed executor only: the caller is
    /// reproducing the exact `(time, seq)` order a sequential run would
    /// have assigned).
    ///
    /// # Panics
    /// Panics if `time` lies before the causality watermark, or if more
    /// than 2^24 events would be pending at once.
    pub fn push_with_seq(&mut self, time: SimTime, seq: u64, payload: T) {
        debug_assert!(seq < self.next_seq, "seq must come from alloc_seq");
        assert!(
            time >= self.last_popped,
            "event scheduled in the past: {} < {}",
            time,
            self.last_popped
        );
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].write(payload);
                slot as u64
            }
            None => {
                let slot = self.slots.len() as u64;
                assert!(slot <= SLOT_MASK, "more than 2^24 pending events");
                self.slots.push(MaybeUninit::new(payload));
                slot
            }
        };
        self.sift_up(Key {
            time: time.as_nanos(),
            seq_slot: seq << SLOT_BITS | slot,
        });
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Total number of events ever scheduled (the next sequence number).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Append `key` and move it up to its place.
    #[inline]
    fn sift_up(&mut self, key: Key) {
        let mut hole = self.keys.len();
        self.keys.push(key);
        let keys = &mut self.keys[..];
        while hole > 0 {
            let parent = (hole - 1) / 4;
            if keys[parent].rank() <= key.rank() {
                break;
            }
            keys[hole] = keys[parent];
            hole = parent;
        }
        keys[hole] = key;
    }

    /// Fill the vacated root with `key`, moving smaller children up.
    #[inline]
    fn sift_down_from_root(&mut self, key: Key) {
        let keys = &mut self.keys[..];
        let n = keys.len();
        let mut hole = 0;
        loop {
            let first = 4 * hole + 1;
            let child = if first + 4 <= n {
                min_of_four(keys, first)
            } else if first < n {
                (first + 1..n).fold(first, |m, c| {
                    if keys[c].rank() < keys[m].rank() {
                        c
                    } else {
                        m
                    }
                })
            } else {
                break;
            };
            if key.rank() <= keys[child].rank() {
                break;
            }
            keys[hole] = keys[child];
            hole = child;
        }
        keys[hole] = key;
    }
}

impl<T> Drop for EventHeap<T> {
    fn drop(&mut self) {
        for k in &self.keys {
            // SAFETY: every slot named by `keys` is initialized and is
            // dropped once here, since keys name distinct slots.
            unsafe { self.slots[k.slot()].assume_init_drop() };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDur;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn pops_in_time_order() {
        let mut h = EventHeap::new();
        h.push(SimTime(30), "c");
        h.push(SimTime(10), "a");
        h.push(SimTime(20), "b");
        assert_eq!(h.pop().unwrap(), (SimTime(10), "a"));
        assert_eq!(h.pop().unwrap(), (SimTime(20), "b"));
        assert_eq!(h.pop().unwrap(), (SimTime(30), "c"));
        assert!(h.pop().is_none());
    }

    #[test]
    fn ties_break_fifo() {
        let mut h = EventHeap::new();
        let t = SimTime(5);
        for i in 0..100 {
            h.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(h.pop().unwrap().1, i);
        }
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_past_events() {
        let mut h = EventHeap::new();
        h.push(SimTime(10), ());
        h.pop();
        h.push(SimTime(9), ());
    }

    #[test]
    fn peek_matches_pop() {
        let mut h = EventHeap::new();
        h.push(SimTime::ZERO + SimDur::from_millis(3), 1u8);
        h.push(SimTime::ZERO + SimDur::from_millis(1), 2u8);
        assert_eq!(h.peek_time(), Some(SimTime(1_000_000)));
        assert_eq!(h.pop().unwrap().0, SimTime(1_000_000));
    }

    #[test]
    fn counters() {
        let mut h = EventHeap::new();
        assert!(h.is_empty());
        h.push(SimTime(1), ());
        h.push(SimTime(2), ());
        assert_eq!(h.len(), 2);
        assert_eq!(h.scheduled_total(), 2);
        h.pop();
        assert_eq!(h.len(), 1);
        assert_eq!(h.scheduled_total(), 2);
    }

    /// The heap sifts keys only; they must stay two words wide.
    #[test]
    fn keys_are_at_most_16_bytes() {
        assert!(std::mem::size_of::<Key>() <= 16);
    }

    /// Vacated payload slots are reused, so the slot vector is bounded by
    /// the peak number of pending events, not by the number ever pushed.
    #[test]
    fn payload_slots_are_reused() {
        let mut h = EventHeap::new();
        for i in 0..8u64 {
            h.push(SimTime(i), i);
        }
        for i in 0..10_000u64 {
            let (t, v) = h.pop().unwrap();
            h.push(t + SimDur::from_nanos(1 + i % 13), v);
        }
        assert_eq!(h.len(), 8);
        assert_eq!(h.slots.len(), 8);
    }

    /// Every payload is dropped exactly once: popped ones by the caller,
    /// pending ones with the heap.
    #[test]
    fn payloads_drop_exactly_once() {
        let token = std::rc::Rc::new(());
        let mut h = EventHeap::new();
        for i in 0..100u64 {
            h.push(SimTime(i % 7), token.clone());
        }
        for _ in 0..40 {
            drop(h.pop());
        }
        drop(h.pop_raw());
        let seq = h.alloc_seq();
        h.push_with_seq(SimTime(50), seq, token.clone());
        assert!(h.peek().is_some());
        assert_eq!(std::rc::Rc::strong_count(&token), 1 + 60);
        drop(h);
        assert_eq!(std::rc::Rc::strong_count(&token), 1);
    }

    proptest! {
        /// Popping must yield a non-decreasing time sequence, and same-time
        /// events must come out in insertion order.
        #[test]
        fn prop_order(times in proptest::collection::vec(0u64..50, 1..200)) {
            let mut h = EventHeap::new();
            for (i, t) in times.iter().enumerate() {
                h.push(SimTime(*t), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((t, idx)) = h.pop() {
                if let Some((lt, lidx)) = last {
                    prop_assert!(t >= lt);
                    if t == lt {
                        prop_assert!(idx > lidx, "FIFO violated on tie");
                    }
                }
                last = Some((t, idx));
            }
        }

        /// Order oracle: random interleavings of every operation, with
        /// times drawn from a handful of values above the watermark so
        /// ties are the rule, must match a `std` binary heap over
        /// `(time, seq)` step by step. Each payload is its own sequence
        /// number, so a payload mix-up shows as well as a misordering.
        /// Sequence numbers reserved with `alloc_seq` are pushed later and
        /// out of order, as the windowed executor's commit pass does.
        #[test]
        fn prop_matches_reference_binary_heap(
            ops in proptest::collection::vec((0u8..7, 0u64..4, 0usize..8), 1..600),
        ) {
            let mut h: EventHeap<u64> = EventHeap::new();
            let mut reference: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
            let mut next_seq = 0u64;
            let mut watermark = SimTime::ZERO;
            let mut reserved: Vec<u64> = Vec::new();
            for (op, dt, pick) in ops {
                let t = watermark + SimDur::from_nanos(dt);
                match op {
                    0 | 1 => {
                        h.push(t, next_seq);
                        reference.push(Reverse((t, next_seq)));
                        next_seq += 1;
                    }
                    2 => {
                        let got = h.pop();
                        let want = reference.pop().map(|Reverse((t, s))| (t, s));
                        prop_assert_eq!(got, want);
                        if let Some((t, _)) = want {
                            watermark = t;
                        }
                    }
                    3 => {
                        let got = h.pop_raw();
                        let want = reference.pop().map(|Reverse((t, s))| (t, s, s));
                        prop_assert_eq!(got, want);
                    }
                    4 => {
                        let seq = h.alloc_seq();
                        prop_assert_eq!(seq, next_seq);
                        next_seq += 1;
                        reserved.push(seq);
                    }
                    5 if !reserved.is_empty() => {
                        let seq = reserved.swap_remove(pick % reserved.len());
                        h.push_with_seq(t, seq, seq);
                        reference.push(Reverse((t, seq)));
                    }
                    _ => {
                        let want = reference.peek().map(|Reverse(k)| *k);
                        prop_assert_eq!(h.peek_key(), want);
                        prop_assert_eq!(h.peek_time(), want.map(|k| k.0));
                        prop_assert_eq!(h.peek().map(|(t, p)| (t, *p)), want);
                    }
                }
                prop_assert_eq!(h.len(), reference.len());
                prop_assert_eq!(h.scheduled_total(), next_seq);
            }
            while let Some(Reverse((t, s))) = reference.pop() {
                prop_assert_eq!(h.pop(), Some((t, s)));
            }
            prop_assert!(h.is_empty());
        }
    }
}
