//! Deterministic pending-event set.
//!
//! A binary min-heap keyed on `(time, sequence)`, plus one FIFO *lane*
//! per distinct period for periodic timers. The monotonically increasing
//! sequence number guarantees that events scheduled for the same instant
//! pop in the order they were pushed, which makes whole-simulation replays
//! bit-identical — a property the reproduction tests rely on.
//!
//! # Periodic-timer lanes
//!
//! A timer that re-arms itself every `period` ([`EventQueue::push_every`])
//! goes to the lane for that period instead of the heap. A lane push lands
//! at `now + period` with the next sequence number; `now` never decreases
//! and sequence numbers only grow, so every lane is already sorted by
//! `(time, sequence)` and appending keeps it sorted. `pop` and `peek` take
//! the smaller of the heap head and the lane heads, which is exactly the
//! event a heap holding everything would have surfaced: the pop order is
//! the heap's, only an O(log n) sift became an O(1) append. (A push that
//! would land before its lane's tail — a caller whose clock went
//! backwards — goes to the heap instead, so the order stays exact for any
//! caller.)

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Internal heap entry. Ordered so that the *earliest* `(at, seq)` pair is
/// the heap maximum (we invert the comparison instead of wrapping in
/// `Reverse` to keep the hot comparison branch-light).
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted: smaller (at, seq) compares Greater so it surfaces first.
        other.key().cmp(&self.key())
    }
}

/// The FIFO of one timer period, sorted by `(at, seq)` by construction.
struct Lane<E> {
    period: SimDuration,
    fifo: VecDeque<Entry<E>>,
}

/// Where the earliest pending event lives.
#[derive(Clone, Copy)]
enum Head {
    Heap,
    Lane(usize),
}

/// A deterministic future-event list.
///
/// ```
/// use hog_sim_core::{EventQueue, SimDuration, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "later");
/// q.push(SimTime::from_secs(1), "sooner");
/// q.push_every(SimTime::ZERO, SimDuration::from_secs(1), "timer");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "sooner")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "timer")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "later")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Periodic-timer lanes, one per distinct period, in first-use order.
    lanes: Vec<Lane<E>>,
    /// Pending events, heap and lanes together.
    len: usize,
    next_seq: u64,
    /// Total number of events ever pushed (for instrumentation).
    pushed: u64,
    /// High-water mark of pending events (for instrumentation).
    peak_len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Create an empty queue with pre-reserved heap capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            lanes: Vec::new(),
            len: 0,
            next_seq: 0,
            pushed: 0,
            peak_len: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `at`.
    #[inline]
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_with_seq(at, seq, event);
    }

    /// Re-arm a periodic timer: schedule `event` at `now + period`, on the
    /// FIFO lane for `period`. Pops exactly where [`push`] at the same
    /// time would have put it (see the module docs), at O(1) cost instead
    /// of a heap sift. `now` must be the caller's current clock, which
    /// never decreases between calls.
    ///
    /// [`push`]: EventQueue::push
    #[inline]
    pub fn push_every(&mut self, now: SimTime, period: SimDuration, event: E) {
        let at = now + period;
        let seq = self.next_seq;
        self.next_seq += 1;
        let lane = match self.lanes.iter().position(|l| l.period == period) {
            Some(i) => i,
            None => {
                self.lanes.push(Lane {
                    period,
                    fifo: VecDeque::new(),
                });
                self.lanes.len() - 1
            }
        };
        let fifo = &mut self.lanes[lane].fifo;
        if fifo.back().is_some_and(|tail| tail.at > at) {
            // The clock went backwards: only the heap keeps this exact.
            self.push_with_seq(at, seq, event);
            return;
        }
        fifo.push_back(Entry { at, seq, event });
        self.note_pushed();
    }

    /// Reserve `n` consecutive sequence numbers without pushing anything,
    /// returning the first of the range. Later [`push_with_seq`] calls can
    /// hand the reserved numbers back one by one, letting a caller schedule
    /// events *lazily* while preserving the exact tie-break order a
    /// batch-at-once push would have produced.
    ///
    /// [`push_with_seq`]: EventQueue::push_with_seq
    pub fn reserve_seqs(&mut self, n: u64) -> u64 {
        let first = self.next_seq;
        self.next_seq += n;
        first
    }

    /// Schedule `event` at `at` with an explicitly reserved sequence number
    /// (from [`reserve_seqs`]). The queue orders solely on `(at, seq)`, so
    /// an event pushed late with an early reserved seq pops exactly where
    /// it would have had it been pushed eagerly.
    ///
    /// [`reserve_seqs`]: EventQueue::reserve_seqs
    #[inline]
    pub fn push_with_seq(&mut self, at: SimTime, seq: u64, event: E) {
        self.heap.push(Entry { at, seq, event });
        self.note_pushed();
    }

    #[inline]
    fn note_pushed(&mut self) {
        self.pushed += 1;
        self.len += 1;
        if self.len > self.peak_len {
            self.peak_len = self.len;
        }
    }

    /// The source holding the earliest `(at, seq)`: the heap head or one
    /// of the lane heads.
    #[inline]
    fn head(&self) -> Option<Head> {
        let mut best = self.heap.peek().map(|e| (e.key(), Head::Heap));
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(e) = lane.fifo.front() {
                if best.is_none_or(|(key, _)| e.key() < key) {
                    best = Some((e.key(), Head::Lane(i)));
                }
            }
        }
        best.map(|(_, head)| head)
    }

    /// Remove and return the earliest event, together with its firing time.
    /// Ties in time pop in push order.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let e = match self.head()? {
            Head::Heap => self.heap.pop(),
            Head::Lane(i) => self.lanes[i].fifo.pop_front(),
        }?;
        self.len -= 1;
        Some((e.at, e.event))
    }

    /// The firing time of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek().map(|(at, _)| at)
    }

    /// Borrow the earliest pending event without removing it. Lets the
    /// driver loop decide whether the head can join a same-instant batch
    /// (see `Model::batchable`) before committing to the pop.
    #[inline]
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        let e = match self.head()? {
            Head::Heap => self.heap.peek(),
            Head::Lane(i) => self.lanes[i].fifo.front(),
        }?;
        Some((e.at, &e.event))
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events pushed over the queue's lifetime.
    #[inline]
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Largest number of events that were ever pending at once.
    #[inline]
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Drop every pending event (the lifetime push counter is preserved).
    pub fn clear(&mut self) {
        self.heap.clear();
        for lane in &mut self.lanes {
            lane.fifo.clear();
        }
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &s in &[5u64, 1, 4, 2, 3] {
            q.push(SimTime::from_secs(s), s);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn fifo_on_equal_times() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(7);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), "c");
        q.push(SimTime::from_secs(1), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(SimTime::from_secs(5), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.is_empty());
    }

    #[test]
    fn counters() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.total_pushed(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.peak_len(), 2);
        q.push(SimTime::ZERO, ());
        assert_eq!(q.peak_len(), 2);
    }

    #[test]
    fn reserved_seqs_pop_in_reserved_order() {
        // Reserve three slots up front, push them out of wall-clock order
        // (and interleaved with ordinary pushes), and check the pop order
        // matches what an eager batch push would have produced.
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        let first = q.reserve_seqs(3);
        q.push(t, "plain-after-reserve"); // seq = first + 3
        q.push_with_seq(t, first + 2, "r2");
        q.push_with_seq(t, first, "r0");
        q.push_with_seq(t, first + 1, "r1");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["r0", "r1", "r2", "plain-after-reserve"]);
    }

    proptest! {
        /// Popping must always yield a non-decreasing time sequence, and for
        /// equal times the original push index must be increasing.
        #[test]
        fn prop_pop_order(times in proptest::collection::vec(0u64..1000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_millis(t), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((t, idx)) = q.pop() {
                if let Some((lt, lidx)) = last {
                    prop_assert!(t >= lt);
                    if t == lt {
                        prop_assert!(idx > lidx);
                    }
                }
                last = Some((t, idx));
            }
        }

        /// Lanes are invisible: clock-monotone random interleavings of
        /// `push` (via `after`), `every` on two periods, clamped `at`,
        /// reserved `at_with_seq` and pops give the same `(at, event)`
        /// pop sequence, `len` and `peak_len` as a heap-only reference
        /// queue fed the same schedule.
        #[test]
        fn prop_lanes_match_heap(ops in proptest::collection::vec((0u8..8, 0u64..5000), 1..400)) {
            use crate::engine::Scheduler;
            use std::cmp::Reverse;
            const PERIODS: [SimDuration; 2] =
                [SimDuration::from_millis(3000), SimDuration::from_millis(700)];
            // The reference: one binary heap on (at, seq), nothing else.
            struct Reference {
                heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
                next_seq: u64,
                peak: usize,
            }
            impl Reference {
                fn push_with_seq(&mut self, at: SimTime, seq: u64, ev: u32) {
                    self.heap.push(Reverse((at, seq, ev)));
                    self.peak = self.peak.max(self.heap.len());
                }
                fn push(&mut self, at: SimTime, ev: u32) {
                    let seq = self.next_seq;
                    self.next_seq += 1;
                    self.push_with_seq(at, seq, ev);
                }
            }
            let mut q = EventQueue::new();
            let mut r = Reference { heap: BinaryHeap::new(), next_seq: 0, peak: 0 };
            let mut now = SimTime::ZERO;
            let mut ev = 0u32;
            for (op, d) in ops {
                ev += 1;
                let delay = SimDuration::from_millis(d);
                let mut sched = Scheduler::over(now, &mut q);
                match op {
                    0 => {
                        sched.after(delay, ev);
                        r.push(now + delay, ev);
                    }
                    1 | 2 => {
                        let period = PERIODS[usize::from(op - 1)];
                        sched.every(period, ev);
                        r.push(now + period, ev);
                    }
                    3 => {
                        // Past instants clamp to now.
                        let at = SimTime::from_millis(d * 2);
                        sched.at(at, ev);
                        r.push(at.max(now), ev);
                    }
                    4 => {
                        // Two reserved seqs handed back out of order.
                        let first = sched.reserve_seqs(2);
                        let ref_first = r.next_seq;
                        r.next_seq += 2;
                        prop_assert_eq!(first, ref_first);
                        sched.at_with_seq(now + delay, first + 1, ev);
                        sched.at_with_seq(now + delay / 2, first, ev + 100_000);
                        r.push_with_seq(now + delay, first + 1, ev);
                        r.push_with_seq(now + delay / 2, first, ev + 100_000);
                    }
                    _ => {
                        let got = q.pop();
                        let want = r.heap.pop().map(|Reverse((at, _, e))| (at, e));
                        prop_assert_eq!(got, want);
                        if let Some((at, _)) = got {
                            now = at;
                        }
                    }
                }
                prop_assert_eq!(q.len(), r.heap.len());
                prop_assert_eq!(q.peek_time(), r.heap.peek().map(|Reverse((at, _, _))| *at));
            }
            prop_assert_eq!(q.peak_len(), r.peak);
            while let Some(got) = q.pop() {
                let want = r.heap.pop().map(|Reverse((at, _, e))| (at, e));
                prop_assert_eq!(Some(got), want);
            }
            prop_assert!(r.heap.is_empty() && q.is_empty());
        }
    }

    #[test]
    fn lane_counts_and_clear() {
        let mut q = EventQueue::new();
        let period = SimDuration::from_secs(3);
        q.push_every(SimTime::ZERO, period, "a");
        q.push(SimTime::from_secs(3), "b");
        q.push_every(SimTime::from_secs(1), period, "c");
        assert_eq!((q.len(), q.peak_len(), q.total_pushed()), (3, 3, 3));
        assert_eq!(q.peek(), Some((SimTime::from_secs(3), &"a")));
        q.clear();
        assert!(q.is_empty() && q.pop().is_none());
        assert_eq!(q.peak_len(), 3);
    }

    #[test]
    fn lane_push_behind_its_tail_stays_exact() {
        // A caller whose clock went backwards lands before the lane tail;
        // the queue must still pop in (at, seq) order.
        let mut q = EventQueue::new();
        let period = SimDuration::from_secs(3);
        q.push_every(SimTime::from_secs(10), period, "late");
        q.push_every(SimTime::from_secs(5), period, "early");
        assert_eq!(q.pop(), Some((SimTime::from_secs(8), "early")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(13), "late")));
    }
}
