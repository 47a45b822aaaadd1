//! Hierarchical timer wheel for per-probe deadlines.
//!
//! The reactor keeps thousands of probes in flight, each with a retransmit
//! deadline and possibly a scheduled (rate-limited or backed-off) send. A
//! heap would cost `O(log n)` per operation; the classic alternative
//! (Varghese & Lauck) is a *hierarchical timing wheel*: constant-time
//! insert and cancel, timers hashed into slots by expiry tick, far timers
//! parked in coarser wheels and cascaded inward as time passes.
//!
//! Every timer is a node in one arena, and every slot — plus the lists of
//! overdue and far-future timers — is an intrusive doubly-linked list
//! threaded through it. [`TimerWheel::schedule`] returns a [`TimerKey`]
//! and [`TimerWheel::cancel`] unlinks that node in O(1), so a probe that
//! is answered long before its deadline takes its timer with it: the
//! wheel holds live timers only, and its memory is bounded by the most
//! timers ever live at once, not by how many were cancelled recently.
//! Cascading relinks nodes; expired and cancelled nodes go to a free list
//! and are reused, never freed, so a warm wheel does not allocate.
//!
//! The wheel is deliberately clock-free: callers feed it *ticks* (the
//! reactor converts `Instant`s at one place).

/// Slots per level. 64 keeps slot indices to a 6-bit shift per level,
/// and a level's occupancy to one `u64` bitmap.
const SLOTS: usize = 64;
const SLOT_BITS: u32 = 6;
/// Levels: spans of 64, 4 096 and 262 144 ticks (≈ 4.4 min at 1 ms/tick).
const LEVELS: usize = 3;
/// Deadlines at least this far out wait in the far-future list, which is
/// re-filed at every outermost-level boundary.
const SPAN: u64 = 1 << (LEVELS as u32 * SLOT_BITS);
/// List ids: `level * SLOTS + slot` for the wheel slots, then these two.
const OVERDUE: usize = LEVELS * SLOTS;
const FAR: usize = OVERDUE + 1;
const LISTS: usize = FAR + 1;
/// The null link.
const NIL: u32 = u32::MAX;

/// A handle on one scheduled timer, for [`TimerWheel::cancel`].
///
/// It goes stale when its timer fires or is cancelled. The timer's node
/// is then reused, and the key's stamp tells the old life from the new.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerKey {
    index: u32,
    stamp: u32,
}

#[derive(Debug)]
struct Node<T> {
    deadline: u64,
    /// `None` while the node is on the free list.
    value: Option<T>,
    prev: u32,
    /// The next node of the list holding this one — or of the free list.
    next: u32,
    list: u16,
    /// Bumped at every release, so keys to earlier lives stop matching.
    stamp: u32,
}

#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

const EMPTY: List = List {
    head: NIL,
    tail: NIL,
};

/// A hierarchical timing wheel holding values of type `T`.
///
/// All deadlines are absolute tick numbers; `advance` drains every entry
/// whose deadline is at or before the new current tick. Entries due on
/// the same tick expire in the order they were scheduled.
#[derive(Debug)]
pub struct TimerWheel<T> {
    nodes: Vec<Node<T>>,
    /// Head of the free list, chained through `Node::next`.
    free: u32,
    lists: [List; LISTS],
    /// One bit per non-empty slot, per level.
    occupied: [u64; LEVELS],
    now: u64,
    len: usize,
}

impl<T> TimerWheel<T> {
    /// An empty wheel positioned at tick `now`.
    pub fn new(now: u64) -> TimerWheel<T> {
        TimerWheel {
            nodes: Vec::new(),
            free: NIL,
            lists: [EMPTY; LISTS],
            occupied: [0; LEVELS],
            now,
            len: 0,
        }
    }

    /// Currently scheduled (not yet expired or cancelled) timers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no timers are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The wheel's current tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Schedules `value` to expire at absolute tick `deadline`. A deadline
    /// at or before the current tick fires on the next [`advance`](Self::advance).
    /// The key cancels the timer until it fires.
    pub fn schedule(&mut self, deadline: u64, value: T) -> TimerKey {
        let index = self.alloc(deadline, value);
        self.push_back(self.list_for(deadline), index);
        self.len += 1;
        TimerKey {
            index,
            stamp: self.nodes[index as usize].stamp,
        }
    }

    /// Removes the timer `key` was issued for and returns its value, or
    /// `None` when that timer has already fired or been cancelled.
    pub fn cancel(&mut self, key: TimerKey) -> Option<T> {
        let node = self.nodes.get(key.index as usize)?;
        if node.stamp != key.stamp || node.value.is_none() {
            return None;
        }
        self.unlink(key.index);
        self.len -= 1;
        Some(self.release(key.index))
    }

    /// Advances the wheel to `now`, appending every expired value to
    /// `expired` (same-tick values in scheduling order). Ticks before the
    /// current tick are ignored.
    pub fn advance(&mut self, now: u64, expired: &mut Vec<T>) {
        self.advance_filtered(now, expired, |_| true);
    }

    /// Like [`advance`](Self::advance), but an expiring value for which
    /// `live` returns `false` is dropped instead of appended to `expired`.
    /// `live` is asked once per expiring value and about nothing else;
    /// to drop a timer before it expires, [`cancel`](Self::cancel) it.
    pub fn advance_filtered(
        &mut self,
        now: u64,
        expired: &mut Vec<T>,
        mut live: impl FnMut(&T) -> bool,
    ) {
        self.expire(OVERDUE, expired, &mut live);
        while self.now < now {
            if self.len == 0 {
                // Nothing to cascade or expire on the way: jump. A loop
                // that blocks without a deadline while the wheel is empty
                // can come back any number of ticks later.
                self.now = now;
                break;
            }
            self.now += 1;
            let tick = self.now;
            // Cascade coarser wheels at their boundaries *before* draining
            // the fine slot, so a cascaded entry due this very tick fires.
            // Level 1 goes first: entries cascaded later land in front,
            // and level 2's are the older ones (see `cascade`).
            if tick.trailing_zeros() >= SLOT_BITS {
                self.cascade(SLOTS + ((tick >> SLOT_BITS) % SLOTS as u64) as usize);
                if tick.trailing_zeros() >= 2 * SLOT_BITS {
                    self.cascade(2 * SLOTS + ((tick >> (2 * SLOT_BITS)) % SLOTS as u64) as usize);
                    self.cascade(FAR);
                }
            }
            // A cascade files an entry due at this very tick as overdue;
            // it fires ahead of the slot's own, which are younger.
            self.expire(OVERDUE, expired, &mut live);
            self.expire((tick % SLOTS as u64) as usize, expired, &mut live);
        }
    }

    /// The earliest tick at which the wheel has work — the longest the
    /// caller may sleep without missing a timer; `None` when it is empty.
    /// That is the earliest of the next deadline in the finest wheel
    /// (exact) and, for each coarser wheel, the tick its first non-empty
    /// slot cascades (never after that slot's deadlines); an empty slot
    /// costs no wake-up. Far-future timers are re-filed at every
    /// outermost boundary, 4 096 ticks apart.
    pub fn next_due(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        if self.lists[OVERDUE].head != NIL {
            return Some(self.now);
        }
        let mut due = u64::MAX;
        for (level, &bits) in self.occupied.iter().enumerate() {
            if bits == 0 {
                continue;
            }
            // Slots in the order the wheel reaches them: the first is
            // the one due (level 0) or cascading (coarser) at `next`.
            let shift = SLOT_BITS * level as u32;
            let next = (self.now >> shift) + 1;
            let ahead = bits
                .rotate_right((next % SLOTS as u64) as u32)
                .trailing_zeros();
            due = due.min((next + u64::from(ahead)) << shift);
        }
        if self.lists[FAR].head != NIL {
            let shift = SLOT_BITS * (LEVELS as u32 - 1);
            due = due.min(((self.now >> shift) + 1) << shift);
        }
        Some(due)
    }

    /// The list a timer due at `deadline` belongs in, seen from `now`:
    /// the finest level whose span covers the delta, in the slot indexed
    /// by the deadline's digits at that level, so the entry fires (or
    /// cascades) exactly when the wheel reaches it.
    fn list_for(&self, deadline: u64) -> usize {
        if deadline <= self.now {
            return OVERDUE;
        }
        let delta = deadline - self.now;
        if delta >= SPAN {
            return FAR;
        }
        let level = (63 - delta.leading_zeros()) / SLOT_BITS;
        level as usize * SLOTS + (deadline >> (SLOT_BITS * level)) as usize % SLOTS
    }

    /// Moves every entry of `list` to where it belongs now. Entries land
    /// in *front* of their new list, in their old order: an entry only
    /// ever cascades into a list whose entries for the same deadline were
    /// all scheduled after it, so same-tick entries stay in scheduling
    /// order.
    fn cascade(&mut self, list: usize) {
        let mut index = self.lists[list].tail;
        self.lists[list] = EMPTY;
        self.unmark(list);
        while index != NIL {
            let prev = self.nodes[index as usize].prev;
            self.push_front(self.list_for(self.nodes[index as usize].deadline), index);
            index = prev;
        }
    }

    /// Expires every entry of `list`, in order.
    fn expire(&mut self, list: usize, expired: &mut Vec<T>, live: &mut impl FnMut(&T) -> bool) {
        let mut index = self.lists[list].head;
        if index == NIL {
            return;
        }
        self.lists[list] = EMPTY;
        self.unmark(list);
        while index != NIL {
            let next = self.nodes[index as usize].next;
            debug_assert!(self.nodes[index as usize].deadline <= self.now);
            self.len -= 1;
            let value = self.release(index);
            if live(&value) {
                expired.push(value);
            }
            index = next;
        }
    }

    fn alloc(&mut self, deadline: u64, value: T) -> u32 {
        if self.free != NIL {
            let index = self.free;
            let node = &mut self.nodes[index as usize];
            self.free = node.next;
            node.deadline = deadline;
            node.value = Some(value);
            return index;
        }
        let index = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&i| i != NIL)
            .expect("timer arena holds at most u32::MAX - 1 timers");
        self.nodes.push(Node {
            deadline,
            value: Some(value),
            prev: NIL,
            next: NIL,
            list: 0,
            stamp: 0,
        });
        index
    }

    /// Puts an unlinked node on the free list and returns its value.
    fn release(&mut self, index: u32) -> T {
        let node = &mut self.nodes[index as usize];
        node.stamp = node.stamp.wrapping_add(1);
        node.next = self.free;
        self.free = index;
        node.value.take().expect("released a free node")
    }

    fn push_back(&mut self, list: usize, index: u32) {
        let tail = self.lists[list].tail;
        let node = &mut self.nodes[index as usize];
        node.list = list as u16;
        node.prev = tail;
        node.next = NIL;
        match tail {
            NIL => self.lists[list].head = index,
            tail => self.nodes[tail as usize].next = index,
        }
        self.lists[list].tail = index;
        self.mark(list);
    }

    fn push_front(&mut self, list: usize, index: u32) {
        let head = self.lists[list].head;
        let node = &mut self.nodes[index as usize];
        node.list = list as u16;
        node.prev = NIL;
        node.next = head;
        match head {
            NIL => self.lists[list].tail = index,
            head => self.nodes[head as usize].prev = index,
        }
        self.lists[list].head = index;
        self.mark(list);
    }

    fn unlink(&mut self, index: u32) {
        let Node {
            prev, next, list, ..
        } = self.nodes[index as usize];
        let list = usize::from(list);
        match prev {
            NIL => self.lists[list].head = next,
            prev => self.nodes[prev as usize].next = next,
        }
        match next {
            NIL => self.lists[list].tail = prev,
            next => self.nodes[next as usize].prev = prev,
        }
        if self.lists[list].head == NIL {
            self.unmark(list);
        }
    }

    fn mark(&mut self, list: usize) {
        if list < OVERDUE {
            self.occupied[list / SLOTS] |= 1 << (list % SLOTS);
        }
    }

    fn unmark(&mut self, list: usize) {
        if list < OVERDUE {
            self.occupied[list / SLOTS] &= !(1 << (list % SLOTS));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};

    fn drain(w: &mut TimerWheel<u64>, to: u64) -> Vec<u64> {
        let mut out = Vec::new();
        w.advance(to, &mut out);
        out.sort_unstable();
        out
    }

    #[test]
    fn fires_at_exact_ticks() {
        let mut w = TimerWheel::new(0);
        for deadline in [1u64, 5, 63, 64, 100] {
            w.schedule(deadline, deadline);
        }
        assert_eq!(w.len(), 5);
        assert_eq!(drain(&mut w, 4), vec![1]);
        assert_eq!(drain(&mut w, 63), vec![5, 63]);
        assert_eq!(drain(&mut w, 99), vec![64]);
        assert_eq!(drain(&mut w, 100), vec![100]);
        assert!(w.is_empty());
    }

    #[test]
    fn overdue_fires_immediately() {
        let mut w = TimerWheel::new(50);
        w.schedule(50, 1);
        w.schedule(10, 2);
        assert_eq!(drain(&mut w, 50), vec![1, 2]);
    }

    #[test]
    fn cascades_across_all_levels() {
        let mut w = TimerWheel::new(0);
        // One per level, plus one beyond the outermost span (far list).
        let deadlines = [40u64, 1_000, 100_000, 1 << 20];
        for &d in &deadlines {
            w.schedule(d, d);
        }
        for &d in &deadlines {
            let before = drain(&mut w, d - 1);
            assert!(before.is_empty(), "{d}: fired early: {before:?}");
            assert_eq!(drain(&mut w, d), vec![d], "{d}: did not fire on time");
        }
        assert!(w.is_empty());
    }

    #[test]
    fn many_timers_in_one_slot() {
        let mut w = TimerWheel::new(0);
        for i in 0..100u64 {
            w.schedule(7, i);
        }
        let fired = drain(&mut w, 7);
        assert_eq!(fired.len(), 100);
    }

    #[test]
    fn next_due_bounds_the_sleep() {
        let mut w = TimerWheel::new(0);
        assert_eq!(w.next_due(), None);
        w.schedule(30, 1);
        assert_eq!(w.next_due(), Some(30));
        // A far timer alone: conservative bound, never past the deadline.
        let mut far = TimerWheel::new(0);
        far.schedule(5_000, 1);
        let due = far.next_due().unwrap();
        assert!(due <= 5_000 && due > 0);
        // Following the bound reaches the timer one cascade per level:
        // 4 096 (level 2 → 1), 4 992 (level 1 → 0), 5 000.
        let mut hops = 0;
        let mut out = Vec::new();
        while !far.is_empty() {
            let t = far.next_due().unwrap();
            far.advance(t, &mut out);
            hops += 1;
            assert!(hops <= 3, "next_due woke {hops} times for one timer");
        }
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn next_due_does_not_sleep_through_a_coarser_cascade() {
        // 70 waits in level 1 and cascades at 64; 80, scheduled at 20,
        // goes straight into level 0. Sleeping until 80 — the earliest
        // fine-wheel deadline — would fire 70 ten ticks late.
        let mut w = TimerWheel::new(0);
        w.schedule(70, 70);
        let mut out = Vec::new();
        w.advance(20, &mut out);
        w.schedule(80, 80);
        let mut fired_at = Vec::new();
        while let Some(t) = w.next_due() {
            w.advance(t, &mut out);
            fired_at.extend(out.drain(..).map(|v| (v, t)));
        }
        assert_eq!(fired_at, vec![(70, 70), (80, 80)]);
    }

    #[test]
    fn next_due_skips_empty_cascades() {
        // An idle wheel holding one level-2 timer wakes when that slot
        // cascades, not at every empty level-1 boundary before it.
        let mut w = TimerWheel::new(10);
        w.schedule(200_000, 1);
        assert_eq!(w.next_due(), Some(200_000 & !4_095));
    }

    #[test]
    fn empty_wheel_jumps_any_distance() {
        let mut w: TimerWheel<u64> = TimerWheel::new(0);
        // A month of idle ticks: stepping them one by one would take
        // seconds; an empty wheel has nothing to visit on the way.
        let month = 30 * 24 * 3600 * 1000;
        assert!(drain(&mut w, month).is_empty());
        assert_eq!(w.now(), month);
        // Scheduling from there behaves like a fresh wheel at that tick.
        w.schedule(month + 5, 1);
        w.schedule(month + 500, 2);
        assert_eq!(w.next_due(), Some(month + 5));
        assert!(drain(&mut w, month + 4).is_empty());
        assert_eq!(drain(&mut w, month + 5), vec![1]);
        assert_eq!(drain(&mut w, month + 500), vec![2]);
        assert!(w.is_empty());
    }

    #[test]
    fn filtered_advance_drops_dead_entries() {
        let mut w = TimerWheel::new(0);
        for i in 0..10u64 {
            w.schedule(5, i);
        }
        let mut out = Vec::new();
        w.advance_filtered(5, &mut out, |&v| v % 2 == 0);
        out.sort_unstable();
        assert_eq!(out, vec![0, 2, 4, 6, 8]);
        assert!(w.is_empty(), "dead entries must leave the wheel");
    }

    #[test]
    fn cancelled_timers_leave_before_expiry() {
        let mut w = TimerWheel::new(0);
        // Far timers parked in a coarse wheel, all cancelled long before
        // they are due: they leave at once and never ride a cascade.
        let keys: Vec<_> = (0..50u64).map(|i| w.schedule(1_000, i)).collect();
        assert_eq!(w.len(), 50);
        for (i, &key) in keys.iter().enumerate() {
            assert_eq!(w.cancel(key), Some(i as u64));
            assert_eq!(w.cancel(key), None, "a key cancels once");
        }
        assert!(w.is_empty());
        assert_eq!(w.next_due(), None);
        let mut out = Vec::new();
        w.advance_filtered(999, &mut out, |_| false);
        assert!(out.is_empty());
        // Overdue entries are filtered too.
        w.schedule(10, 7);
        w.advance_filtered(999, &mut out, |_| true);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn keys_go_stale_when_nodes_are_reused() {
        let mut w = TimerWheel::new(0);
        let fired = w.schedule(3, 1u64);
        let mut out = Vec::new();
        w.advance(3, &mut out);
        // The freed node is reused: the old key must not reach the new timer.
        let reused = w.schedule(9, 2);
        assert_eq!(fired.index, reused.index);
        assert_eq!(w.cancel(fired), None);
        assert_eq!(w.len(), 1);
        assert_eq!(w.cancel(reused), Some(2));
    }

    #[test]
    fn same_tick_expiry_follows_scheduling_order() {
        // One deadline reached from every level: scheduled far out (level
        // 2), then at 1 000 ticks (level 1), then at 30 ticks (level 0).
        let deadline = 10_000;
        let mut w = TimerWheel::new(0);
        let mut out = Vec::new();
        w.schedule(deadline, 0u64);
        w.schedule(deadline, 1);
        w.advance(deadline - 1_000, &mut out);
        w.schedule(deadline, 2);
        w.advance(deadline - 30, &mut out);
        w.schedule(deadline, 3);
        w.advance(deadline, &mut out);
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn interleaved_schedule_and_advance() {
        let mut w = TimerWheel::new(0);
        let mut fired = Vec::new();
        for round in 1..=500u64 {
            w.schedule(round + 3, round);
            w.advance(round, &mut fired);
        }
        w.advance(504, &mut fired);
        fired.sort_unstable();
        assert_eq!(fired, (1..=500).collect::<Vec<_>>());
    }

    /// One step of the model test.
    #[derive(Debug, Clone)]
    enum Op {
        /// A timer `delta` ticks out (0 = due now).
        Schedule(u64),
        /// A timer overdue by `ago` ticks.
        ScheduleOverdue(u64),
        /// A timer on a deadline some earlier timer was given.
        ScheduleAgain(usize),
        /// Cancel one of every key issued so far, live or not.
        Cancel(usize),
        /// Advance by so many ticks, filtered to drop expiring multiples
        /// of the modulus, if one is given.
        Advance(u64, Option<u64>),
    }

    /// Arms are drawn uniformly; a repeated arm weighs double.
    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..64).prop_map(Op::Schedule),
            // Just past the fine wheel: cascades interleave with it.
            (64u64..160).prop_map(Op::Schedule),
            (64u64..4_096).prop_map(Op::Schedule),
            (4_096u64..SPAN).prop_map(Op::Schedule),
            (SPAN..SPAN + 40_000).prop_map(Op::Schedule),
            (0u64..100).prop_map(Op::ScheduleOverdue),
            any::<usize>().prop_map(Op::ScheduleAgain),
            any::<usize>().prop_map(Op::ScheduleAgain),
            any::<usize>().prop_map(Op::Cancel),
            any::<usize>().prop_map(Op::Cancel),
            (0u64..80).prop_map(|by| Op::Advance(by, None)),
            (0u64..6_000).prop_map(|by| Op::Advance(by, None)),
            (0u64..90_000).prop_map(|by| Op::Advance(by, None)),
            (0u64..6_000, 2u64..5).prop_map(|(by, m)| Op::Advance(by, Some(m))),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The wheel against a `BTreeMap` of live timers (scheduling
        /// sequence number → deadline).
        #[test]
        fn wheel_matches_a_sorted_map(ops in proptest::collection::vec(op(), 1..120), start in 0u64..300_000) {
            let mut wheel = TimerWheel::new(start);
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut keys: Vec<(TimerKey, u64)> = Vec::new();
            let mut deadlines: Vec<u64> = Vec::new();
            let mut out = Vec::new();
            for op in ops {
                let now = wheel.now();
                let deadline = match op {
                    Op::Schedule(delta) => Some(now + delta),
                    Op::ScheduleOverdue(ago) => Some(now.saturating_sub(ago)),
                    Op::ScheduleAgain(pick) => Some(
                        deadlines
                            .get(pick % deadlines.len().max(1))
                            .copied()
                            .unwrap_or(now + 1),
                    ),
                    _ => None,
                };
                if let Some(deadline) = deadline {
                    let seq = keys.len() as u64;
                    keys.push((wheel.schedule(deadline, seq), seq));
                    model.insert(seq, deadline);
                    deadlines.push(deadline);
                }
                match op {
                    Op::Schedule(_) | Op::ScheduleOverdue(_) | Op::ScheduleAgain(_) => {}
                    Op::Cancel(pick) => {
                        if let Some(&(key, seq)) = keys.get(pick % keys.len().max(1)) {
                            let live = model.remove(&seq).map(|_| seq);
                            prop_assert_eq!(wheel.cancel(key), live, "cancel of timer {}", seq);
                        }
                    }
                    Op::Advance(by, filter) => {
                        #[allow(clippy::manual_is_multiple_of)] // MSRV 1.81
                        let keep = |v: &u64| !matches!(filter, Some(m) if v % m == 0);
                        out.clear();
                        match filter {
                            None => wheel.advance(now + by, &mut out),
                            Some(_) => wheel.advance_filtered(now + by, &mut out, keep),
                        }
                        let to = now + by;
                        prop_assert_eq!(wheel.now(), to);
                        // Everything due fired, once, at this advance;
                        // nothing else did.
                        let due: Vec<u64> = model
                            .iter()
                            .filter(|&(_, &d)| d <= to)
                            .map(|(&s, _)| s)
                            .collect();
                        for s in &due {
                            model.remove(s);
                        }
                        let mut fired = out.clone();
                        fired.sort_unstable();
                        let expected: Vec<u64> = due.into_iter().filter(keep).collect();
                        prop_assert_eq!(fired, expected, "advance {} → {}", now, to);
                        // Same deadline: scheduling order.
                        let mut last: HashMap<u64, u64> = HashMap::new();
                        for &s in &out {
                            let d = deadlines[s as usize];
                            if let Some(prev) = last.insert(d, s) {
                                prop_assert!(prev < s, "tick {}: {} fired after {}", d, prev, s);
                            }
                        }
                    }
                }
                prop_assert_eq!(wheel.len(), model.len());
                match model.values().min() {
                    None => prop_assert_eq!(wheel.next_due(), None),
                    Some(&earliest) => {
                        let due = wheel.next_due().expect("timers pending");
                        let now = wheel.now();
                        prop_assert!(
                            due <= earliest.max(now) && due >= now,
                            "next_due {} at {}, earliest deadline {}", due, now, earliest
                        );
                    }
                }
            }
        }
    }
}
