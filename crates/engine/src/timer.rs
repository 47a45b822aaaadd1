//! Hierarchical timer wheel for per-probe deadlines.
//!
//! The reactor keeps thousands of probes in flight, each with a retransmit
//! deadline and possibly a scheduled (rate-limited or backed-off) send. A
//! heap would cost `O(log n)` per operation and, worse, per-timer
//! cancellation bookkeeping; the classic alternative (Varghese & Lauck) is
//! a *hierarchical timing wheel*: constant-time insert, timers hashed into
//! slots by expiry tick, far timers parked in coarser wheels and cascaded
//! inward as time passes.
//!
//! The wheel is deliberately clock-free: callers feed it *ticks* (the
//! reactor converts `Instant`s at one place). Cancellation is lazy — the
//! reactor validates each expired entry against its correlation slot
//! generation, so cancelled timers simply fire into the void.

/// Slots per level. 64 keeps slot indices to a 6-bit shift per level.
const SLOTS: usize = 64;
const SLOT_BITS: u32 = 6;
/// Levels: spans of 64, 4 096 and 262 144 ticks (≈ 4.4 min at 1 ms/tick),
/// beyond which deadlines are clamped into the outermost wheel and
/// re-cascaded as they approach.
const LEVELS: usize = 3;

/// A hierarchical timing wheel holding values of type `T`.
///
/// All deadlines are absolute tick numbers; `advance` drains every entry
/// whose deadline is at or before the new current tick.
#[derive(Debug)]
pub struct TimerWheel<T> {
    levels: [Vec<Vec<(u64, T)>>; LEVELS],
    /// Entries already due when scheduled; drained on the next advance.
    overdue: Vec<T>,
    now: u64,
    len: usize,
}

impl<T> TimerWheel<T> {
    /// An empty wheel positioned at tick `now`.
    pub fn new(now: u64) -> TimerWheel<T> {
        TimerWheel {
            levels: std::array::from_fn(|_| (0..SLOTS).map(|_| Vec::new()).collect()),
            overdue: Vec::new(),
            now,
            len: 0,
        }
    }

    /// Currently scheduled (not yet expired) timers.
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
    pub fn schedule(&mut self, deadline: u64, value: T) {
        self.len += 1;
        if deadline <= self.now {
            self.overdue.push(value);
            return;
        }
        let delta = deadline - self.now;
        // Pick the finest level whose span covers the delta; the slot is
        // indexed by the deadline's digits at that level, so the entry
        // fires (or cascades) exactly when the wheel reaches it.
        let level = match delta {
            d if d < (1 << SLOT_BITS) => 0,
            d if d < (1 << (2 * SLOT_BITS)) => 1,
            _ => 2,
        };
        let clamped = if level == LEVELS - 1 {
            // Far future: park in the outermost wheel's farthest slot and
            // re-cascade when it comes around.
            deadline.min(self.now + (1 << (3 * SLOT_BITS)) - 1)
        } else {
            deadline
        };
        let slot = (clamped >> (SLOT_BITS * level as u32)) as usize % SLOTS;
        self.levels[level][slot].push((deadline, value));
    }

    /// Advances the wheel to `now`, appending every expired value to
    /// `expired` (in no particular order). Ticks before the current tick
    /// are ignored.
    pub fn advance(&mut self, now: u64, expired: &mut Vec<T>) {
        self.advance_filtered(now, expired, |_| true);
    }

    /// Like [`advance`](Self::advance), but entries for which `live`
    /// returns `false` are dropped instead of expired — at cascade time
    /// as well as at their deadline.
    ///
    /// Cancellation in this wheel is lazy (cancelled timers keep their
    /// slot until they fire), which is free for short timers but lets a
    /// busy reactor accumulate thousands of dead retransmit deadlines
    /// that coarser wheels keep cascading inward. Passing the liveness
    /// check here sheds them at the first wheel touch instead of
    /// carrying them to expiry. `live` is advisory: the caller must
    /// still validate expired values, since handling one expiry can
    /// invalidate another entry already appended to `expired`.
    pub fn advance_filtered(
        &mut self,
        now: u64,
        expired: &mut Vec<T>,
        mut live: impl FnMut(&T) -> bool,
    ) {
        self.drain_overdue(expired, &mut live);
        if self.len == 0 {
            // Nothing to cascade or expire on the way: jump. A loop that
            // blocks without a deadline while the wheel is empty can
            // come back any number of ticks later.
            self.now = self.now.max(now);
            return;
        }
        while self.now < now {
            self.now += 1;
            let tick = self.now;
            // Cascade coarser wheels at their boundaries *before* draining
            // the fine slot, so a cascaded entry due this very tick fires.
            if tick.trailing_zeros() >= SLOT_BITS {
                self.cascade(1, ((tick >> SLOT_BITS) % SLOTS as u64) as usize, &mut live);
            }
            if tick.trailing_zeros() >= 2 * SLOT_BITS {
                self.cascade(
                    2,
                    ((tick >> (2 * SLOT_BITS)) % SLOTS as u64) as usize,
                    &mut live,
                );
            }
            // A cascade may re-file an entry due at this very tick into
            // `overdue`; drain it in the same pass.
            self.drain_overdue(expired, &mut live);
            let slot = (tick % SLOTS as u64) as usize;
            for (deadline, value) in self.levels[0][slot].drain(..) {
                debug_assert!(deadline <= tick);
                self.len -= 1;
                if live(&value) {
                    expired.push(value);
                }
            }
        }
    }

    fn drain_overdue(&mut self, expired: &mut Vec<T>, live: &mut impl FnMut(&T) -> bool) {
        self.len -= self.overdue.len();
        for value in self.overdue.drain(..) {
            if live(&value) {
                expired.push(value);
            }
        }
    }

    /// Re-files every live entry of `levels[level][slot]` into a finer
    /// wheel (or, for clamped far-future entries, back into this one);
    /// dead entries are dropped here instead of riding the cascade.
    fn cascade(&mut self, level: usize, slot: usize, live: &mut impl FnMut(&T) -> bool) {
        let entries = std::mem::take(&mut self.levels[level][slot]);
        for (deadline, value) in entries {
            self.len -= 1;
            if live(&value) {
                self.schedule(deadline, value);
            }
        }
    }

    /// A tick at or before the earliest pending expiry — the longest the
    /// caller may sleep without missing a timer. `None` when the wheel is
    /// empty. The bound is exact for timers within the current fine-wheel
    /// window and conservative (the next cascade boundary) beyond it.
    pub fn next_due(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        if !self.overdue.is_empty() {
            return Some(self.now);
        }
        for k in 1..=SLOTS as u64 {
            let tick = self.now + k;
            if !self.levels[0][(tick % SLOTS as u64) as usize].is_empty() {
                return Some(tick);
            }
        }
        // Nothing fine-grained: wake at the next level-1 cascade boundary
        // (≤ 64 ticks away); coarser entries are ≥ one full window out.
        Some((self.now | ((1 << SLOT_BITS) - 1)) + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // One per level, plus one beyond the outermost span (clamped).
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
        // Following the bound repeatedly reaches the timer.
        let mut hops = 0;
        let mut out = Vec::new();
        while !far.is_empty() {
            let t = far.next_due().unwrap();
            far.advance(t, &mut out);
            hops += 1;
            assert!(hops < 200, "next_due loops without progress");
        }
        assert_eq!(out, vec![1]);
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
    fn filtered_cascade_sheds_before_expiry() {
        let mut w = TimerWheel::new(0);
        // Far timers parked in a coarse wheel; all dead by cascade time.
        for i in 0..50u64 {
            w.schedule(1_000, i);
        }
        assert_eq!(w.len(), 50);
        let mut out = Vec::new();
        // Advance past the level-1 cascade boundary but short of expiry:
        // the dead entries must be dropped at the cascade, not at 1000.
        w.advance_filtered(999, &mut out, |_| false);
        assert!(out.is_empty());
        assert!(w.is_empty(), "cascade must shed dead entries");
        // Overdue entries are filtered too.
        w.schedule(10, 7);
        w.advance_filtered(999, &mut out, |_| true);
        assert_eq!(out, vec![7]);
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
}
