//! Property test for the windowed [`Enumerator`]: with probes in flight
//! and counts every few completions, the quiet run stays a lower bound,
//! so the run ends by the stopping rule only where a per-probe planner
//! fires too.
//!
//! Each seeded case draws `n` caches with uniform selection, a window in
//! 1–32, a count cadence in 1–64, loss of 0 or 20 % and ε ∈ {0.01,
//! 0.001}, then plays a stream of issue / fetch / complete / count
//! events against the machine. A probe picks its cache when it is sent;
//! its fetch (the cache's first miss, if the cache is cold) lands at a
//! random point before its completion, so a count sees the fetches of
//! probes still in flight. Completions arrive in random order, and
//! counts also come at random points off the cadence, as an on-demand
//! checkpoint would. The reference is a [`SequentialPlanner`] fed the
//! same completions one at a time, each carrying its own probe's
//! fetches. At every count:
//!
//! * the machine's `ω` is at least the reference's and its quiet run at
//!   most the reference's,
//! * when the machine ends by the rule, the reference's rule holds,
//!   and it never ends with a probe in flight,
//! * with window 1 and cadence 1, the two planners are equal whenever
//!   no probe is in flight, that is after every probe.
//!
//! `OldFeed` replays the daemon's batched feed as it was before it moved
//! onto the `Enumerator` (copied verbatim as `PlannerState`) over the
//! same event streams; `old_batched_feed_breaks_the_property` reports how
//! many seeded cases it ends before the reference would.

use cde_analysis::coupon::query_budget;
use cde_core::{Enumerator, SequentialPlanner, Step};
use cde_netsim::DetRng;
use rand::Rng;

const CASES: u64 = 2_000;

/// One probe in flight: its token, the cache it reaches (`None` when
/// the query is lost on the way), whether it has reached it yet, the
/// fetches it caused there and whether its reply comes back.
struct Flight {
    index: u64,
    cache: Option<usize>,
    visited: bool,
    fetches: u64,
    delivered: bool,
}

/// The platform, the probes in flight and the reference planner.
struct World {
    rng: DetRng,
    warm: Vec<bool>,
    loss: f64,
    omega: u64,
    flights: Vec<Flight>,
    reference: SequentialPlanner,
}

impl World {
    fn send(&mut self, index: u64) {
        let cache = self.rng.gen_range(0..self.warm.len());
        let lost = self.rng.gen_bool(self.loss);
        // Half the losses drop the query, half the reply.
        let query_lost = lost && self.rng.gen_bool(0.5);
        self.flights.push(Flight {
            index,
            cache: (!query_lost).then_some(cache),
            visited: false,
            fetches: 0,
            delivered: !lost,
        });
    }

    fn visit(&mut self, at: usize) {
        let flight = &mut self.flights[at];
        if let (Some(cache), false) = (flight.cache, flight.visited) {
            if !self.warm[cache] {
                self.warm[cache] = true;
                self.omega += 1;
                flight.fetches = 1;
            }
        }
        flight.visited = true;
    }

    /// Completes a random flight, feeding the reference; returns its
    /// token and delivery.
    fn complete(&mut self) -> (u64, bool) {
        let at = self.rng.gen_range(0..self.flights.len());
        self.visit(at);
        let flight = self.flights.swap_remove(at);
        if flight.delivered {
            self.reference.record_delivered(flight.fetches);
        } else {
            self.reference.record_lost(flight.fetches);
        }
        (flight.index, flight.delivered)
    }
}

/// A counting loop under test, stepped like [`Enumerator`].
trait Machine {
    fn next(&self) -> Step;
    fn on_send(&mut self, index: u64);
    fn on_probe(&mut self, index: u64, delivered: bool);
    fn on_count(&mut self, observed: u64);
    fn planner(&self) -> &SequentialPlanner;
    /// True when the run ended because the rule fired.
    fn ended_by_rule(&self) -> bool;
}

impl Machine for Enumerator {
    fn next(&self) -> Step {
        Enumerator::next(self)
    }
    fn on_send(&mut self, index: u64) {
        Enumerator::on_send(self, index);
    }
    fn on_probe(&mut self, index: u64, delivered: bool) {
        Enumerator::on_probe(self, index, delivered);
    }
    fn on_count(&mut self, observed: u64) {
        Enumerator::on_count(self, observed);
    }
    fn planner(&self) -> &SequentialPlanner {
        Enumerator::planner(self).expect("a sequential run")
    }
    fn ended_by_rule(&self) -> bool {
        Enumerator::next(self) == Step::Done && Machine::planner(self).should_stop()
    }
}

/// The daemon's sequential state before it stepped an `Enumerator`,
/// verbatim.
#[derive(Debug)]
struct PlannerState {
    planner: SequentialPlanner,
    fed_answered: u64,
    fed_timeouts: u64,
    fed_observed: u64,
}

impl PlannerState {
    fn fresh(planner: SequentialPlanner) -> PlannerState {
        PlannerState {
            fed_answered: planner.delivered(),
            fed_timeouts: planner.probes() - planner.delivered(),
            fed_observed: planner.observed(),
            planner,
        }
    }

    /// Feeds the deltas since the last drain. Evidence is drained in
    /// batches, so the exact interleaving is unknown; recording the
    /// quiet events first and attaching all new-cache evidence to the
    /// *last* event keeps the quiet run a lower bound on reality — the
    /// rule can only fire later than a per-probe feed would, never
    /// earlier.
    fn feed(&mut self, answered: u64, timeouts: u64, observed: u64) {
        let new_ans = answered.saturating_sub(self.fed_answered);
        let new_lost = timeouts.saturating_sub(self.fed_timeouts);
        let new_caches = observed.saturating_sub(self.fed_observed);
        for i in 0..new_lost {
            let last = i + 1 == new_lost && new_ans == 0;
            self.planner.record_lost(if last { new_caches } else { 0 });
        }
        for i in 0..new_ans {
            let last = i + 1 == new_ans;
            self.planner
                .record_delivered(if last { new_caches } else { 0 });
        }
        if new_ans == 0 && new_lost == 0 && new_caches > 0 {
            // Evidence with no completion delta: a response was lost but
            // the query landed. Record it as a lost probe carrying the
            // evidence so ω stays in sync.
            self.planner.record_lost(new_caches);
        }
        self.fed_answered = answered;
        self.fed_timeouts = timeouts;
        self.fed_observed = observed;
    }
}

/// The old worker loop as a step machine: submit while the window has
/// room and the last count did not fire the rule, count every `cadence`
/// completions, and end once the rule held at the last count and
/// nothing is in flight (or every probe is decided) — with one final
/// feed, as `finalize` did.
struct OldFeed {
    state: PlannerState,
    window: u64,
    cadence: u64,
    ceiling: u64,
    sent: u64,
    answered: u64,
    timeouts: u64,
    count_due: bool,
    ending: bool,
    done: bool,
}

impl OldFeed {
    /// The loop's end test: every probe decided, or the rule held at
    /// the last count and nothing is in flight.
    fn settle(&mut self) {
        let completed = self.answered + self.timeouts;
        let converged = self.state.planner.should_stop();
        self.ending |= completed == self.ceiling || (converged && completed == self.sent);
    }
}

impl Machine for OldFeed {
    fn next(&self) -> Step {
        let completed = self.answered + self.timeouts;
        let converged = self.state.planner.should_stop();
        if self.done {
            Step::Done
        } else if self.count_due || self.ending {
            Step::Count
        } else if !converged && self.sent - completed < self.window && self.sent < self.ceiling {
            Step::Probe {
                index: self.sent,
                copies: 1,
            }
        } else {
            Step::Wait
        }
    }
    fn on_send(&mut self, index: u64) {
        self.sent = index + 1;
    }
    fn on_probe(&mut self, _index: u64, delivered: bool) {
        if delivered {
            self.answered += 1;
        } else {
            self.timeouts += 1;
        }
        let completed = self.answered + self.timeouts;
        #[allow(clippy::manual_is_multiple_of)] // u64::is_multiple_of needs 1.87, MSRV is 1.81
        let due = completed % self.cadence == 0;
        self.count_due = due && completed < self.ceiling;
        self.settle();
    }
    fn on_count(&mut self, observed: u64) {
        self.state.feed(self.answered, self.timeouts, observed);
        self.count_due = false;
        // The count after `ending` is `finalize`'s.
        self.done |= self.ending;
        self.settle();
    }
    fn planner(&self) -> &SequentialPlanner {
        &self.state.planner
    }
    fn ended_by_rule(&self) -> bool {
        // The old loop ended on the rule as it stood at the count
        // before the final feed; the final feed cannot undo that.
        self.done && self.answered + self.timeouts < self.ceiling
    }
}

/// One case's parameters.
#[derive(Debug, Clone, Copy)]
struct Case {
    seed: u64,
    caches: usize,
    window: u64,
    cadence: u64,
    loss: f64,
    epsilon: f64,
    ceiling: u64,
}

fn case(seed: u64) -> Case {
    let mut rng = DetRng::seed(seed);
    let caches = rng.gen_range(1..=12);
    let epsilon = if rng.gen_bool(0.5) { 0.01 } else { 0.001 };
    // Every eighth case is the simulator's shape.
    let (window, cadence) = if seed & 7 == 0 {
        (1, 1)
    } else {
        (rng.gen_range(1..=32), rng.gen_range(1..=64))
    };
    Case {
        seed,
        caches,
        window,
        cadence,
        loss: if rng.gen_bool(0.5) { 0.0 } else { 0.2 },
        epsilon,
        ceiling: 4 * query_budget(caches as u64, epsilon),
    }
}

/// Plays `case` against `machine`, checking every count with `check`;
/// returns the first failure.
fn play<M: Machine>(
    case: Case,
    mut machine: M,
    check: impl Fn(&M, &World) -> Result<(), String>,
) -> Result<(), String> {
    let mut world = World {
        rng: DetRng::seed(case.seed ^ 0x5eed),
        warm: vec![false; case.caches],
        loss: case.loss,
        omega: 0,
        flights: Vec::new(),
        reference: SequentialPlanner::new(case.epsilon),
    };
    let mut counts = 0u64;
    loop {
        // Fetches land in the background; a completion may be taken at
        // any point, and an on-demand count may come at any point.
        while !world.flights.is_empty() && world.rng.gen_bool(0.3) {
            let at = world.rng.gen_range(0..world.flights.len());
            world.visit(at);
        }
        if !world.flights.is_empty() && world.rng.gen_bool(0.1) {
            let (index, delivered) = world.complete();
            machine.on_probe(index, delivered);
            continue;
        }
        let extra_count = world.rng.gen_bool(0.02);
        match machine.next() {
            Step::Done if world.flights.is_empty() => return Ok(()),
            Step::Done => return Err(format!("{case:?}: ended with probes in flight")),
            Step::Count => {}
            _ if extra_count => {}
            Step::Probe { index, .. } => {
                machine.on_send(index);
                world.send(index);
                continue;
            }
            Step::Wait => {
                let (index, delivered) = world.complete();
                machine.on_probe(index, delivered);
                continue;
            }
        }
        machine.on_count(world.omega);
        counts += 1;
        check(&machine, &world).map_err(|e| format!("{case:?}, count {counts}: {e}"))?;
    }
}

fn lower_bound(machine: &Enumerator, world: &World, case: Case) -> Result<(), String> {
    let (w, r) = (Machine::planner(machine), &world.reference);
    if w.observed() < r.observed() || w.consecutive_quiet() > r.consecutive_quiet() {
        return Err(format!("not a lower bound: {w:?} vs reference {r:?}"));
    }
    if machine.ended_by_rule() && !r.should_stop() {
        return Err(format!("ended early: {w:?} vs reference {r:?}"));
    }
    if (case.window, case.cadence) == (1, 1) && world.flights.is_empty() && w != r {
        return Err(format!("window 1, cadence 1 diverged: {w:?} vs {r:?}"));
    }
    Ok(())
}

#[test]
fn windowed_rule_ends_only_where_the_per_probe_rule_fires() {
    let mut windowed = 0;
    for seed in 0..CASES {
        let c = case(seed);
        let machine = Enumerator::new(c.ceiling, 1, Some(SequentialPlanner::new(c.epsilon)))
            .windowed(c.window, c.cadence);
        play(c, machine, |m, w| lower_bound(m, w, c)).unwrap_or_else(|e| panic!("{e}"));
        windowed += u64::from(c.window > 1);
    }
    assert!(windowed > CASES / 2, "{windowed} windowed cases");
}

#[test]
fn old_batched_feed_breaks_the_property() {
    let broken = (0..CASES)
        .filter(|&seed| {
            let c = case(seed);
            let machine = OldFeed {
                state: PlannerState::fresh(SequentialPlanner::new(c.epsilon)),
                window: c.window,
                cadence: c.cadence,
                ceiling: c.ceiling,
                sent: 0,
                answered: 0,
                timeouts: 0,
                count_due: false,
                ending: false,
                done: false,
            };
            let fired_early = |m: &OldFeed, w: &World| match m.ended_by_rule() {
                true if !w.reference.should_stop() => Err("ended early".to_string()),
                _ => Ok(()),
            };
            play(c, machine, fired_early).is_err()
        })
        .count();
    println!("old batched feed: {broken} of {CASES} seeded cases end before the reference fires");
    assert!(
        broken > 0,
        "the old feed's early stop is no longer reproduced"
    );
}
