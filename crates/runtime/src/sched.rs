//! Pluggable scheduling strategies — the schedule-exploration seam.
//!
//! The machine's default scheduler always runs the ready thread with the
//! smallest `(clock, id)` key; its only nondeterminism is seeded cost
//! jitter. That explores a vanishingly thin slice of the schedule space,
//! so replay fidelity and the single-holder invariant were only ever
//! exercised on near-identical interleavings. This module adds a
//! [`SchedStrategy`] seam with deliberately adversarial policies in the
//! spirit of PCT (Burckhardt et al., ASPLOS 2010) and rr's chaos mode:
//!
//! * [`SchedStrategy::ClockJitter`] — the baseline. Keeps the flat hot
//!   loop's ready-queue fast path.
//! * [`SchedStrategy::Pct`] — randomized thread priorities with `depth`
//!   seeded priority-change points: the scheduler always runs the
//!   highest-priority ready thread, and at each change point the running
//!   thread's priority drops below every initial priority.
//! * [`SchedStrategy::PreemptBound`] — a bounded number of forced context
//!   switches, injected exactly at weak-lock acquire/release sites and
//!   shared-access (`Load`/`Store`, which carry their static `AccessId`)
//!   boundaries; between preemptions threads run round-robin sticky.
//!
//! Non-baseline strategies drive both interpreter modes through one
//! shared per-step loop (`Machine::run_strategy`), so a `(strategy,
//! seed)` pair yields bit-identical executions across the flat and
//! reference interpreters by construction — the `vm_differential` suite
//! pins this.
//!
//! Every strategy draws from its own RNG stream (salted with the
//! execution seed), never from the machine's jitter RNG, so attaching a
//! strategy perturbs scheduling *choices* without disturbing the cost
//! model's draw sequence.

use chimera_testkit::rng::Rng;

/// Distinct salts keep each strategy's RNG stream independent of the
/// machine's jitter RNG (seeded from the raw seed) and of each other.
const PCT_SALT: u64 = 0x9e37_79b9_7f4a_7c15;
const PREEMPT_SALT: u64 = 0xd1b5_4a32_d192_ed03;

/// Which scheduling policy an execution runs under. All-scalar and
/// `Copy`, so it rides inside [`crate::ExecConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedStrategy {
    /// The clock-ordered baseline: smallest `(clock, id)` ready thread,
    /// nondeterminism from seeded cost jitter only.
    #[default]
    ClockJitter,
    /// PCT-style randomized priorities with seeded change points.
    Pct {
        /// Number of priority-change points plus one (PCT's `d`): `depth`
        /// of the schedule bug the strategy can find with known
        /// probability. `depth - 1` change points are drawn.
        depth: u32,
        /// The step span `[1, span]` over which change points are drawn
        /// (PCT's `k`, an estimate of total steps). `0` means "auto":
        /// harnesses that know a baseline step count (see
        /// `chimera::explore`) substitute it before execution; the raw
        /// scheduler clamps a literal 0 to 1. A span much larger than the
        /// actual run leaves change points unfired and PCT degenerates to
        /// priority-serial execution, so sizing it matters.
        span: u64,
    },
    /// Preemption-bounded exploration targeting weak-lock and
    /// shared-access boundaries.
    PreemptBound {
        /// Maximum forced context switches injected over the run.
        budget: u32,
        /// Average boundaries between preemptions: at each boundary a
        /// seeded draw preempts with probability `1/period` (`0` and `1`
        /// both mean "every boundary").
        period: u64,
    },
}

impl SchedStrategy {
    /// PCT with auto span (resolved from a baseline step count by
    /// harnesses; see `chimera::explore`).
    pub fn pct(depth: u32) -> SchedStrategy {
        SchedStrategy::Pct { depth, span: 0 }
    }

    /// Preemption-bounded defaults: plenty of budget, preempt at roughly
    /// every other boundary.
    pub fn preempt_bound() -> SchedStrategy {
        SchedStrategy::PreemptBound {
            budget: 4096,
            period: 2,
        }
    }

    /// Parse a strategy name as used by `chimera explore --strategy`.
    pub fn parse(name: &str) -> Option<SchedStrategy> {
        match name {
            "jitter" | "baseline" | "clock" => Some(SchedStrategy::ClockJitter),
            "pct" => Some(SchedStrategy::pct(3)),
            "preempt" | "preempt-bound" => Some(SchedStrategy::preempt_bound()),
            _ => None,
        }
    }

    /// True for the clock-ordered baseline — the only policy whose
    /// schedule is a pure function of `(clock, id)` keys. That purity is
    /// what licenses the flat VM's queue, batch-commit, and speculative
    /// segment-round engines (DESIGN.md §13); every other strategy runs
    /// the shared per-step strategy loop.
    pub fn is_baseline(&self) -> bool {
        *self == SchedStrategy::ClockJitter
    }

    /// Short stable name (report keys, bench ids).
    pub fn name(&self) -> &'static str {
        match self {
            SchedStrategy::ClockJitter => "jitter",
            SchedStrategy::Pct { .. } => "pct",
            SchedStrategy::PreemptBound { .. } => "preempt-bound",
        }
    }

    /// Build the runtime scheduler for this policy and seed.
    pub fn build(&self, seed: u64) -> Box<dyn Scheduler> {
        match *self {
            SchedStrategy::ClockJitter => Box::new(ClockOrdered),
            SchedStrategy::Pct { depth, span } => Box::new(PctSched::new(seed, depth, span)),
            SchedStrategy::PreemptBound { budget, period } => {
                Box::new(PreemptSched::new(seed, budget, period))
            }
        }
    }
}

/// The pluggable scheduler interface the machine's strategy loop drives.
///
/// Per step the machine calls [`Scheduler::track_threads`] (so the
/// strategy can assign state to newly spawned threads in id order),
/// [`Scheduler::pick`] with the ready set, and — after the step commits
/// or blocks — [`Scheduler::note_step`] with the global step count and
/// whether the stepped thread sat at a weak-lock/shared-access boundary.
/// Implementations must be deterministic functions of their seed and the
/// observed call sequence: both interpreter modes replay the exact same
/// sequence, which is what keeps them bit-identical.
pub trait Scheduler {
    /// Observe that threads `0..n` now exist (called before every pick;
    /// `n` only grows). Assign per-thread state for new ids here.
    fn track_threads(&mut self, n: usize);

    /// Choose the next thread among `ready` (pairs of `(thread id,
    /// clock)` in id order). Returns `None` iff `ready` is empty.
    fn pick(&mut self, ready: &mut dyn Iterator<Item = (u32, u64)>) -> Option<u32>;

    /// Whether [`Scheduler::note_step`] wants boundary classification
    /// (the machine skips the per-step op peek when `false`).
    fn wants_boundaries(&self) -> bool {
        false
    }

    /// Observe a completed step by `tid`; `steps` is the global retired
    /// step count, `boundary` whether the op sat at a weak-lock or
    /// shared-access site.
    fn note_step(&mut self, _tid: u32, _steps: u64, _boundary: bool) {}

    /// Forced scheduling perturbations injected so far (priority changes
    /// or preemptions) — reported via `ExecStats::sched_preemptions`.
    fn preemptions(&self) -> u64 {
        0
    }
}

/// The baseline policy as a [`Scheduler`]: smallest `(clock, id)` wins.
/// The machine routes [`SchedStrategy::ClockJitter`] to its optimized
/// ready-queue loop instead, but this impl keeps the seam total (and is
/// what the strategy loop would run if asked to).
pub struct ClockOrdered;

impl Scheduler for ClockOrdered {
    fn track_threads(&mut self, _n: usize) {}

    fn pick(&mut self, ready: &mut dyn Iterator<Item = (u32, u64)>) -> Option<u32> {
        ready.min_by_key(|&(id, clock)| (clock, id)).map(|(id, _)| id)
    }
}

/// Initial PCT priorities live in a high band so every change-point
/// priority (a small integer) sits below all of them.
const PCT_HIGH_BASE: u64 = 1 << 32;

/// PCT: each thread gets a seeded random priority at spawn; the highest
/// priority ready thread always runs; at each of `depth - 1` seeded step
/// indices the running thread's priority drops into the low band (change
/// point `j` of `d-1` assigns priority `d-1-j`, so later change points
/// push below earlier ones, exactly the PCT construction).
pub struct PctSched {
    rng: Rng,
    prios: Vec<u64>,
    /// Sorted change-point step indices.
    points: Vec<u64>,
    next_point: usize,
    changes: u64,
}

impl PctSched {
    /// Seeded construction: change points are drawn up front from
    /// `[1, span]` so the whole schedule is a function of `(seed, depth,
    /// span)`.
    pub fn new(seed: u64, depth: u32, span: u64) -> PctSched {
        let mut rng = Rng::seed_from_u64(seed ^ PCT_SALT);
        let span = span.max(1);
        let mut points: Vec<u64> = (0..depth.saturating_sub(1))
            .map(|_| rng.gen_range(1..=span))
            .collect();
        points.sort_unstable();
        PctSched {
            rng,
            prios: Vec::new(),
            points,
            next_point: 0,
            changes: 0,
        }
    }
}

impl Scheduler for PctSched {
    fn track_threads(&mut self, n: usize) {
        while self.prios.len() < n {
            self.prios.push(PCT_HIGH_BASE + self.rng.gen_range(0..PCT_HIGH_BASE));
        }
    }

    fn pick(&mut self, ready: &mut dyn Iterator<Item = (u32, u64)>) -> Option<u32> {
        // Highest priority wins; ties (possible after random collisions)
        // break toward the smaller thread id.
        ready
            .max_by_key(|&(id, _)| (self.prios[id as usize], std::cmp::Reverse(id)))
            .map(|(id, _)| id)
    }

    fn note_step(&mut self, tid: u32, steps: u64, _boundary: bool) {
        while self.next_point < self.points.len() && steps >= self.points[self.next_point] {
            let low = (self.points.len() - self.next_point) as u64;
            self.prios[tid as usize] = low;
            self.next_point += 1;
            self.changes += 1;
        }
    }

    fn preemptions(&self) -> u64 {
        self.changes
    }
}

/// Preemption-bounded targeted exploration: one sticky "current" thread
/// runs until it blocks or a seeded preemption fires at a weak-lock or
/// shared-access boundary, at which point scheduling rotates round-robin
/// to the next ready thread. At most `budget` preemptions are injected.
pub struct PreemptSched {
    rng: Rng,
    current: Option<u32>,
    rotate_from: u32,
    budget_left: u32,
    period: u64,
    preempts: u64,
}

impl PreemptSched {
    /// Seeded construction.
    pub fn new(seed: u64, budget: u32, period: u64) -> PreemptSched {
        PreemptSched {
            rng: Rng::seed_from_u64(seed ^ PREEMPT_SALT),
            current: None,
            rotate_from: 0,
            budget_left: budget,
            period,
            preempts: 0,
        }
    }
}

impl Scheduler for PreemptSched {
    fn track_threads(&mut self, _n: usize) {}

    fn pick(&mut self, ready: &mut dyn Iterator<Item = (u32, u64)>) -> Option<u32> {
        // One pass: is the sticky current thread still ready, and which
        // ready ids bracket the rotation point?
        let mut current_ready = false;
        let mut min_ge: Option<u32> = None;
        let mut min_all: Option<u32> = None;
        for (id, _) in ready {
            if Some(id) == self.current {
                current_ready = true;
            }
            if id >= self.rotate_from && min_ge.is_none_or(|m| id < m) {
                min_ge = Some(id);
            }
            if min_all.is_none_or(|m| id < m) {
                min_all = Some(id);
            }
        }
        if current_ready {
            return self.current;
        }
        let next = min_ge.or(min_all);
        self.current = next;
        next
    }

    fn wants_boundaries(&self) -> bool {
        true
    }

    fn note_step(&mut self, tid: u32, _steps: u64, boundary: bool) {
        if !boundary || self.budget_left == 0 {
            return;
        }
        if self.period > 1 && self.rng.gen_range(0..self.period) != 0 {
            return;
        }
        self.budget_left -= 1;
        self.preempts += 1;
        self.rotate_from = tid.wrapping_add(1);
        self.current = None;
    }

    fn preemptions(&self) -> u64 {
        self.preempts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pick_of(s: &mut dyn Scheduler, ready: &[(u32, u64)]) -> Option<u32> {
        s.track_threads(ready.iter().map(|&(id, _)| id as usize + 1).max().unwrap_or(0));
        s.pick(&mut ready.iter().copied())
    }

    #[test]
    fn clock_ordered_picks_min_clock_then_id() {
        let mut s = ClockOrdered;
        assert_eq!(pick_of(&mut s, &[(0, 9), (1, 3), (2, 3)]), Some(1));
        assert_eq!(pick_of(&mut s, &[]), None);
    }

    #[test]
    fn pct_is_deterministic_per_seed_and_ignores_clocks() {
        let mut a = PctSched::new(7, 3, 100);
        let mut b = PctSched::new(7, 3, 100);
        for ready in [&[(0u32, 5u64), (1, 1), (2, 99)][..], &[(1, 0), (2, 0)][..]] {
            assert_eq!(pick_of(&mut a, ready), pick_of(&mut b, ready));
        }
        // Clocks are irrelevant: scaling them never changes the pick.
        let mut c = PctSched::new(7, 3, 100);
        let mut d = PctSched::new(7, 3, 100);
        let p1 = pick_of(&mut c, &[(0, 1), (1, 2), (2, 3)]);
        let p2 = pick_of(&mut d, &[(0, 1000), (1, 2000), (2, 3000)]);
        assert_eq!(p1, p2);
    }

    #[test]
    fn pct_change_points_demote_the_running_thread() {
        let mut s = PctSched::new(1, 2, 1); // one change point, at step 1
        s.track_threads(2);
        let first = s.pick(&mut [(0u32, 0u64), (1, 0)].iter().copied()).unwrap();
        s.note_step(first, 1, false);
        assert_eq!(s.preemptions(), 1);
        // The demoted thread now loses to the other one.
        let second = s.pick(&mut [(0u32, 0u64), (1, 0)].iter().copied()).unwrap();
        assert_ne!(first, second);
        // Demoted priority sits in the low band.
        assert!(s.prios[first as usize] < PCT_HIGH_BASE);
    }

    #[test]
    fn pct_seeds_differ() {
        // Across many seeds the initial pick among three threads must not
        // be constant (random priorities actually vary).
        let picks: Vec<u32> = (0..16)
            .map(|seed| {
                let mut s = PctSched::new(seed, 3, 100);
                pick_of(&mut s, &[(0, 0), (1, 0), (2, 0)]).unwrap()
            })
            .collect();
        assert!(picks.iter().any(|&p| p != picks[0]), "{picks:?}");
    }

    #[test]
    fn preempt_bound_rotates_at_boundaries_and_respects_budget() {
        let mut s = PreemptSched::new(0, 2, 1); // budget 2, every boundary
        let ready = [(0u32, 0u64), (1, 0), (2, 0)];
        let first = pick_of(&mut s, &ready).unwrap();
        // Sticky while no boundary fires.
        s.note_step(first, 1, false);
        assert_eq!(pick_of(&mut s, &ready), Some(first));
        // Boundary: rotates to the next id.
        s.note_step(first, 2, true);
        let second = pick_of(&mut s, &ready).unwrap();
        assert_ne!(first, second);
        assert_eq!(s.preemptions(), 1);
        // Second boundary spends the budget; further boundaries are inert.
        s.note_step(second, 3, true);
        let third = pick_of(&mut s, &ready).unwrap();
        s.note_step(third, 4, true);
        s.note_step(third, 5, true);
        assert_eq!(s.preemptions(), 2);
        assert_eq!(pick_of(&mut s, &ready), Some(third));
    }

    #[test]
    fn preempt_rotation_wraps_around() {
        let mut s = PreemptSched::new(0, 8, 1);
        let ready = [(0u32, 0u64), (1, 0)];
        let a = pick_of(&mut s, &ready).unwrap();
        s.note_step(a, 1, true);
        let b = pick_of(&mut s, &ready).unwrap();
        s.note_step(b, 2, true);
        let c = pick_of(&mut s, &ready).unwrap();
        assert_ne!(a, b);
        assert_eq!(a, c, "rotation must wrap past the last id");
    }

    #[test]
    fn strategy_parse_and_names_round_trip() {
        for name in ["jitter", "pct", "preempt-bound"] {
            let s = SchedStrategy::parse(name).unwrap();
            assert_eq!(s.name(), name);
        }
        assert_eq!(
            SchedStrategy::parse("preempt").unwrap().name(),
            "preempt-bound"
        );
        assert!(SchedStrategy::parse("nope").is_none());
        assert_eq!(SchedStrategy::default(), SchedStrategy::ClockJitter);
    }

    #[test]
    fn builders_produce_matching_schedulers() {
        assert_eq!(SchedStrategy::pct(3).name(), "pct");
        let s = SchedStrategy::preempt_bound().build(1);
        assert!(s.wants_boundaries());
        let s = SchedStrategy::pct(3).build(1);
        assert!(!s.wants_boundaries());
    }
}
