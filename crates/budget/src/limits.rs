//! Stop conditions: every bound a long run polls, in one value.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cheap, cloneable cooperative-cancellation flag.
///
/// Clones share one flag, so a coordinator thread can hand copies to worker
/// threads and cancel every in-flight run at once. A run polling it through
/// [`Limits::check`] ends with [`Stop::Cancelled`], distinct from every
/// resource-exhaustion stop so supervisors can tell an operator shutdown
/// from an instance that is genuinely too hard.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    /// Flags of ancestor tokens; cancellation flows down through them but
    /// never back up.
    parents: Vec<Arc<AtomicBool>>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Raises the flag; every run polling a clone stops at its next poll.
    /// Children observe the cancellation too; parents (see
    /// [`CancelToken::child`]) do not.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether [`CancelToken::cancel`] has been called on any clone of this
    /// token or of an ancestor it was derived from.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.parents.iter().any(|p| p.load(Ordering::Relaxed))
    }

    /// Derives a child token: cancelling `self` cancels the child, but
    /// cancelling the child leaves `self` untouched. This lets a sweep abort
    /// its own workers on an internal error without tripping an
    /// operator-level interrupt token it was handed.
    pub fn child(&self) -> CancelToken {
        let mut parents = self.parents.clone();
        parents.push(Arc::clone(&self.flag));
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            parents,
        }
    }
}

/// Which bound stopped a run. The variants are in precedence order: when
/// several bounds hold at one poll, [`Limits::check`] reports the first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// The [`Limits::cancel`] token was raised.
    Cancelled,
    /// The [`Limits::mem_budget`] was exceeded.
    Memory,
    /// The whole-run [`Limits::deadline`] passed.
    Deadline,
    /// The [`Limits::conflicts_per_solve`] cap ran out.
    Conflicts,
    /// The [`Limits::work_budget`] ran out.
    Work,
}

impl Stop {
    /// Flag-style name of the bound ("deadline", "work budget", ...),
    /// for diagnostics.
    pub fn describe(&self) -> &'static str {
        match self {
            Stop::Cancelled => "cancel",
            Stop::Memory => "memory budget",
            Stop::Deadline => "deadline",
            Stop::Conflicts => "per-solve conflict cap",
            Stop::Work => "work budget",
        }
    }
}

/// Every stop condition of one run: deterministic budgets, a wall-clock
/// deadline, a logical-byte memory budget and a cancel token. `None`
/// leaves a bound off.
///
/// A poll site reads the clock on its own cadence through [`Limits::tick`]
/// and asks [`Limits::check`] which bound, if any, holds. The deterministic
/// bounds (work, conflicts, memory) decide labels; the wall-clock ones and
/// the token only decide whether a run finishes.
#[derive(Debug, Clone, Default)]
pub struct Limits {
    /// Total work a run may spend, polled between queries, so a run that
    /// stops on it overshoots by at most one query.
    pub work_budget: Option<u64>,
    /// Conflicts one solver call may spend (guards against a single
    /// pathological query; deterministic, unlike a per-query clock).
    pub conflicts_per_solve: Option<u64>,
    /// Wall-clock bound on the whole run. Unlike the work budget this
    /// bounds *time*: SAT-hard structures blow past any conflict estimate,
    /// and a dataset sweep must terminate.
    pub deadline: Option<Duration>,
    /// Cap on the solver's logical bytes (clause arena, watchers and
    /// per-variable storage). Deterministic and machine-independent.
    pub mem_budget: Option<u64>,
    /// Cross-thread cancellation flag.
    pub cancel: Option<CancelToken>,
}

/// What one poll site knows when it calls [`Limits::check`]. A `None`
/// field is a bound this poll does not look at.
#[derive(Debug, Clone, Copy)]
pub struct Poll {
    /// When the run (and its [`Limits::deadline`]) started.
    pub started: Instant,
    /// The time, on polls that read the clock (see [`Limits::tick`]).
    pub now: Option<Instant>,
    /// Whether the memory budget is exceeded.
    pub over_memory: bool,
    /// Conflicts spent by the query in flight.
    pub conflicts: Option<u64>,
    /// Work spent by the whole run.
    pub work: Option<u64>,
}

impl Limits {
    /// Limits with only a total work budget.
    pub fn with_work_budget(budget: u64) -> Self {
        Limits {
            work_budget: Some(budget),
            ..Limits::default()
        }
    }

    /// These limits with `token` installed as the cancel token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// These limits with a wall-clock deadline for the whole run.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Whether an installed cancel token has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// A poll site's clock cadence: returns the time when the deadline
    /// needs it. Without a deadline the clock is never read.
    pub fn tick(&self) -> Option<Instant> {
        self.deadline.is_some().then(Instant::now)
    }

    /// The first bound that holds at `at`, in [`Stop`]'s precedence order:
    /// cancel, memory, the deadline, the conflict cap, the work budget.
    pub fn check(&self, at: &Poll) -> Option<Stop> {
        let expired = self
            .deadline
            .zip(at.now)
            .is_some_and(|(limit, now)| now.saturating_duration_since(at.started) >= limit);
        let spent =
            |cap: Option<u64>, used: Option<u64>| cap.zip(used).is_some_and(|(c, u)| u >= c);
        if self.is_cancelled() {
            Some(Stop::Cancelled)
        } else if at.over_memory {
            Some(Stop::Memory)
        } else if expired {
            Some(Stop::Deadline)
        } else if spent(self.conflicts_per_solve, at.conflicts) {
            Some(Stop::Conflicts)
        } else if spent(self.work_budget, at.work) {
            Some(Stop::Work)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Limits with every bound set, and a poll at which each bound holds
    /// exactly when its flag in `holds` is set (in [`Stop`] order).
    fn case(holds: [bool; 5]) -> (Limits, Poll) {
        let token = CancelToken::new();
        if holds[0] {
            token.cancel();
        }
        let started = Instant::now();
        let now = started + Duration::from_secs(60);
        let limits = Limits {
            work_budget: Some(100),
            conflicts_per_solve: Some(10),
            deadline: Some(Duration::from_secs(if holds[2] { 60 } else { 61 })),
            mem_budget: Some(1),
            cancel: Some(token),
        };
        let poll = Poll {
            started,
            now: Some(now),
            over_memory: holds[1],
            conflicts: Some(if holds[3] { 10 } else { 9 }),
            work: Some(if holds[4] { 100 } else { 99 }),
        };
        (limits, poll)
    }

    const ORDER: [Stop; 5] = [
        Stop::Cancelled,
        Stop::Memory,
        Stop::Deadline,
        Stop::Conflicts,
        Stop::Work,
    ];

    #[test]
    fn each_bound_alone_stops_with_its_own_reason() {
        assert_eq!(check(case([false; 5])), None);
        for (i, &stop) in ORDER.iter().enumerate() {
            let mut holds = [false; 5];
            holds[i] = true;
            assert_eq!(check(case(holds)), Some(stop), "{}", stop.describe());
        }
    }

    fn check((limits, poll): (Limits, Poll)) -> Option<Stop> {
        limits.check(&poll)
    }

    #[test]
    fn the_earlier_bound_wins_for_every_pair() {
        for (i, &first) in ORDER.iter().enumerate() {
            for j in i + 1..ORDER.len() {
                let mut holds = [false; 5];
                holds[i] = true;
                holds[j] = true;
                assert_eq!(
                    check(case(holds)),
                    Some(first),
                    "{} and {}",
                    first.describe(),
                    ORDER[j].describe()
                );
            }
        }
    }

    #[test]
    fn a_poll_sees_only_the_bounds_it_reports() {
        let (limits, mut poll) = case([false, false, true, true, true]);
        let now = poll.now.take();
        poll.conflicts = None;
        poll.work = None;
        assert_eq!(limits.check(&poll), None, "no clock, no counters");
        poll.now = now;
        assert_eq!(
            limits.check(&poll),
            Some(Stop::Deadline),
            "a poll that reads the clock sees the deadline"
        );
    }

    #[test]
    fn unset_bounds_never_hold() {
        let (_, poll) = case([false, true, true, true, true]);
        let poll = Poll {
            over_memory: false,
            ..poll
        };
        assert_eq!(Limits::default().check(&poll), None);
        assert_eq!(Limits::default().tick(), None, "no deadline, no clock read");
    }

    #[test]
    fn tick_reads_the_clock_only_for_a_deadline() {
        assert_eq!(Limits::default().tick(), None);
        assert!(Limits::default()
            .with_deadline(Duration::ZERO)
            .tick()
            .is_some());
    }

    #[test]
    fn child_tokens_see_the_parent_but_not_the_reverse() {
        let parent = CancelToken::new();
        let child = parent.child();
        child.cancel();
        assert!(!parent.is_cancelled());
        let other = parent.child();
        parent.cancel();
        assert!(other.is_cancelled());
    }
}
