//! The CDCL search engine.

use crate::arena::{ClauseArena, ClauseRef, Watcher};
use crate::heap::VarHeap;
use crate::lit::{Lit, Var};
use crate::model::Model;
use crate::stats::SolverStats;
use budget::{Limits, Poll, Stop};
use std::time::Instant;

/// Outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found.
    Sat(Model),
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// A bound of the installed [`Limits`] stopped the search before a
    /// verdict; [`Solver::stop`] names it.
    Unknown,
}

impl SolveResult {
    /// Returns the model if satisfiable.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SolveResult::Sat(m) => Some(m),
            _ => None,
        }
    }

    /// Whether the result is [`SolveResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Sat(_))
    }

    /// Whether the result is [`SolveResult::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SolveResult::Unsat)
    }
}

/// Tri-state assignment encoding: truth values are per-*variable*, and a
/// literal's value is the variable's byte XOR the literal's sign bit, so
/// `value()` is branch-free. Any byte `>= 2` reads as "unassigned"
/// (`VAL_UNDEF ^ sign` is 2 or 3).
pub(crate) const VAL_TRUE: u8 = 0;
pub(crate) const VAL_FALSE: u8 = 1;
pub(crate) const VAL_UNDEF: u8 = 2;

const VAR_DECAY: f64 = 0.95;
const CLAUSE_DECAY: f32 = 0.999;
const VAR_RESCALE_LIMIT: f64 = 1e100;
/// Clause activities live in the arena as `f32`, so they rescale at a much
/// lower magnitude than the `f64` variable activities.
const CLA_RESCALE_LIMIT: f32 = 1e20;
const LUBY_UNIT: u64 = 100;
/// Conflicts between the stop poll's clock reads: `Instant::now` costs tens
/// of nanoseconds, so reading it every conflict would be measurable on easy
/// queries; every 64 conflicts the overhead is noise while a runaway solve
/// still stops within milliseconds of its deadline.
const CLOCK_POLL_CONFLICTS: u64 = 64;
/// Propagations between the stop poll's clock reads. A
/// propagation-dominated solve (large miters driven almost entirely by unit
/// propagation) can generate arbitrarily few conflicts, so the conflict
/// cadence above may never come round; the poll therefore also reads the
/// clock every this many propagations. At tens of millions of propagations
/// per second that amortises to noise while bounding overshoot to
/// milliseconds.
const CLOCK_POLL_PROPS: u64 = 8192;
/// Emit one `solver.progress` observability snapshot every this many
/// propagation-cadence clock polls (~1M propagations between snapshots).
const SNAPSHOT_POLL_INTERVAL: u64 = 128;
/// Also snapshot every this many conflicts within a single solve.
const SNAPSHOT_CONFLICT_INTERVAL: u64 = 4096;
/// Default arena-compaction trigger: collect once this fraction of the
/// arena is tombstones or shrunk tails (see [`Solver::set_gc_fraction`]).
const DEFAULT_GC_FRACTION: f64 = 0.25;
/// Logical bytes accounted per variable: assignment byte, decision level,
/// reason slot, activity, saved phase, and seen mark. The watch-list `Vec`
/// headers are deliberately ignored — they are capacity, not content.
const VAR_BYTES: u64 = 26;
/// Logical bytes accounted per clause header for its two watchers (a
/// `Watcher` is a `ClauseRef` + blocker `Lit`, 8 bytes each).
const WATCHER_BYTES_PER_CLAUSE: u64 = 16;

/// An incremental CDCL SAT solver. See the [crate docs](crate) for the
/// feature list and an example.
#[derive(Debug)]
pub struct Solver {
    pub(crate) arena: ClauseArena,
    pub(crate) watches: Vec<Vec<Watcher>>,
    pub(crate) assign: Vec<u8>,
    pub(crate) level: Vec<u32>,
    pub(crate) reason: Vec<Option<ClauseRef>>,
    pub(crate) trail: Vec<Lit>,
    pub(crate) trail_lim: Vec<usize>,
    pub(crate) qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f32,
    order: VarHeap,
    saved_phase: Vec<bool>,
    seen: Vec<bool>,
    pub(crate) ok: bool,
    pub(crate) stats: SolverStats,
    /// Every bound the stop poll checks (see [`Solver::set_limits`]).
    limits: Limits,
    /// When the deadline of `limits` started counting.
    started: Instant,
    /// Which bound stopped the most recent solve.
    stop: Option<Stop>,
    /// Logical bytes of the clause arena, watchers and per-variable
    /// storage (see [`Solver::logical_bytes`]).
    logical_bytes: u64,
    /// The largest `logical_bytes` has been.
    peak_logical_bytes: u64,
    max_learnts: usize,
    pub(crate) num_learnt_live: usize,
    gc_fraction: f64,
    /// Failed-literal probing budget (propagations) per `preprocess` call.
    pub(crate) probe_budget: u64,
    /// Round-robin cursor so successive `preprocess` calls probe different
    /// variables; advances deterministically.
    pub(crate) probe_cursor: usize,
    /// Scratch for `analyze` (kept across conflicts to avoid reallocation).
    learnt_buf: Vec<Lit>,
    analyze_clear: Vec<Var>,
    lbd_buf: Vec<u32>,
    /// Every clause exactly as the caller passed it, before any in-solver
    /// simplification. Debug builds check each returned model against this
    /// list, so no arena, GC, or preprocessing bug can silently ship an
    /// unsound model (release builds skip both the memory and the check).
    #[cfg(debug_assertions)]
    original: Vec<Vec<Lit>>,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver with no variables or clauses.
    pub fn new() -> Self {
        Solver {
            arena: ClauseArena::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            order: VarHeap::new(),
            saved_phase: Vec::new(),
            seen: Vec::new(),
            ok: true,
            stats: SolverStats::default(),
            limits: Limits::default(),
            started: Instant::now(),
            stop: None,
            logical_bytes: 0,
            peak_logical_bytes: 0,
            max_learnts: 4000,
            num_learnt_live: 0,
            gc_fraction: DEFAULT_GC_FRACTION,
            probe_budget: 20_000,
            probe_cursor: 0,
            learnt_buf: Vec::new(),
            analyze_clear: Vec::new(),
            lbd_buf: Vec::new(),
            #[cfg(debug_assertions)]
            original: Vec::new(),
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.assign.len());
        self.assign.push(VAL_UNDEF);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.saved_phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow_to(self.assign.len());
        self.account_memory();
        v
    }

    /// Allocates `n` fresh variables and returns them in order.
    pub fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of clauses currently alive (problem + learnt).
    pub fn num_clauses(&self) -> usize {
        self.arena
            .refs()
            .filter(|&c| !self.arena.is_deleted(c))
            .count()
    }

    /// Total clause slots including tombstoned (deleted) clauses — O(1),
    /// cheap enough for per-iteration observability snapshots where
    /// [`Solver::num_clauses`]'s O(n) scan would not be.
    pub fn num_clauses_total(&self) -> usize {
        self.arena.num_headers()
    }

    /// Accumulated work counters.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Installs the bounds every later [`Solver::solve`] and
    /// [`Solver::preprocess`] call stops on; `started` is when
    /// `limits.deadline` began counting. The work budget is the caller's to
    /// poll between solves.
    ///
    /// A solve polls at one site: at entry, after every conflict and every
    /// few thousand propagations. It checks the memory budget at entry and
    /// after every conflict, the conflict cap after every conflict (so the
    /// cap is exact), and reads the clock and sees the deadline at entry,
    /// every 64 conflicts and every 8,192 propagations; so even a
    /// conflict-free solve stops within a bounded interval. The
    /// cancel token is seen at every poll. When a bound holds, the call
    /// returns [`SolveResult::Unknown`], [`Solver::stop`] names the bound
    /// by [`Limits::check`]'s precedence, and the solver remains usable.
    ///
    /// The memory budget caps [`Solver::logical_bytes`]: the first poll
    /// that finds them over the cap stops the solve with [`Stop::Memory`].
    /// Logical bytes are a pure function of the search trajectory, so the
    /// verdict is deterministic and machine-independent — label-safe,
    /// unlike an RSS cap.
    pub fn set_limits(&mut self, limits: Limits, started: Instant) {
        self.limits = limits;
        self.started = started;
    }

    /// The *logical* bytes of the clause arena, watchers and per-variable
    /// storage: what the solver asked for (element count × element size),
    /// never what the allocator reserved, so a reading is identical on
    /// every machine and allocator.
    pub fn logical_bytes(&self) -> u64 {
        self.logical_bytes
    }

    /// The largest [`Solver::logical_bytes`] reading this solver has held.
    pub fn peak_logical_bytes(&self) -> u64 {
        self.peak_logical_bytes
    }

    /// The bound that stopped the most recent solve: `Some` exactly when it
    /// returned [`SolveResult::Unknown`].
    pub fn stop(&self) -> Option<Stop> {
        self.stop
    }

    /// Re-derives the solver's logical footprint and its peak. Called from
    /// every site that grows or compacts the big allocations; O(1).
    fn account_memory(&mut self) {
        self.logical_bytes = self.arena.logical_bytes()
            + self.arena.num_headers() as u64 * WATCHER_BYTES_PER_CLAUSE
            + self.assign.len() as u64 * VAR_BYTES;
        self.peak_logical_bytes = self.peak_logical_bytes.max(self.logical_bytes);
    }

    /// Whether the solver's logical bytes exceed the memory budget.
    fn over_memory(&self) -> bool {
        self.limits
            .mem_budget
            .is_some_and(|cap| self.logical_bytes > cap)
    }

    /// Tunes when the clause arena is compacted: collection runs once the
    /// wasted (tombstoned/shrunk) fraction of the arena exceeds `fraction`.
    /// `0.0` collects after every deletion wave; anything `> 1.0` disables
    /// collection. Compaction only relocates clauses — it never reorders
    /// them or their watchers — so search behaviour, counters, and models
    /// are identical for every setting (pinned by the determinism tests).
    pub fn set_gc_fraction(&mut self, fraction: f64) {
        self.gc_fraction = fraction;
    }

    /// Caps the propagation work each [`Solver::preprocess`] call may spend
    /// on failed-literal probing. `0` disables probing.
    pub fn set_probe_budget(&mut self, propagations: u64) {
        self.probe_budget = propagations;
    }

    /// The stop poll of [`Solver::preprocess`], which runs with no query in
    /// flight: the cancel token and the run deadline, on the same clock
    /// cadence as search.
    pub(crate) fn preprocess_should_stop(&self) -> bool {
        let poll = Poll {
            started: self.started,
            now: self.limits.tick(),
            over_memory: false,
            conflicts: None,
            work: None,
        };
        self.limits.check(&poll).is_some()
    }

    /// The literal's truth value: [`VAL_TRUE`], [`VAL_FALSE`], or `>= 2`
    /// for unassigned (see the encoding note on the constants).
    #[inline]
    pub(crate) fn value(&self, lit: Lit) -> u8 {
        self.assign[(lit.0 >> 1) as usize] ^ (lit.0 as u8 & 1)
    }

    pub(crate) fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause to the formula.
    ///
    /// Duplicated literals are removed and tautologies are dropped silently.
    /// Returns `false` when the formula has become trivially unsatisfiable
    /// (an empty clause was derived), `true` otherwise. Adding a clause
    /// resets the search to decision level 0.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) -> bool {
        if !self.ok {
            return false;
        }
        self.cancel_until(0);
        let mut lits: Vec<Lit> = lits.into_iter().collect();
        #[cfg(debug_assertions)]
        self.original.push(lits.clone());
        lits.sort();
        lits.dedup();
        // Tautology / level-0 simplification.
        let mut simplified = Vec::with_capacity(lits.len());
        for (i, &l) in lits.iter().enumerate() {
            if i + 1 < lits.len() && lits[i + 1] == !l {
                return true; // tautology: contains l and !l (adjacent after sort)
            }
            match self.value(l) {
                VAL_TRUE => return true, // satisfied at level 0
                VAL_FALSE => continue,   // falsified at level 0: drop
                _ => simplified.push(l),
            }
        }
        match simplified.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(simplified[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_clause(&simplified, false, 0);
                true
            }
        }
    }

    pub(crate) fn attach_clause(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.arena.alloc(lits, learnt);
        self.arena.set_lbd(cref, lbd);
        self.arena.set_activity(cref, self.cla_inc);
        let w0 = Watcher {
            clause: cref,
            blocker: lits[1],
        };
        let w1 = Watcher {
            clause: cref,
            blocker: lits[0],
        };
        self.watches[(!lits[0]).code()].push(w0);
        self.watches[(!lits[1]).code()].push(w1);
        if learnt {
            self.num_learnt_live += 1;
            self.stats.learnt_clauses += 1;
        }
        self.account_memory();
        cref
    }

    /// Tombstones a clause and keeps the live-clause accounting straight.
    /// The arena words (and any watchers still pointing at the tombstone)
    /// are reclaimed by the next [`Solver::maybe_gc`].
    pub(crate) fn free_clause(&mut self, cref: ClauseRef) {
        if self.arena.is_learnt(cref) {
            self.num_learnt_live -= 1;
        }
        self.arena.free(cref);
        self.stats.deleted_clauses += 1;
    }

    pub(crate) fn unchecked_enqueue(&mut self, lit: Lit, reason: Option<ClauseRef>) {
        debug_assert!(self.value(lit) >= VAL_UNDEF);
        let v = lit.var().index();
        self.assign[v] = lit.0 as u8 & 1; // positive => VAL_TRUE, negative => VAL_FALSE
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(lit);
    }

    /// Unit propagation; returns the conflicting clause, if any.
    pub(crate) fn propagate(&mut self) -> Option<ClauseRef> {
        let mut conflict = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;

            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut i = 0;
            let mut j = 0;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.value(w.blocker) == VAL_TRUE {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.clause;
                if self.arena.is_deleted(cref) {
                    continue; // drop tombstoned watcher
                }
                let false_lit = !p;
                // Normalize so the false literal sits at position 1.
                if self.arena.lit(cref, 0) == false_lit {
                    self.arena.swap_lits(cref, 0, 1);
                }
                debug_assert_eq!(self.arena.lit(cref, 1), false_lit);
                let first = self.arena.lit(cref, 0);
                let new_watch = Watcher {
                    clause: cref,
                    blocker: first,
                };
                if first != w.blocker && self.value(first) == VAL_TRUE {
                    ws[j] = new_watch;
                    j += 1;
                    continue;
                }
                // Search for a non-false literal to watch instead.
                let len = self.arena.len(cref);
                for k in 2..len {
                    let lk = self.arena.lit(cref, k);
                    if self.value(lk) != VAL_FALSE {
                        self.arena.swap_lits(cref, 1, k);
                        self.watches[(!lk).code()].push(new_watch);
                        continue 'watchers;
                    }
                }
                // Clause is unit or conflicting under the current trail.
                ws[j] = new_watch;
                j += 1;
                if self.value(first) == VAL_FALSE {
                    conflict = Some(cref);
                    self.qhead = self.trail.len();
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                } else {
                    self.unchecked_enqueue(first, Some(cref));
                }
            }
            ws.truncate(j);
            self.watches[p.code()] = ws;
            if conflict.is_some() {
                break;
            }
        }
        conflict
    }

    pub(crate) fn cancel_until(&mut self, target_level: u32) {
        if self.decision_level() <= target_level {
            return;
        }
        let bound = self.trail_lim[target_level as usize];
        for idx in (bound..self.trail.len()).rev() {
            let lit = self.trail[idx];
            let v = lit.var();
            self.saved_phase[v.index()] = lit.is_positive();
            self.assign[v.index()] = VAL_UNDEF;
            self.reason[v.index()] = None;
            if !self.order.contains(v) {
                self.order.insert(v, &self.activity);
            }
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(target_level as usize);
        self.qhead = self.trail.len();
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > VAR_RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.decrease_key(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let act = self.arena.activity(cref) + self.cla_inc;
        self.arena.set_activity(cref, act);
        if act > CLA_RESCALE_LIMIT {
            let refs: Vec<ClauseRef> = self.arena.refs().collect();
            for c in refs {
                if !self.arena.is_deleted(c) {
                    let scaled = self.arena.activity(c) * 1e-20;
                    self.arena.set_activity(c, scaled);
                }
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis. Fills `self.learnt_buf` with the learnt
    /// clause (asserting literal first) and returns the backtrack level and
    /// the clause's literal block distance.
    fn analyze(&mut self, mut conflict: ClauseRef) -> (u32, u32) {
        let mut learnt = std::mem::take(&mut self.learnt_buf);
        let mut to_clear = std::mem::take(&mut self.analyze_clear);
        learnt.clear();
        to_clear.clear();
        learnt.push(Lit(0)); // placeholder for the asserting literal

        let mut path_count = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let current_level = self.decision_level();

        loop {
            if self.arena.is_learnt(conflict) {
                self.bump_clause(conflict);
            }
            let len = self.arena.len(conflict);
            let start = if p.is_none() { 0 } else { 1 };
            for k in start..len {
                let q = self.arena.lit(conflict, k);
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.bump_var(v);
                    self.seen[v.index()] = true;
                    to_clear.push(v);
                    if self.level[v.index()] >= current_level {
                        path_count += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next trail literal that contributed to the conflict.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            p = Some(lit);
            self.seen[lit.var().index()] = false;
            path_count -= 1;
            if path_count == 0 {
                break;
            }
            conflict = self.reason[lit.var().index()].expect("non-decision on conflict path");
        }
        learnt[0] = !p.expect("conflict analysis found a UIP");

        // Cheap clause minimization: drop literals implied by the rest.
        let mut w = 1;
        for r in 1..learnt.len() {
            let l = learnt[r];
            if !self.literal_redundant(l) {
                learnt[w] = l;
                w += 1;
            }
        }
        learnt.truncate(w);

        for &v in &to_clear {
            self.seen[v.index()] = false;
        }

        // Compute backtrack level and move its literal into slot 1.
        let backtrack = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };

        // Literal block distance = number of distinct decision levels.
        let mut levels = std::mem::take(&mut self.lbd_buf);
        levels.clear();
        levels.extend(learnt.iter().map(|l| self.level[l.var().index()]));
        levels.sort_unstable();
        levels.dedup();
        let lbd = levels.len() as u32;
        self.lbd_buf = levels;

        self.learnt_buf = learnt;
        self.analyze_clear = to_clear;
        (backtrack, lbd)
    }

    /// A learnt literal is redundant if its reason clause's other literals
    /// are all already marked `seen` (i.e. already in the learnt clause or on
    /// the conflict path) or assigned at level 0.
    fn literal_redundant(&self, lit: Lit) -> bool {
        let Some(reason) = self.reason[lit.var().index()] else {
            return false;
        };
        (1..self.arena.len(reason)).all(|k| {
            let q = self.arena.lit(reason, k);
            self.seen[q.var().index()] || self.level[q.var().index()] == 0
        })
    }

    fn reduce_db(&mut self) {
        // Collect live learnt clauses sorted worst-first.
        let mut candidates: Vec<ClauseRef> = self
            .arena
            .refs()
            .filter(|&c| {
                self.arena.is_learnt(c)
                    && !self.arena.is_deleted(c)
                    && self.arena.len(c) > 2
                    && !self.is_locked(c)
            })
            .collect();
        candidates.sort_by(|&a, &b| {
            self.arena.lbd(b).cmp(&self.arena.lbd(a)).then(
                self.arena
                    .activity(a)
                    .partial_cmp(&self.arena.activity(b))
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let to_delete = candidates.len() / 2;
        for &c in candidates.iter().take(to_delete) {
            self.free_clause(c);
        }
        self.max_learnts += self.max_learnts / 10;
    }

    fn is_locked(&self, cref: ClauseRef) -> bool {
        let first = self.arena.lit(cref, 0);
        self.value(first) == VAL_TRUE && self.reason[first.var().index()] == Some(cref)
    }

    /// Compacts the clause arena when enough of it is tombstones, rewriting
    /// every watcher and reason reference through the relocation map.
    /// Collection preserves clause order, literal order, and watcher order,
    /// so search behaviour is identical whether or not (and whenever) it
    /// runs — see the determinism tests.
    pub(crate) fn maybe_gc(&mut self) {
        if self.arena.wasted_fraction() <= self.gc_fraction {
            return;
        }
        let map = self.arena.collect();
        for ws in &mut self.watches {
            ws.retain_mut(|w| match map.remap(w.clause) {
                Some(nc) => {
                    w.clause = nc;
                    true
                }
                None => false,
            });
        }
        for slot in &mut self.reason {
            if let Some(c) = *slot {
                // A reason clause can only have been tombstoned for a
                // level-0 assignment (reduce_db never frees locked clauses),
                // and level-0 assignments never need their reason again.
                *slot = map.remap(c);
            }
        }
        self.account_memory();
    }

    /// Rebuilds every watch list from the live clauses, in arena order.
    pub(crate) fn rebuild_watches(&mut self) {
        for w in &mut self.watches {
            w.clear();
        }
        let Solver { arena, watches, .. } = self;
        let mut it = arena.refs();
        for cref in &mut it {
            if arena.is_deleted(cref) {
                continue;
            }
            let (l0, l1) = (arena.lit(cref, 0), arena.lit(cref, 1));
            watches[(!l0).code()].push(Watcher {
                clause: cref,
                blocker: l1,
            });
            watches[(!l1).code()].push(Watcher {
                clause: cref,
                blocker: l0,
            });
        }
    }

    /// Deletes clauses satisfied at level 0 and strips false level-0
    /// literals in place. Watch lists are stale afterwards; the caller must
    /// rebuild them before propagating again.
    pub(crate) fn root_sweep(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        let refs: Vec<ClauseRef> = self.arena.refs().collect();
        for cref in refs {
            if self.arena.is_deleted(cref) {
                continue;
            }
            let len = self.arena.len(cref);
            if (0..len).any(|k| {
                let l = self.arena.lit(cref, k);
                self.value(l) == VAL_TRUE && self.level[l.var().index()] == 0
            }) {
                self.free_clause(cref);
                continue;
            }
            // Compact surviving literals to the front.
            let mut w = 0;
            for k in 0..len {
                let l = self.arena.lit(cref, k);
                if !(self.value(l) == VAL_FALSE && self.level[l.var().index()] == 0) {
                    if w != k {
                        let lw = self.arena.lit(cref, k);
                        self.arena.set_lit(cref, w, lw);
                    }
                    w += 1;
                }
            }
            if w < len {
                debug_assert!(
                    w >= 2,
                    "unit/empty clauses cannot survive level-0 propagation to fixpoint"
                );
                self.arena.shrink(cref, w);
            }
        }
    }

    /// Solves the formula with no assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumption literals.
    ///
    /// Assumptions act like temporary unit clauses: the result is relative to
    /// them, and the solver state remains reusable afterwards (clauses can be
    /// added and `solve*` called again).
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.stop = None;
        if let Some(fault) = faults::inject("sat.solve") {
            match fault.action {
                faults::Action::Panic => panic!(
                    "injected fault: sat.solve panic (occurrence {})",
                    fault.occurrence
                ),
                // A spurious indeterminate answer, as a flaky solver would
                // produce; it reads as a conflict-cap give-up.
                faults::Action::Unknown => {
                    self.stop = Some(Stop::Conflicts);
                    return SolveResult::Unknown;
                }
                _ => fault.unsupported("sat.solve"),
            }
        }
        let result = self.solve_inner(assumptions);
        #[cfg(debug_assertions)]
        if let SolveResult::Sat(model) = &result {
            self.assert_model_sound(model, assumptions);
        }
        // One snapshot per solve keeps short solves visible in traces that
        // never reach the periodic in-loop snapshot thresholds.
        if obs::enabled() {
            self.emit_snapshot();
        }
        result
    }

    /// Model-soundness invariant (debug builds only): every model returned
    /// by the solver must satisfy every clause exactly as the caller passed
    /// it — *before* any dedup, strengthening, subsumption, or arena GC. A
    /// corrupted arena or an unsound simplification therefore panics here
    /// instead of shipping a wrong label.
    #[cfg(debug_assertions)]
    fn assert_model_sound(&self, model: &Model, assumptions: &[Lit]) {
        for clause in &self.original {
            assert!(
                clause.iter().any(|&l| model.lit_value(l)),
                "model violates original clause {clause:?} (arena or simplification corruption)"
            );
        }
        for &a in assumptions {
            assert!(model.lit_value(a), "model violates assumption {a}");
        }
    }

    /// Test hook (debug builds only): flips the sign of the first literal of
    /// the first live clause *without* recording the change in the original
    /// clause list, simulating arena corruption. The next SAT verdict then
    /// trips the model-soundness assertion.
    #[cfg(all(test, debug_assertions))]
    fn debug_corrupt_first_clause(&mut self) {
        let cref = self
            .arena
            .refs()
            .find(|&c| !self.arena.is_deleted(c))
            .expect("a live clause to corrupt");
        let flipped = !self.arena.lit(cref, 0);
        self.arena.set_lit(cref, 0, flipped);
        self.rebuild_watches();
    }

    /// Record a `solver.progress` observability snapshot of the counters.
    fn emit_snapshot(&self) {
        obs::emit(obs::EventKind::SolverProgress {
            decisions: self.stats.decisions,
            propagations: self.stats.propagations,
            conflicts: self.stats.conflicts,
            restarts: self.stats.restarts,
            learnt_live: self.num_learnt_live as u64,
        });
    }

    fn solve_inner(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.stats.solves += 1;
        if !self.ok {
            return SolveResult::Unsat;
        }
        self.cancel_until(0);

        let conflicts_start = self.stats.conflicts;
        let mut restart_count = 0u64;
        let mut conflicts_until_restart = luby(restart_count) * LUBY_UNIT;
        let mut conflicts_this_restart = 0u64;
        let mut next_clock_poll = self.stats.propagations + CLOCK_POLL_PROPS;
        let mut prop_polls = 0u64;
        // What the next poll is due for: `entry` before any search work,
        // `conflicted` right after a conflict was learnt.
        let mut entry = true;
        let mut conflicted = false;

        loop {
            // The one stop poll (see `set_limits` for its cadence).
            let conflicts = self.stats.conflicts - conflicts_start;
            let prop_poll = self.stats.propagations >= next_clock_poll;
            if entry || conflicted || prop_poll {
                let clock = entry
                    || prop_poll
                    || (conflicted && conflicts.is_multiple_of(CLOCK_POLL_CONFLICTS));
                let poll = Poll {
                    started: self.started,
                    now: if clock { self.limits.tick() } else { None },
                    // Memory only grows through learning, and a budget that
                    // the formula alone overflows gives up before any work.
                    over_memory: (entry || conflicted) && self.over_memory(),
                    conflicts: conflicted.then_some(conflicts),
                    work: None,
                };
                if let Some(stop) = self.limits.check(&poll) {
                    self.cancel_until(0);
                    self.stop = Some(stop);
                    return SolveResult::Unknown;
                }
                if prop_poll {
                    next_clock_poll = self.stats.propagations + CLOCK_POLL_PROPS;
                    prop_polls += 1;
                    if prop_polls.is_multiple_of(SNAPSHOT_POLL_INTERVAL) && obs::enabled() {
                        self.emit_snapshot();
                    }
                }
                if entry {
                    // Seed the order heap with every unassigned variable,
                    // only once the entry poll has passed: a solve stopped
                    // there returns without paying O(vars).
                    for i in 0..self.assign.len() {
                        let v = Var::from_index(i);
                        if self.assign[i] == VAL_UNDEF && !self.order.contains(v) {
                            self.order.insert(v, &self.activity);
                        }
                    }
                    entry = false;
                }
            }
            if conflicted {
                // Learnt-DB upkeep and restarts come after the poll, so a
                // solve the conflict cap stops leaves them undone.
                conflicted = false;
                if conflicts.is_multiple_of(SNAPSHOT_CONFLICT_INTERVAL) && obs::enabled() {
                    self.emit_snapshot();
                }
                if self.num_learnt_live > self.max_learnts {
                    self.reduce_db();
                    self.maybe_gc();
                }
                if conflicts_this_restart >= conflicts_until_restart {
                    self.stats.restarts += 1;
                    restart_count += 1;
                    conflicts_this_restart = 0;
                    conflicts_until_restart = luby(restart_count) * LUBY_UNIT;
                    self.cancel_until(0);
                }
            }
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_this_restart += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SolveResult::Unsat;
                }
                let (backtrack, lbd) = self.analyze(conflict);
                // Never backtrack past the assumption levels.
                self.cancel_until(backtrack);
                if self.learnt_buf.len() == 1 {
                    // Asserting unit at level 0 context of its backtrack level.
                    let unit = self.learnt_buf[0];
                    match self.value(unit) {
                        VAL_FALSE => {
                            self.ok = false;
                            return SolveResult::Unsat;
                        }
                        VAL_TRUE => {}
                        _ => self.unchecked_enqueue(unit, None),
                    }
                } else {
                    let asserting = self.learnt_buf[0];
                    let learnt = std::mem::take(&mut self.learnt_buf);
                    let cref = self.attach_clause(&learnt, true, lbd);
                    self.learnt_buf = learnt;
                    self.unchecked_enqueue(asserting, Some(cref));
                }
                self.var_inc /= VAR_DECAY;
                self.cla_inc /= CLAUSE_DECAY;
                conflicted = true;
            } else {
                // No conflict: extend with assumptions first, then decide.
                let dl = self.decision_level() as usize;
                if dl < assumptions.len() {
                    let p = assumptions[dl];
                    match self.value(p) {
                        VAL_TRUE => {
                            // Already satisfied: open a dummy level so the
                            // assumption index advances.
                            self.trail_lim.push(self.trail.len());
                        }
                        VAL_FALSE => {
                            self.cancel_until(0);
                            return SolveResult::Unsat;
                        }
                        _ => {
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(p, None);
                        }
                    }
                    continue;
                }
                match self.pick_branch_var() {
                    None => {
                        let model =
                            Model::new(self.assign.iter().map(|&a| a == VAL_TRUE).collect());
                        self.cancel_until(0);
                        return SolveResult::Sat(model);
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        let lit = Lit::new(v, !self.saved_phase[v.index()]);
                        self.trail_lim.push(self.trail.len());
                        self.unchecked_enqueue(lit, None);
                    }
                }
            }
        }
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.assign[v.index()] == VAL_UNDEF {
                return Some(v);
            }
        }
        None
    }

    /// Test-only access to the learnt-clause cap (forces frequent DB
    /// reductions).
    #[cfg(test)]
    pub(crate) fn set_max_learnts(&mut self, n: usize) {
        self.max_learnts = n;
    }
}

/// The Luby restart sequence: 1,1,2,1,1,2,4,...
fn luby(i: u64) -> u64 {
    // Find the finite subsequence containing index i.
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < i + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    let mut i = i;
    while size - 1 != i {
        size = (size - 1) >> 1;
        seq -= 1;
        i %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Installs `limits` on `s`, its deadline counting from now.
    fn limit(s: &mut Solver, limits: Limits) {
        s.set_limits(limits, Instant::now());
    }

    fn lit(n: i64) -> Lit {
        Lit::from_dimacs(n)
    }

    fn solver_with_vars(n: usize) -> Solver {
        let mut s = Solver::new();
        s.new_vars(n);
        s
    }

    #[test]
    fn luby_sequence_prefix() {
        let seq: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert!(s.solve().is_sat());
    }

    #[test]
    fn single_unit_clause() {
        let mut s = solver_with_vars(1);
        s.add_clause([lit(1)]);
        match s.solve() {
            SolveResult::Sat(m) => assert!(m.value(Var::from_index(0))),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn contradictory_units_unsat() {
        let mut s = solver_with_vars(1);
        assert!(s.add_clause([lit(1)]));
        assert!(!s.add_clause([lit(-1)]));
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn simple_implication_chain() {
        // x1, x1->x2, x2->x3 ... forces all true.
        let mut s = solver_with_vars(10);
        s.add_clause([lit(1)]);
        for i in 1..10i64 {
            s.add_clause([lit(-i), lit(i + 1)]);
        }
        match s.solve() {
            SolveResult::Sat(m) => {
                for i in 0..10 {
                    assert!(m.value(Var::from_index(i)));
                }
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    fn pigeonhole(n: i64, h: i64) -> Solver {
        let mut s = solver_with_vars((n * h) as usize);
        let p = |i: i64, j: i64| lit(i * h + j + 1);
        for i in 0..n {
            let clause: Vec<Lit> = (0..h).map(|j| p(i, j)).collect();
            s.add_clause(clause);
        }
        for j in 0..h {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause([!p(i1, j), !p(i2, j)]);
                }
            }
        }
        s
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        assert!(pigeonhole(3, 2).solve().is_unsat());
    }

    #[test]
    fn pigeonhole_5_into_4_is_unsat() {
        let mut s = pigeonhole(5, 4);
        assert!(s.solve().is_unsat());
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn tautologies_are_ignored() {
        let mut s = solver_with_vars(2);
        assert!(s.add_clause([lit(1), lit(-1)]));
        assert!(s.add_clause([lit(2), lit(1), lit(-2)]));
        assert!(s.solve().is_sat());
        assert_eq!(s.num_clauses(), 0);
    }

    #[test]
    fn duplicate_literals_are_merged() {
        let mut s = solver_with_vars(2);
        s.add_clause([lit(1), lit(1), lit(2)]);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn assumptions_flip_result() {
        let mut s = solver_with_vars(2);
        s.add_clause([lit(1), lit(2)]);
        assert!(s.solve_with_assumptions(&[lit(-1), lit(-2)]).is_unsat());
        // The solver stays usable and SAT without assumptions.
        assert!(s.solve().is_sat());
        match s.solve_with_assumptions(&[lit(-1)]) {
            SolveResult::Sat(m) => {
                assert!(!m.value(Var::from_index(0)));
                assert!(m.value(Var::from_index(1)));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = solver_with_vars(3);
        s.add_clause([lit(1), lit(2), lit(3)]);
        assert!(s.solve().is_sat());
        s.add_clause([lit(-1)]);
        s.add_clause([lit(-2)]);
        match s.solve() {
            SolveResult::Sat(m) => assert!(m.value(Var::from_index(2))),
            other => panic!("expected SAT, got {other:?}"),
        }
        s.add_clause([lit(-3)]);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn conflict_budget_yields_unknown() {
        // A hard instance (php 7 into 6) with a tiny budget.
        let mut s = pigeonhole(7, 6);
        limit(
            &mut s,
            Limits {
                conflicts_per_solve: Some(10),
                ..Limits::default()
            },
        );
        assert_eq!(s.solve(), SolveResult::Unknown);
        limit(&mut s, Limits::default());
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn expired_deadline_yields_unknown() {
        let mut s = pigeonhole(7, 6);
        limit(&mut s, Limits::default().with_deadline(Duration::ZERO));
        assert_eq!(s.solve(), SolveResult::Unknown);
        // Clearing the deadline restores normal operation on the same state.
        limit(&mut s, Limits::default());
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn mid_search_deadline_stops_a_hard_solve() {
        // php(9,8) runs for seconds unbounded; a few-ms deadline must stop
        // it at a conflict-check boundary and leave the solver reusable.
        let mut s = pigeonhole(9, 8);
        limit(
            &mut s,
            Limits::default().with_deadline(Duration::from_millis(20)),
        );
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert!(s.stats().conflicts > 0, "search actually started");
        limit(&mut s, Limits::default());
        let mut easy = pigeonhole(3, 2);
        assert!(easy.solve().is_unsat());
    }

    #[test]
    fn propagation_dominated_deadline_stops_without_conflicts() {
        // XOR-equivalence chains (v_i <-> v_{i+1}): deciding any variable
        // propagates its entire chain in either phase, and the all-false
        // model is consistent, so the solve is pure unit propagation with
        // zero conflicts. The conflict-interval deadline check can therefore
        // never fire; only the propagation-interval check can stop it.
        fn equivalence_chains(chains: i64, len: i64) -> Solver {
            let mut s = solver_with_vars((chains * len) as usize);
            for c in 0..chains {
                let base = c * len;
                for i in 0..len - 1 {
                    let a = lit(base + i + 1);
                    let b = lit(base + i + 2);
                    s.add_clause([!a, b]);
                    s.add_clause([a, !b]);
                }
            }
            s
        }
        const CHAINS: i64 = 800;
        const LEN: i64 = 500;

        // Reference: the unbounded solve is satisfiable and conflict-free.
        let mut reference = equivalence_chains(CHAINS, LEN);
        let unbounded_start = std::time::Instant::now();
        assert!(matches!(reference.solve(), SolveResult::Sat(_)));
        let unbounded = unbounded_start.elapsed();
        assert_eq!(reference.stats().conflicts, 0, "chains never conflict");
        assert!(reference.stats().propagations >= (CHAINS * (LEN - 1)) as u64);

        // Bounded: a deadline far shorter than the full solve must stop it
        // even though no conflict ever happens. Before the propagation-axis
        // check existed this ran to completion (elapsed ≈ unbounded).
        let deadline = (unbounded / 20).max(std::time::Duration::from_micros(500));
        let mut bounded = equivalence_chains(CHAINS, LEN);
        limit(&mut bounded, Limits::default().with_deadline(deadline));
        let verdict = bounded.solve();
        // Only meaningful when the machine isn't so fast that the whole
        // solve fits inside the minimum deadline; skip silently otherwise.
        if unbounded >= deadline * 10 {
            // Pre-fix behaviour: zero conflicts means the conflict-interval
            // check never fires, so the solve runs to completion and returns
            // Sat. Unknown proves the propagation-axis check stopped it.
            assert_eq!(verdict, SolveResult::Unknown);
            assert_eq!(
                bounded.stats().conflicts,
                0,
                "stopped on the propagation axis, not via a conflict check"
            );
            // Bounded overshoot, asserted on the work axis rather than wall
            // clock (parallel test load makes wall-time bounds flaky): with
            // a deadline of ~1/20 of the full solve, finishing even half the
            // propagations would mean a 10x overshoot.
            assert!(
                bounded.stats().propagations < reference.stats().propagations / 2,
                "deadline {deadline:?} overshot: {} of {} propagations done",
                bounded.stats().propagations,
                reference.stats().propagations,
            );
            // The solver remains usable after an expired deadline.
            limit(&mut bounded, Limits::default());
            assert!(matches!(bounded.solve(), SolveResult::Sat(_)));
        }
    }

    #[test]
    fn generous_deadline_does_not_change_verdicts() {
        let mut s = pigeonhole(5, 4);
        limit(
            &mut s,
            Limits::default().with_deadline(Duration::from_secs(600)),
        );
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn model_satisfies_all_clauses_random_3sat() {
        // Deterministic LCG-generated satisfiable-ish 3-SAT at low density;
        // whenever SAT is reported the model must satisfy every clause.
        let mut state = 0x12345678u64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        for round in 0..10 {
            let num_vars = 30;
            let num_clauses = 90 + round * 3;
            let mut s = solver_with_vars(num_vars);
            let mut clauses = Vec::new();
            for _ in 0..num_clauses {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let v = next(num_vars as u64) as i64 + 1;
                    let sign = if next(2) == 0 { 1 } else { -1 };
                    c.push(lit(sign * v));
                }
                clauses.push(c.clone());
                s.add_clause(c);
            }
            if let SolveResult::Sat(m) = s.solve() {
                for c in &clauses {
                    assert!(
                        c.iter().any(|&l| m.lit_value(l)),
                        "model violates clause {c:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn xor_chain_parity_unsat() {
        // Encode x1 ^ x2 = 1, x2 ^ x3 = 1, x1 ^ x3 = 1 (odd cycle): UNSAT.
        let mut s = solver_with_vars(3);
        let xor1 = |s: &mut Solver, a: i64, b: i64| {
            // a ^ b = 1  <=>  (a|b) & (!a|!b)
            s.add_clause([lit(a), lit(b)]);
            s.add_clause([lit(-a), lit(-b)]);
        };
        xor1(&mut s, 1, 2);
        xor1(&mut s, 2, 3);
        xor1(&mut s, 1, 3);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn clause_db_reduction_preserves_soundness() {
        // A formula hard enough to trigger reduce_db (php 8 into 7 learns
        // thousands of clauses), cross-checked for the UNSAT verdict.
        let mut s = pigeonhole(8, 7);
        // Force frequent reductions.
        s.set_max_learnts(50);
        assert!(s.solve().is_unsat());
        assert!(s.stats().deleted_clauses > 0, "reduce_db must have fired");
    }

    #[test]
    fn odd_cycle_coloring_is_unsat_even_cycle_sat() {
        // 2-coloring a cycle: SAT iff the cycle length is even.
        for &len in &[6usize, 7] {
            let mut s = solver_with_vars(len);
            for i in 0..len {
                let a = (i + 1) as i64;
                let b = ((i + 1) % len + 1) as i64;
                // adjacent vertices differ: (a|b) & (!a|!b)
                s.add_clause([lit(a), lit(b)]);
                s.add_clause([lit(-a), lit(-b)]);
            }
            assert_eq!(s.solve().is_sat(), len % 2 == 0, "cycle length {len}");
        }
    }

    #[test]
    fn solved_solver_accepts_more_vars_and_clauses() {
        let mut s = solver_with_vars(2);
        s.add_clause([lit(1), lit(2)]);
        assert!(s.solve().is_sat());
        let v = s.new_var();
        s.add_clause([Lit::negative(v)]);
        match s.solve() {
            SolveResult::Sat(m) => assert!(!m.value(v)),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn budget_then_unlimited_is_consistent() {
        // Unknown under a tiny budget must not corrupt state: the later
        // unlimited solve still returns the correct verdict.
        let mut budgeted = pigeonhole(6, 5);
        limit(
            &mut budgeted,
            Limits {
                conflicts_per_solve: Some(5),
                ..Limits::default()
            },
        );
        while budgeted.solve() == SolveResult::Unknown {
            // keep re-solving under the same tiny budget; learnt clauses
            // accumulate across calls, so this terminates
        }
        limit(&mut budgeted, Limits::default());
        assert!(budgeted.solve().is_unsat());
        let mut reference = pigeonhole(6, 5);
        assert!(reference.solve().is_unsat());
    }

    #[test]
    fn simplify_preserves_verdicts_and_prunes() {
        // SAT case with removable clauses. The unit is added *after* the
        // clauses (add_clause simplifies eagerly against existing level-0
        // facts, so the other order would never store them).
        let mut s = solver_with_vars(4);
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(-1), lit(3), lit(4)]); // loses the false -x1
        s.add_clause([lit(3), lit(-4)]);
        s.add_clause([lit(1)]); // unit: satisfies the first clause
        let before = s.num_clauses();
        s.preprocess();
        assert!(s.num_clauses() < before);
        match s.solve() {
            SolveResult::Sat(m) => {
                assert!(m.value(Var::from_index(0)));
                // x3 | x4 (shrunk) and x3 | !x4 must both hold.
                assert!(m.value(Var::from_index(2)) || m.value(Var::from_index(3)));
            }
            other => panic!("expected SAT, got {other:?}"),
        }

        // UNSAT case must stay UNSAT after preprocess.
        let mut s = pigeonhole(5, 4);
        s.add_clause([lit(1)]); // fix something so the root sweep has work
        s.preprocess();
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn simplify_then_incremental_solving_works() {
        let mut s = solver_with_vars(3);
        s.add_clause([lit(1), lit(2), lit(3)]);
        s.add_clause([lit(-1)]);
        s.preprocess();
        assert!(s.solve().is_sat());
        s.add_clause([lit(-2)]);
        s.preprocess();
        match s.solve() {
            SolveResult::Sat(m) => assert!(m.value(Var::from_index(2))),
            other => panic!("expected SAT, got {other:?}"),
        }
        s.add_clause([lit(-3)]);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn stats_accumulate() {
        let mut s = solver_with_vars(2);
        s.add_clause([lit(1), lit(2)]);
        let before = *s.stats();
        s.solve();
        let after = *s.stats();
        assert_eq!(after.since(&before).solves, 1);
        assert!(after.work() >= before.work());
    }

    #[test]
    fn gc_is_behavior_neutral_on_hard_unsat() {
        // Same instance, arena compaction after every deletion wave vs
        // never: every counter must match, proving collection only moves
        // memory. php(7,6) triggers reduce_db via the lowered cap.
        let run = |gc_fraction: f64| {
            let mut s = pigeonhole(7, 6);
            s.set_max_learnts(100);
            s.set_gc_fraction(gc_fraction);
            assert!(s.solve().is_unsat());
            *s.stats()
        };
        let eager = run(0.0);
        let never = run(2.0);
        assert_eq!(eager, never, "GC timing must not affect search behaviour");
        assert!(eager.deleted_clauses > 0, "reduce_db must have fired");
    }

    #[test]
    fn gc_is_behavior_neutral_on_sat_models() {
        // A satisfiable instance with enough conflicts to delete clauses:
        // the returned model must be bit-identical with and without GC.
        let build = || {
            let mut state = 0xD1CEu64;
            let mut next = move |bound: u64| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) % bound
            };
            let mut s = solver_with_vars(60);
            for _ in 0..240 {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let v = next(60) as i64 + 1;
                    c.push(lit(if next(2) == 0 { v } else { -v }));
                }
                s.add_clause(c);
            }
            s.set_max_learnts(20);
            s
        };
        let mut eager = build();
        eager.set_gc_fraction(0.0);
        let mut never = build();
        never.set_gc_fraction(2.0);
        let (r1, r2) = (eager.solve(), never.solve());
        assert_eq!(r1, r2, "verdict and model must not depend on GC timing");
        assert_eq!(eager.stats(), never.stats());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "model violates original clause")]
    fn corrupted_arena_trips_model_soundness_assert() {
        // Flipping a stored literal behind the solver's back makes the
        // search solve a different formula; the debug-build model check
        // against the original clause list must catch it.
        let mut s = solver_with_vars(2);
        s.add_clause([lit(1), lit(2)]);
        s.debug_corrupt_first_clause();
        let _ = s.solve();
    }

    #[test]
    fn logical_bytes_track_storage_and_peak() {
        let mut s = solver_with_vars(4);
        assert!(s.logical_bytes() > 0, "variables are accounted");
        let before = s.logical_bytes();
        s.add_clause([lit(1), lit(2), lit(3)]);
        assert!(s.logical_bytes() > before, "clauses are accounted");
        assert_eq!(s.peak_logical_bytes(), s.logical_bytes());
    }

    #[test]
    fn a_solve_stopped_at_entry_leaves_the_order_heap_unseeded() {
        let mut s = pigeonhole(7, 6);
        limit(&mut s, Limits::default().with_deadline(Duration::ZERO));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.stop(), Some(Stop::Deadline));
        assert!(s.order.is_empty(), "entry poll runs before O(vars) seeding");
        assert_eq!(s.stats().propagations, 0);
    }

    #[test]
    fn unknown_causes_are_reported() {
        let mut s = pigeonhole(7, 6);
        limit(
            &mut s,
            Limits {
                conflicts_per_solve: Some(10),
                ..Limits::default()
            },
        );
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.stop(), Some(Stop::Conflicts));
        limit(&mut s, Limits::default().with_deadline(Duration::ZERO));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.stop(), Some(Stop::Deadline));
        limit(&mut s, Limits::default());
        assert!(s.solve().is_unsat());
        assert_eq!(s.stop(), None, "a decided solve clears the cause");
    }

    #[test]
    fn tight_memory_budget_gives_up_before_any_search() {
        // A budget below the problem clauses themselves: the solve gives up
        // with the Memory cause before any search work.
        let mut s = pigeonhole(8, 7);
        let floor = s.logical_bytes();
        limit(
            &mut s,
            Limits {
                mem_budget: Some(floor / 2),
                ..Limits::default()
            },
        );
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.stop(), Some(Stop::Memory));
        assert_eq!(s.stats().propagations, 0);
        // Raising the budget lets the same solver finish.
        limit(&mut s, Limits::default());
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn memory_budget_verdict_is_deterministic() {
        let run = || {
            let mut s = pigeonhole(8, 7);
            let cap = s.logical_bytes() + 4096;
            limit(
                &mut s,
                Limits {
                    mem_budget: Some(cap),
                    ..Limits::default()
                },
            );
            let verdict = s.solve();
            (verdict, s.stop(), *s.stats())
        };
        let (v1, stop1, s1) = run();
        let (v2, stop2, s2) = run();
        assert_eq!((v1, stop1), (SolveResult::Unknown, Some(Stop::Memory)));
        assert_eq!((v2, stop2), (SolveResult::Unknown, Some(Stop::Memory)));
        assert_eq!(s1, s2, "logical-byte trips reproduce exactly");
        assert!(s1.conflicts > 0, "the trip came from learning");
    }

    #[test]
    fn generous_memory_budget_does_not_change_verdicts() {
        let mut capped = pigeonhole(6, 5);
        limit(
            &mut capped,
            Limits {
                mem_budget: Some(1 << 30),
                ..Limits::default()
            },
        );
        assert!(capped.solve().is_unsat());
        let mut free = pigeonhole(6, 5);
        assert!(free.solve().is_unsat());
        assert_eq!(
            capped.stats(),
            free.stats(),
            "an unhit budget must not perturb the search"
        );
    }

    #[test]
    fn deleted_watchers_are_dropped_lazily_and_by_gc() {
        // After reduce_db tombstones clauses, both the lazy watcher sweep
        // and an eager GC must leave the solver consistent.
        let mut s = pigeonhole(7, 6);
        s.set_max_learnts(50);
        s.set_gc_fraction(0.0);
        assert!(s.solve().is_unsat());
        assert!(s.stats().deleted_clauses > 0);
    }
}
