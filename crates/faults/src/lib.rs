//! Zero-dependency deterministic fault injection for the
//! attack→dataset→training pipeline.
//!
//! PRs 2–4 grew recovery paths — quarantine, retry escalation, torn-cache
//! downgrade, divergence guards — that real failures reach in timing- and
//! input-dependent ways ad-hoc tests cannot reproduce. This crate makes
//! every such path *systematically* reachable: instrumented code declares
//! named fault **sites** ([`inject`]), and a seeded, replayable
//! [`FaultPlan`] decides — as a pure function of (site pattern, occurrence
//! index, ambient context, seed) — whether a given visit to a site fires a
//! fault and which [`Action`] it takes.
//!
//! The design mirrors `crates/obs`:
//!
//! * **Zero cost when disarmed.** [`inject`] is a single relaxed atomic
//!   load when no plan is armed — cheap enough for solver-inner-loop call
//!   sites. The acceptance bar is that an unarmed binary behaves
//!   *identically* to one built before this crate existed.
//! * **Process-global, explicitly armed.** [`arm`] installs a plan (and an
//!   optional observer that e.g. emits `obs` events); [`disarm`] removes it
//!   and returns every fault that fired, for test assertions.
//! * **Deterministic.** Occurrence counters are kept per site name, and a
//!   thread can pin an ambient context index ([`context`], set by dataset
//!   workers to their instance index) so plans can target "instance 2's
//!   first solver call" regardless of worker count or scheduling.
//!
//! # Plan grammar
//!
//! A plan is parsed from a `;`-separated spec (the `--fault-plan` flag):
//!
//! ```text
//! SPEC   := item (';' item)*
//! item   := 'seed=' u64 | rule
//! rule   := pattern ':' action ('@' select)?
//! pattern: site name, '*' matches any substring (e.g. 'checkpoint.*')
//! action := panic | unknown | torn | short | io | die | nan
//! select := 'o' N        fire on the N-th visit only (default: o0)
//!         | 'o' N '+'    fire on every visit from the N-th on
//!         | 'c' N        fire on every visit with ambient context N
//!         | 'p' FLOAT    fire with probability FLOAT, seeded Bernoulli
//! ```
//!
//! Examples: `sat.solve:panic@o2`, `checkpoint.append:torn`,
//! `seed=42;sat.solve:unknown@p0.25`, `dataset.worker:die@c3`.
//!
//! Which actions a site supports is the site's decision; a plan that asks a
//! site for an action it cannot perform panics loudly at the call site
//! (see [`Fault::unsupported`]) rather than silently skipping.
//!
//! ```
//! faults::arm_str("demo.site:io@o1", None).unwrap();
//! assert!(faults::inject("demo.site").is_none(), "o1 skips the first visit");
//! let fault = faults::inject("demo.site").expect("second visit fires");
//! assert_eq!(fault.action, faults::Action::Io);
//! assert_eq!(fault.occurrence, 1);
//! let fired = faults::disarm();
//! assert_eq!(fired.len(), 1);
//! assert!(!faults::enabled());
//! ```

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

pub mod sealed;

/// 64-bit FNV-1a offset basis. Public because content keys and fingerprints
/// across the workspace hash with it, as [`sealed`] does every stored file.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// 64-bit FNV-1a over `bytes`, folded into `hash`. Each step is a bijection
/// on the 64-bit state, so any single-byte substitution changes the result.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// What an armed site is asked to do when its rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Panic at the site (isolated by the supervisor's `catch_unwind`).
    Panic,
    /// Return a spurious indeterminate result (`sat.solve` →
    /// `SolveResult::Unknown`).
    Unknown,
    /// Write roughly half the bytes, then fail — a crash mid-write.
    Torn,
    /// Write all but the final few bytes, then fail — a short write.
    Short,
    /// Fail the I/O operation without writing anything.
    Io,
    /// Kill the worker thread servicing the site (it quarantines its
    /// in-flight work and exits its loop).
    Die,
    /// Poison the next floating-point result with NaN.
    Nan,
}

impl Action {
    /// Stable lowercase tag (plan grammar and observer/event payloads).
    pub fn tag(&self) -> &'static str {
        match self {
            Action::Panic => "panic",
            Action::Unknown => "unknown",
            Action::Torn => "torn",
            Action::Short => "short",
            Action::Io => "io",
            Action::Die => "die",
            Action::Nan => "nan",
        }
    }

    /// Parses [`Action::tag`] output.
    pub fn from_tag(tag: &str) -> Option<Action> {
        match tag {
            "panic" => Some(Action::Panic),
            "unknown" => Some(Action::Unknown),
            "torn" => Some(Action::Torn),
            "short" => Some(Action::Short),
            "io" => Some(Action::Io),
            "die" => Some(Action::Die),
            "nan" => Some(Action::Nan),
            _ => None,
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// When a matching rule fires relative to the site's visit counter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Select {
    /// The N-th visit to the site only (0-based).
    Occurrence(u64),
    /// Every visit from the N-th on.
    From(u64),
    /// Every visit whose thread carries ambient [`context`] N.
    Context(u64),
    /// Seeded Bernoulli: fire with this probability, decided by hashing
    /// (seed, site, occurrence) — replayable, independent of scheduling.
    Probability(f64),
}

/// One `pattern:action@select` rule of a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Site pattern; `*` matches any (possibly empty) substring.
    pub pattern: String,
    /// What to do when the rule fires.
    pub action: Action,
    /// Which visits fire.
    pub select: Select,
}

/// A parsed, armable fault plan. See the module docs for the grammar.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for probabilistic selectors.
    pub seed: u64,
    /// Rules, checked in order; the first match wins.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Parses the `--fault-plan` spec grammar.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending item.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for item in spec.split(';') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            if let Some(seed) = item.strip_prefix("seed=") {
                plan.seed = seed
                    .parse()
                    .map_err(|_| format!("bad seed `{seed}` in `{item}`"))?;
                continue;
            }
            let (pattern, rest) = item
                .split_once(':')
                .ok_or_else(|| format!("rule `{item}` is not `pattern:action[@select]`"))?;
            let (action_str, select_str) = match rest.split_once('@') {
                Some((a, s)) => (a, Some(s)),
                None => (rest, None),
            };
            let action = Action::from_tag(action_str.trim())
                .ok_or_else(|| format!("unknown action `{action_str}` in `{item}`"))?;
            let select = match select_str.map(str::trim) {
                None => Select::Occurrence(0),
                Some(s) => parse_select(s).ok_or_else(|| {
                    format!("bad selector `{s}` in `{item}` (expected oN, oN+, cN, or pF)")
                })?,
            };
            if pattern.trim().is_empty() {
                return Err(format!("empty site pattern in `{item}`"));
            }
            plan.rules.push(FaultRule {
                pattern: pattern.trim().to_owned(),
                action,
                select,
            });
        }
        Ok(plan)
    }
}

fn parse_select(s: &str) -> Option<Select> {
    if let Some(num) = s.strip_prefix('o') {
        return if let Some(from) = num.strip_suffix('+') {
            from.parse().ok().map(Select::From)
        } else {
            num.parse().ok().map(Select::Occurrence)
        };
    }
    if let Some(num) = s.strip_prefix('c') {
        return num.parse().ok().map(Select::Context);
    }
    if let Some(p) = s.strip_prefix('p') {
        let p: f64 = p.parse().ok()?;
        return (0.0..=1.0).contains(&p).then_some(Select::Probability(p));
    }
    None
}

/// `*`-glob match: `*` matches any (possibly empty) substring.
fn pattern_matches(pattern: &str, site: &str) -> bool {
    let mut parts = pattern.split('*');
    let first = parts.next().unwrap_or("");
    if !site.starts_with(first) {
        return false;
    }
    let mut rest = &site[first.len()..];
    let mut segments: Vec<&str> = parts.collect();
    let last = segments.pop();
    for seg in segments {
        match rest.find(seg) {
            Some(i) => rest = &rest[i + seg.len()..],
            None => return false,
        }
    }
    match last {
        // The pattern did not contain '*': everything must have matched.
        None => rest.is_empty(),
        Some(last) => rest.ends_with(last),
    }
}

/// One fault a site has been asked to perform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// What to do.
    pub action: Action,
    /// 0-based visit index at which the site fired.
    pub occurrence: u64,
}

impl Fault {
    /// Loud failure for a plan that asks a site for an action the site
    /// cannot perform — a broken plan must be fixed, not silently skipped.
    pub fn unsupported(&self, site: &str) -> ! {
        panic!(
            "fault plan error: site `{site}` does not support action `{}`",
            self.action
        )
    }
}

/// One fired fault, as reported by [`fired`] / [`disarm`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiredFault {
    /// The site that fired.
    pub site: String,
    /// The action it performed.
    pub action: Action,
    /// 0-based visit index at which it fired.
    pub occurrence: u64,
}

/// Callback invoked (outside the injection lock) for every fired fault —
/// the bench binaries install one that emits an `obs` event. A plain `fn`
/// pointer so this crate stays dependency-free.
pub type Observer = fn(site: &str, action: &'static str, occurrence: u64);

/// Arming switch. Relaxed is enough: the flag only transitions inside
/// [`arm`]/[`disarm`], which fully synchronise via `STATE`.
static ARMED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<PlanState>> = Mutex::new(None);

struct PlanState {
    plan: FaultPlan,
    observer: Option<Observer>,
    counters: HashMap<String, u64>,
    fired: Vec<FiredFault>,
}

thread_local! {
    /// Ambient context index (dataset workers: the instance index).
    static CTX: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Is a fault plan currently armed? A single relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Guard that attaches an ambient context index to this thread's visits
/// while it is alive. Nests: dropping restores the previous context.
pub struct ContextGuard {
    prev: Option<u64>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CTX.with(|c| c.set(self.prev));
    }
}

/// Attach `index` as this thread's ambient context (see [`Select::Context`]).
pub fn context(index: u64) -> ContextGuard {
    let prev = CTX.with(|c| c.replace(Some(index)));
    ContextGuard { prev }
}

/// Visit the named fault site. Returns `None` (after one relaxed atomic
/// load) when no plan is armed or no rule fires for this visit; returns the
/// [`Fault`] to perform otherwise. Every armed visit advances the site's
/// occurrence counter, fired or not.
pub fn inject(site: &str) -> Option<Fault> {
    if !enabled() {
        return None;
    }
    let ctx = CTX.with(Cell::get);
    let mut notify: Option<(Observer, Fault)> = None;
    let fault = {
        let mut state = STATE.lock().unwrap_or_else(|e| e.into_inner());
        let state = state.as_mut()?;
        let counter = state.counters.entry(site.to_owned()).or_insert(0);
        let occurrence = *counter;
        *counter += 1;
        let seed = state.plan.seed;
        let rule = state.plan.rules.iter().find(|rule| {
            pattern_matches(&rule.pattern, site)
                && match rule.select {
                    Select::Occurrence(n) => occurrence == n,
                    Select::From(n) => occurrence >= n,
                    Select::Context(n) => ctx == Some(n),
                    Select::Probability(p) => bernoulli(seed, site, occurrence) < p,
                }
        })?;
        let fault = Fault {
            action: rule.action,
            occurrence,
        };
        state.fired.push(FiredFault {
            site: site.to_owned(),
            action: fault.action,
            occurrence,
        });
        if let Some(observer) = state.observer {
            notify = Some((observer, fault.clone()));
        }
        Some(fault)
    };
    if let Some((observer, fault)) = notify {
        observer(site, fault.action.tag(), fault.occurrence);
    }
    fault
}

/// Replayable Bernoulli draw in `[0, 1)` for (seed, site, occurrence).
fn bernoulli(seed: u64, site: &str, occurrence: u64) -> f64 {
    let mut h = fnv1a(FNV_OFFSET, &seed.to_le_bytes());
    h = fnv1a(h, site.as_bytes());
    h = fnv1a(h, &occurrence.to_le_bytes());
    // Top 53 bits → uniform double in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Arms `plan` process-wide, resetting occurrence counters and the fired
/// log. `observer` (if any) is invoked for every fired fault.
pub fn arm(plan: FaultPlan, observer: Option<Observer>) {
    let mut state = STATE.lock().unwrap_or_else(|e| e.into_inner());
    *state = Some(PlanState {
        plan,
        observer,
        counters: HashMap::new(),
        fired: Vec::new(),
    });
    ARMED.store(true, Ordering::Relaxed);
}

/// Parses `spec` (see the module docs) and [`arm`]s it.
///
/// # Errors
///
/// Returns the parse error message; nothing is armed on error.
pub fn arm_str(spec: &str, observer: Option<Observer>) -> Result<(), String> {
    let plan = FaultPlan::parse(spec)?;
    arm(plan, observer);
    Ok(())
}

/// Disarms the current plan (no-op when none is armed) and returns every
/// fault that fired while it was armed, in firing order.
pub fn disarm() -> Vec<FiredFault> {
    let mut state = STATE.lock().unwrap_or_else(|e| e.into_inner());
    ARMED.store(false, Ordering::Relaxed);
    state.take().map(|s| s.fired).unwrap_or_default()
}

/// Snapshot of the faults fired so far under the armed plan (empty when
/// none is armed).
pub fn fired() -> Vec<FiredFault> {
    let state = STATE.lock().unwrap_or_else(|e| e.into_inner());
    state.as_ref().map(|s| s.fired.clone()).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plan is process-global; serialise tests that arm it.
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            disarm();
        }
    }

    #[test]
    fn disarmed_inject_is_a_noop() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        disarm();
        assert!(!enabled());
        assert!(inject("any.site").is_none());
        assert!(fired().is_empty());
    }

    #[test]
    fn parse_full_grammar() {
        let plan = FaultPlan::parse("seed=9; sat.solve:panic@o2 ;checkpoint.*:torn;x:die@c3")
            .expect("valid spec");
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.rules.len(), 3);
        assert_eq!(plan.rules[0].pattern, "sat.solve");
        assert_eq!(plan.rules[0].action, Action::Panic);
        assert_eq!(plan.rules[0].select, Select::Occurrence(2));
        assert_eq!(plan.rules[1].select, Select::Occurrence(0), "default is o0");
        assert_eq!(plan.rules[2].select, Select::Context(3));
        let plan = FaultPlan::parse("a:io@o5+;b:nan@p0.5").unwrap();
        assert_eq!(plan.rules[0].select, Select::From(5));
        assert_eq!(plan.rules[1].select, Select::Probability(0.5));
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "nocolon",
            "a:explode",
            "a:panic@z3",
            "a:panic@p1.5",
            ":panic",
            "seed=abc",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn glob_patterns_match_substrings() {
        assert!(pattern_matches("sat.solve", "sat.solve"));
        assert!(!pattern_matches("sat.solve", "sat.solver"));
        assert!(pattern_matches("checkpoint.*", "checkpoint.append"));
        assert!(pattern_matches("*", "anything"));
        assert!(pattern_matches("*.write", "cache.write"));
        assert!(pattern_matches("a*c*e", "abcde"));
        assert!(!pattern_matches("a*z", "abcde"));
    }

    #[test]
    fn occurrence_selectors_fire_deterministically() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _cleanup = Disarm;
        arm_str("s:io@o1;t:nan@o1+", None).unwrap();
        assert!(enabled());
        assert!(inject("s").is_none());
        let f = inject("s").expect("second visit fires");
        assert_eq!((f.action, f.occurrence), (Action::Io, 1));
        assert!(inject("s").is_none(), "oN fires exactly once");
        assert!(inject("t").is_none());
        assert!(inject("t").is_some());
        assert!(inject("t").is_some(), "oN+ keeps firing");
        assert_eq!(
            disarm()
                .iter()
                .map(|f| (f.site.as_str(), f.occurrence))
                .collect::<Vec<_>>(),
            vec![("s", 1), ("t", 1), ("t", 2)]
        );
        assert!(!enabled());
    }

    #[test]
    fn context_selector_targets_one_instance() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _cleanup = Disarm;
        arm_str("w:die@c2", None).unwrap();
        assert!(inject("w").is_none(), "no ambient context");
        {
            let _ctx = context(1);
            assert!(inject("w").is_none());
            {
                let _inner = context(2);
                assert!(inject("w").is_some());
            }
            assert!(inject("w").is_none(), "outer context restored");
        }
    }

    #[test]
    fn probability_selector_is_replayable_and_roughly_calibrated() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _cleanup = Disarm;
        let run = || {
            arm_str("p.site:panic@p0.3;seed=7", None).unwrap();
            let fires: Vec<bool> = (0..200).map(|_| inject("p.site").is_some()).collect();
            disarm();
            fires
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same decisions");
        let count = a.iter().filter(|&&f| f).count();
        assert!((30..90).contains(&count), "p0.3 of 200 fired {count} times");
        arm_str("p.site:panic@p0.3;seed=8", None).unwrap();
        let c: Vec<bool> = (0..200).map(|_| inject("p.site").is_some()).collect();
        assert_ne!(a, c, "different seed, different decisions");
    }

    #[test]
    fn first_matching_rule_wins() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _cleanup = Disarm;
        arm_str("x.y:io@o0+;x.*:panic@o0+", None).unwrap();
        assert_eq!(inject("x.y").unwrap().action, Action::Io);
        assert_eq!(inject("x.z").unwrap().action, Action::Panic);
    }

    #[test]
    fn observer_sees_every_fired_fault() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _cleanup = Disarm;
        static SEEN: Mutex<Vec<(String, &'static str, u64)>> = Mutex::new(Vec::new());
        fn observe(site: &str, action: &'static str, occurrence: u64) {
            SEEN.lock().unwrap().push((site.into(), action, occurrence));
        }
        SEEN.lock().unwrap().clear();
        arm_str("ob:torn@o1", Some(observe)).unwrap();
        inject("ob");
        inject("ob");
        assert_eq!(*SEEN.lock().unwrap(), vec![("ob".to_owned(), "torn", 1)]);
    }

    #[test]
    fn action_tags_round_trip() {
        for action in [
            Action::Panic,
            Action::Unknown,
            Action::Torn,
            Action::Short,
            Action::Io,
            Action::Die,
            Action::Nan,
        ] {
            assert_eq!(Action::from_tag(action.tag()), Some(action));
        }
        assert_eq!(Action::from_tag("nonsense"), None);
    }

    #[test]
    fn fnv_detects_single_byte_substitutions() {
        let a = fnv1a(FNV_OFFSET, b"hello world");
        let b = fnv1a(FNV_OFFSET, b"hellp world");
        assert_ne!(a, b);
        assert_eq!(a, fnv1a(FNV_OFFSET, b"hello world"));
    }
}
