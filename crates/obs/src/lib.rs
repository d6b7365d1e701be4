//! Zero-dependency structured observability for the attack→dataset→training
//! pipeline.
//!
//! The paper's headline deployment claim is an observability claim — ICNet
//! inference costs ~1.13 s against up to 2411 s of solver time — so the
//! pipeline needs per-stage visibility to substantiate it. This crate is a
//! process-global event sink:
//!
//! * Instrumented code calls [`emit`] with a typed [`EventKind`]. When the
//!   sink is disabled (the default) this is a single relaxed atomic load —
//!   cheap enough for solver-inner-loop call sites.
//! * When enabled via [`init`], events are timestamped against a monotonic
//!   process epoch and pushed into a per-thread buffer (one short mutex, no
//!   contention between worker threads).
//! * [`finish`] drains every buffer, merges events in deterministic order
//!   (stable sort by timestamp, ties broken by thread id and emission order),
//!   writes the optional JSONL trace, and returns an aggregated [`Summary`].
//!
//! The sink is **observation-only**: instrumented code only *reads* program
//! state (counters, sizes, clocks) when emitting, so enabling tracing cannot
//! perturb labels, datasets, or trained parameters. The integration test
//! `integration_observability` in the bench crate asserts this end to end.
//!
//! ```
//! let dir = std::env::temp_dir().join("obs-doc-example");
//! std::fs::create_dir_all(&dir).unwrap();
//! let trace = dir.join("trace.jsonl");
//! obs::init(obs::ObsConfig {
//!     trace: Some(trace.display().to_string()),
//!     progress: false,
//! });
//! let timer = obs::stage("doc-example");
//! drop(timer); // emits a `stage` event with the elapsed wall time
//! let summary = obs::finish().unwrap();
//! assert_eq!(summary.events, 1);
//! ```

mod event;
mod summary;

pub use event::{check_line, fmt_wall, Event, EventKind, TraceLine, Value, SCHEMA};
pub use summary::{StageRow, Summary};

use std::cell::{Cell, OnceCell};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Sink configuration for [`init`].
#[derive(Debug, Clone, Default)]
pub struct ObsConfig {
    /// Write the merged event stream as JSON Lines to this path on [`finish`].
    pub trace: Option<String>,
    /// Echo coarse events (instances, cells, stages…) to stderr as they happen.
    pub progress: bool,
}

/// Collection switch. Relaxed is enough: emission is advisory and the flag
/// only transitions on `init`/`finish`, which fully synchronise via `STATE`.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Live progress echo switch (subset of ENABLED).
static PROGRESS: AtomicBool = AtomicBool::new(false);
/// Monotonic zero point for all timestamps, fixed at first `init`.
static EPOCH: OnceLock<Instant> = OnceLock::new();
/// Registry of every thread buffer ever created. Entries are never removed
/// (thread-locals keep pointing at them across `finish`/`init` cycles); only
/// their contents are drained or cleared.
static REGISTRY: Mutex<Vec<Arc<ThreadBuf>>> = Mutex::new(Vec::new());
/// Active sink configuration; `None` when the sink was never initialised or
/// has been finished.
static STATE: Mutex<Option<ObsConfig>> = Mutex::new(None);
/// Serialises progress lines from concurrent workers.
static PROGRESS_LOCK: Mutex<()> = Mutex::new(());

struct ThreadBuf {
    id: u32,
    events: Mutex<Vec<Event>>,
}

thread_local! {
    /// This thread's buffer, registered on first use and reused forever.
    static BUF: OnceCell<Arc<ThreadBuf>> = const { OnceCell::new() };
    /// Ambient instance index attached to every event this thread emits.
    static CTX: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Is the sink currently collecting? A single relaxed atomic load, suitable
/// for guarding instrumentation in hot loops.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Record one event. No-op (one atomic load) when the sink is disabled.
pub fn emit(kind: EventKind) {
    if !enabled() {
        return;
    }
    let ts_ns = EPOCH
        .get()
        .map(|epoch| epoch.elapsed().as_nanos() as u64)
        .unwrap_or(0);
    if PROGRESS.load(Ordering::Relaxed) {
        if let Some(line) = kind.progress_line() {
            let guard = PROGRESS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            eprintln!("\u{b7} {line}");
            drop(guard);
        }
    }
    let ctx = CTX.with(Cell::get);
    BUF.with(|cell| {
        let buf = cell.get_or_init(|| {
            let mut registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
            let entry = Arc::new(ThreadBuf {
                id: registry.len() as u32,
                events: Mutex::new(Vec::new()),
            });
            registry.push(Arc::clone(&entry));
            entry
        });
        let mut events = buf.events.lock().unwrap_or_else(|e| e.into_inner());
        events.push(Event {
            ts_ns,
            thread: buf.id,
            ctx,
            kind,
        });
    });
}

/// Guard that attaches an instance index to every event emitted by this
/// thread while it is alive. Nests: dropping restores the previous context.
pub struct ContextGuard {
    prev: Option<u64>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CTX.with(|c| c.set(self.prev));
    }
}

/// Attach `instance` as the ambient context for this thread.
pub fn context(instance: u64) -> ContextGuard {
    let prev = CTX.with(|c| c.replace(Some(instance)));
    ContextGuard { prev }
}

/// RAII wall-clock timer: emits a [`EventKind::StageFinished`] on drop.
pub struct StageTimer {
    name: String,
    started: Instant,
}

impl Drop for StageTimer {
    fn drop(&mut self) {
        emit(EventKind::StageFinished {
            stage: std::mem::take(&mut self.name),
            wall_ns: self.started.elapsed().as_nanos() as u64,
        });
    }
}

/// Start a named coarse stage; the elapsed wall time is recorded when the
/// returned timer drops.
pub fn stage(name: &str) -> StageTimer {
    StageTimer {
        name: name.to_string(),
        started: Instant::now(),
    }
}

/// Start collecting events. Clears any events left over from a previous
/// collection window in this process. Idempotent with respect to the
/// timestamp epoch: the zero point is fixed at the first `init` ever.
pub fn init(config: ObsConfig) {
    let mut state = STATE.lock().unwrap_or_else(|e| e.into_inner());
    EPOCH.get_or_init(Instant::now);
    for buf in REGISTRY.lock().unwrap_or_else(|e| e.into_inner()).iter() {
        buf.events.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
    PROGRESS.store(config.progress, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    *state = Some(config);
}

/// Stop collecting, merge all thread buffers in deterministic order, write
/// the JSONL trace if one was configured, and return the profile. Returns
/// `None` if the sink was never initialised (or already finished).
pub fn finish() -> Option<Summary> {
    let mut state = STATE.lock().unwrap_or_else(|e| e.into_inner());
    let config = state.take()?;
    ENABLED.store(false, Ordering::Relaxed);
    PROGRESS.store(false, Ordering::Relaxed);

    // Deterministic merge: concatenate buffers in registration order (each
    // buffer is already in emission order with nondecreasing timestamps),
    // then stable-sort by timestamp so ties keep the (thread id, emission
    // order) tie-break.
    let mut events: Vec<Event> = Vec::new();
    for buf in REGISTRY.lock().unwrap_or_else(|e| e.into_inner()).iter() {
        events.append(&mut buf.events.lock().unwrap_or_else(|e| e.into_inner()));
    }
    events.sort_by_key(|ev| ev.ts_ns);

    let mut summary = Summary::from_events(&events);
    if let Some(path) = &config.trace {
        summary.trace_path = Some(path.clone());
        summary.trace_error = write_trace(path, &events).err().map(|e| e.to_string());
    }
    Some(summary)
}

fn write_trace(path: &str, events: &[Event]) -> std::io::Result<()> {
    // Trace emission failures must never take the run down, so the injected
    // error here only surfaces through `Summary::trace_error`.
    let injected = faults::inject("obs.trace.write");
    if let Some(fault) = &injected {
        match fault.action {
            faults::Action::Io => {
                return Err(std::io::Error::other(format!(
                    "injected fault: obs.trace.write io (occurrence {})",
                    fault.occurrence
                )));
            }
            faults::Action::Torn => {}
            _ => fault.unsupported("obs.trace.write"),
        }
    }
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let file = std::fs::File::create(path)?;
    let mut writer = std::io::BufWriter::new(file);
    for (i, ev) in events.iter().enumerate() {
        if let Some(fault) = &injected {
            // A torn trace: half the events reach disk, then the writer dies.
            if fault.action == faults::Action::Torn && i >= events.len() / 2 {
                writer.flush()?;
                return Err(std::io::Error::other(format!(
                    "injected fault: obs.trace.write torn after {i} events \
                     (occurrence {})",
                    fault.occurrence
                )));
            }
        }
        writer.write_all(ev.to_json().as_bytes())?;
        writer.write_all(b"\n")?;
    }
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sink is process-global; serialise tests that toggle it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn emit_without_init_is_a_noop_and_finish_returns_none() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!enabled());
        emit(EventKind::StageFinished {
            stage: "ignored".into(),
            wall_ns: 1,
        });
        assert!(finish().is_none());
    }

    #[test]
    fn collect_merge_and_trace_roundtrip() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join("obs-unit-test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.jsonl").display().to_string();

        init(ObsConfig {
            trace: Some(trace.clone()),
            progress: false,
        });
        assert!(enabled());
        {
            let _ctx = context(3);
            emit(EventKind::InstanceStarted {
                index: 3,
                worker: 0,
            });
            {
                let _inner = context(4);
                emit(EventKind::InstanceStarted {
                    index: 4,
                    worker: 0,
                });
            }
            emit(EventKind::InstanceFinished {
                index: 3,
                worker: 0,
                reused: false,
                wall_ns: 10,
                work: 20,
            });
        }
        let handle = std::thread::spawn(|| {
            emit(EventKind::StageFinished {
                stage: "worker-stage".into(),
                wall_ns: 7,
            });
        });
        handle.join().unwrap();

        let summary = finish().expect("sink was initialised");
        assert!(!enabled());
        assert_eq!(summary.events, 4);
        assert!(summary.threads >= 2);
        assert!(summary.trace_error.is_none(), "{:?}", summary.trace_error);

        let text = std::fs::read_to_string(&trace).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        // Every line matches the schema; timestamps are monotone.
        let ts: Vec<u64> = lines.iter().map(|l| check_line(l).unwrap().ts).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
        // Context guard nesting: start(3) has ctx 3, start(4) has ctx 4,
        // finish(3) back to ctx 3.
        assert_eq!(
            text.matches("\"ctx\":3").count(),
            2,
            "outer context restored after nested guard"
        );
        assert_eq!(text.matches("\"ctx\":4").count(), 1);
        assert!(text.contains("\"kind\":\"stage\""));

        // Re-init clears the previous window.
        init(ObsConfig::default());
        emit(EventKind::StageFinished {
            stage: "second-window".into(),
            wall_ns: 1,
        });
        let summary = finish().unwrap();
        assert_eq!(summary.events, 1);
        assert_eq!(summary.stages[0].name, "second-window");
    }
}
