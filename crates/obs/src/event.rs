//! Typed observability events, their JSONL serialization, and the reader
//! that checks a trace line (a flat JSON object of scalars) against the
//! declared schema. Every line's envelope carries a monotonic timestamp
//! (nanoseconds since `obs::init`), the id of the emitting thread, and the
//! instance index from the ambient [`crate::context`] guard if one was
//! active. Serialization is hand-rolled so the crate stays free of external
//! dependencies; non-finite floats are written as `null` because JSON has no
//! NaN/Inf literals.

use std::fmt::Write as _;

/// One recorded event: envelope plus payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Nanoseconds since the sink was initialised (monotonic clock).
    pub ts_ns: u64,
    /// Registration id of the emitting thread (dense, starts at 0).
    pub thread: u32,
    /// Instance index from the ambient context guard, if any.
    pub ctx: Option<u64>,
    /// The typed payload.
    pub kind: EventKind,
}

/// One payload value, as [`EventKind::fields`] lists it for the writer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value<'a> {
    U64(u64),
    /// Written as `null` when non-finite.
    F64(f64),
    Bool(bool),
    Str(&'a str),
}

/// `Value::from(&field)` for each payload field type the event table uses.
macro_rules! value_from {
    ($($ty:ty => |$v:ident| $value:expr,)*) => {$(
        impl<'a> From<&'a $ty> for Value<'a> {
            fn from($v: &'a $ty) -> Self {
                $value
            }
        }
    )*};
}

value_from! {
    u64 => |v| Value::U64(*v),
    f64 => |v| Value::F64(*v),
    bool => |v| Value::Bool(*v),
    &'static str => |v| Value::Str(v),
    String => |v| Value::Str(v),
}

/// Expands the event table below into [`EventKind`], [`EventKind::tag`],
/// [`EventKind::fields`] and [`SCHEMA`].
macro_rules! declare_events {
    ($(
        $(#[$meta:meta])*
        $variant:ident = $tag:literal {
            $( $(#[$field_meta:meta])* $field:ident: $ty:ty ),* $(,)?
        }
    )*) => {
        /// The typed event payloads emitted across the pipeline.
        #[derive(Debug, Clone, PartialEq)]
        pub enum EventKind {
            $( $(#[$meta])* $variant { $( $(#[$field_meta])* $field: $ty, )* }, )*
        }

        /// Every declared kind: its `kind` tag and its payload keys in
        /// trace order.
        pub const SCHEMA: &[(&str, &[&str])] = &[
            $( ($tag, &[$(stringify!($field)),*]), )*
        ];

        impl EventKind {
            /// Stable machine-readable tag written to the `kind` JSON field.
            pub fn tag(&self) -> &'static str {
                match self {
                    $( EventKind::$variant { .. } => $tag, )*
                }
            }

            /// The payload as `(key, value)` pairs in trace order.
            pub fn fields(&self) -> Vec<(&'static str, Value<'_>)> {
                match self {
                    $( EventKind::$variant { $($field),* } => {
                        vec![$( (stringify!($field), Value::from($field)) ),*]
                    } )*
                }
            }
        }
    };
}

// The one declaration of every event kind: variant, `kind` tag, and payload
// fields in trace order (each field name is its JSON key). Adding a kind is
// one entry here, plus a `progress_line` arm if it should show under
// `--progress`. Trace keys are read by `perfbench` (`wall_ns`, `wait_ns`,
// `infer_ns`, `outcome`), so renaming one is a benchmark change.
declare_events! {
    /// Periodic `sat::Solver` counter snapshot (also emitted once per solve).
    SolverProgress = "solver.progress" {
        decisions: u64, propagations: u64, conflicts: u64, restarts: u64,
        /// Live learnt clauses (learnt minus deleted).
        learnt_live: u64,
    }
    /// One DIP iteration of the oracle-guided attack.
    AttackIteration = "attack.iteration" {
        iteration: u64,
        /// Solver work spent on this iteration's distinguishing query.
        query_work: u64,
        /// Cumulative solver work across the attack so far.
        total_work: u64,
        /// Miter size when the iteration finished (vars / clause slots):
        /// the miter plus every DIP constraint so far, each adding only its
        /// key-dependent gates.
        miter_vars: u64, miter_clauses: u64,
        wall_ns: u64,
    }
    /// A sweep worker picked up an instance.
    InstanceStarted = "dataset.instance.start" { index: u64, worker: u64 }
    /// A sweep worker finished an instance (freshly attacked or reused).
    InstanceFinished = "dataset.instance.finish" {
        index: u64, worker: u64, reused: bool, wall_ns: u64,
        /// Deterministic solver work recorded in the instance label.
        work: u64,
    }
    /// A supervised attempt failed and will be retried.
    InstanceRetry = "dataset.instance.retry" {
        index: u64,
        /// 1-based attempt number that is about to run.
        attempt: u64,
        reason: &'static str,
    }
    /// An instance exhausted its retry budget and was quarantined.
    InstanceQuarantined = "dataset.instance.quarantine" {
        index: u64,
        /// Failure kind tag, e.g. `"timeout"` or `"memory"`.
        failure: &'static str,
        attempts: u64,
        /// True when the quarantine record was replayed from a checkpoint.
        reused: bool,
    }
    /// One training epoch completed.
    TrainEpoch = "train.epoch" { epoch: u64, loss: f64, grad_norm: f64, wall_ns: u64 }
    /// A cell of the Table I/II evaluation grid started.
    CellStarted = "bench.cell.start" { label: String }
    /// A cell of the Table I/II evaluation grid finished.
    CellFinished = "bench.cell.finish" { label: String, wall_ns: u64 }
    /// Dataset cache probe outcome in `bench::harness`.
    Cache = "bench.cache" { hit: bool, path: String }
    /// A training epoch checkpoint was durably written.
    TrainCheckpointSaved = "train.checkpoint" { epoch: u64 }
    /// An armed fault plan fired at a named site.
    FaultInjected = "fault.injected" { site: String, action: &'static str, occurrence: u64 }
    /// A named coarse stage (RAII timer) finished.
    StageFinished = "stage" { stage: String, wall_ns: u64 }
    /// Peak logical bytes observed for one metered scope (an attack's
    /// solver, a training run's tape buffers, a serve request's inference).
    /// Logical bytes are bytes *requested*, not allocator overhead, so the
    /// value is deterministic and machine-independent (see `budget`).
    MemHighwater = "mem.highwater" {
        /// What was metered: `"attack"`, `"train"`, `"serve"`, ...
        scope: &'static str,
        /// Peak logical bytes over the scope's lifetime.
        bytes: u64,
    }
    /// One request handled (or shed) by the prediction service.
    ServeRequest = "serve.request" {
        /// Connection sequence number assigned at accept time.
        seq: u64,
        /// Admission-queue depth observed when the outcome was recorded.
        queue_depth: u64,
        /// Time spent queued before a worker picked the request up.
        wait_ns: u64,
        /// Wall time of the inference pipeline (zero for shed requests).
        infer_ns: u64,
        /// Total request wall time (queue wait + inference + reply).
        wall_ns: u64,
        /// Outcome tag: `"ok"` or a `serve::ErrorCode` tag such as
        /// `"overloaded"` / `"deadline_exceeded"`.
        outcome: &'static str,
    }
}

impl EventKind {
    /// Human-readable one-liner for the live progress sink, or `None` for
    /// high-frequency kinds that would flood a terminal.
    pub fn progress_line(&self) -> Option<String> {
        match self {
            EventKind::InstanceStarted { index, worker } => {
                Some(format!("instance {index} started (worker {worker})"))
            }
            EventKind::InstanceFinished {
                index,
                worker,
                reused,
                wall_ns,
                work,
            } => Some(format!(
                "instance {index} {} in {} (worker {worker}, work {work})",
                if *reused { "reused" } else { "done" },
                fmt_wall(*wall_ns),
            )),
            EventKind::InstanceRetry {
                index,
                attempt,
                reason,
            } => Some(format!("instance {index} retry #{attempt} after {reason}")),
            EventKind::InstanceQuarantined {
                index,
                failure,
                attempts,
                reused,
            } => Some(format!(
                "instance {index} quarantined ({failure}, {attempts} attempts{})",
                if *reused { ", replayed" } else { "" },
            )),
            EventKind::TrainEpoch {
                epoch,
                loss,
                grad_norm,
                ..
            } if epoch % 50 == 0 => Some(format!(
                "epoch {epoch}: loss {loss:.6}, |grad| {grad_norm:.4}"
            )),
            EventKind::CellStarted { label } => Some(format!("cell {label} started")),
            EventKind::CellFinished { label, wall_ns } => {
                Some(format!("cell {label} finished in {}", fmt_wall(*wall_ns)))
            }
            EventKind::Cache { hit, path } => Some(format!(
                "dataset cache {}: {path}",
                if *hit { "hit" } else { "miss" },
            )),
            EventKind::FaultInjected {
                site,
                action,
                occurrence,
            } => Some(format!(
                "fault injected at {site}: {action} (occurrence {occurrence})"
            )),
            EventKind::StageFinished { stage, wall_ns } => {
                Some(format!("stage {stage} finished in {}", fmt_wall(*wall_ns)))
            }
            // Successful predictions are the hot path and would flood the
            // terminal; degraded outcomes are rare and worth a line each.
            EventKind::ServeRequest {
                seq,
                queue_depth,
                outcome,
                ..
            } if *outcome != "ok" => Some(format!(
                "request {seq} -> {outcome} (queue depth {queue_depth})"
            )),
            _ => None,
        }
    }
}

impl Event {
    /// Serialize as one JSON object (no trailing newline): the envelope
    /// `ts, thread, [ctx], kind`, then the payload fields in declared order.
    pub fn to_json(&self) -> String {
        let envelope = [
            ("ts", Value::U64(self.ts_ns)),
            ("thread", Value::U64(u64::from(self.thread))),
        ]
        .into_iter()
        .chain(self.ctx.map(|ctx| ("ctx", Value::U64(ctx))))
        .chain([("kind", Value::Str(self.kind.tag()))]);
        let mut out = String::with_capacity(128);
        for (i, (key, value)) in envelope.chain(self.kind.fields()).enumerate() {
            out.push(if i == 0 { '{' } else { ',' });
            push_str(&mut out, key);
            out.push(':');
            match value {
                // `Display` is the shortest representation that round-trips;
                // bare integers like `3` are valid JSON numbers.
                Value::U64(v) => write!(out, "{v}").unwrap(),
                Value::F64(v) if v.is_finite() => write!(out, "{v}").unwrap(),
                Value::F64(_) => out.push_str("null"),
                Value::Bool(b) => out.push_str(if b { "true" } else { "false" }),
                Value::Str(s) => push_str(&mut out, s),
            }
        }
        out.push('}');
        out
    }
}

fn push_str(out: &mut String, value: &str) {
    out.push('"');
    for ch in value.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One trace line read back by [`check_line`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceLine<'a> {
    pub ts: u64,
    /// The declared `kind` tag.
    pub kind: &'static str,
    /// Every key with its raw JSON value, envelope included, in line order.
    pub fields: Vec<(&'a str, &'a str)>,
}

/// Read back one line written by [`Event::to_json`] and check its shape: a
/// flat JSON object of scalars whose envelope is `ts, thread, [ctx], kind`,
/// whose tag is declared in [`SCHEMA`], and whose payload keys are exactly
/// that kind's declared fields, in order.
pub fn check_line(line: &str) -> Result<TraceLine<'_>, String> {
    let fields = split_object(line)?;
    let keys: Vec<&str> = fields.iter().map(|(key, _)| *key).collect();
    let ([("ts", ts), ("thread", _), ("ctx", _), ("kind", tag), payload @ ..]
    | [("ts", ts), ("thread", _), ("kind", tag), payload @ ..]) = fields.as_slice()
    else {
        return Err(format!("envelope {keys:?} is not ts, thread, [ctx], kind"));
    };
    let ts = ts
        .parse()
        .map_err(|_| format!("'ts' must be a nonnegative integer, got {ts}"))?;
    let tag = tag.trim_matches('"');
    let (kind, declared) = SCHEMA
        .iter()
        .find(|(declared, _)| *declared == tag)
        .ok_or_else(|| format!("undeclared kind {tag:?}"))?;
    let payload = &keys[keys.len() - payload.len()..];
    if payload != *declared {
        return Err(format!(
            "{kind} payload keys {payload:?} differ from the declared {declared:?}"
        ));
    }
    Ok(TraceLine { ts, kind, fields })
}

/// Split a flat JSON object, written without whitespace as the writer emits
/// it, into `(key, raw value)` pairs, checking that every value is a scalar.
fn split_object(line: &str) -> Result<Vec<(&str, &str)>, String> {
    let mut rest = line.strip_prefix('{').ok_or("not a JSON object line")?;
    let mut fields = Vec::new();
    loop {
        let key = string_literal(rest)?;
        rest = rest[key.len()..].strip_prefix(':').ok_or("expected ':'")?;
        let value = if rest.starts_with('"') {
            string_literal(rest)?
        } else {
            let raw = &rest[..rest.find([',', '}']).unwrap_or(rest.len())];
            // `ends_with` a digit rules out `inf`/`NaN`, which `parse` accepts.
            let number = raw.ends_with(|c: char| c.is_ascii_digit()) && raw.parse::<f64>().is_ok();
            if !(number || matches!(raw, "true" | "false" | "null")) {
                return Err(format!("{raw:?} is not a JSON scalar"));
            }
            raw
        };
        fields.push((&key[1..key.len() - 1], value));
        rest = &rest[value.len()..];
        match rest.strip_prefix(',') {
            Some(next) => rest = next,
            None if rest == "}" => return Ok(fields),
            None => return Err(format!("expected ',' or '}}' before {rest:?}")),
        }
    }
}

/// The string literal, quotes included, at the start of `text`.
fn string_literal(text: &str) -> Result<&str, String> {
    let body = text
        .strip_prefix('"')
        .ok_or_else(|| format!("expected a string before {text:?}"))?;
    let mut escaped = false;
    for (i, byte) in body.bytes().enumerate() {
        match byte {
            b'"' if !escaped => return Ok(&text[..i + 2]),
            b'\\' => escaped = !escaped,
            _ => escaped = false,
        }
    }
    Err("unterminated string".into())
}

/// Render a wall-clock duration in nanoseconds as a short human string.
pub fn fmt_wall(ns: u64) -> String {
    let secs = ns as f64 / 1e9;
    if secs >= 1.0 {
        format!("{secs:.2}s")
    } else if secs >= 1e-3 {
        format!("{:.2}ms", secs * 1e3)
    } else {
        format!("{:.0}\u{b5}s", secs * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_envelope_and_payload() {
        let ev = Event {
            ts_ns: 42,
            thread: 1,
            ctx: Some(7),
            kind: EventKind::InstanceFinished {
                index: 7,
                worker: 1,
                reused: false,
                wall_ns: 1_500_000,
                work: 999,
            },
        };
        assert_eq!(
            ev.to_json(),
            "{\"ts\":42,\"thread\":1,\"ctx\":7,\"kind\":\"dataset.instance.finish\",\
             \"index\":7,\"worker\":1,\"reused\":false,\"wall_ns\":1500000,\"work\":999}"
        );
    }

    #[test]
    fn json_escapes_strings_and_nan_floats() {
        let ev = Event {
            ts_ns: 0,
            thread: 0,
            ctx: None,
            kind: EventKind::StageFinished {
                stage: "we\"ird\\st\nage".into(),
                wall_ns: 5,
            },
        };
        assert_eq!(
            ev.to_json(),
            "{\"ts\":0,\"thread\":0,\"kind\":\"stage\",\
             \"stage\":\"we\\\"ird\\\\st\\nage\",\"wall_ns\":5}"
        );

        let nan = Event {
            ts_ns: 0,
            thread: 0,
            ctx: None,
            kind: EventKind::TrainEpoch {
                epoch: 3,
                loss: f64::NAN,
                grad_norm: 0.5,
                wall_ns: 10,
            },
        };
        assert!(nan.to_json().contains("\"loss\":null"));
        assert!(nan.to_json().contains("\"grad_norm\":0.5"));
    }

    #[test]
    fn progress_lines_skip_hot_kinds() {
        let hot = next_sample(None).unwrap();
        assert_eq!(hot.tag(), "solver.progress");
        assert!(hot.progress_line().is_none());
        let attack = next_sample(Some(&hot)).unwrap();
        assert_eq!(attack.tag(), "attack.iteration");
        assert!(attack.progress_line().is_none());
        let cell = EventKind::CellFinished {
            label: "gcn d=2".into(),
            wall_ns: 2_000_000_000,
        };
        assert_eq!(
            cell.progress_line().unwrap(),
            "cell gcn d=2 finished in 2.00s"
        );
    }

    #[test]
    fn wall_formatting() {
        assert_eq!(fmt_wall(2_500_000_000), "2.50s");
        assert_eq!(fmt_wall(2_500_000), "2.50ms");
        assert_eq!(fmt_wall(900), "1\u{b5}s");
    }

    /// The sample after `prev` (`None` starts the walk). The match is
    /// exhaustive, so a new variant fails to compile until it has an arm;
    /// `every_kind_round_trips` checks the walk visits every declared tag.
    #[rustfmt::skip]
    fn next_sample(prev: Option<&EventKind>) -> Option<EventKind> {
        use EventKind::*;
        Some(match prev {
            None => SolverProgress {
                decisions: 1, propagations: 2, conflicts: 3, restarts: 4, learnt_live: 5,
            },
            Some(SolverProgress { .. }) => AttackIteration {
                iteration: 1, query_work: 2, total_work: 3, miter_vars: 4, miter_clauses: 5,
                wall_ns: u64::MAX,
            },
            Some(AttackIteration { .. }) => InstanceStarted { index: 1, worker: 2 },
            Some(InstanceStarted { .. }) => InstanceFinished {
                index: 1, worker: 2, reused: true, wall_ns: 3, work: 4,
            },
            Some(InstanceFinished { .. }) => InstanceRetry {
                index: 1, attempt: 2, reason: "panic",
            },
            Some(InstanceRetry { .. }) => InstanceQuarantined {
                index: 1, failure: "timeout", attempts: 3, reused: false,
            },
            Some(InstanceQuarantined { .. }) => TrainEpoch {
                epoch: 1, loss: f64::NAN, grad_norm: 0.25, wall_ns: 3,
            },
            Some(TrainEpoch { .. }) => CellStarted { label: "gcn d=2".into() },
            Some(CellStarted { .. }) => CellFinished { label: "gcn d=2".into(), wall_ns: 9 },
            Some(CellFinished { .. }) => Cache { hit: false, path: "out/dataset.csv".into() },
            Some(Cache { .. }) => TrainCheckpointSaved { epoch: 7 },
            Some(TrainCheckpointSaved { .. }) => FaultInjected {
                site: "sat.solve".into(), action: "panic", occurrence: 0,
            },
            // The writer must escape this, and it holds the reader's delimiters.
            Some(FaultInjected { .. }) => StageFinished {
                stage: "we\"ird\\ ,}:\n\r\t\u{1} \u{e9}".into(), wall_ns: 5,
            },
            Some(StageFinished { .. }) => MemHighwater { scope: "attack", bytes: 12_345 },
            Some(MemHighwater { .. }) => ServeRequest {
                seq: 1, queue_depth: 2, wait_ns: 3, infer_ns: 4, wall_ns: 5, outcome: "ok",
            },
            Some(ServeRequest { .. }) => return None,
        })
    }

    #[test]
    fn every_kind_round_trips() {
        let samples: Vec<EventKind> =
            std::iter::successors(next_sample(None), |k| next_sample(Some(k))).collect();
        let tags: Vec<&str> = samples.iter().map(EventKind::tag).collect();
        let declared: Vec<&str> = SCHEMA.iter().map(|(tag, _)| *tag).collect();
        assert_eq!(tags, declared, "one sample per declared kind");
        for (i, tag) in tags.iter().enumerate() {
            assert!(!tags[..i].contains(tag), "duplicate tag {tag}");
        }
        for (kind, (_, schema)) in samples.into_iter().zip(SCHEMA) {
            for (ctx, envelope) in [
                (None, &["ts", "thread", "kind"][..]),
                (Some(3), &["ts", "thread", "ctx", "kind"]),
            ] {
                let json = Event {
                    ts_ns: 42,
                    thread: 1,
                    ctx,
                    kind: kind.clone(),
                }
                .to_json();
                let line = check_line(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
                assert_eq!((line.ts, line.kind), (42, kind.tag()));
                let keys: Vec<&str> = line.fields.iter().map(|(key, _)| *key).collect();
                assert_eq!(keys, [envelope, schema].concat(), "{json}");
                let raw = |key| line.fields.iter().find(|(k, _)| *k == key).unwrap().1;
                match kind {
                    EventKind::TrainEpoch { .. } => assert_eq!(raw("loss"), "null"),
                    EventKind::StageFinished { .. } => {
                        assert_eq!(raw("stage"), r#""we\"ird\\ ,}:\n\r\t\u0001 é""#)
                    }
                    _ => {}
                }
            }
        }
    }
}
