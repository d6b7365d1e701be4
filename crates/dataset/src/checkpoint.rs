//! Incremental checkpointing for dataset sweeps.
//!
//! Attacking hundreds of locked instances takes hours; losing a sweep to a
//! crash or preemption at instance 340/350 is unacceptable. The checkpoint
//! log persists each labeled instance the moment its attack finishes, as one
//! append-only record, so an interrupted sweep resumes by replaying the log
//! and re-attacking only the missing instances.
//!
//! Records are keyed by a content hash of the *locked circuit* (its
//! canonical `.bench` text plus the key and the attack-relevant
//! configuration) rather than by instance index. Re-locking an instance is
//! milliseconds, so resume re-derives each instance's locked circuit,
//! hashes it, and skips the attack on a hit — which makes the log robust to
//! reordering and immune to config drift: change the seed, scheme, budget,
//! or circuit and every key changes, so stale records are simply never
//! matched (and a sweep can even share a log with other sweeps).
//!
//! Besides completed labels the log also records *quarantined* instances —
//! ones whose attack exhausted its retry policy by timing out, panicking,
//! or erroring (see [`crate::supervise`]). A resumed sweep skips known-bad
//! instances instead of re-diverging on them — but only while the
//! *supervision policy* is unchanged: each `fail` record carries a
//! [`supervision_key`] fingerprint of the deadlines and retry policy it
//! gave up under, and [`CheckpointLog::lookup_failure`] ignores records
//! from a different policy. Rerunning with a raised `--deadline` or
//! `--retries` therefore re-attacks known-bad instances instead of
//! trusting a verdict reached under tighter limits. (Success records need
//! no such guard: a completed or budget-censored label is a deterministic
//! function of the inputs fingerprinted by [`instance_key`]; deadlines can
//! only time an attack out, never change a label it produced.)
//!
//! Format: a header line `# icnet-checkpoint v3`, then one record per line:
//!
//! * success: `<key:016x> <index> ok <instance CSV fields> #<crc:016x>`
//! * failure: `<key:016x> <index> fail <kind>,<attempts>,<iterations>,<work>,<supervision:016x>,<message> #<crc:016x>`
//!
//! (see [`crate::dataset_to_csv`] for the instance field list). The index
//! is informational — the hash is the key. Each record is a
//! `faults::sealed` line, so interior corruption is refused at open; a torn
//! final line (a crash mid-append) is dropped and truncated away.

use crate::csv::{instance_from_line, instance_to_line};
use crate::error::DatasetError;
use crate::generate::DatasetConfig;
use crate::instance::Instance;
use crate::supervise::{sanitize_line, FailureKind, InstanceFailure};
use faults::sealed::{inject_write, seal_line, unseal_line};
use faults::{fnv1a, FNV_OFFSET};
use obfuscate::LockedCircuit;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

const MAGIC: &str = "# icnet-checkpoint v3";

/// Revision of the labelling algorithm: the attack loop, its constraint
/// encoder and the solver. A change there shifts `SolverWork` labels and
/// DIP sequences while every configuration field stays equal, so each such
/// change bumps this number, and [`label_fingerprint`] carries it so that a
/// resumed log or a cached dataset never mixes labels from two algorithms.
/// The golden-label test in `generate.rs` fails on an unbumped change.
///
/// * 1 — every DIP re-encodes two full circuit copies; inprocessing every
///   4th DIP (fingerprints had no revision field then).
/// * 2 — each DIP constraint is encoded over the key-dependent gates only
///   (`cnf::encode_io_constraint`); inprocessing once, after the miter.
/// * 3 — the miter's second key copy encodes only the keys' fan-out cone
///   and shares every other gate with the first (`cnf::encode_miter`); each
///   DIP constraint is analysed once for both key copies, and a gate that
///   only passes one key bit through gets no variable (`cnf::IoConstraint`).
pub(crate) const LABEL_REVISION: u32 = 3;

/// What decides the label a finished attack gets: the labelling
/// algorithm's revision (`LABEL_REVISION`) and the configuration fields —
/// the scheme identity *with its parameters* (`SchemeKind`'s `Display`
/// carries LUT size / Anti-SAT key width), the work budget, the per-solve
/// conflict cap, and the runtime measure. Wall-clock deadlines, the retry
/// policy and the memory budget are deliberately excluded — they decide
/// whether an attack *finishes*, never what label a finished attack gets —
/// and are fingerprinted separately by [`supervision_key`] for quarantine
/// records. Both [`instance_key`] and every dataset cache keyed on a sweep
/// configuration hash this string, so the two can never disagree about
/// which configurations share labels.
pub fn label_fingerprint(config: &DatasetConfig) -> String {
    format!(
        "rev={LABEL_REVISION};scheme={};budget={:?};conflicts={:?};measure={:?}",
        config.scheme, config.attack.work_budget, config.attack.conflicts_per_solve, config.measure
    )
}

/// Content hash identifying one attack run: the locked circuit's canonical
/// `.bench` text, its key bits, and the [`label_fingerprint`] of `config`.
/// Two sweeps produce the same key for an instance exactly when the attack
/// would produce the same label; changing any scheme parameter changes the
/// key, so stale labels from a differently-parameterized scheme are never
/// reused.
pub fn instance_key(config: &DatasetConfig, locked: &LockedCircuit) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, locked.locked.to_bench().as_bytes());
    let key_bits: Vec<u8> = locked.key.bits().iter().map(|&b| b as u8).collect();
    h = fnv1a(h, &key_bits);
    fnv1a(h, label_fingerprint(config).as_bytes())
}

/// Fingerprint of the supervision policy a quarantine verdict was reached
/// under: the scheme (with its parameters), both wall-clock deadlines, the
/// retry policy and the logical-byte memory budget. A `fail` record is only
/// authoritative for runs with the *same* fingerprint — raise the deadline,
/// add retries, raise `--mem-budget`, or change a scheme parameter (e.g. the
/// Anti-SAT key width) and the instance deserves another attack, so
/// [`CheckpointLog::lookup_failure`] treats the stale record as absent. The
/// scheme is part of this fingerprint even though it also shapes
/// [`instance_key`]: a quarantine verdict says "this scheme at these
/// parameters was too hard under this policy", and neither half of that
/// statement survives a parameter change.
///
/// The memory budget rides here and *not* in [`instance_key`] for the same
/// reason the deadlines do: it decides whether an attack finishes, and an
/// attack that finished under one budget would have produced the same label
/// under any roomier one (the budget only stops a search, never alters
/// one). Completed labels therefore survive a budget change; only
/// quarantine verdicts are invalidated.
pub fn supervision_key(config: &DatasetConfig) -> u64 {
    // `stall=None` is the window of the removed stall watchdog, which every
    // current config leaves off. The literal keeps each value equal to the
    // one earlier builds wrote, so their quarantine records still match;
    // records written with a window set match no current config and are
    // re-attacked.
    let fingerprint = format!(
        "scheme={};deadline={:?};per_query={:?};attempts={};escalation={};mem={:?};stall=None",
        config.scheme,
        config.attack.deadline,
        config.attack.per_query_deadline,
        config.retry.max_attempts.max(1),
        config.retry.escalation,
        config.attack.mem_budget,
    );
    fnv1a(FNV_OFFSET, fingerprint.as_bytes())
}

/// An append-only log of completed and quarantined instances, keyed by
/// [`instance_key`].
///
/// [`CheckpointLog::open`] loads every valid record already on disk;
/// [`CheckpointLog::record`] / [`CheckpointLog::record_failure`] append and
/// flush one record per finished (or given-up) attack, so a crash loses at
/// most the instance in flight.
#[derive(Debug)]
pub struct CheckpointLog {
    path: PathBuf,
    entries: HashMap<u64, Instance>,
    /// Quarantines, each stored with the [`supervision_key`] of the policy
    /// it was reached under.
    failures: HashMap<u64, (u64, InstanceFailure)>,
    file: File,
    /// Set after a failed append. The on-disk tail may then be a *partial*
    /// line, and a further append — e.g. from another worker still draining
    /// while the sweep unwinds — would concatenate a valid record onto that
    /// partial tail, turning recoverable tail damage into unrecoverable
    /// interior corruption. A poisoned handle refuses all writes; reopening
    /// the log runs recovery and yields a clean handle.
    poisoned: bool,
}

impl CheckpointLog {
    /// Opens (creating if absent) the log at `path` and loads its records.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Io`] when the file cannot be read or created
    /// and [`DatasetError::Checkpoint`] when an existing record is corrupt
    /// (bad checksum, malformed fields, wrong header) — a truncated final
    /// line (the crash case) is *not* an error; it is dropped and
    /// overwritten by the next append.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, DatasetError> {
        let path = path.as_ref().to_path_buf();
        let io_err = |e: std::io::Error| DatasetError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        };
        let existing = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err(e)),
        };
        // Byte length of the intact prefix. A partial tail line means the
        // process died mid-append: that record is lost, and the attack that
        // produced it simply reruns.
        let keep = existing
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        let mut entries = HashMap::new();
        let mut failures = HashMap::new();
        for (i, line) in existing[..keep].split(|&b| b == b'\n').enumerate() {
            let lineno = i + 1;
            if line.trim_ascii().is_empty() {
                continue;
            }
            if lineno == 1 {
                if line.trim_ascii() != MAGIC.as_bytes() {
                    return Err(DatasetError::Checkpoint {
                        line: 1,
                        message: format!(
                            "expected header `{MAGIC}`, found `{}`",
                            String::from_utf8_lossy(line)
                        ),
                    });
                }
                continue;
            }
            match parse_record(line, lineno)? {
                Record::Ok(key, inst) => {
                    entries.insert(key, inst);
                }
                Record::Fail(key, supervision, failure) => {
                    failures.insert(key, (supervision, failure));
                }
            }
        }
        if keep < existing.len() {
            // Truncate the partial tail so it does not resurface as a
            // corrupt record on a later open.
            OpenOptions::new()
                .write(true)
                .open(&path)
                .and_then(|f| f.set_len(keep as u64))
                .map_err(io_err)?;
        }
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(io_err)?;
        // The header must be (re)written whenever the surviving prefix is
        // empty — either the file is new, or a crash inside the very first
        // (header) write left a partial line that recovery just dropped.
        // Checking `existing.is_empty()` alone misses the latter and left a
        // headerless log that the *next* open rejected loudly.
        if keep == 0 {
            writeln!(file, "{MAGIC}").map_err(io_err)?;
            file.flush().map_err(io_err)?;
        }
        Ok(CheckpointLog {
            path,
            entries,
            failures,
            file,
            poisoned: false,
        })
    }

    /// Where this log lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of completed (labeled) instances on record.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Number of quarantined instances on record.
    pub fn num_quarantined(&self) -> usize {
        self.failures.len()
    }

    /// True when no instance has been recorded (labeled or quarantined).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.failures.is_empty()
    }

    /// The recorded instance for `key`, if its attack already completed.
    pub fn lookup(&self, key: u64) -> Option<&Instance> {
        self.entries.get(&key)
    }

    /// The recorded quarantine failure for `key`, if its attack already
    /// exhausted the retry policy in a previous run *under the same
    /// supervision policy* (`supervision` = [`supervision_key`] of the
    /// current config). A record written under different deadlines or a
    /// different retry policy is ignored, so a rerun with a raised
    /// `--deadline` / `--retries` re-attacks the instance instead of
    /// trusting a verdict reached under tighter limits.
    pub fn lookup_failure(&self, key: u64, supervision: u64) -> Option<&InstanceFailure> {
        self.failures
            .get(&key)
            .filter(|(recorded, _)| *recorded == supervision)
            .map(|(_, failure)| failure)
    }

    /// Appends one completed instance and flushes it to disk immediately.
    /// `index` is the instance's position in its sweep (informational).
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Io`] when the append fails.
    pub fn record(
        &mut self,
        key: u64,
        index: usize,
        instance: &Instance,
    ) -> Result<(), DatasetError> {
        let body = format!("{key:016x} {index} ok {}", instance_to_line(instance));
        self.append(&body)?;
        self.entries.insert(key, instance.clone());
        Ok(())
    }

    /// Appends one quarantined instance and flushes it to disk immediately,
    /// so a resumed sweep under the same supervision policy (`supervision`
    /// = [`supervision_key`]) skips the known-bad instance.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Io`] when the append fails.
    pub fn record_failure(
        &mut self,
        key: u64,
        index: usize,
        supervision: u64,
        failure: &InstanceFailure,
    ) -> Result<(), DatasetError> {
        let body = format!(
            "{key:016x} {index} fail {},{},{},{},{supervision:016x},{}",
            failure.kind.tag(),
            failure.attempts,
            failure.iterations,
            failure.work,
            sanitize_line(&failure.message),
        );
        self.append(&body)?;
        self.failures.insert(key, (supervision, failure.clone()));
        Ok(())
    }

    fn append(&mut self, body: &str) -> Result<(), DatasetError> {
        let message = if self.poisoned {
            "checkpoint log disabled after an earlier failed append \
             (the on-disk tail may be partial; reopen to recover)"
                .to_owned()
        } else {
            // One write per record, handed to the OS before `record` returns
            // (no fsync): a crash loses at most the record in flight. An
            // injected fault writes the torn prefix a crash would leave.
            let line = seal_line(body);
            let file = &mut self.file;
            let result = inject_write("checkpoint.append", line.as_bytes(), || Ok(&mut *file))
                .and_then(|()| file.write_all(line.as_bytes()))
                .and_then(|()| file.flush());
            // A failed write may have put any prefix of the line on disk.
            self.poisoned = result.is_err();
            match result {
                Ok(()) => return Ok(()),
                Err(e) => e.to_string(),
            }
        };
        let path = self.path.display().to_string();
        Err(DatasetError::Io { path, message })
    }
}

enum Record {
    Ok(u64, Instance),
    Fail(u64, u64, InstanceFailure),
}

fn parse_record(line: &[u8], lineno: usize) -> Result<Record, DatasetError> {
    let corrupt = |message: String| DatasetError::Checkpoint {
        line: lineno,
        message,
    };
    let body = unseal_line(line.trim_ascii_end()).map_err(|e| corrupt(e.to_string()))?;
    let fields: Vec<&str> = body.splitn(4, ' ').collect();
    let [key, index, tag, payload] = fields[..] else {
        return Err(corrupt(format!(
            "record `{body}` needs a key, an index, a tag and a payload"
        )));
    };
    let key = u64::from_str_radix(key, 16)
        .map_err(|_| corrupt(format!("bad content-hash key `{key}`")))?;
    index
        .parse::<usize>()
        .map_err(|_| corrupt(format!("bad index `{index}`")))?;
    match tag {
        "ok" => match instance_from_line(payload, lineno) {
            Ok(inst) => Ok(Record::Ok(key, inst)),
            Err(DatasetError::ParseCsv { message, .. }) => Err(corrupt(message)),
            Err(other) => Err(other),
        },
        "fail" => parse_failure(payload)
            .map(|(supervision, failure)| Record::Fail(key, supervision, failure))
            .map_err(corrupt),
        other => Err(corrupt(format!("unknown record tag `{other}`"))),
    }
}

/// `<kind>,<attempts>,<iterations>,<work>,<supervision:016x>,<message>`.
/// The message is the free-form tail, so commas inside it survive.
fn parse_failure(payload: &str) -> Result<(u64, InstanceFailure), String> {
    let fields: Vec<&str> = payload.splitn(6, ',').collect();
    let [kind, attempts, iterations, work, supervision, message] = fields[..] else {
        return Err(format!("failure needs 6 fields, has {}", fields.len()));
    };
    let num = |name: &str, field: &str| {
        field
            .parse::<u64>()
            .map_err(|_| format!("bad failure field `{name}`: `{field}`"))
    };
    let failure = InstanceFailure {
        kind: FailureKind::from_tag(kind)
            .ok_or_else(|| format!("unknown failure kind `{kind}`"))?,
        attempts: num("attempts", attempts)? as usize,
        message: message.to_owned(),
        iterations: num("iterations", iterations)? as usize,
        work: num("work", work)?,
    };
    let supervision = u64::from_str_radix(supervision, 16)
        .map_err(|_| format!("bad failure field `supervision`: `{supervision}`"))?;
    Ok((supervision, failure))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::GateId;

    fn inst(n: usize) -> Instance {
        Instance {
            selected: vec![GateId::from_index(n)],
            key_bits: n,
            iterations: 2,
            work: 100 + n as u64,
            seconds: 0.5,
            log_seconds: 0.5f64.ln(),
            censored: false,
        }
    }

    fn fail(n: usize) -> InstanceFailure {
        InstanceFailure {
            kind: FailureKind::Panic,
            attempts: 2,
            message: format!("boom, with a comma, at {n}"),
            iterations: n,
            work: 10 * n as u64,
        }
    }

    /// The record checksum computed by hand, so hand-framed test lines
    /// also pin the on-disk framing.
    fn record_crc(body: &str) -> u64 {
        fnv1a(FNV_OFFSET, body.as_bytes())
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("icnet_ckpt_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn records_persist_across_reopen() {
        let path = tmp("roundtrip.ckpt");
        let mut log = CheckpointLog::open(&path).unwrap();
        assert!(log.is_empty());
        log.record(0xAB, 0, &inst(1)).unwrap();
        log.record(0xCD, 1, &inst(2)).unwrap();
        drop(log);
        let log = CheckpointLog::open(&path).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log.lookup(0xAB), Some(&inst(1)));
        assert_eq!(log.lookup(0xCD), Some(&inst(2)));
        assert_eq!(log.lookup(0xEF), None);
    }

    /// An arbitrary supervision fingerprint for tests that only need one.
    const SUP: u64 = 0x5E1F;

    #[test]
    fn failures_persist_across_reopen() {
        let path = tmp("failures.ckpt");
        let mut log = CheckpointLog::open(&path).unwrap();
        log.record(0xAB, 0, &inst(1)).unwrap();
        log.record_failure(0xCD, 1, SUP, &fail(7)).unwrap();
        drop(log);
        let log = CheckpointLog::open(&path).unwrap();
        assert_eq!(log.len(), 1, "labels count successes only");
        assert_eq!(log.num_quarantined(), 1);
        assert_eq!(log.lookup_failure(0xCD, SUP), Some(&fail(7)));
        assert_eq!(log.lookup(0xCD), None, "a quarantine is not a label");
    }

    #[test]
    fn failures_from_a_different_supervision_policy_are_ignored() {
        let path = tmp("stale_policy.ckpt");
        let mut log = CheckpointLog::open(&path).unwrap();
        log.record_failure(0xCD, 1, SUP, &fail(7)).unwrap();
        drop(log);
        let log = CheckpointLog::open(&path).unwrap();
        assert_eq!(log.lookup_failure(0xCD, SUP), Some(&fail(7)));
        assert_eq!(
            log.lookup_failure(0xCD, SUP + 1),
            None,
            "a raised deadline / retry budget must re-attack the instance"
        );
        assert_eq!(log.num_quarantined(), 1, "the record itself survives");
    }

    #[test]
    fn failure_message_keeps_embedded_commas() {
        let path = tmp("commas.ckpt");
        let mut log = CheckpointLog::open(&path).unwrap();
        log.record_failure(0x9, 3, SUP, &fail(3)).unwrap();
        drop(log);
        let log = CheckpointLog::open(&path).unwrap();
        assert_eq!(
            log.lookup_failure(0x9, SUP).unwrap().message,
            "boom, with a comma, at 3"
        );
    }

    #[test]
    fn truncated_tail_record_is_dropped_not_fatal() {
        let path = tmp("truncated.ckpt");
        let mut log = CheckpointLog::open(&path).unwrap();
        log.record(0x1, 0, &inst(1)).unwrap();
        log.record(0x2, 1, &inst(2)).unwrap();
        drop(log);
        // Chop the file mid-record, as a crash during append would.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 7]).unwrap();
        let mut log = CheckpointLog::open(&path).unwrap();
        assert_eq!(log.len(), 1, "partial record dropped");
        // The log still appends cleanly after recovery.
        log.record(0x3, 2, &inst(3)).unwrap();
        drop(log);
        assert_eq!(CheckpointLog::open(&path).unwrap().len(), 2);
    }

    #[test]
    fn missing_checksum_is_reported() {
        let path = tmp("nochecksum.ckpt");
        std::fs::write(&path, format!("{MAGIC}\n00ab 0 ok 1,2,3,4,5,6,false\n")).unwrap();
        match CheckpointLog::open(&path) {
            Err(DatasetError::Checkpoint { line: 2, message }) => {
                assert!(message.contains("checksum"), "{message}");
            }
            other => panic!("expected checkpoint corruption, got {other:?}"),
        }
    }

    #[test]
    fn flipped_byte_fails_the_checksum() {
        let path = tmp("flipped.ckpt");
        let mut log = CheckpointLog::open(&path).unwrap();
        log.record(0xAB, 0, &inst(1)).unwrap();
        drop(log);
        let text = std::fs::read_to_string(&path).unwrap();
        // Corrupt one digit inside the record body (never the checksum or
        // the newline): the reload must notice.
        let target = text.rfind(" ok ").unwrap() + 4;
        let mut bytes = text.into_bytes();
        bytes[target] = if bytes[target] == b'9' { b'7' } else { b'9' };
        std::fs::write(&path, bytes).unwrap();
        match CheckpointLog::open(&path) {
            Err(DatasetError::Checkpoint { line: 2, message }) => {
                assert!(message.contains("checksum mismatch"), "{message}");
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_interior_record_is_reported() {
        let path = tmp("corrupt.ckpt");
        let body = "nothex 0 ok 1,2,3,4,5,6,false";
        std::fs::write(
            &path,
            format!("{MAGIC}\n{body} #{:016x}\n", record_crc(body)),
        )
        .unwrap();
        match CheckpointLog::open(&path) {
            Err(DatasetError::Checkpoint { line: 2, .. }) => {}
            other => panic!("expected checkpoint corruption, got {other:?}"),
        }
    }

    #[test]
    fn wrong_header_is_rejected() {
        let path = tmp("header.ckpt");
        std::fs::write(&path, "not a checkpoint\n").unwrap();
        assert!(matches!(
            CheckpointLog::open(&path),
            Err(DatasetError::Checkpoint { line: 1, .. })
        ));
    }

    #[test]
    fn older_format_logs_are_rejected_as_stale() {
        for version in ["v1", "v2"] {
            let path = tmp(&format!("{version}.ckpt"));
            std::fs::write(&path, format!("# icnet-checkpoint {version}\n")).unwrap();
            assert!(
                matches!(
                    CheckpointLog::open(&path),
                    Err(DatasetError::Checkpoint { line: 1, .. })
                ),
                "{version} must be rejected"
            );
        }
    }

    /// `quick_demo` with every label and supervision bound set.
    fn limited() -> DatasetConfig {
        let mut limited = DatasetConfig::quick_demo();
        limited.attack.work_budget = Some(7_000_000);
        limited.attack.conflicts_per_solve = Some(4096);
        limited.attack.deadline = Some(std::time::Duration::from_millis(2500));
        limited.attack.per_query_deadline = Some(std::time::Duration::from_millis(750));
        limited.attack.mem_budget = Some(500_000);
        limited.retry = crate::RetryPolicy {
            max_attempts: 3,
            escalation: 4,
        };
        limited
    }

    /// The supervision value builds with the stall watchdog wrote for a
    /// window of `stall`.
    fn supervision_key_with_stall(config: &DatasetConfig, stall: std::time::Duration) -> u64 {
        let fingerprint = format!(
            "scheme={};deadline={:?};per_query={:?};attempts={};escalation={};mem={:?};stall={:?}",
            config.scheme,
            config.attack.deadline,
            config.attack.per_query_deadline,
            config.retry.max_attempts.max(1),
            config.retry.escalation,
            config.attack.mem_budget,
            Some(stall),
        );
        fnv1a(FNV_OFFSET, fingerprint.as_bytes())
    }

    #[test]
    fn fingerprints_are_pinned() {
        // Logs and CSV caches written by earlier builds resume only while
        // these values stay put: a change here orphans every saved record.
        let quick = DatasetConfig::quick_demo();
        let limited = limited();
        let keys = |config: &DatasetConfig| {
            let circuit = crate::generate::sweep_circuit(config).unwrap();
            let locked = crate::generate::lock_instance(config, &circuit, 0).unwrap();
            (
                label_fingerprint(config),
                format!("{:016x}", instance_key(config, &locked)),
                format!("{:016x}", supervision_key(config)),
            )
        };
        assert_eq!(
            keys(&quick),
            (
                "rev=3;scheme=xor-lock;budget=Some(5000000);conflicts=None;measure=SolverWork"
                    .to_owned(),
                "5338a0a0aed04269".to_owned(),
                "124bd9d7c0cd4908".to_owned()
            )
        );
        assert_eq!(
            keys(&limited),
            (
                "rev=3;scheme=xor-lock;budget=Some(7000000);conflicts=Some(4096);measure=SolverWork"
                    .to_owned(),
                "cf0604ac47237a6b".to_owned(),
                "768764fb30897f59".to_owned()
            )
        );
    }

    #[test]
    fn a_log_with_stalled_records_still_resumes() {
        // Logs written with the removed stall watchdog hold `stalled` fail
        // records under a `stall=Some(..)` supervision value. They still
        // open, their labels are reused, and the stalled instance is
        // re-attacked, because no current config has that value.
        let stall = std::time::Duration::from_secs(3);
        assert_eq!(
            format!("{:016x}", supervision_key_with_stall(&limited(), stall)),
            "6c5cf6b772641f1a",
            "the value `limited` was pinned to while the watchdog existed"
        );
        let mut config = DatasetConfig::quick_demo();
        config.num_instances = 4;
        let stalled = 2;
        let (baseline, _) = crate::generate_parallel_with(&config, 1, None).unwrap();
        let circuit = crate::generate::sweep_circuit(&config).unwrap();
        let key_of = |index| {
            let locked = crate::generate::lock_instance(&config, &circuit, index).unwrap();
            instance_key(&config, &locked)
        };
        let path = tmp("stalled.ckpt");
        let mut log = CheckpointLog::open(&path).unwrap();
        for (index, instance) in baseline.instances.iter().enumerate() {
            if index == stalled {
                let failure = InstanceFailure {
                    kind: FailureKind::Stalled,
                    attempts: 1,
                    message: "watchdog: no heartbeat progress for 3s; attack cancelled".into(),
                    iterations: 0,
                    work: 0,
                };
                let old = supervision_key_with_stall(&config, stall);
                log.record_failure(key_of(index), index, old, &failure)
                    .unwrap();
            } else {
                log.record(key_of(index), index, instance).unwrap();
            }
        }
        drop(log);

        let mut log = CheckpointLog::open(&path).unwrap();
        assert_eq!((log.len(), log.num_quarantined()), (3, 1));
        for current in [config.clone(), limited()] {
            let supervision = supervision_key(&current);
            assert!(log.lookup_failure(key_of(stalled), supervision).is_none());
        }
        let (resumed, report) = crate::generate_parallel_with(&config, 2, Some(&mut log)).unwrap();
        assert_eq!(report.reused(), 3, "completed labels are reused");
        assert_eq!(report.attacked(), 1, "the stalled instance is re-attacked");
        assert_eq!(report.quarantined(), 0);
        assert_eq!(resumed, baseline);
    }

    #[test]
    fn instance_key_separates_configs_and_indices() {
        let config = DatasetConfig::quick_demo();
        let circuit = crate::generate::sweep_circuit(&config).unwrap();
        let a = crate::generate::lock_instance(&config, &circuit, 0).unwrap();
        let b = crate::generate::lock_instance(&config, &circuit, 1).unwrap();
        let ka = instance_key(&config, &a);
        assert_eq!(ka, instance_key(&config, &a), "deterministic");
        assert_ne!(ka, instance_key(&config, &b), "indices differ");
        let mut other = config.clone();
        other.attack = attack::AttackConfig::with_work_budget(1);
        assert_ne!(ka, instance_key(&other, &a), "budget changes the key");
        let mut other = config.clone();
        other.attack.conflicts_per_solve = Some(99);
        assert_ne!(
            ka,
            instance_key(&other, &a),
            "the per-solve conflict cap changes deterministic outcomes, so it changes the key"
        );
    }

    #[test]
    fn supervision_key_tracks_deadlines_and_retries_but_not_labels() {
        let config = DatasetConfig::quick_demo();
        let circuit = crate::generate::sweep_circuit(&config).unwrap();
        let locked = crate::generate::lock_instance(&config, &circuit, 0).unwrap();
        let base = supervision_key(&config);
        assert_eq!(base, supervision_key(&config), "deterministic");

        let mut raised = config.clone();
        raised.attack.deadline = Some(std::time::Duration::from_secs(30));
        assert_ne!(base, supervision_key(&raised), "deadline changes it");
        assert_eq!(
            instance_key(&config, &locked),
            instance_key(&raised, &locked),
            "deadlines never change a finished attack's label, so success records stay valid"
        );

        let mut retried = config.clone();
        retried.retry.max_attempts += 1;
        assert_ne!(base, supervision_key(&retried), "retry policy changes it");

        let mut per_query = config.clone();
        per_query.attack.per_query_deadline = Some(std::time::Duration::from_secs(1));
        assert_ne!(base, supervision_key(&per_query));
    }

    #[test]
    fn scheme_parameters_fingerprint_both_keys() {
        // Satellite (issue 9): a resumed sweep under a different key width
        // must re-attack rather than trust labels or quarantine verdicts
        // reached under other scheme parameters.
        let config = DatasetConfig::quick_demo();
        let circuit = crate::generate::sweep_circuit(&config).unwrap();
        let locked = crate::generate::lock_instance(&config, &circuit, 0).unwrap();

        let mut widened = config.clone();
        widened.scheme = obfuscate::SchemeKind::AntiSat { key_width: 4 };
        assert_ne!(
            supervision_key(&config),
            supervision_key(&widened),
            "scheme identity changes the supervision fingerprint"
        );
        assert_ne!(
            instance_key(&config, &locked),
            instance_key(&widened, &locked),
            "scheme identity changes the instance key even for the same netlist"
        );

        let mut wider = widened.clone();
        wider.scheme = obfuscate::SchemeKind::AntiSat { key_width: 5 };
        assert_ne!(
            supervision_key(&widened),
            supervision_key(&wider),
            "a parameter-only change (key width 4 -> 5) changes the fingerprint"
        );
        assert_ne!(
            instance_key(&widened, &locked),
            instance_key(&wider, &locked)
        );

        let mut lut = config.clone();
        lut.scheme = obfuscate::SchemeKind::LutLock { lut_size: 3 };
        let mut lut4 = config.clone();
        lut4.scheme = obfuscate::SchemeKind::LutLock { lut_size: 4 };
        assert_ne!(supervision_key(&lut), supervision_key(&lut4));
    }
}
