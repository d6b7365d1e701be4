//! Crash-safe training checkpoints.
//!
//! One file per training run, rewritten at the end of every epoch with
//! `faults::sealed::write_atomic`, so the file on disk is always a
//! *complete* epoch state: either the rename happened and the new epoch is
//! fully there, or it did not and the previous epoch's file is untouched.
//! Every line, the versioned header included, is a `faults::sealed` line
//! carrying its own checksum.
//!
//! Every float (parameters, ADAM moments, loss history, best loss) is
//! serialized as its IEEE-754 bit pattern in hex. Training resumed from a
//! checkpoint must produce **bit-identical** parameters to an uninterrupted
//! run, and a shortest-round-trip decimal rendering would already be exact
//! for f64 — but bit patterns make the intent auditable and the comparison
//! trivial.
//!
//! A checkpoint is only valid for the exact training run that wrote it:
//! the `fingerprint` line hashes every hyper-parameter that feeds the
//! update sequence (a trajectory-semantics version tag, seed, lr, batch
//! size, tolerance, patience, epoch cap, training-set size, parameter
//! shapes). The runtime controls (`TrainConfig::control`: cancel token and
//! checkpoint spec) are deliberately excluded — they never change the
//! trajectory, so a run interrupted under one token resumes under a fresh
//! one, and checkpoints written by earlier builds keep resuming. The
//! version tag changes whenever the update arithmetic itself changes
//! (`v2`: the partial-final-batch weighting fix; `v3`: the compressed
//! batch engine, whose gradients fold in a different order), so
//! checkpoints written under older trajectory semantics are refused loudly
//! instead of silently blending two trajectories.

use crate::trainer::TrainConfig;
use faults::sealed::{seal_line, unseal_line, write_atomic, SealError};
use faults::{fnv1a, FNV_OFFSET};
use std::collections::HashMap;
use tensor::Matrix;

const MAGIC: &str = "# icnet-train-ckpt v1";

/// Full end-of-epoch training state.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TrainCheckpoint {
    /// Hash of the hyper-parameters and shapes this state belongs to.
    pub fingerprint: u64,
    /// Epochs fully completed (the resume point).
    pub epochs_done: usize,
    /// Whether the tolerance criterion fired on the final epoch.
    pub converged: bool,
    /// Consecutive sub-tolerance epochs at checkpoint time.
    pub stall: usize,
    /// Best (lowest) epoch loss seen, as tracked by the loop.
    pub best: f64,
    /// Per-epoch mean training loss so far.
    pub history: Vec<f64>,
    /// Model parameters after `epochs_done` epochs.
    pub params: Vec<Matrix>,
    /// ADAM step count.
    pub adam_t: u64,
    /// ADAM first moments (empty iff no step has run).
    pub adam_m: Vec<Matrix>,
    /// ADAM second moments.
    pub adam_v: Vec<Matrix>,
}

/// Hash of everything that determines the parameter trajectory: the
/// hyper-parameters, the training-set size, and the parameter shapes.
pub(crate) fn fingerprint(config: &TrainConfig, num_instances: usize, params: &[Matrix]) -> u64 {
    let mut text = format!(
        "v3;seed={};lr={:016x};batch={};tol={:016x};patience={};max_epochs={};n={}",
        config.seed,
        config.lr.to_bits(),
        config.batch_size,
        config.tol.to_bits(),
        config.patience,
        config.max_epochs,
        num_instances,
    );
    for p in params {
        text.push_str(&format!(";{}x{}", p.rows(), p.cols()));
    }
    fnv1a(FNV_OFFSET, text.as_bytes())
}

/// ` <bits:016x>` for each value.
fn bits(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!(" {:016x}", v.to_bits()))
        .collect()
}

/// One `<tag> <index> <rows> <cols> <value bits>...` body per matrix.
fn matrix_bodies<'a>(tag: &'a str, list: &'a [Matrix]) -> impl Iterator<Item = String> + 'a {
    let body = move |(i, m): (usize, &Matrix)| {
        format!("{tag} {i} {} {}{}", m.rows(), m.cols(), bits(m.as_slice()))
    };
    list.iter().enumerate().map(body)
}

fn render(ckpt: &TrainCheckpoint) -> String {
    let mut bodies = vec![
        MAGIC.to_owned(),
        format!("fingerprint {:016x}", ckpt.fingerprint),
        format!(
            "epoch {} {} {} {:016x}",
            ckpt.epochs_done,
            u8::from(ckpt.converged),
            ckpt.stall,
            ckpt.best.to_bits()
        ),
        format!("history{}", bits(&ckpt.history)),
    ];
    bodies.extend(matrix_bodies("param", &ckpt.params));
    bodies.push(format!("adam {}", ckpt.adam_t));
    bodies.extend(matrix_bodies("adam_m", &ckpt.adam_m));
    bodies.extend(matrix_bodies("adam_v", &ckpt.adam_v));
    bodies.iter().map(|body| seal_line(body)).collect()
}

/// Durably replaces the checkpoint at `path` with `ckpt`
/// (`faults::sealed::write_atomic`, fault site `train.checkpoint`). A crash
/// at any point leaves either the previous checkpoint or the new one, never
/// a mix.
///
/// # Errors
///
/// Returns a one-line message; the previous checkpoint (if any) survives.
pub(crate) fn save(path: &str, ckpt: &TrainCheckpoint) -> Result<(), String> {
    write_atomic(path, render(ckpt).as_bytes(), "train.checkpoint")
        .map_err(|e| format!("writing training checkpoint `{path}`: {e}"))
}

/// Loads the checkpoint at `path`: `Ok(None)` when there is none (a fresh
/// run), `Err` when it is damaged or from another format version. Unlike
/// the append-only dataset log there is no partial recovery: the file is
/// replaced atomically, so *any* damage means something outside the trainer
/// touched it, and resuming from it could silently diverge.
pub(crate) fn load(path: &str) -> Result<Option<TrainCheckpoint>, String> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("reading training checkpoint `{path}`: {e}")),
    };
    parse(&bytes).map(Some)
}

fn parse(bytes: &[u8]) -> Result<TrainCheckpoint, String> {
    let text = bytes
        .strip_suffix(b"\n")
        .ok_or_else(|| SealError::Truncated.to_string())?;
    // Record payloads by tag, in file order.
    let mut records: HashMap<&str, Vec<&str>> = HashMap::new();
    for (i, line) in text.split(|&b| b == b'\n').enumerate() {
        let body = unseal_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if i == 0 && body != MAGIC {
            return Err(format!("expected header `{MAGIC}`, found `{body}`"));
        }
        if i > 0 {
            let (tag, rest) = body.split_once(' ').unwrap_or((body, ""));
            records.entry(tag).or_default().push(rest);
        }
    }
    let one = |tag: &str| match records.get(tag).map(Vec::as_slice) {
        Some(&[rest]) => Ok(rest),
        _ => Err(format!("expected one {tag} record")),
    };
    let matrices = |tag: &str| -> Result<Vec<Matrix>, String> {
        let rests = records.get(tag).map_or(&[][..], Vec::as_slice);
        let parsed = rests.iter().enumerate();
        parsed.map(|(i, rest)| parse_matrix(tag, i, rest)).collect()
    };

    let epoch: Vec<&str> = one("epoch")?.split(' ').collect();
    let [epochs_done, converged, stall, best] = epoch[..] else {
        return Err(format!("epoch record needs 4 fields, has {}", epoch.len()));
    };
    let history = one("history")?.split(' ').filter(|f| !f.is_empty());
    let ckpt = TrainCheckpoint {
        fingerprint: hex(one("fingerprint")?)?,
        epochs_done: number(epochs_done)?,
        converged: converged == "1",
        stall: number(stall)?,
        best: f64::from_bits(hex(best)?),
        history: history
            .map(|f| hex(f).map(f64::from_bits))
            .collect::<Result<_, _>>()?,
        params: matrices("param")?,
        adam_t: number(one("adam")?)?,
        adam_m: matrices("adam_m")?,
        adam_v: matrices("adam_v")?,
    };
    if ckpt.params.is_empty() {
        return Err("missing param records".into());
    }
    // ADAM keeps one moment of each kind per parameter once a step has run,
    // and none before: any other count is a file cut at a line boundary.
    let moments = if ckpt.adam_t == 0 {
        0
    } else {
        ckpt.params.len()
    };
    if ckpt.adam_m.len() != moments || ckpt.adam_v.len() != moments {
        return Err(format!(
            "adam moment count mismatch: {} first and {} second, expected {moments} each",
            ckpt.adam_m.len(),
            ckpt.adam_v.len()
        ));
    }
    // A checkpoint is exactly what `render` writes: this refuses unknown,
    // repeated or reordered records and non-canonical fields (a converged
    // flag other than `0`/`1`).
    if render(&ckpt).as_bytes() != bytes {
        return Err("records differ from the trainer's own rendering".into());
    }
    Ok(ckpt)
}

fn number<T: std::str::FromStr>(field: &str) -> Result<T, String> {
    field.parse().map_err(|_| format!("bad number `{field}`"))
}

fn hex(field: &str) -> Result<u64, String> {
    u64::from_str_radix(field, 16).map_err(|_| format!("bad hex field `{field}`"))
}

/// The `index`-th `tag` matrix: `<index> <rows> <cols> <value bits>...`.
fn parse_matrix(tag: &str, index: usize, rest: &str) -> Result<Matrix, String> {
    let fields: Vec<&str> = rest.split(' ').collect();
    let [at, rows, cols, values @ ..] = &fields[..] else {
        return Err(format!("{tag} record `{rest}` has no shape"));
    };
    if number::<usize>(at)? != index {
        return Err(format!("{tag} index {at} out of order (expected {index})"));
    }
    let (rows, cols): (usize, usize) = (number(rows)?, number(cols)?);
    let data = values.iter().map(|f| hex(f).map(f64::from_bits));
    let data = data.collect::<Result<Vec<f64>, String>>()?;
    if data.len() != rows * cols {
        return Err(format!(
            "{tag} {index} has {} values for a {rows}x{cols} shape",
            data.len()
        ));
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrainCheckpoint {
        TrainCheckpoint {
            fingerprint: 0xDEAD_BEEF,
            epochs_done: 7,
            converged: false,
            stall: 2,
            best: 0.125,
            history: vec![1.5, 0.5, 0.125],
            params: vec![
                Matrix::from_vec(2, 2, vec![1.0, -2.5, 0.0, f64::MIN_POSITIVE]),
                Matrix::from_vec(1, 3, vec![3.0, 4.0, 5.0]),
            ],
            adam_t: 21,
            adam_m: vec![
                Matrix::from_vec(2, 2, vec![0.1, 0.2, 0.3, 0.4]),
                Matrix::from_vec(1, 3, vec![0.5, 0.6, 0.7]),
            ],
            adam_v: vec![
                Matrix::from_vec(2, 2, vec![0.01, 0.02, 0.03, 0.04]),
                Matrix::from_vec(1, 3, vec![0.05, 0.06, 0.07]),
            ],
        }
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("icnet_train_ckpt_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path.display().to_string()
    }

    #[test]
    fn round_trips_bit_exactly() {
        let path = tmp("roundtrip.ckpt");
        let ckpt = sample();
        save(&path, &ckpt).unwrap();
        let loaded = load(&path).unwrap().expect("file exists");
        assert_eq!(loaded, ckpt);
    }

    #[test]
    fn absent_file_is_a_fresh_run() {
        assert_eq!(load(&tmp("absent.ckpt")).unwrap(), None);
    }

    #[test]
    fn save_replaces_atomically() {
        let path = tmp("replace.ckpt");
        let mut ckpt = sample();
        save(&path, &ckpt).unwrap();
        ckpt.epochs_done = 8;
        ckpt.history.push(0.1);
        save(&path, &ckpt).unwrap();
        assert_eq!(load(&path).unwrap().unwrap().epochs_done, 8);
    }

    #[test]
    fn non_finite_floats_survive_the_round_trip() {
        let path = tmp("nonfinite.ckpt");
        let mut ckpt = sample();
        ckpt.best = f64::INFINITY;
        save(&path, &ckpt).unwrap();
        assert_eq!(load(&path).unwrap().unwrap().best, f64::INFINITY);
    }

    #[test]
    fn flipped_byte_is_loudly_rejected() {
        let path = tmp("flipped.ckpt");
        save(&path, &sample()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a digit inside the epoch record's body.
        let text = String::from_utf8(bytes.clone()).unwrap();
        let target = text.find("epoch ").unwrap() + 6;
        bytes[target] = if bytes[target] == b'7' { b'8' } else { b'7' };
        std::fs::write(&path, bytes).unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn truncation_is_loudly_rejected() {
        let path = tmp("truncated.ckpt");
        save(&path, &sample()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 9]).unwrap();
        assert!(load(&path).is_err());
    }

    #[test]
    fn wrong_header_is_rejected() {
        let path = tmp("header.ckpt");
        let body = "# some-other-format v9";
        std::fs::write(
            &path,
            format!("{body} #{:016x}\n", fnv1a(FNV_OFFSET, body.as_bytes())),
        )
        .unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.contains("expected header"), "{err}");
    }

    #[test]
    fn every_truncation_and_bit_flip_is_refused() {
        // A torn write can stop at any byte and a bit can flip anywhere:
        // every such file must fail to load, never resume a wrong state.
        let path = tmp("damaged.ckpt");
        save(&path, &sample()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let refused = |damaged: &[u8], what: &dyn Fn() -> String| {
            std::fs::write(&path, damaged).unwrap();
            assert!(load(&path).is_err(), "{} loaded", what());
        };
        for cut in 0..bytes.len() {
            refused(&bytes[..cut], &|| format!("a {cut}-byte prefix"));
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            refused(&flipped, &|| format!("bit {} of byte {}", bit % 8, bit / 8));
        }
    }

    #[test]
    fn saved_bytes_are_pinned() {
        // Recorded before the framing moved into `faults::sealed`: a
        // checkpoint written by an older build must keep loading.
        let path = tmp("pinned.ckpt");
        save(&path, &sample()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(
            (bytes.len(), fnv1a(FNV_OFFSET, &bytes)),
            (778, 469380545583856724)
        );
    }

    #[test]
    fn fingerprint_tracks_hypers_and_shapes_but_not_controls() {
        let config = TrainConfig::quick();
        let params = sample().params;
        let base = fingerprint(&config, 32, &params);
        assert_eq!(base, fingerprint(&config, 32, &params), "deterministic");
        // Pinned: checkpoints written by earlier builds must keep resuming.
        assert_eq!(base, 1118866455340783883);

        let mut controlled = config.clone();
        controlled.control.cancel = Some(budget::CancelToken::new());
        controlled.control.checkpoint = Some(tmp("controls.ckpt"));
        assert_eq!(
            base,
            fingerprint(&controlled, 32, &params),
            "runtime controls never change the trajectory, so they must not invalidate"
        );

        let mut seeded = config.clone();
        seeded.seed += 1;
        assert_ne!(base, fingerprint(&seeded, 32, &params));
        let mut lr = config.clone();
        lr.lr *= 2.0;
        assert_ne!(base, fingerprint(&lr, 32, &params));
        assert_ne!(base, fingerprint(&config, 33, &params));
        assert_ne!(base, fingerprint(&config, 32, &params[..1]));
    }
}
