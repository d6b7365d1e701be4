//! Shared evaluation pipeline: encode → split → fit → test-set MSE.

use crate::methods::BaselineKind;
use dataset::{
    flat_features, train_test_split, Dataset, FlatAggregation, Split, StructureEncoding,
};
use icnet::{Aggregation, FeatureSet, GraphModel, ModelKind, TrainConfig};
use regress::metrics;
use std::sync::Arc;
use tensor::Matrix;

/// The CSV cache path [`load_or_generate`] uses for `config` under
/// `out_dir`. The pipeline is deterministic, so the cache key is the
/// configuration: the sweep's shape (profile, circuit seed, scheme,
/// instance count, key range, master seed) plus a hash of
/// [`dataset::label_fingerprint`], the same fields the checkpoint log's
/// instance keys fingerprint. Two configurations that would label an
/// instance differently therefore never share a cache file.
pub fn dataset_cache_path(config: &dataset::DatasetConfig, out_dir: &str) -> String {
    let label = faults::fnv1a(
        faults::FNV_OFFSET,
        dataset::label_fingerprint(config).as_bytes(),
    );
    format!(
        "{out_dir}/dataset_{}_{}_{}_{}_{}_{}_{}_{label:016x}.csv",
        config.profile,
        config.circuit_seed,
        config.scheme,
        config.num_instances,
        config.key_range.0,
        config.key_range.1,
        config.seed,
    )
}

/// Generates the dataset for `config` on `jobs` workers (the `--jobs` /
/// `--resume` flags), or loads it from a CSV cache under `out_dir` when an
/// identical configuration was generated before. The dataset is
/// byte-identical for every `jobs` value and for any
/// interrupted-then-resumed schedule; the per-worker sweep report is
/// printed to stderr when generation runs.
///
/// Under `--keep-going` (the default) a sweep with quarantined instances
/// still succeeds, yielding the healthy subset of labels — possibly none:
/// SAT-resilient schemes under tight deadlines can quarantine a whole
/// corpus. The quarantine count is `config.num_instances -
/// instances.len()` (0 on a cache hit). A partial dataset is deliberately
/// *not* CSV-cached as complete — its instance count differs from
/// `config.num_instances`, so the next run misses the cache and retries
/// via the checkpoint log (which skips known-bad instances cheaply).
///
/// An unreadable or corrupt cache file is a logged cache miss, not an
/// error: the dataset regenerates. The cache is footer-sealed and written
/// with `faults::sealed::write_atomic` (fault site `cache.write`), so a
/// crash mid-write leaves no cache rather than a torn one.
///
/// A Ctrl-C during generation exits with [`crate::cli::INTERRUPT_EXIT_CODE`]
/// after the sweep has checkpointed its finished attacks.
///
/// # Panics
///
/// Panics when generation fails (bad profile/range, `--no-keep-going`
/// quarantine) or a checkpoint file is corrupt — setup errors for an
/// experiment binary.
pub fn load_or_generate(
    config: &dataset::DatasetConfig,
    out_dir: &str,
    jobs: usize,
    resume: Option<&str>,
) -> Dataset {
    let path = dataset_cache_path(config, out_dir);
    if let Ok(bytes) = std::fs::read(&path) {
        let parsed = unseal_csv(&bytes)
            .and_then(|body| dataset::dataset_from_csv(body).map_err(|e| e.to_string()));
        match parsed {
            Ok(instances) if instances.len() == config.num_instances => {
                eprintln!("# reusing cached dataset {path}");
                obs::emit(obs::EventKind::Cache {
                    hit: true,
                    path: path.clone(),
                });
                let circuit = dataset::sweep_circuit(config).expect("valid sweep configuration");
                return Dataset { circuit, instances };
            }
            Ok(_) => {} // partial dataset from a keep-going run: regenerate
            Err(e) => {
                // Damaged on disk or edited by hand: regenerating is always
                // safe.
                eprintln!("# WARNING: ignoring corrupt dataset cache {path}: {e}");
            }
        }
    }
    obs::emit(obs::EventKind::Cache {
        hit: false,
        path: path.clone(),
    });
    let mut checkpoint = resume.map(|p| {
        let log = dataset::CheckpointLog::open(p).expect("usable checkpoint log");
        if !log.is_empty() {
            eprintln!("# resuming from {} ({} instances on record)", p, log.len());
        }
        log
    });
    let (data, report) = match dataset::generate_parallel_with(config, jobs, checkpoint.as_mut()) {
        Ok(pair) => pair,
        Err(dataset::DatasetError::Interrupted) => {
            // First SIGINT: the sweep drained its workers and checkpointed
            // every finished attack; this is the graceful shutdown path.
            eprintln!("# interrupted during generation: progress checkpointed; rerun to resume");
            crate::cli::finish_observability();
            std::process::exit(crate::cli::INTERRUPT_EXIT_CODE);
        }
        Err(e) => panic!("dataset generation: {e}"),
    };
    eprint!("{}", report.summary());
    if report.quarantined() > 0 {
        eprintln!(
            "# WARNING: {} instance(s) quarantined; proceeding with {} of {} labels",
            report.quarantined(),
            data.instances.len(),
            config.num_instances
        );
    }
    if data.instances.is_empty() {
        eprintln!(
            "# WARNING: every instance was quarantined — nothing to train on; raise --deadline, \
             add --retries, or inspect the failures above"
        );
    } else if let Err(e) = faults::sealed::write_atomic(
        &path,
        seal_csv(&dataset::dataset_to_csv(&data.instances)).as_bytes(),
        "cache.write",
    ) {
        eprintln!("# WARNING: could not write dataset cache {path}: {e}");
    }
    data
}

/// The dataset cache's footer tag: the last line is `#fnv <crc:016x>`.
const CACHE_FOOTER_TAG: &str = "#fnv ";

/// Seals a CSV cache body with its checksum footer.
pub fn seal_csv(body: &str) -> String {
    faults::sealed::seal_footer(body, CACHE_FOOTER_TAG)
}

/// Verifies a cache file's bytes and returns the CSV body, or the error to
/// log as a cache miss (regenerating is always safe).
pub fn unseal_csv<T: AsRef<[u8]> + ?Sized>(bytes: &T) -> Result<&str, String> {
    faults::sealed::unseal_footer(bytes.as_ref(), CACHE_FOOTER_TAG).map_err(|e| e.to_string())
}

/// One cell of a results table.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// Method row label (e.g. `"SVR RBF"`, `"ICNet-NN"`).
    pub method: String,
    /// Feature-set column group.
    pub feature_set: FeatureSet,
    /// Aggregation column (`"Sum"`, `"Mean"`, or `"NN"`).
    pub aggregation: String,
    /// Test-set MSE on log-runtime, or `None` when the method was not
    /// applicable (the paper's `N/A` cells).
    pub mse: Option<f64>,
    /// Why the method was N/A, when it was.
    pub note: String,
}

/// Selects the rows of `x` indexed by `idx`.
pub fn take_rows(x: &Matrix, idx: &[usize]) -> Matrix {
    Matrix::from_fn(idx.len(), x.cols(), |r, c| x.get(idx[r], c))
}

/// Selects the entries of `y` indexed by `idx`.
pub fn take(y: &[f64], idx: &[usize]) -> Vec<f64> {
    idx.iter().map(|&i| y[i]).collect()
}

/// Evaluates every classical baseline on the flat encoding for one
/// (feature set, aggregation) setting.
pub fn evaluate_baselines(
    data: &Dataset,
    split: &Split,
    roster: &[BaselineKind],
    fs: FeatureSet,
    agg: FlatAggregation,
) -> Vec<EvalResult> {
    let x = flat_features(
        &data.circuit,
        &data.instances,
        fs,
        StructureEncoding::Adjacency,
        agg,
    );
    let y = data.labels();
    let x_train = take_rows(&x, &split.train);
    let y_train = take(&y, &split.train);
    let x_test = take_rows(&x, &split.test);
    let y_test = take(&y, &split.test);

    roster
        .iter()
        .map(|kind| {
            let mut model = kind.build(&x_train);
            match model.fit(&x_train, &y_train) {
                Ok(()) => {
                    let pred = model.predict(&x_test);
                    EvalResult {
                        method: kind.label().to_owned(),
                        feature_set: fs,
                        aggregation: agg.label().to_owned(),
                        mse: Some(metrics::mse(&pred, &y_test)),
                        note: String::new(),
                    }
                }
                Err(e) => EvalResult {
                    method: kind.label().to_owned(),
                    feature_set: fs,
                    aggregation: agg.label().to_owned(),
                    mse: None,
                    note: e.to_string(),
                },
            }
        })
        .collect()
}

/// A trained GNN bundled with its graph operator and the label scaling used
/// during training, predicting in original (log-seconds) units.
#[derive(Debug, Clone)]
pub struct TrainedGnn {
    /// The fitted model.
    pub model: GraphModel,
    /// The graph operator it was trained with.
    pub op: Arc<tensor::CsrMatrix>,
    /// Feature set the model expects.
    pub feature_set: FeatureSet,
    y_mean: f64,
    y_std: f64,
}

impl TrainedGnn {
    /// Predicts the log-runtime of one instance (original label units).
    pub fn predict(&self, x: &Matrix) -> f64 {
        self.model.predict(&self.op, x) * self.y_std + self.y_mean
    }

    /// Learned feature-attention distribution (see
    /// [`GraphModel::feature_attention`]).
    pub fn feature_attention(&self) -> Option<Vec<f64>> {
        self.model.feature_attention()
    }
}

/// The experiment binaries' training preset: `epochs` epochs at learning
/// rate 5e-3, every other field at its [`TrainConfig::default`].
pub fn train_config(epochs: usize) -> TrainConfig {
    TrainConfig {
        max_epochs: epochs,
        lr: 5e-3,
        ..TrainConfig::default()
    }
}

/// The training core: fits one GNN configuration on the instances of
/// `data` indexed by `train_idx` under `config` (whose `control` adds
/// cooperative interruption and crash-safe epoch checkpoints, see
/// [`icnet::train`]), and returns the fitted model with its training report. Shared by
/// [`evaluate_gnn`] (which evaluates on the same dataset's test split) and
/// the cross-scheme study (which evaluates the returned model on *other*
/// schemes' datasets via [`eval_gnn_metrics`]).
///
/// Labels are standardized (zero mean, unit variance on the training set)
/// for the optimization; [`TrainedGnn::predict`] un-standardizes, which
/// keeps every method's MSE on the same scale.
pub fn train_gnn(
    data: &Dataset,
    train_idx: &[usize],
    kind: ModelKind,
    agg: Aggregation,
    fs: FeatureSet,
    config: &TrainConfig,
    seed: u64,
) -> (TrainedGnn, icnet::TrainReport) {
    let graph = icnet::CircuitGraph::from_circuit(&data.circuit);
    let op = Arc::new(kind.operator(&graph));
    let y = data.labels();

    let y_train_raw = take(&y, train_idx);
    let y_mean = y_train_raw.iter().sum::<f64>() / y_train_raw.len() as f64;
    let y_var = y_train_raw
        .iter()
        .map(|v| (v - y_mean) * (v - y_mean))
        .sum::<f64>()
        / y_train_raw.len() as f64;
    let y_std = y_var.sqrt().max(1e-9);
    let y_train: Vec<f64> = y_train_raw.iter().map(|v| (v - y_mean) / y_std).collect();

    let hidden = 16;
    let mut model = GraphModel::new(kind, agg, fs.width(), hidden, hidden, seed);
    let xs_train: Vec<Matrix> = train_idx
        .iter()
        .map(|&i| icnet::encode_features(&data.circuit, &data.instances[i].selected, fs))
        .collect();
    let report = icnet::train(&mut model, &op, &xs_train, &y_train, config);

    (
        TrainedGnn {
            model,
            op,
            feature_set: fs,
            y_mean,
            y_std,
        },
        report,
    )
}

/// Metrics of a trained GNN on the instances of `data` indexed by `idx`:
/// `(MSE, Pearson r)` in original log-runtime units. The dataset need not
/// be the one the model was trained on — this is the evaluation half of a
/// cross-scheme cell — but its circuit must have the same gate count (the
/// graph operator is baked into the model).
pub fn eval_gnn_metrics(trained: &TrainedGnn, data: &Dataset, idx: &[usize]) -> (f64, f64) {
    let y = data.labels();
    let pred: Vec<f64> = idx
        .iter()
        .map(|&i| {
            let x = icnet::encode_features(
                &data.circuit,
                &data.instances[i].selected,
                trained.feature_set,
            );
            trained.predict(&x)
        })
        .collect();
    let y_eval = take(&y, idx);
    (
        metrics::mse(&pred, &y_eval),
        metrics::pearson(&pred, &y_eval),
    )
}

/// Trains one GNN configuration on `split.train` ([`train_gnn`]) and
/// evaluates it on `split.test`; returns the result and the trained model
/// (for attention introspection and Figure 3 series). A diverged or
/// interrupted cell reports the paper-style N/A — its parameters must not
/// masquerade as a converged MSE.
pub fn evaluate_gnn(
    data: &Dataset,
    split: &Split,
    kind: ModelKind,
    agg: Aggregation,
    fs: FeatureSet,
    config: &TrainConfig,
    seed: u64,
) -> (EvalResult, TrainedGnn) {
    let (trained, report) = train_gnn(data, &split.train, kind, agg, fs, config, seed);
    let suffix = if agg == Aggregation::Nn { "-NN" } else { "" };
    let method = format!("{}{}", kind.label(), suffix);
    if let Some(e) = &report.checkpoint_error {
        eprintln!("# WARNING: could not checkpoint {method} training: {e}");
    }
    // A diverged or interrupted run has no meaningful test MSE — report the
    // paper-style N/A cell instead of evaluating its parameters.
    let (mse, note) = if report.diverged {
        let note = format!("diverged: non-finite loss in epoch {}", report.epochs_run);
        (None, note)
    } else if report.interrupted {
        (
            None,
            format!("interrupted after epoch {}", report.epochs_run),
        )
    } else {
        let (mse, _pearson) = eval_gnn_metrics(&trained, data, &split.test);
        (Some(mse), String::new())
    };
    let result = EvalResult {
        method,
        feature_set: fs,
        aggregation: agg.label().to_owned(),
        mse,
        note,
    };
    (result, trained)
}

/// One independently evaluable cell of the Table I/II grid.
#[derive(Debug, Clone, Copy)]
enum SuiteCell {
    Baselines {
        fs: FeatureSet,
        agg: FlatAggregation,
    },
    Gnn {
        kind: ModelKind,
        fs: FeatureSet,
        agg: Aggregation,
    },
}

impl SuiteCell {
    /// The full grid, in the order the serial suite has always emitted it:
    /// the four baseline groups, then the 18 GNN configurations.
    fn grid() -> Vec<SuiteCell> {
        let mut cells = Vec::new();
        for fs in [FeatureSet::Location, FeatureSet::All] {
            for agg in [FlatAggregation::Sum, FlatAggregation::Mean] {
                cells.push(SuiteCell::Baselines { fs, agg });
            }
        }
        for kind in [
            ModelKind::ChebNet { k: 3 },
            ModelKind::Gcn,
            ModelKind::ICNet,
        ] {
            for fs in [FeatureSet::Location, FeatureSet::All] {
                for agg in [Aggregation::Sum, Aggregation::Mean, Aggregation::Nn] {
                    cells.push(SuiteCell::Gnn { kind, fs, agg });
                }
            }
        }
        cells
    }

    /// Human-readable cell label (method / feature set / aggregation), used
    /// in progress lines and per-cell observability events.
    fn label(self) -> String {
        match self {
            SuiteCell::Baselines { fs, agg } => {
                format!("baselines {} / {}", fs.label(), agg.label())
            }
            SuiteCell::Gnn { kind, fs, agg } => {
                format!("{} {} / {}", kind.label(), fs.label(), agg.label())
            }
        }
    }

    fn evaluate(
        self,
        data: &Dataset,
        split: &Split,
        roster: &[BaselineKind],
        epochs: usize,
        seed: u64,
        control: &SuiteControl,
    ) -> Vec<EvalResult> {
        let label = self.label();
        eprintln!("#   {label} ...");
        let observing = obs::enabled();
        let cell_started = observing.then(std::time::Instant::now);
        if observing {
            obs::emit(obs::EventKind::CellStarted {
                label: label.clone(),
            });
        }
        let results = match self {
            SuiteCell::Baselines { fs, agg } => evaluate_baselines(data, split, roster, fs, agg),
            SuiteCell::Gnn { kind, fs, agg } => {
                let config = TrainConfig {
                    control: control.train_control(&label, dataset_tag(data)),
                    ..train_config(epochs)
                };
                let (result, _) = evaluate_gnn(data, split, kind, agg, fs, &config, seed);
                vec![result]
            }
        };
        if observing {
            obs::emit(obs::EventKind::CellFinished {
                label,
                wall_ns: cell_started
                    .map(|t| t.elapsed().as_nanos() as u64)
                    .unwrap_or(0),
            });
        }
        results
    }
}

/// Runtime controls for the evaluation suite: cooperative interruption (the
/// workers stop claiming cells, training stops at an epoch boundary) and
/// per-cell crash-safe training checkpoints.
#[derive(Debug, Clone, Default)]
pub struct SuiteControl {
    /// Interrupt token polled between cells and between training epochs.
    pub cancel: Option<budget::CancelToken>,
    /// Directory receiving one training checkpoint per GNN cell (named by
    /// the cell's label slug plus a dataset tag); `None` disables training
    /// checkpoints.
    pub train_checkpoint_dir: Option<String>,
}

impl SuiteControl {
    fn train_control(&self, label: &str, dataset_tag: u64) -> icnet::TrainControl {
        icnet::TrainControl {
            cancel: self.cancel.clone(),
            checkpoint: self
                .train_checkpoint_dir
                .as_ref()
                .map(|dir| icnet::TrainCheckpointSpec {
                    // The tag keys the file to the exact training set. A
                    // resumed sweep whose dataset changed under it — e.g.
                    // a raised memory budget turned quarantined instances
                    // into fresh labels — starts those cells from scratch
                    // instead of tripping the trainer's fingerprint guard
                    // on a checkpoint from the smaller dataset.
                    path: format!("{dir}/{}-{dataset_tag:016x}.ckpt", slug(label)),
                    resume: true,
                }),
        }
    }
}

/// Deterministic tag of a dataset's supervision: instance count plus every
/// log-runtime label, in order. Two runs see the same tag iff training
/// would see the same targets.
fn dataset_tag(data: &Dataset) -> u64 {
    let mut h = faults::fnv1a(faults::FNV_OFFSET, &data.instances.len().to_le_bytes());
    for label in data.labels() {
        h = faults::fnv1a(h, &label.to_bits().to_le_bytes());
    }
    h
}

/// Filesystem-safe slug of a cell label (`"ICNet All feat / NN"` →
/// `"icnet-all-feat---nn"`).
fn slug(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

/// The full Table I/II sweep: every baseline and every GNN under both
/// feature sets and both fixed aggregations, plus the `-NN` variants, with
/// the (method × feature-set × aggregation) grid fanned out across `jobs`
/// worker threads.
///
/// Every cell is self-contained (it builds its own features, operator, and
/// seeded model) and its results land in the slot of its grid position, so
/// the output is numerically identical for every `jobs` value — only the
/// wall clock and the interleaving of progress lines change.
///
/// When `control`'s interrupt token trips, workers finish their current
/// cell and stop claiming new ones; the completed cells are returned in
/// grid order (the caller decides whether a partial grid is worth
/// rendering — the binaries exit with the interrupt status instead).
pub fn run_mse_suite(
    data: &Dataset,
    roster: &[BaselineKind],
    epochs: usize,
    seed: u64,
    jobs: usize,
    control: &SuiteControl,
) -> Vec<EvalResult> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let split = train_test_split(data.instances.len(), 0.25, seed);
    let cells = SuiteCell::grid();
    let jobs = jobs.clamp(1, cells.len());
    let slots: Mutex<Vec<Option<Vec<EvalResult>>>> = Mutex::new(vec![None; cells.len()]);
    let next = AtomicUsize::new(0);
    let interrupted = || {
        control
            .cancel
            .as_ref()
            .is_some_and(budget::CancelToken::is_cancelled)
    };
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                if interrupted() {
                    break;
                }
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= cells.len() {
                    break;
                }
                let out = cells[k].evaluate(data, &split, roster, epochs, seed, control);
                slots.lock().expect("suite worker panicked")[k] = Some(out);
            });
        }
    });
    let slots = slots.into_inner().expect("suite worker panicked");
    if interrupted() {
        return slots.into_iter().flatten().collect::<Vec<_>>().concat();
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every suite cell evaluated"))
        .collect::<Vec<_>>()
        .concat()
}

/// Percentage of attack runtime saved by predicting it instead of running
/// the attack: `100 * (1 - inference / attack)`, the paper's §IV-C claim
/// (~1.13 s of inference against up to 2411 s of solver time ≈ 99.95 %).
///
/// Returns 0.0 when `attack_seconds` is not a positive finite number — a
/// zero-cost attack has nothing to save, and NaN must not leak into report
/// output.
pub fn percent_saved(inference_seconds: f64, attack_seconds: f64) -> f64 {
    if attack_seconds <= 0.0 || !attack_seconds.is_finite() || !inference_seconds.is_finite() {
        return 0.0;
    }
    100.0 * (1.0 - inference_seconds / attack_seconds)
}

/// Formats an MSE value the way the paper's tables do.
pub fn format_mse(v: Option<f64>) -> String {
    match v {
        None => "N/A".to_owned(),
        Some(v) if !v.is_finite() => "inf".to_owned(),
        Some(v) if v != 0.0 && (v.abs() >= 1e4 || v.abs() < 1e-3) => format!("{v:.4e}"),
        Some(v) => format!("{v:.4}"),
    }
}

/// Renders the Table I/II layout: one row per method, column groups
/// `Location {Sum, Mean}` and `All feat {Sum, Mean}`; `-NN` rows carry one
/// value per feature-set group.
pub fn format_table(results: &[EvalResult]) -> String {
    use std::fmt::Write as _;
    let mut rows: Vec<String> = Vec::new();
    for r in results {
        if !rows.contains(&r.method) {
            rows.push(r.method.clone());
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "Method", "Loc/Sum", "Loc/Mean", "All/Sum", "All/Mean"
    );
    let cell = |method: &str, fs: FeatureSet, agg: &str| -> String {
        results
            .iter()
            .find(|r| r.method == method && r.feature_set == fs && r.aggregation == agg)
            .map(|r| format_mse(r.mse))
            .unwrap_or_default()
    };
    for method in rows {
        if method.ends_with("-NN") {
            let loc = cell(&method, FeatureSet::Location, "NN");
            let all = cell(&method, FeatureSet::All, "NN");
            let _ = writeln!(out, "{method:<12} {loc:>25} {all:>25}");
        } else {
            let _ = writeln!(
                out,
                "{:<12} {:>12} {:>12} {:>12} {:>12}",
                method,
                cell(&method, FeatureSet::Location, "Sum"),
                cell(&method, FeatureSet::Location, "Mean"),
                cell(&method, FeatureSet::All, "Sum"),
                cell(&method, FeatureSet::All, "Mean"),
            );
        }
    }
    out
}

/// Serializes results as CSV (for EXPERIMENTS.md bookkeeping).
pub fn results_to_csv(results: &[EvalResult]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("method,feature_set,aggregation,mse,note\n");
    for r in results {
        let _ = writeln!(
            out,
            "{},{},{},{},{}",
            r.method,
            r.feature_set.label(),
            r.aggregation,
            r.mse.map(|v| v.to_string()).unwrap_or_else(|| "NA".into()),
            r.note.replace(',', ";")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::{generate_parallel_with, DatasetConfig};

    fn tiny_dataset() -> Dataset {
        let mut config = DatasetConfig::quick_demo();
        config.num_instances = 12;
        generate_parallel_with(&config, 1, None)
            .expect("demo dataset generates")
            .0
    }

    #[test]
    fn take_rows_selects() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let sub = take_rows(&x, &[2, 0]);
        assert_eq!(sub, Matrix::from_rows(&[&[5.0, 6.0], &[1.0, 2.0]]));
        assert_eq!(take(&[10.0, 20.0, 30.0], &[1]), vec![20.0]);
    }

    #[test]
    fn baselines_evaluate_on_a_real_dataset() {
        let data = tiny_dataset();
        let split = train_test_split(data.instances.len(), 0.25, 1);
        let results = evaluate_baselines(
            &data,
            &split,
            &[BaselineKind::Lr, BaselineKind::Rr, BaselineKind::Theil],
            FeatureSet::All,
            FlatAggregation::Mean,
        );
        assert_eq!(results.len(), 3);
        // LR and RR produce finite MSE; Theil is N/A here (too few samples
        // for the ~200-dim flat encoding), matching the paper's N/A cells.
        assert!(results[0].mse.is_some());
        assert!(results[1].mse.is_some());
        assert!(results[2].mse.is_none());
        assert!(results[2].note.contains("degenerate"));
    }

    #[test]
    fn gnn_evaluates_on_a_real_dataset() {
        let data = tiny_dataset();
        let split = train_test_split(data.instances.len(), 0.25, 1);
        let (result, model) = evaluate_gnn(
            &data,
            &split,
            ModelKind::ICNet,
            Aggregation::Nn,
            FeatureSet::All,
            &train_config(10),
            1,
        );
        assert!(result.mse.expect("gnn always fits").is_finite());
        assert_eq!(result.method, "ICNet-NN");
        assert!(model.feature_attention().is_some());
    }

    #[test]
    fn diverged_training_reports_na_cell() {
        // An absurd learning rate overflows the squared residual after the
        // first optimizer step; the cell must come back as the paper-style
        // N/A instead of a NaN MSE.
        let data = tiny_dataset();
        let split = train_test_split(data.instances.len(), 0.25, 1);
        let config = TrainConfig {
            max_epochs: 10,
            lr: 1e80,
            ..TrainConfig::default()
        };
        let (result, _) = evaluate_gnn(
            &data,
            &split,
            ModelKind::ICNet,
            Aggregation::Sum,
            FeatureSet::All,
            &config,
            1,
        );
        assert!(result.mse.is_none(), "diverged run must be N/A");
        assert!(result.note.contains("diverged"), "note: {}", result.note);
        assert_eq!(format_mse(result.mse), "N/A");
    }

    #[test]
    fn suite_results_are_independent_of_jobs() {
        let data = tiny_dataset();
        let roster = [BaselineKind::Lr, BaselineKind::Rr];
        let control = SuiteControl::default();
        let serial = run_mse_suite(&data, &roster, 3, 1, 1, &control);
        let parallel = run_mse_suite(&data, &roster, 3, 1, 4, &control);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.method, b.method);
            assert_eq!(a.feature_set, b.feature_set);
            assert_eq!(a.aggregation, b.aggregation);
            assert_eq!(
                a.mse,
                b.mse,
                "{} {} {}",
                a.method,
                a.feature_set.label(),
                a.aggregation
            );
            assert_eq!(a.note, b.note);
        }
    }

    #[test]
    fn corrupt_cache_is_a_miss_not_a_panic() {
        // A crash mid-write used to leave a torn CSV that the next run
        // `expect`ed into a panic; now it must log, regenerate, and replace
        // the cache atomically.
        let mut config = DatasetConfig::quick_demo();
        config.num_instances = 4;
        let out_dir = std::env::temp_dir()
            .join(format!("bench-cache-test-{}", std::process::id()))
            .display()
            .to_string();
        std::fs::create_dir_all(&out_dir).unwrap();
        let path = dataset_cache_path(&config, &out_dir);
        std::fs::write(&path, "selected,key_bits,iter").unwrap(); // torn header

        let data = load_or_generate(&config, &out_dir, 1, None);
        assert_eq!(data.instances.len(), 4);
        // The cache was rewritten with a complete, checksummed dataset...
        let text = std::fs::read_to_string(&path).unwrap();
        let body = unseal_csv(&text).expect("rewritten cache is sealed");
        let reloaded = dataset::dataset_from_csv(body).expect("rewritten cache parses");
        assert_eq!(reloaded, data.instances);
        // ...and a second load is a clean cache hit with identical labels.
        let again = load_or_generate(&config, &out_dir, 1, None);
        assert_eq!(again.instances, data.instances);
        // No temp file left behind by the atomic write.
        assert!(!std::path::Path::new(&format!("{path}.tmp.{}", std::process::id())).exists());
        let _ = std::fs::remove_dir_all(&out_dir);
    }

    #[test]
    fn cache_path_separates_every_label_relevant_field() {
        // A label depends on the per-solve conflict cap and the runtime
        // measure as much as on the work budget: configs differing only
        // there must never share a cache file (a wrong-label cache hit).
        let config = DatasetConfig::quick_demo();
        let path = dataset_cache_path(&config, "out");
        assert_eq!(path, dataset_cache_path(&config.clone(), "out"));
        let mut capped = config.clone();
        capped.attack.conflicts_per_solve = Some(99);
        assert_ne!(path, dataset_cache_path(&capped, "out"), "conflict cap");
        let mut wall = config.clone();
        wall.measure = attack::RuntimeMeasure::WallClock;
        assert_ne!(path, dataset_cache_path(&wall, "out"), "runtime measure");
        let mut budget = config.clone();
        budget.attack.work_budget = Some(1);
        assert_ne!(path, dataset_cache_path(&budget, "out"), "work budget");
        // Supervision-only fields never change a label, so they share it.
        let mut deadline = config.clone();
        deadline.attack.deadline = Some(std::time::Duration::from_secs(1));
        assert_eq!(path, dataset_cache_path(&deadline, "out"), "deadline");
    }

    #[test]
    fn seal_round_trips_and_flags_a_flipped_byte() {
        let body = "method,mse\nLR,0.28\n";
        let sealed = seal_csv(body);
        assert_eq!(unseal_csv(&sealed).expect("clean seal verifies"), body);
        // Flip one payload byte: the footer must catch it.
        let mut bytes = sealed.into_bytes();
        bytes[8] ^= 0x01;
        let torn = String::from_utf8(bytes).unwrap();
        let err = unseal_csv(&torn).expect_err("flipped byte detected");
        assert!(err.contains("checksum mismatch"), "err: {err}");
        // Files that predate the footer (or lost their tail) are a distinct,
        // equally non-fatal miss.
        let err = unseal_csv(body).expect_err("missing footer detected");
        assert!(err.contains("missing checksum footer"), "err: {err}");
    }

    #[test]
    fn flipped_cache_byte_is_a_logged_miss_not_a_panic() {
        // Satellite of the fault-injection PR: a bit flip anywhere in a
        // cached dataset CSV must downgrade to a cache miss + regeneration
        // with identical labels, never a wrong-label cache hit.
        let mut config = DatasetConfig::quick_demo();
        config.num_instances = 4;
        let out_dir = std::env::temp_dir()
            .join(format!("bench-cache-flip-test-{}", std::process::id()))
            .display()
            .to_string();
        std::fs::create_dir_all(&out_dir).unwrap();
        let data = load_or_generate(&config, &out_dir, 1, None);

        let path = dataset_cache_path(&config, &out_dir);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] = if bytes[mid] == b'1' { b'2' } else { b'1' };
        std::fs::write(&path, &bytes).unwrap();

        let again = load_or_generate(&config, &out_dir, 1, None);
        assert_eq!(again.instances, data.instances, "regenerated, not trusted");
        let text = std::fs::read_to_string(&path).unwrap();
        unseal_csv(&text).expect("cache re-sealed after the miss");
        let _ = std::fs::remove_dir_all(&out_dir);
    }

    #[test]
    fn suite_control_slugs_cell_labels() {
        let ctl = SuiteControl {
            cancel: None,
            train_checkpoint_dir: Some("out/train".to_owned()),
        };
        let tc = ctl.train_control("ICNet All feat / NN", 0xDEAD_BEEF);
        let spec = tc.checkpoint.expect("checkpoint configured");
        assert_eq!(
            spec.path,
            "out/train/icnet-all-feat---nn-00000000deadbeef.ckpt"
        );
        assert!(spec.resume, "suite checkpoints always resume");
        assert!(ctl.train_control("x", 0).cancel.is_none());
    }

    #[test]
    fn percent_saved_matches_paper_claim() {
        // §IV-C: ~1.13 s of inference against 2411 s of attack ≈ 99.95 %.
        let saved = percent_saved(1.13, 2411.0);
        assert!((saved - 99.95).abs() < 0.005, "saved = {saved}");
        assert_eq!(percent_saved(0.0, 100.0), 100.0);
        assert_eq!(percent_saved(100.0, 100.0), 0.0);
        // Inference slower than the attack: negative savings, not clamped.
        assert!(percent_saved(2.0, 1.0) < 0.0);
    }

    #[test]
    fn percent_saved_degenerate_inputs_yield_zero() {
        // Instant or unmeasured attacks and non-finite inputs must not
        // produce NaN/inf in report output.
        assert_eq!(percent_saved(1.0, 0.0), 0.0);
        assert_eq!(percent_saved(1.0, -5.0), 0.0);
        assert_eq!(percent_saved(1.0, f64::NAN), 0.0);
        assert_eq!(percent_saved(f64::NAN, 10.0), 0.0);
        assert_eq!(percent_saved(1.0, f64::INFINITY), 0.0);
        assert!(percent_saved(1e-9, 1e-9).abs() < 1e-6);
    }

    #[test]
    fn formatting_matches_paper_style() {
        assert_eq!(format_mse(None), "N/A");
        assert_eq!(format_mse(Some(0.0843)), "0.0843");
        assert_eq!(format_mse(Some(2.145e25)), "2.1450e25");
        assert_eq!(format_mse(Some(0.0)), "0.0000");
    }

    #[test]
    fn table_renders_all_methods() {
        let results = vec![
            EvalResult {
                method: "LR".into(),
                feature_set: FeatureSet::Location,
                aggregation: "Sum".into(),
                mse: Some(0.28),
                note: String::new(),
            },
            EvalResult {
                method: "ICNet-NN".into(),
                feature_set: FeatureSet::Location,
                aggregation: "NN".into(),
                mse: Some(0.0843),
                note: String::new(),
            },
        ];
        let table = format_table(&results);
        assert!(table.contains("LR"));
        assert!(table.contains("ICNet-NN"));
        assert!(table.contains("0.0843"));
        let csv = results_to_csv(&results);
        assert!(csv.lines().count() == 3);
    }
}
