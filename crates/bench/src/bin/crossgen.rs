//! Cross-scheme generalization study: train ICNet on locking scheme A,
//! evaluate on scheme B, over every ordered scheme pair plus a pooled
//! training row, in a Table-II-style grid of test-set MSE / Pearson r.
//!
//! ```text
//! cargo run -p bench --release --bin crossgen -- \
//!     [--schemes xor,mux,lut4,antisat] [--key-width 5] [--quick ...]
//! ```
//!
//! Every scheme sweeps the *same* circuit with an equal total key-bit
//! budget: a scheme locking `b` key bits per gate draws its per-instance
//! gate count from `1..=max(1, keys_max / b)` (clamped to the scheme's
//! eligible gates), so a `xor` row and an `antisat` row see comparable key
//! material and the grid isolates the *structural* generalization gap.
//! Results are written to `<out>/BENCH_crossgen.json`; quarantined-out
//! schemes (e.g. Anti-SAT under a tight `--deadline`) render as N/A cells
//! instead of aborting the grid, and re-running with a raised `--deadline`
//! under the same `--resume` log re-attacks exactly those instances.

use bench::cli::{self, Options};
use bench::harness::{eval_gnn_metrics, format_mse, load_or_generate, train_gnn, TrainedGnn};
use dataset::{train_test_split, Dataset, DatasetConfig, Split};
use icnet::{Aggregation, FeatureSet, ModelKind};
use obfuscate::SchemeKind;
use std::fmt::Write as _;
use std::time::Instant;

/// Fewest labeled instances a scheme needs before a 25 % test split still
/// leaves something to train on.
const MIN_INSTANCES: usize = 4;

fn parse_scheme(name: &str, key_width: usize) -> SchemeKind {
    match name {
        "xor" => SchemeKind::XorLock,
        "mux" => SchemeKind::MuxLock,
        "antisat" => SchemeKind::AntiSat { key_width },
        other => {
            if let Some(k) = other.strip_prefix("lut").and_then(|s| s.parse().ok()) {
                return SchemeKind::LutLock { lut_size: k };
            }
            eprintln!("unknown scheme `{other}` (expected xor, mux, lut<k>, or antisat)");
            std::process::exit(2);
        }
    }
}

/// One scheme's corpus plus everything derived from it.
struct SchemeRun {
    label: String,
    data: Dataset,
    quarantined: usize,
    key_range: (usize, usize),
    /// `None` when too few labels survived to split.
    split: Option<Split>,
    /// `None` when the scheme had no split or its training diverged.
    trained: Option<TrainedGnn>,
    note: String,
}

impl SchemeRun {
    fn median_of(&self, f: impl Fn(&dataset::Instance) -> f64) -> Option<f64> {
        let mut vals: Vec<f64> = self.data.instances.iter().map(f).collect();
        if vals.is_empty() {
            return None;
        }
        vals.sort_by(|a, b| a.partial_cmp(b).expect("finite stats"));
        let mid = vals.len() / 2;
        Some(if vals.len() % 2 == 1 {
            vals[mid]
        } else {
            (vals[mid - 1] + vals[mid]) / 2.0
        })
    }
}

/// One cell of the generalization grid.
struct Cell {
    train: String,
    eval: String,
    mse: Option<f64>,
    pearson: Option<f64>,
    n: usize,
}

fn json_num(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "null".to_owned(),
    }
}

fn main() {
    let mut key_width = 5usize;
    let mut scheme_list = "xor,mux,lut4,antisat".to_owned();
    let opts = Options::parse_extended(
        std::env::args().skip(1),
        "--key-width <w> --schemes <csv>",
        |flag, value| match flag {
            "--key-width" => {
                key_width = value("--key-width").parse().expect("usize key-width");
                true
            }
            "--schemes" => {
                scheme_list = value("--schemes");
                true
            }
            _ => false,
        },
    );
    opts.init_runtime();
    let schemes: Vec<(String, SchemeKind)> = scheme_list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|name| {
            let kind = parse_scheme(name, key_width);
            (kind.to_string(), kind)
        })
        .collect();
    assert!(
        !schemes.is_empty(),
        "--schemes must name at least one scheme"
    );

    println!("# Cross-scheme generalization — ICNet-NN / All features");
    println!(
        "# profile={} instances={} keys_max={} key_width={} budget={} epochs={} schemes={}",
        opts.profile,
        opts.instances,
        opts.keys_max,
        key_width,
        opts.budget,
        opts.epochs,
        schemes
            .iter()
            .map(|(l, _)| l.as_str())
            .collect::<Vec<_>>()
            .join(",")
    );

    // ---- Stage 1: one dataset sweep per scheme (shared checkpoint log) ----
    let t0 = Instant::now();
    let generate_stage = obs::stage("generate");
    let circuit = synth::iscas::circuit(&opts.profile, 0).expect("known circuit profile");
    let mut runs: Vec<SchemeRun> = Vec::new();
    for (label, kind) in &schemes {
        let mut config = DatasetConfig::dataset1(&opts.profile, opts.instances);
        opts.configure(&mut config);
        config.scheme = *kind;
        // Equal-key-bits comparison: a scheme spending b key bits per locked
        // gate sweeps 1..=keys_max/b gates, clamped to its eligible sites.
        let eligible = obfuscate::eligible_gates(&circuit, *kind).len();
        let gates_max = (opts.keys_max / kind.key_bits_per_gate().max(1)).clamp(1, eligible.max(1));
        config.key_range = (1, gates_max);
        eprintln!("# sweeping {label} (key range 1..={gates_max}, {eligible} eligible gates)");
        let data = load_or_generate(&config, &opts.out_dir, opts.jobs, opts.resume.as_deref());
        cli::exit_if_interrupted();
        let n = data.instances.len();
        let quarantined = config.num_instances - n;
        let split = (n >= MIN_INSTANCES).then(|| train_test_split(n, 0.25, opts.seed));
        let note = if split.is_none() {
            format!("only {n} labels survived (need {MIN_INSTANCES}); raise --deadline / --retries")
        } else {
            String::new()
        };
        if !note.is_empty() {
            eprintln!("# WARNING: {label}: {note}");
        }
        runs.push(SchemeRun {
            label: label.clone(),
            data,
            quarantined,
            key_range: config.key_range,
            split,
            trained: None,
            note,
        });
    }
    drop(generate_stage);
    println!(
        "# generated {} scheme corpora in {:.1}s",
        runs.len(),
        t0.elapsed().as_secs_f64()
    );

    // ---- Stage 2: per-scheme training plus the pooled row ----
    let t1 = Instant::now();
    let crossgen_stage = obs::stage("crossgen");
    let ckpt_dir = opts.resume.as_ref().map(|p| format!("{p}.train"));
    // The slug carries the training-set size: a corpus that grew between
    // runs (quarantines resolved under a raised deadline) is a *different*
    // training run, and must not trip icnet's checkpoint-shape refusal.
    let config = |slug: &str, n_train: usize| {
        let mut config = cli::interruptible_train_config(opts.epochs);
        config.control.checkpoint = ckpt_dir
            .as_ref()
            .map(|dir| format!("{dir}/crossgen-{slug}-{n_train}i.ckpt"));
        config
    };
    // Training is deliberately ICNet-NN on All features — the paper's best
    // cell — so the grid varies only the scheme axis.
    let fit = |data: &Dataset, train_idx: &[usize], slug: &str| -> (Option<TrainedGnn>, String) {
        eprintln!("#   training on {slug} ({} instances)", train_idx.len());
        let (trained, report) = train_gnn(
            data,
            train_idx,
            ModelKind::ICNet,
            Aggregation::Nn,
            FeatureSet::All,
            &config(slug, train_idx.len()),
            opts.seed,
        );
        if let Some(e) = &report.checkpoint_error {
            eprintln!("# WARNING: could not checkpoint {slug} training: {e}");
        }
        cli::exit_if_interrupted();
        if report.diverged {
            return (
                None,
                format!("training diverged in epoch {}", report.epochs_run),
            );
        }
        (Some(trained), String::new())
    };
    for run in &mut runs {
        if let Some(split) = run.split.clone() {
            let (trained, note) = fit(&run.data, &split.train, &run.label);
            if !note.is_empty() {
                run.note = note;
            }
            run.trained = trained;
        }
    }
    // Pooled row: every scheme's *training* instances concatenated over the
    // shared circuit; each scheme keeps its own test split untouched.
    let mut pooled_instances = Vec::new();
    let mut pooled_train = Vec::new();
    for run in &runs {
        if let Some(split) = &run.split {
            for &i in &split.train {
                pooled_train.push(pooled_instances.len());
                pooled_instances.push(run.data.instances[i].clone());
            }
        }
    }
    let pooled = (!pooled_train.is_empty()).then(|| Dataset {
        circuit: circuit.clone(),
        instances: pooled_instances,
    });
    let pooled_model: Option<TrainedGnn> = pooled
        .as_ref()
        .and_then(|data| fit(data, &pooled_train, "pooled").0);

    // ---- Stage 3: the ordered-pair grid ----
    let mut grid: Vec<Cell> = Vec::new();
    let rows: Vec<(String, Option<&TrainedGnn>)> = runs
        .iter()
        .map(|r| (r.label.clone(), r.trained.as_ref()))
        .chain(std::iter::once((
            "pooled".to_owned(),
            pooled_model.as_ref(),
        )))
        .collect();
    for (train_label, model) in &rows {
        for run in &runs {
            let test = run.split.as_ref().map(|s| s.test.as_slice()).unwrap_or(&[]);
            let cell = match (model, test.is_empty()) {
                (Some(m), false) => {
                    let (mse, pearson) = eval_gnn_metrics(m, &run.data, test);
                    Cell {
                        train: train_label.clone(),
                        eval: run.label.clone(),
                        mse: Some(mse),
                        pearson: Some(pearson),
                        n: test.len(),
                    }
                }
                _ => Cell {
                    train: train_label.clone(),
                    eval: run.label.clone(),
                    mse: None,
                    pearson: None,
                    n: test.len(),
                },
            };
            grid.push(cell);
        }
    }
    drop(crossgen_stage);
    cli::exit_if_interrupted();
    println!(
        "# trained {} models, evaluated {} cells in {:.1}s\n",
        rows.iter().filter(|(_, m)| m.is_some()).count(),
        grid.len(),
        t1.elapsed().as_secs_f64()
    );

    // ---- Render: corpus stats, then the MSE (Pearson) grid ----
    println!(
        "{:<16} {:>6} {:>6} {:>10} {:>10} {:>10}",
        "Scheme", "labels", "quar", "med-DIPs", "med-kbits", "censored"
    );
    for run in &runs {
        println!(
            "{:<16} {:>6} {:>6} {:>10} {:>10} {:>9.0}%",
            run.label,
            run.data.instances.len(),
            run.quarantined,
            run.median_of(|i| i.iterations as f64)
                .map(|v| format!("{v:.1}"))
                .unwrap_or_else(|| "N/A".into()),
            run.median_of(|i| i.key_bits as f64)
                .map(|v| format!("{v:.1}"))
                .unwrap_or_else(|| "N/A".into()),
            run.data.censored_fraction() * 100.0
        );
    }
    println!("\n# rows = training scheme, cols = evaluation scheme; MSE (Pearson r)");
    let mut header = format!("{:<16}", "train \\ eval");
    for run in &runs {
        let _ = write!(header, " {:>20}", run.label);
    }
    println!("{header}");
    for (train_label, _) in &rows {
        let mut line = format!("{train_label:<16}");
        for run in &runs {
            let cell = grid
                .iter()
                .find(|c| &c.train == train_label && c.eval == run.label)
                .expect("full grid");
            let text = match (cell.mse, cell.pearson) {
                (Some(m), Some(r)) => format!("{} ({r:+.2})", format_mse(Some(m))),
                _ => "N/A".to_owned(),
            };
            let _ = write!(line, " {text:>20}");
        }
        println!("{line}");
    }

    // ---- Persist BENCH_crossgen.json ----
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"study\": \"cross-scheme generalization\",");
    let _ = writeln!(
        json,
        "  \"profile\": \"{}\",\n  \"instances\": {},\n  \"keys_max\": {},\n  \
         \"key_width\": {},\n  \"budget\": {},\n  \"epochs\": {},\n  \"seed\": {},",
        opts.profile, opts.instances, opts.keys_max, key_width, opts.budget, opts.epochs, opts.seed
    );
    let _ = writeln!(json, "  \"schemes\": [");
    for (i, run) in runs.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"scheme\": \"{}\", \"labels\": {}, \"quarantined\": {}, \
             \"key_range\": [{}, {}], \"median_iterations\": {}, \"median_key_bits\": {}, \
             \"censored_fraction\": {}, \"note\": \"{}\" }}{}",
            run.label,
            run.data.instances.len(),
            run.quarantined,
            run.key_range.0,
            run.key_range.1,
            json_num(run.median_of(|i| i.iterations as f64)),
            json_num(run.median_of(|i| i.key_bits as f64)),
            json_num(Some(run.data.censored_fraction())),
            run.note.replace('"', "'"),
            if i + 1 < runs.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"grid\": [");
    for (i, c) in grid.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"train\": \"{}\", \"eval\": \"{}\", \"mse\": {}, \"pearson\": {}, \"n\": {} }}{}",
            c.train,
            c.eval,
            json_num(c.mse),
            json_num(c.pearson),
            c.n,
            if i + 1 < grid.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]\n}}");
    std::fs::create_dir_all(&opts.out_dir).expect("create output dir");
    let path = format!("{}/BENCH_crossgen.json", opts.out_dir);
    std::fs::write(&path, json).expect("write BENCH_crossgen.json");
    println!("\n# wrote {path}");
    cli::finish_observability();
}
