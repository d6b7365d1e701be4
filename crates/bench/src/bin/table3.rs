//! Regenerates **Table III** — the attention case study: for four circuits,
//! the learned feature-attention split between the gate mask ("gate #") and
//! the gate-type one-hots, the Pearson/Spearman correlation between actual
//! runtime and key-gate count, and the fitted linear parameter.
//!
//! ```text
//! cargo run -p bench --release --bin table3 [-- --quick ...]
//! ```

use bench::cli::Options;
use bench::harness::{evaluate_gnn, load_or_generate};
use dataset::{train_test_split, DatasetConfig};
use icnet::{Aggregation, FeatureSet, ModelKind};
use regress::metrics::{pearson, spearman};
use std::fmt::Write as _;

/// Renders a correlation coefficient, or `n/a` when it is undefined (NaN
/// from non-finite inputs — a diverged model or degenerate labels).
fn fmt_corr(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "n/a".to_owned()
    }
}

fn main() {
    let opts = Options::from_env();
    opts.init_runtime();
    // The paper's case-study circuits (c7553/c1335 in the paper's text are
    // the c7552/c1355 ISCAS-85 profiles).
    let circuits: Vec<&str> = if opts.quick {
        vec!["c432", "c499"]
    } else {
        vec!["c7552", "c499", "c2670", "c1355"]
    };
    println!("# Table III — attention on attributes");
    println!(
        "# instances-per-circuit={} budget={} epochs={}",
        opts.instances, opts.budget, opts.epochs
    );
    println!(
        "{:<8} {:>8} {:>10} {:>12} {:>12} {:>12}",
        "circuit", "gate #", "gate type", "corr(P)", "corr(S)", "linear param"
    );

    let mut csv = String::from(
        "circuit,gate_mask_attention,gate_type_attention,pearson,spearman,linear_param\n",
    );
    for profile in circuits {
        let _circuit_stage = obs::stage(&format!("circuit {profile}"));
        let mut config = DatasetConfig::dataset1(profile, opts.instances.min(60));
        config.key_range = (1, 30.min(config.key_range.1));
        opts.configure(&mut config);
        let data = load_or_generate(&config, &opts.out_dir, opts.jobs, opts.resume.as_deref());

        let split = train_test_split(data.instances.len(), 0.25, opts.seed);
        let (_, model) = evaluate_gnn(
            &data,
            &split,
            ModelKind::ICNet,
            Aggregation::Nn,
            FeatureSet::All,
            &bench::cli::interruptible_train_config(opts.epochs),
            opts.seed,
        );
        bench::cli::exit_if_interrupted();
        let attn = model.feature_attention().expect("NN model has Θfeat");
        let mask_share = attn[0];
        let type_share: f64 = attn[1..].iter().sum();

        let counts: Vec<f64> = data
            .instances
            .iter()
            .map(|i| i.num_selected() as f64)
            .collect();
        let seconds: Vec<f64> = data.instances.iter().map(|i| i.seconds).collect();
        let p = pearson(&counts, &seconds);
        let s = spearman(&counts, &seconds);
        // "Linear param": slope of runtime (s) per key gate, as in the
        // paper's per-circuit linear rule.
        let slope = {
            let n = counts.len() as f64;
            let mc = counts.iter().sum::<f64>() / n;
            let ms = seconds.iter().sum::<f64>() / n;
            let cov: f64 = counts
                .iter()
                .zip(&seconds)
                .map(|(&c, &y)| (c - mc) * (y - ms))
                .sum();
            let var: f64 = counts.iter().map(|&c| (c - mc) * (c - mc)).sum();
            cov / var.max(1e-12)
        };

        println!(
            "{:<8} {:>7.2}% {:>9.2}% {:>12} {:>12} {:>12.4}",
            profile,
            mask_share * 100.0,
            type_share * 100.0,
            fmt_corr(p),
            fmt_corr(s),
            slope
        );
        let _ = writeln!(csv, "{profile},{mask_share},{type_share},{p},{s},{slope}");
    }

    std::fs::create_dir_all(&opts.out_dir).expect("create output dir");
    let path = format!("{}/table3.csv", opts.out_dir);
    std::fs::write(&path, csv).expect("write csv");
    println!("\n# wrote {path}");
    bench::cli::finish_observability();
}
