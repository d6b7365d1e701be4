//! The repository's benchmark: one command, three workloads, every
//! end-to-end metric by name and unit, output checks, and a separate traced
//! run for the per-layer metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The benchmark measures from outside the library: it times calls into
//! each crate's public functions, reads the counters the crates already
//! return (`AttackResult::solver_stats`, `TrainReport`, `ServeStats`) and
//! the `obs` events that already exist (`attack.iteration`, `train.epoch`,
//! `serve.request`). The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones. Any failed
//! output check exits with status 1, a usage error with status 2.

mod pipeline;
mod report;
mod serving;
mod stats;
mod sweep;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &[
    "pipeline_lut4_c1529",
    "labelgen_antisat_c880",
    "serve_mixed",
];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (known: {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds must be 1..=60, not {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <1..60> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    println!(
        "# perfbench {} seed={} seconds={} trace={} host_cores={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let outcome = match args.workload.as_str() {
        "pipeline_lut4_c1529" => pipeline::pipeline(args.seed, args.seconds, args.trace),
        "labelgen_antisat_c880" => pipeline::labelgen(args.seed, args.seconds, args.trace),
        _ => serving::serve_mixed(args.seed, args.seconds, args.trace),
    };
    let catalogue = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    if !outcome.print(catalogue) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments() {
        let a = parse("--workload serve_mixed --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_mixed", 7, 20, true)
        );
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload serve_mixed --trace 2").is_err());
        assert!(parse("--workload serve_mixed --seconds 0").is_err());
        assert!(parse("--workload serve_mixed --seed").is_err());
        assert!(parse("--seed 1").is_err());
    }
}
