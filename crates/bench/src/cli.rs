//! Minimal flag parsing shared by the experiment binaries.

/// Parsed command-line options common to the experiment binaries.
#[derive(Debug, Clone)]
pub struct Options {
    /// Circuit profile to evaluate (default: the paper's `c1529`).
    pub profile: String,
    /// Number of labeled instances to generate.
    pub instances: usize,
    /// Per-attack solver work budget.
    pub budget: u64,
    /// GNN training epochs.
    pub epochs: usize,
    /// Master seed.
    pub seed: u64,
    /// Largest per-instance key-gate count for Dataset-1-style sweeps.
    ///
    /// The paper sweeps 1..=350, but completing a 350-LUT attack is a
    /// multi-hour solve; the default 40 keeps most attacks uncensored while
    /// preserving the exponential-growth regime (see `DESIGN.md` §4).
    pub keys_max: usize,
    /// Quick mode: small circuit, few instances (sanity runs / CI).
    pub quick: bool,
    /// Output directory for CSV artifacts.
    pub out_dir: String,
    /// Worker threads, for both dataset generation and the evaluation
    /// suite's (method × feature-set × aggregation) grid. Results are
    /// byte-identical for every value (see `dataset::generate_parallel_with`
    /// and `harness::run_mse_suite`).
    pub jobs: usize,
    /// Checkpoint log to record finished attacks in and resume from.
    pub resume: Option<String>,
    /// Per-attack wall-clock deadline in seconds. An attack that outlives
    /// it is retried with an escalated deadline (deterministic budgets stay
    /// fixed) and, failing that, quarantined — never labeled, because a
    /// wall-clock verdict is machine-dependent.
    pub deadline: Option<f64>,
    /// Extra attempts per instance after the first (retry policy runs
    /// `retries + 1` attempts total, each at escalated deadlines).
    pub retries: usize,
    /// Keep sweeping past quarantined instances (default). With
    /// `--no-keep-going` the first quarantine aborts the whole sweep.
    pub keep_going: bool,
    /// Write a structured JSONL event trace to this path (see `crates/obs`).
    pub trace: Option<String>,
    /// Echo coarse progress events (instances, cells, stages) to stderr as
    /// they happen.
    pub progress: bool,
    /// Deterministic fault-injection plan (see `crates/faults`), e.g.
    /// `seed=7;checkpoint.append:torn@o2;dataset.worker:die@c5`. Faults are
    /// disabled entirely when absent.
    pub fault_plan: Option<String>,
    /// Per-attack logical-byte budget (see the `budget` crate). An attack
    /// whose solver exceeds it stops and is quarantined `MemoryExceeded`;
    /// a raised-budget resume re-attacks it.
    pub mem_budget: Option<u64>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            profile: "c1529".to_owned(),
            instances: 150,
            budget: 200_000_000,
            epochs: 300,
            seed: 7,
            keys_max: 40,
            quick: false,
            out_dir: "results".to_owned(),
            jobs: 1,
            resume: None,
            deadline: None,
            retries: dataset::RetryPolicy::default().max_attempts - 1,
            keep_going: true,
            trace: None,
            progress: false,
            fault_plan: None,
            mem_budget: None,
        }
    }
}

impl Options {
    /// Parses `--flag value` style arguments; unknown flags abort with a
    /// usage message. `--quick` rescales to a small, fast configuration.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Options {
        Options::parse_extended(args, "", |_, _| false)
    }

    /// Like [`Options::parse`], but lets a binary register extra flags
    /// without re-implementing the shared ones (the `--trace` / `--progress`
    /// / `--fault-plan` / `--jobs` plumbing stays identical everywhere).
    ///
    /// `extra` is called for each flag the shared parser does not recognise,
    /// with the flag text and a value-puller for `--flag value` style; it
    /// returns whether it consumed the flag. Unconsumed flags abort with the
    /// shared usage message plus `extra_usage`.
    pub fn parse_extended(
        args: impl IntoIterator<Item = String>,
        extra_usage: &str,
        mut extra: impl FnMut(&str, &mut dyn FnMut(&str) -> String) -> bool,
    ) -> Options {
        let mut opts = Options::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = |name: &str| {
                args.next()
                    .unwrap_or_else(|| panic!("flag {name} requires a value"))
            };
            match flag.as_str() {
                "--profile" => opts.profile = value("--profile"),
                "--instances" => {
                    opts.instances = value("--instances").parse().expect("usize instances")
                }
                "--budget" => opts.budget = value("--budget").parse().expect("u64 budget"),
                "--epochs" => opts.epochs = value("--epochs").parse().expect("usize epochs"),
                "--seed" => opts.seed = value("--seed").parse().expect("u64 seed"),
                "--keys-max" => {
                    opts.keys_max = value("--keys-max").parse().expect("usize keys-max")
                }
                "--out" => opts.out_dir = value("--out"),
                "--jobs" => {
                    opts.jobs = value("--jobs").parse().expect("usize jobs");
                    assert!(opts.jobs >= 1, "--jobs must be at least 1");
                }
                "--resume" => opts.resume = Some(value("--resume")),
                "--deadline" => {
                    let secs: f64 = value("--deadline").parse().expect("seconds deadline");
                    assert!(
                        secs.is_finite() && secs > 0.0,
                        "--deadline must be a positive number of seconds"
                    );
                    opts.deadline = Some(secs);
                }
                "--retries" => opts.retries = value("--retries").parse().expect("usize retries"),
                "--keep-going" => opts.keep_going = true,
                "--no-keep-going" => opts.keep_going = false,
                "--trace" => opts.trace = Some(value("--trace")),
                "--progress" => opts.progress = true,
                "--fault-plan" => opts.fault_plan = Some(value("--fault-plan")),
                "--mem-budget" => {
                    let bytes: u64 = value("--mem-budget").parse().expect("bytes mem-budget");
                    assert!(bytes > 0, "--mem-budget must be a positive byte count");
                    opts.mem_budget = Some(bytes);
                }
                "--quick" => opts.quick = true,
                other => {
                    if extra(other, &mut value) {
                        continue;
                    }
                    eprintln!(
                        "unknown flag `{other}`\nflags: --profile <name> --instances <n> \
                         --budget <work> --epochs <n> --seed <n> --keys-max <n> \
                         --out <dir> --jobs <n> --resume <path> --deadline <secs> \
                         --retries <n> --keep-going --no-keep-going \
                         --mem-budget <bytes> \
                         --trace <path> --progress --fault-plan <spec> --quick{}{extra_usage}",
                        if extra_usage.is_empty() { "" } else { " " },
                    );
                    std::process::exit(2);
                }
            }
        }
        if opts.quick {
            opts.profile = "c432".to_owned();
            opts.instances = opts.instances.min(40);
            opts.budget = opts.budget.min(3_000_000);
            opts.epochs = opts.epochs.min(200);
            opts.keys_max = opts.keys_max.min(30);
        }
        opts
    }

    /// Parses the process arguments (skipping the binary name).
    pub fn from_env() -> Options {
        Options::parse(std::env::args().skip(1))
    }

    /// Starts the shared binary runtime: the observability sink (always
    /// collecting, so the end-of-run profile is available; JSONL trace under
    /// `--trace`, live progress under `--progress`), the `--fault-plan`
    /// injection plan (surfaced as `fault.injected` obs events), and the
    /// SIGINT handler (first Ctrl-C trips [`interrupt_token`] for a graceful
    /// drain-and-checkpoint shutdown; the second hard-exits). Pair with
    /// [`finish_observability`] at the end of `main`.
    pub fn init_runtime(&self) {
        obs::init(obs::ObsConfig {
            trace: self.trace.clone(),
            progress: self.progress,
        });
        if let Some(spec) = &self.fault_plan {
            let observe: faults::Observer = |site, action, occurrence| {
                obs::emit(obs::EventKind::FaultInjected {
                    site: site.to_owned(),
                    action,
                    occurrence,
                });
            };
            if let Err(e) = faults::arm_str(spec, Some(observe)) {
                eprintln!("invalid --fault-plan: {e}");
                std::process::exit(2);
            }
        }
        install_interrupt_handler();
    }

    /// Applies the shared attack and supervision flags to a dataset
    /// configuration: work budget, per-solve conflict cap, wall-clock
    /// deadline, master seed, retry policy, and keep-going. Fields with
    /// per-binary semantics (profile, key range, instance count) stay with
    /// the caller.
    pub fn configure(&self, config: &mut dataset::DatasetConfig) {
        config.attack.work_budget = Some(self.budget);
        config.attack.conflicts_per_solve = Some(200_000);
        config.attack.deadline = self.deadline.map(std::time::Duration::from_secs_f64);
        config.attack.mem_budget = self.mem_budget;
        config.seed = self.seed;
        config.retry.max_attempts = self.retries + 1;
        config.keep_going = self.keep_going;
        config.attack.cancel = Some(interrupt_token().clone());
    }
}

/// Exit status of a run stopped by SIGINT after draining and checkpointing
/// (the conventional 128 + SIGINT).
pub const INTERRUPT_EXIT_CODE: i32 = 130;

static INTERRUPT: std::sync::OnceLock<budget::CancelToken> = std::sync::OnceLock::new();

/// The process-wide interrupt token: tripped by the first SIGINT, polled by
/// the dataset sweep and the training loop. Usable without
/// [`Options::init_runtime`] (it simply never trips).
pub fn interrupt_token() -> &'static budget::CancelToken {
    INTERRUPT.get_or_init(budget::CancelToken::default)
}

#[cfg(unix)]
fn install_interrupt_handler() {
    use std::sync::atomic::{AtomicBool, Ordering};

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn _exit(code: i32) -> !;
    }
    const SIGINT: i32 = 2;
    static SIGINT_SEEN: AtomicBool = AtomicBool::new(false);

    // Async-signal-safety: the handler only touches atomics (the `swap`
    // below, the token's flag) and `_exit` — no allocation, locks, or stdio.
    // `interrupt_token()` is forced before `signal` so the handler's
    // `INTERRUPT.get()` can never race initialization.
    extern "C" fn on_sigint(_signum: i32) {
        if SIGINT_SEEN.swap(true, Ordering::SeqCst) {
            unsafe { _exit(INTERRUPT_EXIT_CODE) }
        }
        if let Some(token) = INTERRUPT.get() {
            token.cancel();
        }
    }

    let _ = interrupt_token();
    unsafe {
        signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_interrupt_handler() {}

/// The experiment binaries' training preset ([`crate::harness::train_config`])
/// made interruptible: training stops at the next epoch boundary once
/// [`interrupt_token`] trips; no checkpoints.
pub fn interruptible_train_config(epochs: usize) -> icnet::TrainConfig {
    let mut config = crate::harness::train_config(epochs);
    config.control.cancel = Some(interrupt_token().clone());
    config
}

/// Graceful-interrupt epilogue for the binaries: when the first SIGINT has
/// tripped [`interrupt_token`], flush the observability sink (trace +
/// profile) and exit with [`INTERRUPT_EXIT_CODE`]. Call after every stage
/// that drains on cancellation; a no-op otherwise.
pub fn exit_if_interrupted() {
    if interrupt_token().is_cancelled() {
        eprintln!("# interrupted: progress checkpointed; rerun with the same flags to resume");
        finish_observability();
        std::process::exit(INTERRUPT_EXIT_CODE);
    }
}

/// Flushes the observability sink and prints the end-of-run profile (top
/// stages by wall time and by solver work) to stderr. No-op if
/// [`Options::init_runtime`] was never called.
pub fn finish_observability() {
    if let Some(summary) = obs::finish() {
        eprint!("{}", summary.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Options {
        Options::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_paper_scale() {
        let o = parse(&[]);
        assert_eq!(o.profile, "c1529");
        assert_eq!(o.keys_max, 40);
        assert!(!o.quick);
    }

    #[test]
    fn keys_max_flag_parses() {
        let o = parse(&["--keys-max", "350"]);
        assert_eq!(o.keys_max, 350);
    }

    #[test]
    fn flags_override() {
        let o = parse(&["--profile", "c499", "--instances", "10", "--seed", "3"]);
        assert_eq!(o.profile, "c499");
        assert_eq!(o.instances, 10);
        assert_eq!(o.seed, 3);
    }

    #[test]
    fn jobs_and_resume_flags_parse() {
        let o = parse(&["--jobs", "4", "--resume", "sweep.ckpt"]);
        assert_eq!(o.jobs, 4);
        assert_eq!(o.resume.as_deref(), Some("sweep.ckpt"));
        let o = parse(&[]);
        assert_eq!(o.jobs, 1);
        assert_eq!(o.resume, None);
    }

    #[test]
    fn supervision_flags_parse() {
        let o = parse(&["--deadline", "2.5", "--retries", "3", "--no-keep-going"]);
        assert_eq!(o.deadline, Some(2.5));
        assert_eq!(o.retries, 3);
        assert!(!o.keep_going);
        let o = parse(&[]);
        assert_eq!(o.deadline, None);
        assert_eq!(o.retries, 1, "one retry by default");
        assert!(o.keep_going, "keep-going is the default");
    }

    #[test]
    fn configure_applies_the_shared_flags() {
        let o = parse(&[
            "--budget",
            "1234",
            "--seed",
            "9",
            "--deadline",
            "2",
            "--retries",
            "2",
            "--no-keep-going",
        ]);
        let mut config = dataset::DatasetConfig::quick_demo();
        let key_range = config.key_range;
        o.configure(&mut config);
        assert_eq!(config.attack.work_budget, Some(1234));
        assert_eq!(config.attack.conflicts_per_solve, Some(200_000));
        assert_eq!(
            config.attack.deadline,
            Some(std::time::Duration::from_secs(2))
        );
        assert_eq!(config.seed, 9);
        assert_eq!(config.retry.max_attempts, 3);
        assert!(!config.keep_going);
        assert_eq!(config.key_range, key_range, "key range untouched");
    }

    #[test]
    fn memory_budget_flag_parses_and_configures() {
        let o = parse(&["--mem-budget", "8000000"]);
        assert_eq!(o.mem_budget, Some(8_000_000));
        let mut config = dataset::DatasetConfig::quick_demo();
        o.configure(&mut config);
        assert_eq!(config.attack.mem_budget, Some(8_000_000));
        let o = parse(&[]);
        assert_eq!(o.mem_budget, None, "no budget unless requested");
    }

    #[test]
    fn fault_plan_flag_parses() {
        let o = parse(&["--fault-plan", "seed=3;sat.solve:panic@o1"]);
        assert_eq!(o.fault_plan.as_deref(), Some("seed=3;sat.solve:panic@o1"));
        let o = parse(&[]);
        assert_eq!(o.fault_plan, None, "faults are off unless requested");
    }

    #[test]
    fn configure_wires_the_interrupt_token() {
        let mut config = dataset::DatasetConfig::quick_demo();
        parse(&[]).configure(&mut config);
        let token = config.attack.cancel.expect("interrupt token installed");
        assert!(!token.is_cancelled());
    }

    #[test]
    fn trace_and_progress_flags_parse() {
        let o = parse(&["--trace", "out/trace.jsonl", "--progress"]);
        assert_eq!(o.trace.as_deref(), Some("out/trace.jsonl"));
        assert!(o.progress);
        let o = parse(&[]);
        assert_eq!(o.trace, None);
        assert!(!o.progress);
    }

    #[test]
    fn parse_extended_threads_unknown_flags_to_the_binary() {
        let mut addr = String::new();
        let mut burst = false;
        let o = Options::parse_extended(
            ["--addr", "127.0.0.1:9", "--seed", "11", "--burst"]
                .iter()
                .map(|s| s.to_string()),
            "--addr <host:port> --burst",
            |flag, value| match flag {
                "--addr" => {
                    addr = value("--addr");
                    true
                }
                "--burst" => {
                    burst = true;
                    true
                }
                _ => false,
            },
        );
        assert_eq!(addr, "127.0.0.1:9");
        assert!(burst);
        assert_eq!(o.seed, 11, "shared flags still parse");
    }

    #[test]
    fn quick_rescales() {
        let o = parse(&["--quick"]);
        assert_eq!(o.profile, "c432");
        assert!(o.instances <= 40);
        assert!(o.budget <= 3_000_000);
    }
}
