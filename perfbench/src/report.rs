//! Metric catalogue, the result line, layer attribution and trace reading.

use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics: printed by every untraced run, on every workload.
/// `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Crates timed as layers, in pipeline order.
pub const LAYERS: &[&str] = &[
    "synth",
    "netlist",
    "obfuscate",
    "cnf",
    "sat",
    "attack",
    "dataset",
    "icnet",
    "tensor",
    "serve",
];

/// Per-layer metrics: printed by every traced run, on every workload. A
/// layer a workload does not run reads 0 there. `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("synth.circuit_ms", "ms"),
    ("obfuscate.lock_ms", "ms"),
    ("cnf.miter_encode_ms", "ms"),
    ("cnf.miter_clauses", "count"),
    ("cnf.reencode_ms", "ms"),
    ("sat.preprocess_ms", "ms"),
    ("attack.wall_p50_ms", "ms"),
    ("attack.wall_tail_ms", "ms"),
    ("attack.wall_total_ms", "ms"),
    ("attack.iterations", "count"),
    ("attack.iter_p50_ms", "ms"),
    ("attack.iter_tail_ms", "ms"),
    ("attack.oracle_ms", "ms"),
    ("attack.oracle_queries", "count"),
    ("attack.censored_frac", "1"),
    ("attack.peak_logical_bytes", "B"),
    ("sat.work", "count"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.decisions", "count"),
    ("sat.solves", "count"),
    ("sat.props_per_s", "1/s"),
    ("dataset.overhead_ms", "ms"),
    ("dataset.labels_per_s", "1/s"),
    ("icnet.featurize_ms", "ms"),
    ("icnet.epoch_p50_ms", "ms"),
    ("icnet.epoch_tail_ms", "ms"),
    ("icnet.epochs_per_s", "1/s"),
    ("icnet.peak_tape_bytes", "B"),
    ("icnet.predict_ms", "ms"),
    ("icnet.predict_graphs_per_s", "1/s"),
    ("icnet.test_mse", "1"),
    ("tensor.spmm_ms", "ms"),
    ("serve.parse_repeat_ms", "ms"),
    ("serve.parse_fresh_ms", "ms"),
    ("serve.graph_repeat_ms", "ms"),
    ("serve.graph_fresh_ms", "ms"),
    ("serve.featurize_repeat_ms", "ms"),
    ("serve.featurize_fresh_ms", "ms"),
    ("serve.forward_repeat_ms", "ms"),
    ("serve.forward_fresh_ms", "ms"),
    ("serve.codec_repeat_ms", "ms"),
    ("serve.codec_fresh_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.infer_ms", "ms"),
    ("serve.batch_mean", "count"),
    ("serve.shed", "count"),
    ("serve.peak_request_bytes", "B"),
    ("serve.gen_lag_p50_ms", "ms"),
    ("serve.gen_lag_max_ms", "ms"),
    ("synth.self_ms", "ms"),
    ("netlist.self_ms", "ms"),
    ("obfuscate.self_ms", "ms"),
    ("cnf.self_ms", "ms"),
    ("sat.self_ms", "ms"),
    ("attack.self_ms", "ms"),
    ("dataset.self_ms", "ms"),
    ("icnet.self_ms", "ms"),
    ("tensor.self_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("loadgen.idle_ms", "ms"),
    ("traced_wall_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("obs.overhead_frac", "1"),
];

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (labels, requests).
    pub attempted: u64,
    /// Operations that failed (quarantines, non-prediction replies).
    pub failed: u64,
    /// Output checks that did not hold.
    pub violations: Vec<String>,
    /// Metric values by catalogue name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric under a catalogue name.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a check: `ok` false adds `what` to the violations.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Prints the notes, then the one-line JSON result for `catalogue`, and
    /// returns whether every check held. A catalogue metric the workload
    /// did not set reads 0; a metric outside the catalogue is a bug.
    pub fn print(mut self, catalogue: &[(&str, &str)]) -> bool {
        for name in self.metrics.keys() {
            if !catalogue.iter().any(|(n, _)| n == name) {
                self.violations
                    .push(format!("metric `{name}` is not in the catalogue"));
            }
        }
        let mut fields = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let mut value = self.metrics.get(name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                self.violations
                    .push(format!("metric `{name}` is not finite ({value})"));
                value = 0.0;
            }
            println!("# {name:<28} {value:>16.6} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        for line in &self.notes {
            println!("# {line}");
        }
        println!(
            "# failed_frac = {} ({} of {} attempted)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        if self.attempted == 0 {
            self.violations.push("no operation was attempted".into());
        }
        for v in &self.violations {
            println!("# CHECK FAILED: {v}");
            eprintln!("perfbench: check failed: {v}");
        }
        let correct = self.violations.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
        correct
    }
}

/// A finite f64 as a JSON number with all its digits.
fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Largest share of the traced wall the layers may leave unclaimed; the
/// benchmark's own bookkeeping between spans stays far below it.
const UNATTRIBUTED_SHARE: f64 = 0.05;

/// Self-time per layer over one traced wall. What no layer claims is
/// reported as `unattributed_ms`, so a saving claimed in one layer has to
/// show up in the sum.
#[derive(Debug)]
pub struct Ledger {
    started: Instant,
    excluded_ms: f64,
    self_ms: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// Starts the traced wall clock.
    pub fn start() -> Self {
        Ledger {
            started: Instant::now(),
            excluded_ms: 0.0,
            self_ms: BTreeMap::new(),
        }
    }

    /// Charges `ms` of self time to `layer`.
    pub fn add(&mut self, layer: &'static str, ms: f64) {
        debug_assert!(LAYERS.contains(&layer) || layer == "loadgen");
        *self.self_ms.entry(layer).or_insert(0.0) += ms;
    }

    /// Takes `ms` of benchmark bookkeeping (writing and reading the trace)
    /// out of the traced wall.
    pub fn exclude(&mut self, ms: f64) {
        self.excluded_ms += ms;
    }

    /// Stops the clock and writes `<layer>.self_ms`, `loadgen.idle_ms`,
    /// `traced_wall_ms` and `unattributed_ms` into `out`.
    pub fn finish(self, out: &mut Outcome) {
        let wall = ms_since(self.started) - self.excluded_ms;
        let mut claimed = 0.0;
        for (&layer, &ms) in &self.self_ms {
            let name = PER_LAYER
                .iter()
                .map(|(n, _)| *n)
                .find(|n| n.strip_suffix(".self_ms") == Some(layer))
                .unwrap_or("loadgen.idle_ms");
            out.set(name, ms);
            claimed += ms;
        }
        out.set("traced_wall_ms", wall);
        out.set("unattributed_ms", wall - claimed);
        out.check((wall - claimed).abs() <= UNATTRIBUTED_SHARE * wall, || {
            format!(
                "{:.1} of {wall:.1} traced ms are not attributed to a layer",
                wall - claimed
            )
        });
        out.note(format!(
            "attribution: {:.1} of {:.1} ms claimed by layers, {:.2}% unattributed",
            claimed,
            wall,
            100.0 * (wall - claimed) / wall.max(1e-9)
        ));
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Events of one traced section, by kind.
#[derive(Debug, Default)]
pub struct Events {
    /// `attack.iteration` wall times.
    pub iteration_ns: Vec<u64>,
    /// `train.epoch` wall times.
    pub epoch_ns: Vec<u64>,
    /// `serve.request`: (wait, infer) of requests answered with a
    /// prediction.
    pub served: Vec<(u64, u64)>,
}

/// Runs `f` with the `obs` event sink on, then reads back the events it
/// emitted, and the milliseconds spent writing and reading the trace. The
/// trace file lives under `.perfbench/` in the working directory and is
/// removed after reading.
pub fn traced<T>(f: impl FnOnce() -> T) -> (T, Events, f64) {
    let dir = std::path::Path::new(".perfbench");
    let path = dir.join(format!("trace-{}.jsonl", std::process::id()));
    obs::init(obs::ObsConfig {
        trace: Some(path.display().to_string()),
        progress: false,
    });
    let out = f();
    let t = Instant::now();
    let summary = obs::finish().expect("the sink was initialised above");
    if let Some(e) = summary.trace_error {
        panic!("writing the trace failed: {e}");
    }
    let text = std::fs::read_to_string(&path).expect("trace file was just written");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(dir);
    let events = parse_events(&text);
    (out, events, ms_since(t))
}

fn parse_events(text: &str) -> Events {
    let mut events = Events::default();
    for line in text.lines() {
        let Some(kind) = field_str(line, "kind") else {
            continue;
        };
        match kind {
            "attack.iteration" => events.iteration_ns.extend(field_u64(line, "wall_ns")),
            "train.epoch" => events.epoch_ns.extend(field_u64(line, "wall_ns")),
            "serve.request" if field_str(line, "outcome") == Some("ok") => {
                if let (Some(w), Some(i)) =
                    (field_u64(line, "wait_ns"), field_u64(line, "infer_ns"))
                {
                    events.served.push((w, i));
                }
            }
            _ => {}
        }
    }
    events
}

fn field_raw<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    Some(&line[start..])
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    let rest = field_raw(line, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = field_raw(line, key)?.strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_read_by_kind() {
        let text = concat!(
            "{\"ts\":1,\"thread\":0,\"ctx\":2,\"kind\":\"attack.iteration\",\"iteration\":1,\"wall_ns\":1500}\n",
            "{\"ts\":2,\"thread\":0,\"kind\":\"train.epoch\",\"epoch\":0,\"loss\":0.5,\"wall_ns\":900}\n",
            "{\"ts\":3,\"thread\":1,\"kind\":\"serve.request\",\"seq\":0,\"wait_ns\":10,\"infer_ns\":20,\"outcome\":\"ok\"}\n",
            "{\"ts\":4,\"thread\":1,\"kind\":\"serve.request\",\"seq\":1,\"wait_ns\":0,\"infer_ns\":0,\"outcome\":\"overloaded\"}\n",
            "{\"ts\":5,\"thread\":0,\"kind\":\"stage\",\"stage\":\"x\",\"wall_ns\":7}\n",
        );
        let e = parse_events(text);
        assert_eq!(e.iteration_ns, vec![1500]);
        assert_eq!(e.epoch_ns, vec![900]);
        assert_eq!(e.served, vec![(10, 20)]);
    }

    #[test]
    fn ledger_reports_the_remainder() {
        let mut ledger = Ledger::start();
        ledger.add("sat", 1.0);
        ledger.add("loadgen", 2.0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let mut out = Outcome::default();
        ledger.finish(&mut out);
        assert_eq!(out.metrics["sat.self_ms"], 1.0);
        assert_eq!(out.metrics["loadgen.idle_ms"], 2.0);
        let wall = out.metrics["traced_wall_ms"];
        assert!(wall >= 5.0);
        assert!((out.metrics["unattributed_ms"] - (wall - 3.0)).abs() < 1e-9);
        // Most of the wall went unclaimed, so the attribution check fails.
        assert_eq!(out.violations.len(), 1);
    }

    #[test]
    fn every_layer_has_a_self_time_metric() {
        for layer in LAYERS {
            let name = format!("{layer}.self_ms");
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        }
    }

    /// The catalogue and `BENCHMARK.json` name the same metrics.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let mut listed: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .collect();
        let mut expected: Vec<&str> = crate::WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|(n, _)| *n))
            .chain(PER_LAYER.iter().map(|(n, _)| *n))
            .collect();
        listed.sort_unstable();
        expected.sort_unstable();
        assert_eq!(listed, expected);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "{entry}");
        }
    }
}
