//! Validate a JSONL trace emitted by the obs sink.
//!
//! Usage: `validate <trace.jsonl> [required-kind ...]`
//!
//! Checks every line with [`obs::check_line`] (envelope, declared kind,
//! payload keys in declared order), that `ts` fields are monotone
//! nondecreasing across the file, and that every required `kind` tag
//! appears at least once. Exits non-zero with a diagnostic on failure.

use std::process::ExitCode;

fn run(args: &[String]) -> Result<String, String> {
    let path = args
        .first()
        .ok_or_else(|| "usage: validate <trace.jsonl> [required-kind ...]".to_string())?;
    let required: Vec<&str> = args[1..].iter().map(String::as_str).collect();
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;

    let mut last_ts: u64 = 0;
    let mut seen: Vec<&str> = Vec::new();
    let mut lines = 0u64;
    for (lineno, line) in text.lines().enumerate().filter(|(_, l)| !l.is_empty()) {
        lines += 1;
        let event = obs::check_line(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        if event.ts < last_ts {
            return Err(format!(
                "{path}:{}: timestamp {} goes backwards (previous {last_ts})",
                lineno + 1,
                event.ts
            ));
        }
        last_ts = event.ts;
        if !seen.contains(&event.kind) {
            seen.push(event.kind);
        }
    }
    if lines == 0 {
        return Err(format!("{path}: trace is empty"));
    }
    let missing: Vec<&&str> = required
        .iter()
        .filter(|want| !seen.contains(want))
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "{path}: missing required event kinds {missing:?} (saw {seen:?})"
        ));
    }
    Ok(format!(
        "ok: {lines} events, monotone timestamps, declared fields, kinds {seen:?}"
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("validate: {err}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(name: &str, contents: &str) -> String {
        let dir = std::env::temp_dir().join("obs-validate-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        path.display().to_string()
    }

    #[test]
    fn accepts_a_well_formed_trace() {
        let path = write_temp(
            "good.jsonl",
            "{\"ts\":1,\"thread\":0,\"kind\":\"stage\",\"stage\":\"a\",\"wall_ns\":5}\n\
             {\"ts\":2,\"thread\":0,\"kind\":\"train.epoch\",\"epoch\":0,\"loss\":null,\"grad_norm\":1.5,\"wall_ns\":9}\n",
        );
        let report = run(&[path, "stage".into(), "train.epoch".into()]).unwrap();
        assert!(report.starts_with("ok: 2 events"));
    }

    #[test]
    fn rejects_backwards_timestamps() {
        let path = write_temp(
            "backwards.jsonl",
            "{\"ts\":5,\"thread\":0,\"kind\":\"stage\",\"stage\":\"a\",\"wall_ns\":1}\n\
             {\"ts\":4,\"thread\":0,\"kind\":\"stage\",\"stage\":\"b\",\"wall_ns\":1}\n",
        );
        let err = run(&[path]).unwrap_err();
        assert!(err.contains("goes backwards"), "{err}");
    }

    #[test]
    fn rejects_missing_required_kind_and_garbage() {
        let path = write_temp(
            "short.jsonl",
            "{\"ts\":1,\"thread\":0,\"kind\":\"stage\",\"stage\":\"a\",\"wall_ns\":1}\n",
        );
        let err = run(&[path, "attack.iteration".into()]).unwrap_err();
        assert!(err.contains("missing required event kinds"), "{err}");

        let path = write_temp("torn.jsonl", "{\"ts\":1,\"kind\":\"st");
        let err = run(&[path]).unwrap_err();
        assert!(err.contains("unterminated string"), "{err}");
    }

    /// One malformed line per row, with the diagnostic it must produce.
    #[rustfmt::skip]
    #[test]
    fn rejects_lines_that_break_the_declared_schema() {
        for (line, want) in [
            (r#"{"ts":1,"thread":0,"kind":"stage.x"}"#, r#"undeclared kind "stage.x""#),
            (r#"{"ts":1,"thread":0,"kind":"stage","wall_ns":1,"stage":"a"}"#,
             r#"stage payload keys ["wall_ns", "stage"] differ"#),
            (r#"{"ts":1,"thread":0,"kind":"train.checkpoint","step":1}"#, "payload keys"),
            (r#"{"ts":1,"kind":"stage","stage":"a","wall_ns":1}"#, "is not ts, thread"),
            (r#"{"ts":-1,"thread":0,"kind":"stage"}"#, "'ts' must be"),
            (r#"{"ts":1,"thread":0,"kind":"stage","stage":[1]}"#, "not a JSON scalar"),
            (r#"{"ts":1,"thread":0,"kind":"train.checkpoint","epoch":1} "#, "expected ','"),
        ] {
            let err = run(&[write_temp("bad.jsonl", line)]).unwrap_err();
            assert!(err.contains(":1: ") && err.contains(want), "{line}: {err}");
        }
    }
}
