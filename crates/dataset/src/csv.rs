//! Hand-rolled CSV persistence for datasets (keeps the dependency surface
//! at the sanctioned crates only).
//!
//! Format: a header line, then one line per instance:
//! `selected;...,key_bits,iterations,work,seconds,log_seconds,censored`.
//! The circuit itself is not serialized — it is regenerable from the
//! profile name and seed (see [`synth::iscas::circuit`]).

use crate::error::DatasetError;
use crate::instance::Instance;
use netlist::GateId;
use std::fmt::Write as _;

const HEADER: &str = "selected,key_bits,iterations,work,seconds,log_seconds,censored";

/// Serializes one instance as a single CSV line (no trailing newline).
/// Shared with the checkpoint log, which stores one instance per record.
pub(crate) fn instance_to_line(inst: &Instance) -> String {
    let sel: Vec<String> = inst
        .selected
        .iter()
        .map(|g| g.index().to_string())
        .collect();
    format!(
        "{},{},{},{},{},{},{}",
        sel.join(";"),
        inst.key_bits,
        inst.iterations,
        inst.work,
        inst.seconds,
        inst.log_seconds,
        inst.censored
    )
}

/// Serializes instances to CSV text.
pub fn dataset_to_csv(instances: &[Instance]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{HEADER}");
    for inst in instances {
        let _ = writeln!(out, "{}", instance_to_line(inst));
    }
    out
}

/// Parses instances back from [`dataset_to_csv`] output.
///
/// # Errors
///
/// Returns [`DatasetError::ParseCsv`] for missing fields or bad numbers.
pub fn dataset_from_csv(text: &str) -> Result<Vec<Instance>, DatasetError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, header)) if header.trim() == HEADER => {}
        _ => {
            return Err(DatasetError::ParseCsv {
                line: 1,
                message: format!("expected header `{HEADER}`"),
            })
        }
    }
    let mut out = Vec::new();
    for (lineno, line) in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        out.push(instance_from_line(line, lineno + 1)?);
    }
    Ok(out)
}

/// Parses one instance from a single CSV line ([`instance_to_line`] format).
/// `lineno` is only used in error messages.
pub(crate) fn instance_from_line(line: &str, lineno: usize) -> Result<Instance, DatasetError> {
    let fields: Vec<&str> = line.split(',').collect();
    if fields.len() != 7 {
        return Err(DatasetError::ParseCsv {
            line: lineno,
            message: format!("expected 7 fields, found {}", fields.len()),
        });
    }
    let bad = |message: String| DatasetError::ParseCsv {
        line: lineno,
        message,
    };
    let selected: Vec<GateId> = if fields[0].is_empty() {
        Vec::new()
    } else {
        fields[0]
            .split(';')
            .map(|s| {
                s.parse::<usize>()
                    .map(GateId::from_index)
                    .map_err(|_| bad(format!("bad gate index `{s}`")))
            })
            .collect::<Result<_, _>>()?
    };
    Ok(Instance {
        selected,
        key_bits: fields[1]
            .parse()
            .map_err(|_| bad(format!("bad key_bits `{}`", fields[1])))?,
        iterations: fields[2]
            .parse()
            .map_err(|_| bad(format!("bad iterations `{}`", fields[2])))?,
        work: fields[3]
            .parse()
            .map_err(|_| bad(format!("bad work `{}`", fields[3])))?,
        seconds: fields[4]
            .parse()
            .map_err(|_| bad(format!("bad seconds `{}`", fields[4])))?,
        log_seconds: fields[5]
            .parse()
            .map_err(|_| bad(format!("bad log_seconds `{}`", fields[5])))?,
        censored: fields[6]
            .parse()
            .map_err(|_| bad(format!("bad censored `{}`", fields[6])))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Instance> {
        vec![
            Instance {
                selected: vec![GateId::from_index(3), GateId::from_index(14)],
                key_bits: 32,
                iterations: 9,
                work: 123456,
                seconds: 0.0061728,
                log_seconds: 0.0061728f64.ln(),
                censored: false,
            },
            Instance {
                selected: vec![],
                key_bits: 0,
                iterations: 0,
                work: 10,
                seconds: 5e-7,
                log_seconds: (1e-6f64).ln(),
                censored: true,
            },
        ]
    }

    #[test]
    fn round_trip() {
        let original = sample();
        let text = dataset_to_csv(&original);
        let parsed = dataset_from_csv(&text).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn sub_microsecond_labels_round_trip_bit_exactly() {
        // `AttackRuntime::log_seconds` floors seconds at 1e-6 before taking
        // the log, so a sub-microsecond attack produces the irrational label
        // ln(1e-6) alongside an *unfloored* seconds column. Both must
        // survive the CSV round trip bit-for-bit (f64 `to_string` emits the
        // shortest representation that re-parses to the same bits), and the
        // floored label must stay consistent with re-deriving it from the
        // parsed seconds column.
        for work in [0u64, 1, 7, 19, 20, 21, 12345] {
            let runtime = attack::AttackRuntime {
                work,
                wall: std::time::Duration::ZERO,
            };
            let inst = Instance {
                selected: vec![GateId::from_index(1)],
                key_bits: 1,
                iterations: 0,
                work,
                seconds: runtime.seconds(),
                log_seconds: runtime.log_seconds(),
                censored: false,
            };
            let parsed = dataset_from_csv(&dataset_to_csv(std::slice::from_ref(&inst))).unwrap();
            assert_eq!(parsed.len(), 1);
            assert_eq!(
                parsed[0].seconds.to_bits(),
                inst.seconds.to_bits(),
                "seconds for work={work}"
            );
            assert_eq!(
                parsed[0].log_seconds.to_bits(),
                inst.log_seconds.to_bits(),
                "log_seconds for work={work}"
            );
            // Flooring commutes with the round trip: re-deriving the label
            // from the parsed seconds gives back the stored label.
            assert_eq!(
                parsed[0].seconds.max(1e-6).ln().to_bits(),
                parsed[0].log_seconds.to_bits(),
                "re-derived label for work={work}"
            );
        }
    }

    #[test]
    fn missing_header_is_error() {
        assert!(matches!(
            dataset_from_csv("1;2,3,4,5,6,7,true\n"),
            Err(DatasetError::ParseCsv { line: 1, .. })
        ));
    }

    #[test]
    fn bad_field_count_is_error() {
        let text = format!("{HEADER}\n1;2,3\n");
        assert!(matches!(
            dataset_from_csv(&text),
            Err(DatasetError::ParseCsv { line: 2, .. })
        ));
    }

    #[test]
    fn bad_number_is_error() {
        let text = format!("{HEADER}\n1;x,3,4,5,6,7,false\n");
        let err = dataset_from_csv(&text).unwrap_err();
        assert!(err.to_string().contains("bad gate index"));
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = format!("{HEADER}\n\n3,1,2,3,4.0,1.5,false\n\n");
        let parsed = dataset_from_csv(&text).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].selected, vec![GateId::from_index(3)]);
    }
}
