//! Model persistence: a trained [`GraphModel`] serializes to a small,
//! versioned, human-readable text format, so a defender can train once and
//! ship the predictor (the paper's deployment story: prediction is a single
//! forward pass of a stored model). The file is footer-sealed
//! (`faults::sealed`): its last line checksums every byte before it.

use crate::aggregate::Aggregation;
use crate::model::{GraphModel, ModelKind, OutputHead};
use std::fmt;
use tensor::Matrix;

/// Error produced by [`GraphModel::from_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModelError {
    /// 1-based line of the failure.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "model parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseModelError {}

/// v2 added the mandatory checksum footer; v1 files (no footer) are
/// rejected as unsupported rather than silently trusted.
const FORMAT_VERSION: u32 = 2;

/// The footer tag: the last line is `checksum <crc:016x>`.
const FOOTER_TAG: &str = "checksum ";

impl GraphModel {
    /// Serializes the model (architecture + parameters) to text, sealed by
    /// a last `checksum <fnv1a>` line over every preceding byte.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "icnet-model v{FORMAT_VERSION}");
        let kind = match self.kind {
            ModelKind::Gcn => "gcn".to_owned(),
            ModelKind::ChebNet { k } => format!("chebnet {k}"),
            ModelKind::ICNet => "icnet".to_owned(),
        };
        let _ = writeln!(out, "kind {kind}");
        let _ = writeln!(
            out,
            "aggregation {}",
            self.aggregation.label().to_lowercase()
        );
        let _ = writeln!(
            out,
            "output {}",
            match self.output {
                OutputHead::Identity => "identity",
                OutputHead::Exp => "exp",
            }
        );
        let _ = writeln!(out, "features {}", self.num_features());
        let _ = writeln!(out, "params {}", self.params().len());
        for p in self.params() {
            let _ = write!(out, "matrix {} {}", p.rows(), p.cols());
            for v in p.as_slice() {
                let _ = write!(out, " {v:e}");
            }
            let _ = writeln!(out);
        }
        faults::sealed::seal_footer(&out, FOOTER_TAG)
    }

    /// Parses a model file written by [`GraphModel::to_text`], given its
    /// bytes (a `&str` or `&[u8]`). The checksum footer is verified over
    /// the bytes before anything is decoded, so truncation at any offset
    /// and any flipped bit are refused.
    ///
    /// # Errors
    ///
    /// Returns [`ParseModelError`] for a damaged or missing footer, version
    /// mismatches, malformed headers, or parameter shapes inconsistent with
    /// the architecture.
    pub fn from_text(text: impl AsRef<[u8]>) -> Result<GraphModel, ParseModelError> {
        let err = |line: usize, message: &str| ParseModelError {
            line,
            message: message.to_owned(),
        };
        let bytes = text.as_ref();
        let body = faults::sealed::unseal_footer(bytes, FOOTER_TAG).map_err(|e| {
            // The footer is the last line.
            let line = bytes.trim_ascii_end().split(|&b| b == b'\n').count();
            err(line, &e.to_string())
        })?;

        let mut lines = body.lines().enumerate().map(|(i, l)| (i + 1, l.trim()));
        let (l, header) = lines.next().ok_or_else(|| err(1, "empty input"))?;
        if header != format!("icnet-model v{FORMAT_VERSION}") {
            return Err(err(l, "unsupported header/version"));
        }

        let mut kind: Option<ModelKind> = None;
        let mut aggregation: Option<Aggregation> = None;
        let mut output = OutputHead::Identity;
        let mut features: Option<usize> = None;
        let mut num_params: Option<usize> = None;
        let mut params: Vec<Matrix> = Vec::new();

        for (l, line) in lines {
            let mut tokens = line.split_whitespace();
            match tokens.next() {
                Some("kind") => {
                    kind = Some(match tokens.next() {
                        Some("gcn") => ModelKind::Gcn,
                        Some("icnet") => ModelKind::ICNet,
                        Some("chebnet") => ModelKind::ChebNet {
                            k: number(&mut tokens)
                                .ok_or_else(|| err(l, "chebnet requires an order"))?,
                        },
                        _ => return Err(err(l, "unknown model kind")),
                    });
                }
                Some("aggregation") => {
                    aggregation = Some(match tokens.next() {
                        Some("sum") => Aggregation::Sum,
                        Some("mean") => Aggregation::Mean,
                        Some("nn") => Aggregation::Nn,
                        _ => return Err(err(l, "unknown aggregation")),
                    });
                }
                Some("output") => {
                    output = match tokens.next() {
                        Some("identity") => OutputHead::Identity,
                        Some("exp") => OutputHead::Exp,
                        _ => return Err(err(l, "unknown output head")),
                    };
                }
                Some("features") => {
                    features =
                        Some(number(&mut tokens).ok_or_else(|| err(l, "invalid feature count"))?);
                }
                Some("params") => {
                    num_params =
                        Some(number(&mut tokens).ok_or_else(|| err(l, "invalid parameter count"))?);
                }
                Some("matrix") => {
                    let rows: usize =
                        number(&mut tokens).ok_or_else(|| err(l, "invalid matrix rows"))?;
                    let cols: usize =
                        number(&mut tokens).ok_or_else(|| err(l, "invalid matrix cols"))?;
                    let data: Vec<f64> = tokens
                        .map(|t| t.parse::<f64>())
                        .collect::<Result<_, _>>()
                        .map_err(|_| err(l, "invalid matrix value"))?;
                    if data.len() != rows * cols {
                        return Err(err(l, "matrix data length mismatch"));
                    }
                    params.push(Matrix::from_vec(rows, cols, data));
                }
                Some(other) => return Err(err(l, &format!("unknown directive `{other}`"))),
                None => {}
            }
        }

        let kind = kind.ok_or_else(|| err(0, "missing kind"))?;
        let aggregation = aggregation.ok_or_else(|| err(0, "missing aggregation"))?;
        let features = features.ok_or_else(|| err(0, "missing features"))?;
        let expected = num_params.ok_or_else(|| err(0, "missing params"))?;
        if params.len() != expected {
            return Err(err(0, "parameter count mismatch"));
        }
        GraphModel::from_parts(kind, aggregation, output, features, params)
            .map_err(|message| err(0, &message))
    }
}

/// The next token, parsed as a number.
fn number<T: std::str::FromStr>(tokens: &mut std::str::SplitWhitespace<'_>) -> Option<T> {
    tokens.next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{encode_features, FeatureSet};
    use crate::graph::CircuitGraph;
    use std::sync::Arc;

    fn round_trip(kind: ModelKind, agg: Aggregation) {
        let model = GraphModel::new(kind, agg, 7, 8, 8, 5).with_output(OutputHead::Exp);
        let text = model.to_text();
        let parsed = GraphModel::from_text(&text).expect("round trips");

        // Same architecture, same predictions.
        let circuit = netlist::c17();
        let graph = CircuitGraph::from_circuit(&circuit);
        let op = Arc::new(kind.operator(&graph));
        let x = encode_features(&circuit, &[circuit.find("n10").unwrap()], FeatureSet::All);
        assert_eq!(
            model.predict(&op, &x),
            parsed.predict(&op, &x),
            "{kind} {agg}"
        );
    }

    #[test]
    fn round_trips_every_architecture() {
        for kind in [
            ModelKind::Gcn,
            ModelKind::ChebNet { k: 3 },
            ModelKind::ICNet,
        ] {
            for agg in [Aggregation::Sum, Aggregation::Mean, Aggregation::Nn] {
                round_trip(kind, agg);
            }
        }
    }

    #[test]
    fn rejects_bad_headers_and_shapes() {
        assert!(GraphModel::from_text("").is_err());
        assert!(GraphModel::from_text("icnet-model v999\n").is_err());
        let model = GraphModel::new(ModelKind::ICNet, Aggregation::Sum, 7, 8, 8, 0);
        let text = model.to_text();
        // Drop the last parameter line: count mismatch.
        let truncated: Vec<&str> = text.lines().collect();
        let broken = truncated[..truncated.len() - 1].join("\n");
        assert!(GraphModel::from_text(&broken).is_err());
        // Corrupt a number.
        let corrupt = text.replace("matrix 7", "matrix seven");
        assert!(GraphModel::from_text(&corrupt).is_err());
    }

    #[test]
    fn error_display_mentions_line() {
        let e = GraphModel::from_text("nonsense").unwrap_err();
        assert!(e.to_string().contains("line 1"));
    }

    #[test]
    fn truncation_at_every_byte_offset_is_rejected() {
        // The exhaustive version of the torn-write test: no prefix of a
        // valid file may parse, because a torn or short write can stop at
        // any byte. The format is ASCII, so every offset is a char boundary.
        let text = GraphModel::new(ModelKind::Gcn, Aggregation::Mean, 7, 4, 4, 11).to_text();
        assert!(text.is_ascii(), "format must stay ASCII for this test");
        assert!(GraphModel::from_text(&text).is_ok());
        for cut in 0..text.len() {
            assert!(
                GraphModel::from_text(&text[..cut]).is_err(),
                "prefix of {cut}/{} bytes must not parse",
                text.len()
            );
        }
    }

    #[test]
    fn bitflips_and_legacy_files_are_rejected() {
        let model = GraphModel::new(ModelKind::ICNet, Aggregation::Nn, 7, 8, 8, 3);
        let text = model.to_text();
        // Flip one digit inside a matrix line: structure still parses, the
        // checksum catches it.
        let flipped = text.replacen("matrix 7", "matrix 9", 1);
        assert_ne!(flipped, text);
        let e = GraphModel::from_text(&flipped).unwrap_err();
        assert!(e.message.contains("checksum mismatch"), "{e}");
        // A v1 file (old header, no footer) is unsupported, not trusted.
        let mut legacy: Vec<String> = text
            .lines()
            .filter(|l| !l.starts_with("checksum "))
            .map(|l| l.to_owned())
            .collect();
        legacy[0] = "icnet-model v1".to_owned();
        let legacy = legacy.join("\n") + "\n";
        assert!(GraphModel::from_text(&legacy).is_err());
        // The footer is the last line and self-consistent.
        let footer = text.lines().last().unwrap();
        assert!(footer.starts_with("checksum "), "{footer}");
    }
}
