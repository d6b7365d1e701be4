//! The checksummed model registry: every persisted [`GraphModel`] the
//! server is willing to run, loaded once at startup.
//!
//! Model files are the `icnet` text format, footer-sealed by
//! `faults::sealed`, one per file, named `<model-name>.model`. Loading is
//! deliberately strict: a truncated, corrupt, or dimensionally inconsistent
//! file refuses the whole startup with a typed error naming the file — a
//! prediction service silently running half its fleet is worse than one
//! that fails to boot loudly. [`save_model`] replaces a file atomically, so
//! a crash mid-save cannot leave such a file behind.
//!
//! Two fault sites make the failure axes testable. `serve.model.load`: `io`
//! fails the read outright, `torn` feeds the parser a half-written file
//! (which the checksum footer rejects). `serve.model.save`: `torn`, `short`
//! and `io` fail the save and leave the previous file in place.

use icnet::{FeatureSet, GraphModel};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File extension of registry entries.
pub const MODEL_EXTENSION: &str = "model";

/// One loaded model plus everything precomputed about it.
#[derive(Debug, Clone)]
pub struct ModelEntry {
    /// Registry name (the file stem).
    pub name: String,
    /// The parsed model, shared across worker threads.
    pub model: Arc<GraphModel>,
    /// Feature encoder matching the model's input width.
    pub features: FeatureSet,
}

/// Why the registry refused to load.
#[derive(Debug)]
pub enum RegistryError {
    /// Reading the file (or listing the directory) failed.
    Io {
        /// Offending path.
        path: PathBuf,
        /// OS-level detail.
        message: String,
    },
    /// The file's contents failed checksum or structural validation.
    Corrupt {
        /// Offending path.
        path: PathBuf,
        /// Parser diagnosis (line-numbered).
        message: String,
    },
    /// The model parsed but its feature width matches no known encoder.
    BadFeatureWidth {
        /// Offending path.
        path: PathBuf,
        /// The unsupported width.
        width: usize,
    },
    /// The directory holds no `.model` files at all.
    Empty {
        /// The searched directory.
        dir: PathBuf,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Io { path, message } => {
                write!(f, "model registry: reading `{}`: {message}", path.display())
            }
            RegistryError::Corrupt { path, message } => {
                write!(
                    f,
                    "model registry: `{}` is corrupt or truncated: {message}",
                    path.display()
                )
            }
            RegistryError::BadFeatureWidth { path, width } => write!(
                f,
                "model registry: `{}` wants {width} input features; no encoder \
                 produces that width (expected {} or {})",
                path.display(),
                icnet::NUM_FEATURES_LOCATION,
                icnet::NUM_FEATURES_ALL,
            ),
            RegistryError::Empty { dir } => write!(
                f,
                "model registry: no `*.{MODEL_EXTENSION}` files in `{}`",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for RegistryError {}

/// All models the server is willing to run, keyed by name.
#[derive(Debug, Default, Clone)]
pub struct ModelRegistry {
    entries: BTreeMap<String, ModelEntry>,
}

/// Maps a model's input width to its feature encoder.
fn feature_set_for(width: usize) -> Option<FeatureSet> {
    match width {
        icnet::NUM_FEATURES_LOCATION => Some(FeatureSet::Location),
        icnet::NUM_FEATURES_ALL => Some(FeatureSet::All),
        _ => None,
    }
}

impl ModelRegistry {
    /// Builds a registry from in-memory models (tests, embedded servers).
    ///
    /// # Errors
    ///
    /// [`RegistryError::BadFeatureWidth`] when a model's input width has no
    /// matching encoder (the path names the offending model).
    pub fn from_models(
        models: impl IntoIterator<Item = (String, GraphModel)>,
    ) -> Result<ModelRegistry, RegistryError> {
        let mut registry = ModelRegistry::default();
        for (name, model) in models {
            let path = PathBuf::from(&name);
            registry.insert(name, model, path)?;
        }
        Ok(registry)
    }

    /// Registers `model` as `name`; `path` names it in the error.
    fn insert(
        &mut self,
        name: String,
        model: GraphModel,
        path: PathBuf,
    ) -> Result<(), RegistryError> {
        let width = model.num_features();
        let features =
            feature_set_for(width).ok_or(RegistryError::BadFeatureWidth { path, width })?;
        let (model, key) = (Arc::new(model), name.clone());
        self.entries.insert(
            key,
            ModelEntry {
                name,
                model,
                features,
            },
        );
        Ok(())
    }

    /// Loads every `*.model` file under `dir`, in name order.
    ///
    /// # Errors
    ///
    /// Fails loudly on the first unreadable ([`RegistryError::Io`]),
    /// corrupt/truncated ([`RegistryError::Corrupt`]), or
    /// dimensionally unusable ([`RegistryError::BadFeatureWidth`]) file,
    /// and on a directory with no models at all ([`RegistryError::Empty`]).
    pub fn load_dir(dir: impl AsRef<Path>) -> Result<ModelRegistry, RegistryError> {
        let dir = dir.as_ref();
        let io_err = |path: &Path, e: std::io::Error| RegistryError::Io {
            path: path.to_owned(),
            message: e.to_string(),
        };
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| io_err(dir, e))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(MODEL_EXTENSION))
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(RegistryError::Empty {
                dir: dir.to_owned(),
            });
        }

        let mut registry = ModelRegistry::default();
        for path in paths {
            let mut bytes = std::fs::read(&path).map_err(|e| io_err(&path, e))?;
            if let Some(fault) = faults::inject("serve.model.load") {
                match fault.action {
                    faults::Action::Io => {
                        let occurrence = fault.occurrence;
                        let message = format!(
                            "injected fault: serve.model.load io (occurrence {occurrence})"
                        );
                        return Err(RegistryError::Io { path, message });
                    }
                    // A torn load is a half-written file reaching the
                    // parser: the checksum footer must catch it.
                    faults::Action::Torn => bytes.truncate(bytes.len() / 2),
                    _ => fault.unsupported("serve.model.load"),
                }
            }
            // Normalise CRLF uploads; the format is newline-framed.
            bytes.retain(|&b| b != b'\r');
            let model = GraphModel::from_text(&bytes).map_err(|e| RegistryError::Corrupt {
                path: path.clone(),
                message: e.to_string(),
            })?;
            let name = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("model")
                .to_owned();
            registry.insert(name, model, path)?;
        }
        Ok(registry)
    }

    /// Looks a model up by name.
    pub fn get(&self, name: &str) -> Option<&ModelEntry> {
        self.entries.get(name)
    }

    /// Registered model names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Persists `model` as `<dir>/<name>.model` (the registry layout),
/// replacing any previous file atomically (`faults::sealed::write_atomic`,
/// fault site `serve.model.save`).
///
/// # Errors
///
/// Returns the OS error message; the previous file, if any, is unchanged.
pub fn save_model(
    dir: impl AsRef<Path>,
    name: &str,
    model: &GraphModel,
) -> Result<PathBuf, String> {
    let path = dir.as_ref().join(format!("{name}.{MODEL_EXTENSION}"));
    faults::sealed::write_atomic(&path, model.to_text().as_bytes(), "serve.model.save")
        .map_err(|e| format!("writing `{}`: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use icnet::{Aggregation, ModelKind};

    fn tiny_model(seed: u64) -> GraphModel {
        GraphModel::new(ModelKind::Gcn, Aggregation::Sum, 7, 4, 4, seed)
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("serve_registry_tests")
            .join(format!("{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn loads_every_model_in_name_order() {
        let dir = tmp_dir("loads");
        save_model(&dir, "beta", &tiny_model(2)).unwrap();
        save_model(&dir, "alpha", &tiny_model(1)).unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let registry = ModelRegistry::load_dir(&dir).unwrap();
        assert_eq!(registry.names(), vec!["alpha", "beta"]);
        assert_eq!(registry.len(), 2);
        assert!(registry.get("alpha").is_some());
        assert!(registry.get("gamma").is_none());
        assert_eq!(registry.get("beta").unwrap().features, FeatureSet::All);
    }

    #[test]
    fn empty_directory_is_a_typed_error() {
        let dir = tmp_dir("empty");
        assert!(matches!(
            ModelRegistry::load_dir(&dir),
            Err(RegistryError::Empty { .. })
        ));
        assert!(matches!(
            ModelRegistry::load_dir(dir.join("missing")),
            Err(RegistryError::Io { .. })
        ));
    }

    #[test]
    fn corrupt_model_file_names_the_path() {
        let dir = tmp_dir("corrupt");
        save_model(&dir, "good", &tiny_model(3)).unwrap();
        let bad = dir.join("bad.model");
        let mut text = tiny_model(4).to_text();
        text.truncate(text.len() / 2);
        std::fs::write(&bad, text).unwrap();
        match ModelRegistry::load_dir(&dir) {
            Err(RegistryError::Corrupt { path, .. }) => assert_eq!(path, bad),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn from_models_rejects_unknown_feature_widths() {
        let odd = GraphModel::new(ModelKind::Gcn, Aggregation::Sum, 3, 4, 4, 5);
        let err = ModelRegistry::from_models([("odd".to_owned(), odd)]).unwrap_err();
        assert!(matches!(
            err,
            RegistryError::BadFeatureWidth { width: 3, .. }
        ));
        assert!(err.to_string().contains("3 input features"), "{err}");
    }
}
