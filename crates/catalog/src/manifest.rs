//! The `recognizer.v1` manifest: a declarative recognizer stack.
//!
//! A manifest names a list of backend **stages** in precedence order.
//! Serving evaluates stages top to bottom and returns the first
//! *confident* verdict (`Recognized` with a matched-point fraction at or
//! above the stage's `min_confidence`); if no stage is confident, the
//! primary (first) stage's verdict stands — abstention is an answer, and
//! it should be the most trusted backend's abstention.
//!
//! ```json
//! {
//!   "schema": "recognizer.v1",
//!   "name": "prod-stack",
//!   "catalog": "catalog",
//!   "stack": [
//!     { "backend": "exact", "artifact": "hpc-apps@latest", "min_confidence": 0.6 },
//!     { "backend": "combo", "artifact": "hpc-apps@latest", "min_confidence": 0.5 },
//!     { "backend": "knn", "k": 3, "artifact": "hpc-apps@latest", "min_confidence": 0.0 }
//!   ]
//! }
//! ```
//!
//! `artifact` is a catalog reference (`name`, `name@latest`, `name@vN`)
//! resolved against `catalog` — a directory path, relative to the
//! manifest file's own location — or a direct `.efdb`/`.json` file path.
//! The manifest is *data*: the same file drives `efd serve --manifest`,
//! hot reload over SWAP/SIGHUP, and the CI lifecycle smoke. Field-level
//! schema reference lives in `docs/FORMAT.md`.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use crate::store::CatalogError;

/// Schema tag a manifest must carry.
pub const MANIFEST_SCHEMA: &str = "recognizer.v1";

/// Which engine a stage runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageBackend {
    /// The read-only snapshot of the exact dictionary. `efdb` and
    /// `sharded`, names older manifests may carry, read as this.
    Exact,
    /// Combinatorial (multi-point) fingerprint snapshot.
    Combo,
    /// k-nearest-neighbour fallback with abstention.
    Knn {
        /// Neighbour count.
        k: usize,
    },
    /// Gaussian naive-Bayes fallback with abstention.
    GaussianNb,
}

impl StageBackend {
    /// Every stage backend's manifest name, in `docs/FORMAT.md` order.
    pub const NAMES: [&'static str; 4] = ["exact", "combo", "knn", "gaussian-nb"];

    /// The manifest's string form.
    pub fn name(&self) -> &'static str {
        match self {
            StageBackend::Exact => "exact",
            StageBackend::Combo => "combo",
            StageBackend::Knn { .. } => "knn",
            StageBackend::GaussianNb => "gaussian-nb",
        }
    }
}

impl fmt::Display for StageBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StageBackend::Knn { k } => write!(f, "knn(k={k})"),
            other => f.write_str(other.name()),
        }
    }
}

/// One stage of the stack: a backend over an artifact, with the
/// confidence bar a verdict must clear to end evaluation here.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestStage {
    /// Engine kind.
    pub backend: StageBackend,
    /// Catalog reference or file path of the dictionary it serves.
    pub artifact: String,
    /// Minimum matched-point fraction for a `Recognized` verdict to win
    /// (`0.0` = any recognition wins, `1.0` = every point must match).
    pub min_confidence: f64,
}

/// A parsed, validated `recognizer.v1` manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Stack name (reported by `efd ctl status` and `/metrics`).
    pub name: String,
    /// Catalog directory artifact references resolve against, already
    /// resolved relative to the manifest file when loaded from disk.
    pub catalog_dir: Option<PathBuf>,
    /// The stages, precedence order.
    pub stack: Vec<ManifestStage>,
}

fn invalid(msg: impl fmt::Display) -> CatalogError {
    CatalogError::Corrupt(format!("manifest: {msg}"))
}

fn parse_stage(i: usize, v: &serde::Value) -> Result<ManifestStage, CatalogError> {
    let backend_name = v
        .get("backend")
        .and_then(|b| b.as_str())
        .ok_or_else(|| invalid(format!("stack[{i}]: missing string field \"backend\"")))?;
    let backend = match backend_name {
        "exact" | "efdb" | "sharded" => StageBackend::Exact,
        "combo" => StageBackend::Combo,
        "knn" => {
            let k = match v.get("k") {
                None => 3,
                Some(k) => k
                    .as_u64()
                    .filter(|k| *k >= 1)
                    .ok_or_else(|| invalid(format!("stack[{i}]: \"k\" must be an integer >= 1")))?
                    as usize,
            };
            StageBackend::Knn { k }
        }
        "gaussian-nb" => StageBackend::GaussianNb,
        other => {
            return Err(invalid(format!(
                "stack[{i}]: unknown backend {other:?} (want {})",
                StageBackend::NAMES.join("|")
            )))
        }
    };
    let artifact = v
        .get("artifact")
        .and_then(|a| a.as_str())
        .ok_or_else(|| invalid(format!("stack[{i}]: missing string field \"artifact\"")))?
        .to_string();
    if artifact.is_empty() {
        return Err(invalid(format!("stack[{i}]: \"artifact\" must be non-empty")));
    }
    let min_confidence = match v.get("min_confidence") {
        None => 0.0,
        Some(c) => c
            .as_f64()
            .filter(|c| c.is_finite() && (0.0..=1.0).contains(c))
            .ok_or_else(|| {
                invalid(format!("stack[{i}]: \"min_confidence\" must be a number in [0, 1]"))
            })?,
    };
    Ok(ManifestStage {
        backend,
        artifact,
        min_confidence,
    })
}

impl Manifest {
    /// Parse and validate manifest JSON. `catalog_dir` comes back exactly
    /// as written; use [`Manifest::load`] to resolve it against the file.
    pub fn parse(text: &str) -> Result<Manifest, CatalogError> {
        let root: serde::Value =
            serde_json::from_str(text).map_err(|e| invalid(format!("bad JSON: {e}")))?;
        let schema = root
            .get("schema")
            .and_then(|s| s.as_str())
            .ok_or_else(|| invalid("missing string field \"schema\""))?;
        if schema != MANIFEST_SCHEMA {
            return Err(invalid(format!("schema {schema:?}, want {MANIFEST_SCHEMA:?}")));
        }
        let name = root
            .get("name")
            .and_then(|n| n.as_str())
            .ok_or_else(|| invalid("missing string field \"name\""))?
            .to_string();
        let catalog_dir = match root.get("catalog") {
            None | Some(serde::Value::Null) => None,
            Some(c) => Some(PathBuf::from(
                c.as_str().ok_or_else(|| invalid("\"catalog\" must be a string path"))?,
            )),
        };
        let stack = root
            .get("stack")
            .and_then(|s| s.as_arr())
            .ok_or_else(|| invalid("missing array field \"stack\""))?;
        if stack.is_empty() {
            return Err(invalid("\"stack\" must have at least one stage"));
        }
        let stack = stack
            .iter()
            .enumerate()
            .map(|(i, v)| parse_stage(i, v))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Manifest {
            name,
            catalog_dir,
            stack,
        })
    }

    /// Load a manifest file; a relative `catalog` directory resolves
    /// against the manifest's own parent directory, so a manifest and its
    /// catalog travel together.
    pub fn load(path: &Path) -> Result<Manifest, CatalogError> {
        let text = fs::read_to_string(path)
            .map_err(|e| CatalogError::Io(format!("{}: {e}", path.display())))?;
        let mut m = Self::parse(&text)
            .map_err(|e| invalid(format!("{}: {e}", path.display())))?;
        if let Some(dir) = &m.catalog_dir {
            if dir.is_relative() {
                let base = path.parent().unwrap_or(Path::new("."));
                m.catalog_dir = Some(base.join(dir));
            }
        }
        Ok(m)
    }

    /// The primary (highest-precedence) stage.
    pub fn primary(&self) -> &ManifestStage {
        &self.stack[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
      "schema": "recognizer.v1",
      "name": "prod",
      "catalog": "cat",
      "stack": [
        { "backend": "exact", "artifact": "apps@latest", "min_confidence": 0.6 },
        { "backend": "combo", "artifact": "apps@v2", "min_confidence": 0.5 },
        { "backend": "knn", "k": 5, "artifact": "apps@latest" }
      ]
    }"#;

    #[test]
    fn parses_a_full_stack() {
        let m = Manifest::parse(GOOD).unwrap();
        assert_eq!(m.name, "prod");
        assert_eq!(m.catalog_dir.as_deref(), Some(Path::new("cat")));
        assert_eq!(m.stack.len(), 3);
        assert_eq!(m.primary().backend, StageBackend::Exact);
        assert_eq!(m.stack[2].backend, StageBackend::Knn { k: 5 });
        assert_eq!(m.stack[2].min_confidence, 0.0, "defaults to 0");
    }

    #[test]
    fn listed_names_parse_and_retired_store_names_read_as_exact() {
        let stage = |name: &str| {
            let text = format!(
                r#"{{"schema":"recognizer.v1","name":"x","stack":[{{"backend":"{name}","artifact":"a"}}]}}"#
            );
            Manifest::parse(&text).unwrap().primary().backend.clone()
        };
        for name in StageBackend::NAMES {
            assert_eq!(stage(name).name(), name);
        }
        // `recognizer.v1` files are persisted: the store names older
        // manifests carry must keep loading, as `exact`.
        for name in ["efdb", "sharded"] {
            assert_eq!(stage(name), StageBackend::Exact, "{name}");
        }
    }

    #[test]
    fn load_resolves_relative_catalog_dir() {
        let dir = std::env::temp_dir().join(format!("efd-manifest-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stack.json");
        fs::write(&path, GOOD).unwrap();
        let m = Manifest::load(&path).unwrap();
        assert_eq!(m.catalog_dir.as_deref(), Some(dir.join("cat").as_path()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_malformed_manifests() {
        let cases = [
            ("{}", "schema"),
            (r#"{"schema":"recognizer.v2","name":"x","stack":[]}"#, "schema"),
            (r#"{"schema":"recognizer.v1","name":"x","stack":[]}"#, "at least one"),
            (
                r#"{"schema":"recognizer.v1","name":"x","stack":[{"backend":"nope","artifact":"a"}]}"#,
                "unknown backend \"nope\" (want exact|combo|knn|gaussian-nb)",
            ),
            (
                r#"{"schema":"recognizer.v1","name":"x","stack":[{"backend":"exact"}]}"#,
                "artifact",
            ),
            (
                r#"{"schema":"recognizer.v1","name":"x","stack":[{"backend":"exact","artifact":"a","min_confidence":1.5}]}"#,
                "min_confidence",
            ),
            (
                r#"{"schema":"recognizer.v1","name":"x","stack":[{"backend":"knn","k":0,"artifact":"a"}]}"#,
                "\"k\"",
            ),
        ];
        for (text, needle) in cases {
            let err = Manifest::parse(text).unwrap_err().to_string();
            assert!(err.contains(needle), "{text} -> {err}");
        }
    }
}
