//! The catalog directory: versioned artifacts under a signed index.
//!
//! A catalog is a plain directory:
//!
//! ```text
//! catalog/
//! ├── catalog.json          the signed index (schema "efd-catalog.v1")
//! ├── hpc-apps.v1.efdb      artifact bytes, canonical EFDB
//! ├── hpc-apps.v2.efdb
//! └── io-suite.v1.efdb
//! ```
//!
//! **Versioning.** Versions are per-name, monotonically increasing, and
//! never reused: publishing after a rollback continues from the highest
//! version ever issued, retired or not, so an artifact reference like
//! `hpc-apps@v2` is forever unambiguous. [`Catalog::rollback`] *retires*
//! the newest live version rather than deleting bytes — audits can still
//! read it, `@latest` just no longer resolves to it.
//!
//! **Integrity.** Two digest layers, both the workspace-standard
//! [`FxHasher`](efd_util::FxHasher) 64-bit hash:
//!
//! * every artifact record stores the digest of its file's bytes, checked
//!   on [`Catalog::read_bytes`] — a swapped or truncated `.efdb` is
//!   caught before it can serve a single verdict;
//! * the index itself stores `index_digest`, the hash of the canonical
//!   rendering of its artifact records, checked on [`Catalog::open`] — a
//!   hand-edited index is rejected rather than trusted.
//!
//! The EFDB header's own `catalog_digest` (metric-name table) is recorded
//! per artifact too, so `efd catalog show` can flag artifacts written
//! against a different metric catalog without opening them.
//!
//! Writes go through a temp file + rename, the same crash-safety idiom as
//! the WAL segments: a torn publish leaves the previous index intact.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use efd_util::hash::hash_bytes;

/// Index file name inside a catalog directory.
pub const INDEX_FILE: &str = "catalog.json";

/// Schema tag the index must carry.
pub const INDEX_SCHEMA: &str = "efd-catalog.v1";

/// Errors from catalog operations.
#[derive(Debug)]
pub enum CatalogError {
    /// Filesystem failure (path + OS error).
    Io(String),
    /// The index or an artifact failed validation.
    Corrupt(String),
    /// A name, version, or reference did not resolve.
    NotFound(String),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::Io(m) => write!(f, "catalog io: {m}"),
            CatalogError::Corrupt(m) => write!(f, "catalog corrupt: {m}"),
            CatalogError::NotFound(m) => write!(f, "catalog: {m}"),
        }
    }
}

impl std::error::Error for CatalogError {}

type Result<T> = std::result::Result<T, CatalogError>;

/// The abstention baseline recorded when a version is published — the
/// reference the serve layer's drift monitor compares live traffic to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Baseline {
    /// Queries scored to produce the baseline.
    pub queries: usize,
    /// Fraction answered `Unknown`.
    pub unknown_rate: f64,
    /// Fraction answered `Ambiguous`.
    pub ambiguous_rate: f64,
    /// Macro-averaged F1 over the scored apps.
    pub macro_f1: f64,
}

/// One published artifact record in the index.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Catalog name (`[A-Za-z0-9_-]+`).
    pub name: String,
    /// Per-name version, starting at 1.
    pub version: u32,
    /// File name inside the catalog directory.
    pub file: String,
    /// FxHash64 of the artifact file's bytes.
    pub digest: u64,
    /// The EFDB header's metric-catalog digest.
    pub catalog_digest: u64,
    /// Rounding depth of the dictionary.
    pub depth: u8,
    /// Fingerprint key count.
    pub keys: usize,
    /// Distinct application count.
    pub apps: usize,
    /// Distinct label (app + input) count.
    pub labels: usize,
    /// The version this one superseded, if any.
    pub parent: Option<u32>,
    /// Where the dictionary came from (source dump path, as given).
    pub source: String,
    /// Publish time, seconds since the Unix epoch.
    pub created_unix: u64,
    /// Abstention baseline measured at publish time.
    pub baseline: Option<Baseline>,
    /// Retired by rollback: kept for audit, skipped by `@latest`.
    pub retired: bool,
}

impl Artifact {
    /// The canonical reference string, e.g. `hpc-apps@v3`.
    pub fn artifact_ref(&self) -> String {
        format!("{}@v{}", self.name, self.version)
    }

    /// One-line provenance, the form every load path prints.
    pub fn provenance(&self) -> String {
        let baseline = match &self.baseline {
            Some(b) => format!(
                "baseline unknown={:.3} ambiguous={:.3} f1={:.3}",
                b.unknown_rate, b.ambiguous_rate, b.macro_f1
            ),
            None => "no baseline".to_string(),
        };
        format!(
            "{} depth={} keys={} apps={} labels={} parent={} source={} {}{}",
            self.artifact_ref(),
            self.depth,
            self.keys,
            self.apps,
            self.labels,
            match self.parent {
                Some(p) => format!("v{p}"),
                None => "-".to_string(),
            },
            self.source,
            baseline,
            if self.retired { " (retired)" } else { "" },
        )
    }
}

/// Provenance supplied by the publisher (the CLI) alongside the bytes.
#[derive(Debug, Clone)]
pub struct PublishMeta {
    /// The EFDB header's metric-catalog digest.
    pub catalog_digest: u64,
    /// Rounding depth.
    pub depth: u8,
    /// Key count.
    pub keys: usize,
    /// Distinct app count.
    pub apps: usize,
    /// Distinct label count.
    pub labels: usize,
    /// Source dump path, as given on the command line.
    pub source: String,
    /// Publish time, seconds since the Unix epoch.
    pub created_unix: u64,
    /// Abstention baseline, if one was computed.
    pub baseline: Option<Baseline>,
}

/// A parsed artifact reference: `name`, `name@latest`, or `name@vN`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogRef {
    /// Catalog name.
    pub name: String,
    /// Pinned version; `None` means latest live.
    pub version: Option<u32>,
}

/// Valid catalog names: non-empty, `[A-Za-z0-9_-]` only. Dots are
/// excluded so file paths (`dump.json`, `a.efdb`) never parse as refs.
pub fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
}

impl CatalogRef {
    /// Parse a reference. Returns `None` for anything that is not a
    /// well-formed reference (callers fall back to treating the string
    /// as a file path).
    pub fn parse(s: &str) -> Option<CatalogRef> {
        let (name, version) = match s.split_once('@') {
            None => (s, None),
            Some((n, "latest")) => (n, None),
            Some((n, v)) => {
                let v = v.strip_prefix('v')?;
                (n, Some(v.parse::<u32>().ok().filter(|v| *v > 0)?))
            }
        };
        valid_name(name).then(|| CatalogRef {
            name: name.to_string(),
            version,
        })
    }
}

impl fmt::Display for CatalogRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.version {
            Some(v) => write!(f, "{}@v{}", self.name, v),
            None => write!(f, "{}@latest", self.name),
        }
    }
}

/// An open catalog directory.
#[derive(Debug)]
pub struct Catalog {
    dir: PathBuf,
    artifacts: Vec<Artifact>,
}

impl Catalog {
    /// Open (or initialize) a catalog directory. A missing directory or
    /// index is an empty catalog; a present-but-invalid index is
    /// [`CatalogError::Corrupt`].
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        let index = dir.join(INDEX_FILE);
        let artifacts = match fs::read_to_string(&index) {
            Ok(text) => parse_index(&text)
                .map_err(|e| CatalogError::Corrupt(format!("{}: {e}", index.display())))?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(CatalogError::Io(format!("{}: {e}", index.display()))),
        };
        Ok(Self { dir, artifacts })
    }

    /// The catalog directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// All artifact records, oldest first (publication order).
    pub fn artifacts(&self) -> &[Artifact] {
        &self.artifacts
    }

    /// Sorted distinct artifact names.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.artifacts.iter().map(|a| a.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// The newest live (non-retired) version of `name`.
    pub fn latest(&self, name: &str) -> Option<&Artifact> {
        self.artifacts
            .iter()
            .filter(|a| a.name == name && !a.retired)
            .max_by_key(|a| a.version)
    }

    /// A specific version of `name`, retired or not.
    pub fn get(&self, name: &str, version: u32) -> Option<&Artifact> {
        self.artifacts
            .iter()
            .find(|a| a.name == name && a.version == version)
    }

    /// Resolve a reference to an artifact record.
    pub fn resolve(&self, r: &CatalogRef) -> Result<&Artifact> {
        match r.version {
            Some(v) => self.get(&r.name, v).ok_or_else(|| {
                CatalogError::NotFound(format!(
                    "no artifact {}@v{v} in {}",
                    r.name,
                    self.dir.display()
                ))
            }),
            None => self.latest(&r.name).ok_or_else(|| {
                CatalogError::NotFound(format!(
                    "no live artifact named {:?} in {}",
                    r.name,
                    self.dir.display()
                ))
            }),
        }
    }

    /// Publish `bytes` (canonical EFDB) as the next version of `name`.
    /// Returns the new record.
    pub fn publish(&mut self, name: &str, bytes: &[u8], meta: PublishMeta) -> Result<&Artifact> {
        if !valid_name(name) {
            return Err(CatalogError::NotFound(format!(
                "invalid catalog name {name:?} (want [A-Za-z0-9_-]+)"
            )));
        }
        // Never reuse a version number, even across rollbacks.
        let next = self
            .artifacts
            .iter()
            .filter(|a| a.name == name)
            .map(|a| a.version)
            .max()
            .unwrap_or(0)
            + 1;
        let parent = self.latest(name).map(|a| a.version);
        let file = format!("{name}.v{next}.efdb");
        fs::create_dir_all(&self.dir)
            .map_err(|e| CatalogError::Io(format!("{}: {e}", self.dir.display())))?;
        write_atomic(&self.dir.join(&file), bytes)?;
        self.artifacts.push(Artifact {
            name: name.to_string(),
            version: next,
            file,
            digest: hash_bytes(bytes),
            catalog_digest: meta.catalog_digest,
            depth: meta.depth,
            keys: meta.keys,
            apps: meta.apps,
            labels: meta.labels,
            parent,
            source: meta.source,
            created_unix: meta.created_unix,
            baseline: meta.baseline,
            retired: false,
        });
        self.save()?;
        Ok(self.artifacts.last().expect("just pushed"))
    }

    /// Publish a live dictionary: encode to canonical EFDB and derive
    /// the structural provenance (depth, key/app/label counts, metric
    /// catalog digest) from the dictionary itself, so the index can
    /// never disagree with the bytes it describes.
    pub fn publish_dictionary(
        &mut self,
        name: &str,
        dict: &efd_core::EfdDictionary,
        metric_catalog: &efd_telemetry::MetricCatalog,
        source: &str,
        created_unix: u64,
        baseline: Option<Baseline>,
    ) -> Result<&Artifact> {
        let bytes = efd_core::binfmt::write_dictionary(dict, metric_catalog);
        let meta = PublishMeta {
            catalog_digest: efd_core::binfmt::catalog_digest(metric_catalog),
            depth: dict.depth().get(),
            keys: dict.len(),
            apps: dict.app_names().len(),
            labels: dict.label_count(),
            source: source.to_string(),
            created_unix,
            baseline,
        };
        self.publish(name, &bytes, meta)
    }

    /// Retire the newest live version of `name`. Returns the retired
    /// version and the version `@latest` now resolves to (if any).
    pub fn rollback(&mut self, name: &str) -> Result<(u32, Option<u32>)> {
        let retired = self
            .latest(name)
            .map(|a| a.version)
            .ok_or_else(|| CatalogError::NotFound(format!("no live artifact named {name:?}")))?;
        for a in &mut self.artifacts {
            if a.name == name && a.version == retired {
                a.retired = true;
            }
        }
        self.save()?;
        Ok((retired, self.latest(name).map(|a| a.version)))
    }

    /// Read and integrity-check an artifact's bytes.
    pub fn read_bytes(&self, artifact: &Artifact) -> Result<Vec<u8>> {
        let path = self.dir.join(&artifact.file);
        let bytes = efd_util::read_file(&path)
            .map_err(|e| CatalogError::Io(format!("{}: {e}", path.display())))?;
        let digest = hash_bytes(&bytes);
        if digest != artifact.digest {
            return Err(CatalogError::Corrupt(format!(
                "{}: digest {:016x} does not match index ({:016x}) — artifact bytes changed \
                 since publish",
                path.display(),
                digest,
                artifact.digest
            )));
        }
        Ok(bytes)
    }

    /// Persist the index (canonical rendering, temp file + rename).
    fn save(&self) -> Result<()> {
        fs::create_dir_all(&self.dir)
            .map_err(|e| CatalogError::Io(format!("{}: {e}", self.dir.display())))?;
        write_atomic(
            &self.dir.join(INDEX_FILE),
            render_index(&self.artifacts).as_bytes(),
        )
    }
}

/// Write `bytes` to `path` via a sibling temp file and atomic rename.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    let tmp = path.with_extension("tmp");
    let io = |e: std::io::Error| CatalogError::Io(format!("{}: {e}", path.display()));
    let mut f = fs::File::create(&tmp).map_err(io)?;
    f.write_all(bytes).map_err(io)?;
    f.sync_all().map_err(io)?;
    drop(f);
    fs::rename(&tmp, path).map_err(io)
}

// ---------------------------------------------------------------------
// Index rendering / parsing
// ---------------------------------------------------------------------

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Canonical rendering of the artifact records alone — the bytes the
/// index digest signs. Deterministic: field order is fixed, floats render
/// with Rust's shortest-round-trip formatting.
fn render_artifacts(artifacts: &[Artifact]) -> String {
    let mut out = String::from("[");
    for (i, a) in artifacts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"version\":{},\"file\":\"{}\",\"digest\":\"{:016x}\",\
             \"efdb_catalog_digest\":\"{:016x}\",\"depth\":{},\"keys\":{},\"apps\":{},\
             \"labels\":{},\"parent\":{},\"source\":\"{}\",\"created_unix\":{},",
            json_escape(&a.name),
            a.version,
            json_escape(&a.file),
            a.digest,
            a.catalog_digest,
            a.depth,
            a.keys,
            a.apps,
            a.labels,
            match a.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            },
            json_escape(&a.source),
            a.created_unix,
        ));
        match &a.baseline {
            Some(b) => out.push_str(&format!(
                "\"baseline\":{{\"queries\":{},\"unknown_rate\":{},\"ambiguous_rate\":{},\
                 \"macro_f1\":{}}},",
                b.queries, b.unknown_rate, b.ambiguous_rate, b.macro_f1
            )),
            None => out.push_str("\"baseline\":null,"),
        }
        out.push_str(&format!("\"retired\":{}}}", a.retired));
    }
    out.push(']');
    out
}

/// Render the full signed index document.
fn render_index(artifacts: &[Artifact]) -> String {
    let body = render_artifacts(artifacts);
    format!(
        "{{\"schema\":\"{INDEX_SCHEMA}\",\"index_digest\":\"{:016x}\",\"artifacts\":{body}}}\n",
        hash_bytes(body.as_bytes())
    )
}

fn field<'v>(v: &'v serde::Value, key: &str) -> std::result::Result<&'v serde::Value, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn hex_digest(v: &serde::Value, key: &str) -> std::result::Result<u64, String> {
    let s = field(v, key)?
        .as_str()
        .ok_or_else(|| format!("field {key:?} must be a hex string"))?;
    u64::from_str_radix(s, 16).map_err(|e| format!("field {key:?}: {e}"))
}

fn uint(v: &serde::Value, key: &str) -> std::result::Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} must be a non-negative integer"))
}

fn string(v: &serde::Value, key: &str) -> std::result::Result<String, String> {
    Ok(field(v, key)?
        .as_str()
        .ok_or_else(|| format!("field {key:?} must be a string"))?
        .to_string())
}

fn parse_artifact(v: &serde::Value) -> std::result::Result<Artifact, String> {
    let baseline = match field(v, "baseline")? {
        serde::Value::Null => None,
        b => Some(Baseline {
            queries: uint(b, "queries")? as usize,
            unknown_rate: field(b, "unknown_rate")?
                .as_f64()
                .ok_or("baseline.unknown_rate must be a number")?,
            ambiguous_rate: field(b, "ambiguous_rate")?
                .as_f64()
                .ok_or("baseline.ambiguous_rate must be a number")?,
            macro_f1: field(b, "macro_f1")?
                .as_f64()
                .ok_or("baseline.macro_f1 must be a number")?,
        }),
    };
    Ok(Artifact {
        name: string(v, "name")?,
        version: uint(v, "version")? as u32,
        file: string(v, "file")?,
        digest: hex_digest(v, "digest")?,
        catalog_digest: hex_digest(v, "efdb_catalog_digest")?,
        depth: uint(v, "depth")? as u8,
        keys: uint(v, "keys")? as usize,
        apps: uint(v, "apps")? as usize,
        labels: uint(v, "labels")? as usize,
        parent: match field(v, "parent")? {
            serde::Value::Null => None,
            p => Some(
                p.as_u64()
                    .ok_or("field \"parent\" must be null or integer")? as u32,
            ),
        },
        source: string(v, "source")?,
        created_unix: uint(v, "created_unix")?,
        baseline,
        retired: match field(v, "retired")? {
            serde::Value::Bool(b) => *b,
            _ => return Err("field \"retired\" must be a boolean".into()),
        },
    })
}

/// Parse and verify a signed index document.
fn parse_index(text: &str) -> std::result::Result<Vec<Artifact>, String> {
    let root: serde::Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let schema = string(&root, "schema")?;
    if schema != INDEX_SCHEMA {
        return Err(format!("schema {schema:?}, want {INDEX_SCHEMA:?}"));
    }
    let stored = hex_digest(&root, "index_digest")?;
    let artifacts: Vec<Artifact> = field(&root, "artifacts")?
        .as_arr()
        .ok_or("field \"artifacts\" must be an array")?
        .iter()
        .map(parse_artifact)
        .collect::<std::result::Result<_, _>>()?;
    // Re-render canonically and check the signature: a hand-edited record
    // (or a record the canonical writer didn't produce) fails here.
    let canonical = render_artifacts(&artifacts);
    let actual = hash_bytes(canonical.as_bytes());
    if actual != stored {
        return Err(format!(
            "index digest {actual:016x} does not match signed {stored:016x} — index edited \
             outside `efd catalog`?"
        ));
    }
    Ok(artifacts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "efd-catalog-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn meta(source: &str) -> PublishMeta {
        PublishMeta {
            catalog_digest: 0xABCD,
            depth: 2,
            keys: 10,
            apps: 3,
            labels: 4,
            source: source.to_string(),
            created_unix: 1_700_000_000,
            baseline: Some(Baseline {
                queries: 100,
                unknown_rate: 0.05,
                ambiguous_rate: 0.125,
                macro_f1: 0.9,
            }),
        }
    }

    #[test]
    fn publish_versions_and_reopen() {
        let dir = scratch("publish");
        let mut c = Catalog::open(&dir).unwrap();
        assert!(c.artifacts().is_empty());
        c.publish("hpc-apps", b"v1 bytes", meta("a.json")).unwrap();
        let a2 = c.publish("hpc-apps", b"v2 bytes", meta("b.json")).unwrap();
        assert_eq!(a2.version, 2);
        assert_eq!(a2.parent, Some(1));
        assert_eq!(a2.file, "hpc-apps.v2.efdb");

        let reopened = Catalog::open(&dir).unwrap();
        assert_eq!(reopened.artifacts(), c.artifacts(), "index round-trips");
        let latest = reopened.latest("hpc-apps").unwrap();
        assert_eq!(latest.version, 2);
        assert_eq!(reopened.read_bytes(latest).unwrap(), b"v2 bytes");
        assert_eq!(
            reopened
                .latest("hpc-apps")
                .unwrap()
                .baseline
                .unwrap()
                .ambiguous_rate,
            0.125
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rollback_retires_but_never_reuses_versions() {
        let dir = scratch("rollback");
        let mut c = Catalog::open(&dir).unwrap();
        c.publish("apps", b"one", meta("a")).unwrap();
        c.publish("apps", b"two", meta("b")).unwrap();
        let (retired, now) = c.rollback("apps").unwrap();
        assert_eq!((retired, now), (2, Some(1)));
        // v2 is still resolvable by pin, just not by @latest.
        assert!(c.get("apps", 2).unwrap().retired);
        assert_eq!(
            c.resolve(&CatalogRef::parse("apps@v2").unwrap())
                .unwrap()
                .version,
            2
        );
        assert_eq!(
            c.resolve(&CatalogRef::parse("apps").unwrap())
                .unwrap()
                .version,
            1
        );
        // The next publish skips the retired number.
        let a3 = c.publish("apps", b"three", meta("c")).unwrap();
        assert_eq!(a3.version, 3);
        assert_eq!(
            a3.parent,
            Some(1),
            "parent is the live latest, not the retired v2"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_index_and_artifact_are_rejected() {
        let dir = scratch("tamper");
        let mut c = Catalog::open(&dir).unwrap();
        c.publish("apps", b"payload", meta("a")).unwrap();

        // Flip a byte in the artifact: read_bytes must refuse.
        let path = dir.join("apps.v1.efdb");
        fs::write(&path, b"Payload").unwrap();
        let reopened = Catalog::open(&dir).unwrap();
        let art = reopened.latest("apps").unwrap();
        let err = reopened.read_bytes(art).unwrap_err();
        assert!(matches!(err, CatalogError::Corrupt(_)), "{err}");

        // Hand-edit the index: open must refuse.
        let index = dir.join(INDEX_FILE);
        let text = fs::read_to_string(&index)
            .unwrap()
            .replace("\"keys\":10", "\"keys\":99");
        fs::write(&index, text).unwrap();
        let err = Catalog::open(&dir).unwrap_err();
        assert!(matches!(err, CatalogError::Corrupt(_)), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn refs_parse_and_reject() {
        assert_eq!(
            CatalogRef::parse("hpc-apps@v3"),
            Some(CatalogRef {
                name: "hpc-apps".into(),
                version: Some(3)
            })
        );
        assert_eq!(
            CatalogRef::parse("hpc-apps@latest"),
            Some(CatalogRef {
                name: "hpc-apps".into(),
                version: None
            })
        );
        assert_eq!(
            CatalogRef::parse("hpc_apps"),
            Some(CatalogRef {
                name: "hpc_apps".into(),
                version: None
            })
        );
        for bad in [
            "dump.json",
            "a/b",
            "apps@3",
            "apps@v0",
            "apps@vx",
            "",
            "@v1",
            "a b",
        ] {
            assert_eq!(CatalogRef::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn missing_names_are_not_found() {
        let dir = scratch("missing");
        let c = Catalog::open(&dir).unwrap();
        let err = c.resolve(&CatalogRef::parse("ghost").unwrap()).unwrap_err();
        assert!(matches!(err, CatalogError::NotFound(_)), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
