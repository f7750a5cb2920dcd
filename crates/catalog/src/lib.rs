//! # efd-catalog — versioned fingerprint-dictionary artifacts
//!
//! The paper's dictionary is a *living* artifact: HPC workloads evolve,
//! the EFD is periodically re-learned, and operators need to track which
//! version is serving, how versions differ, and when live traffic has
//! drifted far enough from a version's baseline that a re-learn is due.
//! This crate supplies the persistent piece of that lifecycle,
//! [`store`], the **catalog directory**: named, monotonically versioned
//! EFDB artifacts (`hpc-apps.v3.efdb`) described by a digest-signed JSON
//! index carrying provenance (source dump, depth, key/app counts, parent
//! version) and the published version's abstention **baseline** — the
//! reference point for the serve layer's drift alarms. The
//! `recognizer.v1` manifests that stack backends over its artifacts are
//! parsed by `efd_serve::Manifest`, next to the backend registry whose
//! names their stages use.
//!
//! The byte-level index schema is documented in `docs/FORMAT.md`; `efd
//! catalog publish/list/show/rollback` and `efd diff` are the CLI
//! surface, and `efd serve --load <ref> --catalog <dir>` serves an
//! artifact.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod store;

pub use store::{
    Artifact, Baseline, Catalog, CatalogError, CatalogRef, PublishMeta, INDEX_FILE, INDEX_SCHEMA,
};
