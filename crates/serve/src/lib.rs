//! # efd-serve — concurrent recognition serving over the EFD core
//!
//! The paper's dictionary lookup is O(1) per query point (§4: "we continue
//! with low complexity by relying on dictionary-based matching of
//! fingerprints with rounded values"), but [`efd_core::EfdDictionary`] is a
//! single-writer structure: `learn` takes `&mut self`, and every
//! `recognize` allocates per-query vote maps. That is the right shape for
//! reproducing Tables 2–4 and the wrong shape for an always-on recognition
//! service fed by streams of jobs (SIREN frames recognition exactly that
//! way). This crate is the serving layer:
//!
//! * [`ShardedDictionary`] — the **live** form: one
//!   [`efd_core::EfdDictionary`] behind one `RwLock`. Writers take the
//!   write lock, readers recognize concurrently under the read lock, and
//!   forgets go through [`efd_core::maintenance`]; it is what a
//!   [`DurableDictionary`] serves.
//! * [`Snapshot`] — the **published** form: an immutable, `Arc`-shareable
//!   read-only store. It keeps a dictionary in the EFDB key-record
//!   layout (a loaded file's own buffer, or the same records laid out in
//!   memory by a freeze) behind a load-time hash index, so cold start
//!   costs one checked pass over the file and resident memory is the
//!   file plus the index. Reads are lock-free; recognition uses dense
//!   per-thread vote counters instead of per-query hash maps, so the
//!   single-query path is also faster than the core oracle (`efd serve`
//!   prints the speedup). [`EfdbSnapshot`] is an alias of it.
//! * [`DurableDictionary`] — a [`ShardedDictionary`] whose learns are
//!   written ahead to an [`efd_core::wal`] directory: crash the process,
//!   reopen, and serve exactly the durably-acknowledged state.
//! * [`StackedRecognizer`] — the served form of a `recognizer.v1`
//!   [`Manifest`]: backends stacked in precedence order, first confident
//!   verdict wins, primary abstention preserved.
//! * [`Backend`] — the **registry**: one enum names, parses and builds
//!   every recognizer that is served or scored — the dictionary stores
//!   (`snapshot`, `combo`, one per store whose keys differ) and the ml
//!   baselines (`knn`, `gaussian-nb`, `forest`) — from dictionary bytes,
//!   a live dictionary or training observations, as an
//!   `Arc<dyn Recognize + Send + Sync>`. Batch serving, the daemon's
//!   load and reload, manifest stages, the scenario matrix and `efd
//!   evaluate`'s ml classifiers all construct backends through it;
//!   served bytes come from one loader, [`DictSource::open`], read
//!   (and, for a catalog artifact, digest-verified) once.
//! * [`net`] — the **network** form: a TCP recognition daemon
//!   (`efd serve --listen`) speaking a length-prefixed line protocol
//!   with one thread per connection, atomic engine hot-swap, a same-port
//!   Prometheus `/metrics` endpoint, and a pipelined load generator.
//!
//! ## The engine API
//!
//! Every serving form implements [`efd_core::engine::Recognize`], and
//! the learnable ones learn through their own inherent `learn` (the
//! WAL-backed one fallibly): callers hold
//! a `Box<dyn Recognize + Send + Sync>` or stay generic over
//! `R: Recognize + Sync` and pick the backend at runtime. The trait's
//! core method `recognize_into` counts votes in caller-owned
//! [`VoteScratch`] (it lives in `efd_core::engine`, so core and serve
//! share one scratch contract); vote counting never allocates, but the
//! returned `Recognition` does (7 allocations for a recognized 2-node
//! query, 11 for an ambiguous one). The verdict-only
//! [`Recognize::answer_into`] fills a reusable [`efd_core::Answer`]
//! instead: [`Snapshot`] overrides it with its probe pipeline, counting
//! no label votes, and a warm call makes 0 allocations,
//! which is what the daemon answers `RECOGNIZE` with
//! (`tests/alloc_free.rs` counts them). This crate re-exports the traits
//! ([`Recognize`], [`ParallelRecognize`], [`VoteScratch`]) for
//! convenience.
//!
//! The traits are also the whole serving API; no wrapper type repeats
//! them. A batch is [`ParallelRecognize::recognize_batch_parallel`] on
//! the published engine (one scratch per worker thread, answers in input
//! order). A live stream is an [`efd_core::online::OnlineRecognizer`]
//! holding an `Arc` of the engine, which makes it `'static` and lets it
//! `swap` to a newer publication mid-stream. The conjunctive
//! [`efd_core::multi::ComboDictionary`] is served as
//! `Arc<ComboDictionary>`. A verdict-only caller reads
//! `Answer::apps().next()` after [`Recognize::answer_into`].
//!
//! ## Equivalence contract
//!
//! Serving must not change answers. Every recognition produced here equals
//! the single-threaded [`efd_core::EfdDictionary`] oracle on the same
//! entries, modulo the deterministic ordering of
//! [`efd_core::Recognition::normalized`] — the concurrency tests and the
//! cross-backend `engine_conformance` suite assert exactly that, and
//! [`efd_core::Recognition::best`] breaks ties without reference to learn
//! order, so concurrent learning cannot skew scoring.
//!
//! ## Typical lifecycle
//!
//! ```text
//! EfdDictionary --to_parts()--> DictionaryParts --freeze--> Snapshot --Arc--+--> recognize_batch_parallel
//!   ^    |                                                  ^   |           +--> OnlineRecognizer
//!   |    +--from_parts()--> ShardedDictionary --snapshot()--+   |
//!   |                       (one RwLock: learn, forget)         |
//!   +------------------------- to_dictionary() -----------------+
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod durable;
pub mod efdb;
pub mod keystore;
pub mod manifest;
mod ml;
pub mod net;
pub mod shard;
pub mod snapshot;
pub mod stacked;

pub use backend::{Backend, DictSource};
pub use durable::DurableDictionary;
pub use efdb::EfdbSnapshot;
pub use keystore::KeyStore;
pub use manifest::{Manifest, ManifestStage, MANIFEST_SCHEMA};
pub use shard::ShardedDictionary;
pub use snapshot::Snapshot;
pub use stacked::{StackedRecognizer, StackedStage};

pub use efd_core::engine::{ParallelRecognize, Recognize, VoteScratch};
