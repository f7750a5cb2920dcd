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
//! * [`ShardedDictionary`] — the **live** form: fingerprint keys are
//!   partitioned across N shards by hash (`efd_util::hash`), writers lock
//!   one shard at a time, and readers recognize concurrently under
//!   per-shard `RwLock`s. Many threads can learn and recognize at once;
//!   it is what a [`DurableDictionary`] serves.
//! * [`Snapshot`] — the **published** form: an immutable, `Arc`-shareable
//!   read-only store. It keeps a dictionary in the EFDB key-record
//!   layout (a loaded file's own buffer, or the same records laid out in
//!   memory by a freeze) behind a load-time hash index, so cold start
//!   costs one checked pass over the file and resident memory is the
//!   file plus the index. Reads are lock-free; recognition uses dense
//!   per-thread vote counters instead of per-query hash maps, so the
//!   single-query path is also measurably faster than the core oracle
//!   (see the `perf_serving` bench). [`EfdbSnapshot`] is an alias of
//!   it.
//! * [`DurableDictionary`] — a [`ShardedDictionary`] whose learns are
//!   written ahead to an [`efd_core::wal`] directory: crash the process,
//!   reopen, and serve exactly the durably-acknowledged state.
//! * [`StackedRecognizer`] — the served form of a `recognizer.v1`
//!   manifest (`efd-catalog`): backends stacked in precedence order,
//!   first confident verdict wins, primary abstention preserved.
//! * [`Backend`] — the **registry**: a backend name (`snapshot|combo`,
//!   one per store whose keys differ) plus dictionary bytes (or a live
//!   dictionary) in, `Arc<dyn Recognize + Send + Sync>` out. Batch serving, the daemon's load and reload, and manifest
//!   stages all construct backends through it, from the bytes one
//!   loader, [`DictSource::open`], read (and, for a catalog artifact,
//!   digest-verified) once.
//! * [`net`] — the **network** form: a TCP recognition daemon
//!   (`efd serve --listen`) speaking a length-prefixed line protocol
//!   with one thread per connection, atomic engine hot-swap, a same-port
//!   Prometheus `/metrics` endpoint, and a pipelined load generator.
//!
//! ## The engine API
//!
//! Every serving form implements [`efd_core::engine::Recognize`] (and
//! [`ShardedDictionary`] also [`efd_core::engine::Learn`]): callers hold
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
//! ([`Learn`], [`Recognize`], [`ParallelRecognize`], [`VoteScratch`]) for
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
//!        ^                                                     |            +--> OnlineRecognizer
//!        |                     ShardedDictionary --snapshot()--+
//!        |                        ^  (concurrent learn)
//!        +---- to_dictionary() ---+
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod durable;
pub mod efdb;
pub mod keystore;
pub mod net;
pub mod shard;
pub mod snapshot;
pub mod stacked;

pub use backend::{Backend, DictSource};
pub use durable::DurableDictionary;
pub use efdb::EfdbSnapshot;
pub use keystore::KeyStore;
pub use shard::ShardedDictionary;
pub use snapshot::Snapshot;
pub use stacked::{StackedRecognizer, StackedStage};

pub use efd_core::engine::{Learn, ParallelRecognize, Recognize, VoteScratch};

use efd_core::Fingerprint;
use efd_util::FxHasher;
use std::hash::{Hash, Hasher};

/// Upper bound on shard counts (2^16); beyond this the per-shard maps are
/// so small that partitioning overhead dominates.
pub const MAX_SHARD_BITS: u32 = 16;

/// Number of shard-index bits for a requested shard count: the exponent of
/// the next power of two, clamped to `[0, MAX_SHARD_BITS]` (0 bits = 1
/// shard).
pub(crate) fn shard_bits_for(requested: usize) -> u32 {
    requested
        .clamp(1, 1 << MAX_SHARD_BITS)
        .next_power_of_two()
        .trailing_zeros()
}

/// Shard index of a fingerprint: the top `bits` bits of its FxHash.
///
/// The *top* bits are used so shard selection stays decorrelated from the
/// in-shard `FxHashMap` bucket index, which consumes the low bits of the
/// same hash.
pub(crate) fn shard_of(fp: &Fingerprint, bits: u32) -> usize {
    if bits == 0 {
        return 0;
    }
    let mut h = FxHasher::default();
    fp.hash(&mut h);
    (h.finish() >> (64 - bits)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use efd_telemetry::{Interval, MetricId, NodeId};

    #[test]
    fn shard_bits_round_up_and_clamp() {
        assert_eq!(shard_bits_for(0), 0);
        assert_eq!(shard_bits_for(1), 0);
        assert_eq!(shard_bits_for(2), 1);
        assert_eq!(shard_bits_for(3), 2);
        assert_eq!(shard_bits_for(8), 3);
        assert_eq!(shard_bits_for(usize::MAX), MAX_SHARD_BITS);
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let fp = Fingerprint::from_rounded(MetricId(3), NodeId(1), Interval::PAPER_DEFAULT, 6000.0);
        assert_eq!(shard_of(&fp, 0), 0);
        for bits in 1..=8u32 {
            let s = shard_of(&fp, bits);
            assert!(s < (1 << bits));
            assert_eq!(s, shard_of(&fp, bits), "deterministic");
        }
    }

    #[test]
    fn shards_spread_nearby_keys() {
        // Sequential node ids / means must not all land in one shard.
        let mut seen = std::collections::HashSet::new();
        for n in 0..64u16 {
            let fp =
                Fingerprint::from_rounded(MetricId(0), NodeId(n), Interval::PAPER_DEFAULT, 6000.0);
            seen.insert(shard_of(&fp, 3));
        }
        assert!(seen.len() >= 4, "only {} of 8 shards used", seen.len());
    }
}
