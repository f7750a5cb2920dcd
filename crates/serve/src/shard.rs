//! The live, concurrently-mutable form of a dictionary.
//!
//! [`ShardedDictionary`] partitions fingerprint keys across N hash
//! shards, each behind its own `RwLock`, plus one `RwLock`ed label
//! interner. Writers (`learn`, `insert_raw`) take the interner briefly
//! and then exactly one shard write lock, so learners touching different
//! keys proceed in parallel; readers (`recognize`) take only read locks
//! and never block each other. For read-mostly traffic, freeze a
//! [`Snapshot`] with [`ShardedDictionary::snapshot`] and serve that
//! lock-free instead — the live form is for the window where learning and
//! recognition overlap.
//!
//! Lock order is always interner → shard, and at most one shard lock is
//! held at a time, so the structure is deadlock-free by construction.

use std::sync::RwLock;

use efd_core::dictionary::{AppNameId, LabelId};
use efd_core::engine::{Recognize, VoteScratch};
use efd_core::{
    DictionaryParts, EfdDictionary, Fingerprint, LabeledObservation, Query, Recognition,
    RoundingDepth,
};
use efd_telemetry::{AppLabel, Interval, MetricId, NodeId};
use efd_util::FxHashMap;

use crate::snapshot::Snapshot;
use crate::{shard_bits_for, shard_of};

/// The shared label/application interner. Kept outside the shards so one
/// `LabelId` names the same label in every shard.
#[derive(Debug, Default)]
struct LabelTable {
    labels: Vec<AppLabel>,
    label_ids: FxHashMap<AppLabel, LabelId>,
    apps: Vec<String>,
    app_ids: FxHashMap<String, AppNameId>,
    label_app: Vec<AppNameId>,
}

impl LabelTable {
    fn intern(&mut self, label: &AppLabel) -> LabelId {
        if let Some(&id) = self.label_ids.get(label) {
            return id;
        }
        let app_id = match self.app_ids.get(&label.app) {
            Some(&a) => a,
            None => {
                let a = AppNameId::from_index(self.apps.len());
                self.apps.push(label.app.clone());
                self.app_ids.insert(label.app.clone(), a);
                a
            }
        };
        let id = LabelId::from_index(self.labels.len());
        self.labels.push(label.clone());
        self.label_ids.insert(label.clone(), id);
        self.label_app.push(app_id);
        id
    }
}

/// One hash partition: the key→labels map behind its own lock.
type Shard = RwLock<FxHashMap<Fingerprint, Vec<LabelId>>>;

/// A hash-sharded dictionary supporting concurrent learning and
/// recognition.
///
/// Answers are oracle-equivalent: after any interleaving of concurrent
/// `learn` calls, recognition equals a single-threaded
/// [`EfdDictionary`] that learned the same observations (in any order),
/// modulo [`Recognition::normalized`] ordering — key/label *content* is
/// order-independent, and tie-breaks no longer depend on learn order.
///
/// ```
/// use std::thread;
/// use efd_core::{LabeledObservation, Query, RoundingDepth};
/// use efd_serve::{Recognize, ShardedDictionary};
/// use efd_telemetry::{AppLabel, Interval, MetricId};
///
/// let dict = ShardedDictionary::new(RoundingDepth::new(2), 8);
/// // Two threads learn disjoint applications concurrently.
/// thread::scope(|s| {
///     for (app, mean) in [("ft", 6020.0), ("cg", 8110.0)] {
///         let dict = &dict;
///         s.spawn(move || {
///             dict.learn(&LabeledObservation {
///                 label: AppLabel::new(app, "X"),
///                 query: Query::from_node_means(
///                     MetricId(0), Interval::PAPER_DEFAULT, &[mean; 4]),
///             });
///         });
///     }
/// });
/// let q = Query::from_node_means(MetricId(0), Interval::PAPER_DEFAULT, &[8090.0; 4]);
/// assert_eq!(dict.recognize(&q).best(), Some("cg"));
/// ```
#[derive(Debug)]
pub struct ShardedDictionary {
    depth: RoundingDepth,
    shard_bits: u32,
    shards: Box<[Shard]>,
    table: RwLock<LabelTable>,
}

impl ShardedDictionary {
    /// Empty sharded dictionary pruning at `depth`, with `shards` hash
    /// partitions (rounded up to a power of two, clamped to
    /// [`crate::MAX_SHARD_BITS`] bits).
    pub fn new(depth: RoundingDepth, shards: usize) -> Self {
        let shard_bits = shard_bits_for(shards);
        let shards = (0..(1usize << shard_bits))
            .map(|_| RwLock::new(FxHashMap::default()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            depth,
            shard_bits,
            shards,
            table: RwLock::new(LabelTable::default()),
        }
    }

    /// Freeze a learned [`EfdDictionary`] into shards **without
    /// re-learning**: entries are redistributed by key hash, labels keep
    /// their interned ids.
    ///
    /// # Panics
    ///
    /// Panics on internally inconsistent parts (out-of-range ids), like
    /// [`EfdDictionary::from_parts`].
    pub fn from_parts(parts: DictionaryParts, shards: usize) -> Self {
        // Canonicalize through the core dictionary: one shared
        // implementation of key merging, per-list dedup, and consistency
        // validation (which is where the documented panics originate).
        let parts = EfdDictionary::from_parts(parts).into_parts();
        let me = Self::new(parts.depth, shards);
        {
            let mut table = me.table.write().expect("label table poisoned");
            table.label_ids = parts
                .labels
                .iter()
                .enumerate()
                .map(|(i, l)| (l.clone(), LabelId::from_index(i)))
                .collect();
            table.app_ids = parts
                .apps
                .iter()
                .enumerate()
                .map(|(i, a)| (a.clone(), AppNameId::from_index(i)))
                .collect();
            table.labels = parts.labels;
            table.apps = parts.apps;
            table.label_app = parts.label_app;
            for (fp, ids) in parts.entries {
                me.shards[shard_of(&fp, me.shard_bits)]
                    .write()
                    .expect("shard poisoned")
                    .insert(fp, ids);
            }
        }
        me
    }

    /// The rounding depth this dictionary was built with.
    pub fn depth(&self) -> RoundingDepth {
        self.depth
    }

    /// Number of hash partitions.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total number of keys across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("shard poisoned").len())
            .sum()
    }

    /// Whether no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keys per shard, for load-balance inspection.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.read().expect("shard poisoned").len())
            .collect()
    }

    /// Intern `label`, taking the interner write lock only when the label
    /// is genuinely new (double-checked).
    fn intern(&self, label: &AppLabel) -> LabelId {
        if let Some(&id) = self
            .table
            .read()
            .expect("label table poisoned")
            .label_ids
            .get(label)
        {
            return id;
        }
        self.table
            .write()
            .expect("label table poisoned")
            .intern(label)
    }

    /// Insert an interned label under a key, taking exactly that key's
    /// shard write lock. Duplicate `(key, label)` pairs are ignored — the
    /// paper's pruning, same as [`EfdDictionary::insert_raw`].
    fn insert_id(&self, fp: Fingerprint, id: LabelId) {
        let mut shard = self.shards[shard_of(&fp, self.shard_bits)]
            .write()
            .expect("shard poisoned");
        let list = shard.entry(fp).or_default();
        if !list.contains(&id) {
            list.push(id);
        }
    }

    /// Insert one raw mean under `label` (concurrent-safe). Returns
    /// `false` (no-op) for non-finite means; duplicate `(key, label)`
    /// pairs are ignored — same pruning semantics as
    /// [`EfdDictionary::insert_raw`].
    pub fn insert_raw(
        &self,
        metric: MetricId,
        node: NodeId,
        interval: Interval,
        raw_mean: f64,
        label: &AppLabel,
    ) -> bool {
        let Some(fp) = Fingerprint::from_raw(metric, node, interval, raw_mean, self.depth) else {
            return false;
        };
        self.insert_id(fp, self.intern(label));
        true
    }

    /// Learn every point of a labeled observation (concurrent-safe; the
    /// label is interned once, then each point locks exactly one shard).
    pub fn learn(&self, obs: &LabeledObservation) {
        let id = self.intern(&obs.label);
        for p in &obs.query.points {
            let Some(fp) = Fingerprint::from_raw(p.metric, p.node, p.interval, p.mean, self.depth)
            else {
                continue;
            };
            self.insert_id(fp, id);
        }
    }

    /// Learn a batch (sequentially; callers wanting parallelism spawn
    /// their own threads — every method here is `&self`).
    pub fn learn_all(&self, observations: &[LabeledObservation]) {
        for o in observations {
            self.learn(o);
        }
    }

    /// Publish the current state as an immutable [`Snapshot`].
    ///
    /// Shards are copied one at a time under their read locks while the
    /// interner read lock pins the label set, so the snapshot is
    /// per-shard atomic; entries landing in an already-copied shard during
    /// the copy are picked up by the next publication. Learners inserting
    /// under *already-known* labels stall only on the one shard currently
    /// being copied; a learner interning a **new** label needs the interner
    /// write lock and therefore waits for the whole copy.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::from_parts(self.to_parts())
    }

    /// Copy the current state out as [`DictionaryParts`] — the input to
    /// snapshots, EFDB dumps, and WAL segment freezes. Same locking
    /// discipline (and therefore the same per-shard-atomic caveat) as
    /// [`ShardedDictionary::snapshot`]. Entries are emitted in
    /// deterministic packed-key order.
    pub fn to_parts(&self) -> DictionaryParts {
        let table = self.table.read().expect("label table poisoned");
        let mut entries: Vec<(Fingerprint, Vec<LabelId>)> = Vec::new();
        for shard in self.shards.iter() {
            let shard = shard.read().expect("shard poisoned");
            entries.extend(shard.iter().map(|(fp, ids)| (*fp, ids.clone())));
        }
        entries.sort_by_key(|(fp, _)| fp.pack());
        DictionaryParts {
            depth: self.depth,
            entries,
            labels: table.labels.clone(),
            apps: table.apps.clone(),
            label_app: table.label_app.clone(),
        }
    }

    /// Strip the given label ids from every shard, dropping keys whose
    /// lists empty out. Returns the number of keys dropped entirely.
    fn strip_ids(&self, victims: &[LabelId]) -> usize {
        let mut dropped = 0usize;
        for shard in self.shards.iter() {
            let mut shard = shard.write().expect("shard poisoned");
            shard.retain(|_, ids| {
                ids.retain(|id| !victims.contains(id));
                if ids.is_empty() {
                    dropped += 1;
                    false
                } else {
                    true
                }
            });
        }
        dropped
    }

    /// Forget every label of application `app` (concurrent-safe). Returns
    /// the number of keys dropped entirely, like
    /// [`efd_core::maintenance::forget_app`].
    ///
    /// Unlike the core rebuild, the interner is left intact, so the
    /// surviving labels keep their ids and tie-break order — eviction
    /// never perturbs how the remaining applications rank.
    pub fn forget_app(&self, app: &str) -> usize {
        let victims: Vec<LabelId> = {
            let table = self.table.read().expect("label table poisoned");
            let Some(&app_id) = table.app_ids.get(app) else {
                return 0;
            };
            (0..table.labels.len())
                .map(LabelId::from_index)
                .filter(|id| table.label_app[id.index()] == app_id)
                .collect()
        };
        self.strip_ids(&victims)
    }

    /// Forget one specific label (application + input), concurrent-safe.
    /// Returns the number of keys dropped entirely, like
    /// [`efd_core::maintenance::forget_label`]. The interner keeps the
    /// label's id, so survivors' tie-break order is untouched.
    pub fn forget_label(&self, app: &str, input: &str) -> usize {
        let victim = {
            let table = self.table.read().expect("label table poisoned");
            match table.label_ids.get(&AppLabel::new(app, input)) {
                Some(&id) => id,
                None => return 0,
            }
        };
        self.strip_ids(&[victim])
    }

    /// Collapse back into a single-threaded [`EfdDictionary`]. Entries are
    /// emitted in deterministic packed-key order (the concurrent learn
    /// order is not recorded).
    pub fn into_dictionary(self) -> EfdDictionary {
        let table = self.table.into_inner().expect("label table poisoned");
        let mut entries: Vec<(Fingerprint, Vec<LabelId>)> = Vec::new();
        for shard in self.shards.into_vec() {
            let shard = shard.into_inner().expect("shard poisoned");
            entries.extend(shard);
        }
        entries.sort_by_key(|(fp, _)| fp.pack());
        EfdDictionary::from_parts(DictionaryParts {
            depth: self.depth,
            entries,
            labels: table.labels,
            apps: table.apps,
            label_app: table.label_app,
        })
    }
}

/// The live form as an engine backend.
///
/// `recognize_into` holds the interner read lock for the duration (so
/// vote counters can be sized once) and takes each point's shard read
/// lock briefly. Concurrent writers may publish entries between points —
/// recognition against a moving dictionary is per-shard atomic, not a
/// global point-in-time view; freeze a [`Snapshot`] when that matters.
impl Recognize for ShardedDictionary {
    fn recognize_into(&self, query: &Query, scratch: &mut VoteScratch) -> Recognition {
        let table = self.table.read().expect("label table poisoned");
        scratch.ensure(table.labels.len(), table.apps.len());
        let mut matched = 0usize;
        for p in &query.points {
            let Some(fp) = Fingerprint::from_raw(p.metric, p.node, p.interval, p.mean, self.depth)
            else {
                continue;
            };
            let shard = self.shards[shard_of(&fp, self.shard_bits)]
                .read()
                .expect("shard poisoned");
            let Some(ids) = shard.get(&fp) else {
                continue;
            };
            matched += 1;
            scratch.begin_point();
            for &id in ids {
                scratch.vote_label(id);
                scratch.vote_app_deduped(table.label_app[id.index()]);
            }
        }
        scratch.finish(&table.labels, &table.apps, matched, query.points.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: MetricId = MetricId(0);
    const W: Interval = Interval::PAPER_DEFAULT;

    fn obs(app: &str, input: &str, means: &[f64]) -> LabeledObservation {
        LabeledObservation {
            label: AppLabel::new(app, input),
            query: Query::from_node_means(M, W, means),
        }
    }

    fn observations() -> Vec<LabeledObservation> {
        vec![
            obs("ft", "X", &[6020.0, 6020.0, 6020.0, 6020.0]),
            obs("ft", "Y", &[6023.0, 6019.0, 6021.0, 6018.0]),
            obs("sp", "X", &[7617.0, 7520.0, 7520.0, 7121.0]),
            obs("bt", "X", &[7638.0, 7540.0, 7540.0, 7140.0]),
            obs("miniAMR", "X", &[7820.0; 4]),
            obs("miniAMR", "Z", &[10980.0; 4]),
        ]
    }

    fn oracle() -> EfdDictionary {
        let mut d = EfdDictionary::new(RoundingDepth::new(2));
        d.learn_all(&observations());
        d
    }

    fn queries() -> Vec<Query> {
        vec![
            Query::from_node_means(M, W, &[6031.0, 5988.0, 6007.0, 6044.0]),
            Query::from_node_means(M, W, &[7601.0, 7512.0, 7533.0, 7098.0]),
            Query::from_node_means(M, W, &[10951.0, 11020.0, 10990.0, 11043.0]),
            Query::from_node_means(M, W, &[6000.0, 6000.0, 6000.0, 7800.0]),
            Query::from_node_means(M, W, &[1.0, 2.0, 3.0, 4.0]),
        ]
    }

    #[test]
    fn sequential_learn_matches_oracle() {
        let sharded = ShardedDictionary::new(RoundingDepth::new(2), 8);
        sharded.learn_all(&observations());
        let oracle = oracle();
        assert_eq!(sharded.len(), oracle.len());
        for q in queries() {
            assert_eq!(sharded.recognize(&q), oracle.recognize(&q).normalized());
        }
    }

    #[test]
    fn from_parts_distributes_without_relearning() {
        let oracle = oracle();
        let sharded = ShardedDictionary::from_parts(oracle.to_parts(), 4);
        assert_eq!(sharded.shard_count(), 4);
        assert_eq!(sharded.len(), oracle.len());
        assert_eq!(sharded.shard_sizes().iter().sum::<usize>(), oracle.len());
        for q in queries() {
            assert_eq!(sharded.recognize(&q), oracle.recognize(&q).normalized());
        }
    }

    #[test]
    fn snapshot_and_into_dictionary_round_trip() {
        let sharded = ShardedDictionary::new(RoundingDepth::new(2), 8);
        sharded.learn_all(&observations());
        let snap = sharded.snapshot();
        let oracle = oracle();
        for q in queries() {
            assert_eq!(snap.recognize(&q), oracle.recognize(&q).normalized());
        }
        let merged = sharded.into_dictionary();
        assert_eq!(merged.len(), oracle.len());
        for q in queries() {
            assert_eq!(
                merged.recognize(&q).normalized(),
                oracle.recognize(&q).normalized()
            );
        }
    }

    #[test]
    fn duplicate_key_label_pairs_prune() {
        let sharded = ShardedDictionary::new(RoundingDepth::new(2), 2);
        let label = AppLabel::new("ft", "X");
        for _ in 0..3 {
            assert!(sharded.insert_raw(M, NodeId(0), W, 6020.0, &label));
        }
        assert_eq!(sharded.len(), 1);
        assert!(!sharded.insert_raw(M, NodeId(0), W, f64::NAN, &label));
    }

    #[test]
    fn single_shard_degenerates_gracefully() {
        let sharded = ShardedDictionary::new(RoundingDepth::new(2), 1);
        sharded.learn_all(&observations());
        assert_eq!(sharded.shard_count(), 1);
        let oracle = oracle();
        for q in queries() {
            assert_eq!(sharded.recognize(&q), oracle.recognize(&q).normalized());
        }
    }
}
