//! Durable serving: a [`ShardedDictionary`] whose every learn (and
//! forget) is written ahead to an [`efd_core::wal`] directory before it
//! mutates the live shards.
//!
//! [`DurableDictionary`] is the serve-layer face of the WAL:
//!
//! * **Open = recover.** [`DurableDictionary::open`] replays the
//!   directory (newest segment + log tail) into the shards, so a
//!   restarted service answers exactly as the durably-acknowledged
//!   prefix of its previous life.
//! * **Log before apply.** [`DurableDictionary::learn`] appends the
//!   operation record (synced per the [`efd_core::wal::SyncPolicy`]) and only then
//!   touches the shards — on `Ok`, the operation survives a crash.
//! * **Freeze when fat.** When the log outgrows its threshold, learns
//!   freeze the current state into an immutable EFDB segment and reset
//!   the log.
//!
//! ## Locking
//!
//! The WAL handle sits in a `Mutex` that is held across *append +
//! apply*: durable writers serialize. That is deliberate — if a freeze
//! could interleave between another writer's append and its shard
//! insert, the frozen segment would miss an acknowledged operation,
//! and the log reset would then discard its record: durability lost.
//! One lock makes `segment ∪ log ⊇ acknowledged` an invariant.
//! Readers ([`Recognize`]) never touch that mutex — recognition runs at
//! full concurrency against the shards, exactly as without a WAL.

use std::path::Path;
use std::sync::Mutex;

use efd_core::engine::{Recognize, VoteScratch};
use efd_core::wal::{self, LearnRecord, Recovery, WalDir, WalError, WalOptions, WalRecord};
use efd_core::{LabeledObservation, Query, Recognition, RoundingDepth};
use efd_telemetry::metric::MetricCatalog;

use crate::ShardedDictionary;

/// Hash shards of the live dictionary; `perfbench`'s trace replays the
/// same count.
const SHARDS: usize = 8;

/// A sharded dictionary with write-ahead durability.
///
/// ```no_run
/// use efd_core::wal::WalOptions;
/// use efd_core::RoundingDepth;
/// use efd_serve::DurableDictionary;
/// use efd_telemetry::catalog::small_catalog;
///
/// let catalog = small_catalog();
/// let (served, recovery) = DurableDictionary::open(
///     "wal-dir".as_ref(),
///     RoundingDepth::new(2),
///     &catalog,
///     WalOptions::default(),
/// ).unwrap();
/// assert_eq!(recovery.replayed, 0);
/// ```
#[derive(Debug)]
pub struct DurableDictionary {
    dict: ShardedDictionary,
    wal: Mutex<WalDir>,
    catalog: MetricCatalog,
}

impl DurableDictionary {
    /// Open (or create) the WAL directory and serve its recovered state.
    ///
    /// The live dictionary is split into eight hash shards. A fresh
    /// directory starts empty at `default_depth`; an existing
    /// one recovers at its logged depth (torn tails truncated, the fault
    /// reported in the returned [`Recovery`]). Segment bytes are loaded
    /// through the checked-buffer view (`efd_core::binfmt::check`): the
    /// file is validated once and decoded straight into dictionary parts,
    /// with no intermediate owned `Efdb` materialization.
    pub fn open(
        dir: &Path,
        default_depth: RoundingDepth,
        catalog: &MetricCatalog,
        options: WalOptions,
    ) -> Result<(DurableDictionary, Recovery), WalError> {
        let (wal, recovery) = WalDir::open(dir, default_depth, catalog, options)?;
        let dict = ShardedDictionary::from_parts(recovery.dictionary.to_parts(), SHARDS);
        Ok((
            DurableDictionary {
                dict,
                wal: Mutex::new(wal),
                catalog: catalog.clone(),
            },
            recovery,
        ))
    }

    /// The live dictionary being served.
    pub fn dictionary(&self) -> &ShardedDictionary {
        &self.dict
    }

    /// Append a record, apply `apply` to the shards, and freeze a segment
    /// if the log crossed its threshold — all under the WAL mutex (see
    /// the module docs for why apply happens under the lock).
    fn logged(
        &self,
        rec: &WalRecord,
        apply: impl FnOnce(&ShardedDictionary),
    ) -> Result<(), WalError> {
        let mut wal = self.wal.lock().expect("wal poisoned");
        wal.append(rec)?;
        apply(&self.dict);
        if wal.should_freeze() {
            wal.freeze(&self.dict.to_parts(), &self.catalog)?;
        }
        Ok(())
    }

    /// Durably learn one observation: on `Ok`, the learn is in the log
    /// (synced per policy) *and* visible to concurrent recognition.
    pub fn learn(&self, obs: &LabeledObservation) -> Result<(), WalError> {
        let rec = WalRecord::Learn(LearnRecord::from_observation(obs, &self.catalog));
        self.logged(&rec, |d| d.learn(obs))
    }

    /// Durably forget an application (see
    /// [`ShardedDictionary::forget_app`]). Logged so the eviction
    /// survives recovery — an unlogged forget would resurrect on replay.
    pub fn forget_app(&self, app: &str) -> Result<usize, WalError> {
        let mut dropped = 0;
        self.logged(
            &WalRecord::ForgetApp {
                app: app.to_string(),
            },
            |d| dropped = d.forget_app(app),
        )?;
        Ok(dropped)
    }

    /// Durably forget one label (application + input); logged, like
    /// [`DurableDictionary::forget_app`].
    pub fn forget_label(&self, app: &str, input: &str) -> Result<usize, WalError> {
        let mut dropped = 0;
        self.logged(
            &WalRecord::ForgetLabel {
                app: app.to_string(),
                input: input.to_string(),
            },
            |d| dropped = d.forget_label(app, input),
        )?;
        Ok(dropped)
    }

    /// Flush any batched appends to disk ([`efd_core::wal::SyncPolicy::EveryN`] /
    /// [`efd_core::wal::SyncPolicy::Never`] leave a tail unsynced between flushes).
    pub fn sync(&self) -> Result<(), WalError> {
        self.wal.lock().expect("wal poisoned").sync()
    }

    /// Freeze the current state into a segment now, regardless of log
    /// size (e.g. on graceful shutdown, to make the next cold start a
    /// pure EFDB load).
    pub fn freeze(&self) -> Result<(), WalError> {
        let mut wal = self.wal.lock().expect("wal poisoned");
        wal.freeze(&self.dict.to_parts(), &self.catalog)?;
        Ok(())
    }

    /// Compact the directory: merge newest segment + log into one
    /// canonical EFDB segment, removing superseded files.
    pub fn compact(&self) -> Result<wal::CompactReport, WalError> {
        let mut wal = self.wal.lock().expect("wal poisoned");
        let parts = self.dict.to_parts();
        let keys = parts.entries.len();
        let segment = wal.freeze(&parts, &self.catalog)?;
        let mut removed = 0;
        for entry in std::fs::read_dir(wal.dir()).into_iter().flatten().flatten() {
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().to_string();
            if name.starts_with("segment-")
                && name.ends_with(".efdb")
                && path != segment
                && std::fs::remove_file(&path).is_ok()
            {
                removed += 1;
            }
        }
        Ok(wal::CompactReport {
            segment,
            removed,
            keys,
            replayed: 0,
        })
    }
}

/// Read path: plain sharded recognition, WAL never involved.
impl Recognize for DurableDictionary {
    fn recognize_into(&self, query: &Query, scratch: &mut VoteScratch) -> Recognition {
        self.dict.recognize_into(query, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efd_core::wal::SyncPolicy;
    use efd_telemetry::catalog::small_catalog;
    use efd_telemetry::{AppLabel, Interval, MetricId};

    fn obs(app: &str, input: &str, means: &[f64]) -> LabeledObservation {
        LabeledObservation {
            label: AppLabel::new(app, input),
            query: Query::from_node_means(MetricId(0), Interval::PAPER_DEFAULT, means),
        }
    }

    #[test]
    fn learn_crash_reopen_round_trip() {
        let catalog = small_catalog();
        let dir = std::env::temp_dir().join(format!("efd-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let depth = RoundingDepth::new(2);
        let options = WalOptions {
            sync: SyncPolicy::Always,
            ..WalOptions::default()
        };

        {
            let (served, rec) = DurableDictionary::open(&dir, depth, &catalog, options).unwrap();
            assert_eq!(rec.replayed, 0);
            served.learn(&obs("ft", "X", &[6020.0; 4])).unwrap();
            served.learn(&obs("cg", "X", &[8110.0; 4])).unwrap();
            assert_eq!(served.forget_app("cg").unwrap(), 4);
            // Dropped without sync/close: SyncPolicy::Always already
            // made every operation durable.
        }

        let (served, rec) = DurableDictionary::open(&dir, depth, &catalog, options).unwrap();
        assert_eq!(rec.replayed, 3);
        let q_ft = Query::from_node_means(
            MetricId(0),
            Interval::PAPER_DEFAULT,
            &[6031.0, 5988.0, 6007.0, 6044.0],
        );
        let q_cg = Query::from_node_means(MetricId(0), Interval::PAPER_DEFAULT, &[8110.0; 4]);
        assert_eq!(served.recognize(&q_ft).best(), Some("ft"));
        assert_eq!(
            served.recognize(&q_cg).best(),
            None,
            "forgotten app must not resurrect on recovery"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn over_long_name_is_refused_and_the_log_stays_clean() {
        let catalog = small_catalog();
        let dir = std::env::temp_dir().join(format!("efd-durable-long-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let depth = RoundingDepth::new(2);
        let options = WalOptions {
            sync: SyncPolicy::Always,
            ..WalOptions::default()
        };
        let q_cg = Query::from_node_means(MetricId(0), Interval::PAPER_DEFAULT, &[8110.0; 4]);

        {
            let (served, _) = DurableDictionary::open(&dir, depth, &catalog, options).unwrap();
            let long = "a".repeat(70_000);
            for (app, input) in [(long.as_str(), "X"), ("ft", long.as_str())] {
                let err = served.learn(&obs(app, input, &[6020.0; 4])).unwrap_err();
                assert!(
                    matches!(err, WalError::StringTooLong { len: 70_000, .. }),
                    "{err}"
                );
            }
            assert!(
                served.dictionary().is_empty(),
                "a refused learn is not applied"
            );
            served.learn(&obs("cg", "X", &[8110.0; 4])).unwrap();
        }

        let (served, rec) = DurableDictionary::open(&dir, depth, &catalog, options).unwrap();
        assert_eq!(rec.tail_fault, None);
        assert_eq!(rec.replayed, 1);
        assert_eq!(served.recognize(&q_cg).best(), Some("cg"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
