//! Structural dictionary diffing: what changed between two versions?
//!
//! The catalog subsystem (ROADMAP item: versioned fingerprint artifacts)
//! needs a precise, deterministic answer to "how does `hpc-apps.v3`
//! differ from `hpc-apps.v2`?". This module computes that answer at
//! three levels:
//!
//! 1. **Key structure** — fingerprints only one side knows (*added* /
//!    *removed*) and fingerprints both know but label differently
//!    (*relabelled*). Label lists compare as **sets**: duplicate votes
//!    and insertion order are representation detail, not content.
//! 2. **Per-app coverage** — for every application name either side
//!    mentions, how many keys vote for it on each side. A shrinking
//!    count is the first sign an app's fingerprints were aged out.
//! 3. **Verdict divergence** — a seeded sample of the key union replayed
//!    as single-point queries through both dictionaries, counting how
//!    often the [`normalized`](crate::dictionary::Recognition::normalized)
//!    verdicts disagree. Structure can drift without changing a single
//!    answer; this is the behavioural check.
//!
//! **Semantic equality** (the `efd diff` exit-0 contract) is structural:
//! same rounding depth, no added/removed/relabelled keys. Two artifacts
//! with different *bytes* — a JSON dump and its EFDB conversion, or two
//! EFDB files whose string tables were built in different orders — still
//! compare equal, because [`diff`] walks decoded entries, not encodings.
//!
//! Everything is deterministic: example lists sort by packed key bytes,
//! the divergence sample is drawn by a seeded [`SplitMix64`] so two runs
//! of `efd diff A B` (and CI) always report the same thing.

use std::collections::HashMap;

use efd_telemetry::metric::MetricCatalog;
use efd_util::rng::SplitMix64;

use crate::dictionary::{EfdDictionary, Recognition, Verdict};
use crate::fingerprint::Fingerprint;
use crate::observation::{ObsPoint, Query};

/// Knobs for [`diff`]. `Default` is what the CLI uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffOptions {
    /// How many union keys to replay for verdict divergence (0 disables
    /// the behavioural check entirely).
    pub samples: usize,
    /// Seed for the divergence sample draw.
    pub seed: u64,
    /// Cap on example rows retained per change class.
    pub examples: usize,
}

impl Default for DiffOptions {
    fn default() -> Self {
        Self {
            samples: 256,
            seed: 0xD1FF,
            examples: 8,
        }
    }
}

/// Key counts voting for one application name on each side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppCoverage {
    /// Application name.
    pub app: String,
    /// Keys in `A` with at least one label for this app.
    pub keys_a: usize,
    /// Keys in `B` with at least one label for this app.
    pub keys_b: usize,
}

impl AppCoverage {
    /// Signed key-count delta (`B - A`).
    pub fn delta(&self) -> i64 {
        self.keys_b as i64 - self.keys_a as i64
    }
}

/// One sampled query whose verdicts disagree, pre-rendered for reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergenceExample {
    /// The fingerprint replayed (rendered with the shared catalog).
    pub key: String,
    /// `A`'s normalized verdict.
    pub verdict_a: String,
    /// `B`'s normalized verdict.
    pub verdict_b: String,
}

/// Verdict-divergence sampling summary.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Divergence {
    /// Union keys actually replayed.
    pub sampled: usize,
    /// Replays whose normalized verdicts differed.
    pub diverged: usize,
    /// Up to [`DiffOptions::examples`] disagreeing replays, in key order.
    pub examples: Vec<DivergenceExample>,
}

/// A key present on both sides with different label sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelabelExample {
    /// The fingerprint (rendered with the shared catalog).
    pub key: String,
    /// `A`'s label set, sorted.
    pub labels_a: Vec<String>,
    /// `B`'s label set, sorted.
    pub labels_b: Vec<String>,
}

/// The full structural report of [`diff`].
#[derive(Debug, Clone, PartialEq)]
pub struct DictDiff {
    /// Rounding depth of `A`.
    pub depth_a: u8,
    /// Rounding depth of `B`.
    pub depth_b: u8,
    /// Key count of `A`.
    pub keys_a: usize,
    /// Key count of `B`.
    pub keys_b: usize,
    /// Keys only `B` knows.
    pub added: usize,
    /// Keys only `A` knows.
    pub removed: usize,
    /// Keys both know whose label sets differ.
    pub relabelled: usize,
    /// Up to [`DiffOptions::examples`] added keys, rendered, key order.
    pub added_examples: Vec<String>,
    /// Up to [`DiffOptions::examples`] removed keys, rendered, key order.
    pub removed_examples: Vec<String>,
    /// Up to [`DiffOptions::examples`] relabelled keys with both sides.
    pub relabel_examples: Vec<RelabelExample>,
    /// Per-app key coverage, every app either side mentions, sorted by
    /// app name.
    pub coverage: Vec<AppCoverage>,
    /// Verdict-divergence sampling result.
    pub divergence: Divergence,
}

impl DictDiff {
    /// The `efd diff` exit-0 contract: same depth and no structural
    /// change. Encoding differences (JSON vs EFDB, string-table order)
    /// never matter; verdict divergence *cannot* occur when this holds.
    pub fn semantically_equal(&self) -> bool {
        self.depth_a == self.depth_b && self.added == 0 && self.removed == 0 && self.relabelled == 0
    }
}

/// Render a normalized verdict compactly (`ft` / `[bt, sp]` / `unknown`).
pub fn render_verdict(r: &Recognition) -> String {
    match &r.verdict {
        Verdict::Recognized(app) => app.clone(),
        Verdict::Ambiguous(apps) => format!("[{}]", apps.join(", ")),
        Verdict::Unknown => "unknown".to_string(),
    }
}

/// Label set of one entry: sorted, deduplicated `app/input` strings.
fn label_set(labels: &[&efd_telemetry::AppLabel]) -> Vec<String> {
    let mut set: Vec<String> = labels
        .iter()
        .map(|l| format!("{}/{}", l.app, l.input))
        .collect();
    set.sort();
    set.dedup();
    set
}

/// Index one dictionary: key → sorted label set, plus per-app key counts.
fn index_of(d: &EfdDictionary) -> (HashMap<Fingerprint, Vec<String>>, HashMap<String, usize>) {
    let mut keys = HashMap::with_capacity(d.len());
    let mut apps: HashMap<String, usize> = HashMap::new();
    for (fp, labels) in d.entries() {
        let set = label_set(&labels);
        let mut seen_apps: Vec<&str> = labels.iter().map(|l| l.app.as_str()).collect();
        seen_apps.sort_unstable();
        seen_apps.dedup();
        for app in seen_apps {
            *apps.entry(app.to_string()).or_insert(0) += 1;
        }
        keys.insert(*fp, set);
    }
    (keys, apps)
}

/// Deterministic key order: packed little-endian bytes.
fn sort_keys(keys: &mut [Fingerprint]) {
    keys.sort_unstable_by_key(|fp| fp.pack());
}

/// Compute the structural diff `A → B`.
///
/// `catalog` is only used to *render* fingerprints in example rows; both
/// dictionaries must already speak the same `MetricId` space (the CLI
/// guarantees this by decoding both artifacts against one catalog).
pub fn diff(
    a: &EfdDictionary,
    b: &EfdDictionary,
    catalog: &MetricCatalog,
    opts: &DiffOptions,
) -> DictDiff {
    let (keys_a, apps_a) = index_of(a);
    let (keys_b, apps_b) = index_of(b);

    let mut added: Vec<Fingerprint> = keys_b
        .keys()
        .filter(|k| !keys_a.contains_key(k))
        .copied()
        .collect();
    let mut removed: Vec<Fingerprint> = keys_a
        .keys()
        .filter(|k| !keys_b.contains_key(k))
        .copied()
        .collect();
    let mut relabelled: Vec<Fingerprint> = keys_a
        .iter()
        .filter(|(k, set)| keys_b.get(k).is_some_and(|other| other != *set))
        .map(|(k, _)| *k)
        .collect();
    sort_keys(&mut added);
    sort_keys(&mut removed);
    sort_keys(&mut relabelled);

    let render = |fp: &Fingerprint| fp.display(catalog);
    let added_examples = added.iter().take(opts.examples).map(&render).collect();
    let removed_examples = removed.iter().take(opts.examples).map(&render).collect();
    let relabel_examples = relabelled
        .iter()
        .take(opts.examples)
        .map(|fp| RelabelExample {
            key: render(fp),
            labels_a: keys_a[fp].clone(),
            labels_b: keys_b[fp].clone(),
        })
        .collect();

    let mut app_names: Vec<String> = apps_a.keys().chain(apps_b.keys()).cloned().collect();
    app_names.sort();
    app_names.dedup();
    let coverage = app_names
        .into_iter()
        .map(|app| AppCoverage {
            keys_a: apps_a.get(&app).copied().unwrap_or(0),
            keys_b: apps_b.get(&app).copied().unwrap_or(0),
            app,
        })
        .collect();

    let divergence = sample_divergence(a, b, &keys_a, &keys_b, catalog, opts);

    DictDiff {
        depth_a: a.depth().get(),
        depth_b: b.depth().get(),
        keys_a: a.len(),
        keys_b: b.len(),
        added: added.len(),
        removed: removed.len(),
        relabelled: relabelled.len(),
        added_examples,
        removed_examples,
        relabel_examples,
        coverage,
        divergence,
    }
}

/// Replay a seeded sample of the key union through both dictionaries as
/// single-point queries and count normalized-verdict disagreements.
fn sample_divergence(
    a: &EfdDictionary,
    b: &EfdDictionary,
    keys_a: &HashMap<Fingerprint, Vec<String>>,
    keys_b: &HashMap<Fingerprint, Vec<String>>,
    catalog: &MetricCatalog,
    opts: &DiffOptions,
) -> Divergence {
    if opts.samples == 0 {
        return Divergence::default();
    }
    let mut union: Vec<Fingerprint> = keys_a
        .keys()
        .chain(keys_b.keys().filter(|k| !keys_a.contains_key(k)))
        .copied()
        .collect();
    sort_keys(&mut union);
    // Partial Fisher–Yates: the first `n` slots become the sample.
    let n = opts.samples.min(union.len());
    let mut rng = SplitMix64::new(opts.seed);
    for i in 0..n {
        let j = i + rng.next_below((union.len() - i) as u64) as usize;
        union.swap(i, j);
    }
    let mut sample = union[..n].to_vec();
    sort_keys(&mut sample);

    let mut diverged = 0usize;
    let mut examples = Vec::new();
    for fp in &sample {
        let query = Query {
            points: vec![ObsPoint {
                metric: fp.metric,
                node: fp.node,
                interval: fp.interval,
                mean: fp.mean(),
            }],
        };
        let ra = a.recognize(&query).normalized();
        let rb = b.recognize(&query).normalized();
        if ra.verdict != rb.verdict {
            diverged += 1;
            if examples.len() < opts.examples {
                examples.push(DivergenceExample {
                    key: fp.display(catalog),
                    verdict_a: render_verdict(&ra),
                    verdict_b: render_verdict(&rb),
                });
            }
        }
    }
    Divergence {
        sampled: n,
        diverged,
        examples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::LabeledObservation;
    use crate::rounding::RoundingDepth;
    use efd_telemetry::catalog::small_catalog;
    use efd_telemetry::{AppLabel, Interval, MetricId, NodeId};

    const W: Interval = Interval::PAPER_DEFAULT;

    fn obs(app: &str, input: &str, mean: f64) -> LabeledObservation {
        LabeledObservation {
            label: AppLabel::new(app, input),
            query: Query {
                points: vec![ObsPoint {
                    metric: MetricId(0),
                    node: NodeId(0),
                    interval: W,
                    mean,
                }],
            },
        }
    }

    fn dict(observations: &[LabeledObservation]) -> EfdDictionary {
        let mut d = EfdDictionary::new(RoundingDepth::new(2));
        d.learn_all(observations);
        d
    }

    #[test]
    fn identical_dictionaries_diff_empty() {
        let d = dict(&[obs("ft", "X", 1000.0), obs("sp", "Y", 2000.0)]);
        let r = diff(&d, &d, &small_catalog(), &DiffOptions::default());
        assert!(r.semantically_equal(), "{r:?}");
        assert_eq!((r.added, r.removed, r.relabelled), (0, 0, 0));
        assert_eq!(r.divergence.diverged, 0);
        assert_eq!(r.divergence.sampled, 2);
    }

    #[test]
    fn learn_order_does_not_matter() {
        let xs = [obs("ft", "X", 1000.0), obs("sp", "Y", 1000.0)];
        let forward = dict(&xs);
        let mut reversed: Vec<_> = xs.to_vec();
        reversed.reverse();
        let backward = dict(&reversed);
        let r = diff(
            &forward,
            &backward,
            &small_catalog(),
            &DiffOptions::default(),
        );
        assert!(
            r.semantically_equal(),
            "label order is representation: {r:?}"
        );
        assert_eq!(r.divergence.diverged, 0);
    }

    #[test]
    fn added_removed_and_relabelled_are_counted() {
        let a = dict(&[
            obs("ft", "X", 1000.0),
            obs("sp", "Y", 2000.0),
            obs("bt", "Z", 3000.0),
        ]);
        let b = dict(&[
            obs("ft", "X", 1000.0),      // unchanged
            obs("sp", "L", 2000.0),      // relabelled (input Y -> L)
            obs("miniAMR", "X", 4000.0), // added; 3000 key removed
        ]);
        let r = diff(&a, &b, &small_catalog(), &DiffOptions::default());
        assert!(!r.semantically_equal());
        assert_eq!(r.added, 1, "{r:?}");
        assert_eq!(r.removed, 1, "{r:?}");
        assert_eq!(r.relabelled, 1, "{r:?}");
        assert_eq!(r.added_examples.len(), 1);
        assert_eq!(r.relabel_examples[0].labels_a, vec!["sp/Y"]);
        assert_eq!(r.relabel_examples[0].labels_b, vec!["sp/L"]);
        let sp = r
            .coverage
            .iter()
            .find(|c| c.app == "sp")
            .expect("sp coverage");
        assert_eq!((sp.keys_a, sp.keys_b), (1, 1));
        let bt = r
            .coverage
            .iter()
            .find(|c| c.app == "bt")
            .expect("bt coverage");
        assert_eq!((bt.keys_a, bt.keys_b, bt.delta()), (1, 0, -1));
    }

    #[test]
    fn depth_mismatch_is_semantic() {
        let xs = [obs("ft", "X", 1234.5)];
        let mut a = EfdDictionary::new(RoundingDepth::new(2));
        a.learn_all(&xs);
        let mut b = EfdDictionary::new(RoundingDepth::new(3));
        b.learn_all(&xs);
        let r = diff(&a, &b, &small_catalog(), &DiffOptions::default());
        assert!(!r.semantically_equal(), "depth is part of the contract");
    }

    #[test]
    fn divergence_sampling_is_deterministic_and_capped() {
        let many: Vec<_> = (0..300)
            .map(|i| {
                obs(
                    if i % 2 == 0 { "ft" } else { "sp" },
                    "X",
                    1000.0 + i as f64 * 10.0,
                )
            })
            .collect();
        let a = dict(&many);
        let b = dict(&many[..150]);
        let opts = DiffOptions {
            samples: 64,
            ..DiffOptions::default()
        };
        let r1 = diff(&a, &b, &small_catalog(), &opts);
        let r2 = diff(&a, &b, &small_catalog(), &opts);
        assert_eq!(r1, r2, "seeded sampling must be reproducible");
        // Depth-2 rounding collapses the 300 means into fewer keys; the
        // sample covers the whole union when it fits under the cap.
        assert!(
            r1.divergence.sampled > 0 && r1.divergence.sampled <= 64,
            "{r1:?}"
        );
        assert!(
            r1.divergence.diverged > 0,
            "removed keys answer unknown on B"
        );
    }

    #[test]
    fn empty_vs_empty_is_equal() {
        let a = EfdDictionary::new(RoundingDepth::new(2));
        let b = EfdDictionary::new(RoundingDepth::new(2));
        let r = diff(&a, &b, &small_catalog(), &DiffOptions::default());
        assert!(r.semantically_equal());
        assert_eq!(r.divergence.sampled, 0);
        assert!(r.coverage.is_empty());
    }
}
