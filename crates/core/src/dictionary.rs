//! The dictionary: learning, lookup, and vote-based recognition.
//!
//! Keys are [`Fingerprint`]s; values are **insertion-ordered** lists of
//! `application + input size` labels (the paper's Table 4 format). When
//! recognition ties, the EFD "will return an array of these application
//! names" — the [`Verdict::Ambiguous`] array preserves first-learned order,
//! as the paper's Table 4 prints it. Scoring a tie with
//! [`Recognition::best`] uses a *deterministic* rule instead
//! (lexicographically smallest tied name) so results do not depend on
//! learn order; see its docs.
//!
//! Recognition: every point of a query is fingerprinted and looked up; each
//! hit votes once for every application *name* in the entry (the paper
//! aggregates over the whole execution, across nodes). Most votes wins;
//! zero matches is the in-built [`Verdict::Unknown`] safeguard.

use efd_telemetry::metric::MetricCatalog;
use efd_telemetry::{AppLabel, Interval, MetricId, NodeId};
use efd_util::table::TextTable;
use efd_util::{Align, FxHashMap};

use crate::fingerprint::{fmt_mean, Fingerprint};
use crate::observation::{LabeledObservation, Query};
use crate::rounding::RoundingDepth;

/// Interned label (application + input size) within one dictionary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LabelId(u32);

impl LabelId {
    /// The position of this label in [`EfdDictionary::labels_in_order`]
    /// (and in [`DictionaryParts::labels`]).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild an id from an index previously obtained via
    /// [`LabelId::index`] — used when thawing [`DictionaryParts`] into a
    /// different container (e.g. a sharded serving structure).
    #[inline]
    pub fn from_index(index: usize) -> Self {
        LabelId(index as u32)
    }
}

/// Interned application name within one dictionary (tie-break order =
/// first-seen order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AppNameId(u32);

impl AppNameId {
    /// The position of this application in [`EfdDictionary::app_names`]
    /// (and in [`DictionaryParts::apps`]).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild an id from an index previously obtained via
    /// [`AppNameId::index`].
    #[inline]
    pub fn from_index(index: usize) -> Self {
        AppNameId(index as u32)
    }
}

/// The Execution Fingerprint Dictionary (paper §4, Figure 1).
///
/// Learning inserts rounded window means as keys (step 1); recognition
/// fingerprints a query the same way, looks every point up, and lets each
/// hit vote for the applications stored under it (steps 2–3).
///
/// ```
/// use efd_core::{EfdDictionary, Query, RoundingDepth};
/// use efd_core::dictionary::Verdict;
/// use efd_telemetry::{AppLabel, Interval, MetricId, NodeId};
///
/// let mut dict = EfdDictionary::new(RoundingDepth::new(2));
/// // Learn one 4-node execution of NPB `ft`, input X.
/// for (node, mean) in [6020.0, 6023.0, 6019.0, 6021.0].into_iter().enumerate() {
///     dict.insert_raw(MetricId(0), NodeId(node as u16), Interval::PAPER_DEFAULT,
///                     mean, &AppLabel::new("ft", "X"));
/// }
/// // A later execution with similar-but-not-identical means still matches:
/// // every mean rounds to the same 6000.0 key.
/// let query = Query::from_node_means(MetricId(0), Interval::PAPER_DEFAULT,
///                                    &[6031.0, 5988.0, 6007.0, 6044.0]);
/// let r = dict.recognize(&query);
/// assert_eq!(r.verdict, Verdict::Recognized("ft".into()));
/// assert_eq!(r.matched_points, 4);
/// ```
#[derive(Debug, Clone)]
pub struct EfdDictionary {
    depth: RoundingDepth,
    map: FxHashMap<Fingerprint, Vec<LabelId>>,
    /// Keys in first-insertion order (stable rendering, reproducible
    /// dumps).
    order: Vec<Fingerprint>,
    labels: Vec<AppLabel>,
    label_ids: FxHashMap<AppLabel, LabelId>,
    apps: Vec<String>,
    app_ids: FxHashMap<String, AppNameId>,
    /// LabelId → AppNameId.
    label_app: Vec<AppNameId>,
}

/// Outcome of recognizing one execution.
///
/// Marked `#[non_exhaustive]`: downstream matches need a wildcard arm so
/// future verdict refinements (e.g. a confidence-scored variant) are not
/// semver breaks.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
#[must_use = "a verdict is the answer; dropping it silently discards the recognition"]
pub enum Verdict {
    /// Exactly one application had the most matches.
    Recognized(String),
    /// Several applications tied for the most matches; ordered
    /// first-learned, as the paper prints the array. Scoring a tie uses
    /// [`Recognition::best`]'s deterministic lexicographic rule, not the
    /// array position.
    Ambiguous(Vec<String>),
    /// No fingerprint matched: never-seen execution (the paper's safeguard
    /// against unknown applications).
    Unknown,
}

/// Full recognition report.
#[derive(Debug, Clone, PartialEq)]
#[must_use = "a recognition is the answer; inspect its verdict or votes"]
pub struct Recognition {
    /// The verdict (see [`Verdict`]).
    pub verdict: Verdict,
    /// Application vote counts, descending (equal counts in first-learned
    /// order here; [`Recognition::normalized`] re-orders them
    /// lexicographically).
    pub app_votes: Vec<(String, u32)>,
    /// Full-label vote counts (application + input), same ordering rules —
    /// the paper's dictionary stores input sizes, so the EFD can also
    /// predict them.
    pub label_votes: Vec<(AppLabel, u32)>,
    /// How many query points matched an entry.
    pub matched_points: usize,
    /// Total query points.
    pub total_points: usize,
}

impl Recognition {
    /// The application name the paper's evaluation scores. `None` for
    /// [`Verdict::Unknown`].
    ///
    /// **Tie-break rule:** when several applications tie for the most
    /// votes ([`Verdict::Ambiguous`]), `best` returns the
    /// **lexicographically smallest** tied application name. The rule is
    /// deterministic and independent of learn order — two dictionaries
    /// holding the same entries agree on `best` even if they learned the
    /// same observations in different orders (or concurrently, as the
    /// sharded serving layer does). Earlier versions returned the
    /// *first-learned* tied application, which silently depended on
    /// `Vec<LabelId>` insertion order.
    ///
    /// ```
    /// use efd_core::dictionary::{Recognition, Verdict};
    ///
    /// let r = Recognition {
    ///     verdict: Verdict::Ambiguous(vec!["sp".into(), "bt".into()]),
    ///     app_votes: vec![("sp".into(), 4), ("bt".into(), 4)],
    ///     label_votes: vec![],
    ///     matched_points: 4,
    ///     total_points: 4,
    /// };
    /// // "bt" < "sp" lexicographically, regardless of array order.
    /// assert_eq!(r.best(), Some("bt"));
    /// ```
    pub fn best(&self) -> Option<&str> {
        match &self.verdict {
            Verdict::Recognized(a) => Some(a),
            Verdict::Ambiguous(apps) => apps.iter().map(String::as_str).min(),
            Verdict::Unknown => None,
        }
    }

    /// Canonical form with all orderings made deterministic: votes sort by
    /// count descending, then lexicographically by application name (for
    /// `app_votes`) or by `(app, input)` (for `label_votes`); an
    /// [`Verdict::Ambiguous`] tie array sorts lexicographically.
    ///
    /// Two recognitions over dictionaries with identical *content* but
    /// different learn order normalize to equal values — the
    /// oracle-equivalence contract the sharded serving layer is tested
    /// against.
    pub fn normalized(mut self) -> Recognition {
        self.app_votes
            .sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        self.label_votes.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| (&a.0.app, &a.0.input).cmp(&(&b.0.app, &b.0.input)))
        });
        if let Verdict::Ambiguous(apps) = &mut self.verdict {
            apps.sort();
        }
        self
    }

    /// Most-voted full label (application + input size), if any matched.
    pub fn predicted_label(&self) -> Option<&AppLabel> {
        self.label_votes.first().map(|(l, _)| l)
    }
}

/// Structural statistics of a dictionary (the paper's
/// exclusiveness/repetition trade-off, quantified).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DictionaryStats {
    /// Number of keys.
    pub entries: usize,
    /// Number of distinct labels (app + input).
    pub labels: usize,
    /// Number of distinct application names.
    pub apps: usize,
    /// Entries whose labels all share one application name ("application
    /// exclusive execution fingerprints").
    pub exclusive_entries: usize,
    /// Entries spanning more than one application (key collisions, e.g.
    /// SP/BT in Table 4).
    pub colliding_entries: usize,
    /// Largest number of distinct apps on one key.
    pub max_apps_per_entry: usize,
    /// Mean labels per entry (repetition count).
    pub mean_labels_per_entry: f64,
    /// Rough memory footprint in bytes (keys + label lists).
    pub approx_bytes: usize,
}

/// Owned decomposition of an [`EfdDictionary`] — the freeze/thaw format.
///
/// `into_parts` / `from_parts` let a learned dictionary move between
/// containers **without re-learning**: the serving layer thaws parts into
/// hash-partitioned shards, merge tooling concatenates parts, tests build
/// fixtures directly. All invariants of the source dictionary are carried:
/// entries stay in insertion order, `LabelId`s index [`Self::labels`], and
/// [`Self::label_app`] maps every label to its application's position in
/// [`Self::apps`].
#[derive(Debug, Clone)]
#[must_use = "parts hold the frozen dictionary content; thaw or freeze them"]
pub struct DictionaryParts {
    /// Rounding depth the entries were built with.
    pub depth: RoundingDepth,
    /// `(key, labels)` pairs in first-insertion order.
    pub entries: Vec<(Fingerprint, Vec<LabelId>)>,
    /// Interned labels; `LabelId(i)` names `labels[i]`.
    pub labels: Vec<AppLabel>,
    /// Interned application names; `AppNameId(i)` names `apps[i]`.
    pub apps: Vec<String>,
    /// `labels[i]`'s application is `apps[label_app[i].index()]`.
    pub label_app: Vec<AppNameId>,
}

impl EfdDictionary {
    /// Empty dictionary pruning at `depth`.
    pub fn new(depth: RoundingDepth) -> Self {
        Self {
            depth,
            map: FxHashMap::default(),
            order: Vec::new(),
            labels: Vec::new(),
            label_ids: FxHashMap::default(),
            apps: Vec::new(),
            app_ids: FxHashMap::default(),
            label_app: Vec::new(),
        }
    }

    /// The rounding depth this dictionary was built with.
    pub fn depth(&self) -> RoundingDepth {
        self.depth
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the dictionary holds no keys.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Distinct labels learned.
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// Distinct application names learned, in first-learned order.
    pub fn app_names(&self) -> &[String] {
        &self.apps
    }

    fn intern_label(&mut self, label: &AppLabel) -> LabelId {
        if let Some(&id) = self.label_ids.get(label) {
            return id;
        }
        let app_id = match self.app_ids.get(&label.app) {
            Some(&a) => a,
            None => {
                let a = AppNameId(self.apps.len() as u32);
                self.apps.push(label.app.clone());
                self.app_ids.insert(label.app.clone(), a);
                a
            }
        };
        let id = LabelId(self.labels.len() as u32);
        self.labels.push(label.clone());
        self.label_ids.insert(label.clone(), id);
        self.label_app.push(app_id);
        id
    }

    /// Pre-intern labels in a given order without inserting any keys.
    ///
    /// Tie-breaking between applications follows *first-learned* order;
    /// serialization records that order and restore replays it here before
    /// re-inserting entries, so restored dictionaries break ties
    /// identically (see `serialize`).
    pub fn preregister_labels(&mut self, labels: &[AppLabel]) {
        for l in labels {
            self.intern_label(l);
        }
    }

    /// All labels in first-learned order (the tie-break order).
    pub fn labels_in_order(&self) -> &[AppLabel] {
        &self.labels
    }

    /// Insert one raw mean under `label`. Returns `false` (no-op) for
    /// non-finite means. Duplicate (key, label) pairs are ignored, so
    /// repeated executions "prune" into one entry — the paper's Figure 1
    /// step (1).
    pub fn insert_raw(
        &mut self,
        metric: MetricId,
        node: NodeId,
        interval: Interval,
        raw_mean: f64,
        label: &AppLabel,
    ) -> bool {
        let Some(fp) = Fingerprint::from_raw(metric, node, interval, raw_mean, self.depth) else {
            return false;
        };
        let id = self.intern_label(label);
        match self.map.get_mut(&fp) {
            Some(list) => {
                if !list.contains(&id) {
                    list.push(id);
                }
            }
            None => {
                self.map.insert(fp, vec![id]);
                self.order.push(fp);
            }
        }
        true
    }

    /// Learn every point of a labeled observation.
    pub fn learn(&mut self, obs: &LabeledObservation) {
        for p in &obs.query.points {
            self.insert_raw(p.metric, p.node, p.interval, p.mean, &obs.label);
        }
    }

    /// Learn a batch of observations (dataset order = insertion order,
    /// which fixes tie-break order).
    pub fn learn_all(&mut self, observations: &[LabeledObservation]) {
        for o in observations {
            self.learn(o);
        }
    }

    /// Labels stored under a fingerprint, in insertion order.
    pub fn lookup(&self, fp: &Fingerprint) -> Option<Vec<&AppLabel>> {
        self.map
            .get(fp)
            .map(|ids| ids.iter().map(|id| &self.labels[id.0 as usize]).collect())
    }

    /// Round a raw mean and look it up.
    pub fn lookup_raw(
        &self,
        metric: MetricId,
        node: NodeId,
        interval: Interval,
        raw_mean: f64,
    ) -> Option<Vec<&AppLabel>> {
        let fp = Fingerprint::from_raw(metric, node, interval, raw_mean, self.depth)?;
        self.lookup(&fp)
    }

    /// Recognize an execution: fingerprint every point, look it up, count
    /// votes per application name, return the most-matched (paper Figure 1
    /// steps (2)–(3)).
    pub fn recognize(&self, query: &Query) -> Recognition {
        let mut app_votes: FxHashMap<AppNameId, u32> = FxHashMap::default();
        let mut label_votes: FxHashMap<LabelId, u32> = FxHashMap::default();
        let mut matched_points = 0usize;

        let mut entry_apps: Vec<AppNameId> = Vec::new();
        for p in &query.points {
            let Some(fp) = Fingerprint::from_raw(p.metric, p.node, p.interval, p.mean, self.depth)
            else {
                continue;
            };
            let Some(ids) = self.map.get(&fp) else {
                continue;
            };
            matched_points += 1;
            entry_apps.clear();
            for &id in ids {
                *label_votes.entry(id).or_default() += 1;
                let app = self.label_app[id.0 as usize];
                // One vote per app per matched point, even if several
                // inputs of the same app share the entry.
                if !entry_apps.contains(&app) {
                    entry_apps.push(app);
                    *app_votes.entry(app).or_default() += 1;
                }
            }
        }

        // Sort by votes desc, then first-learned order.
        let mut app_votes: Vec<(AppNameId, u32)> = app_votes.into_iter().collect();
        app_votes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut label_votes: Vec<(LabelId, u32)> = label_votes.into_iter().collect();
        label_votes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));

        let verdict = match app_votes.as_slice() {
            [] => Verdict::Unknown,
            [(top, _)] => Verdict::Recognized(self.apps[top.0 as usize].clone()),
            [(top, top_votes), rest @ ..] => {
                let tied: Vec<String> = std::iter::once(*top)
                    .chain(
                        rest.iter()
                            .take_while(|(_, v)| v == top_votes)
                            .map(|(a, _)| *a),
                    )
                    .map(|a| self.apps[a.0 as usize].clone())
                    .collect();
                if tied.len() == 1 {
                    Verdict::Recognized(tied.into_iter().next().unwrap())
                } else {
                    Verdict::Ambiguous(tied)
                }
            }
        };

        Recognition {
            verdict,
            app_votes: app_votes
                .into_iter()
                .map(|(a, v)| (self.apps[a.0 as usize].clone(), v))
                .collect(),
            label_votes: label_votes
                .into_iter()
                .map(|(l, v)| (self.labels[l.0 as usize].clone(), v))
                .collect(),
            matched_points,
            total_points: query.points.len(),
        }
    }

    /// Decompose into [`DictionaryParts`], consuming the dictionary.
    ///
    /// The parts round-trip through [`EfdDictionary::from_parts`] and can
    /// be frozen into the sharded serving structures without re-learning.
    ///
    /// ```
    /// use efd_core::{EfdDictionary, RoundingDepth};
    /// use efd_telemetry::{AppLabel, Interval, MetricId, NodeId};
    ///
    /// let mut d = EfdDictionary::new(RoundingDepth::new(2));
    /// d.insert_raw(MetricId(0), NodeId(0), Interval::PAPER_DEFAULT, 6020.0,
    ///              &AppLabel::new("ft", "X"));
    /// let parts = d.into_parts();
    /// assert_eq!(parts.entries.len(), 1);
    /// let back = EfdDictionary::from_parts(parts);
    /// assert_eq!(back.len(), 1);
    /// assert_eq!(back.app_names(), ["ft".to_string()]);
    /// ```
    pub fn into_parts(mut self) -> DictionaryParts {
        let entries = self
            .order
            .iter()
            .map(|fp| (*fp, self.map.remove(fp).expect("ordered key present")))
            .collect();
        DictionaryParts {
            depth: self.depth,
            entries,
            labels: self.labels,
            apps: self.apps,
            label_app: self.label_app,
        }
    }

    /// Clone-out variant of [`EfdDictionary::into_parts`] for dictionaries
    /// that must stay live (e.g. still learning while a frozen copy is
    /// published for serving). Copies only what the parts carry — the
    /// interner lookup maps are not cloned.
    pub fn to_parts(&self) -> DictionaryParts {
        DictionaryParts {
            depth: self.depth,
            entries: self
                .order
                .iter()
                .map(|fp| (*fp, self.map[fp].clone()))
                .collect(),
            labels: self.labels.clone(),
            apps: self.apps.clone(),
            label_app: self.label_app.clone(),
        }
    }

    /// Rebuild a dictionary from [`DictionaryParts`].
    ///
    /// Insertion order — and therefore entry iteration order — is taken
    /// from `parts.entries`. A fingerprint appearing in several entries
    /// (hand-concatenated parts) **merges**: later label lists append to
    /// the first occurrence, duplicates pruned, like repeated
    /// [`EfdDictionary::insert_raw`] calls.
    ///
    /// # Panics
    ///
    /// Panics if the parts are internally inconsistent: `label_app` not the
    /// same length as `labels`, or an id in `entries`/`label_app` out of
    /// range. Parts produced by [`EfdDictionary::into_parts`] are always
    /// consistent.
    pub fn from_parts(parts: DictionaryParts) -> Self {
        assert_eq!(
            parts.label_app.len(),
            parts.labels.len(),
            "label_app must map every label"
        );
        assert!(
            parts.label_app.iter().all(|a| a.index() < parts.apps.len()),
            "label_app id out of range"
        );
        let label_ids = parts
            .labels
            .iter()
            .enumerate()
            .map(|(i, l)| (l.clone(), LabelId::from_index(i)))
            .collect();
        let app_ids = parts
            .apps
            .iter()
            .enumerate()
            .map(|(i, a)| (a.clone(), AppNameId::from_index(i)))
            .collect();
        let mut map = FxHashMap::default();
        let mut order = Vec::with_capacity(parts.entries.len());
        for (fp, ids) in parts.entries {
            assert!(
                ids.iter().all(|id| id.index() < parts.labels.len()),
                "entry label id out of range"
            );
            match map.entry(fp) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let list: &mut Vec<LabelId> = e.get_mut();
                    for id in ids {
                        if !list.contains(&id) {
                            list.push(id);
                        }
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    // Dedup within the list too: hand-built parts may
                    // repeat an id, and no insert_raw history can produce
                    // a key holding the same label twice.
                    let mut list = Vec::with_capacity(ids.len());
                    for id in ids {
                        if !list.contains(&id) {
                            list.push(id);
                        }
                    }
                    e.insert(list);
                    order.push(fp);
                }
            }
        }
        Self {
            depth: parts.depth,
            map,
            order,
            labels: parts.labels,
            label_ids,
            apps: parts.apps,
            app_ids,
            label_app: parts.label_app,
        }
    }

    /// Entries in insertion order: `(fingerprint, labels)`.
    pub fn entries(&self) -> impl Iterator<Item = (&Fingerprint, Vec<&AppLabel>)> + '_ {
        self.order.iter().map(move |fp| {
            let labels = self.map[fp]
                .iter()
                .map(|id| &self.labels[id.0 as usize])
                .collect();
            (fp, labels)
        })
    }

    /// Structural statistics.
    pub fn stats(&self) -> DictionaryStats {
        let mut exclusive = 0usize;
        let mut colliding = 0usize;
        let mut max_apps = 0usize;
        let mut total_labels = 0usize;
        let mut apps_seen: Vec<AppNameId> = Vec::new();
        for ids in self.map.values() {
            total_labels += ids.len();
            apps_seen.clear();
            for &id in ids {
                let a = self.label_app[id.0 as usize];
                if !apps_seen.contains(&a) {
                    apps_seen.push(a);
                }
            }
            max_apps = max_apps.max(apps_seen.len());
            if apps_seen.len() <= 1 {
                exclusive += 1;
            } else {
                colliding += 1;
            }
        }
        let entries = self.map.len();
        DictionaryStats {
            entries,
            labels: self.labels.len(),
            apps: self.apps.len(),
            exclusive_entries: exclusive,
            colliding_entries: colliding,
            max_apps_per_entry: max_apps,
            mean_labels_per_entry: if entries == 0 {
                0.0
            } else {
                total_labels as f64 / entries as f64
            },
            approx_bytes: entries * (std::mem::size_of::<Fingerprint>() + 16)
                + total_labels * std::mem::size_of::<LabelId>(),
        }
    }

    /// Render the dictionary as the paper's Table 4.
    pub fn render_table4(&self, catalog: &MetricCatalog) -> TextTable {
        let mut t = TextTable::new(vec![
            "Metric Name",
            "Node",
            "Interval",
            "Mean",
            "Value (application + input size)",
        ])
        .with_title(format!(
            "Example Execution Fingerprint Dictionary (rounding depth {})",
            self.depth
        ))
        .with_aligns(vec![
            Align::Left,
            Align::Right,
            Align::Center,
            Align::Right,
            Align::Left,
        ]);
        for (fp, labels) in self.entries() {
            let value = labels
                .iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            t.add_row(vec![
                catalog.name(fp.metric).to_string(),
                fp.node.to_string(),
                fp.interval.to_string(),
                fmt_mean(fp.mean()),
                value,
            ]);
        }
        t
    }
}

impl crate::engine::Learn for EfdDictionary {
    fn learn(&mut self, obs: &LabeledObservation) {
        EfdDictionary::learn(self, obs);
    }

    fn learn_all(&mut self, observations: &[LabeledObservation]) {
        EfdDictionary::learn_all(self, observations);
    }
}

/// The oracle as an engine backend.
///
/// Unlike the inherent [`EfdDictionary::recognize`] (which preserves the
/// paper's first-learned tie-array ordering for Table 4 fidelity), the
/// trait path counts votes in dense [`crate::engine::VoteScratch`]
/// counters and returns the [`Recognition::normalized`] form — the engine
/// API's answer contract. The two agree modulo `normalized()`.
impl crate::engine::Recognize for EfdDictionary {
    fn recognize_into(
        &self,
        query: &Query,
        scratch: &mut crate::engine::VoteScratch,
    ) -> Recognition {
        scratch.ensure(self.labels.len(), self.apps.len());
        let mut matched = 0usize;
        for p in &query.points {
            let Some(fp) = Fingerprint::from_raw(p.metric, p.node, p.interval, p.mean, self.depth)
            else {
                continue;
            };
            let Some(ids) = self.map.get(&fp) else {
                continue;
            };
            matched += 1;
            scratch.begin_point();
            for &id in ids {
                scratch.vote_label(id);
                scratch.vote_app_deduped(self.label_app[id.0 as usize]);
            }
        }
        scratch.finish(&self.labels, &self.apps, matched, query.points.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::ObsPoint;

    const M: MetricId = MetricId(0);
    const W: Interval = Interval::PAPER_DEFAULT;

    fn lab(app: &str, input: &str) -> AppLabel {
        AppLabel::new(app, input)
    }

    /// A miniature Table 4: ft at ~6000, sp/bt colliding at ~7500 (depth
    /// 2), miniAMR input-dependent.
    fn toy_dict() -> EfdDictionary {
        let mut d = EfdDictionary::new(RoundingDepth::new(2));
        for (app, input, means) in [
            ("ft", "X", [6020.0, 6020.0, 6020.0, 6020.0]),
            ("ft", "Y", [6023.0, 6019.0, 6021.0, 6018.0]),
            ("sp", "X", [7617.0, 7520.0, 7520.0, 7121.0]),
            ("bt", "X", [7638.0, 7540.0, 7540.0, 7140.0]),
            ("miniAMR", "X", [7820.0; 4]),
            ("miniAMR", "Z", [10980.0; 4]),
        ] {
            for (n, &mean) in means.iter().enumerate() {
                d.insert_raw(M, NodeId(n as u16), W, mean, &lab(app, input));
            }
        }
        d
    }

    fn query(means: [f64; 4]) -> Query {
        Query::from_node_means(M, W, &means)
    }

    #[test]
    fn pruning_dedupes_repeated_executions() {
        let d = toy_dict();
        // ft X and ft Y all round to 6000 per node → 4 keys, each holding
        // both labels.
        let fp = Fingerprint::from_rounded(M, NodeId(0), W, 6000.0);
        let labels = d.lookup(&fp).unwrap();
        assert_eq!(
            labels.iter().map(|l| l.to_string()).collect::<Vec<_>>(),
            vec!["ft X", "ft Y"]
        );
    }

    #[test]
    fn recognize_exclusive_app() {
        let d = toy_dict();
        let r = d.recognize(&query([6031.0, 5988.0, 6007.0, 6044.0]));
        assert_eq!(r.verdict, Verdict::Recognized("ft".into()));
        assert_eq!(r.best(), Some("ft"));
        assert_eq!(r.matched_points, 4);
        assert_eq!(r.app_votes[0], ("ft".into(), 4));
    }

    #[test]
    fn sp_bt_collision_yields_tie_array_sp_first() {
        let d = toy_dict();
        // At depth 2, SP and BT share every key; SP was learned first.
        let r = d.recognize(&query([7601.0, 7512.0, 7533.0, 7098.0]));
        assert_eq!(
            r.verdict,
            Verdict::Ambiguous(vec!["sp".into(), "bt".into()])
        );
        // best() breaks the tie deterministically: lexicographic minimum,
        // independent of which app was learned first.
        assert_eq!(r.best(), Some("bt"));
    }

    #[test]
    fn best_tie_break_independent_of_learn_order() {
        // Learn sp-then-bt and bt-then-sp: the Ambiguous arrays differ
        // (first-learned order) but best() agrees.
        let mut forward = EfdDictionary::new(RoundingDepth::new(2));
        let mut reverse = EfdDictionary::new(RoundingDepth::new(2));
        let means = [7617.0, 7520.0, 7520.0, 7121.0];
        for (d, apps) in [(&mut forward, ["sp", "bt"]), (&mut reverse, ["bt", "sp"])] {
            for app in apps {
                for (n, &mean) in means.iter().enumerate() {
                    d.insert_raw(M, NodeId(n as u16), W, mean, &lab(app, "X"));
                }
            }
        }
        let q = query([7601.0, 7512.0, 7533.0, 7098.0]);
        let (f, r) = (forward.recognize(&q), reverse.recognize(&q));
        assert_eq!(
            f.verdict,
            Verdict::Ambiguous(vec!["sp".into(), "bt".into()])
        );
        assert_eq!(
            r.verdict,
            Verdict::Ambiguous(vec!["bt".into(), "sp".into()])
        );
        assert_eq!(f.best(), Some("bt"));
        assert_eq!(r.best(), Some("bt"));
        // And the normalized forms are fully equal.
        assert_eq!(f.normalized(), r.normalized());
    }

    #[test]
    fn from_parts_merges_duplicate_fingerprints() {
        // Hand-concatenated parts can repeat a key: later lists append to
        // the first occurrence (deduped), like repeated insert_raw calls.
        let d = toy_dict();
        let mut parts = d.to_parts();
        let fp = parts.entries[0].0; // 6000.0/node0, labels [ft X, ft Y]
        let sp_id = LabelId::from_index(2); // "sp X" in toy_dict learn order
        parts
            .entries
            .push((fp, vec![sp_id, LabelId::from_index(0)]));
        let merged = EfdDictionary::from_parts(parts);
        assert_eq!(merged.len(), d.len(), "no new key, merged in place");
        let labels = merged.lookup(&fp).unwrap();
        assert_eq!(
            labels.iter().map(|l| l.to_string()).collect::<Vec<_>>(),
            vec!["ft X", "ft Y", "sp X"]
        );
    }

    #[test]
    fn parts_roundtrip_preserves_everything() {
        let d = toy_dict();
        let q = query([7601.0, 7512.0, 7533.0, 7098.0]);
        let before = d.recognize(&q);
        let stats_before = d.stats();
        let back = EfdDictionary::from_parts(d.into_parts());
        assert_eq!(back.recognize(&q), before);
        assert_eq!(back.stats(), stats_before);
        // Entry iteration order survives the round trip.
        let first = back.entries().next().unwrap();
        assert_eq!(first.0.mean(), 6000.0);
    }

    #[test]
    fn depth3_separates_sp_from_bt() {
        let mut d = EfdDictionary::new(RoundingDepth::new(3));
        for (n, mean) in [7617.0, 7520.0, 7520.0, 7121.0].iter().enumerate() {
            d.insert_raw(M, NodeId(n as u16), W, *mean, &lab("sp", "X"));
        }
        for (n, mean) in [7638.0, 7540.0, 7540.0, 7140.0].iter().enumerate() {
            d.insert_raw(M, NodeId(n as u16), W, *mean, &lab("bt", "X"));
        }
        let r = d.recognize(&query([7622.0, 7518.0, 7521.0, 7119.0]));
        assert_eq!(r.verdict, Verdict::Recognized("sp".into()));
        let r = d.recognize(&query([7641.0, 7542.0, 7538.0, 7142.0]));
        assert_eq!(r.verdict, Verdict::Recognized("bt".into()));
    }

    #[test]
    fn unknown_when_nothing_matches() {
        let d = toy_dict();
        let r = d.recognize(&query([1.0, 2.0, 3.0, 4.0]));
        assert_eq!(r.verdict, Verdict::Unknown);
        assert_eq!(r.best(), None);
        assert_eq!(r.matched_points, 0);
        assert_eq!(r.total_points, 4);
    }

    #[test]
    fn majority_wins_over_partial_matches() {
        let d = toy_dict();
        // 3 nodes look like ft, 1 node collides with miniAMR X.
        let r = d.recognize(&query([6000.0, 6000.0, 6000.0, 7800.0]));
        assert_eq!(r.verdict, Verdict::Recognized("ft".into()));
        assert_eq!(r.app_votes[0], ("ft".into(), 3));
        assert_eq!(r.app_votes[1], ("miniAMR".into(), 1));
    }

    #[test]
    fn input_size_prediction() {
        let d = toy_dict();
        let r = d.recognize(&query([10951.0, 11020.0, 10990.0, 11043.0]));
        assert_eq!(r.verdict, Verdict::Recognized("miniAMR".into()));
        assert_eq!(r.predicted_label().unwrap().to_string(), "miniAMR Z");
    }

    #[test]
    fn nan_points_do_not_match() {
        let d = toy_dict();
        let q = Query {
            points: vec![ObsPoint {
                metric: M,
                node: NodeId(0),
                interval: W,
                mean: f64::NAN,
            }],
        };
        let r = d.recognize(&q);
        assert_eq!(r.verdict, Verdict::Unknown);
        assert_eq!(r.total_points, 1);
    }

    #[test]
    fn insert_nan_is_noop() {
        let mut d = EfdDictionary::new(RoundingDepth::new(2));
        assert!(!d.insert_raw(M, NodeId(0), W, f64::NAN, &lab("ft", "X")));
        assert!(d.is_empty());
    }

    #[test]
    fn stats_count_collisions() {
        let d = toy_dict();
        let s = d.stats();
        // Keys: ft 6000×4 nodes, sp/bt shared ×4, miniAMR X 7800×4,
        // miniAMR Z 11000×4 = 16 entries.
        assert_eq!(s.entries, 16);
        assert_eq!(s.apps, 4);
        assert_eq!(s.labels, 6);
        assert_eq!(s.colliding_entries, 4); // the sp/bt keys
        assert_eq!(s.exclusive_entries, 12);
        assert_eq!(s.max_apps_per_entry, 2);
        assert!(s.approx_bytes > 0);
    }

    #[test]
    fn entries_iterate_in_insertion_order() {
        let d = toy_dict();
        let first = d.entries().next().unwrap();
        assert_eq!(first.0.mean(), 6000.0);
        assert_eq!(first.0.node, NodeId(0));
    }

    #[test]
    fn render_table4_shape() {
        let d = toy_dict();
        let s = d
            .render_table4(&efd_telemetry::catalog::small_catalog())
            .render();
        assert!(s.contains("nr_mapped_vmstat"), "{s}");
        assert!(s.contains("sp X, bt X"), "{s}");
        assert!(s.contains("11000.0"), "{s}");
        assert!(s.contains("[60:120]"), "{s}");
    }

    #[test]
    fn learn_from_observation() {
        let mut d = EfdDictionary::new(RoundingDepth::new(2));
        let obs = LabeledObservation {
            label: lab("cg", "Y"),
            query: query([6800.0, 6810.0, 6790.0, 6805.0]),
        };
        d.learn(&obs);
        assert_eq!(d.len(), 4);
        let r = d.recognize(&query([6802.0, 6798.0, 6812.0, 6801.0]));
        assert_eq!(r.verdict, Verdict::Recognized("cg".into()));
    }
}
