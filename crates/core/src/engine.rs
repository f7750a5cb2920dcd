//! The engine API: one `Learn`/`Recognize` contract over every backend.
//!
//! The repository grew several recognition backends — the single-threaded
//! [`EfdDictionary`](crate::EfdDictionary) oracle, the conjunctive
//! [`ComboDictionary`](crate::multi::ComboDictionary), and the serving
//! forms in `efd-serve` (snapshots, sharded, durable and stacked
//! dictionaries) — each of which used to expose its own inherent
//! `learn`/`recognize` signatures. SIREN (Jakobsche et al., 2025) frames
//! HPC recognition as a pipeline of *interchangeable* identification
//! methods; this module is that contract:
//!
//! * [`Learn`] — anything that absorbs labeled observations.
//! * [`Recognize`] — anything that answers a [`Query`] with a
//!   [`Recognition`]. The core method is [`Recognize::recognize_into`],
//!   which counts votes in caller-owned [`VoteScratch`] — vote counting
//!   never allocates, only the returned [`Recognition`] does — and
//!   the convenience forms ([`Recognize::recognize`],
//!   [`Recognize::recognize_batch`]) are provided on top.
//!   [`Recognize::answer_into`] is the verdict-only form a server
//!   replies with: it fills a reusable [`Answer`] (point counts and the
//!   tied top apps) and, on the store-backed snapshots, allocates
//!   nothing once warm.
//! * [`ParallelRecognize`] — a blanket extension over `Recognize + Sync`
//!   adding [`recognize_batch_parallel`](ParallelRecognize::recognize_batch_parallel)
//!   via `efd_util`'s scoped-thread pool, one scratch per worker.
//!
//! Both traits are **object-safe**: backends can be selected at runtime as
//! `Box<dyn Recognize + Send + Sync>` (the CLI's `efd serve --backend`
//! does exactly that), and forwarding impls for `&R`, `Box<R>`, and
//! `Arc<R>` keep smart-pointer-wrapped backends usable wherever a
//! `Recognize` is expected.
//!
//! ## Answer contract
//!
//! Every implementation must be **answer-equivalent to the
//! single-threaded oracle** on the same learned content: the returned
//! [`Recognition`] equals `oracle.recognize(q).normalized()` — i.e.
//! results are in [`Recognition::normalized`] order, and tie-breaks
//! follow [`Recognition::best`]'s deterministic lexicographic rule. The
//! `engine_conformance` test suite instantiates this assertion for every
//! backend in the workspace.

use efd_telemetry::AppLabel;
use efd_util::parallel_map_init;

use crate::dictionary::{AppNameId, LabelId, Recognition, Verdict};
use crate::observation::{LabeledObservation, Query};

/// Reusable dense vote counters — the scratch contract shared by core and
/// the serving layer.
///
/// The oracle's [`EfdDictionary::recognize`](crate::EfdDictionary::recognize)
/// allocates two fresh hash maps per query to count votes. At serving
/// rates that allocation (and the re-hashing of every vote) dominates the
/// O(1) dictionary probes, so engine implementations count votes in
/// **dense arrays indexed by interned id** instead, with a `touched` list
/// for O(votes) reset. One `VoteScratch` lives per worker thread and is
/// reused across every query that thread answers.
///
/// Construct with `Default` and pass to [`Recognize::recognize_into`];
/// [`ParallelRecognize::recognize_batch_parallel`] manages one per worker
/// automatically. Backend authors drive it with the voting methods below;
/// [`VoteScratch::finish`] drains the counts into a [`Recognition`] and
/// resets the scratch for the next query.
#[derive(Debug, Default, Clone)]
pub struct VoteScratch {
    /// Vote count per `LabelId` index; zero except for touched ids.
    label_counts: Vec<u32>,
    /// Widened (SWAR) label counters: four packed 16-bit lanes per `u64`
    /// word, lane `i & 3` of word `i >> 2` counting label index `i`.
    /// Zero except for touched ids; [`VoteScratch::finish`] sums lane and
    /// scalar counts, so either vote path (or both) may feed a query.
    wide_label_counts: Vec<u64>,
    /// Vote count per `AppNameId` index; zero except for touched ids.
    app_counts: Vec<u32>,
    touched_labels: Vec<LabelId>,
    touched_apps: Vec<AppNameId>,
    /// Apps already credited for the current point (one vote per app per
    /// matched point, however many inputs share the entry).
    point_apps: Vec<AppNameId>,
    /// The tied top apps of the answer [`VoteScratch::finish_answer`] is
    /// building, sorted by name there.
    tied: Vec<AppNameId>,
}

impl VoteScratch {
    /// Most votes one label can take through
    /// [`VoteScratch::vote_label_wide`] before its 16-bit lane saturates.
    /// Kernels route queries with more points than this through the
    /// scalar [`VoteScratch::vote_label`] path.
    pub const WIDE_VOTE_LIMIT: usize = u16::MAX as usize;

    /// Grow the dense counters to cover `labels`/`apps` interned ids.
    /// Counters keep their (all-zero) state; growth never clears votes.
    pub fn ensure(&mut self, labels: usize, apps: usize) {
        if self.label_counts.len() < labels {
            self.label_counts.resize(labels, 0);
        }
        let wide_words = labels.div_ceil(4);
        if self.wide_label_counts.len() < wide_words {
            self.wide_label_counts.resize(wide_words, 0);
        }
        if self.app_counts.len() < apps {
            self.app_counts.resize(apps, 0);
        }
    }

    /// One vote for a label.
    #[inline]
    pub fn vote_label(&mut self, id: LabelId) {
        let c = &mut self.label_counts[id.index()];
        if *c == 0 {
            self.touched_labels.push(id);
        }
        *c += 1;
    }

    /// One vote for a label through the widened (SWAR) counter path:
    /// counts land in packed 16-bit lanes, four per `u64` word, so a
    /// postings-heavy vote loop touches a quarter of the counter cache
    /// lines the scalar [`VoteScratch::vote_label`] path would.
    ///
    /// Within one query, use *either* the scalar or the wide path for
    /// label votes — [`VoteScratch::finish`] sums both, but mixing them
    /// on the same label can record it twice in the touched list. A lane
    /// saturates at [`VoteScratch::WIDE_VOTE_LIMIT`] votes instead of
    /// overflowing into its neighbor; kernels keep counts exact by
    /// falling back to the scalar path for queries with more points than
    /// the limit.
    #[inline]
    pub fn vote_label_wide(&mut self, id: LabelId) {
        let i = id.index();
        let word = &mut self.wide_label_counts[i >> 2];
        let shift = (i & 3) * 16;
        let lane = (*word >> shift) & 0xFFFF;
        if lane == 0 {
            self.touched_labels.push(id);
        }
        if lane < 0xFFFF {
            *word += 1 << shift;
        }
    }

    /// Combined scalar + wide count for a label index, zeroing both.
    #[inline]
    fn drain_label_count(&mut self, i: usize) -> u32 {
        let scalar = std::mem::take(&mut self.label_counts[i]);
        let word = &mut self.wide_label_counts[i >> 2];
        let shift = (i & 3) * 16;
        let lane = ((*word >> shift) & 0xFFFF) as u32;
        *word &= !(0xFFFFu64 << shift);
        scalar + lane
    }

    /// One vote for an application (caller guarantees per-point dedup, or
    /// uses [`VoteScratch::begin_point`]/[`VoteScratch::vote_app_deduped`]).
    #[inline]
    pub fn vote_app(&mut self, id: AppNameId) {
        let c = &mut self.app_counts[id.index()];
        if *c == 0 {
            self.touched_apps.push(id);
        }
        *c += 1;
    }

    /// Reset the per-point app dedup set.
    #[inline]
    pub fn begin_point(&mut self) {
        self.point_apps.clear();
    }

    /// Vote for an app at most once per point (mirrors the oracle's
    /// per-entry dedup for entries whose labels share an application).
    #[inline]
    pub fn vote_app_deduped(&mut self, id: AppNameId) {
        if !self.point_apps.contains(&id) {
            self.point_apps.push(id);
            self.vote_app(id);
        }
    }

    /// Drain the accumulated **app** votes into `out`: the top vote count
    /// and every app that reached it, in name order — the verdict of
    /// [`VoteScratch::finish`] without its vote tables. Resets the
    /// scratch, label counters included; allocates nothing once the
    /// scratch and `out` have held an answer this size.
    pub fn finish_answer(
        &mut self,
        apps: &[String],
        matched_points: usize,
        total_points: usize,
        out: &mut Answer,
    ) {
        let top = self
            .touched_apps
            .iter()
            .map(|id| self.app_counts[id.index()])
            .max()
            .unwrap_or(0);
        self.tied.clear();
        for id in self.touched_apps.drain(..) {
            if std::mem::take(&mut self.app_counts[id.index()]) == top {
                self.tied.push(id);
            }
        }
        while let Some(id) = self.touched_labels.pop() {
            self.drain_label_count(id.index());
        }
        self.tied
            .sort_unstable_by(|a, b| apps[a.index()].cmp(&apps[b.index()]));
        out.reset(matched_points, total_points);
        for id in &self.tied {
            out.push_app(&apps[id.index()]);
        }
    }

    /// Drain the accumulated votes into a [`Recognition`] in
    /// [`Recognition::normalized`] order, resetting the scratch for the
    /// next query. `labels`/`apps` resolve interned ids to names.
    pub fn finish(
        &mut self,
        labels: &[AppLabel],
        apps: &[String],
        matched_points: usize,
        total_points: usize,
    ) -> Recognition {
        let mut app_votes: Vec<(String, u32)> = Vec::with_capacity(self.touched_apps.len());
        for id in self.touched_apps.drain(..) {
            let c = &mut self.app_counts[id.index()];
            app_votes.push((apps[id.index()].clone(), *c));
            *c = 0;
        }
        let mut label_votes: Vec<(AppLabel, u32)> = Vec::with_capacity(self.touched_labels.len());
        while let Some(id) = self.touched_labels.pop() {
            let count = self.drain_label_count(id.index());
            if count > 0 {
                // A zero combined count only happens when a label was
                // touched twice (scalar + wide paths mixed on one query,
                // against the documented contract); skip the duplicate.
                label_votes.push((labels[id.index()].clone(), count));
            }
        }

        // Sort once, directly in the normalized order (same comparators as
        // `Recognition::normalized`, which is then a no-op on this value).
        app_votes.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        label_votes.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| (&a.0.app, &a.0.input).cmp(&(&b.0.app, &b.0.input)))
        });

        let verdict = match app_votes.first() {
            None => Verdict::Unknown,
            Some(&(_, top)) => {
                // The tied prefix is already name-sorted.
                let mut tied: Vec<String> = app_votes
                    .iter()
                    .take_while(|&&(_, v)| v == top)
                    .map(|(a, _)| a.clone())
                    .collect();
                if tied.len() == 1 {
                    Verdict::Recognized(tied.pop().expect("one tied app"))
                } else {
                    Verdict::Ambiguous(tied)
                }
            }
        };

        Recognition {
            verdict,
            app_votes,
            label_votes,
            matched_points,
            total_points,
        }
    }
}

/// The verdict of one query without its vote tables: the matched and
/// total point counts plus the tied top applications in name order —
/// everything a `RECOGNIZE` reply carries.
///
/// An `Answer` is meant to be reused: [`Recognize::answer_into`]
/// overwrites it, and the app names go into one `String` that keeps its
/// capacity, so a warm `Answer` is refilled without allocating. No
/// tied app means unknown, one means recognized, several mean ambiguous.
///
/// ```
/// use efd_core::engine::{Answer, Recognize, VoteScratch};
/// use efd_core::{EfdDictionary, LabeledObservation, Query, RoundingDepth};
/// use efd_telemetry::{AppLabel, Interval, MetricId};
///
/// let mut dict = EfdDictionary::new(RoundingDepth::new(2));
/// for app in ["sp", "bt"] {
///     dict.learn(&LabeledObservation {
///         label: AppLabel::new(app, "X"),
///         query: Query::from_node_means(MetricId(0), Interval::PAPER_DEFAULT, &[7520.0]),
///     });
/// }
/// let q = Query::from_node_means(MetricId(0), Interval::PAPER_DEFAULT, &[7511.0, 1.0]);
/// let (mut scratch, mut answer) = (VoteScratch::default(), Answer::default());
/// dict.answer_into(&q, &mut scratch, &mut answer);
/// assert_eq!((answer.matched_points, answer.total_points), (1, 2));
/// assert_eq!(answer.apps().collect::<Vec<_>>(), ["bt", "sp"]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Answer {
    /// Query points whose fingerprint was found.
    pub matched_points: usize,
    /// Query points asked about.
    pub total_points: usize,
    /// The tied apps' names, back to back, in name order.
    names: String,
    /// End offset of each tied app's name in `names`.
    ends: Vec<usize>,
}

impl Answer {
    /// Start over with no tied app (an unknown verdict), keeping capacity.
    fn reset(&mut self, matched_points: usize, total_points: usize) {
        self.matched_points = matched_points;
        self.total_points = total_points;
        self.names.clear();
        self.ends.clear();
    }

    /// Append one tied app; callers push in name order.
    fn push_app(&mut self, name: &str) {
        self.names.push_str(name);
        self.ends.push(self.names.len());
    }

    /// Overwrite with the verdict and point counts of `rec`. An ambiguous
    /// tie array is taken in name order whatever order `rec` holds it in.
    pub fn set_from(&mut self, rec: &Recognition) {
        self.reset(rec.matched_points, rec.total_points);
        match &rec.verdict {
            Verdict::Recognized(app) => self.push_app(app),
            Verdict::Ambiguous(apps) => {
                let mut sorted: Vec<&str> = apps.iter().map(String::as_str).collect();
                sorted.sort_unstable();
                for app in sorted {
                    self.push_app(app);
                }
            }
            Verdict::Unknown => {}
        }
    }

    /// The tied top applications, in name order (empty when unknown).
    pub fn apps(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.ends.len()).map(move |i| {
            let start = if i == 0 { 0 } else { self.ends[i - 1] };
            &self.names[start..self.ends[i]]
        })
    }

    /// How many applications tied for the most votes: 0 is unknown, 1 is
    /// recognized, more is ambiguous.
    pub fn tied(&self) -> usize {
        self.ends.len()
    }
}

impl From<&Recognition> for Answer {
    fn from(rec: &Recognition) -> Answer {
        let mut answer = Answer::default();
        answer.set_from(rec);
        answer
    }
}

/// A recognition system that absorbs labeled observations.
///
/// Learning is incremental — "learning new applications is as simple as
/// adding new keys" (paper §4) — and implementations may intern, index,
/// or buffer however they like, as long as a subsequent [`Recognize`]
/// call reflects everything learned so far.
///
/// ```
/// use efd_core::engine::{Learn, Recognize};
/// use efd_core::{EfdDictionary, LabeledObservation, Query, RoundingDepth};
/// use efd_telemetry::{AppLabel, Interval, MetricId};
///
/// // Generic over any learnable backend:
/// fn teach<E: Learn>(engine: &mut E) {
///     engine.learn(&LabeledObservation {
///         label: AppLabel::new("ft", "X"),
///         query: Query::from_node_means(MetricId(0), Interval::PAPER_DEFAULT,
///                                       &[6020.0, 6019.0]),
///     });
/// }
///
/// let mut dict = EfdDictionary::new(RoundingDepth::new(2));
/// teach(&mut dict);
/// let q = Query::from_node_means(MetricId(0), Interval::PAPER_DEFAULT, &[6001.0]);
/// assert_eq!(Recognize::recognize(&dict, &q).best(), Some("ft"));
/// ```
pub trait Learn {
    /// Absorb one labeled observation.
    fn learn(&mut self, obs: &LabeledObservation);

    /// Absorb a batch (dataset order = insertion order, which fixes the
    /// paper's first-learned tie-array ordering where a backend records
    /// it). Implementations that fit a model once over the whole batch
    /// (e.g. classifier adapters) may override this to defer work.
    fn learn_all(&mut self, observations: &[LabeledObservation]) {
        for o in observations {
            self.learn(o);
        }
    }
}

/// A recognition system that answers queries.
///
/// The core method is [`Recognize::recognize_into`]: vote counting in
/// caller-owned [`VoteScratch`], so hot paths amortize allocations across
/// queries. [`Recognize::recognize`] and [`Recognize::recognize_batch`]
/// are provided conveniences; `Sync` backends additionally get
/// [`ParallelRecognize::recognize_batch_parallel`] for free.
///
/// Implementations return answers in [`Recognition::normalized`] order
/// and must be answer-equivalent to the single-threaded
/// [`EfdDictionary`](crate::EfdDictionary) oracle on the same learned
/// content (see the module docs).
///
/// ```
/// use efd_core::engine::Recognize;
/// use efd_core::{EfdDictionary, LabeledObservation, Query, RoundingDepth};
/// use efd_telemetry::{AppLabel, Interval, MetricId};
///
/// let mut dict = EfdDictionary::new(RoundingDepth::new(2));
/// dict.learn(&LabeledObservation {
///     label: AppLabel::new("cg", "Y"),
///     query: Query::from_node_means(MetricId(0), Interval::PAPER_DEFAULT, &[8110.0; 4]),
/// });
///
/// // Backends are selected at runtime through the object-safe trait:
/// let engine: Box<dyn Recognize> = Box::new(dict);
/// let q = Query::from_node_means(MetricId(0), Interval::PAPER_DEFAULT, &[8093.0; 4]);
/// assert_eq!(engine.recognize(&q).best(), Some("cg"));
/// assert_eq!(engine.recognize_batch(std::slice::from_ref(&q)).len(), 1);
/// ```
pub trait Recognize {
    /// Recognize one query, counting votes in caller-owned `scratch`.
    ///
    /// The scratch is reset by the call itself (via
    /// [`VoteScratch::finish`]) and is immediately reusable; backends
    /// with their own aggregation structure (e.g. conjunctive combo keys)
    /// may ignore it.
    fn recognize_into(&self, query: &Query, scratch: &mut VoteScratch) -> Recognition;

    /// Answer one query with its verdict only, into caller-owned
    /// `scratch` and `out` — the serving hot path, which needs no vote
    /// tables. Equals `Answer::from(&self.recognize_into(query,
    /// scratch).normalized())`, which is also the provided body, so every
    /// backend answers correctly without overriding it; store-backed
    /// snapshots override it to count app votes only and allocate
    /// nothing once warm.
    fn answer_into(&self, query: &Query, scratch: &mut VoteScratch, out: &mut Answer) {
        out.set_from(&self.recognize_into(query, scratch).normalized());
    }

    /// Recognize one query with fresh scratch (allocates; prefer
    /// [`Recognize::recognize_into`] or the batch forms on hot paths).
    fn recognize(&self, query: &Query) -> Recognition {
        let mut scratch = VoteScratch::default();
        self.recognize_into(query, &mut scratch)
    }

    /// Recognize every query sequentially, one shared scratch, results in
    /// input order. `Sync` backends can use
    /// [`ParallelRecognize::recognize_batch_parallel`] instead.
    fn recognize_batch(&self, queries: &[Query]) -> Vec<Recognition> {
        let mut scratch = VoteScratch::default();
        queries
            .iter()
            .map(|q| self.recognize_into(q, &mut scratch))
            .collect()
    }
}

impl<R: Recognize + ?Sized> Recognize for &R {
    fn recognize_into(&self, query: &Query, scratch: &mut VoteScratch) -> Recognition {
        (**self).recognize_into(query, scratch)
    }

    fn answer_into(&self, query: &Query, scratch: &mut VoteScratch, out: &mut Answer) {
        (**self).answer_into(query, scratch, out)
    }
}

impl<R: Recognize + ?Sized> Recognize for Box<R> {
    fn recognize_into(&self, query: &Query, scratch: &mut VoteScratch) -> Recognition {
        (**self).recognize_into(query, scratch)
    }

    fn answer_into(&self, query: &Query, scratch: &mut VoteScratch, out: &mut Answer) {
        (**self).answer_into(query, scratch, out)
    }
}

impl<R: Recognize + ?Sized> Recognize for std::sync::Arc<R> {
    fn recognize_into(&self, query: &Query, scratch: &mut VoteScratch) -> Recognition {
        (**self).recognize_into(query, scratch)
    }

    fn answer_into(&self, query: &Query, scratch: &mut VoteScratch, out: &mut Answer) {
        (**self).answer_into(query, scratch, out)
    }
}

/// Parallel batch recognition for `Sync` backends.
///
/// Blanket-implemented for every `Recognize + Sync` type (including trait
/// objects like `dyn Recognize + Send + Sync`), so any thread-safe
/// backend fans batches out over `efd_util`'s scoped-thread pool with one
/// [`VoteScratch`] per worker — no per-query allocation, results in input
/// order, thread count from `efd_util::num_threads` (`EFD_THREADS`
/// overrides).
pub trait ParallelRecognize: Recognize + Sync {
    /// Recognize every query across worker threads, results in input
    /// order. Answers equal [`Recognize::recognize_batch`] on the same
    /// queries.
    fn recognize_batch_parallel(&self, queries: &[Query]) -> Vec<Recognition> {
        parallel_map_init(queries, VoteScratch::default, |scratch, q| {
            self.recognize_into(q, scratch)
        })
    }
}

impl<R: Recognize + Sync + ?Sized> ParallelRecognize for R {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EfdDictionary, RoundingDepth};
    use efd_telemetry::{Interval, MetricId};

    fn lab(app: &str, input: &str) -> AppLabel {
        AppLabel::new(app, input)
    }

    #[test]
    fn finish_resets_for_reuse() {
        let labels = [lab("sp", "X"), lab("bt", "X")];
        let apps = ["sp".to_string(), "bt".to_string()];
        let mut s = VoteScratch::default();
        s.ensure(2, 2);
        s.begin_point();
        s.vote_label(LabelId::from_index(0));
        s.vote_app_deduped(AppNameId::from_index(0));
        let r = s.finish(&labels, &apps, 1, 1);
        assert_eq!(r.verdict, Verdict::Recognized("sp".into()));

        // Second use sees a clean slate.
        let r = s.finish(&labels, &apps, 0, 3);
        assert_eq!(r.verdict, Verdict::Unknown);
        assert!(r.app_votes.is_empty());
        assert_eq!(r.total_points, 3);
    }

    #[test]
    fn per_point_app_dedup() {
        // Two inputs of the same app on one entry: one app vote.
        let labels = [lab("ft", "X"), lab("ft", "Y")];
        let apps = ["ft".to_string()];
        let mut s = VoteScratch::default();
        s.ensure(2, 1);
        s.begin_point();
        for i in 0..2 {
            s.vote_label(LabelId::from_index(i));
            s.vote_app_deduped(AppNameId::from_index(0));
        }
        let r = s.finish(&labels, &apps, 1, 1);
        assert_eq!(r.app_votes, vec![("ft".into(), 1)]);
        assert_eq!(r.label_votes.len(), 2);
    }

    #[test]
    fn tie_produces_sorted_ambiguous() {
        let labels = [lab("sp", "X"), lab("bt", "X")];
        let apps = ["sp".to_string(), "bt".to_string()];
        let mut s = VoteScratch::default();
        s.ensure(2, 2);
        for i in 0..2 {
            s.begin_point();
            s.vote_label(LabelId::from_index(i));
            s.vote_app_deduped(AppNameId::from_index(i));
        }
        let r = s.finish(&labels, &apps, 2, 2);
        // normalized(): lexicographic tie array.
        assert_eq!(
            r.verdict,
            Verdict::Ambiguous(vec!["bt".into(), "sp".into()])
        );
        assert_eq!(r.best(), Some("bt"));
    }

    #[test]
    fn wide_votes_match_scalar_votes() {
        // Same vote pattern through both counter paths: identical answers.
        let labels: Vec<AppLabel> = (0..9).map(|i| lab(&format!("a{i}"), "X")).collect();
        let apps: Vec<String> = (0..9).map(|i| format!("a{i}")).collect();
        let mut scalar = VoteScratch::default();
        let mut wide = VoteScratch::default();
        scalar.ensure(9, 9);
        wide.ensure(9, 9);
        // Uneven counts across all four lanes of two words plus a
        // straggler, so lane packing and word boundaries are exercised.
        for i in 0..9usize {
            for _ in 0..=(i % 5) {
                scalar.vote_label(LabelId::from_index(i));
                wide.vote_label_wide(LabelId::from_index(i));
            }
            scalar.begin_point();
            scalar.vote_app_deduped(AppNameId::from_index(i));
            wide.begin_point();
            wide.vote_app_deduped(AppNameId::from_index(i));
        }
        let s = scalar.finish(&labels, &apps, 9, 9);
        let w = wide.finish(&labels, &apps, 9, 9);
        assert_eq!(s, w);
        assert_eq!(w.label_votes.iter().map(|&(_, v)| v).max(), Some(5));

        // Both scratches were reset: a second finish is empty.
        assert!(wide.finish(&labels, &apps, 0, 0).label_votes.is_empty());
    }

    #[test]
    fn wide_lanes_saturate_instead_of_bleeding() {
        let labels = [lab("hot", "X"), lab("cold", "X")];
        let apps = ["hot".to_string(), "cold".to_string()];
        let mut s = VoteScratch::default();
        s.ensure(2, 2);
        // Overflow lane 0 past u16::MAX; lane 1 (same word) must be
        // untouched and lane 0 must clamp, not wrap into its neighbor.
        for _ in 0..(VoteScratch::WIDE_VOTE_LIMIT + 10) {
            s.vote_label_wide(LabelId::from_index(0));
        }
        s.vote_label_wide(LabelId::from_index(1));
        let r = s.finish(&labels, &apps, 1, 1);
        assert_eq!(
            r.label_votes,
            vec![(lab("hot", "X"), u16::MAX as u32), (lab("cold", "X"), 1),]
        );
    }

    #[test]
    fn finish_answer_resets_wide_counters() {
        let apps = ["ft".to_string()];
        let mut s = VoteScratch::default();
        let mut answer = Answer::default();
        s.ensure(1, 1);
        s.vote_label_wide(LabelId::from_index(0));
        s.begin_point();
        s.vote_app_deduped(AppNameId::from_index(0));
        s.finish_answer(&apps, 1, 1, &mut answer);
        assert_eq!(answer.apps().next(), Some("ft"));
        // The wide counter was drained: a scalar-path reuse sees zero.
        s.vote_label(LabelId::from_index(0));
        let labels = [lab("ft", "X")];
        let r = s.finish(&labels, &apps, 1, 1);
        assert_eq!(r.label_votes, vec![(lab("ft", "X"), 1)]);
    }

    #[test]
    fn finish_answer_is_the_verdict_of_finish_and_resets() {
        let labels = [lab("sp", "X"), lab("bt", "X"), lab("ft", "X")];
        let apps = ["sp".to_string(), "bt".to_string(), "ft".to_string()];
        // Per-app votes per case: a clear winner, a two-way tie (learned
        // in reverse name order), and nothing.
        let cases: [&[u32]; 3] = [&[1, 3, 2], &[2, 2, 1], &[]];
        let mut full = VoteScratch::default();
        let mut lean = VoteScratch::default();
        let mut answer = Answer::default();
        for votes in cases {
            for s in [&mut full, &mut lean] {
                s.ensure(3, 3);
                for (i, &n) in votes.iter().enumerate() {
                    for _ in 0..n {
                        s.begin_point();
                        s.vote_label(LabelId::from_index(i));
                        s.vote_app_deduped(AppNameId::from_index(i));
                    }
                }
            }
            let rec = full.finish(&labels, &apps, 4, 5);
            lean.finish_answer(&apps, 4, 5, &mut answer);
            assert_eq!(answer, Answer::from(&rec), "votes {votes:?}");
            assert_eq!(answer.apps().next(), rec.best());
        }
        // Both scratches are clean: an empty finish is unknown.
        lean.finish_answer(&apps, 0, 1, &mut answer);
        assert_eq!(answer.tied(), 0);
        assert!(full.finish(&labels, &apps, 0, 1).app_votes.is_empty());
    }

    #[test]
    fn answer_sorts_a_tie_array_and_keeps_its_buffers() {
        let rec = Recognition {
            verdict: Verdict::Ambiguous(vec!["sp".into(), "bt".into(), "cg".into()]),
            app_votes: vec![],
            label_votes: vec![],
            matched_points: 2,
            total_points: 3,
        };
        let mut answer = Answer::from(&rec);
        assert_eq!(answer.apps().collect::<Vec<_>>(), ["bt", "cg", "sp"]);
        assert_eq!(answer.tied(), 3);
        let cap = answer.names.capacity();
        answer.set_from(&Recognition {
            verdict: Verdict::Recognized("ft".into()),
            ..rec
        });
        assert_eq!(answer.apps().collect::<Vec<_>>(), ["ft"]);
        assert_eq!(answer.names.capacity(), cap, "refilled in place");
    }

    #[test]
    fn trait_recognize_matches_normalized_oracle() {
        const M: MetricId = MetricId(0);
        const W: Interval = Interval::PAPER_DEFAULT;
        let mut d = EfdDictionary::new(RoundingDepth::new(2));
        for (app, mean) in [("sp", 7520.0), ("bt", 7530.0), ("ft", 6020.0)] {
            for n in 0..4u16 {
                d.insert_raw(M, efd_telemetry::NodeId(n), W, mean, &lab(app, "X"));
            }
        }
        let queries = [
            Query::from_node_means(M, W, &[7511.0, 7522.0, 7533.0, 7544.0]),
            Query::from_node_means(M, W, &[6001.0; 4]),
            Query::from_node_means(M, W, &[1.0; 4]),
        ];
        let mut scratch = VoteScratch::default();
        let mut answer = Answer::default();
        for q in &queries {
            let inherent = d.recognize(q).normalized();
            assert_eq!(Recognize::recognize(&d, q), inherent);
            assert_eq!(d.recognize_into(q, &mut scratch), inherent);
            d.answer_into(q, &mut scratch, &mut answer);
            assert_eq!(answer, Answer::from(&inherent));
        }
        let batch = Recognize::recognize_batch(&d, &queries);
        let par = d.recognize_batch_parallel(&queries);
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(batch[i], d.recognize(q).normalized());
            assert_eq!(par[i], batch[i]);
        }
    }

    #[test]
    fn forwarding_impls_preserve_answers() {
        const M: MetricId = MetricId(0);
        const W: Interval = Interval::PAPER_DEFAULT;
        let mut d = EfdDictionary::new(RoundingDepth::new(2));
        d.insert_raw(M, efd_telemetry::NodeId(0), W, 6020.0, &lab("ft", "X"));
        let q = Query::from_node_means(M, W, &[6004.0]);
        let expected = Recognize::recognize(&d, &q);

        let by_ref: &EfdDictionary = &d;
        assert_eq!(Recognize::recognize(&by_ref, &q), expected);
        let arc = std::sync::Arc::new(d.clone());
        assert_eq!(Recognize::recognize(&arc, &q), expected);
        let boxed: Box<dyn Recognize + Send + Sync> = Box::new(d);
        assert_eq!(boxed.recognize(&q), expected);
        assert_eq!(
            boxed.recognize_batch_parallel(std::slice::from_ref(&q))[0],
            expected
        );
    }
}
