//! The Table 2 dataset: run inventory and lazy materialization.
//!
//! The paper's dataset (Ates et al.'s public Taxonomist artifact):
//!
//! | Applications | Inputs | Nodes | Repetitions |
//! |---|---|---|---|
//! | FT MG SP LU BT CG CoMD miniGhost* miniAMR* miniMD* kripke* | X Y Z | 4 | 30 |
//! | starred apps only | L | 32 | 6 |
//!
//! The *publicized* artifact contains one third of the repetitions; both
//! variants are available via [`SubsetKind`]. A [`Dataset`] holds only
//! [`RunSpec`]s — traces are materialized on demand (optionally in
//! parallel), so experiments touching one metric never pay for 562.

use std::sync::Arc;

use efd_telemetry::catalog::taxonomist_catalog;
use efd_telemetry::metric::MetricCatalog;
use efd_telemetry::sampler::CollectorConfig;
use efd_telemetry::trace::{ExecutionTrace, MetricSelection};
use efd_telemetry::{AppLabel, Interval};
use efd_util::parallel_map;
use efd_util::rng::derive_seed;
use efd_util::table::TextTable;

use crate::apps::{AppId, InputSize};
use crate::profile::GeneratorKnobs;
use crate::run::{self, RunSpec};

/// Which variant of the dataset to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubsetKind {
    /// The original study: 30 repetitions of X/Y/Z, 6 of L.
    Full,
    /// The publicized artifact: one third of the repetitions (10 / 2) —
    /// what the paper's experiments actually ran on.
    Public,
}

/// Dataset generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    /// Full or public-subset repetition counts.
    pub subset: SubsetKind,
    /// Master seed; every run seed derives from it.
    pub master_seed: u64,
    /// Duration of an X-input run; each input step adds 60 s.
    pub duration_base_s: u32,
    /// Collector artifacts (jitter, dropouts).
    pub collector: CollectorConfig,
    /// Signal-model magnitudes.
    pub knobs: GeneratorKnobs,
}

impl Default for DatasetSpec {
    fn default() -> Self {
        Self {
            subset: SubsetKind::Public,
            master_seed: 0xEFD_2021,
            duration_base_s: 240,
            collector: CollectorConfig::default(),
            knobs: GeneratorKnobs::default(),
        }
    }
}

impl DatasetSpec {
    /// Allocation size for X/Y/Z runs (paper Table 2).
    pub const NODES_XYZ: u16 = 4;
    /// Allocation size for L runs (paper Table 2).
    pub const NODES_L: u16 = 32;

    /// Repetitions of each (app, X/Y/Z) pair.
    pub fn reps_xyz(&self) -> u32 {
        match self.subset {
            SubsetKind::Full => 30,
            SubsetKind::Public => 10,
        }
    }

    /// Repetitions of each (starred app, L) pair.
    pub fn reps_l(&self) -> u32 {
        match self.subset {
            SubsetKind::Full => 6,
            SubsetKind::Public => 2,
        }
    }
}

/// The dataset: an inventory of runs plus the metric catalog, with lazy
/// trace materialization.
#[derive(Debug, Clone)]
pub struct Dataset {
    spec: DatasetSpec,
    catalog: Arc<MetricCatalog>,
    runs: Vec<RunSpec>,
}

impl Dataset {
    /// Generate the run inventory with the full 562-metric catalog.
    pub fn generate(spec: DatasetSpec) -> Self {
        Self::with_catalog(spec, taxonomist_catalog())
    }

    /// Generate with a custom catalog (tests use a small one).
    pub fn with_catalog(spec: DatasetSpec, catalog: MetricCatalog) -> Self {
        let mut runs = Vec::new();
        for app in AppId::ALL {
            for input in [InputSize::X, InputSize::Y, InputSize::Z] {
                for rep in 0..spec.reps_xyz() {
                    runs.push(Self::run_spec(
                        &spec,
                        app,
                        input,
                        rep,
                        Self::nodes_for(input),
                    ));
                }
            }
            if app.has_large_input() {
                for rep in 0..spec.reps_l() {
                    runs.push(Self::run_spec(
                        &spec,
                        app,
                        InputSize::L,
                        rep,
                        Self::nodes_for(InputSize::L),
                    ));
                }
            }
        }
        Self {
            spec,
            catalog: Arc::new(catalog),
            runs,
        }
    }

    fn nodes_for(input: InputSize) -> u16 {
        if input == InputSize::L {
            DatasetSpec::NODES_L
        } else {
            DatasetSpec::NODES_XYZ
        }
    }

    fn run_spec(
        spec: &DatasetSpec,
        app: AppId,
        input: InputSize,
        rep: u32,
        n_nodes: u16,
    ) -> RunSpec {
        let seed = derive_seed(spec.master_seed, &[app.tag(), input.tag(), rep as u64]);
        // Durations scale with input and wobble a little per run.
        let duration_s = spec.duration_base_s + 60 * input.step() + (seed % 21) as u32;
        RunSpec {
            app,
            input,
            n_nodes,
            rep,
            duration_s,
            seed,
        }
    }

    /// Generation parameters.
    pub fn spec(&self) -> &DatasetSpec {
        &self.spec
    }

    /// The metric catalog.
    pub fn catalog(&self) -> &MetricCatalog {
        &self.catalog
    }

    /// Run inventory.
    pub fn runs(&self) -> &[RunSpec] {
        &self.runs
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether the inventory is empty.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Ground-truth labels, aligned with [`Dataset::runs`].
    pub fn labels(&self) -> Vec<AppLabel> {
        self.runs.iter().map(|r| r.label()).collect()
    }

    /// Materialize run `i` for the selected metrics (full duration).
    pub fn materialize(&self, i: usize, selection: &MetricSelection) -> ExecutionTrace {
        run::materialize(
            &self.runs[i],
            &self.catalog,
            selection,
            self.spec.collector,
            &self.spec.knobs,
        )
    }

    /// Materialize only the first `horizon_s` seconds of run `i` — the
    /// EFD's "first two minutes" data diet.
    pub fn materialize_prefix(
        &self,
        i: usize,
        selection: &MetricSelection,
        horizon_s: u32,
    ) -> ExecutionTrace {
        run::materialize_prefix(
            &self.runs[i],
            &self.catalog,
            selection,
            self.spec.collector,
            &self.spec.knobs,
            horizon_s,
        )
    }

    /// Materialize every run in parallel (prefix-limited if `horizon_s` is
    /// given). Memory scales with `runs × selection`, so keep selections
    /// narrow — that is the EFD's whole point.
    pub fn materialize_all(
        &self,
        selection: &MetricSelection,
        horizon_s: Option<u32>,
    ) -> Vec<ExecutionTrace> {
        let idx: Vec<usize> = (0..self.runs.len()).collect();
        parallel_map(&idx, |&i| match horizon_s {
            Some(h) => self.materialize_prefix(i, selection, h),
            None => self.materialize(i, selection),
        })
    }

    /// Per-node, per-metric window means of run `i` (fingerprint fast
    /// path): `out[node][metric_pos]`.
    pub fn window_means(
        &self,
        i: usize,
        selection: &MetricSelection,
        window: Interval,
    ) -> Vec<Vec<f64>> {
        run::window_means(
            &self.runs[i],
            &self.catalog,
            selection,
            window,
            self.spec.collector,
            &self.spec.knobs,
        )
    }

    /// Window means of every run, in parallel: `out[run][node][metric_pos]`.
    pub fn window_means_all(
        &self,
        selection: &MetricSelection,
        window: Interval,
    ) -> Vec<Vec<Vec<f64>>> {
        let idx: Vec<usize> = (0..self.runs.len()).collect();
        parallel_map(&idx, |&i| self.window_means(i, selection, window))
    }

    /// Render the paper's Table 2 for this dataset variant.
    pub fn table2(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "Applications",
            "Input Sizes",
            "Node Count",
            "Repeated Executions",
        ])
        .with_title("Table 2: Dataset used for Evaluation");
        let apps: Vec<String> = AppId::ALL
            .iter()
            .map(|a| {
                if a.has_large_input() {
                    format!("{}*", a.name())
                } else {
                    a.name().to_string()
                }
            })
            .collect();
        t.add_row(vec![
            apps.join(", "),
            "X, Y, Z".to_string(),
            DatasetSpec::NODES_XYZ.to_string(),
            self.spec.reps_xyz().to_string(),
        ]);
        t.add_row(vec![
            "starred (*) apps only".to_string(),
            "L".to_string(),
            DatasetSpec::NODES_L.to_string(),
            self.spec.reps_l().to_string(),
        ]);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efd_telemetry::catalog::small_catalog;

    fn tiny() -> Dataset {
        Dataset::with_catalog(DatasetSpec::default(), small_catalog())
    }

    #[test]
    fn public_subset_counts() {
        let d = tiny();
        // 11 apps × 3 inputs × 10 reps + 4 starred × 1 input × 2 reps
        assert_eq!(d.len(), 11 * 3 * 10 + 4 * 2);
    }

    #[test]
    fn full_counts() {
        let spec = DatasetSpec {
            subset: SubsetKind::Full,
            ..DatasetSpec::default()
        };
        let d = Dataset::with_catalog(spec, small_catalog());
        assert_eq!(d.len(), 11 * 3 * 30 + 4 * 6);
    }

    #[test]
    fn l_runs_use_32_nodes() {
        let d = tiny();
        for r in d.runs() {
            if r.input == InputSize::L {
                assert_eq!(r.n_nodes, 32);
                assert!(r.app.has_large_input());
            } else {
                assert_eq!(r.n_nodes, 4);
            }
        }
    }

    #[test]
    fn run_seeds_are_unique() {
        let d = tiny();
        let mut seeds: Vec<u64> = d.runs().iter().map(|r| r.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), d.len());
    }

    #[test]
    fn durations_scale_with_input() {
        let d = tiny();
        let dur = |input: InputSize| -> f64 {
            let (sum, n) = d
                .runs()
                .iter()
                .filter(|r| r.input == input)
                .fold((0u64, 0u64), |(s, n), r| (s + r.duration_s as u64, n + 1));
            sum as f64 / n as f64
        };
        assert!(dur(InputSize::Y) > dur(InputSize::X) + 40.0);
        assert!(dur(InputSize::Z) > dur(InputSize::Y) + 40.0);
    }

    #[test]
    fn window_means_match_materialized_traces() {
        let d = tiny();
        let id = d.catalog().id("nr_mapped_vmstat").unwrap();
        let sel = MetricSelection::single(id);
        let w = Interval::PAPER_DEFAULT;
        let means = d.window_means(3, &sel, w);
        let trace = d.materialize(3, &sel);
        for (n, node) in trace.nodes.iter().enumerate() {
            assert_eq!(means[n][0], node.series[0].window_mean(w));
        }
    }

    #[test]
    fn parallel_materialization_is_deterministic() {
        let d = tiny();
        let id = d.catalog().id("nr_mapped_vmstat").unwrap();
        let sel = MetricSelection::single(id);
        let a = d.window_means_all(&sel, Interval::PAPER_DEFAULT);
        let b = d.window_means_all(&sel, Interval::PAPER_DEFAULT);
        assert_eq!(a, b);
        assert_eq!(a.len(), d.len());
    }

    #[test]
    fn labels_align_with_runs() {
        let d = tiny();
        let labels = d.labels();
        for (r, l) in d.runs().iter().zip(&labels) {
            assert_eq!(&r.label(), l);
        }
    }

    #[test]
    fn table2_lists_both_rows() {
        let d = tiny();
        let s = d.table2().render();
        assert!(s.contains("miniAMR*"));
        assert!(s.contains("X, Y, Z"));
        assert!(s.contains("32"));
        assert!(s.contains("10"), "public reps missing:\n{s}");
    }

    #[test]
    fn different_master_seeds_change_traces() {
        let spec2 = DatasetSpec {
            master_seed: 999,
            ..DatasetSpec::default()
        };
        let d1 = tiny();
        let d2 = Dataset::with_catalog(spec2, small_catalog());
        let id = d1.catalog().id("nr_mapped_vmstat").unwrap();
        let sel = MetricSelection::single(id);
        let a = d1.window_means(0, &sel, Interval::PAPER_DEFAULT);
        let b = d2.window_means(0, &sel, Interval::PAPER_DEFAULT);
        assert_ne!(a, b);
    }
}
