//! Rendering paper artifacts (Tables 1–4, Figure 2) and EXPERIMENTS.md.
//!
//! Every renderer prints *paper vs measured* side by side so the benches'
//! output is self-judging: a reader sees immediately whether the shape
//! holds.

use efd_core::dictionary::EfdDictionary;
use efd_core::observation::{LabeledObservation, Query};
use efd_core::rounding::{round_to_depth, RoundingDepth};
use efd_telemetry::trace::MetricSelection;
use efd_telemetry::Interval;
use efd_util::table::{fmt_score, TextTable};
use efd_util::Align;
use efd_workload::{AppId, Dataset, InputSize};

use crate::experiments::{ExperimentKind, ExperimentResult};
use crate::paper;
use crate::screening::MetricScore;

/// Table 1: the rounding-depth mechanism, paper values vs our
/// implementation (they must agree exactly; the table shows both).
pub fn render_table1() -> TextTable {
    let mut t = TextTable::new(vec![
        "Original Value",
        "depth 5",
        "depth 4",
        "depth 3",
        "depth 2",
        "depth 1",
    ])
    .with_title("Table 1: Rounding Depth for Measurements (ours = paper)")
    .with_aligns(vec![Align::Right; 6]);
    for (value, expected) in paper::TABLE1 {
        let mut row = vec![efd_core::fingerprint::fmt_mean(value)];
        for (i, exp) in expected.iter().enumerate() {
            let depth = (5 - i) as u8;
            let ours = round_to_depth(value, depth);
            let cell = match exp {
                Some(_) => efd_core::fingerprint::fmt_mean(ours),
                None => "-".to_string(),
            };
            row.push(cell);
        }
        t.add_row(row);
    }
    t
}

/// Figure 2: EFD vs Taxonomist across the five experiments, paper vs
/// measured. `results` may contain any subset of
/// (classifier, experiment) pairs.
pub fn render_figure2(results: &[ExperimentResult]) -> TextTable {
    let mut t = TextTable::new(vec![
        "Experiment",
        "Taxonomist (paper)",
        "EFD (paper)",
        "Taxonomist (ours)",
        "EFD (ours)",
    ])
    .with_title(
        "Figure 2: F-scores — Taxonomist (721 metrics, full window) vs \
         EFD (1 metric, first 2 minutes)",
    )
    .with_aligns(vec![
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    let lookup = |kind: ExperimentKind, who: &str| -> String {
        results
            .iter()
            .find(|r| r.kind == kind && r.classifier == who)
            .map(|r| fmt_score(r.mean_f1))
            .unwrap_or_else(|| "n/a".to_string())
    };
    for kind in ExperimentKind::ALL {
        t.add_row(vec![
            kind.label().to_string(),
            paper::taxonomist_figure2(kind)
                .map(fmt_score)
                .unwrap_or_else(|| "not conducted".to_string()),
            fmt_score(paper::efd_figure2(kind)),
            lookup(kind, "Taxonomist"),
            lookup(kind, "EFD"),
        ]);
    }
    t
}

/// Table 3: paper's excerpt vs our measured per-metric F-scores.
pub fn render_table3(scores: &[MetricScore]) -> TextTable {
    let mut t = TextTable::new(vec![
        "System Metric Name",
        "F-score (paper)",
        "F-score (ours)",
        "rank (ours)",
    ])
    .with_title("Table 3: Excerpt of Individual System Metric Results (normal fold)")
    .with_aligns(vec![Align::Left, Align::Right, Align::Right, Align::Right]);
    for (name, paper_f1) in paper::TABLE3 {
        let (ours, rank) = scores
            .iter()
            .position(|s| s.name == name)
            .map(|i| (fmt_score(scores[i].f1), (i + 1).to_string()))
            .unwrap_or(("n/a".into(), "n/a".into()));
        t.add_row(vec![name.to_string(), fmt_score(paper_f1), ours, rank]);
    }
    t
}

/// Top-k measured metrics (the "…" the paper's excerpt elides).
pub fn render_table3_top(scores: &[MetricScore], k: usize) -> TextTable {
    let mut t = TextTable::new(vec!["rank", "System Metric Name", "F-score (ours)"])
        .with_title(format!("Top {k} metrics by measured normal-fold F-score"))
        .with_aligns(vec![Align::Right, Align::Left, Align::Right]);
    for (i, s) in scores.iter().take(k).enumerate() {
        t.add_row(vec![(i + 1).to_string(), s.name.clone(), fmt_score(s.f1)]);
    }
    t
}

/// Build the paper's Table 4 example dictionary: the Table 4 subset of
/// apps (ft, mg, sp, bt, lu, miniGhost, miniAMR) with inputs X/Y/Z, the
/// headline metric, fixed rounding depth 2.
pub fn build_table4_dictionary(dataset: &Dataset) -> EfdDictionary {
    let metric = dataset
        .catalog()
        .id(paper::HEADLINE_METRIC)
        .expect("headline metric in catalog");
    let selection = MetricSelection::single(metric);
    // Paper Table 4 order: ft, mg, sp (+bt merged), lu, miniGhost, miniAMR.
    let apps = [
        AppId::Ft,
        AppId::Mg,
        AppId::Sp,
        AppId::Bt,
        AppId::Lu,
        AppId::MiniGhost,
        AppId::MiniAmr,
    ];
    let mut dict = EfdDictionary::new(RoundingDepth::TABLE4);
    let labels = dataset.labels();
    for app in apps {
        for input in [InputSize::X, InputSize::Y, InputSize::Z] {
            for (i, run) in dataset.runs().iter().enumerate() {
                if run.app != app || run.input != input {
                    continue;
                }
                let means = dataset.window_means(i, &selection, Interval::PAPER_DEFAULT);
                let node_means: Vec<f64> = means.iter().map(|m| m[0]).collect();
                dict.learn(&LabeledObservation {
                    label: labels[i].clone(),
                    query: Query::from_node_means(metric, Interval::PAPER_DEFAULT, &node_means),
                });
            }
        }
    }
    dict
}

/// Render Table 4 from the dataset (builds the example dictionary).
pub fn render_table4(dataset: &Dataset) -> TextTable {
    build_table4_dictionary(dataset).render_table4(dataset.catalog())
}

/// Render a confusion matrix as a compact table (rows = truth, columns =
/// predictions; zero cells blank).
pub fn render_confusion(report: &efd_ml::ClassificationReport) -> TextTable {
    let mut headers = vec!["truth \\ pred".to_string()];
    headers.extend(report.classes.iter().cloned());
    let mut t = TextTable::new(headers).with_title("Confusion matrix");
    for (r, class) in report.classes.iter().enumerate() {
        let mut row = vec![class.clone()];
        for c in 0..report.classes.len() {
            let n = report.confusion[r][c];
            row.push(if n == 0 { String::new() } else { n.to_string() });
        }
        t.add_row(row);
    }
    t
}

/// The most-confused application pairs (off-diagonal mass, both
/// directions summed), descending — on this dataset the SP/BT twins top
/// the list, as the paper's §5 discussion predicts.
pub fn confused_pairs(report: &efd_ml::ClassificationReport) -> Vec<(String, String, usize)> {
    let k = report.classes.len();
    let mut pairs = Vec::new();
    for a in 0..k {
        for b in (a + 1)..k {
            let n = report.confusion[a][b] + report.confusion[b][a];
            if n > 0 {
                pairs.push((report.classes[a].clone(), report.classes[b].clone(), n));
            }
        }
    }
    pairs.sort_by(|x, y| y.2.cmp(&x.2).then(x.0.cmp(&y.0)));
    pairs
}

/// Generate EXPERIMENTS.md content from measured results.
pub fn experiments_markdown(
    figure2: &[ExperimentResult],
    table3: &[MetricScore],
    dataset: &Dataset,
) -> String {
    let mut md = String::new();
    md.push_str("# EXPERIMENTS — paper vs measured\n\n");
    md.push_str(
        "Reproduction of *An Execution Fingerprint Dictionary for HPC \
         Application Recognition* (CLUSTER 2021) on the synthetic \
         Taxonomist-style dataset (see DESIGN.md §2 for the substitution). \
         Regenerate any artifact with the bench named in its section.\n\n",
    );

    md.push_str("## Table 1 — rounding depth (`cargo bench -p efd-bench --bench table1`)\n\n");
    md.push_str(&render_table1().render_markdown());
    md.push_str("\nOur implementation reproduces every cell exactly (unit + property tests in `efd-core::rounding`).\n\n");

    md.push_str("## Table 2 — dataset (`cargo bench -p efd-bench --bench table2`)\n\n");
    md.push_str(&dataset.table2().render_markdown());
    md.push('\n');

    md.push_str(
        "## Figure 2 — the five experiments (`cargo bench -p efd-bench --bench figure2`)\n\n",
    );
    md.push_str(&render_figure2(figure2).render_markdown());
    md.push_str(
        "\nPaper bars are digitized (±0.02). Shape criteria: normal fold ≈ 1.0; \
         soft experiments ≥ 0.9; hard experiments clearly lower (the paper's \
         \"room for improvement\"); EFD comparable to Taxonomist while using \
         1/562 of the metrics and only the first two minutes.\n\n",
    );

    md.push_str("## Table 3 — per-metric F-scores (`cargo bench -p efd-bench --bench table3`)\n\n");
    md.push_str(&render_table3(table3).render_markdown());
    md.push('\n');
    md.push_str(&render_table3_top(table3, 15).render_markdown());
    md.push('\n');

    md.push_str("## Table 4 — example dictionary (`cargo bench -p efd-bench --bench table4`)\n\n");
    md.push_str("Built from the Table 4 subset (ft, mg, sp, bt, lu, miniGhost, miniAMR × X/Y/Z) at fixed depth 2:\n\n");
    md.push_str(&render_table4(dataset).render_markdown());
    md.push_str(
        "\nExpected structure (paper §5): SP and BT share every key (collision, \
         resolved at depth 3); miniAMR's fingerprints differ per input size; \
         the other apps repeat across inputs.\n",
    );
    md
}

#[cfg(test)]
mod tests {
    use super::*;
    use efd_telemetry::catalog::small_catalog;
    use efd_workload::DatasetSpec;

    fn dataset() -> Dataset {
        Dataset::with_catalog(DatasetSpec::default(), small_catalog())
    }

    #[test]
    fn table1_renders_paper_cells() {
        let s = render_table1().render();
        assert!(s.contains("1360"), "{s}");
        assert!(s.contains("0.04"), "{s}");
        assert!(s.contains('-'), "{s}");
    }

    #[test]
    fn figure2_renders_all_rows() {
        let results = vec![ExperimentResult {
            kind: ExperimentKind::NormalFold,
            classifier: "EFD".into(),
            mean_f1: 0.99,
            per_variant: vec![("fold 1".into(), 0.99)],
        }];
        let s = render_figure2(&results).render();
        assert!(s.contains("normal fold"));
        assert!(s.contains("hard unknown"));
        assert!(s.contains("not conducted"));
        assert!(s.contains("0.99"));
        assert!(s.contains("n/a")); // Taxonomist(ours) missing
    }

    #[test]
    fn table4_shows_collision_and_input_dependence() {
        let d = dataset();
        let dict = build_table4_dictionary(&d);
        let rendered = dict.render_table4(d.catalog()).render();
        // SP/BT collision on shared keys:
        assert!(
            rendered.contains("sp X") && rendered.contains("bt X"),
            "{rendered}"
        );
        // miniAMR Z at a clearly different level than X:
        assert!(rendered.contains("miniAMR Z"), "{rendered}");
        let stats = dict.stats();
        assert!(stats.colliding_entries > 0, "expected SP/BT collisions");
    }

    #[test]
    fn confusion_rendering_and_pairs() {
        let truth = ["sp", "sp", "bt", "bt", "ft"];
        let pred = ["sp", "bt", "sp", "bt", "ft"];
        let rep = efd_ml::evaluate(&truth, &pred);
        let table = render_confusion(&rep).render();
        assert!(table.contains("truth \\ pred"));
        let pairs = confused_pairs(&rep);
        assert_eq!(pairs[0].2, 2);
        let (a, b) = (pairs[0].0.as_str(), pairs[0].1.as_str());
        assert!((a == "bt" && b == "sp") || (a == "sp" && b == "bt"));
        // ft never confused.
        assert!(pairs.iter().all(|(a, b, _)| a != "ft" && b != "ft"));
    }

    #[test]
    fn markdown_generation_smoke() {
        let d = dataset();
        let md = experiments_markdown(&[], &[], &d);
        assert!(md.contains("# EXPERIMENTS"));
        assert!(md.contains("Table 4"));
        assert!(md.contains("| normal fold |"));
    }
}
