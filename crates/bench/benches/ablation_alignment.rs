//! Ablation: Shazam-style temporal alignment (paper future work §6).
//!
//! Populates the dictionary with a whole tiling of windows
//! (`[0:60] … [180:240]`) and recognizes streams whose monitoring
//! *attached late* (offset of 1–2 windows). Plain lookups interpret local
//! window k as global window k and fail for shifted streams; the aligned
//! recognizer histograms offsets like Shazam and recovers them.

use efd_bench::{bench_dataset, headline_metric};
use efd_core::align::{query_from_windows, AlignedRecognizer};
use efd_core::observation::{LabeledObservation, ObsPoint, Query};
use efd_core::rounding::RoundingDepth;
use efd_core::EfdDictionary;
use efd_telemetry::trace::MetricSelection;
use efd_telemetry::{Interval, NodeId};
use efd_util::table::TextTable;
use efd_util::Align as ColAlign;
use efd_workload::splits::stratified_k_fold;

fn main() {
    let dataset = bench_dataset();
    let metric = headline_metric(&dataset);
    let sel = MetricSelection::single(metric);
    let tiling = Interval::tiling(60, 240); // 4 windows
    let labels = dataset.labels();

    // Per-run, per-node means for every tiling window:
    // window_means[w][run][node].
    let window_means: Vec<Vec<Vec<f64>>> = tiling
        .iter()
        .map(|&w| {
            dataset
                .window_means_all(&sel, w)
                .into_iter()
                .map(|per_node| per_node.into_iter().map(|m| m[0]).collect())
                .collect()
        })
        .collect();

    let folds = stratified_k_fold(&labels, 5, 0xA11);
    let fold = &folds[0];

    // Learn all tiling windows of the training runs.
    let mut dict = EfdDictionary::new(RoundingDepth::new(3));
    for &i in &fold.train {
        let mut q = Query::default();
        for (wi, &w) in tiling.iter().enumerate() {
            for (n, &mean) in window_means[wi][i].iter().enumerate() {
                q.points.push(ObsPoint {
                    metric,
                    node: NodeId(n as u16),
                    interval: w,
                    mean,
                });
            }
        }
        dict.learn(&LabeledObservation {
            label: labels[i].clone(),
            query: q,
        });
    }
    let aligned = AlignedRecognizer::new(&dict, tiling.clone());

    let mut table = TextTable::new(vec![
        "attach offset",
        "plain accuracy",
        "aligned accuracy",
        "offset recovered",
    ])
    .with_title("Ablation: temporal alignment under late monitoring attachment")
    .with_aligns(vec![
        ColAlign::Left,
        ColAlign::Right,
        ColAlign::Right,
        ColAlign::Right,
    ]);

    for offset in 0..3usize {
        let observable = tiling.len() - offset; // windows we get to see
        let mut plain_ok = 0usize;
        let mut aligned_ok = 0usize;
        let mut offset_ok = 0usize;
        for &i in &fold.test {
            // The stream we observe: global windows offset.. presented as
            // local windows 0.., per node.
            let mut q = Query::default();
            for (n, _) in window_means[0][i].iter().enumerate() {
                let means: Vec<f64> = (0..observable)
                    .map(|k| window_means[k + offset][i][n])
                    .collect();
                let nq = query_from_windows(metric, NodeId(n as u16), &tiling, &means);
                q.points.extend(nq.points);
            }
            let truth = labels[i].app.as_str();
            if dict.recognize(&q).best() == Some(truth) {
                plain_ok += 1;
            }
            if let Some(m) = aligned.recognize(&q).first() {
                if m.app == truth {
                    aligned_ok += 1;
                    if m.offset_windows == offset as i32 {
                        offset_ok += 1;
                    }
                }
            }
        }
        let n = fold.test.len() as f64;
        table.add_row(vec![
            format!("{offset} windows ({}s)", offset * 60),
            format!("{:.2}", plain_ok as f64 / n),
            format!("{:.2}", aligned_ok as f64 / n),
            format!("{:.2}", offset_ok as f64 / n),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Expected shape: at offset 0 both are equivalent; with late\n\
         attachment the aligned recognizer keeps (most of) its accuracy\n\
         and recovers the true offset, while plain lookups degrade for\n\
         time-varying applications (miniAMR's ramp)."
    );
}
