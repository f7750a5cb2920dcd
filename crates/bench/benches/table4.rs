//! Regenerates the paper's Table 4: the example EFD over
//! `nr_mapped_vmstat` at fixed rounding depth 2, built from the Table 4
//! subset of applications. The printed dictionary must show the SP/BT key
//! collision and miniAMR's input-dependent fingerprints.

use efd_bench::{bench_dataset, timed};
use efd_eval::report::build_table4_dictionary;

fn main() {
    let dataset = bench_dataset();
    let dict = timed("build example dictionary", || {
        build_table4_dictionary(&dataset)
    });
    println!("{}", dict.render_table4(dataset.catalog()).render());

    let stats = dict.stats();
    println!(
        "entries: {}   labels: {}   apps: {}   exclusive: {}   colliding: {}   (max {} apps/key)",
        stats.entries,
        stats.labels,
        stats.apps,
        stats.exclusive_entries,
        stats.colliding_entries,
        stats.max_apps_per_entry
    );
    let mut amr_means: Vec<f64> = dict
        .entries()
        .filter(|(_, labels)| labels.iter().any(|l| l.app == "miniAMR"))
        .map(|(fp, _)| fp.mean())
        .collect();
    amr_means.sort_by(|a, b| a.partial_cmp(b).unwrap());
    amr_means.dedup();
    println!(
        "\nPaper §5 structure checks:\n\
         - SP/BT collide at depth 2: {}\n\
         - miniAMR spans multiple mean levels across inputs: {} ({} levels)",
        if stats.colliding_entries > 0 {
            "YES"
        } else {
            "NO (!)"
        },
        if amr_means.len() >= 3 {
            "YES"
        } else {
            "NO (!)"
        },
        amr_means.len()
    );
}
