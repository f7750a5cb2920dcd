//! `efd` — command-line front end for the Execution Fingerprint Dictionary.
//! `efd help` lists the commands; `COMMANDS` declares each one's flags.

mod catalog;
mod data;
mod ops;
mod paper;
mod serve;

use std::path::Path;
use std::process::ExitCode;

use efd_serve::DictSource;
use efd_workload::{Dataset, DatasetSpec, SubsetKind};

/// The flags and operands after the subcommand: `--key value` pairs,
/// each one declared by the command, and positional operands.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
    declared: &'static str,
}

impl Args {
    /// Split `raw` into `--key value` pairs and operands, refusing any
    /// flag `command` does not declare.
    fn parse(raw: &[String], command: &Command) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if !command.declares(key) {
                    return Err(format!(
                        "unknown flag --{key} for `efd {}`; see `efd help`",
                        command.name
                    ));
                }
                let value = it
                    .next()
                    .ok_or_else(|| format!("flag --{key} needs a value"))?;
                flags.push((key.to_string(), value.clone()));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Self {
            positional,
            flags,
            declared: command.flags,
        })
    }

    fn flag(&self, key: &str) -> Option<&str> {
        debug_assert!(
            self.declared.split_whitespace().any(|f| f == key),
            "--{key} is read but not declared in COMMANDS"
        );
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn flag_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.flag(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value {v:?} for --{key}")),
        }
    }
}

/// One `efd` command: its name, the flags its code reads (space
/// separated), and its entry point, whose `Ok` is the exit code.
struct Command {
    name: &'static str,
    flags: &'static str,
    run: Run,
}

impl Command {
    fn declares(&self, key: &str) -> bool {
        self.flags.split_whitespace().any(|f| f == key)
    }
}

type Run = fn(&Args) -> Result<ExitCode, String>;

const fn cmd(name: &'static str, flags: &'static str, run: Run) -> Command {
    Command { name, flags, run }
}

fn done(result: Result<(), String>) -> Result<ExitCode, String> {
    result.map(|()| ExitCode::SUCCESS)
}

/// Every command with exactly the flags its code reads, in `HELP`'s
/// order. `--subset` and `--seed` belong to the commands that build the
/// dataset, `--trees` to those that train the Taxonomist forest.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    cmd("table", "top subset seed", |a| done(paper::table(a))),
    cmd("figure2", "trees subset seed", |a| done(paper::figure2(a))),
    cmd("evaluate", "experiment classifier trees scenario backend intensity out subset seed",
        |a| done(paper::evaluate(a))),
    cmd("screen", "top subset seed", |a| done(paper::screen(a))),
    cmd("recognize", "run subset seed", |a| done(paper::recognize(a))),
    cmd("generate", "out count subset seed", |a| done(data::generate(a))),
    cmd("ingest-csv", "dir run subset seed", |a| done(data::ingest_csv(a))),
    cmd("dump", "out format synth-keys subset seed", |a| done(data::dump(a))),
    cmd("convert", "in out format subset seed", |a| done(data::convert(a))),
    // `--workers` is accepted and ignored. Its only reason to exist is
    // perfbench's `daemon_args`, which passes it to every daemon it
    // starts until ROADMAP item 1 drops it there.
    cmd("serve", "load wal manifest backend catalog listen idle-timeout queries synth repeat \
                  learn depth wal-sync subset seed workers", |a| done(serve::serve(a))),
    cmd("catalog", "dir name from baseline baseline-queries subset seed",
        |a| done(catalog::catalog(a))),
    cmd("diff", "catalog format samples subset seed", catalog::diff),
    cmd("loadgen", "addr conns duration qps pipeline keyspace requests ping out subset seed",
        |a| done(ops::loadgen(a))),
    cmd("ctl", "addr path", |a| done(ops::ctl(a))),
    cmd("compact", "wal out subset seed", |a| done(ops::compact(a))),
    cmd("wal-verify", "wal strict subset seed", |a| done(ops::wal_verify(a))),
    cmd("report", "out trees subset seed", |a| done(paper::report(a))),
    cmd("help", "", |_| {
        print!("{HELP}");
        Ok(ExitCode::SUCCESS)
    }),
];

fn dataset_from(args: &Args) -> Result<Dataset, String> {
    let subset = match args.flag("subset") {
        None | Some("public") => SubsetKind::Public,
        Some("full") => SubsetKind::Full,
        Some(other) => return Err(format!("unknown --subset {other:?} (public|full)")),
    };
    let mut spec = DatasetSpec {
        subset,
        ..DatasetSpec::default()
    };
    if let Some(seed) = args.flag_parsed::<u64>("seed")? {
        spec.master_seed = seed;
    }
    Ok(Dataset::generate(spec))
}

fn headline(dataset: &Dataset) -> efd_telemetry::MetricId {
    dataset
        .catalog()
        .id(efd_eval::paper::HEADLINE_METRIC)
        .expect("headline metric present in catalog")
}

/// `synth_stream` seeds: queries (`serve --synth`, `loadgen`) and learns
/// (`serve --learn`, publish baselines). They differ, so learning keeps
/// adding fresh keys like a live cluster would.
const QUERY_JITTER: u64 = 0x5E21E;
const LEARN_JITTER: u64 = 0x1EA2;

/// Cycle the dataset's runs (headline metric, paper window) with a
/// ±0.2% deterministic jitter per node mean, drawn from `seed`: a
/// stream of repeated executions, as an always-on service would see.
fn synth_stream(d: &Dataset, count: usize, seed: u64) -> Vec<efd_core::LabeledObservation> {
    let metric = headline(d);
    let sel = efd_telemetry::trace::MetricSelection::single(metric);
    let per_run: Vec<Vec<f64>> = d
        .window_means_all(&sel, efd_telemetry::Interval::PAPER_DEFAULT)
        .into_iter()
        .map(|nodes| nodes.into_iter().map(|m| m[0]).collect())
        .collect();
    let labels = d.labels();
    let mut rng = efd_util::SplitMix64::new(seed);
    (0..count)
        .map(|i| {
            let run = i % per_run.len();
            let means: Vec<f64> = per_run[run]
                .iter()
                .map(|m| m * (1.0 + (rng.next_f64() - 0.5) * 0.004))
                .collect();
            efd_core::LabeledObservation {
                label: labels[run].clone(),
                query: efd_core::Query::from_node_means(
                    metric,
                    efd_telemetry::Interval::PAPER_DEFAULT,
                    &means,
                ),
            }
        })
        .collect()
}

/// Open a dictionary operand — a file, or a catalog ref resolved under
/// `catalog_dir` — and add its `provenance:` line to `report`. The one
/// load path of batch `serve`, the daemon's (re)loader, manifest stages
/// and `diff`.
fn open_dict(
    spec: &str,
    catalog_dir: Option<&Path>,
    report: &mut Vec<String>,
) -> Result<DictSource, String> {
    let src = DictSource::open(spec, catalog_dir)?;
    report.extend(src.provenance.as_ref().map(|p| format!("provenance: {p}")));
    Ok(src)
}

const HELP: &str = "\
efd — Execution Fingerprint Dictionary (CLUSTER 2021 reproduction)

USAGE: efd <command> [flags]

COMMANDS
  table <1|2|3|4>        regenerate a paper table [--top N]
  figure2                regenerate Figure 2 (all experiments, both systems)
  evaluate               one experiment: --experiment <kind>
                         [--classifier efd|taxonomist|knn|gaussian-nb]
                         or the adversarial & drift matrix: --scenario
                         <all|cryptomining-masquerade|metric-dropout|node-heterogeneity
                         |input-extrapolation|concept-drift> (comma lists ok)
                         [--backend all|dict|snapshot|combo|wal|forest|knn|gaussian-nb]
                         [--intensity X in [0,1], default grid 0..1 by .25]
                         [--seed <u64>] --out <path> (the matrix JSON; required);
                         --seed sets both the dataset master seed and the
                         perturbation seed
  screen                 rank all 562 metrics by normal-fold F-score [--top N]
  recognize              leave-one-out recognition demo: --run <idx>
  generate               export runs as LDMS-style CSVs: --out <dir> [--count N]
  ingest-csv             recognize a run from CSVs: --dir <path> --run <prefix>
  dump                   train on all runs, write the dictionary: --out <path>
                         [--format efdb|json] (default by extension; .efdb = binary,
                         see docs/FORMAT.md); [--synth-keys N] writes the synthetic
                         serving keyspace instead (pairs with `loadgen --keyspace N`)
  convert                convert a dump between JSON and EFDB: --in <a> --out <b>
                         [--format efdb|json]; verifies the output round-trips
  serve                  batch recognition service demo: --load <dump.json|dict.efdb>
                         [--backend snapshot|combo|knn|gaussian-nb|forest]
                         [--queries <csv|json>] [--synth N] [--repeat N]; every
                         backend takes EFDB or a JSON dump, and the ml ones
                         (knn with k = 3) train on the dictionary's entries
                         or durable: --wal <dir> [--learn N] [--wal-sync always|batch|none|<n>]
                         [--depth D] — write-ahead logged learning, recovery on restart
                         or daemon: --listen <addr> (e.g. 127.0.0.1:7070) — TCP frame
                         protocol + GET /metrics on one port, one thread per
                         connection; [--idle-timeout SECS]; hot reload on SIGHUP
                         or `efd ctl swap`
                         or stacked: --manifest <stack.json> — recognizer.v1 stack
                         of --backend names (exact = snapshot; exact -> combo -> ml
                         fallback, first confident verdict wins); works batch or
                         with --listen (hot-swappable); --backend applies to --load
                         only
                         --load also accepts a catalog ref (name@latest, name@vN)
                         with --catalog <dir>; its digest is checked on every load
  catalog                versioned artifact store: <publish|list|show|rollback>
                         --dir <dir>; publish: --name <n> --from <dump>
                         [--baseline auto|none] [--baseline-queries N (default 2000)]
                         show/rollback take a reference/name positionally
  diff                   structural dictionary diff: <A> <B> (files or catalog refs
                         with --catalog <dir>) [--format table|json] [--samples N];
                         exit 0 = semantically equal, 3 = different, 1 = error
  loadgen                drive a running daemon: --addr <host:port> [--conns N]
                         [--duration SECS] [--qps N] [--pipeline N] [--keyspace N]
                         [--requests N] [--ping true] [--out <json>]
  ctl                    one-shot daemon control: <ping|stats|status|swap|shutdown
                         |metrics> --addr <host:port> [--path <dict>]
  compact                merge a WAL directory into one canonical EFDB segment:
                         --wal <dir> [--out <path>]
  wal-verify             audit a WAL directory offline: --wal <dir> [--strict true]
  report                 write EXPERIMENTS.md content: [--out <path>]
  help                   this text

COMMON FLAGS
  --subset public|full   dataset variant (default: public, as in the paper)
  --seed <u64>           dataset master seed
  --trees <n>            Taxonomist forest size (default 100)
";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = raw.split_first() else {
        eprint!("{HELP}");
        return ExitCode::FAILURE;
    };
    let name = match name.as_str() {
        "--help" | "-h" => "help",
        other => other,
    };
    let result = match COMMANDS.iter().find(|c| c.name == name) {
        Some(command) => Args::parse(rest, command).and_then(|args| (command.run)(&args)),
        None => Err(format!("unknown command {name:?}; see `efd help`")),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `--flag` names in `text`, skipping backtick-quoted spans,
    /// which cite other commands.
    fn flags_in(text: &str) -> Vec<&str> {
        let unquoted = text.split('`').step_by(2);
        let tails = unquoted.flat_map(|t| t.split("--").skip(1));
        let name_end = |c: char| !c.is_ascii_lowercase() && c != '-';
        tails.map(|t| t.split(name_end).next().unwrap()).collect()
    }

    #[test]
    fn help_lists_exactly_the_declared_flags() {
        let (_, commands) = HELP.split_once("\nCOMMANDS\n").unwrap();
        let (commands, common) = commands.split_once("\nCOMMON FLAGS\n").unwrap();
        // An entry starts on a line indented by two spaces; deeper lines go on with it.
        let mut entries: Vec<String> = Vec::new();
        for line in commands.lines() {
            if !line.starts_with("   ") {
                entries.push(String::new());
            }
            entries.last_mut().unwrap().extend([line, "\n"]);
        }
        assert_eq!(entries.len(), COMMANDS.len());
        for (command, entry) in COMMANDS.iter().zip(&entries) {
            let (name, listed) = (command.name, flags_in(entry));
            assert!(entry.trim_start().starts_with(name), "{name}: {entry}");
            for flag in &listed {
                assert!(command.declares(flag), "HELP lists --{flag} under {name}");
            }
            for flag in command.flags.split_whitespace().filter(|&f| f != "workers") {
                let in_help = listed.contains(&flag) || flags_in(common).contains(&flag);
                assert!(in_help, "{name} declares --{flag}, which HELP omits");
            }
        }
    }
}
