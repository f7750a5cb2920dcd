//! CLI argument error paths: bad flag values must produce a one-line
//! `error: …` on stderr and a nonzero exit code — never a panic backtrace.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn efd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_efd"))
        .args(args)
        .output()
        .expect("spawn efd")
}

/// Asserts the invocation failed cleanly: nonzero exit, a single
/// `error: …` line on stderr, and no panic/backtrace spew. Returns the
/// output for further checks.
fn assert_clean_error(args: &[&str], expect_in_stderr: &str) -> Output {
    let out = efd(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "{args:?} unexpectedly succeeded; stderr: {stderr}"
    );
    assert!(
        !stderr.contains("panicked") && !stderr.contains("RUST_BACKTRACE"),
        "{args:?} panicked instead of erroring:\n{stderr}"
    );
    let error_lines: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("error: "))
        .collect();
    assert_eq!(
        error_lines.len(),
        1,
        "{args:?}: expected exactly one error line, got:\n{stderr}"
    );
    assert!(
        error_lines[0].contains(expect_in_stderr),
        "{args:?}: error line {:?} does not mention {expect_in_stderr:?}",
        error_lines[0]
    );
    out
}

#[test]
fn unknown_backend_is_a_clean_error() {
    // --backend is validated before --load is touched; the retired
    // `sharded` and `efdb` names are unknown like any other.
    for name in ["bogus", "sharded", "efdb"] {
        let out = assert_clean_error(
            &["serve", "--load", "/nonexistent.efdb", "--backend", name],
            "--backend",
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("(snapshot|combo|knn|gaussian-nb|forest)"),
            "{stderr}"
        );
    }
}

#[test]
fn backend_with_wal_or_manifest_is_a_clean_error() {
    // --backend picks how a --load dictionary is served; a WAL or a
    // manifest chooses its own, so naming one is an error, not a no-op —
    // rejected before the WAL directory, manifest or socket is touched.
    let wal = std::env::temp_dir().join(format!("efd-exit-codes-no-wal-{}", std::process::id()));
    let wal = wal.to_str().unwrap();
    for mode in [
        &["--wal", wal][..],
        &["--manifest", "/nonexistent/stack.json"][..],
    ] {
        for listen in [&[][..], &["--listen", "127.0.0.1:0"][..]] {
            for backend in ["bogus", "sharded"] {
                let mut args = vec!["serve"];
                args.extend_from_slice(mode);
                args.extend_from_slice(listen);
                args.extend_from_slice(&["--backend", backend]);
                assert_clean_error(&args, "--backend");
            }
        }
    }
    assert!(
        !std::path::Path::new(wal).exists(),
        "the WAL directory was created"
    );
}

#[test]
fn unknown_format_is_a_clean_error() {
    assert_clean_error(
        &[
            "dump",
            "--out",
            "/tmp/efd-exit-code-test.bin",
            "--format",
            "bogus",
        ],
        "--format",
    );
}

#[test]
fn missing_load_file_is_a_clean_error() {
    assert_clean_error(
        &["serve", "--load", "/nonexistent/efd.dump"],
        "/nonexistent",
    );
}

#[test]
fn missing_load_file_names_the_path_and_the_os_error() {
    let dir = wal_fixture_dir("missing-load");
    let path = dir.join("missing.efdb");
    let path = path.to_str().unwrap();
    assert_clean_error(
        &["serve", "--load", path],
        &format!("{path}: No such file or directory"),
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn scenario_without_out_is_a_clean_error_and_writes_nothing() {
    // Run where a default output file would land: the directory must
    // stay empty.
    let dir = wal_fixture_dir("scenario-no-out");
    let args = [
        "evaluate",
        "--scenario",
        "metric-dropout",
        "--backend",
        "dict",
        "--intensity",
        "0",
    ];
    let out = Command::new(env!("CARGO_BIN_EXE_efd"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn efd");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(
        stderr.starts_with("error: ") && stderr.contains("--out"),
        "{stderr}"
    );
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(left.is_empty(), "{args:?} wrote {left:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn serve_without_load_is_a_clean_error() {
    assert_clean_error(&["serve"], "--load");
}

#[test]
fn unknown_command_is_a_clean_error() {
    assert_clean_error(&["frobnicate"], "frobnicate");
}

#[test]
fn unknown_experiment_is_a_clean_error() {
    assert_clean_error(&["evaluate", "--experiment", "bogus"], "bogus");
}

#[test]
fn unknown_classifier_is_a_clean_error() {
    assert_clean_error(
        &[
            "evaluate",
            "--experiment",
            "normal-fold",
            "--classifier",
            "bogus",
        ],
        "classifier",
    );
}

#[test]
fn flag_without_value_is_a_clean_error() {
    assert_clean_error(&["serve", "--load"], "needs a value");
}

#[test]
fn bad_numeric_flag_is_a_clean_error() {
    assert_clean_error(
        &["serve", "--load", "/nonexistent.efdb", "--repeat", "many"],
        "--repeat",
    );
}

/// A scratch directory for WAL fixtures, fresh per test.
fn wal_fixture_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("efd-exit-codes-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn truncated_efdb_load_reports_the_byte_count() {
    // A structurally broken EFDB file must fail with the decode error
    // AND the file's size, so the user can tell truncation from schema
    // drift at a glance.
    let dir = wal_fixture_dir("truncated-efdb");
    let path = dir.join("torn.efdb");
    std::fs::write(&path, b"EFDB\x01\x00").unwrap();
    assert_clean_error(
        &["serve", "--load", path.to_str().unwrap()],
        "file is 6 bytes",
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn garbage_after_efdb_magic_is_a_clean_error() {
    // Right magic, garbage body: the EFDB decode path (chosen by magic
    // sniffing, not extension) must surface the structured decode error
    // with the file size appended.
    let dir = wal_fixture_dir("bad-body");
    let path = dir.join("garbage.efdb");
    let mut bytes = b"EFDB".to_vec();
    bytes.extend_from_slice(&[0xEEu8; 64]);
    std::fs::write(&path, &bytes).unwrap();
    assert_clean_error(
        &["serve", "--load", path.to_str().unwrap()],
        "file is 68 bytes",
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn ingest_csv_of_a_malformed_node_file_is_a_format_error() {
    // A non-numeric cell: the CSV reader's format error reaches the user
    // with the file name, as `efd ingest-csv` has always printed it.
    let dir = wal_fixture_dir("bad-csv");
    std::fs::write(
        dir.join("run0000_node0.csv"),
        "# app: ft\n# input: X\n#Time,nr_mapped_vmstat\n0,6020.5\n1,abc\n",
    )
    .unwrap();
    let out = assert_clean_error(
        &[
            "ingest-csv",
            "--dir",
            dir.to_str().unwrap(),
            "--run",
            "run0000",
        ],
        "run0000_node0.csv: format error: bad value \"abc\" at line 5",
    );
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compact_without_wal_flag_is_a_clean_error() {
    assert_clean_error(&["compact"], "--wal");
}

#[test]
fn wal_verify_on_a_missing_directory_is_a_clean_error() {
    assert_clean_error(&["wal-verify", "--wal", "/nonexistent-wal-dir"], "wal.log");
}

#[test]
fn serve_wal_conflicts_with_load() {
    assert_clean_error(
        &["serve", "--wal", "/tmp/x", "--load", "/tmp/y.efdb"],
        "mutually exclusive",
    );
}

#[test]
fn wal_verify_strict_fails_on_a_corrupt_log_tail() {
    use efd_core::wal::{encode_log, WalRecord};
    use efd_core::RoundingDepth;

    let dir = wal_fixture_dir("strict-corrupt");
    let mut bytes = encode_log(
        RoundingDepth::new(2),
        0,
        &[
            WalRecord::ForgetApp { app: "a".into() },
            WalRecord::ForgetApp { app: "b".into() },
        ],
    );
    // Flip a byte in the LAST record's payload: record #0 stays valid,
    // the tail fault is a corrupt record.
    let n = bytes.len();
    bytes[n - 1] ^= 0x20;
    std::fs::write(dir.join("wal.log"), &bytes).unwrap();

    // Non-strict: the audit tolerates the tail fault (exit zero)...
    let out = efd(&["wal-verify", "--wal", dir.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "non-strict audit must tolerate: {stdout}"
    );
    assert!(stdout.contains("corrupt record"), "{stdout}");

    // ...strict mode turns the same fault into a nonzero exit.
    assert_clean_error(
        &[
            "wal-verify",
            "--wal",
            dir.to_str().unwrap(),
            "--strict",
            "true",
        ],
        "corrupt record",
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn serve_wal_with_a_missing_segment_is_a_clean_error() {
    use efd_core::wal::encode_log;
    use efd_core::RoundingDepth;

    let dir = wal_fixture_dir("missing-segment");
    // A log whose header demands segment 1, with no segment on disk:
    // recovery must refuse rather than serve a partial dictionary.
    std::fs::write(
        dir.join("wal.log"),
        encode_log(RoundingDepth::new(2), 1, &[]),
    )
    .unwrap();
    assert_clean_error(
        &["serve", "--wal", dir.to_str().unwrap()],
        "requires segment 1",
    );
    assert_clean_error(
        &["wal-verify", "--wal", dir.to_str().unwrap()],
        "requires segment 1",
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A tiny synthetic EFDB dictionary on disk (for daemon-flag tests
/// that must get past engine loading to the bind step).
fn synth_dict(dir: &std::path::Path) -> std::path::PathBuf {
    let path = dir.join("synth.efdb");
    let out = efd(&[
        "dump",
        "--out",
        path.to_str().unwrap(),
        "--synth-keys",
        "64",
    ]);
    assert!(
        out.status.success(),
        "dump --synth-keys failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    path
}

#[test]
fn listen_on_a_malformed_address_is_a_clean_error() {
    let dir = wal_fixture_dir("bad-addr");
    let dict = synth_dict(&dir);
    assert_clean_error(
        &[
            "serve",
            "--listen",
            "not-an-address",
            "--load",
            dict.to_str().unwrap(),
        ],
        "bind not-an-address",
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn listen_on_a_port_already_in_use_is_a_clean_error() {
    let dir = wal_fixture_dir("port-in-use");
    let dict = synth_dict(&dir);
    // Hold the port ourselves; the daemon must refuse it cleanly.
    let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = taken.local_addr().unwrap().to_string();
    assert_clean_error(
        &["serve", "--listen", &addr, "--load", dict.to_str().unwrap()],
        "bind",
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An address nothing listens on (bound ephemeral, then released).
fn dead_addr() -> String {
    let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    l.local_addr().unwrap().to_string()
}

#[test]
fn loadgen_against_a_dead_daemon_is_a_clean_error() {
    assert_clean_error(
        &[
            "loadgen",
            "--addr",
            &dead_addr(),
            "--duration",
            "0.2",
            "--ping",
            "true",
        ],
        "connect",
    );
}

#[test]
fn loadgen_without_addr_is_a_clean_error() {
    assert_clean_error(&["loadgen"], "--addr");
}

#[test]
fn ctl_against_a_dead_daemon_is_a_clean_error() {
    let addr = dead_addr();
    assert_clean_error(&["ctl", "ping", "--addr", &addr], &addr);
}

#[test]
fn ctl_unknown_action_is_a_clean_error() {
    // The action is rejected after connecting, so park a listener that
    // accepts but never speaks.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    assert_clean_error(&["ctl", "bogus", "--addr", &addr], "unknown ctl action");
}

#[test]
fn diff_without_operands_is_a_clean_error() {
    assert_clean_error(&["diff"], "two artifacts");
    assert_clean_error(&["diff", "only-one.efdb"], "two artifacts");
}

#[test]
fn diff_unknown_format_is_a_clean_error() {
    // The format is validated before either side is loaded.
    assert_clean_error(
        &[
            "diff",
            "/nonexistent/a.efdb",
            "/nonexistent/b.efdb",
            "--format",
            "bogus",
        ],
        "--format",
    );
}

#[test]
fn diff_missing_file_is_exit_1_not_3() {
    // The exit-code contract: 3 is reserved for "loaded both sides and
    // they differ"; a load failure is an ordinary error (1).
    let out = efd(&["diff", "/nonexistent/a.efdb", "/nonexistent/b.efdb"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("/nonexistent"));
}

#[test]
fn catalog_without_action_is_a_clean_error() {
    assert_clean_error(&["catalog"], "publish|list|show|rollback");
}

#[test]
fn catalog_unknown_action_is_a_clean_error() {
    assert_clean_error(
        &["catalog", "frobnicate", "--dir", "/tmp"],
        "unknown catalog action",
    );
}

#[test]
fn catalog_publish_without_required_flags_is_a_clean_error() {
    assert_clean_error(&["catalog", "publish"], "--dir");
    assert_clean_error(
        &["catalog", "publish", "--dir", "/tmp/efd-no-such-catalog"],
        "--name",
    );
    assert_clean_error(
        &[
            "catalog",
            "publish",
            "--dir",
            "/tmp/efd-no-such-catalog",
            "--name",
            "x",
        ],
        "--from",
    );
}

#[test]
fn catalog_show_rejects_an_invalid_reference() {
    assert_clean_error(
        &[
            "catalog",
            "show",
            "not a ref!",
            "--dir",
            "/tmp/efd-no-such-catalog",
        ],
        "invalid catalog reference",
    );
}

#[test]
fn serve_catalog_ref_without_catalog_dir_is_a_clean_error() {
    // `name@vN` only resolves through a catalog; without --catalog the
    // error must say which flag is missing, not "file not found".
    assert_clean_error(&["serve", "--load", "hpc-apps@v1"], "--catalog");
}

#[test]
fn a_tampered_catalog_artifact_is_refused_in_batch_and_daemon_mode() {
    // Publish a tiny dictionary, then flip one byte of the artifact file:
    // `serve --load name@latest` must refuse it before serving anything,
    // batch and daemon alike, with the digest mismatch as the reason.
    let dir = wal_fixture_dir("tampered-artifact");
    let catalog_dir = dir.join("catalog");
    let catalog = catalog_dir.to_str().unwrap();
    let dict = synth_dict(&dir);
    let out = efd(&[
        "catalog",
        "publish",
        "--dir",
        catalog,
        "--name",
        "tiny",
        "--from",
        dict.to_str().unwrap(),
        "--baseline",
        "none",
    ]);
    assert!(
        out.status.success(),
        "publish: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let published = efd_catalog::Catalog::open(&catalog_dir).unwrap();
    let file = catalog_dir.join(&published.latest("tiny").unwrap().file);
    let mut bytes = std::fs::read(&file).unwrap();
    *bytes.last_mut().unwrap() ^= 0x01;
    std::fs::write(&file, bytes).unwrap();

    for listen in [&[][..], &["--listen", "127.0.0.1:0"][..]] {
        let mut args = vec!["serve", "--load", "tiny@latest", "--catalog", catalog];
        args.extend_from_slice(listen);
        let out = assert_clean_error(&args, "does not match index");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("digest"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn serve_manifest_conflicts_with_load_and_wal() {
    assert_clean_error(
        &[
            "serve",
            "--manifest",
            "/tmp/m.json",
            "--load",
            "/tmp/x.efdb",
        ],
        "mutually exclusive",
    );
    assert_clean_error(
        &[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--manifest",
            "/tmp/m.json",
            "--wal",
            "/tmp/w",
        ],
        "mutually exclusive",
    );
}

#[test]
fn serve_missing_manifest_file_is_a_clean_error() {
    assert_clean_error(
        &["serve", "--manifest", "/nonexistent/stack.json"],
        "/nonexistent",
    );
}

#[test]
fn help_exits_zero() {
    let out = efd(&["help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("--backend snapshot|combo|knn|gaussian-nb|forest]"),
        "{stdout}"
    );
}

/// The EFDB golden fixture (a 2-app dictionary).
const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../core/tests/fixtures/two_apps.efdb"
);

/// Run `efd` to completion, or kill it and panic if it is still running
/// after 20 s (a daemon that got past its checks serves forever).
fn efd_within_20s(args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_efd"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn efd");
    let deadline = Instant::now() + Duration::from_secs(20);
    while child.try_wait().expect("poll efd").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{args:?} was still running after 20 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect efd output")
}

#[test]
fn undeclared_flag_is_a_clean_error() {
    // A misspelt or retired flag is refused before the command reads a
    // file, writes one or binds a socket: nothing reaches stdout, and
    // the one error line names the flag and the command.
    let dir = wal_fixture_dir("undeclared-flag");
    let dump = dir.join("dict.json");
    let dump = dump.to_str().unwrap();
    let dead = dead_addr();
    let cases: [&[&str]; 5] = [
        &["serve", "--load", FIXTURE, "--backnd", "combo"],
        &["serve", "--load", FIXTURE, "--shards", "8"],
        &[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--load",
            FIXTURE,
            "--shardz",
            "8",
        ],
        &["dump", "--out", dump, "--fromat", "json"],
        &["ctl", "ping", "--addr", &dead, "--seed", "1"],
    ];
    for args in cases {
        let out = efd_within_20s(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "{args:?} succeeded; stderr: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{args:?} printed to stdout: {stderr}"
        );
        let errors: Vec<&str> = stderr
            .lines()
            .filter(|l| l.starts_with("error: "))
            .collect();
        let flag = args[args.len() - 2];
        let command = format!("efd {}", args[0]);
        assert!(
            errors.len() == 1 && errors[0].contains(flag) && errors[0].contains(&command),
            "{args:?}: expected one error line naming {flag} and `{command}`, got:\n{stderr}"
        );
    }
    assert!(!std::path::Path::new(dump).exists(), "dump wrote its file");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn serve_listen_accepts_workers_and_answers_ping() {
    // perfbench starts every daemon with `--workers N` and reads its
    // address as the first token after `listening:`.
    let dir = wal_fixture_dir("workers");
    let dict = synth_dict(&dir);
    let mut child = Command::new(env!("CARGO_BIN_EXE_efd"))
        .args(["serve", "--listen", "127.0.0.1:0", "--load"])
        .args([dict.to_str().unwrap(), "--workers", "2"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    // Keep reading stdout until the daemon exits: it prints as it shuts down.
    let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut lines = stdout.lines().map(|l| l.expect("daemon stdout"));
    let listening = lines.find_map(|l| Some(l.strip_prefix("listening:")?.to_string()));
    let Some(addr) = listening
        .as_deref()
        .and_then(|l| l.split_whitespace().next())
    else {
        let _ = child.kill();
        panic!("daemon exited before listening");
    };
    let ping = efd(&["ctl", "ping", "--addr", addr]);
    let shutdown = efd(&["ctl", "shutdown", "--addr", addr]);
    if !shutdown.status.success() {
        let _ = child.kill();
    }
    lines.for_each(drop);
    let status = child.wait().expect("daemon exit");
    assert!(ping.status.success(), "ping: {ping:?}");
    assert_eq!(String::from_utf8_lossy(&ping.stdout).trim(), "PONG");
    assert!(
        shutdown.status.success() && status.success(),
        "{shutdown:?} {status:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
