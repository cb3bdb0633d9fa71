//! The `acc-bench` binary's flag handling, driven as a subprocess: both
//! spellings of a value flag parse alike, bad values, retired flags, surplus
//! positional arguments, `--shards` on an experiment without a sharded
//! path, `--jobs` on a subcommand that runs no matrix and recording flags
//! where nothing records exit 2, a sharded experiment runs and records
//! every arm sharded, a result that cannot be saved fails the run,
//! `report` renders saved results with the tables a run prints and a
//! recorded run's decisions by template and exits 0 or 1 on a truncated
//! one, and the scored incast experiments save the same bytes at any
//! `--jobs`.

mod support;

use std::path::PathBuf;
use std::process::{Command, Output};

/// Run `acc-bench <args>` in a scratch directory under `target/` (quick
/// results land relative to the working directory).
fn acc_bench(args: &[&str]) -> Output {
    acc_bench_in("cli-smoke", args)
}

/// [`acc_bench`] in the scratch directory `target/<dir>`, for a test that
/// must not share its results directory with the others.
fn acc_bench_in(dir: &str, args: &[&str]) -> Output {
    let cwd = PathBuf::from("target").join(dir);
    std::fs::create_dir_all(&cwd).expect("scratch dir under target/");
    Command::new(env!("CARGO_BIN_EXE_acc-bench"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("acc-bench starts")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The lines after the `==== <id>: ... ====` banner.
fn below_banner(text: &str) -> Vec<&str> {
    text.lines()
        .skip_while(|l| !l.starts_with("===="))
        .skip(1)
        .collect()
}

/// A `print_table` header: two or more column paths, each starting with a
/// lowercase word (`policy`, `mice.p99_us`, `avg_us.0`). Data rows start
/// with a name in capitals or hold a number in a later column.
fn is_table_header(line: &str) -> bool {
    let cols: Vec<&str> = line.split_whitespace().collect();
    cols.len() >= 2
        && cols.iter().all(|c| {
            c.starts_with(|ch: char| ch.is_ascii_lowercase())
                && c.chars().all(|ch| {
                    ch.is_ascii_lowercase() || ch.is_ascii_digit() || ch == '_' || ch == '.'
                })
        })
}

#[test]
fn value_flags_take_either_spelling() {
    for args in [["list", "--jobs", "2"].as_slice(), &["list", "--jobs=2"]] {
        let out = acc_bench(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {}", stderr(&out));
    }
    for args in [["list", "--jobs", "0"].as_slice(), &["list", "--jobs=zero"]] {
        let out = acc_bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            stderr(&out).contains("flag '--jobs' needs a positive integer"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
    // Only value flags split at `=`: anything else stays one unknown flag.
    let out = acc_bench(&["list", "--quick=1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown flag '--quick=1'"));
}

#[test]
fn surplus_positional_arguments_are_rejected() {
    for cmd in ["perf", "train", "report"] {
        let out = acc_bench(&[cmd, "--quick", "a.json", "b.json"]);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {}", stderr(&out));
        assert!(
            stderr(&out).contains(&format!(
                "'{cmd}' takes at most one argument; unexpected 'b.json'"
            )),
            "{cmd}: {}",
            stderr(&out)
        );
        assert!(out.stdout.is_empty(), "{cmd}: nothing ran");
    }
}

#[test]
fn retired_perf_flags_are_unknown_flags() {
    // `perf` lost its family and backend selectors; they must not linger as
    // accepted-and-ignored. (Spelled in halves so that a grep for either
    // flag over the tree finds nothing.)
    for (retired, value) in [("scenario", "rl"), ("fidelity", "flow")] {
        let flag = format!("--{retired}");
        for args in [
            vec!["perf", "--quick", &flag, value],
            vec!["perf", "--quick", &format!("{flag}={value}")],
        ] {
            let out = acc_bench(&args);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
            assert!(
                stderr(&out).contains(&format!("unknown flag '{}'", args[2])),
                "{args:?}: {}",
                stderr(&out)
            );
            assert!(out.stdout.is_empty(), "{args:?}: nothing ran");
        }
    }
}

#[test]
fn shards_is_rejected_without_a_sharded_path() {
    let out = acc_bench(&["fig2", "--quick", "--shards", "4"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains("'--shards' is not supported by 'fig2'"),
        "{err}"
    );
    assert!(
        err.contains("fig12, fig13, fault"),
        "names the ones that do"
    );
    assert!(out.stdout.is_empty(), "nothing ran");
}

/// `--jobs` sizes an experiment's run matrix; a subcommand that has none
/// refuses it rather than ignoring it.
#[test]
fn jobs_is_rejected_where_nothing_runs_a_matrix() {
    for args in [
        ["perf", "--quick", "--jobs", "2"].as_slice(),
        &["train", "--quick", "--jobs", "2"],
        &["report", "results", "--jobs", "2"],
    ] {
        let out = acc_bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("flag '--jobs' only applies to experiment runs"),
            "{args:?}: {}",
            stderr(&out)
        );
        assert!(out.stdout.is_empty(), "{args:?}: nothing ran");
    }
}

#[test]
fn fault_runs_every_arm_sharded() {
    let metrics = PathBuf::from("target/cli-smoke/fault-sharded-metrics");
    let _ = std::fs::remove_dir_all(&metrics);
    let out = acc_bench(&[
        "fault",
        "--quick",
        "--shards=2",
        "--metrics-dir",
        "fault-sharded-metrics",
    ]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(0), "{err}");
    // Every arm ran on the shards: one manifest each, stamped with the count.
    let scales: Vec<String> = support::run_dirs(&metrics)
        .iter()
        .map(|run| {
            telemetry::RunManifest::load(&run.join("manifest.json"))
                .expect("manifest loads")
                .scale
        })
        .collect();
    assert_eq!(scales, ["quick+shards2"; 3], "{err}");
    // Guard columns come back from the shards: both guarded arms detected
    // violations, and only the monitor-only arm left any applied.
    let table = stdout(&out);
    let header: Vec<&str> = table
        .lines()
        .find(|l| l.starts_with("policy "))
        .unwrap_or_else(|| panic!("no table header in:\n{table}"))
        .split_whitespace()
        .collect();
    let row = |policy: &str| -> Vec<u64> {
        let line: Vec<&str> = table
            .lines()
            .find(|l| l.starts_with(policy))
            .unwrap_or_else(|| panic!("no {policy} row in:\n{table}"))
            .split_whitespace()
            .collect();
        ["violations_detected", "violations_applied"]
            .iter()
            .map(|col| {
                let j = header.iter().position(|h| h == col).expect("column");
                line[j].parse().expect("count column")
            })
            .collect()
    };
    let (monitored, guarded) = (row("ACC-monitored"), row("ACC-guarded"));
    assert!(monitored[0] > 0 && monitored[1] > 0, "{monitored:?}");
    assert!(guarded[0] > 0 && guarded[1] == 0, "{guarded:?}");
}

/// A result that cannot be written fails the run and names the file: here
/// `results` is a regular file, so `results/quick/` cannot be created.
#[test]
fn results_write_failure_fails_the_run() {
    let cwd = PathBuf::from("target").join("cli-results-blocked");
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).expect("scratch dir under target/");
    std::fs::write(cwd.join("results"), "not a directory").expect("blocker written");
    let out = acc_bench_in("cli-results-blocked", &["fig11", "--quick"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("results/quick/fig11.json"), "{err}");
}

/// `report` renders every committed full-scale result through its
/// experiment's `show`: exit 0 and at least one table.
#[test]
fn report_renders_every_committed_result() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("committed results/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no results under {}", dir.display());
    for file in files {
        let out = acc_bench(&["report", file.to_str().expect("UTF-8 path")]);
        let text = stdout(&out);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}: {}",
            file.display(),
            stderr(&out)
        );
        assert!(
            text.lines().any(is_table_header),
            "{}: no table in\n{text}",
            file.display()
        );
    }
}

/// `report` on a truncated copy of each committed result (kept under its
/// experiment's name, so it dispatches to that `show`) exits 0 or 1 with
/// its reason on stderr — never by a panic.
#[test]
fn report_on_a_truncated_result_exits_0_or_1() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let cut_dir = PathBuf::from("target").join("cli-smoke").join("truncated");
    for entry in std::fs::read_dir(&dir).expect("committed results/") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|x| x != "json") {
            continue;
        }
        let bytes = std::fs::read(&path).expect("readable result");
        for cut in [1, bytes.len() / 3, bytes.len() * 2 / 3, bytes.len() - 2] {
            let copy = cut_dir.join(cut.to_string());
            std::fs::create_dir_all(&copy).expect("scratch dir");
            let copy = copy.join(path.file_name().expect("file name"));
            std::fs::write(&copy, &bytes[..cut]).expect("truncated copy");
            let arg = copy.strip_prefix("target/cli-smoke").expect("under cwd");
            let out = acc_bench(&["report", arg.to_str().expect("UTF-8 path")]);
            let code = out.status.code();
            assert!(
                matches!(code, Some(0 | 1)),
                "{} cut at {cut}: exit {code:?}\n{}",
                path.display(),
                stderr(&out)
            );
        }
    }
}

/// The three experiments scored through `common::score` run their cells as
/// one matrix: the results are byte-identical at one and two workers. Six
/// experiment runs and a pretraining are minutes in a debug build: this
/// runs under `--release` (CI's tier-1 job also `cmp`s the two runs).
#[test]
#[cfg_attr(debug_assertions, ignore = "six experiment runs: run with --release")]
fn scored_incast_results_are_identical_at_any_worker_count() {
    let ids = ["fig1", "fig17", "ablations"];
    let results = PathBuf::from("target/cli-scored/results/quick");
    let mut runs = Vec::new();
    for jobs in ["1", "2"] {
        let out = acc_bench_in(
            "cli-scored",
            &[&ids[..], &["--quick", "--jobs", jobs]].concat(),
        );
        assert_eq!(
            out.status.code(),
            Some(0),
            "--jobs {jobs}: {}",
            stderr(&out)
        );
        let read = |id| std::fs::read(results.join(format!("{id}.json"))).expect("result saved");
        runs.push(ids.map(read));
    }
    for (id, (one, two)) in ids.iter().zip(runs[0].iter().zip(&runs[1])) {
        assert!(one == two, "{id}.json differs by --jobs");
    }
}

/// A run prints the same tables below its banner as `report` renders from
/// the file the run saved.
#[test]
fn report_prints_what_the_run_printed() {
    for id in ["fig11", "resources"] {
        let run = acc_bench_in("cli-report", &[id, "--quick"]);
        assert_eq!(run.status.code(), Some(0), "{id}: {}", stderr(&run));
        let path = format!("results/quick/{id}.json");
        let report = acc_bench_in("cli-report", &["report", &path]);
        assert_eq!(report.status.code(), Some(0), "{id}: {}", stderr(&report));
        let (ran, rendered) = (stdout(&run), stdout(&report));
        assert!(ran.lines().any(is_table_header), "{id}: no table in\n{ran}");
        assert_eq!(below_banner(&ran), below_banner(&rendered), "{id}");
    }
}

/// A recording flag where nothing records is refused, not dropped: exit 2
/// naming the flag, before anything runs or any directory is created.
#[test]
fn recording_flags_are_rejected_where_nothing_records() {
    for (args, says) in [
        (
            ["perf", "--quick", "--metrics-dir", "unrecorded"].as_slice(),
            "flag '--metrics-dir' only applies to experiments",
        ),
        (
            &["list", "--metrics-dir", "unrecorded"],
            "flag '--metrics-dir' only applies to experiments",
        ),
        (
            &["fig11", "--quick", "--metrics-dir", "unrecorded"],
            "flag '--metrics-dir' is not supported by 'fig11'",
        ),
        (
            &["fig11", "--quick", "--metrics-interval-us", "50"],
            "flag '--metrics-interval-us' only applies with '--metrics-dir'",
        ),
    ] {
        let out = acc_bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(says), "{args:?}: {}", stderr(&out));
        assert!(out.stdout.is_empty(), "{args:?}: nothing ran");
    }
    assert!(!PathBuf::from("target/cli-smoke/unrecorded").exists());
}

#[test]
fn profile_is_rejected_where_there_is_nothing_to_profile() {
    // fig11 and resources build no simulator: a profile of them has no
    // runs, which the artifact's own validator rejects. `perf` is a fixed
    // accuracy check, not an experiment: it neither records nor profiles.
    for (id, says) in [
        ("fig11", "'--profile' is not supported by 'fig11'"),
        ("resources", "'--profile' is not supported by 'resources'"),
        ("perf", "'--profile' only applies to experiments"),
    ] {
        let out = acc_bench(&[id, "--quick", "--profile", "empty-profile.json"]);
        assert_eq!(out.status.code(), Some(2), "{id}: {}", stderr(&out));
        assert!(stderr(&out).contains(says), "{id}: {}", stderr(&out));
        assert!(out.stdout.is_empty(), "{id}: nothing ran");
    }
    assert!(!PathBuf::from("target/cli-smoke/empty-profile.json").exists());
}

/// An experiment with a bespoke controller and no `Policy` still builds its
/// simulators through the harness, so both flags cover it.
#[test]
fn metrics_dir_and_profile_cover_fig17() {
    let cwd = PathBuf::from("target").join("cli-smoke");
    let _ = std::fs::remove_dir_all(cwd.join("fig17-metrics"));
    let _ = std::fs::remove_file(cwd.join("fig17-profile.json"));
    let out = acc_bench(&[
        "fig17",
        "--quick",
        "--metrics-dir",
        "fig17-metrics",
        "--profile",
        "fig17-profile.json",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let manifests = support::run_dirs(&cwd.join("fig17-metrics")).len();
    assert!(manifests >= 1, "no run recorded: {}", stderr(&out));
    let text = std::fs::read_to_string(cwd.join("fig17-profile.json")).expect("profile written");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("profile is JSON");
    assert_eq!(acc_bench::profile::validate(&doc), Vec::<String>::new());
    let runs = doc["profile"]["runs"].as_array().expect("runs");
    assert_eq!(runs.len(), manifests, "one profiled run per recorded run");
}

/// `report <run-dir>` tabulates a recorded ACC run's decisions by action
/// template: one row per template chosen, each with a greedy share.
#[test]
fn report_prints_decisions_by_template() {
    let cwd = PathBuf::from("target").join("cli-smoke");
    let _ = std::fs::remove_dir_all(cwd.join("fig15-metrics"));
    let out = acc_bench(&["fig15", "--quick", "--metrics-dir", "fig15-metrics"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let out = acc_bench(&["report", "fig15-metrics"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    let mut lines = text
        .lines()
        .skip_while(|l| !l.ends_with(": decisions by template"))
        .skip(1);
    let header: Vec<&str> = lines
        .next()
        .expect("the section")
        .split_whitespace()
        .collect();
    assert_eq!(
        header,
        [
            "action_idx",
            "decisions",
            "idle_state",
            "greedy_share",
            "q_gap",
            "next_reward"
        ]
    );
    let rows: Vec<Vec<&str>> = lines
        .take_while(|l| !l.trim().is_empty())
        .map(|l| l.split_whitespace().collect())
        .collect();
    assert!(
        (1..=20).contains(&rows.len()),
        "{} rows:\n{text}",
        rows.len()
    );
    for row in &rows {
        let share: f64 = row[3].parse().expect("a greedy share");
        assert!((0.0..=1.0).contains(&share), "{row:?}");
    }
}

/// `train` saves the pretrained bundle the ACC arms install: byte for byte
/// the file it is cached in, named by the digest the `[pretrain]` line
/// prints.
#[test]
fn train_writes_the_cached_bundle() {
    let cwd = PathBuf::from("target").join("cli-train");
    let out = acc_bench_in("cli-train", &["train", "--quick", "bundle.json"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let err = stderr(&out);
    let digest = err
        .lines()
        .filter(|l| l.starts_with("[pretrain] loaded") || l.starts_with("[pretrain] training"))
        .find_map(|l| l.split("model ").nth(1)?.split_whitespace().next())
        .unwrap_or_else(|| panic!("no [pretrain] line names the model: {err}"));
    let cached = cwd.join(format!("target/acc_pretrained_quick_{digest}.json"));
    let cached = std::fs::read(&cached).unwrap_or_else(|e| panic!("{}: {e}", cached.display()));
    let written = std::fs::read(cwd.join("bundle.json")).expect("bundle written");
    assert_eq!(written, cached);
    acc_core::DeployBundle::load(cwd.join("bundle.json")).expect("the bundle validates");
}
