//! `acc-bench report <dir | file>` — render recorded flight-recorder
//! telemetry, a tagged document (gates, profile, quick digests) or a saved
//! experiment result, every table through [`crate::common::print_table`].
//!
//! Walks `<dir>` for run subdirectories (anything containing a
//! `manifest.json`), parses the queue/agent/event JSONL time-series, and
//! prints one manifest row and one FCT row per run, then per run the
//! hottest queues by ECN marks / drops / PFC pause time, agent convergence,
//! the agents' decisions by action template, event counts by kind and the
//! start of the event timeline.

use crate::common::{self, print_section as section};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::io::{self, BufRead};
use std::path::{Path, PathBuf};
use telemetry::{AgentSample, EventSample, QueueSample, RunManifest};

/// Per-queue totals accumulated over a run's `queues.jsonl`.
#[derive(Clone, Copy, Debug, Default)]
struct QueueTotals {
    samples: u64,
    max_qlen: u64,
    tx_bytes: u64,
    marked_pkts: u64,
    drops: u64,
    pause_ps: u64,
}

/// Per-agent (switch queue under ACC control) convergence digest.
#[derive(Clone, Debug, Default)]
struct AgentDigest {
    samples: u64,
    eps_first: f64,
    eps_last: f64,
    rewards: Vec<f64>,
    train_steps: u64,
    replay_len: usize,
}

/// What the agents did with one action template over a run.
#[derive(Clone, Copy, Debug, Default)]
struct TemplateTally {
    decisions: u64,
    /// Decisions taken on an all-zero (idle) state.
    idle_state: u64,
    greedy: u64,
    /// Sum of `q_best - q_second` over the greedy decisions.
    q_gap_sum: f64,
    /// Sum and count of the reward the same queue's next decision
    /// reported, when it came exactly one control interval later.
    next_reward_sum: f64,
    next_rewards: u64,
}

/// One parsed run directory.
struct Run {
    dir: PathBuf,
    manifest: RunManifest,
    queues: BTreeMap<(u32, u16, u8), QueueTotals>,
    agents: BTreeMap<(u32, u16, u8), AgentDigest>,
    templates: BTreeMap<usize, TemplateTally>,
    events: Vec<EventSample>,
}

/// Find run directories: immediate subdirectories of `root` that hold a
/// `manifest.json`, plus `root` itself if it is one. Sorted by path so the
/// report order is deterministic.
fn find_runs(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    if root.join("manifest.json").is_file() {
        out.push(root.to_path_buf());
    }
    if root.is_dir() {
        for entry in std::fs::read_dir(root)? {
            let p = entry?.path();
            if p.is_dir() && p.join("manifest.json").is_file() {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Stream a JSONL file, feeding each parsed record to `f`. Missing files are
/// fine (a run recorded with no traffic writes no rows; the file still
/// exists, but tolerate hand-pruned directories too).
fn for_each_line<T: serde::Deserialize>(path: &Path, mut f: impl FnMut(T)) -> io::Result<()> {
    let file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    for (i, line) in io::BufReader::new(file).lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<T>(&line) {
            Ok(rec) => f(rec),
            Err(e) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}:{}: {e}", path.display(), i + 1),
                ))
            }
        }
    }
    Ok(())
}

fn load_run(dir: &Path) -> io::Result<Run> {
    let manifest = RunManifest::load(&dir.join("manifest.json"))?;
    let mut queues: BTreeMap<(u32, u16, u8), QueueTotals> = BTreeMap::new();
    for_each_line(&dir.join("queues.jsonl"), |s: QueueSample| {
        let t = queues.entry((s.node, s.port, s.prio)).or_default();
        t.samples += 1;
        t.max_qlen = t.max_qlen.max(s.qlen_bytes);
        t.tx_bytes += s.d_tx_bytes;
        t.marked_pkts += s.d_marked_pkts;
        t.drops += s.d_drops;
        t.pause_ps += s.d_pause_ps;
    })?;
    let mut agents: BTreeMap<(u32, u16, u8), AgentDigest> = BTreeMap::new();
    let mut templates: BTreeMap<usize, TemplateTally> = BTreeMap::new();
    // A record's reward is the previous interval's, so the reward that
    // follows a decision is on the queue's next record.
    let interval = manifest.config["control_interval"].as_u64();
    let mut last: BTreeMap<(u32, u16, u8), (u64, usize)> = BTreeMap::new();
    for_each_line(&dir.join("agents.jsonl"), |s: AgentSample| {
        let key = (s.node, s.port, s.prio);
        let d = agents.entry(key).or_default();
        if d.samples == 0 {
            d.eps_first = s.epsilon;
        }
        d.samples += 1;
        d.eps_last = s.epsilon;
        d.rewards.push(s.reward);
        d.train_steps = s.train_steps;
        d.replay_len = s.replay_len;

        if let Some((t_ps, action)) = last.insert(key, (s.t_ps, s.action_idx)) {
            if interval.is_some_and(|iv| s.t_ps.checked_sub(t_ps) == Some(iv)) {
                let t = templates.entry(action).or_default();
                t.next_reward_sum += s.reward;
                t.next_rewards += 1;
            }
        }
        let t = templates.entry(s.action_idx).or_default();
        t.decisions += 1;
        t.idle_state += s.state.iter().all(|&x| x == 0.0) as u64;
        if s.greedy {
            t.greedy += 1;
            if let (Some(best), Some(second)) = (s.q_best, s.q_second) {
                t.q_gap_sum += best - second;
            }
        }
    })?;
    let mut events = Vec::new();
    for_each_line(&dir.join("events.jsonl"), |s: EventSample| {
        events.push(s);
    })?;
    Ok(Run {
        dir: dir.to_path_buf(),
        manifest,
        queues,
        agents,
        templates,
        events,
    })
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `"n<node>/p<port>/q<prio>"`, the name a queue goes by in the tables.
fn queue_name(&(node, port, prio): &(u32, u16, u8)) -> String {
    format!("n{node}/p{port}/q{prio}")
}

/// The `n` rows with the largest nonzero `key`, largest first; rows that
/// tie keep their order.
fn top(rows: &[Value], key: &str, n: usize) -> Vec<Value> {
    let count = |r: &Value| r[key].as_u64().unwrap_or(0);
    let mut top: Vec<Value> = rows.iter().filter(|r| count(r) > 0).cloned().collect();
    top.sort_by_key(|r| std::cmp::Reverse(count(r)));
    top.truncate(n);
    top
}

/// How many timeline events [`print_run`] lists.
const TIMELINE: usize = 40;

/// One run's tables: its hottest queues, agent convergence, decisions by
/// template, events by kind and the start of its event timeline.
fn print_run(run: &Run) {
    let queues: Vec<Value> = run
        .queues
        .iter()
        .map(|(q, t)| {
            json!({
                "queue": queue_name(q),
                "max_qlen": t.max_qlen,
                "tx_bytes": t.tx_bytes,
                "marked_pkts": t.marked_pkts,
                "drops": t.drops,
                "pause_ps": t.pause_ps,
            })
        })
        .collect();
    let name = run.dir.display();
    for key in ["marked_pkts", "drops", "pause_ps"] {
        section(
            &format!("{name}: top queues by {key}"),
            &top(&queues, key, 5),
            &["queue", key, "max_qlen", "tx_bytes"],
        );
    }

    let agents: Vec<Value> = run
        .agents
        .iter()
        .map(|(q, d)| {
            let half = d.rewards.len() / 2;
            let (early, late) = d.rewards.split_at(half.max(1).min(d.rewards.len()));
            json!({
                "queue": queue_name(q),
                "decisions": d.samples,
                "eps_first": d.eps_first,
                "eps_last": d.eps_last,
                "reward_early": mean(early),
                "reward_late": if late.is_empty() { mean(early) } else { mean(late) },
                "train_steps": d.train_steps,
                "replay_len": d.replay_len,
            })
        })
        .collect();
    let columns = agents.first().map_or_else(Vec::new, common::paths);
    section(&format!("{name}: agent convergence"), &agents, &columns);

    let ratio = |sum: f64, n: u64| (n > 0).then(|| sum / n as f64);
    let templates: Vec<Value> = run
        .templates
        .iter()
        .map(|(action, t)| {
            json!({
                "action_idx": action,
                "decisions": t.decisions,
                "idle_state": t.idle_state,
                "greedy_share": t.greedy as f64 / t.decisions as f64,
                "q_gap": ratio(t.q_gap_sum, t.greedy),
                "next_reward": ratio(t.next_reward_sum, t.next_rewards),
            })
        })
        .collect();
    section(
        &format!("{name}: decisions by template"),
        &templates,
        &[
            "action_idx",
            "decisions",
            "idle_state",
            "greedy_share",
            "q_gap",
            "next_reward",
        ],
    );

    let mut by_kind: BTreeMap<&str, u64> = BTreeMap::new();
    for e in &run.events {
        *by_kind.entry(e.kind.as_str()).or_default() += 1;
    }
    let kinds: Vec<Value> = by_kind
        .iter()
        .map(|(kind, count)| json!({"kind": kind, "count": count}))
        .collect();
    section(&format!("{name}: events"), &kinds, &["kind", "count"]);
    // Violations are counted above rather than listed: an exploring agent
    // can rack up thousands.
    let timeline: Vec<Value> = run
        .events
        .iter()
        .filter(|e| e.kind != "guard_violation")
        .take(TIMELINE)
        .map(|e| serde_json::to_value(e).unwrap_or(Value::Null))
        .collect();
    section(
        &format!("{name}: timeline (first {TIMELINE}, violations left out)"),
        &timeline,
        &["t_ps", "kind", "node", "port", "prio", "detail"],
    );
}

/// Summarise every recorded run under `root` to stdout: one manifest row
/// and one FCT row per run, then each run's own tables.
pub fn print_report(root: &Path) -> io::Result<()> {
    let dirs = find_runs(root)?;
    if dirs.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "no run directories (with manifest.json) under {}",
                root.display()
            ),
        ));
    }
    let runs = dirs
        .iter()
        .map(|dir| load_run(dir))
        .collect::<io::Result<Vec<Run>>>()?;
    let manifests: Vec<Value> = runs
        .iter()
        .map(|r| serde_json::to_value(&r.manifest).unwrap_or(Value::Null))
        .collect();
    println!(
        "flight-recorder report: {} run(s) under {}",
        runs.len(),
        root.display()
    );
    section(
        "runs",
        &manifests,
        &[
            "run",
            "policy",
            "seed",
            "model_digest",
            "scale",
            "hosts",
            "switches",
            "sim_time_us",
            "wall_time_s",
            "events_processed",
            "events_per_sec",
            "peak_event_queue",
            "queue_samples",
            "agent_samples",
            "event_samples",
        ],
    );
    section(
        "flows",
        &manifests,
        &[
            "run",
            "flows_total",
            "flows_completed",
            "fct.overall.count",
            "fct.overall.avg_us",
            "fct.overall.p50_us",
            "fct.overall.p99_us",
            "fct.overall.max_us",
            "fct.overall.dropped_non_finite",
        ],
    );
    runs.iter().for_each(print_run);
    Ok(())
}

/// Render a file. A tagged one is a document of [`crate::DOCUMENTS`]: its
/// banner and tables, then its check, whose failures are the error. An
/// untagged one whose stem is an experiment id (`results/fig12.json`) is a
/// saved result, which that experiment's `show` prints. Anything else is
/// `InvalidData`.
pub fn print_file_report(path: &Path) -> io::Result<()> {
    let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let text = std::fs::read_to_string(path)?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| invalid(format!("{e:?}")))?;
    let Some(tag) = doc.get("schema") else {
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        let e = crate::experiment(stem).ok_or_else(|| {
            invalid(format!(
                "{} has no schema tag and {stem:?} is no experiment id",
                path.display()
            ))
        })?;
        crate::common::banner(e.id, e.description);
        (e.show)(&doc);
        return Ok(());
    };
    let d = tag
        .as_str()
        .and_then(crate::document)
        .ok_or_else(|| invalid(format!("{}: unknown schema tag {tag}", path.display())))?;
    crate::common::banner(d.id, d.description);
    (d.show)(&doc);
    let failed = (d.check)(&doc);
    if failed.is_empty() {
        Ok(())
    } else {
        Err(invalid(format!(
            "{} fails {}: {}",
            path.display(),
            d.schema,
            failed.join("; ")
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A file of this test's own in the system temp directory: a fresh
    /// checkout has no `target/` under the crate for a relative path to
    /// land in. The caller removes it.
    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("acc-bench-report-{}-{name}", std::process::id()))
    }

    #[test]
    fn missing_dir_is_an_error() {
        let err = print_report(&scratch("definitely-missing-metrics")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    /// Write `doc` to a scratch file and render it.
    fn render(name: &str, doc: &Value) -> io::Result<()> {
        let path = scratch(name);
        crate::common::write_document(&path, doc).unwrap();
        let printed = print_file_report(&path);
        std::fs::remove_file(&path).unwrap();
        printed
    }

    #[test]
    fn profile_report_rejects_non_artifacts() {
        let err = render("bogus.json", &json!({"schema": "nope"})).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("\"nope\""), "{err}");
    }

    /// A quick-digests document with one row per run, each digest `digest`.
    fn digests_with(digest: &str) -> Value {
        let rows: Vec<(String, String)> = crate::digests::runs()
            .into_iter()
            .map(|r| (r.label, digest.to_string()))
            .collect();
        crate::digests::document(&rows)
    }

    #[test]
    fn tagged_documents_render_and_pass_their_check() {
        let profile = crate::profile::tests::book_with_one_run().to_json();
        render("profile.json", &profile).unwrap();
        render("digests.json", &digests_with("0123456789abcdef")).unwrap();
    }

    #[test]
    fn a_failed_check_is_the_error() {
        let mut profile = crate::profile::tests::book_with_one_run().to_json();
        if let Value::Object(doc) = &mut profile {
            doc.insert("traceEvents".into(), json!([]));
        }
        let digests = digests_with("0123456789abcdeg");
        for (name, doc, says) in [
            (
                "bad-profile.json",
                profile,
                "acc-profile/v1: traceEvents is empty",
            ),
            (
                "bad-digests.json",
                digests,
                "\"fig1\": digest \"0123456789abcdeg\" is not 16 hex digits",
            ),
        ] {
            let err = render(name, &doc).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}");
            assert!(err.to_string().contains(says), "{name}: {err}");
        }
    }

    #[test]
    fn top_queue_ranking_is_stable() {
        let rows = [
            json!({"queue": "n1/p0/q3", "marked_pkts": 10u64}),
            json!({"queue": "n2/p1/q3", "marked_pkts": 10u64}),
            json!({"queue": "n3/p0/q3", "marked_pkts": 0u64}),
            json!({"queue": "n4/p2/q3", "marked_pkts": 20u64}),
        ];
        let ranked: Vec<Value> = top(&rows, "marked_pkts", 5)
            .iter()
            .map(|r| r["queue"].clone())
            .collect();
        // Largest first, equal counts in queue order, zeros left out.
        assert_eq!(
            ranked,
            [json!("n4/p2/q3"), json!("n1/p0/q3"), json!("n2/p1/q3")]
        );
    }
}
