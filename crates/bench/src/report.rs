//! `acc-bench report <dir>` — render recorded flight-recorder telemetry.
//!
//! Walks `<dir>` for run subdirectories (anything containing a
//! `manifest.json`), parses the queue/agent JSONL time-series, and prints a
//! human-readable recap per run: the manifest header, the hottest queues by
//! ECN marks / drops / PFC pause time, an agent-convergence table, and the
//! FCT summary captured in the manifest.

use serde_json::Value;
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

/// One parsed run directory.
struct Run {
    dir: PathBuf,
    manifest: RunManifest,
    queues: BTreeMap<(u32, u16, u8), QueueTotals>,
    agents: BTreeMap<(u32, u16, u8), AgentDigest>,
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
    for_each_line(&dir.join("agents.jsonl"), |s: AgentSample| {
        let d = agents.entry((s.node, s.port, s.prio)).or_default();
        if d.samples == 0 {
            d.eps_first = s.epsilon;
        }
        d.samples += 1;
        d.eps_last = s.epsilon;
        d.rewards.push(s.reward);
        d.train_steps = s.train_steps;
        d.replay_len = s.replay_len;
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

fn fmt_bytes(b: u64) -> String {
    if b >= 10_000_000 {
        format!("{:.1} MB", b as f64 / 1e6)
    } else if b >= 10_000 {
        format!("{:.1} KB", b as f64 / 1e3)
    } else {
        format!("{b} B")
    }
}

/// Print the top `n` queues ranked by `key` (descending), skipping zeros.
fn top_queues(
    queues: &BTreeMap<(u32, u16, u8), QueueTotals>,
    n: usize,
    label: &str,
    key: impl Fn(&QueueTotals) -> u64,
    show: impl Fn(&QueueTotals) -> String,
) {
    let mut rows: Vec<_> = queues.iter().filter(|(_, t)| key(t) > 0).collect();
    rows.sort_by_key(|(k, t)| (std::cmp::Reverse(key(t)), **k));
    if rows.is_empty() {
        println!("  {label}: none");
        return;
    }
    println!("  top queues by {label}:");
    for (&(node, port, prio), t) in rows.into_iter().take(n) {
        println!(
            "    n{node}/p{port}/q{prio}: {}  (max qlen {}, tx {})",
            show(t),
            fmt_bytes(t.max_qlen),
            fmt_bytes(t.tx_bytes),
        );
    }
}

fn print_run(run: &Run) {
    let m = &run.manifest;
    println!("── {} ──", run.dir.display());
    println!(
        "  {} | policy {} | seed {} | scale {} | {} hosts / {} switches",
        if m.experiment.is_empty() {
            "(unlabelled)"
        } else {
            &m.experiment
        },
        m.policy,
        m.seed,
        m.scale,
        m.hosts,
        m.switches,
    );
    println!(
        "  simulated {:.1} us in {:.2} s wall ({} events, {:.0} ev/s, peak queue {})",
        m.sim_time_us, m.wall_time_s, m.events_processed, m.events_per_sec, m.peak_event_queue
    );
    println!(
        "  recorded {} queue samples over {} queues, {} agent decisions over {} agents",
        m.queue_samples,
        run.queues.len(),
        m.agent_samples,
        run.agents.len()
    );

    top_queues(
        &run.queues,
        5,
        "ECN marks",
        |t| t.marked_pkts,
        |t| format!("{} marked pkts", t.marked_pkts),
    );
    top_queues(
        &run.queues,
        5,
        "drops",
        |t| t.drops,
        |t| format!("{} drops", t.drops),
    );
    top_queues(
        &run.queues,
        5,
        "PFC pause time",
        |t| t.pause_ps,
        |t| format!("{:.1} us paused", t.pause_ps as f64 / 1e6),
    );

    if !run.agents.is_empty() {
        println!("  agent convergence (ε first→last, mean reward early→late):");
        for (&(node, port, prio), d) in &run.agents {
            let half = d.rewards.len() / 2;
            let (early, late) = d.rewards.split_at(half.max(1).min(d.rewards.len()));
            println!(
                "    n{node}/p{port}/q{prio}: {} decisions, ε {:.3}→{:.3}, reward {:+.3}→{:+.3}, {} train steps, replay {}",
                d.samples,
                d.eps_first,
                d.eps_last,
                mean(early),
                if late.is_empty() { mean(early) } else { mean(late) },
                d.train_steps,
                d.replay_len,
            );
        }
    }

    if !run.events.is_empty() {
        // Totals per kind, then the timeline itself (guard_violation lines
        // are summarised per detail rather than listed one-by-one — an
        // exploring agent can rack up thousands).
        let mut by_kind: BTreeMap<&str, u64> = BTreeMap::new();
        for e in &run.events {
            *by_kind.entry(e.kind.as_str()).or_default() += 1;
        }
        let recap: Vec<String> = by_kind.iter().map(|(k, n)| format!("{k} x{n}")).collect();
        println!(
            "  events ({} total): {}",
            run.events.len(),
            recap.join(", ")
        );
        let mut shown = 0usize;
        let mut suppressed = 0usize;
        println!("  timeline:");
        for e in &run.events {
            if e.kind == "guard_violation" {
                suppressed += 1;
                continue;
            }
            if shown >= 40 {
                suppressed += 1;
                continue;
            }
            shown += 1;
            let loc = if e.port == u16::MAX {
                format!("n{}", e.node)
            } else {
                format!("n{}/p{}", e.node, e.port)
            };
            let detail = if e.detail.is_empty() {
                String::new()
            } else {
                format!("  ({})", e.detail)
            };
            println!(
                "    {:>10.1} us  {:<18} {loc}{detail}",
                e.t_ps as f64 / 1e6,
                e.kind
            );
        }
        if suppressed > 0 {
            println!("    ... {suppressed} more (violations summarised above)");
        }
    }

    println!(
        "  flows: {} total, {} completed",
        m.flows_total, m.flows_completed
    );
    if let Some(overall) = m.fct.get("overall") {
        let g = |k: &str| overall.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
        if g("count") > 0.0 {
            println!(
                "  FCT: avg {:.1} us, p50 {:.1} us, p99 {:.1} us, max {:.1} us, \
                 {:.0} non-finite sample(s) dropped",
                g("avg_us"),
                g("p50_us"),
                g("p99_us"),
                g("max_us"),
                g("dropped_non_finite"),
            );
        }
    }
    println!();
}

/// Summarise every recorded run under `root` to stdout.
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
    println!(
        "flight-recorder report: {} run(s) under {}\n",
        dirs.len(),
        root.display()
    );
    for dir in &dirs {
        print_run(&load_run(dir)?);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The `--profile` artifact view.
// ---------------------------------------------------------------------------

/// `v[k]` as f64 (0.0 when absent or non-numeric).
fn num(v: &Value, k: &str) -> f64 {
    v.get(k).and_then(Value::as_f64).unwrap_or(0.0)
}

/// One `  <label>: count N ...` percentile line for a serialized histogram;
/// prints `none` for an empty one.
fn print_hist(label: &str, h: Option<&Value>) {
    let Some(h) = h else { return };
    if num(h, "count") == 0.0 {
        println!("  {label}: none");
        return;
    }
    println!(
        "  {label}: {:.0} samples, mean {:.0}, p50 {:.0}, p99 {:.0}, p99.9 {:.0}, max {:.0}",
        num(h, "count"),
        num(h, "mean"),
        num(h, "p50"),
        num(h, "p99"),
        num(h, "p999"),
        num(h, "max"),
    );
}

/// How many hot event kinds the profile view lists.
const TOP_K: usize = 5;

fn print_profile_run(run: &Value) {
    let label = run.get("label").and_then(Value::as_str).unwrap_or("?");
    println!("── {label} ──");
    if let Some(info) = run.get("info") {
        println!(
            "  policy {} | seed {:.0} | simulated {:.1} us in {:.2} s wall \
             ({:.0} events, {:.0} ev/s, peak queue {:.0})",
            info.get("policy").and_then(Value::as_str).unwrap_or("?"),
            num(info, "seed"),
            num(info, "sim_time_us"),
            num(info, "wall_time_s"),
            num(info, "events_processed"),
            num(info, "events_per_sec"),
            num(info, "peak_event_queue"),
        );
    }
    let Some(summary) = run.get("summary") else {
        return;
    };

    let mut kinds: Vec<&Value> = summary
        .get("event_kinds")
        .and_then(Value::as_array)
        .map(|a| a.iter().collect())
        .unwrap_or_default();
    kinds.sort_by(|a, b| {
        num(b, "est_total_self_ns")
            .partial_cmp(&num(a, "est_total_self_ns"))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    if !kinds.is_empty() {
        let sampling = num(kinds[0], "sampling").max(1.0);
        println!("  hot event kinds (self time estimated from 1/{sampling:.0} sampling):");
        for k in kinds.iter().take(TOP_K) {
            let h = k.get("self_ns");
            println!(
                "    {:<16} {:>10.0} events  est self {:>8.2} ms  per-event p50 {:.0} ns, p99 {:.0} ns",
                k.get("kind").and_then(Value::as_str).unwrap_or("?"),
                num(k, "count"),
                num(k, "est_total_self_ns") / 1e6,
                h.map(|h| num(h, "p50")).unwrap_or(0.0),
                h.map(|h| num(h, "p99")).unwrap_or(0.0),
            );
        }
        if kinds.len() > TOP_K {
            println!("    ... {} more kind(s)", kinds.len() - TOP_K);
        }
    }

    match run
        .get("alloc")
        .and_then(|a| a.get("allocations_per_event"))
        .and_then(Value::as_f64)
    {
        Some(a) => {
            let b = run
                .get("alloc")
                .map(|v| num(v, "alloc_bytes_per_event"))
                .unwrap_or(0.0);
            println!("  allocations/event: {a:.3} ({b:.1} bytes/event)");
        }
        None => println!("  allocations/event: n/a (allocator probe not registered)"),
    }

    if let Some(q) = summary.get("event_queue") {
        println!(
            "  timing wheel: {:.0} near pushes, {:.0} in-wheel, {:.0} overflow \
             ({:.0} migrated back), {:.0} bucket advances",
            num(q, "pushes_near"),
            num(q, "pushes_wheel"),
            num(q, "pushes_overflow"),
            num(q, "overflow_migrations"),
            num(q, "advances"),
        );
        let h = q.get("ns");
        println!(
            "  event queue (peek + pop): est self {:>8.2} ms, {:.1} % of engine time  \
             per-event p50 {:.0} ns, p99 {:.0} ns",
            num(q, "est_total_ns") / 1e6,
            100.0 * num(q, "est_share"),
            h.map(|h| num(h, "p50")).unwrap_or(0.0),
            h.map(|h| num(h, "p99")).unwrap_or(0.0),
        );
    }

    print_hist("pending events at dispatch", summary.get("queue_depth"));
    print_hist("ECN-mark qlen (bytes)", summary.get("ecn_mark_qlen"));
    print_hist("drop qlen (bytes)", summary.get("drop_qlen"));
    print_hist("PFC pause (ns)", summary.get("pause_ns"));

    if let Some(slo) = run.get("slo") {
        println!(
            "  SLO: FCT p50 {:.1} us, p99 {:.1} us, p99.9 {:.1} us over {:.0} flows \
             ({:.0} non-finite dropped, {:.0} unfinished)",
            num(slo, "fct_p50_us"),
            num(slo, "fct_p99_us"),
            num(slo, "fct_p999_us"),
            num(slo, "fct_count"),
            num(slo, "dropped_non_finite"),
            num(slo, "flows_unfinished"),
        );
        if slo.get("guarded").and_then(Value::as_bool) == Some(true) {
            println!(
                "       guard: {:.0} trips, {:.0} invalid configs applied, {:.0} clamps, \
                 {:.0} violations detected",
                num(slo, "guard_trips"),
                num(slo, "invalid_configs_applied"),
                num(slo, "guard_clamps"),
                num(slo, "guard_violations_detected"),
            );
        } else {
            println!("       guard: not installed (static or unguarded policy)");
        }
    }

    print_control_plane(run.get("control"));

    println!(
        "  trace: {:.0} span(s), {:.0} instant(s), {:.0} dropped at cap",
        num(summary, "spans"),
        num(summary, "instants"),
        num(summary, "spans_dropped"),
    );
    println!();
}

/// The control-plane table of a profiled run: what the ACC controllers
/// did, where their DDQN updates ran, and the wall time of each tick phase.
/// The trainer's columns depend on host timing; they exist only here.
fn print_control_plane(control: Option<&Value>) {
    let Some(c) = control.filter(|c| c.as_object().is_some()) else {
        return;
    };
    let submitted = num(c, "updates_submitted");
    println!(
        "  control plane: {:.0} ACC switch(es), {:.0} ticks, {:.0} inferences \
         ({:.0} skipped idle), {:.0} train steps",
        num(c, "acc_switches"),
        num(c, "ticks"),
        num(c, "inferences"),
        num(c, "skipped_idle"),
        num(c, "train_steps"),
    );
    println!(
        "       updates: {submitted:.0} submitted, {:.0} ran on a helper thread, {:.0} on the \
         engine ({:.1}%); {:.0} blocked join(s), {:.2} ms asleep",
        num(c, "ran_on_helper"),
        num(c, "ran_on_engine"),
        100.0 * num(c, "ran_on_engine") / submitted.max(1.0),
        num(c, "blocked_joins"),
        num(c, "blocked_ms"),
    );
    for p in c
        .get("phases")
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
    {
        let count = num(p, "count");
        println!(
            "       {:<18} {:>8.0} span(s) {:>10.2} ms total {:>8.1} us mean",
            p.get("name").and_then(Value::as_str).unwrap_or("?"),
            count,
            num(p, "total_us") / 1e3,
            num(p, "total_us") / count.max(1.0),
        );
    }
}

/// Render a `--profile` artifact: per-run hot event kinds, allocation
/// rates, queue-shape histograms, timing-wheel counters and the SLO block.
pub fn print_profile_report(path: &Path) -> io::Result<()> {
    let text = std::fs::read_to_string(path)?;
    let doc: Value = serde_json::from_str(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
    // One `report <file>` entry point, two artifact kinds: a soak SLO
    // report announces itself by schema; everything else must be a profile.
    if doc.get("schema").and_then(Value::as_str) == Some(telemetry::SOAK_SLO_SCHEMA) {
        return print_soak_report(path, &text);
    }
    let errs = crate::profile::validate(&doc);
    if !errs.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{} is not a valid acc-profile/v1 artifact: {}",
                path.display(),
                errs.join("; ")
            ),
        ));
    }
    let runs = doc
        .get("profile")
        .and_then(|p| p.get("runs"))
        .and_then(Value::as_array)
        .expect("validated above");
    println!(
        "self-profile report: {} run(s) from {}\n",
        runs.len(),
        path.display()
    );
    for run in runs {
        print_profile_run(run);
    }
    Ok(())
}

/// Render a `SOAK_SLO.json` artifact, re-checking its invariants.
fn print_soak_report(path: &Path, text: &str) -> io::Result<()> {
    let report: telemetry::SoakSloReport = serde_json::from_str(text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
    println!(
        "soak SLO report from {} ({} scale, seed {})\n",
        path.display(),
        report.scale,
        report.seed
    );
    println!(
        "{:<22} {:<10} {:>10} {:>10}  app metric",
        "phase", "kind", "start_us", "end_us"
    );
    for p in &report.phases {
        let metric = match (&p.app_metric, p.app_value) {
            (Some(m), Some(v)) => format!("{m}={v:.0}"),
            _ => "-".into(),
        };
        println!(
            "{:<22} {:<10} {:>10.0} {:>10.0}  {metric}",
            p.name, p.kind, p.start_us, p.end_us
        );
    }
    println!(
        "\nsim {:.1} ms in {:.1} s wall | FCT n={} p50={:.1} p99={:.1} p999={:.1} us",
        report.sim_time_us / 1e3,
        report.wall_time_s,
        report.fct.count,
        report.fct.p50_us,
        report.fct.p99_us,
        report.fct.p999_us,
    );
    println!(
        "guard: {} trips, {} recoveries, {} clamps, {} violations applied | \
         rl: {} train steps",
        report.guard.trips,
        report.guard.recoveries,
        report.guard.clamps,
        report.guard.violations_applied,
        report.rl.train_steps,
    );
    println!(
        "fleet: {} checkpoints, {} swaps, {} promoted, {} rollbacks, \
         {} backoff-skips, {} quarantine-skips",
        report.fleet.checkpoints,
        report.fleet.swaps,
        report.fleet.promoted,
        report.fleet.rollbacks,
        report.fleet.backoff_skips,
        report.fleet.quarantined_skips,
    );
    println!(
        "faults: {} executed, {} drops | log dropped {}, trace evicted {} | \
         invalid final configs: {}",
        report.faults.events_executed,
        report.faults.fault_drops,
        report.faults.fault_log_dropped,
        report.faults.trace_evicted,
        report.invalid_final_configs,
    );
    if let Some(a) = &report.alloc {
        println!(
            "alloc: peak live {:.1} MiB over {} allocations",
            a.peak_live_bytes as f64 / (1 << 20) as f64,
            a.allocations
        );
    }
    report
        .validate()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    println!("\nSLO invariants: OK");
    Ok(())
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

    #[test]
    fn profile_report_rejects_non_artifacts() {
        let path = scratch("bogus.json");
        std::fs::write(&path, "{\"schema\": \"nope\"}").unwrap();
        let err = print_profile_report(&path).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn profile_report_renders_book_artifact() {
        use netsim::event::QueueStats;
        use netsim::profile::SimProfiler;
        let path = scratch("ok.json");
        let mut book = crate::profile::ProfileBook::new(&path);
        let mut prof = SimProfiler::new();
        for _ in 0..32 {
            let t0 = prof.dispatch_begin();
            prof.dispatch_end(0, t0, 1);
        }
        book.add_run(
            "smoke_SECN1_seed1",
            &prof,
            QueueStats::default(),
            serde_json::json!({"policy": "SECN1", "seed": 1}),
            serde_json::json!({
                "fct_count": 0u64, "fct_p50_us": 0.0, "fct_p99_us": 0.0,
                "fct_p999_us": 0.0, "guard_trips": 0u64,
                "invalid_configs_applied": 0u64,
            }),
            serde_json::json!({"allocations_per_event": Value::Null}),
            serde_json::json!({
                "acc_switches": 6u64, "ticks": 600u64, "inferences": 900u64,
                "skipped_idle": 10u64, "train_steps": 500u64,
                "updates_submitted": 500u64, "ran_on_helper": 400u64,
                "ran_on_engine": 100u64, "blocked_joins": 2u64, "blocked_ms": 0.1,
            }),
            &[],
        );
        book.write().unwrap();
        let printed = print_profile_report(&path);
        std::fs::remove_file(&path).unwrap();
        printed.unwrap();
    }

    #[test]
    fn top_queue_ranking_is_stable() {
        let mut q = BTreeMap::new();
        q.insert(
            (1u32, 0u16, 3u8),
            QueueTotals {
                marked_pkts: 10,
                ..Default::default()
            },
        );
        q.insert(
            (2u32, 1u16, 3u8),
            QueueTotals {
                marked_pkts: 10,
                ..Default::default()
            },
        );
        let mut rows: Vec<_> = q.iter().collect();
        rows.sort_by_key(|(k, t)| (std::cmp::Reverse(t.marked_pkts), **k));
        // Equal counts fall back to key order: lowest node first.
        assert_eq!(*rows[0].0, (1, 0, 3));
    }
}
