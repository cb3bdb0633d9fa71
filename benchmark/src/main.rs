//! `acc-benchmark` — the repository's benchmark.
//!
//! ```text
//! acc-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line
//! acc-benchmark run [--seeds 7,1009] [--seconds S] [--out F] [--trace-out F]
//! acc-benchmark compare A.json B.json [--set-a I] [--set-b J]
//! acc-benchmark manifest                                         print BENCHMARK.json
//! ```
//!
//! See `benchmark/README.md` for the workload and metric catalogue.
#![deny(unsafe_code)]

#[allow(unsafe_code)]
mod alloc_count;
mod api;
mod catalog;
mod harness;
mod refkernel;
mod report;
mod stats;
mod trace;

use catalog::{Workload, END_TO_END};
use harness::{RunCfg, TempDir};
use serde_json::{json, Map, Value};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

/// The command `BENCHMARK.json` names, and the run length it fixes.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
pub const PATHS: &[&str] = &["benchmark"];
pub const RUN_SECONDS: u64 = 15;
const DEFAULT_SEED: u64 = 7;

/// `--flag value` pairs and bare words, in order.
struct Args {
    words: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut a = Args {
            words: Vec::new(),
            flags: Vec::new(),
        };
        let mut argv = argv.peekable();
        while let Some(arg) = argv.next() {
            match arg.strip_prefix("--") {
                Some(flag) => {
                    let value = argv
                        .next()
                        .ok_or_else(|| format!("--{flag} needs a value"))?;
                    a.flags.push((flag.to_string(), value));
                }
                None => a.words.push(arg),
            }
        }
        Ok(a)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{flag} {v}: not a valid number")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(f, _)| !allowed.contains(&f.as_str()))
        {
            Some((f, _)) => Err(format!("unknown flag --{f}")),
            None => Ok(()),
        }
    }
}

fn seconds(args: &Args) -> Result<f64, String> {
    let s: f64 = args.num("seconds", RUN_SECONDS as f64)?;
    if (1.0..=60.0).contains(&s) {
        Ok(s)
    } else {
        Err(format!("--seconds {s}: must be between 1 and 60"))
    }
}

fn report_failures(what: &str, failures: &[String]) {
    for f in failures {
        eprintln!("[check failed] {what}: {f}");
    }
}

/// Driver mode: one workload, traced or not, one JSON line last on stdout.
fn driver(args: &Args) -> Result<ExitCode, String> {
    args.only(&["workload", "seed", "seconds", "trace"])?;
    let name = args.get("workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let cfg = RunCfg {
        workload,
        seed: args.num("seed", DEFAULT_SEED)?,
        seconds: seconds(args)?,
    };
    let mut tmp = TempDir::new();
    let line = match args.get("trace").unwrap_or("0") {
        "0" => {
            let u = harness::run_untraced(&cfg, &mut tmp);
            report_failures(name, &u.failures);
            report::driver_line(
                u.failures.is_empty(),
                u.attempted,
                u.failed,
                report::untraced_metrics(&u),
            )
        }
        "1" => {
            // The traced trial is read against untraced ones: the fewest
            // that give a median.
            let quick = RunCfg {
                seconds: 0.0,
                ..cfg
            };
            let u = harness::run_untraced(&quick, &mut tmp);
            let t = harness::run_traced(&cfg, &mut tmp, &u);
            report_failures(name, &u.failures);
            report_failures(name, &t.failures);
            report::driver_line(
                u.failures.is_empty() && t.failures.is_empty(),
                u.attempted + t.attempted,
                u.failed + t.failed,
                report::traced_metrics(&t),
            )
        }
        other => return Err(format!("--trace {other}: must be 0 or 1")),
    };
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

fn write_json(path: &str, doc: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(doc).expect("a JSON value serializes");
    std::fs::write(path, text + "\n").map_err(|e| format!("{path}: {e}"))
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn host_json() -> Value {
    json!({
        "available_parallelism": harness::host_cores(),
        "shards": harness::shard_count(),
    })
}

/// Six significant digits, in plain notation where that stays readable.
fn six_digits(v: f64) -> String {
    if v == 0.0 || (1e-3..1e9).contains(&v.abs()) {
        let decimals = (5 - v.abs().max(1e-3).log10().floor() as i32).clamp(0, 8);
        format!("{v:.*}", decimals as usize)
    } else {
        format!("{v:.5e}")
    }
}

/// `run`: every workload, untraced then traced, one set per seed.
fn run(args: &Args) -> Result<ExitCode, String> {
    args.only(&["seeds", "seconds", "out", "trace-out"])?;
    let seeds: Vec<u64> = match args.get("seeds") {
        Some(list) => list
            .split(',')
            .map(|s| {
                s.parse()
                    .map_err(|_| format!("--seeds {list}: bad seed {s}"))
            })
            .collect::<Result<_, _>>()?,
        None => vec![DEFAULT_SEED],
    };
    let secs = seconds(args)?;
    let mut tmp = TempDir::new();
    let mut sets = Vec::new();
    let mut trace_events = Vec::new();
    let mut all_correct = true;
    for &seed in &seeds {
        let mut entries = Map::new();
        for workload in Workload::ALL {
            let cfg = RunCfg {
                workload,
                seed,
                seconds: secs,
            };
            eprintln!("[run] seed {seed} {} ...", workload.name());
            let u = harness::run_untraced(&cfg, &mut tmp);
            let t = harness::run_traced(&cfg, &mut tmp, &u);
            report_failures(workload.name(), &u.failures);
            report_failures(workload.name(), &t.failures);
            println!(
                "== {} (seed {seed}, digest {:016x}) ==",
                workload.name(),
                u.digest
            );
            for d in END_TO_END {
                let s = &u.metrics[d.name];
                println!(
                    "  {:<38} {:>14} {:<7} median of {}",
                    d.name,
                    six_digits(s.median()),
                    d.unit,
                    s.values.len()
                );
            }
            for d in catalog::PER_LAYER {
                println!(
                    "  {:<38} {:>14} {}",
                    d.name,
                    six_digits(t.metrics[d.name]),
                    d.unit
                );
            }
            let entry = report::workload_entry(&u, &t);
            all_correct &= entry["correct"].as_bool() == Some(true);
            entries.insert(workload.name().to_string(), entry);
            trace_events.extend(trace::chrome_events(workload.name(), &t.spans));
        }
        sets.push(json!({ "seed": seed, "workloads": Value::Object(entries) }));
    }
    let mut doc = Map::new();
    doc.insert("schema".into(), json!(report::SCHEMA));
    doc.insert("host".into(), host_json());
    doc.insert("run_seconds".into(), json!(secs));
    // Two sets at one seed are two runs of the same code: say how well
    // they agree, by the benchmark's own bounds.
    let pair = (0..sets.len())
        .flat_map(|i| (i + 1..sets.len()).map(move |j| (i, j)))
        .find(|&(i, j)| seeds[i] == seeds[j]);
    if let Some((i, j)) = pair {
        let rows = report::compare_sets(&sets[i], &sets[j])?;
        println!("== agreement of set {i} and set {j} (seed {}) ==", seeds[i]);
        report::print_rows(&rows);
        doc.insert(
            "agreement".into(),
            json!({ "set_a": i, "set_b": j, "rows": report::rows_json(&rows) }),
        );
    }
    doc.insert("sets".into(), Value::Array(sets));
    let doc = Value::Object(doc);
    report::validate(&doc).map_err(|e| format!("the result document is malformed: {e}"))?;
    if let Some(path) = args.get("out") {
        write_json(path, &doc)?;
    }
    if let Some(path) = args.get("trace-out") {
        write_json(
            path,
            &json!({ "traceEvents": trace_events, "displayTimeUnit": "ms" }),
        )?;
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `compare A.json B.json`: exit 1 on any `worse`, and on any digest that
/// differs at the same seed.
fn compare(args: &Args) -> Result<ExitCode, String> {
    args.only(&["set-a", "set-b"])?;
    let [_, a, b] = args.words.as_slice() else {
        return Err("usage: compare A.json B.json [--set-a I] [--set-b J]".into());
    };
    let (doc_a, doc_b) = (read_json(a)?, read_json(b)?);
    report::validate(&doc_a).map_err(|e| format!("{a}: {e}"))?;
    report::validate(&doc_b).map_err(|e| format!("{b}: {e}"))?;
    let pick = |doc: &Value, flag: &str, path: &str| -> Result<Value, String> {
        let i: usize = args.num(flag, 0)?;
        doc["sets"]
            .as_array()
            .and_then(|s| s.get(i))
            .cloned()
            .ok_or_else(|| format!("{path}: no set {i}"))
    };
    let (set_a, set_b) = (pick(&doc_a, "set-a", a)?, pick(&doc_b, "set-b", b)?);
    let rows = report::compare_sets(&set_a, &set_b)?;
    report::print_rows(&rows);
    // One seed, one arrival list: every flow must finish at the same
    // picosecond on both sides, or the model changed.
    let same_seed = set_a["seed"] == set_b["seed"];
    if !same_seed {
        println!(
            "seeds differ ({} vs {}): simulated results are not compared",
            set_a["seed"], set_b["seed"]
        );
    }
    let mut differ = 0;
    for w in Workload::ALL.iter().filter(|_| same_seed) {
        let (da, db) = (
            &set_a["workloads"][w.name()]["digest"],
            &set_b["workloads"][w.name()]["digest"],
        );
        let same = if da == db { "identical" } else { "DIFFERENT" };
        println!("digest {:<23} {da} vs {db}: {same}", w.name());
        differ += usize::from(da != db);
    }
    let worse = rows.iter().filter(|r| r.verdict == report::Verdict::Worse);
    Ok(if worse.count() > 0 || differ > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("acc-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.words.first().map(String::as_str) {
        None => driver(&args),
        Some("run") => run(&args),
        Some("compare") => compare(&args),
        Some("manifest") => {
            let doc = report::benchmark_json(COMMAND, PATHS, RUN_SECONDS);
            println!(
                "{}",
                serde_json::to_string_pretty(&doc).expect("JSON serializes")
            );
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown subcommand {other}")),
    };
    result.unwrap_or_else(|e| {
        eprintln!("acc-benchmark: {e}");
        ExitCode::from(2)
    })
}
