//! CLI entry point: `acc-bench <experiment|all|list|train|report> [flags]`.
//!
//! Flags:
//! * `--quick` / `-q` — shrink durations/topologies for a fast smoke run;
//! * `--jobs <n>` / `-j <n>` — worker threads for run-matrix experiments
//!   (default: one per available core; `--jobs 1` runs serially with
//!   byte-identical recorded output); rejected for `perf`, `train`,
//!   `report` and `soak`, which run no matrix;
//! * `--metrics-dir <dir>` — arm the flight recorder: every scenario the
//!   selected experiments (or `soak`) build records queue/agent JSONL
//!   time-series and a `manifest.json` into a numbered subdirectory of
//!   `<dir>`; where nothing records (`perf`, `list`, `train`, `report`, an
//!   experiment that builds no simulator) it is rejected;
//! * `--metrics-interval-us <n>` — queue-sampling cadence (default 100 µs);
//!   rejected without `--metrics-dir`;
//! * `--profile <file>` — switch on the engine's self-profiler for every
//!   scenario and write one Chrome-trace-compatible profile artifact
//!   (`acc-profile/v1`) at exit; inspect it with `acc-bench report <file>`
//!   or load it in `about://tracing` / Perfetto; like `--metrics-dir` it
//!   applies to experiments and `soak`, and is rejected for `perf` and an
//!   experiment that builds no simulator ([`acc_bench::NO_SIMULATOR`]);
//! * `--shards <n>` — run the experiments that have a sharded path
//!   ([`acc_bench::SHARDED`]) through the conservative-lookahead runner on
//!   `n` shards (`--shards 1` records what the run without the flag
//!   records); any other experiment id is rejected;
//! * `--soak-plan <file>` / `--fault-plan <file>` — `soak` only: replace
//!   the built-in datacenter-day schedule / fault script with JSON plans.
//!
//! Value flags are accepted as `--flag value` or `--flag=value`. Unknown
//! flags, unreadable or invalid plan files, duplicate experiment ids and
//! positional arguments a subcommand has no use for are rejected with exit
//! code 2 rather than silently ignored.

use acc_bench::{Experiment, Harness, Scale, EXPERIMENTS};
use netsim::prelude::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every heap allocation so a `--profile` run can report
/// allocations per event. Lives here because the library forbids `unsafe`;
/// the library reads the counters through [`Harness::with_alloc_probe`].
/// The engine's steady-state allocation count is not this probe's: the
/// `engine_counts` test installs a process-wide counter of its own. Two
/// relaxed atomic increments per allocation are noise next to the
/// allocation itself.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
/// Live heap bytes and their high-water mark — `acc-bench soak`'s peak-RSS
/// proxy (read through [`Harness::with_peak_probe`]).
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn track_alloc(bytes: u64) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: delegates directly to the `System` allocator; the counters do not
// affect layout or aliasing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            track_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            track_alloc(new_size as u64);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Save the offline-pretrained model bundle to `out`: the bundle the ACC
/// arms install, byte for byte the file it is cached in.
fn train(scale: Scale, out: &str) {
    if let Err(e) = acc_bench::common::pretrained(scale).save(out) {
        eprintln!("could not write bundle to {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote deployable bundle to {out}");
}

/// Write `doc` to `path`, creating its directory. A failed write exits 1
/// naming the path, like a failed `--metrics-dir` write.
fn write_document(path: &str, doc: &serde_json::Value) {
    if let Err(e) = acc_bench::common::write_document(std::path::Path::new(path), doc) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("[acc-bench] wrote {path}");
}

fn usage() {
    println!(
        "usage: acc-bench <id>... [--quick] [--jobs <n>] [--shards <n>] [--metrics-dir <dir>] \
         [--metrics-interval-us <n>] [--profile <file>]"
    );
    println!("       acc-bench all [--quick] [--jobs <n>]");
    println!("       acc-bench train [out.json] [--quick]   # save a deployable model bundle");
    println!("       acc-bench report <dir>                 # summarise recorded telemetry");
    println!("       acc-bench report <file>                # BENCH_gates.json, SOAK_SLO.json or");
    println!("                                              # a --profile artifact: print it,");
    println!("                                              # exit 1 naming each failed check");
    println!("       acc-bench report results/<id>.json     # print a saved result's tables");
    println!("       acc-bench perf [out.json] [--quick]    # flow accuracy envelope -> BENCH_gates.json,");
    println!("                                              # exit 1 naming any gate that failed");
    println!(
        "       acc-bench soak [out.json] [--quick] [--soak-plan <file>] [--fault-plan <file>]"
    );
    println!(
        "                                              # fleet soak 'datacenter day' -> SOAK_SLO.json\n"
    );
    println!("flags: --quick|-q                 smoke scale");
    println!("       --jobs|-j <n>              run-matrix worker threads (default: all cores;");
    println!("                                  1 = serial, output is identical either way)");
    println!(
        "       --shards <n>               {} only: run on <n> simulation shards",
        acc_bench::SHARDED.join("/")
    );
    println!("                                  under the conservative-lookahead engine (a static");
    println!("                                  arm records the same output at any count; an ACC");
    println!("                                  arm the same at every count >= 2, but not at 1,");
    println!("                                  where its switches share one replay memory)");
    println!("       --soak-plan <file>         soak only: JSON day schedule replacing the");
    println!("                                  built-in datacenter-day rotation");
    println!("       --fault-plan <file>        soak only: JSON fault script replacing the");
    println!("                                  built-in one");
    println!("       --metrics-dir <dir>        experiments/soak: record queue/agent JSONL +");
    println!("                                  manifests");
    println!("       --metrics-interval-us <n>  with --metrics-dir: queue sampling cadence");
    println!("                                  (default 100)");
    println!("       --profile <file>           self-profile every run into one Chrome-trace");
    println!("                                  JSON artifact (view: acc-bench report <file>,");
    println!("                                  or load in about://tracing / Perfetto)\n");
    println!("{:<10} description", "id");
    for e in &EXPERIMENTS {
        println!("{:<10} {}", e.id, e.description);
    }
}

/// Exit with code 2 over a bad flag, pointing at `list` for help.
fn bad_flag(msg: &str) -> ! {
    eprintln!("{msg} — try `acc-bench list`");
    std::process::exit(2);
}

/// The flags that take a value.
const VALUE_FLAGS: [&str; 7] = [
    "--jobs",
    "--metrics-dir",
    "--metrics-interval-us",
    "--profile",
    "--shards",
    "--soak-plan",
    "--fault-plan",
];

fn main() {
    // `--flag=value` becomes the two tokens `--flag value`, so the match
    // below parses (and validates) every value flag in one place.
    let mut args: Vec<String> = Vec::new();
    for a in std::env::args().skip(1) {
        match a.split_once('=') {
            Some((flag, value)) if VALUE_FLAGS.contains(&flag) => {
                args.extend([flag.to_string(), value.to_string()]);
            }
            _ => args.push(a),
        }
    }

    // Strict flag parsing: every `-`-prefixed argument must be recognised.
    let mut quick = false;
    let mut metrics_dir: Option<String> = None;
    let mut interval_us: Option<u64> = None;
    let mut jobs: Option<usize> = None;
    let mut profile: Option<String> = None;
    let mut shards: Option<u32> = None;
    let mut soak_plan_path: Option<String> = None;
    let mut fault_plan_path: Option<String> = None;
    let mut which: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" | "-q" => quick = true,
            "--jobs" | "-j" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => jobs = Some(n),
                _ => bad_flag("flag '--jobs' needs a positive integer"),
            },
            "--metrics-dir" => match it.next() {
                Some(d) => metrics_dir = Some(d.clone()),
                None => bad_flag("flag '--metrics-dir' needs a directory argument"),
            },
            "--metrics-interval-us" => match it.next().map(|n| n.parse::<u64>()) {
                Some(Ok(n)) if n > 0 => interval_us = Some(n),
                _ => bad_flag("flag '--metrics-interval-us' needs a positive integer"),
            },
            "--profile" => match it.next() {
                Some(p) => profile = Some(p.clone()),
                None => bad_flag("flag '--profile' needs a file argument"),
            },
            "--shards" => match it.next().map(|n| n.parse::<u32>()) {
                Some(Ok(n)) if n > 0 => shards = Some(n),
                _ => bad_flag("flag '--shards' needs a positive integer"),
            },
            "--soak-plan" => match it.next() {
                Some(p) => soak_plan_path = Some(p.clone()),
                None => bad_flag("flag '--soak-plan' needs a file argument"),
            },
            "--fault-plan" => match it.next() {
                Some(p) => fault_plan_path = Some(p.clone()),
                None => bad_flag("flag '--fault-plan' needs a file argument"),
            },
            flag if flag.starts_with('-') => bad_flag(&format!("unknown flag '{flag}'")),
            _ => which.push(a.clone()),
        }
    }
    let scale = if quick { Scale::QUICK } else { Scale::FULL };
    let command = which.first().map(String::as_str);
    if metrics_dir.is_none() && interval_us.is_some() {
        bad_flag("flag '--metrics-interval-us' only applies with '--metrics-dir'");
    }
    // `perf` neither records nor profiles: its rows are a fixed accuracy
    // check, not an experiment.
    for (flag, given) in [
        ("--metrics-dir", metrics_dir.is_some()),
        ("--profile", profile.is_some()),
    ] {
        if given && matches!(command, None | Some("list" | "train" | "report" | "perf")) {
            bad_flag(&format!(
                "flag '{flag}' only applies to experiments and 'soak'"
            ));
        }
        if let Some(w) = which
            .iter()
            .find(|w| given && acc_bench::NO_SIMULATOR.contains(&w.as_str()))
        {
            bad_flag(&format!(
                "flag '{flag}' is not supported by '{w}' (it builds no simulator)"
            ));
        }
    }
    // Only experiments have a run matrix to spread over workers.
    if jobs.is_some() && matches!(command, Some("train" | "report" | "soak" | "perf")) {
        bad_flag("flag '--jobs' only applies to experiment runs");
    }
    if shards.is_some() {
        if matches!(
            command,
            None | Some("list" | "train" | "report" | "soak" | "perf")
        ) {
            bad_flag("flag '--shards' only applies to experiment runs");
        }
        if profile.is_some() {
            bad_flag("flag '--profile' is not supported with '--shards'");
        }
        if let Some(w) = which
            .iter()
            .find(|w| !acc_bench::SHARDED.contains(&w.as_str()))
        {
            bad_flag(&format!(
                "flag '--shards' is not supported by '{w}' (experiments with a sharded path: {})",
                acc_bench::SHARDED.join(", ")
            ));
        }
    }
    if (soak_plan_path.is_some() || fault_plan_path.is_some()) && command != Some("soak") {
        bad_flag("flags '--soak-plan'/'--fault-plan' only apply to the 'soak' subcommand");
    }
    // These subcommands take one optional positional argument; a second one
    // used to be dropped without a word.
    if let (Some(cmd @ ("train" | "perf" | "soak" | "report")), Some(surplus)) =
        (command, which.get(2))
    {
        bad_flag(&format!(
            "'{cmd}' takes at most one argument; unexpected '{surplus}'"
        ));
    }

    if which.is_empty() || which[0] == "list" {
        usage();
        return;
    }
    if which[0] == "train" {
        let out = which
            .get(1)
            .map(|s| s.as_str())
            .unwrap_or("acc_model_bundle.json");
        train(scale, out);
        return;
    }
    if which[0] == "report" {
        let Some(target) = which.get(1) else {
            eprintln!("usage: acc-bench report <metrics-dir | profile.json | results/<id>.json>");
            std::process::exit(2);
        };
        let path = std::path::Path::new(target);
        // A profile, soak report or experiment result is a file; a
        // telemetry recording is a directory of runs.
        let result = if path.is_file() {
            acc_bench::report::print_file_report(path)
        } else {
            acc_bench::report::print_report(path)
        };
        if let Err(e) = result {
            eprintln!("report failed for {target}: {e}");
            std::process::exit(1);
        }
        return;
    }
    // Reject duplicate experiment ids: the second execution used to shadow
    // the first's recordings (and silently double the wall time).
    if !matches!(which[0].as_str(), "perf" | "soak") {
        let mut seen = std::collections::HashSet::new();
        for w in &which {
            if !seen.insert(w.as_str()) {
                bad_flag(&format!("experiment '{w}' given more than once"));
            }
        }
    }
    // User-supplied soak plans are fully vetted here — unreadable files,
    // malformed JSON, structural violations and unknown workload names all
    // exit 2 before any simulation work starts.
    let plan = soak_plan_path.as_deref().map(|p| {
        let text = match std::fs::read_to_string(p) {
            Ok(t) => t,
            Err(e) => bad_flag(&format!("cannot read soak plan {p}: {e}")),
        };
        let parsed: acc_core::SoakPlan = match serde_json::from_str(&text) {
            Ok(v) => v,
            Err(e) => bad_flag(&format!("invalid soak plan {p}: {e}")),
        };
        if let Err(e) = parsed.validate() {
            bad_flag(&format!("invalid soak plan {p}: {e}"));
        }
        if let Err(e) = acc_bench::soak::resolve_generators(&parsed, scale, parsed.seed) {
            bad_flag(&format!("invalid soak plan {p}: {e}"));
        }
        parsed
    });
    let faults = fault_plan_path.as_deref().map(|p| {
        let text = match std::fs::read_to_string(p) {
            Ok(t) => t,
            Err(e) => bad_flag(&format!("cannot read fault plan {p}: {e}")),
        };
        // `FaultPlan`'s deserializer validates structurally; its endpoints
        // are checked against the soak's fabric here, with the check the
        // simulator repeats when it installs the plan.
        let parsed: netsim::prelude::FaultPlan = match serde_json::from_str(&text) {
            Ok(v) => v,
            Err(e) => bad_flag(&format!("invalid fault plan {p}: {e}")),
        };
        let topo = acc_bench::soak::topology_spec(scale).build();
        if let Err(e) = parsed.check_topology(&topo) {
            bad_flag(&format!("invalid fault plan {p}: {e}"));
        }
        parsed
    });

    // The one run context: everything the flags configure, built once. The
    // probes let profiled runs and `soak` report real allocation and heap
    // numbers.
    let mut harness = Harness::new(scale)
        .with_alloc_probe(|| {
            (
                ALLOCS.load(Ordering::Relaxed),
                ALLOC_BYTES.load(Ordering::Relaxed),
            )
        })
        .with_peak_probe(|| PEAK_BYTES.load(Ordering::Relaxed));
    if let Some(n) = jobs {
        harness = harness.with_jobs(n);
    }
    if let Some(n) = shards {
        harness = harness.with_shards(n);
        eprintln!("[shards] running sharded experiments on {n} shard(s)");
    }
    if let Some(dir) = &metrics_dir {
        // Fail fast on an unwritable destination instead of discovering it
        // after the experiments already ran.
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create metrics dir {dir}: {e}");
            std::process::exit(1);
        }
        let interval_us = interval_us.unwrap_or(100);
        harness = harness.with_metrics(dir, SimTime::from_us(interval_us));
        eprintln!("[metrics] recording runs under {dir} (queue sample every {interval_us} us)");
    }
    if let Some(p) = &profile {
        harness = harness.with_profile(p);
        eprintln!("[profile] self-profiling every run into {p}");
    }

    let document = match which[0].as_str() {
        "perf" => acc_bench::document(acc_bench::perf::SCHEMA),
        "soak" => acc_bench::document(acc_bench::soak::SCHEMA),
        _ => None,
    };
    let mut checks_failed = false;
    if let Some(d) = document {
        acc_bench::common::banner(d.id, d.description);
        let h = harness.experiment(d.id);
        let (doc, default_out) = if d.id == "perf" {
            (acc_bench::perf::run(&h), "BENCH_gates.json")
        } else {
            // Checkpoints land next to the recorded telemetry when armed.
            let ckpt_dir = metrics_dir
                .as_ref()
                .map(|dir| std::path::Path::new(dir).join("soak_checkpoints"));
            let seed = acc_bench::soak::SOAK_SEED;
            match acc_bench::soak::run_soak_with(&h, seed, ckpt_dir.as_deref(), plan, faults) {
                Ok(doc) => (doc, "SOAK_SLO.json"),
                Err(e) => {
                    eprintln!("soak run failed: {e}");
                    std::process::exit(1);
                }
            }
        };
        write_document(which.get(1).map_or(default_out, String::as_str), &doc);
        (d.show)(&doc);
        let failed = (d.check)(&doc);
        for f in &failed {
            eprintln!("[{}] check failed — {f}", d.id);
        }
        checks_failed = !failed.is_empty();
    } else {
        let start = std::time::Instant::now();
        let run_one = |e: &Experiment| {
            acc_bench::common::banner(e.id, e.description);
            let t = std::time::Instant::now();
            let result = (e.run)(&harness.experiment(e.id));
            // Quick results go to `results/quick/` so smoke runs never
            // clobber full-scale records.
            let dir = scale.pick("results", "results/quick");
            write_document(&format!("{dir}/{}.json", e.id), &result);
            (e.show)(&result);
            eprintln!("[{}] finished in {:.1}s", e.id, t.elapsed().as_secs_f64());
        };
        if which.iter().any(|w| w == "all") {
            EXPERIMENTS.iter().for_each(run_one);
        } else {
            for w in &which {
                match acc_bench::experiment(w) {
                    Some(exp) => run_one(exp),
                    None => {
                        eprintln!("unknown experiment '{w}' — try `acc-bench list`");
                        std::process::exit(2);
                    }
                }
            }
        }
        eprintln!("total: {:.1}s", start.elapsed().as_secs_f64());
    }
    let profile_ok = harness.write_profile();
    if harness.metrics_failed() {
        eprintln!("ERROR: some recorded telemetry could not be written (see [metrics] lines)");
        std::process::exit(1);
    }
    if !profile_ok || checks_failed {
        std::process::exit(1);
    }
}
