//! CLI entry point: `acc-bench <experiment|all|list|train|report> [flags]`.
//!
//! Flags:
//! * `--quick` / `-q` — shrink durations/topologies for a fast smoke run;
//! * `--jobs <n>` / `-j <n>` — worker threads for run-matrix experiments
//!   (default: one per available core; `--jobs 1` runs serially with
//!   byte-identical recorded output); rejected for `train` and `report`,
//!   which run no matrix;
//! * `--metrics-dir <dir>` — arm the flight recorder: every scenario the
//!   selected experiments build records queue/agent JSONL
//!   time-series and a `manifest.json` into a numbered subdirectory of
//!   `<dir>`; where nothing records (`list`, `train`, `report`, an
//!   experiment that builds no simulator) it is rejected;
//! * `--metrics-interval-us <n>` — queue-sampling cadence (default 100 µs);
//!   rejected without `--metrics-dir`;
//! * `--profile <file>` — switch on the engine's self-profiler for every
//!   scenario and write one Chrome-trace-compatible profile artifact
//!   (`acc-profile/v1`) at exit; inspect it with `acc-bench report <file>`
//!   or load it in `about://tracing` / Perfetto; like `--metrics-dir` it
//!   applies to experiments only, and is rejected for an experiment that
//!   builds no simulator ([`acc_bench::NO_SIMULATOR`]);
//! * `--shards <n>` — run the experiments that have a sharded path
//!   ([`acc_bench::SHARDED`]) through the conservative-lookahead runner on
//!   `n` shards (`--shards 1` records what the run without the flag
//!   records); any other experiment id is rejected.
//!
//! Value flags are accepted as `--flag value` or `--flag=value`. Unknown
//! flags, unknown or duplicate experiment ids, `all` next to another id and
//! positional arguments a subcommand has no use for are rejected with exit
//! code 2 before anything runs, rather than silently ignored.

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

#[inline]
fn track_alloc(bytes: u64) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes, Ordering::Relaxed);
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
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
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
    println!("       acc-bench report <file>                # a --profile artifact or");
    println!("                                              # results/quick-digests.json: print");
    println!("                                              # it, exit 1 naming each failed check");
    println!("       acc-bench report results/<id>.json     # print a saved result's tables\n");
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
    println!("       --metrics-dir <dir>        experiments: record queue/agent JSONL +");
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

/// Exit with code 2 over a bad flag or argument, pointing at `list` for
/// help.
fn bad_flag(msg: &str) -> ! {
    eprintln!("{msg} — try `acc-bench list`");
    std::process::exit(2);
}

/// The flags that take a value.
const VALUE_FLAGS: [&str; 5] = [
    "--jobs",
    "--metrics-dir",
    "--metrics-interval-us",
    "--profile",
    "--shards",
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
            flag if flag.starts_with('-') => bad_flag(&format!("unknown flag '{flag}'")),
            _ => which.push(a.clone()),
        }
    }
    let scale = if quick { Scale::QUICK } else { Scale::FULL };
    let command = which.first().map(String::as_str);
    let runs_experiments = !matches!(command, None | Some("list" | "train" | "report"));
    // Every id is checked before anything runs, so a bad one leaves no
    // result of the ids before it behind; a repeated id would shadow the
    // first run's recordings, and `all` next to another id would drop it.
    if runs_experiments {
        let mut seen = std::collections::HashSet::new();
        for w in &which {
            if w != "all" && acc_bench::experiment(w).is_none() {
                bad_flag(&format!("unknown experiment '{w}'"));
            }
            if !seen.insert(w.as_str()) {
                bad_flag(&format!("experiment '{w}' given more than once"));
            }
        }
        if which.len() > 1 && seen.contains("all") {
            bad_flag("'all' runs every experiment and takes no other id");
        }
    }
    if metrics_dir.is_none() && interval_us.is_some() {
        bad_flag("flag '--metrics-interval-us' only applies with '--metrics-dir'");
    }
    for (flag, given) in [
        ("--metrics-dir", metrics_dir.is_some()),
        ("--profile", profile.is_some()),
    ] {
        if given && !runs_experiments {
            bad_flag(&format!("flag '{flag}' only applies to experiments"));
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
    if jobs.is_some() && matches!(command, Some("train" | "report")) {
        bad_flag("flag '--jobs' only applies to experiment runs");
    }
    if shards.is_some() {
        if !runs_experiments {
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
    // These subcommands take one optional positional argument; a second one
    // used to be dropped without a word.
    if let (Some(cmd @ ("train" | "report")), Some(surplus)) = (command, which.get(2)) {
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
        // A profile, digest document or experiment result is a file; a
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
    // The one run context: everything the flags configure, built once. The
    // probe lets profiled runs report real allocation counts.
    let mut harness = Harness::new(scale).with_alloc_probe(|| {
        (
            ALLOCS.load(Ordering::Relaxed),
            ALLOC_BYTES.load(Ordering::Relaxed),
        )
    });
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

    let start = std::time::Instant::now();
    let run_one = |e: &Experiment| {
        acc_bench::common::banner(e.id, e.description);
        let t = std::time::Instant::now();
        let result = (e.run)(&harness.experiment(e.id));
        // Quick results go to `results/quick/` so smoke runs never clobber
        // full-scale records.
        let dir = scale.pick("results", "results/quick");
        write_document(&format!("{dir}/{}.json", e.id), &result);
        (e.show)(&result);
        eprintln!("[{}] finished in {:.1}s", e.id, t.elapsed().as_secs_f64());
    };
    if which[0] == "all" {
        EXPERIMENTS.iter().for_each(run_one);
    } else {
        for w in &which {
            run_one(acc_bench::experiment(w).expect("ids are checked before the run"));
        }
    }
    eprintln!("total: {:.1}s", start.elapsed().as_secs_f64());
    let profile_ok = harness.write_profile();
    if harness.metrics_failed() {
        eprintln!("ERROR: some recorded telemetry could not be written (see [metrics] lines)");
        std::process::exit(1);
    }
    if !profile_ok {
        std::process::exit(1);
    }
}
