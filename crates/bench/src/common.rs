//! Shared harness machinery: control policies, the offline-pretrained model
//! cache, the [`Harness`] run context with the one builder and the one run
//! path (one simulator or `--shards N`), queue sampling, and the one table
//! printer the experiments' `show` functions use.

use crate::profile::ProfileBook;
use acc_core::controller::{self, AccConfig, AccStats, HelperSpan};
use acc_core::deploy::fnv1a;
use acc_core::guard::{install_guarded_acc, GuardConfig, GuardStats, GuardedController};
use acc_core::static_ecn::{install_static, StaticEcnPolicy};
use acc_core::trainer;
use acc_core::ActionSpace;
use netsim::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rl::Mlp;
use serde_json::{json, Value};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use telemetry::{
    merge_shards, JsonlSink, RunManifest, RunRecorder, SharedRecorder, TelemetrySink, VecSink,
};
use transport::{merge_shard_fct, FctCollector, FctStats, FlowRecord, SharedFct, StackConfig};
use workloads::gen::{self, Arrival, PoissonGen};
use workloads::SizeDist;

/// Experiment scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Shrink durations/topologies for a fast smoke run.
    pub quick: bool,
}

impl Scale {
    /// Full (paper-index) scale.
    pub const FULL: Scale = Scale { quick: false };
    /// Quick smoke scale.
    pub const QUICK: Scale = Scale { quick: true };

    /// Pick between a full and a quick value.
    pub fn pick<T>(&self, full: T, quick: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// The control policies the experiments compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// DCTCP-style single threshold.
    Secn0,
    /// DCQCN-paper static setting.
    Secn1,
    /// Cloud-provider static setting (bandwidth-scaled).
    Secn2,
    /// Device-vendor default static setting.
    Vendor,
    /// ACC: offline-pretrained model + small online fine-tuning budget.
    Acc,
    /// ACC without pre-training ("aggressive version", Fig. 16).
    AccFresh,
    /// ACC with the pretrained model frozen (inference only).
    AccFrozen,
    /// Fresh ACC wrapped in enforcing safe-mode guardrails.
    AccGuarded,
    /// Fresh ACC with guardrails in monitor-only mode: violations are
    /// counted but the agent's configs stay live (the "raw ACC" arm of the
    /// fault experiment — trajectory-identical to [`Policy::AccFresh`]).
    AccMonitored,
}

impl Policy {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Secn0 => "SECN0",
            Policy::Secn1 => "SECN1",
            Policy::Secn2 => "SECN2",
            Policy::Vendor => "Vendor",
            Policy::Acc => "ACC",
            Policy::AccFresh => "ACC-fresh",
            Policy::AccFrozen => "ACC-frozen",
            Policy::AccGuarded => "ACC-guarded",
            Policy::AccMonitored => "ACC-monitored",
        }
    }
}

/// The base ACC configuration used throughout the harness.
pub fn acc_config(seed: u64) -> AccConfig {
    let mut cfg = AccConfig::default();
    cfg.ddqn.min_replay = 64;
    cfg.ddqn.batch_size = 32;
    cfg.ddqn.eps_decay_steps = 3_000.0;
    cfg.seed = seed;
    cfg
}

/// Install `policy` on all switches of `sim` — the one policy table, for
/// either engine and any shard count. The ACC arms' replay scope follows
/// the host (shared on one shard, private per switch on two or more; see
/// [`controller::install_acc`]), so an ACC arm on two or more shards is
/// compared with other such shard counts, never with the unsharded run,
/// which is the `--shards 1` run. Static arms equal at every shard count.
pub fn install_policy<H: ControllerHost>(sim: &mut H, policy: Policy, scale: Scale) {
    let space = ActionSpace::templates();
    match policy {
        Policy::Secn0 => install_static(sim, StaticEcnPolicy::Secn0),
        Policy::Secn1 => install_static(sim, StaticEcnPolicy::Secn1),
        Policy::Secn2 => install_static(sim, StaticEcnPolicy::Secn2),
        Policy::Vendor => install_static(sim, StaticEcnPolicy::Vendor),
        Policy::Acc => {
            let model = pretrained_model(scale);
            let cfg = trainer::online_config(&acc_config(11), 0.08, 500.0);
            controller::install_acc_with_model(sim, &cfg, &space, &model);
        }
        Policy::AccFresh => {
            let cfg = acc_config(13);
            controller::install_acc(sim, &cfg, &space);
        }
        Policy::AccFrozen => {
            let model = pretrained_model(scale);
            let cfg = trainer::frozen_config(&acc_config(17));
            controller::install_acc_with_model(sim, &cfg, &space, &model);
        }
        // Both guard arms wrap the same fresh agent as AccFresh (same seed,
        // no pretrained model — keeps the comparison in-process
        // deterministic and the exploration phase violation-rich).
        Policy::AccGuarded => {
            let cfg = acc_config(13);
            install_guarded_acc(sim, &cfg, &space, &GuardConfig::default());
        }
        Policy::AccMonitored => {
            let cfg = acc_config(13);
            let guard = GuardConfig {
                enforce: false,
                ..GuardConfig::default()
            };
            install_guarded_acc(sim, &cfg, &space, &guard);
        }
    }
}

/// The offline-pretrained ACC model (§4.3), trained once per process (and
/// cached on disk under `target/` of the working directory, which is created
/// if missing) on a spread of incast and realistic traffic over the
/// testbed-scale Clos. The cache file's name carries a digest of the
/// offline training config and of the engine (`pretrained_path`).
pub fn pretrained_model(scale: Scale) -> Mlp {
    static FULL: OnceLock<Mlp> = OnceLock::new();
    static QUICK: OnceLock<Mlp> = OnceLock::new();
    let cell = if scale.quick { &QUICK } else { &FULL };
    cell.get_or_init(|| {
        let (cfg, segments) = offline_plan(scale);
        let [sim_seed, traffic_seed, _] = OFFLINE_SEEDS;
        let engine = engine_fingerprint(sim_seed, traffic_seed);
        let (path, digest) = pretrained_path(scale, &cfg, segments, engine);
        if let Ok(text) = std::fs::read_to_string(&path) {
            if let Ok(m) = serde_json::from_str::<Mlp>(&text) {
                if m.input_dim() == 12 && m.output_dim() == ActionSpace::templates().len() {
                    eprintln!("[pretrain] loaded cached model {digest:016x} from {path}");
                    return m;
                }
            }
        }
        eprintln!("[pretrain] training offline model {digest:016x} ({scale:?}) ...");
        let m = train_offline(scale);
        let saved = serde_json::to_string(&m)
            .map_err(|e| std::io::Error::other(e.to_string()))
            .and_then(|text| {
                std::fs::create_dir_all("target").and_then(|()| std::fs::write(&path, text))
            });
        if let Err(e) = saved {
            eprintln!(
                "[pretrain] cannot cache the model at {path}: {e} (every process trains it again)"
            );
        }
        m
    })
    .clone()
}

/// Offline training's seeds: simulator, traffic and agent.
const OFFLINE_SEEDS: [u64; 3] = [99, 5, 7];

/// The length of one offline traffic segment.
const OFFLINE_SEGMENT: SimTime = SimTime::from_ms(5);

/// Offline training's agent configuration and its number of traffic
/// segments.
fn offline_plan(scale: Scale) -> (AccConfig, usize) {
    let mut cfg = acc_config(OFFLINE_SEEDS[2]);
    cfg.ddqn.eps_decay_steps = scale.pick(60_000.0, 12_000.0);
    cfg.trains_per_tick = 4;
    (cfg, scale.pick(64, 16))
}

/// Where the offline model trained under `cfg` and `segments` on the engine
/// `engine` ([`engine_fingerprint`]) is cached, and the digest its name
/// carries: FNV-1a over the DDQN and reward configs, the updates per tick,
/// the history length, the segment count, the seeds, the action-space
/// length and the engine fingerprint. Editing any of them, or changing what
/// the packet engine does with segment 0's traffic, trains a new model
/// instead of loading a stale one. The rest of [`train_offline`]'s traffic
/// mix is code, not in the digest: after editing it, delete
/// `target/acc_pretrained_*.json`.
fn pretrained_path(scale: Scale, cfg: &AccConfig, segments: usize, engine: u64) -> (String, u64) {
    let inputs = json!({
        "engine": engine,
        "ddqn": cfg.ddqn,
        "reward": cfg.reward,
        "trains_per_tick": cfg.trains_per_tick,
        "history_k": cfg.history_k,
        "segments": segments,
        "seeds": OFFLINE_SEEDS,
        "actions": ActionSpace::templates().len(),
    });
    let digest = fnv1a(inputs.to_string().as_bytes());
    let scale = if scale.quick { "quick" } else { "full" };
    (
        format!("target/acc_pretrained_{scale}_{digest:016x}.json"),
        digest,
    )
}

/// Offline training's simulator: the testbed-scale Clos seeded with
/// `sim_seed`, with transport stacks on every host.
fn offline_sim(sim_seed: u64) -> (Simulator, SharedFct, Vec<NodeId>) {
    let topo = TopologySpec::paper_testbed().build();
    let simcfg = SimConfig::default()
        .with_seed(sim_seed)
        .with_control_interval(SimTime::from_us(50));
    let mut sim = Simulator::new(topo, simcfg);
    let fct = FctCollector::new_shared();
    let hosts = transport::install_stacks(&mut sim, StackConfig::default(), &fct);
    (sim, fct, hosts)
}

/// What the packet engine does with offline training's traffic, as one
/// number: FNV-1a over the events processed and the `(flow, end_ps)` of
/// every completed flow after segment 0's incast under SECN1, drawn from
/// its own RNG seeded like [`train_offline`]'s. The whole segment: over its
/// first 2 ms two engines that order simultaneous events differently can
/// still process the same number of events.
fn engine_fingerprint(sim_seed: u64, traffic_seed: u64) -> u64 {
    let (mut sim, fct, hosts) = offline_sim(sim_seed);
    install_static(&mut sim, StaticEcnPolicy::Secn1);
    let mut rng = SmallRng::seed_from_u64(traffic_seed);
    let dcqcn = transport::CcKind::Dcqcn;
    let arr = gen::random_incast(&hosts, 16, 32, dcqcn, SimTime::ZERO, &mut rng);
    gen::apply_arrivals(&mut sim, &arr);
    sim.run_until(OFFLINE_SEGMENT);
    let mut bytes = sim.core().events_processed.to_le_bytes().to_vec();
    for r in fct.borrow().completed() {
        let end = r.end.expect("a completed flow has an end");
        bytes.extend(r.flow.0.to_le_bytes());
        bytes.extend(end.as_ps().to_le_bytes());
    }
    fnv1a(&bytes)
}

/// Offline training: segments of random incast plus Poisson WebSearch /
/// DataMining at varying load, with one agent shared by all switches.
fn train_offline(scale: Scale) -> Mlp {
    let [sim_seed, traffic_seed, _] = OFFLINE_SEEDS;
    let (mut sim, _fct, hosts) = offline_sim(sim_seed);

    let (cfg, segments) = offline_plan(scale);
    let space = ActionSpace::templates();
    let _agent = trainer::install_shared_training(&mut sim, &cfg, &space);

    // The paper's offline traffic mix (§4.3): PerfTest-style incast with
    // random fan-in / flow counts / message sizes, plus realistic traces at
    // loads 10..90%. Sustained-incast segments (long flows) are included so
    // the model sees the steady marking/queue tradeoff, and quiet segments
    // so it learns the idle regime.
    let mut rng = SmallRng::seed_from_u64(traffic_seed);
    let seg = OFFLINE_SEGMENT;
    let ws = SizeDist::web_search();
    let dm = SizeDist::data_mining();
    for i in 0..segments {
        let start = seg.mul(i as u64);
        match i % 5 {
            0 => {
                let arr =
                    gen::random_incast(&hosts, 16, 32, transport::CcKind::Dcqcn, start, &mut rng);
                gen::apply_arrivals(&mut sim, &arr);
            }
            1 => {
                // Sustained incast: fan-in of long flows lasting the segment.
                let n = 2 + (rng.gen::<f64>() * 10.0) as usize;
                let flows = 1 + (rng.gen::<f64>() * 8.0) as usize;
                let recv = hosts[rng.gen_range(0..hosts.len())];
                let senders: Vec<NodeId> = hosts
                    .iter()
                    .copied()
                    .filter(|&h| h != recv)
                    .take(n)
                    .collect();
                let bytes = (seg.as_secs_f64() * 25e9 / 8.0 / (n * flows) as f64) as u64;
                let arr = gen::incast_wave(
                    &senders,
                    recv,
                    flows,
                    bytes.max(100_000),
                    transport::CcKind::Dcqcn,
                    start,
                );
                gen::apply_arrivals(&mut sim, &arr);
            }
            2 => {
                let load = 0.1 + rng.gen::<f64>() * 0.8;
                let g = PoissonGen::new(ws.clone(), load, transport::CcKind::Dcqcn, i as u64);
                let arr = g.generate(&hosts, 25_000_000_000, start, seg);
                gen::apply_arrivals(&mut sim, &arr);
            }
            3 => {
                let load = 0.1 + rng.gen::<f64>() * 0.8;
                let g = PoissonGen::new(dm.clone(), load, transport::CcKind::Dcqcn, i as u64);
                let arr = g.generate(&hosts, 25_000_000_000, start, seg);
                gen::apply_arrivals(&mut sim, &arr);
            }
            _ => {
                // Quiet segment: teaches that an empty network is fine under
                // any action (and exercises the idle optimisation).
                let load = 0.05;
                let g = PoissonGen::new(dm.clone(), load, transport::CcKind::Dcqcn, i as u64);
                let arr = g.generate(&hosts, 25_000_000_000, start, seg);
                gen::apply_arrivals(&mut sim, &arr);
            }
        }
        sim.run_until(start + seg);
    }
    let sw = sim.core().topo.switches()[0];
    trainer::extract_model(&mut sim, sw)
}

/// FCT summaries sliced the way the paper slices them.
#[derive(Clone, Debug, serde::Serialize)]
pub struct FctBuckets {
    /// All flows.
    pub overall: FctStats,
    /// Mice: (0, 100 KB].
    pub mice: FctStats,
    /// Medium: (100 KB, 10 MB).
    pub medium: FctStats,
    /// Elephants: [10 MB, inf).
    pub elephant: FctStats,
    /// Flows that did not finish before the horizon.
    pub unfinished: usize,
}

/// Summarise `fct` over flows that started at/after `from`.
pub fn buckets(fct: &SharedFct, from: SimTime) -> FctBuckets {
    buckets_of(&fct.borrow(), from)
}

/// [`buckets`] over a plain collector (a [`RunOutcome`] holds its collector
/// by value).
pub fn buckets_of(f: &FctCollector, from: SimTime) -> FctBuckets {
    let started = |r: &&transport::FlowRecord| r.start >= from;
    FctBuckets {
        overall: f.stats(|r| r.start >= from),
        mice: f.stats(|r| r.start >= from && r.bytes <= 100_000),
        medium: f.stats(|r| r.start >= from && r.bytes > 100_000 && r.bytes < 10_000_000),
        elephant: f.stats(|r| r.start >= from && r.bytes >= 10_000_000),
        unfinished: f.unfinished().filter(started).count(),
    }
}

/// Where an armed harness records, and how often it samples queues.
struct MetricsCtx {
    dir: PathBuf,
    interval: SimTime,
    /// Run directories claimed outside matrix cells. Held across the
    /// exclusive create, so two threads never probe the same name.
    runs: Mutex<u64>,
}

/// What every harness derived from one [`Harness::new`] shares: matrix
/// cells finish (and record, and fold their profiles in) on pool workers.
struct Shared {
    metrics: Option<MetricsCtx>,
    /// Set when any armed recording could not be written in full (sink
    /// creation, flush, or manifest save failed). The CLI checks this at
    /// exit so a run with lost telemetry finishes non-zero instead of
    /// silently reporting success.
    metrics_failed: AtomicBool,
    /// The profile book of `--profile <path>`, until it is written.
    profile: Mutex<Option<ProfileBook>>,
    /// Process-wide `(allocation count, allocated bytes)`. The counting
    /// `#[global_allocator]` lives in the binary crate (this library forbids
    /// `unsafe`); without a probe (e.g. library tests) allocation columns
    /// are `null`.
    alloc_probe: Option<fn() -> (u64, u64)>,
    /// High-water mark of live heap bytes — the soak run's peak-RSS proxy.
    peak_probe: Option<fn() -> u64>,
}

/// The matrix cell a harness was handed to. Scenarios built through it
/// derive their run-directory names from the cell index rather than from
/// the shared arrival-order counter, so recorded paths (and therefore
/// recorded bytes) are identical no matter how many workers the matrix ran
/// on or which one picked the cell up.
struct CellCtx {
    index: usize,
    runs: AtomicU64,
}

/// The run context of one `acc-bench` invocation (or one test): scale,
/// worker and shard counts, the flight recorder with its run counter and
/// failure flag, the profile book and the allocator probes. `main` builds
/// one from the parsed flags; every experiment, and through
/// [`Harness::run_matrix`] every matrix cell, receives it as an argument.
/// It is the only thing that builds a simulator, so `--metrics-dir` and
/// `--profile` cover every experiment that has one.
pub struct Harness {
    /// Experiment scale.
    pub scale: Scale,
    /// Matrix workers; 0 = one per available core.
    jobs: usize,
    /// The `--shards` request: `Some(n)` runs [`Harness::run_to`] through
    /// the shard runner on `n` shards (at `n == 1` it equals the unsharded
    /// run), `None` means the flag was absent.
    shards: Option<u32>,
    /// Labels recorded and profiled runs.
    experiment: String,
    cell: Option<CellCtx>,
    shared: Arc<Shared>,
}

impl Harness {
    /// A harness with nothing armed: all cores, unsharded, no recording, no
    /// profile, no probes.
    pub fn new(scale: Scale) -> Self {
        Harness {
            scale,
            jobs: 0,
            shards: None,
            experiment: "run".into(),
            cell: None,
            shared: Arc::new(Shared {
                metrics: None,
                metrics_failed: AtomicBool::new(false),
                profile: Mutex::new(None),
                alloc_probe: None,
                peak_probe: None,
            }),
        }
    }

    fn shared_mut(&mut self) -> &mut Shared {
        Arc::get_mut(&mut self.shared).expect("a harness is configured before it is shared")
    }

    /// Run matrices on `n` workers (`--jobs N`); 1 runs them on the caller's
    /// thread.
    pub fn with_jobs(mut self, n: usize) -> Self {
        self.jobs = n;
        self
    }

    /// Run [`Harness::run_to`] on `n` shards (`--shards N`).
    pub fn with_shards(mut self, n: u32) -> Self {
        self.shards = Some(n);
        self
    }

    /// Arm the flight recorder (`--metrics-dir`): every scenario records
    /// queue/agent/event JSONL plus a `manifest.json` into a fresh numbered
    /// subdirectory of `dir`, sampling queues every `interval`.
    pub fn with_metrics(mut self, dir: impl Into<PathBuf>, interval: SimTime) -> Self {
        assert!(
            interval > SimTime::ZERO,
            "sampling interval must be positive"
        );
        self.shared_mut().metrics = Some(MetricsCtx {
            dir: dir.into(),
            interval,
            runs: Mutex::new(0),
        });
        self
    }

    /// Arm self-profiling (`--profile`): every scenario enables the engine's
    /// profiler and folds its results into one artifact, written to `path`
    /// by [`Harness::write_profile`].
    pub fn with_profile(mut self, path: impl Into<PathBuf>) -> Self {
        self.shared_mut().profile = Mutex::new(Some(ProfileBook::new(path)));
        self
    }

    /// Register the global allocator's `(allocations, bytes)` counters.
    pub fn with_alloc_probe(mut self, probe: fn() -> (u64, u64)) -> Self {
        self.shared_mut().alloc_probe = Some(probe);
        self
    }

    /// Register the live-heap high-water-mark counter.
    pub fn with_peak_probe(mut self, probe: fn() -> u64) -> Self {
        self.shared_mut().peak_probe = Some(probe);
        self
    }

    /// This harness with recorded and profiled runs labelled `id`.
    pub fn experiment(&self, id: &str) -> Harness {
        Harness {
            experiment: id.into(),
            ..self.derive(None)
        }
    }

    fn derive(&self, cell: Option<usize>) -> Harness {
        Harness {
            scale: self.scale,
            jobs: self.jobs,
            shards: self.shards,
            experiment: self.experiment.clone(),
            cell: cell.map(|index| CellCtx {
                index,
                runs: AtomicU64::new(0),
            }),
            shared: self.shared.clone(),
        }
    }

    fn note_metrics_failure(&self, what: &Path, e: &dyn std::fmt::Display) {
        eprintln!("[metrics] ERROR: {}: {e}", what.display());
        self.shared.metrics_failed.store(true, Ordering::Relaxed);
    }

    /// True if any armed recording failed to persist.
    pub fn metrics_failed(&self) -> bool {
        self.shared.metrics_failed.load(Ordering::Relaxed)
    }

    fn profile_book(&self) -> std::sync::MutexGuard<'_, Option<ProfileBook>> {
        // A worker that panicked mid-cell poisons the lock; the book itself
        // is still consistent (a run is added in one push), so keep going
        // rather than cascading panics across unrelated cells.
        self.shared
            .profile
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    /// Write the armed profile artifact and disarm. Returns `false` when a
    /// book was armed but could not be written (the CLI exits non-zero on
    /// that); `true` when nothing was armed or the write succeeded.
    pub fn write_profile(&self) -> bool {
        let Some(book) = self.profile_book().take() else {
            return true;
        };
        match write_document(book.path(), &book.to_json()) {
            Ok(()) => {
                eprintln!(
                    "[profile] wrote {} ({} run(s))",
                    book.path().display(),
                    book.run_count()
                );
                true
            }
            Err(e) => {
                eprintln!("[profile] ERROR: {}: {e}", book.path().display());
                false
            }
        }
    }

    /// The allocator probe's `(allocations, bytes)`, if one is registered.
    pub(crate) fn alloc_counts(&self) -> Option<(u64, u64)> {
        self.shared.alloc_probe.map(|f| f())
    }

    /// The peak-live-bytes probe, if one is registered.
    pub(crate) fn peak_live_bytes(&self) -> Option<u64> {
        self.shared.peak_probe.map(|f| f())
    }
}

/// Sum guard counters across every switch of `sim` running a
/// [`GuardedController`] (on a shard: the switches it owns). `None` for
/// unguarded policies.
pub fn sum_guard_stats<H: ControllerHost>(sim: &mut H) -> Option<GuardStats> {
    let mut total = None;
    for sw in sim.topo().switches().to_vec() {
        let guarded = sim
            .controller_mut(sw)
            .and_then(|c| c.as_any_mut().downcast_mut::<GuardedController>());
        if let Some(g) = guarded {
            *total.get_or_insert_with(GuardStats::default) += g.stats;
        }
    }
    total
}

/// One cell of an experiment's policy × seed × scenario matrix: a label for
/// progress lines plus an independently runnable job.
///
/// The job builds its whole world — topology, `Simulator`, traffic, FCT
/// collector — inside the thread that executes it, so the simulator's
/// `Rc`/`RefCell` graph never crosses threads; only the captured inputs and
/// the returned result must be `Send`.
pub struct MatrixCell<'a, T> {
    label: String,
    job: Box<dyn FnOnce(&Harness) -> T + Send + 'a>,
}

impl<'a, T> MatrixCell<'a, T> {
    /// A labelled cell. The job receives the cell's own harness.
    pub fn new(label: impl Into<String>, job: impl FnOnce(&Harness) -> T + Send + 'a) -> Self {
        MatrixCell {
            label: label.into(),
            job: Box::new(job),
        }
    }
}

impl Harness {
    /// Execute `cells` concurrently and return their results in cell order.
    ///
    /// Cells run on up to `--jobs` scoped workers (default: one per
    /// available core); `--jobs 1` runs them on the caller's thread. The
    /// determinism contract: every cell derives its RNG seeds from its own
    /// inputs and its recorded run directory from its cell index — never
    /// from execution order — so result JSON and recorded JSONL are
    /// byte-identical at any worker count.
    pub fn run_matrix<T: Send>(&self, cells: Vec<MatrixCell<'_, T>>) -> Vec<T> {
        let n = cells.len();
        let jobs = match self.jobs {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let workers = jobs.min(n.max(1));
        let t0 = std::time::Instant::now();
        let done = AtomicUsize::new(0);
        let run_cell = |i: usize, MatrixCell { label, job }: MatrixCell<'_, T>| {
            let t = std::time::Instant::now();
            let r = job(&self.derive(Some(i)));
            eprintln!(
                "[matrix] {}/{n} {label} ({:.1}s)",
                done.fetch_add(1, Ordering::Relaxed) + 1,
                t.elapsed().as_secs_f64()
            );
            r
        };
        let out: Vec<T> = if workers <= 1 {
            cells
                .into_iter()
                .enumerate()
                .map(|(i, cell)| run_cell(i, cell))
                .collect()
        } else {
            let queue: Mutex<VecDeque<(usize, MatrixCell<'_, T>)>> =
                Mutex::new(cells.into_iter().enumerate().collect());
            let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| loop {
                        let next = queue.lock().unwrap_or_else(|p| p.into_inner()).pop_front();
                        let Some((i, cell)) = next else {
                            break;
                        };
                        let r = run_cell(i, cell);
                        *results[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(r);
                    });
                }
            });
            results
                .into_iter()
                .map(|m| {
                    m.into_inner()
                        .unwrap_or_else(|p| p.into_inner())
                        .expect("worker pool completed every cell")
                })
                .collect()
        };
        if n > 1 {
            eprintln!(
                "[matrix] {n} cells on {workers} worker(s) in {:.1}s",
                t0.elapsed().as_secs_f64()
            );
        }
        out
    }
}

/// Live telemetry of one recorded scenario; finalised into a manifest when
/// the scenario is dropped.
struct RunTelemetry {
    rec: SharedRecorder,
    claim: ClaimedRun,
    started: std::time::Instant,
}

/// Self-profiling bookkeeping of one scenario while `--profile` is armed:
/// everything needed at drop time to label the run and compute per-event
/// allocation rates.
struct ProfRun {
    label: String,
    policy: String,
    seed: u64,
    started: std::time::Instant,
    /// `(allocations, bytes)` of the allocator probe at build time.
    alloc0: Option<(u64, u64)>,
}

/// A built scenario ready to run.
pub struct Scenario {
    /// The simulator (stacks installed, policy installed, traffic queued).
    pub sim: Simulator,
    /// The hosts.
    pub hosts: Vec<NodeId>,
    /// The FCT collector.
    pub fct: SharedFct,
    /// The harness that built it.
    harness: Harness,
    /// Flight recorder state when metrics are armed.
    telem: Option<RunTelemetry>,
    /// Profiling bookkeeping when `--profile` is armed.
    prof: Option<ProfRun>,
}

impl Scenario {
    /// The directory this scenario records into, if metrics are armed.
    pub fn metrics_dir(&self) -> Option<&Path> {
        self.telem.as_ref().map(|t| t.claim.dir.as_path())
    }

    /// Fold this run's profiler into the armed [`ProfileBook`]: per-kind
    /// dispatch timing, timing-wheel counters, allocation rates and the SLO
    /// block. No-op when the scenario was built with profiling off.
    fn finish_profile(&mut self) {
        let Some(run) = self.prof.take() else { return };
        // Read the allocator probe before doing anything that allocates so
        // the delta covers only the scenario's own lifetime.
        let alloc_now = self.harness.alloc_counts();
        let Some(prof) = self.sim.take_profiler() else {
            return;
        };
        let wall = run.started.elapsed().as_secs_f64();
        let core = self.sim.core();
        let queue = core.event_queue_stats();
        let events = core.events_processed;
        let info = json!({
            "policy": run.policy,
            "seed": run.seed,
            "hosts": core.topo.host_count(),
            "switches": core.topo.switches().len(),
            "sim_time_us": self.sim.now().as_us_f64(),
            "wall_time_s": wall,
            "events_processed": events,
            "events_per_sec": if wall > 0.0 { events as f64 / wall } else { 0.0 },
            "peak_event_queue": core.event_queue_peak(),
        });
        let alloc = match (run.alloc0, alloc_now) {
            (Some((a0, b0)), Some((a1, b1))) if events > 0 => {
                let (da, db) = (a1.saturating_sub(a0), b1.saturating_sub(b0));
                json!({
                    "allocations": da,
                    "alloc_bytes": db,
                    "allocations_per_event": da as f64 / events as f64,
                    "alloc_bytes_per_event": db as f64 / events as f64,
                })
            }
            _ => json!({
                "allocations": Value::Null,
                "alloc_bytes": Value::Null,
                "allocations_per_event": Value::Null,
                "alloc_bytes_per_event": Value::Null,
            }),
        };
        let overall = self.fct.borrow().stats(|_| true);
        let summary = self.fct.borrow().summary();
        let guard = sum_guard_stats(&mut self.sim);
        let guarded = guard.is_some();
        let guard = guard.unwrap_or_default();
        let slo = json!({
            "fct_count": overall.count,
            "fct_p50_us": overall.p50_us,
            "fct_p99_us": overall.p99_us,
            "fct_p999_us": overall.p999_us,
            "fct_max_us": overall.max_us,
            "dropped_non_finite": overall.dropped_non_finite,
            "flows_total": summary.total,
            "flows_completed": summary.completed,
            "flows_unfinished": summary.unfinished,
            "guarded": guarded,
            "guard_ticks": guard.ticks,
            "guard_trips": guard.trips,
            "guard_clamps": guard.clamps,
            "guard_violations_detected": guard.violations_detected,
            "invalid_configs_applied": guard.violations_applied,
        });
        let (control, helper_spans) = control_plane(&mut self.sim);
        if let Some(book) = self.harness.profile_book().as_mut() {
            book.add_run(
                &run.label,
                &prof,
                queue,
                info,
                slo,
                alloc,
                control,
                &helper_spans,
            );
        }
    }
}

/// What the ACC controllers of `sim` (bare or guarded) did and where their
/// DDQN updates ran, summed over switches, plus the updates that ran on
/// trainer helper threads. `Null` when no switch runs ACC. The trainer's
/// counters depend on host timing: they go into profiles, never into
/// recorded JSONL or manifests.
fn control_plane(sim: &mut Simulator) -> (Value, Vec<HelperSpan>) {
    let mut switches = 0u64;
    let mut stats = AccStats::default();
    let mut trainer = rl::TrainerStats::default();
    let mut spans = Vec::new();
    for sw in sim.topo().switches().to_vec() {
        let Some(acc) = sim.controller_mut(sw).and_then(trainer::acc_of) else {
            continue;
        };
        switches += 1;
        stats.ticks += acc.stats.ticks;
        stats.inferences += acc.stats.inferences;
        stats.skipped_idle += acc.stats.skipped_idle;
        stats.train_steps += acc.stats.train_steps;
        trainer += acc.trainer;
        spans.append(&mut acc.take_helper_spans());
    }
    if switches == 0 {
        return (Value::Null, spans);
    }
    let control = json!({
        "acc_switches": switches,
        "ticks": stats.ticks,
        "inferences": stats.inferences,
        "skipped_idle": stats.skipped_idle,
        "train_steps": stats.train_steps,
        "updates_submitted": trainer.submitted,
        "ran_on_helper": trainer.ran_on_helper,
        "ran_on_engine": trainer.ran_on_engine,
        "blocked_joins": trainer.blocked_joins,
        "blocked_ms": trainer.blocked_ns as f64 / 1e6,
    });
    (control, spans)
}

impl Drop for Scenario {
    /// Finalise the run: fold the profile into the armed book (if any),
    /// then flush the recording sinks and write `manifest.json`.
    fn drop(&mut self) {
        self.finish_profile();
        let Some(t) = self.telem.take() else { return };
        if let Err(e) = close_recording(&mut self.sim, &t.rec) {
            self.harness.note_metrics_failure(&t.claim.dir, &e);
        }
        let core = self.sim.core();
        let rec = t.rec.borrow();
        self.harness.save_manifest(
            &t.claim,
            None,
            &core.topo,
            &core.cfg,
            core.now(),
            t.started.elapsed().as_secs_f64(),
            EngineTotals::of(core),
            (rec.queue_samples, rec.agent_samples, rec.event_samples),
            &self.fct.borrow(),
        );
    }
}

/// The engine counters run manifests and gate rows report. Over shards
/// they sum, except the event-queue peak, which is the deepest any one
/// shard saw.
#[derive(Clone, Copy, Default)]
pub(crate) struct EngineTotals {
    pub events_processed: u64,
    pub peak_event_queue: u64,
    pub fault_log_dropped: u64,
    /// Packet-slab slots reserved at build, and the most queued at once.
    pub arena_slots_reserved: u64,
    pub arena_slots_peak: u64,
}

impl EngineTotals {
    pub fn of(core: &netsim::sim::SimCore) -> Self {
        let (arena_slots_reserved, arena_slots_peak) = core.arena_slots();
        EngineTotals {
            events_processed: core.events_processed,
            peak_event_queue: core.event_queue_peak(),
            fault_log_dropped: core.fault_log_dropped,
            arena_slots_reserved: arena_slots_reserved as u64,
            arena_slots_peak: arena_slots_peak as u64,
        }
    }

    pub fn merge(&mut self, o: &EngineTotals) {
        self.events_processed += o.events_processed;
        self.peak_event_queue = self.peak_event_queue.max(o.peak_event_queue);
        self.fault_log_dropped += o.fault_log_dropped;
        self.arena_slots_reserved += o.arena_slots_reserved;
        self.arena_slots_peak += o.arena_slots_peak;
    }
}

/// An exclusively-claimed run directory plus the labels recorded runs carry.
/// Both engines claim through [`Harness::claim_run`], so both name
/// directories alike.
struct ClaimedRun {
    /// The run label (a policy name, for most runs) and engine seed the run
    /// was claimed for.
    policy: String,
    seed: u64,
    /// Experiment id of the claiming harness.
    experiment: String,
    /// Run name (also the directory's basename).
    run: String,
    /// The claimed directory (freshly created, exclusive).
    dir: PathBuf,
    /// Armed queue-sampling interval.
    interval: SimTime,
}

/// The engine configuration every policy experiment runs: `seed`, one
/// control tick per 50 µs.
pub fn sim_config(seed: u64) -> SimConfig {
    SimConfig::default()
        .with_seed(seed)
        .with_control_interval(SimTime::from_us(50))
}

/// What one run to a horizon leaves behind, at any shard count. Counts
/// taken per shard cover the switches that shard owns and add up over
/// shards.
#[derive(Default)]
pub struct RunOutcome {
    /// Every flow's record (merged over shards).
    pub fct: FctCollector,
    /// Packets lost to injected faults.
    pub fault_drops: u64,
    /// Tuned queues ending the run with an invalid ECN config (see
    /// `fault::invalid_final_configs`).
    pub invalid_final_configs: usize,
    /// Guard counters summed over every switch; `None` for unguarded
    /// policies.
    pub guard: Option<GuardStats>,
    /// The recorded run directory, when metrics were armed and claimed.
    pub metrics_dir: Option<PathBuf>,
    /// Per-shard execution counters in shard order; empty on one simulator.
    pub shard_stats: Vec<ShardStats>,
    /// Engine counters, merged over shards.
    pub(crate) engine: EngineTotals,
}

impl RunOutcome {
    /// Cross-shard events sent (== received, asserted by the engine tests).
    pub fn remote_events(&self) -> u64 {
        self.shard_stats.iter().map(|s| s.remote_sent).sum()
    }
}

/// The one end-of-run readback of both engines: a finished simulator — a
/// whole run, or one shard of one — as an outcome without flow records, run
/// directory or shard counters.
fn read_back(sim: &mut Simulator) -> RunOutcome {
    RunOutcome {
        fault_drops: sim.core().fault_drops,
        invalid_final_configs: crate::fault::invalid_final_configs(sim),
        guard: sum_guard_stats(sim),
        engine: EngineTotals::of(sim.core()),
        ..RunOutcome::default()
    }
}

/// The one builder of both engines: host stacks, `install` on the
/// switches, the FCT reserve, `arrivals`, the recorder (when `record` gives
/// a sampling interval and a sink), then `fault_plan`. The recorder comes
/// after `install` because it attaches to the controllers `install` put
/// there. Events at equal times pop by their canonical key, not by when
/// they were scheduled, so a fault that lands on a sampling tick pops
/// first either way (`fault_smoke` pins this builder against a hand-built
/// scenario).
fn build(
    sim: &mut Simulator,
    arrivals: &[Arrival],
    install: impl FnOnce(&mut Simulator),
    record: Option<(SimTime, Box<dyn TelemetrySink>)>,
    fault_plan: Option<&FaultPlan>,
) -> (Vec<NodeId>, SharedFct, Option<SharedRecorder>) {
    let fct = FctCollector::new_shared();
    let hosts = transport::install_stacks(sim, StackConfig::default(), &fct);
    install(sim);
    // The arrival list is final: pre-size the FCT collector so flow
    // registration mid-run never reallocates (apply_arrivals does the same
    // for the per-host stacks).
    fct.borrow_mut().reserve(arrivals.len());
    gen::apply_arrivals(sim, arrivals);
    // Both engines record alike and differ only in the sink: a streamed
    // `JsonlSink` on one simulator, a `VecSink` per shard.
    let rec = record.map(|(interval, sink)| {
        let rec = RunRecorder::new().with_sink(sink).into_shared();
        telemetry::install_queue_sampler(sim, interval, rec.clone());
        controller::attach_recorder(sim, &rec);
        rec
    });
    if let Some(plan) = fault_plan {
        // A shard installs the whole plan, so routing and link state stay
        // globally consistent; only a fault's owner logs it.
        sim.install_fault_plan(plan)
            .expect("fault plan rejected by simulator");
    }
    (hosts, fct, rec)
}

/// End `rec`'s recording of `sim`: faults executed after the last sampling
/// tick are still owed to the event timeline, then the sink flushes.
fn close_recording(sim: &mut Simulator, rec: &SharedRecorder) -> std::io::Result<()> {
    telemetry::drain_fault_log(sim.core_mut(), &mut rec.borrow_mut());
    rec.borrow_mut().flush()
}

impl Harness {
    /// Write the `manifest.json` of a finished recorded run on either
    /// engine (`shards: Some(n)` on the sharded one). Returns whether it
    /// reached the disk; a failure has already been reported through
    /// [`Harness::note_metrics_failure`].
    fn save_manifest(
        &self,
        claim: &ClaimedRun,
        shards: Option<u32>,
        topo: &Topology,
        cfg: &SimConfig,
        sim_time: SimTime,
        wall_s: f64,
        engine: EngineTotals,
        (queue_samples, agent_samples, event_samples): (u64, u64, u64),
        fct: &FctCollector,
    ) -> bool {
        let summary = fct.summary();
        let scale = if self.scale.quick { "quick" } else { "full" };
        let manifest = RunManifest {
            experiment: claim.experiment.clone(),
            run: claim.run.clone(),
            policy: claim.policy.clone(),
            seed: claim.seed,
            scale: match shards {
                Some(n) => format!("{scale}+shards{n}"),
                None => scale.to_string(),
            },
            hosts: topo.host_count(),
            switches: topo.switches().len(),
            sim_time_us: sim_time.as_us_f64(),
            wall_time_s: wall_s,
            events_processed: engine.events_processed,
            events_per_sec: if wall_s > 0.0 {
                engine.events_processed as f64 / wall_s
            } else {
                0.0
            },
            peak_event_queue: engine.peak_event_queue,
            queue_samples,
            agent_samples,
            event_samples,
            fault_log_dropped: engine.fault_log_dropped,
            flows_total: summary.total,
            flows_completed: summary.completed,
            fct: serde_json::to_value(&summary).unwrap_or(Value::Null),
            config: serde_json::to_value(cfg).unwrap_or(Value::Null),
        };
        match manifest.save(&claim.dir) {
            Ok(()) => {
                let sharded = shards
                    .map(|n| format!(" ({n} shard(s))"))
                    .unwrap_or_default();
                eprintln!("[metrics] recorded {}{sharded}", claim.dir.display());
                true
            }
            Err(e) => {
                self.note_metrics_failure(&claim.dir.join("manifest.json"), &e);
                false
            }
        }
    }

    /// Build a simulator over `spec` with host stacks, `policy`, and
    /// `arrivals`, under [`sim_config`]`(seed)`.
    pub fn scenario(
        &self,
        spec: &TopologySpec,
        policy: Policy,
        seed: u64,
        arrivals: &[Arrival],
    ) -> Scenario {
        self.scenario_installed(spec, sim_config(seed), policy.name(), arrivals, |sim| {
            install_policy(sim, policy, self.scale)
        })
    }

    /// A scenario on one simulator over `spec` under `cfg`: host stacks,
    /// whatever `install` puts on the switches, and `arrivals` queued;
    /// recording and profiling armed as the harness is. `label` names the
    /// run (directory, manifest `policy` field, profile track). Closed-loop
    /// application hooks and further traffic go onto [`Scenario::sim`] after
    /// the build.
    pub fn scenario_installed(
        &self,
        spec: &TopologySpec,
        cfg: SimConfig,
        label: &str,
        arrivals: &[Arrival],
        install: impl FnOnce(&mut Simulator),
    ) -> Scenario {
        self.scenario_with_faults(spec, cfg, label, arrivals, install, None)
    }

    /// [`Harness::scenario_installed`] with `fault_plan` installed last.
    fn scenario_with_faults(
        &self,
        spec: &TopologySpec,
        cfg: SimConfig,
        label: &str,
        arrivals: &[Arrival],
        install: impl FnOnce(&mut Simulator),
        fault_plan: Option<&FaultPlan>,
    ) -> Scenario {
        let seed = cfg.seed;
        let mut sim = Simulator::new(spec.build(), cfg);
        let (record, claim) = self
            .claim_run(label, seed)
            .and_then(|c| Some((self.open_jsonl(&c)?, c)))
            .map(|(sink, c)| ((c.interval, Box::new(sink) as Box<dyn TelemetrySink>), c))
            .unzip();
        let (hosts, fct, rec) = build(&mut sim, arrivals, install, record, fault_plan);
        let telem = rec.zip(claim).map(|(rec, claim)| RunTelemetry {
            rec,
            claim,
            started: std::time::Instant::now(),
        });
        let prof = self.arm_profiling(&mut sim, label, seed, telem.as_ref());
        Scenario {
            sim,
            hosts,
            fct,
            harness: self.derive(None),
            telem,
            prof,
        }
    }

    /// Run `spec` + `policy` + `arrivals` (+ optional fault plan) through
    /// the phases ending at `phase_ends` (the last is the horizon), calling
    /// `between(i)` once phase `i` has ended — on `--shards N` shards when
    /// the flag was given, on one simulator otherwise. The only code in
    /// `acc-bench` that runs a scenario to a horizon. On shards, `between`
    /// runs on the calling thread while every worker is parked, which is
    /// where the perf gates read the process-wide allocation counter.
    ///
    /// Both branches run the same engine, and one shard equals one
    /// simulator. What stays forked: an ACC arm shares one global replay
    /// on one shard, while on two or more each switch keeps its replay
    /// private; one simulator streams its recording, shards buffer theirs
    /// and merge it (a fault run's same-instant `events.jsonl` lines are
    /// then ordered by node rather than by drain); and only shards merge
    /// FCT records — one simulator's collector is returned as it is. A
    /// shard is built without the profiler.
    pub fn run_to(
        &self,
        spec: &TopologySpec,
        policy: Policy,
        seed: u64,
        arrivals: &[Arrival],
        fault_plan: Option<&FaultPlan>,
        phase_ends: &[SimTime],
        mut between: impl FnMut(usize),
    ) -> RunOutcome {
        let scale = self.scale;
        let install = move |sim: &mut Simulator| install_policy(sim, policy, scale);
        let Some(n_shards) = self.shards else {
            let mut sc = self.scenario_with_faults(
                spec,
                sim_config(seed),
                policy.name(),
                arrivals,
                install,
                fault_plan,
            );
            for (i, &end) in phase_ends.iter().enumerate() {
                sc.sim.run_until(end);
                between(i);
            }
            let mut out = read_back(&mut sc.sim);
            out.metrics_dir = sc.metrics_dir().map(Path::to_path_buf);
            let fct = sc.fct.clone();
            drop(sc); // writes the manifest; the stacks' handles go with it
            out.fct = Rc::try_unwrap(fct)
                .expect("the simulator held the other handles")
                .into_inner();
            return out;
        };

        let topo = spec.build();
        let plan = ShardPlan::build(&topo, n_shards);
        let cfg = sim_config(seed);
        let claim = self.claim_run(policy.name(), seed);
        let interval = claim.as_ref().map(|c| c.interval);
        let started = std::time::Instant::now();
        let shards = run_sharded_phased(
            &plan,
            phase_ends,
            |shard| {
                let mut sim = Simulator::new_sharded(topo.clone(), cfg.clone(), &plan, shard);
                let buf = interval.map(|_| Rc::new(RefCell::new(VecSink::new())));
                let record = interval
                    .zip(buf.clone())
                    .map(|(iv, b)| (iv, Box::new(b) as Box<dyn TelemetrySink>));
                let (_, fct, rec) = build(&mut sim, arrivals, install, record, fault_plan);
                (sim, (fct, rec, buf))
            },
            between,
            |_, mut sim, (fct, rec, buf)| {
                if let Some(rec) = &rec {
                    close_recording(&mut sim, rec).expect("an in-memory sink cannot fail");
                }
                let records: Vec<FlowRecord> = fct.borrow().records().copied().collect();
                (read_back(&mut sim), records, buf.map(|b| b.take()))
            },
        );
        let wall_s = started.elapsed().as_secs_f64();

        let mut out = RunOutcome::default();
        let (mut records, mut sinks) = (Vec::new(), Vec::new());
        for (stats, (o, shard_records, sink)) in shards {
            out.shard_stats.push(stats);
            records.push(shard_records);
            sinks.extend(sink);
            out.engine.merge(&o.engine);
            out.fault_drops += o.fault_drops;
            out.invalid_final_configs += o.invalid_final_configs;
            if let Some(g) = o.guard {
                *out.guard.get_or_insert_with(GuardStats::default) += g;
            }
        }
        // A flow that crossed shards left a sender half and a receiver half.
        out.fct = merge_shard_fct(records);
        out.metrics_dir = claim.and_then(|c| {
            let mut jsonl = self.open_jsonl(&c)?;
            let samples = merge_shards(sinks, &mut jsonl);
            if let Err(e) = jsonl.flush() {
                self.note_metrics_failure(&c.dir, &e);
                return None;
            }
            let horizon = *phase_ends.last().expect("need at least one phase");
            self.save_manifest(
                &c,
                Some(n_shards),
                &topo,
                &cfg,
                horizon,
                wall_s,
                out.engine,
                samples,
                &out.fct,
            )
            .then_some(c.dir)
        });
        out
    }

    /// Switch the engine's self-profiler on when a profile book is armed,
    /// and snapshot the allocator probe so the drop path can report
    /// per-event allocation rates. The run label reuses the recorded run
    /// name when metrics are armed too, so profile tracks and run
    /// directories correlate.
    fn arm_profiling(
        &self,
        sim: &mut Simulator,
        label: &str,
        seed: u64,
        telem: Option<&RunTelemetry>,
    ) -> Option<ProfRun> {
        self.profile_book().as_ref()?;
        sim.enable_profiling();
        Some(ProfRun {
            label: match telem {
                Some(t) => t.claim.run.clone(),
                None => format!("{}_{label}_seed{seed}", self.experiment),
            },
            policy: label.to_string(),
            seed,
            started: std::time::Instant::now(),
            alloc0: self.alloc_counts(),
        })
    }

    /// Claim a fresh run directory when metrics are armed. `None` when they
    /// are off or the claim failed (failure is reported through
    /// [`Harness::note_metrics_failure`]).
    ///
    /// Directory names: in a matrix cell's harness the name is derived from
    /// the cell index (`<exp>_<cell>_<label>_seed<seed>`, with an `rN`
    /// suffix for a cell's second and later scenarios), which keeps recorded
    /// paths identical across worker counts. Outside a cell the shared
    /// counter probes forward past directories earlier processes left
    /// behind. Either way the directory is claimed with an exclusive create:
    /// an existing recording is never truncated — a deterministic-name
    /// collision (re-running into a used `--metrics-dir`) is reported as a
    /// metrics failure so the process exits non-zero.
    fn claim_run(&self, label: &str, seed: u64) -> Option<ClaimedRun> {
        let ctx = self.shared.metrics.as_ref()?;
        let exp = &self.experiment;
        if let Err(e) = std::fs::create_dir_all(&ctx.dir) {
            self.note_metrics_failure(&ctx.dir, &e);
            return None;
        }
        let (run, dir) = match &self.cell {
            Some(cell) => {
                let nth = cell.runs.fetch_add(1, Ordering::Relaxed) + 1;
                let sub = if nth > 1 {
                    format!("r{nth}")
                } else {
                    String::new()
                };
                let run = format!("{exp}_{:04}{sub}_{label}_seed{seed}", cell.index + 1);
                let dir = ctx.dir.join(&run);
                match std::fs::create_dir(&dir) {
                    Ok(()) => (run, dir),
                    Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                        self.note_metrics_failure(
                            &dir,
                            &"run directory already exists — refusing to overwrite an \
                              earlier recording (point --metrics-dir somewhere fresh)",
                        );
                        return None;
                    }
                    Err(e) => {
                        self.note_metrics_failure(&dir, &e);
                        return None;
                    }
                }
            }
            None => {
                // A panicked holder leaves the counter valid: keep claiming.
                let mut runs = ctx.runs.lock().unwrap_or_else(|p| p.into_inner());
                loop {
                    *runs += 1;
                    if *runs > 9999 {
                        self.note_metrics_failure(&ctx.dir, &"no free run directory below 10000");
                        return None;
                    }
                    let run = format!("{exp}_{:04}_{label}_seed{seed}", *runs);
                    let dir = ctx.dir.join(&run);
                    match std::fs::create_dir(&dir) {
                        Ok(()) => break (run, dir),
                        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                        Err(e) => {
                            self.note_metrics_failure(&dir, &e);
                            return None;
                        }
                    }
                }
            }
        };
        Some(ClaimedRun {
            policy: label.to_string(),
            seed,
            experiment: exp.clone(),
            run,
            dir,
            interval: ctx.interval,
        })
    }

    /// Create the JSONL files of a claimed run directory — streamed into on
    /// one simulator, merged into after a sharded run. `None` when that
    /// failed (reported through [`Harness::note_metrics_failure`]).
    fn open_jsonl(&self, claim: &ClaimedRun) -> Option<JsonlSink> {
        JsonlSink::create_new(&claim.dir)
            .map_err(|e| self.note_metrics_failure(&claim.dir, &e))
            .ok()
    }
}

/// Periodically sampled statistics of one egress queue.
#[derive(Clone, Debug, Default, serde::Serialize)]
pub struct QueueSamples {
    /// (time us, queue bytes) samples.
    pub samples: Vec<(f64, u64)>,
}

impl QueueSamples {
    /// Mean queue depth in bytes.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|(_, q)| *q as f64).sum::<f64>() / self.samples.len() as f64
    }

    /// Standard deviation of queue depth in bytes.
    pub fn std_dev(&self) -> f64 {
        let xs: Vec<f64> = self.samples.iter().map(|(_, q)| *q as f64).collect();
        netsim::util::std_dev(&xs)
    }

    /// Maximum sampled depth.
    pub fn max(&self) -> u64 {
        self.samples.iter().map(|(_, q)| *q).max().unwrap_or(0)
    }
}

/// Run `sim` until `horizon`, sampling the queue `(node, port, prio)` every
/// `step`.
pub fn run_sampling_queue(
    sim: &mut Simulator,
    node: NodeId,
    port: PortId,
    prio: Prio,
    step: SimTime,
    horizon: SimTime,
) -> QueueSamples {
    let mut out = QueueSamples::default();
    while sim.now() < horizon {
        let t = (sim.now() + step).min(horizon);
        sim.run_until(t);
        let q = sim.core().queue(node, port, prio);
        out.samples.push((sim.now().as_us_f64(), q.bytes()));
    }
    out
}

/// Aggregate tx bytes of a node over all its ports for one priority.
pub fn node_tx_bytes(sim: &Simulator, node: NodeId, prio: Prio) -> u64 {
    let nports = sim.core().topo.node(node).ports.len();
    (0..nports)
        .map(|p| {
            sim.core()
                .queue_telem(node, PortId(p as u16), prio)
                .tx_bytes
        })
        .sum()
}

/// Time-average queue depth (bytes) of one queue over the whole run.
pub fn queue_time_avg(sim: &mut Simulator, node: NodeId, port: PortId, prio: Prio) -> f64 {
    let now = sim.now();
    let t = sim.core_mut().synced_queue_telem(node, port, prio);
    if now.as_ps() == 0 {
        return 0.0;
    }
    t.qlen_integral_byte_ps as f64 / now.as_ps() as f64
}

/// Pretty-print a header for an experiment.
pub fn banner(id: &str, title: &str) {
    println!("\n==== {id}: {title} ====");
}

/// Write `doc` to `path` as pretty-printed JSON, creating the parent
/// directory: the one writer of every document `acc-bench` leaves behind —
/// results, the gate and soak documents and the profile artifact.
pub fn write_document(path: &Path, doc: &Value) -> std::io::Result<()> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    let text = serde_json::to_string_pretty(doc)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e:?}")))?;
    std::fs::write(path, text)
}

/// [`print_table`] under a title line, after a blank line; nothing at all
/// when no row holds anything (an empty list, or one `null` block).
pub(crate) fn print_section<S: AsRef<str>>(title: &str, rows: &[Value], columns: &[S]) {
    if rows.iter().all(Value::is_null) {
        return;
    }
    println!("\n{title}");
    print_table(rows, columns);
}

/// Print `rows` as one aligned table: the only table printer the
/// experiments' `show` functions have, so a table printed after a run and
/// one rendered from its saved result by `acc-bench report` cannot differ.
pub fn print_table<S: AsRef<str>>(rows: &[Value], columns: &[S]) {
    print!("{}", format_table(rows, columns));
}

/// The text [`print_table`] prints. Each column is a path into a row —
/// object keys and array indices joined by `.` (`mice.p99_us`, `avg_us.0`)
/// — headed by that path. Every cell is formatted by [`cell`]; a path that
/// leads nowhere prints `-`. A column holding a number is right-aligned,
/// any other left-aligned; columns are two spaces apart.
fn format_table<S: AsRef<str>>(rows: &[Value], columns: &[S]) -> String {
    let found: Vec<Vec<Option<&Value>>> = rows
        .iter()
        .map(|r| columns.iter().map(|c| at(r, c.as_ref())).collect())
        .collect();
    let mut lines: Vec<Vec<String>> =
        vec![columns.iter().map(|c| c.as_ref().to_string()).collect()];
    lines.extend(
        found
            .iter()
            .map(|r| r.iter().map(|v| v.map_or("-".into(), cell)).collect()),
    );
    let cols = 0..columns.len();
    let width: Vec<usize> = cols
        .clone()
        .map(|j| {
            lines
                .iter()
                .map(|l| l[j].chars().count())
                .max()
                .unwrap_or(0)
        })
        .collect();
    let right: Vec<bool> = cols
        .map(|j| found.iter().any(|r| r[j].and_then(Value::as_f64).is_some()))
        .collect();
    let mut out = String::new();
    for line in &lines {
        let cells: Vec<String> = line
            .iter()
            .enumerate()
            .map(|(j, c)| {
                let w = width[j];
                if right[j] {
                    format!("{c:>w$}")
                } else {
                    format!("{c:<w$}")
                }
            })
            .collect();
        out.push_str(cells.join("  ").trim_end());
        out.push('\n');
    }
    out
}

/// The one number-format rule of [`print_table`]: an integer exactly, any
/// other finite number to 3 decimals below 100 in magnitude and to 1 from
/// there up; text as it is; `null` and a non-finite number (which a saved
/// result holds as `null`) as `-`; anything else as compact JSON.
pub(crate) fn cell(v: &Value) -> String {
    match v {
        Value::Null => "-".into(),
        Value::F64(x) if !x.is_finite() => "-".into(),
        Value::F64(x) if x.abs() < 100.0 => format!("{x:.3}"),
        Value::F64(x) => format!("{x:.1}"),
        Value::String(s) => s.clone(),
        other => other.to_string(),
    }
}

/// Every column path of `row` in its order: each key, and for an object
/// under a key each of its keys, joined by `.`. An array gets no column.
pub(crate) fn paths(row: &Value) -> Vec<String> {
    let mut out = Vec::new();
    for (key, v) in row.as_object().into_iter().flat_map(|m| m.iter()) {
        match v {
            Value::Object(inner) => out.extend(inner.keys().map(|k| format!("{key}.{k}"))),
            Value::Array(_) => {}
            _ => out.push(key.clone()),
        }
    }
    out
}

/// Follow a [`format_table`] column path from `v`.
pub(crate) fn at<'a>(v: &'a Value, path: &str) -> Option<&'a Value> {
    path.split('.').try_fold(v, |v, key| match v {
        Value::Array(a) => a.get(key.parse::<usize>().ok()?),
        _ => v.get(key),
    })
}

/// `row` with the entries of `extra` appended.
pub(crate) fn with(mut row: Value, extra: Value) -> Value {
    if let (Value::Object(row), Value::Object(extra)) = (&mut row, extra) {
        for (k, v) in extra.iter() {
            row.insert(k.clone(), v.clone());
        }
    }
    row
}

/// The array at key `key` of `v`; empty when there is none.
pub(crate) fn rows<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v[key].as_array().map_or(&[], Vec::as_slice)
}

/// `v` as a number; NaN (printed `-`) when it is none.
pub(crate) fn num(v: &Value) -> f64 {
    v.as_f64().unwrap_or(f64::NAN)
}

/// The number at column path `path` of the first of `rows` whose `key` is
/// the text `value` — how a `show` finds one arm of a result; NaN when
/// there is none.
pub(crate) fn num_where(rows: &[Value], key: &str, value: &str, path: &str) -> f64 {
    rows.iter()
        .find(|r| r[key].as_str() == Some(value))
        .and_then(|r| at(r, path))
        .map_or(f64::NAN, num)
}

/// JSON for an [`FctStats`].
pub fn fct_json(s: &FctStats) -> Value {
    json!({
        "count": s.count,
        "avg_us": s.avg_us,
        "p50_us": s.p50_us,
        "p99_us": s.p99_us,
        "p999_us": s.p999_us,
        "max_us": s.max_us,
        "dropped_non_finite": s.dropped_non_finite,
    })
}

/// The leaf switch and port that face a given host (for queue probes).
pub fn access_port(sim: &Simulator, host: NodeId) -> (NodeId, PortId) {
    let p = sim.core().topo.port(host, PortId(0));
    (p.peer_node, p.peer_port)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paths reach into objects and arrays, a path that leads nowhere
    /// prints `-`, every number follows one rule, and text columns align
    /// left while number columns align right.
    #[test]
    fn print_table_follows_paths_and_one_number_rule() {
        let rows = [
            json!({"policy": "ACC", "mice": {"p99_us": 4540.817062}, "avg_us": [1.23456, 2.0], "n": 31}),
            json!({"policy": "SECN1", "mice": {"p99_us": 0.5}, "avg_us": [f64::NAN], "n": 7}),
        ];
        let text = format_table(
            &rows,
            &["policy", "mice.p99_us", "avg_us.0", "avg_us.1", "n", "gone"],
        );
        let expected = "\
policy  mice.p99_us  avg_us.0  avg_us.1   n  gone
ACC          4540.8     1.235     2.000  31  -
SECN1         0.500         -         -   7  -
";
        assert_eq!(text, expected);
    }

    /// The cached model's name follows what offline training is configured
    /// by, so an edited config never loads a model trained under the old one.
    #[test]
    fn pretrained_cache_name_follows_the_offline_config() {
        let (cfg, segments) = offline_plan(Scale::QUICK);
        let engine = 7;
        let (path, digest) = pretrained_path(Scale::QUICK, &cfg, segments, engine);
        assert_eq!(
            path,
            format!("target/acc_pretrained_quick_{digest:016x}.json")
        );
        let path_of = |cfg: &AccConfig, segments, engine| {
            pretrained_path(Scale::QUICK, cfg, segments, engine).0
        };
        assert_eq!(path_of(&cfg, segments, engine), path);
        let mut edited = cfg.clone();
        edited.ddqn.eps_decay_steps += 1.0;
        assert_ne!(path_of(&edited, segments, engine), path);
        assert_ne!(path_of(&cfg, segments + 1, engine), path);
        assert_ne!(path_of(&cfg, segments, engine + 1), path);
        let (full, full_segments) = offline_plan(Scale::FULL);
        assert_ne!(
            pretrained_path(Scale::FULL, &full, full_segments, engine).1,
            digest
        );
    }

    /// The engine fingerprint is a function of the run alone — it repeats
    /// within a process — and what the engine does with a different sim
    /// seed names a different cache file.
    #[test]
    fn pretrained_cache_name_follows_the_engine() {
        let [sim_seed, traffic_seed, _] = OFFLINE_SEEDS;
        let engine = engine_fingerprint(sim_seed, traffic_seed);
        assert_eq!(engine_fingerprint(sim_seed, traffic_seed), engine);
        let (cfg, segments) = offline_plan(Scale::QUICK);
        let reseeded = engine_fingerprint(sim_seed + 1, traffic_seed);
        assert_ne!(
            pretrained_path(Scale::QUICK, &cfg, segments, reseeded).0,
            pretrained_path(Scale::QUICK, &cfg, segments, engine).0
        );
    }

    #[test]
    fn cell_rule() {
        assert_eq!(cell(&json!(99.9996)), "100.000");
        assert_eq!(cell(&json!(100.0)), "100.0");
        assert_eq!(cell(&json!(-0.25)), "-0.250");
        assert_eq!(cell(&json!(12345u64)), "12345");
        assert_eq!(cell(&json!(-3i64)), "-3");
        assert_eq!(cell(&Value::Null), "-");
        assert_eq!(cell(&json!(f64::INFINITY)), "-");
        assert_eq!(cell(&json!("SECN2")), "SECN2");
        assert_eq!(cell(&json!([1, 2])), "[1,2]");
    }
}
