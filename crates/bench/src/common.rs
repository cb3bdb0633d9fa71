//! Shared harness machinery: control policies, the offline-pretrained model
//! cache, the [`Harness`] run context with the one builder and the one run
//! path (one simulator or `--shards N`), the one queue readout and stepping
//! loop, the one incast scorer ([`score`]), and the one table printer the
//! experiments' `show` functions use.

use crate::profile::ProfileBook;
use acc_core::controller::{self, AccConfig, AccStats, HelperSpan};
use acc_core::deploy::{fnv1a, DeployBundle, DeployError};
use acc_core::guard::{install_guarded_acc, GuardConfig, GuardStats, GuardedController};
use acc_core::reward::RewardConfig;
use acc_core::state::QueueObserver;
use acc_core::static_ecn::{install_static, StaticEcnPolicy};
use acc_core::trainer;
use acc_core::ActionSpace;
use netsim::ids::PRIO_RDMA;
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
            let cfg = trainer::online_config(&acc_config(11), 0.08, 500.0);
            controller::install_acc_with_model(sim, &cfg, &space, &pretrained(scale).model);
        }
        Policy::AccFresh => {
            let cfg = acc_config(13);
            controller::install_acc(sim, &cfg, &space);
        }
        Policy::AccFrozen => {
            let cfg = trainer::frozen_config(&acc_config(17));
            controller::install_acc_with_model(sim, &cfg, &space, &pretrained(scale).model);
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
            install_guarded_acc(sim, &cfg, &space, &GuardConfig { enforce: false });
        }
    }
}

/// The offline-pretrained ACC model (§4.3) as the bundle every switch
/// installs: trained once per process on the paper's offline traffic mix
/// over the testbed-scale Clos and cached on disk under `target/` of the
/// working directory (created if missing), in a file named by a digest of
/// everything it is trained from: config, seeds, traffic and engine. The
/// cache is the [`DeployBundle`] file itself: [`DeployBundle::load`] checks
/// its version, shapes and integrity digest, and [`DeployBundle::save`]
/// renames a synced temporary file into place, so no process reads a torn
/// one.
pub fn pretrained(scale: Scale) -> &'static DeployBundle {
    static FULL: OnceLock<DeployBundle> = OnceLock::new();
    static QUICK: OnceLock<DeployBundle> = OnceLock::new();
    let cell = if scale.quick { &QUICK } else { &FULL };
    cell.get_or_init(|| {
        let cfg = offline_config(scale);
        let traffic = offline_traffic(TopologySpec::paper_testbed().build().hosts(), scale);
        let engine = engine_fingerprint(OFFLINE_SEEDS[0], &traffic[0]);
        let (path, digest) = pretrained_path(scale, &cfg, &traffic, engine);
        load_or_train(Path::new(&path), digest, || {
            let mix = "incast + WebSearch/DataMining on the 24-host Clos";
            let provenance = format!("acc-bench offline pretraining {digest:016x}: {mix}");
            let model = train_offline(scale, &cfg, &traffic);
            let space = ActionSpace::templates();
            DeployBundle::new(provenance, model, space, cfg.reward, cfg.history_k)
        })
    })
}

/// The bundle cached at `path` when it loads; otherwise the one `train`
/// returns, cached at `path`. A cached file that [`DeployBundle::load`]
/// rejects is named on stderr and replaced.
fn load_or_train(path: &Path, digest: u64, train: impl FnOnce() -> DeployBundle) -> DeployBundle {
    let shown = path.display();
    if path.exists() {
        match DeployBundle::load(path) {
            Ok(bundle) => {
                eprintln!("[pretrain] loaded cached model {digest:016x} from {shown}");
                return bundle;
            }
            Err(e) => eprintln!("[pretrain] rejected cached model at {shown}: {e}"),
        }
    }
    eprintln!("[pretrain] training offline model {digest:016x} into {shown} ...");
    let bundle = train();
    let saved = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .map_err(DeployError::from)
        .and_then(|()| bundle.save(path));
    if let Err(e) = saved {
        eprintln!("[pretrain] cannot cache the model at {shown}: {e} (each process retrains)");
    }
    bundle
}

/// The digest of the pretrained bundle `policy` installs, for its run
/// manifest; `None` for a policy that installs none.
fn deployed_model(policy: Policy, scale: Scale) -> Option<u64> {
    matches!(policy, Policy::Acc | Policy::AccFrozen).then(|| pretrained(scale).digest)
}

/// Offline training's seeds: simulator, traffic and agent.
const OFFLINE_SEEDS: [u64; 3] = [99, 5, 7];

/// The length of one offline traffic segment.
const OFFLINE_SEGMENT: SimTime = SimTime::from_ms(5);

/// Offline training's agent configuration.
fn offline_config(scale: Scale) -> AccConfig {
    let mut cfg = acc_config(OFFLINE_SEEDS[2]);
    cfg.ddqn.eps_decay_steps = scale.pick(60_000.0, 12_000.0);
    cfg.trains_per_tick = 4;
    cfg
}

/// The paper's offline traffic mix (§4.3) over `hosts`: one arrival list
/// per [`OFFLINE_SEGMENT`] (64 segments, 16 quick), drawn in segment order
/// from one RNG. In turn: PerfTest-style incast with random fan-in, flow
/// counts and message sizes; a sustained incast of long flows lasting the
/// segment, so the model sees the steady marking/queue tradeoff; Poisson
/// WebSearch and DataMining at loads 10..90 %; and a quiet segment, which
/// teaches that an empty network is fine under any action (and exercises
/// the idle optimisation).
fn offline_traffic(hosts: &[NodeId], scale: Scale) -> Vec<Vec<Arrival>> {
    let mut rng = SmallRng::seed_from_u64(OFFLINE_SEEDS[1]);
    let seg = OFFLINE_SEGMENT;
    let dcqcn = transport::CcKind::Dcqcn;
    let (ws, dm) = (SizeDist::web_search(), SizeDist::data_mining());
    let poisson = |dist: &SizeDist, load, i: usize, start| {
        let g = PoissonGen::new(dist.clone(), load, dcqcn, i as u64);
        g.generate(hosts, 25_000_000_000, start, seg)
    };
    (0..scale.pick(64, 16))
        .map(|i| {
            let start = seg.mul(i as u64);
            match i % 5 {
                0 => gen::random_incast(hosts, 16, 32, dcqcn, start, &mut rng),
                1 => {
                    let n = 2 + (rng.gen::<f64>() * 10.0) as usize;
                    let flows = 1 + (rng.gen::<f64>() * 8.0) as usize;
                    let recv = hosts[rng.gen_range(0..hosts.len())];
                    let others = hosts.iter().copied().filter(|&h| h != recv);
                    let senders: Vec<NodeId> = others.take(n).collect();
                    let bytes = (seg.as_secs_f64() * 25e9 / 8.0 / (n * flows) as f64) as u64;
                    gen::incast_wave(&senders, recv, flows, bytes.max(100_000), dcqcn, start)
                }
                2 => poisson(&ws, 0.1 + rng.gen::<f64>() * 0.8, i, start),
                3 => poisson(&dm, 0.1 + rng.gen::<f64>() * 0.8, i, start),
                _ => poisson(&dm, 0.05, i, start),
            }
        })
        .collect()
}

/// Where the offline model trained under `cfg` on `traffic` and the engine
/// `engine` ([`engine_fingerprint`]) is cached, and the digest its name
/// carries: FNV-1a over the DDQN and reward configs, the updates per tick,
/// the history length, the [`arrivals_digest`] of every segment of
/// `traffic` (so the segment count too), the seeds, the action-space length
/// and the engine fingerprint. Editing any of them — the traffic mix
/// included — or changing what the packet engine does with segment 0
/// trains a new model instead of loading a stale one.
fn pretrained_path(
    scale: Scale,
    cfg: &AccConfig,
    traffic: &[Vec<Arrival>],
    engine: u64,
) -> (String, u64) {
    let arrivals: Vec<u64> = traffic.iter().map(|s| arrivals_digest(s)).collect();
    let inputs = json!({
        "engine": engine,
        "ddqn": cfg.ddqn,
        "reward": cfg.reward,
        "trains_per_tick": cfg.trains_per_tick,
        "history_k": cfg.history_k,
        "arrivals": arrivals,
        "seeds": OFFLINE_SEEDS,
        "actions": ActionSpace::templates().len(),
    });
    let digest = fnv1a(inputs.to_string().as_bytes());
    let scale = scale.pick("full", "quick");
    (
        format!("target/acc_pretrained_{scale}_{digest:016x}.json"),
        digest,
    )
}

/// What the packet engine does with offline training's traffic, as one
/// number: FNV-1a over the events processed and the `(flow, end_ps)` of
/// every completed flow after `segment` (segment 0 of [`offline_traffic`])
/// under SECN1 on the offline Clos seeded with `sim_seed`. The whole
/// segment: over its first 2 ms two engines that order simultaneous events
/// differently can still process the same number of events.
fn engine_fingerprint(sim_seed: u64, segment: &[Arrival]) -> u64 {
    let spec = TopologySpec::paper_testbed();
    let mut sc = Harness::new(Scale::QUICK).scenario(&spec, Policy::Secn1, sim_seed, segment);
    sc.sim.run_until(OFFLINE_SEGMENT);
    let mut bytes = sc.sim.core().events_processed.to_le_bytes().to_vec();
    for r in sc.fct.borrow().completed() {
        let end = r.end.expect("a completed flow has an end");
        bytes.extend(r.flow.0.to_le_bytes());
        bytes.extend(end.as_ps().to_le_bytes());
    }
    fnv1a(&bytes)
}

/// Offline training: one agent shared by all switches of the offline Clos
/// learns while each segment of `traffic` is queued at its start and run
/// to its end.
fn train_offline(scale: Scale, cfg: &AccConfig, traffic: &[Vec<Arrival>]) -> Mlp {
    let spec = TopologySpec::paper_testbed();
    let space = ActionSpace::templates();
    let simcfg = sim_config(OFFLINE_SEEDS[0]);
    let mut sc = Harness::new(scale).scenario_installed(&spec, simcfg, "pretrain", &[], |sim| {
        trainer::install_shared_training(sim, cfg, &space);
    });
    for (i, segment) in traffic.iter().enumerate() {
        gen::apply_arrivals(&mut sc.sim, segment);
        sc.sim.run_until(OFFLINE_SEGMENT.mul(i as u64 + 1));
    }
    let sw = sc.sim.core().topo.switches()[0];
    trainer::extract_model(&mut sc.sim, sw)
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
/// failure flag, the profile book and the allocator probe. `main` builds
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
    /// profile, no probe.
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
            "event_queue_capacity": core.event_queue_capacity(),
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

/// The engine counters run manifests report and `engine_counts` bounds.
/// Over shards they sum, except the event-queue peak, which is the deepest
/// any one shard saw.
#[derive(Clone, Copy, Default)]
pub struct EngineTotals {
    /// Events processed.
    pub events_processed: u64,
    /// The most events pending at once.
    pub peak_event_queue: u64,
    /// Fault-log entries discarded because the log hit its cap between
    /// drains.
    pub fault_log_dropped: u64,
    /// Packet-slab slots reserved at build, and the most queued at once.
    pub arena_slots_reserved: u64,
    pub arena_slots_peak: u64,
    /// Port blocks built ([`netsim::sim::SimCore::ports_held`]).
    pub ports_held: u64,
}

impl EngineTotals {
    pub(crate) fn of(core: &netsim::sim::SimCore) -> Self {
        let (arena_slots_reserved, arena_slots_peak) = core.arena_slots();
        EngineTotals {
            events_processed: core.events_processed,
            peak_event_queue: core.event_queue_peak(),
            fault_log_dropped: core.fault_log_dropped,
            arena_slots_reserved: arena_slots_reserved as u64,
            arena_slots_peak: arena_slots_peak as u64,
            ports_held: core.ports_held() as u64,
        }
    }

    pub(crate) fn merge(&mut self, o: &EngineTotals) {
        self.events_processed += o.events_processed;
        self.peak_event_queue = self.peak_event_queue.max(o.peak_event_queue);
        self.fault_log_dropped += o.fault_log_dropped;
        self.arena_slots_reserved += o.arena_slots_reserved;
        self.arena_slots_peak += o.arena_slots_peak;
        self.ports_held += o.ports_held;
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
    /// [`arrivals_digest`] of the traffic the run is built with.
    arrivals_digest: u64,
    /// The digest of the [`DeployBundle`] the run installs, if any.
    model_digest: Option<u64>,
    /// Experiment id of the claiming harness.
    experiment: String,
    /// Run name (also the directory's basename).
    run: String,
    /// The claimed directory (freshly created, exclusive).
    dir: PathBuf,
    /// Armed queue-sampling interval.
    interval: SimTime,
}

/// FNV-1a over every arrival's `(at_ps, src, dst, bytes, cc, tag)`, in
/// list order: the traffic a run was offered, as one number in its
/// manifest.
fn arrivals_digest(arrivals: &[Arrival]) -> u64 {
    let mut bytes = Vec::with_capacity(arrivals.len() * 33);
    for a in arrivals {
        bytes.extend(a.at.as_ps().to_le_bytes());
        bytes.extend(a.src.0.to_le_bytes());
        bytes.extend(a.msg.dst.0.to_le_bytes());
        bytes.extend(a.msg.bytes.to_le_bytes());
        bytes.push(a.msg.cc as u8);
        bytes.extend(a.msg.tag.to_le_bytes());
    }
    fnv1a(&bytes)
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
    pub engine: EngineTotals,
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
            arrivals_digest: claim.arrivals_digest,
            model_digest: claim.model_digest,
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
        let model = deployed_model(policy, self.scale);
        let install = |sim: &mut Simulator| install_policy(sim, policy, self.scale);
        let cfg = sim_config(seed);
        self.scenario_with_faults(spec, cfg, policy.name(), model, arrivals, install, None)
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
        self.scenario_with_faults(spec, cfg, label, None, arrivals, install, None)
    }

    /// [`Harness::scenario_installed`] with `fault_plan` installed last; a
    /// recorded run's manifest names `model_digest`, the digest of the
    /// [`DeployBundle`] `install` deploys.
    pub(crate) fn scenario_with_faults(
        &self,
        spec: &TopologySpec,
        cfg: SimConfig,
        label: &str,
        model_digest: Option<u64>,
        arrivals: &[Arrival],
        install: impl FnOnce(&mut Simulator),
        fault_plan: Option<&FaultPlan>,
    ) -> Scenario {
        let seed = cfg.seed;
        let mut sim = Simulator::new(spec.build(), cfg);
        let (record, claim) = self
            .claim_run(label, seed, arrivals, model_digest)
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
    /// the flag was given, on one simulator otherwise. The experiments
    /// that take `--shards` ([`crate::SHARDED`]) and the `engine_counts`
    /// test's `xl-clos-1024` rows call it; every other experiment drives the
    /// [`Scenario`] that [`Harness::scenario`] builds itself. On shards,
    /// `between` runs on the calling thread while every worker is parked,
    /// which is where `engine_counts` reads its process-wide allocation
    /// counter.
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
        let model = deployed_model(policy, scale);
        let Some(n_shards) = self.shards else {
            let mut sc = self.scenario_with_faults(
                spec,
                sim_config(seed),
                policy.name(),
                model,
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
        let claim = self.claim_run(policy.name(), seed, arrivals, model);
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
    fn claim_run(
        &self,
        label: &str,
        seed: u64,
        arrivals: &[Arrival],
        model_digest: Option<u64>,
    ) -> Option<ClaimedRun> {
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
            arrivals_digest: arrivals_digest(arrivals),
            model_digest,
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

/// The registers of one egress queue at one instant, read through
/// `synced_queue_telem`. Two marks bound a [`QueueWindow`].
#[derive(Clone, Copy, Debug)]
pub struct QueueMark {
    /// When the registers were read.
    pub at: SimTime,
    /// Bytes handed to the serializer so far.
    pub tx_bytes: u64,
    /// Time integral of the queue's depth so far, byte-picoseconds.
    pub qlen_integral_byte_ps: u128,
}

/// The paper's two readouts of an egress queue over an interval (§3.3):
/// what it sent and how deep it stood on average.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueueWindow {
    /// Bytes sent over the window, as Gbit/s.
    pub goodput_gbps: f64,
    /// Time-average depth over the window, bytes.
    pub avg_queue_bytes: f64,
}

impl QueueMark {
    /// Read queue `(node, port, prio)` of `sim` now.
    pub fn read(sim: &mut Simulator, node: NodeId, port: PortId, prio: Prio) -> Self {
        let t = sim.core_mut().synced_queue_telem(node, port, prio);
        QueueMark {
            at: sim.now(),
            tx_bytes: t.tx_bytes,
            qlen_integral_byte_ps: t.qlen_integral_byte_ps,
        }
    }

    /// The window from this mark to the later mark `end`.
    pub fn window_to(&self, end: &QueueMark) -> QueueWindow {
        let dt = end.at - self.at;
        QueueWindow {
            goodput_gbps: (end.tx_bytes - self.tx_bytes) as f64 * 8.0 / dt.as_secs_f64() / 1e9,
            avg_queue_bytes: (end.qlen_integral_byte_ps - self.qlen_integral_byte_ps) as f64
                / dt.as_ps() as f64,
        }
    }
}

/// Run `sim` to `until` in steps of `step`, calling `f` after each; the
/// last step stops short at `until`.
pub fn run_stepped(
    sim: &mut Simulator,
    until: SimTime,
    step: SimTime,
    mut f: impl FnMut(&mut Simulator),
) {
    while sim.now() < until {
        sim.run_until((sim.now() + step).min(until));
        f(sim);
    }
}

/// The scorer's step: every interval is scored at the paper's 50 µs control
/// interval, whatever the agent under test ticks at.
const SCORE_STEP: SimTime = SimTime::from_us(50);

/// What a scored run holds on its switches.
#[derive(Clone)]
pub enum Arm {
    /// `ecn` held static on every queue; the run is named by the label.
    Static(String, EcnConfig),
    /// One of the named policies.
    Policy(Policy),
    /// Whatever the installer puts on the switches — an experiment's own
    /// [`AccController`](acc_core::controller::AccController) — named by the
    /// label.
    Acc(String, Arc<dyn Fn(&mut Simulator) + Send + Sync>),
}

impl Arm {
    /// The run's label: the policy's name for [`Arm::Policy`].
    pub fn label(&self) -> &str {
        match self {
            Arm::Static(label, _) | Arm::Acc(label, _) => label,
            Arm::Policy(p) => p.name(),
        }
    }
}

/// One queue's tallies over the scored window: goodput and depth summed
/// over its intervals, how many, and whether any was busy.
#[derive(Clone, Default)]
struct QueueSums {
    gbps: f64,
    qlen_bytes: f64,
    intervals: u64,
    busy: bool,
}

/// One action's tallies: scored busy intervals it was held, then the
/// agent's own reward summed and counted over the whole run.
#[derive(Clone, Default)]
struct ActionSums {
    held: u64,
    own_reward: f64,
    own_count: u64,
}

/// The one incast yardstick: run `arm` on `spec` + `arrivals` under `cfg`
/// to `window.end` and score it the way the agent is paid (§3.3, eq. 2).
///
/// Every 50 µs (`SCORE_STEP`) the RDMA queue on every port of every switch is
/// read through the agent's own read ([`Simulator::with_controller`] +
/// `SwitchView::snapshot`) and goes through the agent's own
/// [`QueueObserver`]; the intervals that start at or after `window.start`
/// are scored. The row:
/// - `reward_w07`, `reward_w05`, `reward_w03`: the mean reward per busy
///   interval (any bytes sent or any standing queue; an idle one pays ω₂
///   whatever the action) at ω₁ = 0.7 (the paper's), 0.5 and 0.3, with
///   ω₂ = 1 − ω₁; `busy_intervals` counts them;
/// - `goodput_gbps`, `avg_queue_kb`: the time averages over the whole
///   window of the queues busy in it — what a [`QueueMark`] window reads,
///   so a setting that leaves its queue idle part of the time is not
///   flattered;
/// - on ACC arms, `ticks` (control ticks of the first switch's agent) and
///   `by_action`: per action, `held_frac`, the share of scored busy
///   intervals a queue held it (its `current_action` at the interval's
///   start), and `own_reward`, the mean of the agent's own `last_reward`
///   at the end of every busy interval of the run it was held over;
/// - the FCTs `overall`, `mice`, `elephant` (`null` when no flow
///   finished), `unfinished`, and `lossless_drops`.
pub fn score(
    h: &Harness,
    (spec, arrivals, cfg): (&TopologySpec, &[Arrival], SimConfig),
    arm: &Arm,
    window: std::ops::Range<SimTime>,
) -> Value {
    let scale = h.scale;
    let model = match *arm {
        Arm::Policy(p) => deployed_model(p, scale),
        _ => None,
    };
    let install = |sim: &mut Simulator| match arm {
        Arm::Static(_, ecn) => install_static(sim, StaticEcnPolicy::Fixed(*ecn)),
        Arm::Policy(p) => install_policy(sim, *p, scale),
        Arm::Acc(_, install) => install(sim),
    };
    let mut sc = h.scenario_with_faults(spec, cfg, arm.label(), model, arrivals, install, None);
    let topo = &sc.sim.core().topo;
    let switches: Vec<(NodeId, usize)> = topo
        .switches()
        .iter()
        .map(|&sw| (sw, topo.node(sw).ports.len()))
        .collect();
    let n = switches.iter().map(|&(_, ports)| ports).sum();
    let mut observers = vec![QueueObserver::new(1, Default::default(), SimTime::ZERO); n];
    let mut held: Vec<Option<usize>> = vec![None; n];
    let mut queues = vec![QueueSums::default(); n];
    // An ACC arm reports every action of its space, held or not.
    let first = switches[0].0;
    let n_actions = sc.sim.with_controller(first, |c, _| {
        trainer::acc_of(c).map_or(0, |a| a.agent().borrow_mut().get().n_actions())
    });
    let mut actions = vec![ActionSums::default(); n_actions];
    // The paper's weights exactly, then ω₁ = 0.5 and 0.3.
    let w = |w1: f64| RewardConfig {
        w_throughput: w1,
        w_delay: 1.0 - w1,
        ..RewardConfig::default()
    };
    let weightings = [RewardConfig::default(), w(0.5), w(0.3)];
    let (mut rewards, mut busy, mut last) = ([0.0f64; 3], 0u64, SimTime::ZERO);
    run_stepped(&mut sc.sim, window.end, SCORE_STEP, |sim| {
        let now = sim.now();
        let scored = last >= window.start;
        last = now;
        let mut q = 0;
        for &(sw, ports) in &switches {
            sim.with_controller(sw, |c, view| {
                let acc = trainer::acc_of(c);
                for port in (0..ports).map(|p| PortId(p as u16)) {
                    let snap = view.snapshot(port, PRIO_RDMA);
                    let action = acc
                        .as_deref()
                        .and_then(|a| a.current_action(port, PRIO_RDMA));
                    let was = std::mem::replace(&mut held[q], action);
                    let (iv, queue) = (observers[q].observe(&snap, now, 0.0), &mut queues[q]);
                    q += 1;
                    let Some(iv) = iv else {
                        continue;
                    };
                    let is_busy = iv.utilization > 0.0 || iv.avg_qlen_bytes > 0;
                    if let Some(a) = was.filter(|_| is_busy) {
                        actions[a].held += u64::from(scored);
                        if let Some(r) = acc.as_deref().and_then(|c| c.last_reward(port, PRIO_RDMA))
                        {
                            actions[a].own_reward += r;
                            actions[a].own_count += 1;
                        }
                    }
                    if !scored {
                        continue;
                    }
                    queue.gbps += iv.obs.tx_bytes as f64 * 8.0 / iv.obs.dt.as_secs_f64() / 1e9;
                    queue.qlen_bytes += iv.avg_qlen_bytes as f64;
                    queue.intervals += 1;
                    queue.busy |= is_busy;
                    if is_busy {
                        busy += 1;
                        for (sum, r) in rewards.iter_mut().zip(&weightings) {
                            *sum += r.reward(iv.utilization, iv.avg_qlen_bytes);
                        }
                    }
                }
            });
        }
    });

    let active: Vec<&QueueSums> = queues.iter().filter(|q| q.busy).collect();
    let intervals = active.iter().map(|q| q.intervals).sum::<u64>() as f64;
    let mean = |x: f64| x / busy as f64;
    let b = buckets_of(&sc.fct.borrow(), SimTime::ZERO);
    let fct = |s| (b.overall.count > 0).then(|| fct_json(s));
    let row = json!({
        "reward_w07": mean(rewards[0]),
        "reward_w05": mean(rewards[1]),
        "reward_w03": mean(rewards[2]),
        "busy_intervals": busy,
        "goodput_gbps": active.iter().map(|q| q.gbps).sum::<f64>() / intervals,
        "avg_queue_kb": active.iter().map(|q| q.qlen_bytes).sum::<f64>() / intervals / 1024.0,
        "overall": fct(&b.overall),
        "mice": fct(&b.mice),
        "elephant": fct(&b.elephant),
        "unfinished": b.unfinished,
        "lossless_drops": sc.sim.core().lossless_drops,
    });
    let ticks = sc
        .sim
        .with_controller(first, |c, _| trainer::acc_of(c).map(|a| a.stats.ticks));
    let Some(ticks) = ticks else {
        return row;
    };
    let held_total = actions.iter().map(|a| a.held).sum::<u64>().max(1) as f64;
    let by_action: Vec<Value> = actions
        .iter()
        .map(|a| {
            json!({
                "held_frac": a.held as f64 / held_total,
                "own_reward": a.own_reward / a.own_count as f64,
            })
        })
        .collect();
    with(row, json!({ "ticks": ticks, "by_action": by_action }))
}

/// The one switch the incast experiments run on: 16 hosts on 25 Gbit/s,
/// 500 ns links. The receiver is `hosts[15]`, behind [`INCAST_PORT`].
pub fn incast_fabric() -> (TopologySpec, Vec<NodeId>) {
    let spec = TopologySpec::single_switch(16, 25_000_000_000, SimTime::from_ns(500));
    let hosts = spec.build().hosts().to_vec();
    (spec, hosts)
}

/// The switch port that faces [`incast_fabric`]'s receiver.
pub const INCAST_PORT: PortId = PortId(15);

/// A sustained incast on [`incast_fabric`]: `flows` DCQCN flows of 1 GB,
/// enough to outlast any horizon, from each of `hosts[..senders]` to the
/// receiver at t = 0.
pub fn sustained_incast_traffic(senders: usize, flows: usize) -> (TopologySpec, Vec<Arrival>) {
    let (spec, hosts) = incast_fabric();
    let dcqcn = transport::CcKind::Dcqcn;
    let arrivals = gen::incast_wave(
        &hosts[..senders],
        hosts[15],
        flows,
        1_000_000_000,
        dcqcn,
        SimTime::ZERO,
    );
    (spec, arrivals)
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

/// Pretty-print a header for an experiment.
pub fn banner(id: &str, title: &str) {
    println!("\n==== {id}: {title} ====");
}

/// Write `doc` to `path` as pretty-printed JSON, creating the parent
/// directory: the one writer of every document `acc-bench` leaves behind —
/// results, the gate document and the profile artifact.
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
    /// by and trained on, so an edited config or traffic mix never loads a
    /// model trained under the old one.
    #[test]
    fn pretrained_cache_name_follows_the_offline_config() {
        let cfg = offline_config(Scale::QUICK);
        let hosts = TopologySpec::paper_testbed().build().hosts().to_vec();
        let traffic = offline_traffic(&hosts, Scale::QUICK);
        let engine = 7;
        let (path, digest) = pretrained_path(Scale::QUICK, &cfg, &traffic, engine);
        assert_eq!(
            path,
            format!("target/acc_pretrained_quick_{digest:016x}.json")
        );
        let path_of = |cfg: &AccConfig, traffic: &[Vec<Arrival>], engine| {
            pretrained_path(Scale::QUICK, cfg, traffic, engine).0
        };
        assert_eq!(path_of(&cfg, &traffic, engine), path);
        let mut edited = cfg.clone();
        edited.ddqn.eps_decay_steps += 1.0;
        assert_ne!(path_of(&edited, &traffic, engine), path);
        assert_ne!(path_of(&cfg, &traffic[1..], engine), path);
        let mut one_arrival = traffic.clone();
        one_arrival[3][0].msg.bytes += 1;
        assert_ne!(path_of(&cfg, &one_arrival, engine), path);
        assert_ne!(path_of(&cfg, &traffic, engine + 1), path);
        let full = offline_traffic(&hosts, Scale::FULL);
        assert_ne!(
            pretrained_path(Scale::FULL, &offline_config(Scale::FULL), &full, engine).1,
            digest
        );
    }

    /// The engine fingerprint is a function of the run alone — it repeats
    /// within a process — and what the engine does with a different sim
    /// seed names a different cache file.
    #[test]
    fn pretrained_cache_name_follows_the_engine() {
        let hosts = TopologySpec::paper_testbed().build().hosts().to_vec();
        let traffic = offline_traffic(&hosts, Scale::QUICK);
        let sim_seed = OFFLINE_SEEDS[0];
        let engine = engine_fingerprint(sim_seed, &traffic[0]);
        assert_eq!(engine_fingerprint(sim_seed, &traffic[0]), engine);
        let cfg = offline_config(Scale::QUICK);
        let reseeded = engine_fingerprint(sim_seed + 1, &traffic[0]);
        assert_ne!(
            pretrained_path(Scale::QUICK, &cfg, &traffic, reseeded).0,
            pretrained_path(Scale::QUICK, &cfg, &traffic, engine).0
        );
    }

    /// A cached bundle loads only when it validates. One weight edited in
    /// place keeps every shape, which a dimension check would load, but it
    /// breaks the integrity digest: the model is trained afresh and the
    /// cache replaced.
    #[test]
    fn an_edited_cached_bundle_is_rejected_and_replaced() {
        let dir = std::env::temp_dir().join(format!("acc-pretrained-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("acc_pretrained_quick_0.json");
        let bundle = |seed| {
            let model = Mlp::new(&[12, 8, 20], seed);
            let reward = acc_core::RewardConfig::default();
            DeployBundle::new(
                format!("seed {seed}"),
                model,
                ActionSpace::templates(),
                reward,
                3,
            )
        };
        let trained = load_or_train(&path, 0, || bundle(1));
        assert_eq!(trained.provenance, "seed 1");
        let loaded = load_or_train(&path, 0, || unreachable!("a valid cache loads"));
        assert_eq!(loaded.digest, trained.digest);

        let text = std::fs::read_to_string(&path).unwrap();
        let first = text.find("\"w\":[").unwrap() + 5;
        let end = first + text[first..].find(',').unwrap();
        let edited = format!("{}0.5{}", &text[..first], &text[end..]);
        let parsed: DeployBundle = serde_json::from_str(&edited).unwrap();
        assert_eq!(
            (parsed.model.input_dim(), parsed.model.output_dim()),
            (12, 20)
        );
        assert!(matches!(
            parsed.validate(),
            Err(DeployError::DigestMismatch { .. })
        ));
        std::fs::write(&path, edited).unwrap();
        assert_eq!(load_or_train(&path, 0, || bundle(2)).provenance, "seed 2");
        assert_eq!(DeployBundle::load(&path).unwrap().provenance, "seed 2");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A window's readouts are the register deltas over the marks' time
    /// apart: 3.125 GB sent in one second is 25 Gbit/s, and 40 000 bytes
    /// standing for the whole second average to 40 000.
    #[test]
    fn queue_window_between_two_marks() {
        let start = QueueMark {
            at: SimTime::from_ms(2),
            tx_bytes: 7_000,
            qlen_integral_byte_ps: 9_000_000,
        };
        let end = QueueMark {
            at: SimTime::from_ms(1_002),
            tx_bytes: 7_000 + 3_125_000_000,
            qlen_integral_byte_ps: 9_000_000 + 40_000 * 1_000_000_000_000,
        };
        let w = start.window_to(&end);
        assert_eq!(
            w,
            QueueWindow {
                goodput_gbps: 25.0,
                avg_queue_bytes: 40_000.0,
            }
        );
    }

    /// The scorer reads what a [`QueueMark`] window over the same span
    /// reads: on the 6×4 dumbbell with template 0 held static, and on
    /// fig1's 8×32 incast at K = 20 KB, whose queue idles part of the time.
    /// Goodput agrees to rounding; depth to the whole byte each interval's
    /// average is floored to.
    #[test]
    fn score_reads_what_a_queue_mark_window_reads() {
        let h = Harness::new(Scale::QUICK);
        let k = acc_core::reward::e_n(0);
        let ms = SimTime::from_ms;
        let cases = [
            (6, 4, ActionSpace::templates().get(0), 17, ms(5)..ms(10)),
            (
                8,
                32,
                EcnConfig::new(k, k, 1.0),
                SimConfig::default().seed,
                ms(3)..ms(9),
            ),
        ];
        for (senders, flows, ecn, seed, window) in cases {
            let (spec, arrivals) = sustained_incast_traffic(senders, flows);
            let cfg = sim_config(seed);
            let arm = Arm::Static("scored".into(), ecn);
            let s = score(&h, (&spec, &arrivals, cfg.clone()), &arm, window.clone());
            let install = |sim: &mut Simulator| install_static(sim, StaticEcnPolicy::Fixed(ecn));
            let mut sc = h.scenario_installed(&spec, cfg, "marked", &arrivals, install);
            let sw = sc.sim.core().topo.switches()[0];
            sc.sim.run_until(window.start);
            let start = QueueMark::read(&mut sc.sim, sw, INCAST_PORT, PRIO_RDMA);
            sc.sim.run_until(window.end);
            let w = start.window_to(&QueueMark::read(&mut sc.sim, sw, INCAST_PORT, PRIO_RDMA));
            let case = format!("{senders}x{flows}: {s} vs {w:?}");
            let goodput = num(&s["goodput_gbps"]);
            assert!((goodput / w.goodput_gbps - 1.0).abs() < 1e-9, "{case}");
            let depth = num(&s["avg_queue_kb"]) * 1024.0;
            assert!((depth - w.avg_queue_bytes).abs() <= 1.0, "{case}");
            assert!(w.avg_queue_bytes > 0.0, "{case}");
        }
    }

    /// The loop steps a whole `step` at a time, stops the last step at
    /// `until`, calls `f` after every step and leaves the clock at `until`.
    #[test]
    fn run_stepped_stops_the_last_step_at_until() {
        let spec = TopologySpec::single_switch(2, 25_000_000_000, SimTime::from_ns(500));
        let mut sim = Simulator::new(spec.build(), SimConfig::default());
        let mut calls = Vec::new();
        run_stepped(
            &mut sim,
            SimTime::from_ms(1),
            SimTime::from_us(300),
            |sim| {
                calls.push(sim.now());
            },
        );
        assert_eq!(calls, [300, 600, 900, 1000].map(SimTime::from_us));
        assert_eq!(sim.now(), SimTime::from_ms(1));
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
