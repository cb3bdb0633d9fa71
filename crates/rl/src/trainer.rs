//! Asynchronous training: the DDQN update runs beside the caller, not in it.
//!
//! ACC's agents are an *asynchronous* multi-agent DQN (§3.4): on a switch
//! the CPU trains while the chip forwards. Here the "chip" is the packet
//! engine's event loop, and nothing reads the result of a train step until
//! the same agent's next control tick, 50 µs of simulated time — some
//! 5,000 events — later. This module lets that stretch of the event loop
//! and the update run at once.
//!
//! # One control tick, two threads
//!
//! ```text
//! engine  | join(t-1) observe select apply submit(t) |  ~5,000 events  | join(t) observe ...
//! helper  |                                          | train(t)        |
//! ```
//!
//! A [`Seat`] is where an agent lives. [`Seat::submit`] *moves* the boxed
//! agent into a job (nothing is shared, nothing stays locked while it
//! runs); [`Seat::join`] and [`Seat::get`] move it back. There are three
//! join points, and no other way to reach the agent:
//!
//! 1. the top of the owner's next tick, before it observes;
//! 2. right after the submit when something reads the agent sooner — an
//!    experience exchange with the global replay, or an agent shared by
//!    several switches, whose next reader is the next switch of the same
//!    tick (such a job is submitted with `announce = false`: it stays out
//!    of the helpers' queue, so the join always finds it waiting);
//! 3. any accessor ([`Seat::get`]): model export, hot-swap, tests.
//!
//! There is one code path: **submit, then join, where join runs the job
//! itself if no helper has started it.** A host with one core spawns no
//! helper, so every join finds its job unstarted and runs it — that is the
//! inline path, not a second one.
//!
//! # The drained tail: a waiting engine works
//!
//! Once the last flow has finished there are no events between two ticks
//! and so nothing to overlap with: the engine submits six jobs and is back
//! at the first join before the helper is through the first. Waiting there
//! would leave a core idle. Instead a join whose own job is running on a
//! helper takes *another* queued job — from the back of the queue, the one
//! whose owner joins last, while helpers take from the front — runs it,
//! and looks again. It blocks only when its job is running elsewhere and
//! the queue is empty.
//!
//! # Why the result cannot depend on the schedule
//!
//! A train step is a pure function of one agent's own state: weights, Adam
//! moments, replay memory, RNG. That state is inside the job from submit
//! to join, and every read goes through a join, so no reader can see an
//! agent mid-update or before its update. Within one agent the order
//! select(t) → train(t) → observe/select(t+1) is the order of submit and
//! join, which keeps the RNG stream where the inline loop had it. Which
//! thread ran the job, and when, changes nothing the job can observe.
//! Everything that couples agents (the global-replay exchange) happens on
//! the caller's thread after a join, in the caller's order.
//!
//! # How many helpers
//!
//! [`Trainer::global`] serves every seat of the process from one queue and
//! `available_parallelism() - 1` helper threads, at most [`MAX_HELPERS`];
//! they are spawned by the first announced job and joined when the last
//! seat is gone. One simulation keeps about one helper busy while its
//! flows run, and its engine thread runs the rest. On `acc-online-incast`
//! (seed 7, two cores, host speed factor 1.4–1.9) a train step costs
//! 128–146 µs in situ; of a trial's 10,654 updates the helper ran
//! 7.4–8.0 k, busy 0.95–1.10 s of a 1.5–2.4 s trial, and the engine ran
//! the other 2.6–3.2 k, 55–77 % of them after the last flow finished at
//! 59.4 ms of the 90 ms horizon, where no packet event is left to overlap
//! (the drained tail above); joins slept 10–167 times, 5–11 ms in all.
//! `acc-bench --profile`'s control-plane table prints the counts
//! (`ran_on_helper`, `ran_on_engine`, `blocked_joins`) of any experiment
//! that builds a simulator. A job is
//! offered to them only while the *engine threads* — the threads whose
//! seats submit here — are fewer than the cores: a run that already has a
//! thread on every core (`--jobs`, `--shards`) has nothing to gain from a
//! helper and measured 9 % slower with one (EXPERIMENTS.md), so there
//! every job waits for its join, as on a single core.
//!
//! # Failure
//!
//! A panic inside a step is caught where it happens and re-raised by the
//! owner's join, whichever thread ran the job. Dropping a seat never
//! waits: a queued job is discarded, a running one is disowned and its
//! result dropped by whoever finishes it. Dropping the last handle to a
//! trainer stops and joins its helpers.

use crate::ddqn::DdqnAgent;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, Weak};
use std::thread::{JoinHandle, ThreadId};
use std::time::{Duration, Instant};

/// One update step: [`DdqnAgent::train_step`] or a reference of it.
/// Returns the minibatch loss when it trained.
pub type StepFn = fn(&mut DdqnAgent) -> Option<f32>;

/// Why waiting on the trainer's lock cannot fail.
const NEVER_POISONED: &str = "jobs run outside the trainer lock, so no panic can poison it";

/// Upper bound on the helper threads of [`Trainer::global`].
pub const MAX_HELPERS: usize = 3;

/// Who ran an update.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Worker {
    /// A thread that was joining: the owner itself, or another engine
    /// thread filling its own wait.
    Engine,
    /// Helper thread `k` of the trainer.
    Helper(usize),
}

/// What [`Seat::join`] hands back about a finished update.
#[derive(Clone, Copy, Debug)]
pub struct Finished {
    /// Loss of the last step that trained; `None` if none did.
    pub loss: Option<f32>,
    /// Who ran it.
    pub by: Worker,
    /// How long the join had to sleep because the job was running
    /// elsewhere and nothing else was queued; `None` if it never did.
    pub blocked: Option<Duration>,
    /// Wall-clock start and end of the update, when the job was submitted
    /// with `timed`.
    pub span: Option<(Instant, Instant)>,
}

/// Counts of where updates ran and how often a join had to sleep. They
/// depend on host timing, so they belong in profiles and perf output and
/// never in recorded JSONL, manifests or digests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrainerStats {
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs a helper thread ran.
    pub ran_on_helper: u64,
    /// Jobs an engine thread ran inside a join.
    pub ran_on_engine: u64,
    /// Joins that slept at least once.
    pub blocked_joins: u64,
    /// Total time those joins slept, nanoseconds.
    pub blocked_ns: u64,
}

impl TrainerStats {
    /// Tally one finished update.
    pub fn record(&mut self, f: &Finished) {
        match f.by {
            Worker::Helper(_) => self.ran_on_helper += 1,
            Worker::Engine => self.ran_on_engine += 1,
        }
        if let Some(d) = f.blocked {
            self.blocked_joins += 1;
            self.blocked_ns += d.as_nanos() as u64;
        }
    }
}

impl std::ops::AddAssign for TrainerStats {
    fn add_assign(&mut self, o: TrainerStats) {
        self.submitted += o.submitted;
        self.ran_on_helper += o.ran_on_helper;
        self.ran_on_engine += o.ran_on_engine;
        self.blocked_joins += o.blocked_joins;
        self.blocked_ns += o.blocked_ns;
    }
}

struct Job {
    agent: Box<DdqnAgent>,
    step: StepFn,
    steps: usize,
    timed: bool,
}

struct Outcome {
    /// The agent and its loss, or the payload of the panic that lost it.
    result: Result<(Box<DdqnAgent>, Option<f32>), Box<dyn Any + Send>>,
    by: Worker,
    span: Option<(Instant, Instant)>,
}

fn run(job: Job, by: Worker) -> Outcome {
    let Job {
        mut agent,
        step,
        steps,
        timed,
    } = job;
    let start = timed.then(Instant::now);
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut loss = None;
        for _ in 0..steps {
            if let Some(l) = step(&mut agent) {
                loss = Some(l);
            }
        }
        loss
    }));
    Outcome {
        result: result.map(|loss| (agent, loss)),
        by,
        span: start.map(|s| (s, Instant::now())),
    }
}

/// One seat's place in the trainer. Every transition happens under the
/// trainer's lock; jobs run outside it.
enum Slot {
    /// No seat owns it.
    Free,
    /// Owned; the agent is home.
    Idle,
    /// Submitted, not started. Its index is in the queue iff it was
    /// announced.
    Queued(Job),
    /// Some thread is running the job.
    Running,
    /// Running, and the seat is gone: whoever finishes frees the slot.
    Disowned,
    /// Finished, not yet joined.
    Done(Outcome),
}

struct State {
    slots: Vec<Slot>,
    /// Announced, unstarted jobs, oldest first.
    queue: VecDeque<usize>,
    /// The threads that submit here, with how many seats each has bound.
    engines: Vec<(ThreadId, usize)>,
    idle_helpers: usize,
    spawned: bool,
    helpers: Vec<JoinHandle<()>>,
    shutdown: bool,
}

impl State {
    /// Bind a seat of thread `engine` to a slot.
    fn claim(&mut self, engine: ThreadId) -> usize {
        match self.engines.iter_mut().find(|e| e.0 == engine) {
            Some(e) => e.1 += 1,
            None => self.engines.push((engine, 1)),
        }
        let i = self
            .slots
            .iter()
            .position(|s| matches!(s, Slot::Free))
            .unwrap_or_else(|| {
                self.slots.push(Slot::Free);
                self.slots.len() - 1
            });
        self.slots[i] = Slot::Idle;
        i
    }

    /// Take queued job `i` (already off the queue) to run it.
    fn start(&mut self, i: usize) -> Job {
        match std::mem::replace(&mut self.slots[i], Slot::Running) {
            Slot::Queued(job) => job,
            _ => unreachable!("every queue entry names a queued job"),
        }
    }

    fn finish(&mut self, i: usize, outcome: Outcome) {
        self.slots[i] = match self.slots[i] {
            Slot::Disowned => Slot::Free,
            _ => Slot::Done(outcome),
        };
    }

    fn release(&mut self, engine: ThreadId) {
        if let Some(pos) = self.engines.iter().position(|e| e.0 == engine) {
            self.engines[pos].1 -= 1;
            if self.engines[pos].1 == 0 {
                self.engines.swap_remove(pos);
            }
        }
    }

    fn unqueue(&mut self, i: usize) {
        if let Some(pos) = self.queue.iter().position(|&j| j == i) {
            self.queue.remove(pos);
        }
    }
}

struct Shared {
    state: Mutex<State>,
    /// Helpers sleep here for a job.
    work: Condvar,
    /// Joins sleep here for a running job.
    ended: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect(NEVER_POISONED)
    }
}

fn helper_loop(shared: &Shared, k: usize) {
    let mut st = shared.lock();
    while !st.shutdown {
        if let Some(i) = st.queue.pop_front() {
            let job = st.start(i);
            drop(st);
            let outcome = run(job, Worker::Helper(k));
            st = shared.lock();
            st.finish(i, outcome);
            shared.ended.notify_all();
        } else {
            st.idle_helpers += 1;
            st = shared.work.wait(st).expect(NEVER_POISONED);
            st.idle_helpers -= 1;
        }
    }
}

/// A job queue and the helper threads that serve it. See the module docs.
pub struct Trainer {
    shared: Arc<Shared>,
    /// Threads this trainer may keep busy, engine threads included.
    budget: usize,
}

impl Trainer {
    /// The process-wide trainer, created by whoever asks first and dropped
    /// with its last handle.
    pub fn global() -> Arc<Trainer> {
        static GLOBAL: Mutex<Weak<Trainer>> = Mutex::new(Weak::new());
        static CORES: OnceLock<usize> = OnceLock::new();
        let mut global = GLOBAL
            .lock()
            .expect("nothing panics while holding the registry lock");
        if let Some(t) = global.upgrade() {
            return t;
        }
        let cores =
            *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        let t = Trainer::with_budget(cores);
        *global = Arc::downgrade(&t);
        t
    }

    /// A private trainer with `n` helpers (at most [`MAX_HELPERS`]) beside
    /// one engine thread, for tests and harnesses that pin the schedule;
    /// everything else uses [`Trainer::global`].
    #[doc(hidden)]
    pub fn with_helpers(n: usize) -> Arc<Trainer> {
        Trainer::with_budget(n + 1)
    }

    fn with_budget(budget: usize) -> Arc<Trainer> {
        Arc::new(Trainer {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    slots: Vec::new(),
                    queue: VecDeque::new(),
                    engines: Vec::new(),
                    idle_helpers: 0,
                    spawned: false,
                    helpers: Vec::new(),
                    shutdown: false,
                }),
                work: Condvar::new(),
                ended: Condvar::new(),
            }),
            budget,
        })
    }

    /// Helper threads this trainer runs once a job has been announced.
    pub fn helpers(&self) -> usize {
        (self.budget - 1).min(MAX_HELPERS)
    }

    /// Put `job` in slot `i`; when announced, queue it for the helpers,
    /// spawning them on first use.
    fn post(&self, st: &mut State, i: usize, job: Job, announce: bool) {
        st.slots[i] = Slot::Queued(job);
        // No spare core, no helper: nobody would serve the queue's front,
        // and an engine only looks at its back while a helper runs its job.
        if !announce || st.engines.len() >= self.budget {
            return;
        }
        st.queue.push_back(i);
        if !st.spawned {
            st.spawned = true;
            for k in 0..self.helpers() {
                let shared = self.shared.clone();
                let spawned = std::thread::Builder::new()
                    .name(format!("rl-trainer-{k}"))
                    .spawn(move || helper_loop(&shared, k));
                // A host that refuses the thread trains in the joins.
                if let Ok(h) = spawned {
                    st.helpers.push(h);
                }
            }
        }
        if st.idle_helpers > 0 {
            self.shared.work.notify_one();
        }
    }
}

impl Drop for Trainer {
    fn drop(&mut self) {
        // Every seat holds a handle, so none is left and the queue is empty.
        let Ok(mut st) = self.shared.state.lock() else {
            return;
        };
        st.shutdown = true;
        let helpers = std::mem::take(&mut st.helpers);
        drop(st);
        self.shared.work.notify_all();
        for h in helpers {
            // A helper catches its jobs' panics; it has none of its own to
            // report.
            let _ = h.join();
        }
    }
}

/// Where an agent lives: home, or away in an update. See the module docs.
pub struct Seat {
    /// `None` while an update has it (or after one lost it to a panic).
    agent: Option<Box<DdqnAgent>>,
    /// Trainer, slot and submitting thread, bound at the first submit, so
    /// building a seat starts no thread and takes no lock.
    desk: Option<(Arc<Trainer>, usize, ThreadId)>,
    /// The trainer to bind to instead of [`Trainer::global`].
    private: Option<Arc<Trainer>>,
    /// The last update's report, until [`Seat::join`] collects it.
    finished: Option<Finished>,
}

impl Seat {
    /// Seat `agent`, to be trained by [`Trainer::global`].
    pub fn new(agent: DdqnAgent) -> Seat {
        Seat {
            agent: Some(Box::new(agent)),
            desk: None,
            private: None,
            finished: None,
        }
    }

    /// Seat `agent` at a private trainer (see [`Trainer::with_helpers`]).
    #[doc(hidden)]
    pub fn at(agent: DdqnAgent, trainer: Arc<Trainer>) -> Seat {
        let mut seat = Seat::new(agent);
        seat.private = Some(trainer);
        seat
    }

    /// True from a submit to the next [`Seat::join`] or [`Seat::get`]: an
    /// update has the agent, whether or not it has finished.
    pub fn is_away(&self) -> bool {
        self.agent.is_none()
    }

    /// The agent, brought home first if an update has it.
    pub fn get(&mut self) -> &mut DdqnAgent {
        self.bring_home();
        self.agent
            .as_deref_mut()
            .expect("the agent was lost to a panic in its update")
    }

    /// Start `steps` calls of `step` on the agent and return at once; the
    /// agent is away until the next [`Seat::join`] or [`Seat::get`].
    ///
    /// `announce` offers the job to the helper threads; pass `false` when
    /// the join follows immediately, so that it finds the job unstarted.
    /// `timed` stamps the update's start and end into [`Finished::span`].
    pub fn submit(&mut self, step: StepFn, steps: usize, announce: bool, timed: bool) {
        self.bring_home();
        let agent = self
            .agent
            .take()
            .expect("the agent was lost to a panic in its update");
        let job = Job {
            agent,
            step,
            steps,
            timed,
        };
        let private = &self.private;
        let (trainer, slot, _) = self.desk.get_or_insert_with(|| {
            let trainer = private.clone().unwrap_or_else(Trainer::global);
            let engine = std::thread::current().id();
            let slot = trainer.shared.lock().claim(engine);
            (trainer, slot, engine)
        });
        trainer.post(&mut trainer.shared.lock(), *slot, job, announce);
    }

    /// Bring the agent home and hand over the report of the last update
    /// that nobody has collected yet, if there is one.
    pub fn join(&mut self) -> Option<Finished> {
        self.bring_home();
        self.finished.take()
    }

    fn bring_home(&mut self) {
        if self.agent.is_some() {
            return;
        }
        let Some((trainer, i, _)) = &self.desk else {
            return;
        };
        let (shared, i) = (&trainer.shared, *i);
        let mut blocked_since = None;
        let mut st = shared.lock();
        let outcome = loop {
            match std::mem::replace(&mut st.slots[i], Slot::Idle) {
                // Nobody started it: run it here.
                Slot::Queued(job) => {
                    st.unqueue(i);
                    drop(st);
                    break run(job, Worker::Engine);
                }
                Slot::Done(outcome) => {
                    // Released before a caught panic is re-raised below, or
                    // the unwinding guard would poison the lock.
                    drop(st);
                    break outcome;
                }
                Slot::Running => {
                    st.slots[i] = Slot::Running;
                    // The owner of the newest job joins last: take that one.
                    if let Some(j) = st.queue.pop_back() {
                        let job = st.start(j);
                        drop(st);
                        let outcome = run(job, Worker::Engine);
                        st = shared.lock();
                        st.finish(j, outcome);
                        shared.ended.notify_all();
                    } else {
                        blocked_since.get_or_insert_with(Instant::now);
                        st = shared.ended.wait(st).expect(NEVER_POISONED);
                    }
                }
                // The agent is neither home nor in a job: a panic took it.
                Slot::Free | Slot::Idle | Slot::Disowned => return,
            }
        };
        match outcome.result {
            Ok((agent, loss)) => {
                self.agent = Some(agent);
                self.finished = Some(Finished {
                    loss,
                    by: outcome.by,
                    blocked: blocked_since.map(|t: Instant| t.elapsed()),
                    span: outcome.span,
                });
            }
            Err(panic) => resume_unwind(panic),
        }
    }
}

impl Drop for Seat {
    fn drop(&mut self) {
        let Some((trainer, i, engine)) = &self.desk else {
            return;
        };
        // Never wait, never panic: a poisoned lock means the process is
        // already unwinding from a bug in this module.
        let Ok(mut st) = trainer.shared.state.lock() else {
            return;
        };
        st.slots[*i] = match std::mem::replace(&mut st.slots[*i], Slot::Free) {
            Slot::Running => Slot::Disowned,
            Slot::Queued(_) => {
                st.unqueue(*i);
                Slot::Free
            }
            _ => Slot::Free,
        };
        st.release(*engine);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddqn::DdqnConfig;
    use crate::replay::Transition;

    fn small_cfg(prioritized: bool) -> DdqnConfig {
        let mut cfg = DdqnConfig::default();
        cfg.hidden = vec![8, 8];
        cfg.batch_size = 8;
        cfg.min_replay = 8;
        cfg.target_sync_every = 25;
        cfg.replay_capacity = 64;
        cfg.use_prioritized_replay = prioritized;
        cfg
    }

    fn state(i: u32) -> Vec<f32> {
        vec![(i % 3) as f32, (i % 5) as f32 * 0.2, (i % 7) as f32]
    }

    /// One round of what a control tick does to its agent, up to the update.
    fn act_and_observe(agent: &mut DdqnAgent, i: u32) {
        let s = state(i);
        let action = agent.select_action(&s);
        agent.observe(Transition {
            state: s,
            action,
            // One NaN reward near the end of the long test, so the anomaly
            // count moves too but the weights are finite for most of it.
            reward: if i == 1960 {
                f32::NAN
            } else {
                (i % 11) as f32 * 0.1 - 0.3
            },
            next_state: state(i + 1),
            done: i.is_multiple_of(17),
        });
    }

    fn warm_agent(seed: u64) -> DdqnAgent {
        let mut agent = DdqnAgent::new(3, 4, small_cfg(false), seed);
        for i in 0..16 {
            act_and_observe(&mut agent, i);
        }
        agent
    }

    /// A latch that `fn`-pointer steps can reach: one per test that uses it.
    struct Gate {
        open: Mutex<bool>,
        changed: Condvar,
    }

    impl Gate {
        const fn new() -> Gate {
            Gate {
                open: Mutex::new(false),
                changed: Condvar::new(),
            }
        }
        fn open(&self) {
            *self.open.lock().unwrap() = true;
            self.changed.notify_all();
        }
        fn wait(&self) {
            let mut open = self.open.lock().unwrap();
            while !*open {
                open = self.changed.wait(open).unwrap();
            }
        }
    }

    /// Block until `seat`'s job has left the queue (`Running`) or finished.
    fn wait_until(seat: &Seat, reached: fn(&Slot) -> bool) {
        let (trainer, i, _) = seat.desk.as_ref().expect("submitted");
        while !reached(&trainer.shared.lock().slots[*i]) {
            std::thread::yield_now();
        }
    }

    /// Test (a): whatever the helpers do, an agent trained through
    /// submit/join ends in the state plain `train_step` leaves it in —
    /// weights, Adam moments, replay, RNG position, counters, anomalies
    /// (the `Debug` rendering shows every field) — after the same losses
    /// (compared as bits: some are NaN).
    #[test]
    fn submit_join_is_bit_identical_to_inline_training() {
        for prioritized in [false, true] {
            let mut inline = DdqnAgent::new(3, 4, small_cfg(prioritized), 5);
            let mut inline_losses = Vec::new();
            for i in 0..2000 {
                act_and_observe(&mut inline, i);
                inline_losses.push(inline.train_step().map(f32::to_bits));
            }
            // Reward-prioritised sampling never picks the NaN reward.
            assert_eq!(inline.anomalies() > 0, !prioritized);

            for helpers in [0, 1, 2] {
                let trainer = Trainer::with_helpers(helpers);
                let agent = DdqnAgent::new(3, 4, small_cfg(prioritized), 5);
                let mut seat = Seat::at(agent, trainer);
                let mut stats = TrainerStats::default();
                let mut losses = Vec::new();
                for i in 0..2000 {
                    // `get` is a join point too; the report waits for `join`.
                    act_and_observe(seat.get(), i);
                    if let Some(done) = seat.join() {
                        stats.record(&done);
                        losses.push(done.loss.map(f32::to_bits));
                    }
                    if !seat.get().ready_to_train() {
                        losses.push(None);
                        continue;
                    }
                    stats.submitted += 1;
                    seat.submit(DdqnAgent::train_step, 1, i % 5 != 0, false);
                    if i % 3 == 0 {
                        let done = seat.join().expect("an update was in flight");
                        stats.record(&done);
                        losses.push(done.loss.map(f32::to_bits));
                    }
                }
                if let Some(done) = seat.join() {
                    stats.record(&done);
                    losses.push(done.loss.map(f32::to_bits));
                }
                let tag = format!("prioritized={prioritized} helpers={helpers}");
                assert_eq!(losses, inline_losses, "{tag}");
                assert_eq!(format!("{:?}", seat.get()), format!("{inline:?}"), "{tag}");
                assert_eq!(
                    stats.ran_on_helper + stats.ran_on_engine,
                    stats.submitted,
                    "{tag}"
                );
                if helpers == 0 {
                    assert_eq!((stats.ran_on_helper, stats.blocked_joins), (0, 0));
                }
            }
        }
    }

    #[test]
    fn announced_jobs_go_to_helpers_and_unannounced_ones_wait_for_the_join() {
        let trainer = Trainer::with_helpers(1);
        let mut a = Seat::at(warm_agent(1), trainer.clone());
        let mut b = Seat::at(warm_agent(2), trainer);
        a.submit(DdqnAgent::train_step, 1, true, true);
        wait_until(&a, |s| matches!(s, Slot::Done(_)));
        let done = a.join().expect("one update");
        assert_eq!(done.by, Worker::Helper(0));
        assert!(done.loss.is_some() && done.blocked.is_none());
        let (start, end) = done.span.expect("timed");
        assert!(start <= end);
        assert!(a.join().is_none(), "a report is handed over once");

        // The helper is alive and idle, yet never sees this one.
        b.submit(DdqnAgent::train_step, 1, false, false);
        let done = b.join().expect("one update");
        assert_eq!(done.by, Worker::Engine);
        assert!(done.span.is_none());
    }

    /// The helper-count rule: a job is offered to the helpers only while
    /// fewer engine threads submit here than the trainer may keep busy.
    #[test]
    fn a_second_engine_thread_on_a_full_host_gets_no_helper() {
        let trainer = Trainer::with_helpers(1); // two threads in all
        let mut mine = Seat::at(warm_agent(1), trainer.clone());
        mine.submit(DdqnAgent::train_step, 1, true, false);
        wait_until(&mine, |s| matches!(s, Slot::Done(_)));
        assert_eq!(mine.join().expect("one update").by, Worker::Helper(0));

        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut theirs = Seat::at(warm_agent(2), trainer.clone());
                theirs.submit(DdqnAgent::train_step, 1, true, false);
                assert!(trainer.shared.lock().queue.is_empty(), "not offered");
                assert_eq!(theirs.join().expect("one update").by, Worker::Engine);
                // Both cores are taken for as long as this seat lives.
                mine.submit(DdqnAgent::train_step, 1, true, false);
                assert!(trainer.shared.lock().queue.is_empty(), "not offered");
            });
        });
        assert_eq!(mine.join().expect("one update").by, Worker::Engine);
        mine.submit(DdqnAgent::train_step, 1, true, false);
        wait_until(&mine, |s| matches!(s, Slot::Done(_)));
        assert_eq!(mine.join().expect("one update").by, Worker::Helper(0));
    }

    static HELP_GATE: Gate = Gate::new();

    fn wait_for_help_gate(agent: &mut DdqnAgent) -> Option<f32> {
        HELP_GATE.wait();
        agent.train_step()
    }

    fn open_help_gate(agent: &mut DdqnAgent) -> Option<f32> {
        HELP_GATE.open();
        agent.train_step()
    }

    /// The drained-tail rule: a join whose own job is running on the helper
    /// runs the newest queued job instead of sleeping. Here that job is
    /// what lets the helper finish, so the test hangs if the rule breaks.
    #[test]
    fn a_join_runs_other_queued_jobs_while_its_own_is_running() {
        let trainer = Trainer::with_helpers(1);
        let mut a = Seat::at(warm_agent(1), trainer.clone());
        let mut b = Seat::at(warm_agent(2), trainer);
        a.submit(wait_for_help_gate, 1, true, false);
        wait_until(&a, |s| matches!(s, Slot::Running));
        b.submit(open_help_gate, 1, true, false);
        assert_eq!(a.join().expect("one update").by, Worker::Helper(0));
        let done = b.join().expect("one update");
        assert_eq!(done.by, Worker::Engine);
        assert!(done.blocked.is_none());
    }

    fn boom(_: &mut DdqnAgent) -> Option<f32> {
        panic!("boom in a train step");
    }

    /// Test (d), panic: it surfaces at the owner's join whichever thread
    /// ran the job, the trainer stays usable, and the lost agent is
    /// reported as lost rather than waited for.
    #[test]
    fn a_panicking_step_re_raises_at_the_join() {
        for helpers in [0, 1] {
            let trainer = Trainer::with_helpers(helpers);
            let mut seat = Seat::at(warm_agent(1), trainer.clone());
            seat.submit(boom, 1, true, false);
            if helpers == 1 {
                wait_until(&seat, |s| matches!(s, Slot::Done(_)));
            }
            let err = catch_unwind(AssertUnwindSafe(|| seat.join())).expect_err("re-raised");
            assert_eq!(err.downcast_ref::<&str>(), Some(&"boom in a train step"));
            let err = catch_unwind(AssertUnwindSafe(|| seat.get().train_steps()))
                .expect_err("the agent is gone");
            assert!(err
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("lost to a panic")));

            let mut other = Seat::at(warm_agent(2), trainer);
            other.submit(DdqnAgent::train_step, 1, true, false);
            assert!(other.join().expect("one update").loss.is_some());
        }
    }

    static DROP_GATE: Gate = Gate::new();

    fn wait_for_drop_gate(agent: &mut DdqnAgent) -> Option<f32> {
        DROP_GATE.wait();
        agent.train_step()
    }

    /// Test (d), drop: a seat dropped with its job queued or running never
    /// waits, its slot is reused, and the last trainer handle takes the
    /// helper thread with it.
    #[test]
    fn dropping_seats_and_trainer_with_jobs_in_flight() {
        let trainer = Trainer::with_helpers(1);
        let shared = trainer.shared.clone();

        let mut running = Seat::at(warm_agent(1), trainer.clone());
        running.submit(wait_for_drop_gate, 1, true, false);
        wait_until(&running, |s| matches!(s, Slot::Running));
        let mut queued = Seat::at(warm_agent(2), trainer.clone());
        queued.submit(DdqnAgent::train_step, 1, true, false);
        assert_eq!(shared.lock().queue.len(), 1);

        drop(queued);
        drop(running);
        {
            let st = shared.lock();
            assert!(st.queue.is_empty(), "the queued job went with its seat");
            assert!(matches!(st.slots[0], Slot::Disowned));
            assert!(matches!(st.slots[1], Slot::Free));
        }
        let mut next = Seat::at(warm_agent(3), trainer.clone());
        next.submit(DdqnAgent::train_step, 1, false, false);
        assert_eq!(next.desk.as_ref().map(|d| d.1), Some(1), "slot reused");
        drop(next);

        assert_eq!(Arc::strong_count(&shared), 3, "trainer, helper, this test");
        DROP_GATE.open();
        drop(trainer);
        assert_eq!(Arc::strong_count(&shared), 1, "the helper was joined");
        assert!(shared.lock().slots.iter().all(|s| matches!(s, Slot::Free)));
    }

    #[test]
    fn nothing_is_spawned_before_the_first_announced_job() {
        let trainer = Trainer::with_helpers(2);
        let mut seat = Seat::at(warm_agent(1), trainer.clone());
        assert!(seat.desk.is_none(), "a new seat has taken no lock");
        seat.submit(DdqnAgent::train_step, 1, false, false);
        seat.join();
        assert_eq!(Arc::strong_count(&trainer.shared), 1, "no helper yet");
        seat.submit(DdqnAgent::train_step, 1, true, false);
        seat.join();
        assert_eq!(Arc::strong_count(&trainer.shared), 3);
    }

    #[test]
    fn the_global_trainer_is_shared_and_sized_from_the_host() {
        let a = Trainer::global();
        let b = Trainer::global();
        assert!(Arc::ptr_eq(&a, &b));
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(a.helpers(), (cores - 1).min(MAX_HELPERS));
        assert_eq!(Trainer::with_helpers(0).helpers(), 0);
        assert_eq!(Trainer::with_helpers(2).helpers(), 2);
    }
}
