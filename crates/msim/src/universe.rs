//! Launching SPMD programs over the virtual cluster.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use simnet::{ClusterSpec, CostModel, Placement, RankMap, Tracer};

use crate::comm::CommInner;
use crate::ctx::Ctx;
use crate::error::SimError;
use crate::exec::{self, ExecMode, PoolCore};
use crate::fault::{FaultPlan, SchedulePolicy};
use crate::ft::{Liveness, WaitError};
use crate::mailbox::Mailbox;
use crate::oob::OobBoard;
use crate::race::RaceState;

/// Whether buffers and messages carry real data or only sizes.
///
/// Virtual time is identical in both modes (the cost model only sees
/// lengths); `Phantom` exists so paper-scale experiments — 1536 ranks with
/// hundreds of megabytes of buffer *each* — fit in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataMode {
    /// Materialize and transport all data (correctness runs, tests).
    Real,
    /// Transport sizes only (figure harnesses at paper scale).
    Phantom,
}

/// Configuration of a simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The cluster: nodes and cores per node. One rank runs per core.
    pub spec: ClusterSpec,
    /// Communication/computation cost model.
    pub cost: CostModel,
    /// Rank→node placement policy (SMP-style block by default).
    pub placement: Placement,
    /// Real or phantom data.
    pub mode: DataMode,
    /// Record schedule events (off by default; used by structural tests).
    pub trace: bool,
    /// The stall a blocked receive, setup rendezvous or recovery
    /// roll-call tolerates before the run is declared deadlocked. It is
    /// counted on the executor's stall clock, which moves only while no
    /// rank is ready or running, and it is never slept: a receiver
    /// waiting on a rank that is busy is not deadlocked, however long the
    /// rank is busy, and a true deadlock is reported as soon as the pool
    /// has nothing else to expire first (docs/simulator.md, *Parking*).
    pub recv_timeout: Duration,
    /// Stack size per rank coroutine. Rank programs keep large data on
    /// the heap, so the default is modest to allow thousands of ranks.
    pub stack_size: usize,
    /// Injected faults and schedule perturbations (none by default).
    pub fault: FaultPlan,
    /// The width of the coroutine pool rank programs run on (default:
    /// `min(ranks, available_parallelism)`). See `docs/simulator.md`.
    pub exec: ExecMode,
    /// Run the happens-before race detector over every shared-window
    /// access (real-data universes only; see `docs/race-detection.md`).
    /// Defaults to the `MSIM_RACE` environment variable (`1` = on).
    pub race_detect: bool,
    /// Model-checker controller installed by [`crate::mcheck::explore`]:
    /// takes over every ready-queue pick and records each segment's
    /// footprint. `None` (always, outside the checker) leaves scheduling
    /// to [`FaultPlan::schedule`].
    pub(crate) mcheck_probe: Option<Arc<crate::mcheck::Probe>>,
}

impl SimConfig {
    /// A configuration with sensible defaults (SMP placement, real data,
    /// no tracing, 30 s deadlock timeout, 1 MiB stacks, pooled
    /// execution at the default width).
    pub fn new(spec: ClusterSpec, cost: CostModel) -> Self {
        Self {
            spec,
            cost,
            placement: Placement::SmpBlock,
            mode: DataMode::Real,
            trace: false,
            recv_timeout: Duration::from_secs(30),
            stack_size: 1 << 20,
            fault: FaultPlan::none(),
            exec: ExecMode::default(),
            race_detect: Self::race_from_env(),
            mcheck_probe: None,
        }
    }

    fn race_from_env() -> bool {
        matches!(std::env::var("MSIM_RACE").as_deref(), Ok("1"))
    }

    /// Use the given placement.
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Use phantom (size-only) data.
    pub fn phantom(mut self) -> Self {
        self.mode = DataMode::Phantom;
        self
    }

    /// Enable event tracing.
    pub fn traced(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Override the deadlock timeout (see [`SimConfig::recv_timeout`]).
    pub fn with_recv_timeout(mut self, timeout: Duration) -> Self {
        self.recv_timeout = timeout;
        self
    }

    /// Inject the given fault plan.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Use the given execution mode (pool width).
    pub fn with_exec(mut self, exec: ExecMode) -> Self {
        self.exec = exec;
        self
    }

    /// Use the given per-rank stack size (bytes).
    pub fn with_stack_size(mut self, stack_size: usize) -> Self {
        self.stack_size = stack_size;
        self
    }

    /// Enable or disable the happens-before race detector (overrides the
    /// `MSIM_RACE` default).
    pub fn with_race_detect(mut self, on: bool) -> Self {
        self.race_detect = on;
        self
    }

    /// Convenience: run under the standard seeded fuzz plan
    /// ([`FaultPlan::from_seed`]) — adversarial wall-clock scheduling plus
    /// a mild seeded cost perturbation. Equal seeds reproduce equal runs.
    pub fn fuzzed(mut self, seed: u64) -> Self {
        self.fault = FaultPlan::from_seed(seed, self.spec.total_cores());
        self
    }
}

/// Universe-wide state shared by all ranks.
pub(crate) struct Shared {
    pub(crate) cost: CostModel,
    pub(crate) map: RankMap,
    pub(crate) mailboxes: Vec<Mailbox>,
    pub(crate) tracer: Tracer,
    pub(crate) mode: DataMode,
    pub(crate) board: OobBoard,
    pub(crate) next_comm_id: AtomicU32,
    pub(crate) recv_timeout: Duration,
    pub(crate) world: Arc<CommInner>,
    pub(crate) fault: FaultPlan,
    /// The scheduler core every blocking wait parks through and every
    /// completion wakes through.
    pub(crate) exec: Arc<PoolCore>,
    /// Armed race detector (`None` when detection is off or the data
    /// mode is phantom — phantom windows have no storage to race on).
    pub(crate) race: Option<Arc<RaceState>>,
    /// Armed failure detector / liveness table (`None` unless the fault
    /// plan can actually lose a rank or a message — kills or drops).
    pub(crate) ft: Option<Arc<Liveness>>,
    /// Model-checker probe: when present, `ctx`/`window`/`comm` report
    /// every push, matched pop, failed poll, OOB rendezvous step, and
    /// window access to it (the footprint of the current schedule
    /// segment).
    pub(crate) probe: Option<Arc<crate::mcheck::Probe>>,
    /// Last operation label each rank published ([`Ctx::set_op_label`]);
    /// threaded into fault contexts so kill/executor reports name the
    /// interrupted collective.
    op_labels: Vec<Mutex<String>>,
    /// Live shared-window allocations (incremented at allocation,
    /// decremented when the node-wide storage drops). Read after every
    /// rank has finished to report leaks — see
    /// [`SimResult::open_windows`].
    pub(crate) live_windows: Arc<AtomicUsize>,
}

impl Shared {
    /// Publish rank `rank`'s current operation label.
    pub(crate) fn set_op_label(&self, rank: usize, label: &str) {
        if let Some(slot) = self.op_labels.get(rank) {
            let mut s = slot.lock().unwrap_or_else(PoisonError::into_inner);
            s.clear();
            s.push_str(label);
        }
    }

    /// The fault context for error reports attributed to `rank`: the
    /// fault plan, plus the rank's last published op label when any.
    pub(crate) fn fault_context_for(&self, rank: usize) -> String {
        let mut s = format!("{:?}", self.fault);
        if let Some(slot) = self.op_labels.get(rank) {
            let label = slot.lock().unwrap_or_else(PoisonError::into_inner);
            if !label.is_empty() {
                s.push_str(&format!("; last op of rank {rank}: {label}"));
            }
        }
        s
    }
}

/// Executor counters of one run, counted under the scheduler lock the
/// executor already holds (no allocation, no extra synchronisation).
/// Reported (`scale` writes them per point), never gated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Coroutine resumes (ready-queue pops).
    pub resumes: u64,
    /// Wakes that entered the executor: mailbox pushes of the key their
    /// receiver was blocked on, plus rendezvous and roll-call
    /// completions, one per parked member, plus one per parked rank a
    /// death or divert readied. A push whose receiver is running or
    /// waiting on another key never gets here.
    pub wakes: u64,
    /// Times the node-affine queue moved on to another node;
    /// `resumes / node_turns` is the mean run of same-node resumes. Zero
    /// where that queue is not the ready set: pools wider than one
    /// worker, seeded and controlled picks.
    pub node_turns: u64,
    /// Whether the coroutine stacks were carved from the mapping the
    /// launching thread kept from an earlier universe.
    pub arena_reused: bool,
    /// Bytes of address space in the stack mapping this run used.
    pub arena_mapped_bytes: u64,
}

/// The outcome of a run: each rank's return value and final virtual clock,
/// plus the event trace when enabled.
#[derive(Debug)]
pub struct SimResult<T> {
    /// Rank programs' return values, indexed by global rank.
    pub per_rank: Vec<T>,
    /// Final virtual time of each rank (µs), indexed by global rank.
    pub clocks: Vec<f64>,
    /// The event trace (empty unless tracing was enabled).
    pub tracer: Tracer,
    /// OS threads the executor used for rank programs: the pool width.
    /// The `scale` benchmark reports this as `peak_threads`.
    pub peak_threads: usize,
    /// Shared-window allocations still alive after every rank program
    /// returned (and its locals dropped). Nonzero means a window handle
    /// leaked into longer-lived state — the chaos harness pins this to
    /// zero after every campaign.
    pub open_windows: usize,
    /// Executor counters: resumes, wakes, node turns and the stack
    /// arena's provenance. Host-side observability — nothing modeled
    /// depends on them.
    pub stats: SimStats,
}

impl<T> SimResult<T> {
    /// The latest final clock — the completion time of the whole program.
    pub fn makespan(&self) -> f64 {
        self.clocks.iter().copied().fold(0.0, f64::max)
    }
}

/// The outcome of a fault-tolerant run ([`Universe::run_ft`]): like
/// [`SimResult`], but ranks lost to *injected* kills are tolerated and
/// reported in [`FtSimResult::failed`] instead of failing the run.
#[derive(Debug)]
pub struct FtSimResult<T> {
    /// Rank programs' return values, indexed by global rank; `None` for
    /// ranks that died from an injected kill.
    pub per_rank: Vec<Option<T>>,
    /// Global ranks that died from injected kills, ascending.
    pub failed: Vec<usize>,
    /// Final virtual time of each rank (µs); 0.0 for failed ranks.
    pub clocks: Vec<f64>,
    /// The event trace (empty unless tracing was enabled).
    pub tracer: Tracer,
    /// OS threads the executor used for rank programs.
    pub peak_threads: usize,
    /// Shared-window allocations still alive after every rank finished
    /// (see [`SimResult::open_windows`]).
    pub open_windows: usize,
    /// Executor counters (see [`SimResult::stats`]).
    pub stats: SimStats,
}

impl<T> FtSimResult<T> {
    /// The latest final clock among surviving ranks.
    pub fn makespan(&self) -> f64 {
        self.clocks.iter().copied().fold(0.0, f64::max)
    }
}

/// Entry point: runs SPMD programs.
pub struct Universe;

/// Raw per-rank outcomes of one launch, before error triage.
struct LaunchOut<T> {
    outcomes: Vec<Option<std::thread::Result<(T, f64)>>>,
    infra: Vec<(usize, String)>,
    peak_threads: usize,
    stats: SimStats,
    shared: Arc<Shared>,
}

/// Rough severity used to pick the root-cause error of a run: a genuine
/// rank panic outranks the deadlock timeouts it causes on its peers, and
/// an *injected* kill outranks the typed wait errors it causes — so the
/// reported error is always the fault, not a symptom, regardless of
/// wall-clock completion order.
fn error_priority(e: &SimError) -> u8 {
    if e.is_injected_kill() {
        3
    } else if e.is_panic() {
        2
    } else {
        1
    }
}

/// Convert a caught rank-panic payload into a [`SimError`].
fn payload_to_error(rank: usize, payload: &(dyn std::any::Any + Send)) -> SimError {
    if let Some(e) = payload.downcast_ref::<SimError>() {
        e.clone()
    } else if let Some(w) = payload.downcast_ref::<WaitError>() {
        SimError::RankPanicked {
            rank,
            message: w.to_string(),
        }
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        SimError::RankPanicked {
            rank,
            message: (*s).to_string(),
        }
    } else if let Some(s) = payload.downcast_ref::<String>() {
        SimError::RankPanicked {
            rank,
            message: s.clone(),
        }
    } else {
        SimError::RankPanicked {
            rank,
            message: "<non-string panic>".into(),
        }
    }
}

impl Universe {
    /// Run `f` once per rank over the configured cluster and collect every
    /// rank's result. Returns an error if any rank panics or a deadlock is
    /// suspected.
    pub fn run<T, F>(config: SimConfig, f: F) -> Result<SimResult<T>, SimError>
    where
        T: Send,
        F: Fn(&mut Ctx) -> T + Send + Sync,
    {
        let ft = Self::collect(config, f, false)?;
        Ok(SimResult {
            per_rank: (ft.per_rank.into_iter())
                .map(|v| v.expect("no kill was tolerated, so every rank has a value"))
                .collect(),
            clocks: ft.clocks,
            tracer: ft.tracer,
            peak_threads: ft.peak_threads,
            open_windows: ft.open_windows,
            stats: ft.stats,
        })
    }

    /// Fault-tolerant variant of [`Universe::run`]: ranks that die from
    /// an **injected** kill ([`crate::KillRule`]) are tolerated — their
    /// slots come back as `None` with the victims listed in
    /// [`FtSimResult::failed`] — while every other failure (genuine
    /// panics, deadlocks, unhandled [`crate::ft::WaitError`]s, races,
    /// executor trouble) still fails the run. This is the harness for
    /// programs that recover via `FaultPolicy::Shrink`/`Retry`: the
    /// survivors' results must be present and correct even though the
    /// victims are gone.
    pub fn run_ft<T, F>(config: SimConfig, f: F) -> Result<FtSimResult<T>, SimError>
    where
        T: Send,
        F: Fn(&mut Ctx) -> T + Send + Sync,
    {
        Self::collect(config, f, true)
    }

    /// The one collection pass behind [`Universe::run`] and
    /// [`Universe::run_ft`]: validate, launch, then surface the run's
    /// root-cause error ([`error_priority`]) or fold the per-rank
    /// outcomes. With `tolerate_kills` a rank lost to an injected kill is
    /// a `None` slot with a zero clock, listed in `failed`; without it
    /// the kill is the run's error like any other rank panic.
    fn collect<T, F>(
        config: SimConfig,
        f: F,
        tolerate_kills: bool,
    ) -> Result<FtSimResult<T>, SimError>
    where
        T: Send,
        F: Fn(&mut Ctx) -> T + Send + Sync,
    {
        Self::validate()?;
        let LaunchOut {
            outcomes,
            infra,
            peak_threads,
            stats,
            shared,
        } = Self::launch(config, f);
        let nranks = outcomes.len();
        Self::triage_infra(&infra, &outcomes, &shared)?;
        Self::race_sweep(&shared)?;
        let mut per_rank = Vec::with_capacity(nranks);
        let mut clocks = Vec::with_capacity(nranks);
        let mut failed = Vec::new();
        let mut first_error: Option<SimError> = None;
        for (rank, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                None => unreachable!("missing outcomes are handled above"),
                Some(Ok((value, clock))) => {
                    per_rank.push(Some(value));
                    clocks.push(clock);
                }
                Some(Err(payload)) => {
                    let err = payload_to_error(rank, payload.as_ref());
                    if tolerate_kills && err.is_injected_kill() {
                        failed.push(rank);
                        per_rank.push(None);
                        clocks.push(0.0);
                        continue;
                    }
                    let replace = first_error
                        .as_ref()
                        .is_none_or(|cur| error_priority(&err) > error_priority(cur));
                    if replace {
                        first_error = Some(err);
                    }
                }
            }
        }
        if let Some(err) = first_error {
            return Err(err);
        }
        Ok(FtSimResult {
            per_rank,
            failed,
            clocks,
            tracer: shared.tracer.clone(),
            peak_threads,
            open_windows: shared.live_windows.load(Ordering::SeqCst),
            stats,
        })
    }

    /// Reject a run the target cannot execute, *before* any rank program
    /// starts: ranks run only as coroutines, and a target without a
    /// context switch has none.
    fn validate() -> Result<(), SimError> {
        if !exec::POOL_SUPPORTED {
            return Err(SimError::UnsupportedExec {
                exec: "pooled".into(),
                feature: "this target (coroutine switches exist for unix x86-64 and aarch64 only)"
                    .into(),
            });
        }
        Ok(())
    }

    /// An infrastructure failure outranks everything: the run's other
    /// errors (deadlocks, missing outcomes) are its symptoms.
    fn triage_infra<T>(
        infra: &[(usize, String)],
        outcomes: &[Option<std::thread::Result<(T, f64)>>],
        shared: &Shared,
    ) -> Result<(), SimError> {
        if let Some((rank, message)) = infra.first() {
            return Err(SimError::ExecutorFailure {
                rank: *rank,
                message: message.clone(),
                fault_context: shared.fault_context_for(*rank),
            });
        }
        if let Some(rank) = outcomes.iter().position(|o| o.is_none()) {
            // No recorded infra failure but the rank never ran to
            // completion — still an executor-level failure.
            return Err(SimError::ExecutorFailure {
                rank,
                message: "rank never completed (executor gave up)".into(),
                fault_context: shared.fault_context_for(rank),
            });
        }
        Ok(())
    }

    /// The race sweep runs before per-rank errors are surfaced: a race
    /// must be reported even when a FaultPlan killed the racing rank
    /// mid-collective (the kill's panic and the deadlocks it causes
    /// would otherwise mask it); the fault context rides on the report.
    /// Infrastructure failures still win — with a broken executor the
    /// access log is not trustworthy.
    fn race_sweep(shared: &Shared) -> Result<(), SimError> {
        if let Some(race) = &shared.race {
            let (accesses, reports) = race.detect();
            shared.tracer.record(
                0,
                0.0,
                simnet::EventKind::RaceCheck {
                    accesses,
                    races: reports.len(),
                },
            );
            if !reports.is_empty() {
                // Attribute the context (fault plan + last op label) to
                // the lowest-ranked participant of the first report —
                // reports are sorted, so this is deterministic.
                let rank = reports
                    .iter()
                    .map(|r| r.first.rank.min(r.second.rank))
                    .min()
                    .unwrap_or(0);
                return Err(SimError::RaceDetected {
                    fault_context: shared.fault_context_for(rank),
                    reports,
                });
            }
        }
        Ok(())
    }

    /// Build the shared universe state and execute one rank program per
    /// rank, catching panics. Common to [`Universe::run`] and
    /// [`Universe::run_ft`].
    fn launch<T, F>(config: SimConfig, f: F) -> LaunchOut<T>
    where
        T: Send,
        F: Fn(&mut Ctx) -> T + Send + Sync,
    {
        let map = config.placement.build(&config.spec);
        let nranks = map.nranks();
        // Match keys carry communicator ranks as `u32`; checked here once
        // instead of at every message.
        assert!(
            u32::try_from(nranks).is_ok(),
            "{nranks} ranks exceed the u32 rank range of match keys"
        );
        // The model-checker controller: installed directly by
        // `mcheck::explore`, or reconstructed from a replayed
        // certificate's decision trace. It takes over every ready-queue
        // pick.
        let probe = config
            .mcheck_probe
            .clone()
            .or_else(|| match &config.fault.schedule {
                SchedulePolicy::Replay(cert) => {
                    Some(crate::mcheck::Probe::controlled(cert.decisions.clone()))
                }
                SchedulePolicy::Fifo | SchedulePolicy::Adversarial { .. } => None,
            });
        // OS threads that will run rank programs (and pop the ready set).
        // A controller's decision indices are only meaningful when picks
        // happen one at a time: with several pool workers racing through
        // the pick hook, replay would be silently nondeterministic. Clamp
        // controlled runs to the documented single-worker model.
        let workers = if probe.is_some() {
            1
        } else {
            config.exec.worker_count(nranks)
        };
        let pick = match (&probe, &config.fault.schedule) {
            (Some(p), _) => exec::PickPolicy::Controlled(Arc::clone(p)),
            // Under an adversarial schedule the ready queue is drawn in a
            // seeded order.
            (None, SchedulePolicy::Adversarial { seed, .. }) => {
                exec::PickPolicy::Seeded(simnet::rng::mix(*seed, 0xE0E0, 0, 0x9001))
            }
            (None, _) => exec::PickPolicy::Fifo,
        };
        let core = Arc::new(PoolCore::new(&map, pick, workers));
        let world = Arc::new(CommInner::new(0, (0..nranks).collect()));
        let shared = Arc::new(Shared {
            cost: config.cost,
            map,
            mailboxes: (0..nranks)
                .map(|r| Mailbox::new(r, Arc::clone(&core)))
                .collect(),
            tracer: if config.trace {
                Tracer::enabled()
            } else {
                Tracer::disabled()
            },
            mode: config.mode,
            board: OobBoard::new(),
            next_comm_id: AtomicU32::new(1),
            recv_timeout: config.recv_timeout,
            world,
            ft: config
                .fault
                .ft_armed()
                .then(|| Arc::new(Liveness::new(nranks, Arc::clone(&core)))),
            op_labels: (0..nranks).map(|_| Mutex::new(String::new())).collect(),
            fault: config.fault,
            exec: core,
            race: (config.race_detect && config.mode == DataMode::Real)
                .then(|| Arc::new(RaceState::new(nranks))),
            probe,
            live_windows: Arc::new(AtomicUsize::new(0)),
        });

        let (outcomes, infra, stats) = exec::run_pool(&shared, workers, config.stack_size, &f);
        LaunchOut {
            outcomes,
            infra,
            peak_threads: workers,
            stats,
            shared,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::msg::Payload;

    /// Run `f(shared, rank)` as every rank of a one-node universe of
    /// `nranks` phantom ranks on a pool of `workers`: how unit tests
    /// drive a protocol (a mailbox, a rendezvous, a consensus board) from
    /// several parties, each parking and waking as a rank does.
    pub(crate) fn on_ranks<T: Send>(
        nranks: usize,
        workers: usize,
        f: impl Fn(&Shared, usize) -> T + Send + Sync,
    ) -> Result<Vec<T>, SimError> {
        let cfg = SimConfig::new(ClusterSpec::regular(1, nranks), CostModel::uniform_test())
            .phantom()
            .with_exec(ExecMode::Pooled {
                workers: Some(workers),
            });
        Universe::run(cfg, |ctx| f(ctx.shared(), ctx.rank())).map(|r| r.per_rank)
    }

    fn small() -> SimConfig {
        SimConfig::new(ClusterSpec::regular(2, 2), CostModel::uniform_test())
    }

    #[test]
    fn ranks_see_their_ids() {
        let r = Universe::run(small(), |ctx| (ctx.rank(), ctx.nranks(), ctx.node())).unwrap();
        assert_eq!(r.per_rank, vec![(0, 4, 0), (1, 4, 0), (2, 4, 1), (3, 4, 1)]);
    }

    #[test]
    fn ping_pong_advances_clocks() {
        let r = Universe::run(small(), |ctx| {
            let world = ctx.world();
            if ctx.rank() == 0 {
                ctx.send(&world, 1, 0, Payload::empty());
                ctx.recv(&world, 1, 1);
            } else if ctx.rank() == 1 {
                ctx.recv(&world, 0, 0);
                ctx.send(&world, 0, 1, Payload::empty());
            }
            ctx.now()
        })
        .unwrap();
        // cost: o_send=o_recv=1, alpha_intra=1 (ranks 0,1 share node 0).
        // rank0 sends at t=1; arrival at rank1 = 1+1 = 2.
        // rank1: recv completes at max(0+1, 2) = 2, send done at 3;
        //        its reply arrives at rank0 at 3+1 = 4.
        // rank0: recv completes at max(1+1, 4) = 4.
        assert_eq!(r.per_rank[1], 3.0);
        assert_eq!(r.per_rank[0], 4.0);
        assert_eq!(r.per_rank[2], 0.0);
    }

    #[test]
    fn inter_node_costs_more_than_intra() {
        let run = |pair: (usize, usize)| {
            Universe::run(small(), move |ctx| {
                let world = ctx.world();
                if ctx.rank() == pair.0 {
                    ctx.send(&world, pair.1, 0, Payload::empty());
                    0.0
                } else if ctx.rank() == pair.1 {
                    ctx.recv(&world, pair.0, 0);
                    ctx.now()
                } else {
                    0.0
                }
            })
            .unwrap()
        };
        let intra = run((0, 1)).per_rank[1];
        let inter = run((0, 2)).per_rank[2];
        assert!(inter > intra, "inter={inter} intra={intra}");
    }

    #[test]
    fn deadlock_is_reported() {
        let cfg = small().with_recv_timeout(Duration::from_millis(50));
        let err = Universe::run(cfg, |ctx| {
            let world = ctx.world();
            if ctx.rank() == 0 {
                // Receive that nobody ever sends.
                ctx.recv(&world, 1, 42);
            }
        })
        .unwrap_err();
        match err {
            SimError::DeadlockSuspected { rank, tag, .. } => {
                assert_eq!(rank, 0);
                assert_eq!(tag, 42);
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn rank_panic_is_reported() {
        let err = Universe::run(small(), |ctx| {
            if ctx.rank() == 2 {
                panic!("intentional test panic");
            }
        })
        .unwrap_err();
        match err {
            SimError::RankPanicked { rank, message } => {
                assert_eq!(rank, 2);
                assert!(message.contains("intentional"));
            }
            other => panic!("expected rank panic, got {other}"),
        }
    }

    #[test]
    fn split_shared_gives_node_comms() {
        let r = Universe::run(small(), |ctx| {
            let world = ctx.world();
            let shm = world.split_shared(ctx);
            (shm.rank(), shm.size(), shm.members().to_vec())
        })
        .unwrap();
        assert_eq!(r.per_rank[0], (0, 2, vec![0, 1]));
        assert_eq!(r.per_rank[1], (1, 2, vec![0, 1]));
        assert_eq!(r.per_rank[2], (0, 2, vec![2, 3]));
        assert_eq!(r.per_rank[3], (1, 2, vec![2, 3]));
    }

    #[test]
    fn bridge_contains_only_leaders() {
        let r = Universe::run(small(), |ctx| {
            let world = ctx.world();
            let shm = world.split_shared(ctx);
            let bridge = world.split_bridge(ctx, &shm);
            bridge.map(|b| (b.rank(), b.size(), b.members().to_vec()))
        })
        .unwrap();
        assert_eq!(r.per_rank[0], Some((0, 2, vec![0, 2])));
        assert_eq!(r.per_rank[1], None);
        assert_eq!(r.per_rank[2], Some((1, 2, vec![0, 2])));
        assert_eq!(r.per_rank[3], None);
    }

    #[test]
    fn split_orders_by_key_then_parent_rank() {
        let r = Universe::run(small(), |ctx| {
            let world = ctx.world();
            // Everyone same color; reverse order by key.
            let key = -(ctx.rank() as i64);
            let c = world.split(ctx, Some(7), key).unwrap();
            (c.rank(), c.members().to_vec())
        })
        .unwrap();
        assert_eq!(r.per_rank[0], (3, vec![3, 2, 1, 0]));
        assert_eq!(r.per_rank[3], (0, vec![3, 2, 1, 0]));
    }

    #[test]
    fn traffic_on_sibling_comms_does_not_interfere() {
        // Two disjoint comms both do a 0->1 send with the same tag; the
        // context id keeps them apart.
        let r = Universe::run(small(), |ctx| {
            let world = ctx.world();
            let color = (ctx.rank() % 2) as i64;
            let c = world.split(ctx, Some(color), 0).unwrap();
            if c.rank() == 0 {
                let payload = Payload::Real(crate::bytes::Bytes::from(vec![ctx.rank() as u8]));
                ctx.send(&c, 1, 5, payload);
                0
            } else {
                ctx.recv(&c, 0, 5).bytes()[0]
            }
        })
        .unwrap();
        // comm color0 = {0,2}: rank2 receives byte 0.
        // comm color1 = {1,3}: rank3 receives byte 1.
        assert_eq!(r.per_rank[2], 0);
        assert_eq!(r.per_rank[3], 1);
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            Universe::run(small(), |ctx| {
                let world = ctx.world();
                // All-to-all ping storm with data-size-dependent costs.
                for peer in 0..ctx.nranks() {
                    if peer != ctx.rank() {
                        let payload =
                            Payload::Real(crate::bytes::Bytes::from(vec![0u8; 64 * (peer + 1)]));
                        ctx.send(&world, peer, 0, payload);
                    }
                }
                for peer in 0..ctx.nranks() {
                    if peer != ctx.rank() {
                        ctx.recv(&world, peer, 0);
                    }
                }
                ctx.now()
            })
            .unwrap()
            .clocks
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "virtual time must be deterministic");
    }

    #[test]
    fn makespan_is_max_clock() {
        let r = Universe::run(small(), |ctx| {
            ctx.compute(ctx.rank() as f64 * 100.0);
        })
        .unwrap();
        assert_eq!(r.makespan(), r.clocks[3]);
    }

    #[test]
    fn phantom_mode_rejects_real_data() {
        let cfg = small()
            .phantom()
            .with_recv_timeout(Duration::from_millis(100));
        let err = Universe::run(cfg, |ctx| {
            let world = ctx.world();
            if ctx.rank() == 0 {
                let payload = Payload::Real(crate::bytes::Bytes::from(vec![1u8, 2]));
                ctx.send(&world, 1, 0, payload);
            } else if ctx.rank() == 1 {
                ctx.recv(&world, 0, 0);
            }
        })
        .unwrap_err();
        assert!(matches!(err, SimError::RankPanicked { rank: 0, .. }));
    }

    #[test]
    fn buffers_follow_universe_mode() {
        let real = Universe::run(small(), |ctx| ctx.buf_zeroed::<f64>(4).is_phantom()).unwrap();
        assert!(real.per_rank.iter().all(|p| !p));
        let ph = Universe::run(small().phantom(), |ctx| {
            ctx.buf_zeroed::<f64>(4).is_phantom()
        })
        .unwrap();
        assert!(ph.per_rank.iter().all(|p| *p));
    }
}

#[cfg(test)]
mod nonblocking_tests {
    use super::*;
    use crate::msg::Payload;

    fn small() -> SimConfig {
        SimConfig::new(ClusterSpec::regular(1, 3), CostModel::uniform_test())
    }

    #[test]
    fn irecv_posted_early_overlaps_compute() {
        // Rank 1 posts the receive, computes 100 µs, then waits. The
        // message (arriving at ~2 µs) must not add to the 100 µs.
        let r = Universe::run(small(), |ctx| {
            let world = ctx.world();
            if ctx.rank() == 0 {
                ctx.send(&world, 1, 0, Payload::empty());
                0.0
            } else if ctx.rank() == 1 {
                let req = ctx.irecv(&world, 0, 0);
                ctx.compute(100.0);
                req.wait(ctx);
                ctx.now()
            } else {
                0.0
            }
        })
        .unwrap();
        // compute 100 + o_recv 1 = 101; arrival (~2) is absorbed.
        assert_eq!(r.per_rank[1], 101.0);
    }

    #[test]
    fn blocking_recv_does_not_overlap() {
        let r = Universe::run(small(), |ctx| {
            let world = ctx.world();
            if ctx.rank() == 0 {
                ctx.compute(50.0); // delay the send
                ctx.send(&world, 1, 0, Payload::empty());
                0.0
            } else if ctx.rank() == 1 {
                ctx.recv(&world, 0, 0); // waits for the late sender
                ctx.compute(100.0);
                ctx.now()
            } else {
                0.0
            }
        })
        .unwrap();
        // arrival at 50+1+1=52, then compute: 152.
        assert_eq!(r.per_rank[1], 152.0);
    }

    #[test]
    fn wait_all_preserves_posting_order() {
        let r = Universe::run(small(), |ctx| {
            let world = ctx.world();
            if ctx.rank() == 2 {
                let reqs = vec![ctx.irecv(&world, 0, 7), ctx.irecv(&world, 1, 7)];
                let payloads = crate::waitall(ctx, reqs);
                payloads.iter().map(|p| p.len()).collect::<Vec<_>>()
            } else {
                let data = vec![0u8; ctx.rank() + 1];
                ctx.send(&world, 2, 7, Payload::Real(crate::bytes::Bytes::from(data)));
                vec![]
            }
        })
        .unwrap();
        assert_eq!(r.per_rank[2], vec![1, 2]);
    }

    #[test]
    fn isend_wait_is_noop() {
        let r = Universe::run(small(), |ctx| {
            let world = ctx.world();
            if ctx.rank() == 0 {
                let req = ctx.isend(&world, 1, 0, Payload::empty());
                let t = ctx.now();
                req.wait(ctx);
                (ctx.now() - t, true)
            } else if ctx.rank() == 1 {
                ctx.recv(&world, 0, 0);
                (0.0, true)
            } else {
                (0.0, false)
            }
        })
        .unwrap();
        assert_eq!(r.per_rank[0].0, 0.0, "isend wait must be free");
    }
}
