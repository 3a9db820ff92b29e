//! Deterministic fault injection and schedule fuzzing.
//!
//! The journal version of the source paper (Zhou et al., arXiv:2007.11496)
//! stresses that the hard part of hybrid MPI+MPI collectives is the
//! *synchronization protocol* around the shared-memory windows — exactly
//! the class of bug that hides behind one lucky thread schedule. This
//! module gives every test an adversary:
//!
//! * [`SchedulePolicy::Adversarial`] — perturbs the **wall-clock**
//!   execution of ranks (seeded sleeps at message operations, seeded
//!   ready-queue picks). Virtual time is computed
//!   from the executed schedule alone, so a correct program must produce
//!   *bit-identical* results, clocks and traces under every schedule
//!   seed; any divergence is a real synchronization bug.
//! * [`simnet::Perturbation`] (carried in [`FaultPlan::perturb`]) —
//!   perturbs **virtual time**: per-message latency jitter, straggler
//!   ranks, slow cores. Results must still match the oracle; virtual times
//!   legitimately change, but deterministically per seed.
//! * [`KillRule`] — kills a rank at a chosen operation index by panicking
//!   its coroutine. [`crate::Universe::run`] must then surface
//!   [`crate::SimError::RankPanicked`] (for the victim) or
//!   [`crate::SimError::DeadlockSuspected`] (for peers blocked on it)
//!   instead of hanging.
//!
//! Everything is derived by pure hashing from the plan's seeds
//! ([`simnet::rng::mix`]), so a failing schedule is reproduced exactly by
//! re-running with the same [`FaultPlan`]. See `docs/testing.md`.

use std::time::Duration;

use simnet::rng::mix;
use simnet::Perturbation;

/// Marker embedded in the panic message of an injected kill, so tests can
/// distinguish injected deaths from genuine bugs.
pub const KILL_MARKER: &str = "fault-injection kill";

/// How ranks are scheduled in wall-clock time.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum SchedulePolicy {
    /// FIFO ready queues.
    #[default]
    Fifo,
    /// Adversarial seeded scheduling: every message operation may sleep a
    /// hashed amount of wall-clock time, and the pool picks its next
    /// ready rank by a seeded hash. Packets are matchable the
    /// moment they are pushed: every receive names its `(comm, src, tag)`
    /// key and nothing iterates a mailbox, so delaying or reordering
    /// deliveries across keys could not change any result, clock, trace
    /// or pick.
    Adversarial {
        /// Seed for all schedule decisions.
        seed: u64,
        /// Upper bound (exclusive) of the injected wall-clock sleep per
        /// message operation, in microseconds. 0 disables sleeping.
        max_sleep_us: u64,
    },
    /// Deterministic replay of a model-checker counterexample: the
    /// certificate's decision trace drives every ready-queue pick of the
    /// pool (clamped to one worker), reproducing the recorded schedule —
    /// and therefore the recorded violation — byte-identically. Decisions
    /// past the trace (and decisions naming a rank that is not ready)
    /// fall back to the canonical default, the lowest ready rank. No
    /// wall-clock sleeps are injected. See `docs/model-checking.md`.
    Replay(crate::mcheck::ScheduleCertificate),
}

impl SchedulePolicy {
    /// The adversarial policy with default intensities for `seed`.
    pub fn adversarial(seed: u64) -> Self {
        SchedulePolicy::Adversarial {
            seed,
            max_sleep_us: 40,
        }
    }
}

/// Kill a rank at a given operation index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KillRule {
    /// Global rank to kill.
    pub rank: usize,
    /// Operation index (the rank's `op_count` at entry to a `Ctx`
    /// operation) at which the rank dies. Op 0 is the rank's first
    /// operation.
    pub at_op: u64,
}

/// Kill **every rank on a node** at a given per-rank operation index —
/// the correlated failure that takes out a whole leader group (and, under
/// multi-leader hierarchies, every leader slot of the node) at once.
/// Each resident rank dies at entry to its own `at_op`-th operation, so
/// the deaths are deterministic per rank even though they are correlated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeKillRule {
    /// Node index (placement node id) whose ranks all die.
    pub node: usize,
    /// Per-rank operation index at which each resident rank dies.
    pub at_op: u64,
}

/// Sender-side retransmission policy for transport message loss injected
/// via [`simnet::Perturbation::drop_prob`]. Each failed attempt charges a
/// deterministic virtual retransmit-timeout penalty that grows by
/// `backoff` per attempt, so perturbed clocks stay a pure function of the
/// seed.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Maximum retransmissions after the first attempt (so a message is
    /// tried `max_retries + 1` times before being declared lost).
    pub max_retries: u32,
    /// Virtual retransmit timeout charged for the first failed attempt
    /// (µs).
    pub timeout_us: f64,
    /// Multiplier applied to the timeout for each subsequent failed
    /// attempt (exponential backoff).
    pub backoff: f64,
    /// Upper bound (exclusive) of seeded jitter added to each failed
    /// attempt's timeout (µs). Desynchronizes retransmission storms —
    /// correlated losses (a partition, a flapping link) would otherwise
    /// retry all senders in lockstep — while staying a pure function of
    /// `(jitter_seed, src, dst, seq, attempt)`, so perturbed clocks
    /// remain bit-identical per seed. `0.0` (the default) disables
    /// jitter and reproduces the unjittered schedule exactly.
    pub jitter_us: f64,
    /// Seed for the jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            timeout_us: 50.0,
            backoff: 2.0,
            jitter_us: 0.0,
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// Builder: add seeded per-attempt jitter in `[0, us)` to every
    /// failed attempt's retransmit timeout.
    pub fn with_jitter(mut self, seed: u64, us: f64) -> Self {
        assert!(us >= 0.0, "jitter bound must be non-negative");
        self.jitter_seed = seed;
        self.jitter_us = us;
        self
    }

    /// Seeded jitter (µs) added to the timeout of the `attempt`-th failed
    /// attempt of the `seq`-th message from `src` to `dst`. Pure in its
    /// arguments; exactly `0.0` when jitter is disabled.
    pub fn jitter_for(&self, src: usize, dst: usize, seq: u64, attempt: u32) -> f64 {
        if self.jitter_us == 0.0 {
            return 0.0;
        }
        simnet::rng::mix_unit(
            self.jitter_seed ^ 0x1177_E25E_ED00_0000,
            src as u64,
            dst as u64,
            seq.wrapping_mul(64).wrapping_add(attempt as u64),
        ) * self.jitter_us
    }

    /// Total virtual penalty (µs) accrued after `failed` failed attempts,
    /// ignoring jitter: `Σ_{i<failed} timeout_us · backoff^i`.
    pub fn penalty_us(&self, failed: u32) -> f64 {
        let mut total = 0.0;
        let mut t = self.timeout_us;
        for _ in 0..failed {
            total += t;
            t *= self.backoff;
        }
        total
    }

    /// Total virtual penalty (µs) accrued after `failed` failed attempts
    /// of one specific message, jitter included. Accumulates in the same
    /// order as [`RetryPolicy::penalty_us`], so with zero jitter the two
    /// are bit-identical.
    pub fn penalty_us_for(&self, failed: u32, src: usize, dst: usize, seq: u64) -> f64 {
        let mut total = 0.0;
        let mut t = self.timeout_us;
        for attempt in 0..failed {
            total += t + self.jitter_for(src, dst, seq, attempt);
            t *= self.backoff;
        }
        total
    }
}

/// A complete, seeded description of the adversities injected into one
/// run. The same plan always reproduces the same behavior.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Wall-clock schedule perturbation (does not affect virtual time).
    pub schedule: SchedulePolicy,
    /// Virtual-time cost perturbation (affects clocks deterministically).
    pub perturb: Perturbation,
    /// Ranks to kill, and when.
    pub kills: Vec<KillRule>,
    /// Whole nodes to kill (every resident rank at once), and when.
    pub node_kills: Vec<NodeKillRule>,
    /// Sender-side retransmission policy (consulted only when
    /// `perturb.drop_prob > 0`).
    pub retry: RetryPolicy,
    /// The stall a wait that message loss could starve (and a disarmed
    /// deadline wait) tolerates before declaring
    /// [`crate::ft::WaitError::Timeout`]. Counted on the executor's stall
    /// clock and never slept, like [`crate::SimConfig::recv_timeout`];
    /// shorter than the deadlock timeout, so a lost message is reported
    /// before a stalled setup rendezvous gives up. `None` uses the
    /// default (5 s).
    pub detect_timeout: Option<Duration>,
}

/// Default detection budget, in stall time.
pub(crate) const DEFAULT_DETECT_TIMEOUT: Duration = Duration::from_secs(5);

impl FaultPlan {
    /// The empty plan: no faults, natural scheduling, nominal costs.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the plan injects nothing.
    pub fn is_none(&self) -> bool {
        self.schedule == SchedulePolicy::Fifo
            && self.perturb.is_none()
            && self.kills.is_empty()
            && self.node_kills.is_empty()
    }

    /// The standard randomized plan for seed `seed` on a cluster of
    /// `nranks` ranks: adversarial scheduling plus a mild cost
    /// perturbation (message jitter and one straggler rank). No kills.
    ///
    /// This is the plan the conformance suite runs every collective under;
    /// equal seeds produce equal plans, and a failing seed printed by a
    /// test reproduces the failure exactly.
    pub fn from_seed(seed: u64, nranks: usize) -> Self {
        Self {
            schedule: SchedulePolicy::adversarial(mix(seed, 0x5C4E_D01E, 0, 0)),
            perturb: Perturbation::from_seed(mix(seed, 0xC057, 0, 0), nranks),
            ..Self::default()
        }
    }

    /// Builder: use the given schedule policy.
    pub fn with_schedule(mut self, schedule: SchedulePolicy) -> Self {
        self.schedule = schedule;
        self
    }

    /// Builder: use the given virtual-cost perturbation.
    pub fn with_perturbation(mut self, perturb: Perturbation) -> Self {
        self.perturb = perturb;
        self
    }

    /// Builder: kill `rank` at operation `at_op`.
    pub fn with_kill(mut self, rank: usize, at_op: u64) -> Self {
        self.kills.push(KillRule { rank, at_op });
        self
    }

    /// Builder: kill every rank on `node` at (each rank's own) operation
    /// `at_op` — a correlated whole-node failure.
    pub fn with_node_kill(mut self, node: usize, at_op: u64) -> Self {
        self.node_kills.push(NodeKillRule { node, at_op });
        self
    }

    /// Builder: make `rank` a straggler — scale its modeled compute by
    /// `scale` and deterministically lose the first `drop_first` attempts
    /// of every message it sends, so peers exercise the detect-timeout /
    /// retry-backoff paths without anyone dying.
    pub fn with_straggler(mut self, rank: usize, scale: f64, drop_first: u32) -> Self {
        self.perturb = self.perturb.with_slow_rank(rank, scale);
        if drop_first > 0 {
            self.perturb = self.perturb.with_drop_first(rank, drop_first);
        }
        self
    }

    /// Builder: blackhole traffic between `nodes` and the rest of the
    /// cluster for virtual send times in `[from_us, until_us)` (shorthand
    /// for [`simnet::Perturbation::with_partition`]).
    pub fn with_partition(mut self, nodes: Vec<usize>, from_us: f64, until_us: f64) -> Self {
        self.perturb = self.perturb.with_partition(nodes, from_us, until_us);
        self
    }

    /// Builder: flap the `node_a ↔ node_b` link (shorthand for
    /// [`simnet::Perturbation::with_link_flap`]).
    pub fn with_link_flap(
        mut self,
        node_a: usize,
        node_b: usize,
        period_us: f64,
        down_frac: f64,
        drop_prob: f64,
    ) -> Self {
        self.perturb = self
            .perturb
            .with_link_flap(node_a, node_b, period_us, down_frac, drop_prob);
        self
    }

    /// Builder: drop each transmission attempt with probability `p`
    /// (shorthand for setting [`simnet::Perturbation::drop_prob`]).
    pub fn with_drop(mut self, p: f64) -> Self {
        self.perturb = self.perturb.with_drop_prob(p);
        self
    }

    /// Builder: use the given sender-side retransmission policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Builder: the stall a wait tolerates before declaring a timeout
    /// (see [`FaultPlan::detect_timeout`]). A stall is never slept, so
    /// the budget changes which parked wait expires first, not how long
    /// a run takes.
    pub fn with_detect_timeout(mut self, d: Duration) -> Self {
        self.detect_timeout = Some(d);
        self
    }

    /// Effective detection budget.
    pub(crate) fn detect_timeout(&self) -> Duration {
        self.detect_timeout.unwrap_or(DEFAULT_DETECT_TIMEOUT)
    }

    /// Whether the fault-tolerance machinery (liveness table, armed wait
    /// paths, retry transport) is active for this plan: something can
    /// actually die or get lost. Pure latency/schedule fuzzing stays on
    /// the plain fast paths so disarmed runs are bit-identical to a build
    /// without the detector.
    pub(crate) fn ft_armed(&self) -> bool {
        !self.kills.is_empty() || !self.node_kills.is_empty() || self.perturb.has_drops()
    }

    /// The operation index at which `rank` dies, if any (earliest rule
    /// wins when several target the same rank).
    pub(crate) fn kill_op_of(&self, rank: usize) -> Option<u64> {
        self.kills
            .iter()
            .filter(|k| k.rank == rank)
            .map(|k| k.at_op)
            .min()
    }

    /// The operation index at which every rank on `node` dies, if any
    /// (earliest rule wins).
    pub(crate) fn node_kill_op_of(&self, node: usize) -> Option<u64> {
        self.node_kills
            .iter()
            .filter(|k| k.node == node)
            .map(|k| k.at_op)
            .min()
    }

    /// The seeded wall-clock sleep injected before `rank`'s `op`-th
    /// message operation, if the schedule is adversarial.
    pub(crate) fn sched_sleep(&self, rank: usize, op: u64) -> Option<Duration> {
        match self.schedule {
            SchedulePolicy::Fifo | SchedulePolicy::Replay(_) => None,
            SchedulePolicy::Adversarial { seed, max_sleep_us } => {
                if max_sleep_us == 0 {
                    return None;
                }
                let us = mix(seed, rank as u64, op, 0x51EE) % max_sleep_us;
                (us > 0).then(|| Duration::from_micros(us))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_empty() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        assert_eq!(p.kill_op_of(0), None);
        assert_eq!(p.sched_sleep(0, 0), None);
    }

    #[test]
    fn from_seed_is_reproducible_and_nonempty() {
        assert_eq!(FaultPlan::from_seed(3, 8), FaultPlan::from_seed(3, 8));
        assert_ne!(FaultPlan::from_seed(3, 8), FaultPlan::from_seed(4, 8));
        assert!(!FaultPlan::from_seed(3, 8).is_none());
    }

    #[test]
    fn retry_penalty_backs_off_exponentially() {
        let r = RetryPolicy {
            max_retries: 3,
            timeout_us: 10.0,
            backoff: 2.0,
            jitter_us: 0.0,
            jitter_seed: 0,
        };
        assert_eq!(r.penalty_us(0), 0.0);
        assert_eq!(r.penalty_us(1), 10.0);
        assert_eq!(r.penalty_us(3), 10.0 + 20.0 + 40.0);
    }

    #[test]
    fn ft_arms_on_kills_or_drops_only() {
        assert!(!FaultPlan::none().ft_armed());
        assert!(
            !FaultPlan::from_seed(1, 8).ft_armed(),
            "fuzzing alone stays disarmed"
        );
        assert!(FaultPlan::none().with_kill(0, 1).ft_armed());
        assert!(FaultPlan::none().with_drop(0.1).ft_armed());
        assert!(FaultPlan::none().with_node_kill(1, 2).ft_armed());
        assert!(FaultPlan::none()
            .with_partition(vec![0], 0.0, 50.0)
            .ft_armed());
        assert!(FaultPlan::none()
            .with_link_flap(0, 1, 100.0, 0.5, 0.5)
            .ft_armed());
        assert!(FaultPlan::none().with_straggler(2, 1.5, 2).ft_armed());
        assert!(
            !FaultPlan::none().with_straggler(2, 1.5, 0).ft_armed(),
            "a slow core alone cannot lose anything"
        );
    }

    #[test]
    fn node_kill_rules_pick_earliest_per_node() {
        let p = FaultPlan::none()
            .with_node_kill(1, 5)
            .with_node_kill(1, 3)
            .with_node_kill(0, 7);
        assert!(!p.is_none());
        assert_eq!(p.node_kill_op_of(1), Some(3));
        assert_eq!(p.node_kill_op_of(0), Some(7));
        assert_eq!(p.node_kill_op_of(2), None);
        assert_eq!(p.kill_op_of(0), None, "node kills are not rank kills");
    }

    /// The jittered backoff schedule is pinned per seed: deterministic,
    /// bounded, seed- and attempt-sensitive, and bit-identical to the
    /// unjittered schedule when jitter is disabled.
    #[test]
    fn retry_jitter_schedule_is_pinned_per_seed() {
        let base = RetryPolicy {
            max_retries: 4,
            timeout_us: 10.0,
            backoff: 2.0,
            jitter_us: 0.0,
            jitter_seed: 0,
        };
        for failed in 0..=4 {
            assert_eq!(
                base.penalty_us_for(failed, 0, 1, 7),
                base.penalty_us(failed),
                "zero jitter reproduces the plain schedule exactly"
            );
        }
        let j = base.clone().with_jitter(42, 5.0);
        let schedule: Vec<f64> = (0..=4).map(|f| j.penalty_us_for(f, 0, 1, 7)).collect();
        let again: Vec<f64> = (0..=4).map(|f| j.penalty_us_for(f, 0, 1, 7)).collect();
        assert_eq!(schedule, again, "same seed, same schedule");
        for f in 1..=4u32 {
            let plain = j.penalty_us(f);
            let jittered = schedule[f as usize];
            assert!(
                jittered >= plain && jittered < plain + 5.0 * f as f64,
                "attempt {f}: jitter must stay in [0, jitter_us) per attempt"
            );
        }
        let other = base.clone().with_jitter(43, 5.0);
        assert_ne!(
            (0..=4)
                .map(|f| other.penalty_us_for(f, 0, 1, 7))
                .collect::<Vec<f64>>(),
            schedule,
            "different seed, different schedule"
        );
        assert_ne!(
            j.penalty_us_for(3, 0, 1, 8),
            j.penalty_us_for(3, 0, 1, 7),
            "per-message streams are independent"
        );
    }

    #[test]
    fn earliest_kill_wins() {
        let p = FaultPlan::none()
            .with_kill(2, 9)
            .with_kill(2, 4)
            .with_kill(1, 1);
        assert_eq!(p.kill_op_of(2), Some(4));
        assert_eq!(p.kill_op_of(1), Some(1));
        assert_eq!(p.kill_op_of(0), None);
    }

    #[test]
    fn sleeps_are_deterministic_and_bounded() {
        let p = FaultPlan::none().with_schedule(SchedulePolicy::adversarial(7));
        for op in 0..64 {
            let a = p.sched_sleep(1, op);
            assert_eq!(a, p.sched_sleep(1, op));
            if let Some(d) = a {
                assert!(d < Duration::from_micros(40));
            }
        }
        // Not all sleeps are equal (the stream actually varies).
        let sleeps: Vec<_> = (0..64).map(|op| p.sched_sleep(1, op)).collect();
        assert!(sleeps.iter().any(|s| s != &sleeps[0]));
    }
}
