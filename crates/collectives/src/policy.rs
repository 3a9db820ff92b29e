//! Selection policies: *which* registered algorithm runs a given case.
//!
//! The registry (`registry.rs`) says what algorithms exist; a
//! [`SelectionPolicy`] decides between them. Three policy kinds:
//!
//! * [`PolicyKind::Legacy`] — reproduces the MPICH/OpenMPI threshold
//!   tables of [`Tuning`] bit-for-bit. [`legacy_choice`] is the single
//!   source of truth for those thresholds; the collective modules'
//!   `tuned` entry points route through it, so the pre-registry figure
//!   outputs are unchanged to the last bit.
//! * [`PolicyKind::Table`] — looks the case up in a persisted per-cluster
//!   [`TuningTable`] (JSON under `results/tuning/`), falling back to
//!   legacy on a miss.
//! * [`PolicyKind::Autotune`] — sweeps the registry's applicable
//!   candidates through the `simnet` closed-form cost model and picks the
//!   cheapest, caching the winner per (op, comm shape, size bucket).
//!
//! Every decision, whatever the policy, is appended to a queryable
//! [`DecisionLog`] and mirrored into the existing trace machinery as an
//! `EventKind::Decision`, so a trace always explains which schedule ran
//! and why. Selection itself charges **zero** virtual time.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use msim::Ctx;
use simnet::Estimator;

use crate::json::Json;
use crate::registry::{self, CollectiveOp, CommCase};
use crate::selection::{MpiFlavor, Tuning};

/// The pre-registry threshold logic, verbatim. One function so the
/// thresholds cannot drift between the policy layer and the collective
/// modules: `tuned` entry points and `PolicyKind::Legacy` both call this.
pub fn legacy_choice(tuning: &Tuning, case: &CommCase) -> &'static str {
    let p = case.comm_size;
    let bytes = case.total_bytes;
    match case.op {
        CollectiveOp::Allgather => {
            if case.windowed {
                return "allgather.hy_shared_window";
            }
            if p <= 1 {
                "allgather.local"
            } else if p.is_power_of_two() && bytes < tuning.allgather_rd_threshold {
                "allgather.recursive_doubling"
            } else if !p.is_power_of_two() && bytes < tuning.allgather_bruck_threshold {
                "allgather.bruck"
            } else {
                "allgather.ring"
            }
        }
        CollectiveOp::Allgatherv => {
            if p <= 1 {
                "allgatherv.local"
            } else if bytes < tuning.allgatherv_bruck_threshold {
                "allgatherv.bruck"
            } else {
                "allgatherv.ring"
            }
        }
        CollectiveOp::Bcast => {
            if bytes < tuning.bcast_long_threshold || p < tuning.bcast_min_ranks_for_long {
                "bcast.binomial"
            } else {
                "bcast.scatter_allgather"
            }
        }
        CollectiveOp::Allreduce => {
            if bytes < tuning.allreduce_rabenseifner_threshold {
                "allreduce.recursive_doubling"
            } else {
                "allreduce.rabenseifner"
            }
        }
        CollectiveOp::Alltoall => {
            if bytes <= 256 {
                "alltoall.bruck"
            } else {
                "alltoall.pairwise"
            }
        }
        CollectiveOp::Alltoallv => {
            // MPICH runs alltoallv as a linear eager exchange for small
            // communicators (no packing pays off at that scale) and falls
            // back to the scheduled pairwise exchange beyond it.
            if p <= tuning.alltoallv_linear_max_ranks {
                "alltoallv.linear"
            } else {
                "alltoallv.pairwise"
            }
        }
        CollectiveOp::ReduceScatter => {
            if p <= 1 {
                "reduce_scatter.local"
            } else if p.is_power_of_two() {
                "reduce_scatter.recursive_halving"
            } else {
                "reduce_scatter.pairwise"
            }
        }
        CollectiveOp::Barrier => {
            if case.num_nodes <= 1 {
                "barrier.shm_dissemination"
            } else {
                "barrier.dissemination"
            }
        }
        CollectiveOp::Sync => "sync.barrier",
    }
}

/// One recorded selection.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Rank that made the selection.
    pub rank: usize,
    /// The case that was selected for.
    pub op: CollectiveOp,
    /// Communicator size of the case.
    pub comm_size: usize,
    /// Nodes spanned by the case.
    pub num_nodes: usize,
    /// Op-specific byte measure of the case.
    pub total_bytes: usize,
    /// Winning algorithm name.
    pub algo: &'static str,
    /// Which policy kind decided (`"legacy"`, `"table"`, `"autotune"`).
    pub policy: &'static str,
    /// Human-readable reason (threshold comparison or estimate ranking).
    pub why: String,
}

/// Shared, queryable log of every decision a policy made. Cloning shares
/// the log (it is an `Arc`), so the copy moved into each rank thread and
/// the handle kept by the test/driver see the same records.
#[derive(Debug, Clone, Default)]
pub struct DecisionLog {
    inner: Arc<Mutex<Vec<Decision>>>,
}

impl DecisionLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a decision.
    pub fn push(&self, d: Decision) {
        self.lock().push(d);
    }

    /// Snapshot of all decisions in canonical order (grouped by rank,
    /// each rank's decisions in program order — same convention as
    /// `Tracer::events`).
    pub fn decisions(&self) -> Vec<Decision> {
        let mut v = self.lock().clone();
        v.sort_by_key(|d| d.rank);
        v
    }

    /// Decisions for one operation only.
    pub fn for_op(&self, op: CollectiveOp) -> Vec<Decision> {
        self.decisions()
            .into_iter()
            .filter(|d| d.op == op)
            .collect()
    }

    /// The distinct algorithm names chosen for `op`, sorted.
    pub fn algos_for(&self, op: CollectiveOp) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.for_op(op).into_iter().map(|d| d.algo).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Number of recorded decisions.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Drop all records.
    pub fn clear(&self) {
        self.lock().clear();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Decision>> {
        // Fault-injection tests kill rank threads mid-collective; the Vec
        // is never torn, so poisoning is ignorable (same as Tracer).
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One row of a persisted tuning table: "for `op` up to this communicator
/// size and byte size, run `algo`". First matching row wins.
#[derive(Debug, Clone, PartialEq)]
pub struct TableEntry {
    /// Operation the row applies to.
    pub op: CollectiveOp,
    /// Row matches cases with `comm_size <= comm_le`.
    pub comm_le: usize,
    /// Row matches cases with `total_bytes <= bytes_le`.
    pub bytes_le: usize,
    /// Algorithm name to run.
    pub algo: String,
}

/// A per-cluster tuning table, serializable to the canonical JSON kept
/// under `results/tuning/`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TuningTable {
    /// Cluster the table was tuned for (cost-model preset name).
    pub cluster: String,
    /// MPI flavor whose legacy thresholds back fallback decisions.
    pub flavor: Option<MpiFlavor>,
    /// Rows, in priority order (first match wins).
    pub entries: Vec<TableEntry>,
}

impl TuningTable {
    /// An empty table for `cluster`.
    pub fn new(cluster: &str) -> Self {
        Self {
            cluster: cluster.to_string(),
            flavor: None,
            entries: Vec::new(),
        }
    }

    /// The first entry matching `case`, if any.
    pub fn lookup(&self, case: &CommCase) -> Option<&TableEntry> {
        self.entries.iter().find(|e| {
            e.op == case.op && case.comm_size <= e.comm_le && case.total_bytes <= e.bytes_le
        })
    }

    /// Serialize to the canonical JSON schema (see `docs/tuning.md`).
    pub fn to_json(&self) -> Json {
        let mut obj = BTreeMap::new();
        obj.insert("cluster".to_string(), Json::Str(self.cluster.clone()));
        if let Some(flavor) = self.flavor {
            obj.insert(
                "flavor".to_string(),
                Json::Str(flavor_key(flavor).to_string()),
            );
        }
        let entries = self
            .entries
            .iter()
            .map(|e| {
                let mut row = BTreeMap::new();
                row.insert("op".to_string(), Json::Str(e.op.key().to_string()));
                if e.comm_le != usize::MAX {
                    row.insert("comm_le".to_string(), Json::Num(e.comm_le as f64));
                }
                if e.bytes_le != usize::MAX {
                    row.insert("bytes_le".to_string(), Json::Num(e.bytes_le as f64));
                }
                row.insert("algo".to_string(), Json::Str(e.algo.clone()));
                Json::Obj(row)
            })
            .collect();
        obj.insert("entries".to_string(), Json::Arr(entries));
        Json::Obj(obj)
    }

    /// Parse from the JSON schema. Absent `comm_le`/`bytes_le` mean "no
    /// limit".
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let cluster = json
            .get("cluster")
            .and_then(Json::as_str)
            .ok_or("tuning table: missing string field 'cluster'")?
            .to_string();
        let flavor = match json.get("flavor").and_then(Json::as_str) {
            Some(key) => Some(
                flavor_from_key(key)
                    .ok_or_else(|| format!("tuning table: unknown flavor {key:?}"))?,
            ),
            None => None,
        };
        let rows = json
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or("tuning table: missing array field 'entries'")?;
        let mut entries = Vec::with_capacity(rows.len());
        for row in rows {
            let op_key = row
                .get("op")
                .and_then(Json::as_str)
                .ok_or("tuning table entry: missing string field 'op'")?;
            let op = CollectiveOp::from_key(op_key)
                .ok_or_else(|| format!("tuning table entry: unknown op {op_key:?}"))?;
            let algo = row
                .get("algo")
                .and_then(Json::as_str)
                .ok_or("tuning table entry: missing string field 'algo'")?
                .to_string();
            let comm_le = match row.get("comm_le") {
                Some(v) => v.as_usize().ok_or("tuning table entry: bad 'comm_le'")?,
                None => usize::MAX,
            };
            let bytes_le = match row.get("bytes_le") {
                Some(v) => v.as_usize().ok_or("tuning table entry: bad 'bytes_le'")?,
                None => usize::MAX,
            };
            entries.push(TableEntry {
                op,
                comm_le,
                bytes_le,
                algo,
            });
        }
        Ok(Self {
            cluster,
            flavor,
            entries,
        })
    }

    /// Parse from canonical-JSON text.
    pub fn parse(text: &str) -> Result<Self, String> {
        Self::from_json(&Json::parse(text)?)
    }

    /// Serialize to canonical-JSON text (byte-stable: keys sorted,
    /// 2-space indent).
    pub fn pretty(&self) -> String {
        self.to_json().pretty()
    }
}

/// String key for an [`MpiFlavor`] in serialized tables.
pub fn flavor_key(flavor: MpiFlavor) -> &'static str {
    match flavor {
        MpiFlavor::CrayMpich => "cray_mpich",
        MpiFlavor::OpenMpi => "open_mpi",
    }
}

/// Parse an [`MpiFlavor`] string key.
pub fn flavor_from_key(key: &str) -> Option<MpiFlavor> {
    match key {
        "cray_mpich" => Some(MpiFlavor::CrayMpich),
        "open_mpi" => Some(MpiFlavor::OpenMpi),
        _ => None,
    }
}

/// What a fault-aware driver does when a protected operation fails
/// (a peer dies, diverts into recovery, or a message is lost past all
/// retransmissions). Carried by [`SelectionPolicy`] so the choice rides
/// the same object that already steers algorithm selection; consumed by
/// the `hmpi` crate's fault-tolerant driver.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FaultPolicy {
    /// No recovery: the failure propagates and the run aborts with the
    /// root-cause error (the pre-fault-tolerance behavior).
    #[default]
    Abort,
    /// ULFM-style graceful degradation: agree on the dead set, exclude it
    /// (`Comm_shrink`), rebuild the hierarchy, and re-run the failed
    /// operation on the survivors.
    Shrink,
    /// Re-run after transport timeouts, up to `max_retries` times,
    /// charging a virtual backoff of `backoff_us * 2^i` before retry
    /// `i`. Confirmed rank failures still shrink (retrying against a
    /// dead rank cannot succeed); exhausted retries abort.
    Retry {
        /// Timeout re-runs allowed before giving up.
        max_retries: u32,
        /// Base virtual backoff charged before the first retry (µs).
        backoff_us: f64,
    },
}

/// How a [`SelectionPolicy`] decides.
#[derive(Debug, Clone)]
pub enum PolicyKind {
    /// Reproduce the legacy MPICH/OpenMPI thresholds bit-for-bit.
    Legacy,
    /// Look up a persisted per-cluster tuning table, legacy on miss.
    Table(TuningTable),
    /// Rank applicable candidates by closed-form cost estimate.
    Autotune,
}

impl PolicyKind {
    /// Short label for decision records.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Legacy => "legacy",
            PolicyKind::Table(_) => "table",
            PolicyKind::Autotune => "autotune",
        }
    }
}

type AutotuneCache = Arc<Mutex<BTreeMap<(CollectiveOp, usize, usize, u32, usize), &'static str>>>;

/// A complete selection policy: tuning thresholds (for legacy behavior
/// and fallbacks), the policy kind, and the shared decision log.
///
/// Cloning shares the log and the autotune cache — clone the policy into
/// each rank's closure and keep one handle outside `Universe::run` to
/// query afterwards.
#[derive(Debug, Clone)]
pub struct SelectionPolicy {
    tuning: Tuning,
    kind: PolicyKind,
    fault: FaultPolicy,
    log: DecisionLog,
    cache: AutotuneCache,
}

impl SelectionPolicy {
    /// The legacy-threshold policy (pre-registry behavior, bit-for-bit).
    pub fn legacy(tuning: Tuning) -> Self {
        Self::with_kind(tuning, PolicyKind::Legacy)
    }

    /// A table-driven policy; `tuning` backs fallback decisions on table
    /// misses.
    pub fn table(tuning: Tuning, table: TuningTable) -> Self {
        Self::with_kind(tuning, PolicyKind::Table(table))
    }

    /// The cost-model autotuning policy.
    pub fn autotune(tuning: Tuning) -> Self {
        Self::with_kind(tuning, PolicyKind::Autotune)
    }

    /// A policy of an explicit kind.
    pub fn with_kind(tuning: Tuning, kind: PolicyKind) -> Self {
        Self {
            tuning,
            kind,
            fault: FaultPolicy::default(),
            log: DecisionLog::new(),
            cache: Arc::default(),
        }
    }

    /// Attach a [`FaultPolicy`]: what a fault-aware driver built from
    /// this policy does when a protected operation fails.
    pub fn with_fault_policy(mut self, fault: FaultPolicy) -> Self {
        self.fault = fault;
        self
    }

    /// The attached fault policy ([`FaultPolicy::Abort`] by default).
    pub fn fault_policy(&self) -> FaultPolicy {
        self.fault
    }

    /// The thresholds backing legacy/fallback decisions.
    pub fn tuning(&self) -> &Tuning {
        &self.tuning
    }

    /// The policy kind.
    pub fn kind(&self) -> &PolicyKind {
        &self.kind
    }

    /// The shared decision log.
    pub fn log(&self) -> &DecisionLog {
        &self.log
    }

    /// Choose the algorithm for `case`, record the decision in the log
    /// and the trace, and return its registry name. Selection charges no
    /// virtual time.
    pub fn choose(&self, ctx: &Ctx, case: &CommCase) -> &'static str {
        let (algo, why) = self.resolve(ctx, case);
        self.log.push(Decision {
            rank: ctx.rank(),
            op: case.op,
            comm_size: case.comm_size,
            num_nodes: case.num_nodes,
            total_bytes: case.total_bytes,
            algo,
            policy: self.kind.label(),
            why: why.clone(),
        });
        ctx.trace_decision(case.op.key(), algo, &why);
        algo
    }

    /// Choose without a running simulation context — used by the offline
    /// `bench tune` autotuner, which sweeps cases against a bare cost model.
    pub fn choose_offline(&self, cost: &simnet::CostModel, case: &CommCase) -> &'static str {
        self.resolve_with(cost, case).0
    }

    fn resolve(&self, ctx: &Ctx, case: &CommCase) -> (&'static str, String) {
        self.resolve_with(ctx.cost(), case)
    }

    fn resolve_with(&self, cost: &simnet::CostModel, case: &CommCase) -> (&'static str, String) {
        match &self.kind {
            PolicyKind::Legacy => {
                let algo = legacy_choice(&self.tuning, case);
                (
                    algo,
                    format!("legacy thresholds ({:?})", self.tuning.flavor),
                )
            }
            PolicyKind::Table(table) => match table.lookup(case) {
                Some(entry) => match registry::global().lookup(&entry.algo) {
                    Some(found) if found.applicable(case) => (
                        found.name(),
                        format!(
                            "table '{}': op={} comm<={} bytes<={}",
                            table.cluster,
                            entry.op.key(),
                            entry.comm_le,
                            entry.bytes_le
                        ),
                    ),
                    Some(_) => {
                        let algo = legacy_choice(&self.tuning, case);
                        (
                            algo,
                            format!("table row '{}' not applicable; legacy fallback", entry.algo),
                        )
                    }
                    None => {
                        let algo = legacy_choice(&self.tuning, case);
                        (
                            algo,
                            format!("table row '{}' unknown; legacy fallback", entry.algo),
                        )
                    }
                },
                None => {
                    let algo = legacy_choice(&self.tuning, case);
                    (
                        algo,
                        format!("table '{}' miss; legacy fallback", table.cluster),
                    )
                }
            },
            PolicyKind::Autotune => {
                let key = (
                    case.op,
                    case.comm_size,
                    case.num_nodes,
                    size_bucket(case.total_bytes),
                    case.leaders,
                );
                if let Some(&hit) = self
                    .cache
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get(&key)
                {
                    return (hit, format!("autotune cache hit bucket=2^{}", key.3));
                }
                let est = Estimator::for_span(cost, case.spans_nodes());
                let (algo, why) = match registry::global().best(&est, case) {
                    Some((winner, t)) => (
                        winner.name(),
                        format!(
                            "autotune: est {:.3}us over {} candidates",
                            t,
                            registry::global().applicable(case).len()
                        ),
                    ),
                    None => {
                        let algo = legacy_choice(&self.tuning, case);
                        (
                            algo,
                            "autotune: no applicable candidate; legacy fallback".to_string(),
                        )
                    }
                };
                self.cache
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(key, algo);
                (algo, why)
            }
        }
    }
}

/// Log₂ size bucket for the autotune cache: cases whose byte measures
/// share an order of magnitude share a winner.
pub fn size_bucket(bytes: usize) -> u32 {
    match bytes {
        0 => 0,
        b => usize::BITS - b.leading_zeros(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(op: CollectiveOp, p: usize, nodes: usize, bytes: usize) -> CommCase {
        CommCase::new(op, p, nodes, bytes)
    }

    #[test]
    fn legacy_choice_matches_thresholds() {
        let t = Tuning::cray_mpich();
        // Power-of-two, small → recursive doubling.
        assert_eq!(
            legacy_choice(&t, &case(CollectiveOp::Allgather, 16, 4, 1024)),
            "allgather.recursive_doubling"
        );
        // Power-of-two, at the threshold → ring (strict <).
        assert_eq!(
            legacy_choice(
                &t,
                &case(CollectiveOp::Allgather, 16, 4, t.allgather_rd_threshold)
            ),
            "allgather.ring"
        );
        // Non-power-of-two, small → Bruck.
        assert_eq!(
            legacy_choice(&t, &case(CollectiveOp::Allgather, 6, 2, 1024)),
            "allgather.bruck"
        );
        assert_eq!(
            legacy_choice(
                &t,
                &case(CollectiveOp::Allgatherv, 6, 2, t.allgatherv_bruck_threshold)
            ),
            "allgatherv.ring"
        );
        assert_eq!(
            legacy_choice(&t, &case(CollectiveOp::Alltoall, 8, 2, 256)),
            "alltoall.bruck"
        );
        assert_eq!(
            legacy_choice(&t, &case(CollectiveOp::Alltoall, 8, 2, 257)),
            "alltoall.pairwise"
        );
        assert_eq!(
            legacy_choice(&t, &case(CollectiveOp::Barrier, 8, 1, 0)),
            "barrier.shm_dissemination"
        );
        assert_eq!(
            legacy_choice(&t, &case(CollectiveOp::Sync, 8, 1, 0)),
            "sync.barrier"
        );
    }

    #[test]
    fn windowed_allgather_goes_hybrid_under_legacy() {
        let t = Tuning::cray_mpich();
        let c = case(CollectiveOp::Allgather, 48, 2, 4096).windowed();
        assert_eq!(legacy_choice(&t, &c), "allgather.hy_shared_window");
    }

    #[test]
    fn table_round_trips_byte_stable() {
        let table = TuningTable {
            cluster: "cray_aries".to_string(),
            flavor: Some(MpiFlavor::CrayMpich),
            entries: vec![
                TableEntry {
                    op: CollectiveOp::Allgather,
                    comm_le: 64,
                    bytes_le: 65536,
                    algo: "allgather.bruck".to_string(),
                },
                TableEntry {
                    op: CollectiveOp::Allgather,
                    comm_le: usize::MAX,
                    bytes_le: usize::MAX,
                    algo: "allgather.ring".to_string(),
                },
            ],
        };
        let text = table.pretty();
        let parsed = TuningTable::parse(&text).unwrap();
        assert_eq!(parsed, table);
        // Canonical form: serialize(parse(text)) == text, byte for byte.
        assert_eq!(parsed.pretty(), text);
    }

    #[test]
    fn table_lookup_first_match_wins() {
        let table = TuningTable {
            cluster: "t".to_string(),
            flavor: None,
            entries: vec![
                TableEntry {
                    op: CollectiveOp::Allgather,
                    comm_le: 8,
                    bytes_le: 1024,
                    algo: "allgather.bruck".to_string(),
                },
                TableEntry {
                    op: CollectiveOp::Allgather,
                    comm_le: usize::MAX,
                    bytes_le: usize::MAX,
                    algo: "allgather.ring".to_string(),
                },
            ],
        };
        let hit = table
            .lookup(&case(CollectiveOp::Allgather, 8, 2, 512))
            .unwrap();
        assert_eq!(hit.algo, "allgather.bruck");
        let miss_size = table
            .lookup(&case(CollectiveOp::Allgather, 8, 2, 4096))
            .unwrap();
        assert_eq!(miss_size.algo, "allgather.ring");
        assert!(table.lookup(&case(CollectiveOp::Bcast, 8, 2, 64)).is_none());
    }

    #[test]
    fn table_rejects_malformed_input() {
        assert!(TuningTable::parse("{").is_err());
        assert!(TuningTable::parse("{\"entries\": []}").is_err());
        assert!(TuningTable::parse(
            "{\"cluster\": \"x\", \"entries\": [{\"op\": \"frobnicate\", \"algo\": \"a\"}]}"
        )
        .is_err());
    }

    #[test]
    fn flavor_keys_round_trip() {
        for f in [MpiFlavor::CrayMpich, MpiFlavor::OpenMpi] {
            assert_eq!(flavor_from_key(flavor_key(f)), Some(f));
        }
        assert_eq!(flavor_from_key("mvapich"), None);
    }

    #[test]
    fn size_buckets_are_log2() {
        assert_eq!(size_bucket(0), 0);
        assert_eq!(size_bucket(1), 1);
        assert_eq!(size_bucket(1024), 11);
        assert_eq!(size_bucket(1025), 11);
        assert_eq!(size_bucket(2048), 12);
    }

    #[test]
    fn offline_autotune_prefers_flags_sync() {
        let policy = SelectionPolicy::autotune(Tuning::cray_mpich());
        let cost = simnet::CostModel::cray_aries();
        let algo = policy.choose_offline(&cost, &case(CollectiveOp::Sync, 12, 1, 0));
        assert_eq!(algo, "sync.shared_flags");
    }

    #[test]
    fn offline_legacy_is_barrier_sync() {
        let policy = SelectionPolicy::legacy(Tuning::cray_mpich());
        let cost = simnet::CostModel::cray_aries();
        let algo = policy.choose_offline(&cost, &case(CollectiveOp::Sync, 12, 1, 0));
        assert_eq!(algo, "sync.barrier");
    }

    #[test]
    fn decision_log_shared_across_clones() {
        let log = DecisionLog::new();
        let clone = log.clone();
        clone.push(Decision {
            rank: 1,
            op: CollectiveOp::Allgather,
            comm_size: 4,
            num_nodes: 2,
            total_bytes: 64,
            algo: "allgather.ring",
            policy: "legacy",
            why: "test".to_string(),
        });
        assert_eq!(log.len(), 1);
        assert_eq!(
            log.algos_for(CollectiveOp::Allgather),
            vec!["allgather.ring"]
        );
        assert!(log.for_op(CollectiveOp::Bcast).is_empty());
        log.clear();
        assert!(clone.is_empty());
    }
}
