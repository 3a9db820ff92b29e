//! The names the benchmark reports under — workloads, end-to-end metrics
//! with their regression bounds, per-layer metrics — and the one result
//! line. `BENCHMARK.json` at the root repeats these tables for the
//! driver; a unit test keeps the two identical, and [`result_line`]
//! refuses to print a run whose metrics are not exactly one table.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric's name, unit and whether lower is better.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the parent's value by which the metric may worsen before
    /// it counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, lower: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: lower,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, lower: bool) -> Metric {
    e2e(name, unit, lower, f64::NAN)
}

/// `(name, why)` of the four workloads (README "Workloads").
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "scale_events",
        "4096 ranks x 6 collectives on the event calendar: many ranks, few ops, so launch, hierarchy build and calendar cost dominate",
    ),
    (
        "figs_pooled",
        "8 short 96-rank universes (4 allgather variants x 2 sizes) on the pooled executor: what regenerating a paper figure costs, 60% of it set-up",
    ),
    (
        "stream_pooled",
        "one 192-rank universe streaming 8 rounds of hybrid and flat collectives plus p2p: launch amortised, per-op host cost dominates",
    ),
    (
        "apps_real",
        "SUMMA (3 variants) and BPMF (2 variants) with real payloads: kernels and memcpy dominate, simulator-only gains show ~0 here",
    ),
];

/// What a user of the simulator sees (README "End-to-end metrics").
pub const END_TO_END: [Metric; 5] = [
    e2e("pass_s", "s", true, 0.20),
    e2e("setup_s", "s", true, 0.25),
    e2e("cpu_s", "s", true, 0.20),
    e2e("ops_per_s", "1/s", false, 0.20),
    e2e("peak_rss_mib", "MiB", true, 0.20),
];

/// Single layers, traced run only, never gated (README "Per-layer
/// metrics"). `*_s`/`*_ns` are host time; `*virt_us` is virtual time and
/// carries the unit `us_virt` so that nothing mistakes the modeled clock,
/// which repeats exactly, for a measured one.
pub const PER_LAYER: [Metric; 71] = [
    // The modeled clock of this workload: bit-identical across passes,
    // runs and executors, or the run reports failed operations.
    layer("virt_us", "us_virt", true),
    // msim: launch, executors, mailboxes, windows, tracer, race detector.
    layer("msim.launch_s", "s", true),
    layer("msim.calendar.op_ns", "ns", true),
    layer("msim.exec.op_ns", "ns", true),
    layer("msim.p2p_msg_ns", "ns", true),
    layer("msim.p2p_msg_ns_events", "ns", true),
    layer("msim.window.flag_ns", "ns", true),
    layer("msim.scale.ns_per_rank_4k", "ns", true),
    layer("msim.scale.ns_per_rank_32k", "ns", true),
    layer("msim.scale.superlinearity", "ratio", true),
    layer("msim.race.armed_ratio", "ratio", true),
    layer("msim.trace.armed_ratio", "ratio", true),
    // collectives: the pure-MPI stack, registry and policy.
    layer("collectives.smp_aware_new_s", "s", true),
    layer("collectives.barrier_s", "s", true),
    layer("collectives.select_ns", "ns", true),
    layer("collectives.allgather_op_ns", "ns", true),
    layer("collectives.bcast_op_ns", "ns", true),
    layer("collectives.allreduce_op_ns", "ns", true),
    layer("collectives.split.iop_ns", "ns", true),
    layer("collectives.json.roundtrip_s", "s", true),
    layer("collectives.decisions", "count", true),
    layer("collectives.smp_allgather_virt_us", "us_virt", true),
    // hmpi: the paper's hybrid collectives.
    layer("hmpi.hybridcomm_new_s", "s", true),
    layer("hmpi.win_alloc_s", "s", true),
    layer("hmpi.hy_allgather_op_ns", "ns", true),
    layer("hmpi.hy_bcast_op_ns", "ns", true),
    layer("hmpi.hy_allreduce_op_ns", "ns", true),
    layer("hmpi.hyk_allgather_op_ns", "ns", true),
    layer("hmpi.iexecute_op_ns", "ns", true),
    layer("hmpi.hy_allgather_virt_us", "us_virt", true),
    layer("hmpi.hy_over_pure_512", "ratio", true),
    layer("hmpi.hy_over_pure_16384", "ratio", true),
    layer("hmpi.sync_virt_us", "us_virt", true),
    layer("hmpi.bridge_virt_us", "us_virt", true),
    // simnet: what the cost model was asked to price in one pass.
    layer("simnet.msgs_intra", "count", true),
    layer("simnet.msgs_inter", "count", true),
    layer("simnet.bytes_intra", "B", true),
    layer("simnet.bytes_inter", "B", true),
    layer("simnet.copy_bytes", "B", true),
    layer("simnet.barriers", "count", true),
    layer("simnet.window_bytes", "B", true),
    layer("simnet.flops", "count", true),
    layer("simnet.trace_events", "count", true),
    layer("simnet.host_ns_per_event", "ns", true),
    layer("simnet.estimate_ns", "ns", true),
    // linalg and the two applications.
    layer("linalg.gemm_gflops", "GFLOP/s", false),
    layer("linalg.cholesky_s", "s", true),
    layer("linalg.sample_s", "s", true),
    layer("summa.ori_s", "s", true),
    layer("summa.hy_s", "s", true),
    layer("summa.hy_overlap_s", "s", true),
    layer("summa.hy_over_ori_virt", "ratio", true),
    layer("bpmf.synth_s", "s", true),
    layer("bpmf.ori_s", "s", true),
    layer("bpmf.hy_s", "s", true),
    layer("bpmf.rmse", "rmse", true),
    // host: what one full pass asks of allocator and kernel.
    layer("host.allocs_per_pass", "count", true),
    layer("host.alloc_bytes_per_pass", "B", true),
    layer("host.peak_live_bytes", "B", true),
    layer("host.minor_faults_per_pass", "count", true),
    layer("host.ctx_switches_per_pass", "count", true),
    layer("host.malloc_default_ratio", "ratio", true),
    // harness: how the traced run itself went.
    layer("harness.passes", "count", false),
    layer("harness.pass_s", "s", true),
    layer("harness.timed_ops_s", "s", true),
    layer("harness.pass_p50_s", "s", true),
    layer("harness.pass_hi_s", "s", true),
    layer("harness.pass_hi_pct", "%", false),
    layer("harness.quiet_share", "ratio", false),
    layer("harness.host_noise", "ratio", true),
    layer("harness.spans", "count", false),
];

/// Metric values of one run, by name.
pub type Values = BTreeMap<&'static str, f64>;

/// The one result line the driver reads. Panics unless `values` holds
/// exactly the metrics of `table`, each a finite number: a run that
/// cannot report a metric must fail, not print a shorter line.
pub fn result_line(table: &[Metric], values: &Values, attempted: u64, failed: u64) -> String {
    let want: Vec<&str> = table.iter().map(|m| m.name).collect();
    let mut got: Vec<&str> = values.keys().copied().collect();
    let mut sorted = want.clone();
    sorted.sort_unstable();
    got.sort_unstable();
    assert_eq!(got, sorted, "reported metrics differ from the spec table");
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in table.iter().enumerate() {
        let v = values[m.name];
        assert!(
            v.is_finite(),
            "metric {} is not a finite number: {v}",
            m.name
        );
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// The same values as a table for people, one metric per line.
pub fn print_table(table: &[Metric], values: &Values) {
    for m in table {
        println!("  {:<36} {:>18.6} {}", m.name, values[m.name], m.unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collectives::json::Json;

    fn name_ok(name: &str) -> bool {
        let legal = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(legal)
    }

    fn unit_ok(unit: &str) -> bool {
        let legal = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(legal)
    }

    #[test]
    fn names_and_units_are_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let workloads = WORKLOADS.iter().map(|w| w.0);
        for name in workloads.chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name)) {
            assert!(name_ok(name), "illegal name {name:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(unit_ok(m.unit), "illegal unit {:?} of {}", m.unit, m.name);
        }
        assert!(!name_ok("has space") && !name_ok(".dot_first") && !name_ok(""));
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }

    /// `BENCHMARK.json` and the tables here say the same thing, in both
    /// directions, so every name the driver expects is printed for every
    /// workload (by [`result_line`]'s own check) and nothing else is.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let text = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap().to_string();

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, ours);

        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let theirs = list(key);
            assert_eq!(theirs.len(), table.len(), "{key} length");
            for (j, m) in theirs.iter().zip(table) {
                assert_eq!(text(j, "name"), m.name);
                assert_eq!(text(j, "unit"), m.unit, "{}", m.name);
                let better = if m.lower_is_better { "lower" } else { "higher" };
                assert_eq!(text(j, "better"), better, "{}", m.name);
                match j.get("bound").and_then(Json::as_f64) {
                    Some(b) => assert_eq!(b, m.bound, "{}", m.name),
                    None => assert!(m.bound.is_nan(), "{} lost its bound", m.name),
                }
            }
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound <= setup.bound && m.bound <= 0.25));
        assert_eq!(doc.get("paths").and_then(Json::as_arr).unwrap().len(), 1);
    }

    #[test]
    fn result_line_is_one_json_object_with_every_metric() {
        let values: Values = END_TO_END.iter().map(|m| (m.name, 1.25)).collect();
        let line = result_line(&END_TO_END, &values, 10, 0);
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_usize), Some(10));
        let metrics = doc.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics["ops_per_s"].get("unit").and_then(Json::as_str),
            Some("1/s")
        );
        let failed = result_line(&END_TO_END, &values, 10, 3);
        assert_eq!(
            Json::parse(&failed).unwrap().get("correct"),
            Some(&Json::Bool(false))
        );
    }

    #[test]
    #[should_panic(expected = "differ from the spec table")]
    fn result_line_rejects_a_missing_metric() {
        let mut values: Values = END_TO_END.iter().map(|m| (m.name, 1.0)).collect();
        values.remove("cpu_s");
        result_line(&END_TO_END, &values, 1, 0);
    }
}
