//! Figure-level regression tests.
//!
//! Two jobs: (1) pin the **Legacy**-policy virtual times of the fig 7/8/9
//! experiments bit-for-bit to the values measured before the registry
//! refactor — the selection rework must be invisible when the legacy
//! thresholds drive it; (2) hold the **Autotune** policy to its
//! acceptance bar on the paper's Fig. 9a sweep — never slower than
//! Legacy, strictly faster somewhere, with the win attributable in the
//! decision log.

use bench::{allgather_latency, AllgatherVariant, Machine};
use collectives::{CollectiveOp, SelectionPolicy, Tuning};
use hmpi::{HyAllgather, HybridComm};
use msim::{ExecMode, SimConfig, Universe};
use simnet::{ClusterSpec, Placement};

fn machine(name: &str) -> Machine {
    match name {
        "hazel_hen" => Machine::hazel_hen(),
        "vulcan" => Machine::vulcan(),
        other => panic!("unknown machine {other}"),
    }
}

/// Pre-refactor golden virtual times (µs, 17 significant digits — enough
/// to round-trip f64 exactly). Columns: figure, machine, parameter
/// (elements for fig7/8, ppn for fig9), variant, expected latency.
const GOLDENS: &[(&str, &str, usize, &str, &str)] = &[
    ("fig7", "hazel_hen", 1, "hy", "8.00000000000000711e-1"),
    ("fig7", "hazel_hen", 1, "pure", "5.50020000000000042e0"),
    ("fig7", "hazel_hen", 512, "hy", "8.00000000000000711e-1"),
    ("fig7", "hazel_hen", 512, "pure", "6.79157333333334350e1"),
    ("fig7", "hazel_hen", 32768, "hy", "8.00000000000000711e-1"),
    ("fig7", "hazel_hen", 32768, "pure", "3.26440693333332865e3"),
    ("fig7", "vulcan", 1, "hy", "9.99999999999999556e-1"),
    ("fig7", "vulcan", 1, "pure", "7.41352000000000277e0"),
    ("fig7", "vulcan", 512, "hy", "9.99999999999999556e-1"),
    ("fig7", "vulcan", 512, "pure", "7.86611733333333376e1"),
    ("fig7", "vulcan", 32768, "hy", "9.99999999999999556e-1"),
    ("fig7", "vulcan", 32768, "pure", "3.51008176000000140e3"),
    ("fig8", "hazel_hen", 1, "hy", "6.95360000000000067e0"),
    ("fig8", "hazel_hen", 1, "pure", "6.56280000000000019e0"),
    ("fig8", "hazel_hen", 512, "hy", "2.00351999999999997e1"),
    ("fig8", "hazel_hen", 512, "pure", "1.31036000000000019e1"),
    ("fig8", "hazel_hen", 32768, "hy", "4.56093999999999994e2"),
    ("fig8", "hazel_hen", 32768, "pure", "4.82030399999999872e2"),
    ("fig8", "vulcan", 1, "hy", "9.22480000000000011e0"),
    ("fig8", "vulcan", 1, "pure", "8.66999999999999993e0"),
    ("fig8", "vulcan", 512, "hy", "2.59856000000000016e1"),
    ("fig8", "vulcan", 512, "pure", "1.88900000000000077e1"),
    ("fig8", "vulcan", 32768, "hy", "7.11787599999999657e2"),
    ("fig8", "vulcan", 32768, "pure", "7.37559999999999604e2"),
    ("fig9", "hazel_hen", 3, "hy", "1.76636399999999782e2"),
    ("fig9", "hazel_hen", 3, "pure", "2.79397600000000750e2"),
    ("fig9", "hazel_hen", 6, "hy", "2.54604133333334374e2"),
    ("fig9", "hazel_hen", 6, "pure", "6.56905599999998572e2"),
    ("fig9", "hazel_hen", 12, "hy", "4.09672933333333560e2"),
    ("fig9", "hazel_hen", 12, "pure", "1.12708493333333786e3"),
    ("fig9", "vulcan", 3, "hy", "2.55161040000000384e2"),
    ("fig9", "vulcan", 3, "pure", "3.70104160000000036e2"),
    ("fig9", "vulcan", 6, "hy", "3.79727413333334141e2"),
    ("fig9", "vulcan", 6, "pure", "8.30173120000000722e2"),
    ("fig9", "vulcan", 12, "hy", "8.41946826666665402e2"),
    ("fig9", "vulcan", 12, "pure", "1.64784397333333436e3"),
];

/// Measured at the default pool width and on one worker, the launching
/// thread: virtual time is computed from modeled costs along each rank's
/// program order, so the width must not move a single bit of any figure.
#[test]
fn legacy_policy_reproduces_pre_refactor_goldens_bit_for_bit() {
    for exec in [ExecMode::default(), ExecMode::Pooled { workers: Some(1) }] {
        for &(fig, mach, param, variant, expected) in GOLDENS {
            let m = machine(mach);
            let (spec, elems) = match fig {
                "fig7" => (ClusterSpec::single_node(24), param),
                "fig8" => (ClusterSpec::regular(16, 1), param),
                "fig9" => (ClusterSpec::regular(64, param), 512),
                other => panic!("unknown figure {other}"),
            };
            let v = match variant {
                "hy" => AllgatherVariant::Hybrid,
                "pure" => AllgatherVariant::PureSmpAware,
                other => panic!("unknown variant {other}"),
            };
            let t = allgather_latency(spec, &m, elems, v, Placement::SmpBlock, exec);
            let want: f64 = expected.parse().unwrap();
            assert_eq!(
                t, want,
                "{fig} {mach} {param} {variant} on {exec:?}: got {t:.17e}, golden {want:.17e}"
            );
        }
    }
}

/// The split-phase refactor must be invisible to blocking programs: the
/// `ReqStart`/`ReqComplete` lifecycle markers are emitted only by the
/// nonblocking entry points, so a traced run that makes no `iexecute`/
/// `irecv` call — here, the fig 7/8-shaped hybrid and pure-MPI allgather
/// programs — must produce a trace with **zero** Req markers. Together
/// with the bit-for-bit goldens above, this pins "blocking paths are
/// byte-identical to before the request layer existed" from both sides:
/// same virtual times, and not a single new trace event.
#[test]
fn blocking_programs_emit_no_request_markers() {
    let m = Machine::hazel_hen();
    for spec in [ClusterSpec::single_node(24), ClusterSpec::regular(16, 1)] {
        let cfg = SimConfig::new(spec, m.cost.clone()).phantom().traced();
        let r = Universe::run(cfg, |ctx| {
            let world = ctx.world();
            let hc = HybridComm::new(ctx, &world, Tuning::cray_mpich());
            let ag = HyAllgather::<f64>::new(ctx, &hc, 512);
            ag.execute(ctx);
            let send = ctx.buf_zeroed::<f64>(512);
            let mut recv = ctx.buf_zeroed::<f64>(512 * world.size());
            collectives::allgather::tuned(ctx, &world, &send, &mut recv, &Tuning::cray_mpich());
        })
        .unwrap();
        let events = r.tracer.events();
        assert!(!events.is_empty(), "the traced run must record events");
        assert!(
            events.iter().all(|e| !e.kind.is_req_marker()),
            "blocking-only traces must carry no ReqStart/ReqComplete markers"
        );
    }
}

/// Paper Fig. 9a acceptance bar: across the full ppn sweep at 64 nodes
/// and 512 doubles, the Autotune policy is never slower than Legacy and
/// strictly faster at at least one point.
#[test]
fn autotune_dominates_legacy_on_fig9a_sweep() {
    let m = Machine::hazel_hen();
    let mut strict_win = false;
    for ppn in (3..=24).step_by(3) {
        let spec = ClusterSpec::regular(64, ppn);
        let legacy = allgather_latency(
            spec.clone(),
            &m,
            512,
            AllgatherVariant::Hybrid,
            Placement::SmpBlock,
            ExecMode::default(),
        );
        let auto = allgather_latency(
            spec,
            &m,
            512,
            AllgatherVariant::HybridAuto,
            Placement::SmpBlock,
            ExecMode::default(),
        );
        assert!(
            auto <= legacy,
            "autotune must not regress at ppn {ppn}: auto {auto} vs legacy {legacy}"
        );
        if auto < legacy {
            strict_win = true;
        }
    }
    assert!(
        strict_win,
        "autotune must strictly beat legacy somewhere on the sweep"
    );
}

/// The autotune win is *attributable*: the decision log of an autotuned
/// hybrid communicator records the cheaper sync flavor it picked
/// (shared-cache flags) where the legacy policy records the default
/// barrier.
#[test]
fn autotune_win_is_attributable_in_decision_log() {
    let run = |policy: SelectionPolicy| {
        let handle = policy.clone();
        let m = Machine::hazel_hen();
        let cfg = SimConfig::new(ClusterSpec::regular(4, 6), m.cost.clone()).phantom();
        Universe::run(cfg, move |ctx| {
            let world = ctx.world();
            let hc = HybridComm::with_policy(ctx, &world, policy.clone());
            let ag = HyAllgather::<f64>::new(ctx, &hc, 512);
            ag.execute(ctx);
        })
        .unwrap();
        handle
    };

    let auto = run(SelectionPolicy::autotune(
        Machine::hazel_hen().tuning.clone(),
    ));
    let legacy = run(SelectionPolicy::legacy(Machine::hazel_hen().tuning.clone()));

    let auto_sync = auto.log().algos_for(CollectiveOp::Sync);
    let legacy_sync = legacy.log().algos_for(CollectiveOp::Sync);
    assert!(
        auto_sync.contains(&"sync.shared_flags"),
        "autotune should pick shared flags, got {auto_sync:?}"
    );
    assert!(
        legacy_sync.contains(&"sync.barrier"),
        "legacy should pick the default barrier, got {legacy_sync:?}"
    );
    assert!(!auto.log().is_empty(), "every decision must be recorded");
    // Every recorded autotune decision names the policy that made it.
    for d in auto.log().decisions() {
        assert_eq!(d.policy, "autotune", "decision {d:?}");
    }
}
