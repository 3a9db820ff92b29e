//! Exhaustive model checking of the shipped collectives, through the
//! program table `bench mcheck` sweeps.
//!
//! Every family runs under `msim::explore` — DPOR over *all* inequivalent
//! schedules — with real data and the race detector armed, for all three
//! synchronization protocols, on a 2×2 cluster (small enough to exhaust,
//! large enough to exercise both the on-node and the bridge layer). The
//! assertion is double-ended: no certificate (no schedule deadlocks,
//! races, panics or diverges) and exactly one schedule explored (the
//! collectives are fully synchronized, so DPOR proves there is nothing
//! else to try). A count above one would mean a benign-but-real
//! nondeterminism crept into an envelope.

use bench::mcheck::{config, run_family, verdict, FAMILIES, SYNCS};
use msim::{ExploreOpts, ExploreReport, ExploreStats};

/// Every family × sync of the table `bench mcheck --family all` sweeps,
/// with both ranks of each node leading in the multi-leader families.
#[test]
fn every_family_explores_clean_in_one_schedule() {
    let opts = ExploreOpts::default();
    for family in FAMILIES {
        for (_, sync) in SYNCS {
            let report = run_family(family, sync, &config(2, 2), 2, &opts);
            assert_eq!(verdict(&report, &opts), Ok(()), "{family}/{sync:?}");
            assert_eq!(report.stats.schedules, 1, "{family}/{sync:?}");
        }
    }
}

/// A plain DPOR cell that explores a second schedule, or stops at its
/// budget, fails; a naive or preemption-bounded one is judged on its
/// certificate alone.
#[test]
fn verdict_fails_a_dpor_cell_past_one_schedule() {
    let report = |schedules, capped| ExploreReport {
        stats: ExploreStats {
            schedules,
            capped,
            ..ExploreStats::default()
        },
        certificate: None,
    };
    let dpor = ExploreOpts::default();
    assert_eq!(verdict(&report(1, false), &dpor), Ok(()));
    assert!(verdict(&report(2, false), &dpor).is_err());
    assert!(verdict(&report(1, true), &dpor).is_err());
    let naive = ExploreOpts {
        naive: true,
        ..ExploreOpts::default()
    };
    assert_eq!(verdict(&report(24, false), &naive), Ok(()));
    let bounded = ExploreOpts {
        preemption_bound: Some(1),
        ..ExploreOpts::default()
    };
    assert_eq!(verdict(&report(3, true), &bounded), Ok(()));
}
