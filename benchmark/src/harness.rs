//! The two kinds of run. An *end-to-end* run times pairs of (full pass,
//! set-up-only pass) for a fixed number of seconds with nothing armed
//! and reports what a user of the simulator sees. A *traced* run climbs
//! the probe ladder, takes the counts and the workload-independent
//! probes and reports single layers; its timings are never gated.

use std::process::Command;
use std::time::Instant;

use collectives::json::Json;

use crate::aa::value_of;
use crate::estim::{median, paired_setup_s, quantile, quiet_s, share_within, top_percentile};
use crate::host::{self, quiet_wall_s, timed, AllocCounters, Cost, KernelCounters};
use crate::probes;
use crate::spans::{self, span};
use crate::spec::Values;
use crate::workloads::{Arm, PassOut, Rung, Workload};

/// Pairs an end-to-end run makes however short `--seconds` is: the
/// paired share needs a median and the order must alternate.
const MIN_PAIRS: usize = 4;
/// Rounds of the probe ladder when time allows.
const LADDER_ROUNDS: usize = 20;
const MIN_LADDER_ROUNDS: usize = 3;
/// Share of `--seconds` a traced run gives the ladder.
const LADDER_SHARE: f64 = 0.3;
/// Passes timed with `SimConfig::traced()` armed.
const TRACED_PASSES: usize = 3;

/// What one run reports.
pub struct Outcome {
    pub values: Values,
    /// Operations of every checked full pass.
    pub attempted: u64,
    pub failed: u64,
}

/// Whether `pass` succeeded and repeats the reference bit for bit.
fn repeats(reference: &Result<PassOut, String>, pass: &Result<PassOut, String>) -> bool {
    matches!((reference, pass), (Ok(want), Ok(got)) if got.same_bits(want))
}

/// Fail every operation of the run when the reference pass itself is
/// wrong: each pass that repeated it is wrong with it.
fn verified(
    w: &dyn Workload,
    reference: &Result<PassOut, String>,
    attempted: u64,
    failed: u64,
) -> u64 {
    match reference
        .as_ref()
        .map_err(String::clone)
        .and_then(|full| w.verify(full))
    {
        Ok(()) => failed,
        Err(why) => {
            println!("CHECK FAILED ({}): {why}", w.name());
            attempted
        }
    }
}

/// How the full passes of a run were spread as the host delivered them,
/// for the reader and (traced runs) the `harness.*` metrics.
struct Spread {
    passes: usize,
    p50_s: f64,
    /// The highest percentile with at least ten samples beyond it, or
    /// the median below twenty samples.
    hi_pct: f64,
    hi_s: f64,
    /// Share of the passes within 5 % of the fastest, and within 2 %.
    quiet_share: f64,
    near_best_share: f64,
    /// Slowest ÷ fastest spin kernel around the passes.
    host_noise: f64,
}

impl Spread {
    fn of(costs: &[Cost]) -> Self {
        let walls: Vec<f64> = costs.iter().map(|c| c.wall_s).collect();
        let hi = top_percentile(walls.len()).unwrap_or(0.5);
        Self {
            passes: walls.len(),
            p50_s: median(&walls),
            hi_pct: hi * 100.0,
            hi_s: quantile(&walls, hi),
            quiet_share: share_within(&walls, 0.05),
            near_best_share: share_within(&walls, 0.02),
            host_noise: costs.iter().map(|c| c.spin_s).fold(0.0, f64::max) / host::fastest_spin_s(),
        }
    }

    fn print(&self) {
        if self.near_best_share * (self.passes as f64) < 3.0 {
            println!("warning: fewer than 3 passes within 2 % of the fastest; the host was loud throughout");
        }
        println!(
            "  full passes as the host ran them: {} samples, median {:.6} s, p{:.1} {:.6} s, {:.0} % within 5 % of the fastest, host noise x{:.2}",
            self.passes,
            self.p50_s,
            self.hi_pct,
            self.hi_s,
            self.quiet_share * 100.0,
            self.host_noise
        );
    }
}

/// Time (full, set-up-only) pairs for `seconds` seconds, nothing armed.
pub fn end_to_end(w: &dyn Workload, seconds: f64) -> Outcome {
    let ops = w.ops_per_pass();
    // The untimed warm-up pair; its full pass is the reference every
    // later pass must repeat bit for bit.
    let reference = w.pass(Rung::Full, Arm::Plain);
    let _ = w.pass(Rung::Setup, Arm::Plain);

    let (mut fulls, mut shares) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || fulls.len() < MIN_PAIRS {
        let full = || timed(|| w.pass(Rung::Full, Arm::Plain));
        let setup = || timed(|| w.pass(Rung::Setup, Arm::Plain));
        // Alternate the order so neither leg always runs on a warm heap.
        let ((pass, cost), (setup_pass, setup_cost)) = if fulls.len() % 2 == 0 {
            let f = full();
            (f, setup())
        } else {
            let s = setup();
            (full(), s)
        };
        attempted += ops;
        if !repeats(&reference, &pass) || setup_pass.is_err() {
            failed += ops;
        }
        fulls.push(cost);
        shares.push((
            cost.wall_s / cost.spin_s,
            setup_cost.wall_s / setup_cost.spin_s,
        ));
    }
    // Read before `verify`, whose references must not count.
    let peak_rss_mib = host::peak_rss_mib();
    let failed = verified(w, &reference, attempted, failed);
    Spread::of(&fulls).print();

    let pass_s = quiet_wall_s(&fulls);
    let cpu: Vec<(f64, f64)> = fulls.iter().map(|c| (c.cpu_s, c.spin_s)).collect();
    let values = Values::from([
        ("pass_s", pass_s),
        ("setup_s", paired_setup_s(pass_s, &shares)),
        ("cpu_s", quiet_s(&cpu, host::fastest_spin_s())),
        ("ops_per_s", ops as f64 / pass_s),
        ("peak_rss_mib", peak_rss_mib),
    ]);
    Outcome {
        values,
        attempted,
        failed,
    }
}

/// `pass_s` of a short end-to-end run of the same workload in a child
/// process that leaves malloc's policy alone, over `pinned_pass_s`: what
/// the pin of [`host::pin_malloc_policy`] hides. NaN when no child can
/// be started (unit tests).
fn malloc_default_ratio(w: &dyn Workload, seed: u64, pinned_pass_s: f64) -> f64 {
    let child = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args([
                "--workload",
                w.name(),
                "--seed",
                &seed.to_string(),
                "--seconds",
                "1",
                "--trace",
                "0",
            ])
            .env(host::MALLOC_ENV, "default")
            .output()
    });
    let pass_s = child.ok().and_then(|out| {
        let line = String::from_utf8_lossy(&out.stdout)
            .lines()
            .last()?
            .to_string();
        value_of(&Json::parse(&line).ok()?, "pass_s")
    });
    pass_s.map_or(f64::NAN, |default| default / pinned_pass_s)
}

/// Climb the ladder, count, probe. `seconds` bounds the ladder; the
/// counts and probes take a fixed number of passes on top.
pub fn traced(w: &dyn Workload, seed: u64, seconds: f64) -> Outcome {
    spans::start();
    let ops = w.ops_per_pass();
    let reference = span("warm_up", || w.pass(Rung::Full, Arm::Plain));
    let (mut attempted, mut failed) = (0, 0);
    // Every full pass, armed or not, must repeat the reference.
    let mut check = |pass: &Result<PassOut, String>, ok: bool| {
        attempted += ops;
        if !(ok && repeats(&reference, pass)) {
            failed += ops;
        }
    };

    // The ladder, round by round so that every rung sees every phase of
    // the host.
    let mut rungs = [const { Vec::new() }; Rung::ALL.len()];
    let start = Instant::now();
    while rungs[0].len() < MIN_LADDER_ROUNDS
        || (rungs[0].len() < LADDER_ROUNDS
            && start.elapsed().as_secs_f64() < seconds * LADDER_SHARE)
    {
        let mut lower_rungs_ok = true;
        for (costs, rung) in rungs.iter_mut().zip(Rung::ALL) {
            let (pass, cost) = span(&format!("pass.{rung:?}"), || {
                timed(|| w.pass(rung, Arm::Plain))
            });
            costs.push(cost);
            if rung == Rung::Full {
                check(&pass, lower_rungs_ok);
            } else {
                lower_rungs_ok &= pass.is_ok();
            }
        }
    }

    // `SimConfig::traced()` armed: the schedule counts, and what
    // recording them costs.
    let mut traced_costs = Vec::new();
    let mut traffic = None;
    for _ in 0..TRACED_PASSES {
        let (pass, cost) = span("pass.traced", || timed(|| w.pass(Rung::Full, Arm::Traced)));
        traced_costs.push(cost);
        check(&pass, true);
        traffic = pass.ok().map(|out| out.traffic).or(traffic);
    }
    let traffic = traffic.unwrap_or_default();

    // One pass under the counting allocator and the kernel's counters.
    host::arm_alloc_counting(true);
    let (allocs, kernel) = (AllocCounters::now(), KernelCounters::now());
    let counted = span("pass.counted", || w.pass(Rung::Full, Arm::Plain));
    let (allocs, kernel) = (
        AllocCounters::now().since(allocs),
        KernelCounters::now().since(kernel),
    );
    let peak_live_bytes = host::peak_live_bytes();
    host::arm_alloc_counting(false);
    check(&counted, true);

    let reps = ((seconds / 5.0) as usize).clamp(2, 5);
    let mut values = span("probes", || probes::common(seed, reps));
    let failed = verified(w, &reference, attempted, failed);
    let spread = Spread::of(&rungs[Rung::ALL.len() - 1]);
    spread.print();

    // Taken last, when the fastest spin kernel of the run is known.
    let [launch, comm, window, setup, full] = rungs.each_ref().map(|costs| quiet_wall_s(costs));
    let stats = &traffic.stats;
    values.extend([
        (
            "virt_us",
            reference.as_ref().map_or(f64::NAN, |out| out.virt_us),
        ),
        ("msim.launch_s", launch),
        ("hmpi.hybridcomm_new_s", comm - launch),
        ("hmpi.win_alloc_s", window - comm),
        ("collectives.barrier_s", setup - window),
        ("harness.timed_ops_s", full - setup),
        ("harness.pass_s", full),
        ("msim.trace.armed_ratio", quiet_wall_s(&traced_costs) / full),
        ("collectives.decisions", stats.decisions as f64),
        ("simnet.msgs_intra", stats.intra_msgs as f64),
        ("simnet.msgs_inter", stats.inter_msgs as f64),
        ("simnet.bytes_intra", stats.intra_bytes as f64),
        ("simnet.bytes_inter", stats.inter_bytes as f64),
        ("simnet.copy_bytes", stats.copy_bytes as f64),
        ("simnet.barriers", stats.barriers as f64),
        ("simnet.window_bytes", stats.window_bytes as f64),
        ("simnet.flops", stats.flops),
        ("simnet.trace_events", traffic.events as f64),
        (
            "simnet.host_ns_per_event",
            full * 1e9 / traffic.events as f64,
        ),
        ("host.allocs_per_pass", allocs.allocs as f64),
        ("host.alloc_bytes_per_pass", allocs.bytes as f64),
        ("host.peak_live_bytes", peak_live_bytes as f64),
        ("host.minor_faults_per_pass", kernel.minor_faults as f64),
        ("host.ctx_switches_per_pass", kernel.ctx_switches as f64),
        (
            "host.malloc_default_ratio",
            span("malloc_default", || malloc_default_ratio(w, seed, full)),
        ),
        ("harness.passes", spread.passes as f64),
        ("harness.pass_p50_s", spread.p50_s),
        ("harness.pass_hi_s", spread.hi_s),
        ("harness.pass_hi_pct", spread.hi_pct),
        ("harness.quiet_share", spread.quiet_share),
        ("harness.host_noise", spread.host_noise),
        ("harness.spans", spans::count() as f64),
    ]);
    Outcome {
        values,
        attempted,
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{result_line, END_TO_END, PER_LAYER};
    use crate::workloads::tests::small;

    #[test]
    fn only_an_exact_repeat_counts_as_success() {
        let out = |clock: f64| PassOut {
            virt_us: clock,
            clocks: vec![clock, 2.0],
            ..PassOut::default()
        };
        assert!(repeats(&Ok(out(1.5)), &Ok(out(1.5))));
        let flipped = f64::from_bits(1.5f64.to_bits() ^ 1);
        assert!(!repeats(&Ok(out(1.5)), &Ok(out(flipped))));
        assert!(!repeats(&Ok(out(1.5)), &Err("SimError".into())));
        assert!(!repeats(&Err("no reference".into()), &Ok(out(1.5))));
    }

    /// A workload whose every pass comes back with one value off.
    struct Corrupted(Box<dyn Workload>);

    impl Workload for Corrupted {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn op_unit(&self) -> &'static str {
            self.0.op_unit()
        }
        fn ops_per_pass(&self) -> u64 {
            self.0.ops_per_pass()
        }
        fn pass(&self, rung: Rung, arm: Arm) -> Result<PassOut, String> {
            let mut out = self.0.pass(rung, arm)?;
            // One latency bit in the phantom workloads, one C entry in
            // `apps_real`.
            match out.data.first_mut() {
                Some(c) => *c += 1e-6,
                None => out.clocks[0] = f64::from_bits(out.clocks[0].to_bits() ^ 1),
            }
            Ok(out)
        }
        fn verify(&self, full: &PassOut) -> Result<(), String> {
            self.0.verify(full)
        }
    }

    /// Every end-to-end name of `BENCHMARK.json` is printed for every
    /// workload and nothing else is (`result_line` panics otherwise;
    /// `spec` pins the tables to the file), and no operation fails.
    #[test]
    fn end_to_end_run_prints_exactly_the_end_to_end_metrics() {
        for w in small(3) {
            let outcome = end_to_end(w.as_ref(), 0.05);
            assert_eq!(outcome.failed, 0, "{}", w.name());
            assert!(
                outcome.attempted >= MIN_PAIRS as u64 * w.ops_per_pass(),
                "{}",
                w.name()
            );
            result_line(
                &END_TO_END,
                &outcome.values,
                outcome.attempted,
                outcome.failed,
            );
            assert!(
                outcome.values.values().all(|&v| v > 0.0),
                "{}: {:?}",
                w.name(),
                outcome.values
            );
        }
    }

    #[test]
    fn a_corrupted_result_fails_the_operations_of_every_workload() {
        for w in small(4) {
            let outcome = end_to_end(&Corrupted(w), 0.05);
            assert!(outcome.failed > 0 && outcome.failed == outcome.attempted);
            let line = result_line(
                &END_TO_END,
                &outcome.values,
                outcome.attempted,
                outcome.failed,
            );
            assert!(line.starts_with("{\"correct\": false"), "{line}");
        }
    }

    /// The same for the per-layer names. The probes run at their real
    /// sizes (a 32768-rank universe among them), so only optimized
    /// builds run this: `cargo test --release`.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "runs the full-size probes; use cargo test --release"
    )]
    fn traced_run_prints_exactly_the_per_layer_metrics() {
        let w = &small(2)[2];
        let mut outcome = traced(w.as_ref(), 2, 0.05);
        assert_eq!(outcome.failed, 0);
        // The test binary cannot be started as a benchmark child.
        assert!(outcome.values["host.malloc_default_ratio"].is_nan());
        outcome.values.insert("host.malloc_default_ratio", 1.0);
        result_line(
            &PER_LAYER,
            &outcome.values,
            outcome.attempted,
            outcome.failed,
        );
        let ladder = [
            "msim.launch_s",
            "hmpi.hybridcomm_new_s",
            "hmpi.win_alloc_s",
            "collectives.barrier_s",
            "harness.timed_ops_s",
        ];
        let sum: f64 = ladder.iter().map(|name| outcome.values[name]).sum();
        assert!(
            (sum - outcome.values["harness.pass_s"]).abs() < 1e-12,
            "the rungs telescope to the full pass"
        );
    }
}
