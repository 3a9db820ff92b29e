//! The four workloads. Each is a closed loop on one busy thread: a
//! *pass* generates its inputs, launches its universe(s), builds
//! communicators, hierarchy and windows, runs the timed operations and
//! tears everything down. A pass can stop at any [`Rung`] of the probe
//! ladder, so the set-up-only pass and the per-layer differences come
//! from the same rank programs as the full pass.

pub mod apps_real;
pub mod figs_pooled;
pub mod scale_events;
pub mod stream_pooled;

use msim::{Ctx, ExecMode, SimConfig, Universe};
use simnet::analysis::TrafficStats;

use crate::spans;

/// One busy thread: the pooled executor with a single worker.
pub const POOLED_1: ExecMode = ExecMode::Pooled { workers: Some(1) };

/// How far a pass goes. Each rung adds one layer's work to the one
/// before, so the difference of two consecutive rungs is that layer's
/// host time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// P0: generate inputs, launch every universe with an empty program.
    Launch,
    /// P1: + communicator splits and hierarchy (`HybridComm`, `SmpAware`,
    /// `GridComms`).
    Comm,
    /// P2: + window allocation (the `Hy*::new` handles).
    Window,
    /// P3: + the barrier before the timed region — the paper's "one-off
    /// activities", i.e. the set-up-only pass.
    Setup,
    /// P4: + the timed operations — the full pass.
    Full,
}

impl Rung {
    pub const ALL: [Rung; 5] = [
        Rung::Launch,
        Rung::Comm,
        Rung::Window,
        Rung::Setup,
        Rung::Full,
    ];
}

/// Which optional machinery of `msim` a pass runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    Plain,
    /// `SimConfig::traced()`: every schedule event is recorded.
    Traced,
    /// `with_race_detect(true)`: the happens-before detector watches
    /// every window access (real-payload universes only).
    Race,
}

/// Schedule counts of a traced pass, summed over its universes.
#[derive(Debug, Default)]
pub struct Traffic {
    pub stats: TrafficStats,
    pub events: usize,
}

/// What one pass returned.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Sum over the pass's universes of the modeled time (max over
    /// ranks), in canonical universe order.
    pub virt_us: f64,
    /// Every modeled number the pass returned. Compared bit for bit
    /// between passes and against the reference executor.
    pub clocks: Vec<f64>,
    /// Computed payload (C blocks, RMSE) of real-data workloads.
    pub data: Vec<f64>,
    pub traffic: Traffic,
}

impl PassOut {
    /// Whether both passes returned the same bits.
    pub fn same_bits(&self, other: &PassOut) -> bool {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        self.virt_us.to_bits() == other.virt_us.to_bits()
            && bits(&self.clocks) == bits(&other.clocks)
            && bits(&self.data) == bits(&other.data)
    }
}

pub trait Workload {
    fn name(&self) -> &'static str;
    /// What counts as one operation, for the report.
    fn op_unit(&self) -> &'static str;
    /// Operations a full pass attempts; exact, the same on every pass.
    fn ops_per_pass(&self) -> u64;
    /// Run one pass up to `rung`. An `Err` (a `SimError`, more than one
    /// busy thread, a leaked window) fails every operation of the pass.
    fn pass(&self, rung: Rung, arm: Arm) -> Result<PassOut, String>;
    /// Check a full pass against references that are computed here, once:
    /// the same program under the other executor, closed-form oracles.
    /// Runs after the measured loop so that its memory does not count
    /// towards `peak_rss_mib`.
    fn verify(&self, full: &PassOut) -> Result<(), String>;
}

pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    match name {
        "scale_events" => Some(Box::new(scale_events::ScaleEvents::standard())),
        "figs_pooled" => Some(Box::new(figs_pooled::FigsPooled::standard(seed))),
        "stream_pooled" => Some(Box::new(stream_pooled::StreamPooled::standard(seed))),
        "apps_real" => Some(Box::new(apps_real::AppsReal::standard(seed))),
        _ => None,
    }
}

/// Launch one universe under `arm` inside a span, and hold it to the run
/// shape: one busy thread, no window left open. Returns what each rank
/// returned; a traced universe adds its schedule counts to `traffic`.
pub fn launch<T, F>(
    label: &str,
    cfg: SimConfig,
    arm: Arm,
    traffic: &mut Traffic,
    program: F,
) -> Result<Vec<T>, String>
where
    T: Send,
    F: Fn(&mut Ctx) -> T + Send + Sync,
{
    let cfg = match arm {
        Arm::Plain => cfg,
        Arm::Traced => cfg.traced(),
        Arm::Race => cfg.with_race_detect(true),
    };
    let result =
        spans::span(label, || Universe::run(cfg, program)).map_err(|e| format!("{label}: {e}"))?;
    if result.peak_threads != 1 {
        return Err(format!(
            "{label}: {} busy threads, the run shape allows 1",
            result.peak_threads
        ));
    }
    if result.open_windows != 0 {
        return Err(format!(
            "{label}: {} shared windows leaked",
            result.open_windows
        ));
    }
    if arm == Arm::Traced {
        let events = result.tracer.events();
        let s = TrafficStats::of(&events);
        let t = &mut traffic.stats;
        t.intra_msgs += s.intra_msgs;
        t.inter_msgs += s.inter_msgs;
        t.intra_bytes += s.intra_bytes;
        t.inter_bytes += s.inter_bytes;
        t.copy_bytes += s.copy_bytes;
        t.flops += s.flops;
        t.barriers += s.barriers;
        t.window_bytes += s.window_bytes;
        t.decisions += s.decisions;
        traffic.events += events.len();
    }
    Ok(result.per_rank)
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// Check `got` against `want` bit for bit, naming the first difference.
pub fn expect_same_bits(what: &str, got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} values, reference has {}",
            got.len(),
            want.len()
        ));
    }
    match got
        .iter()
        .zip(want)
        .position(|(g, w)| g.to_bits() != w.to_bits())
    {
        Some(i) => Err(format!(
            "{what}: value {i} is {:e}, reference {:e}",
            got[i], want[i]
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use bpmf::SyntheticSpec;

    /// Every workload at a size a debug build runs in a blink.
    pub fn small(seed: u64) -> Vec<Box<dyn Workload>> {
        vec![
            Box::new(scale_events::ScaleEvents::new(2, 4)),
            Box::new(figs_pooled::FigsPooled::new(2, 4, &[8, 4096], seed)),
            Box::new(stream_pooled::StreamPooled::new(2, 4, seed)),
            Box::new(apps_real::AppsReal::new(2, 8, SyntheticSpec::tiny(seed), 1)),
        ]
    }

    fn flip_lowest_bit(x: &mut f64) {
        *x = f64::from_bits(x.to_bits() ^ 1);
    }

    #[test]
    fn clean_passes_verify_and_repeat() {
        for w in small(5) {
            let full = w.pass(Rung::Full, Arm::Plain).unwrap();
            assert_eq!(w.verify(&full), Ok(()), "{}", w.name());
            assert!(
                full.same_bits(&w.pass(Rung::Full, Arm::Plain).unwrap()),
                "{}",
                w.name()
            );
            assert!(full.virt_us > 0.0 && w.ops_per_pass() > 0);
        }
    }

    #[test]
    fn every_rung_runs_and_only_the_full_one_times_operations() {
        for w in small(6) {
            for rung in Rung::ALL {
                let out = w.pass(rung, Arm::Plain).unwrap();
                assert_eq!(
                    out.virt_us > 0.0,
                    rung == Rung::Full,
                    "{} {rung:?}",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn one_flipped_latency_bit_is_caught() {
        for w in small(7) {
            let clean = w.pass(Rung::Full, Arm::Plain).unwrap();
            let mut bad = w.pass(Rung::Full, Arm::Plain).unwrap();
            flip_lowest_bit(&mut bad.clocks[0]);
            assert!(!bad.same_bits(&clean), "{}", w.name());
            // The phantom workloads also pin every clock to a reference
            // executor; `apps_real` pins its data (next test).
            if w.name() != "apps_real" {
                assert!(w.verify(&bad).is_err(), "{}", w.name());
            }
        }
    }

    #[test]
    fn one_perturbed_c_entry_or_rmse_is_caught() {
        let w = apps_real::AppsReal::new(2, 8, SyntheticSpec::tiny(8), 1);
        let clean = w.pass(Rung::Full, Arm::Plain).unwrap();
        let last = clean.data.len() - 1;
        for index in [0, 2 * 4 * 64 + 3, last] {
            let mut bad = w.pass(Rung::Full, Arm::Plain).unwrap();
            bad.data[index] += 1e-6;
            assert!(!bad.same_bits(&clean));
            assert!(w.verify(&bad).is_err(), "entry {index}");
        }
    }

    #[test]
    fn traced_and_race_armed_passes_keep_the_bits() {
        for w in small(9) {
            let plain = w.pass(Rung::Full, Arm::Plain).unwrap();
            let traced = w.pass(Rung::Full, Arm::Traced).unwrap();
            assert!(traced.same_bits(&plain), "{}", w.name());
            assert!(
                traced.traffic.events > 0 && plain.traffic.events == 0,
                "{}",
                w.name()
            );
            assert!(
                w.pass(Rung::Full, Arm::Race).unwrap().same_bits(&plain),
                "{}",
                w.name()
            );
        }
    }
}
