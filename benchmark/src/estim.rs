//! The estimators (README "Why these estimators").
//!
//! The sandbox runs at its quiet speed for a third of the time and about
//! 1.3 times slower for the rest, in phases that can outlast a run, so
//! the total, the median and even the best of a run's passes move
//! 10–25 % between identical runs. What does not move is a pass divided
//! by the spin kernel timed around it — both slow down together — and
//! the fastest spin kernel of a run, which finds a quiet gap of 3 ms in
//! the loudest minute. A time is therefore estimated as a low quantile
//! of (seconds ÷ adjacent spin seconds) times the fastest spin seconds:
//! what the region costs at the host's quiet speed. The set-up share is
//! the median of a ratio of two passes that ran back to back.

/// The smallest sample — the pass the host disturbed least.
pub fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The quantile of (seconds ÷ spin seconds) that stands for the quiet
/// host. Bursts that hit a pass harder than the spin kernel only ever
/// add, so the estimate sits below the median; the lowest ratios pair a
/// pass with spin samples that a burst happened to hit, so not near
/// zero either. Over 11 runs of each workload the first quartile moved
/// 2.4–2.9 % between runs, the 10th percentile 3.3–7.7 %, the median
/// 3.0–6.0 %.
pub const QUIET_QUANTILE: f64 = 0.25;

/// Seconds a region takes at the host's quiet speed. Each sample is
/// `(seconds, spin_s)`: what the region took and what the spin kernel
/// took around it; `fastest_spin_s` is the quickest the spin kernel ran
/// in the whole run.
pub fn quiet_s(samples: &[(f64, f64)], fastest_spin_s: f64) -> f64 {
    let ratios: Vec<f64> = samples.iter().map(|&(s, spin_s)| s / spin_s).collect();
    quantile(&ratios, QUIET_QUANTILE) * fastest_spin_s
}

/// Set-up seconds of a quiet pass: `quiet_full` × the median over pairs
/// of (set-up-only seconds ÷ full seconds).
pub fn paired_setup_s(quiet_full: f64, pairs: &[(f64, f64)]) -> f64 {
    let shares: Vec<f64> = pairs.iter().map(|&(full, setup)| setup / full).collect();
    quiet_full * median(&shares)
}

/// The highest percentile that still has at least ten samples beyond
/// it (choosing-metrics §1), or `None` below twenty samples, where only
/// the median is reportable.
pub fn top_percentile(n: usize) -> Option<f64> {
    (n >= 20).then(|| 1.0 - 10.0 / n as f64)
}

/// Share of the samples within `tol` (relative) of the best one.
pub fn share_within(samples: &[f64], tol: f64) -> f64 {
    let limit = best(samples) * (1.0 + tol);
    samples.iter().filter(|&&s| s <= limit).count() as f64 / samples.len() as f64
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// `b` is better).
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_n_ignores_loud_passes() {
        assert_eq!(best(&[0.31, 0.25, 0.233, 0.36, 0.29]), 0.233);
    }

    /// A run that never sees the quiet host still reads quiet seconds:
    /// every pass and the spin kernel around it are 1.3 times slow, one
    /// spin sample found a gap.
    #[test]
    fn quiet_estimate_survives_a_loud_run() {
        let quiet: Vec<(f64, f64)> = (0..40)
            .map(|i| (0.200 + 1e-4 * (i % 5) as f64, 0.0029))
            .collect();
        let loud: Vec<(f64, f64)> = quiet
            .iter()
            .map(|&(s, spin)| (s * 1.3, spin * 1.3))
            .collect();
        let (a, b) = (quiet_s(&quiet, 0.0029), quiet_s(&loud, 0.0029));
        assert!(
            (a - b).abs() < 1e-12 && (0.2..0.2005).contains(&a),
            "{a} {b}"
        );
        // A burst that hits a tenth of the passes (and not their spin
        // samples) moves nothing; the raw best pass would read 0.26.
        let mut burst = loud.clone();
        burst.iter_mut().step_by(10).for_each(|s| s.0 *= 1.5);
        assert!((quiet_s(&burst, 0.0029) - a).abs() < 2e-4);
        assert!(best(&loud.iter().map(|s| s.0).collect::<Vec<_>>()) > 0.259);
    }

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn paired_share_survives_a_phase_change() {
        // Three quiet pairs and two loud ones: the share within each
        // pair is 0.3 whatever the phase, so the estimate is exact.
        let pairs = [
            (0.20, 0.06),
            (0.21, 0.063),
            (0.30, 0.09),
            (0.34, 0.102),
            (0.20, 0.06),
        ];
        let setup = paired_setup_s(0.20, &pairs);
        assert!((setup - 0.06).abs() < 1e-12, "{setup}");
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        assert_eq!(top_percentile(19), None);
        assert_eq!(top_percentile(20), Some(0.5));
        assert_eq!(top_percentile(100), Some(0.9));
        assert_eq!(top_percentile(1000), Some(0.99));
    }

    #[test]
    fn quiet_share_counts_near_best() {
        let s = [1.0, 1.01, 1.04, 1.2, 1.5];
        assert_eq!(share_within(&s, 0.05), 0.6);
        assert_eq!(share_within(&s, 0.02), 0.4);
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((worsening(10.0, 11.0, true) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, false) - 0.1).abs() < 1e-12);
        assert!(worsening(10.0, 9.0, true) < 0.0);
    }
}
