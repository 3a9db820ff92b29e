//! Communication/computation overlap measurements for the three
//! applications (paper §7): each app's hybrid kernel against its
//! split-phase variant, which posts the bridge/halo traffic nonblocking
//! and folds independent local compute under it.
//!
//! * **SUMMA** — `hy_summa` vs `hy_summa_overlap` (panel broadcast for
//!   step k+1 prefetched under step k's GEMM);
//! * **CG** — `hy_cg` vs `hy_cg_overlap` (halo under the interior
//!   matvec rows, the ‖r‖² allreduce under the x-update);
//! * **stencil** — `hy_jacobi` vs `hy_jacobi_overlap` (node-boundary
//!   strips under the interior Jacobi sweep).
//!
//! All runs are phantom-mode on the Hazel Hen cost model; every variant
//! pair performs bit-identical arithmetic (pinned by the app test
//! suites), so the comparison is purely about where the waits land.

use msim::{ExecMode, SimConfig, Universe};
use simnet::ClusterSpec;

use crate::machines::Machine;

/// Which application pair to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlapApp {
    /// SUMMA matrix multiply, 4×4 grid on 2×8 cores; size = block edge.
    Summa,
    /// Conjugate gradient, 4×8 cores; size = problem dimension.
    Cg,
    /// 5-point Jacobi, 2×8 cores; size = grid edge.
    Stencil,
}

impl OverlapApp {
    /// Every measured application.
    pub const ALL: [OverlapApp; 3] = [OverlapApp::Summa, OverlapApp::Cg, OverlapApp::Stencil];

    /// The artifact label.
    pub fn label(self) -> &'static str {
        match self {
            OverlapApp::Summa => "summa",
            OverlapApp::Cg => "cg",
            OverlapApp::Stencil => "stencil",
        }
    }

    /// The app's cluster shape and size ladder: (nodes, ppn, sizes).
    pub fn ladder(self) -> (usize, usize, &'static [usize]) {
        match self {
            OverlapApp::Summa => (2, 8, &[32, 64]),
            OverlapApp::Cg => (4, 8, &[16384, 65536]),
            OverlapApp::Stencil => (2, 8, &[48, 96]),
        }
    }
}

/// Measure one (app, size) point on the given pool width: the slowest
/// rank's virtual time (µs) of the blocking hybrid kernel and of its
/// overlapped variant, on identical configurations.
pub fn overlap_latency(
    app: OverlapApp,
    size: usize,
    machine: &Machine,
    exec: ExecMode,
) -> (f64, f64) {
    let (nodes, ppn, _) = app.ladder();
    let run = |overlap: bool| -> f64 {
        let cfg = SimConfig::new(ClusterSpec::regular(nodes, ppn), machine.cost.clone())
            .phantom()
            .with_exec(exec);
        let tuning = machine.tuning.clone();
        let result = Universe::run(cfg, move |ctx| match app {
            OverlapApp::Summa => {
                let spec = summa::SummaSpec {
                    q: 4,
                    block: size,
                    tuning: tuning.clone(),
                };
                if overlap {
                    summa::hy_summa_overlap(ctx, &spec).elapsed_us
                } else {
                    summa::hy_summa(ctx, &spec).elapsed_us
                }
            }
            OverlapApp::Cg => {
                let spec = cg::CgSpec { n: size, iters: 6 };
                if overlap {
                    cg::hy_cg_overlap(ctx, &spec).elapsed_us
                } else {
                    cg::hy_cg(ctx, &spec).elapsed_us
                }
            }
            OverlapApp::Stencil => {
                let spec = stencil::StencilSpec { n: size, iters: 10 };
                if overlap {
                    stencil::hy_jacobi_overlap(ctx, &spec).elapsed_us
                } else {
                    stencil::hy_jacobi(ctx, &spec).elapsed_us
                }
            }
        })
        .expect("overlap bench universe must not fail");
        result.per_rank.into_iter().fold(0.0f64, f64::max)
    };
    (run(false), run(true))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_app_has_an_overlap_win_at_its_top_size() {
        let m = Machine::hazel_hen();
        for app in OverlapApp::ALL {
            let (_, _, sizes) = app.ladder();
            let top = *sizes.last().unwrap();
            let (blocking, overlapped) = overlap_latency(app, top, &m, ExecMode::default());
            assert!(
                overlapped < blocking,
                "{}: overlapped ({overlapped}) should beat blocking ({blocking}) at size {top}",
                app.label()
            );
        }
    }

    #[test]
    fn virtual_times_are_width_invariant() {
        let m = Machine::hazel_hen();
        let app = OverlapApp::Stencil;
        let one = overlap_latency(app, 48, &m, ExecMode::Pooled { workers: Some(1) });
        let two = overlap_latency(app, 48, &m, ExecMode::Pooled { workers: Some(2) });
        assert_eq!(one, two);
    }
}
