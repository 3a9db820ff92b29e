//! Runtime algorithm selection, modeled after MPICH and OpenMPI.
//!
//! Real MPI libraries switch collective algorithms at runtime based on
//! message size and communicator size; the two clusters in the paper run
//! different libraries (Cray MPI ≈ MPICH-derived, OpenMPI), whose different
//! thresholds are one reason the paper's OpenMPI and Cray MPI curves
//! differ. [`Tuning`] captures those thresholds.

/// Which MPI library's selection behavior to imitate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpiFlavor {
    /// Cray MPI (MPICH-derived), as on the Cray XC40 "Hazel Hen".
    CrayMpich,
    /// OpenMPI, as on the NEC "Vulcan" cluster.
    OpenMpi,
}

/// Algorithm-selection thresholds (bytes unless noted).
#[derive(Debug, Clone, PartialEq)]
pub struct Tuning {
    /// The flavor these thresholds belong to.
    pub flavor: MpiFlavor,
    /// Bcast switches binomial → scatter+allgather at this message size.
    pub bcast_long_threshold: usize,
    /// Bcast never uses the long algorithm below this communicator size.
    pub bcast_min_ranks_for_long: usize,
    /// Allgather uses recursive doubling below this *total* (count·p)
    /// size when p is a power of two.
    pub allgather_rd_threshold: usize,
    /// Allgather uses Bruck below this total size when p is not a power
    /// of two; ring otherwise.
    pub allgather_bruck_threshold: usize,
    /// Allgatherv uses Bruck below this total size, ring above — the
    /// irregular variant never gets recursive doubling, which is the
    /// "Allgatherv is less optimized than Allgather" effect of the
    /// paper's reference \[29\].
    pub allgatherv_bruck_threshold: usize,
    /// Allreduce switches recursive doubling → Rabenseifner here.
    pub allreduce_rabenseifner_threshold: usize,
    /// Alltoallv posts all sends eagerly (linear exchange) up to this
    /// communicator size; beyond it the scheduled pairwise exchange
    /// bounds the number of simultaneously outstanding messages.
    pub alltoallv_linear_max_ranks: usize,
    /// Per-member bookkeeping overhead (µs) charged by `v`-variants for
    /// processing the counts/displacements vectors.
    pub v_overhead_per_rank_us: f64,
}

impl Tuning {
    /// MPICH-like thresholds (Cray MPI).
    pub fn cray_mpich() -> Self {
        Self {
            flavor: MpiFlavor::CrayMpich,
            bcast_long_threshold: 12 * 1024,
            bcast_min_ranks_for_long: 8,
            allgather_rd_threshold: 512 * 1024,
            allgather_bruck_threshold: 80 * 1024,
            allgatherv_bruck_threshold: 512 * 1024,
            allreduce_rabenseifner_threshold: 2048,
            alltoallv_linear_max_ranks: 32,
            v_overhead_per_rank_us: 0.008,
        }
    }

    /// OpenMPI-like thresholds.
    pub fn open_mpi() -> Self {
        Self {
            flavor: MpiFlavor::OpenMpi,
            bcast_long_threshold: 8 * 1024,
            bcast_min_ranks_for_long: 8,
            allgather_rd_threshold: 256 * 1024,
            allgather_bruck_threshold: 64 * 1024,
            allgatherv_bruck_threshold: 256 * 1024,
            allreduce_rabenseifner_threshold: 4096,
            alltoallv_linear_max_ranks: 16,
            v_overhead_per_rank_us: 0.012,
        }
    }

    /// The tuning for a flavor.
    pub fn for_flavor(flavor: MpiFlavor) -> Self {
        match flavor {
            MpiFlavor::CrayMpich => Self::cray_mpich(),
            MpiFlavor::OpenMpi => Self::open_mpi(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flavors_have_distinct_tunings() {
        assert_ne!(Tuning::cray_mpich(), Tuning::open_mpi());
        assert_eq!(
            Tuning::for_flavor(MpiFlavor::OpenMpi).flavor,
            MpiFlavor::OpenMpi
        );
        assert_eq!(
            Tuning::for_flavor(MpiFlavor::CrayMpich).flavor,
            MpiFlavor::CrayMpich
        );
    }

    #[test]
    fn v_variants_carry_overhead() {
        assert!(Tuning::cray_mpich().v_overhead_per_rank_us > 0.0);
        assert!(Tuning::open_mpi().v_overhead_per_rank_us > 0.0);
    }
}
