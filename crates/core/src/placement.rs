//! Data-placement strategies: which of the six bound matrices go to shared
//! memory (Section III-B / IV-B of the paper).
//!
//! The paper's analysis goes: `RM`, `QM` and `MM` are too small and too
//! rarely accessed for their placement to matter; `JM`, `LM` and `PTM` do not
//! fit together in the 48 KB of Fermi shared memory for large instances;
//! `JM` and `PTM` have the highest access-count-to-size ratio, so **stage
//! `JM` and `PTM` in shared memory** and leave the rest in global memory
//! backed by L1. [`DataPlacement::recommend`] reproduces that decision
//! procedure; the other variants exist to reproduce Table II (all-global) and
//! for the ablation benches.

use fsp::bound::counts::AccessCounts;

/// One of the six data structures of the lower-bound kernel (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatrixId {
    /// Processing-time matrix.
    Ptm,
    /// Lag matrix.
    Lm,
    /// Johnson-order matrix.
    Jm,
    /// Head (earliest start) matrix.
    Rm,
    /// Tail matrix.
    Qm,
    /// Machine-pair table.
    Mm,
}

impl MatrixId {
    /// All six matrices, in Table I order.
    pub const ALL: [MatrixId; 6] = [
        MatrixId::Ptm,
        MatrixId::Lm,
        MatrixId::Jm,
        MatrixId::Rm,
        MatrixId::Qm,
        MatrixId::Mm,
    ];

    /// Number of elements of this matrix for an `n × m` instance.
    pub fn elements(&self, n: usize, m: usize) -> usize {
        let pairs = m * (m - 1) / 2;
        match self {
            MatrixId::Ptm => n * m,
            MatrixId::Lm => n * pairs,
            MatrixId::Jm => n * pairs,
            MatrixId::Rm => n * m,
            MatrixId::Qm => n * m,
            MatrixId::Mm => pairs * 2,
        }
    }

    /// Packed element width in bytes on the real device. Processing times
    /// (1..=99) and machine indices fit in one byte; job indices fit in one
    /// byte up to 256 jobs; lags, heads and tails need two to four bytes.
    pub fn packed_elem_bytes(&self, n: usize) -> usize {
        match self {
            MatrixId::Ptm => 1,
            MatrixId::Jm => {
                if n <= 256 {
                    1
                } else {
                    2
                }
            }
            MatrixId::Mm => 1,
            MatrixId::Lm => 2,
            MatrixId::Rm => 4,
            MatrixId::Qm => 4,
        }
    }

    /// Packed size in bytes for an `n × m` instance.
    pub fn packed_bytes(&self, n: usize, m: usize) -> usize {
        self.elements(n, m) * self.packed_elem_bytes(n)
    }

    /// Number of reads of this matrix during one bound evaluation with `np`
    /// remaining jobs (this implementation's counts; see
    /// [`AccessCounts::impl_expected`]).
    pub fn accesses_per_bound(&self, n: usize, m: usize, np: usize) -> u64 {
        let c = AccessCounts::impl_expected(n, m, np);
        match self {
            MatrixId::Ptm => c.ptm,
            MatrixId::Lm => c.lm,
            MatrixId::Jm => c.jm,
            MatrixId::Rm => c.rm,
            MatrixId::Qm => c.qm,
            MatrixId::Mm => c.mm,
        }
    }
}

/// A placement of the six matrices onto the device memory hierarchy: the
/// listed matrices are staged into per-block shared memory, everything else
/// stays in global memory behind the L1 cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataPlacement {
    /// Everything in global memory (Table II of the paper).
    AllGlobal,
    /// `JM` and `PTM` in shared memory (Table III — the paper's
    /// recommendation).
    SharedJmPtm,
    /// Only `JM` in shared memory.
    SharedJm,
    /// Only `PTM` in shared memory.
    SharedPtm,
    /// An arbitrary subset (ablation studies).
    Custom(Vec<MatrixId>),
}

impl DataPlacement {
    /// The matrices this placement stages into shared memory.
    pub fn shared_matrices(&self) -> &[MatrixId] {
        match self {
            DataPlacement::AllGlobal => &[],
            DataPlacement::SharedJmPtm => &[MatrixId::Jm, MatrixId::Ptm],
            DataPlacement::SharedJm => &[MatrixId::Jm],
            DataPlacement::SharedPtm => &[MatrixId::Ptm],
            DataPlacement::Custom(v) => v,
        }
    }

    /// `true` when `matrix` is staged in shared memory.
    pub fn is_shared(&self, matrix: MatrixId) -> bool {
        self.shared_matrices().contains(&matrix)
    }

    /// Shared-memory bytes required per block for an `n × m` instance.
    pub fn shared_bytes(&self, n: usize, m: usize) -> usize {
        self.shared_matrices()
            .iter()
            .map(|mat| mat.packed_bytes(n, m))
            .sum()
    }

    /// `true` when the staged matrices fit in `shared_capacity` bytes.
    pub fn fits(&self, n: usize, m: usize, shared_capacity: usize) -> bool {
        self.shared_bytes(n, m) <= shared_capacity
    }

    /// Short name used in experiment reports.
    pub fn name(&self) -> String {
        match self {
            DataPlacement::AllGlobal => "all-global".to_string(),
            DataPlacement::SharedJmPtm => "shared-jm-ptm".to_string(),
            DataPlacement::SharedJm => "shared-jm".to_string(),
            DataPlacement::SharedPtm => "shared-ptm".to_string(),
            DataPlacement::Custom(v) => {
                let names: Vec<&str> = v
                    .iter()
                    .map(|m| match m {
                        MatrixId::Ptm => "ptm",
                        MatrixId::Lm => "lm",
                        MatrixId::Jm => "jm",
                        MatrixId::Rm => "rm",
                        MatrixId::Qm => "qm",
                        MatrixId::Mm => "mm",
                    })
                    .collect();
                format!("shared-{}", names.join("-"))
            }
        }
    }

    /// The paper's decision procedure (Section IV-B): stage `JM` and `PTM` if
    /// they fit together in the available shared memory, otherwise stage `JM`
    /// alone if it fits, otherwise `PTM` alone, otherwise keep everything in
    /// global memory.
    pub fn recommend(n: usize, m: usize, shared_capacity: usize) -> DataPlacement {
        for candidate in [
            DataPlacement::SharedJmPtm,
            DataPlacement::SharedJm,
            DataPlacement::SharedPtm,
        ] {
            if candidate.fits(n, m, shared_capacity) {
                return candidate;
            }
        }
        DataPlacement::AllGlobal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHARED_48K: usize = 48 * 1024;

    #[test]
    fn packed_sizes_match_the_paper_for_200x20() {
        // Section IV-B: for n = 200 the paper quotes JM and LM at 38 KB each
        // and PTM at 4 KB.
        assert_eq!(MatrixId::Jm.packed_bytes(200, 20), 38_000);
        assert_eq!(MatrixId::Lm.packed_bytes(200, 20), 76_000); // 2-byte lags
        assert_eq!(MatrixId::Ptm.packed_bytes(200, 20), 4_000);
    }

    #[test]
    fn shared_jm_ptm_fits_for_every_paper_class() {
        for (n, m) in [(20, 20), (50, 20), (100, 20), (200, 20)] {
            assert!(
                DataPlacement::SharedJmPtm.fits(n, m, SHARED_48K),
                "JM+PTM should fit in 48 KB for {n}x{m}"
            );
        }
    }

    #[test]
    fn all_three_large_matrices_do_not_fit_for_200x20() {
        let jm_lm_ptm = DataPlacement::Custom(vec![MatrixId::Jm, MatrixId::Lm, MatrixId::Ptm]);
        assert!(!jm_lm_ptm.fits(200, 20, SHARED_48K));
    }

    #[test]
    fn recommendation_is_jm_ptm_for_paper_classes() {
        for (n, m) in [(20, 20), (50, 20), (100, 20), (200, 20)] {
            assert_eq!(
                DataPlacement::recommend(n, m, SHARED_48K),
                DataPlacement::SharedJmPtm
            );
        }
    }

    #[test]
    fn recommendation_degrades_gracefully_when_shared_is_tiny() {
        // With only 8 KB of shared memory, JM+PTM no longer fit for n = 100;
        // JM alone does not either; PTM (2 KB) does.
        let rec = DataPlacement::recommend(100, 20, 8 * 1024);
        assert_eq!(rec, DataPlacement::SharedPtm);
        // With essentially no shared memory the recommendation is all-global.
        assert_eq!(
            DataPlacement::recommend(100, 20, 128),
            DataPlacement::AllGlobal
        );
    }

    #[test]
    fn access_counts_rank_jm_and_ptm_highest_among_shared_candidates() {
        // The placement rationale: per byte of footprint, JM and PTM are the
        // most frequently accessed of the three large matrices.
        let (n, m, np) = (200, 20, 190);
        let density =
            |mat: MatrixId| mat.accesses_per_bound(n, m, np) as f64 / mat.packed_bytes(n, m) as f64;
        assert!(density(MatrixId::Ptm) > density(MatrixId::Lm));
        assert!(density(MatrixId::Jm) > density(MatrixId::Lm));
    }

    #[test]
    fn names_and_membership() {
        assert_eq!(DataPlacement::AllGlobal.name(), "all-global");
        assert_eq!(DataPlacement::SharedJmPtm.name(), "shared-jm-ptm");
        assert!(DataPlacement::SharedJmPtm.is_shared(MatrixId::Jm));
        assert!(DataPlacement::SharedJmPtm.is_shared(MatrixId::Ptm));
        assert!(!DataPlacement::SharedJmPtm.is_shared(MatrixId::Lm));
        let custom = DataPlacement::Custom(vec![MatrixId::Lm]);
        assert_eq!(custom.name(), "shared-lm");
        assert!(custom.is_shared(MatrixId::Lm));
    }

    #[test]
    fn shared_bytes_sum_staged_matrices() {
        let p = DataPlacement::SharedJmPtm;
        assert_eq!(
            p.shared_bytes(100, 20),
            MatrixId::Jm.packed_bytes(100, 20) + MatrixId::Ptm.packed_bytes(100, 20)
        );
        assert_eq!(DataPlacement::AllGlobal.shared_bytes(100, 20), 0);
    }

    #[test]
    fn element_counts_match_table_one() {
        assert_eq!(MatrixId::Ptm.elements(200, 20), 4_000);
        assert_eq!(MatrixId::Jm.elements(200, 20), 38_000);
        assert_eq!(MatrixId::Lm.elements(200, 20), 38_000);
        assert_eq!(MatrixId::Mm.elements(200, 20), 380);
    }
}
