//! The six data structures of the lower-bound algorithm (Table I of the
//! paper).
//!
//! | Matrix | Meaning | Size |
//! |--------|---------|------|
//! | `PTM`  | processing times `p[j][k]` | `n × m` |
//! | `LM`   | lag of job `j` for machine pair `(k,l)` | `n × m(m−1)/2` |
//! | `JM`   | Johnson order (with lags) of the jobs for each machine pair | `n × m(m−1)/2` |
//! | `RM`   | head of job `j` before machine `k` (earliest start) | `n × m` |
//! | `QM`   | tail of job `j` after machine `k` | `n × m` |
//! | `MM`   | the machine pairs `(k,l)`, `k < l` | `m(m−1)/2 × 2` |
//!
//! All matrices are computed **once per instance** on the host and are
//! read-only afterwards, which is what makes the GPU off-load of the paper
//! possible: the per-sub-problem payload is only the scheduled prefix.
//!
//! Note on `RM`/`QM`: the paper's Table I lists them with size `m`; its
//! Figure 2 pseudo-code however indexes them per job (`RM[M1][j]`). We follow
//! the pseudo-code and store them as `n × m` head/tail matrices — the
//! qualitative conclusion of the placement analysis (they are small and
//! rarely accessed compared to `PTM`/`JM`/`LM`) is unchanged; see
//! [`super::counts`].
//!
//! Everything is stored flat in `Vec<u32>` so the GPU off-load engine can
//! copy the buffers to (simulated) device memory without re-marshalling.

use crate::instance::Instance;
use crate::johnson::{johnson_order_with_lags, lag};
use crate::{Job, Machine, Time};

/// Pre-computed, read-only data needed by the Johnson-based lower bound.
#[derive(Debug, Clone)]
pub struct BoundData {
    jobs: usize,
    machines: usize,
    num_pairs: usize,
    /// `n × m`, job-major: `ptm[j * m + k]`.
    ptm: Vec<Time>,
    /// `n × P`, job-major: `lm[j * P + pair]` where `P = m(m-1)/2`.
    lm: Vec<Time>,
    /// `n × P`, position-major: `jm[pos * P + pair]` is the job in position
    /// `pos` of the Johnson order of machine pair `pair`.
    jm: Vec<u32>,
    /// `n × m`, job-major: `rm[j * m + k]` = sum of `p[j][h]` for `h < k`.
    rm: Vec<Time>,
    /// `n × m`, job-major: `qm[j * m + k]` = sum of `p[j][h]` for `h > k`.
    qm: Vec<Time>,
    /// `P × 2`: `mm[pair * 2]` and `mm[pair * 2 + 1]` are the two machines of
    /// the pair, with `mm[2p] < mm[2p+1]`.
    mm: Vec<u32>,
}

impl BoundData {
    /// Pre-computes all six matrices for `inst`.
    pub fn new(inst: &Instance) -> Self {
        let n = inst.jobs();
        let m = inst.machines();
        let num_pairs = m * (m - 1) / 2;

        let ptm = inst.raw().to_vec();

        // Machine pairs in the canonical order used everywhere: (0,1), (0,2),
        // …, (0,m-1), (1,2), …, (m-2,m-1).
        let mut mm = Vec::with_capacity(num_pairs * 2);
        for k in 0..m {
            for l in (k + 1)..m {
                mm.push(k as u32);
                mm.push(l as u32);
            }
        }

        // Lags.
        let mut lm = vec![0 as Time; n * num_pairs];
        for j in 0..n {
            for (pair, chunk) in mm.chunks_exact(2).enumerate() {
                let (k, l) = (chunk[0] as usize, chunk[1] as usize);
                lm[j * num_pairs + pair] = lag(inst, j, k, l);
            }
        }

        // Johnson orders per pair.
        let mut jm = vec![0u32; n * num_pairs];
        for (pair, chunk) in mm.chunks_exact(2).enumerate() {
            let (k, l) = (chunk[0] as usize, chunk[1] as usize);
            let order = johnson_order_with_lags(inst, k, l);
            for (pos, &job) in order.iter().enumerate() {
                jm[pos * num_pairs + pair] = job as u32;
            }
        }

        // Heads and tails.
        let mut rm = vec![0 as Time; n * m];
        let mut qm = vec![0 as Time; n * m];
        for j in 0..n {
            let mut head = 0;
            for k in 0..m {
                rm[j * m + k] = head;
                head += inst.pt(j, k);
            }
            let mut tail = 0;
            for k in (0..m).rev() {
                qm[j * m + k] = tail;
                tail += inst.pt(j, k);
            }
        }

        Self {
            jobs: n,
            machines: m,
            num_pairs,
            ptm,
            lm,
            jm,
            rm,
            qm,
            mm,
        }
    }

    /// Number of jobs `n`.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Number of machines `m`.
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// Number of machine pairs `m(m−1)/2`.
    pub fn num_pairs(&self) -> usize {
        self.num_pairs
    }

    /// Processing time of `job` on `machine` (a `PTM` read).
    #[inline]
    pub fn ptm(&self, job: Job, machine: Machine) -> Time {
        self.ptm[job * self.machines + machine]
    }

    /// Processing times of `job` on every machine, in machine order.
    #[inline]
    pub fn ptm_row(&self, job: Job) -> &[Time] {
        &self.ptm[job * self.machines..(job + 1) * self.machines]
    }

    /// Lag of `job` for machine pair `pair` (an `LM` read).
    #[inline]
    pub fn lm(&self, job: Job, pair: usize) -> Time {
        self.lm[job * self.num_pairs + pair]
    }

    /// Job at position `pos` of the Johnson order of `pair` (a `JM` read).
    #[inline]
    pub fn jm(&self, pos: usize, pair: usize) -> Job {
        self.jm[pos * self.num_pairs + pair] as Job
    }

    /// Head (earliest start) of `job` before `machine` (an `RM` read).
    #[inline]
    pub fn rm(&self, job: Job, machine: Machine) -> Time {
        self.rm[job * self.machines + machine]
    }

    /// Tail of `job` after `machine` (a `QM` read).
    #[inline]
    pub fn qm(&self, job: Job, machine: Machine) -> Time {
        self.qm[job * self.machines + machine]
    }

    /// The two machines of `pair` (an `MM` read).
    #[inline]
    pub fn pair(&self, pair: usize) -> (Machine, Machine) {
        (
            self.mm[pair * 2] as Machine,
            self.mm[pair * 2 + 1] as Machine,
        )
    }

    /// Raw flat `PTM` buffer (`n × m` `u32`s) — for device upload.
    pub fn ptm_raw(&self) -> &[Time] {
        &self.ptm
    }

    /// Raw flat `LM` buffer (`n × m(m−1)/2` `u32`s) — for device upload.
    pub fn lm_raw(&self) -> &[Time] {
        &self.lm
    }

    /// Raw flat `JM` buffer (`n × m(m−1)/2` `u32`s) — for device upload.
    pub fn jm_raw(&self) -> &[u32] {
        &self.jm
    }

    /// Raw flat `RM` buffer (`n × m` `u32`s) — for device upload.
    pub fn rm_raw(&self) -> &[Time] {
        &self.rm
    }

    /// Raw flat `QM` buffer (`n × m` `u32`s) — for device upload.
    pub fn qm_raw(&self) -> &[Time] {
        &self.qm
    }

    /// Raw flat `MM` buffer (`m(m−1)/2 × 2` `u32`s) — for device upload.
    pub fn mm_raw(&self) -> &[u32] {
        &self.mm
    }

    /// Size in bytes of each matrix, in the order
    /// `(PTM, LM, JM, RM, QM, MM)` — the inputs of the placement analysis.
    pub fn sizes_bytes(&self) -> [usize; 6] {
        [
            self.ptm.len() * 4,
            self.lm.len() * 4,
            self.jm.len() * 4,
            self.rm.len() * 4,
            self.qm.len() * 4,
            self.mm.len() * 4,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taillard::generate;

    #[test]
    fn shapes_match_table_one() {
        let inst = generate("t", 20, 20, 77);
        let data = BoundData::new(&inst);
        assert_eq!(data.jobs(), 20);
        assert_eq!(data.machines(), 20);
        assert_eq!(data.num_pairs(), 190);
        assert_eq!(data.ptm_raw().len(), 20 * 20);
        assert_eq!(data.lm_raw().len(), 20 * 190);
        assert_eq!(data.jm_raw().len(), 20 * 190);
        assert_eq!(data.rm_raw().len(), 20 * 20);
        assert_eq!(data.qm_raw().len(), 20 * 20);
        assert_eq!(data.mm_raw().len(), 190 * 2);
    }

    #[test]
    fn paper_sizes_for_200x20() {
        // Section IV-B: for n = 200, JM and LM are 38 KB each and PTM 4 KB
        // (with 1-byte processing times in the paper; we store u32 so the
        // element counts are what must match: 200*190 = 38_000 and 200*20 =
        // 4_000).
        let inst = generate("t", 200, 20, 1);
        let data = BoundData::new(&inst);
        assert_eq!(data.jm_raw().len(), 38_000);
        assert_eq!(data.lm_raw().len(), 38_000);
        assert_eq!(data.ptm_raw().len(), 4_000);
    }

    #[test]
    fn pairs_are_canonical_and_complete() {
        let inst = generate("t", 5, 6, 3);
        let data = BoundData::new(&inst);
        assert_eq!(data.num_pairs(), 15);
        let mut seen = std::collections::HashSet::new();
        for p in 0..data.num_pairs() {
            let (k, l) = data.pair(p);
            assert!(k < l && l < 6);
            assert!(seen.insert((k, l)));
        }
        assert_eq!(data.pair(0), (0, 1));
        assert_eq!(data.pair(data.num_pairs() - 1), (4, 5));
    }

    #[test]
    fn ptm_matches_instance() {
        let inst = generate("t", 10, 5, 9);
        let data = BoundData::new(&inst);
        for j in 0..10 {
            for k in 0..5 {
                assert_eq!(data.ptm(j, k), inst.pt(j, k));
            }
        }
    }

    #[test]
    fn lags_heads_tails_are_consistent() {
        let inst = generate("t", 8, 4, 21);
        let data = BoundData::new(&inst);
        for j in 0..8 {
            // head + p + tail == total over machines
            for k in 0..4 {
                assert_eq!(
                    data.rm(j, k) + inst.pt(j, k) + data.qm(j, k),
                    inst.job_total(j)
                );
            }
            // lag(k,l) = head(l) - head(k) - p(k)
            for p in 0..data.num_pairs() {
                let (k, l) = data.pair(p);
                assert_eq!(data.lm(j, p), data.rm(j, l) - data.rm(j, k) - inst.pt(j, k));
            }
        }
    }

    #[test]
    fn johnson_orders_are_permutations() {
        let inst = generate("t", 12, 6, 5);
        let data = BoundData::new(&inst);
        for p in 0..data.num_pairs() {
            let order: Vec<usize> = (0..12).map(|pos| data.jm(pos, p)).collect();
            assert!(crate::schedule::is_permutation(&order, 12));
        }
    }

    #[test]
    fn sizes_bytes_reports_all_six() {
        let inst = generate("t", 20, 20, 4);
        let data = BoundData::new(&inst);
        let sizes = data.sizes_bytes();
        assert_eq!(sizes[0], 20 * 20 * 4);
        assert_eq!(sizes[1], 20 * 190 * 4);
        assert_eq!(sizes[2], 20 * 190 * 4);
        assert_eq!(sizes[5], 190 * 2 * 4);
    }
}
