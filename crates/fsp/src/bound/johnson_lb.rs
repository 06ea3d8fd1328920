//! The Johnson-based two-machine-relaxation lower bound (Figure 2 of the
//! paper; Lageweg–Lenstra–Rinnooy Kan, 1978).
//!
//! For every machine pair `(k, l)` with `k < l` the remaining jobs are relaxed
//! to a two-machine problem with time lags; Johnson's rule with lags (the
//! pre-computed `JM` order) solves that relaxation exactly, and the largest
//! value over all pairs — augmented with machine-availability heads and
//! job tails — is a valid lower bound on the makespan of every completion of
//! the partial schedule.
//!
//! The structure of [`JohnsonLowerBound::bound_prefix`] mirrors the paper's
//! `computeLB` pseudo-code line by line so that the GPU kernel
//! (`gpu-bnb::kernel_lb`) and this reference implementation stay in lockstep;
//! an instrumented variant reports per-matrix access counts used to validate
//! the Table I complexity analysis.

use super::counts::AccessCounts;
use super::data::BoundData;
use super::{with_thread_scratch, BoundScratch, LowerBound};
use crate::schedule::PartialSchedule;
use crate::{Job, Time};
use std::sync::atomic::{AtomicU64, Ordering};

/// The next identity [`JohnsonLowerBound::from_data`] hands out.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// The full Johnson-based lower bound of the paper.
#[derive(Debug, Clone)]
pub struct JohnsonLowerBound {
    data: BoundData,
    /// Taken once per construction and never reused; clones share it,
    /// because they share the (immutable) matrices.
    id: u64,
}

impl JohnsonLowerBound {
    /// Pre-computes the six bound matrices for `inst`.
    pub fn new(inst: &crate::instance::Instance) -> Self {
        Self::from_data(BoundData::new(inst))
    }

    /// Builds the bound from already-computed matrices.
    pub fn from_data(data: BoundData) -> Self {
        // `fetch_add` alone makes every identity unique; the count
        // publishes no other data, so it needs no ordering.
        Self {
            data,
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The pre-computed matrices (shared with the GPU off-load engine).
    pub fn data(&self) -> &BoundData {
        &self.data
    }

    /// This bound's identity: two bounds share it exactly when they are
    /// clones of one construction, so equal identities mean equal
    /// matrices. A [`BoundScratch`] keys the Johnson rows it caches by it.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Computes the lower bound for a sub-problem described by its scheduled
    /// prefix `front` (per-machine completion times) and the `scheduled`
    /// membership array.
    ///
    /// This is the host-side reference of the GPU kernel: same algorithm,
    /// same data structures. Uses the thread-local [`BoundScratch`]; batch
    /// callers use [`Self::bound_children`] and [`Self::bound_many`], which
    /// are tested against this one.
    pub fn bound_prefix(&self, front: &[Time], scheduled: &[bool]) -> Time {
        with_thread_scratch(|s| self.bound_prefix_impl(front, |j| scheduled[j], None, s))
    }

    /// Like [`Self::bound_prefix`] but with scheduled-set membership supplied
    /// as a predicate (avoids materialising a `Vec<bool>` for callers that
    /// keep the set as a bitset, such as the B&B node type).
    pub fn bound_prefix_fn(&self, front: &[Time], is_scheduled: impl Fn(Job) -> bool) -> Time {
        with_thread_scratch(|s| self.bound_prefix_impl(front, is_scheduled, None, s))
    }

    /// Same as [`Self::bound_prefix`] but records how many times each of the
    /// six matrices is read (used to validate Table I).
    pub fn bound_prefix_counted(&self, front: &[Time], scheduled: &[bool]) -> (Time, AccessCounts) {
        let mut counts = AccessCounts::default();
        let lb = with_thread_scratch(|s| {
            self.bound_prefix_impl(front, |j| scheduled[j], Some(&mut counts), s)
        });
        (lb, counts)
    }

    fn bound_prefix_impl(
        &self,
        front: &[Time],
        scheduled: impl Fn(Job) -> bool,
        mut counts: Option<&mut AccessCounts>,
        scratch: &mut BoundScratch,
    ) -> Time {
        let data = &self.data;
        let n = data.jobs();
        let m = data.machines();
        debug_assert_eq!(front.len(), m);

        macro_rules! tally {
            ($field:ident, $amount:expr) => {
                if let Some(c) = counts.as_deref_mut() {
                    c.$field += $amount;
                }
            };
        }

        // Per-machine earliest start (head) and smallest tail over the
        // remaining jobs. Computed once per sub-problem; reads RM and QM
        // n' × m times in total.
        let (min_head, min_tail) = scratch.heads_tails(m);
        let mut remaining = 0usize;
        for job in 0..n {
            if scheduled(job) {
                continue;
            }
            remaining += 1;
            for k in 0..m {
                let h = data.rm(job, k);
                tally!(rm, 1);
                if h < min_head[k] {
                    min_head[k] = h;
                }
                let t = data.qm(job, k);
                tally!(qm, 1);
                if t < min_tail[k] {
                    min_tail[k] = t;
                }
            }
        }

        // A completed schedule: the bound is exactly the prefix makespan.
        if remaining == 0 {
            return front[m - 1];
        }

        let mut lb: Time = 0;
        for pair in 0..data.num_pairs() {
            let (m1, m2) = data.pair(pair);
            tally!(mm, 2);

            // Machine availability: the prefix keeps machine k busy until
            // front[k]; independently no remaining job can reach machine k
            // before its smallest head.
            let mut time_on_m1 = front[m1].max(min_head[m1]);
            let mut time_on_m2 = front[m2].max(min_head[m2]);

            // Johnson order with lags over the remaining jobs (lines 8-17 of
            // the paper's Figure 2).
            for pos in 0..n {
                let job = data.jm(pos, pair);
                tally!(jm, 1);
                if scheduled(job) {
                    continue;
                }
                time_on_m1 += data.ptm(job, m1);
                tally!(ptm, 1);
                let lag = data.lm(job, pair);
                tally!(lm, 1);
                let ready_on_m2 = time_on_m1 + lag;
                let p2 = data.ptm(job, m2);
                tally!(ptm, 1);
                if time_on_m2 > ready_on_m2 {
                    time_on_m2 += p2;
                } else {
                    time_on_m2 = ready_on_m2 + p2;
                }
            }

            // Line 18: add the smallest remaining tail after machine m2.
            let bound_for_pair = time_on_m2 + min_tail[m2];
            if bound_for_pair > lb {
                lb = bound_for_pair;
            }
        }
        lb
    }

    /// Convenience: bound of a sub-problem given as a prefix of jobs.
    pub fn bound_of_prefix_jobs(&self, inst: &crate::Instance, prefix: &[Job]) -> Time {
        let sched = PartialSchedule::from_prefix(inst, prefix);
        self.bound(&sched)
    }
}

impl LowerBound for JohnsonLowerBound {
    fn bound(&self, schedule: &PartialSchedule<'_>) -> Time {
        let n = self.data.jobs();
        let mut scheduled = vec![false; n];
        for &j in schedule.prefix() {
            scheduled[j] = true;
        }
        self.bound_prefix(schedule.front(), &scheduled)
    }

    fn name(&self) -> &'static str {
        "johnson-lb"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_optimal;
    use crate::schedule::{makespan, PartialSchedule};
    use crate::taillard::generate;

    fn bound_of(inst: &crate::Instance, prefix: &[usize]) -> Time {
        let lb = JohnsonLowerBound::new(inst);
        let sched = PartialSchedule::from_prefix(inst, prefix);
        lb.bound(&sched)
    }

    #[test]
    fn root_bound_never_exceeds_optimum() {
        for seed in 1..=12 {
            let inst = generate(format!("t{seed}"), 7, 4, seed * 13);
            let (_, opt) = brute_force_optimal(&inst);
            let root = bound_of(&inst, &[]);
            assert!(
                root <= opt,
                "root LB {root} exceeds optimum {opt} (seed {seed})"
            );
        }
    }

    #[test]
    fn bound_of_any_prefix_never_exceeds_best_completion() {
        // For every 1-job and 2-job prefix of a tiny instance, the bound must
        // not exceed the best completion reachable from that prefix.
        let inst = generate("t", 6, 3, 991);
        let lb = JohnsonLowerBound::new(&inst);
        let n = inst.jobs();
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let prefix = vec![a, b];
                let sched = PartialSchedule::from_prefix(&inst, &prefix);
                let bound = lb.bound(&sched);
                // best completion by brute force over remaining jobs
                let mut best = Time::MAX;
                let remaining: Vec<usize> = (0..n).filter(|j| !prefix.contains(j)).collect();
                permute(&remaining, &mut |rest| {
                    let mut full = prefix.clone();
                    full.extend_from_slice(rest);
                    best = best.min(makespan(&inst, &full));
                });
                assert!(
                    bound <= best,
                    "LB {bound} exceeds best completion {best} for prefix {prefix:?}"
                );
            }
        }
    }

    #[test]
    fn bound_of_complete_schedule_equals_makespan() {
        let inst = generate("t", 9, 5, 17);
        let lb = JohnsonLowerBound::new(&inst);
        let perm: Vec<usize> = (0..9).collect();
        let sched = PartialSchedule::from_prefix(&inst, &perm);
        assert_eq!(lb.bound(&sched), makespan(&inst, &perm));
    }

    #[test]
    fn bound_is_monotone_along_a_branch() {
        let inst = generate("t", 10, 6, 303);
        let lb = JohnsonLowerBound::new(&inst);
        let mut sched = PartialSchedule::new(&inst);
        let mut prev = lb.bound(&sched);
        for job in [3, 7, 1, 9, 0, 5] {
            sched.push(job);
            let cur = lb.bound(&sched);
            assert!(
                cur >= prev,
                "bound decreased from {prev} to {cur} after scheduling {job}"
            );
            prev = cur;
        }
    }

    #[test]
    fn bound_dominates_machine_load_bound_at_root() {
        // The two-machine relaxation is at least as strong as the trivial
        // single-machine load bound on most instances; we only require it to
        // be a valid bound here, and at least as large as the largest job.
        let inst = generate("t", 20, 10, 88);
        let root = bound_of(&inst, &[]);
        let longest_job = (0..20).map(|j| inst.job_total(j)).max().unwrap();
        assert!(root >= longest_job);
    }

    #[test]
    fn two_machine_root_bound_is_exact() {
        // With m = 2 there is a single machine pair and no lags: the root
        // bound equals Johnson's optimal makespan.
        for seed in 1..=6 {
            let inst = generate(format!("t{seed}"), 8, 2, seed * 7 + 1);
            let (_, opt) = crate::johnson::solve_two_machine(&inst);
            assert_eq!(bound_of(&inst, &[]), opt);
        }
    }

    #[test]
    fn counted_variant_matches_uncounted() {
        let inst = generate("t", 12, 5, 5);
        let lb = JohnsonLowerBound::new(&inst);
        let sched = PartialSchedule::from_prefix(&inst, &[2, 5]);
        let mut scheduled = vec![false; 12];
        scheduled[2] = true;
        scheduled[5] = true;
        let plain = lb.bound_prefix(sched.front(), &scheduled);
        let (counted, counts) = lb.bound_prefix_counted(sched.front(), &scheduled);
        assert_eq!(plain, counted);
        assert!(counts.ptm > 0 && counts.jm > 0 && counts.lm > 0);
    }

    #[test]
    fn name_is_stable() {
        let inst = generate("t", 4, 3, 2);
        assert_eq!(JohnsonLowerBound::new(&inst).name(), "johnson-lb");
    }

    /// Tiny permutation helper for the completion check above.
    fn permute(items: &[usize], f: &mut impl FnMut(&[usize])) {
        let mut v = items.to_vec();
        let n = v.len();
        let mut c = vec![0usize; n];
        f(&v);
        let mut i = 0;
        while i < n {
            if c[i] < i {
                if i % 2 == 0 {
                    v.swap(0, i);
                } else {
                    v.swap(c[i], i);
                }
                f(&v);
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
    }
}
