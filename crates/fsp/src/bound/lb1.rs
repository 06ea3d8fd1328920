//! A cheap single-machine lower bound, used as the ablation baseline for
//! "bound quality vs bound cost" experiments.
//!
//! For every machine `k` the remaining work on `k` plus the earliest time any
//! remaining job can reach `k` plus the smallest tail after `k` is a lower
//! bound on the makespan. It costs `O(n·m)` per node (versus
//! `O(m²·n)` for the Johnson bound) but prunes far less.

use super::data::BoundData;
use super::{with_thread_scratch, BoundScratch, LowerBound};
use crate::schedule::PartialSchedule;
use crate::{Job, Time};

/// The single-machine (machine-load) lower bound.
#[derive(Debug, Clone)]
pub struct OneMachineBound {
    data: BoundData,
}

impl OneMachineBound {
    /// Pre-computes the head/tail matrices for `inst`.
    pub fn new(inst: &crate::instance::Instance) -> Self {
        Self {
            data: BoundData::new(inst),
        }
    }

    /// Builds the bound from already-computed matrices.
    pub fn from_data(data: BoundData) -> Self {
        Self { data }
    }

    /// Bound of a sub-problem given its per-machine front and scheduled set.
    /// Uses the thread-local [`BoundScratch`].
    pub fn bound_prefix(&self, front: &[Time], scheduled: &[bool]) -> Time {
        with_thread_scratch(|s| self.bound_prefix_impl(front, |j| scheduled[j], s))
    }

    /// Like [`Self::bound_prefix`] but with scheduled-set membership supplied
    /// as a predicate (for callers that keep the set as a bitset).
    pub fn bound_prefix_fn(&self, front: &[Time], is_scheduled: impl Fn(Job) -> bool) -> Time {
        with_thread_scratch(|s| self.bound_prefix_impl(front, is_scheduled, s))
    }

    fn bound_prefix_impl(
        &self,
        front: &[Time],
        scheduled: impl Fn(Job) -> bool,
        scratch: &mut BoundScratch,
    ) -> Time {
        let data = &self.data;
        let n = data.jobs();
        let m = data.machines();

        let mut remaining = 0usize;
        let (min_head, min_tail, load) = scratch.heads_tails_load(m);
        for job in 0..n {
            if scheduled(job) {
                continue;
            }
            remaining += 1;
            for k in 0..m {
                load[k] += data.ptm(job, k);
                min_head[k] = min_head[k].min(data.rm(job, k));
                min_tail[k] = min_tail[k].min(data.qm(job, k));
            }
        }
        if remaining == 0 {
            return front[m - 1];
        }

        (0..m)
            .map(|k| front[k].max(min_head[k]) + load[k] + min_tail[k])
            .max()
            .expect("at least one machine")
    }
}

impl LowerBound for OneMachineBound {
    fn bound(&self, schedule: &PartialSchedule<'_>) -> Time {
        let n = self.data.jobs();
        let mut scheduled = vec![false; n];
        for &j in schedule.prefix() {
            scheduled[j] = true;
        }
        self.bound_prefix(schedule.front(), &scheduled)
    }

    fn name(&self) -> &'static str {
        "one-machine-lb"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::johnson_lb::JohnsonLowerBound;
    use crate::brute::brute_force_optimal;
    use crate::schedule::{makespan, PartialSchedule};
    use crate::taillard::generate;

    #[test]
    fn never_exceeds_optimum_at_root() {
        for seed in 1..=10 {
            let inst = generate(format!("t{seed}"), 7, 4, seed * 29);
            let (_, opt) = brute_force_optimal(&inst);
            let lb = OneMachineBound::new(&inst);
            let root = lb.bound(&PartialSchedule::new(&inst));
            assert!(root <= opt, "LB1 {root} > optimum {opt} (seed {seed})");
        }
    }

    #[test]
    fn complete_schedule_is_exact() {
        let inst = generate("t", 8, 5, 41);
        let lb = OneMachineBound::new(&inst);
        let perm: Vec<usize> = (0..8).rev().collect();
        let sched = PartialSchedule::from_prefix(&inst, &perm);
        assert_eq!(lb.bound(&sched), makespan(&inst, &perm));
    }

    #[test]
    fn johnson_bound_dominates_one_machine_bound() {
        // The two-machine relaxation is provably at least as tight as the
        // one-machine relaxation at every node.
        let inst = generate("t", 12, 6, 13);
        let lb1 = OneMachineBound::new(&inst);
        let lb2 = JohnsonLowerBound::new(&inst);
        for prefix in [vec![], vec![3], vec![5, 1], vec![0, 7, 9, 2]] {
            let sched = PartialSchedule::from_prefix(&inst, &prefix);
            assert!(
                lb2.bound(&sched) >= lb1.bound(&sched),
                "Johnson LB weaker than LB1 for prefix {prefix:?}"
            );
        }
    }

    #[test]
    fn monotone_along_branch() {
        let inst = generate("t", 10, 5, 919);
        let lb = OneMachineBound::new(&inst);
        let mut sched = PartialSchedule::new(&inst);
        let mut prev = lb.bound(&sched);
        for job in [2, 8, 4, 0] {
            sched.push(job);
            let cur = lb.bound(&sched);
            assert!(cur >= prev);
            prev = cur;
        }
    }

    #[test]
    fn name_is_stable() {
        let inst = generate("t", 4, 3, 2);
        assert_eq!(OneMachineBound::new(&inst).name(), "one-machine-lb");
    }
}
