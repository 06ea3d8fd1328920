//! The sequential Branch-and-Bound solver (the paper's single-CPU-core
//! baseline).
//!
//! One iteration performs the four operators of Section II-A: **selection**
//! (pop from the pool), **elimination** (discard if the bound reached the
//! incumbent), **branching** (one child per unscheduled job) and **bounding**
//! (evaluate every child's lower bound). Each operator is timed separately so
//! the "bounding dominates the wall time" preliminary experiment of the paper
//! can be reproduced.

use crate::node::FspNode;
use crate::pool::PoolStrategy;
use crate::problem::{FspProblem, NodeBound};
use crate::stats::{OperatorTimes, SolveStats};
use crate::upper_bound::SharedUpperBound;
use fsp::{Job, Time};
use std::time::{Duration, Instant};

/// Why a solve terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The pool emptied: the returned incumbent is optimal.
    Exhausted,
    /// The configured node budget was spent.
    NodeLimit,
    /// The configured wall-clock budget was spent.
    TimeLimit,
    /// The solve paused at a batch boundary to emit a resumable checkpoint
    /// (GPU solver only — see the core crate's `checkpoint_after`).
    Checkpoint,
}

/// Configuration of a sequential solve.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Selection strategy (the paper uses best-first).
    pub strategy: PoolStrategy,
    /// Stop after this many lower-bound evaluations.
    pub node_limit: Option<u64>,
    /// Stop after this much wall-clock time.
    pub time_limit: Option<Duration>,
    /// Seed the incumbent with the NEH heuristic before exploring.
    pub use_initial_ub: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            strategy: PoolStrategy::BestFirst,
            node_limit: None,
            time_limit: None,
            use_initial_ub: true,
        }
    }
}

/// Result of a sequential solve.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// Best makespan found (the optimum when `stop == Exhausted` and the
    /// search started from the root).
    pub best_makespan: Time,
    /// Schedule achieving `best_makespan`, if any complete schedule was
    /// reached or supplied as the initial incumbent.
    pub best_schedule: Option<Vec<Job>>,
    /// Node counters.
    pub stats: SolveStats,
    /// Per-operator wall-clock breakdown.
    pub times: OperatorTimes,
    /// Why the solve stopped.
    pub stop: StopReason,
    /// Total wall-clock time.
    pub elapsed: Duration,
}

impl SolveOutcome {
    /// `true` when the search proved optimality: it explored or pruned the
    /// whole tree and holds a schedule of [`Self::best_makespan`]. An
    /// incumbent seeded without a schedule (`solve_from`'s bare
    /// `initial_ub`) that nothing beat proves only that no schedule is
    /// shorter.
    pub fn is_optimal(&self) -> bool {
        self.stop == StopReason::Exhausted && self.best_schedule.is_some()
    }
}

/// The sequential B&B solver.
pub struct SerialSolver<B = fsp::JohnsonLowerBound> {
    problem: FspProblem<B>,
    config: SolverConfig,
}

impl<B: NodeBound> SerialSolver<B> {
    /// Creates a solver for `problem` with the given configuration.
    pub fn new(problem: FspProblem<B>, config: SolverConfig) -> Self {
        Self { problem, config }
    }

    /// Creates a solver with the default (best-first, NEH-seeded)
    /// configuration.
    pub fn with_defaults(problem: FspProblem<B>) -> Self {
        Self::new(problem, SolverConfig::default())
    }

    /// The underlying problem.
    pub fn problem(&self) -> &FspProblem<B> {
        &self.problem
    }

    /// Solves from the root of the tree.
    pub fn solve(&self) -> SolveOutcome {
        let mut root = self.problem.root();
        self.problem.bound(&mut root);
        self.solve_from(vec![root], None, None)
    }

    /// Continues a solve from an explicit list of pending sub-problems — the
    /// frozen-pool protocol used throughout the paper's evaluation so that
    /// the serial baseline and the accelerated solvers examine exactly the
    /// same nodes.
    ///
    /// `initial_ub` (and optionally the schedule achieving it) seeds the
    /// incumbent; when `None`, NEH is used if the configuration asks for it.
    pub fn solve_from(
        &self,
        initial_nodes: Vec<FspNode>,
        initial_ub: Option<Time>,
        initial_schedule: Option<Vec<Job>>,
    ) -> SolveOutcome {
        let start = Instant::now();
        let mut stats = SolveStats::default();
        let mut times = OperatorTimes::default();

        // Incumbent.
        let mut best_schedule = initial_schedule;
        let ub = match initial_ub {
            Some(v) => SharedUpperBound::new(v),
            None if self.config.use_initial_ub => {
                let (perm, value) = self.problem.initial_upper_bound();
                best_schedule = Some(perm);
                SharedUpperBound::new(value)
            }
            None => SharedUpperBound::unbounded(),
        };

        let mut pool = self.config.strategy.build();
        for node in initial_nodes {
            pool.push(node);
        }
        stats.max_pool = pool.len();

        let mut stop = StopReason::Exhausted;
        let mut children: Vec<FspNode> = Vec::new();
        loop {
            if let Some(limit) = self.config.node_limit {
                if stats.bounded >= limit {
                    stop = StopReason::NodeLimit;
                    break;
                }
            }
            if let Some(limit) = self.config.time_limit {
                if start.elapsed() >= limit {
                    stop = StopReason::TimeLimit;
                    break;
                }
            }

            // Selection.
            let t0 = Instant::now();
            let node = pool.pop();
            times.selection += t0.elapsed();
            let Some(node) = node else {
                break;
            };
            stats.selected += 1;

            // Elimination of the selected node (its bound may have been
            // computed before the incumbent improved).
            let t0 = Instant::now();
            let prune = ub.prunes(node.bound());
            times.elimination += t0.elapsed();
            if prune {
                stats.pruned += 1;
                continue;
            }

            // Branching (into the reused buffer).
            let t0 = Instant::now();
            children.clear();
            self.problem.branch_into(&node, &mut children);
            times.branching += t0.elapsed();
            stats.decomposed += 1;

            // Bounding + elimination of the children.
            for mut child in children.drain(..) {
                let t0 = Instant::now();
                self.problem.bound(&mut child);
                times.bounding += t0.elapsed();
                stats.bounded += 1;

                let t0 = Instant::now();
                if self.problem.is_leaf(&child) {
                    stats.leaves += 1;
                    let cost = self.problem.leaf_cost(&child);
                    if ub.try_improve(cost) {
                        stats.improvements += 1;
                        best_schedule = Some(child.prefix_vec());
                    }
                } else if ub.prunes(child.bound()) {
                    stats.pruned += 1;
                } else {
                    pool.push(child);
                }
                times.elimination += t0.elapsed();
            }
            stats.max_pool = stats.max_pool.max(pool.len());
        }

        SolveOutcome {
            best_makespan: ub.get(),
            best_schedule,
            stats,
            times,
            stop,
            elapsed: start.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsp::brute::brute_force_optimal;
    use fsp::taillard::generate;
    use fsp::OneMachineBound;

    fn solve_default(inst: fsp::Instance) -> SolveOutcome {
        SerialSolver::with_defaults(FspProblem::new(inst)).solve()
    }

    #[test]
    fn finds_the_optimum_of_tiny_instances() {
        for seed in 1..=8 {
            let inst = generate(format!("t{seed}"), 7, 4, seed * 37);
            let (_, expected) = brute_force_optimal(&inst);
            let outcome = solve_default(inst.clone());
            assert!(outcome.is_optimal());
            assert_eq!(
                outcome.best_makespan, expected,
                "wrong optimum for seed {seed}"
            );
            let sched = outcome.best_schedule.expect("schedule");
            assert_eq!(fsp::makespan(&inst, &sched), expected);
        }
    }

    #[test]
    fn optimum_is_independent_of_the_selection_strategy() {
        let inst = generate("t", 8, 5, 4242);
        let (_, expected) = brute_force_optimal(&inst);
        for strategy in [
            PoolStrategy::BestFirst,
            PoolStrategy::DepthFirst,
            PoolStrategy::Fifo,
        ] {
            let config = SolverConfig {
                strategy,
                ..Default::default()
            };
            let outcome = SerialSolver::new(FspProblem::new(inst.clone()), config).solve();
            assert_eq!(outcome.best_makespan, expected, "strategy {strategy:?}");
        }
    }

    #[test]
    fn weaker_bound_explores_at_least_as_many_nodes() {
        let inst = generate("t", 8, 4, 99);
        let strong = solve_default(inst.clone());
        let weak = SerialSolver::with_defaults(FspProblem::with_bound(
            inst.clone(),
            OneMachineBound::new(&inst),
        ))
        .solve();
        assert_eq!(strong.best_makespan, weak.best_makespan);
        assert!(weak.stats.bounded >= strong.stats.bounded);
    }

    #[test]
    fn node_limit_stops_the_search() {
        let inst = generate("t", 12, 10, 5);
        let config = SolverConfig {
            node_limit: Some(500),
            ..Default::default()
        };
        let outcome = SerialSolver::new(FspProblem::new(inst), config).solve();
        assert_eq!(outcome.stop, StopReason::NodeLimit);
        assert!(outcome.stats.bounded >= 500);
        // A NEH incumbent exists even when the search is truncated.
        assert!(outcome.best_schedule.is_some());
    }

    #[test]
    fn time_limit_stops_the_search() {
        let inst = generate("t", 14, 15, 6);
        let config = SolverConfig {
            time_limit: Some(Duration::from_millis(50)),
            ..Default::default()
        };
        let outcome = SerialSolver::new(FspProblem::new(inst), config).solve();
        assert_eq!(outcome.stop, StopReason::TimeLimit);
        assert!(outcome.elapsed >= Duration::from_millis(50));
    }

    #[test]
    fn without_initial_ub_the_first_leaves_set_the_incumbent() {
        let inst = generate("t", 6, 3, 8);
        let (_, expected) = brute_force_optimal(&inst);
        let config = SolverConfig {
            use_initial_ub: false,
            ..Default::default()
        };
        let outcome = SerialSolver::new(FspProblem::new(inst), config).solve();
        assert_eq!(outcome.best_makespan, expected);
        assert!(outcome.stats.improvements >= 1);
    }

    #[test]
    fn bounding_dominates_operator_times_on_wide_instances() {
        // The paper's preliminary observation: with m = 20 machines the
        // bounding operator takes the overwhelming share of the time.
        let inst = generate("t", 14, 20, 11);
        let config = SolverConfig {
            node_limit: Some(3_000),
            ..Default::default()
        };
        let outcome = SerialSolver::new(FspProblem::new(inst), config).solve();
        assert!(
            outcome.times.bounding_share() > 0.8,
            "bounding share unexpectedly low: {}",
            outcome.times.bounding_share()
        );
    }

    #[test]
    fn solve_from_a_frozen_list_reaches_the_same_optimum() {
        let inst = generate("t", 8, 4, 21);
        let (_, expected) = brute_force_optimal(&inst);
        let problem = FspProblem::new(inst.clone());
        // Manually freeze the pool after expanding the root.
        let mut root = problem.root();
        problem.bound(&mut root);
        let mut frozen = Vec::new();
        for mut child in problem.branch(&root) {
            problem.bound(&mut child);
            frozen.push(child);
        }
        let solver = SerialSolver::with_defaults(problem);
        let outcome = solver.solve_from(frozen, None, None);
        assert_eq!(outcome.best_makespan, expected);
    }

    #[test]
    fn an_incumbent_without_a_schedule_certifies_no_optimum() {
        // Seeded at or below the optimum (666), the search prunes every
        // node and ends exhausted holding no schedule: the seed is then a
        // proven bound, not an optimum. Seeded above it, the search finds
        // an optimal schedule.
        let inst = generate("t", 8, 4, 7);
        let (_, optimum) = brute_force_optimal(&inst);
        let problem = FspProblem::new(inst);
        let mut root = problem.root();
        problem.bound(&mut root);
        let solver = SerialSolver::with_defaults(problem);
        for (seed, optimal) in [(optimum - 66, false), (optimum, false), (optimum + 1, true)] {
            let outcome = solver.solve_from(vec![root.clone()], Some(seed), None);
            assert_eq!(outcome.stop, StopReason::Exhausted, "seeded {seed}");
            assert_eq!(outcome.is_optimal(), optimal, "seeded {seed}");
            assert_eq!(outcome.best_schedule.is_some(), optimal, "seeded {seed}");
            assert_eq!(outcome.best_makespan, seed.min(optimum), "seeded {seed}");
        }
    }

    #[test]
    fn stats_are_internally_consistent() {
        let inst = generate("t", 7, 5, 3);
        let outcome = solve_default(inst);
        assert!(outcome.stats.selected >= outcome.stats.decomposed);
        assert!(outcome.stats.bounded >= outcome.stats.leaves);
        assert!(outcome.stats.max_pool > 0);
    }
}
