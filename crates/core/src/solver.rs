//! The GPU-accelerated Branch-and-Bound solver.
//!
//! The exploration follows Figure 3 of the paper: **selection**, **branching**
//! and **elimination** run on the CPU; freshly generated sub-problems are
//! accumulated into a pool of the configured size and off-loaded to the
//! (simulated) GPU, where one thread evaluates the lower bound of one
//! sub-problem; the bounds come back and drive pruning and the incumbent.

use crate::backend::{make_backend, BackendBatch};
use crate::config::GpuSolverConfig;
use crate::cost::{CostReport, SolveLatencies};
use crate::fault::SolveCheckpoint;
use crate::placement::MatrixId;
use crate::search::SearchState;
use crate::stats::GpuRunStats;
use bb::solver::StopReason;
use bb::stats::SolveStats;
use bb::{Batch, FspNode, FspProblem};
use fsp::{Instance, Job, JohnsonLowerBound, Time};
use gpu_sim::HostModel;
use std::time::Instant;

/// Result of a GPU-accelerated solve.
#[derive(Debug, Clone)]
pub struct GpuSolveOutcome {
    /// Best makespan found.
    pub best_makespan: Time,
    /// Schedule achieving it, when one was reached or supplied.
    pub best_schedule: Option<Vec<Job>>,
    /// Node counters (same semantics as the serial solver's).
    pub stats: SolveStats,
    /// Device-side accounting (kernel/transfer time, modelled speedup).
    pub gpu: GpuRunStats,
    /// Deterministic cost counters of the modelled work (the cost-gate
    /// figures: launches, waves, bytes, cycles, off-loading rate).
    pub cost: CostReport,
    /// Log-bucketed latency histograms of the modelled schedule (per
    /// launch, per batch, per solve).
    pub latencies: SolveLatencies,
    /// Why the solve stopped.
    pub stop: StopReason,
    /// The frozen solve state when the run paused at a batch boundary
    /// ([`GpuSolverConfig::checkpoint_after`], `stop ==
    /// StopReason::Checkpoint`); `None` for every other stop reason. Feed
    /// it to [`GpuBnbSolver::resume`] (or
    /// [`crate::service::JobSpec::resume_from`]) to continue the identical
    /// exploration.
    pub checkpoint: Option<SolveCheckpoint>,
}

impl GpuSolveOutcome {
    /// `true` when the search proved optimality: it exhausted the tree and
    /// holds a schedule of [`Self::best_makespan`]. An incumbent seeded
    /// without a schedule (a checkpoint's bare `upper_bound`) that nothing
    /// beat proves only that no schedule is shorter.
    pub fn is_optimal(&self) -> bool {
        self.stop == StopReason::Exhausted && self.best_schedule.is_some()
    }

    /// The parallel efficiency (`T_serial / T_gpu`) the paper reports, under
    /// the given host model and this instance's matrix footprint.
    pub fn speedup(&self, host: &HostModel, footprint_bytes: usize) -> f64 {
        self.gpu.speedup(host, footprint_bytes)
    }
}

/// B&B solver with GPU-offloaded bounding.
pub struct GpuBnbSolver {
    problem: FspProblem<JohnsonLowerBound>,
    config: GpuSolverConfig,
}

impl GpuBnbSolver {
    /// Creates a solver for `inst` with the paper's Johnson lower bound.
    pub fn new(inst: Instance, config: GpuSolverConfig) -> Self {
        Self {
            problem: FspProblem::new(inst),
            config,
        }
    }

    /// Creates a solver from an existing problem (sharing its bound data).
    pub fn from_problem(problem: FspProblem<JohnsonLowerBound>, config: GpuSolverConfig) -> Self {
        Self { problem, config }
    }

    /// The underlying problem.
    pub fn problem(&self) -> &FspProblem<JohnsonLowerBound> {
        &self.problem
    }

    /// The configuration.
    pub fn config(&self) -> &GpuSolverConfig {
        &self.config
    }

    /// Byte footprint of the six bound matrices (packed, as on the device) —
    /// the figure used by the host cache model when computing speedups.
    pub fn matrix_footprint_bytes(&self) -> usize {
        let inst = self.problem.instance();
        MatrixId::ALL
            .iter()
            .map(|m| m.packed_bytes(inst.jobs(), inst.machines()))
            .sum()
    }

    /// Solves from the root.
    pub fn solve(&self) -> GpuSolveOutcome {
        self.solve_inner(None, None, None, None)
    }

    /// Solves from an explicit list of pending sub-problems (the frozen-pool
    /// protocol), optionally seeded with an incumbent.
    pub fn solve_from(
        &self,
        initial_nodes: Vec<FspNode>,
        initial_ub: Option<Time>,
        initial_schedule: Option<Vec<Job>>,
    ) -> GpuSolveOutcome {
        self.solve_inner(Some(initial_nodes), initial_ub, initial_schedule, None)
    }

    /// Resumes a solve frozen by [`GpuSolverConfig::checkpoint_after`]:
    /// rebuilds the pool frontier (re-pushed in drain order, which
    /// reproduces the exact pop order), restores the incumbent and absorbs
    /// the checkpoint's cost counters — so the finished outcome's
    /// certificate (makespan, proven bound, summed [`CostReport`]) is
    /// bit-identical to an uninterrupted run's. `checkpoint_after` counts
    /// batches of *this* run, so a resumed solve under the same config
    /// checkpoints again after the same number of additional batches.
    ///
    /// # Errors
    ///
    /// Returns the reason when [`SolveCheckpoint::to_nodes`] rejects the
    /// checkpoint for this solver's problem: a certificate resumed from
    /// it could be wrong.
    pub fn resume(&self, checkpoint: &SolveCheckpoint) -> Result<GpuSolveOutcome, String> {
        let nodes = checkpoint.to_nodes(&self.problem)?;
        let initial_ub = (checkpoint.upper_bound != Time::MAX).then_some(checkpoint.upper_bound);
        Ok(self.solve_inner(
            Some(nodes),
            initial_ub,
            checkpoint.best_schedule.clone(),
            Some(checkpoint.cost),
        ))
    }

    /// The solve loop: the limits and the lookahead speculation around one
    /// [`SearchState`]. `carried` holds a resumed run's counters (see
    /// [`SearchState::new`]).
    fn solve_inner(
        &self,
        initial_nodes: Option<Vec<FspNode>>,
        initial_ub: Option<Time>,
        initial_schedule: Option<Vec<Job>>,
        carried: Option<CostReport>,
    ) -> GpuSolveOutcome {
        let start = Instant::now();
        let config = &self.config;
        let mut search = SearchState::new(
            self.problem.clone(),
            config,
            initial_nodes,
            initial_ub,
            initial_schedule,
            carried,
        );

        // Bounding backend (selected by `config.backend`) sized for one pool
        // plus the children of the last decomposed node.
        let n = self.problem.instance().jobs();
        let mut backend = make_backend(&self.problem, config, config.pool_size + n);

        // Lookahead admission guard, priced with the deterministic counters
        // the solve has already accumulated: speculation pays when the
        // overlap saving the backend has demonstrated per batch
        // (`(kernel + transfer − schedule) / batches`, zero for backends
        // that cannot overlap) exceeds a staleness penalty that scales the
        // mean batch schedule time by the pool deficit
        // (`(schedule / batches) · deficit / pool_size`). All-integer and
        // derived from modelled time only, so the decision is bit-identical
        // across machines. With no batch recorded yet there is no evidence
        // either way, and the guard speculates only when the pending pool
        // could fill a batch by itself.
        let speculation_pays = |cost: &CostReport, pool_len: usize| -> bool {
            if cost.batches == 0 {
                return pool_len >= config.pool_size;
            }
            let saving = (cost.kernel_nanos + cost.transfer_nanos)
                .saturating_sub(cost.schedule_nanos)
                / cost.batches;
            let deficit = config.pool_size.saturating_sub(pool_len) as u64;
            let penalty =
                cost.schedule_nanos / cost.batches * deficit / config.pool_size.max(1) as u64;
            saving > penalty
        };

        let mut stop = StopReason::Exhausted;
        // Lookahead queue (cross-iteration pipelining): the batch of pool
        // k+1 already bounded by the backend while pool k's elimination was
        // still pending. `None` in the strict (non-lookahead) loop. Every
        // batch the backend bounds is consumed, on the break paths too, so
        // no bounded node goes unaccounted.
        let mut in_flight: Option<(Batch, BackendBatch)> = None;
        loop {
            if config
                .checkpoint_after
                .is_some_and(|after| search.batches_run() >= after)
            {
                stop = StopReason::Checkpoint;
            } else if config
                .node_limit
                .is_some_and(|limit| search.stats.bounded >= limit)
            {
                stop = StopReason::NodeLimit;
            } else if config
                .time_limit
                .is_some_and(|limit| start.elapsed() >= limit)
            {
                stop = StopReason::TimeLimit;
            }
            if stop != StopReason::Exhausted {
                // A pending lookahead batch is already bounded: fold it in so
                // the stop sits on a true batch boundary. (A node-limit stop
                // never has one, see `budget_survives` below.)
                if let Some((batch, result)) = in_flight.take() {
                    search.consume(batch, result, |_, _| {});
                }
                break;
            }

            let (batch, result) = match in_flight.take() {
                Some(flight) => flight,
                None => {
                    let batch = search.select_batch();
                    if batch.is_empty() {
                        if search.pending() == 0 {
                            break;
                        }
                        continue;
                    }
                    let result = backend.bound_view(batch.view(), search.upper_bound());
                    (batch, result)
                }
            };

            // Lookahead: select and submit pool k+1 *before* eliminating
            // pool k, so the backend bounds it while the host below runs
            // elimination. The selection sees the incumbent as of pool k-1's
            // elimination (bounds are node-local, so results stay exact;
            // pruning is re-checked per child at elimination time).
            // Speculate only when (a) the admission guard above judges the
            // overlap saving worth the staleness of a thin pool and (b) the
            // node budget survives the batch in hand, so no speculative work
            // is orphaned by the node-limit break.
            let budget_survives = config
                .node_limit
                .is_none_or(|limit| search.stats.bounded + (batch.len() as u64) < limit);
            if config.lookahead
                && budget_survives
                && speculation_pays(&search.cost, search.pending())
            {
                let next = search.select_batch();
                if !next.is_empty() {
                    let result = backend.bound_view(next.view(), search.upper_bound());
                    in_flight = Some((next, result));
                }
            }

            search.consume(batch, result, |_, _| {});
        }

        let checkpoint = (stop == StopReason::Checkpoint).then(|| search.freeze());
        let gpu = search.finish(start.elapsed());
        GpuSolveOutcome {
            best_makespan: search.upper_bound(),
            best_schedule: search.best_schedule,
            stats: search.stats,
            gpu,
            cost: search.cost,
            latencies: search.latencies,
            stop,
            checkpoint,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BackendKind;
    use crate::placement::DataPlacement;
    use bb::{SerialSolver, SolverConfig};
    use fsp::brute::brute_force_optimal;
    use fsp::taillard::generate;

    fn config(pool: usize, placement: DataPlacement, fast: bool) -> GpuSolverConfig {
        GpuSolverConfig {
            pool_size: pool,
            placement,
            fast_forward: fast,
            ..Default::default()
        }
    }

    #[test]
    fn finds_the_optimum_of_tiny_instances() {
        for seed in 1..=5 {
            let inst = generate(format!("t{seed}"), 7, 4, seed * 37);
            let (_, expected) = brute_force_optimal(&inst);
            let solver =
                GpuBnbSolver::new(inst.clone(), config(64, DataPlacement::SharedJmPtm, false));
            let outcome = solver.solve();
            assert!(outcome.is_optimal());
            assert_eq!(outcome.best_makespan, expected, "seed {seed}");
            let sched = outcome.best_schedule.expect("schedule");
            assert_eq!(fsp::makespan(&inst, &sched), expected);
        }
    }

    #[test]
    fn a_zero_pool_size_still_reaches_the_optimum() {
        // Only the builder rejects a zero pool size; a struct literal must
        // still branch one parent per batch rather than spin on an empty one.
        let inst = generate("t", 7, 4, 37);
        let (_, expected) = brute_force_optimal(&inst);
        let outcome = GpuBnbSolver::new(inst, config(0, DataPlacement::SharedJmPtm, true)).solve();
        assert!(outcome.is_optimal());
        assert_eq!(outcome.best_makespan, expected);
    }

    #[test]
    fn gpu_and_serial_solvers_agree() {
        let inst = generate("t", 8, 5, 4242);
        let serial = SerialSolver::with_defaults(FspProblem::new(inst.clone())).solve();
        let gpu = GpuBnbSolver::new(inst, config(32, DataPlacement::AllGlobal, false)).solve();
        assert_eq!(serial.best_makespan, gpu.best_makespan);
    }

    #[test]
    fn fast_forward_gives_identical_results() {
        // The functional kernel bounds exactly; fast-forward bounds against
        // the incumbent, in two passes from 9 machines (36 pairs) on.
        for (machines, seed) in [(4, 77), (10, 78)] {
            let inst = generate("t", 8, machines, seed);
            let slow =
                GpuBnbSolver::new(inst.clone(), config(48, DataPlacement::SharedJmPtm, false))
                    .solve();
            let fast =
                GpuBnbSolver::new(inst, config(48, DataPlacement::SharedJmPtm, true)).solve();
            assert!(slow.is_optimal() && fast.is_optimal(), "8x{machines}");
            assert_eq!(slow.best_makespan, fast.best_makespan, "8x{machines}");
            assert_eq!(slow.best_schedule, fast.best_schedule, "8x{machines}");
            assert_eq!(slow.stats, fast.stats, "8x{machines}");
            assert_eq!(slow.cost, fast.cost, "8x{machines}");
            assert_eq!(
                slow.gpu.nodes_bounded, fast.gpu.nodes_bounded,
                "8x{machines}"
            );
        }
    }

    #[test]
    fn placement_changes_timing_but_not_results() {
        let inst = generate("t", 9, 5, 11);
        let all_global =
            GpuBnbSolver::new(inst.clone(), config(64, DataPlacement::AllGlobal, false)).solve();
        let shared = GpuBnbSolver::new(inst, config(64, DataPlacement::SharedJmPtm, false)).solve();
        assert_eq!(all_global.best_makespan, shared.best_makespan);
        assert_eq!(all_global.stats.bounded, shared.stats.bounded);
        // Timing estimates may differ (that is the point of the placement).
        assert!(all_global.gpu.kernel_time > std::time::Duration::ZERO);
        assert!(shared.gpu.kernel_time > std::time::Duration::ZERO);
    }

    #[test]
    fn frozen_pool_runs_reach_the_same_optimum() {
        let inst = generate("t", 8, 4, 21);
        let (_, expected) = brute_force_optimal(&inst);
        let problem = FspProblem::new(inst.clone());
        let frozen = bb::frozen_pool(&problem, 32);
        let solver =
            GpuBnbSolver::from_problem(problem, config(16, DataPlacement::SharedJmPtm, false));
        let outcome = solver.solve_from(
            frozen.nodes.clone(),
            Some(frozen.upper_bound),
            frozen.best_schedule.clone(),
        );
        assert_eq!(outcome.best_makespan, expected);
        // The serial reference over the same frozen pool agrees.
        let serial = SerialSolver::new(FspProblem::new(inst), SolverConfig::default()).solve_from(
            frozen.nodes,
            Some(frozen.upper_bound),
            frozen.best_schedule,
        );
        assert_eq!(serial.best_makespan, outcome.best_makespan);
    }

    #[test]
    fn node_limit_truncates_the_search() {
        let inst = generate("t", 12, 10, 5);
        for backend in [BackendKind::Gpu, BackendKind::Multicore] {
            let cfg = GpuSolverConfig {
                pool_size: 128,
                node_limit: Some(400),
                fast_forward: true,
                backend,
                ..Default::default()
            };
            let outcome = GpuBnbSolver::new(inst.clone(), cfg).solve();
            assert_eq!(outcome.stop, StopReason::NodeLimit, "{backend}");
            assert!(outcome.stats.bounded >= 400, "{backend}");
        }
    }

    #[test]
    fn gpu_accounting_is_populated_and_speedup_positive() {
        let inst = generate("t", 10, 8, 3);
        let cfg = GpuSolverConfig {
            pool_size: 256,
            node_limit: Some(2_000),
            fast_forward: true,
            ..Default::default()
        };
        let solver = GpuBnbSolver::new(inst, cfg);
        let footprint = solver.matrix_footprint_bytes();
        let outcome = solver.solve();
        assert!(outcome.gpu.iterations > 0);
        assert_eq!(outcome.gpu.nodes_bounded, outcome.stats.bounded);
        assert!(outcome.gpu.kernel_time > std::time::Duration::ZERO);
        assert!(outcome.gpu.transfer_time > std::time::Duration::ZERO);
        assert!(outcome.gpu.serial_accesses > 0);
        let speedup = outcome.speedup(&HostModel::default(), footprint);
        assert!(speedup > 1.0, "expected a speedup, got {speedup}");
    }

    #[test]
    fn cost_report_and_latencies_are_deterministic_and_consistent() {
        let inst = generate("t", 10, 8, 3);
        let cfg = GpuSolverConfig {
            pool_size: 256,
            node_limit: Some(2_000),
            fast_forward: true,
            ..Default::default()
        };
        let solver = GpuBnbSolver::new(inst, cfg);
        let a = solver.solve();
        let b = solver.solve();
        // Bit-identical across runs: the counters and histograms are pure
        // functions of the workload and the cost model.
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.latencies, b.latencies);
        // Consistency with the legacy accounting.
        assert_eq!(a.cost.batches, a.gpu.iterations);
        assert_eq!(a.cost.launches, a.gpu.launches);
        assert_eq!(a.cost.device_nodes, a.gpu.nodes_bounded);
        assert_eq!(a.cost.serial_accesses, a.gpu.serial_accesses);
        // The root was bounded on the host before the off-load loop, so the
        // off-loading rate is meaningful (strictly between 0 and 1).
        assert_eq!(a.cost.nodes_bounded(), a.stats.bounded + 1);
        let rate = a.cost.offloading_rate();
        assert!(rate > 0.0 && rate < 1.0, "rate {rate}");
        assert!(a.cost.waves > 0);
        assert_eq!(a.latencies.batch.samples(), a.gpu.iterations);
        assert_eq!(a.latencies.launch.samples(), a.gpu.launches);
        assert_eq!(a.latencies.solve.samples(), 1);
    }

    #[test]
    fn every_backend_kind_reaches_the_same_optimum() {
        // The pool size changes the batches, never the optimum.
        let inst = generate("t", 8, 4, 77);
        let (_, expected) = brute_force_optimal(&inst);
        for kind in BackendKind::ALL {
            for pool_size in [1, 32, 1024] {
                let cfg = GpuSolverConfig {
                    pool_size,
                    backend: kind,
                    fast_forward: true,
                    ..Default::default()
                };
                let outcome = GpuBnbSolver::new(inst.clone(), cfg).solve();
                assert!(outcome.is_optimal(), "{kind}, pool {pool_size}");
                assert_eq!(outcome.best_makespan, expected, "{kind}, pool {pool_size}");
            }
        }
    }

    #[test]
    fn pipelined_backend_overlaps_the_device_schedule() {
        let inst = generate("t", 12, 10, 5);
        let base = GpuSolverConfig {
            pool_size: 256,
            node_limit: Some(3_000),
            fast_forward: true,
            ..Default::default()
        };
        let serial = GpuBnbSolver::new(
            inst.clone(),
            GpuSolverConfig {
                backend: crate::config::BackendKind::Gpu,
                ..base.clone()
            },
        )
        .solve();
        let piped = GpuBnbSolver::new(
            inst,
            GpuSolverConfig {
                backend: crate::config::BackendKind::GpuPipelined,
                ..base
            },
        )
        .solve();
        // Same exploration (bounds are identical), overlapped schedule.
        assert_eq!(serial.best_makespan, piped.best_makespan);
        assert_eq!(serial.stats.bounded, piped.stats.bounded);
        assert_eq!(
            serial.gpu.overlapped_time,
            serial.gpu.kernel_time + serial.gpu.transfer_time
        );
        assert!(
            piped.gpu.overlapped_time < piped.gpu.kernel_time + piped.gpu.transfer_time,
            "pipelined schedule {:?} must beat the serialized {:?}",
            piped.gpu.overlapped_time,
            piped.gpu.kernel_time + piped.gpu.transfer_time
        );
    }

    #[test]
    fn lookahead_solver_matches_the_strict_loop_under_a_fixed_incumbent() {
        // With the incumbent seeded at the optimum it can never improve
        // mid-run, so the speculative lookahead selection provably visits
        // the same node set as the strict loop — identical counters, not
        // just the same makespan.
        let inst = generate("t", 9, 5, 31);
        let reference = SerialSolver::with_defaults(FspProblem::new(inst.clone())).solve();
        let optimal = reference.best_makespan;
        let perm = reference.best_schedule.expect("schedule");
        let run = |backend: crate::config::BackendKind, lookahead: bool| {
            let cfg = GpuSolverConfig {
                pool_size: 24,
                backend,
                lookahead,
                fast_forward: true,
                ..Default::default()
            };
            GpuBnbSolver::new(inst.clone(), cfg).solve_from(
                {
                    let problem = FspProblem::new(inst.clone());
                    let mut root = problem.root();
                    problem.bound(&mut root);
                    vec![root]
                },
                Some(optimal),
                Some(perm.clone()),
            )
        };
        let strict = run(crate::config::BackendKind::Sequential, false);
        let ahead = run(crate::config::BackendKind::GpuPipelined, true);
        assert_eq!(strict.best_makespan, ahead.best_makespan);
        assert_eq!(strict.best_makespan, optimal);
        assert_eq!(strict.stats.bounded, ahead.stats.bounded);
        assert_eq!(strict.stats.decomposed, ahead.stats.decomposed);
        assert_eq!(strict.stats.pruned, ahead.stats.pruned);
        assert_eq!(strict.stats.selected, ahead.stats.selected);
        assert_eq!(ahead.gpu.nodes_bounded, ahead.stats.bounded);
    }

    #[test]
    fn lookahead_solver_still_finds_the_optimum_from_the_root() {
        // No seeded incumbent: improvements happen mid-run, the exploration
        // order may differ from the strict loop, but the result must not.
        for seed in [7, 21, 77] {
            let inst = generate(format!("t{seed}"), 8, 4, seed);
            let (_, expected) = brute_force_optimal(&inst);
            let cfg = GpuSolverConfig {
                pool_size: 32,
                backend: crate::config::BackendKind::GpuPipelined,
                lookahead: true,
                fast_forward: true,
                ..Default::default()
            };
            let outcome = GpuBnbSolver::new(inst, cfg).solve();
            assert!(outcome.is_optimal(), "seed {seed}");
            assert_eq!(outcome.best_makespan, expected, "seed {seed}");
            assert_eq!(outcome.gpu.nodes_bounded, outcome.stats.bounded);
        }
    }

    #[test]
    fn lookahead_with_a_node_limit_orphans_no_speculative_work() {
        let inst = generate("t", 12, 10, 5);
        let cfg = GpuSolverConfig {
            pool_size: 128,
            node_limit: Some(1_000),
            backend: crate::config::BackendKind::GpuPipelined,
            lookahead: true,
            fast_forward: true,
            ..Default::default()
        };
        let outcome = GpuBnbSolver::new(inst, cfg).solve();
        assert_eq!(outcome.stop, StopReason::NodeLimit);
        // Every batch the backend bounded was also eliminated, and every
        // decomposed node's children were bounded — nothing speculative was
        // orphaned by the limit.
        assert_eq!(outcome.gpu.nodes_bounded, outcome.stats.bounded);
        assert!(outcome.stats.decomposed <= outcome.stats.bounded);
        // The soft cap overshoots by at most the final batch.
        assert!(outcome.stats.bounded < 1_000 + 2 * (128 + 12) as u64);
    }

    #[test]
    fn cross_iteration_overlap_shrinks_the_device_schedule() {
        // Same exploration (incumbent fixed at the optimum), one persistent
        // pipeline: the cross-iteration schedule must undercut the per-batch
        // pipelined schedule, which itself undercuts the serialized one.
        let inst = generate("t", 10, 8, 3);
        let reference = SerialSolver::with_defaults(FspProblem::new(inst.clone())).solve();
        let optimal = reference.best_makespan;
        let perm = reference.best_schedule.expect("schedule");
        let run = |lookahead: bool| {
            let cfg = GpuSolverConfig {
                pool_size: 64,
                backend: crate::config::BackendKind::GpuPipelined,
                pipeline_depth: 4,
                lookahead,
                fast_forward: true,
                ..Default::default()
            };
            let solver = GpuBnbSolver::new(inst.clone(), cfg);
            let problem = FspProblem::new(inst.clone());
            let mut root = problem.root();
            problem.bound(&mut root);
            solver.solve_from(vec![root], Some(optimal), Some(perm.clone()))
        };
        let per_batch = run(false);
        let cross = run(true);
        assert_eq!(per_batch.stats.bounded, cross.stats.bounded);
        assert!(cross.gpu.iterations > 1, "need several pools to overlap");
        assert!(
            cross.gpu.overlapped_time < per_batch.gpu.overlapped_time,
            "cross-iteration schedule {:?} must beat per-batch {:?}",
            cross.gpu.overlapped_time,
            per_batch.gpu.overlapped_time
        );
    }

    #[test]
    fn checkpoint_then_resume_matches_the_uninterrupted_certificate() {
        let inst = generate("t", 9, 5, 31);
        let base = GpuSolverConfig {
            pool_size: 32,
            fast_forward: true,
            ..Default::default()
        };
        let uninterrupted = GpuBnbSolver::new(inst.clone(), base.clone()).solve();
        assert!(uninterrupted.cost.batches > 3, "need room to pause");
        for after in [0u64, 1, 2, 3] {
            let cfg = GpuSolverConfig {
                checkpoint_after: Some(after),
                ..base.clone()
            };
            let paused = GpuBnbSolver::new(inst.clone(), cfg).solve();
            assert_eq!(paused.stop, StopReason::Checkpoint, "after {after}");
            let checkpoint = paused.checkpoint.expect("a checkpoint rides the outcome");
            // Cross the wire: serialize, parse, resume from the parse.
            let checkpoint = crate::fault::SolveCheckpoint::from_json(&checkpoint.to_json())
                .expect("round trip");
            let resumed = GpuBnbSolver::new(inst.clone(), base.clone())
                .resume(&checkpoint)
                .expect("the solver's own checkpoint");
            assert_eq!(resumed.stop, StopReason::Exhausted);
            assert!(resumed.checkpoint.is_none());
            // The certificate — makespan, schedule, summed cost — is
            // bit-identical to the uninterrupted run's.
            assert_eq!(resumed.best_makespan, uninterrupted.best_makespan);
            assert_eq!(resumed.best_schedule, uninterrupted.best_schedule);
            assert_eq!(resumed.cost, uninterrupted.cost, "after {after}");
            // And no bounded node was counted twice or dropped.
            assert_eq!(
                paused.stats.bounded + resumed.stats.bounded,
                uninterrupted.stats.bounded
            );
        }
    }

    #[test]
    fn a_checkpoint_without_a_schedule_certifies_no_optimum() {
        // A schedule-less checkpoint's incumbent is taken as given. At or
        // below the optimum nothing beats it, so the resumed run ends
        // holding no schedule: a lower bound, not an optimum. Above it the
        // run finds and certifies the optimum.
        let inst = generate("t", 8, 4, 7);
        let optimum = brute_force_optimal(&inst).1;
        let config = GpuSolverConfig {
            pool_size: 8,
            fast_forward: true,
            ..Default::default()
        };
        let paused = GpuBnbSolver::new(
            inst.clone(),
            GpuSolverConfig {
                checkpoint_after: Some(2),
                ..config.clone()
            },
        )
        .solve();
        let mut checkpoint = paused.checkpoint.expect("the solve outlives two batches");
        checkpoint.best_schedule = None;
        let solver = GpuBnbSolver::new(inst.clone(), config);
        for upper_bound in [optimum - 66, optimum, optimum + 1] {
            checkpoint.upper_bound = upper_bound;
            let resumed = solver.resume(&checkpoint).expect("taken as given");
            assert_eq!(resumed.stop, StopReason::Exhausted, "ub {upper_bound}");
            let found = upper_bound > optimum;
            assert_eq!(resumed.is_optimal(), found, "ub {upper_bound}");
            assert_eq!(resumed.best_schedule.is_some(), found, "ub {upper_bound}");
            assert_eq!(resumed.best_makespan, upper_bound.min(optimum));
        }
    }

    #[test]
    fn footprint_matches_packed_matrix_sizes() {
        let inst = generate("t", 20, 20, 9);
        let solver = GpuBnbSolver::new(inst, GpuSolverConfig::default());
        // PTM 400 + LM 7600*2... computed from the placement module.
        let expected: usize = MatrixId::ALL.iter().map(|m| m.packed_bytes(20, 20)).sum();
        assert_eq!(solver.matrix_footprint_bytes(), expected);
    }
}
