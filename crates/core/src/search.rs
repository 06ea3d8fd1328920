//! The one search loop state of Figure 3, shared by the standalone solver
//! and the service jobs: **selection** and **branching** on the CPU
//! ([`SearchState::select_batch`]), bounding by whichever
//! [`crate::BoundingBackend`] the caller drives, then the cost books and
//! **elimination** on the CPU ([`SearchState::consume`]).
//!
//! Branching lists each child as a `(parent, job)` entry of a [`Batch`]
//! rather than building it: the backend bounds the entries from their
//! parents, and elimination builds a node only for a child it keeps or a
//! leaf it prices.
//!
//! The callers keep only what differs between them: the standalone solver
//! its checkpoint trigger and lookahead speculation; a service job its
//! cancellation and incumbent stream. Both stop at the configuration's
//! `node_limit` and `time_limit`.

use crate::backend::{serial_accesses, BackendBatch};
use crate::checkpoint::SolveCheckpoint;
use crate::config::GpuSolverConfig;
use crate::cost::{CostReport, SolveLatencies};
use crate::stats::GpuRunStats;
use bb::pool::Pool;
use bb::stats::SolveStats;
use bb::{Batch, BestFirstPool, FspNode, FspProblem, SharedUpperBound};
use fsp::{Job, JohnsonLowerBound, Time};
use std::time::Duration;

/// Pending pool, incumbent and books of one solve.
pub(crate) struct SearchState {
    problem: FspProblem<JohnsonLowerBound>,
    pool_size: usize,
    pool: BestFirstPool,
    ub: SharedUpperBound,
    pub(crate) best_schedule: Option<Vec<Job>>,
    pub(crate) stats: SolveStats,
    /// Every counter of the solve, including the ones a resumed run carried
    /// in from its checkpoint.
    pub(crate) cost: CostReport,
    pub(crate) latencies: SolveLatencies,
    /// The counters a resumed run carried in (zero for a fresh run).
    carried: CostReport,
}

impl SearchState {
    /// Seeds a solve of `problem` under `config`.
    ///
    /// * The pool holds `initial_nodes`, or the root bounded on the host.
    /// * The incumbent is `initial_ub` with `initial_schedule`; else NEH when
    ///   [`GpuSolverConfig::use_initial_ub`] is set; else unbounded.
    /// * A fresh run (`carried == None`) charges the seed nodes as host-side
    ///   bounding work. A resumed run carries its checkpoint's counters
    ///   instead: those already charged the frontier when the original run
    ///   started.
    pub(crate) fn new(
        problem: FspProblem<JohnsonLowerBound>,
        config: &GpuSolverConfig,
        initial_nodes: Option<Vec<FspNode>>,
        initial_ub: Option<Time>,
        initial_schedule: Option<Vec<Job>>,
        carried: Option<CostReport>,
    ) -> Self {
        let initial_nodes = initial_nodes.unwrap_or_else(|| {
            let mut root = problem.root();
            problem.bound(&mut root);
            vec![root]
        });
        let cost = carried.unwrap_or_else(|| {
            let mut fresh = CostReport::default();
            fresh.record_host_bound(initial_nodes.len() as u64);
            fresh
        });

        let mut best_schedule = initial_schedule;
        let ub = match initial_ub {
            Some(v) => SharedUpperBound::new(v),
            None if config.use_initial_ub => {
                let (perm, value) = problem.initial_upper_bound();
                best_schedule = Some(perm);
                SharedUpperBound::new(value)
            }
            None => SharedUpperBound::unbounded(),
        };

        let mut pool = BestFirstPool::new();
        for node in initial_nodes {
            pool.push(node);
        }
        let stats = SolveStats {
            max_pool: pool.len(),
            ..Default::default()
        };
        Self {
            problem,
            pool_size: config.pool_size,
            pool,
            ub,
            best_schedule,
            stats,
            cost,
            latencies: SolveLatencies::default(),
            carried: carried.unwrap_or_default(),
        }
    }

    /// The incumbent makespan ([`Time::MAX`] while there is none).
    pub(crate) fn upper_bound(&self) -> Time {
        self.ub.get()
    }

    /// Nodes waiting in the pool.
    pub(crate) fn pending(&self) -> usize {
        self.pool.len()
    }

    /// Batches bounded by this run, not counting the carried ones.
    pub(crate) fn batches_run(&self) -> u64 {
        self.cost.batches - self.carried.batches
    }

    /// Selection + branching: pops nodes best first and lists their
    /// children as `(parent, job)` entries until the pool size is reached
    /// or the pending pool runs dry. Nodes the incumbent prunes are dropped
    /// on the way. The first parent it keeps is always branched, so a pool
    /// size of zero still makes progress.
    pub(crate) fn select_batch(&mut self) -> Batch {
        let n = self.problem.instance().jobs();
        let mut batch = Batch::with_capacity(self.pool_size.max(1), self.pool_size + n);
        while batch.len() < self.pool_size.max(1) {
            let Some(node) = self.pool.pop() else { break };
            self.stats.selected += 1;
            if self.ub.prunes(node.bound()) {
                self.stats.pruned += 1;
                continue;
            }
            self.stats.decomposed += 1;
            batch.branch(node);
        }
        batch
    }

    /// Books one bounded batch (cost counters and latency histograms), then
    /// eliminates it: leaves may improve the incumbent, and children the
    /// incumbent does not prune join the pool. Only those two are built as
    /// nodes; a pruned child never is. `on_incumbent` sees every
    /// improvement as `(makespan, nodes bounded so far)`.
    pub(crate) fn consume(
        &mut self,
        batch: Batch,
        result: BackendBatch,
        mut on_incumbent: impl FnMut(Time, u64),
    ) {
        let inst = self.problem.instance();
        let view = batch.view();
        let acc = result.accounting;
        let accesses = serial_accesses(inst.jobs(), inst.machines(), view);
        self.cost
            .record_backend_batch(&acc, view.len() as u64, accesses);
        for launch in &result.launch_times {
            self.latencies.launch.record(*launch);
        }
        self.latencies.batch.record(acc.device_time);

        for ((i, depth), bound) in view.depths().enumerate().zip(result.bounds) {
            self.stats.bounded += 1;
            if depth == inst.jobs() {
                self.stats.leaves += 1;
                let leaf = view.node(i, inst);
                let cost = self.problem.leaf_cost(&leaf);
                if self.ub.try_improve(cost) {
                    self.stats.improvements += 1;
                    self.best_schedule = Some(leaf.prefix_vec());
                    on_incumbent(cost, self.stats.bounded);
                }
            } else if self.ub.prunes(bound) {
                self.stats.pruned += 1;
            } else {
                let mut child = view.node(i, inst);
                child.set_bound(bound);
                self.pool.push(child);
            }
        }
        self.stats.max_pool = self.stats.max_pool.max(self.pool.len());
    }

    /// Proven lower bound on the optimum: the best pending bound capped by
    /// the incumbent, or the incumbent itself once the pool is empty.
    pub(crate) fn lower_bound(&self) -> Time {
        let upper = self.ub.get();
        self.pool.best_bound().map_or(upper, |b| b.min(upper))
    }

    /// Freezes the search into a checkpoint: the pool drained in pop order
    /// (re-pushing in this order reproduces it exactly), the incumbent, the
    /// proven bound and every counter so far.
    pub(crate) fn freeze(&mut self) -> SolveCheckpoint {
        let proven_bound = self.lower_bound();
        let mut frontier = Vec::with_capacity(self.pool.len());
        while let Some(node) = self.pool.pop() {
            frontier.push((node.prefix_vec(), node.bound()));
        }
        let inst = self.problem.instance();
        SolveCheckpoint {
            jobs: inst.jobs(),
            machines: inst.machines(),
            upper_bound: self.ub.get(),
            best_schedule: self.best_schedule.clone(),
            proven_bound,
            cost: self.cost,
            frontier,
        }
    }

    /// Closes the books: records the solve latency and returns the run's
    /// [`GpuRunStats`], built from the counters this run added (the carried
    /// ones excluded) and `wall_time`.
    pub(crate) fn finish(&mut self, wall_time: Duration) -> GpuRunStats {
        let run = self.cost.subtract(&self.carried);
        let gpu = GpuRunStats {
            iterations: run.batches,
            nodes_bounded: self.stats.bounded,
            kernel_time: Duration::from_nanos(run.kernel_nanos),
            transfer_time: Duration::from_nanos(run.transfer_nanos),
            overlapped_time: Duration::from_nanos(run.schedule_nanos),
            upload_bytes: run.h2d_bytes,
            download_bytes: run.d2h_bytes,
            launches: run.launches,
            serial_accesses: run.serial_accesses,
            wall_time,
        };
        self.latencies.solve.record(gpu.device_schedule_time());
        gpu
    }
}
