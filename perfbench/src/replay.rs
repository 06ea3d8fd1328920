//! The traced replay: the strict solve loop (no lookahead) driven from
//! public calls, with one span per layer call.
//!
//! It mirrors what `GpuBnbSolver::solve` and a service job do for one
//! request: NEH incumbent, host root bound, `make_backend`, then batches of
//! best-first selection → `branch_into` → `bound_batch` → elimination, with
//! the per-batch cost books kept through `CostReport::record_backend_batch`.
//! Its counters and cost report must equal the untraced solve's exactly;
//! otherwise the trace would time a different program.

use crate::trace::{Layer, Recorder};
use bb::stats::SolveStats;
use bb::{BestFirstPool, FspNode, FspProblem, Pool, SharedUpperBound};
use fsp::bound::counts::AccessCounts;
use fsp::{Job, JohnsonLowerBound, Time};
use gpu_bnb::{make_backend, CostReport, GpuSolverConfig};
use std::hint::black_box;

/// What one replayed solve produced, plus the counts the per-layer ratios
/// need.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Node counters, comparable to the untraced solve's.
    pub stats: SolveStats,
    /// Final incumbent makespan.
    pub best_makespan: Time,
    /// Final incumbent schedule.
    pub best_schedule: Option<Vec<Job>>,
    /// Cost books kept exactly as the solver keeps them.
    pub cost: CostReport,
    /// Nodes popped and pruned at selection (their bound went stale).
    pub stale: u64,
    /// Bounded children pushed back into the pool.
    pub kept: u64,
    /// Nodes bounded by `FspProblem::bound` (root plus shadow).
    pub host_bound_nodes: u64,
    /// Nanoseconds spent in the shadow host bound of batch nodes.
    pub shadow_ns: u64,
    /// Batch nodes whose shadow host bound differs from the backend's.
    pub bound_mismatches: u64,
}

/// Modelled serial access count of bounding `nodes` on the host, exactly
/// as the solver charges it to `CostReport::serial_accesses`.
fn serial_accesses(jobs: usize, machines: usize, nodes: &[FspNode]) -> u64 {
    nodes
        .iter()
        .map(|node| {
            let remaining = jobs - node.depth();
            if remaining == 0 {
                0
            } else {
                AccessCounts::impl_expected(jobs, machines, remaining).total()
            }
        })
        .sum()
}

/// Replays one solve from the root under `config` (strict loop), recording
/// spans under `request`. With `shadow`, every batch is also bounded by
/// `FspProblem::bound` in an `fsp.bound` span, which times the host bound
/// the fast-forward backends run inside `bound_batch`.
pub fn replay(
    problem: &FspProblem<JohnsonLowerBound>,
    config: &GpuSolverConfig,
    rec: &mut Recorder,
    request: u32,
    shadow: bool,
) -> Replay {
    let inst = problem.instance();
    let (n, m) = (inst.jobs(), inst.machines());
    let root_span = rec.open(Layer::Request, None, request);
    let parent = Some(root_span);
    let mut out = Replay {
        stats: SolveStats::default(),
        best_makespan: Time::MAX,
        best_schedule: None,
        cost: CostReport::default(),
        stale: 0,
        kept: 0,
        host_bound_nodes: 1,
        shadow_ns: 0,
        bound_mismatches: 0,
    };

    let span = rec.open(Layer::HostBound, parent, request);
    let mut root = problem.root();
    problem.bound(&mut root);
    rec.close(span);
    out.cost.record_host_bound(1);

    let span = rec.open(Layer::Neh, parent, request);
    let (perm, value) = problem.initial_upper_bound();
    rec.close(span);
    let ub = SharedUpperBound::new(value);
    out.best_schedule = Some(perm);

    let span = rec.open(Layer::BackendMake, parent, request);
    let mut backend = make_backend(problem, config, config.pool_size + n);
    rec.close(span);

    let mut pool = BestFirstPool::new();
    pool.push(root);
    out.stats.max_pool = pool.len();

    loop {
        // Selection: pop until the children of the kept parents would fill
        // the pool (each parent yields one child per unscheduled job).
        let span = rec.open(Layer::Select, parent, request);
        let mut parents: Vec<FspNode> = Vec::new();
        let mut planned = 0;
        while planned < config.pool_size {
            let Some(node) = pool.pop() else { break };
            out.stats.selected += 1;
            if ub.prunes(node.bound()) {
                out.stats.pruned += 1;
                out.stale += 1;
                continue;
            }
            out.stats.decomposed += 1;
            planned += n - node.depth();
            parents.push(node);
        }
        rec.close(span);
        if parents.is_empty() {
            if pool.is_empty() {
                break;
            }
            continue;
        }

        let span = rec.open(Layer::Branch, parent, request);
        let mut batch: Vec<FspNode> = Vec::with_capacity(config.pool_size + n);
        for node in &parents {
            problem.branch_into(node, &mut batch);
        }
        rec.close(span);

        let shadow_bounds = shadow.then(|| {
            let span = rec.open(Layer::HostBound, parent, request);
            let bounds: Vec<Time> = batch.iter().map(|c| problem.bound_value(c)).collect();
            rec.close(span);
            out.shadow_ns += (rec.seconds(span) * 1e9) as u64;
            out.host_bound_nodes += batch.len() as u64;
            black_box(bounds)
        });

        let span = rec.open(Layer::BoundBatch, parent, request);
        let result = backend.bound_batch(&batch);
        rec.close(span);
        if let Some(shadow_bounds) = shadow_bounds {
            out.bound_mismatches += shadow_bounds
                .iter()
                .zip(&result.bounds)
                .filter(|(a, b)| a != b)
                .count() as u64;
        }

        let span = rec.open(Layer::CostRecord, parent, request);
        let accesses = serial_accesses(n, m, &batch);
        out.cost
            .record_backend_batch(&result.accounting, batch.len() as u64, accesses);
        rec.close(span);

        let span = rec.open(Layer::Eliminate, parent, request);
        for (mut child, bound) in batch.into_iter().zip(result.bounds) {
            child.set_bound(bound);
            out.stats.bounded += 1;
            if problem.is_leaf(&child) {
                out.stats.leaves += 1;
                let cost = problem.leaf_cost(&child);
                if ub.try_improve(cost) {
                    out.stats.improvements += 1;
                    out.best_schedule = Some(child.prefix_vec());
                }
            } else if ub.prunes(bound) {
                out.stats.pruned += 1;
            } else {
                pool.push(child);
                out.kept += 1;
            }
        }
        out.stats.max_pool = out.stats.max_pool.max(pool.len());
        rec.close(span);
    }
    rec.close(root_span);
    out.best_makespan = ub.get();
    out
}
