//! Micro-benchmark of the pending-pool implementations (the selection
//! operator's data structure): best-first bucket queue vs depth-first stack
//! vs FIFO —
//! the node layer of a solve (branch, push, pop) per child — plus the
//! `PartialSchedule` push/pop pair, whose pop must stay `O(m)` at every depth
//! (per-depth front snapshots, not a prefix replay).

use bb::pool::PoolStrategy;
use bb::{BestFirstPool, FspNode, FspProblem, Pool};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fsp::taillard::{generate, TaillardRng};
use fsp::PartialSchedule;

fn nodes_for_bench(count: usize) -> Vec<FspNode> {
    let inst = generate("pool-bench", 20, 10, 99);
    (0..count)
        .map(|i| {
            let mut node = FspNode::from_prefix(&inst, &[i % 20]);
            node.set_bound(1_000 + ((i * 37) % 500) as u32);
            node
        })
        .collect()
}

fn bench_pools(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_ops");
    group.sample_size(20);
    let nodes = nodes_for_bench(5_000);

    for strategy in [
        PoolStrategy::BestFirst,
        PoolStrategy::DepthFirst,
        PoolStrategy::Fifo,
    ] {
        group.bench_with_input(
            BenchmarkId::new("push_pop_5000", format!("{strategy:?}")),
            &nodes,
            |b, nodes| {
                b.iter(|| {
                    let mut pool = strategy.build();
                    for node in nodes {
                        pool.push(node.clone());
                    }
                    let mut popped = 0usize;
                    while pool.pop().is_some() {
                        popped += 1;
                    }
                    std::hint::black_box(popped)
                })
            },
        );
    }
    group.finish();
}

/// Times the node layer of a solve, per child: `FspProblem::branch_into` of
/// 64 parents, a `BestFirstPool` push of every child and a pop of each. The
/// parents sit at half depth along seeded random orders of the benchmark's
/// 9×5 and 8×20 classes, so the children carry the prefix, scheduled set
/// and front a real solve moves; their bounds spread over a few values so
/// the pool's depth and insertion tie-breaks fire.
fn bench_branch_push_pop(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_ops");
    group.sample_size(1_000);

    for (jobs, machines) in [(9usize, 5usize), (8, 20)] {
        let class = format!("{jobs}x{machines}");
        let problem = FspProblem::new(generate(class.as_str(), jobs, machines, 1));
        let mut rng = TaillardRng::new(7);
        let parents: Vec<FspNode> = (0..64u32)
            .map(|i| {
                let mut order: Vec<usize> = (0..jobs).collect();
                for k in (1..jobs).rev() {
                    order.swap(k, rng.unif(0, k as i64) as usize);
                }
                let mut node = FspNode::from_prefix(problem.instance(), &order[..jobs / 2]);
                node.set_bound(1_000 + i % 4);
                node
            })
            .collect();
        let children = parents.len() * (jobs - jobs / 2);
        group.throughput(Throughput::Elements(children as u64));
        group.bench_with_input(
            BenchmarkId::new("branch_push_pop", format!("{class} ({children} children)")),
            &parents,
            |b, parents| {
                let mut batch = Vec::with_capacity(children);
                let mut pool = BestFirstPool::new();
                b.iter(|| {
                    for parent in parents {
                        problem.branch_into(parent, &mut batch);
                    }
                    for (i, mut child) in batch.drain(..).enumerate() {
                        child.set_bound(child.bound() + (i % 3) as u32);
                        pool.push(child);
                    }
                    let mut depths = 0usize;
                    while let Some(node) = pool.pop() {
                        depths += node.depth();
                    }
                    std::hint::black_box(depths)
                })
            },
        );
    }
    group.finish();
}

/// Times one `push`/`pop` pair at the bottom of an existing prefix of the
/// given depth. Before the per-depth front snapshots, `pop` replayed the
/// whole prefix (`O(l·m)`) and this benchmark's cost grew linearly with
/// `depth`; now every row should cost the same.
fn bench_schedule_pops(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_ops");
    group.sample_size(20);

    let inst = generate("sched-bench", 500, 20, 7);
    for depth in [10usize, 100, 250, 450] {
        let prefix: Vec<usize> = (0..depth).collect();
        group.bench_with_input(
            BenchmarkId::new("schedule_push_pop_at_depth", depth),
            &prefix,
            |b, prefix| {
                let mut sched = PartialSchedule::from_prefix(&inst, prefix);
                b.iter(|| {
                    for job in 460..500 {
                        sched.push(job);
                        std::hint::black_box(sched.front().last());
                        sched.pop();
                    }
                    std::hint::black_box(sched.depth())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pools,
    bench_branch_push_pop,
    bench_schedule_pops
);
criterion_main!(benches);
