//! Micro-benchmark of the Johnson lower bound on the nodes a solver really
//! bounds: the deterministic frozen pool of three instance classes (the
//! benchmark's 8×20 and 9×5 classes and the paper's 20×20), bounded one
//! node at a time by the single-node reference and eight nodes per pass by
//! the batch entry point, reported per node. Frozen-pool nodes sit at mixed
//! depths, so the reference's scheduled-job branch is as unpredictable here
//! as in a solve (at the root it never mispredicts). Small instances often
//! close before their pool fills, so each class takes the first generator
//! seed whose freeze reaches the target size.
//!
//! The frozen nodes' children are then bounded by the batch entry point
//! exactly and against the frozen incumbent as the cut-off. The cut-off
//! only saves pairs of the children the incumbent prunes, so the bench
//! prints that share per class. 9×5 has 10 machine pairs and is bounded in
//! one pass either way; 8×20 and 20×20 take the two-pass path, which can
//! read slower than the exact row where few children prune.

use bb::{frozen_pool, FspNode, FspProblem};
use criterion::{criterion_group, criterion_main, Bencher, BenchmarkId, Criterion, Throughput};
use fsp::taillard::generate;
use fsp::{BoundScratch, Time};

fn bench_lower_bounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("lower_bound");
    group.sample_size(20);

    for (jobs, machines, pool) in [(8usize, 20usize, 256usize), (9, 5, 64), (20, 20, 256)] {
        let class = format!("{jobs}x{machines}");
        let (problem, frozen) = (1..)
            .map(|seed| {
                let problem = FspProblem::new(generate(class.as_str(), jobs, machines, seed));
                let frozen = frozen_pool(&problem, pool);
                (problem, frozen)
            })
            .find(|(_, frozen)| frozen.len() >= pool)
            .expect("some seed freezes a full pool");
        let (nodes, incumbent) = (&frozen.nodes, frozen.upper_bound);
        let lb = problem.bound_fn();
        group.throughput(Throughput::Elements(nodes.len() as u64));

        group.bench_with_input(
            BenchmarkId::new("reference", format!("{class} ({} nodes)", nodes.len())),
            nodes,
            |b, nodes| {
                b.iter(|| {
                    for node in nodes {
                        std::hint::black_box(
                            lb.bound_prefix_fn(node.front(), |j| node.is_scheduled(j)),
                        );
                    }
                })
            },
        );
        let batch = |b: &mut Bencher, nodes: &[FspNode], cutoff: Time| {
            let mut scratch = BoundScratch::new();
            let mut out = vec![0; nodes.len()];
            b.iter(|| {
                lb.bound_many(&mut scratch, std::hint::black_box(nodes), &mut out, cutoff);
                std::hint::black_box(&out);
            })
        };
        group.bench_with_input(
            BenchmarkId::new("batch", format!("{class} ({} nodes)", nodes.len())),
            nodes.as_slice(),
            |b, nodes| batch(b, nodes, Time::MAX),
        );

        // The frozen nodes' children are what the next batches bound: exact,
        // and against the frozen incumbent.
        let children: Vec<FspNode> = nodes.iter().flat_map(|node| problem.branch(node)).collect();
        let mut exact = vec![0; children.len()];
        lb.bound_many(&mut BoundScratch::new(), &children, &mut exact, Time::MAX);
        let prunable = exact.iter().filter(|&&bound| bound >= incumbent).count();
        println!(
            "lower_bound/{class}: {prunable} of {} children prunable against the frozen incumbent {incumbent}",
            children.len()
        );
        group.throughput(Throughput::Elements(children.len() as u64));
        for (row, cutoff) in [
            ("children", Time::MAX),
            ("children_below_incumbent", incumbent),
        ] {
            group.bench_with_input(
                BenchmarkId::new(row, format!("{class} ({} nodes)", children.len())),
                children.as_slice(),
                |b, children| batch(b, children, cutoff),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_lower_bounds);
criterion_main!(benches);
