//! Micro-benchmark of the Johnson lower bound on the nodes a solver really
//! bounds: the deterministic frozen pool of three instance classes (the
//! benchmark's 8×20 and 9×5 classes and the paper's 20×20), bounded one
//! node at a time by the single-node reference and eight nodes per pass by
//! the batch entry point, reported per node. Frozen-pool nodes sit at mixed
//! depths, so the reference's scheduled-job branch is as unpredictable here
//! as in a solve (at the root it never mispredicts). Small instances often
//! close before their pool fills, so each class takes the first generator
//! seed whose freeze reaches the target size.

use bb::{frozen_pool, FspProblem};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fsp::taillard::generate;
use fsp::BoundScratch;

fn bench_lower_bounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("lower_bound");
    group.sample_size(20);

    for (jobs, machines, pool) in [(8usize, 20usize, 256usize), (9, 5, 64), (20, 20, 256)] {
        let class = format!("{jobs}x{machines}");
        let (problem, nodes) = (1..)
            .map(|seed| {
                let problem = FspProblem::new(generate(class.as_str(), jobs, machines, seed));
                let nodes = frozen_pool(&problem, pool).nodes;
                (problem, nodes)
            })
            .find(|(_, nodes)| nodes.len() >= pool)
            .expect("some seed freezes a full pool");
        let lb = problem.bound_fn();
        group.throughput(Throughput::Elements(nodes.len() as u64));

        group.bench_with_input(
            BenchmarkId::new("reference", format!("{class} ({} nodes)", nodes.len())),
            &nodes,
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
        group.bench_with_input(
            BenchmarkId::new("batch", format!("{class} ({} nodes)", nodes.len())),
            &nodes,
            |b, nodes| {
                let mut scratch = BoundScratch::new();
                let mut out = vec![0; nodes.len()];
                b.iter(|| {
                    lb.bound_many(&mut scratch, std::hint::black_box(nodes), &mut out);
                    std::hint::black_box(&out);
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_lower_bounds);
criterion_main!(benches);
