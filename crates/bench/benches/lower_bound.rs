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
//! read slower than the exact row where few children prune. Those rows
//! bound children built beforehand (branch, then bound, with the branching
//! untimed); the `children_from_parents` row bounds the same children
//! exactly as `(parent, job)` entries of a batch, each lane advancing its
//! parent's front by the job, which is how a solve bounds them. The
//! `pool_batches_below_incumbent` row bounds them the way a backend calls
//! the bound: one call per pool-size slice of entries, against the frozen
//! incumbent, with one scratch kept across calls. Both rows assert their
//! bounds, so a run checks the optimised batch path as well as timing it.
//!
//! Each class's header names the lane kernel the batch rows ran on: `avx2`,
//! or `portable` on a CPU without AVX2.
//!
//! Gathering the Johnson rows once per scratch and keeping the pair
//! epilogue in registers moved the batch rows as below: medians of 14
//! alternating runs per side on a 2-vCPU Xeon VM with AVX2, in ns per
//! node, parent → change. The host ran slow during these runs (about twice
//! the single-run figures of a quiet host), so compare ratios. The
//! `reference` rows run unchanged code and read ×0.91–×1.08, which is the
//! noise.
//!
//! | row | 8×20 | 9×5 | 20×20 |
//! |---|---|---|---|
//! | `batch` | 996 → 679 | 107 → 86 | 2,114 → 1,400 |
//! | `children` | 994 → 676 | 100 → 83 | 1,790 → 1,210 |
//! | `children_below_incumbent` | 828 → 540 | 105 → 82 | 1,954 → 1,236 |
//! | `children_from_parents` | 1,091 → 716 | 110 → 90 | 1,816 → 1,390 |
//! | `pool_batches_below_incumbent` | 877 → 577 | 114 → 90 | 1,858 → 1,230 |
//! | `reference` | 16,776 → 17,388 | 657 → 724 | 32,532 → 30,012 |

use bb::{frozen_pool, Batch, FspNode, FspProblem};
use criterion::{criterion_group, criterion_main, Bencher, BenchmarkId, Criterion, Throughput};
use fsp::bound::batch::lane_kernel;
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
        println!(
            "lower_bound/{class}: {} frozen nodes, {} lane kernel",
            nodes.len(),
            lane_kernel()
        );
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
        let mut family = Batch::with_capacity(nodes.len(), children.len());
        for node in nodes {
            family.branch(node.clone());
        }
        group.bench_with_input(
            BenchmarkId::new(
                "children_from_parents",
                format!("{class} ({} nodes)", children.len()),
            ),
            &family,
            |b, family| {
                let view = family.view();
                let mut scratch = BoundScratch::new();
                let mut out = vec![0; view.len()];
                b.iter(|| {
                    lb.bound_children(
                        &mut scratch,
                        view.parents(),
                        std::hint::black_box(view.children()),
                        &mut out,
                        Time::MAX,
                    );
                    std::hint::black_box(&out);
                });
                assert_eq!(out, exact, "the view bounds the built children's bounds");
            },
        );
        group.bench_with_input(
            BenchmarkId::new(
                "pool_batches_below_incumbent",
                format!("{class} ({} nodes)", children.len()),
            ),
            &family,
            |b, family| {
                let view = family.view();
                let mut scratch = BoundScratch::new();
                let mut out = vec![0; view.len()];
                b.iter(|| {
                    for (batch, out) in view.chunks(pool).zip(out.chunks_mut(pool)) {
                        lb.bound_children(
                            &mut scratch,
                            batch.parents(),
                            std::hint::black_box(batch.children()),
                            out,
                            incumbent,
                        );
                    }
                    std::hint::black_box(&out);
                });
                for (&got, &exact) in out.iter().zip(&exact) {
                    if exact < incumbent {
                        assert_eq!(got, exact, "an unpruned child gets its exact bound");
                    } else {
                        assert!(got >= incumbent, "a pruned child stays pruned");
                    }
                }
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_lower_bounds);
criterion_main!(benches);
