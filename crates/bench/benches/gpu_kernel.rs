//! Benchmark of the two bounding back-ends of the off-load engine: full
//! functional SIMT simulation versus fast-forward (host bound + analytic
//! timing). Both return identical bounds and identical modelled kernel times;
//! this bench quantifies the *simulation* overhead of the functional path,
//! per node, on two launch shapes:
//!
//! - a full 256-node 20×20 pool, where every warp of the block is full;
//! - the `service-stream` benchmark workload's launch: an 8×8 instance and
//!   one chunk of 20 nodes (that workload averages about 20 nodes a launch),
//!   one partial warp and seven empty ones in a 256-thread block.
//!
//! Each shape's header names the lane kernel both paths ran on: `avx2` on
//! an x86-64 CPU with AVX2, where the functional kernel's warp body and the
//! host batch bound run in AVX2 wrappers, or `portable`. Compiling the
//! functional kernel's lane loops for AVX2 (the baseline x86-64 target
//! emulates unsigned `u32` min and max) took the functional rows, per node,
//! from 0.50–0.51 µs to 0.32–0.33 µs on the 8×8 chunk and from 4.04–4.06 µs
//! to 1.87–1.94 µs on the 20×20 pool (medians over both placements of 41
//! alternating parent/change runs on a 2-vCPU Xeon VM with AVX2); the
//! fast-forward rows did not move.

use bb::Batch;
use bench::workloads::PreparedInstance;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fsp::bound::batch::lane_kernel;
use fsp::taillard::InstanceClass;
use fsp::Time;
use gpu_bnb::{BoundingEngine, DataPlacement};

/// Nodes in one `service-stream` launch.
const STREAM_CHUNK: usize = 20;

fn bench_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("gpu_kernel");
    group.sample_size(10);

    let shapes = [("20x20_256", 20, 20, 256), ("8x8_20", 8, 8, STREAM_CHUNK)];
    for (label, jobs, machines, nodes) in shapes {
        let prep = PreparedInstance::prepare(InstanceClass { jobs, machines }, 2012, nodes);
        let chunk = Batch::from_nodes(prep.frozen.nodes.iter().take(nodes).cloned().collect());
        assert_eq!(chunk.len(), nodes, "the freeze fills one {label} chunk");
        println!(
            "gpu_kernel/{label}: {nodes} frozen nodes, {} lane kernel",
            lane_kernel()
        );
        let host_lb = prep.problem.bound_fn().clone();
        group.throughput(Throughput::Elements(nodes as u64));

        for placement in [DataPlacement::AllGlobal, DataPlacement::SharedJmPtm] {
            group.bench_with_input(
                BenchmarkId::new(format!("functional_{label}"), placement.name()),
                &chunk,
                |b, chunk| {
                    let mut engine =
                        BoundingEngine::new(host_lb.data(), placement.clone(), 256, 26, 512);
                    b.iter(|| std::hint::black_box(engine.bound_nodes(chunk.view()).bounds.len()))
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("fast_forward_{label}"), placement.name()),
                &chunk,
                |b, chunk| {
                    let mut engine =
                        BoundingEngine::new(host_lb.data(), placement.clone(), 256, 26, 512);
                    b.iter(|| {
                        std::hint::black_box(
                            engine
                                .bound_nodes_fast(chunk.view(), &host_lb, Time::MAX)
                                .bounds
                                .len(),
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_kernel);
criterion_main!(benches);
