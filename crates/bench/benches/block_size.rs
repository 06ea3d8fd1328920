//! Ablation of the thread-block size (the paper fixes 256 threads per block
//! after experimentation): modelled kernel time and occupancy of one
//! off-loaded pool for blocks of 64…512 threads.

use bb::Batch;
use bench::workloads::PreparedInstance;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fsp::taillard::InstanceClass;
use fsp::Time;
use gpu_bnb::{BoundingEngine, DataPlacement};

fn bench_block_sizes(c: &mut Criterion) {
    let prep = PreparedInstance::prepare(
        InstanceClass {
            jobs: 50,
            machines: 20,
        },
        2012,
        2048,
    );
    let chunk = Batch::from_nodes(prep.frozen.nodes.iter().take(2048).cloned().collect());
    let host_lb = prep.problem.bound_fn().clone();

    eprintln!("modelled kernel time for one 2048-node pool (50x20), per block size:");
    for block in [64usize, 128, 256, 512] {
        let mut engine =
            BoundingEngine::new(host_lb.data(), DataPlacement::SharedJmPtm, block, 26, 2048);
        let result = engine.bound_nodes_fast(chunk.view(), &host_lb, Time::MAX);
        eprintln!(
            "  block {block:>4}: kernel {:>10.3?}  occupancy {:>2} warps/SM",
            result.kernel.duration, result.stats.occupancy.active_warps_per_sm
        );
    }

    let mut group = c.benchmark_group("block_size");
    group.sample_size(10);
    for block in [64usize, 128, 256, 512] {
        group.bench_with_input(BenchmarkId::from_parameter(block), &chunk, |b, chunk| {
            let mut engine =
                BoundingEngine::new(host_lb.data(), DataPlacement::SharedJmPtm, block, 26, 2048);
            b.iter(|| {
                std::hint::black_box(
                    engine
                        .bound_nodes_fast(chunk.view(), &host_lb, Time::MAX)
                        .bounds
                        .len(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_block_sizes);
criterion_main!(benches);
