//! Ablation of the data-placement strategy beyond the paper's two variants:
//! which matrices are staged in shared memory, and what that does to the
//! modelled kernel time of one off-loaded pool.
//!
//! The modelled times are printed once before the measurements (they are the
//! scientific output); the Criterion numbers measure the cost of running the
//! placement through the engine's analytic path.

use bb::Batch;
use bench::workloads::PreparedInstance;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fsp::taillard::InstanceClass;
use fsp::Time;
use gpu_bnb::placement::MatrixId;
use gpu_bnb::{BoundingEngine, DataPlacement};

fn placements() -> Vec<DataPlacement> {
    vec![
        DataPlacement::AllGlobal,
        DataPlacement::SharedPtm,
        DataPlacement::SharedJm,
        DataPlacement::SharedJmPtm,
        DataPlacement::Custom(vec![MatrixId::Lm]),
    ]
}

fn bench_placements(c: &mut Criterion) {
    let prep = PreparedInstance::prepare(
        InstanceClass {
            jobs: 100,
            machines: 20,
        },
        2012,
        1024,
    );
    let chunk = Batch::from_nodes(prep.frozen.nodes.iter().take(1024).cloned().collect());
    let host_lb = prep.problem.bound_fn().clone();

    eprintln!("modelled kernel time for one 1024-node pool (100x20), per placement:");
    for placement in placements() {
        let mut engine = BoundingEngine::new(host_lb.data(), placement.clone(), 256, 26, 1024);
        let result = engine.bound_nodes_fast(chunk.view(), &host_lb, Time::MAX);
        eprintln!(
            "  {:>16}: kernel {:>10.3?}  occupancy {:>2} warps/SM  shared {:>6} B/block",
            placement.name(),
            result.kernel.duration,
            result.stats.occupancy.active_warps_per_sm,
            result.stats.shared_bytes_per_block,
        );
    }

    let mut group = c.benchmark_group("placement_ablation");
    group.sample_size(10);
    for placement in placements() {
        group.bench_with_input(
            BenchmarkId::new("bound_1024", placement.name()),
            &chunk,
            |b, chunk| {
                let mut engine =
                    BoundingEngine::new(host_lb.data(), placement.clone(), 256, 26, 1024);
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
    group.finish();
}

criterion_group!(benches, bench_placements);
criterion_main!(benches);
