//! The authentic Taillard instances: the generator reproduces the committed
//! instance file, and best-first search proves published optima.

use flowshop_gpu_bnb::bb::{FspProblem, SerialSolver};
use flowshop_gpu_bnb::fsp::io::parse_taillard;
use flowshop_gpu_bnb::fsp::makespan;
use flowshop_gpu_bnb::fsp::taillard::{Published, TA_20X5};
use flowshop_gpu_bnb::gpu_bnb::{BackendKind, GpuBnbSolver, GpuSolverConfig};

fn published(name: &str) -> Published {
    *TA_20X5
        .iter()
        .find(|ta| ta.name == name)
        .expect("a 20x5 instance of the table")
}

#[test]
fn generated_ta001_equals_the_committed_file() {
    let text = std::fs::read_to_string("instances/ta001.txt").expect("ta001 ships with the repo");
    let (parsed, header) = parse_taillard("instances/ta001.txt", &text).expect("parses");
    let ta001 = published("ta001");
    assert_eq!(header.time_seed, ta001.time_seed);
    let generated = ta001.instance();
    assert_eq!((generated.jobs(), generated.machines()), (20, 5));
    assert_eq!(generated.raw(), parsed.raw());
}

#[test]
fn forward_best_first_proves_published_optima() {
    // Forward best-first from NEH closes ta002 and ta007 in a few hundred
    // serial nodes.
    for name in ["ta002", "ta007"] {
        let ta = published(name);
        let inst = ta.instance();

        let serial = SerialSolver::with_defaults(FspProblem::new(inst.clone())).solve();
        assert!(serial.is_optimal(), "{name}: serial solve stopped early");
        assert_eq!(serial.best_makespan, ta.optimum, "{name}: serial");

        let config = GpuSolverConfig::builder()
            .backend(BackendKind::GpuPipelined)
            .fast_forward(true)
            .build()
            .expect("a valid configuration");
        let gpu = GpuBnbSolver::new(inst.clone(), config).solve();
        assert!(
            gpu.is_optimal(),
            "{name}: gpu-pipelined solve stopped early"
        );
        assert_eq!(gpu.best_makespan, ta.optimum, "{name}: gpu-pipelined");

        for schedule in [serial.best_schedule, gpu.best_schedule] {
            let schedule = schedule.expect("an optimal schedule");
            assert_eq!(makespan(&inst, &schedule), ta.optimum, "{name}");
        }
    }
}
