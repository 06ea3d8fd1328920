//! The three workloads: what they solve and how their inputs derive from
//! the workload seed.
//!
//! The program under test only ever receives the generated instances.

use bb::FspProblem;
use fsp::{taillard, Instance};
use gpu_bnb::{perturbed, BackendKind, FleetTopology, GpuSolverConfig, DEFAULT_CACHE_CAPACITY};
use std::collections::{HashMap, VecDeque};

/// SplitMix64: a tiny, seedable, dependency-free generator.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator started from `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Many-machine instances solved to optimality: the host bound dominates.
    ExactWide,
    /// Few-machine instances solved to optimality: selection, branching,
    /// elimination and per-batch plumbing carry a large share.
    ExactNarrow,
    /// A closed-loop client of `SolveService::request` mixing misses, exact
    /// repeats and warm starts on the functional kernel.
    ServiceStream,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::ExactWide,
        Workload::ExactNarrow,
        Workload::ServiceStream,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ExactWide => "exact-wide",
            Workload::ExactNarrow => "exact-narrow",
            Workload::ServiceStream => "service-stream",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Mixed into the workload seed so workloads never share instances.
    fn salt(self) -> u64 {
        match self {
            Workload::ExactWide => 0x5749_4445,
            Workload::ExactNarrow => 0x4E41_5252,
            Workload::ServiceStream => 0x5354_524D,
        }
    }
}

/// Shape and size of an exact workload.
#[derive(Debug, Clone, Copy)]
pub struct ExactSpec {
    /// Jobs per instance.
    pub jobs: usize,
    /// Machines per instance.
    pub machines: usize,
    /// The solver's pool size (nodes per bounding batch).
    pub pool_size: usize,
    /// Distinct instances, each solved once per pass.
    pub requests: usize,
}

/// `exact-wide`: the paper's 20 machines. Few enough jobs that every seed
/// closes in tens of milliseconds, so a run holds enough requests for its
/// medians and sums to be steady across seeds.
pub const EXACT_WIDE: ExactSpec = ExactSpec {
    jobs: 8,
    machines: 20,
    pool_size: 256,
    requests: 1000,
};

/// `exact-narrow`: 5 machines. Larger few-machine classes (e.g. 16×5,
/// 20×5) are bimodal — some seeds do not close in minutes — so the job
/// count stays where every instance closes.
pub const EXACT_NARROW: ExactSpec = ExactSpec {
    jobs: 9,
    machines: 5,
    pool_size: 64,
    requests: 8000,
};

/// The strict-loop configuration both exact workloads solve under:
/// pipelined GPU backend, fast-forward bounding, lookahead off.
pub fn exact_config(spec: &ExactSpec) -> GpuSolverConfig {
    GpuSolverConfig::builder()
        .backend(BackendKind::GpuPipelined)
        .pool_size(spec.pool_size)
        .fast_forward(true)
        .lookahead(false)
        .build()
        .expect("the exact workload configuration is valid")
}

/// Draws seeded Taillard-like instances of one shape. An instance whose
/// NEH makespan already equals its root lower bound closes with almost no
/// search, so it is skipped and counted in `skipped`.
pub struct InstanceStream {
    rng: SplitMix64,
    label: String,
    jobs: usize,
    machines: usize,
    drawn: usize,
    /// Draws skipped because NEH met the root bound.
    pub skipped: usize,
}

impl InstanceStream {
    /// The stream of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64, jobs: usize, machines: usize) -> Self {
        Self {
            rng: SplitMix64::new(seed ^ workload.salt().rotate_left(32)),
            label: format!("{}-s{seed}", workload.name()),
            jobs,
            machines,
            drawn: 0,
            skipped: 0,
        }
    }

    /// The next instance that needs a real search.
    pub fn next_instance(&mut self) -> Instance {
        loop {
            // Taillard's generator takes seeds in 1..2^31-1.
            let time_seed = 1 + (self.rng.next_u64() % 2_147_483_646) as i64;
            let name = format!("{}-{}", self.label, self.drawn);
            self.drawn += 1;
            let inst = taillard::generate(name, self.jobs, self.machines, time_seed);
            if !closes_at_root(&inst) {
                return inst;
            }
            self.skipped += 1;
        }
    }
}

/// `true` when the NEH incumbent already meets the root lower bound.
fn closes_at_root(inst: &Instance) -> bool {
    let problem = FspProblem::new(inst.clone());
    let mut root = problem.root();
    let lower = problem.bound(&mut root);
    let (_, upper) = problem.initial_upper_bound();
    upper == lower
}

/// Shape and size of the service stream.
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    /// Jobs per instance.
    pub jobs: usize,
    /// Machines per instance.
    pub machines: usize,
    /// Pool size of configuration family 0; family `f` uses `pool_base + f`.
    pub pool_base: usize,
    /// Requests per pass.
    pub requests: usize,
}

/// `service-stream`: small instances, because every miss and warm start
/// runs the functional SIMT kernel thread by thread.
pub const SERVICE_STREAM: StreamSpec = StreamSpec {
    jobs: 8,
    machines: 8,
    pool_base: 192,
    requests: 2000,
};

/// The service configuration of family `family`: a two-member
/// heterogeneous stealing fleet with lookahead, functional kernel.
pub fn stream_config(spec: &StreamSpec, family: usize) -> GpuSolverConfig {
    GpuSolverConfig::builder()
        .backend(BackendKind::Fleet(
            FleetTopology::uniform(2).mixed().stealing(),
        ))
        .pool_size(spec.pool_base + family)
        .lookahead(true)
        .fast_forward(false)
        .build()
        .expect("the service workload configuration is valid")
}

/// How the cache must answer a planned request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Nothing usable cached: a cold solve.
    Miss,
    /// An exact repeat of request `first`, whose certificate it returns.
    Hit {
        /// Index of the request that stored the certificate.
        first: usize,
    },
    /// A single-cell neighbour of a cached instance of the same family.
    Warm,
}

/// One planned service request.
#[derive(Debug, Clone, Copy)]
pub struct StreamRequest {
    /// Index into [`StreamPlan::instances`].
    pub instance: usize,
    /// Configuration family (index into [`StreamPlan::configs`]).
    pub family: usize,
    /// The disposition the cache must report.
    pub expect: Expect,
}

/// The service stream of one seed.
pub struct StreamPlan {
    /// Every distinct instance requested.
    pub instances: Vec<Instance>,
    /// One configuration per family.
    pub configs: Vec<GpuSolverConfig>,
    /// The request sequence of one pass.
    pub requests: Vec<StreamRequest>,
    /// Instance draws skipped because NEH met the root bound.
    pub skipped: usize,
}

/// Plans one pass of the service stream.
///
/// Requests come in blocks of four: a fresh instance, then a shuffled
/// fresh instance, warm start and exact repeat — so exactly a quarter are
/// hits. The service warm-starts any request that has a same-shape donor
/// of the same configuration identity in its cache, so each fresh instance
/// is given a configuration family (its pool size) that has nothing
/// cached; that makes it a true miss. A warm start is a single-cell
/// `perturbed` neighbour of a recent fresh instance, in that instance's
/// family. A repeat re-requests a recent stored certificate. The planner
/// replays the cache's FIFO eviction, so every expected disposition is
/// exact.
pub fn stream_plan(seed: u64, spec: &StreamSpec) -> StreamPlan {
    let mut draws = InstanceStream::new(Workload::ServiceStream, seed, spec.jobs, spec.machines);
    let mut rng = SplitMix64::new(seed ^ 0x504C_414E);
    let mut instances: Vec<Instance> = Vec::new();
    let mut requests: Vec<StreamRequest> = Vec::with_capacity(spec.requests);
    let mut configs: Vec<GpuSolverConfig> = Vec::new();
    // The service cache: (instance, family) keys in insertion order.
    let mut cache: VecDeque<(usize, usize)> = VecDeque::new();
    let mut stored_by: HashMap<(usize, usize), usize> = HashMap::new();
    let mut fresh: Vec<(usize, usize)> = Vec::new();

    while requests.len() < spec.requests {
        let mut block = [1u8, 2, 3];
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i + 1));
        }
        for kind in std::iter::once(1u8).chain(block) {
            if requests.len() == spec.requests {
                break;
            }
            let index = requests.len();
            let (instance, family, expect) = match kind {
                1 => {
                    let family = (0..)
                        .find(|f| cache.iter().all(|&(_, g)| g != *f))
                        .expect("some family has nothing cached");
                    while configs.len() <= family {
                        configs.push(stream_config(spec, configs.len()));
                    }
                    instances.push(draws.next_instance());
                    fresh.push((instances.len() - 1, family));
                    (instances.len() - 1, family, Expect::Miss)
                }
                2 => {
                    let recent = fresh.len().min(8);
                    let (base, family) = fresh[fresh.len() - 1 - rng.below(recent)];
                    assert!(
                        cache.iter().any(|&(_, g)| g == family),
                        "a warm start needs a cached donor"
                    );
                    let neighbour = loop {
                        let candidate = perturbed(&instances[base], rng.next_u64(), 1);
                        let known = cache
                            .iter()
                            .any(|&(i, g)| g == family && instances[i].raw() == candidate.raw());
                        if !known {
                            break candidate;
                        }
                    };
                    instances.push(neighbour);
                    (instances.len() - 1, family, Expect::Warm)
                }
                _ => {
                    let recent = cache.len().min(32);
                    let key = cache[cache.len() - 1 - rng.below(recent)];
                    (
                        key.0,
                        key.1,
                        Expect::Hit {
                            first: stored_by[&key],
                        },
                    )
                }
            };
            if !matches!(expect, Expect::Hit { .. }) {
                if cache.len() == DEFAULT_CACHE_CAPACITY {
                    if let Some(old) = cache.pop_front() {
                        stored_by.remove(&old);
                    }
                }
                cache.push_back((instance, family));
                stored_by.insert((instance, family), index);
            }
            requests.push(StreamRequest {
                instance,
                family,
                expect,
            });
        }
    }
    StreamPlan {
        instances,
        configs,
        requests,
        skipped: draws.skipped,
    }
}
