//! # Incremental solve cache — content-addressed certificates
//!
//! PR 10's tentpole: a [`SolveCache`] that memoizes finished solves as
//! **certificates** (incumbent schedule, makespan, proven lower bound, gap,
//! the full [`CostReport`], and optionally the frontier checkpoint the solve
//! ended with) keyed by *content*, not by name: an [`InstanceKey`] hashes the
//! processing-time matrix itself, a [`ConfigKey`] hashes exactly the
//! solve-relevant configuration knobs. Repeating a workload therefore hits
//! the cache even if the instance was re-generated, re-labelled or re-read
//! from disk — and changing an **observability-only** knob (today:
//! [`GpuSolverConfig::checkpoint_after`], which PR 9's fault suite proved
//! certificate-invisible) does *not* miss.
//!
//! Three access paths, all driven by `SolveService::request`
//! (see `docs/CACHING.md`):
//!
//! - **exact hit** — same [`InstanceKey`] and [`ConfigKey`]: the stored
//!   [`Certificate`] is returned bit-exactly, no solver runs;
//! - **warm start** — a *perturbed* instance misses, but a [`CacheDonor`]
//!   with the same shape and [`ReuseKey`] (the config identity minus the
//!   stopping limits) supplies its incumbent as a warm upper bound, and —
//!   when the donor carries a frontier checkpoint — the frontier to resume
//!   from after a bound-recheck pass;
//! - **miss** — a cold solve, whose certificate is stored for next time.
//!
//! The cache is a deterministic, insertion-ordered map with FIFO eviction:
//! every lookup, donor scan and eviction is a pure function of the insertion
//! sequence, so cached replays stay bit-reproducible and the deterministic
//! cost gate can cover cache behaviour (the `cache_hits` /
//! `cache_warm_starts` / `cache_invalidated_nodes` counters of
//! [`CostReport`]).
//!
//! Keys are process-internal (`std` [`DefaultHasher`]) and are never
//! persisted; the serialized artifacts (checkpoints, reports) carry no key
//! material.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use crate::config::GpuSolverConfig;
use crate::cost::CostReport;
use crate::fault::SolveCheckpoint;
use fsp::{Instance, Job, Time};

/// Content hash of a workload's *problem data*: jobs, machines and the
/// row-major processing-time matrix. Labels and provenance do not
/// participate — two instances with identical matrices collide on purpose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InstanceKey(u64);

impl InstanceKey {
    /// Hashes `inst`'s shape and processing times.
    pub fn of(inst: &Instance) -> Self {
        let mut h = DefaultHasher::new();
        inst.jobs().hash(&mut h);
        inst.machines().hash(&mut h);
        inst.raw().hash(&mut h);
        Self(h.finish())
    }
}

/// Which configuration fields participate in a key.
#[derive(Clone, Copy, PartialEq, Eq)]
enum KeyScope {
    /// Every solve-relevant knob, including the stopping limits
    /// (`node_limit`, `time_limit`) — exact-hit identity.
    Exact,
    /// Solve-relevant knobs *minus* the stopping limits — donor-matching
    /// identity for warm-start reuse.
    Reuse,
}

/// Hashes the **identity-bearing** configuration fields into `h`.
///
/// This is the normalization contract of the cache (satellite #3): a field
/// is hashed here iff changing it can change the certificate or any cost
/// counter of a fresh solve. `checkpoint_after` is deliberately absent — it
/// only adds a checkpoint artifact to the outcome; PR 9's
/// `tests/fault_equivalence.rs` proves the certificate (makespan, bound,
/// gap, summed cost) is identical with and without it. The regression test
/// `config_key_separates_identity_bearing_fields_only` enumerates both
/// lists and fails if a new `GpuSolverConfig` field is classified silently.
fn hash_config(config: &GpuSolverConfig, scope: KeyScope, h: &mut DefaultHasher) {
    config.pool_size.hash(h);
    config.block_threads.hash(h);
    config.registers_per_thread.hash(h);
    format!("{:?}", config.placement).hash(h);
    if scope == KeyScope::Exact {
        config.node_limit.hash(h);
        config.time_limit.hash(h);
    }
    config.use_initial_ub.hash(h);
    config.fast_forward.hash(h);
    config.backend.to_string().hash(h);
    config.multicore_threads.hash(h);
    config.pipeline_depth.hash(h);
    config.pipeline_chunk.hash(h);
    config.lookahead.hash(h);
    config.fail_seed.hash(h);
    config.fail_at.hash(h);
}

/// Exact-hit configuration identity: two configs with equal `ConfigKey`s
/// produce bit-identical certificates on the same instance (and differ at
/// most in observability-only knobs such as
/// [`GpuSolverConfig::checkpoint_after`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConfigKey(u64);

impl ConfigKey {
    /// Hashes the solve-relevant fields of `config`.
    pub fn of(config: &GpuSolverConfig) -> Self {
        let mut h = DefaultHasher::new();
        hash_config(config, KeyScope::Exact, &mut h);
        Self(h.finish())
    }
}

/// Donor-matching identity: [`ConfigKey`] minus the stopping limits
/// (`node_limit`, `time_limit`). A cached certificate is a sound warm-start
/// donor for any request whose `ReuseKey` matches — the incumbent is re-priced
/// on the perturbed instance, so limits of the *donor's* run are irrelevant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReuseKey(u64);

impl ReuseKey {
    /// Hashes the solve-relevant fields of `config`, excluding limits.
    pub fn of(config: &GpuSolverConfig) -> Self {
        let mut h = DefaultHasher::new();
        hash_config(config, KeyScope::Reuse, &mut h);
        Self(h.finish())
    }
}

/// A memoized solve result: everything `SolveService::request` needs to
/// answer an exact repeat without running the solver, plus the warm-start
/// material for perturbed neighbours.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// The incumbent schedule (`None` only if the solve never found one).
    pub best_schedule: Option<Vec<Job>>,
    /// The incumbent makespan ([`Time::MAX`] when no incumbent existed).
    pub best_makespan: Time,
    /// The proven lower bound on the optimum.
    pub lower_bound: Time,
    /// The relative optimality gap in `[0, 1]`; `0.0` iff proven optimal.
    pub gap: f64,
    /// The full deterministic cost bill of the solve that produced this
    /// certificate. Returned verbatim on an exact hit (the *request* is
    /// billed separately, as one `cache_hits` tick).
    pub cost: CostReport,
    /// The final frontier, when the producing job kept it
    /// (`JobSpec::keep_frontier`): the pending pool drained in pop order,
    /// reusable as a resume point after a bound-recheck pass. `None` for
    /// exhausted solves (empty frontier) or when not requested.
    pub frontier: Option<SolveCheckpoint>,
}

impl Certificate {
    /// `true` iff the certificate proves optimality (gap closed).
    pub fn is_optimal(&self) -> bool {
        self.gap == 0.0
    }
}

/// A warm-start donor picked by [`SolveCache::donor`]: the closest cached
/// certificate (minimal processing-time edit distance) whose shape and
/// [`ReuseKey`] match the request.
#[derive(Debug, Clone, Copy)]
pub struct CacheDonor<'a> {
    /// The donor's certificate (incumbent + optional frontier).
    pub certificate: &'a Certificate,
    /// Number of processing-time cells in which the donor's instance
    /// differs from the requested one (`0` when only the limits changed).
    pub edits: usize,
}

/// One stored solve: the content keys, the shape and matrix (kept for the
/// donor edit-distance scan) and the certificate.
#[derive(Debug, Clone)]
struct CacheEntry {
    instance_key: InstanceKey,
    config_key: ConfigKey,
    reuse_key: ReuseKey,
    jobs: usize,
    machines: usize,
    raw: Vec<Time>,
    certificate: Certificate,
}

/// Default capacity of [`SolveCache::default`].
pub const DEFAULT_CACHE_CAPACITY: usize = 64;

/// The content-addressed certificate store. Insertion-ordered with FIFO
/// eviction: deterministic by construction — lookups, donor scans and
/// evictions are pure functions of the insertion sequence.
#[derive(Debug, Clone)]
pub struct SolveCache {
    capacity: usize,
    entries: Vec<CacheEntry>,
}

impl Default for SolveCache {
    fn default() -> Self {
        Self::new(DEFAULT_CACHE_CAPACITY)
    }
}

impl SolveCache {
    /// An empty cache holding at most `capacity` certificates.
    ///
    /// # Panics
    ///
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity cache cannot store anything");
        Self {
            capacity,
            entries: Vec::new(),
        }
    }

    /// Number of stored certificates.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The eviction bound this cache was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Exact lookup: the certificate stored under `(instance, config)`,
    /// if any.
    pub fn get(&self, instance: InstanceKey, config: ConfigKey) -> Option<&Certificate> {
        self.entries
            .iter()
            .find(|e| e.instance_key == instance && e.config_key == config)
            .map(|e| &e.certificate)
    }

    /// Stores `certificate` under the content keys of `(inst, config)`.
    ///
    /// An existing entry with the same keys is replaced **in place** (its
    /// insertion slot — and thus its eviction age and donor-scan position —
    /// is preserved). When the cache is full, the oldest entry is evicted
    /// first (FIFO).
    pub fn insert(&mut self, inst: &Instance, config: &GpuSolverConfig, certificate: Certificate) {
        let entry = CacheEntry {
            instance_key: InstanceKey::of(inst),
            config_key: ConfigKey::of(config),
            reuse_key: ReuseKey::of(config),
            jobs: inst.jobs(),
            machines: inst.machines(),
            raw: inst.raw().to_vec(),
            certificate,
        };
        if let Some(existing) = self
            .entries
            .iter_mut()
            .find(|e| e.instance_key == entry.instance_key && e.config_key == entry.config_key)
        {
            *existing = entry;
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.remove(0);
        }
        self.entries.push(entry);
    }

    /// Removes and returns the certificate stored under `(instance,
    /// config)`. The next [`SolveCache::get`] with these keys misses.
    pub fn evict(&mut self, instance: InstanceKey, config: ConfigKey) -> Option<Certificate> {
        let at = self
            .entries
            .iter()
            .position(|e| e.instance_key == instance && e.config_key == config)?;
        Some(self.entries.remove(at).certificate)
    }

    /// The best warm-start donor for `(inst, config)`: among entries with
    /// the same shape and the same [`ReuseKey`] — excluding an exact
    /// `(InstanceKey, ConfigKey)` match, which [`SolveCache::get`] already
    /// answers — the one whose processing-time matrix differs from `inst`
    /// in the fewest cells. Ties break toward the earliest-inserted entry,
    /// keeping the scan deterministic.
    pub fn donor(&self, inst: &Instance, config: &GpuSolverConfig) -> Option<CacheDonor<'_>> {
        let instance_key = InstanceKey::of(inst);
        let config_key = ConfigKey::of(config);
        let reuse_key = ReuseKey::of(config);
        let mut best: Option<CacheDonor<'_>> = None;
        for entry in &self.entries {
            if entry.reuse_key != reuse_key
                || entry.jobs != inst.jobs()
                || entry.machines != inst.machines()
                || (entry.instance_key == instance_key && entry.config_key == config_key)
            {
                continue;
            }
            let edits = entry
                .raw
                .iter()
                .zip(inst.raw())
                .filter(|(a, b)| a != b)
                .count();
            if best.is_none_or(|b| edits < b.edits) {
                best = Some(CacheDonor {
                    certificate: &entry.certificate,
                    edits,
                });
            }
        }
        best
    }
}

/// SplitMix64 — the repo's standard seedable generator (matches
/// `fsp::taillard`'s style: tiny, deterministic, dependency-free).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministically perturbs `inst`: applies `edits` seeded single-cell
/// processing-time edits (`±1` or `±2`, clamped to stay ≥ 1 — `Instance`
/// rejects zero-length operations). Same `(inst, seed, edits)` always
/// yields the same perturbed instance; this is the generator behind
/// `solve_taillard --perturb SEED:EDITS` and the cache-equivalence suites.
pub fn perturbed(inst: &Instance, seed: u64, edits: usize) -> Instance {
    let mut pt = inst.raw().to_vec();
    let mut state = seed;
    for _ in 0..edits {
        let cell = (splitmix64(&mut state) % pt.len() as u64) as usize;
        let magnitude = 1 + (splitmix64(&mut state) % 2) as Time;
        let up = splitmix64(&mut state).is_multiple_of(2);
        pt[cell] = if up {
            pt[cell].saturating_add(magnitude)
        } else {
            pt[cell].saturating_sub(magnitude).max(1)
        };
    }
    Instance::new(
        format!("{}+p{seed}:{edits}", inst.name()),
        inst.jobs(),
        inst.machines(),
        pt,
    )
}

// Compile and run the `docs/CACHING.md` examples as doc-tests, so the
// worked examples in the caching guide can never drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../../../docs/CACHING.md")]
pub struct CachingGuideDocTests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BackendKind, FleetTopology};
    use fsp::taillard;

    fn inst(seed: i64) -> Instance {
        taillard::generate(format!("cache-{seed}"), 6, 4, seed)
    }

    fn certificate(makespan: Time) -> Certificate {
        Certificate {
            best_schedule: Some(vec![0, 1, 2, 3, 4, 5]),
            best_makespan: makespan,
            lower_bound: makespan,
            gap: 0.0,
            cost: CostReport::default(),
            frontier: None,
        }
    }

    /// Satellite #3 regression: the `ConfigKey` normalization contract.
    /// Every identity-bearing field must move the key; every
    /// observability-only field must not; the limits must move `ConfigKey`
    /// but not `ReuseKey`. Enumerating all fields here means a future
    /// `GpuSolverConfig` field cannot be classified silently — adding one
    /// without touching `hash_config` or this list fails review, not prod.
    #[test]
    fn config_key_separates_identity_bearing_fields_only() {
        let base = GpuSolverConfig::default();
        let key = ConfigKey::of(&base);
        let reuse = ReuseKey::of(&base);

        // Observability-only: checkpointing is certificate-invisible
        // (proven by tests/fault_equivalence.rs), so it must not miss.
        let observed = GpuSolverConfig {
            checkpoint_after: Some(3),
            ..base.clone()
        };
        assert_eq!(ConfigKey::of(&observed), key);
        assert_eq!(ReuseKey::of(&observed), reuse);

        // Stopping limits: exact-hit identity, but not donor identity.
        for limited in [
            GpuSolverConfig {
                node_limit: Some(100),
                ..base.clone()
            },
            GpuSolverConfig {
                time_limit: Some(std::time::Duration::from_secs(1)),
                ..base.clone()
            },
        ] {
            assert_ne!(ConfigKey::of(&limited), key, "limits are exact identity");
            assert_eq!(
                ReuseKey::of(&limited),
                reuse,
                "limits are not reuse identity"
            );
        }

        // Every remaining field is identity-bearing for *both* keys.
        let variants = [
            GpuSolverConfig {
                pool_size: base.pool_size + 1,
                ..base.clone()
            },
            GpuSolverConfig {
                block_threads: 128,
                ..base.clone()
            },
            GpuSolverConfig {
                registers_per_thread: 32,
                ..base.clone()
            },
            GpuSolverConfig {
                placement: crate::placement::DataPlacement::AllGlobal,
                ..base.clone()
            },
            GpuSolverConfig {
                use_initial_ub: !base.use_initial_ub,
                ..base.clone()
            },
            GpuSolverConfig {
                fast_forward: !base.fast_forward,
                ..base.clone()
            },
            GpuSolverConfig {
                backend: BackendKind::Fleet(FleetTopology::uniform(2)),
                ..base.clone()
            },
            GpuSolverConfig {
                multicore_threads: base.multicore_threads + 1,
                ..base.clone()
            },
            GpuSolverConfig {
                pipeline_depth: base.pipeline_depth + 1,
                ..base.clone()
            },
            GpuSolverConfig {
                pipeline_chunk: Some(64),
                ..base.clone()
            },
            GpuSolverConfig {
                lookahead: !base.lookahead,
                ..base.clone()
            },
            GpuSolverConfig {
                fail_seed: Some(7),
                ..base.clone()
            },
            GpuSolverConfig {
                fail_at: vec![(2, 0)],
                ..base.clone()
            },
        ];
        for (i, variant) in variants.iter().enumerate() {
            assert_ne!(
                ConfigKey::of(variant),
                key,
                "identity-bearing variant #{i} did not move ConfigKey"
            );
            assert_ne!(
                ReuseKey::of(variant),
                reuse,
                "identity-bearing variant #{i} did not move ReuseKey"
            );
        }
    }

    #[test]
    fn instance_key_is_content_addressed() {
        let a = inst(1);
        // Same matrix, different label: same key on purpose.
        let relabeled = Instance::new("other-name", a.jobs(), a.machines(), a.raw().to_vec());
        assert_eq!(InstanceKey::of(&a), InstanceKey::of(&relabeled));
        assert_ne!(InstanceKey::of(&a), InstanceKey::of(&inst(2)));
        assert_ne!(InstanceKey::of(&a), InstanceKey::of(&perturbed(&a, 9, 1)));
    }

    #[test]
    fn insert_get_evict_round_trip() {
        let a = inst(1);
        let config = GpuSolverConfig::default();
        let mut cache = SolveCache::new(4);
        assert!(cache.is_empty());

        cache.insert(&a, &config, certificate(123));
        let (ik, ck) = (InstanceKey::of(&a), ConfigKey::of(&config));
        assert_eq!(cache.get(ik, ck), Some(&certificate(123)));

        // Replacement keeps one entry.
        cache.insert(&a, &config, certificate(120));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(ik, ck), Some(&certificate(120)));

        // Evict → miss.
        assert_eq!(cache.evict(ik, ck), Some(certificate(120)));
        assert_eq!(cache.get(ik, ck), None);
        assert!(cache.is_empty());
    }

    #[test]
    fn fifo_eviction_drops_the_oldest_entry() {
        let config = GpuSolverConfig::default();
        let mut cache = SolveCache::new(2);
        let (a, b, c) = (inst(1), inst(2), inst(3));
        cache.insert(&a, &config, certificate(1));
        cache.insert(&b, &config, certificate(2));
        cache.insert(&c, &config, certificate(3));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(InstanceKey::of(&a), ConfigKey::of(&config)), None);
        assert!(cache
            .get(InstanceKey::of(&b), ConfigKey::of(&config))
            .is_some());
        assert!(cache
            .get(InstanceKey::of(&c), ConfigKey::of(&config))
            .is_some());
    }

    #[test]
    fn donor_scan_prefers_the_minimal_edit_distance() {
        let base = inst(1);
        let near = perturbed(&base, 7, 1);
        let far = perturbed(&base, 11, 5);
        let config = GpuSolverConfig::default();
        let mut cache = SolveCache::new(8);
        cache.insert(&far, &config, certificate(200));
        cache.insert(&base, &config, certificate(100));

        // Query a perturbation of `base`: both entries share the ReuseKey
        // and shape; `base` is closest.
        let query = perturbed(&base, 7, 1);
        assert_eq!(near.raw(), query.raw(), "perturbation is deterministic");
        let donor = cache.donor(&query, &config).expect("a donor exists");
        assert_eq!(donor.certificate.best_makespan, 100);
        assert!(donor.edits == 1, "one cell edited");

        // An exact `(InstanceKey, ConfigKey)` match is not a donor…
        let donor = cache.donor(&base, &config).expect("the far entry remains");
        assert_eq!(donor.certificate.best_makespan, 200);
        // …but the same instance under different *limits* is (edits == 0).
        let limited = GpuSolverConfig {
            node_limit: Some(1_000_000),
            ..config.clone()
        };
        let donor = cache
            .donor(&base, &limited)
            .expect("limits share a ReuseKey");
        assert_eq!(donor.edits, 0);
        assert_eq!(donor.certificate.best_makespan, 100);

        // A different backend never donates: the ReuseKey differs.
        let other_backend = GpuSolverConfig {
            backend: BackendKind::Multicore,
            ..config
        };
        assert!(cache.donor(&query, &other_backend).is_none());
    }

    #[test]
    fn perturbation_is_deterministic_and_keeps_times_positive() {
        let base = inst(4);
        let a = perturbed(&base, 42, 6);
        let b = perturbed(&base, 42, 6);
        assert_eq!(a.raw(), b.raw());
        assert_eq!((a.jobs(), a.machines()), (base.jobs(), base.machines()));
        assert!(a.raw().iter().all(|&p| p >= 1));
        assert_ne!(perturbed(&base, 1, 3).raw(), perturbed(&base, 2, 3).raw());
    }
}
