//! Deterministic fault injection and solve checkpointing.
//!
//! The source paper targets a *cluster* of GPU-accelerated hosts, where a
//! member disappearing mid-solve is the normal case, not the exception.
//! This module supplies the two substrates that story needs:
//!
//! **Failure plans** ([`FailurePlan`]): a schedule of member-death events
//! keyed by the fleet's batch ordinal — either spelled out explicitly
//! ([`GpuSolverConfig::fail_at`]) or derived as a pure function of a seed
//! ([`FailurePlan::seeded`], [`GpuSolverConfig::fail_seed`]) so every run
//! is reproducible. The [`crate::fleet::FleetBackend`] fires the events at
//! batch boundaries: a dead member is retired from the roster, and every
//! shard the failure-free plan would have delivered to it is re-dealt over
//! the survivors by [`redeal_plan`] — the same
//! [`plan_shards_weighted`]/[`steal_pass`] machinery that cut the original
//! deal. Because a node's bound depends only on the node, *who* bounds a
//! shard cannot change a single bit of the search: the visited node set,
//! the incumbent trajectory and all non-recovery cost counters stay exactly
//! equal to the failure-free run, while the recovery itself is observable
//! through three dedicated [`CostReport`] counters (`fleet_failures`,
//! `fleet_redealt_nodes`, `fleet_recovery_nanos`) under the same
//! exact-equality cost gate as everything else.
//!
//! **Checkpoints** ([`SolveCheckpoint`]): the solver's complete resumable
//! state at a batch boundary — pool frontier (in deterministic drain
//! order), incumbent, proven bound and accumulated [`CostReport`] — with a
//! hand-rolled JSON round-trip ([`SolveCheckpoint::to_json`] /
//! [`SolveCheckpoint::from_json`], schema [`CHECKPOINT_SCHEMA_VERSION`]).
//! Re-pushing the frontier in drain order reproduces the pool's exact pop
//! order (best-first on bound, ties deeper-first then insertion order), so
//! a resumed solve ([`crate::solver::GpuBnbSolver::resume`],
//! [`crate::service::JobSpec::resume_from`]) continues the identical
//! exploration and ends with the same certificate — makespan, proven bound
//! and summed cost — as an uninterrupted run.

use crate::config::GpuSolverConfig;
use crate::cost::{CostReport, COST_COUNTERS};
use crate::fleet::{plan_shards_weighted, steal_pass, FleetShard, MemberModel};
use bb::problem::NodeBound;
use bb::{FspNode, FspProblem};
use fsp::{Job, JohnsonLowerBound, Time};

/// Schema tag of the checkpoint JSON document.
pub const CHECKPOINT_SCHEMA_VERSION: &str = "flowshop-bnb-checkpoint/v1";

/// One scheduled member death: `member` dies at the start of fleet batch
/// `batch` (0-based ordinal of non-empty `bound_batch` calls).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureEvent {
    /// Fleet batch ordinal at whose start the member dies.
    pub batch: u64,
    /// Ordinal of the member that dies.
    pub member: usize,
}

/// A deterministic schedule of fleet member deaths: a pure function of its
/// inputs (explicit events or a seed), so runs with the same plan are
/// bit-for-bit reproducible. Events are kept sorted by `(batch, member)`
/// with at most one death per member (the earliest wins).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailurePlan {
    events: Vec<FailureEvent>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Batch ordinals the seeded plan draws deaths from: failures land early in
/// the solve (ordinals `0..16`), where the pool is still shallow and a
/// recovery bug would bite hardest.
const SEEDED_BATCH_RANGE: u64 = 16;

impl FailurePlan {
    /// Builds a plan from explicit events. Duplicate deaths of the same
    /// member collapse to the earliest one; the result is sorted by
    /// `(batch, member)`.
    pub fn from_events(events: Vec<FailureEvent>) -> Self {
        let mut sorted = events;
        sorted.sort_unstable_by_key(|e| (e.batch, e.member));
        let mut dedup: Vec<FailureEvent> = Vec::with_capacity(sorted.len());
        for event in sorted {
            if !dedup.iter().any(|e| e.member == event.member) {
                dedup.push(event);
            }
        }
        Self { events: dedup }
    }

    /// Derives a plan purely from `seed` for a fleet of `members`: kills
    /// `members / 2` distinct members (so at least one always survives; a
    /// one-member fleet gets an empty plan) at seed-chosen batch ordinals in
    /// `0..16`. The same `(seed, members)` pair always yields the same plan.
    ///
    /// # Panics
    ///
    /// Panics if `members` is zero.
    pub fn seeded(seed: u64, members: usize) -> Self {
        assert!(members > 0, "a failure plan needs a non-empty fleet");
        let deaths = members / 2;
        // Fold in a constant so seed 0 still walks a non-trivial sequence.
        let mut state = seed ^ 0x5EED_FA17_D1ED_0DD5;
        let mut dead = vec![false; members];
        let mut events = Vec::with_capacity(deaths);
        while events.len() < deaths {
            let member = (splitmix64(&mut state) % members as u64) as usize;
            if dead[member] {
                continue;
            }
            dead[member] = true;
            let batch = splitmix64(&mut state) % SEEDED_BATCH_RANGE;
            events.push(FailureEvent { batch, member });
        }
        Self::from_events(events)
    }

    /// The plan a fleet of `members` derives from its configuration:
    /// explicit [`GpuSolverConfig::fail_at`] events take precedence over
    /// [`GpuSolverConfig::fail_seed`]; with neither set the plan is empty.
    ///
    /// # Panics
    ///
    /// Panics if an explicit event names a member ordinal `>= members`, or
    /// if the plan would leave no member alive.
    pub fn from_config(config: &GpuSolverConfig, members: usize) -> Self {
        let plan = if !config.fail_at.is_empty() {
            Self::from_events(
                config
                    .fail_at
                    .iter()
                    .map(|&(batch, member)| FailureEvent { batch, member })
                    .collect(),
            )
        } else if let Some(seed) = config.fail_seed {
            Self::seeded(seed, members)
        } else {
            Self::default()
        };
        plan.assert_fits(members);
        plan
    }

    /// Validates the plan against a fleet of `members`.
    ///
    /// # Panics
    ///
    /// Panics if an event names a member ordinal `>= members`, or if the
    /// plan kills every member (recovery needs at least one survivor).
    pub fn assert_fits(&self, members: usize) {
        for event in &self.events {
            assert!(
                event.member < members,
                "failure plan kills member {} of a {members}-member fleet",
                event.member
            );
        }
        assert!(
            self.events.len() < members || self.events.is_empty(),
            "failure plan must leave at least one fleet member alive"
        );
    }

    /// The scheduled deaths, sorted by `(batch, member)`, one per member.
    pub fn events(&self) -> &[FailureEvent] {
        &self.events
    }

    /// `true` when the plan schedules no deaths.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Re-deals `dead_nodes` nodes (the combined shard a dead member would have
/// received) over the surviving members: the survivors' launch-quantized
/// models drive the same weighted deal as the original plan
/// ([`plan_shards_weighted`] at the batch's chunk granularity, rebalanced by
/// [`steal_pass`] when `stealing`), and the resulting shards are remapped
/// from survivor positions back to fleet ordinals. The result partitions
/// `0..dead_nodes` (indices into the dead member's shard, in input order),
/// assigns work only to `survivors`, and is a pure function of its inputs.
///
/// `survivors` lists the alive fleet ordinals in ascending order; `models`
/// is indexed by fleet ordinal (dead members' entries are ignored).
///
/// # Panics
///
/// Panics if `survivors` is empty, names an ordinal outside `models`, or a
/// survivor's model weight is non-finite or non-positive.
pub fn redeal_plan(
    dead_nodes: usize,
    survivors: &[usize],
    models: &[MemberModel],
    chunk: usize,
    stealing: bool,
) -> Vec<FleetShard> {
    assert!(
        !survivors.is_empty(),
        "recovery needs at least one surviving member"
    );
    let survivor_models: Vec<MemberModel> = survivors.iter().map(|&o| models[o]).collect();
    let weights: Vec<f64> = survivor_models.iter().map(|m| m.weight).collect();
    let mut shards = plan_shards_weighted(dead_nodes, &weights, chunk);
    if stealing {
        steal_pass(&mut shards, &survivor_models);
    }
    // Remap survivor positions back to fleet ordinals (ascending, so the
    // shard order stays ordinal order).
    for shard in &mut shards {
        shard.device = survivors[shard.device];
    }
    shards
}

/// Modelled critical path of a recovery plan: the slowest survivor's
/// completion time over its re-dealt shard (`models` indexed by fleet
/// ordinal). This is what [`crate::fleet::FleetBackend`] charges to the
/// `fleet_recovery_nanos` counter.
pub fn recovery_critical_seconds(shards: &[FleetShard], models: &[MemberModel]) -> f64 {
    shards
        .iter()
        .map(|s| models[s.device].completion_seconds(s.nodes()))
        .fold(0.0, f64::max)
}

/// A solve frozen at a batch boundary: everything
/// [`crate::solver::GpuBnbSolver::resume`] needs to continue the identical
/// exploration and end with the same certificate (makespan, proven bound,
/// summed [`CostReport`]) as the uninterrupted run.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveCheckpoint {
    /// Jobs of the instance the checkpoint belongs to (shape check only —
    /// the instance itself is not serialized).
    pub jobs: usize,
    /// Machines of the instance the checkpoint belongs to.
    pub machines: usize,
    /// Incumbent makespan at the boundary ([`Time::MAX`] when none).
    pub upper_bound: Time,
    /// Schedule achieving the incumbent, when one was reached or supplied.
    pub best_schedule: Option<Vec<Job>>,
    /// Proven lower bound at the boundary: the pool's best pending bound
    /// clamped to the incumbent (the incumbent itself when the pool ran
    /// dry).
    pub proven_bound: Time,
    /// Cost counters accumulated up to the boundary; a resumed solve
    /// absorbs these so the summed report equals the uninterrupted run's.
    pub cost: CostReport,
    /// The pending pool, drained in pop order as `(prefix, bound)` pairs.
    /// Re-pushing in this order reproduces the exact pop order (best-first
    /// on bound, ties deeper-first then insertion order).
    pub frontier: Vec<(Vec<Job>, Time)>,
}

impl SolveCheckpoint {
    /// Rebuilds the frontier as solver nodes of `problem`, after checking
    /// that the checkpoint could have been written by a solve of it.
    ///
    /// Rejects, with a reason: a shape other than the instance's; a prefix
    /// or a `best_schedule` that is not made of distinct jobs of the
    /// instance; a `best_schedule` whose makespan is not `upper_bound`; and
    /// a frontier bound other than the node's exact bound. Without a
    /// schedule, `upper_bound` is taken as given. The check re-bounds the
    /// frontier on the host and books no cost counter.
    pub fn to_nodes(
        &self,
        problem: &FspProblem<JohnsonLowerBound>,
    ) -> Result<Vec<FspNode>, String> {
        let inst = problem.instance();
        if (self.jobs, self.machines) != (inst.jobs(), inst.machines()) {
            return Err(format!(
                "checkpoint shape {}x{} does not match the instance's {}x{}",
                self.jobs,
                self.machines,
                inst.jobs(),
                inst.machines()
            ));
        }
        if let Some(schedule) = &self.best_schedule {
            check_permutation(schedule, self.jobs)?;
            let makespan = fsp::makespan(inst, schedule);
            if makespan != self.upper_bound {
                return Err(format!(
                    "best_schedule has makespan {makespan}, not the upper_bound {}",
                    self.upper_bound
                ));
            }
        }
        let mut nodes = Vec::with_capacity(self.frontier.len());
        for (i, (prefix, _)) in self.frontier.iter().enumerate() {
            check_distinct_jobs(prefix, self.jobs)
                .map_err(|e| format!("frontier entry {i}: prefix {e}"))?;
            nodes.push(FspNode::from_prefix(inst, prefix));
        }
        let mut exact = vec![0; nodes.len()];
        problem.bound_fn().bound_nodes(&nodes, &mut exact);
        for (i, ((node, &exact), (_, stored))) in
            nodes.iter_mut().zip(&exact).zip(&self.frontier).enumerate()
        {
            if *stored != exact {
                return Err(format!(
                    "frontier entry {i}: stored bound {stored} is not the node's bound {exact}"
                ));
            }
            node.set_bound(exact);
        }
        Ok(nodes)
    }

    /// Serializes the checkpoint as a standalone JSON document (schema
    /// [`CHECKPOINT_SCHEMA_VERSION`]); [`SolveCheckpoint::from_json`] is its
    /// exact inverse.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"schema_version\": \"{CHECKPOINT_SCHEMA_VERSION}\",\n"
        ));
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str(&format!("  \"machines\": {},\n", self.machines));
        out.push_str(&format!("  \"upper_bound\": {},\n", self.upper_bound));
        match &self.best_schedule {
            Some(schedule) => {
                out.push_str(&format!("  \"best_schedule\": {},\n", jobs_json(schedule)));
            }
            None => out.push_str("  \"best_schedule\": null,\n"),
        }
        out.push_str(&format!("  \"proven_bound\": {},\n", self.proven_bound));
        out.push_str(&format!("  \"cost\": {},\n", self.cost.to_json("  ")));
        out.push_str("  \"frontier\": [");
        for (i, (prefix, bound)) in self.frontier.iter().enumerate() {
            let sep = if i + 1 < self.frontier.len() { "," } else { "" };
            out.push_str(&format!(
                "\n    {{\"prefix\": {}, \"bound\": {bound}}}{sep}",
                jobs_json(prefix)
            ));
        }
        if !self.frontier.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parses a document emitted by [`SolveCheckpoint::to_json`]. Rejects
    /// unknown schema versions, unknown or missing fields, malformed cost
    /// counters, a frontier prefix that is longer than `jobs`, repeats a job
    /// or names a job outside `0..jobs`, and a `best_schedule` that is not a
    /// permutation of `0..jobs` — with a human-readable reason, so
    /// [`crate::solver::GpuBnbSolver::resume`] never sees a node it cannot
    /// build.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text)?;
        let obj = doc.as_object("checkpoint")?;
        let schema = get(obj, "schema_version")?.as_string("schema_version")?;
        if schema != CHECKPOINT_SCHEMA_VERSION {
            return Err(format!(
                "unsupported checkpoint schema {schema:?} (expected {CHECKPOINT_SCHEMA_VERSION:?})"
            ));
        }
        let jobs = get(obj, "jobs")?.as_usize("jobs")?;
        let machines = get(obj, "machines")?.as_usize("machines")?;
        let upper_bound = get(obj, "upper_bound")?.as_time("upper_bound")?;
        let best_schedule = match get(obj, "best_schedule")? {
            Json::Null => None,
            value => Some(jobs_from_json(value, "best_schedule")?),
        };
        if let Some(schedule) = &best_schedule {
            check_permutation(schedule, jobs)?;
        }
        let proven_bound = get(obj, "proven_bound")?.as_time("proven_bound")?;
        let cost_entries = get(obj, "cost")?.as_object("cost")?;
        let mut cost = CostReport::default();
        for (name, value) in cost_entries {
            let value = value.as_u64(name)?;
            if !cost.set_counter(name, value) {
                return Err(format!("unknown cost counter {name:?}"));
            }
        }
        if cost_entries.len() != COST_COUNTERS {
            return Err(format!(
                "cost object has {} counters, expected {COST_COUNTERS}",
                cost_entries.len()
            ));
        }
        let mut frontier = Vec::new();
        for (i, entry) in get(obj, "frontier")?
            .as_array("frontier")?
            .iter()
            .enumerate()
        {
            let node = entry.as_object("frontier entry")?;
            let prefix = jobs_from_json(get(node, "prefix")?, "prefix")?;
            check_distinct_jobs(&prefix, jobs)
                .map_err(|e| format!("frontier entry {i}: prefix {e}"))?;
            let bound = get(node, "bound")?.as_time("bound")?;
            frontier.push((prefix, bound));
        }
        Ok(Self {
            jobs,
            machines,
            upper_bound,
            best_schedule,
            proven_bound,
            cost,
            frontier,
        })
    }
}

fn jobs_json(jobs: &[Job]) -> String {
    let cells: Vec<String> = jobs.iter().map(|j| j.to_string()).collect();
    format!("[{}]", cells.join(", "))
}

fn jobs_from_json(value: &Json, what: &str) -> Result<Vec<Job>, String> {
    value
        .as_array(what)?
        .iter()
        .map(|v| v.as_usize(what))
        .collect()
}

/// `Ok` when `list` holds distinct jobs of `0..jobs`; otherwise the first
/// reason it does not, phrased to follow the list's name.
fn check_distinct_jobs(list: &[Job], jobs: usize) -> Result<(), String> {
    if list.len() > jobs {
        return Err(format!(
            "has {} jobs, more than the instance's {jobs}",
            list.len()
        ));
    }
    // Sized by the list, never by `jobs`, which the document also supplies.
    let mut seen = std::collections::HashSet::with_capacity(list.len());
    for &job in list {
        if job >= jobs {
            return Err(format!("names job {job}, out of range for {jobs} jobs"));
        }
        if !seen.insert(job) {
            return Err(format!("repeats job {job}"));
        }
    }
    Ok(())
}

/// `Ok` when `schedule`, the checkpoint's `best_schedule`, is a
/// permutation of `0..jobs`.
fn check_permutation(schedule: &[Job], jobs: usize) -> Result<(), String> {
    check_distinct_jobs(schedule, jobs).map_err(|e| format!("best_schedule {e}"))?;
    if schedule.len() != jobs {
        return Err(format!(
            "best_schedule has {} jobs, not a permutation of 0..{jobs}",
            schedule.len()
        ));
    }
    Ok(())
}

fn get<'a>(obj: &'a [(String, Json)], name: &str) -> Result<&'a Json, String> {
    obj.iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field {name:?}"))
}

/// Minimal JSON value for the checkpoint round-trip: the repo serializes by
/// hand (no serde), so it parses by hand too. Only the subset the emitters
/// produce — objects, arrays, unsigned integers, plain strings, `null`.
enum Json {
    Null,
    Num(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Result<Self, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }

    fn as_object(&self, what: &str) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(entries) => Ok(entries),
            _ => Err(format!("{what} is not a JSON object")),
        }
    }

    fn as_array(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err(format!("{what} is not a JSON array")),
        }
    }

    fn as_string(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(format!("{what} is not a JSON string")),
        }
    }

    fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Json::Num(n) => Ok(*n),
            _ => Err(format!("{what} is not an unsigned integer")),
        }
    }

    fn as_usize(&self, what: &str) -> Result<usize, String> {
        usize::try_from(self.as_u64(what)?).map_err(|_| format!("{what} overflows usize"))
    }

    fn as_time(&self, what: &str) -> Result<Time, String> {
        Time::try_from(self.as_u64(what)?).map_err(|_| format!("{what} overflows Time"))
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {pos}", byte as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b'n') => {
            if bytes[*pos..].starts_with(b"null") {
                *pos += 4;
                Ok(Json::Null)
            } else {
                Err(format!("invalid literal at byte {pos}"))
            }
        }
        Some(b) if b.is_ascii_digit() => parse_number(bytes, pos),
        _ => Err(format!("unexpected input at byte {pos}")),
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut entries = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(entries));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        entries.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(entries));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let start = *pos;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'"' => {
                let s = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| format!("invalid UTF-8 in string at byte {start}"))?
                    .to_string();
                *pos += 1;
                return Ok(s);
            }
            // The emitters never escape; reject rather than mis-parse.
            b'\\' => return Err(format!("escape sequences unsupported at byte {pos}")),
            _ => *pos += 1,
        }
    }
    Err(format!("unterminated string starting at byte {start}"))
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    let digits = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ASCII");
    digits
        .parse::<u64>()
        .map(Json::Num)
        .map_err(|_| format!("number at byte {start} overflows u64"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::member_models;
    use crate::fleet::{effective_chunk, fleet_member_specs};
    use fsp::taillard::generate;

    fn models(devices: usize, hetero: bool) -> Vec<MemberModel> {
        member_models(
            &fleet_member_specs(devices, hetero),
            &GpuSolverConfig::default(),
            12,
            6,
        )
    }

    #[test]
    fn seeded_plans_are_reproducible_and_leave_survivors() {
        for members in 1..=6 {
            for seed in 0..8u64 {
                let a = FailurePlan::seeded(seed, members);
                let b = FailurePlan::seeded(seed, members);
                assert_eq!(a, b);
                assert_eq!(a.events().len(), members / 2);
                a.assert_fits(members);
                let mut dead: Vec<usize> = a.events().iter().map(|e| e.member).collect();
                dead.sort_unstable();
                dead.dedup();
                assert_eq!(dead.len(), a.events().len(), "distinct members die");
                assert!(a.events().iter().all(|e| e.batch < SEEDED_BATCH_RANGE));
            }
        }
    }

    #[test]
    fn explicit_events_dedup_to_the_earliest_per_member() {
        let plan = FailurePlan::from_events(vec![
            FailureEvent {
                batch: 5,
                member: 1,
            },
            FailureEvent {
                batch: 2,
                member: 1,
            },
            FailureEvent {
                batch: 3,
                member: 0,
            },
        ]);
        assert_eq!(
            plan.events(),
            &[
                FailureEvent {
                    batch: 2,
                    member: 1
                },
                FailureEvent {
                    batch: 3,
                    member: 0
                },
            ]
        );
    }

    #[test]
    fn config_plans_prefer_explicit_events_over_the_seed() {
        let config = GpuSolverConfig {
            fail_seed: Some(7),
            fail_at: vec![(4, 2)],
            ..Default::default()
        };
        let plan = FailurePlan::from_config(&config, 4);
        assert_eq!(
            plan.events(),
            &[FailureEvent {
                batch: 4,
                member: 2
            }]
        );
        assert!(FailurePlan::from_config(&GpuSolverConfig::default(), 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one fleet member alive")]
    fn plans_that_kill_everyone_are_rejected() {
        let config = GpuSolverConfig {
            fail_at: vec![(0, 0), (1, 1)],
            ..Default::default()
        };
        let _ = FailurePlan::from_config(&config, 2);
    }

    #[test]
    fn redeal_partitions_the_dead_shard_over_survivors_only() {
        let models = models(4, true);
        for dead_nodes in [1usize, 7, 64, 129, 500] {
            for stealing in [false, true] {
                let survivors = [0usize, 2, 3];
                let shards = redeal_plan(dead_nodes, &survivors, &models, 32, stealing);
                // Partition of 0..dead_nodes, survivors only.
                let mut seen = vec![false; dead_nodes];
                for shard in &shards {
                    assert!(survivors.contains(&shard.device), "{shard:?}");
                    for &(start, len) in &shard.ranges {
                        for covered in &mut seen[start..start + len] {
                            assert!(!*covered, "index covered twice");
                            *covered = true;
                        }
                    }
                }
                assert!(seen.iter().all(|&c| c), "every index covered");
            }
        }
    }

    #[test]
    fn redeal_is_wave_aligned_before_stealing() {
        let models = models(4, false);
        let survivors = [1usize, 3];
        for dead_nodes in [64usize, 100, 257] {
            let chunk = 32;
            let eff = effective_chunk(dead_nodes, survivors.len(), chunk);
            let shards = redeal_plan(dead_nodes, &survivors, &models, chunk, false);
            let ragged = shards
                .iter()
                .flat_map(|s| s.ranges.iter())
                .filter(|(_, len)| len % eff != 0)
                .count();
            assert!(ragged <= 1, "at most the tail chunk may be sub-wave");
        }
    }

    #[test]
    fn recovery_critical_path_is_the_slowest_survivor() {
        let models = models(4, true);
        let shards = redeal_plan(300, &[0, 1], &models, 32, false);
        let expected = shards
            .iter()
            .map(|s| models[s.device].completion_seconds(s.nodes()))
            .fold(0.0, f64::max);
        assert_eq!(recovery_critical_seconds(&shards, &models), expected);
        assert!(expected > 0.0);
    }

    #[test]
    fn checkpoint_json_round_trips_exactly() {
        let problem = FspProblem::new(generate("t", 8, 4, 21));
        let inst = problem.instance();
        let mut cost = CostReport::default();
        cost.record_host_bound(3);
        cost.fleet_failures = 2;
        cost.fleet_redealt_nodes = 96;
        cost.fleet_recovery_nanos = 12_345;
        let schedule = vec![2, 0, 1, 3, 4, 5, 6, 7];
        let prefixes = [vec![2, 0], vec![1], vec![]];
        let checkpoint = SolveCheckpoint {
            jobs: inst.jobs(),
            machines: inst.machines(),
            upper_bound: fsp::makespan(inst, &schedule),
            best_schedule: Some(schedule),
            proven_bound: 410,
            cost,
            frontier: prefixes
                .iter()
                .map(|prefix| {
                    let node = FspNode::from_prefix(inst, prefix);
                    (prefix.clone(), problem.bound_fn().bound_node(&node))
                })
                .collect(),
        };
        let parsed = SolveCheckpoint::from_json(&checkpoint.to_json()).expect("round trip");
        assert_eq!(parsed, checkpoint);
        // The frontier rebuilds into solver nodes with the stored bounds.
        let nodes = parsed.to_nodes(&problem).expect("a consistent checkpoint");
        assert_eq!(nodes.len(), 3);
        assert_eq!(nodes[0].prefix_vec(), vec![2, 0]);
        assert_eq!(nodes[0].bound(), checkpoint.frontier[0].1);
        assert_eq!(nodes[2].prefix_vec(), Vec::<Job>::new());
    }

    #[test]
    fn to_nodes_rejects_a_checkpoint_the_instance_cannot_have_produced() {
        let problem = FspProblem::new(generate("t", 8, 4, 21));
        let inst = problem.instance();
        let schedule: Vec<Job> = (0..8).collect();
        let makespan = fsp::makespan(inst, &schedule);
        let root_bound = problem.bound_fn().bound_node(&problem.root());
        let valid = SolveCheckpoint {
            jobs: 8,
            machines: 4,
            upper_bound: makespan,
            best_schedule: Some(schedule),
            proven_bound: root_bound,
            cost: CostReport::default(),
            frontier: vec![(vec![], root_bound)],
        };
        assert!(valid.to_nodes(&problem).is_ok());

        let reject = |edit: &dyn Fn(&mut SolveCheckpoint)| {
            let mut checkpoint = valid.clone();
            edit(&mut checkpoint);
            checkpoint.to_nodes(&problem).expect_err("must be rejected")
        };
        assert_eq!(
            reject(&|c| c.machines = 5),
            "checkpoint shape 8x5 does not match the instance's 8x4"
        );
        assert_eq!(
            reject(&|c| c.upper_bound -= 1),
            format!(
                "best_schedule has makespan {makespan}, not the upper_bound {}",
                makespan - 1
            )
        );
        assert_eq!(
            reject(&|c| c.frontier[0].1 += 1),
            format!(
                "frontier entry 0: stored bound {} is not the node's bound {root_bound}",
                root_bound + 1
            )
        );
        assert_eq!(
            reject(&|c| c.frontier[0].0 = vec![3, 3]),
            "frontier entry 0: prefix repeats job 3"
        );
        assert_eq!(
            reject(&|c| c.best_schedule = Some(vec![0, 1])),
            "best_schedule has 2 jobs, not a permutation of 0..8"
        );
        // Without a schedule the incumbent value is taken as given.
        let mut unproven = valid.clone();
        unproven.best_schedule = None;
        unproven.upper_bound = makespan - 1;
        assert!(unproven.to_nodes(&problem).is_ok());
    }

    #[test]
    fn checkpoint_without_an_incumbent_round_trips() {
        let checkpoint = SolveCheckpoint {
            jobs: 5,
            machines: 3,
            upper_bound: Time::MAX,
            best_schedule: None,
            proven_bound: Time::MAX,
            cost: CostReport::default(),
            frontier: Vec::new(),
        };
        let parsed = SolveCheckpoint::from_json(&checkpoint.to_json()).expect("round trip");
        assert_eq!(parsed, checkpoint);
    }

    #[test]
    fn checkpoint_parser_rejects_foreign_documents() {
        assert!(SolveCheckpoint::from_json("{}").is_err());
        assert!(SolveCheckpoint::from_json("[1, 2]").is_err());
        assert!(SolveCheckpoint::from_json("{\"schema_version\": \"nope\"}").is_err());
        let checkpoint = SolveCheckpoint {
            jobs: 5,
            machines: 3,
            upper_bound: 100,
            best_schedule: None,
            proven_bound: 90,
            cost: CostReport::default(),
            frontier: Vec::new(),
        };
        // A truncated cost object is rejected, not silently zero-filled.
        let mangled = checkpoint
            .to_json()
            .replace("\"batches\": 0,\n", "")
            .replace("\"waves\": 0,\n", "");
        assert!(SolveCheckpoint::from_json(&mangled).is_err());
    }

    /// A 4-job checkpoint with the given incumbent schedule and frontier.
    fn checkpoint_with(
        best_schedule: Option<Vec<Job>>,
        frontier: Vec<(Vec<Job>, Time)>,
    ) -> SolveCheckpoint {
        SolveCheckpoint {
            jobs: 4,
            machines: 3,
            upper_bound: 100,
            best_schedule,
            proven_bound: 90,
            cost: CostReport::default(),
            frontier,
        }
    }

    fn parse_error(checkpoint: &SolveCheckpoint) -> String {
        SolveCheckpoint::from_json(&checkpoint.to_json()).expect_err("must be rejected")
    }

    #[test]
    fn checkpoint_parser_rejects_a_prefix_that_repeats_a_job() {
        let err = parse_error(&checkpoint_with(
            None,
            vec![(vec![1], 90), (vec![2, 0, 2], 95)],
        ));
        assert_eq!(err, "frontier entry 1: prefix repeats job 2");
    }

    #[test]
    fn checkpoint_parser_rejects_a_prefix_naming_a_job_out_of_range() {
        let err = parse_error(&checkpoint_with(None, vec![(vec![42], 90)]));
        assert_eq!(
            err,
            "frontier entry 0: prefix names job 42, out of range for 4 jobs"
        );
    }

    #[test]
    fn checkpoint_parser_rejects_a_prefix_longer_than_the_instance() {
        let err = parse_error(&checkpoint_with(None, vec![(vec![0, 1, 2, 3, 0], 90)]));
        assert_eq!(
            err,
            "frontier entry 0: prefix has 5 jobs, more than the instance's 4"
        );
    }

    #[test]
    fn checkpoint_parser_rejects_an_incumbent_that_is_not_a_permutation() {
        for (schedule, reason) in [
            (
                vec![0, 1, 2],
                "best_schedule has 3 jobs, not a permutation of 0..4",
            ),
            (vec![0, 1, 1, 3], "best_schedule repeats job 1"),
            (
                vec![0, 1, 2, 4],
                "best_schedule names job 4, out of range for 4 jobs",
            ),
        ] {
            assert_eq!(
                parse_error(&checkpoint_with(Some(schedule), Vec::new())),
                reason
            );
        }
        let valid = checkpoint_with(Some(vec![3, 1, 0, 2]), vec![(vec![3, 1], 95)]);
        assert_eq!(SolveCheckpoint::from_json(&valid.to_json()), Ok(valid));
    }
}
