//! Solve checkpoints: the solver's complete resumable state at a batch
//! boundary.
//!
//! A [`SolveCheckpoint`] holds the pool frontier (in deterministic drain
//! order), the incumbent, the proven bound and the accumulated
//! [`CostReport`], with a hand-rolled JSON round-trip
//! ([`SolveCheckpoint::to_json`] / [`SolveCheckpoint::from_json`], schema
//! [`CHECKPOINT_SCHEMA_VERSION`]). Re-pushing the frontier in drain order
//! reproduces the pool's exact pop order (best-first on bound, ties
//! deeper-first then insertion order), so a resumed solve
//! ([`crate::solver::GpuBnbSolver::resume`],
//! [`crate::service::JobSpec::resume_from`]) continues the identical
//! exploration and ends with the same certificate — makespan, proven bound
//! and summed cost — as an uninterrupted run.

use crate::cost::{CostReport, COST_COUNTERS};
use bb::problem::NodeBound;
use bb::{FspNode, FspProblem};
use fsp::{Job, JohnsonLowerBound, Time};

/// Schema tag of the checkpoint JSON document.
pub const CHECKPOINT_SCHEMA_VERSION: &str = "flowshop-bnb-checkpoint/v1";

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
    /// schedule, `upper_bound` is taken as given, as a bound only: a solve
    /// resumed from it claims optimality only once it holds a schedule
    /// ([`crate::GpuSolveOutcome::is_optimal`]). The check re-bounds the
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
    use fsp::taillard::generate;

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
