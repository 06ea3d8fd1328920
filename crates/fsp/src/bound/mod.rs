//! Lower bounds for the permutation Flow-Shop problem.
//!
//! The efficiency of a B&B solver depends critically on its lower-bound
//! function. The paper uses the two-machine relaxation bound of
//! Lageweg, Lenstra and Rinnooy Kan (1978), built on Johnson's algorithm
//! (1954); its data structures and pseudo-code are reproduced in Table I and
//! Figure 2 of the paper and implemented in [`data`] and [`johnson_lb`]
//! (the single-node reference) and [`batch`] (several nodes per pass, the
//! entry point of every bounding backend).
//!
//! A cheaper single-machine bound ([`lb1`]) is provided for ablation studies
//! (bound quality vs bound cost), and [`counts`] models the memory-access
//! complexities of Table I, which drive the GPU data-placement decision.

pub mod batch;
pub mod counts;
pub mod data;
pub mod johnson_lb;
pub mod lb1;

pub use batch::{SubProblem, LANES};

use crate::schedule::PartialSchedule;
use crate::Time;
use std::cell::RefCell;

/// Reusable per-machine working arrays for the host-side bounds.
///
/// Every bound evaluation needs the per-machine minima (heads/tails, and the
/// remaining load for [`lb1::OneMachineBound`]) over the unscheduled jobs.
/// Allocating them per call dominates the cost of bounding small batches, so
/// callers that bound many sub-problems — the bounding backends and the
/// off-load engine's fast-forward path — hold one `BoundScratch` and pass it
/// to [`JohnsonLowerBound::bound_many`](johnson_lb::JohnsonLowerBound::bound_many).
/// The buffers are (re)sized and reset on every use, so one scratch can
/// serve instances of different shapes; the single-node entry points fall
/// back to a thread-local one and stay allocation-free after the first call.
#[derive(Debug, Default)]
pub struct BoundScratch {
    pub(crate) min_head: Vec<Time>,
    pub(crate) min_tail: Vec<Time>,
    pub(crate) load: Vec<Time>,
    pub(crate) lanes: batch::LaneScratch,
}

impl BoundScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets and returns the head/tail minima buffers sized for `m`
    /// machines, initialised to `Time::MAX`.
    pub(crate) fn heads_tails(&mut self, m: usize) -> (&mut [Time], &mut [Time]) {
        reset(&mut self.min_head, m, Time::MAX);
        reset(&mut self.min_tail, m, Time::MAX);
        (&mut self.min_head, &mut self.min_tail)
    }

    /// Like [`Self::heads_tails`] plus the per-machine load buffer reset to
    /// zero (the one-machine bound's accumulator).
    pub(crate) fn heads_tails_load(&mut self, m: usize) -> (&mut [Time], &mut [Time], &mut [Time]) {
        reset(&mut self.min_head, m, Time::MAX);
        reset(&mut self.min_tail, m, Time::MAX);
        reset(&mut self.load, m, 0);
        (&mut self.min_head, &mut self.min_tail, &mut self.load)
    }
}

fn reset<T: Clone>(buf: &mut Vec<T>, len: usize, value: T) {
    buf.clear();
    buf.resize(len, value);
}

thread_local! {
    static THREAD_SCRATCH: RefCell<BoundScratch> = RefCell::new(BoundScratch::new());
}

/// Runs `f` with the thread-local scratch (fresh fallback if re-entered).
pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut BoundScratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut BoundScratch::new()),
    })
}

/// A lower bound on the best makespan reachable from a partial schedule.
///
/// Implementations must be thread-safe: the multi-core baseline evaluates
/// bounds from several worker threads concurrently.
pub trait LowerBound: Send + Sync {
    /// Lower bound on the makespan of every completion of `schedule`.
    ///
    /// For a complete schedule the bound must equal its makespan exactly.
    fn bound(&self, schedule: &PartialSchedule<'_>) -> Time;

    /// Short human-readable name used in experiment reports.
    fn name(&self) -> &'static str;
}

/// Blanket implementation so `&B`, `Box<B>` and `Arc<B>` can be passed where
/// a bound is expected.
impl<B: LowerBound + ?Sized> LowerBound for &B {
    fn bound(&self, schedule: &PartialSchedule<'_>) -> Time {
        (**self).bound(schedule)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

impl<B: LowerBound + ?Sized> LowerBound for std::sync::Arc<B> {
    fn bound(&self, schedule: &PartialSchedule<'_>) -> Time {
        (**self).bound(schedule)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

impl<B: LowerBound + ?Sized> LowerBound for Box<B> {
    fn bound(&self, schedule: &PartialSchedule<'_>) -> Time {
        (**self).bound(schedule)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}
