//! Lower bounds for the permutation Flow-Shop problem.
//!
//! The efficiency of a B&B solver depends critically on its lower-bound
//! function. The paper uses the two-machine relaxation bound of
//! Lageweg, Lenstra and Rinnooy Kan (1978), built on Johnson's algorithm
//! (1954); its data structures and pseudo-code are reproduced in Table I and
//! Figure 2 of the paper and implemented in [`data`] and [`johnson_lb`].
//!
//! A cheaper single-machine bound ([`lb1`]) is provided for ablation studies
//! (bound quality vs bound cost), and [`counts`] models the memory-access
//! complexities of Table I, which drive the GPU data-placement decision.

pub mod counts;
pub mod data;
pub mod johnson_lb;
pub mod lb1;

use crate::schedule::PartialSchedule;
use crate::Time;
use std::cell::RefCell;

/// Reusable per-machine and per-job working arrays for the host-side bounds.
///
/// Every bound evaluation needs the per-machine minima (heads/tails, and the
/// remaining load for [`lb1::OneMachineBound`]) over the unscheduled jobs,
/// and the Johnson bound a per-job keep mask. The Johnson bound evaluates up
/// to [`JohnsonLowerBound::LANES`](johnson_lb::JohnsonLowerBound::LANES)
/// nodes at once, one per lane, so its buffers hold one value per lane: the
/// keep mask `n × lanes` (12.8 KB at 200×20 with sixteen lanes), the front and
/// the head/tail minima `m × lanes`.
/// Allocating them per call dominates the cost of bounding small batches, so
/// callers that bound many sub-problems — the off-load engine's fast-forward
/// path, the sequential backend — hold one `BoundScratch` and pass it to the
/// `*_with` bound entry points. The buffers are (re)sized and reset on every
/// use, so one scratch can serve instances of different sizes and any lane
/// count; the convenience entry points without an explicit scratch fall back
/// to a thread-local one and stay allocation-free after the first call.
#[derive(Debug, Default)]
pub struct BoundScratch {
    pub(crate) min_head: Vec<Time>,
    pub(crate) min_tail: Vec<Time>,
    pub(crate) load: Vec<Time>,
    /// Per job and lane: `Time::MAX` if the job remains unscheduled in that
    /// lane's node, `0` if it is scheduled (the Johnson bound's branch-free
    /// mask).
    pub(crate) keep: Vec<Time>,
    /// Per machine and lane: the front of that lane's node.
    pub(crate) front: Vec<Time>,
}

/// The Johnson bound's per-lane working arrays for one block of `L` nodes,
/// borrowed from a [`BoundScratch`].
pub(crate) struct Lanes<'a, const L: usize> {
    /// Per job (`n` rows): the keep mask; its contents are for the caller to
    /// overwrite.
    pub keep: &'a mut [[Time; L]],
    /// Per machine (`m` rows): the fronts; for the caller to overwrite.
    pub front: &'a mut [[Time; L]],
    /// Per machine: the head minima, reset to `Time::MAX`.
    pub min_head: &'a mut [[Time; L]],
    /// Per machine: the tail minima, reset to `Time::MAX`.
    pub min_tail: &'a mut [[Time; L]],
}

impl BoundScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The per-lane buffers for a block of `L` nodes of an `n × m`
    /// instance.
    pub(crate) fn lanes<const L: usize>(&mut self, n: usize, m: usize) -> Lanes<'_, L> {
        self.keep.resize(n * L, 0);
        self.front.resize(m * L, 0);
        reset(&mut self.min_head, m * L, Time::MAX);
        reset(&mut self.min_tail, m * L, Time::MAX);
        Lanes {
            keep: self.keep.as_chunks_mut().0,
            front: self.front.as_chunks_mut().0,
            min_head: self.min_head.as_chunks_mut().0,
            min_tail: self.min_tail.as_chunks_mut().0,
        }
    }

    /// The head/tail minima buffers sized for `m` machines and reset to
    /// `Time::MAX`, plus the per-machine load buffer reset to zero (the
    /// one-machine bound's accumulator).
    pub(crate) fn heads_tails_load(&mut self, m: usize) -> (&mut [Time], &mut [Time], &mut [Time]) {
        reset(&mut self.min_head, m, Time::MAX);
        reset(&mut self.min_tail, m, Time::MAX);
        reset(&mut self.load, m, 0);
        (&mut self.min_head, &mut self.min_tail, &mut self.load)
    }
}

fn reset(buf: &mut Vec<Time>, len: usize, value: Time) {
    buf.clear();
    buf.resize(len, value);
}

thread_local! {
    static THREAD_SCRATCH: RefCell<BoundScratch> = RefCell::new(BoundScratch::new());
}

/// Runs `f` with this thread's [`BoundScratch`] (a fresh one if re-entered):
/// the scratch behind the bound entry points that take none.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut BoundScratch) -> R) -> R {
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
