//! The Johnson-based two-machine-relaxation lower bound (Figure 2 of the
//! paper; Lageweg–Lenstra–Rinnooy Kan, 1978).
//!
//! For every machine pair `(k, l)` with `k < l` the remaining jobs are relaxed
//! to a two-machine problem with time lags; Johnson's rule with lags (the
//! pre-computed `JM` order) solves that relaxation exactly, and the largest
//! value over all pairs — augmented with machine-availability heads and
//! job tails — is a valid lower bound on the makespan of every completion of
//! the partial schedule.
//!
//! The instrumented [`JohnsonLowerBound::bound_prefix_counted`] mirrors the
//! paper's `computeLB` pseudo-code line by line, so that the GPU kernel
//! (`gpu-bnb::kernel_lb`) and this reference stay in lockstep, and reports
//! the per-matrix access counts used to validate the Table I complexity
//! analysis.
//!
//! Every other entry point runs one host kernel, `bound_block`, which returns
//! the same value. It is the paper's thread-per-node mapping on host SIMD
//! lanes: it bounds up to `L` nodes of the instance together, one node per
//! lane, and every lane walks the same Johnson order, lags and processing
//! times, so those are loaded once per step and shared. The lanes are plain
//! `[Time; L]` arrays that the compiler vectorises. A lane masks its node's
//! scheduled jobs instead of skipping them, so the loop over each pair's
//! Johnson order has no data-dependent branch, and it reads the pair-major
//! host tables of `BoundData::johnson_pair` with unit stride.
//!
//! The one kernel body is compiled twice: once for the default target, and
//! once, on x86-64, inside a `#[target_feature(enable = "avx2")]` wrapper,
//! whose packed 32-bit `max` the default target (SSE2) lacks.
//! `std::is_x86_feature_detected!("avx2")` picks the AVX2 build on CPUs that
//! have it; every other CPU runs the portable one. Both return the same
//! bounds; [`JohnsonLowerBound::kernel_path`] names the one this CPU runs.
//! [`JohnsonLowerBound::bound_batch_with`] bounds a slice of nodes
//! [`JohnsonLowerBound::LANES`] at a time; the single-node entry points run
//! the same kernel with one lane.

use super::counts::AccessCounts;
use super::data::BoundData;
use super::{with_thread_scratch, BoundScratch, Lanes, LowerBound};
use crate::schedule::PartialSchedule;
use crate::{Job, Time};

/// The full Johnson-based lower bound of the paper.
#[derive(Debug, Clone)]
pub struct JohnsonLowerBound {
    data: BoundData,
}

impl JohnsonLowerBound {
    /// Nodes [`Self::bound_batch_with`] bounds together, one per lane of the
    /// kernel, on either build of it: sixteen `u32` lanes fill two AVX2
    /// registers or four SSE2 ones.
    pub const LANES: usize = 16;

    /// Pre-computes the six bound matrices for `inst`.
    pub fn new(inst: &crate::instance::Instance) -> Self {
        Self {
            data: BoundData::new(inst),
        }
    }

    /// Builds the bound from already-computed matrices.
    pub fn from_data(data: BoundData) -> Self {
        Self { data }
    }

    /// The pre-computed matrices (shared with the GPU off-load engine).
    pub fn data(&self) -> &BoundData {
        &self.data
    }

    /// The build of the kernel this CPU runs: `"avx2"` or `"portable"`.
    pub fn kernel_path() -> &'static str {
        if has_avx2() {
            "avx2"
        } else {
            "portable"
        }
    }

    /// Computes the lower bound for a sub-problem described by its scheduled
    /// prefix `front` (per-machine completion times) and the `scheduled`
    /// membership array.
    ///
    /// Returns exactly the value of the GPU kernel and of the line-by-line
    /// reference [`Self::bound_prefix_counted`]. Uses the thread-local
    /// [`BoundScratch`]; batch callers should prefer
    /// [`Self::bound_batch_with`].
    pub fn bound_prefix(&self, front: &[Time], scheduled: &[bool]) -> Time {
        with_thread_scratch(|s| self.bound_prefix_fn_with(s, front, |j| scheduled[j]))
    }

    /// Like [`Self::bound_prefix`] but with scheduled-set membership supplied
    /// as a predicate (avoids materialising a `Vec<bool>` for callers that
    /// keep the set as a bitset, such as the B&B node type).
    pub fn bound_prefix_fn(&self, front: &[Time], is_scheduled: impl Fn(Job) -> bool) -> Time {
        with_thread_scratch(|s| self.bound_prefix_fn_with(s, front, is_scheduled))
    }

    /// Like [`Self::bound_prefix`] with an explicit, caller-owned scratch:
    /// allocate the scratch once, reuse it for every sub-problem. Callers
    /// with a slice of sub-problems should prefer the faster
    /// [`Self::bound_batch_with`].
    pub fn bound_prefix_with(
        &self,
        scratch: &mut BoundScratch,
        front: &[Time],
        scheduled: &[bool],
    ) -> Time {
        self.bound_prefix_fn_with(scratch, front, |j| scheduled[j])
    }

    /// Predicate variant of [`Self::bound_prefix_with`].
    pub fn bound_prefix_fn_with(
        &self,
        scratch: &mut BoundScratch,
        front: &[Time],
        is_scheduled: impl Fn(Job) -> bool,
    ) -> Time {
        let [lb] = self.run_block::<1>(false, scratch, [front], |_, job| is_scheduled(job));
        lb
    }

    /// Bounds every item of `items`, appending the bounds to `out` in input
    /// order; each equals [`Self::bound_prefix`] of the item's `front` and
    /// scheduled set.
    ///
    /// The items are bounded [`Self::LANES`] at a time, one per lane of the
    /// kernel. `front` gives an item's per-machine completion times and
    /// `is_scheduled` its scheduled-set membership, so any node type can be
    /// bounded without copying it.
    pub fn bound_batch_with<T>(
        &self,
        scratch: &mut BoundScratch,
        items: &[T],
        front: impl Fn(&T) -> &[Time],
        is_scheduled: impl Fn(&T, Job) -> bool,
        out: &mut Vec<Time>,
    ) {
        self.batch_with(false, scratch, items, front, is_scheduled, out);
    }

    /// [`Self::bound_batch_with`] on the portable build of the kernel, even
    /// on a CPU with AVX2, so that tests cover both builds on one machine.
    #[doc(hidden)]
    pub fn bound_batch_portable_with<T>(
        &self,
        scratch: &mut BoundScratch,
        items: &[T],
        front: impl Fn(&T) -> &[Time],
        is_scheduled: impl Fn(&T, Job) -> bool,
        out: &mut Vec<Time>,
    ) {
        self.batch_with(true, scratch, items, front, is_scheduled, out);
    }

    fn batch_with<T>(
        &self,
        portable: bool,
        scratch: &mut BoundScratch,
        items: &[T],
        front: impl Fn(&T) -> &[Time],
        is_scheduled: impl Fn(&T, Job) -> bool,
        out: &mut Vec<Time>,
    ) {
        out.reserve(items.len());
        for block in items.chunks(Self::LANES) {
            // A short last block repeats its last item; the bounds of the
            // padded lanes are dropped.
            let lanes: [&T; Self::LANES] =
                std::array::from_fn(|lane| &block[lane.min(block.len() - 1)]);
            let bounds = self.run_block(portable, scratch, lanes.map(&front), |lane, job| {
                is_scheduled(lanes[lane], job)
            });
            out.extend_from_slice(&bounds[..block.len()]);
        }
    }

    /// Same as [`Self::bound_prefix`] but records how many times each of the
    /// six matrices is read (used to validate Table I).
    ///
    /// This is the line-by-line transcription of the paper's Figure 2 over
    /// the six matrices of Table I, and the reference the fast path is
    /// tested against.
    pub fn bound_prefix_counted(&self, front: &[Time], scheduled: &[bool]) -> (Time, AccessCounts) {
        let mut counts = AccessCounts::default();
        let data = &self.data;
        let n = data.jobs();
        let m = data.machines();
        debug_assert_eq!(front.len(), m);

        // Per-machine earliest start (head) and smallest tail over the
        // remaining jobs. Computed once per sub-problem; reads RM and QM
        // n' × m times in total.
        let mut min_head = vec![Time::MAX; m];
        let mut min_tail = vec![Time::MAX; m];
        let mut remaining = 0usize;
        for (job, &is_scheduled) in scheduled[..n].iter().enumerate() {
            if is_scheduled {
                continue;
            }
            remaining += 1;
            for k in 0..m {
                let h = data.rm(job, k);
                counts.rm += 1;
                if h < min_head[k] {
                    min_head[k] = h;
                }
                let t = data.qm(job, k);
                counts.qm += 1;
                if t < min_tail[k] {
                    min_tail[k] = t;
                }
            }
        }

        // A completed schedule: the bound is exactly the prefix makespan.
        if remaining == 0 {
            return (front[m - 1], counts);
        }

        let mut lb: Time = 0;
        for pair in 0..data.num_pairs() {
            let (m1, m2) = data.pair(pair);
            counts.mm += 2;

            // Machine availability: the prefix keeps machine k busy until
            // front[k]; independently no remaining job can reach machine k
            // before its smallest head.
            let mut time_on_m1 = front[m1].max(min_head[m1]);
            let mut time_on_m2 = front[m2].max(min_head[m2]);

            // Johnson order with lags over the remaining jobs (lines 8-17 of
            // the paper's Figure 2).
            for pos in 0..n {
                let job = data.jm(pos, pair);
                counts.jm += 1;
                if scheduled[job] {
                    continue;
                }
                time_on_m1 += data.ptm(job, m1);
                counts.ptm += 1;
                let lag = data.lm(job, pair);
                counts.lm += 1;
                let ready_on_m2 = time_on_m1 + lag;
                let p2 = data.ptm(job, m2);
                counts.ptm += 1;
                if time_on_m2 > ready_on_m2 {
                    time_on_m2 += p2;
                } else {
                    time_on_m2 = ready_on_m2 + p2;
                }
            }

            // Line 18: add the smallest remaining tail after machine m2.
            let bound_for_pair = time_on_m2 + min_tail[m2];
            if bound_for_pair > lb {
                lb = bound_for_pair;
            }
        }
        (lb, counts)
    }

    /// Runs [`Self::bound_block`] on its AVX2 build when this CPU has AVX2
    /// and `portable` is false, and on its portable build otherwise.
    fn run_block<const L: usize>(
        &self,
        portable: bool,
        scratch: &mut BoundScratch,
        fronts: [&[Time]; L],
        is_scheduled: impl Fn(usize, Job) -> bool,
    ) -> [Time; L] {
        if !portable && has_avx2() {
            // SAFETY: `has_avx2()` is `is_x86_feature_detected!("avx2")`, so
            // this CPU executes the AVX2 instructions of `bound_block_avx2`.
            #[cfg(target_arch = "x86_64")]
            return unsafe { self.bound_block_avx2(scratch, fronts, is_scheduled) };
        }
        self.bound_block(scratch, fronts, is_scheduled)
    }

    /// [`Self::bound_block`] inlined into, and so compiled for, AVX2.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn bound_block_avx2<const L: usize>(
        &self,
        scratch: &mut BoundScratch,
        fronts: [&[Time]; L],
        is_scheduled: impl Fn(usize, Job) -> bool,
    ) -> [Time; L] {
        self.bound_block(scratch, fronts, is_scheduled)
    }

    /// The kernel: bounds `L` nodes, one per lane, given each lane's front
    /// and a `(lane, job)` scheduled-set predicate. Every lane returns the
    /// value of [`Self::bound_prefix_counted`] for its node, but masks the
    /// scheduled jobs instead of skipping them. Always inlined, so that each
    /// caller compiles it, and the closures it calls, for its own target
    /// features.
    #[inline(always)]
    fn bound_block<const L: usize>(
        &self,
        scratch: &mut BoundScratch,
        fronts: [&[Time]; L],
        is_scheduled: impl Fn(usize, Job) -> bool,
    ) -> [Time; L] {
        let data = &self.data;
        let n = data.jobs();
        let m = data.machines();
        let Lanes {
            keep,
            front,
            min_head,
            min_tail,
        } = scratch.lanes::<L>(n, m);
        for (k, lanes) in front.iter_mut().enumerate() {
            for (value, lane_front) in lanes.iter_mut().zip(fronts) {
                debug_assert_eq!(lane_front.len(), m);
                *value = lane_front[k];
            }
        }

        // One pass over the jobs builds each lane's keep mask (`Time::MAX`
        // for a remaining job, `0` for a scheduled one) and takes the head
        // and tail minima; a scheduled job's heads and tails are or-ed up to
        // `Time::MAX`, so they never win a minimum.
        let rows = data
            .rm_raw()
            .chunks_exact(m)
            .zip(data.qm_raw().chunks_exact(m));
        let mut remaining = [0usize; L];
        for (job, (kept, (heads, tails))) in keep.iter_mut().zip(rows).enumerate() {
            for (lane, (kept, remaining)) in kept.iter_mut().zip(&mut remaining).enumerate() {
                let is_remaining = !is_scheduled(lane, job);
                *remaining += usize::from(is_remaining);
                *kept = Time::from(is_remaining).wrapping_neg();
            }
            for k in 0..m {
                for lane in 0..L {
                    min_head[k][lane] = min_head[k][lane].min(heads[k] | !kept[lane]);
                    min_tail[k][lane] = min_tail[k][lane].min(tails[k] | !kept[lane]);
                }
            }
        }
        // A complete schedule's bound is its makespan. Its lane has no
        // heads or tails; zeroing them keeps its discarded pair loop below
        // from overflowing.
        let complete = remaining.map(|r| r == 0);
        if complete.iter().all(|&c| c) {
            return front[m - 1];
        }
        for lane in (0..L).filter(|&lane| complete[lane]) {
            for k in 0..m {
                min_head[k][lane] = 0;
                min_tail[k][lane] = 0;
            }
        }

        // Equal lengths let one `job < n` test cover all three reads below.
        let keep = &keep[..n];
        let mut lb = [0 as Time; L];
        for pair in 0..data.num_pairs() {
            let (m1, m2) = data.pair(pair);
            let mut t1: [Time; L] = std::array::from_fn(|l| front[m1][l].max(min_head[m1][l]));
            let mut t2: [Time; L] = std::array::from_fn(|l| front[m2][l].max(min_head[m2][l]));
            // A masked job (p1 = lag = p2 = 0) sets t2 to max(t2, t1). After
            // the first remaining job t2 >= t1 holds, so that changes
            // nothing; before it, the remaining job's own
            // max(t2, t1 + p1 + lag) covers the raise. The value is the
            // reference's for any `front`.
            let (order, lags) = data.johnson_pair(pair);
            let (p1, p2) = (&data.pt_on(m1)[..n], &data.pt_on(m2)[..n]);
            for (&job, &lag) in order.iter().zip(lags) {
                let job = usize::from(job);
                let (kept, p1, p2) = (&keep[job], p1[job], p2[job]);
                for l in 0..L {
                    t1[l] += p1 & kept[l];
                    t2[l] = t2[l].max(t1[l] + (lag & kept[l])) + (p2 & kept[l]);
                }
            }
            for l in 0..L {
                lb[l] = lb[l].max(t2[l] + min_tail[m2][l]);
            }
        }
        for lane in (0..L).filter(|&lane| complete[lane]) {
            lb[lane] = front[m - 1][lane];
        }
        lb
    }

    /// Convenience: bound of a sub-problem given as a prefix of jobs.
    pub fn bound_of_prefix_jobs(&self, inst: &crate::Instance, prefix: &[Job]) -> Time {
        let sched = PartialSchedule::from_prefix(inst, prefix);
        self.bound(&sched)
    }
}

/// Whether this CPU runs the AVX2 build of the kernel; `std` caches the
/// detection after the first call.
fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

impl LowerBound for JohnsonLowerBound {
    fn bound(&self, schedule: &PartialSchedule<'_>) -> Time {
        self.bound_prefix_fn(schedule.front(), |j| schedule.is_scheduled(j))
    }

    fn name(&self) -> &'static str {
        "johnson-lb"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_optimal;
    use crate::schedule::{makespan, PartialSchedule};
    use crate::taillard::generate;

    fn bound_of(inst: &crate::Instance, prefix: &[usize]) -> Time {
        let lb = JohnsonLowerBound::new(inst);
        let sched = PartialSchedule::from_prefix(inst, prefix);
        lb.bound(&sched)
    }

    #[test]
    fn root_bound_never_exceeds_optimum() {
        for seed in 1..=12 {
            let inst = generate(format!("t{seed}"), 7, 4, seed * 13);
            let (_, opt) = brute_force_optimal(&inst);
            let root = bound_of(&inst, &[]);
            assert!(
                root <= opt,
                "root LB {root} exceeds optimum {opt} (seed {seed})"
            );
        }
    }

    #[test]
    fn bound_of_any_prefix_never_exceeds_best_completion() {
        // For every 1-job and 2-job prefix of a tiny instance, the bound must
        // not exceed the best completion reachable from that prefix.
        let inst = generate("t", 6, 3, 991);
        let lb = JohnsonLowerBound::new(&inst);
        let n = inst.jobs();
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let prefix = vec![a, b];
                let sched = PartialSchedule::from_prefix(&inst, &prefix);
                let bound = lb.bound(&sched);
                // best completion by brute force over remaining jobs
                let mut best = Time::MAX;
                let remaining: Vec<usize> = (0..n).filter(|j| !prefix.contains(j)).collect();
                permute(&remaining, &mut |rest| {
                    let mut full = prefix.clone();
                    full.extend_from_slice(rest);
                    best = best.min(makespan(&inst, &full));
                });
                assert!(
                    bound <= best,
                    "LB {bound} exceeds best completion {best} for prefix {prefix:?}"
                );
            }
        }
    }

    #[test]
    fn bound_of_complete_schedule_equals_makespan() {
        let inst = generate("t", 9, 5, 17);
        let lb = JohnsonLowerBound::new(&inst);
        let perm: Vec<usize> = (0..9).collect();
        let sched = PartialSchedule::from_prefix(&inst, &perm);
        assert_eq!(lb.bound(&sched), makespan(&inst, &perm));
    }

    #[test]
    fn bound_is_monotone_along_a_branch() {
        let inst = generate("t", 10, 6, 303);
        let lb = JohnsonLowerBound::new(&inst);
        let mut sched = PartialSchedule::new(&inst);
        let mut prev = lb.bound(&sched);
        for job in [3, 7, 1, 9, 0, 5] {
            sched.push(job);
            let cur = lb.bound(&sched);
            assert!(
                cur >= prev,
                "bound decreased from {prev} to {cur} after scheduling {job}"
            );
            prev = cur;
        }
    }

    #[test]
    fn bound_dominates_machine_load_bound_at_root() {
        // The two-machine relaxation is at least as strong as the trivial
        // single-machine load bound on most instances; we only require it to
        // be a valid bound here, and at least as large as the largest job.
        let inst = generate("t", 20, 10, 88);
        let root = bound_of(&inst, &[]);
        let longest_job = (0..20).map(|j| inst.job_total(j)).max().unwrap();
        assert!(root >= longest_job);
    }

    #[test]
    fn two_machine_root_bound_is_exact() {
        // With m = 2 there is a single machine pair and no lags: the root
        // bound equals Johnson's optimal makespan.
        for seed in 1..=6 {
            let inst = generate(format!("t{seed}"), 8, 2, seed * 7 + 1);
            let (_, opt) = crate::johnson::solve_two_machine(&inst);
            assert_eq!(bound_of(&inst, &[]), opt);
        }
    }

    #[test]
    fn counted_variant_matches_uncounted() {
        let inst = generate("t", 12, 5, 5);
        let lb = JohnsonLowerBound::new(&inst);
        let sched = PartialSchedule::from_prefix(&inst, &[2, 5]);
        let mut scheduled = vec![false; 12];
        scheduled[2] = true;
        scheduled[5] = true;
        let plain = lb.bound_prefix(sched.front(), &scheduled);
        let (counted, counts) = lb.bound_prefix_counted(sched.front(), &scheduled);
        assert_eq!(plain, counted);
        assert!(counts.ptm > 0 && counts.jm > 0 && counts.lm > 0);
    }

    #[test]
    fn name_is_stable() {
        let inst = generate("t", 4, 3, 2);
        assert_eq!(JohnsonLowerBound::new(&inst).name(), "johnson-lb");
    }

    /// Tiny permutation helper for the completion check above.
    fn permute(items: &[usize], f: &mut impl FnMut(&[usize])) {
        let mut v = items.to_vec();
        let n = v.len();
        let mut c = vec![0usize; n];
        f(&v);
        let mut i = 0;
        while i < n {
            if c[i] < i {
                if i % 2 == 0 {
                    v.swap(0, i);
                } else {
                    v.swap(c[i], i);
                }
                f(&v);
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
    }
}
