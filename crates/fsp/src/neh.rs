//! The NEH constructive heuristic (Nawaz, Enscore, Ham, 1983).
//!
//! NEH is the standard way to obtain a good initial *upper bound* for
//! Flow-Shop B&B solvers: sort jobs by decreasing total processing time, then
//! insert each job at the position of the partial sequence that minimises the
//! partial makespan. Its quality directly controls how much of the tree the
//! bounding operator can prune (the paper's Figure 1 starts from an
//! "initial seed UB").
//!
//! Each insertion is evaluated with Taillard's (1990) heads and tails: with
//! the completion times of the current sequence from the front (heads) and
//! from the back (tails), the makespan of the job inserted at any position
//! costs O(m), so one NEH run is O(n²·m) instead of O(n³·m).

use crate::instance::Instance;
use crate::schedule::makespan;
use crate::{Job, Time};

/// Runs the NEH heuristic and returns `(permutation, makespan)`.
///
/// Each job goes to the first position of least partial makespan.
pub fn neh(inst: &Instance) -> (Vec<Job>, Time) {
    let n = inst.jobs();
    let m = inst.machines();
    let order = insertion_order(inst);

    let mut seq: Vec<Job> = Vec::with_capacity(n);
    // `heads[(i + 1) * m + k]`: completion of `seq[i]` on machine `k` when
    // the sequence starts at time 0; the row before the first job is zero.
    // `tails[i * m + k]`: time from the start of `seq[i]` on machine `k` to
    // the end of the sequence; the row after the last job is zero.
    let mut heads: Vec<Time> = Vec::with_capacity((n + 1) * m);
    let mut tails: Vec<Time> = Vec::with_capacity((n + 1) * m);
    for &job in &order {
        let len = seq.len();
        heads.clear();
        heads.resize((len + 1) * m, 0);
        tails.clear();
        tails.resize((len + 1) * m, 0);
        for (i, &queued) in seq.iter().enumerate() {
            let mut prev = 0;
            for k in 0..m {
                prev = prev.max(heads[i * m + k]) + inst.pt(queued, k);
                heads[(i + 1) * m + k] = prev;
            }
        }
        for (i, &queued) in seq.iter().enumerate().rev() {
            let mut next = 0;
            for k in (0..m).rev() {
                next = next.max(tails[(i + 1) * m + k]) + inst.pt(queued, k);
                tails[i * m + k] = next;
            }
        }

        // Inserted at `pos`, the job completes on machine k at
        // max(its completion on k - 1, heads[pos][k]) + p, and the jobs
        // after it take tails[pos][k] from there.
        let mut best_pos = 0;
        let mut best_val = Time::MAX;
        for pos in 0..=len {
            let mut done = 0;
            let mut val = 0;
            for k in 0..m {
                done = done.max(heads[pos * m + k]) + inst.pt(job, k);
                val = val.max(done + tails[pos * m + k]);
            }
            if val < best_val {
                best_val = val;
                best_pos = pos;
            }
        }
        seq.insert(best_pos, job);
    }
    let cmax = makespan(inst, &seq);
    (seq, cmax)
}

/// Decreasing total processing time, ties by index for determinism.
fn insertion_order(inst: &Instance) -> Vec<Job> {
    let mut order: Vec<Job> = (0..inst.jobs()).collect();
    order.sort_by_key(|&j| (std::cmp::Reverse(inst.job_total(j)), j));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_optimal;
    use crate::schedule::is_permutation;

    /// The textbook NEH: every candidate position of every insertion is
    /// evaluated by rebuilding and re-timing the whole partial sequence.
    fn neh_naive(inst: &Instance) -> (Vec<Job>, Time) {
        let mut seq: Vec<Job> = Vec::with_capacity(inst.jobs());
        for job in insertion_order(inst) {
            let mut best_pos = 0;
            let mut best_val = Time::MAX;
            for pos in 0..=seq.len() {
                let mut candidate = seq.clone();
                candidate.insert(pos, job);
                let val = partial_makespan(inst, &candidate);
                if val < best_val {
                    best_val = val;
                    best_pos = pos;
                }
            }
            seq.insert(best_pos, job);
        }
        let cmax = makespan(inst, &seq);
        (seq, cmax)
    }

    /// Makespan of a *partial* sequence (not all jobs need be present).
    fn partial_makespan(inst: &Instance, seq: &[Job]) -> Time {
        let m = inst.machines();
        let mut completion = vec![0 as Time; m];
        for &job in seq {
            let mut prev = 0;
            for (k, c) in completion.iter_mut().enumerate() {
                let start = (*c).max(prev);
                *c = start + inst.pt(job, k);
                prev = *c;
            }
        }
        completion[m - 1]
    }

    #[test]
    fn taillard_insertion_equals_the_naive_insertion() {
        let mut seed = 1;
        for n in 1..=50 {
            for m in [1, 2, 3, 5, 10, 20] {
                if n > 20 && n % 5 != 0 {
                    continue;
                }
                seed += 1;
                let inst = crate::taillard::generate(format!("neh-{n}x{m}"), n, m, seed * 7919);
                assert_eq!(neh(&inst), neh_naive(&inst), "{n}x{m}, seed {seed}");
            }
        }
    }

    #[test]
    fn taillard_insertion_keeps_the_first_minimum_on_ties() {
        // Equal jobs tie at every position, so the first one must win.
        let rows = vec![vec![3, 3, 3]; 6];
        let inst = Instance::from_rows("ties", &rows);
        assert_eq!(neh(&inst), neh_naive(&inst));
        let inst = Instance::from_rows("ties-2", &[vec![2, 5], vec![5, 2], vec![2, 5], vec![5, 2]]);
        assert_eq!(neh(&inst), neh_naive(&inst));
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "the naive NEH at 200x20 is slow in debug; run in release (CI paper-shapes job)"
    )]
    fn taillard_insertion_equals_the_naive_insertion_at_200x20() {
        for seed in [1i64, 2012] {
            let inst = crate::taillard::generate("neh-200x20", 200, 20, seed);
            assert_eq!(neh(&inst), neh_naive(&inst), "seed {seed}");
        }
    }

    #[test]
    fn neh_returns_a_valid_permutation() {
        let inst = crate::taillard::generate("t", 20, 5, 555);
        let (perm, cmax) = neh(&inst);
        assert!(is_permutation(&perm, 20));
        assert_eq!(makespan(&inst, &perm), cmax);
    }

    #[test]
    fn neh_is_close_to_optimal_on_tiny_instances() {
        for seed in 1..=8 {
            let inst = crate::taillard::generate(format!("t{seed}"), 7, 4, seed * 31);
            let (_, heuristic) = neh(&inst);
            let (_, optimal) = brute_force_optimal(&inst);
            assert!(heuristic >= optimal);
            // NEH is typically within a few percent; allow a generous 15 %.
            assert!(
                (heuristic as f64) <= (optimal as f64) * 1.15,
                "NEH too far from optimum: {heuristic} vs {optimal} (seed {seed})"
            );
        }
    }

    #[test]
    fn neh_beats_identity_order_on_average() {
        let mut better_or_equal = 0;
        let total = 10;
        for seed in 1..=total {
            let inst = crate::taillard::generate(format!("t{seed}"), 15, 10, seed * 101);
            let (_, heuristic) = neh(&inst);
            let identity: Vec<Job> = (0..15).collect();
            if heuristic <= makespan(&inst, &identity) {
                better_or_equal += 1;
            }
        }
        assert!(better_or_equal >= total - 1);
    }

    #[test]
    fn neh_single_job() {
        let inst = crate::taillard::generate("t", 1, 5, 3);
        let (perm, cmax) = neh(&inst);
        assert_eq!(perm, vec![0]);
        assert_eq!(cmax, inst.job_total(0));
    }
}
