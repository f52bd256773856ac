//! The *frozen pool* experimental protocol (Mezmaz et al., IPDPS 2007; used
//! by the paper in Section IV).
//!
//! The Taillard instances the paper measures on are far too hard to solve to
//! optimality, so the evaluation instead measures the time to process a fixed
//! list `L` of sub-problems: a sequential B&B explores the tree until its
//! pending pool reaches a requested size, the pool is then frozen and handed
//! identically to every solver being compared (single-core CPU, multi-core
//! CPU, GPU). Because all solvers start from the same list and the same
//! incumbent, they evaluate exactly the same sub-problems and their wall-clock
//! times are directly comparable.

use crate::node::FspNode;
use crate::pool::PoolStrategy;
use crate::problem::{FspProblem, NodeBound};
use crate::upper_bound::SharedUpperBound;
use fsp::{Job, Time};

/// A frozen list of pending sub-problems plus the incumbent at freeze time.
#[derive(Debug, Clone)]
pub struct FrozenPool {
    /// The pending sub-problems, each with its lower bound already evaluated.
    pub nodes: Vec<FspNode>,
    /// The incumbent (upper bound) when the pool was frozen.
    pub upper_bound: Time,
    /// The schedule achieving `upper_bound`, when known.
    pub best_schedule: Option<Vec<Job>>,
}

impl FrozenPool {
    /// Number of frozen sub-problems.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the exploration finished before the requested size was
    /// reached (the instance was solved outright).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total number of unscheduled jobs over the pool — proportional to the
    /// amount of bounding work the pool represents.
    pub fn remaining_work(&self, inst: &fsp::Instance) -> usize {
        self.nodes.iter().map(|n| n.remaining(inst)).sum()
    }
}

/// Below this many children a wave is bounded inline: the per-spawn cost of
/// scoped worker threads outweighs the bounding work.
const PARALLEL_BOUND_THRESHOLD: usize = 96;

/// Upper limit on the worker threads the freeze uses (the freeze is setup
/// work shared by every experiment, not a measured quantity, so grabbing
/// every core is unnecessary).
const MAX_FREEZE_THREADS: usize = 8;

/// Number of pending nodes selected per wave of the freeze.
const WAVE_PARENTS: usize = 32;

/// Bounds every node of `children` in place, fanning the work out over scoped
/// worker threads when the wave is large enough to amortise the spawns.
///
/// Determinism: the lower bound is a pure function of the node, every node is
/// bounded exactly once, and the caller consumes the slice in its original
/// order — so the parallel schedule cannot change any observable result.
fn bound_wave<B: NodeBound>(problem: &FspProblem<B>, children: &mut [FspNode]) {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_FREEZE_THREADS);
    if threads < 2 || children.len() < PARALLEL_BOUND_THRESHOLD {
        problem.bound_all(children);
        return;
    }
    let chunk = children.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for part in children.chunks_mut(chunk) {
            scope.spawn(move || problem.bound_all(part));
        }
    });
}

/// Explores `problem` with a best-first sequential B&B (seeded with the NEH
/// incumbent) until the pending pool holds at least `target_size`
/// sub-problems, then freezes and returns it.
///
/// The exploration is deterministic: the same problem and target always
/// produce the same list, which is what makes cross-solver comparisons fair.
pub fn frozen_pool<B: NodeBound>(problem: &FspProblem<B>, target_size: usize) -> FrozenPool {
    frozen_pool_with_strategy(problem, target_size, PoolStrategy::BestFirst)
}

/// Same as [`frozen_pool`] but with an explicit selection strategy.
///
/// The freeze dominates the wall time of the paper-shape experiments, so the
/// bounding operator — by far its hottest part — runs wave-parallel: a wave
/// of pending nodes is selected, their children are generated,
/// the whole wave of children is bounded on worker threads, and elimination /
/// incumbent updates are applied **sequentially in generation order**. The
/// bound is pure, so the exploration (and thus the frozen list) is exactly as
/// deterministic as the old one-node-at-a-time loop.
pub fn frozen_pool_with_strategy<B: NodeBound>(
    problem: &FspProblem<B>,
    target_size: usize,
    strategy: PoolStrategy,
) -> FrozenPool {
    let (neh_schedule, neh_value) = problem.initial_upper_bound();
    let ub = SharedUpperBound::new(neh_value);
    let mut best_schedule = Some(neh_schedule);

    let mut pool = strategy.build();
    let mut root = problem.root();
    problem.bound(&mut root);
    pool.push(root);

    let mut frozen: Vec<FspNode> = Vec::new();
    let mut parents: Vec<FspNode> = Vec::with_capacity(WAVE_PARENTS);
    let mut children: Vec<FspNode> = Vec::new();
    // Net pool growth per decomposed node is bounded by the branching factor;
    // sizing each wave against the remaining deficit keeps the frozen list
    // close to the target (a full wave near the target could overshoot it
    // several-fold).
    let branching = problem.instance().jobs().max(2);
    loop {
        // Selection: pop a wave of survivors (the same pruning test the
        // sequential loop applies at pop time).
        parents.clear();
        let deficit = target_size.saturating_sub(pool.len());
        let wave = deficit.div_ceil(branching - 1).clamp(1, WAVE_PARENTS);
        while parents.len() < wave && pool.len() + parents.len() < target_size {
            let Some(node) = pool.pop() else { break };
            if ub.prunes(node.bound()) {
                continue;
            }
            parents.push(node);
        }
        if parents.is_empty() {
            break;
        }

        // Branching (cheap, sequential), then bounding (the hot part) over
        // the whole wave in parallel.
        children.clear();
        for parent in &parents {
            problem.branch_into(parent, &mut children);
        }
        bound_wave(problem, &mut children);

        // Elimination and incumbent updates, sequentially in generation
        // order — identical on every run.
        for child in children.drain(..) {
            if problem.is_leaf(&child) {
                let cost = problem.leaf_cost(&child);
                if ub.try_improve(cost) {
                    best_schedule = Some(child.prefix_vec());
                }
            } else if !ub.prunes(child.bound()) {
                pool.push(child);
            }
        }

        if pool.len() >= target_size {
            // Freeze. Nodes that became prunable while they waited in the
            // pool (the incumbent kept improving) carry no work for any
            // solver — drop them, and keep exploring if that leaves the
            // list short of the target.
            frozen = pool.drain_all();
            frozen.retain(|n| !ub.prunes(n.bound()));
            if frozen.len() >= target_size {
                break;
            }
            for node in frozen.drain(..) {
                pool.push(node);
            }
        }
    }
    if frozen.is_empty() {
        frozen = pool.drain_all();
        frozen.retain(|n| !ub.prunes(n.bound()));
    }

    FrozenPool {
        nodes: frozen,
        upper_bound: ub.get(),
        best_schedule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{SerialSolver, SolverConfig};
    use fsp::brute::brute_force_optimal;
    use fsp::taillard::generate;

    #[test]
    fn frozen_pool_reaches_the_requested_size() {
        let problem = FspProblem::new(generate("t", 20, 10, 77));
        let frozen = frozen_pool(&problem, 256);
        assert!(frozen.len() >= 256, "only {} nodes frozen", frozen.len());
        // Every frozen node has an evaluated bound below the incumbent.
        assert!(frozen
            .nodes
            .iter()
            .all(|n| n.bound() > 0 && n.bound() < frozen.upper_bound));
    }

    #[test]
    fn frozen_pool_is_deterministic() {
        let problem = FspProblem::new(generate("t", 15, 8, 5));
        let a = frozen_pool(&problem, 100);
        let b = frozen_pool(&problem, 100);
        assert_eq!(a.upper_bound, b.upper_bound);
        assert_eq!(a.nodes.len(), b.nodes.len());
        let prefixes_a: Vec<_> = a.nodes.iter().map(|n| n.prefix_vec()).collect();
        let prefixes_b: Vec<_> = b.nodes.iter().map(|n| n.prefix_vec()).collect();
        assert_eq!(prefixes_a, prefixes_b);
    }

    #[test]
    fn easy_instances_may_be_solved_during_freezing() {
        // For a trivially small instance the exploration can exhaust the tree
        // before reaching the target size.
        let problem = FspProblem::new(generate("t", 4, 3, 9));
        let frozen = frozen_pool(&problem, 10_000);
        assert!(frozen.len() < 10_000);
    }

    #[test]
    fn resuming_from_the_frozen_pool_finds_the_optimum() {
        let inst = generate("t", 8, 4, 51);
        let (_, expected) = brute_force_optimal(&inst);
        let problem = FspProblem::new(inst);
        let frozen = frozen_pool(&problem, 64);
        let solver = SerialSolver::new(problem, SolverConfig::default());
        let outcome = solver.solve_from(
            frozen.nodes.clone(),
            Some(frozen.upper_bound),
            frozen.best_schedule.clone(),
        );
        assert_eq!(outcome.best_makespan, expected);
    }

    #[test]
    fn remaining_work_counts_unscheduled_jobs() {
        let inst = generate("t", 10, 5, 3);
        let problem = FspProblem::new(inst.clone());
        let frozen = frozen_pool(&problem, 32);
        let expected: usize = frozen.nodes.iter().map(|n| 10 - n.depth()).sum();
        assert_eq!(frozen.remaining_work(&inst), expected);
    }

    #[test]
    fn breadth_oriented_strategies_freeze_a_valid_pool() {
        // Best-first and FIFO freezing never reach a leaf before the target
        // size, so the frozen list must hit the target and consist of live
        // nodes only.
        let problem = FspProblem::new(generate("t", 20, 10, 4));
        for strategy in [PoolStrategy::BestFirst, PoolStrategy::Fifo] {
            let frozen = frozen_pool_with_strategy(&problem, 128, strategy);
            assert!(
                frozen.len() >= 128,
                "{strategy:?} froze only {}",
                frozen.len()
            );
            assert!(
                frozen
                    .nodes
                    .iter()
                    .all(|n| n.bound() > 0 && n.bound() < frozen.upper_bound),
                "{strategy:?} froze nodes that should have been pruned"
            );
        }
    }

    #[test]
    fn depth_first_freezing_may_solve_the_instance_outright() {
        // A depth-first freeze dives to leaves, tightens the incumbent and can
        // prune the whole tree before the target size is reached — in that
        // case the frozen list is simply smaller (possibly empty) and the
        // incumbent is already optimal. Use a small instance so exhaustion is
        // cheap either way.
        let inst = generate("t", 9, 5, 4);
        let (_, expected) = fsp::brute::brute_force_optimal(&inst);
        let problem = FspProblem::new(inst);
        let frozen = frozen_pool_with_strategy(&problem, 64, PoolStrategy::DepthFirst);
        assert!(frozen.nodes.iter().all(|n| n.bound() > 0));
        if frozen.len() < 64 {
            // Tree exhausted during freezing: the incumbent must be optimal.
            assert_eq!(frozen.upper_bound, expected);
        }
    }
}
