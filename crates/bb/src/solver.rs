//! The sequential Branch-and-Bound solver (the paper's single-CPU-core
//! baseline).
//!
//! One iteration performs the four operators of Section II-A: **selection**
//! (pop from the pool), **elimination** (discard if the bound reached the
//! incumbent), **branching** (one child per unscheduled job) and **bounding**
//! (evaluate every child's lower bound). Each operator is timed separately so
//! the "bounding dominates the wall time" preliminary experiment of the paper
//! can be reproduced.
//!
//! The pool holds `Pending` records, not nodes: a child that is bounded
//! but not yet selected is its parent (shared by all its siblings) plus the
//! job it schedules next. Only a selected child is built, so the search
//! allocates one node per decomposition rather than one per child.

use crate::node::FspNode;
use crate::pool::{PoolItem, PoolStrategy};
use crate::problem::{FspProblem, NodeBound};
use crate::stats::{OperatorTimes, SolveStats};
use crate::upper_bound::SharedUpperBound;
use fsp::{Instance, Job, Time};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A pending sub-problem: `parent` itself when `job` is `None` (an initial
/// node), otherwise the child of `parent` that schedules `job` next. Its
/// bound and depth are kept here so that ordering the pool never reads the
/// parent.
struct Pending {
    parent: Arc<FspNode>,
    job: Option<u32>,
    bound: Time,
    depth: u32,
}

impl Pending {
    /// The sub-problem as a node.
    fn node(self, inst: &Instance) -> Arc<FspNode> {
        match self.job {
            None => self.parent,
            Some(job) => Arc::new(self.parent.child(inst, job as Job)),
        }
    }
}

impl PoolItem for Pending {
    fn bound(&self) -> Time {
        self.bound
    }
    fn depth(&self) -> usize {
        self.depth as usize
    }
}

/// Why a solve terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The pool emptied: the returned incumbent is optimal.
    Exhausted,
    /// The configured node budget was spent.
    NodeLimit,
    /// The configured wall-clock budget was spent.
    TimeLimit,
    /// The solve paused at a batch boundary to emit a resumable checkpoint
    /// (GPU solver only — see the core crate's `checkpoint_after`).
    Checkpoint,
}

/// Configuration of a sequential solve.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Selection strategy (the paper uses best-first).
    pub strategy: PoolStrategy,
    /// Stop after this many lower-bound evaluations.
    pub node_limit: Option<u64>,
    /// Stop after this much wall-clock time.
    pub time_limit: Option<Duration>,
    /// Seed the incumbent with the NEH heuristic before exploring.
    pub use_initial_ub: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            strategy: PoolStrategy::BestFirst,
            node_limit: None,
            time_limit: None,
            use_initial_ub: true,
        }
    }
}

/// Result of a sequential solve.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// Best makespan found (the optimum when `stop == Exhausted` and the
    /// search started from the root).
    pub best_makespan: Time,
    /// Schedule achieving `best_makespan`, if any complete schedule was
    /// reached or supplied as the initial incumbent.
    pub best_schedule: Option<Vec<Job>>,
    /// Node counters.
    pub stats: SolveStats,
    /// Per-operator wall-clock breakdown.
    pub times: OperatorTimes,
    /// Why the solve stopped.
    pub stop: StopReason,
    /// Total wall-clock time.
    pub elapsed: Duration,
}

impl SolveOutcome {
    /// `true` when the search proved optimality (explored or pruned the whole
    /// tree).
    pub fn is_optimal(&self) -> bool {
        self.stop == StopReason::Exhausted
    }
}

/// The sequential B&B solver.
pub struct SerialSolver<B = fsp::JohnsonLowerBound> {
    problem: FspProblem<B>,
    config: SolverConfig,
}

impl<B: NodeBound> SerialSolver<B> {
    /// Creates a solver for `problem` with the given configuration.
    pub fn new(problem: FspProblem<B>, config: SolverConfig) -> Self {
        Self { problem, config }
    }

    /// Creates a solver with the default (best-first, NEH-seeded)
    /// configuration.
    pub fn with_defaults(problem: FspProblem<B>) -> Self {
        Self::new(problem, SolverConfig::default())
    }

    /// The underlying problem.
    pub fn problem(&self) -> &FspProblem<B> {
        &self.problem
    }

    /// Solves from the root of the tree.
    pub fn solve(&self) -> SolveOutcome {
        let mut root = self.problem.root();
        self.problem.bound(&mut root);
        self.solve_from(vec![root], None, None)
    }

    /// Continues a solve from an explicit list of pending sub-problems — the
    /// frozen-pool protocol used throughout the paper's evaluation so that
    /// the serial baseline and the accelerated solvers examine exactly the
    /// same nodes.
    ///
    /// `initial_ub` (and optionally the schedule achieving it) seeds the
    /// incumbent; when `None`, NEH is used if the configuration asks for it.
    pub fn solve_from(
        &self,
        initial_nodes: Vec<FspNode>,
        initial_ub: Option<Time>,
        initial_schedule: Option<Vec<Job>>,
    ) -> SolveOutcome {
        let start = Instant::now();
        let mut stats = SolveStats::default();
        let mut times = OperatorTimes::default();

        // Incumbent.
        let mut best_schedule = initial_schedule;
        let ub = match initial_ub {
            Some(v) => SharedUpperBound::new(v),
            None if self.config.use_initial_ub => {
                let (perm, value) = self.problem.initial_upper_bound();
                best_schedule = Some(perm);
                SharedUpperBound::new(value)
            }
            None => SharedUpperBound::unbounded(),
        };

        let inst = self.problem.instance();
        let machines = inst.machines();
        let mut pool = self.config.strategy.build();
        for node in initial_nodes {
            pool.push(Pending {
                bound: node.bound(),
                depth: node.depth() as u32,
                parent: Arc::new(node),
                job: None,
            });
        }
        stats.max_pool = pool.len();

        let mut stop = StopReason::Exhausted;
        let (mut jobs, mut fronts, mut bounds) = (Vec::new(), Vec::new(), Vec::new());
        loop {
            if let Some(limit) = self.config.node_limit {
                if stats.bounded >= limit {
                    stop = StopReason::NodeLimit;
                    break;
                }
            }
            if let Some(limit) = self.config.time_limit {
                if start.elapsed() >= limit {
                    stop = StopReason::TimeLimit;
                    break;
                }
            }

            // Selection.
            let t0 = Instant::now();
            let pending = pool.pop();
            times.selection += t0.elapsed();
            let Some(pending) = pending else {
                break;
            };
            stats.selected += 1;

            // Elimination of the selected node (its bound may have been
            // computed before the incumbent improved).
            let t0 = Instant::now();
            let prune = ub.prunes(pending.bound);
            times.elimination += t0.elapsed();
            if prune {
                stats.pruned += 1;
                continue;
            }

            // Branching: build the selected node, then its children's fronts
            // (one child per unscheduled job, in increasing job order).
            let t0 = Instant::now();
            let node = pending.node(inst);
            jobs.clear();
            jobs.extend(node.unscheduled());
            fronts.clear();
            node.push_children_fronts(inst, &jobs, &mut fronts);
            times.branching += t0.elapsed();
            stats.decomposed += 1;

            // Bounding of all the children, then their elimination in
            // generation order. No bound depends on the incumbent, so
            // bounding them together visits the same nodes.
            let t0 = Instant::now();
            bounds.clear();
            self.problem
                .bound_fn()
                .bound_children(&node, &jobs, &fronts, &mut bounds);
            times.bounding += t0.elapsed();
            stats.bounded += jobs.len() as u64;

            let t0 = Instant::now();
            let leaves = node.depth() + 1 == inst.jobs();
            for (i, (&job, &bound)) in jobs.iter().zip(&bounds).enumerate() {
                if leaves {
                    stats.leaves += 1;
                    if ub.try_improve(fronts[(i + 1) * machines - 1]) {
                        stats.improvements += 1;
                        best_schedule = Some(node.prefix().chain([job]).collect());
                    }
                } else if ub.prunes(bound) {
                    stats.pruned += 1;
                } else {
                    pool.push(Pending {
                        parent: Arc::clone(&node),
                        job: Some(job as u32),
                        bound,
                        depth: node.depth() as u32 + 1,
                    });
                }
            }
            times.elimination += t0.elapsed();
            stats.max_pool = stats.max_pool.max(pool.len());
        }

        SolveOutcome {
            best_makespan: ub.get(),
            best_schedule,
            stats,
            times,
            stop,
            elapsed: start.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsp::brute::brute_force_optimal;
    use fsp::taillard::generate;
    use fsp::OneMachineBound;

    fn solve_default(inst: fsp::Instance) -> SolveOutcome {
        SerialSolver::with_defaults(FspProblem::new(inst)).solve()
    }

    #[test]
    fn finds_the_optimum_of_tiny_instances() {
        for seed in 1..=8 {
            let inst = generate(format!("t{seed}"), 7, 4, seed * 37);
            let (_, expected) = brute_force_optimal(&inst);
            let outcome = solve_default(inst.clone());
            assert!(outcome.is_optimal());
            assert_eq!(
                outcome.best_makespan, expected,
                "wrong optimum for seed {seed}"
            );
            let sched = outcome.best_schedule.expect("schedule");
            assert_eq!(fsp::makespan(&inst, &sched), expected);
        }
    }

    #[test]
    fn optimum_is_independent_of_the_selection_strategy() {
        let inst = generate("t", 8, 5, 4242);
        let (_, expected) = brute_force_optimal(&inst);
        for strategy in [
            PoolStrategy::BestFirst,
            PoolStrategy::DepthFirst,
            PoolStrategy::Fifo,
        ] {
            let config = SolverConfig {
                strategy,
                ..Default::default()
            };
            let outcome = SerialSolver::new(FspProblem::new(inst.clone()), config).solve();
            assert_eq!(outcome.best_makespan, expected, "strategy {strategy:?}");
        }
    }

    #[test]
    fn weaker_bound_explores_at_least_as_many_nodes() {
        let inst = generate("t", 8, 4, 99);
        let strong = solve_default(inst.clone());
        let weak = SerialSolver::with_defaults(FspProblem::with_bound(
            inst.clone(),
            OneMachineBound::new(&inst),
        ))
        .solve();
        assert_eq!(strong.best_makespan, weak.best_makespan);
        assert!(weak.stats.bounded >= strong.stats.bounded);
    }

    #[test]
    fn node_limit_stops_the_search() {
        let inst = generate("t", 12, 10, 5);
        let config = SolverConfig {
            node_limit: Some(500),
            ..Default::default()
        };
        let outcome = SerialSolver::new(FspProblem::new(inst), config).solve();
        assert_eq!(outcome.stop, StopReason::NodeLimit);
        assert!(outcome.stats.bounded >= 500);
        // A NEH incumbent exists even when the search is truncated.
        assert!(outcome.best_schedule.is_some());
    }

    #[test]
    fn time_limit_stops_the_search() {
        let inst = generate("t", 14, 15, 6);
        let config = SolverConfig {
            time_limit: Some(Duration::from_millis(50)),
            ..Default::default()
        };
        let outcome = SerialSolver::new(FspProblem::new(inst), config).solve();
        assert_eq!(outcome.stop, StopReason::TimeLimit);
        assert!(outcome.elapsed >= Duration::from_millis(50));
    }

    #[test]
    fn without_initial_ub_the_first_leaves_set_the_incumbent() {
        let inst = generate("t", 6, 3, 8);
        let (_, expected) = brute_force_optimal(&inst);
        let config = SolverConfig {
            use_initial_ub: false,
            ..Default::default()
        };
        let outcome = SerialSolver::new(FspProblem::new(inst), config).solve();
        assert_eq!(outcome.best_makespan, expected);
        assert!(outcome.stats.improvements >= 1);
    }

    #[test]
    fn bounding_dominates_operator_times_on_wide_instances() {
        // The paper's preliminary observation: with m = 20 machines the
        // bounding operator takes the overwhelming share of the time.
        let inst = generate("t", 14, 20, 11);
        let config = SolverConfig {
            node_limit: Some(3_000),
            ..Default::default()
        };
        let outcome = SerialSolver::new(FspProblem::new(inst), config).solve();
        assert!(
            outcome.times.bounding_share() > 0.8,
            "bounding share unexpectedly low: {}",
            outcome.times.bounding_share()
        );
    }

    #[test]
    fn solve_from_a_frozen_list_reaches_the_same_optimum() {
        let inst = generate("t", 8, 4, 21);
        let (_, expected) = brute_force_optimal(&inst);
        let problem = FspProblem::new(inst.clone());
        // Manually freeze the pool after expanding the root.
        let mut root = problem.root();
        problem.bound(&mut root);
        let mut frozen = Vec::new();
        for mut child in problem.branch(&root) {
            problem.bound(&mut child);
            frozen.push(child);
        }
        let solver = SerialSolver::with_defaults(problem);
        let outcome = solver.solve_from(frozen, None, None);
        assert_eq!(outcome.best_makespan, expected);
    }

    /// The search loop over a pool of materialised nodes, one `FspNode` per
    /// pending child: the oracle for the visited node set.
    fn reference_solve(
        problem: &FspProblem,
        strategy: PoolStrategy,
        initial: Vec<FspNode>,
        (mut ub, mut best): (Time, Vec<Job>),
    ) -> (SolveStats, Time, Vec<Job>) {
        let mut stats = SolveStats::default();
        let mut pool = strategy.build();
        for node in initial {
            pool.push(node);
        }
        stats.max_pool = pool.len();
        while let Some(node) = pool.pop() {
            stats.selected += 1;
            if node.bound() >= ub {
                stats.pruned += 1;
                continue;
            }
            let mut children = problem.branch(&node);
            stats.decomposed += 1;
            problem.bound_all(&mut children);
            stats.bounded += children.len() as u64;
            for child in children {
                if problem.is_leaf(&child) {
                    stats.leaves += 1;
                    if problem.leaf_cost(&child) < ub {
                        ub = problem.leaf_cost(&child);
                        best = child.prefix_vec();
                        stats.improvements += 1;
                    }
                } else if child.bound() >= ub {
                    stats.pruned += 1;
                } else {
                    pool.push(child);
                }
            }
            stats.max_pool = stats.max_pool.max(pool.len());
        }
        (stats, ub, best)
    }

    #[test]
    fn visits_the_node_set_of_a_pool_of_nodes() {
        // Processing times of 1–3 make equal bounds, and so depth and
        // insertion-order tie-breaks, common.
        let ties = |n: usize, m: usize| {
            let times = (0..n * m).map(|i| (i * i % 7 % 3 + 1) as Time).collect();
            fsp::Instance::new("ties", n, m, times)
        };
        let instances = [
            generate("t", 8, 5, 3),
            generate("t", 9, 4, 17),
            generate("t", 10, 6, 29),
            ties(9, 3),
            ties(10, 4),
        ];
        for inst in instances {
            let (n, m, seed) = (inst.jobs(), inst.machines(), inst.name().to_string());
            let problem = FspProblem::new(inst);
            let mut root = problem.root();
            problem.bound(&mut root);
            let neh = problem.initial_upper_bound();
            // A frozen list mixes depths, so the depth tie-break matters.
            let frozen = crate::protocol::frozen_pool(&problem, 64);
            let frozen_ub = (frozen.upper_bound, frozen.best_schedule.clone().unwrap());
            for strategy in [
                PoolStrategy::BestFirst,
                PoolStrategy::DepthFirst,
                PoolStrategy::Fifo,
            ] {
                let solver = SerialSolver::new(
                    problem.clone(),
                    SolverConfig {
                        strategy,
                        ..Default::default()
                    },
                );
                for (outcome, initial, incumbent) in [
                    (solver.solve(), vec![root.clone()], (neh.1, neh.0.clone())),
                    (
                        solver.solve_from(
                            frozen.nodes.clone(),
                            Some(frozen_ub.0),
                            Some(frozen_ub.1.clone()),
                        ),
                        frozen.nodes.clone(),
                        frozen_ub.clone(),
                    ),
                ] {
                    let (stats, ub, best) = reference_solve(&problem, strategy, initial, incumbent);
                    let case = format!("{n}x{m} seed {seed}, {strategy:?}");
                    assert_eq!(outcome.stats, stats, "{case}");
                    assert_eq!(outcome.best_makespan, ub, "{case}");
                    assert_eq!(outcome.best_schedule, Some(best), "{case}");
                }
            }
        }
    }

    #[test]
    fn stats_are_internally_consistent() {
        let inst = generate("t", 7, 5, 3);
        let outcome = solve_default(inst);
        assert!(outcome.stats.selected >= outcome.stats.decomposed);
        assert!(outcome.stats.bounded >= outcome.stats.leaves);
        assert!(outcome.stats.max_pool > 0);
    }
}
