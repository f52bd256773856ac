//! The low-level multi-threaded B&B (the paper's Section V baseline).
//!
//! Worker threads share the pool of pending sub-problems and the incumbent,
//! exactly like a POSIX-threads implementation would: each worker repeatedly
//! pops a node, branches it, bounds the children **on its own CPU core** (one
//! [`FspProblem::bound_all`] call per decomposed node), and pushes the
//! surviving children back. The incumbent is a lock-free atomic;
//! the pool is a mutex-protected best-first heap.

use bb::pool::Pool;
use bb::problem::NodeBound;
use bb::stats::SolveStats;
use bb::{BestFirstPool, FspNode, FspProblem, SharedUpperBound};
use fsp::{Instance, Job, JohnsonLowerBound, Time};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Configuration of a multi-threaded CPU solve.
#[derive(Debug, Clone)]
pub struct MulticoreConfig {
    /// Number of worker threads (the paper sweeps 3, 5, 7, 9, 11).
    pub threads: usize,
    /// Stop after this many lower-bound evaluations (across all workers).
    pub node_limit: Option<u64>,
    /// Stop after this much wall-clock time.
    pub time_limit: Option<Duration>,
    /// Seed the incumbent with NEH.
    pub use_initial_ub: bool,
}

impl Default for MulticoreConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            node_limit: None,
            time_limit: None,
            use_initial_ub: true,
        }
    }
}

/// Result of a multi-threaded CPU solve.
#[derive(Debug, Clone)]
pub struct MulticoreOutcome {
    /// Best makespan found.
    pub best_makespan: Time,
    /// Schedule achieving it, when known.
    pub best_schedule: Option<Vec<Job>>,
    /// Node counters aggregated over all workers.
    pub stats: SolveStats,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Number of worker threads used.
    pub threads: usize,
    /// `true` when the tree was fully explored or pruned (no limit hit).
    pub exhausted: bool,
}

impl MulticoreOutcome {
    /// `true` when the tree was fully explored or pruned.
    pub fn is_optimal(&self) -> bool {
        self.exhausted
    }
}

/// The multi-threaded CPU B&B solver.
pub struct MulticoreSolver<B = JohnsonLowerBound> {
    problem: FspProblem<B>,
    config: MulticoreConfig,
}

impl MulticoreSolver<JohnsonLowerBound> {
    /// Creates a solver with the paper's Johnson lower bound.
    pub fn new(inst: Instance, config: MulticoreConfig) -> Self {
        Self {
            problem: FspProblem::new(inst),
            config,
        }
    }
}

impl<B: NodeBound> MulticoreSolver<B> {
    /// Creates a solver from an existing problem.
    pub fn from_problem(problem: FspProblem<B>, config: MulticoreConfig) -> Self {
        Self { problem, config }
    }

    /// The underlying problem.
    pub fn problem(&self) -> &FspProblem<B> {
        &self.problem
    }

    /// Solves from the root.
    pub fn solve(&self) -> MulticoreOutcome {
        let mut root = self.problem.root();
        self.problem.bound(&mut root);
        self.solve_from(vec![root], None, None)
    }

    /// Solves from an explicit list of pending sub-problems (frozen-pool
    /// protocol).
    pub fn solve_from(
        &self,
        initial_nodes: Vec<FspNode>,
        initial_ub: Option<Time>,
        initial_schedule: Option<Vec<Job>>,
    ) -> MulticoreOutcome {
        assert!(
            self.config.threads > 0,
            "at least one worker thread is required"
        );
        let start = Instant::now();

        let incumbent_schedule = Mutex::new(initial_schedule);
        let ub = match initial_ub {
            Some(v) => SharedUpperBound::new(v),
            None if self.config.use_initial_ub => {
                let (perm, value) = self.problem.initial_upper_bound();
                *incumbent_schedule.lock().unwrap() = Some(perm);
                SharedUpperBound::new(value)
            }
            None => SharedUpperBound::unbounded(),
        };

        let pool = Mutex::new(BestFirstPool::new());
        {
            let mut guard = pool.lock().unwrap();
            for node in initial_nodes {
                guard.push(node);
            }
        }

        let stats = Mutex::new(SolveStats::default());
        let busy_workers = AtomicUsize::new(0);
        let bounded_total = AtomicU64::new(0);
        let node_limit = self.config.node_limit.unwrap_or(u64::MAX);
        let deadline = self.config.time_limit.map(|limit| start + limit);
        let truncated = AtomicUsize::new(0);

        std::thread::scope(|scope| {
            for _ in 0..self.config.threads {
                scope.spawn(|| {
                    loop {
                        if bounded_total.load(Ordering::Relaxed) >= node_limit {
                            truncated.store(1, Ordering::Relaxed);
                            break;
                        }
                        if let Some(deadline) = deadline {
                            if Instant::now() >= deadline {
                                truncated.store(1, Ordering::Relaxed);
                                break;
                            }
                        }

                        busy_workers.fetch_add(1, Ordering::AcqRel);
                        let node = pool.lock().unwrap().pop();
                        let Some(node) = node else {
                            busy_workers.fetch_sub(1, Ordering::AcqRel);
                            if pool.lock().unwrap().is_empty()
                                && busy_workers.load(Ordering::Acquire) == 0
                            {
                                break;
                            }
                            std::thread::yield_now();
                            continue;
                        };

                        let mut local = SolveStats::default();
                        local.selected += 1;
                        if ub.prunes(node.bound()) {
                            local.pruned += 1;
                        } else {
                            local.decomposed += 1;
                            // Bounding happens on this worker's core: all
                            // the children first, then their elimination in
                            // generation order.
                            let mut children = self.problem.branch(&node);
                            self.problem.bound_all(&mut children);
                            local.bounded += children.len() as u64;
                            let mut survivors = Vec::with_capacity(children.len());
                            for child in children {
                                if self.problem.is_leaf(&child) {
                                    local.leaves += 1;
                                    let cost = self.problem.leaf_cost(&child);
                                    if ub.try_improve(cost) {
                                        local.improvements += 1;
                                        // Re-check under the lock: another worker
                                        // may have improved past `cost` between the
                                        // CAS and here, and its schedule must win.
                                        let mut guard = incumbent_schedule.lock().unwrap();
                                        if cost <= ub.get() {
                                            *guard = Some(child.prefix_vec());
                                        }
                                    }
                                } else if ub.prunes(child.bound()) {
                                    local.pruned += 1;
                                } else {
                                    survivors.push(child);
                                }
                            }
                            bounded_total.fetch_add(local.bounded, Ordering::Relaxed);
                            let mut guard = pool.lock().unwrap();
                            for child in survivors {
                                guard.push(child);
                            }
                            local.max_pool = guard.len();
                        }
                        {
                            let mut s = stats.lock().unwrap();
                            *s = s.add(&local);
                        }
                        busy_workers.fetch_sub(1, Ordering::AcqRel);
                    }
                });
            }
        });

        MulticoreOutcome {
            best_makespan: ub.get(),
            best_schedule: incumbent_schedule.into_inner().unwrap(),
            stats: stats.into_inner().unwrap(),
            elapsed: start.elapsed(),
            threads: self.config.threads,
            exhausted: truncated.load(Ordering::Relaxed) == 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsp::brute::brute_force_optimal;
    use fsp::taillard::generate;

    fn config(threads: usize) -> MulticoreConfig {
        MulticoreConfig {
            threads,
            ..Default::default()
        }
    }

    #[test]
    fn single_worker_finds_the_optimum() {
        let inst = generate("t", 7, 4, 7);
        let (_, expected) = brute_force_optimal(&inst);
        let outcome = MulticoreSolver::new(inst, config(1)).solve();
        assert!(outcome.is_optimal());
        assert_eq!(outcome.best_makespan, expected);
    }

    #[test]
    fn many_workers_agree_with_the_serial_solver() {
        let inst = generate("t", 8, 5, 123);
        let serial = bb::SerialSolver::with_defaults(FspProblem::new(inst.clone())).solve();
        for threads in [2, 4, 8] {
            let outcome = MulticoreSolver::new(inst.clone(), config(threads)).solve();
            assert_eq!(
                outcome.best_makespan, serial.best_makespan,
                "{threads} threads"
            );
            assert_eq!(outcome.threads, threads);
            let sched = outcome.best_schedule.expect("schedule");
            assert_eq!(fsp::makespan(&inst, &sched), outcome.best_makespan);
        }
    }

    #[test]
    fn one_worker_visits_the_serial_solvers_node_set() {
        // One worker runs the serial loop: same pool order, same bounds,
        // children eliminated in generation order.
        for (jobs, machines, seed) in [(8, 5, 3), (10, 6, 17), (12, 4, 5)] {
            let inst = generate("t", jobs, machines, seed);
            let serial = bb::SerialSolver::with_defaults(FspProblem::new(inst.clone())).solve();
            let outcome = MulticoreSolver::new(inst, config(1)).solve();
            let counts = |s: SolveStats| SolveStats { max_pool: 0, ..s };
            assert_eq!(counts(outcome.stats), counts(serial.stats));
            assert_eq!(outcome.best_makespan, serial.best_makespan);
            assert_eq!(outcome.best_schedule, serial.best_schedule);
        }
    }

    #[test]
    fn frozen_pool_start_reaches_the_same_optimum() {
        let inst = generate("t", 8, 4, 55);
        let (_, expected) = brute_force_optimal(&inst);
        let problem = FspProblem::new(inst);
        let frozen = bb::frozen_pool(&problem, 32);
        let solver = MulticoreSolver::from_problem(problem, config(3));
        let outcome =
            solver.solve_from(frozen.nodes, Some(frozen.upper_bound), frozen.best_schedule);
        assert_eq!(outcome.best_makespan, expected);
    }

    #[test]
    fn node_limit_truncates() {
        let inst = generate("t", 12, 10, 5);
        let cfg = MulticoreConfig {
            threads: 2,
            node_limit: Some(300),
            ..Default::default()
        };
        let outcome = MulticoreSolver::new(inst, cfg).solve();
        assert!(!outcome.is_optimal());
        assert!(outcome.stats.bounded >= 300);
    }

    #[test]
    fn stats_are_aggregated_across_workers() {
        let inst = generate("t", 8, 4, 9);
        let outcome = MulticoreSolver::new(inst, config(4)).solve();
        assert!(outcome.stats.bounded > 0);
        assert!(outcome.stats.selected >= outcome.stats.decomposed);
        assert!(outcome.elapsed > Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        let inst = generate("t", 5, 3, 1);
        MulticoreSolver::new(inst, config(0)).solve();
    }
}
