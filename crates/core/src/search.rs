//! The one branch-and-bound loop body both solve drivers share.
//!
//! Figure 3 of the paper is a single loop run again and again: select,
//! branch, bound on the device, eliminate. [`Search`] owns the host-side
//! state that loop reads and writes — the best-first pool, the incumbent and
//! the node counters — and holds the one copy of every host operator. The
//! drivers only decide *when* a batch is bounded and who pays for it:
//! [`crate::solver::GpuBnbSolver`] runs one search with its limits, a
//! checkpoint and an optional lookahead batch, and the service steps many
//! searches one batch per round on shared backends.

use crate::backend::BackendAccounting;
use crate::config::GpuSolverConfig;
use crate::cost::{CostReport, SolveLatencies};
use crate::fault::SolveCheckpoint;
use crate::service::IncumbentUpdate;
use crate::stats::GpuRunStats;
use bb::pool::Pool;
use bb::stats::SolveStats;
use bb::{BestFirstPool, FspNode, FspProblem, SharedUpperBound};
use fsp::{Job, JohnsonLowerBound, Time};
use std::time::Duration;

/// The accounting one bounded batch updates: legacy run stats, the
/// deterministic cost counters and the latency histograms. A standalone
/// solve keeps one; a shared backend keeps one for its fleet-wide totals
/// plus one per job (the carve the service returns in each
/// [`crate::service::JobOutcome`]).
#[derive(Debug, Default, Clone)]
pub(crate) struct SharedAccounting {
    pub(crate) gpu: GpuRunStats,
    pub(crate) cost: CostReport,
    pub(crate) latencies: SolveLatencies,
}

impl SharedAccounting {
    pub(crate) fn record_batch(
        &mut self,
        acc: &BackendAccounting,
        launch_times: &[Duration],
        nodes: u64,
        serial_accesses: u64,
    ) {
        self.gpu.absorb_batch(acc, nodes, serial_accesses);
        self.cost.record_backend_batch(acc, nodes, serial_accesses);
        for launch in launch_times {
            self.latencies.launch.record(*launch);
        }
        self.latencies.batch.record(acc.device_time);
    }

    /// Closes the books of a finished solve: its wall time and the one
    /// per-solve latency sample.
    pub(crate) fn close(&mut self, wall_time: Duration) {
        self.gpu.wall_time = wall_time;
        self.latencies.solve.record(self.gpu.device_schedule_time());
    }
}

/// The host-side state of one best-first search.
pub(crate) struct Search {
    problem: FspProblem<JohnsonLowerBound>,
    pool_size: usize,
    pool: BestFirstPool,
    ub: SharedUpperBound,
    best_schedule: Option<Vec<Job>>,
    stats: SolveStats,
}

impl Search {
    /// A search over the pending `initial_nodes`. The incumbent is
    /// `initial_ub` (achieved by `initial_schedule`, when known), else the
    /// NEH heuristic when [`GpuSolverConfig::use_initial_ub`] is set, else
    /// unbounded.
    pub(crate) fn new(
        problem: FspProblem<JohnsonLowerBound>,
        config: &GpuSolverConfig,
        initial_nodes: Vec<FspNode>,
        initial_ub: Option<Time>,
        initial_schedule: Option<Vec<Job>>,
    ) -> Self {
        let mut best_schedule = initial_schedule;
        let ub = match initial_ub {
            Some(v) => SharedUpperBound::new(v),
            None if config.use_initial_ub => {
                let (perm, value) = problem.initial_upper_bound();
                best_schedule = Some(perm);
                SharedUpperBound::new(value)
            }
            None => SharedUpperBound::unbounded(),
        };
        let mut pool = BestFirstPool::new();
        for node in initial_nodes {
            pool.push(node);
        }
        let stats = SolveStats {
            max_pool: pool.len(),
            ..Default::default()
        };
        Self {
            problem,
            pool_size: config.pool_size,
            pool,
            ub,
            best_schedule,
            stats,
        }
    }

    /// The node counters so far.
    pub(crate) fn stats(&self) -> SolveStats {
        self.stats
    }

    /// The incumbent makespan ([`Time::MAX`] while none exists).
    pub(crate) fn incumbent(&self) -> Time {
        self.ub.get()
    }

    /// Takes the schedule achieving the incumbent, when known.
    pub(crate) fn take_schedule(&mut self) -> Option<Vec<Job>> {
        self.best_schedule.take()
    }

    /// Number of pending sub-problems.
    pub(crate) fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// `true` when no sub-problem is pending: the tree is exhausted.
    pub(crate) fn is_exhausted(&self) -> bool {
        self.pool.is_empty()
    }

    /// Selection + branching on the CPU: accumulate children until the
    /// configured pool size is reached or the pending pool runs dry.
    pub(crate) fn select_batch(&mut self) -> Vec<FspNode> {
        let n = self.problem.instance().jobs();
        let mut batch: Vec<FspNode> = Vec::with_capacity(self.pool_size + n);
        while batch.len() < self.pool_size {
            let Some(node) = self.pool.pop() else { break };
            self.stats.selected += 1;
            if self.ub.prunes(node.bound()) {
                self.stats.pruned += 1;
                continue;
            }
            self.stats.decomposed += 1;
            self.problem.branch_into(&node, &mut batch);
        }
        batch
    }

    /// Elimination on the CPU of a batch bounded by the device: leaves may
    /// improve the incumbent (each improvement is reported to
    /// `on_improve`), pruned children are dropped, the rest join the pool.
    pub(crate) fn eliminate(
        &mut self,
        batch: Vec<FspNode>,
        bounds: Vec<Time>,
        mut on_improve: impl FnMut(IncumbentUpdate),
    ) {
        for (mut child, bound) in batch.into_iter().zip(bounds) {
            child.set_bound(bound);
            self.stats.bounded += 1;
            if self.problem.is_leaf(&child) {
                self.stats.leaves += 1;
                let cost = self.problem.leaf_cost(&child);
                if self.ub.try_improve(cost) {
                    self.stats.improvements += 1;
                    self.best_schedule = Some(child.prefix_vec());
                    on_improve(IncumbentUpdate {
                        makespan: cost,
                        after_nodes: self.stats.bounded,
                    });
                }
            } else if self.ub.prunes(bound) {
                self.stats.pruned += 1;
            } else {
                self.pool.push(child);
            }
        }
        self.stats.max_pool = self.stats.max_pool.max(self.pool.len());
    }

    /// The proven lower bound on the optimum: the best pending bound capped
    /// by the incumbent, or the incumbent itself once the tree is exhausted.
    pub(crate) fn proven_bound(&self) -> Time {
        let upper = self.ub.get();
        self.pool.best_bound().map_or(upper, |b| b.min(upper))
    }

    /// Freezes the search into a resume point carrying `cost`: the pool is
    /// drained in pop order (re-pushing in this order reproduces it
    /// exactly), alongside the incumbent and the proven bound.
    pub(crate) fn drain_checkpoint(&mut self, cost: CostReport) -> SolveCheckpoint {
        let inst = self.problem.instance();
        let proven_bound = self.proven_bound();
        let mut frontier = Vec::with_capacity(self.pool.len());
        while let Some(node) = self.pool.pop() {
            frontier.push((node.prefix_vec(), node.bound()));
        }
        SolveCheckpoint {
            jobs: inst.jobs(),
            machines: inst.machines(),
            upper_bound: self.ub.get(),
            best_schedule: self.best_schedule.clone(),
            proven_bound,
            cost,
            frontier,
        }
    }
}
