//! The traced replay of the strict solve loop, through public calls only.
//!
//! It repeats what `GpuBnbSolver::solve_from` (lookahead off) and the
//! service's job loop do: pop from a `BestFirstPool` with the
//! `SharedUpperBound` test, `FspProblem::branch_into`, `bound_batch` on the
//! backend `make_backend` builds, then set-bound, leaf, prune and push. A
//! span wraps every call, and each batch is also bounded with the host
//! reference so the bound's own cost (`fsp.bound`) is known. The
//! replay must end with the untraced solve's node count, makespan and cost
//! counters, or its per-layer numbers describe some other search.

use crate::trace::Tracer;
use bb::pool::Pool;
use bb::{BestFirstPool, FspNode, FspProblem, SharedUpperBound};
use fsp::bound::counts::AccessCounts;
use fsp::{BoundScratch, Job, JohnsonLowerBound, Time};
use gpu_bnb::{make_backend, CostReport, GpuSolverConfig};

/// Counters the replay gathers at the layer boundaries.
#[derive(Debug, Default, Clone)]
pub struct LayerCounts {
    /// Nodes popped by selection, and those pruned at the pop.
    pub selected: u64,
    pub select_pruned: u64,
    /// Children branching produced.
    pub children: u64,
    /// Children eliminated, and those pushed back into the pool.
    pub eliminated: u64,
    pub pushed: u64,
    pub max_pool: usize,
    /// Nodes re-bounded with the host reference, and bound mismatches.
    pub reference_nodes: u64,
    pub reference_mismatches: u64,
    /// Wall nanoseconds of every `bound_batch` call and of the host
    /// reference bound of the same batch, batch by batch. The reference runs
    /// right after the call, on warm caches, so `bound_batch` keeps the cache
    /// state it has in the untraced loop and the difference between the two
    /// is the backend's own cost: encoding, bookkeeping and the cold start.
    pub batch_ns: Vec<u64>,
    pub reference_ns: Vec<u64>,
    pub batch_lens: Vec<usize>,
    pub neh_calls: u64,
    pub neh_ns: u64,
}

/// What a replayed solve ended with.
#[derive(Debug, Clone)]
pub struct Replayed {
    pub bounded: u64,
    pub best_makespan: Time,
    pub best_schedule: Option<Vec<Job>>,
    pub cost: CostReport,
}

/// Where a replay starts: explicit nodes and incumbent (a frozen pool or a
/// warm start), or the bounded root with the NEH incumbent.
pub struct Start {
    pub nodes: Option<Vec<FspNode>>,
    pub upper_bound: Option<Time>,
    pub schedule: Option<Vec<Job>>,
}

/// The modelled serial access count of bounding `nodes` (Table I), as the
/// solvers charge it.
pub fn serial_accesses(jobs: usize, machines: usize, nodes: &[FspNode]) -> u64 {
    nodes
        .iter()
        .map(|node| match jobs - node.depth() {
            0 => 0,
            np => AccessCounts::impl_expected(jobs, machines, np).total(),
        })
        .sum()
}

/// Replays one solve of `problem` under `config`, recording spans into
/// `tracer` and counts into `counts`.
pub fn replay(
    problem: &FspProblem<JohnsonLowerBound>,
    config: &GpuSolverConfig,
    start: Start,
    tracer: &mut Tracer,
    counts: &mut LayerCounts,
) -> Replayed {
    let inst = problem.instance();
    let (n, m) = (inst.jobs(), inst.machines());
    let mut cost = CostReport::default();

    let mut best_schedule = start.schedule;
    let ub = match start.upper_bound {
        Some(value) => SharedUpperBound::new(value),
        None if config.use_initial_ub => {
            let span = tracer.begin("fsp.neh");
            let (perm, value) = problem.initial_upper_bound();
            counts.neh_ns += tracer.end(span);
            counts.neh_calls += 1;
            best_schedule = Some(perm);
            SharedUpperBound::new(value)
        }
        None => SharedUpperBound::unbounded(),
    };
    let initial = start.nodes.unwrap_or_else(|| {
        let mut root = problem.root();
        problem.bound(&mut root);
        vec![root]
    });
    cost.record_host_bound(initial.len() as u64);

    let span = tracer.begin("backend.make");
    let mut backend = make_backend(problem, config, config.pool_size + n);
    tracer.end(span);

    let mut pool = BestFirstPool::new();
    for node in initial {
        pool.push(node);
    }
    counts.max_pool = counts.max_pool.max(pool.len());

    let reference = problem.bound_fn().clone();
    let mut scratch = BoundScratch::new();
    let mut bounded = 0u64;
    loop {
        if config.node_limit.is_some_and(|limit| bounded >= limit) {
            break;
        }

        let select = tracer.begin("bb.select");
        let mut batch: Vec<FspNode> = Vec::with_capacity(config.pool_size + n);
        while batch.len() < config.pool_size {
            let Some(node) = pool.pop() else { break };
            counts.selected += 1;
            if ub.prunes(node.bound()) {
                counts.select_pruned += 1;
                continue;
            }
            let before = batch.len();
            let branch = tracer.begin("bb.branch");
            problem.branch_into(&node, &mut batch);
            tracer.end(branch);
            counts.children += (batch.len() - before) as u64;
        }
        tracer.end(select);
        if batch.is_empty() {
            if pool.is_empty() {
                break;
            }
            continue;
        }

        let span = tracer.begin("backend.bound_batch");
        let result = backend.bound_batch(&batch);
        counts.batch_ns.push(tracer.end(span));
        counts.batch_lens.push(batch.len());

        let span = tracer.begin("fsp.bound");
        let mut mismatches = 0u64;
        for (node, &bound) in batch.iter().zip(&result.bounds) {
            let host = reference
                .bound_prefix_fn_with(&mut scratch, node.front(), |j| node.is_scheduled(j));
            mismatches += u64::from(host != bound);
        }
        counts.reference_ns.push(tracer.end(span));
        counts.reference_nodes += batch.len() as u64;
        counts.reference_mismatches += mismatches;

        let acc = result.accounting;
        let accesses = serial_accesses(n, m, &batch);
        cost.record_backend_batch(&acc, batch.len() as u64, accesses);

        let span = tracer.begin("bb.eliminate");
        for (mut child, bound) in batch.into_iter().zip(result.bounds) {
            child.set_bound(bound);
            bounded += 1;
            counts.eliminated += 1;
            if problem.is_leaf(&child) {
                let value = problem.leaf_cost(&child);
                if ub.try_improve(value) {
                    best_schedule = Some(child.prefix_vec());
                }
            } else if !ub.prunes(bound) {
                pool.push(child);
                counts.pushed += 1;
            }
        }
        counts.max_pool = counts.max_pool.max(pool.len());
        tracer.end(span);
    }

    Replayed {
        bounded,
        best_makespan: ub.get(),
        best_schedule,
        cost,
    }
}

/// The replay-fidelity check: the replay must reproduce the untraced
/// solve's bounded-node count, makespan, schedule and every cost counter.
pub fn same_search(
    replayed: &Replayed,
    bounded: u64,
    makespan: Time,
    schedule: Option<&[Job]>,
    cost: &CostReport,
) -> Result<(), String> {
    if replayed.bounded != bounded {
        return Err(format!(
            "replay bounded {} nodes, the solve {bounded}",
            replayed.bounded
        ));
    }
    if replayed.best_makespan != makespan {
        return Err(format!(
            "replay reached makespan {}, the solve {makespan}",
            replayed.best_makespan
        ));
    }
    if replayed.best_schedule.as_deref() != schedule {
        return Err("replay reached another schedule than the solve".into());
    }
    if replayed.cost != *cost {
        let diff: Vec<String> = replayed
            .cost
            .counters()
            .iter()
            .zip(cost.counters())
            .filter(|(a, b)| a.1 != b.1)
            .map(|(a, b)| format!("{}: {} vs {}", a.0, a.1, b.1))
            .collect();
        return Err(format!("replay cost counters differ: {}", diff.join(", ")));
    }
    Ok(())
}
