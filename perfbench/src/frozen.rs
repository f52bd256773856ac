//! The `frozen-*` workloads: the paper's frozen-pool protocol solved by
//! `GpuBnbSolver::solve_from` on backend `gpu`, fast-forward, lookahead off,
//! under a node budget.

use crate::calib::Calibration;
use crate::check::{self, Tally};
use crate::layers::{self, LayerInputs};
use crate::replay::{self, LayerCounts, Start};
use crate::stats::{median, ratio, tail, taillard_seed};
use crate::trace::Tracer;
use crate::{metric, peak_rss_mb, trace_path, Args, Report};
use bb::{frozen_pool, FrozenPool, FspProblem};
use fsp::Time;
use gpu_bnb::{BackendKind, GpuBnbSolver, GpuSolveOutcome, GpuSolverConfig};
use gpu_sim::HostModel;
use std::time::{Duration, Instant};

/// One frozen workload's shape and budget.
pub struct FrozenSpec {
    pub jobs: usize,
    pub machines: usize,
    /// Target size of the frozen list.
    pub frozen: usize,
    /// Nodes per off-loaded batch.
    pub pool_size: usize,
    /// Bounded nodes per solve.
    pub node_budget: u64,
    /// Instances per run, drawn from the seed, each set up once; several
    /// keep one instance's quirks from setting the run's figures, and
    /// `setup_s` is the median of their set-ups.
    pub instances: usize,
    salt: u64,
}

/// `frozen-20x20`: the smoke gate's frozen pool.
pub const SMALL: FrozenSpec = FrozenSpec {
    jobs: 20,
    machines: 20,
    frozen: 512,
    pool_size: 4096,
    node_budget: 8192,
    instances: 8,
    salt: 0x2020_0000_0000_2012,
};

/// `frozen-200x20`: the paper's largest class under the same protocol.
pub const LARGE: FrozenSpec = FrozenSpec {
    jobs: 200,
    machines: 20,
    frozen: 512,
    pool_size: 4096,
    node_budget: 4096,
    instances: 8,
    salt: 0x2000_0020_0000_2012,
};

/// Instances the traced run replays (the first ones of the run).
const TRACED_INSTANCES: usize = 4;

/// One set-up instance: the solver and its frozen list.
struct Prepared {
    time_seed: i64,
    solver: GpuBnbSolver,
    frozen: FrozenPool,
    /// A proven lower bound of the whole instance: nothing outside the
    /// frozen list can beat its incumbent, so the smaller of the incumbent
    /// and the best frozen bound holds.
    lower: Time,
}

impl Prepared {
    fn solve(&self) -> GpuSolveOutcome {
        self.solver.solve_from(
            self.frozen.nodes.clone(),
            Some(self.frozen.upper_bound),
            self.frozen.best_schedule.clone(),
        )
    }

    fn check(&self, outcome: &GpuSolveOutcome) -> Result<(), String> {
        check::certificate(
            self.solver.problem().instance(),
            outcome.best_schedule.as_deref(),
            outcome.best_makespan,
            self.lower,
            None,
        )?;
        if outcome.best_makespan > self.frozen.upper_bound {
            return Err("the solve lost the frozen incumbent".into());
        }
        Ok(())
    }
}

fn config(spec: &FrozenSpec) -> GpuSolverConfig {
    GpuSolverConfig {
        pool_size: spec.pool_size,
        node_limit: Some(spec.node_budget),
        fast_forward: true,
        backend: BackendKind::Gpu,
        lookahead: false,
        ..Default::default()
    }
}

/// Sets up instance `index` of the run, drawn with Taillard seed
/// `time_seed`. Returns it with the wall time of the whole set-up and of its
/// `frozen_pool` call.
fn prepare(spec: &FrozenSpec, index: usize, time_seed: i64) -> (Prepared, Duration, Duration) {
    let start = Instant::now();
    let name = format!("frozen-{}x{}-{index}", spec.jobs, spec.machines);
    let inst = fsp::taillard::generate(name, spec.jobs, spec.machines, time_seed);
    let problem = FspProblem::new(inst);
    let t = Instant::now();
    let frozen = frozen_pool(&problem, spec.frozen);
    let freeze = t.elapsed();
    let best = frozen.nodes.iter().map(|n| n.bound()).min();
    let lower = best.map_or(frozen.upper_bound, |b| b.min(frozen.upper_bound));
    let prepared = Prepared {
        time_seed,
        solver: GpuBnbSolver::from_problem(problem, config(spec)),
        frozen,
        lower,
    };
    (prepared, start.elapsed(), freeze)
}

/// Sets up the run's instances, each after a calibration slice. Returns them
/// with the set-up and `frozen_pool` seconds of each.
fn timed_setup(
    spec: &FrozenSpec,
    seed: u64,
    calibration: &mut Calibration,
) -> (Vec<Prepared>, Vec<f64>, Vec<f64>) {
    let mut state = seed ^ spec.salt;
    let (mut walls, mut freezes) = (Vec::new(), Vec::new());
    let prepared = (0..spec.instances)
        .map(|i| {
            calibration.sample();
            let (p, wall, freeze) = prepare(spec, i, taillard_seed(&mut state));
            walls.push(wall.as_secs_f64());
            freezes.push(freeze.as_secs_f64());
            p
        })
        .collect();
    (prepared, walls, freezes)
}

/// The untraced solve's figures every repetition must repeat exactly.
fn same_outcome(a: &GpuSolveOutcome, b: &GpuSolveOutcome) -> Result<(), String> {
    if a.stats.bounded != b.stats.bounded || a.best_makespan != b.best_makespan || a.cost != b.cost
    {
        return Err("a repeated solve differs from the first".into());
    }
    Ok(())
}

pub fn run(spec: &FrozenSpec, args: &Args) -> Result<Report, String> {
    if args.trace {
        return run_traced(spec, args);
    }
    let mut tally = Tally::default();
    let mut calibration = Calibration::new(args.seed, spec.jobs, &mut tally);
    let (prepared, mut setup_walls, _) = timed_setup(spec, args.seed, &mut calibration);

    // Solves cycle over the instances until the run time is used, with a
    // calibration slice before each; the first solve of each instance is
    // the reference every later one must reproduce. Each cycle starts by
    // setting one instance up again, so set-up is sampled across the run,
    // like the solves.
    let mut references: Vec<GpuSolveOutcome> = Vec::with_capacity(prepared.len());
    let mut latencies_ms = Vec::new();
    let mut nodes = 0u64;
    let mut measured = Duration::ZERO;
    let start = Instant::now();
    while start.elapsed() < args.run_for || latencies_ms.len() < 2 * prepared.len() {
        let i = latencies_ms.len() % prepared.len();
        if i == 0 {
            let again = setup_walls.len() % prepared.len();
            calibration.sample();
            let (_, wall, _) = prepare(spec, again, prepared[again].time_seed);
            setup_walls.push(wall.as_secs_f64());
        }
        let p = &prepared[i];
        calibration.sample();
        let t = Instant::now();
        let outcome = p.solve();
        let elapsed = t.elapsed();
        tally.attempt();
        tally.record(p.check(&outcome));
        match references.get(i) {
            Some(reference) => tally.record(same_outcome(&outcome, reference)),
            None => references.push(outcome.clone()),
        }
        latencies_ms.push(elapsed.as_secs_f64() * 1e3);
        nodes += outcome.stats.bounded;
        measured += elapsed;
    }
    let solves = latencies_ms.len();

    let host = HostModel::default();
    let device_s: f64 = references
        .iter()
        .map(|o| o.gpu.device_schedule_time().as_secs_f64())
        .sum();
    let serial_s: f64 = prepared
        .iter()
        .zip(&references)
        .map(|(p, o)| {
            let footprint = p.solver.matrix_footprint_bytes();
            o.gpu.modeled_serial_time(&host, footprint).as_secs_f64()
        })
        .sum();
    let gpu_s: f64 = references
        .iter()
        .map(|o| o.gpu.modeled_gpu_time(&host).as_secs_f64())
        .sum();
    let nodes_per_s = nodes as f64 / measured.as_secs_f64();
    let requests_per_s = solves as f64 / measured.as_secs_f64();
    let calib_ns = calibration.ns_per_node();
    let scale = calibration.time_scale();
    let setup_s = median(&setup_walls);
    let latency_tail = tail(&latencies_ms);
    let p50_ms = median(&latencies_ms);

    let notes = vec![
        format!(
            "{} x {}x{} instances, {:?} frozen nodes, budget {} nodes, {} solves in {:.2} s",
            spec.instances,
            spec.jobs,
            spec.machines,
            prepared.iter().map(|p| p.frozen.len()).collect::<Vec<_>>(),
            spec.node_budget,
            solves,
            measured.as_secs_f64()
        ),
        format!(
            "request_tail_ms is p{} of {} samples",
            latency_tail.percentile, latency_tail.samples
        ),
        format!(
            "calib.bound_ns_per_node {calib_ns:.1}; wall-clock metrics are rescaled by {scale:.4} \
             to the reference machine; setup_s is the median of {} set-ups",
            setup_walls.len()
        ),
        format!(
            "unscaled: setup_s {setup_s:.6} nodes_per_s {nodes_per_s:.1} request_p50_ms {p50_ms:.3} \
             request_tail_ms {:.3} requests_per_s {requests_per_s:.4}",
            latency_tail.value
        ),
        format!(
            "error_rate {} ({} of {})",
            tally.error_rate(),
            tally.failed,
            tally.attempted
        ),
    ];
    Ok(Report {
        metrics: vec![
            metric("setup_s", setup_s * scale, "s"),
            metric("nodes_per_s", nodes_per_s / scale, "1/s"),
            metric("modelled_device_s", device_s, "s"),
            metric("modelled_speedup", ratio(serial_s, gpu_s), "x"),
            metric("request_p50_ms", p50_ms * scale, "ms"),
            metric("request_tail_ms", latency_tail.value * scale, "ms"),
            metric("requests_per_s", requests_per_s / scale, "1/s"),
            metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        ],
        tally,
        notes,
    })
}

fn run_traced(spec: &FrozenSpec, args: &Args) -> Result<Report, String> {
    let mut tally = Tally::default();
    let mut calibration = Calibration::new(args.seed, spec.jobs, &mut tally);
    let (prepared, _, freezes) = timed_setup(spec, args.seed, &mut calibration);
    let neh_ms: Vec<f64> = prepared
        .iter()
        .map(|p| {
            let t = Instant::now();
            std::hint::black_box(fsp::neh::neh(p.solver.problem().instance()));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();

    let mut tracer = Tracer::new();
    let mut counts = LayerCounts::default();
    let mut untraced_ns = 0.0;
    let mut traced_wall = Duration::ZERO;
    let mut cost = gpu_bnb::CostReport::default();
    let traced = &prepared[..TRACED_INSTANCES.min(prepared.len())];
    for (i, p) in traced.iter().enumerate() {
        // Untraced: the median of two solves (the first also warms up).
        let mut walls = Vec::new();
        let mut reference = None;
        for _ in 0..2 {
            let t = Instant::now();
            let outcome = p.solve();
            walls.push(t.elapsed().as_secs_f64() * 1e9);
            tally.attempt();
            tally.record(p.check(&outcome));
            reference = Some(outcome);
        }
        let reference = reference.expect("two untraced solves");
        untraced_ns += median(&walls);

        tracer.set_id(i as u64);
        let t = Instant::now();
        let root = tracer.begin("replay");
        let replayed = replay::replay(
            p.solver.problem(),
            p.solver.config(),
            Start {
                nodes: Some(p.frozen.nodes.clone()),
                upper_bound: Some(p.frozen.upper_bound),
                schedule: p.frozen.best_schedule.clone(),
            },
            &mut tracer,
            &mut counts,
        );
        tracer.end(root);
        traced_wall += t.elapsed();
        replay::same_search(
            &replayed,
            reference.stats.bounded,
            reference.best_makespan,
            reference.best_schedule.as_deref(),
            &reference.cost,
        )
        .map_err(|e| format!("replay fidelity failed on instance {i}: {e}"))?;
        cost.absorb(&reference.cost);
    }
    if counts.reference_mismatches > 0 {
        tally.fail(format!(
            "{} backend bounds differ from the host reference",
            counts.reference_mismatches
        ));
    }
    tally.record(layers::check_self_times(
        &tracer,
        traced_wall.as_nanos() as u64,
    ));
    let calib_ns = calibration.ns_per_node();

    let path = trace_path(args);
    tracer
        .write_chrome(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    let data = prepared[0].solver.problem().bound_fn().data();
    let metrics = layers::metrics(&LayerInputs {
        counts: &counts,
        tracer: &tracer,
        untraced_ns,
        cost,
        matrix_bytes: data.sizes_bytes().iter().sum::<usize>() as f64,
        frozen_pool_s: median(&freezes),
        neh_ms_per_call: median(&neh_ms),
        neh_calls: prepared.len() as f64,
        fleet_plan_ns_per_batch: 0.0,
        cache: Default::default(),
        service: Default::default(),
        calib_ns_per_node: calib_ns,
        error_rate: tally.error_rate(),
    });
    let notes = vec![
        format!(
            "trace written to {} ({} spans)",
            path.display(),
            tracer.spans().len()
        ),
        format!("replay fidelity: {} instances identical", traced.len()),
    ];
    Ok(Report {
        metrics,
        tally,
        notes,
    })
}
