//! The `requests-mixed` workload: one client in a closed loop making
//! sequential `SolveService::request` calls on backend `fleet:2`.
//!
//! The stream is generated from the seed and mixes three kinds: exact
//! repeats of earlier requests (cache hits, the majority, so the median sits
//! among them), `gpu_bnb::perturbed` neighbours of earlier requests (warm
//! starts), and cold solves to proven optimality (the first instance of each
//! shape, or a fresh instance with the cache disabled). The stream is split
//! into sessions of [`SESSION`] requests, each against a fresh service (a
//! client reconnecting). It is served in passes while another fits in the
//! run time; the same seed gives the same requests, and every pass the same
//! answers and counts.

use crate::calib::Calibration;
use crate::check::{self, Tally};
use crate::layers::{self, CacheLayer, LayerInputs, ServiceLayer};
use crate::replay::{self, LayerCounts, Start};
use crate::stats::{median, ratio, splitmix64, tail, taillard_seed};
use crate::trace::Tracer;
use crate::{metric, peak_rss_mb, trace_path, Args, Report};
use bb::{FspProblem, SerialSolver};
use fsp::Instance;
use gpu_bnb::{
    fleet_member_specs, launch_models, member_models, perturbed, plan_shards_weighted, steal_pass,
    BackendKind, CacheDisposition, CachePolicy, Certificate, ConfigKey, FleetTopology,
    GpuBnbSolver, GpuSolverConfig, InstanceKey, RequestOutcome, ServiceConfig, SolveCache,
    SolveRequest, SolveService, DEFAULT_CACHE_CAPACITY,
};
use gpu_sim::HostModel;
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Instance shapes of the stream. Eight and nine jobs keep the slowest
/// cold solve within tens of milliseconds: at 11 to 13 jobs some generated
/// instances take seconds, and the stream never filters instances by
/// difficulty. Twelve shapes let cache eviction retire a shape's entries
/// often, so warm starts descend from many first-of-shape instances rather
/// than from a handful.
const SHAPES: [(usize, usize); 12] = [
    (8, 5),
    (8, 6),
    (8, 7),
    (8, 8),
    (8, 9),
    (8, 10),
    (9, 5),
    (9, 6),
    (9, 7),
    (9, 8),
    (9, 9),
    (9, 10),
];
/// Requests per session; one service (and its cache) serves a session.
const SESSION: usize = 250;
/// Sessions of the stream: 9500 requests, just under the 10 000 at which
/// the tail would move from p99 (95 requests beyond it) to p99.9 (10). A
/// pass takes about 5 s on a 2-vCPU machine. Short sessions found many
/// warm-start families (each session starts with an empty cache), so a few
/// hard first-of-shape instances do not set the stream's cost.
const SESSIONS: usize = 38;
/// Shares of repeats and perturbed neighbours, in percent; cold solves take
/// the rest. A hit right after a solve is slower than one after a hit (the
/// solve evicted its data), and with 80 % repeats the median request falls
/// among hits after hits, away from the step between the two.
const REPEAT_PCT: u64 = 80;
const PERTURB_PCT: u64 = 10;
/// Repeats and perturbations pick among this many most recent cached
/// instances, well inside the service cache's capacity, so a repeat is
/// always still cached.
const RECENT: usize = 32;
/// Cells a perturbed neighbour edits.
const EDITS: usize = 2;
const POOL_SIZE: usize = 256;
/// Sessions the traced run serves and replays (the first ones of the run).
const TRACED_SESSIONS: usize = 8;
/// Requests between two calibration slices.
const CALIBRATE_EVERY: usize = 100;
/// Jobs of the calibration kernel's class: the stream's instances are
/// smaller than any calibration worth timing, so it uses 20×20.
const CALIBRATION_JOBS: usize = 20;
const SALT: u64 = 0x5E91_CE00_0000_2012;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Repeat,
    Perturbed,
    /// First instance of its shape, cached.
    First,
    /// Fresh instance with the cache disabled.
    Cold,
}

struct Request {
    kind: Kind,
    instance: Instance,
}

impl Request {
    fn to_solve_request(&self) -> SolveRequest {
        let policy = match self.kind {
            Kind::Cold => CachePolicy::Disabled,
            _ => CachePolicy::ReadWrite,
        };
        SolveRequest::new(self.instance.clone(), config()).with_cache(policy)
    }
}

fn config() -> GpuSolverConfig {
    GpuSolverConfig {
        pool_size: POOL_SIZE,
        fast_forward: true,
        backend: BackendKind::Fleet(FleetTopology::uniform(2)),
        ..Default::default()
    }
}

/// The stream of one seed, session by session.
fn generate(seed: u64, sessions: usize) -> Vec<Vec<Request>> {
    let mut state = seed ^ SALT;
    (0..sessions)
        .map(|s| generate_session(&mut state, s))
        .collect()
}

/// One session's requests. It mirrors the service cache's FIFO insertion
/// order, so it knows which shapes are still cached: a cold request whose
/// shape is not is the first of its shape and is cached (a miss); any other
/// cold request bypasses the cache.
fn generate_session(state: &mut u64, session: usize) -> Vec<Request> {
    let mut cached: VecDeque<Instance> = VecDeque::with_capacity(DEFAULT_CACHE_CAPACITY);
    let mut stream = Vec::with_capacity(SESSION);
    for i in 0..SESSION {
        let draw = splitmix64(state) % 100;
        let recent = cached.len().saturating_sub(RECENT);
        let pick = |state: &mut u64| {
            &cached[recent + (splitmix64(state) % (cached.len() - recent) as u64) as usize]
        };
        let request = if !cached.is_empty() && draw < REPEAT_PCT {
            Request {
                kind: Kind::Repeat,
                instance: pick(state).clone(),
            }
        } else if !cached.is_empty() && draw < REPEAT_PCT + PERTURB_PCT {
            let instance = perturbed(pick(state), splitmix64(state), EDITS);
            // Edits that cancel out give back a cached instance: a repeat.
            let kind = if cached.iter().any(|c| c.raw() == instance.raw()) {
                Kind::Repeat
            } else {
                Kind::Perturbed
            };
            Request { kind, instance }
        } else {
            let (n, m) = SHAPES[(splitmix64(state) % SHAPES.len() as u64) as usize];
            let name = format!("s{session}r{i}");
            let instance = fsp::taillard::generate(name, n, m, taillard_seed(state));
            let shape_cached = cached.iter().any(|c| (c.jobs(), c.machines()) == (n, m));
            let kind = if shape_cached {
                Kind::Cold
            } else {
                Kind::First
            };
            Request { kind, instance }
        };
        if matches!(request.kind, Kind::Perturbed | Kind::First) {
            if cached.len() == DEFAULT_CACHE_CAPACITY {
                cached.pop_front();
            }
            cached.push_back(request.instance.clone());
        }
        stream.push(request);
    }
    stream
}

/// One request as the client saw it.
struct Served {
    wall: Duration,
    outcome: RequestOutcome,
}

/// Serves one session on `service`, checking every answer.
fn serve(
    service: &SolveService,
    stream: &[Request],
    tally: &mut Tally,
    calibration: &mut Calibration,
) -> Vec<Served> {
    // The last certificate each cached instance was answered with, keyed by
    // its full processing-time matrix.
    let mut stored: HashMap<(usize, Vec<u32>), Certificate> = HashMap::new();
    let mut served = Vec::with_capacity(stream.len());
    for (i, request) in stream.iter().enumerate() {
        if i % CALIBRATE_EVERY == 0 {
            calibration.sample();
        }
        let solve = request.to_solve_request();
        let t = Instant::now();
        let outcome = service.request(solve);
        let wall = t.elapsed();
        tally.attempt();
        tally.record(check_answer(request, &outcome, &mut stored));
        served.push(Served { wall, outcome });
    }
    served
}

fn check_answer(
    request: &Request,
    outcome: &RequestOutcome,
    stored: &mut HashMap<(usize, Vec<u32>), Certificate>,
) -> Result<(), String> {
    let cert = &outcome.certificate;
    let inst = &request.instance;
    check::certificate(
        inst,
        cert.best_schedule.as_deref(),
        cert.best_makespan,
        cert.lower_bound,
        Some(cert.gap),
    )?;
    if cert.lower_bound != cert.best_makespan {
        return Err(format!("{} not proven optimal", inst.name()));
    }
    let expected = match request.kind {
        Kind::Repeat => matches!(outcome.disposition, CacheDisposition::Hit),
        Kind::Perturbed => matches!(outcome.disposition, CacheDisposition::WarmStart { .. }),
        Kind::First => outcome.disposition == CacheDisposition::Miss,
        Kind::Cold => outcome.disposition == CacheDisposition::Disabled,
    };
    if !expected {
        return Err(format!(
            "{:?} request answered {:?}",
            request.kind, outcome.disposition
        ));
    }
    if request.kind == Kind::Cold {
        return Ok(());
    }
    let key = (inst.jobs(), inst.raw().to_vec());
    if outcome.disposition == CacheDisposition::Hit {
        let previous = stored
            .get(&key)
            .ok_or("a hit on an instance never answered")?;
        if previous != cert || previous.gap.to_bits() != cert.gap.to_bits() {
            return Err("a hit differs from the stored certificate".into());
        }
    } else {
        stored.insert(key, cert.clone());
    }
    Ok(())
}

/// Kinds of the stream's requests that ran a solver from the root.
fn is_cold(outcome: &RequestOutcome) -> bool {
    matches!(
        outcome.disposition,
        CacheDisposition::Disabled | CacheDisposition::Miss
    )
}

/// The stream and one fresh service per session, with the wall time it
/// took to build them.
fn setup(seed: u64, sessions: usize) -> (Vec<Vec<Request>>, Vec<SolveService>, f64) {
    let t = Instant::now();
    let stream = generate(seed, sessions);
    let services = (0..sessions)
        .map(|_| SolveService::new(ServiceConfig::default()))
        .collect();
    (stream, services, t.elapsed().as_secs_f64())
}

/// Modelled device seconds and the modelled serial/GPU times of a pass.
fn modelled(stream: &[&Request], served: &[Served]) -> (f64, f64, f64) {
    let host = HostModel::default();
    let (mut device, mut serial, mut gpu) = (0.0, 0.0, 0.0);
    let mut footprints: HashMap<(usize, usize), usize> = HashMap::new();
    for (request, s) in stream.iter().zip(served) {
        let Some(job) = &s.outcome.job else { continue };
        let inst = &request.instance;
        let footprint = *footprints
            .entry((inst.jobs(), inst.machines()))
            .or_insert_with(|| GpuBnbSolver::new(inst.clone(), config()).matrix_footprint_bytes());
        device += job.gpu.device_schedule_time().as_secs_f64();
        serial += job.gpu.modeled_serial_time(&host, footprint).as_secs_f64();
        gpu += job.gpu.modeled_gpu_time(&host).as_secs_f64();
    }
    (device, serial, gpu)
}

pub fn run(args: &Args) -> Result<Report, String> {
    if args.trace {
        return run_traced(args);
    }
    let mut tally = Tally::default();
    let mut calibration = Calibration::new(args.seed, CALIBRATION_JOBS, &mut tally);
    let (sessions, services, first_setup) = setup(args.seed, SESSIONS);
    drop(services);
    let mut setup_walls = vec![first_setup];
    let stream: Vec<&Request> = sessions.iter().flatten().collect();

    // Passes over the whole stream until the run time is used; each session
    // of each pass gets a fresh service, dropped when the session ends.
    let mut latencies_ms: Vec<Vec<f64>> = vec![Vec::new(); stream.len()];
    let (mut wall, mut nodes, mut served_count) = (Duration::ZERO, 0u64, 0usize);
    let mut first: Option<Vec<Served>> = None;
    let start = Instant::now();
    let mut last_pass = Duration::ZERO;
    // Another pass only if it should end within the run time.
    while first.is_none() || start.elapsed() + last_pass <= args.run_for {
        let pass_start = Instant::now();
        let mut served = Vec::with_capacity(stream.len());
        for session in &sessions {
            let service = SolveService::new(ServiceConfig::default());
            served.extend(serve(&service, session, &mut tally, &mut calibration));
            // Set-up is measured again after every session, so it is
            // sampled across the run, like the requests.
            setup_walls.push(black_box(setup(args.seed, SESSIONS)).2);
        }
        for (samples, s) in latencies_ms.iter_mut().zip(&served) {
            samples.push(s.wall.as_secs_f64() * 1e3);
        }
        wall += served.iter().map(|s| s.wall).sum::<Duration>();
        nodes += served
            .iter()
            .filter_map(|s| s.outcome.job.as_ref())
            .map(|j| j.stats.bounded)
            .sum::<u64>();
        served_count += served.len();
        last_pass = pass_start.elapsed();
        match &first {
            None => first = Some(served),
            Some(first) => {
                let same = first.iter().zip(&served).all(|(a, b)| {
                    a.outcome.disposition == b.outcome.disposition
                        && a.outcome.request_cost == b.outcome.request_cost
                });
                if !same {
                    tally.fail("a pass answered differently from the first".into());
                }
            }
        }
    }
    let first = first.expect("at least one pass");
    let passes = served_count / stream.len();

    // One latency per request: its median over the passes.
    let latencies_ms: Vec<f64> = latencies_ms.iter().map(|s| median(s)).collect();
    let latency_tail = tail(&latencies_ms);
    let (device_s, serial_s, gpu_s) = modelled(&stream, &first);
    let calib_ns = calibration.ns_per_node();
    let scale = calibration.time_scale();
    let setup_s = median(&setup_walls);
    let nodes_per_s = nodes as f64 / wall.as_secs_f64();
    let requests_per_s = served_count as f64 / wall.as_secs_f64();
    let p50_ms = median(&latencies_ms);
    let count = |pred: fn(&CacheDisposition) -> bool| {
        first
            .iter()
            .filter(|s| pred(&s.outcome.disposition))
            .count()
    };
    let notes = vec![
        format!(
            "{} requests x {passes} passes in {:.2} s; per pass {} hits, {} warm starts, {} cold, {} bounded nodes, {} modelled schedule ns",
            stream.len(),
            wall.as_secs_f64(),
            count(|d| *d == CacheDisposition::Hit),
            count(|d| matches!(d, CacheDisposition::WarmStart { .. })),
            count(|d| matches!(d, CacheDisposition::Miss | CacheDisposition::Disabled)),
            nodes / passes as u64,
            first.iter().map(|s| s.outcome.request_cost.schedule_nanos).sum::<u64>(),
        ),
        format!(
            "request_tail_ms is p{} of {} requests, each the median of its passes",
            latency_tail.percentile, latency_tail.samples
        ),
        format!(
            "calib.bound_ns_per_node {calib_ns:.1}; wall-clock metrics are rescaled by {scale:.4} \
             to the reference machine; setup_s is the median of {} set-ups",
            setup_walls.len()
        ),
        format!(
            "unscaled: setup_s {setup_s:.6} nodes_per_s {nodes_per_s:.1} request_p50_ms {p50_ms:.6} \
             request_tail_ms {:.3} requests_per_s {requests_per_s:.2}",
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

/// Times `f` over `reps` calls; returns microseconds per call.
fn time_us<R>(reps: u32, mut f: impl FnMut() -> R) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        black_box(f());
    }
    t.elapsed().as_secs_f64() * 1e6 / f64::from(reps)
}

/// Times the cache layer on a cache the benchmark owns, fed the pass's
/// sequence; its answers must agree with the service's.
fn cache_layer(
    stream: &[Request],
    served: &[Served],
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> CacheLayer {
    const REPS: u32 = 8;
    let cfg = config();
    let mut cache = SolveCache::new(DEFAULT_CACHE_CAPACITY);
    let (mut key, mut get, mut donor, mut insert) = (vec![], vec![], vec![], vec![]);
    for (i, (request, s)) in stream.iter().zip(served).enumerate() {
        if i % SESSION == 0 {
            // A new session: the service started with an empty cache.
            cache = SolveCache::new(DEFAULT_CACHE_CAPACITY);
        }
        if request.kind == Kind::Cold {
            continue;
        }
        tracer.set_id(i as u64);
        let inst = &request.instance;
        let span = tracer.begin("cache.key");
        key.push(time_us(REPS, || {
            (InstanceKey::of(inst), ConfigKey::of(&cfg))
        }));
        tracer.end(span);
        let (ik, ck) = (InstanceKey::of(inst), ConfigKey::of(&cfg));
        let span = tracer.begin("cache.get");
        get.push(time_us(REPS, || cache.get(ik, ck).is_some()));
        tracer.end(span);
        let hit = cache.get(ik, ck).is_some();
        if hit != (s.outcome.disposition == CacheDisposition::Hit) {
            tally.fail(format!(
                "request {i}: owned cache and service disagree on a hit"
            ));
        }
        if hit {
            continue;
        }
        let span = tracer.begin("cache.donor");
        donor.push(time_us(REPS, || cache.donor(inst, &cfg).map(|d| d.edits)));
        tracer.end(span);
        let span = tracer.begin("cache.insert");
        let t = Instant::now();
        cache.insert(inst, &cfg, s.outcome.certificate.clone());
        insert.push(t.elapsed().as_secs_f64() * 1e6);
        tracer.end(span);
    }
    let n = served.len() as f64;
    let hits = served
        .iter()
        .filter(|s| s.outcome.disposition == CacheDisposition::Hit)
        .count() as f64;
    let warm = served
        .iter()
        .filter(|s| matches!(s.outcome.disposition, CacheDisposition::WarmStart { .. }))
        .count() as f64;
    let invalidated: u64 = served
        .iter()
        .map(|s| s.outcome.request_cost.cache_invalidated_nodes)
        .sum();
    CacheLayer {
        key_us: median(&key),
        get_us: median(&get),
        donor_us: median(&donor),
        insert_us: median(&insert),
        hit_ratio: hits / n,
        warm_ratio: warm / n,
        invalidated_nodes: invalidated as f64,
        warm_node_ratio: 0.0,
    }
}

/// Nanoseconds per batch of the fleet planner (`plan_shards_weighted` and
/// `steal_pass`) over `batches` of `(jobs, machines, len)`.
fn fleet_plan_ns(batches: &[(usize, usize, usize)]) -> f64 {
    const REPS: u32 = 16;
    let cfg = config();
    let specs = fleet_member_specs(2, false);
    let mut total = 0.0;
    for &(n, m, len) in batches {
        let models = member_models(&specs, &cfg, n, m);
        // The pipelined fleet's chunk: one wave of the smallest member when
        // the batch fills it, else `pipeline_depth` equal chunks.
        let wave = models
            .iter()
            .map(|m| m.wave_nodes)
            .min()
            .unwrap_or(1)
            .max(1);
        let chunk = if len >= wave {
            wave
        } else {
            len.div_ceil(cfg.pipeline_depth).max(1)
        };
        let eff = gpu_bnb::fleet::effective_chunk(len, specs.len(), chunk);
        let planning = launch_models(&models, eff);
        let weights: Vec<f64> = planning.iter().map(|m| m.weight).collect();
        total += time_us(REPS, || {
            let mut shards = plan_shards_weighted(len, &weights, chunk);
            steal_pass(&mut shards, &planning)
        }) * 1e3;
    }
    ratio(total, batches.len() as f64)
}

fn run_traced(args: &Args) -> Result<Report, String> {
    let mut tally = Tally::default();
    let mut calibration = Calibration::new(args.seed, CALIBRATION_JOBS, &mut tally);
    let (sessions, services, _) = setup(args.seed, TRACED_SESSIONS);
    let mut served = Vec::new();
    for (session, service) in sessions.iter().zip(&services) {
        served.extend(serve(service, session, &mut tally, &mut calibration));
    }
    drop(services);
    let stream: Vec<Request> = sessions.into_iter().flatten().collect();

    let mut cost = gpu_bnb::CostReport::default();
    for s in &served {
        cost.absorb(&s.outcome.request_cost);
    }
    let by = |pred: fn(&CacheDisposition) -> bool, scale: f64| {
        let walls: Vec<f64> = served
            .iter()
            .filter(|s| pred(&s.outcome.disposition))
            .map(|s| s.wall.as_secs_f64() * scale)
            .collect();
        median(&walls)
    };
    let service = ServiceLayer {
        hit_p50_us: by(|d| *d == CacheDisposition::Hit, 1e6),
        miss_p50_ms: by(
            |d| matches!(d, CacheDisposition::Miss | CacheDisposition::Disabled),
            1e3,
        ),
        warm_p50_ms: by(|d| matches!(d, CacheDisposition::WarmStart { .. }), 1e3),
    };

    let mut tracer = Tracer::new();
    let traced = Instant::now();
    let mut cache = cache_layer(&stream, &served, &mut tracer, &mut tally);

    // Replay every cold solve; the replay must repeat it exactly.
    let cfg = config();
    let mut counts = LayerCounts::default();
    let mut untraced_ns = 0.0;
    let mut plan_batches = Vec::new();
    let mut matrix_bytes = 0usize;
    for (i, (request, s)) in stream.iter().zip(&served).enumerate() {
        if !is_cold(&s.outcome) {
            continue;
        }
        let job = s.outcome.job.as_ref().ok_or("a cold request ran no job")?;
        tracer.set_id(i as u64);
        let root = tracer.begin("replay");
        let span = tracer.begin("fsp.problem");
        let problem = FspProblem::new(request.instance.clone());
        tracer.end(span);
        let batches_before = counts.batch_lens.len();
        let replayed = replay::replay(
            &problem,
            &cfg,
            Start {
                nodes: None,
                upper_bound: None,
                schedule: None,
            },
            &mut tracer,
            &mut counts,
        );
        tracer.end(root);
        untraced_ns += s.wall.as_secs_f64() * 1e9;
        replay::same_search(
            &replayed,
            job.stats.bounded,
            job.best_makespan,
            job.best_schedule.as_deref(),
            &job.cost,
        )
        .map_err(|e| format!("replay fidelity failed on request {i}: {e}"))?;
        let (n, m) = (request.instance.jobs(), request.instance.machines());
        plan_batches.extend(
            counts.batch_lens[batches_before..]
                .iter()
                .map(|&len| (n, m, len)),
        );
        matrix_bytes = matrix_bytes.max(problem.bound_fn().data().sizes_bytes().iter().sum());
    }
    let traced_wall = traced.elapsed();
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

    // Warm starts against cold solves of the same instances, and every
    // distinct instance's optimum against the serial solver.
    let (mut warm_nodes, mut cold_nodes) = (0u64, 0u64);
    let mut checked: HashMap<(usize, Vec<u32>), ()> = HashMap::new();
    for (request, s) in stream.iter().zip(&served) {
        let inst = &request.instance;
        if let (CacheDisposition::WarmStart { .. }, Some(job)) =
            (s.outcome.disposition, &s.outcome.job)
        {
            warm_nodes += job.stats.bounded;
            cold_nodes += GpuBnbSolver::new(inst.clone(), cfg.clone())
                .solve()
                .stats
                .bounded;
        }
        if checked
            .insert((inst.jobs(), inst.raw().to_vec()), ())
            .is_none()
        {
            tally.attempt();
            let serial = SerialSolver::with_defaults(FspProblem::new(inst.clone())).solve();
            if serial.best_makespan != s.outcome.certificate.best_makespan {
                tally.fail(format!(
                    "{}: serial optimum {} but the service answered {}",
                    inst.name(),
                    serial.best_makespan,
                    s.outcome.certificate.best_makespan
                ));
            }
        }
    }
    cache.warm_node_ratio = ratio(warm_nodes as f64, cold_nodes as f64);

    let calib_ns = calibration.ns_per_node();
    let path = trace_path(args);
    tracer
        .write_chrome(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    let metrics = layers::metrics(&LayerInputs {
        counts: &counts,
        tracer: &tracer,
        untraced_ns,
        cost,
        matrix_bytes: matrix_bytes as f64,
        frozen_pool_s: 0.0,
        neh_ms_per_call: ratio(counts.neh_ns as f64 / 1e6, counts.neh_calls as f64),
        neh_calls: counts.neh_calls as f64,
        fleet_plan_ns_per_batch: fleet_plan_ns(&plan_batches),
        cache,
        service,
        calib_ns_per_node: calib_ns,
        error_rate: tally.error_rate(),
    });
    let replays = served.iter().filter(|s| is_cold(&s.outcome)).count();
    let notes = vec![
        format!(
            "trace written to {} ({} spans)",
            path.display(),
            tracer.spans().len()
        ),
        format!("replay fidelity: {replays} cold solves identical"),
    ];
    Ok(Report {
        metrics,
        tally,
        notes,
    })
}
