//! Workspace-level cache-equivalence suite.
//!
//! The incremental solve cache's contract (see `docs/CACHING.md`) is that
//! memoization is **certificate-transparent**: caching changes what a
//! request *costs*, never what it *returns*. This suite pins that down
//! four ways:
//!
//! 1. an exact repeat returns the stored certificate bit-identically —
//!    schedule, makespan, bound, gap and every cost counter — and is
//!    billed one `cache_hits` tick with zero device work;
//! 2. a warm-started solve of a perturbed instance reaches the same
//!    optimum as a cold solve of that instance (the donor's incumbent is a
//!    valid upper bound after re-pricing, so pruning stays sound);
//! 3. a frontier resume (donor kept its truncated pool) is deterministic:
//!    the same request sequence reproduces the same invalidation count and
//!    the same certificate, and the invalidated nodes are billed as
//!    `cache_invalidated_nodes`;
//! 4. a cache-disabled request is bit-identical to `submit` +
//!    `run_until_idle` of the same spec — the consolidated entry point
//!    adds no accounting of its own; requests truncated by a budget, a
//!    deadline or a wall-clock `time_limit` take the same bypass.
//!
//! Like `backend_equivalence`, the CI `cache-matrix` job runs this suite
//! once per backend by setting `BACKEND_FILTER`; unset, every kind runs.

use flowshop_gpu_bnb::fsp::{schedule, taillard, Instance};
use flowshop_gpu_bnb::gpu_bnb::{
    perturbed, BackendKind, CacheDisposition, CachePolicy, DataPlacement, FleetTopology,
    GpuSolverConfig, JobSpec, ServiceConfig, SolveRequest, SolveService,
};
use std::time::Duration;

/// The backends this suite checks: `BACKEND_FILTER` when set, the full
/// roster otherwise (mirrors `service_equivalence::gated_kinds`).
fn gated_kinds() -> Vec<BackendKind> {
    match std::env::var("BACKEND_FILTER") {
        Ok(spec) if !spec.trim().is_empty() => {
            let kind: BackendKind = spec
                .trim()
                .parse()
                .unwrap_or_else(|e| panic!("invalid BACKEND_FILTER `{spec}`: {e}"));
            vec![kind]
        }
        _ => vec![
            BackendKind::Gpu,
            BackendKind::Fleet(FleetTopology::uniform(2)),
            BackendKind::Fleet(FleetTopology::uniform(2).mixed().stealing()),
        ],
    }
}

/// Sessionless configuration (no lookahead): the setting under which the
/// service promises bit-exact certificates.
fn config_for(kind: BackendKind) -> GpuSolverConfig {
    GpuSolverConfig {
        pool_size: 64,
        placement: DataPlacement::SharedJmPtm,
        backend: kind,
        fast_forward: true,
        ..Default::default()
    }
}

/// Same configuration truncated by a node limit, so the solve leaves a
/// non-empty frontier behind for the resume path.
fn truncated_config_for(kind: BackendKind, node_limit: u64) -> GpuSolverConfig {
    GpuSolverConfig {
        node_limit: Some(node_limit),
        ..config_for(kind)
    }
}

fn instance(jobs: usize, machines: usize, seed: i64) -> Instance {
    taillard::generate(
        format!("cache-{jobs}x{machines}-s{seed}"),
        jobs,
        machines,
        seed,
    )
}

#[test]
fn exact_repeat_returns_the_stored_certificate_bit_identically() {
    let inst = instance(10, 6, 31);
    for kind in gated_kinds() {
        let config = config_for(kind);
        let service = SolveService::new(ServiceConfig { max_concurrent: 2 });

        let cold = service.request(SolveRequest::new(inst.clone(), config.clone()));
        assert_eq!(cold.disposition, CacheDisposition::Miss, "{kind}");
        assert!(
            cold.certificate.is_optimal(),
            "{kind}: small solve exhausts"
        );
        assert_eq!(service.cached_certificates(), 1, "{kind}");

        let hit = service.request(SolveRequest::new(inst.clone(), config.clone()));
        assert_eq!(hit.disposition, CacheDisposition::Hit, "{kind}");
        assert_eq!(
            hit.certificate, cold.certificate,
            "{kind}: the hit must replay the stored certificate bit-identically"
        );
        // The hit's own bill is one cache_hits tick and nothing else: no
        // solver ran, no device was touched.
        assert!(hit.job.is_none(), "{kind}: nothing ran on a hit");
        assert_eq!(hit.request_cost.cache_hits, 1, "{kind}");
        assert_eq!(hit.request_cost.nodes_bounded(), 0, "{kind}");
        assert_eq!(hit.request_cost.batches, 0, "{kind}");
        assert_eq!(hit.request_cost.schedule_nanos, 0, "{kind}");
        // A different config key (identity-bearing knob) must miss.
        let other = GpuSolverConfig {
            pool_size: 128,
            ..config.clone()
        };
        let miss = service.request(SolveRequest::new(inst.clone(), other));
        assert_ne!(miss.disposition, CacheDisposition::Hit, "{kind}");
    }
}

#[test]
fn warm_started_perturbed_solve_reaches_the_cold_optimum() {
    let inst = instance(10, 6, 31);
    let neighbour = perturbed(&inst, 2012, 2);
    assert_ne!(inst.raw(), neighbour.raw(), "the perturbation must edit");
    for kind in gated_kinds() {
        let config = config_for(kind);

        // The cold reference: the perturbed instance solved from scratch.
        let fresh = SolveService::new(ServiceConfig { max_concurrent: 2 });
        let cold = fresh.request(SolveRequest::new(neighbour.clone(), config.clone()));
        assert_eq!(cold.disposition, CacheDisposition::Miss, "{kind}");

        // The warm path: solve the original first, then the neighbour.
        let service = SolveService::new(ServiceConfig { max_concurrent: 2 });
        let donor = service.request(SolveRequest::new(inst.clone(), config.clone()));
        assert_eq!(donor.disposition, CacheDisposition::Miss, "{kind}");
        let warm = service.request(SolveRequest::new(neighbour.clone(), config.clone()));
        let CacheDisposition::WarmStart { invalidated } = warm.disposition else {
            panic!("{kind}: expected a warm start, got {:?}", warm.disposition);
        };
        // The donor's solve exhausted its tree, so there is no frontier to
        // recheck — the warm start is incumbent-only and provably sound.
        assert_eq!(invalidated, 0, "{kind}: exhausted donors have no frontier");
        assert_eq!(warm.request_cost.cache_warm_starts, 1, "{kind}");

        // Soundness: the warm-started solve proves the same optimum.
        assert!(warm.certificate.is_optimal(), "{kind}");
        assert_eq!(
            warm.certificate.best_makespan, cold.certificate.best_makespan,
            "{kind}: warm-starting must not change the proven optimum"
        );
        let warm_schedule = warm.certificate.best_schedule.as_ref().expect("schedule");
        assert_eq!(
            schedule::makespan(&neighbour, warm_schedule),
            warm.certificate.best_makespan,
            "{kind}: the certificate's schedule must price to its makespan"
        );
    }
}

#[test]
fn frontier_resume_is_deterministic_and_bills_invalidated_nodes() {
    let inst = instance(14, 8, 7);
    let neighbour = perturbed(&inst, 2012, 3);
    for kind in gated_kinds() {
        let config = truncated_config_for(kind, 600);

        let run = || {
            let service = SolveService::new(ServiceConfig { max_concurrent: 2 });
            let donor =
                service.request(SolveRequest::new(inst.clone(), config.clone()).keeping_frontier());
            assert_eq!(donor.disposition, CacheDisposition::Miss, "{kind}");
            let frontier = donor.certificate.frontier.as_ref().expect("kept frontier");
            assert!(
                !frontier.frontier.is_empty(),
                "{kind}: the node limit must truncate, leaving a frontier"
            );
            let warm = service
                .request(SolveRequest::new(neighbour.clone(), config.clone()).keeping_frontier());
            (donor, warm)
        };

        let (_, warm) = run();
        let CacheDisposition::WarmStart { invalidated } = warm.disposition else {
            panic!(
                "{kind}: expected a frontier warm start, got {:?}",
                warm.disposition
            );
        };
        assert!(
            invalidated > 0,
            "{kind}: perturbing processing times must invalidate some stored bounds"
        );
        assert_eq!(
            warm.request_cost.cache_invalidated_nodes, invalidated,
            "{kind}: the invalidation count is billed as a cost counter"
        );
        assert_eq!(warm.request_cost.cache_warm_starts, 1, "{kind}");
        // The resumed incumbent is still a feasible schedule of the
        // requested (perturbed) instance.
        let warm_schedule = warm.certificate.best_schedule.as_ref().expect("schedule");
        assert_eq!(
            schedule::makespan(&neighbour, warm_schedule),
            warm.certificate.best_makespan,
            "{kind}"
        );

        // Replaying the same request sequence in a fresh service reproduces
        // the same certificate and the same bill, counter for counter.
        let (_, replay) = run();
        assert_eq!(replay.disposition, warm.disposition, "{kind}");
        assert_eq!(
            replay.certificate, warm.certificate,
            "{kind}: the frontier resume must be deterministic"
        );
        assert_eq!(replay.request_cost, warm.request_cost, "{kind}");
    }
}

#[test]
fn cache_disabled_requests_are_bit_identical_to_submit() {
    let inst = instance(10, 6, 31);
    for kind in gated_kinds() {
        let config = config_for(kind);

        // Reference: the pre-request API, a bare spec through the scheduler.
        let plain = SolveService::new(ServiceConfig { max_concurrent: 2 });
        let handle = plain.submit(JobSpec::new(inst.clone(), config.clone()));
        plain.run_until_idle();
        let reference = handle.outcome().expect("job finished");

        let service = SolveService::new(ServiceConfig { max_concurrent: 2 });
        let off = service.request(
            SolveRequest::new(inst.clone(), config.clone()).with_cache(CachePolicy::Disabled),
        );
        assert_eq!(off.disposition, CacheDisposition::Disabled, "{kind}");
        assert_eq!(service.cached_certificates(), 0, "{kind}: nothing stored");
        let job = off.job.as_ref().expect("a solver ran");
        assert_eq!(job.best_makespan, reference.best_makespan, "{kind}");
        assert_eq!(job.best_schedule, reference.best_schedule, "{kind}");
        assert_eq!(job.stats, reference.stats, "{kind}");
        assert_eq!(
            job.cost, reference.cost,
            "{kind}: disabling the cache must reproduce today's accounting bit-identically"
        );
        assert_eq!(job.latencies, reference.latencies, "{kind}");
        assert_eq!(
            off.request_cost, reference.cost,
            "{kind}: no cache counters on a disabled request"
        );
        assert_eq!(off.request_cost.cache_hits, 0, "{kind}");
        assert_eq!(off.request_cost.cache_warm_starts, 0, "{kind}");

        // Budgeted requests take the same bypass: disposition Disabled,
        // nothing stored, even under the read-write default policy.
        let budgeted =
            service.request(SolveRequest::new(inst.clone(), config.clone()).with_node_budget(50));
        assert_eq!(budgeted.disposition, CacheDisposition::Disabled, "{kind}");
        assert_eq!(service.cached_certificates(), 0, "{kind}");
    }
}

#[test]
fn wall_clock_limited_requests_bypass_the_cache() {
    // A configured `time_limit` becomes the job's deadline: where it cuts
    // the search depends on the machine, so the certificate is not a
    // function of the workload and must never be stored or served.
    let inst = instance(10, 6, 31);
    for kind in gated_kinds() {
        let config = GpuSolverConfig {
            time_limit: Some(Duration::ZERO),
            ..config_for(kind)
        };
        let service = SolveService::new(ServiceConfig { max_concurrent: 2 });
        for repeat in 0..2 {
            let outcome = service.request(SolveRequest::new(inst.clone(), config.clone()));
            assert_eq!(
                outcome.disposition,
                CacheDisposition::Disabled,
                "{kind}: request {repeat}"
            );
            assert!(outcome.job.is_some(), "{kind}: a solver ran");
        }
        assert_eq!(service.cached_certificates(), 0, "{kind}: nothing stored");
    }
}
