//! Assembly of the per-layer metrics of a traced run. Every workload
//! reports every name; a layer the workload never calls reads 0.

use crate::replay::LayerCounts;
use crate::stats::{median, ratio, tail};
use crate::trace::Tracer;
use crate::{metric, Metric};
use gpu_bnb::CostReport;

/// Cache-layer figures (all zero off `requests-mixed`).
#[derive(Debug, Default, Clone, Copy)]
pub struct CacheLayer {
    pub key_us: f64,
    pub get_us: f64,
    pub donor_us: f64,
    pub insert_us: f64,
    pub hit_ratio: f64,
    pub warm_ratio: f64,
    pub invalidated_nodes: f64,
    pub warm_node_ratio: f64,
}

/// `SolveService::request` wall time by disposition (zero off
/// `requests-mixed`).
#[derive(Debug, Default, Clone, Copy)]
pub struct ServiceLayer {
    pub hit_p50_us: f64,
    pub miss_p50_ms: f64,
    pub warm_p50_ms: f64,
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    pub counts: &'a LayerCounts,
    pub tracer: &'a Tracer,
    /// Untraced wall nanoseconds of the solves the replay repeated.
    pub untraced_ns: f64,
    /// The modelled cost counters of the workload's solves.
    pub cost: CostReport,
    pub matrix_bytes: f64,
    pub frozen_pool_s: f64,
    /// NEH cost per call and the calls on the measured path.
    pub neh_ms_per_call: f64,
    pub neh_calls: f64,
    pub fleet_plan_ns_per_batch: f64,
    pub cache: CacheLayer,
    pub service: ServiceLayer,
    pub calib_ns_per_node: f64,
    pub error_rate: f64,
}

pub fn metrics(x: &LayerInputs<'_>) -> Vec<Metric> {
    let c = x.counts;
    let layers = x.tracer.self_times();
    let self_ns = |name: &str| layers.get(name).map_or(0.0, |&ns| ns as f64);
    let reference_ns: f64 = c.reference_ns.iter().map(|&ns| ns as f64).sum();
    let batch_ns: f64 = c.batch_ns.iter().map(|&ns| ns as f64).sum();
    let batch_nodes: f64 = c.batch_lens.iter().map(|&n| n as f64).sum();
    let batch_ms: Vec<f64> = c.batch_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    // The replayed solves' traced wall time, without the reference bound
    // the replay adds.
    let traced_ns: f64 = x
        .tracer
        .spans()
        .iter()
        .filter(|s| s.name == "replay")
        .map(|s| (s.end - s.start) as f64)
        .sum::<f64>()
        - reference_ns;
    let cost = &x.cost;
    let bytes = (cost.h2d_bytes + cost.d2h_bytes) as f64;
    vec![
        metric(
            "fsp.bound.ns_per_node",
            ratio(reference_ns, c.reference_nodes as f64),
            "ns",
        ),
        metric("fsp.bound.nodes", c.reference_nodes as f64, "count"),
        metric("fsp.bound.share", ratio(reference_ns, traced_ns), "ratio"),
        metric("fsp.bound.matrix_bytes", x.matrix_bytes, "bytes"),
        metric("fsp.neh.ms_per_call", x.neh_ms_per_call, "ms"),
        metric("fsp.neh.calls", x.neh_calls, "count"),
        metric(
            "bb.select.ns_per_node",
            ratio(self_ns("bb.select"), c.selected as f64),
            "ns",
        ),
        metric(
            "bb.select.prune_ratio",
            ratio(c.select_pruned as f64, c.selected as f64),
            "ratio",
        ),
        metric(
            "bb.branch.ns_per_child",
            ratio(self_ns("bb.branch"), c.children as f64),
            "ns",
        ),
        metric(
            "bb.eliminate.ns_per_node",
            ratio(self_ns("bb.eliminate"), c.eliminated as f64),
            "ns",
        ),
        metric(
            "bb.eliminate.push_ratio",
            ratio(c.pushed as f64, c.eliminated as f64),
            "ratio",
        ),
        metric("bb.pool.max_len", c.max_pool as f64, "count"),
        metric("bb.frozen_pool.s", x.frozen_pool_s, "s"),
        metric("backend.batches", c.batch_lens.len() as f64, "count"),
        metric(
            "backend.mean_batch_nodes",
            ratio(batch_nodes, c.batch_lens.len() as f64),
            "count",
        ),
        metric(
            "backend.bound_batch.ns_per_node",
            ratio(batch_ns, batch_nodes),
            "ns",
        ),
        metric(
            "backend.overhead.ns_per_node",
            ratio(batch_ns - reference_ns, batch_nodes),
            "ns",
        ),
        metric("backend.batch.p50_ms", median(&batch_ms), "ms"),
        metric("backend.batch.tail_ms", tail(&batch_ms).value, "ms"),
        metric("gpu_sim.kernel.launches", cost.launches as f64, "count"),
        metric("gpu_sim.kernel.waves", cost.waves as f64, "count"),
        metric(
            "gpu_sim.kernel.serial_accesses",
            cost.serial_accesses as f64,
            "count",
        ),
        metric(
            "gpu_sim.kernel.accesses_per_byte",
            ratio(cost.serial_accesses as f64, bytes),
            "1/byte",
        ),
        metric(
            "gpu_sim.kernel.modelled_s",
            cost.kernel_nanos as f64 / 1e9,
            "s",
        ),
        metric("gpu_sim.transfer.h2d_bytes", cost.h2d_bytes as f64, "bytes"),
        metric("gpu_sim.transfer.d2h_bytes", cost.d2h_bytes as f64, "bytes"),
        metric(
            "gpu_sim.transfer.modelled_s",
            cost.transfer_nanos as f64 / 1e9,
            "s",
        ),
        metric("gpu_sim.offloading_rate", cost.offloading_rate(), "ratio"),
        metric("fleet.plan.ns_per_batch", x.fleet_plan_ns_per_batch, "ns"),
        metric("fleet.idle_s", cost.fleet_idle_nanos as f64 / 1e9, "s"),
        metric(
            "fleet.merge_cycles",
            cost.fleet_merge_cycles as f64,
            "cycles",
        ),
        metric("fleet.steals", cost.fleet_steals as f64, "count"),
        metric("cache.key.us", x.cache.key_us, "us"),
        metric("cache.get.us", x.cache.get_us, "us"),
        metric("cache.donor.us", x.cache.donor_us, "us"),
        metric("cache.insert.us", x.cache.insert_us, "us"),
        metric("cache.hit_ratio", x.cache.hit_ratio, "ratio"),
        metric("cache.warm_ratio", x.cache.warm_ratio, "ratio"),
        metric(
            "cache.invalidated_nodes",
            x.cache.invalidated_nodes,
            "count",
        ),
        metric("cache.warm_node_ratio", x.cache.warm_node_ratio, "ratio"),
        metric("service.hit.p50_us", x.service.hit_p50_us, "us"),
        metric("service.miss.p50_ms", x.service.miss_p50_ms, "ms"),
        metric("service.warm.p50_ms", x.service.warm_p50_ms, "ms"),
        metric("calib.bound_ns_per_node", x.calib_ns_per_node, "ns"),
        metric(
            "trace.overhead_share",
            ratio(traced_ns, x.untraced_ns) - 1.0,
            "ratio",
        ),
        metric("error_rate", x.error_rate, "ratio"),
    ]
}

/// The traced-run invariant: layer self times sum to no more than the
/// traced wall time.
pub fn check_self_times(tracer: &Tracer, wall_ns: u64) -> Result<(), String> {
    let total: u64 = tracer.self_times().values().sum();
    if total > wall_ns {
        return Err(format!(
            "layer self times sum to {total} ns, beyond the traced wall {wall_ns} ns"
        ));
    }
    Ok(())
}
