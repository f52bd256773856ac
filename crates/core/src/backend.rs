//! The `BoundingBackend` trait: one interface over every way this workspace
//! can bound a batch of sub-problems.
//!
//! The paper's loop hard-wires the GPU engine into the solver; its
//! conclusion, though, compares GPU bounding against serial and multi-core
//! bounding and calls for combining them. This module makes the bounding
//! operator pluggable: **sequential host bounding**, the **multicore thread
//! pool**, the **GPU off-load engine** (one launch or stream-pipelined per
//! batch) and the **multi-device fleet** ([`crate::fleet`]) are four
//! implementations of one trait, selected through
//! [`crate::config::BackendKind`] by the solvers, the auto-tuner and the
//! bench binaries alike. Every
//! implementation returns bit-identical bounds (asserted by the workspace's
//! backend-equivalence suite); what differs is the modelled cost accounting.
//!
//! Adding another backend means implementing [`BoundingBackend`] (bounds in
//! input order plus a [`BackendAccounting`]) and giving it a
//! [`crate::config::BackendKind`] arm in [`make_backend`].

use crate::config::{BackendKind, GpuSolverConfig, LaunchMode};
use crate::offload::{BoundingEngine, PipelineSession};
use crate::placement::MatrixId;
use bb::{FspNode, FspProblem};
use fsp::bound::counts::AccessCounts;
use fsp::{BoundScratch, JohnsonLowerBound, Time};
use gpu_sim::{Device, HostModel};
use multicore_bnb::{MulticoreModel, ParallelBoundingPool};
use std::sync::Arc;
use std::time::Duration;

/// Modelled cost of bounding one batch, in the same units for every backend
/// so they are directly comparable.
#[derive(Debug, Clone, Copy, Default)]
pub struct BackendAccounting {
    /// Modelled compute time (kernel time on the GPU backends, bounding time
    /// on the CPU backends).
    pub kernel_time: Duration,
    /// Modelled PCIe transfer time (zero for the CPU backends).
    pub transfer_time: Duration,
    /// Modelled wall time of the batch: `kernel + transfer` for the
    /// unpipelined backends, the stream-overlapped makespan for the
    /// pipelined one (strictly smaller once a batch spans several chunks).
    pub device_time: Duration,
    /// Bytes shipped host→device.
    pub upload_bytes: u64,
    /// Bytes shipped device→host.
    pub download_bytes: u64,
    /// Kernel launches this batch took (chunks for the pipelined backend).
    pub launches: u64,
    /// Device block waves across those launches —
    /// `ceil(grid_blocks / multiprocessors)` per launch, summed. Zero for
    /// the CPU backends.
    pub waves: u64,
    /// Nodes of this batch bounded on a simulated device (zero for the CPU
    /// backends; feeds the off-loading rate).
    pub device_nodes: u64,
    /// Host cycles merging fleet shards back into input order (zero off the
    /// fleet backend).
    pub merge_cycles: u64,
    /// Deterministic pre-launch steal-pass moves this batch (zero off the
    /// fleet backend and whenever stealing is disabled or never fires).
    pub steals: u64,
    /// Nodes those steal moves re-dealt from late members to early ones.
    pub stolen_nodes: u64,
    /// Summed modelled idle time of the *active* fleet members: for every
    /// member that bounded at least one node, the gap between its own
    /// critical path and the slowest member's (the merge-barrier wait).
    /// Zero off the fleet backend; feeds the per-member utilization story.
    pub idle_time: Duration,
    /// Fleet member deaths fired this batch from the deterministic failure
    /// plan (zero off the fleet backend and in failure-free runs).
    pub failures: u64,
    /// Nodes the recovery planner re-dealt from dead members to survivors
    /// this batch (zero in failure-free runs).
    pub redealt_nodes: u64,
    /// Modelled critical path of absorbing the re-dealt shards on the
    /// survivors (the recovery overlay; zero in failure-free runs).
    pub recovery_time: Duration,
}

/// Result of bounding one batch through a [`BoundingBackend`].
#[derive(Debug, Clone)]
pub struct BackendBatch {
    /// Lower bound of every node of the batch, in input order.
    pub bounds: Vec<Time>,
    /// Modelled cost of producing them.
    pub accounting: BackendAccounting,
    /// Modelled duration of every launch (or CPU bounding pass) the batch
    /// took, in schedule order — the per-launch latency histogram's feed.
    pub launch_times: Vec<Duration>,
}

/// A bounding operator over batches of sub-problems.
///
/// Contract (relied on by the solvers and the equivalence suite):
///
/// * `bounds[i]` is the lower bound of `nodes[i]` — input order, one entry
///   per node;
/// * bounds are **bit-identical across implementations** (they all evaluate
///   the paper's Johnson bound; only the cost model differs);
/// * an empty batch is a no-op returning empty bounds and zero accounting;
/// * batches up to [`BoundingBackend::max_batch`] must be accepted in one
///   call (callers size batches against it).
pub trait BoundingBackend: Send {
    /// Stable name used in reports (matches [`BackendKind::name`] for the
    /// built-in implementations).
    fn name(&self) -> &'static str;

    /// Bounds every node of `nodes`, in input order.
    fn bound_batch(&mut self, nodes: &[FspNode]) -> BackendBatch;

    /// Largest batch this backend accepts in one call (`None` = unbounded).
    fn max_batch(&self) -> Option<usize> {
        None
    }
}

/// Modelled serial access count of bounding `nodes` on the host (the Table I
/// figure shared by every CPU-side cost estimate; the solvers charge it for
/// their speedup baselines too).
pub(crate) fn serial_accesses(jobs: usize, machines: usize, nodes: &[FspNode]) -> u64 {
    nodes
        .iter()
        .map(|node| {
            let np = jobs - node.depth();
            if np == 0 {
                0
            } else {
                AccessCounts::impl_expected(jobs, machines, np).total()
            }
        })
        .sum()
}

/// Chunk size for a batch of `len` nodes on `engine`: an explicit override
/// (typically the chunk auto-tuner's winner) clamped to the engine capacity;
/// otherwise one full device wave (`SMs × block threads`) — chunks must keep
/// every SM busy or per-SM block quantization inflates the summed kernel
/// time past what the overlap wins back — falling back to `pipeline_depth`
/// equal chunks on batches too small to fill the device. Shared by the
/// pipelined backend and the fleet so their chunking can never diverge.
pub(crate) fn wave_chunk_for(
    engine: &BoundingEngine,
    pipeline_depth: usize,
    chunk_override: Option<usize>,
    len: usize,
) -> usize {
    let spec = engine.device().spec();
    wave_chunk(
        (spec.multiprocessors * engine.block_threads()).max(1),
        engine.max_pool(),
        pipeline_depth,
        chunk_override,
        len,
    )
}

/// The wave-aligned chunk heuristic on explicit geometry: `wave` nodes per
/// chunk when the batch fills at least one wave, `pipeline_depth` equal
/// chunks otherwise, an override clamped to `max_pool` either way. The
/// fleet calls this on its *smallest* member wave so a larger member's
/// small-batch fallback can never shrink the shared chunk below a full
/// wave of the smallest device.
pub(crate) fn wave_chunk(
    wave: usize,
    max_pool: usize,
    pipeline_depth: usize,
    chunk_override: Option<usize>,
    len: usize,
) -> usize {
    if let Some(chunk) = chunk_override {
        return chunk.clamp(1, max_pool);
    }
    let wave = wave.max(1);
    if len >= wave {
        wave
    } else {
        len.div_ceil(pipeline_depth).max(1)
    }
}

/// Packed byte footprint of the six bound matrices (input to the host cache
/// model).
pub(crate) fn matrix_footprint_bytes(jobs: usize, machines: usize) -> usize {
    MatrixId::ALL
        .iter()
        .map(|m| m.packed_bytes(jobs, machines))
        .sum()
}

/// A CPU backend's batch: `compute` of modelled bounding time in one pass
/// (none for an empty batch), no transfers and no device work.
fn host_batch(bounds: Vec<Time>, compute: Duration) -> BackendBatch {
    let passes = usize::from(!bounds.is_empty());
    BackendBatch {
        bounds,
        accounting: BackendAccounting {
            kernel_time: compute,
            device_time: compute,
            launches: passes as u64,
            ..BackendAccounting::default()
        },
        launch_times: vec![compute; passes],
    }
}

/// Sequential host bounding — the serial baseline behind Table II's
/// single-core column, exposed as a backend so it can be driven by the same
/// solver loop and compared launch for launch.
pub struct SequentialBackend {
    lb: Arc<JohnsonLowerBound>,
    scratch: BoundScratch,
    host: HostModel,
    jobs: usize,
    machines: usize,
    footprint_bytes: usize,
}

impl SequentialBackend {
    /// Creates the backend for `problem`'s instance and bound.
    pub fn new(problem: &FspProblem<JohnsonLowerBound>) -> Self {
        let inst = problem.instance();
        Self {
            lb: problem.bound_fn().clone(),
            scratch: BoundScratch::new(),
            host: HostModel::default(),
            jobs: inst.jobs(),
            machines: inst.machines(),
            footprint_bytes: matrix_footprint_bytes(inst.jobs(), inst.machines()),
        }
    }
}

impl BoundingBackend for SequentialBackend {
    fn name(&self) -> &'static str {
        BackendKind::Sequential.name()
    }

    fn bound_batch(&mut self, nodes: &[FspNode]) -> BackendBatch {
        let mut bounds = Vec::with_capacity(nodes.len());
        self.lb.bound_batch_with(
            &mut self.scratch,
            nodes,
            FspNode::front,
            FspNode::is_scheduled,
            &mut bounds,
        );
        let accesses = serial_accesses(self.jobs, self.machines, nodes);
        let compute = self
            .host
            .bounding_time(accesses, nodes.len() as u64, self.footprint_bytes);
        host_batch(bounds, compute)
    }
}

/// CPU thread-pool bounding over the long-lived
/// [`multicore_bnb::ParallelBoundingPool`] workers; the modelled time scales
/// the serial figure by the calibrated [`MulticoreModel`] speedup.
pub struct MulticoreBackend {
    pool: ParallelBoundingPool,
    lb: Arc<JohnsonLowerBound>,
    host: HostModel,
    model: MulticoreModel,
    jobs: usize,
    machines: usize,
    footprint_bytes: usize,
}

impl MulticoreBackend {
    /// Creates the backend with `threads` long-lived workers.
    pub fn new(problem: &FspProblem<JohnsonLowerBound>, threads: usize) -> Self {
        let inst = problem.instance();
        Self {
            pool: ParallelBoundingPool::new(threads),
            lb: problem.bound_fn().clone(),
            host: HostModel::default(),
            model: MulticoreModel::default(),
            jobs: inst.jobs(),
            machines: inst.machines(),
            footprint_bytes: matrix_footprint_bytes(inst.jobs(), inst.machines()),
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }
}

impl BoundingBackend for MulticoreBackend {
    fn name(&self) -> &'static str {
        BackendKind::Multicore.name()
    }

    fn bound_batch(&mut self, nodes: &[FspNode]) -> BackendBatch {
        let bounds = self.pool.bound_batch(nodes, self.lb.as_ref());
        let accesses = serial_accesses(self.jobs, self.machines, nodes);
        let serial = self
            .host
            .bounding_time(accesses, nodes.len() as u64, self.footprint_bytes);
        let speedup = self
            .model
            .speedup(self.pool.threads(), self.footprint_bytes)
            .max(1.0);
        host_batch(bounds, serial.div_f64(speedup))
    }
}

/// The paper's GPU off-load on one simulated device, functional SIMT
/// simulation or fast-forward. Every batch rides
/// [`BoundingEngine::bound_nodes_pipelined_in`]:
///
/// * [`LaunchMode::OneLaunch`] ([`BackendKind::Gpu`]) bounds the whole batch
///   as one chunk on a fresh [`PipelineSession`] — the paper's one launch
///   per batch, costing exactly `upload + kernel + download`;
/// * [`LaunchMode::Pipelined`] ([`BackendKind::GpuPipelined`]) splits it
///   into chunks of one device wave (`SMs × block threads`, or
///   [`GpuSolverConfig::pipeline_chunk`] when set), so the device time per
///   batch approaches `max(kernel, transfer)` instead of their sum.
///
/// A pipelined backend built with [`GpuSolverConfig::lookahead`] keeps one
/// persistent session across batches: successive batches share the
/// timeline and the double-buffered device slots, so the pipeline never
/// drains between solver iterations and the per-batch `device_time` becomes
/// the critical-path increment of the session (cross-iteration pipelining).
/// Otherwise each batch gets a fresh session. Fleet members
/// ([`crate::fleet::FleetBackend`]) are this backend too.
pub struct GpuBackend {
    engine: BoundingEngine,
    /// The host reference bound in fast-forward mode; `None` runs the
    /// functional kernel.
    host_lb: Option<Arc<JohnsonLowerBound>>,
    pipelined: bool,
    pipeline_depth: usize,
    chunk_override: Option<usize>,
    session: Option<PipelineSession>,
}

impl GpuBackend {
    /// Creates the backend on a Tesla C2050, with an engine sized for
    /// `capacity` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `launch` is pipelined and `config.pipeline_depth` is zero.
    pub fn new(
        problem: &FspProblem<JohnsonLowerBound>,
        config: &GpuSolverConfig,
        capacity: usize,
        launch: LaunchMode,
    ) -> Self {
        Self::on_device(Device::tesla_c2050(), problem, config, capacity, launch)
    }

    /// Like [`GpuBackend::new`], on an explicit device (fleet members).
    pub(crate) fn on_device(
        device: Device,
        problem: &FspProblem<JohnsonLowerBound>,
        config: &GpuSolverConfig,
        capacity: usize,
        launch: LaunchMode,
    ) -> Self {
        let pipelined = matches!(launch, LaunchMode::Pipelined);
        assert!(
            !pipelined || config.pipeline_depth > 0,
            "the pipelined backend needs a positive pipeline depth"
        );
        let engine = BoundingEngine::on_device(
            device,
            problem.bound_fn().data(),
            config.placement.clone(),
            config.block_threads,
            config.registers_per_thread,
            capacity,
        );
        let session = (pipelined && config.lookahead).then(|| engine.pipeline_session());
        Self {
            engine,
            host_lb: config.fast_forward.then(|| problem.bound_fn().clone()),
            pipelined,
            pipeline_depth: config.pipeline_depth,
            chunk_override: config.pipeline_chunk,
            session,
        }
    }

    /// The underlying engine (the fleet reads its wave geometry).
    pub(crate) fn engine(&self) -> &BoundingEngine {
        &self.engine
    }

    /// Bounds `nodes` in chunks of `chunk` nodes — through the persistent
    /// session when there is one, else on a fresh session. The fleet calls
    /// this directly with its shared launch granularity.
    pub(crate) fn bound_chunked(&mut self, nodes: &[FspNode], chunk: usize) -> BackendBatch {
        let mut fresh;
        let session = match &mut self.session {
            Some(session) => session,
            None => {
                fresh = self.engine.pipeline_session();
                &mut fresh
            }
        };
        let result =
            self.engine
                .bound_nodes_pipelined_in(nodes, chunk, self.host_lb.as_deref(), session);
        BackendBatch {
            bounds: result.bounds,
            accounting: BackendAccounting {
                kernel_time: result.kernel_time,
                transfer_time: result.transfer_time,
                device_time: result.critical_path,
                upload_bytes: result.upload_bytes as u64,
                download_bytes: result.download_bytes as u64,
                launches: result.chunks as u64,
                waves: result.waves,
                device_nodes: nodes.len() as u64,
                ..BackendAccounting::default()
            },
            launch_times: result.launch_times,
        }
    }
}

impl BoundingBackend for GpuBackend {
    fn name(&self) -> &'static str {
        if self.pipelined {
            BackendKind::GpuPipelined.name()
        } else {
            BackendKind::Gpu.name()
        }
    }

    fn bound_batch(&mut self, nodes: &[FspNode]) -> BackendBatch {
        let chunk = if self.pipelined {
            wave_chunk_for(
                &self.engine,
                self.pipeline_depth,
                self.chunk_override,
                nodes.len(),
            )
        } else {
            // One chunk of the whole batch (an empty batch records nothing
            // but still needs a positive chunk).
            nodes.len().max(1)
        };
        self.bound_chunked(nodes, chunk)
    }

    fn max_batch(&self) -> Option<usize> {
        Some(self.engine.max_pool())
    }
}

/// Builds the backend `config.backend` selects, with the GPU engines sized
/// for batches of up to `capacity` nodes.
pub fn make_backend(
    problem: &FspProblem<JohnsonLowerBound>,
    config: &GpuSolverConfig,
    capacity: usize,
) -> Box<dyn BoundingBackend> {
    match config.backend {
        BackendKind::Sequential => Box::new(SequentialBackend::new(problem)),
        BackendKind::Multicore => {
            Box::new(MulticoreBackend::new(problem, config.multicore_threads))
        }
        BackendKind::Gpu => Box::new(GpuBackend::new(
            problem,
            config,
            capacity,
            LaunchMode::OneLaunch,
        )),
        BackendKind::GpuPipelined => Box::new(GpuBackend::new(
            problem,
            config,
            capacity,
            LaunchMode::Pipelined,
        )),
        BackendKind::Fleet(topology) => Box::new(crate::fleet::FleetBackend::with_members(
            problem,
            config,
            capacity,
            crate::fleet::fleet_member_specs(topology.devices, topology.is_hetero()),
            topology.is_pipelined(),
            topology.is_stealing(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::DataPlacement;
    use bb::frozen_pool;
    use fsp::taillard::generate;

    fn fixture(pool: usize) -> (FspProblem<JohnsonLowerBound>, Vec<FspNode>, GpuSolverConfig) {
        let inst = generate("t", 12, 6, 2012);
        let problem = FspProblem::new(inst);
        let nodes = frozen_pool(&problem, pool).nodes;
        let config = GpuSolverConfig {
            pool_size: pool,
            placement: DataPlacement::SharedJmPtm,
            ..Default::default()
        };
        (problem, nodes, config)
    }

    #[test]
    fn all_backends_return_identical_bounds() {
        let (problem, nodes, base) = fixture(96);
        let mut reference: Option<Vec<Time>> = None;
        for kind in BackendKind::ALL {
            let config = GpuSolverConfig {
                backend: kind,
                ..base.clone()
            };
            let mut backend = make_backend(&problem, &config, nodes.len());
            let batch = backend.bound_batch(&nodes);
            assert_eq!(batch.bounds.len(), nodes.len(), "{kind}");
            match &reference {
                None => reference = Some(batch.bounds),
                Some(expected) => assert_eq!(&batch.bounds, expected, "{kind}"),
            }
        }
    }

    #[test]
    fn backend_names_match_their_kind() {
        let (problem, _, base) = fixture(16);
        for kind in BackendKind::ALL {
            let config = GpuSolverConfig {
                backend: kind,
                ..base.clone()
            };
            let backend = make_backend(&problem, &config, 16);
            assert_eq!(backend.name(), kind.name());
        }
    }

    #[test]
    fn empty_batches_cost_nothing_everywhere() {
        let (problem, _, base) = fixture(16);
        for kind in BackendKind::ALL {
            let config = GpuSolverConfig {
                backend: kind,
                ..base.clone()
            };
            let mut backend = make_backend(&problem, &config, 16);
            let batch = backend.bound_batch(&[]);
            assert!(batch.bounds.is_empty(), "{kind}");
            assert_eq!(batch.accounting.device_time, Duration::ZERO, "{kind}");
            assert_eq!(batch.accounting.launches, 0, "{kind}");
        }
    }

    #[test]
    fn pipelined_backend_overlaps_and_gpu_backend_does_not() {
        let (problem, nodes, base) = fixture(128);
        let gpu = {
            let config = GpuSolverConfig {
                backend: BackendKind::Gpu,
                ..base.clone()
            };
            make_backend(&problem, &config, nodes.len()).bound_batch(&nodes)
        };
        let piped = {
            let config = GpuSolverConfig {
                backend: BackendKind::GpuPipelined,
                pipeline_depth: 4,
                ..base.clone()
            };
            make_backend(&problem, &config, nodes.len()).bound_batch(&nodes)
        };
        assert_eq!(gpu.bounds, piped.bounds);
        let gpu_acc = gpu.accounting;
        let piped_acc = piped.accounting;
        assert_eq!(
            gpu_acc.device_time,
            gpu_acc.kernel_time + gpu_acc.transfer_time
        );
        assert!(
            piped_acc.device_time < piped_acc.kernel_time + piped_acc.transfer_time,
            "pipelined device time {:?} must beat its own serialized schedule {:?}",
            piped_acc.device_time,
            piped_acc.kernel_time + piped_acc.transfer_time
        );
        assert_eq!(piped_acc.launches, 4);
    }

    #[test]
    fn one_launch_gpu_backend_matches_the_engine_reference() {
        // `gpu` is a one-chunk pipeline on a fresh session: every accounting
        // field and the launch histogram equal the engine's one-launch
        // reference, in fast-forward and in functional mode.
        let (problem, nodes, base) = fixture(96);
        for fast_forward in [true, false] {
            let config = GpuSolverConfig {
                backend: BackendKind::Gpu,
                fast_forward,
                ..base.clone()
            };
            let batch = make_backend(&problem, &config, nodes.len()).bound_batch(&nodes);
            let mut engine = BoundingEngine::new(
                problem.bound_fn().data(),
                config.placement.clone(),
                config.block_threads,
                config.registers_per_thread,
                nodes.len(),
            );
            let reference = if fast_forward {
                engine.bound_nodes_fast(&nodes, problem.bound_fn())
            } else {
                engine.bound_nodes(&nodes)
            };
            let waves = engine.device().spec().waves(reference.stats.grid_blocks) as u64;
            let acc = batch.accounting;
            let mode = if fast_forward {
                "fast-forward"
            } else {
                "functional"
            };
            assert_eq!(batch.bounds, reference.bounds, "{mode}");
            assert_eq!(acc.kernel_time, reference.kernel.duration, "{mode}");
            assert_eq!(acc.transfer_time, reference.transfer_time, "{mode}");
            assert_eq!(acc.device_time, reference.device_time(), "{mode}");
            assert_eq!(acc.upload_bytes, reference.upload_bytes as u64, "{mode}");
            assert_eq!(
                acc.download_bytes, reference.download_bytes as u64,
                "{mode}"
            );
            assert_eq!(acc.launches, 1, "{mode}");
            assert_eq!(acc.waves, waves, "{mode}");
            assert_eq!(acc.device_nodes, nodes.len() as u64, "{mode}");
            assert_eq!(
                (acc.merge_cycles, acc.steals, acc.stolen_nodes),
                (0, 0, 0),
                "{mode}"
            );
            assert_eq!((acc.failures, acc.redealt_nodes), (0, 0), "{mode}");
            assert_eq!(acc.idle_time, Duration::ZERO, "{mode}");
            assert_eq!(acc.recovery_time, Duration::ZERO, "{mode}");
            assert_eq!(
                batch.launch_times,
                vec![reference.kernel.duration],
                "{mode}"
            );
        }
    }

    #[test]
    fn lookahead_pipelined_backend_overlaps_across_batches() {
        let (problem, nodes, base) = fixture(128);
        let mk = |lookahead| GpuSolverConfig {
            backend: BackendKind::GpuPipelined,
            pipeline_depth: 4,
            lookahead,
            ..base.clone()
        };
        let mut per_batch = make_backend(&problem, &mk(false), 64);
        let mut cross = make_backend(&problem, &mk(true), 64);
        let mut t_per_batch = Duration::ZERO;
        let mut t_cross = Duration::ZERO;
        for half in nodes.chunks(64) {
            let a = per_batch.bound_batch(half);
            let b = cross.bound_batch(half);
            assert_eq!(a.bounds, b.bounds, "bounds must not depend on the session");
            t_per_batch += a.accounting.device_time;
            t_cross += b.accounting.device_time;
        }
        assert!(
            t_cross < t_per_batch,
            "cross-iteration device time {t_cross:?} must beat per-batch {t_per_batch:?}"
        );
    }

    #[test]
    fn explicit_pipeline_chunk_overrides_the_wave_heuristic() {
        let (problem, nodes, base) = fixture(128);
        let config = GpuSolverConfig {
            backend: BackendKind::GpuPipelined,
            pipeline_chunk: Some(10),
            ..base
        };
        let mut backend = make_backend(&problem, &config, nodes.len());
        let batch = backend.bound_batch(&nodes);
        assert_eq!(batch.accounting.launches, nodes.len().div_ceil(10) as u64);
    }

    #[test]
    fn cpu_backends_model_compute_but_no_transfers() {
        let (problem, nodes, base) = fixture(64);
        for kind in [BackendKind::Sequential, BackendKind::Multicore] {
            let config = GpuSolverConfig {
                backend: kind,
                ..base.clone()
            };
            let mut backend = make_backend(&problem, &config, nodes.len());
            let acc = backend.bound_batch(&nodes).accounting;
            assert!(acc.kernel_time > Duration::ZERO, "{kind}");
            assert_eq!(acc.transfer_time, Duration::ZERO, "{kind}");
            assert_eq!(acc.upload_bytes, 0, "{kind}");
        }
    }

    #[test]
    fn multicore_backend_models_faster_bounding_than_sequential() {
        let (problem, nodes, base) = fixture(64);
        let seq = SequentialBackend::new(&problem).bound_batch(&nodes);
        let mut mc = MulticoreBackend::new(&problem, base.multicore_threads);
        assert_eq!(mc.threads(), base.multicore_threads);
        let par = mc.bound_batch(&nodes);
        assert_eq!(seq.bounds, par.bounds);
        assert!(par.accounting.device_time < seq.accounting.device_time);
    }
}
