//! The calibration pass: a fixed host-bound pass, in the benchmark's own
//! code, over a node population generated from the seed.
//!
//! The kernel is the paper's two-machine Johnson bound (Figure 2), written
//! here rather than called from `fsp`, so an optimisation of the library's
//! bound does not move it: it measures the machine. Workloads time short
//! slices of it between their timed calls, so it sees the machine the
//! measurement saw. A small shared machine drifts between speeds for
//! seconds at a time; the wall-clock end-to-end metrics are rescaled by the
//! calibration to a reference machine on which the kernel takes
//! [`REFERENCE_NS_PER_JOB`] per job per node (the `subtract(calibration)`
//! idiom), and the unscaled figures are printed beside them. The kernel
//! runs on the workload's own class (jobs × 20 machines), so its working set
//! sits in the same cache level as the workload's bound. Its bounds must equal the
//! library's on every node, which doubles as a check that the library bound
//! still computes the paper's values.

use crate::check::Tally;
use crate::stats::{splitmix64, taillard_seed};
use bb::{FspNode, FspProblem};
use fsp::{Instance, Time};
use std::hint::black_box;
use std::time::Instant;

const MACHINES: usize = 20;
const POPULATION: usize = 1024;
const MAX_DEPTH: u64 = 8;
/// Nodes per timed slice at 20 jobs (about 2 ms); fewer for more jobs.
const SLICE_AT_20_JOBS: usize = 64;
/// The calibration kernel's ns per job per node on the reference machine
/// the wall-clock metrics are rescaled to (25 µs/node at 20 jobs).
pub const REFERENCE_NS_PER_JOB: f64 = 1_250.0;

/// The kernel's own copy of the bound data, pair-major.
struct Kernel {
    pairs: Vec<(usize, usize)>,
    /// `order[pair]`: Johnson order with lags of the pair.
    order: Vec<Vec<usize>>,
    /// `lag[pair][job]`.
    lag: Vec<Vec<Time>>,
    /// `pt[job][machine]`, `head[job][machine]`, `tail[job][machine]`.
    pt: Vec<Vec<Time>>,
    head: Vec<Vec<Time>>,
    tail: Vec<Vec<Time>>,
}

impl Kernel {
    fn new(inst: &Instance) -> Self {
        let (n, m) = (inst.jobs(), inst.machines());
        let pairs: Vec<(usize, usize)> = (0..m)
            .flat_map(|k| ((k + 1)..m).map(move |l| (k, l)))
            .collect();
        let order = pairs
            .iter()
            .map(|&(k, l)| fsp::johnson::johnson_order_with_lags(inst, k, l))
            .collect();
        let lag = pairs
            .iter()
            .map(|&(k, l)| (0..n).map(|j| fsp::johnson::lag(inst, j, k, l)).collect())
            .collect();
        let pt: Vec<Vec<Time>> = (0..n).map(|j| inst.job_row(j).to_vec()).collect();
        let head = pt
            .iter()
            .map(|row| {
                row.iter()
                    .scan(0, |acc, &p| {
                        let start = *acc;
                        *acc += p;
                        Some(start)
                    })
                    .collect()
            })
            .collect();
        let tail = pt
            .iter()
            .map(|row| {
                let mut t: Vec<Time> = vec![0; m];
                for k in (0..m.saturating_sub(1)).rev() {
                    t[k] = t[k + 1] + row[k + 1];
                }
                t
            })
            .collect();
        Self {
            pairs,
            order,
            lag,
            pt,
            head,
            tail,
        }
    }

    fn bound(&self, front: &[Time], scheduled: &[bool]) -> Time {
        let m = front.len();
        let mut min_head = [Time::MAX; MACHINES];
        let mut min_tail = [Time::MAX; MACHINES];
        let mut remaining = 0;
        for (job, _) in scheduled.iter().enumerate().filter(|(_, s)| !**s) {
            remaining += 1;
            for k in 0..m {
                min_head[k] = min_head[k].min(self.head[job][k]);
                min_tail[k] = min_tail[k].min(self.tail[job][k]);
            }
        }
        if remaining == 0 {
            return front[m - 1];
        }
        let mut lb = 0;
        for (p, &(m1, m2)) in self.pairs.iter().enumerate() {
            let mut t1 = front[m1].max(min_head[m1]);
            let mut t2 = front[m2].max(min_head[m2]);
            for &job in &self.order[p] {
                if scheduled[job] {
                    continue;
                }
                t1 += self.pt[job][m1];
                let ready = t1 + self.lag[p][job];
                t2 = t2.max(ready) + self.pt[job][m2];
            }
            lb = lb.max(t2 + min_tail[m2]);
        }
        lb
    }
}

/// The calibration: the kernel, its node population and the slices timed
/// so far.
pub struct Calibration {
    jobs: usize,
    slice: usize,
    kernel: Kernel,
    nodes: Vec<(Vec<Time>, Vec<bool>)>,
    cursor: usize,
    /// ns/node of every slice timed.
    slices: Vec<f64>,
}

impl Calibration {
    /// Builds a population of `jobs` × 20 nodes from `seed` and checks the
    /// kernel's bounds against the library's; mismatches count as failures
    /// in `tally`.
    pub fn new(seed: u64, jobs: usize, tally: &mut Tally) -> Self {
        let mut state = seed ^ 0xCA11_B8A7_E000_0001;
        let inst = fsp::taillard::generate("calib", jobs, MACHINES, taillard_seed(&mut state));
        let kernel = Kernel::new(&inst);
        let problem = FspProblem::new(inst.clone());
        let mut nodes = Vec::with_capacity(POPULATION);
        let mut mismatches = 0;
        for _ in 0..POPULATION {
            let depth = 1 + (splitmix64(&mut state) % MAX_DEPTH) as usize;
            let mut order: Vec<usize> = (0..jobs).collect();
            for i in 0..depth {
                let pick = i + (splitmix64(&mut state) % (jobs - i) as u64) as usize;
                order.swap(i, pick);
            }
            let node = FspNode::from_prefix(&inst, &order[..depth]);
            let scheduled: Vec<bool> = (0..jobs).map(|j| node.is_scheduled(j)).collect();
            if kernel.bound(node.front(), &scheduled) != problem.bound_value(&node) {
                mismatches += 1;
            }
            nodes.push((node.front().to_vec(), scheduled));
        }
        tally.attempt();
        if mismatches > 0 {
            tally.fail(format!(
                "calibration bound disagrees with the library on {mismatches} nodes"
            ));
        }
        Self {
            jobs,
            slice: (SLICE_AT_20_JOBS * 20 / jobs).max(4),
            kernel,
            nodes,
            cursor: 0,
            slices: Vec::new(),
        }
    }

    /// Times one slice of nodes (about 2 ms). Workloads take
    /// slices between their timed calls, so the calibration sees the same
    /// machine the measurement did.
    pub fn sample(&mut self) {
        let start = Instant::now();
        let mut sum = 0u64;
        for _ in 0..self.slice {
            let (front, scheduled) = &self.nodes[self.cursor];
            self.cursor = (self.cursor + 1) % self.nodes.len();
            sum += u64::from(self.kernel.bound(black_box(front), black_box(scheduled)));
        }
        black_box(sum);
        self.slices
            .push(start.elapsed().as_nanos() as f64 / self.slice as f64);
    }

    /// Mean ns/node over the slices taken; one full pass over the
    /// population if there are none.
    pub fn ns_per_node(&mut self) -> f64 {
        if self.slices.is_empty() {
            for _ in 0..POPULATION / self.slice {
                self.sample();
            }
        }
        self.slices.iter().sum::<f64>() / self.slices.len() as f64
    }

    /// Factor that rescales a wall time measured during the slices taken
    /// to the reference machine (divide rates by it).
    pub fn time_scale(&mut self) -> f64 {
        REFERENCE_NS_PER_JOB * self.jobs as f64 / self.ns_per_node()
    }
}
