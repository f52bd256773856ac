//! Micro-benchmark of the lower-bound functions themselves: the Johnson
//! two-machine-relaxation bound (the paper's kernel) versus the cheap
//! one-machine bound, on the root node of two instance classes.
//!
//! Re-bounding one node keeps the branch predictor and the caches warm, so
//! the `population` rows also bound realistic node populations, each once
//! per iteration, and report ns per node: every depth-3 node of the smoke
//! instance (20×20, seed 2012), its 512-node frozen frontier, and the frozen
//! frontier of one 200×20 instance. The `johnson` rows bound one node per
//! call (the single-node entry point); the `johnson-batch` rows bound the
//! same population through the batch entry point the backends use, eight
//! nodes per kernel call.

use bb::{frozen_pool, FspNode, FspProblem};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fsp::bound::LowerBound;
use fsp::taillard::generate;
use fsp::{BoundScratch, JohnsonLowerBound, OneMachineBound, PartialSchedule, Time};

fn bench_lower_bounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("lower_bound");
    group.sample_size(20);

    for (jobs, machines) in [(20usize, 20usize), (50, 20)] {
        let inst = generate(format!("{jobs}x{machines}"), jobs, machines, 2012);
        let johnson = JohnsonLowerBound::new(&inst);
        let one_machine = OneMachineBound::new(&inst);
        let sched = PartialSchedule::from_prefix(&inst, &[0, 1]);

        group.bench_with_input(
            BenchmarkId::new("johnson", format!("{jobs}x{machines}")),
            &sched,
            |b, s| b.iter(|| std::hint::black_box(johnson.bound(s))),
        );
        group.bench_with_input(
            BenchmarkId::new("one-machine", format!("{jobs}x{machines}")),
            &sched,
            |b, s| b.iter(|| std::hint::black_box(one_machine.bound(s))),
        );
    }
    group.finish();
}

/// Every node at `depth` below the root, in lexicographic prefix order.
fn nodes_at_depth(problem: &FspProblem, depth: usize) -> Vec<FspNode> {
    let mut layer = vec![problem.root()];
    for _ in 0..depth {
        layer = layer.iter().flat_map(|node| problem.branch(node)).collect();
    }
    layer
}

fn bench_populations(c: &mut Criterion) {
    let smoke = FspProblem::new(generate("20x20", 20, 20, 2012));
    let wide = FspProblem::new(generate("200x20", 200, 20, 2012));
    let populations = [
        ("depth3-20x20", &smoke, nodes_at_depth(&smoke, 3)),
        ("frozen512-20x20", &smoke, frozen_pool(&smoke, 512).nodes),
        ("frozen512-200x20", &wide, frozen_pool(&wide, 512).nodes),
    ];

    let mut group = c.benchmark_group("lower_bound/population");
    group.sample_size(10);
    let mut scratch = BoundScratch::new();
    for (label, problem, nodes) in &populations {
        let johnson = problem.bound_fn();
        group.throughput(Throughput::Elements(nodes.len() as u64));
        group.bench_with_input(BenchmarkId::new("johnson", label), nodes, |b, nodes| {
            b.iter(|| {
                nodes
                    .iter()
                    .map(|node| {
                        johnson.bound_prefix_fn_with(&mut scratch, node.front(), |j| {
                            node.is_scheduled(j)
                        })
                    })
                    .fold(0, Time::wrapping_add)
            })
        });
        let mut bounds = Vec::with_capacity(nodes.len());
        group.bench_with_input(
            BenchmarkId::new("johnson-batch", label),
            nodes,
            |b, nodes| {
                b.iter(|| {
                    bounds.clear();
                    johnson.bound_batch_with(
                        &mut scratch,
                        nodes,
                        FspNode::front,
                        FspNode::is_scheduled,
                        &mut bounds,
                    );
                    bounds.iter().fold(0, |acc: Time, &lb| acc.wrapping_add(lb))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_lower_bounds, bench_populations);
criterion_main!(benches);
