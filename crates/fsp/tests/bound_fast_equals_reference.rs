//! The host Johnson bound's fast path must return exactly the value of the
//! line-by-line paper reference, `bound_prefix_counted`, through every entry
//! point: on random instances and prefixes, on the edge shapes (m = 2,
//! n = 1; empty, one-remaining and complete prefixes), on fronts that are not
//! completion times of any prefix, and with one `BoundScratch` reused across
//! instances of different sizes.
//!
//! The batch entry point, `bound_batch_with`, bounds its nodes
//! `JohnsonLowerBound::LANES` at a time, one per lane, and must match the
//! reference node for node: for batch lengths around the lane count (a
//! short last block is padded), for blocks that mix complete prefixes with
//! live ones, and on arbitrary fronts. Every batch is bounded twice: by the
//! kernel build this CPU dispatches to (AVX2 where the CPU has it) and by
//! the portable build, through `bound_batch_portable_with`.

use fsp::bound::LowerBound;
use fsp::taillard::generate;
use fsp::{BoundScratch, Instance, JohnsonLowerBound, PartialSchedule, Time};
use proptest::prelude::*;

/// A splitmix64 stream.
fn splitmix(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Deterministic permutation of `0..n` from `seed` (splitmix64 + Fisher–Yates).
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut next = splitmix(seed);
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    perm
}

/// Checks every fast entry point against the reference for one sub-problem
/// given by its per-machine `front` and scheduled set, and returns the value.
fn check(
    lb: &JohnsonLowerBound,
    scratch: &mut BoundScratch,
    front: &[Time],
    prefix: &[usize],
) -> Time {
    let mut scheduled = vec![false; lb.data().jobs()];
    for &job in prefix {
        scheduled[job] = true;
    }
    let (reference, _) = lb.bound_prefix_counted(front, &scheduled);
    let fast = [
        lb.bound_prefix(front, &scheduled),
        lb.bound_prefix_fn(front, |j| scheduled[j]),
        lb.bound_prefix_with(scratch, front, &scheduled),
        lb.bound_prefix_fn_with(scratch, front, |j| scheduled[j]),
    ];
    assert_eq!(
        fast, [reference; 4],
        "fast != reference for prefix {prefix:?}, front {front:?}"
    );
    reference
}

/// Checks the sub-problem of `prefix` on `inst`, including the
/// `LowerBound::bound` entry point on its partial schedule.
fn check_prefix(
    inst: &Instance,
    lb: &JohnsonLowerBound,
    scratch: &mut BoundScratch,
    prefix: &[usize],
) {
    let sched = PartialSchedule::from_prefix(inst, prefix);
    let reference = check(lb, scratch, sched.front(), prefix);
    assert_eq!(
        lb.bound(&sched),
        reference,
        "LowerBound::bound, prefix {prefix:?}"
    );
}

/// Every depth of one random job order, so the prefixes include the empty,
/// the one-remaining and the complete one.
fn check_every_depth(inst: &Instance, scratch: &mut BoundScratch, order_seed: u64) {
    let lb = JohnsonLowerBound::new(inst);
    let order = shuffled(inst.jobs(), order_seed);
    for depth in 0..=inst.jobs() {
        check_prefix(inst, &lb, scratch, &order[..depth]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fast_bound_equals_the_reference_on_random_prefixes(
        (n, m, seed) in (1usize..=14, 2usize..=8, 1i64..1_000_000),
        (n2, m2, seed2) in (1usize..=14, 2usize..=8, 1i64..1_000_000),
        order_seed in any::<u64>(),
    ) {
        // One scratch, interleaved across two instances of (usually)
        // different sizes.
        let mut scratch = BoundScratch::new();
        let a = generate("fast-a", n, m, seed);
        let b = generate("fast-b", n2, m2, seed2);
        check_every_depth(&a, &mut scratch, order_seed);
        check_every_depth(&b, &mut scratch, order_seed ^ 1);
        check_every_depth(&a, &mut scratch, order_seed ^ 2);
    }
}

proptest! {
    // About one case in 500 has a scheduled job's head decide a minimum
    // that the front does not cover, which is what catches an unmasked
    // head or tail minimum.
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The bound is defined for any `front`, not only for completion times
    /// of the prefix: a front that falls from one machine to the next, or
    /// that sits below a scheduled job's head, must give the reference's
    /// value too.
    #[test]
    fn fast_bound_equals_the_reference_on_arbitrary_fronts(
        (n, m, seed) in (1usize..=10, 2usize..=6, 1i64..1_000_000),
        order_seed in any::<u64>(),
        depth_pick in 0usize..64,
        front in proptest::collection::vec(0u32..400, 6..7),
        low in any::<bool>(),
    ) {
        let inst = generate("fast-front", n, m, seed);
        let lb = JohnsonLowerBound::new(&inst);
        let order = shuffled(n, order_seed);
        let prefix = &order[..depth_pick % (n + 1)];
        let front: Vec<Time> = front[..m].iter().map(|&t| if low { t / 40 } else { t }).collect();
        check(&lb, &mut BoundScratch::new(), &front, prefix);
    }
}

#[test]
fn one_job_on_two_machines() {
    let inst = Instance::from_rows("1x2", &[vec![4, 7]]);
    let lb = JohnsonLowerBound::new(&inst);
    let mut scratch = BoundScratch::new();
    check_prefix(&inst, &lb, &mut scratch, &[]);
    check_prefix(&inst, &lb, &mut scratch, &[0]);
    assert_eq!(lb.bound(&PartialSchedule::new(&inst)), 11);
}

#[test]
fn edge_prefixes_on_two_machines() {
    let mut scratch = BoundScratch::new();
    for (n, seed) in [(1usize, 3i64), (2, 5), (9, 11)] {
        check_every_depth(&generate("edge-2", n, 2, seed), &mut scratch, seed as u64);
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "bounds every depth of 200x20 orders; run in release (CI paper-shapes job)"
)]
fn fast_bound_equals_the_reference_at_200x20() {
    let mut scratch = BoundScratch::new();
    let small = generate("fast-small", 7, 4, 19);
    for seed in [1i64, 2012] {
        let inst = generate("fast-200x20", 200, 20, seed);
        check_every_depth(&inst, &mut scratch, seed as u64);
        // Back to a small instance with the scratch a 200x20 bound sized.
        check_every_depth(&small, &mut scratch, seed as u64);
    }
}

/// One sub-problem of a batch: a front and a scheduled set.
struct Sub {
    front: Vec<Time>,
    scheduled: Vec<bool>,
}

impl Sub {
    fn of_prefix(inst: &Instance, prefix: &[usize]) -> Self {
        let mut scheduled = vec![false; inst.jobs()];
        for &job in prefix {
            scheduled[job] = true;
        }
        let front = PartialSchedule::from_prefix(inst, prefix).front().to_vec();
        Self { front, scheduled }
    }

    fn front(&self) -> &[Time] {
        &self.front
    }

    fn is_scheduled(&self, job: usize) -> bool {
        self.scheduled[job]
    }
}

/// Bounds `subs` through both batch entry points, each appending to a
/// non-empty buffer, and checks every bound against the reference.
fn check_batch(lb: &JohnsonLowerBound, scratch: &mut BoundScratch, subs: &[Sub]) {
    let reference: Vec<Time> = subs
        .iter()
        .map(|sub| lb.bound_prefix_counted(&sub.front, &sub.scheduled).0)
        .collect();
    let sentinel = Time::MAX - 7;
    let (mut dispatched, mut portable) = (vec![sentinel], vec![sentinel]);
    lb.bound_batch_with(
        scratch,
        subs,
        Sub::front,
        Sub::is_scheduled,
        &mut dispatched,
    );
    lb.bound_batch_portable_with(scratch, subs, Sub::front, Sub::is_scheduled, &mut portable);
    for (out, path) in [
        (dispatched, JohnsonLowerBound::kernel_path()),
        (portable, "portable"),
    ] {
        assert_eq!(
            out[0], sentinel,
            "the {path} batch must append, not overwrite"
        );
        assert_eq!(
            out[1..],
            reference[..],
            "{path} batch of {} != reference",
            subs.len()
        );
    }
}

/// The batch lengths around the lane count: empty, one, a short block, a
/// full block, a full block plus one, two full blocks minus and plus one.
fn batch_lengths() -> [usize; 7] {
    let lanes = JohnsonLowerBound::LANES;
    [
        0,
        1,
        lanes - 1,
        lanes,
        lanes + 1,
        2 * lanes - 1,
        2 * lanes + 1,
    ]
}

/// `len` random sub-problems of `inst`: empty, complete and partial
/// prefixes of random orders, each with its real front or, with
/// `arbitrary_fronts`, sometimes with a random one that need not rise from
/// machine to machine.
fn random_subs(inst: &Instance, len: usize, seed: u64, arbitrary_fronts: bool) -> Vec<Sub> {
    let (n, m) = (inst.jobs(), inst.machines());
    let mut next = splitmix(seed);
    (0..len)
        .map(|_| {
            let order = shuffled(n, next());
            let depth = match next() % 4 {
                0 => 0,
                1 => n,
                _ => (next() % (n as u64 + 1)) as usize,
            };
            let mut sub = Sub::of_prefix(inst, &order[..depth]);
            if arbitrary_fronts && next().is_multiple_of(2) {
                let scale = if next().is_multiple_of(2) { 1 } else { 40 };
                sub.front = (0..m).map(|_| (next() % 400) as Time / scale).collect();
            }
            sub
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn batch_equals_the_reference_node_for_node(
        (n, m, seed) in (1usize..=14, 2usize..=8, 1i64..1_000_000),
        (n2, m2, seed2) in (1usize..=14, 2usize..=8, 1i64..1_000_000),
        subs_seed in any::<u64>(),
        extra_len in 0usize..40,
    ) {
        // One scratch, interleaved across two instances of (usually)
        // different sizes and across every batch length.
        let mut scratch = BoundScratch::new();
        let a = generate("batch-a", n, m, seed);
        let b = generate("batch-b", n2, m2, seed2);
        let (lb_a, lb_b) = (JohnsonLowerBound::new(&a), JohnsonLowerBound::new(&b));
        for (i, len) in batch_lengths().into_iter().chain([extra_len]).enumerate() {
            let seed = subs_seed ^ i as u64;
            check_batch(&lb_a, &mut scratch, &random_subs(&a, len, seed, true));
            check_batch(&lb_b, &mut scratch, &random_subs(&b, len, seed ^ 1, true));
        }
    }
}

#[test]
fn batch_lanes_mix_complete_and_live_prefixes() {
    let inst = generate("batch-mix", 9, 5, 77);
    let lb = JohnsonLowerBound::new(&inst);
    let mut scratch = BoundScratch::new();
    let order = shuffled(9, 5);
    // Every depth, so each block holds complete, one-remaining and empty
    // prefixes next to each other, in both orders.
    let mut subs: Vec<Sub> = (0..=9)
        .map(|d| Sub::of_prefix(&inst, &order[..d]))
        .collect();
    check_batch(&lb, &mut scratch, &subs);
    subs.reverse();
    check_batch(&lb, &mut scratch, &subs);
    // A complete prefix alone in a block, in the padded last lane, and in a
    // block of complete prefixes only.
    for len in batch_lengths() {
        let mut subs: Vec<Sub> = (0..len)
            .map(|i| Sub::of_prefix(&inst, &order[..i % 3]))
            .collect();
        subs.push(Sub::of_prefix(&inst, &order));
        check_batch(&lb, &mut scratch, &subs);
        let complete: Vec<Sub> = (0..len)
            .map(|i| Sub::of_prefix(&inst, &shuffled(9, i as u64)))
            .collect();
        check_batch(&lb, &mut scratch, &complete);
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "bounds batches of 200x20 nodes; run in release (CI paper-shapes job)"
)]
fn batch_equals_the_reference_at_200x20() {
    let mut scratch = BoundScratch::new();
    let small = generate("batch-small", 7, 4, 19);
    let lb_small = JohnsonLowerBound::new(&small);
    for seed in [1i64, 2012] {
        let inst = generate("batch-200x20", 200, 20, seed);
        let lb = JohnsonLowerBound::new(&inst);
        for len in batch_lengths().into_iter().chain([64]) {
            check_batch(
                &lb,
                &mut scratch,
                &random_subs(&inst, len, seed as u64, false),
            );
            // Back to a small instance with the scratch a 200x20 batch sized.
            let subs = random_subs(&small, len, seed as u64, true);
            check_batch(&lb_small, &mut scratch, &subs);
        }
    }
}
