//! Multi-threaded *parallel bounding* on the CPU (Type 1 parallelism without
//! a GPU): the bounds of a batch of sub-problems are evaluated by a pool of
//! worker threads.
//!
//! This is the CPU mirror of the GPU off-load engine — same work split
//! (selection / branching / elimination stay sequential, bounding fans out) —
//! and is the multicore implementation behind the `gpu-bnb` crate's
//! `BoundingBackend` trait, so it must be *fair* to compare against the other
//! backends: the workers are **long-lived** and channel-fed, created once in
//! [`ParallelBoundingPool::new`] and reused by every
//! [`ParallelBoundingPool::bound_batch`] call, instead of paying a thread
//! spawn + join per batch.

use bb::problem::NodeBound;
use bb::FspNode;
use fsp::Time;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// A unit of work shipped to a worker. The closure borrows the caller's batch
/// and result buffers; [`ParallelBoundingPool::bound_batch`] blocks until
/// every dispatched job has completed before returning, which is what makes
/// the lifetime erasure in `dispatch` sound.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A CPU thread pool that evaluates lower bounds of node batches in parallel.
///
/// Workers are spawned once and live until the pool is dropped; each batch is
/// split into one contiguous chunk per worker and fed through per-worker
/// channels.
#[derive(Debug)]
pub struct ParallelBoundingPool {
    senders: Vec<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

impl ParallelBoundingPool {
    /// Creates a pool using `threads` long-lived worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "the bounding pool needs at least one thread");
        let mut senders = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let (tx, rx): (Sender<Job>, Receiver<Job>) = channel();
            let handle = std::thread::Builder::new()
                .name(format!("bounding-worker-{i}"))
                .spawn(move || {
                    // Run jobs until the pool drops its sender. A panicking
                    // job (a buggy or poisoned bound implementation) must
                    // not take the long-lived worker down with it: the
                    // panic is caught, the job's completion sender is
                    // dropped by the unwind (which is how the dispatching
                    // batch learns something died), and the worker stays
                    // available for the next batch — so the pool both keeps
                    // working after a failed batch and shuts down cleanly on
                    // drop instead of leaving dead workers behind.
                    while let Ok(job) = rx.recv() {
                        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                    }
                })
                .expect("spawn bounding worker");
            senders.push(tx);
            handles.push(handle);
        }
        Self { senders, handles }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.senders.len()
    }

    /// Evaluates the lower bound of every node of `batch`, in input order.
    pub fn bound_batch<B: NodeBound>(&self, batch: &[FspNode], bound: &B) -> Vec<Time> {
        if batch.is_empty() {
            return Vec::new();
        }
        if self.threads() == 1 || batch.len() == 1 {
            let mut results = Vec::with_capacity(batch.len());
            bound.bound_nodes(batch, &mut results);
            return results;
        }

        let chunk = batch.len().div_ceil(self.threads());
        let mut results = vec![0 as Time; batch.len()];
        let (done_tx, done_rx) = channel::<()>();
        let mut dispatched = 0usize;
        let mut send_failed = false;
        for ((nodes, out), sender) in batch
            .chunks(chunk)
            .zip(results.chunks_mut(chunk))
            .zip(&self.senders)
        {
            let done = done_tx.clone();
            let task = move || {
                let mut bounds = Vec::with_capacity(nodes.len());
                bound.bound_nodes(nodes, &mut bounds);
                out.copy_from_slice(&bounds);
                let _ = done.send(());
            };
            // SAFETY: the closure borrows `batch`, `bound` and a disjoint
            // chunk of `results`; we erase those lifetimes to feed it through
            // the 'static worker channel. The completion loop below does not
            // return (or unwind) until every dispatched job has either run
            // or been destroyed — `Err` from `done_rx.recv()` means every
            // `done` clone is gone, i.e. no job still holds a borrow — so no
            // borrow outlives this call, even when a job panicked (the
            // worker catches the panic; the unwind destroys the job and its
            // borrows before the worker takes new work) or a worker died.
            let job: Job = unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Box<dyn FnOnce() + Send>>(
                    Box::new(task),
                )
            };
            if sender.send(job).is_err() {
                // The worker is dead (a previous batch panicked in it). Do
                // NOT unwind yet: chunks already dispatched to live workers
                // still borrow our buffers.
                send_failed = true;
                break;
            }
            dispatched += 1;
        }
        // Drop our own sender so dead workers surface as a disconnect
        // instead of a hang.
        drop(done_tx);
        let mut completed = 0usize;
        while completed < dispatched {
            match done_rx.recv() {
                Ok(()) => completed += 1,
                // Disconnected: every outstanding job finished or was
                // dropped, so unwinding is safe now.
                Err(_) => break,
            }
        }
        assert!(
            !send_failed && completed == dispatched,
            "a bounding job panicked or its worker died before completing its chunk"
        );
        results
    }
}

/// Cloning a pool creates a **new** set of workers with the same parallelism
/// (worker channels are not shareable handles).
impl Clone for ParallelBoundingPool {
    fn clone(&self) -> Self {
        Self::new(self.threads())
    }
}

impl Drop for ParallelBoundingPool {
    fn drop(&mut self) {
        // Disconnect the channels so the workers' `recv` loops end — a
        // worker that is mid-job finishes (or unwinds out of) that job
        // first, sees the disconnect, and exits…
        self.senders.clear();
        // …then reap them. `join` returns `Err` only if a worker's own loop
        // panicked (job panics are caught inside the worker); either way the
        // thread is gone and the drop completes without hanging.
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb::FspProblem;
    use fsp::taillard::generate;
    use fsp::JohnsonLowerBound;

    fn batch(inst: &fsp::Instance, count: usize) -> Vec<FspNode> {
        let problem = FspProblem::new(inst.clone());
        bb::frozen_pool(&problem, count).nodes
    }

    #[test]
    fn parallel_bounds_match_sequential_bounds() {
        let inst = generate("t", 14, 6, 17);
        let lb = JohnsonLowerBound::new(&inst);
        let nodes = batch(&inst, 64);
        let sequential: Vec<Time> = nodes
            .iter()
            .map(|n| {
                use bb::problem::NodeBound;
                lb.bound_node(n)
            })
            .collect();
        for threads in [1, 2, 3, 8] {
            let pool = ParallelBoundingPool::new(threads);
            assert_eq!(
                pool.bound_batch(&nodes, &lb),
                sequential,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn workers_are_reused_across_batches() {
        // Many consecutive batches through the same pool: the channel-fed
        // workers must service all of them (a per-batch spawn design would
        // also pass this, but this is the regression guard for worker reuse
        // staying deadlock-free across calls).
        let inst = generate("t", 12, 5, 9);
        let lb = JohnsonLowerBound::new(&inst);
        let nodes = batch(&inst, 48);
        let pool = ParallelBoundingPool::new(3);
        let first = pool.bound_batch(&nodes, &lb);
        for _ in 0..20 {
            assert_eq!(pool.bound_batch(&nodes, &lb), first);
        }
        assert_eq!(pool.threads(), 3);
    }

    #[test]
    fn empty_and_singleton_batches() {
        let inst = generate("t", 8, 4, 3);
        let lb = JohnsonLowerBound::new(&inst);
        let pool = ParallelBoundingPool::new(4);
        assert!(pool.bound_batch(&[], &lb).is_empty());
        let one = vec![FspNode::from_prefix(&inst, &[2])];
        assert_eq!(pool.bound_batch(&one, &lb).len(), 1);
    }

    #[test]
    fn more_threads_than_nodes_is_fine() {
        let inst = generate("t", 8, 4, 3);
        let lb = JohnsonLowerBound::new(&inst);
        let nodes: Vec<FspNode> = (0..3).map(|j| FspNode::from_prefix(&inst, &[j])).collect();
        let pool = ParallelBoundingPool::new(16);
        assert_eq!(pool.bound_batch(&nodes, &lb).len(), 3);
    }

    #[test]
    fn cloned_pools_bound_independently() {
        let inst = generate("t", 10, 4, 21);
        let lb = JohnsonLowerBound::new(&inst);
        let nodes = batch(&inst, 32);
        let pool = ParallelBoundingPool::new(2);
        let clone = pool.clone();
        assert_eq!(clone.threads(), 2);
        assert_eq!(
            pool.bound_batch(&nodes, &lb),
            clone.bound_batch(&nodes, &lb)
        );
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        ParallelBoundingPool::new(0);
    }

    /// A bound that panics on every node ≥ some depth — stands in for a
    /// buggy bound implementation poisoning a batch mid-dispatch.
    struct PanickingBound;

    impl NodeBound for PanickingBound {
        fn bound_node(&self, _node: &FspNode) -> Time {
            panic!("poisoned bound");
        }
        fn bound_name(&self) -> &'static str {
            "panicking"
        }
    }

    use bb::problem::NodeBound;

    #[test]
    fn pool_survives_a_panicking_batch_and_keeps_bounding() {
        let inst = generate("t", 14, 6, 17);
        let lb = JohnsonLowerBound::new(&inst);
        let nodes = batch(&inst, 64);
        assert!(nodes.len() > 1, "the poisoned batch must actually dispatch");
        let pool = ParallelBoundingPool::new(3);
        let reference = pool.bound_batch(&nodes, &lb);

        // The batch fails loudly…
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.bound_batch(&nodes, &PanickingBound)
        }));
        assert!(caught.is_err(), "a poisoned batch must fail loudly");

        // …but the long-lived workers survive it: the same pool still
        // bounds the next batch correctly (before the fix the workers died
        // with the panicking jobs and every later batch failed too).
        assert_eq!(pool.bound_batch(&nodes, &lb), reference);
    }

    #[test]
    fn pool_drops_cleanly_after_a_mid_flight_panic() {
        // Drop the pool right after a batch panicked mid-flight, on its own
        // thread so a hang in `Drop` (workers never reaped) turns into a
        // test failure instead of a stuck suite.
        let (done_tx, done_rx) = channel();
        std::thread::spawn(move || {
            let inst = generate("t", 14, 6, 17);
            let nodes = batch(&inst, 64);
            assert!(nodes.len() > 1, "the poisoned batch must actually dispatch");
            let pool = ParallelBoundingPool::new(4);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.bound_batch(&nodes, &PanickingBound)
            }));
            assert!(caught.is_err());
            drop(pool);
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("dropping a pool after a mid-flight panic must not hang");
    }
}
