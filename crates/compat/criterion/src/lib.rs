//! Offline stand-in for the `criterion` crate.
//!
//! The build image has no network access, so the real criterion cannot be
//! fetched. This shim implements the subset of its API that the workspace
//! benches use — `Criterion::benchmark_group`, `BenchmarkGroup::{sample_size,
//! throughput, bench_function, bench_with_input, finish}`, `Bencher::iter`,
//! `BenchmarkId`, `Throughput::Elements`, and the
//! `criterion_group!`/`criterion_main!` macros — measuring wall-clock time per
//! iteration (and per element, under a throughput) and printing a one-line
//! summary per benchmark. There is no statistical analysis, HTML report, or
//! baseline comparison.
//!
//! If the real criterion ever becomes available, delete `crates/compat/` and
//! point the dev-dependency at crates.io: the bench sources need no changes.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Identifier for one benchmark within a group: `function_id/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function_id: impl Into<String>, parameter: impl Display) -> Self {
        Self {
            id: format!("{}/{}", function_id.into(), parameter),
        }
    }

    pub fn from_parameter(parameter: impl Display) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// How much work one iteration does, so the report can give a per-element
/// time.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// The routine processes this many elements per iteration.
    Elements(u64),
}

/// Timing loop handed to the closure of `bench_function`/`bench_with_input`.
pub struct Bencher {
    samples: usize,
    /// Mean wall-clock duration of one call of the routine, filled by `iter`.
    mean: Duration,
}

impl Bencher {
    /// Calls `routine` repeatedly (one warm-up call, then `samples` timed
    /// calls) and records the mean duration.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        std::hint::black_box(routine());
        let start = Instant::now();
        for _ in 0..self.samples {
            std::hint::black_box(routine());
        }
        self.mean = start.elapsed() / self.samples.max(1) as u32;
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed iterations each benchmark runs.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Sets the work per iteration of the benchmarks that follow.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            samples: self.sample_size,
            mean: Duration::ZERO,
        };
        f(&mut bencher);
        self.report(&id.to_string(), bencher.mean);
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut bencher = Bencher {
            samples: self.sample_size,
            mean: Duration::ZERO,
        };
        f(&mut bencher, input);
        self.report(&id.to_string(), bencher.mean);
        self
    }

    /// Ends the group. (Reporting already happened per-benchmark.)
    pub fn finish(&mut self) {}

    fn report(&mut self, id: &str, mean: Duration) {
        match self.throughput {
            Some(Throughput::Elements(n)) => println!(
                "{}/{:<40} {:>12.3?}/iter {:>12.1} ns/element",
                self.name,
                id,
                mean,
                mean.as_nanos() as f64 / n.max(1) as f64
            ),
            None => println!("{}/{:<40} {:>12.3?}/iter", self.name, id, mean),
        }
        self.criterion.benchmarks_run += 1;
    }
}

/// Entry point mirroring `criterion::Criterion`.
#[derive(Debug, Default)]
pub struct Criterion {
    benchmarks_run: usize,
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
            throughput: None,
            criterion: self,
        }
    }

    pub fn bench_function<F>(&mut self, id: impl Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let name = id.to_string();
        self.benchmark_group(name.clone()).bench_function("", f);
        self
    }

    /// Prints the closing summary line. Called by `criterion_main!`.
    pub fn final_summary(&self) {
        println!("ran {} benchmark(s)", self.benchmarks_run);
    }
}

/// `black_box` re-export so `criterion::black_box` keeps working.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Bundles benchmark functions into one group function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(criterion: &mut $crate::Criterion) {
            $( $target(criterion); )+
        }
    };
}

/// Generates `main` running every group. Requires `harness = false` on the
/// bench target, exactly like the real criterion.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::Criterion::default();
            $( $group(&mut criterion); )+
            criterion.final_summary();
        }
    };
}
