//! A tiny, dependency-free benchmark harness exposing the subset of the
//! `criterion` crate API the workspace's benches use.
//!
//! The build environment is hermetic (no registry access), so the real
//! `criterion` crate cannot be resolved. This shim keeps bench sources
//! compatible: `criterion_group!` / `criterion_main!`, `Criterion`,
//! `benchmark_group`, `bench_function`, `bench_with_input`,
//! `BenchmarkId`, `sample_size` and `Bencher::iter`. Measurement is a
//! plain wall-clock mean over `sample_size` timed runs (one warm-up) —
//! no statistics, outlier analysis, or HTML reports.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level benchmark driver.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 30 }
    }
}

impl Criterion {
    /// Accepted for CLI compatibility; the shim has no CLI options.
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Default number of timed runs per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Start a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            _criterion: self,
        }
    }

    /// Run a single benchmark outside any group.
    pub fn bench_function(
        &mut self,
        name: impl Into<String>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        run_one(&name.into(), self.sample_size, &mut f);
        self
    }
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Number of timed runs for benchmarks in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Run a closure-driven benchmark.
    pub fn bench_function(
        &mut self,
        id: impl IntoBenchmarkId,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id.into_benchmark_id());
        run_one(&label, self.sample_size, &mut f);
        self
    }

    /// Run a benchmark parameterized by an input value.
    pub fn bench_with_input<I>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id.into_benchmark_id());
        let mut wrapped = |b: &mut Bencher| f(b, input);
        run_one(&label, self.sample_size, &mut wrapped);
        self
    }

    /// End the group (no-op in the shim; kept for API compatibility).
    pub fn finish(self) {}
}

/// A function-name/parameter pair identifying one benchmark.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Combine a function name and a displayable parameter.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function.into(), parameter),
        }
    }

    /// Identify by parameter alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

/// Anything usable as a benchmark identifier (`&str` or `BenchmarkId`).
pub trait IntoBenchmarkId {
    /// The display label.
    fn into_benchmark_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> String {
        self.label
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> String {
        self
    }
}

/// Passed to the benchmark closure; collects iteration timings.
pub struct Bencher {
    samples: Vec<Duration>,
}

impl Bencher {
    /// Time one run of `f` per sample (after one untimed warm-up).
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        black_box(f());
        let start = Instant::now();
        black_box(f());
        self.samples.push(start.elapsed());
    }
}

fn run_one(label: &str, sample_size: usize, f: &mut dyn FnMut(&mut Bencher)) {
    let mut bencher = Bencher {
        samples: Vec::new(),
    };
    for _ in 0..sample_size {
        f(&mut bencher);
    }
    if bencher.samples.is_empty() {
        println!("{label:<48} (no samples)");
        return;
    }
    let total: Duration = bencher.samples.iter().sum();
    let mean = total / bencher.samples.len() as u32;
    let min = bencher.samples.iter().min().unwrap();
    println!(
        "{label:<48} mean {mean:>12.3?}  min {min:>12.3?}  ({} samples)",
        bencher.samples.len()
    );
}

/// Define a function running a list of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default().configure_from_args();
            targets = $($target),+
        );
    };
}

/// Define `main` running one or more benchmark groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_closure() {
        let mut c = Criterion::default().sample_size(3);
        let mut count = 0u32;
        {
            let mut group = c.benchmark_group("g");
            group.sample_size(3);
            group.bench_function("count", |b| b.iter(|| count += 1));
            group.finish();
        }
        // 3 samples × (1 warm-up + 1 timed) iterations.
        assert_eq!(count, 6);
    }

    #[test]
    fn bench_with_input_passes_value() {
        let mut c = Criterion::default();
        let mut seen = 0u64;
        {
            let mut group = c.benchmark_group("g");
            group.sample_size(2);
            group.bench_with_input(BenchmarkId::new("id", 7), &7u64, |b, &x| {
                b.iter(|| seen = x)
            });
            group.finish();
        }
        assert_eq!(seen, 7);
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", 16).into_benchmark_id(), "f/16");
        assert_eq!(BenchmarkId::from_parameter(3).into_benchmark_id(), "3");
    }
}
