//! A minimal Criterion-style benchmarking harness.
//!
//! The offline build cannot depend on the `criterion` crate, so the bench
//! targets (compiled with `harness = false`) use this instead: warmup,
//! repeated timed samples, median-of-samples reporting, and optional
//! throughput lines. The API deliberately mirrors the Criterion subset the
//! benches were written against so they read the same.

use std::time::{Duration, Instant};

/// Entry point handed to each bench target's `main`.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// A fresh harness.
    pub fn new() -> Self {
        Criterion::default()
    }

    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup {
        println!("\n== {name} ==");
        BenchmarkGroup {
            sample_size: 20,
            throughput: None,
        }
    }
}

/// Units processed per iteration, for derived rate reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Logical elements per iteration.
    Elements(u64),
    /// Bytes per iteration.
    Bytes(u64),
}

/// A group of related benchmarks with shared settings.
#[derive(Debug)]
pub struct BenchmarkGroup {
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup {
    /// Number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(3);
        self
    }

    /// Declare per-iteration throughput for rate reporting.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark and prints its median time (and rate).
    pub fn bench_function<F>(&mut self, name: impl AsRef<str>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            samples: Vec::with_capacity(self.sample_size),
            sample_size: self.sample_size,
        };
        f(&mut b);
        let median = b.median();
        let rate = match (self.throughput, median.as_secs_f64()) {
            (Some(Throughput::Elements(n)), s) if s > 0.0 => {
                format!("  ({:.0} elem/s)", n as f64 / s)
            }
            (Some(Throughput::Bytes(n)), s) if s > 0.0 => {
                format!("  ({:.1} MiB/s)", n as f64 / s / (1024.0 * 1024.0))
            }
            _ => String::new(),
        };
        println!("{:<44} {:>12.3?}{rate}", name.as_ref(), median);
        self
    }

    /// Ends the group (marker for parity with Criterion).
    pub fn finish(&mut self) {}
}

/// Timing driver passed to each benchmark closure.
#[derive(Debug)]
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Times `f` over `sample_size` samples (plus one warmup).
    pub fn iter<T, F: FnMut() -> T>(&mut self, mut f: F) {
        std::hint::black_box(f()); // warmup
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            std::hint::black_box(f());
            self.samples.push(t0.elapsed());
        }
    }

    fn median(&mut self) -> Duration {
        if self.samples.is_empty() {
            return Duration::ZERO;
        }
        self.samples.sort_unstable();
        self.samples[self.samples.len() / 2]
    }
}
