//! How fast is this machine right now?
//!
//! The reference box is a two-vCPU shared VM whose effective speed
//! drifts by 20–50 % for minutes at a time: over one sweep of ten runs
//! on an unchanged tree, the same world and requests read
//! `cpu_us_per_query` 4.7 µs for four runs and 6.0 µs for the next six,
//! with every latency moving in step. No window length fixes that, and a
//! benchmark whose two sets of runs straddle such a phase cannot tell the
//! drift from a regression.
//!
//! So every run times a fixed kernel of the harness's own — integer
//! arithmetic and dependent loads from a cache-resident table, on as many
//! threads as the box has cores, touching none of the repository's code
//! — right next to each thing it measures (between the slices of the
//! timed window, with the clients parked), and reports time-like metrics
//! in **reference time**: the reading divided (a rate multiplied) by
//! `slowdown`, the kernel's time beside it as a share of what a machine
//! stepping the kernel at [`REFERENCE_STEPS_PER_S`] would take. The
//! reference rate is a declared unit, not a property of any box; it
//! cancels in every ratio of two results. The readings as taken and the
//! slowdowns go to standard error and into `--out` lines (`raw`,
//! `slowdown`), so a comparison can show both and flag drift.
//!
//! What the kernel can and cannot stand for: it is compute-bound, so it
//! tracks whatever slows both vCPUs' instruction streams (a busy sibling
//! hyperthread, host time-slicing), which is what ten-run sweeps on this
//! box show to dominate — the README tabulates, for every workload and
//! metric, the spread of the readings as taken against the spread in
//! reference time. It does not track disk or page-cache state; metrics
//! that are not times (`rss_mib`, `disk_bytes_per_route`) are never
//! scaled. A memory-bound kernel (random writes over 32 MiB per thread)
//! swung ±25 % between back-to-back samples on this box and tracked the
//! daemon's throughput no better. The kernel never changes with the code
//! under test, so an optimisation moves the measured value and not the
//! yardstick.

use std::time::Instant;

use crate::stats::median;

/// Kernel steps per second and thread that define reference time. A
/// round number of the order this class of machine reaches (the
/// reference box steps at ~1.15 × 10⁸ when undisturbed).
pub const REFERENCE_STEPS_PER_S: f64 = 1e8;

/// Table words per thread: 64 KiB, resident in L2.
const WORDS: usize = 1 << 14;
/// Steps of the kernel per round and thread.
const STEPS: usize = 3_000_000;
/// Rounds per sample; the median round is the sample.
const ROUNDS: usize = 3;

/// One thread's share: a xorshift walk with a dependent table lookup and
/// a data-dependent branch per step.
fn kernel(table: &[u32], mut x: u64) -> u64 {
    let mask = table.len() - 1;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let v = table[(x ^ acc) as usize & mask] as u64;
        acc = if v & 1 == 0 {
            acc.wrapping_add(v).rotate_left(7)
        } else {
            acc ^ x.wrapping_mul(v | 1)
        };
    }
    acc
}

/// The yardstick: one small table, shared read-only by the threads.
pub struct Yardstick {
    table: Vec<u32>,
    threads: usize,
}

impl Default for Yardstick {
    fn default() -> Yardstick {
        Yardstick::new()
    }
}

impl Yardstick {
    /// Fills the table (a fixed pattern: the kernel's path never varies).
    pub fn new() -> Yardstick {
        Yardstick {
            table: (0..WORDS as u32)
                .map(|i| i.wrapping_mul(0x9e37_79b9))
                .collect(),
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// Seconds one round of the kernel takes right now on `threads`
    /// threads at once: the slowest thread's time, median of [`ROUNDS`]
    /// rounds.
    fn sample(&self, threads: usize) -> f64 {
        let rounds: Vec<f64> = (0..ROUNDS)
            .map(|_| {
                let t0 = Instant::now();
                std::thread::scope(|scope| {
                    for t in 0..threads {
                        let table = &self.table;
                        scope.spawn(move || {
                            std::hint::black_box(kernel(table, 0x9e37_79b9 + t as u64))
                        });
                    }
                });
                t0.elapsed().as_secs_f64()
            })
            .collect();
        median(&rounds)
    }

    /// The kernel's time on every core at once as a share of the time a
    /// round takes at [`REFERENCE_STEPS_PER_S`]: above 1 the machine is
    /// slower than the reference right now. For work that keeps every
    /// core busy — the timed slices.
    pub fn slowdown(&self) -> f64 {
        self.sample(self.threads) / (STEPS as f64 / REFERENCE_STEPS_PER_S)
    }

    /// The same on one thread: for single-threaded work that starts from
    /// an idle machine — a daemon launch. After a pause the box runs its
    /// two vCPUs at half speed for up to a second when both are asked
    /// for (the all-core kernel then reads 54 ms for 27), which a launch
    /// never notices; one thread reads 27 ms either way.
    pub fn slowdown_single(&self) -> f64 {
        self.sample(1) / (STEPS as f64 / REFERENCE_STEPS_PER_S)
    }
}
