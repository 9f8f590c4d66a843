//! # rpi-obs — std-only, lock-free metrics for the observatory
//!
//! The serving stack measures a system that can't be asked directly; this
//! crate is how the stack measures *itself*. Three primitives, all plain
//! `AtomicU64` so the hot path never takes a lock:
//!
//! * [`Counter`] — monotone event counts (`_total` families).
//! * [`Gauge`] — instantaneous values, stored as `f64` bits.
//! * [`Histogram`] — log-bucketed latency distributions (`_seconds`
//!   families): a fixed 256-slot `u64` array, so recording is one
//!   branch-free bucket computation plus two `fetch_add`s.
//!
//! The bucket scheme is HDR-style log-linear over nanoseconds: values
//! below 16 ns map linearly (one bucket per nanosecond), every octave
//! above is split into 8 sub-buckets, giving ≤ 12.5% relative width
//! (~2 significant digits) across 16 ns … 17 s. Anything larger lands in
//! the final overflow bucket. [`HistSnapshot`]s are mergeable (bucket-wise
//! addition) and diffable (for interval deltas), and quantile extraction
//! reports the *upper bound* of the bucket holding the requested rank —
//! so the error versus an exact oracle is at most one bucket width.
//!
//! A [`Registry`] owns named metric families (optionally labelled, e.g.
//! `{verb="route"}`) and renders them two deterministic ways: a
//! Prometheus-style text exposition ([`Registry::render`], sorted keys,
//! `# TYPE` lines, histograms as summaries with `quantile` labels) whose
//! key set never depends on traffic, and a bare `name kind` schema
//! listing ([`Registry::schema`]) that is byte-stable and therefore
//! goldenable. [`Registry::snapshot`] captures every sample for
//! interval-diffed JSON-line emission ([`RegistrySnapshot::delta_json`]).
//!
//! [`span`] is the RAII face of a histogram: the guard records the
//! elapsed time into its histogram on drop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Number of histogram buckets: 16 linear (0–15 ns) + 30 octaves × 8
/// sub-buckets spanning 16 ns … 2³⁴ ns (~17 s), last bucket = overflow.
pub const BUCKETS: usize = 256;

/// Bucket index of a nanosecond value (log-linear, 8 sub-buckets/octave).
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v < 16 {
        v as usize
    } else {
        let p = 63 - v.leading_zeros() as u64; // msb position, >= 4
        let sub = (v >> (p - 3)) & 7;
        (16 + (p - 4) * 8 + sub).min(BUCKETS as u64 - 1) as usize
    }
}

/// Largest nanosecond value that maps to bucket `i` (the value a
/// quantile query reports; the overflow bucket reports its lower span).
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    if i < 16 {
        i as u64
    } else {
        let p = (i as u64 - 16) / 8 + 4;
        let sub = (i as u64 - 16) % 8;
        (1u64 << p) + (sub + 1) * (1u64 << (p - 3)) - 1
    }
}

/// A monotone event counter. `set` exists only for mirroring an external
/// counter (e.g. a cache's own atomics) into the registry.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }
    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }
    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
    /// Overwrite (for mirroring an externally-owned monotone count).
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Relaxed);
    }
}

/// An instantaneous value, stored as the bit pattern of an `f64`.
///
/// `set_max` uses `fetch_max` on the raw bits, which orders correctly
/// only for non-negative values — every gauge in this workspace is a
/// size, an age or a rate, all ≥ 0.
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Gauge(AtomicU64::new(0f64.to_bits()))
    }
    /// Set the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Relaxed);
    }
    /// Set from an integer sample (bytes, connection counts, …).
    #[inline]
    pub fn set_u64(&self, v: u64) {
        self.set(v as f64);
    }
    /// Raise the gauge to `v` if `v` is larger (non-negative values only).
    #[inline]
    pub fn set_max(&self, v: f64) {
        self.0.fetch_max(v.max(0.0).to_bits(), Relaxed);
    }
    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Relaxed))
    }
}

/// A log-bucketed latency histogram over nanoseconds. Recording is
/// lock-free: one bucket computation and two relaxed `fetch_add`s.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    sum_nanos: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            sum_nanos: AtomicU64::new(0),
        }
    }

    /// Record one duration.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_nanos(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Record one nanosecond value.
    #[inline]
    pub fn record_nanos(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Relaxed);
        self.sum_nanos.fetch_add(v, Relaxed);
    }

    /// Record the same duration `n` times — what `n` calls of
    /// [`record`](Self::record) leave behind, in two adds instead of 2n
    /// (a batch attributes its wall time to every query in it).
    #[inline]
    pub fn record_n(&self, d: Duration, n: u64) {
        let v = d.as_nanos().min(u64::MAX as u128) as u64;
        self.buckets[bucket_of(v)].fetch_add(n, Relaxed);
        self.sum_nanos.fetch_add(v.wrapping_mul(n), Relaxed);
    }

    /// A consistent-enough copy of the current state (relaxed loads; a
    /// snapshot taken under concurrent recording may be mid-update by at
    /// most the in-flight samples).
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Relaxed)),
            sum_nanos: self.sum_nanos.load(Relaxed),
        }
    }
}

/// An owned copy of a [`Histogram`]'s state: mergeable, diffable, and
/// the thing quantiles are extracted from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket sample counts (see [`bucket_of`]).
    pub buckets: [u64; BUCKETS],
    /// Sum of all recorded nanosecond values.
    pub sum_nanos: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistSnapshot {
    /// A snapshot with no samples.
    pub fn empty() -> Self {
        HistSnapshot {
            buckets: [0; BUCKETS],
            sum_nanos: 0,
        }
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Fold another snapshot in (bucket-wise addition): merging two
    /// recorders' snapshots equals one recorder having seen both streams.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.sum_nanos += other.sum_nanos;
    }

    /// `self - earlier`, for interval deltas (saturating: a racing
    /// recorder can make single buckets appear to step back by one).
    pub fn delta(&self, earlier: &HistSnapshot) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
            sum_nanos: self.sum_nanos.saturating_sub(earlier.sum_nanos),
        }
    }

    /// The `q`-quantile (0 < q ≤ 1) in nanoseconds: the upper bound of
    /// the bucket holding the `⌈q·count⌉`-th smallest sample, i.e. an
    /// overestimate by at most one bucket width. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(BUCKETS - 1)
    }
}

/// RAII span: records the guard's lifetime into its histogram on drop.
#[must_use = "a span records on drop; binding it to _ records immediately"]
pub struct Span<'a> {
    hist: &'a Histogram,
    start: Instant,
}

/// Start timing a stage; the returned guard records into `hist` on drop.
pub fn span(hist: &Histogram) -> Span<'_> {
    Span {
        hist,
        start: Instant::now(),
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed());
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "summary",
        }
    }
}

#[derive(Debug)]
struct Family {
    name: String,
    // label → metric; the `None` label is the bare family. Sorted at
    // registration so every render walks a fixed order.
    entries: Vec<(Option<String>, Metric)>,
}

/// A set of named metric families with deterministic exposition.
///
/// Registration happens at startup (it takes a lock); the handles it
/// returns are lock-free. Registering the same `(family, label)` twice
/// returns the existing metric, so views and recorders can share one.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

/// Quantiles every summary exposes, as `(label value, q)` pairs.
pub const QUANTILES: [(&str, f64); 4] =
    [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99), ("0.999", 0.999)];

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn register(&self, name: &str, label: Option<&str>, fresh: Metric) -> Metric {
        let mut fams = self.families.lock().unwrap();
        let fam = match fams.iter_mut().find(|f| f.name == name) {
            Some(f) => f,
            None => {
                let at = fams
                    .binary_search_by(|f| f.name.as_str().cmp(name))
                    .unwrap_err();
                fams.insert(
                    at,
                    Family {
                        name: name.to_string(),
                        entries: Vec::new(),
                    },
                );
                fams.iter_mut().find(|f| f.name == name).unwrap()
            }
        };
        if let Some((_, existing)) = fam.entries.iter().find(|(l, _)| l.as_deref() == label) {
            assert_eq!(
                existing.kind(),
                fresh.kind(),
                "metric family {name} registered with two kinds"
            );
            return existing.clone();
        }
        let at = fam
            .entries
            .binary_search_by(|(l, _)| l.as_deref().cmp(&label))
            .unwrap_err();
        fam.entries
            .insert(at, (label.map(str::to_string), fresh.clone()));
        fresh
    }

    /// Register (or fetch) a counter. `label` is a full rendered label
    /// pair like `verb="route"`, or `None` for the bare family.
    pub fn counter(&self, name: &str, label: Option<&str>) -> Arc<Counter> {
        match self.register(name, label, Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Register (or fetch) a gauge.
    pub fn gauge(&self, name: &str, label: Option<&str>) -> Arc<Gauge> {
        match self.register(name, label, Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Register (or fetch) a histogram (exposed as a `summary` family).
    pub fn histogram(&self, name: &str, label: Option<&str>) -> Arc<Histogram> {
        match self.register(name, label, Metric::Histogram(Arc::new(Histogram::new()))) {
            Metric::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// The Prometheus-style text exposition: families sorted by name,
    /// entries by label, one `# TYPE` line per family, histograms as
    /// summaries (`quantile` labels + `_sum`/`_count`). The key set and
    /// order depend only on what was registered — never on traffic — so
    /// two expositions diff only in sample values.
    pub fn render(&self) -> String {
        let fams = self.families.lock().unwrap();
        let mut out = String::new();
        for fam in fams.iter() {
            out.push_str("# TYPE ");
            out.push_str(&fam.name);
            out.push(' ');
            out.push_str(fam.entries.first().map_or("counter", |(_, m)| m.kind()));
            out.push('\n');
            for (label, metric) in &fam.entries {
                match metric {
                    Metric::Counter(c) => {
                        out.push_str(&sample_line(&fam.name, label.as_deref(), None, ""));
                        out.push_str(&format!("{}\n", c.get()));
                    }
                    Metric::Gauge(g) => {
                        out.push_str(&sample_line(&fam.name, label.as_deref(), None, ""));
                        out.push_str(&format!("{}\n", fmt_f64(g.get())));
                    }
                    Metric::Histogram(h) => {
                        let snap = h.snapshot();
                        for (ql, q) in QUANTILES {
                            out.push_str(&sample_line(&fam.name, label.as_deref(), Some(ql), ""));
                            out.push_str(&format!("{}\n", fmt_secs(snap.quantile(q))));
                        }
                        out.push_str(&sample_line(&fam.name, label.as_deref(), None, "_sum"));
                        out.push_str(&format!("{}\n", fmt_secs(snap.sum_nanos)));
                        out.push_str(&sample_line(&fam.name, label.as_deref(), None, "_count"));
                        out.push_str(&format!("{}\n", snap.count()));
                    }
                }
            }
        }
        out
    }

    /// The byte-stable schema listing: one `name kind` line per family,
    /// sorted. Safe to golden — it depends only on registration.
    pub fn schema(&self) -> String {
        let fams = self.families.lock().unwrap();
        let mut out = String::new();
        for fam in fams.iter() {
            out.push_str(&fam.name);
            out.push(' ');
            out.push_str(fam.entries.first().map_or("counter", |(_, m)| m.kind()));
            out.push('\n');
        }
        out
    }

    /// Capture every sample for interval diffing.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let fams = self.families.lock().unwrap();
        let mut snap = RegistrySnapshot::default();
        for fam in fams.iter() {
            for (label, metric) in &fam.entries {
                let key = match label {
                    Some(l) => format!("{}{{{l}}}", fam.name),
                    None => fam.name.clone(),
                };
                match metric {
                    Metric::Counter(c) => {
                        snap.counters.insert(key, c.get());
                    }
                    Metric::Gauge(g) => {
                        snap.gauges.insert(key, g.get());
                    }
                    Metric::Histogram(h) => {
                        snap.hists.insert(key, h.snapshot());
                    }
                }
            }
        }
        snap
    }
}

/// One full-registry sample capture, keyed by `family{label}`.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// Counter values.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram states.
    pub hists: BTreeMap<String, HistSnapshot>,
}

impl RegistrySnapshot {
    /// One JSON line describing the *interval* since `earlier`: counter
    /// deltas, current gauge values, and interval-local histogram
    /// percentiles (from bucket deltas — not lifetime distributions).
    /// Keys are sorted and the key set is registration-stable.
    pub fn delta_json(&self, earlier: &RegistrySnapshot, elapsed: Duration) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"interval_s\":{}",
            fmt_f64(elapsed.as_secs_f64())
        ));
        out.push_str(",\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let prev = earlier.counters.get(k).copied().unwrap_or(0);
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json_str(k), v.saturating_sub(prev)));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json_str(k), fmt_f64(*v)));
        }
        out.push_str("},\"latencies\":{");
        for (i, (k, h)) in self.hists.iter().enumerate() {
            let fresh = match earlier.hists.get(k) {
                Some(prev) => h.delta(prev),
                None => h.clone(),
            };
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}:{{\"count\":{},\"p50_s\":{},\"p90_s\":{},\"p99_s\":{},\"p999_s\":{}}}",
                json_str(k),
                fresh.count(),
                fmt_secs(fresh.quantile(0.5)),
                fmt_secs(fresh.quantile(0.9)),
                fmt_secs(fresh.quantile(0.99)),
                fmt_secs(fresh.quantile(0.999)),
            ));
        }
        out.push_str("}}");
        out
    }
}

fn sample_line(family: &str, label: Option<&str>, quantile: Option<&str>, suffix: &str) -> String {
    let mut s = String::with_capacity(family.len() + 24);
    s.push_str(family);
    s.push_str(suffix);
    match (label, quantile) {
        (Some(l), Some(q)) => s.push_str(&format!("{{{l},quantile=\"{q}\"}}")),
        (Some(l), None) => s.push_str(&format!("{{{l}}}")),
        (None, Some(q)) => s.push_str(&format!("{{quantile=\"{q}\"}}")),
        (None, None) => {}
    }
    s.push(' ');
    s
}

/// Nanoseconds rendered as seconds (shortest round-trip float).
fn fmt_secs(nanos: u64) -> String {
    fmt_f64(nanos as f64 / 1e9)
}

/// Deterministic float rendering: integral values without a fraction,
/// everything else via Rust's shortest round-trip `Display`.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() && v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Smallest nanosecond value that maps to bucket `i` — the other end
    /// of [`bucket_upper`]'s span, for checking that the buckets tile.
    fn bucket_lower(i: usize) -> u64 {
        if i < 16 {
            i as u64
        } else {
            let p = (i as u64 - 16) / 8 + 4;
            let sub = (i as u64 - 16) % 8;
            (1u64 << p) + sub * (1u64 << (p - 3))
        }
    }

    #[test]
    fn bucket_boundaries_are_exact() {
        for i in 0..BUCKETS {
            let (lo, hi) = (bucket_lower(i), bucket_upper(i));
            assert!(lo <= hi, "bucket {i} inverted: [{lo}, {hi}]");
            assert_eq!(bucket_of(lo), i, "lower bound of bucket {i} strays");
            assert_eq!(bucket_of(hi), i, "upper bound of bucket {i} strays");
            if i + 1 < BUCKETS {
                assert_eq!(
                    bucket_of(hi + 1),
                    i + 1,
                    "bucket {i} overlaps its successor"
                );
                assert_eq!(bucket_lower(i + 1), hi + 1, "gap after bucket {i}");
            }
        }
        // Everything past the last bucket's span still lands in it.
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // Relative width stays within ~2 significant digits (12.5%).
        for i in 16..BUCKETS {
            let (lo, hi) = (bucket_lower(i), bucket_upper(i));
            assert!(
                (hi - lo) as f64 / lo as f64 <= 0.125 + 1e-9,
                "bucket {i} wider than 12.5%: [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn merge_equals_interleaved_recording() {
        let mut rng = StdRng::seed_from_u64(42);
        let (a, b, both) = (Histogram::new(), Histogram::new(), Histogram::new());
        for i in 0..20_000u64 {
            let v = rng.gen_range(0..3_000_000_000u64);
            if i % 2 == 0 {
                a.record_nanos(v)
            } else {
                b.record_nanos(v)
            }
            both.record_nanos(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
        assert_eq!(merged.count(), 20_000);
    }

    #[test]
    fn record_n_equals_n_records() {
        let mut rng = StdRng::seed_from_u64(14);
        let (batched, single) = (Histogram::new(), Histogram::new());
        for _ in 0..500 {
            // Every octave of the bucket layout, not just the top one.
            let octave = rng.gen_range(1u32..40);
            let d = Duration::from_nanos(rng.gen_range(0u64..1 << octave));
            let n = rng.gen_range(0u64..200);
            batched.record_n(d, n);
            for _ in 0..n {
                single.record(d);
            }
        }
        let (b, s) = (batched.snapshot(), single.snapshot());
        assert_eq!(b.count(), s.count());
        assert_eq!(b.sum_nanos, s.sum_nanos);
        assert_eq!(b, s, "buckets");
    }

    #[test]
    fn quantiles_stay_within_one_bucket_of_a_sorted_oracle() {
        let mut rng = StdRng::seed_from_u64(7);
        let hist = Histogram::new();
        let mut samples: Vec<u64> = Vec::with_capacity(10_000);
        for _ in 0..10_000 {
            // Mix scales: sub-µs, ms and multi-second tails.
            let v = match rng.gen_range(0..3u32) {
                0 => rng.gen_range(0..1_000u64),
                1 => rng.gen_range(0..5_000_000u64),
                _ => rng.gen_range(0..4_000_000_000u64),
            };
            hist.record_nanos(v);
            samples.push(v);
        }
        samples.sort_unstable();
        let snap = hist.snapshot();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let oracle = samples[rank - 1];
            let est = snap.quantile(q);
            let width = bucket_upper(bucket_of(oracle)) - bucket_lower(bucket_of(oracle));
            assert!(
                est >= oracle && est - oracle <= width,
                "q={q}: estimate {est} vs oracle {oracle} (bucket width {width})"
            );
        }
    }

    #[test]
    fn concurrent_recorders_conserve_count_and_sum() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        let hist = Histogram::new();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let hist = &hist;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        hist.record_nanos(t * 1_000 + i);
                    }
                });
            }
        });
        let snap = hist.snapshot();
        assert_eq!(snap.count(), THREADS * PER_THREAD);
        let expected_sum: u64 = (0..THREADS)
            .map(|t| (0..PER_THREAD).map(|i| t * 1_000 + i).sum::<u64>())
            .sum();
        assert_eq!(snap.sum_nanos, expected_sum);
    }

    #[test]
    fn exposition_is_sorted_and_traffic_independent() {
        let reg = Registry::new();
        // Register deliberately out of order.
        let c2 = reg.counter("rpi_z_total", Some("verb=\"b\""));
        let _g = reg.gauge("rpi_a_gauge", None);
        let h = reg.histogram("rpi_m_seconds", None);
        let c1 = reg.counter("rpi_z_total", Some("verb=\"a\""));

        let before = reg.render();
        c1.inc();
        c2.add(5);
        h.record(Duration::from_micros(30));
        let after = reg.render();

        let keys = |text: &str| -> Vec<String> {
            text.lines()
                .map(|l| l.rsplit_once(' ').map(|(k, _)| k.to_string()).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(&before), keys(&after), "key set/order must not move");
        let mut sorted = keys(&after);
        let original = sorted.clone();
        sorted.sort();
        // `# TYPE` headers interleave, so compare family-first lines only
        // by checking the schema listing is sorted.
        let schema = reg.schema();
        let mut fams: Vec<&str> = schema.lines().collect();
        let orig_fams = fams.clone();
        fams.sort();
        assert_eq!(fams, orig_fams, "schema must be sorted");
        assert!(after.contains("# TYPE rpi_m_seconds summary"));
        assert!(after.contains("rpi_z_total{verb=\"a\"} 1"));
        assert!(after.contains("rpi_z_total{verb=\"b\"} 5"));
        assert!(after.contains("rpi_m_seconds_count 1"));
        drop(original);

        // Same-name re-registration returns the same underlying metric.
        let c1_again = reg.counter("rpi_z_total", Some("verb=\"a\""));
        c1_again.inc();
        assert_eq!(c1.get(), 2);
    }

    #[test]
    fn interval_delta_json_reports_deltas_not_totals() {
        let reg = Registry::new();
        let c = reg.counter("rpi_x_total", None);
        let h = reg.histogram("rpi_x_seconds", None);
        c.add(10);
        h.record_nanos(1_000);
        let first = reg.snapshot();
        c.add(3);
        h.record_nanos(2_000);
        let second = reg.snapshot();
        let line = second.delta_json(&first, Duration::from_secs(2));
        assert!(
            line.contains("\"rpi_x_total\":3"),
            "delta not total: {line}"
        );
        assert!(line.contains("\"count\":1"), "one new sample: {line}");
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(!line.contains('\n'));
    }
}
