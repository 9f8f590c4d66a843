//! The engine's unified metrics surface (`rpi-obs`-backed).
//!
//! One [`QueryMetrics`] is created per [`crate::QueryEngine`] and shared
//! behind an `Arc` by everything that observes that engine: the batch
//! planner, the TCP serve loop, the snapshot tier, the live writer and
//! its published epochs (which clone the `Arc`, so counts survive epoch
//! swaps the same way the ROV cache does), and the security verbs.
//!
//! **Every family is registered at construction** — per-verb families
//! for all thirteen grammar verbs, tier and live families even on
//! engines that never attach a tier — so the exposition's key set is a
//! function of the build, never of traffic. That is what makes the
//! `metrics` wire verb deterministic modulo sample values and the
//! `metrics names` schema listing goldenable.
//!
//! Naming convention: `rpi_<layer>_<name>` with unit suffixes
//! `_seconds` (histograms, exposed as summaries) and `_total`
//! (counters); dimensioned families carry one label (`verb="route"`,
//! `shard="0"`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rpi_obs::{Counter, Gauge, Histogram, Registry};

use crate::proto::VERBS;

/// How many slow-query entries the ring keeps (oldest evicted first).
pub const SLOWLOG_CAP: usize = 128;

/// One entry in the slow-query ring: a query segment whose wall time
/// crossed the `--slow-query-ms` threshold.
#[derive(Debug, Clone)]
pub struct SlowEntry {
    /// Wall time of the (possibly pipelined) segment.
    pub elapsed: Duration,
    /// Queries answered in the segment.
    pub queries: u64,
    /// The first query's wire form (truncated), locating the workload.
    pub first_line: String,
}

/// The engine-wide metrics registry plus typed handles into it.
///
/// Handles are plain `Arc`s onto lock-free atomics — recording on the
/// hot path is a bucket computation and a couple of relaxed
/// `fetch_add`s, never a lock.
#[derive(Debug)]
pub struct QueryMetrics {
    registry: Registry,
    origin: Instant,

    // planner
    /// `rpi_plan_batch_seconds` — wall time of one `execute_batch`.
    pub plan_batch_seconds: Arc<Histogram>,

    // serve
    /// `rpi_serve_queries_total{verb=…}` — queries answered, by verb,
    /// indexed by [`crate::Query::verb_index`] (a row of [`VERBS`]).
    pub serve_queries_total: [Arc<Counter>; VERBS.len()],
    /// `rpi_serve_query_seconds{verb=…}` — frame-complete → bytes-queued
    /// latency, by verb (pipelined queries record their segment's wall).
    pub serve_query_seconds: [Arc<Histogram>; VERBS.len()],
    /// `rpi_serve_accepted_total` — connections accepted.
    pub serve_accepted_total: Arc<Counter>,
    /// `rpi_serve_rejected_total` — connections turned away at capacity.
    pub serve_rejected_total: Arc<Counter>,
    /// `rpi_serve_errors_total` — in-band protocol errors.
    pub serve_errors_total: Arc<Counter>,
    /// `rpi_serve_shed_idle_total` — idle connections shed.
    pub serve_shed_idle_total: Arc<Counter>,
    /// `rpi_serve_bytes_in_total` / `rpi_serve_bytes_out_total`.
    pub serve_bytes_in_total: Arc<Counter>,
    /// See [`Self::serve_bytes_in_total`].
    pub serve_bytes_out_total: Arc<Counter>,
    /// `rpi_serve_slow_queries_total` — segments over the slow threshold.
    pub serve_slow_queries_total: Arc<Counter>,
    /// `rpi_serve_active_connections` — open connections right now.
    pub serve_active_connections: Arc<Gauge>,
    /// `rpi_serve_write_buf_bytes` — total buffered response bytes at
    /// the last sweep.
    pub serve_write_buf_bytes: Arc<Gauge>,
    /// `rpi_serve_write_buf_peak_bytes` — high-water mark of any single
    /// connection's write buffer.
    pub serve_write_buf_peak_bytes: Arc<Gauge>,
    /// `rpi_serve_sweep_seconds` — duration of poll-loop sweeps that did
    /// work (idle ticks are not recorded).
    pub serve_sweep_seconds: Arc<Histogram>,
    /// `rpi_serve_accept_to_first_byte_seconds` — accept → first request
    /// byte read.
    pub serve_accept_to_first_byte_seconds: Arc<Histogram>,

    // tier
    /// `rpi_tier_attaches_total` — segments attached to the tier.
    pub tier_attaches_total: Arc<Counter>,
    /// `rpi_tier_hydrations_total` — snapshot hydrations (chain members
    /// replayed into the hot set).
    pub tier_hydrations_total: Arc<Counter>,
    /// `rpi_tier_evictions_total` — hot-set evictions.
    pub tier_evictions_total: Arc<Counter>,
    /// `rpi_tier_cold_hits_total` — point queries (`route`, `resolve`,
    /// `sa`, `rov`, `rel`) answered at a cold snapshot by reading its
    /// mapped delta chain in place, no hydration.
    pub tier_cold_hits_total: Arc<Counter>,
    /// `rpi_tier_hot_snapshots` / `rpi_tier_total_snapshots` — residency
    /// (mirrored from [`crate::TierStats`] at sync points).
    pub tier_hot_snapshots: Arc<Gauge>,
    /// See [`Self::tier_hot_snapshots`].
    pub tier_total_snapshots: Arc<Gauge>,
    /// `rpi_tier_hydration_seconds` — full miss → resident wall time.
    pub tier_hydration_seconds: Arc<Histogram>,
    /// `rpi_tier_chain_replay_seconds` — one chain member's replay.
    pub tier_chain_replay_seconds: Arc<Histogram>,
    /// `rpi_tier_cold_hit_seconds` — a cold point query's wall time:
    /// verifying and indexing the chain's segments where not done
    /// before, the reads, and the answer.
    pub tier_cold_hit_seconds: Arc<Histogram>,

    // live
    /// `rpi_live_published_total` — epochs published.
    pub live_published_total: Arc<Counter>,
    /// `rpi_live_publish_seconds` — frame parse → epoch swap latency.
    pub live_publish_seconds: Arc<Histogram>,
    /// `rpi_live_frames_behind` — complete frames buffered but not yet
    /// published (follower lag).
    pub live_frames_behind: Arc<Gauge>,
    /// `rpi_live_epoch_age_seconds` — time since the last publication
    /// (derived at sync points).
    pub live_epoch_age_seconds: Arc<Gauge>,

    // sec
    /// `rpi_sec_queries_total{verb="rov"|"hijacks"|"leaks"}` — executed
    /// security queries (`rov` counts every point evaluation).
    pub sec_rov_total: Arc<Counter>,
    /// See [`Self::sec_rov_total`].
    pub sec_hijacks_total: Arc<Counter>,
    /// See [`Self::sec_rov_total`].
    pub sec_leaks_total: Arc<Counter>,
    /// `rpi_sec_scan_seconds{verb=…}` — hijack/leak detector sweep time.
    pub sec_scan_hijacks_seconds: Arc<Histogram>,
    /// See [`Self::sec_scan_hijacks_seconds`].
    pub sec_scan_leaks_seconds: Arc<Histogram>,
    /// `rpi_sec_roas` — loaded ROA count (mirrored).
    pub sec_roas: Arc<Gauge>,
    /// `rpi_sec_rov_cache_hits_total` / `…_misses_total` — mirrored from
    /// the ROV cache's own counters at sync points.
    pub sec_rov_cache_hits_total: Arc<Counter>,
    /// See [`Self::sec_rov_cache_hits_total`].
    pub sec_rov_cache_misses_total: Arc<Counter>,
    /// `rpi_sec_rov_cache_hit_ratio` — hits / (hits + misses), derived.
    pub sec_rov_cache_hit_ratio: Arc<Gauge>,

    /// Nanoseconds since `origin` of the last epoch publication (0 =
    /// never), feeding the epoch-age gauge.
    last_publish_nanos: AtomicU64,
    /// Peak interval query rate (f64 bits), maintained by the
    /// `--metrics-interval` emitter.
    peak_interval_qps: AtomicU64,
    /// Slow-segment threshold in milliseconds (0 = disabled).
    slow_threshold_ms: AtomicU64,
    slow_ring: Mutex<VecDeque<SlowEntry>>,
}

impl Default for QueryMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryMetrics {
    /// A registry with every family pre-registered (see module docs).
    pub fn new() -> QueryMetrics {
        let r = Registry::new();
        let verb_label = |v: &str| format!("verb=\"{v}\"");
        QueryMetrics {
            plan_batch_seconds: r.histogram("rpi_plan_batch_seconds", None),
            serve_queries_total: std::array::from_fn(|i| {
                r.counter("rpi_serve_queries_total", Some(&verb_label(VERBS[i].name)))
            }),
            serve_query_seconds: std::array::from_fn(|i| {
                r.histogram("rpi_serve_query_seconds", Some(&verb_label(VERBS[i].name)))
            }),
            serve_accepted_total: r.counter("rpi_serve_accepted_total", None),
            serve_rejected_total: r.counter("rpi_serve_rejected_total", None),
            serve_errors_total: r.counter("rpi_serve_errors_total", None),
            serve_shed_idle_total: r.counter("rpi_serve_shed_idle_total", None),
            serve_bytes_in_total: r.counter("rpi_serve_bytes_in_total", None),
            serve_bytes_out_total: r.counter("rpi_serve_bytes_out_total", None),
            serve_slow_queries_total: r.counter("rpi_serve_slow_queries_total", None),
            serve_active_connections: r.gauge("rpi_serve_active_connections", None),
            serve_write_buf_bytes: r.gauge("rpi_serve_write_buf_bytes", None),
            serve_write_buf_peak_bytes: r.gauge("rpi_serve_write_buf_peak_bytes", None),
            serve_sweep_seconds: r.histogram("rpi_serve_sweep_seconds", None),
            serve_accept_to_first_byte_seconds: r
                .histogram("rpi_serve_accept_to_first_byte_seconds", None),
            tier_attaches_total: r.counter("rpi_tier_attaches_total", None),
            tier_hydrations_total: r.counter("rpi_tier_hydrations_total", None),
            tier_evictions_total: r.counter("rpi_tier_evictions_total", None),
            tier_cold_hits_total: r.counter("rpi_tier_cold_hits_total", None),
            tier_hot_snapshots: r.gauge("rpi_tier_hot_snapshots", None),
            tier_total_snapshots: r.gauge("rpi_tier_total_snapshots", None),
            tier_hydration_seconds: r.histogram("rpi_tier_hydration_seconds", None),
            tier_chain_replay_seconds: r.histogram("rpi_tier_chain_replay_seconds", None),
            tier_cold_hit_seconds: r.histogram("rpi_tier_cold_hit_seconds", None),
            live_published_total: r.counter("rpi_live_published_total", None),
            live_publish_seconds: r.histogram("rpi_live_publish_seconds", None),
            live_frames_behind: r.gauge("rpi_live_frames_behind", None),
            live_epoch_age_seconds: r.gauge("rpi_live_epoch_age_seconds", None),
            sec_rov_total: r.counter("rpi_sec_queries_total", Some("verb=\"rov\"")),
            sec_hijacks_total: r.counter("rpi_sec_queries_total", Some("verb=\"hijacks\"")),
            sec_leaks_total: r.counter("rpi_sec_queries_total", Some("verb=\"leaks\"")),
            sec_scan_hijacks_seconds: r.histogram("rpi_sec_scan_seconds", Some("verb=\"hijacks\"")),
            sec_scan_leaks_seconds: r.histogram("rpi_sec_scan_seconds", Some("verb=\"leaks\"")),
            sec_roas: r.gauge("rpi_sec_roas", None),
            sec_rov_cache_hits_total: r.counter("rpi_sec_rov_cache_hits_total", None),
            sec_rov_cache_misses_total: r.counter("rpi_sec_rov_cache_misses_total", None),
            sec_rov_cache_hit_ratio: r.gauge("rpi_sec_rov_cache_hit_ratio", None),
            last_publish_nanos: AtomicU64::new(0),
            peak_interval_qps: AtomicU64::new(0f64.to_bits()),
            slow_threshold_ms: AtomicU64::new(0),
            slow_ring: Mutex::new(VecDeque::new()),
            origin: Instant::now(),
            registry: r,
        }
    }

    /// The underlying registry (exposition and interval snapshots).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Per-shard instances of the serve-loop gauges (`shard="N"` labels
    /// on `rpi_serve_active_connections` / `rpi_serve_write_buf_bytes`),
    /// registered by a multi-thread server at startup. Labeled instances
    /// join the *existing* families, so the goldenable `metrics names`
    /// schema (one line per family) is unchanged and the merged
    /// exposition carries both the aggregate and the per-shard samples.
    pub fn shard_gauges(&self, shard: usize) -> (Arc<Gauge>, Arc<Gauge>) {
        let label = format!("shard=\"{shard}\"");
        (
            self.registry
                .gauge("rpi_serve_active_connections", Some(&label)),
            self.registry
                .gauge("rpi_serve_write_buf_bytes", Some(&label)),
        )
    }

    /// Total queries served across every verb.
    pub fn total_queries(&self) -> u64 {
        self.serve_queries_total.iter().map(|c| c.get()).sum()
    }

    /// All per-verb latency snapshots merged into one distribution.
    pub fn query_latency_overall(&self) -> rpi_obs::HistSnapshot {
        let mut all = rpi_obs::HistSnapshot::empty();
        for h in &self.serve_query_seconds {
            all.merge(&h.snapshot());
        }
        all
    }

    /// Stamp an epoch publication (feeds the epoch-age gauge).
    pub fn note_publish(&self) {
        let nanos = self.origin.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.last_publish_nanos.store(nanos.max(1), Relaxed);
    }

    /// Seconds since the last publication (0.0 before the first).
    pub fn epoch_age_secs(&self) -> f64 {
        match self.last_publish_nanos.load(Relaxed) {
            0 => 0.0,
            at => {
                (self.origin.elapsed().as_nanos().min(u64::MAX as u128) as u64).saturating_sub(at)
                    as f64
                    / 1e9
            }
        }
    }

    /// Raise the peak interval query rate if `qps` beats it.
    pub fn note_interval_qps(&self, qps: f64) {
        self.peak_interval_qps
            .fetch_max(qps.max(0.0).to_bits(), Relaxed);
    }

    /// Highest interval-local query rate observed by the emitter.
    pub fn peak_interval_qps(&self) -> f64 {
        f64::from_bits(self.peak_interval_qps.load(Relaxed))
    }

    /// Enable (ms > 0) or disable the slow-query ring.
    pub fn set_slow_threshold_ms(&self, ms: u64) {
        self.slow_threshold_ms.store(ms, Relaxed);
    }

    /// The active slow threshold, if enabled.
    pub fn slow_threshold(&self) -> Option<Duration> {
        match self.slow_threshold_ms.load(Relaxed) {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        }
    }

    /// Push one slow segment into the bounded ring (caller has already
    /// checked the threshold, so the disabled path costs one load).
    pub fn push_slow(&self, elapsed: Duration, queries: u64, first_line: &str) {
        self.serve_slow_queries_total.inc();
        // A scope label is free UTF-8: cut on a char boundary, never at
        // a byte count (`String::truncate` panics inside a character).
        let mut line = first_line.to_string();
        if line.len() > 120 {
            line.truncate(line.floor_char_boundary(120));
            line.push('…');
        }
        let mut ring = self.slow_ring.lock().unwrap();
        if ring.len() == SLOWLOG_CAP {
            ring.pop_front();
        }
        ring.push_back(SlowEntry {
            elapsed,
            queries,
            first_line: line,
        });
    }

    /// The `slowlog` REPL listing: newest entries last.
    pub fn render_slowlog(&self) -> String {
        let thr = self.slow_threshold_ms.load(Relaxed);
        if thr == 0 {
            return "slowlog: disabled (start with --slow-query-ms N to record)".to_string();
        }
        let ring = self.slow_ring.lock().unwrap();
        if ring.is_empty() {
            return format!("slowlog: empty (threshold {thr} ms, nothing crossed it)");
        }
        let total = self.serve_slow_queries_total.get();
        let mut out = format!(
            "slowlog: {} of {} slow segments retained (threshold {} ms, cap {}):",
            ring.len(),
            total,
            thr,
            SLOWLOG_CAP
        );
        for e in ring.iter() {
            out.push_str(&format!(
                "\n  {:>9.3} ms  {:>6} queries  {}",
                e.elapsed.as_secs_f64() * 1e3,
                e.queries,
                e.first_line
            ));
        }
        out
    }

    /// The `stats` REPL listing: a fixed-shape table of per-verb and
    /// per-stage latency percentiles (rows never depend on traffic;
    /// values do).
    pub fn render_stats(&self) -> String {
        let mut out = String::from("per-verb latency (count, p50/p90/p99/p999 ms):");
        for (i, verb) in VERBS.iter().enumerate() {
            let snap = self.serve_query_seconds[i].snapshot();
            out.push_str(&format!(
                "\n  {:<12} {:>9}  {}",
                verb.name,
                self.serve_queries_total[i].get(),
                fmt_quantiles(&snap)
            ));
        }
        let overall = self.query_latency_overall();
        out.push_str(&format!(
            "\n  {:<12} {:>9}  {}",
            "(all verbs)",
            overall.count(),
            fmt_quantiles(&overall)
        ));
        out.push_str("\nstages (count, p50/p90/p99/p999 ms):");
        let stages: [(&str, &Histogram); 7] = [
            ("plan.batch", &self.plan_batch_seconds),
            ("serve.sweep", &self.serve_sweep_seconds),
            ("serve.first-byte", &self.serve_accept_to_first_byte_seconds),
            ("tier.hydration", &self.tier_hydration_seconds),
            ("tier.chain-replay", &self.tier_chain_replay_seconds),
            ("tier.cold-hit", &self.tier_cold_hit_seconds),
            ("live.publish", &self.live_publish_seconds),
        ];
        for (name, hist) in stages {
            let snap = hist.snapshot();
            out.push_str(&format!(
                "\n  {:<17} {:>9}  {}",
                name,
                snap.count(),
                fmt_quantiles(&snap)
            ));
        }
        out.push_str(&format!(
            "\ngauges: write-buf {} B (peak {} B), active conns {}, frames behind {}, epoch age {:.1}s, rov hit ratio {:.3}",
            self.serve_write_buf_bytes.get() as u64,
            self.serve_write_buf_peak_bytes.get() as u64,
            self.serve_active_connections.get() as u64,
            self.live_frames_behind.get() as u64,
            self.live_epoch_age_seconds.get(),
            self.sec_rov_cache_hit_ratio.get(),
        ));
        out
    }
}

fn fmt_quantiles(snap: &rpi_obs::HistSnapshot) -> String {
    let ms = |q: f64| snap.quantile(q) as f64 / 1e6;
    format!(
        "{:>9.3} {:>9.3} {:>9.3} {:>9.3}",
        ms(0.5),
        ms(0.9),
        ms(0.99),
        ms(0.999)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_is_stable_and_sorted() {
        let m = QueryMetrics::new();
        let schema = m.registry().schema();
        let lines: Vec<&str> = schema.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted, "schema must render sorted");
        for family in [
            "rpi_plan_batch_seconds summary",
            "rpi_serve_queries_total counter",
            "rpi_serve_query_seconds summary",
            "rpi_tier_hydration_seconds summary",
            "rpi_live_publish_seconds summary",
            "rpi_sec_queries_total counter",
            "rpi_sec_rov_cache_hit_ratio gauge",
        ] {
            assert!(schema.contains(family), "missing family: {family}");
        }
        // Two fresh registries expose the identical schema.
        assert_eq!(schema, QueryMetrics::new().registry().schema());
    }

    #[test]
    fn slowlog_ring_is_bounded() {
        let m = QueryMetrics::new();
        assert!(m.render_slowlog().contains("disabled"));
        m.set_slow_threshold_ms(5);
        assert!(m.render_slowlog().contains("empty"));
        for i in 0..(SLOWLOG_CAP + 10) {
            m.push_slow(
                Duration::from_millis(6),
                1,
                &format!("route AS{i} 1.0.0.0/8"),
            );
        }
        let dump = m.render_slowlog();
        assert!(
            dump.starts_with(&format!(
                "slowlog: {} of {} slow segments retained",
                SLOWLOG_CAP,
                SLOWLOG_CAP + 10
            )),
            "{dump}"
        );
        assert!(!dump.contains("route AS0 "), "oldest entries evicted");
    }

    /// The quoted first line is cut at the last char boundary at or
    /// under 120 bytes: in this line (227 bytes, it parses) every `é`
    /// starts at an odd offset, so byte 120 is inside one.
    #[test]
    fn slowlog_quote_is_cut_on_a_char_boundary() {
        let line = format!("route AS1 1.0.0.0/8 @label:{}", "é".repeat(100));
        assert!(line.len() == 227 && !line.is_char_boundary(120));
        let m = QueryMetrics::new();
        m.set_slow_threshold_ms(1);
        m.push_slow(Duration::from_millis(2), 9, &line);
        m.push_slow(Duration::from_millis(2), 1, "ping");
        let dump = m.render_slowlog();
        let quotes: Vec<&str> = dump
            .lines()
            .skip(1)
            .map(|l| l.split_once(" queries  ").expect("an entry row").1)
            .collect();
        let cut = quotes[0].strip_suffix('…').expect("a cut quote ends in …");
        assert!(line.starts_with(cut), "{cut}");
        assert_eq!(cut.len(), 119, "the last boundary at or under 120 bytes");
        assert_eq!(quotes[1], "ping", "a short line is quoted whole");
    }
}
