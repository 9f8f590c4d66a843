//! Sustained throughput of the TCP front end (`rpi_query::serve`) over
//! loopback, against the in-process `execute_batch` baseline.
//!
//! The serving acceptance bar is **≥ 100k queries/s over TCP on a Small
//! world**; the sharded-serve stretch bar is **≥ 2M queries/s
//! aggregate** across a 4-thread ramp (advisory — logged, never
//! failing). A human table under `cargo bench`; the numbers PRs are
//! judged by come from `benchmark/run.sh` (see `benchmark/README.md`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use net_topology::InternetSize;
use rpi_bench::serveload::{open_idle_conns, run_load};
use rpi_core::Experiment;
use rpi_query::serve::{ServeConfig, Server};
use rpi_query::{parse, QueryEngine, QueryRequest};

const SHARDS: usize = 8;
const CONNS: usize = 4;
const PIPELINE: usize = 512;
const TARGET_QPS: f64 = 100_000.0;
/// Advisory bar for the 4-thread aggregate (the rpi-scale stretch goal).
const AGGREGATE_TARGET_QPS: f64 = 2_000_000.0;
/// Serve-thread counts the ramp sweeps.
const RAMP_THREADS: [usize; 3] = [1, 2, 4];

/// This process's accumulated CPU time (utime+stime) in milliseconds,
/// from `/proc/self/stat`. The idle probe runs server and (sleeping)
/// client in one process, so the delta over a quiet window is the
/// server's idle burn. `None` off Linux — the probe then reports 0.
fn process_cpu_ms() -> Option<u64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Field 2 (comm) may contain spaces; everything after the closing
    // paren is space-split, making utime/stime fields 12 and 13 there.
    let (_, after) = stat.rsplit_once(')')?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    // USER_HZ is 100 on every mainstream Linux config.
    Some((utime + stime) * 1000 / 100)
}

fn spawn_server(
    engine: &Arc<QueryEngine>,
    threads: usize,
) -> (
    std::net::SocketAddr,
    rpi_query::ServerHandle,
    std::thread::JoinHandle<rpi_query::ServeStats>,
) {
    let cfg = ServeConfig {
        serve_threads: threads,
        ..ServeConfig::default()
    };
    let server = Server::bind(Arc::clone(engine), "127.0.0.1:0", cfg).expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("serve loop"));
    (addr, handle, join)
}

fn main() {
    let exp = Experiment::standard(InternetSize::Small, 2003);
    let mut engine = QueryEngine::new(SHARDS);
    engine.ingest_experiment(&exp, "t0");
    let engine = Arc::new(engine);

    // The wire workload: every (vantage, prefix) pair the world knows,
    // as a route/sa/resolve mix — all single-line responses, so the
    // load generator can count instead of parse.
    let mut lines: Vec<String> = Vec::new();
    for (vantage, _) in engine.vantages() {
        let prefixes: Vec<_> = match exp.lg_table(vantage) {
            Some(t) => t.rows.keys().copied().collect(),
            None => exp.collector_table(vantage).rows.keys().copied().collect(),
        };
        for p in prefixes {
            lines.push(match lines.len() % 3 {
                0 => format!("route {vantage} {p}"),
                1 => format!("sa {vantage} {p}"),
                _ => format!("resolve {vantage} {p}"),
            });
        }
    }
    assert!(!lines.is_empty(), "bench world has no routes");

    // In-process baseline: the identical requests, pre-parsed, through
    // the batch planner — what a zero-cost network would achieve.
    let reqs: Vec<QueryRequest> = lines
        .iter()
        .map(|l| parse(l).expect("workload lines parse"))
        .collect();
    let mut inproc_best = f64::MIN;
    for _ in 0..5 {
        let t0 = Instant::now();
        let results = engine.execute_batch(&reqs);
        let dt = t0.elapsed();
        assert!(results.iter().all(|r| r.is_ok()));
        inproc_best = inproc_best.max(reqs.len() as f64 / dt.as_secs_f64());
    }

    // The served path: a loopback server on an ephemeral port, driven by
    // the pipelined load generator.
    let (addr, handle, join) = spawn_server(&engine, 1);

    let queries_per_conn = 250_000;
    // Warmup window (connection setup, first batches) before the timed run.
    run_load(addr, CONNS, PIPELINE, 5_000, &lines).expect("warmup load");
    // Percentiles come from the engine's per-verb latency histograms,
    // restricted to the timed window by diffing against the post-warmup
    // snapshot.
    let warm = engine.metrics().query_latency_overall();
    let report = run_load(addr, CONNS, PIPELINE, queries_per_conn, &lines).expect("timed load");
    let timed = engine.metrics().query_latency_overall().delta(&warm);

    handle.shutdown();
    let stats = join.join().expect("serve thread");

    let tcp_qps = report.queries_per_sec();
    println!("\n== serve/tcp_loopback ==");
    println!(
        "{:<44} {:>12.3?}  ({:.0} queries/s)",
        format!("pipelined_{CONNS}x{PIPELINE}_{}_queries", report.queries),
        report.elapsed,
        tcp_qps,
    );
    println!(
        "    (in-process execute_batch baseline {inproc_best:.0} queries/s → TCP serves {:.1}% of it; \
         {:.1} MiB in / {:.1} MiB out; server saw {} queries, write-buf peak {} B)",
        100.0 * tcp_qps / inproc_best,
        report.bytes_out as f64 / (1024.0 * 1024.0),
        report.bytes_in as f64 / (1024.0 * 1024.0),
        stats.queries,
        stats.max_write_buf,
    );
    println!(
        "    (target: ≥ {TARGET_QPS:.0} queries/s sustained over loopback{})",
        if tcp_qps >= TARGET_QPS {
            " — met"
        } else {
            "  [BELOW TARGET]"
        }
    );
    let ms = |q: f64| timed.quantile(q) as f64 / 1e6;
    let (p50_ms, p99_ms, p999_ms) = (ms(0.5), ms(0.99), ms(0.999));
    println!(
        "    (per-query segment latency over {} samples: p50 {p50_ms:.3} ms / p99 {p99_ms:.3} ms / p999 {p999_ms:.3} ms)",
        timed.count(),
    );

    // Thread ramp: the same workload through 1/2/4 serve shards, enough
    // connections to keep every shard busy. The 4-thread row is the
    // aggregate the ≥2M advisory bar reads.
    println!("\n== serve/thread_ramp ==");
    let ramp_conns = 16;
    let ramp_queries = 120_000;
    let mut ramp: Vec<(usize, f64)> = Vec::new();
    for threads in RAMP_THREADS {
        let (addr, handle, join) = spawn_server(&engine, threads);
        run_load(addr, ramp_conns, PIPELINE, 2_500, &lines).expect("ramp warmup");
        let report = run_load(addr, ramp_conns, PIPELINE, ramp_queries, &lines).expect("ramp load");
        handle.shutdown();
        join.join().expect("ramp serve thread");
        let qps = report.queries_per_sec();
        println!(
            "{:<44} {:>12.3?}  ({:.0} queries/s, {:.0}/thread)",
            format!("threads_{threads}_{}_queries", report.queries),
            report.elapsed,
            qps,
            qps / threads as f64,
        );
        ramp.push((threads, qps));
    }
    let (agg_threads, aggregate_qps) = *ramp.last().expect("ramp ran");
    println!(
        "    (aggregate at {agg_threads} threads: {aggregate_qps:.0} queries/s; \
         advisory bar ≥ {AGGREGATE_TARGET_QPS:.0}{})",
        if aggregate_qps >= AGGREGATE_TARGET_QPS {
            " — met"
        } else {
            "  [below advisory bar]"
        }
    );

    // Idle probe: a quiet 4-thread server holding idle connections must
    // burn ~zero CPU (readiness notification, not sweeping). Client and
    // server share this process; the client sleeps through the window.
    let idle_count = 1_000;
    let idle_window = Duration::from_secs(2);
    let (addr, handle, join) = spawn_server(&engine, 4);
    let held = open_idle_conns(addr, idle_count).expect("open idle conns");
    // Let accept/registration churn settle before the measured window.
    std::thread::sleep(Duration::from_millis(300));
    let cpu0 = process_cpu_ms();
    std::thread::sleep(idle_window);
    let idle_conns_cpu_ms = match (cpu0, process_cpu_ms()) {
        (Some(a), Some(b)) => b.saturating_sub(a),
        _ => 0,
    };
    drop(held);
    handle.shutdown();
    join.join().expect("idle serve thread");
    println!(
        "\n== serve/idle_conns ==\n{idle_count} idle conns over {idle_window:?}: \
         {idle_conns_cpu_ms} ms CPU"
    );
}
