//! Serving while ingesting (`rpi_query::live`): publication latency per
//! snapshot, and sustained TCP throughput *during* ingest against the
//! frozen-world baseline.
//!
//! The live acceptance bar is advisory: queries served per second while
//! the writer publishes epochs should stay **≥ 80%** of what the same
//! server sustains over a frozen world. A human table under `cargo
//! bench`; the numbers PRs are judged by come from `benchmark/run.sh`
//! (its `live_ingest` workload; see `benchmark/README.md`).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bgp_sim::churn::simulate_series;
use bgp_sim::stream::{next_step, read_header, StreamFrame, StreamStep, StreamWriter};
use bgp_sim::{ChurnConfig, GroundTruth, PolicyParams, SimOutput, VantageSpec};
use net_topology::{AsGraph, InternetConfig, InternetSize};
use rpi_query::serve::{ServeConfig, Server};
use rpi_query::{LiveHandle, LiveOptions, LiveWriter, QueryEngine};

const SHARDS: usize = 8;
const CONNS: usize = 2;
const PIPELINE: usize = 256;
/// Stream cadence. Must exceed the per-snapshot publication latency:
/// a gap shorter than publish time is a permanently backlogged writer
/// (overload, not steady ingest), and on small CPU budgets the
/// backlogged writer starves the serve loop of cycles rather than
/// exposing any reader-side blocking. 150 ms is still orders of
/// magnitude hotter than real BGP archive cadence.
const FRAME_GAP: Duration = Duration::from_millis(150);
const TARGET_FRACTION: f64 = 0.8;

fn build_stream(snapshots: usize) -> (AsGraph, Vec<u8>) {
    let g = InternetConfig::of_size(InternetSize::Small)
        .with_seed(2003)
        .build();
    let truth = GroundTruth::generate(&g, &PolicyParams::default());
    let spec = VantageSpec::paper_like(&g, 16, 8);
    let cfg = ChurnConfig {
        seed: 2003,
        steps: snapshots,
        flip_prob: 0.3,
        link_failure_prob: 0.15,
        label: "lb",
    };
    let series = simulate_series(&g, &truth, &spec, &cfg);
    let (mut w, mut bytes) = StreamWriter::open(&g);
    for (label, out) in series.labels.iter().zip(&series.snapshots) {
        bytes.extend_from_slice(&w.frame(label, out, None));
    }
    bytes.extend_from_slice(&w.end());
    (g, bytes)
}

fn decode(bytes: &[u8]) -> (AsGraph, Vec<StreamFrame>) {
    let (oracle, mut offset) = read_header(bytes).expect("header").expect("complete");
    let mut frames = Vec::new();
    loop {
        match next_step(bytes, offset).expect("step") {
            StreamStep::Frame(f, next) => {
                frames.push(*f);
                offset = next;
            }
            StreamStep::End(_) => return (oracle, frames),
            StreamStep::NeedMore => panic!("complete stream"),
        }
    }
}

/// The offline reference build — also the frozen serving engine.
fn offline_engine(oracle: &AsGraph, frames: &[StreamFrame]) -> QueryEngine {
    let mut e = QueryEngine::new(SHARDS);
    let mut prev = SimOutput::default();
    for (i, f) in frames.iter().enumerate() {
        let out = f.apply(&prev);
        if i == 0 {
            e.ingest_output(&out, oracle, &f.label);
        } else {
            e.ingest_output_incremental(&prev, &out, oracle, &f.label);
        }
        prev = out;
    }
    e
}

/// Single-line-response workload valid on every epoch: route/sa/resolve
/// over the final world's vantage/prefix pairs (missing prefixes on
/// early epochs answer "no route" — still one line).
fn workload(engine: &QueryEngine, frames: &[StreamFrame]) -> Vec<String> {
    let mut prev = SimOutput::default();
    for f in frames {
        prev = f.apply(&prev);
    }
    let mut lines = Vec::new();
    for (vantage, _) in engine.vantages() {
        let prefixes: Vec<_> = match prev.lgs.get(&vantage) {
            Some(v) => v.rows.keys().copied().collect(),
            None => prev
                .collector
                .rows
                .iter()
                .filter(|(_, rows)| rows.iter().any(|r| r.peer == vantage))
                .map(|(&p, _)| p)
                .collect(),
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
    lines
}

/// Pipelined load until `stop`: every response is one line, so counting
/// newlines counts answers. Returns queries answered.
fn load_until(addr: SocketAddr, lines: &[String], stop: &AtomicBool) -> u64 {
    let mut answered = 0u64;
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for c in 0..CONNS {
            joins.push(scope.spawn(move || {
                let mut s = TcpStream::connect(addr).expect("connect");
                s.set_nodelay(true).unwrap();
                s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                let mut buf = vec![0u8; 64 * 1024];
                let mut count = 0u64;
                let mut cursor = c * 17 % lines.len();
                while !stop.load(Ordering::Acquire) {
                    let mut batch = String::new();
                    for _ in 0..PIPELINE {
                        batch.push_str(&lines[cursor]);
                        batch.push('\n');
                        cursor = (cursor + 1) % lines.len();
                    }
                    s.write_all(batch.as_bytes()).expect("send batch");
                    let mut seen = 0usize;
                    while seen < PIPELINE {
                        let n = s.read(&mut buf).expect("responses");
                        assert!(n > 0, "server hung up mid-batch");
                        seen += buf[..n].iter().filter(|&&b| b == b'\n').count();
                    }
                    count += PIPELINE as u64;
                }
                s.write_all(b"quit\n").ok();
                count
            }));
        }
        for j in joins {
            answered += j.join().expect("load thread");
        }
    });
    answered
}

fn main() {
    let (_, bytes) = build_stream(10);
    let (oracle, frames) = decode(&bytes);
    let frozen = Arc::new(offline_engine(&oracle, &frames));
    let lines = workload(&frozen, &frames);

    let spill = std::env::temp_dir().join(format!("rpi-bench-live-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spill);

    // Live: serve an epoch-published engine while the writer ingests the
    // stream at FRAME_GAP cadence; measure q/s inside the ingest window.
    let handle = LiveHandle::new(QueryEngine::new(SHARDS));
    let server = Server::bind(Arc::clone(&handle), "127.0.0.1:0", ServeConfig::default())
        .expect("bind live");
    let addr = server.local_addr().unwrap();
    let shandle = server.handle();
    let sjoin = std::thread::spawn(move || server.run().expect("live serve loop"));

    let mut writer = LiveWriter::open(
        Arc::clone(&handle),
        oracle.clone(),
        &spill,
        LiveOptions {
            window: 4,
            keyframe_every: 4,
        },
    )
    .expect("open live writer");
    // Publish the first snapshot before the clock starts, so the load
    // never measures "no snapshots" errors.
    let t0 = Instant::now();
    writer.publish_frame(&frames[0]).expect("publish first");
    let first_publish = t0.elapsed();

    let stop = AtomicBool::new(false);
    let mut publish_ms: Vec<f64> = vec![first_publish.as_secs_f64() * 1e3];
    let (live_queries, ingest_window) = std::thread::scope(|scope| {
        let counter = scope.spawn(|| load_until(addr, &lines, &stop));
        let t0 = Instant::now();
        for frame in &frames[1..] {
            std::thread::sleep(FRAME_GAP);
            let tf = Instant::now();
            writer.publish_frame(frame).expect("publish");
            publish_ms.push(tf.elapsed().as_secs_f64() * 1e3);
        }
        writer.end();
        // Hold the window open briefly so the run measures a steady
        // serving plateau after the last publication too.
        std::thread::sleep(Duration::from_secs(1));
        let window = t0.elapsed();
        stop.store(true, Ordering::Release);
        (counter.join().expect("load"), window)
    });
    shandle.shutdown();
    sjoin.join().expect("live serve thread");
    let live_qps = live_queries as f64 / ingest_window.as_secs_f64();
    // Per-query latency during ingest, off the live engine's registry
    // (every epoch shares the base engine's histograms).
    let live_latency = handle.current().metrics().query_latency_overall();

    // Frozen baseline: the same server and workload over the finished
    // world, for the same wall-clock window.
    let server = Server::bind(Arc::clone(&frozen), "127.0.0.1:0", ServeConfig::default())
        .expect("bind frozen");
    let addr = server.local_addr().unwrap();
    let shandle = server.handle();
    let sjoin = std::thread::spawn(move || server.run().expect("frozen serve loop"));
    let stop = AtomicBool::new(false);
    let (frozen_queries, frozen_window) = std::thread::scope(|scope| {
        let counter = scope.spawn(|| load_until(addr, &lines, &stop));
        let t0 = Instant::now();
        std::thread::sleep(ingest_window);
        let window = t0.elapsed();
        stop.store(true, Ordering::Release);
        (counter.join().expect("load"), window)
    });
    shandle.shutdown();
    sjoin.join().expect("frozen serve thread");
    let frozen_qps = frozen_queries as f64 / frozen_window.as_secs_f64();

    let fraction = live_qps / frozen_qps;
    let mean_ms = publish_ms.iter().sum::<f64>() / publish_ms.len() as f64;
    let max_ms = publish_ms.iter().cloned().fold(0.0f64, f64::max);

    println!("\n== live/serve_during_ingest ==");
    for (i, ms) in publish_ms.iter().enumerate() {
        println!("{:<44} {:>10.3} ms", format!("publish_snapshot_{i}"), ms);
    }
    println!(
        "{:<44} {:>10.3} ms  (max {max_ms:.3} ms)",
        "publish_latency_mean", mean_ms
    );
    println!(
        "{:<44} {:>12.3?}  ({live_qps:.0} queries/s during ingest)",
        format!("served_{live_queries}_queries_while_publishing"),
        ingest_window,
    );
    println!(
        "    (frozen-world baseline {frozen_qps:.0} queries/s → live serves {:.1}% of it)",
        100.0 * fraction,
    );
    println!(
        "    (advisory target: ≥ {:.0}% of frozen throughput{})",
        100.0 * TARGET_FRACTION,
        if fraction >= TARGET_FRACTION {
            " — met"
        } else {
            "  [BELOW TARGET]"
        }
    );
    let ms = |q: f64| live_latency.quantile(q) as f64 / 1e6;
    let (p50_ms, p99_ms, p999_ms) = (ms(0.5), ms(0.99), ms(0.999));
    println!(
        "    (per-query segment latency during ingest over {} samples: \
         p50 {p50_ms:.3} ms / p99 {p99_ms:.3} ms / p999 {p999_ms:.3} ms)",
        live_latency.count(),
    );
    let _ = std::fs::remove_dir_all(&spill);
}
