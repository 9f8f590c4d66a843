//! Integration tests of the TCP front end (`rpi_query::serve`): framing
//! across split writes, per-read pipelining, in-band error handling,
//! read-side backpressure, idle shedding, and — the property everything
//! else rests on — responses byte-identical to direct `engine.execute`.
//!
//! Every scenario runs single-threaded and sharded across 4 event-loop
//! threads ([`matrix`]), on the platform's readiness backend. The
//! responses must be byte-identical in every cell.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use net_topology::InternetSize;
use rpi_core::Experiment;
use rpi_query::serve::session::{repl_reply, ReplCmd};
use rpi_query::serve::{EngineSource, ServeConfig, ServeStats, Server, ServerHandle};
use rpi_query::{parse, render_response, LiveHandle, QueryEngine};

/// A tiny single-snapshot engine plus its experiment (for valid
/// vantage/prefix pairs).
fn tiny_engine() -> (Arc<QueryEngine>, Experiment) {
    let exp = Experiment::standard(InternetSize::Tiny, 11);
    let mut engine = QueryEngine::default();
    engine.ingest_experiment(&exp, "t0");
    (Arc::new(engine), exp)
}

/// Valid `(vantage, prefix)` pairs, textual, for building query lines.
fn query_pairs(engine: &QueryEngine, exp: &Experiment) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (vantage, _) in engine.vantages() {
        let rows: Vec<_> = match exp.lg_table(vantage) {
            Some(t) => t.rows.keys().copied().collect(),
            None => exp.collector_table(vantage).rows.keys().copied().collect(),
        };
        for p in rows {
            out.push((vantage.to_string(), p.to_string()));
        }
    }
    assert!(!out.is_empty(), "tiny world has routes");
    out
}

/// The serve-thread counts every scenario sweeps: one loop, and 4
/// copies of it accepting from the shared listener.
fn matrix() -> [usize; 2] {
    [1, 4]
}

fn cell_cfg(threads: usize, base: ServeConfig) -> ServeConfig {
    ServeConfig {
        serve_threads: threads,
        ..base
    }
}

fn spawn_server(
    engine: impl Into<EngineSource>,
    cfg: ServeConfig,
) -> (
    SocketAddr,
    ServerHandle,
    std::thread::JoinHandle<ServeStats>,
) {
    let server = Server::bind(engine, "127.0.0.1:0", cfg).expect("bind ephemeral");
    let addr = server.local_addr().expect("bound address");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("serve loop"));
    (addr, handle, join)
}

fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    s.set_nodelay(true).unwrap();
    s
}

/// Sends `input` in one write, reads to EOF (the input must end the
/// session with `quit`).
fn roundtrip(addr: SocketAddr, input: &str) -> String {
    let mut s = connect(addr);
    s.write_all(input.as_bytes()).expect("send");
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read to EOF");
    out
}

/// What the engine itself answers for a script, rendered exactly like
/// the server renders it (one trailing newline per output block).
fn expected_for(engine: &QueryEngine, lines: &[&str]) -> String {
    let mut out = String::new();
    for line in lines {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        match trimmed {
            "ping" => out.push_str("pong\n"),
            "quit" | "exit" | "shutdown" => break,
            "snapshots" => {
                out.push_str(&repl_reply(engine, ReplCmd::Snapshots));
                out.push('\n');
            }
            "vantages" => {
                out.push_str(&repl_reply(engine, ReplCmd::Vantages));
                out.push('\n');
            }
            _ => {
                let req = parse(trimmed).expect("test scripts parse");
                let resp = engine.execute(&req).expect("test scripts execute");
                out.push_str(&render_response(&req, &resp));
                out.push('\n');
            }
        }
    }
    out
}

#[test]
fn pipelined_multi_query_write_round_trips() {
    for threads in matrix() {
        let (engine, exp) = tiny_engine();
        let (addr, handle, join) =
            spawn_server(engine.clone(), cell_cfg(threads, ServeConfig::default()));

        // One write carrying every protocol shape: point queries,
        // listings, history walks, a control ping — then quit.
        let pairs = query_pairs(&engine, &exp);
        let (v, p) = &pairs[0];
        let mut lines = vec![
            "ping".to_string(),
            "snapshots".to_string(),
            "vantages".to_string(),
            format!("route {v} {p}"),
            format!("resolve {v} {p}"),
            format!("sa {v} {p}"),
            format!("summary {v}"),
            format!("sa-history {v} {p}"),
            format!("uptime {v}"),
            format!("top-sa {v} 3"),
            format!("persistence {v} {p} @all"),
        ];
        for (v, p) in pairs.iter().skip(1).take(40) {
            lines.push(format!("route {v} {p}"));
        }
        lines.push("quit".to_string());
        let input = lines.join("\n") + "\n";

        let got = roundtrip(addr, &input);
        let line_refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        assert_eq!(
            got,
            expected_for(&engine, &line_refs),
            "[x{threads}] response bytes diverged"
        );

        let stats = handle.stats();
        assert_eq!(stats.queries, 48, "[x{threads}] 8 verbs + 40 routes");
        assert_eq!(stats.errors, 0, "[x{threads}]");

        handle.shutdown();
        join.join().unwrap();
    }
}

#[test]
fn split_frames_reassemble_across_writes() {
    for threads in matrix() {
        let (engine, exp) = tiny_engine();
        let (addr, handle, join) =
            spawn_server(engine.clone(), cell_cfg(threads, ServeConfig::default()));

        let (v, p) = &query_pairs(&engine, &exp)[0];
        let line = format!("route {v} {p}\n");
        let (a, b) = line.as_bytes().split_at(line.len() / 2);

        let mut s = connect(addr);
        s.write_all(a).unwrap();
        s.flush().unwrap();
        // Give the poll loop time to consume the first fragment on its
        // own, so the query really is reassembled from two reads.
        std::thread::sleep(Duration::from_millis(50));
        s.write_all(b).unwrap();
        s.write_all(b"quit\n").unwrap();
        let mut got = String::new();
        s.read_to_string(&mut got).unwrap();

        let expected = expected_for(&engine, &[line.trim(), "quit"]);
        assert_eq!(got, expected, "[x{threads}]");
        assert_eq!(handle.stats().queries, 1, "[x{threads}]");

        handle.shutdown();
        join.join().unwrap();
    }
}

/// The stdin path answers a final line that lacks its newline
/// (`str::lines` yields it); the TCP path must too, or the two diverge
/// on inputs like `printf 'route …' | nc`.
#[test]
fn unterminated_final_line_answers_on_half_close() {
    for threads in matrix() {
        let (engine, exp) = tiny_engine();
        let (addr, handle, join) =
            spawn_server(engine.clone(), cell_cfg(threads, ServeConfig::default()));

        let (v, p) = &query_pairs(&engine, &exp)[0];
        let line = format!("route {v} {p}");
        let mut s = connect(addr);
        s.write_all(line.as_bytes()).unwrap(); // no trailing newline
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut got = String::new();
        s.read_to_string(&mut got).unwrap();

        let req = parse(&line).unwrap();
        let expected = render_response(&req, &engine.execute(&req).unwrap());
        assert_eq!(got, format!("{expected}\n"), "[x{threads}]");
        assert_eq!(handle.stats().queries, 1, "[x{threads}]");

        handle.shutdown();
        join.join().unwrap();
    }
}

/// An over-capacity client that pipelines queries in its very first
/// window must still *receive* the in-band rejection notice: the server
/// half-closes after the notice and discards the unread input instead
/// of closing with bytes queued (which would turn into a RST and
/// destroy the notice in flight). With serve threads, the live-conn
/// budget is shared: a rejected connection may land on a different
/// shard than the occupant and must still see the notice.
#[test]
fn server_full_notice_reaches_a_pipelining_client() {
    for threads in matrix() {
        let (engine, exp) = tiny_engine();
        let cfg = cell_cfg(
            threads,
            ServeConfig {
                max_conns: 1,
                ..ServeConfig::default()
            },
        );
        let (addr, handle, join) = spawn_server(engine.clone(), cfg);

        // Occupy the only slot (round-trip a ping so the accept is done).
        let mut occupant = connect(addr);
        occupant.write_all(b"ping\n").unwrap();
        let mut buf = [0u8; 8];
        let n = occupant.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"pong\n", "[x{threads}]");

        // The rejected client sends queries immediately — bytes the
        // server will never read.
        let (v, p) = &query_pairs(&engine, &exp)[0];
        let mut rejected = connect(addr);
        rejected
            .write_all(format!("route {v} {p}\nroute {v} {p}\n").as_bytes())
            .unwrap();
        let mut got = String::new();
        rejected
            .read_to_string(&mut got)
            .expect("notice then EOF, not a connection reset");
        assert_eq!(got, "error: server full (1 connections)\n", "[x{threads}]");
        assert_eq!(handle.stats().rejected, 1, "[x{threads}]");

        drop(occupant);
        handle.shutdown();
        join.join().unwrap();
    }
}

#[test]
fn garbage_and_oversized_lines_error_in_band_without_killing_the_connection() {
    for threads in matrix() {
        let (engine, exp) = tiny_engine();
        let cfg = cell_cfg(
            threads,
            ServeConfig {
                max_line_len: 64,
                ..ServeConfig::default()
            },
        );
        let (addr, handle, join) = spawn_server(engine.clone(), cfg);

        let (v, p) = &query_pairs(&engine, &exp)[0];
        let long = "x".repeat(200);
        let input = format!("frobnicate AS1\n{long}\nroute {v} {p}\nbad line two\nquit\n");
        let got = roundtrip(addr, &input);

        let mut lines = got.lines();
        let l1 = lines.next().unwrap();
        assert!(
            l1.starts_with("error line 1: unknown query 'frobnicate'"),
            "[x{threads}] garbage must be a line-numbered error: {l1}"
        );
        let l2 = got
            .lines()
            .find(|l| l.starts_with("error line 2:"))
            .expect("oversized line errors with its number");
        assert!(
            l2.contains("line too long") && l2.contains("cap 64"),
            "[x{threads}] oversized error names the cap: {l2}"
        );
        // The connection survived both: the valid query still answered …
        let req = parse(&format!("route {v} {p}")).unwrap();
        let expected = render_response(&req, &engine.execute(&req).unwrap());
        assert!(
            got.lines().any(|l| l == expected),
            "[x{threads}] valid query after errors must still answer.\ngot:\n{got}"
        );
        // … and the second garbage line is numbered *after* the long line.
        assert!(
            got.lines().any(|l| l.starts_with("error line 4:")),
            "[x{threads}] line numbering must count the oversized line:\n{got}"
        );

        let stats = handle.stats();
        assert_eq!(stats.queries, 1, "[x{threads}]");
        assert_eq!(stats.errors, 3, "[x{threads}]");

        handle.shutdown();
        join.join().unwrap();
    }
}

/// Heavy by design (200k pipelined queries): the property is strictly
/// per-connection (one connection's write buffer versus one shard's
/// read loop), so it runs at one serve thread; the
/// sharded cells exercise backpressure via the cross-shard totals and
/// concurrency scenarios instead.
#[test]
fn backpressure_stops_reading_and_bounds_the_write_buffer() {
    let (engine, exp) = tiny_engine();
    let cap = 4 * 1024;
    let cfg = ServeConfig {
        write_buf_cap: cap,
        idle_timeout: Duration::from_secs(120),
        ..ServeConfig::default()
    };
    let (addr, handle, join) = spawn_server(engine.clone(), cfg);

    // A high-expansion query (~12 request bytes → ~150+ response
    // bytes): kernel socket buffers on loopback autotune into the
    // megabytes, so the *response* volume has to dwarf what
    // sndbuf+rcvbuf can swallow before the server visibly wedges.
    let (v, _) = &query_pairs(&engine, &exp)[0];
    let line = format!("summary {v}\n");
    let req = parse(line.trim()).unwrap();
    let expected = render_response(&req, &engine.execute(&req).unwrap());

    const N: usize = 200_000;
    let payload: Vec<u8> = line.as_bytes().repeat(N);
    let total_responses = (expected.len() + 1) * N;
    assert!(
        total_responses > 24 * 1024 * 1024,
        "responses ({total_responses} B) must exceed any plausible kernel buffering"
    );

    let mut s = connect(addr);
    s.set_nonblocking(true).unwrap();

    // Phase 1: shovel queries without ever reading, then watch the
    // server's app-level read counter. Backpressure means it stops
    // *consuming* input long before the payload runs out — the
    // unread remainder parks in kernel buffers (and possibly our
    // send loop), not in server memory.
    let mut sent = 0usize;
    let mut stalled_rounds = 0;
    while sent < payload.len() && stalled_rounds < 500 {
        match s.write(&payload[sent..]) {
            Ok(n) => {
                sent += n;
                stalled_rounds = 0;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                stalled_rounds += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("send failed: {e}"),
        }
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut consumed = handle.stats().bytes_in;
    loop {
        std::thread::sleep(Duration::from_millis(400));
        let now_in = handle.stats().bytes_in;
        if now_in == consumed {
            break; // plateaued: the server stopped reading us
        }
        consumed = now_in;
        assert!(Instant::now() < deadline, "bytes_in never plateaued");
    }
    assert!(
        (consumed as usize) < payload.len(),
        "server consumed the whole {} B payload from a client that never reads",
        payload.len()
    );
    // Bounded growth: the write buffer may overshoot the cap by at
    // most one read's worth of rendered responses (64 KiB of
    // requests at this expansion ratio), never by the workload size.
    let peak = handle.stats().max_write_buf as usize;
    let one_read_slack = (64 * 1024 / line.len() + 1) * (expected.len() + 1);
    assert!(
        peak <= cap + one_read_slack,
        "write buffer grew without bound: peak {peak} B vs cap {cap} B + slack {one_read_slack} B"
    );

    // Phase 2: start draining. Everything already accepted must
    // arrive, then the rest of the payload flows and answers too.
    s.set_nonblocking(false).unwrap();
    let writer = {
        let payload = payload[sent..].to_vec();
        let mut s2 = s.try_clone().unwrap();
        std::thread::spawn(move || {
            s2.write_all(&payload).unwrap();
            s2.write_all(b"quit\n").unwrap();
        })
    };
    let mut got = String::new();
    s.read_to_string(&mut got).unwrap();
    writer.join().unwrap();

    let lines: Vec<&str> = got.lines().collect();
    assert_eq!(lines.len(), N, "every pipelined query must answer");
    assert!(lines.iter().all(|l| *l == expected));
    assert_eq!(handle.stats().queries, N as u64);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn idle_connections_are_shed_and_counted() {
    for threads in matrix() {
        let (engine, _exp) = tiny_engine();
        let cfg = cell_cfg(
            threads,
            ServeConfig {
                idle_timeout: Duration::from_millis(250),
                ..ServeConfig::default()
            },
        );
        let (addr, handle, join) = spawn_server(engine, cfg);

        let mut s = connect(addr);
        s.write_all(b"ping\n").unwrap();
        let mut buf = [0u8; 16];
        let n = s.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"pong\n", "[x{threads}]");

        // Now go silent: the server must hang up on us (EOF or a reset,
        // depending on how the close lands — both mean "shed", never a
        // hang).
        let mut rest = Vec::new();
        match s.read_to_end(&mut rest) {
            Ok(_) => assert!(rest.is_empty(), "[x{threads}]"),
            Err(e) => assert_eq!(
                e.kind(),
                std::io::ErrorKind::ConnectionReset,
                "[x{threads}] {e}"
            ),
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while handle.stats().shed_idle == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(handle.stats().shed_idle, 1, "[x{threads}]");

        handle.shutdown();
        join.join().unwrap();
    }
}

#[test]
fn concurrent_clients_get_exactly_direct_execute_answers() {
    for threads in matrix() {
        let (engine, exp) = tiny_engine();
        let (addr, handle, join) =
            spawn_server(engine.clone(), cell_cfg(threads, ServeConfig::default()));

        let pairs = query_pairs(&engine, &exp);
        const CLIENTS: usize = 6;
        std::thread::scope(|scope| {
            for c in 0..CLIENTS {
                let engine = &engine;
                let pairs = &pairs;
                scope.spawn(move || {
                    // Each client gets its own slice of the workload,
                    // with every verb shape mixed in.
                    let mut lines: Vec<String> = Vec::new();
                    for (i, (v, p)) in pairs.iter().enumerate().filter(|(i, _)| i % CLIENTS == c) {
                        lines.push(match i % 4 {
                            0 => format!("route {v} {p}"),
                            1 => format!("resolve {v} {p}"),
                            2 => format!("sa {v} {p}"),
                            _ => format!("summary {v}"),
                        });
                    }
                    lines.push("quit".into());
                    let input = lines.join("\n") + "\n";
                    let got = roundtrip(addr, &input);
                    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
                    assert_eq!(
                        got,
                        expected_for(engine, &refs),
                        "[x{threads}] client {c} diverged"
                    );
                });
            }
        });

        let stats = handle.stats();
        assert_eq!(stats.accepted, CLIENTS as u64, "[x{threads}]");
        assert_eq!(stats.queries, pairs.len() as u64, "[x{threads}]");
        assert_eq!(stats.errors, 0, "[x{threads}]");

        handle.shutdown();
        let final_stats = join.join().unwrap();
        assert_eq!(final_stats.queries, pairs.len() as u64, "[x{threads}]");
    }
}

/// Every pipelined query increments its verb's counter exactly once —
/// the contract the `metrics` exposition (and `ServeStats::queries`,
/// now a sum over these counters) rests on.
#[test]
fn per_verb_counters_increment_exactly_once_per_pipelined_query() {
    use rpi_query::metrics::VERBS;
    for threads in matrix() {
        let (engine, exp) = tiny_engine();
        let (addr, handle, join) =
            spawn_server(engine.clone(), cell_cfg(threads, ServeConfig::default()));

        let pairs = query_pairs(&engine, &exp);
        let (v, p) = &pairs[0];
        // A known verb mix in one pipelined write: 3 route, 2 resolve,
        // 1 sa, 1 summary, 1 uptime.
        let input = format!(
            "route {v} {p}\nroute {v} {p}\nresolve {v} {p}\nroute {v} {p}\n\
             resolve {v} {p}\nsa {v} {p}\nsummary {v}\nuptime {v}\nquit\n"
        );
        let _ = roundtrip(addr, &input);

        let want = [
            ("route", 3),
            ("resolve", 2),
            ("sa", 1),
            ("summary", 1),
            ("uptime", 1),
        ];
        let m = engine.metrics();
        for (i, verb) in VERBS.iter().enumerate() {
            let expect = want.iter().find(|(w, _)| w == verb).map_or(0, |&(_, n)| n);
            assert_eq!(
                m.serve_queries_total[i].get(),
                expect,
                "[x{threads}] verb '{verb}' count"
            );
            assert_eq!(
                m.serve_query_seconds[i].snapshot().count(),
                expect,
                "[x{threads}] verb '{verb}' latency samples"
            );
        }
        assert_eq!(handle.stats().queries, 8, "[x{threads}]");

        handle.shutdown();
        join.join().unwrap();
    }
}

/// Sharded serving must lose nothing and double-count nothing: with
/// connections spread across 4 event-loop threads, the
/// per-verb counters (shared registry, one counter per verb) sum to
/// exactly the client-side totals, and every client still gets
/// byte-identical answers.
#[test]
fn per_verb_totals_sum_exactly_across_shards() {
    use rpi_query::metrics::VERBS;
    let (engine, exp) = tiny_engine();
    let (addr, handle, join) = spawn_server(engine.clone(), cell_cfg(4, ServeConfig::default()));

    let pairs = query_pairs(&engine, &exp);
    let (v, p) = &pairs[0];
    // Per client: 3 route, 2 resolve, 1 sa, 1 summary — concurrent
    // clients land on whichever shards accept them.
    const CLIENTS: usize = 8;
    let input = format!(
        "route {v} {p}\nroute {v} {p}\nresolve {v} {p}\nroute {v} {p}\n\
         resolve {v} {p}\nsa {v} {p}\nsummary {v}\nquit\n"
    );
    let lines: Vec<&str> = input.lines().collect();
    let expected = expected_for(&engine, &lines);
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let input = &input;
            let expected = &expected;
            scope.spawn(move || {
                let got = roundtrip(addr, input);
                assert_eq!(&got, expected, "client {c} diverged");
            });
        }
    });

    let want = [("route", 3), ("resolve", 2), ("sa", 1), ("summary", 1)];
    let m = engine.metrics();
    for (i, verb) in VERBS.iter().enumerate() {
        let per_client = want.iter().find(|(w, _)| w == verb).map_or(0, |&(_, n)| n);
        let expect = per_client * CLIENTS as u64;
        assert_eq!(
            m.serve_queries_total[i].get(),
            expect,
            "verb '{verb}' total across shards"
        );
        assert_eq!(
            m.serve_query_seconds[i].snapshot().count(),
            expect,
            "verb '{verb}' latency samples across shards"
        );
    }
    let stats = handle.stats();
    assert_eq!(stats.queries, 7 * CLIENTS as u64);
    assert_eq!(stats.accepted, CLIENTS as u64);
    assert_eq!(stats.errors, 0);

    handle.shutdown();
    join.join().unwrap();
}

/// The exposition's key set and ordering never depend on traffic or
/// transport: two TCP scrapes taken mid-load differ only in sample
/// values, and a stdin-rendered scrape of the same engine carries the
/// identical key sequence ('metrics names' is byte-identical outright).
#[test]
fn metrics_exposition_keys_are_stable_across_scrapes_and_transports() {
    fn keys(exposition: &str) -> Vec<String> {
        exposition
            .lines()
            .map(|l| {
                if l.starts_with('#') {
                    l.to_string() // TYPE lines are value-free already
                } else {
                    l[..l.rfind(' ').expect("sample lines end in a value")].to_string()
                }
            })
            .collect()
    }

    for threads in matrix() {
        let (engine, exp) = tiny_engine();
        let (addr, handle, join) =
            spawn_server(engine.clone(), cell_cfg(threads, ServeConfig::default()));

        let (v, p) = &query_pairs(&engine, &exp)[0];
        let first = roundtrip(addr, "metrics\nquit\n");
        let second = roundtrip(
            addr,
            &format!("route {v} {p}\nresolve {v} {p}\nmetrics\nquit\n"),
        );
        let second_metrics = second
            .split_once("# TYPE")
            .map(|(_, rest)| format!("# TYPE{rest}"))
            .expect("scrape contains the exposition");
        assert_eq!(
            keys(&first),
            keys(&second_metrics),
            "[x{threads}] key set/order must not depend on traffic"
        );

        // Transport equivalence: the stdin REPL renders through the same
        // function, against the same registry.
        let stdin_render = repl_reply(&engine, ReplCmd::Metrics);
        assert_eq!(keys(&first), keys(&stdin_render), "[x{threads}]");
        let names_tcp = roundtrip(addr, "metrics names\nquit\n");
        assert_eq!(
            names_tcp,
            format!("{}\n", repl_reply(&engine, ReplCmd::MetricsNames)),
            "[x{threads}] 'metrics names' is byte-identical across transports"
        );

        handle.shutdown();
        join.join().unwrap();
    }
}

/// Sharded servers expose per-shard instances of the connection gauges
/// (`shard="N"` labels on the existing families) — and single-threaded
/// servers must NOT, keeping the original exposition byte-compatible.
#[test]
fn per_shard_gauge_labels_appear_only_for_sharded_servers() {
    let (engine, _exp) = tiny_engine();
    let (addr, handle, join) = spawn_server(engine.clone(), ServeConfig::default());
    let single = roundtrip(addr, "metrics\nquit\n");
    assert!(
        !single.contains("rpi_serve_active_connections{"),
        "single-thread exposition must carry no shard labels:\n{single}"
    );
    handle.shutdown();
    join.join().unwrap();

    let (engine, _exp) = tiny_engine();
    let cfg = ServeConfig {
        serve_threads: 4,
        ..ServeConfig::default()
    };
    let (addr, handle, join) = spawn_server(engine.clone(), cfg);
    let sharded = roundtrip(addr, "metrics\nquit\n");
    for shard in 0..4 {
        assert!(
            sharded.contains(&format!(
                "rpi_serve_active_connections{{shard=\"{shard}\"}}"
            )),
            "sharded exposition must list shard {shard}:\n{sharded}"
        );
        assert!(
            sharded.contains(&format!("rpi_serve_write_buf_bytes{{shard=\"{shard}\"}}")),
            "sharded exposition must list shard {shard} write-buf:\n{sharded}"
        );
    }
    // The schema is per-family: shard labels add no new names.
    let names = roundtrip(addr, "metrics names\nquit\n");
    assert_eq!(
        names.matches("rpi_serve_active_connections").count(),
        1,
        "labels must not add schema lines:\n{names}"
    );
    handle.shutdown();
    join.join().unwrap();
}

/// The labeled `rpi_serve_active_connections{shard="N"}` instances add
/// up to the aggregate, whichever shards took the connections, and
/// follow it back down: 8 held connections plus the scraping one read 9
/// in both, and once the 8 hang up a fresh scrape reads 1 in both.
#[test]
fn per_shard_active_gauges_sum_to_the_aggregate_and_return_with_it() {
    const SHARDS: usize = 4;
    fn active(scrape: &str) -> (f64, Vec<f64>) {
        let sample = |key: &str| -> f64 {
            scrape
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .unwrap_or_else(|| panic!("no '{key}' sample in:\n{scrape}"))
                .parse()
                .expect("a gauge value")
        };
        let shards = (0..SHARDS)
            .map(|i| sample(&format!("rpi_serve_active_connections{{shard=\"{i}\"}} ")))
            .collect();
        (sample("rpi_serve_active_connections "), shards)
    }

    let (engine, _exp) = tiny_engine();
    let (addr, handle, join) = spawn_server(engine, cell_cfg(SHARDS, ServeConfig::default()));
    // Each held connection answers a ping first, so its accept is done.
    let held: Vec<TcpStream> = (0..8)
        .map(|_| {
            let mut s = connect(addr);
            s.write_all(b"ping\n").unwrap();
            let mut pong = [0u8; 5];
            s.read_exact(&mut pong).unwrap();
            assert_eq!(&pong, b"pong\n");
            s
        })
        .collect();
    let (total, shards) = active(&roundtrip(addr, "metrics\nquit\n"));
    println!("per-shard active connections with 9 open: {shards:?}");
    assert_eq!(total, 9.0, "8 held + the scraper");
    assert_eq!(shards.iter().sum::<f64>(), 9.0, "{shards:?}");

    // Hang-ups are noticed asynchronously: scrape until both settle.
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(10);
    let (total, shards) = loop {
        let (total, shards) = active(&roundtrip(addr, "metrics\nquit\n"));
        let settled = total == 1.0 && shards.iter().sum::<f64>() == 1.0;
        if settled || Instant::now() >= deadline {
            break (total, shards);
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(total, 1.0, "only the scraper is left");
    assert_eq!(shards.iter().sum::<f64>(), 1.0, "{shards:?}");

    handle.shutdown();
    join.join().unwrap();
}

/// A server that has been quiet answers a new connection at once, in
/// every cell: each loop watches the listener itself, so a connection
/// wakes a blocked loop directly. Before each of 15 connect → `ping` →
/// `pong` round trips the server idles 60 ms — long enough for every
/// loop to be blocked in its longest idle wait — and the median round
/// trip must stay under 4 ms. Prints one `idle connect->pong:` line per
/// cell (CI tabulates them).
#[test]
fn an_idle_server_answers_a_new_connection_promptly() {
    for threads in matrix() {
        let (engine, _exp) = tiny_engine();
        let (addr, handle, join) = spawn_server(engine, cell_cfg(threads, ServeConfig::default()));
        let mut rtts: Vec<Duration> = (0..15)
            .map(|_| {
                std::thread::sleep(Duration::from_millis(60));
                let t0 = Instant::now();
                let mut s = connect(addr);
                s.write_all(b"ping\n").unwrap();
                let mut pong = [0u8; 5];
                s.read_exact(&mut pong).unwrap();
                let rtt = t0.elapsed();
                assert_eq!(&pong, b"pong\n", "[x{threads}]");
                rtt
            })
            .collect();
        rtts.sort();
        let (median, max) = (rtts[rtts.len() / 2], rtts[rtts.len() - 1]);
        println!(
            "idle connect->pong: x{threads} median {:.2} ms (max {:.2} ms, {} round trips)",
            median.as_secs_f64() * 1e3,
            max.as_secs_f64() * 1e3,
            rtts.len()
        );
        assert!(
            median < Duration::from_millis(4),
            "[x{threads}] a new connection waited {median:?} (median) for its first answer"
        );

        handle.shutdown();
        join.join().unwrap();
    }
}

/// The two constructors take either kind of world. A frozen engine
/// through `with_listener` answers as it does through `bind` everywhere
/// else in this file; a live handle through `bind` serves its epoch 0
/// (`tests/live.rs` drives one through `with_listener` while it
/// publishes).
#[test]
fn both_constructors_take_frozen_and_live_worlds() {
    let (engine, exp) = tiny_engine();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().unwrap();
    let server = Server::with_listener(engine.clone(), listener, ServeConfig::default()).unwrap();
    assert_eq!(server.local_addr().unwrap(), addr);
    let join = std::thread::spawn(move || server.run().expect("serve loop"));
    let (v, p) = &query_pairs(&engine, &exp)[0];
    let got = roundtrip(addr, &format!("route {v} {p}\nshutdown\n"));
    let req = parse(&format!("route {v} {p}")).unwrap();
    let expected = render_response(&req, &engine.execute(&req).unwrap());
    assert_eq!(got, format!("{expected}\n"));
    assert_eq!(join.join().unwrap().queries, 1);

    let live = LiveHandle::new(QueryEngine::default());
    let (addr, _handle, join) = spawn_server(Arc::clone(&live), ServeConfig::default());
    let got = roundtrip(addr, "ping\nsnapshots\nshutdown\n");
    let listing = repl_reply(&live.current(), ReplCmd::Snapshots);
    assert_eq!(got, format!("pong\n{listing}\n"));
    assert_eq!(join.join().unwrap().accepted, 1);
}

#[test]
fn shutdown_verb_stops_the_server_and_reports_stats() {
    for threads in matrix() {
        let (engine, exp) = tiny_engine();
        let (addr, _handle, join) =
            spawn_server(engine.clone(), cell_cfg(threads, ServeConfig::default()));

        let (v, p) = &query_pairs(&engine, &exp)[0];
        let got = roundtrip(addr, &format!("route {v} {p}\nshutdown\n"));
        let req = parse(&format!("route {v} {p}")).unwrap();
        let expected = render_response(&req, &engine.execute(&req).unwrap());
        assert_eq!(got, format!("{expected}\n"), "[x{threads}]");

        // run() must return (no hang) with the final snapshot.
        let stats = join.join().unwrap();
        assert_eq!(stats.queries, 1, "[x{threads}]");
        assert_eq!(stats.active, 0, "[x{threads}]");
    }
}

/// A slow run is quoted in the slowlog by its first line, cut to 120
/// bytes — on a char boundary: scope labels are free UTF-8, and a cut
/// inside a character used to panic the serve thread (`main`, with one
/// serve thread) under `--slow-query-ms`. The line below parses, is 227
/// bytes, and has a two-byte `é` across byte 120; enough pipelined scans
/// ride behind it in one write for the run to cross the 1 ms threshold.
#[test]
fn slow_run_led_by_a_long_utf8_line_is_logged_and_the_server_lives() {
    for threads in matrix() {
        let (engine, _exp) = tiny_engine();
        engine.metrics().set_slow_threshold_ms(1);
        let (addr, handle, join) =
            spawn_server(engine.clone(), cell_cfg(threads, ServeConfig::default()));

        let long = format!("route AS1 1.0.0.0/8 @label:{}", "é".repeat(100));
        assert!(parse(&long).is_ok() && !long.is_char_boundary(120));
        let scan = parse("hijacks @all").unwrap();
        let t0 = Instant::now();
        let answer = render_response(&scan, &engine.execute(&scan).unwrap());
        // The batch's scans run one after another: 8 ms of them is
        // ≥ 1 ms of wall time with room to spare.
        let scans = (8_000_000 / t0.elapsed().as_nanos().max(1)).clamp(8, 2048);

        let input = format!(
            "{long}\n{}ping\nquit\n",
            "hijacks @all\n".repeat(scans as usize)
        );
        let expected = format!(
            "error line 1: no snapshot labeled '{}'\n{}pong\n",
            "é".repeat(100),
            format!("{answer}\n").repeat(scans as usize)
        );
        assert_eq!(
            roundtrip(addr, &input),
            expected,
            "[x{threads}] every line is answered"
        );

        // A second connection: the server is alive and lists the run.
        let got = roundtrip(addr, "slowlog\nping\nquit\n");
        assert!(got.ends_with("\npong\n"), "[x{threads}] {got}");
        let quote = got
            .lines()
            .filter_map(|l| l.split_once(" queries  "))
            .find_map(|(_, quote)| quote.strip_suffix('…'))
            .unwrap_or_else(|| panic!("[x{threads}] no cut quote in: {got}"));
        assert!(long.starts_with(quote), "[x{threads}] {quote}");
        assert_eq!(quote.len(), 119, "[x{threads}]");

        handle.shutdown();
        join.join().unwrap();
    }
}
