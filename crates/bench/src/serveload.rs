//! The load-generator client for the `rpi_query::serve` TCP front end.
//!
//! Two faces, both speaking the shared `proto` wire grammar over plain
//! `TcpStream`s:
//!
//! * [`drive_script`] — the CI smoke client: send a query script, read
//!   every response until the server closes, return the byte stream for
//!   golden diffing (a stand-in for `nc` that never depends on runner
//!   netcat flavors).
//! * [`run_load`] — the throughput harness behind `benches/serve.rs`:
//!   N connections, each keeping a `pipeline`-deep window of
//!   newline-framed single-line queries in flight, measuring sustained
//!   queries/s over loopback.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// How [`drive_script`] ends the session after the script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminator {
    /// Append `quit`: close this connection, leave the server running.
    Quit,
    /// Append `shutdown`: stop the whole server (it flushes and exits).
    Shutdown,
    /// Append nothing (the script already ends the session itself).
    None,
}

/// Sends `script` (plus the terminator line) to a serving `rpi-queryd`
/// and returns everything the server answered, reading until it closes
/// the connection. The output is byte-comparable with the stdin
/// `--queries` path's stdout — the CI network smoke's contract.
pub fn drive_script(
    addr: impl ToSocketAddrs,
    script: &str,
    terminator: Terminator,
) -> io::Result<String> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_read_timeout(Some(Duration::from_secs(120)))?;
    conn.set_nodelay(true)?;
    conn.write_all(script.as_bytes())?;
    if !script.is_empty() && !script.ends_with('\n') {
        conn.write_all(b"\n")?;
    }
    match terminator {
        Terminator::Quit => conn.write_all(b"quit\n")?,
        Terminator::Shutdown => conn.write_all(b"shutdown\n")?,
        Terminator::None => {}
    }
    let mut out = String::new();
    conn.read_to_string(&mut out)?;
    Ok(out)
}

/// What [`run_load`] measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Concurrent connections.
    pub conns: usize,
    /// Queries kept in flight per connection.
    pub pipeline: usize,
    /// Total queries answered across all connections.
    pub queries: usize,
    /// Wall-clock for the whole run (slowest connection).
    pub elapsed: Duration,
    /// Request bytes written.
    pub bytes_out: u64,
    /// Response bytes read.
    pub bytes_in: u64,
}

impl LoadReport {
    /// Sustained queries per second over the run.
    pub fn queries_per_sec(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s > 0.0 {
            self.queries as f64 / s
        } else {
            0.0
        }
    }
}

/// Drives `conns` connections against a serving `rpi-queryd`, each
/// cycling through `lines` (single-line queries, newline-free) in
/// pipelined windows of `pipeline`, until it has seen
/// `queries_per_conn` responses. Responses are counted, not parsed —
/// every workload line must render to exactly one response line (true
/// for `route`/`resolve`/`sa`/`rel`/`summary`).
pub fn run_load(
    addr: impl ToSocketAddrs + Clone + Send,
    conns: usize,
    pipeline: usize,
    queries_per_conn: usize,
    lines: &[String],
) -> io::Result<LoadReport> {
    assert!(conns > 0 && pipeline > 0 && queries_per_conn > 0);
    assert!(!lines.is_empty(), "load needs a workload");
    let t0 = Instant::now();
    let mut per_conn: Vec<io::Result<(u64, u64)>> = Vec::with_capacity(conns);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let addr = addr.clone();
                scope.spawn(move || -> io::Result<(u64, u64)> {
                    let conn = TcpStream::connect(addr)?;
                    conn.set_nodelay(true)?;
                    conn.set_read_timeout(Some(Duration::from_secs(120)))?;
                    let mut writer = conn.try_clone()?;
                    let mut reader = BufReader::with_capacity(1 << 16, conn);
                    let mut bytes_out = 0u64;
                    let mut bytes_in = 0u64;
                    let mut answered = 0usize;
                    // Offset the cycle per connection so shards see a mix.
                    let mut next = (c * lines.len() / conns.max(1)) % lines.len();
                    let mut response = String::new();
                    while answered < queries_per_conn {
                        let window = pipeline.min(queries_per_conn - answered);
                        let mut block = String::new();
                        for _ in 0..window {
                            block.push_str(&lines[next]);
                            block.push('\n');
                            next = (next + 1) % lines.len();
                        }
                        writer.write_all(block.as_bytes())?;
                        bytes_out += block.len() as u64;
                        for _ in 0..window {
                            response.clear();
                            let n = reader.read_line(&mut response)?;
                            if n == 0 {
                                return Err(io::Error::new(
                                    io::ErrorKind::UnexpectedEof,
                                    "server closed mid-load",
                                ));
                            }
                            bytes_in += n as u64;
                        }
                        answered += window;
                    }
                    writer.write_all(b"quit\n")?;
                    Ok((bytes_out, bytes_in))
                })
            })
            .collect();
        for h in handles {
            per_conn.push(h.join().expect("load connection thread panicked"));
        }
    });
    let elapsed = t0.elapsed();
    let mut bytes_out = 0;
    let mut bytes_in = 0;
    for r in per_conn {
        let (o, i) = r?;
        bytes_out += o;
        bytes_in += i;
    }
    Ok(LoadReport {
        conns,
        pipeline,
        queries: conns * queries_per_conn,
        elapsed,
        bytes_out,
        bytes_in,
    })
}

/// Opens `count` connections that send nothing and read nothing — the
/// scale-smoke's background population. Returns the held sockets (the
/// caller keeps them alive for the measurement window; dropping the Vec
/// closes them all). Connects retry briefly so a kernel accept-queue
/// burst (10k serial connects against a backlog of 128) sheds into
/// retries instead of failures.
pub fn open_idle_conns(
    addr: impl ToSocketAddrs + Clone,
    count: usize,
) -> io::Result<Vec<TcpStream>> {
    let mut held = Vec::with_capacity(count);
    for i in 0..count {
        let mut attempt = 0u32;
        let conn = loop {
            match TcpStream::connect(addr.clone()) {
                Ok(c) => break c,
                Err(e) => {
                    attempt += 1;
                    if attempt > 50 {
                        return Err(io::Error::new(
                            e.kind(),
                            format!("idle conn {i}/{count} failed after {attempt} attempts: {e}"),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(2 * attempt as u64));
                }
            }
        };
        held.push(conn);
    }
    Ok(held)
}
