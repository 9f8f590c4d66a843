//! The closed-loop client: write a window of request lines, read the
//! responses, verify them, repeat.
//!
//! A window's responses are framed by their **expected byte length**,
//! not by counting newlines (history responses span many lines), and
//! compared byte for byte with the reference rendering. A mismatch, an
//! in-band `error` line, a timeout or a closed connection fails every
//! operation of the window and ends the connection's run: the benchmark
//! is defined on workloads where nothing fails, so there is nothing to
//! resynchronise to.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rpi_query::QueryEngine;

use crate::workload::expected;

/// One closed-loop unit: `ops` request lines and the bytes they must be
/// answered with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Window {
    /// The request lines, newline-terminated, written in one call.
    pub request: Vec<u8>,
    /// The exact response bytes. Empty means "unknown" (a moving world):
    /// the client then reads `ops` lines and checks only their shape.
    pub expected: Vec<u8>,
    /// Request lines in the window.
    pub ops: u32,
}

/// Chunks `lines` into windows of `depth`, rendering the expected bytes
/// from `engine` (or leaving them empty when `engine` is `None`).
pub fn windows(
    lines: &[String],
    depth: usize,
    engine: Option<&QueryEngine>,
) -> Result<Vec<Window>, String> {
    lines
        .chunks(depth)
        .map(|chunk| {
            let mut w = Window {
                request: Vec::new(),
                expected: Vec::new(),
                ops: chunk.len() as u32,
            };
            for line in chunk {
                w.request.extend_from_slice(line.as_bytes());
                w.request.push(b'\n');
                if let Some(engine) = engine {
                    w.expected
                        .extend_from_slice(expected(engine, line)?.as_bytes());
                }
            }
            Ok(w)
        })
        .collect()
}

/// One operation completed inside the timed window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// The slice of the timed window it belongs to.
    pub slice: usize,
    /// Its latency, µs.
    pub latency_us: f64,
    /// Verified responses it stands for.
    pub ops: u32,
}

/// What one connection measured.
#[derive(Debug, Clone, Default)]
pub struct ConnReport {
    /// Every window completed in a timed slice.
    pub samples: Vec<Sample>,
    /// Per slice: seconds from the slice's start to this connection's
    /// last completion in it.
    pub busy_s: Vec<f64>,
    /// Operations attempted (warm-up included).
    pub attempted: u64,
    /// Operations failed (warm-up included).
    pub failed: u64,
    /// Why the connection stopped early, if it did.
    pub error: Option<String>,
}

/// Equal slices the timed window is cut into. Between slices the
/// clients pause and the harness reads its yardstick, so each slice is
/// normalised by the machine speed measured right around it; rates, CPU
/// per query and the tail are computed per slice and the **median
/// slice** is reported. A stall or a slow phase that hits some slices (a
/// neighbour's burst on a shared box) does not move the run's number.
pub const SLICES: usize = 10;

/// The rhythm every thread of a run keeps: a warm-up, then `slices`
/// timed slices, each entered and left through `barrier` so that between
/// slices the machine is idle and the harness can read its yardstick.
#[derive(Debug)]
pub struct Pace {
    /// Meets every client thread, the `live_ingest` publisher and the
    /// main thread, twice per slice.
    pub barrier: Barrier,
    /// Unrecorded lead-in (slice zero of the rhythm).
    pub warmup: Duration,
    /// Timed slices after it.
    pub slices: usize,
    /// Length of each.
    pub slice: Duration,
}

impl Pace {
    /// The rhythm of a run with this warm-up and timed window, for
    /// `threads` participants besides the main thread.
    pub fn new(threads: usize, warmup_s: f64, seconds: f64) -> Pace {
        Pace {
            barrier: Barrier::new(threads + 1),
            warmup: Duration::from_secs_f64(warmup_s),
            slices: SLICES,
            slice: Duration::from_secs_f64(seconds / SLICES as f64),
        }
    }

    /// Length of step `step` of the rhythm: the warm-up, then the slices.
    pub fn len(&self, step: usize) -> Duration {
        if step == 0 {
            self.warmup
        } else {
            self.slice
        }
    }
}

/// Writes one window, reads its responses and verifies them. `scratch`
/// is reused between calls.
pub fn round_trip(
    conn: &mut TcpStream,
    window: &Window,
    scratch: &mut Vec<u8>,
) -> Result<(), String> {
    conn.write_all(&window.request)
        .map_err(|e| format!("write: {e}"))?;
    if !window.expected.is_empty() {
        scratch.resize(window.expected.len(), 0);
        conn.read_exact(scratch).map_err(|e| format!("read: {e}"))?;
        if scratch[..] != window.expected[..] {
            return Err(mismatch(&window.expected, scratch));
        }
        return Ok(());
    }
    // Unknown bytes: every response of these workloads is one line.
    scratch.clear();
    let mut lines = 0u32;
    let mut buf = [0u8; 16 * 1024];
    while lines < window.ops {
        let n = conn.read(&mut buf).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection mid-window".into());
        }
        lines += buf[..n].iter().filter(|&&b| b == b'\n').count() as u32;
        scratch.extend_from_slice(&buf[..n]);
    }
    if lines != window.ops || scratch.last() != Some(&b'\n') {
        return Err(format!(
            "expected {} one-line responses, read {lines} lines",
            window.ops
        ));
    }
    if let Some(bad) = scratch
        .split(|&b| b == b'\n')
        .find(|l| l.starts_with(b"error"))
    {
        return Err(format!("in-band {}", String::from_utf8_lossy(bad)));
    }
    Ok(())
}

fn mismatch(expected: &[u8], got: &[u8]) -> String {
    let at = expected
        .iter()
        .zip(got)
        .position(|(a, b)| a != b)
        .unwrap_or(0);
    let line_of = |bytes: &[u8]| {
        let start = bytes[..at]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |p| p + 1);
        let end = bytes[at..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(bytes.len(), |p| at + p);
        String::from_utf8_lossy(&bytes[start..end]).into_owned()
    };
    format!(
        "response differs at byte {at}: expected '{}', got '{}'",
        line_of(expected),
        line_of(got)
    )
}

/// Runs one connection's closed loop over `windows` (cycled) to the
/// rhythm of `pace`: no new window starts once a slice's time is up, and
/// the one in flight is waited for and still counted. A connection that
/// failed keeps meeting the barrier, so the others are not left waiting.
pub fn closed_loop(mut conn: TcpStream, windows: &[Window], pace: &Pace) -> ConnReport {
    let mut report = ConnReport::default();
    let mut scratch = Vec::new();
    let mut next = 0usize;
    for step in 0..=pace.slices {
        pace.barrier.wait();
        let begin = Instant::now();
        let closes = begin + pace.len(step);
        let mut last_done = begin;
        while report.error.is_none() {
            let sent = Instant::now();
            if sent >= closes {
                break;
            }
            let window = &windows[next];
            next = (next + 1) % windows.len();
            report.attempted += window.ops as u64;
            match round_trip(&mut conn, window, &mut scratch) {
                Ok(()) => {
                    last_done = Instant::now();
                    if step > 0 {
                        report.samples.push(Sample {
                            slice: step - 1,
                            latency_us: (last_done - sent).as_secs_f64() * 1e6,
                            ops: window.ops,
                        });
                    }
                }
                Err(e) => {
                    report.failed += window.ops as u64;
                    report.error = Some(e);
                }
            }
        }
        if step > 0 {
            report.busy_s.push((last_done - begin).as_secs_f64());
        }
        pace.barrier.wait();
    }
    let _ = conn.write_all(b"quit\n");
    report
}
