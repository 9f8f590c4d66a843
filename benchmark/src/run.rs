//! The untraced end-to-end run of one workload: build the fixture,
//! launch the real daemon, drive it closed-loop over loopback TCP,
//! verify every response, and report what a user of the daemon would
//! see. Tracing is off here by construction; `layers` holds the traced
//! run.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rpi_query::{parse, render_response};

use crate::calibrate::Yardstick;
use crate::client::{closed_loop, round_trip, windows, ConnReport, Pace, Sample, Window, SLICES};
use crate::daemon::{Daemon, IO_TIMEOUT};
use crate::fixture::{self, Fixture, STREAM_FILE};
use crate::json::Value;
use crate::spec::Metric;
use crate::stats::{median, percentile, supported_percentile};
use crate::trace::Tracer;
use crate::workload::{frames_in, Workload, LIVE_FRAME_GAP_MS, LIVE_WARMUP_FRAMES};

/// Daemon launches `setup_s` is the median of. Odd, so the median is a
/// launch that happened.
pub const LAUNCHES: usize = 5;

/// Settings of one invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// The `rpi-queryd` binary under test.
    pub daemon: PathBuf,
    /// Scratch root (`benchmark/out/<pid>`); each run works in a
    /// subdirectory and removes it on success.
    pub scratch: PathBuf,
    /// `--seed`.
    pub seed: u64,
    /// Unrecorded lead-in before the timed window, seconds.
    pub warmup_s: f64,
    /// `--seconds`: the timed window.
    pub seconds: f64,
}

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether every response verified and every check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The metrics by their `BENCHMARK.json` names, in emission order.
    /// Units and directions are the contract's ([`crate::spec::Spec`]).
    pub metrics: Vec<(String, f64)>,
    /// The time-like end-to-end metrics as read off the clock, before
    /// scaling to reference time (`--out` lines carry them as `raw`).
    pub raw: Vec<(String, f64)>,
    /// Mean machine slowdown over the timed slices (end-to-end runs).
    pub slowdown: Option<f64>,
    /// Context for the human reader (sample counts, why a check failed);
    /// printed to stderr, never part of the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// An outcome with nothing measured yet.
    pub(crate) fn new() -> Outcome {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            raw: Vec::new(),
            slowdown: None,
            notes: Vec::new(),
        }
    }

    /// Records a metric under its `BENCHMARK.json` name.
    pub(crate) fn push(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Records a time-like metric: in reference time as the metric, as
    /// read in [`Self::raw`].
    fn push_reading(&mut self, name: &str, reading: Reading) {
        self.push(name, reading.reference);
        self.raw.push((name.to_string(), reading.raw));
    }

    /// The result object the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`, the latter being exactly
    /// `listed` — a metric missing from the outcome or foreign to the
    /// list, or a value that is not a finite number, is an error.
    pub fn to_json(&self, listed: &[Metric]) -> Result<Value, String> {
        if let Some((extra, _)) = self
            .metrics
            .iter()
            .find(|(name, _)| !listed.iter().any(|m| m.name == *name))
        {
            return Err(format!("metric '{extra}' is not listed in BENCHMARK.json"));
        }
        let metrics = listed
            .iter()
            .map(
                |m| match self.metrics.iter().find(|(name, _)| *name == m.name) {
                    None => Err(format!("metric '{}' was not measured", m.name)),
                    Some((_, v)) if !v.is_finite() => {
                        Err(format!("metric '{}' is not a finite number", m.name))
                    }
                    Some(&(_, v)) => Ok((
                        m.name.as_str(),
                        Value::obj([
                            ("value", Value::from(v)),
                            ("unit", Value::from(m.unit.as_str())),
                        ]),
                    )),
                },
            )
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Value::obj([
            ("correct", Value::from(self.correct)),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            ("metrics", Value::obj(metrics)),
        ]))
    }
}

/// A workload's daemon, launched [`LAUNCHES`] times over the fixture;
/// the last launch stays up for the measurement.
pub(crate) struct Launched {
    pub daemon: Daemon,
    /// Median launch → ready time, seconds: as read, and with each
    /// launch divided by the yardstick slowdown read around it.
    pub setup_s: Reading,
}

/// Launches the daemon `launches` times and keeps the last. "Ready" is
/// the first `pong`; for `live_ingest` it is the first answer from the
/// last warm-up snapshot, i.e. the stream prefix replayed.
pub(crate) fn launch(
    cfg: &Config,
    workload: Workload,
    fx: &Fixture,
    launches: usize,
    yardstick: &Yardstick,
) -> Result<Launched, String> {
    let args = workload.daemon_args(fx);
    let (mut raw, mut reference) = (Vec::new(), Vec::new());
    let mut kept = None;
    let mut before = yardstick.slowdown_single();
    for i in 0..launches {
        if workload == Workload::LiveIngest {
            let _ = std::fs::remove_dir_all(fx.dir.join("spill"));
            write_stream_prefix(fx)?;
        }
        let t0 = Instant::now();
        let (daemon, pong) = Daemon::spawn(&cfg.daemon, &args)?;
        let ready = if workload == Workload::LiveIngest {
            let mut poller = Poller::open(&daemon, fx)?;
            poller.wait_for(LIVE_WARMUP_FRAMES - 1)?;
            t0.elapsed()
        } else {
            pong
        };
        let after = yardstick.slowdown_single();
        raw.push(ready.as_secs_f64());
        reference.push(ready.as_secs_f64() / ((before + after) / 2.0));
        before = after;
        if i + 1 == launches {
            kept = Some(daemon);
        } else {
            daemon.shutdown()?;
        }
    }
    Ok(Launched {
        daemon: kept.expect("at least one launch"),
        setup_s: Reading {
            raw: median(&raw),
            reference: median(&reference),
        },
    })
}

/// (Re)creates the stream file holding the header and the warm-up
/// frames — what a `--follow` daemon finds at launch.
fn write_stream_prefix(fx: &Fixture) -> Result<(), String> {
    let mut bytes = fx.stream.header.clone();
    for frame in &fx.stream.frames[..LIVE_WARMUP_FRAMES] {
        bytes.extend_from_slice(frame);
    }
    std::fs::write(fx.dir.join(STREAM_FILE), bytes).map_err(|e| format!("stream file: {e}"))
}

/// Asks `rel a b @<id>` at depth 1 until the snapshot exists: how the
/// harness sees a publication become visible over TCP.
pub(crate) struct Poller {
    conn: BufReader<std::net::TcpStream>,
    a: String,
    b: String,
    /// The `rel` rendering with its scope token cut off.
    answer: String,
}

impl Poller {
    pub(crate) fn open(daemon: &Daemon, fx: &Fixture) -> Result<Poller, String> {
        let (a, b) = fx.keys.hops.first().ok_or("fixture has no AS adjacency")?;
        let line = format!("rel {a} {b}");
        let req = parse(&line).map_err(|e| e.to_string())?;
        let resp = fx.engine.execute(&req).map_err(|e| e.to_string())?;
        let rendered = render_response(&req, &resp);
        let answer = rendered
            .strip_suffix("@latest")
            .ok_or("rel rendering does not end in its scope")?
            .to_string();
        Ok(Poller {
            conn: BufReader::new(daemon.connect()?),
            a: a.to_string(),
            b: b.to_string(),
            answer,
        })
    }

    /// Polls (1 ms pause) until snapshot `id` answers, and verifies the
    /// answer byte for byte. The relationship oracle never changes along
    /// the stream, so the answer is the reference engine's for any id.
    pub(crate) fn wait_for(&mut self, id: usize) -> Result<(), String> {
        let deadline = Instant::now() + IO_TIMEOUT;
        let mut reply = String::new();
        loop {
            self.conn
                .get_mut()
                .write_all(format!("rel {} {} @{id}\n", self.a, self.b).as_bytes())
                .map_err(|e| format!("poll write: {e}"))?;
            reply.clear();
            self.conn
                .read_line(&mut reply)
                .map_err(|e| format!("poll read: {e}"))?;
            if reply.starts_with("error") && reply.contains("no snapshot") {
                if Instant::now() > deadline {
                    return Err(format!("snapshot {id} not visible after {IO_TIMEOUT:?}"));
                }
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            let want = format!("{}@{id}\n", self.answer);
            return if reply == want {
                Ok(())
            } else {
                Err(format!(
                    "poll answered '{}', expected '{}'",
                    reply.trim_end(),
                    want.trim_end()
                ))
            };
        }
    }
}

/// What the write side of `live_ingest` measured.
#[derive(Debug, Default)]
struct PublishReport {
    /// Due → first successful `@<id>` answer, per frame of a timed slice.
    visible: Vec<Sample>,
    /// How late each append ran behind its due time, µs.
    lag_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    error: Option<String>,
}

/// Thread B of `live_ingest`: appends frame *i* at its due time (open
/// loop — latency counts from the due time, not from when the append
/// actually ran), then polls until snapshot *i* answers. It keeps the
/// run's rhythm: in every step [`frames_in`] its length fall due, one
/// per [`LIVE_FRAME_GAP_MS`] from half a gap in, so the writer too is
/// idle while the yardstick is read.
fn publish(daemon: &Daemon, fx: &Fixture, pace: &Pace) -> PublishReport {
    let mut report = PublishReport::default();
    let mut session = Poller::open(daemon, fx).and_then(|poller| {
        std::fs::OpenOptions::new()
            .append(true)
            .open(fx.dir.join(STREAM_FILE))
            .map(|file| (poller, file))
            .map_err(|e| format!("stream file: {e}"))
    });
    let gap = Duration::from_millis(LIVE_FRAME_GAP_MS);
    let mut frames = fx.stream.frames.iter().enumerate().skip(LIVE_WARMUP_FRAMES);
    for step in 0..=pace.slices {
        pace.barrier.wait();
        let begin = Instant::now();
        for j in 0..frames_in(pace.len(step)) {
            let (Ok((poller, file)), Some((i, frame))) = (&mut session, frames.next()) else {
                break;
            };
            let due = begin + gap.mul_f64(j as f64 + 0.5);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            report.lag_us.push(due.elapsed().as_secs_f64() * 1e6);
            report.attempted += 1;
            let published = file
                .write_all(frame)
                .and_then(|()| file.flush())
                .map_err(|e| format!("append frame {i}: {e}"))
                .and_then(|()| poller.wait_for(i));
            match published {
                Ok(()) if step > 0 => report.visible.push(Sample {
                    slice: step - 1,
                    latency_us: due.elapsed().as_secs_f64() * 1e6,
                    ops: 1,
                }),
                Ok(()) => {}
                Err(e) => {
                    report.failed += 1;
                    session = Err(e);
                }
            }
        }
        pace.barrier.wait();
    }
    match session {
        Ok((_, mut file)) => {
            if let Err(e) = file.write_all(&fx.stream.end).and_then(|()| file.flush()) {
                report.error = Some(format!("append end marker: {e}"));
            }
        }
        Err(e) => report.error = Some(e),
    }
    report
}

/// Renders every connection's windows, expected bytes included, from the
/// fixture's reference engine.
pub(crate) fn scripts(
    workload: Workload,
    fx: &Fixture,
    seed: u64,
) -> Result<Vec<Vec<Window>>, String> {
    (0..workload.conns())
        .map(|conn| {
            let lines = workload.script(&fx.keys, fx.snapshots, seed, conn);
            windows(&lines, workload.depth(), Some(&fx.engine))
        })
        .collect()
}

/// Samples a group of slices must hold for its own 90th percentile.
const TAIL_SAMPLES: usize = 20;

/// One slice of the timed window, as the main thread saw it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slice {
    /// Daemon CPU seconds spent in it.
    cpu_s: f64,
    /// Machine slowdown around it: mean of the yardstick readings taken
    /// just before and just after.
    slowdown: f64,
}

/// What the timed window measured, before it becomes metrics.
pub(crate) struct Drive {
    slices: Vec<Slice>,
    conns: Vec<ConnReport>,
    /// The operations whose latency the workload reports: the readers'
    /// windows, or for `live_ingest` the publications.
    ops: Vec<Sample>,
    pub generator_lag_us: f64,
    /// The daemon's resident set at every 10 Hz sample of the window, MiB.
    pub rss_mib: Vec<f64>,
    /// Most threads the daemon had at any 10 Hz sample of the window.
    pub threads_peak: u64,
    /// Context switches of the daemon's main (serve-loop) thread inside
    /// the window.
    pub ctx_switches: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// One metric both as read off the clock and in reference time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Reading {
    pub raw: f64,
    pub reference: f64,
}

impl Drive {
    /// The readers' windows, every connection's.
    pub(crate) fn reader(&self) -> impl Iterator<Item = &Sample> {
        self.conns.iter().flat_map(|c| c.samples.iter())
    }

    /// Verified responses inside the timed window.
    pub(crate) fn responses(&self) -> u64 {
        self.reader().map(|s| s.ops as u64).sum()
    }

    /// Daemon CPU seconds over the timed slices.
    pub(crate) fn cpu_s(&self) -> f64 {
        self.slices.iter().map(|s| s.cpu_s).sum()
    }

    /// Mean machine slowdown over the slices.
    pub(crate) fn slowdown(&self) -> f64 {
        self.slices.iter().map(|s| s.slowdown).sum::<f64>() / self.slices.len().max(1) as f64
    }

    /// The median over the slices of `per_slice(k)` (slices it yields
    /// nothing for are left out), raw and normalised by `scale(value,
    /// slowdown)`.
    fn median_slice(
        &self,
        per_slice: impl Fn(usize) -> Option<f64>,
        scale: fn(f64, f64) -> f64,
    ) -> Option<Reading> {
        let (raw, reference): (Vec<f64>, Vec<f64>) = (0..self.slices.len())
            .filter_map(|k| per_slice(k).map(|v| (v, scale(v, self.slices[k].slowdown))))
            .unzip();
        (!raw.is_empty()).then(|| Reading {
            raw: median(&raw),
            reference: median(&reference),
        })
    }

    fn responses_in(&self, k: usize) -> u64 {
        self.reader()
            .filter(|s| s.slice == k)
            .map(|s| s.ops as u64)
            .sum()
    }

    /// Verified responses per second: each connection's own rate over
    /// the part of the slice it was busy, summed; the median slice.
    pub(crate) fn qps(&self) -> Option<Reading> {
        self.median_slice(
            |k| {
                let rate: f64 = self
                    .conns
                    .iter()
                    .filter(|c| c.busy_s.get(k).is_some_and(|&b| b > 0.0))
                    .map(|c| {
                        let ops: u64 = c
                            .samples
                            .iter()
                            .filter(|s| s.slice == k)
                            .map(|s| s.ops as u64)
                            .sum();
                        ops as f64 / c.busy_s[k]
                    })
                    .sum();
                (rate > 0.0).then_some(rate)
            },
            |v, slow| v * slow,
        )
    }

    /// Daemon CPU µs per verified response: the median slice.
    pub(crate) fn cpu_us_per_query(&self) -> Option<Reading> {
        self.median_slice(
            |k| {
                let n = self.responses_in(k);
                (n > 0).then(|| self.slices[k].cpu_s * 1e6 / n as f64)
            },
            |v, slow| v / slow,
        )
    }

    /// Median latency over every reported operation.
    pub(crate) fn p50_us(&self) -> Option<Reading> {
        let raw: Vec<f64> = self.ops.iter().map(|s| s.latency_us).collect();
        let reference: Vec<f64> = self
            .ops
            .iter()
            .map(|s| s.latency_us / self.slices[s.slice].slowdown)
            .collect();
        (!raw.is_empty()).then(|| Reading {
            raw: percentile(&raw, 50.0),
            reference: percentile(&reference, 50.0),
        })
    }

    /// 90th-percentile latency in reference time and as read. Slice by
    /// slice and the median of those where slices hold enough samples
    /// for a tail ([`TAIL_SAMPLES`]); with fewer — `live_ingest` publishes
    /// four frames a slice — consecutive slices are pooled into as many
    /// groups as do.
    pub(crate) fn p90_us(&self) -> Option<Reading> {
        let groups = (self.ops.len() / TAIL_SAMPLES).clamp(1, self.slices.len().max(1));
        let group_of = |s: &Sample| s.slice * groups / self.slices.len().max(1);
        let tail = |scaled: &dyn Fn(&Sample) -> f64| {
            let tails: Vec<f64> = (0..groups)
                .filter_map(|g| {
                    let v: Vec<f64> = self
                        .ops
                        .iter()
                        .filter(|s| group_of(s) == g)
                        .map(scaled)
                        .collect();
                    (!v.is_empty()).then(|| percentile(&v, 90.0))
                })
                .collect();
            (!tails.is_empty()).then(|| median(&tails))
        };
        Some(Reading {
            raw: tail(&|s| s.latency_us)?,
            reference: tail(&|s| s.latency_us / self.slices[s.slice].slowdown)?,
        })
    }

    /// Reported operations (latency samples).
    pub(crate) fn ops(&self) -> usize {
        self.ops.len()
    }
}

/// Drives the launched daemon through a warm-up and [`SLICES`] timed
/// slices: one thread per connection, plus the publisher for
/// `live_ingest`. Around every slice the main thread reads the yardstick
/// (machine idle) and the daemon's CPU clock, and inside it samples
/// `/proc/<pid>/status` at 10 Hz.
pub(crate) fn drive(
    cfg: &Config,
    workload: Workload,
    fx: &Fixture,
    daemon: &Daemon,
    scripts: &[Vec<Window>],
    yardstick: &Yardstick,
) -> Result<Drive, String> {
    let live = workload == Workload::LiveIngest;
    // While frames are being published the reader's answers depend on
    // the epoch they were served from: the timed windows of `live_ingest`
    // are checked for shape only, and byte for byte once the world has
    // stopped moving.
    let blind: Vec<Vec<Window>>;
    let timed = if live {
        blind = scripts
            .iter()
            .map(|conn| {
                conn.iter()
                    .map(|w| Window {
                        expected: Vec::new(),
                        ..w.clone()
                    })
                    .collect()
            })
            .collect();
        &blind
    } else {
        scripts
    };
    let conns: Vec<_> = timed
        .iter()
        .map(|_| daemon.connect())
        .collect::<Result<_, _>>()?;
    let pace = Pace::new(conns.len() + live as usize, cfg.warmup_s, cfg.seconds);

    let (reports, published, slices, proc_stats, rss_mib) = std::thread::scope(|scope| {
        let readers: Vec<_> = conns
            .into_iter()
            .zip(timed)
            .map(|(conn, windows)| {
                let pace = &pace;
                scope.spawn(move || closed_loop(conn, windows, pace))
            })
            .collect();
        let publisher = live.then(|| scope.spawn(|| publish(daemon, fx, &pace)));

        // Nothing in this loop may return early: the clients are waiting
        // at the barrier. Failed /proc reads are carried out as errors.
        let mut slices = Vec::with_capacity(SLICES);
        let mut proc_stats: Result<(u64, u64), String> = Ok((0, 0));
        let mut rss_mib = Vec::new();
        let mut first_status = None;
        let mut before = yardstick.slowdown();
        for step in 0..=SLICES {
            let cpu0 = daemon.cpu_seconds();
            pace.barrier.wait();
            let begin = Instant::now();
            let len = pace.len(step);
            while begin.elapsed() < len {
                std::thread::sleep((len - begin.elapsed()).min(Duration::from_millis(100)));
                if step == 0 {
                    continue;
                }
                match (daemon.status(), &mut proc_stats) {
                    (Ok(now), Ok((peak, ctx))) => {
                        let first = *first_status.get_or_insert(now);
                        rss_mib.push(now.rss_mib);
                        *peak = (*peak).max(now.threads);
                        *ctx = now.ctx_switches.saturating_sub(first.ctx_switches);
                    }
                    (Err(e), stats) => *stats = Err(e),
                    (Ok(_), Err(_)) => {}
                }
            }
            pace.barrier.wait();
            let cpu1 = daemon.cpu_seconds();
            let after = yardstick.slowdown();
            if step > 0 {
                match (cpu0, cpu1) {
                    (Ok(a), Ok(b)) => slices.push(Slice {
                        cpu_s: b - a,
                        slowdown: (before + after) / 2.0,
                    }),
                    (Err(e), _) | (_, Err(e)) => proc_stats = Err(e),
                }
            }
            before = after;
        }
        let reports: Vec<ConnReport> = readers
            .into_iter()
            .map(|r| r.join().expect("client thread panicked"))
            .collect();
        let published = publisher.map(|p| p.join().expect("publisher thread panicked"));
        (reports, published, slices, proc_stats, rss_mib)
    });
    let (threads_peak, ctx_switches) = proc_stats?;

    let mut drive = Drive {
        slices,
        ops: Vec::new(),
        generator_lag_us: 0.0,
        rss_mib,
        threads_peak,
        ctx_switches,
        attempted: reports.iter().map(|c| c.attempted).sum(),
        failed: reports.iter().map(|c| c.failed).sum(),
        errors: reports.iter().filter_map(|c| c.error.clone()).collect(),
        conns: reports,
    };
    match published {
        None => drive.ops = drive.reader().copied().collect(),
        Some(p) => {
            drive.attempted += p.attempted;
            drive.failed += p.failed;
            drive.errors.extend(p.error);
            if !p.lag_us.is_empty() {
                drive.generator_lag_us = median(&p.lag_us);
            }
            drive.ops = p.visible;
            // After the end marker the world stands still: the reader's
            // lines must now match the offline engine byte for byte.
            if drive.errors.is_empty() {
                let mut conn = daemon.connect()?;
                let mut scratch = Vec::new();
                for w in scripts.iter().flatten() {
                    drive.attempted += w.ops as u64;
                    if let Err(e) = round_trip(&mut conn, w, &mut scratch) {
                        drive.failed += w.ops as u64;
                        drive.errors.push(format!("after the end marker: {e}"));
                        break;
                    }
                }
            }
        }
    }
    Ok(drive)
}

/// Removes the run's scratch directory when dropped, so success,
/// failure and panic all leave nothing behind.
pub(crate) struct Scratch(pub PathBuf);

impl Scratch {
    pub(crate) fn new(cfg: &Config, workload: Workload, tag: &str) -> Scratch {
        Scratch(cfg.scratch.join(format!("{}-{tag}", workload.name())))
    }

    pub(crate) fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `workload` end to end with tracing off.
///
/// Time-like metrics are reported in reference time: divided (rates
/// multiplied) by the [`Yardstick`] slowdown read right next to the thing
/// measured — see `calibrate`. The readings as taken go to
/// [`Outcome::raw`] and the notes.
pub fn untraced(cfg: &Config, workload: Workload) -> Result<Outcome, String> {
    let scratch = Scratch::new(cfg, workload, "e2e");
    let yardstick = Yardstick::new();
    let fx = fixture::build(
        workload.fixture(cfg.warmup_s, cfg.seconds),
        cfg.seed,
        scratch.path(),
        &mut Tracer::disabled(),
    )?;
    let scripts = scripts(workload, &fx, cfg.seed)?;
    let launched = launch(cfg, workload, &fx, LAUNCHES, &yardstick)?;
    let drive = drive(cfg, workload, &fx, &launched.daemon, &scripts, &yardstick)?;
    let clean_exit = launched.daemon.shutdown();

    let mut out = Outcome::new();
    out.correct = drive.failed == 0 && drive.errors.is_empty() && clean_exit.is_ok();
    out.attempted = drive.attempted.max(1);
    out.failed = drive.failed;
    out.notes = drive.errors.clone();
    out.notes.extend(clean_exit.err());
    let (Some(qps), Some(p50), Some(p90), Some(cpu)) = (
        drive.qps(),
        drive.p50_us(),
        drive.p90_us(),
        drive.cpu_us_per_query(),
    ) else {
        return Err(format!(
            "{}: nothing completed inside the timed window ({})",
            workload.name(),
            out.notes.join("; ")
        ));
    };
    out.push_reading("qps", qps);
    out.push_reading("p50_us", p50);
    out.push_reading("p90_us", p90);
    out.push_reading("cpu_us_per_query", cpu);
    // The largest of the 10 Hz samples, not `VmHWM`: under `--hot-cap`
    // the resident set steps between plateaus as snapshots hydrate and
    // are evicted, and the kernel's peak counter also keeps any instant
    // at which two hydrations overlapped — ten runs read 91–94 MiB with
    // strays at 80 and 120. A plateau lasts long enough to be sampled, an
    // instant hardly ever; on the hydrated workloads, whose resident set
    // is flat, the two agree.
    out.push(
        "rss_mib",
        drive.rss_mib.iter().copied().fold(f64::NAN, f64::max),
    );
    out.push_reading("setup_s", launched.setup_s);
    out.push(
        "disk_bytes_per_route",
        fx.disk_bytes as f64 / fx.routes as f64,
    );
    out.slowdown = Some(drive.slowdown());
    out.notes.push(format!(
        "as read: qps {:.1}, p50 {:.1} us, p90 {:.1} us, cpu {:.3} us/query, setup {:.4} s; \
         machine slowdown against the reference rate {:.3} while launching, {:.3} over the \
         timed slices",
        qps.raw,
        p50.raw,
        p90.raw,
        cpu.raw,
        launched.setup_s.raw,
        launched.setup_s.raw / launched.setup_s.reference,
        drive.slowdown(),
    ));
    out.notes.push(format!(
        "{} latency samples; highest percentile with >= 10 samples beyond it: {}; \
         generator lag {:.0} us",
        drive.ops(),
        supported_percentile(drive.ops()).map_or("none".to_string(), |p| format!("p{p}")),
        drive.generator_lag_us,
    ));
    Ok(out)
}
