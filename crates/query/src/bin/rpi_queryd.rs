//! `rpi-queryd` — the observatory as a command-line daemon.
//!
//! Loads an [`Experiment`]-generated world (optionally a churn series of
//! snapshots), ingests it into a [`QueryEngine`], and answers queries
//! from stdin, a file, or — with `--listen` — a non-blocking TCP front
//! end ([`rpi_query::serve`]). Every query line is the shared wire
//! grammar of [`rpi_query::proto`], so REPL sessions, batch `--queries`
//! files, TCP clients and the engine's tests all speak one language and
//! get byte-identical answers.
//!
//! The front door has three single sources of truth. [`FLAGS`] is the
//! one list of flags: the usage line, `--help`, the argument loop and
//! every "needs"/"cannot be combined with" rejection are generated from
//! it. [`Options::resolve`] turns the validated flags into a [`World`]
//! (what to answer from: a simulated world, an `rpi-store` archive, or
//! a `--follow`ed delta stream) and an [`Action`] (what to do with it:
//! emit a stream, save an archive, run a query file, serve TCP, or the
//! stdin REPL). And [`serve`] / [`repl`] are the one tail both frozen
//! and live daemons end in — they answer from an [`EngineSource`] and
//! do not care which kind it is.
//!
//! ```text
//! rpi-queryd --archive /tmp/rpi-archive --listen 127.0.0.1:4321 &
//! printf 'route AS1 4.0.0.0/13\nquit\n' | nc 127.0.0.1 4321
//! ```

use std::io::{BufRead, Write as _};
use std::net::TcpListener;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bgp_sim::churn::simulate_series;
use bgp_sim::ChurnConfig;
use net_topology::InternetSize;
use rpi_core::Experiment;
use rpi_query::serve::session::{
    classify_line, fmt_bytes, repl_reply, run_queries, sec_line, tier_line, Line,
};
use rpi_query::{Control, EngineSource, QueryEngine, ServeConfig, Server};

/// The parsed command line. `Default` is every flag absent; the four
/// numeric flags whose absence does not mean zero get their defaults in
/// [`parse_args`].
#[derive(Default)]
struct Options {
    size: Option<InternetSize>,
    seed: u64,
    snapshots: usize,
    queries: Option<String>,
    roas: Option<String>,
    save: Option<String>,
    archive: Option<String>,
    hot_cap: Option<usize>,
    keyframe_every: Option<usize>,
    force: bool,
    listen: Option<String>,
    serve: ServeConfig,
    follow: Option<String>,
    window: usize,
    spill: Option<String>,
    emit_deltas: Option<String>,
    emit_delay_ms: u64,
    metrics_interval: Option<u64>,
    metrics_file: Option<String>,
    slow_query_ms: Option<u64>,
}

/// One command-line flag: everything the daemon knows about it.
struct Flag {
    /// The flag and, unless it is a switch, its value's placeholder —
    /// `"--hot-cap N"` — as usage and `--help` print them.
    spec: &'static str,
    /// The flag is only meaningful next to one of these (empty: always).
    under: &'static [&'static str],
    /// The flag contradicts each of these.
    not_with: &'static [&'static str],
    help: &'static str,
    /// Stores the value (`""` for a switch) or says why it is bad.
    set: Setter,
}

type Setter = fn(&mut Options, &str) -> Result<(), String>;

impl Flag {
    const fn new(spec: &'static str, help: &'static str, set: Setter) -> Flag {
        Flag {
            spec,
            under: &[],
            not_with: &[],
            help,
            set,
        }
    }

    const fn under(mut self, parents: &'static [&'static str]) -> Flag {
        self.under = parents;
        self
    }

    const fn not_with(mut self, others: &'static [&'static str]) -> Flag {
        self.not_with = others;
        self
    }

    fn name(&self) -> &'static str {
        self.spec.split(' ').next().expect("split yields an item")
    }

    fn takes_value(&self) -> bool {
        self.spec.contains(' ')
    }
}

fn set<T>(slot: &mut T, parsed: Result<T, String>) -> Result<(), String> {
    *slot = parsed?;
    Ok(())
}

fn text(v: &str) -> Result<Option<String>, String> {
    Ok(Some(v.to_string()))
}

/// Every flag, in the order usage and `--help` list them.
const FLAGS: &[Flag] = &[
    Flag::new(
        "--size KIND",
        "world size: tiny, small, paper, large (default small)",
        |o, v| set(&mut o.size, v.parse().map(Some)),
    ),
    Flag::new(
        "--seed N",
        "world + churn RNG seed (default 2003)",
        |o, v| set(&mut o.seed, number("--seed", "an unsigned integer", v)),
    ),
    Flag::new(
        "--snapshots N",
        "simulate an N-step daily churn series (default 1),\n\
         ingested diff-aware: copy-on-write overlays sharing\n\
         unchanged subtries (`snapshots` shows the shared-node\n\
         counts)",
        |o, v| set(&mut o.snapshots, positive("--snapshots", "a count", v)),
    ),
    Flag::new(
        "--queries FILE",
        "run the protocol queries in FILE, then exit",
        |o, v| set(&mut o.queries, text(v)),
    ),
    Flag::new(
        "--roas FILE",
        "load route-origin authorizations for `rov` / RPKI state\n\
         (one '<prefix>[-<max-length>] <origin-asn>' per line;\n\
         saved into archives, so --archive restores them)",
        |o, v| set(&mut o.roas, text(v)),
    ),
    Flag::new(
        "--save DIR",
        "write the ingested world as an rpi-store archive, then exit",
        |o, v| set(&mut o.save, text(v)),
    )
    .not_with(&["--queries"]),
    Flag::new(
        "--force",
        "let --save overwrite an existing archive's MANIFEST",
        |o, _| set(&mut o.force, Ok(true)),
    )
    .under(&["--save"]),
    Flag::new(
        "--keyframe-every N",
        "force a self-contained keyframe segment every N\n\
         snapshots, bounding every delta chain (tiered readers\n\
         read a cold snapshot back to its nearest full segment;\n\
         --follow spills with a default of 4)",
        |o, v| {
            set(
                &mut o.keyframe_every,
                positive("--keyframe-every", "a count", v).map(Some),
            )
        },
    )
    .under(&["--save", "--follow"]),
    Flag::new(
        "--archive DIR",
        "cold-start from an archive instead of simulating (the\n\
         `archive` verb lists its segments)",
        |o, v| set(&mut o.archive, text(v)),
    ),
    Flag::new(
        "--hot-cap N",
        "attach the archive tiered instead of hydrating it: map\n\
         every segment (µs/snapshot), answer point queries off\n\
         the mapped delta chains, and keep at most N snapshots\n\
         hydrated under LRU (`snapshots` shows residency)",
        |o, v| {
            set(
                &mut o.hot_cap,
                positive("--hot-cap", "a count", v).map(Some),
            )
        },
    )
    .under(&["--archive"]),
    Flag::new(
        "--listen ADDR",
        "serve the query grammar over TCP on ADDR (e.g. 127.0.0.1:4321)",
        |o, v| set(&mut o.listen, text(v)),
    )
    .not_with(&["--queries", "--save"]),
    Flag::new(
        "--max-conns N",
        "concurrent connection cap (default 64)",
        |o, v| {
            set(
                &mut o.serve.max_conns,
                positive("--max-conns", "a count", v),
            )
        },
    )
    .under(&["--listen"]),
    Flag::new(
        "--write-buf-cap BYTES",
        "per-connection response-buffer cap, past which the\n\
         connection is backpressured (default 262144)",
        |o, v| {
            set(
                &mut o.serve.write_buf_cap,
                positive("--write-buf-cap", "bytes", v),
            )
        },
    )
    .under(&["--listen"]),
    Flag::new(
        "--serve-threads N",
        "serve on N event-loop threads, each accepting from the\n\
         shared listener (default 1)",
        |o, v| {
            set(
                &mut o.serve.serve_threads,
                positive("--serve-threads", "a count", v),
            )
        },
    )
    .under(&["--listen"]),
    Flag::new(
        "--idle-timeout SECS",
        "shed connections with no byte movement for SECS seconds\n\
         (default 30)",
        |o, v| {
            let secs = positive("--idle-timeout", "seconds", v);
            set(&mut o.serve.idle_timeout, secs.map(Duration::from_secs))
        },
    )
    .under(&["--listen"]),
    Flag::new(
        "--follow FILE",
        "serve while ingesting: tail the delta-event stream in\n\
         FILE (what --emit-deltas writes), publish an immutable\n\
         engine epoch per snapshot, and answer queries — over\n\
         --listen or the stdin REPL — from the latest published\n\
         epoch; readers are never blocked by, and never observe,\n\
         a publication in progress",
        |o, v| set(&mut o.follow, text(v)),
    )
    .not_with(&["--queries", "--save", "--archive"]),
    Flag::new(
        "--window N",
        "snapshots kept hydrated in memory (default 4); older\n\
         ones spill to segments and stay queryable cold",
        |o, v| set(&mut o.window, positive("--window", "a count", v)),
    )
    .under(&["--follow"]),
    Flag::new(
        "--spill DIR",
        "spill segment directory (default FILE.spill)",
        |o, v| set(&mut o.spill, text(v)),
    )
    .under(&["--follow"]),
    Flag::new(
        "--emit-deltas FILE",
        "simulate the churn series and write it to FILE as a\n\
         delta-event stream for --follow, then exit",
        |o, v| set(&mut o.emit_deltas, text(v)),
    )
    .not_with(&["--follow", "--listen", "--queries", "--save", "--archive"]),
    Flag::new(
        "--emit-delay-ms MS",
        "pause MS milliseconds before each snapshot frame, so a\n\
         concurrent --follow daemon ingests a genuinely growing\n\
         file (default 0)",
        |o, v| {
            set(
                &mut o.emit_delay_ms,
                number("--emit-delay-ms", "milliseconds", v),
            )
        },
    )
    .under(&["--emit-deltas"]),
    Flag::new(
        "--metrics-interval SECS",
        "every SECS seconds append one JSON line of\n\
         interval-diffed metrics (counter deltas, current gauges,\n\
         interval latency percentiles) to stderr, and track the\n\
         peak per-interval query rate reported on exit",
        |o, v| {
            set(
                &mut o.metrics_interval,
                positive("--metrics-interval", "seconds", v).map(Some),
            )
        },
    )
    .under(&["--listen", "--follow"]),
    Flag::new(
        "--metrics-file FILE",
        "write the interval JSON lines to FILE (append) instead\n\
         of stderr",
        |o, v| set(&mut o.metrics_file, text(v)),
    )
    .under(&["--metrics-interval"]),
    Flag::new(
        "--slow-query-ms N",
        "record query segments slower than N ms in a bounded\n\
         in-memory ring; the `slowlog` REPL verb dumps it",
        |o, v| {
            set(
                &mut o.slow_query_ms,
                positive("--slow-query-ms", "milliseconds", v).map(Some),
            )
        },
    ),
];

/// What `--help` says after the flag list.
const HELP_EPILOGUE: &str = "\
the `metrics` verb (stdin or TCP) scrapes the full Prometheus-style
exposition; `metrics names` prints just the name/kind schema and `stats`
a human per-verb latency table.

serve example (the same grammar, line by line; `quit` ends a connection,
`shutdown` stops the server and prints its stats):
  rpi-queryd --archive /tmp/rpi-archive --listen 127.0.0.1:4321 &
  printf 'route AS1 4.0.0.0/13\\nquit\\n' | nc 127.0.0.1 4321";

/// The one-line synopsis: every flag bracketed, a flag that needs
/// another nested inside each flag it can ride on.
fn usage() -> String {
    fn item(flag: &Flag, out: &mut String) {
        out.push_str(" [");
        out.push_str(flag.spec);
        for child in FLAGS.iter().filter(|c| c.under.contains(&flag.name())) {
            item(child, out);
        }
        out.push(']');
    }
    let mut out = String::from("usage: rpi-queryd");
    for flag in FLAGS.iter().filter(|f| f.under.is_empty()) {
        item(flag, &mut out);
    }
    out
}

/// The `--help` flag list: one entry per row, help text in a column.
fn flag_help() -> String {
    let mut out = String::from("flags:\n");
    for flag in FLAGS {
        for (i, line) in flag.help.lines().enumerate() {
            let head = if i == 0 { flag.spec } else { "" };
            out.push_str(&format!("  {head:<25}{line}\n"));
        }
        for (relation, others) in [("with", flag.under), ("not with", flag.not_with)] {
            if !others.is_empty() {
                out.push_str(&format!(
                    "  {:<25}({relation} {})\n",
                    "",
                    others.join(" or ")
                ));
            }
        }
    }
    out
}

/// Parses and validates the command line: values through each row's
/// setter, combinations through its `under` / `not_with`.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        seed: 2003,
        snapshots: 1,
        window: rpi_query::LiveOptions::default().window,
        ..Options::default()
    };
    let mut given: Vec<&str> = Vec::new();
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            println!("{}\n\n{}\n{HELP_EPILOGUE}", usage(), flag_help());
            std::process::exit(0);
        }
        let flag = FLAGS
            .iter()
            .find(|f| f.name() == arg)
            .ok_or_else(|| format!("unknown argument '{arg}'\n{}", usage()))?;
        let value = if flag.takes_value() {
            args.next()
                .ok_or_else(|| format!("{arg} needs a value\n{}", usage()))?
        } else {
            String::new()
        };
        (flag.set)(&mut opts, &value)?;
        given.push(flag.name());
    }
    for flag in FLAGS.iter().filter(|f| given.contains(&f.name())) {
        let name = flag.name();
        if !flag.under.is_empty() && !flag.under.iter().any(|p| given.contains(p)) {
            return Err(format!("{name} needs {}", flag.under.join(" or ")));
        }
        if let Some(other) = flag.not_with.iter().find(|o| given.contains(o)) {
            return Err(format!("{name} cannot be combined with {other}"));
        }
    }
    Ok(opts)
}

/// Parses the value of a numeric flag; `noun` is what the flag counts
/// ("a count", "seconds", …).
fn number<T: std::str::FromStr>(name: &str, noun: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{name} wants {noun}, got '{v}'"))
}

/// [`number`] for a flag that must be at least 1.
fn positive<T>(name: &str, noun: &str, v: &str) -> Result<T, String>
where
    T: std::str::FromStr + Default + PartialEq,
{
    let n: T = number(name, noun, v)?;
    if n == T::default() {
        return Err(format!("{name} must be at least 1"));
    }
    Ok(n)
}

/// What the daemon answers from.
enum World<'a> {
    /// The `--size`/`--seed`/`--snapshots` world, simulated and ingested.
    Simulate,
    /// An `rpi-store` archive, hydrated or (with a hot cap) tiered.
    Archive {
        dir: &'a str,
        hot_cap: Option<usize>,
    },
    /// A delta-event stream a writer thread tails, publishing an engine
    /// epoch per snapshot.
    Follow {
        path: &'a str,
        window: usize,
        spill: String,
    },
}

/// What the daemon does with its world.
#[derive(Clone, Copy)]
enum Action<'a> {
    /// Write the simulated churn series to a stream file, then exit.
    EmitDeltas(&'a str),
    /// Write the world as an archive, then exit.
    Save(&'a str),
    /// Run a query file, then exit.
    Queries(&'a str),
    /// Serve TCP until a `shutdown` line.
    Listen(&'a str),
    /// Answer stdin line by line.
    Repl,
}

impl Options {
    /// The (world, action) the flags ask for. Pure: [`parse_args`] has
    /// already rejected every contradictory combination, so precedence
    /// here never hides a flag.
    fn resolve(&self) -> (World<'_>, Action<'_>) {
        let world = if let Some(path) = &self.follow {
            let spill = self.spill.clone();
            World::Follow {
                path,
                window: self.window,
                spill: spill.unwrap_or_else(|| format!("{path}.spill")),
            }
        } else if let Some(dir) = &self.archive {
            World::Archive {
                dir,
                hot_cap: self.hot_cap,
            }
        } else {
            World::Simulate
        };
        let action = if let Some(path) = &self.emit_deltas {
            Action::EmitDeltas(path)
        } else if let Some(dir) = &self.save {
            Action::Save(dir)
        } else if let Some(path) = &self.queries {
            Action::Queries(path)
        } else if let Some(addr) = &self.listen {
            Action::Listen(addr)
        } else {
            Action::Repl
        };
        (world, action)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("rpi-queryd: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let opts = parse_args(std::env::args().skip(1))?;
    let (world, action) = opts.resolve();

    // Fail fast on bad inputs *before* the expensive world build / archive
    // load: a missing query file, a malformed ROA line (same `path:line:`
    // spelling as `--queries` execution errors), an unbindable listen
    // address or an unwritable metrics sink is a one-line error in
    // milliseconds, never a panic and never minutes of wasted ingest.
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let query_text = match action {
        Action::Queries(path) => read(path)?,
        _ => String::new(),
    };
    let roas = match &opts.roas {
        Some(path) => Some(
            rpi_sec::RoaTable::parse(&read(path)?)
                .map_err(|e| format!("{path}:{}: {}", e.line, e.msg))?,
        ),
        None => None,
    };
    let listener = match action {
        Action::Listen(addr) => Some(
            TcpListener::bind(addr).map_err(|e| format!("--listen: cannot bind {addr}: {e}"))?,
        ),
        _ => None,
    };
    let metrics_file = match &opts.metrics_file {
        Some(path) => Some(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("--metrics-file: cannot open {path}: {e}"))?,
        ),
        None => None,
    };

    // The engine every action but `--emit-deltas` starts from, with the
    // one application of `--roas` and `--slow-query-ms`.
    let build = || -> Result<QueryEngine, String> {
        let mut engine = match &world {
            World::Simulate => simulate(&opts),
            World::Archive { dir, hot_cap } => cold_start(dir, *hot_cap)?,
            // The base every published epoch derives from.
            World::Follow { .. } => QueryEngine::default(),
        };
        if let (Some(table), Some(path)) = (roas, &opts.roas) {
            eprintln!("loaded {} ROAs from {path}", table.len());
            engine.set_roas(table);
        }
        if let Some(ms) = opts.slow_query_ms {
            engine.metrics().set_slow_threshold_ms(ms);
        }
        Ok(engine)
    };
    match action {
        Action::EmitDeltas(path) => emit_deltas(&opts, path),
        Action::Save(dir) => save(&mut build()?, dir, &opts),
        Action::Queries(path) => Ok(run_file(&build()?, path, &query_text)),
        Action::Listen(_) | Action::Repl => {
            let engine = build()?;
            // Raised once the session below ends; the background threads
            // poll it.
            let stop = Arc::new(AtomicBool::new(false));
            // Live, a writer thread tails the stream and publishes an
            // engine epoch per snapshot; the session answers every batch
            // from the latest published one.
            let (source, writer) = match &world {
                World::Follow {
                    path,
                    window,
                    spill,
                } => {
                    let live = rpi_query::LiveOptions {
                        window: *window,
                        keyframe_every: opts
                            .keyframe_every
                            .unwrap_or(rpi_query::LiveOptions::default().keyframe_every),
                    };
                    let handle = rpi_query::LiveHandle::new(engine);
                    let writer = follow(Arc::clone(&handle), path, spill, live, Arc::clone(&stop));
                    (EngineSource::from(handle), Some(writer))
                }
                _ => (EngineSource::from(Arc::new(engine)), None),
            };
            let emitter = opts.metrics_interval.map(|secs| {
                let interval = Duration::from_secs(secs);
                emit_metrics(source.clone(), interval, metrics_file, Arc::clone(&stop))
            });
            let served = match listener {
                Some(listener) => serve(&source, listener, &opts),
                None => {
                    repl(&source);
                    Ok(())
                }
            };
            stop.store(true, Ordering::Release);
            if let Some(emitter) = emitter {
                let _ = emitter.join();
            }
            // A failed ingest was reported when it happened; it still
            // fails the run.
            let ingested = match writer.map(std::thread::JoinHandle::join) {
                None | Some(Ok(true)) => Ok(ExitCode::SUCCESS),
                Some(Ok(false)) => Ok(ExitCode::FAILURE),
                Some(Err(_)) => Err("--follow: the writer thread panicked".to_string()),
            };
            served.and(ingested)
        }
    }
}

/// Announces and builds the `--size`/`--seed` world every simulating
/// mode starts from.
fn build_world(opts: &Options) -> Experiment {
    let size = opts.size.unwrap_or(InternetSize::Small);
    eprintln!(
        "building {size:?} world (seed {}, {} snapshot{}) …",
        opts.seed,
        opts.snapshots,
        if opts.snapshots == 1 { "" } else { "s" }
    );
    Experiment::standard(size, opts.seed)
}

/// The `--snapshots`-step daily churn series over a built world.
fn churn_series(opts: &Options, e: &Experiment) -> bgp_sim::SnapshotSeries {
    let cfg = ChurnConfig {
        steps: opts.snapshots,
        ..ChurnConfig::daily(opts.seed ^ 0xC0FFEE)
    };
    simulate_series(&e.graph, &e.truth, &e.spec, &cfg)
}

/// [`World::Simulate`]: build the world, ingest it (or its churn
/// series), report.
fn simulate(opts: &Options) -> QueryEngine {
    let t0 = Instant::now();
    let e = build_world(opts);
    let mut engine = QueryEngine::default();
    if opts.snapshots > 1 {
        let series = churn_series(opts, &e);
        engine.ingest_series_incremental(&series, &e.inferred_graph);
    } else {
        engine.ingest_experiment(&e, "t0");
    }
    eprintln!(
        "ready in {:.2?}: {} snapshots, interned {} ASNs",
        t0.elapsed(),
        engine.snapshot_count(),
        engine.interned_asns(),
    );
    if opts.snapshots > 1 {
        let stats = engine.sharing_stats();
        eprintln!(
            "incremental ingest: {}/{} trie nodes shared with predecessors ({:.1}%, {} KiB)",
            stats.shared_nodes,
            stats.total_nodes,
            100.0 * stats.shared_ratio(),
            stats.shared_bytes / 1024,
        );
    }
    engine
}

/// [`World::Archive`]: load (or, with a hot cap, tier-attach) the
/// archive, report.
fn cold_start(dir: &str, hot_cap: Option<usize>) -> Result<QueryEngine, String> {
    let t0 = Instant::now();
    let engine = match hot_cap {
        Some(cap) => QueryEngine::load_archive_tiered(Path::new(dir), cap),
        None => QueryEngine::load_archive(Path::new(dir)),
    }
    .map_err(|e| format!("--archive: {e}"))?;
    let elapsed = t0.elapsed();
    let disk = engine.archive_info().map_or(0, |a| a.total_bytes());
    eprintln!(
        "cold-started from {dir} in {:.2?}: {} snapshots ({} on disk), interned {} ASNs",
        elapsed,
        engine.snapshot_count(),
        fmt_bytes(disk as u64),
        engine.interned_asns(),
    );
    if let Some(stats) = engine.tier_stats() {
        eprintln!(
            "tier-attached: {} segments mapped in {:.1} µs/snapshot (hot cap {}); \
             point queries read the mapped delta chains",
            stats.snapshots,
            elapsed.as_micros() as f64 / stats.snapshots.max(1) as f64,
            stats.hot_cap,
        );
    }
    Ok(engine)
}

/// [`Action::EmitDeltas`]: simulate, then stream — header first, one
/// length-prefixed frame per snapshot (paced by `--emit-delay-ms`), the
/// end marker last. Every write is flushed, and frames are
/// length-prefixed, so to a concurrently tailing `--follow` daemon a
/// partial tail parses as "need more bytes", never as a frame.
fn emit_deltas(opts: &Options, path: &str) -> Result<ExitCode, String> {
    let t0 = Instant::now();
    let e = build_world(opts);
    let series = churn_series(opts, &e);
    let mut file = std::fs::File::create(path)
        .map_err(|err| format!("--emit-deltas: cannot create {path}: {err}"))?;
    let mut write = |bytes: &[u8]| -> Result<(), String> {
        file.write_all(bytes)
            .and_then(|()| file.flush())
            .map_err(|err| format!("--emit-deltas: writing {path}: {err}"))
    };
    let (mut sw, header) = bgp_sim::StreamWriter::open(&e.inferred_graph);
    write(&header)?;
    for (i, (label, out)) in series.labels.iter().zip(&series.snapshots).enumerate() {
        if opts.emit_delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(opts.emit_delay_ms));
        }
        write(&sw.frame(label, out, None))?;
        eprintln!("emit: wrote snapshot {} ({label})", i + 1);
    }
    write(&sw.end())?;
    let emitted = series.labels.len();
    eprintln!(
        "emitted {emitted} snapshot{} to {path} in {:.2?}",
        if emitted == 1 { "" } else { "s" },
        t0.elapsed(),
    );
    Ok(ExitCode::SUCCESS)
}

/// [`Action::Save`]: serialize the world into an archive, report.
fn save(engine: &mut QueryEngine, dir: &str, opts: &Options) -> Result<ExitCode, String> {
    let t0 = Instant::now();
    let options = rpi_query::SaveOptions {
        keyframe_every: opts.keyframe_every,
    };
    let manifest = engine
        .save_archive_with(Path::new(dir), opts.force, options)
        .map_err(|e| match e {
            rpi_store::StoreError::AlreadyExists { .. } => format!("--save: {e} (use --force)"),
            e => format!("--save: {e}"),
        })?;
    let count = |kind| manifest.segments.iter().filter(|s| s.kind == kind).count();
    let full = count(rpi_store::SegmentKind::Full);
    let delta = count(rpi_store::SegmentKind::Delta);
    let roa = match count(rpi_store::SegmentKind::Roa) {
        0 => String::new(),
        roa => format!(", {roa} roa"),
    };
    let kf = match manifest.segments.iter().filter(|s| s.is_keyframe()).count() {
        0 => String::new(),
        keyframes => format!("; {keyframes} keyframes"),
    };
    eprintln!(
        "saved archive to {dir} in {:.2?}: {} segments (1 symbols, {full} full, {delta} delta{roa}{kf}), {} on disk",
        t0.elapsed(),
        manifest.segments.len(),
        fmt_bytes(manifest.total_bytes()),
    );
    Ok(ExitCode::SUCCESS)
}

/// The `--follow` writer thread: tails the stream, publishing an engine
/// epoch per snapshot, until the end marker or `stop`. Returns whether
/// ingest ran clean.
fn follow(
    handle: Arc<rpi_query::LiveHandle>,
    path: &str,
    spill: &str,
    live: rpi_query::LiveOptions,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<bool> {
    eprintln!(
        "live: following {path} (window {}, keyframe every {}, spill {spill})",
        live.window, live.keyframe_every,
    );
    let (path, spill) = (path.to_string(), spill.to_string());
    std::thread::spawn(move || {
        // The generator may not have created the file yet.
        while !Path::new(&path).exists() {
            if stop.load(Ordering::Acquire) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let result = rpi_query::follow_stream(
            Path::new(&path),
            handle,
            Path::new(&spill),
            live,
            Duration::from_millis(2),
            &stop,
            |n, label| eprintln!("live: published snapshot {n} ({label})"),
        );
        // Reported when it happens: either way the daemon keeps serving
        // the last published world.
        match &result {
            Ok(report) if report.end == rpi_query::FollowEnd::EndMarker => eprintln!(
                "live: reached end of stream after {} snapshots; serving the final world",
                report.snapshots
            ),
            Ok(_) => {}
            Err(e) => eprintln!("rpi-queryd: --follow: {e}"),
        }
        result.is_ok()
    })
}

/// [`Action::Listen`], over a frozen or a live world alike: run the
/// accept loop until a `shutdown` control line (SIGINT-free shutdown),
/// then report the stats snapshot and the engine's tier/security state.
fn serve(source: &EngineSource, listener: TcpListener, opts: &Options) -> Result<(), String> {
    let cfg = &opts.serve;
    let server = Server::with_listener(source.clone(), listener, cfg.clone())
        .map_err(|e| format!("--listen: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("--listen: {e}"))?;
    // The serve smokes and the benchmark harness poll for `serving on`.
    eprintln!(
        "serving on {addr} ({} max conns, {} write-buf cap, {} backend, {} serve thread{}); \
         a 'shutdown' line stops the server",
        cfg.max_conns,
        fmt_bytes(cfg.write_buf_cap as u64),
        if rpi_epoll::SUPPORTED {
            "epoll"
        } else {
            "sweep"
        },
        cfg.serve_threads,
        if cfg.serve_threads == 1 { "" } else { "s" },
    );
    let stats = server.run().map_err(|e| format!("serve: {e}"))?;
    let engine = source.current();
    eprintln!("{}", stats.render());
    if let Some(tier) = tier_line(&engine) {
        eprintln!("{tier}");
    }
    eprintln!("{}", sec_line(&engine));
    // The lifetime average flattens bursts, so when the interval emitter
    // ran, the fastest single interval it observed is reported too.
    if let Some(secs) = opts.metrics_interval {
        eprintln!(
            "peak interval rate {:.0} queries/s over any {secs}s window (lifetime average {:.0} queries/s)",
            engine.metrics().peak_interval_qps(),
            stats.queries_per_sec(),
        );
    }
    Ok(())
}

/// [`Action::Repl`]: stdin, line by line. Each line loads the epoch
/// current at that moment, so against a live world one line's answer is
/// one consistent snapshot of the published state.
fn repl(source: &EngineSource) {
    let prompt = || {
        print!("> ");
        let _ = std::io::stdout().flush();
    };
    prompt();
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        match run_line(&source.current(), &line) {
            Outcome::Quit => break,
            Outcome::Ok => {}
            Outcome::Err(e) => println!("error: {e}"),
        }
        prompt();
    }
}

/// The `--metrics-interval` emitter thread: every tick it syncs the
/// current engine's derived gauges, snapshots the registry (one registry
/// across epochs), and appends one interval-diffed JSON line (counter
/// deltas, current gauges, interval latency percentiles) to stderr or the
/// `--metrics-file`. Each interval's query rate feeds
/// [`rpi_query::QueryMetrics::note_interval_qps`].
fn emit_metrics(
    source: EngineSource,
    interval: Duration,
    mut file: Option<std::fs::File>,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let metrics = source.current().metrics_arc();
        let sample = || {
            source.current().sync_obs();
            let snap = metrics.registry().snapshot();
            (snap, metrics.total_queries(), Instant::now())
        };
        let (mut prev, mut prev_queries, mut prev_at) = sample();
        loop {
            // Sleep in short slices so shutdown stays prompt under long
            // intervals.
            while Instant::now() < prev_at + interval {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            let (snap, queries, at) = sample();
            let elapsed = at - prev_at;
            metrics.note_interval_qps(
                queries.saturating_sub(prev_queries) as f64 / elapsed.as_secs_f64().max(1e-9),
            );
            let line = snap.delta_json(&prev, elapsed);
            (prev, prev_queries, prev_at) = (snap, queries, at);
            match &mut file {
                Some(f) => {
                    let _ = writeln!(f, "{line}");
                    let _ = f.flush();
                }
                None => eprintln!("{line}"),
            }
        }
    })
}

/// [`Action::Queries`]: blank lines and comments are skipped, REPL
/// commands work, parse and execution errors are reported to stderr
/// with their 1-based line number. Exits FAILURE if any line failed.
fn run_file(engine: &QueryEngine, path: &str, text: &str) -> ExitCode {
    let mut failed = false;
    for (i, line) in text.lines().enumerate() {
        match run_line(engine, line) {
            Outcome::Quit => break,
            Outcome::Ok => {}
            Outcome::Err(e) => {
                eprintln!("rpi-queryd: {path}:{}: {e}", i + 1);
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

enum Outcome {
    Ok,
    Err(String),
    Quit,
}

/// Executes one line through the same session semantics the TCP front
/// end uses ([`rpi_query::serve::session`]) — the stdin and network
/// paths must answer byte-identically, and sharing the classification
/// and rendering is what guarantees it.
fn run_line(engine: &QueryEngine, line: &str) -> Outcome {
    match classify_line(line) {
        Line::Skip => Outcome::Ok,
        // In a local session `shutdown` has nothing more to stop than
        // the session itself.
        Line::Control(Control::Quit) | Line::Control(Control::Shutdown) => Outcome::Quit,
        Line::Control(Control::Ping) => {
            println!("pong");
            Outcome::Ok
        }
        Line::Repl(cmd) => {
            println!("{}", repl_reply(engine, cmd));
            Outcome::Ok
        }
        // A run of one through the shared accounting, so `stats`,
        // `metrics` and `slowlog` are live in every session shape.
        Line::Query(req) => run_queries(
            engine,
            std::slice::from_ref(&req),
            line.trim(),
            |mut answers| match answers.pop().expect("one answer per query") {
                Ok(resp) => {
                    let mut out = Vec::new();
                    rpi_query::write_response(&mut out, &req, &resp);
                    std::io::stdout()
                        .lock()
                        .write_all(&out)
                        .expect("failed printing to stdout");
                    Outcome::Ok
                }
                Err(e) => Outcome::Err(e.to_string()),
            },
        ),
        Line::Bad(msg) => Outcome::Err(msg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str) -> &'static Flag {
        FLAGS
            .iter()
            .find(|f| f.name() == name)
            .unwrap_or_else(|| panic!("{name} names no row"))
    }

    #[test]
    fn flag_names_are_unique_and_references_name_rows() {
        for (i, flag) in FLAGS.iter().enumerate() {
            let name = flag.name();
            assert!(name.starts_with("--"), "{name}");
            assert!(flag.spec.split(' ').count() <= 2, "{}", flag.spec);
            assert!(
                FLAGS[..i].iter().all(|f| f.name() != name),
                "{name} is listed twice"
            );
            for other in flag.under.iter().chain(flag.not_with) {
                assert_ne!(row(other).name(), name, "{name} refers to itself");
            }
        }
    }

    /// How often a flag must appear in usage: once at top level, else
    /// once inside every appearance of every flag it rides on.
    fn expected_appearances(flag: &Flag) -> usize {
        if flag.under.is_empty() {
            return 1;
        }
        flag.under
            .iter()
            .map(|p| expected_appearances(row(p)))
            .sum()
    }

    #[test]
    fn usage_lists_every_flag_once_per_parent() {
        let usage = usage();
        assert!(usage.starts_with("usage: rpi-queryd [--size KIND] [--seed N]"));
        for flag in FLAGS {
            // `[--save DIR` must not also count `[--save-…`: the spec is
            // followed by a nested flag or the closing bracket.
            let head = format!("[{}", flag.spec);
            let n = usage
                .match_indices(&head)
                .filter(|(at, _)| usage[at + head.len()..].starts_with([' ', ']']))
                .count();
            assert_eq!(n, expected_appearances(flag), "{} in: {usage}", flag.spec);
        }
        assert_eq!(usage.matches('[').count(), usage.matches(']').count());
        assert!(usage.contains("[--follow FILE [--keyframe-every N] [--window N]"));
    }

    #[test]
    fn help_lists_every_flag_exactly_once() {
        let help = flag_help();
        for flag in FLAGS {
            let n = help
                .lines()
                .filter(|l| {
                    l.strip_prefix("  ").and_then(|l| l.split(' ').next()) == Some(flag.name())
                })
                .count();
            assert_eq!(n, 1, "{} in --help", flag.name());
        }
        assert_eq!(help.lines().filter(|l| l.starts_with("  --")).count(), 23);
    }

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    /// The flag with a value its setter accepts.
    fn with_value(flag: &Flag) -> Vec<&'static str> {
        match flag.spec {
            "--size KIND" => vec!["--size", "tiny"],
            _ if flag.takes_value() => vec![flag.name(), "7"],
            _ => vec![flag.name()],
        }
    }

    /// [`with_value`] plus a flag it rides on (which may need its own).
    fn with_parents(flag: &Flag) -> Vec<&'static str> {
        let mut args = with_value(flag);
        if let Some(parent) = flag.under.first() {
            args.extend(with_parents(row(parent)));
        }
        args
    }

    /// Each flag alone fails exactly when it rides on another; next to
    /// a parent it passes; next to an excluded flag it fails.
    #[test]
    fn every_declared_pair_is_enforced() {
        for flag in FLAGS {
            let name = flag.name();
            let alone = parse(&with_value(flag)).err();
            match flag.under {
                [] => assert_eq!(alone, None, "{name} alone"),
                parents => assert_eq!(
                    alone,
                    Some(format!("{name} needs {}", parents.join(" or ")))
                ),
            }
            let ok = with_parents(flag);
            assert_eq!(parse(&ok).err(), None, "{ok:?}");
            for other in flag.not_with {
                let mut args = ok.clone();
                args.extend(with_value(row(other)));
                assert_eq!(
                    parse(&args).err(),
                    Some(format!("{name} cannot be combined with {other}")),
                    "{args:?}"
                );
            }
        }
    }

    #[test]
    fn resolution_follows_the_flags() {
        let opts = parse(&["--follow", "s", "--listen", "a"]).unwrap();
        let (world, action) = opts.resolve();
        assert!(matches!(action, Action::Listen("a")));
        assert!(
            matches!(&world, World::Follow { path: "s", window: 4, spill } if spill == "s.spill")
        );
        let opts = parse(&["--archive", "d", "--hot-cap", "2", "--queries", "q"]).unwrap();
        let (world, action) = opts.resolve();
        assert!(matches!(action, Action::Queries("q")));
        assert!(matches!(
            world,
            World::Archive {
                dir: "d",
                hot_cap: Some(2)
            }
        ));
        let opts = parse(&["--archive", "d", "--save", "e"]).unwrap();
        assert!(matches!(
            opts.resolve(),
            (World::Archive { .. }, Action::Save("e"))
        ));
        let opts = parse(&["--emit-deltas", "f"]).unwrap();
        assert!(matches!(
            opts.resolve(),
            (World::Simulate, Action::EmitDeltas("f"))
        ));
        assert!(matches!(
            parse(&[]).unwrap().resolve(),
            (World::Simulate, Action::Repl)
        ));
    }
}
