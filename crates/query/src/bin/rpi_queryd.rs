//! `rpi-queryd` — the observatory as a command-line daemon.
//!
//! Loads an [`Experiment`]-generated world (optionally a churn series of
//! snapshots), ingests it into a [`QueryEngine`], and answers queries
//! from stdin, a file, or — with `--listen` — a non-blocking TCP front
//! end ([`rpi_query::serve`]). Every query line is the shared wire
//! grammar of [`rpi_query::proto`], so REPL sessions, batch `--queries`
//! files, TCP clients and the engine's tests all speak one language and
//! get byte-identical answers. `rpi-queryd --help` lists every flag.
//!
//! `--incremental` ingests the churn series diff-aware: each snapshot
//! after the first is a copy-on-write overlay sharing unchanged shard
//! subtries with its predecessor (the `snapshots` REPL command shows the
//! per-snapshot shared-node counts).
//!
//! `--save DIR` serializes the ingested world into an `rpi-store`
//! archive and exits; `--archive DIR` cold-starts from one instead of
//! re-simulating (the `archive` REPL command lists its segments).
//!
//! `--listen ADDR` serves the same grammar over TCP, e.g.:
//!
//! ```text
//! rpi-queryd --archive /tmp/rpi-archive --listen 127.0.0.1:4321 &
//! printf 'route AS1 4.0.0.0/13\nquit\n' | nc 127.0.0.1 4321
//! ```

use std::io::{BufRead, Write as _};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use bgp_sim::churn::simulate_series;
use bgp_sim::ChurnConfig;
use net_topology::InternetSize;
use rpi_core::Experiment;
use rpi_query::serve::session::{classify_line, fmt_bytes, repl_reply, run_queries, Line};
use rpi_query::serve::ServeStats;
use rpi_query::{Control, PollBackend, QueryEngine, ServeConfig, Server};

struct Options {
    size: InternetSize,
    seed: u64,
    snapshots: usize,
    incremental: bool,
    shards: usize,
    queries: Option<String>,
    roas: Option<String>,
    save: Option<String>,
    archive: Option<String>,
    hot_cap: Option<usize>,
    keyframe_every: Option<usize>,
    force: bool,
    listen: Option<String>,
    max_conns: Option<usize>,
    write_buf_cap: Option<usize>,
    backend: Option<PollBackend>,
    serve_threads: Option<usize>,
    idle_timeout_secs: Option<u64>,
    follow: Option<String>,
    window: Option<usize>,
    spill: Option<String>,
    emit_deltas: Option<String>,
    emit_delay_ms: u64,
    metrics_interval: Option<u64>,
    metrics_file: Option<String>,
    slow_query_ms: Option<u64>,
}

fn usage() -> &'static str {
    "usage: rpi-queryd [--size tiny|small|paper|large] [--seed N] \
     [--snapshots N] [--incremental] [--shards N] [--queries FILE] \
     [--roas FILE] \
     [--save DIR [--force] [--keyframe-every N]] \
     [--archive DIR [--hot-cap N]] \
     [--listen ADDR [--max-conns N] [--write-buf-cap BYTES] \
      [--backend sweep|epoll|auto] [--serve-threads N] [--idle-timeout SECS]] \
     [--follow FILE [--window N] [--spill DIR]] \
     [--emit-deltas FILE [--emit-delay-ms MS]] \
     [--metrics-interval SECS [--metrics-file FILE]] [--slow-query-ms N]"
}

fn flag_help() -> &'static str {
    "flags:
  --size KIND          world size: tiny, small, paper, large (default small)
  --seed N             world + churn RNG seed (default 2003)
  --snapshots N        simulate an N-step daily churn series (default 1)
  --incremental        ingest the series diff-aware (copy-on-write overlays)
  --shards N           shards per vantage table (default 8)
  --queries FILE       run the protocol queries in FILE, then exit
  --roas FILE          load route-origin authorizations for `rov` / RPKI state
                       (one '<prefix>[-<max-length>] <origin-asn>' per line;
                       saved into archives, so --archive restores them)
  --save DIR           write the ingested world as an rpi-store archive, then exit
  --keyframe-every N   save: force a self-contained keyframe segment every N
                       snapshots, bounding every delta chain (tiered readers
                       hydrate a cold snapshot from its nearest keyframe)
  --force              let --save overwrite an existing archive's MANIFEST
  --archive DIR        cold-start from an archive instead of simulating
  --hot-cap N          attach the archive tiered instead of hydrating it:
                       map every segment (µs/snapshot), answer point queries
                       zero-copy off the cold mappings, and keep at most N
                       snapshots hydrated under LRU (`snapshots` shows
                       residency)
  --listen ADDR        serve the query grammar over TCP on ADDR (e.g. 127.0.0.1:4321)
  --max-conns N        serve: concurrent connection cap (default 64)
  --write-buf-cap B    serve: per-connection response-buffer cap in bytes,
                       past which the connection is backpressured (default 262144)
  --backend KIND       serve: readiness backend — epoll (kernel notification,
                       Linux; idle connections cost nothing) or sweep (portable
                       attempt-and-WouldBlock fallback); auto picks epoll where
                       supported (default: $RPI_SERVE_BACKEND, else auto)
  --serve-threads N    serve: shard connections across N event-loop threads
                       behind a dedicated acceptor (round-robin handoff); 1
                       keeps the listener inline in a single loop (default 1)
  --idle-timeout SECS  serve: shed connections with no byte movement for SECS
                       seconds (default 30)
  --follow FILE        serve while ingesting: tail the structured delta-event
                       stream in FILE (what --emit-deltas writes), publish an
                       immutable engine epoch per snapshot, and answer queries
                       — over --listen or the stdin REPL — from the latest
                       published epoch; readers are never blocked by, and never
                       observe, a publication in progress
  --window N           follow: snapshots kept hydrated in memory (default 4);
                       older ones spill to segments and stay queryable cold
  --spill DIR          follow: spill segment directory (default FILE.spill)
  --emit-deltas FILE   simulate the churn series and write it to FILE as a
                       delta-event stream for --follow, then exit
  --emit-delay-ms MS   emit-deltas: pause MS milliseconds before each snapshot
                       frame, so a concurrent --follow daemon ingests a
                       genuinely growing file (default 0)
  --metrics-interval S serve/follow: every S seconds append one JSON line of
                       interval-diffed metrics (counter deltas, current gauges,
                       interval latency percentiles) to stderr, and track the
                       peak per-interval query rate reported on exit
  --metrics-file FILE  write the interval JSON lines to FILE (append) instead
                       of stderr; needs --metrics-interval
  --slow-query-ms N    record query segments slower than N ms in a bounded
                       in-memory ring; the `slowlog` REPL verb dumps it

the `metrics` verb (stdin or TCP) scrapes the full Prometheus-style
exposition; `metrics names` prints just the name/kind schema and `stats`
a human per-verb latency table.

serve example (the same grammar, line by line; `quit` ends a connection,
`shutdown` stops the server and prints its stats):
  rpi-queryd --archive /tmp/rpi-archive --listen 127.0.0.1:4321 &
  printf 'route AS1 4.0.0.0/13\\nquit\\n' | nc 127.0.0.1 4321"
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        size: InternetSize::Small,
        seed: 2003,
        snapshots: 1,
        incremental: false,
        shards: 8,
        queries: None,
        roas: None,
        save: None,
        archive: None,
        hot_cap: None,
        keyframe_every: None,
        force: false,
        listen: None,
        max_conns: None,
        write_buf_cap: None,
        backend: None,
        serve_threads: None,
        idle_timeout_secs: None,
        follow: None,
        window: None,
        spill: None,
        emit_deltas: None,
        emit_delay_ms: 0,
        metrics_interval: None,
        metrics_file: None,
        slow_query_ms: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "--size" => opts.size = value("--size")?.parse()?,
            "--seed" => {
                let v = value("--seed")?;
                opts.seed = v
                    .parse()
                    .map_err(|_| format!("--seed wants an unsigned integer, got '{v}'"))?;
            }
            "--snapshots" => opts.snapshots = positive(&arg, "a count", &value(&arg)?)?,
            "--shards" => opts.shards = positive(&arg, "a count", &value(&arg)?)?,
            "--incremental" => opts.incremental = true,
            "--queries" => opts.queries = Some(value("--queries")?),
            "--roas" => opts.roas = Some(value("--roas")?),
            "--save" => opts.save = Some(value("--save")?),
            "--archive" => opts.archive = Some(value("--archive")?),
            "--hot-cap" => opts.hot_cap = Some(positive(&arg, "a count", &value(&arg)?)?),
            "--keyframe-every" => {
                opts.keyframe_every = Some(positive(&arg, "a count", &value(&arg)?)?)
            }
            "--force" => opts.force = true,
            "--listen" => opts.listen = Some(value("--listen")?),
            "--max-conns" => opts.max_conns = Some(positive(&arg, "a count", &value(&arg)?)?),
            "--write-buf-cap" => opts.write_buf_cap = Some(positive(&arg, "bytes", &value(&arg)?)?),
            "--backend" => {
                let v = value("--backend")?;
                let backend: PollBackend = v.parse()?;
                if !backend.supported() {
                    return Err(format!(
                        "--backend {v} is not supported on this platform (try auto)"
                    ));
                }
                opts.backend = Some(backend);
            }
            "--serve-threads" => {
                opts.serve_threads = Some(positive(&arg, "a count", &value(&arg)?)?)
            }
            "--idle-timeout" => {
                opts.idle_timeout_secs = Some(positive(&arg, "seconds", &value(&arg)?)?)
            }
            "--follow" => opts.follow = Some(value("--follow")?),
            "--window" => opts.window = Some(positive(&arg, "a count", &value(&arg)?)?),
            "--spill" => opts.spill = Some(value("--spill")?),
            "--emit-deltas" => opts.emit_deltas = Some(value("--emit-deltas")?),
            "--emit-delay-ms" => {
                let v = value("--emit-delay-ms")?;
                opts.emit_delay_ms = v
                    .parse()
                    .map_err(|_| format!("--emit-delay-ms wants milliseconds, got '{v}'"))?;
            }
            "--metrics-interval" => {
                opts.metrics_interval = Some(positive(&arg, "seconds", &value(&arg)?)?)
            }
            "--metrics-file" => opts.metrics_file = Some(value("--metrics-file")?),
            "--slow-query-ms" => {
                opts.slow_query_ms = Some(positive(&arg, "milliseconds", &value(&arg)?)?)
            }
            "--help" | "-h" => {
                println!("{}\n\n{}", usage(), flag_help());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    Ok(opts)
}

/// Parses the value of a numeric flag that must be at least 1; `noun`
/// is what the flag counts ("a count", "seconds", …).
fn positive<T>(name: &str, noun: &str, v: &str) -> Result<T, String>
where
    T: std::str::FromStr + Default + PartialEq,
{
    let n: T = v
        .parse()
        .map_err(|_| format!("{name} wants {noun}, got '{v}'"))?;
    if n == T::default() {
        return Err(format!("{name} must be at least 1"));
    }
    Ok(n)
}

/// The serve tunables from the CLI over [`ServeConfig`]'s defaults (for
/// the backend: `RPI_SERVE_BACKEND`, else auto).
fn serve_config(opts: &Options) -> ServeConfig {
    let d = ServeConfig::default();
    ServeConfig {
        max_conns: opts.max_conns.unwrap_or(d.max_conns),
        write_buf_cap: opts.write_buf_cap.unwrap_or(d.write_buf_cap),
        idle_timeout: opts
            .idle_timeout_secs
            .map_or(d.idle_timeout, std::time::Duration::from_secs),
        serve_threads: opts.serve_threads.unwrap_or(d.serve_threads),
        backend: opts.backend.unwrap_or(d.backend),
        ..d
    }
}

/// The one-line startup banner (the serve smokes poll for `serving on`).
fn serving_banner(addr: std::net::SocketAddr, cfg: &ServeConfig) -> String {
    format!(
        "serving on {addr} ({} max conns, {} write-buf cap, {} backend, {} serve thread{}); \
         a 'shutdown' line stops the server",
        cfg.max_conns,
        fmt_bytes(cfg.write_buf_cap as u64),
        cfg.backend.effective(),
        cfg.serve_threads.max(1),
        if cfg.serve_threads.max(1) == 1 {
            ""
        } else {
            "s"
        },
    )
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rpi-queryd: {e}");
            return ExitCode::FAILURE;
        }
    };

    if opts.hot_cap.is_some() && opts.archive.is_none() {
        eprintln!("rpi-queryd: --hot-cap tiers an archive; it needs --archive");
        return ExitCode::FAILURE;
    }
    if opts.keyframe_every.is_some() && opts.save.is_none() && opts.follow.is_none() {
        eprintln!("rpi-queryd: --keyframe-every shapes an archive; it needs --save or --follow");
        return ExitCode::FAILURE;
    }
    if opts.listen.is_none()
        && (opts.max_conns.is_some()
            || opts.write_buf_cap.is_some()
            || opts.backend.is_some()
            || opts.serve_threads.is_some()
            || opts.idle_timeout_secs.is_some())
    {
        eprintln!(
            "rpi-queryd: --max-conns/--write-buf-cap/--backend/--serve-threads/--idle-timeout \
             tune the TCP server; they need --listen"
        );
        return ExitCode::FAILURE;
    }
    if opts.listen.is_some() && (opts.queries.is_some() || opts.save.is_some()) {
        eprintln!("rpi-queryd: --listen serves TCP; drop --queries/--save");
        return ExitCode::FAILURE;
    }
    if opts.follow.is_some()
        && (opts.queries.is_some() || opts.save.is_some() || opts.archive.is_some())
    {
        eprintln!("rpi-queryd: --follow ingests live; drop --queries/--save/--archive");
        return ExitCode::FAILURE;
    }
    if opts.emit_deltas.is_some()
        && (opts.follow.is_some()
            || opts.listen.is_some()
            || opts.queries.is_some()
            || opts.save.is_some()
            || opts.archive.is_some())
    {
        eprintln!("rpi-queryd: --emit-deltas writes a stream and exits; run it alone");
        return ExitCode::FAILURE;
    }
    if (opts.spill.is_some() || opts.window.is_some()) && opts.follow.is_none() {
        eprintln!("rpi-queryd: --window/--spill tune live ingest; they need --follow");
        return ExitCode::FAILURE;
    }
    if opts.metrics_file.is_some() && opts.metrics_interval.is_none() {
        eprintln!("rpi-queryd: --metrics-file needs --metrics-interval");
        return ExitCode::FAILURE;
    }
    if opts.metrics_interval.is_some() && opts.listen.is_none() && opts.follow.is_none() {
        eprintln!("rpi-queryd: --metrics-interval snapshots a serving daemon; it needs --listen or --follow");
        return ExitCode::FAILURE;
    }

    // Fail fast on bad inputs *before* the expensive world build / archive
    // load: a missing query file or an unbindable listen address is a
    // one-line error, never a panic (and never minutes of wasted ingest).
    let query_text = match &opts.queries {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => Some(text),
            Err(e) => {
                eprintln!("rpi-queryd: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    // ROA files parse before the world build too, with the same
    // `path:line:` error spelling as `--queries` execution errors.
    let roa_table = match &opts.roas {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => match rpi_sec::RoaTable::parse(&text) {
                Ok(table) => Some(table),
                Err(e) => {
                    eprintln!("rpi-queryd: {path}:{}: {}", e.line, e.msg);
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("rpi-queryd: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let listener = match &opts.listen {
        Some(addr) => match std::net::TcpListener::bind(addr) {
            Ok(l) => Some(l),
            Err(e) => {
                eprintln!("rpi-queryd: --listen: cannot bind {addr}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    // The metrics sink opens before the world build too: an unwritable
    // path fails in milliseconds, not after ingest.
    let metrics_file = match &opts.metrics_file {
        Some(path) => match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            Ok(f) => Some(f),
            Err(e) => {
                eprintln!("rpi-queryd: --metrics-file: cannot open {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    // Generator mode: simulate the churn series and write it as a
    // structured delta-event stream a concurrent `--follow` daemon can
    // tail. The file is created (with its header) before the expensive
    // world build finishes frame production, and each frame is written
    // atomically enough for a tailing reader: frames are length-prefixed,
    // so a partial tail parses as "need more bytes", never as a frame.
    if let Some(path) = &opts.emit_deltas {
        return emit_deltas(&opts, path);
    }

    // Live mode: a writer thread tails the stream and publishes an
    // engine epoch per snapshot; the server (or stdin REPL) answers
    // every batch from the latest published epoch.
    if let Some(path) = opts.follow.clone() {
        return follow_and_serve(&opts, path, roa_table, listener, metrics_file);
    }

    let mut engine;
    if let Some(dir) = &opts.archive {
        let t0 = Instant::now();
        let load = match opts.hot_cap {
            Some(cap) => QueryEngine::load_archive_tiered(Path::new(dir), cap),
            None => QueryEngine::load_archive(Path::new(dir)),
        };
        engine = match load {
            Ok(e) => e,
            Err(e) => {
                eprintln!("rpi-queryd: --archive: {e}");
                return ExitCode::FAILURE;
            }
        };
        let elapsed = t0.elapsed();
        let (asns, prefixes, communities) = engine.interned_sizes();
        let disk = engine.archive_info().map_or(0, |a| a.total_bytes());
        eprintln!(
            "cold-started from {dir} in {:.2?}: {} snapshots ({} on disk), {} shards, \
             interned {asns} ASNs / {prefixes} prefixes / {communities} communities",
            elapsed,
            engine.snapshot_count(),
            fmt_bytes(disk as u64),
            engine.shard_count(),
        );
        if let Some(stats) = engine.tier_stats() {
            eprintln!(
                "tier-attached: {} segments mapped in {:.1} µs/snapshot (hot cap {}); \
                 point queries answer zero-copy off the cold mappings",
                stats.snapshots,
                elapsed.as_micros() as f64 / stats.snapshots.max(1) as f64,
                stats.hot_cap,
            );
        }
    } else {
        let t0 = Instant::now();
        let e = build_world(&opts);
        engine = QueryEngine::new(opts.shards);
        if opts.snapshots > 1 {
            let series = churn_series(&opts, &e);
            if opts.incremental {
                engine.ingest_series_incremental(&series, &e.inferred_graph);
            } else {
                engine.ingest_series(&series, &e.inferred_graph);
            }
        } else {
            engine.ingest_experiment(&e, "t0");
        }
        let (asns, prefixes, communities) = engine.interned_sizes();
        eprintln!(
            "ready in {:.2?}: {} snapshots, {} shards, interned {asns} ASNs / {prefixes} prefixes / {communities} communities",
            t0.elapsed(),
            engine.snapshot_count(),
            engine.shard_count(),
        );
        if opts.incremental {
            let stats = engine.sharing_stats();
            eprintln!(
                "incremental ingest: {}/{} trie nodes shared with predecessors ({:.1}%, {} KiB)",
                stats.shared_nodes,
                stats.total_nodes,
                100.0 * stats.shared_ratio(),
                stats.shared_bytes / 1024,
            );
        }
    }

    if let Some(table) = roa_table {
        let path = opts.roas.as_deref().expect("table implies --roas");
        eprintln!("loaded {} ROAs from {path}", table.len());
        engine.set_roas(table);
    }
    if let Some(ms) = opts.slow_query_ms {
        engine.metrics().set_slow_threshold_ms(ms);
    }

    if let Some(dir) = &opts.save {
        let t0 = Instant::now();
        let options = rpi_query::SaveOptions {
            keyframe_every: opts.keyframe_every,
        };
        return match engine.save_archive_with(Path::new(dir), opts.force, options) {
            Ok(manifest) => {
                let full = count_kind(&manifest, rpi_store::SegmentKind::Full);
                let delta = count_kind(&manifest, rpi_store::SegmentKind::Delta);
                let roa = count_kind(&manifest, rpi_store::SegmentKind::Roa);
                let roa = if roa > 0 {
                    format!(", {roa} roa")
                } else {
                    String::new()
                };
                let keyframes = manifest.segments.iter().filter(|s| s.is_keyframe()).count();
                let kf = if keyframes > 0 {
                    format!("; {keyframes} keyframes")
                } else {
                    String::new()
                };
                eprintln!(
                    "saved archive to {dir} in {:.2?}: {} segments (1 symbols, {full} full, {delta} delta{roa}{kf}), {} on disk",
                    t0.elapsed(),
                    manifest.segments.len(),
                    fmt_bytes(manifest.total_bytes()),
                );
                ExitCode::SUCCESS
            }
            Err(e @ rpi_store::StoreError::AlreadyExists { .. }) => {
                eprintln!("rpi-queryd: --save: {e} (use --force)");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("rpi-queryd: --save: {e}");
                ExitCode::FAILURE
            }
        };
    }

    // The serve mode: share the built engine across the accept loop and
    // run until a `shutdown` control line, then report the stats
    // snapshot (SIGINT-free shutdown).
    if let Some(listener) = listener {
        let cfg = serve_config(&opts);
        let engine = Arc::new(engine);
        let server = match Server::with_listener(Arc::clone(&engine), listener, cfg.clone()) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("rpi-queryd: --listen: {e}");
                return ExitCode::FAILURE;
            }
        };
        match server.local_addr() {
            Ok(addr) => eprintln!("{}", serving_banner(addr, &cfg)),
            Err(e) => {
                eprintln!("rpi-queryd: --listen: {e}");
                return ExitCode::FAILURE;
            }
        }
        let emitter = opts.metrics_interval.map(|secs| {
            let e = Arc::clone(&engine);
            MetricsEmitter::spawn(
                move || Arc::clone(&e),
                std::time::Duration::from_secs(secs),
                metrics_file,
            )
        });
        return match server.run() {
            Ok(stats) => {
                if let Some(em) = emitter {
                    em.finish();
                }
                eprintln!("{}", stats.render());
                report_peak_rate(&opts, engine.metrics(), &stats);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("rpi-queryd: serve: {e}");
                ExitCode::FAILURE
            }
        };
    }

    match (&opts.queries, query_text) {
        (Some(path), Some(text)) => run_file(&engine, path, &text),
        _ => {
            let stdin = std::io::stdin();
            print!("> ");
            let _ = std::io::stdout().flush();
            for line in stdin.lock().lines() {
                let Ok(line) = line else { break };
                match run_line(&engine, &line) {
                    Outcome::Quit => break,
                    Outcome::Ok => {}
                    Outcome::Err(e) => println!("error: {e}"),
                }
                print!("> ");
                let _ = std::io::stdout().flush();
            }
            ExitCode::SUCCESS
        }
    }
}

/// Announces and builds the `--size`/`--seed` world every simulating
/// mode starts from.
fn build_world(opts: &Options) -> Experiment {
    eprintln!(
        "building {:?} world (seed {}, {} snapshot{}) …",
        opts.size,
        opts.seed,
        opts.snapshots,
        if opts.snapshots == 1 { "" } else { "s" }
    );
    Experiment::standard(opts.size, opts.seed)
}

/// The `--snapshots`-step daily churn series over a built world.
fn churn_series(opts: &Options, e: &Experiment) -> bgp_sim::SnapshotSeries {
    let cfg = ChurnConfig {
        steps: opts.snapshots,
        ..ChurnConfig::daily(opts.seed ^ 0xC0FFEE)
    };
    simulate_series(&e.graph, &e.truth, &e.spec, &cfg)
}

/// `--emit-deltas`: simulate, then stream — header first, one
/// length-prefixed frame per snapshot (paced by `--emit-delay-ms`), the
/// end marker last.
fn emit_deltas(opts: &Options, path: &str) -> ExitCode {
    use std::io::Write as _;
    let t0 = Instant::now();
    let e = build_world(opts);
    let series = churn_series(opts, &e);
    let mut file = match std::fs::File::create(path) {
        Ok(f) => f,
        Err(err) => {
            eprintln!("rpi-queryd: --emit-deltas: cannot create {path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let write = |file: &mut std::fs::File, bytes: &[u8]| -> Result<(), std::io::Error> {
        file.write_all(bytes)?;
        file.flush()
    };
    let (mut sw, header) = bgp_sim::StreamWriter::open(&e.inferred_graph);
    let mut emitted = 0usize;
    let result = write(&mut file, &header).and_then(|()| {
        for (i, (label, out)) in series.labels.iter().zip(&series.snapshots).enumerate() {
            if opts.emit_delay_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(opts.emit_delay_ms));
            }
            let frame = sw.frame(label, out, None);
            write(&mut file, &frame)?;
            emitted = i + 1;
            eprintln!("emit: wrote snapshot {emitted} ({label})");
        }
        write(&mut file, &sw.end())
    });
    if let Err(err) = result {
        eprintln!("rpi-queryd: --emit-deltas: writing {path}: {err}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "emitted {emitted} snapshot{} to {path} in {:.2?}",
        if emitted == 1 { "" } else { "s" },
        t0.elapsed(),
    );
    ExitCode::SUCCESS
}

/// `--follow`: spawn the live writer thread, then serve (TCP or stdin
/// REPL) from the latest published epoch until shutdown.
fn follow_and_serve(
    opts: &Options,
    path: String,
    roa_table: Option<rpi_sec::RoaTable>,
    listener: Option<std::net::TcpListener>,
    metrics_file: Option<std::fs::File>,
) -> ExitCode {
    use std::sync::atomic::{AtomicBool, Ordering};

    let mut base = QueryEngine::new(opts.shards);
    if let Some(table) = roa_table {
        let roa_path = opts.roas.as_deref().expect("table implies --roas");
        eprintln!("loaded {} ROAs from {roa_path}", table.len());
        base.set_roas(table);
    }
    if let Some(ms) = opts.slow_query_ms {
        base.metrics().set_slow_threshold_ms(ms);
    }
    // Every published epoch shares the base engine's metrics registry,
    // so this handle observes the whole run regardless of epoch swaps.
    let base_metrics = base.metrics_arc();
    let handle = rpi_query::LiveHandle::new(base);
    let emitter = opts.metrics_interval.map(|secs| {
        let h = Arc::clone(&handle);
        MetricsEmitter::spawn(
            move || h.current(),
            std::time::Duration::from_secs(secs),
            metrics_file,
        )
    });
    let spill = opts
        .spill
        .clone()
        .unwrap_or_else(|| format!("{path}.spill"));
    let live_opts = rpi_query::LiveOptions {
        window: opts.window.unwrap_or(4),
        keyframe_every: opts.keyframe_every.unwrap_or(4),
    };
    eprintln!(
        "live: following {path} (window {}, keyframe every {}, spill {spill})",
        live_opts.window, live_opts.keyframe_every,
    );
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let handle = Arc::clone(&handle);
        let stop = Arc::clone(&stop);
        let path = path.clone();
        let spill = spill.clone();
        std::thread::spawn(move || {
            // The generator may not have created the file yet.
            while !Path::new(&path).exists() {
                if stop.load(Ordering::Acquire) {
                    return Ok(rpi_query::FollowReport {
                        snapshots: 0,
                        end: rpi_query::FollowEnd::Stopped,
                    });
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            let result = rpi_query::follow_stream(
                Path::new(&path),
                handle,
                Path::new(&spill),
                live_opts,
                std::time::Duration::from_millis(2),
                &stop,
                |n, label| eprintln!("live: published snapshot {n} ({label})"),
            );
            match &result {
                Ok(report) if report.end == rpi_query::FollowEnd::EndMarker => eprintln!(
                    "live: reached end of stream after {} snapshots; serving the final world",
                    report.snapshots
                ),
                Ok(_) => {}
                Err(e) => eprintln!("rpi-queryd: --follow: {e}"),
            }
            result
        })
    };

    let served = if let Some(listener) = listener {
        let cfg = serve_config(opts);
        let source = rpi_query::EngineSource::Live(Arc::clone(&handle));
        let server = match Server::with_listener_source(source, listener, cfg.clone()) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("rpi-queryd: --listen: {e}");
                stop.store(true, Ordering::Release);
                let _ = writer.join();
                return ExitCode::FAILURE;
            }
        };
        match server.local_addr() {
            Ok(addr) => eprintln!("{}", serving_banner(addr, &cfg)),
            Err(e) => {
                eprintln!("rpi-queryd: --listen: {e}");
                stop.store(true, Ordering::Release);
                let _ = writer.join();
                return ExitCode::FAILURE;
            }
        }
        match server.run() {
            Ok(stats) => {
                eprintln!("{}", stats.render());
                report_peak_rate(opts, &base_metrics, &stats);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("rpi-queryd: serve: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        // Stdin REPL against the moving world: each line loads the
        // epoch current at that moment, so one line's answer is one
        // consistent snapshot of the published state.
        let stdin = std::io::stdin();
        print!("> ");
        let _ = std::io::stdout().flush();
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            let epoch = handle.current();
            match run_line(&epoch, &line) {
                Outcome::Quit => break,
                Outcome::Ok => {}
                Outcome::Err(e) => println!("error: {e}"),
            }
            print!("> ");
            let _ = std::io::stdout().flush();
        }
        ExitCode::SUCCESS
    };

    stop.store(true, Ordering::Release);
    if let Some(em) = emitter {
        em.finish();
    }
    match writer.join() {
        Ok(Ok(_)) => served,
        Ok(Err(_)) => ExitCode::FAILURE,
        Err(_) => {
            eprintln!("rpi-queryd: --follow: the writer thread panicked");
            ExitCode::FAILURE
        }
    }
}

/// The companion to [`ServeStats::render`]'s lifetime-average rate: the
/// lifetime figure flattens bursts (satellite fix for
/// `queries_per_sec`), so when the interval emitter ran, the daemon also
/// reports the fastest single interval it observed.
fn report_peak_rate(opts: &Options, metrics: &rpi_query::QueryMetrics, stats: &ServeStats) {
    if opts.metrics_interval.is_none() {
        return;
    }
    eprintln!(
        "peak interval rate {:.0} queries/s over any {}s window (lifetime average {:.0} queries/s)",
        metrics.peak_interval_qps(),
        opts.metrics_interval.unwrap_or(0),
        stats.queries_per_sec(),
    );
}

/// The `--metrics-interval` emitter thread: every tick it syncs the
/// engine's derived gauges, snapshots the registry, and appends one
/// interval-diffed JSON line (counter deltas, current gauges, interval
/// latency percentiles) to stderr or the `--metrics-file`. Each
/// interval's query rate feeds [`rpi_query::QueryMetrics::note_interval_qps`].
struct MetricsEmitter {
    stop: Arc<std::sync::atomic::AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

impl MetricsEmitter {
    fn spawn(
        engine_fn: impl Fn() -> Arc<QueryEngine> + Send + 'static,
        interval: std::time::Duration,
        mut file: Option<std::fs::File>,
    ) -> MetricsEmitter {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut prev = {
                    let engine = engine_fn();
                    engine.sync_obs();
                    let snap = engine.metrics().registry().snapshot();
                    (snap, engine.metrics().total_queries())
                };
                let mut prev_at = Instant::now();
                'ticks: loop {
                    // Sleep in short slices so shutdown stays prompt
                    // under long intervals.
                    let tick_end = prev_at + interval;
                    while Instant::now() < tick_end {
                        if stop.load(Ordering::Acquire) {
                            break 'ticks;
                        }
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                    let engine = engine_fn();
                    engine.sync_obs();
                    let m = engine.metrics();
                    let snap = m.registry().snapshot();
                    let queries = m.total_queries();
                    let elapsed = prev_at.elapsed();
                    prev_at = Instant::now();
                    m.note_interval_qps(
                        queries.saturating_sub(prev.1) as f64 / elapsed.as_secs_f64().max(1e-9),
                    );
                    let line = snap.delta_json(&prev.0, elapsed);
                    prev = (snap, queries);
                    match &mut file {
                        Some(f) => {
                            use std::io::Write as _;
                            let _ = writeln!(f, "{line}");
                            let _ = f.flush();
                        }
                        None => eprintln!("{line}"),
                    }
                }
            })
        };
        MetricsEmitter { stop, thread }
    }

    fn finish(self) {
        self.stop.store(true, std::sync::atomic::Ordering::Release);
        let _ = self.thread.join();
    }
}

/// Executes a `--queries` file: blank lines and comments are skipped,
/// REPL commands work, parse and execution errors are reported to stderr
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

fn count_kind(manifest: &rpi_store::Manifest, kind: rpi_store::SegmentKind) -> usize {
    manifest.segments.iter().filter(|s| s.kind == kind).count()
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
