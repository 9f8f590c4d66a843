//! End-to-end golden tests of the built `rpi-queryd`: the committed
//! smoke scripts piped through `--queries` and driven over `--listen`
//! against the deterministic tiny seed-11 world — generated, saved and
//! cold-started, saved keyframed and tier-attached, and `--follow`ed
//! mid-ingest — each diffed against its committed golden, plus the
//! metrics smoke (two `metrics` scrapes mid-load, the emitter's stderr
//! line) — tier-1: part of the workspace `cargo test`; CI has no shell
//! copy of any of them. The scale smoke (10,000 idle connections at
//! ~zero CPU) is `#[ignore]`d because it needs a raised descriptor
//! limit; CI runs it after `ulimit -n 32768` with `-- --ignored`.
//! Every spawned daemon sits behind [`Daemon`]: killed on drop, every
//! wait under [`DEADLINE`].
//!
//! If the wire grammar or response rendering changes intentionally,
//! regenerate `smoke.golden` with (the other three: see their tests):
//!
//! ```text
//! cargo run --release -p rpi-query --bin rpi-queryd -- \
//!   --size tiny --seed 11 --snapshots 4 \
//!   --roas crates/query/tests/data/smoke.roas \
//!   --queries crates/query/tests/data/smoke.q > crates/query/tests/data/smoke.golden
//! ```

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{channel, Receiver};
use std::time::{Duration, Instant};

/// How long any single wait on a child may take (a cold debug-build
/// world included) before the test fails instead of hanging.
const DEADLINE: Duration = Duration::from_secs(120);

fn queryd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rpi-queryd"))
}

fn data() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data")
}

/// A spawned `rpi-queryd` with its stderr read line by line on a helper
/// thread, so every wait on the log has a deadline. Killed on drop: a
/// failed assertion never leaks a daemon.
struct Daemon {
    child: Child,
    log: Receiver<String>,
    /// Every stderr line received so far.
    seen: Vec<String>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Daemon {
    fn spawn(mut cmd: Command) -> Daemon {
        let mut child = cmd
            .stderr(Stdio::piped())
            .spawn()
            .expect("rpi-queryd spawns");
        let stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
        let (tx, log) = channel();
        std::thread::spawn(move || {
            for line in stderr.lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Daemon {
            child,
            log,
            seen: Vec::new(),
        }
    }

    /// The first stderr line containing `pat`, waiting for it if it has
    /// not been printed yet.
    fn wait_log(&mut self, pat: &str) -> String {
        let deadline = Instant::now() + DEADLINE;
        loop {
            if let Some(line) = self.seen.iter().find(|l| l.contains(pat)) {
                return line.clone();
            }
            let left = deadline.saturating_duration_since(Instant::now());
            match self.log.recv_timeout(left) {
                Ok(line) => self.seen.push(line),
                Err(e) => panic!("no '{pat}' on the daemon's stderr ({e}):\n{:#?}", self.seen),
            }
        }
    }

    /// The address after the `serving on` readiness banner.
    fn addr(&mut self) -> String {
        let banner = self.wait_log("serving on ");
        let rest = banner.split_once("serving on ").expect("just matched").1;
        rest.split_whitespace()
            .next()
            .expect("address after 'serving on'")
            .to_string()
    }

    /// The CPU the daemon burns over `window`: the rise of utime + stime
    /// (fields 14 and 15 of `/proc/<pid>/stat`), in clock ticks.
    fn cpu_ticks_over(&self, window: Duration) -> u64 {
        let ticks = || {
            let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))
                .expect("the daemon's /proc stat");
            // Field 3 starts after the `(comm)` field, which may hold
            // spaces; utime and stime are fields 14 and 15.
            let fields: Vec<u64> = stat[stat.rfind(')').expect("(comm)") + 2..]
                .split(' ')
                .skip(11)
                .take(2)
                .map(|f| f.parse().expect("a tick count"))
                .collect();
            fields[0] + fields[1]
        };
        let before = ticks();
        std::thread::sleep(window);
        ticks() - before
    }

    /// Waits for the process to exit on its own: its status and its
    /// whole stderr.
    fn exit(mut self) -> (ExitStatus, String) {
        let deadline = Instant::now() + DEADLINE;
        // The log channel disconnects when the child closes stderr.
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.log.recv_timeout(left) {
                Ok(line) => self.seen.push(line),
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
                Err(e) => panic!("the daemon did not exit ({e}):\n{:#?}", self.seen),
            }
        }
        let status = self.child.wait().expect("daemon exits");
        (status, self.seen.join("\n"))
    }
}

/// Drives `script` and then the control verb `last` (`quit`: this
/// connection only; `shutdown`: the daemon) over one TCP connection to
/// `daemon`, and returns everything it answered before closing.
fn drive(daemon: &mut Daemon, script: &str, last: &str) -> String {
    let mut conn = TcpStream::connect(daemon.addr()).expect("connect to daemon");
    conn.set_read_timeout(Some(DEADLINE)).unwrap();
    conn.write_all(script.as_bytes()).unwrap();
    conn.write_all(format!("{last}\n").as_bytes()).unwrap();
    let mut got = String::new();
    conn.read_to_string(&mut got)
        .expect("responses until close");
    got
}

#[test]
fn queries_file_matches_golden_output() {
    let data = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    let queries = data.join("smoke.q");
    let golden = std::fs::read_to_string(data.join("smoke.golden")).expect("golden committed");

    let out = Command::new(env!("CARGO_BIN_EXE_rpi-queryd"))
        .args(["--size", "tiny", "--seed", "11", "--snapshots", "4"])
        .arg("--roas")
        .arg(data.join("smoke.roas"))
        .arg("--queries")
        .arg(&queries)
        .output()
        .expect("rpi-queryd runs");

    assert!(
        out.status.success(),
        "rpi-queryd failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert_eq!(
        stdout, golden,
        "stdout diverged from tests/data/smoke.golden (see module docs to regenerate)"
    );
}

/// The archive smoke: the 5-snapshot world saved to
/// `/tmp/rpi-archive`, cold-started with `--archive`, and diffed against
/// its golden — the byte-level face of the save→load contract, including
/// the `archive` and `snapshots` storage listings (the path is part of
/// the golden, so the archive lives at a fixed location; CI runs the
/// same two commands as a shell step). Regenerate with:
///
/// The save is given `--roas`; the cold start is not — its `rov` answers
/// come from the archive's own roa segment, proving the round-trip.
///
/// ```text
/// cargo run --release -p rpi-query --bin rpi-queryd -- \
///   --size tiny --seed 11 --snapshots 5 \
///   --roas crates/query/tests/data/smoke.roas \
///   --save /tmp/rpi-archive --force
/// cargo run --release -p rpi-query --bin rpi-queryd -- \
///   --archive /tmp/rpi-archive \
///   --queries crates/query/tests/data/smoke_archive.q \
///   > crates/query/tests/data/smoke_archive.golden
/// ```
#[test]
fn archive_cold_start_matches_its_golden() {
    let queries = data().join("smoke_archive.q");
    let golden =
        std::fs::read_to_string(data().join("smoke_archive.golden")).expect("golden committed");

    let save = queryd()
        .args([
            "--size",
            "tiny",
            "--seed",
            "11",
            "--snapshots",
            "5",
            "--save",
            "/tmp/rpi-archive",
            "--force",
        ])
        .arg("--roas")
        .arg(data().join("smoke.roas"))
        .output()
        .expect("rpi-queryd runs");
    assert!(
        save.status.success(),
        "save failed:\n{}",
        String::from_utf8_lossy(&save.stderr)
    );

    let out = queryd()
        .args(["--archive", "/tmp/rpi-archive"])
        .arg("--queries")
        .arg(&queries)
        .output()
        .expect("rpi-queryd runs");
    assert!(
        out.status.success(),
        "cold start failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert_eq!(
        stdout, golden,
        "stdout diverged from tests/data/smoke_archive.golden (see docs to regenerate)"
    );

    // The same cold start behind `--listen`: one golden for both paths.
    let mut cmd = queryd();
    cmd.args(["--archive", "/tmp/rpi-archive", "--listen", "127.0.0.1:0"]);
    let mut daemon = Daemon::spawn(cmd);
    let script = std::fs::read_to_string(&queries).expect("script committed");
    assert_eq!(
        drive(&mut daemon, &script, "shutdown"),
        golden,
        "TCP-served output diverged from tests/data/smoke_archive.golden"
    );
    assert!(daemon.exit().0.success(), "exit 0 on protocol shutdown");
}

/// The tier smoke: a 200-snapshot world saved with `--keyframe-every 16`
/// (no replay chain exceeds 15 deltas) to `/tmp/rpi-tier-archive` (the
/// path is part of the golden), attached with `--hot-cap 4` (196+
/// snapshots stay cold, mmap-backed) and driven through a script mixing
/// zero-copy cold point queries, LRU-thrashing hydration verbs and
/// histories spanning both tiers — byte-identical to the committed
/// golden over stdin **and** over TCP: residency is an implementation
/// detail, never an answer. The golden's leading `snapshots`/`archive`
/// listings also pin the keyframe cadence and chain depths on disk.
/// Regenerate with:
///
/// ```text
/// cargo run --release -p rpi-query --bin rpi-queryd -- \
///   --size tiny --seed 11 --snapshots 200 \
///   --roas crates/query/tests/data/smoke.roas \
///   --save /tmp/rpi-tier-archive --keyframe-every 16 --force
/// cargo run --release -p rpi-query --bin rpi-queryd -- \
///   --archive /tmp/rpi-tier-archive --hot-cap 4 \
///   --queries crates/query/tests/data/smoke_tier.q \
///   > crates/query/tests/data/smoke_tier.golden
/// ```
#[test]
fn tier_archive_matches_its_golden() {
    let queries = data().join("smoke_tier.q");
    let golden =
        std::fs::read_to_string(data().join("smoke_tier.golden")).expect("golden committed");
    let tiered = ["--archive", "/tmp/rpi-tier-archive", "--hot-cap", "4"];

    let save = queryd()
        .args(["--size", "tiny", "--seed", "11", "--snapshots", "200"])
        .args(["--save", "/tmp/rpi-tier-archive", "--force"])
        .args(["--keyframe-every", "16", "--roas"])
        .arg(data().join("smoke.roas"))
        .output()
        .expect("rpi-queryd runs");
    assert!(
        save.status.success(),
        "save failed:\n{}",
        String::from_utf8_lossy(&save.stderr)
    );

    let out = queryd()
        .args(tiered)
        .arg("--queries")
        .arg(&queries)
        .output()
        .expect("rpi-queryd runs");
    assert!(
        out.status.success(),
        "tiered cold start failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8(out.stdout).expect("utf-8 output"),
        golden,
        "stdout diverged from tests/data/smoke_tier.golden (see docs to regenerate)"
    );

    let mut cmd = queryd();
    cmd.args(tiered).args(["--listen", "127.0.0.1:0"]);
    let mut daemon = Daemon::spawn(cmd);
    let script = std::fs::read_to_string(&queries).expect("script committed");
    assert_eq!(
        drive(&mut daemon, &script, "shutdown"),
        golden,
        "TCP-served output diverged from tests/data/smoke_tier.golden"
    );
    let (status, log) = daemon.exit();
    assert!(status.success(), "exit 0 on protocol shutdown:\n{log}");
    assert!(
        log.contains("tier: "),
        "the exit lines report the tier:\n{log}"
    );
}

/// The live smoke — serve while ingesting, end to end: a generator
/// process writes the tiny seed-11 world to a delta-event stream at
/// 700 ms per frame while `rpi-queryd --follow` tails it, publishing an
/// epoch per snapshot and serving on TCP the whole time. Once snapshot 3
/// is live — the generator still holding three more frames — the
/// committed script (every query pinned to `@0..@2`) is driven over TCP
/// and diffed against the golden: epoch publication froze those answers,
/// so the diff is exact no matter how far ingest advances mid-script.
/// Then the stream runs dry, the daemon reports the final world, and a
/// `shutdown` line stops it cleanly. Regenerate by running the same two
/// commands and piping `smoke_live.q` to the follower's port (`nc`, say)
/// once it logs `live: published snapshot 3`.
#[test]
fn live_follow_matches_its_golden_mid_ingest() {
    let golden =
        std::fs::read_to_string(data().join("smoke_live.golden")).expect("golden committed");
    let script = std::fs::read_to_string(data().join("smoke_live.q")).expect("script committed");
    let dir = std::env::temp_dir().join(format!("rpi-queryd-live-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let stream = dir.join("live.stream");

    let mut emit = queryd();
    emit.args(["--size", "tiny", "--seed", "11", "--snapshots", "6"])
        .args(["--emit-delay-ms", "700", "--emit-deltas"])
        .arg(&stream);
    let emitter = Daemon::spawn(emit);
    let mut follow = queryd();
    follow
        .args(["--window", "2", "--listen", "127.0.0.1:0", "--follow"])
        .arg(&stream)
        .arg("--roas")
        .arg(data().join("smoke.roas"));
    let mut follower = Daemon::spawn(follow);

    follower.wait_log("live: published snapshot 3 ");
    assert_eq!(
        drive(&mut follower, &script, "quit"),
        golden,
        "mid-ingest output diverged from tests/data/smoke_live.golden"
    );

    let (status, log) = emitter.exit();
    assert!(status.success(), "the emitter exits 0:\n{log}");
    follower.wait_log("live: reached end of stream after 6 snapshots");
    assert_eq!(drive(&mut follower, "", "shutdown"), "");
    let (status, log) = follower.exit();
    assert!(status.success(), "exit 0 on protocol shutdown:\n{log}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One TCP golden run: spawn the daemon with `--serve-threads
/// threads`, drive the committed smoke script over the socket, diff
/// against the stdin golden, and require a clean shutdown-verb exit with
/// the stats snapshot.
fn tcp_golden_run(threads: usize) {
    let script = std::fs::read_to_string(data().join("smoke.q")).expect("script committed");
    let golden = std::fs::read_to_string(data().join("smoke.golden")).expect("golden committed");

    let mut cmd = queryd();
    cmd.args(["--size", "tiny", "--seed", "11", "--snapshots", "4"])
        .args(["--listen", "127.0.0.1:0"])
        .args(["--serve-threads", &threads.to_string()])
        .arg("--roas")
        .arg(data().join("smoke.roas"));
    // The daemon announces its ephemeral port on stderr once ready.
    let mut daemon = Daemon::spawn(cmd);
    assert_eq!(
        drive(&mut daemon, &script, "shutdown"),
        golden,
        "[x{threads}] TCP-served output diverged from the stdin golden"
    );

    let (status, log) = daemon.exit();
    assert!(
        status.success(),
        "[x{threads}] daemon must exit 0 on protocol shutdown"
    );
    assert!(
        log.contains("served ") && log.contains("queries/s"),
        "[x{threads}] shutdown must print the stats snapshot:\n{log}"
    );
}

/// The serve-path face of the golden: the same smoke script driven over
/// TCP against `--listen` must produce **byte-identical** output to the
/// stdin `--queries` path (the committed golden) — single-threaded and
/// sharded. A trailing `shutdown` control line stops the server without
/// signals; the daemon must then exit 0 after printing its stats
/// snapshot.
#[test]
fn tcp_served_queries_match_the_stdin_golden() {
    tcp_golden_run(1);
    tcp_golden_run(4);
}

/// Opens `n` connections that send and read nothing. A failed connect is
/// retried after a growing pause: the listen backlog is 128, so a burst
/// of serial connects can outrun the daemon's accepts.
fn idle_conns(addr: &str, n: usize) -> Vec<TcpStream> {
    (0..n)
        .map(|i| {
            let mut attempt = 0;
            loop {
                match TcpStream::connect(addr) {
                    Ok(conn) => break conn,
                    Err(e) => {
                        attempt += 1;
                        assert!(attempt <= 50, "idle conn {i}/{n}: {attempt} attempts: {e}");
                        std::thread::sleep(Duration::from_millis(2 * attempt));
                    }
                }
            }
        })
        .collect()
}

/// The scale smoke: a 4-thread daemon holds 10,000 idle connections at
/// ~zero CPU — epoll parks a quiet connection in the kernel, where a
/// sweep over 10k sockets would burn the whole window — its aggregate
/// `rpi_serve_active_connections` gauge counts them all, and a loaded
/// connection still answers the smoke script byte-identically. Run with
/// `ulimit -n 32768; cargo test --release -p rpi-query --test smoke --
/// --ignored --nocapture`.
#[test]
#[ignore = "needs ulimit -n ≥ 12000 (10,000 connections on each side)"]
fn ten_thousand_idle_connections_cost_no_cpu() {
    let mut cmd = queryd();
    cmd.args([
        "--size",
        "tiny",
        "--seed",
        "11",
        "--snapshots",
        "4",
        "--roas",
    ])
    .arg(data().join("smoke.roas"))
    .args(["--listen", "127.0.0.1:0", "--serve-threads", "4"])
    .args(["--max-conns", "11000", "--idle-timeout", "600"]);
    let mut daemon = Daemon::spawn(cmd);
    daemon.wait_log("4 serve threads");
    let idle = idle_conns(&daemon.addr(), 10_000);

    let ticks = daemon.cpu_ticks_over(Duration::from_secs(10));
    println!("idle burn: {ticks} ticks over 10 s with 10000 idle connections");
    assert!(ticks <= 150, "idle CPU burn too high: {ticks} ticks > 150");

    let scrape = drive(&mut daemon, "metrics\n", "quit");
    let active: f64 = scrape
        .lines()
        .find_map(|l| l.strip_prefix("rpi_serve_active_connections "))
        .unwrap_or_else(|| panic!("no active-connection gauge in:\n{scrape}"))
        .parse()
        .expect("a gauge value");
    assert!(
        active >= 10_000.0,
        "active-connection gauge {active} < 10000"
    );

    let script = std::fs::read_to_string(data().join("smoke.q")).expect("script committed");
    let golden = std::fs::read_to_string(data().join("smoke.golden")).expect("golden committed");
    assert_eq!(
        drive(&mut daemon, &script, "quit"),
        golden,
        "a loaded connection's answers diverged from the stdin golden"
    );
    drop(idle);
    assert_eq!(drive(&mut daemon, "", "shutdown"), "");
    let (status, log) = daemon.exit();
    assert!(status.success(), "exit 0 on protocol shutdown:\n{log}");
}

/// A daemon out of descriptors does not spin: at `ulimit -n 32` with 60
/// clients connected, accept fails with EMFILE while connections stay
/// queued in the kernel, and a level-triggered listener would wake the
/// loop at once, over and over — a whole core. The loop parks the
/// listener until its next maintenance pass instead. Once 40 clients
/// hang up, a fresh connection is served again.
#[cfg(target_os = "linux")]
#[test]
fn accept_at_the_descriptor_limit_backs_off_without_spinning() {
    for threads in ["1", "4"] {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", r#"ulimit -n 32; exec "$0" "$@""#])
            .arg(env!("CARGO_BIN_EXE_rpi-queryd"))
            .args(["--size", "tiny", "--seed", "11", "--listen", "127.0.0.1:0"])
            .args(["--serve-threads", threads]);
        let mut daemon = Daemon::spawn(cmd);
        let addr = daemon.addr();
        let mut clients = idle_conns(&addr, 60);

        let ticks = daemon.cpu_ticks_over(Duration::from_secs(2));
        println!("[x{threads}] {ticks} ticks over 2 s at the descriptor limit");
        assert!(
            ticks <= 20,
            "[x{threads}] spinning at EMFILE: {ticks} ticks > 20"
        );

        clients.drain(..40);
        let mut fresh = TcpStream::connect(&addr).expect("connect to daemon");
        fresh.set_read_timeout(Some(DEADLINE)).unwrap();
        fresh.write_all(b"ping\n").unwrap();
        let mut pong = [0u8; 5];
        fresh
            .read_exact(&mut pong)
            .expect("an answer once descriptors free up");
        assert_eq!(&pong, b"pong\n", "[x{threads}]");
    }
}

/// The metrics smoke — the observability contract over a real socket: a
/// daemon serving the archive smoke's world (generated here, not loaded:
/// `/tmp/rpi-archive` belongs to the archive test running beside this
/// one) with the interval emitter and slow-query ring armed is scraped
/// twice mid-load through the `metrics` verb. The first scrape must
/// already expose every required family (the schema is registered up
/// front, never lazily on first traffic), the per-verb query counter must
/// rise strictly across scrapes, and the emitter must write at least one
/// interval-diffed JSON line to stderr. Load and scrape ride separate
/// connections: per-verb counters land at segment end, so a `metrics`
/// line pipelined behind the queries it should count would scrape too
/// early.
#[test]
fn metrics_scrapes_expose_the_schema_and_count_upwards() {
    let mut cmd = queryd();
    cmd.args(["--size", "tiny", "--seed", "11", "--snapshots", "5"])
        .args(["--listen", "127.0.0.1:0", "--metrics-interval", "1"])
        .args(["--slow-query-ms", "5000", "--roas"])
        .arg(data().join("smoke.roas"));
    let mut daemon = Daemon::spawn(cmd);

    let load = "route AS1 4.0.0.0/13\nresolve AS1 4.0.0.0/13\nsa AS1 4.0.0.0/13\n";
    let scrape = |daemon: &mut Daemon| {
        drive(daemon, load, "quit");
        drive(daemon, "metrics\n", "quit")
    };
    let routes = |scrape: &str| -> u64 {
        let line = scrape
            .lines()
            .find_map(|l| l.strip_prefix("rpi_serve_queries_total{verb=\"route\"} "))
            .unwrap_or_else(|| panic!("no route counter in the scrape:\n{scrape}"));
        line.trim().parse().expect("an integer counter")
    };
    let first = scrape(&mut daemon);
    for family in [
        "rpi_serve_queries_total",
        "rpi_serve_query_seconds",
        "rpi_serve_active_connections",
        "rpi_serve_bytes_out_total",
        "rpi_plan_batch_seconds",
        "rpi_sec_roas",
        "rpi_tier_hot_snapshots",
    ] {
        assert!(
            first.lines().any(|l| l.starts_with(family)),
            "family {family} missing from the first scrape:\n{first}"
        );
    }
    let second = scrape(&mut daemon);
    let (q1, q2) = (routes(&first), routes(&second));
    assert!(
        q1 >= 1 && q2 > q1,
        "the route counter must rise: {q1} -> {q2}"
    );

    daemon.wait_log("\"interval_s\"");
    assert_eq!(drive(&mut daemon, "", "shutdown"), "");
    let (status, log) = daemon.exit();
    assert!(status.success(), "exit 0 on protocol shutdown:\n{log}");
    assert!(
        log.contains("peak interval rate"),
        "the exit lines report the emitter's peak:\n{log}"
    );
}

/// Bugfix coverage: a missing `--queries` file is a one-line error
/// *before* the expensive world build, never a panic.
#[test]
fn missing_queries_file_fails_fast_with_one_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_rpi-queryd"))
        .args(["--size", "tiny", "--queries", "/tmp/rpi-no-such-file.q"])
        .output()
        .expect("rpi-queryd runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot read /tmp/rpi-no-such-file.q"),
        "error must name the file:\n{stderr}"
    );
    assert!(
        !stderr.contains("building"),
        "must fail before the world build:\n{stderr}"
    );
}

/// Bugfix coverage: an unbindable `--listen` address is a one-line
/// error before the world build, never a panic.
#[test]
fn unbindable_listen_address_fails_fast_with_one_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_rpi-queryd"))
        .args(["--size", "tiny", "--listen", "256.0.0.1:0"])
        .output()
        .expect("rpi-queryd runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--listen: cannot bind 256.0.0.1:0"),
        "error must name the address:\n{stderr}"
    );
    assert!(
        !stderr.contains("building"),
        "must fail before the world build:\n{stderr}"
    );
}

/// Runs the daemon with arguments it must reject: exit 1 with a message
/// on stderr (returned), before the world build.
fn rejected(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_rpi-queryd"))
        .args(["--size", "tiny"])
        .args(args)
        .output()
        .expect("rpi-queryd runs");
    assert_eq!(out.status.code(), Some(1), "{args:?} must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        !stderr.contains("building"),
        "{args:?} must fail before the world build:\n{stderr}"
    );
    stderr
}

/// Bugfix coverage: `--window` without `--follow` is rejected whatever
/// its value (the default, 4, used to slip through as "flag not given"),
/// and the removed `--bench` mode, prefix-sharding knob, `--incremental`
/// switch (a series is always ingested diff-aware) and poller knob (the
/// platform picks the poller) are unknown arguments — all one-line errors
/// before the world build.
#[test]
fn follow_only_and_removed_flags_fail_fast() {
    for window in ["4", "3"] {
        assert_eq!(
            rejected(&["--window", window]),
            "rpi-queryd: --window needs --follow\n"
        );
    }
    for removed in [
        &["--bench"][..],
        &["--shards", "4"],
        &["--incremental"],
        &["--backend", "epoll"],
    ] {
        let stderr = rejected(removed);
        let flag = removed[0];
        assert!(
            stderr.contains(&format!("unknown argument '{flag}'"))
                && stderr.contains("usage: rpi-queryd"),
            "{flag} must be unknown, with the usage line:\n{stderr}"
        );
    }
}

/// Every at-least-1 numeric flag spells its two rejections the same way
/// (`wants <noun>, got '<value>'` / `must be at least 1`), and the serve
/// tunables are rejected without `--listen` at their default values too
/// — the way `--window` is without `--follow`.
#[test]
fn numeric_and_serve_only_flags_fail_fast() {
    for (flag, noun) in [
        ("--snapshots", "a count"),
        ("--hot-cap", "a count"),
        ("--keyframe-every", "a count"),
        ("--max-conns", "a count"),
        ("--write-buf-cap", "bytes"),
        ("--serve-threads", "a count"),
        ("--idle-timeout", "seconds"),
        ("--window", "a count"),
        ("--metrics-interval", "seconds"),
        ("--slow-query-ms", "milliseconds"),
    ] {
        assert_eq!(
            rejected(&[flag, "x"]),
            format!("rpi-queryd: {flag} wants {noun}, got 'x'\n")
        );
        assert_eq!(
            rejected(&[flag, "0"]),
            format!("rpi-queryd: {flag} must be at least 1\n")
        );
        assert!(rejected(&[flag]).starts_with(&format!("rpi-queryd: {flag} needs a value\n")));
    }
    for args in [
        ["--max-conns", "64"],
        ["--write-buf-cap", "262144"],
        ["--serve-threads", "1"],
        ["--idle-timeout", "30"],
    ] {
        assert_eq!(
            rejected(&args),
            format!("rpi-queryd: {} needs --listen\n", args[0]),
        );
    }
}

/// The flag with a value its own parser accepts. The paths do not
/// exist: a rejected combination must be reported before any of them is
/// opened.
fn with_value(flag: &'static str) -> Vec<&'static str> {
    match flag {
        "--force" => vec![flag],
        "--queries" | "--save" | "--archive" | "--listen" | "--follow" | "--spill"
        | "--emit-deltas" | "--metrics-file" => vec![flag, "/tmp/rpi-no-such-dir/x"],
        // Every other flag in the tables below counts something.
        _ => vec![flag, "7"],
    }
}

/// Every "rides on" and "contradicts" pair the flag table declares, with
/// the one spelling each kind of rejection has: exit 1, one line, before
/// any input is opened or any world built. The three cases that used to
/// be accepted and ignored — `--force` without `--save`,
/// `--emit-delay-ms` without `--emit-deltas`, `--save` with `--queries`
/// — are rows like any other.
#[test]
fn every_flag_pair_is_rejected_with_the_generated_message() {
    for (child, parents) in [
        ("--force", "--save"),
        ("--keyframe-every", "--save or --follow"),
        ("--hot-cap", "--archive"),
        ("--max-conns", "--listen"),
        ("--write-buf-cap", "--listen"),
        ("--serve-threads", "--listen"),
        ("--idle-timeout", "--listen"),
        ("--window", "--follow"),
        ("--spill", "--follow"),
        ("--emit-delay-ms", "--emit-deltas"),
        ("--metrics-interval", "--listen or --follow"),
        ("--metrics-file", "--metrics-interval"),
    ] {
        assert_eq!(
            rejected(&with_value(child)),
            format!("rpi-queryd: {child} needs {parents}\n")
        );
    }
    for (flag, excluded) in [
        ("--save", "--queries"),
        ("--listen", "--queries"),
        ("--listen", "--save"),
        ("--follow", "--queries"),
        ("--follow", "--save"),
        ("--follow", "--archive"),
        ("--emit-deltas", "--follow"),
        ("--emit-deltas", "--listen"),
        ("--emit-deltas", "--queries"),
        ("--emit-deltas", "--save"),
        ("--emit-deltas", "--archive"),
    ] {
        // Either order on the command line, same message.
        for args in [
            [with_value(flag), with_value(excluded)].concat(),
            [with_value(excluded), with_value(flag)].concat(),
        ] {
            assert_eq!(
                rejected(&args),
                format!("rpi-queryd: {flag} cannot be combined with {excluded}\n"),
                "{args:?}"
            );
        }
    }
}

/// `--help` exits 0 and its flag list names exactly the flags of the
/// usage line — both are generated from one table, 23 rows.
#[test]
fn help_lists_the_flags_of_the_usage_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_rpi-queryd"))
        .arg("--help")
        .output()
        .expect("rpi-queryd runs");
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stderr.is_empty());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 help");
    let usage = stdout.lines().next().expect("usage line first");
    assert!(usage.starts_with("usage: rpi-queryd ["), "{usage}");
    let mut in_usage: Vec<&str> = usage
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|w| w.starts_with("--"))
        .collect();
    in_usage.sort_unstable();
    in_usage.dedup();
    let mut in_help: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("  --"))
        .map(|l| &l[..l.find(' ').unwrap_or(l.len())])
        .collect();
    assert_eq!(in_help.len(), 23, "{in_help:?}");
    in_help.sort_unstable();
    let in_help: Vec<String> = in_help.iter().map(|f| format!("--{f}")).collect();
    assert_eq!(in_usage, in_help);
    assert!(
        usage.contains("[--follow FILE [--keyframe-every N]"),
        "--keyframe-every rides on --follow too: {usage}"
    );
}

#[test]
fn missing_archive_directory_errors_cleanly() {
    let out = Command::new(env!("CARGO_BIN_EXE_rpi-queryd"))
        .args(["--archive", "/tmp/rpi-archive-does-not-exist"])
        .output()
        .expect("rpi-queryd runs");
    assert!(!out.status.success(), "a missing archive must fail the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("/tmp/rpi-archive-does-not-exist is not an rpi-store archive"),
        "error must name the path on one line:\n{stderr}"
    );
}

/// Bugfix coverage: a malformed `--roas` file fails before the world
/// build with the same `path:line:` spelling as `--queries` errors.
#[test]
fn bad_roa_files_name_the_line() {
    let dir = std::env::temp_dir().join(format!("rpi-queryd-roas-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.roas");
    std::fs::write(&path, "# fine\n4.0.0.0/13-24 AS5000\n4.0.0.0/13-7 AS5000\n").unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_rpi-queryd"))
        .args(["--size", "tiny", "--seed", "11"])
        .arg("--roas")
        .arg(&path)
        .output()
        .expect("rpi-queryd runs");
    std::fs::remove_dir_all(&dir).ok();

    assert!(!out.status.success(), "a bad ROA line must fail the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("bad.roas:3:"),
        "stderr must locate the bad line:\n{stderr}"
    );
    assert!(
        !stderr.contains("building"),
        "must fail before the world build:\n{stderr}"
    );
}

#[test]
fn bad_query_files_name_the_line() {
    let dir = std::env::temp_dir().join(format!("rpi-queryd-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.q");
    std::fs::write(&path, "# fine\nroute AS1 4.0.0.0/13\nfrobnicate AS1\n").unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_rpi-queryd"))
        .args(["--size", "tiny", "--seed", "11"])
        .arg("--queries")
        .arg(&path)
        .output()
        .expect("rpi-queryd runs");
    std::fs::remove_dir_all(&dir).ok();

    assert!(!out.status.success(), "a bad line must fail the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("bad.q:3:") && stderr.contains("unknown query 'frobnicate'"),
        "stderr must locate the bad line and name the verb:\n{stderr}"
    );
    assert!(
        stderr.contains("route <vantage> <prefix>"),
        "unknown queries must list the grammar:\n{stderr}"
    );
}
