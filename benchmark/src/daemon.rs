//! The daemon under test: the real `rpi-queryd` binary as a
//! subprocess, on an ephemeral loopback port, behind a guard that never
//! leaves it running.
//!
//! The harness relies only on the daemon's documented surface: its
//! flags, the `serving on <addr>` banner line on stderr, and the
//! `ping` / `shutdown` control verbs.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Longest the harness waits on any single daemon interaction before it
/// calls the run failed. History queries take up to ~0.2 s and a cold
/// Paper archive loads in ~0.3 s, so ten seconds means "hung".
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. It is
/// 100 on every Linux ABI (the kernel scales to it whatever `CONFIG_HZ`
/// is), and the build has no libc crate to ask `sysconf`.
const USER_HZ: f64 = 100.0;

/// CPU seconds (`utime + stime`, every thread, exited ones included)
/// process `pid` has used so far; `"self"` is the harness.
pub fn cpu_seconds_of(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(utime), Some(stime)) => Ok((utime + stime) / USER_HZ),
        _ => Err(format!("{path}: unexpected format")),
    }
}

/// A running daemon. Dropping it sends `shutdown`, waits briefly, then
/// kills — on success, failure and panic alike.
pub struct Daemon {
    child: Child,
    addr: SocketAddr,
    stderr: Option<std::thread::JoinHandle<Vec<String>>>,
}

/// Counters read from `/proc/<pid>/status`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcStatus {
    /// `VmHWM` in MiB: the peak resident set.
    pub hwm_mib: f64,
    /// `VmRSS` in MiB: the resident set right now.
    pub rss_mib: f64,
    /// `Threads`.
    pub threads: u64,
    /// `voluntary_ctxt_switches + nonvoluntary_ctxt_switches` of the
    /// main thread (the serve loop).
    pub ctx_switches: u64,
}

impl Daemon {
    /// Spawns `bin args… --listen 127.0.0.1:0`, waits for the banner and
    /// for the first `pong`. Returns the daemon and the launch → `pong`
    /// time, which is what `setup_s` reports.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<(Daemon, Duration), String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let pipe = child.stderr.take().expect("stderr was piped");
        let (tx, rx) = mpsc::channel();
        // The reader outlives the banner: a `--follow` daemon logs one
        // line per publication, and a full pipe would stall it.
        let stderr = std::thread::spawn(move || {
            let mut tail: Vec<String> = Vec::new();
            for line in BufReader::new(pipe).lines() {
                let Ok(line) = line else { break };
                if let Some(rest) = line.strip_prefix("serving on ") {
                    let addr = rest.split_whitespace().next().and_then(|a| a.parse().ok());
                    let _ = tx.send(addr);
                }
                if tail.len() == 20 {
                    tail.remove(0);
                }
                tail.push(line);
            }
            tail
        });
        let mut daemon = Daemon {
            child,
            addr: "0.0.0.0:0".parse().expect("literal address"),
            stderr: Some(stderr),
        };
        match rx.recv_timeout(IO_TIMEOUT) {
            Ok(Some(addr)) => daemon.addr = addr,
            Ok(None) => return Err("daemon printed an unparsable 'serving on' banner".into()),
            Err(_) => {
                return Err(format!(
                    "daemon did not print its banner within {IO_TIMEOUT:?}:\n{}",
                    daemon.kill_and_collect()
                ))
            }
        }
        let mut conn = daemon.connect()?;
        conn.write_all(b"ping\n")
            .map_err(|e| format!("ping: {e}"))?;
        let mut pong = [0u8; 5];
        conn.read_exact(&mut pong)
            .map_err(|e| format!("no pong: {e}"))?;
        if &pong != b"pong\n" {
            return Err(format!(
                "expected 'pong', got {:?}",
                String::from_utf8_lossy(&pong)
            ));
        }
        let ready = t0.elapsed();
        let _ = conn.write_all(b"quit\n");
        Ok((daemon, ready))
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// A fresh connection with `TCP_NODELAY` and [`IO_TIMEOUT`] on both
    /// directions: a hung daemon fails the run instead of hanging it.
    pub fn connect(&self) -> Result<TcpStream, String> {
        let s = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)
            .map_err(|e| format!("connect {}: {e}", self.addr))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        s.set_write_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(s)
    }

    /// CPU seconds (`utime + stime`) the daemon has used so far.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        cpu_seconds_of(&self.pid().to_string())
    }

    /// Peak RSS, thread count and context switches right now.
    pub fn status(&self) -> Result<ProcStatus, String> {
        let path = format!("/proc/{}/status", self.pid());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let mut out = ProcStatus::default();
        for line in text.lines() {
            let Some((key, value)) = line.split_once(':') else {
                continue;
            };
            let number = value
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
            match key {
                "VmHWM" => out.hwm_mib = number as f64 / 1024.0,
                "VmRSS" => out.rss_mib = number as f64 / 1024.0,
                "Threads" => out.threads = number,
                "voluntary_ctxt_switches" | "nonvoluntary_ctxt_switches" => {
                    out.ctx_switches += number
                }
                _ => {}
            }
        }
        Ok(out)
    }

    /// Stops the daemon with the `shutdown` verb and waits for it to
    /// exit; a daemon that does not is killed and reported.
    pub fn shutdown(mut self) -> Result<(), String> {
        if self.stop(true) {
            Ok(())
        } else {
            Err("daemon ignored 'shutdown' and had to be killed".into())
        }
    }

    /// `true` if the daemon left on its own after `shutdown`.
    fn stop(&mut self, wait: bool) -> bool {
        if matches!(self.child.try_wait(), Ok(Some(_))) {
            self.join_stderr();
            return true;
        }
        if let Ok(mut conn) = self.connect() {
            let _ = conn.write_all(b"shutdown\n");
        }
        let deadline = Instant::now()
            + if wait {
                IO_TIMEOUT
            } else {
                Duration::from_secs(2)
            };
        let mut clean = false;
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                clean = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        if !clean {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        self.join_stderr();
        clean
    }

    fn join_stderr(&mut self) -> Vec<String> {
        self.stderr
            .take()
            .and_then(|t| t.join().ok())
            .unwrap_or_default()
    }

    fn kill_and_collect(&mut self) -> String {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.join_stderr().join("\n")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop(false);
    }
}
