//! The CI smoke client for the `rpi_query::serve` TCP front end, over
//! plain `TcpStream`s:
//!
//! * [`drive_script`] — send a query script in the shared `proto` wire
//!   grammar, read every response until the server closes, return the
//!   byte stream for golden diffing (a stand-in for `nc` that never
//!   depends on runner netcat flavors).
//! * [`open_idle_conns`] — the scale smoke's idle-connection population.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

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
