//! # `rpi_query::serve` — the non-blocking TCP front end
//!
//! Turns a shared [`QueryEngine`](crate::QueryEngine) into a network
//! service speaking the same newline-delimited [`proto`](crate::proto)
//! grammar as the stdin REPL — byte-identically, which the CI network
//! smoke enforces by diffing TCP-served output for the committed smoke
//! script against the stdin golden.
//!
//! The design is a readiness event loop over nonblocking std sockets
//! (no tokio, no mio — the build is registry-free). Readiness comes
//! from a pluggable [`PollBackend`]: the portable `sweep` fallback
//! attempts every syscall and treats `WouldBlock` as "not ready", while
//! the Linux `epoll` backend (a thin audited `extern "C"` shim in
//! `rpi-epoll`) gets real kernel notification so idle connections cost
//! nothing. `serve_threads = N` shards connections across N copies of
//! the same loop behind a dedicated acceptor, and that is where lookup
//! parallelism comes from: a connection's queries run in order on the
//! loop thread that read them, and
//! [`execute_batch`](crate::QueryEngine::execute_batch) spreads only a
//! batch's scans (history verbs, `diff`, `leaks`) over helper threads:
//!
//! * **Framing** ([`LineFramer`](crate::proto::LineFramer)): requests
//!   are lines; a query byte-split across TCP segments reassembles, and
//!   a line over the cap becomes one in-band `error line N: …` response
//!   instead of unbounded buffering — the connection survives. Lines
//!   are borrowed from the read buffer and answers are written straight
//!   into the write buffer: the path allocates nothing per query.
//! * **Pipelining**: every parseable query in one read is executed as a
//!   single engine batch, so a client that writes N lines per segment
//!   pays one read, one batch and one write for all N, and has its
//!   scans overlapped, without any protocol change.
//! * **Backpressure**: each connection's rendered-but-unsent output is
//!   bounded by [`ServeConfig::write_buf_cap`]; past it the server stops
//!   *reading* that connection until the buffer drains, so a slow
//!   consumer throttles itself instead of growing the heap.
//! * **Shedding**: connections idle (or permanently backpressured)
//!   longer than [`ServeConfig::idle_timeout`] are dropped and counted.
//! * **Shutdown without signals**: the `shutdown` control verb (or
//!   [`ServerHandle::shutdown`]) stops the loop, flushes every
//!   connection, and [`Server::run`] returns the final [`ServeStats`].
//!
//! ```no_run
//! use std::sync::Arc;
//! use rpi_query::serve::{ServeConfig, Server};
//! use rpi_query::QueryEngine;
//!
//! let engine = Arc::new(QueryEngine::default());
//! let server = Server::bind(engine, "127.0.0.1:0", ServeConfig::default())?;
//! println!("listening on {}", server.local_addr()?);
//! let stats = server.run()?; // until a `shutdown` line arrives
//! println!("{}", stats.render());
//! # std::io::Result::Ok(())
//! ```

mod conn;
mod event_loop;
pub(crate) mod poll;
pub mod session;

use std::time::Duration;

pub use event_loop::{EngineSource, Server, ServerHandle};
pub use poll::PollBackend;

/// Tunables of the serve loop. `Default` matches the daemon's CLI
/// defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Connections served concurrently; everything past this is answered
    /// with an in-band `error: server full (…)` notice and closed.
    pub max_conns: usize,
    /// Per-connection cap on rendered-but-unsent response bytes. A
    /// connection over the cap stops being read (backpressure) until it
    /// drains. One processing round may overshoot by its own rendered
    /// output; the cap bounds *growth*, which [`ServeStats::max_write_buf`]
    /// makes observable.
    pub write_buf_cap: usize,
    /// Connections with no byte movement in either direction for this
    /// long are shed (counted in [`ServeStats::shed_idle`]).
    pub idle_timeout: Duration,
    /// Longest accepted request line; longer lines get an in-band error
    /// and are discarded to their terminator.
    pub max_line_len: usize,
    /// Readiness backend; `Default` is [`PollBackend::auto`] (epoll
    /// where supported). How the loop idles is the backend's own
    /// business, not a tunable.
    pub backend: PollBackend,
    /// Event-loop shard threads. `1` (default) keeps the listener
    /// inline in a single loop — the original topology; `N > 1` runs a
    /// dedicated acceptor distributing connections round-robin across N
    /// shard loops.
    pub serve_threads: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_conns: 64,
            write_buf_cap: 256 * 1024,
            idle_timeout: Duration::from_secs(30),
            max_line_len: 16 * 1024,
            backend: PollBackend::auto(),
            serve_threads: 1,
        }
    }
}

/// A snapshot of the server's counters — live via
/// [`ServerHandle::stats`], final from [`Server::run`] (what the daemon
/// prints on shutdown). A *view*: every field reads the engine's
/// metrics registry, so a snapshot taken mid-load and the `metrics`
/// exposition can never disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStats {
    /// Connections accepted and served.
    pub accepted: u64,
    /// Connections turned away (over capacity or setup failure).
    pub rejected: u64,
    /// Connections open at snapshot time.
    pub active: u64,
    /// Grammar queries executed.
    pub queries: u64,
    /// In-band error responses (garbage/oversized lines, execution
    /// errors).
    pub errors: u64,
    /// Request bytes consumed.
    pub bytes_in: u64,
    /// Response bytes written.
    pub bytes_out: u64,
    /// Connections shed by the idle timeout.
    pub shed_idle: u64,
    /// High-water mark of any connection's pending write buffer.
    pub max_write_buf: u64,
    /// Time since the server bound its listener.
    pub elapsed: Duration,
}

impl ServeStats {
    /// Queries per second averaged over the server's **lifetime** —
    /// which understates bursty load (a 10 s burst at 500k q/s inside a
    /// 100 s run averages to 50k q/s). The interval emitter
    /// (`--metrics-interval`) feeds per-interval rates into
    /// [`crate::metrics::QueryMetrics::note_interval_qps`], whose peak
    /// the daemon reports next to this lifetime figure on exit.
    pub fn queries_per_sec(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s > 0.0 {
            self.queries as f64 / s
        } else {
            0.0
        }
    }

    /// The one-line summary the daemon prints on shutdown: the serve
    /// counters only. The engine's tier and security state have their
    /// own lines ([`session::tier_line`], [`session::sec_line`]), which
    /// the daemon prints after this one.
    pub fn render(&self) -> String {
        format!(
            "served {} queries over {} connections in {:.2?} ({:.0} queries/s lifetime): \
             {} B in / {} B out, {} errors, {} rejected, {} shed idle, write-buf peak {} B",
            self.queries,
            self.accepted,
            self.elapsed,
            self.queries_per_sec(),
            self.bytes_in,
            self.bytes_out,
            self.errors,
            self.rejected,
            self.shed_idle,
            self.max_write_buf,
        )
    }
}
