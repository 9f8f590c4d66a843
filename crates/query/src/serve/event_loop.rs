//! The readiness event loop: every socket nonblocking, each iteration
//! services whatever the readiness backend reports — accepts, reads,
//! batch execution, writes — and tells the backend whether anything
//! moved, which is all the backend needs to idle well.
//!
//! std-only by design (the build has no registry access, so no mio or
//! tokio). Readiness comes from the platform's [`poll`] backend: on
//! Linux `epoll` gets real kernel notification, so 10k idle connections
//! cost nothing per wait; elsewhere the portable sweep reports every
//! socket ready and lets `WouldBlock` sort it out (O(conns) per sweep).
//!
//! Scaling out: `serve_threads = N` runs N copies of one shard loop.
//! Each registers the shared nonblocking listener in its own poller and
//! accepts for itself, so a connection belongs to whichever shard woke
//! first and owns it from then on; one thread is the same loop with one
//! copy. Every shard runs the identical conn/session/backpressure state
//! machine against the shared [`EngineSource`]; counters are the
//! engine's registry atomics (shared by construction), capacity is
//! enforced through two process-wide atomic counters, and on a sharded
//! server the loop gauges carry per-shard labeled instances next to the
//! aggregate.

use std::io::{self};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::engine::QueryEngine;
use crate::metrics::QueryMetrics;
use crate::serve::conn::Conn;
use crate::serve::poll::{self, Interest, Poller, LISTENER_TOKEN, TICK};
use crate::serve::{ServeConfig, ServeStats};

/// How long [`Shard::drain`] gives connections to take their buffered
/// responses at shutdown.
const DRAIN_WINDOW: Duration = Duration::from_millis(200);

/// The [`ServeStats`] view of the engine's metrics registry. The
/// registry `Arc` is pinned once at construction — in live mode every
/// published epoch shares the base engine's registry, so it stays valid
/// across epoch swaps.
fn stats_view(m: &QueryMetrics, started: Instant) -> ServeStats {
    ServeStats {
        accepted: m.serve_accepted_total.get(),
        rejected: m.serve_rejected_total.get(),
        active: m.serve_active_connections.get() as u64,
        queries: m.total_queries(),
        errors: m.serve_errors_total.get(),
        bytes_in: m.serve_bytes_in_total.get(),
        bytes_out: m.serve_bytes_out_total.get(),
        shed_idle: m.serve_shed_idle_total.get(),
        max_write_buf: m.serve_write_buf_peak_bytes.get() as u64,
        elapsed: started.elapsed(),
    }
}

/// Where the serve loop gets its world: one frozen engine for the
/// server's lifetime, or a live publication handle whose **current
/// epoch** is loaded once per processing round — so every batch (and
/// every listing) runs against one consistent world even while the
/// writer publishes the next snapshot.
#[derive(Debug, Clone)]
pub enum EngineSource {
    /// One immutable engine (the pre-live behavior, byte-identical).
    Frozen(Arc<QueryEngine>),
    /// Epoch-published engines from a live ingest writer.
    Live(Arc<crate::live::LiveHandle>),
}

impl EngineSource {
    /// The engine to run the next batch against.
    pub fn current(&self) -> Arc<QueryEngine> {
        match self {
            EngineSource::Frozen(e) => Arc::clone(e),
            EngineSource::Live(h) => h.current(),
        }
    }
}

impl From<Arc<QueryEngine>> for EngineSource {
    fn from(engine: Arc<QueryEngine>) -> EngineSource {
        EngineSource::Frozen(engine)
    }
}

impl From<Arc<crate::live::LiveHandle>> for EngineSource {
    fn from(handle: Arc<crate::live::LiveHandle>) -> EngineSource {
        EngineSource::Live(handle)
    }
}

/// A remote control for a running [`Server`]: request shutdown and read
/// live stats from any thread.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    metrics: Arc<QueryMetrics>,
    shutdown: Arc<AtomicBool>,
    started: Instant,
}

impl ServerHandle {
    /// Asks the serve loop to stop (every shard notices within one poll
    /// tick, flushes its connections, and [`Server::run`] returns the
    /// final stats).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    /// A live snapshot of the server's counters.
    pub fn stats(&self) -> ServeStats {
        stats_view(&self.metrics, self.started)
    }
}

/// Process-wide connection accounting shared by every shard. Capacity
/// decisions are made against these (no shard owns a connection vector
/// the others could count), reserved with fetch-add-then-undo
/// ([`reserve`]) so concurrent accepts stay exact.
#[derive(Debug)]
struct SharedCounters {
    /// Live (non-closing) sessions — the `max_conns` capacity measure.
    live: AtomicUsize,
    /// Every open connection in a shard slab (live + draining) — the
    /// hard fd-cap measure.
    open: AtomicUsize,
    /// Per-shard pending-write totals, summed into the aggregate
    /// `rpi_serve_write_buf_bytes` gauge by whichever shard updates
    /// last.
    wbuf: Vec<AtomicU64>,
}

impl SharedCounters {
    fn new(shards: usize) -> SharedCounters {
        SharedCounters {
            live: AtomicUsize::new(0),
            open: AtomicUsize::new(0),
            wbuf: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// Takes one unit of `counter` if it stays below `cap`: add first, undo
/// when over, so two shards admitting at once can never both take the
/// last unit.
fn reserve(counter: &AtomicUsize, cap: usize) -> bool {
    if counter.fetch_add(1, Ordering::Relaxed) < cap {
        true
    } else {
        counter.fetch_sub(1, Ordering::Relaxed);
        false
    }
}

/// The TCP front end: a bound listener plus the shared engine, run by
/// [`Server::run`] until a `shutdown` control line or
/// [`ServerHandle::shutdown`].
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    engine: EngineSource,
    cfg: ServeConfig,
    metrics: Arc<QueryMetrics>,
    shutdown: Arc<AtomicBool>,
    started: Instant,
}

impl Server {
    /// Binds the listener and prepares the loop over a frozen
    /// `Arc<QueryEngine>` or a live `Arc<LiveHandle>` (anything that is
    /// `Into<EngineSource>`). The world is shared by `Arc`: the caller
    /// keeps its clone for direct queries (tests compare served
    /// responses against `engine.execute`).
    pub fn bind(
        engine: impl Into<EngineSource>,
        addr: impl ToSocketAddrs,
        cfg: ServeConfig,
    ) -> io::Result<Server> {
        Server::with_listener(engine, TcpListener::bind(addr)?, cfg)
    }

    /// Wraps an already-bound listener (lets a caller validate the
    /// address *before* building an engine, as `rpi-queryd --listen`
    /// does). The listener is switched to nonblocking mode here.
    pub fn with_listener(
        engine: impl Into<EngineSource>,
        listener: TcpListener,
        cfg: ServeConfig,
    ) -> io::Result<Server> {
        listener.set_nonblocking(true)?;
        let engine = engine.into();
        let metrics = engine.current().metrics_arc();
        Ok(Server {
            listener,
            engine,
            cfg,
            metrics,
            shutdown: Arc::new(AtomicBool::new(false)),
            started: Instant::now(),
        })
    }

    /// The actually-bound address (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle for shutdown and live stats, usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            metrics: Arc::clone(&self.metrics),
            shutdown: Arc::clone(&self.shutdown),
            started: self.started,
        }
    }

    /// Runs `serve_threads` identical shard loops until shutdown and
    /// returns the final stats snapshot. Every shard is built — poller
    /// created, listener registered — before any of them starts; shard
    /// 0 then runs on the calling thread and the rest on scoped threads.
    pub fn run(self) -> io::Result<ServeStats> {
        let m = Arc::clone(&self.metrics);
        let threads = self.cfg.serve_threads.max(1);
        let shared = SharedCounters::new(threads);
        let mut shards = (0..threads)
            .map(|id| Shard::new(id, &self, &shared))
            .collect::<io::Result<Vec<_>>>()?;
        let first = shards.remove(0);
        let run_result = std::thread::scope(|scope| {
            let joins: Vec<_> = shards
                .into_iter()
                .map(|shard| scope.spawn(move || shard.run()))
                .collect();
            let mut result = first.run();
            for join in joins {
                let r = join
                    .join()
                    .unwrap_or_else(|_| Err(io::Error::other("serve shard panicked")));
                if result.is_ok() {
                    result = r;
                }
            }
            result
        });
        m.serve_active_connections.set_u64(0);
        m.serve_write_buf_bytes.set_u64(0);
        run_result?;
        Ok(stats_view(&m, self.started))
    }
}

/// One event-loop shard: a readiness backend instance watching the
/// shared listener, plus the slab of connections it accepted and owns.
/// A server runs `serve_threads` of them.
struct Shard<'a> {
    id: usize,
    cfg: &'a ServeConfig,
    engine: EngineSource,
    m: Arc<QueryMetrics>,
    shutdown: &'a AtomicBool,
    shared: &'a SharedCounters,
    /// Hard bound on open sockets: served sessions plus a bounded tail
    /// of closing/rejected ones still draining their final bytes. Past
    /// it, accepts are dropped outright (no notice, no linger) — under a
    /// connection flood, shedding beats running out of file descriptors.
    hard_cap: usize,
    listener: &'a TcpListener,
    /// The listener is registered with no interest (see
    /// [`Shard::arm_listener`]) until the next [`Shard::maintain`].
    listener_parked: bool,
    /// `shard="N"`-labeled (active, write-buf) gauge instances; `None`
    /// on a single-shard server, whose exposition carries no shard
    /// labels.
    gauges: Option<(Arc<rpi_obs::Gauge>, Arc<rpi_obs::Gauge>)>,
    poller: Box<dyn Poller>,
    /// Token-indexed connection slab; freed slots are reused so tokens
    /// stay dense and far below [`LISTENER_TOKEN`].
    slab: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Last interest submitted per token (avoids redundant reregisters).
    interests: Vec<Interest>,
    local_live: usize,
    rbuf: Vec<u8>,
}

impl<'a> Shard<'a> {
    /// Shard `id` of `server`: creates its poller and registers the
    /// listener in it, the two steps that can fail.
    fn new(id: usize, server: &'a Server, shared: &'a SharedCounters) -> io::Result<Shard<'a>> {
        let mut poller = poll::make_poller()?;
        let listen = Interest {
            read: true,
            write: false,
        };
        poller.register(poll::fd_of(&server.listener), LISTENER_TOKEN, listen)?;
        let cfg = &server.cfg;
        let m = Arc::clone(&server.metrics);
        Ok(Shard {
            id,
            cfg,
            engine: server.engine.clone(),
            gauges: (shared.wbuf.len() > 1).then(|| m.shard_gauges(id)),
            m,
            shutdown: &server.shutdown,
            shared,
            hard_cap: cfg.max_conns + cfg.max_conns.clamp(16, 256),
            listener: &server.listener,
            listener_parked: false,
            poller,
            slab: Vec::new(),
            free: Vec::new(),
            interests: Vec::new(),
            local_live: 0,
            rbuf: vec![0u8; 64 * 1024],
        })
    }

    fn run(mut self) -> io::Result<()> {
        let mut ready: Vec<usize> = Vec::new();
        let mut fresh: Vec<usize> = Vec::new();
        let mut busy = false;
        // Idle shedding and gauge refresh run as a periodic maintenance
        // pass: under epoll a quiet connection raises no events, so
        // per-event bookkeeping alone would never time it out.
        let maint_interval = (self.cfg.idle_timeout / 4).clamp(TICK, Duration::from_secs(1));
        let mut last_maint = Instant::now();
        while !self.shutdown.load(Ordering::Relaxed) {
            self.poller.wait(busy, &mut ready)?;

            let sweep_start = Instant::now();
            let mut progressed = false;
            fresh.clear();
            // The epoch is loaded once per round: every batch processed
            // this round — queries and listings alike — sees one
            // consistent world, and a live writer publishing mid-round
            // is observed only from the next one.
            let epoch = self.engine.current();
            for &token in &ready {
                if token == LISTENER_TOKEN {
                    progressed |= self.accept_sweep(&mut fresh);
                } else {
                    progressed |= self.service(token, &epoch);
                }
            }
            for &token in &fresh {
                progressed |= self.service(token, &epoch);
            }

            let now = Instant::now();
            if now.duration_since(last_maint) >= maint_interval {
                last_maint = now;
                self.maintain(now);
            }
            if progressed {
                // Only rounds that moved bytes are worth timing: an idle
                // tick measures the backend's wait, not the loop.
                self.m.serve_sweep_seconds.record(sweep_start.elapsed());
            }
            busy = progressed;
        }
        self.drain();
        Ok(())
    }

    /// Accepts everything pending on the listener, admitting each socket
    /// into the slab. Another shard woken by the same connection finds
    /// the queue empty (`WouldBlock`) and goes back to waiting.
    fn accept_sweep(&mut self, fresh: &mut Vec<usize>) -> bool {
        let mut progressed = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    progressed = true;
                    if let Some(token) = self.admit(stream) {
                        fresh.push(token);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // The peer reset mid-handshake: its connection is gone
                // from the queue, so the next one can be taken.
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                // Out of descriptors (EMFILE, ENFILE, ENOBUFS, …): the
                // connection stays queued and the listener stays
                // readable, so waiting on it again would spin the loop.
                Err(_) => {
                    self.arm_listener(false);
                    break;
                }
            }
        }
        progressed
    }

    /// Sets this shard's read interest in the listener. Parked, the loop
    /// keeps serving its open connections and no longer wakes for
    /// accepts; [`Shard::maintain`] re-arms it.
    fn arm_listener(&mut self, read: bool) {
        let (fd, interest) = (poll::fd_of(self.listener), Interest { read, write: false });
        if self.poller.reregister(fd, LISTENER_TOKEN, interest).is_ok() {
            self.listener_parked = !read;
        }
    }

    /// Takes ownership of an accepted socket: capacity check (the open
    /// socket and the live session are each *reserved* on the shared
    /// counters, so concurrent shards stay exact), over-capacity in-band
    /// notice, slab insert, poller registration.
    fn admit(&mut self, stream: TcpStream) -> Option<usize> {
        let m = Arc::clone(&self.m);
        if !reserve(&self.shared.open, self.hard_cap) {
            m.serve_rejected_total.inc();
            return None;
        }
        let mut c = match Conn::new(stream, self.cfg.max_line_len) {
            Ok(c) => c,
            Err(_) => {
                self.shared.open.fetch_sub(1, Ordering::Relaxed);
                m.serve_rejected_total.inc();
                return None;
            }
        };
        if reserve(&self.shared.live, self.cfg.max_conns) {
            m.serve_accepted_total.inc();
            c.counted_live = true;
            self.local_live += 1;
        } else {
            // Overload: answer in-band, flush, close.
            m.serve_rejected_total.inc();
            c.push_notice(&format!(
                "error: server full ({} connections)",
                self.cfg.max_conns
            ));
            c.closing = true;
        }
        let interest = desired_interest(&c, self.cfg.write_buf_cap);
        let fd = c.raw_fd();
        let token = match self.free.pop() {
            Some(t) => {
                self.slab[t] = Some(c);
                t
            }
            None => {
                self.slab.push(Some(c));
                self.interests.push(Interest::default());
                self.slab.len() - 1
            }
        };
        if self.poller.register(fd, token, interest).is_err() {
            // A socket the backend cannot watch cannot be served.
            self.remove(token, false);
            m.serve_rejected_total.inc();
            return None;
        }
        self.interests[token] = interest;
        self.publish_active();
        Some(token)
    }

    /// One service round for one connection: flush, read-and-execute
    /// unless closing/backpressured, flush the fresh output, then
    /// close-bookkeeping. Returns whether any byte moved.
    fn service(&mut self, token: usize, epoch: &Arc<QueryEngine>) -> bool {
        let m = Arc::clone(&self.m);
        let Some(c) = self.slab.get_mut(token).and_then(|s| s.as_mut()) else {
            // Stale readiness for a slot freed (or reused) this round.
            return false;
        };
        let now = Instant::now();
        let mut progressed = false;
        let mut drop_conn = false;
        match c.flush() {
            Ok(n) if n > 0 => {
                progressed = true;
                m.serve_bytes_out_total.add(n);
                c.last_activity = now;
            }
            Ok(_) => {}
            Err(_) => drop_conn = true,
        }
        let backpressured = c.pending_write() > self.cfg.write_buf_cap;
        if !drop_conn && !c.closing && !backpressured {
            match c.read_and_process(epoch, &mut self.rbuf) {
                Ok(out) => {
                    if out.bytes_in > 0 {
                        progressed = true;
                        m.serve_bytes_in_total.add(out.bytes_in);
                        c.last_activity = now;
                    }
                    m.serve_errors_total.add(out.errors);
                    if out.eof {
                        c.closing = true;
                    }
                    if out.shutdown {
                        self.shutdown.store(true, Ordering::Relaxed);
                    }
                }
                Err(_) => drop_conn = true,
            }
            if !drop_conn {
                // Push freshly rendered responses out in the same round;
                // leftovers stay for the next one.
                match c.flush() {
                    Ok(n) if n > 0 => {
                        progressed = true;
                        m.serve_bytes_out_total.add(n);
                        c.last_activity = now;
                    }
                    Ok(_) => {}
                    Err(_) => drop_conn = true,
                }
            }
        }
        m.serve_write_buf_peak_bytes
            .set_max(c.pending_write() as f64);
        if !drop_conn && c.wants_close() {
            // Done and fully flushed: half-close, then linger discarding
            // the peer's remaining input — closing with unread bytes
            // queued would RST away the final responses. The idle
            // timeout bounds the linger if the peer never hangs up.
            c.send_fin();
            match c.discard_input(&mut self.rbuf) {
                Ok(true) | Err(_) => drop_conn = true,
                Ok(false) => {}
            }
        }
        // `active` counts live sessions; closing connections are drains
        // in progress, not service.
        if c.counted_live && c.closing {
            c.counted_live = false;
            self.local_live -= 1;
            self.shared.live.fetch_sub(1, Ordering::Relaxed);
            self.publish_active();
        }
        if drop_conn {
            self.remove(token, false);
        } else {
            self.update_interest(token);
        }
        progressed
    }

    /// Drops a connection: poller deregistration, slab slot reuse,
    /// shared-counter release, optional shed accounting.
    fn remove(&mut self, token: usize, shed: bool) {
        if let Some(mut c) = self.slab.get_mut(token).and_then(|s| s.take()) {
            if shed {
                self.m.serve_shed_idle_total.inc();
            }
            if c.counted_live {
                c.counted_live = false;
                self.local_live -= 1;
                self.shared.live.fetch_sub(1, Ordering::Relaxed);
            }
            let _ = self.poller.deregister(c.raw_fd(), token);
            drop(c);
            self.shared.open.fetch_sub(1, Ordering::Relaxed);
            self.free.push(token);
            self.publish_active();
        }
    }

    /// Re-submits a connection's interest when it changed: read while
    /// not backpressured (or while discarding a closing connection's
    /// input), write only while output is pending — so an idle epoll
    /// connection parks with read-only interest and costs nothing.
    fn update_interest(&mut self, token: usize) {
        let Some(c) = self.slab.get(token).and_then(|s| s.as_ref()) else {
            return;
        };
        let want = desired_interest(c, self.cfg.write_buf_cap);
        if self.interests[token] != want {
            let fd = c.raw_fd();
            if self.poller.reregister(fd, token, want).is_err() {
                self.remove(token, false);
                return;
            }
            self.interests[token] = want;
        }
    }

    /// The periodic pass: re-arm a parked listener, shed idle
    /// connections and republish the write-buffer gauges (per-shard and
    /// the cross-shard aggregate).
    fn maintain(&mut self, now: Instant) {
        if self.listener_parked {
            self.arm_listener(true);
        }
        let mut shed_tokens: Vec<usize> = Vec::new();
        let mut pending_total = 0u64;
        for (token, slot) in self.slab.iter().enumerate() {
            if let Some(c) = slot {
                pending_total += c.pending_write() as u64;
                if now.duration_since(c.last_activity) > self.cfg.idle_timeout {
                    // Slow or silent peers (including permanently
                    // backpressured ones) are shed, not kept forever.
                    shed_tokens.push(token);
                }
            }
        }
        for token in shed_tokens {
            self.remove(token, true);
        }
        self.shared.wbuf[self.id].store(pending_total, Ordering::Relaxed);
        let total: u64 = self
            .shared
            .wbuf
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .sum();
        self.m.serve_write_buf_bytes.set_u64(total);
        if let Some((active, wbuf)) = &self.gauges {
            active.set_u64(self.local_live as u64);
            wbuf.set_u64(pending_total);
        }
        self.publish_active();
    }

    /// Mirrors the shared live-session count into the aggregate gauge
    /// (and this shard's labeled instance).
    fn publish_active(&self) {
        self.m
            .serve_active_connections
            .set_u64(self.shared.live.load(Ordering::Relaxed) as u64);
        if let Some((active, _)) = &self.gauges {
            active.set_u64(self.local_live as u64);
        }
    }

    /// Graceful drain through the ordinary state machine: every
    /// connection is marked closing, so [`Shard::service`] flushes it,
    /// half-closes after the last byte and discards the peer's input
    /// until it hangs up too (no final response lost to a RST). Whatever
    /// is still open when [`DRAIN_WINDOW`] ends — peers that neither
    /// read nor hang up — is removed.
    fn drain(&mut self) {
        for c in self.slab.iter_mut().flatten() {
            c.closing = true;
        }
        let epoch = self.engine.current();
        let deadline = Instant::now() + DRAIN_WINDOW;
        while self.slab.iter().any(Option::is_some) && Instant::now() < deadline {
            let mut moved = false;
            for token in 0..self.slab.len() {
                moved |= self.service(token, &epoch);
            }
            if !moved {
                std::thread::sleep(TICK);
            }
        }
        for token in 0..self.slab.len() {
            self.remove(token, false);
        }
    }
}

/// What should wake the loop for this connection right now.
fn desired_interest(c: &Conn, write_buf_cap: usize) -> Interest {
    let pending = c.pending_write();
    Interest {
        // A closing connection is read only in its discard phase (fully
        // flushed, waiting for the peer's close); reading it earlier
        // would busy-wake a level-triggered backend on input the state
        // machine refuses to consume. A live connection reads unless
        // backpressured.
        read: if c.closing {
            pending == 0
        } else {
            pending <= write_buf_cap
        },
        write: pending > 0,
    }
}
