//! The readiness event loop: every socket nonblocking, each iteration
//! services whatever the readiness backend reports — accepts, reads,
//! batch execution, writes — and tells the backend whether anything
//! moved, which is all the backend needs to idle well.
//!
//! std-only by design (the build has no registry access, so no mio or
//! tokio). Readiness comes from a [`poll`] backend: the portable
//! `sweep` backend reports every socket ready and lets `WouldBlock`
//! sort it out (the original design — O(conns) per sweep), while the
//! Linux `epoll` backend gets real kernel notification, so 10k idle
//! connections cost nothing per wait.
//!
//! Scaling out: `serve_threads = N` runs N copies of the same shard
//! loop, each owning a disjoint set of connections, fed round-robin by
//! a dedicated acceptor thread over an mpsc handoff. Every shard runs
//! the identical conn/session/backpressure state machine against the
//! shared [`EngineSource`]; counters are the engine's registry atomics
//! (shared by construction), capacity is enforced through two process-
//! wide atomic counters, and the loop gauges carry per-shard labeled
//! instances next to the aggregate. `serve_threads = 1` (the default)
//! keeps the listener inline in the single loop — no acceptor thread,
//! no handoff — preserving the original topology exactly.

use std::io::{self};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crate::engine::QueryEngine;
use crate::metrics::QueryMetrics;
use crate::serve::conn::Conn;
use crate::serve::poll::{self, Backoff, Interest, PollBackend, Poller, LISTENER_TOKEN, TICK};
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

/// Process-wide connection accounting shared by the acceptor and every
/// shard. Capacity decisions are made against these (the shards no
/// longer own a single connection vector to count), reserved with
/// fetch-then-undo so concurrent admissions stay exact.
#[derive(Debug)]
struct SharedCounters {
    /// Live (non-closing) sessions — the `max_conns` capacity measure.
    live: AtomicUsize,
    /// Every open connection in a shard slab (live + draining) — the
    /// hard fd-cap measure.
    open: AtomicUsize,
    /// Accepted sockets handed to a shard but not yet admitted (counted
    /// so a flood cannot hide unbounded fds inside the mpsc channels).
    in_flight: AtomicUsize,
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
            in_flight: AtomicUsize::new(0),
            wbuf: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
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

    /// Runs the event loop(s) until shutdown, returning the final stats
    /// snapshot. With one serve thread the listener lives inside the
    /// single shard loop; with N > 1 this thread becomes the acceptor,
    /// distributing sockets round-robin to N shard threads running the
    /// identical state machine.
    pub fn run(self) -> io::Result<ServeStats> {
        let m = Arc::clone(&self.metrics);
        let threads = self.cfg.serve_threads.max(1);
        let backend = self.cfg.backend.effective();
        // Hard bound on open sockets: served sessions plus a bounded tail
        // of closing/rejected ones still draining their final bytes. Past
        // it, over-capacity accepts are dropped outright (no notice, no
        // linger) — under a connection flood, shedding beats running out
        // of file descriptors.
        let hard_cap = self.cfg.max_conns + self.cfg.max_conns.clamp(16, 256);
        let shared = SharedCounters::new(threads);

        let run_result: io::Result<()> = if threads == 1 {
            Shard::new(
                0,
                backend,
                &self.cfg,
                self.engine.clone(),
                Arc::clone(&m),
                &self.shutdown,
                &shared,
                hard_cap,
                Some(&self.listener),
                None,
                None,
            )?
            .run()
        } else {
            std::thread::scope(|scope| {
                let mut txs = Vec::with_capacity(threads);
                let mut shards = Vec::with_capacity(threads);
                for id in 0..threads {
                    let (tx, rx) = mpsc::channel::<TcpStream>();
                    txs.push(tx);
                    shards.push(Shard::new(
                        id,
                        backend,
                        &self.cfg,
                        self.engine.clone(),
                        Arc::clone(&m),
                        &self.shutdown,
                        &shared,
                        hard_cap,
                        None,
                        Some(rx),
                        Some(m.shard_gauges(id)),
                    )?);
                }
                let joins: Vec<_> = shards
                    .into_iter()
                    .map(|shard| scope.spawn(move || shard.run()))
                    .collect();
                accept_and_route(&self.listener, txs, &self.shutdown, &shared, &m, hard_cap);
                let mut result = Ok(());
                for join in joins {
                    match join.join() {
                        Ok(r) => {
                            if result.is_ok() && r.is_err() {
                                result = r;
                            }
                        }
                        Err(_) => {
                            if result.is_ok() {
                                result = Err(io::Error::other("serve shard panicked"))
                            }
                        }
                    }
                }
                result
            })
        };
        m.serve_active_connections.set_u64(0);
        m.serve_write_buf_bytes.set_u64(0);
        run_result?;
        Ok(stats_view(&m, self.started))
    }
}

/// The dedicated acceptor (multi-shard mode): accepts everything
/// pending, drops hard-over-cap floods at the door, and hands sockets
/// round-robin to the shard channels. Runs on the [`Server::run`]
/// caller's thread.
fn accept_and_route(
    listener: &TcpListener,
    txs: Vec<mpsc::Sender<TcpStream>>,
    shutdown: &AtomicBool,
    shared: &SharedCounters,
    m: &QueryMetrics,
    hard_cap: usize,
) {
    let mut next = 0usize;
    // One listener swept by attempt-and-`WouldBlock`: the sweep
    // backend's idle policy applies as is.
    let mut backoff = Backoff::default();
    while !shutdown.load(Ordering::Relaxed) {
        let mut progressed = false;
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    progressed = true;
                    let held = shared.open.load(Ordering::Relaxed)
                        + shared.in_flight.load(Ordering::Relaxed);
                    if held >= hard_cap {
                        m.serve_rejected_total.inc();
                        drop(stream);
                        continue;
                    }
                    shared.in_flight.fetch_add(1, Ordering::Relaxed);
                    if txs[next % txs.len()].send(stream).is_err() {
                        // A shard died; its error surfaces from run().
                        shared.in_flight.fetch_sub(1, Ordering::Relaxed);
                        return;
                    }
                    next = next.wrapping_add(1);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept errors (peer reset mid-handshake)
                // must not kill the server.
                Err(_) => break,
            }
        }
        backoff.sleep(progressed);
    }
}

/// One event-loop shard: a readiness backend instance plus the slab of
/// connections it owns. `serve_threads = 1` runs exactly one, listener
/// inline; otherwise each lives on its own thread behind the acceptor.
struct Shard<'a> {
    id: usize,
    cfg: &'a ServeConfig,
    engine: EngineSource,
    m: Arc<QueryMetrics>,
    shutdown: &'a AtomicBool,
    shared: &'a SharedCounters,
    hard_cap: usize,
    listener: Option<&'a TcpListener>,
    incoming: Option<mpsc::Receiver<TcpStream>>,
    /// `shard="N"`-labeled (active, write-buf) gauge instances; `None`
    /// on a single-shard server, whose exposition stays byte-compatible
    /// with the original single-loop design.
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
    #[allow(clippy::too_many_arguments)]
    fn new(
        id: usize,
        backend: PollBackend,
        cfg: &'a ServeConfig,
        engine: EngineSource,
        m: Arc<QueryMetrics>,
        shutdown: &'a AtomicBool,
        shared: &'a SharedCounters,
        hard_cap: usize,
        listener: Option<&'a TcpListener>,
        incoming: Option<mpsc::Receiver<TcpStream>>,
        gauges: Option<(Arc<rpi_obs::Gauge>, Arc<rpi_obs::Gauge>)>,
    ) -> io::Result<Shard<'a>> {
        Ok(Shard {
            id,
            cfg,
            engine,
            m,
            shutdown,
            shared,
            hard_cap,
            listener,
            incoming,
            gauges,
            poller: poll::make_poller(backend)?,
            slab: Vec::new(),
            free: Vec::new(),
            interests: Vec::new(),
            local_live: 0,
            rbuf: vec![0u8; 64 * 1024],
        })
    }

    fn run(mut self) -> io::Result<()> {
        if let Some(listener) = self.listener {
            self.poller.register(
                poll::fd_of(listener),
                LISTENER_TOKEN,
                Interest {
                    read: true,
                    write: false,
                },
            )?;
        }
        let mut ready: Vec<usize> = Vec::new();
        let mut fresh: Vec<usize> = Vec::new();
        let mut busy = false;
        // Idle shedding and gauge refresh run as a periodic maintenance
        // pass: under epoll a quiet connection raises no events, so
        // per-event bookkeeping alone would never time it out.
        let maint_interval = (self.cfg.idle_timeout / 4).clamp(TICK, Duration::from_secs(1));
        let mut last_maint = Instant::now();
        while !self.shutdown.load(Ordering::Relaxed) {
            // Sockets handed over by the acceptor enter the slab before
            // the wait, so a fresh connection is serviced this round.
            fresh.clear();
            if self.incoming.is_some() {
                loop {
                    let stream = match self.incoming.as_ref().unwrap().try_recv() {
                        Ok(s) => s,
                        Err(_) => break,
                    };
                    self.shared.in_flight.fetch_sub(1, Ordering::Relaxed);
                    if let Some(token) = self.admit(stream) {
                        fresh.push(token);
                    }
                }
            }
            self.poller.wait(busy || !fresh.is_empty(), &mut ready)?;

            let sweep_start = Instant::now();
            let mut progressed = !fresh.is_empty();
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

    /// Accepts everything pending on the inline listener (single-shard
    /// mode), admitting each socket into the slab.
    fn accept_sweep(&mut self, fresh: &mut Vec<usize>) -> bool {
        let Some(listener) = self.listener else {
            return false;
        };
        let mut progressed = false;
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    progressed = true;
                    if let Some(token) = self.admit(stream) {
                        fresh.push(token);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept errors (peer reset mid-handshake)
                // must not kill the server.
                Err(_) => break,
            }
        }
        progressed
    }

    /// Takes ownership of an accepted socket: capacity check (live
    /// sessions are *reserved* on the shared counter, so concurrent
    /// shards stay exact), over-capacity in-band notice, slab insert,
    /// poller registration.
    fn admit(&mut self, stream: TcpStream) -> Option<usize> {
        let m = Arc::clone(&self.m);
        if self.shared.open.load(Ordering::Relaxed) >= self.hard_cap {
            m.serve_rejected_total.inc();
            return None;
        }
        let mut c = match Conn::new(stream, self.cfg.max_line_len) {
            Ok(c) => c,
            Err(_) => {
                m.serve_rejected_total.inc();
                return None;
            }
        };
        let reserved = self.shared.live.fetch_add(1, Ordering::Relaxed);
        if reserved >= self.cfg.max_conns {
            // Overload: answer in-band, flush, close.
            self.shared.live.fetch_sub(1, Ordering::Relaxed);
            m.serve_rejected_total.inc();
            c.push_notice(&format!(
                "error: server full ({} connections)",
                self.cfg.max_conns
            ));
            c.closing = true;
        } else {
            m.serve_accepted_total.inc();
            c.counted_live = true;
            self.local_live += 1;
        }
        self.shared.open.fetch_add(1, Ordering::Relaxed);
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

    /// The periodic pass: shed idle connections and republish the
    /// write-buffer gauges (per-shard and the cross-shard aggregate).
    fn maintain(&mut self, now: Instant) {
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

    /// Graceful drain: give every connection one short window to take
    /// its buffered responses — flush, half-close (FIN after the last
    /// byte), then discard the peer's remaining input until it closes
    /// too, so no final response is lost to a RST. The deadline bounds
    /// peers that neither read nor hang up.
    fn drain(&mut self) {
        let mut conns: Vec<Conn> = self.slab.iter_mut().filter_map(|s| s.take()).collect();
        for c in &mut conns {
            if c.counted_live {
                c.counted_live = false;
                self.local_live -= 1;
                self.shared.live.fetch_sub(1, Ordering::Relaxed);
            }
            self.shared.open.fetch_sub(1, Ordering::Relaxed);
        }
        let m = Arc::clone(&self.m);
        let deadline = Instant::now() + DRAIN_WINDOW;
        while !conns.is_empty() && Instant::now() < deadline {
            let mut moved = false;
            conns.retain_mut(|c| {
                match c.flush() {
                    Ok(n) if n > 0 => {
                        moved = true;
                        m.serve_bytes_out_total.add(n);
                    }
                    Ok(_) => {}
                    Err(_) => return false,
                }
                if c.pending_write() > 0 {
                    return true;
                }
                c.send_fin();
                !matches!(c.discard_input(&mut self.rbuf), Ok(true) | Err(_))
            });
            if !moved {
                std::thread::sleep(TICK);
            }
        }
        self.publish_active();
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
