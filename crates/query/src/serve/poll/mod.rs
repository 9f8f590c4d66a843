//! Readiness backends for the serve loop, behind one small trait.
//!
//! The loop's structure is backend-independent: register sockets with
//! an [`Interest`], call [`Poller::wait`], service the returned tokens.
//! What differs is how readiness is *discovered*:
//!
//! * [`sweep`] — the portable fallback (the original PR 5 design):
//!   every registered token is reported ready on every wait, and the
//!   connection code discovers actual readiness by attempting the
//!   nonblocking syscall and treating `WouldBlock` as "not ready".
//!   O(conns) per sweep — fine at loopback scale, the only option off
//!   Linux.
//! * [`epoll`] — real kernel readiness notification via the audited
//!   [`rpi_epoll`] shim: a quiet connection costs *nothing* per wait,
//!   which is what lets one daemon hold 10k+ idle connections at ~zero
//!   CPU. Level-triggered, so a socket with unconsumed bytes stays
//!   ready and the service order bookkeeping stays in the kernel.
//!
//! Selection: `--backend sweep|epoll|auto` on the daemon,
//! [`ServeConfig::backend`](crate::serve::ServeConfig) in code (the
//! serve tests set it per matrix cell), `auto` — the default — picking
//! epoll exactly where it is supported.
//!
//! Idling is the backend's business too: the loop tells [`Poller::wait`]
//! whether the last round was busy, and the backend decides how to wait
//! — the sweep sleeps its [`Backoff`], epoll blocks in the kernel.

mod epoll;
mod sweep;

use std::io;

pub(crate) use sweep::{Backoff, MAX_IDLE_WAIT, TICK};

/// Which readiness implementation the serve loop runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollBackend {
    /// Attempt-and-`WouldBlock` sweep over every connection (portable).
    Sweep,
    /// Kernel readiness notification via `epoll(7)` (Linux).
    Epoll,
}

impl PollBackend {
    /// The best backend this platform supports.
    pub fn auto() -> PollBackend {
        if rpi_epoll::SUPPORTED {
            PollBackend::Epoll
        } else {
            PollBackend::Sweep
        }
    }

    /// Whether this backend can actually run here.
    pub fn supported(self) -> bool {
        match self {
            PollBackend::Sweep => true,
            PollBackend::Epoll => rpi_epoll::SUPPORTED,
        }
    }

    /// This backend if supported, else the portable fallback, so a
    /// config naming epoll on a non-Linux host degrades instead of
    /// failing.
    pub fn effective(self) -> PollBackend {
        if self.supported() {
            self
        } else {
            PollBackend::Sweep
        }
    }

    /// The CLI/display name.
    pub fn name(self) -> &'static str {
        match self {
            PollBackend::Sweep => "sweep",
            PollBackend::Epoll => "epoll",
        }
    }
}

impl std::fmt::Display for PollBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for PollBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<PollBackend, String> {
        match s {
            "sweep" => Ok(PollBackend::Sweep),
            "epoll" => Ok(PollBackend::Epoll),
            "auto" => Ok(PollBackend::auto()),
            other => Err(format!(
                "unknown backend '{other}' (expected sweep|epoll|auto)"
            )),
        }
    }
}

/// The token [`Shard`](crate::serve::event_loop) registers its listener
/// under; connection tokens are slab indices, which stay far below it.
pub(crate) const LISTENER_TOKEN: usize = usize::MAX;

/// What a registered socket should wake the loop for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Interest {
    pub read: bool,
    pub write: bool,
}

/// One readiness backend instance (one per shard thread).
pub(crate) trait Poller: Send {
    /// Starts watching `fd` under `token`.
    fn register(&mut self, fd: i32, token: usize, interest: Interest) -> io::Result<()>;
    /// Replaces the interest of an already-registered `fd`.
    fn reregister(&mut self, fd: i32, token: usize, interest: Interest) -> io::Result<()>;
    /// Stops watching `fd`.
    fn deregister(&mut self, fd: i32, token: usize) -> io::Result<()>;
    /// Fills `ready` with the tokens to service. `busy` says the last
    /// round moved bytes or fresh connections arrived: a busy wait only
    /// polls, an idle one may block — but never past [`MAX_IDLE_WAIT`],
    /// which bounds how stale the loop's view of the shutdown flag and
    /// the handoff channel can get. Spurious readiness is allowed (the
    /// sweep backend is *all* spurious readiness); missed readiness is
    /// not.
    fn wait(&mut self, busy: bool, ready: &mut Vec<usize>) -> io::Result<()>;
}

/// Instantiates `backend` (resolved through [`PollBackend::effective`]).
pub(crate) fn make_poller(backend: PollBackend) -> io::Result<Box<dyn Poller>> {
    match backend.effective() {
        PollBackend::Sweep => Ok(Box::new(sweep::SweepPoller::new())),
        PollBackend::Epoll => epoll::make(),
    }
}

/// The raw fd a poller keys on. Off unix the sweep backend (the only
/// one that exists there) ignores it entirely.
#[cfg(unix)]
pub(crate) fn fd_of<T: std::os::unix::io::AsRawFd>(sock: &T) -> i32 {
    sock.as_raw_fd()
}

#[cfg(not(unix))]
pub(crate) fn fd_of<T>(_sock: &T) -> i32 {
    -1
}
