//! Readiness backends for the serve loop, behind one small trait.
//!
//! The loop's structure is backend-independent: register sockets with
//! an [`Interest`], call [`Poller::wait`], service the returned tokens.
//! What differs is how readiness is *discovered*:
//!
//! * [`epoll`] — real kernel readiness notification via the audited
//!   [`rpi_epoll`] shim: a quiet connection costs *nothing* per wait,
//!   which is what lets one daemon hold 10k+ idle connections at ~zero
//!   CPU. Level-triggered, so a socket with unconsumed bytes stays
//!   ready and the service order bookkeeping stays in the kernel.
//! * [`sweep`] — the portable fallback: every registered token is
//!   reported ready on every wait, and the connection code discovers
//!   actual readiness by attempting the nonblocking syscall and treating
//!   `WouldBlock` as "not ready". O(conns) per sweep — the only backend
//!   that runs off Linux.
//!
//! The platform picks: [`make_poller`] returns epoll exactly where
//! [`rpi_epoll::SUPPORTED`] holds, and the sweep everywhere else.
//!
//! Idling is the backend's business too: the loop tells [`Poller::wait`]
//! whether the last round was busy, and the backend decides how to wait
//! — the sweep sleeps its idle backoff, epoll blocks in the kernel.

mod epoll;
mod sweep;

use std::io;

pub(crate) use sweep::{MAX_IDLE_WAIT, TICK};

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
    /// which bounds how stale the loop's view of the shutdown flag can
    /// get. Spurious readiness is allowed (the sweep backend is *all*
    /// spurious readiness); missed readiness is not.
    fn wait(&mut self, busy: bool, ready: &mut Vec<usize>) -> io::Result<()>;
}

/// The platform's backend: epoll where supported, else the sweep.
pub(crate) fn make_poller() -> io::Result<Box<dyn Poller>> {
    if rpi_epoll::SUPPORTED {
        epoll::make()
    } else {
        Ok(Box::new(sweep::SweepPoller::new()))
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
