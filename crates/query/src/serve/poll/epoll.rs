//! The Linux readiness backend over the audited [`rpi_epoll`] shim.
//!
//! Level-triggered: a socket with unread input (or unflushed output
//! space) is reported on every wait until the condition clears, so the
//! loop needs no readiness bookkeeping of its own — it just keeps each
//! connection's [`Interest`] current (read off under backpressure,
//! write on only while output is pending) and quiet connections cost
//! nothing.

use std::io;
use std::time::Duration;

use super::{Interest, Poller, LISTENER_TOKEN, MAX_IDLE_WAIT};

/// Tokens are slab indices plus [`LISTENER_TOKEN`] (`usize::MAX`);
/// epoll carries them verbatim in its 64-bit user data.
#[derive(Debug)]
struct EpollPoller {
    ep: rpi_epoll::Epoll,
    events: Vec<rpi_epoll::Event>,
}

pub(crate) fn make() -> io::Result<Box<dyn Poller>> {
    Ok(Box::new(EpollPoller {
        ep: rpi_epoll::Epoll::new()?,
        events: Vec::new(),
    }))
}

impl Poller for EpollPoller {
    fn register(&mut self, fd: i32, token: usize, interest: Interest) -> io::Result<()> {
        self.ep.add(fd, token as u64, interest.read, interest.write)
    }

    fn reregister(&mut self, fd: i32, token: usize, interest: Interest) -> io::Result<()> {
        self.ep
            .modify(fd, token as u64, interest.read, interest.write)
    }

    fn deregister(&mut self, fd: i32, _token: usize) -> io::Result<()> {
        self.ep.delete(fd)
    }

    fn wait(&mut self, busy: bool, ready: &mut Vec<usize>) -> io::Result<()> {
        // Idle, the kernel does the waiting: an event ends the wait at
        // once, so blocking costs no latency and no wake-ups.
        let timeout = if busy { Duration::ZERO } else { MAX_IDLE_WAIT };
        self.ep.wait(timeout, &mut self.events)?;
        ready.clear();
        // The listener is serviced last so connection work (including
        // closes that free capacity) lands before this wait's accepts.
        let mut accept = false;
        for ev in &self.events {
            if ev.token == LISTENER_TOKEN as u64 {
                accept = true;
            } else {
                ready.push(ev.token as usize);
            }
        }
        if accept {
            ready.push(LISTENER_TOKEN);
        }
        Ok(())
    }
}
