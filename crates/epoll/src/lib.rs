//! A minimal safe wrapper over raw `epoll(7)` — like `rpi-mmap`, one
//! of the two audited `unsafe` crates in the workspace, kept tiny so
//! `rpi-query` can stay `#![forbid(unsafe_code)]`.
//!
//! The build has no registry access (no `libc`, no `mio`), so the four
//! syscall wrappers the serve loop needs are declared via `extern "C"`:
//! `std` already links the platform C library on every unix target, so
//! `epoll_create1`/`epoll_ctl`/`epoll_wait`/`close` resolve at link
//! time with no new dependency.
//!
//! The interface is deliberately small: an [`Epoll`] instance owns the
//! epoll fd, interest is level-triggered read/write per registered fd
//! (level-triggering means a still-readable socket stays ready — no
//! starvation bookkeeping in the caller), and [`Epoll::wait`] fills a
//! caller-owned [`Event`] buffer. Error/hangup conditions are folded
//! into `readable`/`writable` so the caller discovers them the same way
//! the portable sweep backend does: by attempting the I/O call.
//!
//! On non-Linux targets the same API compiles but every constructor
//! returns [`std::io::ErrorKind::Unsupported`]; callers gate on
//! [`SUPPORTED`] and fall back to their portable path.

use std::io;
use std::time::Duration;

/// Whether this build target has a real epoll implementation.
pub const SUPPORTED: bool = cfg!(target_os = "linux");

/// One readiness event: the `token` the fd was registered with plus the
/// directions that are ready. `EPOLLERR`/`EPOLLHUP` set both flags —
/// the caller's read/write attempt surfaces the actual error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The caller-chosen registration token (connection slot index).
    pub token: u64,
    /// The fd is readable (or in an error/hangup state).
    pub readable: bool,
    /// The fd is writable (or in an error/hangup state).
    pub writable: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::c_int;

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    /// `struct epoll_event` — packed on x86-64 (the kernel ABI predates
    /// the alignment rules), naturally aligned elsewhere.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Debug, Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout_ms: c_int,
        ) -> c_int;
        pub fn close(fd: c_int) -> c_int;
    }
}

/// An owned epoll instance. Dropping it closes the epoll fd; registered
/// fds are *not* owned (the kernel drops their registration when their
/// last descriptor closes).
#[derive(Debug)]
pub struct Epoll {
    #[cfg(target_os = "linux")]
    epfd: std::ffi::c_int,
    /// Reused kernel-event buffer so `wait` allocates only on growth.
    #[cfg(target_os = "linux")]
    buf: Vec<sys::EpollEvent>,
}

// SAFETY: the wrapped value is a plain file descriptor; epoll fds are
// documented safe to operate from multiple threads (the serve loop uses
// one instance per shard thread regardless).
#[cfg(target_os = "linux")]
unsafe impl Send for Epoll {}

#[cfg(target_os = "linux")]
impl Epoll {
    /// Creates an epoll instance (`EPOLL_CLOEXEC` so serve fds never
    /// leak into spawned processes).
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 has no pointer arguments; a negative
        // return is the only failure mode.
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll {
            epfd,
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn ctl(
        &self,
        op: std::ffi::c_int,
        fd: i32,
        token: u64,
        read: bool,
        write: bool,
    ) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events: (if read {
                sys::EPOLLIN | sys::EPOLLRDHUP
            } else {
                0
            }) | (if write { sys::EPOLLOUT } else { 0 }),
            data: token,
        };
        // SAFETY: `ev` is a valid epoll_event for the duration of the
        // call; the kernel copies it before returning. `fd` validity is
        // the caller's concern — an EBADF comes back as an error.
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` for level-triggered readiness under `token`.
    pub fn add(&self, fd: i32, token: u64, read: bool, write: bool) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, read, write)
    }

    /// Replaces the interest set of an already-registered `fd`.
    pub fn modify(&self, fd: i32, token: u64, read: bool, write: bool) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, read, write)
    }

    /// Removes `fd` from the interest set. Harmless to call on an fd the
    /// kernel already dropped (returns the `ENOENT`/`EBADF` as an error
    /// the caller may ignore).
    pub fn delete(&self, fd: i32) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, false, false)
    }

    /// Waits up to `timeout` for readiness, appending one [`Event`] per
    /// ready fd to `events` (which is cleared first). A zero timeout
    /// polls without blocking; an interrupted wait returns empty.
    pub fn wait(&mut self, timeout: Duration, events: &mut Vec<Event>) -> io::Result<()> {
        events.clear();
        let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        // SAFETY: `buf` is a live, properly sized allocation for
        // `buf.len()` epoll_event entries; the kernel writes at most
        // `maxevents` of them.
        let n =
            unsafe { sys::epoll_wait(self.epfd, self.buf.as_mut_ptr(), self.buf.len() as i32, ms) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for ev in &self.buf[..n as usize] {
            let bits = ev.events;
            let oob = bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0;
            events.push(Event {
                token: ev.data,
                readable: oob || bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                writable: oob || bits & sys::EPOLLOUT != 0,
            });
        }
        if n as usize == self.buf.len() {
            // A full batch means more may be pending; grow so a busy
            // server converges to single-wait sweeps.
            self.buf
                .resize(self.buf.len() * 2, sys::EpollEvent { events: 0, data: 0 });
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: epfd came from a successful epoll_create1 and is
        // closed exactly once.
        unsafe {
            sys::close(self.epfd);
        }
    }
}

#[cfg(not(target_os = "linux"))]
impl Epoll {
    /// Always `Unsupported` off Linux — callers gate on [`SUPPORTED`].
    pub fn new() -> io::Result<Epoll> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "epoll is Linux-only",
        ))
    }

    pub fn add(&self, _fd: i32, _token: u64, _read: bool, _write: bool) -> io::Result<()> {
        unreachable!("no Epoll value can exist off Linux")
    }

    pub fn modify(&self, _fd: i32, _token: u64, _read: bool, _write: bool) -> io::Result<()> {
        unreachable!("no Epoll value can exist off Linux")
    }

    pub fn delete(&self, _fd: i32) -> io::Result<()> {
        unreachable!("no Epoll value can exist off Linux")
    }

    pub fn wait(&mut self, _timeout: Duration, _events: &mut Vec<Event>) -> io::Result<()> {
        unreachable!("no Epoll value can exist off Linux")
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn fresh_stream_is_writable_not_readable() {
        let (client, _server) = pair();
        let mut ep = Epoll::new().unwrap();
        ep.add(client.as_raw_fd(), 7, true, true).unwrap();
        let mut events = Vec::new();
        ep.wait(Duration::from_millis(500), &mut events).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].writable);
        assert!(!events[0].readable);
    }

    #[test]
    fn peer_write_raises_readable_and_level_triggers_until_drained() {
        let (client, mut server) = pair();
        let mut ep = Epoll::new().unwrap();
        ep.add(client.as_raw_fd(), 3, true, false).unwrap();
        server.write_all(b"ping\n").unwrap();
        let mut events = Vec::new();
        ep.wait(Duration::from_millis(2000), &mut events).unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.readable));
        // Level-triggered: still ready until the bytes are consumed.
        ep.wait(Duration::ZERO, &mut events).unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.readable));
        let mut buf = [0u8; 16];
        let mut c = &client;
        let n = c.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping\n");
        ep.wait(Duration::ZERO, &mut events).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn modify_and_delete_change_the_interest_set() {
        let (client, mut server) = pair();
        let mut ep = Epoll::new().unwrap();
        ep.add(client.as_raw_fd(), 1, false, false).unwrap();
        server.write_all(b"x").unwrap();
        let mut events = Vec::new();
        ep.wait(Duration::from_millis(100), &mut events).unwrap();
        assert!(events.is_empty(), "empty interest sees nothing");
        ep.modify(client.as_raw_fd(), 1, true, false).unwrap();
        ep.wait(Duration::from_millis(2000), &mut events).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
        ep.delete(client.as_raw_fd()).unwrap();
        ep.wait(Duration::ZERO, &mut events).unwrap();
        assert!(events.is_empty(), "deleted fd raises no events");
    }

    #[test]
    fn hangup_reports_ready_in_both_directions() {
        let (client, server) = pair();
        let mut ep = Epoll::new().unwrap();
        ep.add(client.as_raw_fd(), 9, true, false).unwrap();
        drop(server);
        let mut events = Vec::new();
        ep.wait(Duration::from_millis(2000), &mut events).unwrap();
        let ev = events.iter().find(|e| e.token == 9).expect("hangup event");
        assert!(
            ev.readable,
            "hangup must surface as readable (read returns 0)"
        );
    }

    #[test]
    fn zero_timeout_polls_without_blocking() {
        let (client, _server) = pair();
        let mut ep = Epoll::new().unwrap();
        ep.add(client.as_raw_fd(), 0, true, false).unwrap();
        let t0 = std::time::Instant::now();
        let mut events = Vec::new();
        ep.wait(Duration::ZERO, &mut events).unwrap();
        assert!(t0.elapsed() < Duration::from_millis(100));
    }
}
