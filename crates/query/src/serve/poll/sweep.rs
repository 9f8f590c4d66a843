//! The portable attempt-and-`WouldBlock` backend: every wait reports
//! every registered token ready, after sleeping its idle [`Backoff`] —
//! exactly the original single-loop behavior, factored behind the
//! [`Poller`] trait so the epoll path and this one share one event
//! loop.

use std::io;
use std::time::Duration;

use super::{Interest, Poller};

/// The sleep between sweeps that moved nothing, before it decays.
pub(crate) const TICK: Duration = Duration::from_micros(200);
/// Idle rounds that keep the [`TICK`] before the sleep starts doubling.
const GRACE_ROUNDS: u32 = 8;
/// Doublings after the grace window: 64 × [`TICK`].
const MAX_DOUBLINGS: u32 = 6;
/// The longest any backend waits while idle (≈ 12.8 ms).
pub(crate) const MAX_IDLE_WAIT: Duration = TICK.saturating_mul(1 << MAX_DOUBLINGS);

/// Idle backoff with a grace window: the first few quiet rounds keep
/// the 200 µs tick (a pipelining client's inter-window gap must not
/// cost latency), then the sleep doubles per round up to
/// [`MAX_IDLE_WAIT`]; a busy round resets it.
#[derive(Debug, Default)]
pub(crate) struct Backoff {
    idle_streak: u32,
}

impl Backoff {
    /// How long to sleep before the next sweep, given whether the last
    /// one was busy.
    pub(crate) fn delay(&mut self, busy: bool) -> Duration {
        if busy {
            self.idle_streak = 0;
            return Duration::ZERO;
        }
        self.idle_streak = self.idle_streak.saturating_add(1);
        let doublings = self.idle_streak.saturating_sub(GRACE_ROUNDS);
        TICK * (1 << doublings.min(MAX_DOUBLINGS))
    }

    /// [`Backoff::delay`], slept.
    pub(crate) fn sleep(&mut self, busy: bool) {
        let delay = self.delay(busy);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
    }
}

/// Registered tokens in insertion order (the order the old loop swept
/// its connection vector).
#[derive(Debug, Default)]
pub(crate) struct SweepPoller {
    tokens: Vec<usize>,
    backoff: Backoff,
}

impl SweepPoller {
    pub(crate) fn new() -> SweepPoller {
        SweepPoller::default()
    }
}

impl Poller for SweepPoller {
    fn register(&mut self, _fd: i32, token: usize, _interest: Interest) -> io::Result<()> {
        if !self.tokens.contains(&token) {
            self.tokens.push(token);
        }
        Ok(())
    }

    fn reregister(&mut self, _fd: i32, _token: usize, _interest: Interest) -> io::Result<()> {
        // Interest is advisory here: the connection code re-discovers
        // readiness by attempting the syscall regardless.
        Ok(())
    }

    fn deregister(&mut self, _fd: i32, token: usize) -> io::Result<()> {
        self.tokens.retain(|&t| t != token);
        Ok(())
    }

    fn wait(&mut self, busy: bool, ready: &mut Vec<usize>) -> io::Result<()> {
        self.backoff.sleep(busy);
        ready.clear();
        ready.extend_from_slice(&self.tokens);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_a_function_of_streak_and_busy() {
        let mut b = Backoff::default();
        assert_eq!(b.delay(true), Duration::ZERO, "no sleep while busy");
        for round in 1..=GRACE_ROUNDS {
            assert_eq!(b.delay(false), TICK, "grace round {round}");
        }
        let mut prev = TICK;
        for _ in 0..MAX_DOUBLINGS {
            let d = b.delay(false);
            assert_eq!(d, prev * 2, "doubles once past the grace window");
            prev = d;
        }
        assert_eq!(prev, MAX_IDLE_WAIT);
        for _ in 0..100 {
            assert_eq!(b.delay(false), MAX_IDLE_WAIT, "stays at the cap");
        }
        assert_eq!(b.delay(true), Duration::ZERO, "busy resets");
        assert_eq!(b.delay(false), TICK, "and the grace window starts over");
    }
}
