//! The per-connection state machine: nonblocking reads feed the
//! [`LineFramer`], completed frames are classified by the shared
//! [`session`](super::session) semantics, every parseable query in the
//! read is executed as **one** engine batch (pipelining), and rendered
//! responses accumulate in a bounded write buffer that drains as the
//! socket accepts bytes.
//!
//! Partial reads and partial writes are normal states, not errors: a
//! query split across two TCP segments reassembles in the framer, and a
//! response the peer is slow to read simply stays buffered (until the
//! event loop's backpressure cap stops further reads, and eventually the
//! idle timeout sheds the connection).

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use crate::engine::QueryEngine;
use crate::proto::{render_response, Control, Frame, LineFramer};
use crate::serve::session::{classify_line, repl_reply, run_queries, Line};

/// What one read-and-process step observed.
#[derive(Debug, Default)]
pub(crate) struct ReadOutcome {
    /// Bytes consumed from the socket.
    pub bytes_in: u64,
    /// In-band error responses emitted (garbage + oversized lines and
    /// execution errors).
    pub errors: u64,
    /// The peer half-closed (EOF): flush what remains, then close.
    pub eof: bool,
    /// A `shutdown` control line arrived: stop the whole server.
    pub shutdown: bool,
}

/// One client connection.
pub(crate) struct Conn {
    stream: TcpStream,
    framer: LineFramer,
    max_line_len: usize,
    wbuf: Vec<u8>,
    wpos: usize,
    /// After `quit`/`shutdown`/EOF: stop reading, flush, then close.
    pub(crate) closing: bool,
    /// Whether this connection is counted in the shared live-session
    /// total (set at admission, cleared exactly once on the closing
    /// transition or the drop — whichever the shard sees first).
    pub(crate) counted_live: bool,
    /// Write side half-closed (FIN sent after the final flush).
    fin_sent: bool,
    /// Last instant any byte moved in either direction.
    pub(crate) last_activity: Instant,
    /// When the listener handed us this socket — the start of the
    /// accept-to-first-byte latency measurement.
    accepted_at: Instant,
    /// Whether the first request byte has been seen (the latency above
    /// is recorded exactly once, on that byte).
    saw_first_byte: bool,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, max_line_len: usize) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        // Responses are written in one buffered burst per batch; disabling
        // Nagle keeps pipelined round trips from waiting on delayed ACKs.
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            stream,
            framer: LineFramer::new(max_line_len),
            max_line_len,
            wbuf: Vec::new(),
            wpos: 0,
            closing: false,
            counted_live: false,
            fin_sent: false,
            last_activity: Instant::now(),
            accepted_at: Instant::now(),
            saw_first_byte: false,
        })
    }

    /// Half-closes the write side once (after the final flush), so the
    /// peer sees the last response followed by FIN.
    pub(crate) fn send_fin(&mut self) {
        if !self.fin_sent {
            let _ = self.stream.shutdown(std::net::Shutdown::Write);
            self.fin_sent = true;
        }
    }

    /// Drains and discards whatever the peer is still sending to a
    /// closing connection. Dropping a socket with unread bytes queued
    /// turns the close into a RST, which can destroy the final in-flight
    /// responses (including the `server full` rejection notice) — so a
    /// closing connection lingers, discarding input, until the peer
    /// closes too (`Ok(true)`: safe to drop) or the idle timeout sheds
    /// it.
    pub(crate) fn discard_input(&mut self, rbuf: &mut [u8]) -> io::Result<bool> {
        loop {
            match self.stream.read(rbuf) {
                Ok(0) => return Ok(true),
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Bytes queued but not yet accepted by the socket.
    pub(crate) fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// The raw fd the readiness backend keys on (unused by the sweep
    /// backend, which is the only one off unix).
    pub(crate) fn raw_fd(&self) -> i32 {
        crate::serve::poll::fd_of(&self.stream)
    }

    /// `true` once the connection is done and fully flushed.
    pub(crate) fn wants_close(&self) -> bool {
        self.closing && self.pending_write() == 0
    }

    /// Writes as much buffered output as the socket accepts right now.
    /// Returns the bytes written; `WouldBlock` is a normal partial write.
    pub(crate) fn flush(&mut self) -> io::Result<u64> {
        let mut written = 0u64;
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.wpos += n;
                    written += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > 64 * 1024 {
            // Reclaim the drained prefix so a long-lived slow reader does
            // not hold its whole history in memory.
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        Ok(written)
    }

    /// One nonblocking read, then frame/classify/execute/render. All the
    /// read's parseable queries go through the engine as a single batch,
    /// answered in order on this thread (only a batch's scans fan out).
    pub(crate) fn read_and_process(
        &mut self,
        engine: &QueryEngine,
        rbuf: &mut [u8],
    ) -> io::Result<ReadOutcome> {
        let mut out = ReadOutcome::default();
        let n = match self.stream.read(rbuf) {
            Ok(0) => {
                // EOF still answers a final unterminated line — the
                // stdin path would (str::lines yields it), and the TCP
                // path must match it byte for byte.
                let tail: Vec<Frame> = self.framer.finish().into_iter().collect();
                if !tail.is_empty() {
                    self.process_frames(engine, tail, &mut out);
                }
                out.eof = true;
                return Ok(out);
            }
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(out),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return Ok(out),
            Err(e) => return Err(e),
        };
        out.bytes_in = n as u64;
        if !self.saw_first_byte {
            self.saw_first_byte = true;
            engine
                .metrics()
                .serve_accept_to_first_byte_seconds
                .record(self.accepted_at.elapsed());
        }
        let frames = self.framer.push(&rbuf[..n]);
        self.process_frames(engine, frames, &mut out);
        Ok(out)
    }

    /// Classifies the completed frames (stopping at a session-ending
    /// control), batch-executes the queries among them, and renders
    /// every output line *in input order* into the write buffer.
    fn process_frames(&mut self, engine: &QueryEngine, frames: Vec<Frame>, out: &mut ReadOutcome) {
        // The raw text rides along so a slow segment can quote its first
        // query verbatim in the slowlog.
        let mut items: Vec<(usize, Line, String)> = Vec::with_capacity(frames.len());
        for frame in frames {
            match frame {
                Frame::Line { line, text } => {
                    let class = classify_line(&text);
                    let ends = matches!(
                        class,
                        Line::Control(Control::Quit) | Line::Control(Control::Shutdown)
                    );
                    items.push((line, class, text));
                    if ends {
                        // Lines pipelined after a quit are not executed —
                        // the same contract as a `--queries` file.
                        break;
                    }
                }
                Frame::Oversized { line, length } => items.push((
                    line,
                    Line::Bad(format!(
                        "line too long ({length}+ bytes, cap {})",
                        self.max_line_len
                    )),
                    String::new(),
                )),
            }
        }

        // Pipelining: every REPL-free run of this read's queries is one
        // engine batch. REPL listings split the runs: a listing reports
        // live engine counters (ROV cache stats, per-verb counts), so it
        // must observe the engine exactly where a line-by-line stdin
        // session would — queries pipelined *after* it in the same read
        // execute only after its reply is rendered.
        let mut start = 0;
        loop {
            let end = items[start..]
                .iter()
                .position(|(_, l, _)| matches!(l, Line::Repl(_)))
                .map_or(items.len(), |p| start + p);
            self.run_segment(engine, &items[start..end], out);
            let Some((_, Line::Repl(cmd), _)) = items.get(end) else {
                break;
            };
            let reply = repl_reply(engine, *cmd);
            self.push_output(&reply);
            start = end + 1;
        }
    }

    /// Executes one REPL-free run of classified lines — its queries as a
    /// single engine batch — rendering every output line in input order.
    fn run_segment(
        &mut self,
        engine: &QueryEngine,
        segment: &[(usize, Line, String)],
        out: &mut ReadOutcome,
    ) {
        let reqs: Vec<_> = segment
            .iter()
            .filter_map(|(_, l, _)| match l {
                Line::Query(req) => Some(req.clone()),
                _ => None,
            })
            .collect();
        let first = segment
            .iter()
            .find_map(|(_, l, text)| matches!(l, Line::Query(_)).then_some(text.trim()))
            .unwrap_or("");
        run_queries(engine, &reqs, first, |answers| {
            let mut answers = answers.into_iter();
            for (line_no, item, _) in segment {
                match item {
                    Line::Skip => {}
                    Line::Control(Control::Ping) => self.push_output("pong"),
                    Line::Control(Control::Quit) => self.closing = true,
                    Line::Control(Control::Shutdown) => {
                        self.closing = true;
                        out.shutdown = true;
                    }
                    Line::Repl(_) => unreachable!("segments are split at REPL commands"),
                    Line::Query(req) => {
                        match answers.next().expect("one answer per batched query") {
                            Ok(resp) => self.push_output(&render_response(req, &resp)),
                            Err(e) => {
                                out.errors += 1;
                                self.push_output(&format!("error line {line_no}: {e}"));
                            }
                        }
                    }
                    Line::Bad(msg) => {
                        out.errors += 1;
                        self.push_output(&format!("error line {line_no}: {msg}"));
                    }
                }
            }
        });
    }

    fn push_output(&mut self, text: &str) {
        self.wbuf.extend_from_slice(text.as_bytes());
        self.wbuf.push(b'\n');
    }

    /// Queues a server-originated notice (used for overload rejection).
    pub(crate) fn push_notice(&mut self, text: &str) {
        self.push_output(text);
    }
}
