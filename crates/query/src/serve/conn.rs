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
use crate::proto::{
    write_error_line, write_response, Control, Frame, FrameRef, LineFramer, QueryRequest,
    RECLAIM_MARK,
};
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

/// What one line of a run puts on the wire once the run has executed.
enum Reply {
    /// `pong`.
    Pong,
    /// The rendered answer to the run's next query.
    Answer,
    /// An in-band `error line N: …` for an unparseable or oversized line.
    Bad(String),
}

/// One REPL-free run of a read's lines: the queries are executed as a
/// single engine batch, then every reply is rendered in input order.
/// The vectors live on the connection and are cleared between runs, so
/// a steady stream of pipelined reads allocates nothing here.
struct Run {
    /// The framer's cap, for the `line too long` reply.
    max_line_len: usize,
    /// `(line number, reply)` per output-producing line, in input order.
    replies: Vec<(usize, Reply)>,
    /// The run's queries, one per [`Reply::Answer`].
    reqs: Vec<QueryRequest>,
    /// The first query as the client spelled it, for the slowlog.
    first_query: String,
    /// A `quit`/`shutdown` arrived: lines pipelined after it are not
    /// executed — the same contract as a `--queries` file.
    ended: bool,
}

impl Run {
    /// Classifies one frame into the run. REPL listings split runs: a
    /// listing reports live engine counters (ROV cache stats, per-verb
    /// counts), so it must observe the engine exactly where a
    /// line-by-line stdin session would — the queries before it execute
    /// first, those pipelined after it only once its reply is rendered.
    fn frame(
        &mut self,
        engine: &QueryEngine,
        frame: FrameRef<'_>,
        wbuf: &mut Vec<u8>,
        out: &mut ReadOutcome,
    ) {
        if self.ended {
            return;
        }
        let (line, text) = match frame {
            FrameRef::Line { line, text } => (line, text),
            FrameRef::Oversized { line, length } => {
                let msg = format!("line too long ({length}+ bytes, cap {})", self.max_line_len);
                return self.replies.push((line, Reply::Bad(msg)));
            }
        };
        match classify_line(text) {
            Line::Skip => {}
            Line::Control(Control::Ping) => self.replies.push((line, Reply::Pong)),
            Line::Control(Control::Quit) => self.ended = true,
            Line::Control(Control::Shutdown) => {
                self.ended = true;
                out.shutdown = true;
            }
            Line::Repl(cmd) => {
                self.execute(engine, wbuf, out);
                push_line(wbuf, &repl_reply(engine, cmd));
            }
            Line::Query(req) => {
                if self.reqs.is_empty() {
                    self.first_query.push_str(text.trim());
                }
                self.reqs.push(req);
                self.replies.push((line, Reply::Answer));
            }
            Line::Bad(msg) => self.replies.push((line, Reply::Bad(msg))),
        }
    }

    /// Executes the run and renders its replies onto `wbuf`.
    fn execute(&mut self, engine: &QueryEngine, wbuf: &mut Vec<u8>, out: &mut ReadOutcome) {
        run_queries(engine, &self.reqs, &self.first_query, |answers| {
            let mut answers = self.reqs.iter().zip(answers);
            for (line, reply) in &self.replies {
                match reply {
                    Reply::Pong => push_line(wbuf, "pong"),
                    Reply::Answer => match answers.next().expect("one answer per batched query") {
                        (req, Ok(resp)) => write_response(wbuf, req, &resp),
                        (_, Err(e)) => {
                            out.errors += 1;
                            write_error_line(wbuf, *line, e);
                        }
                    },
                    Reply::Bad(msg) => {
                        out.errors += 1;
                        write_error_line(wbuf, *line, msg);
                    }
                }
            }
        });
        self.replies.clear();
        self.reqs.clear();
        self.first_query.clear();
        // Kept for the next read, but — like the byte buffers — not at
        // the size one unusually deep read (thousands of lines) grew them to.
        self.replies
            .shrink_to(RECLAIM_MARK / std::mem::size_of::<(usize, Reply)>());
        self.reqs
            .shrink_to(RECLAIM_MARK / std::mem::size_of::<QueryRequest>());
    }
}

fn push_line(wbuf: &mut Vec<u8>, text: &str) {
    wbuf.extend_from_slice(text.as_bytes());
    wbuf.push(b'\n');
}

/// One client connection.
pub(crate) struct Conn {
    stream: TcpStream,
    framer: LineFramer,
    run: Run,
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
            run: Run {
                max_line_len,
                replies: Vec::new(),
                reqs: Vec::new(),
                first_query: String::new(),
                ended: false,
            },
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
            // Fully drained: one large reply must not pin its high-water
            // capacity for the life of an otherwise idle connection.
            self.wbuf.clear();
            self.wbuf.shrink_to(RECLAIM_MARK);
            self.wpos = 0;
        } else if self.wpos > RECLAIM_MARK {
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
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(out),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return Ok(out),
            Err(e) => return Err(e),
        };
        out.bytes_in = n as u64;
        if n > 0 && !self.saw_first_byte {
            self.saw_first_byte = true;
            engine
                .metrics()
                .serve_accept_to_first_byte_seconds
                .record(self.accepted_at.elapsed());
        }
        // Frames are classified as the framer finds them — lines borrowed
        // from `rbuf`, nothing copied per line — and the run they form is
        // executed once the read is exhausted.
        let Conn {
            framer, run, wbuf, ..
        } = self;
        if n > 0 {
            framer.scan(&rbuf[..n], |frame| run.frame(engine, frame, wbuf, &mut out));
        } else {
            // EOF still answers a final unterminated line — the stdin
            // path would (str::lines yields it), and the TCP path must
            // match it byte for byte.
            if let Some(Frame::Line { line, text }) = framer.finish() {
                let tail = FrameRef::Line { line, text: &text };
                run.frame(engine, tail, wbuf, &mut out);
            }
            out.eof = true;
        }
        run.execute(engine, wbuf, &mut out);
        self.closing |= self.run.ended;
        Ok(out)
    }

    /// Queues a server-originated notice (used for overload rejection).
    pub(crate) fn push_notice(&mut self, text: &str) {
        push_line(&mut self.wbuf, text);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn a_drained_write_buffer_gives_back_its_high_water_capacity() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut conn = Conn::new(listener.accept().unwrap().0, 1024).unwrap();

        // One large reply (a `hijacks @all`, a `leaks`) up to the default
        // --write-buf-cap…
        let reply = "x".repeat(256 * 1024);
        conn.push_notice(&reply);
        assert!(conn.wbuf.capacity() > RECLAIM_MARK);
        let mut sink = vec![0u8; 64 * 1024];
        let mut received = 0;
        while received < reply.len() + 1 {
            conn.flush().unwrap();
            if conn.pending_write() > 0 {
                // Partly drained: what is still queued is still there.
                assert!(conn.wbuf.capacity() >= conn.pending_write());
            }
            received += peer.read(&mut sink).unwrap();
        }
        // …must not stay pinned once the peer has taken it all.
        assert_eq!(conn.pending_write(), 0);
        assert!(
            conn.wbuf.capacity() <= RECLAIM_MARK,
            "an idle connection holds {} bytes of write buffer",
            conn.wbuf.capacity()
        );
        // The connection goes on answering.
        conn.push_notice("pong");
        conn.flush().unwrap();
        assert_eq!(peer.read(&mut sink).unwrap(), 5);
        assert_eq!(&sink[..5], b"pong\n");
    }
}
