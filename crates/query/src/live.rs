//! Serve while ingesting (**rpi-live**).
//!
//! A single writer thread tails a [`bgp_sim::stream`] delta-event file,
//! applies each frame through the same incremental indexing path the
//! offline engine uses, and **publishes** the grown world as a fresh
//! epoch — an immutable [`QueryEngine`] behind an `Arc` that readers
//! load once per batch. The protocol is epoch-style publication:
//!
//! * Readers never lock against the writer. [`LiveHandle::current`] is
//!   one `Arc` clone under a reader lock held for nanoseconds; the
//!   engine it returns is frozen — it owns the list of segments
//!   attached as of its publication, and that list is all it can see —
//!   so a whole `execute_batch` — or a REPL listing — sees one
//!   consistent world, never a torn one.
//! * The writer builds snapshot N+1 completely — indexed, spilled by
//!   the archive's segment writer ([`crate::archive::SegmentWriter`]),
//!   attached by the tier's [`attach`] — and hands the new epoch a
//!   segment list one record longer than the last (the records are
//!   shared, never copied) **before** swapping the epoch in. A reader
//!   that loaded epoch N keeps answering from epoch N; the next batch
//!   sees N+1.
//! * Memory stays bounded: the hot set the epochs share keeps the most
//!   recent `--window` snapshots hydrated; older ones fall back to
//!   their mapped spill segments and stay queryable cold (the PR 7 tier
//!   layer), so `@<id>` history queries span the hot/spilled boundary
//!   transparently. The stream itself is read through a buffer that
//!   holds only what has not been parsed yet.
//! * The writer holds the stream's oracle graph (from-scratch indexing
//!   and the LG analyses ask it) but no state derived from it:
//!   consecutive snapshots hold one `Arc` of
//!   [`crate::snapshot::Oracle`] until a frame carries a new oracle, so
//!   a customer cone the SA patcher walks for one frame is walked for
//!   every later one — and for the readers' `hijacks` — and there is
//!   nothing to clear when the oracle does change.
//! * The writer also holds the output the last frame left, and each frame
//!   patches it **in place** ([`StreamFrame::apply`]) before it is
//!   indexed: a publication costs what its frame carries, and no second
//!   world is built or dropped per frame. The frame is taken by value,
//!   so its LG views move into that output uncopied.
//! * Because that output advances before the segment is spilled, a
//!   failed [`LiveWriter::publish_frame`] is **terminal** for its writer:
//!   every later call returns [`LiveError::Halted`] rather than index
//!   against a half-advanced world. Readers keep the last epoch that was
//!   published; [`follow_stream`] / [`drain_stream`] return the error.
//! * Frames are decoded one at a time: a follower that starts behind a
//!   long stream counts its backlog from the length prefixes (the
//!   `rpi_live_frames_behind` gauge) and holds one decoded frame, not the
//!   backlog.
//!
//! The contract the differential suite (`crates/query/tests/live.rs`)
//! holds: a live engine fed frame by frame renders **byte-identical**
//! responses to an offline engine built from the same events in one
//! shot, at every snapshot, across every protocol verb.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Duration;

use bgp_sim::stream::{complete_frames, next_step, read_header, StreamFrame, StreamStep};
use bgp_sim::SimOutput;
use bgp_types::codec::CodecError;
use net_topology::AsGraph;
use rpi_store::{SegmentKind, StoreError};

use crate::archive::{ArchiveInfo, SegmentMeta, SegmentWriter};
use crate::engine::QueryEngine;
use crate::intern::WorldInterner;
use crate::snapshot::{Snapshot, SnapshotId};
use crate::tier::{attach, codec_what, Tier};

/// What can go wrong while following a live stream.
#[derive(Debug)]
pub enum LiveError {
    /// The stream ended mid-frame: the bytes from `offset` onwards are
    /// an incomplete frame that was never applied (a publication is all
    /// or nothing — no half-applied snapshot exists).
    Truncated {
        /// Absolute byte offset where the incomplete frame starts.
        offset: usize,
    },
    /// The stream bytes are malformed.
    Stream {
        /// Absolute byte offset of the malformed encoding.
        offset: usize,
        /// What was expected there.
        what: String,
    },
    /// Writing or mapping a spill segment failed.
    Store(StoreError),
    /// Reading the followed file failed.
    Io(std::io::Error),
    /// An earlier publication on this writer failed part-way, so the
    /// writer publishes nothing more.
    Halted,
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::Truncated { offset } => {
                write!(f, "live stream ended mid-frame at byte {offset}")
            }
            LiveError::Stream { offset, what } => {
                write!(f, "malformed live stream at byte {offset}: {what}")
            }
            LiveError::Store(e) => write!(f, "spill segment: {e}"),
            LiveError::Io(e) => write!(f, "reading stream: {e}"),
            LiveError::Halted => write!(f, "live writer halted by an earlier failed publication"),
        }
    }
}

impl std::error::Error for LiveError {}

impl From<StoreError> for LiveError {
    fn from(e: StoreError) -> LiveError {
        LiveError::Store(e)
    }
}

impl From<std::io::Error> for LiveError {
    fn from(e: std::io::Error) -> LiveError {
        LiveError::Io(e)
    }
}

/// Knobs of the live publication path.
#[derive(Debug, Clone)]
pub struct LiveOptions {
    /// Snapshots kept hydrated in memory (the hot window). Older
    /// snapshots drop to their spill segments and answer cold.
    pub window: usize,
    /// Spill keyframe cadence: every `keyframe_every`-th segment is a
    /// self-contained full segment the cold chain walk can anchor on.
    pub keyframe_every: usize,
}

impl Default for LiveOptions {
    fn default() -> LiveOptions {
        LiveOptions {
            window: 4,
            keyframe_every: 4,
        }
    }
}

/// The reader side of the publication protocol: the current epoch.
///
/// Cheap to share (`Arc`) and cheap to read — [`Self::current`] clones
/// one `Arc` under a read lock the writer takes only for the pointer
/// swap, so readers never wait on a publication in progress.
#[derive(Debug)]
pub struct LiveHandle {
    epoch: RwLock<Arc<QueryEngine>>,
    published: AtomicU64,
    ended: AtomicBool,
}

impl LiveHandle {
    /// A handle whose epoch 0 is `engine` — an empty engine carrying the
    /// serving configuration (ROA table, metrics). The writer grows the
    /// world from there.
    pub fn new(engine: QueryEngine) -> Arc<LiveHandle> {
        Arc::new(LiveHandle {
            epoch: RwLock::new(Arc::new(engine)),
            published: AtomicU64::new(0),
            ended: AtomicBool::new(false),
        })
    }

    /// The current epoch. Every query of a batch — and every listing —
    /// should run against one loaded epoch so it observes one world.
    pub fn current(&self) -> Arc<QueryEngine> {
        Arc::clone(&self.epoch.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Snapshots published so far (monotone; `Acquire` pairs with the
    /// writer's publication store).
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Acquire)
    }

    /// Whether the writer saw the stream's end marker.
    pub fn ended(&self) -> bool {
        self.ended.load(Ordering::Acquire)
    }
}

/// The writer side: applies stream frames, spills segments, publishes
/// epochs. Single-owner — exactly one writer per [`LiveHandle`].
pub struct LiveWriter {
    handle: Arc<LiveHandle>,
    /// The newest epoch's tier; the next epoch's is built from it.
    tier: Arc<Tier>,
    /// The base engine's metrics, shared by every published epoch:
    /// publication latency/counts and the follower-lag gauge land here.
    metrics: Arc<crate::metrics::QueryMetrics>,
    spill: PathBuf,
    segments: SegmentWriter,
    interner: WorldInterner,
    oracle: AsGraph,
    /// The output the last frame left; the next frame patches it in
    /// place.
    prev_out: SimOutput,
    prev_snap: Option<Arc<Snapshot>>,
    /// Set by a failed publication: `prev_out` may be ahead of what was
    /// published, so nothing more is.
    halted: bool,
}

impl LiveWriter {
    /// Opens the writer against `handle`'s epoch-0 configuration with
    /// the stream header's relationship `oracle`. Spill segments go to
    /// `spill` (created if missing).
    pub fn open(
        handle: Arc<LiveHandle>,
        oracle: AsGraph,
        spill: &Path,
        opts: LiveOptions,
    ) -> Result<LiveWriter, LiveError> {
        std::fs::create_dir_all(spill)?;
        let base = handle.current();
        debug_assert_eq!(base.snapshot_count(), 0, "live handles start empty");
        let spilled = ArchiveInfo {
            dir: spill.to_path_buf(),
            symbols: SegmentMeta {
                index: 0,
                kind: SegmentKind::Symbols,
                file: "symbols.seg".to_string(),
                // The live interner lives in memory; a symbols segment
                // exists only once the stream is archived.
                bytes: 0,
                crc32: 0,
                label: String::new(),
                keyframe: false,
            },
            snapshots: Vec::new(),
            roas: None,
        };
        Ok(LiveWriter {
            tier: Arc::new(Tier::new(Vec::new(), opts.window, spilled, &base.metrics)),
            metrics: base.metrics_arc(),
            spill: spill.to_path_buf(),
            segments: SegmentWriter::new(Some(opts.keyframe_every)),
            interner: base.interner.clone(),
            oracle,
            prev_out: SimOutput::default(),
            prev_snap: None,
            halted: false,
            handle,
        })
    }

    /// Snapshots published by this writer.
    pub fn published(&self) -> u64 {
        self.tier.segs.len() as u64
    }

    /// Applies one stream frame: patch the followed output with it,
    /// index the grown world incrementally, spill it as an rpi-store
    /// segment, attach the segment, and only then publish the new epoch
    /// over the grown segment list. A reader holding the previous epoch
    /// is never blocked and never sees the snapshot until it is fully
    /// queryable.
    ///
    /// An error is terminal for the writer: the output has already
    /// advanced past what was published, so this and every later call
    /// return an error ([`LiveError::Halted`] from the next one on)
    /// instead of indexing against it. The handle keeps serving the last
    /// published epoch.
    pub fn publish_frame(&mut self, frame: StreamFrame) -> Result<SnapshotId, LiveError> {
        if self.halted {
            return Err(LiveError::Halted);
        }
        let published = self.advance(frame);
        self.halted = published.is_err();
        published
    }

    fn advance(&mut self, mut frame: StreamFrame) -> Result<SnapshotId, LiveError> {
        let publish_start = std::time::Instant::now();
        let label = std::mem::take(&mut frame.label);
        let same_oracle = frame.oracle.is_none();
        if let Some(g) = frame.oracle.take() {
            self.oracle = g;
        }
        let delta = frame.apply(&mut self.prev_out);
        let i = self.tier.segs.len();
        let id = SnapshotId(i as u32);

        // Index exactly as the offline incremental path would: the
        // frame's delta is what `output_delta` computes between the same
        // two outputs, so the snapshots come out byte-identical.
        let out = &self.prev_out;
        let snap = match &self.prev_snap {
            None => Snapshot::from_output(id, &label, out, &self.oracle, &mut self.interner),
            Some(prev) => Snapshot::from_output_incremental(
                id,
                &label,
                prev,
                delta,
                out,
                &self.oracle,
                same_oracle,
                &mut self.interner,
            ),
        };
        let snap = Arc::new(snap);

        // Spill through the archive's segment writer — the policy, the
        // keyframe cadence and the bytes `save_archive` would produce —
        // then attach. Manifest-style index: slot 0 is reserved for the
        // symbols segment a finished archive would carry. The bytes were
        // checksummed as they were written: no lazy re-verify.
        let prev = self.prev_snap.as_deref();
        let entry = self
            .segments
            .write(&self.spill, &snap, prev, &self.interner)?;
        let seg = attach(
            &self.spill,
            i + 1,
            &entry,
            self.interner.asn_count(),
            &self.interner,
            true,
            &self.metrics,
        )?;
        self.tier = Arc::new(self.tier.appended(seg, Arc::clone(&snap)));
        self.prev_snap = Some(snap);

        // Publish: swap the fully-built epoch in. The write lock guards
        // only the pointer swap, which a panic cannot leave half-done, so
        // a poisoned lock is recovered here and in `current`.
        let epoch = Arc::new(self.epoch_engine());
        *self
            .handle
            .epoch
            .write()
            .unwrap_or_else(PoisonError::into_inner) = epoch;
        self.handle.published.store(i as u64 + 1, Ordering::Release);
        self.metrics.live_published_total.inc();
        self.metrics
            .live_publish_seconds
            .record(publish_start.elapsed());
        self.metrics.note_publish();
        Ok(id)
    }

    /// Marks the stream as cleanly ended.
    pub fn end(&self) {
        self.handle.ended.store(true, Ordering::Release);
    }

    /// A frozen engine exposing exactly the snapshots published so far:
    /// the segments attached to the writer's tier as of now.
    fn epoch_engine(&self) -> QueryEngine {
        let base = self.handle.current();
        QueryEngine {
            interner: self.interner.clone(),
            snapshots: Vec::new(),
            roas: Arc::clone(&base.roas),
            rov_cache: Arc::clone(&base.rov_cache),
            metrics: Arc::clone(&base.metrics),
            tier: Some(Arc::clone(&self.tier)),
            archive: None,
        }
    }
}

/// How a follow run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FollowEnd {
    /// The stream's end marker was reached.
    EndMarker,
    /// The stop flag was raised (tail mode only).
    Stopped,
}

/// What a follow run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FollowReport {
    /// Snapshots published.
    pub snapshots: u64,
    /// Why the run returned.
    pub end: FollowEnd,
}

enum FollowMode<'a> {
    /// Keep re-reading the growing file until the end marker or `stop`.
    Tail {
        poll: Duration,
        stop: &'a AtomicBool,
    },
    /// The file is complete: EOF mid-frame is a truncation error.
    Drain,
}

/// Follows the structured delta stream at `path` (tail mode): applies
/// every frame through `handle`'s writer as it appears, publishing an
/// epoch per snapshot, until the end marker or `stop` is raised.
/// `on_publish` runs after each publication with the new snapshot count
/// and label.
pub fn follow_stream(
    path: &Path,
    handle: Arc<LiveHandle>,
    spill: &Path,
    opts: LiveOptions,
    poll: Duration,
    stop: &AtomicBool,
    on_publish: impl FnMut(u64, &str),
) -> Result<FollowReport, LiveError> {
    run_stream(
        path,
        handle,
        spill,
        opts,
        FollowMode::Tail { poll, stop },
        on_publish,
    )
}

/// Applies the **complete** stream at `path` in one pass. The file must
/// carry the end marker: hitting EOF mid-frame is a
/// [`LiveError::Truncated`] naming the byte offset where the incomplete
/// frame starts — the partial frame is never applied.
pub fn drain_stream(
    path: &Path,
    handle: Arc<LiveHandle>,
    spill: &Path,
    opts: LiveOptions,
    on_publish: impl FnMut(u64, &str),
) -> Result<FollowReport, LiveError> {
    run_stream(path, handle, spill, opts, FollowMode::Drain, on_publish)
}

/// The followed file's bytes that have not been parsed yet: a backlog
/// of complete frames, or one frame still being written. Everything in
/// front of them is dropped as soon as it is parsed, so a follower holds
/// its backlog, never the stream it has read.
#[derive(Default)]
struct Tail {
    bytes: Vec<u8>,
    /// The stream offset of `bytes[0]`: where the first frame not yet
    /// taken starts, and what keeps error offsets absolute.
    base: usize,
}

impl Tail {
    /// Pulls whatever the file has grown by; `Ok(0)` means no new bytes.
    fn refill(&mut self, file: &mut impl Read) -> Result<usize, LiveError> {
        let before = self.bytes.len();
        file.read_to_end(&mut self.bytes)?;
        Ok(self.bytes.len() - before)
    }

    fn consume(&mut self, n: usize) {
        self.bytes.drain(..n);
        self.base += n;
    }

    fn err(&self, e: CodecError) -> LiveError {
        LiveError::Stream {
            offset: self.base + e.offset(),
            what: codec_what(&e),
        }
    }

    /// Takes the stream header's oracle, once its bytes are complete.
    fn header(&mut self) -> Result<Option<AsGraph>, LiveError> {
        let Some((oracle, next)) = read_header(&self.bytes).map_err(|e| self.err(e))? else {
            return Ok(None);
        };
        self.consume(next);
        Ok(Some(oracle))
    }

    /// One round over the buffered backlog: decodes its complete frames
    /// one at a time and hands each to `take` with the count of complete
    /// frames from it onwards (read off their length prefixes, nothing
    /// decoded ahead), then drops their bytes in one go. Says whether the
    /// end marker follows them.
    fn drain(
        &mut self,
        mut take: impl FnMut(StreamFrame, usize) -> Result<(), LiveError>,
    ) -> Result<bool, LiveError> {
        let mut behind = complete_frames(&self.bytes, 0);
        let mut parsed = 0;
        let ended = loop {
            match next_step(&self.bytes, parsed).map_err(|e| self.err(e))? {
                StreamStep::NeedMore => break false,
                StreamStep::End(_) => break true,
                StreamStep::Frame(frame, next) => {
                    take(*frame, behind)?;
                    behind = behind.saturating_sub(1);
                    parsed = next;
                }
            }
        };
        self.consume(parsed);
        Ok(ended)
    }
}

fn run_stream(
    path: &Path,
    handle: Arc<LiveHandle>,
    spill: &Path,
    opts: LiveOptions,
    mode: FollowMode<'_>,
    mut on_publish: impl FnMut(u64, &str),
) -> Result<FollowReport, LiveError> {
    let mut file = std::fs::File::open(path)?;
    let mut tail = Tail::default();
    let mut writer: Option<LiveWriter> = None;
    let mut published = 0u64;
    tail.refill(&mut file)?;

    loop {
        // Parse as far as the buffered bytes go.
        let mut progressed = false;
        if writer.is_none() {
            if let Some(oracle) = tail.header()? {
                writer = Some(LiveWriter::open(
                    Arc::clone(&handle),
                    oracle,
                    spill,
                    opts.clone(),
                )?);
                progressed = true;
            }
        }
        if let Some(w) = &mut writer {
            // Publish every complete frame already buffered, decoding one
            // at a time. The backlog between what the producer wrote and
            // what we've published is the follower's lag, surfaced as the
            // `rpi_live_frames_behind` gauge.
            let ended = tail.drain(|frame, behind| {
                w.metrics.live_frames_behind.set_u64(behind as u64);
                let label = frame.label.clone();
                w.publish_frame(frame)?;
                published = w.published();
                w.metrics
                    .live_frames_behind
                    .set_u64(behind.saturating_sub(1) as u64);
                on_publish(published, &label);
                progressed = true;
                Ok(())
            })?;
            if ended {
                w.end();
                return Ok(FollowReport {
                    snapshots: published,
                    end: FollowEnd::EndMarker,
                });
            }
        }

        // Out of buffered bytes mid-frame (or mid-header): wait for the
        // tail to grow, or call the stream truncated.
        match &mode {
            FollowMode::Drain => {
                if tail.refill(&mut file)? == 0 {
                    return Err(LiveError::Truncated { offset: tail.base });
                }
            }
            FollowMode::Tail { poll, stop } => {
                if stop.load(Ordering::Acquire) {
                    return Ok(FollowReport {
                        snapshots: published,
                        end: FollowEnd::Stopped,
                    });
                }
                if tail.refill(&mut file)? == 0 && !progressed {
                    std::thread::sleep(*poll);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use bgp_sim::stream::StreamWriter;
    use net_topology::InternetSize;
    use rpi_core::Experiment;

    use super::*;

    /// One `Tail::drain` round: the labels taken, each with the backlog
    /// counted at it, and whether the end marker followed.
    type Round = (Vec<(String, usize)>, bool);

    fn round(tail: &mut Tail) -> Result<Round, LiveError> {
        let mut taken = Vec::new();
        let ended = tail.drain(|frame, behind| {
            taken.push((frame.label, behind));
            Ok(())
        })?;
        Ok((taken, ended))
    }

    fn taken(labels: &[(&str, usize)]) -> Vec<(String, usize)> {
        labels.iter().map(|&(l, n)| (l.to_string(), n)).collect()
    }

    /// A follower holds what it has not parsed yet, never the stream it
    /// has read: at every round boundary, taking the header or a frame
    /// has dropped its bytes, a partial frame is all that stays buffered,
    /// and `base` keeps naming the absolute offset of the first frame not
    /// yet taken — what `LiveError::{Truncated, Stream}` report. Frames
    /// are handed over one at a time, each with the backlog counted from
    /// the length prefixes.
    #[test]
    fn tail_retains_only_unparsed_bytes_and_keeps_offsets_absolute() {
        let exp = Experiment::standard(InternetSize::Tiny, 7);
        let (mut w, header) = StreamWriter::open(&exp.inferred_graph);
        let frames: Vec<Vec<u8>> = ["a", "b", "c"]
            .iter()
            .map(|label| w.frame(label, &exp.output, None))
            .collect();
        let end = w.end();
        let feed = |tail: &mut Tail, parts: &[&[u8]]| {
            let bytes = parts.concat();
            assert_eq!(tail.refill(&mut &bytes[..]).unwrap(), bytes.len());
        };

        // The header arrives with the first half of frame a.
        let mut tail = Tail::default();
        let (a_head, a_rest) = frames[0].split_at(frames[0].len() / 2);
        feed(&mut tail, &[&header[..3]]);
        assert!(tail.header().unwrap().is_none());
        assert_eq!((tail.base, tail.bytes.len()), (0, 3));
        feed(&mut tail, &[&header[3..], a_head]);
        assert!(tail.header().unwrap().is_some());
        assert_eq!((tail.base, tail.bytes.len()), (header.len(), a_head.len()));

        // A partial frame waits: nothing taken, nothing dropped.
        assert_eq!(round(&mut tail).unwrap(), (taken(&[]), false));
        assert_eq!((tail.base, tail.bytes.len()), (header.len(), a_head.len()));

        // The rest of a, all of b, ten bytes of c: two frames taken,
        // only c's ten bytes retained.
        feed(&mut tail, &[a_rest, &frames[1], &frames[2][..10]]);
        assert_eq!(
            round(&mut tail).unwrap(),
            (taken(&[("a", 2), ("b", 1)]), false)
        );
        let c_at = header.len() + frames[0].len() + frames[1].len();
        assert_eq!((tail.base, tail.bytes.len()), (c_at, 10));

        // The end marker is seen in the round that takes the last frame,
        // and stays buffered.
        feed(&mut tail, &[&frames[2][10..], &end]);
        assert_eq!(round(&mut tail).unwrap(), (taken(&[("c", 1)]), true));
        assert_eq!(
            (tail.base, tail.bytes.len()),
            (c_at + frames[2].len(), end.len())
        );
        assert_eq!(round(&mut tail).unwrap(), (taken(&[]), true));

        // A malformed frame is reported at its stream offset, not at its
        // offset in what happens to be buffered; the good frame before it
        // was handed over first.
        let mut tail = Tail {
            bytes: Vec::new(),
            base: c_at,
        };
        feed(&mut tail, &[&frames[2], &[0x7F, 0, 0, 0, 0]]);
        let mut labels = Vec::new();
        let result = tail.drain(|frame, _| {
            labels.push(frame.label);
            Ok(())
        });
        assert_eq!(labels, ["c"]);
        match result {
            Err(LiveError::Stream { offset, what }) => {
                assert_eq!(offset, c_at + frames[2].len());
                assert_eq!(what, "frame kind");
            }
            other => panic!("wanted Stream, got {other:?}"),
        }

        // A frame the taker refuses stops the round; nothing is consumed.
        let mut tail = Tail {
            bytes: Vec::new(),
            base: c_at,
        };
        feed(&mut tail, &[&frames[2], &end]);
        assert!(matches!(
            tail.drain(|_, _| Err(LiveError::Halted)),
            Err(LiveError::Halted)
        ));
        assert_eq!(
            (tail.base, tail.bytes.len()),
            (c_at, frames[2].len() + end.len())
        );
    }

    /// Panics a thread while it holds `handle`'s epoch lock.
    fn poison(handle: &Arc<LiveHandle>) {
        let held = Arc::clone(handle);
        std::thread::spawn(move || {
            let _guard = held.epoch.write();
            panic!("a writer panics mid-publication");
        })
        .join()
        .expect_err("the thread panicked");
        assert!(handle.epoch.is_poisoned());
    }

    /// A panic with the epoch lock held cannot leave the one pointer it
    /// guards half-stored, so a poisoned lock is not every reader's
    /// panic: the writer still publishes through it, and `current` still
    /// serves the published epoch, answering what it answered before.
    #[test]
    fn a_poisoned_epoch_lock_still_publishes_and_serves() {
        use crate::proto::{render_response, Query, Scope};

        let exp = Experiment::standard(InternetSize::Tiny, 7);
        let dir = std::env::temp_dir().join(format!("rpi-live-poison-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (mut w, mut stream) = StreamWriter::open(&exp.inferred_graph);
        stream.extend(w.frame("d0", &exp.output, None));
        stream.extend(w.end());
        std::fs::write(dir.join("live.stream"), stream).unwrap();

        let handle = LiveHandle::new(QueryEngine::default());
        poison(&handle);
        let opts = LiveOptions {
            window: 2,
            keyframe_every: 2,
        };
        let spill = dir.join("spill");
        drain_stream(
            &dir.join("live.stream"),
            handle.clone(),
            &spill,
            opts,
            |_, _| {},
        )
        .expect("publishes through the poisoned lock");
        let epoch = handle.current();
        assert_eq!(epoch.snapshot_count(), 1);

        let (vantage, _) = epoch.vantages()[0];
        let req = Query::PolicySummary { asn: vantage }.at(Scope::Latest);
        let answer = |engine: &QueryEngine| render_response(&req, &engine.execute(&req).unwrap());
        let before = answer(&epoch);
        poison(&handle);
        let after = handle.current();
        assert!(Arc::ptr_eq(&epoch, &after));
        assert_eq!(answer(&after), before);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
