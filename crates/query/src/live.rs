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
//!   engine it returns is frozen (its `horizon` pins every scope
//!   resolution to the snapshots published as of that epoch), so a
//!   whole `execute_batch` — or a REPL listing — sees one consistent
//!   world, never a torn one.
//! * The writer builds snapshot N+1 completely — indexed, spilled to an
//!   rpi-store segment, attached to the shared tier — **before**
//!   swapping the epoch in. A reader that loaded epoch N keeps
//!   answering from epoch N; the next batch sees N+1.
//! * Memory stays bounded: the shared tier's hot set keeps the most
//!   recent `--window` snapshots hydrated; older ones fall back to
//!   their mapped spill segments and stay queryable cold (the PR 7 tier
//!   layer), so `@<id>` history queries span the hot/spilled boundary
//!   transparently.
//!
//! The contract the differential suite (`crates/query/tests/live.rs`)
//! holds: a live engine fed frame by frame renders **byte-identical**
//! responses to an offline engine built from the same events in one
//! shot, at every snapshot, across every protocol verb.

use std::collections::HashMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use bgp_sim::stream::{next_step, read_header, StreamFrame, StreamStep};
use bgp_sim::SimOutput;
use bgp_types::codec::CodecError;
use bgp_types::Asn;
use net_topology::{AsGraph, CustomerCone};
use rpi_mmap::Mmap;
use rpi_store::{write_segment, SegmentKind, StoreError, SEG_FLAG_KEYFRAME};

use crate::archive::{
    delta_plan, encode_delta, encode_full, read_mapped_directory, ArchiveInfo, SegmentMeta,
};
use crate::engine::QueryEngine;
use crate::intern::WorldInterner;
use crate::snapshot::{Provenance, Snapshot, SnapshotId};
use crate::tier::{Tier, TierSnap};

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

fn stream_err(e: CodecError) -> LiveError {
    let what = match &e {
        CodecError::Truncated { wanted, .. } => format!("truncated (wanted {wanted} more bytes)"),
        CodecError::Varint { .. } => "malformed varint".to_string(),
        CodecError::Invalid { what, .. } => what.to_string(),
    };
    LiveError::Stream {
        offset: e.offset(),
        what,
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
    /// serving configuration (shard count, ROA table). The writer grows
    /// the world from there.
    pub fn new(mut engine: QueryEngine) -> Arc<LiveHandle> {
        engine.horizon = Some(0);
        Arc::new(LiveHandle {
            epoch: RwLock::new(Arc::new(engine)),
            published: AtomicU64::new(0),
            ended: AtomicBool::new(false),
        })
    }

    /// The current epoch. Every query of a batch — and every listing —
    /// should run against one loaded epoch so it observes one world.
    pub fn current(&self) -> Arc<QueryEngine> {
        Arc::clone(&self.epoch.read().expect("live epoch poisoned"))
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
    tier: Arc<Tier>,
    /// The base engine's metrics, shared by every published epoch:
    /// publication latency/counts and the follower-lag gauge land here.
    metrics: Arc<crate::metrics::QueryMetrics>,
    spill: PathBuf,
    opts: LiveOptions,
    interner: WorldInterner,
    cones: HashMap<Asn, CustomerCone>,
    oracle: AsGraph,
    prev_out: SimOutput,
    prev_snap: Option<Arc<Snapshot>>,
    metas: Vec<SegmentMeta>,
    last_anchor: Option<usize>,
    count: u32,
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
        Ok(LiveWriter {
            tier: Arc::new(Tier::new_live(opts.window, base.metrics())),
            metrics: base.metrics_arc(),
            spill: spill.to_path_buf(),
            interner: base.interner.clone(),
            cones: HashMap::new(),
            oracle,
            prev_out: SimOutput::default(),
            prev_snap: None,
            metas: Vec::new(),
            last_anchor: None,
            count: 0,
            opts,
            handle,
        })
    }

    /// Snapshots published by this writer.
    pub fn published(&self) -> u64 {
        self.count as u64
    }

    /// Applies one stream frame: index the grown world incrementally,
    /// spill it as an rpi-store segment, attach the segment to the
    /// shared tier, and only then publish the new epoch. A reader
    /// holding the previous epoch is never blocked and never sees the
    /// snapshot until it is fully queryable.
    pub fn publish_frame(&mut self, frame: &StreamFrame) -> Result<SnapshotId, LiveError> {
        let publish_start = std::time::Instant::now();
        let out = frame.apply(&self.prev_out);
        let same_oracle = frame.oracle.is_none();
        if let Some(g) = &frame.oracle {
            self.oracle = g.clone();
        }
        let i = self.count as usize;
        let id = SnapshotId(self.count);

        // Index exactly as the offline incremental path would: the
        // frame's delta is what `output_delta` computes between the same
        // two outputs, so the snapshots come out byte-identical.
        let mut snap = match &self.prev_snap {
            None => {
                self.cones.clear();
                Snapshot::from_output(id, &frame.label, &out, &self.oracle, &mut self.interner)
            }
            Some(prev) => Snapshot::from_output_incremental(
                id,
                &frame.label,
                prev,
                &frame.delta,
                &out,
                &self.oracle,
                same_oracle,
                &mut self.interner,
                &mut self.cones,
            ),
        };
        snap.interned_watermark = self.interner.sizes();
        if self.prev_snap.is_some() {
            snap.provenance = Provenance::Delta(Arc::new(frame.delta.clone()));
        }
        let snap = Arc::new(snap);

        // Spill: same segment policy as `save_archive` — delta when
        // cleanly replayable, full otherwise, a self-contained keyframe
        // on cadence so cold chain walks stay short.
        let prev = self.prev_snap.as_deref();
        let force_keyframe = match self.last_anchor {
            Some(anchor) => i - anchor >= self.opts.keyframe_every.max(1),
            None => false,
        };
        let plan = if force_keyframe {
            None
        } else {
            prev.and_then(|p| delta_plan(&snap, p))
        };
        let (kind, payload, standalone) = match plan {
            Some(delta) => (
                SegmentKind::Delta,
                encode_delta(
                    &snap,
                    prev.expect("delta implies prev"),
                    delta,
                    &self.interner,
                ),
                false,
            ),
            None => {
                let (payload, standalone) = encode_full(&snap, prev, force_keyframe);
                (SegmentKind::Full, payload, standalone)
            }
        };
        if standalone {
            self.last_anchor = Some(i);
        }
        let file = format!("snap-{i:04}.seg");
        let mut entry = write_segment(&self.spill, &file, kind, &frame.label, &payload)?;
        if standalone {
            entry.flags |= SEG_FLAG_KEYFRAME;
        }
        let path = self.spill.join(&file);
        let map = Mmap::map(&path).map_err(|source| StoreError::Io { path, source })?;
        let dir = match kind {
            SegmentKind::Full => Some(
                read_mapped_directory(&map, self.interner.sizes().0)
                    .map_err(stream_err)?
                    .0,
            ),
            _ => None,
        };
        let ts = TierSnap::new(
            file,
            kind,
            frame.label.clone(),
            entry.crc32,
            map,
            dir,
            standalone,
            // Just written and checksummed — no lazy re-verify needed.
            true,
        );
        let count = self
            .tier
            .append(ts, self.interner.sizes(), Arc::clone(&snap));
        // Manifest-style indices: slot 0 is reserved for the symbols
        // segment a finished archive would carry.
        self.metas.push(SegmentMeta::from_entry(i + 1, &entry));
        self.count = count as u32;
        self.prev_out = out;
        self.prev_snap = Some(snap);

        // Publish: swap the fully-built epoch in. The write lock guards
        // only the pointer swap.
        let epoch = Arc::new(self.epoch_engine());
        *self.handle.epoch.write().expect("live epoch poisoned") = epoch;
        self.handle
            .published
            .store(self.count as u64, Ordering::Release);
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

    /// A frozen engine exposing exactly the snapshots published so far.
    fn epoch_engine(&self) -> QueryEngine {
        let base = self.handle.current();
        QueryEngine {
            interner: self.interner.clone(),
            snapshots: Vec::new(),
            cones: HashMap::new(),
            roas: Arc::clone(&base.roas),
            rov_cache: Arc::clone(&base.rov_cache),
            metrics: Arc::clone(&base.metrics),
            tier: Some(Arc::clone(&self.tier)),
            horizon: Some(self.count),
            archive: Some(ArchiveInfo {
                dir: self.spill.clone(),
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
                snapshots: self.metas.clone(),
                roas: None,
            }),
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

fn run_stream(
    path: &Path,
    handle: Arc<LiveHandle>,
    spill: &Path,
    opts: LiveOptions,
    mode: FollowMode<'_>,
    mut on_publish: impl FnMut(u64, &str),
) -> Result<FollowReport, LiveError> {
    let mut file = std::fs::File::open(path)?;
    let mut buf: Vec<u8> = Vec::new();
    let mut parsed = 0usize;
    let mut writer: Option<LiveWriter> = None;
    let mut published = 0u64;

    // Pulls whatever the file has grown by; `Ok(0)` means no new bytes.
    let mut refill = |buf: &mut Vec<u8>| -> Result<usize, LiveError> {
        let before = buf.len();
        file.read_to_end(buf)?;
        Ok(buf.len() - before)
    };
    refill(&mut buf)?;

    loop {
        // Parse as far as the buffered bytes go.
        let mut progressed = false;
        if writer.is_none() {
            if let Some((oracle, next)) = read_header(&buf).map_err(stream_err)? {
                writer = Some(LiveWriter::open(
                    Arc::clone(&handle),
                    oracle,
                    spill,
                    opts.clone(),
                )?);
                parsed = next;
                progressed = true;
            }
        }
        if let Some(w) = &mut writer {
            // First collect every complete frame already buffered (up to
            // a bound, so a huge drain never holds the whole stream as
            // parsed frames at once): the backlog between what the
            // producer wrote and what we've published is the follower's
            // lag, surfaced as the `rpi_live_frames_behind` gauge and
            // drained frame by frame below.
            const PENDING_CAP: usize = 256;
            let mut pending = Vec::new();
            let mut ended = false;
            while pending.len() < PENDING_CAP {
                match next_step(&buf, parsed).map_err(stream_err)? {
                    StreamStep::NeedMore => break,
                    StreamStep::Frame(frame, next) => {
                        pending.push(frame);
                        parsed = next;
                    }
                    StreamStep::End(_) => {
                        ended = true;
                        break;
                    }
                }
            }
            let mut behind = pending.len() as u64;
            w.metrics.live_frames_behind.set_u64(behind);
            for frame in &pending {
                w.publish_frame(frame)?;
                published = w.published();
                behind -= 1;
                w.metrics.live_frames_behind.set_u64(behind);
                on_publish(published, &frame.label);
                progressed = true;
            }
            if ended {
                w.end();
                return Ok(FollowReport {
                    snapshots: published,
                    end: FollowEnd::EndMarker,
                });
            }
            if pending.len() == PENDING_CAP {
                // The buffer may hold more complete frames; go parse
                // them before consulting the refill/truncation logic.
                continue;
            }
        }

        // Out of buffered bytes mid-frame (or mid-header): wait for the
        // tail to grow, or call the stream truncated.
        match &mode {
            FollowMode::Drain => {
                if refill(&mut buf)? == 0 {
                    return Err(LiveError::Truncated { offset: parsed });
                }
            }
            FollowMode::Tail { poll, stop } => {
                if stop.load(Ordering::Acquire) {
                    return Ok(FollowReport {
                        snapshots: published,
                        end: FollowEnd::Stopped,
                    });
                }
                if refill(&mut buf)? == 0 && !progressed {
                    std::thread::sleep(*poll);
                }
            }
        }
    }
}
