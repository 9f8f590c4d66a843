//! The two-tier snapshot residency subsystem (**rpi-tier**).
//!
//! A tier-attached engine ([`QueryEngine::load_archive_tiered`]) does
//! not decode an archive at startup. It memory-maps every snapshot
//! segment — a per-snapshot *attach* costs microseconds, not the
//! milliseconds a full hydrate-decode costs — and keeps two residency
//! tiers:
//!
//! * **cold** — the mapped segment bytes themselves. Exact
//!   `route`/`resolve`/`rov` point queries against a cold full segment
//!   are answered **zero-copy off the mapping**: the segment's trailing
//!   vantage directory locates the vantage's flattened trie, a
//!   [`bgp_types::flat::FlatTrie`] walks the mapped bytes in place, and
//!   only the one matching route is decoded. Nothing is allocated per
//!   snapshot, and the answer bytes are identical to what a fully
//!   hydrated engine renders (the differential suite in
//!   `crates/query/tests/tier.rs` holds this across every verb).
//! * **hot** — snapshots hydrated into the ordinary in-memory
//!   [`Snapshot`] structures, bounded by `--hot-cap` and evicted
//!   least-recently-used. Any query the cold path cannot serve (SA
//!   status, summaries, leaks, history walks, diffs) hydrates the
//!   snapshot on demand by decoding its segment — replaying its delta
//!   chain forward from the nearest **keyframe** (a self-contained full
//!   segment, written every `--keyframe-every` snapshots at save time)
//!   or from a hot chain member, whichever is closer. Evicted snapshots
//!   simply drop back to the mapping.
//!
//! Integrity is tiered to match: the manifest CRC and every segment's
//! byte length are verified at attach, the vantage directory of every
//! full segment is parsed and bounds-checked eagerly, and a segment's
//! full CRC-32 is verified lazily, once, the first time its bytes are
//! actually read (cold query or hydration). A failed check surfaces as
//! [`QueryError::Corrupt`] naming the segment file and byte offset —
//! the engine never answers from bytes it cannot vouch for.
//!
//! A [`Tier`] owns its list of attached [`Segment`]s outright and never
//! changes it: [`attach`] is the one way a segment gets mapped — for
//! [`load_tiered`] over a manifest and for the live writer
//! ([`crate::live`]) over the segment it just spilled — and a live
//! publication builds the next epoch's tier ([`Tier::appended`]: the
//! same `Arc`ed records plus one). The length of the list *is* the
//! snapshot count of the engine holding it, so readers take no lock to
//! resolve a scope, find a label or reach a mapping; only the hot set,
//! which the epochs of a live engine share, sits behind a mutex.
//! Hydration runs the archive's one [`replay_segment`] over mapped bytes.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use bgp_types::codec::{CodecError, Reader};
use bgp_types::{flat, Asn, Ipv4Prefix};
use rpi_mmap::Mmap;
use rpi_obs::Counter;
use rpi_store::{crc32, Manifest, SegmentEntry, SegmentKind, SegmentRef, StoreError};

use crate::archive::{
    decode_route, read_mapped_directory, replay_segment, ArchiveInfo, SegmentMeta, VantageDir,
};
use crate::engine::{QueryEngine, RouteAnswer};
use crate::intern::WorldInterner;
use crate::metrics::QueryMetrics;
use crate::plan::QueryError;
use crate::proto::{Query, Response, RovAnswer};
use crate::snapshot::{Snapshot, SnapshotId, VantageKind};

/// Where a tiered snapshot currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// Hydrated into the in-memory hot set.
    Hot,
    /// On disk behind its mapping; point queries answer zero-copy.
    Cold,
}

/// The cold tier's residency counters (see [`QueryEngine::tier_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierStats {
    /// Archived snapshots behind the tier.
    pub snapshots: usize,
    /// Snapshots currently hydrated.
    pub hot: usize,
    /// The hot set's capacity.
    pub hot_cap: usize,
    /// Segments attached (mapped) — one per snapshot, at load.
    pub attaches: u64,
    /// Snapshots decoded into memory so far (chain replays included).
    pub hydrations: u64,
    /// Hot-set evictions so far.
    pub evictions: u64,
    /// Point queries answered zero-copy off a cold mapping.
    pub cold_hits: u64,
}

/// One attached snapshot segment: its manifest row, its snapshot's
/// interner watermark, its mapping and (full segments) its directory.
#[derive(Debug)]
pub(crate) struct Segment {
    pub(crate) meta: SegmentMeta,
    /// Interner sizes right after the snapshot was indexed, stamped onto
    /// its hydrated form so it matches a full load's.
    watermark: (usize, usize, usize),
    map: Mmap,
    /// Parsed eagerly at attach for full segments; `None` for deltas.
    dir: Option<VantageDir>,
    /// Set once the segment's CRC has been verified against the
    /// manifest (lazily, at first actual read of the bytes).
    verified: AtomicBool,
}

/// Attaches one snapshot segment — row `index` of the manifest, `entry`,
/// in `dir`: holds the file to the row's byte length, maps it, and for a
/// full segment reads the vantage directory off its tail and holds its
/// label and keyframe flag to the row's. `verified` is `true` when the
/// caller has just checksummed these bytes (the live writer wrote
/// them); otherwise the CRC is checked at first read.
pub(crate) fn attach(
    dir: &Path,
    index: usize,
    entry: &SegmentEntry,
    watermark: (usize, usize, usize),
    interner: &WorldInterner,
    verified: bool,
    metrics: &QueryMetrics,
) -> Result<Segment, StoreError> {
    let segref = || SegmentRef {
        index,
        file: entry.file.clone(),
    };
    let path = dir.join(&entry.file);
    let found = match std::fs::metadata(&path) {
        Ok(meta) => meta.len(),
        Err(source) => return Err(StoreError::Io { path, source }),
    };
    if found != entry.bytes {
        return Err(StoreError::Truncated {
            segment: segref(),
            expected: entry.bytes,
            found,
        });
    }
    let map = Mmap::map(&path).map_err(|source| StoreError::Io { path, source })?;
    let vdir = match entry.kind {
        SegmentKind::Full => {
            let (vdir, self_contained, label) = read_mapped_directory(&map, interner.sizes().0)
                .map_err(|e| StoreError::corrupt(segref(), e))?;
            if label != entry.label {
                return Err(StoreError::invalid(
                    segref(),
                    0,
                    "label disagrees with manifest",
                ));
            }
            if entry.is_keyframe() != self_contained {
                return Err(StoreError::invalid(
                    segref(),
                    0,
                    "manifest keyframe flag disagrees with segment",
                ));
            }
            Some(vdir)
        }
        SegmentKind::Delta => {
            if entry.is_keyframe() {
                return Err(StoreError::invalid(
                    segref(),
                    0,
                    "delta segment flagged as keyframe",
                ));
            }
            None
        }
        SegmentKind::Symbols | SegmentKind::Roa => {
            unreachable!("only snapshot segments are attached")
        }
    };
    metrics.tier_attaches_total.inc();
    Ok(Segment {
        meta: SegmentMeta::from_entry(index, entry),
        watermark,
        map,
        dir: vdir,
        verified: AtomicBool::new(verified),
    })
}

impl Segment {
    /// Verifies the segment's CRC against the manifest, once.
    fn verify(&self) -> Result<(), QueryError> {
        if self.verified.load(Ordering::Acquire) {
            return Ok(());
        }
        if crc32(&self.map) != self.meta.crc32 {
            return Err(QueryError::Corrupt {
                file: self.meta.file.clone(),
                offset: 0,
                what: "segment checksum mismatch".to_string(),
            });
        }
        self.verified.store(true, Ordering::Release);
        Ok(())
    }
}

/// The hot set: hydrated snapshots under a strict LRU bound.
#[derive(Debug, Default)]
struct HotSet {
    tick: u64,
    map: HashMap<u32, (Arc<Snapshot>, u64)>,
}

impl HotSet {
    fn get(&mut self, id: u32) -> Option<Arc<Snapshot>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&id).map(|(snap, last)| {
            *last = tick;
            Arc::clone(snap)
        })
    }

    fn insert(&mut self, id: u32, snap: Arc<Snapshot>, cap: usize, evictions: &Counter) {
        self.tick += 1;
        self.map.insert(id, (snap, self.tick));
        while self.map.len() > cap {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, (_, last))| *last)
                .map(|(&k, _)| k)
                .expect("hot set over capacity is non-empty");
            self.map.remove(&victim);
            evictions.inc();
        }
    }
}

/// The tier state a tier-attached [`QueryEngine`] carries: its attached
/// segments and the hot set hydrated from them. Counters and latency
/// histograms are the owning engine's registry
/// ([`crate::metrics::QueryMetrics`]), so [`TierStats`] is a view over
/// the same atomics the `metrics` exposition renders.
#[derive(Debug)]
pub(crate) struct Tier {
    /// The attached segments, in snapshot order. Never changes: the
    /// list is the whole world of the engine — or live epoch — that
    /// holds this tier, and its length the snapshot count.
    pub(crate) segs: Vec<Arc<Segment>>,
    hot_cap: usize,
    /// Shared by the epochs of a live engine: ids at or past
    /// `segs.len()` are snapshots of later epochs.
    hot: Arc<Mutex<HotSet>>,
    metrics: Arc<QueryMetrics>,
    /// Where the segments live, and the symbols / ROA rows beside them.
    base: Arc<ArchiveInfo>,
    /// `base` with one row per attached segment, built at first listing.
    info: OnceLock<ArchiveInfo>,
}

/// What a decoder found wrong, without the offset (the typed errors of
/// the query and live paths carry that in a field of their own).
pub(crate) fn codec_what(e: &CodecError) -> String {
    match e {
        CodecError::Truncated { wanted, .. } => format!("truncated (wanted {wanted} more bytes)"),
        CodecError::Varint { .. } => "malformed varint".to_string(),
        CodecError::Invalid { what, .. } => what.to_string(),
    }
}

fn corrupt(file: &str, e: CodecError) -> QueryError {
    QueryError::Corrupt {
        file: file.to_string(),
        offset: e.offset(),
        what: codec_what(&e),
    }
}

impl Tier {
    /// A tier over `segs` with an empty hot set of `hot_cap` snapshots
    /// (clamped to ≥ 1). `base` names the segments' directory and the
    /// symbols / ROA rows; its snapshot rows are dropped — `segs` carry
    /// them.
    pub(crate) fn new(
        segs: Vec<Arc<Segment>>,
        hot_cap: usize,
        mut base: ArchiveInfo,
        metrics: &Arc<QueryMetrics>,
    ) -> Tier {
        base.snapshots.clear();
        Tier {
            segs,
            hot_cap: hot_cap.max(1),
            hot: Arc::default(),
            metrics: Arc::clone(metrics),
            base: Arc::new(base),
            info: OnceLock::new(),
        }
    }

    /// The tier of the next live epoch: this one's segments plus `seg`,
    /// over the same hot set — which `hydrated`, the new segment's
    /// snapshot, enters, evicting LRU members past the window. Epochs
    /// already published keep their own, shorter list.
    pub(crate) fn appended(&self, seg: Segment, hydrated: Arc<Snapshot>) -> Tier {
        let mut segs = Vec::with_capacity(self.segs.len() + 1);
        segs.extend_from_slice(&self.segs);
        segs.push(Arc::new(seg));
        self.hot_set().insert(
            self.segs.len() as u32,
            hydrated,
            self.hot_cap,
            &self.metrics.tier_evictions_total,
        );
        Tier {
            segs,
            hot_cap: self.hot_cap,
            hot: Arc::clone(&self.hot),
            metrics: Arc::clone(&self.metrics),
            base: Arc::clone(&self.base),
            info: OnceLock::new(),
        }
    }

    /// The hot set, locked. A panic with the lock held — a hydration
    /// that panicked — cannot leave it half-changed: a chain link enters
    /// it only once fully replayed, and an insert or an eviction runs no
    /// code that can fail. So a poisoned lock is recovered, not made
    /// every later reader's panic.
    fn hot_set(&self) -> MutexGuard<'_, HotSet> {
        self.hot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Where the tier's bytes live on disk, one row per attached segment.
    pub(crate) fn archive_info(&self) -> &ArchiveInfo {
        self.info.get_or_init(|| ArchiveInfo {
            snapshots: self.segs.iter().map(|s| s.meta.clone()).collect(),
            ..ArchiveInfo::clone(&self.base)
        })
    }

    /// Where snapshot `id` currently lives. Pure observation: does not
    /// touch LRU recency.
    pub(crate) fn residency(&self, id: SnapshotId) -> Option<Residency> {
        if id.index() >= self.segs.len() {
            return None;
        }
        let hot = self.hot_set();
        Some(if hot.map.contains_key(&id.0) {
            Residency::Hot
        } else {
            Residency::Cold
        })
    }

    /// The residency counters.
    pub(crate) fn stats(&self) -> TierStats {
        let limit = self.segs.len();
        let hot = self.hot_set();
        TierStats {
            snapshots: limit,
            // A listing describes one world: later live epochs' hot
            // snapshots are not this one's.
            hot: hot.map.keys().filter(|&&id| (id as usize) < limit).count(),
            hot_cap: self.hot_cap,
            attaches: self.metrics.tier_attaches_total.get(),
            hydrations: self.metrics.tier_hydrations_total.get(),
            evictions: self.metrics.tier_evictions_total.get(),
            cold_hits: self.metrics.tier_cold_hits_total.get(),
        }
    }

    /// The vantages of snapshot `id`, ascending by ASN — read from the
    /// mapped directory when there is one, so listing never hydrates.
    pub(crate) fn vantages(&self, engine: &QueryEngine, id: SnapshotId) -> Vec<(Asn, VantageKind)> {
        let Some(seg) = self.segs.get(id.index()) else {
            return Vec::new();
        };
        let mut out: Vec<(Asn, VantageKind)> = match &seg.dir {
            Some(dir) => dir
                .entries
                .iter()
                .map(|e| (engine.interner.resolve_asn(e.sym), e.kind))
                .collect(),
            None => match self.snapshot(engine, id) {
                Ok(snap) => snap
                    .vantage_syms()
                    .map(|(s, k)| (engine.interner.resolve_asn(s), k))
                    .collect(),
                Err(_) => return Vec::new(),
            },
        };
        out.sort_unstable_by_key(|&(a, _)| a);
        out
    }

    // ---------- the cold path: zero-copy point queries ----------

    /// Answers `query` straight off snapshot `id`'s mapped segment if it
    /// is a cold-capable point query (exact route, longest-prefix
    /// resolve, ROV) against a cold full segment. `Ok(None)` means "not
    /// servable cold — hydrate": the snapshot is hot (its in-memory copy
    /// is authoritative for LRU recency), a delta segment backs it, or
    /// the verb needs full structures.
    pub(crate) fn try_cold(
        &self,
        engine: &QueryEngine,
        query: &Query,
        id: SnapshotId,
    ) -> Result<Option<Response>, QueryError> {
        if !matches!(
            query,
            Query::Route { .. } | Query::Resolve { .. } | Query::Rov { .. }
        ) {
            return Ok(None);
        }
        if self.residency(id) == Some(Residency::Hot) {
            return Ok(None);
        }
        let Some(ts) = self.segs.get(id.index()) else {
            return Err(QueryError::UnknownSnapshot(id));
        };
        let Some(dir) = &ts.dir else {
            return Ok(None);
        };
        let cold_start = Instant::now();
        ts.verify()?;
        let resp = match *query {
            Query::Route { vantage, prefix } => {
                Response::Route(self.cold_route(engine, ts, dir, id, vantage, prefix, false)?)
            }
            Query::Resolve { vantage, prefix } => {
                Response::Route(self.cold_route(engine, ts, dir, id, vantage, prefix, true)?)
            }
            Query::Rov { vantage, prefix } => {
                engine.metrics.sec_rov_total.inc();
                Response::Rov(self.cold_rov(engine, ts, dir, vantage, prefix)?)
            }
            _ => unreachable!("matched above"),
        };
        self.metrics.tier_cold_hits_total.inc();
        self.metrics
            .tier_cold_hit_seconds
            .record(cold_start.elapsed());
        Ok(Some(resp))
    }

    /// Decodes the one matched route value in place (the value bytes are
    /// a subslice of the mapping; offsets in errors stay absolute).
    fn decode_value(
        &self,
        engine: &QueryEngine,
        ts: &Segment,
        value: &[u8],
    ) -> Result<crate::snapshot::CompactRoute, QueryError> {
        let raw: &[u8] = &ts.map;
        let abs = value.as_ptr() as usize - raw.as_ptr() as usize;
        let mut r = Reader::with_base(value, abs);
        let route = decode_route(&mut r, engine.interner.sizes().0)
            .map_err(|e| corrupt(&ts.meta.file, e))?;
        if !r.is_exhausted() {
            return Err(corrupt(
                &ts.meta.file,
                CodecError::Invalid {
                    offset: r.position(),
                    what: "trailing bytes after route value",
                },
            ));
        }
        Ok(route)
    }

    #[allow(clippy::too_many_arguments)]
    fn cold_route(
        &self,
        engine: &QueryEngine,
        ts: &Segment,
        dir: &VantageDir,
        id: SnapshotId,
        vantage: Asn,
        prefix: Ipv4Prefix,
        lpm: bool,
    ) -> Result<Option<RouteAnswer>, QueryError> {
        let Some(v) = engine.interner.lookup_asn(vantage) else {
            return Ok(None);
        };
        let Some(entry) = dir.entry(v) else {
            return Ok(None);
        };
        let raw: &[u8] = &ts.map;
        let (start, len) = entry.span;
        let trie = flat::FlatTrie::new(&raw[start..start + len], start)
            .map_err(|e| corrupt(&ts.meta.file, e))?;
        let matched = if lpm {
            trie.best_match(prefix)
        } else {
            trie.get(prefix).map(|hit| hit.map(|value| (prefix, value)))
        };
        let Some((matched_prefix, value)) = matched.map_err(|e| corrupt(&ts.meta.file, e))? else {
            return Ok(None);
        };
        let route = self.decode_value(engine, ts, value)?;
        Ok(Some(RouteAnswer {
            snapshot: id,
            vantage,
            prefix: matched_prefix,
            next_hop: engine.interner.resolve_asn(route.next_hop),
            path: route
                .path
                .iter()
                .map(|&s| engine.interner.resolve_asn(s))
                .collect(),
        }))
    }

    fn cold_rov(
        &self,
        engine: &QueryEngine,
        ts: &Segment,
        dir: &VantageDir,
        vantage: Asn,
        prefix: Ipv4Prefix,
    ) -> Result<RovAnswer, QueryError> {
        let Some(v) = engine.interner.lookup_asn(vantage) else {
            return Ok(RovAnswer::UnknownVantage);
        };
        let Some(entry) = dir.entry(v) else {
            return Ok(RovAnswer::UnknownVantage);
        };
        let raw: &[u8] = &ts.map;
        let (start, len) = entry.span;
        let trie = flat::FlatTrie::new(&raw[start..start + len], start)
            .map_err(|e| corrupt(&ts.meta.file, e))?;
        let Some(value) = trie.get(prefix).map_err(|e| corrupt(&ts.meta.file, e))? else {
            return Ok(RovAnswer::NoRoute);
        };
        let route = self.decode_value(engine, ts, value)?;
        let origin = engine
            .interner
            .resolve_asn(*route.path.last().expect("decoded paths are non-empty"));
        let (validity, covering) = engine.rov_cache.validate(&engine.roas, prefix, origin);
        Ok(RovAnswer::Validated {
            origin,
            validity,
            covering,
        })
    }

    // ---------- the hot path: on-demand hydration ----------

    /// The snapshot behind `id` if it is already hot — one bounded
    /// lock, no hydration. Bumps LRU recency on a hit. Only this tier's
    /// own ids hit: the shared hot set also holds later epochs'.
    pub(crate) fn hot_get(&self, id: u32) -> Option<Arc<Snapshot>> {
        if id as usize >= self.segs.len() {
            return None;
        }
        self.hot_set().get(id)
    }

    /// The snapshot behind `id`, hydrating it (and its delta chain back
    /// to the nearest anchor — a hot chain member or a keyframe) into
    /// the LRU-bounded hot set on a miss. The hot-set lock is held
    /// across the hydration so concurrent queries for the same cold
    /// snapshot decode it once.
    pub(crate) fn snapshot(
        &self,
        engine: &QueryEngine,
        id: SnapshotId,
    ) -> Result<Arc<Snapshot>, QueryError> {
        if id.index() >= self.segs.len() {
            return Err(QueryError::UnknownSnapshot(id));
        }
        let mut hot = self.hot_set();
        if let Some(snap) = hot.get(id.0) {
            return Ok(snap);
        }
        let hydrate_start = Instant::now();

        // Walk back to the nearest anchor: a hot snapshot (cheapest) to
        // replay on top of, or a self-contained keyframe segment to
        // replay from.
        let mut cur: Option<Arc<Snapshot>> = None;
        let mut first = id.index();
        while !self.segs[first].meta.keyframe {
            if first == 0 {
                return Err(QueryError::Corrupt {
                    file: self.segs[0].meta.file.clone(),
                    offset: 0,
                    what: "no keyframe anchors the delta chain".to_string(),
                });
            }
            if let Some(snap) = hot.get(first as u32 - 1) {
                cur = Some(snap);
                break;
            }
            first -= 1;
        }

        for k in first..=id.index() {
            let replay_start = Instant::now();
            let seg = &self.segs[k];
            seg.verify()?;
            let snap = replay_segment(
                &engine.interner,
                SnapshotId(k as u32),
                seg.meta.kind,
                &seg.meta.label,
                &seg.map,
                cur.as_deref(),
                seg.watermark,
            )
            .map_err(|e| corrupt(&seg.meta.file, e))?;
            let snap = Arc::new(snap);
            self.metrics.tier_hydrations_total.inc();
            self.metrics
                .tier_chain_replay_seconds
                .record(replay_start.elapsed());
            hot.insert(
                k as u32,
                Arc::clone(&snap),
                self.hot_cap,
                &self.metrics.tier_evictions_total,
            );
            cur = Some(snap);
        }
        self.metrics
            .tier_hydration_seconds
            .record(hydrate_start.elapsed());
        Ok(cur.expect("the chain holds at least the snapshot asked for"))
    }
}

/// Attaches to the archive at `dir` in tiered mode (see
/// [`QueryEngine::load_archive_tiered`]).
pub(crate) fn load_tiered(dir: &Path, hot_cap: usize) -> Result<QueryEngine, StoreError> {
    let manifest = Manifest::read(dir)?;
    let (mut engine, watermarks) = crate::archive::load_prelude(dir, &manifest)?;
    let mut segs = Vec::with_capacity(watermarks.len());
    for ((index, entry), &watermark) in manifest.snapshot_segments().zip(&watermarks) {
        let (interner, metrics) = (&engine.interner, &engine.metrics);
        let seg = attach(dir, index, entry, watermark, interner, false, metrics)?;
        segs.push(Arc::new(seg));
    }
    crate::archive::load_roas(dir, &manifest, &mut engine)?;
    let base = ArchiveInfo::from_manifest(dir, &manifest);
    engine.tier = Some(Arc::new(Tier::new(segs, hot_cap, base, &engine.metrics)));
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use net_topology::InternetSize;
    use rpi_core::Experiment;

    use super::*;
    use crate::archive::SegmentWriter;
    use crate::live::LiveError;

    /// `attach` is where both of its callers learn that a segment file
    /// is not what its manifest row says: a typed [`StoreError`] naming
    /// the file — which the live writer reports as a store fault
    /// (`LiveError::Store`), never as a malformed stream.
    #[test]
    fn attach_failures_are_typed_and_name_the_segment_file() {
        let dir = std::env::temp_dir().join(format!("rpi-tier-attach-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let exp = Experiment::standard(InternetSize::Tiny, 7);
        let mut engine = QueryEngine::default();
        engine.ingest_experiment(&exp, "t0");
        let snap = Arc::clone(&engine.snapshots[0]);
        let entry = SegmentWriter::new(None)
            .write(&dir, &snap, None, &engine.interner)
            .expect("write");
        assert_eq!(
            (entry.file.as_str(), entry.kind),
            ("snap-0000.seg", SegmentKind::Full)
        );
        let path = dir.join(&entry.file);
        let bytes = std::fs::read(&path).unwrap();
        // As `load_tiered` (lazy CRC) and as the live writer (just
        // checksummed) call it.
        let try_attach = |verified: bool| {
            let watermark = snap.interned_watermark;
            attach(
                &dir,
                1,
                &entry,
                watermark,
                &engine.interner,
                verified,
                engine.metrics(),
            )
        };

        let seg = try_attach(false).expect("an intact segment attaches");
        assert_eq!(seg.meta.file, entry.file);
        assert!(seg.meta.keyframe && seg.dir.is_some());
        assert_eq!(engine.metrics().tier_attaches_total.get(), 1);

        // A truncated full-segment file.
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        for verified in [false, true] {
            match try_attach(verified) {
                Err(StoreError::Truncated {
                    segment,
                    expected,
                    found,
                }) => {
                    assert_eq!((segment.index, segment.file.as_str()), (1, "snap-0000.seg"));
                    assert_eq!((expected, found), (entry.bytes, (bytes.len() / 2) as u64));
                }
                other => panic!("wanted Truncated, got {other:?}"),
            }
        }

        // The `RPD3` footer magic flipped: same length, so only reading
        // the directory can tell.
        let mut flipped = bytes.clone();
        *flipped.last_mut().unwrap() ^= 1;
        std::fs::write(&path, &flipped).unwrap();
        for verified in [false, true] {
            let err = try_attach(verified).expect_err("a bad footer must not attach");
            let StoreError::Corrupt {
                segment,
                offset,
                what,
            } = &err
            else {
                panic!("wanted Corrupt, got {err:?}");
            };
            assert_eq!((segment.index, segment.file.as_str()), (1, "snap-0000.seg"));
            assert_eq!(*offset, bytes.len() - 4);
            assert!(what.contains("full-segment directory magic"), "{what}");
            // What `publish_frame`'s `?` makes of it.
            let live = LiveError::from(err);
            assert!(matches!(live, LiveError::Store(_)), "{live:?}");
            let line = live.to_string();
            assert!(
                line.starts_with("spill segment: segment 1 (snap-0000.seg) corrupt at byte"),
                "{line}"
            );
        }
        assert_eq!(
            engine.metrics().tier_attaches_total.get(),
            1,
            "a failed attach is not counted"
        );

        // The same file under a manifest, through `load_tiered`.
        std::fs::write(&path, &bytes).unwrap();
        let archive = dir.join("archive");
        let manifest = engine.save_archive(&archive, false).expect("save");
        let file = &manifest.segments[1].file;
        assert_eq!(std::fs::read(archive.join(file)).unwrap(), bytes);
        std::fs::write(archive.join(file), &flipped).unwrap();
        match load_tiered(&archive, 2) {
            Err(StoreError::Corrupt { segment, what, .. }) => {
                assert_eq!((segment.index, segment.file.as_str()), (1, "snap-0000.seg"));
                assert!(what.contains("full-segment directory magic"), "{what}");
            }
            other => panic!("wanted Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A panic with the hot-set lock held — a hydration that panicked —
    /// poisons it, and every later tiered query still renders what it
    /// rendered before: `sa @0` (hydrated) and `route @1` (replayed onto
    /// it at hot cap 1, evicting it, so asking `sa @0` again hydrates
    /// under the poisoned lock).
    #[test]
    fn a_poisoned_hot_set_keeps_answering() {
        use bgp_sim::churn::simulate_series;
        use bgp_sim::ChurnConfig;

        use crate::proto::{render_response, Query, Scope};

        let exp = Experiment::standard(InternetSize::Tiny, 7);
        let cfg = ChurnConfig {
            steps: 3,
            ..ChurnConfig::daily(7)
        };
        let series = simulate_series(&exp.graph, &exp.truth, &exp.spec, &cfg);
        let mut engine = QueryEngine::default();
        engine.ingest_series_incremental(&series, &exp.inferred_graph);
        let dir = std::env::temp_dir().join(format!("rpi-tier-poison-{}", std::process::id()));
        engine.save_archive(&dir, true).expect("save");
        let tiered = QueryEngine::load_archive_tiered(&dir, 1).expect("attach");
        assert_eq!(
            tiered.segment_meta(SnapshotId(1)).unwrap().kind,
            SegmentKind::Delta
        );

        let (vantage, _) = tiered.vantages_in(SnapshotId(0))[0];
        let owner = engine.interner.lookup_asn(vantage).unwrap();
        let prefix = engine.snapshots[0].table_prefixes(owner).next().unwrap();
        let reqs = [
            Query::SaStatus { vantage, prefix }.at(Scope::Id(SnapshotId(0))),
            Query::Route { vantage, prefix }.at(Scope::Id(SnapshotId(1))),
        ];
        let answers = || -> Vec<String> {
            (reqs.iter())
                .map(|req| render_response(req, &tiered.execute(req).expect("answers")))
                .collect()
        };
        let before = answers();

        let tier = tiered.tier.as_ref().expect("tier-attached");
        let held = Arc::clone(&tier.hot);
        std::thread::spawn(move || {
            let _guard = held.lock();
            panic!("a hydration panics with the hot set held");
        })
        .join()
        .expect_err("the thread panicked");
        assert!(tier.hot.is_poisoned());
        assert_eq!(answers(), before);
        assert_eq!(tiered.residency(SnapshotId(1)), Some(Residency::Hot));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
