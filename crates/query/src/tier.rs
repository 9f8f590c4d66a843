//! The two-tier snapshot residency subsystem (**rpi-tier**).
//!
//! A tier-attached engine ([`QueryEngine::load_archive_tiered`]) does
//! not decode an archive at startup. It memory-maps every snapshot
//! segment — a per-snapshot *attach* costs microseconds, not the
//! milliseconds a full hydrate-decode costs — and keeps two residency
//! tiers:
//!
//! * **cold** — the mapped segment bytes themselves. The point verbs
//!   (`route`, `resolve`, `sa`, `rov`, `rel`) at a cold snapshot N read
//!   them in place through a [`ChainView`]: the delta segments from N
//!   back to the nearest full segment, newest first, each through an
//!   event index built once per segment, and then that full segment's
//!   vantage trie, a [`bgp_types::flat::FlatTrie`] walked on the mapping
//!   through the directory off its tail — so `resolve` is a longest
//!   cover over the trie and every delta's overlay. `sa` and `rel` ask
//!   the oracle of the keyframe the chain descends from, decoded once
//!   per keyframe (its cones are walked once). Only the one route an
//!   answer needs is decoded, and the answer bytes are what a fully
//!   hydrated engine renders (the differential suite in
//!   `crates/query/tests/tier.rs` holds this across every verb).
//! * **hot** — snapshots hydrated into the ordinary in-memory
//!   [`Snapshot`] structures, bounded by `--hot-cap` and evicted
//!   least-recently-used. The whole-table verbs (`summary`, `leaks`,
//!   `uptime`, `top-sa`, `hijacks`, `diff`; not `sa-history` and
//!   `persistence`, an `sa` per id) hydrate a snapshot on demand by
//!   decoding its segment — replaying its delta chain forward from the nearest
//!   **keyframe** (a self-contained full segment, written every
//!   `--keyframe-every` snapshots at save time) or from a hot chain
//!   member, whichever is closer. A point verb at a hot snapshot reads
//!   the in-memory copy; evicted snapshots simply drop back to the
//!   mapping.
//!
//! Integrity is tiered to match: the manifest CRC and every segment's
//! byte length are verified at attach, the vantage directory of every
//! full segment is parsed and bounds-checked eagerly, and a segment's
//! full CRC-32 is verified lazily, once, before its bytes are first used
//! (a chain read or a hydration verifies every segment from its anchor
//! to the snapshot asked for). A failed check surfaces as
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
//! resolve a scope, find a label, reach a mapping or read a chain; only
//! the hot set, which the epochs of a live engine share, sits behind a
//! mutex. Hydration runs the archive's one [`replay_segment`] over
//! mapped bytes; a chain's event indexes come from the same validated
//! delta decode ([`index_delta`]).

use std::borrow::Cow;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use bgp_types::codec::CodecError;
use bgp_types::flat::FlatTrie;
use bgp_types::{Asn, Ipv4Prefix};
use rpi_core::export_policy::{sa_verdict, SaVerdict};
use rpi_mmap::Mmap;
use rpi_obs::Counter;
use rpi_store::{crc32, Manifest, SegmentEntry, SegmentKind, SegmentRef, StoreError};

use crate::archive::{
    decode_route, index_delta, read_mapped_directory, read_mapped_oracle, replay_segment,
    ArchiveInfo, DeltaEvents, SegmentMeta, VantageDir, VantageDirEntry,
};
use crate::engine::QueryEngine;
use crate::intern::{AsnSym, WorldInterner};
use crate::metrics::QueryMetrics;
use crate::plan::QueryError;
use crate::snapshot::{CompactRoute, Oracle, PointRead, Snapshot, SnapshotId, VantageKind};

/// Where a tiered snapshot currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// Hydrated into the in-memory hot set.
    Hot,
    /// On disk behind its mapping; point queries read it in place.
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
    /// Point queries answered off a cold snapshot's mapped chain.
    pub cold_hits: u64,
}

/// One attached snapshot segment: its manifest row, its snapshot's
/// interner watermark, its mapping and (full segments) its directory.
#[derive(Debug)]
pub(crate) struct Segment {
    pub(crate) meta: SegmentMeta,
    /// The interner's ASN count right after the snapshot was indexed,
    /// stamped onto its hydrated form so it matches a full load's.
    watermark: usize,
    map: Mmap,
    /// Parsed eagerly at attach for full segments; `None` for deltas.
    dir: Option<VantageDir>,
    /// Set once the segment's CRC has been verified against the
    /// manifest (lazily, at first actual read of the bytes).
    verified: AtomicBool,
    /// A delta segment's events, indexed at the first chain read that
    /// crosses it.
    events: OnceLock<DeltaEvents>,
    /// A keyframe's oracle, decoded at the first `sa` or `rel` it
    /// answers.
    oracle: OnceLock<Oracle>,
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
    watermark: usize,
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
            let (vdir, self_contained, label) = read_mapped_directory(&map, interner.asn_count())
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
        events: OnceLock::new(),
        oracle: OnceLock::new(),
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

    /// A decode failure in this segment's bytes.
    fn corrupt(&self, e: CodecError) -> QueryError {
        corrupt(&self.meta.file, e)
    }

    /// A delta segment's event index, built at first use from its
    /// verified bytes.
    fn events(&self, interner: &WorldInterner) -> Result<&DeltaEvents, QueryError> {
        if let Some(events) = self.events.get() {
            return Ok(events);
        }
        self.verify()?;
        let events =
            index_delta(&self.map, &self.meta.label, interner).map_err(|e| self.corrupt(e))?;
        Ok(self.events.get_or_init(|| events))
    }

    /// A keyframe's oracle, decoded at first use from its verified bytes.
    fn oracle(&self, interner: &WorldInterner) -> Result<&Oracle, QueryError> {
        if let Some(oracle) = self.oracle.get() {
            return Ok(oracle);
        }
        self.verify()?;
        let oracle =
            read_mapped_oracle(&self.map, interner.asn_count()).map_err(|e| self.corrupt(e))?;
        Ok(self.oracle.get_or_init(|| oracle))
    }
}

/// A snapshot with no keyframe before it: its chain reaches segment 0.
fn unanchored(segs: &[Arc<Segment>]) -> QueryError {
    QueryError::Corrupt {
        file: segs[0].meta.file.clone(),
        offset: 0,
        what: "no keyframe anchors the delta chain".to_string(),
    }
}

/// A cold snapshot read in place: the full segment its chain starts
/// from (the anchor) and the event indexes of the delta segments from
/// there to the snapshot, every one of them CRC-verified. A vantage is
/// the anchor directory's unless a delta of the chain dropped it; a
/// prefix holds what the newest delta touching it left there, else what
/// the anchor's trie stores — [`Snapshot::patch_vantage`] applied along
/// the chain, read backwards.
pub(crate) struct ChainView<'a> {
    id: SnapshotId,
    interner: &'a WorldInterner,
    /// The segments up to the snapshot; the chain is their tail.
    segs: &'a [Arc<Segment>],
    anchor: &'a Segment,
    dir: &'a VantageDir,
    /// The chain's delta segments' events, newest first.
    deltas: Vec<&'a DeltaEvents>,
}

impl<'a> ChainView<'a> {
    /// `v`'s row in the anchor's directory, unless the chain dropped it.
    fn entry(&self, v: AsnSym) -> Option<&'a VantageDirEntry> {
        let entry = self.dir.entry(v)?;
        self.deltas.iter().all(|d| !d.drops(v)).then_some(entry)
    }

    /// The snapshot's vantages: the anchor's, less those dropped since.
    fn vantages(&self) -> impl Iterator<Item = (AsnSym, VantageKind)> + '_ {
        (self.dir.entries.iter())
            .filter(|e| self.entry(e.sym).is_some())
            .map(|e| (e.sym, e.kind))
    }

    /// The anchor's trie of the vantage whose row is `entry`.
    fn trie(&self, entry: &VantageDirEntry) -> Result<FlatTrie<'a>, QueryError> {
        let raw: &'a [u8] = &self.anchor.map;
        let (start, len) = entry.span;
        FlatTrie::new(&raw[start..start + len], start).map_err(|e| self.anchor.corrupt(e))
    }

    /// Decodes a route `trie` stores.
    fn decode(&self, trie: &FlatTrie<'a>, value: &'a [u8]) -> Result<CompactRoute, QueryError> {
        let n_asns = self.interner.asn_count();
        (trie.read_value(value, &mut |r| decode_route(r, n_asns)))
            .map_err(|e| self.anchor.corrupt(e))
    }
}

impl PointRead for ChainView<'_> {
    fn id(&self) -> SnapshotId {
        self.id
    }

    fn is_vantage(&self, v: AsnSym) -> Result<bool, QueryError> {
        Ok(self.entry(v).is_some())
    }

    fn get(
        &self,
        v: AsnSym,
        prefix: Ipv4Prefix,
    ) -> Result<Option<Cow<'_, CompactRoute>>, QueryError> {
        let Some(entry) = self.entry(v) else {
            return Ok(None);
        };
        for d in &self.deltas {
            if let Some(left) = d.touched(v, entry.kind).and_then(|t| t.get(prefix)) {
                return Ok(left.map(Cow::Borrowed));
            }
        }
        let trie = self.trie(entry)?;
        let value = trie.get(prefix).map_err(|e| self.anchor.corrupt(e))?;
        value
            .map(|value| self.decode(&trie, value).map(Cow::Owned))
            .transpose()
    }

    fn best_match(
        &self,
        v: AsnSym,
        prefix: Ipv4Prefix,
    ) -> Result<Option<(Ipv4Prefix, Cow<'_, CompactRoute>)>, QueryError> {
        let Some(entry) = self.entry(v) else {
            return Ok(None);
        };
        // Per cover length: what the newest delta touching that cover
        // left there, and what the anchor stores there.
        let mut left: [Option<Option<&CompactRoute>>; 33] = [None; 33];
        for d in &self.deltas {
            let touched = d.touched(v, entry.kind).into_iter();
            for (cover, route) in touched.flat_map(|t| t.covering(prefix)) {
                left[cover.len() as usize].get_or_insert(route);
            }
        }
        let trie = self.trie(entry)?;
        let mut stored: [Option<&[u8]>; 33] = [None; 33];
        (trie.covering(prefix, |cover, value| {
            stored[cover.len() as usize] = Some(value)
        }))
        .map_err(|e| self.anchor.corrupt(e))?;
        for len in (0..=prefix.len()).rev() {
            let cover = Ipv4Prefix::canonical(prefix.bits(), len);
            match (left[len as usize], stored[len as usize]) {
                (Some(Some(route)), _) => return Ok(Some((cover, Cow::Borrowed(route)))),
                (None, Some(value)) => {
                    let route = self.decode(&trie, value)?;
                    return Ok(Some((cover, Cow::Owned(route))));
                }
                _ => {}
            }
        }
        Ok(None)
    }

    fn sa_filed(
        &self,
        v: AsnSym,
        prefix: Ipv4Prefix,
    ) -> Result<Option<(SaVerdict, AsnSym)>, QueryError> {
        let Some(route) = self.get(v, prefix)? else {
            return Ok(None);
        };
        let origin = *route.path.last().expect("stored paths are non-empty");
        let oracle = self.oracle()?;
        let in_cone = |o| oracle.in_cone(v, o);
        let verdict = sa_verdict(oracle, v, route.next_hop, origin, in_cone);
        Ok(verdict.map(|verdict| (verdict, origin)))
    }

    /// The oracle of the keyframe the chain descends from: a delta, and
    /// a full segment that elides its edges, share their predecessor's.
    fn oracle(&self) -> Result<&Oracle, QueryError> {
        let keyframe = self.segs.iter().rfind(|s| s.meta.keyframe);
        keyframe
            .ok_or_else(|| unanchored(self.segs))?
            .oracle(self.interner)
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

    /// The vantages of snapshot `id`, ascending by ASN — read off its
    /// chain, so listing never hydrates.
    pub(crate) fn vantages(
        &self,
        interner: &WorldInterner,
        id: SnapshotId,
    ) -> Vec<(Asn, VantageKind)> {
        let Ok(chain) = self.chain(interner, id) else {
            return Vec::new();
        };
        let mut out: Vec<(Asn, VantageKind)> = chain
            .vantages()
            .map(|(s, k)| (interner.resolve_asn(s), k))
            .collect();
        out.sort_unstable_by_key(|&(a, _)| a);
        out
    }

    // ---------- the cold path: reading a mapped chain ----------

    /// Snapshot `id` read in place off its mapped chain: the nearest full
    /// segment at or before it, and the delta segments after that one,
    /// each verified and its events indexed (once per segment).
    pub(crate) fn chain<'a>(
        &'a self,
        interner: &'a WorldInterner,
        id: SnapshotId,
    ) -> Result<ChainView<'a>, QueryError> {
        let segs = (self.segs.get(..=id.index())).ok_or(QueryError::UnknownSnapshot(id))?;
        let (at, dir) = (segs.iter().enumerate().rev())
            .find_map(|(i, s)| Some((i, s.dir.as_ref()?)))
            .ok_or_else(|| unanchored(segs))?;
        let anchor = &*segs[at];
        anchor.verify()?;
        let mut deltas = (segs[at + 1..].iter())
            .map(|s| s.events(interner))
            .collect::<Result<Vec<_>, _>>()?;
        deltas.reverse();
        Ok(ChainView {
            id,
            interner,
            segs,
            anchor,
            dir,
            deltas,
        })
    }

    /// Answers a point read at cold snapshot `id` off its chain, counted
    /// as a cold hit.
    pub(crate) fn read_cold<T>(
        &self,
        interner: &WorldInterner,
        id: SnapshotId,
        read: impl FnOnce(&ChainView<'_>) -> Result<T, QueryError>,
    ) -> Result<T, QueryError> {
        let cold_start = Instant::now();
        let answer = read(&self.chain(interner, id)?)?;
        self.metrics.tier_cold_hits_total.inc();
        self.metrics
            .tier_cold_hit_seconds
            .record(cold_start.elapsed());
        Ok(answer)
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
    /// the LRU-bounded hot set on a miss. A keyframe whose predecessor is
    /// hot is decoded onto it, so the two share what they have in common
    /// as they would in an eager load. The hot-set lock is held across
    /// the hydration so concurrent queries for the same cold snapshot
    /// decode it once.
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
        // replay from — onto its predecessor when that one is hot.
        let mut first = id.index();
        let mut cur: Option<Arc<Snapshot>>;
        loop {
            cur = first.checked_sub(1).and_then(|p| hot.get(p as u32));
            if cur.is_some() || self.segs[first].meta.keyframe {
                break;
            }
            if first == 0 {
                return Err(unanchored(&self.segs));
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
    /// rendered before: `summary @0` (hydrated) and `summary @1`
    /// (replayed onto it at hot cap 1, evicting it, so asking
    /// `summary @0` again hydrates under the poisoned lock).
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

        let (asn, _) = tiered.vantages_in(SnapshotId(0))[0];
        let reqs = [
            Query::PolicySummary { asn }.at(Scope::Id(SnapshotId(0))),
            Query::PolicySummary { asn }.at(Scope::Id(SnapshotId(1))),
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
