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

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use bgp_types::codec::{CodecError, Reader};
use bgp_types::{flat, Asn, Ipv4Prefix};
use net_topology::{AsGraph, CustomerCone};
use rpi_mmap::Mmap;
use rpi_obs::{Counter, Histogram};
use rpi_store::{crc32, Manifest, SegmentKind, SegmentRef, StoreError};

use crate::archive::{
    decode_delta, decode_full, decode_route, oracle_from_relationships, read_mapped_directory,
    replay_delta, ArchiveInfo, VantageDir,
};
use crate::engine::{QueryEngine, RouteAnswer};
use crate::intern::FrozenInterner;
use crate::plan::QueryError;
use crate::proto::{Query, Response, RovAnswer};
use crate::snapshot::{Provenance, Snapshot, SnapshotId, VantageKind};

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

/// One mapped snapshot segment.
#[derive(Debug)]
pub(crate) struct TierSnap {
    file: String,
    kind: SegmentKind,
    label: String,
    crc32: u32,
    map: Mmap,
    /// Parsed eagerly at attach for full segments; `None` for deltas.
    dir: Option<VantageDir>,
    /// Decodes with no predecessor — a keyframe the chain walk anchors
    /// on.
    self_contained: bool,
    /// Set once the segment's CRC has been verified against the
    /// manifest (lazily, at first actual read of the bytes).
    verified: AtomicBool,
}

impl TierSnap {
    /// A mapped segment record. `verified` is `true` when the caller has
    /// already checksummed the bytes (the live writer just wrote them).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        file: String,
        kind: SegmentKind,
        label: String,
        crc32: u32,
        map: Mmap,
        dir: Option<VantageDir>,
        self_contained: bool,
        verified: bool,
    ) -> TierSnap {
        TierSnap {
            file,
            kind,
            label,
            crc32,
            map,
            dir,
            self_contained,
            verified: AtomicBool::new(verified),
        }
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

/// The appendable part of the tier: the mapped segments and their
/// interner watermarks, in snapshot order. Readers take the lock only
/// long enough to clone the `Arc`s they need; the live writer appends
/// under a brief write lock, so attach never blocks a query mid-flight.
#[derive(Debug, Default)]
struct TierIndex {
    snaps: Vec<Arc<TierSnap>>,
    /// Per-snapshot interner watermarks from the symbol segment, stamped
    /// onto hydrated snapshots so they match a full load's.
    watermarks: Vec<(usize, usize, usize)>,
}

/// The tier state a tier-attached [`QueryEngine`] carries. The counters
/// and latency histograms are handles into the owning engine's metrics
/// registry ([`crate::metrics::QueryMetrics`]), so [`TierStats`] is a
/// view over the same atomics the `metrics` exposition renders.
#[derive(Debug)]
pub(crate) struct Tier {
    hot_cap: usize,
    index: RwLock<TierIndex>,
    hot: Mutex<HotSet>,
    attaches: Arc<Counter>,
    hydrations: Arc<Counter>,
    evictions: Arc<Counter>,
    cold_hits: Arc<Counter>,
    hydration_seconds: Arc<Histogram>,
    chain_replay_seconds: Arc<Histogram>,
    cold_hit_seconds: Arc<Histogram>,
}

fn corrupt(file: &str, e: CodecError) -> QueryError {
    let what = match e {
        CodecError::Truncated { wanted, .. } => format!("truncated (wanted {wanted} more bytes)"),
        CodecError::Varint { .. } => "malformed varint".to_string(),
        CodecError::Invalid { what, .. } => what.to_string(),
    };
    QueryError::Corrupt {
        file: file.to_string(),
        offset: e.offset(),
        what,
    }
}

impl Tier {
    /// An empty tier for a live engine: the writer appends mapped spill
    /// segments as it publishes. Counters live in `metrics` — the base
    /// engine's registry, shared by every published epoch.
    pub(crate) fn new_live(hot_cap: usize, metrics: &crate::metrics::QueryMetrics) -> Tier {
        Tier {
            hot_cap: hot_cap.max(1),
            index: RwLock::new(TierIndex::default()),
            hot: Mutex::new(HotSet::default()),
            attaches: Arc::clone(&metrics.tier_attaches_total),
            hydrations: Arc::clone(&metrics.tier_hydrations_total),
            evictions: Arc::clone(&metrics.tier_evictions_total),
            cold_hits: Arc::clone(&metrics.tier_cold_hits_total),
            hydration_seconds: Arc::clone(&metrics.tier_hydration_seconds),
            chain_replay_seconds: Arc::clone(&metrics.tier_chain_replay_seconds),
            cold_hit_seconds: Arc::clone(&metrics.tier_cold_hit_seconds),
        }
    }

    /// Appends one just-written snapshot segment and its hydrated form.
    /// The segment is attached (visible to the chain walk and the cold
    /// path) before any epoch that references it is published, and the
    /// hydrated snapshot enters the hot set, evicting LRU members past
    /// the window. Returns the new snapshot count.
    pub(crate) fn append(
        &self,
        snap: TierSnap,
        watermark: (usize, usize, usize),
        hydrated: Arc<Snapshot>,
    ) -> usize {
        let (id, count) = {
            let mut idx = self.index.write().expect("tier index poisoned");
            let id = idx.snaps.len() as u32;
            idx.snaps.push(Arc::new(snap));
            idx.watermarks.push(watermark);
            (id, idx.snaps.len())
        };
        self.attaches.inc();
        let mut hot = self.hot.lock().expect("tier hot set poisoned");
        hot.insert(id, hydrated, self.hot_cap, &self.evictions);
        count
    }

    /// Archived snapshots behind the tier.
    pub(crate) fn len(&self) -> usize {
        self.index.read().expect("tier index poisoned").snaps.len()
    }

    /// The first `limit` snapshot labels, in archive order.
    pub(crate) fn labels(&self, limit: usize) -> Vec<String> {
        let idx = self.index.read().expect("tier index poisoned");
        idx.snaps
            .iter()
            .take(limit)
            .map(|s| s.label.clone())
            .collect()
    }

    /// The snapshot carrying `label`, if any (first match wins).
    pub(crate) fn find_label(&self, label: &str) -> Option<SnapshotId> {
        let idx = self.index.read().expect("tier index poisoned");
        idx.snaps
            .iter()
            .position(|s| s.label == label)
            .map(|i| SnapshotId(i as u32))
    }

    /// Where snapshot `id` currently lives. Pure observation: does not
    /// touch LRU recency.
    pub(crate) fn residency(&self, id: SnapshotId) -> Option<Residency> {
        if id.index() >= self.len() {
            return None;
        }
        let hot = self.hot.lock().expect("tier hot set poisoned");
        Some(if hot.map.contains_key(&id.0) {
            Residency::Hot
        } else {
            Residency::Cold
        })
    }

    /// The residency counters.
    /// `horizon` clamps the view to the snapshots a live epoch exposes:
    /// the shared tier may already hold segments published after this
    /// epoch was frozen, and a listing must describe one world.
    pub(crate) fn stats(&self, horizon: Option<usize>) -> TierStats {
        let limit = horizon.unwrap_or(usize::MAX);
        let snapshots = self.len().min(limit);
        let hot = self.hot.lock().expect("tier hot set poisoned");
        TierStats {
            snapshots,
            hot: hot.map.keys().filter(|&&id| (id as usize) < limit).count(),
            hot_cap: self.hot_cap,
            attaches: self.attaches.get(),
            hydrations: self.hydrations.get(),
            evictions: self.evictions.get(),
            cold_hits: self.cold_hits.get(),
        }
    }

    /// The mapped segment behind `id`, cloned out of the index under a
    /// brief read lock.
    fn seg(&self, id: SnapshotId) -> Option<Arc<TierSnap>> {
        let idx = self.index.read().expect("tier index poisoned");
        idx.snaps.get(id.index()).cloned()
    }

    /// The vantages of snapshot `id`, ascending by ASN — read from the
    /// mapped directory when there is one, so listing never hydrates.
    pub(crate) fn vantages(&self, engine: &QueryEngine, id: SnapshotId) -> Vec<(Asn, VantageKind)> {
        let Some(ts) = self.seg(id) else {
            return Vec::new();
        };
        let mut out: Vec<(Asn, VantageKind)> = match &ts.dir {
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

    /// Verifies the segment's CRC against the manifest, once.
    fn verify(&self, ts: &TierSnap) -> Result<(), QueryError> {
        if ts.verified.load(Ordering::Acquire) {
            return Ok(());
        }
        if crc32(&ts.map) != ts.crc32 {
            return Err(QueryError::Corrupt {
                file: ts.file.clone(),
                offset: 0,
                what: "segment checksum mismatch".to_string(),
            });
        }
        ts.verified.store(true, Ordering::Release);
        Ok(())
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
        let Some(ts) = self.seg(id) else {
            return Err(QueryError::UnknownSnapshot(id));
        };
        let Some(dir) = &ts.dir else {
            return Ok(None);
        };
        let cold_start = Instant::now();
        self.verify(&ts)?;
        let resp = match *query {
            Query::Route { vantage, prefix } => {
                Response::Route(self.cold_route(engine, &ts, dir, id, vantage, prefix, false)?)
            }
            Query::Resolve { vantage, prefix } => {
                Response::Route(self.cold_route(engine, &ts, dir, id, vantage, prefix, true)?)
            }
            Query::Rov { vantage, prefix } => {
                engine.metrics.sec_rov_total.inc();
                Response::Rov(self.cold_rov(engine, &ts, dir, vantage, prefix)?)
            }
            _ => unreachable!("matched above"),
        };
        self.cold_hits.inc();
        self.cold_hit_seconds.record(cold_start.elapsed());
        Ok(Some(resp))
    }

    /// Decodes the one matched route value in place (the value bytes are
    /// a subslice of the mapping; offsets in errors stay absolute).
    fn decode_value(
        &self,
        engine: &QueryEngine,
        ts: &TierSnap,
        value: &[u8],
    ) -> Result<crate::snapshot::CompactRoute, QueryError> {
        let raw: &[u8] = &ts.map;
        let abs = value.as_ptr() as usize - raw.as_ptr() as usize;
        let mut r = Reader::with_base(value, abs);
        let route =
            decode_route(&mut r, engine.interner.sizes().0).map_err(|e| corrupt(&ts.file, e))?;
        if !r.is_exhausted() {
            return Err(corrupt(
                &ts.file,
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
        ts: &TierSnap,
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
            .map_err(|e| corrupt(&ts.file, e))?;
        let matched = if lpm {
            trie.best_match(prefix)
        } else {
            trie.get(prefix).map(|hit| hit.map(|value| (prefix, value)))
        };
        let Some((matched_prefix, value)) = matched.map_err(|e| corrupt(&ts.file, e))? else {
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
        ts: &TierSnap,
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
            .map_err(|e| corrupt(&ts.file, e))?;
        let Some(value) = trie.get(prefix).map_err(|e| corrupt(&ts.file, e))? else {
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
    /// lock, no hydration, no chain-prefix clone. Bumps LRU recency on
    /// a hit. A hit also validates `id`: only attached snapshots ever
    /// enter the hot set.
    pub(crate) fn hot_get(&self, id: u32) -> Option<Arc<Snapshot>> {
        self.hot.lock().expect("tier hot set poisoned").get(id)
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
        // Hot fast path: the common case under serving load.
        if let Some(snap) = self.hot_get(id.0) {
            return Ok(snap);
        }
        // Clone the chain's possible members out of the index first so
        // hydration never holds the index lock (a live writer may be
        // appending the next snapshot at the same time).
        let (snaps, watermarks) = {
            let idx = self.index.read().expect("tier index poisoned");
            if id.index() >= idx.snaps.len() {
                return Err(QueryError::UnknownSnapshot(id));
            }
            (
                idx.snaps[..=id.index()].to_vec(),
                idx.watermarks[..=id.index()].to_vec(),
            )
        };
        let mut hot = self.hot.lock().expect("tier hot set poisoned");
        if let Some(snap) = hot.get(id.0) {
            return Ok(snap);
        }
        let hydrate_start = Instant::now();

        // Walk back to the nearest anchor, collecting the chain to
        // replay forward. The anchor is either a hot snapshot (cheapest)
        // or a self-contained keyframe segment.
        let mut chain: Vec<usize> = Vec::new();
        let mut cur: Option<Arc<Snapshot>> = None;
        let mut j = id.index();
        loop {
            if let Some(snap) = hot.get(j as u32) {
                cur = Some(snap);
                break;
            }
            chain.push(j);
            let ts = &snaps[j];
            if ts.kind == SegmentKind::Full && ts.self_contained {
                break;
            }
            if j == 0 {
                return Err(QueryError::Corrupt {
                    file: ts.file.clone(),
                    offset: 0,
                    what: "no keyframe anchors the delta chain".to_string(),
                });
            }
            j -= 1;
        }
        chain.reverse();

        // Delta-replay state, cached while the predecessor's
        // relationship map stays physically the same (mirrors
        // `archive::load`).
        let mut oracle: Option<(*const (), AsGraph)> = None;
        let mut cones: HashMap<Asn, CustomerCone> = HashMap::new();
        for &k in &chain {
            let replay_start = Instant::now();
            let ts = &snaps[k];
            self.verify(ts)?;
            let kid = SnapshotId(k as u32);
            let raw: &[u8] = &ts.map;
            let mut snap = match ts.kind {
                SegmentKind::Full => {
                    decode_full(raw, kid, &ts.label, cur.as_deref(), &engine.interner)
                        .map_err(|e| corrupt(&ts.file, e))?
                }
                SegmentKind::Delta => {
                    let payload = decode_delta(raw, &ts.label, &engine.interner)
                        .map_err(|e| corrupt(&ts.file, e))?;
                    let prev = cur.as_deref().expect("the chain walk starts at an anchor");
                    let rel_ptr = Arc::as_ptr(&prev.relationships) as *const ();
                    if oracle.as_ref().map(|(p, _)| *p) != Some(rel_ptr) {
                        oracle = Some((rel_ptr, oracle_from_relationships(prev, &engine.interner)));
                        cones.clear();
                    }
                    let graph = &oracle.as_ref().expect("just rebuilt").1;
                    let mut frozen = FrozenInterner(&engine.interner);
                    let mut snap =
                        replay_delta(kid, &payload, prev, graph, &mut frozen, &mut cones)
                            .map_err(|e| corrupt(&ts.file, e))?;
                    snap.provenance = Provenance::Delta(Arc::new(payload.delta));
                    snap
                }
                SegmentKind::Symbols | SegmentKind::Roa => {
                    unreachable!("the tier maps only snapshot segments")
                }
            };
            snap.interned_watermark = watermarks[k];
            let arc = Arc::new(snap);
            self.hydrations.inc();
            self.chain_replay_seconds.record(replay_start.elapsed());
            hot.insert(k as u32, Arc::clone(&arc), self.hot_cap, &self.evictions);
            cur = Some(arc);
        }
        self.hydration_seconds.record(hydrate_start.elapsed());
        Ok(cur.expect("an anchor or a non-empty chain produced a snapshot"))
    }
}

/// Attaches to the archive at `dir` in tiered mode (see
/// [`QueryEngine::load_archive_tiered`]).
pub(crate) fn load_tiered(dir: &Path, hot_cap: usize) -> Result<QueryEngine, StoreError> {
    let manifest = Manifest::read(dir)?;
    let (mut engine, watermarks) = crate::archive::load_prelude(dir, &manifest)?;
    let n_asns = engine.interner.sizes().0;

    let mut snaps = Vec::new();
    for (seg_idx, entry) in manifest.snapshot_segments() {
        let segref = || SegmentRef {
            index: seg_idx,
            file: entry.file.clone(),
        };
        let path = dir.join(&entry.file);
        let meta = std::fs::metadata(&path).map_err(|source| StoreError::Io {
            path: path.clone(),
            source,
        })?;
        if meta.len() != entry.bytes {
            return Err(StoreError::Truncated {
                segment: segref(),
                expected: entry.bytes,
                found: meta.len(),
            });
        }
        let map = Mmap::map(&path).map_err(|source| StoreError::Io { path, source })?;
        let (vdir, self_contained) = match entry.kind {
            SegmentKind::Full => {
                let (d, self_contained, label) = read_mapped_directory(&map, n_asns)
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
                (Some(d), self_contained)
            }
            SegmentKind::Delta => {
                if entry.is_keyframe() {
                    return Err(StoreError::invalid(
                        segref(),
                        0,
                        "delta segment flagged as keyframe",
                    ));
                }
                (None, false)
            }
            SegmentKind::Symbols | SegmentKind::Roa => {
                unreachable!("snapshot_segments() yields only full and delta segments")
            }
        };
        snaps.push(Arc::new(TierSnap {
            file: entry.file.clone(),
            kind: entry.kind,
            label: entry.label.clone(),
            crc32: entry.crc32,
            map,
            dir: vdir,
            self_contained,
            verified: AtomicBool::new(false),
        }));
    }

    crate::archive::load_roas(dir, &manifest, &mut engine)?;
    let attaches = snaps.len() as u64;
    engine.archive = Some(ArchiveInfo::from_manifest(dir, &manifest));
    let m = &engine.metrics;
    m.tier_attaches_total.add(attaches);
    engine.tier = Some(Arc::new(Tier {
        hot_cap: hot_cap.max(1),
        index: RwLock::new(TierIndex { snaps, watermarks }),
        hot: Mutex::new(HotSet::default()),
        attaches: Arc::clone(&m.tier_attaches_total),
        hydrations: Arc::clone(&m.tier_hydrations_total),
        evictions: Arc::clone(&m.tier_evictions_total),
        cold_hits: Arc::clone(&m.tier_cold_hits_total),
        hydration_seconds: Arc::clone(&m.tier_hydration_seconds),
        chain_replay_seconds: Arc::clone(&m.tier_chain_replay_seconds),
        cold_hit_seconds: Arc::clone(&m.tier_cold_hit_seconds),
    }));
    Ok(engine)
}
