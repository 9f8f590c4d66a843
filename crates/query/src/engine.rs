//! [`QueryEngine`]: the concurrently-queryable observatory.
//!
//! Ingest many snapshots, then answer policy queries in O(lookup). The
//! engine's one entry point is the typed protocol of [`crate::proto`]:
//! [`QueryEngine::execute`] runs a [`QueryRequest`] (a [`Query`] plus a
//! snapshot [`crate::proto::Scope`]); [`QueryEngine::execute_batch`] runs many
//! in request order on the calling thread. There is no other way to
//! ask: callers match on the [`Response`] variant their query produces.
//!
//! The engine holds no state derived from a relationship oracle: each
//! snapshot carries its [`crate::snapshot::Oracle`] (shared by `Arc`
//! while the oracle is unchanged), customer cones included, so no ingest
//! path has a cache to clear.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

use bgp_sim::{output_delta, SimOutput, SnapshotSeries};
use bgp_types::{Asn, CowTrie, Ipv4Prefix, Relationship};
use bgp_wire::{TableDump, WireError};
use net_topology::{AsGraph, Relations};
use rpi_core::export_policy::SaVerdict;
use rpi_core::persistence::{classify_persistence, histogram_from_counts};
use rpi_core::Experiment;
use rpi_sec::{RoaTable, RovCache, RovCacheStats};

use crate::diff::SnapshotDiff;
use crate::intern::{AsnSym, WorldInterner};
use crate::plan::QueryError;
use crate::proto::{
    PersistenceAnswer, Query, QueryRequest, Response, SaHistoryPoint, SaOriginCount,
};
use crate::snapshot::{PointRead, Snapshot, SnapshotId, VantageKind};

/// A resolved best-route answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteAnswer {
    /// Snapshot the answer comes from.
    pub snapshot: SnapshotId,
    /// The vantage whose table was consulted.
    pub vantage: Asn,
    /// The table prefix that matched (equals the query prefix for exact
    /// lookups; may be shorter for longest-prefix-match resolution).
    pub prefix: Ipv4Prefix,
    /// Neighbor the best route was learned from.
    pub next_hop: Asn,
    /// AS path from the next hop to the origin.
    pub path: Vec<Asn>,
}

impl RouteAnswer {
    /// The origin AS of the matched route.
    pub fn origin(&self) -> Asn {
        *self.path.last().expect("answer paths are non-empty")
    }
}

/// The answer to `sa_status(vantage, prefix)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaStatus {
    /// The AS is not an indexed vantage of the snapshot.
    UnknownVantage,
    /// The vantage's table has no route for the prefix.
    NotInTable,
    /// The route exists but its origin is outside the vantage's customer
    /// cone — Fig. 4 does not classify it.
    NotCustomerRoute,
    /// A customer-originated prefix reached over a customer route: the
    /// customer exports it normally.
    CustomerExported {
        /// The originating customer.
        origin: Asn,
    },
    /// A selectively-announced prefix (the Fig. 4 positive).
    SelectivelyAnnounced {
        /// The originating customer.
        origin: Asn,
    },
}

/// Cached per-AS policy digest.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicySummary {
    /// The AS summarized.
    pub asn: Asn,
    /// How the AS is observed, if it is a vantage.
    pub kind: Option<VantageKind>,
    /// Routes in its best table.
    pub routes: usize,
    /// Customer-originated prefixes (Fig. 4 denominator).
    pub customer_prefixes: usize,
    /// Selectively-announced prefixes seen from here.
    pub sa_count: usize,
    /// Import typicality `(compared, typical)`, LG vantages only.
    pub typicality: Option<(usize, usize)>,
    /// Neighbors with community-derived relationship classes, LG only.
    pub tagged_neighbors: usize,
    /// Oracle neighbor counts: `(providers, customers, peers, siblings)`.
    pub neighbor_counts: (usize, usize, usize, usize),
}

impl PolicySummary {
    /// SA share of customer prefixes, in percent (Table 5's column).
    pub fn sa_percent(&self) -> f64 {
        if self.customer_prefixes == 0 {
            0.0
        } else {
            100.0 * self.sa_count as f64 / self.customer_prefixes as f64
        }
    }

    /// Typicality percentage, if measured (Table 2's column).
    pub fn typicality_percent(&self) -> Option<f64> {
        self.typicality.map(|(compared, typical)| {
            if compared == 0 {
                100.0
            } else {
                100.0 * typical as f64 / compared as f64
            }
        })
    }
}

/// How much of a series' trie structure is physically shared between
/// consecutive snapshots (the copy-on-write ingest's savings).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharingStats {
    /// Snapshots inspected.
    pub snapshots: usize,
    /// Total trie nodes across all snapshots, counted as if unshared.
    pub total_nodes: usize,
    /// Nodes pointer-shared with the predecessor snapshot (0 for the
    /// first snapshot and for from-scratch ingests).
    pub shared_nodes: usize,
    /// Heap footprint of all trie nodes counted as if unshared, in bytes
    /// (`total_nodes × node size`); `total_bytes - shared_bytes` is the
    /// physical in-memory trie footprint.
    pub total_bytes: usize,
    /// The shared nodes' heap footprint, in bytes.
    pub shared_bytes: usize,
    /// Total archive size on disk (manifest segments, symbols included)
    /// when the engine was loaded from or saved to an archive; 0 for a
    /// purely in-memory engine.
    pub disk_bytes: usize,
}

impl SharingStats {
    /// `shared_nodes / total_nodes` (0.0 on an empty engine).
    pub fn shared_ratio(&self) -> f64 {
        if self.total_nodes == 0 {
            0.0
        } else {
            self.shared_nodes as f64 / self.total_nodes as f64
        }
    }
}

/// The multi-snapshot policy observatory.
///
/// The engine is ingest-then-serve: all `&mut self` methods happen
/// before serving starts, after which every query path is `&self` — so
/// a built engine is shared across threads (and across the TCP accept
/// loop of [`crate::serve`]) behind a plain `Arc<QueryEngine>`, with
/// [`Self::execute_batch`] as the batch entry point for pre-parsed
/// requests. The assertion below keeps that property load-bearing: a
/// future `Cell`/`Rc` in any snapshot structure becomes a compile error
/// here, not a surprise in the serving layer.
#[derive(Debug, Default)]
pub struct QueryEngine {
    pub(crate) interner: WorldInterner,
    pub(crate) snapshots: Vec<Arc<Snapshot>>,
    /// Set when the engine was loaded from (or saved to) an on-disk
    /// archive: where it lives and what each snapshot costs on disk.
    /// (A tier-attached engine's comes from its tier instead.)
    pub(crate) archive: Option<crate::archive::ArchiveInfo>,
    /// The ROA table `rov` queries validate against (empty by default:
    /// every route validates `unknown`). Engine-wide, not per snapshot —
    /// ROAs come from the registry side of the world, not from ingest.
    pub(crate) roas: Arc<RoaTable>,
    /// Bounded (prefix, origin) → verdict cache over `roas`. Behind an
    /// `Arc` so live epochs share one cache (and its hit counters)
    /// across publications.
    pub(crate) rov_cache: Arc<RovCache>,
    /// The unified metrics surface ([`crate::metrics`]): per-verb query
    /// counters and latency histograms, per-stage span histograms, tier
    /// and live gauges — including the executed-security-query counts.
    /// Shared across live epochs the same way the ROV cache is, so
    /// counts survive epoch swaps.
    pub(crate) metrics: Arc<crate::metrics::QueryMetrics>,
    /// Set when the engine is **tier-attached**: segments stay memory-
    /// mapped on disk and snapshots hydrate on demand into a bounded hot
    /// set. `snapshots` is empty in that mode — every snapshot handle
    /// comes through [`Self::snap_arc`], and the tier's own segment list
    /// is the engine's world: a live epoch ([`crate::live`]) holds the
    /// list as of its publication, so a reader holding the epoch never
    /// observes a later snapshot. Behind an `Arc` because the live
    /// writer keeps the newest tier to build the next epoch's from.
    pub(crate) tier: Option<Arc<crate::tier::Tier>>,
}

// `Arc<QueryEngine>` sharing across the serve loops and a batch's scan
// workers rests on this; see the struct docs.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryEngine>()
};

/// One step of [`QueryEngine::walk`]: `(prev, snap)`.
pub(crate) type Step = Result<(Arc<Snapshot>, Arc<Snapshot>), QueryError>;

/// Per prefix, a count of scoped snapshots.
pub(crate) type PrefixCounts = BTreeMap<Ipv4Prefix, usize>;

/// In how many of a scope's snapshots each prefix was present, folded
/// from presence *flips*: a prefix present at the current step remembers
/// the step it has been present since, and the interval is counted when
/// the next flip (or the end of the scope) closes it. Only flipped
/// prefixes are kept; one never flipped held its starting state
/// throughout.
#[derive(Debug, Default)]
struct Presence(HashMap<Ipv4Prefix, (usize, Option<usize>)>);

impl Presence {
    /// `prefix` appeared at `step` if it was absent, vanished if present;
    /// `at_start` is asked, on its first flip, whether it was present at
    /// step 0.
    fn flip(&mut self, prefix: Ipv4Prefix, step: usize, at_start: impl FnOnce() -> bool) {
        let (total, since) = self
            .0
            .entry(prefix)
            .or_insert_with(|| (0, at_start().then_some(0)));
        match since.take() {
            Some(s) => *total += step - s,
            None => *since = Some(step),
        }
    }

    /// The number of steps out of `steps` `prefix` was present in.
    fn count(&self, prefix: Ipv4Prefix, steps: usize, at_start: impl FnOnce() -> bool) -> usize {
        match self.0.get(&prefix) {
            Some(&(total, since)) => total + since.map_or(0, |s| steps - s),
            None if at_start() => steps,
            None => 0,
        }
    }
}

impl QueryEngine {
    /// [`QueryEngine::default`]; the argument (once a per-vantage trie
    /// count) is ignored. Kept only because the frozen `benchmark/`
    /// package calls it — the next `[benchmark]` PR may move the harness
    /// to `default()` and delete this.
    #[doc(hidden)]
    pub fn new(_: usize) -> QueryEngine {
        QueryEngine::default()
    }

    /// Replaces the engine's ROA table (what `--roas` and scenario
    /// setups call), emptying the validation cache — every cached
    /// verdict was computed against the old table.
    pub fn set_roas(&mut self, table: RoaTable) {
        self.roas = Arc::new(table);
        self.rov_cache.reset();
    }

    /// The ROA table `rov` queries validate against.
    pub fn roa_table(&self) -> &RoaTable {
        &self.roas
    }

    /// The ROV cache's hit/miss counters.
    pub fn rov_cache_stats(&self) -> RovCacheStats {
        self.rov_cache.stats()
    }

    /// Executed security-query counts `(rov, hijacks, leaks)` — a view
    /// over the `rpi_sec_queries_total` registry counters.
    pub fn sec_query_counts(&self) -> (u64, u64, u64) {
        (
            self.metrics.sec_rov_total.get(),
            self.metrics.sec_hijacks_total.get(),
            self.metrics.sec_leaks_total.get(),
        )
    }

    /// The engine's metrics surface (shared with live epochs, the tier
    /// and every server on this engine).
    pub fn metrics(&self) -> &crate::metrics::QueryMetrics {
        &self.metrics
    }

    /// The shared metrics handle (for emitter threads that outlive one
    /// epoch's engine).
    pub fn metrics_arc(&self) -> Arc<crate::metrics::QueryMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Mirrors externally-owned and derived values into the registry —
    /// ROA count, ROV cache hits/misses and hit ratio, tier residency,
    /// epoch age. Call before rendering an exposition or capturing an
    /// interval snapshot; recording paths never need it.
    pub fn sync_obs(&self) {
        let m = &self.metrics;
        m.sec_roas.set_u64(self.roas.len() as u64);
        let cache = self.rov_cache.stats();
        m.sec_rov_cache_hits_total.set(cache.hits);
        m.sec_rov_cache_misses_total.set(cache.misses);
        let looked = cache.hits + cache.misses;
        m.sec_rov_cache_hit_ratio.set(if looked == 0 {
            0.0
        } else {
            cache.hits as f64 / looked as f64
        });
        if let Some(tier) = &self.tier {
            let stats = tier.stats();
            m.tier_hot_snapshots.set_u64(stats.hot as u64);
            m.tier_total_snapshots.set_u64(stats.snapshots as u64);
        }
        m.live_epoch_age_seconds.set(m.epoch_age_secs());
    }

    /// Number of ingested snapshots (in tiered mode: archived snapshots,
    /// resident or not; on a live epoch: published as of this epoch).
    pub fn snapshot_count(&self) -> usize {
        match &self.tier {
            Some(t) => t.segs.len(),
            None => self.snapshots.len(),
        }
    }

    /// Snapshot labels in ingestion order.
    pub fn labels(&self) -> Vec<String> {
        (0..self.snapshot_count() as u32)
            .map(|i| self.label(SnapshotId(i)).to_string())
            .collect()
    }

    /// Snapshot `id`'s label, read without hydrating; `id` must be in
    /// range.
    fn label(&self, id: SnapshotId) -> &str {
        match &self.tier {
            Some(t) => &t.segs[id.index()].meta.label,
            None => &self.snapshots[id.index()].label,
        }
    }

    /// The most recently ingested snapshot (the default query target).
    pub fn latest(&self) -> Option<SnapshotId> {
        let n = self.snapshot_count();
        (n > 0).then(|| SnapshotId((n - 1) as u32))
    }

    /// The snapshot carrying `label`, if any (first match wins; on a
    /// live epoch, only snapshots published as of this epoch match).
    pub fn find_label(&self, label: &str) -> Option<SnapshotId> {
        (0..self.snapshot_count() as u32)
            .map(SnapshotId)
            .find(|&id| self.label(id) == label)
    }

    /// Distinct ASNs interned.
    pub fn interned_asns(&self) -> usize {
        self.interner.asn_count()
    }

    /// Ingests one simulated output with an explicit relationship oracle
    /// (typically the Gao-inferred graph, as the paper's analyses use).
    pub fn ingest_output(&mut self, out: &SimOutput, oracle: &AsGraph, label: &str) -> SnapshotId {
        let id = SnapshotId(self.snapshots.len() as u32);
        let snap = Snapshot::from_output(id, label, out, oracle, &mut self.interner);
        self.snapshots.push(Arc::new(snap));
        id
    }

    /// Ingests an experiment's output using its inferred graph as oracle.
    pub fn ingest_experiment(&mut self, exp: &Experiment, label: &str) -> SnapshotId {
        self.ingest_output(&exp.output, &exp.inferred_graph, label)
    }

    /// Ingests every snapshot of a churn series under one oracle,
    /// indexing each from scratch. See
    /// [`Self::ingest_series_incremental`] for the diff-aware
    /// alternative that shares unchanged structure between consecutive
    /// snapshots.
    pub fn ingest_series(&mut self, series: &SnapshotSeries, oracle: &AsGraph) -> Vec<SnapshotId> {
        series
            .labels
            .iter()
            .zip(&series.snapshots)
            .map(|(label, out)| self.ingest_output(out, oracle, label))
            .collect()
    }

    /// Ingests a churn series diff-aware: the first snapshot is indexed
    /// from scratch, every later one as a copy-on-write overlay over its
    /// predecessor that shares unchanged subtries, SA/summary
    /// caches and the (append-only) interner. Queries cannot tell the
    /// difference — the differential fuzz suite
    /// (`crates/query/tests/incremental_diff.rs`) holds both paths to
    /// byte-identical rendered responses — but at BGP-realistic churn
    /// rates this ingests a multi-snapshot archive several times faster
    /// and with most trie memory shared (see [`Self::sharing_stats`]).
    ///
    /// ```
    /// use bgp_sim::churn::simulate_series;
    /// use bgp_sim::ChurnConfig;
    /// use net_topology::InternetSize;
    /// use rpi_core::Experiment;
    /// use rpi_query::QueryEngine;
    ///
    /// let exp = Experiment::standard(InternetSize::Tiny, 7);
    /// let cfg = ChurnConfig { steps: 3, ..ChurnConfig::daily(7) };
    /// let series = simulate_series(&exp.graph, &exp.truth, &exp.spec, &cfg);
    ///
    /// let mut engine = QueryEngine::default();
    /// let ids = engine.ingest_series_incremental(&series, &exp.inferred_graph);
    /// assert_eq!(ids.len(), 3);
    /// // Consecutive snapshots physically share unchanged trie nodes:
    /// let stats = engine.sharing_stats();
    /// assert!(stats.shared_nodes > 0);
    /// ```
    pub fn ingest_series_incremental(
        &mut self,
        series: &SnapshotSeries,
        oracle: &AsGraph,
    ) -> Vec<SnapshotId> {
        let mut ids = Vec::with_capacity(series.snapshots.len());
        let mut prev: Option<&SimOutput> = None;
        for (label, out) in series.labels.iter().zip(&series.snapshots) {
            let id = match prev {
                None => self.ingest_output(out, oracle, label),
                // One `&AsGraph` held across the loop: the oracle is
                // provably the predecessor's, so the per-snapshot
                // relationship re-index and comparison can be skipped.
                Some(p) => self.ingest_incremental_inner(p, out, oracle, true, label),
            };
            ids.push(id);
            prev = Some(out);
        }
        ids
    }

    /// Ingests `out` as a copy-on-write overlay over the latest
    /// snapshot. `prev_out` must be the output the latest snapshot was
    /// built from (the structured delta is computed between the two);
    /// the oracle may differ from the predecessor's — relationship flips
    /// are detected and the affected caches rebuilt. On an empty engine
    /// this falls back to a from-scratch ingest.
    pub fn ingest_output_incremental(
        &mut self,
        prev_out: &SimOutput,
        out: &SimOutput,
        oracle: &AsGraph,
        label: &str,
    ) -> SnapshotId {
        self.ingest_incremental_inner(prev_out, out, oracle, false, label)
    }

    /// `same_oracle` is set only by [`Self::ingest_series_incremental`],
    /// which holds one oracle reference across the whole loop and can
    /// therefore skip re-indexing relationships per snapshot.
    fn ingest_incremental_inner(
        &mut self,
        prev_out: &SimOutput,
        out: &SimOutput,
        oracle: &AsGraph,
        same_oracle: bool,
        label: &str,
    ) -> SnapshotId {
        let Some(prev_id) = self.latest() else {
            return self.ingest_output(out, oracle, label);
        };
        let delta = output_delta(prev_out, out);
        let id = SnapshotId(self.snapshots.len() as u32);
        let asns_before = self.interner.asn_count();
        let prev = Arc::clone(&self.snapshots[prev_id.index()]);
        let snap = Snapshot::from_output_incremental(
            id,
            label,
            &prev,
            delta,
            out,
            oracle,
            same_oracle,
            &mut self.interner,
        );
        // The interner is append-only across a series: symbols may be
        // added, never moved or dropped, so the predecessor's interned
        // routes stay valid.
        debug_assert!(self.interner.asn_count() >= asns_before);
        self.snapshots.push(Arc::new(snap));
        id
    }

    /// How much trie structure consecutive snapshots physically share —
    /// nonzero only for snapshots built by the incremental ingest path.
    pub fn sharing_stats(&self) -> SharingStats {
        let mut stats = SharingStats {
            snapshots: self.snapshots.len(),
            ..Default::default()
        };
        for (i, snap) in self.snapshots.iter().enumerate() {
            stats.total_nodes += snap.trie_nodes();
            if i > 0 {
                stats.shared_nodes += snap.trie_nodes_shared_with(&self.snapshots[i - 1]);
            }
        }
        let node_size = CowTrie::<crate::snapshot::CompactRoute>::node_size();
        stats.total_bytes = stats.total_nodes * node_size;
        stats.shared_bytes = stats.shared_nodes * node_size;
        stats.disk_bytes = self.archive_info().map_or(0, |a| a.total_bytes());
        stats
    }

    // ---------- the on-disk archive (rpi-store) ----------

    /// Serializes the engine's whole world — symbol tables, every
    /// snapshot's tries and caches — into an `rpi-store` archive at
    /// `dir`, refusing to overwrite an existing archive unless `force`.
    /// Snapshots that were ingested incrementally and are cleanly
    /// replayable are written as compact **delta segments**; everything
    /// else is a **full segment**. Returns the written manifest.
    pub fn save_archive(
        &mut self,
        dir: &std::path::Path,
        force: bool,
    ) -> Result<rpi_store::Manifest, rpi_store::StoreError> {
        self.save_archive_with(dir, force, crate::archive::SaveOptions::default())
    }

    /// [`Self::save_archive`] with an explicit keyframe policy (what
    /// `rpi-queryd --keyframe-every` passes through). Tier-attached
    /// engines cannot save — they don't hold the world in memory; load
    /// fully hydrated first.
    pub fn save_archive_with(
        &mut self,
        dir: &std::path::Path,
        force: bool,
        options: crate::archive::SaveOptions,
    ) -> Result<rpi_store::Manifest, rpi_store::StoreError> {
        if self.tier.is_some() {
            return Err(rpi_store::StoreError::Unsupported {
                what: "saving a tier-attached engine (load it fully hydrated first)".to_string(),
            });
        }
        crate::archive::save(self, dir, force, options)
    }

    /// Cold-starts an engine from an archive written by
    /// [`Self::save_archive`]: loads the symbol tables, decodes full
    /// segments, and replays delta segments through the incremental
    /// ingest machinery (so physical trie sharing survives the round
    /// trip). Never returns a partially-loaded engine: any truncated,
    /// checksum-failing or structurally corrupt segment fails the whole
    /// load with the segment index and byte offset.
    pub fn load_archive(dir: &std::path::Path) -> Result<QueryEngine, rpi_store::StoreError> {
        crate::archive::load(dir)
    }

    /// Attaches to an archive in **tiered** mode: segments are
    /// memory-mapped, not decoded — a per-snapshot attach costs
    /// microseconds — and the point verbs (`route`, `resolve`, `sa`,
    /// `rov`, `rel`) at cold snapshots read the mapped delta chain in
    /// place, as do `sa-history` and `persistence`. The verbs that read
    /// whole tables hydrate the snapshot (replaying its delta chain from
    /// the nearest keyframe) into a hot set bounded by `hot_cap` (clamped
    /// to ≥ 1, least-recently-used eviction).
    pub fn load_archive_tiered(
        dir: &std::path::Path,
        hot_cap: usize,
    ) -> Result<QueryEngine, rpi_store::StoreError> {
        crate::tier::load_tiered(dir, hot_cap)
    }

    /// The cold tier's residency counters, when tier-attached.
    pub fn tier_stats(&self) -> Option<crate::tier::TierStats> {
        self.tier.as_ref().map(|t| t.stats())
    }

    /// Where snapshot `id` currently lives, when tier-attached.
    pub fn residency(&self, id: SnapshotId) -> Option<crate::tier::Residency> {
        self.tier.as_ref()?.residency(id)
    }

    /// Where this engine's bytes live on disk, if it was loaded from or
    /// saved to an archive.
    pub fn archive_info(&self) -> Option<&crate::archive::ArchiveInfo> {
        match &self.tier {
            Some(tier) => Some(tier.archive_info()),
            None => self.archive.as_ref(),
        }
    }

    /// The on-disk segment behind snapshot `id` (`None` for engines that
    /// never touched disk, and for snapshots ingested after the
    /// save/load).
    pub fn segment_meta(&self, id: SnapshotId) -> Option<&crate::archive::SegmentMeta> {
        self.archive_info()?.snapshots.get(id.index())
    }

    /// `(shared, total)` trie nodes of snapshot `id` relative to its
    /// predecessor (`shared == 0` for the first snapshot and for
    /// from-scratch ingests). On a tier-attached engine only hot
    /// snapshots are compared — `None` unless `id` and its predecessor
    /// are both hot — and nothing hydrates.
    pub fn sharing_with_prev(&self, id: SnapshotId) -> Option<(usize, usize)> {
        let at = |i: usize| match &self.tier {
            Some(tier) => tier.hot_get(i as u32),
            None => self.snapshots.get(i).cloned(),
        };
        let snap = at(id.index())?;
        let total = snap.trie_nodes();
        let shared = match id.index() {
            0 => 0,
            i => snap.trie_nodes_shared_with(&*at(i - 1)?),
        };
        Some((shared, total))
    }

    /// Ingests an MRT TABLE_DUMP_V2 file image: decodes it, rebuilds the
    /// collector view, Gao-infers a relationship oracle from the dump's
    /// own paths, and indexes every peer as a vantage.
    pub fn ingest_mrt_bytes(&mut self, data: &[u8], label: &str) -> Result<SnapshotId, WireError> {
        let dump = TableDump::decode(data)?;
        let view = bgp_sim::export::mrt_to_collector(&dump)?;
        let paths: Vec<&[Asn]> = view.all_paths().map(|r| r.path.as_slice()).collect();
        let inferred = as_relationships::infer(
            paths.iter().copied(),
            &as_relationships::InferenceParams::default(),
        );
        let oracle = inferred.to_graph();
        let id = SnapshotId(self.snapshots.len() as u32);
        let snap = Snapshot::from_collector(id, label, &view, &oracle, &mut self.interner);
        self.snapshots.push(Arc::new(snap));
        Ok(id)
    }

    fn snapshot(&self, id: SnapshotId) -> Option<&Snapshot> {
        self.snapshots.get(id.index()).map(|a| &**a)
    }

    /// The snapshot behind `id` as a shared handle — straight from the
    /// in-memory list, or hydrated out of the cold tier (replaying its
    /// delta chain from the nearest keyframe) when tier-attached.
    pub(crate) fn snap_arc(&self, id: SnapshotId) -> Result<Arc<Snapshot>, QueryError> {
        match &self.tier {
            Some(tier) => tier.snapshot(self, id),
            None => self
                .snapshots
                .get(id.index())
                .cloned()
                .ok_or(QueryError::UnknownSnapshot(id)),
        }
    }

    /// The one history walk over a scope's `ids`: the first snapshot —
    /// the anchor — and then each later one as a [`Step`]. The history
    /// verbs that read whole tables fold over it.
    pub(crate) fn walk<'a>(
        &'a self,
        ids: &'a [SnapshotId],
    ) -> Result<(Arc<Snapshot>, impl Iterator<Item = Step> + 'a), QueryError> {
        let (&first, rest) = ids.split_first().ok_or(QueryError::Empty)?;
        let anchor = self.snap_arc(first)?;
        let mut prev = Arc::clone(&anchor);
        let steps = rest.iter().map(move |&id| {
            let snap = self.snap_arc(id)?;
            Ok((std::mem::replace(&mut prev, Arc::clone(&snap)), snap))
        });
        Ok((anchor, steps))
    }

    /// The vantages of the latest snapshot, ascending by ASN.
    pub fn vantages(&self) -> Vec<(Asn, VantageKind)> {
        self.latest()
            .map_or_else(Vec::new, |id| self.vantages_in(id))
    }

    /// The vantages of a specific snapshot, ascending by ASN. On a
    /// tier-attached engine this reads the snapshot's mapped chain, so
    /// listing vantages never hydrates.
    pub fn vantages_in(&self, id: SnapshotId) -> Vec<(Asn, VantageKind)> {
        if let Some(tier) = &self.tier {
            return tier.vantages(&self.interner, id);
        }
        let Some(snap) = self.snapshot(id) else {
            return Vec::new();
        };
        let mut out: Vec<(Asn, VantageKind)> = snap
            .vantage_syms()
            .map(|(s, k)| (self.interner.resolve_asn(s), k))
            .collect();
        out.sort_unstable_by_key(|&(a, _)| a);
        out
    }

    // ---------- the one protocol entry point ----------

    /// Executes one request: resolves its scope, evaluates the query.
    /// Negative answers inside a valid scope (missing routes, unknown
    /// ASes of point queries) are `Ok` responses; only unusable scopes
    /// and unknown history vantages are errors.
    pub fn execute(&self, req: &QueryRequest) -> Result<Response, QueryError> {
        match &req.query {
            Query::Diff => {
                let ids: [SnapshotId; 2] = self.diff_scope(&req.scope)?.into();
                let (_, mut steps) = self.walk(&ids)?;
                let (a, b) = steps.next().expect("two ids are one step")?;
                let diff = SnapshotDiff::between(&self.interner, &a, &b);
                Ok(Response::Diff(diff))
            }
            q if q.is_history() => {
                let ids = self.scope_ids(q, &req.scope)?;
                self.eval_history(q, &ids)
            }
            q => {
                let id = self.single_scope(q, &req.scope)?;
                self.eval_point(q, id)
            }
        }
    }

    /// Executes a batch: every request goes through [`Self::execute`] in
    /// request order on the calling thread, and the batch's wall time is
    /// one `rpi_plan_batch_seconds` sample.
    pub fn execute_batch(&self, reqs: &[QueryRequest]) -> Vec<Result<Response, QueryError>> {
        let t0 = Instant::now();
        let results = reqs.iter().map(|r| self.execute(r)).collect();
        self.metrics.plan_batch_seconds.record(t0.elapsed());
        results
    }

    /// Evaluates a point query against one already-validated snapshot:
    /// `summary` and `leaks` read whole tables (so a cold snapshot
    /// hydrates), the other verbs one route or relationship through
    /// [`Self::read_at`].
    fn eval_point(&self, query: &Query, id: SnapshotId) -> Result<Response, QueryError> {
        match *query {
            Query::PolicySummary { asn } => Ok(Response::Summary(
                self.summary_point(&*self.snap_arc(id)?, asn),
            )),
            Query::Leaks => {
                let snap = self.snap_arc(id)?;
                self.metrics.sec_leaks_total.inc();
                Ok(Response::Leaks(crate::sec::leak_events(self, &snap)))
            }
            _ => self.read_at(
                id,
                |s| self.eval_read(query, s),
                |c| self.eval_read(query, c),
            ),
        }
    }

    /// Reads snapshot `id` where it lives: in memory (`hot`), or on a
    /// tier-attached engine at a cold id its mapped chain
    /// ([`crate::tier::ChainView`], `cold`), without hydrating.
    fn read_at<T>(
        &self,
        id: SnapshotId,
        hot: impl FnOnce(&Snapshot) -> Result<T, QueryError>,
        cold: impl FnOnce(&crate::tier::ChainView<'_>) -> Result<T, QueryError>,
    ) -> Result<T, QueryError> {
        let Some(tier) = &self.tier else {
            return hot(&*self.snap_arc(id)?);
        };
        match tier.hot_get(id.0) {
            Some(snap) => hot(&snap),
            None => tier.read_cold(&self.interner, id, cold),
        }
    }

    /// The point verbs that read one route or one relationship, written
    /// once over [`PointRead`] — monomorphised for an in-memory
    /// [`Snapshot`] and for the cold tier's chain view.
    fn eval_read<R: PointRead>(&self, query: &Query, snap: &R) -> Result<Response, QueryError> {
        Ok(match *query {
            Query::Route { vantage, prefix } => {
                Response::Route(self.route_point(snap, vantage, prefix)?)
            }
            Query::Resolve { vantage, prefix } => {
                Response::Route(self.resolve_point(snap, vantage, prefix)?)
            }
            Query::SaStatus { vantage, prefix } => {
                Response::Sa(match self.interner.lookup_asn(vantage) {
                    Some(v) => self.sa_point(snap, v, prefix)?,
                    None => SaStatus::UnknownVantage,
                })
            }
            Query::Relationship { a, b } => Response::Relationship(self.rel_point(snap, a, b)?),
            Query::Rov { vantage, prefix } => {
                self.metrics.sec_rov_total.inc();
                Response::Rov(crate::sec::rov_point(self, snap, vantage, prefix)?)
            }
            _ => unreachable!("only the verbs reading one route or relationship reach eval_read"),
        })
    }

    /// `uptime`'s two inputs to [`histogram_from_counts`]: per prefix
    /// ever selectively announced in `v`'s table over the scope, in how
    /// many of the scoped snapshots it was there and in how many it was
    /// selectively announced there. Those are the only prefixes the
    /// histogram reads.
    ///
    /// **A fold over [`Self::walk`].** The anchor's SA set opens every SA
    /// interval; each step flips only what [`Snapshot::origin_changes`]
    /// and [`Snapshot::sa_changes`] report as appearing or going, so a
    /// table whose origin stamp and SA cache both carried over (path-only
    /// churn) costs nothing. The anchor's table is never walked: a
    /// prefix's presence there is looked up where it flips or where the
    /// histogram asks for it.
    pub(crate) fn uptime_counts(
        &self,
        v: AsnSym,
        ids: &[SnapshotId],
    ) -> Result<(PrefixCounts, PrefixCounts), QueryError> {
        let (anchor, steps) = self.walk(ids)?;
        let at_start = |p| anchor.route(v, p).is_some();
        let (mut present, mut sa) = (Presence::default(), Presence::default());
        for &p in anchor.vantages.get(&v).iter().flat_map(|t| t.sa.sa.keys()) {
            sa.flip(p, 0, || false);
        }
        for (step, pair) in (1..).zip(steps) {
            let (prev, snap) = pair?;
            snap.origin_changes(&prev, v, |p, old, new| {
                if old.is_some() != new.is_some() {
                    present.flip(p, step, || at_start(p));
                }
            });
            snap.sa_changes(&prev, v, |p, old, new| {
                if old.is_some() != new.is_some() {
                    sa.flip(p, step, || false);
                }
            });
        }
        let steps = ids.len();
        let sa: PrefixCounts = (sa.0.keys())
            .map(|&p| (p, sa.count(p, steps, || false)))
            .collect();
        let present = (sa.keys())
            .map(|&p| (p, present.count(p, steps, || at_start(p))))
            .collect();
        Ok((present, sa))
    }

    /// The history verbs. `sa-history` and `persistence` are an `sa` per
    /// scoped id, through [`Self::read_at`]. `uptime` ([`Self::uptime_counts`]),
    /// `top-sa` (the anchor's SA entries, then every entry a step files
    /// anew) and `hijacks` ([`crate::sec::hijack_events`]) fold over
    /// [`Self::walk`], as `diff` does over its one step. The contract
    /// the folds rest on: what two snapshots share — an `Arc`, a subtrie,
    /// an origin stamp — is equal and skipped, what they do not share is
    /// compared — so an engine whose snapshots share nothing answers the
    /// same bytes, at the cost of walking every scoped table.
    fn eval_history(&self, query: &Query, ids: &[SnapshotId]) -> Result<Response, QueryError> {
        let known = |vantage| {
            (self.interner.lookup_asn(vantage)).ok_or(QueryError::UnknownVantage(vantage))
        };
        // The vantage is resolved once; each id reads only its table.
        let sa_at = |vantage, prefix| {
            let v = known(vantage)?;
            let hot = move |snap: &_| self.sa_point(snap, v, prefix);
            let at = move |id| self.read_at(id, hot, |chain| self.sa_point(chain, v, prefix));
            Ok::<_, QueryError>(ids.iter().map(move |&id| Ok((id, at(id)?))))
        };
        match *query {
            Query::Hijacks => {
                self.metrics.sec_hijacks_total.inc();
                Ok(Response::Hijacks(crate::sec::hijack_events(self, ids)?))
            }
            Query::SaHistory { vantage, prefix } => {
                let mut points = Vec::with_capacity(ids.len());
                for at in sa_at(vantage, prefix)? {
                    let (snapshot, status) = at?;
                    points.push(SaHistoryPoint {
                        snapshot,
                        label: self.label(snapshot).to_string(),
                        status,
                    });
                }
                Ok(Response::SaHistory(points))
            }
            Query::UptimeHistogram { vantage } => {
                let (present, sa_count) = self.uptime_counts(known(vantage)?, ids)?;
                Ok(Response::Uptime(histogram_from_counts(&present, &sa_count)))
            }
            Query::TopKSaOrigins { vantage, k } => {
                let v = known(vantage)?;
                let mut per_origin: BTreeMap<AsnSym, BTreeSet<Ipv4Prefix>> = BTreeMap::new();
                let mut file = |p, origin| {
                    per_origin.entry(origin).or_default().insert(p);
                };
                let (anchor, steps) = self.walk(ids)?;
                for (&p, &origin) in anchor.vantages.get(&v).iter().flat_map(|t| &t.sa.sa) {
                    file(p, origin);
                }
                for step in steps {
                    let (prev, snap) = step?;
                    snap.sa_changes(&prev, v, |p, _, new| {
                        new.into_iter().for_each(|o| file(p, o))
                    });
                }
                let mut rows: Vec<SaOriginCount> = per_origin
                    .into_iter()
                    .map(|(origin, prefixes)| SaOriginCount {
                        origin: self.interner.resolve_asn(origin),
                        prefixes: prefixes.len(),
                    })
                    .collect();
                rows.sort_by(|a, b| b.prefixes.cmp(&a.prefixes).then(a.origin.cmp(&b.origin)));
                rows.truncate(k);
                Ok(Response::TopSaOrigins(rows))
            }
            Query::PersistenceClass { vantage, prefix } => {
                let (mut present, mut sa) = (0usize, 0usize);
                for at in sa_at(vantage, prefix)? {
                    let status = at?.1;
                    present +=
                        !matches!(status, SaStatus::UnknownVantage | SaStatus::NotInTable) as usize;
                    sa += matches!(status, SaStatus::SelectivelyAnnounced { .. }) as usize;
                }
                Ok(Response::Persistence(PersistenceAnswer {
                    snapshots: ids.len(),
                    present,
                    sa,
                    class: classify_persistence(present, sa),
                }))
            }
            _ => unreachable!("only history queries reach eval_history"),
        }
    }

    // ---------- point evaluation ----------

    fn route_point(
        &self,
        snap: &impl PointRead,
        vantage: Asn,
        prefix: Ipv4Prefix,
    ) -> Result<Option<RouteAnswer>, QueryError> {
        let Some(v) = self.interner.lookup_asn(vantage) else {
            return Ok(None);
        };
        let route = snap.get(v, prefix)?;
        Ok(route.map(|route| self.answer(snap.id(), vantage, prefix, &route)))
    }

    fn resolve_point(
        &self,
        snap: &impl PointRead,
        vantage: Asn,
        prefix: Ipv4Prefix,
    ) -> Result<Option<RouteAnswer>, QueryError> {
        let Some(v) = self.interner.lookup_asn(vantage) else {
            return Ok(None);
        };
        let hit = snap.best_match(v, prefix)?;
        Ok(hit.map(|(matched, route)| self.answer(snap.id(), vantage, matched, &route)))
    }

    /// Fig. 4's verdict on the resolved vantage `v`'s route for `prefix`.
    fn sa_point(
        &self,
        snap: &impl PointRead,
        v: AsnSym,
        prefix: Ipv4Prefix,
    ) -> Result<SaStatus, QueryError> {
        if !snap.is_vantage(v)? {
            return Ok(SaStatus::UnknownVantage);
        }
        if let Some((verdict, origin)) = snap.sa_filed(v, prefix)? {
            let origin = self.interner.resolve_asn(origin);
            return Ok(match verdict {
                SaVerdict::Sa => SaStatus::SelectivelyAnnounced { origin },
                SaVerdict::Exported => SaStatus::CustomerExported { origin },
            });
        }
        Ok(if snap.get(v, prefix)?.is_some() {
            SaStatus::NotCustomerRoute
        } else {
            SaStatus::NotInTable
        })
    }

    fn rel_point(
        &self,
        snap: &impl PointRead,
        a: Asn,
        b: Asn,
    ) -> Result<Option<Relationship>, QueryError> {
        let Some(sa) = self.interner.lookup_asn(a) else {
            return Ok(None);
        };
        let Some(sb) = self.interner.lookup_asn(b) else {
            return Ok(None);
        };
        Ok(snap.oracle()?.rel(sa, sb))
    }

    fn summary_point(&self, snap: &Snapshot, asn: Asn) -> Option<PolicySummary> {
        let s = self.interner.lookup_asn(asn)?;
        let table = snap.vantages.get(&s);
        let lg = table.and_then(|t| t.lg.as_ref());
        Some(PolicySummary {
            asn,
            kind: table.map(|t| t.kind),
            routes: table.map_or(0, |t| t.route_count),
            customer_prefixes: table.map_or(0, |t| t.sa.customer_prefixes()),
            sa_count: table.map_or(0, |t| t.sa.sa.len()),
            typicality: lg.map(|lg| lg.typicality),
            tagged_neighbors: lg.map_or(0, |lg| lg.classes.len()),
            neighbor_counts: snap.oracle.neighbor_counts(s),
        })
    }

    fn answer(
        &self,
        id: SnapshotId,
        vantage: Asn,
        prefix: Ipv4Prefix,
        route: &crate::snapshot::CompactRoute,
    ) -> RouteAnswer {
        RouteAnswer {
            snapshot: id,
            vantage,
            prefix,
            next_hop: self.interner.resolve_asn(route.next_hop),
            path: route
                .path
                .iter()
                .map(|&s| self.interner.resolve_asn(s))
                .collect(),
        }
    }
}
