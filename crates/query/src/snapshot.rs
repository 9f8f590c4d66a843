//! One ingested snapshot: per-vantage route tables (one prefix trie
//! each) plus the precomputed `rpi_core` analyses.
//!
//! A snapshot is built once at ingest time and never mutated; every query
//! against it is a hash/trie lookup. Routes are stored interned
//! ([`crate::WorldInterner`]), so a snapshot of a `Small` world is a few
//! hundred KiB and diffing two snapshots is integer work.
//!
//! ## Two ways to build one
//!
//! [`Snapshot::from_output`] indexes a simulated output from scratch.
//! [`Snapshot::from_output_incremental`] instead starts from the
//! *predecessor* snapshot and a structured [`bgp_sim::OutputDelta`]: the
//! vantage tries are copy-on-write overlays ([`bgp_types::CowTrie`]) that
//! physically share every untouched subtrie with the predecessor, the
//! relationship/SA/summary caches are `Arc`-shared per vantage and only
//! the touched vantage×prefix entries are re-derived, and the engine-wide
//! interner stays append-only so symbols never move. The two paths are
//! differentially tested (`tests/incremental_diff.rs`): every query must
//! render byte-identically regardless of which path built the snapshot.

use std::collections::HashMap;
use std::sync::Arc;

use bgp_sim::{CollectorView, LgView, OutputDelta, SimOutput, VantageDelta};
use bgp_types::{Asn, CowTrie, Ipv4Prefix, Relationship};
use net_topology::{AsGraph, CustomerCone};
use rpi_core::community::{infer_communities, CommunityParams};
use rpi_core::export_policy::sa_prefixes;
use rpi_core::import_policy::lg_typicality;
use rpi_core::view::BestTable;

use crate::intern::{AsnSym, Interning, PrefixSym, WorldInterner};

/// Index of a snapshot inside its engine, in ingestion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SnapshotId(pub u32);

impl SnapshotId {
    /// The id as a `Vec` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What kind of view a vantage contributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VantageKind {
    /// Full Looking-Glass view: LOCAL_PREF and communities visible, so all
    /// the paper's analyses are precomputed for it.
    LookingGlass,
    /// Collector peer: best paths only; SA analysis is available, import
    /// typicality and community semantics are not.
    CollectorPeer,
}

/// A best route in compact interned form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CompactRoute {
    /// Neighbor the route was learned from.
    pub next_hop: AsnSym,
    /// Interned AS path, next-hop first, origin last.
    pub path: Box<[AsnSym]>,
}

/// One vantage's best-route table: one prefix trie. Tables are
/// `Arc`-shared between snapshots: an incremental ingest clones the
/// whole `Arc` for untouched vantages, and builds a copy-on-write
/// overlay (root cloned in O(1), only touched spines copied) for
/// churned ones.
#[derive(Debug)]
pub(crate) struct VantageTable {
    pub kind: VantageKind,
    pub trie: CowTrie<CompactRoute>,
    pub route_count: usize,
}

/// How a snapshot was built — the archive's full-vs-delta policy input.
///
/// A snapshot built incrementally keeps the structured [`OutputDelta`]
/// it was patched from: `rpi-store` can then persist the snapshot as a
/// compact **delta segment** (the events, not the tables) and replay it
/// through the same patching machinery on load. Snapshots indexed from
/// scratch carry no delta and always serialize as **full segments**.
#[derive(Debug, Clone)]
pub(crate) enum Provenance {
    /// Indexed from scratch (full ingest, MRT, or loaded full segment).
    Full,
    /// Patched over its predecessor from these events.
    Delta(Arc<OutputDelta>),
}

/// Precomputed Fig. 4 output for one vantage.
///
/// Invariant (relied on by the incremental patcher): a prefix is in
/// exactly one of `sa` / `exported` iff it is customer-originated, so
/// `customer_prefixes == sa.len() + exported.len()` always.
#[derive(Debug, Clone, Default)]
pub(crate) struct SaCache {
    /// Prefixes in the table originated inside the vantage's customer cone.
    pub customer_prefixes: usize,
    /// SA prefix → origin.
    pub sa: HashMap<PrefixSym, AsnSym>,
    /// Prefixes that are customer-originated but *not* SA.
    pub exported: HashMap<PrefixSym, AsnSym>,
}

/// One ingested, fully-indexed snapshot.
#[derive(Debug)]
pub struct Snapshot {
    /// The snapshot's engine-assigned id.
    pub id: SnapshotId,
    /// Caller-supplied label (e.g. `day-07`).
    pub label: String,
    pub(crate) vantages: HashMap<AsnSym, Arc<VantageTable>>,
    /// Oracle relationships: `(a, b) → b is a's …` (both directions kept).
    /// `Arc`-shared across a series while the oracle is unchanged.
    pub(crate) relationships: Arc<HashMap<(AsnSym, AsnSym), Relationship>>,
    /// Per-AS oracle neighbor counts `(providers, customers, peers,
    /// siblings)`, precomputed so summaries stay O(lookup).
    pub(crate) neighbor_counts: Arc<HashMap<AsnSym, (usize, usize, usize, usize)>>,
    pub(crate) sa: HashMap<AsnSym, Arc<SaCache>>,
    /// Import typicality per LG vantage: `(prefixes compared, typical)`.
    pub(crate) typicality: HashMap<AsnSym, (usize, usize)>,
    /// Community-derived relationship per (LG vantage, neighbor).
    pub(crate) community_class: HashMap<AsnSym, Arc<HashMap<AsnSym, Relationship>>>,
    /// Interner sizes `(asns, prefixes, communities)` right after this
    /// snapshot was indexed. The interner is append-only across a
    /// series, so these are exactly the block boundaries of the
    /// archive's symbol segment.
    pub(crate) interned_watermark: (usize, usize, usize),
    /// How the snapshot was built (see [`Provenance`]).
    pub(crate) provenance: Provenance,
}

impl Snapshot {
    /// Builds a snapshot from a simulated output plus a relationship
    /// oracle (typically the Gao-inferred graph, as in the paper).
    pub(crate) fn from_output(
        id: SnapshotId,
        label: &str,
        out: &SimOutput,
        oracle: &AsGraph,
        interner: &mut WorldInterner,
    ) -> Snapshot {
        let mut snap = Snapshot::empty(id, label);
        snap.index_relationships(oracle, interner);

        // Collector peers: best-path tables, SA analysis only.
        for &peer in &out.collector.peers {
            let table = BestTable::from_collector(&out.collector, peer);
            snap.index_vantage(&table, VantageKind::CollectorPeer, oracle, interner);
        }
        for row in out.collector.all_paths() {
            for &c in &row.communities {
                interner.community(c);
            }
        }

        // Looking-Glass vantages: full tables + the LG-only analyses.
        // An LG AS that also peers with the collector keeps the richer view.
        for (&asn, view) in &out.lgs {
            let table = BestTable::from_lg(view);
            snap.index_vantage(&table, VantageKind::LookingGlass, oracle, interner);
            snap.index_lg_analyses(asn, view, oracle, interner);
        }
        snap
    }

    /// Builds a snapshot as a copy-on-write overlay over its
    /// predecessor. `prev` must be the snapshot built from the older end
    /// of `delta`, and `out` the newer output; `cones` caches customer
    /// cones across a series (the caller clears it when the oracle
    /// changes — this function detects that itself and recomputes every
    /// SA cache in that case, since cone membership may have moved).
    ///
    /// Sharing contract, per vantage of `out`:
    /// * unseen before (or its [`VantageKind`] changed) → indexed from
    ///   scratch;
    /// * untouched by `delta` → table, SA cache and LG analyses are the
    ///   predecessor's `Arc`s, no bytes copied;
    /// * churned → the trie is an O(1) clone patched along the touched
    ///   prefixes' spines, and the SA cache is re-derived only for those
    ///   prefixes (Fig. 4's per-prefix test is local: origin-in-cone +
    ///   next-hop relationship).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_output_incremental(
        id: SnapshotId,
        label: &str,
        prev: &Snapshot,
        delta: &OutputDelta,
        out: &SimOutput,
        oracle: &AsGraph,
        same_oracle: bool,
        interner: &mut WorldInterner,
        cones: &mut HashMap<Asn, CustomerCone>,
    ) -> Snapshot {
        let mut snap = Snapshot::empty(id, label);
        let oracle_changed = if same_oracle {
            // The caller vouches the oracle is the very graph the
            // predecessor was indexed under (e.g. one reference held
            // across a whole series): skip the rebuild outright.
            false
        } else {
            snap.index_relationships(oracle, interner);
            *snap.relationships != *prev.relationships
                || *snap.neighbor_counts != *prev.neighbor_counts
        };
        if oracle_changed {
            cones.clear();
        } else {
            // Byte-level sharing: drop any freshly built maps for the
            // predecessor's.
            snap.relationships = Arc::clone(&prev.relationships);
            snap.neighbor_counts = Arc::clone(&prev.neighbor_counts);
        }

        // Keep the interner's community table exactly as a full ingest
        // would: every row a full pass would re-intern either existed in
        // the predecessor (already interned, append-only), arrives as an
        // announced/replaced event here, or belongs to a peer that just
        // appeared (whose rows were never compared against anything and
        // are interned wholesale below).
        for vd in delta.collector.values() {
            for (_, route) in vd.announced.iter().chain(&vd.replaced) {
                for &c in &route.communities {
                    interner.community(c);
                }
            }
        }
        if !delta.peers_added.is_empty() {
            for row in out.collector.all_paths() {
                if delta.peers_added.contains(&row.peer) {
                    for &c in &row.communities {
                        interner.community(c);
                    }
                }
            }
        }

        // Collector peers (LG ASes are indexed from their richer view
        // below, but their collector rows were interned above).
        for &peer in &out.collector.peers {
            if out.lgs.contains_key(&peer) {
                continue;
            }
            let fresh = delta.peers_added.contains(&peer)
                || prev_kind(prev, interner, peer) != Some(VantageKind::CollectorPeer);
            if fresh {
                let table = BestTable::from_collector(&out.collector, peer);
                snap.index_vantage(&table, VantageKind::CollectorPeer, oracle, interner);
            } else {
                let vd = delta.collector.get(&peer);
                snap.patch_vantage(prev, peer, vd, oracle, interner, cones, oracle_changed);
            }
        }

        // Looking-Glass vantages.
        for (&asn, view) in &out.lgs {
            let fresh = delta.lgs_added.contains(&asn)
                || prev_kind(prev, interner, asn) != Some(VantageKind::LookingGlass);
            let vd = delta.lgs.get(&asn);
            if fresh {
                let table = BestTable::from_lg(view);
                snap.index_vantage(&table, VantageKind::LookingGlass, oracle, interner);
                snap.index_lg_analyses(asn, view, oracle, interner);
            } else {
                snap.patch_vantage(prev, asn, vd, oracle, interner, cones, oracle_changed);
                // Import typicality consults the oracle; community
                // semantics only the view. Both are per-vantage and cheap
                // next to table indexing, so any view change (or oracle
                // change) recomputes them wholesale.
                if oracle_changed || vd.is_some_and(|d| d.analyses_dirty) {
                    snap.index_lg_analyses(asn, view, oracle, interner);
                } else {
                    let owner = interner.asn(asn);
                    if let Some(&t) = prev.typicality.get(&owner) {
                        snap.typicality.insert(owner, t);
                    }
                    if let Some(c) = prev.community_class.get(&owner) {
                        snap.community_class.insert(owner, Arc::clone(c));
                    }
                }
            }
        }
        snap
    }

    /// Carries one surviving vantage over from `prev`, applying `vd`'s
    /// best-route events to the copy-on-write table and re-deriving the
    /// SA cache only for the touched prefixes. Also the archive's delta-
    /// segment replay path (`crate::archive`), which is how "load of a
    /// delta segment ≡ full re-index" inherits the incremental ingest's
    /// differential-testing contract.
    ///
    /// Generic over [`Interning`] because the cold tier replays archived
    /// deltas under a shared engine reference: it patches with a
    /// read-only [`crate::intern::FrozenInterner`], while live ingest
    /// keeps interning on miss.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn patch_vantage<I: Interning>(
        &mut self,
        prev: &Snapshot,
        vantage: Asn,
        vd: Option<&VantageDelta>,
        oracle: &AsGraph,
        interner: &mut I,
        cones: &mut HashMap<Asn, CustomerCone>,
        oracle_changed: bool,
    ) {
        let owner = interner.asn(vantage);
        let prev_table = prev
            .vantages
            .get(&owner)
            .expect("patch_vantage callers verified the vantage survives");
        let no_route_events = vd.is_none_or(|d| d.route_events() == 0);

        // --- the table: Arc-shared, or a patched COW overlay ---
        let table = if no_route_events {
            Arc::clone(prev_table)
        } else {
            let vd = vd.expect("route events imply a delta");
            let mut table = VantageTable {
                kind: prev_table.kind,
                trie: prev_table.trie.clone(),
                route_count: prev_table.route_count,
            };
            for &p in &vd.withdrawn {
                if table.trie.remove(p).is_some() {
                    table.route_count -= 1;
                }
            }
            for (p, r) in vd.announced.iter().chain(&vd.replaced) {
                interner.prefix(*p);
                let route = CompactRoute {
                    next_hop: interner.asn(r.next_hop),
                    path: r.path.iter().map(|&a| interner.asn(a)).collect(),
                };
                if table.trie.insert(*p, route).is_none() {
                    table.route_count += 1;
                }
            }
            Arc::new(table)
        };
        self.vantages.insert(owner, table);

        // --- the SA cache ---
        let prev_sa = prev
            .sa
            .get(&owner)
            .expect("every indexed vantage has an SA cache");
        if oracle_changed {
            // Cone membership may have moved: re-derive from the full
            // table (rare — only when the relationship oracle itself
            // changed mid-series).
            let table = self.vantages[&owner].clone();
            let rows: Vec<(Ipv4Prefix, CompactRoute)> =
                table.trie.iter().map(|(p, r)| (p, r.clone())).collect();
            let cone = cones
                .entry(vantage)
                .or_insert_with(|| CustomerCone::build(oracle, vantage));
            let mut cache = SaCache::default();
            for (p, route) in rows {
                let ps = interner
                    .lookup_prefix(p)
                    .expect("table prefixes are interned");
                classify_sa(
                    &mut cache,
                    ps,
                    vantage,
                    interner.resolve_asn(route.next_hop),
                    interner.resolve_asn(*route.path.last().expect("paths are non-empty")),
                    oracle,
                    cone,
                    interner,
                );
            }
            cache.customer_prefixes = cache.sa.len() + cache.exported.len();
            self.sa.insert(owner, Arc::new(cache));
        } else if no_route_events {
            self.sa.insert(owner, Arc::clone(prev_sa));
        } else {
            let vd = vd.expect("route events imply a delta");
            let cone = cones
                .entry(vantage)
                .or_insert_with(|| CustomerCone::build(oracle, vantage));
            let mut cache = SaCache::clone(prev_sa);
            for &p in &vd.withdrawn {
                let ps = interner.prefix(p);
                cache.sa.remove(&ps);
                cache.exported.remove(&ps);
            }
            for (p, r) in vd.announced.iter().chain(&vd.replaced) {
                let ps = interner.prefix(*p);
                cache.sa.remove(&ps);
                cache.exported.remove(&ps);
                classify_sa(
                    &mut cache,
                    ps,
                    vantage,
                    r.next_hop,
                    *r.path.last().expect("delta paths are non-empty"),
                    oracle,
                    cone,
                    interner,
                );
            }
            cache.customer_prefixes = cache.sa.len() + cache.exported.len();
            self.sa.insert(owner, Arc::new(cache));
        }
    }

    /// Builds a snapshot from a collector view alone (the MRT ingest
    /// path). The caller supplies the oracle — typically Gao-inferred from
    /// the dump's own paths.
    pub(crate) fn from_collector(
        id: SnapshotId,
        label: &str,
        view: &CollectorView,
        oracle: &AsGraph,
        interner: &mut WorldInterner,
    ) -> Snapshot {
        let mut snap = Snapshot::empty(id, label);
        snap.index_relationships(oracle, interner);
        for &peer in &view.peers {
            let table = BestTable::from_collector(view, peer);
            snap.index_vantage(&table, VantageKind::CollectorPeer, oracle, interner);
        }
        for row in view.all_paths() {
            for &c in &row.communities {
                interner.community(c);
            }
        }
        snap
    }

    pub(crate) fn empty(id: SnapshotId, label: &str) -> Snapshot {
        Snapshot {
            id,
            label: label.to_string(),
            vantages: HashMap::new(),
            relationships: Arc::new(HashMap::new()),
            neighbor_counts: Arc::new(HashMap::new()),
            sa: HashMap::new(),
            typicality: HashMap::new(),
            community_class: HashMap::new(),
            interned_watermark: (0, 0, 0),
            provenance: Provenance::Full,
        }
    }

    fn index_relationships(&mut self, oracle: &AsGraph, interner: &mut WorldInterner) {
        let mut relationships = HashMap::new();
        let mut neighbor_counts: HashMap<AsnSym, (usize, usize, usize, usize)> = HashMap::new();
        for a in oracle.ases() {
            let sa = interner.asn(a);
            let counts = neighbor_counts.entry(sa).or_default();
            for (b, rel) in oracle.neighbors(a) {
                let sb = interner.asn(b);
                relationships.insert((sa, sb), rel);
                match rel {
                    Relationship::Provider => counts.0 += 1,
                    Relationship::Customer => counts.1 += 1,
                    Relationship::Peer => counts.2 += 1,
                    Relationship::Sibling => counts.3 += 1,
                }
            }
        }
        self.relationships = Arc::new(relationships);
        self.neighbor_counts = Arc::new(neighbor_counts);
    }

    fn index_vantage(
        &mut self,
        table: &BestTable,
        kind: VantageKind,
        oracle: &AsGraph,
        interner: &mut WorldInterner,
    ) {
        let owner = interner.asn(table.asn);
        let mut trie = CowTrie::new();
        for (&prefix, row) in &table.rows {
            interner.prefix(prefix);
            let route = CompactRoute {
                next_hop: interner.asn(row.next_hop),
                path: row.path.iter().map(|&a| interner.asn(a)).collect(),
            };
            trie.insert(prefix, route);
        }
        self.vantages.insert(
            owner,
            Arc::new(VantageTable {
                kind,
                trie,
                route_count: table.rows.len(),
            }),
        );

        // Fig. 4 SA analysis, cached per vantage.
        let report = sa_prefixes(table, oracle);
        let mut cache = SaCache {
            customer_prefixes: report.customer_prefixes,
            ..Default::default()
        };
        for (&prefix, &origin) in &report.sa_origin {
            cache
                .sa
                .insert(interner.prefix(prefix), interner.asn(origin));
        }
        for (&prefix, row) in &table.rows {
            let origin = row.origin();
            if report.per_origin.contains_key(&origin) && !report.sa.contains(&prefix) {
                cache
                    .exported
                    .insert(interner.prefix(prefix), interner.asn(origin));
            }
        }
        debug_assert_eq!(
            cache.customer_prefixes,
            cache.sa.len() + cache.exported.len(),
            "SA/exported partition the customer prefixes"
        );
        self.sa.insert(owner, Arc::new(cache));
    }

    fn index_lg_analyses(
        &mut self,
        asn: Asn,
        view: &LgView,
        oracle: &AsGraph,
        interner: &mut WorldInterner,
    ) {
        let owner = interner.asn(asn);
        for routes in view.rows.values() {
            for r in routes {
                for &c in &r.communities {
                    interner.community(c);
                }
            }
        }
        let t = lg_typicality(view, oracle);
        self.typicality
            .insert(owner, (t.prefixes_compared, t.typical));
        let inf = infer_communities(view, &CommunityParams::default());
        let classes: HashMap<AsnSym, Relationship> = inf
            .neighbor_class
            .iter()
            .map(|(&n, &r)| (interner.asn(n), r))
            .collect();
        self.community_class.insert(owner, Arc::new(classes));
    }

    /// The vantages indexed in this snapshot, with their kinds.
    pub(crate) fn vantage_syms(&self) -> impl Iterator<Item = (AsnSym, VantageKind)> + '_ {
        self.vantages.iter().map(|(&s, t)| (s, t.kind))
    }

    /// Every prefix in one vantage's table, in prefix order (empty when
    /// the AS is not a vantage here). Feeds the history queries'
    /// per-snapshot presence counts.
    pub(crate) fn table_prefixes(&self, vantage: AsnSym) -> impl Iterator<Item = Ipv4Prefix> + '_ {
        self.vantages
            .get(&vantage)
            .into_iter()
            .flat_map(|t| t.trie.iter().map(|(p, _)| p))
    }

    /// Exact route lookup.
    pub(crate) fn route(&self, vantage: AsnSym, prefix: Ipv4Prefix) -> Option<&CompactRoute> {
        self.vantages.get(&vantage)?.trie.get(prefix)
    }

    /// Longest-prefix-match lookup.
    pub(crate) fn route_lpm(
        &self,
        vantage: AsnSym,
        prefix: Ipv4Prefix,
    ) -> Option<(Ipv4Prefix, &CompactRoute)> {
        self.vantages.get(&vantage)?.trie.best_match(prefix)
    }

    /// Total trie nodes across all vantage tables (counted as if
    /// unshared).
    pub(crate) fn trie_nodes(&self) -> usize {
        self.vantages.values().map(|t| t.trie.node_count()).sum()
    }

    /// Trie nodes physically shared with `prev` (pointer-equal subtries,
    /// summed over vantages present in both snapshots).
    pub(crate) fn trie_nodes_shared_with(&self, prev: &Snapshot) -> usize {
        self.vantages
            .iter()
            .filter_map(|(sym, table)| prev.vantages.get(sym).map(|pt| (table, pt)))
            .map(|(table, pt)| table.trie.shared_nodes_with(&pt.trie))
            .sum()
    }
}

/// The effective kind the predecessor snapshot indexed `vantage` under,
/// if at all. A kind switch (an AS gaining or losing its Looking-Glass
/// view while staying a collector peer) means its stored table has a
/// different shape, so the incremental path re-indexes it from scratch.
fn prev_kind(prev: &Snapshot, interner: &WorldInterner, vantage: Asn) -> Option<VantageKind> {
    let sym = interner.lookup_asn(vantage)?;
    prev.vantages.get(&sym).map(|t| t.kind)
}

/// The Fig. 4 classification of a single route, applied to an SA cache:
/// a customer-originated prefix lands in `sa` (reached via a non-customer
/// next hop) or `exported`; anything else is left out entirely. This is
/// the per-prefix core of [`rpi_core::export_policy::sa_prefixes`],
/// reused by the incremental patcher — the differential fuzz suite holds
/// the two implementations byte-identical.
#[allow(clippy::too_many_arguments)]
fn classify_sa<I: Interning>(
    cache: &mut SaCache,
    prefix: PrefixSym,
    provider: Asn,
    next_hop: Asn,
    origin: Asn,
    oracle: &AsGraph,
    cone: &CustomerCone,
    interner: &mut I,
) {
    if origin == provider || !cone.contains(origin) {
        return;
    }
    let via_customer = matches!(
        oracle.rel(provider, next_hop),
        Some(Relationship::Customer) | Some(Relationship::Sibling)
    );
    let origin_sym = interner.asn(origin);
    if via_customer {
        cache.exported.insert(prefix, origin_sym);
    } else {
        cache.sa.insert(prefix, origin_sym);
    }
}
