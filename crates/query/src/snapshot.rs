//! One ingested snapshot: per-vantage route tables (one prefix trie
//! each) plus the precomputed `rpi_core` analyses.
//!
//! A snapshot is built once at ingest time and never mutated; every query
//! against it is a hash/trie lookup. Routes store their AS paths as
//! interned ASN symbols ([`crate::WorldInterner`]), so a snapshot of a
//! `Small` world is a few hundred KiB and diffing two snapshots is
//! integer work.
//!
//! ## Two ways to build one
//!
//! [`Snapshot::from_output`] indexes a simulated output from scratch.
//! [`Snapshot::from_output_incremental`] instead starts from the
//! *predecessor* snapshot and a structured [`bgp_sim::OutputDelta`]: the
//! vantage tries are copy-on-write overlays ([`bgp_types::CowTrie`]) that
//! physically share every untouched subtrie with the predecessor, an
//! untouched vantage's whole record is `Arc`-shared and only the touched
//! vantage×prefix entries are re-derived, and the engine-wide interner
//! stays append-only so symbols never move. The two paths are
//! differentially tested (`tests/incremental_diff.rs`): every query must
//! render byte-identically regardless of which path built the snapshot.
//!
//! ## One oracle
//!
//! What a snapshot knows about AS relationships is one value, its
//! [`Oracle`]: a symbol-indexed adjacency ([`Relations::rel`] is a
//! binary search in one AS's row, [`Oracle::edges`] walks them all in
//! order, [`Oracle::neighbor_counts`] tallies a row) and the customer
//! cones walked so far. Snapshots under an unchanged oracle hold the same
//! `Arc<Oracle>` however they came to exist (incremental ingest, delta
//! replay, a full segment that elided its edges, a live publication), so
//! a cone is walked at most once per oracle — by whichever table is
//! judged first, or by `hijacks` — and there is no cache to invalidate:
//! a changed oracle is a new value that has walked nothing. The caller's
//! [`AsGraph`] is only ever indexed into an oracle, and the oracle is a
//! [`Relations`] implementation, so each per-route primitive runs here as
//! the very code `paper_tables` runs on the graph: [`walk_down`] behind
//! [`Oracle::in_cone`], [`valley_walk`] behind [`Oracle::leaker`], and
//! Fig. 4's [`sa_verdict`].

//! ## What a vantage's record holds
//!
//! One vantage is one value, its [`VantageTable`]: the route table (one
//! prefix trie and its [`OriginStamp`]), the two per-route verdicts
//! indexed on it — its SA cache (Fig. 4) and its valley-free convictions
//! (prefix → leaker, [`Oracle::leaker`]) — and, for a Looking-Glass
//! vantage, its [`LgAnalyses`] (import typicality, community classes).
//! The verdicts are functions of the stored route and the oracle alone,
//! so they are derived wherever a table is built: [`VantageTable::build`]
//! (indexing, a standalone full-segment decode) hands each route to a
//! [`TableJudge`] as it enters the trie, and [`Snapshot::patch_table`]
//! (incremental ingest, delta replay, a full segment decoded onto its
//! predecessor) keeps the predecessor's record while nothing moved, and
//! otherwise re-judges only the edited prefixes of a clone, keeping each
//! map's `Arc` and the stamp while no entry moved — so the history folds
//! skip what did not change ([`Snapshot::origin_changes`],
//! [`Snapshot::sa_changes`]); an oracle change re-judges the whole table.
//! The LG analyses change only through [`Snapshot::set_lg`]. Nothing
//! derived is persisted, so `sa` and `leaks` are reads. (The cold tier
//! holds no SA cache: it files the one route a point `sa` asks about
//! with the same [`sa_verdict`] — [`PointRead::sa_filed`].)
//! `fold_scan.rs` holds the convictions to judging every stored path on
//! request.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use bgp_sim::{CollectorView, DeltaRoute, LgView, OutputDelta, SimOutput, VantageDelta};
use bgp_types::intern::Symbol;
use bgp_types::{Asn, CowTrie, Ipv4Prefix, Relationship};
use net_topology::paths::{valley_walk, walk_down, Valley};
use net_topology::{AsGraph, Relations};
use rpi_core::community::{infer_communities, CommunityParams};
use rpi_core::export_policy::{sa_verdict, SaVerdict};
use rpi_core::import_policy::lg_typicality;
use rpi_core::view::BestTable;

use crate::intern::{AsnSym, Interning, WorldInterner};
use crate::plan::QueryError;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

impl CompactRoute {
    /// A delta event's route at symbol level.
    pub(crate) fn interned<I: Interning>(route: &DeltaRoute, interner: &mut I) -> CompactRoute {
        CompactRoute {
            next_hop: interner.asn(route.next_hop),
            path: route.path.iter().map(|&a| interner.asn(a)).collect(),
        }
    }
}

/// One vantage's record: its best-route table (one prefix trie) and
/// everything judged of it. Records are `Arc`-shared between snapshots:
/// an incremental ingest, a delta replay and a full segment decoded onto
/// its predecessor all keep the whole `Arc` for a vantage with no edit
/// under an unchanged oracle, and otherwise patch a clone — O(1): the
/// trie's root and every derived map are `Arc`s — whose trie is a
/// copy-on-write overlay (only touched spines copied) that keeps the
/// predecessor's origin stamp when no edit moved an origin
/// ([`Snapshot::patch_table`]). Only a table built from nothing
/// ([`VantageTable::build`]) shares nothing and takes a fresh stamp.
#[derive(Debug, Clone)]
pub(crate) struct VantageTable {
    pub kind: VantageKind,
    pub trie: CowTrie<CompactRoute>,
    pub route_count: usize,
    /// Names the table's prefix → origin map ([`OriginStamp`]).
    pub origins: OriginStamp,
    /// Fig. 4's filings of the table's routes under the snapshot's oracle.
    pub sa: Arc<SaCache>,
    /// Valley-free convictions, judged under the snapshot's oracle; the
    /// predecessor's `Arc` while no conviction moved. `leaks` reads these
    /// and judges nothing.
    pub leaks: Arc<Convictions>,
    /// Import typicality and community classes (Looking-Glass vantages).
    pub lg: Option<LgAnalyses>,
}

impl VantageTable {
    /// `owner`'s table of `kind` built from nothing under `oracle`: each
    /// `(prefix, route)` is judged as it enters the trie, and
    /// the table takes a fresh stamp. Indexing and a standalone
    /// full-segment decode build through it.
    pub(crate) fn build(
        kind: VantageKind,
        oracle: &Oracle,
        owner: AsnSym,
        routes: impl IntoIterator<Item = (Ipv4Prefix, CompactRoute)>,
    ) -> VantageTable {
        let (mut trie, mut route_count) = (CowTrie::new(), 0);
        let mut judge = TableJudge::new(oracle, owner);
        for (prefix, route) in routes {
            judge.judge(prefix, &route);
            route_count += trie.insert(prefix, route).is_none() as usize;
        }
        let (sa, leaks) = judge.finish();
        VantageTable {
            kind,
            trie,
            route_count,
            origins: OriginStamp::fresh(),
            sa: Arc::new(sa),
            leaks: Arc::new(leaks),
            lg: None,
        }
    }
}

/// A Looking-Glass vantage's analyses, recomputed from its view whenever
/// the view or the oracle changes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LgAnalyses {
    /// Import typicality: `(prefixes compared, typical)`.
    pub typicality: (usize, usize),
    /// Community-derived relationship per neighbour.
    pub classes: Arc<HashMap<AsnSym, Relationship>>,
}

/// A witness of one prefix → origin map: two tables holding one stamp
/// store the same prefixes with the same origins, whatever their paths.
/// A table built from nothing takes a fresh stamp; a patch that moves no
/// origin and adds or removes no prefix keeps its predecessor's. Like a
/// shared `Arc`, an equal stamp is a shortcut for "equal" and never
/// evidence of a difference. Process-local: never stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OriginStamp(u64);

impl OriginStamp {
    /// A stamp no other table holds.
    pub(crate) fn fresh() -> OriginStamp {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        OriginStamp(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// A stored route's origin: its path's last AS.
pub(crate) fn origin(route: &CompactRoute) -> AsnSym {
    *route.path.last().expect("stored paths are non-empty")
}

/// `table`'s owner and rows at symbol level, interned as they are read:
/// the owner, then each row's next hop and path.
fn interned_routes<'a>(
    table: &'a BestTable,
    interner: &'a mut WorldInterner,
) -> (
    AsnSym,
    impl Iterator<Item = (Ipv4Prefix, CompactRoute)> + 'a,
) {
    let owner = interner.asn(table.asn);
    let routes = table.rows.iter().map(|(&prefix, row)| {
        let route = CompactRoute {
            next_hop: interner.asn(row.next_hop),
            path: row.path.iter().map(|&a| interner.asn(a)).collect(),
        };
        (prefix, route)
    });
    (owner, routes)
}

/// One vantage's route changes against its predecessor's table: the
/// prefixes whose route is gone, then those whose route is new or
/// changed, with the route now stored there. Withdrawals apply first, so
/// a prefix on both lists ends up stored; of two stored routes for one
/// prefix the later holds. [`Snapshot::patch_table`] applies them.
#[derive(Debug, Default)]
pub(crate) struct RouteEdits {
    pub removed: Vec<Ipv4Prefix>,
    pub stored: Vec<(Ipv4Prefix, CompactRoute)>,
}

impl RouteEdits {
    /// A delta's best-route events for one vantage, at symbol level,
    /// interning the ASes they name.
    pub(crate) fn from_delta<I: Interning>(vd: &VantageDelta, interner: &mut I) -> RouteEdits {
        let stored = (vd.announced.iter().chain(&vd.replaced))
            .map(|(p, r)| (*p, CompactRoute::interned(r, interner)))
            .collect();
        RouteEdits {
            removed: vd.withdrawn.clone(),
            stored,
        }
    }

    /// What turns `old` into the table `new` lists in prefix order — the
    /// order [`CowTrie::iter`] walks `old` in, and the order a flattened
    /// trie decodes in: one merge-join, so routes equal on both sides
    /// are no edit.
    pub(crate) fn between(
        old: &CowTrie<CompactRoute>,
        new: Vec<(Ipv4Prefix, CompactRoute)>,
    ) -> RouteEdits {
        let mut edits = RouteEdits::default();
        let mut old = old.iter().peekable();
        for (p, route) in new {
            while let Some((gone, _)) = old.next_if(|&(q, _)| q < p) {
                edits.removed.push(gone);
            }
            match old.next_if(|&(q, _)| q == p) {
                Some((_, was)) if *was == route => {}
                _ => edits.stored.push((p, route)),
            }
        }
        edits.removed.extend(old.map(|(gone, _)| gone));
        edits
    }
}

/// How a snapshot was built — the archive's full-vs-delta policy input.
///
/// A snapshot built incrementally keeps the structured [`OutputDelta`]
/// it was patched from: `rpi-store` can then persist the snapshot as a
/// compact **delta segment** (the events, not the tables) and replay it
/// through the same patching machinery on load. Snapshots indexed from
/// scratch carry no delta and always serialize as **full segments**. A
/// loaded full segment is `Full` whether it was decoded standalone or
/// onto its predecessor (sharing its unchanged tables).
#[derive(Debug, Clone)]
pub(crate) enum Provenance {
    /// Indexed from scratch (full ingest, MRT), or a loaded full segment
    /// (standalone or decoded onto its predecessor).
    Full,
    /// Patched over its predecessor from these events.
    Delta(Arc<OutputDelta>),
}

/// Precomputed Fig. 4 output for one vantage: a prefix is in exactly one
/// of `sa` / `exported` iff it is customer-originated.
#[derive(Debug, Clone, Default)]
pub(crate) struct SaCache {
    /// SA prefix → origin.
    pub sa: HashMap<Ipv4Prefix, AsnSym>,
    /// Prefixes that are customer-originated but *not* SA.
    pub exported: HashMap<Ipv4Prefix, AsnSym>,
}

impl SaCache {
    /// Prefixes in the table originated inside the vantage's customer
    /// cone.
    pub(crate) fn customer_prefixes(&self) -> usize {
        self.sa.len() + self.exported.len()
    }

    /// Where `prefix` is filed, and under which origin (`None`: not a
    /// customer route, or no route).
    pub(crate) fn filing(&self, prefix: Ipv4Prefix) -> Option<(SaVerdict, AsnSym)> {
        let sa = self.sa.get(&prefix).map(|&o| (SaVerdict::Sa, o));
        sa.or_else(|| {
            self.exported
                .get(&prefix)
                .map(|&o| (SaVerdict::Exported, o))
        })
    }

    /// Files a customer-originated `prefix` where `verdict` puts it.
    fn file(&mut self, prefix: Ipv4Prefix, origin: AsnSym, verdict: SaVerdict) {
        match verdict {
            SaVerdict::Sa => self.sa.insert(prefix, origin),
            SaVerdict::Exported => self.exported.insert(prefix, origin),
        };
    }

    /// Forgets whatever was filed for `prefix`.
    fn forget(&mut self, prefix: Ipv4Prefix) {
        self.sa.remove(&prefix);
        self.exported.remove(&prefix);
    }
}

/// The relationship oracle a snapshot was indexed under, at symbol
/// level: the relationships the `rel` and `summary` verbs read, plus
/// every customer cone that has been asked for — a [`Relations`]
/// oracle over [`AsnSym`]s. Every table's SA cache ([`sa_verdict`] with
/// [`Oracle::in_cone`]) and leak convictions ([`Oracle::leaker`]) are
/// judged on it, and `hijacks` asks its cones.
///
/// Relationships are one symbol-indexed adjacency: a row per AS, its
/// neighbours sorted by symbol, so [`Relations::rel`] is a binary search
/// with no hashing — it runs for every hop of every route a table
/// indexes — and [`Oracle::edges`] walks every edge in `(a, b)` order.
///
/// A snapshot holds its oracle behind an `Arc`, and everything built
/// under an unchanged oracle — the snapshots of a series, a replayed
/// delta chain, a live writer's epochs — holds the *same* `Arc`, so a
/// cone is walked once per oracle and nothing ever invalidates one: a
/// changed oracle is a new `Oracle` that has walked none.
#[derive(Debug)]
pub(crate) struct Oracle {
    /// Row `a` of the adjacency is `adj[rows[a]..rows[a + 1]]`. Rows run
    /// to the largest symbol with a neighbour, so two oracles with the
    /// same edges hold equal arrays.
    rows: Vec<usize>,
    /// `(b, b is a's …)`, row by row, each row sorted by `b` (both
    /// directions of an edge are kept).
    adj: Vec<(AsnSym, Relationship)>,
    /// Row `a`'s customer cone, once [`Oracle::in_cone`] has walked it
    /// (readers of a walked cone take no lock).
    cones: Vec<OnceLock<HashSet<AsnSym>>>,
}

impl Oracle {
    /// An oracle over `edges` — `(a, b, b is a's …)`, in any order; of
    /// two edges with the same `(a, b)` the later one holds — with no
    /// cone walked yet. The caller vouches for the [`Relations`]
    /// contract (the archive's decoder checks it on untrusted bytes).
    pub(crate) fn new(mut edges: Vec<(AsnSym, AsnSym, Relationship)>) -> Oracle {
        // Stable, so the later of two equal keys stays later.
        edges.sort_by_key(|&(a, b, _)| (a, b));
        let mut rows = Vec::new();
        let mut adj: Vec<(AsnSym, Relationship)> = Vec::with_capacity(edges.len());
        let mut last: Option<(AsnSym, AsnSym)> = None;
        for (a, b, rel) in edges {
            if last == Some((a, b)) {
                adj.last_mut().expect("an edge was pushed").1 = rel;
                continue;
            }
            last = Some((a, b));
            // Open `a`'s row, closing every row before it.
            while rows.len() <= sym_index(a) {
                rows.push(adj.len());
            }
            adj.push((b, rel));
        }
        rows.push(adj.len());
        let cones = (1..rows.len()).map(|_| OnceLock::new()).collect();
        Oracle { rows, adj, cones }
    }

    /// Indexes `graph` at symbol level, interning every AS it names.
    fn index(graph: &AsGraph, interner: &mut WorldInterner) -> Oracle {
        let mut edges = Vec::new();
        for a in graph.ases() {
            let sa = interner.asn(a);
            for (b, rel) in graph.neighbors(a) {
                edges.push((sa, interner.asn(b), rel));
            }
        }
        Oracle::new(edges)
    }

    /// `a`'s neighbours and what each is to it, sorted by symbol (empty
    /// for an AS the oracle never saw).
    fn row(&self, a: AsnSym) -> &[(AsnSym, Relationship)] {
        let i = sym_index(a);
        match (self.rows.get(i), self.rows.get(i + 1)) {
            (Some(&start), Some(&end)) => &self.adj[start..end],
            _ => &[],
        }
    }

    /// `a`'s neighbours by kind, `(providers, customers, peers,
    /// siblings)`: a tally of its row, for `summary`.
    pub(crate) fn neighbor_counts(&self, a: AsnSym) -> (usize, usize, usize, usize) {
        let mut counts = (0, 0, 0, 0);
        for &(_, rel) in self.row(a) {
            match rel {
                Relationship::Provider => counts.0 += 1,
                Relationship::Customer => counts.1 += 1,
                Relationship::Peer => counts.2 += 1,
                Relationship::Sibling => counts.3 += 1,
            }
        }
        counts
    }

    /// Every edge `(a, b, b is a's …)`, in `(a, b)` order.
    pub(crate) fn edges(&self) -> impl Iterator<Item = (AsnSym, AsnSym, Relationship)> + '_ {
        self.rows.windows(2).enumerate().flat_map(move |(a, span)| {
            let a = AsnSym(Symbol(a as u32));
            self.adj[span[0]..span[1]]
                .iter()
                .map(move |&(b, rel)| (a, b, rel))
        })
    }

    /// The AS that exported a provider- or peer-learned route up or
    /// across on a path stored in `owner`'s table: [`valley_walk`] in the
    /// direction the announcement travelled. A path that does not start
    /// at `owner` (a Looking-Glass table's starts at the announcing
    /// neighbour) gets `owner` as a virtual last hop, so the verdict
    /// covers the hop into the vantage too. `None`: valley-free, or the
    /// oracle lacks an adjacency on the path — an incomplete path is not
    /// convicted.
    pub(crate) fn leaker(&self, owner: AsnSym, path: &[AsnSym]) -> Option<AsnSym> {
        let into_owner = path.first().filter(|&&head| head != owner);
        let hops = (path.windows(2).rev().map(|w| (w[1], w[0])))
            .chain(into_owner.map(|&head| (head, owner)));
        match valley_walk(self, hops) {
            Valley::Leaker(leaker) => Some(leaker),
            Valley::Free | Valley::Incomplete => None,
        }
    }

    /// Is `asn` a direct or indirect customer of `root` — inside the
    /// customer cone [`walk_down`] collects from `root`: everything
    /// reachable over customer and sibling links, `root` itself excluded
    /// even when a sibling cycle leads back to it. The first question
    /// about a root walks its cone; an AS the oracle never saw has none
    /// and is in none.
    pub(crate) fn in_cone(&self, root: AsnSym, asn: AsnSym) -> bool {
        let Some(cone) = self.cones.get(sym_index(root)) else {
            return false;
        };
        let members = cone.get_or_init(|| {
            let mut members = HashSet::new();
            walk_down(self, root, |_, v| ControlFlow::Continue(members.insert(v)));
            members
        });
        members.contains(&asn)
    }
}

impl Relations for Oracle {
    type As = AsnSym;

    /// `b is a's …`, if the oracle knows the edge.
    fn rel(&self, a: AsnSym, b: AsnSym) -> Option<Relationship> {
        let row = self.row(a);
        let k = row.binary_search_by_key(&b, |&(n, _)| n).ok()?;
        Some(row[k].1)
    }

    fn neighbors(&self, a: AsnSym) -> impl Iterator<Item = (AsnSym, Relationship)> + '_ {
        self.row(a).iter().copied()
    }
}

/// Two oracles are equal when they say the same things; which cones
/// either has walked so far is not part of what it says.
impl PartialEq for Oracle {
    fn eq(&self, other: &Oracle) -> bool {
        self.rows == other.rows && self.adj == other.adj
    }
}

impl Eq for Oracle {}

/// A symbol as an index into per-symbol rows.
fn sym_index(s: AsnSym) -> usize {
    s.0 .0 as usize
}

/// One vantage's valley-free convictions: each prefix whose stored route
/// [`Oracle::leaker`] convicts, with its leaker, in prefix order — the
/// order `leaks` reports events in.
pub(crate) type Convictions = BTreeMap<Ipv4Prefix, AsnSym>;

/// Derives a whole table's per-route indexes as it is built — its SA
/// cache ([`sa_verdict`], the cone asked through [`Oracle::in_cone`])
/// and its leak convictions ([`Oracle::leaker`])
/// in one pass, in prefix order — remembering the last route's verdicts.
/// Neighbouring prefixes mostly share their stored route — an origin's
/// prefixes sit side by side, and on the Paper world 68 % of routes
/// repeat the path before them — so most routes cost one comparison
/// instead of a cone lookup and a walk. Indexing, the archive's
/// standalone full-segment decode and an oracle change in
/// [`Snapshot::patch_table`] all derive a table through one.
pub(crate) struct TableJudge<'a> {
    oracle: &'a Oracle,
    owner: AsnSym,
    /// The last route judged and its verdicts; an empty path is no
    /// stored route's, so it is a valid start.
    last_hop: AsnSym,
    last_path: Vec<AsnSym>,
    leaker: Option<AsnSym>,
    sa: Option<SaVerdict>,
    cache: SaCache,
    convicted: Convictions,
}

impl<'a> TableJudge<'a> {
    /// A judge of `owner`'s table under `oracle`.
    pub(crate) fn new(oracle: &'a Oracle, owner: AsnSym) -> TableJudge<'a> {
        TableJudge {
            oracle,
            owner,
            last_hop: owner,
            last_path: Vec::new(),
            leaker: None,
            sa: None,
            cache: SaCache::default(),
            convicted: Convictions::new(),
        }
    }

    /// Judges `route`, stored for `prefix`.
    pub(crate) fn judge(&mut self, prefix: Ipv4Prefix, route: &CompactRoute) {
        let origin = origin(route);
        if self.last_hop != route.next_hop || *self.last_path != *route.path {
            self.leaker = self.oracle.leaker(self.owner, &route.path);
            let in_cone = |o| self.oracle.in_cone(self.owner, o);
            self.sa = sa_verdict(self.oracle, self.owner, route.next_hop, origin, in_cone);
            self.last_hop = route.next_hop;
            self.last_path.clear();
            self.last_path.extend_from_slice(&route.path);
        }
        if let Some(leaker) = self.leaker {
            self.convicted.insert(prefix, leaker);
        }
        if let Some(verdict) = self.sa {
            self.cache.file(prefix, origin, verdict);
        }
    }

    /// The SA cache and the convictions of every route judged.
    pub(crate) fn finish(self) -> (SaCache, Convictions) {
        (self.cache, self.convicted)
    }
}

/// One ingested, fully-indexed snapshot.
#[derive(Debug)]
pub struct Snapshot {
    /// The snapshot's engine-assigned id.
    pub id: SnapshotId,
    /// Caller-supplied label (e.g. `day-07`).
    pub label: String,
    /// One record per vantage: its table and all that is judged of it.
    pub(crate) vantages: HashMap<AsnSym, Arc<VantageTable>>,
    /// The relationship oracle the snapshot was indexed under; the same
    /// `Arc` as the predecessor's while the oracle is unchanged.
    pub(crate) oracle: Arc<Oracle>,
    /// How many ASNs the interner held right after this snapshot was
    /// indexed. The interner is append-only across a series, so these
    /// are exactly the block boundaries of the archive's symbol segment.
    pub(crate) interned_watermark: usize,
    /// How the snapshot was built (see [`Provenance`]).
    pub(crate) provenance: Provenance,
}

impl Snapshot {
    /// Builds a snapshot from a simulated output plus a relationship
    /// oracle (typically the Gao-inferred graph, as in the paper): the
    /// collector peers' tables, then the Looking-Glass views. An LG AS
    /// that also peers with the collector keeps the richer view; its
    /// collector table is never built, only interned.
    pub(crate) fn from_output(
        id: SnapshotId,
        label: &str,
        out: &SimOutput,
        oracle: &AsGraph,
        interner: &mut WorldInterner,
    ) -> Snapshot {
        let mut snap = Snapshot::empty(id, label, Arc::new(Oracle::index(oracle, interner)));
        snap.index_collector(&out.collector, |peer| out.lgs.contains_key(&peer), interner);
        for (&asn, view) in &out.lgs {
            snap.index_lg(asn, view, oracle, interner);
        }
        snap.interned_watermark = interner.asn_count();
        snap
    }

    /// Builds a snapshot as a copy-on-write overlay over its
    /// predecessor. `prev` must be the snapshot built from the older end
    /// of `delta`, and `out` the newer output; the snapshot keeps `delta`
    /// as its [`Provenance`]. Unless the caller vouches for
    /// `same_oracle`, `oracle` is indexed and compared with the
    /// predecessor's: an equal one is dropped for the predecessor's `Arc`
    /// (and the cones it has walked), a changed one recomputes every SA
    /// cache, since cone membership may have moved.
    ///
    /// Sharing contract, per vantage of `out`:
    /// * unseen before (or its [`VantageKind`] changed) → indexed from
    ///   scratch;
    /// * untouched by `delta` → the predecessor's record `Arc`, no bytes
    ///   copied;
    /// * churned → the trie is an O(1) clone patched along the touched
    ///   prefixes' spines, and the SA cache is re-derived only for those
    ///   prefixes (Fig. 4's per-prefix test is local: origin-in-cone +
    ///   next-hop relationship).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_output_incremental(
        id: SnapshotId,
        label: &str,
        prev: &Snapshot,
        delta: OutputDelta,
        out: &SimOutput,
        oracle: &AsGraph,
        same_oracle: bool,
        interner: &mut WorldInterner,
    ) -> Snapshot {
        // A caller that vouches the oracle is the very graph the
        // predecessor was indexed under (e.g. one reference held across
        // a whole series) skips the re-index outright.
        let changed = (!same_oracle)
            .then(|| Oracle::index(oracle, interner))
            .filter(|fresh| *fresh != *prev.oracle);
        let oracle_changed = changed.is_some();
        let shared = changed.map_or_else(|| Arc::clone(&prev.oracle), Arc::new);
        let mut snap = Snapshot::empty(id, label, shared);

        // Collector peers (LG ASes are indexed from their richer view
        // below).
        for &peer in &out.collector.peers {
            if out.lgs.contains_key(&peer) {
                continue;
            }
            let fresh = delta.peers_added.contains(&peer)
                || prev_kind(prev, interner, peer) != Some(VantageKind::CollectorPeer);
            if fresh {
                let table = BestTable::from_collector(&out.collector, peer);
                snap.index_vantage(&table, VantageKind::CollectorPeer, interner);
            } else {
                let vd = delta.collector.get(&peer);
                snap.patch_vantage(prev, interner.asn(peer), vd, interner, oracle_changed);
            }
        }

        // Looking-Glass vantages.
        for (&asn, view) in &out.lgs {
            let fresh = delta.lgs_added.contains(&asn)
                || prev_kind(prev, interner, asn) != Some(VantageKind::LookingGlass);
            let vd = delta.lgs.get(&asn);
            if fresh {
                snap.index_lg(asn, view, oracle, interner);
            } else {
                let owner = interner.asn(asn);
                snap.patch_vantage(prev, owner, vd, interner, oracle_changed);
                // Import typicality consults the oracle; community
                // semantics only the view. Both are per-vantage and cheap
                // next to table indexing, so any view change (or oracle
                // change) recomputes them wholesale; otherwise the record
                // carried them over.
                if oracle_changed || vd.is_some_and(|d| d.analyses_dirty) {
                    snap.set_lg(owner, lg_analyses(view, oracle, interner));
                }
            }
        }
        snap.interned_watermark = interner.asn_count();
        snap.provenance = Provenance::Delta(Arc::new(delta));
        snap
    }

    /// Carries one surviving vantage over from `prev` with `vd`'s
    /// best-route events applied ([`Snapshot::patch_table`]). Also the
    /// archive's delta-segment replay path (`crate::archive`), which is
    /// how "load of a delta segment ≡ full re-index" inherits the
    /// incremental ingest's differential-testing contract.
    ///
    /// Generic over [`Interning`] because the cold tier replays archived
    /// deltas under a shared engine reference: it patches with a
    /// read-only [`crate::intern::FrozenInterner`], while live ingest
    /// keeps interning on miss.
    pub(crate) fn patch_vantage<I: Interning>(
        &mut self,
        prev: &Snapshot,
        owner: AsnSym,
        vd: Option<&VantageDelta>,
        interner: &mut I,
        oracle_changed: bool,
    ) {
        let edits = vd.map_or_else(RouteEdits::default, |vd| {
            RouteEdits::from_delta(vd, interner)
        });
        self.patch_table(prev, owner, edits, oracle_changed);
    }

    /// Carries `owner`'s record over from `prev` with `edits` applied,
    /// under `self.oracle` — the one per-prefix patch behind incremental
    /// ingest, delta replay and a keyframe decoded onto its predecessor.
    /// No edit under an unchanged oracle keeps the predecessor's record
    /// `Arc`. Otherwise the record is cloned and its trie patched along
    /// the touched spines, keeping its origin stamp unless an edit adds a
    /// prefix, removes one or stores a route of another origin. Under an
    /// unchanged oracle only the edited prefixes are judged again (Fig.
    /// 4's per-prefix test is local: origin-in-cone + next-hop
    /// relationship), and the predecessor's SA cache and convictions are
    /// kept as they are unless an entry moves — a prefix's filing is its
    /// verdict *and* its origin — each cloned at its first move; a
    /// changed oracle re-judges the whole table. The LG analyses come
    /// along unchanged.
    pub(crate) fn patch_table(
        &mut self,
        prev: &Snapshot,
        owner: AsnSym,
        edits: RouteEdits,
        oracle_changed: bool,
    ) {
        let prev_table = prev
            .vantages
            .get(&owner)
            .expect("patch_table callers verified the vantage survives");
        if !oracle_changed && edits.removed.is_empty() && edits.stored.is_empty() {
            self.vantages.insert(owner, Arc::clone(prev_table));
            return;
        }

        // --- the table: a patched COW overlay ---
        let mut table = VantageTable::clone(prev_table);
        let RouteEdits { removed, stored } = edits;
        let touched: Vec<Ipv4Prefix> = stored.iter().map(|&(p, _)| p).collect();
        // Whether a prefix came, went or changed origin.
        let mut moved = false;
        for &p in &removed {
            if table.trie.remove(p).is_some() {
                table.route_count -= 1;
                moved = true;
            }
        }
        for (p, route) in stored {
            let now = origin(&route);
            match table.trie.insert(p, route) {
                Some(was) => moved |= origin(&was) != now,
                None => {
                    table.route_count += 1;
                    moved = true;
                }
            }
        }
        if moved {
            table.origins = OriginStamp::fresh();
        }

        // --- the SA cache and the leak convictions ---
        if oracle_changed {
            // Cone membership and valleys may have moved: re-judge the
            // whole table (rare — only when the relationship oracle
            // itself changed mid-series).
            let mut judge = TableJudge::new(&self.oracle, owner);
            for (p, route) in table.trie.iter() {
                judge.judge(p, route);
            }
            let (sa, leaks) = judge.finish();
            (table.sa, table.leaks) = (Arc::new(sa), Arc::new(leaks));
        } else {
            // A verdict depends on the oracle and the stored route alone,
            // so only edited prefixes are judged, against the patched
            // table; `make_mut` clones a map shared with the predecessor
            // at its first move.
            for &p in &removed {
                if table.sa.filing(p).is_some() {
                    Arc::make_mut(&mut table.sa).forget(p);
                }
                if table.leaks.contains_key(&p) {
                    Arc::make_mut(&mut table.leaks).remove(&p);
                }
            }
            for p in touched {
                let route = table.trie.get(p).expect("stored prefixes are in the table");
                let o = origin(route);
                let in_cone = |o| self.oracle.in_cone(owner, o);
                let verdict = sa_verdict(&*self.oracle, owner, route.next_hop, o, in_cone);
                let leaker = self.oracle.leaker(owner, &route.path);
                if verdict.map(|verdict| (verdict, o)) != table.sa.filing(p) {
                    let cache = Arc::make_mut(&mut table.sa);
                    cache.forget(p);
                    if let Some(verdict) = verdict {
                        cache.file(p, o, verdict);
                    }
                }
                if leaker != table.leaks.get(&p).copied() {
                    let convicted = Arc::make_mut(&mut table.leaks);
                    match leaker {
                        Some(leaker) => convicted.insert(p, leaker),
                        None => convicted.remove(&p),
                    };
                }
            }
        }
        self.vantages.insert(owner, Arc::new(table));
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
        let mut snap = Snapshot::empty(id, label, Arc::new(Oracle::index(oracle, interner)));
        snap.index_collector(view, |_| false, interner);
        snap.interned_watermark = interner.asn_count();
        snap
    }

    /// Indexes every collector peer's table but those of the peers
    /// `indexed_apart` names, whose rows' ASNs are only interned — in the
    /// order indexing interns them, so symbol numbering does not depend
    /// on which peers are indexed apart.
    fn index_collector(
        &mut self,
        view: &CollectorView,
        indexed_apart: impl Fn(Asn) -> bool,
        interner: &mut WorldInterner,
    ) {
        for &peer in &view.peers {
            let table = BestTable::from_collector(view, peer);
            if indexed_apart(peer) {
                interned_routes(&table, interner).1.for_each(drop);
            } else {
                self.index_vantage(&table, VantageKind::CollectorPeer, interner);
            }
        }
    }

    /// A snapshot under `oracle` with no vantage indexed yet.
    pub(crate) fn empty(id: SnapshotId, label: &str, oracle: Arc<Oracle>) -> Snapshot {
        Snapshot {
            id,
            label: label.to_string(),
            vantages: HashMap::new(),
            oracle,
            interned_watermark: 0,
            provenance: Provenance::Full,
        }
    }

    fn index_vantage(
        &mut self,
        table: &BestTable,
        kind: VantageKind,
        interner: &mut WorldInterner,
    ) {
        let (owner, routes) = interned_routes(table, interner);
        let table = VantageTable::build(kind, &self.oracle, owner, routes);
        self.vantages.insert(owner, Arc::new(table));
    }

    /// Indexes `asn`'s Looking-Glass view: its table, then its analyses.
    fn index_lg(
        &mut self,
        asn: Asn,
        view: &LgView,
        oracle: &AsGraph,
        interner: &mut WorldInterner,
    ) {
        self.index_vantage(
            &BestTable::from_lg(view),
            VantageKind::LookingGlass,
            interner,
        );
        let lg = lg_analyses(view, oracle, interner);
        self.set_lg(interner.asn(asn), lg);
    }

    /// Gives Looking-Glass vantage `owner` the analyses `lg`, keeping its
    /// record's `Arc` when it holds them already.
    pub(crate) fn set_lg(&mut self, owner: AsnSym, lg: LgAnalyses) {
        let table = (self.vantages.get_mut(&owner)).expect("analyses name an indexed vantage");
        if table.lg.as_ref() != Some(&lg) {
            Arc::make_mut(table).lg = Some(lg);
        }
    }

    /// The vantages indexed in this snapshot, with their kinds.
    pub(crate) fn vantage_syms(&self) -> impl Iterator<Item = (AsnSym, VantageKind)> + '_ {
        self.vantages.iter().map(|(&s, t)| (s, t.kind))
    }

    /// Exact route lookup.
    pub(crate) fn route(&self, vantage: AsnSym, prefix: Ipv4Prefix) -> Option<&CompactRoute> {
        self.vantages.get(&vantage)?.trie.get(prefix)
    }

    /// Calls `f(prefix, old, new)` in prefix order for every route of
    /// `vantage` that was added, removed or changed from `base` to
    /// `self` — [`CowTrie::diff`] over the vantage's two tables, the step
    /// `diff` takes (the `hijacks` and `uptime` folds take
    /// [`Self::origin_changes`]). A table the two snapshots hold as one
    /// `Arc` is skipped outright; a vantage present on one side only
    /// diffs against an empty table. Sharing is only a shortcut: tables
    /// built apart are compared route by route.
    pub(crate) fn route_changes(
        &self,
        base: &Snapshot,
        vantage: AsnSym,
        f: impl FnMut(Ipv4Prefix, Option<&CompactRoute>, Option<&CompactRoute>),
    ) {
        let (old, new) = (base.vantages.get(&vantage), self.vantages.get(&vantage));
        if matches!((old, new), (Some(a), Some(b)) if Arc::ptr_eq(a, b)) {
            return;
        }
        let empty = CowTrie::new();
        new.map_or(&empty, |t| &t.trie)
            .diff(old.map_or(&empty, |t| &t.trie), f);
    }

    /// Calls `f(prefix, old, new)` in prefix order, with the origins
    /// stored there, for every prefix of `vantage` that appeared, went or
    /// changed origin from `base` to `self` — the step of the `hijacks`
    /// and `uptime` folds. Two tables holding one [`OriginStamp`] are
    /// skipped outright; any others are [`Self::route_changes`] filtered.
    pub(crate) fn origin_changes(
        &self,
        base: &Snapshot,
        vantage: AsnSym,
        mut f: impl FnMut(Ipv4Prefix, Option<AsnSym>, Option<AsnSym>),
    ) {
        let (old, new) = (base.vantages.get(&vantage), self.vantages.get(&vantage));
        if matches!((old, new), (Some(a), Some(b)) if a.origins == b.origins) {
            return;
        }
        self.route_changes(base, vantage, |p, old, new| {
            let (old, new) = (old.map(origin), new.map(origin));
            if old != new {
                f(p, old, new);
            }
        });
    }

    /// Calls `f(prefix, old, new)`, in no particular order, with the
    /// origins filed there, for every SA entry of `vantage` that appeared,
    /// went or changed origin from `base` to `self`. An [`SaCache`] the
    /// two snapshots hold as one `Arc` is skipped outright — patching a
    /// table keeps its cache's `Arc` unless a filing moved — and any
    /// others are compared entry by entry; a vantage absent from one side
    /// has no SA prefixes there.
    pub(crate) fn sa_changes(
        &self,
        base: &Snapshot,
        vantage: AsnSym,
        mut f: impl FnMut(Ipv4Prefix, Option<AsnSym>, Option<AsnSym>),
    ) {
        let (old, new) = (base.vantages.get(&vantage), self.vantages.get(&vantage));
        let (old, new) = (old.map(|t| &t.sa), new.map(|t| &t.sa));
        if matches!((old, new), (Some(a), Some(b)) if Arc::ptr_eq(a, b)) {
            return;
        }
        let empty = HashMap::new();
        let (old, new) = (old.map_or(&empty, |c| &c.sa), new.map_or(&empty, |c| &c.sa));
        for (&p, &o) in new.iter().filter(|&(p, o)| old.get(p) != Some(o)) {
            f(p, old.get(&p).copied(), Some(o));
        }
        for (&p, &o) in old.iter().filter(|(p, _)| !new.contains_key(p)) {
            f(p, Some(o), None);
        }
    }

    /// The vantages of `self` or `other`, each once, in no order.
    pub(crate) fn vantages_with<'a>(
        &'a self,
        other: &'a Snapshot,
    ) -> impl Iterator<Item = AsnSym> + 'a {
        let gone = (other.vantages.keys()).filter(|v| !self.vantages.contains_key(v));
        self.vantages.keys().chain(gone).copied()
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

/// What a point verb reads of one snapshot: the engine writes `route`,
/// `resolve`, `sa`, `rov` and `rel` once over it. Two readers implement
/// it — an in-memory [`Snapshot`], whose reads borrow and cannot fail,
/// and the cold tier's chain view over mapped segments
/// ([`crate::tier::ChainView`]), whose reads can meet corrupt bytes and
/// decode a route they find in a mapped trie.
pub(crate) trait PointRead {
    /// The snapshot read.
    fn id(&self) -> SnapshotId;
    /// Whether `v` is one of the snapshot's vantages.
    fn is_vantage(&self, v: AsnSym) -> Result<bool, QueryError>;
    /// `v`'s route for exactly `prefix` (`None` as well when `v` is no
    /// vantage).
    fn get(
        &self,
        v: AsnSym,
        prefix: Ipv4Prefix,
    ) -> Result<Option<Cow<'_, CompactRoute>>, QueryError>;
    /// `v`'s route for the longest stored prefix covering `prefix`,
    /// itself included, and that prefix.
    fn best_match(
        &self,
        v: AsnSym,
        prefix: Ipv4Prefix,
    ) -> Result<Option<(Ipv4Prefix, Cow<'_, CompactRoute>)>, QueryError>;
    /// Where Fig. 4 files `v`'s route for `prefix`, and the route's
    /// origin: [`sa_verdict`] on the stored route under
    /// [`Self::oracle`]. `None`: no route, or not a customer route.
    fn sa_filed(
        &self,
        v: AsnSym,
        prefix: Ipv4Prefix,
    ) -> Result<Option<(SaVerdict, AsnSym)>, QueryError>;
    /// The relationship oracle the snapshot was indexed under.
    fn oracle(&self) -> Result<&Oracle, QueryError>;
}

impl PointRead for Snapshot {
    fn id(&self) -> SnapshotId {
        self.id
    }

    fn is_vantage(&self, v: AsnSym) -> Result<bool, QueryError> {
        Ok(self.vantages.contains_key(&v))
    }

    fn get(
        &self,
        v: AsnSym,
        prefix: Ipv4Prefix,
    ) -> Result<Option<Cow<'_, CompactRoute>>, QueryError> {
        Ok(self.route(v, prefix).map(Cow::Borrowed))
    }

    fn best_match(
        &self,
        v: AsnSym,
        prefix: Ipv4Prefix,
    ) -> Result<Option<(Ipv4Prefix, Cow<'_, CompactRoute>)>, QueryError> {
        let table = self.vantages.get(&v);
        let hit = table.and_then(|t| t.trie.best_match(prefix));
        Ok(hit.map(|(p, route)| (p, Cow::Borrowed(route))))
    }

    /// Read off the vantage's SA cache.
    fn sa_filed(
        &self,
        v: AsnSym,
        prefix: Ipv4Prefix,
    ) -> Result<Option<(SaVerdict, AsnSym)>, QueryError> {
        Ok(self.vantages.get(&v).and_then(|t| t.sa.filing(prefix)))
    }

    fn oracle(&self) -> Result<&Oracle, QueryError> {
        Ok(&self.oracle)
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

/// `view`'s Looking-Glass analyses under `oracle`, interning the
/// neighbours it classes (the communities they are inferred from are
/// not kept).
fn lg_analyses(view: &LgView, oracle: &AsGraph, interner: &mut WorldInterner) -> LgAnalyses {
    let t = lg_typicality(view, oracle);
    let inf = infer_communities(view, &CommunityParams::default());
    let classes = (inf.neighbor_class.iter())
        .map(|(&n, &r)| (interner.asn(n), r))
        .collect();
    LgAnalyses {
        typicality: (t.prefixes_compared, t.typical),
        classes: Arc::new(classes),
    }
}

#[cfg(test)]
mod tests {
    use bgp_sim::churn::simulate_series;
    use bgp_sim::stream::StreamWriter;
    use bgp_sim::ChurnConfig;
    use bgp_types::Asn;
    use net_topology::{InternetConfig, InternetSize};
    use rpi_core::Experiment;

    use super::*;
    use crate::archive::SaveOptions;
    use crate::live::{drain_stream, LiveHandle, LiveOptions};
    use crate::QueryEngine;

    /// `in_cone` is `net_topology`'s one downhill walk; what is the
    /// oracle's own is which cone a symbol names: the root is never in
    /// its own cone, not even through a sibling cycle, and an AS the
    /// oracle never saw has no cone and is in none.
    #[test]
    fn in_cone_is_customer_cone_build_at_symbol_level() {
        // 1 and 2 are siblings (a cycle through either as root), 3 is
        // 2's customer and a stub, 4 is 1's peer, 5 is 1's provider.
        let mut g = AsGraph::new();
        (1..=5).for_each(|a| g.ensure_as(Asn(a)));
        g.add_edge(Asn(1), Asn(2), Relationship::Sibling).unwrap();
        g.add_edge(Asn(2), Asn(3), Relationship::Customer).unwrap();
        g.add_edge(Asn(1), Asn(4), Relationship::Peer).unwrap();
        g.add_edge(Asn(1), Asn(5), Relationship::Provider).unwrap();
        let mut interner = WorldInterner::new();
        let oracle = Oracle::index(&g, &mut interner);
        let unseen = interner.asn(Asn(99));
        let [s1, s2, s3, s4, s5] = [1, 2, 3, 4, 5].map(|a| interner.asn(Asn(a)));
        assert!(
            !oracle.in_cone(s1, s1),
            "the root, through the sibling cycle"
        );
        assert!(oracle.in_cone(s1, s2) && oracle.in_cone(s1, s3));
        assert!(!oracle.in_cone(s1, s4) && !oracle.in_cone(s1, s5));
        assert!(oracle.in_cone(s2, s1) && !oracle.in_cone(s2, s2));
        assert!(oracle.in_cone(s5, s1) && oracle.in_cone(s5, s3));
        for x in [s1, s2, s3, s4, s5, unseen] {
            assert!(!oracle.in_cone(s3, x), "a stub's cone is empty");
            assert!(!oracle.in_cone(unseen, x), "an unseen root has no cone");
            assert!(!oracle.in_cone(x, unseen), "an unseen AS is in no cone");
        }
    }

    /// The oracle is a [`Relations`] implementation of the graph it
    /// indexes: after interning, `rel` answers what the graph answers
    /// pair by pair and `neighbors` is the graph's row, in symbol order;
    /// its edges come out in `(a, b)` order; of two edges with one key,
    /// the later holds. What `leaker` adds to the shared valley walk is
    /// the virtual last hop: a stored path that starts after the owner
    /// (a Looking-Glass table's) is convicted exactly when the same
    /// path with the owner in front (a collector peer's) is — over
    /// random walks with a stranger now and then, so incomplete paths
    /// are covered too.
    #[test]
    fn rel_and_leaker_are_the_graphs_at_symbol_level() {
        use rand::prelude::*;
        use rand::rngs::StdRng;

        for seed in [1, 2, 3] {
            let g = InternetConfig {
                seed,
                ..InternetConfig::of_size(InternetSize::Tiny)
            }
            .build();
            let mut interner = WorldInterner::new();
            let oracle = Oracle::index(&g, &mut interner);
            let ases: Vec<Asn> = g.ases().collect();
            for &a in &ases {
                let sa = interner.asn(a);
                for &b in &ases {
                    let sb = interner.asn(b);
                    assert_eq!(oracle.rel(sa, sb), g.rel(a, b), "{a} {b}");
                }
                let mut row: Vec<_> = (g.neighbors(a))
                    .map(|(b, rel)| (interner.asn(b), rel))
                    .collect();
                row.sort_by_key(|&(b, _)| b);
                assert_eq!(oracle.neighbors(sa).collect::<Vec<_>>(), row, "{a}");
            }
            let edges: Vec<_> = oracle.edges().collect();
            assert!(edges
                .windows(2)
                .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
            assert_eq!(edges.len(), 2 * g.edge_count());

            let mut rng = StdRng::seed_from_u64(seed);
            let mut convicted = 0;
            for _ in 0..4000 {
                let mut walk = vec![*ases.choose(&mut rng).unwrap()];
                for _ in 0..rng.gen_range(1..7) {
                    let last = *walk.last().unwrap();
                    let next: Vec<Asn> = g.neighbors(last).map(|(b, _)| b).collect();
                    match next.choose(&mut rng) {
                        Some(&b) if rng.gen_bool(0.97) => walk.push(b),
                        _ => walk.push(Asn(64_000 + rng.gen_range(0..3u32))),
                    }
                }
                let syms: Vec<AsnSym> = walk.iter().map(|&a| interner.asn(a)).collect();
                // The owner heads the stored path: no virtual hop.
                let headed = oracle.leaker(syms[0], &syms);
                convicted += headed.is_some() as usize;
                // The owner in front of a path that starts after it.
                assert_eq!(oracle.leaker(syms[0], &syms[1..]), headed, "{walk:?}");
            }
            assert!(
                convicted > 100 && 4000 - convicted > 100,
                "{convicted} of 4000 convicted"
            );
        }

        // Duplicate keys: the later edge holds.
        let s = |i: u32| AsnSym(Symbol(i));
        let dup = Oracle::new(vec![
            (s(3), s(1), Relationship::Peer),
            (s(0), s(2), Relationship::Customer),
            (s(3), s(1), Relationship::Provider),
        ]);
        assert_eq!(dup.rel(s(3), s(1)), Some(Relationship::Provider));
        assert_eq!((dup.rel(s(1), s(3)), dup.rel(s(9), s(0))), (None, None));
        assert_eq!(
            dup.edges().collect::<Vec<_>>(),
            [
                (s(0), s(2), Relationship::Customer),
                (s(3), s(1), Relationship::Provider)
            ]
        );
    }

    fn walked(oracle: &Oracle, root: AsnSym) -> bool {
        oracle.cones[sym_index(root)].get().is_some()
    }

    /// `(i, i + 1)` for every consecutive pair holding the same
    /// `Arc<Oracle>`.
    fn shared_pairs(snaps: &[Arc<Snapshot>]) -> Vec<(usize, usize)> {
        (1..snaps.len())
            .filter(|&i| Arc::ptr_eq(&snaps[i - 1].oracle, &snaps[i].oracle))
            .map(|i| (i - 1, i))
            .collect()
    }

    /// Sharing is by pointer: every way a series comes to exist — ingest,
    /// archive load, tier hydration, live publication — hands consecutive
    /// snapshots under an unchanged oracle the *same* `Arc<Oracle>`, so a
    /// cone walked through one is walked for all. A keyframe segment is
    /// self-contained, yet an eager load decodes it onto its predecessor
    /// and keeps that `Arc`; only a hydration that starts at a keyframe
    /// (its predecessor not hot) starts a fresh one. A relationship flip
    /// yields exactly one new `Arc` that has walked nothing of the old.
    #[test]
    fn an_unchanged_oracle_is_one_arc_however_the_series_was_built() {
        let exp = Experiment::standard(InternetSize::Tiny, 7);
        let cfg = ChurnConfig {
            steps: 6,
            flip_prob: 0.8,
            link_failure_prob: 0.4,
            ..ChurnConfig::daily(99)
        };
        let series = simulate_series(&exp.graph, &exp.truth, &exp.spec, &cfg);
        let all: Vec<(usize, usize)> = (0..5).map(|i| (i, i + 1)).collect();
        let dir = std::env::temp_dir().join(format!("rpi-oracle-arc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Incremental ingest; a cone walked through snapshot 0 is walked
        // in snapshot 5.
        let mut engine = QueryEngine::default();
        engine.ingest_series_incremental(&series, &exp.inferred_graph);
        assert_eq!(shared_pairs(&engine.snapshots), all);
        let (first, last) = (&engine.snapshots[0].oracle, &engine.snapshots[5].oracle);
        // An AS with customers that is never a vantage: the SA patcher
        // has no reason to have walked its cone.
        let never_vantage =
            |r: &AsnSym| engine.snapshots.iter().all(|s| !s.vantages.contains_key(r));
        let customers = first
            .edges()
            .filter(|&(_, _, rel)| rel == Relationship::Customer);
        let root = customers.map(|(a, _, _)| a).filter(never_vantage).min();
        let root = root.expect("a non-vantage AS with customers");
        assert!(!walked(first, root));
        first.in_cone(root, root);
        assert!(walked(last, root));

        // Delta replay shares, and so does the keyframe at 3, decoded
        // onto snapshot 2.
        let keyframed = SaveOptions {
            keyframe_every: Some(3),
        };
        engine
            .save_archive_with(&dir.join("kf"), true, keyframed)
            .unwrap();
        let loaded = QueryEngine::load_archive(&dir.join("kf")).unwrap();
        assert_eq!(shared_pairs(&loaded.snapshots), all);
        // The same chains, hydrated link by link off mapped segments:
        // snapshot 3 is hydrated before 2 is hot, so it starts afresh.
        let tiered = QueryEngine::load_archive_tiered(&dir.join("kf"), 6).unwrap();
        tiered.snap_arc(SnapshotId(5)).unwrap();
        tiered.snap_arc(SnapshotId(2)).unwrap();
        let hydrated: Vec<_> = (0..6)
            .map(|i| tiered.snap_arc(SnapshotId(i)).unwrap())
            .collect();
        assert_eq!(shared_pairs(&hydrated), [(0, 1), (1, 2), (3, 4), (4, 5)]);

        // From-scratch snapshots hold equal oracles, not one; their full
        // segments elide the maps (`FLAG_REL_SHARED`) and load as one.
        let mut full = QueryEngine::default();
        full.ingest_series(&series, &exp.inferred_graph);
        assert_eq!(shared_pairs(&full.snapshots), []);
        assert!(full.snapshots[0].oracle == full.snapshots[5].oracle);
        full.save_archive(&dir.join("full"), true).unwrap();
        let loaded = QueryEngine::load_archive(&dir.join("full")).unwrap();
        assert_eq!(shared_pairs(&loaded.snapshots), all);

        // A live writer's epochs, with the oracle flipped at frame 3: one
        // new `Arc`, shared from there on, the old one's walks not in it.
        let mut flipped = exp.inferred_graph.clone();
        let (a, b) = (engine.interner.resolve_asn(root), Asn(64_999));
        flipped.ensure_as(b);
        flipped.add_edge(a, b, Relationship::Customer).unwrap();
        let (mut w, mut stream) = StreamWriter::open(&exp.inferred_graph);
        for (i, (label, out)) in series.labels.iter().zip(&series.snapshots).enumerate() {
            stream.extend(w.frame(label, out, (i == 3).then_some(&flipped)));
        }
        stream.extend(w.end());
        std::fs::write(dir.join("live.stream"), stream).unwrap();
        let handle = LiveHandle::new(QueryEngine::default());
        let opts = LiveOptions {
            window: 6,
            keyframe_every: 6,
        };
        let spill = dir.join("spill");
        drain_stream(
            &dir.join("live.stream"),
            handle.clone(),
            &spill,
            opts,
            |_, _| {},
        )
        .unwrap();
        let epoch = handle.current();
        let live: Vec<_> = (0..6)
            .map(|i| epoch.snap_arc(SnapshotId(i)).unwrap())
            .collect();
        assert_eq!(shared_pairs(&live), [(0, 1), (1, 2), (3, 4), (4, 5)]);
        let (before, after) = (&live[2].oracle, &live[3].oracle);
        let root = epoch.interner.lookup_asn(a).unwrap();
        before.in_cone(root, root);
        assert!(walked(before, root) && !walked(after, root));
        assert!(after.in_cone(root, epoch.interner.lookup_asn(b).unwrap()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One world for the SA reference: a short churn series of `size`,
    /// indexed under an oracle in which, from step 2 on, a Looking-Glass
    /// vantage's first customer is only its peer — so cones and Fig. 4
    /// verdicts move with no route moving.
    fn flipped_world(size: InternetSize, seed: u64) -> (Vec<String>, Vec<SimOutput>, Vec<AsGraph>) {
        let exp = Experiment::standard(size, seed);
        let cfg = ChurnConfig {
            steps: 4,
            flip_prob: 0.3,
            link_failure_prob: 0.2,
            ..ChurnConfig::daily(seed)
        };
        let series = simulate_series(&exp.graph, &exp.truth, &exp.spec, &cfg);
        let g = exp.inferred_graph;
        let (lg, customer) = (series.snapshots[0].lgs.keys())
            .find_map(|&lg| Some((lg, g.customers_of(lg).next()?)))
            .expect("a Looking-Glass vantage with a customer");
        let mut flipped = g.clone();
        flipped.remove_edge(lg, customer);
        flipped
            .add_edge(lg, customer, Relationship::Peer)
            .expect("the edge was just removed");
        let oracles = (0..series.snapshots.len())
            .map(|i| if i < 2 { g.clone() } else { flipped.clone() })
            .collect();
        (series.labels, series.snapshots, oracles)
    }

    /// Holds every SA cache of the series, on every way an engine comes
    /// to hold it, to `sa_prefixes` on the graph it was indexed under, and
    /// every oracle's neighbour counts to the graph's tallies. Returns
    /// the SA-cache entries compared per kind, `(Looking-Glass,
    /// collector peer)`.
    fn assert_sa_is_the_reference(
        tag: &str,
        labels: &[String],
        outputs: &[SimOutput],
        oracles: &[AsGraph],
    ) -> (usize, usize) {
        use rpi_core::export_policy::sa_prefixes;

        let mut scratch = QueryEngine::default();
        let mut incremental = QueryEngine::default();
        for (i, (label, out)) in labels.iter().zip(outputs).enumerate() {
            scratch.ingest_output(out, &oracles[i], label);
            match i.checked_sub(1) {
                None => incremental.ingest_output(out, &oracles[i], label),
                Some(p) => {
                    incremental.ingest_output_incremental(&outputs[p], out, &oracles[i], label)
                }
            };
        }
        let dir =
            std::env::temp_dir().join(format!("rpi-sa-reference-{tag}-{}", std::process::id()));
        let keyframed = SaveOptions {
            keyframe_every: Some(3),
        };
        incremental
            .save_archive_with(&dir, true, keyframed)
            .unwrap();
        let loaded = QueryEngine::load_archive(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        let mut compared = (0, 0);
        let engines = [
            ("from scratch", &scratch),
            ("incremental", &incremental),
            ("archive", &loaded),
        ];
        for (name, engine) in engines {
            let asn = |a: Asn| engine.interner.lookup_asn(a).expect("interned");
            for (i, (out, g)) in outputs.iter().zip(oracles).enumerate() {
                let at = format!("{tag}, {name} @{i}");
                let snap = &engine.snapshots[i];
                for a in g.ases() {
                    let mut tally = (0, 0, 0, 0);
                    for (_, rel) in g.neighbors(a) {
                        match rel {
                            Relationship::Provider => tally.0 += 1,
                            Relationship::Customer => tally.1 += 1,
                            Relationship::Peer => tally.2 += 1,
                            Relationship::Sibling => tally.3 += 1,
                        }
                    }
                    assert_eq!(snap.oracle.neighbor_counts(asn(a)), tally, "{at}: {a}");
                }
                // An AS with a Looking-Glass view is indexed from it.
                let peers = (out.collector.peers.iter())
                    .filter(|p| !out.lgs.contains_key(p))
                    .map(|&p| (BestTable::from_collector(&out.collector, p), false));
                let lgs = out.lgs.values().map(|v| (BestTable::from_lg(v), true));
                let tables: Vec<_> = peers.chain(lgs).collect();
                assert_eq!(snap.vantages.len(), tables.len(), "{at}: vantages");
                for (table, lg) in tables {
                    let report = sa_prefixes(&table, g);
                    let sa: HashMap<Ipv4Prefix, AsnSym> = (report.sa_origin.iter())
                        .map(|(&p, &o)| (p, asn(o)))
                        .collect();
                    let exported: HashMap<Ipv4Prefix, AsnSym> = (table.rows.iter())
                        .filter(|(p, row)| {
                            report.per_origin.contains_key(&row.origin()) && !report.sa.contains(p)
                        })
                        .map(|(&p, row)| (p, asn(row.origin())))
                        .collect();
                    let cache = &snap.vantages[&asn(table.asn)].sa;
                    let owner = table.asn;
                    assert_eq!(cache.sa, sa, "{at}: {owner}'s SA map");
                    assert_eq!(cache.exported, exported, "{at}: {owner}'s exported map");
                    assert_eq!(
                        cache.customer_prefixes(),
                        report.customer_prefixes,
                        "{at}: {owner}'s customer prefixes"
                    );
                    let n = report.customer_prefixes;
                    if lg {
                        compared.0 += n;
                    } else {
                        compared.1 += n;
                    }
                }
            }
        }
        compared
    }

    /// Every derived SA cache is `rpi_core::sa_prefixes` on the graph —
    /// the whole-table Fig. 4 the paper tables run — as symbol maps, for
    /// both kinds of vantage, whether the table was indexed from scratch,
    /// patched from a delta, re-judged at an oracle flip or decoded from
    /// a full segment. `RPI_DIFF_SEEDS=seed1,seed2,…` adds Tiny worlds
    /// without a rebuild.
    #[test]
    fn derived_sa_caches_are_sa_prefixes_on_the_graph() {
        let extra = std::env::var("RPI_DIFF_SEEDS").unwrap_or_default();
        let extra = (extra.split(',').filter(|s| !s.trim().is_empty())).map(|s| {
            let seed = s
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("bad seed '{s}' in RPI_DIFF_SEEDS"));
            (InternetSize::Tiny, seed)
        });
        let sizes = [InternetSize::Tiny, InternetSize::Small];
        let worlds = sizes
            .into_iter()
            .flat_map(|size| [1, 2, 3].map(|seed| (size, seed)));
        let mut compared = (0, 0);
        for (size, seed) in worlds.chain(extra) {
            let (labels, outputs, oracles) = flipped_world(size, seed);
            let tag = format!("{size:?}-{seed}");
            let (lg, peer) = assert_sa_is_the_reference(&tag, &labels, &outputs, &oracles);
            compared = (compared.0 + lg, compared.1 + peer);
        }
        assert!(compared.0 > 0 && compared.1 > 0, "{compared:?}");
    }

    /// What [`Snapshot::patch_table`] keeps of its predecessor, on every
    /// path through it: incremental ingest, delta replay, and a keyframe
    /// decoded onto its predecessor. At one collector peer `v` of a Tiny
    /// world, `207.0.0.0/16` is learned from a non-customer `n` and
    /// originated by `v`'s customer `a`; each step makes one edit there:
    /// a path-only change keeps the stamp and, with no filing moved, the
    /// SA cache; an appearance, a withdrawal and a re-origination (by
    /// `v`'s customer `b`, the verdict staying SA) each take a fresh
    /// stamp; the re-origination and a verdict flip (the route now learned
    /// from `b` itself: exported, the origin unchanged) each take a new
    /// SA cache. Each step is checked to do what it says. Tiny seed 9,
    /// then each seed `RPI_DIFF_SEEDS` names.
    #[test]
    fn a_patch_keeps_the_witnesses_it_did_not_move() {
        use crate::fold_scan::{announce, env_seeds, one_day_of, pfx};

        for seed in std::iter::once(9).chain(env_seeds()) {
            let (g, peers, day) = one_day_of(seed);
            let (v, a, b, n) = (peers.iter())
                .find_map(|&v| {
                    let mut customers = g.customers_of(v);
                    let (a, b) = (customers.next()?, customers.next()?);
                    let n = g.neighbors(v).find(|&(n, _)| !g.is_down(v, n))?.0;
                    Some((v, a, b, n))
                })
                .unwrap_or_else(|| panic!("seed {seed}: a peer with two customers"));
            let (p, q) = (pfx("207.0.0.0/16"), pfx("207.1.0.0/16"));
            let mut days = vec![day];
            let mut edit = |f: &dyn Fn(&mut SimOutput)| {
                let mut out = days.last().expect("a first day").clone();
                f(&mut out);
                days.push(out);
            };
            edit(&|out| announce(out, p, &[v], &[n, a]));
            edit(&|out| announce(out, p, &[v], &[n, a, a]));
            edit(&|out| announce(out, q, &[v], &[n, a]));
            edit(&|out| {
                out.collector.rows.remove(&q);
            });
            edit(&|out| announce(out, p, &[v], &[n, b, b]));
            edit(&|out| announce(out, p, &[v], &[b]));
            // Each step's edit, and whether it keeps the stamp and the
            // SA cache.
            let steps = [
                ("a path-only edit", true, true),
                ("an appearance", false, false),
                ("a withdrawal", false, false),
                ("a re-origination", false, false),
                ("a verdict flip", true, false),
            ];

            let [incremental, replayed, keyframed] = witness_engines(&days, &g, seed);
            for (name, engine, delta) in [
                ("incremental", incremental, true),
                ("delta replay", replayed, true),
                ("keyframes onto predecessors", keyframed, false),
            ] {
                let sym = |x: Asn| engine.interner.lookup_asn(x).expect("interned");
                let (vs, a, b) = (sym(v), sym(a), sym(b));
                // Day 0 is the world as simulated and day 1 adds `p`; the
                // steps start at 2.
                for (i, &(what, keeps_stamp, keeps_sa)) in (2..).zip(&steps) {
                    let at = format!("seed {seed}, {name} @{i}: {what}");
                    let (old, new) = (&engine.snapshots[i - 1], &engine.snapshots[i]);
                    assert_eq!(
                        matches!(new.provenance, Provenance::Delta(_)),
                        delta,
                        "{at}: provenance"
                    );
                    let (t0, t1) = (&old.vantages[&vs], &new.vantages[&vs]);
                    assert!(!Arc::ptr_eq(t0, t1), "{at}: the table was edited");
                    let filing = |s: &Snapshot| s.vantages[&vs].sa.filing(p);
                    let origin_of = |s: &Snapshot| s.route(vs, p).map(origin);
                    let present = |s: &Snapshot| s.route(vs, q).is_some();
                    let (sa, exported) = (SaVerdict::Sa, SaVerdict::Exported);
                    let happened = match what {
                        "a path-only edit" => {
                            old.route(vs, p) != new.route(vs, p)
                                && origin_of(old) == origin_of(new)
                                && filing(old) == Some((sa, a))
                                && filing(new) == Some((sa, a))
                        }
                        "an appearance" => !present(old) && present(new),
                        "a withdrawal" => present(old) && !present(new),
                        "a re-origination" => {
                            filing(old) == Some((sa, a)) && filing(new) == Some((sa, b))
                        }
                        _ => filing(old) == Some((sa, b)) && filing(new) == Some((exported, b)),
                    };
                    assert!(happened, "{at}: the step does not do what it says");
                    assert_eq!(t0.origins == t1.origins, keeps_stamp, "{at}: stamp");
                    let kept_sa = Arc::ptr_eq(&t0.sa, &t1.sa);
                    assert_eq!(kept_sa, keeps_sa, "{at}: SA cache");
                }
            }
        }
    }

    /// A Looking-Glass vantage whose view and oracle did not change
    /// carries its import typicality and community classes over from its
    /// predecessor, and one whose view changed has them recomputed, on
    /// incremental ingest, delta replay and keyframes decoded onto their
    /// predecessors alike: over a calm Tiny series in which one view
    /// loses its communities for a day, every LG vantage's analyses and
    /// `summary` equal a from-scratch index's at every later id, and
    /// every LG vantage whose view the step left alone (not
    /// `analyses_dirty`) holds its predecessor's class-map `Arc`. Tiny
    /// seed 7, then each seed `RPI_DIFF_SEEDS` names.
    #[test]
    fn an_unchanged_lg_view_carries_its_analyses() {
        // The analyses of `lg`'s record at `id`, at AS level.
        let analyses = |e: &QueryEngine, id: usize, lg: Asn| {
            let s = e.interner.lookup_asn(lg)?;
            let lg = e.snapshots[id].vantages.get(&s)?.lg.as_ref()?;
            let classes = lg
                .classes
                .iter()
                .map(|(&n, &r)| (e.interner.resolve_asn(n), r));
            Some((lg.typicality, classes.collect::<BTreeMap<_, _>>()))
        };
        let classes = |snap: &Snapshot, s| {
            let lg = snap.vantages.get(&s)?.lg.as_ref();
            lg.map(|lg| Arc::clone(&lg.classes))
        };
        for seed in std::iter::once(7).chain(crate::fold_scan::env_seeds()) {
            let exp = Experiment::standard(InternetSize::Tiny, seed);
            let cfg = ChurnConfig {
                steps: 4,
                flip_prob: 0.0,
                link_failure_prob: 0.0,
                ..ChurnConfig::daily(seed)
            };
            let mut days = simulate_series(&exp.graph, &exp.truth, &exp.spec, &cfg).snapshots;
            let tagged = |v: &LgView| v.rows.values().flatten().any(|r| !r.communities.is_empty());
            let view = days[2].lgs.values_mut().find(|v| tagged(v));
            let view = view.unwrap_or_else(|| panic!("seed {seed}: a view with communities"));
            view.rows
                .values_mut()
                .flatten()
                .for_each(|r| r.communities.clear());
            let mut scratch = QueryEngine::default();
            for (i, day) in days.iter().enumerate() {
                scratch.ingest_output(day, &exp.graph, &format!("d{i}"));
            }
            let [incremental, replayed, keyframed] = witness_engines(&days, &exp.graph, seed);
            for (name, engine) in [
                ("incremental", &incremental),
                ("delta replay", &replayed),
                ("keyframes onto predecessors", &keyframed),
            ] {
                let (mut carried, mut recomputed) = (0, 0);
                for (id, w) in (1..).zip(engine.snapshots.windows(2)) {
                    let delta = bgp_sim::output_delta(&days[id - 1], &days[id]);
                    for &lg in days[id].lgs.keys() {
                        let at = format!("seed {seed}, {name} @{id}: {lg}");
                        let req = crate::Query::PolicySummary { asn: lg }
                            .at(crate::Scope::Id(SnapshotId(id as u32)));
                        let answer = |e: &QueryEngine| {
                            crate::render_response(&req, &e.execute(&req).unwrap())
                        };
                        assert_eq!(answer(engine), answer(&scratch), "{at}");
                        let now = analyses(engine, id, lg);
                        assert_eq!(now, analyses(&scratch, id, lg), "{at}: analyses");
                        let dirty = delta.lgs.get(&lg).is_some_and(|d| d.analyses_dirty);
                        recomputed += (dirty && now != analyses(engine, id - 1, lg)) as usize;
                        if dirty || !days[id - 1].lgs.contains_key(&lg) {
                            continue;
                        }
                        let s = engine.interner.lookup_asn(lg).expect("interned");
                        let (old, new) = (classes(&w[0], s), classes(&w[1], s));
                        let (old, new) = (old.expect(&at), new.expect(&at));
                        assert!(Arc::ptr_eq(&old, &new), "{at}: the classes were carried");
                        carried += !new.is_empty() as usize;
                    }
                }
                assert!(
                    carried > 0 && recomputed > 0,
                    "seed {seed}, {name}: {carried} carried, {recomputed} recomputed"
                );
            }
        }
    }

    /// Every constructor finishes its snapshot: right after each way of
    /// ingesting one — from scratch, incrementally, from an MRT image —
    /// its interner watermark is the interner's ASN count, and exactly the
    /// incremental one keeps its delta as its provenance.
    #[test]
    fn every_constructor_stamps_its_snapshot() {
        let exp = Experiment::standard(InternetSize::Tiny, 7);
        let cfg = ChurnConfig {
            steps: 2,
            ..ChurnConfig::daily(7)
        };
        let days = simulate_series(&exp.graph, &exp.truth, &exp.spec, &cfg).snapshots;
        let stamped = |e: &QueryEngine, delta: bool| {
            let snap = e.snapshots.last().expect("a snapshot");
            assert_eq!(
                snap.interned_watermark,
                e.interner.asn_count(),
                "{}",
                snap.label
            );
            let kept = matches!(snap.provenance, Provenance::Delta(_));
            assert_eq!(kept, delta, "{}: provenance", snap.label);
        };
        let mut engine = QueryEngine::default();
        engine.ingest_output(&days[0], &exp.inferred_graph, "d0");
        stamped(&engine, false);
        engine.ingest_output_incremental(&days[0], &days[1], &exp.inferred_graph, "d1");
        stamped(&engine, true);
        let mrt = bgp_sim::export::collector_to_mrt(&days[1].collector, 1).encode(1);
        engine
            .ingest_mrt_bytes(&mrt, "mrt")
            .expect("a valid MRT image");
        stamped(&engine, false);
    }

    /// `days` ingested incrementally, then saved and loaded back as
    /// delta segments, and as keyframes decoded onto their predecessors.
    fn witness_engines(days: &[SimOutput], g: &AsGraph, seed: u64) -> [QueryEngine; 3] {
        let mut incremental = QueryEngine::default();
        incremental.ingest_output(&days[0], g, "d0");
        for i in 1..days.len() {
            incremental.ingest_output_incremental(&days[i - 1], &days[i], g, &format!("d{i}"));
        }
        let dir = std::env::temp_dir().join(format!("rpi-witness-{seed}-{}", std::process::id()));
        let mut load = |keyframe_every| {
            let _ = std::fs::remove_dir_all(&dir);
            let options = SaveOptions { keyframe_every };
            incremental.save_archive_with(&dir, true, options).unwrap();
            QueryEngine::load_archive(&dir).unwrap()
        };
        let (replayed, keyframed) = (load(None), load(Some(1)));
        let _ = std::fs::remove_dir_all(&dir);
        [incremental, replayed, keyframed]
    }

    /// A table built from nothing takes a fresh stamp, even where its
    /// vantage held one: an AS that peers with the collector and has a
    /// Looking-Glass view loses the view for one snapshot and gets it
    /// back, so its table is built afresh twice, under the other kind —
    /// on incremental ingest, delta replay and keyframes decoded onto
    /// their predecessors alike.
    #[test]
    fn a_kind_switch_takes_a_fresh_stamp() {
        let exp = Experiment::standard(InternetSize::Tiny, 7);
        let cfg = ChurnConfig {
            steps: 3,
            ..ChurnConfig::daily(7)
        };
        let mut days = simulate_series(&exp.graph, &exp.truth, &exp.spec, &cfg).snapshots;
        let both = (days[0].lgs.keys())
            .copied()
            .find(|a| days[0].collector.peers.contains(a))
            .expect("a Looking-Glass vantage that peers with the collector");
        days[1].lgs.remove(&both);
        for engine in witness_engines(&days, &exp.inferred_graph, 0x5717C4) {
            let v = engine.interner.lookup_asn(both).expect("interned");
            for i in 1..3 {
                let (old, new) = (&engine.snapshots[i - 1], &engine.snapshots[i]);
                let (t0, t1) = (&old.vantages[&v], &new.vantages[&v]);
                assert_ne!(t0.kind, t1.kind, "@{i}: the kind switches");
                assert_ne!(t0.origins, t1.origins, "@{i}: a switched table's stamp");
            }
        }
    }

    /// An AS that peers with the collector and has a Looking-Glass view
    /// (Tiny seed 7 has four) is indexed from its view alone: its
    /// collector table's ASNs are interned, the table never built.
    /// Against two snapshots built the old way — every collector table
    /// indexed, then replaced by the view's — the interner holds the same
    /// ASNs in the same order, each snapshot the same watermark, the
    /// archive the same bytes, and every verb answers the same.
    #[test]
    fn an_lg_peer_is_indexed_once_and_interned_as_before() {
        use crate::proto::{render_response, Query, Scope};

        let exp = Experiment::standard(InternetSize::Tiny, 7);
        let cfg = ChurnConfig {
            steps: 2,
            ..ChurnConfig::daily(7)
        };
        let days = simulate_series(&exp.graph, &exp.truth, &exp.spec, &cfg).snapshots;
        let g = &exp.inferred_graph;
        let both: Vec<Asn> = (days[0].collector.peers.iter())
            .copied()
            .filter(|a| days[0].lgs.contains_key(a))
            .collect();
        assert!(!both.is_empty(), "an LG AS that peers with the collector");

        let mut new = QueryEngine::default();
        let mut old = QueryEngine::default();
        for (i, out) in days.iter().enumerate() {
            let label = format!("d{i}");
            new.ingest_output(out, g, &label);
            let id = SnapshotId(i as u32);
            let interner = &mut old.interner;
            let mut snap = Snapshot::from_collector(id, &label, &out.collector, g, interner);
            for (&asn, view) in &out.lgs {
                snap.index_lg(asn, view, g, interner);
            }
            snap.interned_watermark = interner.asn_count();
            old.snapshots.push(Arc::new(snap));
        }

        assert_eq!(new.interner.asn_count(), old.interner.asn_count());
        assert!(new.interner.iter_asns().eq(old.interner.iter_asns()));
        for (a, b) in new.snapshots.iter().zip(&old.snapshots) {
            assert_eq!(a.interned_watermark, b.interned_watermark, "{}", a.label);
        }

        let saved = |engine: &mut QueryEngine, side: &str| {
            let dir =
                std::env::temp_dir().join(format!("rpi-lg-peer-{side}-{}", std::process::id()));
            engine.save_archive(&dir, true).unwrap();
            let mut files: Vec<_> = (std::fs::read_dir(&dir).unwrap())
                .map(|e| {
                    let path = e.unwrap().path();
                    (
                        path.file_name().unwrap().to_owned(),
                        std::fs::read(&path).unwrap(),
                    )
                })
                .collect();
            files.sort();
            let _ = std::fs::remove_dir_all(&dir);
            files
        };
        assert!(
            saved(&mut new, "new") == saved(&mut old, "old"),
            "archive bytes"
        );

        let mut ases: Vec<Asn> = (exp.spec.collector_peers.iter())
            .chain(&exp.spec.lg_ases)
            .copied()
            .chain([Asn(65_500)])
            .collect();
        ases.sort_unstable();
        ases.dedup();
        let prefixes: Vec<Ipv4Prefix> = (days[0].collector.rows.keys())
            .step_by(5)
            .copied()
            .chain(["203.0.113.0/24".parse().unwrap()])
            .collect();
        let (d0, d1) = (SnapshotId(0), SnapshotId(1));
        let mut reqs = vec![
            Query::Diff.at(Scope::Range(d0, d1)),
            Query::Hijacks.at(Scope::All),
        ];
        for &a in &ases {
            for at in [Scope::Id(d0), Scope::Id(d1)] {
                reqs.push(Query::PolicySummary { asn: a }.at(at.clone()));
                reqs.push(Query::Leaks.at(at.clone()));
                for &b in &ases {
                    reqs.push(Query::Relationship { a, b }.at(at.clone()));
                }
                for &prefix in &prefixes {
                    let vantage = a;
                    reqs.push(Query::Route { vantage, prefix }.at(at.clone()));
                    reqs.push(Query::Resolve { vantage, prefix }.at(at.clone()));
                    reqs.push(Query::SaStatus { vantage, prefix }.at(at.clone()));
                    reqs.push(Query::Rov { vantage, prefix }.at(at.clone()));
                }
            }
            reqs.push(Query::UptimeHistogram { vantage: a }.at(Scope::All));
            reqs.push(Query::TopKSaOrigins { vantage: a, k: 3 }.at(Scope::All));
            for &prefix in &prefixes {
                let vantage = a;
                reqs.push(Query::SaHistory { vantage, prefix }.at(Scope::All));
                reqs.push(Query::PersistenceClass { vantage, prefix }.at(Scope::All));
            }
        }
        let rendered = |engine: &QueryEngine, req| match engine.execute(req) {
            Ok(resp) => render_response(req, &resp),
            Err(e) => format!("error: {e}"),
        };
        for req in &reqs {
            assert_eq!(rendered(&new, req), rendered(&old, req), "{req:?}");
        }
    }
}
