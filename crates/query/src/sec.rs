//! Security detection over indexed snapshots — the engine-side half of
//! the `rpi-sec` subsystem.
//!
//! Three detectors, all read-only over the snapshot structures the
//! ordinary queries use:
//!
//! * [`rov_point`] — RFC 6811 route-origin validation of a vantage's
//!   best route against the engine's [`rpi_sec::RoaTable`], through the
//!   engine's bounded [`rpi_sec::RovCache`];
//! * [`hijack_events`] — origin-hijack / subprefix-hijack / MOAS events
//!   across a snapshot series, judged against the *first* scoped
//!   snapshot's ownership baseline and the customer cones of each
//!   snapshot's own [`crate::snapshot::Oracle`] (the paper's Fig. 4 cone
//!   test, aimed at origins instead of export policies — the same
//!   `in_cone` the SA patcher asks, so a cone either of them walked is
//!   walked for every request and every snapshot sharing that oracle).
//!   A **fold over the engine's one history walk**
//!   ([`QueryEngine::walk`]): each step contributes only the prefixes
//!   whose origin moved from its predecessor's
//!   ([`Snapshot::origin_changes`]) — a table whose origin stamp did not
//!   move (path-only churn) is skipped whole, any other diffed with
//!   [`bgp_types::CowTrie::diff`] — and the anchor is never scanned: a
//!   judged prefix's owners and covers are looked up in its tables.
//!   What two snapshots share (a stamp, a subtrie) is skipped as equal;
//!   what they do not is compared, never assumed different — so the events are
//!   the same on an engine whose snapshots share nothing, at the cost of
//!   walking them (`fold_scan.rs` holds the fold to the per-snapshot
//!   scan);
//! * [`leak_events`] — valley-free violations among the stored best
//!   paths of one snapshot, naming the AS that forwarded a provider- or
//!   peer-learned route back up. A **read**: every snapshot carries its
//!   convictions per vantage ([`VantageTable::leaks`]), judged by
//!   [`crate::snapshot::Oracle::leaker`] — the workspace's one valley-free
//!   walk ([`net_topology::paths::valley_walk`], which
//!   [`net_topology::classify_path`] runs too) over the snapshot's oracle —
//!   where its tables were built (indexed, decoded, or patched from a
//!   delta, which re-judges only the touched prefixes). `fold_scan.rs`
//!   holds the read to the per-request scan it replaced.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use bgp_types::{Asn, Ipv4Prefix};

use crate::engine::QueryEngine;
use crate::intern::AsnSym;
use crate::plan::QueryError;
use crate::proto::{HijackEvent, HijackKind, LeakEvent, RovAnswer};
use crate::snapshot::{origin, PointRead, Snapshot, SnapshotId, VantageTable};

/// Validates the vantage's best route for `prefix` against the engine's
/// ROA table. Non-vantage ASes answer [`RovAnswer::UnknownVantage`]; a
/// vantage without the exact route answers [`RovAnswer::NoRoute`] —
/// negative answers, not errors, like every other point query.
pub(crate) fn rov_point(
    engine: &QueryEngine,
    snap: &impl PointRead,
    vantage: Asn,
    prefix: Ipv4Prefix,
) -> Result<RovAnswer, QueryError> {
    let Some(v) = engine.interner.lookup_asn(vantage) else {
        return Ok(RovAnswer::UnknownVantage);
    };
    if !snap.is_vantage(v)? {
        return Ok(RovAnswer::UnknownVantage);
    }
    let Some(route) = snap.get(v, prefix)? else {
        return Ok(RovAnswer::NoRoute);
    };
    let origin = engine
        .interner
        .resolve_asn(*route.path.last().expect("stored paths are non-empty"));
    let (validity, covering) = engine.rov_cache.validate(&engine.roas, prefix, origin);
    Ok(RovAnswer::Validated {
        origin,
        validity,
        covering,
    })
}

/// Prefix → announcing origin → how many vantage tables carry that
/// (prefix, origin) pair, resolved to raw ASNs and fully ordered. A
/// prefix's origin *set* is its inner key set; the counts are what lets
/// [`hijack_events`] keep the sets current from route changes alone.
type OriginCounts = BTreeMap<Ipv4Prefix, BTreeMap<Asn, usize>>;

/// The first scoped snapshot as [`hijack_events`]' ownership baseline,
/// looked up one prefix at a time where a judgement asks — never
/// materialised whole.
struct Anchor<'a> {
    engine: &'a QueryEngine,
    snap: Arc<Snapshot>,
    /// Owners looked up so far, per prefix (empty: stored by no table).
    owners: HashMap<Ipv4Prefix, BTreeSet<Asn>>,
}

impl Anchor<'_> {
    /// `p`'s origins in the anchor's tables, each with the number of
    /// tables announcing it — one exact lookup per vantage.
    fn origin_counts(&self, p: Ipv4Prefix) -> BTreeMap<Asn, usize> {
        let mut out = BTreeMap::new();
        for table in self.snap.vantages.values() {
            if let Some(r) = table.trie.get(p) {
                *out.entry(self.engine.interner.resolve_asn(origin(r)))
                    .or_insert(0) += 1;
            }
        }
        out
    }

    /// `p`'s owners: its origin set in the anchor's tables.
    fn owners(&mut self, p: Ipv4Prefix) -> &BTreeSet<Asn> {
        if !self.owners.contains_key(&p) {
            let owners = self.origin_counts(p).into_keys().collect();
            self.owners.insert(p, owners);
        }
        &self.owners[&p]
    }

    /// The longest prefix strictly covering `p` that any anchor table
    /// stores.
    fn cover(&self, p: Ipv4Prefix) -> Option<Ipv4Prefix> {
        self.snap
            .vantages
            .values()
            .filter_map(|t| t.trie.covering(p).filter(|(q, _)| q.len() < p.len()).last())
            .map(|(q, _)| q)
            .max_by_key(|q| q.len())
    }
}

/// Scans the scoped snapshots for origin anomalies against the **first**
/// snapshot's ownership baseline (prefix → set of announcing origins).
/// Three kinds of event, each reported at the first snapshot where the
/// (kind, prefix, origin) triple appears:
///
/// * [`HijackKind::Origin`] — a baseline prefix picks up an origin that
///   is neither an owner nor inside any owner's customer cone (an owner
///   re-originating through a customer is routine; a stranger is not);
/// * [`HijackKind::Subprefix`] — a prefix absent from the baseline whose
///   longest covering baseline prefix has owners, announced by an origin
///   outside all their cones;
/// * [`HijackKind::Moas`] — a baseline prefix announced by ≥2 distinct
///   origins in one snapshot, reported for each non-owner origin (a
///   multi-origin *baseline* is accepted state and never reported).
///
/// **A fold over [`QueryEngine::walk`].** The anchor is the baseline and
/// is never scanned: each step applies the origin changes
/// [`Snapshot::origin_changes`] reports at every vantage of either
/// snapshot — −1 the old origin, +1 the new — to [`OriginCounts`] kept
/// only for the prefixes such a change touches, each seeded on first
/// touch from the anchor's tables (untouched until then, it is what the
/// anchor holds).
/// Only the prefixes whose origin *set* changed are judged, and a judged
/// prefix's owners — or its longest strict cover's — are looked up in
/// the anchor's tables ([`Anchor`]). That reports exactly what judging
/// every prefix would: a prefix's verdicts depend on the baseline, the
/// snapshot's oracle and the prefix's origin set, so with all three as
/// they were one snapshot earlier they are triples already reported.
/// (The whole set, not the pair that appeared: a second origin arriving
/// later makes the first one a MOAS party too.) A snapshot under a
/// different oracle than its predecessor's re-judges every prefix a
/// change has touched: an untouched one still holds exactly the anchor's
/// origins, its owners, so no oracle finds anything there. A table
/// holding its predecessor's origin stamp — path-only churn — is skipped
/// whole, others are diffed (shared subtries skipped, the rest compared
/// route by route) — sharing decides the cost, never the answer.
pub(crate) fn hijack_events(
    engine: &QueryEngine,
    ids: &[SnapshotId],
) -> Result<Vec<HijackEvent>, QueryError> {
    let _scan = rpi_obs::span(&engine.metrics.sec_scan_hijacks_seconds);
    let (snap, steps) = engine.walk(ids)?;
    // The first snapshot is its own baseline: each of its origins is an
    // owner, so it reports nothing and is not judged.
    let mut anchor = Anchor {
        engine,
        snap,
        owners: HashMap::new(),
    };
    let mut origins = OriginCounts::new();
    let mut seen: HashSet<(HijackKind, Ipv4Prefix, Asn)> = HashSet::new();
    let mut events = Vec::new();
    for step in steps {
        let (prev, snap) = step?;
        let mut dirty: BTreeSet<Ipv4Prefix> = BTreeSet::new();
        for v in snap.vantages_with(&prev) {
            snap.origin_changes(&prev, v, |p, old, new| {
                let at = origins.entry(p).or_insert_with(|| anchor.origin_counts(p));
                if let Some(o) = old {
                    let o = engine.interner.resolve_asn(o);
                    let n = at.get_mut(&o).expect("counted when the route appeared");
                    *n -= 1;
                    if *n == 0 {
                        at.remove(&o);
                        dirty.insert(p);
                    }
                }
                if let Some(o) = new {
                    let n = at.entry(engine.interner.resolve_asn(o)).or_insert(0);
                    if *n == 0 {
                        dirty.insert(p);
                    }
                    *n += 1;
                }
            });
        }

        // Fig. 4's cone test under the snapshot's own oracle, which keeps
        // every cone it has walked — for SA, for an earlier request, for
        // another snapshot sharing it. Owners and origins were resolved
        // from symbols, so they have one.
        let sym = |a| {
            engine
                .interner
                .lookup_asn(a)
                .expect("resolved from a symbol")
        };
        let outside_cones = |owners: &BTreeSet<Asn>, o: Asn| {
            let o = sym(o);
            owners.iter().all(|&w| !snap.oracle.in_cone(sym(w), o))
        };
        let mut push =
            |kind: HijackKind, prefix: Ipv4Prefix, origin: Asn, owners: &BTreeSet<Asn>| {
                events.push(HijackEvent {
                    snapshot: snap.id,
                    label: snap.label.clone(),
                    kind,
                    prefix,
                    origin,
                    owners: owners.iter().copied().collect(),
                });
            };
        let mut judge = |p: Ipv4Prefix, os: &BTreeMap<Asn, usize>| {
            let owners = anchor.owners(p);
            if !owners.is_empty() {
                let moas = os.len() > 1;
                for &o in os.keys() {
                    if owners.contains(&o) {
                        continue;
                    }
                    if outside_cones(owners, o) && seen.insert((HijackKind::Origin, p, o)) {
                        push(HijackKind::Origin, p, o, owners);
                    }
                    if moas && seen.insert((HijackKind::Moas, p, o)) {
                        push(HijackKind::Moas, p, o, owners);
                    }
                }
            } else if let Some(cover) = anchor.cover(p) {
                let owners = anchor.owners(cover);
                for &o in os.keys() {
                    if owners.contains(&o) {
                        continue;
                    }
                    if outside_cones(owners, o) && seen.insert((HijackKind::Subprefix, p, o)) {
                        push(HijackKind::Subprefix, p, o, owners);
                    }
                }
            }
        };
        if snap.oracle == prev.oracle {
            for p in dirty {
                judge(p, &origins[&p]);
            }
        } else {
            for (&p, os) in &origins {
                judge(p, os);
            }
        }
    }
    Ok(events)
}

/// The valley-free violations among the stored best paths of one
/// snapshot: a read of the convictions the snapshot carries per vantage
/// ([`VantageTable::leaks`], judged by [`crate::snapshot::Oracle::leaker`]
/// where each table was built), so a benign world answers without
/// touching a route. Each event's path is the stored one with the
/// vantage in front: collector-peer tables store it at the head already,
/// Looking-Glass tables start at the announcing neighbour. Events are
/// ordered by (vantage, prefix).
pub(crate) fn leak_events(engine: &QueryEngine, snap: &Snapshot) -> Vec<LeakEvent> {
    // The name predates the read; the `metrics names` goldens pin it.
    let _scan = rpi_obs::span(&engine.metrics.sec_scan_leaks_seconds);
    let mut vantages: Vec<(Asn, AsnSym, &VantageTable)> = (snap.vantages.iter())
        .filter(|(_, t)| !t.leaks.is_empty())
        .map(|(&s, t)| (engine.interner.resolve_asn(s), s, &**t))
        .collect();
    vantages.sort_unstable_by_key(|&(vantage, _, _)| vantage);

    let mut out = Vec::new();
    for (vantage, v, table) in vantages {
        for (&prefix, &leaker) in table.leaks.iter() {
            let route = (table.trie.get(prefix)).expect("a conviction names a stored route");
            let head = (route.path.first() != Some(&v)).then_some(&v);
            out.push(LeakEvent {
                vantage,
                prefix,
                leaker: engine.interner.resolve_asn(leaker),
                path: (head.into_iter().chain(route.path.iter()))
                    .map(|&s| engine.interner.resolve_asn(s))
                    .collect(),
            });
        }
    }
    out
}
