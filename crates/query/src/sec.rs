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
//!   An **anchor + fold over [`bgp_types::CowTrie::diff`]**: the first
//!   snapshot is scanned once, every later one contributes only the
//!   routes that differ from its predecessor's. Structure two snapshots
//!   share physically is skipped as equal; structure they do not share
//!   is compared, never assumed different — so the events are the same
//!   on an engine whose snapshots share nothing, at the cost of walking
//!   them (`fold_scan.rs` holds the fold to the per-snapshot scan);
//! * [`leak_events`] — valley-free violations among the stored best
//!   paths of one snapshot, mirroring [`net_topology::classify_path`]'s
//!   phase machine at interned-symbol level and naming the AS that
//!   forwarded a provider- or peer-learned route back up.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use bgp_types::{Asn, Ipv4Prefix, Relationship};

use crate::engine::QueryEngine;
use crate::intern::AsnSym;
use crate::plan::QueryError;
use crate::proto::{HijackEvent, HijackKind, LeakEvent, RovAnswer};
use crate::snapshot::{CompactRoute, Snapshot, SnapshotId};

/// Validates the vantage's best route for `prefix` against the engine's
/// ROA table. Non-vantage ASes answer [`RovAnswer::UnknownVantage`]; a
/// vantage without the exact route answers [`RovAnswer::NoRoute`] —
/// negative answers, not errors, like every other point query.
pub(crate) fn rov_point(
    engine: &QueryEngine,
    snap: &Snapshot,
    vantage: Asn,
    prefix: Ipv4Prefix,
) -> RovAnswer {
    let Some(v) = engine.interner.lookup_asn(vantage) else {
        return RovAnswer::UnknownVantage;
    };
    if !snap.vantages.contains_key(&v) {
        return RovAnswer::UnknownVantage;
    }
    let Some(route) = snap.route(v, prefix) else {
        return RovAnswer::NoRoute;
    };
    let origin = engine
        .interner
        .resolve_asn(*route.path.last().expect("stored paths are non-empty"));
    let (validity, covering) = engine.rov_cache.validate(&engine.roas, prefix, origin);
    RovAnswer::Validated {
        origin,
        validity,
        covering,
    }
}

/// Prefix → announcing origin → how many vantage tables carry that
/// (prefix, origin) pair, resolved to raw ASNs and fully ordered. A
/// prefix's origin *set* is its inner key set; the counts are what lets
/// [`hijack_events`] keep the sets current from route changes alone.
pub(crate) type OriginCounts = BTreeMap<Ipv4Prefix, BTreeMap<Asn, usize>>;

/// One scan of every route of every vantage table of `snap`.
pub(crate) fn origins_per_prefix(engine: &QueryEngine, snap: &Snapshot) -> OriginCounts {
    let mut out = OriginCounts::new();
    for table in snap.vantages.values() {
        for (p, r) in table.trie.iter() {
            let origin = *r.path.last().expect("stored paths are non-empty");
            *out.entry(p)
                .or_default()
                .entry(engine.interner.resolve_asn(origin))
                .or_insert(0) += 1;
        }
    }
    out
}

/// The longest baseline prefix strictly covering `p` that has owners.
pub(crate) fn covering_base(
    base: &BTreeMap<Ipv4Prefix, BTreeSet<Asn>>,
    p: Ipv4Prefix,
) -> Option<(Ipv4Prefix, &BTreeSet<Asn>)> {
    for len in (0..p.len()).rev() {
        let key = Ipv4Prefix::canonical(p.bits(), len);
        if let Some(owners) = base.get(&key) {
            return Some((key, owners));
        }
    }
    None
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
/// **Anchor + fold.** Only the first snapshot is scanned
/// ([`origins_per_prefix`]): it is the baseline and the starting
/// [`OriginCounts`]. Each later snapshot applies the route changes
/// [`Snapshot::route_changes`] reports against its predecessor — −1 the
/// old origin, +1 the new — and judges only the prefixes whose origin
/// *set* changed. That reports exactly what judging every prefix would:
/// a prefix's verdicts depend on the baseline, the snapshot's oracle and
/// the prefix's origin set, so with all three as they were one snapshot
/// earlier they are triples already reported. (The whole set, not the
/// pair that appeared: a second origin arriving later makes the first
/// one a MOAS party too.) A snapshot under a different oracle than its
/// predecessor's re-judges every prefix. Tables the two snapshots share
/// are skipped, unshared ones compared route by route — sharing decides
/// the cost, never the answer.
pub(crate) fn hijack_events(
    engine: &QueryEngine,
    ids: &[SnapshotId],
) -> Result<Vec<HijackEvent>, QueryError> {
    let _scan = rpi_obs::span(&engine.metrics.sec_scan_hijacks_seconds);
    let Some((&first, rest)) = ids.split_first() else {
        return Ok(Vec::new());
    };
    let mut prev = engine.snap_arc(first)?;
    let mut origins = origins_per_prefix(engine, &prev);
    // The first snapshot is its own baseline: each of its origins is an
    // owner, so it reports nothing and is not judged.
    let base: BTreeMap<Ipv4Prefix, BTreeSet<Asn>> = origins
        .iter()
        .map(|(&p, os)| (p, os.keys().copied().collect()))
        .collect();
    let mut seen: HashSet<(HijackKind, Ipv4Prefix, Asn)> = HashSet::new();
    let mut events = Vec::new();
    for &id in rest {
        let snap = engine.snap_arc(id)?;
        let mut dirty: BTreeSet<Ipv4Prefix> = BTreeSet::new();
        let gone = prev
            .vantages
            .keys()
            .filter(|v| !snap.vantages.contains_key(v));
        for &v in snap.vantages.keys().chain(gone) {
            snap.route_changes(&prev, v, |p, old, new| {
                let origin = |r: &CompactRoute| *r.path.last().expect("stored paths are non-empty");
                let (old, new) = (old.map(origin), new.map(origin));
                if old == new {
                    return; // the path moved, the origin did not
                }
                let at = origins.entry(p).or_default();
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
                    snapshot: id,
                    label: snap.label.clone(),
                    kind,
                    prefix,
                    origin,
                    owners: owners.iter().copied().collect(),
                });
            };
        let mut judge = |p: Ipv4Prefix, os: &BTreeMap<Asn, usize>| {
            if let Some(owners) = base.get(&p) {
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
            } else if let Some((_, owners)) = covering_base(&base, p) {
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
        prev = snap;
    }
    Ok(events)
}

/// The phase machine of [`net_topology::classify_path`] at symbol level,
/// returning the AS that exported a provider- or peer-learned route up
/// or across (`None`: valley-free, or the oracle lacks an adjacency —
/// an incomplete path is not convicted). `speaker_first` must include
/// the speaker itself.
fn valley_leaker(
    rels: &HashMap<(AsnSym, AsnSym), Relationship>,
    speaker_first: &[AsnSym],
) -> Option<AsnSym> {
    #[derive(Clone, Copy)]
    enum Phase {
        Climb,
        Peered,
        Descend,
    }
    enum Hop {
        Up,
        Flat,
        Down,
    }
    let mut phase = Phase::Climb;
    // Origin-first: the direction the announcement traveled.
    for w in speaker_first.windows(2).rev() {
        let (from, to) = (w[1], w[0]);
        let hop = match rels.get(&(from, to)) {
            Some(Relationship::Provider) => Hop::Up,
            Some(Relationship::Peer) => Hop::Flat,
            Some(Relationship::Customer) => Hop::Down,
            Some(Relationship::Sibling) => continue,
            None => return None,
        };
        phase = match (phase, hop) {
            (Phase::Climb, Hop::Up) => Phase::Climb,
            (Phase::Climb, Hop::Flat) => Phase::Peered,
            (_, Hop::Down) => Phase::Descend,
            // Any up/flat hop after the peak: `from` leaked the route.
            (Phase::Peered | Phase::Descend, Hop::Up | Hop::Flat) => return Some(from),
        };
    }
    None
}

/// Scans every stored best path of one snapshot for valley-free
/// violations. Collector-peer tables store the vantage at the head of
/// each path; Looking-Glass tables start at the announcing neighbor, so
/// the vantage is prepended before classification — the leak verdict
/// must cover the final hop into the vantage too. Events are ordered by
/// (vantage, prefix).
pub(crate) fn leak_events(engine: &QueryEngine, snap: &Snapshot) -> Vec<LeakEvent> {
    let _scan = rpi_obs::span(&engine.metrics.sec_scan_leaks_seconds);
    let mut vantages: Vec<(Asn, AsnSym)> = snap
        .vantages
        .keys()
        .map(|&s| (engine.interner.resolve_asn(s), s))
        .collect();
    vantages.sort_unstable();

    let mut out = Vec::new();
    let mut full: Vec<AsnSym> = Vec::new();
    for (vantage, v) in vantages {
        // The trie iterates in prefix order, the order events are reported in.
        for (prefix, route) in snap.vantages[&v].trie.iter() {
            full.clear();
            if route.path.first() != Some(&v) {
                full.push(v);
            }
            full.extend_from_slice(&route.path);
            if let Some(leaker) = valley_leaker(&snap.oracle.relationships, &full) {
                out.push(LeakEvent {
                    vantage,
                    prefix,
                    leaker: engine.interner.resolve_asn(leaker),
                    path: full
                        .iter()
                        .map(|&s| engine.interner.resolve_asn(s))
                        .collect(),
                });
            }
        }
    }
    out
}
