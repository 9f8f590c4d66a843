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
//!   walked for every request and every snapshot sharing that oracle);
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
use crate::snapshot::{Snapshot, SnapshotId};

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

/// Every (prefix → announcing origins) pair visible across the
/// snapshot's vantage tables, resolved to raw ASNs and fully ordered.
fn origins_per_prefix(
    engine: &QueryEngine,
    snap: &Snapshot,
) -> BTreeMap<Ipv4Prefix, BTreeSet<Asn>> {
    let mut out: BTreeMap<Ipv4Prefix, BTreeSet<Asn>> = BTreeMap::new();
    for table in snap.vantages.values() {
        for (p, r) in table.trie.iter() {
            let origin = *r.path.last().expect("stored paths are non-empty");
            out.entry(p)
                .or_default()
                .insert(engine.interner.resolve_asn(origin));
        }
    }
    out
}

/// The longest baseline prefix strictly covering `p` that has owners.
fn covering_base(
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
pub(crate) fn hijack_events(
    engine: &QueryEngine,
    ids: &[SnapshotId],
) -> Result<Vec<HijackEvent>, QueryError> {
    let _scan = rpi_obs::span(&engine.metrics.sec_scan_hijacks_seconds);
    let Some(&first) = ids.first() else {
        return Ok(Vec::new());
    };
    let first_snap = engine.snap_arc(first)?;
    let base = origins_per_prefix(engine, &first_snap);
    let mut seen: HashSet<(HijackKind, Ipv4Prefix, Asn)> = HashSet::new();
    let mut events = Vec::new();
    for &id in ids {
        let snap = engine.snap_arc(id)?;
        let origins = origins_per_prefix(engine, &snap);
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
        for (&p, os) in &origins {
            if let Some(owners) = base.get(&p) {
                let moas = os.len() > 1;
                for &o in os {
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
                for &o in os {
                    if owners.contains(&o) {
                        continue;
                    }
                    if outside_cones(owners, o) && seen.insert((HijackKind::Subprefix, p, o)) {
                        push(HijackKind::Subprefix, p, o, owners);
                    }
                }
            }
        }
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
