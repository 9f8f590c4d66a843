//! fold ≡ scan: the history verbs that fold over the engine's one walk
//! (`hijacks`, `uptime`, `top-sa`, `diff`) held, as rendered bytes, to
//! the per-snapshot scans they replaced — kept here as the references —
//! and `sa-history` and `persistence` to [`sa_scan`] at each scoped id.
//! The folds never scan the first scoped snapshot; they look it up where
//! a verdict or the histogram asks, and hand-built cases below aim at
//! each of those lookups. `hijacks` and `uptime` skip a table whose
//! origins did not move (its origin stamp), and `uptime` and `top-sa` an
//! SA cache that carried over; `sa`, `top-sa` and the per-prefix verbs
//! are held to SA caches judged whole, so a cache carried over a filing
//! that moved shows. Everything is held over seeded
//! series and on every way an engine comes to hold a series: indexed
//! from scratch (no trie shares anything), ingested incrementally
//! (everything untouched is shared), loaded from an archive (every
//! keyframe decoded onto its predecessor) and tier-attached with a hot
//! set too small for a scope (evict + re-hydrate loses sharing
//! mid-fold). Sharing may only ever change what the fold costs.
//!
//! `leaks` is held the same way: the convictions each snapshot carries —
//! judged where its tables were indexed, decoded, or patched from a
//! delta — must be what judging every stored path on request finds.
//!
//! `RPI_DIFF_SEEDS=seed1,seed2,…` adds churn seeds, and worlds for the
//! hand-built anchor cases, without a rebuild.

#[path = "../tests/common/mod.rs"]
mod common;

use std::collections::{BTreeMap, BTreeSet, HashSet};

use bgp_sim::{AttackKind, SimOutput};
use bgp_types::{Asn, Ipv4Prefix};
use net_topology::{AsGraph, CustomerCone, Relations};
use rand::prelude::*;
use rand::rngs::StdRng;
use rpi_core::export_policy::SaVerdict;
use rpi_core::persistence::{classify_persistence, histogram_from_counts};

use crate::diff::{RelationshipFlip, SnapshotDiff, VantageChurn};
use crate::engine::{QueryEngine, SaStatus};
use crate::intern::{AsnSym, WorldInterner};
use crate::plan::QueryError;
use crate::proto::{
    render_response, HijackEvent, HijackKind, LeakEvent, PersistenceAnswer, Query, QueryRequest,
    Response, SaHistoryPoint, SaOriginCount, Scope,
};
use crate::snapshot::{SaCache, Snapshot, SnapshotId, TableJudge};
use crate::SaveOptions;

// ---------- the references: every scoped snapshot scanned whole ----------

/// Every prefix any vantage table of `snap` stores, with its origin set.
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

/// `hijacks` as it was before the fold: the origin sets of every scoped
/// snapshot rebuilt from every route of every vantage, every prefix
/// judged in every snapshot.
fn hijacks_scan(engine: &QueryEngine, ids: &[SnapshotId]) -> Result<Vec<HijackEvent>, QueryError> {
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

/// `uptime` as it was: the vantage's whole table and SA set walked in
/// every scoped snapshot.
fn uptime_scan(
    engine: &QueryEngine,
    vantage: Asn,
    ids: &[SnapshotId],
) -> Result<Response, QueryError> {
    let v = engine
        .interner
        .lookup_asn(vantage)
        .ok_or(QueryError::UnknownVantage(vantage))?;
    let mut present: BTreeMap<Ipv4Prefix, usize> = BTreeMap::new();
    let mut sa_count: BTreeMap<Ipv4Prefix, usize> = BTreeMap::new();
    for &id in ids {
        let snap = engine.snap_arc(id)?;
        for (p, _) in snap
            .vantages
            .get(&v)
            .into_iter()
            .flat_map(|t| t.trie.iter())
        {
            *present.entry(p).or_insert(0) += 1;
        }
        if let Some(table) = snap.vantages.get(&v) {
            for &p in table.sa.sa.keys() {
                *sa_count.entry(p).or_insert(0) += 1;
            }
        }
    }
    // The histogram reads ever-SA prefixes only, and those are the ones
    // the fold counts presence for.
    let ever_sa_present: BTreeMap<Ipv4Prefix, usize> = (sa_count.keys())
        .map(|&p| (p, present.get(&p).copied().unwrap_or(0)))
        .collect();
    let (fold_present, fold_sa) = engine.uptime_counts(v, ids)?;
    assert!(
        fold_present == ever_sa_present && fold_sa == sa_count,
        "uptime counts of {vantage} over {ids:?}: fold and scan disagree"
    );
    Ok(Response::Uptime(histogram_from_counts(&present, &sa_count)))
}

/// `v`'s SA cache in `snap` as judging its whole table finds it: what
/// the cache the snapshot carries must be, however it was patched.
fn sa_judged(snap: &Snapshot, v: AsnSym) -> SaCache {
    let mut judge = TableJudge::new(&snap.oracle, v);
    for (p, route) in snap
        .vantages
        .get(&v)
        .into_iter()
        .flat_map(|t| t.trie.iter())
    {
        judge.judge(p, route);
    }
    judge.finish().0
}

/// `sa` filed by [`sa_judged`] instead of the carried cache.
fn sa_scan(engine: &QueryEngine, snap: &Snapshot, vantage: Asn, prefix: Ipv4Prefix) -> SaStatus {
    let v = engine.interner.lookup_asn(vantage);
    let Some(v) = v.filter(|v| snap.vantages.contains_key(v)) else {
        return SaStatus::UnknownVantage;
    };
    let filed = (sa_judged(snap, v).filing(prefix))
        .map(|(verdict, o)| (verdict, engine.interner.resolve_asn(o)));
    match filed {
        Some((SaVerdict::Sa, origin)) => SaStatus::SelectivelyAnnounced { origin },
        Some((SaVerdict::Exported, origin)) => SaStatus::CustomerExported { origin },
        None if snap.route(v, prefix).is_some() => SaStatus::NotCustomerRoute,
        None => SaStatus::NotInTable,
    }
}

/// `top-sa` over the [`sa_judged`] caches of every scoped snapshot, none
/// skipped.
fn top_sa_scan(
    engine: &QueryEngine,
    vantage: Asn,
    k: usize,
    ids: &[SnapshotId],
) -> Result<Response, QueryError> {
    let v = (engine.interner.lookup_asn(vantage)).ok_or(QueryError::UnknownVantage(vantage))?;
    let mut per_origin: BTreeMap<Asn, BTreeSet<Ipv4Prefix>> = BTreeMap::new();
    for &id in ids {
        let snap = engine.snap_arc(id)?;
        for (&p, &origin) in &sa_judged(&snap, v).sa {
            per_origin
                .entry(engine.interner.resolve_asn(origin))
                .or_default()
                .insert(p);
        }
    }
    let mut rows: Vec<SaOriginCount> = (per_origin.into_iter())
        .map(|(origin, prefixes)| SaOriginCount {
            origin,
            prefixes: prefixes.len(),
        })
        .collect();
    rows.sort_by(|a, b| b.prefixes.cmp(&a.prefixes).then(a.origin.cmp(&b.origin)));
    rows.truncate(k);
    Ok(Response::TopSaOrigins(rows))
}

/// `SnapshotDiff::between` as it was: both SA maps probed key by key,
/// every edge of both oracles collected and compared, and the two tries
/// of every vantage merge-joined over their full prefix-ordered streams.
fn diff_scan(interner: &WorldInterner, a: &Snapshot, b: &Snapshot) -> SnapshotDiff {
    let mut diff = SnapshotDiff {
        from_label: a.label.clone(),
        to_label: b.label.clone(),
        ..Default::default()
    };

    let mut sa_vantages: Vec<_> = (a.vantages.keys().chain(b.vantages.keys()))
        .copied()
        .collect();
    sa_vantages.sort_unstable();
    sa_vantages.dedup();
    for v in sa_vantages {
        let vantage = interner.resolve_asn(v);
        let empty = Default::default();
        let sa_a = a.vantages.get(&v).map_or(&empty, |t| &t.sa.sa);
        let sa_b = b.vantages.get(&v).map_or(&empty, |t| &t.sa.sa);
        for &p in sa_b.keys() {
            if !sa_a.contains_key(&p) {
                diff.new_sa.push((vantage, p));
            }
        }
        for &p in sa_a.keys() {
            if !sa_b.contains_key(&p) {
                diff.gone_sa.push((vantage, p));
            }
        }
    }
    diff.new_sa.sort_unstable();
    diff.gone_sa.sort_unstable();

    let (oa, ob) = (&a.oracle, &b.oracle);
    let mut edges: Vec<_> = (oa.edges().chain(ob.edges()))
        .filter(|(x, y, _)| x <= y)
        .map(|(x, y, _)| (x, y))
        .collect();
    edges.sort_unstable();
    edges.dedup();
    for (x, y) in edges {
        let (before, after) = (oa.rel(x, y), ob.rel(x, y));
        if before != after {
            diff.flips.push(RelationshipFlip {
                a: interner.resolve_asn(x),
                b: interner.resolve_asn(y),
                before,
                after,
            });
        }
    }

    let mut vantages: Vec<_> = a
        .vantages
        .keys()
        .chain(b.vantages.keys())
        .copied()
        .collect();
    vantages.sort_unstable();
    vantages.dedup();
    for v in vantages {
        let (mut added, mut removed, mut changed) = (0, 0, 0);
        match (a.vantages.get(&v), b.vantages.get(&v)) {
            (Some(ta), Some(tb)) => {
                let mut rows_a = ta.trie.iter().peekable();
                for (pb, rb) in tb.trie.iter() {
                    while rows_a.next_if(|(pa, _)| *pa < pb).is_some() {
                        removed += 1;
                    }
                    match rows_a.next_if(|(pa, _)| *pa == pb) {
                        Some((_, ra)) if ra != rb => changed += 1,
                        Some(_) => {}
                        None => added += 1,
                    }
                }
                removed += rows_a.count();
            }
            (Some(ta), None) => removed = ta.route_count,
            (None, Some(tb)) => added = tb.route_count,
            (None, None) => {}
        }
        diff.churn.push(VantageChurn {
            vantage: interner.resolve_asn(v),
            added,
            removed,
            changed,
        });
    }
    diff
}

/// `leaks` as it was before snapshots carried their convictions: every
/// stored path of every vantage judged on every request, with the
/// vantage prepended to a path that does not start at it — so the
/// judge never needs [`crate::snapshot::Oracle::leaker`]'s virtual last
/// hop, which the read is held to here.
fn leaks_scan(engine: &QueryEngine, snap: &Snapshot) -> Vec<LeakEvent> {
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
            if let Some(leaker) = snap.oracle.leaker(v, &full) {
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

/// `sa-history` and `persistence` as [`sa_scan`] at each scoped id, the
/// latter counting a snapshot whose table routes the prefix as present.
fn per_prefix_scan(engine: &QueryEngine, req: &QueryRequest) -> Result<Response, QueryError> {
    let (Query::SaHistory { vantage, prefix } | Query::PersistenceClass { vantage, prefix }) =
        req.query
    else {
        unreachable!("only `sa-history` and `persistence` are per prefix");
    };
    let ids = engine.scope_ids(&req.query, &req.scope)?;
    let v = (engine.interner.lookup_asn(vantage)).ok_or(QueryError::UnknownVantage(vantage))?;
    let mut points = Vec::new();
    let (mut present, mut sa) = (0, 0);
    for &id in &ids {
        let snap = engine.snap_arc(id)?;
        let status = sa_scan(engine, &snap, vantage, prefix);
        present += snap.route(v, prefix).is_some() as usize;
        sa += matches!(status, SaStatus::SelectivelyAnnounced { .. }) as usize;
        points.push(SaHistoryPoint {
            snapshot: id,
            label: snap.label.clone(),
            status,
        });
    }
    Ok(match req.query {
        Query::SaHistory { .. } => Response::SaHistory(points),
        _ => Response::Persistence(PersistenceAnswer {
            snapshots: ids.len(),
            present,
            sa,
            class: classify_persistence(present, sa),
        }),
    })
}

/// [`QueryEngine::execute`] for the folded verbs, `leaks`, `sa`,
/// `top-sa`, `sa-history` and `persistence`, through the reference scans.
fn execute_scan(engine: &QueryEngine, req: &QueryRequest) -> Result<Response, QueryError> {
    match req.query {
        Query::SaHistory { .. } | Query::PersistenceClass { .. } => per_prefix_scan(engine, req),
        Query::Leaks => {
            let id = engine.single_scope(&req.query, &req.scope)?;
            let snap = engine.snap_arc(id)?;
            Ok(Response::Leaks(leaks_scan(engine, &snap)))
        }
        Query::Hijacks => {
            let ids = engine.scope_ids(&req.query, &req.scope)?;
            Ok(Response::Hijacks(hijacks_scan(engine, &ids)?))
        }
        Query::UptimeHistogram { vantage } => {
            let ids = engine.scope_ids(&req.query, &req.scope)?;
            uptime_scan(engine, vantage, &ids)
        }
        Query::Diff => {
            let (from, to) = engine.diff_scope(&req.scope)?;
            let (a, b) = (engine.snap_arc(from)?, engine.snap_arc(to)?);
            Ok(Response::Diff(diff_scan(&engine.interner, &a, &b)))
        }
        Query::SaStatus { vantage, prefix } => {
            let id = engine.single_scope(&req.query, &req.scope)?;
            let snap = engine.snap_arc(id)?;
            Ok(Response::Sa(sa_scan(engine, &snap, vantage, prefix)))
        }
        Query::TopKSaOrigins { vantage, k } => {
            let ids = engine.scope_ids(&req.query, &req.scope)?;
            top_sa_scan(engine, vantage, k, &ids)
        }
        _ => unreachable!("only the history verbs, `leaks` and `sa` are compared"),
    }
}

// ---------- the suite ----------

fn rendered(req: &QueryRequest, res: &Result<Response, QueryError>) -> String {
    match res {
        Ok(resp) => render_response(req, resp),
        Err(e) => format!("error: {e}"),
    }
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rpi-fold-scan-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The series on every kind of engine, each named for failure messages;
/// the directories back the archive-loaded and tier-attached ones.
fn engines(
    tag: &str,
    labels: &[String],
    outputs: &[SimOutput],
    oracles: &[AsGraph],
) -> (Vec<(String, QueryEngine)>, Vec<std::path::PathBuf>) {
    let mut scratch = QueryEngine::default();
    let mut incr = QueryEngine::default();
    for (i, (label, out)) in labels.iter().zip(outputs).enumerate() {
        scratch.ingest_output(out, &oracles[i], label);
        if i == 0 {
            incr.ingest_output(out, &oracles[i], label);
        } else {
            incr.ingest_output_incremental(&outputs[i - 1], out, &oracles[i], label);
        }
    }
    let mut all = vec![("from scratch".to_string(), scratch)];
    let mut dirs = Vec::new();
    for every in [1, 3, 8] {
        let dir = tmp_dir(&format!("{tag}-k{every}"));
        let options = SaveOptions {
            keyframe_every: Some(every),
        };
        incr.save_archive_with(&dir, true, options)
            .expect("archive saves");
        let loaded = QueryEngine::load_archive(&dir).expect("archive loads");
        all.push((format!("archive, keyframe every {every}"), loaded));
        if every == 3 {
            let tiered = QueryEngine::load_archive_tiered(&dir, 2).expect("tier attaches");
            all.push(("tier-attached, hot cap 2".to_string(), tiered));
        }
        dirs.push(dir);
    }
    all.push(("incremental".to_string(), incr));
    (all, dirs)
}

/// Every `hijacks` scope and every `diff` pair (both directions) of an
/// `n`-snapshot series, `leaks` at every snapshot, and `uptime`,
/// `top-sa`, `sa-history` and `persistence` for every vantage of interest
/// over the whole series plus a seeded handful of ranges, the last two
/// each of a prefix drawn from `prefixes` (by a second generator, so the
/// ranges do not depend on the pool).
fn requests(
    n: u32,
    vantages: &[Asn],
    prefixes: &[Ipv4Prefix],
    rng: &mut StdRng,
) -> Vec<QueryRequest> {
    let id = SnapshotId;
    let mut reqs = vec![Query::Hijacks.at(Scope::All), Query::Diff.at(Scope::All)];
    for a in 0..n {
        reqs.push(Query::Leaks.at(Scope::Id(id(a))));
        for b in 0..n {
            reqs.push(Query::Diff.at(Scope::Range(id(a), id(b))));
            if a <= b {
                reqs.push(Query::Hijacks.at(Scope::Range(id(a), id(b))));
            }
        }
    }
    let mut pick = StdRng::seed_from_u64(prefixes.len() as u64);
    for &vantage in vantages {
        let mut scopes = vec![Scope::All];
        for _ in 0..5 {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(a..n);
            scopes.push(Scope::Range(id(a), id(b)));
        }
        for scope in scopes {
            let prefix = *prefixes.choose(&mut pick).expect("a prefix to ask about");
            for query in [
                Query::UptimeHistogram { vantage },
                Query::TopKSaOrigins { vantage, k: 1000 },
                Query::SaHistory { vantage, prefix },
                Query::PersistenceClass { vantage, prefix },
            ] {
                reqs.push(query.at(scope.clone()));
            }
        }
    }
    reqs
}

/// Every prefix a collector row of `outputs` carries, ascending.
fn routed(outputs: &[SimOutput]) -> Vec<Ipv4Prefix> {
    let all: BTreeSet<Ipv4Prefix> = (outputs.iter())
        .flat_map(|out| out.collector.rows.keys().copied())
        .collect();
    all.into_iter().collect()
}

/// Holds the fold to the scan on every engine, and the engines to each
/// other; returns the first engine's rendered answers for the caller's
/// non-vacuity checks.
fn hold(
    tag: &str,
    labels: &[String],
    outputs: &[SimOutput],
    oracles: &[AsGraph],
    reqs: &[QueryRequest],
) -> Vec<String> {
    let (engines, dirs) = engines(tag, labels, outputs, oracles);
    let mut first: Option<Vec<String>> = None;
    for (name, engine) in &engines {
        let answers: Vec<String> = reqs
            .iter()
            .map(|req| {
                let (fold, scan) = (engine.execute(req), execute_scan(engine, req));
                let line = rendered(req, &fold);
                assert_eq!(
                    line,
                    rendered(req, &scan),
                    "{tag}, {name}: fold and scan disagree on {req:?}"
                );
                // `diff` renders totals only; its rows must agree too.
                assert_eq!(fold, scan, "{tag}, {name}: {req:?}");
                line
            })
            .collect();
        match &first {
            None => first = Some(answers),
            Some(first) => {
                for ((req, a), b) in reqs.iter().zip(first).zip(&answers) {
                    assert_eq!(a, b, "{tag}: '{name}' answers {req:?} differently");
                }
            }
        }
    }
    drop(engines);
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    first.expect("at least one engine")
}

/// Benign churn with an oracle flip mid-range and a vantage lost and
/// returned ([`common::build_scenario`]).
fn hold_churn(seed: u64) {
    let sc = common::build_scenario(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF01D_5CA9);
    let reqs = requests(
        sc.outputs.len() as u32,
        &sc.vantages,
        &sc.prefixes,
        &mut rng,
    );
    let answers = hold(
        &format!("churn-{seed:x}"),
        &sc.labels,
        &sc.outputs,
        &sc.oracles,
        &reqs,
    );
    // The scenario bites: routes churned between the first and last day,
    // and `sa-history` meets both an SA prefix and a route from outside
    // the vantage's cone, which `persistence` counts as present only.
    assert!(
        !answers[1].ends_with(" 0 churned routes"),
        "seed {seed}: {}",
        answers[1]
    );
    for status in ["SELECTIVELY ANNOUNCED", "origin outside customer cone"] {
        assert!(
            (answers.iter()).any(|a| a.starts_with("sa-history") && a.contains(status)),
            "seed {seed}: no `sa-history` point is {status}"
        );
    }
}

#[test]
fn fold_matches_scan_seed_0xa1() {
    hold_churn(0xA1);
}

#[test]
fn fold_matches_scan_seed_0xb2() {
    hold_churn(0xB2);
}

#[test]
fn fold_matches_scan_seed_0xc3() {
    hold_churn(0xC3);
}

/// The seeds `RPI_DIFF_SEEDS=seed1,seed2,…` names, none if it is unset.
pub(crate) fn env_seeds() -> Vec<u64> {
    let spec = std::env::var("RPI_DIFF_SEEDS").unwrap_or_default();
    spec.split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|part| {
            part.trim()
                .parse()
                .unwrap_or_else(|_| panic!("bad seed '{part}' in RPI_DIFF_SEEDS"))
        })
        .collect()
}

#[test]
fn fold_matches_scan_extra_seeds_from_env() {
    env_seeds().into_iter().for_each(hold_churn);
}

/// The three attack kinds, every scope: ranges that start before the
/// attack step see it arrive mid-fold, ranges that start at or after it
/// take the attacked snapshot as their baseline.
#[test]
fn fold_matches_scan_under_attack() {
    for kind in AttackKind::ALL {
        let (g, labels, outputs, sc) = common::build_attack(kind);
        let mut vantages: Vec<Asn> = outputs[0].collector.peers.clone();
        vantages.extend(outputs[0].lgs.keys());
        let mut rng = StdRng::seed_from_u64(0xA77A_C4ED);
        let reqs = requests(outputs.len() as u32, &vantages, &routed(&outputs), &mut rng);
        let oracles = vec![g; outputs.len()];
        let answers = hold(kind.name(), &labels, &outputs, &oracles, &reqs);
        if kind != AttackKind::RouteLeak {
            let convicted = format!("hijack {} by {} ", sc.attack_prefix, sc.attacker);
            assert!(
                answers[0].contains(&convicted),
                "{}: `hijacks @all` must convict the injected attacker:\n{}",
                kind.name(),
                answers[0]
            );
        } else {
            let at = Query::Leaks.at(Scope::Id(SnapshotId(sc.at_step as u32)));
            let leaks = &answers[answer_to(&reqs, &at)];
            assert!(
                leaks.contains(&format!(": leaked by {} ", sc.attacker)),
                "`leaks @{}` must convict the injected leaker {}:\n{leaks}",
                sc.at_step,
                sc.attacker
            );
        }
    }
}

/// A convicted route that is withdrawn takes its conviction with it: the
/// injected leak at [`common::AT_STEP`], then one more snapshot in which
/// every vantage has lost the leaked prefix. The patcher sees only
/// withdrawals there, so a conviction it failed to drop would name a
/// route no table holds.
#[test]
fn a_withdrawn_leak_is_acquitted() {
    let (g, mut labels, mut outputs, sc) = common::build_attack(AttackKind::RouteLeak);
    outputs.truncate(sc.at_step + 1);
    labels.truncate(sc.at_step + 1);
    let mut gone = outputs[sc.at_step].clone();
    gone.collector.rows.remove(&sc.attack_prefix);
    for view in gone.lgs.values_mut() {
        view.rows.remove(&sc.attack_prefix);
    }
    outputs.push(gone);
    labels.push("atk-gone".to_string());

    let mut vantages: Vec<Asn> = outputs[0].collector.peers.clone();
    vantages.extend(outputs[0].lgs.keys());
    let n = outputs.len() as u32;
    let prefixes = routed(&outputs);
    let reqs = requests(n, &vantages, &prefixes, &mut StdRng::seed_from_u64(0x6011E));
    let oracles = vec![g; outputs.len()];
    let answers = hold("withdrawn-leak", &labels, &outputs, &oracles, &reqs);
    let leaks_at =
        |id: u32| &answers[answer_to(&reqs, &Query::Leaks.at(Scope::Id(SnapshotId(id))))];
    let event = format!("\n  {} at ", sc.attack_prefix);
    assert!(leaks_at(n - 2).contains(&event), "{}", leaks_at(n - 2));
    assert!(!leaks_at(n - 1).contains(&event), "{}", leaks_at(n - 1));
}

/// Where `req` sits in `reqs`, so its answer can be read off [`hold`]'s.
fn answer_to(reqs: &[QueryRequest], req: &QueryRequest) -> usize {
    reqs.iter()
        .position(|r| r == req)
        .unwrap_or_else(|| panic!("{req:?} is asked"))
}

/// One simulated day of a tiny world seen by collector peers only, for
/// the hand-built series below: the graph, the peers and the day.
fn one_day() -> (AsGraph, Vec<Asn>, SimOutput) {
    one_day_of(9)
}

/// [`one_day`] in the Tiny world of `seed`.
pub(crate) fn one_day_of(seed: u64) -> (AsGraph, Vec<Asn>, SimOutput) {
    use bgp_sim::{GroundTruth, PolicyParams, Simulation, VantageSpec};
    use net_topology::{InternetConfig, InternetSize};

    let g = InternetConfig::of_size(InternetSize::Tiny)
        .with_seed(seed)
        .build();
    let truth = GroundTruth::generate(&g, &PolicyParams::default());
    let spec = VantageSpec::paper_like(&g, 8, 4);
    let mut day = Simulation::new(&g, &truth, &spec).run();
    day.lgs.clear();
    (g, spec.collector_peers, day)
}

/// Multi-hop prefixes of `day` seen by at least two peers, with the
/// origin the first of them reports.
fn owned_prefixes(day: &SimOutput) -> impl Iterator<Item = (Ipv4Prefix, Asn)> + '_ {
    day.collector
        .rows
        .iter()
        .filter(|(_, rows)| rows.len() >= 2 && rows.iter().all(|r| r.path.len() >= 2))
        .map(|(&p, rows)| (p, *rows[0].path.last().expect("paths are non-empty")))
}

/// `day` with `origin` announcing `prefix` at the first `peers` peers
/// that carry it.
fn reoriginated(day: &SimOutput, prefix: Ipv4Prefix, peers: usize, origin: Asn) -> SimOutput {
    let mut out = day.clone();
    let rows = out
        .collector
        .rows
        .get_mut(&prefix)
        .expect("prefix is routed");
    for row in rows.iter_mut().take(peers) {
        *row.path.last_mut().expect("paths are non-empty") = origin;
    }
    out
}

/// What `hijacks @all` prints for one event, up to its owner list.
fn event_line(day: u32, kind: &str, prefix: Ipv4Prefix, origin: Asn) -> String {
    format!("\n  {day} d{day}: {kind} {prefix} by {origin} ")
}

/// MOAS depends on a prefix's whole origin set: a stranger X takes over
/// a baseline prefix at snapshot 1 (one origin — no MOAS), a second
/// stranger Y joins at snapshot 2, and *both* are MOAS parties there
/// although X's (prefix, origin) pair did not change at 2. A fold that
/// re-judged only the pairs that appeared would miss X.
#[test]
fn a_later_second_origin_convicts_the_first_too() {
    let (g, peers, day0) = one_day();
    let (prefix, owner) = owned_prefixes(&day0).next().expect("a shared prefix");
    let strangers: Vec<Asn> = g.ases().filter(|&a| a != owner).take(2).collect();
    let (x, y) = (strangers[0], strangers[1]);
    let day1 = reoriginated(&day0, prefix, usize::MAX, x);
    let day2 = reoriginated(&day1, prefix, 1, y);

    let labels: Vec<String> = (0..3).map(|i| format!("d{i}")).collect();
    let reqs = requests(3, &peers, &[prefix], &mut StdRng::seed_from_u64(9));
    let oracles = vec![g; 3];
    let answers = hold("late-moas", &labels, &[day0, day1, day2], &oracles, &reqs);
    for (day, origin, expected) in [(1, x, false), (2, x, true), (2, y, true)] {
        let line = event_line(day, "moas", prefix, origin);
        assert_eq!(
            answers[0].contains(&line),
            expected,
            "{line}:\n{}",
            answers[0]
        );
    }
}

/// A verdict can change with no route changing: an owner's customer C
/// re-originates the owner's prefix at snapshot 1 — routine, C is inside
/// the owner's cone — and at snapshot 2 the same tables are indexed under
/// an oracle in which C is only a peer. The fold sees an empty route
/// delta there and must still convict C.
#[test]
fn an_oracle_flip_rejudges_routes_that_did_not_move() {
    use bgp_types::Relationship;

    let (g, peers, day0) = one_day();
    let (prefix, owner, customer) = owned_prefixes(&day0)
        .find_map(|(p, owner)| Some((p, owner, g.customers_of(owner).next()?)))
        .expect("an owner with a customer");
    let day1 = reoriginated(&day0, prefix, usize::MAX, customer);
    let mut flipped = g.clone();
    flipped.remove_edge(owner, customer);
    flipped
        .add_edge(owner, customer, Relationship::Peer)
        .expect("the edge was just removed");

    let labels: Vec<String> = (0..3).map(|i| format!("d{i}")).collect();
    let reqs = requests(3, &peers, &[prefix], &mut StdRng::seed_from_u64(9));
    let outputs = [day0, day1.clone(), day1];
    let answers = hold("flip", &labels, &outputs, &[g.clone(), g, flipped], &reqs);
    for (day, expected) in [(1, false), (2, true)] {
        let line = event_line(day, "origin-hijack", prefix, customer);
        assert_eq!(
            answers[0].contains(&line),
            expected,
            "{line}:\n{}",
            answers[0]
        );
    }

    // The same for `leaks`: snapshot 2's tables are snapshot 1's, so a
    // leak convicted at 2 and not at 1 is the oracle's doing — the
    // patcher saw no route event there and must re-judge anyway.
    let leaks_at = |day: u32| {
        let answer = &answers[answer_to(&reqs, &Query::Leaks.at(Scope::Id(SnapshotId(day))))];
        answer
            .lines()
            .skip(1)
            .map(str::to_string)
            .collect::<BTreeSet<_>>()
    };
    let (before, after) = (leaks_at(1), leaks_at(2));
    assert!(
        after.difference(&before).next().is_some(),
        "the flip must convict a route that did not move:\n{before:#?}\n{after:#?}"
    );
}

// ---------- the anchor's lookups, hand-built ----------

/// The worlds the hand-built anchor cases below are built in: Tiny seed
/// 9, then each seed `RPI_DIFF_SEEDS` names.
fn anchor_seeds() -> impl Iterator<Item = u64> {
    std::iter::once(9).chain(env_seeds())
}

/// Has each of `peers` announce `prefix` over `path` (next hop first,
/// the peer itself left out) in `day`, replacing its row there.
pub(crate) fn announce(day: &mut SimOutput, prefix: Ipv4Prefix, peers: &[Asn], path: &[Asn]) {
    let rows = day.collector.rows.entry(prefix).or_default();
    for &peer in peers {
        rows.retain(|r| r.peer != peer);
        rows.push(bgp_sim::CollectorRow {
            peer,
            path: std::iter::once(peer).chain(path.iter().copied()).collect(),
            communities: Vec::new(),
        });
    }
}

pub(crate) fn pfx(s: &str) -> Ipv4Prefix {
    s.parse().expect("a valid prefix")
}

/// The three lookups a judgement makes in the anchor, each in a world
/// where a wrong one changes the answer. No AS involved is a collector
/// peer; `p` has the customer `c`, which is outside `x`'s cone.
///
/// * Nested covers: the anchor stores `200.0.0.0/8` by `p` and
///   `200.1.0.0/16` by `x`; `c` announcing `200.1.2.0/24` is judged
///   against `x`, the longest cover — against `p` it would be routine.
/// * One-vantage covers: `201.0.0.0/16` and `201.1.0.0/16` by `x`, each
///   stored by one peer (the first, the last) at the anchor; `c`'s /24
///   inside each is a subprefix hijack, so covers are looked up in every
///   anchor table.
/// * A multi-origin baseline: `202.0.0.0/16` announced by `p` at one peer
///   and `x` at the others; `c` joining at a third is inside `p`'s cone,
///   so no origin hijack, but a MOAS whose owner list names both.
#[test]
fn the_anchor_is_looked_up_for_owners_and_covers() {
    for seed in anchor_seeds() {
        let (g, peers, mut day0) = one_day_of(seed);
        let free: Vec<Asn> = g.ases().filter(|a| !peers.contains(a)).collect();
        let (p, c, x) = free
            .iter()
            .find_map(|&p| {
                let c = g.customers_of(p).find(|c| free.contains(c))?;
                let x = free
                    .iter()
                    .copied()
                    .find(|&x| x != p && x != c && !CustomerCone::build(&g, x).contains(c))?;
                Some((p, c, x))
            })
            .unwrap_or_else(|| panic!("seed {seed}: an owner, its customer and a stranger"));
        let (first, last) = (&peers[..1], &peers[peers.len() - 1..]);

        announce(&mut day0, pfx("200.0.0.0/8"), &peers, &[p]);
        announce(&mut day0, pfx("200.1.0.0/16"), &peers, &[x]);
        announce(&mut day0, pfx("201.0.0.0/16"), first, &[x]);
        announce(&mut day0, pfx("201.1.0.0/16"), last, &[x]);
        announce(&mut day0, pfx("202.0.0.0/16"), &peers, &[x]);
        announce(&mut day0, pfx("202.0.0.0/16"), first, &[p]);
        let mut day1 = day0.clone();
        for sub in ["200.1.2.0/24", "201.0.1.0/24", "201.1.1.0/24"] {
            announce(&mut day1, pfx(sub), &peers, &[c]);
        }
        announce(&mut day1, pfx("202.0.0.0/16"), &peers[1..2], &[c]);

        let labels: Vec<String> = (0..2).map(|i| format!("d{i}")).collect();
        let subs = ["200.1.2.0/24", "201.0.1.0/24", "202.0.0.0/16"].map(pfx);
        let reqs = requests(2, &peers, &subs, &mut StdRng::seed_from_u64(seed));
        let oracles = vec![g; 2];
        let tag = format!("anchor-lookups-{seed}");
        let answers = hold(&tag, &labels, &[day0, day1], &oracles, &reqs);
        let all = &answers[0];
        let mut owners = [p, x];
        owners.sort_unstable();
        let both = format!("(owners {},{})", owners[0], owners[1]);
        for (kind, prefix, owners) in [
            ("subprefix-hijack", "200.1.2.0/24", format!("(owners {x})")),
            ("subprefix-hijack", "201.0.1.0/24", format!("(owners {x})")),
            ("subprefix-hijack", "201.1.1.0/24", format!("(owners {x})")),
            ("moas", "202.0.0.0/16", both),
        ] {
            let line = event_line(1, kind, pfx(prefix), c) + &owners;
            assert!(all.contains(&line), "seed {seed}: {line}:\n{all}");
        }
        let line = event_line(1, "origin-hijack", pfx("202.0.0.0/16"), c);
        assert!(!all.contains(&line), "seed {seed}: {line}:\n{all}");
    }
}

/// `uptime` reads a prefix's presence at the anchor only where it flips
/// or where the histogram asks. At one peer `v`, two hand-built prefixes
/// are selectively announced (learned from a non-customer `n`, the origin
/// `o` in `v`'s cone) or exported (learned from `o` itself) over four
/// days: `204.0.0.0/16` is absent at the anchor, then SA, exported, SA —
/// shifted, uptime 3; `204.1.0.0/16` is SA at the anchor, withdrawn, then
/// SA twice — remaining, uptime 3, which a fold starting it absent counts
/// as 1.
#[test]
fn uptime_looks_up_the_anchor_where_presence_is_asked() {
    for seed in anchor_seeds() {
        let (g, peers, day) = one_day_of(seed);
        let (v, o, n) = peers
            .iter()
            .find_map(|&v| {
                let o = g.customers_of(v).next()?;
                let n = g.neighbors(v).find(|&(n, _)| n != o && !g.is_down(v, n))?.0;
                Some((v, o, n))
            })
            .unwrap_or_else(|| panic!("seed {seed}: a peer with a customer and a non-customer"));
        let (shifted, back) = (pfx("204.0.0.0/16"), pfx("204.1.0.0/16"));
        let (sa, exported) = ([n, o], [o]);
        let mut days = vec![day; 4];
        for (d, out) in days.iter_mut().enumerate() {
            if d > 0 {
                announce(out, shifted, &[v], if d == 2 { &exported } else { &sa });
            }
            if d != 1 {
                announce(out, back, &[v], &sa);
            }
        }

        let labels: Vec<String> = (0..4).map(|i| format!("d{i}")).collect();
        let reqs = requests(
            4,
            &peers,
            &[shifted, back],
            &mut StdRng::seed_from_u64(seed),
        );
        let oracles = vec![g; 4];
        hold(
            &format!("uptime-anchor-{seed}"),
            &labels,
            &days,
            &oracles,
            &reqs,
        );

        // The cases bite: both prefixes are ever-SA, so the histogram
        // reads them, with the counts the series was built to give.
        let mut engine = QueryEngine::default();
        for (label, out) in labels.iter().zip(&days) {
            engine.ingest_output(out, &oracles[0], label);
        }
        let sym = engine.interner.lookup_asn(v).expect("a vantage");
        let ids: Vec<SnapshotId> = (0..4).map(SnapshotId).collect();
        let (present, sa_count) = engine.uptime_counts(sym, &ids).expect("in range");
        for (prefix, expected) in [(shifted, (3, 2)), (back, (3, 3))] {
            let got = (present.get(&prefix), sa_count.get(&prefix));
            assert_eq!(
                got,
                (Some(&expected.0), Some(&expected.1)),
                "seed {seed}: {prefix} at {v}"
            );
        }
    }
}

/// A filing is a verdict *and* an origin. At one peer `v`,
/// `206.0.0.0/16` is selectively announced — learned from a non-customer
/// `n` — by `v`'s customer `a` at the first snapshot and by its customer
/// `b` from the second on, so its verdict never moves. `sa` there must
/// name `b` and `top-sa` must move, on every engine: a carried SA cache
/// that compared verdicts only would still name `a`.
#[test]
fn an_sa_prefix_reoriginated_by_another_customer_moves_its_filing() {
    for seed in anchor_seeds() {
        let (g, peers, day) = one_day_of(seed);
        let (v, a, b, n) = peers
            .iter()
            .find_map(|&v| {
                let mut customers = g.customers_of(v);
                let (a, b) = (customers.next()?, customers.next()?);
                let n = g.neighbors(v).find(|&(n, _)| !g.is_down(v, n))?.0;
                Some((v, a, b, n))
            })
            .unwrap_or_else(|| panic!("seed {seed}: a peer with two customers and a non-customer"));
        let prefix = pfx("206.0.0.0/16");
        let days: Vec<SimOutput> = [a, b, b]
            .iter()
            .map(|&origin| {
                let mut out = day.clone();
                announce(&mut out, prefix, &[v], &[n, origin]);
                out
            })
            .collect();

        let labels: Vec<String> = (0..3).map(|i| format!("d{i}")).collect();
        let mut reqs = requests(3, &peers, &[prefix], &mut StdRng::seed_from_u64(seed));
        let sa_at = |i| Query::SaStatus { vantage: v, prefix }.at(Scope::Id(SnapshotId(i)));
        let top_sa = Query::TopKSaOrigins {
            vantage: v,
            k: 1000,
        };
        let top_sa_at = |i| top_sa.clone().at(Scope::Id(SnapshotId(i)));
        reqs.extend((0..3).flat_map(|i| [sa_at(i), top_sa_at(i)]));
        reqs.push(top_sa.clone().at(Scope::All));
        let oracles = vec![g; 3];
        let tag = format!("sa-reorigin-{seed}");
        let answers = hold(&tag, &labels, &days, &oracles, &reqs);

        for (i, origin) in [(0, a), (1, b)] {
            let req = sa_at(i);
            let want = Response::Sa(SaStatus::SelectivelyAnnounced { origin });
            let got = &answers[answer_to(&reqs, &req)];
            assert_eq!(*got, render_response(&req, &want), "seed {seed}: {v} @{i}");
        }
        let top_sa_of = |i| &answers[answer_to(&reqs, &top_sa_at(i))];
        assert_ne!(top_sa_of(0), top_sa_of(1), "seed {seed}: `top-sa` at {v}");
    }
}

/// A conviction names the leaker of the route stored now. At one peer
/// `v`, `208.0.0.0/16` is learned from `v`'s customer `c1`, which heard
/// it from its other provider `m1` — so `c1` leaks it — and from the
/// second snapshot on from the customer `c2`, which heard it from its
/// provider `m2`: still convicted, now of `c2`. A patch that compared
/// convictions by presence alone would still name `c1`.
#[test]
fn a_conviction_names_the_leaker_of_the_route_stored_now() {
    for seed in anchor_seeds() {
        let (g, peers, day) = one_day_of(seed);
        let leak = |v: Asn, other_than: Option<Asn>| {
            (g.customers_of(v).filter(|&c| Some(c) != other_than))
                .find_map(|c| Some((c, g.providers_of(c).find(|&m| m != v)?)))
        };
        let (v, (c1, m1), (c2, m2)) = peers
            .iter()
            .find_map(|&v| {
                let first = leak(v, None)?;
                Some((v, first, leak(v, Some(first.0))?))
            })
            .unwrap_or_else(|| panic!("seed {seed}: a peer with two multi-homed customers"));
        let prefix = pfx("208.0.0.0/16");
        let days: Vec<SimOutput> = [(c1, m1), (c2, m2), (c2, m2)]
            .iter()
            .map(|&(c, m)| {
                let mut out = day.clone();
                announce(&mut out, prefix, &[v], &[c, m]);
                out
            })
            .collect();

        let labels: Vec<String> = (0..3).map(|i| format!("d{i}")).collect();
        let reqs = requests(3, &peers, &[prefix], &mut StdRng::seed_from_u64(seed));
        let oracles = vec![g; 3];
        let tag = format!("leaker-moves-{seed}");
        let answers = hold(&tag, &labels, &days, &oracles, &reqs);
        for (i, leaker) in [(0, c1), (1, c2)] {
            let leaks = &answers[answer_to(&reqs, &Query::Leaks.at(Scope::Id(SnapshotId(i))))];
            let event = format!("\n  {prefix} at {v}: leaked by {leaker} path ");
            assert!(
                leaks.contains(&event),
                "seed {seed} @{i}: {event}:\n{leaks}"
            );
        }
    }
}
