//! The tier correctness contract, enforced differentially: a
//! tier-attached engine (`--hot-cap`) must answer **every** protocol
//! verb byte-identically to the fully hydrated engine over the same
//! archive — zero-copy cold answers, chain-replayed hydrations, LRU
//! evictions and re-hydrations included — and a damaged mapped segment
//! must surface as a typed `QueryError::Corrupt`, never a panic and
//! never a wrong answer.
//!
//! The scenario harness mirrors `archive.rs`: seeded churn series drive
//! keyframed archives, and a seeded query fuzzer compares rendered
//! responses byte for byte at several hot-cap settings.

use rand::prelude::*;
use rand::rngs::StdRng;

use bgp_sim::churn::simulate_series;
use bgp_sim::{ChurnConfig, GroundTruth, PolicyParams, SimOutput, VantageSpec};
use bgp_types::{Asn, Ipv4Prefix};
use net_topology::{AsGraph, InternetConfig, InternetSize};
use rpi_query::{
    render_response, Query, QueryEngine, QueryError, QueryRequest, Residency, SaveOptions, Scope,
    SnapshotId,
};
use rpi_sec::{Roa, RoaTable};
use rpi_store::{Manifest, SegmentKind};

const SNAPSHOTS: usize = 6;
const QUERIES: usize = 300;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rpi-tier-test-{tag}-{}-{}",
        std::process::id(),
        std::thread::current()
            .name()
            .unwrap_or("t")
            .replace("::", "-"),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Scenario {
    labels: Vec<String>,
    outputs: Vec<SimOutput>,
    oracles: Vec<AsGraph>,
    vantages: Vec<Asn>,
    prefixes: Vec<Ipv4Prefix>,
}

fn build_scenario(seed: u64) -> Scenario {
    build_scenario_steps(seed, SNAPSHOTS)
}

fn build_scenario_steps(seed: u64, steps: usize) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x71E2_0A11);
    let g = InternetConfig::of_size(InternetSize::Tiny)
        .with_seed(seed)
        .build();
    let truth = GroundTruth::generate(&g, &PolicyParams::default());
    let spec = VantageSpec::paper_like(&g, 8, 4);
    let cfg = ChurnConfig {
        seed,
        steps,
        flip_prob: rng.gen_range(0.1..0.6),
        link_failure_prob: rng.gen_range(0.05..0.4),
        label: "tr",
    };
    let series = simulate_series(&g, &truth, &spec, &cfg);

    let mut vantages: Vec<Asn> = spec.collector_peers.clone();
    vantages.extend(&spec.lg_ases);
    vantages.push(Asn(65_500)); // never a vantage
    vantages.dedup();
    let mut prefixes: Vec<Ipv4Prefix> = series
        .snapshots
        .iter()
        .flat_map(|o| o.collector.rows.keys().copied())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    prefixes.push("203.0.113.0/24".parse().unwrap());
    prefixes.push("0.0.0.0/0".parse().unwrap());

    Scenario {
        labels: series.labels,
        outputs: series.snapshots,
        oracles: vec![g; steps],
        vantages,
        prefixes,
    }
}

/// A collector-only peer of the scenario, taken out of snapshot `at`'s
/// collector view: snapshot `at` is a delta that drops it, and `at + 1`
/// a full segment — the peer comes back — under its predecessor's
/// oracle, unless a keyframe falls there.
fn drop_peer_at(sc: &mut Scenario, at: usize) -> Asn {
    let out = &sc.outputs[0];
    let peer = *(out.collector.peers.iter())
        .find(|p| !out.lgs.contains_key(p))
        .expect("a collector-only peer");
    let view = &mut sc.outputs[at].collector;
    view.peers.retain(|&p| p != peer);
    for rows in view.rows.values_mut() {
        rows.retain(|r| r.peer != peer);
    }
    view.rows.retain(|_, rows| !rows.is_empty());
    peer
}

fn scenario_roas(sc: &Scenario, seed: u64) -> RoaTable {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x40A5_0A75);
    let roas = sc
        .prefixes
        .iter()
        .filter(|p| p.len() > 0)
        .take(8)
        .map(|&prefix| Roa {
            prefix,
            max_len: (prefix.len() + rng.gen_range(0..4u8)).min(32),
            origin: if rng.gen_bool(0.5) {
                *sc.vantages.choose(&mut rng).unwrap()
            } else {
                Asn(64_496 + rng.gen_range(0..4u32))
            },
        })
        .collect();
    RoaTable::new(roas)
}

fn ingest(sc: &Scenario) -> QueryEngine {
    let mut e = QueryEngine::default();
    for (i, (label, out)) in sc.labels.iter().zip(&sc.outputs).enumerate() {
        if i == 0 {
            e.ingest_output(out, &sc.oracles[i], label);
        } else {
            e.ingest_output_incremental(&sc.outputs[i - 1], out, &sc.oracles[i], label);
        }
    }
    e
}

/// Saves the scenario with the given keyframe cadence and returns the
/// archive directory plus its manifest.
fn saved(
    sc: &Scenario,
    seed: u64,
    keyframe_every: Option<usize>,
    tag: &str,
) -> (std::path::PathBuf, Manifest) {
    let mut engine = ingest(sc);
    engine.set_roas(scenario_roas(sc, seed));
    let dir = tmp_dir(tag);
    let manifest = engine
        .save_archive_with(&dir, false, SaveOptions { keyframe_every })
        .expect("save");
    (dir, manifest)
}

fn arb_point_scope(rng: &mut StdRng, n: usize) -> Scope {
    match rng.gen_range(0..4u8) {
        0 => Scope::Latest,
        1 => Scope::Id(SnapshotId(rng.gen_range(0..n as u32))),
        2 => Scope::Id(SnapshotId(n as u32 + 3)),
        _ => Scope::All,
    }
}

fn arb_history_scope(rng: &mut StdRng, n: usize) -> Scope {
    match rng.gen_range(0..3u8) {
        0 => Scope::All,
        1 => {
            let a = rng.gen_range(0..n as u32);
            let b = rng.gen_range(a..n as u32);
            Scope::Range(SnapshotId(a), SnapshotId(b))
        }
        _ => Scope::Latest,
    }
}

/// Every protocol verb, random scopes — the byte-equivalence surface.
fn arb_request(rng: &mut StdRng, sc: &Scenario, n: usize) -> QueryRequest {
    let vantage = *sc.vantages.choose(rng).unwrap();
    let prefix = *sc.prefixes.choose(rng).unwrap();
    match rng.gen_range(0..13u8) {
        0 => Query::Route { vantage, prefix }.at(arb_point_scope(rng, n)),
        1 => Query::Resolve { vantage, prefix }.at(arb_point_scope(rng, n)),
        2 => Query::SaStatus { vantage, prefix }.at(arb_point_scope(rng, n)),
        3 => {
            let b = *sc.vantages.choose(rng).unwrap();
            Query::Relationship { a: vantage, b }.at(arb_point_scope(rng, n))
        }
        4 => Query::PolicySummary { asn: vantage }.at(arb_point_scope(rng, n)),
        5 => {
            let a = rng.gen_range(0..n as u32);
            let b = rng.gen_range(0..n as u32);
            Query::Diff.at(Scope::Range(SnapshotId(a), SnapshotId(b)))
        }
        6 => Query::SaHistory { vantage, prefix }.at(arb_history_scope(rng, n)),
        7 => Query::UptimeHistogram { vantage }.at(arb_history_scope(rng, n)),
        8 => Query::TopKSaOrigins {
            vantage,
            k: rng.gen_range(0..6usize),
        }
        .at(arb_history_scope(rng, n)),
        9 => Query::PersistenceClass { vantage, prefix }.at(arb_history_scope(rng, n)),
        10 => Query::Rov { vantage, prefix }.at(arb_point_scope(rng, n)),
        11 => Query::Hijacks.at(arb_history_scope(rng, n)),
        _ => Query::Leaks.at(arb_point_scope(rng, n)),
    }
}

fn rendered(engine: &QueryEngine, req: &QueryRequest) -> String {
    match engine.execute(req) {
        Ok(resp) => render_response(req, &resp),
        Err(e) => format!("error: {e}"),
    }
}

/// The tentpole contract: at every hot-cap (1 forces constant eviction,
/// larger caps mix residencies) the tiered engine's rendered responses
/// are byte-identical to the hydrated engine's across the whole verb
/// surface.
fn run_differential(seed: u64, keyframe_every: Option<usize>, tag: &str) {
    let sc = build_scenario(seed);
    let (dir, _) = saved(&sc, seed, keyframe_every, tag);
    let hydrated = QueryEngine::load_archive(&dir).expect("hydrated load");
    let n = hydrated.snapshot_count();

    for hot_cap in [1usize, 2, 4] {
        let tiered = QueryEngine::load_archive_tiered(&dir, hot_cap).expect("tiered load");
        let stats = tiered.tier_stats().expect("archives tier-attach");
        assert_eq!(stats.snapshots, n);
        assert_eq!(stats.hot, 0, "attach must not hydrate anything");
        assert_eq!(stats.attaches, n as u64);
        assert_eq!(hydrated.labels(), tiered.labels());

        let mut rng = StdRng::seed_from_u64(seed ^ 0x0AAC_417E ^ hot_cap as u64);
        let mut answered = 0usize;
        for i in 0..QUERIES {
            let req = arb_request(&mut rng, &sc, n);
            let a = rendered(&hydrated, &req);
            let b = rendered(&tiered, &req);
            assert_eq!(
                a, b,
                "seed {seed}, hot_cap {hot_cap}, query {i}: tier diverged on {req:?}"
            );
            if !a.starts_with("error:") {
                answered += 1;
            }
        }
        assert!(
            answered > QUERIES / 2,
            "seed {seed}: degenerate scenario, only {answered}/{QUERIES} answered"
        );

        let stats = tiered.tier_stats().unwrap();
        assert!(
            stats.hot <= hot_cap.max(1),
            "hot set exceeded its cap: {stats:?}"
        );
        assert!(
            stats.hydrations > 0,
            "the fuzz mix must hydrate for history verbs: {stats:?}"
        );
        if hot_cap < n {
            assert!(
                stats.evictions > 0,
                "a cap below the snapshot count must evict: {stats:?}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn differential_keyframed_seed_0xa1() {
    run_differential(0xA1, Some(2), "a1");
}

#[test]
fn differential_keyframed_seed_0xb2() {
    run_differential(0xB2, Some(3), "b2");
}

#[test]
fn differential_unkeyframed_seed_0xc3() {
    // No forced cadence: only the leading full segment anchors chains.
    run_differential(0xC3, None, "c3");
}

/// The seeds `RPI_TIER_SEEDS=seed1,seed2,…` names, none if it is unset.
fn env_seeds() -> Vec<u64> {
    let spec = std::env::var("RPI_TIER_SEEDS").unwrap_or_default();
    spec.split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|part| {
            part.trim()
                .parse()
                .unwrap_or_else(|_| panic!("bad seed '{part}' in RPI_TIER_SEEDS"))
        })
        .collect()
}

/// Extra seeds without a rebuild: `RPI_TIER_SEEDS=7,8 cargo test …`,
/// each at keyframe cadence 2 and at the benchmark's 8.
#[test]
fn differential_extra_seeds_from_env() {
    for seed in env_seeds() {
        run_differential(seed, Some(2), "env");
        run_differential(seed, Some(8), "env8");
    }
}

/// `--keyframe-every N` writes self-contained keyframes on cadence:
/// every delta chain is bounded by N, the leading full segment is a
/// keyframe, and flagged entries are exactly the standalone fulls.
#[test]
fn keyframe_cadence_bounds_every_chain() {
    let sc = build_scenario(0xD4);
    let (dir, manifest) = saved(&sc, 0xD4, Some(2), "cadence");
    let snaps: Vec<_> = manifest.snapshot_segments().collect();
    assert_eq!(snaps.len(), SNAPSHOTS);
    assert!(snaps[0].1.is_keyframe(), "the first segment anchors");

    let mut since_keyframe = 0usize;
    let mut keyframes = 0usize;
    for (_, entry) in &snaps {
        if entry.is_keyframe() {
            assert_eq!(entry.kind, SegmentKind::Full, "keyframes are full");
            since_keyframe = 0;
            keyframes += 1;
        } else {
            since_keyframe += 1;
        }
        assert!(
            since_keyframe < 2,
            "a chain outran --keyframe-every 2: {:?}",
            snaps
                .iter()
                .map(|(_, e)| (e.kind, e.flags))
                .collect::<Vec<_>>()
        );
    }
    assert!(
        keyframes >= SNAPSHOTS / 2,
        "cadence 2 over {SNAPSHOTS} snapshots"
    );

    // The keyframed archive still loads hydrated, byte-identical.
    let hydrated = QueryEngine::load_archive(&dir).expect("load");
    assert_eq!(hydrated.snapshot_count(), SNAPSHOTS);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every point verb at every id of a tier-attached archive is read off
/// the mapped chain — a keyframe's trie alone at cadence 1, deltas over
/// a keyframe at cadence 8 (the benchmark's), deltas over the leading
/// full segment with no cadence — and renders the hydrated engine's
/// bytes: nothing hydrates, nothing turns hot, every query is a cold
/// hit. A collector peer is missing from one snapshot, so chains cross
/// a dropped vantage and re-anchor at the full segment that brings it
/// back, which shares the earlier keyframe's oracle.
#[test]
fn cold_point_queries_never_hydrate() {
    let mut sc = build_scenario_steps(0xE5, 12);
    let dropped = drop_peer_at(&mut sc, 4);
    for keyframe_every in [Some(1), Some(8), None] {
        let tag = format!("cold-{}", keyframe_every.unwrap_or(0));
        let (dir, manifest) = saved(&sc, 0xE5, keyframe_every, &tag);
        let shape: Vec<(SegmentKind, bool)> = (manifest.snapshot_segments())
            .map(|(_, e)| (e.kind, e.is_keyframe()))
            .collect();
        if keyframe_every == Some(1) {
            assert!(shape.iter().all(|&(_, keyframe)| keyframe), "{shape:?}");
        } else {
            assert_eq!(shape[4], (SegmentKind::Delta, false), "{shape:?}");
            assert_eq!(shape[5], (SegmentKind::Full, false), "{shape:?}");
        }

        let hydrated = QueryEngine::load_archive(&dir).expect("hydrated load");
        let tiered = QueryEngine::load_archive_tiered(&dir, 1).expect("tiered load");
        let mut asked = 0u64;
        let mut negative = 0u64;
        for i in 0..sc.outputs.len() {
            let scope = Scope::Id(SnapshotId(i as u32));
            for &vantage in &sc.vantages {
                let mut queries: Vec<Query> = (sc.vantages.iter())
                    .map(|&b| Query::Relationship { a: vantage, b })
                    .collect();
                for &prefix in sc.prefixes.iter().step_by(13) {
                    let host = Ipv4Prefix::canonical(prefix.bits(), 32);
                    queries.extend([
                        Query::Route { vantage, prefix },
                        Query::Resolve { vantage, prefix },
                        Query::Resolve {
                            vantage,
                            prefix: host,
                        },
                        Query::SaStatus { vantage, prefix },
                        Query::Rov { vantage, prefix },
                    ]);
                }
                for query in queries {
                    let req = query.at(scope.clone());
                    let want = rendered(&hydrated, &req);
                    assert_eq!(
                        rendered(&tiered, &req),
                        want,
                        "cadence {keyframe_every:?}: {req:?}"
                    );
                    assert!(!want.starts_with("error:"), "{want}");
                    negative += want.contains("is not a vantage") as u64;
                    asked += 1;
                }
            }
            assert_eq!(
                tiered.residency(SnapshotId(i as u32)),
                Some(Residency::Cold)
            );
        }
        let sa_at = |i: u32| {
            let prefix = sc.prefixes[0];
            Query::SaStatus {
                vantage: dropped,
                prefix,
            }
            .at(Scope::Id(SnapshotId(i)))
        };
        assert!(rendered(&tiered, &sa_at(4)).contains("is not a vantage"));
        assert!(!rendered(&tiered, &sa_at(5)).contains("is not a vantage"));
        asked += 2;
        assert!(negative > 0 && negative < asked, "{negative} of {asked}");
        let stats = tiered.tier_stats().unwrap();
        assert_eq!(
            (stats.hydrations, stats.hot),
            (0, 0),
            "cadence {keyframe_every:?}: point queries must stay on the mapping"
        );
        assert_eq!(stats.cold_hits, asked, "cadence {keyframe_every:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `sa-history` and `persistence` are an `sa` point read at each scoped
/// id: at `@all`, at every single id and over ascending ranges, at
/// cadences 1, 8 and none, a `--hot-cap 1` tier answers them off the
/// mapped chains with the hydrated engine's bytes and hydrates nothing.
/// A collector peer is missing from one snapshot, so its history has a
/// point where it is no vantage. Seed 0xE5, then each `RPI_TIER_SEEDS`
/// names.
#[test]
fn per_prefix_history_never_hydrates() {
    for seed in std::iter::once(0xE5).chain(env_seeds()) {
        let mut sc = build_scenario_steps(seed, 12);
        let dropped = drop_peer_at(&mut sc, 4);
        let n = sc.outputs.len() as u32;
        let mut scopes = vec![Scope::All];
        scopes.extend((0..n).map(|i| Scope::Id(SnapshotId(i))));
        scopes.extend((0..n).step_by(3).map(|a| {
            let b = (a + 4).min(n - 1);
            Scope::Range(SnapshotId(a), SnapshotId(b))
        }));
        for keyframe_every in [Some(1), Some(8), None] {
            let tag = format!("per-prefix-{seed}-{}", keyframe_every.unwrap_or(0));
            let (dir, _) = saved(&sc, seed, keyframe_every, &tag);
            let hydrated = QueryEngine::load_archive(&dir).expect("hydrated load");
            let tiered = QueryEngine::load_archive_tiered(&dir, 1).expect("tiered load");
            let mut answers = String::new();
            for &vantage in &sc.vantages {
                for &prefix in sc.prefixes.iter().step_by(13) {
                    for scope in &scopes {
                        for query in [
                            Query::SaHistory { vantage, prefix },
                            Query::PersistenceClass { vantage, prefix },
                        ] {
                            let req = query.at(scope.clone());
                            let want = rendered(&hydrated, &req);
                            assert_eq!(
                                rendered(&tiered, &req),
                                want,
                                "seed {seed}, cadence {keyframe_every:?}: {req:?}"
                            );
                            answers += &want;
                        }
                    }
                }
            }
            let gap = format!("\n  4 {}: {dropped} is not a vantage", sc.labels[4]);
            assert!(answers.contains(&gap), "seed {seed}: {gap}");
            assert!(answers.contains("SELECTIVELY ANNOUNCED"), "seed {seed}");
            let stats = tiered.tier_stats().unwrap();
            assert_eq!(
                (stats.hydrations, stats.hot),
                (0, 0),
                "seed {seed}, cadence {keyframe_every:?}: per-prefix history hydrated"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Listing never hydrates: each id's vantages are read off its chain —
/// the anchoring full segment's directory less what the chain dropped —
/// and are the hydrated engine's, the dropped peer missing exactly where
/// it was.
#[test]
fn listing_vantages_never_hydrates() {
    let mut sc = build_scenario_steps(0x5E, 12);
    let dropped = drop_peer_at(&mut sc, 4);
    let (dir, _) = saved(&sc, 0x5E, Some(8), "list");
    let hydrated = QueryEngine::load_archive(&dir).expect("hydrated load");
    let tiered = QueryEngine::load_archive_tiered(&dir, 1).expect("tiered load");
    for i in 0..sc.outputs.len() {
        let id = SnapshotId(i as u32);
        let listed = tiered.vantages_in(id);
        assert_eq!(listed, hydrated.vantages_in(id), "@{i}");
        let has_dropped = listed.iter().any(|&(a, _)| a == dropped);
        assert_eq!(has_dropped, i != 4, "@{i}");
    }
    assert_eq!(tiered.vantages(), hydrated.vantages());
    let stats = tiered.tier_stats().unwrap();
    assert_eq!((stats.hydrations, stats.hot), (0, 0), "listing hydrated");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `resolve` at `engine` against a brute-force longest cover over
/// `peer`'s table in every snapshot of `sc`: for every stored prefix —
/// itself, both of its halves, its first and last address — and for one
/// uncovered address.
fn assert_resolve_is_the_longest_cover(engine: &QueryEngine, sc: &Scenario, peer: Asn, pass: &str) {
    use rpi_core::view::BestTable;
    use rpi_query::Response;

    let uncovered: Ipv4Prefix = "203.0.113.7/32".parse().unwrap();
    for (i, out) in sc.outputs.iter().enumerate() {
        let table = BestTable::from_collector(&out.collector, peer);
        let mut probes = vec![uncovered];
        for &p in table.rows.keys() {
            probes.push(p);
            if p.len() < 32 {
                let half = 1u32 << (31 - p.len());
                probes.push(Ipv4Prefix::canonical(p.bits(), p.len() + 1));
                probes.push(Ipv4Prefix::canonical(p.bits() | half, p.len() + 1));
                probes.push(Ipv4Prefix::canonical(p.bits(), 32));
                probes.push(Ipv4Prefix::canonical(p.bits() | (half - 1) | half, 32));
            }
        }
        for probe in probes {
            let want = table
                .rows
                .iter()
                .filter(|(q, _)| q.covers(probe))
                .max_by_key(|(q, _)| q.len())
                .map(|(&q, row)| (q, row.next_hop, row.path.clone()));
            assert_eq!(want.is_none(), probe == uncovered, "{probe}");
            let req = Query::Resolve {
                vantage: peer,
                prefix: probe,
            }
            .at(Scope::Id(SnapshotId(i as u32)));
            let got = match engine.execute(&req).expect("resolve") {
                Response::Route(ans) => ans.map(|a| (a.prefix, a.next_hop, a.path)),
                other => panic!("resolve answered {other:?}"),
            };
            assert_eq!(got, want, "{pass}, snapshot {i}: resolve {probe}");
        }
    }
}

/// A collector-only peer of `sc` and, per snapshot, `family` spliced
/// into its table: in snapshot `i`, each prefix carries its schedule's
/// row `i` of `rows` — `0` leaves it out.
fn splice_family(sc: &mut Scenario, family: &[(&str, [usize; SNAPSHOTS])]) -> Asn {
    let peer = *sc.outputs[0]
        .collector
        .peers
        .iter()
        .find(|p| !sc.outputs[0].lgs.contains_key(p))
        .expect("a collector-only peer");
    let (first, other) = {
        let mut rows = sc.outputs[0]
            .collector
            .all_paths()
            .filter(|r| r.peer == peer);
        let first = rows.next().expect("the peer has routes").clone();
        let other = rows
            .find(|r| r.path != first.path)
            .expect("two paths")
            .clone();
        (first, other)
    };
    for (i, out) in sc.outputs.iter_mut().enumerate() {
        for &(p, schedule) in family {
            let p: Ipv4Prefix = p.parse().unwrap();
            let row = match schedule[i] {
                0 => continue,
                1 => first.clone(),
                _ => other.clone(),
            };
            let rows = out.collector.rows.entry(p).or_default();
            assert!(rows.iter().all(|r| r.peer != peer), "{p} already routed");
            rows.push(row);
        }
    }
    peer
}

/// One trie per vantage: `resolve` is a single longest-prefix walk, hot
/// or cold. A nested family (a /8 covering /16s covering /24s) is
/// spliced into one collector peer's table in every snapshot; then for
/// every stored prefix — itself, both of its halves, its first and last
/// address — and for one uncovered address, `resolve` must equal a
/// brute-force longest cover over the table that was ingested: from the
/// hydrated load, and from the tiered load both before hydration (the
/// mapped `FlatTrie` walk) and after it.
#[test]
fn resolve_is_the_brute_force_longest_cover_hot_and_cold() {
    let mut sc = build_scenario(0x5C);
    let peer = splice_family(
        &mut sc,
        &[
            ("100.0.0.0/8", [1; SNAPSHOTS]),
            ("100.1.0.0/16", [1; SNAPSHOTS]),
            ("100.2.0.0/16", [1; SNAPSHOTS]),
            ("100.1.1.0/24", [1; SNAPSHOTS]),
            ("100.1.2.0/24", [1; SNAPSHOTS]),
            ("100.2.3.0/24", [1; SNAPSHOTS]),
        ],
    );

    // Cadence 1: every snapshot is a keyframe, so every cold `resolve`
    // walks the mapping.
    let (dir, _) = saved(&sc, 0x5C, Some(1), "lpm");
    let hydrated = QueryEngine::load_archive(&dir).expect("hydrated load");
    let tiered = QueryEngine::load_archive_tiered(&dir, SNAPSHOTS).expect("tiered load");

    assert_resolve_is_the_longest_cover(&hydrated, &sc, peer, "hydrated");
    assert_resolve_is_the_longest_cover(&tiered, &sc, peer, "cold");
    let stats = tiered.tier_stats().unwrap();
    assert_eq!((stats.hot, stats.hydrations), (0, 0), "cold pass hydrated");
    assert!(stats.cold_hits > 0);

    for i in 0..SNAPSHOTS {
        let req = Query::PolicySummary { asn: peer }.at(Scope::Id(SnapshotId(i as u32)));
        tiered.execute(&req).expect("summary hydrates");
    }
    let cold_hits = stats.cold_hits;
    assert_resolve_is_the_longest_cover(&tiered, &sc, peer, "hot");
    let stats = tiered.tier_stats().unwrap();
    assert_eq!(
        stats.hot, SNAPSHOTS,
        "every snapshot stays hot under the cap"
    );
    assert_eq!(stats.cold_hits, cold_hits, "the hot pass read a mapping");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `resolve` at delta-backed ids is the longest cover over the keyframe
/// and every overlay of the chain while a nested family churns inside
/// it: a /24 withdrawn under a /16 that stays (and back later), a /16
/// withdrawn over a /24 that stays (and back later), /24s announced
/// mid-chain — one under the /8 alone, withdrawn again — the /8 itself
/// withdrawn, and a /24 whose route is replaced. Cold, then hot.
#[test]
fn resolve_is_the_longest_cover_across_churned_overlays() {
    let mut sc = build_scenario(0x6D);
    let peer = splice_family(
        &mut sc,
        &[
            ("100.0.0.0/8", [1, 1, 1, 1, 0, 0]),
            ("100.1.0.0/16", [1, 1, 1, 1, 1, 1]),
            ("100.1.1.0/24", [1, 0, 0, 0, 0, 1]),
            ("100.1.2.0/24", [1, 1, 1, 1, 1, 2]),
            ("100.2.0.0/16", [1, 1, 0, 0, 1, 1]),
            ("100.2.3.0/24", [1, 1, 1, 1, 1, 1]),
            ("100.1.3.0/24", [0, 0, 0, 1, 1, 1]),
            ("100.3.4.0/24", [0, 0, 0, 1, 1, 0]),
        ],
    );
    let (dir, manifest) = saved(&sc, 0x6D, None, "lpm-churn");
    let deltas = (manifest.snapshot_segments())
        .filter(|(_, e)| e.kind == SegmentKind::Delta)
        .count();
    assert_eq!(deltas, SNAPSHOTS - 1, "every id after 0 is delta-backed");
    let hydrated = QueryEngine::load_archive(&dir).expect("hydrated load");
    let tiered = QueryEngine::load_archive_tiered(&dir, SNAPSHOTS).expect("tiered load");

    assert_resolve_is_the_longest_cover(&hydrated, &sc, peer, "hydrated");
    assert_resolve_is_the_longest_cover(&tiered, &sc, peer, "cold");
    let stats = tiered.tier_stats().unwrap();
    assert_eq!((stats.hot, stats.hydrations), (0, 0), "cold pass hydrated");
    for i in 0..SNAPSHOTS {
        let req = Query::PolicySummary { asn: peer }.at(Scope::Id(SnapshotId(i as u32)));
        tiered.execute(&req).expect("summary hydrates");
    }
    assert_resolve_is_the_longest_cover(&tiered, &sc, peer, "hot");
    let _ = std::fs::remove_dir_all(&dir);
}

/// LRU round trip: hydrations land hot, the cap evicts the
/// least-recently-used back to cold, and a re-hydration answers
/// byte-identically to the first.
#[test]
fn eviction_and_rehydration_round_trip() {
    let sc = build_scenario(0xF6);
    let (dir, _) = saved(&sc, 0xF6, Some(2), "lru");
    let hydrated = QueryEngine::load_archive(&dir).expect("hydrated load");
    let tiered = QueryEngine::load_archive_tiered(&dir, 1).expect("tiered load");

    let asn = sc.vantages[0];
    let summary_at = |id: u32| Query::PolicySummary { asn }.at(Scope::Id(SnapshotId(id)));

    // Hydrate snapshot 0, then 5 (evicting everything older), then 0
    // again (re-hydrating from its keyframe).
    let first = rendered(&tiered, &summary_at(0));
    assert_eq!(tiered.residency(SnapshotId(0)), Some(Residency::Hot));

    let _ = rendered(&tiered, &summary_at(SNAPSHOTS as u32 - 1));
    assert_eq!(
        tiered.residency(SnapshotId(0)),
        Some(Residency::Cold),
        "cap 1 must evict snapshot 0"
    );
    assert_eq!(
        tiered.residency(SnapshotId(SNAPSHOTS as u32 - 1)),
        Some(Residency::Hot)
    );

    let again = rendered(&tiered, &summary_at(0));
    assert_eq!(first, again, "re-hydration changed an answer");
    assert_eq!(first, rendered(&hydrated, &summary_at(0)));

    let stats = tiered.tier_stats().unwrap();
    assert!(stats.evictions > 0);
    assert_eq!(stats.hot, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A keyframe hydrated while its predecessor is hot is decoded onto it,
/// so the two share trie nodes as an eager load's pair does. Hydrated
/// the other way round — the keyframe first, its predecessor still cold
/// — it is decoded standalone and shares none. Sharing is read off the
/// hot set alone: a cold snapshot has none to report.
#[test]
fn a_keyframe_hydrated_onto_its_hot_predecessor_shares_with_it() {
    let sc = build_scenario(0xE5);
    let (dir, manifest) = saved(&sc, 0xE5, Some(3), "kf-onto-hot");
    let k = 3;
    let entry = manifest.snapshot_segments().nth(k).unwrap().1;
    assert!(entry.is_keyframe(), "snapshot {k} is a keyframe");
    let eager = QueryEngine::load_archive(&dir).expect("hydrated load");
    let (shared, _) = eager.sharing_with_prev(SnapshotId(k as u32)).unwrap();
    assert!(
        shared > 0,
        "an eager load decodes keyframe {k} onto {}",
        k - 1
    );

    let asn = sc.vantages[0];
    let hydrate = |engine: &QueryEngine, id: usize| {
        rendered(
            engine,
            &Query::PolicySummary { asn }.at(Scope::Id(SnapshotId(id as u32))),
        )
    };
    let (prev, kf) = (SnapshotId(k as u32 - 1), SnapshotId(k as u32));
    for predecessor_first in [true, false] {
        let tiered = QueryEngine::load_archive_tiered(&dir, SNAPSHOTS).expect("tiered load");
        assert_eq!(tiered.sharing_with_prev(kf), None, "nothing is hot yet");
        let order = if predecessor_first {
            [k - 1, k]
        } else {
            [k, k - 1]
        };
        for id in order {
            assert_eq!(hydrate(&tiered, id), hydrate(&eager, id));
        }
        assert_eq!(tiered.residency(prev), Some(Residency::Hot));
        let (shared, total) = tiered.sharing_with_prev(kf).unwrap();
        assert_eq!(
            shared > 0,
            predecessor_first,
            "{shared}/{total} nodes shared, predecessor hydrated first: {predecessor_first}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// History walks spanning hot and cold snapshots answer identically to
/// the hydrated engine (`uptime` and `hijacks` hydrate cold members
/// through the LRU mid-query, as `top-sa` and `diff` do; `sa-history`
/// and `persistence` read them in place).
#[test]
fn history_spans_hot_and_cold() {
    let sc = build_scenario(0x17);
    let (dir, _) = saved(&sc, 0x17, Some(2), "hist");
    let hydrated = QueryEngine::load_archive(&dir).expect("hydrated load");
    let tiered = QueryEngine::load_archive_tiered(&dir, 2).expect("tiered load");

    // Pin one snapshot hot first, so the @all walk genuinely mixes
    // residencies.
    let asn = sc.vantages[0];
    let _ = rendered(
        &tiered,
        &Query::PolicySummary { asn }.at(Scope::Id(SnapshotId(2))),
    );

    for &vantage in sc.vantages.iter().take(4) {
        for &prefix in sc.prefixes.iter().take(4) {
            for req in [
                Query::SaHistory { vantage, prefix }.at(Scope::All),
                Query::UptimeHistogram { vantage }.at(Scope::All),
                Query::PersistenceClass { vantage, prefix }
                    .at(Scope::Range(SnapshotId(1), SnapshotId(4))),
                Query::Hijacks.at(Scope::All),
            ] {
                assert_eq!(
                    rendered(&hydrated, &req),
                    rendered(&tiered, &req),
                    "history diverged on {req:?}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flipped byte in a mapped segment surfaces on first touch as a typed
/// `QueryError::Corrupt` naming the file — lazily, so the attach itself
/// still succeeds, and the error is an answer, never a panic.
#[test]
fn corrupt_mapped_segment_is_a_typed_error() {
    let sc = build_scenario(0x28);
    let (dir, manifest) = saved(&sc, 0x28, Some(1), "corrupt");
    let entry = manifest
        .snapshot_segments()
        .next()
        .map(|(_, e)| e.clone())
        .expect("snapshot segments exist");
    let path = dir.join(&entry.file);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&path, &bytes).unwrap();

    // Attach succeeds: integrity is checked lazily, at first read.
    let tiered = QueryEngine::load_archive_tiered(&dir, 1).expect("attach is lazy");
    let req = Query::Route {
        vantage: sc.vantages[0],
        prefix: sc.prefixes[0],
    }
    .at(Scope::Id(SnapshotId(0)));
    match tiered.execute(&req) {
        Err(QueryError::Corrupt { file, what, .. }) => {
            assert_eq!(file, entry.file);
            assert!(what.contains("checksum"), "unexpected what: {what}");
        }
        other => panic!("wanted Corrupt, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cold chain read verifies and decodes every segment it crosses. A
/// byte flipped in an intermediate delta segment makes a point query at
/// the newest id a typed `Corrupt` naming that segment, and so does a
/// delta event naming an AS the symbol table lacks in a segment whose
/// checksum was recomputed — what the hydrating load reports for it too.
/// Never a panic, never a silent answer.
#[test]
fn corruption_reached_through_a_chain_is_a_typed_error() {
    use bgp_sim::DeltaRoute;
    use rpi_store::StoreError;

    let sc = build_scenario(0x3C);
    let (dir, manifest) = saved(&sc, 0x3C, None, "chain-corrupt");
    let segs: Vec<(usize, rpi_store::SegmentEntry)> = (manifest.snapshot_segments())
        .map(|(i, e)| (i, e.clone()))
        .collect();
    assert!(segs[1..].iter().all(|(_, e)| e.kind == SegmentKind::Delta));
    let (vantage, prefix) = (sc.vantages[0], sc.prefixes[0]);
    let req = Query::Route { vantage, prefix }.at(Scope::Id(SnapshotId(SNAPSHOTS as u32 - 1)));
    let want = rendered(
        &QueryEngine::load_archive(&dir).expect("hydrated load"),
        &req,
    );
    let tiered = QueryEngine::load_archive_tiered(&dir, 1).expect("tiered load");
    assert_eq!(rendered(&tiered, &req), want);

    // A flipped byte in the intermediate delta behind id 2.
    let path = dir.join(&segs[2].1.file);
    let pristine = std::fs::read(&path).unwrap();
    let mut flipped = pristine.clone();
    flipped[pristine.len() / 2] ^= 0x10;
    std::fs::write(&path, &flipped).unwrap();
    let tiered = QueryEngine::load_archive_tiered(&dir, 1).expect("attach is lazy");
    match tiered.execute(&req) {
        Err(QueryError::Corrupt { file, what, .. }) => {
            assert_eq!(file, segs[2].1.file);
            assert!(what.contains("checksum"), "{what}");
        }
        other => panic!("wanted Corrupt, got {other:?}"),
    }
    std::fs::write(&path, &pristine).unwrap();

    // The delta behind id 3 gains an event whose next hop and path no
    // symbol names.
    let entry = &segs[3].1;
    let stranger = Asn(4_200_000_000);
    let peer = sc.outputs[0].collector.peers[0];
    let event = DeltaRoute {
        next_hop: stranger,
        path: vec![stranger],
        communities: Vec::new(),
    };
    announce_in_delta(&dir, &manifest, 3, peer, prefix, event);

    let tiered = QueryEngine::load_archive_tiered(&dir, 1).expect("attach is lazy");
    match tiered.execute(&req) {
        Err(QueryError::Corrupt { file, what, .. }) => {
            assert_eq!(file, entry.file);
            assert_eq!(what, "delta event symbol missing from symbol table");
        }
        other => panic!("wanted Corrupt, got {other:?}"),
    }
    match QueryEngine::load_archive(&dir) {
        Err(StoreError::Corrupt { segment, what, .. }) => {
            assert_eq!(segment.file, entry.file);
            assert!(what.contains("delta event symbol missing"), "{what}");
        }
        other => panic!("wanted Corrupt, got {:?}", other.map(|_| ())),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rewrites the delta segment of snapshot `id` in the archive at `dir`
/// with one more collector event, `peer` announcing `route` for
/// `prefix`, and fixes its manifest row up to match, so only decoding
/// can object.
fn announce_in_delta(
    dir: &std::path::Path,
    manifest: &Manifest,
    id: usize,
    peer: Asn,
    prefix: Ipv4Prefix,
    route: bgp_sim::DeltaRoute,
) {
    use bgp_sim::OutputDelta;
    use bgp_types::codec::{put_asn_list, put_str, Reader};

    let (index, entry) = (manifest.snapshot_segments())
        .nth(id)
        .expect("a segment per snapshot");
    assert_eq!(entry.kind, SegmentKind::Delta, "snapshot {id}");
    let path = dir.join(&entry.file);
    let bytes = std::fs::read(&path).unwrap();
    let mut r = Reader::new(&bytes);
    let label = r.str().unwrap().to_string();
    let dropped = r.asn_list().unwrap();
    let mut delta = OutputDelta::decode(&mut r).unwrap();
    let sidecar = bytes[r.position()..].to_vec();
    (delta.collector.entry(peer).or_default().announced).push((prefix, route));
    let mut out = Vec::new();
    put_str(&mut out, &label);
    put_asn_list(&mut out, &dropped);
    delta.encode(&mut out);
    out.extend_from_slice(&sidecar);
    std::fs::write(&path, &out).unwrap();
    let mut fixed = manifest.clone();
    fixed.segments[index].bytes = out.len() as u64;
    fixed.segments[index].crc32 = rpi_store::crc32(&out);
    fixed.write(dir, true).unwrap();
}

/// A delta event may announce a prefix no snapshot before it stored:
/// prefixes are not interned, so only the ASNs an event names must be
/// in the symbol table. The delta behind id 3 gains an announcement, by
/// a collector peer, of a prefix no output of the series holds, over a
/// path of ASNs the table knows; the eager load and the tier-attached
/// engine both accept the archive, find the route at id 3 and after,
/// and answer `route`, `resolve` and `sa` on it with the same bytes.
#[test]
fn a_delta_may_announce_a_prefix_no_snapshot_held() {
    use bgp_sim::DeltaRoute;
    use rpi_query::Response;

    let sc = build_scenario(0x3D);
    let (dir, manifest) = saved(&sc, 0x3D, None, "fresh-prefix");
    let fresh: Ipv4Prefix = "203.0.113.0/24".parse().unwrap();
    let held = |o: &SimOutput| {
        o.collector.rows.contains_key(&fresh) || o.lgs.values().any(|v| v.rows.contains_key(&fresh))
    };
    assert!(!sc.outputs.iter().any(held), "the prefix is fresh");
    let out = &sc.outputs[3];
    let (peer, route) = (out.collector.rows.values().flatten())
        .filter(|row| !out.lgs.contains_key(&row.peer) && row.path.len() >= 2)
        .map(|row| {
            let route = DeltaRoute {
                next_hop: row.path[1],
                path: row.path[1..].to_vec(),
                communities: Vec::new(),
            };
            (row.peer, route)
        })
        .next()
        .expect("a collector peer with a learned route");
    announce_in_delta(&dir, &manifest, 3, peer, fresh, route);

    let hydrated = QueryEngine::load_archive(&dir).expect("the eager load accepts it");
    let tiered = QueryEngine::load_archive_tiered(&dir, 1).expect("tiered load");
    for id in 2..SNAPSHOTS as u32 {
        let at = Scope::Id(SnapshotId(id));
        let (vantage, prefix) = (peer, fresh);
        let route = Query::Route { vantage, prefix }.at(at.clone());
        let found = matches!(hydrated.execute(&route), Ok(Response::Route(Some(_))));
        assert_eq!(found, id >= 3, "@{id}: the route is stored from id 3 on");
        for req in [
            route,
            Query::Resolve { vantage, prefix }.at(at.clone()),
            Query::SaStatus { vantage, prefix }.at(at),
        ] {
            let want = rendered(&hydrated, &req);
            assert!(!want.starts_with("error"), "{req:?}: {want}");
            assert_eq!(rendered(&tiered, &req), want, "{req:?}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tier-attached engines are read-only servers: saving one is a typed
/// `Unsupported` error, not a half-serialized archive.
#[test]
fn tiered_engine_refuses_to_save() {
    let sc = build_scenario(0x39);
    let (dir, _) = saved(&sc, 0x39, Some(2), "resave");
    let mut tiered = QueryEngine::load_archive_tiered(&dir, 1).expect("tiered load");
    let dir2 = tmp_dir("resave2");
    match tiered.save_archive(&dir2, false) {
        Err(rpi_store::StoreError::Unsupported { .. }) => {}
        other => panic!("wanted Unsupported, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

/// Format v1 (flag-less manifest rows, full segments without a vantage
/// directory) is not read. Both loaders and the daemon refuse it
/// with typed errors — never a panic, never a half-loaded engine:
/// (a) a version-1 manifest is `StoreError::Version`; (b) a
/// directory-less full segment under a current manifest — fabricated
/// by stripping the directory back out of a saved segment, byte-exactly
/// the v1 layout — is `StoreError::Corrupt` naming the segment file and the
/// flags byte's offset.
#[test]
fn v1_archives_are_rejected_typed_on_both_paths() {
    use rpi_store::StoreError;
    type Loader = fn(&std::path::Path) -> Result<QueryEngine, StoreError>;
    let loaders: [(&str, Loader); 2] = [
        ("hydrated", QueryEngine::load_archive),
        ("tiered", |d| QueryEngine::load_archive_tiered(d, 2)),
    ];
    let sc = build_scenario(0x4B);
    let (dir, manifest) = saved(&sc, 0x4B, None, "v1");

    // (a) The manifest says version 1.
    let mut v1 = manifest.clone();
    v1.version = 1;
    v1.write(&dir, true).unwrap();
    for (name, load) in loaders {
        let err = load(&dir).expect_err("a v1 manifest must not load");
        let is_v1 = matches!(
            err,
            StoreError::Version {
                found: 1,
                supported: rpi_store::FORMAT_VERSION
            }
        );
        assert!(is_v1, "{name}: {err}");
    }
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_rpi-queryd"))
        .arg("--archive")
        .arg(&dir)
        .output()
        .expect("rpi-queryd runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "one-line error:\n{stderr}");
    assert!(
        stderr.starts_with("rpi-queryd: --archive: unsupported archive format version 1"),
        "{stderr}"
    );

    // (b) A current manifest over v1-layout full segments: clear the directory
    // flag (it sits right after the label) and drop the trailing
    // directory + footer.
    let mut fixed = manifest.clone();
    let mut first_full = None;
    for (idx, entry) in manifest.snapshot_segments() {
        if entry.kind != SegmentKind::Full {
            continue;
        }
        let path = dir.join(&entry.file);
        let mut bytes = std::fs::read(&path).unwrap();
        let label_len = bytes[0] as usize; // short labels: 1-byte varint
        assert_eq!(&bytes[1..1 + label_len], entry.label.as_bytes());
        let flags_at = 1 + label_len;
        assert_ne!(bytes[flags_at] & 0x2, 0, "fulls carry a directory");
        bytes[flags_at] &= !0x2;
        let dir_offset =
            u64::from_be_bytes(bytes[bytes.len() - 12..bytes.len() - 4].try_into().unwrap());
        bytes.truncate(dir_offset as usize);
        std::fs::write(&path, &bytes).unwrap();
        fixed.segments[idx].bytes = bytes.len() as u64;
        fixed.segments[idx].crc32 = rpi_store::crc32(&bytes);
        first_full.get_or_insert((entry.file.clone(), flags_at));
    }
    fixed.write(&dir, true).unwrap();
    let (file, flags_at) = first_full.expect("the first snapshot is a full segment");
    for (name, load) in loaders {
        let err = load(&dir).expect_err("v1-layout segments must not load");
        let StoreError::Corrupt {
            segment, offset, ..
        } = &err
        else {
            panic!("{name}: wanted Corrupt, got {err}");
        };
        assert_eq!((&segment.file, *offset), (&file, flags_at), "{name}: {err}");
        let msg = err.to_string();
        assert!(
            msg.contains(&file) && msg.contains("no vantage directory"),
            "{name}: {msg}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
