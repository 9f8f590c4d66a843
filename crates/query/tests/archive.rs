//! The archive correctness contract, enforced differentially: an engine
//! cold-started from disk must be **query-for-query byte-identical** to
//! the engine that was saved — across every protocol verb, every scope
//! shape, errors included — and a damaged archive must fail loudly with
//! a typed error naming the segment, never panic and never yield a
//! half-loaded world.
//!
//! The scenario harness mirrors `incremental_diff.rs`: seeded churn
//! series (policy flips, flaps, vantage loss, mid-series oracle flips)
//! drive diverse archives — mixes of delta and full segments — and a
//! seeded query fuzzer compares rendered responses byte for byte.

use rand::prelude::*;
use rand::rngs::StdRng;

use bgp_sim::churn::simulate_series;
use bgp_sim::{ChurnConfig, GroundTruth, OutputDelta, PolicyParams, SimOutput, VantageSpec};
use bgp_types::codec::{put_uvarint, Reader};
use bgp_types::{Asn, Ipv4Prefix, Relationship};
use net_topology::{AsGraph, InternetConfig, InternetSize};
use rpi_query::{
    render_response, Query, QueryEngine, QueryError, QueryRequest, SaveOptions, Scope, SnapshotId,
};
use rpi_sec::{Roa, RoaTable};
use rpi_store::{Manifest, SegmentKind, StoreError, FORMAT_VERSION, MANIFEST_FILE};

const SNAPSHOTS: usize = 6;
const QUERIES: usize = 300;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rpi-archive-test-{tag}-{}-{}",
        std::process::id(),
        std::thread::current()
            .name()
            .unwrap_or("t")
            .replace("::", "-"),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One churn scenario: outputs, per-snapshot oracles, query universes.
struct Scenario {
    labels: Vec<String>,
    outputs: Vec<SimOutput>,
    oracles: Vec<AsGraph>,
    vantages: Vec<Asn>,
    prefixes: Vec<Ipv4Prefix>,
}

fn build_scenario(seed: u64, flip_oracle: bool) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA2C4_117E);
    let g = InternetConfig::of_size(InternetSize::Tiny)
        .with_seed(seed)
        .build();
    let truth = GroundTruth::generate(&g, &PolicyParams::default());
    let spec = VantageSpec::paper_like(&g, 8, 4);
    let cfg = ChurnConfig {
        seed,
        steps: SNAPSHOTS,
        flip_prob: rng.gen_range(0.1..0.6),
        link_failure_prob: rng.gen_range(0.05..0.4),
        label: "ar",
    };
    let series = simulate_series(&g, &truth, &spec, &cfg);
    let labels = series.labels;
    let mut outputs = series.snapshots;

    // Vantage loss mid-series: one LG and one collector peer vanish.
    let lg_pool: Vec<Asn> = outputs[0].lgs.keys().copied().collect();
    if let Some(&lg) = lg_pool.choose(&mut rng) {
        let from = rng.gen_range(1..SNAPSHOTS);
        for out in &mut outputs[from..] {
            out.lgs.remove(&lg);
        }
    }
    if let Some(&peer) = outputs[0].collector.peers.clone().choose(&mut rng) {
        let from = rng.gen_range(1..SNAPSHOTS);
        for out in &mut outputs[from..] {
            out.collector.peers.retain(|&p| p != peer);
            for rows in out.collector.rows.values_mut() {
                rows.retain(|r| r.peer != peer);
            }
            out.collector.rows.retain(|_, rows| !rows.is_empty());
        }
    }

    // Optional mid-series relationship flip: forces a full segment in
    // the middle of a delta run.
    let mut oracles = vec![g.clone(); outputs.len()];
    if flip_oracle {
        let mut edges = Vec::new();
        for a in g.ases() {
            for (b, rel) in g.neighbors(a) {
                edges.push((a, b, rel));
                if edges.len() >= 64 {
                    break;
                }
            }
        }
        if let Some(&(a, b, rel)) = edges.as_slice().choose(&mut rng) {
            let mut flipped = g.clone();
            flipped.remove_edge(a, b);
            let new_rel = match rel {
                Relationship::Customer | Relationship::Provider => Relationship::Peer,
                _ => Relationship::Customer,
            };
            let _ = flipped.add_edge(a, b, new_rel);
            let from = rng.gen_range(1..outputs.len());
            for o in &mut oracles[from..] {
                *o = flipped.clone();
            }
        }
    }

    let mut vantages: Vec<Asn> = spec.collector_peers.clone();
    vantages.extend(&spec.lg_ases);
    vantages.push(Asn(65_500)); // never a vantage
    vantages.dedup();
    let mut prefixes: Vec<Ipv4Prefix> = outputs
        .iter()
        .flat_map(|o| o.collector.rows.keys().copied())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    prefixes.push("203.0.113.0/24".parse().unwrap());
    prefixes.push("0.0.0.0/0".parse().unwrap());

    Scenario {
        labels,
        outputs,
        oracles,
        vantages,
        prefixes,
    }
}

/// Seeded ROAs over the scenario's own prefixes — mixed max-lengths,
/// some origins real and some bogus, so the fuzzer's `rov` requests hit
/// every validity state on both ends of the round trip.
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

/// Incremental ingest under the scenario's per-snapshot oracles.
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
        // The security verbs answer from the loaded roa segment (or its
        // absence) — part of the byte-equivalence surface like any verb.
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

/// Save → load → every rendered response byte-identical.
fn assert_round_trip(seed: u64, saved: &mut QueryEngine, sc: &Scenario, tag: &str) -> Manifest {
    let dir = tmp_dir(tag);
    let manifest = saved.save_archive(&dir, false).expect("save");
    let loaded = QueryEngine::load_archive(&dir).expect("load");

    assert_eq!(saved.snapshot_count(), loaded.snapshot_count());
    assert_eq!(saved.labels(), loaded.labels());
    assert_eq!(saved.interned_asns(), loaded.interned_asns());
    assert_eq!(
        saved.roa_table(),
        loaded.roa_table(),
        "seed {seed}: the ROA table must survive the round trip"
    );

    let mut rng = StdRng::seed_from_u64(seed ^ 0x0AAC_417E);
    let n = saved.snapshot_count();
    let mut answered = 0usize;
    for i in 0..QUERIES {
        let req = arb_request(&mut rng, sc, n);
        let a = rendered(saved, &req);
        let b = rendered(&loaded, &req);
        assert_eq!(
            a, b,
            "seed {seed}, query {i}: archive round trip diverged on {req:?}"
        );
        if !a.starts_with("error:") {
            answered += 1;
        }
    }
    assert!(
        answered > QUERIES / 2,
        "seed {seed}: degenerate scenario, only {answered}/{QUERIES} answered"
    );

    // Storage metadata is visible on both ends of the round trip.
    for engine in [&*saved, &loaded] {
        let info = engine.archive_info().expect("archive info");
        assert_eq!(info.snapshots.len(), n);
        assert!(engine.sharing_stats().disk_bytes > 0);
        for i in 0..n {
            let meta = engine.segment_meta(SnapshotId(i as u32)).expect("meta");
            assert!(meta.bytes > 0);
            assert_eq!(meta.label, saved.labels()[i]);
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
    manifest
}

fn run_differential(seed: u64, flip_oracle: bool, tag: &str) {
    let sc = build_scenario(seed, flip_oracle);
    let route_events: usize = sc
        .outputs
        .windows(2)
        .map(|w| bgp_sim::output_delta(&w[0], &w[1]).route_events())
        .sum();
    assert!(route_events > 0, "seed {seed}: degenerate scenario");

    let mut engine = ingest(&sc);
    engine.set_roas(scenario_roas(&sc, seed));
    let manifest = assert_round_trip(seed, &mut engine, &sc, tag);
    assert_eq!(
        manifest
            .segments
            .iter()
            .filter(|s| s.kind == SegmentKind::Roa)
            .count(),
        1,
        "seed {seed}: an engine with ROAs writes exactly one roa segment"
    );

    // A churny incremental series must actually exercise delta segments.
    let deltas = manifest
        .segments
        .iter()
        .filter(|s| s.kind == SegmentKind::Delta)
        .count();
    assert!(deltas > 0, "seed {seed}: no delta segment was written");
    if flip_oracle {
        // The flip forces at least one mid-series full segment (plus the
        // first snapshot, which is always full).
        let fulls = manifest
            .segments
            .iter()
            .filter(|s| s.kind == SegmentKind::Full)
            .count();
        assert!(
            fulls >= 2,
            "seed {seed}: oracle flip must force a full segment"
        );
    }
}

#[test]
fn differential_seed_0xd1() {
    run_differential(0xD1, false, "d1");
}

#[test]
fn differential_seed_0xe2() {
    run_differential(0xE2, false, "e2");
}

#[test]
fn differential_seed_0xf3_with_oracle_flip() {
    run_differential(0xF3, true, "f3");
}

/// Extra seeds without a rebuild: `RPI_ARCHIVE_SEEDS=7,8 cargo test …`.
#[test]
fn differential_extra_seeds_from_env() {
    let Ok(spec) = std::env::var("RPI_ARCHIVE_SEEDS") else {
        return;
    };
    for part in spec.split(',').filter(|s| !s.trim().is_empty()) {
        let seed: u64 = part
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("bad seed '{part}' in RPI_ARCHIVE_SEEDS"));
        run_differential(seed, seed % 2 == 1, "env");
    }
}

/// A from-scratch (non-incremental) series has no retained deltas:
/// every snapshot serializes full, and still round-trips byte-identically.
#[test]
fn full_ingest_series_round_trips_as_full_segments() {
    let sc = build_scenario(0x5F, false);
    let mut engine = QueryEngine::default();
    for (i, (label, out)) in sc.labels.iter().zip(&sc.outputs).enumerate() {
        engine.ingest_output(out, &sc.oracles[i], label);
    }
    let manifest = assert_round_trip(0x5F, &mut engine, &sc, "full");
    assert!(manifest
        .segments
        .iter()
        .all(|s| s.kind != SegmentKind::Delta));
}

/// Loading a delta-bearing archive preserves the series' physical trie
/// sharing — the loaded engine is as compact as the live one was.
#[test]
fn loaded_delta_archive_preserves_cow_sharing() {
    let sc = build_scenario(0xC0, false);
    let mut engine = ingest(&sc);
    let live = engine.sharing_stats();
    assert!(live.shared_nodes > 0);

    let dir = tmp_dir("sharing");
    engine.save_archive(&dir, false).expect("save");
    let loaded = QueryEngine::load_archive(&dir).expect("load");
    let stats = loaded.sharing_stats();
    assert!(
        stats.shared_nodes > 0,
        "replayed delta segments must share trie nodes: {stats:?}"
    );
    assert_eq!(
        stats.disk_bytes,
        loaded.archive_info().unwrap().total_bytes()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A keyframe is decoded onto its predecessor: at every keyframe
/// cadence, every loaded snapshot shares exactly as many trie nodes with
/// the one before it as the ingested series did — keyframes, the full
/// segment an oracle flip forces and the vantages lost mid-series
/// included — so history folds skip across keyframes what they skip
/// across deltas.
#[test]
fn loaded_keyframes_share_what_the_ingested_series_shared() {
    for (seed, flip_oracle) in [(0xC1, true), (0xC2, false)] {
        let sc = build_scenario(seed, flip_oracle);
        let mut engine = ingest(&sc);
        let n = engine.snapshot_count();
        let ingested: Vec<_> = (0..n)
            .map(|k| engine.sharing_with_prev(SnapshotId(k as u32)))
            .collect();
        assert!(ingested[1..].iter().all(|s| s.unwrap().0 > 0));
        for keyframe_every in [1, 3, 8] {
            let dir = tmp_dir(&format!("kf-sharing-{seed}-{keyframe_every}"));
            let options = SaveOptions {
                keyframe_every: Some(keyframe_every),
            };
            engine
                .save_archive_with(&dir, false, options)
                .expect("save");
            let loaded = QueryEngine::load_archive(&dir).expect("load");
            for (k, want) in ingested.iter().enumerate() {
                let got = loaded.sharing_with_prev(SnapshotId(k as u32));
                assert_eq!(
                    got, *want,
                    "seed {seed}, keyframe every {keyframe_every}: snapshot {k}"
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A loaded engine can keep ingesting and be re-saved; the second
/// archive round-trips too (loaded snapshots keep their provenance).
#[test]
fn loaded_engine_resaves_equivalently() {
    let sc = build_scenario(0xAB, false);
    let mut engine = ingest(&sc);
    engine.set_roas(scenario_roas(&sc, 0xAB));
    let dir = tmp_dir("resave");
    let first = engine.save_archive(&dir, false).expect("save");
    let mut loaded = QueryEngine::load_archive(&dir).expect("load");

    let dir2 = tmp_dir("resave2");
    let second = loaded.save_archive(&dir2, false).expect("re-save");
    // Same segment kinds and byte-identical payload sizes: the loaded
    // engine reconstructed the exact serializable state.
    assert_eq!(
        first
            .segments
            .iter()
            .map(|s| (s.kind, s.bytes, s.crc32))
            .collect::<Vec<_>>(),
        second
            .segments
            .iter()
            .map(|s| (s.kind, s.bytes, s.crc32))
            .collect::<Vec<_>>(),
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

/// The ROA table rides its own checksummed segment: a cold-started
/// engine validates identically to the one that was saved, and an
/// engine without ROAs writes no roa segment at all (its archive shape
/// is unchanged from the pre-sec format).
#[test]
fn roa_segment_round_trips_and_is_optional() {
    let sc = build_scenario(0x4A, false);
    let mut engine = ingest(&sc);
    engine.set_roas(scenario_roas(&sc, 0x4A));
    assert!(!engine.roa_table().is_empty(), "scenario yields ROAs");

    let dir = tmp_dir("roa");
    let manifest = engine.save_archive(&dir, false).expect("save");
    let roa_entries: Vec<_> = manifest
        .segments
        .iter()
        .filter(|s| s.kind == SegmentKind::Roa)
        .collect();
    assert_eq!(roa_entries.len(), 1);
    assert!(roa_entries[0].bytes > 0);

    let loaded = QueryEngine::load_archive(&dir).expect("load");
    assert_eq!(engine.roa_table(), loaded.roa_table());
    let n = engine.snapshot_count() as u32;
    for &vantage in &sc.vantages {
        for &prefix in &sc.prefixes {
            for scope in [Scope::Latest, Scope::Id(SnapshotId(n - 1))] {
                let req = Query::Rov { vantage, prefix }.at(scope);
                assert_eq!(
                    rendered(&engine, &req),
                    rendered(&loaded, &req),
                    "rov diverged after cold start on {req:?}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let mut bare = ingest(&sc);
    let dir2 = tmp_dir("roa-none");
    let m2 = bare.save_archive(&dir2, false).expect("save");
    assert!(m2.segments.iter().all(|s| s.kind != SegmentKind::Roa));
    let loaded = QueryEngine::load_archive(&dir2).expect("load");
    assert!(loaded.roa_table().is_empty());
    let _ = std::fs::remove_dir_all(&dir2);
}

// ---------------------------------------------------------------------------
// corruption: typed errors, no panics, no half-worlds
// ---------------------------------------------------------------------------

type Loader = fn(&std::path::Path) -> Result<QueryEngine, StoreError>;
/// The two ways to open an archive; both must refuse damage typed.
const LOADERS: [(&str, Loader); 2] = [
    ("hydrated", QueryEngine::load_archive),
    ("tiered", |d| QueryEngine::load_archive_tiered(d, 4)),
];

fn saved_archive(tag: &str) -> (std::path::PathBuf, Manifest) {
    let sc = build_scenario(0x77, false);
    let mut engine = ingest(&sc);
    // ROAs included, so the corruption sweeps below cover the roa
    // segment alongside symbols and snapshots.
    engine.set_roas(scenario_roas(&sc, 0x77));
    let dir = tmp_dir(tag);
    let manifest = engine.save_archive(&dir, false).expect("save");
    (dir, manifest)
}

#[test]
fn missing_directory_is_not_an_archive() {
    let dir = tmp_dir("missing");
    match QueryEngine::load_archive(&dir) {
        Err(StoreError::NotAnArchive { path }) => assert_eq!(path, dir),
        other => panic!("wanted NotAnArchive, got {other:?}"),
    }
}

#[test]
fn empty_directory_is_not_an_archive() {
    let dir = tmp_dir("empty");
    std::fs::create_dir_all(&dir).unwrap();
    assert!(matches!(
        QueryEngine::load_archive(&dir),
        Err(StoreError::NotAnArchive { .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn save_refuses_overwrite_without_force() {
    let (dir, _) = saved_archive("force");
    let sc = build_scenario(0x78, false);
    let mut other = ingest(&sc);
    assert!(matches!(
        other.save_archive(&dir, false),
        Err(StoreError::AlreadyExists { .. })
    ));
    other.save_archive(&dir, true).expect("force overwrite");
    QueryEngine::load_archive(&dir).expect("overwritten archive loads");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `--force` overwrite replaces the archive wholesale: segments of a
/// longer predecessor must not survive as orphans, and the directory
/// must hold exactly what the manifest lists.
#[test]
fn force_save_leaves_no_orphan_segments() {
    let (dir, first) = saved_archive("orphans");
    assert!(first.segments.len() > 3, "need a multi-snapshot archive");

    // A much shorter engine saved over it.
    let sc = build_scenario(0x79, false);
    let mut short = QueryEngine::default();
    short.ingest_output(&sc.outputs[0], &sc.oracles[0], &sc.labels[0]);
    let manifest = short.save_archive(&dir, true).expect("force save");
    assert_eq!(manifest.segments.len(), 2); // symbols + one snapshot

    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    let mut expected: Vec<String> = manifest.segments.iter().map(|s| s.file.clone()).collect();
    expected.push(MANIFEST_FILE.to_string());
    expected.sort();
    assert_eq!(on_disk, expected, "stale segments must be swept");

    let loaded = QueryEngine::load_archive(&dir).expect("load");
    assert_eq!(loaded.snapshot_count(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Saving into a pre-created (empty) directory works, and unrelated
/// files already in a non-archive target directory survive the save.
#[test]
fn save_into_existing_directory_keeps_unrelated_files() {
    let dir = tmp_dir("precreated");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("NOTES.txt"), "not part of the archive").unwrap();

    let sc = build_scenario(0x7A, false);
    let mut engine = ingest(&sc);
    engine.save_archive(&dir, false).expect("save");
    assert_eq!(
        std::fs::read_to_string(dir.join("NOTES.txt")).unwrap(),
        "not part of the archive"
    );
    QueryEngine::load_archive(&dir).expect("load");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_segment_fails_with_segment_index() {
    let (dir, manifest) = saved_archive("trunc");
    // Truncate the *last* snapshot segment (often a delta).
    let (idx, entry) = manifest
        .segments
        .iter()
        .enumerate()
        .next_back()
        .expect("segments exist");
    let path = dir.join(&entry.file);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    match QueryEngine::load_archive(&dir) {
        Err(StoreError::Truncated {
            segment,
            expected,
            found,
        }) => {
            assert_eq!(segment.index, idx);
            assert_eq!(segment.file, entry.file);
            assert_eq!(expected, entry.bytes);
            assert_eq!(found, (bytes.len() / 2) as u64);
        }
        other => panic!("wanted Truncated, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_byte_fails_checksum_under_the_right_segment() {
    let (dir, manifest) = saved_archive("flip");
    for (idx, entry) in manifest.segments.iter().enumerate() {
        let path = dir.join(&entry.file);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        match QueryEngine::load_archive(&dir) {
            Err(StoreError::Checksum { segment, .. }) => {
                assert_eq!(segment.index, idx, "wrong segment blamed");
                assert_eq!(segment.file, entry.file);
            }
            other => panic!("segment {idx}: wanted Checksum, got {other:?}"),
        }
        bytes[mid] ^= 0x20; // restore for the next iteration
        std::fs::write(&path, &bytes).unwrap();
    }
    // Fully restored: loads again.
    QueryEngine::load_archive(&dir).expect("restored archive loads");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_manifest_version_is_typed() {
    let (dir, manifest) = saved_archive("version");
    let mut stale = manifest.clone();
    stale.version = FORMAT_VERSION + 9;
    std::fs::write(dir.join(MANIFEST_FILE), stale.to_bytes()).unwrap();
    match QueryEngine::load_archive(&dir) {
        Err(StoreError::Version { found, supported }) => {
            assert_eq!(found, FORMAT_VERSION + 9);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("wanted Version, got {other:?}"),
    }

    // A format-v3 manifest: the same rows under version 3, whose full
    // segments stored SA caches, neighbour counts and per-vantage body
    // headers. Both loaders refuse it on the version field alone.
    let mut v3 = manifest.clone();
    v3.version = 3;
    std::fs::write(dir.join(MANIFEST_FILE), v3.to_bytes()).unwrap();
    for (name, load) in LOADERS {
        let err = load(&dir).expect_err("a v3 manifest must not load");
        let is_v3 = matches!(
            err,
            StoreError::Version {
                found: 3,
                supported: FORMAT_VERSION
            }
        );
        assert!(is_v3, "{name}: {err}");
    }

    // A format-v2 manifest, byte-exact: version 2 and the per-vantage
    // trie count (8) that v2 carried between the version and the segment
    // count. Both loaders refuse it on the version field alone, and the
    // daemon says so on one line.
    let mut v2 = manifest.to_bytes();
    v2.truncate(v2.len() - 4);
    v2[8..12].copy_from_slice(&2u32.to_be_bytes());
    v2.splice(12..12, 8u32.to_be_bytes());
    v2.extend_from_slice(&rpi_store::crc32(&v2).to_be_bytes());
    std::fs::write(dir.join(MANIFEST_FILE), &v2).unwrap();
    for (name, load) in LOADERS {
        let err = load(&dir).expect_err("a v2 manifest must not load");
        let is_v2 = matches!(
            err,
            StoreError::Version {
                found: 2,
                supported: FORMAT_VERSION
            }
        );
        assert!(is_v2, "{name}: {err}");
    }
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_rpi-queryd"))
        .arg("--archive")
        .arg(&dir)
        .output()
        .expect("rpi-queryd runs");
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        format!(
            "rpi-queryd: --archive: unsupported archive format version 2 \
             (this build reads version {FORMAT_VERSION} only)\n"
        )
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_manifest_is_bad_magic() {
    let dir = tmp_dir("magic");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(MANIFEST_FILE), b"definitely not an archive").unwrap();
    assert!(matches!(
        QueryEngine::load_archive(&dir),
        Err(StoreError::BadMagic { .. })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checksum-valid but structurally damaged payloads (a dangling symbol)
/// must fail as `Corrupt` with the segment named — this requires
/// re-checksumming the tampered bytes so the CRC gate passes.
#[test]
fn semantic_corruption_is_caught_after_checksum() {
    let (dir, manifest) = saved_archive("semantic");
    // The symbols segment: claim 255 extra blocks.
    let entry = &manifest.segments[0];
    let path = dir.join(&entry.file);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[0] = 0xFF; // block count varint (small counts are one byte)
    std::fs::write(&path, &bytes).unwrap();
    let mut fixed = manifest.clone();
    fixed.segments[0].crc32 = rpi_store::crc32(&bytes);
    fixed.segments[0].bytes = bytes.len() as u64;
    fixed.write(&dir, true).unwrap();
    match QueryEngine::load_archive(&dir) {
        Err(StoreError::Corrupt { segment, .. }) => assert_eq!(segment.index, 0),
        Err(StoreError::ManifestCorrupt { .. }) => {}
        other => panic!("wanted Corrupt, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `saved_archive`'s world with a keyframe every 3 snapshots, so a
/// segment past the first anchor can be damaged while the snapshots
/// before it stay reachable on a tiered engine.
fn keyframed_archive(tag: &str) -> (std::path::PathBuf, Manifest) {
    let mut engine = ingest(&build_scenario(0x77, false));
    let dir = tmp_dir(tag);
    let options = SaveOptions {
        keyframe_every: Some(3),
    };
    let manifest = engine
        .save_archive_with(&dir, false, options)
        .expect("save");
    (dir, manifest)
}

/// Replaces segment `idx` with `bytes` and reseals its manifest row, so
/// the CRC gates pass and only decoding can object.
fn reseal(dir: &std::path::Path, manifest: &Manifest, idx: usize, bytes: &[u8]) {
    std::fs::write(dir.join(&manifest.segments[idx].file), bytes).unwrap();
    let mut fixed = manifest.clone();
    fixed.segments[idx].crc32 = rpi_store::crc32(bytes);
    fixed.segments[idx].bytes = bytes.len() as u64;
    fixed.write(dir, true).unwrap();
}

/// A resealed semantic fault in segment `idx` (snapshot `id`) is typed
/// on both load paths. The hydrated load refuses the archive, naming the
/// segment. The tiered engine attaches (no segment body is decoded until
/// it is hydrated), answers a query at `id` with `QueryError::Corrupt`
/// naming the file, and — the hot-set lock intact — still answers at
/// `healthy`, which does not replay the damaged segment.
fn assert_typed_on_both_paths(
    dir: &std::path::Path,
    manifest: &Manifest,
    idx: usize,
    id: u32,
    healthy: u32,
    expect: &str,
) {
    let file = &manifest.segments[idx].file;
    match QueryEngine::load_archive(dir) {
        Err(StoreError::Corrupt { segment, what, .. }) => {
            assert_eq!((segment.index, &segment.file), (idx, file));
            assert!(what.contains(expect), "{what}");
        }
        other => panic!("wanted Corrupt, got {other:?}"),
    }
    let tiered = QueryEngine::load_archive_tiered(dir, 2).expect("attach reads no body");
    let summary = |id| Query::PolicySummary { asn: Asn(1) }.at(Scope::Id(SnapshotId(id)));
    match tiered.execute(&summary(id)) {
        Err(QueryError::Corrupt { file: f, what, .. }) => {
            assert_eq!(&f, file);
            assert!(what.contains(expect), "{what}");
        }
        other => panic!("wanted QueryError::Corrupt, got {other:?}"),
    }
    let answer = tiered.execute(&summary(healthy));
    assert!(answer.is_ok(), "@{healthy} after the fault: {answer:?}");
}

/// A delta event whose AS path is empty is corrupt, not a route:
/// replaying one used to panic on its missing origin — on a tiered
/// engine inside hydration, with the hot-set lock held, so every later
/// tiered query panicked on the poisoned lock.
#[test]
fn an_empty_delta_path_is_corrupt_not_a_panic() {
    let (dir, manifest) = keyframed_archive("empty-path");
    // The first delta segment with a best-route event, and its snapshot.
    // The first delta segment with a best-route event: its snapshot id,
    // row, bytes, the byte span of its events and the events decoded.
    let (id, idx, raw, span, mut delta) = manifest
        .snapshot_segments()
        .enumerate()
        .filter(|(_, (_, e))| e.kind == SegmentKind::Delta)
        .find_map(|(id, (idx, e))| {
            let raw = std::fs::read(dir.join(&e.file)).unwrap();
            let mut r = Reader::new(&raw);
            r.str().unwrap(); // label
            r.asn_list().unwrap(); // dropped vantages
            let start = r.position();
            let delta = OutputDelta::decode(&mut r).unwrap();
            let span = start..r.position();
            (delta.route_events() > 0).then_some((id, idx, raw, span, delta))
        })
        .expect("a delta with route events");
    // An event replay applies: an AS with a Looking-Glass view is
    // patched from its LG events, never from its collector rows.
    let lgs: Vec<Asn> = delta.lgs.keys().copied().collect();
    let collector_only = (delta.collector.iter_mut())
        .filter(|(a, _)| !lgs.contains(a))
        .map(|(_, vd)| vd);
    let vd = (delta.lgs.values_mut().chain(collector_only))
        .find(|vd| !vd.announced.is_empty() || !vd.replaced.is_empty())
        .expect("an announced or replaced route");
    let (_, route) = vd
        .replaced
        .first_mut()
        .or(vd.announced.first_mut())
        .unwrap();
    route.path.clear();
    let mut bytes = raw[..span.start].to_vec();
    delta.encode(&mut bytes);
    bytes.extend_from_slice(&raw[span.end..]);
    reseal(&dir, &manifest, idx, &bytes);
    assert_typed_on_both_paths(&dir, &manifest, idx, id as u32, 0, "empty AS path");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Same gate for the roa segment: a checksum-valid payload whose ROA
/// count overruns the data must fail as `Corrupt` naming that segment —
/// never a partially applied ROA table.
#[test]
fn roa_semantic_corruption_names_the_segment() {
    let (dir, manifest) = saved_archive("roa-sem");
    let (idx, entry) = manifest
        .segments
        .iter()
        .enumerate()
        .find(|(_, s)| s.kind == SegmentKind::Roa)
        .expect("saved_archive includes a roa segment");
    let path = dir.join(&entry.file);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[0] = 0x7F; // ROA count claims more entries than the payload holds
    std::fs::write(&path, &bytes).unwrap();
    let mut fixed = manifest.clone();
    fixed.segments[idx].crc32 = rpi_store::crc32(&bytes);
    fixed.segments[idx].bytes = bytes.len() as u64;
    fixed.write(&dir, true).unwrap();
    match QueryEngine::load_archive(&dir) {
        Err(StoreError::Corrupt { segment, .. }) => assert_eq!(segment.index, idx),
        other => panic!("wanted Corrupt, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// No integer read from an archive sizes an allocation unclamped. Every
/// count and length field of the manifest, and of a full segment's
/// vantage directory and footer, is patched to its type's maximum with
/// the checksums recomputed (so the CRC gates pass): each must be a
/// typed error on both load paths — never an abort. (Format v2's
/// manifest carried a per-vantage trie count that went straight into
/// `Vec::with_capacity`; that field is gone, this pins the rest.)
/// An oracle section no writer could produce — a self-loop, an edge
/// stored from one end only, an inverse that disagrees — is a typed
/// error too: decoding holds it to the contract an `AsGraph` keeps.
#[test]
fn crafted_counts_and_lengths_are_typed_errors() {
    let (dir, manifest) = saved_archive("crafted");
    // `file`: the segment a `Corrupt` error must name (manifest faults
    // name none).
    let fails = |what: &str, expect: &str, file: Option<&str>| {
        for (name, load) in LOADERS {
            match load(&dir) {
                Err(e) => {
                    assert!(e.to_string().contains(expect), "{what}, {name}: {e}");
                    if let Some(file) = file {
                        let named = matches!(&e, StoreError::Corrupt { segment, .. } if segment.file == file);
                        assert!(named, "{what}, {name}: {e}");
                    }
                }
                // The tiered attach trusts a checksummed directory for
                // what only the body can contradict; decoding the body
                // (the first hydration) is where that surfaces.
                Ok(engine) => {
                    assert_eq!(name, "tiered", "{what}: hydrated load succeeded");
                    let req = Query::PolicySummary { asn: Asn(1) }.at(Scope::Id(SnapshotId(0)));
                    let err = engine.execute(&req).expect_err(what);
                    assert!(err.to_string().contains(expect), "{what}, hydration: {err}");
                    let named = matches!(&err, QueryError::Corrupt { file: f, .. } if Some(f.as_str()) == file);
                    assert!(named, "{what}, hydration: {err}");
                }
            }
        }
    };

    // --- the manifest: magic[8] version:u32 n_segments:u32 segment* ---
    let good = manifest.to_bytes();
    let row1 = 16 + 1 + 8 + 4 + 4 + manifest.segments[0].file.len() + 4 + 1;
    assert_eq!(manifest.segments[0].label, "");
    let file_len_at = row1 + 1 + 8 + 4;
    let label_len_at = file_len_at + 4 + manifest.segments[1].file.len();
    for (what, at, width, expect) in [
        ("segment count", 12, 4, "truncated segment kind"),
        ("segment byte length", row1 + 1, 8, "truncated"),
        (
            "file name length",
            file_len_at,
            4,
            "truncated segment file name",
        ),
        ("label length", label_len_at, 4, "truncated segment label"),
    ] {
        let mut bytes = good[..good.len() - 4].to_vec();
        bytes[at..at + width].fill(0xFF);
        bytes.extend_from_slice(&rpi_store::crc32(&bytes).to_be_bytes());
        std::fs::write(dir.join(MANIFEST_FILE), &bytes).unwrap();
        fails(what, expect, None);
    }

    // --- the first full segment's directory and footer ---
    // directory := n (sym kind:u8 route_count start len)*, all uvarints;
    // footer := dir_offset:u64 magic[4].
    assert_eq!(manifest.segments[1].kind, SegmentKind::Full);
    let seg_path = dir.join(&manifest.segments[1].file);
    let seg = std::fs::read(&seg_path).unwrap();
    let footer = seg.len() - 12;
    let dir_offset = u64::from_be_bytes(seg[footer..footer + 8].try_into().unwrap()) as usize;
    let mut fields = Vec::new(); // byte range of each directory integer
    let mut r = Reader::new(&seg[dir_offset..footer]);
    for field in 0..6 {
        let start = r.position();
        if field == 2 {
            r.u8().unwrap(); // the kind byte: not a count
        } else {
            r.uvarint().unwrap();
            fields.push(dir_offset + start..dir_offset + r.position());
        }
    }
    // Every entry's span fields (byte ranges of its start and len).
    let mut spans = vec![(fields[3].clone(), fields[4].clone())];
    while !r.is_exhausted() {
        r.uvarint().unwrap(); // sym
        r.u8().unwrap(); // kind
        r.uvarint().unwrap(); // route count
        let mut field = || {
            let at = r.position();
            r.uvarint().unwrap();
            dir_offset + at..dir_offset + r.position()
        };
        spans.push((field(), field()));
    }
    assert!(spans.len() >= 2, "two vantage tries");
    let value = |range: &std::ops::Range<usize>| {
        Reader::new(&seg[range.clone()]).uvarint().unwrap() as usize
    };
    let varint = |v: usize| {
        let mut out = Vec::new();
        put_uvarint(&mut out, v as u64);
        out
    };
    let mut max = Vec::new();
    put_uvarint(&mut max, u64::MAX);
    let splice = |range: std::ops::Range<usize>, with: &[u8]| {
        let mut bytes = seg.clone();
        bytes.splice(range, with.iter().copied());
        bytes
    };
    let (first_start, second_start) = (&spans[0].0, &spans[1].0);
    // The last span one byte longer, over a byte slipped in between its
    // trie and the LG analyses; the footer follows the directory.
    let gap = {
        let (last_start, last_len) = spans.last().unwrap();
        let mut bytes = splice(last_len.clone(), &varint(value(last_len) + 1));
        bytes.insert(value(last_start) + value(last_len), 0);
        let footer = bytes.len() - 12;
        bytes[footer..footer + 8].copy_from_slice(&(dir_offset as u64 + 1).to_be_bytes());
        bytes
    };
    // The oracle section after the label and flags: n (a b rel)*, the
    // symbols uvarints. Edges come in (a, b) order, so an edge with
    // a < b is read before its inverse, and so before anything an edit
    // to it could break further on.
    let mut r = Reader::new(&seg);
    r.str().unwrap();
    assert_eq!(r.u8().unwrap() & 1, 0, "the first segment holds its edges");
    let mut edges = Vec::new(); // (a, b, byte range of b, offset of rel)
    for _ in 0..r.uvarint().unwrap() {
        let a = r.uvarint().unwrap();
        let b_at = r.position();
        let b = r.uvarint().unwrap();
        edges.push((a, b, b_at..r.position(), r.position()));
        r.u8().unwrap();
    }
    let n_asns = edges.iter().map(|&(a, b, ..)| a.max(b)).max().unwrap() + 1;
    let same_width = |x: u64, y: u64| varint(x as usize).len() == varint(y as usize).len();
    let (a, b, b_at, rel_at) = (edges.iter())
        .find(|&&(a, b, ..)| a < b && same_width(a, b))
        .cloned()
        .expect("an edge (a, b), a < b, of two equally wide symbols");
    let stranger = (0..n_asns)
        .find(|&c| c != a && same_width(c, b) && !edges.iter().any(|e| (e.0, e.1) == (a, c)))
        .expect("an AS that is not a's neighbour");
    let mut disagreeing = seg.clone();
    disagreeing[rel_at] = (disagreeing[rel_at] + 1) % 4;
    let oracle_cases = [
        (
            "an oracle self-loop",
            splice(b_at.clone(), &varint(a as usize)),
            "relationship self-loop",
        ),
        (
            "a one-way oracle edge",
            splice(b_at, &varint(stranger as usize)),
            "relationship without its inverse",
        ),
        (
            "an oracle edge whose inverse disagrees",
            disagreeing,
            "relationship disagrees with its inverse",
        ),
    ];
    let cases = [
        // The body is the tries back to back: the directory must tile it.
        (
            "directory span moved by one byte",
            splice(first_start.clone(), &varint(value(first_start) + 1)),
            "directory spans do not tile the segment body",
        ),
        (
            "two overlapping spans",
            splice(second_start.clone(), &varint(value(first_start))),
            "directory spans do not tile the segment body",
        ),
        (
            "a gap before the LG analyses",
            gap,
            "vantage trie does not fill its directory span",
        ),
        // Over-reads into the footer: which check trips is incidental.
        (
            "directory entry count",
            splice(fields[0].clone(), &max),
            "corrupt at byte",
        ),
        (
            "directory route count",
            splice(fields[2].clone(), &max),
            "route count disagrees with trie contents",
        ),
        (
            "directory span start",
            splice(fields[3].clone(), &max),
            "directory trie span out of bounds",
        ),
        (
            "directory span length",
            splice(fields[4].clone(), &max),
            "directory trie span out of bounds",
        ),
        (
            "footer directory offset",
            splice(footer..footer + 8, &[0xFF; 8]),
            "full-segment directory offset",
        ),
        (
            "format-v2 directory magic",
            splice(footer + 8..seg.len(), b"RPD2"),
            "full-segment directory magic",
        ),
    ];
    for (what, bytes, expect) in cases.into_iter().chain(oracle_cases) {
        std::fs::write(&seg_path, &bytes).unwrap();
        let mut fixed = manifest.clone();
        fixed.segments[1].bytes = bytes.len() as u64;
        fixed.segments[1].crc32 = rpi_store::crc32(&bytes);
        fixed.write(&dir, true).unwrap();
        fails(what, expect, Some(&manifest.segments[1].file));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
