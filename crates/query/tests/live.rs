//! The rpi-live contract, enforced differentially and under fire:
//!
//! * **Live ≡ offline, byte-identical.** A live engine fed a delta-event
//!   stream frame by frame — epoch published after every snapshot, hot
//!   window bounded, older snapshots spilled to mapped rpi-store
//!   segments — must render responses byte-identical to an offline
//!   engine built from the same events in one shot, at *every* epoch,
//!   across *every* protocol verb, errors included. Attacked series
//!   (hijacks, leaks injected mid-stream) must convict identically.
//! * **Readers are never torn.** N reader threads hammering
//!   `execute_batch` during publication must each see responses
//!   consistent with exactly one epoch, snapshot counts monotone per
//!   reader, and the drained end state equal to the offline build.
//! * **Failure is typed.** A stream that ends mid-frame is a
//!   [`LiveError::Truncated`] naming the byte offset; every complete
//!   frame before the cut is published, the partial one never is.
//!
//! CI runs the fixed seed matrix below; `RPI_LIVE_SEEDS=seed1,seed2,…`
//! adds extra seeds without a rebuild (mirroring `RPI_DIFF_SEEDS` and
//! `RPI_TIER_SEEDS`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::prelude::*;
use rand::rngs::StdRng;

use bgp_sim::churn::simulate_series;
use bgp_sim::stream::{next_step, read_header, StreamFrame, StreamStep, StreamWriter};
use bgp_sim::{ChurnConfig, GroundTruth, PolicyParams, SimOutput, VantageSpec};
use bgp_types::{Asn, Ipv4Prefix, Relationship};
use net_topology::{AsGraph, InternetConfig, InternetSize};
use rpi_query::{
    drain_stream, follow_stream, render_response, FollowEnd, LiveError, LiveHandle, LiveOptions,
    LiveWriter, Query, QueryEngine, QueryRequest, SaveOptions, Scope, SnapshotId,
};

const SNAPSHOTS: usize = 8;
/// Queries per published epoch (the mid-stream differential).
const EPOCH_QUERIES: usize = 48;
/// Queries against the drained end state (the full-matrix differential).
const QUERIES: usize = 400;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rpi-live-test-{tag}-{}-{}",
        std::process::id(),
        std::thread::current()
            .name()
            .unwrap_or("t")
            .replace("::", "-"),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// One churn scenario: per-step outputs and oracles plus the query
/// universes — the same event mix the offline differential suites use
/// (policy flips, flaps, vantage loss, a mid-series relationship flip).
struct Scenario {
    labels: Vec<String>,
    outputs: Vec<SimOutput>,
    oracles: Vec<AsGraph>,
    /// The step at which the oracle flips (the stream frame that carries
    /// a full oracle replacement), if any.
    flip_at: Option<usize>,
    vantages: Vec<Asn>,
    prefixes: Vec<Ipv4Prefix>,
}

fn some_edge(g: &AsGraph, rng: &mut StdRng) -> Option<(Asn, Asn, Relationship)> {
    let mut edges = Vec::new();
    for a in g.ases() {
        for (b, rel) in g.neighbors(a) {
            edges.push((a, b, rel));
            if edges.len() >= 64 {
                break;
            }
        }
    }
    edges.choose(rng).copied()
}

fn build_scenario(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x11FE_0A11);
    let g = InternetConfig::of_size(InternetSize::Tiny)
        .with_seed(seed)
        .build();
    let truth = GroundTruth::generate(&g, &PolicyParams::default());
    let spec = VantageSpec::paper_like(&g, 8, 4);
    let cfg = ChurnConfig {
        seed,
        steps: SNAPSHOTS,
        flip_prob: rng.gen_range(0.05..0.6),
        link_failure_prob: rng.gen_range(0.05..0.4),
        label: "lv",
    };
    let series = simulate_series(&g, &truth, &spec, &cfg);
    let labels = series.labels;
    let mut outputs = series.snapshots;

    // Vantage loss: one LG and one collector peer disappear mid-series,
    // exactly as a dead feed would look on the wire.
    let from = rng.gen_range(1..SNAPSHOTS - 2);
    let to = rng.gen_range(from + 1..SNAPSHOTS);
    let lg_pool: Vec<Asn> = outputs[0].lgs.keys().copied().collect();
    if let Some(&lg) = lg_pool.choose(&mut rng) {
        for out in &mut outputs[from..to] {
            out.lgs.remove(&lg);
        }
    }
    if let Some(&peer) = outputs[0].collector.peers.clone().choose(&mut rng) {
        let from = rng.gen_range(1..SNAPSHOTS - 1);
        for out in &mut outputs[from..] {
            out.collector.peers.retain(|&p| p != peer);
            for rows in out.collector.rows.values_mut() {
                rows.retain(|r| r.peer != peer);
            }
            out.collector.rows.retain(|_, rows| !rows.is_empty());
        }
    }

    // Relationship flip: from a random step onward the oracle swaps one
    // edge's relationship — the stream frame at that step carries a full
    // oracle replacement.
    let mut oracles = vec![g.clone(); outputs.len()];
    let mut flip_at = None;
    if let Some((a, b, rel)) = some_edge(&g, &mut rng) {
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
        flip_at = Some(from);
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
    prefixes.push("203.0.113.0/24".parse().unwrap()); // never announced
    prefixes.push("0.0.0.0/0".parse().unwrap());

    Scenario {
        labels,
        outputs,
        oracles,
        flip_at,
        vantages,
        prefixes,
    }
}

/// Encodes the scenario as one complete stream file (header, one frame
/// per snapshot, end marker).
fn encode_stream(sc: &Scenario) -> Vec<u8> {
    let (mut w, mut bytes) = StreamWriter::open(&sc.oracles[0]);
    for i in 0..sc.outputs.len() {
        let new_oracle = (sc.flip_at == Some(i)).then_some(&sc.oracles[i]);
        bytes.extend_from_slice(&w.frame(&sc.labels[i], &sc.outputs[i], new_oracle));
    }
    bytes.extend_from_slice(&w.end());
    bytes
}

/// Decodes a complete stream back into its header oracle and frames.
fn decode_stream(bytes: &[u8]) -> (AsGraph, Vec<StreamFrame>) {
    let (oracle, mut offset) = read_header(bytes)
        .expect("header")
        .expect("complete header");
    let mut frames = Vec::new();
    loop {
        match next_step(bytes, offset).expect("step") {
            StreamStep::Frame(f, next) => {
                frames.push(*f);
                offset = next;
            }
            StreamStep::End(_) => return (oracle, frames),
            StreamStep::NeedMore => panic!("complete stream reported NeedMore"),
        }
    }
}

/// The offline reference: the ordinary incremental-ingest path fed the
/// same reconstructed outputs the live writer applies.
struct Offline {
    engine: QueryEngine,
    oracle: AsGraph,
    prev: SimOutput,
    n: usize,
}

impl Offline {
    fn new(header_oracle: &AsGraph) -> Offline {
        Offline {
            engine: QueryEngine::default(),
            oracle: header_oracle.clone(),
            prev: SimOutput::default(),
            n: 0,
        }
    }

    fn ingest(&mut self, frame: &StreamFrame) {
        let mut out = self.prev.clone();
        frame.clone().apply(&mut out);
        if let Some(g) = &frame.oracle {
            self.oracle = g.clone();
        }
        if self.n == 0 {
            self.engine.ingest_output(&out, &self.oracle, &frame.label);
        } else {
            self.engine
                .ingest_output_incremental(&self.prev, &out, &self.oracle, &frame.label);
        }
        self.prev = out;
        self.n += 1;
    }
}

fn arb_point_scope(rng: &mut StdRng, n: usize) -> Scope {
    match rng.gen_range(0..4u8) {
        0 => Scope::Latest,
        1 => Scope::Id(SnapshotId(rng.gen_range(0..n as u32))),
        2 => Scope::Id(SnapshotId(n as u32 + 3)), // invalid: errors must match too
        _ => Scope::All,                          // scope mismatch for point queries
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

/// The tentpole differential: drain the stream into a live engine
/// (publishing an epoch per frame) while building the offline reference
/// in lockstep, and compare rendered responses byte for byte — at every
/// epoch as it is published, and exhaustively against the drained end
/// state. `window` bounds the hot set, so small windows force the
/// comparison across the hot/spilled boundary.
fn run_live_differential(seed: u64, window: usize, tag: &str) {
    let sc = build_scenario(seed);

    // The scenario must bite: a seed with no churn holds this vacuously.
    let route_events: usize = sc
        .outputs
        .windows(2)
        .map(|w| bgp_sim::output_delta(&w[0], &w[1]).route_events())
        .sum();
    assert!(
        route_events > 0,
        "seed {seed}: degenerate scenario (no churn at all) — pick another seed"
    );

    let bytes = encode_stream(&sc);
    let dir = tmp_dir(tag);
    let stream = dir.join("live.stream");
    std::fs::write(&stream, &bytes).unwrap();
    let spill = dir.join("spill");

    let (header_oracle, frames) = decode_stream(&bytes);
    assert_eq!(frames.len(), SNAPSHOTS);

    let handle = LiveHandle::new(QueryEngine::default());
    assert_eq!(handle.current().snapshot_count(), 0);

    let mut offline = Offline::new(&header_oracle);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x11FE_57A6);
    let mut answered = 0usize;
    let report = drain_stream(
        &stream,
        Arc::clone(&handle),
        &spill,
        LiveOptions {
            window,
            keyframe_every: 3,
        },
        |published, label| {
            // Lockstep: the offline reference ingests the same frame,
            // then the *currently visible* epoch must match it exactly.
            let frame = &frames[(published - 1) as usize];
            assert_eq!(frame.label, label);
            offline.ingest(frame);
            let epoch = handle.current();
            let n = epoch.snapshot_count();
            assert_eq!(n as u64, published, "epoch lags its publication");
            assert_eq!(epoch.labels(), offline.engine.labels());
            for i in 0..EPOCH_QUERIES {
                let req = arb_request(&mut rng, &sc, n);
                let a = rendered(&offline.engine, &req);
                let b = rendered(&epoch, &req);
                assert_eq!(
                    a, b,
                    "seed {seed}, epoch {n}, query {i}: live diverged on {req:?}"
                );
                if !a.starts_with("error:") {
                    answered += 1;
                }
            }
        },
    )
    .expect("complete stream drains");
    assert_eq!(report.end, FollowEnd::EndMarker);
    assert_eq!(report.snapshots, SNAPSHOTS as u64);
    assert_eq!(handle.published(), SNAPSHOTS as u64);
    assert!(handle.ended());

    // The drained end state: identical symbol sets, then the full query
    // matrix — including history verbs spanning the hot/spilled boundary.
    let live = handle.current();
    let n = live.snapshot_count();
    assert_eq!(n, SNAPSHOTS);
    assert_eq!(
        live.interned_asns(),
        offline.engine.interned_asns(),
        "seed {seed}: live interning diverged"
    );
    for i in 0..QUERIES {
        let req = arb_request(&mut rng, &sc, n);
        let a = rendered(&offline.engine, &req);
        let b = rendered(&live, &req);
        assert_eq!(
            a, b,
            "seed {seed}, query {i}: drained state diverged on {req:?}"
        );
        if !a.starts_with("error:") {
            answered += 1;
        }
    }
    assert!(
        answered > (QUERIES + SNAPSHOTS * EPOCH_QUERIES) / 2,
        "seed {seed}: scenario too degenerate, only {answered} answered"
    );

    // The batched path flows through the same epoch.
    let reqs: Vec<QueryRequest> = (0..64).map(|_| arb_request(&mut rng, &sc, n)).collect();
    let batched = live.execute_batch(&reqs);
    for (req, res) in reqs.iter().zip(batched) {
        let line = match res {
            Ok(resp) => render_response(req, &resp),
            Err(e) => format!("error: {e}"),
        };
        assert_eq!(
            line,
            rendered(&offline.engine, req),
            "seed {seed}: batched path diverged"
        );
    }

    // The hot window really is bounded: spilled snapshots answered cold.
    let stats = live.tier_stats().expect("live engines are tier-backed");
    assert_eq!(stats.snapshots, SNAPSHOTS);
    assert!(
        stats.hot <= window.max(1),
        "hot set exceeded --window: {stats:?}"
    );
    if window < SNAPSHOTS {
        assert!(
            stats.evictions > 0,
            "a window below the snapshot count must evict: {stats:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// The fixed seed matrix CI runs; windows vary so every run crosses the
// hot/spilled boundary differently (1 = everything but the newest spills).

#[test]
fn live_differential_seed_0xa1_window_2() {
    run_live_differential(0xA1, 2, "a1");
}

#[test]
fn live_differential_seed_0xb2_window_1() {
    run_live_differential(0xB2, 1, "b2");
}

#[test]
fn live_differential_seed_0xc3_window_4() {
    run_live_differential(0xC3, 4, "c3");
}

/// Extra seeds without a rebuild: `RPI_LIVE_SEEDS=7,8,9 cargo test …`.
#[test]
fn live_differential_extra_seeds_from_env() {
    let Ok(spec) = std::env::var("RPI_LIVE_SEEDS") else {
        return;
    };
    for part in spec.split(',').filter(|s| !s.trim().is_empty()) {
        let seed: u64 = part
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("bad seed '{part}' in RPI_LIVE_SEEDS"));
        run_live_differential(seed, 2, "env");
    }
}

/// Spilling and saving are one segment writer: a follower's spill
/// directory holds, file for file, the bytes `save_archive_with` writes
/// for the offline twin of the same frames at the same keyframe cadence
/// — the full-vs-delta choice, the keyframe positions and every encoded
/// byte.
#[test]
fn spill_segments_equal_saved_segments() {
    for seed in [0xA1u64, 0xB2, 0xC3] {
        let sc = build_scenario(seed);
        let bytes = encode_stream(&sc);
        let dir = tmp_dir(&format!("spill-eq-{seed:x}"));
        let stream = dir.join("live.stream");
        std::fs::write(&stream, &bytes).unwrap();
        let spill = dir.join("spill");
        drain_stream(
            &stream,
            LiveHandle::new(QueryEngine::default()),
            &spill,
            LiveOptions {
                window: 2,
                keyframe_every: 3,
            },
            |_, _| {},
        )
        .expect("drain");

        let (header_oracle, frames) = decode_stream(&bytes);
        let mut offline = Offline::new(&header_oracle);
        for f in &frames {
            offline.ingest(f);
        }
        let archive = dir.join("archive");
        let options = SaveOptions {
            keyframe_every: Some(3),
        };
        let manifest = offline
            .engine
            .save_archive_with(&archive, false, options)
            .expect("save");

        let mut kinds = std::collections::BTreeSet::new();
        for (i, (_, entry)) in manifest.snapshot_segments().enumerate() {
            assert_eq!(entry.file, format!("snap-{i:04}.seg"));
            let spilled = std::fs::read(spill.join(&entry.file)).expect("spilled segment");
            let saved = std::fs::read(archive.join(&entry.file)).expect("saved segment");
            assert!(
                spilled == saved,
                "seed {seed:#x}: {} differs between spill and archive",
                entry.file
            );
            kinds.insert(entry.kind.name());
        }
        assert_eq!(manifest.snapshot_segments().count(), SNAPSHOTS);
        assert_eq!(
            std::fs::read_dir(&spill).unwrap().count(),
            SNAPSHOTS,
            "the spill directory holds one file per snapshot"
        );
        assert_eq!(
            kinds.len(),
            2,
            "seed {seed:#x}: the scenario must write both full and delta segments"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// History verbs spanning the hot/spilled boundary answer byte-identical
/// to the offline build with the tightest possible window (1): `uptime`
/// and `sa-history` walk spilled segments, and `diff @a..b` crosses the
/// boundary in both directions (a spilled, b hot).
#[test]
fn history_spans_hot_and_spilled_with_window_1() {
    let seed = 0x1D;
    let sc = build_scenario(seed);
    let bytes = encode_stream(&sc);
    let dir = tmp_dir("boundary");
    let stream = dir.join("live.stream");
    std::fs::write(&stream, &bytes).unwrap();

    let (header_oracle, frames) = decode_stream(&bytes);
    let mut offline = Offline::new(&header_oracle);
    for f in &frames {
        offline.ingest(f);
    }

    let handle = LiveHandle::new(QueryEngine::default());
    drain_stream(
        &stream,
        Arc::clone(&handle),
        &dir.join("spill"),
        LiveOptions {
            window: 1,
            keyframe_every: 2,
        },
        |_, _| {},
    )
    .expect("drain");
    let live = handle.current();
    let n = SNAPSHOTS as u32;

    for &vantage in sc.vantages.iter().take(5) {
        for &prefix in sc.prefixes.iter().take(4) {
            for req in [
                Query::UptimeHistogram { vantage }.at(Scope::All),
                Query::SaHistory { vantage, prefix }.at(Scope::All),
                Query::PersistenceClass { vantage, prefix }
                    .at(Scope::Range(SnapshotId(0), SnapshotId(n - 1))),
                // a spilled … b hot, adjacent across the boundary, and
                // the reverse direction.
                Query::Diff.at(Scope::Range(SnapshotId(0), SnapshotId(n - 1))),
                Query::Diff.at(Scope::Range(SnapshotId(n - 2), SnapshotId(n - 1))),
                Query::Diff.at(Scope::Range(SnapshotId(n - 1), SnapshotId(0))),
                Query::Hijacks.at(Scope::All),
            ] {
                assert_eq!(
                    rendered(&offline.engine, &req),
                    rendered(&live, &req),
                    "boundary walk diverged on {req:?}"
                );
            }
        }
    }
    let stats = live.tier_stats().unwrap();
    assert!(
        stats.hot <= 1,
        "window 1 must keep at most one hot: {stats:?}"
    );
    assert!(stats.evictions > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The rpi-sec contract survives the wire: an attack injected mid-stream
/// flows through the live path, the detection verbs answer
/// byte-identically to the offline build, and the live engine genuinely
/// convicts the injected attacker.
#[test]
fn attacked_stream_detects_identically() {
    use bgp_sim::{inject_attack, AttackKind, AttackScenario};
    use rpi_query::Response;
    use rpi_sec::RoaTable;

    const AT_STEP: usize = 2;
    const STEPS: usize = 6;

    let build = |kind: AttackKind| -> (AsGraph, Vec<String>, Vec<SimOutput>, AttackScenario) {
        for seed in 0x5EC0..0x5EC8u64 {
            let g = InternetConfig::of_size(InternetSize::Tiny)
                .with_seed(seed)
                .build();
            let truth = GroundTruth::generate(&g, &PolicyParams::default());
            let spec = VantageSpec::paper_like(&g, 8, 4);
            let cfg = ChurnConfig {
                seed,
                steps: STEPS,
                flip_prob: 0.2,
                link_failure_prob: 0.1,
                label: "atk",
            };
            let series = simulate_series(&g, &truth, &spec, &cfg);
            let mut outputs = series.snapshots;
            if let Some(sc) = inject_attack(kind, &g, &mut outputs, seed, AT_STEP) {
                return (g, series.labels, outputs, sc);
            }
        }
        panic!("no seed in the window injects a {}", kind.name());
    };

    for kind in AttackKind::ALL {
        let (g, labels, outputs, sc) = build(kind);
        let (mut w, mut bytes) = StreamWriter::open(&g);
        for (label, out) in labels.iter().zip(&outputs) {
            bytes.extend_from_slice(&w.frame(label, out, None));
        }
        bytes.extend_from_slice(&w.end());

        let dir = tmp_dir(&format!("atk-{}", kind.name()));
        let stream = dir.join("live.stream");
        std::fs::write(&stream, &bytes).unwrap();

        let (header_oracle, frames) = decode_stream(&bytes);
        let mut offline = Offline::new(&header_oracle);
        for f in &frames {
            offline.ingest(f);
        }
        offline.engine.set_roas(RoaTable::new(sc.roas()));

        // The live side gets the ROAs up front, on the epoch-0 engine —
        // every published epoch shares them.
        let mut base = QueryEngine::default();
        base.set_roas(RoaTable::new(sc.roas()));
        let handle = LiveHandle::new(base);
        drain_stream(
            &stream,
            Arc::clone(&handle),
            &dir.join("spill"),
            LiveOptions {
                window: 2,
                keyframe_every: 2,
            },
            |_, _| {},
        )
        .expect("drain");
        let live = handle.current();

        let n = outputs.len() as u32;
        let mut vantages: Vec<Asn> = outputs[0].collector.peers.clone();
        vantages.extend(outputs[0].lgs.keys());
        let mut reqs: Vec<QueryRequest> = vec![
            Query::Hijacks.at(Scope::All),
            Query::Hijacks.at(Scope::Range(SnapshotId(AT_STEP as u32), SnapshotId(n - 1))),
        ];
        for i in 0..n {
            reqs.push(Query::Leaks.at(Scope::Id(SnapshotId(i))));
        }
        for &v in &vantages {
            for prefix in [sc.victim_prefix, sc.attack_prefix] {
                reqs.push(Query::Rov { vantage: v, prefix }.at(Scope::Latest));
                reqs.push(Query::Rov { vantage: v, prefix }.at(Scope::Id(SnapshotId(0))));
            }
        }
        for req in &reqs {
            assert_eq!(
                rendered(&offline.engine, req),
                rendered(&live, req),
                "{}: live and offline disagree on {req:?}",
                kind.name()
            );
        }

        // Conviction on the *live* engine, not just equivalence.
        match kind {
            AttackKind::PrefixHijack | AttackKind::SubprefixHijack => {
                let Ok(Response::Hijacks(events)) = live.execute(&Query::Hijacks.at(Scope::All))
                else {
                    panic!("hijacks must answer over the attacked stream");
                };
                let hit = events
                    .iter()
                    .find(|e| e.origin == sc.attacker && e.prefix == sc.attack_prefix)
                    .unwrap_or_else(|| {
                        panic!(
                            "{}: injected attacker {} on {} missing from {events:?}",
                            kind.name(),
                            sc.attacker,
                            sc.attack_prefix
                        )
                    });
                assert_eq!(hit.snapshot, SnapshotId(AT_STEP as u32));
            }
            AttackKind::RouteLeak => {
                let Ok(Response::Leaks(events)) =
                    live.execute(&Query::Leaks.at(Scope::Id(SnapshotId(AT_STEP as u32))))
                else {
                    panic!("leaks must answer at the attack step");
                };
                assert!(
                    events.iter().any(|e| e.leaker == sc.attacker),
                    "route-leak: leaker {} missing from {events:?}",
                    sc.attacker
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The concurrency stress: reader threads hammer `execute_batch` while
/// the writer publishes. Every batch must render exactly the expected
/// responses for *one* epoch (the probe set includes history walks whose
/// output provably changes with every published snapshot, so a torn
/// batch cannot masquerade as a consistent one), snapshot counts are
/// monotone per reader, and the final state equals the offline build.
#[test]
fn readers_see_one_epoch_never_torn() {
    let seed = 0x77;
    let sc = build_scenario(seed);
    let bytes = encode_stream(&sc);
    let (header_oracle, frames) = decode_stream(&bytes);
    let dir = tmp_dir("stress");

    // Probes: point queries at @latest plus history walks at @all.
    let mut probes: Vec<QueryRequest> = Vec::new();
    for &v in sc.vantages.iter().take(3) {
        let p = sc.prefixes[0];
        probes.push(
            Query::Route {
                vantage: v,
                prefix: p,
            }
            .at(Scope::Latest),
        );
        probes.push(Query::PolicySummary { asn: v }.at(Scope::Latest));
        probes.push(Query::UptimeHistogram { vantage: v }.at(Scope::All));
        probes.push(
            Query::SaHistory {
                vantage: v,
                prefix: p,
            }
            .at(Scope::All),
        );
    }
    probes.push(Query::Hijacks.at(Scope::All));
    probes.push(Query::Leaks.at(Scope::Latest));

    let render_batch = |engine: &QueryEngine| -> Vec<String> {
        engine
            .execute_batch(&probes)
            .into_iter()
            .zip(&probes)
            .map(|(res, req)| match res {
                Ok(resp) => render_response(req, &resp),
                Err(e) => format!("error: {e}"),
            })
            .collect()
    };

    // expected[k] is the probe rendering at k+1 published snapshots.
    let mut offline = Offline::new(&header_oracle);
    let mut expected: Vec<Vec<String>> = Vec::new();
    for f in &frames {
        offline.ingest(f);
        expected.push(render_batch(&offline.engine));
    }
    for w in expected.windows(2) {
        assert_ne!(
            w[0], w[1],
            "the probe set must distinguish every pair of adjacent epochs"
        );
    }

    let handle = LiveHandle::new(QueryEngine::default());
    let done = AtomicBool::new(false);
    const READERS: usize = 4;

    std::thread::scope(|scope| {
        for r in 0..READERS {
            let handle = &handle;
            let done = &done;
            let expected = &expected;
            let render_batch = &render_batch;
            scope.spawn(move || {
                let mut last_seen = 0usize;
                let mut rounds = 0usize;
                loop {
                    let stop = done.load(Ordering::Acquire);
                    let epoch = handle.current();
                    let n = epoch.snapshot_count();
                    assert!(
                        n >= last_seen,
                        "reader {r}: snapshot count went backwards ({last_seen} -> {n})"
                    );
                    last_seen = n;
                    if n > 0 {
                        let got = render_batch(&epoch);
                        assert_eq!(
                            got,
                            expected[n - 1],
                            "reader {r}: batch mixed epochs at count {n}"
                        );
                        rounds += 1;
                    }
                    if stop && n == SNAPSHOTS {
                        break;
                    }
                }
                assert!(rounds > 0, "reader {r} never ran a batch");
            });
        }

        // The writer publishes while the readers hammer.
        let mut writer = LiveWriter::open(
            Arc::clone(&handle),
            header_oracle.clone(),
            &dir.join("spill"),
            LiveOptions {
                window: 2,
                keyframe_every: 3,
            },
        )
        .expect("open writer");
        // Epoch isolation: an engine taken at epoch K is still exactly
        // that world after the writer has published K + 2 — its own
        // segment list, whatever the shared hot set holds by then.
        const K: usize = 2;
        let mut held = None;
        for (i, frame) in frames.iter().enumerate() {
            writer.publish_frame(frame.clone()).expect("publish");
            if i + 1 == K {
                held = Some(handle.current());
            }
            if i + 1 == K + 2 {
                let held = held.as_ref().expect("taken at epoch K");
                assert_eq!(handle.current().snapshot_count(), K + 2);
                assert_eq!(held.snapshot_count(), K);
                assert_eq!(held.labels(), sc.labels[..K]);
                assert_eq!(held.tier_stats().expect("tier-backed").snapshots, K);
                assert_eq!(render_batch(held), expected[K - 1]);
            }
            std::thread::sleep(Duration::from_millis(3));
        }
        writer.end();
        done.store(true, Ordering::Release);
    });

    // Drained end state ≡ offline build.
    let live = handle.current();
    assert_eq!(live.snapshot_count(), SNAPSHOTS);
    assert_eq!(render_batch(&live), expected[SNAPSHOTS - 1]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tail mode: the file grows under the follower — including a partial
/// frame append that must wait, never half-apply — and every snapshot is
/// published as soon as its frame is complete.
#[test]
fn follow_publishes_as_the_file_grows() {
    let seed = 0x2F;
    let sc = build_scenario(seed);
    let (mut w, header) = StreamWriter::open(&sc.oracles[0]);
    let mut chunks: Vec<Vec<u8>> = vec![header];
    for i in 0..4 {
        let new_oracle = (sc.flip_at == Some(i)).then_some(&sc.oracles[i]);
        chunks.push(w.frame(&sc.labels[i], &sc.outputs[i], new_oracle));
    }
    chunks.push(w.end().to_vec());

    let dir = tmp_dir("follow");
    let stream = dir.join("live.stream");
    std::fs::write(&stream, &chunks[0]).unwrap();

    let handle = LiveHandle::new(QueryEngine::default());
    let stop = Arc::new(AtomicBool::new(false));
    let published = Arc::new(Mutex::new(Vec::<(u64, String)>::new()));
    let tail = {
        let handle = Arc::clone(&handle);
        let stop = Arc::clone(&stop);
        let published = Arc::clone(&published);
        let stream = stream.clone();
        let spill = dir.join("spill");
        std::thread::spawn(move || {
            follow_stream(
                &stream,
                handle,
                &spill,
                LiveOptions {
                    window: 2,
                    keyframe_every: 2,
                },
                Duration::from_millis(1),
                &stop,
                |n, label| published.lock().unwrap().push((n, label.to_string())),
            )
        })
    };

    let append = |bytes: &[u8]| {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&stream)
            .unwrap();
        f.write_all(bytes).unwrap();
        f.flush().unwrap();
    };
    let wait_published = |n: u64| {
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while handle.published() < n {
            assert!(
                std::time::Instant::now() < deadline,
                "follower never published snapshot {n}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    };

    // Frame 1 whole, frame 2 split mid-frame: the follower must publish
    // 1, hold at 1 (never a half-applied 2), then publish 2 when the
    // rest lands.
    append(&chunks[1]);
    wait_published(1);
    assert_eq!(handle.current().snapshot_count(), 1);
    let (a, b) = chunks[2].split_at(chunks[2].len() / 2);
    append(a);
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(
        handle.published(),
        1,
        "a partial frame must never half-apply"
    );
    append(b);
    wait_published(2);

    // The rest plus the end marker: the follower drains and returns.
    append(&chunks[3]);
    append(&chunks[4]);
    append(&chunks[5]);
    let report = tail.join().unwrap().expect("follow");
    assert_eq!(report.end, FollowEnd::EndMarker);
    assert_eq!(report.snapshots, 4);
    assert!(handle.ended());
    assert_eq!(
        published.lock().unwrap().as_slice(),
        &[
            (1, sc.labels[0].clone()),
            (2, sc.labels[1].clone()),
            (3, sc.labels[2].clone()),
            (4, sc.labels[3].clone()),
        ]
    );

    // And the followed world matches the offline one.
    let (header_oracle, frames) = {
        let bytes: Vec<u8> = chunks.concat();
        decode_stream(&bytes)
    };
    let mut offline = Offline::new(&header_oracle);
    for f in &frames {
        offline.ingest(f);
    }
    let live = handle.current();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0B5E_55ED);
    for _ in 0..80 {
        let req = arb_request(&mut rng, &sc, 4);
        assert_eq!(rendered(&offline.engine, &req), rendered(&live, &req));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stream that ends mid-frame is a typed [`LiveError::Truncated`]
/// naming the byte offset where the incomplete frame starts; every
/// complete frame before the cut is published, the partial one never is.
#[test]
fn truncated_stream_is_a_typed_offset_error() {
    let seed = 0x3E;
    let sc = build_scenario(seed);
    let bytes = encode_stream(&sc);
    let dir = tmp_dir("trunc");

    // Frame start offsets, from the framing itself.
    let (_, mut offset) = read_header(&bytes).unwrap().unwrap();
    let mut starts = vec![offset];
    loop {
        match next_step(&bytes, offset).unwrap() {
            StreamStep::Frame(_, next) => {
                starts.push(next);
                offset = next;
            }
            StreamStep::End(_) => break,
            StreamStep::NeedMore => panic!("complete stream"),
        }
    }

    // Cut strictly inside the third frame, and exactly at its boundary:
    // both truncations name the third frame's start offset and publish
    // exactly the two complete frames.
    let inside = starts[2] + (starts[3] - starts[2]) / 2;
    for cut in [inside, starts[2]] {
        let stream = dir.join(format!("cut-{cut}.stream"));
        std::fs::write(&stream, &bytes[..cut]).unwrap();
        let handle = LiveHandle::new(QueryEngine::default());
        let err = drain_stream(
            &stream,
            Arc::clone(&handle),
            &dir.join(format!("spill-{cut}")),
            LiveOptions::default(),
            |_, _| {},
        )
        .expect_err("a truncated stream must not drain cleanly");
        match &err {
            LiveError::Truncated { offset } => assert_eq!(
                *offset, starts[2],
                "the error must name the incomplete frame's start"
            ),
            other => panic!("wanted Truncated, got {other:?}"),
        }
        assert_eq!(
            err.to_string(),
            format!("live stream ended mid-frame at byte {}", starts[2])
        );
        assert_eq!(
            handle.published(),
            2,
            "complete frames before the cut publish"
        );
        assert_eq!(handle.current().snapshot_count(), 2);
        assert!(!handle.ended());

        // The published prefix is the offline prefix, byte for byte.
        let (header_oracle, frames) = decode_stream(&bytes);
        let mut offline = Offline::new(&header_oracle);
        for f in &frames[..2] {
            offline.ingest(f);
        }
        let live = handle.current();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0B5E_55ED);
        for _ in 0..40 {
            let req = arb_request(&mut rng, &sc, 2);
            assert_eq!(rendered(&offline.engine, &req), rendered(&live, &req));
        }
    }

    // A cut inside the header truncates at byte 0 with nothing published.
    let stream = dir.join("cut-header.stream");
    std::fs::write(&stream, &bytes[..6]).unwrap();
    let handle = LiveHandle::new(QueryEngine::default());
    let err = drain_stream(
        &stream,
        Arc::clone(&handle),
        &dir.join("spill-header"),
        LiveOptions::default(),
        |_, _| {},
    )
    .expect_err("a headerless stream must not drain");
    assert!(matches!(err, LiveError::Truncated { offset: 0 }), "{err:?}");
    assert_eq!(handle.published(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The listings bugfix, over a real TCP session during publication: one
/// pipelined `snapshots` + `archive` round must describe **one** epoch —
/// the snapshot count in the tier summary equals the number of listed
/// snapshots, the archive segment count is exactly that plus the symbols
/// slot, and counts are monotone per connection. `ServerHandle::stats`
/// — taken from a server built at epoch 0 — reads the one registry
/// every later epoch books into.
#[test]
fn tcp_listings_are_single_epoch_during_publication() {
    use std::io::{Read, Write};
    use std::net::TcpStream;

    use rpi_query::serve::{ServeConfig, Server};

    let seed = 0x4C;
    let sc = build_scenario(seed);
    let bytes = encode_stream(&sc);
    let (header_oracle, frames) = decode_stream(&bytes);
    let dir = tmp_dir("tcp");

    let handle = LiveHandle::new(QueryEngine::default());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let server = Server::with_listener(Arc::clone(&handle), listener, ServeConfig::default())
        .expect("wrap listener");
    let addr = server.local_addr().unwrap();
    let shandle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("serve loop"));

    let writer = {
        let handle = Arc::clone(&handle);
        let oracle = header_oracle.clone();
        let spill = dir.join("spill");
        let frames = frames.clone();
        std::thread::spawn(move || {
            let mut w = LiveWriter::open(
                handle,
                oracle,
                &spill,
                LiveOptions {
                    window: 2,
                    keyframe_every: 2,
                },
            )
            .expect("open writer");
            for frame in frames {
                w.publish_frame(frame).expect("publish");
                std::thread::sleep(Duration::from_millis(4));
            }
            w.end();
        })
    };

    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    s.set_nodelay(true).unwrap();
    // One reply batch: everything between two `pong` markers.
    let read_batch = |s: &mut TcpStream| -> String {
        s.write_all(b"snapshots\narchive\nping\n").unwrap();
        let mut got = String::new();
        let mut buf = [0u8; 4096];
        while !got.ends_with("pong\n") {
            let n = s.read(&mut buf).expect("reply");
            assert!(n > 0, "server hung up mid-listing");
            got.push_str(std::str::from_utf8(&buf[..n]).unwrap());
        }
        got
    };

    let mut last_total = 0usize;
    let mut stats_queries = 0u64;
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let got = read_batch(&mut s);
        let lines: Vec<&str> = got.lines().collect();

        // The snapshots block: `N: label (…)` rows, then the tier
        // summary (absent only at epoch 0, before the tier exists).
        let listed = lines
            .iter()
            .filter(|l| {
                l.split(':').next().is_some_and(|head| {
                    !head.is_empty() && head.bytes().all(|b| b.is_ascii_digit())
                }) && !l.starts_with("  ")
            })
            .count();
        let tier_total = lines.iter().find_map(|l| {
            let rest = l.strip_prefix("tier: ")?;
            let (hot_of_total, _) = rest.split_once(" hot")?;
            let (_, total) = hot_of_total.split_once('/')?;
            total.parse::<usize>().ok()
        });
        match tier_total {
            Some(total) => {
                assert_eq!(
                    listed, total,
                    "listing and tier summary describe different epochs:\n{got}"
                );
                // The archive block of the same batch: symbols + one
                // segment per snapshot of the *same* epoch.
                let segs = lines.iter().find_map(|l| {
                    let (_, rest) = l.split_once(" (")?;
                    let (n, _) = rest.split_once(" segments")?;
                    l.starts_with("archive ").then(|| n.parse::<usize>().ok())?
                });
                assert_eq!(
                    segs,
                    Some(total + 1),
                    "archive listing describes a different epoch:\n{got}"
                );
                assert!(
                    total >= last_total,
                    "snapshot count went backwards on one connection"
                );
                last_total = total;
            }
            None => {
                // Epoch 0: no snapshots, no tier, no archive.
                assert_eq!(listed, 0, "tier summary missing:\n{got}");
                assert!(
                    lines.iter().any(|l| l.starts_with("no archive")),
                    "epoch 0 must list no archive:\n{got}"
                );
            }
        }

        // ServeStats reads the same publication protocol: monotone, no
        // panic mid-publish.
        let stats = shandle.stats();
        assert!(stats.queries >= stats_queries);
        stats_queries = stats.queries;

        if last_total == SNAPSHOTS {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server never observed the final epoch"
        );
    }

    writer.join().unwrap();
    // Listings aren't grammar queries; one that is, answered by the
    // final epoch, must land in the registry the handle pinned at
    // epoch 0.
    assert_eq!(shandle.stats().queries, 0);
    s.write_all(b"diff 0 1\nshutdown\n").unwrap();
    let mut rest = String::new();
    let _ = s.read_to_string(&mut rest);
    assert!(rest.contains(" -> "), "the final epoch answers: {rest}");
    let final_stats = join.join().unwrap();
    assert_eq!(final_stats.queries, 1);
    assert_eq!(shandle.stats().queries, 1);
    assert_eq!(final_stats.accepted, 1);
    assert_eq!(final_stats.errors, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A frame patches the writer's output before its segment is spilled, so
/// a publication that fails leaves the writer past what it published:
/// the failure is terminal. With the spill directory replaced by a file,
/// the third publication fails, a fourth on the same writer fails too —
/// typed, never indexed against the half-advanced output — and readers
/// keep epoch 2, byte for byte.
#[test]
fn a_failed_publication_is_terminal_for_its_writer() {
    let seed = 0xA1;
    let sc = build_scenario(seed);
    let (header_oracle, frames) = decode_stream(&encode_stream(&sc));
    let dir = tmp_dir("halt");
    let spill = dir.join("spill");

    let mut offline = Offline::new(&header_oracle);
    for f in &frames[..2] {
        offline.ingest(f);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4A17);
    let reqs: Vec<QueryRequest> = (0..EPOCH_QUERIES)
        .map(|_| arb_request(&mut rng, &sc, 2))
        .collect();
    let render_all = |engine: &QueryEngine| -> Vec<String> {
        reqs.iter().map(|req| rendered(engine, req)).collect()
    };

    let handle = LiveHandle::new(QueryEngine::default());
    let mut writer = LiveWriter::open(
        Arc::clone(&handle),
        header_oracle,
        &spill,
        LiveOptions {
            window: 1,
            keyframe_every: 3,
        },
    )
    .expect("open writer");
    let mut frames = frames.into_iter();
    for _ in 0..2 {
        writer
            .publish_frame(frames.next().unwrap())
            .expect("publish");
    }
    let epoch_2 = render_all(&handle.current());
    assert_eq!(epoch_2, render_all(&offline.engine));

    std::fs::remove_dir_all(&spill).unwrap();
    std::fs::write(&spill, b"not a directory").unwrap();
    let err = writer
        .publish_frame(frames.next().unwrap())
        .expect_err("the spill directory is a file");
    assert!(matches!(err, LiveError::Store(_)), "{err:?}");
    let err = writer
        .publish_frame(frames.next().unwrap())
        .expect_err("a writer whose publication failed publishes nothing more");
    assert!(matches!(err, LiveError::Halted), "{err:?}");
    assert_eq!(
        err.to_string(),
        "live writer halted by an earlier failed publication"
    );

    assert_eq!(handle.published(), 2);
    let live = handle.current();
    assert_eq!(live.snapshot_count(), 2);
    assert_eq!(live.labels(), offline.engine.labels());
    assert_eq!(render_all(&live), epoch_2);
    let _ = std::fs::remove_dir_all(&dir);
}
