//! The incremental-ingest correctness contract, enforced differentially:
//! for every churn scenario, a snapshot built as a copy-on-write overlay
//! over its predecessor must be **query-for-query byte-identical** to a
//! from-scratch index of the same tables.
//!
//! A seeded scenario generator drives diverse event mixes through both
//! ingest paths — policy flips and re-announcements with changed paths
//! (churn re-rolls), transient link failures with conditional
//! advertisement (flaps), relationship flips (the oracle changes
//! mid-series), and vantage loss/return (an LG or collector peer
//! disappears for a few snapshots) — then executes a randomized mixed
//! batch of every protocol verb against both engines and compares the
//! *rendered* responses byte for byte. Errors must match too: the two
//! engines may not even disagree about what is unanswerable.
//!
//! CI runs this suite as a dedicated step over the fixed seed matrix
//! below; `RPI_DIFF_SEEDS=seed1,seed2,…` adds extra seeds without a
//! rebuild.

use rand::prelude::*;
use rand::rngs::StdRng;

use bgp_sim::churn::simulate_series;
use bgp_sim::{ChurnConfig, GroundTruth, PolicyParams, VantageSpec};
use bgp_types::{Asn, Relationship};
use net_topology::{InternetConfig, InternetSize};
use rpi_query::{render_response, Query, QueryEngine, QueryRequest, Response, Scope, SnapshotId};

mod common;
use common::{build_attack, build_scenario, Scenario, AT_STEP};

const QUERIES: usize = 400;

/// Ingests the scenario twice: from scratch every snapshot, and
/// incrementally (first snapshot full, rest as COW overlays).
fn ingest_both(sc: &Scenario) -> (QueryEngine, QueryEngine) {
    let mut full = QueryEngine::default();
    let mut incr = QueryEngine::default();
    for (i, (label, out)) in sc.labels.iter().zip(&sc.outputs).enumerate() {
        full.ingest_output(out, &sc.oracles[i], label);
        if i == 0 {
            incr.ingest_output(out, &sc.oracles[i], label);
        } else {
            incr.ingest_output_incremental(&sc.outputs[i - 1], out, &sc.oracles[i], label);
        }
    }
    (full, incr)
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
            // Diffs across adjacent and non-adjacent endpoints, both
            // directions, occasionally labels/invalid via point scopes.
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
        // The security verbs differ too, even over a benign series with
        // no ROA table (everything validates unknown, zero events).
        10 => Query::Rov { vantage, prefix }.at(arb_point_scope(rng, n)),
        11 => Query::Hijacks.at(arb_history_scope(rng, n)),
        _ => Query::Leaks.at(arb_point_scope(rng, n)),
    }
}

/// What the observatory would print for this request — the byte-level
/// equivalence surface (errors included).
fn rendered(engine: &QueryEngine, req: &QueryRequest) -> String {
    match engine.execute(req) {
        Ok(resp) => render_response(req, &resp),
        Err(e) => format!("error: {e}"),
    }
}

fn run_differential(seed: u64) {
    let sc = build_scenario(seed);

    // The scenario must bite: a seed whose event mix never moves a route
    // would hold the differential vacuously.
    let route_events: usize = sc
        .outputs
        .windows(2)
        .map(|w| bgp_sim::output_delta(&w[0], &w[1]).route_events())
        .sum();
    assert!(
        route_events > 0,
        "seed {seed}: degenerate scenario (no churn at all) — pick another seed"
    );

    let (full, incr) = ingest_both(&sc);

    assert_eq!(full.snapshot_count(), incr.snapshot_count());
    assert_eq!(full.labels(), incr.labels());
    // Append-only interning from identical inputs interns identical sets.
    assert_eq!(full.interned_asns(), incr.interned_asns(), "seed {seed}");

    let mut rng = StdRng::seed_from_u64(seed ^ 0x0B5E_55ED);
    let n = full.snapshot_count();
    let mut answered = 0usize;
    for i in 0..QUERIES {
        let req = arb_request(&mut rng, &sc, n);
        let a = rendered(&full, &req);
        let b = rendered(&incr, &req);
        assert_eq!(
            a, b,
            "seed {seed}, query {i}: full and incremental ingest disagree on {req:?}"
        );
        if !a.starts_with("error:") {
            answered += 1;
        }
    }
    assert!(
        answered > QUERIES / 2,
        "seed {seed}: scenario too degenerate, only {answered}/{QUERIES} answered"
    );

    // The incremental engine physically shares structure; the full one
    // cannot (every snapshot was built from scratch).
    let stats = incr.sharing_stats();
    assert!(
        stats.shared_nodes > 0,
        "seed {seed}: COW overlays must share trie nodes: {stats:?}"
    );
    assert!(stats.shared_bytes > 0);
    // …but not *everything* can be shared in a churning series: the
    // touched spines were path-copied.
    let first = incr
        .sharing_with_prev(SnapshotId(0))
        .map_or(0, |(_, total)| total);
    assert!(
        stats.shared_nodes < stats.total_nodes - first,
        "seed {seed}: a churning series cannot share every node: {stats:?}"
    );
    assert_eq!(full.sharing_stats().shared_nodes, 0);

    // Batched execution flows through the same snapshots: spot-check the
    // planner path with a mixed batch on the incremental engine.
    let reqs: Vec<QueryRequest> = (0..64).map(|_| arb_request(&mut rng, &sc, n)).collect();
    let batched = incr.execute_batch(&reqs);
    for (req, res) in reqs.iter().zip(batched) {
        let line = match res {
            Ok(resp) => render_response(req, &resp),
            Err(e) => format!("error: {e}"),
        };
        assert_eq!(
            line,
            rendered(&full, req),
            "seed {seed}: batched path diverged"
        );
    }
}

// The fixed seed matrix CI runs as a dedicated step.

#[test]
fn differential_seed_0xa1() {
    run_differential(0xA1);
}

#[test]
fn differential_seed_0xb2() {
    run_differential(0xB2);
}

#[test]
fn differential_seed_0xc3() {
    run_differential(0xC3);
}

/// Extra seeds without a rebuild: `RPI_DIFF_SEEDS=7,8,9 cargo test …`.
#[test]
fn differential_extra_seeds_from_env() {
    let Ok(spec) = std::env::var("RPI_DIFF_SEEDS") else {
        return;
    };
    for part in spec.split(',').filter(|s| !s.trim().is_empty()) {
        let seed: u64 = part
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("bad seed '{part}' in RPI_DIFF_SEEDS"));
        run_differential(seed);
    }
}

/// Regression: the engine-wide customer-cone cache must not leak across
/// ingest chains. A second incremental series under a *different*
/// oracle starts with a from-scratch ingest (which never runs the
/// incremental oracle comparison), so the cache built under the first
/// oracle must be dropped there — otherwise churned routes of the
/// second series are SA-classified with stale cones.
#[test]
fn cone_cache_does_not_leak_across_oracle_switches() {
    let g = InternetConfig::of_size(InternetSize::Tiny)
        .with_seed(2)
        .build();
    let truth = GroundTruth::generate(&g, &PolicyParams::default());
    let spec = VantageSpec::paper_like(&g, 8, 4);
    let cfg = ChurnConfig {
        seed: 2,
        steps: 4,
        flip_prob: 0.6,
        link_failure_prob: 0.3,
        label: "s",
    };
    let series = simulate_series(&g, &truth, &spec, &cfg);

    // A second oracle that genuinely moves a vantage's cone: demote one
    // Customer edge of the first vantage to Peer.
    let mut rng = StdRng::seed_from_u64(2);
    let mut flipped = g.clone();
    let vantage = spec.collector_peers[0];
    let customers: Vec<Asn> = g.customers_of(vantage).collect();
    let &victim = customers.choose(&mut rng).expect("vantage has customers");
    flipped.remove_edge(vantage, victim);
    let _ = flipped.add_edge(vantage, victim, Relationship::Peer);

    let ingest = |incremental: bool| -> QueryEngine {
        let mut e = QueryEngine::default();
        for (oracle, tag) in [(&g, "a"), (&flipped, "b")] {
            for (i, out) in series.snapshots.iter().enumerate() {
                let label = format!("{tag}-{i}");
                if incremental && i > 0 {
                    e.ingest_output_incremental(&series.snapshots[i - 1], out, oracle, &label);
                } else {
                    e.ingest_output(out, oracle, &label);
                }
            }
        }
        e
    };
    let full = ingest(false);
    let incr = ingest(true);
    let n = full.snapshot_count();
    for i in 0..n as u32 {
        for &v in spec.collector_peers.iter().chain(&spec.lg_ases) {
            let req = Query::PolicySummary { asn: v }.at(Scope::Id(SnapshotId(i)));
            assert_eq!(
                rendered(&full, &req),
                rendered(&incr, &req),
                "stale cones at snapshot {i}, vantage {v}"
            );
        }
    }
}

/// The rpi-sec acceptance contract: a seeded attack injected into a
/// churn series flows through the incremental delta path, and the
/// detection verbs (`rov`, `hijacks`, `leaks`) answer byte-identically
/// on both engines — *and* genuinely convict the injected attacker,
/// so the differential is not vacuous.
#[test]
fn attack_scenarios_detect_identically() {
    use bgp_sim::AttackKind;
    use rpi_query::Response;
    use rpi_sec::RoaTable;

    for kind in AttackKind::ALL {
        let (g, labels, outputs, sc) = build_attack(kind);

        let mut full = QueryEngine::default();
        let mut incr = QueryEngine::default();
        for (i, (label, out)) in labels.iter().zip(&outputs).enumerate() {
            full.ingest_output(out, &g, label);
            if i == 0 {
                incr.ingest_output(out, &g, label);
            } else {
                incr.ingest_output_incremental(&outputs[i - 1], out, &g, label);
            }
        }
        // Both engines get the scenario's ground-truth ROAs, so `rov`
        // has something to convict with.
        full.set_roas(RoaTable::new(sc.roas()));
        incr.set_roas(RoaTable::new(sc.roas()));

        // Every detection verb over every interesting scope and vantage.
        let n = outputs.len() as u32;
        let mut vantages: Vec<Asn> = outputs[0].collector.peers.clone();
        vantages.extend(outputs[0].lgs.keys());
        let mut reqs: Vec<QueryRequest> = vec![
            Query::Hijacks.at(Scope::All),
            Query::Hijacks.at(Scope::Range(SnapshotId(0), SnapshotId(n - 1))),
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
        let mut rov_invalid = 0usize;
        for req in &reqs {
            let a = rendered(&full, req);
            let b = rendered(&incr, req);
            assert_eq!(
                a,
                b,
                "{}: full and incremental ingest disagree on {req:?}",
                kind.name()
            );
            if a.contains("invalid-origin") || a.contains("invalid-length") {
                rov_invalid += 1;
            }
        }

        // The injection is actually detected, with the right ground truth.
        match kind {
            AttackKind::PrefixHijack | AttackKind::SubprefixHijack => {
                let Ok(Response::Hijacks(events)) = incr.execute(&Query::Hijacks.at(Scope::All))
                else {
                    panic!("hijacks must answer over the attacked series");
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
                assert_eq!(
                    hit.snapshot,
                    SnapshotId(AT_STEP as u32),
                    "{}: first conviction must land on the attack step",
                    kind.name()
                );
                assert!(
                    rov_invalid > 0,
                    "{}: under the victim's ROAs some rov answer must go invalid",
                    kind.name()
                );
            }
            AttackKind::RouteLeak => {
                let Ok(Response::Leaks(events)) =
                    incr.execute(&Query::Leaks.at(Scope::Id(SnapshotId(AT_STEP as u32))))
                else {
                    panic!("leaks must answer at the attack step");
                };
                assert!(
                    events.iter().any(|e| e.leaker == sc.attacker),
                    "route-leak: leaker {} missing from {events:?}",
                    sc.attacker
                );
                // And before the attack the series is quiet about them.
                let Ok(Response::Leaks(before)) =
                    incr.execute(&Query::Leaks.at(Scope::Id(SnapshotId(0))))
                else {
                    panic!("leaks must answer before the attack");
                };
                assert!(
                    before.iter().all(|e| e.leaker != sc.attacker),
                    "route-leak: the leaker must not be convicted pre-attack"
                );
            }
        }
    }
}

/// Zero churn is the sharing fast path: every snapshot after the first
/// is one `Arc` clone per vantage, and the series shares ~everything.
#[test]
fn zero_churn_shares_everything() {
    let g = InternetConfig::of_size(InternetSize::Tiny)
        .with_seed(31)
        .build();
    let truth = GroundTruth::generate(&g, &PolicyParams::default());
    let spec = VantageSpec::paper_like(&g, 8, 4);
    let cfg = ChurnConfig {
        seed: 31,
        steps: 4,
        flip_prob: 0.0,
        link_failure_prob: 0.0,
        label: "calm",
    };
    let series = simulate_series(&g, &truth, &spec, &cfg);
    let mut engine = QueryEngine::default();
    let ids = engine.ingest_series_incremental(&series, &g);
    assert_eq!(ids.len(), 4);
    let stats = engine.sharing_stats();
    // Snapshots 1..3 share every node with their predecessor: shared =
    // 3/4 of the total.
    assert_eq!(
        stats.shared_nodes * 4,
        stats.total_nodes * 3,
        "calm series must share all non-first structure: {stats:?}"
    );
    for w in ids.windows(2) {
        let req = Query::Diff.at(Scope::Range(w[0], w[1]));
        let Ok(Response::Diff(d)) = engine.execute(&req) else {
            panic!("diff @{}..{} did not answer", w[0].0, w[1].0);
        };
        assert!(d.is_empty(), "calm series must diff empty: {d:?}");
    }
}
