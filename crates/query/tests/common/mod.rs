//! Seeded scenario generators shared by the differential suites: the
//! integration tests include this as `mod common;`, and the crate's own
//! fold ≡ scan unit suite (`src/fold_scan.rs`, which needs the
//! `#[cfg(test)]` reference scans) includes the same file by path.
#![allow(dead_code)]

use rand::prelude::*;
use rand::rngs::StdRng;

use bgp_sim::churn::simulate_series;
use bgp_sim::{
    inject_attack, AttackKind, AttackScenario, ChurnConfig, GroundTruth, PolicyParams, SimOutput,
    VantageSpec,
};
use bgp_types::{Asn, Ipv4Prefix, Relationship};
use net_topology::{AsGraph, InternetConfig, InternetSize};

/// Snapshots per churn scenario.
pub const SNAPSHOTS: usize = 8;

/// One churn scenario: per-step outputs, labels and oracles (the oracle
/// list is what lets a scenario flip relationships mid-series).
pub struct Scenario {
    pub labels: Vec<String>,
    pub outputs: Vec<SimOutput>,
    pub oracles: Vec<AsGraph>,
    /// ASes worth querying (vantages, mutated vantages, bogus).
    pub vantages: Vec<Asn>,
    /// Prefixes worth querying (from the tables, plus bogus).
    pub prefixes: Vec<Ipv4Prefix>,
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

pub fn build_scenario(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF_5EED);
    let g = InternetConfig::of_size(InternetSize::Tiny)
        .with_seed(seed)
        .build();
    let truth = GroundTruth::generate(&g, &PolicyParams::default());
    let spec = VantageSpec::paper_like(&g, 8, 4);

    // Event mix: every scenario flips policies and fails links at a
    // seed-dependent rate (re-announcements with changed paths, flaps).
    let cfg = ChurnConfig {
        seed,
        steps: SNAPSHOTS,
        flip_prob: rng.gen_range(0.05..0.6),
        link_failure_prob: rng.gen_range(0.05..0.4),
        label: "fz",
    };
    let series = simulate_series(&g, &truth, &spec, &cfg);
    let labels = series.labels;
    let mut outputs = series.snapshots;

    // Vantage loss: one LG and one collector peer disappear for a
    // stretch of the series and come back (their tables vanish from the
    // affected snapshots, exactly as a dead feed would look).
    if SNAPSHOTS >= 4 {
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
    }

    // Relationship flip: from a random step onward the oracle loses one
    // edge and regains it under a different relationship, so customer
    // cones and Fig. 4 classifications genuinely move.
    let mut oracles = vec![g.clone(); outputs.len()];
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
    }

    // Query universes.
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
        vantages,
        prefixes,
    }
}

/// The step [`build_attack`] injects its attack at.
pub const AT_STEP: usize = 2;

/// A six-step churn series with a seeded attack of `kind` injected at
/// [`AT_STEP`]: the graph (its own oracle), labels, outputs and the
/// scenario's ground truth.
pub fn build_attack(kind: AttackKind) -> (AsGraph, Vec<String>, Vec<SimOutput>, AttackScenario) {
    const STEPS: usize = 6;
    // Deterministic scenario search: the first seed in a small window
    // that offers a viable victim/attacker pair for this kind.
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
}
