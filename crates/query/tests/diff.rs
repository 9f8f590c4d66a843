//! Snapshot-diff behaviour against real `bgp_sim::churn` output.

use bgp_sim::churn::simulate_series;
use bgp_sim::{ChurnConfig, GroundTruth, PolicyParams, Simulation, VantageSpec};
use net_topology::{InternetConfig, InternetSize};
use rpi_query::{Query, QueryEngine, Response, Scope, SnapshotDiff, SnapshotId};

fn diff(engine: &QueryEngine, from: SnapshotId, to: SnapshotId) -> SnapshotDiff {
    match engine.execute(&Query::Diff.at(Scope::Range(from, to))) {
        Ok(Response::Diff(d)) => d,
        other => panic!("diff @{}..{} answered {other:?}", from.0, to.0),
    }
}

fn world() -> (net_topology::AsGraph, GroundTruth, VantageSpec) {
    let g = InternetConfig::of_size(InternetSize::Tiny)
        .with_seed(21)
        .build();
    let t = GroundTruth::generate(&g, &PolicyParams::default());
    let spec = VantageSpec::paper_like(&g, 8, 4);
    (g, t, spec)
}

#[test]
fn identical_snapshots_diff_empty() {
    let (g, t, spec) = world();
    let out = Simulation::new(&g, &t, &spec).run();
    let mut engine = QueryEngine::default();
    engine.ingest_output(&out, &g, "a");
    engine.ingest_output(&out, &g, "b");
    let d = diff(&engine, SnapshotId(0), SnapshotId(1));
    assert!(d.is_empty(), "identical ingests must diff empty: {d:?}");
    assert_eq!(d.churned_routes(), 0);
    assert_eq!(d.from_label, "a");
    assert_eq!(d.to_label, "b");
}

#[test]
fn zero_churn_series_diffs_empty() {
    let (g, t, spec) = world();
    let cfg = ChurnConfig {
        seed: 5,
        steps: 3,
        flip_prob: 0.0,
        link_failure_prob: 0.0,
        label: "hour",
    };
    let series = simulate_series(&g, &t, &spec, &cfg);
    let mut engine = QueryEngine::default();
    let ids = engine.ingest_series(&series, &g);
    assert_eq!(ids.len(), 3);
    assert_eq!(engine.labels(), vec!["hour-01", "hour-02", "hour-03"]);
    for w in ids.windows(2) {
        let d = diff(&engine, w[0], w[1]);
        assert!(
            d.is_empty(),
            "{} → {} not empty: {d:?}",
            d.from_label,
            d.to_label
        );
    }
}

#[test]
fn forced_churn_is_visible_in_diffs() {
    let (g, t, spec) = world();
    if t.selective_subset_origins.is_empty() {
        // Tiny worlds occasionally roll no selective origin; nothing can
        // flip and nothing can be asserted.
        return;
    }
    let cfg = ChurnConfig {
        seed: 99,
        steps: 6,
        flip_prob: 1.0,
        link_failure_prob: 0.0,
        label: "day",
    };
    let series = simulate_series(&g, &t, &spec, &cfg);
    let mut engine = QueryEngine::default();
    let ids = engine.ingest_series(&series, &g);

    // The oracle is shared, so relationships never flip in this series…
    for w in ids.windows(2) {
        let d = diff(&engine, w[0], w[1]);
        assert!(d.flips.is_empty(), "same oracle ⇒ no relationship flips");
    }

    // …and the engine's diff must flag churn exactly where the simulator
    // actually changed collector content between consecutive snapshots.
    let mut any_diff = false;
    for (w, outs) in ids.windows(2).zip(series.snapshots.windows(2)) {
        let d = diff(&engine, w[0], w[1]);
        let lgs_equal = outs[0].lgs.len() == outs[1].lgs.len()
            && outs[0]
                .lgs
                .iter()
                .all(|(k, v)| outs[1].lgs.get(k).is_some_and(|w| w.rows == v.rows));
        let sim_changed = outs[0].collector.rows != outs[1].collector.rows || !lgs_equal;
        if sim_changed {
            any_diff = true;
            assert!(
                !d.is_empty(),
                "{} → {}: simulator changed but diff is empty",
                d.from_label,
                d.to_label
            );
        } else {
            assert!(
                d.churned_routes() == 0 && d.new_sa.is_empty() && d.gone_sa.is_empty(),
                "{} → {}: simulator idle but diff reports change",
                d.from_label,
                d.to_label
            );
        }
    }
    assert!(any_diff, "forced re-rolls must perturb at least one step");
}

#[test]
fn vantage_loss_and_return_counts_whole_tables() {
    // A vantage disappearing mid-series counts all its routes as
    // removed; its return counts them as added — whichever ingest path
    // built the snapshots.
    let (g, t, spec) = world();
    let out = Simulation::new(&g, &t, &spec).run();
    let &lost_lg = out.lgs.keys().next().expect("world has LGs");
    let mut without = out.clone();
    // Remove the vantage entirely: its LG view and (if it is also a
    // collector peer) its collector rows — otherwise it would merely
    // degrade to a collector-peer vantage instead of disappearing.
    without.lgs.remove(&lost_lg);
    without.collector.peers.retain(|&p| p != lost_lg);
    for rows in without.collector.rows.values_mut() {
        rows.retain(|r| r.peer != lost_lg);
    }
    without.collector.rows.retain(|_, rows| !rows.is_empty());

    for incremental in [false, true] {
        let mut engine = QueryEngine::default();
        engine.ingest_output(&out, &g, "t0");
        if incremental {
            engine.ingest_output_incremental(&out, &without, &g, "t1");
            engine.ingest_output_incremental(&without, &out, &g, "t2");
        } else {
            engine.ingest_output(&without, &g, "t1");
            engine.ingest_output(&out, &g, "t2");
        }
        let ids: Vec<_> = (0..3).map(rpi_query::SnapshotId).collect();

        let route_count = out.lgs[&lost_lg]
            .rows
            .values()
            .filter(|rows| rows.iter().any(|r| r.best && !r.path.is_empty()))
            .count();
        let gone = diff(&engine, ids[0], ids[1]);
        let churn = gone
            .churn
            .iter()
            .find(|c| c.vantage == lost_lg)
            .expect("lost vantage appears in the churn report");
        assert_eq!(
            (churn.added, churn.removed, churn.changed),
            (0, route_count, 0),
            "incremental={incremental}"
        );

        let back = diff(&engine, ids[1], ids[2]);
        let churn = back.churn.iter().find(|c| c.vantage == lost_lg).unwrap();
        assert_eq!(
            (churn.added, churn.removed, churn.changed),
            (route_count, 0, 0),
            "incremental={incremental}"
        );

        // And the outer endpoints are identical: the loss round-trips.
        let outer = diff(&engine, ids[0], ids[2]);
        assert!(outer.is_empty(), "incremental={incremental}: {outer:?}");
    }
}

#[test]
fn non_adjacent_diff_equals_direct_comparison() {
    // `diff @0..3` must compare the endpoint snapshots directly — the
    // same answer whether or not intermediate snapshots churned, and the
    // same through the wire grammar as through the API.
    let (g, t, spec) = world();
    let cfg = ChurnConfig {
        seed: 99,
        steps: 4,
        flip_prob: 0.8,
        link_failure_prob: 0.3,
        label: "day",
    };
    let series = simulate_series(&g, &t, &spec, &cfg);
    let mut engine = QueryEngine::default();
    let ids = engine.ingest_series(&series, &g);

    // Ingest the endpoint snapshots alone into a second engine: the
    // non-adjacent diff must match this two-snapshot engine's answer.
    let mut endpoints = QueryEngine::default();
    endpoints.ingest_output(&series.snapshots[0], &g, &series.labels[0]);
    endpoints.ingest_output(&series.snapshots[3], &g, &series.labels[3]);

    let wide = diff(&engine, ids[0], ids[3]);
    let direct = diff(&endpoints, SnapshotId(0), SnapshotId(1));
    assert_eq!(wide.new_sa, direct.new_sa);
    assert_eq!(wide.gone_sa, direct.gone_sa);
    assert_eq!(wide.churned_routes(), direct.churned_routes());

    // The wire grammar reaches the same result.
    let req = rpi_query::parse("diff @0..3").unwrap();
    match engine.execute(&req).unwrap() {
        rpi_query::Response::Diff(d) => assert_eq!(d, wide),
        other => panic!("diff answered {other:?}"),
    }

    // A reverse diff swaps the roles exactly.
    let rev = diff(&engine, ids[3], ids[0]);
    assert_eq!(rev.new_sa, wide.gone_sa);
    assert_eq!(rev.gone_sa, wide.new_sa);
    assert_eq!(rev.churned_routes(), wide.churned_routes());
}

#[test]
fn sa_deltas_track_recomputed_reports() {
    let (g, t, spec) = world();
    if t.selective_subset_origins.is_empty() {
        return;
    }
    let cfg = ChurnConfig {
        seed: 123,
        steps: 5,
        flip_prob: 0.9,
        link_failure_prob: 0.2,
        label: "day",
    };
    let series = simulate_series(&g, &t, &spec, &cfg);
    let mut engine = QueryEngine::default();
    let ids = engine.ingest_series(&series, &g);

    for (w, outs) in ids.windows(2).zip(series.snapshots.windows(2)) {
        let d = diff(&engine, w[0], w[1]);
        // Recompute the SA delta directly per LG vantage and compare.
        for &lg in &spec.lg_ases {
            let (Some(va), Some(vb)) = (outs[0].lg(lg), outs[1].lg(lg)) else {
                continue;
            };
            let ra =
                rpi_core::export_policy::sa_prefixes(&rpi_core::view::BestTable::from_lg(va), &g);
            let rb =
                rpi_core::export_policy::sa_prefixes(&rpi_core::view::BestTable::from_lg(vb), &g);
            let expect_new: Vec<_> = rb.sa.difference(&ra.sa).copied().collect();
            let expect_gone: Vec<_> = ra.sa.difference(&rb.sa).copied().collect();
            let got_new: Vec<_> = d
                .new_sa
                .iter()
                .filter(|(v, _)| *v == lg)
                .map(|&(_, p)| p)
                .collect();
            let got_gone: Vec<_> = d
                .gone_sa
                .iter()
                .filter(|(v, _)| *v == lg)
                .map(|&(_, p)| p)
                .collect();
            assert_eq!(got_new, expect_new, "new SA at {lg}");
            assert_eq!(got_gone, expect_gone, "gone SA at {lg}");
        }
    }
}
