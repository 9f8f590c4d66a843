//! End-to-end "shape of the paper" assertions on a realistically-sized
//! world: who wins, by roughly what factor — the reproduction contract
//! (ROADMAP aim 3: "the reproduction is right").

use internet_routing_policies::prelude::*;
use rpi_core::causes::causes;
use rpi_core::community::{infer_communities, verify_relationships, CommunityParams};
use rpi_core::export_policy::{homing_split, sa_prefixes};
use rpi_core::nexthop::{lg_consistency, router_consistency};
use rpi_core::peer_export::peer_export;

fn world() -> Experiment {
    Experiment::standard(InternetSize::Small, 20021118)
}

#[test]
fn relationship_inference_is_paper_grade() {
    let e = world();
    let rep = AccuracyReport::compute(&e.graph, &e.inferred);
    assert!(rep.compared > 400, "compared {}", rep.compared);
    assert!(
        rep.accuracy() > 0.88,
        "accuracy {:.3} {:?}",
        rep.accuracy(),
        rep.confusion
    );
    // Per-AS agreement at the measured ASes tracks Table 4's 94–99.5 band.
    let lg = &e.spec.lg_ases[..5];
    let agreement = as_relationships::per_as_agreement(&e.graph, &e.inferred, lg);
    let mean: f64 = agreement.values().sum::<f64>() / agreement.len() as f64;
    assert!(mean > 0.9, "mean LG agreement {mean:.3}");
}

#[test]
fn import_policies_are_typical_as_in_table_2() {
    let e = world();
    // The five largest Looking-Glass ASes: typicality must sit in the
    // paper's 90–100 band with the inferred oracle.
    let mut values = Vec::new();
    for &lg in e.spec.lg_ases.iter().take(5) {
        let t = rpi_core::import_policy::lg_typicality(e.output.lg(lg).unwrap(), &e.inferred_graph);
        assert!(
            t.prefixes_compared > 100,
            "{lg} compared {}",
            t.prefixes_compared
        );
        values.push(t.percent());
    }
    let mean: f64 = values.iter().sum::<f64>() / values.len() as f64;
    assert!(mean > 90.0, "mean typicality {mean:.1} ({values:?})");
    assert!(values.iter().all(|&v| v > 80.0), "{values:?}");
}

#[test]
fn local_pref_is_nexthop_based_as_in_fig_2() {
    let e = world();
    // Fig 2a: most ASes assign LOCAL_PREF per next-hop AS; only the few
    // prefix-pinned entries (placed at LG ASes by the pipeline) deviate.
    for &lg in e.spec.lg_ases.iter().take(5) {
        let c = lg_consistency(e.output.lg(lg).unwrap());
        assert!(c.percent() > 90.0, "{lg}: consistency {:.1}", c.percent());
    }
    // Fig 2b: per-router views of the largest AS stay consistent too.
    let big = e.spec.lg_ases[0];
    let views = bgp_sim::split_into_routers(e.output.lg(big).unwrap(), 30, 30, 0.02);
    let per_router = router_consistency(&views);
    assert_eq!(per_router.len(), 30);
    let mean: f64 = per_router.iter().map(|(_, c)| c.percent()).sum::<f64>() / 30.0;
    assert!(mean > 90.0, "mean router consistency {mean:.1}");
}

#[test]
fn communities_verify_relationships_as_in_table_4() {
    let e = world();
    let mut checked = 0;
    for &lg in &e.spec.lg_ases {
        let inf = infer_communities(e.output.lg(lg).unwrap(), &CommunityParams::default());
        let (agree, total) = verify_relationships(&inf, &e.inferred_graph);
        if total < 20 {
            continue; // too small for a meaningful percentage (paper's ASes have 26+)
        }
        checked += 1;
        let pct = agree as f64 / total as f64;
        assert!(pct > 0.85, "{lg}: community verification {:.2}", pct);
    }
    assert!(checked >= 3, "only {checked} tagging ASes checked");
}

#[test]
fn sa_prefixes_are_prevalent_at_tier1s_as_in_table_5() {
    let e = world();
    for &p in e.spec.lg_ases.iter().take(3) {
        let table = e.lg_table(p).unwrap();
        let r = sa_prefixes(&table, &e.inferred_graph);
        assert!(
            r.customer_prefixes > 200,
            "{p}: customer prefixes {}",
            r.customer_prefixes
        );
        // Paper's Table 5 band for the big providers: 4–48.6 %.
        assert!(
            (2.0..60.0).contains(&r.percent()),
            "{p}: SA share {:.1}%",
            r.percent()
        );
        // Table 8: SA origins are mostly multihomed (paper: ~75/25).
        let (multi, single) = homing_split(&r, &e.inferred_graph);
        assert!(
            multi * 100 >= (multi + single) * 55,
            "{p}: homing {multi}/{single}"
        );
    }
}

#[test]
fn selective_announcing_dominates_splitting_and_aggregation() {
    use rpi_core::sa_verification::{active_customer_set, verify_sa};
    let e = world();
    // Aggregate the Case-3 evidence across the three headline providers
    // (the Small world's verified sets are modest per provider).
    let mut sa_total = 0usize;
    let mut splitting = 0usize;
    let mut aggregating = 0usize;
    let mut identified = 0usize;
    let mut cust_identified = 0usize;
    let mut cust_exporting = 0usize;
    for &p in e.spec.lg_ases.iter().take(3) {
        let table = e.lg_table(p).unwrap();
        let raw = sa_prefixes(&table, &e.inferred_graph);
        let active = active_customer_set(&e.inferred_graph, &e.output.collector, &[&table], p);
        let comm =
            infer_communities(e.output.lg(p).unwrap(), &CommunityParams::default()).neighbor_class;
        let v = verify_sa(&table, &raw, &e.inferred_graph, &active, &comm);
        let r = raw.restricted_to(&v.verified_prefixes);
        let c = causes(&table, &r, &e.inferred_graph, &e.output.collector);
        sa_total += c.sa_total;
        splitting += c.splitting;
        aggregating += c.aggregating;
        identified += c.identified;
        cust_identified += c.customers.identified;
        cust_exporting += c.customers.exporting;
    }
    assert!(sa_total > 30, "sa_total {sa_total}");
    // Table 9's core claim: splitting and aggregating are NOT the cause.
    assert!(
        splitting * 2 < sa_total,
        "splitting {splitting} of {sa_total}"
    );
    assert!(
        aggregating * 2 < sa_total,
        "aggregating {aggregating} of {sa_total}"
    );
    // Case 3: most responsible customers do NOT export toward this
    // provider (the paper's 79 %).
    assert!(identified * 2 > sa_total, "identified {identified}");
    let exporting_pct = 100.0 * cust_exporting as f64 / cust_identified.max(1) as f64;
    assert!(
        exporting_pct < 60.0,
        "exporting {exporting_pct:.0}% (the paper's Case-3 split is 21/79)"
    );
}

#[test]
fn peers_announce_their_prefixes_as_in_table_10() {
    let e = world();
    for &p in e.spec.lg_ases.iter().take(3) {
        let table = e.lg_table(p).unwrap();
        let rep = peer_export(&table, &e.output.collector, &e.inferred_graph);
        if rep.peers() < 3 {
            continue;
        }
        assert!(
            rep.percent_announcing() >= 60.0,
            "{p}: only {:.0}% of {} peers announce all prefixes",
            rep.percent_announcing(),
            rep.peers()
        );
    }
}

#[test]
fn sa_detection_scores_against_ground_truth() {
    let e = world();
    // Use the headline provider with the most detections.
    let (_, r) = e
        .spec
        .lg_ases
        .iter()
        .take(3)
        .map(|&p| {
            let table = e.lg_table(p).unwrap();
            (p, sa_prefixes(&table, &e.inferred_graph))
        })
        .max_by_key(|(_, r)| r.sa.len())
        .unwrap();
    let s = rpi_core::score::score_sa(&r, &e.truth, &e.graph);
    assert!(s.predicted > 20, "predicted {}", s.predicted);
    assert!(s.precision() > 0.55, "precision {:.2}", s.precision());
    assert!(s.recall() > 0.25, "recall {:.2}", s.recall());
}
