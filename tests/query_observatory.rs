//! Cache coherence of the serving layer: every answer the `rpi-query`
//! observatory serves from its precomputed indexes must agree with the
//! direct `rpi_core` analysis it caches.

use internet_routing_policies::prelude::*;
use rpi_query::{render_response, RouteAnswer, VantageKind};

/// The answer of a `route`/`resolve` request (`None`: no such route).
fn route(engine: &QueryEngine, req: QueryRequest) -> Option<RouteAnswer> {
    match engine.execute(&req) {
        Ok(Response::Route(ans)) => ans,
        other => panic!("{req:?} answered {other:?}"),
    }
}

fn world() -> (Experiment, QueryEngine) {
    let exp = Experiment::standard(InternetSize::Tiny, 11);
    let mut engine = QueryEngine::default();
    engine.ingest_experiment(&exp, "t0");
    (exp, engine)
}

#[test]
fn routes_agree_with_best_tables() {
    let (exp, engine) = world();
    // Looking-Glass vantages against their direct BestTable…
    for &lg in &exp.spec.lg_ases {
        let table = exp.lg_table(lg).unwrap();
        assert!(!table.rows.is_empty());
        for (&prefix, row) in &table.rows {
            let vantage = lg;
            let ans = route(&engine, Query::Route { vantage, prefix }.at(Scope::Latest))
                .unwrap_or_else(|| panic!("missing route for {prefix} at {lg}"));
            assert_eq!(ans.next_hop, row.next_hop, "{prefix} at {lg}");
            assert_eq!(ans.path, row.path, "{prefix} at {lg}");
            assert_eq!(ans.prefix, prefix);
        }
    }
    // …and a collector peer that is not also a Looking-Glass AS.
    let peer = *exp
        .spec
        .collector_peers
        .iter()
        .find(|p| !exp.spec.lg_ases.contains(p))
        .expect("some collector-only peer");
    let table = exp.collector_table(peer);
    for (&prefix, row) in &table.rows {
        let vantage = peer;
        let ans = route(&engine, Query::Route { vantage, prefix }.at(Scope::Latest)).unwrap();
        assert_eq!(ans.next_hop, row.next_hop);
        assert_eq!(ans.path, row.path);
    }
    // A vantage the world has never heard of answers nothing.
    let unknown = Query::Route {
        vantage: Asn(999_999),
        prefix: "10.0.0.0/8".parse().unwrap(),
    };
    assert!(route(&engine, unknown.at(Scope::Latest)).is_none());
}

#[test]
fn sa_status_agrees_with_fig4_reports() {
    let (exp, engine) = world();
    for &lg in &exp.spec.lg_ases {
        let table = exp.lg_table(lg).unwrap();
        let report = sa_prefixes(&table, &exp.inferred_graph);
        let mut sa_seen = 0;
        let mut exported_seen = 0;
        for &prefix in table.rows.keys() {
            let vantage = lg;
            let req = Query::SaStatus { vantage, prefix }.at(Scope::Latest);
            let Ok(Response::Sa(status)) = engine.execute(&req) else {
                panic!("sa must answer for {prefix} at {lg}");
            };
            match status {
                SaStatus::SelectivelyAnnounced { origin } => {
                    sa_seen += 1;
                    assert!(
                        report.sa.contains(&prefix),
                        "{prefix} at {lg} not SA directly"
                    );
                    assert_eq!(report.sa_origin[&prefix], origin);
                }
                SaStatus::CustomerExported { origin } => {
                    exported_seen += 1;
                    assert!(!report.sa.contains(&prefix));
                    assert!(
                        report.per_origin.contains_key(&origin),
                        "{origin} must be a customer origin of {lg}"
                    );
                }
                SaStatus::NotCustomerRoute => {
                    assert!(!report.sa.contains(&prefix), "{prefix} at {lg}");
                }
                other => panic!("unexpected status {other:?} for {prefix} at {lg}"),
            }
        }
        assert_eq!(sa_seen, report.sa.len(), "SA count at {lg}");
        assert_eq!(
            exported_seen + sa_seen,
            report.customer_prefixes,
            "customer prefix accounting at {lg}"
        );
    }
}

#[test]
fn relationships_agree_with_inferred_graph() {
    let (exp, engine) = world();
    let mut compared = 0;
    for a in exp.inferred_graph.ases() {
        for (b, rel) in exp.inferred_graph.neighbors(a) {
            assert_eq!(
                engine.execute(&Query::Relationship { a, b }.at(Scope::Latest)),
                Ok(Response::Relationship(Some(rel))),
                "{a} – {b}"
            );
            compared += 1;
        }
    }
    assert!(compared > 50, "a Tiny world still has many edges");
    // Non-adjacent pairs answer None.
    let mut ases = exp.inferred_graph.ases();
    let a = ases.next().unwrap();
    let b = Asn(424_242);
    assert_eq!(
        engine.execute(&Query::Relationship { a, b }.at(Scope::Latest)),
        Ok(Response::Relationship(None))
    );
}

#[test]
fn summaries_agree_with_direct_analyses() {
    let (exp, engine) = world();
    for &lg in &exp.spec.lg_ases {
        let req = Query::PolicySummary { asn: lg }.at(Scope::Latest);
        let Ok(Response::Summary(Some(s))) = engine.execute(&req) else {
            panic!("LG vantages have summaries");
        };
        assert_eq!(s.kind, Some(VantageKind::LookingGlass));
        let table = exp.lg_table(lg).unwrap();
        assert_eq!(s.routes, table.rows.len());
        let report = sa_prefixes(&table, &exp.inferred_graph);
        assert_eq!(s.customer_prefixes, report.customer_prefixes);
        assert_eq!(s.sa_count, report.sa.len());
        assert!((s.sa_percent() - report.percent()).abs() < 1e-9);
        let t = lg_typicality(exp.output.lg(lg).unwrap(), &exp.inferred_graph);
        assert_eq!(s.typicality, Some((t.prefixes_compared, t.typical)));
        assert!((s.typicality_percent().unwrap() - t.percent()).abs() < 1e-9);
        let (prov, cust, peers, sib) = s.neighbor_counts;
        assert_eq!(prov, exp.inferred_graph.providers_of(lg).count());
        assert_eq!(cust, exp.inferred_graph.customers_of(lg).count());
        assert_eq!(peers, exp.inferred_graph.peers_of(lg).count());
        assert_eq!(sib, exp.inferred_graph.siblings_of(lg).count());
    }
}

#[test]
fn batched_answers_equal_single_answers() {
    let (exp, engine) = world();
    // Every verb of the protocol, over every LG table row plus misses.
    let mut targets: Vec<(Asn, Ipv4Prefix)> = Vec::new();
    for &lg in &exp.spec.lg_ases {
        for &p in exp.lg_table(lg).unwrap().rows.keys() {
            targets.push((lg, p));
        }
    }
    targets.push((Asn(999_999), "10.0.0.0/8".parse().unwrap()));
    targets.push((exp.spec.lg_ases[0], "203.0.113.0/24".parse().unwrap()));

    // `route` and `sa` for every target (hits and misses), and the
    // other eleven verbs in rotation, so point lookups and history
    // scans interleave in one batch — and two requests fail at scope
    // resolution, one lookup and one scan.
    let mut reqs: Vec<QueryRequest> = Vec::new();
    for (i, &(vantage, prefix)) in targets.iter().enumerate() {
        let (a, asn, k) = (vantage, vantage, 1 + i % 5);
        let b = exp.spec.lg_ases[i % exp.spec.lg_ases.len()];
        reqs.push(Query::Route { vantage, prefix }.at(Scope::Latest));
        reqs.push(Query::SaStatus { vantage, prefix }.at(Scope::Label("t0".into())));
        reqs.push(match i % 13 {
            0 => Query::Resolve { vantage, prefix }.at(Scope::Id(SnapshotId(0))),
            1 => Query::Relationship { a, b }.at(Scope::Latest),
            2 => Query::PolicySummary { asn }.at(Scope::Latest),
            3 => Query::Diff.at(Scope::All),
            4 => Query::SaHistory { vantage, prefix }.at(Scope::All),
            5 => Query::UptimeHistogram { vantage }.at(Scope::All),
            6 => Query::TopKSaOrigins { vantage, k }.at(Scope::All),
            7 => Query::PersistenceClass { vantage, prefix }.at(Scope::All),
            8 => Query::Rov { vantage, prefix }.at(Scope::Latest),
            9 => Query::Hijacks.at(Scope::All),
            10 => Query::Leaks.at(Scope::Latest),
            // Scope errors come back in place, too.
            11 => Query::Leaks.at(Scope::Id(SnapshotId(7))),
            _ => Query::Resolve { vantage, prefix }.at(Scope::All),
        });
    }
    let verbs: std::collections::BTreeSet<usize> =
        reqs.iter().map(|r| r.query.verb_index()).collect();
    assert_eq!(verbs.len(), rpi_query::proto::VERBS.len(), "every verb");

    let render = |req: &QueryRequest, result: Result<Response, QueryError>| match result {
        Ok(resp) => render_response(req, &resp),
        Err(e) => format!("error: {e}"),
    };
    let batched = engine.execute_batch(&reqs);
    assert_eq!(batched.len(), reqs.len());
    let failed: Vec<&str> = reqs
        .iter()
        .zip(&batched)
        .filter(|(_, got)| got.is_err())
        .map(|(req, _)| req.query.verb())
        .collect();
    assert!(failed.contains(&"resolve") && failed.contains(&"leaks"));
    for (i, (req, got)) in reqs.iter().zip(batched).enumerate() {
        let single = render(req, engine.execute(req));
        assert_eq!(render(req, got), single, "request {i}: {req:?}");
    }
}

#[test]
fn lpm_resolve_answers_more_specific_queries() {
    let (exp, engine) = world();
    let lg = exp.spec.lg_ases[0];
    let table = exp.lg_table(lg).unwrap();
    let (&prefix, row) = table
        .rows
        .iter()
        .find(|(p, _)| p.len() < 30)
        .expect("some splittable prefix");
    // A more-specific query prefix must resolve to the covering route.
    let (lo, _) = prefix.split().unwrap();
    let resolve = Query::Resolve {
        vantage: lg,
        prefix: lo,
    };
    let ans = route(&engine, resolve.at(Scope::Latest)).unwrap();
    // The match is `prefix` itself unless the table holds something even
    // more specific that still covers `lo`.
    assert!(ans.prefix.covers(lo));
    assert!(ans.prefix.len() >= prefix.len());
    if ans.prefix == prefix {
        assert_eq!(ans.next_hop, row.next_hop);
    }
}

#[test]
fn mrt_ingest_serves_collector_routes() {
    let exp = Experiment::standard(InternetSize::Tiny, 11);
    let dump = bgp_sim::export::collector_to_mrt(&exp.output.collector, 1_015_000_000);
    let bytes = dump.encode(1_015_000_000);

    let mut engine = QueryEngine::default();
    let id = engine
        .ingest_mrt_bytes(&bytes, "mrt-0")
        .expect("valid MRT image");
    assert_eq!(engine.snapshot_count(), 1);

    for &peer in &exp.output.collector.peers {
        let table = rpi_core::view::BestTable::from_collector(&exp.output.collector, peer);
        for (&prefix, row) in &table.rows {
            let vantage = peer;
            let ans = route(&engine, Query::Route { vantage, prefix }.at(Scope::Id(id))).unwrap();
            assert_eq!(ans.next_hop, row.next_hop, "{prefix} at {peer}");
            assert_eq!(ans.path, row.path);
        }
    }

    // Garbage bytes fail cleanly, not by panic.
    assert!(engine
        .ingest_mrt_bytes(&[0xde, 0xad, 0xbe, 0xef], "junk")
        .is_err());
}
