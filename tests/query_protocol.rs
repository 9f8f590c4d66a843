//! The one-protocol contract: `engine.execute(QueryRequest)` is the only
//! way to ask, and the history queries answer the paper's Figs 6–7
//! questions over a multi-snapshot series in one request each —
//! byte-for-byte consistent with the direct `rpi_core::persistence`
//! analyses over the same ingested series.

use std::collections::{BTreeMap, BTreeSet};

use internet_routing_policies::prelude::*;
use internet_routing_policies::{bgp_sim, rpi_core, rpi_query};

use bgp_sim::churn::simulate_series;
use rpi_core::persistence::{sa_series, uptime_histogram, PersistenceClass};
use rpi_query::{Query, QueryError, Response, Scope, SnapshotId};

fn churny_world() -> (
    AsGraph,
    bgp_sim::SnapshotSeries,
    Asn,
    QueryEngine,
    Vec<SnapshotId>,
) {
    let g = InternetConfig::of_size(InternetSize::Tiny).build();
    let t = GroundTruth::generate(&g, &PolicyParams::default());
    let spec = VantageSpec::paper_like(&g, 10, 6);
    let cfg = ChurnConfig {
        seed: 77,
        steps: 8,
        flip_prob: 0.9,
        link_failure_prob: 0.0,
        label: "day",
    };
    let series = simulate_series(&g, &t, &spec, &cfg);
    let provider = spec.lg_ases[0];
    let mut engine = QueryEngine::default();
    let ids = engine.ingest_series(&series, &g);
    (g, series, provider, engine, ids)
}

#[test]
fn uptime_query_matches_direct_persistence_analysis() {
    let (g, series, provider, engine, ids) = churny_world();
    assert_eq!(ids.len(), 8);

    let direct = uptime_histogram(&series, provider, &g);
    let req = Query::UptimeHistogram { vantage: provider }.at(Scope::All);
    let Ok(Response::Uptime(served)) = engine.execute(&req) else {
        panic!("uptime query must answer for an LG provider");
    };
    assert_eq!(served, direct, "one request ≡ the direct Fig 7 analysis");

    // A range scope over the full series is the same question.
    let full_range =
        Query::UptimeHistogram { vantage: provider }.at(Scope::Range(ids[0], *ids.last().unwrap()));
    assert_eq!(engine.execute(&full_range), Ok(Response::Uptime(direct)));

    // A prefix of the series matches the direct analysis of that prefix.
    let half = bgp_sim::SnapshotSeries {
        labels: series.labels[..4].to_vec(),
        snapshots: series.snapshots[..4].to_vec(),
    };
    let direct_half = uptime_histogram(&half, provider, &g);
    let req_half = Query::UptimeHistogram { vantage: provider }.at(Scope::Range(ids[0], ids[3]));
    assert_eq!(engine.execute(&req_half), Ok(Response::Uptime(direct_half)));
}

#[test]
fn sa_history_matches_direct_sa_series() {
    let (g, series, provider, engine, _) = churny_world();
    let points = sa_series(&series, provider, &g);

    // Every prefix ever present at the provider, from the series itself.
    let mut prefixes: BTreeSet<Ipv4Prefix> = BTreeSet::new();
    for snap in &series.snapshots {
        let table = BestTable::from_lg(snap.lg(provider).unwrap());
        prefixes.extend(table.rows.keys().copied());
    }

    // One sa-history request per prefix; per-snapshot SA counts must
    // reproduce the direct Fig 6 series.
    let mut sa_per_snapshot = vec![0usize; series.snapshots.len()];
    let mut total_per_snapshot = vec![0usize; series.snapshots.len()];
    for &prefix in &prefixes {
        let req = Query::SaHistory {
            vantage: provider,
            prefix,
        }
        .at(Scope::All);
        let Ok(Response::SaHistory(history)) = engine.execute(&req) else {
            panic!("sa-history must answer for {prefix}");
        };
        assert_eq!(history.len(), series.snapshots.len());
        for (i, point) in history.iter().enumerate() {
            assert_eq!(point.snapshot, SnapshotId(i as u32));
            assert_eq!(point.label, series.labels[i], "labels ride along");
            match point.status {
                SaStatus::SelectivelyAnnounced { .. } => {
                    sa_per_snapshot[i] += 1;
                    total_per_snapshot[i] += 1;
                }
                SaStatus::CustomerExported { .. } | SaStatus::NotCustomerRoute => {
                    total_per_snapshot[i] += 1;
                }
                SaStatus::NotInTable => {}
                SaStatus::UnknownVantage => panic!("{provider} is an LG of every snapshot"),
            }
        }
    }
    for (i, point) in points.iter().enumerate() {
        assert_eq!(sa_per_snapshot[i], point.sa, "SA count at snapshot {i}");
        assert_eq!(
            total_per_snapshot[i], point.total,
            "table size at snapshot {i}"
        );
    }
}

#[test]
fn top_k_and_persistence_answer_in_one_request() {
    let (g, series, provider, engine, _) = churny_world();

    // Direct computation: distinct ever-SA prefixes per origin.
    let mut per_origin: BTreeMap<Asn, BTreeSet<Ipv4Prefix>> = BTreeMap::new();
    let mut present: BTreeMap<Ipv4Prefix, usize> = BTreeMap::new();
    let mut sa_count: BTreeMap<Ipv4Prefix, usize> = BTreeMap::new();
    for snap in &series.snapshots {
        let table = BestTable::from_lg(snap.lg(provider).unwrap());
        let report = sa_prefixes(&table, &g);
        for (&p, &origin) in &report.sa_origin {
            per_origin.entry(origin).or_default().insert(p);
            *sa_count.entry(p).or_insert(0) += 1;
        }
        for &p in table.rows.keys() {
            *present.entry(p).or_insert(0) += 1;
        }
    }
    if per_origin.is_empty() {
        return; // world rolled no SA behaviour; nothing to rank
    }

    // --- top-sa ---
    let k = 3usize;
    let req = Query::TopKSaOrigins {
        vantage: provider,
        k,
    }
    .at(Scope::All);
    let Ok(Response::TopSaOrigins(rows)) = engine.execute(&req) else {
        panic!("top-sa must answer");
    };
    let mut expect: Vec<(Asn, usize)> = per_origin.iter().map(|(&o, ps)| (o, ps.len())).collect();
    expect.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    expect.truncate(k);
    let got: Vec<(Asn, usize)> = rows.iter().map(|r| (r.origin, r.prefixes)).collect();
    assert_eq!(got, expect, "top-{k} SA origins");

    // --- persistence, for an ever-SA prefix and a never-SA one ---
    let (&sa_prefix, &sa_n) = sa_count.iter().next().unwrap();
    let req = Query::PersistenceClass {
        vantage: provider,
        prefix: sa_prefix,
    }
    .at(Scope::All);
    let Ok(Response::Persistence(p)) = engine.execute(&req) else {
        panic!("persistence must answer");
    };
    assert_eq!(p.snapshots, series.snapshots.len());
    assert_eq!(p.sa, sa_n);
    assert_eq!(p.present, present[&sa_prefix]);
    assert_eq!(
        p.class,
        if sa_n == present[&sa_prefix] {
            PersistenceClass::RemainingSa
        } else {
            PersistenceClass::Shifted
        }
    );

    if let Some((&plain, &n)) = present.iter().find(|(p, _)| !sa_count.contains_key(p)) {
        let req = Query::PersistenceClass {
            vantage: provider,
            prefix: plain,
        }
        .at(Scope::All);
        let Ok(Response::Persistence(p)) = engine.execute(&req) else {
            panic!("persistence must answer");
        };
        assert_eq!((p.present, p.sa), (n, 0));
        assert_eq!(p.class, PersistenceClass::NeverSa);
    }
}

#[test]
fn scope_errors_are_typed() {
    let exp = Experiment::standard(InternetSize::Tiny, 11);
    let mut engine = QueryEngine::default();

    let v = exp.spec.lg_ases[0];
    let p: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
    let route = Query::Route {
        vantage: v,
        prefix: p,
    };

    // Empty engine: nothing to scope.
    assert_eq!(
        engine.execute(&route.clone().at(Scope::Latest)),
        Err(QueryError::Empty)
    );

    engine.ingest_experiment(&exp, "t0");

    // Point queries reject multi-snapshot scopes.
    assert!(matches!(
        engine.execute(&route.clone().at(Scope::All)),
        Err(QueryError::ScopeMismatch { query: "route", .. })
    ));
    // Unknown ids and labels are named in the error.
    assert_eq!(
        engine.execute(&route.clone().at(Scope::Id(SnapshotId(9)))),
        Err(QueryError::UnknownSnapshot(SnapshotId(9)))
    );
    assert_eq!(
        engine.execute(&route.at(Scope::Label("nope".into()))),
        Err(QueryError::UnknownLabel("nope".into()))
    );
    // History ranges must run forward and stay in bounds.
    let up = Query::UptimeHistogram { vantage: v };
    assert_eq!(
        engine.execute(&up.clone().at(Scope::Range(SnapshotId(1), SnapshotId(0)))),
        Err(QueryError::InvertedRange(SnapshotId(1), SnapshotId(0)))
    );
    // History queries name unknown vantages instead of answering zeros.
    assert_eq!(
        engine.execute(
            &Query::UptimeHistogram {
                vantage: Asn(999_999)
            }
            .at(Scope::All)
        ),
        Err(QueryError::UnknownVantage(Asn(999_999)))
    );
    // Diff needs a range.
    assert!(matches!(
        engine.execute(&Query::Diff.at(Scope::Latest)),
        Err(QueryError::ScopeMismatch { query: "diff", .. })
    ));
}
