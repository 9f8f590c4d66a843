//! Generators are pure functions of (workload, seed): the same seed
//! gives byte-identical scripts and fixture inputs, another seed gives
//! others — and every generated line is one the engine answers.

use net_topology::InternetSize;
use rpi_benchmark::client::windows;
use rpi_benchmark::fixture::{churn, ping_pong, roas, Keys, SHARDS};
use rpi_benchmark::rng::Rng;
use rpi_benchmark::workload::{expected, frames_in, tier_cycle, Workload};
use rpi_core::Experiment;
use rpi_query::QueryEngine;
use rpi_sec::RoaTable;

/// A Tiny world: big enough to have every kind of key, small enough for
/// a debug-build test.
fn tiny(seed: u64) -> (Experiment, Keys) {
    let exp = Experiment::standard(InternetSize::Tiny, seed);
    let keys = Keys::of(&exp.output);
    (exp, keys)
}

#[test]
fn the_rng_is_a_pure_function_of_seed_and_salt() {
    let draw = |seed, salt| {
        let mut r = Rng::new(seed, salt);
        (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
    };
    assert_eq!(draw(7, "a"), draw(7, "a"));
    assert_ne!(draw(7, "a"), draw(8, "a"));
    assert_ne!(draw(7, "a"), draw(7, "b"));
    let mut r = Rng::new(1, "range");
    assert!((0..10_000).all(|_| r.below(7) < 7));
    assert!((0..100).all(|_| !r.percent(0)) && (0..100).all(|_| r.percent(100)));
}

#[test]
fn keys_are_deterministic_and_complete() {
    let (_, a) = tiny(11);
    let (_, b) = tiny(11);
    assert_eq!(a, b);
    assert!(!a.pairs.is_empty() && !a.hops.is_empty() && !a.origins.is_empty());
    assert!(
        a.pairs.windows(2).all(|w| w[0] < w[1]),
        "sorted, no duplicates"
    );
    assert!(a
        .vantages
        .iter()
        .all(|v| a.pairs.iter().any(|(pv, _)| pv == v)));
    assert_ne!(a, tiny(12).1);
}

#[test]
fn scripts_repeat_for_a_seed_and_differ_between_seeds() {
    let (_, keys) = tiny(11);
    for workload in Workload::ALL {
        let a = workload.script(&keys, 24, 5, 0);
        assert_eq!(
            a.len(),
            workload.windows() * workload.depth(),
            "{workload:?}"
        );
        assert!(
            a.iter().all(|l| !l.contains('\n') && l.len() < 80),
            "{workload:?}"
        );
        assert_eq!(
            a,
            workload.script(&keys, 24, 5, 0),
            "{workload:?}: same seed"
        );
        assert_ne!(
            a,
            workload.script(&keys, 24, 6, 0),
            "{workload:?}: other seed"
        );
        assert_ne!(
            a,
            workload.script(&keys, 24, 5, 1),
            "{workload:?}: other connection"
        );
    }
    // The two point workloads share a mix but not a sequence.
    assert_ne!(
        Workload::PointPipelined.script(&keys, 1, 5, 0)[..64],
        Workload::PointInteractive.script(&keys, 1, 5, 0)[..64]
    );
}

#[test]
fn the_point_mix_has_its_advertised_shape() {
    let (_, keys) = tiny(11);
    let lines = Workload::PointInteractive.script(&keys, 1, 3, 0);
    let share = |verb: &str| {
        let n = lines
            .iter()
            .filter(|l| l.split(' ').next() == Some(verb))
            .count();
        100.0 * n as f64 / lines.len() as f64
    };
    for (verb, pct) in [
        ("route", 30.0),
        ("resolve", 25.0),
        ("sa", 20.0),
        ("rov", 15.0),
        ("rel", 5.0),
        ("summary", 5.0),
    ] {
        assert!(
            (share(verb) - pct).abs() < 1.0,
            "{verb}: {:.2} %",
            share(verb)
        );
    }
    // Absent prefixes come from 240.0.0.0/4, which no world allocates.
    let absent = lines.iter().filter(|l| {
        l.split(' ')
            .nth(2)
            .and_then(|p| p.split('.').next())
            .and_then(|octet| octet.parse::<u32>().ok())
            .is_some_and(|octet| octet >= 240)
    });
    let keyed = lines
        .iter()
        .filter(|l| !l.starts_with("rel") && !l.starts_with("summary"));
    let pct = 100.0 * absent.count() as f64 / keyed.count() as f64;
    assert!((pct - 5.0).abs() < 1.0, "absent keys: {pct:.2} %");
}

#[test]
fn tier_windows_pin_one_snapshot_and_hold_one_sa() {
    let (_, keys) = tiny(11);
    let lines = Workload::TierMixed.script(&keys, 24, 9, 0);
    let mut per_id = [0usize; 24];
    for window in lines.chunks(Workload::TierMixed.depth()) {
        let scope = window[0].rsplit(' ').next().unwrap();
        assert!(
            window.iter().all(|l| l.ends_with(scope)),
            "one snapshot per window"
        );
        assert_eq!(window.iter().filter(|l| l.starts_with("sa ")).count(), 1);
        let id: usize = scope.trim_start_matches('@').parse().unwrap();
        per_id[id] += 1;
    }
    // 480 windows are ten cycles of 48: every id once per cycle, and the
    // newest four six times more — the same for every seed.
    assert_eq!(Workload::TierMixed.windows(), 480);
    assert!(per_id[..20].iter().all(|&n| n == 10), "{per_id:?}");
    assert!(per_id[20..].iter().all(|&n| n == 70), "{per_id:?}");
    let mut rng = Rng::new(1, "cycle");
    let mut cycle = tier_cycle(24, &mut rng);
    assert_ne!(cycle, tier_cycle(24, &mut rng), "the order is the seed's");
    cycle.sort_unstable();
    assert_eq!(cycle.iter().filter(|&&id| id >= 20).count(), 4 + 24);
    assert_eq!(tier_cycle(1, &mut rng), [0, 0]);
}

#[test]
fn history_cycles_deal_four_windows_of_the_same_make_up() {
    let (_, keys) = tiny(11);
    let lines = Workload::HistoryScan.script(&keys, 24, 9, 0);
    let count = |lines: &[String], verb: &str| {
        lines
            .iter()
            .filter(|l| l.split(' ').next() == Some(verb))
            .count()
    };
    for cycle in lines.chunks(32) {
        assert_eq!(
            [
                count(cycle, "uptime"),
                count(cycle, "sa-history"),
                count(cycle, "persistence"),
                count(cycle, "top-sa"),
                count(cycle, "diff"),
                count(cycle, "leaks"),
                count(cycle, "hijacks")
            ],
            [8, 6, 6, 4, 4, 3, 1]
        );
    }
    assert_eq!(Workload::HistoryScan.depth(), 8);
    for window in lines.chunks(8) {
        assert_eq!(
            count(window, "hijacks") + count(window, "leaks"),
            1,
            "one scan"
        );
        assert_eq!(count(window, "diff"), 1);
        assert_eq!(count(window, "uptime"), 2);
    }
    assert!(lines
        .iter()
        .filter(|l| l.starts_with("hijacks"))
        .all(|l| l == "hijacks @all"));
    let scoped: Vec<&String> = lines
        .iter()
        .filter(|l| {
            !["diff", "leaks", "hijacks"]
                .iter()
                .any(|v| l.starts_with(v))
        })
        .collect();
    let all = scoped.iter().filter(|l| l.ends_with("@all")).count() as f64 / scoped.len() as f64;
    assert!((all - 0.5).abs() < 0.15, "@all share {all:.2}");
    // Which window of a cycle gets the hijacks is the seed's.
    let at = |seed| {
        let l = Workload::HistoryScan.script(&keys, 24, seed, 0);
        (0..8)
            .map(|c| {
                l[c * 32..][..32]
                    .iter()
                    .position(|x| x == "hijacks @all")
                    .unwrap()
                    / 8
            })
            .collect::<Vec<_>>()
    };
    assert_ne!(at(1), at(2));
}

#[test]
fn every_generated_line_is_answered_by_the_engine() {
    let (exp, keys) = tiny(11);
    let mut engine = QueryEngine::new(SHARDS);
    let series = bgp_sim::churn::simulate_series(&exp.graph, &exp.truth, &exp.spec, &churn(3));
    engine.ingest_series_incremental(&series, &exp.inferred_graph);
    engine.set_roas(RoaTable::new(roas(&keys, 11)));
    let keys = Keys::of(series.snapshots.last().unwrap());
    for workload in Workload::ALL {
        let lines = workload.script(&keys, 3, 4, 0);
        for line in lines.iter().take(2_048) {
            let answer = expected(&engine, line).unwrap_or_else(|e| panic!("{workload:?}: {e}"));
            assert!(answer.ends_with('\n') && !answer.starts_with("error"));
        }
        let w = windows(
            &lines[..workload.depth() * 2],
            workload.depth(),
            Some(&engine),
        )
        .unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].ops as usize, workload.depth());
        assert_eq!(
            w[0].request.iter().filter(|&&b| b == b'\n').count(),
            workload.depth()
        );
        assert!(!w[0].expected.is_empty());
    }
}

#[test]
fn fixture_inputs_repeat_for_a_seed() {
    let (_, keys) = tiny(11);
    assert_eq!(roas(&keys, 3), roas(&keys, 3));
    assert_ne!(roas(&keys, 3), roas(&keys, 4));
    let n = keys.origins.len() as f64;
    let share = roas(&keys, 3).len() as f64 / n;
    assert!(
        (share - 0.8).abs() < 0.1,
        "about 80 % of origins get a ROA, got {share:.2}"
    );
    assert_eq!(
        churn(24).seed,
        churn(8).seed,
        "one world behind every fixture"
    );
    // Ping-pong: forward, backward, forward — always one step apart.
    let order: Vec<usize> = (0..9).map(|i| ping_pong(i, 4)).collect();
    assert_eq!(order, [0, 1, 2, 3, 2, 1, 0, 1, 2]);
    assert!((1..500).all(|i| ping_pong(i, 16).abs_diff(ping_pong(i - 1, 16)) == 1));
    assert_eq!(ping_pong(5, 1), 0);
    // One publication per 250 ms of a step, never none.
    use std::time::Duration;
    assert_eq!(frames_in(Duration::from_secs(1)), 4);
    assert_eq!(frames_in(Duration::from_millis(300)), 1);
    assert_eq!(frames_in(Duration::from_millis(20)), 1);
}
