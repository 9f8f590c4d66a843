//! `compare` verdicts on hand-made result pairs.

use rpi_benchmark::compare::{
    compare, fails, render, render_drift, verdict, worsening, ResultSet, Verdict,
};
use rpi_benchmark::spec::{Better, Spec};

const SPEC: &str = r#"{
  "run_seconds": 10,
  "workloads": [{"name": "hit", "why": "w"}, {"name": "miss", "why": "w"}],
  "end_to_end": [
    {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.05},
    {"name": "p50_us", "unit": "us", "better": "lower", "bound": 0.05}
  ],
  "per_layer": [{"name": "proto.parse_ns", "unit": "ns", "better": "lower"}]
}"#;

fn line(workload: &str, qps: f64, p50: f64, failed: u64) -> String {
    format!(
        r#"{{"workload": "{workload}", "trace": 0, "correct": true, "attempted": 1000, "failed": {failed}, "metrics": {{"qps": {{"value": {qps}, "unit": "1/s"}}, "p50_us": {{"value": {p50}, "unit": "us"}}}}}}"#
    )
}

fn set(lines: &[String]) -> ResultSet {
    ResultSet::parse(&lines.join("\n")).expect("well-formed result lines")
}

#[test]
fn verdicts_follow_direction_bound_and_spread() {
    let base = [100.0, 101.0, 99.0, 100.5, 99.5];
    // Lower is better: +2 % is within a 5 % bound, +10 % is worse,
    // −10 % is better.
    let shift = |f: f64| base.map(|x| x * f);
    assert_eq!(
        verdict(&base, &shift(1.02), Better::Lower, 0.05),
        Verdict::Within
    );
    assert_eq!(
        verdict(&base, &shift(1.10), Better::Lower, 0.05),
        Verdict::Worse
    );
    assert_eq!(
        verdict(&base, &shift(0.90), Better::Lower, 0.05),
        Verdict::Better
    );
    // Higher is better: the same shifts read the other way round.
    assert_eq!(
        verdict(&base, &shift(1.10), Better::Higher, 0.05),
        Verdict::Better
    );
    assert_eq!(
        verdict(&base, &shift(0.90), Better::Higher, 0.05),
        Verdict::Worse
    );
    assert_eq!(
        verdict(&base, &shift(0.98), Better::Higher, 0.05),
        Verdict::Within
    );
    // An improvement smaller than the run-to-run spread is not a gain.
    assert_eq!(
        verdict(&base, &shift(0.995), Better::Lower, 0.05),
        Verdict::Within
    );
    assert!((worsening(&base, &shift(1.10), Better::Lower) - 0.10).abs() < 1e-9);
    assert!((worsening(&base, &shift(1.10), Better::Higher) + 0.10).abs() < 1e-9);
}

#[test]
fn a_spread_wider_than_the_bound_is_unresolved_unless_the_sides_are_disjoint() {
    let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
    assert_eq!(
        verdict(&noisy, &noisy.map(|x| x * 1.03), Better::Lower, 0.05),
        Verdict::Unresolved
    );
    // Overlapping, even when the median moved past the bound.
    assert_eq!(
        verdict(&noisy, &noisy.map(|x| x * 1.2), Better::Lower, 0.05),
        Verdict::Unresolved
    );
    // Every run of B better than every run of A: the noise cannot hide it.
    assert_eq!(
        verdict(&noisy, &noisy.map(|x| x * 0.5), Better::Lower, 0.05),
        Verdict::Better
    );
    assert_eq!(
        verdict(&noisy, &noisy.map(|x| x * 2.0), Better::Lower, 0.05),
        Verdict::Worse
    );
}

#[test]
fn rows_cover_every_workload_and_metric_and_error_rate() {
    let spec = Spec::parse(SPEC).unwrap();
    let a = set(&[
        line("hit", 1000.0, 50.0, 0),
        line("hit", 1010.0, 51.0, 0),
        line("miss", 500.0, 90.0, 0),
    ]);
    let b = set(&[
        line("hit", 1100.0, 45.0, 0),
        line("hit", 1110.0, 46.0, 0),
        line("miss", 400.0, 91.0, 0),
    ]);
    let rows = compare(&spec, &a, &b).unwrap();
    let find = |w: &str, m: &str| {
        rows.iter()
            .find(|r| r.workload == w && r.metric == m)
            .unwrap_or_else(|| panic!("no row {w} {m}"))
    };
    assert_eq!(rows.len(), 2 * 3, "two metrics and error_rate per workload");
    assert_eq!(find("hit", "qps").verdict, Verdict::Better);
    assert_eq!(find("hit", "p50_us").verdict, Verdict::Better);
    assert_eq!(find("miss", "qps").verdict, Verdict::Worse);
    assert_eq!(find("miss", "p50_us").verdict, Verdict::Within);
    assert_eq!(find("hit", "error_rate").verdict, Verdict::Within);
    assert_eq!(find("hit", "qps").runs, (2, 2));
    assert!(
        (find("hit", "qps").a - 1005.0).abs() < 1e-9,
        "medians, not means"
    );
    assert!(fails(&rows), "a worse row fails the comparison");
    let table = render(&rows);
    assert!(table.contains("B/A (base A)"), "every ratio names its base");
    assert!(table.contains("worse") && table.contains("better"));
}

#[test]
fn any_rise_in_error_rate_fails() {
    let spec = Spec::parse(SPEC).unwrap();
    let a = set(&[line("hit", 1000.0, 50.0, 0)]);
    let b = set(&[line("hit", 1000.0, 50.0, 1)]);
    let rows = compare(&spec, &a, &b).unwrap();
    let err = rows.iter().find(|r| r.metric == "error_rate").unwrap();
    assert_eq!(err.verdict, Verdict::Worse);
    assert!(fails(&rows));
    // The same sets the other way round: failures went away.
    let rows = compare(&spec, &b, &a).unwrap();
    assert!(!fails(&rows));
}

#[test]
fn incomparable_sets_are_an_error_not_a_pass() {
    let spec = Spec::parse(SPEC).unwrap();
    let a = set(&[line("hit", 1000.0, 50.0, 0), line("miss", 1.0, 1.0, 0)]);
    let b = set(&[line("hit", 1000.0, 50.0, 0)]);
    assert!(compare(&spec, &a, &b).is_err());
    assert!(compare(&spec, &ResultSet::default(), &ResultSet::default()).is_err());
    // Traced lines carry per-layer metrics and are not compared.
    let traced = r#"{"workload": "hit", "trace": 1, "attempted": 1, "failed": 0, "metrics": {"proto.parse_ns": {"value": 1, "unit": "ns"}}}"#;
    assert!(ResultSet::parse(traced).unwrap().values.is_empty());
    assert!(ResultSet::parse("{not json").is_err());
}

#[test]
fn machine_drift_between_the_sets_is_flagged() {
    let spec = Spec::parse(SPEC).unwrap();
    let with_slowdown = |slowdown: f64| {
        let l = line("hit", 100.0, 10.0, 0);
        let l = l.strip_suffix('}').unwrap();
        set(&[format!(r#"{l}, "slowdown": {slowdown}}}"#)])
    };
    let calm = render_drift(&spec, &with_slowdown(1.00), &with_slowdown(1.05));
    assert!(calm.contains("B/A (base A) 1.050") && !calm.contains("drifted"));
    let moved = render_drift(&spec, &with_slowdown(1.00), &with_slowdown(1.30));
    assert!(moved.contains("hit") && moved.contains("drifted"));
    // Result lines without a recorded slowdown say nothing.
    let none = set(&[line("hit", 100.0, 10.0, 0)]);
    assert_eq!(render_drift(&spec, &none, &none), "");
}

#[test]
fn a_slip_the_runs_resolve_is_marked_even_inside_the_bound() {
    let spec = Spec::parse(SPEC).unwrap();
    let runs = |qps: f64| -> Vec<String> {
        [0.999, 1.0, 1.001, 1.0, 1.0]
            .iter()
            .map(|f| line("hit", qps * f, 10.0, 0))
            .collect()
    };
    // 3 % down on a 5 % bound with 0.1 % spread: passes, but is pointed out.
    let rows = compare(&spec, &set(&runs(100.0)), &set(&runs(97.0))).unwrap();
    assert!(!fails(&rows));
    let table = render(&rows);
    let qps_row = table.lines().find(|l| l.contains(" qps ")).unwrap();
    assert!(qps_row.contains("within (worse by more than the spread)"));
    let p50_row = table.lines().find(|l| l.contains(" p50_us ")).unwrap();
    assert!(p50_row.trim_end().ends_with("within"));
}
