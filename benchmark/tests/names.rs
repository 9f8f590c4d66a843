//! `BENCHMARK.json` is the only list of metric names and units — the
//! harness takes both from it and refuses to print a result whose metric
//! set differs (`Outcome::to_json`, exercised here and by `--check`).
//! What is left to hold together is the file's own shape and the
//! workload names.

use std::collections::BTreeSet;

use rpi_benchmark::run::Outcome;
use rpi_benchmark::spec::{Metric, Spec};
use rpi_benchmark::workload::Workload;

fn contract() -> Spec {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Spec::load(path.as_ref()).expect("BENCHMARK.json parses")
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn well_formed_list(listed: &[Metric], what: &str) {
    for Metric { name, unit, .. } in listed {
        assert!(well_formed(name), "{what}: bad metric name '{name}'");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric()
                        || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')),
            "{what}: bad unit '{unit}' of '{name}'"
        );
    }
}

#[test]
fn metric_lists_are_well_formed() {
    let spec = contract();
    well_formed_list(&spec.end_to_end, "end_to_end");
    well_formed_list(&spec.per_layer, "per_layer");
    assert!((1..=16).contains(&spec.end_to_end.len()));
    assert!((1..=128).contains(&spec.per_layer.len()));
    let names: BTreeSet<&str> = spec
        .end_to_end
        .iter()
        .chain(&spec.per_layer)
        .map(|m| m.name.as_str())
        .collect();
    assert_eq!(
        names.len(),
        spec.end_to_end.len() + spec.per_layer.len(),
        "a name is used once across both lists"
    );
    for m in &spec.end_to_end {
        let bound = m
            .bound
            .unwrap_or_else(|| panic!("'{}' has no bound", m.name));
        assert!(bound > 0.0 && bound <= 0.25, "'{}' bound {bound}", m.name);
    }
    assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    let setup = spec
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("the contract requires setup_s");
    assert_eq!(setup.unit, "s");
    let widest = spec
        .end_to_end
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
}

#[test]
fn a_result_holds_exactly_the_listed_metrics() {
    let spec = contract();
    let listed = &spec.end_to_end;
    let mut out = Outcome {
        correct: true,
        attempted: 1,
        failed: 0,
        metrics: listed.iter().map(|m| (m.name.clone(), 1.5)).collect(),
        raw: Vec::new(),
        slowdown: None,
        notes: Vec::new(),
    };
    let result = out.to_json(listed).expect("the listed set is accepted");
    let metrics = result.get("metrics").and_then(|m| m.as_obj()).unwrap();
    assert_eq!(metrics.len(), listed.len());
    for (m, (name, value)) in listed.iter().zip(metrics) {
        assert_eq!(&m.name, name, "metrics come out in the contract's order");
        assert_eq!(value.get("unit").and_then(|u| u.as_str()), Some(&*m.unit));
    }

    out.metrics.push(("made.up".to_string(), 1.0));
    assert!(out.to_json(listed).unwrap_err().contains("made.up"));
    out.metrics.pop();
    let (gone, _) = out.metrics.remove(0);
    assert!(out.to_json(listed).unwrap_err().contains(&gone));
    out.metrics.push((gone.clone(), f64::NAN));
    assert!(out.to_json(listed).unwrap_err().contains(&gone));
}

#[test]
fn workloads_match_the_contract() {
    let spec = contract();
    let listed: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed, known);
    for name in known {
        assert!(well_formed(name));
        assert_eq!(Workload::by_name(name).map(Workload::name), Some(name));
    }
    assert_eq!(Workload::by_name("all"), None);
    assert!((1.0..=60.0).contains(&spec.run_seconds) && spec.run_seconds.fract() == 0.0);
}
