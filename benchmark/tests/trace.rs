//! Span self-time arithmetic: a layer's self time is its span minus the
//! part its children cover.

use rpi_benchmark::trace::{Span, Tracer, NO_PARENT};

fn span(name: &'static str, start: u64, end: u64, parent: u32, allocs: u64) -> Span {
    Span {
        name,
        start_ns: start,
        end_ns: end,
        parent,
        request_id: 7,
        allocs,
    }
}

#[test]
fn self_time_subtracts_children_not_grandchildren() {
    let mut t = Tracer::new(8);
    let request = t.push_raw(span("request", 0, 100, NO_PARENT, 12));
    let parse = t.push_raw(span("proto.parse", 10, 40, request, 5));
    let execute = t.push_raw(span("engine.execute", 50, 90, request, 6));
    t.push_raw(span("tier.hydrate", 60, 85, execute, 4));
    let _ = parse;

    let totals = t.totals();
    // request: 100 − (30 + 40); the grandchild is execute's to subtract.
    assert_eq!(totals["request"].self_ns, 30);
    assert_eq!(totals["request"].total_ns, 100);
    assert_eq!(totals["proto.parse"].self_ns, 30);
    assert_eq!(totals["engine.execute"].self_ns, 15);
    assert_eq!(totals["tier.hydrate"].self_ns, 25);
    // Self times of a tree add up to its root's duration.
    let sum: u64 = totals.values().map(|x| x.self_ns).sum();
    assert_eq!(sum, 100);
    // Allocations are reported with children included.
    assert_eq!(totals["request"].allocs, 12);
    assert!(!totals.contains_key("never.recorded"));
}

#[test]
fn spans_of_one_name_accumulate() {
    let mut t = Tracer::new(8);
    for i in 0..3u64 {
        let root = t.push_raw(span("request", i * 100, i * 100 + 50, NO_PARENT, 0));
        t.push_raw(span("proto.render", i * 100 + 10, i * 100 + 20, root, 0));
    }
    let totals = t.totals();
    assert_eq!(totals["request"].count, 3);
    assert_eq!(totals["request"].total_ns, 150);
    assert_eq!(totals["request"].self_ns, 120);
    assert_eq!(totals["proto.render"].self_ns, 30);
}

#[test]
fn recorded_spans_nest_under_the_innermost_open_one() {
    let mut t = Tracer::new(8);
    let got = t.span("request", 3, |/* outer */| 41) + 1;
    assert_eq!(got, 42);
    let outer = t.enter("request", 4);
    t.span("proto.frame", 4, || ());
    t.span("proto.parse", 4, || ());
    t.exit(outer);
    let spans = t.spans();
    assert_eq!(spans.len(), 4);
    assert_eq!(spans[0].parent, NO_PARENT);
    assert_eq!(spans[1].parent, NO_PARENT);
    assert_eq!(spans[2].parent, 1);
    assert_eq!(spans[3].parent, 1);
    assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    assert!(spans[2].start_ns >= spans[1].start_ns && spans[3].end_ns <= spans[1].end_ns);
    assert_eq!(spans[3].request_id, 4);
}

#[test]
fn a_disabled_tracer_records_nothing() {
    let mut t = Tracer::disabled();
    assert_eq!(t.span("request", 0, || 5), 5);
    t.push_raw(span("request", 0, 1, NO_PARENT, 0));
    assert!(t.spans().is_empty());
}

#[test]
fn the_trace_file_is_json_with_index_parents() {
    let mut t = Tracer::new(2);
    let root = t.push_raw(span("request", 1, 9, NO_PARENT, 2));
    t.push_raw(span("proto.parse", 2, 3, root, 1));
    let doc = rpi_benchmark::json::parse(&t.to_json()).expect("valid JSON");
    let spans = doc
        .get("spans")
        .and_then(|s| s.as_arr())
        .expect("spans array");
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[0].get("parent").and_then(|p| p.as_f64()), Some(-1.0));
    assert_eq!(spans[1].get("parent").and_then(|p| p.as_f64()), Some(0.0));
    assert_eq!(
        spans[1].get("name").and_then(|n| n.as_str()),
        Some("proto.parse")
    );
    assert_eq!(spans[1].get("end_ns").and_then(|n| n.as_f64()), Some(3.0));
}
