//! The measurement loop through real bytes: simulate → serialize to MRT /
//! Looking-Glass text → parse back → analyze. The analyses must not care
//! which side of the serialization they run on.

use bgp_sim::export::{collector_to_mrt, lg_to_table, mrt_to_collector, table_to_lg};
use bgp_wire::TableDump;
use internet_routing_policies::prelude::*;
use rpi_core::export_policy::sa_prefixes;
use rpi_core::import_policy::lg_typicality;
use rpi_core::view::BestTable;

#[test]
fn sa_analysis_is_identical_through_mrt_bytes() {
    let e = Experiment::standard(InternetSize::Tiny, 3);
    let peer = e.spec.collector_peers[0];

    // Direct path.
    let direct = sa_prefixes(&e.collector_table(peer), &e.inferred_graph);

    // Through an actual MRT TABLE_DUMP_V2 byte image.
    let bytes: Vec<u8> = collector_to_mrt(&e.output.collector, 1_037_000_000).encode(1_037_000_000);
    assert!(
        bytes.len() > 1000,
        "dump has substance: {} bytes",
        bytes.len()
    );
    let parsed = TableDump::decode(bytes).expect("own dump parses");
    let collector = mrt_to_collector(&parsed).expect("peer indexes valid");
    let via_mrt = sa_prefixes(
        &BestTable::from_collector(&collector, peer),
        &e.inferred_graph,
    );

    assert_eq!(direct.customer_prefixes, via_mrt.customer_prefixes);
    assert_eq!(direct.sa, via_mrt.sa);
    assert_eq!(direct.per_origin, via_mrt.per_origin);
}

#[test]
fn typicality_is_identical_through_lg_text() {
    let e = Experiment::standard(InternetSize::Tiny, 3);
    let lg = e.spec.lg_ases[0];
    let view = e.output.lg(lg).unwrap();

    let direct = lg_typicality(view, &e.inferred_graph);

    let text = lg_to_table(view).render();
    assert!(text.starts_with("# lg-table v1"));
    let parsed = bgp_wire::text::LgTable::parse(&text).expect("own text parses");
    let back = table_to_lg(&parsed);
    let via_text = lg_typicality(&back, &e.inferred_graph);

    assert_eq!(direct.prefixes_compared, via_text.prefixes_compared);
    assert_eq!(direct.typical, via_text.typical);
}

#[test]
fn relationship_inference_is_identical_through_mrt_bytes() {
    use as_relationships::{infer, InferenceParams};
    let e = Experiment::standard(InternetSize::Tiny, 3);

    let bytes = collector_to_mrt(&e.output.collector, 7).encode(7);
    let collector = mrt_to_collector(&TableDump::decode(bytes).unwrap()).unwrap();

    let direct_paths: Vec<&[bgp_types::Asn]> = e
        .output
        .collector
        .all_paths()
        .map(|r| r.path.as_slice())
        .collect();
    let parsed_paths: Vec<&[bgp_types::Asn]> =
        collector.all_paths().map(|r| r.path.as_slice()).collect();

    let a = infer(direct_paths, &InferenceParams::default());
    let b = infer(parsed_paths, &InferenceParams::default());
    assert_eq!(a.len(), b.len());
    for (x, y, r) in a.iter() {
        assert_eq!(b.rel(x, y), Some(r));
    }
}
