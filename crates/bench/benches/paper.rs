//! One bench per paper table/figure: measures the analysis cost over a
//! pre-built Small world (the world construction itself is measured
//! separately in `substrates.rs`). Run `paper_tables --size paper` for the
//! actual reproduced numbers (it prints them to stdout). Uses the workspace's
//! Criterion-style harness (`rpi_bench::harness`) — the offline build has
//! no registry access for the real Criterion.

use rpi_bench::harness::Criterion;

use net_topology::InternetSize;
use rpi_bench::{experiments as ex, PaperWorld};

fn bench_tables(c: &mut Criterion) {
    let w = PaperWorld::build(InternetSize::Small, 20021118);
    let mut g = c.benchmark_group("paper");
    g.sample_size(10);

    g.bench_function("table01_datasources", |b| b.iter(|| ex::table1(&w)));
    g.bench_function("table02_import_typicality", |b| b.iter(|| ex::table2(&w)));
    g.bench_function("table03_irr_typicality", |b| b.iter(|| ex::table3(&w)));
    g.bench_function("fig02a_nexthop_consistency", |b| b.iter(|| ex::fig2a(&w)));
    g.bench_function("fig02b_router_consistency", |b| {
        b.iter(|| ex::fig2b(&w, 30))
    });
    g.bench_function("table04_community_verification", |b| {
        b.iter(|| ex::table4(&w))
    });
    g.bench_function("fig09_prefix_rank", |b| b.iter(|| ex::fig9(&w)));
    g.bench_function("table05_sa_prevalence", |b| b.iter(|| ex::table5(&w)));
    g.bench_function("table06_customer_sa", |b| b.iter(|| ex::table6(&w)));
    g.bench_function("table07_sa_verification", |b| b.iter(|| ex::table7(&w)));
    g.bench_function("table08_multihoming", |b| b.iter(|| ex::table8(&w)));
    g.bench_function("table09_causes", |b| b.iter(|| ex::table9(&w)));
    g.bench_function("table10_peer_export", |b| b.iter(|| ex::table10(&w)));
    g.bench_function("table11_community_registry", |b| b.iter(|| ex::table11(&w)));
    g.finish();
}

fn bench_persistence(c: &mut Criterion) {
    let w = PaperWorld::build(InternetSize::Tiny, 20020315);
    let mut g = c.benchmark_group("paper");
    g.sample_size(10);
    // Figs 6–7 re-simulate per snapshot; keep the series short here.
    g.bench_function("fig06_fig07_persistence", |b| {
        b.iter(|| {
            let series = w.daily_series(4);
            ex::fig6_fig7(&w, &series, "daily")
        })
    });
    g.finish();
}

fn main() {
    let mut c = Criterion::new();
    bench_tables(&mut c);
    bench_persistence(&mut c);
}
