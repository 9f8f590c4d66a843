//! Performance benches for the substrates: world generation, route
//! propagation, relationship inference, wire codecs, and the prefix trie.
//! These back the scaling claims in README.md.

use rpi_bench::harness::{Criterion, Throughput};

use bgp_sim::export::collector_to_mrt;
use bgp_sim::{GroundTruth, PolicyParams, Simulation, VantageSpec};
use bgp_types::{Asn, CowTrie, Ipv4Prefix};
use bgp_wire::TableDump;
use net_topology::{InternetConfig, InternetSize};

fn bench_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate/topology");
    g.sample_size(10);
    for size in [InternetSize::Small, InternetSize::Paper] {
        let cfg = InternetConfig::of_size(size);
        let n = cfg.n_tier1 + cfg.n_tier2 + cfg.n_tier3 + cfg.n_stub;
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(format!("generate_{n}_ases"), |b| b.iter(|| cfg.build()));
    }
    g.finish();
}

fn bench_propagation(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate/propagation");
    g.sample_size(10);
    for size in [InternetSize::Tiny, InternetSize::Small] {
        let graph = InternetConfig::of_size(size).build();
        let truth = GroundTruth::generate(&graph, &PolicyParams::default());
        let spec = VantageSpec::paper_like(&graph, 24, 8);
        g.throughput(Throughput::Elements(truth.classes.len() as u64));
        g.bench_function(format!("propagate_{}_classes", truth.classes.len()), |b| {
            b.iter(|| Simulation::new(&graph, &truth, &spec).run())
        });
    }
    g.finish();
}

fn bench_inference(c: &mut Criterion) {
    use as_relationships::{infer, InferenceParams};
    let graph = InternetConfig::of_size(InternetSize::Small).build();
    let truth = GroundTruth::generate(&graph, &PolicyParams::default());
    let spec = VantageSpec::paper_like(&graph, 24, 8);
    let out = Simulation::new(&graph, &truth, &spec).run();
    let paths: Vec<Vec<Asn>> = out.collector.all_paths().map(|r| r.path.clone()).collect();
    let mut g = c.benchmark_group("substrate/inference");
    g.sample_size(10);
    g.throughput(Throughput::Elements(paths.len() as u64));
    g.bench_function(format!("gao_{}_paths", paths.len()), |b| {
        b.iter(|| infer(paths.iter().map(Vec::as_slice), &InferenceParams::default()))
    });
    g.finish();
}

fn bench_wire(c: &mut Criterion) {
    let graph = InternetConfig::of_size(InternetSize::Small).build();
    let truth = GroundTruth::generate(&graph, &PolicyParams::default());
    let spec = VantageSpec::paper_like(&graph, 24, 8);
    let out = Simulation::new(&graph, &truth, &spec).run();
    let dump = collector_to_mrt(&out.collector, 0);
    let bytes = dump.encode(0);

    let mut g = c.benchmark_group("substrate/wire");
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("mrt_encode", |b| b.iter(|| dump.encode(0)));
    g.bench_function("mrt_decode", |b| {
        b.iter(|| TableDump::decode(&bytes).unwrap())
    });
    g.finish();
}

fn bench_trie(c: &mut Criterion) {
    let graph = InternetConfig::of_size(InternetSize::Paper).build();
    let prefixes: Vec<Ipv4Prefix> = graph.all_prefixes().map(|(_, r)| r.prefix).collect();
    let trie: CowTrie<u32> = prefixes.iter().map(|&p| (p, p.len() as u32)).collect();

    let mut g = c.benchmark_group("substrate/trie");
    g.throughput(Throughput::Elements(prefixes.len() as u64));
    g.bench_function(format!("insert_{}_prefixes", prefixes.len()), |b| {
        b.iter(|| {
            let t: CowTrie<u32> = prefixes.iter().map(|&p| (p, 0u32)).collect();
            t
        })
    });
    g.bench_function("longest_match_all", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for p in &prefixes {
                if trie.longest_match(p.first_addr()).is_some() {
                    hits += 1;
                }
            }
            hits
        })
    });
    g.bench_function("covering_all", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for p in &prefixes {
                total += trie.covering(*p).count();
            }
            total
        })
    });
    g.finish();
}

fn main() {
    let mut c = Criterion::new();
    bench_generation(&mut c);
    bench_propagation(&mut c);
    bench_inference(&mut c);
    bench_wire(&mut c);
    bench_trie(&mut c);
}
