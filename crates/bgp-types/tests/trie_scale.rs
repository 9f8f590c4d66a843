//! [`CowTrie`] against a `BTreeMap` oracle at the scale and shape of a
//! real route table: a few thousand prefixes clustered in a few address
//! blocks, nearly all of them /19–/24 (as in the Paper world's tables),
//! so the trie's nodes fill up as they do in a snapshot — which the
//! small uniform draws of `props.rs` never do. A chain of clones, each
//! churned by random inserts, replacements and removals, is diffed pair
//! by pair and queried member by member.
//!
//! Extra seeds: `RPI_TRIE_SEEDS=1001,2002,3003 cargo test --release -p
//! bgp-types --test trie_scale`.

use rand::prelude::*;
use std::collections::BTreeMap;

use bgp_types::{flat, CowTrie, Ipv4Prefix};

type Oracle = BTreeMap<Ipv4Prefix, u32>;
type Change = (Ipv4Prefix, Option<u32>, Option<u32>);

/// The seeds to run: one fixed seed, plus any in `RPI_TRIE_SEEDS`.
fn seeds() -> Vec<u64> {
    let extra = std::env::var("RPI_TRIE_SEEDS").unwrap_or_default();
    let parsed = extra.split(',').filter(|s| !s.trim().is_empty()).map(|s| {
        s.trim()
            .parse()
            .unwrap_or_else(|_| panic!("RPI_TRIE_SEEDS: '{s}' is not a seed"))
    });
    std::iter::once(0x7219).chain(parsed).collect()
}

/// A table prefix: inside one of `blocks` (each a /12), mostly /19–/24
/// with a few shorter aggregates down to /8.
fn table_prefix(rng: &mut StdRng, blocks: &[u32]) -> Ipv4Prefix {
    let block = blocks[rng.gen_range(0..blocks.len())];
    let bits = block | (rng.gen::<u32>() >> 12);
    let len = if rng.gen_bool(0.96) {
        *[19u8, 20, 21, 22, 23, 24, 24, 24, 24].choose(rng).unwrap()
    } else {
        rng.gen_range(8..=18u8)
    };
    Ipv4Prefix::canonical(bits, len)
}

/// What `new.diff(old)` reported, in callback order.
fn changes(new: &CowTrie<u32>, old: &CowTrie<u32>) -> Vec<Change> {
    let mut out = Vec::new();
    new.diff(old, |q, was, is| out.push((q, was.copied(), is.copied())));
    out
}

/// The oracle's answer: the sorted symmetric difference of two maps.
fn model_changes(new: &Oracle, old: &Oracle) -> Vec<Change> {
    let keys: std::collections::BTreeSet<_> = old.keys().chain(new.keys()).collect();
    keys.into_iter()
        .map(|q| (*q, old.get(q).copied(), new.get(q).copied()))
        .filter(|(_, was, is)| was != is)
        .collect()
}

/// Every stored prefix covering `probe`, shortest first.
fn model_covering(oracle: &Oracle, probe: Ipv4Prefix) -> Vec<(Ipv4Prefix, u32)> {
    (0..=probe.len())
        .map(|len| Ipv4Prefix::canonical(probe.bits(), len))
        .filter_map(|q| oracle.get(&q).map(|v| (q, *v)))
        .collect()
}

/// Every stored prefix `probe` covers, in prefix order: a contiguous run
/// of the map starting at `probe`.
fn model_covered(oracle: &Oracle, probe: Ipv4Prefix) -> Vec<(Ipv4Prefix, u32)> {
    (oracle.range(probe..))
        .take_while(|(q, _)| probe.covers(**q))
        .map(|(q, v)| (*q, *v))
        .collect()
}

fn encode(v: &u32, out: &mut Vec<u8>) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Every lookup of `trie` against its oracle, over `probes`.
fn check_member(trie: &CowTrie<u32>, oracle: &Oracle, probes: &[Ipv4Prefix], what: &str) {
    assert_eq!(trie.len(), oracle.len(), "{what}");
    let all: Vec<(Ipv4Prefix, u32)> = trie.iter().map(|(q, v)| (q, *v)).collect();
    let expect: Vec<(Ipv4Prefix, u32)> = oracle.iter().map(|(q, v)| (*q, *v)).collect();
    assert_eq!(all, expect, "{what}: iter");
    for &probe in probes {
        assert_eq!(trie.get(probe), oracle.get(&probe), "{what}: get {probe}");
        let covering = model_covering(oracle, probe);
        assert_eq!(
            trie.best_match(probe).map(|(q, v)| (q, *v)),
            covering.last().copied(),
            "{what}: best_match {probe}"
        );
        let got: Vec<_> = trie.covering(probe).map(|(q, v)| (q, *v)).collect();
        assert_eq!(got, covering, "{what}: covering {probe}");
        let got: Vec<_> = trie.covered(probe).map(|(q, v)| (q, *v)).collect();
        assert_eq!(got, model_covered(oracle, probe), "{what}: covered {probe}");
    }
    let (mut from_trie, mut from_pairs) = (Vec::new(), Vec::new());
    flat::write_trie(trie, &mut from_trie, &mut encode);
    flat::write_pairs(&expect, &mut from_pairs, &mut encode);
    assert_eq!(from_trie, from_pairs, "{what}: flat bytes");
}

#[test]
fn a_churned_chain_of_table_sized_tries_matches_the_oracle() {
    for seed in seeds() {
        let mut rng = StdRng::seed_from_u64(seed);
        let blocks: Vec<u32> = (0..12).map(|_| rng.gen::<u32>() & 0xFFF0_0000).collect();
        let value = |rng: &mut StdRng| rng.gen_range(0..8u32);

        let (mut trie, mut oracle) = (CowTrie::new(), Oracle::new());
        for _ in 0..4_000 {
            let (q, v) = (table_prefix(&mut rng, &blocks), value(&mut rng));
            assert_eq!(trie.insert(q, v), oracle.insert(q, v), "seed {seed}");
        }
        // The two ends of the walk: the default route and host routes.
        let hosts = [blocks[0] | 0x1234, blocks[1] | 0xFFFFF, u32::MAX, 0];
        for q in [Ipv4Prefix::DEFAULT]
            .into_iter()
            .chain(hosts.iter().map(|&h| Ipv4Prefix::canonical(h, 32)))
        {
            assert_eq!(trie.insert(q, 0), oracle.insert(q, 0), "seed {seed}");
        }

        let mut chain: Vec<(CowTrie<u32>, Oracle)> = vec![(trie, oracle)];
        for step in 1..8 {
            let (prev, prev_oracle) = chain.last().unwrap();
            let (mut trie, mut oracle) = (prev.clone(), prev_oracle.clone());
            let what = format!("seed {seed} step {step}");
            assert_eq!(
                trie.shared_nodes_with(prev),
                prev.node_count(),
                "{what}: clone"
            );

            // A remove that misses copies nothing.
            let missing = (0..)
                .map(|_| table_prefix(&mut rng, &blocks))
                .find(|q| !oracle.contains_key(q))
                .unwrap();
            assert_eq!(trie.remove(missing), None, "{what}");
            assert_eq!(
                trie.shared_nodes_with(prev),
                prev.node_count(),
                "{what}: miss"
            );

            for _ in 0..rng.gen_range(20..200) {
                let stored: Vec<Ipv4Prefix> = oracle.keys().copied().collect();
                let existing = stored[rng.gen_range(0..stored.len())];
                match rng.gen_range(0..3) {
                    0 => {
                        let (q, v) = (table_prefix(&mut rng, &blocks), value(&mut rng));
                        assert_eq!(trie.insert(q, v), oracle.insert(q, v), "{what}");
                    }
                    1 => {
                        let v = value(&mut rng);
                        assert_eq!(trie.insert(existing, v), oracle.insert(existing, v));
                    }
                    _ => assert_eq!(trie.remove(existing), oracle.remove(&existing)),
                }
            }
            assert!(trie.shared_nodes_with(prev) < prev.node_count(), "{what}");
            chain.push((trie, oracle));
        }

        for (i, (new, new_oracle)) in chain.iter().enumerate() {
            for (j, (old, old_oracle)) in chain.iter().enumerate() {
                assert_eq!(
                    changes(new, old),
                    model_changes(new_oracle, old_oracle),
                    "seed {seed}: diff {j} -> {i}"
                );
            }
        }

        for (i, (trie, oracle)) in chain.iter().enumerate() {
            let stored: Vec<Ipv4Prefix> = oracle.keys().copied().collect();
            let mut probes: Vec<Ipv4Prefix> = (0..300)
                .map(|_| stored[rng.gen_range(0..stored.len())])
                .collect();
            for _ in 0..300 {
                let q = table_prefix(&mut rng, &blocks);
                let len = rng.gen_range(0..=32u8);
                probes.extend([
                    q,
                    Ipv4Prefix::canonical(q.bits() | rng.gen::<u32>() >> 8, len),
                ]);
            }
            probes.extend([Ipv4Prefix::DEFAULT, Ipv4Prefix::canonical(u32::MAX, 32)]);
            probes.extend(hosts.iter().map(|&h| Ipv4Prefix::canonical(h, 32)));
            check_member(trie, oracle, &probes, &format!("seed {seed} member {i}"));
        }

        // A trie built apart shares nothing and still diffs like its
        // oracle.
        let (last, last_oracle) = chain.last().unwrap();
        let apart: CowTrie<u32> = last_oracle.iter().map(|(q, v)| (*q, *v)).collect();
        assert_eq!(apart.shared_nodes_with(last), 0, "seed {seed}");
        assert!(changes(&apart, last).is_empty(), "seed {seed}");
        let (first, first_oracle) = &chain[0];
        assert_eq!(
            changes(&apart, first),
            model_changes(last_oracle, first_oracle),
            "seed {seed}"
        );
    }
}
