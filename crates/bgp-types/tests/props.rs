//! Property-based tests for the core data model.
//!
//! The build environment is offline, so instead of proptest these use a
//! seeded [`rand::rngs::StdRng`] driving many random cases per property —
//! deterministic across runs, same invariants checked.

use rand::prelude::*;
use std::collections::BTreeMap;

use bgp_types::{AsPath, Asn, Community, CowTrie, Ipv4Prefix};

const CASES: usize = 256;

fn arb_prefix(rng: &mut StdRng) -> Ipv4Prefix {
    Ipv4Prefix::canonical(rng.gen::<u32>(), rng.gen_range(0..=32u8))
}

/// Bias toward small, realistic ASNs but include 4-byte ones.
fn arb_asn(rng: &mut StdRng) -> Asn {
    if rng.gen_bool(0.75) {
        Asn(rng.gen_range(1..70_000u32))
    } else {
        Asn(rng.gen_range(70_000u32..=u32::MAX))
    }
}

/// A mildly adversarial random string: digits, dots, slashes, spaces,
/// letters and punctuation — the alphabet the textual parsers see.
fn arb_garbage(rng: &mut StdRng, max_len: usize) -> String {
    const POOL: &[u8] = b"0123456789./ ,:;-_abcXYZ{}()<>!?*\t\"'";
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| *POOL.as_ref().choose(rng).unwrap() as char)
        .collect()
}

// ---------- Ipv4Prefix ----------

#[test]
fn prefix_display_parse_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x5001);
    for _ in 0..CASES {
        let p = arb_prefix(&mut rng);
        let s = p.to_string();
        let q: Ipv4Prefix = s.parse().unwrap();
        assert_eq!(p, q);
    }
}

#[test]
fn prefix_canonical_is_idempotent() {
    let mut rng = StdRng::seed_from_u64(0x5002);
    for _ in 0..CASES {
        let p = Ipv4Prefix::canonical(rng.gen::<u32>(), rng.gen_range(0..=32u8));
        let q = Ipv4Prefix::canonical(p.bits(), p.len());
        assert_eq!(p, q);
        // new() accepts exactly canonical forms.
        assert!(Ipv4Prefix::new(p.bits(), p.len()).is_ok());
    }
}

#[test]
fn prefix_covers_is_reflexive_and_antisymmetric() {
    let mut rng = StdRng::seed_from_u64(0x5003);
    for _ in 0..CASES {
        let a = arb_prefix(&mut rng);
        // Make coincidences likely: half the time derive b from a.
        let b = if rng.gen_bool(0.5) {
            Ipv4Prefix::canonical(a.bits(), rng.gen_range(0..=32u8))
        } else {
            arb_prefix(&mut rng)
        };
        assert!(a.covers(a));
        if a.covers(b) && b.covers(a) {
            assert_eq!(a, b);
        }
    }
}

#[test]
fn prefix_covers_transitive() {
    let mut rng = StdRng::seed_from_u64(0x5004);
    for _ in 0..CASES {
        let a = arb_prefix(&mut rng);
        let b = Ipv4Prefix::canonical(a.bits(), rng.gen_range(0..=32u8));
        let c = Ipv4Prefix::canonical(b.bits(), rng.gen_range(0..=32u8));
        if a.covers(b) && b.covers(c) {
            assert!(a.covers(c));
        }
    }
}

#[test]
fn prefix_split_children_are_covered_and_aggregate_back() {
    let mut rng = StdRng::seed_from_u64(0x5005);
    for _ in 0..CASES {
        let p = arb_prefix(&mut rng);
        if let Some((lo, hi)) = p.split() {
            assert!(p.covers_strictly(lo));
            assert!(p.covers_strictly(hi));
            assert!(!lo.covers(hi) && !hi.covers(lo));
            assert_eq!(lo.aggregate_with(hi), Some(p));
            assert_eq!(hi.aggregate_with(lo), Some(p));
            assert_eq!(lo.supernet(), Some(p));
            assert_eq!(hi.supernet(), Some(p));
        }
    }
}

#[test]
fn prefix_garbage_never_panics() {
    let mut rng = StdRng::seed_from_u64(0x5007);
    for _ in 0..CASES {
        let s = arb_garbage(&mut rng, 40);
        let _ = s.parse::<Ipv4Prefix>();
    }
}

// ---------- AsPath ----------

#[test]
fn path_display_parse_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x5008);
    for _ in 0..CASES {
        let n = rng.gen_range(0..12usize);
        let asns: Vec<Asn> = (0..n).map(|_| arb_asn(&mut rng)).collect();
        let p = AsPath::from_seq(asns);
        let s = p.to_string();
        let q: AsPath = s.parse().unwrap();
        assert_eq!(p, q);
    }
}

#[test]
fn path_garbage_never_panics() {
    let mut rng = StdRng::seed_from_u64(0x500b);
    for _ in 0..CASES {
        let s = arb_garbage(&mut rng, 40);
        let _ = s.parse::<AsPath>();
    }
}

// ---------- Community ----------

#[test]
fn community_u32_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x500c);
    for _ in 0..CASES {
        let v = rng.gen::<u32>();
        assert_eq!(Community::from_u32(v).as_u32(), v);
    }
}

#[test]
fn community_display_parse_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x500d);
    for _ in 0..CASES {
        let c = Community::new(rng.gen::<u16>(), rng.gen::<u16>());
        let s = c.to_string();
        assert_eq!(s.parse::<Community>().unwrap(), c);
    }
}

// ---------- CowTrie vs BTreeMap oracle ----------

#[test]
fn trie_matches_btreemap_oracle() {
    let mut rng = StdRng::seed_from_u64(0x500e);
    for _ in 0..64 {
        let n_entries = rng.gen_range(0..64usize);
        let entries: Vec<(Ipv4Prefix, u16)> = (0..n_entries)
            .map(|_| (arb_prefix(&mut rng), rng.gen::<u16>()))
            .collect();
        // Random probes, plus stored prefixes (the self-included case),
        // their host routes and the default route (the /32 and /0 edges).
        let probes: Vec<Ipv4Prefix> = (0..rng.gen_range(0..16usize))
            .map(|_| arb_prefix(&mut rng))
            .chain(entries.iter().take(4).map(|e| e.0))
            .chain(
                entries
                    .iter()
                    .take(4)
                    .map(|e| Ipv4Prefix::canonical(e.0.bits(), 32)),
            )
            .chain([Ipv4Prefix::DEFAULT])
            .collect();
        let addrs: Vec<u32> = (0..rng.gen_range(0..16usize))
            .map(|_| rng.gen::<u32>())
            .collect();

        let mut oracle: BTreeMap<Ipv4Prefix, u16> = BTreeMap::new();
        let mut trie: CowTrie<u16> = CowTrie::new();
        for (p, v) in &entries {
            oracle.insert(*p, *v);
            trie.insert(*p, *v);
        }
        assert_eq!(trie.len(), oracle.len());

        // Exact match agrees.
        for probe in &probes {
            assert_eq!(trie.get(*probe), oracle.get(probe));
        }

        // Longest match agrees with a linear scan, for addresses and
        // for prefixes.
        for addr in &addrs {
            let host = Ipv4Prefix::canonical(*addr, 32);
            let expect = oracle
                .iter()
                .filter(|(p, _)| p.covers(host))
                .max_by_key(|(p, _)| p.len())
                .map(|(p, v)| (*p, v));
            assert_eq!(trie.best_match(host), expect);
        }
        for probe in &probes {
            let expect = oracle
                .iter()
                .filter(|(p, _)| p.covers(*probe))
                .max_by_key(|(p, _)| p.len())
                .map(|(p, v)| (*p, v));
            assert_eq!(trie.best_match(*probe), expect);
        }

        // Covering/covered agree with linear scans.
        for probe in &probes {
            let mut expect_cov: Vec<Ipv4Prefix> = oracle
                .keys()
                .filter(|p| p.covers(*probe))
                .copied()
                .collect();
            expect_cov.sort_by_key(|p| p.len());
            let got_cov: Vec<Ipv4Prefix> = trie.covering(*probe).map(|(p, _)| p).collect();
            assert_eq!(got_cov, expect_cov);

            let expect_sub: Vec<Ipv4Prefix> = oracle
                .keys()
                .filter(|p| probe.covers(**p))
                .copied()
                .collect();
            let got_sub: Vec<Ipv4Prefix> = trie.covered(*probe).map(|(p, _)| p).collect();
            assert_eq!(got_sub, expect_sub);
        }

        // Full iteration agrees (BTreeMap order == trie lexicographic order).
        let got: Vec<(Ipv4Prefix, u16)> = trie.iter().map(|(p, v)| (p, *v)).collect();
        let expect: Vec<(Ipv4Prefix, u16)> = oracle.iter().map(|(p, v)| (*p, *v)).collect();
        assert_eq!(got, expect);
    }
}

#[test]
fn trie_remove_restores_oracle() {
    let mut rng = StdRng::seed_from_u64(0x500f);
    for _ in 0..CASES {
        let n_entries = rng.gen_range(1..32usize);
        let entries: Vec<(Ipv4Prefix, u16)> = (0..n_entries)
            .map(|_| (arb_prefix(&mut rng), rng.gen::<u16>()))
            .collect();
        let mut oracle: BTreeMap<Ipv4Prefix, u16> = BTreeMap::new();
        let mut trie: CowTrie<u16> = CowTrie::new();
        for (p, v) in &entries {
            oracle.insert(*p, *v);
            trie.insert(*p, *v);
        }
        let victim = entries[rng.gen_range(0..entries.len())].0;
        assert_eq!(trie.remove(victim), oracle.remove(&victim));
        assert_eq!(trie.len(), oracle.len());
        assert_eq!(trie.get(victim), oracle.get(&victim));
    }
}
