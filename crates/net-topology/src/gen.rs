//! Seeded hierarchical Internet generator.
//!
//! Substitutes for the paper's measured 2002 topology. The
//! construction mirrors the structural features the paper's statistics
//! depend on:
//!
//! * a **tier-1 clique** of provider-free, mutually-peered backbones
//!   (given the famous ASNs/names of the paper's tables: AS1/GTE,
//!   AS701/UUNET, AS7018/AT&T, AS3549/Global Crossing, …);
//! * **regional transit tiers** (tier-2, tier-3) buying transit from one to
//!   three higher-tier providers (preferential attachment) and peering
//!   regionally;
//! * **stub ASes**, ~75 % multihomed (matching Table 8's origin mix), with
//!   heavy-tailed prefix counts;
//! * **address allocation**: every transit AS owns an aggregate block it
//!   originates; customer prefixes are carved either from a provider's
//!   block (PA, enabling the paper's *prefix aggregating* case) or from
//!   provider-independent space (PI).
//!
//! Everything is driven by one `u64` seed: equal configs produce equal
//! graphs, byte for byte.

use rand::prelude::*;
use rand::rngs::StdRng;

use bgp_types::{Asn, Ipv4Prefix, Relationship};

use crate::graph::{AsGraph, NodeInfo, PrefixRecord, Region};

/// Convenience presets for [`InternetConfig`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InternetSize {
    /// ~60 ASes — unit/integration tests.
    Tiny,
    /// ~300 ASes — fast experiments.
    Small,
    /// ~1,100 ASes — the default used to regenerate the paper's tables.
    Paper,
    /// ~4,800 ASes — scaling benches.
    Large,
}

impl std::str::FromStr for InternetSize {
    type Err = String;

    /// Accepts the CLI spellings `tiny`, `small`, `paper`, `large`
    /// (case-insensitive) — the one parser every binary shares.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Ok(InternetSize::Tiny),
            "small" => Ok(InternetSize::Small),
            "paper" => Ok(InternetSize::Paper),
            "large" => Ok(InternetSize::Large),
            other => Err(format!(
                "unknown size '{other}' — expected tiny, small, paper or large"
            )),
        }
    }
}

/// Generator parameters. Start from [`InternetConfig::of_size`] and adjust.
#[derive(Clone, Debug)]
pub struct InternetConfig {
    /// RNG seed; everything is deterministic in it.
    pub seed: u64,
    /// Number of tier-1 (provider-free, fully peered) ASes.
    pub n_tier1: usize,
    /// Number of tier-2 transit ASes.
    pub n_tier2: usize,
    /// Number of tier-3 transit ASes.
    pub n_tier3: usize,
    /// Number of stub (edge) ASes.
    pub n_stub: usize,
    /// Inclusive range of provider counts for tier-2 ASes.
    pub t2_providers: (usize, usize),
    /// Inclusive range of provider counts for tier-3 ASes.
    pub t3_providers: (usize, usize),
    /// Relative weights of stubs having exactly 1, 2 or 3 providers.
    /// The default `[25, 55, 20]` yields ≈75 % multihomed stubs (Table 8).
    pub stub_provider_weights: [u32; 3],
    /// Probability that two same-region tier-2 ASes peer.
    pub t2_peering_prob: f64,
    /// Probability that two different-region tier-2 ASes peer.
    pub t2_cross_region_peering_prob: f64,
    /// Probability that two same-region tier-3 ASes peer.
    pub t3_peering_prob: f64,
    /// Probability that a tier-2 AS peers with a tier-1 that is not one of
    /// its providers (large regionals peered with some backbones in 2002).
    pub t1_t2_peering_prob: f64,
    /// Per-provider-draw probability that a stub attaches directly to a
    /// tier-1 instead of a regional transit.
    pub stub_direct_t1_prob: f64,
    /// Probability that a stub prefix is provider-allocated (PA) rather
    /// than provider-independent (PI).
    pub pa_fraction: f64,
    /// Number of sibling pairs to create among tier-2 ASes.
    pub sibling_pairs: usize,
}

impl InternetConfig {
    /// A preset configuration (seed 20021111 — the paper's first snapshot
    /// date, Nov 11 2002).
    pub fn of_size(size: InternetSize) -> Self {
        let (n1, n2, n3, ns) = match size {
            InternetSize::Tiny => (3, 8, 15, 40),
            InternetSize::Small => (5, 25, 70, 200),
            InternetSize::Paper => (10, 80, 220, 800),
            InternetSize::Large => (16, 300, 900, 3600),
        };
        InternetConfig {
            seed: 20021111,
            n_tier1: n1,
            n_tier2: n2,
            n_tier3: n3,
            n_stub: ns,
            t2_providers: (1, 3),
            t3_providers: (1, 3),
            stub_provider_weights: [25, 55, 20],
            t2_peering_prob: 0.15,
            t2_cross_region_peering_prob: 0.06,
            t3_peering_prob: 0.08,
            t1_t2_peering_prob: 0.06,
            stub_direct_t1_prob: 0.50,
            pa_fraction: 0.10,
            sibling_pairs: 0,
        }
    }

    /// Replaces the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the Internet.
    pub fn build(&self) -> AsGraph {
        Generator::new(self).run()
    }
}

impl Default for InternetConfig {
    fn default() -> Self {
        InternetConfig::of_size(InternetSize::Paper)
    }
}

/// The famous tier-1 identities used by the paper's tables; the generator
/// assigns them in order.
const TIER1_IDENTITIES: &[(u32, &str)] = &[
    (1, "GTE Internetworking"),
    (701, "UUNET"),
    (1239, "Sprint"),
    (3549, "Global Crossing"),
    (7018, "AT&T"),
    (2914, "Verio"),
    (3561, "Cable & Wireless"),
    (209, "Qwest"),
    (6453, "Teleglobe"),
    (6461, "AboveNet"),
    (3356, "Level 3"),
    (1299, "TeliaNet"),
    (5511, "France Telecom"),
    (6762, "Telecom Italia"),
    (3320, "Deutsche Telekom"),
    (702, "UUNET EMEA"),
];

/// Bump allocator over the IPv4 space, handing out aligned blocks.
struct SpaceAlloc {
    next: u64,
}

impl SpaceAlloc {
    fn new() -> Self {
        // Start at 1.0.0.0 to avoid 0/8.
        SpaceAlloc { next: 0x0100_0000 }
    }

    fn alloc(&mut self, len: u8) -> Ipv4Prefix {
        let size = 1u64 << (32 - len as u64);
        // Align up.
        let base = self.next.div_ceil(size) * size;
        self.next = base + size;
        assert!(
            self.next <= u32::MAX as u64 + 1,
            "IPv4 space exhausted by generator; reduce prefix demand"
        );
        Ipv4Prefix::canonical(base as u32, len)
    }
}

/// Per-owner sub-allocator for carving customer blocks out of an aggregate.
struct BlockCarver {
    block: Ipv4Prefix,
    next_off: u64,
}

impl BlockCarver {
    fn new(block: Ipv4Prefix) -> Self {
        BlockCarver { block, next_off: 0 }
    }

    fn carve(&mut self, len: u8) -> Option<Ipv4Prefix> {
        if len < self.block.len() {
            return None;
        }
        let size = 1u64 << (32 - len as u64);
        let off = self.next_off.div_ceil(size) * size;
        if off + size > self.block.addr_count() {
            return None;
        }
        self.next_off = off + size;
        Some(Ipv4Prefix::canonical(
            self.block.bits().wrapping_add(off as u32),
            len,
        ))
    }
}

struct Generator<'a> {
    cfg: &'a InternetConfig,
    rng: StdRng,
    g: AsGraph,
    space: SpaceAlloc,
    carvers: std::collections::BTreeMap<Asn, BlockCarver>,
    tier1: Vec<Asn>,
    tier2: Vec<Asn>,
    tier3: Vec<Asn>,
    stubs: Vec<Asn>,
    used_asns: std::collections::BTreeSet<Asn>,
}

impl<'a> Generator<'a> {
    fn new(cfg: &'a InternetConfig) -> Self {
        Generator {
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed),
            g: AsGraph::new(),
            space: SpaceAlloc::new(),
            carvers: std::collections::BTreeMap::new(),
            tier1: Vec::new(),
            tier2: Vec::new(),
            tier3: Vec::new(),
            stubs: Vec::new(),
            used_asns: std::collections::BTreeSet::new(),
        }
    }

    fn alloc_asn(&mut self, start: u32) -> Asn {
        let mut n = start;
        while self.used_asns.contains(&Asn(n)) {
            n += 1;
        }
        self.used_asns.insert(Asn(n));
        Asn(n)
    }

    fn pick_region(&mut self, weights: [u32; 4]) -> Region {
        let regions = [
            Region::NorthAmerica,
            Region::Europe,
            Region::Asia,
            Region::Australia,
        ];
        let total: u32 = weights.iter().sum();
        let mut roll = self.rng.gen_range(0..total);
        for (r, w) in regions.iter().zip(weights) {
            if roll < w {
                return *r;
            }
            roll -= w;
        }
        Region::NorthAmerica
    }

    /// Preferential-attachment pick of `count` distinct providers from
    /// `pool`, weighted by degree+1 (or its square root when `dampen` is
    /// set — small regional ISPs do not agglomerate the way backbones do,
    /// and undamped attachment lets a lucky tier-3 out-degree the tier-2s
    /// above it, inverting the hierarchy's degree signal), favoring
    /// same-region candidates 2×.
    fn pick_providers(
        &mut self,
        pool: &[Asn],
        count: usize,
        region: Region,
        dampen: bool,
    ) -> Vec<Asn> {
        let mut chosen: Vec<Asn> = Vec::with_capacity(count);
        for _ in 0..count.min(pool.len()) {
            let weights: Vec<f64> = pool
                .iter()
                .map(|&a| {
                    if chosen.contains(&a) {
                        0.0
                    } else {
                        let raw = (self.g.degree(a) + 1) as f64;
                        let w = if dampen { raw.sqrt() } else { raw };
                        if self.g.info(a).map(|i| i.region) == Some(region) {
                            w * 2.0
                        } else {
                            w
                        }
                    }
                })
                .collect();
            let total: f64 = weights.iter().sum();
            if total <= 0.0 {
                break;
            }
            let mut roll = self.rng.gen_range(0.0..total);
            for (i, w) in weights.iter().enumerate() {
                if roll < *w {
                    chosen.push(pool[i]);
                    break;
                }
                roll -= w;
            }
        }
        chosen
    }

    fn run(mut self) -> AsGraph {
        self.make_tier1();
        self.make_tier2();
        self.make_tier3();
        self.make_stubs();
        self.make_siblings();
        debug_assert!(self.g.validate().is_ok());
        self.g
    }

    fn make_tier1(&mut self) {
        for i in 0..self.cfg.n_tier1 {
            let (asn, name) = match TIER1_IDENTITIES.get(i) {
                Some(&(n, name)) => (Asn(n), name.to_owned()),
                None => (Asn(900 + i as u32), format!("Backbone-{i}")),
            };
            self.used_asns.insert(asn);
            let region = if i % 3 == 2 {
                Region::Europe
            } else {
                Region::NorthAmerica
            };
            self.g.add_as(
                asn,
                NodeInfo {
                    name,
                    region,
                    prefixes: Vec::new(),
                },
            );
            self.tier1.push(asn);
            // Aggregate block + a few specifics from it.
            let block = self.space.alloc(8);
            self.add_block_and_origins(asn, block, 2..=5, 12..=16);
        }
        // Full-mesh peering.
        for i in 0..self.tier1.len() {
            for j in (i + 1)..self.tier1.len() {
                self.g
                    .add_edge(self.tier1[i], self.tier1[j], Relationship::Peer)
                    .expect("tier1 nodes exist");
            }
        }
    }

    /// Gives `asn` its aggregate block (originated, PI) plus `count_range`
    /// specifics of lengths in `len_range` carved from the block.
    fn add_block_and_origins(
        &mut self,
        asn: Asn,
        block: Ipv4Prefix,
        count_range: std::ops::RangeInclusive<usize>,
        len_range: std::ops::RangeInclusive<u8>,
    ) {
        let mut carver = BlockCarver::new(block);
        let info = self.g.info_mut(asn).expect("node exists");
        info.prefixes.push(PrefixRecord {
            prefix: block,
            allocated_from: None,
        });
        let count = self.rng.gen_range(count_range);
        for _ in 0..count {
            let len = self.rng.gen_range(len_range.clone());
            if let Some(p) = carver.carve(len) {
                self.g
                    .info_mut(asn)
                    .expect("node exists")
                    .prefixes
                    .push(PrefixRecord {
                        prefix: p,
                        allocated_from: None,
                    });
            }
        }
        self.carvers.insert(asn, carver);
    }

    fn make_tier2(&mut self) {
        for i in 0..self.cfg.n_tier2 {
            let asn = self.alloc_asn(5000 + i as u32);
            let region = self.pick_region([40, 40, 12, 8]);
            self.g.add_as(
                asn,
                NodeInfo {
                    name: format!("Transit2-{region}-{i}"),
                    region,
                    prefixes: Vec::new(),
                },
            );
            let (lo, hi) = self.cfg.t2_providers;
            let count = self.rng.gen_range(lo..=hi);
            let tier1_pool = self.tier1.clone();
            let providers = self.pick_providers(&tier1_pool, count, region, false);
            for p in providers {
                self.g
                    .add_edge(p, asn, Relationship::Customer)
                    .expect("nodes exist");
            }
            let block = self.space.alloc(self.rng.gen_range(12..=14));
            self.add_block_and_origins(asn, block, 2..=6, 16..=19);
            self.tier2.push(asn);
        }
        // Some large tier-2s peer with tier-1s they do not buy from.
        for i in 0..self.tier2.len() {
            let t2 = self.tier2[i];
            for j in 0..self.tier1.len() {
                let t1 = self.tier1[j];
                if self.g.rel(t1, t2).is_some() {
                    continue; // already a provider
                }
                if self.rng.gen_bool(self.cfg.t1_t2_peering_prob) {
                    self.g
                        .add_edge(t1, t2, Relationship::Peer)
                        .expect("nodes exist");
                }
            }
        }
        // Regional peering among tier-2.
        for i in 0..self.tier2.len() {
            for j in (i + 1)..self.tier2.len() {
                let (a, b) = (self.tier2[i], self.tier2[j]);
                let same = self.g.info(a).map(|x| x.region) == self.g.info(b).map(|x| x.region);
                let prob = if same {
                    self.cfg.t2_peering_prob
                } else {
                    self.cfg.t2_cross_region_peering_prob
                };
                if self.rng.gen_bool(prob) {
                    self.g
                        .add_edge(a, b, Relationship::Peer)
                        .expect("nodes exist");
                }
            }
        }
    }

    fn make_tier3(&mut self) {
        for i in 0..self.cfg.n_tier3 {
            let asn = self.alloc_asn(10_000 + i as u32);
            let region = self.pick_region([35, 40, 15, 10]);
            self.g.add_as(
                asn,
                NodeInfo {
                    name: format!("Transit3-{region}-{i}"),
                    region,
                    prefixes: Vec::new(),
                },
            );
            let (lo, hi) = self.cfg.t3_providers;
            let count = self.rng.gen_range(lo..=hi);
            let pool = self.tier2.clone();
            let providers = self.pick_providers(&pool, count, region, false);
            for p in providers {
                self.g
                    .add_edge(p, asn, Relationship::Customer)
                    .expect("nodes exist");
            }
            // PI block, or PA carved from the first provider's block.
            let len = self.rng.gen_range(15..=17);
            let (block, from) = self.alloc_pa_or_pi(asn, len, 0.15);
            let mut carver = BlockCarver::new(block);
            self.g
                .info_mut(asn)
                .expect("node exists")
                .prefixes
                .push(PrefixRecord {
                    prefix: block,
                    allocated_from: from,
                });
            let count = self.rng.gen_range(1..=5);
            for _ in 0..count {
                let plen = self.rng.gen_range(19..=22);
                if let Some(p) = carver.carve(plen) {
                    self.g
                        .info_mut(asn)
                        .expect("node exists")
                        .prefixes
                        .push(PrefixRecord {
                            prefix: p,
                            allocated_from: from,
                        });
                }
            }
            self.carvers.insert(asn, carver);
            self.tier3.push(asn);
        }
        // Light regional peering among tier-3.
        for i in 0..self.tier3.len() {
            for j in (i + 1)..self.tier3.len() {
                let (a, b) = (self.tier3[i], self.tier3[j]);
                let same = self.g.info(a).map(|x| x.region) == self.g.info(b).map(|x| x.region);
                if same && self.rng.gen_bool(self.cfg.t3_peering_prob) {
                    self.g
                        .add_edge(a, b, Relationship::Peer)
                        .expect("nodes exist");
                }
            }
        }
    }

    /// Allocates a block for `asn`: with probability `pa_prob` carved from
    /// one of its providers' blocks (PA), else fresh PI space.
    fn alloc_pa_or_pi(&mut self, asn: Asn, len: u8, pa_prob: f64) -> (Ipv4Prefix, Option<Asn>) {
        if self.rng.gen_bool(pa_prob) {
            let providers: Vec<Asn> = self.g.providers_of(asn).collect();
            if let Some(&prov) = providers.as_slice().choose(&mut self.rng) {
                if let Some(carver) = self.carvers.get_mut(&prov) {
                    if let Some(p) = carver.carve(len) {
                        return (p, Some(prov));
                    }
                }
            }
        }
        (self.space.alloc(len), None)
    }

    fn make_stubs(&mut self) {
        for i in 0..self.cfg.n_stub {
            let asn = self.alloc_asn(20_000 + i as u32);
            let region = self.pick_region([35, 40, 15, 10]);
            self.g.add_as(
                asn,
                NodeInfo {
                    name: format!("Stub-{region}-{i}"),
                    region,
                    prefixes: Vec::new(),
                },
            );
            // Provider count from weights.
            let w = self.cfg.stub_provider_weights;
            let total: u32 = w.iter().sum();
            let roll = self.rng.gen_range(0..total);
            let count = if roll < w[0] {
                1
            } else if roll < w[0] + w[1] {
                2
            } else {
                3
            };
            let mut providers: Vec<Asn> = Vec::new();
            for _ in 0..count {
                // Tier-3 picks are dampened: without it a lucky tier-3
                // collects more stubs than the tier-2s above it and the
                // degree hierarchy inverts.
                let (pool, dampen): (Vec<Asn>, bool) =
                    if self.rng.gen_bool(self.cfg.stub_direct_t1_prob) {
                        (self.tier1.clone(), false)
                    } else if self.rng.gen_bool(0.40) {
                        (self.tier2.clone(), false)
                    } else {
                        (self.tier3.clone(), true)
                    };
                let picked = self.pick_providers(&pool, 1, region, dampen);
                for p in picked {
                    if !providers.contains(&p) {
                        providers.push(p);
                    }
                }
            }
            for &p in &providers {
                self.g
                    .add_edge(p, asn, Relationship::Customer)
                    .expect("nodes exist");
            }
            // Heavy-tailed prefix count.
            let roll: f64 = self.rng.gen();
            let count = if roll < 0.55 {
                1
            } else if roll < 0.80 {
                self.rng.gen_range(2..=4)
            } else if roll < 0.95 {
                self.rng.gen_range(5..=12)
            } else {
                self.rng.gen_range(13..=60)
            };
            for _ in 0..count {
                let len = self.rng.gen_range(19..=24);
                let (p, from) = self.alloc_pa_or_pi(asn, len, self.cfg.pa_fraction);
                self.g
                    .info_mut(asn)
                    .expect("node exists")
                    .prefixes
                    .push(PrefixRecord {
                        prefix: p,
                        allocated_from: from,
                    });
            }
            self.stubs.push(asn);
        }
    }

    fn make_siblings(&mut self) {
        for k in 0..self.cfg.sibling_pairs {
            if self.tier2.len() < 2 {
                break;
            }
            let i = (2 * k) % self.tier2.len();
            let j = (2 * k + 1) % self.tier2.len();
            if i != j {
                let _ = self
                    .g
                    .add_edge(self.tier2[i], self.tier2[j], Relationship::Sibling);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tier::TierMap;

    #[test]
    fn tiny_internet_is_valid_and_deterministic() {
        let cfg = InternetConfig::of_size(InternetSize::Tiny);
        let g1 = cfg.build();
        let g2 = cfg.build();
        g1.validate().unwrap();
        assert_eq!(g1.as_count(), g2.as_count());
        assert_eq!(g1.edge_count(), g2.edge_count());
        // Same nodes, same degrees.
        for a in g1.ases() {
            assert_eq!(g1.degree(a), g2.degree(a), "degree mismatch at {a}");
            assert_eq!(
                g1.info(a).unwrap().prefixes,
                g2.info(a).unwrap().prefixes,
                "prefixes mismatch at {a}"
            );
        }
        assert_eq!(g1.as_count(), 3 + 8 + 15 + 40);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = InternetConfig::of_size(InternetSize::Tiny);
        let g1 = cfg.clone().with_seed(1).build();
        let g2 = cfg.with_seed(2).build();
        // Extremely unlikely to coincide.
        let e1: Vec<_> = g1.ases().map(|a| g1.degree(a)).collect();
        let e2: Vec<_> = g2.ases().map(|a| g2.degree(a)).collect();
        assert_ne!(e1, e2);
    }

    #[test]
    fn tier1_is_a_provider_free_clique_with_famous_names() {
        let g = InternetConfig::of_size(InternetSize::Tiny).build();
        let core = g.provider_free_ases();
        assert_eq!(core.len(), 3);
        assert!(core.contains(&Asn(1)));
        assert!(core.contains(&Asn(701)));
        assert!(core.contains(&Asn(1239)));
        assert_eq!(g.info(Asn(1)).unwrap().name, "GTE Internetworking");
        for &a in &core {
            for &b in &core {
                if a != b {
                    assert_eq!(g.rel(a, b), Some(Relationship::Peer));
                }
            }
        }
    }

    #[test]
    fn tiers_classify_as_designed() {
        let g = InternetConfig::of_size(InternetSize::Tiny).build();
        let tiers = TierMap::classify(&g);
        assert_eq!(tiers.tier(Asn(1)), Some(1));
        // Tier-2 ASes (ASN 5000+) must be tier 2.
        let t2_count = (0..8)
            .filter(|i| tiers.tier(Asn(5000 + i)) == Some(2))
            .count();
        assert_eq!(t2_count, 8);
    }

    #[test]
    fn multihoming_fraction_is_near_target() {
        let g = InternetConfig::of_size(InternetSize::Paper).build();
        let stubs: Vec<Asn> = g.ases().filter(|a| a.0 >= 20_000).collect();
        let multi = stubs.iter().filter(|&&a| g.is_multihomed(a)).count();
        let frac = multi as f64 / stubs.len() as f64;
        // Weights [25,55,20] target 75 % but duplicate draws can collapse a
        // dual-homed stub to one provider; accept a broad band.
        assert!((0.55..=0.9).contains(&frac), "multihomed fraction {frac}");
    }

    #[test]
    fn originated_specifics_stay_inside_owner_blocks_and_do_not_collide() {
        let g = InternetConfig::of_size(InternetSize::Small).build();
        // No two records share a prefix.
        let mut seen = std::collections::BTreeSet::new();
        for (owner, rec) in g.all_prefixes() {
            assert!(
                seen.insert(rec.prefix),
                "prefix {} originated twice (second by {owner})",
                rec.prefix
            );
        }
        // PA prefixes are covered by a block of the recorded provider.
        for (owner, rec) in g.all_prefixes() {
            if let Some(provider) = rec.allocated_from {
                let provider_blocks: Vec<Ipv4Prefix> = g
                    .info(provider)
                    .unwrap()
                    .prefixes
                    .iter()
                    .map(|r| r.prefix)
                    .collect();
                assert!(
                    provider_blocks.iter().any(|b| b.covers(rec.prefix)),
                    "PA prefix {} of {owner} not inside any block of {provider}",
                    rec.prefix
                );
            }
        }
    }

    #[test]
    fn pa_fraction_responds_to_config() {
        let mut cfg = InternetConfig::of_size(InternetSize::Small);
        cfg.pa_fraction = 0.0;
        let g = cfg.build();
        let stub_pa = g
            .all_prefixes()
            .filter(|(a, r)| a.0 >= 20_000 && r.allocated_from.is_some())
            .count();
        assert_eq!(stub_pa, 0);
    }

    #[test]
    fn sibling_pairs_created_when_requested() {
        let mut cfg = InternetConfig::of_size(InternetSize::Tiny);
        cfg.sibling_pairs = 2;
        let g = cfg.build();
        let sibling_edges: usize = g.ases().map(|a| g.siblings_of(a).count()).sum::<usize>() / 2;
        assert_eq!(sibling_edges, 2);
        g.validate().unwrap();
    }

    #[test]
    fn space_alloc_is_aligned_and_disjoint() {
        let mut s = SpaceAlloc::new();
        let a = s.alloc(8);
        let b = s.alloc(12);
        let c = s.alloc(8);
        for p in [a, b, c] {
            assert_eq!(p.bits() % (1 << (32 - p.len() as u32)), 0);
        }
        assert!(!a.covers(b) && !b.covers(a));
        assert!(!a.covers(c) && !c.covers(a));
    }

    #[test]
    fn block_carver_respects_bounds() {
        let block: Ipv4Prefix = "10.0.0.0/22".parse().unwrap();
        let mut c = BlockCarver::new(block);
        let mut total = 0u64;
        while let Some(p) = c.carve(24) {
            assert!(block.covers(p));
            total += p.addr_count();
        }
        assert_eq!(total, block.addr_count());
        assert!(c.carve(24).is_none());
        // Requests larger than the block are refused.
        let mut c2 = BlockCarver::new(block);
        assert!(c2.carve(20).is_none());
    }
}
