//! Hierarchy (tier) classification.
//!
//! The paper labels ASes with tiers "using the method described in \[8\]"
//! (Subramanian et al., *Characterizing the Internet hierarchy from multiple
//! vantage points*). We implement the same spirit on the annotated graph:
//!
//! * **Tier 1** — the maximal provider-free core: ASes with no providers
//!   that are richly peered with the other provider-free ASes.
//! * **Tier n (n > 1)** — one more than the best (smallest) tier among the
//!   AS's providers; sibling links share the better tier.
//!
//! Provider-free ASes that are *not* in the core clique (e.g. an
//! unconnected academic network) are assigned below the core by their peer
//! tiers, defaulting to tier 2.

use std::collections::BTreeMap;

use bgp_types::{Asn, Relationship};

use crate::graph::AsGraph;

/// A computed tier assignment (1 = top).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierMap {
    tiers: BTreeMap<Asn, u8>,
}

impl TierMap {
    /// Classifies every AS in `g`.
    ///
    /// Algorithm:
    /// 1. Candidate core = provider-free ASes. Keep those peering with at
    ///    least half of the other candidates (greedy clique refinement,
    ///    largest-degree first) — they become tier 1.
    /// 2. Every other AS: `1 + min(tier of providers)`, computed by BFS down
    ///    the provider→customer DAG, clamped to 255.
    /// 3. Provider-free non-core ASes inherit `max(2, their best peer's
    ///    tier)` or default to 2.
    pub fn classify(g: &AsGraph) -> TierMap {
        let candidates: Vec<Asn> = {
            let mut v: Vec<Asn> = g.provider_free_ases().into_iter().collect();
            v.sort_by_key(|&a| (std::cmp::Reverse(g.degree(a)), a));
            v
        };

        // Greedy clique refinement among candidates.
        let mut core: Vec<Asn> = Vec::new();
        for &a in &candidates {
            let peered = core
                .iter()
                .filter(|&&b| g.rel(a, b) == Some(Relationship::Peer))
                .count();
            // Must peer with at least half the already-accepted core.
            if core.is_empty() || peered * 2 >= core.len() {
                core.push(a);
            }
        }

        let mut tiers: BTreeMap<Asn, u8> = BTreeMap::new();
        for &a in &core {
            tiers.insert(a, 1);
        }

        // Relax tiers down the provider DAG until fixpoint. The DAG is
        // shallow (≤ ~6 levels in practice) so a few sweeps suffice; bound
        // the loop for safety on adversarial graphs.
        for _ in 0..64 {
            let mut changed = false;
            for a in g.ases() {
                if tiers.get(&a) == Some(&1) {
                    continue;
                }
                let best_provider_tier = g
                    .providers_of(a)
                    .filter_map(|p| tiers.get(&p))
                    .min()
                    .copied();
                let sibling_tier = g
                    .siblings_of(a)
                    .filter_map(|s| tiers.get(&s))
                    .min()
                    .copied();
                let proposed = match (best_provider_tier, sibling_tier) {
                    (Some(p), Some(s)) => Some(p.saturating_add(1).min(s)),
                    (Some(p), None) => Some(p.saturating_add(1)),
                    (None, Some(s)) => Some(s),
                    (None, None) => None,
                };
                if let Some(t) = proposed {
                    let cur = tiers.get(&a).copied();
                    if cur.is_none_or(|c| t < c) {
                        tiers.insert(a, t);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Provider-free non-core stragglers: best peer tier, default 2.
        for a in g.ases() {
            if tiers.contains_key(&a) {
                continue;
            }
            let peer_tier = g
                .peers_of(a)
                .filter_map(|p| tiers.get(&p))
                .min()
                .copied()
                .unwrap_or(2);
            tiers.insert(a, peer_tier.max(2));
        }

        TierMap { tiers }
    }

    /// The tier of `asn` (1 = top); `None` for ASes not in the classified
    /// graph.
    pub fn tier(&self, asn: Asn) -> Option<u8> {
        self.tiers.get(&asn).copied()
    }

    /// Histogram of tier → AS count.
    pub fn histogram(&self) -> BTreeMap<u8, usize> {
        let mut h = BTreeMap::new();
        for &t in self.tiers.values() {
            *h.entry(t).or_insert(0) += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeInfo;
    use Relationship::*;

    /// Three-level hierarchy: 1,2 tier-1 clique; 3,4 tier-2; 5,6 stubs.
    fn hierarchy() -> AsGraph {
        let mut g = AsGraph::new();
        for a in 1..=6 {
            g.add_as(Asn(a), NodeInfo::default());
        }
        g.add_edge(Asn(1), Asn(2), Peer).unwrap();
        g.add_edge(Asn(1), Asn(3), Customer).unwrap();
        g.add_edge(Asn(2), Asn(4), Customer).unwrap();
        g.add_edge(Asn(3), Asn(4), Peer).unwrap();
        g.add_edge(Asn(3), Asn(5), Customer).unwrap();
        g.add_edge(Asn(4), Asn(6), Customer).unwrap();
        // A stub multihomed to both a tier-1 and a tier-2:
        g.add_edge(Asn(1), Asn(6), Customer).unwrap();
        g
    }

    #[test]
    fn tiers_follow_the_hierarchy() {
        let g = hierarchy();
        let t = TierMap::classify(&g);
        assert_eq!(t.tier(Asn(1)), Some(1));
        assert_eq!(t.tier(Asn(2)), Some(1));
        assert_eq!(t.tier(Asn(3)), Some(2));
        assert_eq!(t.tier(Asn(4)), Some(2));
        assert_eq!(t.tier(Asn(5)), Some(3));
        // Multihomed to tier-1 directly ⇒ best provider is tier-1 ⇒ tier 2.
        assert_eq!(t.tier(Asn(6)), Some(2));
        assert_eq!(t.tier(Asn(99)), None);
    }

    #[test]
    fn histogram_and_tier_listing() {
        let g = hierarchy();
        let t = TierMap::classify(&g);
        let h = t.histogram();
        assert_eq!(h[&1], 2);
        assert_eq!(h[&2], 3);
        assert_eq!(h[&3], 1);
        // The two tier-1 ASes are AS1 and AS2.
        assert_eq!((t.tier(Asn(1)), t.tier(Asn(2))), (Some(1), Some(1)));
    }

    #[test]
    fn isolated_provider_free_as_defaults_to_tier_2() {
        let mut g = hierarchy();
        g.add_as(Asn(7), NodeInfo::default());
        let t = TierMap::classify(&g);
        // AS7 is provider-free but unpeered with the core: greedy refinement
        // only admits it if it peers with half the core — it doesn't.
        assert_eq!(t.tier(Asn(7)), Some(2));
    }

    #[test]
    fn sibling_shares_the_better_tier() {
        let mut g = hierarchy();
        g.add_as(Asn(8), NodeInfo::default());
        g.add_edge(Asn(8), Asn(3), Sibling).unwrap();
        let t = TierMap::classify(&g);
        assert_eq!(t.tier(Asn(8)), Some(2));
    }
}
