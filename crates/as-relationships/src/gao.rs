//! Gao's relationship-inference algorithm over observed AS paths.
//!
//! Input: AS paths in **speaker-first** order (collector-side AS first,
//! origin last) — exactly what a RouteViews table provides. Consecutive
//! duplicate ASes (prepending) are collapsed before analysis.
//!
//! The algorithm:
//!
//! 1. **Degrees** — each AS's neighbor count across all paths.
//! 2. **Transit votes** — in every path, the highest-degree AS is taken as
//!    the top provider; every adjacent pair left of the top votes
//!    "right-AS provides transit to left-AS", every pair at or right of the
//!    top votes "left provides to right". Each pair's *order of
//!    appearance* (which AS sits on the collector side) and *interior
//!    occurrences* (strictly away from the top) are also recorded.
//! 3. **Peers** — pairs observed in **both orders** but **never in a path
//!    interior**, with comparable degrees (`max/min ≤ peer_degree_ratio`).
//!    Rationale: a settlement-free link only ever carries cone routes
//!    across the top of a path, but it does so in both directions when
//!    vantages exist on both sides; a provider link is traversed in one
//!    order only (customer routes climbing through the provider), and a
//!    sibling link (mutual transit) shows up in path interiors.
//! 4. **Siblings** — pairs with more than `sibling_threshold` votes in
//!    both directions that failed the peer test (interior evidence).
//! 5. Everything else: the direction with more votes wins
//!    (provider → customer); ties go to the higher-degree AS.
//! 6. **Demotion post-pass** — a provider→customer label is kept only if
//!    some observed path *uses* the link from above (`y, a, b` with `y`
//!    currently labeled a's peer or provider): customers' routes climb
//!    through a real provider toward the rest of the world, so third-party
//!    usage is inevitable; a mislabeled settlement-free peering is only
//!    ever crossed coming up from below one of its ends, and is demoted
//!    back to peer.

use std::collections::{BTreeMap, BTreeSet};

use bgp_types::{Asn, Relationship};
use net_topology::{AsGraph, NodeInfo};

/// Tuning knobs (defaults follow the discussion in the module docs).
#[derive(Debug, Clone)]
pub struct InferenceParams {
    /// Votes required in both directions before declaring a sibling link
    /// (Gao's `L`).
    pub sibling_threshold: usize,
    /// Maximum degree ratio for a peer candidate (Gao's `R`).
    pub peer_degree_ratio: f64,
    /// Minimum observed degree for either side of a peering — degree-1/2
    /// stubs do not hold settlement-free peerings.
    pub peer_min_degree: usize,
    /// A vantage sending at least this fraction of its own table through
    /// one neighbor is treated as that neighbor's customer (full-table
    /// transit feed).
    pub full_table_frac: f64,
    /// Disable the peering phase (the "basic" algorithm, for ablation).
    pub enable_peer_phase: bool,
}

impl Default for InferenceParams {
    fn default() -> Self {
        InferenceParams {
            sibling_threshold: 2,
            peer_degree_ratio: 3.0,
            peer_min_degree: 4,
            full_table_frac: 0.45,
            enable_peer_phase: true,
        }
    }
}

/// The inference result: a relationship per adjacent AS pair.
#[derive(Debug, Clone, Default)]
pub struct InferredRelationships {
    /// Keyed by ordered pair `(a, b)` with `a < b`; the value is `b`'s role
    /// relative to `a` (same convention as [`AsGraph::rel`]).
    map: BTreeMap<(Asn, Asn), Relationship>,
}

impl InferredRelationships {
    /// The inferred role of `b` relative to `a` ("b is a's …").
    pub fn rel(&self, a: Asn, b: Asn) -> Option<Relationship> {
        if a == b {
            return None;
        }
        if a < b {
            self.map.get(&(a, b)).copied()
        } else {
            self.map.get(&(b, a)).copied().map(Relationship::inverse)
        }
    }

    /// Number of classified pairs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing was classified.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates `(a, b, rel-of-b-wrt-a)` with `a < b`.
    pub fn iter(&self) -> impl Iterator<Item = (Asn, Asn, Relationship)> + '_ {
        self.map.iter().map(|(&(a, b), &r)| (a, b, r))
    }

    /// Materializes an annotated [`AsGraph`] from the inference (no
    /// prefixes, empty metadata) — e.g. to run the tier classifier or the
    /// paper's Fig. 4 algorithm on *inferred* rather than true relations.
    pub fn to_graph(&self) -> AsGraph {
        let mut g = AsGraph::new();
        for &(a, b) in self.map.keys() {
            if !g.contains(a) {
                g.add_as(a, NodeInfo::default());
            }
            if !g.contains(b) {
                g.add_as(b, NodeInfo::default());
            }
        }
        for (&(a, b), &r) in &self.map {
            let _ = g.add_edge(a, b, r);
        }
        g
    }
}

fn ordered(a: Asn, b: Asn) -> (Asn, Asn) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Runs the inference over `paths` (speaker-first order, as collected).
pub fn infer<'a, I>(paths: I, params: &InferenceParams) -> InferredRelationships
where
    I: IntoIterator<Item = &'a [Asn]>,
{
    // Collapse prepending; drop degenerate paths.
    let cleaned: Vec<Vec<Asn>> = paths
        .into_iter()
        .map(|p| {
            let mut out: Vec<Asn> = Vec::with_capacity(p.len());
            for &a in p {
                if out.last() != Some(&a) {
                    out.push(a);
                }
            }
            out
        })
        .filter(|p| p.len() >= 2)
        .collect();

    // Phase 1: degrees.
    let mut neighbors: BTreeMap<Asn, BTreeSet<Asn>> = BTreeMap::new();
    for p in &cleaned {
        for w in p.windows(2) {
            neighbors.entry(w[0]).or_default().insert(w[1]);
            neighbors.entry(w[1]).or_default().insert(w[0]);
        }
    }
    let degrees: BTreeMap<Asn, usize> = neighbors.iter().map(|(&a, s)| (a, s.len())).collect();
    let deg = {
        let degrees = &degrees;
        move |a: Asn| degrees.get(&a).copied().unwrap_or(0)
    };

    // Phase 2: transit votes, appearance orders, interior occurrences,
    // and start-pair fractions. `starts[x]` counts paths beginning at x
    // (x's own table when x is a vantage); `start_pairs[(x, y)]` counts
    // those that leave immediately via y.
    let mut votes: BTreeMap<(Asn, Asn), usize> = BTreeMap::new(); // (provider, customer)
    let mut left_of: BTreeMap<(Asn, Asn), usize> = BTreeMap::new(); // (left, right) appearance
    let mut interior: BTreeMap<(Asn, Asn), usize> = BTreeMap::new();
    let mut starts: BTreeMap<Asn, usize> = BTreeMap::new();
    let mut start_pairs: BTreeMap<(Asn, Asn), usize> = BTreeMap::new();
    // Predecessors: for each directed adjacency (l, r), the set of ASes
    // observed immediately left of l on some path through (l, r).
    let mut predecessors: BTreeMap<(Asn, Asn), BTreeSet<Asn>> = BTreeMap::new();
    for p in &cleaned {
        *starts.entry(p[0]).or_insert(0) += 1;
        *start_pairs.entry((p[0], p[1])).or_insert(0) += 1;
        for i in 1..p.len().saturating_sub(1) {
            predecessors
                .entry((p[i], p[i + 1]))
                .or_default()
                .insert(p[i - 1]);
        }
        // Peak selection uses a GLOBAL total order (degree, then smaller
        // ASN wins): with a per-path tie-break (e.g. "first max"), the two
        // paths [a, b, …] and [b, a, …] crossing one link would pick
        // different peaks and emit contradictory transit votes, which reads
        // as a phantom sibling relationship.
        let top = (0..p.len())
            .max_by_key(|&i| (deg(p[i]), std::cmp::Reverse(p[i])))
            .expect("nonempty");
        for i in 0..p.len() - 1 {
            let (l, r) = (p[i], p[i + 1]);
            let (provider, customer) = if i < top { (r, l) } else { (l, r) };
            *votes.entry((provider, customer)).or_insert(0) += 1;
            *left_of.entry((l, r)).or_insert(0) += 1;
            let is_interior = i + 1 < top || i > top;
            if is_interior {
                *interior.entry(ordered(l, r)).or_insert(0) += 1;
            }
        }
    }

    // Phases 3–5: classify each adjacent pair.
    let mut map: BTreeMap<(Asn, Asn), Relationship> = BTreeMap::new();
    let pairs: BTreeSet<(Asn, Asn)> = votes.keys().map(|&(x, y)| ordered(x, y)).collect();
    for (a, b) in pairs {
        let ab = votes.get(&(a, b)).copied().unwrap_or(0); // a provides to b
        let ba = votes.get(&(b, a)).copied().unwrap_or(0); // b provides to a
        let order_ab = left_of.get(&(a, b)).copied().unwrap_or(0);
        let order_ba = left_of.get(&(b, a)).copied().unwrap_or(0);
        let inner = interior.get(&(a, b)).copied().unwrap_or(0);
        let (da, db) = (deg(a).max(1) as f64, deg(b).max(1) as f64);
        let ratio = if da > db { da / db } else { db / da };
        // Peering is tested FIRST: a top peer pair observed from both
        // sides appears in both orders and accrues transit votes in both
        // directions — it straddles the peak of every path crossing it —
        // and would otherwise be mistaken for a sibling or transit pair.
        // True siblings (mutual transit) also appear in both orders, but
        // their link inevitably shows up strictly below some other AS's
        // top (interior), which a settlement-free peering never does.
        let both_orders = order_ab > 0 && order_ba > 0;
        // Full-table signal: a vantage routing ≥ `full_table_frac` of its
        // table through one neighbor is buying transit from it, however
        // peer-like the pair otherwise looks. This resolves the one blind
        // spot of the interior test — the very largest AS's links to
        // vantage customers, which can never appear below anyone's top.
        let feeds_a = starts.get(&a).copied().unwrap_or(0) > 0
            && (start_pairs.get(&(a, b)).copied().unwrap_or(0) as f64)
                >= params.full_table_frac * starts[&a] as f64;
        let feeds_b = starts.get(&b).copied().unwrap_or(0) > 0
            && (start_pairs.get(&(b, a)).copied().unwrap_or(0) as f64)
                >= params.full_table_frac * starts[&b] as f64;
        let rel_of_b = if feeds_a || feeds_b {
            if feeds_a {
                Relationship::Provider // b feeds a's table: b is a's provider
            } else {
                Relationship::Customer
            }
        } else if params.enable_peer_phase
            && both_orders
            && inner == 0
            && ratio <= params.peer_degree_ratio
            && deg(a).min(deg(b)) >= params.peer_min_degree
        {
            Relationship::Peer
        } else if ab > params.sibling_threshold
            && ba > params.sibling_threshold
            && ab.min(ba) * 4 >= ab + ba
        {
            // Mutual transit must be roughly balanced: a handful of
            // reverse votes from peak misrankings should not outweigh an
            // overwhelming one-way majority.
            Relationship::Sibling
        } else if ab > ba {
            Relationship::Customer // b is a's customer
        } else if ba > ab {
            Relationship::Provider // b is a's provider
        } else if deg(a) >= deg(b) {
            Relationship::Customer
        } else {
            Relationship::Provider
        };
        map.insert((a, b), rel_of_b);
    }

    // Phase 6: demotion post-pass. Run twice so first-round demotions can
    // unlock second-round ones (a predecessor's own label may change).
    if params.enable_peer_phase {
        for _ in 0..2 {
            let rel_of = |m: &BTreeMap<(Asn, Asn), Relationship>, x: Asn, y: Asn| {
                if x < y {
                    m.get(&(x, y)).copied()
                } else {
                    m.get(&(y, x)).copied().map(Relationship::inverse)
                }
            };
            let mut demote: Vec<(Asn, Asn)> = Vec::new();
            for (&(a, b), &rel) in &map {
                // Normalize to (provider, customer) direction.
                let (prov, cust) = match rel {
                    Relationship::Customer => (a, b),
                    Relationship::Provider => (b, a),
                    _ => continue,
                };
                if deg(prov).min(deg(cust)) < params.peer_min_degree {
                    continue; // stub links are transit by definition
                }
                // Strong full-table evidence is never demoted.
                let s_pc = starts.get(&cust).copied().unwrap_or(0);
                if s_pc > 0
                    && (start_pairs.get(&(cust, prov)).copied().unwrap_or(0) as f64)
                        >= params.full_table_frac * s_pc as f64
                {
                    continue;
                }
                let used_from_above = predecessors
                    .get(&(prov, cust))
                    .map(|ys| {
                        ys.iter().any(|&y| {
                            matches!(
                                rel_of(&map, prov, y),
                                Some(Relationship::Provider) | Some(Relationship::Peer)
                            )
                        })
                    })
                    .unwrap_or(false);
                if !used_from_above {
                    demote.push((a, b));
                }
            }
            if demote.is_empty() {
                break;
            }
            for key in demote {
                map.insert(key, Relationship::Peer);
            }
        }
    }
    InferredRelationships { map }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paths(raw: &[&[u32]]) -> Vec<Vec<Asn>> {
        raw.iter()
            .map(|p| p.iter().copied().map(Asn).collect())
            .collect()
    }

    /// Params with the minimum-degree gate relaxed: the hand-built
    /// fixtures here are deliberately small, while the default gate is
    /// tuned for realistic worlds.
    fn lenient() -> InferenceParams {
        InferenceParams {
            peer_min_degree: 1,
            // Tiny fixtures have single-digit tables; the full-table
            // fraction signal is meaningless there.
            full_table_frac: 1.1,
            ..Default::default()
        }
    }

    fn run(raw: &[&[u32]]) -> InferredRelationships {
        let ps = paths(raw);
        infer(ps.iter().map(Vec::as_slice), &lenient())
    }

    /// Two tier-1s (10, 20) peering, each with customers; stubs below.
    ///
    /// 10 —peer— 20; 10 → 11 → 111; 20 → 21 → 211.
    fn two_cone_paths() -> Vec<Vec<Asn>> {
        paths(&[
            // From a collector peering with 10 and 20:
            &[10, 11, 111],
            &[20, 21, 211],
            &[10, 20, 21, 211],
            &[20, 10, 11, 111],
            &[10, 11],
            &[20, 21],
            &[10, 20],
            &[20, 10],
            // Deeper views giving interior evidence for p2c links:
            &[20, 10, 11],
            &[10, 20, 21],
        ])
    }

    #[test]
    fn infers_provider_customer_chains() {
        let ps = two_cone_paths();
        let inf = infer(ps.iter().map(Vec::as_slice), &lenient());
        assert_eq!(inf.rel(Asn(10), Asn(11)), Some(Relationship::Customer));
        assert_eq!(inf.rel(Asn(11), Asn(10)), Some(Relationship::Provider));
        assert_eq!(inf.rel(Asn(11), Asn(111)), Some(Relationship::Customer));
        assert_eq!(inf.rel(Asn(20), Asn(21)), Some(Relationship::Customer));
        assert_eq!(inf.rel(Asn(21), Asn(211)), Some(Relationship::Customer));
    }

    #[test]
    fn infers_top_peering() {
        let ps = two_cone_paths();
        let inf = infer(ps.iter().map(Vec::as_slice), &lenient());
        assert_eq!(inf.rel(Asn(10), Asn(20)), Some(Relationship::Peer));
        assert_eq!(inf.rel(Asn(20), Asn(10)), Some(Relationship::Peer));
    }

    #[test]
    fn basic_variant_has_no_peers() {
        let ps = two_cone_paths();
        let params = InferenceParams {
            enable_peer_phase: false,
            ..lenient()
        };
        let inf = infer(ps.iter().map(Vec::as_slice), &params);
        assert_ne!(inf.rel(Asn(10), Asn(20)), Some(Relationship::Peer));
    }

    #[test]
    fn huge_degree_gap_is_never_peering() {
        // Stub 99 single-homed to hub 10 (degree inflated by many stubs).
        let mut raw: Vec<Vec<Asn>> = Vec::new();
        for stub in 100..120u32 {
            raw.push(vec![Asn(10), Asn(stub)]);
        }
        raw.push(vec![Asn(10), Asn(99)]);
        // Default-like min degree: stub links are transit by definition and
        // must survive the demotion post-pass.
        let params = InferenceParams {
            full_table_frac: 1.1,
            ..Default::default()
        };
        let inf = infer(raw.iter().map(Vec::as_slice), &params);
        assert_eq!(inf.rel(Asn(10), Asn(99)), Some(Relationship::Customer));
    }

    #[test]
    fn siblings_from_bidirectional_transit() {
        // (uses lenient params implicitly via run())
        // 30 and 31 carry each other's routes upward: both directions vote.
        let raw = paths(&[
            &[50, 30, 31, 300],
            &[50, 30, 31, 300],
            &[50, 30, 31, 300],
            &[50, 31, 30, 301],
            &[50, 31, 30, 301],
            &[50, 31, 30, 301],
            // Make 50 clearly the top by degree:
            &[50, 60],
            &[50, 61],
            &[50, 62],
            &[50, 63],
        ]);
        let inf = infer(raw.iter().map(Vec::as_slice), &lenient());
        assert_eq!(inf.rel(Asn(30), Asn(31)), Some(Relationship::Sibling));
    }

    #[test]
    fn prepending_is_collapsed() {
        let raw = paths(&[&[10, 11, 11, 11, 111], &[10, 11], &[10, 12], &[10, 13]]);
        let inf = infer(raw.iter().map(Vec::as_slice), &lenient());
        assert_eq!(inf.rel(Asn(11), Asn(111)), Some(Relationship::Customer));
    }

    #[test]
    fn empty_and_trivial_inputs() {
        let inf = run(&[]);
        assert!(inf.is_empty());
        let inf = run(&[&[7]]);
        assert!(inf.is_empty());
        assert_eq!(inf.rel(Asn(1), Asn(1)), None);
    }

    #[test]
    fn to_graph_roundtrips_relationships() {
        let ps = two_cone_paths();
        let inf = infer(ps.iter().map(Vec::as_slice), &lenient());
        let g = inf.to_graph();
        g.validate().unwrap();
        for (a, b, r) in inf.iter() {
            assert_eq!(g.rel(a, b), Some(r));
        }
    }
}
