//! Path algorithms, each written once over any relationship oracle
//! ([`Relations`]): the downhill walk behind customer paths and cones
//! (Fig. 4 Phase 2) and the valley-free walk (§2.2.2).

use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;

use bgp_types::{Asn, Relationship};

use crate::graph::AsGraph;

/// A relationship oracle: which ASes are adjacent, and as what. Every
/// implementation keeps the contract the walks rely on: `rel(b, a) ==
/// rel(a, b).map(Relationship::inverse)` for every pair, and no AS is
/// its own neighbour.
pub trait Relations {
    /// An AS, as this oracle names it.
    type As: Copy + Eq;

    /// What `b` is to `a` ("b is a's …"), if the two are adjacent.
    fn rel(&self, a: Self::As, b: Self::As) -> Option<Relationship>;

    /// `a`'s neighbours and what each is to `a`, in ascending id order
    /// (none for an AS the oracle does not know).
    fn neighbors(&self, a: Self::As) -> impl Iterator<Item = (Self::As, Relationship)> + '_;

    /// Is `b` below `a` — its customer or its sibling? A route learned
    /// from such a `b` is a customer route, and the walk down crosses it.
    fn is_down(&self, a: Self::As, b: Self::As) -> bool {
        matches!(
            self.rel(a, b),
            Some(Relationship::Customer | Relationship::Sibling)
        )
    }
}

impl Relations for AsGraph {
    type As = Asn;

    fn rel(&self, a: Asn, b: Asn) -> Option<Relationship> {
        AsGraph::rel(self, a, b)
    }

    fn neighbors(&self, a: Asn) -> impl Iterator<Item = (Asn, Relationship)> + '_ {
        AsGraph::neighbors(self, a)
    }
}

/// The downhill walk: depth-first from `root` over [`Relations::is_down`]
/// links, explicit stack, rows in ascending id order. `visit(u, v)` sees
/// each link `u → v` but those back into `root` (never its own
/// descendant) and keeps the visited set, marking `v` when first reached:
/// `Continue(true)` walks on below `v`, `Continue(false)` skips it,
/// `Break` ends the walk.
pub fn walk_down<R: Relations>(
    g: &R,
    root: R::As,
    mut visit: impl FnMut(R::As, R::As) -> ControlFlow<(), bool>,
) {
    let mut stack = vec![root];
    while let Some(u) = stack.pop() {
        for (v, _) in g.neighbors(u) {
            if v == root || !g.is_down(u, v) {
                continue;
            }
            match visit(u, v) {
                ControlFlow::Continue(true) => stack.push(v),
                ControlFlow::Continue(false) => {}
                ControlFlow::Break(()) => return,
            }
        }
    }
}

/// Finds a *customer path* from `provider` down to `target`: a path whose
/// every hop is provider→customer (sibling hops also allowed, since a
/// sibling forwards everything). Returns the path including both endpoints,
/// or `None` when `target` is not a (direct or indirect) customer.
///
/// This is the modified DFS of Fig. 4 Phase 2 ("paths should obey export
/// rules … from the direction of provider down to customer, each pair of
/// ASs in the path should have provider-to-customer relationship"):
/// [`walk_down`], stopped at `target`. Deterministic: neighbors are
/// explored in ascending ASN order.
pub fn customer_path(g: &AsGraph, provider: Asn, target: Asn) -> Option<Vec<Asn>> {
    if !g.contains(provider) || !g.contains(target) {
        return None;
    }
    // `parent` doubles as the visited set.
    let mut parent: BTreeMap<Asn, Asn> = BTreeMap::new();
    walk_down(g, provider, |u, v| {
        if parent.contains_key(&v) {
            return ControlFlow::Continue(false);
        }
        parent.insert(v, u);
        if v == target {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(true)
        }
    });
    let (mut path, mut cur) = (vec![target], target);
    while cur != provider {
        cur = *parent.get(&cur)?;
        path.push(cur);
    }
    path.reverse();
    Some(path)
}

/// The transitive customer cone of an AS: every AS reachable by walking
/// provider→customer (and sibling) edges, *excluding* the root itself.
///
/// Fig. 4 Phase 2's "is AS `o` a customer of AS `u`?" is
/// `CustomerCone::build(g, u).contains(o)`; building the cone once and
/// reusing it across the thousands of origin checks in the SA analysis is
/// what makes Table 5 affordable.
#[derive(Debug, Clone)]
pub struct CustomerCone {
    members: BTreeSet<Asn>,
}

impl CustomerCone {
    /// Collects [`walk_down`] from `root`.
    pub fn build(g: &AsGraph, root: Asn) -> Self {
        let mut members = BTreeSet::new();
        walk_down(g, root, |_, v| ControlFlow::Continue(members.insert(v)));
        CustomerCone { members }
    }

    /// Is `asn` a direct or indirect customer of the root?
    pub fn contains(&self, asn: Asn) -> bool {
        self.members.contains(&asn)
    }

    /// Number of (direct or indirect) customers.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Iterate over cone members in ascending ASN order.
    pub fn members(&self) -> impl Iterator<Item = Asn> + '_ {
        self.members.iter().copied()
    }
}

/// How [`valley_walk`] judged a path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Valley<A> {
    /// Uphill*, at most one peer link, downhill*.
    Free,
    /// This AS sent the route up or across after the path's peak.
    Leaker(A),
    /// Two consecutive ASes are not adjacent in the oracle.
    Incomplete,
}

/// The valley-free walk, §2.2.2's export rules over `hops`, `(from, to)`
/// in the direction the announcement travelled: climb, cross at most one
/// peer link, then only descend; sibling hops never change phase. The
/// first hop that breaks the rule or joins non-adjacent ASes decides.
pub fn valley_walk<R: Relations>(
    g: &R,
    hops: impl IntoIterator<Item = (R::As, R::As)>,
) -> Valley<R::As> {
    #[derive(Clone, Copy)]
    enum Phase {
        Climb,
        Peered,
        Descend,
    }
    use Relationship::{Customer, Peer, Provider, Sibling};
    let mut phase = Phase::Climb;
    for (from, to) in hops {
        phase = match (phase, g.rel(from, to)) {
            (_, None) => return Valley::Incomplete,
            (_, Some(Sibling)) => phase,
            (_, Some(Customer)) => Phase::Descend,
            (Phase::Climb, Some(Provider)) => Phase::Climb,
            (Phase::Climb, Some(Peer)) => Phase::Peered,
            // Any up/flat hop after the peak: `from` leaked the route.
            (Phase::Peered | Phase::Descend, Some(Provider | Peer)) => return Valley::Leaker(from),
        };
    }
    Valley::Free
}

/// Valley-freedom verdict for a whole path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PathClass {
    /// Uphill*, ≤1 peer, downhill* — exportable under §2.2.2's rules.
    ValleyFree,
    /// Violates the export rules (a "valley" or multiple peer links).
    Valley,
    /// Contains a hop between non-adjacent ASes (graph is incomplete).
    Incomplete,
}

/// Classifies a path given **speaker-first** order (as [`bgp_types::AsPath`]
/// stores it): [`valley_walk`] over its hops from the origin on.
pub fn classify_path(g: &AsGraph, speaker_first: &[Asn]) -> PathClass {
    let origin_first = speaker_first.windows(2).rev().map(|w| (w[1], w[0]));
    match valley_walk(g, origin_first) {
        Valley::Free => PathClass::ValleyFree,
        Valley::Leaker(_) => PathClass::Valley,
        Valley::Incomplete => PathClass::Incomplete,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeInfo;

    /// Fig. 3 of the paper:
    ///
    /// ```text
    ///        D --- peer --- E
    ///       / \             |
    ///      B   C            |   (B, C customers of D; E peers D)
    ///       \ /            /
    ///        A  (A customer of B and C; E provider of C? no —
    ///            E reaches p via C in the paper; here: C customer of E)
    /// ```
    ///
    /// Edges: D→B, D→C (p2c), D–E peer, B→A, C→A (p2c), E→C (p2c).
    fn fig3_graph() -> AsGraph {
        let mut g = AsGraph::new();
        let (a, b, c, d, e) = (Asn(1), Asn(2), Asn(3), Asn(4), Asn(5));
        for x in [a, b, c, d, e] {
            g.add_as(x, NodeInfo::default());
        }
        g.add_edge(d, b, Relationship::Customer).unwrap();
        g.add_edge(d, c, Relationship::Customer).unwrap();
        g.add_edge(d, e, Relationship::Peer).unwrap();
        g.add_edge(b, a, Relationship::Customer).unwrap();
        g.add_edge(c, a, Relationship::Customer).unwrap();
        g.add_edge(e, c, Relationship::Customer).unwrap();
        g
    }

    #[test]
    fn customer_path_finds_a_downhill_route() {
        let g = fig3_graph();
        let (a, d) = (Asn(1), Asn(4));
        let p = customer_path(&g, d, a).unwrap();
        assert_eq!(p.first(), Some(&d));
        assert_eq!(p.last(), Some(&a));
        // Every hop is provider→customer.
        for w in p.windows(2) {
            assert_eq!(g.rel(w[0], w[1]), Some(Relationship::Customer));
        }
    }

    #[test]
    fn customer_path_absent_for_peers_and_uphill() {
        let g = fig3_graph();
        assert!(customer_path(&g, Asn(4), Asn(5)).is_none()); // D→E is peer
        assert!(customer_path(&g, Asn(1), Asn(4)).is_none()); // A is below D
        assert!(customer_path(&g, Asn(9), Asn(1)).is_none()); // unknown AS
        assert_eq!(customer_path(&g, Asn(4), Asn(4)), Some(vec![Asn(4)]));
    }

    #[test]
    fn customer_cone_matches_reachability() {
        let g = fig3_graph();
        let cone_d = CustomerCone::build(&g, Asn(4));
        assert!(cone_d.contains(Asn(1)));
        assert!(cone_d.contains(Asn(2)));
        assert!(cone_d.contains(Asn(3)));
        assert!(!cone_d.contains(Asn(5)));
        assert!(!cone_d.contains(Asn(4)), "root excluded");
        assert_eq!(cone_d.size(), 3);
        let cone_b = CustomerCone::build(&g, Asn(2));
        assert_eq!(cone_b.members().collect::<Vec<_>>(), vec![Asn(1)]);
    }

    #[test]
    fn sibling_edges_extend_cones() {
        let mut g = fig3_graph();
        g.add_as(Asn(6), NodeInfo::default());
        g.add_edge(Asn(1), Asn(6), Relationship::Sibling).unwrap();
        let cone_d = CustomerCone::build(&g, Asn(4));
        assert!(cone_d.contains(Asn(6)), "sibling of a customer is in cone");
        let p = customer_path(&g, Asn(4), Asn(6)).unwrap();
        assert_eq!(p.last(), Some(&Asn(6)));
    }

    #[test]
    fn classify_valley_free_and_valleys() {
        let g = fig3_graph();
        let (a, b, c, d, e) = (Asn(1), Asn(2), Asn(3), Asn(4), Asn(5));
        // Speaker-first D B A: D learned from B, B from A. Origin A climbs
        // to B (up), B to D (up): valley-free.
        assert_eq!(classify_path(&g, &[d, b, a]), PathClass::ValleyFree);
        // D E C A: origin A→C up, C→E up, E→D peer: valley-free (peer at top).
        assert_eq!(classify_path(&g, &[d, e, c, a]), PathClass::ValleyFree);
        // B A C: origin C→A down, then A→B up — a valley.
        assert_eq!(classify_path(&g, &[b, a, c]), PathClass::Valley);
        // C E D B: origin B→D up, D→E peer, E→C down — classic up/peer/down.
        assert_eq!(classify_path(&g, &[c, e, d, b]), PathClass::ValleyFree);
    }

    #[test]
    fn classify_incomplete_and_trivial() {
        let g = fig3_graph();
        assert_eq!(classify_path(&g, &[Asn(1), Asn(99)]), PathClass::Incomplete);
        assert_eq!(classify_path(&g, &[Asn(1)]), PathClass::ValleyFree);
        assert_eq!(classify_path(&g, &[]), PathClass::ValleyFree);
    }

    #[test]
    fn classify_double_peer_is_valley() {
        let mut g = fig3_graph();
        g.add_as(Asn(7), NodeInfo::default());
        g.add_edge(Asn(5), Asn(7), Relationship::Peer).unwrap();
        // Speaker-first: 7 5 4 — origin 4: 4→5 peer, 5→7 peer ⇒ two peer hops.
        assert_eq!(
            classify_path(&g, &[Asn(7), Asn(5), Asn(4)]),
            PathClass::Valley
        );
    }

    /// A sibling hop is no step of its own: a climb may go on after one,
    /// and a descent may end in one.
    #[test]
    fn sibling_hops_neither_climb_nor_descend() {
        let mut g = fig3_graph();
        g.add_as(Asn(8), NodeInfo::default());
        g.add_edge(Asn(2), Asn(8), Relationship::Sibling).unwrap();
        g.add_edge(Asn(4), Asn(8), Relationship::Customer).unwrap();
        // Speaker-first: 4 8 2 1 — origin 1 climbs to 2, crosses to its
        // sibling 8, and climbs on to 8's provider 4.
        assert_eq!(
            classify_path(&g, &[Asn(4), Asn(8), Asn(2), Asn(1)]),
            PathClass::ValleyFree
        );
        // Speaker-first: 8 2 4 — origin 4 descends to 2, then to 2's sibling.
        assert_eq!(
            classify_path(&g, &[Asn(8), Asn(2), Asn(4)]),
            PathClass::ValleyFree
        );
    }

    #[test]
    fn sibling_hops_are_phase_neutral() {
        let mut g = fig3_graph();
        g.add_as(Asn(8), NodeInfo::default());
        g.add_edge(Asn(4), Asn(8), Relationship::Sibling).unwrap();
        // Speaker-first: 8 4 2 1 — origin 1 climbs 1→2→4, then 4→8 sibling.
        assert_eq!(
            classify_path(&g, &[Asn(8), Asn(4), Asn(2), Asn(1)]),
            PathClass::ValleyFree
        );
        // Sibling then continue down: 2 4 8 ⇒ origin 8: 8→4 sibling, 4→2 down.
        assert_eq!(
            classify_path(&g, &[Asn(2), Asn(4), Asn(8)]),
            PathClass::ValleyFree
        );
    }
}
