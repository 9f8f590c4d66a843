//! Scoring inferred relationships against ground truth.
//!
//! The paper cannot do this — it verifies a sample via BGP communities
//! (§4.3). We *can*, because the simulator's graph is the truth; the same
//! per-AS agreement numbers Table 4 reports from community verification
//! fall out of [`per_as_agreement`] directly.

use std::collections::BTreeMap;

use bgp_types::{Asn, Relationship};
use net_topology::AsGraph;

use crate::gao::InferredRelationships;

/// The link classes a report scores separately. [`AccuracyReport::confusion`]
/// is keyed from the lower-ASN end, so one customer–provider link is
/// `Customer` or `Provider` depending on which end has the lower ASN;
/// both are [`LinkClass::Transit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkClass {
    /// Customer–provider (c2p) links.
    Transit,
    /// Settlement-free peering (p2p) links.
    Peer,
    /// Sibling (s2s) links.
    Sibling,
}

impl LinkClass {
    /// The class of a link annotated `rel` from either end.
    fn of(rel: Relationship) -> LinkClass {
        match rel {
            Relationship::Customer | Relationship::Provider => LinkClass::Transit,
            Relationship::Peer => LinkClass::Peer,
            Relationship::Sibling => LinkClass::Sibling,
        }
    }
}

/// Confusion-matrix style accuracy report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccuracyReport {
    /// Pairs classified by the inference and present in the true graph.
    pub compared: usize,
    /// Pairs whose inferred relationship matches the truth.
    pub correct: usize,
    /// `counts[(truth, inferred)]` over compared pairs. Relationships are
    /// canonicalized to the lower-ASN endpoint's perspective.
    pub confusion: BTreeMap<(Relationship, Relationship), usize>,
    /// Inferred pairs absent from the true graph (phantom edges; cannot
    /// happen when paths come from a sound simulator).
    pub phantom: usize,
    /// True edges never observed in any path (invisible links — peerings
    /// low in the hierarchy are the usual culprits).
    pub unobserved: usize,
}

impl AccuracyReport {
    /// Fraction of compared pairs inferred correctly.
    pub fn accuracy(&self) -> f64 {
        ratio(self.correct, self.compared)
    }

    /// Of the compared pairs inferred as `class`, the fraction whose true
    /// relationship is exactly the inferred one (0 when none were).
    pub fn precision(&self, class: LinkClass) -> f64 {
        self.class_ratio(class, |_, inferred| inferred)
    }

    /// Of the compared pairs whose truth is `class`, the fraction inferred
    /// exactly right (0 when there were none).
    pub fn recall(&self, class: LinkClass) -> f64 {
        self.class_ratio(class, |truth, _| truth)
    }

    /// Correct pairs over the pairs `side` puts in `class`.
    fn class_ratio(
        &self,
        class: LinkClass,
        side: fn(Relationship, Relationship) -> Relationship,
    ) -> f64 {
        let (mut hits, mut total) = (0usize, 0usize);
        for (&(truth, inferred), &n) in &self.confusion {
            if LinkClass::of(side(truth, inferred)) == class {
                total += n;
                if truth == inferred {
                    hits += n;
                }
            }
        }
        ratio(hits, total)
    }

    /// Computes the report for `inferred` against the annotated `truth`.
    pub fn compute(truth: &AsGraph, inferred: &InferredRelationships) -> AccuracyReport {
        let mut rep = AccuracyReport::default();
        for (a, b, inf_rel) in inferred.iter() {
            match truth.rel(a, b) {
                Some(true_rel) => {
                    rep.compared += 1;
                    if true_rel == inf_rel {
                        rep.correct += 1;
                    }
                    *rep.confusion.entry((true_rel, inf_rel)).or_insert(0) += 1;
                }
                None => rep.phantom += 1,
            }
        }
        // Count true edges never classified.
        for a in truth.ases() {
            for (b, _) in truth.neighbors(a) {
                if a < b && inferred.rel(a, b).is_none() {
                    rep.unobserved += 1;
                }
            }
        }
        rep
    }
}

/// `num / den`, or 0 for an empty denominator.
fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-AS agreement: for each AS in `ases`, the fraction of its true edges
/// that were observed *and* correctly classified — the quantity the paper's
/// Table 4 reports as "percentage of AS relationships … verified".
pub fn per_as_agreement(
    truth: &AsGraph,
    inferred: &InferredRelationships,
    ases: &[Asn],
) -> BTreeMap<Asn, f64> {
    let mut out = BTreeMap::new();
    for &a in ases {
        let mut total = 0usize;
        let mut good = 0usize;
        for (b, true_rel) in truth.neighbors(a) {
            if let Some(inf_rel) = inferred.rel(a, b) {
                total += 1;
                if inf_rel == true_rel {
                    good += 1;
                }
            }
        }
        if total > 0 {
            out.insert(a, good as f64 / total as f64);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gao::{infer, InferenceParams};
    use net_topology::NodeInfo;
    use Relationship::*;

    fn truth_graph() -> AsGraph {
        let mut g = AsGraph::new();
        for a in [10, 20, 11, 21, 111, 211] {
            g.add_as(Asn(a), NodeInfo::default());
        }
        g.add_edge(Asn(10), Asn(20), Peer).unwrap();
        g.add_edge(Asn(10), Asn(11), Customer).unwrap();
        g.add_edge(Asn(11), Asn(111), Customer).unwrap();
        g.add_edge(Asn(20), Asn(21), Customer).unwrap();
        g.add_edge(Asn(21), Asn(211), Customer).unwrap();
        g
    }

    fn observed() -> InferredRelationships {
        let raw: Vec<Vec<Asn>> = [
            vec![10u32, 11, 111],
            vec![20, 21, 211],
            vec![10, 20, 21, 211],
            vec![20, 10, 11, 111],
            vec![10, 20],
            vec![20, 10, 11],
            vec![10, 20, 21],
        ]
        .into_iter()
        .map(|p| p.into_iter().map(Asn).collect())
        .collect();
        let params = InferenceParams {
            peer_min_degree: 1,
            full_table_frac: 1.1,
            ..Default::default()
        };
        infer(raw.iter().map(Vec::as_slice), &params)
    }

    #[test]
    fn perfect_inference_scores_one() {
        let g = truth_graph();
        let inf = observed();
        let rep = AccuracyReport::compute(&g, &inf);
        assert_eq!(rep.phantom, 0);
        assert_eq!(rep.compared, 5);
        assert_eq!(rep.correct, rep.compared, "confusion: {:?}", rep.confusion);
        assert!((rep.accuracy() - 1.0).abs() < 1e-9);
        assert_eq!(rep.unobserved, 0);
    }

    #[test]
    fn class_scores_fold_both_transit_keys_and_count_reversals_wrong() {
        let rep = AccuracyReport {
            confusion: BTreeMap::from([
                ((Customer, Customer), 3),
                ((Provider, Provider), 1),
                ((Provider, Customer), 1),
                ((Peer, Peer), 2),
                ((Peer, Provider), 1),
            ]),
            ..Default::default()
        };
        assert_eq!(rep.precision(LinkClass::Transit), 4.0 / 6.0);
        assert_eq!(rep.recall(LinkClass::Transit), 4.0 / 5.0);
        assert_eq!(rep.precision(LinkClass::Peer), 1.0);
        assert_eq!(rep.recall(LinkClass::Peer), 2.0 / 3.0);
        assert_eq!(rep.recall(LinkClass::Sibling), 0.0);
    }

    #[test]
    fn per_as_agreement_matches_manual_counts() {
        let g = truth_graph();
        let inf = observed();
        let table = per_as_agreement(&g, &inf, &[Asn(10), Asn(21), Asn(424242)]);
        assert_eq!(table.get(&Asn(10)), Some(&1.0));
        assert_eq!(table.get(&Asn(21)), Some(&1.0));
        assert!(!table.contains_key(&Asn(424242)));
    }

    #[test]
    fn unobserved_edges_are_counted() {
        let mut g = truth_graph();
        g.add_as(Asn(999), NodeInfo::default());
        g.add_edge(Asn(11), Asn(999), Peer).unwrap(); // invisible peering
        let inf = observed();
        let rep = AccuracyReport::compute(&g, &inf);
        assert_eq!(rep.unobserved, 1);
    }

    #[test]
    fn misclassification_shows_in_confusion() {
        let g = truth_graph();
        // Force a wrong inference by flipping paths: only show 10–20 in a
        // way that looks like transit (interior position).
        let raw: Vec<Vec<Asn>> = [
            vec![30u32, 10, 20, 21],
            vec![30, 10, 20, 21],
            vec![30, 10, 20],
            vec![30, 31],
            vec![30, 32],
            vec![30, 33],
            vec![30, 34],
        ]
        .into_iter()
        .map(|p| p.into_iter().map(Asn).collect())
        .collect();
        let params = InferenceParams {
            peer_min_degree: 1,
            full_table_frac: 1.1,
            ..Default::default()
        };
        let inf = infer(raw.iter().map(Vec::as_slice), &params);
        let rep = AccuracyReport::compute(&g, &inf);
        // The 10–20 edge is compared and misclassified (truth: Peer).
        let wrong_peer: usize = rep
            .confusion
            .iter()
            .filter(|(&(t, i), _)| t == Peer && i != Peer)
            .map(|(_, &n)| n)
            .sum();
        assert!(wrong_peer >= 1, "confusion: {:?}", rep.confusion);
        assert!(rep.accuracy() < 1.0);
        // Edges to 30 are phantom (not in the truth graph).
        assert!(rep.phantom >= 1);
    }
}
