//! Verification of SA prefixes (§5.1.3, Table 7).
//!
//! Two steps per SA prefix:
//!
//! 1. **Relationship verification** — the relationship between the
//!    provider and the best route's next hop must be confirmed by the
//!    community-derived classes (§4.3's method).
//! 2. **Active customer path** — a customer path from the provider to the
//!    origin must be *active*: it must appear as a **contiguous segment of
//!    some observed path** carrying another route ("we call a customer
//!    path active if other prefixes traverse the same path"). Contiguity
//!    is what gives the paper's argument its teeth: if `AS1 AS12 AS14` is
//!    observed and `AS1→AS12` is a verified provider→customer link, then
//!    `AS12→AS14` must be provider→customer too — a peer or provider of
//!    AS12 could never be announced *to AS12's provider* under the export
//!    rules of §2.2.2. Composing edges from different paths (as a naive
//!    implementation might) loses exactly this guarantee and lets
//!    misinferred peerings smuggle phantom customers into the cone.

use std::collections::{BTreeMap, BTreeSet};

use bgp_sim::CollectorView;
use bgp_types::{Asn, Ipv4Prefix, Relationship};
use net_topology::{AsGraph, Relations};

use crate::export_policy::SaReport;
use crate::view::BestTable;

/// Table 7 outcome for one provider.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerificationReport {
    /// SA prefixes examined.
    pub sa_total: usize,
    /// Step 1 passes (next-hop relationship community-confirmed).
    pub step1_pass: usize,
    /// Step 2 passes (customer path active).
    pub step2_pass: usize,
    /// Both steps pass.
    pub verified: usize,
    /// The prefixes that passed both steps — §5.1.5's cause analysis runs
    /// on these, not on the raw SA set.
    pub verified_prefixes: BTreeSet<Ipv4Prefix>,
}

impl VerificationReport {
    /// Percentage fully verified.
    pub fn percent(&self) -> f64 {
        if self.sa_total == 0 {
            100.0
        } else {
            100.0 * self.verified as f64 / self.sa_total as f64
        }
    }
}

/// The ASes reachable from `provider` through an *active* customer path:
/// a contiguous, oracle-all-customer segment `provider → … → x` of at
/// least one observed path (collector rows plus the given provider
/// tables, each prefixed by its owner).
pub fn active_customer_set(
    oracle: &AsGraph,
    collector: &CollectorView,
    tables: &[&BestTable],
    provider: Asn,
) -> BTreeSet<Asn> {
    let mut active = BTreeSet::new();
    let mut scan = |path: &[Asn]| {
        for i in 0..path.len() {
            if path[i] != provider {
                continue;
            }
            let mut j = i;
            while j + 1 < path.len() && oracle.is_down(path[j], path[j + 1]) {
                j += 1;
                active.insert(path[j]);
            }
        }
    };
    for row in collector.all_paths() {
        scan(&row.path);
    }
    let mut buf: Vec<Asn> = Vec::new();
    for t in tables {
        for r in t.rows.values() {
            buf.clear();
            buf.push(t.asn);
            buf.extend_from_slice(&r.path);
            scan(&buf);
        }
    }
    active
}

/// Verifies the SA prefixes of `report` (computed from `table`).
///
/// `active` is the provider's active customer set from
/// [`active_customer_set`]; `community_class` is the §4.3
/// community-derived relationship map for the provider (`None` entries
/// mean the neighbor is untagged and step 1 fails for routes through it,
/// as in the paper's conservative counting).
pub fn verify_sa(
    table: &BestTable,
    report: &SaReport,
    oracle: &AsGraph,
    active: &BTreeSet<Asn>,
    community_class: &BTreeMap<Asn, Relationship>,
) -> VerificationReport {
    let mut out = VerificationReport::default();
    for &prefix in &report.sa {
        let Some(row) = table.rows.get(&prefix) else {
            continue;
        };
        out.sa_total += 1;

        // Step 1: the oracle's claim about (provider, next hop) must match
        // the community-derived class.
        let oracle_rel = oracle.rel(table.asn, row.next_hop);
        let community_rel = community_class.get(&row.next_hop).copied();
        let step1 = matches!((oracle_rel, community_rel), (Some(a), Some(b)) if a == b);
        if step1 {
            out.step1_pass += 1;
        }

        // Step 2: the origin must be reachable over an active customer path.
        let step2 = active.contains(&row.origin());
        if step2 {
            out.step2_pass += 1;
        }
        if step1 && step2 {
            out.verified += 1;
            out.verified_prefixes.insert(prefix);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export_policy::sa_prefixes;
    use crate::view::BestRow;
    use bgp_sim::CollectorRow;
    use net_topology::NodeInfo;
    use Relationship::*;

    fn fig3_oracle() -> AsGraph {
        let mut g = AsGraph::new();
        for x in 1..=5 {
            g.add_as(Asn(x), NodeInfo::default());
        }
        g.add_edge(Asn(4), Asn(2), Customer).unwrap();
        g.add_edge(Asn(4), Asn(3), Customer).unwrap();
        g.add_edge(Asn(4), Asn(5), Peer).unwrap();
        g.add_edge(Asn(2), Asn(1), Customer).unwrap();
        g.add_edge(Asn(3), Asn(1), Customer).unwrap();
        g.add_edge(Asn(5), Asn(3), Customer).unwrap();
        g
    }

    fn d_table() -> BestTable {
        BestTable {
            asn: Asn(4),
            rows: BTreeMap::from([(
                "10.0.0.0/16".parse().unwrap(),
                BestRow {
                    next_hop: Asn(5),
                    path: vec![Asn(5), Asn(3), Asn(1)],
                },
            )]),
        }
    }

    fn collector_with(paths: Vec<Vec<u32>>) -> CollectorView {
        let mut view = CollectorView::default();
        for (i, p) in paths.into_iter().enumerate() {
            let path: Vec<Asn> = p.into_iter().map(Asn).collect();
            view.rows.insert(
                bgp_types::Ipv4Prefix::canonical((i as u32 + 1) << 24, 8),
                vec![CollectorRow {
                    peer: path[0],
                    path,
                    communities: vec![],
                }],
            );
        }
        view
    }

    #[test]
    fn verified_when_both_steps_pass() {
        let g = fig3_oracle();
        let t = d_table();
        let report = sa_prefixes(&t, &g);
        assert_eq!(report.sa.len(), 1);
        // Another route traverses the contiguous customer segment 4→2→1.
        let collector = collector_with(vec![vec![5, 4, 2, 1]]);
        let active = active_customer_set(&g, &collector, &[&t], Asn(4));
        assert!(active.contains(&Asn(1)));
        let comm = BTreeMap::from([(Asn(5), Peer)]);
        let rep = verify_sa(&t, &report, &g, &active, &comm);
        assert_eq!(rep.sa_total, 1);
        assert_eq!(rep.step1_pass, 1);
        assert_eq!(rep.step2_pass, 1);
        assert_eq!(rep.verified, 1);
        assert!(rep
            .verified_prefixes
            .contains(&"10.0.0.0/16".parse().unwrap()));
        assert_eq!(rep.percent(), 100.0);
    }

    #[test]
    fn inactive_customer_path_fails_step2() {
        let g = fig3_oracle();
        let t = d_table();
        let report = sa_prefixes(&t, &g);
        // No other route traverses D's customer side at all.
        let collector = collector_with(vec![]);
        let active = active_customer_set(&g, &collector, &[&t], Asn(4));
        let comm = BTreeMap::from([(Asn(5), Peer)]);
        let rep = verify_sa(&t, &report, &g, &active, &comm);
        assert_eq!(rep.step2_pass, 0);
        assert_eq!(rep.verified, 0);
        assert!(rep.verified_prefixes.is_empty());
    }

    #[test]
    fn stitched_edges_from_different_paths_do_not_activate() {
        // (4,2) appears in one path, (2,1) in another — but never
        // contiguously below 4. A naive pairwise check would pass; the
        // paper's contiguity argument must fail it.
        let g = fig3_oracle();
        let t = d_table();
        let report = sa_prefixes(&t, &g);
        let collector = collector_with(vec![
            vec![5, 4, 2], // ends at 2: segment 4→2 only
            vec![2, 1],    // 2's own view: segment does not start below 4
        ]);
        let active = active_customer_set(&g, &collector, &[&t], Asn(4));
        assert!(active.contains(&Asn(2)));
        assert!(
            !active.contains(&Asn(1)),
            "stitching (4,2)+(2,1) across paths must not activate 1"
        );
        let comm = BTreeMap::from([(Asn(5), Peer)]);
        let rep = verify_sa(&t, &report, &g, &active, &comm);
        assert_eq!(rep.step2_pass, 0);
    }

    #[test]
    fn peer_hops_terminate_the_active_segment() {
        // Observed [9, 4, 5, 3, 1]: the 4→5 hop is a peering, so nothing
        // on that path is active below 4 — even though 3→1 is p2c.
        let g = fig3_oracle();
        let t = d_table();
        let collector = collector_with(vec![vec![9, 4, 5, 3, 1]]);
        let active = active_customer_set(&g, &collector, &[&t], Asn(4));
        assert!(!active.contains(&Asn(1)));
        assert!(!active.contains(&Asn(5)));
    }

    #[test]
    fn community_disagreement_fails_step1() {
        let g = fig3_oracle();
        let t = d_table();
        let report = sa_prefixes(&t, &g);
        let collector = collector_with(vec![vec![5, 4, 2, 1]]);
        let active = active_customer_set(&g, &collector, &[&t], Asn(4));
        // Community data claims 5 is a provider; oracle says peer → fail.
        let comm = BTreeMap::from([(Asn(5), Provider)]);
        let rep = verify_sa(&t, &report, &g, &active, &comm);
        assert_eq!(rep.step1_pass, 0);
        assert_eq!(rep.step2_pass, 1);
        assert_eq!(rep.verified, 0);

        // Untagged next hop also fails step 1.
        let rep2 = verify_sa(&t, &report, &g, &active, &BTreeMap::new());
        assert_eq!(rep2.step1_pass, 0);
    }

    #[test]
    fn provider_tables_contribute_segments() {
        let g = fig3_oracle();
        // D's own table carries a customer route 2→1 for another prefix:
        // the segment [4, 2, 1] is active even with an empty collector.
        let mut t = d_table();
        t.rows.insert(
            "20.0.0.0/16".parse().unwrap(),
            BestRow {
                next_hop: Asn(2),
                path: vec![Asn(2), Asn(1)],
            },
        );
        let collector = collector_with(vec![]);
        let active = active_customer_set(&g, &collector, &[&t], Asn(4));
        assert!(active.contains(&Asn(1)));
        assert!(active.contains(&Asn(2)));
    }
}
