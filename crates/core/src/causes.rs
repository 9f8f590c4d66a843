//! Cause analysis for SA prefixes (§5.1.5, Table 9 and Case 3).
//!
//! Three candidate causes, measured exactly as the paper does:
//!
//! * **Case 1 — prefix splitting**: the SA prefix has a covering/covered
//!   companion in the same table, same origin, travelling a *customer*
//!   route (one half balanced away, the other kept).
//! * **Case 2 — prefix aggregating** (upper bound): the SA prefix is
//!   covered by any less-specific prefix in the table.
//! * **Case 3 — selective announcing**: path evidence decides whether the
//!   responsible customer exports the prefix to its direct provider at
//!   all ("if the provider is left to the customer [in some path], the
//!   customer exports the prefix to the provider").

use std::collections::{BTreeMap, BTreeSet};

use bgp_sim::CollectorView;
use bgp_types::{Asn, CowTrie, Ipv4Prefix};
use net_topology::{customer_path, AsGraph, CustomerCone, Relations};

use crate::export_policy::SaReport;
use crate::view::BestTable;

/// Table 9's row plus the Case-3 breakdown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CauseReport {
    /// SA prefixes examined.
    pub sa_total: usize,
    /// Case 1: SA prefixes explained by prefix splitting.
    pub splitting: usize,
    /// Case 2 (upper bound): SA prefixes coverable by a less specific.
    pub aggregating: usize,
    /// Case 3 prefix-level: SA prefixes with any observed path through the
    /// responsible customer.
    pub identified: usize,
    /// Case 3 customer-level tallies.
    pub customers: CustomerExportSplit,
}

/// The paper's 21 % / 79 % split: among responsible customers with path
/// evidence, who exports to a direct provider and who does not.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CustomerExportSplit {
    /// Customers with at least one observed path.
    pub identified: usize,
    /// Of those, customers seen exporting directly to some direct provider.
    pub exporting: usize,
}

impl CustomerExportSplit {
    /// Percentage of identified customers exporting directly.
    pub fn percent_exporting(&self) -> f64 {
        if self.identified == 0 {
            0.0
        } else {
            100.0 * self.exporting as f64 / self.identified as f64
        }
    }
}

/// Runs the three-case analysis for one provider's SA report.
pub fn causes(
    table: &BestTable,
    report: &SaReport,
    oracle: &AsGraph,
    collector: &CollectorView,
) -> CauseReport {
    let mut out = CauseReport {
        sa_total: report.sa.len(),
        ..Default::default()
    };

    // Index the provider's table for covering/covered queries.
    let trie: CowTrie<&crate::view::BestRow> = table.rows.iter().map(|(&p, r)| (p, r)).collect();

    // Case-3 bookkeeping: responsible customer → seen exporting? The
    // providers that matter for Case 3 are the ones on *this* provider's
    // side of the hierarchy: u itself or members of u's cone. A customer
    // exporting to a provider outside the cone is precisely what makes
    // the prefix SA here.
    let mut customer_seen: BTreeMap<Asn, bool> = BTreeMap::new();
    let u_cone = CustomerCone::build(oracle, table.asn);

    for &prefix in &report.sa {
        let row = &table.rows[&prefix];
        let origin = row.origin();

        // ---- Case 1: splitting (a companion on a customer route) ----
        let split = (trie.covering(prefix).chain(trie.covered(prefix))).any(|(q, other)| {
            q != prefix && other.origin() == origin && oracle.is_down(table.asn, other.next_hop)
        });
        if split {
            out.splitting += 1;
        }

        // ---- Case 2: aggregating (upper bound) ----
        let aggregatable = trie.covering(prefix).any(|(q, _)| q != prefix);
        if aggregatable {
            out.aggregating += 1;
        }

        // ---- Case 3: selective announcing ----
        let subject = responsible_customer(table, oracle, prefix, origin);
        let relevant_providers: BTreeSet<Asn> = oracle
            .providers_of(subject)
            .filter(|&p| p == table.asn || u_cone.contains(p))
            .collect();
        let mut identified = false;
        let mut exporting = false;
        if let Some(rows) = collector.rows.get(&prefix) {
            for crow in rows {
                if let Some(pos) = crow.path.iter().position(|&a| a == subject) {
                    identified = true;
                    if pos > 0 && relevant_providers.contains(&crow.path[pos - 1]) {
                        exporting = true;
                    }
                }
            }
        }
        if identified {
            out.identified += 1;
            let e = customer_seen.entry(subject).or_insert(false);
            *e = *e || exporting;
        }
    }

    out.customers = CustomerExportSplit {
        identified: customer_seen.len(),
        exporting: customer_seen.values().filter(|&&e| e).count(),
    };
    out
}

/// The AS whose export decision explains an SA prefix: the origin when it
/// is multihomed; otherwise the *last common AS* of the best path and the
/// customer path (§5.1.5's single-homed case), falling back to the
/// origin's sole direct provider.
fn responsible_customer(
    table: &BestTable,
    oracle: &AsGraph,
    prefix: Ipv4Prefix,
    origin: Asn,
) -> Asn {
    if oracle.is_multihomed(origin) {
        return origin;
    }
    let best_path: &[Asn] = &table.rows[&prefix].path;
    if let Some(cp) = customer_path(oracle, table.asn, origin) {
        // Walk the customer path from the origin side, skipping origin and
        // provider; the first AS also on the best path is the last common.
        for &a in cp.iter().rev().skip(1) {
            if a == table.asn {
                break;
            }
            if best_path.contains(&a) {
                return a;
            }
        }
        // Fallback: the origin's direct provider on the customer path.
        if cp.len() >= 2 {
            return cp[cp.len() - 2];
        }
    }
    origin
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export_policy::sa_prefixes;
    use crate::view::BestRow;
    use bgp_sim::CollectorRow;
    use bgp_types::Relationship::*;
    use net_topology::NodeInfo;

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

    fn table(rows: Vec<(&str, Vec<u32>)>) -> BestTable {
        BestTable {
            asn: Asn(4),
            rows: rows
                .into_iter()
                .map(|(p, path)| {
                    let path: Vec<Asn> = path.into_iter().map(Asn).collect();
                    (
                        p.parse().unwrap(),
                        BestRow {
                            next_hop: path[0],
                            path,
                        },
                    )
                })
                .collect(),
        }
    }

    fn collector_for(prefix: &str, paths: Vec<Vec<u32>>) -> CollectorView {
        let mut v = CollectorView::default();
        v.rows.insert(
            prefix.parse().unwrap(),
            paths
                .into_iter()
                .map(|p| {
                    let path: Vec<Asn> = p.into_iter().map(Asn).collect();
                    CollectorRow {
                        peer: path[0],
                        path,
                        communities: vec![],
                    }
                })
                .collect(),
        );
        v
    }

    #[test]
    fn splitting_detected_from_covering_customer_companion() {
        let g = fig3_oracle();
        // The /17 specific arrives via the peer (SA); the covering /16
        // arrives via a customer — classic splitting.
        let t = table(vec![
            ("10.0.0.0/17", vec![5, 3, 1]),
            ("10.0.0.0/16", vec![2, 1]),
        ]);
        let r = sa_prefixes(&t, &g);
        assert_eq!(r.sa.len(), 1);
        let collector = collector_for("10.0.0.0/17", vec![vec![5, 3, 1]]);
        let c = causes(&t, &r, &g, &collector);
        assert_eq!(c.splitting, 1);
        assert_eq!(c.aggregating, 1, "covered by the /16 ⇒ upper bound too");
    }

    #[test]
    fn aggregating_does_not_require_same_origin() {
        let g = fig3_oracle();
        // SA /17 covered by B's own unrelated /8 — aggregatable upper
        // bound fires, splitting does not (different origin).
        let t = table(vec![
            ("10.0.0.0/17", vec![5, 3, 1]),
            ("10.0.0.0/8", vec![2]),
        ]);
        let r = sa_prefixes(&t, &g);
        let collector = collector_for("10.0.0.0/17", vec![]);
        let c = causes(&t, &r, &g, &collector);
        assert_eq!(c.splitting, 0);
        assert_eq!(c.aggregating, 1);
    }

    #[test]
    fn pure_selective_announcement_counts_nothing_in_cases_1_2() {
        let g = fig3_oracle();
        let t = table(vec![("10.0.0.0/16", vec![5, 3, 1])]);
        let r = sa_prefixes(&t, &g);
        // Observed path shows origin 1 exporting to provider 3 (3 is left
        // of 1), so the customer exports to SOME direct provider.
        let collector = collector_for("10.0.0.0/16", vec![vec![5, 3, 1]]);
        let c = causes(&t, &r, &g, &collector);
        assert_eq!(c.splitting, 0);
        assert_eq!(c.aggregating, 0);
        assert_eq!(c.identified, 1);
        assert_eq!(c.customers.identified, 1);
        assert_eq!(c.customers.exporting, 1);
        assert!((c.customers.percent_exporting() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn unobserved_prefix_is_unidentified() {
        let g = fig3_oracle();
        let t = table(vec![("10.0.0.0/16", vec![5, 3, 1])]);
        let r = sa_prefixes(&t, &g);
        let collector = collector_for("99.0.0.0/16", vec![vec![5, 3, 1]]);
        let c = causes(&t, &r, &g, &collector);
        assert_eq!(c.identified, 0);
        assert_eq!(c.customers.identified, 0);
        assert_eq!(c.customers.percent_exporting(), 0.0);
    }

    #[test]
    fn responsible_customer_for_single_homed_origin() {
        let mut g = fig3_oracle();
        // Make A single-homed: remove the B–A edge; A's only provider is C.
        g.remove_edge(Asn(2), Asn(1));
        let t = table(vec![("10.0.0.0/16", vec![5, 3, 1])]);
        let subject = responsible_customer(&t, &g, "10.0.0.0/16".parse().unwrap(), Asn(1));
        // Best path [5,3,1]; customer path D→C→A = [4,3,1]; last common
        // (excluding endpoints) is C(3) — C is multihomed (D and E) and its
        // selective choice explains the SA prefix.
        assert_eq!(subject, Asn(3));
    }
}
