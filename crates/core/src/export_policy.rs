//! Export-policy inference to providers (§5.1): the Fig. 4 algorithm.
//!
//! From the viewpoint of a provider `u`, a prefix originated by a (direct
//! or indirect) customer of `u` that `u`'s *best route* reaches via a
//! non-customer next hop is a **selectively-announced (SA) prefix**: the
//! customer (or an intermediate) did not export it up the customer path.
//!
//! * Phase 2 ("is `o` a customer of `u`?") is a customer-cone membership
//!   test, computed once per provider ([`net_topology::CustomerCone`]).
//! * Phase 3 ("is the best route's next hop a customer?") consults the
//!   relationship oracle — which may be the Gao-inferred graph, exactly as
//!   in the paper, or the true graph for calibration.
//!
//! The per-route verdict, [`sa_verdict`], is written once over any
//! [`Relations`] oracle: [`sa_prefixes`] asks it with an eager cone, the
//! query engine with its interned oracle's lazy ones.

use std::collections::{BTreeMap, BTreeSet};

use bgp_types::{Asn, Ipv4Prefix};
use net_topology::{AsGraph, CustomerCone, Relations};

use crate::view::BestTable;

/// The outcome of the Fig. 4 algorithm for one provider.
#[derive(Debug, Clone, Default)]
pub struct SaReport {
    /// The provider whose table was analyzed.
    pub provider: Asn,
    /// Prefixes in the table originated by (direct or indirect) customers.
    pub customer_prefixes: usize,
    /// The SA prefixes among them.
    pub sa: BTreeSet<Ipv4Prefix>,
    /// Per-origin `(customer prefixes, SA prefixes)` breakdown.
    pub per_origin: BTreeMap<Asn, (usize, usize)>,
    /// Origin of every SA prefix (for restriction and scoring).
    pub sa_origin: BTreeMap<Ipv4Prefix, Asn>,
}

impl SaReport {
    /// Percentage of customer prefixes that are SA (Table 5's column).
    pub fn percent(&self) -> f64 {
        if self.customer_prefixes == 0 {
            0.0
        } else {
            100.0 * self.sa.len() as f64 / self.customer_prefixes as f64
        }
    }

    /// Restricts the report to a subset of its SA prefixes (used to run
    /// the §5.1.5 cause analysis on the §5.1.3-verified prefixes only).
    /// Per-origin totals keep their first components (customer prefixes);
    /// the SA counts are recomputed over the kept set.
    pub fn restricted_to(&self, keep: &BTreeSet<Ipv4Prefix>) -> SaReport {
        let sa: BTreeSet<Ipv4Prefix> = self.sa.intersection(keep).copied().collect();
        let sa_origin: BTreeMap<Ipv4Prefix, Asn> = self
            .sa_origin
            .iter()
            .filter(|(p, _)| sa.contains(p))
            .map(|(&p, &o)| (p, o))
            .collect();
        let mut per_origin = self.per_origin.clone();
        for (_, sa_count) in per_origin.values_mut() {
            *sa_count = 0;
        }
        for &origin in sa_origin.values() {
            if let Some(entry) = per_origin.get_mut(&origin) {
                entry.1 += 1;
            }
        }
        SaReport {
            provider: self.provider,
            customer_prefixes: self.customer_prefixes,
            sa,
            per_origin,
            sa_origin,
        }
    }

    /// The origins contributing at least one SA prefix.
    pub fn sa_origins(&self) -> impl Iterator<Item = Asn> + '_ {
        self.per_origin
            .iter()
            .filter(|(_, (_, sa))| *sa > 0)
            .map(|(&o, _)| o)
    }
}

/// Where Fig. 4 files a customer-originated route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaVerdict {
    /// Reached over a non-customer link: selectively announced.
    Sa,
    /// Reached over a customer or sibling link.
    Exported,
}

/// Fig. 4 (§5.1) on one route of `provider`'s table, learned from
/// `next_hop` and originated by `origin`: `None` unless the origin is a
/// customer — `in_cone(origin)` (Phase 2) and not the provider itself;
/// otherwise [`SaVerdict::Exported`] when the next hop is below the
/// provider ([`Relations::is_down`], Phase 3), else [`SaVerdict::Sa`].
pub fn sa_verdict<R: Relations>(
    oracle: &R,
    provider: R::As,
    next_hop: R::As,
    origin: R::As,
    in_cone: impl FnOnce(R::As) -> bool,
) -> Option<SaVerdict> {
    if origin == provider || !in_cone(origin) {
        return None;
    }
    Some(if oracle.is_down(provider, next_hop) {
        SaVerdict::Exported
    } else {
        SaVerdict::Sa
    })
}

/// Runs Fig. 4 over a provider's best-route table.
pub fn sa_prefixes(table: &BestTable, oracle: &AsGraph) -> SaReport {
    let cone = CustomerCone::build(oracle, table.asn);
    let mut report = SaReport {
        provider: table.asn,
        ..Default::default()
    };
    for (&prefix, row) in &table.rows {
        let origin = row.origin();
        let in_cone = |o| cone.contains(o);
        let Some(verdict) = sa_verdict(oracle, table.asn, row.next_hop, origin, in_cone) else {
            continue;
        };
        report.customer_prefixes += 1;
        let entry = report.per_origin.entry(origin).or_insert((0, 0));
        entry.0 += 1;
        if verdict == SaVerdict::Sa {
            report.sa.insert(prefix);
            report.sa_origin.insert(prefix, origin);
            entry.1 += 1;
        }
    }
    report
}

/// One row of Table 6: a customer below several providers at once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CustomerSaRow {
    /// The customer (origin AS).
    pub customer: Asn,
    /// Prefixes of the customer present in every provider's table.
    pub prefixes: usize,
    /// Of those, prefixes that are SA for *all* the providers.
    pub sa_for_all: usize,
}

/// Table 6: for customers that are (direct or indirect) customers of every
/// provider in `tables`, count their prefixes that are SA with respect to
/// all of them. Only customers with at least `min_prefixes` shared
/// prefixes are reported (the paper picks 8 sizable ones).
pub fn common_customer_sa(
    tables: &[&BestTable],
    oracle: &AsGraph,
    min_prefixes: usize,
) -> Vec<CustomerSaRow> {
    assert!(!tables.is_empty());
    let reports: Vec<SaReport> = tables.iter().map(|t| sa_prefixes(t, oracle)).collect();

    // Customers of ALL providers.
    let mut common: BTreeSet<Asn> = CustomerCone::build(oracle, tables[0].asn)
        .members()
        .collect();
    for t in &tables[1..] {
        let cone = CustomerCone::build(oracle, t.asn);
        common.retain(|&a| cone.contains(a));
    }

    let mut rows = Vec::new();
    for customer in common {
        // Prefixes of this customer present in every table.
        let mut shared: BTreeSet<Ipv4Prefix> = tables[0].prefixes_of(customer).collect();
        for t in &tables[1..] {
            let mine: BTreeSet<Ipv4Prefix> = t.prefixes_of(customer).collect();
            shared = shared.intersection(&mine).copied().collect();
        }
        if shared.len() < min_prefixes {
            continue;
        }
        let sa_for_all = shared
            .iter()
            .filter(|p| reports.iter().all(|r| r.sa.contains(p)))
            .count();
        rows.push(CustomerSaRow {
            customer,
            prefixes: shared.len(),
            sa_for_all,
        });
    }
    rows.sort_by_key(|r| (std::cmp::Reverse(r.prefixes), r.customer));
    rows
}

/// Table 8: among origins with at least one SA prefix, how many are
/// multihomed (≥ 2 providers per the oracle)?
pub fn homing_split(report: &SaReport, oracle: &AsGraph) -> (usize, usize) {
    let mut multi = 0;
    let mut single = 0;
    for origin in report.sa_origins() {
        if oracle.is_multihomed(origin) {
            multi += 1;
        } else {
            single += 1;
        }
    }
    (multi, single)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::BestRow;
    use bgp_types::Relationship::*;
    use net_topology::NodeInfo;

    /// Fig. 3 oracle: D(4) top; B(2), C(3) customers of D; E(5) peers D and
    /// provides C; A(1) customer of B and C.
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

    fn table(owner: u32, rows: Vec<(&str, Vec<u32>)>) -> BestTable {
        BestTable {
            asn: Asn(owner),
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

    #[test]
    fn fig3_example_is_an_sa_prefix() {
        // D's best route to A's prefix goes via peer E: SA.
        let g = fig3_oracle();
        let t = table(4, vec![("10.0.0.0/16", vec![5, 3, 1])]);
        let r = sa_prefixes(&t, &g);
        assert_eq!(r.customer_prefixes, 1);
        assert_eq!(r.sa.len(), 1);
        assert!((r.percent() - 100.0).abs() < 1e-9);
        assert_eq!(r.per_origin[&Asn(1)], (1, 1));
    }

    #[test]
    fn customer_route_is_not_sa() {
        let g = fig3_oracle();
        let t = table(4, vec![("10.0.0.0/16", vec![2, 1])]);
        let r = sa_prefixes(&t, &g);
        assert_eq!(r.customer_prefixes, 1);
        assert!(r.sa.is_empty());
        assert_eq!(r.percent(), 0.0);
    }

    #[test]
    fn non_customer_origins_are_ignored() {
        let g = fig3_oracle();
        // E's prefix at D (peer route): E is not D's customer.
        let t = table(4, vec![("20.0.0.0/16", vec![5])]);
        let r = sa_prefixes(&t, &g);
        assert_eq!(r.customer_prefixes, 0);
        assert!(r.sa.is_empty());
    }

    #[test]
    fn mixed_table_counts_correctly() {
        let g = fig3_oracle();
        let t = table(
            4,
            vec![
                ("10.0.0.0/16", vec![5, 3, 1]), // SA (peer route to A)
                ("10.1.0.0/16", vec![2, 1]),    // customer route to A
                ("10.2.0.0/16", vec![3, 1]),    // customer route to A
                ("30.0.0.0/16", vec![2]),       // B's own prefix, customer route
            ],
        );
        let r = sa_prefixes(&t, &g);
        assert_eq!(r.customer_prefixes, 4);
        assert_eq!(r.sa.len(), 1);
        assert!((r.percent() - 25.0).abs() < 1e-9);
        assert_eq!(r.sa_origins().collect::<Vec<_>>(), vec![Asn(1)]);
    }

    #[test]
    fn common_customer_rows() {
        let g = fig3_oracle();
        // Two providers of A: B(2) and C(3) — wait, those are direct.
        // Use D(4) and E(5): A is in both cones (D via B/C, E via C).
        let td = table(
            4,
            vec![("10.0.0.0/16", vec![5, 3, 1]), ("10.1.0.0/16", vec![2, 1])],
        );
        let te = table(
            5,
            vec![("10.0.0.0/16", vec![4, 2, 1]), ("10.1.0.0/16", vec![3, 1])],
        );
        let rows = common_customer_sa(&[&td, &te], &g, 1);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].customer, Asn(1));
        assert_eq!(rows[0].prefixes, 2);
        // 10.0/16: SA for D (via peer 5) AND SA for E (via peer 4) → counted.
        // 10.1/16: customer route for both → not.
        assert_eq!(rows[0].sa_for_all, 1);
        // min_prefixes filter:
        assert!(common_customer_sa(&[&td, &te], &g, 3).is_empty());
    }

    #[test]
    fn homing_split_counts_multihomed_origins() {
        let g = fig3_oracle();
        let t = table(
            4,
            vec![
                ("10.0.0.0/16", vec![5, 3, 1]), // origin A: multihomed (B, C)
                ("40.0.0.0/16", vec![5, 3]), // origin C: single-homed to D? C has providers D and E → multihomed
            ],
        );
        let r = sa_prefixes(&t, &g);
        let (multi, single) = homing_split(&r, &g);
        assert_eq!(multi + single, r.sa_origins().count());
        assert_eq!(multi, 2); // A {B,C}; C {D,E}
        assert_eq!(single, 0);
    }
}
