//! Import-policy inference (§4.1): is LOCAL_PREF assignment *typical*?
//!
//! From a Looking-Glass view (candidates with LOCAL_PREF visible) and a
//! relationship oracle, each prefix with candidate routes from at least
//! two relationship classes is checked: typical means every cross-class
//! pair orders customer > peer > provider strictly (the paper's definition
//! makes ties atypical). Table 2 reports the per-AS percentage; Table 3
//! repeats the exercise on IRR data via [`irr_typicality`].

use bgp_sim::LgView;
use bgp_types::Asn;
use irr_rpsl::{AutNum, TypicalityStats};
use net_topology::AsGraph;

/// Per-AS typicality result (one row of Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct ImportTypicality {
    /// The AS whose import policy was examined.
    pub asn: Asn,
    /// Prefixes with candidates from ≥ 2 relationship classes.
    pub prefixes_compared: usize,
    /// Of those, prefixes whose LOCAL_PREF ordering is fully typical.
    pub typical: usize,
}

impl ImportTypicality {
    /// Percentage typical (100 when nothing was comparable).
    pub fn percent(&self) -> f64 {
        if self.prefixes_compared == 0 {
            100.0
        } else {
            100.0 * self.typical as f64 / self.prefixes_compared as f64
        }
    }
}

/// Computes Table 2's metric for one Looking-Glass view.
///
/// `oracle` supplies relationships ("the neighbor is my …" from the view
/// owner's perspective); candidates from neighbors with unknown
/// relationships are ignored, as the paper ignores ASes whose
/// relationships could not be inferred.
pub fn lg_typicality(view: &LgView, oracle: &AsGraph) -> ImportTypicality {
    let mut result = ImportTypicality {
        asn: view.asn,
        prefixes_compared: 0,
        typical: 0,
    };
    for routes in view.rows.values() {
        // (rank, lp) for each candidate with a known relationship.
        let entries: Vec<(u8, u32)> = routes
            .iter()
            .filter_map(|r| {
                oracle
                    .rel(view.asn, r.neighbor)
                    .map(|rel| (rel.typical_pref_rank(), r.local_pref))
            })
            .collect();
        let mut cross = false;
        let mut ok = true;
        for i in 0..entries.len() {
            for j in (i + 1)..entries.len() {
                let (ra, la) = entries[i];
                let (rb, lb) = entries[j];
                if ra == rb {
                    continue;
                }
                cross = true;
                let (hi, lo) = if ra > rb { (la, lb) } else { (lb, la) };
                // Typical requires the better class to be STRICTLY higher
                // (the paper counts "not lower" in the wrong direction as
                // atypical).
                if hi <= lo {
                    ok = false;
                }
            }
        }
        if cross {
            result.prefixes_compared += 1;
            if ok {
                result.typical += 1;
            }
        }
    }
    result
}

/// Table 3's pipeline: filter an IRR object list the way the paper does
/// (updated in `year`, at least `min_neighbors` usable neighbors) and
/// compute typicality from the registered prefs.
///
/// Returns `(asn, stats)` for every object that survives the filters.
pub fn irr_typicality<'a, I>(
    objects: I,
    oracle: &AsGraph,
    year: u32,
    min_neighbors: usize,
) -> Vec<(Asn, TypicalityStats)>
where
    I: IntoIterator<Item = &'a AutNum>,
{
    let mut out = Vec::new();
    for obj in objects {
        if !obj.updated_in(year) {
            continue;
        }
        let stats = irr_rpsl::typicality(obj, |n| oracle.rel(obj.asn, n));
        if stats.usable_neighbors >= min_neighbors {
            out.push((obj.asn, stats));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_sim::LgRoute;
    use bgp_types::Relationship;
    use net_topology::NodeInfo;
    use std::collections::BTreeMap;

    fn oracle() -> AsGraph {
        let mut g = AsGraph::new();
        for a in [4, 2, 3, 5] {
            g.add_as(Asn(a), NodeInfo::default());
        }
        g.add_edge(Asn(4), Asn(2), Relationship::Customer).unwrap();
        g.add_edge(Asn(4), Asn(3), Relationship::Customer).unwrap();
        g.add_edge(Asn(4), Asn(5), Relationship::Peer).unwrap();
        g
    }

    fn route(n: u32, lp: u32) -> LgRoute {
        LgRoute {
            neighbor: Asn(n),
            path: vec![Asn(n), Asn(99)],
            local_pref: lp,
            communities: vec![],
            best: false,
            truth_rel: None,
        }
    }

    fn view(rows: Vec<(&str, Vec<LgRoute>)>) -> LgView {
        LgView {
            asn: Asn(4),
            rows: rows
                .into_iter()
                .map(|(p, rs)| (p.parse().unwrap(), rs))
                .collect::<BTreeMap<_, _>>(),
        }
    }

    #[test]
    fn typical_prefix_counts_as_typical() {
        let v = view(vec![("10.0.0.0/16", vec![route(2, 120), route(5, 90)])]);
        let t = lg_typicality(&v, &oracle());
        assert_eq!(t.prefixes_compared, 1);
        assert_eq!(t.typical, 1);
        assert_eq!(t.percent(), 100.0);
    }

    #[test]
    fn atypical_when_peer_not_lower() {
        // Equal LOCAL_PREF across classes is atypical per the paper.
        let v = view(vec![
            ("10.0.0.0/16", vec![route(2, 100), route(5, 100)]),
            ("11.0.0.0/16", vec![route(2, 90), route(5, 120)]),
            ("12.0.0.0/16", vec![route(2, 120), route(5, 100)]),
        ]);
        let t = lg_typicality(&v, &oracle());
        assert_eq!(t.prefixes_compared, 3);
        assert_eq!(t.typical, 1);
        assert!((t.percent() - 33.333).abs() < 0.01);
    }

    #[test]
    fn same_class_only_prefixes_are_not_compared() {
        let v = view(vec![(
            "10.0.0.0/16",
            vec![route(2, 120), route(3, 110)], // two customers
        )]);
        let t = lg_typicality(&v, &oracle());
        assert_eq!(t.prefixes_compared, 0);
        assert_eq!(t.percent(), 100.0);
    }

    #[test]
    fn unknown_relationships_are_skipped() {
        let v = view(vec![(
            "10.0.0.0/16",
            vec![route(2, 120), route(77, 500)], // 77 unknown to oracle
        )]);
        let t = lg_typicality(&v, &oracle());
        assert_eq!(t.prefixes_compared, 0);
    }

    #[test]
    fn irr_pipeline_filters_by_year_and_size() {
        use irr_rpsl::{Filter, ImportRule};
        let g = oracle();
        let mk = |asn: u32, changed: u32, neighbors: Vec<(u32, u32)>| AutNum {
            asn: Asn(asn),
            as_name: "X".into(),
            descr: String::new(),
            imports: neighbors
                .into_iter()
                .map(|(n, p)| ImportRule {
                    from: Asn(n),
                    pref: Some(p),
                    accept: Filter::Any,
                })
                .collect(),
            exports: Vec::new(),
            changed,
            source: "SYNTH".into(),
        };
        let objects = [
            mk(4, 20020505, vec![(2, 880), (5, 910)]), // fresh, 2 usable
            mk(4, 20010505, vec![(2, 880), (5, 910)]), // stale
            mk(4, 20020505, vec![(2, 880)]),           // too few neighbors
        ];
        let rows = irr_typicality(objects.iter(), &g, 2002, 2);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1.pairs, 1);
        assert_eq!(rows[0].1.typical, 1);
    }
}
