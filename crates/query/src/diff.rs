//! Snapshot-to-snapshot deltas: the observatory's answer to "what changed
//! between *t* and *t+1*?" — new and vanished SA prefixes, flipped
//! relationships, and best-route churn per vantage (the signals behind
//! the paper's Figs. 6–7 persistence study, served as a query).
//!
//! The shared trie is the delta: consecutive snapshots of a series hold
//! most of their tables, SA caches and their oracle as the same `Arc`s,
//! and `SnapshotDiff::between` compares only what they do not — route
//! churn is [`bgp_types::CowTrie::diff`] per vantage, SA presence
//! [`Snapshot::sa_changes`] less the re-originations. `diff` is the one
//! step of the engine's history walk over `[from, to]`
//! ([`crate::engine::QueryEngine::walk`]); the `hijacks` and `uptime`
//! folds take the same step filtered to origins, and skip a table whose
//! origin stamp did not move, where `diff` counts path changes too, so
//! it walks every table that is not shared. Pointer equality is a
//! shortcut for "equal" and nothing else; two snapshots that share no
//! structure diff to the same answer.

use bgp_types::{Asn, Ipv4Prefix, Relationship};
use net_topology::Relations;

use crate::intern::WorldInterner;
use crate::snapshot::Snapshot;

/// Best-route churn at one vantage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VantageChurn {
    /// The vantage.
    pub vantage: Asn,
    /// Prefixes present in `to` but not `from`.
    pub added: usize,
    /// Prefixes present in `from` but not `to`.
    pub removed: usize,
    /// Prefixes present in both whose best route (next hop or path)
    /// changed.
    pub changed: usize,
}

/// One relationship edge that differs between the snapshots' oracles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationshipFlip {
    /// First endpoint (the perspective AS).
    pub a: Asn,
    /// Second endpoint.
    pub b: Asn,
    /// `b is a's …` in the `from` snapshot (`None` = edge absent).
    pub before: Option<Relationship>,
    /// `b is a's …` in the `to` snapshot.
    pub after: Option<Relationship>,
}

/// Everything that changed between two snapshots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotDiff {
    /// Label of the `from` snapshot.
    pub from_label: String,
    /// Label of the `to` snapshot.
    pub to_label: String,
    /// `(vantage, prefix)` pairs that became selectively announced.
    pub new_sa: Vec<(Asn, Ipv4Prefix)>,
    /// `(vantage, prefix)` pairs that stopped being selectively announced.
    pub gone_sa: Vec<(Asn, Ipv4Prefix)>,
    /// Oracle relationship changes (each unordered pair reported once).
    pub flips: Vec<RelationshipFlip>,
    /// Per-vantage best-route churn, for vantages present in either
    /// snapshot (a vantage missing from one side counts all its routes as
    /// added/removed).
    pub churn: Vec<VantageChurn>,
}

impl SnapshotDiff {
    /// `true` when the snapshots are observationally identical.
    pub fn is_empty(&self) -> bool {
        self.new_sa.is_empty()
            && self.gone_sa.is_empty()
            && self.flips.is_empty()
            && self
                .churn
                .iter()
                .all(|c| c.added == 0 && c.removed == 0 && c.changed == 0)
    }

    /// Total churned routes across vantages.
    pub fn churned_routes(&self) -> usize {
        self.churn
            .iter()
            .map(|c| c.added + c.removed + c.changed)
            .sum()
    }

    /// Computes the delta. Symbols are shared across the engine's
    /// snapshots, so all comparisons here are integer comparisons — and
    /// only over what the two snapshots do not physically share: a
    /// vantage table, SA cache or oracle that is the same `Arc` on both
    /// sides is skipped — a patched table keeps its SA cache's `Arc`
    /// while no filing moved — and within a table
    /// [`Snapshot::route_changes`] skips every shared subtrie. COW sharing is transitive along a
    /// chain, so a non-adjacent pair costs the spines touched in between.
    pub(crate) fn between(interner: &WorldInterner, a: &Snapshot, b: &Snapshot) -> SnapshotDiff {
        let mut diff = SnapshotDiff {
            from_label: a.label.clone(),
            to_label: b.label.clone(),
            ..Default::default()
        };

        // --- relationship flips (each unordered pair once); equal
        // oracles — one `Arc` along a whole series — have none ---
        if a.oracle != b.oracle {
            let (oa, ob) = (&a.oracle, &b.oracle);
            let mut edges: Vec<_> = (oa.edges().chain(ob.edges()))
                .filter(|(x, y, _)| x <= y)
                .map(|(x, y, _)| (x, y))
                .collect();
            edges.sort_unstable();
            edges.dedup();
            for (x, y) in edges {
                let (before, after) = (oa.rel(x, y), ob.rel(x, y));
                if before != after {
                    diff.flips.push(RelationshipFlip {
                        a: interner.resolve_asn(x),
                        b: interner.resolve_asn(y),
                        before,
                        after,
                    });
                }
            }
        }

        // --- SA presence and best-route churn, per vantage of either
        // snapshot ---
        let mut vantages: Vec<_> = a.vantages_with(b).collect();
        vantages.sort_unstable();
        for v in vantages {
            let vantage = interner.resolve_asn(v);
            b.sa_changes(a, v, |p, old, new| {
                let side = match (old, new) {
                    (None, _) => &mut diff.new_sa,
                    (_, None) => &mut diff.gone_sa,
                    _ => return,
                };
                side.push((vantage, p));
            });
            let (mut added, mut removed, mut changed) = (0, 0, 0);
            b.route_changes(a, v, |_, old, new| match (old, new) {
                (None, _) => added += 1,
                (_, None) => removed += 1,
                _ => changed += 1,
            });
            diff.churn.push(VantageChurn {
                vantage,
                added,
                removed,
                changed,
            });
        }
        diff.new_sa.sort_unstable();
        diff.gone_sa.sort_unstable();
        diff
    }
}
