//! Timed policy churn: the snapshot series behind Figs 6–7.
//!
//! The paper takes daily RouteViews snapshots through March 2002 and hourly
//! snapshots on March 15, then tracks which prefixes stay SA, shift to
//! non-SA, or disappear. Our churn engine reproduces the *mechanisms*
//! operators use between snapshots:
//!
//! * **selective-set re-rolls** — a selective origin re-balances inbound
//!   traffic by announcing to a different provider subset (possibly the
//!   full set, turning its prefixes non-SA);
//! * **link failures with conditional advertisement** — a customer-provider
//!   link drops for one snapshot; the origin's announcements fall back to
//!   the surviving providers (RFC-less but standard practice, §5.1.5).

use std::collections::{BTreeMap, BTreeSet};

use rand::prelude::*;
use rand::rngs::StdRng;

use bgp_types::{Asn, Community, Ipv4Prefix};
use net_topology::AsGraph;

use crate::engine::{SimOutput, Simulation, VantageSpec};
use crate::policy::{GroundTruth, Scope};

/// Churn parameters for one snapshot series.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// RNG seed for the event stream.
    pub seed: u64,
    /// Number of snapshots (31 for the daily series, 24 for the hourly).
    pub steps: usize,
    /// Per-step probability that a selective origin re-rolls its provider
    /// subset. The paper finds ~1/6 of SA prefixes unstable over a month
    /// but stable within a day: ≈0.008/day and ≈0.002/hour land there.
    pub flip_prob: f64,
    /// Per-step probability that a multihomed origin loses one provider
    /// link for the duration of the snapshot.
    pub link_failure_prob: f64,
    /// Label prefix for snapshots ("day" / "hour").
    pub label: &'static str,
}

impl ChurnConfig {
    /// The paper's daily series: 31 snapshots of March 2002.
    pub fn daily(seed: u64) -> Self {
        ChurnConfig {
            seed,
            steps: 31,
            flip_prob: 0.008,
            link_failure_prob: 0.01,
            label: "day",
        }
    }

    /// The paper's hourly series: 24 snapshots of March 15, 2002.
    pub fn hourly(seed: u64) -> Self {
        ChurnConfig {
            seed,
            steps: 24,
            flip_prob: 0.002,
            link_failure_prob: 0.001,
            label: "hour",
        }
    }
}

/// A sequence of simulated snapshots.
#[derive(Debug)]
pub struct SnapshotSeries {
    /// Snapshot label, e.g. `day-07`.
    pub labels: Vec<String>,
    /// The simulated outputs, one per step.
    pub snapshots: Vec<SimOutput>,
}

impl SnapshotSeries {
    /// Structured deltas between consecutive snapshots:
    /// `deltas()[i] == output_delta(&snapshots[i], &snapshots[i+1])`.
    /// This is what diff-aware (incremental) ingestion consumes instead
    /// of re-reading every table.
    pub fn deltas(&self) -> Vec<OutputDelta> {
        self.snapshots
            .windows(2)
            .map(|w| output_delta(&w[0], &w[1]))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Structured snapshot-to-snapshot deltas
// ---------------------------------------------------------------------------

/// A best route as a delta event carries it: the fields a best-route
/// table row stores (next hop + onward path, owner excluded — the same
/// shape as `rpi_core`'s `BestRow`) plus the communities seen on the
/// row, so a follower patching its output in place
/// ([`crate::stream::StreamFrame::apply`]) keeps each row whole.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaRoute {
    /// Neighbor the route was learned from.
    pub next_hop: Asn,
    /// AS path from that neighbor to the origin.
    pub path: Vec<Asn>,
    /// Communities attached to the row.
    pub communities: Vec<Community>,
}

/// What happened to one vantage's best-route table between two
/// consecutive snapshots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VantageDelta {
    /// Prefixes newly present, with their best routes.
    pub announced: Vec<(Ipv4Prefix, DeltaRoute)>,
    /// Prefixes present in both whose best route changed (next hop or
    /// path — a pure community/LOCAL_PREF change is only
    /// [`Self::analyses_dirty`]).
    pub replaced: Vec<(Ipv4Prefix, DeltaRoute)>,
    /// Prefixes no longer present.
    pub withdrawn: Vec<Ipv4Prefix>,
    /// Looking-Glass vantages only: *any* candidate-route change
    /// (including non-best rows, LOCAL_PREF or community edits), i.e. the
    /// view-level analyses (import typicality, community semantics) must
    /// be recomputed even if no best route moved.
    pub analyses_dirty: bool,
}

impl VantageDelta {
    /// `true` when nothing about the vantage changed.
    pub fn is_empty(&self) -> bool {
        self.announced.is_empty()
            && self.replaced.is_empty()
            && self.withdrawn.is_empty()
            && !self.analyses_dirty
    }

    /// Total best-route events carried.
    pub fn route_events(&self) -> usize {
        self.announced.len() + self.replaced.len() + self.withdrawn.len()
    }
}

/// The full structured delta between two consecutive [`SimOutput`]s —
/// what `rpi-query`'s incremental ingest consumes. Per-vantage tables
/// are keyed the way the snapshots expose them: one entry per collector
/// peer (its table as derived from the collector view) and one per
/// Looking-Glass AS (its own best table). Vantages that appear or
/// disappear are listed separately and carry no events — an ingester
/// indexes them from scratch or drops them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OutputDelta {
    /// Per-collector-peer deltas, for peers present in both snapshots.
    /// Rows where the peer originates the prefix itself (no onward path)
    /// are treated as absent, matching best-table extraction.
    pub collector: BTreeMap<Asn, VantageDelta>,
    /// Per-LG deltas, for LG ASes present in both snapshots.
    pub lgs: BTreeMap<Asn, VantageDelta>,
    /// Collector peers only in the newer snapshot.
    pub peers_added: Vec<Asn>,
    /// Collector peers only in the older snapshot.
    pub peers_removed: Vec<Asn>,
    /// LG ASes only in the newer snapshot.
    pub lgs_added: Vec<Asn>,
    /// LG ASes only in the older snapshot.
    pub lgs_removed: Vec<Asn>,
}

impl OutputDelta {
    /// `true` when the snapshots are observationally identical.
    pub fn is_empty(&self) -> bool {
        self.collector.values().all(VantageDelta::is_empty)
            && self.lgs.values().all(VantageDelta::is_empty)
            && self.peers_added.is_empty()
            && self.peers_removed.is_empty()
            && self.lgs_added.is_empty()
            && self.lgs_removed.is_empty()
    }

    /// Total best-route events across all vantages.
    pub fn route_events(&self) -> usize {
        self.collector
            .values()
            .chain(self.lgs.values())
            .map(VantageDelta::route_events)
            .sum()
    }
}

/// Merge-join over two BTreeMaps: visits the union of keys in order with
/// both sides' values (`None` where absent). This is the delta passes'
/// workhorse — no union set is materialized and each map is walked once.
fn merge_join<'a, K: Ord + Copy, V>(
    a: &'a BTreeMap<K, V>,
    b: &'a BTreeMap<K, V>,
    mut visit: impl FnMut(K, Option<&'a V>, Option<&'a V>),
) {
    let mut ia = a.iter().peekable();
    let mut ib = b.iter().peekable();
    loop {
        match (ia.peek(), ib.peek()) {
            (Some(&(&ka, _)), Some(&(&kb, _))) => match ka.cmp(&kb) {
                std::cmp::Ordering::Less => visit(ka, ia.next().map(|(_, v)| v), None),
                std::cmp::Ordering::Greater => visit(kb, None, ib.next().map(|(_, v)| v)),
                std::cmp::Ordering::Equal => {
                    visit(ka, ia.next().map(|(_, v)| v), ib.next().map(|(_, v)| v))
                }
            },
            (Some(&(&ka, _)), None) => visit(ka, ia.next().map(|(_, v)| v), None),
            (None, Some(&(&kb, _))) => visit(kb, None, ib.next().map(|(_, v)| v)),
            (None, None) => break,
        }
    }
}

/// A collector row as a comparable best-table entry: `None` when the
/// peer originates the prefix itself (such rows never enter a best
/// table).
fn collector_entry(row: &crate::engine::CollectorRow) -> Option<DeltaRoute> {
    if row.path.len() < 2 {
        return None;
    }
    Some(DeltaRoute {
        next_hop: row.path[1],
        path: row.path[1..].to_vec(),
        communities: row.communities.clone(),
    })
}

/// Computes the structured delta between two consecutive outputs of one
/// series. O(total rows) comparisons, no simulation: this is the cheap
/// pass that makes diff-aware ingest worthwhile.
pub fn output_delta(prev: &SimOutput, next: &SimOutput) -> OutputDelta {
    let mut delta = OutputDelta::default();

    // --- collector peers ---
    let prev_peers: BTreeSet<Asn> = prev.collector.peers.iter().copied().collect();
    let next_peers: BTreeSet<Asn> = next.collector.peers.iter().copied().collect();
    delta.peers_added = next_peers.difference(&prev_peers).copied().collect();
    delta.peers_removed = prev_peers.difference(&next_peers).copied().collect();
    let surviving: Vec<Asn> = prev_peers.intersection(&next_peers).copied().collect();
    for &p in &surviving {
        delta.collector.insert(p, VantageDelta::default());
    }

    // One merge-join over the two sorted prefix maps updates every
    // peer's delta at once. The overwhelmingly common identical-row-list
    // case (untouched prefix) is one deep equality check; only differing
    // lists pay for per-peer maps.
    let empty: Vec<crate::engine::CollectorRow> = Vec::new();
    let mut by_peer_a: BTreeMap<Asn, &crate::engine::CollectorRow> = BTreeMap::new();
    let mut by_peer_b: BTreeMap<Asn, &crate::engine::CollectorRow> = BTreeMap::new();
    merge_join(
        &prev.collector.rows,
        &next.collector.rows,
        |prefix, a, b| {
            let rows_a = a.unwrap_or(&empty);
            let rows_b = b.unwrap_or(&empty);
            if rows_a == rows_b {
                return; // ~99% of prefixes at realistic churn: no events
            }
            by_peer_a.clear();
            by_peer_b.clear();
            by_peer_a.extend(rows_a.iter().map(|r| (r.peer, r)));
            by_peer_b.extend(rows_b.iter().map(|r| (r.peer, r)));
            let union = by_peer_a
                .keys()
                .chain(by_peer_b.keys().filter(|p| !by_peer_a.contains_key(p)));
            for &peer in union {
                let Some(vd) = delta.collector.get_mut(&peer) else {
                    continue; // added/removed peer: no events
                };
                let row_a = by_peer_a.get(&peer).copied();
                let row_b = by_peer_b.get(&peer).copied();
                if row_a == row_b {
                    continue; // same row contents (the common case)
                }
                let a = row_a.and_then(collector_entry);
                let b = row_b.and_then(collector_entry);
                match (a, b) {
                    (None, Some(route)) => vd.announced.push((prefix, route)),
                    (Some(_), None) => vd.withdrawn.push(prefix),
                    (Some(ra), Some(rb)) if ra != rb => vd.replaced.push((prefix, rb)),
                    _ => {}
                }
            }
        },
    );

    // --- Looking-Glass vantages ---
    let prev_lgs: BTreeSet<Asn> = prev.lgs.keys().copied().collect();
    let next_lgs: BTreeSet<Asn> = next.lgs.keys().copied().collect();
    delta.lgs_added = next_lgs.difference(&prev_lgs).copied().collect();
    delta.lgs_removed = prev_lgs.difference(&next_lgs).copied().collect();
    for asn in prev_lgs.intersection(&next_lgs) {
        let (va, vb) = (&prev.lgs[asn], &next.lgs[asn]);
        let mut vd = VantageDelta::default();
        let lg_best = |routes: &Vec<crate::engine::LgRoute>| -> Option<DeltaRoute> {
            routes
                .iter()
                .find(|r| r.best && !r.path.is_empty())
                .map(|r| DeltaRoute {
                    next_hop: r.neighbor,
                    path: r.path.clone(),
                    communities: r.communities.clone(),
                })
        };
        let mut dirty = false;
        merge_join(&va.rows, &vb.rows, |prefix, rows_a, rows_b| {
            if rows_a == rows_b {
                return;
            }
            // Any candidate-row difference dirties the view-level
            // analyses, even when no best route moved.
            dirty = true;
            let a = rows_a.and_then(&lg_best);
            let b = rows_b.and_then(&lg_best);
            match (a, b) {
                (None, Some(route)) => vd.announced.push((prefix, route)),
                (Some(_), None) => vd.withdrawn.push(prefix),
                (Some(ra), Some(rb)) if ra.next_hop != rb.next_hop || ra.path != rb.path => {
                    vd.replaced.push((prefix, rb))
                }
                _ => {}
            }
        });
        vd.analyses_dirty = dirty;
        delta.lgs.insert(*asn, vd);
    }

    delta
}

/// Runs the churn series. Each step starts from the *previous* step's
/// truth (churn accumulates, as in the real timeline), while link failures
/// are transient (the link returns after its snapshot).
pub fn simulate_series(
    graph: &AsGraph,
    base: &GroundTruth,
    spec: &VantageSpec,
    cfg: &ChurnConfig,
) -> SnapshotSeries {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut truth = base.clone();
    let mut labels = Vec::with_capacity(cfg.steps);
    let mut snapshots = Vec::with_capacity(cfg.steps);

    for step in 0..cfg.steps {
        // --- persistent policy flips ---
        let flippers: Vec<Asn> = truth
            .selective_subset_origins
            .iter()
            .copied()
            .filter(|_| rng.gen_bool(cfg.flip_prob))
            .collect();
        for origin in flippers {
            reroll_selective(&mut truth, graph, origin, &mut rng);
        }

        // --- transient link failures (+ conditional advertisement) ---
        let mut failed_graph;
        let mut step_truth;
        let (g_ref, t_ref): (&AsGraph, &GroundTruth) = {
            let mut failures: Vec<(Asn, Asn)> = Vec::new();
            for &origin in truth.selective_subset_origins.iter() {
                if rng.gen_bool(cfg.link_failure_prob) {
                    let providers: Vec<Asn> = graph.providers_of(origin).collect();
                    if providers.len() >= 2 {
                        if let Some(&victim) = providers.as_slice().choose(&mut rng) {
                            failures.push((origin, victim));
                        }
                    }
                }
            }
            if failures.is_empty() {
                (graph, &truth)
            } else {
                failed_graph = graph.clone();
                step_truth = truth.clone();
                for (origin, provider) in failures {
                    failed_graph.remove_edge(origin, provider);
                    conditional_advertise(&mut step_truth, &failed_graph, origin, provider);
                }
                (&failed_graph, &step_truth)
            }
        };

        let out = Simulation::new(g_ref, t_ref, spec).run();
        labels.push(format!("{}-{:02}", cfg.label, step + 1));
        snapshots.push(out);
    }

    SnapshotSeries { labels, snapshots }
}

/// Re-picks the provider subset of every explicit-scope class of `origin`.
/// The new subset may be the full provider set, turning the class's
/// prefixes non-SA for this and following snapshots.
fn reroll_selective(truth: &mut GroundTruth, graph: &AsGraph, origin: Asn, rng: &mut StdRng) {
    let providers: Vec<Asn> = graph.providers_of(origin).collect();
    if providers.len() < 2 {
        return;
    }
    for class in truth.classes.iter_mut() {
        if class.origin != origin {
            continue;
        }
        if let Scope::Explicit(map) = &mut class.scope {
            // Drop current provider entries, keep customers/peers.
            for p in &providers {
                map.remove(p);
            }
            let keep = rng.gen_range(1..=providers.len());
            let mut shuffled = providers.clone();
            shuffled.shuffle(rng);
            for &p in shuffled.iter().take(keep) {
                map.insert(p, Vec::new());
            }
        }
    }
}

/// Conditional advertisement: after `origin` loses the link to `provider`,
/// any of its classes that now reaches no provider at all falls back to
/// announcing to every surviving provider.
fn conditional_advertise(
    truth: &mut GroundTruth,
    graph: &AsGraph,
    origin: Asn,
    failed_provider: Asn,
) {
    let survivors: Vec<Asn> = graph.providers_of(origin).collect();
    for class in truth.classes.iter_mut() {
        if class.origin != origin {
            continue;
        }
        if let Scope::Explicit(map) = &mut class.scope {
            map.remove(&failed_provider);
            let reaches_any = survivors.iter().any(|p| map.contains_key(p));
            if !reaches_any {
                for &p in &survivors {
                    map.insert(p, Vec::<Community>::new());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyParams;
    use net_topology::{InternetConfig, InternetSize};

    fn world() -> (AsGraph, GroundTruth, VantageSpec) {
        let g = InternetConfig::of_size(InternetSize::Tiny).build();
        let t = GroundTruth::generate(&g, &PolicyParams::default());
        let spec = VantageSpec::paper_like(&g, 8, 4);
        (g, t, spec)
    }

    #[test]
    fn series_has_requested_length_and_labels() {
        let (g, t, spec) = world();
        let cfg = ChurnConfig {
            seed: 5,
            steps: 4,
            flip_prob: 0.5,
            link_failure_prob: 0.2,
            label: "day",
        };
        let series = simulate_series(&g, &t, &spec, &cfg);
        assert_eq!(series.snapshots.len(), 4);
        assert_eq!(series.labels, vec!["day-01", "day-02", "day-03", "day-04"]);
    }

    #[test]
    fn zero_churn_yields_identical_snapshots() {
        let (g, t, spec) = world();
        let cfg = ChurnConfig {
            seed: 5,
            steps: 2,
            flip_prob: 0.0,
            link_failure_prob: 0.0,
            label: "hour",
        };
        let series = simulate_series(&g, &t, &spec, &cfg);
        let a = &series.snapshots[0].collector.rows;
        let b = &series.snapshots[1].collector.rows;
        assert_eq!(a.len(), b.len());
        for (pa, rows_a) in a {
            let rows_b = &b[pa];
            assert_eq!(rows_a, rows_b);
        }
    }

    #[test]
    fn high_churn_changes_some_collector_paths() {
        let (g, t, spec) = world();
        if t.selective_subset_origins.is_empty() {
            // Tiny worlds occasionally have no selective origin; nothing to
            // flip, nothing to assert.
            return;
        }
        let cfg = ChurnConfig {
            seed: 99,
            steps: 6,
            flip_prob: 1.0,
            link_failure_prob: 0.0,
            label: "day",
        };
        let series = simulate_series(&g, &t, &spec, &cfg);
        let first = &series.snapshots[0].collector.rows;
        let changed = series.snapshots.iter().skip(1).any(|s| {
            s.collector
                .rows
                .iter()
                .any(|(p, rows)| first.get(p).map(|base| base != rows).unwrap_or(true))
        });
        assert!(changed, "forced re-rolls must perturb some path");
    }

    #[test]
    fn conditional_advertisement_restores_reachability() {
        let (g, t, spec) = world();
        let cfg = ChurnConfig {
            seed: 123,
            steps: 8,
            flip_prob: 0.3,
            link_failure_prob: 0.5,
            label: "day",
        };
        let series = simulate_series(&g, &t, &spec, &cfg);
        // Reachability at the collector never collapses: every snapshot
        // still carries ≥95% of the prefixes of the first.
        let base = series.snapshots[0].collector.prefix_count();
        for s in &series.snapshots {
            assert!(s.collector.prefix_count() * 100 >= base * 95);
        }
    }

    #[test]
    fn zero_churn_deltas_are_empty() {
        let (g, t, spec) = world();
        let cfg = ChurnConfig {
            seed: 5,
            steps: 3,
            flip_prob: 0.0,
            link_failure_prob: 0.0,
            label: "hour",
        };
        let series = simulate_series(&g, &t, &spec, &cfg);
        for d in series.deltas() {
            assert!(d.is_empty(), "zero churn must delta empty: {d:?}");
            assert_eq!(d.route_events(), 0);
        }
    }

    #[test]
    fn forced_churn_produces_route_events() {
        let (g, t, spec) = world();
        if t.selective_subset_origins.is_empty() {
            return;
        }
        let cfg = ChurnConfig {
            seed: 99,
            steps: 6,
            flip_prob: 1.0,
            link_failure_prob: 0.3,
            label: "day",
        };
        let series = simulate_series(&g, &t, &spec, &cfg);
        let deltas = series.deltas();
        assert!(
            deltas.iter().any(|d| d.route_events() > 0),
            "forced re-rolls must move some best route"
        );
        // Delta events must reconcile the tables: replaying every delta
        // against the first snapshot's per-peer row sets reproduces the
        // last snapshot's.
        for (i, d) in deltas.iter().enumerate() {
            let next = &series.snapshots[i + 1];
            for (&peer, vd) in &d.collector {
                for &(prefix, ref route) in vd.announced.iter().chain(&vd.replaced) {
                    let row = next.collector.rows[&prefix]
                        .iter()
                        .find(|r| r.peer == peer)
                        .expect("announced/replaced rows exist in the next snapshot");
                    assert_eq!(&row.path[1..], route.path.as_slice());
                }
                for &prefix in &vd.withdrawn {
                    let gone = next.collector.rows.get(&prefix).is_none_or(|rows| {
                        !rows.iter().any(|r| r.peer == peer && r.path.len() >= 2)
                    });
                    assert!(gone, "withdrawn prefix still present at {peer}");
                }
            }
        }
    }

    #[test]
    fn vantage_loss_is_reported_not_evented() {
        let (g, t, spec) = world();
        let out = Simulation::new(&g, &t, &spec).run();
        let mut lost = out.clone();
        let &gone_lg = out.lgs.keys().next().expect("world has LGs");
        lost.lgs.remove(&gone_lg);
        let gone_peer = *out
            .collector
            .peers
            .iter()
            .find(|p| !out.lgs.contains_key(p))
            .expect("world has a non-LG peer");
        lost.collector.peers.retain(|&p| p != gone_peer);
        for rows in lost.collector.rows.values_mut() {
            rows.retain(|r| r.peer != gone_peer);
        }

        let d = output_delta(&out, &lost);
        assert_eq!(d.lgs_removed, vec![gone_lg]);
        assert_eq!(d.peers_removed, vec![gone_peer]);
        assert!(!d.lgs.contains_key(&gone_lg));
        assert!(!d.collector.contains_key(&gone_peer));
        assert_eq!(d.route_events(), 0, "survivors saw no change");

        let back = output_delta(&lost, &out);
        assert_eq!(back.lgs_added, vec![gone_lg]);
        assert_eq!(back.peers_added, vec![gone_peer]);
    }

    #[test]
    fn reroll_is_deterministic_under_seed() {
        let (g, t, spec) = world();
        let cfg = ChurnConfig {
            seed: 7,
            steps: 3,
            flip_prob: 0.8,
            link_failure_prob: 0.3,
            label: "day",
        };
        let s1 = simulate_series(&g, &t, &spec, &cfg);
        let s2 = simulate_series(&g, &t, &spec, &cfg);
        for (a, b) in s1.snapshots.iter().zip(&s2.snapshots) {
            assert_eq!(a.collector.rows, b.collector.rows);
        }
    }
}
