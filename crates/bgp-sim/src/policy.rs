//! Ground-truth routing policies.
//!
//! Everything the paper tries to *infer* is generated here as explicit
//! configuration, so every inference result can be scored against truth.

use std::collections::{BTreeMap, BTreeSet};

use rand::prelude::*;
use rand::rngs::StdRng;

use bgp_types::{Asn, Community, Ipv4Prefix, Relationship};
use net_topology::AsGraph;

/// Import policy of one AS: how LOCAL_PREF is assigned (§2.2.1).
///
/// Resolution order mirrors router configuration: a prefix-based route-map
/// match wins over a neighbor-based one, which wins over the class default.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImportPolicy {
    /// Default LOCAL_PREF for customer routes (siblings share it).
    pub customer_pref: u32,
    /// Default LOCAL_PREF for peer routes.
    pub peer_pref: u32,
    /// Default LOCAL_PREF for provider routes.
    pub provider_pref: u32,
    /// Per-neighbor overrides (the "atypical" assignments of §4.1).
    pub neighbor_pref: BTreeMap<Asn, u32>,
    /// Per-prefix overrides (the prefix-based assignments of §4.2).
    pub prefix_pref: BTreeMap<Ipv4Prefix, u32>,
}

impl ImportPolicy {
    /// The LOCAL_PREF this policy assigns to a route for `prefix` learned
    /// from `neighbor` whose relationship (from our view) is `rel`.
    pub fn pref_for(&self, neighbor: Asn, rel: Relationship, prefix: Ipv4Prefix) -> u32 {
        if let Some(&lp) = self.prefix_pref.get(&prefix) {
            return lp;
        }
        if let Some(&lp) = self.neighbor_pref.get(&neighbor) {
            return lp;
        }
        self.base_pref(rel)
    }

    /// The class default for a relationship.
    pub fn base_pref(&self, rel: Relationship) -> u32 {
        match rel {
            Relationship::Customer | Relationship::Sibling => self.customer_pref,
            Relationship::Peer => self.peer_pref,
            Relationship::Provider => self.provider_pref,
        }
    }
}

/// The community-tagging plan of one AS (Appendix, Table 11): ingress
/// routes are tagged `self:code` where the code's *range* encodes the
/// neighbor class, and a dedicated action code lets customers say "do not
/// announce this route to your providers/peers".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommunityPlan {
    /// Codes used for customer-learned routes (e.g. `[4000]`).
    pub customer_codes: Vec<u16>,
    /// Codes used for peer-learned routes (e.g. `[1000, 1010, 1020]`).
    pub peer_codes: Vec<u16>,
    /// Codes used for provider-learned routes (e.g. `[2000, 2010, 2020]`).
    pub provider_codes: Vec<u16>,
    /// Action code: a customer route tagged `self:no_upstream_code` is not
    /// exported to providers or peers (the §5.1.5 Case-3 mechanism).
    pub no_upstream_code: u16,
}

impl CommunityPlan {
    /// The conventional plan the generator hands out.
    pub fn standard() -> Self {
        CommunityPlan {
            customer_codes: vec![4000],
            peer_codes: vec![1000, 1010, 1020],
            provider_codes: vec![2000, 2010, 2020],
            no_upstream_code: 9000,
        }
    }

    /// The ingress tag `owner:code` for a route learned from `neighbor`
    /// with relationship `rel`. Multiple codes per class are spread across
    /// neighbors deterministically (Table 11 shows several peer codes).
    pub fn ingress_tag(&self, owner: Asn, neighbor: Asn, rel: Relationship) -> Option<Community> {
        let codes = match rel {
            Relationship::Customer | Relationship::Sibling => &self.customer_codes,
            Relationship::Peer => &self.peer_codes,
            Relationship::Provider => &self.provider_codes,
        };
        if codes.is_empty() {
            return None;
        }
        let code = codes[(neighbor.0 as usize) % codes.len()];
        Community::tagged(owner, code)
    }

    /// The action community a customer attaches to ask `provider` not to
    /// re-export upstream.
    pub fn no_upstream_tag(&self, provider: Asn) -> Option<Community> {
        Community::tagged(provider, self.no_upstream_code)
    }

    /// Classifies a code value back to a neighbor class, if it falls in one
    /// of the plan's ranges. This is ground truth; the *inference* of these
    /// semantics from prefix counts lives in `rpi-core::community`.
    pub fn classify_code(&self, code: u16) -> Option<Relationship> {
        if self.customer_codes.contains(&code) {
            Some(Relationship::Customer)
        } else if self.peer_codes.contains(&code) {
            Some(Relationship::Peer)
        } else if self.provider_codes.contains(&code) {
            Some(Relationship::Provider)
        } else {
            None
        }
    }
}

/// Export policy of one AS, beyond the standard valley-free rules (which
/// the engine always enforces via [`Relationship::exportable_to`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExportPolicy {
    /// §5.1.5 Case 2: this provider announces only its own aggregate for
    /// address space it allocated to customers — customer routes for
    /// PA-from-us prefixes are suppressed entirely.
    pub aggregates_pa_customers: bool,
    /// A multihomed transit applying *selective announcement as an
    /// intermediate*: customer routes are re-exported only to this provider
    /// subset (`None` = all providers, the default).
    pub reexport_customers_to: Option<BTreeSet<Asn>>,
}

/// Complete policy state of one AS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsPolicy {
    /// LOCAL_PREF assignment.
    pub import: ImportPolicy,
    /// Export tweaks.
    pub export: ExportPolicy,
    /// Community tagging plan (`None` for ASes that do not tag).
    pub plan: Option<CommunityPlan>,
}

/// Who receives an origination, and with what extra communities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Scope {
    /// Announce to every neighbor (customers, peers and providers alike).
    All,
    /// Announce exactly to the listed neighbors; the attached vector holds
    /// extra communities for that neighbor (e.g. a no-upstream tag).
    Explicit(BTreeMap<Asn, Vec<Community>>),
}

impl Scope {
    /// Does this scope announce to `neighbor`, and with which extras?
    pub fn announces_to(&self, neighbor: Asn) -> Option<&[Community]> {
        match self {
            Scope::All => Some(&[]),
            Scope::Explicit(map) => map.get(&neighbor).map(Vec::as_slice),
        }
    }
}

/// A maximal set of prefixes sharing one origin and one export treatment —
/// the unit the engine propagates (ground-truth policy atoms).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnouncementClass {
    /// Stable id (index into `GroundTruth::classes`).
    pub id: u32,
    /// Originating AS.
    pub origin: Asn,
    /// The prefixes of the class.
    pub prefixes: Vec<Ipv4Prefix>,
    /// Who the origin announces them to.
    pub scope: Scope,
}

/// Every knob of the policy generator. All fractions are probabilities in
/// `[0, 1]`; every experiment uses [`PolicyParams::default`]'s values with its
/// own seed and override ASes (`rpi_core::Experiment::with_world`).
#[derive(Debug, Clone)]
pub struct PolicyParams {
    /// RNG seed (independent of the topology seed).
    pub seed: u64,
    /// Customer-route LOCAL_PREF band `(lo, hi)` (per-AS jitter).
    pub customer_band: (u32, u32),
    /// Peer-route band.
    pub peer_band: (u32, u32),
    /// Provider-route band.
    pub provider_band: (u32, u32),
    /// Fraction of neighbors given an out-of-band ("atypical") pref.
    pub atypical_neighbor_frac: f64,
    /// ASes that apply prefix-based overrides (typically the Looking-Glass
    /// vantage ASes, so the effect is observable as in Fig 2).
    pub override_ases: Vec<Asn>,
    /// How many prefix-based overrides each of those ASes gets.
    pub overrides_per_as: usize,
    /// Fraction of multihomed origins doing subset-style selective
    /// announcement (§5.1.5 Case 3, the dominant cause).
    pub selective_frac: f64,
    /// Of the selective origins, the fraction using a no-upstream community
    /// tag instead of announcing to a provider subset.
    pub tag_frac: f64,
    /// Fraction of the selective origin's prefixes that are selectively
    /// announced (the rest go to everyone).
    pub selective_prefix_frac: f64,
    /// Fraction of multihomed origins splitting a prefix (Case 1).
    pub split_frac: f64,
    /// Fraction of transit ASes aggregating PA customer space (Case 2).
    pub aggregator_frac: f64,
    /// Fraction of multihomed *transit* ASes re-exporting customers to a
    /// provider subset (selective announcement by intermediates).
    pub selective_transit_frac: f64,
    /// Fraction of origins with peers that withhold some prefixes from
    /// some peers (Table 10's minority).
    pub peer_partial_frac: f64,
}

impl Default for PolicyParams {
    fn default() -> Self {
        PolicyParams {
            seed: 0x1990_0815,
            customer_band: (110, 130),
            peer_band: (90, 105),
            provider_band: (60, 85),
            atypical_neighbor_frac: 0.01,
            override_ases: Vec::new(),
            overrides_per_as: 20,
            selective_frac: 0.30,
            tag_frac: 0.25,
            selective_prefix_frac: 0.5,
            split_frac: 0.02,
            aggregator_frac: 0.04,
            selective_transit_frac: 0.02,
            peer_partial_frac: 0.10,
        }
    }
}

/// The full generated ground truth: per-AS policies, the global list of
/// announcement classes, and bookkeeping that lets analyses score
/// themselves.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Per-AS policies.
    pub policies: BTreeMap<Asn, AsPolicy>,
    /// All announcement classes.
    pub classes: Vec<AnnouncementClass>,
    /// Origins doing subset-style selective announcement.
    pub selective_subset_origins: BTreeSet<Asn>,
    /// Origins doing tag-style selective announcement.
    pub tag_origins: BTreeSet<Asn>,
    /// Splitters: origin → (original prefix, its announced specifics).
    pub splitters: BTreeMap<Asn, Vec<(Ipv4Prefix, Vec<Ipv4Prefix>)>>,
    /// Providers aggregating PA customer space.
    pub aggregators: BTreeSet<Asn>,
    /// Multihomed transits re-exporting customers selectively.
    pub selective_transits: BTreeSet<Asn>,
    /// Origins withholding some prefixes from some peers.
    pub partial_peer_origins: BTreeSet<Asn>,
    /// AS → neighbors with atypical LOCAL_PREF.
    pub atypical_neighbors: BTreeMap<Asn, BTreeSet<Asn>>,
}

impl GroundTruth {
    /// The policy of `asn` (generated for every AS in the graph).
    pub fn policy(&self, asn: Asn) -> &AsPolicy {
        self.policies
            .get(&asn)
            .expect("policy generated for every AS in the graph")
    }

    /// Every origin practicing any form of selective announcement
    /// (subset or tag style) — the ground truth behind Tables 5–7.
    pub fn all_selective_origins(&self) -> BTreeSet<Asn> {
        self.selective_subset_origins
            .union(&self.tag_origins)
            .copied()
            .collect()
    }

    /// Generates ground truth for `graph`.
    pub fn generate(graph: &AsGraph, params: &PolicyParams) -> GroundTruth {
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut truth = GroundTruth {
            policies: BTreeMap::new(),
            classes: Vec::new(),
            selective_subset_origins: BTreeSet::new(),
            tag_origins: BTreeSet::new(),
            splitters: BTreeMap::new(),
            aggregators: BTreeSet::new(),
            selective_transits: BTreeSet::new(),
            partial_peer_origins: BTreeSet::new(),
            atypical_neighbors: BTreeMap::new(),
        };

        // ---- per-AS policies ----
        for a in graph.ases() {
            let customer_pref = rng.gen_range(params.customer_band.0..=params.customer_band.1);
            let peer_pref = rng.gen_range(params.peer_band.0..=params.peer_band.1);
            let provider_pref = rng.gen_range(params.provider_band.0..=params.provider_band.1);

            let mut neighbor_pref = BTreeMap::new();
            for (n, rel) in graph.neighbors(a) {
                // Real configurations assign a per-neighbor value within
                // the class band (route-maps are per neighbor); the class
                // defaults above serve as documentation and fallback.
                let band = match rel {
                    Relationship::Customer | Relationship::Sibling => params.customer_band,
                    Relationship::Peer => params.peer_band,
                    Relationship::Provider => params.provider_band,
                };
                neighbor_pref.insert(n, rng.gen_range(band.0..=band.1));
                if rng.gen_bool(params.atypical_neighbor_frac) {
                    // Atypical: elevate a peer/provider into the customer
                    // band, or demote a customer into the provider band.
                    // Blast radius control mirrors operator reality: nobody
                    // de-preferences a large customer (it would blackhole
                    // the customer's whole cone from every upstream), so
                    // demotions only hit stub customers, and elevations only
                    // happen at ASes with no providers to starve (tier-1s)
                    // or no customers to re-export for (stubs).
                    let a_has_providers = graph.providers_of(a).next().is_some();
                    let a_has_customers = graph.customers_of(a).next().is_some();
                    let n_is_stub = graph.customers_of(n).next().is_none();
                    let lp = match rel {
                        Relationship::Peer | Relationship::Provider
                            if !a_has_providers || !a_has_customers =>
                        {
                            Some(rng.gen_range(params.customer_band.0..=params.customer_band.1))
                        }
                        Relationship::Customer | Relationship::Sibling if n_is_stub => {
                            Some(rng.gen_range(params.provider_band.0..=params.provider_band.1))
                        }
                        _ => None,
                    };
                    if let Some(lp) = lp {
                        neighbor_pref.insert(n, lp);
                        truth.atypical_neighbors.entry(a).or_default().insert(n);
                    }
                }
            }

            let is_transit = graph.customers_of(a).next().is_some();
            let plan = if is_transit {
                Some(CommunityPlan::standard())
            } else {
                None
            };

            let mut export = ExportPolicy::default();
            if is_transit && rng.gen_bool(params.aggregator_frac) {
                export.aggregates_pa_customers = true;
                truth.aggregators.insert(a);
            }
            let providers: Vec<Asn> = graph.providers_of(a).collect();
            if is_transit && providers.len() >= 2 && rng.gen_bool(params.selective_transit_frac) {
                let keep = rng.gen_range(1..providers.len());
                let mut subset: Vec<Asn> = providers.clone();
                subset.shuffle(&mut rng);
                subset.truncate(keep);
                export.reexport_customers_to = Some(subset.into_iter().collect());
                truth.selective_transits.insert(a);
            }

            truth.policies.insert(
                a,
                AsPolicy {
                    import: ImportPolicy {
                        customer_pref,
                        peer_pref,
                        provider_pref,
                        neighbor_pref,
                        prefix_pref: BTreeMap::new(),
                    },
                    export,
                    plan,
                },
            );
        }

        // ---- prefix-based overrides at the chosen (vantage) ASes ----
        let all_prefixes: Vec<Ipv4Prefix> = graph.all_prefixes().map(|(_, r)| r.prefix).collect();
        let mut override_prefixes: BTreeSet<Ipv4Prefix> = BTreeSet::new();
        for &a in &params.override_ases {
            if !graph.contains(a) {
                continue;
            }
            let pol = truth.policies.get_mut(&a).expect("generated above");
            for _ in 0..params.overrides_per_as {
                if let Some(&p) = all_prefixes.as_slice().choose(&mut rng) {
                    // Out-of-band value: above every band ("TE pin-up") or
                    // below every band ("depref"), half/half.
                    let lp = if rng.gen_bool(0.5) {
                        params.customer_band.1 + 15
                    } else {
                        params.provider_band.0.saturating_sub(15)
                    };
                    pol.import.prefix_pref.insert(p, lp);
                    override_prefixes.insert(p);
                }
            }
        }

        // ---- announcement classes per origin ----
        let mut next_id: u32 = 0;
        let mut push_class =
            |truth: &mut GroundTruth, origin: Asn, prefixes: Vec<Ipv4Prefix>, scope: Scope| {
                if prefixes.is_empty() {
                    return;
                }
                truth.classes.push(AnnouncementClass {
                    id: next_id,
                    origin,
                    prefixes,
                    scope,
                });
                next_id += 1;
            };

        for origin in graph.ases() {
            let records = &graph.info(origin).expect("node exists").prefixes;
            if records.is_empty() {
                continue;
            }
            let mut own: Vec<Ipv4Prefix> = records.iter().map(|r| r.prefix).collect();
            let providers: Vec<Asn> = graph.providers_of(origin).collect();
            let peers: Vec<Asn> = graph.peers_of(origin).collect();
            let multihomed = providers.len() >= 2;

            // Neighbors that always receive originations.
            let always: Vec<Asn> = graph
                .neighbors(origin)
                .filter(|(_, r)| matches!(r, Relationship::Customer | Relationship::Sibling))
                .map(|(n, _)| n)
                .collect();

            let explicit_scope =
                |provs: &[Asn], peers: &[Asn], extra: &BTreeMap<Asn, Vec<Community>>| {
                    let mut map: BTreeMap<Asn, Vec<Community>> = BTreeMap::new();
                    for &n in always.iter().chain(peers).chain(provs) {
                        map.insert(n, Vec::new());
                    }
                    for (n, cs) in extra {
                        map.insert(*n, cs.clone());
                    }
                    Scope::Explicit(map)
                };

            // Case 1 — prefix splitting (claims one prefix + its halves).
            if multihomed && rng.gen_bool(params.split_frac) {
                if let Some(pos) = own.iter().position(|p| p.len() <= 23 && p.len() >= 8) {
                    let original = own.remove(pos);
                    let (lo, hi) = original.split().expect("len ≤ 23 splits");
                    let mut provs = providers.clone();
                    provs.shuffle(&mut rng);
                    let cut = rng.gen_range(1..provs.len());
                    let (s1, s2) = provs.split_at(cut);
                    push_class(
                        &mut truth,
                        origin,
                        vec![original],
                        explicit_scope(s1, &peers, &BTreeMap::new()),
                    );
                    push_class(
                        &mut truth,
                        origin,
                        vec![lo, hi],
                        explicit_scope(s2, &peers, &BTreeMap::new()),
                    );
                    truth
                        .splitters
                        .entry(origin)
                        .or_default()
                        .push((original, vec![lo, hi]));
                }
            }

            // Case 3 — selective announcement of a prefix subset. At least
            // one prefix always stays announced everywhere: operators
            // shift *part* of their space for traffic engineering (the
            // paper's Table 6 customers keep 3–83 % of prefixes on the
            // customer path), and a wholly-shifted origin would leave no
            // footprint for §5.1.3's active-path verification.
            let mut did_selective = false;
            if multihomed && own.len() >= 2 && rng.gen_bool(params.selective_frac) {
                did_selective = true;
                own.shuffle(&mut rng);
                let k = ((own.len() as f64) * params.selective_prefix_frac).ceil() as usize;
                let k = k.clamp(1, own.len() - 1);
                let selective: Vec<Ipv4Prefix> = own.drain(..k).collect();
                let mut provs = providers.clone();
                provs.shuffle(&mut rng);
                let keep = rng.gen_range(1..provs.len());

                if rng.gen_bool(params.tag_frac) {
                    // Tag style: announce to all providers, but providers
                    // outside the subset get a no-upstream action tag.
                    let plan = CommunityPlan::standard();
                    let mut extra: BTreeMap<Asn, Vec<Community>> = BTreeMap::new();
                    for &p in provs.iter().skip(keep) {
                        if let Some(tag) = plan.no_upstream_tag(p) {
                            extra.insert(p, vec![tag]);
                        }
                    }
                    push_class(
                        &mut truth,
                        origin,
                        selective,
                        explicit_scope(&provs, &peers, &extra),
                    );
                    truth.tag_origins.insert(origin);
                } else {
                    push_class(
                        &mut truth,
                        origin,
                        selective,
                        explicit_scope(&provs[..keep], &peers, &BTreeMap::new()),
                    );
                    truth.selective_subset_origins.insert(origin);
                }
            }

            // Table 10's minority — withhold some prefixes from some peers.
            if !did_selective
                && !peers.is_empty()
                && own.len() >= 2
                && rng.gen_bool(params.peer_partial_frac)
            {
                own.shuffle(&mut rng);
                let k = (own.len() / 2).max(1);
                let withheld: Vec<Ipv4Prefix> = own.drain(..k).collect();
                let excluded = rng.gen_range(1..=peers.len());
                let mut ps = peers.clone();
                ps.shuffle(&mut rng);
                let open_peers: Vec<Asn> = ps[excluded..].to_vec();
                push_class(
                    &mut truth,
                    origin,
                    withheld,
                    explicit_scope(&providers, &open_peers, &BTreeMap::new()),
                );
                truth.partial_peer_origins.insert(origin);
            }

            // Everything left: announced to everyone; override prefixes get
            // singleton classes so the engine can treat them per-prefix.
            let (pinned, rest): (Vec<Ipv4Prefix>, Vec<Ipv4Prefix>) =
                own.into_iter().partition(|p| override_prefixes.contains(p));
            for p in pinned {
                push_class(&mut truth, origin, vec![p], Scope::All);
            }
            push_class(&mut truth, origin, rest, Scope::All);
        }

        truth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use net_topology::{InternetConfig, InternetSize};

    fn small_world() -> (AsGraph, GroundTruth) {
        let g = InternetConfig::of_size(InternetSize::Small).build();
        let params = PolicyParams {
            override_ases: vec![Asn(1), Asn(701)],
            ..Default::default()
        };
        let t = GroundTruth::generate(&g, &params);
        (g, t)
    }

    #[test]
    fn every_as_has_a_policy_and_every_prefix_a_class() {
        let (g, t) = small_world();
        for a in g.ases() {
            assert!(t.policies.contains_key(&a), "no policy for {a}");
        }
        // Every graph prefix appears in exactly one class (splitters add
        // specifics beyond graph records, never duplicate them).
        let mut seen: BTreeMap<Ipv4Prefix, u32> = BTreeMap::new();
        for c in &t.classes {
            for p in &c.prefixes {
                *seen.entry(*p).or_insert(0) += 1;
            }
        }
        for (owner, rec) in g.all_prefixes() {
            let n = seen.get(&rec.prefix).copied().unwrap_or(0);
            assert_eq!(n, 1, "prefix {} of {owner} in {n} classes", rec.prefix);
        }
    }

    #[test]
    fn class_scopes_reference_real_neighbors() {
        let (g, t) = small_world();
        for c in &t.classes {
            if let Scope::Explicit(map) = &c.scope {
                for n in map.keys() {
                    assert!(
                        g.rel(c.origin, *n).is_some(),
                        "class {} scope lists non-neighbor {n} of {}",
                        c.id,
                        c.origin
                    );
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let g = InternetConfig::of_size(InternetSize::Tiny).build();
        let p = PolicyParams::default();
        let t1 = GroundTruth::generate(&g, &p);
        let t2 = GroundTruth::generate(&g, &p);
        assert_eq!(t1.classes, t2.classes);
        assert_eq!(t1.policies, t2.policies);
        assert_eq!(t1.selective_subset_origins, t2.selective_subset_origins);
    }

    #[test]
    fn typical_bands_do_not_overlap() {
        let (_, t) = small_world();
        for pol in t.policies.values() {
            assert!(pol.import.customer_pref > pol.import.peer_pref);
            assert!(pol.import.peer_pref > pol.import.provider_pref);
        }
    }

    #[test]
    fn pref_resolution_order() {
        let mut imp = ImportPolicy {
            customer_pref: 120,
            peer_pref: 100,
            provider_pref: 80,
            neighbor_pref: BTreeMap::new(),
            prefix_pref: BTreeMap::new(),
        };
        let p: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        let q: Ipv4Prefix = "11.0.0.0/8".parse().unwrap();
        assert_eq!(imp.pref_for(Asn(5), Relationship::Peer, p), 100);
        imp.neighbor_pref.insert(Asn(5), 125);
        assert_eq!(imp.pref_for(Asn(5), Relationship::Peer, p), 125);
        imp.prefix_pref.insert(p, 50);
        assert_eq!(imp.pref_for(Asn(5), Relationship::Peer, p), 50);
        assert_eq!(imp.pref_for(Asn(5), Relationship::Peer, q), 125);
        assert_eq!(
            imp.pref_for(Asn(6), Relationship::Sibling, q),
            imp.customer_pref
        );
    }

    #[test]
    fn selective_origins_are_multihomed_and_scopes_drop_a_provider() {
        let (g, t) = small_world();
        assert!(
            !t.selective_subset_origins.is_empty(),
            "Small world should contain selective origins"
        );
        for &o in &t.selective_subset_origins {
            assert!(g.is_multihomed(o), "{o} selective but single-homed");
            // At least one class of o excludes at least one provider.
            let providers: BTreeSet<Asn> = g.providers_of(o).collect();
            let some_class_drops = t.classes.iter().any(|c| {
                c.origin == o
                    && match &c.scope {
                        Scope::All => false,
                        Scope::Explicit(map) => providers.iter().any(|p| !map.contains_key(p)),
                    }
            });
            assert!(some_class_drops, "{o} has no provider-dropping class");
        }
    }

    #[test]
    fn tag_origins_attach_no_upstream_tags() {
        let (_, t) = small_world();
        for &o in &t.tag_origins {
            let has_tag = t.classes.iter().any(|c| {
                c.origin == o
                    && matches!(&c.scope, Scope::Explicit(map) if map.values().any(|v| !v.is_empty()))
            });
            assert!(has_tag, "tag origin {o} never attaches a community");
        }
    }

    #[test]
    fn splitter_classes_cover_the_halves() {
        let (_, t) = small_world();
        for (o, splits) in &t.splitters {
            for (orig, specifics) in splits {
                assert_eq!(specifics.len(), 2);
                assert_eq!(specifics[0].aggregate_with(specifics[1]), Some(*orig));
                // The specifics are in some class of o, the original in another.
                let has = |p: &Ipv4Prefix| {
                    t.classes
                        .iter()
                        .any(|c| c.origin == *o && c.prefixes.contains(p))
                };
                assert!(has(orig) && has(&specifics[0]) && has(&specifics[1]));
            }
        }
    }

    #[test]
    fn community_plan_tags_and_ranges() {
        let plan = CommunityPlan::standard();
        let tag = plan
            .ingress_tag(Asn(12859), Asn(8220), Relationship::Peer)
            .unwrap();
        assert_eq!(tag.authority_asn(), Asn(12859));
        assert!(plan.peer_codes.contains(&tag.value()));
        assert_eq!(plan.classify_code(tag.value()), Some(Relationship::Peer));
        assert_eq!(plan.classify_code(4000), Some(Relationship::Customer));
        assert_eq!(plan.classify_code(9999), None);
        let nu = plan.no_upstream_tag(Asn(701)).unwrap();
        assert_eq!(nu, Community::new(701, 9000));
    }

    #[test]
    fn overrides_land_on_requested_ases() {
        let (_, t) = small_world();
        let n1 = t.policy(Asn(1)).import.prefix_pref.len();
        let n701 = t.policy(Asn(701)).import.prefix_pref.len();
        assert!(n1 > 0 && n701 > 0);
        // Non-override ASes have none.
        assert_eq!(t.policy(Asn(1239)).import.prefix_pref.len(), 0);
    }
}
