//! RIB entries: a prefix plus every attribute the decision process consults.

use std::fmt;

use crate::asn::Asn;
use crate::community::Community;
use crate::path::AsPath;
use crate::prefix::Ipv4Prefix;

/// The ORIGIN attribute (RFC 4271 §5.1.1). Lower is preferred at decision
/// step 3: a route originally injected from IGP beats one learned via EGP,
/// which beats `Incomplete` (redistributed).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum Origin {
    /// Network statement / IGP injection (`i`).
    #[default]
    Igp,
    /// Learned via (historic) EGP (`e`).
    Egp,
    /// Redistributed, origin unknown (`?`).
    Incomplete,
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Origin::Igp => "i",
            Origin::Egp => "e",
            Origin::Incomplete => "?",
        })
    }
}

/// Whether the route arrived over an external or internal BGP session
/// (decision step 5 prefers eBGP).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum Session {
    /// Learned from an eBGP neighbor.
    #[default]
    Ebgp,
    /// Learned from an iBGP neighbor (another router of the same AS).
    Ibgp,
    /// Locally originated by this router (wins over both).
    Local,
}

/// Path attributes of a single RIB entry.
///
/// `local_pref` is `Option` because a Looking-Glass view exposes it while a
/// RouteViews-style collector view does not (§3 of the paper) — inference
/// code must cope with both.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct RouteAttrs {
    /// AS_PATH, speaker-first.
    pub as_path: AsPath,
    /// ORIGIN attribute.
    pub origin: Origin,
    /// LOCAL_PREF as assigned by the import policy, when visible.
    pub local_pref: Option<u32>,
    /// MULTI_EXIT_DISC, when present.
    pub med: Option<u32>,
    /// Attached COMMUNITY values, in attachment order.
    pub communities: Vec<Community>,
    /// The neighbor AS this route was learned from. For locally-originated
    /// routes this is the local AS itself. Usually equals
    /// `as_path.next_hop_as()` but kept separately so iBGP-learned routes
    /// (whose path starts at the remote border) stay attributable.
    pub learned_from: Asn,
    /// eBGP / iBGP / local.
    pub session: Session,
    /// IGP metric to the egress border router (decision step 6).
    pub igp_metric: u32,
    /// Router ID of the announcing router (decision step 7 tie-break).
    pub router_id: u32,
}

/// A routing-table entry: one prefix with one set of path attributes.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Route {
    /// The destination prefix.
    pub prefix: Ipv4Prefix,
    /// Everything else.
    pub attrs: RouteAttrs,
}

impl Route {
    /// Starts a builder for a route to `prefix`.
    pub fn builder(prefix: Ipv4Prefix) -> RouteBuilder {
        RouteBuilder {
            route: Route {
                prefix,
                attrs: RouteAttrs::default(),
            },
        }
    }

    /// The origin AS of the path, falling back to `learned_from` for empty
    /// paths (locally-originated routes).
    pub fn origin_as(&self) -> Option<Asn> {
        if self.attrs.as_path.is_empty() {
            Some(self.attrs.learned_from)
        } else {
            self.attrs.as_path.origin_as()
        }
    }

    /// The next-hop AS: the neighbor this route was learned from.
    pub fn next_hop_as(&self) -> Asn {
        self.attrs.learned_from
    }
}

impl fmt::Display for Route {
    /// A compact single-line rendering used in logs and examples:
    /// `12.0.0.0/19 via AS701 path [701 7018] lp 90 med - i`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} via {} path [{}]",
            self.prefix, self.attrs.learned_from, self.attrs.as_path
        )?;
        match self.attrs.local_pref {
            Some(lp) => write!(f, " lp {lp}")?,
            None => write!(f, " lp -")?,
        }
        match self.attrs.med {
            Some(m) => write!(f, " med {m}")?,
            None => write!(f, " med -")?,
        }
        write!(f, " {}", self.attrs.origin)?;
        if !self.attrs.communities.is_empty() {
            write!(f, " comm")?;
            for c in &self.attrs.communities {
                write!(f, " {c}")?;
            }
        }
        Ok(())
    }
}

/// Fluent builder for [`Route`], used pervasively in tests and the simulator.
///
/// ```
/// use bgp_types::{Asn, Ipv4Prefix, Route};
/// let r = Route::builder("12.0.0.0/19".parse().unwrap())
///     .path_seq([Asn(701), Asn(7018)])
///     .learned_from(Asn(701))
///     .local_pref(90)
///     .build();
/// assert_eq!(r.next_hop_as(), Asn(701));
/// ```
#[derive(Clone, Debug)]
pub struct RouteBuilder {
    route: Route,
}

impl RouteBuilder {
    /// Sets the AS path from a speaker-first sequence and, if not yet set,
    /// the `learned_from` neighbor to the path's first hop.
    pub fn path_seq<I: IntoIterator<Item = Asn>>(mut self, asns: I) -> Self {
        self.route.attrs.as_path = AsPath::from_seq(asns);
        if self.route.attrs.learned_from == Asn::default() {
            if let Some(nh) = self.route.attrs.as_path.next_hop_as() {
                self.route.attrs.learned_from = nh;
            }
        }
        self
    }

    /// Sets the AS path from a pre-built [`AsPath`].
    pub fn path(mut self, p: AsPath) -> Self {
        self.route.attrs.as_path = p;
        if self.route.attrs.learned_from == Asn::default() {
            if let Some(nh) = self.route.attrs.as_path.next_hop_as() {
                self.route.attrs.learned_from = nh;
            }
        }
        self
    }

    /// Sets the neighbor AS the route was learned from.
    pub fn learned_from(mut self, asn: Asn) -> Self {
        self.route.attrs.learned_from = asn;
        self
    }

    /// Sets LOCAL_PREF.
    pub fn local_pref(mut self, lp: u32) -> Self {
        self.route.attrs.local_pref = Some(lp);
        self
    }

    /// Sets MED.
    pub fn med(mut self, med: u32) -> Self {
        self.route.attrs.med = Some(med);
        self
    }

    /// Sets ORIGIN.
    pub fn origin(mut self, o: Origin) -> Self {
        self.route.attrs.origin = o;
        self
    }

    /// Appends a community.
    pub fn community(mut self, c: Community) -> Self {
        self.route.attrs.communities.push(c);
        self
    }

    /// Replaces the whole community list.
    pub fn communities<I: IntoIterator<Item = Community>>(mut self, cs: I) -> Self {
        self.route.attrs.communities = cs.into_iter().collect();
        self
    }

    /// Sets the session type.
    pub fn session(mut self, s: Session) -> Self {
        self.route.attrs.session = s;
        self
    }

    /// Sets the IGP metric to the egress router.
    pub fn igp_metric(mut self, m: u32) -> Self {
        self.route.attrs.igp_metric = m;
        self
    }

    /// Sets the announcing router's ID.
    pub fn router_id(mut self, id: u32) -> Self {
        self.route.attrs.router_id = id;
        self
    }

    /// Finishes the route.
    pub fn build(self) -> Route {
        self.route
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pfx(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn builder_defaults_learned_from_to_first_hop() {
        let r = Route::builder(pfx("12.0.0.0/19"))
            .path_seq([Asn(701), Asn(7018)])
            .build();
        assert_eq!(r.attrs.learned_from, Asn(701));
        assert_eq!(r.origin_as(), Some(Asn(7018)));
    }

    #[test]
    fn explicit_learned_from_wins() {
        let r = Route::builder(pfx("12.0.0.0/19"))
            .learned_from(Asn(9))
            .path_seq([Asn(701), Asn(7018)])
            .build();
        assert_eq!(r.attrs.learned_from, Asn(9));
    }

    #[test]
    fn local_route_origin_falls_back_to_learned_from() {
        let r = Route::builder(pfx("10.0.0.0/8"))
            .learned_from(Asn(65000))
            .session(Session::Local)
            .build();
        assert_eq!(r.origin_as(), Some(Asn(65000)));
    }

    #[test]
    fn origin_ordering_is_igp_egp_incomplete() {
        assert!(Origin::Igp < Origin::Egp);
        assert!(Origin::Egp < Origin::Incomplete);
        assert_eq!(Origin::Igp.to_string(), "i");
        assert_eq!(Origin::Incomplete.to_string(), "?");
    }

    #[test]
    fn display_is_compact_and_complete() {
        let r = Route::builder(pfx("12.0.0.0/19"))
            .path_seq([Asn(701), Asn(7018)])
            .local_pref(90)
            .med(5)
            .community(Community::new(701, 120))
            .build();
        let s = r.to_string();
        assert!(s.contains("12.0.0.0/19"));
        assert!(s.contains("via AS701"));
        assert!(s.contains("lp 90"));
        assert!(s.contains("med 5"));
        assert!(s.contains("701:120"));
    }

    #[test]
    fn has_community() {
        let r = Route::builder(pfx("1.0.0.0/8"))
            .path_seq([Asn(2)])
            .community(Community::NO_EXPORT)
            .build();
        assert!(r.attrs.communities.contains(&Community::NO_EXPORT));
        assert!(!r.attrs.communities.contains(&Community::NO_ADVERTISE));
    }
}
