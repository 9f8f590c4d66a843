//! The AS_PATH attribute.
//!
//! Paths are stored **speaker-first**: the leftmost AS is the neighbor the
//! route was learned from (the paper's "next hop AS"), the rightmost AS is
//! the origin. This matches both `show ip bgp` output and the order the
//! paper's algorithms read paths in (e.g. "given a customer path
//! `AS1 AS12 AS14 AS15`", §5.1.3).

use std::fmt;
use std::str::FromStr;

use crate::asn::Asn;
use crate::error::ParseError;

/// One AS_PATH segment: an ordered `AS_SEQUENCE` or an unordered `AS_SET`
/// (the footprint of route aggregation).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum PathSegment {
    /// An ordered run of ASes the announcement traversed.
    Seq(Vec<Asn>),
    /// An unordered set produced by aggregation; counts as one hop.
    Set(Vec<Asn>),
}

impl PathSegment {
    /// Hop count contribution to path length (a set counts as one, RFC 4271
    /// §9.1.2.2).
    pub fn hop_len(&self) -> usize {
        match self {
            PathSegment::Seq(v) => v.len(),
            PathSegment::Set(v) => usize::from(!v.is_empty()),
        }
    }

    /// All ASes mentioned in the segment.
    pub fn asns(&self) -> &[Asn] {
        match self {
            PathSegment::Seq(v) | PathSegment::Set(v) => v,
        }
    }
}

/// An AS_PATH: a list of segments, speaker-first.
///
/// ```
/// use bgp_types::{AsPath, Asn};
/// let p: AsPath = "8220 12878 5606 15471".parse().unwrap();
/// assert_eq!(p.next_hop_as(), Some(Asn(8220)));
/// assert_eq!(p.origin_as(), Some(Asn(15471)));
/// assert_eq!(p.hop_len(), 4);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct AsPath {
    segments: Vec<PathSegment>,
}

impl AsPath {
    /// The empty path (a route originated by the table's own AS).
    pub fn empty() -> Self {
        AsPath::default()
    }

    /// Builds a pure-sequence path from ASes in speaker-first order.
    pub fn from_seq<I: IntoIterator<Item = Asn>>(asns: I) -> Self {
        let v: Vec<Asn> = asns.into_iter().collect();
        if v.is_empty() {
            AsPath::empty()
        } else {
            AsPath {
                segments: vec![PathSegment::Seq(v)],
            }
        }
    }

    /// Builds a path from explicit segments, dropping empty ones.
    pub fn from_segments<I: IntoIterator<Item = PathSegment>>(segs: I) -> Self {
        AsPath {
            segments: segs.into_iter().filter(|s| !s.asns().is_empty()).collect(),
        }
    }

    /// The underlying segments.
    pub fn segments(&self) -> &[PathSegment] {
        &self.segments
    }

    /// `true` for a locally-originated route's empty path.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Path length as the decision process counts it (`AS_SET` = 1 hop).
    pub fn hop_len(&self) -> usize {
        self.segments.iter().map(PathSegment::hop_len).sum()
    }

    /// The neighbor AS the route was learned from (leftmost AS). `None` for
    /// a locally-originated route, or when the path starts with an AS_SET.
    pub fn next_hop_as(&self) -> Option<Asn> {
        match self.segments.first()? {
            PathSegment::Seq(v) => v.first().copied(),
            PathSegment::Set(_) => None,
        }
    }

    /// The origin AS (rightmost). For paths ending in an AS_SET (aggregated
    /// routes) the origin is ambiguous and `None` is returned.
    pub fn origin_as(&self) -> Option<Asn> {
        match self.segments.last()? {
            PathSegment::Seq(v) => v.last().copied(),
            PathSegment::Set(_) => None,
        }
    }

    /// Does the path mention `asn` anywhere (the RFC 4271 loop check)?
    pub fn contains(&self, asn: Asn) -> bool {
        self.segments.iter().any(|s| s.asns().contains(&asn))
    }

    /// Iterates over every AS in the path, speaker-first (sets flattened in
    /// their stored order).
    pub fn asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.segments.iter().flat_map(|s| s.asns().iter().copied())
    }
}

impl fmt::Display for AsPath {
    /// `show ip bgp` style: `8220 12878 {5606,15471}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for seg in &self.segments {
            if !first {
                f.write_str(" ")?;
            }
            first = false;
            match seg {
                PathSegment::Seq(v) => {
                    let mut inner_first = true;
                    for a in v {
                        if !inner_first {
                            f.write_str(" ")?;
                        }
                        inner_first = false;
                        write!(f, "{}", a.0)?;
                    }
                }
                PathSegment::Set(v) => {
                    f.write_str("{")?;
                    let mut inner_first = true;
                    for a in v {
                        if !inner_first {
                            f.write_str(",")?;
                        }
                        inner_first = false;
                        write!(f, "{}", a.0)?;
                    }
                    f.write_str("}")?;
                }
            }
        }
        Ok(())
    }
}

impl fmt::Debug for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{self}]")
    }
}

impl FromStr for AsPath {
    type Err = ParseError;

    /// Parses `show ip bgp` style paths: whitespace-separated ASNs with
    /// `{a,b,c}` AS_SETs, e.g. `701 1239 {7018,3549}`. An empty string is
    /// the empty (locally-originated) path.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut segments: Vec<PathSegment> = Vec::new();
        let mut current_seq: Vec<Asn> = Vec::new();
        let mut rest = s.trim();
        while !rest.is_empty() {
            if let Some(after) = rest.strip_prefix('{') {
                let (set_body, tail) = after
                    .split_once('}')
                    .ok_or_else(|| ParseError::invalid_path(s))?;
                if !current_seq.is_empty() {
                    segments.push(PathSegment::Seq(std::mem::take(&mut current_seq)));
                }
                let mut set: Vec<Asn> = Vec::new();
                for part in set_body.split(',') {
                    let part = part.trim();
                    if part.is_empty() {
                        return Err(ParseError::invalid_path(s));
                    }
                    set.push(part.parse()?);
                }
                if set.is_empty() {
                    return Err(ParseError::invalid_path(s));
                }
                segments.push(PathSegment::Set(set));
                rest = tail.trim_start();
            } else {
                let end = rest
                    .find(|c: char| c.is_whitespace() || c == '{')
                    .unwrap_or(rest.len());
                if end == 0 {
                    return Err(ParseError::invalid_path(s));
                }
                let (tok, tail) = rest.split_at(end);
                current_seq.push(tok.parse()?);
                rest = tail.trim_start();
            }
        }
        if !current_seq.is_empty() {
            segments.push(PathSegment::Seq(current_seq));
        }
        Ok(AsPath { segments })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(s: &str) -> AsPath {
        s.parse().unwrap()
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in [
            "8220 12878 5606 15471",
            "701",
            "701 1239 {7018,3549}",
            "{1,2} 3",
            "",
        ] {
            assert_eq!(path(s).to_string(), s);
        }
    }

    #[test]
    fn endpoints_and_length() {
        let p = path("8220 12878 5606 15471");
        assert_eq!(p.next_hop_as(), Some(Asn(8220)));
        assert_eq!(p.origin_as(), Some(Asn(15471)));
        assert_eq!(p.hop_len(), 4);
        assert!(!p.is_empty());
    }

    #[test]
    fn empty_path_is_local() {
        let p = AsPath::empty();
        assert!(p.is_empty());
        assert_eq!(p.hop_len(), 0);
        assert_eq!(p.next_hop_as(), None);
        assert_eq!(p.origin_as(), None);
    }

    #[test]
    fn as_set_counts_one_hop_and_hides_origin() {
        let p = path("701 {7018,3549}");
        assert_eq!(p.hop_len(), 2);
        assert_eq!(p.origin_as(), None);
        assert_eq!(p.next_hop_as(), Some(Asn(701)));
    }

    #[test]
    fn loop_check() {
        let p = path("701 1239 7018");
        assert!(p.contains(Asn(1239)));
        assert!(!p.contains(Asn(1)));
        assert!(path("701 {7018,3549}").contains(Asn(3549)));
    }

    #[test]
    fn rejects_malformed() {
        for s in ["701 {", "701 }", "{}", "{1,,2}", "701 abc", "{1 2}"] {
            assert!(s.parse::<AsPath>().is_err(), "{s:?} should not parse");
        }
    }

    #[test]
    fn from_seq_and_asns_iterator() {
        let p = AsPath::from_seq([Asn(1), Asn(2), Asn(3)]);
        assert_eq!(p.asns().collect::<Vec<_>>(), vec![Asn(1), Asn(2), Asn(3)]);
        assert_eq!(AsPath::from_seq([]), AsPath::empty());
    }
}
