//! RFC 1997 BGP communities.
//!
//! The paper's Appendix leans on the `ASN:value` tagging convention — an AS
//! tags routes with communities whose *value ranges* encode the neighbor
//! class (see Table 11: `12859:1000` = AMS-IX peer, `12859:4000` = customer).
//! [`Community`] keeps the two halves separate so range queries are cheap.

use std::fmt;
use std::str::FromStr;

use crate::asn::Asn;
use crate::error::ParseError;

/// A BGP community attribute value, `high:low`.
///
/// The conventional interpretation tags `high` with the AS that attached the
/// community and uses `low` as an operator-defined code.
///
/// ```
/// use bgp_types::Community;
/// let c: Community = "12859:1000".parse().unwrap();
/// assert_eq!(c.authority_asn().0, 12859);
/// assert_eq!(c.value(), 1000);
/// assert_eq!(Community::NO_EXPORT.to_string(), "no-export");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Community {
    high: u16,
    low: u16,
}

impl Community {
    /// RFC 1997 well-known `NO_EXPORT` (0xFFFFFF01): do not advertise
    /// outside the local AS. Central to the paper's Case-3 analysis of
    /// selective announcement (§5.1.5).
    pub const NO_EXPORT: Community = Community {
        high: 0xFFFF,
        low: 0xFF01,
    };
    /// RFC 1997 well-known `NO_ADVERTISE` (0xFFFFFF02).
    pub const NO_ADVERTISE: Community = Community {
        high: 0xFFFF,
        low: 0xFF02,
    };
    /// RFC 1997 well-known `NO_EXPORT_SUBCONFED` (0xFFFFFF03).
    pub const NO_EXPORT_SUBCONFED: Community = Community {
        high: 0xFFFF,
        low: 0xFF03,
    };

    /// Creates a community from its two 16-bit halves.
    pub const fn new(high: u16, low: u16) -> Self {
        Community { high, low }
    }

    /// Creates a community tagged by `asn` (must be 2-byte) with `value`.
    ///
    /// Returns `None` when `asn` does not fit in 16 bits — classic
    /// communities cannot express 4-byte tagging ASes.
    pub fn tagged(asn: Asn, value: u16) -> Option<Self> {
        if asn.is_two_byte() {
            Some(Community {
                high: asn.0 as u16,
                low: value,
            })
        } else {
            None
        }
    }

    /// The high half, interpreted as the tagging AS.
    pub fn authority_asn(self) -> Asn {
        Asn(self.high as u32)
    }

    /// The high 16 bits.
    pub fn high(self) -> u16 {
        self.high
    }

    /// The low 16 bits (operator-defined code).
    pub fn value(self) -> u16 {
        self.low
    }

    /// The packed 32-bit wire representation.
    pub fn as_u32(self) -> u32 {
        ((self.high as u32) << 16) | self.low as u32
    }

    /// Rebuilds from the packed wire representation.
    pub fn from_u32(v: u32) -> Self {
        Community {
            high: (v >> 16) as u16,
            low: v as u16,
        }
    }
}

impl fmt::Display for Community {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Community::NO_EXPORT => write!(f, "no-export"),
            Community::NO_ADVERTISE => write!(f, "no-advertise"),
            Community::NO_EXPORT_SUBCONFED => write!(f, "no-export-subconfed"),
            Community { high, low } => write!(f, "{high}:{low}"),
        }
    }
}

impl fmt::Debug for Community {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromStr for Community {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim();
        match t {
            "no-export" | "NO_EXPORT" => return Ok(Community::NO_EXPORT),
            "no-advertise" | "NO_ADVERTISE" => return Ok(Community::NO_ADVERTISE),
            "no-export-subconfed" | "NO_EXPORT_SUBCONFED" => {
                return Ok(Community::NO_EXPORT_SUBCONFED)
            }
            _ => {}
        }
        let (h, l) = t
            .split_once(':')
            .ok_or_else(|| ParseError::invalid_community(s))?;
        let high = h
            .parse::<u16>()
            .map_err(|_| ParseError::invalid_community(s))?;
        let low = l
            .parse::<u16>()
            .map_err(|_| ParseError::invalid_community(s))?;
        Ok(Community { high, low })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_display_roundtrip() {
        for s in ["12859:1000", "0:0", "65535:65535", "7018:100"] {
            let c: Community = s.parse().unwrap();
            assert_eq!(c.to_string(), s);
        }
    }

    #[test]
    fn well_known_names() {
        assert_eq!(
            "no-export".parse::<Community>().unwrap(),
            Community::NO_EXPORT
        );
        assert_eq!(
            "NO_ADVERTISE".parse::<Community>().unwrap(),
            Community::NO_ADVERTISE
        );
        // Well-known communities display by name and reparse to themselves.
        let c = Community::NO_EXPORT;
        assert_eq!(c.to_string().parse::<Community>().unwrap(), c);
    }

    #[test]
    fn packed_roundtrip() {
        for v in [0u32, 0xFFFF_FF01, 0x1B3B_03E8, u32::MAX] {
            assert_eq!(Community::from_u32(v).as_u32(), v);
        }
        assert_eq!(Community::NO_EXPORT.as_u32(), 0xFFFF_FF01);
    }

    #[test]
    fn tagged_requires_two_byte_asn() {
        let c = Community::tagged(Asn(12859), 4000).unwrap();
        assert_eq!(c.to_string(), "12859:4000");
        assert_eq!(c.authority_asn(), Asn(12859));
        assert!(Community::tagged(Asn(400_000), 1).is_none());
    }

    #[test]
    fn rejects_malformed() {
        for s in ["", "7018", "7018:", ":100", "7018:100:1", "70000:1", "a:b"] {
            assert!(s.parse::<Community>().is_err(), "{s} should not parse");
        }
    }

    #[test]
    fn range_ordering_supports_semantic_buckets() {
        // Table 11-style buckets: peers in [1000,2000), transit in [2000,4000),
        // customers at 4000 — plain Ord on the value suffices.
        let peer: Community = "12859:1010".parse().unwrap();
        let transit: Community = "12859:2010".parse().unwrap();
        let customer: Community = "12859:4000".parse().unwrap();
        assert!(peer.value() < transit.value());
        assert!(transit.value() < customer.value());
    }
}
