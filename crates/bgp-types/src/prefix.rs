//! IPv4 CIDR prefixes and the aggregation / splitting algebra the paper's
//! cause analysis (§5.1.5, Table 9) depends on.

use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

use crate::error::ParseError;

/// An IPv4 CIDR prefix in canonical form (all host bits zero).
///
/// Ordering is lexicographic on `(network bits, length)`, which sorts
/// supernets immediately before their first subnet — the order `show ip bgp`
/// and MRT RIB dumps use.
///
/// ```
/// use bgp_types::Ipv4Prefix;
/// let p: Ipv4Prefix = "12.0.0.0/19".parse().unwrap();
/// let q: Ipv4Prefix = "12.0.16.0/24".parse().unwrap();
/// assert!(p.covers(q));
/// assert_eq!(p.to_string(), "12.0.0.0/19");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv4Prefix {
    bits: u32,
    len: u8,
}

impl Ipv4Prefix {
    /// `0.0.0.0/0` — the default route.
    pub const DEFAULT: Ipv4Prefix = Ipv4Prefix { bits: 0, len: 0 };

    /// Creates a prefix, rejecting lengths above 32 and nonzero host bits.
    ///
    /// Use [`Ipv4Prefix::canonical`] to mask host bits instead of rejecting.
    pub fn new(bits: u32, len: u8) -> Result<Self, ParseError> {
        if len > 32 {
            return Err(ParseError::invalid_prefix_len(&len.to_string()));
        }
        let canon = bits & mask(len);
        if canon != bits {
            return Err(ParseError::invalid_prefix(&format!(
                "{}/{} has host bits set",
                DottedQuad(bits),
                len
            )));
        }
        Ok(Ipv4Prefix { bits, len })
    }

    /// Creates a prefix, silently zeroing any host bits.
    ///
    /// # Panics
    /// Panics if `len > 32` (a programming error, not a data error).
    pub fn canonical(bits: u32, len: u8) -> Self {
        assert!(len <= 32, "prefix length {len} > 32");
        Ipv4Prefix {
            bits: bits & mask(len),
            len,
        }
    }

    /// The network bits (host bits are always zero).
    pub fn bits(self) -> u32 {
        self.bits
    }

    /// The prefix length in `0..=32`. (`is_empty` would be meaningless
    /// for a prefix length, hence the lint allowance.)
    #[allow(clippy::len_without_is_empty)]
    pub fn len(self) -> u8 {
        self.len
    }

    /// `true` only for the default route `0.0.0.0/0`.
    pub fn is_default(self) -> bool {
        self.len == 0
    }

    /// The netmask as a `u32` (`/19` → `0xFFFF_E000`).
    pub fn netmask(self) -> u32 {
        mask(self.len)
    }

    /// Number of addresses covered (saturates at `u32::MAX` for `/0`).
    pub fn addr_count(self) -> u64 {
        1u64 << (32 - self.len as u64)
    }

    /// Does `self` cover `other`? True when `other` is equal to or more
    /// specific than `self` (`self` aggregates `other`).
    pub fn covers(self, other: Ipv4Prefix) -> bool {
        self.len <= other.len && (other.bits & mask(self.len)) == self.bits
    }

    /// Does `self` strictly cover `other` (cover and be shorter)?
    pub fn covers_strictly(self, other: Ipv4Prefix) -> bool {
        self.len < other.len && self.covers(other)
    }

    /// The immediate supernet (one bit shorter), or `None` for `/0`.
    pub fn supernet(self) -> Option<Ipv4Prefix> {
        if self.len == 0 {
            None
        } else {
            Some(Ipv4Prefix::canonical(self.bits, self.len - 1))
        }
    }

    /// Splits into the two immediate subnets, or `None` for `/32`.
    ///
    /// This is the paper's *prefix splitting* primitive: `12.0.0.0/19`
    /// splits into `12.0.0.0/20` and `12.0.16.0/20`.
    pub fn split(self) -> Option<(Ipv4Prefix, Ipv4Prefix)> {
        if self.len == 32 {
            return None;
        }
        let len = self.len + 1;
        let lo = Ipv4Prefix {
            bits: self.bits,
            len,
        };
        let hi = Ipv4Prefix {
            bits: self.bits | (1u32 << (32 - len)),
            len,
        };
        Some((lo, hi))
    }

    /// The sibling prefix sharing `self`'s immediate supernet, or `None`
    /// for `/0`.
    pub fn sibling(self) -> Option<Ipv4Prefix> {
        if self.len == 0 {
            return None;
        }
        Some(Ipv4Prefix {
            bits: self.bits ^ (1u32 << (32 - self.len as u32)),
            len: self.len,
        })
    }

    /// Aggregates two sibling prefixes into their common supernet
    /// (the paper's *prefix aggregating* primitive), or `None` if the two
    /// prefixes are not siblings.
    pub fn aggregate_with(self, other: Ipv4Prefix) -> Option<Ipv4Prefix> {
        if self.sibling() == Some(other) {
            self.supernet()
        } else {
            None
        }
    }
}

/// Netmask for a prefix length; `mask(0) == 0`.
fn mask(len: u8) -> u32 {
    debug_assert!(len <= 32);
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len as u32)
    }
}

impl PartialOrd for Ipv4Prefix {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ipv4Prefix {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bits
            .cmp(&other.bits)
            .then_with(|| self.len.cmp(&other.len))
    }
}

struct DottedQuad(u32);

impl fmt::Display for DottedQuad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0.to_be_bytes();
        write!(f, "{}.{}.{}.{}", b[0], b[1], b[2], b[3])
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", DottedQuad(self.bits), self.len)
    }
}

impl fmt::Debug for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// Parses a bare dotted-quad IPv4 address into a `u32`.
pub fn parse_addr(s: &str) -> Result<u32, ParseError> {
    // Four dot-separated octets of one to three decimal digits each —
    // digits only, so no sign — walked bytewise: this sits under every
    // query line a daemon parses.
    let invalid = || ParseError::invalid_addr(s);
    let (mut addr, mut dots, mut octet, mut digits) = (0u32, 0, 0u32, 0);
    for b in s.trim().bytes() {
        match b {
            b'0'..=b'9' => {
                octet = octet * 10 + u32::from(b - b'0');
                digits += 1;
                if digits > 3 || octet > 255 {
                    return Err(invalid());
                }
            }
            b'.' if digits > 0 && dots < 3 => {
                addr = addr << 8 | octet;
                dots += 1;
                (octet, digits) = (0, 0);
            }
            _ => return Err(invalid()),
        }
    }
    if digits == 0 || dots != 3 {
        return Err(invalid());
    }
    Ok(addr << 8 | octet)
}

/// The digits after the `/`: decimal digits only (no sign), and small
/// enough for a `u8` — whether it is a *prefix* length is the caller's
/// check, made once the address has parsed.
fn parse_len(l: &str) -> Result<u8, ParseError> {
    let invalid = || ParseError::invalid_prefix_len(l);
    let mut len = 0u32;
    for b in l.bytes() {
        if !b.is_ascii_digit() {
            return Err(invalid());
        }
        len = len * 10 + u32::from(b - b'0');
        if len > u32::from(u8::MAX) {
            return Err(invalid());
        }
    }
    if l.is_empty() {
        return Err(invalid());
    }
    Ok(len as u8)
}

impl FromStr for Ipv4Prefix {
    type Err = ParseError;

    /// Parses `a.b.c.d/len`. A bare address is treated as a host route
    /// (`/32`), matching router CLI behaviour.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim();
        let (addr_part, len) = match t.split_once('/') {
            Some((a, l)) => (a, parse_len(l)?),
            None => (t, 32),
        };
        let bits = parse_addr(addr_part)?;
        if len > 32 {
            return Err(ParseError::invalid_prefix_len(t));
        }
        // Router CLIs reject host bits in route filters; we do the same so a
        // typo like 12.0.0.1/19 is caught rather than silently reinterpreted.
        Ipv4Prefix::new(bits, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["0.0.0.0/0", "12.0.0.0/19", "192.168.69.0/24", "10.0.0.1/32"] {
            assert_eq!(p(s).to_string(), s);
        }
    }

    #[test]
    fn bare_address_is_host_route() {
        assert_eq!(p("80.96.180.7"), p("80.96.180.7/32"));
    }

    #[test]
    fn rejects_malformed() {
        for s in [
            "12.0.0.0/33",
            "12.0.0/19",
            "12.0.0.0.0/19",
            "256.0.0.0/8",
            "12.0.0.1/19", // host bits set
            "a.b.c.d/8",
            "",
            "12.0.0.0/",
            "12.0.0.0/+8", // signed length
            "12.00a.0.0/8",
        ] {
            assert!(s.parse::<Ipv4Prefix>().is_err(), "{s} should not parse");
        }
    }

    #[test]
    fn canonical_masks_host_bits() {
        let q = Ipv4Prefix::canonical(0x0C00_0001, 19);
        assert_eq!(q, p("12.0.0.0/19"));
    }

    #[test]
    fn covers_is_a_partial_order() {
        let a = p("12.0.0.0/8");
        let b = p("12.0.0.0/19");
        let c = p("12.0.16.0/24");
        assert!(a.covers(b) && b.covers(c) && a.covers(c));
        assert!(!c.covers(b) && !b.covers(a));
        assert!(a.covers(a));
        assert!(a.covers_strictly(b) && !a.covers_strictly(a));
        assert!(Ipv4Prefix::DEFAULT.covers(a));
    }

    #[test]
    fn disjoint_prefixes_do_not_cover() {
        assert!(!p("12.0.0.0/19").covers(p("12.0.32.0/19")));
        assert!(!p("12.0.32.0/19").covers(p("12.0.0.0/19")));
    }

    #[test]
    fn split_and_aggregate_are_inverse() {
        let a = p("12.0.0.0/19");
        let (lo, hi) = a.split().unwrap();
        assert_eq!(lo, p("12.0.0.0/20"));
        assert_eq!(hi, p("12.0.16.0/20"));
        assert_eq!(lo.aggregate_with(hi).unwrap(), a);
        assert_eq!(hi.aggregate_with(lo).unwrap(), a);
        assert_eq!(lo.sibling(), Some(hi));
        assert_eq!(hi.sibling(), Some(lo));
    }

    #[test]
    fn aggregate_requires_siblinghood() {
        assert!(p("12.0.0.0/20").aggregate_with(p("12.0.32.0/20")).is_none());
        assert!(p("12.0.0.0/20").aggregate_with(p("12.0.16.0/21")).is_none());
    }

    #[test]
    fn host_route_does_not_split_and_default_has_no_supernet() {
        assert!(p("1.2.3.4/32").split().is_none());
        assert!(Ipv4Prefix::DEFAULT.supernet().is_none());
        assert!(Ipv4Prefix::DEFAULT.sibling().is_none());
    }

    #[test]
    fn address_range() {
        let a = p("192.168.69.0/24");
        assert_eq!(a.addr_count(), 256);
        assert_eq!(a.netmask(), 0xFFFF_FF00);
    }

    #[test]
    fn ordering_sorts_supernet_first() {
        let mut v = vec![p("12.0.16.0/20"), p("12.0.0.0/19"), p("12.0.0.0/20")];
        v.sort();
        assert_eq!(
            v,
            vec![p("12.0.0.0/19"), p("12.0.0.0/20"), p("12.0.16.0/20")]
        );
    }
}
