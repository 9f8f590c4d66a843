//! Autonomous system numbers.

use std::fmt;
use std::str::FromStr;

use crate::error::ParseError;

/// An autonomous system number (RFC 6793 four-byte capable).
///
/// Displayed as `AS7018`; parses from either `AS7018` / `as7018` or a bare
/// decimal `7018`.
///
/// ```
/// use bgp_types::Asn;
/// let a: Asn = "AS7018".parse().unwrap();
/// assert_eq!(a, Asn(7018));
/// assert_eq!(a.to_string(), "AS7018");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Asn(pub u32);

impl Asn {
    /// AS_TRANS (RFC 6793), substituted for 4-byte ASNs on 2-byte sessions.
    pub const TRANS: Asn = Asn(23456);

    /// Returns `true` for ASNs that fit in the original 2-byte space.
    pub fn is_two_byte(self) -> bool {
        self.0 <= u16::MAX as u32
    }
}

impl From<u32> for Asn {
    fn from(v: u32) -> Self {
        Asn(v)
    }
}

impl From<Asn> for u32 {
    fn from(a: Asn) -> Self {
        a.0
    }
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl fmt::Debug for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl FromStr for Asn {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim();
        let digits = t
            .strip_prefix("AS")
            .or_else(|| t.strip_prefix("as"))
            .or_else(|| t.strip_prefix("As"))
            .unwrap_or(t);
        digits
            .parse::<u32>()
            .map(Asn)
            .map_err(|_| ParseError::invalid_asn(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_with_and_without_prefix() {
        assert_eq!("AS7018".parse::<Asn>().unwrap(), Asn(7018));
        assert_eq!("as1".parse::<Asn>().unwrap(), Asn(1));
        assert_eq!("701".parse::<Asn>().unwrap(), Asn(701));
        assert_eq!(" 701 ".parse::<Asn>().unwrap(), Asn(701));
    }

    #[test]
    fn rejects_garbage() {
        assert!("ASx".parse::<Asn>().is_err());
        assert!("".parse::<Asn>().is_err());
        assert!("AS-1".parse::<Asn>().is_err());
        assert!("4294967296".parse::<Asn>().is_err()); // > u32::MAX
    }

    #[test]
    fn display_roundtrip() {
        for v in [0u32, 1, 7018, 65535, 4_200_000_000] {
            let a = Asn(v);
            assert_eq!(a.to_string().parse::<Asn>().unwrap(), a);
        }
    }

    #[test]
    fn two_byte_boundary() {
        assert!(Asn(65535).is_two_byte());
        assert!(!Asn(65536).is_two_byte());
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Asn(9) < Asn(701));
        assert!(Asn(701) < Asn(7018));
    }
}
