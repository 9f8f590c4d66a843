//! The one byte codec: every format this workspace reads — archive
//! segments, the manifest, live-stream frames, and the BGP / MRT wire
//! formats `bgp-wire` decodes — goes through it.
//!
//! The archive's own formats are streams of small unsigned integers
//! (interned symbols, counts, prefix bits), so their workhorse is LEB128
//! varints plus ZigZag for the rare signed value; the wire formats and
//! the manifest are fixed-width big-endian fields:
//!
//! * [`put_uvarint`] / [`Reader::uvarint`] — unsigned LEB128, 1 byte for
//!   values < 128 (the overwhelmingly common case for symbols and counts).
//! * [`zigzag`] / [`unzigzag`] — signed→unsigned mapping so small
//!   negative deltas stay short.
//! * [`put_u16`] / [`put_u32`] / [`put_u64`] and [`Reader::u8`] …
//!   [`Reader::u64`] — fixed-width big-endian (network order) fields.
//! * [`put_prefix`] / [`put_asn`] / [`put_asn_list`] /
//!   [`put_relationship`] and their [`Reader`] twins — the typed values
//!   the archive segments, delta events and live-stream frames are made
//!   of, so each has one encoding and one decoder.
//! * [`Reader`] — a checked cursor over a byte slice that reports the
//!   **absolute byte offset** of every failure ([`CodecError`]), which is
//!   what lets a corrupt archive segment fail loudly with "segment 3,
//!   byte 512" instead of a panic deep in a parser. [`Reader::sub`]
//!   splits off a length-delimited block (an MRT record, a BGP path
//!   attribute) that still reports offsets into the whole input.
//!
//! Writers are plain functions over `Vec<u8>`: encoding is infallible, so
//! a writer type would only add ceremony.

use std::fmt;

use crate::asn::Asn;
use crate::prefix::Ipv4Prefix;
use crate::relationship::Relationship;

/// A decoding failure, carrying the absolute offset where it happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before `wanted` more bytes could be read.
    Truncated {
        /// Offset of the read that failed.
        offset: usize,
        /// Bytes the read needed.
        wanted: usize,
    },
    /// A varint ran past 10 bytes (or overflowed 64 bits).
    Varint {
        /// Offset where the varint started.
        offset: usize,
    },
    /// A value was syntactically readable but semantically impossible
    /// (e.g. a prefix length > 32, an unknown enum tag).
    Invalid {
        /// Offset where the bad value started.
        offset: usize,
        /// What was being decoded.
        what: &'static str,
    },
}

impl CodecError {
    /// The absolute byte offset the error refers to.
    pub fn offset(&self) -> usize {
        match *self {
            CodecError::Truncated { offset, .. }
            | CodecError::Varint { offset }
            | CodecError::Invalid { offset, .. } => offset,
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { offset, wanted } => {
                write!(f, "truncated at byte {offset} (wanted {wanted} more)")
            }
            CodecError::Varint { offset } => write!(f, "malformed varint at byte {offset}"),
            CodecError::Invalid { offset, what } => write!(f, "invalid {what} at byte {offset}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends `v` as an unsigned LEB128 varint.
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a big-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends a big-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends a big-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends a usize as a varint (usize always fits u64 here).
pub fn put_ulen(out: &mut Vec<u8>, v: usize) {
    put_uvarint(out, v as u64);
}

/// ZigZag-maps a signed value so small magnitudes encode short.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_ulen(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// Appends a prefix as `uvarint(bits)` + `u8(len)` — canonical bits
/// compress well under LEB128 only for low addresses, but the `len` byte
/// is what actually matters: most archive prefixes repeat bit patterns
/// the general-purpose layer above dedups via interning anyway.
pub fn put_prefix(out: &mut Vec<u8>, p: Ipv4Prefix) {
    put_uvarint(out, p.bits() as u64);
    out.push(p.len());
}

/// Appends an ASN as a varint.
pub fn put_asn(out: &mut Vec<u8>, a: Asn) {
    put_uvarint(out, a.0 as u64);
}

/// Appends a count-prefixed ASN list (an AS path, a peer list).
pub fn put_asn_list(out: &mut Vec<u8>, list: &[Asn]) {
    put_ulen(out, list.len());
    for &a in list {
        put_asn(out, a);
    }
}

/// Appends a relationship as its one-byte tag — the archive's and the
/// live stream's alike.
pub fn put_relationship(out: &mut Vec<u8>, r: Relationship) {
    out.push(match r {
        Relationship::Provider => 0,
        Relationship::Customer => 1,
        Relationship::Peer => 2,
        Relationship::Sibling => 3,
    });
}

/// A checked read cursor over a byte slice.
///
/// `base` offsets every reported position, so a `Reader` over a slice of
/// a larger file still reports file-absolute offsets in errors.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    base: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`, reporting offsets from 0.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader::with_base(buf, 0)
    }

    /// A reader over `buf` whose reported offsets start at `base`.
    pub fn with_base(buf: &'a [u8], base: usize) -> Reader<'a> {
        Reader { buf, pos: 0, base }
    }

    /// The absolute offset of the next byte to be read.
    pub fn position(&self) -> usize {
        self.base + self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                offset: self.position(),
                wanted: n - self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Splits off the next `n` bytes as a reader of their own, whose
    /// offsets stay absolute: a failure inside the block names the byte
    /// in the whole input.
    pub fn sub(&mut self, n: usize) -> Result<Reader<'a>, CodecError> {
        let base = self.position();
        Ok(Reader::with_base(self.bytes(n)?, base))
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        let b = self.bytes(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.bytes(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.bytes(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an unsigned LEB128 varint.
    pub fn uvarint(&mut self) -> Result<u64, CodecError> {
        let start = self.position();
        let mut v: u64 = 0;
        for i in 0..10 {
            let byte = self.u8()?;
            let payload = (byte & 0x7f) as u64;
            if i == 9 && payload > 1 {
                return Err(CodecError::Varint { offset: start });
            }
            v |= payload << (7 * i);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(CodecError::Varint { offset: start })
    }

    /// Reads a varint and checks it fits a `usize` in this address
    /// space. That is the *only* check: a corrupt count can still be
    /// huge, so callers must not pre-allocate `with_capacity(ulen()?)`
    /// unchecked — cap the capacity (`n.min(…)`) and let the per-item
    /// reads hit [`CodecError::Truncated`] naturally.
    pub fn ulen(&mut self) -> Result<usize, CodecError> {
        let start = self.position();
        let v = self.uvarint()?;
        usize::try_from(v).map_err(|_| CodecError::Invalid {
            offset: start,
            what: "length",
        })
    }

    /// Reads a ZigZag varint.
    pub fn varint(&mut self) -> Result<i64, CodecError> {
        Ok(unzigzag(self.uvarint()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let start = self.position();
        let n = self.ulen()?;
        let raw = self.bytes(n)?;
        std::str::from_utf8(raw).map_err(|_| CodecError::Invalid {
            offset: start,
            what: "utf-8 string",
        })
    }

    /// Reads a prefix written by [`put_prefix`].
    pub fn prefix(&mut self) -> Result<Ipv4Prefix, CodecError> {
        let start = self.position();
        let bits = self.uvarint()?;
        let len = self.u8()?;
        let bits = u32::try_from(bits).map_err(|_| CodecError::Invalid {
            offset: start,
            what: "prefix bits",
        })?;
        if len > 32 {
            return Err(CodecError::Invalid {
                offset: start,
                what: "prefix length",
            });
        }
        Ok(Ipv4Prefix::canonical(bits, len))
    }

    /// Reads an ASN written by [`put_asn`].
    pub fn asn(&mut self) -> Result<Asn, CodecError> {
        let start = self.position();
        let v = self.uvarint()?;
        u32::try_from(v).map(Asn).map_err(|_| CodecError::Invalid {
            offset: start,
            what: "ASN",
        })
    }

    /// Reads a list written by [`put_asn_list`].
    pub fn asn_list(&mut self) -> Result<Vec<Asn>, CodecError> {
        let n = self.ulen()?;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(self.asn()?);
        }
        Ok(out)
    }

    /// Reads a tag written by [`put_relationship`].
    pub fn relationship(&mut self) -> Result<Relationship, CodecError> {
        let start = self.position();
        match self.u8()? {
            0 => Ok(Relationship::Provider),
            1 => Ok(Relationship::Customer),
            2 => Ok(Relationship::Peer),
            3 => Ok(Relationship::Sibling),
            _ => Err(CodecError::Invalid {
                offset: start,
                what: "relationship tag",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uvarint_round_trips_boundaries() {
        let cases = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &cases {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.uvarint().unwrap(), v);
            assert!(r.is_exhausted());
        }
        let mut buf = Vec::new();
        put_uvarint(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        put_uvarint(&mut buf, 128);
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
            let mut buf = Vec::new();
            put_uvarint(&mut buf, zigzag(v));
            assert_eq!(Reader::new(&buf).varint().unwrap(), v);
        }
        // Small magnitudes stay one byte.
        let mut buf = Vec::new();
        put_uvarint(&mut buf, zigzag(-2));
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn truncation_reports_absolute_offsets() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&0xDEAD_BEEFu32.to_be_bytes());
        let mut r = Reader::with_base(&buf[..2], 100);
        assert_eq!(
            r.u32(),
            Err(CodecError::Truncated {
                offset: 100,
                wanted: 2
            })
        );
        // A sub-reader ends where its block does, but names bytes of the
        // whole input.
        let mut r = Reader::with_base(&buf, 100);
        r.u8().unwrap();
        let mut sub = r.sub(2).unwrap();
        assert_eq!(sub.u16(), Ok(0xADBE));
        assert_eq!(
            sub.u8(),
            Err(CodecError::Truncated {
                offset: 103,
                wanted: 1
            })
        );
        assert_eq!(r.position(), 103);
        // A varint whose continuation bit runs off the end.
        let mut r = Reader::with_base(&[0x80, 0x80], 7);
        assert_eq!(
            r.uvarint(),
            Err(CodecError::Truncated {
                offset: 9,
                wanted: 1
            })
        );
    }

    #[test]
    fn overlong_varint_is_rejected() {
        let buf = [0xFFu8; 11];
        assert_eq!(
            Reader::new(&buf).uvarint(),
            Err(CodecError::Varint { offset: 0 })
        );
    }

    #[test]
    fn strings_and_prefixes_round_trip() {
        let mut buf = Vec::new();
        put_str(&mut buf, "day-07");
        let p: Ipv4Prefix = "12.0.16.0/24".parse().unwrap();
        put_prefix(&mut buf, p);
        let mut r = Reader::new(&buf);
        assert_eq!(r.str().unwrap(), "day-07");
        assert_eq!(r.prefix().unwrap(), p);
        assert!(r.is_exhausted());
    }

    #[test]
    fn asns_and_relationships_round_trip_and_reject_bad_values() {
        let path = [Asn(1), Asn(70_000), Asn(u32::MAX)];
        let rels = [
            Relationship::Provider,
            Relationship::Customer,
            Relationship::Peer,
            Relationship::Sibling,
        ];
        let mut buf = Vec::new();
        put_asn(&mut buf, Asn(7018));
        put_asn_list(&mut buf, &path);
        for r in rels {
            put_relationship(&mut buf, r);
        }
        // The tags are the format: 0..=3 in declaration order.
        assert_eq!(buf[buf.len() - 4..], [0, 1, 2, 3]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.asn().unwrap(), Asn(7018));
        assert_eq!(r.asn_list().unwrap(), path);
        for want in rels {
            assert_eq!(r.relationship().unwrap(), want);
        }
        assert!(r.is_exhausted());

        let mut wide = Vec::new();
        put_uvarint(&mut wide, u32::MAX as u64 + 1);
        assert_eq!(
            Reader::with_base(&wide, 40).asn(),
            Err(CodecError::Invalid {
                offset: 40,
                what: "ASN"
            })
        );
        assert_eq!(
            Reader::with_base(&[4], 9).relationship(),
            Err(CodecError::Invalid {
                offset: 9,
                what: "relationship tag"
            })
        );
        // A huge count is not an allocation: the reads run out first.
        let mut huge = Vec::new();
        put_uvarint(&mut huge, u64::MAX >> 1);
        assert!(matches!(
            Reader::new(&huge).asn_list(),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_prefix_length_is_invalid() {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, 0);
        buf.push(33);
        assert!(matches!(
            Reader::new(&buf).prefix(),
            Err(CodecError::Invalid {
                what: "prefix length",
                ..
            })
        ));
    }
}
