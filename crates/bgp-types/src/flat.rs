//! A flattened, pointer-free on-disk layout for prefix tries.
//!
//! [`CowTrie`] is the in-memory shape of a snapshot's route tables;
//! this module is its archive shape: the trie serialized **pre-order**
//! with explicit skip offsets, so the structure is readable directly
//! from a mapped (or merely `read`) byte buffer without building nodes —
//! [`FlatTrie`] answers exact and longest-prefix-match lookups straight
//! off the bytes — while [`read_trie`] decodes the same bytes back into
//! ordered `(prefix, value)` pairs for rebuilding a [`CowTrie`].
//!
//! ## Layout
//!
//! ```text
//! trie    := uvarint(count) node?              (node present iff count > 0)
//! node    := header:u8
//!            [uvarint(value_len) value_bytes]  (header bit 0)
//!            [uvarint(skip)]                   (both children present:
//!                                               skip = child0's encoded size)
//!            [node(child0)]                    (header bit 1)
//!            [node(child1)]                    (header bit 2)
//! ```
//!
//! The node's prefix is implicit in the path from the root (bit *d*
//! chooses child at depth *d*): a binary trie, one bit per level, where
//! the in-memory [`CowTrie`] takes 4. A
//! two-child node records how many bytes child 0 occupies so a reader
//! can jump straight to child 1 — that one offset is what makes the
//! layout random-access. Serialization is **canonicalizing**: only
//! nodes on the spine of a live prefix are written, so interior nodes
//! left behind by removals do not survive a save/load round trip.
//!
//! Values are opaque length-prefixed byte strings; the caller supplies
//! the value codec. Every decode is bounds-checked and reports absolute
//! byte offsets via [`CodecError`] — a truncated or bit-flipped buffer
//! fails loudly, never panics.

use crate::codec::{put_uvarint, CodecError, Reader};
use crate::prefix::Ipv4Prefix;
use crate::trie::CowTrie;

const HAS_VALUE: u8 = 1;
const HAS_C0: u8 = 2;
const HAS_C1: u8 = 4;

/// Bit `depth` (0-based from the MSB) of `bits`.
fn bit_at(bits: u32, depth: u8) -> usize {
    ((bits >> (31 - depth as u32)) & 1) as usize
}

/// Serializes sorted `(prefix, value)` pairs (the order [`CowTrie::iter`]
/// produces) into the flattened layout. `enc` writes one value's bytes
/// (the length prefix is added here).
///
/// Panics (debug) if `pairs` is not sorted — lexicographic pair order is
/// exactly pre-order, which is what the recursive writer consumes.
pub fn write_pairs<V>(
    pairs: &[(Ipv4Prefix, V)],
    out: &mut Vec<u8>,
    enc: &mut dyn FnMut(&V, &mut Vec<u8>),
) {
    debug_assert!(
        pairs.windows(2).all(|w| w[0].0 < w[1].0),
        "flat::write_pairs wants strictly sorted pairs"
    );
    put_uvarint(out, pairs.len() as u64);
    if !pairs.is_empty() {
        write_node(pairs, 0, out, enc);
    }
}

/// Serializes a [`CowTrie`] (see [`write_pairs`]).
pub fn write_trie<V>(trie: &CowTrie<V>, out: &mut Vec<u8>, enc: &mut dyn FnMut(&V, &mut Vec<u8>)) {
    let pairs: Vec<(Ipv4Prefix, &V)> = trie.iter().collect();
    write_pairs(&pairs, out, &mut |v, out| enc(v, out));
}

fn write_node<V>(
    pairs: &[(Ipv4Prefix, V)],
    depth: u8,
    out: &mut Vec<u8>,
    enc: &mut dyn FnMut(&V, &mut Vec<u8>),
) {
    let (value, rest) = match pairs.first() {
        Some((p, v)) if p.len() == depth => (Some(v), &pairs[1..]),
        _ => (None, pairs),
    };
    // All of `rest` is strictly deeper than `depth`; bit `depth` splits it
    // into the two children, contiguously (the pairs are sorted by bits).
    let split = rest.partition_point(|(p, _)| bit_at(p.bits(), depth) == 0);
    let (c0, c1) = rest.split_at(split);

    let mut header = 0u8;
    if value.is_some() {
        header |= HAS_VALUE;
    }
    if !c0.is_empty() {
        header |= HAS_C0;
    }
    if !c1.is_empty() {
        header |= HAS_C1;
    }
    out.push(header);
    if let Some(v) = value {
        let mut tmp = Vec::new();
        enc(v, &mut tmp);
        put_uvarint(out, tmp.len() as u64);
        out.extend_from_slice(&tmp);
    }
    if !c0.is_empty() && !c1.is_empty() {
        // Two children: record child 0's encoded size so a reader can
        // jump to child 1.
        let mut tmp = Vec::new();
        write_node(c0, depth + 1, &mut tmp, enc);
        put_uvarint(out, tmp.len() as u64);
        out.extend_from_slice(&tmp);
        write_node(c1, depth + 1, out, enc);
    } else if !c0.is_empty() {
        write_node(c0, depth + 1, out, enc);
    } else if !c1.is_empty() {
        write_node(c1, depth + 1, out, enc);
    }
}

/// A zero-copy view of a flattened trie: lookups walk the byte buffer
/// directly, no nodes are built. Every read is bounds-checked, so a
/// corrupt buffer yields a [`CodecError`] (with the absolute offset),
/// never a panic.
#[derive(Debug, Clone, Copy)]
pub struct FlatTrie<'a> {
    buf: &'a [u8],
    /// Offset base for error reporting (the buffer's position in its file).
    base: usize,
    /// Stored pair count.
    count: usize,
    /// Offset of the root node record inside `buf`.
    root: usize,
}

impl<'a> FlatTrie<'a> {
    /// Wraps `buf` (which must start at the `uvarint(count)` written by
    /// [`write_pairs`]); `base` is `buf`'s offset inside its file, used
    /// only for error reporting.
    pub fn new(buf: &'a [u8], base: usize) -> Result<FlatTrie<'a>, CodecError> {
        let mut r = Reader::with_base(buf, base);
        let count = r.ulen()?;
        let root = r.position() - base;
        Ok(FlatTrie {
            buf,
            base,
            count,
            root,
        })
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` when no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    fn reader_at(&self, offset: usize) -> Reader<'a> {
        Reader::with_base(&self.buf[offset..], self.base + offset)
    }

    /// Walks one node record starting at `offset`; returns the value
    /// bytes (if the node holds one) and the offsets of both children.
    /// `depth` is the node's trie depth — mapped bytes are untrusted, so
    /// a node claiming children below the /32 floor is corruption, as is
    /// any header bit this layout never writes.
    fn node(&self, offset: usize, depth: u8) -> Result<FlatNode<'a>, CodecError> {
        let mut r = self.reader_at(offset);
        let header_offset = r.position();
        let header = r.u8()?;
        if header & !(HAS_VALUE | HAS_C0 | HAS_C1) != 0 {
            return Err(CodecError::Invalid {
                offset: header_offset,
                what: "trie node header",
            });
        }
        if depth == 32 && header & (HAS_C0 | HAS_C1) != 0 {
            return Err(CodecError::Invalid {
                offset: header_offset,
                what: "trie depth",
            });
        }
        let value = if header & HAS_VALUE != 0 {
            let n = r.ulen()?;
            Some(r.bytes(n)?)
        } else {
            None
        };
        let (c0, c1) = match (header & HAS_C0 != 0, header & HAS_C1 != 0) {
            (true, true) => {
                let skip_offset = r.position();
                let skip = r.ulen()?;
                let c0 = r.position() - self.base;
                // The skip is untrusted input: a corrupt value must fail
                // as a decode error, not index out of bounds.
                let c1 = c0
                    .checked_add(skip)
                    .filter(|&c1| c1 < self.buf.len())
                    .ok_or(CodecError::Invalid {
                        offset: skip_offset,
                        what: "trie skip offset",
                    })?;
                (Some(c0), Some(c1))
            }
            (true, false) => (Some(r.position() - self.base), None),
            (false, true) => (None, Some(r.position() - self.base)),
            (false, false) => (None, None),
        };
        Ok(FlatNode { value, c0, c1 })
    }

    /// Exact-match lookup straight off the buffer: the value's bytes.
    pub fn get(&self, prefix: Ipv4Prefix) -> Result<Option<&'a [u8]>, CodecError> {
        if self.count == 0 {
            return Ok(None);
        }
        let mut offset = self.root;
        for depth in 0..prefix.len() {
            let node = self.node(offset, depth)?;
            match if bit_at(prefix.bits(), depth) == 0 {
                node.c0
            } else {
                node.c1
            } {
                Some(next) => offset = next,
                None => return Ok(None),
            }
        }
        Ok(self.node(offset, prefix.len())?.value)
    }

    /// Calls `f` with every stored prefix covering `prefix` (itself
    /// included) and its value bytes, shortest first —
    /// [`CowTrie::covering`] off the raw buffer, one walk down the spine.
    pub fn covering(
        &self,
        prefix: Ipv4Prefix,
        mut f: impl FnMut(Ipv4Prefix, &'a [u8]),
    ) -> Result<(), CodecError> {
        if self.count == 0 {
            return Ok(());
        }
        let mut offset = self.root;
        for depth in 0..=prefix.len() {
            let node = self.node(offset, depth)?;
            if let Some(v) = node.value {
                f(Ipv4Prefix::canonical(prefix.bits(), depth), v);
            }
            if depth == prefix.len() {
                break;
            }
            match if bit_at(prefix.bits(), depth) == 0 {
                node.c0
            } else {
                node.c1
            } {
                Some(next) => offset = next,
                None => break,
            }
        }
        Ok(())
    }

    /// The longest stored prefix covering `prefix` (itself included) and
    /// its value bytes — the last hit of [`Self::covering`].
    pub fn best_match(
        &self,
        prefix: Ipv4Prefix,
    ) -> Result<Option<(Ipv4Prefix, &'a [u8])>, CodecError> {
        let mut best = None;
        self.covering(prefix, |q, v| best = Some((q, v)))?;
        Ok(best)
    }

    /// Decodes `value` — bytes one of this trie's lookups returned — with
    /// `dec`, under the contract [`read_trie`] decodes every value with:
    /// a reader scoped to exactly the value's bytes, at their absolute
    /// offset, where a value that reads short is corruption.
    pub fn read_value<T>(
        &self,
        value: &'a [u8],
        dec: &mut dyn FnMut(&mut Reader<'_>) -> Result<T, CodecError>,
    ) -> Result<T, CodecError> {
        let at = value.as_ptr() as usize - self.buf.as_ptr() as usize;
        debug_assert!(at + value.len() <= self.buf.len(), "a value of this trie");
        decode_scoped(value, self.base + at, dec)
    }
}

/// Decodes one value's bytes, which sit at absolute offset `at`; every
/// byte must be consumed.
fn decode_scoped<T>(
    raw: &[u8],
    at: usize,
    dec: &mut dyn FnMut(&mut Reader<'_>) -> Result<T, CodecError>,
) -> Result<T, CodecError> {
    let mut vr = Reader::with_base(raw, at);
    let value = dec(&mut vr)?;
    if !vr.is_exhausted() {
        return Err(CodecError::Invalid {
            offset: vr.position(),
            what: "trie value length",
        });
    }
    Ok(value)
}

struct FlatNode<'a> {
    value: Option<&'a [u8]>,
    c0: Option<usize>,
    c1: Option<usize>,
}

/// Sequentially decodes a flattened trie back into lexicographically
/// ordered `(prefix, value)` pairs. `dec` decodes one value from a
/// reader scoped to exactly the value's bytes (a value that reads short
/// or long is a corruption error, as is a skip offset that disagrees
/// with the child's actual size).
pub fn read_trie<T>(
    r: &mut Reader<'_>,
    dec: &mut dyn FnMut(&mut Reader<'_>) -> Result<T, CodecError>,
) -> Result<Vec<(Ipv4Prefix, T)>, CodecError> {
    let count_offset = r.position();
    let count = r.ulen()?;
    let mut out = Vec::with_capacity(count.min(1 << 20));
    if count > 0 {
        read_node(r, 0, 0, &mut out, dec)?;
    }
    if out.len() != count {
        return Err(CodecError::Invalid {
            offset: count_offset,
            what: "trie pair count",
        });
    }
    Ok(out)
}

fn read_node<T>(
    r: &mut Reader<'_>,
    bits: u32,
    depth: u8,
    out: &mut Vec<(Ipv4Prefix, T)>,
    dec: &mut dyn FnMut(&mut Reader<'_>) -> Result<T, CodecError>,
) -> Result<(), CodecError> {
    let node_offset = r.position();
    let header = r.u8()?;
    if header & !(HAS_VALUE | HAS_C0 | HAS_C1) != 0 {
        return Err(CodecError::Invalid {
            offset: node_offset,
            what: "trie node header",
        });
    }
    // Host routes are the floor of the trie: a /32 node claiming
    // children is corrupt, and descending past depth 32 would underflow
    // the bit arithmetic below.
    if depth == 32 && header & (HAS_C0 | HAS_C1) != 0 {
        return Err(CodecError::Invalid {
            offset: node_offset,
            what: "trie depth",
        });
    }
    if header & HAS_VALUE != 0 {
        let vlen = r.ulen()?;
        let vstart = r.position();
        let raw = r.bytes(vlen)?;
        let value = decode_scoped(raw, vstart, dec)?;
        out.push((Ipv4Prefix::canonical(bits, depth), value));
    }
    match (header & HAS_C0 != 0, header & HAS_C1 != 0) {
        (true, true) => {
            let skip_offset = r.position();
            let skip = r.ulen()?;
            let c0_start = r.position();
            read_node(r, bits, depth + 1, out, dec)?;
            if r.position() - c0_start != skip {
                return Err(CodecError::Invalid {
                    offset: skip_offset,
                    what: "trie skip offset",
                });
            }
            read_node(r, bits | (1u32 << (31 - depth as u32)), depth + 1, out, dec)
        }
        (true, false) => read_node(r, bits, depth + 1, out, dec),
        (false, true) => read_node(r, bits | (1u32 << (31 - depth as u32)), depth + 1, out, dec),
        (false, false) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::put_str;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn enc_u64(v: &u64, out: &mut Vec<u8>) {
        put_uvarint(out, *v);
    }

    fn build(pairs: &[(&str, u64)]) -> (CowTrie<u64>, Vec<u8>) {
        let mut trie = CowTrie::new();
        for &(s, v) in pairs {
            trie.insert(p(s), v);
        }
        let mut buf = Vec::new();
        write_trie(&trie, &mut buf, &mut enc_u64);
        (trie, buf)
    }

    #[test]
    fn empty_trie_round_trips() {
        let (_, buf) = build(&[]);
        assert_eq!(buf, vec![0]);
        let flat = FlatTrie::new(&buf, 0).unwrap();
        assert!(flat.is_empty());
        assert_eq!(flat.get(p("10.0.0.0/8")).unwrap(), None);
        let pairs = read_trie(&mut Reader::new(&buf), &mut |r| r.uvarint()).unwrap();
        assert!(pairs.is_empty());
    }

    #[test]
    fn sequential_decode_round_trips() {
        let (trie, buf) = build(&[
            ("12.0.0.0/8", 1),
            ("12.0.0.0/19", 2),
            ("12.0.16.0/24", 3),
            ("192.168.0.0/16", 4),
            ("0.0.0.0/0", 5),
        ]);
        let mut r = Reader::new(&buf);
        let pairs = read_trie(&mut r, &mut |r| r.uvarint()).unwrap();
        assert!(r.is_exhausted());
        let want: Vec<(Ipv4Prefix, u64)> = trie.iter().map(|(q, v)| (q, *v)).collect();
        assert_eq!(pairs, want);
    }

    #[test]
    fn flat_view_matches_cow_lookups() {
        // Deterministic pseudo-random universe, as the CowTrie tests use.
        let mut trie: CowTrie<u64> = CowTrie::new();
        let mut x = 0xF1A7u64;
        let mut step = || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^ (z >> 27)
        };
        for _ in 0..400 {
            let r = step();
            let prefix = Ipv4Prefix::canonical(((r >> 8) as u32) & 0xFF_F00000, (r % 25) as u8);
            trie.insert(prefix, r);
        }
        let mut buf = Vec::new();
        write_trie(&trie, &mut buf, &mut enc_u64);
        let flat = FlatTrie::new(&buf, 0).unwrap();
        assert_eq!(flat.len(), trie.len());
        for _ in 0..2000 {
            let r = step();
            let probe = Ipv4Prefix::canonical((r >> 16) as u32, (r % 33) as u8);
            // Exact match.
            let got = flat
                .get(probe)
                .unwrap()
                .map(|raw| Reader::new(raw).uvarint().unwrap());
            assert_eq!(got, trie.get(probe).copied(), "get {probe}");
            // Longest-prefix match.
            let got = flat
                .best_match(probe)
                .unwrap()
                .map(|(q, raw)| (q, Reader::new(raw).uvarint().unwrap()));
            assert_eq!(
                got,
                trie.best_match(probe).map(|(q, v)| (q, *v)),
                "best_match {probe}"
            );
        }
    }

    /// The covering walk is [`CowTrie::covering`] off the bytes: over a
    /// universe packed into one /12, so covers nest several deep, every
    /// probe sees the same covers in the same order, each value decoding
    /// to the stored one, and `best_match` is the last of them.
    #[test]
    fn covering_walk_matches_cow_covers() {
        let mut trie: CowTrie<u64> = CowTrie::new();
        let mut x = 0xC0BEu64;
        let mut step = || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^ (z >> 27)
        };
        for _ in 0..300 {
            let r = step();
            let bits = 0x0A00_0000 | ((r >> 12) as u32 & 0x000F_FF00);
            trie.insert(Ipv4Prefix::canonical(bits, (r % 25) as u8), r);
        }
        trie.insert(p("0.0.0.0/0"), 0);
        let mut buf = Vec::new();
        write_trie(&trie, &mut buf, &mut enc_u64);
        let flat = FlatTrie::new(&buf, 0).unwrap();
        let mut deepest = 0;
        for _ in 0..2000 {
            let r = step();
            let bits = 0x0A00_0000 | ((r >> 8) as u32 & 0x000F_FFFF);
            let probe = Ipv4Prefix::canonical(bits, (r % 33) as u8);
            let mut got = Vec::new();
            flat.covering(probe, |q, raw| {
                let v = flat.read_value(raw, &mut |r| r.uvarint()).unwrap();
                got.push((q, v));
            })
            .unwrap();
            let want: Vec<(Ipv4Prefix, u64)> = trie.covering(probe).map(|(q, v)| (q, *v)).collect();
            assert_eq!(got, want, "covering {probe}");
            let best = flat.best_match(probe).unwrap().map(|(q, _)| q);
            assert_eq!(best, want.last().map(|&(q, _)| q), "best_match {probe}");
            deepest = deepest.max(want.len());
        }
        assert!(deepest >= 4, "covers nest only {deepest} deep");
    }

    /// A value that decodes short of its bytes is corruption, at the
    /// absolute offset where the leftover starts.
    #[test]
    fn read_value_rejects_leftover_bytes() {
        let (_, buf) = build(&[("10.0.0.0/8", 300)]);
        let flat = FlatTrie::new(&buf, 100).unwrap();
        let raw = flat.get(p("10.0.0.0/8")).unwrap().unwrap();
        assert_eq!(flat.read_value(raw, &mut |r| r.uvarint()).unwrap(), 300);
        let at = 100 + (raw.as_ptr() as usize - buf.as_ptr() as usize);
        assert_eq!(
            flat.read_value(raw, &mut |r| r.u8()),
            Err(CodecError::Invalid {
                offset: at + 1,
                what: "trie value length"
            })
        );
    }

    #[test]
    fn serialization_canonicalizes_removed_spines() {
        let mut trie: CowTrie<u64> = CowTrie::new();
        trie.insert(p("10.0.0.0/8"), 1);
        trie.insert(p("10.1.2.0/24"), 2);
        trie.remove(p("10.1.2.0/24")); // leaves dead interior nodes in memory
        let mut buf = Vec::new();
        write_trie(&trie, &mut buf, &mut enc_u64);
        let mut shallow = CowTrie::new();
        shallow.insert(p("10.0.0.0/8"), 1u64);
        let mut expect = Vec::new();
        write_trie(&shallow, &mut expect, &mut enc_u64);
        assert_eq!(buf, expect, "dead spines must not be serialized");
    }

    #[test]
    fn truncated_buffer_fails_with_offset_not_panic() {
        let (_, buf) = build(&[("12.0.0.0/8", 1), ("12.128.0.0/9", 2)]);
        for cut in 0..buf.len() {
            let err = read_trie(&mut Reader::new(&buf[..cut]), &mut |r| r.uvarint());
            assert!(err.is_err(), "cut at {cut} must fail");
        }
        // The flat view is checked too.
        let flat = FlatTrie::new(&buf[..buf.len() - 1], 0);
        if let Ok(flat) = flat {
            assert!(
                flat.get(p("12.128.0.0/9")).is_err()
                    || flat.get(p("12.128.0.0/9")).unwrap().is_none()
            );
        }
    }

    #[test]
    fn flat_view_rejects_out_of_bounds_skip_without_panicking() {
        // count=1, two-child header, skip=200 pointing far past the end.
        let buf = [1u8, HAS_C0 | HAS_C1, 200, 0, 0];
        let flat = FlatTrie::new(&buf, 0).unwrap();
        let probe = p("128.0.0.0/1"); // bit 1 → must resolve child 1 via the skip
        assert!(matches!(
            flat.get(probe),
            Err(CodecError::Invalid {
                what: "trie skip offset",
                ..
            })
        ));
        assert!(flat.best_match(probe).is_err());
        // A skip near u64::MAX must not overflow the offset arithmetic.
        let buf = [
            1u8,
            HAS_C0 | HAS_C1,
            0xFF,
            0xFF,
            0xFF,
            0xFF,
            0xFF,
            0xFF,
            0xFF,
            0xFF,
            0xFF,
            0x01,
        ];
        let flat = FlatTrie::new(&buf, 0).unwrap();
        assert!(flat.get(probe).is_err());
    }

    #[test]
    fn child_chain_past_depth_32_is_rejected_not_panicking() {
        // count=1, then 33 single-child (bit 1) headers: the 33rd node
        // sits at depth 32 and must not be allowed to claim a child.
        let mut buf = vec![1u8];
        buf.extend(std::iter::repeat_n(HAS_C1, 33));
        assert!(matches!(
            read_trie(&mut Reader::new(&buf), &mut |r| r.uvarint()),
            Err(CodecError::Invalid {
                what: "trie depth",
                ..
            })
        ));
        // A 33-deep chain of two-child headers must be rejected too.
        let mut buf = vec![1u8];
        for _ in 0..33 {
            buf.push(HAS_C0 | HAS_C1);
            buf.push(1); // skip varint (wrong, but depth fails first at the floor)
        }
        assert!(read_trie(&mut Reader::new(&buf), &mut |r| r.uvarint()).is_err());
    }

    #[test]
    fn flat_view_rejects_unknown_header_bits() {
        // count=1, header with a reserved bit set.
        let buf = [1u8, 0x80];
        let flat = FlatTrie::new(&buf, 0).unwrap();
        assert!(matches!(
            flat.get(p("0.0.0.0/0")),
            Err(CodecError::Invalid {
                what: "trie node header",
                ..
            })
        ));
        assert!(flat.best_match(p("10.0.0.0/8")).is_err());
        // The sequential decoder agrees.
        assert!(matches!(
            read_trie(&mut Reader::new(&buf), &mut |r| r.uvarint()),
            Err(CodecError::Invalid {
                what: "trie node header",
                ..
            })
        ));
    }

    #[test]
    fn flat_view_rejects_children_below_host_route_floor() {
        // count=1, then 33 single-child (bit 1) headers: the node reached
        // at depth 32 claims a child, which the view must refuse even
        // though a /32 probe stops descending there.
        let mut buf = vec![1u8];
        buf.extend(std::iter::repeat_n(HAS_C1, 33));
        let flat = FlatTrie::new(&buf, 0).unwrap();
        assert!(matches!(
            flat.get(p("255.255.255.255/32")),
            Err(CodecError::Invalid {
                what: "trie depth",
                ..
            })
        ));
        assert!(flat.best_match(p("255.255.255.255/32")).is_err());
    }

    #[test]
    fn corrupt_skip_offset_is_detected() {
        let (_, mut buf) = build(&[("0.0.0.0/1", 1), ("128.0.0.0/1", 2)]);
        // The root has two children, so a skip varint sits right after the
        // header byte; nudge it.
        let skip_pos = 1;
        buf[skip_pos] = buf[skip_pos].wrapping_add(1);
        let err = read_trie(&mut Reader::new(&buf), &mut |r| r.uvarint());
        assert!(err.is_err(), "bad skip must be rejected: {err:?}");
    }

    #[test]
    fn string_values_round_trip() {
        let mut trie: CowTrie<String> = CowTrie::new();
        trie.insert(p("10.0.0.0/8"), "ten".into());
        trie.insert(p("11.0.0.0/8"), "eleven".into());
        let mut buf = Vec::new();
        write_trie(&trie, &mut buf, &mut |v, out| put_str(out, v));
        let pairs = read_trie(&mut Reader::new(&buf), &mut |r| {
            r.str().map(|s| s.to_string())
        })
        .unwrap();
        assert_eq!(
            pairs,
            vec![
                (p("10.0.0.0/8"), "ten".to_string()),
                (p("11.0.0.0/8"), "eleven".to_string())
            ]
        );
    }
}
