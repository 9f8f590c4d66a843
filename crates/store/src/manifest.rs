//! The archive manifest: what segments exist and how to verify them.
//!
//! An archive directory holds one `MANIFEST` plus the segment files it
//! names. The manifest records, per segment: its kind (symbol table,
//! full snapshot, delta snapshot), file name, byte length, CRC-32 and
//! snapshot label — enough to verify every byte on disk *before* any
//! segment is parsed. The manifest protects itself with a trailing
//! CRC-32 over its own bytes.
//!
//! The layout is fixed-width big-endian fields + length-prefixed strings,
//! written with `bgp_types::codec`'s `put_u*` helpers and read through its
//! checked [`Reader`], so every failure names its offset in the file:
//!
//! ```text
//! manifest := magic[8] version:u32 n_segments:u32 segment* crc32:u32
//! segment  := kind:u8 bytes:u64 crc32:u32 str(file) str(label)
//!             flags:u8
//! str      := len:u32 utf8[len]
//! ```
//!
//! ## Version negotiation
//!
//! The segment layout is a versioned contract: this build writes and
//! reads exactly [`FORMAT_VERSION`]; any other version — older (the
//! flag-less v1 rows, v2's per-vantage trie count and `RPD2`
//! directories, v3's full segments that stored SA caches, neighbour
//! counts and a per-vantage body header beside what they follow from,
//! v4's symbol segment that stored prefix and community blocks beside
//! each snapshot's ASNs) or newer — is [`StoreError::Version`]. Within the
//! version, unknown flag bits are rejected loudly: a future writer that
//! needs new per-segment state must bump the version.

use std::path::Path;

use bgp_types::codec::{put_u32, put_u64, CodecError, Reader};

use crate::checksum::crc32;
use crate::error::StoreError;

/// First 8 bytes of every manifest.
pub const MAGIC: [u8; 8] = *b"RPISTOR\x01";

/// The one manifest format version this build writes and reads.
pub const FORMAT_VERSION: u32 = 5;

/// Segment flag: the segment is a **keyframe** — a fully
/// self-contained snapshot that can be decoded with no predecessor, so
/// a cold reader can attach here and replay only the chain after it.
pub const SEG_FLAG_KEYFRAME: u8 = 1;

/// All segment flag bits this build understands.
const SEG_FLAG_MASK: u8 = SEG_FLAG_KEYFRAME;

/// Name of the manifest file inside an archive directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// What a segment contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// The append-only symbol table (one per archive, always first).
    Symbols,
    /// A fully materialized snapshot: flattened tries + caches.
    Full,
    /// A snapshot stored as structured churn events over its predecessor.
    Delta,
    /// The engine's ROA table (route origin authorizations), at most one
    /// per archive. Not a snapshot: excluded from [`Manifest::snapshot_segments`].
    Roa,
}

impl SegmentKind {
    fn to_u8(self) -> u8 {
        match self {
            SegmentKind::Symbols => 0,
            SegmentKind::Full => 1,
            SegmentKind::Delta => 2,
            SegmentKind::Roa => 3,
        }
    }

    fn from_u8(v: u8) -> Option<SegmentKind> {
        match v {
            0 => Some(SegmentKind::Symbols),
            1 => Some(SegmentKind::Full),
            2 => Some(SegmentKind::Delta),
            3 => Some(SegmentKind::Roa),
            _ => None,
        }
    }

    /// Lower-case name for listings (`symbols` / `full` / `delta` / `roa`).
    pub fn name(self) -> &'static str {
        match self {
            SegmentKind::Symbols => "symbols",
            SegmentKind::Full => "full",
            SegmentKind::Delta => "delta",
            SegmentKind::Roa => "roa",
        }
    }
}

/// One segment's manifest row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentEntry {
    /// What the segment holds.
    pub kind: SegmentKind,
    /// File name inside the archive directory.
    pub file: String,
    /// Exact byte length of the file.
    pub bytes: u64,
    /// CRC-32 of the file's bytes.
    pub crc32: u32,
    /// Snapshot label (empty for the symbols segment).
    pub label: String,
    /// Per-segment flag bits ([`SEG_FLAG_KEYFRAME`]).
    pub flags: u8,
}

impl SegmentEntry {
    /// Whether the segment is a self-contained keyframe.
    pub fn is_keyframe(&self) -> bool {
        self.flags & SEG_FLAG_KEYFRAME != 0
    }
}

/// The archive's table of contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Format version ([`FORMAT_VERSION`] when written by this build).
    pub version: u32,
    /// Segment rows, in load order (symbols first, then snapshots).
    pub segments: Vec<SegmentEntry>,
}

impl Default for Manifest {
    /// An empty manifest at this build's [`FORMAT_VERSION`].
    fn default() -> Manifest {
        Manifest {
            version: FORMAT_VERSION,
            segments: Vec::new(),
        }
    }
}

impl Manifest {
    /// Total bytes across all segments (the archive's on-disk size,
    /// manifest excluded).
    pub fn total_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes).sum()
    }

    /// The snapshot segments (full and delta rows only — symbol-table and
    /// ROA segments are engine state, not snapshots), in order.
    pub fn snapshot_segments(&self) -> impl Iterator<Item = (usize, &SegmentEntry)> {
        self.segments
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.kind, SegmentKind::Full | SegmentKind::Delta))
    }

    /// Serializes the manifest (including its self-checksum).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        put_u32(&mut out, self.version);
        put_u32(&mut out, self.segments.len() as u32);
        for seg in &self.segments {
            out.push(seg.kind.to_u8());
            put_u64(&mut out, seg.bytes);
            put_u32(&mut out, seg.crc32);
            put_str(&mut out, &seg.file);
            put_str(&mut out, &seg.label);
            out.push(seg.flags);
        }
        let crc = crc32(&out);
        put_u32(&mut out, crc);
        out
    }

    /// Writes the manifest into `dir`, refusing to overwrite an existing
    /// one unless `force` is set. Creates the directory if needed.
    pub fn write(&self, dir: &Path, force: bool) -> Result<(), StoreError> {
        let path = dir.join(MANIFEST_FILE);
        if path.exists() && !force {
            return Err(StoreError::AlreadyExists { path });
        }
        std::fs::create_dir_all(dir).map_err(|source| StoreError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
        std::fs::write(&path, self.to_bytes()).map_err(|source| StoreError::Io { path, source })
    }

    /// Reads and verifies the manifest of the archive at `dir`.
    ///
    /// A missing directory, a directory with no `MANIFEST`, wrong magic,
    /// an unsupported version and a failed self-checksum are each their
    /// own typed error.
    pub fn read(dir: &Path) -> Result<Manifest, StoreError> {
        let path = dir.join(MANIFEST_FILE);
        if !path.is_file() {
            return Err(StoreError::NotAnArchive {
                path: dir.to_path_buf(),
            });
        }
        let raw = std::fs::read(&path).map_err(|source| StoreError::Io {
            path: path.clone(),
            source,
        })?;
        Manifest::parse(&raw, &path)
    }

    /// Parses manifest bytes (exposed for tests).
    pub fn parse(raw: &[u8], path: &Path) -> Result<Manifest, StoreError> {
        let total = raw.len();
        if !raw.starts_with(&MAGIC) {
            return Err(StoreError::BadMagic {
                path: path.to_path_buf(),
            });
        }
        // Self-checksum: everything before the final u32.
        if total < MAGIC.len() + 4 {
            return Err(StoreError::ManifestCorrupt {
                offset: total,
                what: "manifest shorter than magic + checksum".into(),
            });
        }
        let (body, trailer) = raw.split_at(total - 4);
        let recorded = Reader::with_base(trailer, total - 4)
            .u32()
            .map_err(truncated("checksum"))?;
        let actual = crc32(body);
        if recorded != actual {
            return Err(StoreError::ManifestCorrupt {
                offset: total - 4,
                what: format!(
                    "self-checksum mismatch (recorded {recorded:#010x}, bytes hash to {actual:#010x})"
                ),
            });
        }

        let mut r = Reader::with_base(&body[MAGIC.len()..], MAGIC.len());
        let version = r.u32().map_err(truncated("version"))?;
        if version != FORMAT_VERSION {
            return Err(StoreError::Version {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let n_segments = r.u32().map_err(truncated("segment count"))?;
        let mut segments = Vec::with_capacity(n_segments.min(1 << 16) as usize);
        for i in 0..n_segments {
            let offset = r.position();
            let kind_raw = r.u8().map_err(truncated("segment kind"))?;
            let kind =
                SegmentKind::from_u8(kind_raw).ok_or_else(|| StoreError::ManifestCorrupt {
                    offset,
                    what: format!("unknown segment kind {kind_raw} in row {i}"),
                })?;
            let bytes = r.u64().map_err(truncated("segment length"))?;
            let crc32 = r.u32().map_err(truncated("segment checksum"))?;
            let file = get_str(&mut r, "segment file name")?;
            let label = get_str(&mut r, "segment label")?;
            let offset = r.position();
            let flags = r.u8().map_err(truncated("segment flags"))?;
            if flags & !SEG_FLAG_MASK != 0 {
                return Err(StoreError::ManifestCorrupt {
                    offset,
                    what: format!("unknown segment flags {flags:#04x} in row {i}"),
                });
            }
            segments.push(SegmentEntry {
                kind,
                file,
                bytes,
                crc32,
                label,
                flags,
            });
        }
        if !r.is_exhausted() {
            return Err(StoreError::ManifestCorrupt {
                offset: r.position(),
                what: format!("{} trailing bytes after segment table", r.remaining()),
            });
        }
        Ok(Manifest { version, segments })
    }
}

/// The error for a read of `what` that ran off the end of the manifest.
fn truncated(what: &str) -> impl Fn(CodecError) -> StoreError + '_ {
    move |e| StoreError::ManifestCorrupt {
        offset: e.offset(),
        what: format!("truncated {what}"),
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn get_str(r: &mut Reader, what: &str) -> Result<String, StoreError> {
    let offset = r.position();
    let n = r.u32().map_err(|e| StoreError::ManifestCorrupt {
        offset: e.offset(),
        what: format!("truncated {what} length"),
    })?;
    let raw = r.bytes(n as usize).map_err(truncated(what))?;
    String::from_utf8(raw.to_vec()).map_err(|_| StoreError::ManifestCorrupt {
        offset,
        what: format!("{what} is not UTF-8"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        let mut m = Manifest::default();
        m.segments.push(SegmentEntry {
            kind: SegmentKind::Symbols,
            file: "symbols.seg".into(),
            bytes: 1234,
            crc32: 0xAABBCCDD,
            label: String::new(),
            flags: 0,
        });
        m.segments.push(SegmentEntry {
            kind: SegmentKind::Full,
            file: "snap-0000.seg".into(),
            bytes: 9876,
            crc32: 1,
            label: "day-01".into(),
            flags: SEG_FLAG_KEYFRAME,
        });
        m.segments.push(SegmentEntry {
            kind: SegmentKind::Delta,
            file: "snap-0001.seg".into(),
            bytes: 55,
            crc32: 2,
            label: "day-02".into(),
            flags: 0,
        });
        m.segments.push(SegmentEntry {
            kind: SegmentKind::Roa,
            file: "roas.seg".into(),
            bytes: 77,
            crc32: 3,
            label: String::new(),
            flags: 0,
        });
        m
    }

    #[test]
    fn round_trips() {
        let m = sample();
        let bytes = m.to_bytes();
        // The bytes the format-v5 writer produces: a round trip alone
        // would pass if writer and parser drifted together.
        assert_eq!((bytes.len(), crc32(&bytes)), (165, 0xcf90_55b7));
        let back = Manifest::parse(&bytes, Path::new("MANIFEST")).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.total_bytes(), 1234 + 9876 + 55 + 77);
        // Symbols and ROA rows are engine state, not snapshots.
        assert_eq!(back.snapshot_segments().count(), 2);
        assert!(back.segments[1].is_keyframe());
        assert!(!back.segments[2].is_keyframe());
    }

    #[test]
    fn unknown_segment_flags_are_rejected() {
        let mut m = sample();
        m.segments[1].flags = 0x80 | SEG_FLAG_KEYFRAME;
        let bytes = m.to_bytes();
        assert!(matches!(
            Manifest::parse(&bytes, Path::new("M")),
            Err(StoreError::ManifestCorrupt { .. })
        ));
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = sample().to_bytes();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            Manifest::parse(&bytes, Path::new("M")),
            Err(StoreError::BadMagic { .. })
        ));
    }

    #[test]
    fn stale_version_is_typed() {
        // Only FORMAT_VERSION is read: an older (v1 to v4) or newer
        // version field is refused before any row is parsed.
        for version in [1, 2, 3, 4, FORMAT_VERSION + 1] {
            let mut m = sample();
            m.version = version;
            assert!(matches!(
                Manifest::parse(&m.to_bytes(), Path::new("M")),
                Err(StoreError::Version {
                    found,
                    supported: FORMAT_VERSION
                }) if found == version
            ));
        }
    }

    #[test]
    fn flipped_byte_fails_self_checksum() {
        let mut bytes = sample().to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert!(matches!(
            Manifest::parse(&bytes, Path::new("M")),
            Err(StoreError::ManifestCorrupt { .. })
        ));
    }

    #[test]
    fn every_truncation_is_loud() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Manifest::parse(&bytes[..cut], Path::new("M")).is_err(),
                "cut at {cut} parsed silently"
            );
        }
        // A cut body under a checksum that matches it passes the
        // self-check, so the row reads themselves must catch it.
        let body = &bytes[..bytes.len() - 4];
        for cut in MAGIC.len()..body.len() {
            let mut resealed = body[..cut].to_vec();
            resealed.extend_from_slice(&crc32(&resealed).to_be_bytes());
            match Manifest::parse(&resealed, Path::new("M")) {
                Err(StoreError::ManifestCorrupt { offset, .. }) => {
                    assert!(offset <= cut, "cut at {cut} reported at {offset}")
                }
                other => panic!("cut at {cut} gave {other:?}"),
            }
        }
    }

    #[test]
    fn write_refuses_overwrite_without_force() {
        let dir = std::env::temp_dir().join(format!("rpi-store-man-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let m = sample();
        m.write(&dir, false).unwrap();
        assert!(matches!(
            m.write(&dir, false),
            Err(StoreError::AlreadyExists { .. })
        ));
        m.write(&dir, true).unwrap();
        assert_eq!(Manifest::read(&dir).unwrap(), m);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(matches!(
            Manifest::read(&dir),
            Err(StoreError::NotAnArchive { .. })
        ));
    }
}
