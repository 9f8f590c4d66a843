//! Saving and cold-starting the engine through `rpi-store` archives.
//!
//! `rpi-store` owns the container (manifest, checksums, segment files);
//! this module owns what goes *inside* the segments — the engine's
//! interned world, serialized so that loading is a linear decode instead
//! of a re-simulation:
//!
//! * **symbol segment** — the [`WorldInterner`] tables in symbol order,
//!   one *block per snapshot* (the interner is append-only across a
//!   series, so each block is just what its snapshot added; block
//!   boundaries restore the per-snapshot watermarks on load).
//! * **full segment** (format v4) — one snapshot, each fact stored once:
//!
//!   ```text
//!   full := str(label) flags:u8 [n (a b rel)*]   edges unless FLAG_REL_SHARED
//!           trie*                               one per vantage, back to back
//!           typicality  community-classes       the LG analyses
//!           directory   dir_offset:u64 "RPD3"
//!   directory := n (sym kind:u8 route_count span_start span_len)*
//!   ```
//!
//!   Each trie is a vantage's table in the flattened pointer-free layout
//!   of [`bgp_types::flat`]; the trailing directory is the only index of
//!   them (the body has no per-vantage header), read by one function for
//!   both loaders: the cold tier's attach maps tries through it, and
//!   [`decode_full`] requires its spans to tile the body. The oracle's
//!   edges are elided when equal to the predecessor's (the snapshot then
//!   loads holding the predecessor's `Arc<Oracle>`). Nothing derivable is
//!   stored: decoding hands each route to the snapshot's [`TableJudge`]
//!   as it enters its trie, which derives the vantage's SA cache and
//!   leak convictions, and the `summary` verb's neighbour counts are a
//!   tally of the oracle's rows.
//! * **delta segment** — one snapshot as the structured
//!   [`OutputDelta`] events it was ingested from, plus the list of
//!   vantages that disappeared and the recomputed analyses of
//!   `analyses_dirty` Looking-Glass vantages. Loading replays the events
//!   through [`Snapshot::patch_vantage`] — the *same* code the live
//!   incremental ingest runs — under the predecessor's oracle, the very
//!   `Arc` (no graph is rebuilt, and a cone one link of a chain walked is
//!   walked for the next). The differential-testing contract
//!   of incremental ingest therefore extends to disk for free: **load
//!   of a delta segment ≡ full re-index**, byte-for-byte at the
//!   response level.
//!
//! The full-vs-delta choice per snapshot is [`delta_plan`]'s policy:
//! a snapshot is written as a delta iff it was built incrementally
//! (it retained its events), its relationship maps match its
//! predecessor's, no vantage appeared, and no vantage changed kind —
//! everything else (first snapshots, MRT ingests, oracle flips, feed
//! appearances) falls back to a self-contained full segment.
//!
//! Each stage of a snapshot segment's life has one implementation here
//! that every path uses. [`SegmentWriter`] **writes** them — the policy
//! above, the keyframe cadence, the `snap-NNNN.seg` names — for
//! [`save`] and for the live writer's spill alike, so a spilled stream
//! and a saved archive of the same world hold byte-identical segments.
//! [`replay_segment`] **replays** them — full decode or delta replay,
//! watermark stamp; a function, since a snapshot's predecessor carries
//! all the state a replay needs — for [`load`] over eagerly checksummed
//! bytes and for the cold tier's hydration over mapped ones. (Attaching
//! a segment without decoding it is [`crate::tier::attach`].)
//!
//! Decoding is paranoid: every count, symbol and flag is validated, and
//! every failure surfaces as a typed [`StoreError`] carrying the segment
//! index and absolute byte offset. A failed load returns an error, never
//! a partially-populated engine.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bgp_sim::OutputDelta;
use bgp_types::codec::{
    put_asn, put_asn_list, put_prefix, put_relationship, put_str, put_uvarint, CodecError, Reader,
};
use bgp_types::intern::Symbol;
use bgp_types::{flat, Asn, Community, CowTrie, Relationship};
use net_topology::Relations;
use rpi_sec::{Roa, RoaTable};
use rpi_store::{
    read_segment, write_segment, Manifest, SegmentEntry, SegmentKind, SegmentRef, StoreError,
    MANIFEST_FILE, SEG_FLAG_KEYFRAME,
};

use crate::engine::QueryEngine;
use crate::intern::{AsnSym, FrozenInterner, PrefixSym, WorldInterner};
use crate::snapshot::{
    CompactRoute, Oracle, Provenance, Snapshot, SnapshotId, TableJudge, VantageKind, VantageTable,
};

/// One segment's on-disk identity, kept on the engine after a save or
/// load so storage cost is visible next to sharing stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Index in the manifest's segment table.
    pub index: usize,
    /// What the segment holds.
    pub kind: SegmentKind,
    /// File name inside the archive directory.
    pub file: String,
    /// Byte length on disk.
    pub bytes: u64,
    /// CRC-32 of the bytes.
    pub crc32: u32,
    /// Snapshot label (empty for the symbols segment).
    pub label: String,
    /// Whether the segment is a self-contained keyframe a cold reader
    /// can attach to without a predecessor.
    pub keyframe: bool,
}

impl SegmentMeta {
    pub(crate) fn from_entry(index: usize, e: &SegmentEntry) -> SegmentMeta {
        SegmentMeta {
            index,
            kind: e.kind,
            file: e.file.clone(),
            bytes: e.bytes,
            crc32: e.crc32,
            label: e.label.clone(),
            keyframe: e.is_keyframe(),
        }
    }
}

/// Where an engine's bytes live on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchiveInfo {
    /// The archive directory.
    pub dir: PathBuf,
    /// The symbol segment.
    pub symbols: SegmentMeta,
    /// One segment per snapshot, in snapshot order.
    pub snapshots: Vec<SegmentMeta>,
    /// The ROA table segment (absent when the engine holds no ROAs).
    pub roas: Option<SegmentMeta>,
}

impl ArchiveInfo {
    /// Total segment bytes on disk (manifest file excluded).
    pub fn total_bytes(&self) -> usize {
        self.symbols.bytes as usize
            + self.roas.as_ref().map_or(0, |r| r.bytes as usize)
            + self
                .snapshots
                .iter()
                .map(|s| s.bytes as usize)
                .sum::<usize>()
    }

    pub(crate) fn from_manifest(dir: &Path, manifest: &Manifest) -> ArchiveInfo {
        let mut symbols = None;
        let mut roas = None;
        let mut snapshots = Vec::new();
        for (i, e) in manifest.segments.iter().enumerate() {
            let meta = SegmentMeta::from_entry(i, e);
            match e.kind {
                SegmentKind::Symbols => symbols = Some(meta),
                SegmentKind::Roa => roas = Some(meta),
                SegmentKind::Full | SegmentKind::Delta => snapshots.push(meta),
            }
        }
        ArchiveInfo {
            dir: dir.to_path_buf(),
            symbols: symbols.expect("callers verified a symbols segment exists"),
            snapshots,
            roas,
        }
    }
}

// ---------------------------------------------------------------------------
// small shared vocabulary
// ---------------------------------------------------------------------------

fn sym_u(s: AsnSym) -> u64 {
    s.0 .0 as u64
}

fn put_kind(out: &mut Vec<u8>, kind: VantageKind) {
    out.push(match kind {
        VantageKind::LookingGlass => 0,
        VantageKind::CollectorPeer => 1,
    });
}

fn read_kind(r: &mut Reader<'_>) -> Result<VantageKind, CodecError> {
    let offset = r.position();
    match r.u8()? {
        0 => Ok(VantageKind::LookingGlass),
        1 => Ok(VantageKind::CollectorPeer),
        _ => Err(CodecError::Invalid {
            offset,
            what: "vantage kind",
        }),
    }
}

/// Reads a symbol and bounds-checks it against the loaded table size.
fn read_sym(r: &mut Reader<'_>, limit: usize, what: &'static str) -> Result<Symbol, CodecError> {
    let offset = r.position();
    let v = r.uvarint()?;
    if v >= limit as u64 {
        return Err(CodecError::Invalid { offset, what });
    }
    Ok(Symbol(v as u32))
}

// ---------------------------------------------------------------------------
// the symbol segment
// ---------------------------------------------------------------------------

const SYMBOLS_FILE: &str = "symbols.seg";

fn encode_symbols(engine: &QueryEngine) -> Vec<u8> {
    let mut out = Vec::new();
    let asns: Vec<Asn> = engine.interner.iter_asns().collect();
    let prefixes: Vec<_> = engine.interner.iter_prefixes().collect();
    let comms: Vec<Community> = engine.interner.iter_communities().collect();

    put_uvarint(&mut out, engine.snapshots.len() as u64);
    let mut prev = (0usize, 0usize, 0usize);
    for snap in &engine.snapshots {
        let hw = snap.interned_watermark;
        debug_assert!(hw.0 >= prev.0 && hw.1 >= prev.1 && hw.2 >= prev.2);
        put_uvarint(&mut out, (hw.0 - prev.0) as u64);
        for &a in &asns[prev.0..hw.0] {
            put_asn(&mut out, a);
        }
        put_uvarint(&mut out, (hw.1 - prev.1) as u64);
        for &p in &prefixes[prev.1..hw.1] {
            put_prefix(&mut out, p);
        }
        put_uvarint(&mut out, (hw.2 - prev.2) as u64);
        for &c in &comms[prev.2..hw.2] {
            put_uvarint(&mut out, c.as_u32() as u64);
        }
        prev = hw;
    }
    out
}

/// Loads the symbol blocks into `interner`, returning the per-snapshot
/// watermarks the block boundaries encode.
fn decode_symbols(
    raw: &[u8],
    interner: &mut WorldInterner,
) -> Result<Vec<(usize, usize, usize)>, CodecError> {
    let mut r = Reader::new(raw);
    let n_blocks = r.ulen()?;
    let mut watermarks = Vec::with_capacity(n_blocks.min(1 << 16));
    let mut sizes = (0usize, 0usize, 0usize);
    for _ in 0..n_blocks {
        let n = r.ulen()?;
        for _ in 0..n {
            let offset = r.position();
            let a = r.asn()?;
            if interner.asn(a) != AsnSym(Symbol(sizes.0 as u32)) {
                return Err(CodecError::Invalid {
                    offset,
                    what: "duplicate ASN symbol",
                });
            }
            sizes.0 += 1;
        }
        let n = r.ulen()?;
        for _ in 0..n {
            let offset = r.position();
            let p = r.prefix()?;
            if interner.prefix(p) != PrefixSym(Symbol(sizes.1 as u32)) {
                return Err(CodecError::Invalid {
                    offset,
                    what: "duplicate prefix symbol",
                });
            }
            sizes.1 += 1;
        }
        let n = r.ulen()?;
        for _ in 0..n {
            let offset = r.position();
            let raw = r.uvarint()?;
            let raw = u32::try_from(raw).map_err(|_| CodecError::Invalid {
                offset,
                what: "community",
            })?;
            let c = Community::new((raw >> 16) as u16, (raw & 0xFFFF) as u16);
            if interner.community(c).0 != Symbol(sizes.2 as u32) {
                return Err(CodecError::Invalid {
                    offset,
                    what: "duplicate community symbol",
                });
            }
            sizes.2 += 1;
        }
        watermarks.push(sizes);
    }
    if !r.is_exhausted() {
        return Err(CodecError::Invalid {
            offset: r.position(),
            what: "trailing bytes after symbol blocks",
        });
    }
    Ok(watermarks)
}

// ---------------------------------------------------------------------------
// the ROA segment
// ---------------------------------------------------------------------------

const ROAS_FILE: &str = "roas.seg";

/// The ROA table stores raw prefixes and ASNs (ROAs come from an
/// out-of-band trust anchor, not from routing data), so the segment is
/// self-contained: no symbol-table coupling, no watermark bookkeeping.
fn encode_roas(table: &RoaTable) -> Vec<u8> {
    let mut out = Vec::new();
    put_uvarint(&mut out, table.len() as u64);
    for roa in table.roas() {
        put_prefix(&mut out, roa.prefix);
        out.push(roa.max_len);
        put_asn(&mut out, roa.origin);
    }
    out
}

fn decode_roas(raw: &[u8]) -> Result<RoaTable, CodecError> {
    let mut r = Reader::new(raw);
    let n = r.ulen()?;
    let mut roas = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let prefix = r.prefix()?;
        let offset = r.position();
        let max_len = r.u8()?;
        if max_len < prefix.len() || max_len > 32 {
            return Err(CodecError::Invalid {
                offset,
                what: "ROA max-length",
            });
        }
        let origin = r.asn()?;
        roas.push(Roa {
            prefix,
            max_len,
            origin,
        });
    }
    if !r.is_exhausted() {
        return Err(CodecError::Invalid {
            offset: r.position(),
            what: "trailing bytes after ROA table",
        });
    }
    Ok(RoaTable::new(roas))
}

// ---------------------------------------------------------------------------
// full segments
// ---------------------------------------------------------------------------

const FLAG_REL_SHARED: u8 = 1;
/// The full segment carries a trailing vantage directory + footer (see
/// [`encode_vantage_dir`]) so the cold tier can address vantage tries
/// without decoding the body. Every full segment has it: the bit clear
/// (a format-v1 segment) is corruption — see [`read_full_flags`].
const FLAG_DIRECTORY: u8 = 2;
const FULL_FLAG_MASK: u8 = FLAG_REL_SHARED | FLAG_DIRECTORY;

/// Reads a full segment's flags byte, rejecting unknown bits and a
/// missing vantage directory at the byte's offset — the one check both
/// load paths (hydrating [`decode_full`], mapping
/// [`read_mapped_directory`]) share.
fn read_full_flags(r: &mut Reader<'_>) -> Result<u8, CodecError> {
    let offset = r.position();
    let flags = r.u8()?;
    if flags & !FULL_FLAG_MASK != 0 {
        return Err(CodecError::Invalid {
            offset,
            what: "unknown full-segment flags",
        });
    }
    if flags & FLAG_DIRECTORY == 0 {
        return Err(CodecError::Invalid {
            offset,
            what: "full segment has no vantage directory",
        });
    }
    Ok(flags)
}

/// Trailing magic of a directory-carrying full segment.
const DIR_MAGIC: [u8; 4] = *b"RPD3";
/// Footer size: u64 directory offset + magic.
const DIR_FOOTER: usize = 8 + DIR_MAGIC.len();

fn encode_route(route: &CompactRoute, out: &mut Vec<u8>) {
    put_uvarint(out, sym_u(route.next_hop));
    put_uvarint(out, route.path.len() as u64);
    for &s in route.path.iter() {
        put_uvarint(out, sym_u(s));
    }
}

pub(crate) fn decode_route(r: &mut Reader<'_>, n_asns: usize) -> Result<CompactRoute, CodecError> {
    let next_hop = AsnSym(read_sym(r, n_asns, "next-hop symbol")?);
    let offset = r.position();
    let n = r.ulen()?;
    if n == 0 {
        return Err(CodecError::Invalid {
            offset,
            what: "empty AS path",
        });
    }
    let mut path = Vec::with_capacity(n.min(64));
    for _ in 0..n {
        path.push(AsnSym(read_sym(r, n_asns, "path symbol")?));
    }
    Ok(CompactRoute {
        next_hop,
        path: path.into_boxed_slice(),
    })
}

/// Encodes one snapshot as a full segment. `force_standalone` suppresses
/// relationship sharing so the segment decodes with no predecessor — the
/// keyframe policy's lever. Returns the payload and whether it came out
/// self-contained (a keyframe the cold tier can attach to).
fn encode_full(
    snap: &Snapshot,
    prev: Option<&Snapshot>,
    force_standalone: bool,
) -> (Vec<u8>, bool) {
    let mut out = Vec::new();
    put_str(&mut out, &snap.label);

    let shared = !force_standalone && prev.is_some_and(|p| snap.oracle == p.oracle);
    out.push(if shared { FLAG_REL_SHARED } else { 0 } | FLAG_DIRECTORY);
    if !shared {
        let edges: Vec<_> = snap.oracle.edges().collect();
        put_uvarint(&mut out, edges.len() as u64);
        for (a, b, rel) in edges {
            put_uvarint(&mut out, sym_u(a));
            put_uvarint(&mut out, sym_u(b));
            put_relationship(&mut out, rel);
        }
    }

    // Vantage tables: one flattened trie each, back to back. Each byte
    // span goes into the trailing directory — their only index — so the
    // cold tier can wrap a FlatTrie around it straight off a mapping.
    let mut vantages: Vec<(&AsnSym, &Arc<VantageTable>)> = snap.vantages.iter().collect();
    vantages.sort_unstable_by_key(|(s, _)| **s);
    let mut dir = VantageDir {
        entries: Vec::with_capacity(vantages.len()),
    };
    for (&sym, table) in vantages {
        let start = out.len();
        flat::write_trie(&table.trie, &mut out, &mut |route, out| {
            encode_route(route, out)
        });
        dir.entries.push(VantageDirEntry {
            sym,
            kind: table.kind,
            route_count: table.route_count,
            span: (start, out.len() - start),
        });
    }

    // LG analyses.
    let mut typ: Vec<(&AsnSym, &(usize, usize))> = snap.typicality.iter().collect();
    typ.sort_unstable_by_key(|(s, _)| **s);
    put_uvarint(&mut out, typ.len() as u64);
    for (&s, &(compared, typical)) in typ {
        put_uvarint(&mut out, sym_u(s));
        put_uvarint(&mut out, compared as u64);
        put_uvarint(&mut out, typical as u64);
    }
    let mut cc: Vec<(&AsnSym, &Arc<HashMap<AsnSym, Relationship>>)> =
        snap.community_class.iter().collect();
    cc.sort_unstable_by_key(|(s, _)| **s);
    put_uvarint(&mut out, cc.len() as u64);
    for (&owner, classes) in cc {
        put_uvarint(&mut out, sym_u(owner));
        let mut entries: Vec<(&AsnSym, &Relationship)> = classes.iter().collect();
        entries.sort_unstable_by_key(|(s, _)| **s);
        put_uvarint(&mut out, entries.len() as u64);
        for (&n, &rel) in entries {
            put_uvarint(&mut out, sym_u(n));
            put_relationship(&mut out, rel);
        }
    }

    // Directory + fixed footer (offset, magic) so a mapped reader can
    // find the directory from the segment's tail alone.
    let dir_offset = out.len();
    encode_vantage_dir(&dir, &mut out);
    out.extend_from_slice(&(dir_offset as u64).to_be_bytes());
    out.extend_from_slice(&DIR_MAGIC);
    (out, !shared)
}

// ---------------------------------------------------------------------------
// the vantage directory: the cold tier's index into a full segment
// ---------------------------------------------------------------------------

/// One vantage's row in a full segment's directory: where its
/// flattened trie lives, as an absolute `(offset, len)` span inside the
/// segment payload.
#[derive(Debug)]
pub(crate) struct VantageDirEntry {
    pub(crate) sym: AsnSym,
    pub(crate) kind: VantageKind,
    pub(crate) route_count: usize,
    pub(crate) span: (usize, usize),
}

/// A full segment's vantage directory, sorted by symbol (the encode
/// order), so the tier can binary-search it.
#[derive(Debug)]
pub(crate) struct VantageDir {
    pub(crate) entries: Vec<VantageDirEntry>,
}

impl VantageDir {
    /// The row for `sym`, if the snapshot indexed it as a vantage.
    pub(crate) fn entry(&self, sym: AsnSym) -> Option<&VantageDirEntry> {
        self.entries
            .binary_search_by_key(&sym, |e| e.sym)
            .ok()
            .map(|i| &self.entries[i])
    }
}

fn encode_vantage_dir(dir: &VantageDir, out: &mut Vec<u8>) {
    put_uvarint(out, dir.entries.len() as u64);
    for e in &dir.entries {
        put_uvarint(out, sym_u(e.sym));
        put_kind(out, e.kind);
        put_uvarint(out, e.route_count as u64);
        put_uvarint(out, e.span.0 as u64);
        put_uvarint(out, e.span.1 as u64);
    }
}

/// Decodes a directory whose trie spans must fall inside
/// `payload_end` (the body bytes before the directory itself) and whose
/// symbols must be interned and strictly increasing.
fn decode_vantage_dir(
    r: &mut Reader<'_>,
    n_asns: usize,
    payload_end: usize,
) -> Result<VantageDir, CodecError> {
    let n = r.ulen()?;
    let mut entries = Vec::with_capacity(n.min(1 << 16));
    let mut prev_sym: Option<AsnSym> = None;
    for _ in 0..n {
        let sym_offset = r.position();
        let sym = AsnSym(read_sym(r, n_asns, "directory vantage symbol")?);
        if prev_sym.is_some_and(|p| p >= sym) {
            return Err(CodecError::Invalid {
                offset: sym_offset,
                what: "directory symbols out of order",
            });
        }
        prev_sym = Some(sym);
        let kind = read_kind(r)?;
        let route_count = r.ulen()?;
        let span_offset = r.position();
        let start = r.ulen()?;
        let len = r.ulen()?;
        let ok = start.checked_add(len).is_some_and(|end| end <= payload_end);
        if !ok {
            return Err(CodecError::Invalid {
                offset: span_offset,
                what: "directory trie span out of bounds",
            });
        }
        entries.push(VantageDirEntry {
            sym,
            kind,
            route_count,
            span: (start, len),
        });
    }
    Ok(VantageDir { entries })
}

/// Reads the directory of a mapped full segment without decoding its
/// body — the cold tier's attach path. Also reports whether the segment
/// is self-contained (no [`FLAG_REL_SHARED`]) and its label.
pub(crate) fn read_mapped_directory(
    raw: &[u8],
    n_asns: usize,
) -> Result<(VantageDir, bool, String), CodecError> {
    let mut r = Reader::new(raw);
    let label = r.str()?.to_string();
    let self_contained = read_full_flags(&mut r)? & FLAG_REL_SHARED == 0;
    let (dir, _) = read_directory(raw, n_asns)?;
    Ok((dir, self_contained, label))
}

/// Reads a full segment's trailing directory through its footer, and
/// the offset it starts at — where the segment body ends. The one
/// directory reader: attach ([`read_mapped_directory`]) and
/// [`decode_full`] both find a segment's tries through it.
fn read_directory(raw: &[u8], n_asns: usize) -> Result<(VantageDir, usize), CodecError> {
    if raw.len() < DIR_FOOTER {
        return Err(CodecError::Truncated {
            offset: raw.len(),
            wanted: DIR_FOOTER,
        });
    }
    let footer = raw.len() - DIR_FOOTER;
    if raw[footer + 8..] != DIR_MAGIC {
        return Err(CodecError::Invalid {
            offset: footer + 8,
            what: "full-segment directory magic",
        });
    }
    let dir_offset = Reader::with_base(&raw[footer..], footer).u64()?;
    let dir_offset = usize::try_from(dir_offset)
        .ok()
        .filter(|&o| o < footer)
        .ok_or(CodecError::Invalid {
            offset: footer,
            what: "full-segment directory offset",
        })?;
    let mut r = Reader::with_base(&raw[dir_offset..footer], dir_offset);
    let dir = decode_vantage_dir(&mut r, n_asns, dir_offset)?;
    if !r.is_exhausted() {
        return Err(CodecError::Invalid {
            offset: r.position(),
            what: "trailing bytes after vantage directory",
        });
    }
    Ok((dir, dir_offset))
}

/// Reads a full segment's relationship section — `n (a b rel)*` — into
/// an oracle an `AsGraph` could hold: the one oracle built from untrusted
/// bytes is held to the [`Relations`] contract, so a self-loop, a one-way
/// edge or a disagreeing inverse is an error at the edge's offset.
fn read_oracle(r: &mut Reader<'_>, n_asns: usize) -> Result<Oracle, CodecError> {
    let n = r.ulen()?;
    let mut edges = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let offset = r.position();
        let a = AsnSym(read_sym(r, n_asns, "relationship symbol")?);
        let b = AsnSym(read_sym(r, n_asns, "relationship symbol")?);
        edges.push((a, b, r.relationship()?, offset));
    }
    let oracle = Oracle::new(edges.iter().map(|&(a, b, rel, _)| (a, b, rel)).collect());
    for (a, b, _, offset) in edges {
        let what = match (oracle.rel(a, b), oracle.rel(b, a)) {
            _ if a == b => "relationship self-loop",
            (Some(ab), Some(ba)) if ba == ab.inverse() => continue,
            (_, None) => "relationship without its inverse",
            _ => "relationship disagrees with its inverse",
        };
        return Err(CodecError::Invalid { offset, what });
    }
    Ok(oracle)
}

fn decode_full(
    raw: &[u8],
    id: SnapshotId,
    expect_label: &str,
    prev: Option<&Snapshot>,
    interner: &WorldInterner,
) -> Result<Snapshot, CodecError> {
    let n_asns = interner.sizes().0;
    let mut r = Reader::new(raw);
    let label_offset = r.position();
    let label = r.str()?;
    if label != expect_label {
        return Err(CodecError::Invalid {
            offset: label_offset,
            what: "label disagrees with manifest",
        });
    }

    let flag_offset = r.position();
    let oracle = if read_full_flags(&mut r)? & FLAG_REL_SHARED != 0 {
        let prev = prev.ok_or(CodecError::Invalid {
            offset: flag_offset,
            what: "relationships shared but segment has no predecessor",
        })?;
        Arc::clone(&prev.oracle)
    } else {
        Arc::new(read_oracle(&mut r, n_asns)?)
    };
    let mut snap = Snapshot::empty(id, label, oracle);

    // Vantage tables, found through the directory, whose spans must tile
    // the body: the first trie right after the oracle section, each next
    // one where the last ended — exactly the bytes the cold tier maps.
    let (dir, body_end) = read_directory(raw, n_asns)?;
    for e in dir.entries {
        let (start, len) = e.span;
        if r.position() != start {
            return Err(CodecError::Invalid {
                offset: r.position(),
                what: "directory spans do not tile the segment body",
            });
        }
        let pairs = flat::read_trie(&mut r, &mut |vr| decode_route(vr, n_asns))?;
        if r.position() != start + len {
            return Err(CodecError::Invalid {
                offset: r.position(),
                what: "vantage trie does not fill its directory span",
            });
        }
        if pairs.len() != e.route_count {
            return Err(CodecError::Invalid {
                offset: start,
                what: "route count disagrees with trie contents",
            });
        }
        let mut trie = CowTrie::new();
        let mut judge = TableJudge::new(&snap.oracle, e.sym);
        for (prefix, route) in pairs {
            let sym = interner.lookup_prefix(prefix).ok_or(CodecError::Invalid {
                offset: start,
                what: "table prefix missing from symbol table",
            })?;
            judge.judge(prefix, sym, &route);
            trie.insert(prefix, route);
        }
        let (sa, leaks) = judge.finish();
        snap.sa.insert(e.sym, Arc::new(sa));
        snap.leaks.insert(e.sym, Arc::new(leaks));
        let table = VantageTable {
            kind: e.kind,
            trie,
            route_count: e.route_count,
        };
        snap.vantages.insert(e.sym, Arc::new(table));
    }

    // LG analyses, where the last trie ended.
    let n_typ = r.ulen()?;
    for _ in 0..n_typ {
        let s = AsnSym(read_sym(&mut r, n_asns, "typicality symbol")?);
        let compared = r.ulen()?;
        let typical = r.ulen()?;
        snap.typicality.insert(s, (compared, typical));
    }
    let n_cc = r.ulen()?;
    for _ in 0..n_cc {
        let owner = AsnSym(read_sym(&mut r, n_asns, "community-class symbol")?);
        let n = r.ulen()?;
        let mut classes = HashMap::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let neighbor = AsnSym(read_sym(&mut r, n_asns, "community-class symbol")?);
            classes.insert(neighbor, r.relationship()?);
        }
        snap.community_class.insert(owner, Arc::new(classes));
    }

    if r.position() != body_end {
        return Err(CodecError::Invalid {
            offset: r.position(),
            what: "LG analyses do not end at the vantage directory",
        });
    }
    Ok(snap)
}

// ---------------------------------------------------------------------------
// delta segments
// ---------------------------------------------------------------------------

/// The archive's full-vs-delta policy: the retained events, iff they are
/// cleanly replayable against the predecessor without any view data.
fn delta_plan<'a>(snap: &'a Snapshot, prev: &Snapshot) -> Option<&'a Arc<OutputDelta>> {
    let Provenance::Delta(delta) = &snap.provenance else {
        return None;
    };
    // A vantage that appeared (or switched kind) was indexed from its
    // live view — a delta segment has no view to index from.
    if !delta.peers_added.is_empty() || !delta.lgs_added.is_empty() {
        return None;
    }
    if snap.oracle != prev.oracle {
        // An oracle change moved customer cones; replay would classify
        // SA prefixes under the wrong cones.
        return None;
    }
    let survives = snap
        .vantages
        .iter()
        .all(|(s, t)| prev.vantages.get(s).is_some_and(|pt| pt.kind == t.kind));
    survives.then_some(delta)
}

fn encode_delta(
    snap: &Snapshot,
    prev: &Snapshot,
    delta: &OutputDelta,
    interner: &WorldInterner,
) -> Vec<u8> {
    let mut out = Vec::new();
    put_str(&mut out, &snap.label);

    // Vantages of the predecessor that this snapshot no longer carries.
    let mut dropped: Vec<Asn> = prev
        .vantages
        .keys()
        .filter(|s| !snap.vantages.contains_key(s))
        .map(|&s| interner.resolve_asn(s))
        .collect();
    dropped.sort_unstable();
    put_asn_list(&mut out, &dropped);

    delta.encode(&mut out);

    // Analyses sidecar: the recomputed per-LG results replay cannot
    // derive (it has events, not views). Exactly the `analyses_dirty`
    // Looking-Glass vantages.
    let dirty: Vec<Asn> = delta
        .lgs
        .iter()
        .filter(|(_, vd)| vd.analyses_dirty)
        .map(|(&a, _)| a)
        .collect();
    put_uvarint(&mut out, dirty.len() as u64);
    for asn in dirty {
        let owner = interner
            .lookup_asn(asn)
            .expect("dirty LG vantages are interned");
        let &(compared, typical) = snap
            .typicality
            .get(&owner)
            .expect("dirty LG vantages have typicality");
        put_asn(&mut out, asn);
        put_uvarint(&mut out, compared as u64);
        put_uvarint(&mut out, typical as u64);
        let classes = snap
            .community_class
            .get(&owner)
            .expect("dirty LG vantages have community classes");
        let mut entries: Vec<(&AsnSym, &Relationship)> = classes.iter().collect();
        entries.sort_unstable_by_key(|(s, _)| **s);
        put_uvarint(&mut out, entries.len() as u64);
        for (&n, &rel) in entries {
            put_uvarint(&mut out, sym_u(n));
            put_relationship(&mut out, rel);
        }
    }
    out
}

struct LgPatch {
    typicality: (usize, usize),
    classes: HashMap<AsnSym, Relationship>,
}

struct DeltaPayload {
    label: String,
    dropped: Vec<Asn>,
    delta: OutputDelta,
    sidecar: BTreeMap<Asn, LgPatch>,
}

fn decode_delta(
    raw: &[u8],
    expect_label: &str,
    interner: &WorldInterner,
) -> Result<DeltaPayload, CodecError> {
    let (n_asns, _, _) = interner.sizes();
    let mut r = Reader::new(raw);
    let label_offset = r.position();
    let label = r.str()?.to_string();
    if label != expect_label {
        return Err(CodecError::Invalid {
            offset: label_offset,
            what: "label disagrees with manifest",
        });
    }
    let dropped = r.asn_list()?;
    let delta_offset = r.position();
    let delta = OutputDelta::decode(&mut r)?;
    // Replay runs the decoded events through the live patching code
    // over a read-only interner ([`FrozenInterner`]), which cannot
    // intern on a miss — so every symbol the events reference must
    // already be in the loaded table, and a corrupt segment fails here.
    for vd in delta.collector.values().chain(delta.lgs.values()) {
        let known_route = |route: &bgp_sim::DeltaRoute| {
            interner.lookup_asn(route.next_hop).is_some()
                && route.path.iter().all(|&a| interner.lookup_asn(a).is_some())
        };
        let ok = vd
            .announced
            .iter()
            .chain(&vd.replaced)
            .all(|(p, route)| interner.lookup_prefix(*p).is_some() && known_route(route))
            && vd
                .withdrawn
                .iter()
                .all(|&p| interner.lookup_prefix(p).is_some());
        if !ok {
            return Err(CodecError::Invalid {
                offset: delta_offset,
                what: "delta event symbol missing from symbol table",
            });
        }
    }
    let n = r.ulen()?;
    let mut sidecar = BTreeMap::new();
    for _ in 0..n {
        let asn = r.asn()?;
        let compared = r.ulen()?;
        let typical = r.ulen()?;
        let n_classes = r.ulen()?;
        let mut classes = HashMap::with_capacity(n_classes.min(1 << 16));
        for _ in 0..n_classes {
            let neighbor = AsnSym(read_sym(&mut r, n_asns, "community-class symbol")?);
            classes.insert(neighbor, r.relationship()?);
        }
        sidecar.insert(
            asn,
            LgPatch {
                typicality: (compared, typical),
                classes,
            },
        );
    }
    if !r.is_exhausted() {
        return Err(CodecError::Invalid {
            offset: r.position(),
            what: "trailing bytes after delta segment",
        });
    }
    Ok(DeltaPayload {
        label,
        dropped,
        delta,
        sidecar,
    })
}

/// Replays a decoded delta segment over the previous snapshot — the
/// load-time twin of `Snapshot::from_output_incremental`, sharing its
/// per-vantage patching code and the predecessor's oracle (the same
/// `Arc`, with whatever cones the chain has walked so far). Read-only on
/// the interner (the cold tier replays chains under a shared engine
/// reference): `decode_delta` pre-validated every event symbol against
/// the loaded table.
fn replay_delta(
    id: SnapshotId,
    payload: DeltaPayload,
    prev: &Snapshot,
    interner: &WorldInterner,
) -> Result<Snapshot, CodecError> {
    let mut snap = Snapshot::empty(id, &payload.label, Arc::clone(&prev.oracle));

    let mut dropped_syms: HashSet<AsnSym> = HashSet::with_capacity(payload.dropped.len());
    for &a in &payload.dropped {
        let s = interner.lookup_asn(a).ok_or(CodecError::Invalid {
            offset: 0,
            what: "dropped vantage not in symbol table",
        })?;
        if !prev.vantages.contains_key(&s) {
            return Err(CodecError::Invalid {
                offset: 0,
                what: "dropped vantage not in predecessor",
            });
        }
        dropped_syms.insert(s);
    }

    let frozen = &mut FrozenInterner(interner);
    for (&owner, table) in &prev.vantages {
        if dropped_syms.contains(&owner) {
            continue;
        }
        let asn = interner.resolve_asn(owner);
        let vd = match table.kind {
            VantageKind::LookingGlass => payload.delta.lgs.get(&asn),
            VantageKind::CollectorPeer => payload.delta.collector.get(&asn),
        };
        snap.patch_vantage(prev, owner, vd, frozen, false);
        if table.kind == VantageKind::LookingGlass {
            if let Some(patch) = payload.sidecar.get(&asn) {
                snap.typicality.insert(owner, patch.typicality);
                snap.community_class
                    .insert(owner, Arc::new(patch.classes.clone()));
            } else {
                if let Some(&t) = prev.typicality.get(&owner) {
                    snap.typicality.insert(owner, t);
                }
                if let Some(c) = prev.community_class.get(&owner) {
                    snap.community_class.insert(owner, Arc::clone(c));
                }
            }
        }
    }
    snap.provenance = Provenance::Delta(Arc::new(payload.delta));
    Ok(snap)
}

/// Decodes `raw` — the verified bytes of a `kind` segment labeled
/// `label` — as snapshot `id` on top of `prev`, and stamps it with its
/// interner `watermark` so it matches the snapshot that was saved: a
/// full decode, or a delta replay under the predecessor's oracle.
/// [`load`] calls it for every segment of an archive, the cold tier's
/// hydration for each link of the chain from a snapshot's nearest
/// anchor.
pub(crate) fn replay_segment(
    interner: &WorldInterner,
    id: SnapshotId,
    kind: SegmentKind,
    label: &str,
    raw: &[u8],
    prev: Option<&Snapshot>,
    watermark: (usize, usize, usize),
) -> Result<Snapshot, CodecError> {
    let mut snap = match kind {
        SegmentKind::Full => decode_full(raw, id, label, prev, interner)?,
        SegmentKind::Delta => {
            let payload = decode_delta(raw, label, interner)?;
            let prev = prev.ok_or(CodecError::Invalid {
                offset: 0,
                what: "delta segment has no predecessor snapshot",
            })?;
            replay_delta(id, payload, prev, interner)?
        }
        SegmentKind::Symbols | SegmentKind::Roa => {
            unreachable!("only snapshot segments are replayed")
        }
    };
    snap.interned_watermark = watermark;
    Ok(snap)
}

// ---------------------------------------------------------------------------
// save / load
// ---------------------------------------------------------------------------

/// A sibling of `dir` named `<dir>.<tag>-<pid>` — same parent, so a
/// directory rename between the two stays on one filesystem.
fn sibling(dir: &Path, tag: &str) -> PathBuf {
    let mut name = dir
        .file_name()
        .map(|s| s.to_os_string())
        .unwrap_or_else(|| std::ffi::OsString::from("archive"));
    name.push(format!(".{tag}-{}", std::process::id()));
    match dir.parent() {
        Some(parent) if dir.file_name().is_some() => parent.join(name),
        _ => PathBuf::from(name),
    }
}

/// Save-time policy knobs (see [`QueryEngine::save_archive_with`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct SaveOptions {
    /// Write a self-contained full segment (a **keyframe**) at least
    /// every `N` snapshots, bounding the delta chain a cold reader
    /// replays to reach any snapshot. `None` keeps the pure
    /// full-vs-delta policy (one keyframe at snapshot 0).
    pub keyframe_every: Option<usize>,
}

/// Writes a world's snapshot segments, in snapshot order: the one place
/// that decides full or delta ([`delta_plan`]), forces keyframes on
/// cadence, and names the files. [`save`] drives it over an engine's
/// snapshots, the live writer ([`crate::live`]) one published frame at a
/// time into its spill directory.
pub(crate) struct SegmentWriter {
    keyframe_every: Option<usize>,
    /// The last self-contained segment written.
    last_anchor: Option<usize>,
    /// Segments written so far — the next snapshot's index.
    written: usize,
}

impl SegmentWriter {
    /// A writer at snapshot 0 with [`SaveOptions::keyframe_every`]'s
    /// keyframe policy.
    pub(crate) fn new(keyframe_every: Option<usize>) -> SegmentWriter {
        SegmentWriter {
            keyframe_every,
            last_anchor: None,
            written: 0,
        }
    }

    /// Writes `snap`, the successor of `prev`, as the next segment in
    /// `dir` and returns its manifest row. Nothing advances on an error.
    pub(crate) fn write(
        &mut self,
        dir: &Path,
        snap: &Snapshot,
        prev: Option<&Snapshot>,
        interner: &WorldInterner,
    ) -> Result<SegmentEntry, StoreError> {
        let i = self.written;
        // Keyframe policy: snapshot 0 always decodes standalone; after
        // that, force a self-contained full whenever the chain since the
        // last anchor reaches the configured bound.
        let force_keyframe = match (self.keyframe_every, self.last_anchor) {
            (Some(k), Some(anchor)) => i - anchor >= k.max(1),
            _ => false,
        };
        let plan = if force_keyframe {
            None
        } else {
            prev.and_then(|p| delta_plan(snap, p))
        };
        let (kind, payload, standalone) = match plan {
            Some(delta) => {
                let prev = prev.expect("delta implies prev");
                let payload = encode_delta(snap, prev, delta, interner);
                (SegmentKind::Delta, payload, false)
            }
            None => {
                let (payload, standalone) = encode_full(snap, prev, force_keyframe);
                (SegmentKind::Full, payload, standalone)
            }
        };
        let file = format!("snap-{i:04}.seg");
        let mut entry = write_segment(dir, &file, kind, &snap.label, &payload)?;
        if standalone {
            entry.flags |= SEG_FLAG_KEYFRAME;
            self.last_anchor = Some(i);
        }
        self.written += 1;
        Ok(entry)
    }
}

/// Serializes `engine` into an archive at `dir` (see
/// [`QueryEngine::save_archive`]).
///
/// The write is staged: every segment and the manifest go into a
/// sibling `<dir>.staging-<pid>` directory first, and only a complete
/// staging directory is swapped into place — a crash or full disk
/// mid-save never destroys an existing archive, and a `force`
/// overwrite replaces the old archive wholesale (no orphaned segment
/// files from a longer predecessor).
pub(crate) fn save(
    engine: &mut QueryEngine,
    dir: &Path,
    force: bool,
    options: SaveOptions,
) -> Result<Manifest, StoreError> {
    let manifest_path = dir.join(MANIFEST_FILE);
    let replacing_archive = manifest_path.exists();
    if replacing_archive && !force {
        return Err(StoreError::AlreadyExists {
            path: manifest_path,
        });
    }

    let staging = sibling(dir, "staging");
    let _ = std::fs::remove_dir_all(&staging); // a crashed save's leftovers

    let mut manifest = Manifest::default();
    let symbols = encode_symbols(engine);
    manifest.segments.push(write_segment(
        &staging,
        SYMBOLS_FILE,
        SegmentKind::Symbols,
        "",
        &symbols,
    )?);

    let mut writer = SegmentWriter::new(options.keyframe_every);
    let mut prev: Option<&Snapshot> = None;
    for snap in &engine.snapshots {
        manifest
            .segments
            .push(writer.write(&staging, snap, prev, &engine.interner)?);
        prev = Some(snap);
    }

    if !engine.roas.is_empty() {
        let payload = encode_roas(&engine.roas);
        manifest.segments.push(write_segment(
            &staging,
            ROAS_FILE,
            SegmentKind::Roa,
            "",
            &payload,
        )?);
    }

    manifest.write(&staging, true)?;
    swap_into_place(&staging, dir, replacing_archive).map_err(|source| StoreError::Io {
        path: dir.to_path_buf(),
        source,
    })?;
    engine.archive = Some(ArchiveInfo::from_manifest(dir, &manifest));
    Ok(manifest)
}

/// Moves a fully-written staging directory to `dir`. When `dir` holds an
/// archive (`replacing_archive`), the old directory is renamed aside
/// first and removed only after the new one is in place, so every crash
/// window leaves a loadable archive (at `dir` or its `.old-<pid>`
/// sibling). A `dir` that exists but is *not* an archive keeps any
/// unrelated files it holds: the staged files are moved in one by one.
fn swap_into_place(staging: &Path, dir: &Path, replacing_archive: bool) -> std::io::Result<()> {
    if !dir.exists() {
        return std::fs::rename(staging, dir);
    }
    if replacing_archive {
        let old = sibling(dir, "old");
        if old.exists() {
            std::fs::remove_dir_all(&old)?;
        }
        std::fs::rename(dir, &old)?;
        std::fs::rename(staging, dir)?;
        return std::fs::remove_dir_all(&old);
    }
    // An existing non-archive directory (e.g. pre-created, possibly with
    // unrelated content): move the staged files in, replacing per file.
    for entry in std::fs::read_dir(staging)? {
        let entry = entry?;
        std::fs::rename(entry.path(), dir.join(entry.file_name()))?;
    }
    std::fs::remove_dir_all(staging)
}

/// Per-snapshot interner watermarks: (asns, prefixes, communities)
/// interned by the time each snapshot was ingested.
pub(crate) type Watermarks = Vec<(usize, usize, usize)>;

/// The shared prelude of [`load`] and the tiered attach
/// ([`crate::tier::load_tiered`]): validates the manifest's segment
/// shape (exactly one leading symbols segment, at most one ROA segment),
/// builds an empty engine, loads the symbol table, and returns the
/// per-snapshot interner watermarks.
pub(crate) fn load_prelude(
    dir: &Path,
    manifest: &Manifest,
) -> Result<(QueryEngine, Watermarks), StoreError> {
    let symbols_entry = match manifest.segments.first() {
        Some(e) if e.kind == SegmentKind::Symbols => e,
        _ => {
            return Err(StoreError::ManifestCorrupt {
                offset: 0,
                what: "first segment is not the symbol table".into(),
            })
        }
    };
    if manifest.segments[1..]
        .iter()
        .any(|e| e.kind == SegmentKind::Symbols)
    {
        return Err(StoreError::ManifestCorrupt {
            offset: 0,
            what: "more than one symbols segment".into(),
        });
    }
    if manifest
        .segments
        .iter()
        .filter(|e| e.kind == SegmentKind::Roa)
        .count()
        > 1
    {
        return Err(StoreError::ManifestCorrupt {
            offset: 0,
            what: "more than one ROA segment".into(),
        });
    }

    let segref = |index: usize, entry: &SegmentEntry| SegmentRef {
        index,
        file: entry.file.clone(),
    };

    let mut engine = QueryEngine::default();
    let raw = read_segment(dir, 0, symbols_entry)?;
    let watermarks = decode_symbols(&raw, &mut engine.interner)
        .map_err(|e| StoreError::corrupt(segref(0, symbols_entry), e))?;

    let n_snapshots = manifest.snapshot_segments().count();
    if watermarks.len() != n_snapshots {
        return Err(StoreError::invalid(
            segref(0, symbols_entry),
            0,
            format!(
                "symbol segment has {} blocks for {} snapshot segments",
                watermarks.len(),
                n_snapshots
            ),
        ));
    }
    Ok((engine, watermarks))
}

/// Loads the ROA segment into `engine`, if the manifest carries one —
/// the other piece [`load`] and the tiered attach share.
pub(crate) fn load_roas(
    dir: &Path,
    manifest: &Manifest,
    engine: &mut QueryEngine,
) -> Result<(), StoreError> {
    if let Some((seg_idx, entry)) = manifest
        .segments
        .iter()
        .enumerate()
        .find(|(_, e)| e.kind == SegmentKind::Roa)
    {
        let segref = SegmentRef {
            index: seg_idx,
            file: entry.file.clone(),
        };
        let raw = read_segment(dir, seg_idx, entry)?;
        let table = decode_roas(&raw).map_err(|e| StoreError::corrupt(segref, e))?;
        engine.set_roas(table);
    }
    Ok(())
}

/// Cold-starts an engine from the archive at `dir` (see
/// [`QueryEngine::load_archive`]).
pub(crate) fn load(dir: &Path) -> Result<QueryEngine, StoreError> {
    let manifest = Manifest::read(dir)?;
    let (mut engine, watermarks) = load_prelude(dir, &manifest)?;

    for ((index, entry), &watermark) in manifest.snapshot_segments().zip(&watermarks) {
        let raw = read_segment(dir, index, entry)?;
        let id = SnapshotId(engine.snapshots.len() as u32);
        let prev = engine.snapshots.last().map(|a| &**a);
        let (kind, label) = (entry.kind, &entry.label);
        let snap = replay_segment(&engine.interner, id, kind, label, &raw, prev, watermark)
            .map_err(|e| {
                let file = entry.file.clone();
                StoreError::corrupt(SegmentRef { index, file }, e)
            })?;
        engine.snapshots.push(Arc::new(snap));
    }

    load_roas(dir, &manifest, &mut engine)?;

    engine.archive = Some(ArchiveInfo::from_manifest(dir, &manifest));
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use bgp_sim::churn::simulate_series;
    use bgp_sim::ChurnConfig;
    use net_topology::InternetSize;
    use rpi_core::Experiment;

    use super::*;

    /// A write that fails — here because `dir` is a regular file —
    /// advances nothing: retried into a good directory, the series comes
    /// out row for row and byte for byte as from a writer that never
    /// failed, keyframe cadence and file names included.
    #[test]
    fn a_failed_segment_write_advances_nothing() {
        let exp = Experiment::standard(InternetSize::Tiny, 7);
        let cfg = ChurnConfig {
            steps: 4,
            ..ChurnConfig::daily(7)
        };
        let series = simulate_series(&exp.graph, &exp.truth, &exp.spec, &cfg);
        let mut engine = QueryEngine::default();
        engine.ingest_series_incremental(&series, &exp.inferred_graph);
        let root = std::env::temp_dir().join(format!("rpi-segment-writer-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (clean, retried, file) = (root.join("clean"), root.join("retried"), root.join("file"));
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(&file, b"not a directory").unwrap();
        let write = |writer: &mut SegmentWriter, dir: &Path, i: usize| {
            let prev = i.checked_sub(1).map(|p| &*engine.snapshots[p]);
            writer.write(dir, &engine.snapshots[i], prev, &engine.interner)
        };

        let mut never_failed = SegmentWriter::new(Some(2));
        let want: Vec<SegmentEntry> = (0..4)
            .map(|i| write(&mut never_failed, &clean, i).expect("write"))
            .collect();
        let shape: Vec<_> = want.iter().map(|e| (e.kind, e.is_keyframe())).collect();
        assert_eq!(
            shape,
            [
                (SegmentKind::Full, true),
                (SegmentKind::Delta, false),
                (SegmentKind::Full, true),
                (SegmentKind::Delta, false),
            ]
        );

        let mut writer = SegmentWriter::new(Some(2));
        let mut got: Vec<SegmentEntry> = (0..2)
            .map(|i| write(&mut writer, &retried, i).expect("write"))
            .collect();
        match write(&mut writer, &file, 2) {
            Err(StoreError::Io { path, .. }) => assert_eq!(path, file),
            other => panic!("wanted StoreError::Io, got {other:?}"),
        }
        got.extend((2..4).map(|i| write(&mut writer, &retried, i).expect("retry")));
        assert_eq!(got, want);
        let listing = |dir: &Path| {
            let mut files: Vec<_> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| {
                    let path = e.unwrap().path();
                    (
                        path.file_name().unwrap().to_owned(),
                        std::fs::read(&path).unwrap(),
                    )
                })
                .collect();
            files.sort();
            files
        };
        assert_eq!(listing(&retried), listing(&clean));
        let _ = std::fs::remove_dir_all(&root);
    }
}
