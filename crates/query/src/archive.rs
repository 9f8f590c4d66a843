//! Saving and cold-starting the engine through `rpi-store` archives.
//!
//! `rpi-store` owns the container (manifest, checksums, segment files);
//! this module owns what goes *inside* the segments — the engine's
//! interned world, serialized so that loading is a linear decode instead
//! of a re-simulation:
//!
//! * **symbol segment** (format v5) — the [`WorldInterner`]'s ASNs in
//!   symbol order, one *block per snapshot* (the interner is append-only
//!   across a series, so each block is just the ASNs its snapshot added;
//!   block boundaries restore the per-snapshot watermarks on load).
//!   Prefixes are stored as themselves wherever they occur, so the
//!   segment holds no prefix table, and no communities:
//!
//!   ```text
//!   symbols := n_blocks (n asn*)*
//!   ```
//! * **full segment** — one snapshot, each fact stored once:
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
//!   stored: a table decoded standalone is built by
//!   [`VantageTable::build`], which judges each route as it enters the
//!   trie for the vantage's SA cache and leak convictions, and the
//!   `summary` verb's neighbour counts are a tally of the oracle's rows.
//!   The LG analyses are not derivable (they need the view); they
//!   belong to the Looking-Glass vantages — one typicality and one class
//!   map each, in symbol order — and the decoder rejects analyses naming
//!   any other symbol, or missing one, as corrupt.
//!
//!   A full segment is self-contained for a reader with no predecessor
//!   (the first snapshot, a hydration that starts at a keyframe), but
//!   whenever the predecessor is in hand [`decode_full`] decodes the
//!   segment **onto** it: an equal oracle is the predecessor's `Arc`, and
//!   each table is merge-joined against the predecessor's and patched
//!   where it differs by the same [`Snapshot::patch_table`] delta replay
//!   runs, so a loaded series shares across keyframes what the ingested
//!   series shared and history folds skip what did not change.
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
//! a segment without decoding it is [`crate::tier::attach`]; reading one
//! in place — a delta's events through [`index_delta`], a keyframe's
//! oracle through [`read_mapped_oracle`] — is the tier's chain view.)
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
use bgp_types::{flat, Asn, Ipv4Prefix, Relationship};
use net_topology::Relations;
use rpi_sec::{Roa, RoaTable};
use rpi_store::{
    read_segment, write_segment, Manifest, SegmentEntry, SegmentKind, SegmentRef, StoreError,
    MANIFEST_FILE, SEG_FLAG_KEYFRAME,
};

use crate::engine::QueryEngine;
use crate::intern::{AsnSym, FrozenInterner, WorldInterner};
use crate::snapshot::{
    CompactRoute, LgAnalyses, Oracle, Provenance, RouteEdits, Snapshot, SnapshotId, VantageKind,
    VantageTable,
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

    put_uvarint(&mut out, engine.snapshots.len() as u64);
    let mut prev = 0;
    for snap in &engine.snapshots {
        let hw = snap.interned_watermark;
        put_uvarint(&mut out, (hw - prev) as u64);
        for &a in &asns[prev..hw] {
            put_asn(&mut out, a);
        }
        prev = hw;
    }
    out
}

/// Loads the symbol blocks into `interner`, returning the per-snapshot
/// watermarks the block boundaries encode.
fn decode_symbols(raw: &[u8], interner: &mut WorldInterner) -> Result<Watermarks, CodecError> {
    let mut r = Reader::new(raw);
    let n_blocks = r.ulen()?;
    let mut watermarks = Vec::with_capacity(n_blocks.min(1 << 16));
    for _ in 0..n_blocks {
        for _ in 0..r.ulen()? {
            let offset = r.position();
            let fresh = interner.asn_count();
            if interner.asn(r.asn()?) != AsnSym(Symbol(fresh as u32)) {
                return Err(CodecError::Invalid {
                    offset,
                    what: "duplicate ASN symbol",
                });
            }
        }
        watermarks.push(interner.asn_count());
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

/// A community-class map: its size, then each `(neighbour,
/// relationship)` in symbol order.
fn put_classes(out: &mut Vec<u8>, classes: &HashMap<AsnSym, Relationship>) {
    let mut entries: Vec<(&AsnSym, &Relationship)> = classes.iter().collect();
    entries.sort_unstable_by_key(|(s, _)| **s);
    put_uvarint(out, entries.len() as u64);
    for (&n, &rel) in entries {
        put_uvarint(out, sym_u(n));
        put_relationship(out, rel);
    }
}

/// Reads what [`put_classes`] wrote.
fn read_classes(
    r: &mut Reader<'_>,
    n_asns: usize,
) -> Result<Arc<HashMap<AsnSym, Relationship>>, CodecError> {
    let n = r.ulen()?;
    let mut classes = HashMap::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let neighbor = AsnSym(read_sym(r, n_asns, "community-class symbol")?);
        classes.insert(neighbor, r.relationship()?);
    }
    Ok(Arc::new(classes))
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
    for &(&sym, table) in &vantages {
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

    // LG analyses: every typicality, then every class map, in the
    // vantages' order.
    let lgs: Vec<(AsnSym, &LgAnalyses)> = (vantages.iter())
        .filter_map(|&(&s, t)| Some((s, t.lg.as_ref()?)))
        .collect();
    put_uvarint(&mut out, lgs.len() as u64);
    for &(s, lg) in &lgs {
        put_uvarint(&mut out, sym_u(s));
        put_uvarint(&mut out, lg.typicality.0 as u64);
        put_uvarint(&mut out, lg.typicality.1 as u64);
    }
    put_uvarint(&mut out, lgs.len() as u64);
    for (s, lg) in lgs {
        put_uvarint(&mut out, sym_u(s));
        put_classes(&mut out, &lg.classes);
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

/// Reads a mapped keyframe's relationship section into its oracle — the
/// cold tier's `sa` and `rel` ask it — without touching the tries.
pub(crate) fn read_mapped_oracle(raw: &[u8], n_asns: usize) -> Result<Oracle, CodecError> {
    let mut r = Reader::new(raw);
    r.str()?;
    let flag_offset = r.position();
    if read_full_flags(&mut r)? & FLAG_REL_SHARED != 0 {
        return Err(CodecError::Invalid {
            offset: flag_offset,
            what: "relationships shared but segment is a keyframe",
        });
    }
    read_oracle(&mut r, n_asns)
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

/// Decodes a full segment as snapshot `id`. With no predecessor in hand
/// (`prev` is `None`: the first snapshot, a hydration starting at a
/// keyframe) the segment is self-contained — edges elided for the
/// predecessor's are then corruption — and every table is built and
/// judged from scratch. With one, the segment is decoded **onto** it, so
/// a loaded series shares what the ingested series shared:
///
/// * an oracle equal to `prev`'s is dropped for `prev`'s `Arc` (and the
///   cones it has walked);
/// * a vantage `prev` indexed under the same [`VantageKind`] is
///   merge-joined against `prev`'s table ([`RouteEdits::between`]) and
///   carried over by [`Snapshot::patch_table`] — the predecessor's
///   record as it is when nothing moved, a clone patched and re-judged
///   at the edited prefixes when something did, the whole table
///   re-judged under a changed oracle;
/// * a new or kind-switched vantage is built fresh
///   ([`VantageTable::build`]);
/// * LG analyses equal to the ones a record carried keep it
///   ([`Snapshot::set_lg`]).
///
/// Every check on the bytes holds either way: the directory's spans tile
/// the body, each trie fills its span and holds its route count, every
/// stored ASN is in the symbol table, the label is the manifest's, the edge
/// section keeps the [`Relations`] contract ([`read_oracle`]), and the LG
/// analyses pair a typicality with a class map for each Looking-Glass
/// vantage and name no other symbol.
fn decode_full(
    raw: &[u8],
    id: SnapshotId,
    expect_label: &str,
    prev: Option<&Snapshot>,
    interner: &WorldInterner,
) -> Result<Snapshot, CodecError> {
    let n_asns = interner.asn_count();
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
        let decoded = read_oracle(&mut r, n_asns)?;
        match prev {
            Some(prev) if *prev.oracle == decoded => Arc::clone(&prev.oracle),
            _ => Arc::new(decoded),
        }
    };
    let oracle_changed = prev.is_some_and(|p| !Arc::ptr_eq(&p.oracle, &oracle));
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
        let onto = prev.filter(|p| p.vantages.get(&e.sym).is_some_and(|t| t.kind == e.kind));
        if let Some(prev) = onto {
            let edits = RouteEdits::between(&prev.vantages[&e.sym].trie, pairs);
            snap.patch_table(prev, e.sym, edits, oracle_changed);
            continue;
        }
        let table = VantageTable::build(e.kind, &snap.oracle, e.sym, pairs);
        snap.vantages.insert(e.sym, Arc::new(table));
    }

    // LG analyses, where the last trie ended: a typicality, then a class
    // map, for each Looking-Glass vantage and no other symbol.
    let lgs = (snap.vantages.values())
        .filter(|t| t.kind == VantageKind::LookingGlass)
        .count();
    let count = |r: &mut Reader<'_>| match (r.position(), r.ulen()?) {
        (_, n) if n == lgs => Ok(n),
        (offset, _) => Err(CodecError::Invalid {
            offset,
            what: "LG analyses do not match the Looking-Glass vantages",
        }),
    };
    let mut typicality = HashMap::new();
    for _ in 0..count(&mut r)? {
        let owner = read_lg_owner(&mut r, &snap, n_asns)?;
        typicality.insert(owner, (r.ulen()?, r.ulen()?));
    }
    for _ in 0..count(&mut r)? {
        let offset = r.position();
        let owner = read_lg_owner(&mut r, &snap, n_asns)?;
        let classes = read_classes(&mut r, n_asns)?;
        let typicality = typicality.remove(&owner).ok_or(CodecError::Invalid {
            offset,
            what: "LG analyses name a vantage twice",
        })?;
        let lg = LgAnalyses {
            typicality,
            classes,
        };
        snap.set_lg(owner, lg);
    }

    if r.position() != body_end {
        return Err(CodecError::Invalid {
            offset: r.position(),
            what: "LG analyses do not end at the vantage directory",
        });
    }
    Ok(snap)
}

/// Reads the symbol one of a full segment's LG analyses names: a
/// Looking-Glass vantage of `snap`, the snapshot its tries decoded to.
fn read_lg_owner(r: &mut Reader<'_>, snap: &Snapshot, n_asns: usize) -> Result<AsnSym, CodecError> {
    let offset = r.position();
    let owner = AsnSym(read_sym(r, n_asns, "LG analyses symbol")?);
    match snap.vantages.get(&owner) {
        Some(t) if t.kind == VantageKind::LookingGlass => Ok(owner),
        _ => Err(CodecError::Invalid {
            offset,
            what: "LG analyses name no Looking-Glass vantage",
        }),
    }
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
    // derive (it has events, not views), as the `analyses_dirty`
    // Looking-Glass vantages' records hold them.
    let dirty: Vec<(Asn, &LgAnalyses)> = (delta.lgs.iter())
        .filter(|(_, vd)| vd.analyses_dirty)
        .filter_map(|(&asn, _)| {
            let table = snap.vantages.get(&interner.lookup_asn(asn)?)?;
            Some((asn, table.lg.as_ref()?))
        })
        .collect();
    put_uvarint(&mut out, dirty.len() as u64);
    for (asn, lg) in dirty {
        put_asn(&mut out, asn);
        put_uvarint(&mut out, lg.typicality.0 as u64);
        put_uvarint(&mut out, lg.typicality.1 as u64);
        put_classes(&mut out, &lg.classes);
    }
    out
}

struct DeltaPayload {
    label: String,
    dropped: Vec<Asn>,
    delta: OutputDelta,
    sidecar: BTreeMap<Asn, LgAnalyses>,
    /// Where the sidecar starts in the segment.
    sidecar_at: usize,
}

fn decode_delta(
    raw: &[u8],
    expect_label: &str,
    interner: &WorldInterner,
) -> Result<DeltaPayload, CodecError> {
    let n_asns = interner.asn_count();
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
    // intern on a miss — so every ASN the events' routes name must
    // already be in the loaded table, and a corrupt segment fails here.
    for vd in delta.collector.values().chain(delta.lgs.values()) {
        let known = |a| interner.lookup_asn(a).is_some();
        let ok = (vd.announced.iter().chain(&vd.replaced))
            .all(|(_, route)| known(route.next_hop) && route.path.iter().all(|&a| known(a)));
        if !ok {
            return Err(CodecError::Invalid {
                offset: delta_offset,
                what: "delta event symbol missing from symbol table",
            });
        }
    }
    let sidecar_at = r.position();
    let n = r.ulen()?;
    let mut sidecar = BTreeMap::new();
    for _ in 0..n {
        let asn = r.asn()?;
        let typicality = (r.ulen()?, r.ulen()?);
        let classes = read_classes(&mut r, n_asns)?;
        sidecar.insert(
            asn,
            LgAnalyses {
                typicality,
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
        sidecar_at,
    })
}

/// Replays a decoded delta segment over the previous snapshot — the
/// load-time twin of `Snapshot::from_output_incremental`, sharing its
/// per-vantage patching code and the predecessor's oracle (the same
/// `Arc`, with whatever cones the chain has walked so far). Read-only on
/// the interner (the cold tier replays chains under a shared engine
/// reference): `decode_delta` pre-validated every event symbol against
/// the loaded table. The analyses sidecar must hold an entry for every
/// `analyses_dirty` Looking-Glass vantage it patches and name no other
/// AS than those vantages; anything else is invalid at the sidecar.
fn replay_delta(
    id: SnapshotId,
    mut payload: DeltaPayload,
    prev: &Snapshot,
    interner: &WorldInterner,
) -> Result<Snapshot, CodecError> {
    let mut snap = Snapshot::empty(id, &payload.label, Arc::clone(&prev.oracle));

    let dropped_syms = dropped_syms(&payload, interner)?;
    if !dropped_syms.iter().all(|s| prev.vantages.contains_key(s)) {
        return Err(CodecError::Invalid {
            offset: 0,
            what: "dropped vantage not in predecessor",
        });
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
            match payload.sidecar.remove(&asn) {
                Some(lg) => snap.set_lg(owner, lg),
                None if vd.is_some_and(|d| d.analyses_dirty) => {
                    return Err(CodecError::Invalid {
                        offset: payload.sidecar_at,
                        what: "analyses sidecar leaves out a dirty Looking-Glass vantage",
                    })
                }
                None => {}
            }
        }
    }
    if !payload.sidecar.is_empty() {
        return Err(CodecError::Invalid {
            offset: payload.sidecar_at,
            what: "analyses sidecar entry names no Looking-Glass vantage",
        });
    }
    snap.provenance = Provenance::Delta(Arc::new(payload.delta));
    Ok(snap)
}

/// The vantages a delta segment drops, at symbol level.
fn dropped_syms(
    payload: &DeltaPayload,
    interner: &WorldInterner,
) -> Result<HashSet<AsnSym>, CodecError> {
    (payload.dropped.iter())
        .map(|&a| {
            interner.lookup_asn(a).ok_or(CodecError::Invalid {
                offset: 0,
                what: "dropped vantage not in symbol table",
            })
        })
        .collect()
}

/// What a delta segment left in one vantage's table, per prefix its
/// events touch: the route stored there after the delta, or `None` where
/// it withdrew one.
#[derive(Debug, Default)]
pub(crate) struct Touched {
    routes: HashMap<Ipv4Prefix, Option<CompactRoute>>,
    /// Bit `l` is set when some touched prefix is a /`l`.
    lens: u64,
}

impl Touched {
    /// What the delta left at `prefix`, if it touched it.
    pub(crate) fn get(&self, prefix: Ipv4Prefix) -> Option<Option<&CompactRoute>> {
        self.routes.get(&prefix).map(Option::as_ref)
    }

    /// Every touched prefix covering `prefix` (itself included), shortest
    /// first, with what the delta left there.
    pub(crate) fn covering(
        &self,
        prefix: Ipv4Prefix,
    ) -> impl Iterator<Item = (Ipv4Prefix, Option<&CompactRoute>)> + '_ {
        (0..=prefix.len())
            .filter(|&len| self.lens >> len & 1 == 1)
            .filter_map(move |len| {
                let cover = Ipv4Prefix::canonical(prefix.bits(), len);
                Some((cover, self.get(cover)?))
            })
    }
}

/// A delta segment's route events indexed to be read in place, without
/// a predecessor snapshot: what [`replay_delta`] would patch into each
/// vantage's table, per touched prefix.
#[derive(Debug)]
pub(crate) struct DeltaEvents {
    /// Vantages of the predecessor this snapshot no longer carries.
    dropped: HashSet<AsnSym>,
    /// Per vantage and the kind of table its events patch.
    touched: HashMap<(AsnSym, VantageKind), Touched>,
}

impl DeltaEvents {
    /// Whether the delta drops vantage `v`.
    pub(crate) fn drops(&self, v: AsnSym) -> bool {
        self.dropped.contains(&v)
    }

    /// What the delta did to `v`'s table, indexed as `kind` (`None`: no
    /// route of it moved).
    pub(crate) fn touched(&self, v: AsnSym, kind: VantageKind) -> Option<&Touched> {
        self.touched.get(&(v, kind))
    }
}

/// Indexes the verified bytes of a delta segment labeled `label` through
/// [`decode_delta`]'s validated decode. A vantage's events are those
/// [`replay_delta`] would hand its table — the collector map for a
/// collector peer, the Looking-Glass map for a Looking-Glass vantage —
/// as [`RouteEdits::from_delta`] lists them for
/// [`Snapshot::patch_table`]: withdrawals first, then announcements and
/// replacements, the later of two for one prefix holding.
pub(crate) fn index_delta(
    raw: &[u8],
    label: &str,
    interner: &WorldInterner,
) -> Result<DeltaEvents, CodecError> {
    let payload = decode_delta(raw, label, interner)?;
    let dropped = dropped_syms(&payload, interner)?;
    let frozen = &mut FrozenInterner(interner);
    let mut touched = HashMap::new();
    let kinds = [
        (VantageKind::CollectorPeer, &payload.delta.collector),
        (VantageKind::LookingGlass, &payload.delta.lgs),
    ];
    for (kind, deltas) in kinds {
        for (&asn, vd) in deltas {
            // An AS the symbol table lacks is no snapshot's vantage.
            let Some(owner) = interner.lookup_asn(asn) else {
                continue;
            };
            if vd.route_events() == 0 {
                continue;
            }
            let mut t = Touched::default();
            let edits = RouteEdits::from_delta(vd, frozen);
            let events = (edits.removed.into_iter().map(|p| (p, None)))
                .chain(edits.stored.into_iter().map(|(p, r)| (p, Some(r))));
            for (p, route) in events {
                t.lens |= 1 << p.len();
                t.routes.insert(p, route);
            }
            touched.insert((owner, kind), t);
        }
    }
    Ok(DeltaEvents { dropped, touched })
}

/// Decodes `raw` — the verified bytes of a `kind` segment labeled
/// `label` — as snapshot `id` on top of `prev`, and stamps it with its
/// interner `watermark` so it matches the snapshot that was saved: a
/// delta replay under the predecessor's oracle, or a full decode —
/// onto `prev` when there is one, standalone when `prev` is `None`
/// ([`decode_full`]). [`load`] calls it for every segment of an archive
/// with the snapshot before it, the cold tier's hydration for each link
/// of the chain from a snapshot's nearest anchor (a keyframe with its
/// predecessor when that one is hot).
pub(crate) fn replay_segment(
    interner: &WorldInterner,
    id: SnapshotId,
    kind: SegmentKind,
    label: &str,
    raw: &[u8],
    prev: Option<&Snapshot>,
    watermark: usize,
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

/// Per-snapshot interner watermarks: the ASNs interned by the time each
/// snapshot was ingested.
pub(crate) type Watermarks = Vec<usize>;

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
    use bgp_sim::{ChurnConfig, SimOutput};
    use net_topology::{AsGraph, InternetSize};
    use rpi_core::Experiment;

    use super::*;
    use crate::proto::{render_response, Query, QueryRequest, Scope};

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

    /// A full segment's LG analyses belong to its Looking-Glass
    /// vantages, one typicality and one class map each. A typicality or a
    /// class map naming a collector peer, or an AS that is no vantage of
    /// the segment, is a `Corrupt` error at that symbol's offset; a
    /// segment that leaves a Looking-Glass vantage out (its entries cut,
    /// both counts one lower) is one at the first count. So, decoded
    /// standalone (snapshot 0) or onto its predecessor (snapshot 1) alike.
    #[test]
    fn lg_analyses_belong_to_the_looking_glass_vantages() {
        let exp = Experiment::standard(InternetSize::Tiny, 7);
        let mut engine = QueryEngine::default();
        engine.ingest_experiment(&exp, "t0");
        engine.ingest_experiment(&exp, "t1");
        let dir = std::env::temp_dir().join(format!("rpi-lg-owner-{}", std::process::id()));
        engine.save_archive(&dir, true).unwrap();
        let manifest = Manifest::read(&dir).unwrap();
        let n_asns = engine.interner.asn_count();
        let snap = &engine.snapshots[0];
        let varint = |v: u64| {
            let mut out = Vec::new();
            put_uvarint(&mut out, v);
            out
        };
        let peers: Vec<u64> = (snap.vantages.iter())
            .filter(|(_, t)| t.kind == VantageKind::CollectorPeer)
            .map(|(&s, _)| sym_u(s))
            .collect();
        let absent: Vec<u64> = (0..n_asns as u64)
            .filter(|&s| !snap.vantages.contains_key(&AsnSym(Symbol(s as u32))))
            .collect();
        // Writes `bytes` as segment `idx`, resealed, and loads the archive.
        let load_with = |idx: usize, bytes: &[u8]| {
            std::fs::write(dir.join(&manifest.segments[idx].file), bytes).unwrap();
            let mut fixed = manifest.clone();
            fixed.segments[idx].crc32 = rpi_store::crc32(bytes);
            fixed.segments[idx].bytes = bytes.len() as u64;
            fixed.write(&dir, true).unwrap();
            load(&dir).map(|_| "loaded")
        };
        let corrupt = |got: Result<&str, StoreError>, idx, at, expect: &str| match got {
            Err(StoreError::Corrupt {
                segment,
                offset,
                what,
            }) => {
                assert_eq!((segment.index, offset), (idx, at), "{expect}: {what}");
                assert!(what.contains(expect), "{what}");
            }
            other => panic!("segment {idx}, {expect} at {at}: {other:?}"),
        };

        let mut faults = 0;
        for (idx, entry) in manifest.snapshot_segments() {
            let raw = read_segment(&dir, idx, entry).unwrap();
            // The analyses start where the last trie ends: the typicality
            // count and entries, then the class-map count and maps.
            let (vantage_dir, _) = read_directory(&raw, n_asns).unwrap();
            let (start, len) = vantage_dir.entries.last().unwrap().span;
            let base = start + len;
            let mut r = Reader::new(&raw[base..]);
            let n = r.ulen().unwrap();
            let typicality_at = base + r.position();
            (0..3).for_each(|_| _ = r.uvarint().unwrap());
            let typicality_end = base + r.position();
            (3..3 * n).for_each(|_| _ = r.uvarint().unwrap());
            let classes_count_at = base + r.position();
            r.ulen().unwrap();
            let classes_at = base + r.position();
            r.uvarint().unwrap();
            for _ in 0..r.ulen().unwrap() {
                r.uvarint().unwrap();
                r.relationship().unwrap();
            }
            let classes_end = base + r.position();

            for at in [typicality_at, classes_at] {
                let owner = Reader::new(&raw[at..]).uvarint().unwrap();
                let width = varint(owner).len();
                for (name, others) in [("a collector peer", &peers), ("no vantage", &absent)] {
                    let other = (others.iter().map(|&s| varint(s)))
                        .find(|s| s.len() == width)
                        .unwrap_or_else(|| panic!("{name} of width {width}"));
                    let mut bytes = raw.clone();
                    bytes[at..at + width].copy_from_slice(&other);
                    corrupt(load_with(idx, &bytes), idx, at, "no Looking-Glass vantage");
                    faults += 1;
                }
            }

            // The first Looking-Glass vantage left out: its typicality and
            // class map cut, both counts one lower, the directory moved up.
            let lower = varint(n as u64 - 1);
            let footer = raw.len() - DIR_FOOTER;
            let mut bytes = [
                &raw[..base],
                &lower,
                &raw[typicality_end..classes_count_at],
                &lower,
                &raw[classes_end..footer],
            ]
            .concat();
            let dir_offset = u64::from_be_bytes(raw[footer..footer + 8].try_into().unwrap());
            let cut = (footer - bytes.len()) as u64;
            bytes.extend_from_slice(&(dir_offset - cut).to_be_bytes());
            bytes.extend_from_slice(&DIR_MAGIC);
            let expect = "do not match the Looking-Glass vantages";
            corrupt(load_with(idx, &bytes), idx, base, expect);
            faults += 1;
            assert!(load_with(idx, &raw).is_ok(), "segment {idx} resealed");
        }
        assert_eq!(faults, 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A six-snapshot Tiny series in which keyframes meet every way a
    /// table can differ from its predecessor's: routes churn; a
    /// collector-only peer withdraws its first, a middle and its last
    /// route at snapshot 1 and re-announces them at 2; an AS that is both
    /// a collector peer and a Looking-Glass vantage loses its LG view at
    /// snapshots 2–3 (a kind switch, and back); another collector-only
    /// peer is lost from snapshot 3 on; and from snapshot 4 on an LG
    /// vantage's first customer is only its peer (an oracle flip). Also
    /// returns the ASes and prefixes worth asking about.
    fn keyframe_world(seed: u64) -> (QueryEngine, Vec<Asn>, Vec<Ipv4Prefix>) {
        let exp = Experiment::standard(InternetSize::Tiny, seed);
        let cfg = ChurnConfig {
            steps: 6,
            flip_prob: 0.05,
            link_failure_prob: 0.05,
            ..ChurnConfig::daily(seed)
        };
        let series = simulate_series(&exp.graph, &exp.truth, &exp.spec, &cfg);
        let mut outs: Vec<SimOutput> = series.snapshots;
        let first = &outs[0];
        let both = (first.lgs.keys())
            .copied()
            .find(|a| first.collector.peers.contains(a))
            .expect("a Looking-Glass vantage that peers with the collector");
        let mut collector_only = (first.collector.peers.iter())
            .copied()
            .filter(|p| !first.lgs.contains_key(p));
        let (churned, lost) = (collector_only.next(), collector_only.next());
        let (churned, lost) = churned.zip(lost).expect("two collector-only peers");
        let g: &AsGraph = &exp.inferred_graph;
        let (lg, customer) = (first.lgs.keys())
            .find_map(|&lg| Some((lg, g.customers_of(lg).next()?)))
            .expect("a Looking-Glass vantage with a customer");
        let rows = &mut outs[1].collector.rows;
        let held: Vec<Ipv4Prefix> = (rows.iter())
            .filter(|(_, rows)| rows.iter().any(|r| r.peer == churned))
            .map(|(&p, _)| p)
            .collect();
        for p in [held[0], held[held.len() / 2], held[held.len() - 1]] {
            rows.get_mut(&p).unwrap().retain(|r| r.peer != churned);
        }
        rows.retain(|_, rows| !rows.is_empty());
        for out in &mut outs[2..4] {
            out.lgs.remove(&both);
        }
        for out in &mut outs[3..] {
            out.collector.peers.retain(|&p| p != lost);
            for rows in out.collector.rows.values_mut() {
                rows.retain(|r| r.peer != lost);
            }
            out.collector.rows.retain(|_, rows| !rows.is_empty());
        }
        let mut flipped = g.clone();
        flipped.remove_edge(lg, customer);
        flipped
            .add_edge(lg, customer, Relationship::Peer)
            .expect("the edge was just removed");

        let mut engine = QueryEngine::default();
        for (i, (label, out)) in series.labels.iter().zip(&outs).enumerate() {
            let oracle = if i < 4 { g } else { &flipped };
            match i.checked_sub(1) {
                None => engine.ingest_output(out, oracle, label),
                Some(p) => engine.ingest_output_incremental(&outs[p], out, oracle, label),
            };
        }
        let mut ases: Vec<Asn> = exp.spec.collector_peers.clone();
        ases.extend(&exp.spec.lg_ases);
        ases.extend([customer, Asn(65_500)]);
        ases.sort_unstable();
        ases.dedup();
        let mut prefixes: Vec<Ipv4Prefix> = outs[0].collector.rows.keys().copied().collect();
        prefixes.extend(outs[5].collector.rows.keys());
        prefixes.sort_unstable();
        prefixes.dedup();
        let mut prefixes: Vec<Ipv4Prefix> = prefixes.into_iter().step_by(3).collect();
        prefixes.push("203.0.113.0/24".parse().unwrap());
        (engine, ases, prefixes)
    }

    /// Every verb over `ases` and `prefixes`: each point verb at every
    /// snapshot, each history verb over the whole series and over every
    /// consecutive pair.
    fn every_verb(n: usize, ases: &[Asn], prefixes: &[Ipv4Prefix]) -> Vec<QueryRequest> {
        let id = |k: usize| SnapshotId(k as u32);
        let mut histories = vec![Scope::All];
        histories.extend((1..n).map(|k| Scope::Range(id(k - 1), id(k))));
        let mut reqs = Vec::new();
        for &a in ases {
            for k in 0..n {
                let at = Scope::Id(id(k));
                reqs.push(Query::PolicySummary { asn: a }.at(at.clone()));
                for &b in ases {
                    reqs.push(Query::Relationship { a, b }.at(at.clone()));
                }
                for &prefix in prefixes {
                    let vantage = a;
                    reqs.push(Query::Route { vantage, prefix }.at(at.clone()));
                    reqs.push(Query::Resolve { vantage, prefix }.at(at.clone()));
                    reqs.push(Query::SaStatus { vantage, prefix }.at(at.clone()));
                    reqs.push(Query::Rov { vantage, prefix }.at(at.clone()));
                }
            }
            for scope in &histories {
                reqs.push(Query::UptimeHistogram { vantage: a }.at(scope.clone()));
                reqs.push(Query::TopKSaOrigins { vantage: a, k: 3 }.at(scope.clone()));
                for &prefix in prefixes {
                    let vantage = a;
                    reqs.push(Query::SaHistory { vantage, prefix }.at(scope.clone()));
                    reqs.push(Query::PersistenceClass { vantage, prefix }.at(scope.clone()));
                }
            }
        }
        for k in 0..n {
            reqs.push(Query::Leaks.at(Scope::Id(id(k))));
        }
        for scope in histories {
            reqs.push(Query::Hijacks.at(scope.clone()));
            if let Scope::Range(..) = scope {
                reqs.push(Query::Diff.at(scope));
            }
        }
        reqs
    }

    fn rendered(engine: &QueryEngine, req: &QueryRequest) -> String {
        match engine.execute(req) {
            Ok(resp) => render_response(req, &resp),
            Err(e) => format!("error: {e}"),
        }
    }

    /// Decoding a full segment onto its predecessor is only a shortcut.
    /// Over [`keyframe_world`] saved with a keyframe at every snapshot,
    /// each snapshot the eager load decoded onto its predecessor holds
    /// what a standalone decode of its segment (no predecessor) holds —
    /// tables, SA caches, convictions, oracle and LG analyses — and
    /// answers every verb with the same bytes. What it shares is what did
    /// not move: the oracle `Arc` exactly while the oracle is unchanged,
    /// and under it the record (or, where only its LG analyses moved,
    /// its whole trie), SA cache and convictions of every vantage whose
    /// routes are unchanged. `RPI_DIFF_SEEDS=seed1,seed2,…` adds
    /// worlds without a rebuild.
    #[test]
    fn a_keyframe_decoded_onto_its_predecessor_is_its_standalone_decode() {
        let extra = std::env::var("RPI_DIFF_SEEDS").unwrap_or_default();
        let extra = (extra.split(',').filter(|s| !s.trim().is_empty())).map(|s| {
            (s.trim().parse()).unwrap_or_else(|_| panic!("bad seed '{s}' in RPI_DIFF_SEEDS"))
        });
        let kept_caches: usize = std::iter::once(5)
            .chain(extra)
            .map(assert_decoded_onto_is_standalone)
            .sum();
        assert!(kept_caches > 0, "no changed table kept its SA cache");
    }

    /// Returns how many changed tables kept their predecessor's SA cache.
    fn assert_decoded_onto_is_standalone(seed: u64) -> usize {
        let (mut engine, ases, prefixes) = keyframe_world(seed);
        let dir =
            std::env::temp_dir().join(format!("rpi-keyframe-onto-{seed}-{}", std::process::id()));
        let every = SaveOptions {
            keyframe_every: Some(1),
        };
        engine.save_archive_with(&dir, true, every).unwrap();
        let onto = load(&dir).unwrap();
        let manifest = Manifest::read(&dir).unwrap();
        let (mut standalone, watermarks) = load_prelude(&dir, &manifest).unwrap();
        for ((index, entry), &watermark) in manifest.snapshot_segments().zip(&watermarks) {
            assert!(entry.kind == SegmentKind::Full && entry.is_keyframe());
            let raw = read_segment(&dir, index, entry).unwrap();
            let id = SnapshotId(standalone.snapshots.len() as u32);
            let (kind, label) = (entry.kind, &entry.label);
            let snap = replay_segment(&standalone.interner, id, kind, label, &raw, None, watermark);
            standalone.snapshots.push(Arc::new(snap.unwrap()));
        }
        let _ = std::fs::remove_dir_all(&dir);

        // Tables kept and patched across keyframes, kind switches, flips.
        let (mut shared, mut patched, mut switched, mut flips) = (0, 0, 0, 0);
        let mut kept_caches = 0;
        for (k, (got, want)) in onto.snapshots.iter().zip(&standalone.snapshots).enumerate() {
            let at = format!("seed {seed} @{k}");
            assert!(*got.oracle == *want.oracle, "{at}: oracle");
            let mut syms: Vec<AsnSym> = want.vantages.keys().copied().collect();
            syms.sort_unstable();
            let mut got_syms: Vec<AsnSym> = got.vantages.keys().copied().collect();
            got_syms.sort_unstable();
            assert_eq!(got_syms, syms, "{at}: vantages");
            for v in syms {
                let (t, u) = (&got.vantages[&v], &want.vantages[&v]);
                assert_eq!(
                    (t.kind, t.route_count),
                    (u.kind, u.route_count),
                    "{at} {v:?}"
                );
                assert!(t.trie.iter().eq(u.trie.iter()), "{at} {v:?}: routes");
                assert_eq!(t.sa.sa, u.sa.sa, "{at} {v:?}: SA");
                assert_eq!(t.sa.exported, u.sa.exported, "{at} {v:?}");
                assert_eq!(t.leaks, u.leaks, "{at} {v:?}: convictions");
                assert_eq!(t.lg, u.lg, "{at} {v:?}: LG analyses");
            }
            let Some(prev) = k.checked_sub(1).map(|p| &onto.snapshots[p]) else {
                continue;
            };
            let same_oracle = prev.oracle == got.oracle;
            assert_eq!(Arc::ptr_eq(&prev.oracle, &got.oracle), same_oracle, "{at}");
            flips += !same_oracle as usize;
            for (v, t) in &got.vantages {
                let Some(pt) = prev.vantages.get(v).filter(|pt| pt.kind == t.kind) else {
                    switched += prev.vantages.contains_key(v) as usize;
                    continue;
                };
                let unchanged = t.trie.iter().eq(pt.trie.iter());
                // The record is kept unless its LG analyses moved, and
                // then its whole trie is.
                let whole_trie = t.trie.shared_nodes_with(&pt.trie) == t.trie.node_count();
                let kept = [
                    Arc::ptr_eq(t, pt) || (t.lg != pt.lg && whole_trie),
                    Arc::ptr_eq(&t.sa, &pt.sa),
                    Arc::ptr_eq(&t.leaks, &pt.leaks),
                ];
                if unchanged && same_oracle {
                    assert_eq!(kept, [true; 3], "{at} {v:?}: an unchanged table");
                    shared += 1;
                } else {
                    // A changed table keeps the cache exactly when no
                    // filing (verdict and origin) moved.
                    let (c, pc) = (&t.sa, &pt.sa);
                    let same_filings = c.sa == pc.sa && c.exported == pc.exported;
                    assert_eq!(
                        kept[1],
                        same_oracle && same_filings,
                        "{at} {v:?}: a changed table's SA cache"
                    );
                    patched += !unchanged as usize;
                    kept_caches += (!unchanged && kept[1]) as usize;
                }
            }
        }
        assert_eq!(
            (flips, switched),
            (1, 2),
            "seed {seed}: oracle flips, kind switches"
        );
        assert!(
            shared > 0 && patched > 0,
            "seed {seed}: {shared} shared, {patched} patched"
        );

        let n = onto.snapshots.len();
        let reqs = every_verb(n, &ases, &prefixes);
        for req in &reqs {
            let (got, want) = (rendered(&onto, req), rendered(&standalone, req));
            assert_eq!(got, want, "seed {seed}: {req:?}");
        }
        kept_caches
    }

    /// A delta segment's analyses sidecar holds one entry for each
    /// `analyses_dirty` Looking-Glass vantage the segment patches, and
    /// names no AS but those vantages. An entry naming a collector peer,
    /// or an AS that is no vantage, is a `Corrupt` error at the sidecar,
    /// and so is a sidecar that leaves a dirty vantage out — where a
    /// replay would otherwise drop the entry, or keep the vantage's stale
    /// analyses.
    #[test]
    fn a_delta_sidecar_belongs_to_its_dirty_lg_vantages() {
        let exp = Experiment::standard(InternetSize::Tiny, 7);
        let cfg = ChurnConfig {
            steps: 6,
            flip_prob: 0.1,
            link_failure_prob: 0.1,
            ..ChurnConfig::daily(7)
        };
        let days = simulate_series(&exp.graph, &exp.truth, &exp.spec, &cfg).snapshots;
        let g = &exp.inferred_graph;
        let mut engine = QueryEngine::default();
        engine.ingest_output(&days[0], g, "d0");
        for i in 1..days.len() {
            engine.ingest_output_incremental(&days[i - 1], &days[i], g, &format!("d{i}"));
        }
        let dir = std::env::temp_dir().join(format!("rpi-sidecar-{}", std::process::id()));
        engine.save_archive(&dir, true).unwrap();
        let manifest = Manifest::read(&dir).unwrap();
        let load_with = |idx: usize, bytes: &[u8]| {
            std::fs::write(dir.join(&manifest.segments[idx].file), bytes).unwrap();
            let mut fixed = manifest.clone();
            fixed.segments[idx].crc32 = rpi_store::crc32(bytes);
            fixed.segments[idx].bytes = bytes.len() as u64;
            fixed.write(&dir, true).unwrap();
            load(&dir).map(|_| "loaded")
        };

        let mut faults = 0;
        for (idx, entry) in manifest.snapshot_segments() {
            if entry.kind != SegmentKind::Delta {
                continue;
            }
            let raw = read_segment(&dir, idx, entry).unwrap();
            let payload = decode_delta(&raw, &entry.label, &engine.interner).unwrap();
            let Some((&dirty, analyses)) = payload.sidecar.iter().next() else {
                continue;
            };
            // The segment up to its sidecar, then a sidecar of our own.
            let mut head = Vec::new();
            put_str(&mut head, &payload.label);
            put_asn_list(&mut head, &payload.dropped);
            payload.delta.encode(&mut head);
            let with = |sidecar: &BTreeMap<Asn, LgAnalyses>| {
                let mut bytes = head.clone();
                put_uvarint(&mut bytes, sidecar.len() as u64);
                for (&asn, lg) in sidecar {
                    put_asn(&mut bytes, asn);
                    put_uvarint(&mut bytes, lg.typicality.0 as u64);
                    put_uvarint(&mut bytes, lg.typicality.1 as u64);
                    put_classes(&mut bytes, &lg.classes);
                }
                bytes
            };
            assert_eq!(with(&payload.sidecar), raw, "segment {idx} re-encodes");

            let peer = (engine.snapshots[0].vantages.iter())
                .find(|(_, t)| t.kind == VantageKind::CollectorPeer)
                .map(|(&s, _)| engine.interner.resolve_asn(s))
                .expect("a collector peer");
            let strangers = [peer, Asn(65_500)];
            let mut bad: Vec<(&str, BTreeMap<Asn, LgAnalyses>)> = (strangers.iter())
                .map(|&other| {
                    let mut sidecar = payload.sidecar.clone();
                    sidecar.insert(other, analyses.clone());
                    ("no Looking-Glass vantage", sidecar)
                })
                .collect();
            let mut cut = payload.sidecar.clone();
            cut.remove(&dirty);
            bad.push(("leaves out", cut));
            for (expect, sidecar) in bad {
                match load_with(idx, &with(&sidecar)) {
                    Err(StoreError::Corrupt {
                        segment,
                        offset,
                        what,
                    }) => {
                        assert_eq!((segment.index, offset), (idx, head.len()), "{what}");
                        assert!(what.contains(expect), "{expect}: {what}");
                    }
                    other => panic!("segment {idx}, {expect}: {other:?}"),
                }
                faults += 1;
            }
            load_with(idx, &raw).expect("the segment as saved loads");
        }
        assert!(
            faults >= 3,
            "no delta segment with a dirty Looking-Glass vantage"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
