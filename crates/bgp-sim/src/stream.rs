//! The live delta-event stream: `rpi-queryd --follow`'s wire format.
//!
//! A stream is one growing file (fixture and wire format alike): a
//! header carrying the relationship oracle, then length-prefixed frames
//! — one per snapshot — and an explicit end marker. Each frame is
//! *self-describing*: together with the previous [`SimOutput`] it
//! reconstructs the next one exactly, so a follower can feed the
//! ordinary incremental-ingest path and inherit the offline engine's
//! differential-testing contract ("live ≡ offline, byte-identical").
//!
//! A frame carries the structured [`OutputDelta`] (the
//! [`crate::delta_codec`] encoding the archive already speaks) plus the
//! sections a bare delta cannot express: the full post-change collector
//! peer list, wholesale row replacements for peers the delta
//! under-describes (new peers, rows the delta's best-route vocabulary
//! drops), wholesale [`LgView`] replacements for every changed
//! Looking-Glass vantage (candidate views are richer than best-route
//! events), the run diagnostics, and — rarely — a full oracle
//! replacement for mid-series relationship changes.
//!
//! [`StreamFrame::apply`] patches the previous output **in place**, so a
//! frame costs what it carries: each delta event touches one row, the
//! replacement views are moved in, and only a frame whose peer list
//! changed, or that carries row replacements, walks the collector table.
//!
//! [`StreamWriter`] keeps the *reconstructed* output chain while
//! encoding and verifies every frame against it, so a decoder applying
//! frames in order reproduces each output exactly by construction.
//! Framing is resumable: [`next_step`] distinguishes "frame incomplete,
//! wait for more bytes" (a tail in progress) from a decode error, and
//! every error names the absolute byte offset.

use std::collections::{btree_map, BTreeMap, HashMap, HashSet};

use bgp_types::codec::{
    put_asn, put_asn_list, put_prefix, put_relationship, put_str, put_uvarint, CodecError, Reader,
};
use bgp_types::{Asn, Community, Ipv4Prefix, Relationship};
use net_topology::AsGraph;

use crate::churn::{output_delta, OutputDelta};
use crate::delta_codec::{put_communities, read_communities};
use crate::engine::{CollectorRow, CollectorView, LgRoute, LgView, SimDiagnostics, SimOutput};

/// Magic bytes opening a live stream file.
pub const STREAM_MAGIC: &[u8; 8] = b"RPLIVE01";

/// Frame kind byte: one snapshot follows.
const KIND_SNAPSHOT: u8 = 1;
/// Frame kind byte: clean end of stream, no payload.
const KIND_END: u8 = 2;

/// Upper bound on a single frame payload (defends length prefixes).
const MAX_FRAME: usize = 1 << 30;

/// One full collector row replacement: `(prefix, speaker-first path,
/// communities)`.
type PeerRow = (Ipv4Prefix, Vec<Asn>, Vec<Community>);

/// One decoded snapshot frame.
#[derive(Debug, Clone)]
pub struct StreamFrame {
    /// The snapshot's label.
    pub label: String,
    /// Structured events against the previous output — exactly what the
    /// offline engine's `output_delta` would compute.
    pub delta: OutputDelta,
    /// The full post-change collector peer list, in collector order, each
    /// peer once (decoding rejects a repeat).
    pub peers: Vec<Asn>,
    /// Wholesale row replacements for peers the delta under-describes.
    pub peer_rows: Vec<(Asn, Vec<PeerRow>)>,
    /// Wholesale view replacements for every added or changed LG vantage.
    pub lg_views: Vec<LgView>,
    /// The run's health counters at this snapshot.
    pub diagnostics: SimDiagnostics,
    /// A full oracle replacement, for mid-series relationship changes.
    pub oracle: Option<AsGraph>,
}

fn put_graph(out: &mut Vec<u8>, g: &AsGraph) {
    let mut ases: Vec<Asn> = g.ases().collect();
    ases.sort_unstable();
    put_asn_list(out, &ases);
    let mut edges: Vec<(Asn, Asn, Relationship)> = Vec::new();
    for &a in &ases {
        for (b, rel) in g.neighbors(a) {
            if a < b {
                edges.push((a, b, rel));
            }
        }
    }
    edges.sort_unstable_by_key(|&(a, b, _)| (a, b));
    put_uvarint(out, edges.len() as u64);
    for &(a, b, rel) in &edges {
        put_asn(out, a);
        put_asn(out, b);
        put_relationship(out, rel);
    }
}

fn read_graph(r: &mut Reader<'_>) -> Result<AsGraph, CodecError> {
    let mut g = AsGraph::new();
    for a in r.asn_list()? {
        g.ensure_as(a);
    }
    let n = r.ulen()?;
    for _ in 0..n {
        let a = r.asn()?;
        let b = r.asn()?;
        let start = r.position();
        let rel = r.relationship()?;
        g.add_edge(a, b, rel).map_err(|_| CodecError::Invalid {
            offset: start,
            what: "oracle edge",
        })?;
    }
    Ok(g)
}

fn put_block(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

impl StreamFrame {
    fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_str(&mut out, &self.label);
        self.delta.encode(&mut out);
        put_asn_list(&mut out, &self.peers);
        put_uvarint(&mut out, self.peer_rows.len() as u64);
        for (peer, rows) in &self.peer_rows {
            put_asn(&mut out, *peer);
            put_uvarint(&mut out, rows.len() as u64);
            for (p, path, comms) in rows {
                put_prefix(&mut out, *p);
                put_asn_list(&mut out, path);
                put_communities(&mut out, comms);
            }
        }
        put_uvarint(&mut out, self.lg_views.len() as u64);
        for view in &self.lg_views {
            put_asn(&mut out, view.asn);
            put_uvarint(&mut out, view.rows.len() as u64);
            for (&p, routes) in &view.rows {
                put_prefix(&mut out, p);
                put_uvarint(&mut out, routes.len() as u64);
                for route in routes {
                    put_asn(&mut out, route.neighbor);
                    put_asn_list(&mut out, &route.path);
                    put_uvarint(&mut out, route.local_pref as u64);
                    put_communities(&mut out, &route.communities);
                    // One flags byte: `best` in bit 0, above it the truth
                    // relationship's tag + 1 (0: none).
                    let rel = route.truth_rel.map_or(0, |r| {
                        put_relationship(&mut out, r);
                        out.pop().expect("the tag just written") + 1
                    });
                    out.push(route.best as u8 | (rel << 1));
                }
            }
        }
        put_uvarint(&mut out, self.diagnostics.classes as u64);
        put_uvarint(&mut out, self.diagnostics.non_converged as u64);
        put_uvarint(&mut out, self.diagnostics.sweeps_total as u64);
        match &self.oracle {
            None => out.push(0),
            Some(g) => {
                out.push(1);
                put_graph(&mut out, g);
            }
        }
        out
    }

    fn decode_payload(payload: &[u8], base: usize) -> Result<StreamFrame, CodecError> {
        let mut r = Reader::with_base(payload, base);
        let label = r.str()?.to_string();
        let delta = OutputDelta::decode(&mut r)?;
        // A collector peer contributes at most one row per prefix, which
        // a repeated peer would break.
        let n = r.ulen()?;
        let mut peers = Vec::with_capacity(n.min(1 << 16));
        let mut seen = HashSet::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let at = r.position();
            let peer = r.asn()?;
            if !seen.insert(peer) {
                return Err(CodecError::Invalid {
                    offset: at,
                    what: "duplicate collector peer",
                });
            }
            peers.push(peer);
        }
        let n = r.ulen()?;
        let mut peer_rows = Vec::with_capacity(n.min(1 << 12));
        for _ in 0..n {
            let peer = r.asn()?;
            let m = r.ulen()?;
            let mut rows = Vec::with_capacity(m.min(1 << 16));
            for _ in 0..m {
                let p = r.prefix()?;
                let path = r.asn_list()?;
                let comms = read_communities(&mut r)?;
                rows.push((p, path, comms));
            }
            peer_rows.push((peer, rows));
        }
        let n = r.ulen()?;
        let mut lg_views = Vec::with_capacity(n.min(1 << 12));
        for _ in 0..n {
            let asn = r.asn()?;
            let mut view = LgView {
                asn,
                rows: BTreeMap::new(),
            };
            let m = r.ulen()?;
            for _ in 0..m {
                let p = r.prefix()?;
                let k = r.ulen()?;
                let mut routes = Vec::with_capacity(k.min(1 << 12));
                for _ in 0..k {
                    let neighbor = r.asn()?;
                    let path = r.asn_list()?;
                    let lp_start = r.position();
                    let local_pref =
                        u32::try_from(r.uvarint()?).map_err(|_| CodecError::Invalid {
                            offset: lp_start,
                            what: "local_pref",
                        })?;
                    let communities = read_communities(&mut r)?;
                    let flag_start = r.position();
                    let flags = r.u8()?;
                    if flags > 0b1001 {
                        return Err(CodecError::Invalid {
                            offset: flag_start,
                            what: "LG route flags",
                        });
                    }
                    let truth_rel = match flags >> 1 {
                        0 => None,
                        v => Some(Reader::with_base(&[v - 1], flag_start).relationship()?),
                    };
                    routes.push(LgRoute {
                        neighbor,
                        path,
                        local_pref,
                        communities,
                        best: flags & 1 == 1,
                        truth_rel,
                    });
                }
                view.rows.insert(p, routes);
            }
            lg_views.push(view);
        }
        let diagnostics = SimDiagnostics {
            classes: r.ulen()?,
            non_converged: r.ulen()?,
            sweeps_total: r.ulen()?,
        };
        let flag_start = r.position();
        let oracle = match r.u8()? {
            0 => None,
            1 => Some(read_graph(&mut r)?),
            _ => {
                return Err(CodecError::Invalid {
                    offset: flag_start,
                    what: "oracle flag",
                })
            }
        };
        if !r.is_exhausted() {
            return Err(CodecError::Invalid {
                offset: r.position(),
                what: "trailing frame bytes",
            });
        }
        Ok(StreamFrame {
            label,
            delta,
            peers,
            peer_rows,
            lg_views,
            diagnostics,
            oracle,
        })
    }

    /// Patches `out` — the output the stream's previous frame left, or
    /// `SimOutput::default()` before the first — into the output this
    /// frame describes, in place. Applying the frames of a stream in order
    /// reproduces the emitter's output chain exactly — [`StreamWriter`]
    /// verifies this per frame at encode time.
    ///
    /// The work is what the frame carries: each delta event upserts or
    /// removes one peer's row, at that peer's position in `peers`, so
    /// every prefix's rows stay in peer order (what `all_paths` walks), and
    /// a prefix that loses its last row leaves the map; LG views are
    /// removed and the replacements **moved** in. Only a frame whose
    /// `peers` list changed, or that carries `peer_rows`, walks the whole
    /// collector table. Returns the delta, which is what an incremental
    /// indexer reads next.
    pub fn apply(self, out: &mut SimOutput) -> OutputDelta {
        let StreamFrame {
            delta,
            peers,
            peer_rows,
            lg_views,
            diagnostics,
            ..
        } = self;
        patch_collector(&mut out.collector, &delta, peers, peer_rows);
        for asn in &delta.lgs_removed {
            out.lgs.remove(asn);
        }
        out.lgs
            .extend(lg_views.into_iter().map(|view| (view.asn, view)));
        out.diagnostics = diagnostics;
        delta
    }
}

/// The collector half of [`StreamFrame::apply`]: the delta's best-route
/// events, then the wholesale `peer_rows` replacements, patched into
/// `collector` row by row.
fn patch_collector(
    collector: &mut CollectorView,
    delta: &OutputDelta,
    peers: Vec<Asn>,
    peer_rows: Vec<(Asn, Vec<PeerRow>)>,
) {
    let rank: HashMap<Asn, usize> = peers.iter().enumerate().map(|(i, &p)| (p, i)).collect();
    debug_assert_eq!(rank.len(), peers.len(), "collector peers are distinct");
    // The last replacement of a peer wins, as a later one would clear
    // what an earlier one wrote; peers off the list replace nothing.
    let replaced: BTreeMap<Asn, Vec<PeerRow>> = peer_rows
        .into_iter()
        .filter(|(peer, _)| rank.contains_key(peer))
        .collect();

    // The walk: drop the rows of peers that left the list or are about
    // to be replaced, and re-sort what stays into the new peer order.
    if collector.peers != peers || !replaced.is_empty() {
        collector.rows.retain(|_, rows| {
            rows.retain(|r| rank.contains_key(&r.peer) && !replaced.contains_key(&r.peer));
            rows.sort_by_key(|r| rank[&r.peer]);
            !rows.is_empty()
        });
        collector.peers = peers;
    }

    for (&peer, vd) in &delta.collector {
        if !rank.contains_key(&peer) || replaced.contains_key(&peer) {
            continue;
        }
        for &prefix in &vd.withdrawn {
            if let btree_map::Entry::Occupied(mut rows) = collector.rows.entry(prefix) {
                rows.get_mut().retain(|r| r.peer != peer);
                if rows.get().is_empty() {
                    rows.remove();
                }
            }
        }
        for (prefix, route) in vd.announced.iter().chain(&vd.replaced) {
            let mut path = Vec::with_capacity(route.path.len() + 1);
            path.push(peer);
            path.extend_from_slice(&route.path);
            let row = CollectorRow {
                peer,
                path,
                communities: route.communities.clone(),
            };
            upsert_row(collector.rows.entry(*prefix).or_default(), &rank, row);
        }
    }
    for (peer, rows) in replaced {
        for (prefix, path, communities) in rows {
            let row = CollectorRow {
                peer,
                path,
                communities,
            };
            upsert_row(collector.rows.entry(prefix).or_default(), &rank, row);
        }
    }
}

/// Puts `row` at its peer's position in one prefix's peer-ordered rows,
/// replacing the peer's previous row there if it had one.
fn upsert_row(rows: &mut Vec<CollectorRow>, rank: &HashMap<Asn, usize>, row: CollectorRow) {
    let rank_of = |peer| rank.get(&peer).copied().unwrap_or(usize::MAX);
    let at = rank_of(row.peer);
    match rows.iter().position(|r| rank_of(r.peer) >= at) {
        Some(i) if rows[i].peer == row.peer => rows[i] = row,
        Some(i) => rows.insert(i, row),
        None => rows.push(row),
    }
}

/// Per-peer rows of a collector view, keyed for order-insensitive
/// comparison.
fn rows_of(collector: &CollectorView, peer: Asn) -> BTreeMap<Ipv4Prefix, (&[Asn], &[Community])> {
    let mut m = BTreeMap::new();
    for (&prefix, rows) in &collector.rows {
        for row in rows {
            if row.peer == peer {
                m.insert(prefix, (row.path.as_slice(), row.communities.as_slice()));
            }
        }
    }
    m
}

fn lg_views_equal(a: &LgView, b: &LgView) -> bool {
    a.asn == b.asn && a.rows == b.rows
}

/// The encode side of a stream: keeps the reconstructed output chain so
/// every frame is verified to reproduce the emitter's next output
/// exactly when applied by a decoder.
#[derive(Debug)]
pub struct StreamWriter {
    prev: SimOutput,
}

impl StreamWriter {
    /// Opens a stream: returns the writer plus the encoded header
    /// carrying `oracle`. The decoder starts from an empty output, so
    /// the first frame carries the whole world.
    pub fn open(oracle: &AsGraph) -> (StreamWriter, Vec<u8>) {
        let mut header = Vec::new();
        header.extend_from_slice(STREAM_MAGIC);
        let mut payload = Vec::new();
        put_graph(&mut payload, oracle);
        header.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        header.extend_from_slice(&payload);
        (
            StreamWriter {
                prev: SimOutput::default(),
            },
            header,
        )
    }

    /// Encodes the frame taking the stream from its previous output to
    /// `next`. Pass `new_oracle` when the relationship oracle changed at
    /// this snapshot.
    pub fn frame(
        &mut self,
        label: &str,
        next: &SimOutput,
        new_oracle: Option<&AsGraph>,
    ) -> Vec<u8> {
        let delta = output_delta(&self.prev, next);
        let mut frame = StreamFrame {
            label: label.to_string(),
            delta,
            peers: next.collector.peers.clone(),
            peer_rows: Vec::new(),
            lg_views: Vec::new(),
            diagnostics: next.diagnostics.clone(),
            oracle: new_oracle.cloned(),
        };

        // LG replacements: every added view, plus every changed one (the
        // delta sets `analyses_dirty` on any candidate-row difference).
        for (&asn, view) in &next.lgs {
            let added = frame.delta.lgs_added.contains(&asn);
            let changed = frame
                .delta
                .lgs
                .get(&asn)
                .is_some_and(|vd| vd.analyses_dirty || vd.route_events() > 0);
            let drifted = !added
                && !changed
                && self
                    .prev
                    .lgs
                    .get(&asn)
                    .is_none_or(|pv| !lg_views_equal(pv, view));
            if added || changed || drifted {
                frame.lg_views.push(view.clone());
            }
        }

        // Collector replacements: patch a copy of the collector with the
        // candidate frame and replace any peer whose reconstructed rows
        // drift from the real ones (new peers, and rows outside the
        // delta's best-route vocabulary).
        let mut trial = self.prev.collector.clone();
        patch_collector(&mut trial, &frame.delta, frame.peers.clone(), Vec::new());
        for &peer in &frame.peers {
            let rows = rows_of(&next.collector, peer);
            if rows_of(&trial, peer) != rows {
                let rows = rows
                    .into_iter()
                    .map(|(p, (path, comms))| (p, path.to_vec(), comms.to_vec()))
                    .collect();
                frame.peer_rows.push((peer, rows));
            }
        }

        let mut out = Vec::new();
        put_block(&mut out, KIND_SNAPSHOT, &frame.encode_payload());
        frame.apply(&mut self.prev);
        debug_assert!(
            self.prev
                .collector
                .peers
                .iter()
                .all(|&p| rows_of(&self.prev.collector, p) == rows_of(&next.collector, p)),
            "frame replacements reconstruct every peer exactly"
        );
        out
    }

    /// The reconstructed output after the last encoded frame (what a
    /// decoder holds at this point of the stream).
    pub fn reconstructed(&self) -> &SimOutput {
        &self.prev
    }

    /// Encodes the end-of-stream marker.
    pub fn end(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_block(&mut out, KIND_END, &[]);
        out
    }
}

/// One step of reading a possibly still-growing stream.
#[derive(Debug)]
pub enum StreamStep {
    /// The bytes end inside a frame: a tail in progress. Retry with more
    /// bytes — or, if the file will not grow, the stream is truncated.
    NeedMore,
    /// One snapshot frame, and the offset of the next one.
    Frame(Box<StreamFrame>, usize),
    /// Clean end of stream, and the offset just past the marker.
    End(usize),
}

/// Decodes the stream header at the start of `buf`. Returns `Ok(None)`
/// while the header is still incomplete (a tail in progress), otherwise
/// the oracle and the offset of the first frame.
pub fn read_header(buf: &[u8]) -> Result<Option<(AsGraph, usize)>, CodecError> {
    if buf.len() < STREAM_MAGIC.len() + 4 {
        return Ok(None);
    }
    if &buf[..STREAM_MAGIC.len()] != STREAM_MAGIC {
        return Err(CodecError::Invalid {
            offset: 0,
            what: "stream magic",
        });
    }
    let len_at = STREAM_MAGIC.len();
    let len = u32::from_le_bytes(buf[len_at..len_at + 4].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME {
        return Err(CodecError::Invalid {
            offset: len_at,
            what: "header length",
        });
    }
    let start = len_at + 4;
    if buf.len() < start + len {
        return Ok(None);
    }
    let mut r = Reader::with_base(&buf[start..start + len], start);
    let g = read_graph(&mut r)?;
    if !r.is_exhausted() {
        return Err(CodecError::Invalid {
            offset: r.position(),
            what: "trailing header bytes",
        });
    }
    Ok(Some((g, start + len)))
}

/// Decodes the next frame at `offset`. [`StreamStep::NeedMore`] means
/// the bytes end mid-frame — a follower waits for the file to grow; a
/// drain of a complete file treats it as truncation at `offset`.
pub fn next_step(buf: &[u8], offset: usize) -> Result<StreamStep, CodecError> {
    let Some((kind, len)) = block_header(buf, offset) else {
        return Ok(StreamStep::NeedMore);
    };
    if len > MAX_FRAME {
        return Err(CodecError::Invalid {
            offset: offset + 1,
            what: "frame length",
        });
    }
    let start = offset + 5;
    match kind {
        KIND_END => {
            if len != 0 {
                return Err(CodecError::Invalid {
                    offset: offset + 1,
                    what: "end frame length",
                });
            }
            Ok(StreamStep::End(start))
        }
        KIND_SNAPSHOT => {
            if buf.len() < start + len {
                return Ok(StreamStep::NeedMore);
            }
            let frame = StreamFrame::decode_payload(&buf[start..start + len], start)?;
            Ok(StreamStep::Frame(Box::new(frame), start + len))
        }
        _ => Err(CodecError::Invalid {
            offset,
            what: "frame kind",
        }),
    }
}

/// Counts the complete snapshot frames in `buf` from `offset` by their
/// length prefixes alone — nothing is decoded. Counting stops at the
/// first block that is incomplete, the end marker or malformed;
/// [`next_step`] says which.
pub fn complete_frames(buf: &[u8], mut offset: usize) -> usize {
    let mut n = 0;
    while let Some((KIND_SNAPSHOT, len)) = block_header(buf, offset) {
        let end = offset + 5 + len;
        if len > MAX_FRAME || buf.len() < end {
            break;
        }
        n += 1;
        offset = end;
    }
    n
}

/// The kind byte and payload length opening the block at `offset`, once
/// those five bytes are there.
fn block_header(buf: &[u8], offset: usize) -> Option<(u8, usize)> {
    let head = buf.get(offset..offset.checked_add(5)?)?;
    let len = u32::from_le_bytes(head[1..].try_into().expect("4 bytes"));
    Some((head[0], len as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{inject_attack, AttackKind};
    use crate::churn::{simulate_series, ChurnConfig, DeltaRoute, VantageDelta};
    use crate::engine::VantageSpec;
    use crate::policy::{GroundTruth, PolicyParams};
    use net_topology::{InternetConfig, InternetSize};

    fn series(seed: u64, steps: usize) -> (AsGraph, Vec<String>, Vec<SimOutput>) {
        let g = InternetConfig::of_size(InternetSize::Tiny)
            .with_seed(seed)
            .build();
        let truth = GroundTruth::generate(&g, &PolicyParams::default());
        let spec = VantageSpec::paper_like(&g, 8, 4);
        let cfg = ChurnConfig {
            steps,
            flip_prob: 0.6,
            link_failure_prob: 0.4,
            ..ChurnConfig::daily(seed)
        };
        let s = simulate_series(&g, &truth, &spec, &cfg);
        (g, s.labels, s.snapshots)
    }

    fn encode_series(g: &AsGraph, labels: &[String], outputs: &[SimOutput]) -> Vec<u8> {
        let (mut w, mut bytes) = StreamWriter::open(g);
        for (label, out) in labels.iter().zip(outputs) {
            bytes.extend_from_slice(&w.frame(label, out, None));
        }
        bytes.extend_from_slice(&w.end());
        bytes
    }

    fn assert_outputs_equivalent(a: &SimOutput, b: &SimOutput, what: &str) {
        assert_eq!(a.collector.peers, b.collector.peers, "{what}: peers");
        for &peer in &a.collector.peers {
            assert_eq!(
                rows_of(&a.collector, peer),
                rows_of(&b.collector, peer),
                "{what}: peer {peer}"
            );
        }
        assert_eq!(
            a.lgs.keys().collect::<Vec<_>>(),
            b.lgs.keys().collect::<Vec<_>>(),
            "{what}: LG set"
        );
        for (asn, va) in &a.lgs {
            assert!(lg_views_equal(va, &b.lgs[asn]), "{what}: LG {asn}");
        }
        assert_eq!(a.diagnostics, b.diagnostics, "{what}: diagnostics");
    }

    fn decode_and_check(bytes: &[u8], g: &AsGraph, labels: &[String], outputs: &[SimOutput]) {
        let (oracle, mut offset) = read_header(bytes).expect("header").expect("complete");
        assert_eq!(oracle.as_count(), g.as_count());
        assert_eq!(oracle.edge_count(), g.edge_count());
        let mut prev = SimOutput::default();
        let mut i = 0;
        loop {
            match next_step(bytes, offset).expect("step") {
                StreamStep::Frame(frame, next) => {
                    assert_eq!(frame.label, labels[i]);
                    frame.apply(&mut prev);
                    assert_outputs_equivalent(&prev, &outputs[i], &labels[i]);
                    offset = next;
                    i += 1;
                }
                StreamStep::End(next) => {
                    assert_eq!(next, bytes.len(), "end marker closes the file");
                    break;
                }
                StreamStep::NeedMore => panic!("complete stream reported NeedMore"),
            }
        }
        assert_eq!(i, outputs.len(), "every snapshot decoded");
    }

    fn decode_frames(bytes: &[u8]) -> Vec<StreamFrame> {
        let (_, mut offset) = read_header(bytes).expect("header").expect("complete");
        let mut frames = Vec::new();
        while let StreamStep::Frame(frame, next) = next_step(bytes, offset).expect("step") {
            frames.push(*frame);
            offset = next;
        }
        frames
    }

    /// The rebuild the in-place [`StreamFrame::apply`] replaced, kept as
    /// its reference: the next output built whole from the previous one.
    fn apply_rebuild(frame: &StreamFrame, prev: &SimOutput) -> SimOutput {
        // Collector: previous per-peer rows, patched by the delta's
        // best-route events, then wholesale replacements on top.
        type PeerRoutes = BTreeMap<Ipv4Prefix, (Vec<Asn>, Vec<Community>)>;
        let mut by_peer: BTreeMap<Asn, PeerRoutes> = BTreeMap::new();
        for &peer in &frame.peers {
            by_peer.insert(peer, BTreeMap::new());
        }
        for (&prefix, rows) in &prev.collector.rows {
            for row in rows {
                if let Some(m) = by_peer.get_mut(&row.peer) {
                    m.insert(prefix, (row.path.clone(), row.communities.clone()));
                }
            }
        }
        for (&peer, vd) in &frame.delta.collector {
            let Some(m) = by_peer.get_mut(&peer) else {
                continue;
            };
            for &p in &vd.withdrawn {
                m.remove(&p);
            }
            for (p, route) in vd.announced.iter().chain(&vd.replaced) {
                let mut path = Vec::with_capacity(route.path.len() + 1);
                path.push(peer);
                path.extend_from_slice(&route.path);
                m.insert(*p, (path, route.communities.clone()));
            }
        }
        for (peer, rows) in &frame.peer_rows {
            if let Some(m) = by_peer.get_mut(peer) {
                m.clear();
                for (p, path, comms) in rows {
                    m.insert(*p, (path.clone(), comms.clone()));
                }
            }
        }
        let mut collector = CollectorView {
            peers: frame.peers.clone(),
            rows: BTreeMap::new(),
        };
        for &peer in &frame.peers {
            for (&prefix, (path, comms)) in &by_peer[&peer] {
                collector
                    .rows
                    .entry(prefix)
                    .or_default()
                    .push(CollectorRow {
                        peer,
                        path: path.clone(),
                        communities: comms.clone(),
                    });
            }
        }

        // Looking glasses: survivors carried over, changed views replaced.
        let mut lgs = prev.lgs.clone();
        for asn in &frame.delta.lgs_removed {
            lgs.remove(asn);
        }
        for view in &frame.lg_views {
            lgs.insert(view.asn, view.clone());
        }

        SimOutput {
            collector,
            lgs,
            diagnostics: frame.diagnostics.clone(),
        }
    }

    /// Exact equality, row order included — the order `all_paths` walks,
    /// so the order community interning and the spill bytes see.
    fn assert_identical(a: &SimOutput, b: &SimOutput, what: &str) {
        assert_eq!(a.collector.peers, b.collector.peers, "{what}: peers");
        assert_eq!(a.collector.rows, b.collector.rows, "{what}: collector rows");
        assert!(
            a.collector.rows.values().all(|rows| !rows.is_empty()),
            "{what}: a prefix kept an empty row list"
        );
        assert_eq!(
            a.lgs.keys().collect::<Vec<_>>(),
            b.lgs.keys().collect::<Vec<_>>(),
            "{what}: LG set"
        );
        for (asn, view) in &a.lgs {
            assert!(lg_views_equal(view, &b.lgs[asn]), "{what}: LG {asn}");
        }
        assert_eq!(a.diagnostics, b.diagnostics, "{what}: diagnostics");
    }

    /// Applies `frames` in order both in place and by the reference
    /// rebuild, holds the two identical after every frame, and returns the
    /// output after each.
    fn check_in_place(frames: Vec<StreamFrame>, what: &str) -> Vec<SimOutput> {
        let (mut patched, mut rebuilt) = (SimOutput::default(), SimOutput::default());
        let mut states = Vec::new();
        for (i, frame) in frames.into_iter().enumerate() {
            rebuilt = apply_rebuild(&frame, &rebuilt);
            frame.apply(&mut patched);
            assert_identical(&patched, &rebuilt, &format!("{what}, frame {i}"));
            states.push(patched.clone());
        }
        states
    }

    /// A churny series whose vantages churn too: a collector peer leaves
    /// and comes back, an LG goes dark and comes back, an AS that is both
    /// stops being an LG but stays a collector peer, and the peer order
    /// reverses.
    fn vantage_churn_series() -> (AsGraph, Vec<String>, Vec<SimOutput>) {
        let (g, labels, mut outputs) = series(7, 6);
        let peers = outputs[0].collector.peers.clone();
        let lgs: Vec<Asn> = outputs[0].lgs.keys().copied().collect();
        let both = *lgs
            .iter()
            .find(|a| peers.contains(a))
            .expect("an LG that is also a collector peer");
        let lg_only = *lgs
            .iter()
            .find(|a| !peers.contains(a))
            .expect("an LG that is no collector peer");
        let gone = *peers.iter().find(|&&p| p != both).expect("another peer");

        let out = &mut outputs[2];
        out.collector.peers.retain(|&p| p != gone);
        for rows in out.collector.rows.values_mut() {
            rows.retain(|r| r.peer != gone);
        }
        out.collector.rows.retain(|_, rows| !rows.is_empty());
        out.lgs.remove(&lg_only);
        for out in &mut outputs[3..] {
            out.lgs.remove(&both);
        }
        for out in &mut outputs[4..] {
            out.collector.peers.reverse();
        }
        (g, labels, outputs)
    }

    #[test]
    fn in_place_apply_matches_the_rebuild_on_series() {
        let (g, labels, outputs) = series(7, 6);
        check_in_place(
            decode_frames(&encode_series(&g, &labels, &outputs)),
            "churny",
        );

        for kind in AttackKind::ALL {
            let (g, labels, mut outputs) = series(19, 5);
            inject_attack(kind, &g, &mut outputs, 23, 2).expect("injects");
            let bytes = encode_series(&g, &labels, &outputs);
            check_in_place(decode_frames(&bytes), kind.name());
        }

        let (g, labels, outputs) = series(11, 3);
        let mut flipped = g.clone();
        let a = flipped.ases().next().expect("non-empty graph");
        let (b, _) = flipped.neighbors(a).next().expect("a has neighbors");
        flipped.remove_edge(a, b);
        flipped
            .add_edge(a, b, Relationship::Sibling)
            .expect("re-add");
        let (mut w, mut bytes) = StreamWriter::open(&g);
        for (i, (label, out)) in labels.iter().zip(&outputs).enumerate() {
            bytes.extend_from_slice(&w.frame(label, out, (i == 1).then_some(&flipped)));
        }
        bytes.extend_from_slice(&w.end());
        let frames = decode_frames(&bytes);
        assert!(frames[1].oracle.is_some(), "the oracle flips mid-stream");
        check_in_place(frames, "oracle flip");

        let (g, labels, outputs) = vantage_churn_series();
        let bytes = encode_series(&g, &labels, &outputs);
        decode_and_check(&bytes, &g, &labels, &outputs);
        let frames = decode_frames(&bytes);
        assert!(
            frames[3]
                .peer_rows
                .iter()
                .any(|(p, _)| !outputs[2].collector.peers.contains(p)),
            "the returning peer is shipped whole"
        );
        check_in_place(frames, "vantage churn");
    }

    fn asns(list: &[u32]) -> Vec<Asn> {
        list.iter().map(|&a| Asn(a)).collect()
    }

    fn pfx(i: u8) -> Ipv4Prefix {
        format!("10.{i}.0.0/16").parse().expect("prefix")
    }

    /// A delta route over `path` (next hop first).
    fn route(path: &[u32]) -> DeltaRoute {
        DeltaRoute {
            next_hop: Asn(path[0]),
            path: asns(path),
            communities: vec![Community::new(path[0] as u16, 1)],
        }
    }

    /// A collector row replacement over `path` (speaker first).
    fn row(prefix: u8, path: &[u32]) -> PeerRow {
        (
            pfx(prefix),
            asns(path),
            vec![Community::new(path[0] as u16, 2)],
        )
    }

    fn lg_view(asn: u32, prefix: u8) -> LgView {
        let best = LgRoute {
            neighbor: Asn(7),
            path: asns(&[7]),
            local_pref: 100,
            communities: Vec::new(),
            best: true,
            truth_rel: None,
        };
        LgView {
            asn: Asn(asn),
            rows: BTreeMap::from([(pfx(prefix), vec![best])]),
        }
    }

    fn hand_frame(peers: &[u32]) -> StreamFrame {
        StreamFrame {
            label: "hand".to_string(),
            delta: OutputDelta::default(),
            peers: asns(peers),
            peer_rows: Vec::new(),
            lg_views: Vec::new(),
            diagnostics: SimDiagnostics::default(),
            oracle: None,
        }
    }

    /// The peers holding a row for `prefix`, in row order.
    fn peers_at(out: &SimOutput, prefix: u8) -> Vec<u32> {
        out.collector
            .rows
            .get(&pfx(prefix))
            .map_or_else(Vec::new, |rows| rows.iter().map(|r| r.peer.0).collect())
    }

    /// Hand-built frames for the edges a simulated series rarely reaches,
    /// each held to the reference rebuild (and to what it should do).
    #[test]
    fn in_place_apply_matches_the_rebuild_on_hand_built_frames() {
        fn vd(f: &mut StreamFrame, peer: u32) -> &mut VantageDelta {
            f.delta.collector.entry(Asn(peer)).or_default()
        }

        // The world: peers 1, 2, 3; AS 3 is also an LG, AS 10 an LG only.
        let mut f0 = hand_frame(&[1, 2, 3]);
        f0.peer_rows = vec![
            (Asn(1), vec![row(1, &[1, 7]), row(2, &[1, 8])]),
            (Asn(2), vec![row(1, &[2, 7]), row(4, &[2, 9])]),
            (Asn(3), vec![row(1, &[3, 7]), row(2, &[3, 8])]),
        ];
        f0.lg_views = vec![lg_view(3, 1), lg_view(10, 2)];
        f0.diagnostics = SimDiagnostics {
            classes: 1,
            non_converged: 0,
            sweeps_total: 1,
        };

        // A withdraw and an announce of one prefix in one frame, the last
        // row of a prefix withdrawn, a delta naming a peer off the list.
        let mut f1 = hand_frame(&[1, 2, 3]);
        vd(&mut f1, 1).withdrawn.push(pfx(1));
        vd(&mut f1, 1).announced.push((pfx(1), route(&[5, 7])));
        vd(&mut f1, 2).withdrawn.push(pfx(4));
        vd(&mut f1, 3).announced.push((pfx(3), route(&[6, 9])));
        vd(&mut f1, 99).announced.push((pfx(5), route(&[5, 9])));

        // A peer added, an existing peer replaced wholesale (its delta
        // events are overridden), a row inserted ahead of another, an LG
        // removed.
        let mut f2 = hand_frame(&[1, 2, 3, 4]);
        f2.peer_rows = vec![
            (Asn(4), vec![row(1, &[4, 7]), row(3, &[4, 9])]),
            (Asn(2), vec![row(2, &[2, 6])]),
        ];
        vd(&mut f2, 2).announced.push((pfx(5), route(&[6, 9])));
        vd(&mut f2, 1).announced.push((pfx(3), route(&[8, 9])));
        f2.delta.lgs_removed.push(Asn(10));

        // A peer removed and the rest reordered; the LG AS 3 stays on as a
        // collector peer only.
        let mut f3 = hand_frame(&[3, 1, 4]);
        vd(&mut f3, 3).replaced.push((pfx(1), route(&[8, 7])));
        f3.delta.lgs_removed.push(Asn(3));

        // An LG re-added, a withdraw-and-announce on one prefix, and a
        // peer replaced twice (the last wins) beside a replacement for a
        // peer off the list.
        let mut f4 = hand_frame(&[3, 1, 4]);
        f4.lg_views = vec![lg_view(10, 5)];
        f4.delta.lgs_added.push(Asn(10));
        vd(&mut f4, 4).withdrawn.push(pfx(3));
        vd(&mut f4, 4).announced.push((pfx(3), route(&[5, 9])));
        f4.peer_rows = vec![
            (Asn(1), vec![row(9, &[1, 9])]),
            (Asn(1), vec![row(2, &[1, 4])]),
            (Asn(77), vec![row(6, &[77, 9])]),
        ];

        let states = check_in_place(vec![f0, f1, f2, f3, f4], "hand-built");
        let [s0, s1, s2, s3, s4] = states.as_slice() else {
            panic!("five frames, five states");
        };
        assert_eq!(
            (peers_at(s0, 1), peers_at(s0, 2), peers_at(s0, 4)),
            (vec![1, 2, 3], vec![1, 3], vec![2])
        );
        assert_eq!(s1.collector.rows[&pfx(1)][0].path, asns(&[1, 5, 7]));
        assert!(peers_at(s1, 4).is_empty() && peers_at(s1, 5).is_empty());
        assert_eq!(peers_at(s1, 3), [3]);
        assert_eq!(
            (peers_at(s2, 1), peers_at(s2, 2), peers_at(s2, 3)),
            (vec![1, 3, 4], vec![1, 2, 3], vec![1, 3, 4])
        );
        assert!(peers_at(s2, 5).is_empty() && !s2.lgs.contains_key(&Asn(10)));
        assert_eq!(
            (peers_at(s3, 1), peers_at(s3, 2)),
            (vec![3, 1, 4], vec![3, 1])
        );
        assert!(!s3.lgs.contains_key(&Asn(3)) && s3.collector.peers.contains(&Asn(3)));
        assert!(s4.lgs.contains_key(&Asn(10)));
        assert_eq!((peers_at(s4, 3), peers_at(s4, 9)), (vec![3, 4], vec![]));
        assert!(peers_at(s4, 6).is_empty());
        let rows_of_1: Vec<Ipv4Prefix> = rows_of(&s4.collector, Asn(1)).into_keys().collect();
        assert_eq!(rows_of_1, [pfx(2)], "the last replacement of a peer wins");
    }

    #[test]
    fn churny_series_round_trips_exactly() {
        let (g, labels, outputs) = series(7, 6);
        assert!(
            outputs.len() == 6 && !outputs[0].collector.peers.is_empty(),
            "non-vacuous series"
        );
        let bytes = encode_series(&g, &labels, &outputs);
        decode_and_check(&bytes, &g, &labels, &outputs);
    }

    #[test]
    fn attacked_series_round_trips_exactly() {
        for kind in AttackKind::ALL {
            let (g, labels, mut outputs) = series(19, 5);
            let sc = inject_attack(kind, &g, &mut outputs, 23, 2).expect("injects");
            assert!(sc.touched_vantages > 0);
            let bytes = encode_series(&g, &labels, &outputs);
            decode_and_check(&bytes, &g, &labels, &outputs);
        }
    }

    #[test]
    fn oracle_replacement_round_trips() {
        let (g, labels, outputs) = series(11, 3);
        let mut g2 = g.clone();
        // Flip one edge's relationship to force a mid-stream oracle swap.
        let a = g2.ases().next().expect("non-empty graph");
        let (b, _) = g2.neighbors(a).next().expect("a has neighbors");
        g2.remove_edge(a, b);
        g2.add_edge(a, b, Relationship::Sibling).expect("re-add");
        let (mut w, mut bytes) = StreamWriter::open(&g);
        bytes.extend_from_slice(&w.frame(&labels[0], &outputs[0], None));
        bytes.extend_from_slice(&w.frame(&labels[1], &outputs[1], Some(&g2)));
        bytes.extend_from_slice(&w.frame(&labels[2], &outputs[2], None));
        bytes.extend_from_slice(&w.end());

        let (_, mut offset) = read_header(&bytes).unwrap().unwrap();
        let mut oracles = Vec::new();
        loop {
            match next_step(&bytes, offset).unwrap() {
                StreamStep::Frame(f, next) => {
                    oracles.push(f.oracle.clone());
                    offset = next;
                }
                StreamStep::End(_) => break,
                StreamStep::NeedMore => panic!("complete stream"),
            }
        }
        assert!(oracles[0].is_none() && oracles[2].is_none());
        let swapped = oracles[1].as_ref().expect("oracle frame");
        assert_eq!(swapped.rel(a, b), Some(Relationship::Sibling));
    }

    #[test]
    fn truncation_is_need_more_never_a_wrong_frame() {
        let (g, labels, outputs) = series(13, 3);
        let bytes = encode_series(&g, &labels, &outputs);
        let (_, first) = read_header(&bytes).unwrap().expect("header");
        for cut in 0..first {
            assert!(
                matches!(read_header(&bytes[..cut]), Ok(None)),
                "header cut at {cut} must report incomplete"
            );
        }
        // Every cut strictly inside a frame reports NeedMore (the tail
        // semantics) — never a successfully decoded wrong frame.
        let mut offset = first;
        loop {
            let end = match next_step(&bytes, offset).unwrap() {
                StreamStep::Frame(_, next) => next,
                StreamStep::End(_) => break,
                StreamStep::NeedMore => panic!("complete stream"),
            };
            for cut in offset..end {
                match next_step(&bytes[..cut], offset) {
                    Ok(StreamStep::NeedMore) => {}
                    Err(_) => {} // a cut length prefix can decode invalid
                    other => panic!("cut at {cut} produced {other:?}"),
                }
            }
            offset = end;
        }
    }

    #[test]
    fn corrupt_kind_and_magic_fail_loudly() {
        let (g, labels, outputs) = series(17, 2);
        let mut bytes = encode_series(&g, &labels, &outputs);
        assert!(matches!(
            read_header(&[0u8; 16]),
            Err(CodecError::Invalid {
                what: "stream magic",
                ..
            })
        ));
        let (_, first) = read_header(&bytes).unwrap().expect("header");
        bytes[first] = 9; // neither snapshot nor end
        assert!(matches!(
            next_step(&bytes, first),
            Err(CodecError::Invalid {
                what: "frame kind",
                ..
            })
        ));
    }

    /// A peer list naming one ASN twice would make `apply` emit that
    /// peer's row twice per prefix; decoding rejects it at the repeated
    /// entry.
    #[test]
    fn duplicate_collector_peer_fails_at_the_repeated_entry() {
        let block = |peers: &[u32]| {
            let mut bytes = Vec::new();
            put_block(
                &mut bytes,
                KIND_SNAPSHOT,
                &hand_frame(peers).encode_payload(),
            );
            bytes
        };
        assert!(matches!(
            next_step(&block(&[1, 2, 3]), 0),
            Ok(StreamStep::Frame(..))
        ));
        // Block header, label, delta, the count and two distinct peers
        // come before the repeated entry.
        let mut head = vec![0; 5];
        put_str(&mut head, "hand");
        OutputDelta::default().encode(&mut head);
        put_asn_list(&mut head, &asns(&[1, 2]));
        match next_step(&block(&[1, 2, 1]), 0) {
            Err(CodecError::Invalid { offset, what }) => {
                assert_eq!(what, "duplicate collector peer");
                assert_eq!(offset, head.len());
            }
            other => panic!("wanted a duplicate-peer error, got {other:?}"),
        }
    }
}
