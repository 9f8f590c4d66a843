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
//! [`StreamWriter`] keeps the *reconstructed* output chain while
//! encoding and verifies every frame against it, so a decoder applying
//! frames in order reproduces each output exactly by construction.
//! Framing is resumable: [`next_step`] distinguishes "frame incomplete,
//! wait for more bytes" (a tail in progress) from a decode error, and
//! every error names the absolute byte offset.

use std::collections::BTreeMap;

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
    /// The full post-change collector peer list, in collector order.
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
        let peers = r.asn_list()?;
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

    /// Reconstructs the next output from the previous one. Applying the
    /// frames of a stream in order reproduces the emitter's output chain
    /// exactly — [`StreamWriter`] verifies this per frame at encode time.
    pub fn apply(&self, prev: &SimOutput) -> SimOutput {
        // Collector: previous per-peer rows, patched by the delta's
        // best-route events, then wholesale replacements on top.
        type PeerRoutes = BTreeMap<Ipv4Prefix, (Vec<Asn>, Vec<Community>)>;
        let mut by_peer: BTreeMap<Asn, PeerRoutes> = BTreeMap::new();
        for &peer in &self.peers {
            by_peer.insert(peer, BTreeMap::new());
        }
        for (&prefix, rows) in &prev.collector.rows {
            for row in rows {
                if let Some(m) = by_peer.get_mut(&row.peer) {
                    m.insert(prefix, (row.path.clone(), row.communities.clone()));
                }
            }
        }
        for (&peer, vd) in &self.delta.collector {
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
        for (peer, rows) in &self.peer_rows {
            if let Some(m) = by_peer.get_mut(peer) {
                m.clear();
                for (p, path, comms) in rows {
                    m.insert(*p, (path.clone(), comms.clone()));
                }
            }
        }
        let mut collector = CollectorView {
            peers: self.peers.clone(),
            rows: BTreeMap::new(),
        };
        for &peer in &self.peers {
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
        for asn in &self.delta.lgs_removed {
            lgs.remove(asn);
        }
        for view in &self.lg_views {
            lgs.insert(view.asn, view.clone());
        }

        SimOutput {
            collector,
            lgs,
            diagnostics: self.diagnostics.clone(),
        }
    }
}

/// Per-peer rows of an output, keyed for order-insensitive comparison.
fn rows_of(out: &SimOutput, peer: Asn) -> BTreeMap<Ipv4Prefix, (&[Asn], &[Community])> {
    let mut m = BTreeMap::new();
    for (&prefix, rows) in &out.collector.rows {
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

        // Collector replacements: apply the candidate frame and replace
        // any peer whose reconstructed rows drift from the real ones
        // (new peers, and rows outside the delta's best-route
        // vocabulary).
        let trial = frame.apply(&self.prev);
        for &peer in &frame.peers {
            if rows_of(&trial, peer) != rows_of(next, peer) {
                let rows = rows_of(next, peer)
                    .into_iter()
                    .map(|(p, (path, comms))| (p, path.to_vec(), comms.to_vec()))
                    .collect();
                frame.peer_rows.push((peer, rows));
            }
        }

        self.prev = frame.apply(&self.prev);
        debug_assert!(
            frame
                .peers
                .iter()
                .all(|&p| rows_of(&self.prev, p) == rows_of(next, p)),
            "frame replacements reconstruct every peer exactly"
        );
        let mut out = Vec::new();
        put_block(&mut out, KIND_SNAPSHOT, &frame.encode_payload());
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
    if buf.len() < offset + 5 {
        return Ok(StreamStep::NeedMore);
    }
    let kind = buf[offset];
    let len = u32::from_le_bytes(buf[offset + 1..offset + 5].try_into().expect("4 bytes")) as usize;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{inject_attack, AttackKind};
    use crate::churn::{simulate_series, ChurnConfig};
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
            assert_eq!(rows_of(a, peer), rows_of(b, peer), "{what}: peer {peer}");
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
                    let out = frame.apply(&prev);
                    assert_outputs_equivalent(&out, &outputs[i], &labels[i]);
                    prev = out;
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
}
