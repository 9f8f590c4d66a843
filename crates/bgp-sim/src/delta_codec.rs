//! Byte serde for [`OutputDelta`] — the archive shape of a churn event.
//!
//! `rpi-store` delta segments persist the structured snapshot-to-snapshot
//! events ([`crate::churn::output_delta`]) instead of a full table image;
//! loading replays them through the same incremental-ingest machinery
//! that consumed them live, so the on-disk format inherits the
//! differential-testing contract ("replay of a delta segment answers
//! every query byte-identically to a full re-index").
//!
//! The encoding is the [`bgp_types::codec`] varint vocabulary, fully
//! deterministic (the delta's maps are `BTreeMap`s, its lists sorted by
//! construction), and decodes with offset-carrying [`CodecError`]s —
//! truncated or bit-flipped segments fail loudly, never panic.

use bgp_types::codec::{put_asn, put_asn_list, put_prefix, put_uvarint, CodecError, Reader};
use bgp_types::{Community, Ipv4Prefix};

use crate::churn::{DeltaRoute, OutputDelta, VantageDelta};

/// Appends a count-prefixed community list (shared with the live
/// stream's frames).
pub(crate) fn put_communities(out: &mut Vec<u8>, comms: &[Community]) {
    put_uvarint(out, comms.len() as u64);
    for c in comms {
        put_uvarint(out, c.as_u32() as u64);
    }
}

/// Reads a list written by [`put_communities`].
pub(crate) fn read_communities(r: &mut Reader<'_>) -> Result<Vec<Community>, CodecError> {
    let n = r.ulen()?;
    let mut out = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        let start = r.position();
        let raw = r.uvarint()?;
        let raw = u32::try_from(raw).map_err(|_| CodecError::Invalid {
            offset: start,
            what: "community",
        })?;
        out.push(Community::new((raw >> 16) as u16, (raw & 0xFFFF) as u16));
    }
    Ok(out)
}

impl DeltaRoute {
    /// Appends this route's byte encoding.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_asn(out, self.next_hop);
        put_asn_list(out, &self.path);
        put_communities(out, &self.communities);
    }

    /// Decodes a route written by [`DeltaRoute::encode`]. A best route
    /// has an origin, so a zero-length path is corrupt — every consumer
    /// (archive replay, the live follower) reads its last hop.
    pub fn decode(r: &mut Reader<'_>) -> Result<DeltaRoute, CodecError> {
        let next_hop = r.asn()?;
        let path_offset = r.position();
        let path = r.asn_list()?;
        if path.is_empty() {
            return Err(CodecError::Invalid {
                offset: path_offset,
                what: "empty AS path",
            });
        }
        let communities = read_communities(r)?;
        Ok(DeltaRoute {
            next_hop,
            path,
            communities,
        })
    }
}

fn put_events(out: &mut Vec<u8>, events: &[(Ipv4Prefix, DeltaRoute)]) {
    put_uvarint(out, events.len() as u64);
    for (p, route) in events {
        put_prefix(out, *p);
        route.encode(out);
    }
}

fn read_events(r: &mut Reader<'_>) -> Result<Vec<(Ipv4Prefix, DeltaRoute)>, CodecError> {
    let n = r.ulen()?;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let p = r.prefix()?;
        out.push((p, DeltaRoute::decode(r)?));
    }
    Ok(out)
}

impl VantageDelta {
    /// Appends this vantage delta's byte encoding.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_events(out, &self.announced);
        put_events(out, &self.replaced);
        put_uvarint(out, self.withdrawn.len() as u64);
        for &p in &self.withdrawn {
            put_prefix(out, p);
        }
        out.push(self.analyses_dirty as u8);
    }

    /// Decodes a delta written by [`VantageDelta::encode`].
    pub fn decode(r: &mut Reader<'_>) -> Result<VantageDelta, CodecError> {
        let announced = read_events(r)?;
        let replaced = read_events(r)?;
        let n = r.ulen()?;
        let mut withdrawn = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            withdrawn.push(r.prefix()?);
        }
        let start = r.position();
        let analyses_dirty = match r.u8()? {
            0 => false,
            1 => true,
            _ => {
                return Err(CodecError::Invalid {
                    offset: start,
                    what: "analyses_dirty flag",
                })
            }
        };
        Ok(VantageDelta {
            announced,
            replaced,
            withdrawn,
            analyses_dirty,
        })
    }
}

impl OutputDelta {
    /// Appends this delta's byte encoding (deterministic: per-vantage
    /// maps iterate in `BTreeMap` order).
    pub fn encode(&self, out: &mut Vec<u8>) {
        for table in [&self.collector, &self.lgs] {
            put_uvarint(out, table.len() as u64);
            for (&asn, vd) in table {
                put_asn(out, asn);
                vd.encode(out);
            }
        }
        put_asn_list(out, &self.peers_added);
        put_asn_list(out, &self.peers_removed);
        put_asn_list(out, &self.lgs_added);
        put_asn_list(out, &self.lgs_removed);
    }

    /// This delta's byte encoding as a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes a delta written by [`OutputDelta::encode`].
    pub fn decode(r: &mut Reader<'_>) -> Result<OutputDelta, CodecError> {
        let mut delta = OutputDelta::default();
        for table_idx in 0..2 {
            let n = r.ulen()?;
            for _ in 0..n {
                let asn = r.asn()?;
                let vd = VantageDelta::decode(r)?;
                if table_idx == 0 {
                    delta.collector.insert(asn, vd);
                } else {
                    delta.lgs.insert(asn, vd);
                }
            }
        }
        delta.peers_added = r.asn_list()?;
        delta.peers_removed = r.asn_list()?;
        delta.lgs_added = r.asn_list()?;
        delta.lgs_removed = r.asn_list()?;
        Ok(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::simulate_series;
    use crate::engine::VantageSpec;
    use crate::policy::{GroundTruth, PolicyParams};
    use crate::ChurnConfig;
    use bgp_types::Asn;
    use net_topology::{InternetConfig, InternetSize};

    fn churny_deltas() -> Vec<OutputDelta> {
        let g = InternetConfig::of_size(InternetSize::Tiny).build();
        let t = GroundTruth::generate(&g, &PolicyParams::default());
        let spec = VantageSpec::paper_like(&g, 8, 4);
        let cfg = ChurnConfig {
            seed: 99,
            steps: 5,
            flip_prob: 0.8,
            link_failure_prob: 0.4,
            label: "day",
        };
        simulate_series(&g, &t, &spec, &cfg).deltas()
    }

    #[test]
    fn real_series_deltas_round_trip() {
        let deltas = churny_deltas();
        assert!(
            deltas.iter().any(|d| d.route_events() > 0),
            "the forced-churn series must produce events"
        );
        for d in &deltas {
            let bytes = d.to_bytes();
            let mut r = Reader::new(&bytes);
            let back = OutputDelta::decode(&mut r).expect("round trip");
            assert!(r.is_exhausted(), "decode must consume the whole buffer");
            assert_eq!(&back, d);
            // Deterministic: re-encoding the decoded value is byte-identical.
            assert_eq!(back.to_bytes(), bytes);
        }
    }

    #[test]
    fn vantage_add_remove_lists_round_trip() {
        let mut d = OutputDelta {
            peers_added: vec![Asn(1), Asn(70_000)],
            lgs_removed: vec![Asn(7018)],
            ..OutputDelta::default()
        };
        d.lgs.insert(
            Asn(3),
            VantageDelta {
                announced: vec![(
                    "10.0.0.0/8".parse().unwrap(),
                    DeltaRoute {
                        next_hop: Asn(2),
                        path: vec![Asn(2), Asn(9)],
                        communities: vec![Community::new(2, 100), Community::NO_EXPORT],
                    },
                )],
                withdrawn: vec!["192.168.0.0/16".parse().unwrap()],
                analyses_dirty: true,
                ..VantageDelta::default()
            },
        );
        let bytes = d.to_bytes();
        assert_eq!(OutputDelta::decode(&mut Reader::new(&bytes)).unwrap(), d);
    }

    #[test]
    fn every_truncation_fails_loudly() {
        let deltas = churny_deltas();
        let d = deltas
            .iter()
            .find(|d| d.route_events() > 0)
            .expect("events exist");
        let bytes = d.to_bytes();
        for cut in 0..bytes.len() {
            let res = OutputDelta::decode(&mut Reader::new(&bytes[..cut]));
            // Either an error, or a clean parse of a shorter valid image
            // that must then leave nothing unread (it can't: the cut is
            // strictly inside).
            assert!(
                res.is_err(),
                "cut at {cut}/{} silently decoded",
                bytes.len()
            );
        }
    }

    #[test]
    fn an_empty_path_is_invalid_at_its_offset() {
        let route = DeltaRoute {
            next_hop: Asn(2),
            path: Vec::new(),
            communities: Vec::new(),
        };
        let mut bytes = Vec::new();
        route.encode(&mut bytes);
        // next hop (one varint byte), then the path's zero count.
        match DeltaRoute::decode(&mut Reader::new(&bytes)) {
            Err(CodecError::Invalid { offset, what }) => {
                assert_eq!((offset, what), (1, "empty AS path"));
            }
            other => panic!("wanted Invalid, got {other:?}"),
        }
    }

    #[test]
    fn bad_flag_byte_is_invalid_not_panic() {
        let vd = VantageDelta::default();
        let mut bytes = Vec::new();
        vd.encode(&mut bytes);
        *bytes.last_mut().unwrap() = 7; // analyses_dirty ∉ {0, 1}
        assert!(matches!(
            VantageDelta::decode(&mut Reader::new(&bytes)),
            Err(CodecError::Invalid {
                what: "analyses_dirty flag",
                ..
            })
        ));
    }
}
