//! MRT TABLE_DUMP_V2 (RFC 6396) — the format RouteViews archives RIB
//! snapshots in (the paper's §3 data source, which a modern reproduction
//! would read with bgpkit-parser).
//!
//! Supported records:
//!
//! * `PEER_INDEX_TABLE` (type 13, subtype 1) — collector ID, view name, and
//!   the peer table that RIB entries reference by index.
//! * `RIB_IPV4_UNICAST` (type 13, subtype 2) — one prefix with the RIB
//!   entries of every peer, each carrying a standard BGP path-attribute
//!   block (re-using [`crate::msg`]'s attribute codec).
//!
//! [`MrtWriter`] / [`MrtReader`] stream records; [`TableDump`] is the
//! convenient whole-file representation used by the pipeline.

use bgp_types::codec::{put_u16, put_u32, Reader};
use bgp_types::{Asn, Ipv4Prefix};

use crate::error::WireError;
use crate::msg::{
    decode_path_attributes, encode_path_attributes, get_prefix, put_prefix, WireAttrs,
};

const MRT_TABLE_DUMP_V2: u16 = 13;
const SUBTYPE_PEER_INDEX_TABLE: u16 = 1;
const SUBTYPE_RIB_IPV4_UNICAST: u16 = 2;

/// One peer in the `PEER_INDEX_TABLE`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerEntry {
    /// Peer's BGP identifier.
    pub bgp_id: u32,
    /// Peer's IPv4 address.
    pub addr: u32,
    /// Peer's AS number.
    pub asn: Asn,
}

/// One RIB entry: a peer's path to the record's prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RibEntry {
    /// Index into the peer table.
    pub peer_index: u16,
    /// When the route was received (UNIX seconds).
    pub originated_time: u32,
    /// The path attributes.
    pub attrs: WireAttrs,
}

/// A decoded MRT record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MrtRecord {
    /// The peer index table (must precede RIB records).
    PeerIndexTable {
        /// Collector's BGP identifier.
        collector_id: u32,
        /// Optional view name.
        view_name: String,
        /// The peer table.
        peers: Vec<PeerEntry>,
    },
    /// One prefix's RIB entries.
    RibIpv4Unicast {
        /// Record sequence number.
        sequence: u32,
        /// The prefix.
        prefix: Ipv4Prefix,
        /// Entries, one per peer that has a path.
        entries: Vec<RibEntry>,
    },
}

/// Streaming writer producing MRT bytes.
#[derive(Debug, Default)]
pub struct MrtWriter {
    out: Vec<u8>,
    sequence: u32,
}

impl MrtWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    fn put_record(&mut self, timestamp: u32, subtype: u16, body: &[u8]) {
        put_u32(&mut self.out, timestamp);
        put_u16(&mut self.out, MRT_TABLE_DUMP_V2);
        put_u16(&mut self.out, subtype);
        put_u32(&mut self.out, body.len() as u32);
        self.out.extend_from_slice(body);
    }

    /// Writes the `PEER_INDEX_TABLE`. Must be called before any RIB record.
    pub fn write_peer_index_table(
        &mut self,
        timestamp: u32,
        collector_id: u32,
        view_name: &str,
        peers: &[PeerEntry],
    ) {
        let mut body = Vec::new();
        put_u32(&mut body, collector_id);
        put_u16(&mut body, view_name.len() as u16);
        body.extend_from_slice(view_name.as_bytes());
        put_u16(&mut body, peers.len() as u16);
        for p in peers {
            body.push(0x02); // IPv4 peer, 32-bit AS
            put_u32(&mut body, p.bgp_id);
            put_u32(&mut body, p.addr);
            put_u32(&mut body, p.asn.0);
        }
        self.put_record(timestamp, SUBTYPE_PEER_INDEX_TABLE, &body);
    }

    /// Writes one `RIB_IPV4_UNICAST` record; sequence numbers are assigned
    /// automatically in write order.
    pub fn write_rib_entry(&mut self, timestamp: u32, prefix: Ipv4Prefix, entries: &[RibEntry]) {
        let mut body = Vec::new();
        put_u32(&mut body, self.sequence);
        self.sequence += 1;
        put_prefix(&mut body, prefix);
        put_u16(&mut body, entries.len() as u16);
        for e in entries {
            put_u16(&mut body, e.peer_index);
            put_u32(&mut body, e.originated_time);
            let attrs = encode_path_attributes(&e.attrs);
            put_u16(&mut body, attrs.len() as u16);
            body.extend_from_slice(&attrs);
        }
        self.put_record(timestamp, SUBTYPE_RIB_IPV4_UNICAST, &body);
    }

    /// Finishes and returns the file bytes.
    pub fn finish(self) -> Vec<u8> {
        self.out
    }
}

/// Streaming reader over MRT bytes.
#[derive(Debug)]
pub struct MrtReader<'a> {
    r: Reader<'a>,
}

impl<'a> MrtReader<'a> {
    /// Reads records from `buf`; error offsets are offsets into `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        MrtReader {
            r: Reader::new(buf),
        }
    }

    /// `true` when all records have been read.
    pub fn is_empty(&self) -> bool {
        self.r.is_exhausted()
    }

    /// Reads the next record, or `None` at end of input.
    pub fn next_record(&mut self) -> Result<Option<(u32, MrtRecord)>, WireError> {
        if self.r.is_exhausted() {
            return Ok(None);
        }
        let timestamp = self.r.u32()?;
        let rtype = self.r.u16()?;
        let subtype = self.r.u16()?;
        let len = self.r.u32()? as usize;
        let mut body = self.r.sub(len)?;
        if rtype != MRT_TABLE_DUMP_V2 {
            return Err(WireError::Unsupported {
                what: "MRT record",
                code: rtype as u32,
            });
        }
        let rec = match subtype {
            SUBTYPE_PEER_INDEX_TABLE => decode_peer_index(&mut body)?,
            SUBTYPE_RIB_IPV4_UNICAST => decode_rib(&mut body)?,
            other => {
                return Err(WireError::Unsupported {
                    what: "TABLE_DUMP_V2 subtype",
                    code: other as u32,
                })
            }
        };
        Ok(Some((timestamp, rec)))
    }
}

/// Smallest wire size of a peer entry (type, BGP ID, address, 2-byte ASN)
/// and of a RIB entry (peer index, time, attribute length): a count read
/// off the wire reserves no more entries than the record could hold.
const MIN_PEER_ENTRY: usize = 11;
const MIN_RIB_ENTRY: usize = 8;

fn decode_peer_index(body: &mut Reader) -> Result<MrtRecord, WireError> {
    let collector_id = body.u32()?;
    let name_len = body.u16()? as usize;
    let view_name = String::from_utf8_lossy(body.bytes(name_len)?).into_owned();
    let count = body.u16()? as usize;
    let mut peers = Vec::with_capacity(count.min(body.remaining() / MIN_PEER_ENTRY));
    for _ in 0..count {
        let ptype = body.u8()?;
        if ptype & 0x01 != 0 {
            return Err(WireError::Unsupported {
                what: "IPv6 peer",
                code: ptype as u32,
            });
        }
        let bgp_id = body.u32()?;
        let addr = body.u32()?;
        let asn = if ptype & 0x02 != 0 {
            Asn(body.u32()?)
        } else {
            Asn(body.u16()? as u32)
        };
        peers.push(PeerEntry { bgp_id, addr, asn });
    }
    Ok(MrtRecord::PeerIndexTable {
        collector_id,
        view_name,
        peers,
    })
}

fn decode_rib(body: &mut Reader) -> Result<MrtRecord, WireError> {
    let sequence = body.u32()?;
    let prefix = get_prefix(body, "RIB prefix length")?;
    let count = body.u16()? as usize;
    let mut entries = Vec::with_capacity(count.min(body.remaining() / MIN_RIB_ENTRY));
    for _ in 0..count {
        let peer_index = body.u16()?;
        let originated_time = body.u32()?;
        let attr_len = body.u16()? as usize;
        let attrs = decode_path_attributes(&mut body.sub(attr_len)?)?;
        entries.push(RibEntry {
            peer_index,
            originated_time,
            attrs,
        });
    }
    Ok(MrtRecord::RibIpv4Unicast {
        sequence,
        prefix,
        entries,
    })
}

/// A whole TABLE_DUMP_V2 file in memory: the convenient form for analysis.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TableDump {
    /// Collector BGP identifier.
    pub collector_id: u32,
    /// View name from the peer index table.
    pub view_name: String,
    /// The peer table.
    pub peers: Vec<PeerEntry>,
    /// `(prefix, entries)` in record order.
    pub routes: Vec<(Ipv4Prefix, Vec<RibEntry>)>,
}

impl TableDump {
    /// Serializes the dump to MRT bytes (all records share `timestamp`).
    pub fn encode(&self, timestamp: u32) -> Vec<u8> {
        let mut w = MrtWriter::new();
        w.write_peer_index_table(timestamp, self.collector_id, &self.view_name, &self.peers);
        for (prefix, entries) in &self.routes {
            w.write_rib_entry(timestamp, *prefix, entries);
        }
        w.finish()
    }

    /// Parses a full MRT file in place. The peer index table must come
    /// first, as RouteViews files are laid out.
    pub fn decode(bytes: impl AsRef<[u8]>) -> Result<TableDump, WireError> {
        let mut reader = MrtReader::new(bytes.as_ref());
        let mut dump = TableDump::default();
        let mut saw_index = false;
        while let Some((_ts, rec)) = reader.next_record()? {
            match rec {
                MrtRecord::PeerIndexTable {
                    collector_id,
                    view_name,
                    peers,
                } => {
                    dump.collector_id = collector_id;
                    dump.view_name = view_name;
                    dump.peers = peers;
                    saw_index = true;
                }
                MrtRecord::RibIpv4Unicast {
                    prefix, entries, ..
                } => {
                    if !saw_index {
                        return Err(WireError::MissingAttr("PEER_INDEX_TABLE"));
                    }
                    for e in &entries {
                        if e.peer_index as usize >= dump.peers.len() {
                            return Err(WireError::BadValue {
                                what: "peer index",
                                got: e.peer_index as u32,
                            });
                        }
                    }
                    dump.routes.push((prefix, entries));
                }
            }
        }
        Ok(dump)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::{AsPath, CodecError, Community, Origin};

    fn pfx(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn attrs(path: &str, lp: Option<u32>) -> WireAttrs {
        WireAttrs {
            origin: Origin::Igp,
            as_path: path.parse::<AsPath>().unwrap(),
            next_hop: 0x0101_0101,
            local_pref: lp,
            communities: vec![Community::new(1, 100)],
            ..Default::default()
        }
    }

    fn sample_dump() -> TableDump {
        TableDump {
            collector_id: 0xC0A8_0001,
            view_name: "oregon-routeviews".into(),
            peers: vec![
                PeerEntry {
                    bgp_id: 1,
                    addr: 0x0A00_0001,
                    asn: Asn(701),
                },
                PeerEntry {
                    bgp_id: 2,
                    addr: 0x0A00_0002,
                    asn: Asn(7018),
                },
            ],
            routes: vec![
                (
                    pfx("80.96.180.0/24"),
                    vec![
                        RibEntry {
                            peer_index: 0,
                            originated_time: 1_037_000_000,
                            attrs: attrs("701 8220 12878", None),
                        },
                        RibEntry {
                            peer_index: 1,
                            originated_time: 1_037_000_100,
                            attrs: attrs("7018 8220 12878", Some(90)),
                        },
                    ],
                ),
                (pfx("12.0.0.0/19"), vec![]),
            ],
        }
    }

    #[test]
    fn dump_roundtrip() {
        let dump = sample_dump();
        let bytes = dump.encode(1_037_000_000);
        // The bytes themselves, as the parent encoder wrote them: a round
        // trip alone would pass if encoder and decoder drifted together.
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "3dcf5d40000d000100000033c0a8000100116f7265676f6e2d726f7574657669\
             657773000202000000010a000001000002bd02000000020a00000200001b6a3d\
             cf5d40000d00020000006700000000185060b4000200003dcf5d400023400101\
             0040020e0203000002bd0000201c0000324e40030401010101c0080400010064\
             00013dcf5da4002a4001010040020e020300001b6a0000201c0000324e400304\
             010101014005040000005ac00804000100643dcf5d40000d00020000000a0000\
             0001130c00000000"
        );
        let got = TableDump::decode(bytes).unwrap();
        assert_eq!(got, dump);
    }

    #[test]
    fn reader_yields_records_in_order() {
        let bytes = sample_dump().encode(42);
        let mut r = MrtReader::new(&bytes);
        let (ts, first) = r.next_record().unwrap().unwrap();
        assert_eq!(ts, 42);
        assert!(matches!(first, MrtRecord::PeerIndexTable { .. }));
        let (_, second) = r.next_record().unwrap().unwrap();
        match second {
            MrtRecord::RibIpv4Unicast {
                sequence, prefix, ..
            } => {
                assert_eq!(sequence, 0);
                assert_eq!(prefix, pfx("80.96.180.0/24"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(r.next_record().unwrap().is_some());
        assert!(r.next_record().unwrap().is_none());
        assert!(r.is_empty());
    }

    #[test]
    fn rib_before_index_rejected() {
        let mut w = MrtWriter::new();
        w.write_rib_entry(0, pfx("1.0.0.0/8"), &[]);
        let err = TableDump::decode(w.finish()).unwrap_err();
        assert_eq!(err, WireError::MissingAttr("PEER_INDEX_TABLE"));
    }

    #[test]
    fn out_of_range_peer_index_rejected() {
        let mut dump = sample_dump();
        dump.routes[0].1[0].peer_index = 99;
        let err = TableDump::decode(dump.encode(0)).unwrap_err();
        assert!(matches!(
            err,
            WireError::BadValue {
                what: "peer index",
                ..
            }
        ));
    }

    /// A cut on a record edge is a clean end; any other cut fails the one
    /// read that spans it, named by its offset in the whole file — inside
    /// the record the cut falls in, wanting no byte past that record.
    /// Each cut also runs with its record's length field resealed to the
    /// cut body, so the failing read is one inside the record's reader.
    #[test]
    fn truncation_anywhere_is_an_error_not_a_panic() {
        let bytes = sample_dump().encode(7);
        let mut edges = vec![0];
        let mut r = MrtReader::new(&bytes);
        while r.next_record().unwrap().is_some() {
            edges.push(r.r.position());
        }
        for cut in 1..bytes.len() {
            let start = edges.iter().copied().filter(|&e| e <= cut).max().unwrap();
            let end = edges.iter().copied().find(|&e| e > cut).unwrap();
            let body = start + 12;
            let mut inputs = vec![(bytes[..cut].to_vec(), start)];
            if cut >= body {
                let mut resealed = bytes[..cut].to_vec();
                resealed[start + 8..body].copy_from_slice(&((cut - body) as u32).to_be_bytes());
                inputs.push((resealed, body));
            }
            for (input, lo) in inputs {
                let mut r = MrtReader::new(&input);
                let err = loop {
                    match r.next_record() {
                        Ok(Some(_)) => continue,
                        Ok(None) => break None,
                        Err(e) => break Some(e),
                    }
                };
                match err {
                    None => assert_eq!(cut, start, "cut {cut} inside a record decoded cleanly"),
                    Some(WireError::Codec(CodecError::Truncated { offset, wanted })) => assert!(
                        cut != start && lo <= offset && offset <= cut && cut + wanted <= end,
                        "cut {cut} in record {start}..{end}: read at {offset} wanted {wanted} more"
                    ),
                    Some(e) => panic!("cut {cut} gave {e:?}"),
                }
            }
        }
    }

    #[test]
    fn unsupported_record_type_reported() {
        let mut out = Vec::new();
        put_u32(&mut out, 0);
        put_u16(&mut out, 16); // TABLE_DUMP (v1) — unsupported here
        put_u16(&mut out, 1);
        put_u32(&mut out, 0);
        let mut r = MrtReader::new(&out);
        assert!(matches!(
            r.next_record(),
            Err(WireError::Unsupported {
                what: "MRT record",
                code: 16
            })
        ));
    }

    #[test]
    fn two_byte_peer_encoding_is_readable() {
        // Hand-encode a peer index table with a 2-byte-AS peer (type 0x00).
        let mut body = Vec::new();
        put_u32(&mut body, 9);
        put_u16(&mut body, 0); // empty view name
        put_u16(&mut body, 1);
        body.push(0x00);
        put_u32(&mut body, 5); // bgp id
        put_u32(&mut body, 6); // addr
        put_u16(&mut body, 701); // 2-byte ASN
        let mut w = MrtWriter::new();
        w.put_record(0, SUBTYPE_PEER_INDEX_TABLE, &body);
        let out = w.finish();
        let mut r = MrtReader::new(&out);
        match r.next_record().unwrap().unwrap().1 {
            MrtRecord::PeerIndexTable { peers, .. } => {
                assert_eq!(peers[0].asn, Asn(701));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
