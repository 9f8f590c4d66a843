//! BGP-4 message encoding and decoding (RFC 4271 subset).
//!
//! Scope: everything the reproduction's pipeline needs — OPEN with the
//! 4-octet-AS capability, UPDATE with the attributes of §2.2.1 of the paper
//! (ORIGIN, AS_PATH, NEXT_HOP, MED, LOCAL_PREF, ATOMIC_AGGREGATE,
//! AGGREGATOR, COMMUNITIES), KEEPALIVE and NOTIFICATION. AS paths are
//! encoded natively with 4-byte AS numbers (an "AS4-speaker" session).

use bgp_types::codec::{put_u16, put_u32, Reader};
use bgp_types::{AsPath, Asn, Community, Ipv4Prefix, Origin, PathSegment};

use crate::error::WireError;

/// BGP message type codes.
const TYPE_OPEN: u8 = 1;
const TYPE_UPDATE: u8 = 2;
const TYPE_NOTIFICATION: u8 = 3;
const TYPE_KEEPALIVE: u8 = 4;

/// Path-attribute type codes.
const ATTR_ORIGIN: u8 = 1;
const ATTR_AS_PATH: u8 = 2;
const ATTR_NEXT_HOP: u8 = 3;
const ATTR_MED: u8 = 4;
const ATTR_LOCAL_PREF: u8 = 5;
const ATTR_ATOMIC_AGGREGATE: u8 = 6;
const ATTR_AGGREGATOR: u8 = 7;
const ATTR_COMMUNITIES: u8 = 8;

/// Attribute flag bits.
const FLAG_OPTIONAL: u8 = 0x80;
const FLAG_TRANSITIVE: u8 = 0x40;
const FLAG_EXTENDED: u8 = 0x10;

/// Maximum BGP message size (RFC 4271).
pub const MAX_MESSAGE: usize = 4096;

/// A decoded BGP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// OPEN.
    Open(OpenMessage),
    /// UPDATE.
    Update(UpdateMessage),
    /// KEEPALIVE (no body).
    Keepalive,
    /// NOTIFICATION.
    Notification(NotificationMessage),
}

/// An OPEN message (RFC 4271 §4.2) with the 4-octet-AS capability
/// (RFC 6793) always advertised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenMessage {
    /// The speaker's AS. Encoded in the 2-byte My-AS field when it fits,
    /// otherwise AS_TRANS goes there and the real ASN rides the capability.
    pub asn: Asn,
    /// Proposed hold time, seconds.
    pub hold_time: u16,
    /// BGP identifier (router ID).
    pub bgp_id: u32,
}

/// A NOTIFICATION message (RFC 4271 §4.5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotificationMessage {
    /// Major error code.
    pub code: u8,
    /// Subcode.
    pub subcode: u8,
    /// Diagnostic data.
    pub data: Vec<u8>,
}

/// The path attributes an UPDATE can carry in this subset.
///
/// Mirrors [`bgp_types::RouteAttrs`] but in wire-level terms: NEXT_HOP is an
/// IPv4 address here, and LOCAL_PREF is optional because it only appears on
/// iBGP (or Looking-Glass-exported) sessions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WireAttrs {
    /// ORIGIN.
    pub origin: Origin,
    /// AS_PATH (speaker-first, like [`AsPath`]).
    pub as_path: AsPath,
    /// NEXT_HOP IPv4 address.
    pub next_hop: u32,
    /// MULTI_EXIT_DISC.
    pub med: Option<u32>,
    /// LOCAL_PREF.
    pub local_pref: Option<u32>,
    /// ATOMIC_AGGREGATE presence.
    pub atomic_aggregate: bool,
    /// AGGREGATOR (ASN, router ID).
    pub aggregator: Option<(Asn, u32)>,
    /// COMMUNITIES.
    pub communities: Vec<Community>,
}

/// An UPDATE message (RFC 4271 §4.3).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UpdateMessage {
    /// Withdrawn prefixes.
    pub withdrawn: Vec<Ipv4Prefix>,
    /// Path attributes (present when `nlri` is non-empty).
    pub attrs: Option<WireAttrs>,
    /// Announced prefixes sharing `attrs`.
    pub nlri: Vec<Ipv4Prefix>,
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_header(out: &mut Vec<u8>, msg_type: u8, body_len: usize) {
    out.extend_from_slice(&[0xFF; 16]);
    put_u16(out, (19 + body_len) as u16);
    out.push(msg_type);
}

/// Appends a prefix in the RFC 4271 encoding — a length byte, then
/// ⌈len/8⌉ address bytes — shared by UPDATE NLRI / withdrawn routes and
/// MRT RIB records.
pub(crate) fn put_prefix(out: &mut Vec<u8>, p: Ipv4Prefix) {
    out.push(p.len());
    let nbytes = (p.len() as usize).div_ceil(8);
    out.extend_from_slice(&p.bits().to_be_bytes()[..nbytes]);
}

fn put_attr_header(out: &mut Vec<u8>, flags: u8, code: u8, len: usize) {
    if len > 255 {
        out.extend_from_slice(&[flags | FLAG_EXTENDED, code]);
        put_u16(out, len as u16);
    } else {
        out.extend_from_slice(&[flags, code, len as u8]);
    }
}

fn encode_as_path(path: &AsPath) -> Vec<u8> {
    let mut v = Vec::new();
    for seg in path.segments() {
        let (code, asns): (u8, &[Asn]) = match seg {
            PathSegment::Set(a) => (1, a),
            PathSegment::Seq(a) => (2, a),
        };
        // RFC limits a segment to 255 ASes; split longer ones.
        for chunk in asns.chunks(255) {
            v.push(code);
            v.push(chunk.len() as u8);
            for a in chunk {
                put_u32(&mut v, a.0);
            }
        }
    }
    v
}

/// Encodes the attribute block of an UPDATE (shared with MRT RIB entries,
/// which embed the identical encoding).
pub fn encode_path_attributes(attrs: &WireAttrs) -> Vec<u8> {
    let mut out = Vec::new();

    put_attr_header(&mut out, FLAG_TRANSITIVE, ATTR_ORIGIN, 1);
    out.push(match attrs.origin {
        Origin::Igp => 0,
        Origin::Egp => 1,
        Origin::Incomplete => 2,
    });

    let path_bytes = encode_as_path(&attrs.as_path);
    put_attr_header(&mut out, FLAG_TRANSITIVE, ATTR_AS_PATH, path_bytes.len());
    out.extend_from_slice(&path_bytes);

    put_attr_header(&mut out, FLAG_TRANSITIVE, ATTR_NEXT_HOP, 4);
    put_u32(&mut out, attrs.next_hop);

    if let Some(med) = attrs.med {
        put_attr_header(&mut out, FLAG_OPTIONAL, ATTR_MED, 4);
        put_u32(&mut out, med);
    }
    if let Some(lp) = attrs.local_pref {
        put_attr_header(&mut out, FLAG_TRANSITIVE, ATTR_LOCAL_PREF, 4);
        put_u32(&mut out, lp);
    }
    if attrs.atomic_aggregate {
        put_attr_header(&mut out, FLAG_TRANSITIVE, ATTR_ATOMIC_AGGREGATE, 0);
    }
    if let Some((asn, id)) = attrs.aggregator {
        put_attr_header(
            &mut out,
            FLAG_OPTIONAL | FLAG_TRANSITIVE,
            ATTR_AGGREGATOR,
            8,
        );
        put_u32(&mut out, asn.0);
        put_u32(&mut out, id);
    }
    if !attrs.communities.is_empty() {
        put_attr_header(
            &mut out,
            FLAG_OPTIONAL | FLAG_TRANSITIVE,
            ATTR_COMMUNITIES,
            4 * attrs.communities.len(),
        );
        for c in &attrs.communities {
            put_u32(&mut out, c.as_u32());
        }
    }
    out
}

impl Message {
    /// Serializes the message, header included.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Message::Open(o) => {
                // Body: version, my-as(2), hold, id, optlen, capability param.
                // Capability: param type 2, param len 6, cap code 65, cap len 4, ASN.
                let body_len = 10 + 8;
                put_header(&mut out, TYPE_OPEN, body_len);
                out.push(4);
                let my_as2: u16 = if o.asn.is_two_byte() {
                    o.asn.0 as u16
                } else {
                    Asn::TRANS.0 as u16
                };
                put_u16(&mut out, my_as2);
                put_u16(&mut out, o.hold_time);
                put_u32(&mut out, o.bgp_id);
                out.push(8); // optional parameters length
                out.push(2); // param type: capabilities
                out.push(6); // param length
                out.push(65); // capability: 4-octet AS
                out.push(4);
                put_u32(&mut out, o.asn.0);
            }
            Message::Update(u) => {
                let mut body = Vec::new();
                let mut withdrawn = Vec::new();
                for p in &u.withdrawn {
                    put_prefix(&mut withdrawn, *p);
                }
                put_u16(&mut body, withdrawn.len() as u16);
                body.extend_from_slice(&withdrawn);
                let attr_bytes = match &u.attrs {
                    Some(a) => encode_path_attributes(a),
                    None => Vec::new(),
                };
                put_u16(&mut body, attr_bytes.len() as u16);
                body.extend_from_slice(&attr_bytes);
                for p in &u.nlri {
                    put_prefix(&mut body, *p);
                }
                put_header(&mut out, TYPE_UPDATE, body.len());
                out.extend_from_slice(&body);
            }
            Message::Keepalive => put_header(&mut out, TYPE_KEEPALIVE, 0),
            Message::Notification(n) => {
                put_header(&mut out, TYPE_NOTIFICATION, 2 + n.data.len());
                out.push(n.code);
                out.push(n.subcode);
                out.extend_from_slice(&n.data);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Reads a prefix written by [`put_prefix`]; `what` names the field in
/// the error for a length over 32.
pub(crate) fn get_prefix(r: &mut Reader, what: &'static str) -> Result<Ipv4Prefix, WireError> {
    let len = r.u8()?;
    if len > 32 {
        return Err(WireError::BadValue {
            what,
            got: len as u32,
        });
    }
    let mut be = [0u8; 4];
    for (slot, &b) in be.iter_mut().zip(r.bytes((len as usize).div_ceil(8))?) {
        *slot = b;
    }
    // Canonicalize: trailing bits beyond `len` in the last byte are ignored
    // per RFC 4271 ("irrelevant bits").
    Ok(Ipv4Prefix::canonical(u32::from_be_bytes(be), len))
}

fn decode_as_path(mut r: Reader) -> Result<AsPath, WireError> {
    let mut segments = Vec::new();
    while !r.is_exhausted() {
        let seg_type = r.u8()?;
        let count = r.u8()?;
        let mut asns = Vec::with_capacity(count as usize);
        for _ in 0..count {
            asns.push(Asn(r.u32()?));
        }
        match seg_type {
            1 => segments.push(PathSegment::Set(asns)),
            2 => segments.push(PathSegment::Seq(asns)),
            other => {
                return Err(WireError::Unsupported {
                    what: "AS_PATH segment",
                    code: other as u32,
                })
            }
        }
    }
    // Merge adjacent SEQ segments produced by the 255-AS chunking.
    let mut merged: Vec<PathSegment> = Vec::with_capacity(segments.len());
    for seg in segments {
        match (merged.last_mut(), seg) {
            (Some(PathSegment::Seq(prev)), PathSegment::Seq(cur)) => prev.extend(cur),
            (_, seg) => merged.push(seg),
        }
    }
    Ok(AsPath::from_segments(merged))
}

/// A fixed-size attribute whose declared length is not its size.
fn check_len(len: usize, want: usize, what: &'static str) -> Result<(), WireError> {
    if len == want {
        Ok(())
    } else {
        Err(WireError::BadLength { what, got: len })
    }
}

/// Decodes a raw path-attribute block (as found in UPDATEs and MRT RIB
/// entries) into [`WireAttrs`], reading `r` to its end. Unknown optional
/// attributes are skipped; unknown well-known attributes are an error.
pub fn decode_path_attributes(r: &mut Reader) -> Result<WireAttrs, WireError> {
    let mut attrs = WireAttrs::default();
    let mut saw_origin = false;
    let mut saw_path = false;
    let mut saw_next_hop = false;

    while !r.is_exhausted() {
        let flags = r.u8()?;
        let code = r.u8()?;
        let len = if flags & FLAG_EXTENDED != 0 {
            r.u16()? as usize
        } else {
            r.u8()? as usize
        };
        let mut body = r.sub(len)?;

        match code {
            ATTR_ORIGIN => {
                check_len(len, 1, "ORIGIN")?;
                attrs.origin = match body.u8()? {
                    0 => Origin::Igp,
                    1 => Origin::Egp,
                    2 => Origin::Incomplete,
                    v => {
                        return Err(WireError::BadValue {
                            what: "ORIGIN",
                            got: v as u32,
                        })
                    }
                };
                saw_origin = true;
            }
            ATTR_AS_PATH => {
                attrs.as_path = decode_as_path(body)?;
                saw_path = true;
            }
            ATTR_NEXT_HOP => {
                check_len(len, 4, "NEXT_HOP")?;
                attrs.next_hop = body.u32()?;
                saw_next_hop = true;
            }
            ATTR_MED => {
                check_len(len, 4, "MED")?;
                attrs.med = Some(body.u32()?);
            }
            ATTR_LOCAL_PREF => {
                check_len(len, 4, "LOCAL_PREF")?;
                attrs.local_pref = Some(body.u32()?);
            }
            ATTR_ATOMIC_AGGREGATE => {
                check_len(len, 0, "ATOMIC_AGGREGATE")?;
                attrs.atomic_aggregate = true;
            }
            ATTR_AGGREGATOR => {
                check_len(len, 8, "AGGREGATOR")?;
                attrs.aggregator = Some((Asn(body.u32()?), body.u32()?));
            }
            ATTR_COMMUNITIES => {
                if len % 4 != 0 {
                    return Err(WireError::BadLength {
                        what: "COMMUNITIES",
                        got: len,
                    });
                }
                while !body.is_exhausted() {
                    attrs.communities.push(Community::from_u32(body.u32()?));
                }
            }
            other => {
                if flags & FLAG_OPTIONAL == 0 {
                    return Err(WireError::Unsupported {
                        what: "well-known attribute",
                        code: other as u32,
                    });
                }
                // Unknown optional attribute: skipped (body already consumed).
            }
        }
    }

    // RFC 4271 §6.3: ORIGIN/AS_PATH/NEXT_HOP mandatory when NLRI present.
    // Callers pass the block only when NLRI exists, so enforce here.
    if !saw_origin {
        return Err(WireError::MissingAttr("ORIGIN"));
    }
    if !saw_path {
        return Err(WireError::MissingAttr("AS_PATH"));
    }
    if !saw_next_hop {
        return Err(WireError::MissingAttr("NEXT_HOP"));
    }
    Ok(attrs)
}

impl Message {
    /// Decodes one message from `r`, consuming exactly its bytes. `r` may
    /// hold a concatenated stream; call repeatedly.
    pub fn decode(r: &mut Reader) -> Result<Message, WireError> {
        if r.bytes(16)?.iter().any(|&b| b != 0xFF) {
            return Err(WireError::BadMarker);
        }
        let total_len = r.u16()? as usize;
        let msg_type = r.u8()?;
        if !(19..=MAX_MESSAGE).contains(&total_len) {
            return Err(WireError::BadLength {
                what: "BGP message",
                got: total_len,
            });
        }
        let mut body = r.sub(total_len - 19)?;

        match msg_type {
            TYPE_OPEN => {
                let version = body.u8()?;
                if version != 4 {
                    return Err(WireError::BadValue {
                        what: "BGP version",
                        got: version as u32,
                    });
                }
                let my_as2 = body.u16()?;
                let hold_time = body.u16()?;
                let bgp_id = body.u32()?;
                let opt_len = body.u8()? as usize;
                let mut params = body.sub(opt_len)?;
                let mut asn = Asn(my_as2 as u32);
                // Scan capabilities for the 4-octet-AS number.
                while params.remaining() >= 2 {
                    let ptype = params.u8()?;
                    let plen = params.u8()? as usize;
                    let mut pbody = params.sub(plen)?;
                    if ptype == 2 {
                        while pbody.remaining() >= 2 {
                            let cap = pbody.u8()?;
                            let clen = pbody.u8()? as usize;
                            let mut cbody = pbody.sub(clen)?;
                            if cap == 65 && clen == 4 {
                                asn = Asn(cbody.u32()?);
                            }
                        }
                    }
                }
                Ok(Message::Open(OpenMessage {
                    asn,
                    hold_time,
                    bgp_id,
                }))
            }
            TYPE_UPDATE => {
                let wlen = body.u16()? as usize;
                let mut wbuf = body.sub(wlen)?;
                let mut withdrawn = Vec::new();
                while !wbuf.is_exhausted() {
                    withdrawn.push(get_prefix(&mut wbuf, "prefix length")?);
                }
                let alen = body.u16()? as usize;
                let mut abuf = body.sub(alen)?;
                let mut nlri = Vec::new();
                while !body.is_exhausted() {
                    nlri.push(get_prefix(&mut body, "prefix length")?);
                }
                let attrs = if alen > 0 {
                    Some(decode_path_attributes(&mut abuf)?)
                } else {
                    if !nlri.is_empty() {
                        return Err(WireError::MissingAttr("path attributes"));
                    }
                    None
                };
                Ok(Message::Update(UpdateMessage {
                    withdrawn,
                    attrs,
                    nlri,
                }))
            }
            TYPE_NOTIFICATION => {
                let code = body.u8()?;
                let subcode = body.u8()?;
                Ok(Message::Notification(NotificationMessage {
                    code,
                    subcode,
                    data: body.bytes(body.remaining())?.to_vec(),
                }))
            }
            TYPE_KEEPALIVE => {
                if !body.is_exhausted() {
                    return Err(WireError::BadLength {
                        what: "KEEPALIVE",
                        got: total_len,
                    });
                }
                Ok(Message::Keepalive)
            }
            other => Err(WireError::Unsupported {
                what: "BGP message",
                code: other as u32,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::CodecError;

    fn pfx(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn decode(bytes: &[u8]) -> Result<Message, WireError> {
        Message::decode(&mut Reader::new(bytes))
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn sample_attrs() -> WireAttrs {
        WireAttrs {
            origin: Origin::Igp,
            as_path: "701 1239 7018".parse().unwrap(),
            next_hop: 0xC0A8_4501,
            med: Some(5),
            local_pref: Some(210),
            atomic_aggregate: true,
            aggregator: Some((Asn(7018), 0x0A00_0001)),
            communities: vec![Community::new(12859, 1000), Community::NO_EXPORT],
        }
    }

    fn sample_update() -> UpdateMessage {
        UpdateMessage {
            withdrawn: vec![pfx("10.1.0.0/16"), pfx("0.0.0.0/0")],
            attrs: Some(sample_attrs()),
            nlri: vec![pfx("80.96.180.0/24"), pfx("12.0.0.0/19")],
        }
    }

    #[test]
    fn update_roundtrip() {
        let u = sample_update();
        let bytes = Message::Update(u.clone()).encode();
        let mut r = Reader::new(&bytes);
        let decoded = Message::decode(&mut r).unwrap();
        assert_eq!(decoded, Message::Update(u));
        assert!(r.is_exhausted(), "decode must consume exactly one message");
    }

    /// One message of each type, byte for byte: a round trip alone would
    /// pass if encoder and decoder drifted together.
    #[test]
    fn encodings_are_pinned() {
        let marker = "ffffffffffffffffffffffffffffffff";
        let cases = [
            (
                Message::Open(OpenMessage {
                    asn: Asn(4_200_000_123),
                    hold_time: 180,
                    bgp_id: 0x0101_0101,
                }),
                "002501045ba000b4010101010802064104fa56ea7b",
            ),
            (
                Message::Update(sample_update()),
                "0066020004100a010000434001010040020e0203000002bd000004d700001b6a\
                 400304c0a8450180040400000005400504000000d2400600c0070800001b6a0a\
                 000001c00808323b03e8ffffff01185060b4130c0000",
            ),
            (Message::Keepalive, "001304"),
            (
                Message::Notification(NotificationMessage {
                    code: 6,
                    subcode: 2,
                    data: vec![1, 2, 3],
                }),
                "0018030602010203",
            ),
        ];
        for (msg, after_marker) in cases {
            let bytes = msg.encode();
            assert_eq!(hex(&bytes), format!("{marker}{after_marker}"), "{msg:?}");
            assert_eq!(decode(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn update_without_attrs_is_pure_withdrawal() {
        let u = UpdateMessage {
            withdrawn: vec![pfx("10.1.0.0/16")],
            attrs: None,
            nlri: vec![],
        };
        let bytes = Message::Update(u.clone()).encode();
        assert_eq!(decode(&bytes).unwrap(), Message::Update(u));
    }

    #[test]
    fn open_roundtrip_two_byte_and_four_byte() {
        for asn in [Asn(7018), Asn(4_200_000_123)] {
            let o = OpenMessage {
                asn,
                hold_time: 180,
                bgp_id: 0x0101_0101,
            };
            let bytes = Message::Open(o.clone()).encode();
            assert_eq!(decode(&bytes).unwrap(), Message::Open(o));
        }
    }

    #[test]
    fn keepalive_and_notification_roundtrip() {
        let bytes = Message::Keepalive.encode();
        assert_eq!(bytes.len(), 19);
        assert_eq!(decode(&bytes).unwrap(), Message::Keepalive);

        let n = NotificationMessage {
            code: 6,
            subcode: 2,
            data: vec![1, 2, 3],
        };
        let bytes = Message::Notification(n.clone()).encode();
        assert_eq!(decode(&bytes).unwrap(), Message::Notification(n));
    }

    #[test]
    fn stream_of_messages_decodes_sequentially() {
        let mut stream = Message::Keepalive.encode();
        stream.extend_from_slice(
            &Message::Update(UpdateMessage {
                withdrawn: vec![],
                attrs: Some(sample_attrs()),
                nlri: vec![pfx("1.0.0.0/8")],
            })
            .encode(),
        );
        let mut r = Reader::new(&stream);
        assert_eq!(Message::decode(&mut r).unwrap(), Message::Keepalive);
        assert!(matches!(
            Message::decode(&mut r).unwrap(),
            Message::Update(_)
        ));
        assert!(r.is_exhausted());
    }

    #[test]
    fn bad_marker_rejected() {
        let mut bytes = Message::Keepalive.encode();
        bytes[0] = 0x00;
        assert_eq!(decode(&bytes), Err(WireError::BadMarker));
    }

    /// Every cut fails the one read that spans it: that read starts at or
    /// before the cut and wants only bytes the whole message has.
    #[test]
    fn truncation_reports_needed_bytes() {
        let bytes = Message::Update(UpdateMessage {
            withdrawn: vec![],
            attrs: Some(sample_attrs()),
            nlri: vec![pfx("1.0.0.0/8")],
        })
        .encode();
        for cut in 0..bytes.len() {
            match decode(&bytes[..cut]) {
                Err(WireError::Codec(CodecError::Truncated { offset, wanted })) => assert!(
                    offset <= cut && wanted > 0 && cut + wanted <= bytes.len(),
                    "cut {cut}: read at {offset} wanted {wanted} more"
                ),
                other => panic!("cut {cut} gave {other:?}"),
            }
        }
    }

    #[test]
    fn missing_mandatory_attr_rejected() {
        // Hand-build an UPDATE whose attribute block lacks AS_PATH.
        let mut attrs = vec![FLAG_TRANSITIVE, ATTR_ORIGIN, 1, 0];
        attrs.extend_from_slice(&[FLAG_TRANSITIVE, ATTR_NEXT_HOP, 4]);
        put_u32(&mut attrs, 1);
        let mut body = Vec::new();
        put_u16(&mut body, 0);
        put_u16(&mut body, attrs.len() as u16);
        body.extend_from_slice(&attrs);
        body.extend_from_slice(&[8, 10]); // NLRI 10.0.0.0/8
        let mut out = Vec::new();
        put_header(&mut out, TYPE_UPDATE, body.len());
        out.extend_from_slice(&body);
        assert_eq!(decode(&out), Err(WireError::MissingAttr("AS_PATH")));
    }

    #[test]
    fn unknown_optional_attr_skipped_unknown_wellknown_rejected() {
        let mut attrs = encode_path_attributes(&sample_attrs());
        // Append an unknown optional attribute (code 200).
        attrs.extend_from_slice(&[FLAG_OPTIONAL, 200, 2]);
        put_u16(&mut attrs, 0xBEEF);
        let got = decode_path_attributes(&mut Reader::new(&attrs)).unwrap();
        assert_eq!(got, sample_attrs());

        // An unknown *well-known* attribute must error.
        let mut bad = encode_path_attributes(&sample_attrs());
        bad.extend_from_slice(&[FLAG_TRANSITIVE, 201, 0]);
        assert!(matches!(
            decode_path_attributes(&mut Reader::new(&bad)),
            Err(WireError::Unsupported { .. })
        ));
    }

    #[test]
    fn long_as_path_chunks_and_remerges() {
        let asns: Vec<Asn> = (1..=300u32).map(Asn).collect();
        let attrs = WireAttrs {
            as_path: AsPath::from_seq(asns.clone()),
            next_hop: 1,
            ..Default::default()
        };
        let bytes = encode_path_attributes(&attrs);
        let got = decode_path_attributes(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(got.as_path, AsPath::from_seq(asns));
    }

    #[test]
    fn as_set_roundtrip() {
        let path = AsPath::from_segments([
            PathSegment::Seq(vec![Asn(701)]),
            PathSegment::Set(vec![Asn(7018), Asn(3549)]),
        ]);
        let attrs = WireAttrs {
            as_path: path.clone(),
            next_hop: 9,
            ..Default::default()
        };
        let bytes = encode_path_attributes(&attrs);
        let got = decode_path_attributes(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(got.as_path, path);
    }

    #[test]
    fn prefix_with_irrelevant_trailing_bits_is_canonicalized() {
        // 10.0.0.0/7 encoded with a second bit set in the trailing byte.
        let mut body = Vec::new();
        put_u16(&mut body, 0); // no withdrawn
        let attrs = encode_path_attributes(&WireAttrs {
            as_path: AsPath::from_seq([Asn(1)]),
            next_hop: 1,
            ..Default::default()
        });
        put_u16(&mut body, attrs.len() as u16);
        body.extend_from_slice(&attrs);
        body.push(7);
        body.push(0x0B); // 0000_1011: bit 8 beyond /7 must be ignored
        let mut out = Vec::new();
        put_header(&mut out, TYPE_UPDATE, body.len());
        out.extend_from_slice(&body);
        match decode(&out).unwrap() {
            Message::Update(u) => {
                assert_eq!(u.nlri, vec![Ipv4Prefix::canonical(0x0A00_0000, 7)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
