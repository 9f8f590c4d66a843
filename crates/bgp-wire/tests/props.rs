//! Property tests: wire-format round-trips and mutation robustness.
//!
//! Offline build — random cases are driven by a seeded [`rand::rngs::StdRng`]
//! instead of proptest; same invariants, deterministic across runs.

use rand::prelude::*;

use bgp_types::codec::Reader;
use bgp_types::{AsPath, Asn, CodecError, Community, Ipv4Prefix, Origin, Route, Session};
use bgp_wire::msg::{decode_path_attributes, encode_path_attributes};
use bgp_wire::text::LgTable;
use bgp_wire::{Message, PeerEntry, RibEntry, TableDump, UpdateMessage, WireAttrs, WireError};

const CASES: usize = 192;

fn arb_prefix(rng: &mut StdRng) -> Ipv4Prefix {
    Ipv4Prefix::canonical(rng.gen::<u32>(), rng.gen_range(0..=32u8))
}

fn arb_asn(rng: &mut StdRng) -> Asn {
    if rng.gen_bool(0.8) {
        Asn(rng.gen_range(1..65_536u32))
    } else {
        Asn(rng.gen_range(65_536u32..=u32::MAX))
    }
}

fn arb_origin(rng: &mut StdRng) -> Origin {
    match rng.gen_range(0..3u8) {
        0 => Origin::Igp,
        1 => Origin::Egp,
        _ => Origin::Incomplete,
    }
}

fn arb_opt_u32(rng: &mut StdRng) -> Option<u32> {
    if rng.gen_bool(0.5) {
        Some(rng.gen::<u32>())
    } else {
        None
    }
}

fn arb_attrs(rng: &mut StdRng) -> WireAttrs {
    let path_len = rng.gen_range(1..8usize);
    WireAttrs {
        origin: arb_origin(rng),
        as_path: AsPath::from_seq((0..path_len).map(|_| arb_asn(rng)).collect::<Vec<_>>()),
        next_hop: rng.gen::<u32>(),
        med: arb_opt_u32(rng),
        local_pref: arb_opt_u32(rng),
        atomic_aggregate: rng.gen_bool(0.5),
        aggregator: if rng.gen_bool(0.5) {
            Some((arb_asn(rng), rng.gen::<u32>()))
        } else {
            None
        },
        communities: (0..rng.gen_range(0..6usize))
            .map(|_| Community::from_u32(rng.gen::<u32>()))
            .collect(),
    }
}

fn arb_update(rng: &mut StdRng) -> UpdateMessage {
    UpdateMessage {
        withdrawn: (0..rng.gen_range(0..6usize))
            .map(|_| arb_prefix(rng))
            .collect(),
        attrs: Some(arb_attrs(rng)),
        nlri: (0..rng.gen_range(1..6usize))
            .map(|_| arb_prefix(rng))
            .collect(),
    }
}

#[test]
fn attrs_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x6001);
    for _ in 0..CASES {
        let attrs = arb_attrs(&mut rng);
        let bytes = encode_path_attributes(&attrs);
        let got = decode_path_attributes(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(got, attrs);
    }
}

#[test]
fn update_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x6002);
    for _ in 0..CASES {
        let u = arb_update(&mut rng);
        let bytes = Message::Update(u.clone()).encode();
        let mut r = Reader::new(&bytes);
        let got = Message::decode(&mut r).unwrap();
        assert_eq!(got, Message::Update(u));
        assert!(r.is_exhausted());
    }
}

/// Any single-byte mutation of a valid UPDATE either still decodes (to
/// something) or errors — it must never panic or loop forever.
#[test]
fn update_mutation_never_panics() {
    let mut rng = StdRng::seed_from_u64(0x6003);
    for _ in 0..CASES {
        let u = arb_update(&mut rng);
        let bytes = Message::Update(u).encode();
        let mut raw = bytes;
        let i = rng.gen_range(0..raw.len());
        raw[i] = rng.gen::<u8>();
        let _ = Message::decode(&mut Reader::new(&raw));
    }
}

/// Truncation at any point errors cleanly, naming the read that spans
/// the cut by its offset in the whole stream: the UPDATE follows a
/// KEEPALIVE, so a message-relative offset would land before it.
#[test]
fn update_truncation_never_panics() {
    let mut rng = StdRng::seed_from_u64(0x6004);
    for _ in 0..CASES {
        let u = arb_update(&mut rng);
        let mut bytes = Message::Keepalive.encode();
        let start = bytes.len();
        bytes.extend_from_slice(&Message::Update(u).encode());
        let cut = rng.gen_range(start..bytes.len());
        let mut r = Reader::new(&bytes[..cut]);
        assert_eq!(Message::decode(&mut r), Ok(Message::Keepalive));
        match Message::decode(&mut r) {
            Err(WireError::Codec(CodecError::Truncated { offset, wanted })) => assert!(
                start <= offset && offset <= cut && cut + wanted <= bytes.len(),
                "cut {cut}: read at {offset} wanted {wanted} more"
            ),
            other => panic!("cut {cut} gave {other:?}"),
        }
    }
}

#[test]
fn random_bytes_never_panic_mrt() {
    let mut rng = StdRng::seed_from_u64(0x6005);
    for _ in 0..CASES {
        let data: Vec<u8> = (0..rng.gen_range(0..256usize))
            .map(|_| rng.gen::<u8>())
            .collect();
        let _ = TableDump::decode(&data);
    }
}

#[test]
fn mrt_dump_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x6006);
    for _ in 0..64 {
        let peers: Vec<PeerEntry> = (0..rng.gen_range(1..5usize))
            .map(|_| PeerEntry {
                bgp_id: rng.gen::<u32>(),
                addr: rng.gen::<u32>(),
                asn: arb_asn(&mut rng),
            })
            .collect();
        let n = peers.len() as u16;
        let routes: Vec<(Ipv4Prefix, Vec<RibEntry>)> = (0..rng.gen_range(0..5usize))
            .map(|_| {
                let p = arb_prefix(&mut rng);
                let entries = (0..rng.gen_range(0..3usize))
                    .map(|i| RibEntry {
                        peer_index: (i as u16) % n,
                        originated_time: rng.gen::<u32>(),
                        attrs: arb_attrs(&mut rng),
                    })
                    .collect();
                (p, entries)
            })
            .collect();
        let dump = TableDump {
            collector_id: 7,
            view_name: "v".into(),
            peers,
            routes: routes.into_iter().collect(),
        };
        let got = TableDump::decode(dump.encode(0)).unwrap();
        assert_eq!(got, dump);
    }
}

#[test]
fn lg_table_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x6007);
    for _ in 0..64 {
        let local_as = arb_asn(&mut rng);
        let router_id = rng.gen::<u32>();
        let routes: Vec<Route> = (0..rng.gen_range(0..8usize))
            .map(|_| {
                let p = arb_prefix(&mut rng);
                let path: Vec<Asn> = (0..rng.gen_range(1..6usize))
                    .map(|_| arb_asn(&mut rng))
                    .collect();
                let comms: Vec<Community> = (0..rng.gen_range(0..3usize))
                    .map(|_| Community::from_u32(rng.gen::<u32>()))
                    .collect();
                let mut b = Route::builder(p)
                    .path_seq(path)
                    .origin(arb_origin(&mut rng))
                    .communities(comms);
                if let Some(lp) = arb_opt_u32(&mut rng) {
                    b = b.local_pref(lp);
                }
                if let Some(med) = arb_opt_u32(&mut rng) {
                    b = b.med(med);
                }
                if rng.gen_bool(0.5) {
                    b = b.session(Session::Ibgp);
                }
                b.build()
            })
            .collect();
        let t = LgTable {
            local_as,
            router_id,
            routes,
        };
        let got = LgTable::parse(&t.render()).unwrap();
        assert_eq!(got, t);
    }
}

#[test]
fn lg_parse_garbage_never_panics() {
    const POOL: &[u8] = b"0123456789./ ,:;*>id-_abcXYZ\t()!?";
    let mut rng = StdRng::seed_from_u64(0x6008);
    for _ in 0..CASES {
        let len = rng.gen_range(0..200usize);
        let s: String = (0..len)
            .map(|_| *POOL.choose(&mut rng).unwrap() as char)
            .collect();
        let _ = LgTable::parse(&s);
    }
}
