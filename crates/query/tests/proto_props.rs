//! Property-based tests for the wire grammar: `parse(render(req))`
//! round-trips for every query variant and scope shape, garbage never
//! panics the parser, the slice-scanning [`LineFramer`] frames any
//! chunking of any byte stream exactly like a byte-at-a-time reference,
//! and the byte-level [`write_response`] spells every answer exactly
//! like a `format!`-based reference renderer.
//!
//! The build environment is offline, so instead of proptest these use a
//! seeded [`rand::rngs::StdRng`] driving many random cases per property —
//! deterministic across runs, same invariants checked (the harness style
//! of `bgp-types/tests/props.rs`).

use rand::prelude::*;

use std::collections::BTreeMap;

use bgp_sim::churn::simulate_series;
use bgp_sim::{ChurnConfig, GroundTruth, PolicyParams, VantageSpec};
use bgp_types::{Asn, Ipv4Prefix, Relationship};
use net_topology::{InternetConfig, InternetSize};
use rpi_core::persistence::{PersistenceClass, UptimeHistogram};
use rpi_query::{
    parse, parse_script, render, render_response, render_scope, write_response, Frame, HijackEvent,
    HijackKind, LeakEvent, LineFramer, PersistenceAnswer, PolicySummary, Query, QueryEngine,
    QueryRequest, RelationshipFlip, Response, RouteAnswer, RovAnswer, SaHistoryPoint,
    SaOriginCount, SaStatus, Scope, SnapshotDiff, SnapshotId, VantageChurn,
};
use rpi_sec::{Roa, RoaTable, RovValidity};

const CASES: usize = 512;

fn arb_prefix(rng: &mut StdRng) -> Ipv4Prefix {
    Ipv4Prefix::canonical(rng.gen::<u32>(), rng.gen_range(0..=32u8))
}

fn arb_asn(rng: &mut StdRng) -> Asn {
    if rng.gen_bool(0.75) {
        Asn(rng.gen_range(1..70_000u32))
    } else {
        Asn(rng.gen_range(70_000u32..=u32::MAX))
    }
}

/// Any whitespace-free label round-trips through the explicit
/// `@label:…` form, including ones that look like other scopes.
fn arb_label(rng: &mut StdRng) -> String {
    const POOL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-._:@";
    let len = rng.gen_range(1..=16usize);
    (0..len)
        .map(|_| *POOL.as_ref().choose(rng).unwrap() as char)
        .collect()
}

fn arb_scope(rng: &mut StdRng) -> Scope {
    match rng.gen_range(0..5u8) {
        0 => Scope::Latest,
        1 => Scope::Id(SnapshotId(rng.gen_range(0..100u32))),
        2 => Scope::Label(arb_label(rng)),
        3 => Scope::All,
        _ => {
            // Only ascending ranges are wire-representable: `@7..3` is a
            // grammar error (a reversed range is meaningful solely for
            // `diff`, whose render uses the legacy `diff 7 3` spelling —
            // covered by `reversed_diffs_roundtrip_via_legacy_spelling`).
            let a = rng.gen_range(0..100u32);
            let b = rng.gen_range(0..100u32);
            Scope::Range(SnapshotId(a.min(b)), SnapshotId(a.max(b)))
        }
    }
}

fn arb_query(rng: &mut StdRng) -> Query {
    match rng.gen_range(0..13u8) {
        0 => Query::Route {
            vantage: arb_asn(rng),
            prefix: arb_prefix(rng),
        },
        1 => Query::Resolve {
            vantage: arb_asn(rng),
            prefix: arb_prefix(rng),
        },
        2 => Query::SaStatus {
            vantage: arb_asn(rng),
            prefix: arb_prefix(rng),
        },
        3 => Query::Relationship {
            a: arb_asn(rng),
            b: arb_asn(rng),
        },
        4 => Query::PolicySummary { asn: arb_asn(rng) },
        5 => Query::Diff,
        6 => Query::SaHistory {
            vantage: arb_asn(rng),
            prefix: arb_prefix(rng),
        },
        7 => Query::UptimeHistogram {
            vantage: arb_asn(rng),
        },
        8 => Query::TopKSaOrigins {
            vantage: arb_asn(rng),
            k: rng.gen_range(0..1000usize),
        },
        9 => Query::PersistenceClass {
            vantage: arb_asn(rng),
            prefix: arb_prefix(rng),
        },
        10 => Query::Rov {
            vantage: arb_asn(rng),
            prefix: arb_prefix(rng),
        },
        11 => Query::Hijacks,
        _ => Query::Leaks,
    }
}

fn arb_request(rng: &mut StdRng) -> QueryRequest {
    arb_query(rng).at(arb_scope(rng))
}

/// A mildly adversarial random string over the grammar's alphabet.
fn arb_garbage(rng: &mut StdRng, max_len: usize) -> String {
    const POOL: &[u8] = b"0123456789./ ,:;-_abcXYZ{}()<>!?*\t\"'@AS";
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| *POOL.as_ref().choose(rng).unwrap() as char)
        .collect()
}

#[test]
fn render_parse_roundtrips_every_variant() {
    let mut rng = StdRng::seed_from_u64(0x6001);
    let mut seen = [false; 13];
    for _ in 0..CASES {
        let req = arb_request(&mut rng);
        seen[match req.query {
            Query::Route { .. } => 0,
            Query::Resolve { .. } => 1,
            Query::SaStatus { .. } => 2,
            Query::Relationship { .. } => 3,
            Query::PolicySummary { .. } => 4,
            Query::Diff => 5,
            Query::SaHistory { .. } => 6,
            Query::UptimeHistogram { .. } => 7,
            Query::TopKSaOrigins { .. } => 8,
            Query::PersistenceClass { .. } => 9,
            Query::Rov { .. } => 10,
            Query::Hijacks => 11,
            Query::Leaks => 12,
        }] = true;
        let line = render(&req);
        let back =
            parse(&line).unwrap_or_else(|e| panic!("rendered line must parse: '{line}' → {e}"));
        assert_eq!(back, req, "round trip through '{line}'");
    }
    assert!(seen.iter().all(|&s| s), "generator covered every variant");
}

#[test]
fn render_is_a_fixed_point_of_parse() {
    let mut rng = StdRng::seed_from_u64(0x6002);
    for _ in 0..CASES {
        let req = arb_request(&mut rng);
        let line = render(&req);
        assert_eq!(render(&parse(&line).unwrap()), line);
    }
}

#[test]
fn default_scopes_match_query_class() {
    let mut rng = StdRng::seed_from_u64(0x6003);
    for _ in 0..CASES {
        let query = arb_query(&mut rng);
        if query == Query::Diff {
            continue; // diff has no default scope
        }
        // Strip the scope token off the canonical line and re-parse.
        let line = render(&query.clone().with_default_scope());
        let bare = line
            .rsplit_once(" @")
            .expect("canonical lines end in a scope token")
            .0;
        let req = parse(bare).unwrap();
        assert_eq!(req.query, query);
        assert_eq!(
            req.scope,
            if query.is_history() {
                Scope::All
            } else {
                Scope::Latest
            },
            "default scope for '{bare}'"
        );
    }
}

#[test]
fn reversed_diffs_roundtrip_via_legacy_spelling() {
    let mut rng = StdRng::seed_from_u64(0x6006);
    for _ in 0..CASES {
        let a = rng.gen_range(0..100u32);
        let b = rng.gen_range(0..100u32);
        let req = Query::Diff.at(Scope::Range(SnapshotId(a), SnapshotId(b)));
        let line = render(&req);
        assert_eq!(parse(&line).unwrap(), req, "round trip through '{line}'");
        if a > b {
            assert_eq!(
                line,
                format!("diff {a} {b}"),
                "reverse diffs use the legacy spelling"
            );
        }
    }
}

#[test]
fn reversed_ranges_never_parse_on_history_or_point_queries() {
    let mut rng = StdRng::seed_from_u64(0x6007);
    for _ in 0..CASES {
        let query = arb_query(&mut rng);
        if query == Query::Diff {
            continue;
        }
        let a = rng.gen_range(1..100u32);
        let b = rng.gen_range(0..a);
        let req = query.at(Scope::Range(SnapshotId(a), SnapshotId(b)));
        let line = render(&req);
        let err = parse(&line).expect_err("reversed ranges are grammar errors");
        assert!(
            err.to_string().contains("runs backwards"),
            "'{line}' → {err}"
        );
    }
}

#[test]
fn parser_never_panics_on_garbage() {
    let mut rng = StdRng::seed_from_u64(0x6004);
    for _ in 0..CASES {
        let s = arb_garbage(&mut rng, 60);
        let _ = parse(&s);
    }
    // Signed numbers: every one a grammar error (Rust's integer `FromStr`
    // would take the '+'), never a panic and never a request.
    for line in [
        "route AS+5 1.0.0.0/+8",
        "route AS5 1.0.0.0/+8",
        "route AS+5 1.0.0.0/8",
        "route AS5 +1.0.0.0/8",
        "top-sa AS1 +3",
        "diff +0 +2",
        "diff 0 +2",
        "uptime AS1 @+0..+3",
        "uptime AS1 @0..+3",
        "rel -1 +1",
        "summary +",
        "summary AS+",
    ] {
        assert!(parse(line).is_err(), "'{line}' must not parse");
    }
}

#[test]
fn scripts_report_the_right_line() {
    let mut rng = StdRng::seed_from_u64(0x6005);
    for _ in 0..64 {
        // A script of valid rendered lines with one garbage line spliced in.
        let n = rng.gen_range(1..8usize);
        let mut lines: Vec<String> = (0..n).map(|_| render(&arb_request(&mut rng))).collect();
        let bad_at = rng.gen_range(0..=lines.len());
        lines.insert(bad_at, "definitely-not-a-query x y".into());
        let text = lines.join("\n");
        let err = parse_script(&text).expect_err("script contains a bad line");
        assert_eq!(err.line, bad_at + 1, "in script:\n{text}");
    }
}

// ---------------------------------------------------------------------
// Framing: the slice scanner against a byte-at-a-time reference.
// ---------------------------------------------------------------------

/// The framer as it was before it learned to scan slices: one byte at a
/// time into an owned buffer. Kept here as the differential's oracle.
struct ByteFramer {
    buf: Vec<u8>,
    max_line: usize,
    discarding: bool,
    next_line: usize,
}

impl ByteFramer {
    fn new(max_line: usize) -> ByteFramer {
        ByteFramer {
            buf: Vec::new(),
            max_line: max_line.max(1),
            discarding: false,
            next_line: 1,
        }
    }

    /// The buffered bytes as the stream's next line.
    fn line(&mut self, line: &[u8]) -> Frame {
        self.next_line += 1;
        Frame::Line {
            line: self.next_line - 1,
            text: String::from_utf8_lossy(line).into_owned(),
        }
    }

    fn finish(&mut self) -> Option<Frame> {
        if std::mem::take(&mut self.discarding) || self.buf.is_empty() {
            return None;
        }
        let line = std::mem::take(&mut self.buf);
        Some(self.line(&line))
    }

    fn push(&mut self, bytes: &[u8]) -> Vec<Frame> {
        let mut out = Vec::new();
        for &b in bytes {
            if self.discarding {
                self.discarding = b != b'\n';
                continue;
            }
            if b == b'\n' {
                let mut line = std::mem::take(&mut self.buf);
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                out.push(self.line(&line));
                continue;
            }
            self.buf.push(b);
            let over = self.buf.len() > self.max_line + 1
                || (self.buf.len() > self.max_line && b != b'\r');
            if over {
                out.push(Frame::Oversized {
                    line: self.next_line,
                    length: self.buf.len(),
                });
                self.next_line += 1;
                self.buf.clear();
                self.discarding = true;
            }
        }
        out
    }
}

/// A stream of lines of every kind the framer must survive.
fn arb_stream(rng: &mut StdRng, max_line: usize) -> Vec<u8> {
    let mut stream = Vec::new();
    for _ in 0..rng.gen_range(1..40usize) {
        let mut line: Vec<u8> = match rng.gen_range(0..8u8) {
            0 | 1 => render(&arb_request(rng)).into_bytes(),
            2 => arb_garbage(rng, 40).into_bytes(),
            3 => vec![b'x'; max_line],
            4 => vec![b'y'; max_line + 1],
            5 => (0..rng.gen_range(0..3 * max_line))
                .map(|_| rng.gen_range(b' '..=b'~'))
                .collect(),
            // Invalid UTF-8, stray '\r's.
            6 => (0..rng.gen_range(0..max_line + 4))
                .map(|_| *[0xff, 0xc3, b'\r', b'a', 0x80, b' '].choose(rng).unwrap())
                .collect(),
            _ => Vec::new(),
        };
        line.retain(|&b| b != b'\n');
        stream.extend(line);
        match rng.gen_range(0..4u8) {
            0 => stream.extend(b"\r\n"),
            1 => stream.extend(b"\r\r\n"),
            _ => stream.push(b'\n'),
        }
    }
    if rng.gen_bool(0.5) {
        // An unterminated tail for `finish` to flush (or not).
        stream.extend(
            arb_garbage(rng, 2 * max_line)
                .bytes()
                .filter(|&b| b != b'\n'),
        );
    }
    stream
}

fn run_framer_differential(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..400 {
        let max_line = *[1usize, 2, 8, 31, 64].choose(&mut rng).unwrap();
        let stream = arb_stream(&mut rng, max_line);
        let (mut scanner, mut oracle) = (LineFramer::new(max_line), ByteFramer::new(max_line));
        let mut rest = &stream[..];
        while !rest.is_empty() {
            // Mostly small chunks — down to a byte — some whole reads.
            let cut = match rng.gen_range(0..4u8) {
                0 => 1,
                1 => rng.gen_range(1..=rest.len()),
                _ => rng.gen_range(1..=rest.len().min(max_line + 3)),
            };
            let (chunk, tail) = rest.split_at(cut);
            rest = tail;
            assert_eq!(
                scanner.push(chunk),
                oracle.push(chunk),
                "seed {seed:#x} case {case} (cap {max_line}): chunk {:?} of {:?}",
                String::from_utf8_lossy(chunk),
                String::from_utf8_lossy(&stream),
            );
            assert_eq!(
                scanner.buffered(),
                oracle.buf.len(),
                "seed {seed:#x} case {case}: buffered"
            );
        }
        assert_eq!(
            scanner.finish(),
            oracle.finish(),
            "seed {seed:#x} case {case}: the tail"
        );
        // Both are reusable after the flush, numbering included.
        assert_eq!(scanner.push(b"ping\n"), oracle.push(b"ping\n"));
    }
}

#[test]
fn slice_scanner_frames_like_the_byte_reference() {
    for seed in [0x7001, 0x7002, 0x7003] {
        run_framer_differential(seed);
    }
}

/// Extra seeds without a rebuild: `RPI_FRAMER_SEEDS=7,8,9 cargo test …`.
#[test]
fn slice_scanner_extra_seeds_from_env() {
    let Ok(spec) = std::env::var("RPI_FRAMER_SEEDS") else {
        return;
    };
    for part in spec.split(',').filter(|s| !s.trim().is_empty()) {
        let seed: u64 = part
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("bad seed '{part}' in RPI_FRAMER_SEEDS"));
        run_framer_differential(seed);
    }
}

// ---------------------------------------------------------------------
// Rendering: the byte writers against a `format!` reference.
// ---------------------------------------------------------------------

fn reference_sa(
    vantage: Asn,
    prefix: Ipv4Prefix,
    scope: Option<&str>,
    status: &SaStatus,
) -> String {
    let tail = scope.map(|s| format!(" {s}")).unwrap_or_default();
    match status {
        SaStatus::UnknownVantage => format!("{vantage} is not a vantage{tail}"),
        SaStatus::NotInTable => format!("{prefix} not in {vantage}'s table{tail}"),
        SaStatus::NotCustomerRoute => {
            format!("{prefix} at {vantage}{tail}: origin outside customer cone")
        }
        SaStatus::CustomerExported { origin } => {
            format!("{prefix} at {vantage}{tail}: exported normally by customer {origin}")
        }
        SaStatus::SelectivelyAnnounced { origin } => {
            format!("{prefix} at {vantage}{tail}: SELECTIVELY ANNOUNCED by {origin}")
        }
    }
}

fn reference_asns(asns: &[Asn], sep: &str) -> String {
    asns.iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(sep)
}

/// The response renderer as it was before it wrote bytes: `format!` all
/// the way down. Kept here as the oracle `write_response` must match.
fn reference_render(req: &QueryRequest, resp: &Response) -> String {
    let scope = render_scope(&req.scope);
    match (&req.query, resp) {
        (Query::Route { vantage, prefix }, Response::Route(ans)) => match ans {
            Some(r) => format!(
                "{prefix} at {vantage} {scope}: via {} path {}",
                r.next_hop,
                reference_asns(&r.path, " ")
            ),
            None => format!("{prefix} at {vantage} {scope}: no route"),
        },
        (Query::Resolve { vantage, prefix }, Response::Route(ans)) => match ans {
            Some(r) => format!(
                "{prefix} at {vantage} {scope}: matched {} via {} (origin {})",
                r.prefix,
                r.next_hop,
                r.origin()
            ),
            None => format!("{prefix} at {vantage} {scope}: no covering route"),
        },
        (Query::SaStatus { vantage, prefix }, Response::Sa(status)) => {
            reference_sa(*vantage, *prefix, Some(&scope), status)
        }
        (Query::Relationship { a, b }, Response::Relationship(rel)) => match rel {
            Some(r) => format!("{b} is {a}'s {r:?} {scope}"),
            None => format!("{a} and {b} are not adjacent in the oracle {scope}"),
        },
        (Query::PolicySummary { asn }, Response::Summary(s)) => match s {
            Some(s) => {
                let (prov, cust, peer, sib) = s.neighbor_counts;
                let typicality = s
                    .typicality_percent()
                    .map(|p| format!("{p:.1}%"))
                    .unwrap_or_else(|| "n/a".into());
                format!(
                    "{asn} {scope}: {} routes, {} customer prefixes, {} SA ({:.1}%), \
                     typicality {typicality}, {} tagged neighbors, \
                     neighbors {prov} providers / {cust} customers / {peer} peers / {sib} siblings",
                    s.routes,
                    s.customer_prefixes,
                    s.sa_count,
                    s.sa_percent(),
                    s.tagged_neighbors,
                )
            }
            None => format!("{asn} {scope}: unknown AS"),
        },
        (Query::Diff, Response::Diff(d)) => format!(
            "{} -> {}: {} new SA, {} gone SA, {} relationship flips, {} churned routes",
            d.from_label,
            d.to_label,
            d.new_sa.len(),
            d.gone_sa.len(),
            d.flips.len(),
            d.churned_routes()
        ),
        (Query::SaHistory { vantage, prefix }, Response::SaHistory(points)) => {
            let mut out = format!(
                "sa-history {prefix} at {vantage} {scope} ({} snapshots):",
                points.len()
            );
            for p in points {
                out.push_str(&format!(
                    "\n  {} {}: {}",
                    p.snapshot.0,
                    p.label,
                    reference_sa(*vantage, *prefix, None, &p.status)
                ));
            }
            out
        }
        (Query::UptimeHistogram { vantage }, Response::Uptime(h)) => {
            let remaining: usize = h.remaining.values().sum();
            let shifted: usize = h.shifted.values().sum();
            let mut out = format!(
                "uptime {vantage} {scope}: {} ever-SA prefixes, {remaining} remaining / {shifted} shifted ({:.1}% shifted)",
                h.total(),
                100.0 * h.shifted_fraction(),
            );
            for (&u, &n) in &h.remaining {
                out.push_str(&format!("\n  remaining, uptime {u}: {n}"));
            }
            for (&u, &n) in &h.shifted {
                out.push_str(&format!("\n  shifted, uptime {u}: {n}"));
            }
            out
        }
        (Query::TopKSaOrigins { vantage, k }, Response::TopSaOrigins(rows)) => {
            let mut out = format!("top-sa {vantage} {k} {scope}:");
            if rows.is_empty() {
                out.push_str(" no SA origins");
            }
            for (i, row) in rows.iter().enumerate() {
                out.push_str(&format!(
                    "\n  {}. {}: {} SA prefix{}",
                    i + 1,
                    row.origin,
                    row.prefixes,
                    if row.prefixes == 1 { "" } else { "es" }
                ));
            }
            out
        }
        (Query::PersistenceClass { vantage, prefix }, Response::Persistence(p)) => format!(
            "persistence {prefix} at {vantage} {scope}: present {}/{}, SA {} -> {}",
            p.present,
            p.snapshots,
            p.sa,
            p.class.describe()
        ),
        (Query::Rov { vantage, prefix }, Response::Rov(ans)) => match ans {
            RovAnswer::UnknownVantage => {
                format!("rov {prefix} at {vantage} {scope}: {vantage} is not a vantage")
            }
            RovAnswer::NoRoute => {
                format!("rov {prefix} at {vantage} {scope}: no route, nothing to validate")
            }
            RovAnswer::Validated {
                origin,
                validity,
                covering,
            } => {
                let roa = match covering {
                    Some(r) => format!(" (covering ROA {r})"),
                    None => " (no covering ROA)".to_string(),
                };
                format!(
                    "rov {prefix} at {vantage} {scope}: origin {origin} {}{roa}",
                    validity.name()
                )
            }
        },
        (Query::Hijacks, Response::Hijacks(events)) => {
            let mut out = format!(
                "hijacks {scope}: {} event{}",
                events.len(),
                if events.len() == 1 { "" } else { "s" }
            );
            for e in events {
                let owners = reference_asns(&e.owners, ",");
                out.push_str(&format!(
                    "\n  {} {}: {} {} by {} (owners {})",
                    e.snapshot.0,
                    e.label,
                    e.kind.name(),
                    e.prefix,
                    e.origin,
                    if owners.is_empty() {
                        "none".into()
                    } else {
                        owners
                    }
                ));
            }
            out
        }
        (Query::Leaks, Response::Leaks(events)) => {
            let mut out = format!(
                "leaks {scope}: {} leaked route{}",
                events.len(),
                if events.len() == 1 { "" } else { "s" }
            );
            for e in events {
                out.push_str(&format!(
                    "\n  {} at {}: leaked by {} path {}",
                    e.prefix,
                    e.vantage,
                    e.leaker,
                    reference_asns(&e.path, " ")
                ));
            }
            out
        }
        (_, resp) => format!("{resp:?}"),
    }
}

/// `write_response` against both the reference and its own wrapper.
fn assert_renders_like_the_reference(req: &QueryRequest, resp: &Response) {
    let mut wire = b"earlier output\n".to_vec();
    write_response(&mut wire, req, resp);
    let wire = String::from_utf8(wire).expect("responses are UTF-8");
    let line = wire
        .strip_prefix("earlier output\n")
        .expect("write_response only appends");
    assert_eq!(line, reference_render(req, resp) + "\n", "{}", render(req));
    assert_eq!(line, render_response(req, resp) + "\n");
}

fn arb_count(rng: &mut StdRng) -> usize {
    rng.gen::<u32>() as usize >> rng.gen_range(0..32u8)
}

fn arb_path(rng: &mut StdRng, min: usize) -> Vec<Asn> {
    (0..rng.gen_range(min..6usize))
        .map(|_| arb_asn(rng))
        .collect()
}

fn arb_sa_status(rng: &mut StdRng) -> SaStatus {
    match rng.gen_range(0..5u8) {
        0 => SaStatus::UnknownVantage,
        1 => SaStatus::NotInTable,
        2 => SaStatus::NotCustomerRoute,
        3 => SaStatus::CustomerExported {
            origin: arb_asn(rng),
        },
        _ => SaStatus::SelectivelyAnnounced {
            origin: arb_asn(rng),
        },
    }
}

fn arb_histogram(rng: &mut StdRng) -> BTreeMap<usize, usize> {
    (0..rng.gen_range(0..4u8))
        .map(|_| (rng.gen_range(1..40usize), rng.gen_range(1..500usize)))
        .collect()
}

/// A response of the query's own variant, every branch of it reachable.
fn arb_response(rng: &mut StdRng, query: &Query) -> Response {
    let route = |rng: &mut StdRng| {
        rng.gen_bool(0.8).then(|| RouteAnswer {
            snapshot: SnapshotId(rng.gen_range(0..9u32)),
            vantage: arb_asn(rng),
            prefix: arb_prefix(rng),
            next_hop: arb_asn(rng),
            path: arb_path(rng, 1),
        })
    };
    match query {
        Query::Route { .. } | Query::Resolve { .. } => Response::Route(route(rng)),
        Query::SaStatus { .. } => Response::Sa(arb_sa_status(rng)),
        Query::Relationship { .. } => Response::Relationship(
            [
                None,
                Some(Relationship::Provider),
                Some(Relationship::Customer),
                Some(Relationship::Peer),
                Some(Relationship::Sibling),
            ]
            .choose(rng)
            .copied()
            .unwrap(),
        ),
        Query::PolicySummary { asn } => Response::Summary(rng.gen_bool(0.9).then(|| {
            let customer_prefixes = arb_count(rng) % 5_000;
            let compared = arb_count(rng) % 5_000;
            PolicySummary {
                asn: *asn,
                kind: None,
                routes: arb_count(rng),
                customer_prefixes,
                sa_count: rng.gen_range(0..=customer_prefixes),
                typicality: rng
                    .gen_bool(0.7)
                    .then(|| (compared, rng.gen_range(0..=compared))),
                tagged_neighbors: arb_count(rng),
                neighbor_counts: (
                    arb_count(rng),
                    arb_count(rng),
                    arb_count(rng),
                    arb_count(rng),
                ),
            }
        })),
        Query::Diff => Response::Diff(SnapshotDiff {
            from_label: arb_label(rng),
            to_label: arb_label(rng),
            new_sa: vec![(arb_asn(rng), arb_prefix(rng)); rng.gen_range(0..4)],
            gone_sa: vec![(arb_asn(rng), arb_prefix(rng)); rng.gen_range(0..4)],
            flips: vec![
                RelationshipFlip {
                    a: arb_asn(rng),
                    b: arb_asn(rng),
                    before: None,
                    after: Some(Relationship::Peer),
                };
                rng.gen_range(0..3)
            ],
            churn: (0..rng.gen_range(0..3u8))
                .map(|_| VantageChurn {
                    vantage: arb_asn(rng),
                    added: arb_count(rng) % 1_000,
                    removed: arb_count(rng) % 1_000,
                    changed: arb_count(rng) % 1_000,
                })
                .collect(),
        }),
        Query::SaHistory { .. } => Response::SaHistory(
            (0..rng.gen_range(0..5u32))
                .map(|i| SaHistoryPoint {
                    snapshot: SnapshotId(i),
                    label: arb_label(rng),
                    status: arb_sa_status(rng),
                })
                .collect(),
        ),
        Query::UptimeHistogram { .. } => Response::Uptime(UptimeHistogram {
            remaining: arb_histogram(rng),
            shifted: arb_histogram(rng),
        }),
        Query::TopKSaOrigins { .. } => Response::TopSaOrigins(
            (0..rng.gen_range(0..4u8))
                .map(|_| SaOriginCount {
                    origin: arb_asn(rng),
                    prefixes: rng.gen_range(1..4usize),
                })
                .collect(),
        ),
        Query::PersistenceClass { .. } => Response::Persistence(PersistenceAnswer {
            snapshots: arb_count(rng),
            present: arb_count(rng),
            sa: arb_count(rng),
            class: *[
                PersistenceClass::NotSeen,
                PersistenceClass::NeverSa,
                PersistenceClass::RemainingSa,
                PersistenceClass::Shifted,
            ]
            .choose(rng)
            .unwrap(),
        }),
        Query::Rov { .. } => Response::Rov(match rng.gen_range(0..4u8) {
            0 => RovAnswer::UnknownVantage,
            1 => RovAnswer::NoRoute,
            _ => {
                let prefix = arb_prefix(rng);
                RovAnswer::Validated {
                    origin: arb_asn(rng),
                    validity: *[
                        RovValidity::Valid,
                        RovValidity::InvalidOrigin,
                        RovValidity::InvalidLength,
                        RovValidity::Unknown,
                    ]
                    .choose(rng)
                    .unwrap(),
                    covering: rng.gen_bool(0.7).then(|| Roa {
                        prefix,
                        // Half the ROAs authorize exactly their prefix,
                        // which prints without the `-<max_len>`.
                        max_len: if rng.gen_bool(0.5) {
                            prefix.len()
                        } else {
                            rng.gen_range(prefix.len()..=32)
                        },
                        origin: arb_asn(rng),
                    }),
                }
            }
        }),
        Query::Hijacks => Response::Hijacks(
            (0..rng.gen_range(0..4u32))
                .map(|i| HijackEvent {
                    snapshot: SnapshotId(i),
                    label: arb_label(rng),
                    kind: *[HijackKind::Origin, HijackKind::Subprefix, HijackKind::Moas]
                        .choose(rng)
                        .unwrap(),
                    prefix: arb_prefix(rng),
                    origin: arb_asn(rng),
                    owners: arb_path(rng, 0),
                })
                .collect(),
        ),
        Query::Leaks => Response::Leaks(
            (0..rng.gen_range(0..4u8))
                .map(|_| LeakEvent {
                    vantage: arb_asn(rng),
                    prefix: arb_prefix(rng),
                    leaker: arb_asn(rng),
                    path: arb_path(rng, 2),
                })
                .collect(),
        ),
    }
}

#[test]
fn byte_writer_matches_the_format_reference_on_every_branch() {
    let mut rng = StdRng::seed_from_u64(0x6008);
    for _ in 0..8 * CASES {
        let req = arb_request(&mut rng);
        let resp = arb_response(&mut rng, &req.query);
        assert_renders_like_the_reference(&req, &resp);
    }
    // A response paired with the wrong request still renders (as Debug).
    let req = Query::Hijacks.at(Scope::All);
    assert_renders_like_the_reference(&req, &Response::Route(None));
}

#[test]
fn byte_writer_matches_the_format_reference_on_an_ingested_world() {
    // A small churned series with ROAs for some of what it routes, so
    // every verb has real answers to render — and scopes that miss.
    let g = InternetConfig::of_size(InternetSize::Tiny)
        .with_seed(21)
        .build();
    let truth = GroundTruth::generate(&g, &PolicyParams::default());
    let spec = VantageSpec::paper_like(&g, 8, 4);
    let cfg = ChurnConfig {
        seed: 99,
        steps: 4,
        flip_prob: 0.5,
        link_failure_prob: 0.1,
        label: "day",
    };
    let mut engine = QueryEngine::default();
    engine.ingest_series(&simulate_series(&g, &truth, &spec, &cfg), &g);

    let mut rng = StdRng::seed_from_u64(0x6009);
    let vantages: Vec<Asn> = engine.vantages().into_iter().map(|(a, _)| a).collect();
    let mut routed: Vec<(Asn, Ipv4Prefix, Asn)> = Vec::new();
    for &vantage in &vantages {
        for probe in 0..200u32 {
            // The address space is bump-allocated from 1.0.0.0 upward.
            let dest = Ipv4Prefix::canonical((1 << 24) + (probe << 18), 32);
            let req = Query::Resolve {
                vantage,
                prefix: dest,
            }
            .at(Scope::Latest);
            if let Ok(Response::Route(Some(r))) = engine.execute(&req) {
                routed.push((vantage, r.prefix, r.origin()));
            }
        }
    }
    routed.sort();
    routed.dedup();
    assert!(
        routed.len() > 20,
        "the probe sweep found the world's routes"
    );
    engine.set_roas(RoaTable::new(
        routed
            .iter()
            .step_by(3)
            .map(|&(_, prefix, origin)| Roa {
                prefix,
                max_len: (prefix.len() + rng.gen_range(0..3u8)).min(32),
                origin: if rng.gen_bool(0.7) {
                    origin
                } else {
                    Asn(64_999)
                },
            })
            .collect(),
    ));

    let (mut answered, mut refused) = (0, 0);
    let mut seen = [false; 13];
    for _ in 0..4 * CASES {
        let mut req = arb_request(&mut rng);
        // Mostly ask about what the world holds; the random operands
        // `arb_request` drew cover the "unknown" answers.
        if rng.gen_bool(0.8) {
            let &(v, p, origin) = routed.choose(&mut rng).unwrap();
            match &mut req.query {
                Query::Route { vantage, prefix }
                | Query::Resolve { vantage, prefix }
                | Query::SaStatus { vantage, prefix }
                | Query::SaHistory { vantage, prefix }
                | Query::PersistenceClass { vantage, prefix }
                | Query::Rov { vantage, prefix } => (*vantage, *prefix) = (v, p),
                Query::UptimeHistogram { vantage } | Query::TopKSaOrigins { vantage, .. } => {
                    *vantage = v
                }
                Query::Relationship { a, b } => (*a, *b) = (v, origin),
                Query::PolicySummary { asn } => *asn = v,
                Query::Diff | Query::Hijacks | Query::Leaks => {}
            }
        }
        // Ids and ranges that exist half the time; labels never do.
        req.scope = match req.scope {
            Scope::Id(id) => Scope::Id(SnapshotId(id.0 % 8)),
            Scope::Range(a, b) => Scope::Range(SnapshotId(a.0 % 6), SnapshotId(a.0 % 6 + b.0 % 3)),
            other => other,
        };
        match engine.execute(&req) {
            Ok(resp) => {
                assert_renders_like_the_reference(&req, &resp);
                seen[req.query.verb_index()] = true;
                answered += 1;
            }
            Err(_) => refused += 1,
        }
    }
    assert!(seen.iter().all(|&s| s), "every verb answered: {seen:?}");
    assert!(
        answered > CASES && refused > CASES / 4,
        "{answered} answered, {refused} refused: the sample must hold both"
    );
}
