//! The observatory's one query protocol: a typed [`Query`] AST paired
//! with a snapshot [`Scope`], a typed [`Response`], and the shared text
//! grammar that the `rpi-queryd` REPL, batch query files, the tests and
//! the TCP front end ([`serve`](crate::serve)) all speak.
//!
//! [`parse`] and [`render`] round-trip: `parse(&render(&req)) == Ok(req)`
//! for every representable request, so query logs can be replayed and
//! goldens diffed byte-for-byte. (Two shapes are unrepresentable on the
//! wire: a [`Scope::Label`] containing whitespace — the grammar is line-
//! and word-oriented, so ingest labels must be whitespace-free to be
//! addressable — and a reversed [`Scope::Range`] on anything but `diff`,
//! which the engine rejects anyway.) [`parse_script`] parses a whole
//! query file and reports errors with 1-based line numbers.
//!
//! The serve path is bytes in, bytes out: [`LineFramer::scan`] hands out
//! lines borrowed from the read buffer, [`parse`] walks their words
//! without collecting them, and [`write_response`] appends the answer to
//! the connection's output with byte-level writers — no per-query
//! allocation and no `core::fmt` for the lookup verbs. [`LineFramer::push`]
//! and [`render_response`] are the owned-value forms of the same scanner
//! and writer.
//!
//! ## The grammar
//!
//! Every verb is one row of [`VERBS`] — name, usage (`<vantage> <prefix>
//! [@scope]`), help line, point or history — which [`parse`], [`render`],
//! [`Grammar`] (what `help` prints) and the per-verb metrics all read.
//!
//! A scope is one token: `@latest`, `@3` (snapshot id), `@label:day-07`
//! (or bare `@day-07` when the label is not a number or keyword), `@all`,
//! or `@0..3` (inclusive id range, ascending: a reversed or half-open
//! range like `@7..3` or `@3..` is a grammar error, never a silently
//! empty scope). Point queries default to `@latest`, history queries to
//! `@all`; `diff` needs an explicit range (the legacy `diff 0 2`
//! spelling is accepted and means `diff @0..2`; a *reverse* diff is
//! spelled `diff 2 0`, which is also how [`render`] canonicalizes it).
//! Numbers — ASNs, prefix lengths, snapshot ids, range endpoints, `k` —
//! are decimal digits only: no sign, so `AS+5` and `@+0..+3` are errors.
//!
//! ```
//! use rpi_query::{parse, render, Query, Scope};
//! use bgp_types::Asn;
//!
//! let req = parse("uptime AS64512").unwrap();
//! assert_eq!(req.query, Query::UptimeHistogram { vantage: Asn(64512) });
//! assert_eq!(req.scope, Scope::All); // history queries default to @all
//! assert_eq!(render(&req), "uptime AS64512 @all");
//! assert_eq!(parse(&render(&req)).unwrap(), req);
//! ```

use std::fmt;
use std::fmt::Write as _;
use std::io::Write as _;

use bgp_types::{Asn, Ipv4Prefix, Relationship};
use rpi_core::persistence::{PersistenceClass, UptimeHistogram};
use rpi_sec::{Roa, RovValidity};

use crate::engine::{PolicySummary, RouteAnswer, SaStatus};
use crate::snapshot::SnapshotId;
use crate::SnapshotDiff;

/// Which snapshots a [`Query`] runs against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Scope {
    /// The most recently ingested snapshot (`@latest`).
    Latest,
    /// One snapshot by id (`@3`).
    Id(SnapshotId),
    /// One snapshot by its ingest label (`@label:day-07`). Labels with
    /// whitespace cannot be spoken in the word-oriented wire grammar.
    Label(String),
    /// Every ingested snapshot, in id order (`@all`).
    All,
    /// An inclusive id range (`@0..3`). The wire grammar only speaks
    /// ascending ranges; a programmatically built reversed range is
    /// still meaningful for `diff` (from→to in either order, rendered as
    /// the legacy `diff <from> <to>` spelling) and an
    /// [`InvertedRange`](crate::QueryError::InvertedRange) error for
    /// history queries.
    Range(SnapshotId, SnapshotId),
}

/// One question for the observatory, minus its snapshot scope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// Exact best-route lookup at a vantage.
    Route {
        /// The vantage whose table is consulted.
        vantage: Asn,
        /// The exact table prefix.
        prefix: Ipv4Prefix,
    },
    /// Longest-prefix-match lookup: how would the vantage route traffic
    /// for this (possibly more-specific) prefix?
    Resolve {
        /// The vantage whose table is consulted.
        vantage: Asn,
        /// The destination prefix to resolve.
        prefix: Ipv4Prefix,
    },
    /// Fig. 4 status of a prefix as seen from a vantage.
    SaStatus {
        /// The observing vantage.
        vantage: Asn,
        /// The prefix under question.
        prefix: Ipv4Prefix,
    },
    /// The oracle relationship `b is a's …`.
    Relationship {
        /// The perspective AS.
        a: Asn,
        /// The neighbor.
        b: Asn,
    },
    /// Per-AS policy digest.
    PolicySummary {
        /// The AS to summarize.
        asn: Asn,
    },
    /// What changed between the two snapshots of the request's
    /// [`Scope::Range`].
    Diff,
    /// The prefix's SA status in every scoped snapshot (Fig 6's raw
    /// series, per prefix).
    SaHistory {
        /// The observing vantage.
        vantage: Asn,
        /// The prefix to follow.
        prefix: Ipv4Prefix,
    },
    /// Fig. 7 uptime histogram of the vantage's ever-SA prefixes over
    /// the scoped snapshots.
    UptimeHistogram {
        /// The observing vantage.
        vantage: Asn,
    },
    /// The origins with the most distinct SA prefixes at the vantage
    /// over the scoped snapshots.
    TopKSaOrigins {
        /// The observing vantage.
        vantage: Asn,
        /// How many origins to return.
        k: usize,
    },
    /// How one prefix's SA behaviour persists over the scoped snapshots.
    PersistenceClass {
        /// The observing vantage.
        vantage: Asn,
        /// The prefix to classify.
        prefix: Ipv4Prefix,
    },
    /// RFC 6811 route-origin validation of the vantage's best route for
    /// the prefix against the engine's ROA table.
    Rov {
        /// The vantage whose best route supplies the origin.
        vantage: Asn,
        /// The exact table prefix to validate.
        prefix: Ipv4Prefix,
    },
    /// Origin-hijack / MOAS events across the scoped snapshots: prefixes
    /// picking up an origin outside every owner's customer cone, and
    /// multi-origin conflicts.
    Hijacks,
    /// Valley-free violations visible in the scoped snapshot: routes
    /// whose AS path sends provider- or peer-learned traffic back up.
    Leaks,
}

/// One row of the verb table: what the grammar knows about a verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verb {
    /// The verb as spoken on the wire.
    pub name: &'static str,
    /// Its operands (`<prefix>`, `<k>` a count, any other `<…>` an ASN), then scope.
    pub usage: &'static str,
    /// What it answers, as `help` prints it.
    pub help: &'static str,
    /// A history verb, whose default scope is `@all` (else `@latest`).
    pub history: bool,
    /// How many operands the usage names, counted at compile time.
    arity: usize,
}

#[rustfmt::skip]
const fn verb(name: &'static str, usage: &'static str, help: &'static str, history: bool) -> Verb {
    let (u, mut at, mut arity) = (usage.as_bytes(), 0, 0);
    while at < u.len() {
        arity += (u[at] == b'<' && (at == 0 || u[at - 1] == b' ')) as usize;
        at += 1;
    }
    Verb { name, usage, help, history, arity }
}

/// Every grammar verb, in [`Query`] declaration order: a query's row is
/// its [`Query::verb_index`].
#[rustfmt::skip]
pub const VERBS: [Verb; 13] = [
    verb("route", "<vantage> <prefix> [@scope]", "exact best-route lookup", false),
    verb("resolve", "<vantage> <prefix> [@scope]", "longest-prefix-match lookup", false),
    verb("sa", "<vantage> <prefix> [@scope]", "Fig. 4 SA status of the prefix", false),
    verb("rel", "<a> <b> [@scope]", "oracle relationship (b is a's ...)", false),
    verb("summary", "<asn> [@scope]", "per-AS policy digest", false),
    verb("diff", "@<from>..<to>", "what changed between snapshots", false),
    verb("sa-history", "<vantage> <prefix> [@scope]", "SA status across snapshots", true),
    verb("uptime", "<vantage> [@scope]", "Fig. 7 uptime histogram", true),
    verb("top-sa", "<vantage> <k> [@scope]", "top-K SA origins", true),
    verb("persistence", "<vantage> <prefix> [@scope]", "per-prefix persistence class", true),
    verb("rov", "<vantage> <prefix> [@scope]", "RFC 6811 route-origin validation", false),
    verb("hijacks", "[@scope]", "origin-hijack / MOAS events across snapshots", true),
    verb("leaks", "[@scope]", "valley-free violations in one snapshot", false),
];

/// One operand of a query, of the kind its usage word names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arg {
    Asn(Asn),
    Prefix(Ipv4Prefix),
    Count(usize),
    None,
}

/// A query's row of [`VERBS`] and its operands in usage order; [`join`]
/// is the inverse.
fn split(query: &Query) -> (usize, [Arg; 2]) {
    use Arg::{Asn as A, Count as K, None as N, Prefix as P};
    match *query {
        Query::Route { vantage, prefix } => (0, [A(vantage), P(prefix)]),
        Query::Resolve { vantage, prefix } => (1, [A(vantage), P(prefix)]),
        Query::SaStatus { vantage, prefix } => (2, [A(vantage), P(prefix)]),
        Query::Relationship { a, b } => (3, [A(a), A(b)]),
        Query::PolicySummary { asn } => (4, [A(asn), N]),
        Query::Diff => (5, [N, N]),
        Query::SaHistory { vantage, prefix } => (6, [A(vantage), P(prefix)]),
        Query::UptimeHistogram { vantage } => (7, [A(vantage), N]),
        Query::TopKSaOrigins { vantage, k } => (8, [A(vantage), K(k)]),
        Query::PersistenceClass { vantage, prefix } => (9, [A(vantage), P(prefix)]),
        Query::Rov { vantage, prefix } => (10, [A(vantage), P(prefix)]),
        Query::Hijacks => (11, [N, N]),
        Query::Leaks => (12, [N, N]),
    }
}

/// The query of row `row` from its operand words (`""` past the last),
/// each parsed as its usage word names it, in usage order; [`split`] is
/// the inverse.
#[rustfmt::skip]
fn join(row: usize, [a, b]: [&str; 2]) -> Result<Query, ParseError> {
    let verb = VERBS[row].name;
    let count = |k: &str| {
        parse_digits(k)
            .ok_or_else(|| ParseError::Malformed(format!("{verb} wants a count, got '{k}'")))
    };
    Ok(match row {
        0 => Query::Route { vantage: parse_asn(a)?, prefix: parse_prefix(b)? },
        1 => Query::Resolve { vantage: parse_asn(a)?, prefix: parse_prefix(b)? },
        2 => Query::SaStatus { vantage: parse_asn(a)?, prefix: parse_prefix(b)? },
        3 => Query::Relationship { a: parse_asn(a)?, b: parse_asn(b)? },
        4 => Query::PolicySummary { asn: parse_asn(a)? },
        5 => Query::Diff,
        6 => Query::SaHistory { vantage: parse_asn(a)?, prefix: parse_prefix(b)? },
        7 => Query::UptimeHistogram { vantage: parse_asn(a)? },
        // A bad count is reported before a bad vantage.
        8 => { let k = count(b)?; Query::TopKSaOrigins { vantage: parse_asn(a)?, k } }
        9 => Query::PersistenceClass { vantage: parse_asn(a)?, prefix: parse_prefix(b)? },
        10 => Query::Rov { vantage: parse_asn(a)?, prefix: parse_prefix(b)? },
        11 => Query::Hijacks,
        12 => Query::Leaks,
        _ => unreachable!("no row {row}"),
    })
}

impl Query {
    /// The grammar verb of this query.
    pub fn verb(&self) -> &'static str {
        VERBS[self.verb_index()].name
    }

    /// This query's row of [`VERBS`], which is also its index into the
    /// per-verb metric families ([`crate::metrics::QueryMetrics`]).
    pub fn verb_index(&self) -> usize {
        split(self).0
    }

    /// `true` for the multi-snapshot history queries (whose default
    /// scope is `@all`).
    pub fn is_history(&self) -> bool {
        VERBS[self.verb_index()].history
    }

    /// Pairs the query with a scope.
    pub fn at(self, scope: Scope) -> QueryRequest {
        QueryRequest { query: self, scope }
    }

    /// Pairs the query with its default scope (`@latest` for point
    /// queries, `@all` for history queries).
    pub fn with_default_scope(self) -> QueryRequest {
        let scope = if self.is_history() {
            Scope::All
        } else {
            Scope::Latest
        };
        self.at(scope)
    }
}

/// A [`Query`] plus the [`Scope`] it runs against — the unit the engine
/// executes and the wire grammar encodes, one per line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryRequest {
    /// The question.
    pub query: Query,
    /// The snapshots it is asked of.
    pub scope: Scope,
}

/// One point of a [`Response::SaHistory`] answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaHistoryPoint {
    /// The snapshot.
    pub snapshot: SnapshotId,
    /// Its ingest label.
    pub label: String,
    /// The prefix's Fig. 4 status there.
    pub status: SaStatus,
}

/// One row of a [`Response::TopSaOrigins`] answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaOriginCount {
    /// The originating customer.
    pub origin: Asn,
    /// Distinct prefixes of that origin that were SA in at least one
    /// scoped snapshot.
    pub prefixes: usize,
}

/// The answer to a `persistence` query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistenceAnswer {
    /// Snapshots in scope.
    pub snapshots: usize,
    /// Snapshots in which the prefix was in the vantage's table.
    pub present: usize,
    /// Snapshots in which it was selectively announced.
    pub sa: usize,
    /// The resulting class.
    pub class: PersistenceClass,
}

/// The answer to a `rov` query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RovAnswer {
    /// The named vantage has no table in the scoped snapshot.
    UnknownVantage,
    /// The vantage has no best route for the exact prefix — there is no
    /// origin to validate.
    NoRoute,
    /// The route's origin was validated against the ROA table.
    Validated {
        /// The origin AS of the vantage's best route.
        origin: Asn,
        /// Its RFC 6811 validity.
        validity: RovValidity,
        /// The longest covering ROA that decided the verdict (`None` for
        /// [`RovValidity::Unknown`]: nothing covers the prefix).
        covering: Option<Roa>,
    },
}

/// What kind of event a [`HijackEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HijackKind {
    /// A prefix originated by an AS outside every owner's customer cone.
    Origin,
    /// A more-specific of an owned prefix, originated outside the
    /// owners' cones.
    Subprefix,
    /// The same prefix originated by multiple ASes in one snapshot.
    Moas,
}

impl HijackKind {
    /// Stable lowercase name, as printed on the wire.
    pub fn name(&self) -> &'static str {
        match self {
            HijackKind::Origin => "origin-hijack",
            HijackKind::Subprefix => "subprefix-hijack",
            HijackKind::Moas => "moas",
        }
    }
}

/// One row of a [`Response::Hijacks`] answer: the first scoped snapshot
/// in which the suspicious (prefix, origin) pairing appeared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HijackEvent {
    /// The snapshot where the event first appears.
    pub snapshot: SnapshotId,
    /// Its ingest label.
    pub label: String,
    /// What happened.
    pub kind: HijackKind,
    /// The announced prefix.
    pub prefix: Ipv4Prefix,
    /// The suspect origin.
    pub origin: Asn,
    /// The baseline owners of the (covering) prefix, ascending.
    pub owners: Vec<Asn>,
}

/// One row of a [`Response::Leaks`] answer: a stored path that violates
/// the valley-free rule under the relationship oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeakEvent {
    /// The vantage whose table holds the leaked route.
    pub vantage: Asn,
    /// The routed prefix.
    pub prefix: Ipv4Prefix,
    /// The AS that forwarded a provider- or peer-learned route upward —
    /// the valley's turning point.
    pub leaker: Asn,
    /// The full speaker-first AS path (vantage included).
    pub path: Vec<Asn>,
}

/// The typed answer to a [`QueryRequest`]; variants mirror [`Query`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to `route` and `resolve` (`None`: no (covering) route).
    Route(Option<RouteAnswer>),
    /// Answer to `sa`.
    Sa(SaStatus),
    /// Answer to `rel` (`None`: not adjacent in the oracle).
    Relationship(Option<Relationship>),
    /// Answer to `summary` (`None`: AS never seen at ingest time).
    Summary(Option<PolicySummary>),
    /// Answer to `diff`.
    Diff(SnapshotDiff),
    /// Answer to `sa-history`, one point per scoped snapshot.
    SaHistory(Vec<SaHistoryPoint>),
    /// Answer to `uptime` — the same [`UptimeHistogram`] that
    /// [`rpi_core::persistence::uptime_histogram`] computes directly.
    Uptime(UptimeHistogram),
    /// Answer to `top-sa`, descending by prefix count (ties by ASN).
    TopSaOrigins(Vec<SaOriginCount>),
    /// Answer to `persistence`.
    Persistence(PersistenceAnswer),
    /// Answer to `rov`.
    Rov(RovAnswer),
    /// Answer to `hijacks`, ordered by (snapshot, prefix, origin).
    Hijacks(Vec<HijackEvent>),
    /// Answer to `leaks`, ordered by (vantage, prefix, path).
    Leaks(Vec<LeakEvent>),
}

/// Why a line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The verb is not part of the grammar; [`fmt::Display`] lists the
    /// valid queries.
    UnknownQuery(String),
    /// The verb is known but its operands or scope are malformed.
    Malformed(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::UnknownQuery(verb) => {
                write!(f, "unknown query '{verb}'; valid queries:\n{Grammar}")
            }
            ParseError::Malformed(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// A [`ParseError`] located in a multi-line query script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong there.
    pub error: ParseError,
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.error)
    }
}

impl std::error::Error for ScriptError {}

/// The grammar text — one line per row of [`VERBS`], then the scopes:
/// what `help` prints and unknown-query errors append.
#[derive(Debug, Clone, Copy)]
pub struct Grammar;

impl fmt::Display for Grammar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let form = |v: &Verb| v.name.len() + v.usage.len();
        let width = VERBS.iter().map(form).max().unwrap_or(0);
        for v in &VERBS {
            let pad = width + 2 - form(v);
            writeln!(f, "{} {}{:pad$}{}", v.name, v.usage, "", v.help)?;
        }
        f.write_str(
            "scopes: @latest  @<id>  @label:<name>  @all  @<from>..<to>   \
             (point queries default to @latest, history queries to @all)",
        )
    }
}

/// Decimal digits only. Rust's integer `FromStr` also takes a leading
/// `+`, which the grammar does not: `AS+5` is not an ASN.
fn parse_digits<T: TryFrom<u64>>(s: &str) -> Option<T> {
    if s.is_empty() {
        return None;
    }
    let mut v: u64 = 0;
    for b in s.bytes() {
        if !b.is_ascii_digit() {
            return None;
        }
        v = v.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
    }
    T::try_from(v).ok()
}

fn parse_asn(s: &str) -> Result<Asn, ParseError> {
    parse_digits(s.strip_prefix("AS").unwrap_or(s))
        .map(Asn)
        .ok_or_else(|| ParseError::Malformed(format!("bad ASN '{s}'")))
}

fn parse_prefix(s: &str) -> Result<Ipv4Prefix, ParseError> {
    s.parse::<Ipv4Prefix>()
        .map_err(|e| ParseError::Malformed(format!("bad prefix '{s}': {e}")))
}

fn parse_snap(s: &str) -> Result<SnapshotId, ParseError> {
    parse_digits(s)
        .map(SnapshotId)
        .ok_or_else(|| ParseError::Malformed(format!("bad snapshot id '{s}'")))
}

/// Parses one scope token, *without* its leading `@`.
fn parse_scope_body(body: &str) -> Result<Scope, ParseError> {
    if body == "latest" {
        return Ok(Scope::Latest);
    }
    if body == "all" {
        return Ok(Scope::All);
    }
    if let Some(label) = body.strip_prefix("label:") {
        return Ok(Scope::Label(label.to_string()));
    }
    if let Some((from, to)) = body.split_once("..") {
        if from.is_empty() || to.is_empty() {
            return Err(ParseError::Malformed(format!(
                "empty scope range '@{body}': both endpoints are required (@<from>..<to>)"
            )));
        }
        let from = parse_snap(from)
            .map_err(|_| ParseError::Malformed(format!("bad scope range '@{body}'")))?;
        let to = parse_snap(to)
            .map_err(|_| ParseError::Malformed(format!("bad scope range '@{body}'")))?;
        if from > to {
            return Err(ParseError::Malformed(format!(
                "scope range '@{body}' runs backwards: use '@{}..{}' (a reverse diff is spelled 'diff {} {}')",
                to.0, from.0, from.0, to.0
            )));
        }
        return Ok(Scope::Range(from, to));
    }
    if body.bytes().all(|b| b.is_ascii_digit()) && !body.is_empty() {
        return Ok(Scope::Id(parse_snap(body)?));
    }
    if body.is_empty() {
        return Err(ParseError::Malformed("empty scope '@'".into()));
    }
    // Anything else is a bare label (`@day-07`).
    Ok(Scope::Label(body.to_string()))
}

/// Renders a scope as its canonical token.
pub fn render_scope(scope: &Scope) -> String {
    let mut out = Vec::new();
    put_scope(&mut out, scope);
    String::from_utf8(out).expect("a scope token is UTF-8")
}

/// [`str::split_whitespace`] for an all-ASCII line, without decoding
/// chars: on ASCII, `char::is_whitespace` is exactly these six bytes.
fn ascii_words(line: &str) -> impl Iterator<Item = &str> {
    let is_space = |b: u8| matches!(b, b'\t'..=b'\r' | b' ');
    let bytes = line.as_bytes();
    let mut at = 0;
    std::iter::from_fn(move || {
        while at < bytes.len() && is_space(bytes[at]) {
            at += 1;
        }
        let start = at;
        while at < bytes.len() && !is_space(bytes[at]) {
            at += 1;
        }
        (start < at).then(|| &line[start..at])
    })
}

/// Parses one query line into a request. Leading/trailing whitespace is
/// ignored; the line must not be empty or a `#` comment (callers skip
/// those — [`parse_script`] does).
pub fn parse(line: &str) -> Result<QueryRequest, ParseError> {
    if line.is_ascii() {
        parse_words(ascii_words(line))
    } else {
        parse_words(line.split_whitespace())
    }
}

fn parse_words<'a>(words: impl Iterator<Item = &'a str>) -> Result<QueryRequest, ParseError> {
    // No verb takes more than two operands: a third is kept only so
    // `diff`'s slice patterns below see "too many"; the count feeds the
    // arity check and its message.
    let mut head = [""; 4];
    let mut count = 0;
    let mut last = "";
    for word in words {
        if let Some(slot) = head.get_mut(count) {
            *slot = word;
        }
        count += 1;
        last = word;
    }
    let scope = match last.strip_prefix('@') {
        Some(body) => {
            count -= 1;
            Some(parse_scope_body(body)?)
        }
        None => None,
    };
    if count == 0 {
        return Err(ParseError::Malformed("empty query".into()));
    }
    let verb = head[0];
    let args = &head[1..count.min(head.len())];
    let count = count - 1;

    let Some(row) = VERBS.iter().position(|v| v.name == verb) else {
        return Err(ParseError::UnknownQuery(verb.to_string()));
    };
    let usage = VERBS[row].usage;
    if row == Query::Diff.verb_index() {
        return match (args, scope) {
            // Legacy spelling: `diff 0 2` ≡ `diff @0..2`.
            ([from, to], None) => {
                Ok(Query::Diff.at(Scope::Range(parse_snap(from)?, parse_snap(to)?)))
            }
            ([], Some(scope)) => Ok(Query::Diff.at(scope)),
            _ => Err(ParseError::Malformed(format!(
                "'{verb}' wants a snapshot range: {verb} {usage} (or: {verb} <from> <to>)"
            ))),
        };
    }
    if VERBS[row].arity != count {
        let want = match usage.trim_end_matches("[@scope]").trim_end() {
            "" => "no operands (only an optional @scope)",
            want => want,
        };
        return Err(ParseError::Malformed(format!(
            "'{verb}' wants {want}, got {count} operand{}",
            plural(count, "s")
        )));
    }
    let query = join(row, [head[1], head[2]])?;

    Ok(match scope {
        Some(scope) => query.at(scope),
        None => query.with_default_scope(),
    })
}

/// A session control verb — not a query, but part of the wire grammar:
/// control lines steer the connection (or REPL session) itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// `ping` — liveness probe; the peer answers `pong`.
    Ping,
    /// `quit` (or `exit`) — end this session/connection. Over TCP the
    /// server flushes pending responses and closes the connection.
    Quit,
    /// `shutdown` — stop the whole server (SIGINT-free shutdown): the
    /// listener closes, every connection is flushed and closed, and the
    /// serve loop returns its final stats snapshot. In the stdin REPL
    /// this is equivalent to `quit`.
    Shutdown,
}

/// Recognizes a control verb. Controls are whole lines, not prefixes:
/// `ping extra` is *not* a control (it falls through to query parsing
/// and fails there, like any other malformed line).
pub fn parse_control(line: &str) -> Option<Control> {
    match line.trim() {
        "ping" => Some(Control::Ping),
        "quit" | "exit" => Some(Control::Quit),
        "shutdown" => Some(Control::Shutdown),
        _ => None,
    }
}

/// One complete frame extracted from a connection's byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A complete line (terminator stripped, `\r\n` tolerated), with its
    /// 1-based line number within the stream.
    Line {
        /// 1-based position of this line in the connection's stream.
        line: usize,
        /// The line text, without its terminator.
        text: String,
    },
    /// A line that exceeded the framer's cap before its newline arrived.
    /// The rest of the oversized line is discarded up to the next
    /// terminator; the connection itself stays usable.
    Oversized {
        /// 1-based position of the oversized line.
        line: usize,
        /// How many bytes had accumulated when the cap tripped (the line
        /// was at least this long).
        length: usize,
    },
}

/// A [`Frame`] whose line text is borrowed — from the bytes being
/// scanned, or from the framer's own buffer for the one line a read
/// completes. What [`LineFramer::scan`] hands its sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameRef<'a> {
    /// See [`Frame::Line`].
    Line {
        /// 1-based position of this line in the connection's stream.
        line: usize,
        /// The line text, without its terminator.
        text: &'a str,
    },
    /// See [`Frame::Oversized`].
    Oversized {
        /// 1-based position of the oversized line.
        line: usize,
        /// How many bytes had accumulated when the cap tripped.
        length: usize,
    },
}

impl From<FrameRef<'_>> for Frame {
    fn from(frame: FrameRef<'_>) -> Frame {
        match frame {
            FrameRef::Line { line, text } => Frame::Line {
                line,
                text: text.to_string(),
            },
            FrameRef::Oversized { line, length } => Frame::Oversized { line, length },
        }
    }
}

/// Above this many bytes a drained connection buffer gives its capacity
/// back: one large reply or one long line must not pin its high-water
/// mark for the life of an otherwise idle connection.
pub(crate) const RECLAIM_MARK: usize = 64 * 1024;

/// Reassembles newline-delimited frames from an arbitrarily-chunked byte
/// stream — the framing layer under the TCP front end. A query split
/// across two (or ten) reads comes out as one [`Frame::Line`]; a line
/// longer than the cap comes out as one [`Frame::Oversized`] and is then
/// skipped to its terminator instead of growing the buffer without
/// bound.
#[derive(Debug)]
pub struct LineFramer {
    /// The unterminated tail of the last read (bounded by the cap).
    buf: Vec<u8>,
    max_line: usize,
    discarding: bool,
    next_line: usize,
}

impl LineFramer {
    /// A framer refusing to buffer more than `max_line` bytes for any
    /// single unterminated line.
    pub fn new(max_line: usize) -> LineFramer {
        LineFramer {
            buf: Vec::new(),
            max_line: max_line.max(1),
            discarding: false,
            next_line: 1,
        }
    }

    /// Bytes currently buffered for a not-yet-terminated line (bounded
    /// by the cap).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Flushes the buffered unterminated tail as one final frame — what
    /// EOF means for a line stream (`str::lines` yields a final line
    /// without its `\n`; a TCP session that half-closes after an
    /// unterminated query must get the same answer the stdin path would
    /// give). Returns `None` when nothing is buffered or the tail is the
    /// discarded remainder of an oversized line (already reported).
    pub fn finish(&mut self) -> Option<Frame> {
        if self.discarding {
            self.discarding = false;
            return None;
        }
        if self.buf.is_empty() {
            return None;
        }
        let frame = Frame::Line {
            line: self.next_line,
            text: String::from_utf8_lossy(&self.buf).into_owned(),
        };
        self.buf.clear();
        self.next_line += 1;
        Some(frame)
    }

    /// Where the cap trips on the line made of the buffered tail followed
    /// by `piece`, if it does: the accumulated length at the first byte
    /// past the cap. One byte of grace for a trailing '\r' — a line of
    /// exactly `max_line` bytes must be accepted from CRLF clients too
    /// (the '\r' is stripped at the terminator, so it never counts toward
    /// the line's length) — but a '\r' that turns out not to end the line
    /// gets none.
    fn cap_trip(&self, piece: &[u8]) -> Option<usize> {
        let held = self.buf.len();
        let total = held + piece.len();
        if total <= self.max_line {
            return None;
        }
        let at_cap = match self.max_line.checked_sub(held) {
            Some(i) => piece[i],
            None => self.buf[self.max_line],
        };
        if at_cap != b'\r' {
            Some(self.max_line + 1)
        } else if total > self.max_line + 1 {
            Some(self.max_line + 2)
        } else {
            None
        }
    }

    /// Feeds one read's worth of bytes, handing `sink` every frame it
    /// completes, in stream order. A line that lies wholly inside `bytes`
    /// is borrowed from it; only an unterminated tail, and the one line
    /// the next read completes, are copied into the framer's buffer.
    /// Non-UTF-8 lines are lossily decoded (they fail query parsing
    /// downstream like any other garbage).
    pub fn scan(&mut self, mut bytes: &[u8], mut sink: impl FnMut(FrameRef<'_>)) {
        while !bytes.is_empty() {
            let newline = bytes.iter().position(|&b| b == b'\n');
            let (piece, rest) = match newline {
                Some(i) => (&bytes[..i], &bytes[i + 1..]),
                None => (bytes, &[][..]),
            };
            bytes = rest;
            if self.discarding {
                self.discarding = newline.is_none();
                continue;
            }
            if let Some(length) = self.cap_trip(piece) {
                self.drop_tail();
                self.discarding = newline.is_none();
                sink(FrameRef::Oversized {
                    line: self.next_line,
                    length,
                });
                self.next_line += 1;
                continue;
            }
            if newline.is_none() {
                self.buf.extend_from_slice(piece);
                continue;
            }
            let line = if self.buf.is_empty() {
                piece
            } else {
                self.buf.extend_from_slice(piece);
                &self.buf
            };
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            sink(FrameRef::Line {
                line: self.next_line,
                text: &String::from_utf8_lossy(line),
            });
            self.next_line += 1;
            self.drop_tail();
        }
    }

    /// Empties the tail buffer, and gives back what a long line (under a
    /// raised cap) grew it to beyond the mark.
    fn drop_tail(&mut self) {
        self.buf.clear();
        self.buf.shrink_to(RECLAIM_MARK);
    }

    /// [`scan`](Self::scan), collecting owned frames.
    pub fn push(&mut self, bytes: &[u8]) -> Vec<Frame> {
        let mut out = Vec::new();
        self.scan(bytes, |frame| out.push(frame.into()));
        out
    }
}

/// Parses a whole query script: blank lines and `#` comments are
/// skipped, every other line must be a grammar query. Returns the
/// requests with their 1-based line numbers, or the first error located
/// by line.
pub fn parse_script(text: &str) -> Result<Vec<(usize, QueryRequest)>, ScriptError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        match parse(trimmed) {
            Ok(req) => out.push((i + 1, req)),
            Err(error) => return Err(ScriptError { line: i + 1, error }),
        }
    }
    Ok(out)
}

/// Renders a request as its canonical grammar line (scope always
/// explicit). Round-trips through [`parse`].
pub fn render(req: &QueryRequest) -> String {
    let (row, args) = split(&req.query);
    let mut line = VERBS[row].name.to_string();
    for arg in args {
        match arg {
            Arg::Asn(asn) => write!(line, " {asn}"),
            Arg::Prefix(prefix) => write!(line, " {prefix}"),
            Arg::Count(k) => write!(line, " {k}"),
            Arg::None => Ok(()),
        }
        .expect("writing to a String cannot fail");
    }
    match req.scope {
        // A reverse diff (meaningful: undo-reading a churn report) cannot
        // be spoken as a scope token — `@3..1` is a grammar error — so its
        // canonical wire form is the two-operand spelling.
        Scope::Range(a, b) if a > b && req.query == Query::Diff => {
            format!("{line} {} {}", a.0, b.0)
        }
        ref scope => format!("{line} {}", render_scope(scope)),
    }
}

fn put(out: &mut Vec<u8>, text: &str) {
    out.extend_from_slice(text.as_bytes());
}

/// Decimal digits of `v`.
fn put_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

fn put_count(out: &mut Vec<u8>, n: usize) {
    put_u64(out, n as u64);
}

/// `AS<n>`, as [`Asn`]'s `Display` spells it.
fn put_asn(out: &mut Vec<u8>, asn: Asn) {
    put(out, "AS");
    put_u64(out, u64::from(asn.0));
}

/// `a.b.c.d/len`, as [`Ipv4Prefix`]'s `Display` spells it.
fn put_prefix(out: &mut Vec<u8>, prefix: Ipv4Prefix) {
    for (i, octet) in prefix.bits().to_be_bytes().into_iter().enumerate() {
        if i > 0 {
            out.push(b'.');
        }
        put_u64(out, u64::from(octet));
    }
    out.push(b'/');
    put_u64(out, u64::from(prefix.len()));
}

/// The scope's canonical token — [`render_scope`], appended.
fn put_scope(out: &mut Vec<u8>, scope: &Scope) {
    out.push(b'@');
    match scope {
        Scope::Latest => put(out, "latest"),
        Scope::Id(id) => put_u64(out, u64::from(id.0)),
        Scope::Label(l) => {
            put(out, "label:");
            put(out, l);
        }
        Scope::All => put(out, "all"),
        Scope::Range(a, b) => {
            put_u64(out, u64::from(a.0));
            put(out, "..");
            put_u64(out, u64::from(b.0));
        }
    }
}

/// The ASNs of a path, `sep`-separated.
fn put_asns(out: &mut Vec<u8>, asns: &[Asn], sep: u8) {
    for (i, asn) in asns.iter().enumerate() {
        if i > 0 {
            out.push(sep);
        }
        put_asn(out, *asn);
    }
}

/// `{x:.1}` — one decimal, round-half-even on the exact binary value,
/// which is what `core::fmt` prints. The percentages on the lookup path
/// are non-negative and small; anything else takes `fmt`.
fn put_tenths(out: &mut Vec<u8>, x: f64) {
    const FRACTION_BITS: u32 = 52;
    const BIAS: i32 = 1023;
    let bits = x.to_bits();
    // The sign bit rides along, so a negative x is out of range too.
    let exponent = (bits >> FRACTION_BITS) as i32;
    if !(0..BIAS + 40).contains(&exponent) {
        return write!(out, "{x:.1}").expect("writing to a Vec cannot fail");
    }
    // 0 <= x < 2^40, and x <= mantissa × 2^-shift with equality for
    // normal numbers, so 10x = scaled × 2^-shift exactly; 13 <= shift.
    let mantissa = (bits & ((1 << FRACTION_BITS) - 1)) | (1 << FRACTION_BITS);
    let shift = BIAS + FRACTION_BITS as i32 - exponent;
    let scaled = u128::from(mantissa) * 10;
    let tenths = if shift > 100 {
        0 // 10x < 2^-43 (zero and the subnormals land here)
    } else {
        let floor = (scaled >> shift) as u64;
        let rest = scaled & ((1 << shift) - 1);
        let half = 1u128 << (shift - 1);
        floor + u64::from(rest > half || (rest == half && floor & 1 == 1))
    };
    put_u64(out, tenths / 10);
    out.push(b'.');
    out.push(b'0' + (tenths % 10) as u8);
}

/// `<prefix> at <vantage> <scope>` — how most point answers open.
fn put_subject(out: &mut Vec<u8>, prefix: Ipv4Prefix, vantage: Asn, scope: &Scope) {
    put_prefix(out, prefix);
    put(out, " at ");
    put_asn(out, vantage);
    out.push(b' ');
    put_scope(out, scope);
}

/// Describes one SA status. `scope` is echoed when the status stands
/// alone (the `sa` answer); `sa-history` points pass `None` because each
/// line already names its snapshot.
fn put_sa(
    out: &mut Vec<u8>,
    vantage: Asn,
    prefix: Ipv4Prefix,
    scope: Option<&Scope>,
    status: &SaStatus,
) {
    let put_tail = |out: &mut Vec<u8>| {
        if let Some(scope) = scope {
            out.push(b' ');
            put_scope(out, scope);
        }
    };
    let (verdict, origin) = match status {
        SaStatus::UnknownVantage => {
            put_asn(out, vantage);
            put(out, " is not a vantage");
            return put_tail(out);
        }
        SaStatus::NotInTable => {
            put_prefix(out, prefix);
            put(out, " not in ");
            put_asn(out, vantage);
            put(out, "'s table");
            return put_tail(out);
        }
        SaStatus::NotCustomerRoute => (": origin outside customer cone", None),
        SaStatus::CustomerExported { origin } => {
            (": exported normally by customer ", Some(*origin))
        }
        SaStatus::SelectivelyAnnounced { origin } => (": SELECTIVELY ANNOUNCED by ", Some(*origin)),
    };
    put_prefix(out, prefix);
    put(out, " at ");
    put_asn(out, vantage);
    put_tail(out);
    put(out, verdict);
    if let Some(origin) = origin {
        put_asn(out, origin);
    }
}

/// `""` for one, `plural` otherwise.
fn plural(n: usize, plural: &'static str) -> &'static str {
    if n == 1 {
        ""
    } else {
        plural
    }
}

/// Appends the response to `req`, rendered as stable line-oriented text
/// and newline-terminated — what `rpi-queryd` prints, the TCP front end
/// sends and the CI golden smoke diffs — straight onto `out` (a
/// connection's write buffer): no intermediate `String`, and for the
/// lookup verbs no `core::fmt`.
pub fn write_response(out: &mut Vec<u8>, req: &QueryRequest, resp: &Response) {
    let scope = &req.scope;
    match (&req.query, resp) {
        (Query::Route { vantage, prefix }, Response::Route(ans)) => {
            put_subject(out, *prefix, *vantage, scope);
            match ans {
                Some(r) => {
                    put(out, ": via ");
                    put_asn(out, r.next_hop);
                    put(out, " path ");
                    put_asns(out, &r.path, b' ');
                }
                None => put(out, ": no route"),
            }
        }
        (Query::Resolve { vantage, prefix }, Response::Route(ans)) => {
            put_subject(out, *prefix, *vantage, scope);
            match ans {
                Some(r) => {
                    put(out, ": matched ");
                    put_prefix(out, r.prefix);
                    put(out, " via ");
                    put_asn(out, r.next_hop);
                    put(out, " (origin ");
                    put_asn(out, r.origin());
                    out.push(b')');
                }
                None => put(out, ": no covering route"),
            }
        }
        (Query::SaStatus { vantage, prefix }, Response::Sa(status)) => {
            put_sa(out, *vantage, *prefix, Some(scope), status);
        }
        (Query::Relationship { a, b }, Response::Relationship(rel)) => {
            match rel {
                Some(r) => {
                    put_asn(out, *b);
                    put(out, " is ");
                    put_asn(out, *a);
                    put(out, "'s ");
                    // The variant names, as `{r:?}` prints them.
                    put(
                        out,
                        match r {
                            Relationship::Provider => "Provider",
                            Relationship::Customer => "Customer",
                            Relationship::Peer => "Peer",
                            Relationship::Sibling => "Sibling",
                        },
                    );
                }
                None => {
                    put_asn(out, *a);
                    put(out, " and ");
                    put_asn(out, *b);
                    put(out, " are not adjacent in the oracle");
                }
            }
            out.push(b' ');
            put_scope(out, scope);
        }
        (Query::PolicySummary { asn }, Response::Summary(s)) => {
            put_asn(out, *asn);
            out.push(b' ');
            put_scope(out, scope);
            match s {
                Some(s) => {
                    let (prov, cust, peer, sib) = s.neighbor_counts;
                    put(out, ": ");
                    put_count(out, s.routes);
                    put(out, " routes, ");
                    put_count(out, s.customer_prefixes);
                    put(out, " customer prefixes, ");
                    put_count(out, s.sa_count);
                    put(out, " SA (");
                    put_tenths(out, s.sa_percent());
                    put(out, "%), typicality ");
                    match s.typicality_percent() {
                        Some(p) => {
                            put_tenths(out, p);
                            out.push(b'%');
                        }
                        None => put(out, "n/a"),
                    }
                    put(out, ", ");
                    put_count(out, s.tagged_neighbors);
                    put(out, " tagged neighbors, neighbors ");
                    put_count(out, prov);
                    put(out, " providers / ");
                    put_count(out, cust);
                    put(out, " customers / ");
                    put_count(out, peer);
                    put(out, " peers / ");
                    put_count(out, sib);
                    put(out, " siblings");
                }
                None => put(out, ": unknown AS"),
            }
        }
        (Query::Diff, Response::Diff(d)) => {
            put(out, &d.from_label);
            put(out, " -> ");
            put(out, &d.to_label);
            put(out, ": ");
            put_count(out, d.new_sa.len());
            put(out, " new SA, ");
            put_count(out, d.gone_sa.len());
            put(out, " gone SA, ");
            put_count(out, d.flips.len());
            put(out, " relationship flips, ");
            put_count(out, d.churned_routes());
            put(out, " churned routes");
        }
        (Query::SaHistory { vantage, prefix }, Response::SaHistory(points)) => {
            put(out, "sa-history ");
            put_subject(out, *prefix, *vantage, scope);
            put(out, " (");
            put_count(out, points.len());
            put(out, " snapshots):");
            for p in points {
                put(out, "\n  ");
                put_u64(out, u64::from(p.snapshot.0));
                out.push(b' ');
                put(out, &p.label);
                put(out, ": ");
                put_sa(out, *vantage, *prefix, None, &p.status);
            }
        }
        (Query::UptimeHistogram { vantage }, Response::Uptime(h)) => {
            let remaining: usize = h.remaining.values().sum();
            let shifted: usize = h.shifted.values().sum();
            put(out, "uptime ");
            put_asn(out, *vantage);
            out.push(b' ');
            put_scope(out, scope);
            put(out, ": ");
            put_count(out, h.total());
            put(out, " ever-SA prefixes, ");
            put_count(out, remaining);
            put(out, " remaining / ");
            put_count(out, shifted);
            put(out, " shifted (");
            put_tenths(out, 100.0 * h.shifted_fraction());
            put(out, "% shifted)");
            for (class, rows) in [("remaining", &h.remaining), ("shifted", &h.shifted)] {
                for (&uptime, &n) in rows {
                    put(out, "\n  ");
                    put(out, class);
                    put(out, ", uptime ");
                    put_count(out, uptime);
                    put(out, ": ");
                    put_count(out, n);
                }
            }
        }
        (Query::TopKSaOrigins { vantage, k }, Response::TopSaOrigins(rows)) => {
            put(out, "top-sa ");
            put_asn(out, *vantage);
            out.push(b' ');
            put_count(out, *k);
            out.push(b' ');
            put_scope(out, scope);
            out.push(b':');
            if rows.is_empty() {
                put(out, " no SA origins");
            }
            for (i, row) in rows.iter().enumerate() {
                put(out, "\n  ");
                put_count(out, i + 1);
                put(out, ". ");
                put_asn(out, row.origin);
                put(out, ": ");
                put_count(out, row.prefixes);
                put(out, " SA prefix");
                put(out, plural(row.prefixes, "es"));
            }
        }
        (Query::PersistenceClass { vantage, prefix }, Response::Persistence(p)) => {
            put(out, "persistence ");
            put_subject(out, *prefix, *vantage, scope);
            put(out, ": present ");
            put_count(out, p.present);
            out.push(b'/');
            put_count(out, p.snapshots);
            put(out, ", SA ");
            put_count(out, p.sa);
            put(out, " -> ");
            put(out, p.class.describe());
        }
        (Query::Rov { vantage, prefix }, Response::Rov(ans)) => {
            put(out, "rov ");
            put_subject(out, *prefix, *vantage, scope);
            put(out, ": ");
            match ans {
                RovAnswer::UnknownVantage => {
                    put_asn(out, *vantage);
                    put(out, " is not a vantage");
                }
                RovAnswer::NoRoute => put(out, "no route, nothing to validate"),
                RovAnswer::Validated {
                    origin,
                    validity,
                    covering,
                } => {
                    put(out, "origin ");
                    put_asn(out, *origin);
                    out.push(b' ');
                    put(out, validity.name());
                    match covering {
                        // `<prefix>[-<max_len>] <origin>`, as `Roa`'s
                        // `Display` spells it.
                        Some(roa) => {
                            put(out, " (covering ROA ");
                            put_prefix(out, roa.prefix);
                            if roa.max_len != roa.prefix.len() {
                                out.push(b'-');
                                put_u64(out, u64::from(roa.max_len));
                            }
                            out.push(b' ');
                            put_asn(out, roa.origin);
                            out.push(b')');
                        }
                        None => put(out, " (no covering ROA)"),
                    }
                }
            }
        }
        (Query::Hijacks, Response::Hijacks(events)) => {
            put(out, "hijacks ");
            put_scope(out, scope);
            put(out, ": ");
            put_count(out, events.len());
            put(out, " event");
            put(out, plural(events.len(), "s"));
            for e in events {
                put(out, "\n  ");
                put_u64(out, u64::from(e.snapshot.0));
                out.push(b' ');
                put(out, &e.label);
                put(out, ": ");
                put(out, e.kind.name());
                out.push(b' ');
                put_prefix(out, e.prefix);
                put(out, " by ");
                put_asn(out, e.origin);
                put(out, " (owners ");
                if e.owners.is_empty() {
                    put(out, "none");
                }
                put_asns(out, &e.owners, b',');
                out.push(b')');
            }
        }
        (Query::Leaks, Response::Leaks(events)) => {
            put(out, "leaks ");
            put_scope(out, scope);
            put(out, ": ");
            put_count(out, events.len());
            put(out, " leaked route");
            put(out, plural(events.len(), "s"));
            for e in events {
                put(out, "\n  ");
                put_prefix(out, e.prefix);
                put(out, " at ");
                put_asn(out, e.vantage);
                put(out, ": leaked by ");
                put_asn(out, e.leaker);
                put(out, " path ");
                put_asns(out, &e.path, b' ');
            }
        }
        // A response that does not match its request can only come from a
        // caller pairing the wrong values; show both rather than guess.
        (_, resp) => {
            write!(out, "{resp:?}").expect("writing to a Vec cannot fail");
        }
    }
    out.push(b'\n');
}

/// Appends the in-band error line a session answers a bad line or a
/// failed query with: `error line <N>: <what>`, newline-terminated.
pub(crate) fn write_error_line(out: &mut Vec<u8>, line: usize, what: impl fmt::Display) {
    put(out, "error line ");
    put_count(out, line);
    writeln!(out, ": {what}").expect("writing to a Vec cannot fail");
}

/// [`write_response`] as an owned `String`, without the terminator.
pub fn render_response(req: &QueryRequest, resp: &Response) -> String {
    // Room for any lookup answer (a `summary` line runs to ~170 bytes),
    // so the one allocation is the returned `String`.
    let mut out = Vec::with_capacity(256);
    write_response(&mut out, req, resp);
    out.pop();
    String::from_utf8(out).expect("responses are rendered from UTF-8 pieces")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    #[test]
    fn defaults_and_legacy_diff_spelling() {
        assert_eq!(parse("route AS1 10.0.0.0/8").unwrap().scope, Scope::Latest);
        assert_eq!(parse("uptime AS1").unwrap().scope, Scope::All);
        assert_eq!(
            parse("diff 0 2").unwrap(),
            Query::Diff.at(Scope::Range(SnapshotId(0), SnapshotId(2)))
        );
        assert_eq!(parse("diff 0 2"), parse("diff @0..2"));
        assert!(parse("diff").is_err());
    }

    #[test]
    fn scope_tokens_parse() {
        assert_eq!(
            parse("sa AS1 1.0.0.0/8 @latest").unwrap().scope,
            Scope::Latest
        );
        assert_eq!(
            parse("sa AS1 1.0.0.0/8 @7").unwrap().scope,
            Scope::Id(SnapshotId(7))
        );
        assert_eq!(
            parse("sa AS1 1.0.0.0/8 @day-07").unwrap().scope,
            Scope::Label("day-07".into())
        );
        assert_eq!(
            parse("sa AS1 1.0.0.0/8 @label:day-07").unwrap().scope,
            Scope::Label("day-07".into())
        );
        assert_eq!(
            parse("sa-history AS1 1.0.0.0/8 @all").unwrap().scope,
            Scope::All
        );
        assert!(parse("sa AS1 1.0.0.0/8 @").is_err());
        assert!(parse("sa AS1 1.0.0.0/8 @3..x").is_err());
    }

    #[test]
    fn reversed_and_empty_ranges_are_grammar_errors() {
        // Backwards ranges must fail loudly — in both query classes —
        // instead of resolving to an empty scope.
        for line in [
            "sa-history AS1 1.0.0.0/8 @7..3",
            "uptime AS1 @7..3",
            "sa AS1 1.0.0.0/8 @7..3",
            "diff @7..3",
        ] {
            let err = parse(line).unwrap_err();
            assert!(
                err.to_string().contains("runs backwards"),
                "'{line}' → {err}"
            );
            assert!(
                err.to_string().contains("@3..7"),
                "the error must name the fix: {err}"
            );
        }
        // Half-open / empty forms are rejected with their own message.
        for line in ["uptime AS1 @3..", "uptime AS1 @..3", "uptime AS1 @.."] {
            let err = parse(line).unwrap_err();
            assert!(
                err.to_string().contains("empty scope range"),
                "'{line}' → {err}"
            );
        }
        // The ascending forms all still parse.
        assert_eq!(
            parse("uptime AS1 @3..7").unwrap().scope,
            Scope::Range(SnapshotId(3), SnapshotId(7))
        );
        assert_eq!(
            parse("uptime AS1 @3..3").unwrap().scope,
            Scope::Range(SnapshotId(3), SnapshotId(3))
        );
    }

    #[test]
    fn reverse_diffs_speak_the_legacy_spelling() {
        // Programmatic reverse diffs stay wire-representable: render
        // falls back to the two-operand form, which parses back exactly.
        let req = Query::Diff.at(Scope::Range(SnapshotId(3), SnapshotId(1)));
        assert_eq!(render(&req), "diff 3 1");
        assert_eq!(parse("diff 3 1").unwrap(), req);
        assert_eq!(parse(&render(&req)).unwrap(), req);
        // Forward diffs keep the scope-token canonical form.
        let fwd = Query::Diff.at(Scope::Range(SnapshotId(1), SnapshotId(3)));
        assert_eq!(render(&fwd), "diff @1..3");
    }

    #[test]
    fn numbers_are_digits_only() {
        // Rust's integer `FromStr` takes a leading '+'; the grammar does
        // not, anywhere a number appears.
        for (line, message) in [
            ("route AS+5 1.0.0.0/8", "bad ASN 'AS+5'"),
            ("rel +5 AS1", "bad ASN '+5'"),
            ("summary AS", "bad ASN 'AS'"),
            ("summary AS4294967296", "bad ASN 'AS4294967296'"),
            (
                "route AS5 1.0.0.0/+8",
                "bad prefix '1.0.0.0/+8': invalid prefix length: \"+8\"",
            ),
            ("diff +0 +2", "bad snapshot id '+0'"),
            ("diff 0 +2", "bad snapshot id '+2'"),
            ("uptime AS1 @+0..+3", "bad scope range '@+0..+3'"),
            ("uptime AS1 @0..+3", "bad scope range '@0..+3'"),
            ("top-sa AS1 +3", "top-sa wants a count, got '+3'"),
            ("top-sa AS1 -3", "top-sa wants a count, got '-3'"),
        ] {
            assert_eq!(
                parse(line),
                Err(ParseError::Malformed(message.into())),
                "'{line}'"
            );
        }
        // `@+3` was never a snapshot id: like any token that is not all
        // digits, it is a bare label.
        assert_eq!(
            parse("sa AS1 1.0.0.0/8 @+3").unwrap().scope,
            Scope::Label("+3".into())
        );
        // The unsigned spellings all still parse, leading zeros included.
        assert_eq!(
            parse("top-sa 007 010 @00..03").unwrap(),
            Query::TopKSaOrigins {
                vantage: Asn(7),
                k: 10
            }
            .at(Scope::Range(SnapshotId(0), SnapshotId(3)))
        );
    }

    #[test]
    fn ascii_words_are_split_whitespace() {
        let mut rng = StdRng::seed_from_u64(0x14a);
        for _ in 0..2_000 {
            let len = rng.gen_range(0..24usize);
            // Every ASCII byte, the controls and whitespace over-sampled.
            let line: String = (0..len)
                .map(|_| match rng.gen_range(0..3u8) {
                    0 => rng.gen_range(0..0x21u8) as char,
                    _ => rng.gen_range(0..0x80u8) as char,
                })
                .collect();
            assert_eq!(
                ascii_words(&line).collect::<Vec<_>>(),
                line.split_whitespace().collect::<Vec<_>>(),
                "{line:?}"
            );
        }
        // Non-ASCII whitespace still separates words, by the other path.
        assert_eq!(
            parse("route\u{a0}AS1\u{2003}1.0.0.0/8"),
            parse("route AS1 1.0.0.0/8")
        );
    }

    #[test]
    fn operand_counts_survive_the_fixed_word_buffer() {
        for (line, message) in [
            (
                "route AS1",
                "'route' wants <vantage> <prefix>, got 1 operand",
            ),
            (
                "route a b c d e f",
                "'route' wants <vantage> <prefix>, got 6 operands",
            ),
            (
                "summary a b c d e f @latest",
                "'summary' wants <asn>, got 6 operands",
            ),
            // The scope is read off the line's last word however long the
            // line is, and its error comes first.
            ("summary a b c d e f @", "empty scope '@'"),
            ("@latest", "empty query"),
            ("", "empty query"),
        ] {
            assert_eq!(
                parse(line),
                Err(ParseError::Malformed(message.into())),
                "'{line}'"
            );
        }
    }

    #[test]
    fn byte_writers_spell_what_fmt_spells() {
        let mut rng = StdRng::seed_from_u64(0x14b);
        let mut out = Vec::new();
        let check = |out: &mut Vec<u8>, want: String| {
            assert_eq!(std::str::from_utf8(out).unwrap(), want);
            out.clear();
        };
        for v in [0, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX] {
            put_u64(&mut out, v);
            check(&mut out, v.to_string());
        }
        // `{:.1}` rounds half to even on the exact binary value: the exact
        // ties (x.25, x.75 are representable) and the near-ties (x.05 is
        // not) must go the way `fmt` sends them.
        let mut tenths = vec![
            0.0, 0.05, 0.25, 0.35, 0.75, 0.95, 99.95, 100.0, 12.25, 12.75,
        ];
        tenths.extend([f64::MIN_POSITIVE, 5e-324, 1e-30, 0.049999999999999996]);
        tenths.extend([1e12, 1.1e12, -0.0, -1.25, f64::NAN, f64::INFINITY, 1e300]);
        for _ in 0..20_000 {
            tenths.push(match rng.gen_range(0..4u8) {
                // What the lookup path feeds it: a percentage of counts.
                0 => {
                    let d = rng.gen_range(1..2_000u32);
                    100.0 * f64::from(rng.gen_range(0..=d)) / f64::from(d)
                }
                // Ties and near-ties at every scale.
                1 => f64::from(rng.gen_range(0..4_000_000u32)) / 20.0,
                2 => f64::from(rng.gen_range(0..4_000u32)) / 8.0,
                _ => f64::from_bits(rng.gen::<u64>() >> 1),
            });
        }
        for x in tenths {
            put_tenths(&mut out, x);
            check(&mut out, format!("{x:.1}"));
        }
        for _ in 0..2_000 {
            let (asn, prefix) = (
                Asn(rng.gen::<u32>() >> rng.gen_range(0..32u8)),
                Ipv4Prefix::canonical(rng.gen(), rng.gen_range(0..=32u8)),
            );
            put_asn(&mut out, asn);
            out.push(b' ');
            put_prefix(&mut out, prefix);
            check(&mut out, format!("{asn} {prefix}"));
        }
    }

    #[test]
    fn unknown_verbs_list_the_grammar() {
        let err = parse("frobnicate AS1").unwrap_err();
        assert_eq!(err, ParseError::UnknownQuery("frobnicate".into()));
        assert!(err.to_string().contains("route <vantage> <prefix>"));
    }

    #[test]
    fn control_verbs_are_whole_lines() {
        assert_eq!(parse_control("ping"), Some(Control::Ping));
        assert_eq!(parse_control("  quit "), Some(Control::Quit));
        assert_eq!(parse_control("exit"), Some(Control::Quit));
        assert_eq!(parse_control("shutdown"), Some(Control::Shutdown));
        assert_eq!(parse_control("ping now"), None);
        assert_eq!(parse_control("route AS1 1.0.0.0/8"), None);
    }

    #[test]
    fn framer_reassembles_split_frames() {
        let mut f = LineFramer::new(64);
        assert!(f.push(b"route AS1 4.").is_empty());
        assert!(f.push(b"0.0.0/13").is_empty());
        let frames = f.push(b"\nsa AS1 2.0.0.0/8\r\npart");
        assert_eq!(
            frames,
            vec![
                Frame::Line {
                    line: 1,
                    text: "route AS1 4.0.0.0/13".into()
                },
                Frame::Line {
                    line: 2,
                    text: "sa AS1 2.0.0.0/8".into()
                },
            ]
        );
        assert_eq!(f.buffered(), 4);
        assert_eq!(
            f.push(b"ial\n"),
            vec![Frame::Line {
                line: 3,
                text: "partial".into()
            }]
        );
    }

    #[test]
    fn framer_finish_flushes_the_unterminated_tail() {
        let mut f = LineFramer::new(64);
        assert!(f.push(b"route AS1 4.0.0.0/13").is_empty());
        assert_eq!(
            f.finish(),
            Some(Frame::Line {
                line: 1,
                text: "route AS1 4.0.0.0/13".into()
            })
        );
        assert_eq!(f.finish(), None, "the tail flushes exactly once");
        // The discarded remainder of an oversized line is not a frame —
        // it was already reported when the cap tripped.
        let mut f = LineFramer::new(4);
        assert_eq!(
            f.push(b"abcdefgh"),
            vec![Frame::Oversized { line: 1, length: 5 }]
        );
        assert_eq!(f.finish(), None);
    }

    #[test]
    fn framer_caps_oversized_lines_without_losing_the_stream() {
        let mut f = LineFramer::new(8);
        let frames = f.push(b"0123456789abcdef more garbage\nping\n");
        assert_eq!(
            frames,
            vec![
                Frame::Oversized { line: 1, length: 9 },
                Frame::Line {
                    line: 2,
                    text: "ping".into()
                },
            ]
        );
        // The discarded tail never accumulated.
        assert_eq!(f.buffered(), 0);
    }

    #[test]
    fn framer_gives_back_a_long_lines_buffer() {
        // Under a raised cap one long line grows the tail buffer; once the
        // line is done with — completed or tripped — the capacity beyond
        // the reclaim mark goes back.
        let cap = 4 * RECLAIM_MARK;
        let long = vec![b'x'; 3 * RECLAIM_MARK];
        let mut f = LineFramer::new(cap);
        assert!(f.push(&long).is_empty());
        assert!(f.buf.capacity() >= long.len());
        assert_eq!(
            f.push(&long),
            vec![Frame::Oversized {
                line: 1,
                length: cap + 1
            }]
        );
        assert!(f.buf.capacity() <= RECLAIM_MARK, "{}", f.buf.capacity());
        assert!(f.push(b" the rest of it\n").is_empty());
        assert!(f.push(&long).is_empty());
        assert_eq!(f.push(b"\n").len(), 1);
        assert!(f.buf.capacity() <= RECLAIM_MARK, "{}", f.buf.capacity());
    }

    #[test]
    fn framer_cap_treats_lf_and_crlf_clients_alike() {
        // An exactly-at-cap line is fine with either terminator: the
        // '\r' is stripped, so it must not count toward the cap.
        for terminator in ["\n", "\r\n"] {
            let mut f = LineFramer::new(8);
            assert_eq!(
                f.push(format!("01234567{terminator}").as_bytes()),
                vec![Frame::Line {
                    line: 1,
                    text: "01234567".into()
                }],
                "terminator {terminator:?}"
            );
        }
        // One byte over the cap trips it for both, and a '\r' that is
        // *not* a terminator gets no grace.
        let mut f = LineFramer::new(8);
        assert_eq!(
            f.push(b"012345678\n"),
            vec![Frame::Oversized { line: 1, length: 9 }]
        );
        let mut f = LineFramer::new(8);
        assert_eq!(
            f.push(b"01234567\rX\n"),
            vec![Frame::Oversized {
                line: 1,
                length: 10
            }]
        );
    }

    #[test]
    fn scripts_locate_errors_by_line() {
        let err = parse_script("# header\nroute AS1 10.0.0.0/8\n\nbogus AS1\n").unwrap_err();
        assert_eq!(err.line, 4);
        assert!(matches!(err.error, ParseError::UnknownQuery(_)));
        let ok = parse_script("# only comments\n\n").unwrap();
        assert!(ok.is_empty());
    }

    /// The grammar text as it read before [`VERBS`] generated it, byte for
    /// byte.
    const PINNED_GRAMMAR: &str = "\
route <vantage> <prefix> [@scope]        exact best-route lookup
resolve <vantage> <prefix> [@scope]      longest-prefix-match lookup
sa <vantage> <prefix> [@scope]           Fig. 4 SA status of the prefix
rel <a> <b> [@scope]                     oracle relationship (b is a's ...)
summary <asn> [@scope]                   per-AS policy digest
diff @<from>..<to>                       what changed between snapshots
sa-history <vantage> <prefix> [@scope]   SA status across snapshots
uptime <vantage> [@scope]                Fig. 7 uptime histogram
top-sa <vantage> <k> [@scope]            top-K SA origins
persistence <vantage> <prefix> [@scope]  per-prefix persistence class
rov <vantage> <prefix> [@scope]          RFC 6811 route-origin validation
hijacks [@scope]                         origin-hijack / MOAS events across snapshots
leaks [@scope]                           valley-free violations in one snapshot
scopes: @latest  @<id>  @label:<name>  @all  @<from>..<to>   (point queries default to @latest, history queries to @all)";

    /// A line spoken from a row's usage, each operand word given a value
    /// of its kind and the optional scope left out.
    fn line_from(row: &Verb) -> String {
        let mut line = row.name.to_string();
        for word in row.usage.split(' ') {
            let value = match word {
                "[@scope]" => continue,
                "@<from>..<to>" => "@1..2",
                "<prefix>" => "10.0.0.0/8",
                "<k>" => "3",
                _ => "AS7",
            };
            line = line + " " + value;
        }
        line
    }

    #[test]
    fn the_verb_table_generates_the_grammar_parse_and_render() {
        assert_eq!(Grammar.to_string(), PINNED_GRAMMAR);
        let history: Vec<&str> = VERBS.iter().filter(|v| v.history).map(|v| v.name).collect();
        assert_eq!(
            history,
            ["sa-history", "uptime", "top-sa", "persistence", "hijacks"]
        );
        for (i, row) in VERBS.iter().enumerate() {
            let line = line_from(row);
            let req = parse(&line).unwrap_or_else(|e| panic!("'{line}': {e}"));
            assert_eq!(req.query.verb(), row.name, "'{line}'");
            assert_eq!(req.query.verb_index(), i, "'{line}'");
            // The default scope is the row's; `diff` names its own.
            let scope = match req.query {
                Query::Diff => Scope::Range(SnapshotId(1), SnapshotId(2)),
                _ if row.history => Scope::All,
                _ => Scope::Latest,
            };
            assert_eq!(req.scope, scope, "'{line}'");
            let scoped = match req.query {
                Query::Diff => line.clone(),
                _ => format!("{line} {}", render_scope(&scope)),
            };
            assert_eq!(render(&req), scoped);
        }
        // A wrong operand count names the row's usage; a line bad in two
        // operands reports the one it always has.
        for (line, message) in [
            (
                "route AS7",
                "'route' wants <vantage> <prefix>, got 1 operand",
            ),
            (
                "resolve",
                "'resolve' wants <vantage> <prefix>, got 0 operands",
            ),
            (
                "sa AS7 AS7 AS7",
                "'sa' wants <vantage> <prefix>, got 3 operands",
            ),
            ("rel AS7", "'rel' wants <a> <b>, got 1 operand"),
            ("summary @3", "'summary' wants <asn>, got 0 operands"),
            (
                "diff AS7",
                "'diff' wants a snapshot range: diff @<from>..<to> (or: diff <from> <to>)",
            ),
            (
                "sa-history AS7 @all",
                "'sa-history' wants <vantage> <prefix>, got 1 operand",
            ),
            ("uptime AS7 AS8", "'uptime' wants <vantage>, got 2 operands"),
            ("top-sa AS7", "'top-sa' wants <vantage> <k>, got 1 operand"),
            (
                "persistence",
                "'persistence' wants <vantage> <prefix>, got 0 operands",
            ),
            (
                "rov AS7 10.0.0.0/8 x",
                "'rov' wants <vantage> <prefix>, got 3 operands",
            ),
            (
                "hijacks AS7",
                "'hijacks' wants no operands (only an optional @scope), got 1 operand",
            ),
            (
                "leaks AS7 AS8 @latest",
                "'leaks' wants no operands (only an optional @scope), got 2 operands",
            ),
            ("top-sa AS+7 +3", "top-sa wants a count, got '+3'"),
            ("route AS+7 1.0.0.0/+8", "bad ASN 'AS+7'"),
            ("rel AS+7 AS+8", "bad ASN 'AS+7'"),
        ] {
            assert_eq!(
                parse(line),
                Err(ParseError::Malformed(message.into())),
                "'{line}'"
            );
        }
    }
}
