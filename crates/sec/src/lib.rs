//! # rpi-sec — ROA state and Route Origin Validation
//!
//! The security substrate of the observatory: Route Origin Authorizations
//! ([`Roa`]), an origin-validation table with longest-covering-ROA lookup
//! ([`RoaTable`]), the RFC 6811 validity states ([`RovValidity`]), and a
//! bounded validation cache with hit/miss counters ([`RovCache`]).
//!
//! The paper's SA machinery (§5, Fig. 4) already detects "origin outside
//! the provider's customer cone" — the primitive underlying modern hijack
//! detection. This crate supplies the *registry* side of that story: a
//! ROA says "origin AS `o` may announce `p` up to length `m`", and a
//! route is checked against every covering ROA:
//!
//! * **valid** — some covering ROA authorizes the origin at this length;
//! * **invalid-length** — an origin-matching ROA covers the prefix, but
//!   the announcement is more specific than its max-length allows (the
//!   sub-prefix hijack shape);
//! * **invalid-origin** — ROAs cover the prefix, none names the origin
//!   (the classic origin-hijack shape);
//! * **unknown** — no covering ROA (most of the real table).
//!
//! The reported covering ROA is deterministic: the longest-prefix ROA
//! that decided the verdict, ties broken by (max-length, origin).
//!
//! Validation is read-only and concurrent: [`RoaTable`] is immutable
//! after construction, and [`RovCache`] uses interior mutability behind
//! a mutex plus atomic counters, so an `Arc<RoaTable>` + cache pair can
//! serve every event-loop thread at once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use bgp_types::{Asn, Ipv4Prefix};

/// One Route Origin Authorization: `origin` may announce `prefix` and
/// anything it covers down to `/max_len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Roa {
    /// The authorized prefix.
    pub prefix: Ipv4Prefix,
    /// Longest announcement length the ROA authorizes (≥ `prefix.len()`).
    pub max_len: u8,
    /// The authorized origin AS.
    pub origin: Asn,
}

impl fmt::Display for Roa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.max_len == self.prefix.len() {
            write!(f, "{} {}", self.prefix, self.origin)
        } else {
            write!(f, "{}-{} {}", self.prefix, self.max_len, self.origin)
        }
    }
}

/// RFC 6811 route origin validation states, split by *why* a route is
/// invalid (the split is what the hijack taxonomy needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RovValidity {
    /// A covering ROA authorizes this origin at this length.
    Valid,
    /// Covering ROAs exist, none authorizes this origin.
    InvalidOrigin,
    /// An origin-matching ROA covers the prefix but the announcement is
    /// longer than its max-length.
    InvalidLength,
    /// No covering ROA.
    Unknown,
}

impl RovValidity {
    /// The wire spelling (`valid` / `invalid-origin` / `invalid-length` /
    /// `unknown`) the query grammar renders.
    pub fn name(self) -> &'static str {
        match self {
            RovValidity::Valid => "valid",
            RovValidity::InvalidOrigin => "invalid-origin",
            RovValidity::InvalidLength => "invalid-length",
            RovValidity::Unknown => "unknown",
        }
    }
}

impl fmt::Display for RovValidity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A malformed line in a ROA file, with its 1-based line number — the
/// same `file:line:` shape `--queries` errors use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoaParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong with it.
    pub msg: String,
}

impl fmt::Display for RoaParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for RoaParseError {}

/// The engine's ROA set: immutable after construction, indexed for
/// longest-covering-ROA lookup.
///
/// Lookup walks the query prefix's covering lengths longest-first and
/// probes one bucket per length, so a validation is at most
/// `max_len + 1` hash probes even with millions of ROAs — and the
/// common repeated (prefix, origin) pairs hit [`RovCache`] instead.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoaTable {
    /// Canonical order: sorted by (prefix, max_len, origin), deduped.
    roas: Vec<Roa>,
    /// ROA indices bucketed by their exact prefix.
    by_prefix: HashMap<Ipv4Prefix, Vec<u32>>,
    /// Longest ROA prefix length — bounds the covering walk.
    max_plen: u8,
}

impl RoaTable {
    /// Builds a table from any ROA collection; duplicates collapse and
    /// the order is canonicalized (so equal sets compare equal and
    /// serialize identically).
    pub fn new(mut roas: Vec<Roa>) -> RoaTable {
        for r in &mut roas {
            r.max_len = r.max_len.clamp(r.prefix.len(), 32);
        }
        roas.sort_unstable();
        roas.dedup();
        let mut by_prefix: HashMap<Ipv4Prefix, Vec<u32>> = HashMap::new();
        let mut max_plen = 0;
        for (i, r) in roas.iter().enumerate() {
            by_prefix.entry(r.prefix).or_default().push(i as u32);
            max_plen = max_plen.max(r.prefix.len());
        }
        RoaTable {
            roas,
            by_prefix,
            max_plen,
        }
    }

    /// Parses the line-oriented ROA file format:
    ///
    /// ```text
    /// # comment
    /// <prefix>[-<max-length>] <origin-asn>
    /// 4.0.0.0/13-24 AS5000
    /// ```
    ///
    /// Blank lines and `#` comments are skipped; the first malformed
    /// line aborts with its 1-based number ([`RoaParseError`]).
    pub fn parse(text: &str) -> Result<RoaTable, RoaParseError> {
        let mut roas = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |msg: String| RoaParseError { line: i + 1, msg };
            let mut parts = line.split_whitespace();
            let spec = parts.next().expect("non-empty line has a token");
            let Some(origin) = parts.next() else {
                return Err(err(format!(
                    "expected '<prefix>[-<max-length>] <origin-asn>', got '{line}'"
                )));
            };
            if let Some(extra) = parts.next() {
                return Err(err(format!("trailing token '{extra}' after origin")));
            }
            let (prefix_s, max_len_s) = match spec.split_once('-') {
                Some((p, m)) => (p, Some(m)),
                None => (spec, None),
            };
            let prefix = Ipv4Prefix::from_str(prefix_s)
                .map_err(|_| err(format!("bad prefix '{prefix_s}'")))?;
            let max_len = match max_len_s {
                Some(m) => m.parse::<u8>().ok().filter(|&m| m <= 32).ok_or_else(|| {
                    err(format!("bad max-length '{m}' (want {}..=32)", prefix.len()))
                })?,
                None => prefix.len(),
            };
            if max_len < prefix.len() {
                return Err(err(format!(
                    "max-length {max_len} shorter than the prefix ({prefix})"
                )));
            }
            let origin =
                Asn::from_str(origin).map_err(|_| err(format!("bad origin ASN '{origin}'")))?;
            roas.push(Roa {
                prefix,
                max_len,
                origin,
            });
        }
        Ok(RoaTable::new(roas))
    }

    /// Number of ROAs in the table.
    pub fn len(&self) -> usize {
        self.roas.len()
    }

    /// True when the table holds no ROAs (every route validates unknown).
    pub fn is_empty(&self) -> bool {
        self.roas.is_empty()
    }

    /// The ROAs in canonical order.
    pub fn roas(&self) -> &[Roa] {
        &self.roas
    }

    /// Validates `(prefix, origin)` against every covering ROA, returning
    /// the verdict and the longest-prefix ROA that decided it (`None`
    /// only for [`RovValidity::Unknown`]).
    pub fn validate(&self, prefix: Ipv4Prefix, origin: Asn) -> (RovValidity, Option<Roa>) {
        // Walk covering lengths longest-first; the first bucket that can
        // authorize the origin decides, otherwise remember the longest
        // origin-matching and longest covering ROA seen.
        let mut origin_match: Option<Roa> = None;
        let mut covering: Option<Roa> = None;
        let start = prefix.len().min(self.max_plen);
        for len in (0..=start).rev() {
            let key = Ipv4Prefix::canonical(prefix.bits(), len);
            let Some(bucket) = self.by_prefix.get(&key) else {
                continue;
            };
            for &i in bucket {
                let roa = self.roas[i as usize];
                if roa.origin == origin && prefix.len() <= roa.max_len {
                    return (RovValidity::Valid, Some(roa));
                }
                if roa.origin == origin && origin_match.is_none() {
                    origin_match = Some(roa);
                }
                if covering.is_none() {
                    covering = Some(roa);
                }
            }
        }
        match (origin_match, covering) {
            (Some(roa), _) => (RovValidity::InvalidLength, Some(roa)),
            (None, Some(roa)) => (RovValidity::InvalidOrigin, Some(roa)),
            (None, None) => (RovValidity::Unknown, None),
        }
    }
}

/// Point-in-time cache counters (monotonic since construction or the
/// last [`RovCache::reset`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RovCacheStats {
    /// Validations answered from the cache.
    pub hits: u64,
    /// Validations that had to walk the table.
    pub misses: u64,
}

/// A bounded validation cache: (prefix, origin) → verdict.
///
/// Two-generation LRU approximation: hits promote entries from the cold
/// generation into the hot one; when the hot generation fills, it
/// *becomes* the cold one and untouched entries age out wholesale. Every
/// operation is O(1), the capacity bound is `2 × cap` entries, and the
/// whole structure is `Sync` (mutex-guarded maps, atomic counters) so
/// every serving thread validates concurrently.
#[derive(Debug)]
pub struct RovCache {
    cap: usize,
    gens: Mutex<Gens>,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Debug, Default)]
struct Gens {
    hot: HashMap<(Ipv4Prefix, Asn), (RovValidity, Option<Roa>)>,
    cold: HashMap<(Ipv4Prefix, Asn), (RovValidity, Option<Roa>)>,
}

/// Default capacity of the hot generation.
pub const DEFAULT_ROV_CACHE_CAP: usize = 8192;

impl Default for RovCache {
    fn default() -> RovCache {
        RovCache::with_capacity(DEFAULT_ROV_CACHE_CAP)
    }
}

impl RovCache {
    /// A cache whose hot generation holds up to `cap` verdicts.
    pub fn with_capacity(cap: usize) -> RovCache {
        RovCache {
            cap: cap.max(1),
            gens: Mutex::new(Gens::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Validates through the cache: a hit is one map probe, a miss walks
    /// `table` and caches the verdict.
    pub fn validate(
        &self,
        table: &RoaTable,
        prefix: Ipv4Prefix,
        origin: Asn,
    ) -> (RovValidity, Option<Roa>) {
        let key = (prefix, origin);
        let mut gens = self.gens.lock().expect("rov cache poisoned");
        if let Some(&v) = gens.hot.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        if let Some(v) = gens.cold.remove(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            Self::insert(&mut gens, self.cap, key, v);
            return v;
        }
        drop(gens); // the table walk needs no lock
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = table.validate(prefix, origin);
        let mut gens = self.gens.lock().expect("rov cache poisoned");
        Self::insert(&mut gens, self.cap, key, v);
        v
    }

    fn insert(gens: &mut Gens, cap: usize, key: (Ipv4Prefix, Asn), v: (RovValidity, Option<Roa>)) {
        if gens.hot.len() >= cap {
            gens.cold = std::mem::take(&mut gens.hot);
        }
        gens.hot.insert(key, v);
    }

    /// The hit/miss counters.
    pub fn stats(&self) -> RovCacheStats {
        RovCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Empties both generations and zeroes the counters (the engine
    /// calls this whenever the ROA table is replaced).
    pub fn reset(&self) {
        let mut gens = self.gens.lock().expect("rov cache poisoned");
        gens.hot.clear();
        gens.cold.clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn table() -> RoaTable {
        RoaTable::parse(
            "# exemplar table\n\
             4.0.0.0/13-24 AS5000\n\
             4.0.0.0/16 AS5001\n\
             8.0.0.0/8 AS64500\n",
        )
        .unwrap()
    }

    #[test]
    fn verdicts_cover_the_rfc6811_matrix() {
        let t = table();
        let (v, roa) = t.validate(p("4.0.0.0/13"), Asn(5000));
        assert_eq!(v, RovValidity::Valid);
        assert_eq!(roa.unwrap().prefix, p("4.0.0.0/13"));

        // Longest covering ROA wins the report: /16 beats /13.
        let (v, roa) = t.validate(p("4.0.0.0/16"), Asn(5001));
        assert_eq!(v, RovValidity::Valid);
        assert_eq!(roa.unwrap().origin, Asn(5001));

        // Covered, authorized origin, but too specific: invalid-length.
        let (v, roa) = t.validate(p("8.0.0.0/24"), Asn(64500));
        assert_eq!(v, RovValidity::InvalidLength);
        assert_eq!(roa.unwrap().prefix, p("8.0.0.0/8"));

        // Covered, wrong origin: invalid-origin.
        let (v, _) = t.validate(p("8.0.0.0/8"), Asn(666));
        assert_eq!(v, RovValidity::InvalidOrigin);

        // Not covered at all: unknown.
        let (v, roa) = t.validate(p("10.0.0.0/8"), Asn(5000));
        assert_eq!(v, RovValidity::Unknown);
        assert!(roa.is_none());
    }

    #[test]
    fn a_shorter_valid_roa_beats_a_longer_invalid_one() {
        // /16 covers but names another origin; the /13 still authorizes.
        let t = table();
        let (v, roa) = t.validate(p("4.0.0.0/16"), Asn(5000));
        assert_eq!(v, RovValidity::Valid);
        assert_eq!(roa.unwrap().prefix, p("4.0.0.0/13"));
    }

    #[test]
    fn parse_errors_carry_their_line_number() {
        let e = RoaTable::parse("4.0.0.0/13 AS5000\nnot-a-prefix AS1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("bad prefix"), "{e}");

        let e = RoaTable::parse("\n# ok\n4.0.0.0/13\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("expected"), "{e}");

        let e = RoaTable::parse("4.0.0.0/13-9 AS5000\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.msg.contains("max-length"), "{e}");

        let e = RoaTable::parse("4.0.0.0/13-24 AS5000 extra\n").unwrap_err();
        assert!(e.msg.contains("trailing"), "{e}");
    }

    #[test]
    fn canonical_order_is_stable_across_input_orders() {
        let a = RoaTable::new(vec![
            Roa {
                prefix: p("8.0.0.0/8"),
                max_len: 8,
                origin: Asn(1),
            },
            Roa {
                prefix: p("4.0.0.0/13"),
                max_len: 24,
                origin: Asn(2),
            },
            Roa {
                prefix: p("4.0.0.0/13"),
                max_len: 24,
                origin: Asn(2),
            },
        ]);
        let b = RoaTable::new(vec![
            Roa {
                prefix: p("4.0.0.0/13"),
                max_len: 24,
                origin: Asn(2),
            },
            Roa {
                prefix: p("8.0.0.0/8"),
                max_len: 8,
                origin: Asn(1),
            },
        ]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn cache_counts_hits_and_misses_and_survives_aging() {
        let t = table();
        let c = RovCache::with_capacity(2);
        for _ in 0..3 {
            c.validate(&t, p("4.0.0.0/13"), Asn(5000));
        }
        assert_eq!(c.stats(), RovCacheStats { hits: 2, misses: 1 });

        // Fill past the hot cap: the old entry ages into the cold
        // generation but still hits (and is promoted back).
        c.validate(&t, p("8.0.0.0/8"), Asn(64500));
        c.validate(&t, p("10.0.0.0/8"), Asn(1));
        c.validate(&t, p("4.0.0.0/13"), Asn(5000));
        let s = c.stats();
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 3);

        c.reset();
        assert_eq!(c.stats(), RovCacheStats::default());
        c.validate(&t, p("4.0.0.0/13"), Asn(5000));
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn cache_agrees_with_the_table_everywhere() {
        let t = table();
        let c = RovCache::default();
        for pfx in [
            "4.0.0.0/13",
            "4.0.0.0/16",
            "4.0.0.0/25",
            "8.0.0.0/24",
            "9.0.0.0/9",
        ] {
            for origin in [5000u32, 5001, 64500, 666] {
                let direct = t.validate(p(pfx), Asn(origin));
                assert_eq!(c.validate(&t, p(pfx), Asn(origin)), direct);
                assert_eq!(c.validate(&t, p(pfx), Asn(origin)), direct, "cached");
            }
        }
    }
}
