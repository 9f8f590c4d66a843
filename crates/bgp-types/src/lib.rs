//! # bgp-types — core BGP data model
//!
//! Foundation crate for the IMC'03 "On Inferring and Characterizing Internet
//! Routing Policies" reproduction. It defines the vocabulary every other crate
//! speaks:
//!
//! * [`Asn`] — autonomous system numbers (4-byte capable).
//! * [`Ipv4Prefix`] — CIDR prefixes with aggregation / splitting algebra
//!   (the paper's §5.1.5 "prefix splitting" and "prefix aggregating" cases).
//! * [`AsPath`] — AS_PATH attribute with `AS_SEQUENCE` / `AS_SET` segments,
//!   stored *speaker-first* (leftmost AS = next-hop AS, rightmost = origin),
//!   exactly as `show ip bgp` prints it.
//! * [`Community`] — RFC 1997 communities, including the well-known values
//!   and the `ASN:value` tagging convention the paper's Appendix relies on.
//! * [`Route`] / [`RouteAttrs`] — a RIB entry carrying every attribute the
//!   BGP decision process consults.
//! * [`CowTrie`] — the copy-on-write binary trie: route tables that
//!   share unchanged subtries across snapshots, longest-prefix match,
//!   and the covered/covering queries of the cause analysis (Table 9).
//! * [`codec`] / [`flat`] — the archive substrate: LEB128/ZigZag byte
//!   codec with offset-carrying errors, and the flattened pointer-free
//!   trie layout ([`FlatTrie`]) served straight off the on-disk bytes.
//! * [`Relationship`] — the provider / customer / peer / sibling annotation
//!   of the AS graph (§2.1).
//!
//! The crate is `std`-only, has no dependencies, and never panics on
//! malformed textual input: all parsers return [`ParseError`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asn;
pub mod codec;
pub mod community;
pub mod error;
pub mod flat;
pub mod intern;
pub mod path;
pub mod prefix;
pub mod relationship;
pub mod route;
pub mod trie;

pub use asn::Asn;
pub use codec::CodecError;
pub use community::Community;
pub use error::ParseError;
pub use flat::FlatTrie;
pub use intern::{Interner, Symbol};
pub use path::{AsPath, PathSegment};
pub use prefix::Ipv4Prefix;
pub use relationship::Relationship;
pub use route::{Origin, Route, RouteAttrs, RouteBuilder, Session};
pub use trie::CowTrie;
