//! # bgp-wire — wire formats for the reproduction
//!
//! The paper mines RouteViews / Looking Glass BGP tables; a modern
//! reproduction would ingest MRT dumps (the `repro` note suggests
//! `bgpkit-parser`). Working offline, we implement the needed slice of the
//! formats ourselves so the dump-processing code path is real:
//!
//! * [`msg`] — BGP-4 messages (RFC 4271) with 4-byte AS paths (RFC 6793)
//!   and communities (RFC 1997): OPEN / UPDATE / KEEPALIVE / NOTIFICATION.
//! * [`mrt`] — MRT TABLE_DUMP_V2 (RFC 6396): `PEER_INDEX_TABLE` +
//!   `RIB_IPV4_UNICAST` records, reader and writer.
//! * [`text`] — the `show ip bgp`-style Looking-Glass table rendering and
//!   parser (the paper retrieves LOCAL_PREF and communities this way, §3).
//!
//! All decoders are fail-safe: malformed input yields [`WireError`], never a
//! panic. Every read goes through `bgp_types::codec::Reader`, which checks
//! the bytes are there and names the file offset when they are not
//! ([`WireError::Codec`]); seeded `StdRng` round-trip, truncation and
//! byte-mutation tests hold the decoders to that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod mrt;
pub mod msg;
pub mod text;

pub use error::WireError;
pub use mrt::{MrtReader, MrtRecord, MrtWriter, PeerEntry, RibEntry, TableDump};
pub use msg::{Message, NotificationMessage, OpenMessage, UpdateMessage, WireAttrs};
