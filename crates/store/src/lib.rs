//! # rpi-store — the on-disk snapshot archive
//!
//! `rpi-query` builds its world in memory; this crate is where that
//! world sleeps. An **archive** is a directory:
//!
//! ```text
//! archive/
//!   MANIFEST        magic, version, segment table (+ CRC)
//!   symbols.seg     the append-only symbol table, one block per snapshot
//!   snap-0000.seg   full:  flattened vantage tries + relationships + LG analyses
//!   snap-0001.seg   delta: structured churn events over snap-0000
//!   …
//! ```
//!
//! Three properties drive the design:
//!
//! * **Millisecond cold start.** Segments are pointer-free, offset-based
//!   byte images ([`bgp_types::flat`] tries, varint-packed maps): loading
//!   is a linear decode, not a re-simulation, and delta segments replay
//!   through the engine's existing copy-on-write ingest so a loaded
//!   series keeps its physical sharing.
//! * **The archive mirrors the memory.** The manifest's segment table is
//!   exactly the engine's snapshot list; the symbol segment extends
//!   per snapshot because the interner is append-only across a series.
//!   Full vs delta per snapshot is the saver's policy call, invisible to
//!   queries (the differential contract from the incremental-ingest work
//!   extends to disk: *load of a delta segment ≡ full re-index*).
//! * **Fail loudly, never load a half-world.** Every segment is length-
//!   and CRC-checked before parsing; parse errors carry the segment
//!   index and absolute byte offset ([`StoreError`]). There is no code
//!   path that yields a partially-loaded engine.
//!
//! This crate owns the *container*: manifest, segment framing, checksums,
//! errors. The engine-specific payload encodings (what's inside a full
//! or delta segment) live with the engine in `rpi-query`, which is also
//! where `save_archive` / `load_archive` are exposed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod error;
pub mod manifest;
pub mod segment;

pub use checksum::{crc32, Crc32};
pub use error::{SegmentRef, StoreError};
pub use manifest::{
    Manifest, SegmentEntry, SegmentKind, FORMAT_VERSION, MANIFEST_FILE, SEG_FLAG_KEYFRAME,
};
pub use segment::{read_segment, write_segment};
