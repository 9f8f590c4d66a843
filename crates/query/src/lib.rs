//! # rpi-query — a concurrently-queryable policy observatory
//!
//! The paper infers routing policies from static snapshots; this crate is
//! the serving layer that makes those inferences *queryable at scale*. It
//! ingests a series of snapshots — straight from the simulator
//! ([`bgp_sim::SimOutput`]), from churn series ([`bgp_sim::SnapshotSeries`]),
//! or from MRT TABLE_DUMP_V2 bytes via [`bgp_wire::mrt`] — and serves
//! policy queries in O(lookup) instead of recomputing analyses per call.
//!
//! Everything is asked through **one typed protocol** ([`proto`]): a
//! [`Query`] AST paired with a snapshot [`Scope`] forms a
//! [`QueryRequest`]; [`QueryEngine::execute`] returns a typed
//! [`Response`], and [`QueryEngine::execute_batch`] runs many requests
//! in order on the calling thread. The same module defines the
//! round-trippable text grammar ([`parse`] / [`render`]) that the
//! `rpi-queryd` REPL, batch query files and the tests all share.
//! Multi-snapshot history questions — per-prefix SA history, Fig. 7
//! uptime histograms, top-K SA origins, persistence classes — are
//! first-class queries backed by [`rpi_core::persistence`].
//!
//! Churn series ingest **incrementally**
//! ([`QueryEngine::ingest_series_incremental`]): each snapshot after the
//! first is a copy-on-write overlay over its predecessor — vantage tries
//! share every untouched subtrie ([`bgp_types::CowTrie`]), SA/summary
//! caches re-derive only the touched vantage×prefix entries, and the
//! interner stays append-only — differentially tested to answer every
//! query byte-identically to a full re-index
//! (`tests/incremental_diff.rs`), ~6× faster at BGP-realistic churn with
//! ~95% of trie memory shared ([`QueryEngine::sharing_stats`]).
//!
//! * [`intern`] — ASNs are interned into dense `u32` symbols
//!   ([`bgp_types::Interner`]), so stored AS paths are 4-byte IDs and
//!   cross-snapshot comparison is integer comparison; prefixes key every
//!   per-prefix map as themselves.
//! * [`snapshot`] — one ingested snapshot: per-vantage best-route tables
//!   (one [`bgp_types::CowTrie`] each), plus the precomputed
//!   `rpi_core` analyses (SA reports, valley-free leak convictions,
//!   import typicality, community semantics) and the relationship oracle.
//! * [`proto`] — the query protocol: AST, wire grammar, responses.
//! * [`plan`] — scope resolution and the query error type.
//! * [`engine`] — [`QueryEngine`]: ingestion and `execute`/`execute_batch`,
//!   the only query entry points.
//! * [`diff`] — what changed between snapshot *t* and *t+1*: new/vanished
//!   SA prefixes, flipped relationships, churned best routes.
//! * [`archive`] — the on-disk life of the engine (`rpi-store`):
//!   [`QueryEngine::save_archive`] serializes symbols + snapshots into
//!   checksummed full/delta segments, [`QueryEngine::load_archive`]
//!   cold-starts from them in milliseconds, replaying delta segments
//!   through the same incremental-ingest machinery.
//! * [`serve`] — the non-blocking TCP front end: an `Arc`-shared engine
//!   behind a readiness poll loop with newline framing, per-read request
//!   pipelining into [`QueryEngine::execute_batch`], bounded write
//!   buffers with read-side backpressure, idle shedding, and a stats
//!   snapshot on protocol-level (`shutdown` verb) shutdown.
//!
//! The `rpi-queryd` binary wraps the engine in a line-oriented CLI with a
//! stdin REPL, batch query files and a `--listen` serve mode.
//!
//! ## Quick tour
//!
//! ```
//! use rpi_core::Experiment;
//! use net_topology::InternetSize;
//! use rpi_query::{parse, Query, QueryEngine, Response, Scope};
//!
//! let exp = Experiment::standard(InternetSize::Tiny, 7);
//! let mut engine = QueryEngine::default();
//! engine.ingest_experiment(&exp, "t0");
//!
//! // Typed request, typed response:
//! let lg = exp.spec.lg_ases[0];
//! let some_prefix = *exp.lg_table(lg).unwrap().rows.keys().next().unwrap();
//! let req = Query::Route { vantage: lg, prefix: some_prefix }.at(Scope::Latest);
//! let Ok(Response::Route(Some(answer))) = engine.execute(&req) else {
//!     panic!("the LG's own table prefix must resolve");
//! };
//! assert!(!answer.path.is_empty());
//!
//! // The same request from its wire form — one grammar everywhere:
//! let wire = parse(&format!("route {lg} {some_prefix}")).unwrap();
//! assert_eq!(wire, req);
//! assert_eq!(engine.execute(&wire).unwrap(), Response::Route(Some(answer)));
//!
//! // A multi-snapshot history question is one request too:
//! let hist = engine.execute(&Query::UptimeHistogram { vantage: lg }.at(Scope::All));
//! assert!(matches!(hist, Ok(Response::Uptime(_))));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod diff;
pub mod engine;
pub mod intern;
pub mod live;
pub mod metrics;
pub mod plan;
pub mod proto;
pub mod sec;
pub mod serve;
pub mod snapshot;
pub mod tier;

pub use archive::{ArchiveInfo, SaveOptions, SegmentMeta};
pub use diff::{RelationshipFlip, SnapshotDiff, VantageChurn};
pub use engine::{PolicySummary, QueryEngine, RouteAnswer, SaStatus, SharingStats};
pub use intern::{AsnSym, WorldInterner};
pub use live::{
    drain_stream, follow_stream, FollowEnd, FollowReport, LiveError, LiveHandle, LiveOptions,
    LiveWriter,
};
pub use metrics::QueryMetrics;
pub use plan::QueryError;
pub use proto::{
    parse, parse_control, parse_script, render, render_response, render_scope, write_response,
    Control, Frame, FrameRef, Grammar, HijackEvent, HijackKind, LeakEvent, LineFramer, ParseError,
    PersistenceAnswer, Query, QueryRequest, Response, RovAnswer, SaHistoryPoint, SaOriginCount,
    Scope, ScriptError,
};
pub use serve::{EngineSource, ServeConfig, ServeStats, Server, ServerHandle};
pub use snapshot::{Snapshot, SnapshotId, VantageKind};
pub use tier::{Residency, TierStats};

#[cfg(test)]
mod fold_scan;
