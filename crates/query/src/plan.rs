//! The executor's planning layer: resolving a [`Scope`] against an
//! engine's snapshots into the snapshot ids a query reads.
//!
//! There is no batch scheduler: [`QueryEngine::execute_batch`] answers
//! its requests in request order on the calling thread, and parallelism
//! comes from serving several connections at once.

use std::fmt;

use bgp_types::Asn;

use crate::engine::QueryEngine;
use crate::proto::{Query, Scope};
use crate::snapshot::SnapshotId;

/// Why a request could not be executed (as opposed to answering "no":
/// a missing route or unknown AS inside a valid snapshot is a negative
/// [`Response`](crate::proto::Response), not an error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The engine has no snapshots at all.
    Empty,
    /// The scope names a snapshot id that was never ingested.
    UnknownSnapshot(SnapshotId),
    /// The scope names a label no snapshot carries.
    UnknownLabel(String),
    /// A history scope's range runs backwards (`@3..1`).
    InvertedRange(SnapshotId, SnapshotId),
    /// The query and scope shapes do not fit (e.g. `route … @all`,
    /// `diff @latest`).
    ScopeMismatch {
        /// The query's grammar verb.
        query: &'static str,
        /// What scope shape it needs.
        need: &'static str,
    },
    /// A history query names an AS the engine never saw at ingest time.
    UnknownVantage(Asn),
    /// A cold-tier segment failed its lazy checksum or parse: the engine
    /// refuses to answer from bytes it cannot vouch for. Carries the
    /// segment file and the absolute byte offset of the failure.
    Corrupt {
        /// The segment file inside the archive directory.
        file: String,
        /// Absolute byte offset of the failure within the segment.
        offset: usize,
        /// What was wrong there.
        what: String,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Empty => write!(f, "no snapshots ingested"),
            QueryError::UnknownSnapshot(id) => write!(f, "no snapshot {}", id.0),
            QueryError::UnknownLabel(l) => write!(f, "no snapshot labeled '{l}'"),
            QueryError::InvertedRange(a, b) => {
                write!(f, "range @{}..{} runs backwards", a.0, b.0)
            }
            QueryError::ScopeMismatch { query, need } => {
                write!(f, "'{query}' needs {need}")
            }
            QueryError::UnknownVantage(a) => write!(f, "{a} was never seen at ingest time"),
            QueryError::Corrupt { file, offset, what } => {
                write!(f, "segment {file} corrupt at byte {offset}: {what}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

impl QueryEngine {
    /// Resolves a scope that must name exactly one snapshot (the shape
    /// every point query needs).
    pub(crate) fn single_scope(
        &self,
        query: &Query,
        scope: &Scope,
    ) -> Result<SnapshotId, QueryError> {
        match scope {
            Scope::Latest => self.latest().ok_or(QueryError::Empty),
            Scope::Id(id) => {
                if id.index() < self.snapshot_count() {
                    Ok(*id)
                } else {
                    Err(QueryError::UnknownSnapshot(*id))
                }
            }
            Scope::Label(l) => self
                .find_label(l)
                .ok_or_else(|| QueryError::UnknownLabel(l.clone())),
            Scope::All | Scope::Range(..) => Err(QueryError::ScopeMismatch {
                query: query.verb(),
                need: "a single snapshot (@latest, @<id>, @label:<name>)",
            }),
        }
    }

    /// Resolves a scope into the ordered snapshot list a history query
    /// walks. Single-snapshot scopes degenerate to a one-element series.
    pub(crate) fn scope_ids(
        &self,
        query: &Query,
        scope: &Scope,
    ) -> Result<Vec<SnapshotId>, QueryError> {
        match scope {
            Scope::Latest | Scope::Id(_) | Scope::Label(_) => {
                Ok(vec![self.single_scope(query, scope)?])
            }
            Scope::All => {
                let n = self.snapshot_count();
                if n == 0 {
                    return Err(QueryError::Empty);
                }
                Ok((0..n as u32).map(SnapshotId).collect())
            }
            Scope::Range(a, b) => {
                if a > b {
                    return Err(QueryError::InvertedRange(*a, *b));
                }
                if b.index() >= self.snapshot_count() {
                    return Err(QueryError::UnknownSnapshot(*b));
                }
                Ok((a.0..=b.0).map(SnapshotId).collect())
            }
        }
    }

    /// Resolves the `from`/`to` pair a `diff` runs between. `@all` means
    /// first→latest; an explicit range may run in either direction
    /// (reverse diffs are meaningful).
    pub(crate) fn diff_scope(&self, scope: &Scope) -> Result<(SnapshotId, SnapshotId), QueryError> {
        match scope {
            Scope::Range(a, b) => {
                for id in [a, b] {
                    if id.index() >= self.snapshot_count() {
                        return Err(QueryError::UnknownSnapshot(*id));
                    }
                }
                Ok((*a, *b))
            }
            Scope::All => {
                let last = self.latest().ok_or(QueryError::Empty)?;
                Ok((SnapshotId(0), last))
            }
            _ => Err(QueryError::ScopeMismatch {
                query: "diff",
                need: "a snapshot range (@<from>..<to> or @all)",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use net_topology::InternetSize;
    use rpi_core::Experiment;

    use super::*;
    use crate::proto::{parse, QueryRequest};

    /// One `execute_batch` is one batch sample, whatever the batch holds.
    #[test]
    fn one_batch_records_one_batch_sample() {
        let exp = Experiment::standard(InternetSize::Tiny, 7);
        let mut engine = QueryEngine::default();
        engine.ingest_experiment(&exp, "t0");
        let lg = exp.spec.lg_ases[0];
        let lines = [
            format!("route {lg} 4.0.0.0/13"),
            format!("uptime {lg}"),
            "hijacks".to_string(),
            "hijacks @3..9".to_string(),
        ];
        let reqs: Vec<QueryRequest> = lines.iter().map(|l| parse(l).expect(l)).collect();
        let batches = &engine.metrics().plan_batch_seconds;
        let before = batches.snapshot().count();
        assert_eq!(engine.execute_batch(&reqs).len(), reqs.len());
        assert_eq!(batches.snapshot().count() - before, 1);
    }
}
