//! The executor's planning layer: resolving a [`Scope`] against an
//! engine's snapshots, classifying batch requests into shard-affine
//! buckets, and running the buckets in parallel under
//! `std::thread::scope`, recording per-lane busy time into the
//! `rpi_plan_{batch,lane_*}_seconds` histograms.
//!
//! Every query — single or batched, point or history — flows through
//! this planner via [`QueryEngine::execute`] and
//! [`QueryEngine::execute_batch`], the engine's only query entry points.

use std::fmt;
use std::time::{Duration, Instant};

use bgp_types::Asn;

use crate::engine::QueryEngine;
use crate::proto::{Query, QueryRequest, Response, Scope};
use crate::snapshot::{shard_of, SnapshotId};

/// Why a request could not be executed (as opposed to answering "no":
/// a missing route or unknown AS inside a valid snapshot is a negative
/// [`Response`], not an error).
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

/// Where the planner routes one request of a batch.
enum Step {
    /// Scope resolution already failed; the error is the answer.
    Fail(QueryError),
    /// A single-snapshot lookup keyed by the prefix's shard, with its
    /// scope already resolved: the batch runner gives every shard's
    /// bucket to one worker, so each shard's tries are walked from
    /// exactly one thread.
    Sharded(usize, SnapshotId),
    /// Everything else (all-shard lookups, hash lookups, history walks,
    /// diffs): spread round-robin over the workers' general lanes.
    General,
}

fn classify(engine: &QueryEngine, req: &QueryRequest) -> Step {
    match &req.query {
        Query::Route { prefix, .. }
        | Query::SaStatus { prefix, .. }
        | Query::Rov { prefix, .. } => match engine.single_scope(&req.query, &req.scope) {
            Ok(id) => Step::Sharded(shard_of(*prefix, engine.shard_count()), id),
            Err(e) => Step::Fail(e),
        },
        _ => Step::General,
    }
}

/// Runs a batch: classify, bucket, evaluate buckets concurrently, merge.
/// One worker per non-empty bucket, capped at the machine's parallelism;
/// workers write into private vectors (interleaved writes to the shared
/// results vector would false-share) and the merge moves answers into
/// place.
pub(crate) fn run_batch(
    engine: &QueryEngine,
    reqs: &[QueryRequest],
) -> Vec<Result<Response, QueryError>> {
    let wall_start = Instant::now();
    let n_shards = engine.shard_count();
    let mut results: Vec<Option<Result<Response, QueryError>>> =
        (0..reqs.len()).map(|_| None).collect();

    // Shard buckets carry (request index, resolved snapshot) so workers
    // evaluate without re-resolving the scope.
    let mut shard_buckets: Vec<Vec<(usize, SnapshotId)>> = vec![Vec::new(); n_shards];
    let mut general: Vec<usize> = Vec::new();
    for (i, req) in reqs.iter().enumerate() {
        match classify(engine, req) {
            Step::Fail(e) => results[i] = Some(Err(e)),
            Step::Sharded(shard, id) => shard_buckets[shard].push((i, id)),
            Step::General => general.push(i),
        }
    }
    shard_buckets.retain(|b| !b.is_empty());

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The general lane is not one unit of work: a pure-general batch
    // (all resolves or history walks) must still spread over every core,
    // so it counts as up to one lane per request.
    let workers = (shard_buckets.len() + general.len()).min(cores).max(1);
    // The general lane is over-partitioned (4 chunks per worker) so that
    // expensive history walks landing in one chunk don't serialize the
    // whole lane; workers pick up chunks round-robin.
    let general_chunks: Vec<&[usize]> = if general.is_empty() {
        Vec::new()
    } else {
        let n_chunks = (workers * 4).min(general.len());
        general.chunks(general.len().div_ceil(n_chunks)).collect()
    };

    // A lane is one shard's bucket (scopes pre-resolved) or one chunk
    // of the general lane.
    enum LaneWork<'a> {
        Shard(&'a [(usize, SnapshotId)]),
        General(&'a [usize]),
    }
    let buckets: Vec<LaneWork> = shard_buckets
        .iter()
        .map(|b| LaneWork::Shard(b.as_slice()))
        .chain(general_chunks.iter().map(|c| LaneWork::General(c)))
        .collect();

    // (is a shard lane, busy time, answers by request index)
    type LaneAnswers = (bool, Duration, Vec<(usize, Result<Response, QueryError>)>);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let my_buckets: Vec<&LaneWork> = buckets.iter().skip(w).step_by(workers).collect();
                scope.spawn(move || {
                    let mut out: Vec<LaneAnswers> = Vec::with_capacity(my_buckets.len());
                    for work in my_buckets {
                        let t0 = Instant::now();
                        let answers: Vec<(usize, Result<Response, QueryError>)> = match work {
                            LaneWork::Shard(bucket) => bucket
                                .iter()
                                .map(|&(i, id)| (i, engine.eval_point(&reqs[i].query, id)))
                                .collect(),
                            LaneWork::General(bucket) => bucket
                                .iter()
                                .map(|&i| (i, engine.execute(&reqs[i])))
                                .collect(),
                        };
                        let sharded = matches!(work, LaneWork::Shard(_));
                        out.push((sharded, t0.elapsed(), answers));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            for (sharded, busy, answers) in h.join().expect("batch worker panicked") {
                if sharded {
                    engine.metrics.plan_lane_shard_seconds.record(busy);
                } else {
                    engine.metrics.plan_lane_general_seconds.record(busy);
                }
                for (i, answer) in answers {
                    results[i] = Some(answer);
                }
            }
        }
    });

    engine
        .metrics
        .plan_batch_seconds
        .record(wall_start.elapsed());
    results
        .into_iter()
        .map(|r| r.expect("every request routed to a lane"))
        .collect()
}
