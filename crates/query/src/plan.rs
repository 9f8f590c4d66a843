//! The executor's planning layer: resolving a [`Scope`] against an
//! engine's snapshots, and running a batch of requests.
//!
//! A batch has one execution model: requests are evaluated by
//! [`QueryEngine::execute`] in request order on the thread that called
//! [`QueryEngine::execute_batch`]. A lookup (`route`, `resolve`, `sa`,
//! `rel`, `summary`, `rov`, and `leaks`, a read of the convictions its
//! snapshot carries) costs less than handing it to another thread;
//! lookup parallelism comes from serving several connections at once.
//! Only **scans** — the history verbs and `diff`, which walk whole
//! tables or many snapshots — are worth a thread, and only when a batch
//! holds two or more of them.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use bgp_types::Asn;

use crate::engine::QueryEngine;
use crate::proto::{Query, QueryRequest, Response, Scope};
use crate::snapshot::SnapshotId;

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

/// Whether a request walks whole tables or many snapshots (the history
/// verbs and `diff`) rather than reading what one snapshot has indexed.
/// Decided by the verb alone, so the batch's execution shape is readable
/// off the request.
fn is_scan(req: &QueryRequest) -> bool {
    req.query.is_history() || matches!(req.query, Query::Diff)
}

/// Runs a batch in request order on the calling thread; a batch holding
/// two or more scans overlaps them (see [`fan_out`]).
pub(crate) fn run_batch(
    engine: &QueryEngine,
    reqs: &[QueryRequest],
) -> Vec<Result<Response, QueryError>> {
    let wall_start = Instant::now();
    let results = if reqs.iter().filter(|r| is_scan(r)).take(2).count() < 2 {
        reqs.iter().map(|r| engine.execute(r)).collect()
    } else {
        fan_out(engine, reqs)
    };
    engine
        .metrics
        .plan_batch_seconds
        .record(wall_start.elapsed());
    results
}

/// The path of a batch with two or more scans: helper threads start on
/// the scans while the caller answers the lookups inline, then joins
/// them on the scans. Every worker pulls the next unclaimed scan off one
/// shared cursor until none are left, so an expensive scan occupies one
/// worker while the others drain the cheap ones.
fn fan_out(engine: &QueryEngine, reqs: &[QueryRequest]) -> Vec<Result<Response, QueryError>> {
    let scans: Vec<usize> = (0..reqs.len()).filter(|&i| is_scan(&reqs[i])).collect();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let helpers = scans.len().min(cores) - 1;
    // Relaxed: the cursor only hands out distinct indices; answers reach
    // the caller through `join`, not through this atomic.
    let cursor = AtomicUsize::new(0);
    let pull_scans = || {
        let t0 = Instant::now();
        let mut answers = Vec::new();
        while let Some(&i) = scans.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            answers.push((i, engine.execute(&reqs[i])));
        }
        engine
            .metrics
            .plan_lane_general_seconds
            .record(t0.elapsed());
        answers
    };
    let mut answers = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..helpers).map(|_| scope.spawn(pull_scans)).collect();
        let mut answers: Vec<_> = (0..reqs.len())
            .filter(|&i| !is_scan(&reqs[i]))
            .map(|i| (i, engine.execute(&reqs[i])))
            .collect();
        answers.extend(pull_scans());
        for h in handles {
            answers.extend(h.join().expect("batch worker panicked"));
        }
        answers
    });
    answers.sort_unstable_by_key(|&(i, _)| i);
    answers.into_iter().map(|(_, answer)| answer).collect()
}

#[cfg(test)]
mod tests {
    use net_topology::InternetSize;
    use rpi_core::Experiment;

    use super::*;
    use crate::proto::parse;

    /// `(lane samples, batch samples)` one `execute_batch` of `lines` adds.
    fn samples(engine: &QueryEngine, lines: &[String]) -> (u64, u64) {
        let reqs: Vec<QueryRequest> = lines.iter().map(|l| parse(l).expect(l)).collect();
        let m = engine.metrics();
        let count = || {
            (
                m.plan_lane_general_seconds.snapshot().count(),
                m.plan_batch_seconds.snapshot().count(),
            )
        };
        let before = count();
        assert_eq!(engine.execute_batch(&reqs).len(), reqs.len());
        let after = count();
        (after.0 - before.0, after.1 - before.1)
    }

    /// A lane sample is recorded by every fan-out worker and by nothing
    /// else, so "zero lane samples" is "no helper thread was spawned".
    #[test]
    fn only_a_batch_with_two_scans_fans_out() {
        let exp = Experiment::standard(InternetSize::Tiny, 7);
        let mut engine = QueryEngine::default();
        engine.ingest_experiment(&exp, "t0");
        let lg = exp.spec.lg_ases[0];

        let lookup_verbs = [
            format!("route {lg} 4.0.0.0/13"),
            format!("resolve {lg} 4.0.0.1/32"),
            format!("sa {lg} 4.0.0.0/13"),
            format!("rel {lg} AS1"),
            format!("summary {lg}"),
            format!("rov {lg} 4.0.0.0/13"),
            "leaks".to_string(),
        ];
        let scan_verbs = [
            "diff @all".to_string(),
            format!("sa-history {lg} 4.0.0.0/13"),
            format!("uptime {lg}"),
            format!("top-sa {lg} 3"),
            format!("persistence {lg} 4.0.0.0/13"),
            "hijacks".to_string(),
        ];

        let mut batch: Vec<String> = lookup_verbs.iter().cycle().take(128).cloned().collect();
        assert_eq!(samples(&engine, &batch), (0, 1), "128 lookups");
        batch[64] = "hijacks".to_string();
        assert_eq!(samples(&engine, &batch), (0, 1), "exactly one scan");
        batch[3] = format!("uptime {lg}");
        let (lanes, batches) = samples(&engine, &batch);
        assert!((1..=2).contains(&lanes), "two scans: {lanes} lane samples");
        assert_eq!(batches, 1);

        // The rule is the verb alone: a pair of any scan verb fans out
        // (even when its scope is unusable), a pair of any lookup verb
        // does not.
        for verb in &lookup_verbs {
            let pair = [verb.clone(), verb.clone()];
            assert_eq!(samples(&engine, &pair), (0, 1), "{verb}");
        }
        for verb in &scan_verbs {
            let pair = [verb.clone(), verb.clone()];
            assert!(samples(&engine, &pair).0 >= 1, "{verb}");
        }
        let unusable = ["hijacks @3..9".to_string(), format!("uptime {lg} @7")];
        assert!(samples(&engine, &unusable).0 >= 1, "scope errors");
    }
}
