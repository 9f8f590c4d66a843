//! One session semantics for every front end.
//!
//! A "session" is a stream of grammar lines — the stdin REPL, a
//! `--queries` file, or one TCP connection. This module defines what a
//! line *means* ([`classify_line`]), runs and accounts for its queries
//! ([`run_queries`]) and renders the REPL listing commands
//! ([`repl_reply`]), so the daemon's stdin path and the
//! [`serve`](crate::serve) front end produce **byte-identical** output
//! for the same lines — the property the CI network smoke diffs.

use std::time::Instant;

use rpi_store::SegmentKind;

use crate::engine::QueryEngine;
use crate::plan::QueryError;
use crate::proto::{
    parse, parse_control, Control, Grammar, ParseError, QueryRequest, Response, VERBS,
};
use crate::snapshot::{SnapshotId, VantageKind};

/// What the REPL line said, beyond the query grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplCmd {
    /// `help` — the grammar plus the session commands.
    Help,
    /// `snapshots` — one line per ingested snapshot (label, vantage
    /// count, trie sharing, on-disk cost).
    Snapshots,
    /// `archive` — the on-disk segment listing, if the engine was
    /// loaded from (or saved to) an `rpi-store` archive.
    Archive,
    /// `vantages` — every vantage AS and its kind.
    Vantages,
    /// `metrics` — the full Prometheus-style exposition of the engine's
    /// metrics registry (sorted, deterministic key set).
    Metrics,
    /// `metrics names` — just the `name kind` schema of the registry,
    /// value-free so goldens can pin it.
    MetricsNames,
    /// `stats` — per-verb counts and latency percentiles plus the
    /// per-stage timing table, human-shaped.
    Stats,
    /// `slowlog` — the bounded ring of recent slow query segments
    /// (requires `--slow-query-ms`).
    Slowlog,
}

/// The meaning of one session line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Line {
    /// Blank or `#` comment: no output.
    Skip,
    /// A control verb (`ping` / `quit` / `shutdown`).
    Control(Control),
    /// A REPL listing command.
    Repl(ReplCmd),
    /// A grammar query, parsed and ready for the engine.
    Query(QueryRequest),
    /// An unparseable line, with the message a front end should report.
    Bad(String),
}

/// Classifies one line the way the daemon's REPL always has: blank and
/// comment lines are skipped, control and listing verbs are recognized
/// first, everything else goes through the shared protocol grammar.
pub fn classify_line(line: &str) -> Line {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Line::Skip;
    }
    if let Some(c) = parse_control(trimmed) {
        return Line::Control(c);
    }
    match trimmed {
        "help" => return Line::Repl(ReplCmd::Help),
        "snapshots" => return Line::Repl(ReplCmd::Snapshots),
        "archive" => return Line::Repl(ReplCmd::Archive),
        "vantages" => return Line::Repl(ReplCmd::Vantages),
        "metrics" => return Line::Repl(ReplCmd::Metrics),
        "metrics names" => return Line::Repl(ReplCmd::MetricsNames),
        "stats" => return Line::Repl(ReplCmd::Stats),
        "slowlog" => return Line::Repl(ReplCmd::Slowlog),
        _ => {}
    }
    match parse(trimmed) {
        Ok(req) => Line::Query(req),
        // The Display of an unknown-query error lists the whole grammar.
        Err(e @ ParseError::UnknownQuery(_)) => Line::Bad(e.to_string()),
        Err(e) => Line::Bad(format!("{e} (type 'help' for the grammar)")),
    }
}

/// Serves one run of queries: executes them as a single engine batch,
/// hands the answers (in request order) to `render`, and books the run
/// in the per-verb `rpi_serve_*` families and the slowlog. A stdin line
/// is a run of one; a TCP read's REPL-free segment is a run of many.
///
/// Latency is execute *and* render, because that is what the client
/// observes between its last request byte and the first response byte;
/// every query of the run is attributed the run's wall time. A slow run
/// quotes `first_line`, its first query's text, in the slowlog.
pub fn run_queries<R>(
    engine: &QueryEngine,
    reqs: &[QueryRequest],
    first_line: &str,
    render: impl FnOnce(Vec<Result<Response, QueryError>>) -> R,
) -> R {
    if reqs.is_empty() {
        return render(Vec::new());
    }
    let t0 = Instant::now();
    let rendered = render(engine.execute_batch(reqs));
    let elapsed = t0.elapsed();
    let m = engine.metrics();
    // Booked once per verb, not once per query: a pipelined run of 128
    // lookups is a handful of atomic adds instead of 384.
    let mut per_verb = [0u32; VERBS.len()];
    for req in reqs {
        per_verb[req.query.verb_index()] += 1;
    }
    for (v, &n) in per_verb.iter().enumerate() {
        if n > 0 {
            m.serve_queries_total[v].add(u64::from(n));
            m.serve_query_seconds[v].record_n(elapsed, u64::from(n));
        }
    }
    if m.slow_threshold().is_some_and(|thr| elapsed >= thr) {
        m.push_slow(elapsed, reqs.len() as u64, first_line);
    }
    rendered
}

/// `123 B` / `1.2 KiB` / `3.4 MiB` — the size spelling every listing
/// shares (and the goldens pin).
pub fn fmt_bytes(bytes: u64) -> String {
    if bytes < 1024 {
        format!("{bytes} B")
    } else if bytes < 1024 * 1024 {
        format!("{:.1} KiB", bytes as f64 / 1024.0)
    } else {
        format!("{:.1} MiB", bytes as f64 / (1024.0 * 1024.0))
    }
}

/// The `tier: …` residency counters of a tier-attached engine (`None`
/// on a hydrated one) — the one rendering the `snapshots` listing and
/// the daemon's exit report share.
pub fn tier_line(engine: &QueryEngine) -> Option<String> {
    engine.tier_stats().map(|t| {
        format!(
            "tier: {}/{} hot (cap {}), {} attaches, {} hydrations, \
             {} evictions, {} cold hits",
            t.hot, t.snapshots, t.hot_cap, t.attaches, t.hydrations, t.evictions, t.cold_hits,
        )
    })
}

/// The `sec: …` line: the loaded ROA table and the engine-lifetime
/// ROV/detection counters (shared like [`tier_line`]).
pub fn sec_line(engine: &QueryEngine) -> String {
    let cache = engine.rov_cache_stats();
    let (rov, hijacks, leaks) = engine.sec_query_counts();
    format!(
        "sec: {} ROAs, rov cache {} hits / {} misses, \
         queries rov {rov} / hijacks {hijacks} / leaks {leaks}",
        engine.roa_table().len(),
        cache.hits,
        cache.misses,
    )
}

/// Renders a listing command exactly as the stdin REPL prints it (no
/// trailing newline; callers add their own framing).
pub fn repl_reply(engine: &QueryEngine, cmd: ReplCmd) -> String {
    match cmd {
        ReplCmd::Help => format!(
            "{Grammar}\nrepl: snapshots (list snapshots), vantages (list vantages), \
             archive (list on-disk segments), stats (per-verb latency percentiles), \
             metrics (Prometheus-style exposition; 'metrics names' for the schema), \
             slowlog (recent slow segments, needs --slow-query-ms), \
             ping, quit, shutdown (stop the whole server)"
        ),
        ReplCmd::Snapshots => {
            // A tier-attached engine lists residency instead of trie
            // sharing (cold snapshots have no hydrated tries to share,
            // and counting their vantages must not hydrate them).
            let tiered = engine.tier_stats().is_some();
            let mut lines: Vec<String> = engine
                .labels()
                .into_iter()
                .enumerate()
                .map(|(i, l)| {
                    let id = SnapshotId(i as u32);
                    let disk = match engine.segment_meta(id) {
                        Some(meta) => {
                            format!(", disk {} ({})", fmt_bytes(meta.bytes), meta.kind.name())
                        }
                        None => ", disk -".to_string(),
                    };
                    if tiered {
                        let residency = match engine.residency(id) {
                            Some(crate::tier::Residency::Hot) => "hot",
                            _ => "cold",
                        };
                        format!("{i}: {l} ({residency}{disk})")
                    } else {
                        let n = engine.vantages_in(id).len();
                        let sharing = match engine.sharing_with_prev(id) {
                            Some((shared, total)) if shared > 0 => {
                                format!(", {shared}/{total} trie nodes shared with prev")
                            }
                            _ => String::new(),
                        };
                        // Storage next to sharing: what the snapshot
                        // costs on disk when the engine lives in an
                        // archive.
                        format!("{i}: {l} ({n} vantages{sharing}{disk})")
                    }
                })
                .collect();
            lines.extend(tier_line(engine));
            lines.push(sec_line(engine));
            lines.join("\n")
        }
        ReplCmd::Archive => match engine.archive_info() {
            None => "no archive: engine built in memory (load one with --archive, write one with --save)".to_string(),
            Some(info) => {
                let mut lines = vec![format!(
                    "archive {} ({} segments, {} on disk)",
                    info.dir.display(),
                    1 + info.snapshots.len() + usize::from(info.roas.is_some()),
                    fmt_bytes(info.total_bytes() as u64),
                )];
                // Chain structure: each snapshot's replay distance from
                // the nearest keyframe (a self-contained full segment a
                // cold reader can attach to). Pre-keyframe archives have
                // no flagged segments and print no suffixes.
                let mut depths: Vec<Option<usize>> = Vec::with_capacity(info.snapshots.len());
                for meta in &info.snapshots {
                    let depth = if meta.keyframe {
                        Some(0)
                    } else {
                        depths.last().copied().flatten().map(|d| d + 1)
                    };
                    depths.push(depth);
                }
                let mut snap_idx = 0usize;
                let all = std::iter::once(&info.symbols)
                    .chain(&info.snapshots)
                    .chain(&info.roas);
                for meta in all {
                    let label = if meta.label.is_empty() {
                        String::new()
                    } else {
                        format!(" label {}", meta.label)
                    };
                    let chain = match meta.kind {
                        SegmentKind::Full | SegmentKind::Delta => {
                            let d = depths[snap_idx];
                            snap_idx += 1;
                            match d {
                                Some(0) => " [keyframe]".to_string(),
                                Some(d) => format!(" [chain {d}]"),
                                None => String::new(),
                            }
                        }
                        _ => String::new(),
                    };
                    lines.push(format!(
                        "  {}: {} {} {} crc 0x{:08x}{label}{chain}",
                        meta.index,
                        meta.file,
                        meta.kind.name(),
                        fmt_bytes(meta.bytes),
                        meta.crc32,
                    ));
                }
                let keyframes: Vec<String> = info
                    .snapshots
                    .iter()
                    .enumerate()
                    .filter(|(_, m)| m.keyframe)
                    .map(|(i, _)| i.to_string())
                    .collect();
                if !keyframes.is_empty() {
                    let longest = depths.iter().flatten().max().copied().unwrap_or(0);
                    lines.push(format!(
                        "  keyframes at snapshot {{{}}}; longest replay chain {longest}",
                        keyframes.join(", "),
                    ));
                }
                lines.join("\n")
            }
        },
        ReplCmd::Vantages => {
            let lines: Vec<String> = engine
                .vantages()
                .into_iter()
                .map(|(a, k)| {
                    let kind = match k {
                        VantageKind::LookingGlass => "looking-glass",
                        VantageKind::CollectorPeer => "collector-peer",
                    };
                    format!("{a} ({kind})")
                })
                .collect();
            lines.join("\n")
        }
        // Derived gauges (ROA count, cache ratio, tier residency, epoch
        // age) are synced from engine state at render time so every
        // front end scrapes the same freshness.
        ReplCmd::Metrics => {
            engine.sync_obs();
            // The registry renders newline-terminated; this reply's
            // framing is the caller's (same as every other listing).
            engine.metrics().registry().render().trim_end().to_string()
        }
        ReplCmd::MetricsNames => engine.metrics().registry().schema().trim_end().to_string(),
        ReplCmd::Stats => {
            engine.sync_obs();
            engine.metrics().render_stats()
        }
        ReplCmd::Slowlog => engine.metrics().render_slowlog(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_every_shape() {
        assert_eq!(classify_line("  "), Line::Skip);
        assert_eq!(classify_line("# comment"), Line::Skip);
        assert_eq!(classify_line("ping"), Line::Control(Control::Ping));
        assert_eq!(classify_line("exit"), Line::Control(Control::Quit));
        assert_eq!(classify_line("snapshots"), Line::Repl(ReplCmd::Snapshots));
        assert_eq!(classify_line("metrics"), Line::Repl(ReplCmd::Metrics));
        assert_eq!(
            classify_line("metrics names"),
            Line::Repl(ReplCmd::MetricsNames)
        );
        assert_eq!(classify_line("stats"), Line::Repl(ReplCmd::Stats));
        assert_eq!(classify_line("slowlog"), Line::Repl(ReplCmd::Slowlog));
        assert!(matches!(
            classify_line("route AS1 1.0.0.0/8"),
            Line::Query(_)
        ));
        assert!(matches!(classify_line("frobnicate AS1"), Line::Bad(_)));
    }
}
