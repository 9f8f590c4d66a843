//! The traced run: per-layer numbers for one workload.
//!
//! It replays the workload's own generated requests **in-process**,
//! single-threaded, with a span around each call into a layer's public
//! function (`proto.frame` → `proto.parse` → `plan.execute_batch` or
//! `engine.execute` → `proto.render`, one `request` span per window),
//! and runs the write side of the workload's world through the same
//! treatment (`sim.*`, `ingest.*`, `archive.*`, `tier.attach`,
//! `live.*`). Fixed request counts, not a time budget, so counts repeat
//! exactly. A short untraced pass against the real daemon supplies the
//! CPU per query that `serve.residual_us` is subtracted from. Spans
//! inside the daemon are a later change.
//!
//! Two kinds of number come out, and the README marks which is which.
//! *Replay* metrics (`proto.*`, `engine.replay_ns`, `engine.execute_allocs`,
//! `sec.rov_*` of the script, `serve.*`, `client.*`, `trace.*`) are the
//! workload's own requests. *Probe* metrics (`engine.<verb>_ns`, `plan.*`,
//! `tier.*`, `archive.*`, `sim.step_ms`, `sim.delta_ms`, `ingest.*`,
//! `live.*`, `sec.validate_ns`, `sec.rov_hit_ns`, `sec.rov_miss_ns`) time
//! one layer on a fixed procedure that does not depend on the workload's
//! traffic. The benchmark's contract has every traced run print every
//! per-layer metric, and rejects a time that reads the same on every
//! run, so each probe is measured in each traced run; read a probe under
//! the workload the README's table names for it.
//!
//! The layer a metric is named after is the module it is measured
//! around; which end-to-end metric each should move is tabulated in the
//! README.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

use bgp_sim::churn::simulate_series;
use bgp_sim::stream::StreamWriter;
use bgp_sim::{output_delta, SnapshotSeries};
use bgp_types::Ipv4Prefix;
use net_topology::InternetSize;
use rpi_core::Experiment;
use rpi_query::{
    drain_stream, parse, render_response, Frame, LineFramer, LiveHandle, LiveOptions, Query,
    QueryEngine, QueryRequest, Response, RovAnswer, SaveOptions,
};
use rpi_sec::{RovCache, DEFAULT_ROV_CACHE_CAP};
use rpi_store::SegmentKind;

use crate::calibrate::Yardstick;
use crate::client::Window;
use crate::daemon::cpu_seconds_of;
use crate::fixture::{
    self, churn, Fixture, Keys, Kind, KEYFRAME_EVERY, SHARDS, STREAM_STEPS, WORLD_SEED,
};
use crate::rng::Rng;
use crate::run::{drive, launch, scripts, Config, Outcome, Scratch};
use crate::stats::{median, percentile};
use crate::trace::{Span, Tracer};
use crate::workload::{history_cycle, point_line, tier_cycle, tier_window, Workload};

/// The daemon's per-line cap (`ServeConfig::default().max_line_len`).
const MAX_LINE: usize = 16 * 1024;
/// Requests of the tier probe's `tier_mixed`-pattern replay.
const TIER_PROBE_REQUESTS: usize = 1_024;
/// Frames the live probe encodes and drains.
const LIVE_PROBE_FRAMES: usize = 12;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// What the replay of one window list cost, per stage.
#[derive(Debug, Default, Clone, Copy)]
struct Replay {
    lines: u64,
    wall_ns: u64,
    bytes_in: u64,
    bytes_out: u64,
}

/// Replays `windows` against `engine` the way a connection would: frame
/// the window's bytes, parse every line, execute (a lone query directly,
/// several as one batch), render — then compares the rendered bytes
/// with the expected ones.
fn replay(engine: &QueryEngine, windows: &[Window], tracer: &mut Tracer) -> Result<Replay, String> {
    let mut framer = LineFramer::new(MAX_LINE);
    let mut rendered: Vec<u8> = Vec::new();
    let mut totals = Replay::default();
    let t0 = Instant::now();
    for (id, window) in windows.iter().enumerate() {
        let id = id as u32;
        let request = tracer.enter("request", id);
        let frames = tracer.span("proto.frame", id, || framer.push(&window.request));
        let reqs = tracer.span("proto.parse", id, || {
            frames
                .iter()
                .map(|f| match f {
                    Frame::Line { text, .. } => parse(text).map_err(|e| e.to_string()),
                    Frame::Oversized { .. } => Err("generated line over the cap".to_string()),
                })
                .collect::<Result<Vec<QueryRequest>, String>>()
        })?;
        let answers = if reqs.len() > 1 {
            tracer.span("plan.execute_batch", id, || engine.execute_batch(&reqs))
        } else {
            tracer.span("engine.execute", id, || {
                reqs.iter().map(|r| engine.execute(r)).collect()
            })
        };
        rendered.clear();
        tracer.span("proto.render", id, || {
            for (req, answer) in reqs.iter().zip(&answers) {
                match answer {
                    Ok(resp) => rendered.extend_from_slice(render_response(req, resp).as_bytes()),
                    Err(e) => rendered.extend_from_slice(format!("error: {e}").as_bytes()),
                }
                rendered.push(b'\n');
            }
        });
        tracer.exit(request);
        if rendered != window.expected {
            return Err(format!(
                "in-process replay of window {id} does not render the expected bytes"
            ));
        }
        totals.lines += window.ops as u64;
        totals.bytes_in += window.request.len() as u64;
        totals.bytes_out += rendered.len() as u64;
    }
    totals.wall_ns = t0.elapsed().as_nanos() as u64;
    Ok(totals)
}

/// The world the write-side, tier and live probes run on: a Small world
/// under churn. Where the workload's fixture has such a series it is that
/// one (`fx_series`: 24 states, `fx_stream`: 8). The `point_*` fixture is
/// a single Paper snapshot, and one churn step of the Paper world costs
/// seconds while telling nothing about point traffic, so for them the
/// probes get the 8-step Small series of `fx_stream`, simulated here.
struct ProbeWorld<'a> {
    exp: &'a Experiment,
    series: &'a SnapshotSeries,
    keys: &'a Keys,
}

fn small_probe_world(tracer: &mut Tracer) -> (Experiment, SnapshotSeries, Keys) {
    let exp = tracer.span("sim.probe_world", 0, || {
        Experiment::standard(InternetSize::Small, WORLD_SEED)
    });
    let series = tracer.span("sim.series", 0, || {
        simulate_series(&exp.graph, &exp.truth, &exp.spec, &churn(STREAM_STEPS))
    });
    let keys = Keys::of(series.snapshots.last().expect("a series has snapshots"));
    (exp, series, keys)
}

/// Everything the write side of the probe world measured.
struct WriteSide {
    metrics: Vec<(&'static str, f64)>,
    /// The probe world's archive (keyframe every 8), for the tier probe.
    archive: std::path::PathBuf,
    snapshots: usize,
}

/// `sim` → `ingest` → `archive` → `live`, each stage once over the probe
/// world with a span around it.
fn write_side(probe: &ProbeWorld, dir: &Path, tracer: &mut Tracer) -> Result<WriteSide, String> {
    let world = probe.series;
    let oracle = &probe.exp.inferred_graph;
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let total = |tracer: &Tracer, name: &str| tracer.totals().get(name).map_or(0, |t| t.total_ns);

    // The workload's own world (Paper or Small), as its fixture built it.
    m.push(("sim.world_s", total(tracer, "sim.world") as f64 / 1e9));
    m.push((
        "sim.step_ms",
        ms(total(tracer, "sim.series")) / world.snapshots.len() as f64,
    ));
    let pairs = world.snapshots.len().saturating_sub(1).min(4);
    for (i, w) in world.snapshots.windows(2).take(pairs).enumerate() {
        tracer.span("sim.delta", i as u32, || {
            std::hint::black_box(output_delta(&w[0], &w[1]))
        });
    }
    m.push((
        "sim.delta_ms",
        ms(total(tracer, "sim.delta")) / pairs.max(1) as f64,
    ));

    // The full re-index of one snapshot.
    let first = SnapshotSeries {
        labels: world.labels[..1].to_vec(),
        snapshots: world.snapshots[..1].to_vec(),
    };
    let before = total(tracer, "ingest.full");
    tracer.span("ingest.full", 1, || {
        QueryEngine::new(SHARDS).ingest_series(&first, oracle)
    });
    m.push((
        "ingest.full_ms_per_snapshot",
        ms(total(tracer, "ingest.full") - before),
    ));

    let snapshots = world.snapshots.len();
    let mut engine = QueryEngine::new(SHARDS);
    let before = total(tracer, "ingest.incremental");
    tracer.span("ingest.incremental", 1, || {
        engine.ingest_series_incremental(world, oracle)
    });
    m.push((
        "ingest.incremental_ms_per_snapshot",
        ms(total(tracer, "ingest.incremental") - before) / snapshots as f64,
    ));
    m.push((
        "ingest.shared_node_ratio",
        engine.sharing_stats().shared_ratio(),
    ));

    let archive = dir.join("probe-archive");
    let before = total(tracer, "archive.save");
    let manifest = tracer
        .span("archive.save", 1, || {
            engine.save_archive_with(
                &archive,
                false,
                SaveOptions {
                    keyframe_every: Some(KEYFRAME_EVERY),
                },
            )
        })
        .map_err(|e| format!("saving the probe archive: {e}"))?;
    m.push((
        "archive.save_ms_per_snapshot",
        ms(total(tracer, "archive.save") - before) / snapshots as f64,
    ));
    tracer
        .span("archive.load", 1, || QueryEngine::load_archive(&archive))
        .map_err(|e| format!("loading the probe archive: {e}"))?;
    m.push((
        "archive.load_ms_per_snapshot",
        ms(total(tracer, "archive.load")) / snapshots as f64,
    ));
    let count = |kind| manifest.segments.iter().filter(|s| s.kind == kind).count() as f64;
    m.push(("archive.disk_bytes", manifest.total_bytes() as f64));
    m.push(("archive.full_segments", count(SegmentKind::Full)));
    m.push(("archive.delta_segments", count(SegmentKind::Delta)));

    // live: encode the first frames of the probe world, then drain them
    // unpaced through the same publication path `--follow` uses. Frame
    // boundaries are only visible from the publish callback, so the
    // `live.publish` spans are recorded from its timestamps.
    let frames = world.snapshots.len().min(LIVE_PROBE_FRAMES);
    let (mut writer, mut bytes) = StreamWriter::open(oracle);
    let mut frame_bytes = Vec::with_capacity(frames);
    tracer.span("live.encode", 1, || {
        for (label, state) in world.labels.iter().zip(&world.snapshots).take(frames) {
            let frame = writer.frame(label, state, None);
            frame_bytes.push(frame.len() as f64);
            bytes.extend_from_slice(&frame);
        }
    });
    bytes.extend_from_slice(&writer.end());
    let stream = dir.join("probe.rplive");
    std::fs::write(&stream, bytes).map_err(|e| format!("probe stream: {e}"))?;
    let handle = LiveHandle::new(QueryEngine::new(SHARDS));
    let drain = tracer.enter("live.drain", 1);
    let mut marks = vec![tracer.now_ns()];
    let origin = Instant::now();
    let base = marks[0];
    let report = drain_stream(
        &stream,
        handle,
        &dir.join("probe-spill"),
        LiveOptions {
            window: 4,
            keyframe_every: 4,
        },
        |_, _| marks.push(base + origin.elapsed().as_nanos() as u64),
    )
    .map_err(|e| format!("draining the probe stream: {e}"))?;
    let drain_idx = tracer.spans().len() as u32 - 1;
    tracer.exit(drain);
    if report.snapshots as usize != frames {
        return Err(format!(
            "live probe published {} of {frames} frames",
            report.snapshots
        ));
    }
    let mut publish_ms = Vec::with_capacity(frames);
    for (i, w) in marks.windows(2).enumerate() {
        tracer.push_raw(Span {
            name: "live.publish",
            start_ns: w[0],
            end_ns: w[1],
            parent: drain_idx,
            request_id: i as u32,
            allocs: 0,
        });
        publish_ms.push(ms(w[1] - w[0]));
    }
    // The first frame carries the whole world; publications proper are
    // the deltas after it (the median sees to that when there are any).
    m.push(("live.publish_ms", median(&publish_ms)));
    m.push((
        "live.frames_per_s",
        frames as f64 / (total(tracer, "live.drain") as f64 / 1e9),
    ));
    m.push(("live.frame_bytes", median(&frame_bytes)));

    Ok(WriteSide {
        metrics: m,
        archive,
        snapshots,
    })
}

/// Times `execute` one request at a time, per verb: `engine.<verb>_ns`
/// for all 13 verbs, on the hydrated reference engine.
fn verb_probe(fx: &Fixture, seed: u64) -> Result<Vec<(String, f64)>, String> {
    let mut rng = Rng::new(seed, "verb-probe");
    let mut lines: Vec<String> = (0..8_192)
        .map(|_| point_line(&fx.keys, &mut rng, ""))
        .collect();
    let snapshots = fx.engine.snapshot_count();
    lines.extend(history_cycle(&fx.keys, snapshots, &mut rng));
    let mut by_verb: BTreeMap<&'static str, Vec<QueryRequest>> = BTreeMap::new();
    for line in &lines {
        let req = parse(line).map_err(|e| format!("probe line '{line}': {e}"))?;
        by_verb.entry(req.query.verb()).or_default().push(req);
    }
    let mut out = Vec::new();
    for (verb, reqs) in by_verb {
        let t0 = Instant::now();
        for req in &reqs {
            std::hint::black_box(
                fx.engine
                    .execute(req)
                    .map_err(|e| format!("probe '{verb}': {e}"))?,
            );
        }
        out.push((
            format!("engine.{}_ns", verb.replace('-', "_")),
            t0.elapsed().as_nanos() as f64 / reqs.len() as f64,
        ));
    }
    if out.len() != 13 {
        return Err(format!("verb probe covered {} of 13 verbs", out.len()));
    }
    Ok(out)
}

/// `execute_batch` at the workloads' window depths against the same
/// point requests executed singly.
fn plan_probe(fx: &Fixture, seed: u64) -> Result<Vec<(&'static str, f64)>, String> {
    let mut rng = Rng::new(seed, "plan-probe");
    let reqs: Vec<QueryRequest> = (0..4_096)
        .map(|_| parse(&point_line(&fx.keys, &mut rng, "")).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let t0 = Instant::now();
    for req in &reqs {
        let _ = std::hint::black_box(fx.engine.execute(req));
    }
    let single_ns = t0.elapsed().as_nanos() as f64;
    let mut out = Vec::new();
    for (name, depth) in [
        ("plan.batch128_ns_per_query", 128),
        ("plan.batch16_ns_per_query", 16),
        ("plan.batch4_ns_per_query", 4),
    ] {
        let t0 = Instant::now();
        for chunk in reqs.chunks(depth) {
            std::hint::black_box(fx.engine.execute_batch(chunk));
        }
        let batch_ns = t0.elapsed().as_nanos() as f64;
        out.push((name, batch_ns / reqs.len() as f64));
        if depth == 128 {
            // Per batch: what going through the planner costs (or, with
            // cores to fan out over, saves) against the same requests
            // executed one by one.
            out.push((
                "plan.batch_overhead_us",
                (batch_ns - single_ns) / 1e3 / (reqs.len() / depth) as f64,
            ));
        }
    }
    Ok(out)
}

/// The cold tier over the probe archive: attach, cold and hot point
/// queries, hydration, and the residency counters over a
/// `tier_mixed`-pattern replay. Single-threaded, so the counters repeat
/// exactly.
fn tier_probe(
    keys: &Keys,
    write: &WriteSide,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out = Vec::new();
    let tiered = tracer
        .span("tier.attach", 1, || {
            QueryEngine::load_archive_tiered(&write.archive, 4)
        })
        .map_err(|e| format!("attaching the probe archive: {e}"))?;
    out.push((
        "tier.attach_us_per_snapshot",
        tracer.totals()["tier.attach"].total_ns as f64 / 1e3 / write.snapshots as f64,
    ));
    let stats = || {
        tiered
            .tier_stats()
            .ok_or("the probe archive did not attach tiered")
    };
    let mut rng = Rng::new(seed, "tier-probe");
    let timed = |lines: &[String]| -> Result<f64, String> {
        let reqs: Vec<QueryRequest> = lines
            .iter()
            .map(|l| parse(l).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let t0 = Instant::now();
        for req in &reqs {
            std::hint::black_box(tiered.execute(req).map_err(|e| e.to_string())?);
        }
        Ok(t0.elapsed().as_nanos() as f64)
    };
    let cold_capable = |rng: &mut Rng, id: usize| {
        let (v, p) = *rng.pick(&keys.pairs);
        let verb = ["route", "resolve", "rov"][rng.below(3)];
        format!("{verb} {v} {p} @{id}")
    };

    // Cold: keyframe snapshots answer off the mapping.
    let keyframes: Vec<usize> = (0..write.snapshots).step_by(KEYFRAME_EVERY).collect();
    let cold: Vec<String> = (0..1_024)
        .map(|_| {
            let id = *rng.pick(&keyframes);
            cold_capable(&mut rng, id)
        })
        .collect();
    let before = stats()?;
    out.push(("tier.cold_query_ns", timed(&cold)? / cold.len() as f64));
    if stats()?.hydrations != before.hydrations {
        return Err("cold-capable verbs on keyframes hydrated a snapshot".into());
    }

    // Hydrate: the first `sa` on a cold snapshot replays its chain.
    let last = write.snapshots - 1;
    let before = stats()?;
    let (v, p) = *rng.pick(&keys.pairs);
    let hydrate_ns = timed(&[format!("sa {v} {p} @{last}")])?;
    let hydrated = stats()?.hydrations - before.hydrations;
    out.push(("tier.hydrate_ms", hydrate_ns / 1e6 / hydrated.max(1) as f64));

    // Hot: the same verbs on the snapshot that is now resident.
    let hot: Vec<String> = (0..1_024).map(|_| cold_capable(&mut rng, last)).collect();
    out.push(("tier.hot_query_ns", timed(&hot)? / hot.len() as f64));

    // Residency under the tier_mixed pattern.
    let before = stats()?;
    let mut without_hydration = 0u64;
    let mut requests = 0u64;
    let ids: Vec<usize> = std::iter::repeat_with(|| tier_cycle(write.snapshots, &mut rng))
        .flatten()
        .take(TIER_PROBE_REQUESTS / 16)
        .collect();
    for id in ids {
        for line in tier_window(keys, id, &mut rng, 16) {
            let seen = stats()?.hydrations;
            timed(std::slice::from_ref(&line))?;
            without_hydration += (stats()?.hydrations == seen) as u64;
            requests += 1;
        }
    }
    let after = stats()?;
    out.push((
        "tier.hydrations",
        (after.hydrations - before.hydrations) as f64,
    ));
    out.push((
        "tier.evictions",
        (after.evictions - before.evictions) as f64,
    ));
    out.push((
        "tier.cold_hits",
        (after.cold_hits - before.cold_hits) as f64,
    ));
    out.push((
        "tier.nohydrate_ratio",
        without_hydration as f64 / requests as f64,
    ));
    Ok(out)
}

/// The `sec` layer beside the workload: which (prefix, origin) verdicts
/// the scripts' `rov` lines ask the daemon's ROV cache for, against the
/// cache's capacity, and what a lookup costs on either side of it.
///
/// The cache is keyed by (stored prefix, the origin of the vantage's best
/// route to it), so no wire traffic can ask it for more keys than the
/// world has (prefix, origin) pairs — about 5k in the Paper world against
/// a hot generation of 8,192 entries. Every workload therefore runs with
/// the cache hot (`sec.rov_cache_fill` below 1, `sec.rov_cache_hit_ratio`
/// at 1 once warm) and **no end-to-end workload covers a miss**. Both
/// sides are timed here instead, on a private cache of the daemon's
/// capacity: a key set that fits, and four capacities' worth of distinct
/// keys swept in a cycle, which the two-generation LRU can never hold.
fn rov_probe(fx: &Fixture, scripts: &[Vec<String>]) -> Result<Vec<(&'static str, f64)>, String> {
    let mut asked: BTreeSet<(Ipv4Prefix, bgp_types::Asn)> = BTreeSet::new();
    for line in scripts.iter().flatten().filter(|l| l.starts_with("rov ")) {
        let req = parse(line).map_err(|e| format!("script line '{line}': {e}"))?;
        if let (Query::Rov { prefix, .. }, Ok(Response::Rov(RovAnswer::Validated { origin, .. }))) =
            (&req.query, fx.engine.execute(&req))
        {
            asked.insert((*prefix, origin));
        }
    }
    let mut out = vec![
        ("sec.rov_distinct_keys", asked.len() as f64),
        (
            "sec.rov_cache_fill",
            asked.len() as f64 / DEFAULT_ROV_CACHE_CAP as f64,
        ),
    ];

    let table = fx.engine.roa_table();
    let origins = &fx.keys.origins;
    if origins.is_empty() {
        return Err("the fixture originates no prefix".into());
    }
    let rounds = 20_000usize.div_ceil(origins.len());
    let t0 = Instant::now();
    for _ in 0..rounds {
        for &(prefix, origin) in origins {
            std::hint::black_box(table.validate(prefix, origin));
        }
    }
    out.push((
        "sec.validate_ns",
        t0.elapsed().as_nanos() as f64 / (rounds * origins.len()) as f64,
    ));

    let cache = RovCache::default();
    let fits = &origins[..origins.len().min(DEFAULT_ROV_CACHE_CAP / 2)];
    for &(prefix, origin) in fits {
        cache.validate(table, prefix, origin);
    }
    let warm = cache.stats();
    let rounds = 40_000usize.div_ceil(fits.len());
    let t0 = Instant::now();
    for _ in 0..rounds {
        for &(prefix, origin) in fits {
            std::hint::black_box(cache.validate(table, prefix, origin));
        }
    }
    out.push((
        "sec.rov_hit_ns",
        t0.elapsed().as_nanos() as f64 / (rounds * fits.len()) as f64,
    ));
    if cache.stats().misses != warm.misses {
        return Err("the ROV hit probe missed a cache it had just filled".into());
    }

    // Distinct keys without end: the same prefixes under origins nobody
    // announces. The table walk is the one a real lookup makes.
    let sweep: Vec<(Ipv4Prefix, bgp_types::Asn)> = (0..4 * DEFAULT_ROV_CACHE_CAP)
        .map(|i| {
            let (prefix, origin) = origins[i % origins.len()];
            let shift = 1 + (i / origins.len()) as u32;
            (prefix, bgp_types::Asn(origin.0.wrapping_add(shift << 20)))
        })
        .collect();
    let cache = RovCache::default();
    for &(prefix, origin) in &sweep {
        cache.validate(table, prefix, origin);
    }
    let filled = cache.stats();
    let t0 = Instant::now();
    for &(prefix, origin) in &sweep {
        std::hint::black_box(cache.validate(table, prefix, origin));
    }
    out.push((
        "sec.rov_miss_ns",
        t0.elapsed().as_nanos() as f64 / sweep.len() as f64,
    ));
    if cache.stats().hits != filled.hits {
        return Err("the ROV miss probe hit: its sweep fits the cache".into());
    }
    Ok(out)
}

/// Wall time the untraced replays around the traced one are repeated for
/// (half before it, half after): long enough for the harness's own CPU
/// clock (10 ms ticks) to resolve them, and for the short scripts to give
/// a median pass.
const PLAIN_BLOCK_S: f64 = 1.0;

/// Runs `workload`'s traced pass and reports every per-layer metric.
pub fn traced(cfg: &Config, workload: Workload) -> Result<Outcome, String> {
    let scratch = Scratch::new(cfg, workload, "traced");
    let mut tracer = Tracer::new(1 << 17);
    // The end-to-end pass the residual is subtracted from is untraced
    // and short: a quarter of the timed window is plenty for a mean and,
    // on the point workloads, thousands of windows. The stream fixture is
    // sized for it — the world the reader is verified against is the one
    // the last published frame leaves.
    let pass = Config {
        seconds: cfg.seconds / 4.0,
        ..cfg.clone()
    };
    let building = Instant::now();
    let fx = fixture::build(
        workload.fixture(pass.warmup_s, pass.seconds),
        cfg.seed,
        &scratch.path().join("fx"),
        &mut tracer,
    )?;
    let fixture_build_s = building.elapsed().as_secs_f64();
    let mut out = Outcome::new();

    // The write side, on the probe world.
    let built;
    let probe = match &fx.series {
        Some(series) => ProbeWorld {
            exp: &fx.exp,
            series,
            keys: &fx.keys,
        },
        None => {
            built = small_probe_world(&mut tracer);
            ProbeWorld {
                exp: &built.0,
                series: &built.1,
                keys: &built.2,
            }
        }
    };
    let write = write_side(&probe, scratch.path(), &mut tracer)?;

    let scripts = scripts(workload, &fx, cfg.seed)?;
    let yardstick = Yardstick::new();
    let launched = launch(cfg, workload, &fx, 1, &yardstick)?;
    let e2e = drive(&pass, workload, &fx, &launched.daemon, &scripts, &yardstick)?;
    let rss_peak_mib = launched.daemon.status()?.hwm_mib;
    launched.daemon.shutdown()?;
    out.attempted += e2e.attempted;
    out.failed += e2e.failed;
    out.notes.extend(e2e.errors.iter().cloned());
    let reader_us: Vec<f64> = e2e.reader().map(|s| s.latency_us).collect();
    if reader_us.is_empty() {
        return Err(format!(
            "{}: the end-to-end pass completed no window ({})",
            workload.name(),
            out.notes.join("; ")
        ));
    }

    // The engine the daemon builds from the same files (the stream's
    // reference engine already is the final world).
    let loaded = match (fx.kind, workload) {
        (Kind::Stream { .. }, _) => None,
        (_, Workload::TierMixed) => Some(QueryEngine::load_archive_tiered(&fx.dir, 4)),
        _ => Some(QueryEngine::load_archive(&fx.dir)),
    }
    .transpose()
    .map_err(|e| format!("loading the fixture in-process: {e}"))?;
    let serving = loaded.as_ref().unwrap_or(&fx.engine);

    // The replay: connection 0's script, the same bytes the daemon was
    // sent. First untraced and unrecorded (it faults the archive in, fills
    // the caches and, on the tiered engine, leaves the hot set as a pass
    // over this script leaves it); then untraced passes for half of
    // PLAIN_BLOCK_S, the traced pass, and untraced passes for the other
    // half — every pass starting from the state the traced one starts
    // from, so they all do the same work. The tracing overhead is the
    // traced pass against the median untraced one around it: one pass
    // against the box's pass-to-pass noise, so a few per cent either side
    // of zero mean "none measurable".
    let script = &scripts[0][..workload.replay_windows()];
    replay(serving, script, &mut Tracer::disabled())?;
    let mut plain_ns = Vec::new();
    let mut plain_cpu_s = 0.0;
    let mut plain_block = |passes: &mut Vec<f64>| -> Result<(), String> {
        let cpu_before = cpu_seconds_of("self")?;
        let block = Instant::now();
        let first = passes.len();
        while passes.len() == first || block.elapsed().as_secs_f64() < PLAIN_BLOCK_S / 2.0 {
            passes.push(replay(serving, script, &mut Tracer::disabled())?.wall_ns as f64);
        }
        plain_cpu_s += cpu_seconds_of("self")? - cpu_before;
        Ok(())
    };
    let slow_before = yardstick.slowdown();
    plain_block(&mut plain_ns)?;
    let cache_before = serving.rov_cache_stats();
    let traced = replay(serving, script, &mut tracer)?;
    let cache_after = serving.rov_cache_stats();
    plain_block(&mut plain_ns)?;
    let layers_slowdown = (slow_before + yardstick.slowdown()) / 2.0;
    let plain_lines = plain_ns.len() as u64 * traced.lines;
    let layers_cpu_us_per_query = plain_cpu_s * 1e6 / plain_lines as f64;
    let plain_ns = median(&plain_ns);
    out.attempted += 2 * traced.lines + plain_lines;

    let totals = tracer.totals();
    let per_line = |ns: u64| ns as f64 / traced.lines as f64;
    let stage = |name: &str| totals.get(name).copied().unwrap_or_default();
    let execute_ns = stage("plan.execute_batch").self_ns + stage("engine.execute").self_ns;
    let execute_allocs = stage("plan.execute_batch").allocs + stage("engine.execute").allocs;
    out.push("proto.frame_ns", per_line(stage("proto.frame").self_ns));
    out.push("proto.parse_ns", per_line(stage("proto.parse").self_ns));
    out.push("proto.render_ns", per_line(stage("proto.render").self_ns));
    out.push("proto.parse_allocs", per_line(stage("proto.parse").allocs));
    out.push(
        "proto.render_allocs",
        per_line(stage("proto.render").allocs),
    );
    out.push("proto.bytes_in_per_query", per_line(traced.bytes_in));
    out.push("proto.bytes_out_per_query", per_line(traced.bytes_out));
    out.push("engine.replay_ns", per_line(execute_ns));
    out.push("engine.execute_allocs", per_line(execute_allocs));
    for (name, value) in verb_probe(&fx, cfg.seed)? {
        out.push(&name, value);
    }
    for (name, value) in plan_probe(&fx, cfg.seed)? {
        out.push(name, value);
    }
    for (name, value) in tier_probe(probe.keys, &write, cfg.seed, &mut tracer)? {
        out.push(name, value);
    }
    for (name, value) in write.metrics {
        out.push(name, value);
    }

    // sec: what the scripts ask of the ROV cache against its capacity,
    // how it fared on the replay, and a lookup on either side of it.
    let lines: Vec<Vec<String>> = (0..workload.conns())
        .map(|conn| workload.script(&fx.keys, fx.snapshots, cfg.seed, conn))
        .collect();
    for (name, value) in rov_probe(&fx, &lines)? {
        out.push(name, value);
    }
    let hits = cache_after.hits - cache_before.hits;
    let lookups = hits + cache_after.misses - cache_before.misses;
    out.push(
        "sec.rov_cache_hit_ratio",
        hits as f64 / lookups.max(1) as f64,
    );

    // serve, by subtraction, CPU against CPU: what the daemon burns per
    // query beyond what the same requests cost the replayed layers
    // in-process — sockets, the event loop, the connection glue. (Wall
    // time would not do: the daemon's planner and the two connections
    // overlap.) The two sides are read seconds apart on a box whose speed
    // drifts, so each is put in reference time by the yardstick read
    // around it before they are subtracted. On `live_ingest` the daemon's
    // CPU includes the writer.
    let daemon_cpu_us_per_query =
        e2e.cpu_s() * 1e6 / e2e.responses().max(1) as f64 / e2e.slowdown();
    let layers_cpu_us_per_query = layers_cpu_us_per_query / layers_slowdown;
    let residual_us = daemon_cpu_us_per_query - layers_cpu_us_per_query;
    out.push("serve.residual_us", residual_us);
    out.push("serve.rss_peak_mib", rss_peak_mib);
    out.push("serve.threads_peak", e2e.threads_peak as f64);
    out.push(
        "serve.ctx_switches_per_query",
        e2e.ctx_switches as f64 / e2e.responses().max(1) as f64,
    );
    out.push("client.p99_us", percentile(&reader_us, 99.0));
    out.push("client.windows", reader_us.len() as f64);
    out.push("client.generator_lag_us", e2e.generator_lag_us);
    out.push(
        "trace.overhead_pct",
        100.0 * (traced.wall_ns as f64 - plain_ns) / plain_ns,
    );
    out.push("trace.spans", tracer.spans().len() as f64);
    out.push("trace.requests", traced.lines as f64);
    // Per-layer numbers are readings as taken; this is the yardstick
    // (as read around the untraced replays) to scale them by when two
    // traced runs are set side by side.
    out.push("machine.slowdown", layers_slowdown);
    // What `--snapshots N --incremental --save` users pay: simulate +
    // ingest + save, the sum of the fixture's stage spans.
    out.push("fixture.build_s", fixture_build_s);

    // The two sides of the subtraction are the same requests, so the
    // daemon cannot have spent less on them than the layers alone — up to
    // the noise of two readings taken seconds apart, which is all the
    // residual is where the layers are nearly the whole cost
    // (`history_scan`). Beyond a quarter of the daemon's figure the two
    // sides did not do the same work: a harness fault. `tier_mixed` is
    // exempt because there they really do not: what a request costs
    // depends on the hot set it finds, the daemon cycles through all 480
    // windows from a cold start while the replay repeats the first 64
    // from wherever the last pass left the hot set, and the residual
    // (−15 % to −40 % of the daemon's figure) measures that difference.
    let residual_ok =
        workload == Workload::TierMixed || residual_us >= -0.25 * daemon_cpu_us_per_query;
    if !residual_ok {
        out.notes.push(format!(
            "serve.residual_us is negative beyond drift: the daemon spent \
             {daemon_cpu_us_per_query:.3} us of CPU per query, the replayed layers \
             {layers_cpu_us_per_query:.3} us"
        ));
    }
    out.correct = out.failed == 0 && e2e.errors.is_empty() && residual_ok;

    // Traces outlive the scratch directory: benchmark/out/trace-<workload>.json.
    let trace_file = cfg
        .scratch
        .parent()
        .unwrap_or(&cfg.scratch)
        .join(format!("trace-{}.json", workload.name()));
    std::fs::write(&trace_file, tracer.to_json())
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    out.notes.push(format!(
        "trace written to {} ({} spans, {} replayed requests)",
        trace_file.display(),
        tracer.spans().len(),
        traced.lines
    ));
    out.attempted = out.attempted.max(1);
    Ok(out)
}
