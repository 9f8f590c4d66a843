//! Fixtures: the worlds the daemon serves, built by the harness on
//! every invocation (never cached across commits) and handed to the
//! daemon only as files.
//!
//! The simulated world is the same on every run ([`WORLD_SEED`]); what
//! `--seed` draws is everything asked *of* it — the request streams and
//! the ROA table. Two ~300-AS worlds from different seeds differ by a
//! factor of two in SA prefixes and history-scan cost, so a benchmark
//! whose world moved with the seed could not tell a regression from a
//! re-roll of the topology.
//!
//! * `fx_paper` — the Paper world (~1.1k ASes, ~70 vantages, ~300k
//!   vantage×prefix routes) as a one-snapshot archive.
//! * `fx_series` — the Small world under a 24-step daily churn series,
//!   ingested incrementally and saved with a keyframe every 8 snapshots.
//! * `fx_stream` — the Small world under 8 simulated steps, played
//!   forward then backward (ping-pong, unique labels) as `RPLIVE01`
//!   frames, so any number of publications costs 8 simulated steps.
//!
//! Every builder also keeps the hydrated in-process [`QueryEngine`] that
//! expected responses are rendered from.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use bgp_sim::churn::simulate_series;
use bgp_sim::stream::StreamWriter;
use bgp_sim::{ChurnConfig, SimOutput, SnapshotSeries};
use bgp_types::{Asn, Ipv4Prefix};
use net_topology::InternetSize;
use rpi_core::Experiment;
use rpi_query::{QueryEngine, SaveOptions};
use rpi_sec::{Roa, RoaTable};

use crate::rng::Rng;
use crate::trace::Tracer;

/// Seed of every simulated world and churn series (the daemon's own
/// default `--seed`).
pub const WORLD_SEED: u64 = 2003;
/// Shards per vantage table — the daemon's default, which archives
/// record and `--follow` daemons start with.
pub const SHARDS: usize = 8;
/// Snapshots in `fx_series`.
pub const SERIES_STEPS: usize = 24;
/// Keyframe cadence of the `fx_series` archive: three keyframes, seven
/// delta segments behind each.
pub const KEYFRAME_EVERY: usize = 8;
/// Simulated steps behind `fx_stream`.
pub const STREAM_STEPS: usize = 8;
/// File name of the frame stream inside the fixture directory.
pub const STREAM_FILE: &str = "stream.rplive";
/// File name of the ROA table handed to `--follow` daemons.
pub const ROA_FILE: &str = "roas.txt";

/// Which fixture to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `fx_paper`
    Paper,
    /// `fx_series`
    Series,
    /// `fx_stream` with this many frames.
    Stream {
        /// Frames to encode (warm-up + timed).
        frames: usize,
    },
}

/// What the request generators draw from: everything a query can name,
/// in a deterministic order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Keys {
    /// Every (vantage, prefix) with a best route in the reference
    /// snapshot, ascending.
    pub pairs: Vec<(Asn, Ipv4Prefix)>,
    /// The vantages, ascending.
    pub vantages: Vec<Asn>,
    /// Adjacent AS pairs seen on collector paths, ascending.
    pub hops: Vec<(Asn, Asn)>,
    /// Every AS on a collector path, ascending.
    pub asns: Vec<Asn>,
    /// One origin per originated prefix, ascending by prefix.
    pub origins: Vec<(Ipv4Prefix, Asn)>,
}

impl Keys {
    /// Extracts the keys of one simulated snapshot.
    pub fn of(out: &SimOutput) -> Keys {
        let mut pairs = BTreeSet::new();
        let mut hops = BTreeSet::new();
        let mut asns = BTreeSet::new();
        let mut origins = BTreeMap::new();
        for lg in out.lgs.values() {
            for (&prefix, routes) in &lg.rows {
                if routes.iter().any(|r| r.best) {
                    pairs.insert((lg.asn, prefix));
                }
            }
        }
        for (&prefix, rows) in &out.collector.rows {
            for row in rows {
                pairs.insert((row.peer, prefix));
                asns.extend(row.path.iter().copied());
                for w in row.path.windows(2) {
                    hops.insert((w[0], w[1]));
                }
                if let Some(&origin) = row.path.last() {
                    origins.entry(prefix).or_insert(origin);
                }
            }
        }
        let vantages: BTreeSet<Asn> = pairs.iter().map(|&(v, _)| v).collect();
        Keys {
            pairs: pairs.into_iter().collect(),
            vantages: vantages.into_iter().collect(),
            hops: hops.into_iter().collect(),
            asns: asns.into_iter().collect(),
            origins: origins.into_iter().collect(),
        }
    }
}

/// The frames of `fx_stream`, encoded and ready to append.
#[derive(Debug, Clone, Default)]
pub struct Stream {
    /// The `RPLIVE01` header (magic + relationship oracle).
    pub header: Vec<u8>,
    /// One encoded frame per publication, in order.
    pub frames: Vec<Vec<u8>>,
    /// The end-of-stream marker.
    pub end: Vec<u8>,
}

/// A built fixture.
pub struct Fixture {
    /// Which one.
    pub kind: Kind,
    /// The hydrated reference engine: for archives the engine that was
    /// saved; for the stream a one-snapshot engine of the final state.
    pub engine: QueryEngine,
    /// Keys of the reference (latest) snapshot.
    pub keys: Keys,
    /// The archive directory (`Paper`, `Series`) or the directory holding
    /// [`STREAM_FILE`] and [`ROA_FILE`] (`Stream`).
    pub dir: PathBuf,
    /// Snapshots (or frames) in the fixture.
    pub snapshots: usize,
    /// Σ (vantage, prefix) routes over all snapshots.
    pub routes: u64,
    /// Bytes the fixture occupies on disk when fully written.
    pub disk_bytes: u64,
    /// The encoded frames (`Stream` only).
    pub stream: Stream,
    /// The simulated world, kept for the traced run's write-side probes.
    pub exp: Experiment,
    /// The simulated churn series (`None` for `Paper`).
    pub series: Option<SnapshotSeries>,
}

/// The churn the series fixtures run under: ~1 % of routes change per
/// step, an order of magnitude hotter than the paper's daily series so
/// 24 steps carry enough SA flips for the history verbs to chew on.
pub fn churn(steps: usize) -> ChurnConfig {
    ChurnConfig {
        seed: WORLD_SEED ^ 0xC0FFEE,
        steps,
        flip_prob: 0.07,
        link_failure_prob: 0.01,
        label: "day",
    }
}

/// The seeded ROA table: of the originated prefixes 70 % get a ROA for
/// their true origin, 10 % a ROA that makes the route invalid (half a
/// wrong origin, half a covering ROA whose max-length is too short) and
/// 20 % none.
pub fn roas(keys: &Keys, seed: u64) -> Vec<Roa> {
    let mut rng = Rng::new(seed, "roas");
    let mut out = Vec::with_capacity(keys.origins.len());
    for &(prefix, origin) in &keys.origins {
        let roll = rng.below(100);
        if roll < 70 {
            out.push(Roa {
                prefix,
                max_len: prefix.len(),
                origin,
            });
        } else if roll < 75 {
            let (_, wrong) = *rng.pick(&keys.origins);
            out.push(Roa {
                prefix,
                max_len: prefix.len(),
                origin: if wrong == origin {
                    Asn(origin.0 + 1)
                } else {
                    wrong
                },
            });
        } else if roll < 80 {
            if let Some(parent) = prefix.supernet() {
                out.push(Roa {
                    prefix: parent,
                    max_len: parent.len(),
                    origin,
                });
            }
        }
    }
    out
}

/// The frame index → simulated-state index of the ping-pong: 0, 1, …,
/// n-1, n-2, …, 0, 1, … — consecutive frames are always one simulated
/// step apart, in either direction.
pub fn ping_pong(frame: usize, states: usize) -> usize {
    if states < 2 {
        return 0;
    }
    let period = 2 * (states - 1);
    let k = frame % period;
    if k < states {
        k
    } else {
        period - k
    }
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let meta = entry.metadata().map_err(|e| e.to_string())?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Builds a fixture under `dir` (created; must not hold an archive yet);
/// `seed` rolls the ROA table. Stage spans (`sim.world`, `sim.series`,
/// `ingest.*`, `archive.save`, `live.encode`) go to `tracer`; a disabled
/// tracer records nothing.
pub fn build(kind: Kind, seed: u64, dir: &Path, tracer: &mut Tracer) -> Result<Fixture, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let size = match kind {
        Kind::Paper => InternetSize::Paper,
        Kind::Series | Kind::Stream { .. } => InternetSize::Small,
    };
    let exp = tracer.span("sim.world", 0, || Experiment::standard(size, WORLD_SEED));
    let steps = match kind {
        Kind::Paper => 0,
        Kind::Series => SERIES_STEPS,
        Kind::Stream { .. } => STREAM_STEPS,
    };
    let series = (steps > 0).then(|| {
        tracer.span("sim.series", 0, || {
            simulate_series(&exp.graph, &exp.truth, &exp.spec, &churn(steps))
        })
    });

    match kind {
        Kind::Paper | Kind::Series => {
            let mut engine = QueryEngine::new(SHARDS);
            let (keys, routes) = match &series {
                None => {
                    tracer.span("ingest.full", 0, || engine.ingest_experiment(&exp, "t0"));
                    let keys = Keys::of(&exp.output);
                    let routes = keys.pairs.len() as u64;
                    (keys, routes)
                }
                Some(series) => {
                    tracer.span("ingest.incremental", 0, || {
                        engine.ingest_series_incremental(series, &exp.inferred_graph)
                    });
                    let routes = series
                        .snapshots
                        .iter()
                        .map(|s| Keys::of(s).pairs.len() as u64)
                        .sum();
                    let last = series.snapshots.last().expect("a series has snapshots");
                    (Keys::of(last), routes)
                }
            };
            engine.set_roas(RoaTable::new(roas(&keys, seed)));
            let options = SaveOptions {
                keyframe_every: series.as_ref().map(|_| KEYFRAME_EVERY),
            };
            tracer
                .span("archive.save", 0, || {
                    engine.save_archive_with(dir, false, options)
                })
                .map_err(|e| format!("saving the fixture archive: {e}"))?;
            Ok(Fixture {
                kind,
                snapshots: engine.snapshot_count(),
                engine,
                keys,
                dir: dir.to_path_buf(),
                routes,
                disk_bytes: dir_bytes(dir)?,
                stream: Stream::default(),
                exp,
                series,
            })
        }
        Kind::Stream { frames } => {
            let series = series.expect("the stream fixture simulates a series");
            let states = &series.snapshots;
            let (mut writer, header) = StreamWriter::open(&exp.inferred_graph);
            let mut routes = 0u64;
            let per_state: Vec<u64> = states
                .iter()
                .map(|s| Keys::of(s).pairs.len() as u64)
                .collect();
            let encoded = tracer.span("live.encode", 0, || {
                (0..frames)
                    .map(|i| {
                        let state = ping_pong(i, states.len());
                        routes += per_state[state];
                        writer.frame(&format!("f-{i:04}"), &states[state], None)
                    })
                    .collect::<Vec<_>>()
            });
            let stream = Stream {
                header,
                frames: encoded,
                end: writer.end(),
            };
            let last = &states[ping_pong(frames.saturating_sub(1), states.len())];
            let keys = Keys::of(last);
            let table = RoaTable::new(roas(&keys, seed));
            let roa_text: String = table.roas().iter().map(|r| format!("{r}\n")).collect();
            std::fs::write(dir.join(ROA_FILE), roa_text).map_err(|e| e.to_string())?;
            let mut engine = QueryEngine::new(SHARDS);
            let final_world = SnapshotSeries {
                labels: vec!["final".to_string()],
                snapshots: vec![last.clone()],
            };
            tracer.span("ingest.full", 0, || {
                engine.ingest_series(&final_world, &exp.inferred_graph)
            });
            engine.set_roas(table);
            let disk_bytes = (stream.header.len()
                + stream.frames.iter().map(Vec::len).sum::<usize>()
                + stream.end.len()) as u64;
            Ok(Fixture {
                kind,
                engine,
                keys,
                dir: dir.to_path_buf(),
                snapshots: frames,
                routes,
                disk_bytes,
                stream,
                exp,
                series: Some(series),
            })
        }
    }
}
