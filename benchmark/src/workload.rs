//! The five workloads: which fixture and daemon flags each runs
//! against, how many clients at what pipeline depth, and the request
//! generators — pure functions of (workload, fixture keys, seed).
//!
//! Why each exists is recorded in `BENCHMARK.json` (`workloads[].why`)
//! and in the README's glossary.
//!
//! **The traffic is assumed, not observed.** No log or script of a real
//! deployment of this daemon exists to derive a mix from: the verb shares
//! of the point mix, the 5 % of absent keys, the uniform draw over keys
//! and the make-up of the history cycle are the authors' guess at what
//! bulk scripts, dashboards and the paper's longitudinal questions look
//! like, fixed here so that every later change is measured against the
//! same guess. What the workloads do vary is what the daemon's behaviour
//! was seen to depend on: pipeline depth (1 / 8 / 16 / 128), world size
//! (Paper / Small), residency (hydrated / `--hot-cap 4`, with a recency
//! skew over snapshot ids) and a concurrent writer. Keys are uniform
//! everywhere — no workload has a hot key set — and the ROV cache is hot
//! in all of them (see `layers::rov_probe`); the README lists both under
//! what the benchmark does not cover.

use std::time::Duration;

use bgp_types::{Asn, Ipv4Prefix};
use rpi_query::{parse, render_response, QueryEngine};

use crate::client::SLICES;
use crate::fixture::{Fixture, Keys, Kind, ROA_FILE, STREAM_FILE};
use crate::rng::Rng;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// Bulk script traffic: 2 connections × depth 128 over `fx_paper`.
    PointPipelined,
    /// Dashboard/REPL traffic: 1 connection × depth 1 over `fx_paper`.
    PointInteractive,
    /// The paper's Figs 6–7 questions: history verbs over `fx_series`.
    HistoryScan,
    /// Point verbs through residency: `fx_series` at `--hot-cap 4`.
    TierMixed,
    /// Writes beside reads: `--follow` over `fx_stream`.
    LiveIngest,
}

/// Frames published before the timed window of `live_ingest` opens, so
/// the reader never measures an empty world.
pub const LIVE_WARMUP_FRAMES: usize = 4;
/// Cadence of `live_ingest` publications.
pub const LIVE_FRAME_GAP_MS: u64 = 250;

/// Publications `live_ingest` makes in a stretch of `len`: one per
/// [`LIVE_FRAME_GAP_MS`], at least one.
pub fn frames_in(len: Duration) -> usize {
    ((len.as_millis() as u64 / LIVE_FRAME_GAP_MS) as usize).max(1)
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 5] = [
        Workload::PointPipelined,
        Workload::PointInteractive,
        Workload::HistoryScan,
        Workload::TierMixed,
        Workload::LiveIngest,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PointPipelined => "point_pipelined",
            Workload::PointInteractive => "point_interactive",
            Workload::HistoryScan => "history_scan",
            Workload::TierMixed => "tier_mixed",
            Workload::LiveIngest => "live_ingest",
        }
    }

    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Client connections (one thread each). Never more than the two
    /// cores of the reference box; depth-1 traffic gets one, because two
    /// depth-1 clients plus the server on two cores varied 35k–43k q/s
    /// between rounds where one held within 3 %.
    pub fn conns(self) -> usize {
        match self {
            Workload::PointPipelined => 2,
            _ => 1,
        }
    }

    /// Lines written before the client waits for their responses.
    pub fn depth(self) -> usize {
        match self {
            Workload::PointPipelined | Workload::LiveIngest => 128,
            Workload::PointInteractive => 1,
            Workload::HistoryScan => 8,
            Workload::TierMixed => 16,
        }
    }

    /// Distinct windows in one connection's script; the client cycles
    /// through them. Sized so that expected responses render in about a
    /// second; for the point workloads on the Paper world that is 65,536
    /// lines per connection drawn uniformly from ~320k (vantage, prefix)
    /// pairs, so a script seldom revisits a pair. Whether the tries it
    /// touches leave the CPU's caches has not been measured. The daemon's
    /// own ROV cache does not notice the script at all: it is keyed by
    /// (prefix, origin), of which the Paper world has ~4.8k against 8,192
    /// slots, so it is hot whatever is asked (`sec.rov_cache_fill`).
    pub fn windows(self) -> usize {
        match self {
            Workload::PointPipelined => 512,
            Workload::PointInteractive => 65_536,
            Workload::HistoryScan => 32,
            Workload::TierMixed => 480,
            Workload::LiveIngest => 64,
        }
    }

    /// Windows of connection 0's script the traced run replays
    /// in-process — a fixed count, so the per-layer counts repeat exactly:
    /// 65,536 requests of `point_pipelined`, 16,384 of the depth-1 traffic
    /// (five spans a request), and as many of the expensive windows as
    /// replay in about two seconds.
    pub fn replay_windows(self) -> usize {
        match self {
            Workload::PointPipelined => 512,
            Workload::PointInteractive => 16_384,
            Workload::HistoryScan => 32,
            Workload::TierMixed | Workload::LiveIngest => 64,
        }
    }

    /// Which fixture the workload runs against. The run's length sizes
    /// the stream: the frames present at launch, then
    /// [`frames_in`] the warm-up and each timed slice.
    pub fn fixture(self, warmup_s: f64, seconds: f64) -> Kind {
        match self {
            Workload::PointPipelined | Workload::PointInteractive => Kind::Paper,
            Workload::HistoryScan | Workload::TierMixed => Kind::Series,
            Workload::LiveIngest => Kind::Stream {
                frames: LIVE_WARMUP_FRAMES
                    + frames_in(Duration::from_secs_f64(warmup_s))
                    + SLICES * frames_in(Duration::from_secs_f64(seconds / SLICES as f64)),
            },
        }
    }

    /// The daemon's arguments for this workload over `fx` (the listen
    /// address is added by the spawner).
    pub fn daemon_args(self, fx: &Fixture) -> Vec<String> {
        let dir = fx.dir.display().to_string();
        match self {
            Workload::PointPipelined | Workload::PointInteractive | Workload::HistoryScan => {
                vec!["--archive".into(), dir]
            }
            Workload::TierMixed => {
                vec!["--archive".into(), dir, "--hot-cap".into(), "4".into()]
            }
            Workload::LiveIngest => vec![
                "--follow".into(),
                fx.dir.join(STREAM_FILE).display().to_string(),
                "--window".into(),
                "4".into(),
                "--spill".into(),
                fx.dir.join("spill").display().to_string(),
                "--roas".into(),
                fx.dir.join(ROA_FILE).display().to_string(),
            ],
        }
    }

    /// The request lines of connection `conn`: `windows() × depth()` of
    /// them, a pure function of (workload, keys, snapshots, seed, conn).
    pub fn script(self, keys: &Keys, snapshots: usize, seed: u64, conn: usize) -> Vec<String> {
        let mut rng = Rng::new(seed, &format!("{}#{conn}", self.name()));
        let (windows, depth) = (self.windows(), self.depth());
        let mut lines = Vec::with_capacity(windows * depth);
        match self {
            Workload::PointPipelined | Workload::PointInteractive | Workload::LiveIngest => {
                for _ in 0..windows * depth {
                    lines.push(point_line(keys, &mut rng, ""));
                }
            }
            Workload::TierMixed => {
                let mut ids = Vec::with_capacity(windows);
                while ids.len() < windows {
                    ids.extend(tier_cycle(snapshots, &mut rng));
                }
                for &id in &ids[..windows] {
                    lines.extend(tier_window(keys, id, &mut rng, depth));
                }
            }
            Workload::HistoryScan => {
                while lines.len() < windows * depth {
                    lines.extend(history_cycle(keys, snapshots, &mut rng));
                }
                lines.truncate(windows * depth);
            }
        }
        lines
    }
}

/// A prefix no simulated world allocates: address space is handed out
/// upwards from 1.0.0.0 and never reaches 240.0.0.0/4.
fn absent_prefix(rng: &mut Rng) -> Ipv4Prefix {
    Ipv4Prefix::canonical(0xF000_0000 | (rng.next_u64() as u32 & 0x0FFF_FF00), 24)
}

/// A strictly more-specific prefix inside `p` (so `resolve` has to walk
/// the trie to its longest match), or `p` itself for a /32.
fn more_specific(p: Ipv4Prefix, rng: &mut Rng) -> Ipv4Prefix {
    if p.len() >= 32 {
        return p;
    }
    let len = (p.len() + 1 + rng.below(8) as u8).min(32);
    Ipv4Prefix::canonical(p.bits() | (rng.next_u64() as u32 & !p.netmask()), len)
}

fn key(keys: &Keys, rng: &mut Rng) -> (Asn, Ipv4Prefix) {
    let (vantage, prefix) = *rng.pick(&keys.pairs);
    // 5 % absent keys: a negative answer is a valid response, and the
    // miss path of the trie walk is part of the traffic.
    if rng.percent(5) {
        (vantage, absent_prefix(rng))
    } else {
        (vantage, prefix)
    }
}

/// One line of the point mix — route 30 / resolve 25 (half on a
/// more-specific of a stored prefix) / sa 20 / rov 15 / rel 5 /
/// summary 5, an assumed mix (module docs) — with `scope` (e.g. `" @7"`,
/// or empty for `@latest`) appended.
pub fn point_line(keys: &Keys, rng: &mut Rng, scope: &str) -> String {
    let roll = rng.below(100);
    if roll < 30 {
        let (v, p) = key(keys, rng);
        format!("route {v} {p}{scope}")
    } else if roll < 55 {
        let (v, p) = key(keys, rng);
        let p = if rng.percent(50) {
            more_specific(p, rng)
        } else {
            p
        };
        format!("resolve {v} {p}{scope}")
    } else if roll < 75 {
        let (v, p) = key(keys, rng);
        format!("sa {v} {p}{scope}")
    } else if roll < 90 {
        let (v, p) = key(keys, rng);
        format!("rov {v} {p}{scope}")
    } else if roll < 95 {
        let (a, b) = *rng.pick(&keys.hops);
        format!("rel {a} {b}{scope}")
    } else {
        let asn = *rng.pick(&keys.asns);
        format!("summary {asn}{scope}")
    }
}

/// The snapshot ids of one cycle of `tier_mixed` windows, shuffled: every
/// id once (the uniform half) and as many picks again from the newest
/// four (the half inside the hot cap). Dealing whole cycles instead of
/// rolling each window's id keeps the share of cold windows — which is
/// what a run's throughput is made of — the same for every seed; the
/// seed decides their order.
pub fn tier_cycle(snapshots: usize, rng: &mut Rng) -> Vec<usize> {
    let newest = 4.min(snapshots);
    let mut ids: Vec<usize> = (0..snapshots)
        .chain((0..snapshots).map(|i| snapshots - 1 - i % newest))
        .collect();
    shuffle(&mut ids, rng);
    ids
}

/// One `tier_mixed` window, every line pinned to snapshot `id`: 15 verbs
/// the cold tier can answer off the mapping (route 6 / resolve 5 / rov 4)
/// and one `sa` that has to hydrate.
pub fn tier_window(keys: &Keys, id: usize, rng: &mut Rng, depth: usize) -> Vec<String> {
    let sa_at = rng.below(depth);
    (0..depth)
        .map(|i| {
            let (v, p) = key(keys, rng);
            let verb = if i == sa_at {
                "sa"
            } else {
                match rng.below(15) {
                    0..=5 => "route",
                    6..=10 => "resolve",
                    _ => "rov",
                }
            };
            format!("{verb} {v} {p} @{id}")
        })
        .collect()
}

/// Fisher–Yates.
fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

fn range_scope(snapshots: usize, rng: &mut Rng) -> String {
    if snapshots < 2 {
        return "@all".to_string();
    }
    let a = rng.below(snapshots - 1);
    let b = a + 1 + rng.below(snapshots - 1 - a);
    format!("@{a}..{b}")
}

fn history_scope(snapshots: usize, rng: &mut Rng) -> String {
    if rng.percent(50) {
        "@all".to_string()
    } else {
        range_scope(snapshots, rng)
    }
}

/// One 32-line cycle of the history mix — 8 `uptime`, 6 `sa-history`, 6
/// `persistence`, 4 `top-sa V 10`, 4 `diff @a..b`, 3 `leaks @id`, 1
/// `hijacks @all`; half the other scoped verbs ask `@all`, half a seeded
/// sub-range — dealt into four windows of eight with the same make-up:
/// one whole-table scan (`hijacks` in one window, `leaks` in the other
/// three), one `diff`, two `uptime` and four of the cheap per-prefix
/// verbs, in shuffled order. Rolling the windows freely instead put the
/// median window on the edge between "no scan" and "one scan" and moved
/// `p50_us` by a fifth from seed to seed.
pub fn history_cycle(keys: &Keys, snapshots: usize, rng: &mut Rng) -> Vec<String> {
    let mut cheap = Vec::with_capacity(16);
    for verb in ["sa-history", "persistence"] {
        for _ in 0..6 {
            let (v, p) = *rng.pick(&keys.pairs);
            cheap.push(format!("{verb} {v} {p} {}", history_scope(snapshots, rng)));
        }
    }
    for _ in 0..4 {
        let v = *rng.pick(&keys.vantages);
        cheap.push(format!("top-sa {v} 10 {}", history_scope(snapshots, rng)));
    }
    shuffle(&mut cheap, rng);
    // `hijacks` alone is half the cycle's cost: asked of a seeded
    // sub-range it would make a run's throughput a function of a few dice.
    let hijacks_in = rng.below(4);
    let mut lines = Vec::with_capacity(32);
    for window in 0..4 {
        let mut w = vec![
            if window == hijacks_in {
                "hijacks @all".to_string()
            } else {
                format!("leaks @{}", rng.below(snapshots))
            },
            format!("diff {}", range_scope(snapshots, rng)),
        ];
        for _ in 0..2 {
            let v = *rng.pick(&keys.vantages);
            w.push(format!("uptime {v} {}", history_scope(snapshots, rng)));
        }
        w.extend(cheap.drain(..4));
        shuffle(&mut w, rng);
        lines.extend(w);
    }
    lines
}

/// The bytes the daemon must answer `line` with: the reference engine's
/// rendering plus the newline the wire adds. A line that does not parse
/// or execute is a generator bug — workloads contain no failing
/// operation — and is reported as one.
pub fn expected(engine: &QueryEngine, line: &str) -> Result<String, String> {
    let req = parse(line).map_err(|e| format!("generated line '{line}' does not parse: {e}"))?;
    let resp = engine
        .execute(&req)
        .map_err(|e| format!("generated line '{line}' does not execute: {e}"))?;
    let mut text = render_response(&req, &resp);
    text.push('\n');
    Ok(text)
}
