//! Cold-start benchmark for the on-disk archive (`rpi-store`).
//!
//! The serving layer's startup story used to be "re-simulate the world,
//! then re-ingest it" on every boot. `archive_load` measures the
//! alternative the archive buys: `QueryEngine::load_archive` on the
//! paper's 31-snapshot daily series versus re-simulating + re-ingesting
//! the same series (the incremental path — the *fast* competitor).
//! Target: **≥ 20× faster cold start**. The report also compares bytes
//! on disk against the engine's physical in-memory trie footprint.

use std::time::{Duration, Instant};

use rpi_bench::harness::Criterion;

use bgp_sim::churn::simulate_series;
use bgp_sim::ChurnConfig;
use net_topology::InternetSize;
use rpi_core::Experiment;
use rpi_query::{Query, QueryEngine, SaveOptions, Scope, SnapshotId};
use rpi_store::SegmentKind;

const SNAPSHOTS: usize = 31;
const SHARDS: usize = 8;

fn best_of<T>(runs: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..runs.max(1) {
        let t0 = Instant::now();
        let v = f();
        let dt = t0.elapsed();
        if dt < best {
            best = dt;
        }
        out = Some(v);
    }
    (best, out.expect("at least one run"))
}

fn main() {
    let mut c = Criterion::new();

    let exp = Experiment::standard(InternetSize::Small, 2003);
    // The paper's §6 workload: a month of daily snapshots at ~1% of
    // vantage-table routes moving per snapshot.
    let cfg = ChurnConfig {
        steps: SNAPSHOTS,
        flip_prob: 0.07,
        link_failure_prob: 0.01,
        ..ChurnConfig::daily(7)
    };

    // Build the archive once (this is the state a long-running deployment
    // would already have on disk).
    let series = simulate_series(&exp.graph, &exp.truth, &exp.spec, &cfg);
    let mut engine = QueryEngine::new(SHARDS);
    engine.ingest_series_incremental(&series, &exp.inferred_graph);
    let dir = std::env::temp_dir().join(format!("rpi-archive-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (save_time, manifest) = best_of(3, || {
        engine
            .save_archive(&dir, true)
            .expect("save benchmark archive")
    });

    let mut g = c.benchmark_group("archive/cold_start");
    g.sample_size(10);
    g.bench_function(format!("load_archive_{SNAPSHOTS}_snapshots"), |b| {
        b.iter(|| QueryEngine::load_archive(&dir).expect("load"))
    });
    g.finish();

    // The competitor: what every start paid before persistence-to-disk —
    // re-simulate the series, then re-ingest it (diff-aware, its best
    // case). Timed explicitly (best of 2) because a single run is already
    // seconds, not microseconds.
    let (resim, _) = best_of(2, || {
        let series = simulate_series(&exp.graph, &exp.truth, &exp.spec, &cfg);
        let mut e = QueryEngine::new(SHARDS);
        e.ingest_series_incremental(&series, &exp.inferred_graph);
        e
    });
    let (load, loaded) = best_of(5, || QueryEngine::load_archive(&dir).expect("load"));

    let stats = loaded.sharing_stats();
    let mem_bytes = stats.total_bytes - stats.shared_bytes;
    let disk_bytes = manifest.total_bytes();
    let full = manifest
        .segments
        .iter()
        .filter(|s| s.kind == SegmentKind::Full)
        .count();
    let delta = manifest
        .segments
        .iter()
        .filter(|s| s.kind == SegmentKind::Delta)
        .count();
    let speedup = resim.as_secs_f64() / load.as_secs_f64();
    println!(
        "    (cold start, {SNAPSHOTS}-snapshot series: re-simulate+re-ingest {resim:.2?} vs \
         load_archive {load:.2?} → {speedup:.0}× faster{}; save {save_time:.2?})",
        if speedup >= 20.0 {
            ""
        } else {
            "  [BELOW 20× TARGET]"
        }
    );
    println!(
        "    (storage: {:.1} KiB on disk ({full} full + {delta} delta segments) vs {:.1} KiB \
         physical trie memory → {:.2}× compression; {:.1}% trie nodes shared after replay)",
        disk_bytes as f64 / 1024.0,
        mem_bytes as f64 / 1024.0,
        mem_bytes as f64 / disk_bytes as f64,
        100.0 * stats.shared_ratio(),
    );

    // ---- the tier: µs-scale attach and zero-copy cold point queries ----
    //
    // A keyframed copy of the same archive (cadence 8: a handful of
    // self-contained fulls bounding every delta chain), attached with
    // `load_archive_tiered` instead of hydrated. "Millisecond cold
    // start" becomes "microsecond per-snapshot attach": the advisory bar
    // is attach ≥ 100× faster than hydrate-load, per snapshot.
    let tier_dir = std::env::temp_dir().join(format!("rpi-tier-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tier_dir);
    let keyframed = engine
        .save_archive_with(
            &tier_dir,
            true,
            SaveOptions {
                keyframe_every: Some(8),
            },
        )
        .expect("save keyframed archive");

    let mut g = c.benchmark_group("tier/attach");
    g.sample_size(10);
    g.bench_function(format!("tier_attach_{SNAPSHOTS}_snapshots"), |b| {
        b.iter(|| QueryEngine::load_archive_tiered(&tier_dir, 4).expect("attach"))
    });
    g.finish();

    let (attach, tiered) = best_of(5, || {
        QueryEngine::load_archive_tiered(&tier_dir, 4).expect("attach")
    });
    assert!(tiered.tier_stats().is_some(), "keyframed archive tiers");

    // Cold point-query workload: exact routes and ROV against every
    // keyframe-backed snapshot, answered zero-copy off the mappings.
    let cold_ids: Vec<SnapshotId> = keyframed
        .snapshot_segments()
        .enumerate()
        .filter(|(_, (_, e))| e.is_keyframe())
        .map(|(i, _)| SnapshotId(i as u32))
        .collect();
    let mut pairs = Vec::new();
    // Vantages read off a keyframe's mapped directory — listing them
    // must not hydrate anything before the cold workload runs.
    for (vantage, _) in tiered.vantages_in(cold_ids[0]) {
        if let Some(t) = exp.lg_table(vantage) {
            pairs.extend(t.rows.keys().take(8).map(|&p| (vantage, p)));
        } else {
            let t = exp.collector_table(vantage);
            pairs.extend(t.rows.keys().take(8).map(|&p| (vantage, p)));
        }
    }
    assert!(!pairs.is_empty() && !cold_ids.is_empty());
    let reqs: Vec<_> = cold_ids
        .iter()
        .flat_map(|&id| {
            pairs
                .iter()
                .map(move |&(vantage, prefix)| Query::Route { vantage, prefix }.at(Scope::Id(id)))
        })
        .collect();
    let (cold_total, _) = best_of(10, || {
        for req in &reqs {
            std::hint::black_box(tiered.execute(req).expect("cold query"));
        }
    });
    let stats = tiered.tier_stats().expect("tier-attached");
    assert_eq!(stats.hydrations, 0, "cold bench must not hydrate");

    let attach_us = attach.as_secs_f64() * 1e6 / SNAPSHOTS as f64;
    let hydrate_us = load.as_secs_f64() * 1e6 / SNAPSHOTS as f64;
    let cold_query_us = cold_total.as_secs_f64() * 1e6 / reqs.len() as f64;
    let attach_speedup = hydrate_us / attach_us;
    println!(
        "    (tier: attach {attach_us:.1} µs/snapshot vs hydrate-load {hydrate_us:.1} µs/snapshot \
         → {attach_speedup:.0}× faster{}; cold route+rov {cold_query_us:.2} µs/query over \
         {} keyframes, {} cold hits, 0 hydrations)",
        if attach_speedup >= 100.0 {
            ""
        } else {
            "  [BELOW 100× TARGET]"
        },
        cold_ids.len(),
        stats.cold_hits,
    );

    let _ = std::fs::remove_dir_all(&tier_dir);
    let _ = std::fs::remove_dir_all(&dir);
}
