//! Regenerates every table and figure of the paper on the synthetic
//! Internet and prints them to stdout.
//!
//! ```text
//! paper_tables [--size tiny|small|paper|large] [--seed N] [--full-churn]
//!              [--only table5,fig6,...]
//! ```

use std::collections::BTreeSet;

use net_topology::InternetSize;
use rpi_bench::{experiments as ex, PaperWorld};

fn main() {
    let mut size = InternetSize::Paper;
    let mut seed: u64 = 20021111;
    let mut full_churn = false;
    let mut only: Option<BTreeSet<String>> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--size" => {
                let raw = args.next().unwrap_or_else(|| {
                    eprintln!("paper_tables: --size needs a value (tiny, small, paper or large)");
                    std::process::exit(2);
                });
                size = raw.parse().unwrap_or_else(|e: String| {
                    eprintln!("paper_tables: {e}");
                    std::process::exit(2);
                });
            }
            "--seed" => {
                let raw = args.next().unwrap_or_else(|| {
                    eprintln!("paper_tables: --seed needs an unsigned integer value");
                    std::process::exit(2);
                });
                seed = raw.parse().unwrap_or_else(|_| {
                    eprintln!("paper_tables: --seed wants an unsigned integer, got '{raw}'");
                    std::process::exit(2);
                });
            }
            "--full-churn" => full_churn = true,
            "--only" => {
                only = Some(
                    args.next()
                        .unwrap_or_default()
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .collect(),
                );
            }
            "--help" | "-h" => {
                println!(
                    "usage: paper_tables [--size tiny|small|paper|large] [--seed N] \
                     [--full-churn] [--only table1,fig2a,...]"
                );
                return;
            }
            other => {
                eprintln!("paper_tables: unknown argument '{other}' (try --help)");
                std::process::exit(2);
            }
        }
    }

    let wants = |key: &str| only.as_ref().map(|s| s.contains(key)).unwrap_or(true);

    eprintln!("building world (size {size:?}, seed {seed}) …");
    let t0 = std::time::Instant::now();
    let w = PaperWorld::build(size, seed);
    eprintln!(
        "world ready in {:.1?}: {} ASes, {} edges, {} announcement classes, {} non-converged",
        t0.elapsed(),
        w.exp.graph.as_count(),
        w.exp.graph.edge_count(),
        w.exp.truth.classes.len(),
        w.exp.output.diagnostics.non_converged
    );

    if wants("table1") {
        println!("{}", ex::table1(&w));
    }
    if wants("table2") {
        println!("{}", ex::table2(&w).1);
    }
    if wants("table3") {
        println!("{}", ex::table3(&w).1);
    }
    if wants("fig2a") {
        println!("{}", ex::fig2a(&w).1);
    }
    if wants("fig2b") {
        println!("{}", ex::fig2b(&w, 30).1);
    }
    if wants("table4") {
        println!("{}", ex::table4(&w).1);
    }
    if wants("fig9") {
        println!("{}", ex::fig9(&w).1);
    }
    if wants("table5") {
        println!("{}", ex::table5(&w).1);
    }
    if wants("table6") {
        println!("{}", ex::table6(&w));
    }
    if wants("table7") {
        println!("{}", ex::table7(&w));
    }
    if wants("table8") {
        println!("{}", ex::table8(&w));
    }
    if wants("table9") {
        println!("{}", ex::table9(&w));
    }
    if wants("fig6") || wants("fig7") {
        let (daily_steps, hourly_steps) = if full_churn { (31, 24) } else { (8, 6) };
        eprintln!("running churn series ({daily_steps} daily + {hourly_steps} hourly snapshots) …");
        let daily = w.daily_series(daily_steps);
        println!("{}", ex::fig6_fig7(&w, &daily, "daily"));
        let hourly = w.hourly_series(hourly_steps);
        println!("{}", ex::fig6_fig7(&w, &hourly, "hourly"));
    }
    if wants("table10") {
        println!("{}", ex::table10(&w));
    }
    if wants("table11") {
        println!("{}", ex::table11(&w));
    }
    if wants("extras") {
        println!("{}", ex::extras(&w));
    }
    eprintln!("done in {:.1?}", t0.elapsed());
}
