//! The harness binary behind `benchmark/run.sh`.
//!
//! ```text
//! rpi-benchmark --daemon BIN --spec BENCHMARK.json --scratch DIR
//!               [--workload NAME|all] [--seed N] [--seconds S]
//!               [--trace 0|1] [--out FILE] [--check]
//! rpi-benchmark --spec BENCHMARK.json compare A.jsonl B.jsonl
//! ```
//!
//! For each workload it prints every metric as `workload metric value
//! unit`, then one JSON object with exactly `correct`, `attempted`,
//! `failed` and `metrics` — the last line of standard output is the
//! last workload's object. Anything else goes to standard error.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use rpi_benchmark::compare::{compare, fails, render, render_drift, ResultSet};
use rpi_benchmark::json::Value;
use rpi_benchmark::run::{Config, Outcome};
use rpi_benchmark::spec::Spec;
use rpi_benchmark::workload::Workload;
use rpi_benchmark::{layers, run};

#[global_allocator]
static ALLOC: rpi_benchmark::alloc::Counting = rpi_benchmark::alloc::Counting;

/// Lead-in before the timed window: long enough to fault the archive
/// in, fill the ROV cache and let `tier_mixed` reach its eviction steady
/// state, short enough that a driver's hundred-odd runs fit its budget.
const WARMUP_S: f64 = 1.0;
/// The timed window `--check` uses.
const CHECK_SECONDS: f64 = 2.0;

struct Args {
    daemon: Option<PathBuf>,
    spec: Option<PathBuf>,
    scratch: Option<PathBuf>,
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    check: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

const USAGE: &str = "usage: run.sh [--workload NAME|all] [--seed N] [--seconds S] \
[--trace 0|1] [--out FILE] [--check]\n       run.sh compare A.jsonl B.jsonl";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        daemon: None,
        spec: None,
        scratch: None,
        workload: "all".to_string(),
        seed: 2003,
        seconds: None,
        trace: false,
        out: None,
        check: false,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--daemon" => args.daemon = Some(value("--daemon")?.into()),
            "--spec" => args.spec = Some(value("--spec")?.into()),
            "--scratch" => args.scratch = Some(value("--scratch")?.into()),
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v.parse().map_err(|_| format!("bad --seed '{v}'"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds '{v}'"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {v} is outside (0, 600]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--out" => args.out = Some(value("--out")?.into()),
            "--check" => args.check = true,
            "compare" => {
                let a = value("compare")?;
                let b = value("compare")?;
                args.compare = Some((a.into(), b.into()));
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Where the numbers came from: they compare only within one runner.
fn fingerprint(seed: u64) -> Value {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name").map(str::to_string))
        .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".to_string());
    Value::obj([
        (
            "nproc",
            Value::from(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("cpu", Value::from(cpu.as_str())),
        (
            "kernel",
            Value::from(read("/proc/sys/kernel/osrelease").trim()),
        ),
        (
            "commit",
            Value::from(
                std::env::var("RPI_BENCH_COMMIT")
                    .unwrap_or_else(|_| "unknown".to_string())
                    .as_str(),
            ),
        ),
        ("seed", Value::from(seed)),
    ])
}

fn run_one(
    cfg: &Config,
    spec: &Spec,
    workload: Workload,
    trace: bool,
    out_file: Option<&PathBuf>,
) -> Result<Outcome, String> {
    let outcome = if trace {
        layers::traced(cfg, workload)?
    } else {
        run::untraced(cfg, workload)?
    };
    let listed = spec.list(trace);
    let result = outcome
        .to_json(listed)
        .map_err(|e| format!("{}: {e}", workload.name()))?;
    for note in &outcome.notes {
        eprintln!("{}: {note}", workload.name());
    }
    let mut stdout = std::io::stdout().lock();
    for m in listed {
        let value = outcome.metrics.iter().find(|(name, _)| *name == m.name);
        let (_, value) = value.expect("to_json checked that every listed metric is there");
        let _ = writeln!(stdout, "{} {} {value} {}", workload.name(), m.name, m.unit);
    }
    let _ = writeln!(stdout, "{result}");
    if let Some(path) = out_file {
        let Value::Obj(mut members) = result else {
            unreachable!("the result is an object")
        };
        members.insert(0, ("workload".to_string(), Value::from(workload.name())));
        members.insert(1, ("trace".to_string(), Value::from(trace as u64)));
        members.insert(2, ("seconds".to_string(), Value::from(cfg.seconds)));
        members.insert(3, ("fingerprint".to_string(), fingerprint(cfg.seed)));
        members.push((
            "raw".to_string(),
            Value::obj(
                outcome
                    .raw
                    .iter()
                    .map(|(name, v)| (name.as_str(), Value::from(*v))),
            ),
        ));
        if let Some(slowdown) = outcome.slowdown {
            members.push(("slowdown".to_string(), Value::from(slowdown)));
        }
        members.push((
            "notes".to_string(),
            Value::Arr(
                outcome
                    .notes
                    .iter()
                    .map(|n| Value::from(n.as_str()))
                    .collect(),
            ),
        ));
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(file, "{}", Value::Obj(members))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(outcome)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    let spec_path = args.spec.ok_or("--spec is required (run.sh passes it)")?;
    let spec = Spec::load(&spec_path)?;

    if let Some((a, b)) = &args.compare {
        let (a, b) = (ResultSet::load(a)?, ResultSet::load(b)?);
        let rows = compare(&spec, &a, &b)?;
        print!("{}{}", render(&rows), render_drift(&spec, &a, &b));
        return Ok(!fails(&rows));
    }

    let workloads: Vec<Workload> = if args.workload == "all" {
        Workload::ALL.to_vec()
    } else {
        vec![Workload::by_name(&args.workload).ok_or_else(|| {
            format!(
                "unknown workload '{}'; one of: all {}",
                args.workload,
                Workload::ALL.map(Workload::name).join(" ")
            )
        })?]
    };
    let cfg = Config {
        daemon: args
            .daemon
            .ok_or("--daemon is required (run.sh passes it)")?,
        scratch: args
            .scratch
            .ok_or("--scratch is required (run.sh passes it)")?,
        seed: args.seed,
        warmup_s: WARMUP_S,
        seconds: if args.check {
            CHECK_SECONDS
        } else {
            args.seconds.unwrap_or(spec.run_seconds)
        },
    };
    std::fs::create_dir_all(&cfg.scratch).map_err(|e| format!("{}: {e}", cfg.scratch.display()))?;

    let mut ok = true;
    let modes: &[bool] = if args.check {
        &[false, true]
    } else {
        std::slice::from_ref(&args.trace)
    };
    for &workload in &workloads {
        for &trace in modes {
            let outcome = run_one(&cfg, &spec, workload, trace, args.out.as_ref())?;
            ok &= outcome.correct;
        }
    }
    let _ = std::fs::remove_dir(&cfg.scratch);
    Ok(ok)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("rpi-benchmark: FAILED (see above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("rpi-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
