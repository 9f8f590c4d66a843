//! `compare A B`: judges result set B against baseline A, one row per
//! workload × end-to-end metric, by the bounds `BENCHMARK.json` fixes.
//!
//! A result set is a JSON-lines file as `--out` appends it: one line
//! per run. Several runs per workload (other seeds, repeats) give each
//! side a median and a quartile spread.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Value};
use crate::spec::{Better, Metric, Spec};
use crate::stats::{median, spread};

/// How B stands against A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median improved by more than either side's spread.
    Better,
    /// No worse than the bound allows.
    Within,
    /// Worse than the bound allows.
    Worse,
    /// A side's run-to-run spread exceeds the bound, and the runs of the
    /// two sides overlap: the data cannot say.
    Unresolved,
}

impl Verdict {
    /// Lowercase name, as printed.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much of A's median B's median is worse (negative: better).
pub fn worsening(a: &[f64], b: &[f64], better: Better) -> f64 {
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    }
}

/// The verdict on one metric from both sides' runs.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let noise = spread(a).max(spread(b));
    let worse_by = worsening(a, b, better);
    if noise > bound {
        // Too noisy for the bound to mean anything — unless the sides do
        // not overlap at all.
        let range = |v: &[f64]| {
            v.iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                    (lo.min(x), hi.max(x))
                })
        };
        let ((a_min, a_max), (b_min, b_max)) = (range(a), range(b));
        let (b_all_better, b_all_worse) = match better {
            Better::Lower => (b_max < a_min, b_min > a_max),
            Better::Higher => (b_min > a_max, b_max < a_min),
        };
        return if b_all_better {
            Verdict::Better
        } else if b_all_worse && worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > noise && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// One side's runs: workload → metric → values, plus failure counts.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ResultSet {
    /// End-to-end values per workload and metric, in run order.
    pub values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// (failed, attempted) summed per workload.
    pub failures: BTreeMap<String, (f64, f64)>,
    /// The machine slowdown each run recorded beside its timed slices,
    /// per workload (runs from before the harness recorded one have none).
    pub slowdown: BTreeMap<String, Vec<f64>>,
}

impl ResultSet {
    /// Parses a JSON-lines result file's text; traced runs are skipped.
    pub fn parse(text: &str) -> Result<ResultSet, String> {
        let mut set = ResultSet::default();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let doc = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            if doc.get("trace").and_then(Value::as_f64) == Some(1.0) {
                continue;
            }
            let workload = doc
                .get("workload")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("line {}: no 'workload'", i + 1))?;
            let num = |k: &str| doc.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            let f = set.failures.entry(workload.to_string()).or_default();
            f.0 += num("failed");
            f.1 += num("attempted");
            if let Some(slowdown) = doc.get("slowdown").and_then(Value::as_f64) {
                set.slowdown
                    .entry(workload.to_string())
                    .or_default()
                    .push(slowdown);
            }
            let metrics = doc
                .get("metrics")
                .and_then(Value::as_obj)
                .ok_or_else(|| format!("line {}: no 'metrics'", i + 1))?;
            let per_metric = set.values.entry(workload.to_string()).or_default();
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Value::as_f64) {
                    per_metric.entry(name.clone()).or_default().push(v);
                }
            }
        }
        Ok(set)
    }

    /// Reads and parses a result file.
    pub fn load(path: &Path) -> Result<ResultSet, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        ResultSet::parse(&text)
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The workload.
    pub workload: String,
    /// The metric (or `error_rate`).
    pub metric: String,
    /// Baseline median (for `error_rate`: failed ÷ attempted).
    pub a: f64,
    /// Candidate median.
    pub b: f64,
    /// Runs behind each median.
    pub runs: (usize, usize),
    /// By how much of A's median B's median is worse (negative: better).
    pub worse_by: f64,
    /// The larger of the two sides' quartile spreads.
    pub noise: f64,
    /// The metric's bound (0 for `error_rate`: any rise fails).
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares B against A over every workload both ran. A workload or
/// metric only one side has is an error: the sets are not comparable.
pub fn compare(spec: &Spec, a: &ResultSet, b: &ResultSet) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for workload in &spec.workloads {
        let (Some(va), Some(vb)) = (a.values.get(workload), b.values.get(workload)) else {
            if a.values.contains_key(workload) != b.values.contains_key(workload) {
                return Err(format!("only one side ran workload '{workload}'"));
            }
            continue;
        };
        for Metric {
            name,
            better,
            bound,
            ..
        } in &spec.end_to_end
        {
            let (Some(xa), Some(xb)) = (va.get(name), vb.get(name)) else {
                return Err(format!("'{workload}' lacks metric '{name}' on one side"));
            };
            let bound = bound.ok_or_else(|| format!("metric '{name}' has no bound"))?;
            rows.push(Row {
                workload: workload.clone(),
                metric: name.clone(),
                a: median(xa),
                b: median(xb),
                runs: (xa.len(), xb.len()),
                worse_by: worsening(xa, xb, *better),
                noise: spread(xa).max(spread(xb)),
                bound,
                verdict: verdict(xa, xb, *better, bound),
            });
        }
        let rate = |s: &ResultSet| {
            s.failures
                .get(workload)
                .map_or(0.0, |&(failed, attempted)| failed / attempted.max(1.0))
        };
        let (ra, rb) = (rate(a), rate(b));
        rows.push(Row {
            workload: workload.clone(),
            metric: "error_rate".to_string(),
            a: ra,
            b: rb,
            runs: (0, 0),
            worse_by: rb - ra,
            noise: 0.0,
            bound: 0.0,
            verdict: if rb > ra {
                Verdict::Worse
            } else if rb < ra {
                Verdict::Better
            } else {
                Verdict::Within
            },
        });
    }
    if rows.is_empty() {
        return Err("the two result sets share no workload".into());
    }
    Ok(rows)
}

/// Renders the rows as an aligned table. Every ratio names its base.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<18} {:<22} {:>14} {:>14} {:>16} {:>8} {:>7}  {}\n",
        "workload", "metric", "A (base)", "B", "B/A (base A)", "spread", "bound", "verdict"
    );
    for r in rows {
        let ratio = if r.a != 0.0 {
            format!("{:.4}", r.b / r.a)
        } else {
            "-".to_string()
        };
        // The bound is what fails a change; on a quiet box the spread is
        // far inside it, and a move the runs do resolve is worth a look
        // even when the bound lets it pass.
        let resolved_slip = r.verdict == Verdict::Within && r.worse_by > r.noise;
        out.push_str(&format!(
            "{:<18} {:<22} {:>14.6} {:>14.6} {:>16} {:>7.2}% {:>6.1}%  {}{}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            ratio,
            100.0 * r.noise,
            100.0 * r.bound,
            r.verdict.name(),
            if resolved_slip {
                " (worse by more than the spread)"
            } else {
                ""
            },
        ));
    }
    out
}

/// How far the machine itself moved between the two sets: per workload
/// both sides' median yardstick slowdown. Time-like metrics are already
/// in reference time, so this is context for the rows above, not a
/// correction — but a set taken on a box a fifth slower than the other
/// is worth knowing about before trusting a close call.
pub fn render_drift(spec: &Spec, a: &ResultSet, b: &ResultSet) -> String {
    let mut out = String::new();
    for workload in &spec.workloads {
        let (Some(sa), Some(sb)) = (a.slowdown.get(workload), b.slowdown.get(workload)) else {
            continue;
        };
        let (ma, mb) = (median(sa), median(sb));
        out.push_str(&format!(
            "{workload:<18} machine slowdown: A {ma:.3}, B {mb:.3}, B/A (base A) {:.3}{}\n",
            mb / ma,
            if (mb / ma - 1.0).abs() > 0.10 {
                "  <- the box drifted between the sets"
            } else {
                ""
            },
        ));
    }
    out
}

/// `true` when the comparison must fail the caller: any `worse` row
/// (a rise in `error_rate` is one).
pub fn fails(rows: &[Row]) -> bool {
    rows.iter().any(|r| r.verdict == Verdict::Worse)
}
