//! `BENCHMARK.json` as the harness reads it: the single place metric
//! names, units, directions and bounds are fixed. The harness refuses to
//! print a result whose metric set differs from the file's.

use std::path::Path;

use crate::json::{self, Value};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One metric of the contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Its name, unique across both lists.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// Its direction.
    pub better: Better,
    /// Share of the baseline's median it may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// Metrics printed with `--trace 0`.
    pub end_to_end: Vec<Metric>,
    /// Metrics printed with `--trace 1`.
    pub per_layer: Vec<Metric>,
    /// The driver's run length, the default of `--seconds`.
    pub run_seconds: f64,
}

fn metrics(doc: &Value, key: &str) -> Result<Vec<Metric>, String> {
    doc.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: missing array '{key}'"))?
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: a '{key}' entry lacks '{f}'"))
            };
            let better = match field("better")?.as_str() {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("BENCHMARK.json: better = '{other}'")),
            };
            Ok(Metric {
                name: field("name")?,
                unit: field("unit")?,
                better,
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Parses the contract's text.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text)?;
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or("BENCHMARK.json: missing array 'workloads'")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| "BENCHMARK.json: a workload lacks 'name'".to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: missing 'run_seconds'")?,
        })
    }

    /// Reads and parses the contract file.
    pub fn load(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Spec::parse(&text)
    }

    /// The metric list a run with this `trace` flag must print.
    pub fn list(&self, trace: bool) -> &[Metric] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}
