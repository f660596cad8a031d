//! Assembles a schema-v1 benchmark record (`BENCH_<n>.json`) from the
//! results of alternating parent/change runs of the benchmark contract.
//!
//! `<dir>` holds one file per run, named `<side>-<workload>-<seed>.txt`
//! (`side` is `parent` or `change`), each the standard output of
//!
//! ```text
//! cargo run --release --quiet --offline --manifest-path dc-benchmark/Cargo.toml -- \
//!     --workload <workload> --seed <seed> --seconds 30 --trace 0
//! ```
//!
//! whose last line is the run's result. The record — summaries, claim and
//! the claim's result under the pair rule — goes to standard output.
//!
//! Run with: `cargo run --example bench_pairs -- <dir> [--claim
//! <workload>:<metric>] [--set <key>=<value>]...`; a `--set` value that
//! parses as JSON is stored as such, any other as a string.

use doublechecker_repro::bench::{contract_metrics, pretty, record, Claim, Sides};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let usage = "usage: bench_pairs <dir> [--claim <workload>:<metric>] [--set <key>=<value>]...";
    let mut args = std::env::args().skip(1);
    let dir = args.next().ok_or(usage)?;
    let (mut claim, mut meta) = (None, BTreeMap::new());
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(usage)?;
        match flag.as_str() {
            "--claim" => {
                let (workload, metric) = value.split_once(':').ok_or(usage)?;
                claim = Some(Claim {
                    workload: workload.to_string(),
                    metric: metric.to_string(),
                });
            }
            "--set" => {
                let (key, text) = value.split_once('=').ok_or(usage)?;
                let value = serde_json::from_str(text).unwrap_or_else(|_| Value::from(text));
                meta.insert(key.to_string(), value);
            }
            _ => return Err(usage.into()),
        }
    }
    let contract = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCHMARK.json");
    let metrics = contract_metrics(&serde_json::from_str(&std::fs::read_to_string(contract)?)?)?;
    let mut workloads: BTreeMap<String, Sides> = BTreeMap::new();
    for entry in std::fs::read_dir(&dir)? {
        let path = entry?.path();
        let Some(stem) = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_suffix(".txt"))
        else {
            continue;
        };
        let [side, workload, seed] = stem.split('-').collect::<Vec<_>>()[..] else {
            return Err(format!("{}: not <side>-<workload>-<seed>.txt", path.display()).into());
        };
        let text = std::fs::read_to_string(&path)?;
        let last = text.lines().last().unwrap_or_default();
        let result = serde_json::from_str(last)
            .map_err(|e| format!("{}: last line: {e}", path.display()))?;
        let mut run = BTreeMap::new();
        for key in ["failed", "attempted"] {
            let count = result.get(key).and_then(Value::as_f64);
            run.insert(key.to_string(), count.ok_or(format!("no {key}"))?);
        }
        for metric in &metrics {
            let value = result
                .get("metrics")
                .and_then(|m| m.get(&metric.name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64);
            let value = value.ok_or_else(|| format!("{}: no {}", path.display(), metric.name))?;
            run.insert(metric.name.clone(), value);
        }
        let sides = workloads.entry(workload.to_string()).or_default();
        let runs = match side {
            "parent" => &mut sides.parent,
            "change" => &mut sides.change,
            _ => return Err(format!("{}: unknown side {side}", path.display()).into()),
        };
        runs.insert(seed.to_string(), run);
    }
    let doc = record(meta, &workloads, claim.as_ref(), &metrics)?;
    print!("{}", pretty(&doc));
    Ok(())
}
