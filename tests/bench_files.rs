//! The benchmark records at the repository root. Every `BENCH_<n>.json`
//! from [`FIRST_V1`] on is schema v1 and must agree with its own runs:
//! each summary recomputed from them, and its `claim_result` given by the
//! pair rule (EXPERIMENTS.md, "Benchmark records"). Older records use
//! other shapes and are reported as legacy, unchecked.

use doublechecker_repro::bench::{contract_metrics, judge, Metric, FIRST_V1, NO_CLAIM};
use serde_json::Value;
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

fn metrics() -> Vec<Metric> {
    contract_metrics(&read(&root().join("BENCHMARK.json"))).expect("the contract")
}

/// The records, by number.
fn records() -> Vec<(u32, PathBuf)> {
    let mut found: Vec<_> = std::fs::read_dir(root())
        .expect("the repository root")
        .map(|e| e.expect("a directory entry").path())
        .filter_map(|path| {
            let name = path.file_name()?.to_str()?;
            let n = name.strip_prefix("BENCH_")?.strip_suffix(".json")?;
            Some((n.parse().ok()?, path))
        })
        .collect();
    found.sort();
    found
}

fn record(n: u32) -> Value {
    read(&root().join(format!("BENCH_{n}.json")))
}

/// The member at `path` of nested objects.
fn at<'a>(mut v: &'a mut Value, path: &[&str]) -> &'a mut Value {
    for key in path {
        let Value::Object(members) = v else {
            panic!("{key}: not in an object")
        };
        v = members.get_mut(*key).unwrap_or_else(|| panic!("no {key}"));
    }
    v
}

#[test]
fn every_v1_record_agrees_with_its_runs() {
    let metrics = metrics();
    let (mut legacy, mut judged) = (Vec::new(), Vec::new());
    for (n, path) in records() {
        if n < FIRST_V1 {
            legacy.push(n);
            continue;
        }
        match judge(&read(&path), &metrics) {
            Ok(result) => judged.push((n, result)),
            Err(problems) => panic!("{}:\n{}", path.display(), problems.join("\n")),
        }
    }
    eprintln!("legacy records, not checked: {legacy:?}; judged: {judged:?}");
    assert_eq!(legacy.len(), 17, "BENCH_15 … BENCH_48 are legacy");
    let result = |n| {
        judged
            .iter()
            .find(|(m, _)| *m == n)
            .map(|(_, r)| r.as_str())
    };
    assert_eq!(result(50), Some(NO_CLAIM));
    assert_eq!(result(52), Some("met"));
}

#[test]
fn a_record_with_an_edited_median_is_refused() {
    let mut doc = record(50);
    let median = at(
        &mut doc,
        &[
            "workloads",
            "history_batch",
            "summary",
            "base_wall_ms",
            "parent_median",
        ],
    );
    *median = Value::from(median.as_f64().unwrap() + 0.01);
    let problems = judge(&doc, &metrics()).expect_err("an edited median");
    assert!(
        problems[0].contains("base_wall_ms.parent_median"),
        "{problems:?}"
    );
}

#[test]
fn a_record_with_a_flipped_pair_is_refused() {
    let mut doc = record(52);
    let path = |side| {
        let metric = "single_run_slowdown";
        ["workloads", "history_batch", "runs", side, "11", metric]
    };
    let parent = at(&mut doc, &path("parent")).clone();
    let change = at(&mut doc, &path("change")).clone();
    *at(&mut doc, &path("parent")) = change;
    *at(&mut doc, &path("change")) = parent;
    let problems = judge(&doc, &metrics()).expect_err("a flipped pair");
    assert!(
        problems.iter().any(|p| p.contains("change_lower_in")),
        "{problems:?}"
    );
}

#[test]
fn a_claim_the_pair_rule_refuses_cannot_read_met() {
    // BENCH_50's single run was lower in 8 of 10 pairs: short of 9.
    let mut doc = record(50);
    *at(&mut doc, &["claim"]) =
        serde_json::json!({"workload": "history_batch", "metric": "single_run_slowdown"});
    *at(&mut doc, &["claim_result"]) = Value::from("met");
    let problems = judge(&doc, &metrics()).expect_err("8 of 10 pairs");
    assert_eq!(
        problems,
        ["claim_result is Some(\"met\"), the pair rule gives \"not met\""]
    );
    *at(&mut doc, &["claim_result"]) = Value::from("not met");
    assert_eq!(judge(&doc, &metrics()).as_deref(), Ok("not met"));
}

#[test]
fn a_met_claim_must_read_met() {
    let mut doc = record(52);
    *at(&mut doc, &["claim_result"]) = Value::from("not met");
    assert!(judge(&doc, &metrics()).is_err());
}
