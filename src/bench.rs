//! Benchmark records: schema v1 of the `BENCH_<n>.json` files at the
//! repository root, the summary of alternating parent/change runs, and the
//! pair rule that decides a claimed gain (EXPERIMENTS.md, "Benchmark
//! records").
//!
//! A v1 record holds, per workload, the raw result of every run of the
//! benchmark contract on both sides (`workloads.<w>.runs.{parent,change}.
//! <seed>.<metric>`), a `summary` per end-to-end metric, the `claim` (a
//! workload and metric, or `null`) and the `claim_result`. [`judge`]
//! recomputes every summary from the runs and the claim's result from the
//! rule; [`record`] writes a record the judge accepts.

use serde_json::Value;
use std::collections::BTreeMap;

/// The first record number written in schema v1; the records before it
/// use older shapes and are legacy.
pub const FIRST_V1: u32 = 50;

/// The claimed metric must be better in at least this share of the pairs…
const WIN_SHARE: f64 = 0.9;
/// …of at least this many pairs.
const MIN_PAIRS: usize = 10;

/// `claim_result` of a record that claims nothing.
pub const NO_CLAIM: &str = "no gain claimed";

/// One end-to-end metric of the contract (`BENCHMARK.json`).
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The metric's key in a run's result.
    pub name: String,
    /// Whether a lower value is better.
    pub lower_is_better: bool,
    /// How much worse, as a fraction of the parent's median, the change's
    /// median may be.
    pub bound: f64,
}

/// The end-to-end metrics the contract `BENCHMARK.json` declares.
///
/// # Errors
///
/// A message naming what the contract lacks.
pub fn contract_metrics(contract: &Value) -> Result<Vec<Metric>, String> {
    let list = contract
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("the contract has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let better = m.get("better").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better @ ("lower" | "higher")), Some(bound)) => Ok(Metric {
                    name: name.to_string(),
                    lower_is_better: better == "lower",
                    bound,
                }),
                _ => Err(format!("malformed end-to-end metric {m}")),
            }
        })
        .collect()
}

/// The median of `xs` (the mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The interquartile range of `xs`, its quartiles interpolated linearly
/// between closest ranks (numpy's default, Python's `inclusive`).
pub fn iqr(xs: &[f64]) -> f64 {
    quantile(xs, 0.75) - quantile(xs, 0.25)
}

fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// One metric over paired runs: pair `i` is `parent[i]` against
/// `change[i]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// The parent's median.
    pub parent_median: f64,
    /// The parent's interquartile range: the noise a gap must clear.
    pub parent_iqr: f64,
    /// The change's median.
    pub change_median: f64,
    /// Pairs in which the change was strictly lower (a tie counts for
    /// neither side).
    pub change_lower_in: usize,
    /// Pairs in which the change was strictly higher.
    pub change_higher_in: usize,
    /// Number of pairs.
    pub pairs: usize,
}

impl Summary {
    /// Summarizes paired runs; the two slices have one value per pair.
    pub fn of(parent: &[f64], change: &[f64]) -> Summary {
        assert_eq!(parent.len(), change.len(), "one value per side per pair");
        assert!(!parent.is_empty(), "no pairs");
        let pairs = parent.iter().zip(change);
        Summary {
            parent_median: median(parent),
            parent_iqr: iqr(parent),
            change_median: median(change),
            change_lower_in: pairs.clone().filter(|(p, c)| c < p).count(),
            change_higher_in: pairs.filter(|(p, c)| c > p).count(),
            pairs: parent.len(),
        }
    }

    /// The change's median against the parent's, in percent.
    pub fn change_vs_parent_pct(&self) -> f64 {
        (self.change_median / self.parent_median - 1.0) * 100.0
    }

    /// Pairs in which the change was better.
    fn better_in(&self, metric: &Metric) -> usize {
        if metric.lower_is_better {
            self.change_lower_in
        } else {
            self.change_higher_in
        }
    }

    /// How far the change's median is better than the parent's.
    fn gain(&self, metric: &Metric) -> f64 {
        let gap = self.parent_median - self.change_median;
        if metric.lower_is_better {
            gap
        } else {
            -gap
        }
    }

    /// Whether the change's median is no worse than the metric's bound
    /// allows.
    fn inside_bound(&self, metric: &Metric) -> bool {
        self.gain(metric) >= -metric.bound * self.parent_median.abs()
    }

    /// The record's form: medians and IQR to 4 decimals, the percentage to
    /// 2, the lower-in count as `k/n`.
    pub fn to_json(&self) -> Value {
        serde_json::json!({
            "parent_median": round(self.parent_median, 4),
            "parent_iqr": round(self.parent_iqr, 4),
            "change_median": round(self.change_median, 4),
            "change_vs_parent_pct": round(self.change_vs_parent_pct(), 2),
            "change_lower_in": format!("{}/{}", self.change_lower_in, self.pairs),
        })
    }
}

fn round(x: f64, decimals: i32) -> f64 {
    let scale = 10f64.powi(decimals);
    (x * scale).round() / scale
}

/// One side's runs of a workload: seed → the run's result (`failed` and
/// every end-to-end metric).
pub type Runs = BTreeMap<String, BTreeMap<String, f64>>;

/// The runs of both sides of one workload, paired by seed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Sides {
    /// Runs at the parent commit.
    pub parent: Runs,
    /// Runs of the change.
    pub change: Runs,
}

impl Sides {
    /// `metric`'s summary over the seeds both sides ran.
    ///
    /// # Errors
    ///
    /// Names the seeds one side lacks and the runs without the metric.
    pub fn summary(&self, metric: &str) -> Result<Summary, String> {
        if !self.parent.keys().eq(self.change.keys()) {
            return Err("the two sides ran different seeds".to_string());
        }
        if self.parent.is_empty() {
            return Err("no runs".to_string());
        }
        let side = |runs: &Runs| -> Result<Vec<f64>, String> {
            let values = runs.iter().map(|(seed, run)| {
                run.get(metric)
                    .copied()
                    .ok_or_else(|| format!("seed {seed} has no {metric}"))
            });
            values.collect()
        };
        Ok(Summary::of(&side(&self.parent)?, &side(&self.change)?))
    }

    /// Failed operations over every run of both sides.
    fn failed(&self) -> f64 {
        let runs = self.parent.values().chain(self.change.values());
        runs.map(|run| run.get("failed").copied().unwrap_or(f64::NAN))
            .sum()
    }
}

/// A claimed gain: `metric` on `workload`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Claim {
    /// The workload the gain is claimed on.
    pub workload: String,
    /// The end-to-end metric claimed better.
    pub metric: String,
}

/// The pair rule: `claim`'s result over `workloads` — `"met"` when the
/// claimed metric is better in at least 9 of 10 pairs (at least 10 pairs),
/// its median gap exceeds the parent's IQR, every other metric on every
/// workload stays inside its bound and no run failed an operation; `"not
/// met"` otherwise; [`NO_CLAIM`] without a claim.
///
/// # Errors
///
/// A claim on a workload the record lacks or on a metric that is not an
/// end-to-end metric of the contract (a per-layer reading is one sample
/// per run and cannot carry a claim), and any summary error.
pub fn decide(
    workloads: &BTreeMap<String, Sides>,
    claim: Option<&Claim>,
    metrics: &[Metric],
) -> Result<&'static str, String> {
    let Some(claim) = claim else {
        return Ok(NO_CLAIM);
    };
    let claimed = metrics
        .iter()
        .find(|m| m.name == claim.metric)
        .ok_or_else(|| format!("{} is not an end-to-end metric", claim.metric))?;
    let sides = workloads
        .get(&claim.workload)
        .ok_or_else(|| format!("no runs of the claimed workload {}", claim.workload))?;
    let s = sides.summary(&claimed.name)?;
    let mut met = s.pairs >= MIN_PAIRS
        && s.better_in(claimed) as f64 >= WIN_SHARE * s.pairs as f64
        && s.gain(claimed) > s.parent_iqr;
    for (workload, sides) in workloads {
        met &= sides.failed() == 0.0;
        for metric in metrics {
            if (workload, &metric.name) != (&claim.workload, &claim.metric) {
                met &= sides.summary(&metric.name)?.inside_bound(metric);
            }
        }
    }
    Ok(if met { "met" } else { "not met" })
}

/// Writes a v1 record: `meta`'s fields (issue, title, command, host, …),
/// then per workload its pair count, summaries and runs, the claim and the
/// result the rule gives it.
///
/// # Errors
///
/// See [`decide`].
pub fn record(
    meta: BTreeMap<String, Value>,
    workloads: &BTreeMap<String, Sides>,
    claim: Option<&Claim>,
    metrics: &[Metric],
) -> Result<Value, String> {
    let runs_json = |runs: &Runs| {
        let runs = runs.iter().map(|(seed, run)| {
            let run = run.iter().map(|(k, v)| (k.clone(), Value::from(*v)));
            (seed.clone(), Value::Object(run.collect()))
        });
        Value::Object(runs.collect())
    };
    let mut out = BTreeMap::new();
    for (name, sides) in workloads {
        let mut summary = BTreeMap::new();
        for metric in metrics {
            let s = sides.summary(&metric.name)?;
            summary.insert(metric.name.clone(), s.to_json());
        }
        let runs = serde_json::json!({
            "parent": runs_json(&sides.parent),
            "change": runs_json(&sides.change),
        });
        let workload = serde_json::json!({
            "pairs": sides.parent.len(),
            "summary": Value::Object(summary),
            "runs": runs,
        });
        out.insert(name.clone(), workload);
    }
    let mut doc = meta;
    doc.insert("workloads".to_string(), Value::Object(out));
    let claim_json = claim.map_or(
        Value::Null,
        |c| serde_json::json!({"workload": c.workload.as_str(), "metric": c.metric.as_str()}),
    );
    doc.insert("claim".to_string(), claim_json);
    let result = decide(workloads, claim, metrics)?;
    doc.insert("claim_result".to_string(), Value::from(result));
    Ok(Value::Object(doc))
}

/// Checks a v1 record: every summary against the one recomputed from its
/// runs (to the record's rounding), every run's `failed` and metrics, and
/// `claim_result` against the pair rule. Returns the confirmed result.
///
/// # Errors
///
/// Every disagreement found, one message each.
pub fn judge(doc: &Value, metrics: &[Metric]) -> Result<String, Vec<String>> {
    let mut problems = Vec::new();
    let mut workloads = BTreeMap::new();
    let Some(listed) = doc.get("workloads").and_then(Value::as_object) else {
        return Err(vec!["no workloads object".to_string()]);
    };
    for (name, w) in listed {
        match judge_workload(w, metrics) {
            Ok(sides) => {
                workloads.insert(name.clone(), sides);
            }
            Err(found) => problems.extend(found.into_iter().map(|p| format!("{name}: {p}"))),
        }
    }
    let claim = match doc.get("claim") {
        Some(Value::Null) => None,
        Some(c) => match (
            c.get("workload").and_then(Value::as_str),
            c.get("metric").and_then(Value::as_str),
        ) {
            (Some(workload), Some(metric)) => Some(Claim {
                workload: workload.to_string(),
                metric: metric.to_string(),
            }),
            _ => {
                problems.push(format!("malformed claim {c}"));
                None
            }
        },
        None => {
            problems.push("no claim (null when nothing is claimed)".to_string());
            None
        }
    };
    let stated = doc.get("claim_result").and_then(Value::as_str);
    if problems.is_empty() {
        match decide(&workloads, claim.as_ref(), metrics) {
            Ok(rule) if stated == Some(rule) => return Ok(rule.to_string()),
            Ok(rule) => problems.push(format!(
                "claim_result is {stated:?}, the pair rule gives {rule:?}"
            )),
            Err(e) => problems.push(e),
        }
    }
    Err(problems)
}

/// One workload's runs, with its pair count and summaries checked.
fn judge_workload(w: &Value, metrics: &[Metric]) -> Result<Sides, Vec<String>> {
    let mut problems = Vec::new();
    let side = |name: &str, problems: &mut Vec<String>| -> Runs {
        let Some(runs) = w
            .get("runs")
            .and_then(|r| r.get(name))
            .and_then(Value::as_object)
        else {
            problems.push(format!("no {name} runs"));
            return Runs::new();
        };
        let mut out = Runs::new();
        for (seed, run) in runs {
            let mut values = BTreeMap::new();
            for key in std::iter::once("failed").chain(metrics.iter().map(|m| m.name.as_str())) {
                match run.get(key).and_then(Value::as_f64) {
                    Some(v) => {
                        values.insert(key.to_string(), v);
                    }
                    None => problems.push(format!("{name} run {seed} has no {key}")),
                }
            }
            out.insert(seed.clone(), values);
        }
        out
    };
    let sides = Sides {
        parent: side("parent", &mut problems),
        change: side("change", &mut problems),
    };
    if !problems.is_empty() {
        return Err(problems);
    }
    let pairs = w.get("pairs").and_then(Value::as_u64);
    if pairs != Some(sides.parent.len() as u64) {
        problems.push(format!(
            "pairs is {pairs:?}, the runs hold {}",
            sides.parent.len()
        ));
    }
    for metric in metrics {
        let recomputed = match sides.summary(&metric.name) {
            Ok(s) => s.to_json(),
            Err(e) => {
                problems.push(e);
                continue;
            }
        };
        let stored = w.get("summary").and_then(|s| s.get(&metric.name));
        for (key, want) in recomputed.as_object().into_iter().flatten() {
            let got = stored.and_then(|s| s.get(key));
            let agrees = match (got, want) {
                (Some(Value::Number(got)), Value::Number(want)) => {
                    let places = if key == "change_vs_parent_pct" { 2 } else { 4 };
                    (got - want).abs() <= 0.5 * 10f64.powi(-places) + 1e-9
                }
                (got, want) => got == Some(want),
            };
            if !agrees {
                problems.push(format!(
                    "summary {}.{key} is {}, the runs give {want}",
                    metric.name,
                    got.map_or("missing".to_string(), Value::to_string)
                ));
            }
        }
    }
    if problems.is_empty() {
        Ok(sides)
    } else {
        Err(problems)
    }
}

/// `v` as indented JSON, one space per level, keys in order.
pub fn pretty(v: &Value) -> String {
    let mut out = String::new();
    write_pretty(v, 0, &mut out);
    out.push('\n');
    out
}

fn write_pretty(v: &Value, depth: usize, out: &mut String) {
    let (open, close, items): (char, char, Vec<(Option<&String>, &Value)>) = match v {
        Value::Array(a) if !a.is_empty() => ('[', ']', a.iter().map(|x| (None, x)).collect()),
        Value::Object(o) if !o.is_empty() => {
            ('{', '}', o.iter().map(|(k, x)| (Some(k), x)).collect())
        }
        leaf => {
            out.push_str(&leaf.to_string());
            return;
        }
    };
    out.push(open);
    for (i, (key, item)) in items.into_iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&" ".repeat(depth + 1));
        if let Some(key) = key {
            out.push_str(&Value::from(key).to_string());
            out.push_str(": ");
        }
        write_pretty(item, depth + 1, out);
    }
    out.push('\n');
    out.push_str(&" ".repeat(depth));
    out.push(close);
}
