//! The benchmark tested on its small instances: seconds, not minutes.

use dc_benchmark::bench::{run, Options, END_TO_END_METRICS};
use dc_benchmark::layers::PER_LAYER_METRICS;
use dc_benchmark::octet_only::OctetOnly;
use dc_benchmark::subject::{setup, Config, Sizes, Subject};
use dc_benchmark::workloads::{self, NAMES};
use dc_core::{DcConfig, DoubleChecker, ObsLevel};
use dc_octet::CoordinationMode;
use dc_runtime::engine::det::{run_det, Schedule};
use dc_runtime::program::StartMode;
use dc_runtime::spec::AtomicitySpec;
use std::sync::atomic::Ordering;

/// The smallest instances, for both the timed and the verified size.
const SMALL: Sizes = Sizes {
    full: 8,
    small: 8,
    layers: 8,
};

#[test]
fn generators_validate_have_two_threads_and_are_a_function_of_the_seed() {
    for name in &NAMES[..3] {
        let size = workloads::small_size(name);
        let a = workloads::real(name, 11, size).unwrap();
        let b = workloads::real(name, 11, size).unwrap();
        let c = workloads::real(name, 12, size).unwrap();
        a.program.validate().unwrap();
        assert_eq!(a.program.threads.len(), 2, "{name}");
        assert!(a
            .program
            .threads
            .iter()
            .all(|t| t.start == StartMode::AtRunStart));
        assert_eq!(format!("{:?}", a.program), format!("{:?}", b.program));
        assert_ne!(format!("{:?}", a.program), format!("{:?}", c.program));
        // The seed moves what is touched, never how much.
        assert_eq!(
            workloads::dynamic_accesses(&a.program),
            workloads::dynamic_accesses(&c.program)
        );
        // Same methods at every size, so the small instance speaks for the
        // full one.
        let full = workloads::real(name, 11, workloads::full_size(name)).unwrap();
        assert_eq!(full.racy, a.racy);
        assert_eq!(full.locked, a.locked);
        assert!(a.racy.iter().all(|m| !a.locked.contains(m)));
    }
    let docs = workloads::history_batch(11, 8);
    assert_eq!(docs.len(), 8);
    assert_eq!(docs[0].json, workloads::history_batch(11, 8)[0].json);
    assert_ne!(docs[0].json, workloads::history_batch(12, 8)[0].json);
    assert!(docs.iter().any(|d| d.expect_violation));
    assert!(docs.iter().any(|d| !d.expect_violation));
}

#[test]
fn det_counts_repeat_exactly() {
    for name in NAMES {
        let a = setup(name, 11, SMALL, None).unwrap();
        let b = setup(name, 11, SMALL, None).unwrap();
        for config in [Config::ObsCounters, Config::Velodrome, Config::Aerodrome] {
            let (x, y) = (a.small.execute(config, None), b.small.execute(config, None));
            assert!(x.failures.is_empty(), "{name}: {:?}", x.failures);
            assert_eq!(x.counts, y.counts, "{name} {}", config.name());
            assert!(x.counts["accesses"] > 0);
        }
    }
}

#[test]
fn octet_only_takes_the_transitions_of_a_first_run() {
    for name in &NAMES[..3] {
        let wl = workloads::real(name, 11, workloads::small_size(name)).unwrap();
        let schedule = Schedule::random(11);
        let octet = OctetOnly::new(2, CoordinationMode::Immediate);
        run_det(&wl.program, &octet, &schedule).unwrap();
        let first = DoubleChecker::new(
            2,
            AtomicitySpec::all_atomic(),
            DcConfig::first_run(CoordinationMode::Immediate)
                .with_observability(ObsLevel::Counters)
                .with_pipelined(false),
        );
        run_det(&wl.program, &first, &schedule).unwrap();
        let report = first.pipeline_report().unwrap().octet;
        let s = octet.stats();
        let got = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        assert_eq!(
            (
                got(&s.first_touch),
                got(&s.upgrades),
                got(&s.fences),
                got(&s.conflicts)
            ),
            (
                report.first_touch,
                report.upgrades,
                report.fences,
                report.conflicts
            ),
            "{name}"
        );
        assert!(got(&s.conflicts) > 0, "{name} shares something");
    }
}

#[test]
fn setup_rejects_an_unknown_workload() {
    assert!(setup("nope", 1, SMALL, None).is_err());
}

#[test]
fn a_history_with_the_wrong_verdict_fails_its_run() {
    let mut prepared = setup("history_batch", 11, SMALL, None).unwrap();
    if let Subject::Histories { docs, .. } = &mut prepared.full {
        for doc in docs.iter_mut() {
            doc.expect_violation = !doc.expect_violation;
        }
    }
    let outcome = prepared.full.execute(Config::SingleRun, None);
    assert_eq!(outcome.failures.len() as u64, prepared.full.units());
    // A first run gives no verdict, so nothing binds it.
    assert!(prepared
        .full
        .execute(Config::FirstRun, None)
        .failures
        .is_empty());
}

/// The whole driver, both kinds of run, through the code path `main` uses.
#[test]
fn driver_end_to_end_at_small_size() {
    for name in NAMES {
        for trace in [false, true] {
            let options = Options {
                workload: name.to_string(),
                seed: 11,
                seconds: 0.2,
                trace,
            };
            let report = run(&options, SMALL).unwrap();
            assert!(report.correct(), "{name}: {}", report.text);
            assert!(report.attempted >= 3);
            let declared: Vec<_> = if trace {
                PER_LAYER_METRICS.iter().map(|d| (d.0, d.1)).collect()
            } else {
                END_TO_END_METRICS.iter().map(|d| (d.0, d.1)).collect()
            };
            let reported: Vec<_> = report.metrics.iter().map(|m| (m.0, m.2)).collect();
            assert_eq!(reported, declared, "{name}");
            for (metric, value, _) in &report.metrics {
                assert!(value.is_finite(), "{name} {metric} = {value}");
                assert!(trace || *value > 0.0, "{name} {metric} is never 0");
            }
            let line = serde_json::from_str(&report.result_line()).unwrap();
            let keys: Vec<_> = line.as_object().unwrap().keys().cloned().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(line.get("correct").unwrap().as_bool(), Some(true));
            assert_eq!(report.spans.is_empty(), !trace);
        }
    }
}

/// `BENCHMARK.json` at the repository root names exactly what the code
/// reports.
#[test]
fn benchmark_json_matches_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let declared = |defs: &[dc_benchmark::bench::MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.0.to_string(), d.1.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), declared(&END_TO_END_METRICS));
    assert_eq!(names("per_layer"), declared(&PER_LAYER_METRICS));
    let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
    assert_eq!(workloads, NAMES);
    for (key, defs) in [
        ("end_to_end", &END_TO_END_METRICS[..]),
        ("per_layer", &PER_LAYER_METRICS[..]),
    ] {
        for (m, def) in doc.get(key).unwrap().as_array().unwrap().iter().zip(defs) {
            let better = m.get("better").unwrap().as_str().unwrap();
            assert_eq!(better == "higher", def.2, "{}", def.0);
        }
    }
}
