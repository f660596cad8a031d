//! The full benchmark suite, mirroring the paper's §5.1 program list.

use crate::builder::{Scale, Workload};
use crate::{dacapo, grande, micro};

/// Builds one benchmark analog at a scale.
pub type Constructor = fn(Scale) -> Workload;

/// Every benchmark analog: its paper name and its constructor, in the
/// paper's Table 2 row order. [`all`] and [`by_name`] read this table, and
/// a front end checks a workload name against it without building anything.
pub const SUITE: &[(&str, Constructor)] = &[
    ("eclipse6", dacapo::eclipse6),
    ("hsqldb6", dacapo::hsqldb6),
    ("lusearch6", dacapo::lusearch6),
    ("xalan6", dacapo::xalan6),
    ("avrora9", dacapo::avrora9),
    ("jython9", dacapo::jython9),
    ("luindex9", dacapo::luindex9),
    ("lusearch9", dacapo::lusearch9),
    ("pmd9", dacapo::pmd9),
    ("sunflow9", dacapo::sunflow9),
    ("xalan9", dacapo::xalan9),
    ("elevator", micro::elevator),
    ("hedc", micro::hedc),
    ("philo", micro::philo),
    ("sor", micro::sor),
    ("tsp", micro::tsp),
    ("moldyn", grande::moldyn),
    ("montecarlo", grande::montecarlo),
    ("raytracer", grande::raytracer),
];

/// Builds every benchmark analog at the given scale, in the paper's Table 2
/// row order.
pub fn all(scale: Scale) -> Vec<Workload> {
    SUITE.iter().map(|(_, build)| build(scale)).collect()
}

/// Builds one benchmark by its paper name; only that one.
pub fn by_name(name: &str, scale: Scale) -> Option<Workload> {
    SUITE
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, build)| build(scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_nineteen_benchmarks_in_paper_order() {
        let suite = all(Scale::Tiny);
        assert_eq!(suite.len(), 19);
        assert_eq!(suite[0].name, "eclipse6");
        assert_eq!(suite[18].name, "raytracer");
        let names: std::collections::HashSet<_> = suite.iter().map(|w| w.name).collect();
        assert_eq!(names.len(), 19, "names are unique");
        let table: Vec<_> = SUITE.iter().map(|(name, _)| *name).collect();
        let built: Vec<_> = suite.iter().map(|w| w.name).collect();
        assert_eq!(table, built, "each row builds the workload it names");
    }

    #[test]
    fn every_benchmark_validates_at_every_scale() {
        for scale in [Scale::Tiny, Scale::Small, Scale::Full] {
            for (name, build) in SUITE {
                let wl = build(scale);
                let valid = wl.program.validate();
                assert_eq!(valid, Ok(()), "{name} at {scale:?}");
            }
        }
    }

    #[test]
    fn by_name_finds_each_benchmark() {
        for wl in all(Scale::Tiny) {
            assert!(by_name(wl.name, Scale::Tiny).is_some());
        }
        assert!(by_name("nonexistent", Scale::Tiny).is_none());
    }

    #[test]
    fn every_benchmark_runs_under_the_deterministic_engine() {
        for wl in all(Scale::Tiny) {
            let stats = dc_runtime::engine::det::run_det(
                &wl.program,
                &dc_runtime::checker::NopChecker,
                &dc_runtime::engine::det::Schedule::random(11),
            )
            .unwrap_or_else(|e| panic!("{} failed: {e}", wl.name));
            assert!(stats.total_accesses() > 0, "{} does work", wl.name);
        }
    }

    #[test]
    fn every_benchmark_runs_on_real_threads() {
        for wl in all(Scale::Tiny) {
            let stats =
                dc_runtime::engine::real::run_real(&wl.program, &dc_runtime::checker::NopChecker);
            assert!(stats.total_accesses() > 0, "{} does work", wl.name);
        }
    }
}
