//! The full benchmark suite, mirroring the paper's §5.1 program list.

use crate::builder::{Scale, Workload};
use crate::{dacapo, grande, micro};

/// Builds every benchmark analog at the given scale, in the paper's Table 2
/// row order.
pub fn all(scale: Scale) -> Vec<Workload> {
    vec![
        dacapo::eclipse6(scale),
        dacapo::hsqldb6(scale),
        dacapo::lusearch6(scale),
        dacapo::xalan6(scale),
        dacapo::avrora9(scale),
        dacapo::jython9(scale),
        dacapo::luindex9(scale),
        dacapo::lusearch9(scale),
        dacapo::pmd9(scale),
        dacapo::sunflow9(scale),
        dacapo::xalan9(scale),
        micro::elevator(scale),
        micro::hedc(scale),
        micro::philo(scale),
        micro::sor(scale),
        micro::tsp(scale),
        grande::moldyn(scale),
        grande::montecarlo(scale),
        grande::raytracer(scale),
    ]
}

/// Builds one benchmark by its paper name.
pub fn by_name(name: &str, scale: Scale) -> Option<Workload> {
    all(scale).into_iter().find(|w| w.name == name)
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
