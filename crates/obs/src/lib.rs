//! `dc-obs` — the observability layer of the DoubleChecker reproduction.
//!
//! It makes one checker run auditable stage by stage (in the spirit of the
//! per-stage accounting that Fast Atomicity Monitoring and RegionTrack use
//! to back their overhead claims): Octet transitions by kind, SCC probes
//! skipped vs. run vs. reported, SCCs replayed and violations found, stage
//! latency distributions, and a bounded trace of analysis events. It is
//! entirely self-contained (no dependencies, not even the workspace shims)
//! so every analysis crate can use it without widening the dependency
//! policy.
//!
//! # Levels
//!
//! * [`ObsLevel::Off`] — nothing is allocated; [`PipelineObs::new`] returns
//!   `None` and every call site holding an `Option<Arc<PipelineObs>>`
//!   short-circuits on `None`. The hot path is exactly the uninstrumented
//!   code.
//! * [`ObsLevel::Counters`] — counters (relaxed atomic RMWs, no clock
//!   reads). Histograms and the trace ring stay inert.
//! * [`ObsLevel::Full`] — everything: stage latency histograms (which cost
//!   two `Instant::now` reads per timed operation) and the trace ring.
//!
//! The cardinal rule, enforced by the differential test suite: no level may
//! ever change checker *results* — violations, static transaction info, and
//! run statistics must be bit-identical with observability off.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod metrics;
mod ring;

pub use metrics::{Counter, Histogram, HistogramSummary};
pub use ring::{EventKind, Stage, TraceEvent, TraceRing};

use std::sync::Arc;
use std::time::Instant;

/// How much the observability layer records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ObsLevel {
    /// No-op: no registry is allocated at all.
    #[default]
    Off,
    /// Counters only (no clock reads).
    Counters,
    /// Counters, stage latency histograms, and the trace ring.
    Full,
}

impl ObsLevel {
    /// Parses `off` / `counters` / `full`.
    pub fn parse(s: &str) -> Option<ObsLevel> {
        match s {
            "off" => Some(ObsLevel::Off),
            "counters" => Some(ObsLevel::Counters),
            "full" => Some(ObsLevel::Full),
            _ => None,
        }
    }

    /// Stable lower-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            ObsLevel::Off => "off",
            ObsLevel::Counters => "counters",
            ObsLevel::Full => "full",
        }
    }
}

/// Octet-layer metrics: slow-path state transitions by kind. The uncached
/// same-state fast path is deliberately uncounted — it must stay
/// write-free; inline-cache hit/flush tallies accrue thread-locally and
/// fold in once per thread at thread end.
#[derive(Debug, Default)]
pub struct OctetMetrics {
    /// First-touch claims of free objects.
    pub first_touch: Counter,
    /// Upgrading transitions (`RdEx→WrEx` and `RdEx→RdSh`).
    pub upgrades: Counter,
    /// Fence transitions on read-shared objects.
    pub fences: Counter,
    /// Conflicting transitions (coordination protocol runs).
    pub conflicts: Counter,
    /// Extra conflicting requests folded into a coalesced safe-point drain
    /// (`drained - 1` per multi-request drain).
    pub coalesced: Counter,
    /// Ownership-inline-cache hits (state-word load elided; folded at
    /// thread end).
    pub cache_hits: Counter,
    /// Ownership-inline-cache flushes of a non-empty cache (folded at
    /// thread end).
    pub cache_flushes: Counter,
}

/// ICD dependence-graph metrics.
#[derive(Debug, Default)]
pub struct GraphMetrics {
    /// SCCs (≥ 2 transactions) detected by Tarjan.
    pub sccs_detected: Counter,
    /// Transaction finishes where the trivial pre-filter (no incoming or no
    /// outgoing edge) skipped the Tarjan traversal entirely.
    pub sccs_skipped_trivial: Counter,
    /// Tarjan SCC detection latency per transaction finish (ns).
    pub scc_latency: Histogram,
    /// Transaction-collector pass latency (ns).
    pub collect_latency: Histogram,
}

/// PCD replay metrics.
#[derive(Debug, Default)]
pub struct ReplayMetrics {
    /// SCC reports replayed.
    pub completed: Counter,
    /// Per-SCC replay latency (ns).
    pub latency: Histogram,
    /// Precise violations found by replay.
    pub violations: Counter,
}

/// Checker lifecycle metrics.
#[derive(Debug, Default)]
pub struct CheckerMetrics {
    /// `run_begin` invocations.
    pub runs_begun: Counter,
    /// `run_end` invocations.
    pub runs_ended: Counter,
}

/// The observability registry one checker instance threads through Octet,
/// ICD, PCD replay, and its own lifecycle hooks.
#[derive(Debug)]
pub struct PipelineObs {
    level: ObsLevel,
    /// Octet state transitions.
    pub octet: OctetMetrics,
    /// ICD dependence graph.
    pub graph: GraphMetrics,
    /// PCD replay.
    pub replay: ReplayMetrics,
    /// Checker lifecycle.
    pub checker: CheckerMetrics,
    trace: TraceRing,
}

/// Trace-ring capacity (slots).
const TRACE_CAPACITY: usize = 4096;

impl PipelineObs {
    /// Creates a registry for `level`, or `None` for [`ObsLevel::Off`] —
    /// callers hold an `Option<Arc<PipelineObs>>`, so `off` costs exactly
    /// one pointer test at each instrumentation site.
    pub fn new(level: ObsLevel) -> Option<Arc<PipelineObs>> {
        match level {
            ObsLevel::Off => None,
            _ => Some(Arc::new(PipelineObs {
                level,
                octet: OctetMetrics::default(),
                graph: GraphMetrics::default(),
                replay: ReplayMetrics::default(),
                checker: CheckerMetrics::default(),
                trace: TraceRing::new(TRACE_CAPACITY),
            })),
        }
    }

    /// A timing origin for a latency histogram — `Some` only at
    /// [`ObsLevel::Full`], so [`Histogram::record_elapsed`] is a no-op at
    /// `Counters` and no clock is ever read.
    #[inline]
    pub fn clock(&self) -> Option<Instant> {
        match self.level {
            ObsLevel::Full => Some(Instant::now()),
            _ => None,
        }
    }

    /// Records a trace event ([`ObsLevel::Full`] only).
    #[inline]
    pub fn trace(&self, stage: Stage, kind: EventKind, value: u64) {
        if self.level == ObsLevel::Full {
            self.trace.record(stage, kind, value);
        }
    }

    /// The trace ring's current contents, oldest first.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace.snapshot()
    }

    /// Snapshots every metric into a plain-data [`PipelineReport`].
    pub fn report(&self) -> PipelineReport {
        PipelineReport {
            level: self.level,
            octet: OctetReport {
                first_touch: self.octet.first_touch.get(),
                upgrades: self.octet.upgrades.get(),
                fences: self.octet.fences.get(),
                conflicts: self.octet.conflicts.get(),
                coalesced: self.octet.coalesced.get(),
                cache_hits: self.octet.cache_hits.get(),
                cache_flushes: self.octet.cache_flushes.get(),
            },
            graph: GraphReport {
                sccs_detected: self.graph.sccs_detected.get(),
                sccs_skipped_trivial: self.graph.sccs_skipped_trivial.get(),
                scc_latency: self.graph.scc_latency.summary(),
                collect_latency: self.graph.collect_latency.summary(),
            },
            replay: ReplayReport {
                completed: self.replay.completed.get(),
                latency: self.replay.latency.summary(),
                violations: self.replay.violations.get(),
            },
            checker: CheckerReport {
                runs_begun: self.checker.runs_begun.get(),
                runs_ended: self.checker.runs_ended.get(),
            },
            trace_recorded: self.trace.recorded(),
        }
    }
}

/// Octet section of a [`PipelineReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OctetReport {
    /// First-touch claims.
    pub first_touch: u64,
    /// Upgrading transitions.
    pub upgrades: u64,
    /// Fence transitions.
    pub fences: u64,
    /// Conflicting transitions.
    pub conflicts: u64,
    /// Requests folded into coalesced drains.
    pub coalesced: u64,
    /// Ownership-inline-cache hits.
    pub cache_hits: u64,
    /// Ownership-inline-cache flushes (non-empty only).
    pub cache_flushes: u64,
}

/// Graph section of a [`PipelineReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphReport {
    /// SCCs detected.
    pub sccs_detected: u64,
    /// Tarjan traversals skipped by the trivial pre-filter.
    pub sccs_skipped_trivial: u64,
    /// SCC-detection latency.
    pub scc_latency: HistogramSummary,
    /// Collector-pass latency.
    pub collect_latency: HistogramSummary,
}

/// Replay section of a [`PipelineReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// SCCs replayed.
    pub completed: u64,
    /// Per-SCC replay latency.
    pub latency: HistogramSummary,
    /// Violations found.
    pub violations: u64,
}

/// Checker section of a [`PipelineReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckerReport {
    /// Runs begun.
    pub runs_begun: u64,
    /// Runs ended.
    pub runs_ended: u64,
}

/// A plain-data, stable-schema snapshot of every metric — all `u64`, so
/// reports are `Eq`-comparable and serialize without floating-point noise.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineReport {
    /// The level the registry ran at.
    pub level: ObsLevel,
    /// Octet state transitions.
    pub octet: OctetReport,
    /// Dependence graph.
    pub graph: GraphReport,
    /// PCD replay.
    pub replay: ReplayReport,
    /// Checker lifecycle.
    pub checker: CheckerReport,
    /// Total trace events recorded.
    pub trace_recorded: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_allocates_nothing() {
        assert!(PipelineObs::new(ObsLevel::Off).is_none());
    }

    #[test]
    fn counters_level_disables_clock_and_trace() {
        let obs = PipelineObs::new(ObsLevel::Counters).unwrap();
        assert!(obs.clock().is_none());
        obs.trace(Stage::Graph, EventKind::SccDetected, 2);
        assert_eq!(obs.report().trace_recorded, 0);
        obs.graph.sccs_detected.inc();
        assert_eq!(obs.report().graph.sccs_detected, 1);
    }

    #[test]
    fn full_level_enables_clock_and_trace() {
        let obs = PipelineObs::new(ObsLevel::Full).unwrap();
        assert!(obs.clock().is_some());
        obs.trace(Stage::Replay, EventKind::ReplaySubmit, 2);
        assert_eq!(obs.report().trace_recorded, 1);
        assert_eq!(obs.trace_events()[0].value, 2);
    }

    #[test]
    fn report_snapshots_all_sections() {
        let obs = PipelineObs::new(ObsLevel::Full).unwrap();
        obs.octet.conflicts.add(3);
        obs.graph.sccs_skipped_trivial.add(5);
        obs.replay.completed.inc();
        obs.replay.latency.record(1000);
        obs.checker.runs_begun.inc();
        let r = obs.report();
        assert_eq!(r.level, ObsLevel::Full);
        assert_eq!(r.octet.conflicts, 3);
        assert_eq!(r.graph.sccs_skipped_trivial, 5);
        assert_eq!(r.replay.completed, 1);
        assert_eq!(r.replay.latency.count, 1);
        assert_eq!(r.checker.runs_begun, 1);
    }

    #[test]
    fn level_round_trips_through_names() {
        for level in [ObsLevel::Off, ObsLevel::Counters, ObsLevel::Full] {
            assert_eq!(ObsLevel::parse(level.as_str()), Some(level));
        }
        assert_eq!(ObsLevel::parse("verbose"), None);
    }
}
