//! `dc-obs` — the observability layer of the DoubleChecker reproduction.
//!
//! It makes one checker run auditable stage by stage (in the spirit of the
//! per-stage accounting that Fast Atomicity Monitoring and RegionTrack use
//! to back their overhead claims): stage latency distributions and a
//! bounded trace of analysis events, beside a plain-data report whose
//! counts (Octet transitions by kind, SCC probes skipped, violations
//! found) are the analysis' own statistics. It is entirely self-contained
//! (no dependencies, not even the workspace shims) so every analysis crate
//! can use it without widening the dependency policy.
//!
//! # Levels
//!
//! * [`ObsLevel::Off`] — no registry; [`PipelineObs::new`] returns `None`
//!   and every call site holding an `Option<Arc<PipelineObs>>`
//!   short-circuits on `None`. The hot path is exactly the uninstrumented
//!   code. The checker still reports the counts: a [`PipelineReport`] is
//!   built from statistics the analysis keeps anyway.
//! * [`ObsLevel::Full`] — a registry: stage latency histograms (two
//!   `Instant::now` reads per timed operation) and the trace ring.
//!
//! The cardinal rule, enforced by the differential test suite: no level may
//! ever change checker *results* — violations, static transaction info, and
//! run statistics must be bit-identical with observability off.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod metrics;
mod ring;

pub use metrics::{Histogram, HistogramSummary};
pub use ring::{EventKind, Stage, TraceEvent, TraceRing};

use std::sync::Arc;

/// How much the observability layer records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ObsLevel {
    /// The analysis' statistics only: no registry, no clock reads.
    #[default]
    Off,
    /// The statistics plus stage latency histograms and the trace ring.
    Full,
}

impl ObsLevel {
    /// The level `counters` used to name, which ran the `Off` hot path: the
    /// frozen benchmark still writes it. Remove with ROADMAP 1(a).
    #[doc(hidden)]
    #[allow(non_upper_case_globals)]
    pub const Counters: ObsLevel = ObsLevel::Off;

    /// Stable lower-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            ObsLevel::Off => "off",
            ObsLevel::Full => "full",
        }
    }
}

/// The observability registry one checker instance threads through Octet,
/// ICD, PCD replay, and its own lifecycle hooks: three latency histograms
/// and the trace ring. It exists only at [`ObsLevel::Full`]; every count a
/// [`PipelineReport`] carries is the analysis' own statistic, read when the
/// report is built.
#[derive(Debug)]
pub struct PipelineObs {
    /// Tarjan SCC detection latency per transaction finish (ns).
    pub scc_latency: Histogram,
    /// Transaction-collector pass latency (ns).
    pub collect_latency: Histogram,
    /// Per-SCC replay latency (ns).
    pub replay_latency: Histogram,
    trace: TraceRing,
}

/// Trace-ring capacity (events).
const TRACE_CAPACITY: usize = 4096;

impl PipelineObs {
    /// Creates a registry at [`ObsLevel::Full`], or `None` at `Off` —
    /// callers hold an `Option<Arc<PipelineObs>>`, so `off` costs exactly
    /// one pointer test at each instrumentation site.
    pub fn new(level: ObsLevel) -> Option<Arc<PipelineObs>> {
        (level == ObsLevel::Full).then(|| {
            Arc::new(PipelineObs {
                scc_latency: Histogram::default(),
                collect_latency: Histogram::default(),
                replay_latency: Histogram::default(),
                trace: TraceRing::new(TRACE_CAPACITY),
            })
        })
    }

    /// Records a trace event.
    #[inline]
    pub fn trace(&self, stage: Stage, kind: EventKind, value: u64) {
        self.trace.record(stage, kind, value);
    }

    /// The trace ring's current contents, oldest first.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace.snapshot()
    }

    /// Total trace events recorded.
    pub fn trace_recorded(&self) -> u64 {
        self.trace.recorded()
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
    /// Per-SCC replay latency.
    pub latency: HistogramSummary,
    /// Violations found.
    pub violations: u64,
}

/// A plain-data, stable-schema snapshot of one run — all `u64`, so reports
/// are `Eq`-comparable and serialize without floating-point noise. The
/// checker builds it at report time: counts from its own statistics,
/// latencies and `trace_recorded` from the registry (zero at `Off`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineReport {
    /// The level the checker ran at.
    pub level: ObsLevel,
    /// Octet state transitions.
    pub octet: OctetReport,
    /// Dependence graph.
    pub graph: GraphReport,
    /// PCD replay.
    pub replay: ReplayReport,
    /// Total trace events recorded.
    pub trace_recorded: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn only_full_allocates() {
        assert!(PipelineObs::new(ObsLevel::Off).is_none());
        assert!(PipelineObs::new(ObsLevel::Full).is_some());
    }

    #[test]
    fn full_level_clocks_and_traces() {
        let obs = PipelineObs::new(ObsLevel::Full).unwrap();
        obs.replay_latency.record_elapsed(Instant::now());
        assert_eq!(obs.replay_latency.summary().count, 1);
        obs.trace(Stage::Replay, EventKind::ReplaySubmit, 2);
        assert_eq!(obs.trace_recorded(), 1);
        assert_eq!(obs.trace_events()[0].value, 2);
    }
}
