//! Run reports: statistics (Table 3 columns), the static transaction
//! information passed between multi-run mode's two runs, and the JSON
//! encodings of both plus the observability report.

use dc_icd::SccReport;
use dc_obs::{HistogramSummary, PipelineReport, TraceEvent};
use dc_pcd::ReplayStats;
use dc_runtime::ids::MethodId;
use dc_runtime::spec::TxFilter;
use serde_json::Value;
use std::collections::HashSet;

/// Aggregated statistics of one DoubleChecker run (the Table 3 columns plus
/// analysis internals).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DcStats {
    /// Regular (non-unary) transactions.
    pub regular_txs: u64,
    /// Merged unary transactions.
    pub unary_txs: u64,
    /// Instrumented accesses inside regular transactions.
    pub regular_accesses: u64,
    /// Instrumented accesses in non-transactional context.
    pub unary_accesses: u64,
    /// Read/write log entries recorded (memory-cost proxy).
    pub log_entries: u64,
    /// Transactions reclaimed by the collector.
    pub collected_txs: u64,
    /// Cross-thread IDG edges.
    pub idg_cross_edges: u64,
    /// ICD SCCs detected.
    pub icd_sccs: u64,
    /// SCC reports handed to PCD.
    pub sccs_to_pcd: u64,
    /// Hot-path graph-mutex acquisitions: one per transaction boundary and
    /// one per edge procedure.
    pub graph_locks: u64,
    /// PCD replay statistics (not part of the JSON representation).
    pub pcd: ReplayStats,
}

impl From<DcStats> for Value {
    fn from(s: DcStats) -> Value {
        serde_json::json!({
            "regular_txs": s.regular_txs,
            "unary_txs": s.unary_txs,
            "regular_accesses": s.regular_accesses,
            "unary_accesses": s.unary_accesses,
            "log_entries": s.log_entries,
            "collected_txs": s.collected_txs,
            "idg_cross_edges": s.idg_cross_edges,
            "icd_sccs": s.icd_sccs,
            "sccs_to_pcd": s.sccs_to_pcd,
            "graph_locks": s.graph_locks,
        })
    }
}

fn histogram_json(h: HistogramSummary) -> Value {
    serde_json::json!({
        "count": h.count,
        "sum_ns": h.sum,
        "p50_ns": h.p50,
        "p90_ns": h.p90,
        "p99_ns": h.p99,
        "max_ns": h.max,
    })
}

/// Encodes a [`PipelineReport`] with a stable schema: fixed key set per
/// section, integers only (histogram percentiles are bucket upper bounds in
/// nanoseconds).
pub fn pipeline_report_to_json(r: &PipelineReport) -> Value {
    serde_json::json!({
        "level": r.level.as_str(),
        "octet": serde_json::json!({
            "first_touch": r.octet.first_touch,
            "upgrades": r.octet.upgrades,
            "fences": r.octet.fences,
            "conflicts": r.octet.conflicts,
            "coalesced": r.octet.coalesced,
            "cache_hits": r.octet.cache_hits,
            "cache_flushes": r.octet.cache_flushes,
        }),
        "graph": serde_json::json!({
            "sccs_skipped_trivial": r.graph.sccs_skipped_trivial,
            "scc_latency": histogram_json(r.graph.scc_latency),
            "collect_latency": histogram_json(r.graph.collect_latency),
        }),
        "replay": serde_json::json!({
            "latency": histogram_json(r.replay.latency),
            "violations": r.replay.violations,
        }),
        "trace_recorded": r.trace_recorded,
    })
}

/// Version of the `--stats-json` document, written as its top-level
/// `schema_version`. Bump it whenever a key is added, removed, renamed or
/// retyped; `dc-cli`'s golden key-path test fails until both agree.
pub const STATS_SCHEMA_VERSION: u64 = 4;

/// The `--stats-json` document: `schema_version`
/// ([`STATS_SCHEMA_VERSION`]) and the [`DcStats`] fields at the top level,
/// plus a `pipeline` member (the [`PipelineReport`] schema) — the same key
/// set at every observability level.
pub fn stats_to_json(stats: DcStats, pipeline: &PipelineReport) -> Value {
    let mut value = Value::from(stats);
    if let Value::Object(map) = &mut value {
        map.insert(
            "schema_version".to_string(),
            Value::from(STATS_SCHEMA_VERSION),
        );
        map.insert("pipeline".to_string(), pipeline_report_to_json(pipeline));
    }
    value
}

/// Encodes one trace event as a JSON-lines record (`--trace-out` format).
pub fn trace_event_to_json(e: &TraceEvent) -> Value {
    serde_json::json!({
        "seq": e.seq,
        "t_ns": e.t_ns,
        "stage": e.stage.as_str(),
        "kind": e.kind.as_str(),
        "value": e.value,
    })
}

/// The static transaction information the first run of multi-run mode
/// passes to the second run (paper §3.1): regular transactions in imprecise
/// cycles identified by their static starting location (method), plus one
/// boolean saying whether any unary transaction was in any cycle.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StaticTxInfo {
    /// Methods rooting regular transactions seen in imprecise cycles.
    pub methods: HashSet<MethodId>,
    /// True if any unary transaction participated in any imprecise cycle.
    pub any_unary: bool,
}

impl StaticTxInfo {
    /// Records the transactions of one detected SCC.
    pub fn absorb_scc(&mut self, scc: &SccReport) {
        for tx in &scc.txs {
            match tx.kind.method() {
                Some(m) => {
                    self.methods.insert(m);
                }
                None => self.any_unary = true,
            }
        }
    }

    /// Unions information from several first runs (paper §5.1: "the second
    /// run can take as input all transactions identified across multiple
    /// executions of the first run").
    pub fn union(&mut self, other: &StaticTxInfo) {
        self.methods.extend(other.methods.iter().copied());
        self.any_unary |= other.any_unary;
    }

    /// Converts into the checker-facing [`TxFilter`].
    pub fn to_filter(&self) -> TxFilter {
        TxFilter {
            methods: Some(self.methods.clone()),
            instrument_unary: self.any_unary,
        }
    }

    /// Serializes to the JSON text passed between multi-run mode's runs.
    /// Method ids are emitted sorted so the output is deterministic.
    pub fn to_json(&self) -> String {
        let mut methods: Vec<u32> = self.methods.iter().map(|m| m.0).collect();
        methods.sort_unstable();
        serde_json::json!({
            "methods": methods,
            "any_unary": self.any_unary,
        })
        .to_string()
    }

    /// Parses the JSON text produced by [`Self::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let obj = value.as_object().ok_or("expected a JSON object")?;
        let methods = obj
            .get("methods")
            .and_then(Value::as_array)
            .ok_or("missing 'methods' array")?
            .iter()
            .map(|v| {
                let raw = v.as_u64().ok_or("non-integer method id")?;
                u32::try_from(raw).map(MethodId).map_err(|e| e.to_string())
            })
            .collect::<Result<HashSet<MethodId>, String>>()?;
        let any_unary = obj
            .get("any_unary")
            .and_then(Value::as_bool)
            .ok_or("missing 'any_unary' bool")?;
        Ok(StaticTxInfo { methods, any_unary })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_icd::{TxId, TxKind};
    use dc_runtime::ids::ThreadId;

    fn scc(kinds: &[TxKind]) -> SccReport {
        let mut scc = SccReport::default();
        for (i, &kind) in kinds.iter().enumerate() {
            scc.push_tx(TxId(i as u64 + 1), ThreadId(i as u16), kind, 1, &[]);
        }
        scc
    }

    #[test]
    fn absorb_collects_methods_and_unary_flag() {
        let mut info = StaticTxInfo::default();
        info.absorb_scc(&scc(&[
            TxKind::Regular(MethodId(1)),
            TxKind::Regular(MethodId(2)),
        ]));
        assert_eq!(info.methods.len(), 2);
        assert!(!info.any_unary);
        info.absorb_scc(&scc(&[TxKind::Unary, TxKind::Regular(MethodId(1))]));
        assert!(info.any_unary);
        assert_eq!(info.methods.len(), 2);
    }

    #[test]
    fn union_merges_runs() {
        let mut a = StaticTxInfo {
            methods: [MethodId(1)].into_iter().collect(),
            any_unary: false,
        };
        let b = StaticTxInfo {
            methods: [MethodId(2)].into_iter().collect(),
            any_unary: true,
        };
        a.union(&b);
        assert_eq!(a.methods.len(), 2);
        assert!(a.any_unary);
    }

    #[test]
    fn filters_reflect_info() {
        let info = StaticTxInfo {
            methods: [MethodId(3)].into_iter().collect(),
            any_unary: false,
        };
        let f = info.to_filter();
        assert!(f.covers_method(MethodId(3)));
        assert!(!f.covers_method(MethodId(4)));
        assert!(!f.instrument_unary);
    }

    #[test]
    fn static_info_round_trips_through_json() {
        let info = StaticTxInfo {
            methods: [MethodId(7), MethodId(9)].into_iter().collect(),
            any_unary: true,
        };
        let json = info.to_json();
        let back = StaticTxInfo::from_json(&json).unwrap();
        assert_eq!(info, back);
    }
}
