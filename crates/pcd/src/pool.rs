//! A small worker pool that replays ICD SCC reports asynchronously, so PCD
//! runs off both the application threads and the pipeline's graph-owner
//! thread (paper §3.3 — PCD cost is proportional to SCCs, not to program
//! accesses, so a couple of background workers absorb it).
//!
//! Reports are submitted through cloneable [`ReplayHandle`]s; workers share
//! one channel, each accumulating violations and [`ReplayStats`] privately.
//! [`ReplayPool::drain`] closes the channel, joins the workers, and merges
//! their results, sorting violations by [`Violation::static_key`] so the
//! outcome is independent of which worker replayed which SCC.

use crate::replay::{replay_scc, ReplayStats};
use crate::violation::Violation;
use crossbeam::channel::{self, Receiver, Sender};
use dc_icd::SccReport;
use dc_obs::{EventKind, PipelineObs, Stage};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Handle for submitting SCC reports to a [`ReplayPool`]. Cheap to clone;
/// drop all handles before [`ReplayPool::drain`] or the drain will wait for
/// work that never arrives.
pub struct ReplayHandle {
    sender: Sender<SccReport>,
    obs: Option<Arc<PipelineObs>>,
}

impl Clone for ReplayHandle {
    fn clone(&self) -> Self {
        ReplayHandle {
            sender: self.sender.clone(),
            obs: self.obs.clone(),
        }
    }
}

impl std::fmt::Debug for ReplayHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayHandle").finish_non_exhaustive()
    }
}

impl ReplayHandle {
    /// Queues one SCC for replay. Reports submitted after the pool drained
    /// are dropped (the run is over).
    pub fn submit(&self, scc: SccReport) {
        if let Some(obs) = &self.obs {
            obs.replay.submitted.inc();
            obs.replay.queue_depth.inc();
            obs.trace(Stage::Replay, EventKind::ReplaySubmit, scc.len() as u64);
        }
        let _ = self.sender.send(scc);
    }
}

/// The worker pool. Owns one submission sender (see [`ReplayPool::handle`])
/// and the worker join handles.
pub struct ReplayPool {
    sender: Sender<SccReport>,
    workers: Vec<JoinHandle<(Vec<Violation>, ReplayStats)>>,
    obs: Option<Arc<PipelineObs>>,
}

impl std::fmt::Debug for ReplayPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayPool")
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl ReplayPool {
    /// Spawns a pool of `workers` replay threads (at least one).
    pub fn new(workers: usize) -> Self {
        Self::with_obs(workers, None)
    }

    /// Like [`ReplayPool::new`] with an optional observability registry;
    /// `None` runs exactly the uninstrumented code.
    pub fn with_obs(workers: usize, obs: Option<Arc<PipelineObs>>) -> Self {
        let (tx, rx) = channel::unbounded::<SccReport>();
        let workers = (0..workers.max(1))
            .map(|i| {
                let rx = rx.clone();
                let obs = obs.clone();
                std::thread::Builder::new()
                    .name(format!("dc-pcd-replay-{i}"))
                    .spawn(move || worker(rx, obs))
                    .expect("spawn PCD replay worker")
            })
            .collect();
        ReplayPool {
            sender: tx,
            workers,
            obs,
        }
    }

    /// A new submission handle.
    pub fn handle(&self) -> ReplayHandle {
        ReplayHandle {
            sender: self.sender.clone(),
            obs: self.obs.clone(),
        }
    }

    /// Closes the pool: waits for every submitted SCC to finish replaying,
    /// joins the workers, and returns the merged violations (sorted by
    /// static key, so the result is deterministic regardless of worker
    /// scheduling) and stats. Every [`ReplayHandle`] must already be
    /// dropped — with the ICD pipeline, drain it first: that stops the
    /// graph owner, which drops the SCC sink and its handle.
    pub fn drain(self) -> (Vec<Violation>, ReplayStats) {
        let ReplayPool {
            sender,
            workers,
            obs: _,
        } = self;
        drop(sender);
        let mut violations = Vec::new();
        let mut stats = ReplayStats::default();
        for w in workers {
            let (v, s) = w.join().expect("PCD replay worker panicked");
            violations.extend(v);
            stats.merge(s);
        }
        violations.sort_by_key(Violation::static_key);
        (violations, stats)
    }
}

fn worker(rx: Receiver<SccReport>, obs: Option<Arc<PipelineObs>>) -> (Vec<Violation>, ReplayStats) {
    let mut violations = Vec::new();
    let mut stats = ReplayStats::default();
    for scc in rx.iter() {
        let t0 = obs.as_ref().and_then(|o| o.clock());
        if let Some(obs) = &obs {
            obs.replay.queue_depth.dec();
        }
        let (v, s) = replay_scc(&scc);
        if let Some(obs) = &obs {
            obs.replay.latency.record_elapsed(t0);
            obs.replay.completed.inc();
            obs.replay.violations.add(v.len() as u64);
            obs.trace(Stage::Replay, EventKind::ReplayDone, v.len() as u64);
        }
        violations.extend(v);
        stats.merge(s);
    }
    (violations, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_icd::{LogEntry, ReplayConstraint, TxId, TxKind, TxSnapshot};
    use dc_runtime::ids::{MethodId, ObjId, ThreadId};

    /// The classic two-transaction cycle as an SCC report.
    fn racy_scc(base: u64) -> SccReport {
        let entry = |obj: u32, cell: u32, wr: bool| LogEntry::new(ObjId(obj), cell, wr, false);
        let tx = |id: u64, thread: u16, log: Vec<LogEntry>| TxSnapshot {
            id: TxId(id),
            thread: ThreadId(thread),
            kind: TxKind::Regular(MethodId(id as u32)),
            seq: 1,
            log: log.into(),
        };
        let constraint =
            |src: u64, src_thread: u16, src_pos: u32, dst: u64, dst_pos: u32| ReplayConstraint {
                dst: TxId(dst),
                dst_pos,
                src: TxId(src),
                src_thread: ThreadId(src_thread),
                src_seq: 1,
                src_pos,
            };
        SccReport {
            txs: vec![
                tx(base, 0, vec![entry(0, 0, true), entry(0, 1, false)]),
                tx(base + 1, 1, vec![entry(0, 0, false), entry(0, 1, true)]),
            ],
            edges: vec![],
            constraints: vec![
                constraint(base, 0, 1, base + 1, 0),
                constraint(base + 1, 1, 2, base, 1),
            ],
        }
    }

    #[test]
    fn pool_replays_submissions_and_merges_results() {
        let pool = ReplayPool::new(3);
        let handle = pool.handle();
        let second = handle.clone();
        for i in 0..8u64 {
            let h = if i % 2 == 0 { &handle } else { &second };
            h.submit(racy_scc(1 + i * 10));
        }
        drop(handle);
        drop(second);
        let (violations, stats) = pool.drain();
        assert_eq!(stats.txs, 16);
        assert_eq!(stats.cycles, 8);
        assert_eq!(violations.len(), 8);
    }

    #[test]
    fn drain_of_idle_pool_returns_empty() {
        let pool = ReplayPool::new(2);
        let (violations, stats) = pool.drain();
        assert!(violations.is_empty());
        assert_eq!(stats, ReplayStats::default());
    }
}
