//! Edge-constrained replay of an ICD SCC's read/write logs.
//!
//! PCD "essentially replays the subset of execution corresponding to the
//! transactions in the IDG cycle" (§3.3), using the cross-thread ordering
//! ICD recorded: every cross-thread IDG edge into a member carries the
//! source and sink log positions at creation time. A sink entry at or past
//! `dst_pos` must wait until
//!
//! 1. every member on the source's thread with a smaller sequence number
//!    has fully replayed (the edge also orders the source's program-order
//!    predecessors, transitively), and
//! 2. if the source itself is a member, it has replayed `src_pos` entries.
//!
//! Same-thread members always replay in program (sequence) order.
//!
//! Most SCCs never get that far. ICD works at object granularity and PCD at
//! field granularity (§5.4 names this as the imprecision source), so an SCC
//! often has no field that two of its threads both touch with a write
//! between them. [`Replayer::replay`] first makes one pass over the members'
//! logs looking for such a field (`shares_a_written_field`) and refutes the
//! SCC without building a PDG when there is none.
//!
//! Everything a replay builds — the PDG, both field tables, the per-member
//! schedule — is indexed by member (the SCC's position of a transaction,
//! which is its PDG slot); only a constraint's endpoints are looked up by
//! id, in the PDG's id map, once per SCC. The report lists its members in
//! (thread, seq, id) order ([`SccReport`]), so one thread's members are a
//! range of member indices in program order: that range is the thread's
//! chain, and nothing is sorted but the constraints.
//!
//! The schedule lives in scratch kept per OS thread, so a warm replay takes
//! no lock and allocates nothing unless it finds a violation. Per thread rather than per checker: a checker
//! that sees one or two SCCs — one per imported history, say — would
//! otherwise build every buffer cold each time.

use crate::rules::{FieldTable, Pdg, PdgEdge};
use crate::violation::Violation;
use dc_icd::SccReport;
use dc_runtime::ids::ThreadId;
use std::cell::RefCell;

/// Statistics for one PCD invocation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Transactions replayed.
    pub txs: u64,
    /// Log entries replayed.
    pub entries: u64,
    /// Precise PDG cycles found.
    pub cycles: u64,
}

impl ReplayStats {
    /// Folds another invocation's counters into this one.
    pub fn merge(&mut self, other: ReplayStats) {
        self.txs += other.txs;
        self.entries += other.entries;
        self.cycles += other.cycles;
    }
}

/// "None": no member, no chain.
const NIL: u32 = u32::MAX;

/// One incoming constraint with its endpoints resolved to members and
/// chains, so checking it during replay never searches.
#[derive(Clone, Copy, Debug)]
struct Prepped {
    /// The sink member.
    dst: u32,
    dst_pos: u32,
    /// The source member, or [`NIL`] when the source lies outside the SCC.
    src_member: u32,
    /// The source thread's chain, or [`NIL`] when no member runs on that
    /// thread.
    src_chain: u32,
    src_seq: u64,
    src_pos: u32,
    /// Position in the report's constraint list: the tie-break that keeps
    /// one sink's constraints with equal `dst_pos` in recorded order.
    rank: u32,
}

/// One thread's members: a range of member indices, in seq order, and the
/// first one not yet done.
#[derive(Clone, Copy, Debug)]
struct Chain {
    thread: ThreadId,
    start: u32,
    end: u32,
    pos: u32,
}

/// One member's replay progress and its constraints, a range of
/// [`Schedule::cons`] sorted by `dst_pos` with a cursor past the
/// permanently satisfied prefix.
#[derive(Clone, Copy, Debug, Default)]
struct Progress {
    processed: u32,
    done: bool,
    cons_start: u32,
    cons_cursor: u32,
    cons_end: u32,
}

/// The order a replay may take: chains, per-member progress and
/// constraints.
#[derive(Debug, Default)]
struct Schedule {
    /// One chain per thread, in thread order, as the report lists its
    /// members. The scan order drives the replay interleaving and hence
    /// which of several equivalent PDG cycles is reported, so it depends
    /// only on the SCC report.
    chains: Vec<Chain>,
    /// Indexed by member.
    progress: Vec<Progress>,
    /// Every member's incoming constraints, grouped by sink.
    cons: Vec<Prepped>,
}

impl Schedule {
    /// Rebuilds the schedule for `scc`, whose members `pdg` holds, keeping
    /// every buffer.
    fn prepare(&mut self, scc: &SccReport, pdg: &Pdg) {
        let n = u32::try_from(scc.txs.len()).expect("too many SCC members");
        self.chains.clear();
        for (m, tx) in (0..n).zip(&scc.txs) {
            match self.chains.last_mut() {
                Some(chain) if chain.thread == tx.thread => chain.end += 1,
                _ => self.chains.push(Chain {
                    thread: tx.thread,
                    start: m,
                    end: m + 1,
                    pos: m,
                }),
            }
        }
        self.cons.clear();
        for (rank, c) in scc.constraints.iter().enumerate() {
            let Some(dst) = pdg.member(c.dst) else {
                continue; // sinks are always members; ignore anything else
            };
            self.cons.push(Prepped {
                dst,
                dst_pos: c.dst_pos,
                src_member: pdg.member(c.src).unwrap_or(NIL),
                src_chain: self
                    .chains
                    .binary_search_by_key(&c.src_thread, |chain| chain.thread)
                    .map_or(NIL, |i| i as u32),
                src_seq: c.src_seq,
                src_pos: c.src_pos,
                rank: rank as u32,
            });
        }
        self.cons
            .sort_unstable_by_key(|c| (c.dst, c.dst_pos, c.rank));
        self.progress.clear();
        self.progress.resize(n as usize, Progress::default());
        for (k, c) in self.cons.iter().enumerate() {
            let p = &mut self.progress[c.dst as usize];
            if p.cons_start == p.cons_end {
                (p.cons_start, p.cons_cursor) = (k as u32, k as u32);
            }
            p.cons_end = k as u32 + 1;
        }
    }

    /// The member at `chain`'s cursor, after moving the cursor past done
    /// members; `None` once the chain is done.
    fn head(&mut self, chain: usize) -> Option<u32> {
        let Chain { end, mut pos, .. } = self.chains[chain];
        while pos < end && self.progress[pos as usize].done {
            pos += 1;
        }
        self.chains[chain].pos = pos;
        (pos < end).then_some(pos)
    }

    /// True once every member of the source thread's chain with seq <
    /// `src_seq` is done — the program-order prefix a constraint's source
    /// transitively orders before the sink. O(1): chains complete strictly
    /// in order, so the chain cursor's transaction has the minimal undone
    /// seq.
    fn predecessors_done(&self, scc: &SccReport, src_chain: u32, src_seq: u64) -> bool {
        let Some(chain) = self.chains.get(src_chain as usize) else {
            return true; // no members on that thread
        };
        chain.pos == chain.end || scc.txs[chain.pos as usize].seq >= src_seq
    }

    fn constraint_satisfied(&self, scc: &SccReport, c: Prepped) -> bool {
        if !self.predecessors_done(scc, c.src_chain, c.src_seq) {
            return false;
        }
        if c.src_member == NIL {
            // Source outside the SCC: only its predecessors matter.
            return true;
        }
        // Source is a member: it must have replayed src_pos entries.
        let src = self.progress[c.src_member as usize];
        src.done || src.processed >= c.src_pos
    }

    /// True if member `m` may replay its entry at index `i`.
    fn may_replay(&mut self, scc: &SccReport, m: u32, i: u32) -> bool {
        let Progress {
            mut cons_cursor,
            cons_end,
            ..
        } = self.progress[m as usize];
        let ok = loop {
            if cons_cursor >= cons_end {
                break true;
            }
            let c = self.cons[cons_cursor as usize];
            if c.dst_pos > i {
                break true;
            }
            if self.constraint_satisfied(scc, c) {
                cons_cursor += 1; // monotonic: stays satisfied
            } else {
                break false;
            }
        };
        self.progress[m as usize].cons_cursor = cons_cursor;
        ok
    }
}

/// The summary pass: true if some `(obj, cell)` — sync cells included — is
/// touched by two different member threads with at least one write among
/// the accesses. Only such a field can carry a cross-thread PDG edge (the
/// Figure-5 rules add one only between accesses of different threads to the
/// same field, one of them a write), and the intra-thread edges alone are
/// program-order chains, which are acyclic — so an SCC without one has no
/// PDG cycle, whatever order its logs replay in.
///
/// One probe of a small open-addressing table per entry (per field: the
/// first thread seen in the low 16 bits, and flags), and it stops at the
/// first shared written field.
fn shares_a_written_field(table: &mut FieldTable<u32>, scc: &SccReport) -> bool {
    /// A field not seen yet ([`FieldTable::entry`]'s default).
    const UNSEEN: u32 = 0;
    const SEEN: u32 = 1 << 16;
    const WROTE: u32 = 1 << 17;
    const SHARED: u32 = 1 << 18;
    table.reset(scc.entries.len());
    for tx in &scc.txs {
        let thread = u32::from(tx.thread.0);
        for entry in scc.log(tx) {
            let state = table.entry((entry.obj(), entry.cell()));
            if *state == UNSEEN {
                *state = SEEN | thread;
            } else if *state & 0xffff != thread {
                *state |= SHARED;
            }
            if entry.is_write() {
                *state |= WROTE;
            }
            if *state & (SHARED | WROTE) == SHARED | WROTE {
                return true;
            }
        }
    }
    false
}

thread_local! {
    /// This thread's replay scratch.
    static SCRATCH: RefCell<Replayer> = RefCell::default();
}

/// Replays one SCC on this thread's scratch and returns the precise
/// violations found, in the order found, with stats. An SCC whose members
/// share no written field is refuted by the summary pass alone: no
/// violation, no entry replayed. Once the scratch has grown to the SCC's
/// size, this makes no allocator call but the ones a found violation makes
/// for its own cycle and blame, and for the returned vector.
pub fn replay_scc(scc: &SccReport) -> (Vec<Violation>, ReplayStats) {
    let mut violations = Vec::new();
    let stats = SCRATCH.with(|s| s.borrow_mut().replay(scc, &mut |v| violations.push(v)));
    (violations, stats)
}

/// PCD's scratch: the PDG, the field tables and the replay schedule, reused
/// from one SCC to the next.
#[derive(Debug, Default)]
struct Replayer {
    pdg: Pdg,
    summary: FieldTable<u32>,
    schedule: Schedule,
    /// The edges one replayed entry adds.
    new_edges: Vec<PdgEdge>,
}

impl Replayer {
    /// [`replay_scc`] on this scratch.
    fn replay(&mut self, scc: &SccReport, found: &mut impl FnMut(Violation)) -> ReplayStats {
        if shares_a_written_field(&mut self.summary, scc) {
            self.replay_unfiltered(scc, found)
        } else {
            ReplayStats {
                txs: scc.txs.len() as u64,
                ..ReplayStats::default()
            }
        }
    }

    /// The edge-constrained replay itself, run on whatever SCC it is given.
    fn replay_unfiltered(
        &mut self,
        scc: &SccReport,
        found: &mut impl FnMut(Violation),
    ) -> ReplayStats {
        let mut stats = ReplayStats {
            txs: scc.txs.len() as u64,
            ..ReplayStats::default()
        };
        let Replayer {
            pdg,
            schedule: s,
            new_edges,
            ..
        } = self;
        // Members are the report's positions: PDG member `m` is `scc.txs[m]`.
        pdg.clear(scc.entries.len());
        for tx in &scc.txs {
            pdg.add_tx(tx.id, tx.thread, tx.kind);
        }
        s.prepare(scc, pdg);
        // Program-order edges between consecutive same-thread members: cycles
        // may pass through them (Velodrome's intra-thread edges, §2). Chains
        // are in thread order as the report lists its members, so the scan
        // order — and hence which of several equivalent cycles
        // `cycle_through` reports — depends only on the SCC report, never on
        // map iteration order.
        for chain in &s.chains {
            for m in chain.start + 1..chain.end {
                pdg.add_intra_edge(m - 1, m);
            }
        }
        loop {
            let mut advanced = false;
            let mut all_done = true;
            // Refresh every chain cursor first so constraint checks against
            // other threads' chains see current progress.
            for c in 0..s.chains.len() {
                s.head(c);
            }
            for c in 0..s.chains.len() {
                // Drain this thread's chain as far as constraints allow; runs
                // of unconstrained entries replay without another sweep.
                while let Some(m) = s.head(c) {
                    all_done = false;
                    let tx = &scc.txs[m as usize];
                    let log = scc.log(tx);
                    let i = s.progress[m as usize].processed;
                    if i as usize == log.len() {
                        s.progress[m as usize].done = true;
                        advanced = true;
                        continue;
                    }
                    if !s.may_replay(scc, m, i) {
                        break;
                    }
                    // Replay entry i.
                    let entry = log[i as usize];
                    let field = (entry.obj(), entry.cell());
                    new_edges.clear();
                    if entry.is_write() {
                        pdg.write(field, m, new_edges);
                    } else {
                        new_edges.extend(pdg.read(field, m));
                    }
                    for &edge in new_edges.iter() {
                        if let Some(violation) = pdg.violation_through(edge) {
                            stats.cycles += 1;
                            found(violation);
                        }
                    }
                    s.progress[m as usize].processed = i + 1;
                    stats.entries += 1;
                    advanced = true;
                }
            }
            if all_done {
                break;
            }
            if !advanced {
                // The recorded constraints come from a real execution; a stall
                // can only happen when constraint sources *outside* the SCC
                // (whose in-list cross edges `snapshot_component` copies
                // verbatim) gate each other's member predecessors in a
                // circular wait. Break the tie deterministically: pick the
                // stuck member with the smallest id and retire its blocking
                // constraint. Unlike skipping the entry itself, this keeps
                // every log entry flowing into the PDG, so forced progress
                // never silently drops a dependence.
                let stuck = s
                    .chains
                    .iter()
                    .filter(|chain| chain.pos < chain.end)
                    .map(|chain| (scc.txs[chain.pos as usize].id, chain.pos))
                    .min();
                let Some((_, m)) = stuck else { break };
                let p = &mut s.progress[m as usize];
                if p.cons_start == p.cons_end {
                    // Defensive: without constraints the member could not
                    // have stalled; retire it outright rather than loop.
                    p.done = true;
                } else {
                    // A stuck chain head always stopped on an unsatisfied
                    // constraint at its cursor; step past it.
                    p.cons_cursor += 1;
                }
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_icd::{Edge, EdgeKind, LogEntry, ReplayConstraint, TxId, TxKind};
    use dc_runtime::ids::{MethodId, ObjId, SYNC_CELL};
    use std::collections::HashMap;

    /// One member of a hand-built report.
    struct Tx {
        id: TxId,
        thread: ThreadId,
        seq: u64,
        log: Vec<LogEntry>,
    }

    fn tx(id: u64, thread: u16, seq: u64, log: Vec<LogEntry>) -> Tx {
        Tx {
            id: TxId(id),
            thread: ThreadId(thread),
            seq,
            log,
        }
    }

    /// Builds a report, members in (thread, seq, id) order as ICD lists
    /// them, deriving constraints from the edges the way the IDG does
    /// (sources' thread/seq must be supplied for external sources).
    fn report(mut txs: Vec<Tx>, edges: Vec<Edge>) -> SccReport {
        let seqs: HashMap<TxId, (ThreadId, u64)> =
            txs.iter().map(|t| (t.id, (t.thread, t.seq))).collect();
        txs.sort_by_key(|t| (t.thread, t.seq, t.id));
        let mut scc = SccReport::default();
        for t in &txs {
            let kind = TxKind::Regular(MethodId(t.id.0 as u32));
            scc.push_tx(t.id, t.thread, kind, t.seq, &t.log);
        }
        scc.constraints = edges
            .iter()
            .filter(|e| e.kind == EdgeKind::Cross)
            .map(|e| {
                let (src_thread, src_seq) = seqs[&e.src];
                ReplayConstraint {
                    dst: e.dst,
                    dst_pos: e.dst_pos,
                    src: e.src,
                    src_thread,
                    src_seq,
                    src_pos: e.src_pos,
                }
            })
            .collect();
        scc
    }

    fn cross(src: u64, src_pos: u32, dst: u64, dst_pos: u32) -> Edge {
        Edge {
            src: TxId(src),
            src_pos,
            dst: TxId(dst),
            dst_pos,
            kind: EdgeKind::Cross,
        }
    }

    fn rd(obj: u32, cell: u32) -> LogEntry {
        LogEntry::new(ObjId(obj), cell, false, false)
    }

    fn wr(obj: u32, cell: u32) -> LogEntry {
        LogEntry::new(ObjId(obj), cell, true, false)
    }

    #[test]
    fn detects_classic_two_transaction_cycle() {
        // T0/Tx1: wr o.f … rd o.g;  T1/Tx2: rd o.f then wr o.g between them.
        let scc = report(
            vec![
                tx(1, 0, 1, vec![wr(0, 0), rd(0, 1)]),
                tx(2, 1, 1, vec![rd(0, 0), wr(0, 1)]),
            ],
            vec![cross(1, 1, 2, 0), cross(2, 2, 1, 1)],
        );
        let (violations, stats) = replay_scc(&scc);
        assert_eq!(stats.cycles, 1);
        assert_eq!(violations.len(), 1);
        assert_eq!(stats.entries, 4);
        assert_eq!(violations[0].cycle.len(), 2);
    }

    #[test]
    fn serializable_interleaving_yields_no_violation() {
        let scc = report(
            vec![
                tx(1, 0, 1, vec![wr(0, 0)]),
                tx(2, 1, 1, vec![rd(0, 0), wr(0, 1)]),
            ],
            vec![cross(1, 1, 2, 0)],
        );
        let (violations, stats) = replay_scc(&scc);
        assert!(violations.is_empty());
        assert_eq!(stats.cycles, 0);
    }

    #[test]
    fn figure3_pcd_finds_smaller_precise_cycle() {
        // ICD found an SCC of four transactions; the precise cycle is just
        // Tx1 and Tx3 (Figure 3).
        let scc = report(
            vec![
                tx(1, 1, 1, vec![wr(0, 0), wr(0, 0)]),
                tx(2, 2, 1, vec![rd(0, 1)]),
                tx(3, 3, 1, vec![rd(0, 0), rd(0, 0)]),
                tx(4, 4, 1, vec![rd(0, 2)]),
            ],
            vec![
                cross(1, 1, 2, 0),
                cross(2, 1, 3, 0),
                cross(3, 1, 1, 1),
                cross(3, 2, 4, 0),
                cross(1, 2, 3, 1),
            ],
        );
        let (violations, _) = replay_scc(&scc);
        assert_eq!(violations.len(), 1);
        let cycle = &violations[0].cycle;
        assert_eq!(cycle.len(), 2, "precise cycle is smaller than the SCC");
        let ids: Vec<TxId> = cycle.iter().map(|c| c.tx).collect();
        assert!(ids.contains(&TxId(1)) && ids.contains(&TxId(3)));
    }

    #[test]
    fn same_thread_transactions_replay_in_sequence_order() {
        let scc = report(
            vec![
                tx(1, 0, 1, vec![wr(0, 0)]),
                tx(3, 0, 2, vec![wr(0, 0)]),
                tx(2, 1, 1, vec![wr(0, 0)]),
            ],
            vec![cross(1, 1, 2, 0), cross(2, 1, 3, 0)],
        );
        let (_, stats) = replay_scc(&scc);
        assert_eq!(stats.entries, 3);
    }

    #[test]
    fn empty_logs_replay_cleanly() {
        let scc = report(
            vec![tx(1, 0, 1, vec![]), tx(2, 1, 1, vec![])],
            vec![cross(1, 0, 2, 0), cross(2, 0, 1, 0)],
        );
        let (violations, stats) = replay_scc(&scc);
        assert!(violations.is_empty());
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.txs, 2);
    }

    #[test]
    fn constraints_order_cross_thread_entries() {
        let scc = report(
            vec![tx(2, 1, 1, vec![rd(0, 0)]), tx(1, 0, 1, vec![wr(0, 0)])],
            vec![cross(1, 1, 2, 0)],
        );
        let (_, stats) = replay_scc(&scc);
        assert_eq!(stats.entries, 2);
    }

    /// The philo regression: the ordering constraint arrives via an edge
    /// whose source is a *later, empty* transaction of the writer's thread;
    /// `src_pos = 0` must still order the writer (a program-order
    /// predecessor of the source) before the sink.
    #[test]
    fn constraint_source_predecessors_are_ordered() {
        // T0: Tx1 (wr f, rd f, wr f  = lock-protected use), then Tx3 (empty,
        // e.g. a think() transaction). T1: Tx2 reads/writes f after T0's
        // release; the only edge into Tx2 comes from Tx3 with src_pos 0.
        let txs = vec![
            tx(1, 0, 1, vec![rd(0, 0), wr(0, 0)]),
            tx(3, 0, 2, vec![]),
            tx(2, 1, 1, vec![rd(0, 0), wr(0, 0)]),
        ];
        let edges = vec![
            cross(3, 0, 2, 0), // the constraint carrier
            cross(2, 2, 1, 2), // imprecise back edge closing the ICD cycle
        ];
        let scc = report(txs, edges);
        let (violations, stats) = replay_scc(&scc);
        assert_eq!(stats.entries, 4);
        assert!(
            violations.is_empty(),
            "replay must order Tx1 fully before Tx2: {violations:?}"
        );
    }

    /// External-source constraints: the source is not a member, but its
    /// member predecessors must still be ordered before the sink.
    #[test]
    fn external_source_constraints_order_member_predecessors() {
        let txs = vec![
            tx(1, 0, 1, vec![rd(0, 0), wr(0, 0)]),
            tx(2, 1, 1, vec![rd(0, 0), wr(0, 0)]),
        ];
        let edges = vec![cross(2, 2, 1, 2)];
        let mut scc = report(txs, edges);
        // Tx9 (thread 0, seq 5) is outside the SCC; its edge into Tx2 orders
        // Tx1 (seq 1 < 5) before Tx2's entries.
        scc.constraints.push(ReplayConstraint {
            dst: TxId(2),
            dst_pos: 0,
            src: TxId(9),
            src_thread: ThreadId(0),
            src_seq: 5,
            src_pos: 0,
        });
        let (violations, _) = replay_scc(&scc);
        assert!(violations.is_empty(), "{violations:?}");
    }

    /// `snapshot_component` copies *every* incoming cross edge of a
    /// member as a constraint, including ones whose source lies outside the SCC. Two such
    /// external-source constraints can gate each other's member
    /// predecessors in a circular wait that no constraint ever satisfies —
    /// replay must fall into the deterministic tie-break, force progress,
    /// and terminate with every entry replayed rather than stall.
    #[test]
    fn circular_external_source_constraints_cannot_stall_replay() {
        let txs = vec![
            tx(1, 0, 1, vec![wr(0, 0), rd(0, 1)]),
            tx(2, 1, 1, vec![rd(0, 0), wr(0, 1)]),
        ];
        // The member-to-member edges closing the ICD cycle.
        let edges = vec![cross(1, 1, 2, 0), cross(2, 2, 1, 1)];
        let mut scc = report(txs, edges);
        // Tx8 (thread 1, seq 5, external) gates Tx1's very first entry: it
        // waits for all of thread 1's members with seq < 5 — i.e. Tx2.
        scc.constraints.push(ReplayConstraint {
            dst: TxId(1),
            dst_pos: 0,
            src: TxId(8),
            src_thread: ThreadId(1),
            src_seq: 5,
            src_pos: 0,
        });
        // Tx9 (thread 0, seq 5, external) symmetrically gates Tx2's first
        // entry on Tx1: neither chain can start — a pure constraint cycle.
        scc.constraints.push(ReplayConstraint {
            dst: TxId(2),
            dst_pos: 0,
            src: TxId(9),
            src_thread: ThreadId(0),
            src_seq: 5,
            src_pos: 0,
        });
        let (_, stats) = replay_scc(&scc);
        assert_eq!(
            stats.entries, 4,
            "tie-break must force progress through the circular wait"
        );
    }

    // ----- the summary pass -------------------------------------------------

    /// Two transactions on two threads in an ICD cycle, with the given logs.
    fn pair(log0: Vec<LogEntry>, log1: Vec<LogEntry>) -> SccReport {
        let (n0, n1) = (log0.len() as u32, log1.len() as u32);
        report(
            vec![tx(1, 0, 1, log0), tx(2, 1, 1, log1)],
            vec![cross(1, n0, 2, 0), cross(2, n1, 1, n0)],
        )
    }

    /// The summary's verdict, checked against the replay it stands in for:
    /// a refuted SCC must be one the unfiltered replay finds nothing in,
    /// and `replay_scc` — on this test thread's scratch, which every
    /// earlier case left behind — must return what the unfiltered replay
    /// on fresh scratch returns.
    fn summary_says_replay(scc: &SccReport) -> bool {
        let needs_replay = shares_a_written_field(&mut FieldTable::default(), scc);
        let mut unfiltered = Vec::new();
        let unfiltered_stats =
            Replayer::default().replay_unfiltered(scc, &mut |v| unfiltered.push(v));
        let (violations, stats) = replay_scc(scc);
        assert_eq!(violations, unfiltered);
        assert_eq!(stats.cycles, unfiltered_stats.cycles);
        assert_eq!(stats.txs, unfiltered_stats.txs);
        if needs_replay {
            assert_eq!(stats, unfiltered_stats);
        } else {
            assert!(unfiltered.is_empty(), "summary refuted a real cycle");
            assert_eq!(stats.entries, 0, "a refuted SCC replays nothing");
        }
        needs_replay
    }

    #[test]
    fn fields_only_read_by_both_threads_are_refuted() {
        let scc = pair(vec![rd(0, 0), rd(0, 1)], vec![rd(0, 0), rd(0, 1)]);
        assert!(!summary_says_replay(&scc));
    }

    #[test]
    fn a_write_read_pair_across_threads_is_replayed() {
        let scc = pair(vec![wr(0, 0)], vec![rd(0, 0)]);
        assert!(summary_says_replay(&scc));
        // The write may come after the other thread's read in scan order.
        let scc = pair(vec![rd(0, 0)], vec![rd(0, 0), wr(0, 0)]);
        assert!(summary_says_replay(&scc));
        // … or from the thread that touched the field first.
        let scc = pair(vec![rd(0, 0), rd(0, 1), wr(0, 1)], vec![rd(0, 1)]);
        assert!(summary_says_replay(&scc));
    }

    /// The object-granular conflict ICD saw, on disjoint fields: each
    /// thread writes only its own cells of the shared object.
    #[test]
    fn writes_to_disjoint_fields_of_one_object_are_refuted() {
        let scc = pair(vec![wr(0, 0), rd(0, 0)], vec![wr(0, 1), wr(1, 0)]);
        assert!(!summary_says_replay(&scc));
    }

    #[test]
    fn same_thread_only_sharing_is_refuted() {
        // Thread 0's two members write and read one field; thread 1's
        // member touches another.
        let scc = report(
            vec![
                tx(1, 0, 1, vec![wr(0, 0)]),
                tx(3, 0, 2, vec![rd(0, 0), wr(0, 0)]),
                tx(2, 1, 1, vec![wr(0, 1)]),
            ],
            vec![cross(1, 1, 2, 0), cross(2, 1, 3, 0)],
        );
        assert!(!summary_says_replay(&scc));
    }

    #[test]
    fn a_shared_sync_cell_is_replayed() {
        let acquire = LogEntry::new(ObjId(5), SYNC_CELL, false, true);
        let release = LogEntry::new(ObjId(5), SYNC_CELL, true, true);
        let scc = pair(vec![acquire, wr(0, 0), release], vec![acquire, release]);
        assert!(summary_says_replay(&scc));
        // The same monitor used by one thread only shares nothing.
        let scc = pair(vec![acquire, wr(0, 0), release], vec![wr(0, 1)]);
        assert!(!summary_says_replay(&scc));
    }

    mod summary_vs_unfiltered_replay {
        use super::*;
        use proptest::prelude::*;

        /// `(thread, log)` per member, then `(src, dst, src_pos, dst_pos)`
        /// per cross edge (indices and positions taken modulo what exists).
        type Shape = (
            Vec<(u16, Vec<(u32, u32, bool)>)>,
            Vec<(usize, usize, u32, u32)>,
        );

        fn shapes() -> impl Strategy<Value = Shape> {
            // Few objects and cells, so sharing — and its absence — are
            // both common; cell 2 stands for the sync cell.
            let entry = (0u32..2, 0u32..3, any::<bool>());
            let member = (0u16..3, prop::collection::vec(entry, 0..6));
            let edge = (0usize..6, 0usize..6, 0u32..7, 0u32..7);
            (
                prop::collection::vec(member, 2..6),
                prop::collection::vec(edge, 0..8),
            )
        }

        fn build((members, edges): Shape) -> SccReport {
            let mut seqs = [0u64; 3];
            let txs: Vec<Tx> = members
                .into_iter()
                .enumerate()
                .map(|(i, (thread, log))| {
                    seqs[thread as usize] += 1;
                    let log = log
                        .into_iter()
                        .map(|(obj, cell, write)| {
                            let cell = if cell == 2 { SYNC_CELL } else { cell };
                            LogEntry::new(ObjId(obj), cell, write, cell == SYNC_CELL)
                        })
                        .collect();
                    tx(i as u64 + 1, thread, seqs[thread as usize], log)
                })
                .collect();
            let edges = edges
                .into_iter()
                .filter_map(|(src, dst, src_pos, dst_pos)| {
                    let (s, d) = (&txs[src % txs.len()], &txs[dst % txs.len()]);
                    (s.thread != d.thread).then(|| {
                        cross(
                            s.id.0,
                            src_pos % (s.log.len() as u32 + 1),
                            d.id.0,
                            dst_pos % (d.log.len() as u32 + 1),
                        )
                    })
                })
                .collect();
            report(txs, edges)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Summary refutes ⇒ the unfiltered replay finds no cycle, on
            /// arbitrary member logs under arbitrary (even contradictory)
            /// replay constraints.
            #[test]
            fn summary_refutes_only_what_replay_refutes(shape in shapes()) {
                summary_says_replay(&build(shape));
            }
        }
    }
}
