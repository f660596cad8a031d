//! Property-based tests of the IDG: SCC detection and the transaction
//! collector on arbitrary graphs.

use dc_icd::graph::Graph;
use dc_icd::{Edge, EdgeKind, LogEntry, TxId, TxKind};
use dc_runtime::ids::{ObjId, ThreadId};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

fn arb_graph() -> impl Strategy<Value = (usize, Vec<(u64, u64)>)> {
    (2usize..20).prop_flat_map(|n| {
        let edges = prop::collection::vec((1..=n as u64, 1..=n as u64), 0..60);
        (Just(n), edges)
    })
}

fn build(n: usize, edges: &[(u64, u64)]) -> Graph {
    build_partly_finished(n, edges, |_| true)
}

/// Like [`build`], finishing only the nodes `finished` selects.
fn build_partly_finished(n: usize, edges: &[(u64, u64)], finished: impl Fn(u64) -> bool) -> Graph {
    let mut g = Graph::new();
    for i in 1..=n as u64 {
        g.insert(TxId(i), ThreadId((i % 4) as u16), TxKind::Unary, i);
    }
    for &(s, d) in edges {
        g.add_edge(cross(s, d));
    }
    for i in (1..=n as u64).filter(|&i| finished(i)) {
        g.finish(TxId(i), vec![]).unwrap();
    }
    g
}

/// A log of `len` entries that names transaction `id` in every entry.
fn log_of(id: u64, len: u16) -> Vec<LogEntry> {
    (0..u32::from(len))
        .map(|cell| LogEntry::new(ObjId(id as u32), cell, cell % 2 == 0, false))
        .collect()
}

fn cross(s: u64, d: u64) -> Edge {
    Edge {
        src: TxId(s),
        src_pos: 0,
        dst: TxId(d),
        dst_pos: 0,
        kind: EdgeKind::Cross,
    }
}

/// The edge arena's invariants over the `live` nodes of a graph holding
/// cross edges only (so `in_constraints` lists whole in-lists):
/// (i) every out-edge of a live node targets a live node carrying the id
/// the edge names; (ii) no freed record is reachable from a live list — a
/// freed record names a collected (never reused) id at one end, and a
/// reused one would be counted twice; (iii) live + free records = arena.
fn assert_arena_consistent(g: &Graph, live: &[u64]) {
    let mut live_records = 0;
    for &v in live {
        for e in g.out_edges(TxId(v)) {
            assert_eq!(e.src, TxId(v), "foreign record in {v}'s out-list");
            let dst = g.node(e.dst).expect("out-edge targets a live node");
            assert_eq!(dst.id, e.dst);
            assert!(
                g.in_constraints(e.dst).any(|c| c.src == e.src),
                "{e:?} missing from its destination's in-list"
            );
        }
        for c in g.in_constraints(TxId(v)) {
            assert_eq!(c.dst, TxId(v), "foreign record in {v}'s in-list");
            live_records += 1;
        }
    }
    assert_eq!(live_records + g.free_edges(), g.edge_arena_len());
}

/// Slot *and* edge-record reuse: rounds of "build 64 nodes and 256 edges,
/// finish, collect everything" never grow the slab or the arena past their
/// first-round size.
#[test]
fn repeated_build_and_collect_reuses_slots_and_edge_records() {
    let mut g = Graph::new();
    let mut sizes = None;
    for round in 0..200u64 {
        let base = round * 64;
        for i in 1..=64 {
            g.insert(TxId(base + i), ThreadId((i % 4) as u16), TxKind::Unary, i);
        }
        for k in 0..256 {
            // Four distinct non-self targets per source.
            g.add_edge(cross(
                base + 1 + k % 64,
                base + 1 + (k % 64 + 1 + k / 64 * 7) % 64,
            ));
        }
        for i in 1..=64 {
            g.finish(TxId(base + i), vec![]).unwrap();
        }
        assert_eq!(g.edge_arena_len() - g.free_edges(), 256, "round {round}");
        assert_eq!(g.collect([]), 64, "nothing is a root");
        assert!(g.is_empty());
        assert_eq!(g.free_edges(), g.edge_arena_len());
        let now = (g.slab_len(), g.edge_arena_len());
        assert_eq!(*sizes.get_or_insert(now), now, "round {round}");
    }
    assert_eq!(sizes, Some((64, 256)));
}

/// Reference forward-reachability.
fn reachable(edges: &[(u64, u64)], from: u64) -> HashSet<u64> {
    let mut seen: HashSet<u64> = [from].into_iter().collect();
    let mut work = vec![from];
    while let Some(v) = work.pop() {
        for &(s, d) in edges {
            if s == v && seen.insert(d) {
                work.push(d);
            }
        }
    }
    seen
}

/// Reference SCC of `root` over the nodes `finished` selects, which is all
/// the IDG's probe may explore: empty for an unfinished root.
fn reference_scc(edges: &[(u64, u64)], root: u64, finished: impl Fn(u64) -> bool) -> HashSet<u64> {
    if !finished(root) {
        return HashSet::new();
    }
    let among: Vec<(u64, u64)> = edges
        .iter()
        .copied()
        .filter(|&(s, d)| finished(s) && finished(d))
        .collect();
    reachable(&among, root)
        .into_iter()
        .filter(|&v| reachable(&among, v).contains(&root))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `scc_from(root)` returns exactly the finished nodes mutually
    /// reachable with the root through finished nodes (per a naive
    /// reference computation), when ≥ 2 — on graphs where about a quarter
    /// of the nodes are unfinished, so the probe's early returns (an
    /// unfinished root, no incoming edge, no finished successor) are
    /// compared against the reference too.
    #[test]
    fn scc_matches_reference((n, edges) in arb_graph(), unfinished in any::<u64>()) {
        // Node i is unfinished iff bits 2i and 2i+1 are both set.
        let finished = |i: u64| (unfinished >> (2 * (i % 32))) & 3 != 3;
        let mut g = build_partly_finished(n, &edges, finished);
        for root in 1..=n as u64 {
            let expected = reference_scc(&edges, root, finished);
            let got = g.scc_from(TxId(root));
            if expected.len() >= 2 {
                let got = got.expect("SCC with ≥2 members detected");
                let got_ids: HashSet<u64> = got.tx_ids().map(|t| t.0).collect();
                prop_assert_eq!(got_ids, expected, "root {}", root);
            } else {
                prop_assert!(got.is_none(), "root {} is not in a cycle", root);
            }
        }
    }

    /// The collector never removes a node reachable from a root, and every
    /// removed node was unreachable.
    #[test]
    fn collect_respects_reachability((n, edges) in arb_graph(), root in 1u64..20) {
        let root = (root % n as u64) + 1;
        let mut g = build(n, &edges);
        let live_before: HashSet<u64> = (1..=n as u64).collect();
        let expected_live = reachable(&edges, root);
        let collected = g.collect([TxId(root)]);
        prop_assert_eq!(collected, live_before.len() - expected_live.len());
        for v in 1..=n as u64 {
            prop_assert_eq!(
                g.node(TxId(v)).is_some(),
                expected_live.contains(&v),
                "node {}",
                v
            );
        }
    }

    /// Interleaved insert/edge/finish/collect against a reference model:
    /// slab slot reuse must never resurrect collected nodes, stale edges,
    /// or stale Tarjan scratch state, and the slab never grows past the
    /// peak live-node count (freed slots are actually reused). The model
    /// carries every finished node's log: after each operation each live
    /// node reads back exactly its own log, and after a collecting pass
    /// the log arena holds exactly the live logs (compaction moved them
    /// without mixing them up).
    #[test]
    fn interleaved_lifecycle_reuses_slots_without_stale_state(
        ops in prop::collection::vec((0u8..4, any::<u16>(), any::<u16>()), 1..120)
    ) {
        let mut g = Graph::new();
        let mut next_id = 1u64;
        let mut live: Vec<u64> = Vec::new();
        let mut finished: HashSet<u64> = HashSet::new();
        let mut logs: HashMap<u64, Vec<LogEntry>> = HashMap::new();
        let mut edges: Vec<(u64, u64)> = Vec::new();
        let mut peak = 0usize;
        for &(op, a, b) in &ops {
            match op {
                0 => {
                    let id = next_id;
                    next_id += 1;
                    g.insert(TxId(id), ThreadId(a % 4), TxKind::Unary, id);
                    live.push(id);
                    peak = peak.max(live.len());
                }
                1 if !live.is_empty() => {
                    let s = live[a as usize % live.len()];
                    let d = live[b as usize % live.len()];
                    g.add_edge(cross(s, d));
                    if s != d {
                        edges.push((s, d)); // the graph drops self-edges
                    }
                }
                2 if !live.is_empty() => {
                    let id = live[a as usize % live.len()];
                    if finished.insert(id) {
                        // 0–4 entries naming the node, so no two logs agree.
                        let log = log_of(id, b % 5);
                        g.finish(TxId(id), log.clone()).unwrap();
                        logs.insert(id, log);
                        g.scc_from(TxId(id)); // exercise scratch reuse mid-stream
                    }
                }
                3 if !live.is_empty() => {
                    let root = live[a as usize % live.len()];
                    // Model survivors: forward closure of {root} ∪ unfinished.
                    let mut work: Vec<u64> =
                        live.iter().copied().filter(|v| !finished.contains(v)).collect();
                    work.push(root);
                    let mut keep: HashSet<u64> = work.iter().copied().collect();
                    while let Some(v) = work.pop() {
                        for &(s, d) in &edges {
                            if s == v && keep.insert(d) {
                                work.push(d);
                            }
                        }
                    }
                    let collected = g.collect([TxId(root)]);
                    prop_assert_eq!(collected, live.len() - keep.len());
                    live.retain(|v| keep.contains(v));
                    finished.retain(|v| keep.contains(v));
                    logs.retain(|v, _| keep.contains(v));
                    edges.retain(|&(s, _)| keep.contains(&s));
                    assert_arena_consistent(&g, &live);
                }
                _ => {}
            }
            // Only a collecting pass frees logs, and it compacts: the log
            // arena always holds exactly the live logs.
            let live_entries: usize = logs.values().map(Vec::len).sum();
            prop_assert_eq!(g.log_arena_len(), live_entries);
            for &v in &live {
                let want = logs.get(&v).map_or(&[][..], Vec::as_slice);
                prop_assert_eq!(g.log(TxId(v)), Some(want), "log of {}", v);
            }
        }
        // Structural integrity after arbitrary slot churn.
        prop_assert_eq!(g.len(), live.len());
        prop_assert_eq!(g.slab_len(), g.len() + g.free_slots());
        prop_assert!(
            g.slab_len() <= peak.max(1),
            "slab grew past peak live count {}: {}",
            peak,
            g.slab_len()
        );
        // Collected ids stay gone; live nodes carry exactly the model edges
        // (a reused slot must not leak its previous occupant's edges).
        for id in 1..next_id {
            if !live.contains(&id) {
                prop_assert!(g.node(TxId(id)).is_none(), "collected {} resurrected", id);
            }
        }
        for &v in &live {
            prop_assert!(g.node(TxId(v)).is_some(), "live node present");
            let mut got: Vec<u64> = g.out_edges(TxId(v)).map(|e| e.dst.0).collect();
            got.sort_unstable();
            let mut want: Vec<u64> =
                edges.iter().filter(|&&(s, _)| s == v).map(|&(_, d)| d).collect();
            want.sort_unstable();
            prop_assert_eq!(got, want, "out edges of {}", v);
        }
        // SCC detection on the survivors still matches the reference.
        for &v in &live {
            if !finished.contains(&v) {
                g.finish(TxId(v), vec![]).unwrap();
            }
        }
        for &root in &live {
            let expected = reference_scc(&edges, root, |_| true);
            let got = g.scc_from(TxId(root));
            if expected.len() >= 2 {
                let got = got.expect("SCC with ≥2 members detected");
                let got_ids: HashSet<u64> = got.tx_ids().map(|t| t.0).collect();
                prop_assert_eq!(got_ids, expected, "root {}", root);
            } else {
                prop_assert!(got.is_none(), "root {} is not in a cycle", root);
            }
        }
    }

    /// SCC reports carry every internal edge and a constraint for every
    /// cross edge into a member, each node's in insertion order (PCD's
    /// output order depends on it).
    #[test]
    fn scc_reports_are_self_consistent((n, edges) in arb_graph()) {
        let mut g = build(n, &edges);
        for root in 1..=n as u64 {
            if let Some(report) = g.scc_from(TxId(root)) {
                let members: HashSet<TxId> = report.tx_ids().collect();
                for m in &members {
                    let inserted = |keep: &dyn Fn(u64, u64) -> bool| -> Vec<(u64, u64)> {
                        let real = edges.iter().filter(|&&(s, d)| s != d && keep(s, d));
                        real.copied().collect()
                    };
                    let out: Vec<_> = report.edges.iter().filter(|e| e.src == *m).collect();
                    prop_assert_eq!(
                        out.iter().map(|e| (e.src.0, e.dst.0)).collect::<Vec<_>>(),
                        inserted(&|s, d| s == m.0 && members.contains(&TxId(d))),
                        "internal out-edges of {:?}", m
                    );
                    let into: Vec<_> = report.constraints.iter().filter(|c| c.dst == *m).collect();
                    prop_assert_eq!(
                        into.iter().map(|c| (c.src.0, c.dst.0)).collect::<Vec<_>>(),
                        inserted(&|_, d| d == m.0),
                        "constraints into {:?}", m
                    );
                }
                for e in &report.edges {
                    prop_assert!(members.contains(&e.src) && members.contains(&e.dst));
                }
                // Every constraint targets a member.
                for c in &report.constraints {
                    prop_assert!(members.contains(&c.dst));
                }
                // Every internal cross edge appears among the constraints.
                let constraint_pairs: HashSet<(TxId, TxId)> =
                    report.constraints.iter().map(|c| (c.src, c.dst)).collect();
                for e in &report.edges {
                    if e.kind == EdgeKind::Cross {
                        prop_assert!(constraint_pairs.contains(&(e.src, e.dst)));
                    }
                }
            }
        }
    }
}
