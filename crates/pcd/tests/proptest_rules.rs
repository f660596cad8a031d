//! Property-based tests of PCD's Figure-5 rules: the PDG edges computed
//! from a serialized access sequence match a naive conflict-serializability
//! reference.

use dc_icd::{TxId, TxKind};
use dc_pcd::{Pdg, PdgEdge};
use dc_runtime::ids::{MethodId, ObjId, ThreadId};
use proptest::prelude::*;
use std::collections::HashSet;

#[derive(Clone, Debug)]
struct Step {
    /// Which of 4 fixed transactions performs the access (tx i runs on
    /// thread i % 2 — so some pairs share a thread).
    tx: u64,
    field: u32,
    write: bool,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (1u64..=4, 0u32..3, any::<bool>()).prop_map(|(tx, field, write)| Step { tx, field, write }),
        1..80,
    )
}

fn thread_of(tx: u64) -> ThreadId {
    ThreadId((tx % 2) as u16)
}

/// The PDG over the four transactions: `TxId(i)` is member `i - 1`.
fn pdg4() -> Pdg {
    Pdg::new((1u64..=4).map(|i| (TxId(i), thread_of(i), TxKind::Regular(MethodId(i as u32)))))
}

fn member(tx: u64) -> u32 {
    tx as u32 - 1
}

/// An edge as the pair of transaction numbers it connects.
fn ids(pdg: &Pdg, e: PdgEdge) -> (u64, u64) {
    (pdg.id(e.src).0, pdg.id(e.dst).0)
}

/// Naive reference: for each ordered pair of conflicting accesses on the
/// same field (at least one write) by different threads with no
/// intervening write by a third party clearing the relation… the simplest
/// correct reference is to recompute with the same rules but an independent
/// implementation style: last writer + last readers per field.
fn reference_edges(seq: &[Step]) -> HashSet<(u64, u64)> {
    let mut last_write: [Option<u64>; 3] = [None; 3];
    let mut readers: [Vec<u64>; 3] = Default::default();
    let mut edges = HashSet::new();
    for s in seq {
        let f = s.field as usize;
        if s.write {
            if let Some(w) = last_write[f] {
                if thread_of(w) != thread_of(s.tx) {
                    edges.insert((w, s.tx));
                }
            }
            for &r in &readers[f] {
                if thread_of(r) != thread_of(s.tx) && r != s.tx {
                    edges.insert((r, s.tx));
                }
            }
            last_write[f] = Some(s.tx);
            readers[f].clear();
        } else {
            if let Some(w) = last_write[f] {
                if thread_of(w) != thread_of(s.tx) {
                    edges.insert((w, s.tx));
                }
            }
            // Keep only the latest read per thread.
            readers[f].retain(|&r| thread_of(r) != thread_of(s.tx));
            readers[f].push(s.tx);
        }
    }
    edges.retain(|&(a, b)| a != b);
    edges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pdg_matches_reference(seq in steps()) {
        let mut pdg = pdg4();
        for s in &seq {
            let field = (ObjId(0), s.field);
            if s.write {
                pdg.write(field, member(s.tx), &mut Vec::new());
            } else {
                pdg.read(field, member(s.tx));
            }
        }
        let got: HashSet<(u64, u64)> = pdg.edges().iter().map(|&e| ids(&pdg, e)).collect();
        prop_assert_eq!(got, reference_edges(&seq));
    }

    /// Cycle detection through a fresh edge agrees with reachability on the
    /// final graph.
    #[test]
    fn cycle_through_agrees_with_reachability(seq in steps()) {
        let mut pdg = pdg4();
        let mut edges_so_far: Vec<(u64, u64)> = Vec::new();
        for s in &seq {
            let field = (ObjId(0), s.field);
            let mut new = Vec::new();
            if s.write {
                pdg.write(field, member(s.tx), &mut new);
            } else {
                new.extend(pdg.read(field, member(s.tx)));
            }
            for e in new {
                let (src, dst) = ids(&pdg, e);
                edges_so_far.push((src, dst));
                // Reference: is src reachable from dst over current edges?
                let mut seen = HashSet::from([dst]);
                let mut work = vec![dst];
                let mut reachable = false;
                while let Some(v) = work.pop() {
                    if v == src {
                        reachable = true;
                        break;
                    }
                    for &(a, b) in &edges_so_far {
                        if a == v && seen.insert(b) {
                            work.push(b);
                        }
                    }
                }
                prop_assert_eq!(pdg.cycle_through(e).is_some(), reachable);
            }
        }
    }
}
