//! Precise atomicity-violation reports with blame assignment.

use dc_icd::{TxId, TxKind};
use dc_runtime::ids::{MethodId, ThreadId};

/// One transaction participating in a precise cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CycleMember {
    /// The transaction.
    pub tx: TxId,
    /// Its executing thread.
    pub thread: ThreadId,
    /// Regular (with rooting method) or unary.
    pub kind: TxKind,
}

/// A precise conflict-serializability violation: a PDG cycle, with blame
/// assignment (paper §3.3) identifying the transaction(s) that completed it
/// ([`Pdg::violation_through`](crate::Pdg::violation_through)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The cycle's member transactions.
    pub cycle: Vec<CycleMember>,
    /// Blamed transactions (usually one).
    pub blamed: Vec<TxId>,
}

impl Violation {
    /// Methods of the blamed regular transactions — the units iterative
    /// refinement removes from the atomicity specification (Figure 6).
    pub fn blamed_methods(&self) -> Vec<MethodId> {
        let mut methods: Vec<MethodId> = self
            .blamed
            .iter()
            .filter_map(|tx| {
                self.cycle
                    .iter()
                    .find(|m| m.tx == *tx)
                    .and_then(|m| m.kind.method())
            })
            .collect();
        // If blame fell only on unary transactions, fall back to every
        // regular member so refinement can still make progress.
        if methods.is_empty() {
            methods = self.cycle.iter().filter_map(|m| m.kind.method()).collect();
        }
        methods.sort();
        methods.dedup();
        methods
    }

    /// A static identity for deduplication across trials: the sorted multiset
    /// of member methods (unary members collapse to `None`).
    pub fn static_key(&self) -> Vec<Option<MethodId>> {
        let mut key: Vec<Option<MethodId>> = self.cycle.iter().map(|m| m.kind.method()).collect();
        key.sort();
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violation(kinds: &[(u64, u16, TxKind)], blamed: &[u64]) -> Violation {
        Violation {
            cycle: kinds
                .iter()
                .map(|&(id, t, kind)| CycleMember {
                    tx: TxId(id),
                    thread: ThreadId(t),
                    kind,
                })
                .collect(),
            blamed: blamed.iter().map(|&b| TxId(b)).collect(),
        }
    }

    #[test]
    fn blamed_methods_picks_blamed_regular_members() {
        let v = violation(
            &[
                (1, 0, TxKind::Regular(MethodId(10))),
                (2, 1, TxKind::Regular(MethodId(20))),
            ],
            &[1],
        );
        assert_eq!(v.blamed_methods(), vec![MethodId(10)]);
    }

    #[test]
    fn blame_on_unary_falls_back_to_regular_members() {
        let v = violation(
            &[(1, 0, TxKind::Unary), (2, 1, TxKind::Regular(MethodId(20)))],
            &[1],
        );
        assert_eq!(v.blamed_methods(), vec![MethodId(20)]);
    }

    #[test]
    fn static_key_is_order_insensitive() {
        let v1 = violation(
            &[
                (1, 0, TxKind::Regular(MethodId(1))),
                (2, 1, TxKind::Regular(MethodId(2))),
            ],
            &[1],
        );
        let v2 = violation(
            &[
                (9, 1, TxKind::Regular(MethodId(2))),
                (8, 0, TxKind::Regular(MethodId(1))),
            ],
            &[9],
        );
        assert_eq!(v1.static_key(), v2.static_key());
    }
}
