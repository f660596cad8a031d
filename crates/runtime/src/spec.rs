//! Atomicity specifications and transaction demarcation.
//!
//! Following the paper (§4 "Specifying atomic regions"), a specification is a
//! list of methods *excluded* from atomicity; every other method is expected
//! to execute atomically. A regular transaction starts when an atomic method
//! is entered from a non-transactional context and ends when that method
//! exits; everything else executes in unary-transaction context.
//!
//! [`TxTracker`] implements that demarcation once so Velodrome and
//! DoubleChecker demarcate transactions identically (paper §4: "they
//! demarcate transactions the same way").

use crate::ids::MethodId;
use std::collections::HashSet;

/// An atomicity specification: the set of methods excluded from atomicity.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AtomicitySpec {
    excluded: HashSet<MethodId>,
}

impl AtomicitySpec {
    /// The strictest specification: every method is atomic.
    pub fn all_atomic() -> Self {
        Self::default()
    }

    /// Builds a specification excluding the given methods.
    pub fn excluding<I: IntoIterator<Item = MethodId>>(methods: I) -> Self {
        AtomicitySpec {
            excluded: methods.into_iter().collect(),
        }
    }

    /// True if `m` is expected to execute atomically.
    #[inline]
    pub fn is_atomic(&self, m: MethodId) -> bool {
        !self.excluded.contains(&m)
    }

    /// Excludes `m` from the specification (iterative refinement removes
    /// blamed methods, Figure 6). Returns true if `m` was newly excluded.
    pub fn exclude(&mut self, m: MethodId) -> bool {
        self.excluded.insert(m)
    }

    /// The excluded methods, in unspecified order.
    pub fn excluded(&self) -> impl Iterator<Item = MethodId> + '_ {
        self.excluded.iter().copied()
    }

    /// Intersection of two specifications' *atomic* sets — i.e. the union of
    /// their exclusions. Used to prepare final performance specifications
    /// without bias toward one checker (paper §5.1).
    pub fn intersect_atomic(&self, other: &AtomicitySpec) -> AtomicitySpec {
        AtomicitySpec {
            excluded: self.excluded.union(&other.excluded).copied().collect(),
        }
    }
}

/// What kind of transaction a dynamic transaction is. Defined here because
/// every checker (DoubleChecker and the Velodrome baseline) demarcates
/// transactions identically (paper §4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TxKind {
    /// A regular transaction: a dynamic execution of an atomic region,
    /// statically identified by the method that roots it.
    Regular(MethodId),
    /// A unary transaction: accesses outside any atomic region; consecutive
    /// unary transactions not interrupted by a cross-thread edge are merged
    /// (paper §4).
    Unary,
}

impl TxKind {
    /// True for regular (non-unary) transactions.
    pub fn is_regular(self) -> bool {
        matches!(self, TxKind::Regular(_))
    }

    /// The rooting method for regular transactions.
    pub fn method(self) -> Option<MethodId> {
        match self {
            TxKind::Regular(m) => Some(m),
            TxKind::Unary => None,
        }
    }
}

/// Which transactions a checker instruments — the *static transaction
/// information* the first run of multi-run mode passes to the second run
/// (paper §3.1): the methods of regular transactions seen in imprecise
/// cycles, plus a boolean for whether any unary transaction was involved in
/// any cycle.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TxFilter {
    /// `None`: instrument every regular transaction (single-run mode).
    /// `Some(set)`: instrument only regular transactions rooted at these
    /// methods.
    pub methods: Option<HashSet<MethodId>>,
    /// Instrument accesses in unary (non-transactional) context. The second
    /// run instruments them "if and only if the first run identified any
    /// non-transactional accesses involved in cycles" (§5.3).
    pub instrument_unary: bool,
}

impl TxFilter {
    /// The instrument-everything filter (single-run mode).
    pub fn all() -> Self {
        TxFilter {
            methods: None,
            instrument_unary: true,
        }
    }

    /// True if regular transactions rooted at `m` should be instrumented.
    #[inline]
    pub fn covers_method(&self, m: MethodId) -> bool {
        match &self.methods {
            None => true,
            Some(set) => set.contains(&m),
        }
    }
}

/// What happened at a method-entry event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnterOutcome {
    /// A regular transaction starts here, rooted at this method.
    BeginTransaction(MethodId),
    /// Already inside a transaction (nested call); nothing starts.
    Nested,
    /// Non-transactional context continues.
    NonTransactional,
}

/// What happened at a method-exit event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExitOutcome {
    /// The regular transaction rooted at this method ends here.
    EndTransaction(MethodId),
    /// Still inside an enclosing transaction.
    Nested,
    /// Non-transactional context continues.
    NonTransactional,
}

/// Per-thread method-context state machine deciding where regular
/// transactions begin and end.
#[derive(Clone, Debug, Default)]
pub struct TxTracker {
    /// Call stack of (method, did this frame start the transaction).
    stack: Vec<(MethodId, bool)>,
    /// Depth of the frame that started the current transaction, if any.
    tx_root: Option<usize>,
}

impl TxTracker {
    /// Creates a tracker in non-transactional context.
    pub fn new() -> Self {
        Self::default()
    }

    /// The method that rooted the current transaction, if inside one.
    pub fn transaction_method(&self) -> Option<MethodId> {
        self.tx_root.map(|d| self.stack[d].0)
    }

    /// Current call depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Records entry to `m` under `spec`.
    pub fn enter(&mut self, m: MethodId, spec: &AtomicitySpec) -> EnterOutcome {
        if self.tx_root.is_some() {
            self.stack.push((m, false));
            return EnterOutcome::Nested;
        }
        if spec.is_atomic(m) {
            self.tx_root = Some(self.stack.len());
            self.stack.push((m, true));
            EnterOutcome::BeginTransaction(m)
        } else {
            self.stack.push((m, false));
            EnterOutcome::NonTransactional
        }
    }

    /// Records exit from the top-of-stack method.
    ///
    /// # Panics
    ///
    /// Panics if the call stack is empty or `m` does not match the method on
    /// top of the stack (engine bug).
    pub fn exit(&mut self, m: MethodId) -> ExitOutcome {
        let (top, started) = self.stack.pop().expect("method exit with empty stack");
        assert_eq!(top, m, "method exit does not match entry");
        if started {
            self.tx_root = None;
            ExitOutcome::EndTransaction(m)
        } else if self.tx_root.is_some() {
            ExitOutcome::Nested
        } else {
            ExitOutcome::NonTransactional
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: MethodId = MethodId(0);
    const B: MethodId = MethodId(1);
    const C: MethodId = MethodId(2);

    #[test]
    fn all_atomic_spec_marks_everything_atomic() {
        let spec = AtomicitySpec::all_atomic();
        assert!(spec.is_atomic(A));
        assert!(spec.is_atomic(MethodId(999)));
        assert_eq!(spec.excluded().count(), 0);
    }

    #[test]
    fn exclusion_removes_atomicity() {
        let mut spec = AtomicitySpec::all_atomic();
        assert!(spec.exclude(B));
        assert!(!spec.exclude(B), "second exclusion reports not-new");
        assert!(spec.is_atomic(A));
        assert!(!spec.is_atomic(B));
        assert_eq!(spec.excluded().collect::<Vec<_>>(), vec![B]);
    }

    #[test]
    fn intersect_atomic_unions_exclusions() {
        let s1 = AtomicitySpec::excluding([A]);
        let s2 = AtomicitySpec::excluding([B]);
        let joint = s1.intersect_atomic(&s2);
        assert!(!joint.is_atomic(A));
        assert!(!joint.is_atomic(B));
        assert!(joint.is_atomic(C));
    }

    #[test]
    fn atomic_method_from_outside_begins_transaction() {
        let spec = AtomicitySpec::all_atomic();
        let mut tx = TxTracker::new();
        assert_eq!(tx.enter(A, &spec), EnterOutcome::BeginTransaction(A));
        assert_eq!(tx.transaction_method(), Some(A));
        assert_eq!(tx.exit(A), ExitOutcome::EndTransaction(A));
        assert_eq!(tx.transaction_method(), None);
    }

    #[test]
    fn nested_atomic_method_does_not_restart_transaction() {
        let spec = AtomicitySpec::all_atomic();
        let mut tx = TxTracker::new();
        tx.enter(A, &spec);
        assert_eq!(tx.enter(B, &spec), EnterOutcome::Nested);
        assert_eq!(tx.transaction_method(), Some(A));
        assert_eq!(tx.exit(B), ExitOutcome::Nested);
        assert_eq!(tx.exit(A), ExitOutcome::EndTransaction(A));
    }

    #[test]
    fn excluded_entry_method_leaves_context_non_transactional() {
        let spec = AtomicitySpec::excluding([A]);
        let mut tx = TxTracker::new();
        assert_eq!(tx.enter(A, &spec), EnterOutcome::NonTransactional);
        assert_eq!(tx.transaction_method(), None);
        // An atomic callee *does* start a transaction from the excluded
        // caller's non-transactional context.
        assert_eq!(tx.enter(B, &spec), EnterOutcome::BeginTransaction(B));
        assert_eq!(tx.exit(B), ExitOutcome::EndTransaction(B));
        assert_eq!(tx.exit(A), ExitOutcome::NonTransactional);
    }

    #[test]
    fn excluded_callee_inside_transaction_stays_transactional() {
        // Non-atomic methods called from a transactional context execute
        // transactionally (caller's context), per paper §4.
        let spec = AtomicitySpec::excluding([B]);
        let mut tx = TxTracker::new();
        tx.enter(A, &spec);
        assert_eq!(tx.enter(B, &spec), EnterOutcome::Nested);
        assert!(tx.transaction_method().is_some());
        assert_eq!(tx.exit(B), ExitOutcome::Nested);
        assert_eq!(tx.exit(A), ExitOutcome::EndTransaction(A));
    }

    #[test]
    fn depth_tracks_stack() {
        let spec = AtomicitySpec::all_atomic();
        let mut tx = TxTracker::new();
        assert_eq!(tx.depth(), 0);
        tx.enter(A, &spec);
        tx.enter(B, &spec);
        assert_eq!(tx.depth(), 2);
        tx.exit(B);
        assert_eq!(tx.depth(), 1);
    }

    #[test]
    fn tx_filter_all_covers_everything() {
        let f = TxFilter::all();
        assert!(f.covers_method(A));
        assert!(f.instrument_unary);
    }

    #[test]
    fn tx_filter_selects_methods() {
        let f = TxFilter {
            methods: Some([A].into_iter().collect()),
            instrument_unary: false,
        };
        assert!(f.covers_method(A));
        assert!(!f.covers_method(B));
        let empty = TxFilter {
            methods: Some(HashSet::new()),
            instrument_unary: false,
        };
        assert!(!empty.covers_method(A) && !empty.covers_method(B));
    }

    #[test]
    #[should_panic(expected = "method exit does not match entry")]
    fn mismatched_exit_panics() {
        let spec = AtomicitySpec::all_atomic();
        let mut tx = TxTracker::new();
        tx.enter(A, &spec);
        tx.exit(B);
    }
}
