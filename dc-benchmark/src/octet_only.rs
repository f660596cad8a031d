//! The first rung of the ablation ladder: Octet's barriers alone.
//!
//! A `Checker` over `Protocol<NullSink>`: every access runs the Octet
//! barrier (inline cache, state word, coordination) and nothing else — no
//! transactions, no ICD, no log. `octet-only − nop` is what the barriers
//! cost; `first-run − octet-only` is what ICD adds on top.

use dc_octet::{CoordinationMode, NullSink, Protocol, ProtocolStats};
use dc_runtime::checker::Checker;
use dc_runtime::heap::Heap;
use dc_runtime::ids::{AccessKind, CellId, ObjId, ThreadId};
use std::sync::OnceLock;

/// Octet barriers with no client analysis.
#[derive(Debug)]
pub struct OctetOnly {
    n_threads: usize,
    mode: CoordinationMode,
    protocol: OnceLock<Protocol<NullSink>>,
}

impl OctetOnly {
    /// A checker for `n_threads` threads; the protocol is sized at
    /// `run_begin`, when the heap is known.
    pub fn new(n_threads: usize, mode: CoordinationMode) -> Self {
        OctetOnly {
            n_threads,
            mode,
            protocol: OnceLock::new(),
        }
    }

    fn octet(&self) -> &Protocol<NullSink> {
        self.protocol.get().expect("run_begin sizes the protocol")
    }

    /// Transition counts of the finished run.
    pub fn stats(&self) -> &ProtocolStats {
        self.octet().stats()
    }
}

impl Checker for OctetOnly {
    fn run_begin(&self, heap: &Heap) {
        let _ = self.protocol.set(Protocol::with_config(
            heap.len(),
            self.n_threads,
            self.mode,
            NullSink,
            None,
            true,
        ));
    }
    fn thread_begin(&self, t: ThreadId) {
        self.octet().thread_begin(t);
    }
    fn thread_end(&self, t: ThreadId) {
        self.octet().thread_end(t);
    }
    #[inline]
    fn read(&self, t: ThreadId, obj: ObjId, _: CellId) {
        self.octet().access(t, obj, AccessKind::Read);
    }
    #[inline]
    fn write(&self, t: ThreadId, obj: ObjId, _: CellId) {
        self.octet().access(t, obj, AccessKind::Write);
    }
    // Arrays are not instrumented, as in every DoubleChecker configuration.
    fn array_read(&self, _: ThreadId, _: ObjId, _: CellId) {}
    fn array_write(&self, _: ThreadId, _: ObjId, _: CellId) {}
    fn sync_acquire(&self, t: ThreadId, obj: ObjId) {
        self.octet().access(t, obj, AccessKind::Read);
    }
    fn sync_release(&self, t: ThreadId, obj: ObjId) {
        self.octet().access(t, obj, AccessKind::Write);
    }
    #[inline]
    fn safe_point(&self, t: ThreadId) {
        self.octet().safe_point(t);
    }
    fn before_block(&self, t: ThreadId) {
        self.octet().before_block(t);
    }
    fn after_unblock(&self, t: ThreadId) {
        self.octet().after_unblock(t);
    }
}
