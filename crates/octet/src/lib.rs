//! Octet: software concurrency control that captures cross-thread
//! dependences with fence-free fast paths (Bond et al., OOPSLA 2013).
//!
//! DoubleChecker's imprecise analysis (ICD) piggybacks on Octet's state
//! transitions to detect cross-thread dependences soundly but imprecisely
//! (paper §3.2.1). This crate is a from-scratch Rust implementation of the
//! protocol as the paper describes it:
//!
//! * [`state`] — the Table-1 state machine (`WrEx`/`RdEx`/`RdSh` and the
//!   same-state / upgrading / fence / conflicting classification),
//! * [`word`] — the packed per-object atomic state word with the
//!   intermediate state used during conflicting transitions,
//! * [`registry`] — one slot per thread: the status and request words
//!   backing the explicit/implicit coordination protocol, and the
//!   thread's own ownership-cache table, claim buffer and tallies,
//! * [`protocol`] — the barrier bodies, coordination, the global
//!   read-shared counter `gRdShCnt`, and per-thread `rdShCnt` views,
//!   plus the per-thread ownership inline cache (private `cache`
//!   module) that elides the state-word load for re-accessed owned
//!   objects.
//!
//! # Example
//!
//! ```
//! use dc_octet::{BarrierOutcome, CoordinationMode, NullSink, Protocol};
//! use dc_runtime::ids::{ObjId, ThreadId};
//!
//! let octet = Protocol::new(1, 2, CoordinationMode::Immediate, NullSink);
//! octet.thread_begin(ThreadId(0));
//! octet.thread_begin(ThreadId(1));
//! // First write claims the object; the same thread's next access is the
//! // fence-free fast path.
//! assert_eq!(octet.write_barrier(ThreadId(0), ObjId(0)), BarrierOutcome::FirstTouch);
//! assert_eq!(octet.read_barrier(ThreadId(0), ObjId(0)), BarrierOutcome::Same);
//! // Another thread's read is a conflicting transition.
//! assert!(matches!(
//!     octet.read_barrier(ThreadId(1), ObjId(0)),
//!     BarrierOutcome::Conflicting { .. }
//! ));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
pub mod protocol;
pub mod registry;
pub mod state;
pub mod word;

pub use protocol::{
    BarrierOutcome, CoordinationMode, NullSink, Protocol, ProtocolStats, ThreadHandle,
    TransitionSink,
};
pub use state::{classify, possibly_dependent, OctetState, Responders, TransitionKind};
pub use word::DecodedState;
