//! Packed per-object state word.
//!
//! Octet keeps each object's locality state in a single word updated with at
//! most one atomic operation per transition; the fast path is a single load
//! and compare. The low three bits are a tag; the payload is a thread id or
//! the read-shared counter. An *intermediate* tag marks an in-flight
//! conflicting transition so only one thread at a time changes an object's
//! state (paper §3.2.1).

use crate::state::OctetState;
use dc_runtime::ids::ThreadId;
use std::sync::atomic::{AtomicU64, Ordering};

const TAG_FREE: u64 = 0;
const TAG_WREX: u64 = 1;
const TAG_RDEX: u64 = 2;
const TAG_RDSH: u64 = 3;
const TAG_INT: u64 = 4;
const TAG_BITS: u64 = 0b111;

/// Decoded contents of a state word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodedState {
    /// A stable state.
    Stable(OctetState),
    /// An intermediate state owned by the requesting thread.
    Intermediate(ThreadId),
}

/// Encodes a stable state.
#[inline]
pub fn encode(state: OctetState) -> u64 {
    match state {
        OctetState::Free => TAG_FREE,
        OctetState::WrEx(t) => TAG_WREX | (u64::from(t.0) << 3),
        OctetState::RdEx(t) => TAG_RDEX | (u64::from(t.0) << 3),
        OctetState::RdSh(c) => TAG_RDSH | (u64::from(c) << 3),
    }
}

/// Encodes the intermediate state held by requester `t`.
#[inline]
pub fn encode_intermediate(t: ThreadId) -> u64 {
    TAG_INT | (u64::from(t.0) << 3)
}

/// Decodes a state word.
#[inline]
pub fn decode(word: u64) -> DecodedState {
    let payload = word >> 3;
    match word & TAG_BITS {
        TAG_FREE => DecodedState::Stable(OctetState::Free),
        TAG_WREX => DecodedState::Stable(OctetState::WrEx(ThreadId(payload as u16))),
        TAG_RDEX => DecodedState::Stable(OctetState::RdEx(ThreadId(payload as u16))),
        TAG_RDSH => DecodedState::Stable(OctetState::RdSh(payload as u32)),
        TAG_INT => DecodedState::Intermediate(ThreadId(payload as u16)),
        _ => unreachable!("corrupt octet state word"),
    }
}

/// The counter of a read-shared word, `None` for every other state: the
/// barrier's inlined same-state test, which must not pay for a full
/// [`decode`].
#[inline]
pub fn rd_sh_counter(word: u64) -> Option<u32> {
    (word & TAG_BITS == TAG_RDSH).then_some((word >> 3) as u32)
}

/// The per-object atomic state-word table.
pub struct StateTable {
    words: Box<[AtomicU64]>,
}

impl StateTable {
    /// Creates a table of `n` objects, all [`OctetState::Free`].
    pub fn new(n: usize) -> Self {
        StateTable {
            words: (0..n).map(|_| AtomicU64::new(TAG_FREE)).collect(),
        }
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Fast-path load of object `i`'s state word.
    #[inline]
    pub fn load(&self, i: usize) -> u64 {
        self.words[i].load(Ordering::Acquire)
    }

    /// CAS of object `i`'s word; returns the observed word on failure.
    #[inline]
    pub fn compare_exchange(&self, i: usize, old: u64, new: u64) -> Result<(), u64> {
        self.words[i]
            .compare_exchange(old, new, Ordering::AcqRel, Ordering::Acquire)
            .map(|_| ())
    }

    /// Unconditional store, used by the requester that owns the in-flight
    /// intermediate state to publish the final state.
    #[inline]
    pub fn store(&self, i: usize, word: u64) {
        self.words[i].store(word, Ordering::Release);
    }
}

impl std::fmt::Debug for StateTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateTable")
            .field("objects", &self.words.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trips() {
        for state in [
            OctetState::Free,
            OctetState::WrEx(ThreadId(0)),
            OctetState::WrEx(ThreadId(65_535)),
            OctetState::RdEx(ThreadId(7)),
            OctetState::RdSh(0),
            OctetState::RdSh(u32::MAX),
        ] {
            assert_eq!(decode(encode(state)), DecodedState::Stable(state));
        }
    }

    #[test]
    fn intermediate_round_trips() {
        assert_eq!(
            decode(encode_intermediate(ThreadId(9))),
            DecodedState::Intermediate(ThreadId(9))
        );
    }

    #[test]
    fn distinct_states_encode_distinctly() {
        let words = [
            encode(OctetState::Free),
            encode(OctetState::WrEx(ThreadId(1))),
            encode(OctetState::RdEx(ThreadId(1))),
            encode(OctetState::RdSh(1)),
            encode_intermediate(ThreadId(1)),
        ];
        for i in 0..words.len() {
            for j in (i + 1)..words.len() {
                assert_ne!(words[i], words[j]);
            }
        }
    }

    #[test]
    fn table_cas_and_store() {
        let t = StateTable::new(2);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let free = encode(OctetState::Free);
        let wrex = encode(OctetState::WrEx(ThreadId(3)));
        assert!(t.compare_exchange(0, free, wrex).is_ok());
        assert_eq!(t.load(0), wrex);
        // Failed CAS returns the observed value.
        assert_eq!(t.compare_exchange(0, free, wrex), Err(wrex));
        t.store(0, free);
        assert_eq!(t.load(0), free);
        // Object 1 untouched.
        assert_eq!(t.load(1), free);
    }
}
