//! Deterministic lowering of a transactional history onto the workload IR.
//!
//! A history records *what each session observed*, not *when*: sessions are
//! ordered internally (program order) but carry no inter-session order. To
//! replay one through the checkers we must pick a concrete interleaving —
//! and it must be an interleaving that actually explains every read, or the
//! conflict graph we hand the checkers would not be the history's.
//!
//! The lowering is:
//!
//! * one plain single-field heap object per key: object `o` is key `o` of
//!   the history's key table, so keys keep their order of first appearance;
//! * one thread per session, whose *excluded* entry method `session{i}` just
//!   calls the session's transactions in program order — so, exactly like
//!   the built-in workloads, every access happens inside an atomic
//!   transaction method;
//! * one method `s{i}_t{j}#{id}` per transaction (carrying the dbcop
//!   transaction id in its name), whose body is the transaction's reads and
//!   writes;
//! * a [`Schedule::Scripted`] interleaving produced by a greedy
//!   serialization of the events (below), so the deterministic engine
//!   replays precisely the access order whose reads-from relation matches
//!   the file.
//!
//! # Versions
//!
//! Write values are unique and nonzero per key, so each read names exactly
//! one write (or the initial state, for value 0). `lower` numbers those
//! *versions* once: version `k` is key `k`'s initial state and version
//! `keys + w` is the `w`-th write in document order. The one hash table,
//! from `(key, value)` to version, is filled by a first pass over the
//! writes (which rejects duplicate and zero values); a second pass resolves
//! each read to its version, counts each version's readers, builds the
//! method bodies and records each event's *step position*: the index of its
//! action in its thread's step stream. The deterministic engine charges
//! one scheduled step per action, and that stream is fixed by program
//! order: `Enter(entry)` (fused with thread start), then per transaction
//! `Enter(tx)`, its events and `Exit(tx)`, then `Exit(entry)` and one last
//! step for thread end.
//!
//! # Greedy serialization
//!
//! We scan sessions from index 0 and repeatedly place the next event of the
//! first session whose next event is *enabled*:
//!
//! * a read is enabled iff its key currently holds the version it saw;
//! * a write is enabled iff **no** unplaced read still sees the key's
//!   current version (otherwise the write would destroy a version some read
//!   has yet to observe — writes wait behind their anti-dependencies).
//!
//! Scanning from index 0 every step makes the result deterministic. If no
//! session's next event is enabled the history is rejected as
//! [`HistoryError::Unrealizable`]: under the unique-written-values
//! convention the reads-from relation is exact, and this greedy strategy
//! only wedges when the mandated observation order is cyclic at the *event*
//! level (the anomaly cycles we care about — lost update, write skew,
//! fractured read, long fork — are cyclic only at transaction granularity
//! and replay fine; see DESIGN.md "History import" for the argument and the
//! limits).
//!
//! Placing an event appends its thread's steps up to and including the
//! event's step position to the script; once every event is placed, each
//! thread's remaining steps follow, in thread order. Delaying an `Exit`
//! never changes transaction membership or the access order, so the
//! conflict graphs are unaffected.
//!
//! Each scan compares versions in two dense vectors (the current version of
//! each key, the unplaced readers of each version) and either places one
//! event or ends in that rejection, so a history of `n` events over `s`
//! sessions costs at most `n × s` probes (`s` ≤ 64), none of them hashed:
//! the serializer needs no step budget to terminate.

use crate::schema::{Event, History, HistoryError, KeyId, MAX_KEYS};
use dc_runtime::engine::det::Schedule;
use dc_runtime::heap::ObjKind;
use dc_runtime::ids::{MethodId, ObjId, ThreadId};
use dc_runtime::program::{Op, Program, ProgramBuilder};
use dc_runtime::spec::AtomicitySpec;
use std::collections::HashMap;

/// A history lowered onto the workload IR, ready for any checker.
#[derive(Clone, Debug)]
pub struct Lowered {
    /// The program: one thread per session, one method per transaction.
    pub program: Program,
    /// Atomicity spec excluding the per-session entry methods, so each
    /// transaction method is an atomic region.
    pub spec: AtomicitySpec,
    /// Scripted schedule replaying the greedy serialization exactly.
    pub schedule: Schedule,
    /// `tx_methods[session][tx]` is the method lowered from that
    /// transaction, for mapping checker blame back to the history.
    pub tx_methods: Vec<Vec<MethodId>>,
}

/// An event resolved for the serializer.
struct Resolved {
    key: usize,
    /// The version a read saw, or the version a write makes.
    version: usize,
    write: bool,
    /// The event's position in its thread's step stream.
    step: usize,
}

/// A session's place in the serializer: its unplaced events are
/// `next..end` of the resolved stream, and `emitted` of its `steps` steps
/// are in the script.
struct Cursor {
    next: usize,
    end: usize,
    emitted: usize,
    steps: usize,
}

/// Lowers a validated history onto the workload IR.
///
/// # Errors
///
/// Returns [`HistoryError::EmptyHistory`],
/// [`HistoryError::DuplicateWriteValue`], [`HistoryError::ReadOfUnwritten`],
/// or [`HistoryError::Unrealizable`] when the history's values cannot be
/// explained, and [`HistoryError::TooManyKeys`] past [`MAX_KEYS`] distinct
/// keys; any other structurally valid history with explainable values
/// lowers to a valid program.
pub fn lower(history: &History) -> Result<Lowered, HistoryError> {
    let total = history.event_count();
    if total == 0 {
        return Err(HistoryError::EmptyHistory);
    }
    let keys = history.keys().len();
    let name = |key: KeyId| history.key_name(key).to_string();

    // The writes pass: version `keys + w` is the `w`-th write.
    let mut versions: HashMap<(KeyId, u64), usize> = HashMap::new();
    for ev in history.sessions.iter().flatten().flat_map(|tx| &tx.events) {
        if let Event::Write { key, value } = *ev {
            let version = keys + versions.len();
            if value == 0 || versions.insert((key, value), version).is_some() {
                return Err(HistoryError::DuplicateWriteValue {
                    key: name(key),
                    value,
                });
            }
        }
    }

    // The main pass: resolve reads, count readers, record step positions
    // and build the method bodies.
    let mut readers = vec![0u32; keys + versions.len()];
    let mut next_write = keys;
    let mut resolved = Vec::with_capacity(total);
    let mut cursors = Vec::with_capacity(history.sessions.len());
    let mut b = ProgramBuilder::new();
    // Object `o` is key `o`: one single-field object per key.
    for _ in 0..keys {
        b.object(ObjKind::Plain { fields: 1 });
    }
    let mut tx_methods = Vec::with_capacity(history.sessions.len());
    let mut entries = Vec::with_capacity(history.sessions.len());
    for (si, session) in history.sessions.iter().enumerate() {
        let next = resolved.len();
        let mut step = 1; // After Enter(entry), fused with thread start.
        let mut methods = Vec::with_capacity(session.len());
        let mut body = Vec::with_capacity(session.len());
        for (ti, tx) in session.iter().enumerate() {
            step += 1; // Enter(tx).
            let mut ops = Vec::with_capacity(tx.events.len());
            for ev in &tx.events {
                let (key, write) = (ev.key(), ev.is_write());
                let version = match *ev {
                    Event::Write { .. } => {
                        next_write += 1;
                        next_write - 1
                    }
                    Event::Read { value: 0, .. } => key.index(),
                    Event::Read { value, .. } => *versions.get(&(key, value)).ok_or_else(|| {
                        HistoryError::ReadOfUnwritten {
                            key: name(key),
                            value,
                        }
                    })?,
                };
                if !write {
                    readers[version] += 1;
                }
                let access = if write { Op::Write } else { Op::Read };
                ops.push(access(ObjId(key.0), 0));
                let key = key.index();
                resolved.push(Resolved {
                    key,
                    version,
                    write,
                    step,
                });
                step += 1;
            }
            step += 1; // Exit(tx).
            let m = b.method(format!("s{si}_t{ti}#{}", tx.id), ops);
            methods.push(m);
            body.push(Op::Call(m));
        }
        let entry = b.method(format!("session{si}"), body);
        b.thread(entry);
        entries.push(entry);
        tx_methods.push(methods);
        // Exit(entry) and thread end.
        let (end, steps) = (resolved.len(), step + 2);
        cursors.push(Cursor {
            next,
            end,
            emitted: 0,
            steps,
        });
    }

    // The serializer: place the first enabled event, scanning from
    // session 0, and append its thread's steps through that event.
    let mut current: Vec<usize> = (0..keys).collect();
    let mut script = Vec::with_capacity(cursors.iter().map(|c| c.steps).sum());
    for placed in 0..total {
        let enabled = |c: &Cursor| match resolved[c.next..c.end].first() {
            Some(ev) if ev.write => readers[current[ev.key]] == 0,
            Some(ev) => current[ev.key] == ev.version,
            None => false,
        };
        let Some(si) = cursors.iter().position(enabled) else {
            return Err(HistoryError::Unrealizable { placed, total });
        };
        let c = &mut cursors[si];
        let ev = &resolved[c.next];
        if ev.write {
            current[ev.key] = ev.version;
        } else {
            readers[ev.version] -= 1;
        }
        let thread = ThreadId::from_index(si);
        script.extend(std::iter::repeat_n(thread, ev.step + 1 - c.emitted));
        c.emitted = ev.step + 1;
        c.next += 1;
    }
    for (si, c) in cursors.iter().enumerate() {
        script.extend(std::iter::repeat_n(
            ThreadId::from_index(si),
            c.steps - c.emitted,
        ));
    }
    if keys > MAX_KEYS {
        return Err(HistoryError::TooManyKeys { keys });
    }

    let program = b
        .build()
        .expect("lowered histories always form valid programs");
    Ok(Lowered {
        spec: AtomicitySpec::excluding(entries),
        schedule: Schedule::Scripted(script),
        program,
        tx_methods,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Expected, Transaction};
    use dc_core::{run_single, ExecPlan};

    /// `(op, key, value)` literal events, grouped tx-then-session.
    type TxEvents<'a> = &'a [(&'a str, &'a str, u64)];

    fn history(sessions: &[&[TxEvents<'_>]]) -> History {
        let mut id = 0;
        // A provisional key id per distinct name, indexing `names`.
        let mut names: Vec<String> = Vec::new();
        let mut h = History::default();
        h.sessions = sessions
            .iter()
            .map(|session| {
                session
                    .iter()
                    .map(|tx| {
                        id += 1;
                        Transaction {
                            id,
                            events: tx
                                .iter()
                                .map(|&(op, name, value)| {
                                    let k = names.iter().position(|n| n == name);
                                    let key = KeyId(k.unwrap_or(names.len()) as u32);
                                    if k.is_none() {
                                        names.push(name.to_string());
                                    }
                                    if op == "w" {
                                        Event::Write { key, value }
                                    } else {
                                        Event::Read { key, value }
                                    }
                                })
                                .collect(),
                        }
                    })
                    .collect()
            })
            .collect();
        h.intern_keys(names);
        h
    }

    fn violations(h: &History) -> usize {
        let lowered = lower(h).expect("lowers");
        let report = run_single(
            &lowered.program,
            &lowered.spec,
            &ExecPlan::Det(lowered.schedule.clone()),
        )
        .expect("scripted replay runs to completion");
        report.violations.len()
    }

    #[test]
    fn lost_update_interleaving_is_a_violation() {
        let h = history(&[
            &[&[("r", "x", 0), ("w", "x", 1)]],
            &[&[("r", "x", 0), ("w", "x", 2)]],
        ]);
        assert!(violations(&h) > 0);
    }

    #[test]
    fn write_skew_is_a_violation() {
        let h = history(&[
            &[&[("r", "x", 0), ("r", "y", 0), ("w", "x", 1)]],
            &[&[("r", "x", 0), ("r", "y", 0), ("w", "y", 2)]],
        ]);
        assert!(violations(&h) > 0);
    }

    #[test]
    fn fractured_read_is_a_violation() {
        let h = history(&[
            &[&[("w", "x", 1), ("w", "y", 2)]],
            &[&[("r", "x", 1), ("r", "y", 0)]],
        ]);
        assert!(violations(&h) > 0);
    }

    #[test]
    fn long_fork_is_a_violation() {
        let h = history(&[
            &[&[("w", "x", 1)]],
            &[&[("w", "y", 1)]],
            &[&[("r", "x", 1), ("r", "y", 0)]],
            &[&[("r", "x", 0), ("r", "y", 1)]],
        ]);
        assert!(violations(&h) > 0);
    }

    #[test]
    fn serial_single_session_is_clean() {
        let h = history(&[&[
            &[("w", "x", 1), ("w", "y", 2)],
            &[("r", "x", 1), ("r", "y", 2)],
        ]]);
        assert_eq!(violations(&h), 0);
    }

    #[test]
    fn serializable_but_interleaved_control_is_clean() {
        // S1: T1 w(x,1); T2 r(y,2).  S2: T3 r(x,1) w(y,2).
        // Greedy interleaves T3 between T1 and T2, but T1 → T3 → T2 is
        // acyclic, so no checker may complain.
        let h = history(&[
            &[&[("w", "x", 1)], &[("r", "y", 2)]],
            &[&[("r", "x", 1), ("w", "y", 2)]],
        ]);
        assert_eq!(violations(&h), 0);
    }

    #[test]
    fn empty_transactions_still_replay() {
        let h = history(&[&[&[], &[("w", "x", 1)], &[]], &[&[("r", "x", 1)]]]);
        assert_eq!(violations(&h), 0);
    }

    #[test]
    fn empty_history_is_rejected() {
        let h = history(&[&[&[]], &[]]);
        assert_eq!(lower(&h).unwrap_err(), HistoryError::EmptyHistory);
    }

    #[test]
    fn duplicate_write_values_are_rejected() {
        let h = history(&[&[&[("w", "x", 1)]], &[&[("w", "x", 1)]]]);
        assert_eq!(
            lower(&h).unwrap_err(),
            HistoryError::DuplicateWriteValue {
                key: "x".into(),
                value: 1,
            }
        );
        let zero = history(&[&[&[("w", "x", 0)]]]);
        assert!(matches!(
            lower(&zero).unwrap_err(),
            HistoryError::DuplicateWriteValue { value: 0, .. }
        ));
    }

    #[test]
    fn read_of_never_written_value_is_rejected() {
        let h = history(&[&[&[("r", "x", 7)]], &[&[("w", "x", 1)]]]);
        assert_eq!(
            lower(&h).unwrap_err(),
            HistoryError::ReadOfUnwritten {
                key: "x".into(),
                value: 7,
            }
        );
    }

    #[test]
    fn contradictory_observations_are_unrealizable() {
        // Same session reads 0 after overwriting it; nothing can restore 0.
        let h = history(&[&[&[("w", "x", 1), ("r", "x", 0)]]]);
        assert!(matches!(
            lower(&h).unwrap_err(),
            HistoryError::Unrealizable { .. }
        ));
    }

    #[test]
    fn distinct_keys_are_limited() {
        use crate::schema::MAX_EVENTS_PER_TX;
        // One write per key, in transactions that respect the event limit.
        let with_keys = |n: usize| {
            let mut h = History::default();
            h.sessions = vec![(0..n)
                .collect::<Vec<_>>()
                .chunks(MAX_EVENTS_PER_TX)
                .map(|chunk| Transaction {
                    id: chunk[0] as u64,
                    events: chunk
                        .iter()
                        .map(|&k| Event::Write {
                            key: KeyId(k as u32),
                            value: 1,
                        })
                        .collect(),
                })
                .collect()];
            h.intern_keys((0..n).map(|k| format!("k{k}")).collect());
            h
        };
        let at = with_keys(MAX_KEYS);
        assert!(lower(&at).is_ok());
        assert_eq!(at.keys().len(), MAX_KEYS);
        assert_eq!(
            lower(&with_keys(MAX_KEYS + 1)).unwrap_err(),
            HistoryError::TooManyKeys { keys: MAX_KEYS + 1 }
        );
    }

    #[test]
    fn method_names_carry_session_and_tx_identity() {
        let h = history(&[&[&[("w", "x", 1)]], &[&[("r", "x", 1)]]]);
        let lowered = lower(&h).unwrap();
        assert_eq!(
            lowered.program.method_name(lowered.tx_methods[0][0]),
            "s0_t0#1"
        );
        assert_eq!(h.keys(), vec!["x".to_string()]);
        assert_eq!(
            lowered.program.method_name(lowered.tx_methods[1][0]),
            "s1_t0#2"
        );
    }

    #[test]
    fn expected_annotation_survives_parse_lower_round_trip() {
        let mut h = history(&[&[&[("w", "x", 1)]], &[&[("r", "x", 1)]]]);
        h.expected = Some(Expected::Serializable);
        let reparsed = History::parse(&h.to_json()).unwrap();
        assert_eq!(reparsed.expected, Some(Expected::Serializable));
        assert!(lower(&reparsed).is_ok());
    }
}
