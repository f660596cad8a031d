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
//! * one plain single-field heap object per key, in order of first
//!   appearance;
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
//! # Greedy serialization
//!
//! We scan session cursors from index 0 and repeatedly schedule the first
//! session whose next event is *enabled*:
//!
//! * a read `r(k, v)` is enabled iff the current value of `k` is `v`;
//! * a write `w(k, v)` is enabled iff **no** unscheduled read anywhere still
//!   needs the *current* value of `k` (otherwise the write would destroy a
//!   value some read has yet to observe — writes wait behind their
//!   anti-dependencies).
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

use crate::schema::{Event, History, HistoryError, MAX_KEYS};
use dc_runtime::engine::det::Schedule;
use dc_runtime::heap::ObjKind;
use dc_runtime::ids::{MethodId, ObjId, ThreadId};
use dc_runtime::program::{Op, Program, ProgramBuilder};
use dc_runtime::spec::AtomicitySpec;
use std::collections::{HashMap, HashSet, VecDeque};

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
    /// Key names in object-id order (`keys[o.index()]` is object `o`).
    pub keys: Vec<String>,
}

/// Validates the value conventions: unique nonzero write values per key and
/// every nonzero read explained by some write.
fn validate_values(history: &History) -> Result<(), HistoryError> {
    if history.event_count() == 0 {
        return Err(HistoryError::EmptyHistory);
    }
    let mut written: HashSet<(&str, u64)> = HashSet::new();
    for tx in history.sessions.iter().flatten() {
        for ev in &tx.events {
            if let Event::Write { key, value } = ev {
                if *value == 0 || !written.insert((key, *value)) {
                    return Err(HistoryError::DuplicateWriteValue {
                        key: key.clone(),
                        value: *value,
                    });
                }
            }
        }
    }
    for tx in history.sessions.iter().flatten() {
        for ev in &tx.events {
            if let Event::Read { key, value } = ev {
                if *value != 0 && !written.contains(&(key.as_str(), *value)) {
                    return Err(HistoryError::ReadOfUnwritten {
                        key: key.clone(),
                        value: *value,
                    });
                }
            }
        }
    }
    Ok(())
}

/// Greedy deterministic serialization over per-session flattened event
/// streams. Returns, per step, the session that ran its next event.
fn serialize_events(streams: &[Vec<&Event>]) -> Result<Vec<usize>, HistoryError> {
    let total: usize = streams.iter().map(Vec::len).sum();
    let mut cursors = vec![0usize; streams.len()];
    let mut current: HashMap<&str, u64> = HashMap::new();
    // How many *unscheduled* reads still need (key, value).
    let mut pending_reads: HashMap<(&str, u64), u32> = HashMap::new();
    for ev in streams.iter().flatten() {
        if let Event::Read { key, value } = ev {
            *pending_reads.entry((key.as_str(), *value)).or_insert(0) += 1;
        }
    }
    let mut order = Vec::with_capacity(total);
    while order.len() < total {
        let mut progressed = false;
        for (si, stream) in streams.iter().enumerate() {
            let Some(ev) = stream.get(cursors[si]) else {
                continue;
            };
            let enabled = match ev {
                Event::Read { key, value } => {
                    current.get(key.as_str()).copied().unwrap_or(0) == *value
                }
                Event::Write { key, .. } => {
                    let now = current.get(key.as_str()).copied().unwrap_or(0);
                    pending_reads
                        .get(&(key.as_str(), now))
                        .copied()
                        .unwrap_or(0)
                        == 0
                }
            };
            if !enabled {
                continue;
            }
            match ev {
                Event::Read { key, value } => {
                    *pending_reads.get_mut(&(key.as_str(), *value)).unwrap() -= 1;
                }
                Event::Write { key, value } => {
                    current.insert(key.as_str(), *value);
                }
            }
            cursors[si] += 1;
            order.push(si);
            progressed = true;
            break;
        }
        if !progressed {
            return Err(HistoryError::Unrealizable {
                placed: order.len(),
                total,
            });
        }
    }
    Ok(order)
}

/// Builds the scripted schedule from the serialized event order.
///
/// The deterministic engine charges one scheduled step per action, and a
/// thread's action stream here is fixed by program order: `Enter(entry)`
/// (fused with thread start), then per called transaction `Enter(tx)`, its
/// events, `Exit(tx)`, then `Exit(entry)`, then one final step for thread
/// end. Only the *event* steps carry an inter-session ordering obligation;
/// the enter/exit/end steps are fillers, emitted lazily just before the
/// thread's next event (a thread's trailing fillers are flushed in thread
/// order at the end — delaying an `Exit` never changes transaction
/// membership or the access order, so the conflict graphs are unaffected).
fn build_script(history: &History, order: &[usize]) -> Vec<ThreadId> {
    // Per-thread token queue; `true` = an event step (consumes one entry of
    // `order`), `false` = a filler step.
    let mut tokens: Vec<VecDeque<bool>> = history
        .sessions
        .iter()
        .map(|session| {
            let mut q = VecDeque::new();
            q.push_back(false); // Enter(entry), fused with thread start.
            for tx in session {
                q.push_back(false); // Enter(tx).
                q.extend(tx.events.iter().map(|_| true));
                q.push_back(false); // Exit(tx).
            }
            q.push_back(false); // Exit(entry).
            q.push_back(false); // Thread-end step.
            q
        })
        .collect();
    let mut script = Vec::new();
    for &si in order {
        // Flush fillers up to and including this thread's next event token.
        while let Some(is_event) = tokens[si].pop_front() {
            script.push(ThreadId::from_index(si));
            if is_event {
                break;
            }
        }
    }
    for (si, queue) in tokens.iter_mut().enumerate() {
        while queue.pop_front().is_some() {
            script.push(ThreadId::from_index(si));
        }
    }
    script
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
    validate_values(history)?;
    let streams: Vec<Vec<&Event>> = history
        .sessions
        .iter()
        .map(|session| session.iter().flat_map(|tx| tx.events.iter()).collect())
        .collect();
    let order = serialize_events(&streams)?;
    let script = build_script(history, &order);

    let mut b = ProgramBuilder::new();
    // Keys in order of first appearance → one single-field object each.
    let mut key_ids: HashMap<&str, ObjId> = HashMap::new();
    let mut keys = Vec::new();
    for ev in streams.iter().flatten() {
        if !key_ids.contains_key(ev.key()) {
            let id = b.object(ObjKind::Plain { fields: 1 });
            key_ids.insert(ev.key(), id);
            keys.push(ev.key().to_string());
        }
    }
    if keys.len() > MAX_KEYS {
        return Err(HistoryError::TooManyKeys { keys: keys.len() });
    }
    let mut tx_methods = Vec::with_capacity(history.sessions.len());
    let mut entries = Vec::with_capacity(history.sessions.len());
    for (si, session) in history.sessions.iter().enumerate() {
        let mut methods = Vec::with_capacity(session.len());
        let mut body = Vec::with_capacity(session.len());
        for (ti, tx) in session.iter().enumerate() {
            let ops: Vec<Op> = tx
                .events
                .iter()
                .map(|ev| {
                    let obj = key_ids[ev.key()];
                    if ev.is_write() {
                        Op::Write(obj, 0)
                    } else {
                        Op::Read(obj, 0)
                    }
                })
                .collect();
            let m = b.method(format!("s{si}_t{ti}#{}", tx.id), ops);
            methods.push(m);
            body.push(Op::Call(m));
        }
        let entry = b.method(format!("session{si}"), body);
        b.thread(entry);
        entries.push(entry);
        tx_methods.push(methods);
    }
    let program = b
        .build()
        .expect("lowered histories always form valid programs");

    Ok(Lowered {
        spec: AtomicitySpec::excluding(entries),
        schedule: Schedule::Scripted(script),
        program,
        tx_methods,
        keys,
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
        History {
            name: None,
            anomaly: None,
            expected: None,
            sessions: sessions
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
                                    .map(|(op, key, value)| {
                                        let key = (*key).to_string();
                                        if *op == "w" {
                                            Event::Write { key, value: *value }
                                        } else {
                                            Event::Read { key, value: *value }
                                        }
                                    })
                                    .collect(),
                            }
                        })
                        .collect()
                })
                .collect(),
        }
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
        let with_keys = |n: usize| History {
            sessions: vec![(0..n)
                .collect::<Vec<_>>()
                .chunks(MAX_EVENTS_PER_TX)
                .map(|chunk| Transaction {
                    id: chunk[0] as u64,
                    events: chunk
                        .iter()
                        .map(|k| Event::Write {
                            key: format!("k{k}"),
                            value: 1,
                        })
                        .collect(),
                })
                .collect()],
            ..History::default()
        };
        assert_eq!(lower(&with_keys(MAX_KEYS)).unwrap().keys.len(), MAX_KEYS);
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
        assert_eq!(lowered.keys, vec!["x".to_string()]);
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
