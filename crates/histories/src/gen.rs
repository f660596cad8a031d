//! Seeded randomized history generator with injectable anomalies.
//!
//! This is the second proptest frontier beside the workload-IR
//! `ProgramStrategy`: instead of random programs under random schedules, it
//! produces random *database histories* whose expected verdict is known by
//! construction, in the spirit of Elle's anomaly taxonomy.
//!
//! # Construction
//!
//! The base is a simulated **serial** execution: transactions run one after
//! another, reads observe the current value, writes take globally unique
//! values, and each transaction is appended to a randomly chosen session —
//! so session order is a subsequence of the serial order. Every base
//! transaction is bracketed by a read-then-write of a dedicated timestamp
//! key `ts`, chaining transaction *i*'s first event after transaction
//! *i−1*'s last: the greedy serializer in [`crate::lower`] is thereby
//! forced to replay the base exactly serially (a transaction's opening
//! `ts` read only enables once its predecessor's closing `ts` write has
//! installed), which makes the serializable control sound by construction
//! rather than by hope. Without the chain, a blind write whose value is
//! never read may legally install out of serial order and manufacture a
//! conflict cycle the original history never had.
//!
//! In an anomaly mode, two extra transactions are appended to two distinct
//! sessions *without* timestamp bracketing, reading end-of-base values so
//! that the only realizable interleaving carries the classic cycle:
//!
//! * **lost update** — both read `k0`'s final value, both write it;
//! * **write skew** — both read `k0` and `k1`, one writes `k0`, the other
//!   writes `k1`;
//! * **fractured read** — one writes `k0` then `k1`; the other reads the
//!   new `k0` but the old `k1`.
//!
//! The base precedes both injected transactions in every conflict, so the
//! cycle — and therefore the blame — is confined to the injected pair.

use crate::schema::{Event, Expected, History, KeyId, Transaction};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// What, if anything, to inject on top of the serializable base.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnomalyMode {
    /// No injection: the history is serializable by construction.
    Serializable,
    /// Two transactions read-modify-write the same key from the same
    /// starting value.
    LostUpdate,
    /// Two transactions read the same two keys and write disjoint ones.
    WriteSkew,
    /// A reader observes half of another transaction's write pair.
    FracturedRead,
}

impl AnomalyMode {
    /// All modes, for exhaustive sweeps.
    pub const ALL: [AnomalyMode; 4] = [
        AnomalyMode::Serializable,
        AnomalyMode::LostUpdate,
        AnomalyMode::WriteSkew,
        AnomalyMode::FracturedRead,
    ];

    /// The verdict every checker must reach on a history generated in this
    /// mode.
    pub fn expected(self) -> Expected {
        match self {
            AnomalyMode::Serializable => Expected::Serializable,
            _ => Expected::Violation,
        }
    }

    /// Stable name used in the `.case` codec and generated history names.
    pub fn as_str(self) -> &'static str {
        match self {
            AnomalyMode::Serializable => "serializable",
            AnomalyMode::LostUpdate => "lost-update",
            AnomalyMode::WriteSkew => "write-skew",
            AnomalyMode::FracturedRead => "fractured-read",
        }
    }

    /// Parses [`Self::as_str`] back.
    pub fn from_str_opt(s: &str) -> Option<AnomalyMode> {
        AnomalyMode::ALL.into_iter().find(|m| m.as_str() == s)
    }
}

/// Generator parameters. All sizes are clamped to sane minima so any
/// shrunk/fuzzed parameter set still generates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GenHistoryParams {
    /// RNG seed; equal params generate equal histories.
    pub seed: u64,
    /// Number of sessions (clamped to ≥ 2, ≤ [`crate::schema::MAX_SESSIONS`]).
    pub sessions: usize,
    /// Number of base (serializable) transactions (clamped to ≥ 1).
    pub base_txs: usize,
    /// Data operations per base transaction (clamped to ≥ 1).
    pub ops_per_tx: usize,
    /// Number of data keys (clamped to ≥ 2, ≤ [`crate::schema::MAX_KEYS`];
    /// `ts` is extra).
    pub keys: usize,
    /// Injection mode.
    pub mode: AnomalyMode,
}

/// A generated history plus the location of the injected transactions.
#[derive(Clone, Debug)]
pub struct GeneratedHistory {
    /// The history; `expected` and `anomaly` are pre-filled from the mode.
    pub history: History,
    /// `(session, transaction index)` of each injected transaction (empty
    /// in [`AnomalyMode::Serializable`]).
    pub injected: Vec<(usize, usize)>,
}

/// Generates a history from `params`, deterministically.
pub fn generate(params: &GenHistoryParams) -> GeneratedHistory {
    let sessions = params.sessions.clamp(2, crate::schema::MAX_SESSIONS);
    let keys = params.keys.clamp(2, crate::schema::MAX_KEYS);
    let ops_per_tx = params.ops_per_tx.max(1);
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let mut history = History::default();
    history.name = Some(format!("gen-{}-{}", params.mode.as_str(), params.seed));
    history.anomaly = match params.mode {
        AnomalyMode::Serializable => None,
        mode => Some(mode.as_str().to_string()),
    };
    history.expected = Some(params.mode.expected());
    history.sessions = vec![Vec::new(); sessions];
    // Provisional key ids index `names`: `ts`, then the data keys. The
    // history numbers them in document order once it is complete.
    let names: Vec<String> = std::iter::once("ts".to_string())
        .chain((0..keys).map(|k| format!("k{k}")))
        .collect();
    let ts = KeyId(0);
    let key = |k: usize| KeyId(k as u32 + 1);
    let mut current = vec![0u64; keys];
    let mut next_value = 1u64;
    let mut fresh = move || {
        let v = next_value;
        next_value += 1;
        v
    };
    let mut next_id = 1u64;
    let mut ts_value = 0u64;

    let mut last_session = 0;
    for _ in 0..params.base_txs.max(1) {
        let session = rng.gen_range(0..sessions);
        last_session = session;
        let mut events = vec![Event::Read {
            key: ts,
            value: ts_value,
        }];
        for _ in 0..ops_per_tx {
            let k = rng.gen_range(0..keys);
            if rng.gen_bool(0.5) {
                events.push(Event::Read {
                    key: key(k),
                    value: current[k],
                });
            } else {
                current[k] = fresh();
                events.push(Event::Write {
                    key: key(k),
                    value: current[k],
                });
            }
        }
        ts_value = fresh();
        events.push(Event::Write {
            key: ts,
            value: ts_value,
        });
        history.sessions[session].push(Transaction {
            id: next_id,
            events,
        });
        next_id += 1;
    }

    let mut injected = Vec::new();
    if params.mode != AnomalyMode::Serializable {
        // The injected transactions in the read-first anomalies are gated
        // behind the base by their opening reads of end-of-base values. The
        // fractured-read *writer* opens with a write, which nothing gates —
        // put it in the session of the globally last base transaction so
        // program order (via the ts chain) keeps it after the whole base.
        let sa = match params.mode {
            AnomalyMode::FracturedRead => last_session,
            _ => rng.gen_range(0..sessions),
        };
        let sb = (sa + 1 + rng.gen_range(0..sessions - 1)) % sessions;
        let (k0, k1) = (key(0), key(1));
        let (v0, v1) = (current[0], current[1]);
        let (a_events, b_events) = match params.mode {
            AnomalyMode::LostUpdate => (
                vec![
                    Event::Read { key: k0, value: v0 },
                    Event::Write {
                        key: k0,
                        value: fresh(),
                    },
                ],
                vec![
                    Event::Read { key: k0, value: v0 },
                    Event::Write {
                        key: k0,
                        value: fresh(),
                    },
                ],
            ),
            AnomalyMode::WriteSkew => (
                vec![
                    Event::Read { key: k0, value: v0 },
                    Event::Read { key: k1, value: v1 },
                    Event::Write {
                        key: k0,
                        value: fresh(),
                    },
                ],
                vec![
                    Event::Read { key: k0, value: v0 },
                    Event::Read { key: k1, value: v1 },
                    Event::Write {
                        key: k1,
                        value: fresh(),
                    },
                ],
            ),
            AnomalyMode::FracturedRead => {
                let f0 = fresh();
                (
                    vec![
                        Event::Write { key: k0, value: f0 },
                        Event::Write {
                            key: k1,
                            value: fresh(),
                        },
                    ],
                    vec![
                        Event::Read { key: k0, value: f0 },
                        Event::Read { key: k1, value: v1 },
                    ],
                )
            }
            AnomalyMode::Serializable => unreachable!(),
        };
        for (session, events) in [(sa, a_events), (sb, b_events)] {
            injected.push((session, history.sessions[session].len()));
            history.sessions[session].push(Transaction {
                id: next_id,
                events,
            });
            next_id += 1;
        }
    }
    history.intern_keys(names);
    GeneratedHistory { history, injected }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use dc_core::{run_single, ExecPlan};
    use dc_runtime::ids::MethodId;

    fn params(seed: u64, mode: AnomalyMode) -> GenHistoryParams {
        GenHistoryParams {
            seed,
            sessions: 2 + (seed as usize % 3),
            base_txs: (seed as usize * 7) % 12,
            ops_per_tx: 1 + (seed as usize % 4),
            keys: 2 + (seed as usize % 3),
            mode,
        }
    }

    /// Runs the generated history end to end; returns the union of cycle
    /// methods DoubleChecker reported and the injected methods.
    fn run(p: &GenHistoryParams) -> (Vec<MethodId>, Vec<MethodId>) {
        let generated = generate(p);
        let lowered = lower(&generated.history).unwrap_or_else(|e| panic!("{p:?} must lower: {e}"));
        let report = run_single(
            &lowered.program,
            &lowered.spec,
            &ExecPlan::Det(lowered.schedule.clone()),
        )
        .expect("replay runs");
        let mut cycle_methods: Vec<MethodId> = report
            .violations
            .iter()
            .flat_map(|v| v.cycle.iter().filter_map(|m| m.kind.method()))
            .collect();
        cycle_methods.sort();
        cycle_methods.dedup();
        let injected = generated
            .injected
            .iter()
            .map(|&(s, t)| lowered.tx_methods[s][t])
            .collect();
        (cycle_methods, injected)
    }

    #[test]
    fn serializable_mode_is_clean_across_seeds() {
        for seed in 0..120 {
            let (cycle, injected) = run(&params(seed, AnomalyMode::Serializable));
            assert!(injected.is_empty());
            assert!(cycle.is_empty(), "seed {seed} produced {cycle:?}");
        }
    }

    #[test]
    fn injected_anomalies_are_violations_covering_the_injected_txs() {
        for mode in [
            AnomalyMode::LostUpdate,
            AnomalyMode::WriteSkew,
            AnomalyMode::FracturedRead,
        ] {
            for seed in 0..60 {
                let (cycle, injected) = run(&params(seed, mode));
                assert_eq!(injected.len(), 2);
                for m in &injected {
                    assert!(
                        cycle.contains(m),
                        "{mode:?} seed {seed}: cycle {cycle:?} misses injected {m:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let p = params(42, AnomalyMode::WriteSkew);
        let a = generate(&p);
        let b = generate(&p);
        assert_eq!(a.history, b.history);
        assert_eq!(a.injected, b.injected);
    }

    #[test]
    fn generated_histories_round_trip_through_json() {
        for mode in AnomalyMode::ALL {
            let generated = generate(&params(7, mode));
            let reparsed = crate::schema::History::parse(&generated.history.to_json()).unwrap();
            assert_eq!(generated.history, reparsed);
        }
    }

    #[test]
    fn mode_names_round_trip() {
        for mode in AnomalyMode::ALL {
            assert_eq!(AnomalyMode::from_str_opt(mode.as_str()), Some(mode));
        }
        assert_eq!(AnomalyMode::from_str_opt("bogus"), None);
    }

    #[test]
    fn injected_sessions_are_distinct() {
        for seed in 0..40 {
            let generated = generate(&params(seed, AnomalyMode::LostUpdate));
            let [(sa, _), (sb, _)] = generated.injected[..] else {
                panic!("two injected txs");
            };
            assert_ne!(sa, sb);
        }
    }
}
