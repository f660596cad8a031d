//! `lower` over a fixed set of histories, compared line for line against a
//! committed golden file (`tests/golden/lowered.txt`).
//!
//! The inputs are the six corpus histories (`tests/histories/*.json` at the
//! repository root), every [`AnomalyMode`] at seeds 1–5 in the shape of one
//! `history_batch` document (4 sessions, 64 base transactions of 4 data
//! operations over 16 keys), and small hand-written histories: the anomaly
//! and control cases of `lower`'s unit tests, a session without
//! transactions between sessions with events, and each way `lower` can
//! refuse a history, with the errors' precedence. A line records either a hash of the lowered program,
//! atomicity spec, scripted schedule and transaction-to-method map together
//! with the key names in object order, or the error's `Display`. A change
//! to the object numbering, the greedy serialization, the script or an
//! error's message or precedence shows up as a diff of this file.
//!
//! To rewrite the golden after an intended change, run
//! `DC_BLESS=1 cargo test -p dc-histories --test lower_golden` and review
//! the diff.

use dc_histories::schema::{MAX_EVENTS_PER_TX, MAX_KEYS};
use dc_histories::{generate, lower, AnomalyMode, GenHistoryParams, History};
use dc_runtime::ids::MethodId;
use std::fmt::Write as _;
use std::path::Path;

const CORPUS: [&str; 6] = [
    "fractured_read",
    "interleaved_control",
    "long_fork",
    "lost_update",
    "serial_control",
    "write_skew",
];

/// `(op, key, value)` literal events, grouped transaction-then-session.
type Sessions<'a> = &'a [&'a [&'a [(&'a str, &'a str, u64)]]];

/// A version-1 document of `sessions`, transaction ids counting from 1.
fn document(sessions: Sessions<'_>) -> String {
    let mut id = 0;
    let sessions: Vec<String> = sessions
        .iter()
        .map(|session| {
            let txs: Vec<String> = session
                .iter()
                .map(|tx| {
                    id += 1;
                    let events: Vec<String> = tx
                        .iter()
                        .map(|(op, key, value)| {
                            format!(r#"{{"op":"{op}","key":"{key}","value":{value}}}"#)
                        })
                        .collect();
                    format!(r#"{{"id":{id},"events":[{}]}}"#, events.join(","))
                })
                .collect();
            format!("[{}]", txs.join(","))
        })
        .collect();
    format!(
        r#"{{"format":"dc-history","version":1,"sessions":[{}]}}"#,
        sessions.join(",")
    )
}

/// One session writing value 1 to each of `keys` distinct keys, in
/// transactions that respect the event limit.
fn distinct_keys(keys: usize) -> String {
    let txs: Vec<String> = (0..keys)
        .collect::<Vec<_>>()
        .chunks(MAX_EVENTS_PER_TX)
        .map(|chunk| {
            let events: Vec<String> = chunk
                .iter()
                .map(|k| format!(r#"{{"op":"w","key":"k{k}","value":1}}"#))
                .collect();
            format!(r#"{{"id":{},"events":[{}]}}"#, chunk[0], events.join(","))
        })
        .collect();
    format!(
        r#"{{"format":"dc-history","version":1,"sessions":[[{}]]}}"#,
        txs.join(",")
    )
}

/// Every input by name, each a parsed history.
fn inputs() -> Vec<(String, History)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/histories sits two levels under the root");
    let parse = |text: &str| History::parse(text).expect("every input parses");
    let mut inputs: Vec<(String, History)> = CORPUS
        .iter()
        .map(|name| {
            let path = root.join("tests/histories").join(format!("{name}.json"));
            let text =
                std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path:?}: {e}"));
            (name.to_string(), parse(&text))
        })
        .collect();
    for mode in AnomalyMode::ALL {
        for seed in 1..=5 {
            let generated = generate(&GenHistoryParams {
                seed,
                sessions: 4,
                base_txs: 64,
                ops_per_tx: 4,
                keys: 16,
                mode,
            });
            inputs.push((format!("gen-{}-{seed}", mode.as_str()), generated.history));
        }
    }
    let small: [(&str, Sessions<'_>); 15] = [
        (
            "lost-update",
            &[
                &[&[("r", "x", 0), ("w", "x", 1)]],
                &[&[("r", "x", 0), ("w", "x", 2)]],
            ],
        ),
        (
            "write-skew",
            &[
                &[&[("r", "x", 0), ("r", "y", 0), ("w", "x", 1)]],
                &[&[("r", "x", 0), ("r", "y", 0), ("w", "y", 2)]],
            ],
        ),
        (
            "fractured-read",
            &[
                &[&[("w", "x", 1), ("w", "y", 2)]],
                &[&[("r", "x", 1), ("r", "y", 0)]],
            ],
        ),
        (
            "long-fork",
            &[
                &[&[("w", "x", 1)]],
                &[&[("w", "y", 1)]],
                &[&[("r", "x", 1), ("r", "y", 0)]],
                &[&[("r", "x", 0), ("r", "y", 1)]],
            ],
        ),
        (
            "serial-single-session",
            &[&[
                &[("w", "x", 1), ("w", "y", 2)],
                &[("r", "x", 1), ("r", "y", 2)],
            ]],
        ),
        (
            "interleaved-control",
            &[
                &[&[("w", "x", 1)], &[("r", "y", 2)]],
                &[&[("r", "x", 1), ("w", "y", 2)]],
            ],
        ),
        (
            "empty-transactions",
            &[&[&[], &[("w", "x", 1)], &[]], &[&[("r", "x", 1)]]],
        ),
        ("empty-history", &[&[&[]], &[]]),
        (
            "duplicate-write-value",
            &[&[&[("w", "x", 1)]], &[&[("w", "x", 1)]]],
        ),
        ("zero-write-value", &[&[&[("w", "x", 0)]]]),
        (
            "read-of-unwritten",
            &[&[&[("r", "x", 7)]], &[&[("w", "x", 1)]]],
        ),
        ("unrealizable", &[&[&[("w", "x", 1), ("r", "x", 0)]]]),
        (
            "unwritten-read-before-duplicate-write-across-sessions",
            &[
                &[&[("r", "x", 7)]],
                &[&[("w", "x", 1)]],
                &[&[("w", "x", 1)]],
            ],
        ),
        (
            "session-without-transactions-between-sessions-with-events",
            &[&[&[("w", "x", 1)]], &[], &[&[("r", "x", 1), ("w", "y", 2)]]],
        ),
        (
            "unwritten-read-before-duplicate-write-in-one-session",
            &[&[&[("r", "x", 7), ("w", "x", 1)], &[("w", "x", 1)]]],
        ),
    ];
    for (name, sessions) in small {
        inputs.push((name.to_string(), parse(&document(sessions))));
    }
    inputs.push((
        "too-many-keys".to_string(),
        parse(&distinct_keys(MAX_KEYS + 1)),
    ));
    // Both unrealizable and over the key limit: the first error wins.
    let both = distinct_keys(MAX_KEYS + 1).replace(
        "]]}",
        r#"],[{"id":999999,"events":[{"op":"w","key":"x","value":1},{"op":"r","key":"x","value":0}]}]]}"#,
    );
    inputs.push(("unrealizable-with-too-many-keys".to_string(), parse(&both)));
    inputs
}

/// FNV-1a over `bytes`: a hash that is the same on every platform and
/// toolchain.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One input's record: its name, then the lowering's hash and key names, or
/// the error.
fn record(out: &mut String, name: &str, history: &History) {
    match lower(history) {
        Ok(lowered) => {
            // The spec enters the record as one atomic bit per method, the
            // format the golden file was written in.
            let atomic: Vec<bool> = (0..lowered.program.methods.len())
                .map(|m| lowered.spec.is_atomic(MethodId::from_index(m)))
                .collect();
            let shape = format!(
                "{:?}",
                (
                    &lowered.program,
                    &atomic,
                    &lowered.schedule,
                    &lowered.tx_methods
                )
            );
            writeln!(
                out,
                "{name}: Ok {:016x} keys {}",
                fnv1a(shape.as_bytes()),
                history.keys().join(" ")
            )
        }
        Err(e) => writeln!(out, "{name}: {e}"),
    }
    .unwrap();
}

#[test]
fn lowered_histories_match_the_golden_records() {
    let mut actual = String::new();
    for (name, history) in inputs() {
        record(&mut actual, &name, &history);
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/lowered.txt");
    if std::env::var_os("DC_BLESS").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {path:?}: {e}; bless it with DC_BLESS=1"));
    if actual != golden {
        // Name the first input whose record differs, not just the byte.
        let (a, g) = actual
            .lines()
            .zip(golden.lines())
            .find(|(a, g)| a != g)
            .unwrap_or(("<extra inputs>", "<missing inputs>"));
        panic!("lowering drifted from {path:?}\n--- golden:\n{g}\n--- actual:\n{a}");
    }
}
