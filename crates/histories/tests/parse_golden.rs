//! `History::parse` over a seeded corpus of byte-mutated documents,
//! compared line for line against a committed golden file
//! (`tests/golden/parse_mutations.txt`).
//!
//! The inputs are the six corpus histories (`tests/histories/*.json` at the
//! repository root) and one generated history per [`AnomalyMode`]. Each is
//! parsed as it is and after each of five byte mutations (flip one bit,
//! truncate, delete a run of bytes, insert a JSON token, splice a run of one
//! input into another), then after each of two structural ones (duplicate
//! an object member, nest a value in `[ ]`), many times over with a seeded
//! generator. Hand-written documents follow, one per error-precedence rule
//! that a mutation is unlikely to hit: members in `to_json`'s order, a
//! duplicate member whose discarded copy holds an error and keys the kept
//! copy lacks, a schema error before a syntax error, and an over-limit
//! count beside an error inside it. A line records either the parsed shape
//! (sessions, transactions, events, a hash of `to_json()` and the key table
//! in order) or the error's `Display`, so a parser change that moves a
//! verdict, a message, an error offset or a key id shows up as a diff of
//! this file; a panic fails the test.
//!
//! To rewrite the golden after an intended change, run
//! `DC_BLESS=1 cargo test -p dc-histories --test parse_golden` and review
//! the diff.

use dc_histories::{generate, AnomalyMode, GenHistoryParams, History};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::ops::Range;
use std::path::Path;

const CORPUS: [&str; 6] = [
    "fractured_read",
    "interleaved_control",
    "long_fork",
    "lost_update",
    "serial_control",
    "write_skew",
];

/// Mutated cases per input and mutation kind.
const ROUNDS: usize = 24;

/// What an insertion adds: JSON structure, literals, escapes (a lone high
/// surrogate among them) and a multi-byte character.
const TOKENS: [&str; 24] = [
    "{",
    "}",
    "[",
    "]",
    "\"",
    ",",
    ":",
    " ",
    "0",
    "7",
    "-",
    ".",
    "e",
    "1e3",
    "null",
    "true",
    "\\",
    "\\n",
    "\\u00e9",
    "\\ud800",
    "\"id\":",
    "\"key\":",
    "\"events\":[]",
    "é",
];

/// Every input by name: the corpus files, then one generated history per
/// anomaly mode.
fn inputs() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/histories sits two levels under the root");
    let mut inputs: Vec<(String, String)> = CORPUS
        .iter()
        .map(|name| {
            let path = root.join("tests/histories").join(format!("{name}.json"));
            let text =
                std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path:?}: {e}"));
            (name.to_string(), text)
        })
        .collect();
    for (seed, mode) in AnomalyMode::ALL.into_iter().enumerate() {
        let generated = generate(&GenHistoryParams {
            seed: seed as u64 + 1,
            sessions: 3,
            base_txs: 12,
            ops_per_tx: 3,
            keys: 4,
            mode,
        });
        inputs.push((
            format!("gen-{}", mode.as_str()),
            generated.history.to_json(),
        ));
    }
    inputs
}

/// A random position in `0..=len` and a run length of 1 to 16 bytes that
/// fits after it.
fn span(rng: &mut SmallRng, len: usize) -> (usize, usize) {
    let at = rng.gen_range(0..=len);
    let n = rng.gen_range(1..=16usize).min(len - at);
    (at, n)
}

/// Applies mutation `kind` to `doc`; `other` is the splice source.
fn mutate(kind: &str, doc: &[u8], other: &[u8], rng: &mut SmallRng) -> Vec<u8> {
    let mut out = doc.to_vec();
    match kind {
        "flip" => {
            let at = rng.gen_range(0..out.len());
            out[at] ^= 1u8 << rng.gen_range(0..7u32);
        }
        "truncate" => out.truncate(rng.gen_range(0..out.len())),
        "delete" => {
            let (at, n) = span(rng, out.len());
            out.drain(at..at + n);
        }
        "insert" => {
            let at = rng.gen_range(0..=out.len());
            let token = TOKENS[rng.gen_range(0..TOKENS.len())];
            out.splice(at..at, token.bytes());
        }
        "splice" => {
            let (from, n) = span(rng, other.len());
            let at = rng.gen_range(0..=out.len());
            out.splice(at..at, other[from..from + n].iter().copied());
        }
        _ => unreachable!("unknown mutation {kind}"),
    }
    out
}

/// FNV-1a over `bytes`: a hash that is the same on every platform and
/// toolchain.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One case's record: its label, then the parsed shape or the error.
fn record(out: &mut String, label: &str, bytes: &[u8]) {
    // A mutation may split a multi-byte character; the parser takes text.
    let text = String::from_utf8_lossy(bytes);
    match History::parse(&text) {
        Ok(h) => writeln!(
            out,
            "{label}: Ok {} sessions, {} transactions, {} events, to_json {:016x}, keys {:?}",
            h.sessions.len(),
            h.transaction_count(),
            h.event_count(),
            fnv1a(h.to_json().as_bytes()),
            h.keys()
        ),
        Err(e) => writeln!(out, "{label}: {e}"),
    }
    .unwrap();
}

/// The spans of a well-formed JSON document: every value's, and every
/// object member's (its key's text, and its span from the key's opening
/// quote to the value's end).
#[derive(Default)]
struct Spans {
    values: Vec<Range<usize>>,
    members: Vec<(String, Range<usize>)>,
}

/// The first index at or after `at` that is not JSON whitespace.
fn ws(doc: &[u8], mut at: usize) -> usize {
    while matches!(doc[at], b' ' | b'\t' | b'\n' | b'\r') {
        at += 1;
    }
    at
}

/// The end of the string whose opening quote is at `at`.
fn string_end(doc: &[u8], at: usize) -> usize {
    let mut i = at + 1;
    while doc[i] != b'"' {
        i += if doc[i] == b'\\' { 2 } else { 1 };
    }
    i + 1
}

/// Records the value that starts at `at` and everything in it; returns
/// its end.
fn scan(doc: &[u8], at: usize, spans: &mut Spans) -> usize {
    let end = match doc[at] {
        b'"' => string_end(doc, at),
        open @ (b'[' | b'{') => {
            let close = if open == b'[' { b']' } else { b'}' };
            let mut i = ws(doc, at + 1);
            while doc[i] != close {
                if open == b'{' {
                    let key_end = string_end(doc, i);
                    let key = String::from_utf8(doc[i + 1..key_end - 1].to_vec()).unwrap();
                    let value_end = scan(doc, ws(doc, ws(doc, key_end) + 1), spans);
                    spans.members.push((key, i..value_end));
                    i = value_end;
                } else {
                    i = scan(doc, i, spans);
                }
                i = ws(doc, i);
                if doc[i] == b',' {
                    i = ws(doc, i + 1);
                }
            }
            i + 1
        }
        _ => {
            let mut i = at;
            while !matches!(doc[i], b',' | b']' | b'}' | b' ' | b'\t' | b'\n' | b'\r') {
                i += 1;
            }
            i
        }
    };
    spans.values.push(at..end);
    end
}

/// Applies structural mutation `kind` to the well-formed document `doc`.
///
/// `duplicate` copies a member into an object that has a member of the same
/// name (its own object included), before or after that member, so that
/// the object names it twice; `nest` wraps one value in `[ ]`.
fn mutate_structure(kind: &str, doc: &[u8], rng: &mut SmallRng) -> Vec<u8> {
    let mut spans = Spans::default();
    scan(doc, ws(doc, 0), &mut spans);
    let mut out = doc.to_vec();
    match kind {
        "duplicate" => {
            let (name, from) = &spans.members[rng.gen_range(0..spans.members.len())];
            let targets: Vec<&Range<usize>> = spans
                .members
                .iter()
                .filter(|(other, _)| other == name)
                .map(|(_, span)| span)
                .collect();
            let to = targets[rng.gen_range(0..targets.len())];
            let copy = &doc[from.clone()];
            if rng.gen_range(0..2) == 0 {
                out.splice(to.start..to.start, copy.iter().chain(b",").copied());
            } else {
                out.splice(to.end..to.end, b",".iter().chain(copy).copied());
            }
        }
        "nest" => {
            let value = &spans.values[rng.gen_range(0..spans.values.len())];
            out.insert(value.end, b']');
            out.insert(value.start, b'[');
        }
        _ => unreachable!("unknown mutation {kind}"),
    }
    out
}

/// An `events` array of `(op, key, value)` events.
fn events(list: &[(&str, &str, u64)]) -> String {
    let events: Vec<String> = list
        .iter()
        .map(|(op, key, value)| format!(r#"{{"op":"{op}","key":"{key}","value":{value}}}"#))
        .collect();
    format!("[{}]", events.join(","))
}

/// A session of one transaction, `id`, of `(op, key, value)` events.
fn session(id: u64, list: &[(&str, &str, u64)]) -> String {
    format!(r#"[{{"id":{id},"events":{}}}]"#, events(list))
}

/// Documents written for one precedence rule each, by name.
fn hand_written() -> Vec<(&'static str, String)> {
    let head = r#""format":"dc-history","version":1"#;
    let (ghost, kept) = (
        [("w", "ghost", 1), ("q", "y", 2)],
        [("w", "x", 1), ("r", "z", 0)],
    );
    let many: Vec<String> = (1..=65)
        .map(|id| session(id, &[(if id == 1 { "q" } else { "w" }, "x", id)]))
        .collect();
    vec![
        // `to_json` sorts members: `events` before `id`, `version` after
        // `sessions`.
        (
            "to-json-order",
            r#"{"anomaly":"a","expected":"violation","format":"dc-history","name":"n","sessions":[[{"events":[{"key":"y","op":"w","value":1},{"key":"x","op":"r","value":0}],"id":1}]],"version":1}"#.to_string(),
        ),
        // A transaction's own `id` check wins over an error in its earlier
        // `events`.
        (
            "to-json-order-id-error-after-event-error",
            r#"{"format":"dc-history","sessions":[[{"events":[{"key":"x","op":"q","value":1}],"id":"one"}]],"version":1}"#.to_string(),
        ),
        // A top-level check wins over an error in the earlier `sessions`.
        (
            "to-json-order-version-after-sessions-error",
            r#"{"format":"dc-history","sessions":[[{"events":[{"key":"x","op":"q","value":1}],"id":1}]],"version":2}"#.to_string(),
        ),
        // Of duplicate members the last wins: the discarded copy's error
        // and its keys (`ghost`, `y`) are gone; `ghost` is numbered where
        // the kept document first names it.
        (
            "duplicate-events-discarded-copy-with-error",
            format!(
                r#"{{{head},"sessions":[[{{"id":1,"events":{},"events":{}}}],{}]}}"#,
                events(&ghost),
                events(&kept),
                session(2, &[("r", "ghost", 0)])
            ),
        ),
        // The discarded `sessions` copy reuses the kept copy's id and holds
        // a bad `op`: neither counts.
        (
            "duplicate-sessions-discarded-copy-with-error",
            format!(
                r#"{{{head},"sessions":[{}],"sessions":[{}]}}"#,
                session(1, &ghost),
                session(1, &kept)
            ),
        ),
        (
            "duplicate-key-discarded-copy",
            format!(
                r#"{{{head},"sessions":[[{{"id":1,"events":[{{"op":"w","key":"ghost","key":"x","value":1}},{{"op":"r","key":"y","value":0}}]}}]]}}"#
            ),
        ),
        // The duplicate `id` is checked against the kept copy of each
        // transaction's `id`.
        (
            "duplicate-id-member-last-wins",
            format!(
                r#"{{{head},"sessions":[[{{"id":2,"id":1,"events":[]}}],[{{"id":1,"id":2,"events":[]}}]]}}"#
            ),
        ),
        // A JSON syntax error anywhere wins over a schema error before it.
        (
            "schema-error-then-syntax-error",
            format!(
                r#"{{"format":"elle",{head},"sessions":[{}] "name":"n"}}"#,
                session(1, &ghost)
            ),
        ),
        (
            "inner-schema-error-then-trailing-characters",
            format!(r#"{{{head},"sessions":[{}]}} x"#, session(1, &ghost)),
        ),
        // A count over its limit wins over an error inside it.
        (
            "too-many-sessions-with-inner-error",
            format!(r#"{{{head},"sessions":[{}]}}"#, many.join(",")),
        ),
    ]
}

#[test]
fn mutated_histories_parse_as_the_golden_records() {
    let inputs = inputs();
    let mut actual = String::new();
    let mut cases = 0;
    for (i, (name, text)) in inputs.iter().enumerate() {
        record(&mut actual, &format!("{name} unmutated"), text.as_bytes());
        let other = inputs[(i + 1) % inputs.len()].1.as_bytes();
        for kind in ["flip", "truncate", "delete", "insert", "splice"] {
            let mut rng = SmallRng::seed_from_u64(fnv1a(format!("{name} {kind}").as_bytes()));
            for round in 0..ROUNDS {
                let mutated = mutate(kind, text.as_bytes(), other, &mut rng);
                record(&mut actual, &format!("{name} {kind} {round}"), &mutated);
                cases += 1;
            }
        }
    }
    for (name, text) in &inputs {
        for kind in ["duplicate", "nest"] {
            let mut rng = SmallRng::seed_from_u64(fnv1a(format!("{name} {kind}").as_bytes()));
            for round in 0..ROUNDS {
                let mutated = mutate_structure(kind, text.as_bytes(), &mut rng);
                record(&mut actual, &format!("{name} {kind} {round}"), &mutated);
                cases += 1;
            }
        }
    }
    for (name, text) in hand_written() {
        record(
            &mut actual,
            &format!("hand-written {name}"),
            text.as_bytes(),
        );
    }
    assert!(cases >= 1_000, "only {cases} mutated cases");
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/parse_mutations.txt");
    if std::env::var_os("DC_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {path:?}: {e}; bless it with DC_BLESS=1"));
    if actual != golden {
        // Name the first case whose record differs, not just the byte.
        let (a, g) = actual
            .lines()
            .zip(golden.lines())
            .find(|(a, g)| a != g)
            .unwrap_or(("<extra cases>", "<missing cases>"));
        panic!("parse results drifted from {path:?}\n--- golden:\n{g}\n--- actual:\n{a}");
    }
}
