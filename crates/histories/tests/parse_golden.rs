//! `History::parse` over a seeded corpus of byte-mutated documents,
//! compared line for line against a committed golden file
//! (`tests/golden/parse_mutations.txt`).
//!
//! The inputs are the six corpus histories (`tests/histories/*.json` at the
//! repository root) and one generated history per [`AnomalyMode`]. Each is
//! parsed as it is and after each of five mutations (flip one bit, truncate,
//! delete a run of bytes, insert a JSON token, splice a run of one input
//! into another), many times over with a seeded generator. A line records
//! either the parsed shape (sessions, transactions, events and a hash of
//! `to_json()`) or the error's `Display`, so a parser change that moves a
//! verdict, a message or an error offset shows up as a diff of this file;
//! a panic fails the test.
//!
//! To rewrite the golden after an intended change, run
//! `DC_BLESS=1 cargo test -p dc-histories --test parse_golden` and review
//! the diff.

use dc_histories::{generate, AnomalyMode, GenHistoryParams, History};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
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
            "{label}: Ok {} sessions, {} transactions, {} events, to_json {:016x}",
            h.sessions.len(),
            h.transaction_count(),
            h.event_count(),
            fnv1a(h.to_json().as_bytes())
        ),
        Err(e) => writeln!(out, "{label}: {e}"),
    }
    .unwrap();
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
