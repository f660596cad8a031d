//! Replays every committed anomaly history under `tests/histories/` and
//! asserts all three checkers agree with the verdict recorded in the file.
//!
//! These are the repo's strongest differential tests: the expected verdict
//! of a lost update or a write skew is database folklore, independent of
//! anything this implementation does.

mod common;

use dc_histories::{lower, Expected, History};
use doublechecker_repro as _;

fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("histories")
}

fn corpus() -> Vec<(std::path::PathBuf, History)> {
    let mut entries: Vec<_> = std::fs::read_dir(corpus_dir())
        .expect("tests/histories exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    entries.sort();
    entries
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).expect("readable history");
            let history =
                History::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            (path, history)
        })
        .collect()
}

#[test]
fn corpus_covers_the_anomaly_taxonomy() {
    let names: Vec<String> = corpus()
        .iter()
        .map(|(_, h)| h.name.clone().expect("corpus entries are named"))
        .collect();
    for required in [
        "lost-update",
        "write-skew",
        "fractured-read",
        "long-fork",
        "serial-control",
        "interleaved-control",
    ] {
        assert!(
            names.iter().any(|n| n == required),
            "missing corpus entry {required}; have {names:?}"
        );
    }
    assert!(names.len() >= 6);
}

#[test]
fn every_corpus_entry_matches_its_expected_verdict_on_all_checkers() {
    let entries = corpus();
    assert!(entries.len() >= 6);
    for (path, history) in entries {
        let expected = history.expected.unwrap_or_else(|| {
            panic!("{}: corpus entries must declare 'expected'", path.display())
        });
        let lowered = lower(&history).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        common::assert_history_verdict(
            &path.display().to_string(),
            &lowered,
            expected == Expected::Violation,
        );
    }
}

#[test]
fn corpus_entries_round_trip_through_the_serializer() {
    for (path, history) in corpus() {
        let back = History::parse(&history.to_json())
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(history, back, "{}", path.display());
    }
}
