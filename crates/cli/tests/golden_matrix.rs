//! The `dc` output matrix, compared byte for byte against a committed
//! golden file (`tests/golden/dc_matrix.txt`).
//!
//! Every row is one command line run in-process on the deterministic
//! engine, so its output is a pure function of the program: a change
//! anywhere under the CLI (engine, checkers, report format) that moves a
//! count, a blame or a message shows up as a diff of this file. A row
//! records the text of an `Ok` and the error class and message of an
//! `Err`.
//!
//! To rewrite the golden after an intended change, run
//! `DC_BLESS=1 cargo test -p dc-cli --test golden_matrix` and review the
//! diff.

use dc_cli::{run, CliError};
use std::fmt::Write as _;
use std::path::Path;

const CHECKERS: [&str; 8] = [
    "dc",
    "single",
    "first-run",
    "second-run",
    "pcd-only",
    "velodrome",
    "velodrome-unsound",
    "aerodrome",
];

const HISTORIES: [&str; 6] = [
    "fractured_read",
    "interleaved_control",
    "long_fork",
    "lost_update",
    "serial_control",
    "write_skew",
];

/// Each `check` target runs plain, without the ownership cache and with
/// full observability.
const VARIANTS: [&str; 3] = ["", " --barrier-cache off", " --obs full"];

/// The repository root, which history paths are relative to.
fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/cli sits two levels under the root")
}

/// Every command line of the matrix, relative to the repository root.
fn matrix() -> Vec<String> {
    let mut rows = vec!["list".to_string()];
    for checker in CHECKERS {
        for wl in ["tsp", "hsqldb6", "sor"] {
            for variant in VARIANTS {
                rows.push(format!(
                    "check --workload {wl} --checker {checker} --seed 5{variant}"
                ));
            }
        }
        for h in HISTORIES {
            for variant in VARIANTS {
                rows.push(format!(
                    "check --history tests/histories/{h}.json --checker {checker}{variant}"
                ));
            }
        }
    }
    for wl in ["elevator", "philo", "tsp"] {
        rows.push(format!("refine --workload {wl}"));
    }
    for wl in ["tsp", "hsqldb6", "sor", "philo"] {
        rows.push(format!("trace --workload {wl} --seed 5"));
    }
    rows.push("check --workload nope".to_string());
    rows
}

/// One row's record: the command line, then its output or its error.
fn record(out: &mut String, row: &str) {
    let args: Vec<String> = row
        .split_whitespace()
        .map(|a| match a.strip_prefix("tests/histories/") {
            Some(_) => root().join(a).to_string_lossy().into_owned(),
            None => a.to_string(),
        })
        .collect();
    writeln!(out, "$ dc {row}").ok();
    match run(&args) {
        Ok(text) => out.push_str(&text),
        Err(CliError::Usage(m)) => writeln!(out, "! usage: {m}").unwrap(),
        Err(CliError::Failed(m)) => writeln!(out, "! failed: {m}").unwrap(),
    }
    out.push('\n');
}

#[test]
fn dc_output_matrix_matches_the_golden() {
    let mut actual = String::new();
    for row in matrix() {
        record(&mut actual, &row);
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/dc_matrix.txt");
    if std::env::var_os("DC_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {path:?}: {e}; bless it with DC_BLESS=1"));
    if actual != golden {
        // Name the first command whose record differs, not just the byte.
        let differs = actual
            .split("\n$ ")
            .zip(golden.split("\n$ "))
            .find(|(a, g)| a != g);
        let (a, g) = differs.unwrap_or(("<extra rows>", "<missing rows>"));
        panic!("the dc output matrix drifted from {path:?}\n--- golden:\n{g}\n--- actual:\n{a}");
    }
}
