//! The `dc` binary's contract: a command's output goes to stdout with exit
//! code 0; a usage error goes to stderr alone with exit code 2, a failed
//! run to stderr alone, after `error: `, with exit code 1.
//!
//! The in-process tests and the golden matrix call `dc_cli::run`; these
//! run the built binary, so they also cover `main.rs` and the real-thread
//! engine, which the det-only golden matrix never reaches.

use dc_cli::{run, CliError};
use std::process::{Command, Output};

/// Runs `dc` with the whitespace-separated `args`.
fn dc(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dc"))
        .args(args.split_whitespace())
        .output()
        .expect("the dc binary starts")
}

fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("dc prints UTF-8")
}

#[test]
fn list_prints_to_stdout_and_exits_0() {
    let out = dc("list");
    assert_eq!(out.status.code(), Some(0));
    assert!(!out.stdout.is_empty());
    assert_eq!(text(&out.stderr), "");
}

#[test]
fn a_usage_error_exits_2_with_its_message_on_stderr() {
    let args = "check --workload nope";
    let out = dc(args);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(text(&out.stdout), "");
    let argv: Vec<String> = args.split_whitespace().map(String::from).collect();
    let Err(CliError::Usage(message)) = run(&argv) else {
        panic!("{args} must be a usage error")
    };
    assert!(message.starts_with("--workload must be "), "{message}");
    assert_eq!(text(&out.stderr), format!("{message}\n"));
}

#[test]
fn a_failed_run_exits_1_with_an_error_on_stderr() {
    let out = dc("check --history /nonexistent/h.json");
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(text(&out.stdout), "");
    let stderr = text(&out.stderr);
    assert!(stderr.starts_with("error: reading"), "{stderr}");
}

/// The golden matrix runs the deterministic engine only: these are the
/// successful `--engine real` runs.
#[test]
fn real_engine_checks_exit_0_with_the_summary_last() {
    for (checker, summary) in [("", "single: "), (" --checker velodrome", "velodrome: ")] {
        let args = format!("check --workload tsp --engine real{checker}");
        let out = dc(&args);
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args}: {stderr}");
        let last = text(&out.stdout).lines().last().unwrap_or_default();
        assert!(last.starts_with(summary), "{args}: {last}");
    }
}
