//! `dc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--out <file>]`: measures one workload and prints, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`.

use dc_benchmark::bench::{run, Options};
use dc_benchmark::subject::Sizes;
use dc_benchmark::workloads;
use std::process::ExitCode;

const USAGE: &str = "usage: dc-benchmark --workload <name> --seed <n> \
                     [--seconds <s>] [--trace <0|1>] [--out <file>]";

fn parse(args: &[String]) -> Result<(Options, Option<String>), String> {
    let mut options = Options {
        workload: String::new(),
        seed: 11,
        seconds: 30.0,
        trace: false,
    };
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => options.workload = value.clone(),
            "--seed" => options.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                options.seconds = value.parse().map_err(|_| bad())?;
                if !(options.seconds > 0.0 && options.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&options.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            workloads::NAMES,
            options.workload
        ));
    }
    Ok((options, out))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (options, out) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("dc-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&options, Sizes::benchmark(&options.workload)) {
        Ok(report) => report,
        Err(e) => {
            // Set-up could not verify the workload: no result is printed.
            eprintln!("dc-benchmark: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = out {
        let mut written = std::fs::write(&path, format!("{}\n", report.detail));
        if written.is_ok() && !report.spans.is_empty() {
            let lines = report.spans.join("\n") + "\n";
            written = std::fs::write(format!("{path}.spans.jsonl"), lines);
        }
        if let Err(e) = written {
            eprintln!("dc-benchmark: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    print!("{}", report.text);
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
