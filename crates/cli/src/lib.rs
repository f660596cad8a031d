//! Library backing the `dc` command-line tool: argument parsing and the
//! subcommand implementations, kept separate from `main` for testability.
//!
//! Subcommands:
//!
//! * `dc list` — the benchmark workloads and their shapes;
//! * `dc check --workload <name> [--checker <which>] [--seed N] …` — run
//!   one checker over one workload and report violations;
//! * `dc refine --workload <name> …` — iterative refinement (Figure 6);
//! * `dc trace --workload <name> …` — record and print an execution trace,
//!   with the offline oracle's verdict.
//!
//! Argument parsing is hand-rolled (`--key value` pairs) to stay within
//! the workspace's dependency policy.

#![warn(missing_docs)]

use dc_aerodrome::AeroDrome;
use dc_core::{
    run_doublechecker, run_first_runs, stats_to_json, trace_event_to_json, DcConfig, ExecPlan,
    ObsLevel, ReportedViolation,
};
use dc_octet::CoordinationMode;
use dc_pcd::{analyze_trace, OfflineConfig};
use dc_runtime::engine::det::Schedule;
use dc_runtime::ids::MethodId;
use dc_runtime::program::Program;
use dc_runtime::spec::AtomicitySpec;
use dc_runtime::trace::TraceChecker;
use dc_velodrome::{CycleFilter, Online, OnlineConfig, VViolation, Variant, Velodrome};
use dc_workloads::{by_name, Scale, Workload};
use std::fmt::Write as _;
use std::io::Read as _;

/// Everything that can go wrong while handling a command.
#[derive(Debug, PartialEq, Eq)]
pub enum CliError {
    /// Unknown subcommand or malformed flags; the message is user-facing.
    Usage(String),
    /// The command ran but failed (unknown workload, deadlock, …).
    Failed(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Failed(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Parsed `--key value` flags.
#[derive(Debug, Default)]
pub struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    /// Parses `--key value` pairs from raw arguments; `known` is the flag
    /// set of the command being parsed.
    ///
    /// # Errors
    ///
    /// Rejects positional arguments, keys outside `known`, dangling
    /// `--key`s, a value that is itself a flag, and a key given twice.
    pub fn parse(args: &[String], known: &[&str]) -> Result<Flags, CliError> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(CliError::Usage(format!("unexpected argument {a:?}")));
            };
            if !known.contains(&key) {
                return Err(CliError::Usage(format!(
                    "unknown flag --{key} for this command\n{}",
                    usage()
                )));
            }
            let Some(value) = it.next() else {
                return Err(CliError::Usage(format!("--{key} needs a value")));
            };
            if value.starts_with("--") {
                return Err(CliError::Usage(format!(
                    "--{key} needs a value, got the flag {value}"
                )));
            }
            if pairs.iter().any(|(k, _)| k == key) {
                return Err(CliError::Usage(format!("--{key} given more than once")));
            }
            pairs.push((key.to_string(), value.clone()));
        }
        Ok(Flags { pairs })
    }

    /// The value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn u64_or(&self, key: &str, default: u64) -> Result<u64, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{key} expects a number, got {v:?}"))),
        }
    }

    fn scale(&self) -> Result<Scale, CliError> {
        match self.get("scale") {
            None | Some("tiny") => Ok(Scale::Tiny),
            Some("small") => Ok(Scale::Small),
            Some("full") => Ok(Scale::Full),
            Some(other) => Err(CliError::Usage(format!(
                "--scale must be tiny|small|full, got {other:?}"
            ))),
        }
    }

    fn workload(&self) -> Result<Workload, CliError> {
        let name = self
            .get("workload")
            .ok_or_else(|| CliError::Usage("--workload <name> is required".into()))?;
        by_name(name, self.scale()?).ok_or_else(|| {
            CliError::Failed(format!(
                "unknown workload {name:?}; `dc list` shows the available ones"
            ))
        })
    }
}

/// Top-level usage text.
pub fn usage() -> &'static str {
    "usage: dc <command> [--key value …]\n\
     commands:\n\
       list                         list benchmark workloads\n\
       check   --workload <name>    run one checker over one execution\n\
               | --history <file>   … or replay an imported dc-history JSON\n\
                                    file (fixed interleaving; excludes\n\
                                    --workload/--seed/--scale/--engine real)\n\
               [--checker dc|single|first-run|second-run|pcd-only|\n\
                          velodrome|velodrome-unsound|aerodrome]\n\
               [--seed N] [--scale tiny|small|full] [--engine det|real]\n\
               [--barrier-cache on|off]  Octet ownership inline cache (default on)\n\
               [--obs off|counters|full]  observability level\n\
               [--stats-json <path>] write stats + observability metrics as JSON\n\
               [--trace-out <path>]  write the analysis trace as JSON lines (implies --obs full)\n\
       refine  --workload <name>    iterative refinement (Figure 6)\n\
               [--window N] [--scale tiny|small|full]\n\
       trace   --workload <name>    record a trace; offline-oracle verdict\n\
               [--seed N] [--limit N] [--scale tiny|small|full]"
}

/// Dispatches a command line (without the program name). Returns the text
/// to print on success.
///
/// # Errors
///
/// [`CliError::Usage`] for malformed invocations, [`CliError::Failed`] for
/// runtime failures.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(CliError::Usage(usage().into()));
    };
    type Command = fn(&Flags) -> Result<String, CliError>;
    // Each command's whole flag set, declared once: anything else is a
    // usage error rather than silently ignored.
    let (known, command): (Vec<&str>, Command) = match command.as_str() {
        "list" => (vec!["scale"], cmd_list),
        "check" => ([CHECK_TARGET_FLAGS, DC_ONLY_FLAGS].concat(), cmd_check),
        "refine" => (vec!["workload", "window", "scale"], cmd_refine),
        "trace" => (vec!["workload", "seed", "limit", "scale"], cmd_trace),
        other => {
            return Err(CliError::Usage(format!(
                "unknown command {other:?}\n{}",
                usage()
            )))
        }
    };
    command(&Flags::parse(rest, &known)?)
}

/// `check` flags that configure the DoubleChecker analysis and mean nothing
/// to the online checkers (Velodrome, AeroDrome).
const DC_ONLY_FLAGS: &[&str] = &["barrier-cache", "obs", "stats-json", "trace-out"];

/// `check` flags that pick the checker and what it runs on; with
/// [`DC_ONLY_FLAGS`], every flag `check` accepts.
const CHECK_TARGET_FLAGS: &[&str] = &["workload", "history", "checker", "seed", "scale", "engine"];

fn cmd_list(flags: &Flags) -> Result<String, CliError> {
    let scale = flags.scale()?;
    let mut out = String::new();
    writeln!(
        out,
        "{:<12} {:>8} {:>9} {:>12}  notes",
        "name", "threads", "methods", "dynamic ops"
    )
    .ok();
    for wl in dc_workloads::all(scale) {
        writeln!(
            out,
            "{:<12} {:>8} {:>9} {:>12}  {}",
            wl.name,
            wl.program.threads.len(),
            wl.program.methods.len(),
            wl.program.dynamic_op_count(),
            if wl.compute_bound {
                "compute-bound"
            } else {
                "excluded from Figure 7"
            },
        )
        .ok();
    }
    Ok(out)
}

fn spec_for(wl: &Workload) -> AtomicitySpec {
    dc_core::initial_spec(&wl.program, &wl.extra_exclusions)
}

fn plan(flags: &Flags) -> Result<ExecPlan, CliError> {
    let seed = flags.u64_or("seed", 42)?;
    match flags.get("engine") {
        None | Some("det") => Ok(ExecPlan::Det(Schedule::random(seed))),
        Some("real") if flags.get("seed").is_some() => Err(CliError::Usage(
            "--seed has no effect with --engine real: the OS schedules real threads".into(),
        )),
        Some("real") => Ok(ExecPlan::Real),
        Some(other) => Err(CliError::Usage(format!(
            "--engine must be det|real, got {other:?}"
        ))),
    }
}

/// Observability-related `check` flags: level override plus output paths.
struct ObsFlags {
    level: Option<ObsLevel>,
    stats_json: Option<String>,
    trace_out: Option<String>,
}

impl ObsFlags {
    fn parse(flags: &Flags) -> Result<ObsFlags, CliError> {
        let level = match flags.get("obs") {
            None => None,
            Some(v) => Some(ObsLevel::parse(v).ok_or_else(|| {
                CliError::Usage(format!("--obs must be off|counters|full, got {v:?}"))
            })?),
        };
        Ok(ObsFlags {
            level,
            stats_json: flags.get("stats-json").map(String::from),
            trace_out: flags.get("trace-out").map(String::from),
        })
    }

    /// The effective level: `--trace-out` needs the trace ring (`full`);
    /// `--stats-json` needs at least counters to have anything to report.
    fn effective(&self) -> ObsLevel {
        let level = self.level.unwrap_or(ObsLevel::Off);
        if self.trace_out.is_some() {
            ObsLevel::Full
        } else if self.stats_json.is_some() && level == ObsLevel::Off {
            ObsLevel::Counters
        } else {
            level
        }
    }
}

/// What `check` runs on: a named benchmark workload or an imported history.
struct CheckTarget {
    program: Program,
    spec: AtomicitySpec,
    plan: ExecPlan,
    /// `Some` when the target came from `--history`: the parsed history,
    /// used for the summary line and expected-verdict enforcement.
    history: Option<dc_histories::History>,
}

fn check_target(flags: &Flags) -> Result<CheckTarget, CliError> {
    let Some(path) = flags.get("history") else {
        let wl = flags.workload()?;
        let spec = spec_for(&wl);
        return Ok(CheckTarget {
            program: wl.program,
            spec,
            plan: plan(flags)?,
            history: None,
        });
    };
    if flags.get("workload").is_some() {
        return Err(CliError::Usage(
            "--history and --workload are mutually exclusive".into(),
        ));
    }
    // A history fixes its own interleaving; flags that pick one are
    // contradictions, not no-ops.
    if flags.get("seed").is_some() {
        return Err(CliError::Usage(
            "--seed has no effect with --history: the interleaving is fixed by the file".into(),
        ));
    }
    if matches!(flags.get("engine"), Some("real")) {
        return Err(CliError::Usage(
            "--engine real cannot replay a history: the interleaving is fixed by the file".into(),
        ));
    }
    if flags.get("scale").is_some() {
        return Err(CliError::Usage(
            "--scale has no effect with --history: the program is fixed by the file".into(),
        ));
    }
    // Read at most one byte past the limit: the importer rejects the text
    // on its length (reported as limit + 1 however long the file is), and
    // an oversized file is never held in memory.
    let mut text = String::new();
    std::fs::File::open(path)
        .and_then(|f| {
            let bound = dc_histories::schema::MAX_INPUT_BYTES as u64 + 1;
            f.take(bound).read_to_string(&mut text)
        })
        .map_err(|e| CliError::Failed(format!("reading {path:?}: {e}")))?;
    let (history, lowered) = dc_histories::import(&text)
        .map_err(|e| CliError::Usage(format!("invalid history {path:?}: {e}")))?;
    Ok(CheckTarget {
        program: lowered.program,
        spec: lowered.spec,
        plan: ExecPlan::Det(lowered.schedule),
        history: Some(history),
    })
}

fn cmd_check(flags: &Flags) -> Result<String, CliError> {
    let CheckTarget {
        program,
        spec,
        plan,
        history,
    } = check_target(flags)?;
    let checker = flags.get("checker").unwrap_or("single");
    let obs_flags = ObsFlags::parse(flags)?;
    let mut out = String::new();
    if let Some(h) = &history {
        writeln!(
            out,
            "history: {} — {} session(s), {} transaction(s), {} event(s)",
            h.name.as_deref().unwrap_or("<unnamed>"),
            h.sessions.len(),
            h.transaction_count(),
            h.event_count(),
        )
        .ok();
    }
    let found_violation;

    match checker {
        "velodrome" | "velodrome-unsound" | "aerodrome" => {
            if let Some(flag) = DC_ONLY_FLAGS.iter().find(|f| flags.get(f).is_some()) {
                return Err(CliError::Usage(format!(
                    "--{flag} applies only to DoubleChecker checkers, not {checker}"
                )));
            }
            let config = OnlineConfig {
                variant: if checker == "velodrome-unsound" {
                    Variant::Unsound
                } else {
                    Variant::Sound
                },
                ..OnlineConfig::default()
            };
            let n = program.threads.len();
            let (violations, cross_edges, joins) = if checker == "aerodrome" {
                let a = AeroDrome::new(n, spec, config);
                let (violations, cross_edges) = run_online(&program, &a, &plan)?;
                let joins = (a.clock_joins(), a.propagated_joins());
                (violations, cross_edges, Some(joins))
            } else {
                let v = Velodrome::new(n, spec, config);
                let (violations, cross_edges) = run_online(&program, &v, &plan)?;
                (violations, cross_edges, None)
            };
            for v in &violations {
                let cycle = v.cycle.iter().map(|(_, k)| k.method());
                describe_violation(&mut out, &program, cycle, &v.blamed_methods);
            }
            write!(
                out,
                "{checker}: {} violation(s), {cross_edges} cross edges",
                violations.len()
            )
            .ok();
            if let Some((joins, propagated)) = joins {
                write!(out, ", {joins} clock joins ({propagated} propagated)").ok();
            }
            writeln!(out).ok();
            found_violation = !violations.is_empty();
        }
        _ => {
            let coordination = plan.coordination();
            let config = match checker {
                "single" | "dc" => DcConfig::single_run(coordination),
                "first-run" => DcConfig::first_run(coordination),
                "second-run" => {
                    // Derive static info from a handful of first runs. A
                    // history has exactly one meaningful interleaving, so
                    // its first run replays the same scripted plan.
                    let first_plans: Vec<ExecPlan> = if history.is_some() {
                        vec![plan.clone()]
                    } else {
                        (0..4u64)
                            .map(|s| ExecPlan::Det(Schedule::random(s)))
                            .collect()
                    };
                    let (_, info) = run_first_runs(&program, &spec, &first_plans)
                        .map_err(|e| CliError::Failed(e.to_string()))?;
                    DcConfig::second_run(&info, coordination)
                }
                "pcd-only" => DcConfig::pcd_only(coordination),
                other => return Err(CliError::Usage(format!("unknown --checker {other:?}"))),
            };
            let config = match flags.get("barrier-cache") {
                None => config,
                Some("on") => config.with_barrier_cache(true),
                Some("off") => config.with_barrier_cache(false),
                Some(other) => {
                    return Err(CliError::Usage(format!(
                        "--barrier-cache must be on|off, got {other:?}"
                    )))
                }
            };
            let config = config.with_observability(obs_flags.effective());
            let report = run_doublechecker(&program, &spec, config, &plan)
                .map_err(|e| CliError::Failed(e.to_string()))?;
            found_violation = !report.violations.is_empty();
            if let Some(path) = &obs_flags.stats_json {
                let doc = stats_to_json(report.stats, report.pipeline.as_ref());
                std::fs::write(path, format!("{doc}\n"))
                    .map_err(|e| CliError::Failed(format!("writing {path:?}: {e}")))?;
            }
            if let Some(path) = &obs_flags.trace_out {
                let mut lines = String::new();
                for event in &report.trace {
                    writeln!(lines, "{}", trace_event_to_json(event)).ok();
                }
                std::fs::write(path, lines)
                    .map_err(|e| CliError::Failed(format!("writing {path:?}: {e}")))?;
            }
            let s = &report.stats;
            if let Some(p) = &report.pipeline {
                writeln!(
                    out,
                    "obs: level {}, {} SCCs detected ({} probes skipped as trivial), \
                     {} replays, {} violations, {} trace events",
                    p.level.as_str(),
                    s.icd_sccs,
                    p.graph.sccs_skipped_trivial,
                    s.sccs_to_pcd,
                    s.pcd.cycles,
                    p.trace_recorded,
                )
                .ok();
            }
            for v in &report.violations {
                let cycle = v.cycle.iter().map(|m| m.kind.method());
                describe_violation(&mut out, &program, cycle, &v.blamed_methods());
            }
            writeln!(
                out,
                "{}: {} violation(s); {} regular tx, {} unary tx, {} accesses, \
                 {} IDG edges, {} SCCs ({} to PCD), {} log entries, {} graph locks",
                checker,
                report.violations.len(),
                s.regular_txs,
                s.unary_txs,
                s.regular_accesses + s.unary_accesses,
                s.idg_cross_edges,
                s.icd_sccs,
                s.sccs_to_pcd,
                s.log_entries,
                s.graph_locks,
            )
            .ok();
        }
    }
    // `first-run` never reports violations and `velodrome-unsound` may
    // legitimately miss them, so the expected verdict binds every other
    // checker only.
    let verdict_binds = !matches!(checker, "first-run" | "velodrome-unsound");
    if let Some(expected) = history
        .as_ref()
        .and_then(|h| h.expected)
        .filter(|_| verdict_binds)
    {
        if expected.violation() != found_violation {
            return Err(CliError::Failed(format!(
                "history expects {} but the {} checker found {}",
                expected.as_str(),
                checker,
                if found_violation {
                    "a violation"
                } else {
                    "no violation"
                },
            )));
        }
        writeln!(out, "expected verdict: {} — matched", expected.as_str()).ok();
    }
    Ok(out)
}

/// Runs an online checker under the plan: its violations and cross edges.
fn run_online<C: CycleFilter>(
    program: &Program,
    checker: &Online<C>,
    plan: &ExecPlan,
) -> Result<(Vec<VViolation>, u64), CliError> {
    plan.run(program, checker)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    Ok((checker.violations(), checker.cross_edges()))
}

/// One `violation:` line, for any checker: the methods of the cycle's
/// transactions (`None` for a unary one) and the blamed methods.
fn describe_violation(
    out: &mut String,
    program: &Program,
    cycle: impl Iterator<Item = Option<MethodId>>,
    blamed: &[MethodId],
) {
    let name = |m: Option<MethodId>| m.map_or("<non-transactional>", |m| program.method_name(m));
    let cycle: Vec<&str> = cycle.map(name).collect();
    let blamed: Vec<&str> = blamed.iter().map(|&m| name(Some(m))).collect();
    writeln!(
        out,
        "violation: cycle through [{}], blamed [{}]",
        cycle.join(", "),
        blamed.join(", ")
    )
    .ok();
}

fn cmd_refine(flags: &Flags) -> Result<String, CliError> {
    let wl = flags.workload()?;
    let window = u32::try_from(flags.u64_or("window", 5)?)
        .map_err(|_| CliError::Usage("--window too large".into()))?;
    let start = spec_for(&wl);
    let mut seed = 0u64;
    let program = &wl.program;
    let result = dc_core::iterative_refinement(start, window, 32, |spec, _| {
        seed += 1;
        let report = run_doublechecker(
            program,
            spec,
            DcConfig::single_run(CoordinationMode::Immediate),
            &ExecPlan::Det(Schedule::random(seed)),
        )
        .expect("refinement trial");
        report
            .violations
            .iter()
            .map(|v| ReportedViolation {
                blamed: v.blamed_methods(),
                key: v.static_key(),
            })
            .collect()
    });
    let mut out = String::new();
    writeln!(
        out,
        "{}: {} round(s), {} trial(s), {} distinct violation(s)",
        wl.name,
        result.rounds,
        result.trials,
        result.distinct_violations()
    )
    .ok();
    let mut excluded: Vec<&str> = result
        .final_spec
        .excluded()
        .map(|m| wl.program.method_name(m))
        .collect();
    excluded.sort_unstable();
    writeln!(out, "final specification excludes: {excluded:?}").ok();
    Ok(out)
}

fn cmd_trace(flags: &Flags) -> Result<String, CliError> {
    let wl = flags.workload()?;
    let seed = flags.u64_or("seed", 42)?;
    // Checked like --window: `as usize` would silently truncate an
    // over-large value (to 0 on 32-bit, arbitrary elsewhere) instead of
    // telling the user.
    let limit = u32::try_from(flags.u64_or("limit", 40)?)
        .map_err(|_| CliError::Usage("--limit too large".into()))? as usize;
    let trace = TraceChecker::new();
    dc_runtime::engine::det::run_det(&wl.program, &trace, &Schedule::random(seed))
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let events = trace.into_events();
    let spec = spec_for(&wl);
    let report = analyze_trace(&events, &spec, OfflineConfig::default());
    let mut out = String::new();
    writeln!(
        out,
        "{}: {} events; offline oracle: {} violation(s), {} transactions, {} precise edges",
        wl.name,
        events.len(),
        report.violations.len(),
        report.transactions,
        report.edges
    )
    .ok();
    for e in events.iter().take(limit) {
        writeln!(out, "  {e:?}").ok();
    }
    if events.len() > limit {
        writeln!(out, "  … {} more (raise --limit)", events.len() - limit).ok();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn flags_parse_key_value_pairs() {
        let f = Flags::parse(&argv("--workload tsp --seed 7"), &["workload", "seed"]).unwrap();
        assert_eq!(f.get("workload"), Some("tsp"));
        assert_eq!(f.get("seed"), Some("7"));
        assert_eq!(f.get("missing"), None);
    }

    #[test]
    fn flags_reject_positional_and_dangling() {
        assert!(matches!(
            Flags::parse(&argv("positional"), &[]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            Flags::parse(&argv("--key"), &["key"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn unknown_and_removed_flags_are_usage_errors_naming_the_flag() {
        for (cmd, flag) in [
            ("check --workload tsp --bogus 1 --shardz 7", "--bogus"),
            ("check --workload tsp --window 4", "--window"),
            ("list --workload tsp", "--workload"),
            ("refine --workload elevator --seed 1", "--seed"),
            ("trace --workload philo --checker single", "--checker"),
            // Removed with the sharded IDG, the channel transport and the
            // asynchronous pipeline.
            ("check --workload tsp --shards 1", "--shards"),
            ("check --workload tsp --transport ring", "--transport"),
            ("check --workload tsp --pipelined on", "--pipelined"),
            ("check --workload tsp --pipelined off", "--pipelined"),
        ] {
            let err = run(&argv(cmd)).unwrap_err();
            assert!(
                matches!(err, CliError::Usage(ref m) if m.contains(&format!("unknown flag {flag} "))),
                "{cmd}: {err:?}"
            );
        }
        // A known flag that the rest of the command line makes meaningless
        // is named too, not ignored.
        let err = run(&argv("check --workload tsp --engine real --seed 3")).unwrap_err();
        assert!(
            matches!(err, CliError::Usage(ref m) if m.starts_with("--seed has no effect")),
            "{err:?}"
        );
        // So is a flag given twice: neither value silently wins.
        for (cmd, flag) in [
            (
                "check --workload tsp --checker velodrome --checker dc",
                "--checker",
            ),
            ("check --workload tsp --seed 1 --seed 1", "--seed"),
            (
                "trace --workload philo --limit 3 --workload tsp",
                "--workload",
            ),
        ] {
            let err = run(&argv(cmd)).unwrap_err();
            assert_eq!(
                err,
                CliError::Usage(format!("{flag} given more than once")),
                "{cmd}"
            );
        }
        // A flag where a value belongs is not taken as the value: it would
        // swallow the flag (and `--stats-json` would write a file named
        // after it).
        let err = run(&argv("check --workload tsp --seed 3 --stats-json --obs")).unwrap_err();
        assert_eq!(
            err,
            CliError::Usage("--stats-json needs a value, got the flag --obs".into())
        );
        for removed in ["--shards", "--transport", "--pipelined"] {
            assert!(!usage().contains(removed), "usage still lists {removed}");
        }
    }

    #[test]
    fn empty_invocation_prints_usage() {
        let err = run(&[]).unwrap_err();
        assert!(matches!(err, CliError::Usage(m) if m.contains("usage")));
    }

    #[test]
    fn unknown_command_is_usage_error() {
        assert!(matches!(run(&argv("bogus")), Err(CliError::Usage(_))));
    }

    #[test]
    fn list_includes_all_nineteen() {
        let out = run(&argv("list")).unwrap();
        for name in ["eclipse6", "tsp", "raytracer", "philo"] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
        assert!(out.contains("excluded from Figure 7"));
    }

    #[test]
    fn check_single_runs_and_reports() {
        let out = run(&argv("check --workload tsp --seed 3")).unwrap();
        assert!(out.contains("single:"), "{out}");
        assert!(out.contains("IDG edges"));
    }

    #[test]
    fn check_obs_flag_prints_obs_summary() {
        let out = run(&argv("check --workload tsp --seed 3 --obs full")).unwrap();
        assert!(out.contains("obs: level full"), "{out}");
        assert!(out.contains("trace events"), "{out}");
        let off = run(&argv("check --workload tsp --seed 3 --obs off")).unwrap();
        assert!(!off.contains("obs: level"), "{off}");
        assert!(matches!(
            run(&argv("check --workload tsp --obs verbose")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn effective_level_upgrades_are_exact() {
        let flags = |level, stats_json: bool, trace_out: bool| ObsFlags {
            level,
            stats_json: stats_json.then(|| "s.json".into()),
            trace_out: trace_out.then(|| "t.jsonl".into()),
        };
        // --stats-json lifts Off to Counters, leaves higher levels alone.
        assert_eq!(flags(None, true, false).effective(), ObsLevel::Counters);
        assert_eq!(
            flags(Some(ObsLevel::Full), true, false).effective(),
            ObsLevel::Full
        );
        // --trace-out always needs the trace ring.
        assert_eq!(
            flags(Some(ObsLevel::Off), false, true).effective(),
            ObsLevel::Full
        );
        // Without an output flag the level is --obs, else off.
        assert_eq!(
            flags(Some(ObsLevel::Counters), false, false).effective(),
            ObsLevel::Counters
        );
        assert_eq!(flags(None, false, false).effective(), ObsLevel::Off);
    }

    /// Runs `check <args> --stats-json <tmp>` and returns the command output
    /// and the parsed document.
    fn check_with_stats(name: &str, args: &str) -> (String, serde_json::Value) {
        let dir = std::env::temp_dir().join("dc-cli-test-stats");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let out = run(&argv(&format!(
            "check {args} --stats-json {}",
            path.to_str().unwrap()
        )))
        .unwrap();
        let doc = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        (out, doc)
    }

    /// Dotted path of every leaf of `v`, in the document's (sorted) order.
    fn leaf_paths<'a>(
        prefix: &str,
        v: &'a serde_json::Value,
        out: &mut Vec<(String, &'a serde_json::Value)>,
    ) {
        match v.as_object() {
            Some(map) => {
                for (k, child) in map {
                    let path = if prefix.is_empty() {
                        k.clone()
                    } else {
                        format!("{prefix}.{k}")
                    };
                    leaf_paths(&path, child, out);
                }
            }
            None => out.push((prefix.to_string(), v)),
        }
    }

    /// The `--stats-json` contract: the complete key-path set of schema
    /// version [`dc_core::STATS_SCHEMA_VERSION`]. A key added, removed or
    /// renamed fails here until this list and the version are updated
    /// together.
    #[test]
    fn stats_json_schema_is_golden() {
        const HISTOGRAM: &[&str] = &["count", "max_ns", "p50_ns", "p90_ns", "p99_ns", "sum_ns"];
        const SCALAR: &[&str] = &[""];
        let golden: &[(&str, &[&str])] = &[
            ("collected_txs", SCALAR),
            ("graph_locks", SCALAR),
            ("icd_sccs", SCALAR),
            ("idg_cross_edges", SCALAR),
            ("log_entries", SCALAR),
            ("pipeline.graph.collect_latency", HISTOGRAM),
            ("pipeline.graph.scc_latency", HISTOGRAM),
            ("pipeline.graph.sccs_skipped_trivial", SCALAR),
            ("pipeline.level", SCALAR),
            ("pipeline.octet.cache_flushes", SCALAR),
            ("pipeline.octet.cache_hits", SCALAR),
            ("pipeline.octet.coalesced", SCALAR),
            ("pipeline.octet.conflicts", SCALAR),
            ("pipeline.octet.fences", SCALAR),
            ("pipeline.octet.first_touch", SCALAR),
            ("pipeline.octet.upgrades", SCALAR),
            ("pipeline.replay.latency", HISTOGRAM),
            ("pipeline.replay.violations", SCALAR),
            ("pipeline.trace_recorded", SCALAR),
            ("regular_accesses", SCALAR),
            ("regular_txs", SCALAR),
            ("schema_version", SCALAR),
            ("sccs_to_pcd", SCALAR),
            ("unary_accesses", SCALAR),
            ("unary_txs", SCALAR),
        ];
        let mut golden: Vec<String> = golden
            .iter()
            .flat_map(|(key, leaves)| {
                leaves.iter().map(move |leaf| match *leaf {
                    "" => key.to_string(),
                    leaf => format!("{key}.{leaf}"),
                })
            })
            .collect();
        golden.sort();

        let history = history_file("lost-update-stats.json", &lost_update_history());
        let (_, workload_doc) = check_with_stats("workload.json", "--workload tsp");
        let (history_out, history_doc) =
            check_with_stats("history.json", &format!("--history {history}"));
        assert!(
            history_out.contains("expected verdict: violation — matched"),
            "{history_out}"
        );
        for (what, doc) in [("workload", &workload_doc), ("history", &history_doc)] {
            let mut leaves = Vec::new();
            leaf_paths("", doc, &mut leaves);
            let paths: Vec<&str> = leaves.iter().map(|(p, _)| p.as_str()).collect();
            assert_eq!(paths, golden, "{what}: key paths drifted from the golden");
            for (path, value) in &leaves {
                match path.as_str() {
                    // --stats-json alone lifts the level from off to counters.
                    "pipeline.level" => {
                        assert_eq!(value.as_str(), Some("counters"), "{what}")
                    }
                    _ => assert!(
                        value.as_f64().is_some_and(|n| n.fract() == 0.0),
                        "{what}: {path} must be an integer, got {value}"
                    ),
                }
            }
            let uint = |path: &str| {
                let (_, v) = leaves.iter().find(|(p, _)| p == path).expect(path);
                v.as_u64().unwrap_or_else(|| panic!("{what}: {path} = {v}"))
            };
            assert_eq!(uint("schema_version"), dc_core::STATS_SCHEMA_VERSION);
            assert!(uint("regular_txs") > 0, "{what}: replayed no transactions");
            // The default configuration has the ownership cache on, so a
            // loopy workload must record hits.
            assert!(
                what == "history" || uint("pipeline.octet.cache_hits") > 0,
                "inline cache never hit"
            );
        }
    }

    /// Every count schema 3 keeps, leaf by leaf, against the document the
    /// schema-2 CLI wrote for the same det run (`check --workload tsp
    /// --seed 42 --obs counters --stats-json`), when `dc-obs` still kept
    /// its own copy of the counts: a count read from the wrong statistic
    /// fails here by value, not just by key.
    #[test]
    fn stats_json_counts_match_the_schema_2_fixture() {
        let fixture =
            serde_json::from_str(include_str!("../fixtures/tsp_seed42_counters.schema2.json"))
                .unwrap();
        let mut expected = Vec::new();
        leaf_paths("", &fixture, &mut expected);
        let (_, doc) = check_with_stats("fixture.json", "--workload tsp --seed 42 --obs counters");
        let mut leaves = Vec::new();
        leaf_paths("", &doc, &mut leaves);
        let mut compared = 0;
        for (path, value) in leaves {
            let Some(n) = value.as_u64() else { continue };
            if path == "schema_version" {
                continue;
            }
            let old = expected.iter().find(|(p, _)| *p == path);
            assert_eq!(old.and_then(|(_, v)| v.as_u64()), Some(n), "{path}");
            compared += 1;
        }
        assert_eq!(
            compared,
            expected.len() - 6,
            "the four dropped keys, level and version"
        );
    }

    #[test]
    fn check_trace_out_writes_json_lines_and_implies_full() {
        let dir = std::env::temp_dir().join("dc-cli-test-trace");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let path_str = path.to_str().unwrap();
        let out = run(&argv(&format!(
            "check --workload tsp --seed 3 --trace-out {path_str}"
        )))
        .unwrap();
        assert!(out.contains("obs: level full"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.is_empty(), "trace must contain events");
        for line in text.lines() {
            let event = serde_json::from_str(line).unwrap();
            assert!(event.get("seq").is_some());
            assert!(event.get("stage").and_then(|v| v.as_str()).is_some());
            assert!(event.get("kind").and_then(|v| v.as_str()).is_some());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn doublechecker_only_flags_are_rejected_for_the_online_checkers() {
        for checker in ["velodrome", "velodrome-unsound", "aerodrome"] {
            for flag in [
                "--obs full",
                "--stats-json /tmp/x",
                "--trace-out /tmp/y",
                "--barrier-cache off",
            ] {
                let name = flag.split(' ').next().unwrap();
                let err = run(&argv(&format!(
                    "check --workload tsp --checker {checker} {flag}"
                )))
                .unwrap_err();
                assert!(
                    matches!(err, CliError::Usage(ref m) if m.starts_with(&format!("{name} applies only"))),
                    "{flag} must be rejected for {checker}: {err:?}"
                );
            }
        }
    }

    /// One online checker: the two outputs differ only in the checker's
    /// name and AeroDrome's clock-join suffix on the summary line.
    #[test]
    fn check_aerodrome_and_velodrome_report_identical_violations() {
        for wl in ["hsqldb6", "tsp", "sor"] {
            let check = |checker: &str| {
                let cmd = format!("check --workload {wl} --checker {checker} --seed 5");
                run(&argv(&cmd)).unwrap()
            };
            let (velo, aero) = (check("velodrome"), check("aerodrome"));
            assert!(velo.lines().last().unwrap().starts_with("velodrome: "));
            let (aero, joins) = aero.trim_end().rsplit_once(", ").unwrap();
            assert!(joins.ends_with(" propagated)"), "{wl}: {joins}");
            assert!(joins.contains(" clock joins ("), "{wl}: {joins}");
            let aero = aero.replacen("aerodrome: ", "velodrome: ", 1);
            assert_eq!(aero, velo.trim_end(), "{wl}");
        }
    }

    #[test]
    fn check_dc_alias_matches_single() {
        let single = run(&argv("check --workload tsp --seed 3 --checker single")).unwrap();
        let dc = run(&argv("check --workload tsp --seed 3 --checker dc")).unwrap();
        assert_eq!(
            single.replace("single:", "checker:"),
            dc.replace("dc:", "checker:")
        );
    }

    #[test]
    fn check_unknown_workload_fails_cleanly() {
        let err = run(&argv("check --workload nope")).unwrap_err();
        assert!(matches!(err, CliError::Failed(m) if m.contains("unknown workload")));
    }

    #[test]
    fn trace_prints_prefix_and_oracle_verdict() {
        let out = run(&argv("trace --workload philo --seed 1 --limit 5")).unwrap();
        assert!(out.contains("offline oracle"), "{out}");
        assert!(out.contains("more (raise --limit)"));
    }

    #[test]
    fn trace_limit_overflow_is_a_usage_error_not_silent_truncation() {
        // 5e9 exceeds u32: the old `as usize` cast silently truncated it.
        let err = run(&argv("trace --workload philo --seed 1 --limit 5000000000")).unwrap_err();
        assert!(
            matches!(err, CliError::Usage(ref m) if m.contains("--limit")),
            "{err:?}"
        );
        assert!(matches!(
            run(&argv("trace --workload philo --limit nope")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn check_barrier_cache_flag_preserves_results_and_rejects_garbage() {
        let default = run(&argv("check --workload tsp --seed 3")).unwrap();
        let on = run(&argv("check --workload tsp --seed 3 --barrier-cache on")).unwrap();
        let off = run(&argv("check --workload tsp --seed 3 --barrier-cache off")).unwrap();
        // The inline cache is a pure performance knob: identical summary
        // output with it on, off, or defaulted.
        assert_eq!(default, on);
        assert_eq!(on, off);
        assert!(matches!(
            run(&argv("check --workload tsp --barrier-cache maybe")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn refine_converges_on_elevator() {
        let out = run(&argv("refine --workload elevator --window 4")).unwrap();
        assert!(out.contains("final specification excludes"), "{out}");
    }

    // ---- --history ----------------------------------------------------

    fn lost_update_history() -> String {
        r#"{
          "format": "dc-history",
          "version": 1,
          "name": "lost-update",
          "expected": "violation",
          "sessions": [
            [ {"id": 1, "events": [{"op": "r", "key": "x", "value": 0},
                                   {"op": "w", "key": "x", "value": 1}]} ],
            [ {"id": 2, "events": [{"op": "r", "key": "x", "value": 0},
                                   {"op": "w", "key": "x", "value": 2}]} ]
          ]
        }"#
        .to_string()
    }

    /// Writes `text` to a fresh temp file and returns its path as a string.
    fn history_file(name: &str, text: &str) -> String {
        let dir = std::env::temp_dir().join("dc-cli-test-histories");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn check_history_replays_and_matches_expected_verdict() {
        let path = history_file("lost-update.json", &lost_update_history());
        let out = run(&argv(&format!("check --history {path}"))).unwrap();
        assert!(out.contains("history: lost-update"), "{out}");
        assert!(
            out.contains("2 session(s), 2 transaction(s), 4 event(s)"),
            "{out}"
        );
        assert!(out.contains("violation: cycle through"), "{out}");
        assert!(
            out.contains("expected verdict: violation — matched"),
            "{out}"
        );
    }

    #[test]
    fn check_history_runs_every_checker() {
        let path = history_file("lost-update-all.json", &lost_update_history());
        for checker in [
            "single",
            "dc",
            "second-run",
            "pcd-only",
            "velodrome",
            "aerodrome",
        ] {
            let out = run(&argv(&format!(
                "check --history {path} --checker {checker}"
            )))
            .unwrap_or_else(|e| panic!("{checker}: {e:?}"));
            assert!(
                out.contains("expected verdict: violation — matched"),
                "{checker}:\n{out}"
            );
        }
        // first-run reports no violations by design; the expected verdict
        // must not bind it.
        let out = run(&argv(&format!(
            "check --history {path} --checker first-run"
        )))
        .unwrap();
        assert!(!out.contains("expected verdict"), "{out}");
    }

    #[test]
    fn check_history_expected_mismatch_fails_the_command() {
        // Claim serializable on a violating history: the run must fail.
        let text = lost_update_history().replace("\"violation\"", "\"serializable\"");
        let path = history_file("mismatch.json", &text);
        let err = run(&argv(&format!("check --history {path}"))).unwrap_err();
        assert!(
            matches!(err, CliError::Failed(ref m) if m.contains("expects serializable")),
            "{err:?}"
        );
    }

    #[test]
    fn check_history_truncated_json_is_a_usage_error() {
        let text = lost_update_history();
        // The second input used to overflow the parser's stack (exit 134).
        for (name, text, detail) in [
            ("truncated.json", &text[..text.len() / 2], "invalid JSON"),
            (
                "deep.json",
                &"[".repeat(200_000)[..],
                "byte 128: nesting deeper than 128 levels",
            ),
        ] {
            let path = history_file(name, text);
            let err = run(&argv(&format!("check --history {path}"))).unwrap_err();
            assert!(
                matches!(err, CliError::Usage(ref m) if m.contains("invalid JSON") && m.contains(detail)),
                "{name}: {err:?}"
            );
        }
    }

    /// Each of the four input limits is a usage error naming the limit.
    #[test]
    fn check_history_over_a_limit_is_a_usage_error() {
        use dc_histories::schema::{
            MAX_EVENTS_PER_TX, MAX_INPUT_BYTES, MAX_KEYS, MAX_TXS_PER_SESSION,
        };
        // One session of `txs` transactions of `events` writes each, all to
        // one key or each to a key of its own.
        let doc = |txs: usize, events: usize, distinct_keys: bool| {
            let txs: Vec<String> = (0..txs)
                .map(|id| {
                    let events: Vec<String> = (0..events)
                        .map(|e| {
                            let value = id * events + e + 1;
                            let key = if distinct_keys { value } else { 0 };
                            format!(r#"{{"op":"w","key":{key},"value":{value}}}"#)
                        })
                        .collect();
                    format!(r#"{{"id":{id},"events":[{}]}}"#, events.join(","))
                })
                .collect();
            format!(
                r#"{{"format":"dc-history","version":1,"sessions":[[{}]]}}"#,
                txs.join(",")
            )
        };
        let per_tx = MAX_EVENTS_PER_TX;
        for (name, text, detail) in [
            (
                "over-bytes.json",
                " ".repeat(MAX_INPUT_BYTES + 1),
                format!("exceeds the limit of {MAX_INPUT_BYTES}"),
            ),
            (
                "over-txs.json",
                doc(MAX_TXS_PER_SESSION + 1, 1, false),
                format!("exceeds the limit of {MAX_TXS_PER_SESSION}"),
            ),
            (
                "over-events.json",
                doc(1, MAX_EVENTS_PER_TX + 1, false),
                format!("exceeds the limit of {MAX_EVENTS_PER_TX}"),
            ),
            (
                "over-keys.json",
                doc(MAX_KEYS / per_tx + 1, per_tx, true),
                format!("exceeds the limit of {MAX_KEYS}"),
            ),
        ] {
            let path = history_file(name, &text);
            let err = run(&argv(&format!("check --history {path}"))).unwrap_err();
            assert!(
                matches!(err, CliError::Usage(ref m) if m.contains(&detail)),
                "{name}: {err:?}"
            );
        }
    }

    #[test]
    fn check_history_unknown_version_is_a_usage_error() {
        let text = lost_update_history().replace("\"version\": 1", "\"version\": 99");
        let path = history_file("version99.json", &text);
        let err = run(&argv(&format!("check --history {path}"))).unwrap_err();
        assert!(
            matches!(err, CliError::Usage(ref m) if m.contains("unknown schema version 99")),
            "{err:?}"
        );
    }

    #[test]
    fn check_history_duplicate_tx_id_is_a_usage_error() {
        let text = lost_update_history().replace("\"id\": 2", "\"id\": 1");
        let path = history_file("dup-id.json", &text);
        let err = run(&argv(&format!("check --history {path}"))).unwrap_err();
        assert!(
            matches!(err, CliError::Usage(ref m) if m.contains("duplicate transaction id 1")),
            "{err:?}"
        );
    }

    #[test]
    fn check_history_read_of_never_written_key_is_a_usage_error() {
        let text = lost_update_history().replace(
            r#"{"op": "r", "key": "x", "value": 0},
                                   {"op": "w", "key": "x", "value": 2}"#,
            r#"{"op": "r", "key": "ghost", "value": 9}"#,
        );
        let path = history_file("never-written.json", &text);
        let err = run(&argv(&format!("check --history {path}"))).unwrap_err();
        assert!(
            matches!(err, CliError::Usage(ref m) if m.contains("never-written value 9")),
            "{err:?}"
        );
    }

    #[test]
    fn check_history_missing_file_fails_cleanly() {
        let err = run(&argv("check --history /nonexistent/h.json")).unwrap_err();
        assert!(
            matches!(err, CliError::Failed(ref m) if m.contains("reading")),
            "{err:?}"
        );
    }

    #[test]
    fn check_history_conflicting_flags_are_usage_errors() {
        let path = history_file("conflicts.json", &lost_update_history());
        for extra in [
            "--workload tsp",
            "--seed 3",
            "--engine real",
            "--scale small",
        ] {
            let err = run(&argv(&format!("check --history {path} {extra}"))).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{extra}: {err:?}");
        }
        // --engine det is redundant but not contradictory.
        assert!(run(&argv(&format!("check --history {path} --engine det"))).is_ok());
    }
}
