//! Library backing the `dc` command-line tool: argument parsing and the
//! subcommand implementations, kept separate from `main` for testability.
//!
//! The commands are `COMMANDS` and every flag is one row of `FLAGS`;
//! [`usage`] prints both. Argument parsing is hand-rolled (`--key value`
//! pairs) to stay within the workspace's dependency policy.

#![warn(missing_docs)]

use dc_aerodrome::AeroDrome;
use dc_core::{
    run_doublechecker, run_first_runs, stats_to_json, trace_event_to_json, DcConfig, ExecPlan,
    ObsLevel, ReportedViolation,
};
use dc_octet::CoordinationMode;
use dc_runtime::engine::det::{DetError, Schedule};
use dc_runtime::ids::MethodId;
use dc_runtime::program::Program;
use dc_runtime::spec::AtomicitySpec;
use dc_runtime::trace::TraceChecker;
use dc_velodrome::{OnlineConfig, Variant, Velodrome};
use dc_workloads::suite::SUITE;
use dc_workloads::{by_name, Scale, Workload};
use std::fmt::Write as _;
use std::io::Read as _;
use Value::{Choice, Number, Output, Text, WorkloadName};

/// Everything that can go wrong while handling a command.
#[derive(Debug, PartialEq, Eq)]
pub enum CliError {
    /// Unknown subcommand or malformed flags; the message is user-facing.
    Usage(String),
    /// The command ran but failed (unreadable history file, deadlock, …).
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

/// What a flag's value may be.
#[derive(Clone, Copy, Debug)]
enum Value {
    /// Any text, shown as this placeholder.
    Text(&'static str),
    /// An integer in `min..=max`, shown as `N`.
    Number(u64, u64),
    /// One of these `|`-separated words.
    Choice(&'static str),
    /// A file the command writes, shown as this placeholder: not a
    /// directory, in a directory that exists.
    Output(&'static str),
    /// The name of a benchmark workload (a row of
    /// `dc_workloads::suite::SUITE`), shown as `<name>`.
    WorkloadName,
}

impl Value {
    /// How the usage text shows the value.
    fn shown(self) -> &'static str {
        match self {
            Text(placeholder) | Output(placeholder) => placeholder,
            WorkloadName => "<name>",
            Number(..) => "N",
            Choice(words) => words,
        }
    }

    /// Rejects a value outside this declaration, naming `--key`.
    fn check(self, key: &str, value: &str) -> Result<(), CliError> {
        let expected = match self {
            Text(_) => return Ok(()),
            Number(min, max) => match value.parse::<u64>() {
                Ok(n) if (min..=max).contains(&n) => return Ok(()),
                Ok(_) => format!("a number in {min}..={max}"),
                Err(_) => "a number".to_string(),
            },
            Choice(words) if words.split('|').any(|w| w == value) => return Ok(()),
            Choice(words) => words.to_string(),
            WorkloadName if SUITE.iter().any(|(name, _)| *name == value) => return Ok(()),
            WorkloadName => "a workload `dc list` shows".to_string(),
            Output(_) => {
                // `is_dir` follows symlinks; an empty parent is the working
                // directory.
                let path = std::path::Path::new(value);
                let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
                if path.is_dir() {
                    "a file, not a directory".to_string()
                } else if !parent.is_none_or(std::path::Path::is_dir) {
                    "a file in an existing directory".to_string()
                } else {
                    return Ok(());
                }
            }
        };
        Err(CliError::Usage(format!(
            "--{key} must be {expected}, got {value:?}"
        )))
    }
}

/// One `--flag`, declared once: the commands that take it, its value and
/// its help line.
#[derive(Clone, Copy, Debug)]
struct Flag {
    name: &'static str,
    /// The commands that take it, space-separated.
    commands: &'static str,
    value: Value,
    help: &'static str,
    /// Configures the DoubleChecker analysis only: an online checker
    /// (Velodrome, AeroDrome) rejects it.
    dc_only: bool,
}

/// A flag taken by `commands`; `.help` adds its help line.
const fn flag(name: &'static str, commands: &'static str, value: Value) -> Flag {
    Flag {
        name,
        commands,
        value,
        help: "",
        dc_only: false,
    }
}

/// A `check` flag that only the DoubleChecker analysis reads.
const fn dc_flag(name: &'static str, value: Value) -> Flag {
    Flag {
        dc_only: true,
        ..flag(name, "check", value)
    }
}

impl Flag {
    fn takes(&self, command: &str) -> bool {
        self.commands.split(' ').any(|c| c == command)
    }

    const fn help(self, help: &'static str) -> Flag {
        Flag { help, ..self }
    }
}

/// Every flag of every command. Each command accepts exactly its rows,
/// [`usage`] prints them, and [`Flags::parse`] checks every value against
/// its row before the command starts.
const FLAGS: &[Flag] = &[
    flag("workload", "check refine trace", WorkloadName)
        .help("benchmark workload (`dc list`); `check` can take --history instead"),
    flag("history", "check", Text("<file>"))
        .help("replay a dc-history JSON file, which fixes program and interleaving"),
    flag("checker", "check", Choice(CHECKERS)).help("the checker to run (default single)"),
    flag("seed", "check trace", Number(0, u64::MAX))
        .help("deterministic schedule seed (default 42)"),
    flag("scale", "list check refine trace", Choice(SCALES)).help("workload size (default tiny)"),
    flag("engine", "check", Choice("det|real"))
        .help("seeded deterministic schedule or real OS threads (default det)"),
    dc_flag("barrier-cache", Choice("on|off")).help("Octet ownership inline cache (default on)"),
    dc_flag("obs", Choice("off|full")).help("full adds latencies and the trace (default off)"),
    dc_flag("stats-json", Output("<path>")).help("write stats + observability report as JSON"),
    dc_flag("trace-out", Output("<path>"))
        .help("write the trace as JSON lines (implies --obs full)"),
    flag("window", "refine", Number(1, U32)).help("trials per refinement window (default 5)"),
    flag("limit", "trace", Number(0, U32)).help("trace events to print (default 40)"),
];

const SCALES: &str = "tiny|small|full";

const U32: u64 = u32::MAX as u64;

/// The `--checker` values; the online checkers are the last three.
const CHECKERS: &str =
    "dc|single|first-run|second-run|pcd-only|velodrome|velodrome-unsound|aerodrome";

type Command = fn(&Flags) -> Result<String, CliError>;

/// Every command: its name, what it does, and its implementation.
const COMMANDS: &[(&str, &str, Command)] = &[
    ("list", "list benchmark workloads", cmd_list),
    ("check", "run one checker over one execution", cmd_check),
    ("refine", "iterative refinement (Figure 6)", cmd_refine),
    ("trace", "record a trace; offline-oracle verdict", cmd_trace),
];

/// Parsed `--key value` flags, each checked against its `FLAGS` row.
#[derive(Debug, Default)]
pub struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    /// Parses `--key value` pairs from the raw arguments of `command`.
    ///
    /// # Errors
    ///
    /// Rejects positional arguments, flags `command` does not take,
    /// dangling `--key`s, a value that is itself a flag, a key given twice,
    /// a value its row does not allow, and two output flags naming one
    /// file.
    pub fn parse(args: &[String], command: &str) -> Result<Flags, CliError> {
        let mut pairs = Vec::new();
        // Each output flag's file, resolved: no two may be one file.
        let mut outputs = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(CliError::Usage(format!("unexpected argument {a:?}")));
            };
            let Some(flag) = FLAGS.iter().find(|f| f.name == key && f.takes(command)) else {
                return Err(CliError::Usage(format!(
                    "unknown flag --{key} for this command\n{}",
                    usage()
                )));
            };
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
            flag.value.check(key, value)?;
            if let Output(_) = flag.value {
                let path = resolved_path(value);
                if let Some((other, _)) = outputs.iter().find(|(_, p)| *p == path) {
                    return Err(CliError::Usage(format!(
                        "--{other} and --{key} name the same file {value:?}: one would overwrite the other"
                    )));
                }
                outputs.push((key, path));
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

    /// The numeric `--key` (in its row's range), or `default`.
    fn number(&self, key: &str, default: u64) -> u64 {
        self.get(key)
            .map_or(default, |v| v.parse().expect("checked by Flags::parse"))
    }

    fn scale(&self) -> Scale {
        match self.get("scale") {
            Some("small") => Scale::Small,
            Some("full") => Scale::Full,
            _ => Scale::Tiny,
        }
    }

    fn workload(&self) -> Result<Workload, CliError> {
        let name = self
            .get("workload")
            .ok_or_else(|| CliError::Usage("--workload <name> is required".into()))?;
        Ok(by_name(name, self.scale()).expect("checked by Flags::parse"))
    }
}

/// Top-level usage text: every command and every flag it takes.
pub fn usage() -> String {
    let mut out = String::from("usage: dc <command> [--key value …]\ncommands:\n");
    for (command, about, _) in COMMANDS {
        writeln!(out, "  {command:<8}{about}").ok();
        for flag in FLAGS.iter().filter(|f| f.takes(command)) {
            let mut spec = format!("--{} {}", flag.name, flag.value.shown());
            if spec.len() > 26 {
                // Too wide for its column: the help goes on the next line.
                spec = format!("{spec}\n    {:26}", "");
            }
            writeln!(out, "    {spec:<26}  {}", flag.help).ok();
        }
    }
    out
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
        return Err(CliError::Usage(usage()));
    };
    let Some((name, _, command)) = COMMANDS.iter().find(|(name, ..)| name == command) else {
        return Err(CliError::Usage(format!(
            "unknown command {command:?}\n{}",
            usage()
        )));
    };
    command(&Flags::parse(rest, name)?)
}

fn cmd_list(flags: &Flags) -> Result<String, CliError> {
    let scale = flags.scale();
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
        let plan = match (flags.get("engine"), flags.get("seed")) {
            (Some("real"), Some(_)) => {
                let why = "--seed has no effect with --engine real: the OS schedules real threads";
                return Err(CliError::Usage(why.into()));
            }
            (Some("real"), None) => ExecPlan::Real,
            _ => ExecPlan::Det(Schedule::random(flags.number("seed", 42))),
        };
        return Ok(CheckTarget {
            spec: spec_for(&wl),
            program: wl.program,
            plan,
            history: None,
        });
    };
    // A history fixes its own program and interleaving; flags that pick
    // one are contradictions, not no-ops. A `Some` value conflicts only
    // when given that value.
    for (name, value, reason) in [
        ("workload", None, "the file is the program"),
        ("seed", None, "the file fixes the interleaving"),
        ("scale", None, "the file fixes the program"),
        ("engine", Some("real"), "the file fixes the interleaving"),
    ] {
        if flags
            .get(name)
            .is_some_and(|given| value.is_none_or(|v| v == given))
        {
            let value = value.map_or(String::new(), |v| format!(" {v}"));
            return Err(CliError::Usage(format!(
                "--{name}{value} conflicts with --history: {reason}"
            )));
        }
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

/// `path` with its parent directory resolved (`.`, `..` and symlinks), so
/// two spellings of one file compare equal; a path whose parent does not
/// exist is made absolute as written.
fn resolved_path(path: &str) -> std::path::PathBuf {
    let path = std::path::Path::new(path);
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
    let parent = parent.unwrap_or(".".as_ref());
    match (std::fs::canonicalize(parent), path.file_name()) {
        (Ok(dir), Some(name)) => dir.join(name),
        _ => std::path::absolute(path).unwrap_or_else(|_| path.to_path_buf()),
    }
}

fn cmd_check(flags: &Flags) -> Result<String, CliError> {
    let checker = flags.get("checker").unwrap_or("single");
    // The one decode of `--checker`. `Ok` is a DoubleChecker configuration
    // and whether first runs restrict it (the second run is single-run
    // limited to what they saw); `Err` is an online checker's variant and
    // whether AeroDrome's clocks are on. The flag beside it says whether a
    // history's expected verdict binds the checker: `first-run` never
    // reports violations and `velodrome-unsound` may legitimately miss them.
    let dc = |config: fn(CoordinationMode) -> DcConfig, first_runs: bool| Ok((config, first_runs));
    let (decoded, verdict_binds) = match checker {
        "single" | "dc" => (dc(DcConfig::single_run, false), true),
        "first-run" => (dc(DcConfig::first_run, false), false),
        "second-run" => (dc(DcConfig::single_run, true), true),
        "pcd-only" => (dc(DcConfig::pcd_only, false), true),
        "velodrome" => (Err((Variant::Sound, false)), true),
        "velodrome-unsound" => (Err((Variant::Unsound, false)), false),
        "aerodrome" => (Err((Variant::Sound, true)), true),
        _ => unreachable!("checked by Flags::parse"),
    };
    let online = decoded.is_err();
    if let Some(flag) = FLAGS
        .iter()
        .find(|f| online && f.dc_only && flags.get(f.name).is_some())
    {
        let name = flag.name;
        let why = format!("--{name} applies only to DoubleChecker checkers, not {checker}");
        return Err(CliError::Usage(why));
    }
    // `--trace-out` needs the trace ring, which only `full` keeps.
    let trace_out = flags.get("trace-out");
    if flags.get("obs") == Some("off") && trace_out.is_some() {
        let why = "--obs off conflicts with --trace-out: the trace is kept only at --obs full";
        return Err(CliError::Usage(why.into()));
    }
    let CheckTarget {
        program,
        spec,
        plan,
        history,
    } = check_target(flags)?;
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
    let failed = |e: DetError| CliError::Failed(e.to_string());
    // Each checker's violations, as cycle and blamed methods, and the counts
    // its summary line ends with.
    let (violations, counts): (Vec<(Vec<_>, Vec<_>)>, String) = match decoded {
        Ok((config, first_runs)) => {
            let level = match (flags.get("obs"), trace_out) {
                (Some("full"), _) | (_, Some(_)) => ObsLevel::Full,
                _ => ObsLevel::Off,
            };
            let mut config = config(plan.coordination())
                .with_barrier_cache(flags.get("barrier-cache") != Some("off"))
                .with_observability(level);
            if first_runs {
                // A history has exactly one meaningful interleaving, so
                // its first run replays the same scripted plan.
                let first_plans: Vec<ExecPlan> = if history.is_some() {
                    vec![plan.clone()]
                } else {
                    (0..4u64)
                        .map(|s| ExecPlan::Det(Schedule::random(s)))
                        .collect()
                };
                let (_, info) = run_first_runs(&program, &spec, &first_plans).map_err(failed)?;
                config.filter = info.to_filter();
            }
            let report = run_doublechecker(&program, &spec, config, &plan).map_err(failed)?;
            if let Some(path) = flags.get("stats-json") {
                let doc = stats_to_json(report.stats, &report.pipeline);
                std::fs::write(path, format!("{doc}\n"))
                    .map_err(|e| CliError::Failed(format!("writing {path:?}: {e}")))?;
            }
            if let Some(path) = trace_out {
                let mut lines = String::new();
                for event in &report.trace {
                    writeln!(lines, "{}", trace_event_to_json(event)).ok();
                }
                std::fs::write(path, lines)
                    .map_err(|e| CliError::Failed(format!("writing {path:?}: {e}")))?;
            }
            let (s, p) = (&report.stats, &report.pipeline);
            if level == ObsLevel::Full {
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
            let counts = format!(
                "; {} regular tx, {} unary tx, {} accesses, {} IDG edges, \
                 {} SCCs ({} to PCD), {} log entries, {} graph locks",
                s.regular_txs,
                s.unary_txs,
                s.regular_accesses + s.unary_accesses,
                s.idg_cross_edges,
                s.icd_sccs,
                s.sccs_to_pcd,
                s.log_entries,
                s.graph_locks,
            );
            let cycles = report.violations.iter().map(|v| {
                let cycle = v.cycle.iter().map(|m| m.kind.method()).collect();
                (cycle, v.blamed_methods())
            });
            (cycles.collect(), counts)
        }
        Err((variant, clocks)) => {
            let config = OnlineConfig {
                variant,
                ..OnlineConfig::default()
            };
            let n = program.threads.len();
            let (violations, counts) = if clocks {
                let a = AeroDrome::new(n, spec, config);
                plan.run(&program, &a).map_err(failed)?;
                let (edges, joins) = (a.cross_edges(), a.clock_joins());
                let propagated = a.propagated_joins();
                let counts =
                    format!(", {edges} cross edges, {joins} clock joins ({propagated} propagated)");
                (a.violations(), counts)
            } else {
                let v = Velodrome::new(n, spec, config);
                plan.run(&program, &v).map_err(failed)?;
                (v.violations(), format!(", {} cross edges", v.cross_edges()))
            };
            let cycles = violations.into_iter().map(|v| {
                let cycle = v.cycle.iter().map(|(_, k)| k.method()).collect();
                (cycle, v.blamed_methods)
            });
            (cycles.collect(), counts)
        }
    };
    let name = |m: Option<MethodId>| m.map_or("<non-transactional>", |m| program.method_name(m));
    for (cycle, blamed) in &violations {
        let cycle: Vec<&str> = cycle.iter().map(|&m| name(m)).collect();
        let blamed: Vec<&str> = blamed.iter().map(|&m| name(Some(m))).collect();
        let (cycle, blamed) = (cycle.join(", "), blamed.join(", "));
        writeln!(out, "violation: cycle through [{cycle}], blamed [{blamed}]").ok();
    }
    writeln!(out, "{checker}: {} violation(s){counts}", violations.len()).ok();
    let found_violation = !violations.is_empty();
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

fn cmd_refine(flags: &Flags) -> Result<String, CliError> {
    let wl = flags.workload()?;
    let window = u32::try_from(flags.number("window", 5)).expect("its row bounds --window");
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
    let seed = flags.number("seed", 42);
    let limit = usize::try_from(flags.number("limit", 40)).expect("its row bounds --limit");
    let trace = TraceChecker::new();
    dc_runtime::engine::det::run_det(&wl.program, &trace, &Schedule::random(seed))
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let events = trace.into_events();
    let spec = spec_for(&wl);
    let report = dc_runtime::oracle::check(&events, &spec, false);
    let mut out = String::new();
    writeln!(
        out,
        "{}: {} events; offline oracle: {} cyclic SCC(s), {} transactions, {} precise edges",
        wl.name,
        events.len(),
        report.sccs.len(),
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
        let f = Flags::parse(&argv("--workload tsp --seed 7"), "trace").unwrap();
        assert_eq!(f.get("workload"), Some("tsp"));
        assert_eq!(f.get("seed"), Some("7"));
        assert_eq!(f.get("missing"), None);
    }

    #[test]
    fn flags_reject_positional_and_dangling() {
        assert!(matches!(
            Flags::parse(&argv("positional"), "list"),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            Flags::parse(&argv("--seed"), "trace"),
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
        for cmd in [
            "check --workload tsp --checker velodrome --checker dc",
            "check --workload tsp --seed 1 --seed 1",
            "trace --workload philo --limit 3 --workload tsp",
        ] {
            let flag = cmd.rsplit(' ').nth(1).unwrap();
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

    /// `dc` alone prints every flag with its values and help.
    #[test]
    fn empty_invocation_prints_usage() {
        let Err(CliError::Usage(text)) = run(&[]) else {
            panic!("`dc` alone must be a usage error")
        };
        assert!(text.starts_with("usage: dc"), "{text}");
        for flag in FLAGS {
            let spec = format!("--{} {}", flag.name, flag.value.shown());
            assert!(text.contains(&spec) && text.contains(flag.help), "{spec}");
        }
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
        // `counters` is not a level: `off` reports the counts.
        let err = run(&argv("check --workload tsp --obs counters")).unwrap_err();
        assert_eq!(
            err,
            CliError::Usage(r#"--obs must be off|full, got "counters""#.into())
        );
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
        let (workload_out, workload_doc) = check_with_stats("workload.json", "--workload tsp");
        // --stats-json alone leaves the level off: no `obs:` line.
        assert!(!workload_out.contains("obs:"), "{workload_out}");
        let (_, full_doc) = check_with_stats("full.json", "--workload tsp --obs full");
        let (history_out, history_doc) =
            check_with_stats("history.json", &format!("--history {history}"));
        assert!(
            history_out.contains("expected verdict: violation — matched"),
            "{history_out}"
        );
        for (what, doc, level) in [
            ("workload", &workload_doc, "off"),
            ("full", &full_doc, "full"),
            ("history", &history_doc, "off"),
        ] {
            let mut leaves = Vec::new();
            leaf_paths("", doc, &mut leaves);
            let paths: Vec<&str> = leaves.iter().map(|(p, _)| p.as_str()).collect();
            assert_eq!(paths, golden, "{what}: key paths drifted from the golden");
            for (path, value) in &leaves {
                match path.as_str() {
                    "pipeline.level" => assert_eq!(value.as_str(), Some(level), "{what}"),
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

    /// Every count schema 4 keeps, leaf by leaf, against the document the
    /// schema-2 CLI wrote for the same det run (`check --workload tsp
    /// --seed 42 --obs counters --stats-json`), when `dc-obs` still kept
    /// its own copy of the counts: a count read from the wrong statistic
    /// fails here by value, not just by key. Run at `off`, which now
    /// reports the same counts.
    #[test]
    fn stats_json_counts_match_the_schema_2_fixture() {
        let fixture =
            serde_json::from_str(include_str!("../fixtures/tsp_seed42_counters.schema2.json"))
                .unwrap();
        let mut expected = Vec::new();
        leaf_paths("", &fixture, &mut expected);
        let (_, doc) = check_with_stats("fixture.json", "--workload tsp --seed 42");
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
        // One file for both documents would keep only the trace: refused
        // before the run, so nothing is written — however it is spelled.
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        let dotted = dir.join("sub").join("..").join("trace.jsonl");
        for other in [path_str, dotted.to_str().unwrap()] {
            let err = run(&argv(&format!(
                "check --workload tsp --seed 3 --stats-json {path_str} --trace-out {other}"
            )))
            .unwrap_err();
            assert!(
                matches!(&err, CliError::Usage(m) if m.contains("--stats-json") && m.contains("--trace-out")),
                "{other}: {err:?}"
            );
            assert!(!path.exists(), "{other}: the run did not start");
        }
        // `--obs off` would drop the trace: refused before the target is
        // read (the missing history is never reached), so nothing is
        // written. `--obs full` is what `--trace-out` implies.
        for target in ["--workload tsp --seed 5", "--history /nonexistent/h.json"] {
            let cmd = format!("check {target} --obs off --trace-out {path_str}");
            let err = run(&argv(&cmd)).unwrap_err();
            let expected =
                "--obs off conflicts with --trace-out: the trace is kept only at --obs full";
            assert_eq!(err, CliError::Usage(expected.into()), "{cmd}");
            assert!(!path.exists(), "{cmd}: the run did not start");
        }
        let cmd = format!("check --workload tsp --seed 3 --obs full --trace-out {path_str}");
        assert!(run(&argv(&cmd)).unwrap().contains("obs: level full"));
        assert!(!std::fs::read_to_string(&path).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unwritable_output_paths_are_usage_errors_before_any_work() {
        let dir = std::env::temp_dir().join("dc-cli-test-outputs");
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        let link = dir.join("link");
        if std::fs::symlink_metadata(&link).is_err() {
            std::os::unix::fs::symlink(dir.join("sub"), &link).unwrap();
        }
        let spellings = [
            (dir.clone(), "a directory"),
            (dir.join("sub").join(".."), "a directory"),
            (link, "a directory"),
            (
                dir.join("missing").join("out.json"),
                "an existing directory",
            ),
        ];
        for flag in ["stats-json", "trace-out"] {
            for (path, why) in &spellings {
                let path = path.to_str().unwrap();
                let err = run(&argv(&format!("check --workload tsp --{flag} {path}"))).unwrap_err();
                assert!(
                    matches!(&err, CliError::Usage(m) if m.contains(&format!("--{flag}")) && m.contains(why)),
                    "--{flag} {path}: {err:?}"
                );
            }
        }
        // A bare file name lands in the working directory, which exists.
        assert!(Flags::parse(&argv("--stats-json out.json"), "check").is_ok());
    }

    #[test]
    fn doublechecker_only_flags_are_rejected_for_the_online_checkers() {
        let dc_only: Vec<_> = FLAGS.iter().filter(|f| f.dc_only).collect();
        assert_eq!(
            dc_only.len(),
            4,
            "barrier-cache, obs, stats-json, trace-out"
        );
        for checker in ["velodrome", "velodrome-unsound", "aerodrome"] {
            for flag in &dc_only {
                // A path, or the last choice (`off` / `full`).
                let value = flag.value.shown().rsplit('|').next().unwrap();
                // Refused before the target is read, like any usage error.
                for target in ["--workload tsp", "--history /nonexistent/h.json"] {
                    let cmd = format!("check {target} --checker {checker} --{} {value}", flag.name);
                    let err = run(&argv(&cmd)).unwrap_err();
                    let expected = format!(
                        "--{} applies only to DoubleChecker checkers, not {checker}",
                        flag.name
                    );
                    assert_eq!(err, CliError::Usage(expected), "{cmd}");
                }
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
        let expected = r#"--workload must be a workload `dc list` shows, got "nope""#;
        assert_eq!(err, CliError::Usage(expected.into()));
    }

    #[test]
    fn trace_prints_prefix_and_oracle_verdict() {
        let out = run(&argv("trace --workload philo --seed 1 --limit 5")).unwrap();
        assert!(out.contains(" cyclic SCC(s), ") && !out.contains("violation"));
        assert!(out.contains("more (raise --limit)"));
    }

    #[test]
    fn trace_limit_overflow_is_a_usage_error_not_silent_truncation() {
        // 5e9 exceeds u32: the old `as usize` cast silently truncated it.
        // --window 0 would run zero trials and report the initial
        // specification as the refined one.
        for cmd in [
            "trace --workload philo --seed 1 --limit 5000000000",
            "trace --workload philo --limit nope",
            "refine --workload elevator --window 0",
            "refine --workload elevator --window 5000000000",
        ] {
            let flag = cmd.rsplit(' ').nth(1).unwrap();
            let err = run(&argv(cmd)).unwrap_err();
            assert!(
                matches!(err, CliError::Usage(ref m) if m.starts_with(&format!("{flag} must be"))),
                "{cmd}: {err:?}"
            );
        }
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

    /// A bad choice is rejected before the target is loaded: the missing
    /// history file is never reached.
    #[test]
    fn bad_choice_values_are_usage_errors_before_any_work() {
        for (flag, choices) in [
            ("checker", CHECKERS),
            ("scale", "tiny|small|full"),
            ("engine", "det|real"),
            ("obs", "off|full"),
            ("barrier-cache", "on|off"),
        ] {
            for target in ["--workload tsp", "--history /nonexistent/h.json"] {
                let err = run(&argv(&format!("check {target} --{flag} bogus"))).unwrap_err();
                let expected = format!(r#"--{flag} must be {choices}, got "bogus""#);
                assert_eq!(err, CliError::Usage(expected), "{target}");
            }
        }
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
        for checker in CHECKERS.split('|') {
            let out = run(&argv(&format!(
                "check --history {path} --checker {checker}"
            )))
            .unwrap_or_else(|e| panic!("{checker}: {e:?}"));
            // first-run reports no violations by design and velodrome-unsound
            // may miss them: the expected verdict binds neither.
            let binds = !matches!(checker, "first-run" | "velodrome-unsound");
            let matched = out.contains("expected verdict: violation — matched");
            assert_eq!(matched, binds, "{checker}:\n{out}");
        }
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
        let over = |limit: usize| format!("exceeds the limit of {limit}");
        let per_tx = MAX_EVENTS_PER_TX;
        for (name, text, detail) in [
            (
                "over-bytes.json",
                " ".repeat(MAX_INPUT_BYTES + 1),
                over(MAX_INPUT_BYTES),
            ),
            (
                "over-txs.json",
                doc(MAX_TXS_PER_SESSION + 1, 1, false),
                over(MAX_TXS_PER_SESSION),
            ),
            ("over-events.json", doc(1, per_tx + 1, false), over(per_tx)),
            (
                "over-keys.json",
                doc(MAX_KEYS / per_tx + 1, per_tx, true),
                over(MAX_KEYS),
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

    /// Well-formed JSON that is not a valid history: an unknown schema
    /// version, a duplicate transaction id, a read of a value no one wrote.
    #[test]
    fn check_history_invalid_content_is_a_usage_error() {
        let text = lost_update_history();
        for (name, from, to, detail) in [
            (
                "version99.json",
                "\"version\": 1",
                "\"version\": 99",
                "unknown schema version 99",
            ),
            (
                "dup-id.json",
                "\"id\": 2",
                "\"id\": 1",
                "duplicate transaction id 1",
            ),
            (
                "never-written.json",
                r#"{"op": "r", "key": "x", "value": 0},
                                   {"op": "w", "key": "x", "value": 2}"#,
                r#"{"op": "r", "key": "ghost", "value": 9}"#,
                "never-written value 9",
            ),
        ] {
            let path = history_file(name, &text.replace(from, to));
            let err = run(&argv(&format!("check --history {path}"))).unwrap_err();
            assert!(
                matches!(err, CliError::Usage(ref m) if m.contains(detail)),
                "{name}: {err:?}"
            );
        }
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
        for (extra, named) in [
            ("--workload tsp", "--workload"),
            ("--seed 3", "--seed"),
            ("--engine real", "--engine real"),
            ("--scale small", "--scale"),
        ] {
            let err = run(&argv(&format!("check --history {path} {extra}"))).unwrap_err();
            let expected = format!("{named} conflicts with --history: ");
            assert!(
                matches!(err, CliError::Usage(ref m) if m.starts_with(&expected)),
                "{extra}: {err:?}"
            );
        }
        // --engine det is redundant but not contradictory.
        assert!(run(&argv(&format!("check --history {path} --engine det"))).is_ok());
    }
}
