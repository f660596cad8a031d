//! What one benchmark operation is: one checker execution, and its verdict
//! gate.
//!
//! A [`Subject`] is a workload ready to execute: a program with its
//! specification and first-run information, or a batch of history documents.
//! [`Subject::execute`] runs it once under one [`Config`], times the whole
//! checker execution (construction, run, reading the verdict — what a user
//! of `dc check` waits for) and checks the outputs. A violated check is a
//! *failed run*: it is reported with its reason and never masked.

use crate::alloc;
use crate::octet_only::OctetOnly;
use crate::spans::{SpanRecorder, Spanned};
use crate::workloads::{self, HistoryDoc, RealWorkload};
use dc_aerodrome::{AeroConfig, AeroDrome};
use dc_core::{initial_spec, DcConfig, DoubleChecker, ObsLevel, OpTransport, StaticTxInfo};
use dc_histories::{lower, History};
use dc_octet::CoordinationMode;
use dc_runtime::checker::{Checker, NopChecker};
use dc_runtime::engine::det::{run_det, Schedule};
use dc_runtime::engine::real::run_real;
use dc_runtime::ids::MethodId;
use dc_runtime::program::Program;
use dc_runtime::spec::AtomicitySpec;
use dc_velodrome::{Velodrome, VelodromeConfig};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A measured configuration: the end-to-end ones, the rungs of the ablation
/// ladder, and the optional modes on trial.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Config {
    /// `NopChecker`: the uninstrumented run, the base of every ratio.
    Nop,
    /// Octet barriers only ([`OctetOnly`]).
    OctetOnly,
    /// First run without SCC detection (`detect_cycles: false`).
    FirstNoScc,
    /// `DcConfig::first_run`.
    FirstRun,
    /// Single run without PCD (`run_pcd: false`): first run plus logging.
    SingleNoPcd,
    /// Sync `DcConfig::single_run`: Figure 7's headline.
    SingleRun,
    /// `DcConfig::second_run(info)`.
    SecondRun,
    /// `VelodromeConfig::default()`.
    Velodrome,
    /// `AeroConfig::default()`.
    Aerodrome,
    /// Single run with `with_barrier_cache(false)`.
    CacheOff,
    /// Single run with `with_pipelined(true)`.
    Pipelined,
    /// Single run at `ObsLevel::Counters`.
    ObsCounters,
    /// Single run at `ObsLevel::Full`.
    ObsFull,
}

impl Config {
    /// Stable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Config::Nop => "nop",
            Config::OctetOnly => "octet-only",
            Config::FirstNoScc => "first-run-no-scc",
            Config::FirstRun => "first-run",
            Config::SingleNoPcd => "single-run-no-pcd",
            Config::SingleRun => "single-run",
            Config::SecondRun => "second-run",
            Config::Velodrome => "velodrome",
            Config::Aerodrome => "aerodrome",
            Config::CacheOff => "single-run-cache-off",
            Config::Pipelined => "single-run-pipelined",
            Config::ObsCounters => "single-run-obs-counters",
            Config::ObsFull => "single-run-obs-full",
        }
    }

    /// True if the configuration runs a complete sound and precise check, so
    /// a history's expected verdict binds it.
    fn gives_verdict(self) -> bool {
        !matches!(
            self,
            Config::Nop
                | Config::OctetOnly
                | Config::FirstNoScc
                | Config::FirstRun
                | Config::SingleNoPcd
        )
    }

    /// The DoubleChecker configuration, every knob explicit so that no
    /// `DC_*` environment variable can leak in.
    ///
    /// # Panics
    ///
    /// Panics for the four checkers that are not DoubleChecker.
    fn dc(self, mode: CoordinationMode, info: &StaticTxInfo) -> DcConfig {
        let single = DcConfig::single_run(mode);
        let config = match self {
            Config::FirstNoScc => DcConfig {
                detect_cycles: false,
                ..DcConfig::first_run(mode)
            },
            Config::FirstRun => DcConfig::first_run(mode),
            Config::SingleNoPcd => DcConfig {
                run_pcd: false,
                ..single
            },
            Config::SecondRun => DcConfig::second_run(info, mode),
            Config::SingleRun
            | Config::CacheOff
            | Config::Pipelined
            | Config::ObsCounters
            | Config::ObsFull => single,
            Config::Nop | Config::OctetOnly | Config::Velodrome | Config::Aerodrome => {
                unreachable!("{} is not a DoubleChecker configuration", self.name())
            }
        };
        config
            .with_observability(match self {
                Config::ObsCounters => ObsLevel::Counters,
                Config::ObsFull => ObsLevel::Full,
                _ => ObsLevel::Off,
            })
            .with_pipelined(self == Config::Pipelined)
            .with_barrier_cache(self != Config::CacheOff)
            .with_op_transport(OpTransport::Ring)
            .with_shards(1)
    }
}

/// Counts read from a finished checker through its public statistics, keyed
/// by the per-layer metric they feed (`icd.cross_edges`, …) or by a plain
/// name (`accesses`, `txs`, `instrumented`). They add across the histories
/// of a batch.
pub type Counts = BTreeMap<&'static str, u64>;

/// `counts[key]`, 0 when the checker does not report it.
pub fn count(counts: &Counts, key: &str) -> u64 {
    counts.get(key).copied().unwrap_or(0)
}

/// One reported violation, reduced to what the gates compare.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Blame {
    /// Static identity: the sorted member methods.
    pub key: Vec<Option<MethodId>>,
    /// The blamed methods (empty for an all-unary cycle).
    pub methods: Vec<MethodId>,
}

/// What one checker execution over one program produced.
#[derive(Clone, Debug, Default)]
pub struct Checked {
    /// Counts read from the checker.
    pub counts: Counts,
    /// Violations, sorted.
    pub violations: Vec<Blame>,
    /// The static transaction information (DoubleChecker only).
    pub info: StaticTxInfo,
    /// The pipeline reported a structural op-stream error.
    pub pipeline_error: bool,
}

/// How a program is executed.
#[derive(Clone, Debug)]
pub enum Engine {
    /// Real OS threads: the timed runs.
    Real,
    /// The deterministic engine: set-up verification, the repeatable counts,
    /// and every history.
    Det(Schedule),
}

impl Engine {
    fn coordination(&self) -> CoordinationMode {
        match self {
            Engine::Real => CoordinationMode::Threaded,
            Engine::Det(_) => CoordinationMode::Immediate,
        }
    }
}

/// Where a traced execution hangs its spans.
pub type Trace<'a> = Option<(&'a SpanRecorder, u64)>;

/// Runs `f`, inside a span `name` when traced.
pub fn scoped<R>(trace: Trace, name: &'static str, f: impl FnOnce() -> R) -> R {
    match trace {
        Some((recorder, parent)) => recorder.scope(name, parent, |_| f()),
        None => f(),
    }
}

/// Runs `f` and returns its result with the nanoseconds it took.
fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = Instant::now();
    let result = f();
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (result, ns)
}

/// Runs `program` under `checker`, inside a `runtime.run_*` span with a
/// [`Spanned`] wrapper when traced. Returns `total_accesses`.
fn drive<C: Checker>(
    program: &Program,
    checker: &C,
    engine: &Engine,
    trace: Trace,
) -> Result<u64, String> {
    fn go<C: Checker>(program: &Program, checker: &C, engine: &Engine) -> Result<u64, String> {
        match engine {
            Engine::Real => Ok(run_real(program, checker).total_accesses()),
            Engine::Det(schedule) => run_det(program, checker, schedule)
                .map(|stats| stats.total_accesses())
                .map_err(|e| format!("deterministic engine: {e:?}")),
        }
    }
    let Some((recorder, parent)) = trace else {
        return go(program, checker, engine);
    };
    let name = match engine {
        Engine::Real => "runtime.run_real",
        Engine::Det(_) => "runtime.run_det",
    };
    recorder.scope(name, parent, |id| {
        let spanned = Spanned::new(checker, recorder, id, program.threads.len());
        go(program, &spanned, engine)
    })
}

/// Builds the checker `config` names, runs `program` under it and reads its
/// verdict and statistics.
pub fn check(
    program: &Program,
    spec: &AtomicitySpec,
    info: &StaticTxInfo,
    config: Config,
    engine: &Engine,
    trace: Trace,
) -> Result<Checked, String> {
    let n = program.threads.len();
    let mut out = Checked::default();
    let counts = &mut out.counts;
    let octet = |conflicts, upgrades, fences, cache_hits| {
        [
            ("octet.conflicts", conflicts),
            ("octet.upgrades", upgrades),
            ("octet.fences", fences),
            ("octet.cache_hits", cache_hits),
        ]
    };
    let baseline = |violations: Vec<dc_velodrome::VViolation>| -> Vec<Blame> {
        violations
            .iter()
            .map(|v| Blame {
                key: v.static_key(),
                methods: v.blamed_methods.clone(),
            })
            .collect()
    };
    let accesses = match config {
        Config::Nop => drive(program, &NopChecker, engine, trace)?,
        Config::OctetOnly => {
            let checker = OctetOnly::new(n, engine.coordination());
            let accesses = drive(program, &checker, engine, trace)?;
            let s = checker.stats();
            let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
            counts.extend(octet(
                load(&s.conflicts),
                load(&s.upgrades),
                load(&s.fences),
                load(&s.cache_hits),
            ));
            accesses
        }
        Config::Velodrome => {
            let checker = Velodrome::new(n, spec.clone(), VelodromeConfig::default());
            let accesses = drive(program, &checker, engine, trace)?;
            counts.insert("velodrome.cross_edges", checker.cross_edges());
            out.violations = baseline(checker.violations());
            accesses
        }
        Config::Aerodrome => {
            let checker = AeroDrome::new(n, spec.clone(), AeroConfig::default());
            let accesses = drive(program, &checker, engine, trace)?;
            counts.extend([
                ("aerodrome.clock_joins", checker.clock_joins()),
                ("aerodrome.propagated_joins", checker.propagated_joins()),
            ]);
            out.violations = baseline(checker.violations());
            accesses
        }
        _ => {
            let dc_config = config.dc(engine.coordination(), info);
            let checker = DoubleChecker::new(n, spec.clone(), dc_config);
            let accesses = drive(program, &checker, engine, trace)?;
            let s = checker.stats();
            counts.extend([
                ("txs", s.regular_txs + s.unary_txs),
                ("instrumented", s.regular_accesses + s.unary_accesses),
                ("icd.log_entries", s.log_entries),
                ("icd.cross_edges", s.idg_cross_edges),
                ("icd.sccs", s.icd_sccs),
                ("icd.sccs_to_pcd", s.sccs_to_pcd),
                ("icd.collected_txs", s.collected_txs),
                ("icd.graph_locks", s.graph_locks),
                ("pcd.replayed_entries", s.pcd.entries),
                ("pcd.precise_cycles", s.pcd.cycles),
            ]);
            if let Some(report) = checker.pipeline_report() {
                let o = report.octet;
                counts.extend(octet(o.conflicts, o.upgrades, o.fences, o.cache_hits));
            }
            out.violations = checker
                .violations()
                .iter()
                .map(|v| Blame {
                    key: v.static_key(),
                    // `Violation::blamed_methods` falls back to every regular
                    // member when blame lands on unary transactions only, so
                    // this is empty exactly for all-unary cycles.
                    methods: v.blamed_methods(),
                })
                .collect();
            out.info = checker.static_info();
            out.pipeline_error = checker.pipeline_error().is_some();
            accesses
        }
    };
    counts.insert("accesses", accesses);
    out.violations.sort();
    let unblamed = out.violations.iter().filter(|v| v.methods.is_empty());
    counts.insert("core.unblamed_cycles", unblamed.count() as u64);
    Ok(out)
}

/// A workload ready to execute.
#[derive(Clone, Debug)]
pub enum Subject {
    /// A generated program.
    Program {
        /// The program under test.
        program: Program,
        /// The specification of the timed runs: `initial_spec` less the
        /// generator's seeded racy methods.
        spec: AtomicitySpec,
        /// The lock-protected methods (see [`RealWorkload::locked`]).
        locked: Vec<MethodId>,
        /// First-run information for `second-run`.
        info: StaticTxInfo,
        /// The program's computed dynamic access count.
        accesses: u64,
        /// Real threads (timed runs) or the deterministic engine (counts).
        engine: Engine,
    },
    /// A batch of history documents, each parsed, lowered and checked.
    Histories {
        /// The documents.
        docs: Vec<HistoryDoc>,
        /// Per-document first-run information for `second-run`.
        infos: Vec<StaticTxInfo>,
    },
}

/// Time one batch spends in each stage of the history path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistorySplit {
    /// `History::parse`.
    pub parse_ns: u64,
    /// `lower`.
    pub lower_ns: u64,
    /// Checker construction, `run_det` and reading the verdict.
    pub check_ns: u64,
    /// JSON bytes parsed.
    pub bytes: u64,
    /// Transactions lowered and checked.
    pub txs: u64,
}

/// One benchmark operation: one checker execution and its gate.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The configuration executed.
    pub config: Config,
    /// Wall time of the whole execution, ns.
    pub wall_ns: u64,
    /// How far the heap rose above its level at the start, bytes.
    pub peak_heap: usize,
    /// Counts read from the checker(s).
    pub counts: Counts,
    /// Stage split (history batches only).
    pub split: HistorySplit,
    /// Why the gate failed this run; empty when it passed.
    pub failures: Vec<String>,
    /// Violations that blame lock-protected methods only: the known false
    /// cycle (README, *Known finding*), reported as `core.false_cycles` and
    /// printed where it happened. A lock-protected method is serializable
    /// by construction and the deterministic engine agrees; on real threads
    /// Octet releases a requester before ICD reads its log position, so PCD
    /// can replay a critical section interleaved with what it is ordered
    /// after. The benchmark must choose workloads on which no operation
    /// fails and may not change the checker, so this one verdict is tallied
    /// apart from `failed`; a violation that blames any other method fails
    /// the run.
    pub false_cycles: Vec<String>,
}

impl Outcome {
    /// Sorts the violations of one execution. The seeded racy methods are
    /// excluded from the specification, so they root no transaction: a
    /// violation that blames a method blames one it must not, and fails the
    /// run — unless every blamed method is lock-protected, which is the
    /// known false cycle. All-unary cycles blame none and are counted by
    /// [`check`], not failed.
    fn gate_violations(&mut self, program: &Program, locked: &[MethodId], violations: &[Blame]) {
        for v in violations.iter().filter(|v| !v.methods.is_empty()) {
            let names: Vec<&str> = v.methods.iter().map(|m| program.method_name(*m)).collect();
            if v.methods.iter().all(|m| locked.contains(m)) {
                let members: Vec<&str> = v
                    .key
                    .iter()
                    .map(|m| m.map_or("unary", |m| program.method_name(m)))
                    .collect();
                self.false_cycles
                    .push(format!("{members:?} blaming {names:?}"));
            } else {
                self.failures.push(format!("violation blames {names:?}"));
            }
        }
    }
}

impl Subject {
    /// Checker executions `execute` counts per call's verdict: 1 for a
    /// program, the number of documents for a batch.
    pub fn units(&self) -> u64 {
        match self {
            Subject::Program { .. } => 1,
            Subject::Histories { docs, .. } => docs.len() as u64,
        }
    }

    /// Threads that run at once (the deterministic engine is sequential).
    pub fn parallelism(&self) -> u64 {
        match self {
            Subject::Program {
                program,
                engine: Engine::Real,
                ..
            } => program.threads.len() as u64,
            _ => 1,
        }
    }

    /// Executes the subject once under `config` and checks its outputs.
    pub fn execute(&self, config: Config, trace: Trace) -> Outcome {
        let mut outcome = Outcome {
            config,
            wall_ns: 0,
            peak_heap: 0,
            counts: Counts::default(),
            split: HistorySplit::default(),
            failures: Vec::new(),
            false_cycles: Vec::new(),
        };
        let level = alloc::reset_peak();
        match self {
            Subject::Program {
                program,
                spec,
                locked,
                info,
                accesses,
                engine,
            } => {
                let (checked, ns) = timed(|| check(program, spec, info, config, engine, trace));
                outcome.wall_ns = ns;
                match checked {
                    Err(e) => outcome.failures.push(e),
                    Ok(checked) => {
                        let executed = count(&checked.counts, "accesses");
                        if executed != *accesses {
                            outcome.failures.push(format!(
                                "executed {executed} accesses, the program has {accesses}"
                            ));
                        }
                        outcome.counts = checked.counts;
                        if checked.pipeline_error {
                            outcome.failures.push("pipeline error".into());
                        }
                        outcome.gate_violations(program, locked, &checked.violations);
                    }
                }
            }
            Subject::Histories { docs, infos } => {
                for (doc, info) in docs.iter().zip(infos) {
                    if let Err(e) = Self::execute_doc(doc, info, config, trace, &mut outcome) {
                        outcome.failures.push(e);
                    }
                }
                let s = outcome.split;
                outcome.wall_ns = s.parse_ns + s.lower_ns + s.check_ns;
            }
        }
        outcome.peak_heap = alloc::peak().saturating_sub(level);
        outcome
    }

    /// One history: parse, lower, check, compare the verdict. Only the three
    /// stages are timed; dropping the checker is not (a process that checks
    /// one history exits instead).
    fn execute_doc(
        doc: &HistoryDoc,
        info: &StaticTxInfo,
        config: Config,
        trace: Trace,
        outcome: &mut Outcome,
    ) -> Result<(), String> {
        let split = &mut outcome.split;
        let (history, ns) =
            timed(|| scoped(trace, "histories.parse", || History::parse(&doc.json)));
        split.parse_ns += ns;
        let history = history.map_err(|e| format!("parse: {e}"))?;
        let (lowered, ns) = timed(|| scoped(trace, "histories.lower", || lower(&history)));
        split.lower_ns += ns;
        let lowered = lowered.map_err(|e| format!("lower: {e}"))?;
        let engine = Engine::Det(lowered.schedule.clone());
        let (checked, ns) = timed(|| {
            check(
                &lowered.program,
                &lowered.spec,
                info,
                config,
                &engine,
                trace,
            )
        });
        split.check_ns += ns;
        split.bytes += doc.json.len() as u64;
        split.txs += doc.txs as u64;
        let checked = checked?;
        for (key, n) in &checked.counts {
            *outcome.counts.entry(key).or_insert(0) += n;
        }
        if checked.pipeline_error {
            return Err("pipeline error".into());
        }
        let found = !checked.violations.is_empty();
        if config.gives_verdict() && found != doc.expect_violation {
            return Err(format!(
                "history expects violation={} but the checker found {}",
                doc.expect_violation,
                checked.violations.len()
            ));
        }
        Ok(())
    }
}

/// Seeds of the deterministic schedules set-up tries, in order.
fn schedules(seed: u64) -> impl Iterator<Item = Schedule> {
    (0..8).map(move |k| Schedule::random(seed.wrapping_add(k)))
}

/// The set-up gate on a small instance under the deterministic engine:
///
/// * Velodrome and AeroDrome report the same violation static keys and
///   DoubleChecker agrees on existence, under both specifications;
/// * under the strict specification some schedule finds a seeded racy
///   method, and nothing but those is ever blamed;
/// * under the constructed specification nothing is found.
pub fn verify_spec(small: &RealWorkload, seed: u64) -> Result<(), String> {
    let program = &small.program;
    let none = StaticTxInfo::default();
    let strict = initial_spec(program, &[]);
    let constructed = initial_spec(program, &small.racy);
    let mut found_racy = false;
    for schedule in schedules(seed) {
        let engine = Engine::Det(schedule);
        for (spec, is_strict) in [(&strict, true), (&constructed, false)] {
            let run = |config| check(program, spec, &none, config, &engine, None);
            let (v, a, d) = (
                run(Config::Velodrome)?,
                run(Config::Aerodrome)?,
                run(Config::SingleRun)?,
            );
            let keys = |c: &Checked| {
                c.violations
                    .iter()
                    .map(|b| b.key.clone())
                    .collect::<Vec<_>>()
            };
            if keys(&v) != keys(&a) {
                return Err(format!(
                    "Velodrome and AeroDrome disagree: {:?} vs {:?}",
                    keys(&v),
                    keys(&a)
                ));
            }
            if v.violations.is_empty() != d.violations.is_empty() {
                return Err(format!(
                    "DoubleChecker found {} violations, Velodrome {}",
                    d.violations.len(),
                    v.violations.len()
                ));
            }
            let blamed = || {
                v.violations
                    .iter()
                    .chain(&d.violations)
                    .flat_map(|b| &b.methods)
            };
            if is_strict {
                if let Some(m) = blamed().find(|m| !small.racy.contains(m)) {
                    return Err(format!(
                        "strict specification blames {}",
                        program.method_name(*m)
                    ));
                }
                found_racy |= blamed().next().is_some();
            } else if !v.violations.is_empty() {
                return Err(format!(
                    "constructed specification is not clean: {:?}",
                    v.violations
                ));
            }
        }
        if found_racy {
            break;
        }
    }
    if found_racy {
        Ok(())
    } else {
        Err("no schedule found a seeded racy method under the strict specification".into())
    }
}

/// First-run information for `second-run`: the union of four deterministic
/// first runs under the constructed specification. Which methods a short
/// first run implicates depends on where its few conflicts happen to land,
/// so it is taken from the small instance of seed 0 whatever `--seed` is
/// (the `MethodId`s are the same): every seed's second run then instruments
/// the same transactions and does the same work.
pub fn first_run_info(workload: &str, small: u32) -> Result<StaticTxInfo, String> {
    let instance = workloads::real(workload, 0, small)
        .ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let spec = initial_spec(&instance.program, &instance.racy);
    let mut info = StaticTxInfo::default();
    for schedule in schedules(0).take(4) {
        let first = check(
            &instance.program,
            &spec,
            &StaticTxInfo::default(),
            Config::FirstRun,
            &Engine::Det(schedule),
            None,
        )?;
        info.union(&first.info);
    }
    Ok(info)
}

/// Sizes of a run: a function argument, so tests drive the same code on the
/// small instances.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sizes {
    /// Iterations (histories) of the timed instance.
    pub full: u32,
    /// Iterations (histories) of the instance set-up verifies and the
    /// repeatable counts run on.
    pub small: u32,
    /// Iterations (histories) of the instance the per-layer rotation times.
    pub layers: u32,
}

impl Sizes {
    /// The benchmark's sizes for `workload`.
    pub fn benchmark(workload: &str) -> Sizes {
        Sizes {
            full: workloads::full_size(workload),
            small: workloads::small_size(workload),
            layers: workloads::full_size(workload) / 2,
        }
    }
}

/// A workload after set-up.
#[derive(Clone, Debug)]
pub struct Prepared {
    /// The timed instance.
    pub full: Subject,
    /// The small instance under the deterministic engine.
    pub small: Subject,
}

/// Set-up: generation, specification verification, first-run information,
/// history JSON. Everything `setup_s` times.
pub fn setup(workload: &str, seed: u64, sizes: Sizes, trace: Trace) -> Result<Prepared, String> {
    if workload == "history_batch" {
        let docs = scoped(trace, "workloads.generate", || {
            workloads::history_batch(seed, sizes.full)
        });
        let infos: Vec<StaticTxInfo> = scoped(trace, "core.spec_verify", || {
            docs.iter().map(history_first_run).collect::<Result<_, _>>()
        })?;
        let small = (sizes.small as usize).min(docs.len());
        return Ok(Prepared {
            small: Subject::Histories {
                docs: docs[..small].to_vec(),
                infos: infos[..small].to_vec(),
            },
            full: Subject::Histories { docs, infos },
        });
    }
    let (full, small) = scoped(trace, "workloads.generate", || {
        workloads::real(workload, seed, sizes.full).zip(workloads::real(
            workload,
            seed,
            sizes.small,
        ))
    })
    .ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let info = scoped(trace, "core.spec_verify", || {
        verify_spec(&small, seed)?;
        first_run_info(workload, sizes.small)
    })?;
    let subject = |wl: RealWorkload, engine: Engine| Subject::Program {
        spec: initial_spec(&wl.program, &wl.racy),
        locked: wl.locked,
        info: info.clone(),
        accesses: workloads::dynamic_accesses(&wl.program),
        engine,
        program: wl.program,
    };
    Ok(Prepared {
        full: subject(full, Engine::Real),
        small: subject(small, Engine::Det(Schedule::random(seed))),
    })
}

/// The first run of one history under its own scripted schedule, as `dc
/// check --history --checker second-run` derives it.
fn history_first_run(doc: &HistoryDoc) -> Result<StaticTxInfo, String> {
    let (_, lowered) = dc_histories::import(&doc.json).map_err(|e| format!("import: {e}"))?;
    check(
        &lowered.program,
        &lowered.spec,
        &StaticTxInfo::default(),
        Config::FirstRun,
        &Engine::Det(lowered.schedule.clone()),
        None,
    )
    .map(|checked| checked.info)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_cycle_blamed_on_lock_protected_methods_is_the_known_false_one() {
        let wl = workloads::local_churn(11, 8);
        let other = (0..wl.program.methods.len())
            .map(MethodId::from_index)
            .find(|m| !wl.locked.contains(m) && !wl.racy.contains(m))
            .unwrap();
        let blame = |methods: &[MethodId]| Blame {
            key: methods.iter().copied().map(Some).chain([None]).collect(),
            methods: methods.to_vec(),
        };
        let mut outcome = Outcome {
            config: Config::SingleRun,
            wall_ns: 0,
            peak_heap: 0,
            counts: Counts::default(),
            split: HistorySplit::default(),
            failures: Vec::new(),
            false_cycles: Vec::new(),
        };
        let violations = [
            blame(&[]),
            blame(&wl.locked),
            blame(&wl.locked[..1]),
            blame(&[wl.locked[0], other]),
            blame(&[other]),
        ];
        outcome.gate_violations(&wl.program, &wl.locked, &violations);
        assert_eq!(outcome.false_cycles.len(), 2, "{:?}", outcome.false_cycles);
        assert_eq!(outcome.failures.len(), 2, "{:?}", outcome.failures);
        assert!(outcome.false_cycles[0].contains("lc.locked0"));
        assert!(outcome.false_cycles[0].contains("unary"));
    }
}
