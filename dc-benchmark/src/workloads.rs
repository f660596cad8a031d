//! The four benchmark workloads.
//!
//! Each real-thread workload is a [`Program`] with exactly two running
//! program threads (the host has two cores), composed from the public
//! `dc_workloads::builder` sharing shapes. Work volume is a function of
//! `iters` only; `seed` picks which shared objects and fields the shared and
//! racy methods touch, so ten seeds give ten inputs of the same size.
//! Objects are declared in a fixed order: object ids map onto the 64-way
//! ownership cache by `id % 64`, and a seed-dependent layout would turn
//! cache aliasing into run-to-run noise.
//!
//! Why each exists (also in `BENCHMARK.json` and the README):
//!
//! * `local_churn` — working set inside the ownership cache, almost no
//!   sharing: Octet's fast path, ICD's per-access tracking and the log
//!   append do all the checker's work; graph, SCC and PCD do none.
//! * `conflict_pingpong` — tiny serializable transactions that conflict at
//!   object granularity every time: coordination, IDG edges, SCC detection,
//!   the collector and PCD replay carry a large share here and nowhere else.
//! * `read_shared_stream` — read-shared tables (RdSh, fences) beside write
//!   streams over a working set *beyond* the cache: the barrier and log
//!   layers used differently from `local_churn`.
//! * `history_batch` — hundreds of short imported histories through the
//!   parser, the lowering and the deterministic engine: per-run fixed cost
//!   instead of per-access cost.

use dc_histories::{generate, AnomalyMode, GenHistoryParams};
use dc_runtime::ids::{CellId, MethodId, ObjId};
use dc_runtime::program::{Op, Program};
use dc_workloads::builder::{churn, locked, repeat, rmw, scan, WorkloadBuilder};

/// Names of the four workloads, in report order.
pub const NAMES: [&str; 4] = [
    "local_churn",
    "conflict_pingpong",
    "read_shared_stream",
    "history_batch",
];

/// Iterations per thread (histories for `history_batch`) at benchmark size:
/// every uninstrumented execution takes at least 200 ms on the 2-core host.
pub fn full_size(name: &str) -> u32 {
    match name {
        "local_churn" => 4800,
        "conflict_pingpong" => 4800,
        "read_shared_stream" => 10400,
        _ => 500,
    }
}

/// The small instance set-up verifies the specification on: the same
/// generator and `MethodId`s at about 1/400 of the iterations.
pub fn small_size(name: &str) -> u32 {
    (full_size(name) / 400).max(8)
}

/// SplitMix64: the only randomness the generators need.
#[derive(Clone, Debug)]
struct SplitMix(u64);

impl SplitMix {
    /// Next 64 random bits.
    fn bits(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value below `n`.
    fn below(&mut self, n: u64) -> u64 {
        self.bits() % n
    }
}

/// A generated real-thread workload.
#[derive(Clone, Debug)]
pub struct RealWorkload {
    /// The program: two threads started with `ProgramBuilder::thread`.
    pub program: Program,
    /// The seeded racy methods: found under the strict specification, and
    /// the only methods the specification of the timed runs excludes (what
    /// Figure-6 refinement converges to).
    pub racy: Vec<MethodId>,
    /// The lock-protected methods: regular transactions that hold one
    /// shared monitor for their whole body, so they are serializable by
    /// construction. The gate uses them to tell the known false
    /// cycle (see [`crate::subject::Outcome::false_cycles`]) from a
    /// failure; they stay in the specification.
    pub locked: Vec<MethodId>,
}

/// A racy read-modify-write with a window wide enough that two threads
/// entering it together interleave under most schedules. Every worker calls
/// its racy method once, first: both threads enter it together at the start
/// of the run, so a deterministic schedule interleaves them, and on real
/// threads a cycle through these (excluded, hence unary) accesses has unary
/// members only. Called every iteration instead, a thread preempted inside
/// the window while the other ran a whole iteration closed a cycle through
/// that iteration's regular transactions, which the checkers' blame
/// fall-back then blamed (Velodrome, once in about 110 runs).
fn racy_rmw(obj: ObjId, cell: CellId, scratch: ObjId) -> Vec<Op> {
    let mut ops = vec![Op::Read(obj, cell)];
    for f in 0..4 {
        ops.push(Op::Write(scratch, f));
        ops.push(Op::Read(scratch, f));
    }
    ops.push(Op::Write(obj, cell));
    ops
}

/// Starts one run-start thread per entry method: exactly two program
/// threads, no driver thread.
fn finish(
    mut w: WorkloadBuilder,
    entries: Vec<MethodId>,
    racy: Vec<MethodId>,
    locked: Vec<MethodId>,
) -> RealWorkload {
    for entry in entries {
        w.thread(entry);
    }
    RealWorkload {
        program: w.build(true).program,
        racy,
        locked,
    }
}

/// `local_churn`: per thread 24 private objects x 8 fields churned 16
/// rounds per call, one lock-protected shared operation per 8 calls, one
/// racy read-modify-write at the start.
pub fn local_churn(seed: u64, iters: u32) -> RealWorkload {
    let mut rng = SplitMix(seed ^ 0x1c);
    let mut w = WorkloadBuilder::new("local_churn");
    let lock = w.monitor();
    let shared = w.object(16);
    let racy_obj = w.object(16);
    let racy_cell = rng.below(16) as CellId;
    let (mut racy, mut locked_ops) = (Vec::new(), Vec::new());
    let mut entries = Vec::new();
    for i in 0..2 {
        let private = w.objects(24, 8);
        let churn_m = w.method(format!("lc.churn{i}"), vec![churn(&private, 8, 16, 4)]);
        let (rd, wr) = (rng.below(16) as CellId, rng.below(16) as CellId);
        let locked_m = w.method(
            format!("lc.locked{i}"),
            locked(
                lock,
                vec![Op::Read(shared, rd), Op::Write(shared, wr), Op::Compute(3)],
            ),
        );
        let racy_m = w.method(
            format!("lc.racy{i}"),
            racy_rmw(racy_obj, racy_cell, private[0]),
        );
        racy.push(racy_m);
        locked_ops.push(locked_m);
        let body = vec![repeat(8, vec![Op::Call(churn_m)]), Op::Call(locked_m)];
        entries.push(w.method(
            format!("lc.worker{i}"),
            vec![Op::Call(racy_m), repeat(iters.div_ceil(8), body)],
        ));
    }
    finish(w, entries, racy, locked_ops)
}

/// `conflict_pingpong`: per iteration four small regular transactions each
/// writing the thread's own fields of the 4 shared 16-field pool objects
/// (serializable, but an object-granularity conflict every time), a churn
/// over 4 private objects between them and unary shared churn, after one
/// racy read-modify-write at the start.
pub fn conflict_pingpong(seed: u64, iters: u32) -> RealWorkload {
    let mut rng = SplitMix(seed ^ 0xc0);
    let mut w = WorkloadBuilder::new("conflict_pingpong");
    let pool = w.objects(4, 16);
    let racy_obj = w.object(16);
    let racy_cell = rng.below(16) as CellId;
    let mut racy = Vec::new();
    let mut entries = Vec::new();
    for i in 0..2u32 {
        let private = w.objects(4, 8);
        let churn_m = w.method(format!("pp.churn{i}"), vec![churn(&private, 8, 20, 4)]);
        let racy_m = w.method(
            format!("pp.racy{i}"),
            racy_rmw(racy_obj, racy_cell, private[0]),
        );
        racy.push(racy_m);
        let mut body = Vec::new();
        for k in 0..4 {
            // Thread i owns fields 8i..8i+8 of every pool object. Two pool
            // objects at the start and the other two at the end of a short
            // private window: transactions of the two threads overlap often,
            // and when they do each takes an object from the other, so the
            // imprecise graph has a cycle for PCD to refute.
            let first = rng.below(4) as usize;
            let mut ops = Vec::new();
            for n in 0..4 {
                let obj = pool[(first + n) % 4];
                let cell = (8 * i + rng.below(8) as u32) as CellId;
                ops.extend([Op::Write(obj, cell), Op::Read(obj, cell)]);
                if n == 1 {
                    ops.push(churn(&private[..1], 8, 8, 0));
                }
            }
            let pong = w.method(format!("pp.pong{i}_{k}"), ops);
            body.push(Op::Call(pong));
            body.push(Op::Call(churn_m));
        }
        // Unary-context churn on the racy object, outside any transaction.
        let unary_cell = (8 * i + rng.below(8) as u32) as CellId;
        body.push(repeat(
            2,
            vec![
                Op::Read(racy_obj, unary_cell),
                Op::Write(racy_obj, unary_cell),
            ],
        ));
        entries.push(w.method(
            format!("pp.worker{i}"),
            vec![Op::Call(racy_m), repeat(iters, body)],
        ));
    }
    finish(w, entries, racy, Vec::new())
}

/// `read_shared_stream`: both threads scan 256 read-shared 4-field tables
/// and stream writes over 192 own objects (three times the ownership cache);
/// every 16 iterations a lock-protected combine rewrites one table cell, so
/// later scans take that table back to read-shared through upgrades and
/// fences (rarely: this workload is about barriers and the log, not
/// coordination).
pub fn read_shared_stream(seed: u64, iters: u32) -> RealWorkload {
    let mut rng = SplitMix(seed ^ 0x5e);
    let mut w = WorkloadBuilder::new("read_shared_stream");
    let lock = w.monitor();
    let tables = w.objects(256, 4);
    let racy_obj = w.object(16);
    let racy_cell = rng.below(16) as CellId;
    let (mut racy, mut locked_ops) = (Vec::new(), Vec::new());
    let mut entries = Vec::new();
    for i in 0..2 {
        let own = w.objects(192, 4);
        let scan_m = w.method(format!("rs.scan{i}"), scan(&tables, 4, 2));
        // Field by field, not object by object: an object is touched twice
        // and left, so with 192 of them over a 64-way cache every visit
        // starts with a miss.
        let mut stream = Vec::new();
        for f in 0..4 {
            for &o in &own {
                stream.extend([Op::Write(o, f), Op::Read(o, f)]);
            }
            stream.push(Op::Compute(2));
        }
        let stream_m = w.method(format!("rs.stream{i}"), stream);
        // One cell of one table per combine: a scan (not under the lock)
        // can be ordered before or after a single write, never both, so the
        // scans stay serializable.
        let table = tables[rng.below(256) as usize];
        let combine_m = w.method(
            format!("rs.combine{i}"),
            locked(lock, rmw(table, rng.below(4) as CellId, 2)),
        );
        let racy_m = w.method(format!("rs.racy{i}"), racy_rmw(racy_obj, racy_cell, own[0]));
        racy.push(racy_m);
        locked_ops.push(combine_m);
        let body = vec![
            repeat(16, vec![Op::Call(scan_m), Op::Call(stream_m)]),
            Op::Call(combine_m),
        ];
        entries.push(w.method(
            format!("rs.worker{i}"),
            vec![Op::Call(racy_m), repeat(iters.div_ceil(16), body)],
        ));
    }
    finish(w, entries, racy, locked_ops)
}

/// Builds the real-thread workload `name`, or `None` for `history_batch`
/// and unknown names.
pub fn real(name: &str, seed: u64, iters: u32) -> Option<RealWorkload> {
    match name {
        "local_churn" => Some(local_churn(seed, iters)),
        "conflict_pingpong" => Some(conflict_pingpong(seed, iters)),
        "read_shared_stream" => Some(read_shared_stream(seed, iters)),
        _ => None,
    }
}

/// One generated history, serialized: what the program under test receives.
#[derive(Clone, Debug)]
pub struct HistoryDoc {
    /// The dc-history JSON document.
    pub json: String,
    /// Whether the generator injected an anomaly (`AnomalyMode::expected`).
    pub expect_violation: bool,
    /// Transactions in the history.
    pub txs: usize,
}

/// `history_batch`: `count` (500 at benchmark size) dbcop-style histories (4 sessions, 64 base
/// transactions, 4 operations, 16 keys), anomaly modes cycled through
/// `AnomalyMode::ALL`, serialized to JSON.
pub fn history_batch(seed: u64, count: u32) -> Vec<HistoryDoc> {
    (0..count)
        .map(|k| {
            let mode = AnomalyMode::ALL[k as usize % AnomalyMode::ALL.len()];
            let generated = generate(&GenHistoryParams {
                seed: seed.wrapping_mul(1_000_003).wrapping_add(u64::from(k)),
                sessions: 4,
                base_txs: 64,
                ops_per_tx: 4,
                keys: 16,
                mode,
            });
            HistoryDoc {
                json: generated.history.to_json(),
                expect_violation: mode.expected().violation(),
                txs: generated.history.transaction_count(),
            }
        })
        .collect()
}

/// Shared accesses one execution of `program` performs, as `RunStats::
/// total_accesses` counts them (reads, writes, array accesses and
/// synchronization operations; loops multiplied out, calls followed).
pub fn dynamic_accesses(program: &Program) -> u64 {
    fn count(program: &Program, ops: &[Op]) -> u64 {
        ops.iter()
            .map(|op| match op {
                Op::Loop { count: c, body } => u64::from(*c) * count(program, body),
                Op::Call(m) => count(program, &program.methods[m.index()].body),
                Op::Compute(_) => 0,
                _ => 1,
            })
            .sum()
    }
    program
        .threads
        .iter()
        .map(|t| count(program, &program.methods[t.entry.index()].body))
        .sum()
}
