//! Building blocks for benchmark-analog workloads.
//!
//! Each paper benchmark is modeled by composing a few *sharing shapes* —
//! thread-local churn, read-shared tables, lock-protected critical sections
//! and racy read–modify–write patterns — because the analyses' behaviour
//! (transition mix, edge counts, SCCs, violations) depends on the sharing
//! shape, not on what the Java code computed.

use dc_runtime::heap::ObjKind;
use dc_runtime::ids::{CellId, MethodId, ObjId, ThreadId};
use dc_runtime::program::{Op, Program, ProgramBuilder, ProgramError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Workload size scaling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Minimal sizes for unit/integration tests (≪ 1 ms workloads).
    Tiny,
    /// The default benchmarking size (paper's "small workload size").
    Small,
    /// Larger runs for stable timing measurements.
    Full,
}

impl Scale {
    /// Multiplier applied to loop counts.
    pub fn factor(self) -> u32 {
        match self {
            Scale::Tiny => 3,
            Scale::Small => 40,
            Scale::Full => 200,
        }
    }
}

/// A finished workload: the program plus the methodology inputs the
/// evaluation needs.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Benchmark name (paper's row label, e.g. `"xalan6"`).
    pub name: &'static str,
    /// The program.
    pub program: Program,
    /// Methods excluded from the *initial* specification beyond the
    /// automatic exclusions (the paper excludes e.g. DaCapo driver threads).
    pub extra_exclusions: Vec<MethodId>,
    /// True if the workload is compute-bound (the paper excludes
    /// non-compute-bound programs from performance runs, §5.3).
    pub compute_bound: bool,
}

/// Fluent helper around [`ProgramBuilder`] for workload construction.
#[derive(Debug)]
pub struct WorkloadBuilder {
    /// The underlying program builder.
    pub b: ProgramBuilder,
    name: &'static str,
    rng: SmallRng,
    extra_exclusions: Vec<MethodId>,
}

impl WorkloadBuilder {
    /// Creates a builder with a name-derived deterministic RNG.
    pub fn new(name: &'static str) -> Self {
        let seed = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, c| {
            (h ^ u64::from(c)).wrapping_mul(0x1000_0000_01b3)
        });
        WorkloadBuilder {
            b: ProgramBuilder::new(),
            name,
            rng: SmallRng::seed_from_u64(seed),
            extra_exclusions: Vec::new(),
        }
    }

    /// Deterministic workload-local randomness.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// Declares `n` plain objects with `fields` fields.
    pub fn objects(&mut self, n: usize, fields: u16) -> Vec<ObjId> {
        self.b.objects(n, fields)
    }

    /// Declares one plain object.
    pub fn object(&mut self, fields: u16) -> ObjId {
        self.b.object(ObjKind::Plain { fields })
    }

    /// Declares a monitor object.
    pub fn monitor(&mut self) -> ObjId {
        self.b.object(ObjKind::Monitor)
    }

    /// Declares an array object.
    pub fn array(&mut self, len: u32) -> ObjId {
        self.b.object(ObjKind::Array { len })
    }

    /// Declares a barrier for `parties` threads.
    pub fn barrier(&mut self, parties: u32) -> ObjId {
        self.b.object(ObjKind::Barrier { parties })
    }

    /// Adds a method.
    pub fn method(&mut self, name: impl Into<String>, body: Vec<Op>) -> MethodId {
        self.b.method(name, body)
    }

    /// Looks up an already-added method by name.
    pub fn lookup_method(&self, name: &str) -> Option<MethodId> {
        self.b.find_method(name)
    }

    /// Adds a method excluded from the initial atomicity specification.
    pub fn excluded_method(&mut self, name: impl Into<String>, body: Vec<Op>) -> MethodId {
        let m = self.b.method(name, body);
        self.extra_exclusions.push(m);
        m
    }

    /// Adds a run-start thread.
    pub fn thread(&mut self, entry: MethodId) -> ThreadId {
        self.b.thread(entry)
    }

    /// Adds a forked thread.
    pub fn forked_thread(&mut self, entry: MethodId) -> ThreadId {
        self.b.forked_thread(entry)
    }

    /// Finalizes the workload.
    ///
    /// # Panics
    ///
    /// Panics if the composed program fails validation (generator bug).
    pub fn build(self, compute_bound: bool) -> Workload {
        let program = match self.b.build() {
            Ok(p) => p,
            Err(e) => panic!("workload {:?} is invalid: {e}", self.name),
        };
        Workload {
            name: self.name,
            program,
            extra_exclusions: self.extra_exclusions,
            compute_bound,
        }
    }
}

/// `body` repeated `count` times.
pub fn repeat(count: u32, body: Vec<Op>) -> Op {
    Op::Loop { count, body }
}

/// `Acquire(lock); body…; Release(lock)`.
pub fn locked(lock: ObjId, mut body: Vec<Op>) -> Vec<Op> {
    let mut ops = vec![Op::Acquire(lock)];
    ops.append(&mut body);
    ops.push(Op::Release(lock));
    ops
}

/// A read–modify–write of one field with `work` compute in between — the
/// classic atomicity-violation pattern when unprotected.
pub fn rmw(obj: ObjId, cell: CellId, work: u32) -> Vec<Op> {
    vec![Op::Read(obj, cell), Op::Compute(work), Op::Write(obj, cell)]
}

/// Reads every field of every object (read-shared traffic).
pub fn scan(objs: &[ObjId], fields: u16, work: u32) -> Vec<Op> {
    let mut ops = Vec::with_capacity(objs.len() * usize::from(fields) + 1);
    for &o in objs {
        for f in 0..fields {
            ops.push(Op::Read(o, CellId::from(f)));
        }
        if work > 0 {
            ops.push(Op::Compute(work));
        }
    }
    ops
}

/// Thread-private churn: interleaved reads and writes over private objects
/// (fast-path Octet traffic; the bulk of real programs).
pub fn churn(objs: &[ObjId], fields: u16, rounds: u32, work: u32) -> Op {
    let mut body = Vec::new();
    for &o in objs {
        for f in 0..fields {
            body.push(Op::Write(o, CellId::from(f)));
            body.push(Op::Read(o, CellId::from(f)));
        }
        if work > 0 {
            body.push(Op::Compute(work));
        }
    }
    repeat(rounds, body)
}

/// Picks `n` distinct pseudo-random indices below `max`.
pub fn pick_indices(rng: &mut SmallRng, n: usize, max: usize) -> Vec<usize> {
    let mut picked = Vec::with_capacity(n);
    while picked.len() < n.min(max) {
        let i = rng.gen_range(0..max);
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked
}

/// Validation helper used by the suite tests.
pub fn check(workload: &Workload) -> Result<(), ProgramError> {
    workload.program.validate()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_factors_increase() {
        assert!(Scale::Tiny.factor() < Scale::Small.factor());
        assert!(Scale::Small.factor() < Scale::Full.factor());
    }

    #[test]
    fn builder_rng_is_deterministic_per_name() {
        let mut a = WorkloadBuilder::new("x");
        let mut b = WorkloadBuilder::new("x");
        let va: u64 = a.rng().gen();
        let vb: u64 = b.rng().gen();
        assert_eq!(va, vb);
        let mut c = WorkloadBuilder::new("y");
        let vc: u64 = c.rng().gen();
        assert_ne!(va, vc);
    }

    #[test]
    fn locked_wraps_body() {
        let lock = ObjId(0);
        let ops = locked(lock, vec![Op::Compute(1)]);
        assert_eq!(ops.first(), Some(&Op::Acquire(lock)));
        assert_eq!(ops.last(), Some(&Op::Release(lock)));
        assert_eq!(ops.len(), 3);
    }

    #[test]
    fn rmw_reads_then_writes_same_cell() {
        let ops = rmw(ObjId(1), 2, 5);
        assert_eq!(ops[0], Op::Read(ObjId(1), 2));
        assert_eq!(ops[2], Op::Write(ObjId(1), 2));
    }

    #[test]
    fn pick_indices_are_distinct_and_bounded() {
        let mut rng = SmallRng::seed_from_u64(1);
        let picked = pick_indices(&mut rng, 5, 8);
        assert_eq!(picked.len(), 5);
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
        assert!(picked.iter().all(|&i| i < 8));
    }

    #[test]
    fn excluded_methods_are_recorded() {
        let mut wb = WorkloadBuilder::new("t");
        let m = wb.excluded_method("driver", vec![Op::Compute(1)]);
        wb.thread(m);
        let w = wb.build(true);
        assert_eq!(w.extra_exclusions, vec![m]);
        assert!(check(&w).is_ok());
    }
}
