//! Criterion microbenchmarks for the per-access costs underlying Figure 7:
//!
//! * Octet's fence-free fast path (a load and compare) vs its conflicting
//!   transition (coordination protocol);
//! * Velodrome's per-access metadata lock (CAS + metadata updates);
//! * ICD read/write logging with duplicate elision.
//!
//! These are the paper's cost model in miniature: the fast path must be far
//! cheaper than Velodrome's locked access, which is why ICD can afford to
//! monitor everything.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dc_icd::{Icd, IcdConfig};
use dc_octet::{CoordinationMode, NullSink, Protocol};
use dc_runtime::heap::{Heap, ObjKind};
use dc_runtime::ids::{ObjId, ThreadId};
use dc_velodrome::MetaTable;
use std::hint::black_box;

fn octet_fast_path(c: &mut Criterion) {
    // Cache explicitly OFF: this row is the uncached metadata-word load
    // and compare, the baseline the inline-cache row must beat.
    let p = Protocol::with_config(1, 2, CoordinationMode::Immediate, NullSink, None, false);
    p.thread_begin(ThreadId(0));
    p.write_barrier(ThreadId(0), ObjId(0)); // claim WrEx
    c.bench_function("octet/fast_path_same_state", |b| {
        b.iter(|| black_box(p.write_barrier(black_box(ThreadId(0)), black_box(ObjId(0)))))
    });
}

fn octet_inline_cache_hit(c: &mut Criterion) {
    // Cache ON: an owned-object re-access finds its stamp in the
    // per-thread ownership table and skips the metadata-word load
    // entirely. Must be strictly cheaper than `octet/fast_path_same_state`.
    let p = Protocol::with_config(1, 2, CoordinationMode::Immediate, NullSink, None, true);
    p.thread_begin(ThreadId(0));
    p.write_barrier(ThreadId(0), ObjId(0)); // claim WrEx + stamp the table
    c.bench_function("octet/inline_cache_hit", |b| {
        b.iter(|| black_box(p.write_barrier(black_box(ThreadId(0)), black_box(ObjId(0)))))
    });
}

fn octet_conflicting(c: &mut Criterion) {
    c.bench_function("octet/conflicting_transition_immediate", |b| {
        b.iter_batched(
            || {
                let p = Protocol::new(1, 2, CoordinationMode::Immediate, NullSink);
                p.thread_begin(ThreadId(0));
                p.thread_begin(ThreadId(1));
                p.write_barrier(ThreadId(0), ObjId(0));
                p
            },
            |p| black_box(p.write_barrier(ThreadId(1), ObjId(0))),
            BatchSize::SmallInput,
        )
    });
}

fn velodrome_locked_access(c: &mut Criterion) {
    let heap = Heap::new(&[ObjKind::Plain { fields: 4 }], 2);
    let meta = MetaTable::new(&heap);
    let slot = meta.slot(ObjId(0), 0);
    c.bench_function("velodrome/metadata_lock_roundtrip", |b| {
        b.iter(|| {
            meta.lock(slot);
            let w = meta.writer(slot);
            meta.set_writer(slot, dc_velodrome::VTxId::new(ThreadId(0), 1));
            meta.unlock(slot);
            black_box(w)
        })
    });
}

fn icd_logging(c: &mut Criterion) {
    c.bench_function("icd/record_access_distinct_fields", |b| {
        b.iter_batched(
            || {
                let icd = Icd::new(1, IcdConfig::default());
                icd.thread_begin(ThreadId(0));
                icd
            },
            |icd| {
                for f in 0..64u32 {
                    icd.record_access(ThreadId(0), ObjId(0), f, f % 2 == 0, false, false);
                }
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("icd/record_access_elided_duplicates", |b| {
        b.iter_batched(
            || {
                let icd = Icd::new(1, IcdConfig::default());
                icd.thread_begin(ThreadId(0));
                icd.record_access(ThreadId(0), ObjId(0), 0, true, false, false);
                icd
            },
            |icd| {
                for _ in 0..64 {
                    icd.record_access(ThreadId(0), ObjId(0), 0, false, false, false);
                }
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = overheads;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_millis(500)).warm_up_time(std::time::Duration::from_millis(200));
    targets = octet_fast_path, octet_inline_cache_hit, octet_conflicting, velodrome_locked_access, icd_logging
}
criterion_main!(overheads);
