//! Analogs of the Java Grande benchmarks the paper evaluates (moldyn,
//! montecarlo, raytracer — §5.1): data-parallel compute with barrier phases,
//! lock-protected reductions, and (for montecarlo) a couple of racy
//! aggregate counters.

use crate::builder::{churn, locked, repeat, rmw, scan, Scale, Workload, WorkloadBuilder};
use dc_runtime::ids::CellId;
use dc_runtime::program::Op;

/// `moldyn`: molecular dynamics — barrier-phased force computation reading
/// all particle partitions, writing only the thread's own, with a
/// lock-protected energy reduction. Serializable; no violations.
pub fn moldyn(scale: Scale) -> Workload {
    const THREADS: usize = 4;
    const FIELDS: u16 = 32;
    let mut w = WorkloadBuilder::new("moldyn");
    let f = scale.factor();
    // Positions are read by everyone during the force phase and written
    // only by their owner in the (barrier-separated) update phase; forces
    // are thread-private.
    // Particle data are arrays (`double[]` in the Java original) and thus
    // uninstrumented by default (paper §4).
    let positions: Vec<_> = (0..THREADS).map(|_| w.array(u32::from(FIELDS))).collect();
    let forces_objs: Vec<_> = (0..THREADS).map(|_| w.array(u32::from(FIELDS))).collect();
    let energy = w.object(2);
    let lock = w.monitor();
    let bar = w.barrier(THREADS as u32);
    let mut threads = Vec::new();
    for i in 0..THREADS {
        let mut force = Vec::new();
        for p in &positions {
            for c in 0..FIELDS {
                force.push(Op::ArrayRead(*p, CellId::from(c)));
            }
            force.push(Op::Compute(4));
        }
        for c in 0..FIELDS {
            force.push(Op::ArrayWrite(forces_objs[i], CellId::from(c)));
        }
        let forces = w.method(format!("MolDyn.forces{i}"), force);
        let mut update = Vec::new();
        for c in 0..FIELDS {
            update.push(Op::ArrayRead(forces_objs[i], CellId::from(c)));
            update.push(Op::ArrayWrite(positions[i], CellId::from(c)));
        }
        update.push(Op::Compute(4));
        let update_m = w.method(format!("MolDyn.updatePositions{i}"), update);
        let reduce = w.method(
            format!("MolDyn.reduceEnergy{i}"),
            locked(lock, vec![Op::Read(energy, 0), Op::Write(energy, 0)]),
        );
        let body = vec![repeat(
            f,
            vec![
                Op::Call(forces),
                Op::Barrier(bar),
                Op::Call(update_m),
                Op::Call(reduce),
                Op::Barrier(bar),
            ],
        )];
        threads.push(w.excluded_method(format!("MolDyn.run{i}"), body));
    }
    for m in threads {
        w.thread(m);
    }
    w.build(true)
}

/// `montecarlo`: independent path simulations (thread-local churn) whose
/// results append to a shared vector under a lock; two global statistics
/// counters are updated racily (the paper reports 2 violations).
pub fn montecarlo(scale: Scale) -> Workload {
    const THREADS: usize = 4;
    let mut w = WorkloadBuilder::new("montecarlo");
    let f = scale.factor();
    let results = w.object(16);
    let stats = w.object(4);
    let lock = w.monitor();
    let private: Vec<_> = (0..THREADS).map(|_| w.object(10)).collect();
    let mut threads = Vec::new();
    for i in 0..THREADS {
        let simulate = w.method(
            format!("MonteCarlo.simulatePath{i}"),
            vec![churn(&private[i..=i], 10, 12, 10)],
        );
        let append = w.method(
            format!("MonteCarlo.appendResult{i}"),
            locked(
                lock,
                vec![
                    Op::Read(results, (i % 16) as CellId),
                    Op::Write(results, (i % 16) as CellId),
                ],
            ),
        );
        let body = vec![repeat(
            4 * f,
            vec![
                Op::Call(simulate),
                Op::Call(append),
                Op::Call(crate::grande::shared_counters(&mut w, i)),
            ],
        )];
        threads.push(w.excluded_method(format!("MonteCarlo.run{i}"), body));
    }
    // Two racy counter methods shared by all threads (created once above).
    for m in threads {
        w.thread(m);
    }
    let _ = stats;
    w.build(true)
}

/// Shared racy-counter method used by [`montecarlo`]: created once, then
/// reused, so all threads race on the same two methods.
fn shared_counters(w: &mut WorkloadBuilder, _i: usize) -> dc_runtime::ids::MethodId {
    // Lazily create the pair of racy methods once; later calls return the
    // combined method.
    if let Some(m) = w.lookup_method("MonteCarlo.updateGlobalStats") {
        return m;
    }
    let stats = w.object(4);
    let mut body = rmw(stats, 0, 3);
    body.extend(rmw(stats, 1, 3));
    w.method("MonteCarlo.updateGlobalStats", body)
}

/// `raytracer`: threads render disjoint rows reading a shared, read-only
/// scene (read-shared Octet traffic) and combine a checksum under a lock.
/// Serializable; no violations (the paper reports 0, with one imprecise
/// SCC).
pub fn raytracer(scale: Scale) -> Workload {
    const THREADS: usize = 4;
    const SCENE_OBJS: usize = 6;
    const FIELDS: u16 = 8;
    let mut w = WorkloadBuilder::new("raytracer");
    let f = scale.factor();
    let scene: Vec<_> = (0..SCENE_OBJS).map(|_| w.object(FIELDS)).collect();
    let checksum = w.object(1);
    let lock = w.monitor();
    // Pixel rows are arrays (`int[]` in the Java original).
    let rows: Vec<_> = (0..THREADS).map(|_| w.array(16)).collect();
    let mut threads = Vec::new();
    for (i, &row) in rows.iter().enumerate() {
        let mut render = Vec::new();
        for _ in 0..4 {
            render.extend(scan(&scene, FIELDS, 6));
        }
        for c in 0..16u16 {
            render.push(Op::ArrayWrite(row, CellId::from(c)));
        }
        let render_m = w.method(format!("RayTracer.renderRow{i}"), render);
        let combine = w.method(
            format!("RayTracer.combineChecksum{i}"),
            locked(lock, vec![Op::Read(checksum, 0), Op::Write(checksum, 0)]),
        );
        let body = vec![repeat(3 * f, vec![Op::Call(render_m), Op::Call(combine)])];
        threads.push(w.excluded_method(format!("RayTracer.run{i}"), body));
    }
    for m in threads {
        w.thread(m);
    }
    w.build(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_grande_workloads_validate() {
        for wl in [
            moldyn(Scale::Tiny),
            montecarlo(Scale::Tiny),
            raytracer(Scale::Tiny),
        ] {
            assert!(wl.compute_bound);
        }
    }

    #[test]
    fn montecarlo_reuses_one_racy_method() {
        let wl = montecarlo(Scale::Tiny);
        let shared = wl
            .program
            .methods
            .iter()
            .filter(|m| m.name == "MonteCarlo.updateGlobalStats")
            .count();
        assert_eq!(shared, 1);
    }

    #[test]
    fn moldyn_runs_under_random_schedules() {
        let wl = moldyn(Scale::Tiny);
        for seed in 0..5 {
            dc_runtime::engine::det::run_det(
                &wl.program,
                &dc_runtime::checker::NopChecker,
                &dc_runtime::engine::det::Schedule::random(seed),
            )
            .unwrap();
        }
    }
}
