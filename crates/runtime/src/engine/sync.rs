//! The synchronization semantics of both engines, implemented once.
//!
//! [`SyncState`] is a plain state machine over the run's threads, monitors
//! and barriers: it takes no lock and calls no checker hook. The
//! deterministic engine owns one and schedules around it; the real engine
//! keeps one behind a mutex and parks a blocked OS thread until its
//! [`Block`] clears. Both run every synchronization action in one hook
//! sequence:
//!
//! 1. the release-like hook on [`released`]'s object, if any (§3.2.2);
//! 2. [`SyncState::start`]; if it returns a [`Block`], `before_block`, then
//!    whatever the engine does until [`SyncState::cleared`] holds, then
//!    [`SyncState::resume`] and `after_unblock` (§3.2.1);
//! 3. the acquire-like hook on [`acquired`]'s object, if any;
//! 4. the safe-point poll.
//!
//! Monitors are not reentrant. `Wait` is a latch: it sleeps until the
//! *first* `NotifyAll` on its monitor, so a wait after any notify returns
//! at once. Java's `wait` sleeps until a notify that follows it, and real
//! programs guard it with a condition predicate; the workload IR has no
//! branches, so the latch keeps the same release/acquire dependence edges
//! with guaranteed liveness. A waiter resumes only once it has been
//! notified and the monitor is free, holding the monitor again.

use crate::heap::{Heap, ObjKind};
use crate::ids::{ObjId, ThreadId};
use crate::interp::Action;
use crate::program::{Program, StartMode};
use std::collections::HashMap;

/// A synchronization action that could not complete yet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Block {
    /// The action: `Acquire`, `Wait`, `Barrier` or `Join`.
    pub(crate) action: Action,
    /// A barrier's generation at arrival; 0 for the other actions.
    generation: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Unforked,
    Running,
    Blocked(Block),
    Finished,
}

#[derive(Default)]
struct MonitorWord {
    owner: Option<ThreadId>,
    /// Set by the first `NotifyAll`, never cleared (the wait latch).
    notified: bool,
}

#[derive(Default)]
struct BarrierWord {
    arrived: u32,
    generation: u64,
}

/// Per-thread phases, monitors and barriers of one run.
pub(crate) struct SyncState<'p> {
    objects: &'p [ObjKind],
    threads: Vec<Phase>,
    monitors: HashMap<ObjId, MonitorWord>,
    barriers: HashMap<ObjId, BarrierWord>,
}

/// The object of the release-like hook that runs before `action`'s
/// primitive: the monitor or barrier, or a forked child's thread object.
pub(crate) fn released(heap: &Heap, action: Action) -> Option<ObjId> {
    match action {
        Action::Release(o) | Action::Wait(o) | Action::NotifyAll(o) | Action::Barrier(o) => Some(o),
        Action::Fork(child) => Some(heap.thread_obj(child)),
        _ => None,
    }
}

/// The object of the acquire-like hook that runs after `action`'s
/// primitive: the monitor or barrier, or a joined child's thread object.
pub(crate) fn acquired(heap: &Heap, action: Action) -> Option<ObjId> {
    match action {
        Action::Acquire(o) | Action::Wait(o) | Action::Barrier(o) => Some(o),
        Action::Join(child) => Some(heap.thread_obj(child)),
        _ => None,
    }
}

impl<'p> SyncState<'p> {
    /// Threads started at run start are running; forked ones wait for
    /// their `Fork`.
    pub(crate) fn new(program: &'p Program) -> Self {
        SyncState {
            objects: &program.objects,
            threads: program
                .threads
                .iter()
                .map(|spec| match spec.start {
                    StartMode::AtRunStart => Phase::Running,
                    StartMode::OnFork => Phase::Unforked,
                })
                .collect(),
            monitors: HashMap::new(),
            barriers: HashMap::new(),
        }
    }

    /// Runs `action`'s primitive for thread `t`. Returns the block if it
    /// cannot complete yet; `t` then stays blocked until [`Self::resume`].
    ///
    /// # Panics
    ///
    /// Panics on monitor misuse (a reentrant acquire; a release, wait or
    /// notify of a monitor `t` does not own) and on a second fork of one
    /// thread.
    pub(crate) fn start(&mut self, t: ThreadId, action: Action) -> Option<Block> {
        let mut generation = 0;
        let blocked = match action {
            Action::Acquire(o) => {
                let m = self.monitors.entry(o).or_default();
                assert_ne!(m.owner, Some(t), "monitor is not reentrant");
                let held = m.owner.is_some();
                if !held {
                    m.owner = Some(t);
                }
                held
            }
            Action::Release(o) => {
                self.owned(t, o).owner = None;
                false
            }
            Action::NotifyAll(o) => {
                self.owned(t, o).notified = true;
                false
            }
            Action::Wait(o) => {
                let m = self.owned(t, o);
                // An open latch releases and re-acquires at once.
                if !m.notified {
                    m.owner = None;
                }
                !m.notified
            }
            Action::Barrier(o) => {
                let parties = match self.objects[o.index()] {
                    ObjKind::Barrier { parties } => parties.max(1),
                    _ => unreachable!("validated program"),
                };
                let b = self.barriers.entry(o).or_default();
                b.arrived += 1;
                generation = b.generation;
                if b.arrived == parties {
                    b.arrived = 0;
                    b.generation += 1;
                }
                b.generation == generation
            }
            Action::Fork(child) => {
                let phase = &mut self.threads[child.index()];
                assert_eq!(*phase, Phase::Unforked, "double fork of {child:?}");
                *phase = Phase::Running;
                false
            }
            Action::Join(child) => self.threads[child.index()] != Phase::Finished,
            _ => false,
        };
        let block = blocked.then_some(Block { action, generation });
        if let Some(block) = block {
            self.threads[t.index()] = Phase::Blocked(block);
        }
        block
    }

    /// Whether `block` can complete now.
    pub(crate) fn cleared(&self, block: Block) -> bool {
        let monitor = |o| &self.monitors[&o];
        match block.action {
            Action::Acquire(o) => monitor(o).owner.is_none(),
            Action::Wait(o) => monitor(o).notified && monitor(o).owner.is_none(),
            Action::Barrier(o) => self.barriers[&o].generation > block.generation,
            Action::Join(child) => self.threads[child.index()] == Phase::Finished,
            _ => unreachable!("{block:?} never blocks"),
        }
    }

    /// Completes `t`'s cleared `block`: an `Acquire` or `Wait` takes the
    /// monitor. `t` is running again.
    pub(crate) fn resume(&mut self, t: ThreadId, block: Block) {
        debug_assert!(self.cleared(block));
        if let Action::Acquire(o) | Action::Wait(o) = block.action {
            self.monitors.get_mut(&o).expect("blocked on it").owner = Some(t);
        }
        self.threads[t.index()] = Phase::Running;
    }

    /// Marks `t` finished, which clears its joiners' blocks.
    pub(crate) fn finish(&mut self, t: ThreadId) {
        self.threads[t.index()] = Phase::Finished;
    }

    /// The block `t` is in, if any.
    pub(crate) fn blocked(&self, t: ThreadId) -> Option<Block> {
        match self.threads[t.index()] {
            Phase::Blocked(block) => Some(block),
            _ => None,
        }
    }

    /// Whether `t` can take a step: it has been forked and has not
    /// finished, and any block it is in has cleared.
    pub(crate) fn runnable(&self, t: ThreadId) -> bool {
        match self.threads[t.index()] {
            Phase::Running => true,
            Phase::Blocked(block) => self.cleared(block),
            Phase::Unforked | Phase::Finished => false,
        }
    }

    /// The monitor `o`, which `t` must own.
    fn owned(&mut self, t: ThreadId, o: ObjId) -> &mut MonitorWord {
        let m = self.monitors.entry(o).or_default();
        assert_eq!(m.owner, Some(t), "{o:?} is a monitor {t:?} does not own");
        m
    }

    /// Whether every thread has finished.
    pub(crate) fn all_finished(&self) -> bool {
        self.threads.iter().all(|&p| p == Phase::Finished)
    }
}
