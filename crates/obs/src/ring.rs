//! A bounded ring of analysis trace events: a mutex around a `VecDeque`
//! that drops its oldest event when full. Only the `Full` observability
//! level records, and every recorded event is already a slow-path one
//! (a transition, an SCC, a collector pass, a replay), so one short
//! critical section per event is cheap next to the work it describes.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// What happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// An Octet slow-path transition (value = transition discriminant).
    Transition,
    /// A transaction end detected an SCC (value = member count).
    SccDetected,
    /// The collector ran (value = transactions reclaimed).
    CollectRun,
    /// An SCC was handed to PCD replay (value = member count).
    ReplaySubmit,
    /// A replay finished (value = violations found).
    ReplayDone,
    /// The checker's run began (value = thread count).
    RunBegin,
    /// The checker's run ended (value = thread count).
    RunEnd,
}

impl EventKind {
    /// Stable lower-case name used in trace output.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Transition => "transition",
            EventKind::SccDetected => "scc_detected",
            EventKind::CollectRun => "collect_run",
            EventKind::ReplaySubmit => "replay_submit",
            EventKind::ReplayDone => "replay_done",
            EventKind::RunBegin => "run_begin",
            EventKind::RunEnd => "run_end",
        }
    }

    /// The stable lower-case name of the analysis component that emits
    /// this kind of event: Octet's barrier layer, ICD's dependence graph
    /// (SCC detection, the collector), PCD replay, or the checker's run
    /// lifecycle.
    pub fn stage(self) -> &'static str {
        match self {
            EventKind::Transition => "octet",
            EventKind::SccDetected | EventKind::CollectRun => "graph",
            EventKind::ReplaySubmit | EventKind::ReplayDone => "replay",
            EventKind::RunBegin | EventKind::RunEnd => "checker",
        }
    }
}

/// One trace event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global publication order (gaps mean the ring wrapped).
    pub seq: u64,
    /// Nanoseconds since the ring (≈ the checker) was created.
    pub t_ns: u64,
    /// Event type.
    pub kind: EventKind,
    /// Event-specific payload (see [`EventKind`]).
    pub value: u64,
}

#[derive(Debug, Default)]
struct Events {
    ring: VecDeque<TraceEvent>,
    /// Events ever recorded: the next event's `seq`.
    recorded: u64,
}

/// The bounded trace ring.
#[derive(Debug)]
pub struct TraceRing {
    events: Mutex<Events>,
    capacity: usize,
    epoch: Instant,
}

impl TraceRing {
    /// Creates a ring keeping the newest `capacity` events.
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            events: Mutex::default(),
            capacity: capacity.max(1),
            epoch: Instant::now(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Events> {
        // A panic while holding the lock leaves the ring consistent.
        self.events.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Total events ever recorded (≥ the number still in the ring).
    pub fn recorded(&self) -> u64 {
        self.lock().recorded
    }

    /// Records one event, dropping the oldest when the ring is full.
    pub fn record(&self, kind: EventKind, value: u64) {
        let mut events = self.lock();
        let event = TraceEvent {
            seq: events.recorded,
            t_ns: u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
            kind,
            value,
        };
        events.recorded += 1;
        if events.ring.len() == self.capacity {
            events.ring.pop_front();
        }
        events.ring.push_back(event);
    }

    /// The events currently in the ring, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.lock().ring.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots_in_order() {
        let ring = TraceRing::new(8);
        ring.record(EventKind::CollectRun, 3);
        ring.record(EventKind::ReplaySubmit, 2);
        let events = ring.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::CollectRun);
        assert_eq!(events[0].value, 3);
        assert_eq!(events[1].seq, 1);
        assert!(events[0].t_ns <= events[1].t_ns);
    }

    #[test]
    fn wraps_keeping_the_newest_events() {
        let ring = TraceRing::new(4);
        for i in 0..10u64 {
            ring.record(EventKind::Transition, i);
        }
        let events = ring.snapshot();
        assert_eq!(ring.recorded(), 10);
        let values: Vec<u64> = events.iter().map(|e| e.value).collect();
        assert_eq!(values, vec![6, 7, 8, 9], "oldest events dropped");
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn concurrent_writers_publish_in_seq_and_time_order() {
        use std::sync::Arc;
        let ring = Arc::new(TraceRing::new(64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        ring.record(EventKind::CollectRun, i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let events = ring.snapshot();
        assert_eq!(ring.recorded(), 20_000);
        assert_eq!(events.len(), 64);
        for pair in events.windows(2) {
            assert_eq!(pair[0].seq + 1, pair[1].seq);
            assert!(pair[0].t_ns <= pair[1].t_ns);
        }
    }

    #[test]
    fn names_are_stable() {
        use EventKind::*;
        let kinds = [
            Transition,
            SccDetected,
            CollectRun,
            ReplaySubmit,
            ReplayDone,
            RunBegin,
            RunEnd,
        ];
        let stages = [
            "octet", "graph", "graph", "replay", "replay", "checker", "checker",
        ];
        assert_eq!(kinds.map(EventKind::stage), stages);
        assert_eq!(EventKind::SccDetected.as_str(), "scc_detected");
    }
}
