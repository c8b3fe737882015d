//! The recording observer: [`Recorder`] buffers a run's events and
//! renders them as a JSON-lines trace.

use ims_core::{BackendKind, SchedObserver};
use ims_graph::NodeId;

use crate::event::SchedEvent;

/// An observer that buffers every event in memory, for replay,
/// in-process analysis, and trace files ([`to_jsonl`](Recorder::to_jsonl)).
///
/// The events carry nothing non-deterministic — no timestamps, no thread
/// identity — so for a given problem and configuration the recorded
/// trace is identical on every run and at every `--threads` value of the
/// corpus drivers.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    /// Every event observed, in emission order.
    pub events: Vec<SchedEvent>,
    /// The backend that announced itself via the `backend` hook
    /// ([`BackendKind::Ims`] until one does); stamped onto every
    /// subsequent `AttemptStart`.
    kind: BackendKind,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded events as a JSON-lines trace: one
    /// [`to_json_line`](SchedEvent::to_json_line) per event, each ending
    /// in `\n` — the format [`parse_trace`](crate::parse_trace) reads.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(&event.to_json_line());
            out.push('\n');
        }
        out
    }
}

impl SchedObserver for Recorder {
    fn backend(&mut self, kind: BackendKind) {
        self.kind = kind;
    }
    fn attempt_start(&mut self, ii: i64, budget: i64) {
        self.events.push(SchedEvent::AttemptStart {
            ii,
            budget,
            backend: self.kind,
        });
    }
    fn op_scheduled(&mut self, node: NodeId, time: i64, alt: usize, forced: bool) {
        self.events.push(SchedEvent::OpScheduled {
            node: node.0,
            time,
            alt,
            forced,
        });
    }
    fn op_evicted(&mut self, node: NodeId, evictor: NodeId) {
        self.events.push(SchedEvent::OpEvicted {
            node: node.0,
            evictor: evictor.0,
        });
    }
    fn slot_search(&mut self, node: NodeId, estart: i64, iters: u32) {
        self.events.push(SchedEvent::SlotSearch {
            node: node.0,
            estart,
            iters,
        });
    }
    fn budget_exhausted(&mut self, ii: i64, spent: u64) {
        self.events.push(SchedEvent::BudgetExhausted { ii, spent });
    }
    fn attempt_done(&mut self, ii: i64, ok: bool) {
        self.events.push(SchedEvent::AttemptDone { ii, ok });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::parse_trace;

    fn fire_all<O: SchedObserver>(obs: &mut O) {
        obs.backend(BackendKind::Exact);
        obs.attempt_start(2, 10);
        obs.slot_search(NodeId(1), 0, 2);
        obs.op_evicted(NodeId(3), NodeId(1));
        obs.op_scheduled(NodeId(1), 0, 0, true);
        obs.budget_exhausted(2, 10);
        obs.attempt_done(2, false);
    }

    #[test]
    fn recorder_and_writer_agree() {
        // The recorded events and their JSON-lines rendering agree.
        let mut rec = Recorder::new();
        fire_all(&mut rec);
        let text = rec.to_jsonl();
        assert_eq!(parse_trace(&text).unwrap(), rec.events);
        assert_eq!(text.lines().count(), 6);
        assert_eq!(
            rec.events[0],
            SchedEvent::AttemptStart {
                ii: 2,
                budget: 10,
                backend: BackendKind::Exact,
            },
            "the backend hook stamps subsequent attempts"
        );
    }
}
