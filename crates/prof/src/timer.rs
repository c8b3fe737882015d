//! Span-style wall-clock timing, kept apart from deterministic counters.

use std::time::Instant;

use crate::registry::MetricsRegistry;

/// An open wall-clock span for one phase. Create with
/// [`PhaseTimer::start`], close with [`PhaseTimer::finish`] — the elapsed
/// nanoseconds land in the registry's **wall** section only, so the
/// deterministic sections of a snapshot stay byte-comparable across
/// `--threads` values no matter how timing jitters.
///
/// The timer is deliberately detached from the registry (no borrow held),
/// so the timed region is free to mutate the registry:
///
/// ```
/// use ims_prof::{MetricsRegistry, PhaseTimer};
///
/// let mut reg = MetricsRegistry::new();
/// let t = PhaseTimer::start("sched");
/// reg.add("graph.mindist.work", 10); // timed work may record counters
/// t.finish(&mut reg);
/// assert_eq!(reg.wall("sched").unwrap().total(), 1);
/// ```
#[derive(Debug)]
#[must_use = "an unfinished PhaseTimer records nothing"]
pub struct PhaseTimer {
    phase: &'static str,
    t0: Instant,
}

impl PhaseTimer {
    /// Starts timing `phase` now.
    pub fn start(phase: &'static str) -> Self {
        PhaseTimer {
            phase,
            t0: Instant::now(),
        }
    }

    /// The phase this timer is measuring.
    pub fn phase(&self) -> &'static str {
        self.phase
    }

    /// Stops the span and records it in `reg`'s wall section. Returns the
    /// elapsed nanoseconds (saturated to `u64`).
    pub fn finish(self, reg: &mut MetricsRegistry) -> u64 {
        let ns = self.t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        reg.record_wall_ns(self.phase, ns);
        ns
    }

    /// Drops the span without recording (e.g. an error path the caller
    /// accounts separately).
    pub fn cancel(self) {}

    /// [`finish`](PhaseTimer::finish) into `reg` when a registry is given
    /// (the driver is profiling), [`cancel`](PhaseTimer::cancel) otherwise.
    pub fn finish_if(self, reg: Option<&mut MetricsRegistry>) {
        if let Some(reg) = reg {
            self.finish(reg);
        }
    }
}

/// Times `f` as one `phase` span of `reg`. Use when the timed region does
/// not need the registry; otherwise use [`PhaseTimer`] directly.
pub fn timed<R>(reg: &mut MetricsRegistry, phase: &'static str, f: impl FnOnce() -> R) -> R {
    let t = PhaseTimer::start(phase);
    let out = f();
    t.finish(reg);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_land_in_the_wall_section_only() {
        let mut reg = MetricsRegistry::new();
        let t = PhaseTimer::start("p");
        assert_eq!(t.phase(), "p");
        t.finish(&mut reg);
        let _ = timed(&mut reg, "p", || 7);
        let h = reg.wall("p").unwrap();
        assert_eq!(h.total(), 2);
        assert!(h.max().unwrap() >= 0);
        assert_eq!(reg.counter("p"), 0, "wall never leaks into counters");
        assert!(reg.hist("p").is_none());
    }

    #[test]
    fn cancel_records_nothing() {
        let reg = MetricsRegistry::new();
        PhaseTimer::start("p").cancel();
        assert!(reg.wall("p").is_none());
        let _ = reg;
    }
}
