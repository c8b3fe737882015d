//! The zero-cost instrumentation seam.
//!
//! Hot loops (MinDist relaxation, the branch-and-bound search, …) are
//! generic over a [`ProfSink`] and monomorphized per sink type, exactly
//! like the scheduler's `SchedObserver` seam: a real sink (the
//! [`MetricsRegistry`](crate::MetricsRegistry)) aggregates phase-keyed
//! metrics, while the `u64` impl reduces `sink.count(PHASE, n)` to the
//! `*work += n` the code performed before the seam existed — the phase
//! name is a compile-time constant the optimizer drops. Instrumentation
//! therefore costs nothing unless a profile was requested.
//!
//! The schedulers do not take a sink: they report their work to their
//! `SchedObserver`. The prover walk in `ims-exact` hands each decider a
//! sink that forwards every count to the observer's `work` hook, so an
//! engine's statistics travel the same channel as the rest of its run.

/// Receiver for deterministic work metrics, keyed by the `'static` phase
/// names in [`phase`](crate::phase).
pub trait ProfSink {
    /// Adds `n` to the counter for `phase`.
    fn count(&mut self, phase: &'static str, n: u64);

    /// Records one observation of `value` in the histogram for `phase`.
    /// Counter-only sinks (e.g. `u64`) ignore this.
    fn record(&mut self, phase: &'static str, value: i64) {
        let _ = (phase, value);
    }
}

/// A plain work counter is a sink that ignores the phase key. This is
/// what lets `sccs(graph, &mut counters.scc_work)` keep compiling — the
/// pre-existing `&mut u64` threading *is* the null-cost hook.
impl ProfSink for u64 {
    #[inline(always)]
    fn count(&mut self, _phase: &'static str, n: u64) {
        *self += n;
    }
}

/// Forwarding impl so a borrowed sink can be handed down call chains.
impl<P: ProfSink + ?Sized> ProfSink for &mut P {
    #[inline(always)]
    fn count(&mut self, phase: &'static str, n: u64) {
        (**self).count(phase, n);
    }
    #[inline(always)]
    fn record(&mut self, phase: &'static str, value: i64) {
        (**self).record(phase, value);
    }
}

/// An optional sink: forwards to the inner sink when present, discards
/// otherwise — so a driver's `Option<&mut MetricsRegistry>` ("profile
/// only when asked") can be handed to any instrumented call as is.
impl<P: ProfSink> ProfSink for Option<P> {
    #[inline(always)]
    fn count(&mut self, phase: &'static str, n: u64) {
        if let Some(p) = self {
            p.count(phase, n);
        }
    }
    #[inline(always)]
    fn record(&mut self, phase: &'static str, value: i64) {
        if let Some(p) = self {
            p.record(phase, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_sink_sums_and_ignores_records() {
        let mut w = 0u64;
        w.count("any.phase", 3);
        w.count("other.phase", 4);
        w.record("any.phase", 99);
        assert_eq!(w, 7);
    }

    #[test]
    fn forwarding_reaches_the_inner_sink() {
        fn generic<P: ProfSink>(mut p: P) {
            p.count("a", 2);
        }
        let mut w = 0u64;
        generic(&mut w);
        generic(&mut &mut w);
        assert_eq!(w, 4);
        generic(Some(&mut w));
        generic(None::<&mut u64>);
        assert_eq!(w, 6);
    }
}
