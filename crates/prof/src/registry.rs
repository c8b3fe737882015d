//! The deterministic metrics registry.

use std::collections::BTreeMap;

use ims_stats::Histogram;

use crate::sink::ProfSink;

/// Phase-keyed metrics for one profiled run (or one loop of it).
///
/// Two deterministic sections — counters and histograms — plus a
/// wall-clock section fed by [`PhaseTimer`](crate::PhaseTimer) spans that
/// is kept strictly apart: merging registries, rendering snapshots, and
/// diffing all treat the deterministic sections as byte-comparable across
/// thread counts and the wall section as advisory.
///
/// All maps are `BTreeMap`s keyed by `'static` phase names, so iteration
/// (and therefore snapshot rendering) is deterministically ordered.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
    wall: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter for `phase`.
    pub fn add(&mut self, phase: &'static str, n: u64) {
        *self.counters.entry(phase).or_insert(0) += n;
    }

    /// Records one observation in the deterministic histogram for `phase`.
    pub fn observe(&mut self, phase: &'static str, value: i64) {
        self.hists.entry(phase).or_default().add(value);
    }

    /// Records one wall-clock span of `ns` nanoseconds for `phase`
    /// (usually via [`PhaseTimer`](crate::PhaseTimer)).
    pub fn record_wall_ns(&mut self, phase: &'static str, ns: u64) {
        self.wall
            .entry(phase)
            .or_default()
            .add(ns.min(i64::MAX as u64) as i64);
    }

    /// Merges `other` into `self`: counters sum, histograms
    /// (deterministic and wall) merge. Summing and histogram
    /// merging are commutative and associative, so any merge order over
    /// per-loop registries yields the same totals; the harness still
    /// merges in corpus order for good measure.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, h) in &other.hists {
            self.hists.entry(k).or_default().merge(h);
        }
        for (k, h) in &other.wall {
            self.wall.entry(k).or_default().merge(h);
        }
    }

    /// The counter for `phase` (0 if never touched).
    pub fn counter(&self, phase: &str) -> u64 {
        self.counters.get(phase).copied().unwrap_or(0)
    }

    /// The deterministic histogram for `phase`, if any observation was
    /// recorded.
    pub fn hist(&self, phase: &str) -> Option<&Histogram> {
        self.hists.get(phase)
    }

    /// The wall-span histogram (nanoseconds) for `phase`, if any span was
    /// recorded.
    pub fn wall(&self, phase: &str) -> Option<&Histogram> {
        self.wall.get(phase)
    }

    /// Iterates `(phase, value)` over the counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Iterates `(phase, histogram)` over the deterministic histograms in
    /// name order.
    pub fn hists(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.hists.iter().map(|(k, h)| (*k, h))
    }

    /// Iterates `(phase, span histogram)` over the wall section in name
    /// order.
    pub fn walls(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.wall.iter().map(|(k, h)| (*k, h))
    }

    /// Whether nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty() && self.wall.is_empty()
    }
}

impl ProfSink for MetricsRegistry {
    fn count(&mut self, phase: &'static str, n: u64) {
        self.add(phase, n);
    }
    fn record(&mut self, phase: &'static str, value: i64) {
        self.observe(phase, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_hists_round_trip() {
        let mut r = MetricsRegistry::new();
        assert!(r.is_empty());
        r.add("a", 2);
        r.add("a", 3);
        r.observe("h", 1);
        r.observe("h", 9);
        r.record_wall_ns("w", 100);
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.hist("h").unwrap().total(), 2);
        assert_eq!(r.wall("w").unwrap().total(), 1);
        assert!(!r.is_empty());
    }

    #[test]
    fn merge_is_order_independent_on_the_deterministic_sections() {
        let mk = |c: u64, h: i64| {
            let mut r = MetricsRegistry::new();
            r.add("c", c);
            r.observe("h", h);
            r
        };
        let (a, b, c) = (mk(1, 10), mk(2, 20), mk(3, 30));
        let mut ab = MetricsRegistry::new();
        for r in [&a, &b, &c] {
            ab.merge(r);
        }
        let mut ba = MetricsRegistry::new();
        for r in [&c, &a, &b] {
            ba.merge(r);
        }
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("c"), 6);
        assert_eq!(ab.hist("h").unwrap().total(), 3);
    }

    #[test]
    fn registry_is_a_sink() {
        fn drive<P: ProfSink>(p: &mut P) {
            p.count("work", 4);
            p.record("dist", 2);
        }
        let mut r = MetricsRegistry::new();
        drive(&mut r);
        assert_eq!(r.counter("work"), 4);
        assert_eq!(r.hist("dist").unwrap().count_of(2), 1);
    }
}
