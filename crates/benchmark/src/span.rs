//! Layer timing and spans, recorded from outside the crates.
//!
//! Every call the benchmark makes into a layer goes through
//! `Recorder::time`, which adds the call's duration to the layer's busy
//! time. A traced run also keeps one [`Span`] per call in memory, under
//! the span of the loop or batch that caused it; the spans are written as
//! JSON lines only after measuring ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `deps` or `vliw.sim`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The loop index, request index or batch index the call served.
    pub item: u32,
}

/// A layer's share of a traced run, per pass over the load.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Span durations minus the parts covered by child spans, in ms.
    pub self_ms: f64,
    /// Number of spans.
    pub calls: f64,
}

/// Busy-time accumulator and, when tracing, span store.
#[derive(Debug)]
pub(crate) struct Recorder {
    origin: Instant,
    busy: BTreeMap<&'static str, u64>,
    spans: Option<Vec<Span>>,
}

impl Recorder {
    /// A recorder that keeps spans only when `trace` is set.
    pub(crate) fn new(trace: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            busy: BTreeMap::new(),
            spans: trace.then(Vec::new),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` as one call into layer `name`, charging its duration.
    pub(crate) fn time<R>(
        &mut self,
        name: &'static str,
        item: u32,
        parent: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, item, parent, start, Instant::now());
        out
    }

    /// Charges a call into layer `name` that ran from `start` to `end`;
    /// returns its duration in nanoseconds.
    pub(crate) fn record(
        &mut self,
        name: &'static str,
        item: u32,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        *self.busy.entry(name).or_default() += end_ns - start_ns;
        if let Some(spans) = &mut self.spans {
            spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                item,
            });
        }
        end_ns - start_ns
    }

    /// Opens a span that later [`Recorder::time`] calls name as parent.
    /// Returns `None` when not tracing.
    pub(crate) fn open(&mut self, name: &'static str, item: u32) -> Option<u32> {
        let start_ns = self.ns(Instant::now());
        let spans = self.spans.as_mut()?;
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: None,
            item,
        });
        Some(spans.len() as u32 - 1)
    }

    /// Closes a span returned by [`Recorder::open`].
    pub(crate) fn close(&mut self, span: Option<u32>) {
        if let Some(i) = span {
            let end_ns = self.ns(Instant::now());
            if let Some(spans) = self.spans.as_mut() {
                spans[i as usize].end_ns = end_ns;
            }
        }
    }

    /// Busy nanoseconds charged to `name`.
    pub(crate) fn busy_ns(&self, name: &str) -> u64 {
        self.busy.get(name).copied().unwrap_or(0)
    }

    /// Takes the recorded spans (none when not tracing).
    pub(crate) fn take_spans(&mut self) -> Vec<Span> {
        self.spans.take().unwrap_or_default()
    }
}

/// Self time and call count per span name, divided over `passes`.
pub(crate) fn self_times(spans: &[Span], passes: u64) -> BTreeMap<&'static str, SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let (ns, calls) = totals.entry(s.name).or_default();
        *ns += (s.end_ns - s.start_ns).saturating_sub(covered);
        *calls += 1;
    }
    let per_pass = |x: u64| x as f64 / passes as f64;
    totals
        .into_iter()
        .map(|(name, (ns, calls))| {
            (
                name,
                SelfTime {
                    self_ms: per_pass(ns) / 1e6,
                    calls: per_pass(calls),
                },
            )
        })
        .collect()
}

/// The share of root spans named `root` that their child spans cover.
pub(crate) fn coverage(spans: &[Span], root: &str) -> f64 {
    let (mut total, mut covered) = (0u64, 0u64);
    for s in spans {
        match s.parent {
            None if s.name == root => total += s.end_ns - s.start_ns,
            Some(p) if spans[p as usize].name == root => covered += s.end_ns - s.start_ns,
            _ => {}
        }
    }
    if total == 0 {
        0.0
    } else {
        covered as f64 / total as f64
    }
}

/// Writes `spans` as JSON lines, one object per span with its index.
///
/// # Errors
///
/// Any write error.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"item\":{}}}",
            s.name, s.start_ns, s.end_ns, s.item
        )?;
    }
    Ok(())
}
