//! The trace event type and its JSON-lines encoding.
//!
//! One [`SchedEvent`] corresponds to one [`SchedObserver`] hook firing.
//! The wire format is one JSON object per line, with a fixed `"ev"`
//! discriminant and integer/boolean payload fields — no floats, no
//! timestamps, no thread identity — so a trace is byte-deterministic for
//! a given problem and configuration regardless of how many worker
//! threads scheduled the corpus around it.
//!
//! [`SchedObserver`]: ims_core::SchedObserver

use ims_core::BackendKind;
use ims_testkit::json::{self, json_object, Value};

/// One scheduler event, mirroring the hooks of
/// [`SchedObserver`](ims_core::SchedObserver). Node identities are raw
/// graph indices (`NodeId::index()`), which include the START/STOP
/// pseudo-operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedEvent {
    /// An attempt at candidate II began with the given step budget.
    AttemptStart {
        /// The candidate initiation interval.
        ii: i64,
        /// Operation-scheduling steps (iterative backend) or remaining
        /// branch-and-bound nodes (exact backend) available.
        budget: i64,
        /// Which backend is attempting. Serialized as a `"backend"`
        /// string field; absent in pre-backend traces, which parse as
        /// [`BackendKind::Ims`].
        backend: BackendKind,
    },
    /// An operation was placed.
    OpScheduled {
        /// Graph index of the operation.
        node: u32,
        /// Issue time assigned.
        time: i64,
        /// Reservation-table alternative chosen.
        alt: usize,
        /// Whether the placement was forced (§3.4 displacement).
        forced: bool,
    },
    /// An operation was displaced by another's placement.
    OpEvicted {
        /// Graph index of the displaced operation.
        node: u32,
        /// Graph index of the operation whose placement displaced it.
        evictor: u32,
    },
    /// `FindTimeSlot` examined candidate slots for an operation.
    SlotSearch {
        /// Graph index of the operation.
        node: u32,
        /// The Estart the search began at.
        estart: i64,
        /// Number of slots examined.
        iters: u32,
    },
    /// The attempt at `ii` ran out of budget.
    BudgetExhausted {
        /// The candidate initiation interval.
        ii: i64,
        /// Steps spent before giving up.
        spent: u64,
    },
    /// The attempt at `ii` finished.
    AttemptDone {
        /// The candidate initiation interval.
        ii: i64,
        /// Whether every operation was scheduled.
        ok: bool,
    },
}

impl SchedEvent {
    /// The `"ev"` discriminant this event serializes under.
    pub fn name(&self) -> &'static str {
        match self {
            SchedEvent::AttemptStart { .. } => "attempt_start",
            SchedEvent::OpScheduled { .. } => "op_scheduled",
            SchedEvent::OpEvicted { .. } => "op_evicted",
            SchedEvent::SlotSearch { .. } => "slot_search",
            SchedEvent::BudgetExhausted { .. } => "budget_exhausted",
            SchedEvent::AttemptDone { .. } => "attempt_done",
        }
    }

    /// Renders the event as one JSON object (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let ev = ("ev", Value::Str(self.name().into()));
        match *self {
            SchedEvent::AttemptStart { ii, budget, backend } => json_object(&[
                ev,
                ("ii", Value::Int(ii.into())),
                ("budget", Value::Int(budget.into())),
                ("backend", Value::Str(backend.name().into())),
            ]),
            SchedEvent::OpScheduled {
                node,
                time,
                alt,
                forced,
            } => json_object(&[
                ev,
                ("node", Value::Int(node.into())),
                ("time", Value::Int(time.into())),
                ("alt", Value::Int(alt as i128)),
                ("forced", Value::Bool(forced)),
            ]),
            SchedEvent::OpEvicted { node, evictor } => json_object(&[
                ev,
                ("node", Value::Int(node.into())),
                ("evictor", Value::Int(evictor.into())),
            ]),
            SchedEvent::SlotSearch {
                node,
                estart,
                iters,
            } => json_object(&[
                ev,
                ("node", Value::Int(node.into())),
                ("estart", Value::Int(estart.into())),
                ("iters", Value::Int(iters.into())),
            ]),
            SchedEvent::BudgetExhausted { ii, spent } => json_object(&[
                ev,
                ("ii", Value::Int(ii.into())),
                ("spent", Value::Int(spent.into())),
            ]),
            SchedEvent::AttemptDone { ii, ok } => {
                json_object(&[ev, ("ii", Value::Int(ii.into())), ("ok", Value::Bool(ok))])
            }
        }
    }

    /// Parses one JSON trace line back into an event. Returns `None` for
    /// anything that is not a well-formed event line (not a JSON object,
    /// unknown `"ev"`, missing fields, integers out of their field's
    /// range, wrongly typed payloads).
    pub fn parse(line: &str) -> Option<SchedEvent> {
        let v = json::parse(line).ok()?;
        Some(match v.get("ev")?.as_str()? {
            "attempt_start" => SchedEvent::AttemptStart {
                ii: int(&v, "ii")?,
                budget: int(&v, "budget")?,
                // Traces predating the backend field are iterative ones.
                backend: match v.get("backend") {
                    Some(name) => BackendKind::from_name(name.as_str()?)?,
                    None => BackendKind::Ims,
                },
            },
            "op_scheduled" => SchedEvent::OpScheduled {
                node: int(&v, "node")?,
                time: int(&v, "time")?,
                alt: int(&v, "alt")?,
                forced: v.get("forced")?.as_bool()?,
            },
            "op_evicted" => SchedEvent::OpEvicted {
                node: int(&v, "node")?,
                evictor: int(&v, "evictor")?,
            },
            "slot_search" => SchedEvent::SlotSearch {
                node: int(&v, "node")?,
                estart: int(&v, "estart")?,
                iters: int(&v, "iters")?,
            },
            "budget_exhausted" => SchedEvent::BudgetExhausted {
                ii: int(&v, "ii")?,
                spent: int(&v, "spent")?,
            },
            "attempt_done" => SchedEvent::AttemptDone {
                ii: int(&v, "ii")?,
                ok: v.get("ok")?.as_bool()?,
            },
            _ => return None,
        })
    }
}

/// The integer field `key` of `v`, if present and in range for `T`.
fn int<T: TryFrom<i128>>(v: &Value, key: &str) -> Option<T> {
    v.get(key)?.as_int()
}

/// Parses every line of a trace, skipping lines that are not events
/// (blank lines); returns `None` if any non-blank line fails to parse.
pub fn parse_trace(text: &str) -> Option<Vec<SchedEvent>> {
    let (events, complete) = parse_trace_prefix(text);
    complete.then_some(events)
}

/// Lenient trace parsing for truncated or damaged traces (a crashed or
/// killed run, a partially flushed file): parses the longest well-formed
/// prefix and stops at the first malformed non-blank line. The boolean is
/// `true` when the whole trace parsed (equivalent to [`parse_trace`]
/// succeeding), `false` when the returned events are a proper prefix.
///
/// A line truncated mid-object (the common tail of a killed writer) is
/// malformed, so the prefix never contains a half-written event.
pub fn parse_trace_prefix(text: &str) -> (Vec<SchedEvent>, bool) {
    let mut events = Vec::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match SchedEvent::parse(line) {
            Some(ev) => events.push(ev),
            None => return (events, false),
        }
    }
    (events, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<SchedEvent> {
        vec![
            SchedEvent::AttemptStart {
                ii: 4,
                budget: 12,
                backend: BackendKind::Exact,
            },
            SchedEvent::OpScheduled {
                node: 3,
                time: -2,
                alt: 1,
                forced: true,
            },
            SchedEvent::OpEvicted {
                node: 5,
                evictor: 3,
            },
            SchedEvent::SlotSearch {
                node: 3,
                estart: 7,
                iters: 4,
            },
            SchedEvent::BudgetExhausted { ii: 4, spent: 12 },
            SchedEvent::AttemptDone { ii: 5, ok: true },
        ]
    }

    #[test]
    fn json_roundtrip_every_variant() {
        for ev in all_variants() {
            let line = ev.to_json_line();
            assert_eq!(SchedEvent::parse(&line), Some(ev), "{line}");
        }
    }

    #[test]
    fn lines_are_flat_json_objects() {
        for ev in all_variants() {
            let line = ev.to_json_line();
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(!line.contains('\n'));
            assert!(line.contains(&format!("\"ev\":\"{}\"", ev.name())));
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert_eq!(SchedEvent::parse(""), None);
        assert_eq!(SchedEvent::parse("{}"), None);
        assert_eq!(SchedEvent::parse(r#"{"ev":"unknown","ii":1}"#), None);
        assert_eq!(SchedEvent::parse(r#"{"ev":"attempt_start","ii":1}"#), None);
        assert_eq!(
            SchedEvent::parse(r#"{"ev":"attempt_start","ii":1,"budget":2,"backend":"sa"}"#),
            None,
            "an unknown backend name is malformed, not defaulted"
        );
        assert_eq!(
            SchedEvent::parse(r#"{"ev":"attempt_done","ii":2,"ok":maybe}"#),
            None
        );
        assert_eq!(
            SchedEvent::parse(r#"{"ev":"op_evicted","node":-1,"evictor":2}"#),
            None,
            "a negative node index is out of range, not wrapped"
        );
        assert_eq!(
            SchedEvent::parse(r#"{"ev":"attempt_done","ii":2.0,"ok":true}"#),
            None,
            "payloads are integers"
        );
    }

    #[test]
    fn payload_extremes_round_trip() {
        for ev in [
            SchedEvent::AttemptStart {
                ii: i64::MAX,
                budget: i64::MIN,
                backend: BackendKind::Sat,
            },
            SchedEvent::BudgetExhausted {
                ii: 1,
                spent: u64::MAX,
            },
        ] {
            assert_eq!(SchedEvent::parse(&ev.to_json_line()), Some(ev));
        }
    }

    #[test]
    fn legacy_attempt_start_defaults_to_ims_backend() {
        let ev = SchedEvent::parse(r#"{"ev":"attempt_start","ii":5,"budget":16}"#).unwrap();
        assert_eq!(
            ev,
            SchedEvent::AttemptStart {
                ii: 5,
                budget: 16,
                backend: BackendKind::Ims,
            }
        );
    }

    #[test]
    fn parse_trace_collects_lines_and_skips_blanks() {
        let text = "{\"ev\":\"attempt_start\",\"ii\":2,\"budget\":4}\n\n\
                    {\"ev\":\"attempt_done\",\"ii\":2,\"ok\":true}\n";
        let events = parse_trace(text).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(parse_trace("not json\n"), None);
    }

    #[test]
    fn parse_trace_prefix_recovers_the_wellformed_prefix() {
        let good = "{\"ev\":\"attempt_start\",\"ii\":2,\"budget\":4}\n\
                    {\"ev\":\"attempt_done\",\"ii\":2,\"ok\":true}\n";
        let (events, complete) = parse_trace_prefix(good);
        assert_eq!(events.len(), 2);
        assert!(complete);

        // A writer killed mid-line leaves a truncated object; everything
        // before it survives, the tail is dropped.
        let truncated = format!("{good}{{\"ev\":\"attempt_start\",\"ii\":3,\"bud");
        let (events, complete) = parse_trace_prefix(&truncated);
        assert_eq!(events.len(), 2);
        assert!(!complete);
        assert_eq!(parse_trace(&truncated), None, "strict parsing still rejects");

        // Garbage from the first line: empty prefix, not a panic.
        let (events, complete) = parse_trace_prefix("not json\n");
        assert!(events.is_empty());
        assert!(!complete);
    }
}
