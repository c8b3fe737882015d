//! Per-loop convergence summaries derived from a trace.

use ims_core::BackendKind;

use crate::event::SchedEvent;

/// One candidate-II attempt as reconstructed from a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttemptSummary {
    /// The candidate initiation interval.
    pub ii: i64,
    /// The step budget the attempt started with.
    pub budget: i64,
    /// Real-operation scheduling steps spent (slot searches performed).
    pub steps: u64,
    /// Operations displaced during this attempt.
    pub evictions: u64,
    /// `FindTimeSlot` slots examined during this attempt.
    pub slot_iters: u64,
    /// Whether the attempt produced a schedule.
    pub ok: bool,
}

/// Everything a convergence report needs about one scheduled loop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// The backend that produced the trace, from its `AttemptStart`
    /// events ([`BackendKind::Ims`] for a trace with none).
    pub backend: BackendKind,
    /// Every candidate-II attempt, in order.
    pub attempts: Vec<AttemptSummary>,
    /// Total operations displaced across all attempts.
    pub evictions: u64,
    /// Eviction count per node, descending (ties to the smaller index).
    pub evicted_by_node: Vec<(u32, u64)>,
    /// Total `FindTimeSlot` slots examined across all attempts.
    pub slots_examined: u64,
    /// Whether the trace ended inside an attempt (an `attempt_start`
    /// without its `attempt_done`) — the signature of a truncated trace.
    /// The partial attempt's counts are still summarized; it is simply
    /// not a *failed* attempt, so [`TraceSummary::wasted_steps`] excludes
    /// it.
    pub mid_attempt: bool,
}

impl TraceSummary {
    /// Builds the summary by scanning a trace once.
    pub fn from_events(events: &[SchedEvent]) -> TraceSummary {
        let mut s = TraceSummary::default();
        let mut evict_counts: std::collections::BTreeMap<u32, u64> = Default::default();
        for ev in events {
            match *ev {
                SchedEvent::AttemptStart {
                    ii,
                    budget,
                    backend,
                } => {
                    s.backend = backend;
                    s.mid_attempt = true;
                    s.attempts.push(AttemptSummary {
                        ii,
                        budget,
                        steps: 0,
                        evictions: 0,
                        slot_iters: 0,
                        ok: false,
                    });
                }
                SchedEvent::SlotSearch { iters, .. } => {
                    s.slots_examined += iters as u64;
                    if let Some(a) = s.attempts.last_mut() {
                        a.steps += 1;
                        a.slot_iters += iters as u64;
                    }
                }
                SchedEvent::OpEvicted { node, .. } => {
                    s.evictions += 1;
                    *evict_counts.entry(node).or_insert(0) += 1;
                    if let Some(a) = s.attempts.last_mut() {
                        a.evictions += 1;
                    }
                }
                SchedEvent::AttemptDone { ii, ok } => {
                    s.mid_attempt = false;
                    if let Some(a) = s.attempts.last_mut() {
                        debug_assert_eq!(a.ii, ii);
                        a.ok = ok;
                    }
                }
                SchedEvent::OpScheduled { .. } | SchedEvent::BudgetExhausted { .. } => {}
            }
        }
        s.evicted_by_node = evict_counts.into_iter().collect();
        s.evicted_by_node
            .sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        s
    }

    /// The II the run converged to, if the last attempt succeeded.
    pub fn final_ii(&self) -> Option<i64> {
        self.attempts.last().filter(|a| a.ok).map(|a| a.ii)
    }

    /// Steps spent on attempts that did **not** produce the final
    /// schedule — the budget "wasted" before convergence. An attempt a
    /// truncated trace ended inside is *unresolved*, not failed, so it is
    /// excluded.
    pub fn wasted_steps(&self) -> u64 {
        let resolved = self.attempts.len() - usize::from(self.mid_attempt);
        self.attempts[..resolved]
            .iter()
            .filter(|a| !a.ok)
            .map(|a| a.steps)
            .sum()
    }

    /// Total steps across all attempts.
    pub fn total_steps(&self) -> u64 {
        self.attempts.iter().map(|a| a.steps).sum()
    }

    /// A compact one-loop convergence line:
    /// `IIs tried, final II, steps (wasted), evictions, top-evicted ops`.
    pub fn render_line(&self, label: &str) -> String {
        let last = self.attempts.len().wrapping_sub(1);
        let iis: Vec<String> = self
            .attempts
            .iter()
            .enumerate()
            .map(|(i, a)| {
                if a.ok {
                    format!("{}✓", a.ii)
                } else if self.mid_attempt && i == last {
                    // The trace ended inside this attempt: outcome unknown.
                    format!("{}…", a.ii)
                } else {
                    format!("{}✗", a.ii)
                }
            })
            .collect();
        let top: Vec<String> = self
            .evicted_by_node
            .iter()
            .take(3)
            .map(|(n, c)| format!("n{n}×{c}"))
            .collect();
        format!(
            "{label}: [{}] IIs [{}] steps {} (wasted {}) evictions {}{}{}",
            self.backend,
            iis.join(" "),
            self.total_steps(),
            self.wasted_steps(),
            self.evictions,
            if top.is_empty() {
                String::new()
            } else {
                format!(" top [{}]", top.join(" "))
            },
            if self.mid_attempt { " (truncated)" } else { "" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<SchedEvent> {
        vec![
            SchedEvent::AttemptStart {
                ii: 4,
                budget: 4,
                backend: BackendKind::Ims,
            },
            SchedEvent::SlotSearch {
                node: 1,
                estart: 0,
                iters: 4,
            },
            SchedEvent::OpScheduled {
                node: 1,
                time: 0,
                alt: 0,
                forced: true,
            },
            SchedEvent::OpEvicted {
                node: 2,
                evictor: 1,
            },
            SchedEvent::BudgetExhausted { ii: 4, spent: 1 },
            SchedEvent::AttemptDone { ii: 4, ok: false },
            SchedEvent::AttemptStart {
                ii: 5,
                budget: 4,
                backend: BackendKind::Ims,
            },
            SchedEvent::SlotSearch {
                node: 1,
                estart: 0,
                iters: 1,
            },
            SchedEvent::SlotSearch {
                node: 2,
                estart: 0,
                iters: 2,
            },
            SchedEvent::AttemptDone { ii: 5, ok: true },
        ]
    }

    #[test]
    fn summary_reconstructs_attempts_and_evictions() {
        let s = TraceSummary::from_events(&sample());
        assert_eq!(s.attempts.len(), 2);
        assert_eq!(s.attempts[0].steps, 1);
        assert!(!s.attempts[0].ok);
        assert_eq!(s.attempts[1].steps, 2);
        assert!(s.attempts[1].ok);
        assert_eq!(s.final_ii(), Some(5));
        assert_eq!(s.wasted_steps(), 1);
        assert_eq!(s.total_steps(), 3);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.evicted_by_node, vec![(2, 1)]);
        assert_eq!(s.slots_examined, 7);
        assert!(!s.mid_attempt);
        // Per-attempt accounting splits the totals exactly.
        assert_eq!(s.attempts[0].evictions, 1);
        assert_eq!(s.attempts[1].evictions, 0);
        assert_eq!(s.attempts[0].slot_iters, 4);
        assert_eq!(s.attempts[1].slot_iters, 3);
        assert_eq!(
            s.attempts.iter().map(|a| a.evictions).sum::<u64>(),
            s.evictions
        );
        assert_eq!(
            s.attempts.iter().map(|a| a.slot_iters).sum::<u64>(),
            s.slots_examined
        );
    }

    #[test]
    fn empty_trace_yields_an_empty_summary() {
        let s = TraceSummary::from_events(&[]);
        assert_eq!(s, TraceSummary::default());
        assert_eq!(s.final_ii(), None);
        assert_eq!(s.wasted_steps(), 0);
        assert_eq!(s.total_steps(), 0);
        assert!(!s.mid_attempt);
        // Rendering an empty summary must not panic either.
        let line = s.render_line("empty");
        assert!(line.contains("steps 0"), "{line}");
    }

    #[test]
    fn budget_exhausted_only_run_counts_every_attempt_as_wasted() {
        // Every attempt exhausts its budget and fails; no convergence.
        let events = vec![
            SchedEvent::AttemptStart {
                ii: 3,
                budget: 2,
                backend: BackendKind::Ims,
            },
            SchedEvent::SlotSearch {
                node: 1,
                estart: 0,
                iters: 3,
            },
            SchedEvent::SlotSearch {
                node: 2,
                estart: 1,
                iters: 2,
            },
            SchedEvent::BudgetExhausted { ii: 3, spent: 2 },
            SchedEvent::AttemptDone { ii: 3, ok: false },
            SchedEvent::AttemptStart {
                ii: 4,
                budget: 2,
                backend: BackendKind::Ims,
            },
            SchedEvent::SlotSearch {
                node: 1,
                estart: 0,
                iters: 1,
            },
            SchedEvent::BudgetExhausted { ii: 4, spent: 1 },
            SchedEvent::AttemptDone { ii: 4, ok: false },
        ];
        let s = TraceSummary::from_events(&events);
        assert_eq!(s.final_ii(), None);
        assert_eq!(s.total_steps(), 3);
        assert_eq!(s.wasted_steps(), 3, "all attempts failed, all wasted");
        assert!(!s.mid_attempt, "both attempts resolved");
        assert_eq!(s.attempts[0].slot_iters, 5);
        assert_eq!(s.attempts[1].slot_iters, 1);
    }

    #[test]
    fn truncated_trace_summarizes_the_open_attempt_without_calling_it_wasted() {
        // The trace ends mid-attempt: attempt 5's outcome is unknown.
        let mut events = sample();
        events.truncate(8); // drop attempt 5's final SlotSearch + AttemptDone
        events.push(SchedEvent::OpEvicted {
            node: 3,
            evictor: 1,
        });
        let s = TraceSummary::from_events(&events);
        assert!(s.mid_attempt);
        assert_eq!(s.final_ii(), None, "no bogus convergence claim");
        assert_eq!(s.attempts.len(), 2);
        assert_eq!(s.attempts[1].steps, 1, "partial attempt still counted");
        assert_eq!(s.attempts[1].evictions, 1);
        assert_eq!(s.wasted_steps(), 1, "only the resolved failed attempt");
        assert_eq!(s.evictions, 2);
        let line = s.render_line("cut");
        assert!(line.contains("5…"), "unresolved attempt marked: {line}");
        assert!(line.contains("(truncated)"), "{line}");
    }

    #[test]
    fn render_line_mentions_the_key_quantities() {
        let line = TraceSummary::from_events(&sample()).render_line("loop 7");
        assert!(line.contains("loop 7"), "{line}");
        assert!(line.contains("[ims]"), "{line}");
        assert!(line.contains("4✗ 5✓"), "{line}");
        assert!(line.contains("wasted 1"), "{line}");
        assert!(line.contains("n2×1"), "{line}");
    }

    #[test]
    fn failed_run_has_no_final_ii() {
        let s = TraceSummary::from_events(&[
            SchedEvent::AttemptStart {
                ii: 2,
                budget: 1,
                backend: BackendKind::Exact,
            },
            SchedEvent::AttemptDone { ii: 2, ok: false },
        ]);
        assert_eq!(s.final_ii(), None);
        assert_eq!(s.backend, BackendKind::Exact);
    }
}
