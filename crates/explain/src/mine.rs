//! Trace mining: attributing spent budget to operations, SCCs and MRT rows.
//!
//! A scheduler trace records *what* happened; this module answers *where
//! the budget went*. One pass over the events (in memory from a
//! [`Recorder`](ims_trace::Recorder), or parsed from an `ims-trace` JSONL
//! file — the two paths see identical event sequences) produces:
//!
//! * the **eviction graph**: who evicted whom, how often, and the longest
//!   displacement chain within one attempt (§3.4's displacement policy can
//!   cascade: an op forced into place displaces another, which displaces
//!   another…);
//! * per-node **slot-search effort**, the `FindTimeSlot` iterations each
//!   operation consumed;
//! * per-**SCC** attribution of evictions and slot effort, connecting the
//!   waste back to the recurrences of the dependence graph;
//! * the **MRT heat map** of the final schedule: how many reservations
//!   each `(resource, row)` cell of the modulo reservation table carries,
//!   exposing the saturated rows that made slot searches long.

use std::collections::BTreeMap;

use ims_core::Problem;
use ims_graph::{sccs, NodeId};
use ims_trace::{SchedEvent, TraceSummary};

/// One edge of the eviction graph: `evictor` displaced `victim` `count`
/// times across the whole trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictionEdge {
    /// Graph index of the operation whose placement displaced the victim.
    pub evictor: u32,
    /// Graph index of the displaced operation.
    pub victim: u32,
    /// Number of times this displacement happened.
    pub count: u64,
}

/// Everything mined from one loop's trace in a single pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceMine {
    /// The per-attempt convergence summary (shared with `trace_report`).
    pub summary: TraceSummary,
    /// The eviction graph, heaviest edge first (ties broken by the
    /// smaller `(evictor, victim)` pair).
    pub eviction_edges: Vec<EvictionEdge>,
    /// The deepest who-evicted-whom chain observed within one attempt: a
    /// placement whose victim's later forced placement displaced another,
    /// and so on. 0 when nothing was evicted.
    pub max_chain: u64,
    /// `FindTimeSlot` iterations per node, descending (ties to the
    /// smaller index).
    pub slot_iters_by_node: Vec<(u32, u64)>,
}

impl TraceMine {
    /// Mines a trace in one pass. Works on complete traces and on
    /// well-formed prefixes of truncated ones alike (see
    /// [`parse_trace_prefix`](ims_trace::parse_trace_prefix)).
    pub fn from_events(events: &[SchedEvent]) -> TraceMine {
        let summary = TraceSummary::from_events(events);
        let mut edges: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        let mut depth: BTreeMap<u32, u64> = BTreeMap::new();
        let mut iters: BTreeMap<u32, u64> = BTreeMap::new();
        let mut max_chain = 0u64;
        for ev in events {
            match *ev {
                SchedEvent::AttemptStart { .. } => depth.clear(),
                SchedEvent::OpEvicted { node, evictor } => {
                    *edges.entry((evictor, node)).or_insert(0) += 1;
                    let d = depth.get(&evictor).copied().unwrap_or(0) + 1;
                    max_chain = max_chain.max(d);
                    depth.insert(node, d);
                }
                SchedEvent::SlotSearch { node, iters: n, .. } => {
                    *iters.entry(node).or_insert(0) += n as u64;
                }
                _ => {}
            }
        }
        let mut eviction_edges: Vec<EvictionEdge> = edges
            .into_iter()
            .map(|((evictor, victim), count)| EvictionEdge {
                evictor,
                victim,
                count,
            })
            .collect();
        eviction_edges.sort_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then(a.evictor.cmp(&b.evictor))
                .then(a.victim.cmp(&b.victim))
        });
        let mut slot_iters_by_node: Vec<(u32, u64)> = iters.into_iter().collect();
        slot_iters_by_node.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        TraceMine {
            summary,
            eviction_edges,
            max_chain,
            slot_iters_by_node,
        }
    }
}

/// Evictions and slot effort attributed to one recurrence SCC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SccAttribution {
    /// The SCC's nodes (ascending graph indices).
    pub nodes: Vec<NodeId>,
    /// Evictions whose *victim* lies in this SCC.
    pub evictions: u64,
    /// `FindTimeSlot` iterations spent on this SCC's nodes.
    pub slot_iters: u64,
}

/// Attributes mined eviction and slot-search effort to the recurrence
/// SCCs of the problem's dependence graph, heaviest first (by evictions,
/// then slot iterations, then the smallest member node).
///
/// Only recurrence SCCs are listed — effort on acyclic nodes is visible
/// per-node in [`TraceMine::slot_iters_by_node`] but has no recurrence to
/// blame.
pub fn attribute_to_sccs(problem: &Problem<'_>, mine: &TraceMine) -> Vec<SccAttribution> {
    let info = sccs(problem.graph(), &mut 0u64);
    let mut out = Vec::new();
    for c in 0..info.components.len() {
        if !info.is_recurrence(c, problem.graph()) {
            continue;
        }
        let nodes = &info.components[c];
        let in_scc = |raw: u32| {
            (raw as usize) < info.component_of.len() && info.component_of[raw as usize] == c
        };
        let evictions = mine
            .summary
            .evicted_by_node
            .iter()
            .filter(|&&(n, _)| in_scc(n))
            .map(|&(_, count)| count)
            .sum();
        let slot_iters = mine
            .slot_iters_by_node
            .iter()
            .filter(|&&(n, _)| in_scc(n))
            .map(|&(_, count)| count)
            .sum();
        out.push(SccAttribution {
            nodes: nodes.clone(),
            evictions,
            slot_iters,
        });
    }
    out.sort_by(|a, b| {
        b.evictions
            .cmp(&a.evictions)
            .then(b.slot_iters.cmp(&a.slot_iters))
            .then(a.nodes.cmp(&b.nodes))
    });
    out
}

/// Reservation pressure on the final schedule's modulo reservation table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MrtHeat {
    /// The II of the final (successful) attempt.
    pub ii: i64,
    /// `rows[resource][row]`: reservations of `resource` at modulo cycle
    /// `row` across the whole schedule.
    pub rows: Vec<Vec<u64>>,
}

impl MrtHeat {
    /// The `k` hottest `(resource, row, count)` cells, hottest first
    /// (ties to the smaller resource, then the smaller row). Cells with a
    /// zero count are never reported.
    pub fn hottest(&self, k: usize) -> Vec<(usize, usize, u64)> {
        let mut cells: Vec<(usize, usize, u64)> = self
            .rows
            .iter()
            .enumerate()
            .flat_map(|(r, rows)| {
                rows.iter()
                    .enumerate()
                    .filter(|&(_, &c)| c > 0)
                    .map(move |(row, &c)| (r, row, c))
            })
            .collect();
        cells.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        cells.truncate(k);
        cells
    }
}

/// Replays a trace's placement events and builds the MRT heat map of the
/// final schedule. Returns `None` when the trace does not end in a
/// successful attempt (failed run or truncated trace).
///
/// The replay honours evictions: a displaced operation's old reservation
/// disappears, exactly as the scheduler's own MRT does, so the heat map
/// reflects the schedule that was actually returned.
pub fn mrt_heat(problem: &Problem<'_>, events: &[SchedEvent]) -> Option<MrtHeat> {
    let mut ii = 0i64;
    let mut ok = false;
    let mut placed: BTreeMap<u32, (i64, usize)> = BTreeMap::new();
    for ev in events {
        match *ev {
            SchedEvent::AttemptStart { ii: cand, .. } => {
                ii = cand;
                ok = false;
                placed.clear();
            }
            SchedEvent::OpScheduled {
                node, time, alt, ..
            } => {
                placed.insert(node, (time, alt));
            }
            SchedEvent::OpEvicted { node, .. } => {
                placed.remove(&node);
            }
            SchedEvent::AttemptDone { ok: done_ok, .. } => ok = done_ok,
            _ => {}
        }
    }
    if !ok || ii < 1 {
        return None;
    }
    let machine = problem.machine();
    let mut rows = vec![vec![0u64; ii as usize]; machine.num_resources()];
    for (&node, &(time, alt)) in &placed {
        let Some(info) = problem.info(NodeId(node)) else {
            continue; // pseudo-op placements reserve nothing
        };
        let Some(alternative) = info.alternatives.get(alt) else {
            continue;
        };
        for &(r, off) in alternative.table.uses() {
            let row = (time + off as i64).rem_euclid(ii) as usize;
            rows[r.index()][row] += 1;
        }
    }
    Some(MrtHeat { ii, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ims_core::{BackendKind, ProblemBuilder, Scheduler};
    use ims_graph::DepKind;
    use ims_ir::{OpId, Opcode};
    use ims_machine::minimal;
    use ims_trace::Recorder;

    fn events() -> Vec<SchedEvent> {
        vec![
            SchedEvent::AttemptStart {
                ii: 2,
                budget: 8,
                backend: BackendKind::Ims,
            },
            SchedEvent::SlotSearch {
                node: 1,
                estart: 0,
                iters: 3,
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
            SchedEvent::SlotSearch {
                node: 2,
                estart: 0,
                iters: 2,
            },
            SchedEvent::OpScheduled {
                node: 2,
                time: 1,
                alt: 0,
                forced: true,
            },
            SchedEvent::OpEvicted {
                node: 3,
                evictor: 2,
            },
            SchedEvent::AttemptDone { ii: 2, ok: false },
            SchedEvent::AttemptStart {
                ii: 3,
                budget: 8,
                backend: BackendKind::Ims,
            },
            SchedEvent::OpEvicted {
                node: 2,
                evictor: 1,
            },
            SchedEvent::AttemptDone { ii: 3, ok: true },
        ]
    }

    #[test]
    fn eviction_graph_counts_and_orders_edges() {
        let mine = TraceMine::from_events(&events());
        assert_eq!(
            mine.eviction_edges,
            vec![
                EvictionEdge {
                    evictor: 1,
                    victim: 2,
                    count: 2
                },
                EvictionEdge {
                    evictor: 2,
                    victim: 3,
                    count: 1
                },
            ]
        );
        let total: u64 = mine.eviction_edges.iter().map(|e| e.count).sum();
        assert_eq!(total, mine.summary.evictions);
    }

    #[test]
    fn chains_reset_between_attempts() {
        // Attempt 1: 1 evicts 2 (depth 1), then 2 evicts 3 (depth 2).
        // Attempt 2: 1 evicts 2 again — but the chain restarts at 1.
        let mine = TraceMine::from_events(&events());
        assert_eq!(mine.max_chain, 2);
    }

    #[test]
    fn slot_effort_is_per_node() {
        let mine = TraceMine::from_events(&events());
        assert_eq!(mine.slot_iters_by_node, vec![(1, 3), (2, 2)]);
    }

    #[test]
    fn empty_trace_mines_to_nothing() {
        let mine = TraceMine::from_events(&[]);
        assert_eq!(mine, TraceMine::default());
        assert_eq!(mine.max_chain, 0);
    }

    #[test]
    fn scc_attribution_blames_the_recurrence() {
        // Nodes 1<->2 form the only recurrence; node 3 is acyclic.
        let m = minimal();
        let mut pb = ProblemBuilder::new(&m);
        let a = pb.add_op(Opcode::Add, OpId(0));
        let b = pb.add_op(Opcode::Add, OpId(1));
        let _c = pb.add_op(Opcode::Add, OpId(2));
        pb.add_dep(a, b, 1, 0, DepKind::Flow, false);
        pb.add_dep(b, a, 1, 1, DepKind::Flow, false);
        let p = pb.finish();
        let mine = TraceMine::from_events(&events());
        let sccs = attribute_to_sccs(&p, &mine);
        assert_eq!(sccs.len(), 1);
        assert_eq!(sccs[0].nodes, vec![a, b]);
        // Victim 2 (×2 evictions) lies in the SCC; victim 3 does not.
        assert_eq!(sccs[0].evictions, 2);
        assert_eq!(sccs[0].slot_iters, 5);
    }

    #[test]
    fn mrt_heat_reflects_the_final_schedule_only() {
        // minimal(): one unit, every op reserves it at offset 0.
        let m = minimal();
        let mut pb = ProblemBuilder::new(&m);
        let a = pb.add_op(Opcode::Add, OpId(0));
        let b = pb.add_op(Opcode::Add, OpId(1));
        pb.add_dep(a, b, 1, 0, DepKind::Flow, false);
        let p = pb.finish();
        let events = vec![
            SchedEvent::AttemptStart {
                ii: 2,
                budget: 8,
                backend: BackendKind::Ims,
            },
            SchedEvent::OpScheduled {
                node: 1,
                time: 0,
                alt: 0,
                forced: false,
            },
            // This placement is later evicted; it must not leak heat.
            SchedEvent::OpScheduled {
                node: 2,
                time: 2,
                alt: 0,
                forced: false,
            },
            SchedEvent::OpEvicted {
                node: 2,
                evictor: 1,
            },
            SchedEvent::OpScheduled {
                node: 2,
                time: 1,
                alt: 0,
                forced: true,
            },
            SchedEvent::AttemptDone { ii: 2, ok: true },
        ];
        let heat = mrt_heat(&p, &events).expect("final attempt succeeded");
        assert_eq!(heat.ii, 2);
        // One unit, rows 0 and 1 carry one reservation each.
        let unit: Vec<u64> = heat.rows.iter().map(|r| r.iter().sum()).collect();
        assert_eq!(unit.iter().sum::<u64>(), 2);
        assert_eq!(heat.hottest(10).len(), 2);
        assert_eq!(heat.rows[heat.hottest(1)[0].0].iter().sum::<u64>(), 2);
    }

    #[test]
    fn mrt_heat_declines_failed_and_truncated_traces() {
        let m = minimal();
        let p = ProblemBuilder::new(&m).finish();
        // Failed final attempt.
        let failed = vec![
            SchedEvent::AttemptStart {
                ii: 1,
                budget: 1,
                backend: BackendKind::Ims,
            },
            SchedEvent::AttemptDone { ii: 1, ok: false },
        ];
        assert!(mrt_heat(&p, &failed).is_none());
        // Truncated: attempt never resolved.
        let truncated = vec![SchedEvent::AttemptStart {
            ii: 1,
            budget: 1,
            backend: BackendKind::Ims,
        }];
        assert!(mrt_heat(&p, &truncated).is_none());
        assert!(mrt_heat(&p, &[]).is_none());
    }

    #[test]
    fn mined_totals_match_a_real_run() {
        // Record a genuine scheduler run and check the mined quantities
        // against the scheduler's own counters.
        let m = minimal();
        let mut pb = ProblemBuilder::new(&m);
        let mut prev = None;
        for i in 0..4 {
            let n = pb.add_op(Opcode::Add, OpId(i));
            if let Some(p) = prev {
                pb.add_dep(p, n, 1, 0, DepKind::Flow, false);
            }
            prev = Some(n);
        }
        let p = pb.finish();
        let mut rec = Recorder::new();
        let out = Scheduler::new(&p).observer(&mut rec).run().unwrap();
        let mine = TraceMine::from_events(&rec.events);
        assert_eq!(mine.summary.evictions, out.stats.counters.evictions);
        assert_eq!(
            mine.summary.slots_examined,
            out.stats.counters.findslot_iters
        );
        let heat = mrt_heat(&p, &rec.events).expect("run succeeded");
        assert_eq!(heat.ii, out.schedule.ii);
        // Every real op reserves the single unit exactly once.
        let total: u64 = heat.rows.iter().flatten().sum();
        assert_eq!(total, 4);
    }
}
