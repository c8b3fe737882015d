//! The phase-name registry.
//!
//! Every metric the pipeline emits is keyed by one of these `'static`
//! names, namespaced `<crate>.<activity>[.<detail>]`. Keeping the names
//! here (rather than scattered string literals) gives snapshots a stable,
//! documented schema: `profile_report` can describe any phase it
//! encounters, and DESIGN.md §5c documents the same list.

/// What kind of metric a phase name keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// A deterministic work counter (monotonic sum).
    Counter,
    /// A deterministic per-event distribution ([`ims_stats::Histogram`]).
    Hist,
    /// A wall-clock span distribution (non-deterministic; kept in the
    /// snapshot's separate `wall` section).
    Wall,
}

/// One documented phase name.
#[derive(Debug, Clone, Copy)]
pub struct PhaseDesc {
    /// The registry key.
    pub name: &'static str,
    /// The metric kind.
    pub kind: PhaseKind,
    /// One-line description, shown by `profile_report`.
    pub what: &'static str,
}

// ---- graph ----
/// SCC identification work: nodes visited + edges examined.
pub const GRAPH_SCC_WORK: &str = "graph.scc.work";
/// MinDist relaxations: innermost-loop executions of `ComputeMinDist`.
pub const GRAPH_MINDIST_WORK: &str = "graph.mindist.work";
/// Elementary-circuit enumeration: path-extension steps in Tiernan's
/// search.
pub const GRAPH_CIRCUITS_WORK: &str = "graph.circuits.work";

// ---- machine / MRT ----
/// Reservation-table cells examined by modulo-reservation-table queries
/// (each conflict probe costs the probing table's full footprint,
/// independent of early exit, so the count is deterministic).
pub const MACHINE_MRT_PROBES: &str = "machine.mrt.probes";

// ---- iterative scheduler (ims-core) ----
/// ResMII bin-packing: resource usages inspected.
pub const SCHED_RESMII_WORK: &str = "sched.resmii.work";
/// HeightR priority computation: edge relaxations.
pub const SCHED_HEIGHTR_WORK: &str = "sched.heightr.work";
/// Estart computation: immediate predecessors examined.
pub const SCHED_ESTART_PREDS: &str = "sched.estart.preds";
/// FindTimeSlot: candidate time slots examined.
pub const SCHED_FINDSLOT_ITERS: &str = "sched.findslot.iters";
/// Operations displaced by the §3.4 eviction policy.
pub const SCHED_EVICTIONS: &str = "sched.evictions";
/// Real-operation scheduling steps across all II attempts.
pub const SCHED_STEPS: &str = "sched.steps";
/// Candidate-II attempts started.
pub const SCHED_ATTEMPTS: &str = "sched.attempts";
/// Candidate-II attempts that ran out of budget.
pub const SCHED_ATTEMPTS_FAILED: &str = "sched.attempts.failed";

// ---- exact branch-and-bound (ims-exact) ----
/// Branch-and-bound nodes expanded (placements tried).
pub const EXACT_NODES: &str = "exact.bnb.nodes";
/// Failed-state memoization hits (subtrees skipped).
pub const EXACT_MEMO_HITS: &str = "exact.memo.hits";
/// Failed-state memoization entries inserted.
pub const EXACT_MEMO_INSERTS: &str = "exact.memo.inserts";
/// Subtrees pruned because the MinDist window was empty.
pub const EXACT_PRUNE_WINDOW: &str = "exact.prune.window";
/// Slot/alternative pairs skipped on MRT conflicts.
pub const EXACT_PRUNE_MRT: &str = "exact.prune.mrt";
/// Candidate IIs searched exhaustively.
pub const EXACT_IIS_SEARCHED: &str = "exact.iis.searched";
/// Candidate IIs proven infeasible (before resources, by a positive
/// MinDist diagonal, or exhaustively).
pub const EXACT_IIS_INFEASIBLE: &str = "exact.iis.infeasible";
/// Searches aborted by the node budget or deadline.
pub const EXACT_LIMIT_HITS: &str = "exact.limit.hits";

// ---- exact SAT backend (ims-sat) ----
/// CNF variables allocated across all per-II encodings.
pub const SAT_VARS: &str = "sat.vars";
/// CNF clauses added across all per-II encodings (original, not learned).
pub const SAT_CLAUSES: &str = "sat.clauses";
/// At-most-one resource rows added across all per-II encodings.
pub const SAT_ROWS: &str = "sat.rows";
/// CDCL conflicts analyzed.
pub const SAT_CONFLICTS: &str = "sat.conflicts";
/// CDCL decisions made.
pub const SAT_DECISIONS: &str = "sat.decisions";
/// Unit propagations performed.
pub const SAT_PROPAGATIONS: &str = "sat.propagations";
/// Solver restarts (Luby schedule).
pub const SAT_RESTARTS: &str = "sat.restarts";
/// Candidate IIs decided by the SAT backend.
pub const SAT_IIS_SEARCHED: &str = "sat.iis.searched";
/// Candidate IIs the SAT backend proved infeasible.
pub const SAT_IIS_INFEASIBLE: &str = "sat.iis.infeasible";
/// Decisions aborted by the conflict/clause/slot caps.
pub const SAT_LIMIT_HITS: &str = "sat.limit.hits";

// ---- register pressure (ims-press) ----
/// Lifetime-interval applications/removals by the incremental MaxLive
/// tracker (each costs O(lifetime length) row updates).
pub const PRESS_MAXLIVE_UPDATES: &str = "press.maxlive.updates";
/// Placements vetoed for exceeding the pressure limit (`FindTimeSlot`
/// treats the slot as a resource conflict and keeps searching).
pub const PRESS_REJECTS: &str = "press.rejects";
/// Completed attempts rejected for pressure (MaxLive or rotating fit),
/// each bumping the candidate II.
pub const PRESS_II_BUMPS: &str = "press.ii_bumps";

// ---- code generation (ims-codegen) ----
/// Instructions emitted (prologue + unrolled kernel + coda).
pub const CODEGEN_INSTS: &str = "codegen.insts";
/// Kernel unroll factors (summed over loops).
pub const CODEGEN_UNROLL: &str = "codegen.unroll";
/// Kernel stage counts (summed over loops).
pub const CODEGEN_STAGES: &str = "codegen.stages";
/// Registers preloaded before the first instruction.
pub const CODEGEN_SEEDS: &str = "codegen.seeds";
/// Static register names created by modulo variable expansion.
pub const CODEGEN_LIFETIME_NAMES: &str = "codegen.lifetime.names";

// ---- VLIW simulation (ims-vliw) ----
/// Simulated machine cycles executed.
pub const VLIW_SIM_CYCLES: &str = "vliw.sim.cycles";
/// Loops simulated to completion.
pub const VLIW_SIM_LOOPS: &str = "vliw.sim.loops";

// ---- harness ----
/// Corpus loops measured.
pub const CORPUS_LOOPS: &str = "corpus.loops";
/// Real operations across all measured loops.
pub const CORPUS_OPS: &str = "corpus.ops";

// ---- scheduling service (ims-serve) ----
/// Requests answered by the scheduling service (one per input line).
pub const SERVE_REQUESTS: &str = "serve.requests";
/// Responses served from a pre-existing content-addressed cache entry.
pub const SERVE_CACHE_HITS: &str = "serve.cache.hits";
/// Responses that required scheduling a new canonical problem.
pub const SERVE_CACHE_MISSES: &str = "serve.cache.misses";
/// Responses with `ok:false` (parse rejections, scheduling errors,
/// contained worker panics).
pub const SERVE_FAILED: &str = "serve.requests.failed";

// ---- II-attribution diagnostics (ims-explain) ----
/// Loops explained (MII attributed, trace mined when available).
pub const EXPLAIN_LOOPS: &str = "explain.loops";
/// Loops whose MII is purely resource-bound (ResMII > RecMII).
pub const EXPLAIN_BOUND_RES: &str = "explain.bound.res";
/// Loops whose MII is purely recurrence-bound (RecMII > ResMII).
pub const EXPLAIN_BOUND_REC: &str = "explain.bound.rec";
/// Loops where both bounds tie (ResMII == RecMII == MII).
pub const EXPLAIN_BOUND_BOTH: &str = "explain.bound.both";
/// Loops that converged strictly above their MII (an attributable gap).
pub const EXPLAIN_GAP_LOOPS: &str = "explain.gap.loops";
/// Scheduling steps spent on failed II attempts, summed over explained
/// loops (the "wasted budget" the concentration report ranks by).
pub const EXPLAIN_WASTED_STEPS: &str = "explain.wasted.steps";
/// Recurrence-bound loops whose circuit enumeration hit its cap, falling
/// back to the MinDist critical-node set for attribution.
pub const EXPLAIN_CIRCUITS_TRUNCATED: &str = "explain.circuits.truncated";

// ---- deterministic distributions ----
/// Slots examined per `FindTimeSlot` call (per real operation placement).
pub const HIST_SLOT_SEARCH: &str = "sched.slot_search.iters";
/// Predecessor edges examined per Estart computation.
pub const HIST_ESTART_PREDS: &str = "sched.estart.preds_per_op";

// ---- wall-clock spans (non-deterministic section) ----
/// Back-substitution + dependence-graph construction, per loop.
pub const WALL_BUILD: &str = "build";
/// Iterative (or internal heuristic) scheduling, per loop.
pub const WALL_SCHED: &str = "sched";
/// Exact branch-and-bound scheduling, per loop.
pub const WALL_EXACT: &str = "exact";
/// Exact SAT scheduling, per loop.
pub const WALL_SAT: &str = "sat";
/// Lifetime analysis + MVE code generation, per loop.
pub const WALL_CODEGEN: &str = "codegen";
/// Overlapped VLIW simulation, per loop.
pub const WALL_VLIW: &str = "vliw.sim";
/// Whole per-loop pipeline (all of the above).
pub const WALL_LOOP: &str = "loop.total";

/// Every documented phase, in rendering order.
#[rustfmt::skip] // one phase per line, read as a table
pub const REGISTRY: &[PhaseDesc] = &[
    PhaseDesc { name: GRAPH_SCC_WORK, kind: PhaseKind::Counter, what: "SCC identification: nodes visited + edges examined" },
    PhaseDesc { name: GRAPH_MINDIST_WORK, kind: PhaseKind::Counter, what: "MinDist relaxations (ComputeMinDist innermost loop)" },
    PhaseDesc { name: GRAPH_CIRCUITS_WORK, kind: PhaseKind::Counter, what: "elementary-circuit enumeration steps (Tiernan)" },
    PhaseDesc { name: MACHINE_MRT_PROBES, kind: PhaseKind::Counter, what: "reservation-table cells examined by MRT queries" },
    PhaseDesc { name: SCHED_RESMII_WORK, kind: PhaseKind::Counter, what: "ResMII bin-packing: resource usages inspected" },
    PhaseDesc { name: SCHED_HEIGHTR_WORK, kind: PhaseKind::Counter, what: "HeightR priority: edge relaxations" },
    PhaseDesc { name: SCHED_ESTART_PREDS, kind: PhaseKind::Counter, what: "Estart: immediate predecessors examined" },
    PhaseDesc { name: SCHED_FINDSLOT_ITERS, kind: PhaseKind::Counter, what: "FindTimeSlot: candidate slots examined" },
    PhaseDesc { name: SCHED_EVICTIONS, kind: PhaseKind::Counter, what: "operations displaced (§3.4 eviction policy)" },
    PhaseDesc { name: SCHED_STEPS, kind: PhaseKind::Counter, what: "operation-scheduling steps, all II attempts" },
    PhaseDesc { name: SCHED_ATTEMPTS, kind: PhaseKind::Counter, what: "candidate-II attempts started" },
    PhaseDesc { name: SCHED_ATTEMPTS_FAILED, kind: PhaseKind::Counter, what: "candidate-II attempts that exhausted their budget" },
    PhaseDesc { name: EXACT_NODES, kind: PhaseKind::Counter, what: "branch-and-bound nodes expanded" },
    PhaseDesc { name: EXACT_MEMO_HITS, kind: PhaseKind::Counter, what: "failed-state memo hits" },
    PhaseDesc { name: EXACT_MEMO_INSERTS, kind: PhaseKind::Counter, what: "failed-state memo inserts" },
    PhaseDesc { name: EXACT_PRUNE_WINDOW, kind: PhaseKind::Counter, what: "subtrees pruned on an empty MinDist window" },
    PhaseDesc { name: EXACT_PRUNE_MRT, kind: PhaseKind::Counter, what: "slot/alternative pairs skipped on MRT conflicts" },
    PhaseDesc { name: EXACT_IIS_SEARCHED, kind: PhaseKind::Counter, what: "candidate IIs searched exhaustively" },
    PhaseDesc { name: EXACT_IIS_INFEASIBLE, kind: PhaseKind::Counter, what: "candidate IIs proven infeasible" },
    PhaseDesc { name: EXACT_LIMIT_HITS, kind: PhaseKind::Counter, what: "searches aborted by budget or deadline" },
    PhaseDesc { name: SAT_VARS, kind: PhaseKind::Counter, what: "CNF variables allocated (all per-II encodings)" },
    PhaseDesc { name: SAT_CLAUSES, kind: PhaseKind::Counter, what: "CNF clauses added (original, not learned)" },
    PhaseDesc { name: SAT_ROWS, kind: PhaseKind::Counter, what: "at-most-one rows added, one per resource and MRT row" },
    PhaseDesc { name: SAT_CONFLICTS, kind: PhaseKind::Counter, what: "CDCL conflicts analyzed" },
    PhaseDesc { name: SAT_DECISIONS, kind: PhaseKind::Counter, what: "CDCL decisions made" },
    PhaseDesc { name: SAT_PROPAGATIONS, kind: PhaseKind::Counter, what: "unit propagations performed" },
    PhaseDesc { name: SAT_RESTARTS, kind: PhaseKind::Counter, what: "solver restarts (Luby schedule)" },
    PhaseDesc { name: SAT_IIS_SEARCHED, kind: PhaseKind::Counter, what: "candidate IIs decided by SAT" },
    PhaseDesc { name: SAT_IIS_INFEASIBLE, kind: PhaseKind::Counter, what: "candidate IIs proven infeasible by SAT" },
    PhaseDesc { name: SAT_LIMIT_HITS, kind: PhaseKind::Counter, what: "SAT decisions aborted by conflict/clause/slot caps" },
    PhaseDesc { name: PRESS_MAXLIVE_UPDATES, kind: PhaseKind::Counter, what: "lifetime-interval updates by the MaxLive tracker" },
    PhaseDesc { name: PRESS_REJECTS, kind: PhaseKind::Counter, what: "placements vetoed for exceeding the pressure limit" },
    PhaseDesc { name: PRESS_II_BUMPS, kind: PhaseKind::Counter, what: "attempts rejected for pressure, bumping the II" },
    PhaseDesc { name: CODEGEN_INSTS, kind: PhaseKind::Counter, what: "instructions emitted (prologue+kernel+coda)" },
    PhaseDesc { name: CODEGEN_UNROLL, kind: PhaseKind::Counter, what: "kernel unroll factors (summed)" },
    PhaseDesc { name: CODEGEN_STAGES, kind: PhaseKind::Counter, what: "kernel stage counts (summed)" },
    PhaseDesc { name: CODEGEN_SEEDS, kind: PhaseKind::Counter, what: "preloaded registers" },
    PhaseDesc { name: CODEGEN_LIFETIME_NAMES, kind: PhaseKind::Counter, what: "static names created by MVE" },
    PhaseDesc { name: VLIW_SIM_CYCLES, kind: PhaseKind::Counter, what: "simulated machine cycles" },
    PhaseDesc { name: VLIW_SIM_LOOPS, kind: PhaseKind::Counter, what: "loops simulated to completion" },
    PhaseDesc { name: SERVE_REQUESTS, kind: PhaseKind::Counter, what: "service requests answered" },
    PhaseDesc { name: SERVE_CACHE_HITS, kind: PhaseKind::Counter, what: "responses served from the content-addressed cache" },
    PhaseDesc { name: SERVE_CACHE_MISSES, kind: PhaseKind::Counter, what: "responses that scheduled a new canonical problem" },
    PhaseDesc { name: SERVE_FAILED, kind: PhaseKind::Counter, what: "ok:false responses (parse/schedule/panic failures)" },
    PhaseDesc { name: CORPUS_LOOPS, kind: PhaseKind::Counter, what: "corpus loops measured" },
    PhaseDesc { name: CORPUS_OPS, kind: PhaseKind::Counter, what: "real operations across measured loops" },
    PhaseDesc { name: EXPLAIN_LOOPS, kind: PhaseKind::Counter, what: "loops explained (MII attributed, trace mined)" },
    PhaseDesc { name: EXPLAIN_BOUND_RES, kind: PhaseKind::Counter, what: "loops purely resource-bound (ResMII > RecMII)" },
    PhaseDesc { name: EXPLAIN_BOUND_REC, kind: PhaseKind::Counter, what: "loops purely recurrence-bound (RecMII > ResMII)" },
    PhaseDesc { name: EXPLAIN_BOUND_BOTH, kind: PhaseKind::Counter, what: "loops where ResMII and RecMII tie" },
    PhaseDesc { name: EXPLAIN_GAP_LOOPS, kind: PhaseKind::Counter, what: "loops converging strictly above their MII" },
    PhaseDesc { name: EXPLAIN_WASTED_STEPS, kind: PhaseKind::Counter, what: "steps spent on failed II attempts (explained loops)" },
    PhaseDesc { name: EXPLAIN_CIRCUITS_TRUNCATED, kind: PhaseKind::Counter, what: "circuit enumerations truncated (MinDist fallback)" },
    PhaseDesc { name: HIST_SLOT_SEARCH, kind: PhaseKind::Hist, what: "slots examined per FindTimeSlot call" },
    PhaseDesc { name: HIST_ESTART_PREDS, kind: PhaseKind::Hist, what: "predecessors examined per Estart computation" },
    PhaseDesc { name: WALL_BUILD, kind: PhaseKind::Wall, what: "back-substitution + graph construction" },
    PhaseDesc { name: WALL_SCHED, kind: PhaseKind::Wall, what: "iterative scheduling" },
    PhaseDesc { name: WALL_EXACT, kind: PhaseKind::Wall, what: "exact branch-and-bound scheduling" },
    PhaseDesc { name: WALL_SAT, kind: PhaseKind::Wall, what: "exact SAT scheduling" },
    PhaseDesc { name: WALL_CODEGEN, kind: PhaseKind::Wall, what: "lifetimes + MVE code generation" },
    PhaseDesc { name: WALL_VLIW, kind: PhaseKind::Wall, what: "overlapped VLIW simulation" },
    PhaseDesc { name: WALL_LOOP, kind: PhaseKind::Wall, what: "whole per-loop pipeline" },
];

/// Looks up the description of a phase name, if documented.
pub fn describe(name: &str) -> Option<&'static PhaseDesc> {
    REGISTRY.iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_describable() {
        for (i, d) in REGISTRY.iter().enumerate() {
            assert!(
                REGISTRY[i + 1..].iter().all(|o| o.name != d.name),
                "duplicate phase name {}",
                d.name
            );
            assert_eq!(describe(d.name).unwrap().name, d.name);
            assert!(!d.what.is_empty());
        }
        assert!(describe("no.such.phase").is_none());
    }
}
