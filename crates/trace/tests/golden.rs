//! Golden-trace test: the JSON-lines trace of a small fixed loop is
//! byte-compared against a pinned file, so any change to the event
//! schema, the emission order, or the scheduler's decisions on this loop
//! is a deliberate, review-visible diff of `golden/figure1_loop.jsonl`.

use ims_core::{ProblemBuilder, SchedConfig, Scheduler};
use ims_graph::DepKind;
use ims_ir::{OpId, Opcode};
use ims_machine::figure1_machine;
use ims_trace::{parse_trace, replay, Recorder, TraceSummary};

const GOLDEN: &str = include_str!("golden/figure1_loop.jsonl");

/// The §2 example of a structurally unachievable MII: on the literal
/// Figure 1 machine, a mul feeding an add around a distance-2 recurrence
/// has MII 5, but the shared source/result buses force II 6 — so the
/// trace contains a failed attempt (with a budget_exhausted event and
/// forced placements) before the successful one.
fn trace_the_fixed_loop() -> String {
    let machine = figure1_machine();
    let mut pb = ProblemBuilder::new(&machine);
    let mul = pb.add_op(Opcode::Mul, OpId(0));
    let add = pb.add_op(Opcode::Add, OpId(1));
    pb.add_dep(mul, add, 5, 0, DepKind::Flow, false);
    pb.add_dep(add, mul, 4, 2, DepKind::Flow, false);
    let problem = pb.finish();

    let mut rec = Recorder::new();
    let out = Scheduler::new(&problem)
        .config(SchedConfig::new().budget_ratio(8.0))
        .observer(&mut rec)
        .run()
        .expect("the fixed loop schedules at II 6");
    assert_eq!(out.schedule.ii, 6);
    rec.to_jsonl()
}

#[test]
fn trace_bytes_match_the_pinned_golden_file() {
    let trace = trace_the_fixed_loop();
    assert_eq!(
        trace, GOLDEN,
        "trace schema or scheduler behaviour changed; if intentional, \
         regenerate crates/trace/tests/golden/figure1_loop.jsonl"
    );
}

#[test]
fn golden_trace_parses_and_summarizes() {
    let events = parse_trace(GOLDEN).expect("every golden line parses");
    let summary = TraceSummary::from_events(&events);
    assert_eq!(summary.final_ii(), Some(6));
    assert!(
        summary.attempts.iter().any(|a| !a.ok),
        "the MII-5 attempt fails"
    );
    assert!(summary.wasted_steps() > 0);
    // Replaying the golden trace reconstructs a complete schedule.
    let times = replay(&events).final_times().expect("all nodes placed");
    assert!(!times.is_empty());
}
