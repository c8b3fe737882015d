//! Profiled corpus measurement: thread-count-independent deterministic
//! snapshot sections, and every pipeline layer accounted for. That
//! profiling never changes a measurement or a trace is checked for every
//! backend in `tests/measure.rs`.

use ims_bench::{corpus_jsonl, measure_corpus, MeasureParams};
use ims_core::BackendKind;
use ims_loopgen::corpus_of_size;
use ims_machine::{cydra, cydra_rf};
use ims_prof::phase;
use ims_prof::snapshot::{deterministic_section, render_snapshot};

/// The acceptance gate of the profiler: a 60-loop profiled corpus run
/// must produce snapshot deterministic sections that are byte-identical
/// at `--threads 1` and `--threads 4`; only the wall section may differ.
#[test]
fn profiled_runs_are_thread_count_invariant_and_cover_every_layer() {
    let corpus = corpus_of_size(0xC4D5, 60);
    let machine = cydra();
    let params = MeasureParams::ims(6.0);

    let (m1, r1) = measure_corpus(&corpus, &machine, &params, 1, None, true).expect("no I/O");
    let (m4, r4) = measure_corpus(&corpus, &machine, &params, 4, None, true).expect("no I/O");
    assert_eq!(corpus_jsonl(&m1, false), corpus_jsonl(&m4, false));

    let s1 = render_snapshot("corpus", &r1);
    let s4 = render_snapshot("corpus", &r4);
    let d1 = deterministic_section(&s1).expect("snapshot has a deterministic section");
    let d4 = deterministic_section(&s4).expect("snapshot has a deterministic section");
    assert_eq!(
        d1, d4,
        "deterministic sections must not depend on --threads"
    );

    // Every pipeline layer reported in: graph analysis, scheduling, MRT
    // probes, code generation, and the VLIW simulator.
    for phase in [
        phase::GRAPH_SCC_WORK,
        phase::GRAPH_MINDIST_WORK,
        phase::MACHINE_MRT_PROBES,
        phase::SCHED_FINDSLOT_ITERS,
        phase::SCHED_STEPS,
        phase::SCHED_ATTEMPTS,
        phase::CODEGEN_INSTS,
        phase::VLIW_SIM_CYCLES,
    ] {
        assert!(r1.counter(phase) > 0, "no work recorded under {phase}");
    }
    assert_eq!(r1.counter(phase::CORPUS_LOOPS), corpus.loops.len() as u64);
    let slots = r1
        .hist(phase::HIST_SLOT_SEARCH)
        .expect("slot-search histogram");
    assert_eq!(slots.total(), r1.counter(phase::SCHED_STEPS));
    assert_eq!(
        slots.sum(),
        r1.counter(phase::SCHED_FINDSLOT_ITERS) as i128,
        "per-step histogram must sum to the Table 4 counter"
    );
    let estart = r1.hist(phase::HIST_ESTART_PREDS).expect("estart histogram");
    assert!(
        estart.total() >= slots.total(),
        "START/STOP fire estart but not slot_search"
    );
    // Wall spans exist but never leak into the deterministic sections.
    assert!(r1.wall(phase::WALL_LOOP).is_some());
    assert!(!d1.contains("total_ns"));
}

#[test]
fn exact_backend_profiling_reports_search_work() {
    let corpus = corpus_of_size(5, 12);
    let params = MeasureParams {
        backend: BackendKind::Exact,
        work_limit: Some(200_000),
        ..MeasureParams::ims(6.0)
    };
    let (ms, reg) = measure_corpus(&corpus, &cydra(), &params, 2, None, true).expect("no I/O");

    assert_eq!(reg.counter(phase::CORPUS_LOOPS), corpus.loops.len() as u64);
    let nodes: u64 = ms.iter().map(|m| m.exact.unwrap().nodes).sum();
    assert_eq!(
        reg.counter(phase::EXACT_NODES),
        nodes,
        "search nodes are all accounted for"
    );
    // The profiled run also lowers and simulates each loop.
    assert!(reg.counter(phase::CODEGEN_INSTS) > 0);
    assert!(reg.counter(phase::VLIW_SIM_CYCLES) > 0);
}

/// Failed runs are counted: the pressure-aware runs of pressure-infeasible
/// loops end in an error, yet their work reaches the profile, so every
/// per-step counter equals its histogram's count or sum.
#[test]
fn pressure_infeasible_runs_are_counted() {
    let corpus = corpus_of_size(0xC4D5, 31);
    let params = MeasureParams {
        pressure_limit: Some(16),
        ..MeasureParams::ims(6.0)
    };
    let (ms, reg) = measure_corpus(&corpus, &cydra_rf(16), &params, 2, None, true).expect("no I/O");
    assert!(
        ms.iter().any(|m| !m.press.expect("pressure verdict").ok),
        "the corpus has a pressure-infeasible loop"
    );

    let slots = reg.hist(phase::HIST_SLOT_SEARCH).expect("slot histogram");
    assert_eq!(reg.counter(phase::SCHED_STEPS), slots.total());
    assert_eq!(
        reg.counter(phase::SCHED_FINDSLOT_ITERS) as i128,
        slots.sum()
    );
    let estart = reg
        .hist(phase::HIST_ESTART_PREDS)
        .expect("estart histogram");
    assert_eq!(reg.counter(phase::SCHED_ESTART_PREDS) as i128, estart.sum());
}

/// The hand kernels simulate on their own initial memory, so the index
/// arrays of `gather` and `scatter` hold integers and every loop runs.
#[test]
fn hand_kernels_simulate_without_errors() {
    // corpus_of_size floors at the 31 hand kernels.
    let corpus = corpus_of_size(0xC4D5, 31);
    let (_, reg) =
        measure_corpus(&corpus, &cydra(), &MeasureParams::ims(6.0), 2, None, true).expect("no I/O");
    assert_eq!(reg.counter(phase::VLIW_SIM_ERRORS), 0);
    assert_eq!(
        reg.counter(phase::VLIW_SIM_LOOPS),
        reg.counter(phase::CORPUS_LOOPS)
    );
}
