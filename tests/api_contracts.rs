//! API-contract checks: the public types behave the way a downstream user
//! expects (thread-safety, trait implementations, determinism).

use ims::core::{
    Counters, MiiInfo, NullObserver, SchedConfig, SchedOutcome, Schedule, ScheduleError,
};
use ims::graph::{DepGraph, MinDist};
use ims::ir::{LoopBody, Value};
use ims::machine::MachineModel;
use ims::trace::{Recorder, SchedEvent, TraceSummary};
use ims::vliw::MemoryImage;

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn key_types_are_send_and_sync() {
    assert_send_sync::<LoopBody>();
    assert_send_sync::<MachineModel>();
    assert_send_sync::<DepGraph>();
    assert_send_sync::<MinDist>();
    assert_send_sync::<Schedule>();
    assert_send_sync::<SchedOutcome>();
    assert_send_sync::<SchedConfig>();
    assert_send_sync::<ScheduleError>();
    assert_send_sync::<NullObserver>();
    assert_send_sync::<MiiInfo>();
    assert_send_sync::<Counters>();
    assert_send_sync::<MemoryImage>();
    assert_send_sync::<Value>();
    assert_send_sync::<SchedEvent>();
    assert_send_sync::<Recorder>();
    assert_send_sync::<TraceSummary>();
}

/// A two-op loop whose recurrence forces II >= 5.
fn recurrence_problem(machine: &MachineModel) -> ims::core::Problem<'_> {
    use ims::graph::DepKind;
    use ims::ir::{OpId, Opcode};

    let mut pb = ims::core::ProblemBuilder::new(machine);
    let a = pb.add_op(Opcode::Add, OpId(0));
    let b = pb.add_op(Opcode::Add, OpId(1));
    pb.add_dep(a, b, 4, 0, DepKind::Flow, false);
    pb.add_dep(b, a, 1, 1, DepKind::Flow, false); // RecMII = ceil(5/1) = 5
    pb.finish()
}

#[test]
fn ii_cap_surfaces_a_structured_error() {
    // An II cap below the MII means no attempt is even possible; the
    // failure must surface as the structured `IiCapExceeded` error (with
    // the cap and the MII), not a panic — even with a generous budget.
    use ims::core::Scheduler;
    use ims::machine::minimal;

    let machine = minimal();
    let problem = recurrence_problem(&machine);

    let err = Scheduler::new(&problem)
        .config(SchedConfig::new().max_ii(2).budget_ratio(100.0))
        .run()
        .expect_err("II capped below the recurrence bound cannot schedule");
    match err {
        ScheduleError::IiCapExceeded { mii, max_ii } => {
            assert_eq!(max_ii, 2);
            assert_eq!(mii, 5);
        }
        other => panic!("expected IiCapExceeded, got {other:?}"),
    }
    assert!(!err.to_string().is_empty(), "error implements Display");
}

#[test]
fn budget_exhaustion_reports_attempts_and_spend() {
    // A cap at the MII with a starvation budget lets attempts run but
    // fail; that is the other error variant, and it reports how much
    // budget the run burned.
    use ims::core::Scheduler;
    use ims::machine::minimal;

    let machine = minimal();
    let problem = recurrence_problem(&machine);

    let err = Scheduler::new(&problem)
        .config(SchedConfig::new().max_ii(5).budget_ratio(0.0))
        .run()
        .expect_err("a zero budget cannot schedule anything");
    match err {
        ScheduleError::BudgetExhausted { last_ii, spent } => {
            assert_eq!(last_ii, 5);
            assert!(spent <= 2, "budget floor allows at most a step per op");
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
}

#[test]
fn builder_and_legacy_entry_point_agree() {
    // `modulo_schedule` is documented as a thin wrapper over the builder;
    // the two must produce identical schedules, and a `Recorder` observer
    // must see events consistent with the returned outcome.
    use ims::core::{modulo_schedule, Scheduler};
    use ims::deps::{build_problem, BuildOptions};
    use ims::loopgen::corpus_of_size;
    use ims::machine::cydra;

    let corpus = corpus_of_size(21, 8);
    let machine = cydra();
    for l in &corpus.loops {
        let p = build_problem(&l.body, &machine, &BuildOptions::default());
        let legacy = modulo_schedule(&p, &SchedConfig::default()).unwrap();

        let mut rec = Recorder::default();
        let built = Scheduler::new(&p).observer(&mut rec).run().unwrap();
        assert_eq!(built.schedule.ii, legacy.schedule.ii);
        assert_eq!(built.schedule.time, legacy.schedule.time);

        let summary = TraceSummary::from_events(&rec.events);
        assert_eq!(summary.final_ii(), Some(built.schedule.ii));
        assert_eq!(summary.total_steps(), built.stats.total_steps());
    }
}

#[test]
fn corpus_runs_are_parallelizable() {
    // The whole measurement pipeline is shared-state-free: running loops
    // from several threads must give the same results as serially.
    use ims::core::modulo_schedule;
    use ims::deps::{build_problem, BuildOptions};
    use ims::loopgen::corpus_of_size;
    use ims::machine::cydra;

    let corpus = corpus_of_size(3, 24);
    let machine = cydra();
    let serial: Vec<i64> = corpus
        .loops
        .iter()
        .map(|l| {
            let p = build_problem(&l.body, &machine, &BuildOptions::default());
            modulo_schedule(&p, &SchedConfig::default())
                .unwrap()
                .schedule
                .ii
        })
        .collect();

    let parallel: Vec<i64> = std::thread::scope(|scope| {
        let handles: Vec<_> = corpus
            .loops
            .iter()
            .map(|l| {
                let machine = &machine;
                scope.spawn(move || {
                    let p = build_problem(&l.body, machine, &BuildOptions::default());
                    modulo_schedule(&p, &SchedConfig::default())
                        .unwrap()
                        .schedule
                        .ii
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(serial, parallel);
}
