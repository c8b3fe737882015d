//! Holds dependence construction, back-substitution, unrolling, the code
//! generator and the simulators equal to the references in `reference/`:
//! the versions that resolved each register use by scanning the body.
//! Edge lists are compared whole and in order under both delay models,
//! bodies and generated code whole, executions by variant and bit pattern
//! of every memory cell and final register, and failures field for field.
//!
//! Covered: every corpus loop on `cydra` (dependences, back-substitution,
//! unrolling at factors 1-4 and 8, MVE code and the overlapped run) and on
//! `cydra_rf(16)` (rotating code), each run from its own memory and from
//! seeded floats; seeded synthetic loops on `cydra` and `cydra_simple`;
//! and three broken inputs: a schedule that reads before its producer's
//! latency, a read with no live-in, and an out-of-range address.

mod reference;

use ims_codegen::{generate_mve, generate_rotating, lifetimes};
use ims_core::{Problem, SchedConfig, Schedule, Scheduler};
use ims_deps::{back_substitute, build_problem, node_of, unroll, BuildOptions, DelayModel};
use ims_ir::{ArrayId, LoopBody, LoopBuilder, MemRef, OpId, Opcode, Operand, Value};
use ims_loopgen::{corpus_of_size, generate_loop, SynthConfig};
use ims_machine::{cydra, cydra_rf, cydra_simple, MachineModel};
use ims_testkit::{Rng, Xoshiro256};
use ims_vliw::{
    run_mve, run_overlapped, run_rotating, run_sequential, ExecResult, MemoryImage, SimError,
};

/// A value as its variant and bit pattern: `NaN` equals itself and an
/// `Int` never equals a `Float`.
fn bits(v: Value) -> (u8, u64) {
    match v {
        Value::Int(i) => (0, i as u64),
        Value::Float(f) => (1, f.to_bits()),
        Value::Pred(b) => (2, b as u64),
    }
}

/// Everything an execution shows: memory, final registers, cycles.
type Shown = (Vec<(u8, u64)>, Vec<Option<(u8, u64)>>, u64);

fn shown(r: Result<ExecResult, SimError>) -> Result<Shown, SimError> {
    r.map(|r| {
        (
            r.memory.cells().iter().map(|&v| bits(v)).collect(),
            r.final_regs.iter().map(|v| v.map(bits)).collect(),
            r.cycles,
        )
    })
}

/// Float cells drawn from a small seeded set, as the benchmark seeds them;
/// integer cells (a hand kernel's index arrays) keep their values.
fn seeded_memory(body: &LoopBody, init: &[(ArrayId, Vec<Value>)], seed: u64) -> MemoryImage {
    let mut memory = MemoryImage::with_init(body, init);
    let mut rng = Xoshiro256::seed_from_u64(seed);
    for (a, decl) in body.arrays().iter().enumerate() {
        let array = ArrayId(a as u32);
        for i in 0..decl.len {
            if matches!(memory.get(array, i), Value::Float(_)) {
                let v = 1.0 + rng.gen_range(0..17u32) as f64 / 8.0;
                memory.set(array, i, Value::Float(v));
            }
        }
    }
    memory
}

/// Checks back-substitution of `raw`, the dependence edges of `raw` and of
/// its back-substituted body under both delay models, and the unrolled
/// back-substituted body against the reference. Bodies are compared as
/// `{:?}` text, so that a NaN live-in equals itself.
fn check_deps(what: &str, raw: &LoopBody, machine: &MachineModel) {
    let body = back_substitute(raw, machine);
    assert_eq!(
        format!("{body:?}"),
        format!("{:?}", reference::back_substitute(raw, machine)),
        "{what}: back-substituted body"
    );
    for b in [raw, &body] {
        for delay_model in [DelayModel::Vliw, DelayModel::Conservative] {
            let options = BuildOptions { delay_model };
            assert_eq!(
                build_problem(b, machine, &options).graph().edges(),
                reference::build_problem(b, machine, &options)
                    .graph()
                    .edges(),
                "{what}: edges under {delay_model:?}"
            );
        }
    }
    for factor in [1, 2, 3, 4, 8] {
        assert_eq!(
            format!("{:?}", unroll(&body, factor)),
            format!("{:?}", reference::unroll(&body, factor)),
            "{what}: unrolled by {factor}"
        );
    }
}

/// Checks MVE code generation and every execution against the reference
/// on one scheduled loop, from one memory image.
fn check_mve(
    what: &str,
    body: &LoopBody,
    problem: &Problem<'_>,
    schedule: &Schedule,
    memory: &MemoryImage,
) {
    let machine = problem.machine();
    let lt = lifetimes(body, problem, schedule);
    assert_eq!(
        lt,
        reference::lifetimes(body, problem, schedule),
        "{what}: lifetimes"
    );
    let code = generate_mve(body, problem, schedule, &lt);
    assert_eq!(
        code,
        reference::generate_mve(body, problem, schedule, &lt),
        "{what}: MVE code"
    );
    assert_eq!(
        shown(run_sequential(body, memory.clone())),
        shown(reference::run_sequential(body, memory.clone())),
        "{what}: sequential run"
    );
    assert_eq!(
        shown(run_mve(&code, body, machine, memory.clone())),
        shown(reference::run_mve(&code, body, machine, memory.clone())),
        "{what}: MVE run"
    );
    assert_eq!(
        shown(run_overlapped(body, problem, schedule, memory.clone())),
        shown(reference::run_overlapped(
            body,
            problem,
            schedule,
            memory.clone()
        )),
        "{what}: overlapped run"
    );
}

/// The same for rotating code, when the body allocates.
fn check_rotating(
    what: &str,
    body: &LoopBody,
    problem: &Problem<'_>,
    schedule: &Schedule,
    memory: &MemoryImage,
) {
    let machine = problem.machine();
    let lt = lifetimes(body, problem, schedule);
    let code = generate_rotating(body, problem, schedule, &lt);
    assert_eq!(
        code,
        reference::generate_rotating(body, problem, schedule, &lt),
        "{what}: rotating code"
    );
    if let Ok(code) = code {
        assert_eq!(
            shown(run_rotating(&code, body, machine, memory.clone())),
            shown(reference::run_rotating(
                &code,
                body,
                machine,
                memory.clone()
            )),
            "{what}: rotating run"
        );
    }
}

fn schedule(problem: &Problem<'_>, config: SchedConfig) -> Schedule {
    Scheduler::new(problem)
        .config(config)
        .run()
        .expect("corpus loops schedule")
        .schedule
}

#[test]
fn every_corpus_loop_builds_back_substitutes_and_unrolls_as_the_reference_does() {
    let machine = cydra();
    for (i, l) in corpus_of_size(0xC4D5, 1327).loops.iter().enumerate() {
        check_deps(&format!("loop {i}"), &l.body, &machine);
    }
}

#[test]
fn every_corpus_loop_generates_and_runs_mve_code_as_the_reference_does() {
    let machine = cydra();
    for (i, l) in corpus_of_size(0xC4D5, 1327).loops.iter().enumerate() {
        let body = back_substitute(&l.body, &machine);
        let problem = build_problem(&body, &machine, &BuildOptions::default());
        let s = schedule(&problem, SchedConfig::new().budget_ratio(6.0));
        // The loop's own memory leaves NaN and infinite cells in some loops.
        for memory in [
            MemoryImage::with_init(&body, &l.init),
            seeded_memory(&body, &l.init, i as u64),
        ] {
            check_mve(&format!("loop {i}"), &body, &problem, &s, &memory);
        }
    }
}

#[test]
fn every_corpus_loop_generates_and_runs_rotating_code_as_the_reference_does() {
    let machine = cydra_rf(16);
    for (i, l) in corpus_of_size(0xC4D5, 1327).loops.iter().enumerate() {
        let body = back_substitute(&l.body, &machine);
        let problem = build_problem(&body, &machine, &BuildOptions::default());
        let s = schedule(&problem, SchedConfig::new().budget_ratio(6.0));
        for memory in [
            MemoryImage::with_init(&body, &l.init),
            seeded_memory(&body, &l.init, i as u64),
        ] {
            check_rotating(&format!("loop {i}"), &body, &problem, &s, &memory);
        }
    }
}

#[test]
fn seeded_synthetic_loops_match_the_reference_on_both_machines() {
    let mut rng = Xoshiro256::seed_from_u64(0x5EED);
    for case in 0..64 {
        let config = SynthConfig {
            ops_target: rng.gen_range(4..48u32) as usize,
            recurrences: (0..rng.gen_range(0..3u32))
                .map(|_| rng.gen_range(2..6u32) as usize)
                .collect(),
            with_branch: rng.gen_range(0..2u32) == 1,
        };
        let seed = rng.gen_range(0..u32::MAX) as u64;
        for machine in [cydra(), cydra_simple()] {
            let raw = generate_loop(&mut Xoshiro256::seed_from_u64(seed), &config);
            let what = format!("case {case} on {}", machine.name());
            check_deps(&what, &raw, &machine);
            let body = back_substitute(&raw, &machine);
            let problem = build_problem(&body, &machine, &BuildOptions::default());
            let s = schedule(&problem, SchedConfig::new().budget_ratio(6.0));
            for memory in [
                MemoryImage::for_body(&body),
                seeded_memory(&body, &[], seed),
            ] {
                check_mve(&what, &body, &problem, &s, &memory);
                check_rotating(&what, &body, &problem, &s, &memory);
            }
        }
    }
}

/// Runs `body` under `schedule` sequentially, as MVE code, as rotating
/// code and overlapped, holds each run equal to the reference's, and
/// returns the four errors in that order (`None` for a run that succeeds).
fn broken_runs(
    body: &LoopBody,
    machine: &MachineModel,
    schedule: &Schedule,
) -> [Option<SimError>; 4] {
    let problem = build_problem(body, machine, &BuildOptions::default());
    let memory = MemoryImage::for_body(body);
    let lt = lifetimes(body, &problem, schedule);
    let mve = generate_mve(body, &problem, schedule, &lt);
    let rot = generate_rotating(body, &problem, schedule, &lt).expect("allocates");
    let runs = [
        (
            shown(run_sequential(body, memory.clone())),
            shown(reference::run_sequential(body, memory.clone())),
        ),
        (
            shown(run_mve(&mve, body, machine, memory.clone())),
            shown(reference::run_mve(&mve, body, machine, memory.clone())),
        ),
        (
            shown(run_rotating(&rot, body, machine, memory.clone())),
            shown(reference::run_rotating(&rot, body, machine, memory.clone())),
        ),
        (
            shown(run_overlapped(body, &problem, schedule, memory.clone())),
            shown(reference::run_overlapped(body, &problem, schedule, memory)),
        ),
    ];
    runs.map(|(new, old)| {
        assert_eq!(new, old);
        new.err()
    })
}

#[test]
fn a_read_before_the_producers_latency_fails_as_in_the_reference() {
    // The add moves to one cycle after the 20-cycle load it reads.
    let mut b = LoopBuilder::new("early", 8);
    let a = b.array("a", 8);
    let pa = b.ptr("pa", a, 0);
    let v = b.load("v", pa, Some(MemRef::new(a, 0, 1)));
    let w = b.add("w", v, 1.0f64);
    b.store(pa, w, Some(MemRef::new(a, 0, 1)));
    b.addr_add(pa, pa, 1);
    let body = b.finish().expect("valid body");
    let machine = cydra_simple();
    let problem = build_problem(&body, &machine, &BuildOptions::default());
    let mut s = schedule(&problem, SchedConfig::new());
    let load_t = s.time_of(node_of(OpId(0)));
    s.time[node_of(OpId(1)).index()] = load_t + 1;
    let [seq, mve, rot, overlapped] = broken_runs(&body, &machine, &s);
    assert_eq!(seq, None, "the sequential run has no timing");
    for e in [mve, rot, overlapped] {
        assert!(
            matches!(e, Some(SimError::ReadBeforeReady { op: OpId(1), .. })),
            "{e:?}"
        );
    }
}

#[test]
fn a_read_with_no_live_in_fails_as_in_the_reference() {
    // `y` reads `x` one iteration back, and `x` has no live-in value.
    let mut b = LoopBuilder::new("unwritten", 4);
    let x = b.fresh("x");
    let _y = b.copy("y", x);
    b.rebind(x, Opcode::Copy, vec![Operand::ImmInt(1)]);
    let body = b.finish().expect("valid body");
    let machine = cydra_simple();
    let problem = build_problem(&body, &machine, &BuildOptions::default());
    let s = schedule(&problem, SchedConfig::new());
    let [seq, mve, rot, overlapped] = broken_runs(&body, &machine, &s);
    assert_eq!(seq, Some(SimError::UnwrittenRead { op: OpId(0) }));
    assert_eq!(overlapped, Some(SimError::UnwrittenRead { op: OpId(0) }));
    // The generated code reads a register no seed filled.
    assert!(mve.is_some() && rot.is_some());
}

#[test]
fn an_out_of_range_address_fails_as_in_the_reference() {
    // Four iterations walk a two-element array.
    let mut b = LoopBuilder::new("oob", 4);
    let a = b.array("a", 2);
    let pa = b.ptr("pa", a, 0);
    let _v = b.load("v", pa, Some(MemRef::new(a, 0, 1)));
    b.addr_add(pa, pa, 1);
    let body = b.finish().expect("valid body");
    let machine = cydra_simple();
    let problem = build_problem(&body, &machine, &BuildOptions::default());
    let s = schedule(&problem, SchedConfig::new());
    for e in broken_runs(&body, &machine, &s) {
        assert_eq!(
            e,
            Some(SimError::BadAddress {
                op: OpId(0),
                addr: 2
            })
        );
    }
}
