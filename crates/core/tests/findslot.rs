//! Differential test for FindTimeSlot's window scan: the scheduler's
//! `iterative_schedule_observed`, which reads a window's free slots 64 at
//! a time, against the per-slot walk it replaced ([`reference`]). Both
//! run the same candidate IIs under recording observers, and every
//! attempt must fire the same hooks in the same order — each
//! `placement_vetoed` call's `(node, time)` included — and return the
//! same result, steps and `machine.mrt.probes` charge.

#[path = "findslot/reference.rs"]
mod reference;

use ims_core::{
    compute_mii, iterative_schedule_observed, BackendKind, Counters, PriorityKind, Problem,
    ProblemBuilder, SchedObserver, Schedule,
};
use ims_deps::{back_substitute, build_problem, BuildOptions};
use ims_graph::{DepKind, NodeId};
use ims_ir::{LoopBody, OpId, Opcode};
use ims_loopgen::corpus_of_size;
use ims_machine::{cydra, wide, MachineBuilder, MachineModel, ReservationTable};
use ims_press::PressureObserver;
use ims_prof::phase;
use ims_testkit::SplitMix64;

/// One hook call, with the answer of a consulted hook.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Ev {
    Backend(BackendKind),
    AttemptStart(i64, i64),
    Scheduled(NodeId, i64, usize, bool),
    Evicted(NodeId, NodeId),
    SlotSearch(NodeId, i64, u32),
    Estart(NodeId, u32),
    BudgetExhausted(i64, u64),
    AttemptDone(i64, bool),
    Work(&'static str, u64),
    Vetoed(NodeId, i64, bool),
    Accept(i64, bool),
}

/// Records every hook and forwards it to `inner`, whose answers decide
/// the consulted ones.
struct Rec<O> {
    inner: O,
    events: Vec<Ev>,
}

impl<O: SchedObserver> SchedObserver for Rec<O> {
    fn backend(&mut self, kind: BackendKind) {
        self.events.push(Ev::Backend(kind));
        self.inner.backend(kind);
    }
    fn attempt_start(&mut self, ii: i64, budget: i64) {
        self.events.push(Ev::AttemptStart(ii, budget));
        self.inner.attempt_start(ii, budget);
    }
    fn op_scheduled(&mut self, node: NodeId, time: i64, alt: usize, forced: bool) {
        self.events.push(Ev::Scheduled(node, time, alt, forced));
        self.inner.op_scheduled(node, time, alt, forced);
    }
    fn op_evicted(&mut self, node: NodeId, evictor: NodeId) {
        self.events.push(Ev::Evicted(node, evictor));
        self.inner.op_evicted(node, evictor);
    }
    fn slot_search(&mut self, node: NodeId, estart: i64, iters: u32) {
        self.events.push(Ev::SlotSearch(node, estart, iters));
        self.inner.slot_search(node, estart, iters);
    }
    fn estart_computed(&mut self, node: NodeId, preds: u32) {
        self.events.push(Ev::Estart(node, preds));
        self.inner.estart_computed(node, preds);
    }
    fn budget_exhausted(&mut self, ii: i64, spent: u64) {
        self.events.push(Ev::BudgetExhausted(ii, spent));
        self.inner.budget_exhausted(ii, spent);
    }
    fn attempt_done(&mut self, ii: i64, ok: bool) {
        self.events.push(Ev::AttemptDone(ii, ok));
        self.inner.attempt_done(ii, ok);
    }
    fn work(&mut self, phase: &'static str, n: u64) {
        self.events.push(Ev::Work(phase, n));
        self.inner.work(phase, n);
    }
    fn placement_vetoed(&mut self, node: NodeId, time: i64) -> bool {
        let veto = self.inner.placement_vetoed(node, time);
        self.events.push(Ev::Vetoed(node, time, veto));
        veto
    }
    fn attempt_accept(&mut self, ii: i64, schedule: &Schedule) -> bool {
        let ok = self.inner.attempt_accept(ii, schedule);
        self.events.push(Ev::Accept(ii, ok));
        ok
    }
}

/// Vetoes every slot it is asked about.
struct VetoAll;

impl SchedObserver for VetoAll {
    fn placement_vetoed(&mut self, _: NodeId, _: i64) -> bool {
        true
    }
}

/// Vetoes a seeded pseudo-random subset of the slots it is asked about,
/// `1/den` of them. With `sticky`, once it vetoes a slot it vetoes every
/// later slot of that window — the shape of `ims-press` over its limit.
struct RandomVeto {
    rng: SplitMix64,
    den: u64,
    sticky: bool,
    vetoing: bool,
}

impl RandomVeto {
    fn new(seed: u64, den: u64, sticky: bool) -> Self {
        RandomVeto {
            rng: SplitMix64::new(seed),
            den,
            sticky,
            vetoing: false,
        }
    }
}

impl SchedObserver for RandomVeto {
    fn estart_computed(&mut self, _: NodeId, _: u32) {
        self.vetoing = false;
    }
    fn placement_vetoed(&mut self, _: NodeId, _: i64) -> bool {
        if self.vetoing {
            return true;
        }
        let veto = self.rng.next_u64().is_multiple_of(self.den);
        self.vetoing = self.sticky && veto;
        veto
    }
}

/// One attempt at a candidate II: the scheduler's or the reference's.
type Attempt<O> = fn(&Problem<'_>, i64, i64, PriorityKind, &mut O) -> (Option<Schedule>, u64);

/// The II walk of `Scheduler::run` over at most `attempts` candidate IIs
/// from the MII, at BudgetRatio 6: each attempt's result and steps.
fn walk<O: SchedObserver>(
    problem: &Problem<'_>,
    attempts: i64,
    obs: &mut O,
    attempt: Attempt<O>,
) -> Vec<(Option<Schedule>, u64)> {
    let mii = compute_mii(problem, &mut Counters::new()).mii;
    let budget = ((6.0 * problem.num_ops() as f64).ceil() as i64).max(1);
    let mut out = Vec::new();
    for ii in mii..mii + attempts {
        obs.attempt_start(ii, budget);
        let (result, steps) = attempt(problem, ii, budget, PriorityKind::HeightR, obs);
        let ok = result.as_ref().is_some_and(|s| obs.attempt_accept(ii, s));
        obs.attempt_done(ii, ok);
        out.push((result, steps));
        if ok {
            break;
        }
    }
    out
}

/// What the compared runs covered, summed over comparisons.
#[derive(Default)]
struct Coverage {
    attempts: usize,
    vetoes: u64,
    accepted: u64,
    forced: u64,
    widest: u32,
}

/// Runs the walk with the reference and with the scheduler, each under
/// its own observer from `make`, and demands identical attempts.
fn differential<O: SchedObserver>(
    cov: &mut Coverage,
    label: &str,
    problem: &Problem<'_>,
    attempts: i64,
    make: impl Fn() -> O,
) {
    let mut want = Rec {
        inner: make(),
        events: Vec::new(),
    };
    let mut got = Rec {
        inner: make(),
        events: Vec::new(),
    };
    let want_runs = walk(
        problem,
        attempts,
        &mut want,
        reference::iterative_schedule_observed::<Rec<O>>,
    );
    let got_runs = walk(
        problem,
        attempts,
        &mut got,
        iterative_schedule_observed::<Rec<O>>,
    );
    let by_attempt = |events: &[Ev]| -> Vec<Vec<Ev>> {
        let mut out: Vec<Vec<Ev>> = Vec::new();
        for e in events {
            if matches!(e, Ev::AttemptStart(..)) {
                out.push(Vec::new());
            }
            out.last_mut()
                .expect("events start an attempt")
                .push(e.clone());
        }
        out
    };
    let (want_evs, got_evs) = (by_attempt(&want.events), by_attempt(&got.events));
    assert_eq!(want_runs.len(), got_runs.len(), "{label}: attempts");
    assert_eq!(want_evs.len(), got_evs.len(), "{label}: attempt starts");
    for (i, (w, g)) in want_evs.iter().zip(&got_evs).enumerate() {
        if let Some(k) = (0..w.len().min(g.len())).find(|&k| w[k] != g[k]) {
            panic!(
                "{label}: attempt {i}, event {k}: want {:?}, got {:?}",
                w[k], g[k]
            );
        }
        assert_eq!(w.len(), g.len(), "{label}: attempt {i}: event count");
        let probes = |evs: &[Ev]| -> Vec<u64> {
            evs.iter()
                .filter_map(|e| match e {
                    Ev::Work(p, n) if *p == phase::MACHINE_MRT_PROBES => Some(*n),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(probes(w), probes(g), "{label}: attempt {i}: probe charge");
        assert_eq!(
            probes(g).len(),
            1,
            "{label}: attempt {i} charges its probes once"
        );
        assert_eq!(
            want_runs[i], got_runs[i],
            "{label}: attempt {i}: result and steps"
        );
    }
    cov.attempts += got_runs.len();
    for e in &got.events {
        match *e {
            Ev::Vetoed(_, _, veto) => {
                cov.vetoes += veto as u64;
                cov.accepted += !veto as u64;
            }
            Ev::Scheduled(_, _, _, forced) => cov.forced += forced as u64,
            Ev::SlotSearch(_, _, iters) => cov.widest = cov.widest.max(iters),
            _ => {}
        }
    }
}

/// Every veto policy but the pressure limit, each once on `problem`.
fn every_policy(cov: &mut Coverage, label: &str, problem: &Problem<'_>, attempts: i64) {
    differential(cov, &format!("{label} no veto"), problem, attempts, || {
        ims_core::NullObserver
    });
    differential(cov, &format!("{label} veto all"), problem, attempts, || {
        VetoAll
    });
    for (seed, den) in [(1, 2), (2, 5)] {
        differential(
            cov,
            &format!("{label} random veto 1/{den}"),
            problem,
            attempts,
            || RandomVeto::new(seed, den, false),
        );
    }
    differential(
        cov,
        &format!("{label} sticky veto"),
        problem,
        attempts,
        || RandomVeto::new(3, 4, true),
    );
}

/// The corpus CLI's loop `index` (default seed), built as it builds it.
fn corpus_loop(index: usize) -> LoopBody {
    corpus_of_size(0xC4D5, index + 1).loops[index].body.clone()
}

#[test]
fn the_window_scan_matches_the_per_slot_walk_on_corpus_loops() {
    // Loops 582 and 1254 schedule at IIs 64-70 and 120-126: windows of
    // more than one and more than two words.
    let machine = cydra();
    let mut cov = Coverage::default();
    for index in [0, 7, 40, 582, 1254] {
        let body = back_substitute(&corpus_loop(index), &machine);
        let problem = build_problem(&body, &machine, &BuildOptions::default());
        let label = format!("cydra loop {index}");
        every_policy(&mut cov, &label, &problem, 7);
        for limit in 3..=16 {
            differential(
                &mut cov,
                &format!("{label} pressure {limit}"),
                &problem,
                3,
                || PressureObserver::for_body(&body, &problem, limit),
            );
        }
    }
    assert!(cov.widest > 64 + 55, "widest window {}", cov.widest);
    assert!(cov.vetoes > 0 && cov.accepted > 0 && cov.forced > 0);
}

/// `ops` adds on `machine`, chained with delay 2, closed by a recurrence
/// of delay `back` over distance 1, plus `free` independent adds.
fn ring<'m>(machine: &'m MachineModel, ops: u32, back: i64, free: u32) -> Problem<'m> {
    let mut pb = ProblemBuilder::new(machine);
    let chain: Vec<NodeId> = (0..ops).map(|i| pb.add_op(Opcode::Add, OpId(i))).collect();
    for w in chain.windows(2) {
        pb.add_dep(w[0], w[1], 2, 0, DepKind::Flow, false);
    }
    pb.add_dep(
        chain[chain.len() - 1],
        chain[0],
        back,
        1,
        DepKind::Flow,
        false,
    );
    for i in 0..free {
        let _ = pb.add_op(Opcode::Add, OpId(ops + i));
    }
    pb.finish()
}

#[test]
fn the_window_scan_matches_the_per_slot_walk_on_a_hundred_resources() {
    // wide(100): two mask words per row and 100 alternatives an opcode.
    // The dense loop packs 250 adds at II 3, so the alternatives past
    // the 64th are tried; the ring's recurrence puts its IIs past 128.
    let machine = wide(100);
    let mut cov = Coverage::default();
    let dense = ring(&machine, 10, 1, 240);
    every_policy(&mut cov, "wide100 dense", &dense, 4);
    let long = ring(&machine, 8, 125, 30);
    every_policy(&mut cov, "wide100 ring", &long, 3);
    for limit in [3, 8, 16] {
        differential(
            &mut cov,
            &format!("wide100 ring pressure {limit}"),
            &long,
            3,
            || PressureObserver::for_problem(&long, limit),
        );
    }
    assert!(cov.widest > 128, "widest window {}", cov.widest);
    assert!(cov.vetoes > 0 && cov.accepted > 0 && cov.forced > 0);
}

#[test]
fn the_window_scan_matches_the_per_slot_walk_beside_a_self_colliding_alternative() {
    // An add's first alternative uses r0 at offsets 0 and 2: it collides
    // with itself at IIs 1 and 2, where only the later two are usable,
    // and still comes first in every probe.
    let mut mb = MachineBuilder::new("self-colliding");
    let r: Vec<_> = (0..3).map(|i| mb.resource(format!("r{i}"))).collect();
    mb.op(
        Opcode::Add,
        1,
        vec![
            ("block", ReservationTable::new(vec![(r[0], 0), (r[0], 2)])),
            ("one", ReservationTable::simple(r[1])),
            ("two", ReservationTable::simple(r[2])),
        ],
    );
    let machine = mb.build();
    // Three adds on a recurrence of delay 3 over distance 2, and a free
    // one: MII 2.
    let mut pb = ProblemBuilder::new(&machine);
    let adds: Vec<NodeId> = (0..4).map(|i| pb.add_op(Opcode::Add, OpId(i))).collect();
    pb.add_dep(adds[0], adds[1], 1, 0, DepKind::Flow, false);
    pb.add_dep(adds[1], adds[2], 1, 0, DepKind::Flow, false);
    pb.add_dep(adds[2], adds[0], 1, 2, DepKind::Flow, false);
    let problem = pb.finish();
    let mii = compute_mii(&problem, &mut Counters::new()).mii;
    assert_eq!(mii, 2, "the walk starts where the block is unusable");
    assert!(!ims_core::self_colliding_alternatives(&problem, mii)
        .expect("the later alternatives are usable")
        .is_empty());
    let mut cov = Coverage::default();
    every_policy(&mut cov, "self-colliding", &problem, 4);
    for limit in [1, 2, 3] {
        differential(
            &mut cov,
            &format!("self-colliding pressure {limit}"),
            &problem,
            4,
            || PressureObserver::for_problem(&problem, limit),
        );
    }
    assert!(cov.vetoes > 0 && cov.accepted > 0 && cov.forced > 0);
}
