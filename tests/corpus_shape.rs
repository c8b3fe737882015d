//! Corpus-level integration: the substitute corpus must reproduce the
//! *shape* of the paper's Table 3 statistics, and every corpus loop must
//! schedule to a valid schedule.

use ims::core::{validate_schedule, SchedConfig, Scheduler};
use ims::deps::{back_substitute, build_problem, BuildOptions};
use ims::graph::sccs;
use ims::loopgen::corpus_of_size;
use ims::machine::cydra;

#[test]
fn corpus_schedules_validate() {
    let machine = cydra();
    let corpus = corpus_of_size(11, 150);
    for l in &corpus.loops {
        let body = back_substitute(&l.body, &machine);
        let problem = build_problem(&body, &machine, &BuildOptions::default());
        let out = Scheduler::new(&problem)
            .config(SchedConfig::new().budget_ratio(6.0))
            .run()
            .expect("corpus loops schedule");
        validate_schedule(&problem, &out.schedule).expect("schedules are legal");
    }
}

#[test]
fn corpus_statistics_match_the_papers_shape() {
    let machine = cydra();
    let corpus = corpus_of_size(0xC4D5, 400);

    let mut optimal = 0usize;
    let mut res_limited = 0usize;
    let mut no_nontrivial_scc = 0usize;
    let mut single_op_sccs = 0usize;
    let mut total_sccs = 0usize;
    let mut once_scheduled = 0usize;

    for l in &corpus.loops {
        let body = back_substitute(&l.body, &machine);
        let problem = build_problem(&body, &machine, &BuildOptions::default());
        let out = Scheduler::new(&problem)
            .config(SchedConfig::new().budget_ratio(6.0))
            .run()
            .expect("schedules");
        if out.schedule.ii == out.mii.mii {
            optimal += 1;
        }
        if out.mii.rec_mii <= out.mii.res_mii {
            res_limited += 1;
        }
        if out.stats.final_steps() == problem.num_ops() as u64 {
            once_scheduled += 1;
        }
        let mut w = 0;
        let info = sccs(problem.graph(), &mut w);
        let sizes: Vec<usize> = info
            .components
            .iter()
            .map(|c| {
                c.iter()
                    .filter(|n| **n != problem.start() && **n != problem.stop())
                    .count()
            })
            .filter(|&s| s > 0)
            .collect();
        if sizes.iter().all(|&s| s <= 1) {
            no_nontrivial_scc += 1;
        }
        total_sccs += sizes.len();
        single_op_sccs += sizes.iter().filter(|&&s| s == 1).count();
    }

    let n = corpus.loops.len() as f64;
    // II = MII for the overwhelming majority (paper: 96%).
    assert!(optimal as f64 / n >= 0.90, "optimal: {optimal}/{n}");
    // Most loops resource-limited (paper: 84%).
    assert!(
        (0.70..=0.95).contains(&(res_limited as f64 / n)),
        "res-limited: {res_limited}/{n}"
    );
    // ~77% of loops vectorizable (no non-trivial SCC).
    assert!(
        (0.65..=0.90).contains(&(no_nontrivial_scc as f64 / n)),
        "vectorizable: {no_nontrivial_scc}/{n}"
    );
    // SCCs overwhelmingly single-operation (paper: 93%).
    assert!(
        single_op_sccs as f64 / total_sccs as f64 >= 0.90,
        "single-op SCCs: {single_op_sccs}/{total_sccs}"
    );
    // Most loops scheduled in one pass (paper: 90%).
    assert!(
        once_scheduled as f64 / n >= 0.6,
        "once-scheduled: {once_scheduled}/{n}"
    );
}
