//! End-to-end checks on the parallel corpus driver: the rendered JSON-line
//! output is byte-identical for every thread count, and the incremental
//! ResMII matches a straightforward clone-per-trial reference on a real
//! corpus sample (both in value and in `resmii_work` accounting).

use ims_bench::{corpus_jsonl, measure_corpus, MeasureParams};
use ims_core::{res_mii, Counters, Problem};
use ims_deps::{back_substitute, build_problem, BuildOptions};
use ims_graph::NodeId;
use ims_loopgen::corpus_of_size;
use ims_machine::cydra;

#[test]
fn corpus_output_is_byte_identical_across_thread_counts() {
    let machine = cydra();
    let corpus = corpus_of_size(0xBEEF, 60);
    let jsonl = |threads| {
        let (ms, _) = measure_corpus(
            &corpus,
            &machine,
            &MeasureParams::ims(6.0),
            threads,
            None,
            false,
        )
        .expect("no trace dir, no I/O");
        corpus_jsonl(&ms)
    };
    let baseline = jsonl(1);
    assert_eq!(baseline.lines().count(), 61, "60 loops + 1 aggregate line");
    for threads in [2usize, 4, 8] {
        let par = jsonl(threads);
        assert_eq!(baseline, par, "output diverged at {threads} threads");
    }
}

/// The pre-optimization ResMII: clones the usage vector for every trial
/// alternative and takes the peak of the whole clone. Kept here as the
/// semantic reference for the incremental implementation in `ims-core`.
fn res_mii_reference(problem: &Problem<'_>, counters: &mut Counters) -> i64 {
    let machine = problem.machine();
    let mut nodes: Vec<NodeId> = problem.op_nodes().collect();
    nodes.sort_by_key(|&n| {
        problem
            .info(n)
            .map(|i| i.alternatives.len())
            .unwrap_or(usize::MAX)
    });
    let mut usage = vec![0u64; machine.num_resources()];
    for node in nodes {
        let info = problem.info(node).expect("op_nodes yields only real ops");
        let mut best: Option<(u64, usize)> = None;
        for (ai, alt) in info.alternatives.iter().enumerate() {
            let mut trial = usage.clone();
            for &(r, _) in alt.table.uses() {
                counters.resmii_work += 1;
                trial[r.index()] += 1;
            }
            let peak = trial.iter().copied().max().unwrap_or(0);
            if best.is_none_or(|(bp, _)| peak < bp) {
                best = Some((peak, ai));
            }
        }
        if let Some((_, ai)) = best {
            for &(r, _) in info.alternatives[ai].table.uses() {
                usage[r.index()] += 1;
            }
        }
    }
    usage.iter().copied().max().unwrap_or(0).max(1) as i64
}

#[test]
fn incremental_res_mii_matches_clone_reference_on_corpus() {
    let machine = cydra();
    let corpus = corpus_of_size(0xC4D5, 50);
    for (i, l) in corpus.loops.iter().enumerate() {
        let body = back_substitute(&l.body, &machine);
        let problem = build_problem(&body, &machine, &BuildOptions::default());
        let mut c_inc = Counters::new();
        let mut c_ref = Counters::new();
        let inc = res_mii(&problem, &mut c_inc);
        let reference = res_mii_reference(&problem, &mut c_ref);
        assert_eq!(inc, reference, "ResMII diverged on corpus loop {i}");
        assert_eq!(
            c_inc.resmii_work, c_ref.resmii_work,
            "resmii_work accounting diverged on corpus loop {i}"
        );
    }
}
