//! Corpus-wide properties of the attribution and mining layers.
//!
//! Two contracts the `explain` driver relies on, checked here over the
//! full 300-loop optgap corpus (seed `0xC4D5`, the corpus every
//! cross-backend experiment shares):
//!
//! * **exact-match accounting** — what the mined trace says happened is
//!   what the scheduler's own deterministic counters say happened, loop
//!   by loop, with no tolerance; and the JSONL trace encoding is
//!   lossless, so a report mined from a written-then-parsed trace file
//!   is byte-identical to one mined from the in-process observer;
//! * **no anonymous loops** — every loop's MII comes back with a named
//!   binding constraint: saturated resources when resource-bound, a
//!   non-empty binding SCC (with a representative circuit or the
//!   truncation fallback) when recurrence-bound.

use ims_core::{Counters, SchedConfig, Scheduler};
use ims_deps::{back_substitute, build_problem, BuildOptions};
use ims_explain::{attribute_mii, LoopReport, MiiBound, TraceMine};
use ims_loopgen::corpus_of_size;
use ims_machine::cydra;
use ims_trace::{parse_trace_prefix, Recorder};

#[test]
fn mined_totals_match_scheduler_counters_across_the_corpus() {
    let corpus = corpus_of_size(0xC4D5, 300);
    let machine = cydra();
    let config = SchedConfig::new().budget_ratio(6.0);
    for (index, l) in corpus.loops.iter().enumerate() {
        let body = back_substitute(&l.body, &machine);
        let problem = build_problem(&body, &machine, &BuildOptions::default());
        let mut rec = Recorder::new();
        let out = Scheduler::new(&problem)
            .config(config.clone())
            .observer(&mut rec)
            .run()
            .expect("corpus loops schedule under the automatic II cap");

        let mined = TraceMine::from_events(&rec.events);
        assert_eq!(
            mined.summary.evictions, out.stats.counters.evictions,
            "loop {index}: mined evictions"
        );
        assert_eq!(
            mined.summary.slots_examined, out.stats.counters.findslot_iters,
            "loop {index}: mined slot-search iterations"
        );
        assert_eq!(
            mined.summary.total_steps(),
            out.stats.total_steps(),
            "loop {index}: mined scheduling steps"
        );
        assert_eq!(
            mined.summary.final_ii(),
            Some(out.schedule.ii),
            "loop {index}: mined final II"
        );

        // The JSONL trace encoding round-trips losslessly, so the
        // file-fed analysis path sees the exact event stream the
        // observer saw...
        let mut text = String::new();
        for ev in &rec.events {
            text.push_str(&ev.to_json_line());
            text.push('\n');
        }
        let (parsed, complete) = parse_trace_prefix(&text);
        assert!(complete, "loop {index}: rewritten trace parses completely");
        assert_eq!(parsed, rec.events, "loop {index}: events round-trip");

        // ...and the rendered reports are byte-identical.
        let report = |mine: TraceMine| LoopReport {
            label: format!("loop_{index:05}"),
            ops: problem.num_ops(),
            attribution: attribute_mii(&problem, 10_000, &mut Counters::new()),
            mine,
            bounds: None,
        };
        let live = report(mined);
        let from_file = report(TraceMine::from_events(&parsed));
        assert_eq!(
            live.to_json_line(&machine),
            from_file.to_json_line(&machine),
            "loop {index}: observer-fed vs trace-file-fed JSON"
        );
        assert_eq!(
            live.render_text(&machine),
            from_file.render_text(&machine),
            "loop {index}: observer-fed vs trace-file-fed digest"
        );
    }
}

#[test]
fn every_corpus_loop_gets_a_named_binding_constraint() {
    let corpus = corpus_of_size(0xC4D5, 300);
    let machine = cydra();
    for (index, l) in corpus.loops.iter().enumerate() {
        let body = back_substitute(&l.body, &machine);
        let problem = build_problem(&body, &machine, &BuildOptions::default());
        let att = attribute_mii(&problem, 10_000, &mut Counters::new());
        assert!(att.mii >= 1, "loop {index}");
        match att.bound {
            MiiBound::Resource | MiiBound::Tie => {
                assert!(
                    !att.res.binding.is_empty(),
                    "loop {index}: resource-bound MII must name saturated resources"
                );
                assert!(
                    !att.res.binding_names(&machine).is_empty(),
                    "loop {index}: binding resources resolve to names"
                );
            }
            MiiBound::Recurrence => {}
        }
        if matches!(att.bound, MiiBound::Recurrence | MiiBound::Tie) {
            assert!(
                !att.rec.scc.is_empty(),
                "loop {index}: recurrence-bound MII must name its binding SCC"
            );
            assert!(
                att.rec.circuit.is_some() || att.rec.circuits_truncated,
                "loop {index}: a representative circuit unless enumeration truncated"
            );
            if let Some(c) = &att.rec.circuit {
                assert_eq!(
                    c.min_ii(),
                    att.rec.rec_mii,
                    "loop {index}: circuit proves the RecMII"
                );
            }
        }
    }
}
