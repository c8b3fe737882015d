//! The one measurement path: for every backend, a prover search its
//! budget cuts short included, and for the pressure-aware iterative runs,
//! tracing and profiling leave the measurements — everything
//! `corpus_jsonl` renders — byte for byte unchanged, and profiling leaves
//! the traces unchanged.

use std::collections::BTreeMap;
use std::path::Path;

use ims_bench::{corpus_jsonl, measure_corpus, MeasureParams};
use ims_core::BackendKind;
use ims_loopgen::corpus_of_size;
use ims_machine::{cydra, cydra_rf};

fn read_traces(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("trace dir exists")
        .map(|e| {
            let path = e.expect("readable entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("readable trace"))
        })
        .collect()
}

#[test]
fn tracing_and_profiling_never_change_a_measurement() {
    let corpus = corpus_of_size(5, 12);
    let base = std::env::temp_dir().join(format!("ims_bench_measure_{}", std::process::id()));
    // Hand kernel 23 needs 1,132,922 nodes, so the exact run hits its
    // budget there; the SAT run has its decider's default budget.
    let prover = |backend, work_limit| MeasureParams {
        backend,
        work_limit,
        ..MeasureParams::ims(6.0)
    };
    let pressure = MeasureParams {
        pressure_limit: Some(16),
        ..MeasureParams::ims(6.0)
    };
    for (label, machine, params) in [
        ("ims", cydra(), MeasureParams::ims(6.0)),
        ("exact", cydra(), prover(BackendKind::Exact, Some(200_000))),
        ("sat", cydra(), prover(BackendKind::Sat, None)),
        ("press16", cydra_rf(16), pressure),
    ] {
        let traced_dir = base.join(format!("{label}_traced"));
        let both_dir = base.join(format!("{label}_both"));
        let run = |trace: Option<&Path>, profile| {
            let (ms, reg) = measure_corpus(
                &corpus,
                &machine,
                &params,
                2,
                trace.map(|d| (d, "")),
                profile,
            )
            .expect("trace directory is writable");
            assert_eq!(
                reg.counter(ims_prof::phase::CORPUS_LOOPS) > 0,
                profile,
                "{label}"
            );
            corpus_jsonl(&ms)
        };

        let plain = run(None, false);
        assert_eq!(
            plain,
            run(Some(&traced_dir), false),
            "{label}: tracing changed a measurement"
        );
        assert_eq!(
            plain,
            run(None, true),
            "{label}: profiling changed a measurement"
        );
        assert_eq!(
            plain,
            run(Some(&both_dir), true),
            "{label}: traced profiling diverged"
        );

        let traces = read_traces(&traced_dir);
        assert_eq!(
            traces.len(),
            corpus.loops.len(),
            "{label}: one trace per loop"
        );
        assert_eq!(
            traces,
            read_traces(&both_dir),
            "{label}: profiling changed a trace"
        );
        if params.backend != BackendKind::Ims {
            assert!(
                plain.contains("\"proved_lb\":"),
                "{label}: provers report bounds"
            );
        }
        if params.work_limit.is_some() {
            assert!(
                plain.contains("\"limit_hit\":true"),
                "{label}: a search hits its budget"
            );
        }
        if params.pressure_limit.is_some() {
            assert!(
                plain.contains("\"press_ok\":"),
                "{label}: pressure runs report their verdict"
            );
        }
    }
    std::fs::remove_dir_all(&base).ok();
}
