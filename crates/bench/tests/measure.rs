//! The one measurement path: for every backend, tracing and profiling
//! leave the measurements — everything `corpus_jsonl` renders — byte for
//! byte unchanged, and profiling leaves the traces unchanged.

use std::collections::BTreeMap;
use std::path::Path;

use ims_bench::{corpus_jsonl, measure_corpus, MeasureParams};
use ims_core::BackendKind;
use ims_loopgen::corpus_of_size;
use ims_machine::cydra;

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
    let machine = cydra();
    let base = std::env::temp_dir().join(format!("ims_bench_measure_{}", std::process::id()));
    for (backend, work_limit) in [
        (BackendKind::Ims, None),
        (BackendKind::Exact, Some(200_000)),
        (BackendKind::Sat, Some(20_000)),
    ] {
        let params = MeasureParams {
            backend,
            work_limit,
            ..MeasureParams::ims(6.0)
        };
        let traced_dir = base.join(format!("{backend}_traced"));
        let both_dir = base.join(format!("{backend}_both"));
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
                "{backend}"
            );
            corpus_jsonl(&ms, false)
        };

        let plain = run(None, false);
        assert_eq!(
            plain,
            run(Some(&traced_dir), false),
            "{backend}: tracing changed a measurement"
        );
        assert_eq!(
            plain,
            run(None, true),
            "{backend}: profiling changed a measurement"
        );
        assert_eq!(
            plain,
            run(Some(&both_dir), true),
            "{backend}: traced profiling diverged"
        );

        let traces = read_traces(&traced_dir);
        assert_eq!(
            traces.len(),
            corpus.loops.len(),
            "{backend}: one trace per loop"
        );
        assert_eq!(
            traces,
            read_traces(&both_dir),
            "{backend}: profiling changed a trace"
        );
        if backend != BackendKind::Ims {
            assert!(
                plain.contains("\"proved_lb\":"),
                "{backend}: provers report bounds"
            );
        }
    }
    std::fs::remove_dir_all(&base).ok();
}
