//! Integration tests for the traced corpus path: trace directories must
//! be byte-identical across thread counts, and the written traces must
//! faithfully replay the schedules the measurements report. That tracing
//! never perturbs a measurement is checked in `tests/measure.rs`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use ims_bench::{measure_corpus, LoopMeasurement, MeasureParams};
use ims_loopgen::corpus_of_size;
use ims_machine::cydra;
use ims_trace::{parse_trace, replay, TraceSummary};

/// A unique, self-cleaning temp directory per test.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("ims_bench_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn read_traces(dir: &Path) -> BTreeMap<String, String> {
    std::fs::read_dir(dir)
        .expect("trace dir exists")
        .map(|e| {
            let path = e.expect("readable entry").path();
            let name = path.file_name().unwrap().to_str().unwrap().to_string();
            (name, std::fs::read_to_string(&path).expect("readable trace"))
        })
        .collect()
}

/// The iterative backend over `corpus`, traced into `dir`.
fn traced(corpus: &ims_loopgen::Corpus, threads: usize, dir: &Path) -> Vec<LoopMeasurement> {
    let params = MeasureParams::ims(6.0);
    measure_corpus(corpus, &cydra(), &params, threads, Some((dir, "")), false)
        .expect("traces written")
        .0
}

#[test]
fn trace_directory_is_identical_across_thread_counts() {
    let corpus = corpus_of_size(12, 30);

    let one = TempDir::new("threads1");
    let four = TempDir::new("threads4");
    traced(&corpus, 1, &one.0);
    traced(&corpus, 4, &four.0);

    let a = read_traces(&one.0);
    let b = read_traces(&four.0);
    assert_eq!(a.len(), corpus.loops.len(), "one trace file per loop");
    assert_eq!(a, b, "trace files must not depend on the thread count");
}

#[test]
fn written_traces_replay_to_the_reported_schedules() {
    let corpus = corpus_of_size(13, 15);

    let tmp = TempDir::new("replay");
    let ms = traced(&corpus, 2, &tmp.0);

    let traces = read_traces(&tmp.0);
    for (index, m) in ms.iter().enumerate() {
        let name = format!("loop_{index:05}.jsonl");
        let events = parse_trace(&traces[&name]).expect("trace parses");
        let summary = TraceSummary::from_events(&events);
        assert_eq!(summary.final_ii(), Some(m.ii), "{name}");
        assert_eq!(summary.total_steps(), m.total_steps, "{name}");
        assert_eq!(summary.evictions, m.counters.evictions, "{name}");
        let times = replay(&events).final_times().expect("complete schedule");
        // Every placement respects the final II's row structure: the
        // replayed times are exactly the schedule the measurement saw,
        // so its length (STOP time) must match.
        assert_eq!(
            times.iter().copied().max(),
            Some(m.schedule_length),
            "{name}"
        );
    }
}
