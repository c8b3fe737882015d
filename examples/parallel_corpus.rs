//! Parallel corpus scheduling: fan a loop corpus out over worker threads.
//!
//! Generates a synthetic corpus, schedules it once sequentially and once on
//! every available core via the std-only worker pool, reports the speedup,
//! and demonstrates the determinism guarantee: the JSON-line output is
//! byte-identical regardless of the thread count.
//!
//! Run with: `cargo run --release --example parallel_corpus`

use std::time::Instant;

use ims::bench::pool::default_threads;
use ims::bench::{corpus_jsonl, measure_corpus, LoopMeasurement, MeasureParams};
use ims::loopgen::corpus_of_size;
use ims::machine::cydra;

fn main() {
    let machine = cydra();
    let corpus = corpus_of_size(0xC4D5, 200);
    println!("corpus: {} loops on the Cydra-5-like machine", corpus.loops.len());
    let measure = |threads| -> Vec<LoopMeasurement> {
        measure_corpus(
            &corpus,
            &machine,
            &MeasureParams::ims(6.0),
            threads,
            None,
            false,
        )
        .expect("no trace dir, no I/O")
        .0
    };

    // --- 1. Sequential baseline --------------------------------------
    let t0 = Instant::now();
    let seq = measure(1);
    let seq_elapsed = t0.elapsed();
    println!("1 thread : {:>8.1} ms", seq_elapsed.as_secs_f64() * 1e3);

    // --- 2. Parallel run on every available core ---------------------
    let threads = default_threads();
    let t0 = Instant::now();
    let par = measure(threads);
    let par_elapsed = t0.elapsed();
    println!(
        "{threads} threads: {:>8.1} ms  ({:.2}x speedup)",
        par_elapsed.as_secs_f64() * 1e3,
        seq_elapsed.as_secs_f64() / par_elapsed.as_secs_f64().max(1e-9)
    );

    // --- 3. Determinism: identical rendered output -------------------
    // Results come back in corpus order no matter how the OS schedules
    // the workers, so anything rendered from them is byte-identical.
    let a = corpus_jsonl(&seq);
    let b = corpus_jsonl(&par);
    assert_eq!(a, b, "corpus output must not depend on the thread count");
    println!("output: {} JSON lines, byte-identical across thread counts", a.lines().count());

    // The aggregate line summarises the whole run.
    println!("aggregate: {}", a.lines().last().unwrap());
}
