//! Assembly of the full substitute corpus.

use ims_ir::{ArrayId, LoopBody, Value};
use ims_testkit::{Rng, Xoshiro256};

use crate::kernels::kernels;
use crate::synth::{generate_loop, SynthConfig};

/// Where a corpus loop came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// A hand-written Livermore-style kernel (§4.1's "27 from the LFK").
    Kernel(&'static str),
    /// A synthetic loop calibrated to the paper's corpus statistics.
    Synthetic,
}

/// An execution profile in the sense of §4.3: *"EntryFreq is the number of
/// times the loop is entered, LoopFreq is the number of times the loop body
/// is traversed"*; both are *"obtained by profiling the benchmark
/// programs"* — here, synthesized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Profile {
    /// Times the loop is entered.
    pub entry_freq: u64,
    /// Times the loop body is traversed.
    pub loop_freq: u64,
    /// Whether the loop executes at all under the profiling input (§4.3:
    /// *"Only 597 of the 1327 loops end up being executed"*).
    pub executed: bool,
}

/// One loop of the corpus.
#[derive(Debug, Clone)]
pub struct CorpusLoop {
    /// The loop body.
    pub body: LoopBody,
    /// Its synthetic execution profile.
    pub profile: Profile,
    /// Provenance.
    pub source: Source,
    /// Initial contents per array: the hand kernel's `init`, empty for
    /// synthetic loops, whose arrays start zero-filled.
    pub init: Vec<(ArrayId, Vec<Value>)>,
}

/// The full corpus.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The loops, hand kernels first.
    pub loops: Vec<CorpusLoop>,
}

impl Corpus {
    /// Number of loops.
    pub fn len(&self) -> usize {
        self.loops.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }
}

/// Samples an operation-count target from a log-normal calibrated to
/// Table 3's "Number of operations" row: minimum 4 (hit rarely), median
/// ≈ 12, mean ≈ 19.5, maximum capped at 163.
fn sample_ops_target<R: Rng>(rng: &mut R) -> usize {
    let z: f64 = {
        // Box–Muller from two uniforms.
        let u1: f64 = rng.gen_range(1e-12..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    };
    let x = (2.15 + 1.1 * z).exp();
    (3.0 + x).round().clamp(4.0, 163.0) as usize
}

/// Samples the multi-operation recurrence structure: 77% of loops have no
/// non-trivial SCC (Table 3); the rest have a few, almost always small,
/// with a long tail (the paper saw up to 6 SCCs and up to 42 nodes in one).
fn sample_recurrences<R: Rng>(rng: &mut R, ops_target: usize) -> Vec<usize> {
    if rng.gen_bool(0.77) {
        return Vec::new();
    }
    let count = match rng.gen_range(0..100) {
        0..=69 => 1,
        70..=89 => 2,
        90..=96 => 3,
        _ => rng.gen_range(4..=6),
    };
    (0..count)
        .map(|_| {
            let len = if rng.gen_bool(0.02) {
                rng.gen_range(9..=40)
            } else {
                2 + (rng.gen_range(0.0f64..1.0).powi(2) * 6.0) as usize
            };
            len.min(ops_target.max(4))
        })
        .collect()
}

fn sample_profile<R: Rng>(rng: &mut R) -> Profile {
    let z: f64 = {
        let u1: f64 = rng.gen_range(1e-12..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    };
    let loop_freq = (3.5 + 1.0 * z).exp().round().clamp(1.0, 100_000.0) as u64;
    Profile {
        entry_freq: 1,
        loop_freq,
        // 597 / 1327 of the loops execute under the profiling input.
        executed: rng.gen_bool(597.0 / 1327.0),
    }
}

/// Builds the 1327-loop substitute corpus: every hand-written kernel plus
/// synthetic loops calibrated to Table 3. Deterministic in `seed`.
pub fn paper_corpus(seed: u64) -> Corpus {
    corpus_of_size(seed, 1327)
}

/// Builds a corpus of the given size (hand kernels first; at least as many
/// loops as kernels are produced).
pub fn corpus_of_size(seed: u64, size: usize) -> Corpus {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut loops = Vec::with_capacity(size);
    for k in kernels(64) {
        loops.push(CorpusLoop {
            body: k.body,
            profile: sample_profile(&mut rng),
            source: Source::Kernel(k.name),
            init: k.init,
        });
    }
    while loops.len() < size {
        let ops_target = sample_ops_target(&mut rng);
        let config = SynthConfig {
            ops_target,
            recurrences: sample_recurrences(&mut rng, ops_target),
            with_branch: rng.gen_bool(0.5),
        };
        loops.push(CorpusLoop {
            body: generate_loop(&mut rng, &config),
            profile: sample_profile(&mut rng),
            source: Source::Synthetic,
            init: Vec::new(),
        });
    }
    Corpus { loops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ims_ir::validate::validate;

    #[test]
    fn corpus_has_requested_size_and_validates() {
        let c = corpus_of_size(1, 100);
        assert_eq!(c.len(), 100);
        assert!(!c.is_empty());
        for l in &c.loops {
            assert!(validate(&l.body).is_ok());
        }
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = corpus_of_size(9, 50);
        let b = corpus_of_size(9, 50);
        for (x, y) in a.loops.iter().zip(&b.loops) {
            assert_eq!(x.body, y.body);
            assert_eq!(x.profile, y.profile);
        }
    }

    #[test]
    fn kernels_lead_the_corpus() {
        let c = corpus_of_size(2, 60);
        assert!(matches!(c.loops[0].source, Source::Kernel(_)));
        assert!(c
            .loops
            .iter()
            .any(|l| matches!(l.source, Source::Synthetic)));
    }

    #[test]
    fn op_count_distribution_matches_table_3_shape() {
        let c = paper_corpus(17);
        assert_eq!(c.len(), 1327);
        let mut ns: Vec<usize> = c.loops.iter().map(|l| l.body.num_ops()).collect();
        ns.sort_unstable();
        let median = ns[ns.len() / 2] as f64;
        let mean = ns.iter().sum::<usize>() as f64 / ns.len() as f64;
        let max = *ns.last().unwrap();
        assert!((9.0..=16.0).contains(&median), "median {median}");
        assert!((15.0..=25.0).contains(&mean), "mean {mean}");
        assert!(max >= 100, "max {max}");
        assert!(*ns.first().unwrap() >= 4);
        // Skew: median below mean, as in the paper.
        assert!(median < mean);
    }

    #[test]
    fn profiles_are_plausible() {
        let c = corpus_of_size(3, 500);
        let executed = c.loops.iter().filter(|l| l.profile.executed).count();
        let frac = executed as f64 / c.len() as f64;
        assert!((0.35..=0.55).contains(&frac), "executed fraction {frac}");
        assert!(c.loops.iter().all(|l| l.profile.entry_freq == 1));
        assert!(c.loops.iter().all(|l| l.profile.loop_freq >= 1));
    }
}
