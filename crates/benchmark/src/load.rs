//! Seeded load generation.
//!
//! Every workload draws from one fixed corpus, the repository's standard
//! 1327-loop corpus at [`CORPUS_SEED`], so the work in one pass does not
//! depend on the run's seed. The seed varies everything else: the order
//! loops are compiled in, the array contents the simulator runs on, the
//! operation numbering of replayed service requests, and the order they
//! arrive in. Generation happens before set-up and is never timed.

use ims_core::BackendSpec;
use ims_ir::{ArrayId, LoopBody, Value};
use ims_loopgen::{corpus_of_size, kernels};
use ims_serve::{gen_requests_backend, parse_request, Request, WireEdge};
use ims_testkit::{Rng, Xoshiro256};
use ims_vliw::MemoryImage;

/// Seed of the corpus every workload is built from: the corpus driver's
/// default, so loop indices match `corpus --loops N` output.
pub const CORPUS_SEED: u64 = 0xC4D5;

/// The default `--seed` of `benchmark run`.
pub const DEFAULT_SEED: u64 = 0xC4D5;

/// One corpus loop with the memory image it is simulated on.
#[derive(Debug, Clone)]
pub struct LoopInput {
    /// Index of the loop in the corpus.
    pub index: usize,
    /// The loop body, before back-substitution.
    pub body: LoopBody,
    /// Seeded initial array contents.
    pub memory: MemoryImage,
}

/// The first `count` corpus loops in seeded compile order.
pub fn pipeline_load(seed: u64, count: usize) -> Vec<LoopInput> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    // The hand kernels lead the corpus; their integer index arrays must
    // keep valid indices, so their prepared contents are the starting
    // point and only float cells are redrawn.
    let kernels = kernels(64);
    let mut loops: Vec<LoopInput> = corpus_of_size(CORPUS_SEED, count)
        .loops
        .into_iter()
        .take(count)
        .enumerate()
        .map(|(index, l)| {
            let mut memory = MemoryImage::for_body(&l.body);
            if let Some(k) = kernels.get(index) {
                for (array, data) in &k.init {
                    for (i, v) in data.iter().enumerate() {
                        memory.set(*array, i, *v);
                    }
                }
            }
            for (a, decl) in l.body.arrays().iter().enumerate() {
                let array = ArrayId(a as u32);
                for i in 0..decl.len {
                    if matches!(memory.get(array, i), Value::Float(_)) {
                        let v = 1.0 + rng.gen_range(0..17u32) as f64 / 8.0;
                        memory.set(array, i, Value::Float(v));
                    }
                }
            }
            LoopInput {
                index,
                body: l.body,
                memory,
            }
        })
        .collect();
    rng.shuffle(&mut loops);
    loops
}

/// One request line of a service stream.
#[derive(Debug, Clone)]
pub struct StreamRequest {
    /// The wire line sent to the engine.
    pub line: String,
    /// The parsed request, kept to check the response against.
    pub request: Request,
    /// Index of the generated request this one renumbers.
    pub origin: usize,
}

/// A service request stream of `rounds` rounds. Each round sends every
/// one of `base` generated requests targeting `backend` once, with its
/// operations renumbered by a seeded permutation. The first round keeps
/// the generated order, so every seed pairs the same requests into a
/// batch while the cache is cold; later rounds come in seeded order.
pub fn serve_load(
    seed: u64,
    base: usize,
    rounds: usize,
    backend: &BackendSpec,
) -> Vec<StreamRequest> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let originals: Vec<Request> = gen_requests_backend(CORPUS_SEED, base, backend)
        .iter()
        .map(|line| parse_request(line).expect("generated requests parse"))
        .collect();
    let mut stream = Vec::with_capacity(base * rounds);
    for round in 0..rounds {
        let mut batch: Vec<StreamRequest> = originals
            .iter()
            .enumerate()
            .map(|(origin, r)| {
                let mut perm: Vec<usize> = (0..r.ops.len()).collect();
                rng.shuffle(&mut perm);
                let request = renumber(r, &perm, format!("{}-r{round}", r.id));
                StreamRequest {
                    line: request.to_line(),
                    request,
                    origin,
                }
            })
            .collect();
        if round > 0 {
            rng.shuffle(&mut batch);
        }
        stream.extend(batch);
    }
    stream
}

/// `req` with operation `i` moved to position `perm[i]` and every edge
/// endpoint mapped with it: the same loop, numbered differently.
///
/// # Panics
///
/// Panics if `perm` is not a permutation of `0..req.ops.len()`.
pub fn renumber(req: &Request, perm: &[usize], id: String) -> Request {
    assert_eq!(perm.len(), req.ops.len(), "one position per operation");
    let mut ops = req.ops.clone();
    for (i, &p) in perm.iter().enumerate() {
        ops[p] = req.ops[i];
    }
    let edges = req
        .edges
        .iter()
        .map(|e| WireEdge {
            from: perm[e.from as usize] as u32,
            to: perm[e.to as usize] as u32,
            ..*e
        })
        .collect();
    Request {
        id,
        ops,
        edges,
        ..req.clone()
    }
}
