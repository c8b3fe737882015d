//! Request generation and corpus dedup over the canonical form.
//!
//! [`gen_requests`] turns the seeded benchmark corpus (`ims-loopgen`)
//! into wire-format request lines: each loop body is back-substituted and
//! analyzed exactly as `ims_bench::run_corpus` does it, then the problem's
//! real operations and dependence edges are serialized. The output is a
//! pure function of `(seed, n)`, so replay files for determinism checks
//! can be regenerated anywhere.
//!
//! [`dedup_keys`] is the canonicalization pass earning its second keep:
//! hashing each request's canonical form collapses loops that differ only
//! in operation numbering, giving the corpus a structural-duplicate count
//! for free.

use std::collections::HashSet;

use ims_deps::{back_substitute, build_problem, BuildOptions};
use ims_loopgen::corpus_of_size;
use ims_machine::cydra;

use crate::cache::key_request;
use crate::service::line_text;
use crate::wire::{parse_request, Request, WireEdge};

/// Generates `n` deterministic request lines from the seeded corpus,
/// targeting the full Cydra machine with default scheduling knobs and
/// the default (`ims`) backend.
pub fn gen_requests(seed: u64, n: usize) -> Vec<String> {
    gen_requests_backend(seed, n, &ims_core::BackendSpec::default())
}

/// [`gen_requests`] with every request routed to `backend` — any spec,
/// leaf or portfolio. Used by the driver's `--gen-requests --backend …`
/// path to produce replay corpora for backend-determinism checks.
pub fn gen_requests_backend(seed: u64, n: usize, backend: &ims_core::BackendSpec) -> Vec<String> {
    let machine = cydra();
    let corpus = corpus_of_size(seed, n);
    corpus
        .loops
        .iter()
        .take(n)
        .enumerate()
        .map(|(i, l)| {
            let body = back_substitute(&l.body, &machine);
            let problem = build_problem(&body, &machine, &BuildOptions::default());
            let stop = problem.stop();
            let ops = problem
                .op_nodes()
                .map(|v| match problem.kind(v) {
                    ims_core::NodeKind::Op { opcode, .. } => opcode,
                    _ => unreachable!("op_nodes yields only real operations"),
                })
                .collect();
            let edges = problem
                .graph()
                .edges()
                .iter()
                .filter(|e| e.from.index() > 0 && e.to != stop)
                .map(|e| WireEdge {
                    // Problem node 0 is START; real ops are 1..=num_ops.
                    from: e.from.index() as u32 - 1,
                    to: e.to.index() as u32 - 1,
                    delay: e.delay,
                    distance: e.distance,
                    kind: e.kind,
                    is_mem: e.is_mem,
                })
                .collect();
            Request {
                id: format!("loop-{i:05}"),
                machine: "cydra".to_string(),
                backend: backend.clone(),
                budget_ratio: 2.0,
                max_ii: None,
                node_limit: None,
                pressure_limit: None,
                ops,
                edges,
            }
            .to_line()
        })
        .collect()
}

/// Canonical cache keys of a request-line corpus, plus the number of
/// structural duplicates (lines whose canonical key was already seen —
/// i.e. the same labeled graph up to node renumbering and the same
/// scheduling configuration). Unparsable lines are skipped, and so are
/// the lines the service refuses unread: one longer than
/// [`MAX_LINE_BYTES`](crate::wire::MAX_LINE_BYTES), or not UTF-8.
pub fn dedup_keys<L: AsRef<[u8]>>(lines: &[L]) -> (HashSet<u128>, usize) {
    let mut keys = HashSet::new();
    let mut dups = 0usize;
    for line in lines {
        let text = line_text(line.as_ref());
        if let Ok(req) = text.and_then(parse_request) {
            if !keys.insert(key_request(&req).key) {
                dups += 1;
            }
        }
    }
    (keys, dups)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_parseable() {
        let a = gen_requests(42, 12);
        let b = gen_requests(42, 12);
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
        for line in &a {
            let req = parse_request(line).expect(line);
            assert!(!req.ops.is_empty());
            assert_eq!(req.machine, "cydra");
        }
        // The corpus leads with the seed-independent hand kernels (~31),
        // so a seed change only shows in the synthetic tail beyond them.
        assert_ne!(gen_requests(43, 40), gen_requests(42, 40));
    }

    #[test]
    fn generation_routes_requests_to_the_given_backend_spec() {
        let spec: ims_core::BackendSpec = "portfolio(ims,exact,sat)".parse().unwrap();
        let lines = gen_requests_backend(42, 4, &spec);
        for line in &lines {
            let req = parse_request(line).expect(line);
            assert_eq!(req.backend, spec);
        }
        // Only the backend field differs from the default generation.
        let default = gen_requests(42, 4);
        for (a, b) in lines.iter().zip(&default) {
            assert_eq!(a.replace("portfolio(ims,exact,sat)", "ims"), b.clone());
        }
    }

    #[test]
    fn dedup_counts_renumbered_duplicates() {
        let base = r#"{"id":"a","ops":["load","add"],"edges":[[0,1,13,0,"flow",false]]}"#;
        let perm = r#"{"id":"b","ops":["add","load"],"edges":[[1,0,13,0,"flow",false]]}"#;
        let other = r#"{"id":"c","ops":["load","add"],"edges":[[0,1,5,0,"flow",false]]}"#;
        let lines: Vec<String> = [base, perm, other, "junk"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (keys, dups) = dedup_keys(&lines);
        assert_eq!(keys.len(), 2, "base and perm collapse");
        assert_eq!(dups, 1);
    }
}
