//! Property tests for the incremental pressure tracker.
//!
//! * After every scripted place and evict, [`PressureModel::max_live`] must
//!   equal MaxLive counted cycle by cycle from the partial placement, so a
//!   stale cached row peak cannot hide behind a later update.
//! * After the script ends in a full placement, it must equal MaxLive
//!   recomputed independently via `ims_codegen::lifetimes` on the final
//!   schedule — the two share only `ims_deps::DefSites`, so a
//!   row-arithmetic or incremental-update bug cannot hide in both.
//! * [`PressureModel::exceeds_if_placed`] must answer as placing, checking
//!   and evicting on a clone would, leave the model as it found it, and
//!   leave a following place with the right MaxLive.

use ims_codegen::lifetimes;
use ims_core::Schedule;
use ims_deps::{build_problem, node_of, BuildOptions};
use ims_ir::LoopBody;
use ims_loopgen::{generate_loop, SynthConfig};
use ims_machine::cydra;
use ims_press::{shapes_from_body, PressureModel, ValueShape};
use ims_testkit::{check, prop_assert, prop_assert_eq, Gen, PropConfig, Regression, Xoshiro256};

/// A generated workload: loop seed/shape, candidate II, a place/evict
/// toggle script over `(op, time)` pairs, and fallback times for whatever
/// the script leaves unplaced.
type Script = (u64, usize, i64, Vec<(usize, i64)>, Vec<i64>);

fn gen_script(g: &mut Gen) -> Script {
    let seed = g.u64();
    let ops_target = g.usize_in(3, 18);
    let ii = g.i64_in(1, 12);
    let script = g.vec_with(30, |g| (g.usize_in(0, 64), g.i64_in(0, 40)));
    let final_times = (0..64).map(|_| g.i64_in(0, 40)).collect();
    (seed, ops_target, ii, script, final_times)
}

fn gen_body(seed: u64, ops_target: usize) -> LoopBody {
    let config = SynthConfig {
        ops_target,
        recurrences: vec![],
        with_branch: false,
    };
    let mut rng = Xoshiro256::seed_from_u64(seed);
    generate_loop(&mut rng, &config)
}

/// MaxLive of a partial placement (`times` per graph node), counted cycle
/// by cycle over the `[birth, death]` interval of every placed value.
fn counted_max_live(shapes: &[ValueShape], times: &[Option<i64>], ii: i64) -> u32 {
    let mut rows = vec![0u32; ii as usize];
    for s in shapes {
        let Some(t_def) = times[s.def.index()] else {
            continue;
        };
        let birth = t_def + s.latency;
        let death = s
            .uses
            .iter()
            .filter_map(|&(u, d)| times[u.index()].map(|t| t + ii * d as i64))
            .fold(birth, i64::max);
        for c in birth..=death {
            rows[c.rem_euclid(ii) as usize] += 1;
        }
    }
    rows.into_iter().max().unwrap_or(0)
}

#[test]
fn incremental_max_live_matches_codegen_lifetimes() {
    check(
        "incremental_max_live_matches_codegen_lifetimes",
        &PropConfig::with_cases(96),
        &[Regression::new(0x5eed_11fe_0000_0001, 12)],
        gen_script,
        |(seed, ops_target, ii, script, final_times)| {
            let ii = *ii;
            let body = gen_body(*seed, *ops_target);
            let machine = cydra();
            let problem = build_problem(&body, &machine, &BuildOptions::default());
            let num_nodes = problem.graph().num_nodes();
            let num_ops = problem.num_ops();

            let shapes = shapes_from_body(&body, &problem);
            let mut model = PressureModel::new(shapes.clone(), num_nodes, ii);
            // Drive the tracker through arbitrary churn: toggle each
            // scripted op between placed and evicted, like the iterative
            // scheduler's displacement loop does.
            let mut times: Vec<Option<i64>> = vec![None; num_nodes];
            for &(pick, t) in script {
                let node = node_of(ims_ir::OpId((pick % num_ops) as u32));
                if times[node.index()].is_some() {
                    times[node.index()] = None;
                    model.evict(node);
                } else {
                    times[node.index()] = Some(t);
                    model.place(node, t);
                }
                let counted = counted_max_live(&shapes, &times, ii);
                prop_assert_eq!(model.max_live(), counted, "II {} mid-script", ii);
            }
            // Finish with a full (not necessarily legal) placement — the
            // lifetime arithmetic is schedule-validity-agnostic.
            for op in 0..num_ops {
                let node = node_of(ims_ir::OpId(op as u32));
                if times[node.index()].is_none() {
                    let t = final_times[op % final_times.len()];
                    times[node.index()] = Some(t);
                    model.place(node, t);
                    let counted = counted_max_live(&shapes, &times, ii);
                    prop_assert_eq!(model.max_live(), counted, "II {} filling in", ii);
                }
            }

            // From-scratch oracle: codegen lifetimes over the final
            // schedule, summed into per-row live counts.
            let time = times.iter().map(|t| t.unwrap_or(0)).collect();
            let schedule = Schedule {
                ii,
                time,
                alternative: vec![0; num_nodes],
                length: 0,
            };
            let lts = lifetimes(&body, &problem, &schedule);
            let oracle = (0..ii)
                .map(|r| {
                    lts.iter()
                        .map(|lt| {
                            let len = lt.death - lt.birth + 1;
                            let extra = ((r - lt.birth).rem_euclid(ii) < len % ii) as u32;
                            (len / ii) as u32 + extra
                        })
                        .sum::<u32>()
                })
                .max()
                .unwrap_or(0);
            prop_assert_eq!(model.max_live(), oracle, "II {} over {} ops", ii, num_ops);
            Ok(())
        },
    );
}

#[test]
fn exceeds_if_placed_matches_place_check_evict() {
    check(
        "exceeds_if_placed_matches_place_check_evict",
        &PropConfig::with_cases(64),
        &[],
        gen_script,
        |(seed, ops_target, ii, script, other_times)| {
            let ii = *ii;
            let body = gen_body(*seed, *ops_target);
            let machine = cydra();
            let problem = build_problem(&body, &machine, &BuildOptions::default());
            let num_nodes = problem.graph().num_nodes();
            let num_ops = problem.num_ops();

            let shapes = shapes_from_body(&body, &problem);
            let mut model = PressureModel::new(shapes.clone(), num_nodes, ii);
            let rows = |m: &PressureModel| (0..ii).map(|r| m.live_at(r)).collect::<Vec<_>>();
            let mut times: Vec<Option<i64>> = vec![None; num_nodes];
            for (step, &(pick, t)) in script.iter().enumerate() {
                let node = node_of(ims_ir::OpId((pick % num_ops) as u32));
                if times[node.index()].is_some() {
                    times[node.index()] = None;
                    model.evict(node);
                    continue;
                }
                // Probe before placing, as FindTimeSlot does, at `t` and at
                // another time, ending on `t` every other step: a place may
                // reuse a probe's peak only for the probed time.
                let other = other_times[step % other_times.len()];
                let probes = if step % 2 == 0 {
                    [other, t]
                } else {
                    [t, other]
                };
                for pt in probes {
                    let mut placed = model.clone();
                    placed.place(node, pt);
                    let (before, after) = (model.max_live(), placed.max_live());
                    prop_assert!(after >= before, "a placement lowered MaxLive");
                    let before_rows = rows(&model);
                    // Just below, at and above MaxLive before and after the
                    // placement: the early answer and the probed one.
                    for limit in [before, after]
                        .into_iter()
                        .flat_map(|m| [m.saturating_sub(1), m, m + 1])
                    {
                        prop_assert_eq!(
                            model.exceeds_if_placed(node, pt, limit),
                            after > limit,
                            "node {:?} at {} under limit {}",
                            node,
                            pt,
                            limit
                        );
                        prop_assert_eq!(rows(&model), before_rows, "the query moved a row");
                        prop_assert_eq!(model.max_live(), before, "the query moved MaxLive");
                    }
                }
                times[node.index()] = Some(t);
                model.place(node, t);
                let counted = counted_max_live(&shapes, &times, ii);
                prop_assert_eq!(model.max_live(), counted, "II {} after probing", ii);
            }
            Ok(())
        },
    );
}
