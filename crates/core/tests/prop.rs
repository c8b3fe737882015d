//! Property tests for the core scheduler structures, on the in-repo
//! [`ims_testkit::prop`] harness (seeded cases, halving shrinker,
//! persisted regression seeds).

use ims_core::{
    compute_mii, iterative_schedule_observed, validate_schedule, Counters, Mrt, NullObserver,
    PriorityKind, ProblemBuilder, Scheduler,
};
use ims_graph::{DepKind, NodeId};
use ims_ir::{OpId, Opcode};
use ims_machine::{minimal, wide, ConflictMask, MachineModel, ReservationTable, ResourceId};
use ims_testkit::{check, prop_assert, prop_assert_eq, Gen, PropConfig, Regression};

/// A generated problem shape: node count plus raw `(from, to, distance)`
/// edge triples (delay is fixed by the caller).
type Edges = (usize, Vec<(usize, usize, u32)>);

/// Generator for random acyclic-plus-backedge problem shapes.
fn gen_edges(g: &mut Gen) -> Edges {
    let n = g.usize_in(2, 12);
    let edges = g.vec_with(2 * n, |g| {
        (g.usize_in(0, n), g.usize_in(0, n), g.u32_in(0, 3))
    });
    (n, edges)
}

/// Builds a well-formed problem from a generated shape: zero-distance
/// edges are forced forward so the same-iteration subgraph stays acyclic.
fn build_problem<'m>(
    machine: &'m MachineModel,
    n: usize,
    edges: &[(usize, usize, u32)],
    delay: i64,
) -> ims_core::Problem<'m> {
    let mut pb = ProblemBuilder::new(machine);
    let nodes: Vec<NodeId> = (0..n)
        .map(|i| pb.add_op(Opcode::Add, OpId(i as u32)))
        .collect();
    for &(a, b, dist) in edges {
        let (from, to, dist) = if dist == 0 && a >= b {
            (b, a, if a == b { 1 } else { 0 })
        } else {
            (a, b, dist)
        };
        pb.add_dep(nodes[from], nodes[to], delay, dist, DepKind::Flow, false);
    }
    pb.finish()
}

#[test]
fn random_problems_schedule_and_validate() {
    check(
        "random_problems_schedule_and_validate",
        &PropConfig::with_cases(96),
        // Ported from the proptest-era regression file
        // (crates/core/tests/prop.proptest-regressions); the shrunk case it
        // recorded is also pinned explicitly in
        // `legacy_regression_two_node_cycle` below.
        &[Regression::new(0x7ba9_315a_2749_2963, 8)],
        gen_edges,
        |(n, edges)| {
            let machine = wide(3);
            let p = build_problem(&machine, *n, edges, 2);
            let out = Scheduler::new(&p).run().expect("schedules");
            prop_assert!(validate_schedule(&p, &out.schedule).is_ok());
            prop_assert!(out.schedule.ii >= out.mii.mii);
            prop_assert!(out.schedule.length >= 0);
            Ok(())
        },
    );
}

/// The one failure case the proptest run of this suite ever shrank to,
/// preserved verbatim so the migration to `ims-testkit` loses no history:
/// `(n, edges) = (2, [(1, 0, 1), (0, 1, 0)])` — a two-node cycle with one
/// loop-carried edge.
#[test]
fn legacy_regression_two_node_cycle() {
    let machine = wide(3);
    let p = build_problem(&machine, 2, &[(1, 0, 1), (0, 1, 0)], 2);
    let out = Scheduler::new(&p).run().expect("schedules");
    assert!(validate_schedule(&p, &out.schedule).is_ok());
    assert!(out.schedule.ii >= out.mii.mii);
    assert!(out.schedule.length >= 0);
}

#[test]
fn mii_is_a_true_lower_bound() {
    check(
        "mii_is_a_true_lower_bound",
        &PropConfig::with_cases(96),
        &[],
        gen_edges,
        |(n, edges)| {
            // Schedule at II = MII - 1 must always fail (the bound is sound).
            let machine = minimal();
            let p = build_problem(&machine, *n, edges, 1);
            let mii = compute_mii(&p, &mut Counters::new());
            // Only probe below the MII when recurrences still permit it:
            // HeightR (correctly) diverges for IIs below the RecMII.
            let pure_rec = ims_core::rec_mii(&p, 1, &mut Counters::new());
            if mii.mii > 1 && mii.mii > pure_rec {
                let (result, _) = iterative_schedule_observed(
                    &p,
                    mii.mii - 1,
                    10_000,
                    PriorityKind::HeightR,
                    &mut NullObserver,
                );
                if let Some(s) = result {
                    // If something was produced below the MII it must be
                    // invalid ... which the scheduler never produces:
                    // placements honour the MRT and displacement; but
                    // recurrences can make it spin forever instead. Either
                    // way a *valid* schedule below MII is impossible.
                    prop_assert!(
                        validate_schedule(&p, &s).is_err(),
                        "valid schedule below the MII"
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn mrt_place_remove_roundtrip() {
    check(
        "mrt_place_remove_roundtrip",
        &PropConfig::with_cases(96),
        &[],
        |g| {
            let len = g.usize_in(1, 30);
            (0..len)
                .map(|_| (g.u32_in(0, 4), g.i64_in(0, 40)))
                .collect::<Vec<(u32, i64)>>()
        },
        |ops| {
            let ii = 7;
            let mut mrt = Mrt::new(ii, 4);
            let table =
                |r: u32| ReservationTable::new(vec![(ResourceId(r), 0), (ResourceId(r), 2)]);
            let mask = |r: u32| ConflictMask::compile(&table(r), 4);
            let mut placed: Vec<(NodeId, u32, i64)> = Vec::new();
            for (i, &(r, t)) in ops.iter().enumerate() {
                let m = mask(r);
                if !mrt.conflicts(&m, t) {
                    mrt.place(NodeId(i as u32), &m, t);
                    placed.push((NodeId(i as u32), r, t));
                }
            }
            // Remove everything; the table must end empty.
            for (node, r, t) in placed {
                mrt.remove(node, &mask(r), t);
            }
            for t in 0..ii {
                for r in 0..4 {
                    prop_assert_eq!(mrt.occupant(t, r), None);
                }
            }
            prop_assert!(mrt.occupancy_image().iter().all(|&w| w == 0));
            Ok(())
        },
    );
}

/// The pre-bitset modulo reservation table, reimplemented naively from
/// the paper's definition: an `Option<NodeId>` per `((time + off) mod II,
/// resource)` cell, probed and updated one `(resource, offset)` pair at a
/// time straight off the [`ReservationTable`]. The equivalence oracle for
/// the word-parallel [`Mrt`] — it shares no code with the bitset path, so
/// a mask-compilation or occupancy-maintenance bug cannot hide in both.
struct RefMrt {
    ii: i64,
    nres: usize,
    slots: Vec<Option<NodeId>>,
}

impl RefMrt {
    fn new(ii: i64, nres: usize) -> Self {
        RefMrt {
            ii,
            nres,
            slots: vec![None; ii as usize * nres],
        }
    }

    fn cell(&self, time: i64, r: ResourceId, off: u32) -> usize {
        (time + off as i64).rem_euclid(self.ii) as usize * self.nres + r.index()
    }

    fn conflicts(&self, table: &ReservationTable, time: i64) -> bool {
        table
            .uses()
            .iter()
            .any(|&(r, off)| self.slots[self.cell(time, r, off)].is_some())
    }

    fn conflicting_nodes(&self, table: &ReservationTable, time: i64) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = Vec::new();
        for &(r, off) in table.uses() {
            if let Some(n) = self.slots[self.cell(time, r, off)] {
                if !out.contains(&n) {
                    out.push(n);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Word `word` of the window of II slots from `start`, slot by slot:
    /// bit `i` set ⟺ slot `start + 64·word + i` lies in the window and
    /// `table` issues there without conflict.
    fn fit_word(&self, table: &ReservationTable, start: i64, word: usize) -> u64 {
        (0..64)
            .filter(|&i| 64 * word + i < self.ii as usize)
            .filter(|&i| !self.conflicts(table, start + (64 * word + i) as i64))
            .fold(0, |w, i| w | 1 << i)
    }

    fn place(&mut self, node: NodeId, table: &ReservationTable, time: i64) {
        for &(r, off) in table.uses() {
            let c = self.cell(time, r, off);
            assert!(self.slots[c].is_none());
            self.slots[c] = Some(node);
        }
    }

    fn remove(&mut self, node: NodeId, table: &ReservationTable, time: i64) {
        for &(r, off) in table.uses() {
            let c = self.cell(time, r, off);
            assert_eq!(self.slots[c], Some(node));
            self.slots[c] = None;
        }
    }
}

/// Whether `table` issued at `t` needs one MRT cell twice at `ii`: such a
/// placement panics by contract, in the bitset Mrt as in the scan one.
fn self_collides(table: &ReservationTable, t: i64, ii: i64) -> bool {
    let mut cells: Vec<(i64, u32)> = table
        .uses()
        .iter()
        .map(|&(r, off)| ((t + off as i64).rem_euclid(ii), r.0))
        .collect();
    cells.sort_unstable();
    let n = cells.len();
    cells.dedup();
    cells.len() != n
}

/// A generated MRT workload: II, resource count, a pool of random
/// reservation-table shapes, and a probe/install/evict script over them.
type MrtScript = (i64, usize, Vec<Vec<(u32, u32)>>, Vec<(usize, i64, u8)>);

fn gen_mrt_script(g: &mut Gen) -> MrtScript {
    // Gen ranges are half-open [lo, hi).
    let ii = g.i64_in(1, 10);
    let nres = g.usize_in(1, 7);
    let ntables = g.usize_in(1, 6);
    let tables = (0..ntables)
        .map(|_| {
            let len = g.usize_in(1, 6);
            (0..len)
                .map(|_| (g.u32_in(0, nres as u32), g.u32_in(0, 13)))
                .collect()
        })
        .collect();
    let script = g.vec_with(40, |g| {
        (
            g.usize_in(0, ntables),
            g.i64_in(-10, 31),
            // 0: probe only, 1: place if free, 2: evict conflicts,
            // 3: start over on a fresh table.
            g.u32_in(0, 4) as u8,
        )
    });
    (ii, nres, tables, script)
}

#[test]
fn bitset_mrt_agrees_with_reference_scan() {
    // The §5d equivalence oracle: drive the word-parallel Mrt and the
    // naive per-resource RefMrt through the same random probe / install /
    // evict script built from ims-testkit-generated reservation tables,
    // and demand identical answers at every step — conflict verdicts,
    // colliding-node sets, and the final occupant map.
    check(
        "bitset_mrt_agrees_with_reference_scan",
        &PropConfig::with_cases(128),
        &[],
        gen_mrt_script,
        |(ii, nres, tables, script)| {
            let (ii, nres) = (*ii, *nres);
            let tabs: Vec<ReservationTable> = tables
                .iter()
                .map(|uses| {
                    ReservationTable::new(uses.iter().map(|&(r, t)| (ResourceId(r), t)).collect())
                })
                .collect();
            let masks: Vec<ConflictMask> = tabs
                .iter()
                .map(|t| ConflictMask::compile(t, nres))
                .collect();
            let mut mrt = Mrt::new(ii, nres);
            let mut oracle = RefMrt::new(ii, nres);
            let mut next_node = 0u32;
            let mut placed: Vec<(NodeId, usize, i64)> = Vec::new();
            let mut colliders = Vec::new();
            for &(ti, t, action) in script {
                let (tab, mask) = (&tabs[ti], &masks[ti]);
                let hit = mrt.conflicts(mask, t);
                prop_assert_eq!(hit, oracle.conflicts(tab, t), "probe at {}", t);
                prop_assert_eq!(
                    mrt.fit_word(mask, t, 0),
                    oracle.fit_word(tab, t, 0),
                    "window from {}",
                    t
                );
                mrt.conflicting_nodes_into(mask, t, &mut colliders);
                prop_assert_eq!(
                    &colliders,
                    &oracle.conflicting_nodes(tab, t),
                    "colliding sets at {}",
                    t
                );
                // A table whose offsets are congruent modulo the II needs
                // the same MRT cell twice; `place` panics on those by
                // contract (in the bitset Mrt exactly as in the scan one),
                // so the script skips such placements — as the scheduler
                // does, whose machines never self-collide at feasible IIs.
                match action {
                    1 if !hit && !self_collides(tab, t, ii) => {
                        let node = NodeId(next_node);
                        next_node += 1;
                        mrt.place(node, mask, t);
                        oracle.place(node, tab, t);
                        placed.push((node, ti, t));
                    }
                    2 => {
                        // Evict every collider, exactly as the §3.4 forced
                        // placement does.
                        for &victim in &colliders {
                            let k = placed
                                .iter()
                                .position(|&(n, _, _)| n == victim)
                                .expect("collider was placed");
                            let (n, vti, vt) = placed.swap_remove(k);
                            mrt.remove(n, &masks[vti], vt);
                            oracle.remove(n, &tabs[vti], vt);
                        }
                    }
                    3 => {
                        // Start over mid-script: a fresh table must agree
                        // with the oracle from its first probe on.
                        mrt = Mrt::new(ii, nres);
                        oracle = RefMrt::new(ii, nres);
                        placed.clear();
                    }
                    _ => {}
                }
                // Occupant maps stay identical cell-for-cell.
                for row in 0..ii {
                    for r in 0..nres {
                        prop_assert_eq!(
                            mrt.occupant(row, r),
                            oracle.slots[row as usize * nres + r],
                            "occupant ({}, {})",
                            row,
                            r
                        );
                    }
                }
            }
            Ok(())
        },
    );
}

/// A generated window workload: II, resource count, a pool of random
/// reservation-table shapes, placements `(table, time)` tried in order,
/// and window start times.
type WindowScript = (
    i64,
    usize,
    Vec<Vec<(u32, u32)>>,
    Vec<(usize, i64)>,
    Vec<i64>,
);

fn gen_window_script(g: &mut Gen) -> WindowScript {
    // Windows of one, two and three words; past 64 resources a table's
    // masks take two words a row; offsets past 63 miss the MRT's
    // precomputed reductions.
    let ii = [g.unscaled(1..10), g.unscaled(60..70), g.unscaled(120..200)][g.unscaled(0..3usize)];
    let nres = g.unscaled(1..70usize);
    let ntables = g.usize_in(1, 6);
    let tables = (0..ntables)
        .map(|_| {
            let len = g.usize_in(1, 5);
            (0..len)
                .map(|_| (g.unscaled(0..nres as u32), g.unscaled(0..80u32)))
                .collect()
        })
        .collect();
    let places = g.vec_with(3 * ii as usize, |g| {
        (g.usize_in(0, ntables), g.unscaled(-2 * ii..3 * ii))
    });
    let starts = (0..8).map(|_| g.unscaled(-3 * ii..4 * ii)).collect();
    (ii, nres, tables, places, starts)
}

#[test]
fn window_fit_words_agree_with_reference_scan() {
    // Every word of a window read at once must answer what per-slot
    // probes of the reference answer, from start times below zero, inside
    // the table and past its mirror; the word after the window is empty.
    check(
        "window_fit_words_agree_with_reference_scan",
        &PropConfig::with_cases(64),
        &[],
        gen_window_script,
        |(ii, nres, tables, places, starts)| {
            let (ii, nres) = (*ii, *nres);
            let tabs: Vec<ReservationTable> = tables
                .iter()
                .map(|uses| {
                    ReservationTable::new(uses.iter().map(|&(r, t)| (ResourceId(r), t)).collect())
                })
                .collect();
            let masks: Vec<ConflictMask> = tabs
                .iter()
                .map(|t| ConflictMask::compile(t, nres))
                .collect();
            let mut mrt = Mrt::new(ii, nres);
            let mut oracle = RefMrt::new(ii, nres);
            for (i, &(ti, t)) in places.iter().enumerate() {
                if !oracle.conflicts(&tabs[ti], t) && !self_collides(&tabs[ti], t, ii) {
                    mrt.place(NodeId(i as u32), &masks[ti], t);
                    oracle.place(NodeId(i as u32), &tabs[ti], t);
                }
            }
            for &start in starts {
                for (tab, mask) in tabs.iter().zip(&masks) {
                    for word in 0..=(ii as usize).div_ceil(64) {
                        prop_assert_eq!(
                            mrt.fit_word(mask, start, word),
                            oracle.fit_word(tab, start, word),
                            "II {} window from {} word {}",
                            ii,
                            start,
                            word
                        );
                    }
                }
            }
            Ok(())
        },
    );
}
