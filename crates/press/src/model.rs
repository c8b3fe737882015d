//! The incremental MaxLive tracker.
//!
//! See `DESIGN.md` §5g for the row layout and cost model.

use ims_core::{NodeKind, Problem, Schedule};
use ims_deps::{node_of, DefSites};
use ims_graph::{DepKind, NodeId};
use ims_ir::LoopBody;

/// The lifetime *shape* of one value: everything about its live range
/// that does not depend on the schedule. Once the defining and consuming
/// operations have issue times, the range on the flat time line is
///
/// ```text
/// birth = t(def) + latency
/// death = max(birth, max over scheduled uses of t(use) + II · distance)
/// ```
///
/// — exactly the rule `ims_codegen::lifetimes` applies to a complete
/// schedule, restricted here to whichever operations are currently placed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueShape {
    /// The node defining the value.
    pub def: NodeId,
    /// The defining opcode's latency (birth offset from the issue time).
    pub latency: i64,
    /// Consumers as `(node, iteration distance)` pairs; a node reading the
    /// value twice appears twice (harmless: `max` is idempotent).
    pub uses: Vec<(NodeId, u32)>,
}

/// Extracts one [`ValueShape`] per register-defining operation of `body`,
/// resolving each use through a [`DefSites`] index — the same rule
/// `ims_codegen::lifetimes` uses, so the two agree by construction (the
/// workspace's property tests check this).
pub fn shapes_from_body(body: &LoopBody, problem: &Problem<'_>) -> Vec<ValueShape> {
    let sites = DefSites::new(body);
    // The consumers of each register, in body order.
    let mut uses: Vec<Vec<(NodeId, u32)>> = vec![Vec::new(); body.num_vregs()];
    for (use_id, use_op) in body.iter() {
        for u in use_op.reg_uses() {
            if let Some((_, distance)) = sites.resolve(use_id, u) {
                uses[u.reg.index()].push((node_of(use_id), distance));
            }
        }
    }
    body.iter()
        .filter_map(|(def_id, def_op)| {
            let reg = def_op.dest?;
            let def = node_of(def_id);
            Some(ValueShape {
                def,
                latency: problem.latency(def),
                uses: std::mem::take(&mut uses[reg.index()]),
            })
        })
        .collect()
}

/// Extracts value shapes from a bare [`Problem`] (no IR body available —
/// the `ims-serve` path, where loops arrive as canonical graphs): one
/// value per result-producing operation node, with its register-flow
/// successor edges (`DepKind::Flow`, non-memory) as the uses. The
/// START/STOP scaffolding is `DepKind::Control` and is excluded
/// automatically.
pub fn shapes_from_problem(problem: &Problem<'_>) -> Vec<ValueShape> {
    let mut out = Vec::new();
    for node in problem.op_nodes() {
        let NodeKind::Op { opcode, .. } = problem.kind(node) else {
            continue;
        };
        if !opcode.has_dest() {
            continue;
        }
        let uses = problem
            .graph()
            .succs(node)
            .filter(|e| e.kind == DepKind::Flow && !e.is_mem)
            .map(|e| (e.to, e.distance))
            .collect();
        out.push(ValueShape {
            def: node,
            latency: problem.latency(node),
            uses,
        });
    }
    out
}

/// Incremental per-cycle live-count tracker over a modulo schedule in
/// progress.
///
/// A value live over flat cycles `[birth, death]` (length `L`) is live at
/// kernel row `r` exactly `⌊L / II⌋ + (1 if (r − birth) mod II < L mod II)`
/// times — the iteration overlap that makes MaxLive exceed the number of
/// values. The tracker therefore keeps the uniform part `⌊L / II⌋` in one
/// scalar and spreads the `L mod II` remainder over *mirrored* physical
/// rows (`2·II` of them, as in the bitset MRT): the remainder interval
/// starting at `birth mod II` never wraps, so updates are straight-line
/// array arithmetic with no modulo in the loop.
///
/// [`place`](PressureModel::place) / [`evict`](PressureModel::evict) cost
/// O(affected lifetimes · lifetime length), plus one O(II) rescan of the
/// row peak when they move an interval; [`max_live`](PressureModel::max_live)
/// then reads the cached peak in O(1).
///
/// Placing an *unscheduled* node never lowers a row: it either creates the
/// intervals of the values it defines, or moves a death later (`death =
/// max(death, t(use) + II · distance)`), and a longer interval covers every
/// cycle the shorter one did. So once MaxLive exceeds a limit, every
/// further placement does too, and
/// [`exceeds_if_placed`](PressureModel::exceeds_if_placed) answers such a
/// probe in O(1) without touching a row. A probe that does place and
/// rescan leaves its peak behind for a `place` of the same node at the
/// same time — what the scheduler does after a slot passes — so probing
/// and then placing an operation costs one rescan, not two.
#[derive(Debug, Clone)]
pub struct PressureModel {
    ii: i64,
    /// Mirrored remainder rows: logical row `r` is `rows[r] + rows[r + ii]`.
    rows: Vec<u32>,
    /// Live count contributed uniformly to every row.
    uniform: u32,
    /// `max(rows[r] + rows[r + ii])` over logical rows, kept current by
    /// every place, evict and reset.
    peak: u32,
    /// The last probe's `(node, time, peak with the node placed)`, until
    /// the next place, evict or reset.
    probed: Option<(NodeId, i64, u32)>,
    shapes: Vec<ValueShape>,
    /// Issue time per graph node (`None` = unscheduled).
    times: Vec<Option<i64>>,
    /// Shape indices affected by each node (as def or consumer).
    node_values: Vec<Vec<u32>>,
    /// Currently applied `(birth, death)` interval per shape.
    current: Vec<Option<(i64, i64)>>,
    /// Cumulative interval applications/removals (the `press.maxlive.updates`
    /// counter); survives [`reset`](PressureModel::reset).
    updates: u64,
}

impl PressureModel {
    /// A tracker for `shapes` over a graph of `num_nodes` nodes, at
    /// candidate initiation interval `ii`.
    ///
    /// # Panics
    ///
    /// Panics if `ii < 1` or a shape mentions a node `>= num_nodes`.
    pub fn new(shapes: Vec<ValueShape>, num_nodes: usize, ii: i64) -> Self {
        assert!(ii >= 1, "II must be positive");
        let mut node_values = vec![Vec::new(); num_nodes];
        for (v, shape) in shapes.iter().enumerate() {
            node_values[shape.def.index()].push(v as u32);
            for &(use_node, _) in &shape.uses {
                if !node_values[use_node.index()].contains(&(v as u32)) {
                    node_values[use_node.index()].push(v as u32);
                }
            }
        }
        let current = vec![None; shapes.len()];
        PressureModel {
            ii,
            rows: vec![0; 2 * ii as usize],
            uniform: 0,
            peak: 0,
            probed: None,
            shapes,
            times: vec![None; num_nodes],
            node_values,
            current,
            updates: 0,
        }
    }

    /// Clears all placements and switches to a new candidate `ii` (fired on
    /// every `attempt_start`). The cumulative update counter is preserved.
    ///
    /// # Panics
    ///
    /// Panics if `ii < 1`.
    pub fn reset(&mut self, ii: i64) {
        assert!(ii >= 1, "II must be positive");
        self.ii = ii;
        self.rows.clear();
        self.rows.resize(2 * ii as usize, 0);
        self.uniform = 0;
        self.peak = 0;
        self.probed = None;
        self.times.iter_mut().for_each(|t| *t = None);
        self.current.iter_mut().for_each(|c| *c = None);
    }

    /// The candidate initiation interval currently tracked.
    pub fn ii(&self) -> i64 {
        self.ii
    }

    /// Cumulative interval applications/removals across all attempts.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Records `node` as issued at `time` and refreshes every lifetime it
    /// participates in.
    pub fn place(&mut self, node: NodeId, time: i64) {
        let probed = self.probed.take();
        if self.set_time(node, Some(time)) {
            self.peak = match probed {
                // The rows are those the probe saw: nothing moved since.
                Some((n, t, peak)) if (n, t) == (node, time) => peak,
                _ => self.row_peak(),
            };
        }
    }

    /// Records `node` as unscheduled and refreshes every lifetime it
    /// participates in.
    pub fn evict(&mut self, node: NodeId) {
        self.probed = None;
        if self.set_time(node, None) {
            self.peak = self.row_peak();
        }
    }

    /// Whether placing the unscheduled `node` at `time` would push
    /// [`max_live`](Self::max_live) over `limit`; the model is left as it
    /// was.
    ///
    /// A placement never lowers a row (see the type's docs), so when
    /// MaxLive already exceeds `limit` the answer is `true` in O(1).
    /// Otherwise the node is placed, the rows are rescanned once, and the
    /// node is evicted again, which restores every row; the cached peak
    /// is left alone. A following [`place`](Self::place) of `node` at
    /// `time` reuses the rescanned peak.
    ///
    /// # Panics
    ///
    /// Panics if `node` is already placed: moving a placed node can lower
    /// rows, and the closing evict would drop its placement.
    pub fn exceeds_if_placed(&mut self, node: NodeId, time: i64, limit: u32) -> bool {
        assert!(
            self.times[node.index()].is_none(),
            "probed node {node:?} is already placed"
        );
        if self.max_live() > limit {
            return true;
        }
        self.set_time(node, Some(time));
        let peak = self.row_peak();
        let over = self.uniform + peak > limit;
        self.set_time(node, None);
        self.probed = Some((node, time, peak));
        over
    }

    /// Resets to `schedule.ii` and places every node at its scheduled
    /// time — for reporting the pressure of a schedule produced without
    /// this tracker (the pressure-blind baseline in `ims-bench`).
    pub fn load_schedule(&mut self, schedule: &Schedule) {
        self.reset(schedule.ii);
        let n = self.times.len().min(schedule.time.len());
        for i in 0..n {
            self.set_time(NodeId(i as u32), Some(schedule.time[i]));
        }
        self.peak = self.row_peak();
    }

    /// The maximum over kernel rows of the number of simultaneously live
    /// values, counting every in-flight iteration's copy. O(1): the row
    /// peak is rescanned when a placement changes, not per call.
    pub fn max_live(&self) -> u32 {
        self.uniform + self.peak
    }

    /// The live count at kernel row `r` (mainly for tests and reporting).
    ///
    /// # Panics
    ///
    /// Panics if `r` is not in `[0, II)`.
    pub fn live_at(&self, r: i64) -> u32 {
        assert!((0..self.ii).contains(&r), "row {r} out of range");
        self.uniform + self.rows[r as usize] + self.rows[r as usize + self.ii as usize]
    }

    /// The O(II) scan behind the cached `peak`.
    fn row_peak(&self) -> u32 {
        let (low, high) = self.rows.split_at(self.ii as usize);
        low.iter().zip(high).map(|(a, b)| a + b).max().unwrap_or(0)
    }

    /// Sets `node`'s issue time and refreshes every lifetime it
    /// participates in, leaving `peak` to the caller; `true` if any
    /// interval moved.
    fn set_time(&mut self, node: NodeId, time: Option<i64>) -> bool {
        self.times[node.index()] = time;
        let values = std::mem::take(&mut self.node_values[node.index()]);
        let mut moved = false;
        for &v in &values {
            moved |= self.refresh_value(v as usize);
        }
        self.node_values[node.index()] = values;
        moved
    }

    fn refresh_value(&mut self, v: usize) -> bool {
        let next = self.interval_of(v);
        if next == self.current[v] {
            return false;
        }
        if let Some((b, d)) = self.current[v] {
            self.apply(b, d, false);
        }
        if let Some((b, d)) = next {
            self.apply(b, d, true);
        }
        self.current[v] = next;
        true
    }

    /// The `(birth, death)` interval of value `v` under the *current
    /// partial placement*: `None` while the def is unscheduled; scheduled
    /// uses extend the death, unscheduled ones don't constrain it yet.
    fn interval_of(&self, v: usize) -> Option<(i64, i64)> {
        let shape = &self.shapes[v];
        let t_def = self.times[shape.def.index()]?;
        let birth = t_def + shape.latency;
        let mut death = birth;
        for &(use_node, distance) in &shape.uses {
            if let Some(t_use) = self.times[use_node.index()] {
                death = death.max(t_use + self.ii * distance as i64);
            }
        }
        Some((birth, death))
    }

    /// Adds (or removes) one live interval `[b, d]` from the rows: the
    /// whole-II multiples go to `uniform`, the remainder to the physical
    /// rows `[b mod II, b mod II + L mod II)` — in range by construction
    /// because `b mod II < II` and `L mod II < II`.
    fn apply(&mut self, b: i64, d: i64, add: bool) {
        debug_assert!(d >= b, "value dies before it is born");
        self.updates += 1;
        let len = d - b + 1;
        let whole = (len / self.ii) as u32;
        let rem = (len % self.ii) as usize;
        let start = b.rem_euclid(self.ii) as usize;
        if add {
            self.uniform += whole;
            for row in &mut self.rows[start..start + rem] {
                *row += 1;
            }
        } else {
            self.uniform -= whole;
            for row in &mut self.rows[start..start + rem] {
                *row -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(def: u32, latency: i64, uses: &[(u32, u32)]) -> ValueShape {
        ValueShape {
            def: NodeId(def),
            latency,
            uses: uses.iter().map(|&(n, d)| (NodeId(n), d)).collect(),
        }
    }

    /// Brute-force row occupancy from the applied intervals.
    fn naive_max_live(intervals: &[(i64, i64)], ii: i64) -> u32 {
        (0..ii)
            .map(|r| {
                intervals
                    .iter()
                    .map(|&(b, d)| (b..=d).filter(|c| c.rem_euclid(ii) == r).count() as u32)
                    .sum()
            })
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn empty_model_has_zero_pressure() {
        let m = PressureModel::new(vec![], 4, 3);
        assert_eq!(m.max_live(), 0);
    }

    #[test]
    fn single_value_row_math() {
        // def at node 1, latency 2, read by node 2 at distance 1.
        let shapes = vec![shape(1, 2, &[(2, 1)])];
        let mut m = PressureModel::new(shapes, 4, 3);
        m.place(NodeId(1), 1); // birth 3, death 3 until the use lands
        assert_eq!(m.max_live(), 1);
        m.place(NodeId(2), 5); // death = 5 + 3·1 = 8 → live [3, 8], L = 6
        assert_eq!(m.max_live(), naive_max_live(&[(3, 8)], 3));
        assert_eq!(m.max_live(), 2, "6 cycles over II 3 = 2 everywhere");
        m.evict(NodeId(2));
        assert_eq!(m.max_live(), 1);
        m.evict(NodeId(1));
        assert_eq!(m.max_live(), 0);
        assert!(m.updates() > 0);
    }

    #[test]
    fn remainder_rows_wrap_through_the_mirror() {
        // Live [2, 3] at II 3: the remainder interval starts at physical
        // row 2 and spills onto row 3 — the mirror of logical row 0.
        let shapes = vec![shape(1, 0, &[(2, 0)])];
        let mut m = PressureModel::new(shapes, 3, 3);
        m.place(NodeId(1), 2);
        m.place(NodeId(2), 3);
        assert_eq!(m.live_at(0), 1);
        assert_eq!(m.live_at(1), 0);
        assert_eq!(m.live_at(2), 1);
        assert_eq!(m.max_live(), naive_max_live(&[(2, 3)], 3));
    }

    #[test]
    fn overlapping_values_sum() {
        let shapes = vec![shape(1, 0, &[(3, 0)]), shape(2, 0, &[(3, 0)])];
        let mut m = PressureModel::new(shapes, 4, 2);
        m.place(NodeId(1), 0);
        m.place(NodeId(2), 1);
        m.place(NodeId(3), 4);
        // Values live [0,4] and [1,4].
        assert_eq!(m.max_live(), naive_max_live(&[(0, 4), (1, 4)], 2));
        assert_eq!(m.max_live(), 5);
    }

    #[test]
    fn reset_clears_placements_and_switches_ii() {
        let shapes = vec![shape(1, 1, &[(2, 2)])];
        let mut m = PressureModel::new(shapes, 3, 2);
        m.place(NodeId(1), 0);
        m.place(NodeId(2), 1);
        assert!(m.max_live() > 0);
        let updates_before = m.updates();
        m.reset(5);
        assert_eq!(m.ii(), 5);
        assert_eq!(m.max_live(), 0);
        assert_eq!(m.updates(), updates_before, "reset is not an update");
        m.place(NodeId(1), 0);
        m.place(NodeId(2), 1);
        // birth 1, death 1 + 5·2 = 11 → L = 11.
        assert_eq!(m.max_live(), naive_max_live(&[(1, 11)], 5));
    }

    #[test]
    fn replacing_a_node_moves_its_interval() {
        let shapes = vec![shape(1, 0, &[(2, 0)])];
        let mut m = PressureModel::new(shapes, 3, 4);
        m.place(NodeId(1), 0);
        m.place(NodeId(2), 9); // live [0, 9]
        assert_eq!(m.max_live(), naive_max_live(&[(0, 9)], 4));
        m.place(NodeId(2), 1); // shrink to [0, 1]
        assert_eq!(m.max_live(), naive_max_live(&[(0, 1)], 4));
        assert_eq!(m.max_live(), 1);
    }

    #[test]
    fn load_schedule_matches_manual_placement() {
        let shapes = vec![shape(1, 0, &[(2, 0)]), shape(2, 1, &[(1, 1)])];
        let mut by_hand = PressureModel::new(shapes.clone(), 3, 3);
        by_hand.place(NodeId(0), 0);
        by_hand.place(NodeId(1), 2);
        by_hand.place(NodeId(2), 7);
        let mut loaded = PressureModel::new(shapes, 3, 1);
        loaded.load_schedule(&Schedule {
            ii: 3,
            time: vec![0, 2, 7],
            alternative: vec![0, 0, 0],
            length: 0,
        });
        assert_eq!(loaded.ii(), 3);
        assert_eq!(loaded.max_live(), by_hand.max_live());
    }

    #[test]
    fn a_probed_peak_is_reused_only_while_nothing_moves() {
        // Node 1 defines a value node 2 reads; node 3 defines one alone.
        let shapes = vec![shape(1, 0, &[(2, 0)]), shape(3, 0, &[])];
        let mut m = PressureModel::new(shapes, 4, 4);
        m.place(NodeId(3), 0);
        assert!(
            !m.exceeds_if_placed(NodeId(1), 0, 9),
            "the probe sees 2 live"
        );
        m.reset(4);
        m.place(NodeId(1), 0);
        assert_eq!(m.max_live(), 1, "a reset drops the probe's peak");

        m.place(NodeId(3), 0);
        m.evict(NodeId(1));
        assert!(
            !m.exceeds_if_placed(NodeId(1), 0, 9),
            "the probe sees 2 live"
        );
        m.evict(NodeId(3));
        m.place(NodeId(1), 0);
        assert_eq!(m.max_live(), 1, "an evict drops the probe's peak");

        assert!(!m.exceeds_if_placed(NodeId(2), 6, 9));
        m.place(NodeId(2), 6);
        assert_eq!(m.max_live(), naive_max_live(&[(0, 6)], 4));
    }

    #[test]
    #[should_panic(expected = "II must be positive")]
    fn zero_ii_panics() {
        let _ = PressureModel::new(vec![], 1, 0);
    }
}
