//! The modulo reservation table (§3.1), word-parallel.
//!
//! *"If scheduling an operation at some particular time involves the use of
//! resource R at time T, then location ((T mod II), R) of the table is used
//! to record it. Consequently, the schedule reservation table need only be
//! as long as the II."*
//!
//! The table keeps two representations of the same state, updated in
//! lockstep (the invariant of `DESIGN.md` §5d):
//!
//! * an **occupancy bitset** — one group of `words_per_row` `u64` words
//!   per MRT row, bit `r mod 64` of word `r / 64` set ⟺ resource `r` is
//!   reserved in that row. Probes AND a [`ConflictMask`]'s precompiled
//!   `(offset, word, mask)` entries against these words: the
//!   FindTimeSlot/ResourceConflict hot path (§5–6 of the paper) costs a
//!   handful of word operations instead of a per-resource scan.
//! * an **owner array** — `Option<NodeId>` per `(row, resource)` cell,
//!   serving [`Mrt::occupant`] and [`Mrt::conflicting_nodes_into`] (which
//!   walks only the *hit* bits of a probe). The tests scan it one cell at
//!   a time to check the bitset against it.
//!
//! Probe cost accounting is unchanged from the scan representation: every
//! probe charges the probing table's full
//! [`footprint`](ims_machine::ReservationTable::footprint) up front, so the
//! `machine.mrt.probes` counter is byte-identical to the pre-bitset
//! encoding.

use std::cell::Cell;

use ims_graph::NodeId;
use ims_machine::ConflictMask;

use crate::problem::Problem;

/// A modulo reservation table: `II × num_resources` cells tracked as an
/// occupancy bitset (for word-parallel probes) plus per-cell owners.
///
/// # Example
///
/// A reservation at time `T` blocks every time congruent to `T` modulo the
/// II — the property that makes the table II rows long (§3.1). Probes,
/// installs, and evicts all take the compiled [`ConflictMask`] of a
/// reservation table:
///
/// ```
/// use ims_core::Mrt;
/// use ims_graph::NodeId;
/// use ims_machine::{ConflictMask, ReservationTable, ResourceId};
///
/// let mut mrt = Mrt::new(3, 1);
/// let table = ReservationTable::new(vec![(ResourceId(0), 0)]);
/// let mask = ConflictMask::compile(&table, 1);
/// mrt.place(NodeId(1), &mask, 1);
/// assert!(mrt.conflicts(&mask, 4)); // 4 ≡ 1 (mod 3)
/// assert!(!mrt.conflicts(&mask, 2));
/// mrt.remove(NodeId(1), &mask, 1);
/// assert!(!mrt.conflicts(&mask, 4));
/// ```
#[derive(Debug, Clone)]
pub struct Mrt {
    ii: i64,
    nres: usize,
    /// `⌈nres / 64⌉` (at least 1): the stride of one row's word group in
    /// `occ`. Must equal [`ConflictMask::words_per_row`] of every probed
    /// mask.
    wpr: usize,
    /// Occupancy bitset, **mirrored**: `2 × ii × wpr` words, row-major,
    /// with row `r` duplicated at row `r + ii`. A probe's row index
    /// `base + (off mod II)` lies in `[0, 2·II)` and indexes this buffer
    /// directly — no wrap-around compare on the hot path. The mirror
    /// copies are kept identical by [`Mrt::place`] / [`Mrt::remove`].
    occ: Vec<u64>,
    /// Owner per `(row, resource)` cell, `ii × nres`, row-major.
    slots: Vec<Option<NodeId>>,
    /// Deterministic probe-work odometer: the summed
    /// [`footprint`](ims_machine::ReservationTable::footprint) of every
    /// mask handed to [`Mrt::conflicts`] / [`Mrt::conflicting_nodes_into`].
    /// A `Cell` so the read-only probe methods stay `&self`; charged up
    /// front so the count does not depend on where a conflict check
    /// short-circuits.
    probes: Cell<u64>,
    /// `off_rows[o] = o mod II` for small cycle offsets: probes reduce
    /// each entry's offset by table lookup instead of a division — the
    /// division, not the resource walk, dominates a short probe. Offsets
    /// beyond the cache (none in the bundled machines) fall back to `%`.
    off_rows: Box<[u16]>,
    /// `(time, time mod II)` of the most recent probe, `(0, 0)` before
    /// the first. FindTimeSlot walks candidate times in unit steps and
    /// tries every alternative at each one, so the previous probe's row
    /// reduction is almost always reusable (same time, or time + 1) — the
    /// hit turns the base-row `rem_euclid` into an add-and-wrap and leaves
    /// most probes entirely division-free. The II is fixed for the
    /// table's lifetime, so the pair is a pure function of the probe time
    /// and caching it cannot change any answer. A `Cell` for the same
    /// reason as `probes`.
    base_cache: Cell<(i64, usize)>,
}

/// Cycle offsets `0..=OFF_CACHE` have their `mod II` reduction
/// precomputed per [`Mrt`]; larger offsets divide. Covers every
/// reservation table in the repo (the deepest is the 20-cycle Cydra
/// load) with headroom.
const OFF_CACHE: u32 = 63;

/// Equality compares the schedule state (II, resources, reservations) and
/// deliberately ignores the probe odometer, which is bookkeeping about how
/// the table was *used*, not what it holds. The occupancy bitset is
/// derived state (it always mirrors the owner array) and is not compared
/// separately.
impl PartialEq for Mrt {
    fn eq(&self, other: &Self) -> bool {
        self.ii == other.ii && self.nres == other.nres && self.slots == other.slots
    }
}

impl Eq for Mrt {}

impl Mrt {
    /// Creates an empty table for the given II and resource count.
    ///
    /// # Panics
    ///
    /// Panics if `ii < 1`.
    pub fn new(ii: i64, num_resources: usize) -> Self {
        assert!(ii >= 1, "II must be at least 1");
        let wpr = num_resources.div_ceil(64).max(1);
        Mrt {
            ii,
            nres: num_resources,
            wpr,
            occ: vec![0; 2 * (ii as usize) * wpr],
            slots: vec![None; (ii as usize) * num_resources],
            probes: Cell::new(0),
            off_rows: (0..=OFF_CACHE).map(|o| (o as i64 % ii) as u16).collect(),
            base_cache: Cell::new((0, 0)),
        }
    }

    /// Total probe work performed so far (see the `probes` field): one unit
    /// per `(resource, offset)` pair of every probed reservation table.
    pub fn probes(&self) -> u64 {
        self.probes.get()
    }

    /// The II this table was sized for.
    pub fn ii(&self) -> i64 {
        self.ii
    }

    /// The occupancy bitset: `II × words_per_row` words, row-major; bit
    /// `r mod 64` of word `row · words_per_row + r / 64` set ⟺ resource
    /// `r` is reserved in `row`. A canonical, allocation-free image of
    /// the reservation state — the exact backend keys its failed-state
    /// memoization on a copy of this slice.
    pub fn occupancy_words(&self) -> &[u64] {
        &self.occ[..self.ii as usize * self.wpr]
    }

    /// The MRT row a probe at `time` with cycle offset `off` lands in.
    /// One division per call; the mask paths use [`Mrt::base_row`] +
    /// [`Mrt::row_from`] to divide once per *probe* instead.
    #[inline]
    fn row(&self, time: i64, off: u32) -> usize {
        (time + off as i64).rem_euclid(self.ii) as usize
    }

    /// The MRT row of `time` itself, through the `base_cache`: division
    /// only when the probe time is neither the previous probe's time nor
    /// its successor.
    #[inline]
    fn base_row(&self, time: i64) -> usize {
        let (t0, b0) = self.base_cache.get();
        if time == t0 {
            return b0;
        }
        let base = if time == t0.wrapping_add(1) {
            let b = b0 + 1;
            if b == self.ii as usize {
                0
            } else {
                b
            }
        } else {
            time.rem_euclid(self.ii) as usize
        };
        self.base_cache.set((time, base));
        base
    }

    /// The *unmirrored* row index `off` cycles after a [`Mrt::base_row`]:
    /// `base + (off mod II)`, in `[0, 2·II)`. Valid directly into the
    /// mirrored `occ` buffer; fold with [`Mrt::wrap`] before touching the
    /// single-height owner array.
    #[inline]
    fn row_from(&self, base: usize, off: u32) -> usize {
        base + match self.off_rows.get(off as usize) {
            Some(&r) => r as usize,
            None => (off as i64 % self.ii) as usize,
        }
    }

    /// Folds an unmirrored row from [`Mrt::row_from`] back into `[0, II)`.
    #[inline]
    fn wrap(&self, row: usize) -> usize {
        if row >= self.ii as usize {
            row - self.ii as usize
        } else {
            row
        }
    }

    /// Whether issuing an operation with compiled reservation `mask` at
    /// `time` collides with any current reservation: one AND per mask
    /// entry against the occupancy words.
    ///
    /// In debug builds the bitset answer is asserted against the owner
    /// array (the §5d agreement invariant).
    pub fn conflicts(&self, mask: &ConflictMask, time: i64) -> bool {
        debug_assert_eq!(
            mask.words_per_row(),
            self.wpr,
            "mask compiled for another machine"
        );
        self.probes.set(self.probes.get() + mask.footprint());
        let base = self.base_row(time);
        let hit = mask.entries().iter().any(|e| {
            self.occ[self.row_from(base, e.offset) * self.wpr + e.word as usize] & e.mask != 0
        });
        debug_assert_eq!(hit, self.owner_scan_conflicts(mask, time));
        hit
    }

    /// The owner-array view of a mask probe, used by the debug agreement
    /// assertion in [`Mrt::conflicts`]. Not charged as probe work.
    fn owner_scan_conflicts(&self, mask: &ConflictMask, time: i64) -> bool {
        mask.entries().iter().any(|e| {
            let row = self.row(time, e.offset);
            let mut bits = e.mask;
            while bits != 0 {
                let r = e.word as usize * 64 + bits.trailing_zeros() as usize;
                if self.slots[row * self.nres + r].is_some() {
                    return true;
                }
                bits &= bits - 1;
            }
            false
        })
    }

    /// The distinct nodes whose reservations collide with `mask` at
    /// `time`, written into the caller-provided scratch buffer (cleared
    /// first, then sorted ascending).
    ///
    /// This runs on the scheduler's eviction hot path for every forced
    /// placement, so it reads the *hit* bits directly — the owner array
    /// is consulted only for cells the AND proves occupied — and
    /// deduplication happens in place on the reused scratch: no
    /// allocation once the buffer has grown to the (small) maximum
    /// number of colliding nodes.
    pub fn conflicting_nodes_into(&self, mask: &ConflictMask, time: i64, out: &mut Vec<NodeId>) {
        debug_assert_eq!(
            mask.words_per_row(),
            self.wpr,
            "mask compiled for another machine"
        );
        self.probes.set(self.probes.get() + mask.footprint());
        out.clear();
        let base = self.base_row(time);
        for e in mask.entries() {
            let urow = self.row_from(base, e.offset);
            let mut hits = self.occ[urow * self.wpr + e.word as usize] & e.mask;
            let row = self.wrap(urow);
            while hits != 0 {
                let r = e.word as usize * 64 + hits.trailing_zeros() as usize;
                let node = self.slots[row * self.nres + r]
                    .expect("occupancy bit set implies an owner (§5d invariant)");
                if !out.contains(&node) {
                    out.push(node);
                }
                hits &= hits - 1;
            }
        }
        out.sort_unstable();
    }

    /// Reserves `mask` at `time` for `node`: OR the mask words into the
    /// occupancy bitset and record `node` as owner of each covered cell.
    ///
    /// # Panics
    ///
    /// Panics if any required cell is already reserved; check
    /// [`Mrt::conflicts`] first.
    pub fn place(&mut self, node: NodeId, mask: &ConflictMask, time: i64) {
        debug_assert_eq!(
            mask.words_per_row(),
            self.wpr,
            "mask compiled for another machine"
        );
        let base = self.base_row(time);
        let ii = self.ii as usize;
        for e in mask.entries() {
            let row = self.wrap(self.row_from(base, e.offset));
            let w = row * self.wpr + e.word as usize;
            assert!(
                self.occ[w] & e.mask == 0,
                "MRT slot already reserved while placing {node}"
            );
            self.occ[w] |= e.mask;
            self.occ[w + ii * self.wpr] |= e.mask;
            let mut bits = e.mask;
            while bits != 0 {
                let r = e.word as usize * 64 + bits.trailing_zeros() as usize;
                self.slots[row * self.nres + r] = Some(node);
                bits &= bits - 1;
            }
        }
    }

    /// Releases the reservation `mask` made at `time` by `node`
    /// (the exact inverse of [`Mrt::place`]; §2.1: *"When backtracking, an
    /// operation may be 'unscheduled' by reversing this process"*):
    /// AND-NOT the mask words out of the occupancy bitset and clear the
    /// owners.
    ///
    /// # Panics
    ///
    /// Panics if a cell does not currently belong to `node`.
    pub fn remove(&mut self, node: NodeId, mask: &ConflictMask, time: i64) {
        debug_assert_eq!(
            mask.words_per_row(),
            self.wpr,
            "mask compiled for another machine"
        );
        let base = self.base_row(time);
        let ii = self.ii as usize;
        for e in mask.entries() {
            let row = self.wrap(self.row_from(base, e.offset));
            let mut bits = e.mask;
            while bits != 0 {
                let r = e.word as usize * 64 + bits.trailing_zeros() as usize;
                let cell = &mut self.slots[row * self.nres + r];
                assert_eq!(
                    *cell,
                    Some(node),
                    "MRT slot not owned by {node} during unschedule"
                );
                *cell = None;
                bits &= bits - 1;
            }
            let w = row * self.wpr + e.word as usize;
            self.occ[w] &= !e.mask;
            self.occ[w + ii * self.wpr] &= !e.mask;
        }
    }

    /// The node reserving `(time mod II, resource)`, if any: the owner
    /// array the tests check the occupancy bitset against.
    pub fn occupant(&self, time: i64, res: usize) -> Option<NodeId> {
        self.slots[self.row(time, 0) * self.nres + res]
    }
}

/// The alternatives of `problem` that cannot issue at `ii` anywhere, as
/// `(node, alternative index)` pairs: those whose own reservation table
/// uses one resource at two offsets congruent modulo `ii`, so that
/// [`Mrt::place`] would collide the alternative with itself. Every backend
/// decides this once per II and never places such an alternative.
///
/// # Errors
///
/// The first operation, by node id, whose every alternative collides with
/// itself: no schedule exists at `ii`.
pub fn self_colliding_alternatives(
    problem: &Problem<'_>,
    ii: i64,
) -> Result<Vec<(NodeId, usize)>, NodeId> {
    let mut out = Vec::new();
    for node in problem.op_nodes() {
        let Some(info) = problem.info(node) else {
            continue;
        };
        let before = out.len();
        for (k, a) in info.alternatives.iter().enumerate() {
            if a.mask().collides_with_itself(ii) {
                out.push((node, k));
            }
        }
        if out.len() - before == info.alternatives.len() {
            return Err(node);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ims_machine::{ReservationTable, ResourceId};

    const NRES: usize = 4;

    fn table(uses: &[(u32, u32)]) -> ReservationTable {
        ReservationTable::new(uses.iter().map(|&(r, t)| (ResourceId(r), t)).collect())
    }

    fn mask(uses: &[(u32, u32)]) -> ConflictMask {
        ConflictMask::compile(&table(uses), NRES)
    }

    /// A per-cell probe: scans the owner array one `(resource, offset)`
    /// cell at a time. By the §5d invariant the bitset answer always
    /// equals it.
    fn scan_conflicts(mrt: &Mrt, table: &ReservationTable, time: i64) -> bool {
        table
            .uses()
            .iter()
            .any(|&(r, off)| mrt.occupant(time + off as i64, r.index()).is_some())
    }

    #[test]
    fn modulo_wraparound_conflicts() {
        let mut mrt = Mrt::new(3, NRES);
        let t = mask(&[(0, 0)]);
        mrt.place(NodeId(1), &t, 1);
        // Time 4 ≡ 1 (mod 3): conflicts.
        assert!(mrt.conflicts(&t, 4));
        // The paper: "a conflict at time T implies conflicts at all times
        // T + k*II".
        assert!(mrt.conflicts(&t, 7));
        assert!(!mrt.conflicts(&t, 2));
        assert_eq!(mrt.occupant(4, 0), Some(NodeId(1)));
    }

    #[test]
    fn multi_use_tables_reserve_every_slot() {
        let mut mrt = Mrt::new(4, NRES);
        let complex = mask(&[(0, 0), (1, 2)]);
        mrt.place(NodeId(5), &complex, 1);
        assert_eq!(mrt.occupant(1, 0), Some(NodeId(5)));
        assert_eq!(mrt.occupant(3, 1), Some(NodeId(5)));
        // A simple table on resource 1 at a time congruent to 3 conflicts.
        let simple = mask(&[(1, 0)]);
        assert!(mrt.conflicts(&simple, 3));
        assert!(mrt.conflicts(&simple, 7));
        assert!(!mrt.conflicts(&simple, 0));
    }

    #[test]
    fn conflicting_nodes_deduplicates() {
        let mut mrt = Mrt::new(2, NRES);
        let wide = mask(&[(0, 0), (1, 0)]);
        mrt.place(NodeId(3), &wide, 0);
        let probe = mask(&[(0, 0), (1, 0)]);
        let mut out = Vec::new();
        mrt.conflicting_nodes_into(&probe, 2, &mut out);
        assert_eq!(out, vec![NodeId(3)]);
        mrt.conflicting_nodes_into(&probe, 1, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn conflicting_nodes_into_reuses_scratch_and_dedups_duplicate_resources() {
        // A probe table that hits the same resource at several offsets must
        // report each colliding owner exactly once, sorted, and leave stale
        // scratch contents behind it.
        let mut mrt = Mrt::new(3, NRES);
        mrt.place(NodeId(7), &mask(&[(0, 0), (0, 1), (0, 2)]), 0);
        mrt.place(NodeId(2), &mask(&[(1, 0)]), 1);
        // Resource 0 probed at three offsets (all owned by node 7) plus
        // resource 1 at offset 1 (owned by node 2).
        let probe = mask(&[(0, 0), (0, 1), (0, 2), (1, 1)]);
        let mut scratch = vec![NodeId(99)]; // stale content must be cleared
        mrt.conflicting_nodes_into(&probe, 0, &mut scratch);
        assert_eq!(scratch, vec![NodeId(2), NodeId(7)]);
        // Reuse: a conflict-free probe empties the same buffer.
        let free = mask(&[(1, 0)]);
        mrt.conflicting_nodes_into(&free, 0, &mut scratch);
        assert!(scratch.is_empty());
    }

    #[test]
    fn remove_restores_slots() {
        let mut mrt = Mrt::new(3, 1);
        let t = ConflictMask::compile(&table(&[(0, 0), (0, 1)]), 1);
        mrt.place(NodeId(2), &t, 0);
        assert!(mrt.conflicts(&t, 0));
        mrt.remove(NodeId(2), &t, 0);
        assert!(!mrt.conflicts(&t, 0));
        assert!(mrt.occupancy_words().iter().all(|&w| w == 0));
    }

    #[test]
    #[should_panic(expected = "already reserved")]
    fn double_place_panics() {
        let mut mrt = Mrt::new(2, 1);
        let t = ConflictMask::compile(&table(&[(0, 0)]), 1);
        mrt.place(NodeId(1), &t, 0);
        mrt.place(NodeId(2), &t, 2); // 2 ≡ 0 (mod 2)
    }

    #[test]
    #[should_panic(expected = "not owned")]
    fn remove_wrong_owner_panics() {
        let mut mrt = Mrt::new(2, 1);
        let t = ConflictMask::compile(&table(&[(0, 0)]), 1);
        mrt.place(NodeId(1), &t, 0);
        mrt.remove(NodeId(2), &t, 0);
    }

    #[test]
    fn probe_work_is_charged_up_front_and_ignored_by_equality() {
        let mut mrt = Mrt::new(3, NRES);
        let wide = mask(&[(0, 0), (1, 1)]);
        mrt.place(NodeId(1), &wide, 0);
        assert_eq!(mrt.probes(), 0, "place is not a probe");
        // A conflicting probe and a free probe cost the same: the full
        // footprint, regardless of short-circuiting.
        assert!(mrt.conflicts(&wide, 0));
        assert!(!mrt.conflicts(&wide, 1));
        assert_eq!(mrt.probes(), 2 * wide.footprint());
        mrt.conflicting_nodes_into(&wide, 0, &mut Vec::new());
        assert_eq!(mrt.probes(), 3 * wide.footprint());
        // Equality sees only the schedule state.
        let mut fresh = Mrt::new(3, NRES);
        fresh.place(NodeId(1), &wide, 0);
        assert_eq!(mrt, fresh);
        assert_ne!(mrt.probes(), fresh.probes());
    }

    #[test]
    fn negative_times_wrap_correctly() {
        // rem_euclid keeps rows non-negative even for negative probe times
        // (delays can be negative, so probes may go below zero).
        let mut mrt = Mrt::new(3, 1);
        let t = ConflictMask::compile(&table(&[(0, 0)]), 1);
        mrt.place(NodeId(1), &t, 0);
        assert!(mrt.conflicts(&t, -3));
        assert!(!mrt.conflicts(&t, -2));
    }

    #[test]
    fn bitset_and_scan_agree_on_a_mixed_history() {
        // Pin the §5d agreement invariant on a small hand-built history;
        // the property suite fuzzes the same invariant at scale.
        let mut mrt = Mrt::new(5, NRES);
        let shapes: [&[(u32, u32)]; 3] = [&[(0, 0), (1, 3)], &[(2, 0), (2, 1), (2, 2)], &[(3, 4)]];
        for (i, s) in shapes.iter().enumerate() {
            let m = mask(s);
            if !mrt.conflicts(&m, i as i64) {
                mrt.place(NodeId(i as u32), &m, i as i64);
            }
        }
        for s in &shapes {
            for t in -5..15 {
                assert_eq!(
                    mrt.conflicts(&mask(s), t),
                    scan_conflicts(&mrt, &table(s), t)
                );
            }
        }
    }

    #[test]
    fn occupancy_words_mirror_the_owner_array() {
        let mut mrt = Mrt::new(4, NRES);
        mrt.place(NodeId(9), &mask(&[(0, 0), (3, 1), (1, 5)]), 2);
        for row in 0..4usize {
            let word = mrt.occupancy_words()[row];
            for r in 0..NRES {
                let bit_set = word & (1 << r) != 0;
                assert_eq!(
                    bit_set,
                    mrt.occupant(row as i64, r).is_some(),
                    "row {row} res {r}"
                );
            }
        }
    }
}
