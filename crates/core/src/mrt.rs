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
//! * an **occupancy bitset, kept per resource** — for each resource one
//!   bit per MRT row, set ⟺ the resource is reserved in that row. The
//!   bits are **mirrored**: bit `II + row` repeats bit `row`, and one
//!   padding word follows. The rows of successive slots are successive
//!   bits, so the slots of a FindTimeSlot window read as contiguous bits:
//!   shifted by the window's base row plus a use's offset, one resource's
//!   bits line up with the window's slots, 64 slots to a **window word**
//!   ([`Mrt::fit_word`]), and the complemented OR over an alternative's
//!   uses is the set of slots where the alternative fits. A single-slot
//!   probe tests one bit per `(resource, offset)` use of a
//!   [`ConflictMask`].
//! * an **owner array** — `Option<NodeId>` per `(row, resource)` cell,
//!   serving [`Mrt::occupant`] and [`Mrt::conflicting_nodes_into`] (which
//!   looks up only the cells whose bits are set). The tests scan it one
//!   cell at a time to check the bitset against it.
//!
//! The probe odometer (`machine.mrt.probes`) counts the cells a per-slot
//! scan probes, whatever the representation. [`Mrt::conflicts`] and
//! [`Mrt::conflicting_nodes_into`] charge the probing table's full
//! [`footprint`](ims_machine::ReservationTable::footprint) up front. The
//! window scan behind FindTimeSlot charges, at each slot up to the one it
//! chooses, what Figure 4's per-slot walk probes there (see
//! [`Mrt::find_slot`]).

use std::cell::Cell;

use ims_graph::NodeId;
use ims_machine::{Alternative, ConflictMask, MaskEntry};

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
/// // The window of II slots from time 0: free at 0 and 2, taken at 1.
/// assert_eq!(mrt.fit_word(&mask, 0, 0), 0b101);
/// mrt.remove(NodeId(1), &mask, 1);
/// assert!(!mrt.conflicts(&mask, 4));
/// ```
#[derive(Debug, Clone)]
pub struct Mrt {
    ii: i64,
    nres: usize,
    /// Words per resource in `occ`: `⌈2·II / 64⌉` for the mirrored row
    /// bits, plus one padding word.
    rw: usize,
    /// Occupancy bitset, per resource and **mirrored**: resource `r`'s
    /// words are `occ[r·rw .. (r+1)·rw]`, and bit `b` of them is row
    /// `b mod II` for `b < 2·II`. A window of at most II slots starting at
    /// row `s < II` reads bits `s .. s + II`, all inside the mirror, and
    /// a 64-bit read at any such bit stays inside the resource's words
    /// thanks to the padding word. Bits past `2·II` are always clear. The
    /// mirror copies are kept identical by [`Mrt::place`] /
    /// [`Mrt::remove`].
    occ: Vec<u64>,
    /// Owner per `(row, resource)` cell, `ii × nres`, row-major.
    slots: Vec<Option<NodeId>>,
    /// Deterministic probe-work odometer: the cells a per-slot scan would
    /// probe (see the module docs). A `Cell` so the read-only probe
    /// methods stay `&self`; charged up front so the count does not
    /// depend on where a conflict check short-circuits.
    probes: Cell<u64>,
    /// `off_rows[o] = o mod II` for small cycle offsets: probes reduce
    /// each entry's offset by table lookup instead of a division — the
    /// division, not the resource walk, dominates a short probe. Offsets
    /// beyond the cache (none in the bundled machines) fall back to `%`.
    off_rows: Box<[u16]>,
    /// `(time, time mod II)` of the most recent probe, `(0, 0)` before
    /// the first. The exact backend walks candidate times in unit steps
    /// and tries every alternative at each one, so the previous probe's
    /// row reduction is almost always reusable (same time, or time + 1) —
    /// the hit turns the base-row `rem_euclid` into an add-and-wrap. The
    /// II is fixed for the table's lifetime, so the pair is a pure
    /// function of the probe time and caching it cannot change any
    /// answer. A `Cell` for the same reason as `probes`.
    base_cache: Cell<(i64, usize)>,
    /// [`Mrt::find_slot`]'s scratch: the fit word of each alternative in
    /// the window word being scanned.
    fits: Vec<u64>,
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

/// The resources a mask entry uses, ascending.
#[inline]
fn resources(e: &MaskEntry) -> impl Iterator<Item = usize> {
    let word = e.word as usize * 64;
    let mut bits = e.mask;
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let r = word + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            r
        })
    })
}

impl Mrt {
    /// Creates an empty table for the given II and resource count.
    ///
    /// # Panics
    ///
    /// Panics if `ii < 1`.
    pub fn new(ii: i64, num_resources: usize) -> Self {
        assert!(ii >= 1, "II must be at least 1");
        let rw = (2 * ii as usize).div_ceil(64) + 1;
        Mrt {
            ii,
            nres: num_resources,
            rw,
            occ: vec![0; num_resources * rw],
            slots: vec![None; (ii as usize) * num_resources],
            probes: Cell::new(0),
            off_rows: (0..=OFF_CACHE).map(|o| (o as i64 % ii) as u16).collect(),
            base_cache: Cell::new((0, 0)),
            fits: Vec::new(),
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

    /// A canonical image of the reservation state: each resource's II row
    /// bits in turn, resource 0 first, packed 64 to a word (bit `i` of
    /// word `w` is cell `64·w + i` of that sequence). Two tables of one II
    /// and resource count have equal images exactly when they reserve the
    /// same cells — the exact backend keys its failed-state memoization on
    /// this image.
    pub fn occupancy_image(&self) -> Box<[u64]> {
        let ii = self.ii as usize;
        let mut out = Vec::with_capacity((self.nres * ii).div_ceil(64));
        let (mut acc, mut fill) = (0u64, 0usize);
        for r in 0..self.nres {
            for row in (0..ii).step_by(64) {
                let n = (ii - row).min(64);
                let bits = self.occ[r * self.rw + row / 64] & (u64::MAX >> (64 - n));
                acc |= bits << fill;
                fill += n;
                if fill >= 64 {
                    out.push(acc);
                    fill -= 64;
                    acc = if fill == 0 { 0 } else { bits >> (n - fill) };
                }
            }
        }
        if fill > 0 {
            out.push(acc);
        }
        out.into_boxed_slice()
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
    /// `base + (off mod II)`, in `[0, 2·II)`. Valid directly as a bit
    /// index into the mirrored bits; fold with [`Mrt::wrap`] before
    /// touching the single-height owner array.
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

    /// Whether resource `r` is reserved in mirrored row `row < 2·II`.
    #[inline]
    fn bit(&self, r: usize, row: usize) -> bool {
        self.occ[r * self.rw + row / 64] >> (row % 64) & 1 != 0
    }

    /// The 64 bits of `occ` from bit `sh < 64` of word `w` on: words `w`
    /// and `w + 1` of one resource.
    #[inline]
    fn read64(&self, w: usize, sh: usize) -> u64 {
        let pair = &self.occ[w..w + 2];
        // Two shifts for the high part, so that `sh = 0` shifts it out
        // rather than overflowing.
        pair[0] >> sh | (pair[1] << 1) << (63 - sh)
    }

    /// Sets or clears resource `r`'s bit for `row < II` in both mirror
    /// copies.
    #[inline]
    fn mark(&mut self, r: usize, row: usize, on: bool) {
        for m in [row, row + self.ii as usize] {
            let w = &mut self.occ[r * self.rw + m / 64];
            let b = 1u64 << (m % 64);
            if on {
                *w |= b;
            } else {
                *w &= !b;
            }
        }
    }

    fn check(&self, mask: &ConflictMask) {
        debug_assert_eq!(
            mask.words_per_row(),
            self.nres.div_ceil(64).max(1),
            "mask compiled for another machine"
        );
    }

    /// Whether issuing an operation with compiled reservation `mask` at
    /// `time` collides with any current reservation: one bit test per
    /// `(resource, offset)` use of the mask.
    ///
    /// In debug builds the bitset answer is asserted against the owner
    /// array (the §5d agreement invariant).
    pub fn conflicts(&self, mask: &ConflictMask, time: i64) -> bool {
        self.check(mask);
        self.probes.set(self.probes.get() + mask.footprint());
        let base = self.base_row(time);
        let hit = mask.entries().iter().any(|e| {
            let row = self.row_from(base, e.offset);
            resources(e).any(|r| self.bit(r, row))
        });
        debug_assert_eq!(hit, self.owner_scan_conflicts(mask, time));
        hit
    }

    /// The owner-array view of a mask probe, used by the debug agreement
    /// assertions. Not charged as probe work.
    fn owner_scan_conflicts(&self, mask: &ConflictMask, time: i64) -> bool {
        mask.entries().iter().any(|e| {
            let row = self.row(time, e.offset);
            resources(e).any(|r| self.slots[row * self.nres + r].is_some())
        })
    }

    /// Word `word` of the fit mask of the window of II slots from `start`:
    /// bit `i` is set ⟺ slot `t = start + 64·word + i` lies in the window
    /// (`64·word + i < II`) and `mask` issues at `t` without conflict, the
    /// answer `!conflicts(mask, t)` gives slot by slot. One 64-bit read
    /// per `(resource, offset)` use of the mask, whatever the slot count.
    /// Not charged as probe work: the scheduler's FindTimeSlot, which
    /// reads its windows through this method, charges each window as a
    /// per-slot walk would.
    ///
    /// In debug builds every bit is asserted against the owner array.
    pub fn fit_word(&self, mask: &ConflictMask, start: i64, word: usize) -> u64 {
        self.check(mask);
        if 64 * word >= self.ii as usize {
            return 0;
        }
        self.window_fit(mask, start, self.base_row(start), word)
    }

    /// [`Mrt::fit_word`] for a word inside the window, given the window's
    /// base row `start mod II`.
    #[inline]
    fn window_fit(&self, mask: &ConflictMask, start: i64, base: usize, word: usize) -> u64 {
        let first = 64 * word;
        let len = (self.ii as usize - first).min(64);
        let mut busy = 0;
        for e in mask.entries() {
            // Row `pos` holds the use for the word's first slot; the row
            // bits from `pos` on are the word's slots in order.
            let pos = self.wrap(self.row_from(base, e.offset)) + first;
            let (w, sh) = (pos / 64, pos % 64);
            for r in resources(e) {
                busy |= self.read64(r * self.rw + w, sh);
            }
        }
        let fit = !busy & u64::MAX >> (64 - len);
        debug_assert!((0..len).all(|i| {
            let t = start + (first + i) as i64;
            (fit >> i & 1 != 0) != self.owner_scan_conflicts(mask, t)
        }));
        fit
    }

    /// Whether `mask` issues without conflict at slot `first` of the
    /// window from `time - first`, whose base row is `base`: bit `first`
    /// of the window's fit mask, from one bit per use, stopping at a busy
    /// one.
    #[inline]
    fn free_at(&self, mask: &ConflictMask, base: usize, first: usize, time: i64) -> bool {
        let free = !mask.entries().iter().any(|e| {
            let row = self.wrap(self.row_from(base, e.offset)) + first;
            resources(e).any(|r| self.bit(r, row))
        });
        debug_assert_eq!(free, !self.owner_scan_conflicts(mask, time));
        free
    }

    /// FindTimeSlot's window (Figure 4): the first of the II slots from
    /// `start` where some alternative `k` with `usable(k)` issues without a
    /// resource conflict and `accept` agrees, with the first such
    /// alternative that fits there, and the number of slots examined — up
    /// to and including the chosen one, or all II when none is accepted.
    ///
    /// The window is read one window word ([`Mrt::fit_word`]) at a time,
    /// and a word only once the words before it hold no accepted slot. A
    /// word's first slot is decided from that slot's bits alone: one bit
    /// per use of each alternative in order, stopping at a busy use, until
    /// a usable alternative fits. Only if the scan moves past that slot
    /// are the alternatives' fit words read whole, in order, and only
    /// until one covers the earliest slot not yet examined. So a window
    /// accepted at its first slot reads what a single-slot probe reads.
    ///
    /// `accept` is consulted exactly as a per-slot walk consults it: at
    /// each slot where a usable alternative fits, in increasing time,
    /// until it returns `true`; never at a slot where none fits.
    ///
    /// The charge is the per-slot walk's: at each slot examined, the
    /// footprints of the alternatives in order up to and including the
    /// first usable one that fits (all of them where none fits), and at
    /// the chosen slot that charge once more for the placement's own
    /// probe.
    pub(crate) fn find_slot(
        &mut self,
        alternatives: &[Alternative],
        usable: impl Fn(usize) -> bool,
        start: i64,
        mut accept: impl FnMut(i64) -> bool,
    ) -> (Option<(i64, usize)>, u32) {
        let ii = self.ii as usize;
        let n = alternatives.len();
        if self.fits.len() < n {
            self.fits.resize(n, 0);
        }
        let base = self.base_row(start);
        let read = |mrt: &Self, k: usize, word: usize| {
            if !usable(k) {
                return 0;
            }
            let mask = alternatives[k].mask();
            mrt.check(mask);
            mrt.window_fit(mask, start, base, word)
        };
        for word in 0..ii.div_ceil(64) {
            let first = 64 * word;
            let t = start + first as i64;
            // The word's first slot, and what a per-slot probe of it costs.
            let mut cells = 0;
            let lead = (0..n).find(|&k| {
                let mask = alternatives[k].mask();
                cells += mask.footprint();
                usable(k) && self.free_at(mask, base, first, t)
            });
            if lead.is_some() && accept(t) {
                // That charge, and once more for the placement's probe.
                self.probes.set(self.probes.get() + 2 * cells);
                return (lead.map(|k| (t, k)), first as u32 + 1);
            }
            // Past the first slot: the fit words of the alternatives up to
            // the one that fits there (all of them if none does) decide it.
            let mut computed = lead.map_or(n, |k| k + 1);
            let mut union = 0u64;
            for k in 0..computed {
                self.fits[k] = read(self, k, word);
                union |= self.fits[k];
            }
            let all = u64::MAX >> (64 - (ii - first).min(64));
            // The word's slots not yet examined.
            let mut rest = all & !1;
            let chosen = loop {
                // The earliest unexamined slot is a candidate as soon as a
                // computed alternative fits there; only otherwise do the
                // later alternatives decide it.
                while rest != 0 && computed < n && union & rest & rest.wrapping_neg() == 0 {
                    self.fits[computed] = read(self, computed, word);
                    union |= self.fits[computed];
                    computed += 1;
                }
                let candidates = union & rest;
                if candidates == 0 {
                    break None;
                }
                let s = candidates.trailing_zeros() as usize;
                rest &= !(u64::MAX >> (63 - s));
                if accept(start + (first + s) as i64) {
                    break Some(s);
                }
            };
            let fits = &self.fits[..computed];
            match chosen {
                Some(s) => {
                    self.charge(alternatives, fits, u64::MAX >> (63 - s));
                    self.charge(alternatives, fits, 1 << s);
                    let alt = fits
                        .iter()
                        .position(|f| f >> s & 1 != 0)
                        .expect("a candidate slot has a fitting alternative");
                    return (
                        Some((start + (first + s) as i64, alt)),
                        (first + s + 1) as u32,
                    );
                }
                None => self.charge(alternatives, fits, all),
            }
        }
        (None, ii as u32)
    }

    /// Charges what a per-slot walk probes at each slot of `slots` (bits of
    /// one window word), given the fit words of the alternatives computed
    /// for it (zero for unusable ones): alternative `k`'s footprint at
    /// every slot where no usable alternative before it fits.
    /// [`Mrt::find_slot`] passes over a slot that no computed alternative
    /// covers only once it has computed them all, so `fits` always
    /// decides where each slot's charge stops.
    fn charge(&self, alternatives: &[Alternative], fits: &[u64], slots: u64) {
        let mut left = slots;
        let mut cells = 0;
        for (k, a) in alternatives.iter().enumerate() {
            if left == 0 {
                break;
            }
            cells += a.mask().footprint() * left.count_ones() as u64;
            left &= !fits.get(k).copied().unwrap_or(0);
        }
        self.probes.set(self.probes.get() + cells);
    }

    /// The distinct nodes whose reservations collide with `mask` at
    /// `time`, written into the caller-provided scratch buffer (cleared
    /// first, then sorted ascending).
    ///
    /// This runs on the scheduler's eviction hot path for every forced
    /// placement, so it reads the occupancy bits directly — the owner
    /// array is consulted only for cells proved occupied — and
    /// deduplication happens in place on the reused scratch: no
    /// allocation once the buffer has grown to the (small) maximum
    /// number of colliding nodes.
    pub fn conflicting_nodes_into(&self, mask: &ConflictMask, time: i64, out: &mut Vec<NodeId>) {
        self.check(mask);
        self.probes.set(self.probes.get() + mask.footprint());
        out.clear();
        let base = self.base_row(time);
        for e in mask.entries() {
            let urow = self.row_from(base, e.offset);
            let row = self.wrap(urow);
            for r in resources(e).filter(|&r| self.bit(r, urow)) {
                let node = self.slots[row * self.nres + r]
                    .expect("occupancy bit set implies an owner (§5d invariant)");
                if !out.contains(&node) {
                    out.push(node);
                }
            }
        }
        out.sort_unstable();
    }

    /// Reserves `mask` at `time` for `node`: set the occupancy bits of
    /// every use in both mirror copies and record `node` as owner of each
    /// covered cell.
    ///
    /// # Panics
    ///
    /// Panics if any required cell is already reserved; check
    /// [`Mrt::conflicts`] first.
    pub fn place(&mut self, node: NodeId, mask: &ConflictMask, time: i64) {
        self.check(mask);
        let base = self.base_row(time);
        for e in mask.entries() {
            let row = self.wrap(self.row_from(base, e.offset));
            for r in resources(e) {
                assert!(
                    !self.bit(r, row),
                    "MRT slot already reserved while placing {node}"
                );
                self.mark(r, row, true);
                self.slots[row * self.nres + r] = Some(node);
            }
        }
    }

    /// Releases the reservation `mask` made at `time` by `node`
    /// (the exact inverse of [`Mrt::place`]; §2.1: *"When backtracking, an
    /// operation may be 'unscheduled' by reversing this process"*):
    /// clear the owners and both mirror copies of each occupancy bit.
    ///
    /// # Panics
    ///
    /// Panics if a cell does not currently belong to `node`.
    pub fn remove(&mut self, node: NodeId, mask: &ConflictMask, time: i64) {
        self.check(mask);
        let base = self.base_row(time);
        for e in mask.entries() {
            let row = self.wrap(self.row_from(base, e.offset));
            for r in resources(e) {
                let cell = &mut self.slots[row * self.nres + r];
                assert_eq!(
                    *cell,
                    Some(node),
                    "MRT slot not owned by {node} during unschedule"
                );
                *cell = None;
                self.mark(r, row, false);
            }
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
        assert!(mrt.occupancy_image().iter().all(|&w| w == 0));
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
        // II 40 puts each resource's mirror copy across a word boundary;
        // 70 resources put resource 64 onward past the first mask word.
        let (ii, nres) = (40, 70);
        let m = |uses: &[(u32, u32)]| ConflictMask::compile(&table(uses), nres);
        let mut mrt = Mrt::new(ii, nres);
        mrt.place(NodeId(9), &m(&[(0, 0), (3, 1), (1, 45)]), 2);
        mrt.place(NodeId(4), &m(&[(66, 0), (3, 0)]), 39);
        let image = mrt.occupancy_image();
        assert_eq!(image.len(), (nres * ii as usize).div_ceil(64));
        for r in 0..nres {
            for row in 0..ii as usize {
                let owned = mrt.occupant(row as i64, r).is_some();
                let cell = r * ii as usize + row;
                assert_eq!(image[cell / 64] >> (cell % 64) & 1 != 0, owned);
                assert_eq!(mrt.bit(r, row), owned, "row {row} res {r}");
                assert_eq!(mrt.bit(r, row + ii as usize), owned, "mirror of {row}");
            }
            // Nothing past the mirror: the padding word stays clear.
            for b in 2 * ii as usize..64 * mrt.rw {
                assert!(!mrt.bit(r, b), "res {r} bit {b}");
            }
        }
        assert_eq!(mrt.occupant(79, 3), Some(NodeId(4)), "79 ≡ 39 (mod 40)");
        assert_eq!(mrt.occupant(7, 1), Some(NodeId(9)), "2 + 45 ≡ 7 (mod 40)");
        mrt.remove(NodeId(9), &m(&[(0, 0), (3, 1), (1, 45)]), 2);
        mrt.remove(NodeId(4), &m(&[(66, 0), (3, 0)]), 39);
        assert!(mrt.occ.iter().all(|&w| w == 0));
    }

    /// The fit word read bit by bit: slot by slot, `!conflicts`.
    fn fit_by_slot(mrt: &Mrt, mask: &ConflictMask, start: i64, word: usize) -> u64 {
        (0..64)
            .filter(|&i| 64 * word + i < mrt.ii() as usize)
            .filter(|&i| !mrt.conflicts(mask, start + (64 * word + i) as i64))
            .fold(0, |w, i| w | 1 << i)
    }

    #[test]
    fn fit_words_read_a_window_across_the_mirror() {
        // II 130: a window spans three words, and its slots wrap around
        // the table wherever it starts.
        let mut mrt = Mrt::new(130, NRES);
        mrt.place(NodeId(1), &mask(&[(0, 0), (1, 3)]), 5);
        mrt.place(NodeId(2), &mask(&[(0, 0)]), 127);
        mrt.place(NodeId(3), &mask(&[(2, 0), (2, 64)]), 60);
        let probe = mask(&[(0, 0), (2, 1)]);
        for start in [-300, -131, -1, 0, 1, 63, 64, 66, 129, 130, 259, 260, 400] {
            for word in 0..4 {
                assert_eq!(
                    mrt.fit_word(&probe, start, word),
                    fit_by_slot(&mrt, &probe, start, word),
                    "start {start} word {word}"
                );
            }
        }
        // Slot 0 of the window from 5 is taken; 122 slots on, 127 is too.
        let w = mrt.fit_word(&mask(&[(0, 0)]), 5, 1);
        assert_eq!(w & 1 << (122 - 64), 0);
        assert_eq!(mrt.fit_word(&probe, 0, 3), 0, "past the window");
    }

    #[test]
    fn find_slot_charges_the_per_slot_walk() {
        // Resource 0 busy at rows 0 and 1: alternative a (resource 0)
        // fits from slot 2, alternative b (resources 1 and 2) everywhere.
        let mut mb = ims_machine::MachineBuilder::new("two-alternative");
        for r in 0..NRES {
            mb.resource(format!("r{r}"));
        }
        mb.op(
            ims_ir::Opcode::Add,
            1,
            vec![("a", table(&[(0, 0)])), ("b", table(&[(1, 0), (2, 1)]))],
        );
        let machine = mb.build();
        let alts = &machine.info(ims_ir::Opcode::Add).alternatives;
        let mut mrt = Mrt::new(6, NRES);
        mrt.place(NodeId(7), &mask(&[(0, 0), (0, 1)]), 0);
        let before = mrt.probes();
        // Slot 0 is vetoed: it costs both footprints (b fits, 1 + 2
        // cells), as does slot 1, accepted, and the placement's probe there.
        let mut asked = Vec::new();
        let (found, iters) = mrt.find_slot(
            alts,
            |_| true,
            0,
            |t| {
                asked.push(t);
                t != 0 && t != 2
            },
        );
        assert_eq!(found, Some((1, 1)));
        assert_eq!(iters, 2);
        assert_eq!(asked, [0, 1]);
        assert_eq!(mrt.probes() - before, 3 + 3 + 3);
        // With B unusable, slots 0 and 1 hold no candidate and are never
        // asked about; each still costs both footprints.
        let before = mrt.probes();
        asked.clear();
        let (found, iters) = mrt.find_slot(
            alts,
            |k| k == 0,
            0,
            |t| {
                asked.push(t);
                t != 2
            },
        );
        assert_eq!((found, iters), (Some((3, 0)), 4));
        assert_eq!(asked, [2, 3]);
        assert_eq!(mrt.probes() - before, 3 + 3 + 1 + 1 + 1);
        // No accepted slot: the whole window, and no placement probe.
        let before = mrt.probes();
        let (found, iters) = mrt.find_slot(alts, |_| true, 0, |_| false);
        assert_eq!((found, iters), (None, 6));
        assert_eq!(mrt.probes() - before, 3 + 3 + 1 + 1 + 1 + 1);
    }
}
