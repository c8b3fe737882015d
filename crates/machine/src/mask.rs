//! Word-parallel conflict masks compiled from reservation tables.
//!
//! A [`ReservationTable`] is the *specification* of an alternative's
//! resource usage: a sorted list of `(resource, cycle-offset)` pairs. A
//! [`ConflictMask`] is its *compiled* form against a fixed machine
//! resource axis: for every distinct cycle offset the table touches, a
//! bitmask over the machine's resources (split into `u64` words when the
//! machine has more than 64 resources). A modulo-reservation-table probe
//! then ANDs each mask word against the corresponding occupancy word of
//! one MRT row instead of scanning resources one at a time — the
//! FindTimeSlot/ResourceConflict hot path of §5–6 becomes a handful of
//! word operations.
//!
//! Masks are compiled once, at [`MachineModel`](crate::MachineModel)
//! construction, because the row *layout* they address (one group of
//! `words_per_row` words per MRT row, bit `r mod 64` of word `r / 64`
//! for resource `r`) depends only on the machine's resource count — not
//! on the II. The II enters a probe only as `row = (time + offset) mod
//! II`, chosen by the MRT at query time. The full encoding, with the
//! invariant that a mask probe and a per-resource scan always agree, is
//! specified in `DESIGN.md` §5d.

use crate::reservation::ReservationTable;

/// One `(row_word, mask)` pair of a compiled reservation table: the
/// resources the table uses at cycle offset [`offset`](MaskEntry::offset)
/// whose indices fall in word [`word`](MaskEntry::word) of a row group.
///
/// For machines with at most 64 resources (every predefined model in
/// this crate) `word` is always 0 and a table contributes exactly one
/// entry per distinct cycle offset it uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MaskEntry {
    /// Cycle offset relative to the issue cycle (the table's `(r, t)`
    /// pairs with this `t`).
    pub offset: u32,
    /// Word index within a row group: resources `64·word ..
    /// 64·word + 63`.
    pub word: u32,
    /// Bit `i` set ⟺ the table uses resource `64·word + i` at
    /// `offset`.
    pub mask: u64,
}

/// A reservation table compiled to word-parallel row masks against a
/// fixed resource axis: for every distinct cycle offset the table
/// touches, a bitmask over the machine's resources, split into `u64`
/// words when the machine has more than 64 of them (resource `r` is bit
/// `r mod 64` of word `r / 64`). The full encoding is specified in
/// `DESIGN.md` §5d.
///
/// # Examples
///
/// Compilation groups uses by cycle offset: three uses on two distinct
/// offsets become two mask entries, and the bit count equals the
/// table's footprint.
///
/// ```
/// use ims_machine::{ConflictMask, ReservationTable, ResourceId};
///
/// // Resources 0 and 2 at issue, resource 1 two cycles later.
/// let table = ReservationTable::new(vec![
///     (ResourceId(0), 0),
///     (ResourceId(2), 0),
///     (ResourceId(1), 2),
/// ]);
/// let mask = ConflictMask::compile(&table, 3);
///
/// assert_eq!(mask.words_per_row(), 1);
/// assert_eq!(mask.entries().len(), 2, "one entry per distinct offset");
/// assert_eq!(mask.entries()[0].offset, 0);
/// assert_eq!(mask.entries()[0].mask, 0b101);
/// assert_eq!(mask.entries()[1].offset, 2);
/// assert_eq!(mask.entries()[1].mask, 0b010);
/// assert_eq!(mask.footprint(), table.footprint());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConflictMask {
    /// `⌈num_resources / 64⌉`, the row-group stride this mask was
    /// compiled for.
    words_per_row: u32,
    /// `(offset, word, mask)` triples, sorted by `(offset, word)`, every
    /// `mask` nonzero.
    entries: Box<[MaskEntry]>,
    /// The source table's [`footprint`](ReservationTable::footprint):
    /// total set bits across all entries.
    footprint: u64,
    /// The largest cycle offset used (equals the source table's
    /// [`max_offset`](ReservationTable::max_offset)).
    max_offset: u32,
    /// Whether the table uses some resource at more than one offset:
    /// only such a table can collide with itself.
    reuses_a_resource: bool,
}

impl ConflictMask {
    /// Compiles `table` against a machine with `num_resources` resources.
    ///
    /// # Panics
    ///
    /// Panics if the table references a resource `≥ num_resources` —
    /// masks are only meaningful against the axis they were compiled
    /// for.
    pub fn compile(table: &ReservationTable, num_resources: usize) -> Self {
        assert!(
            num_resources > 0,
            "a machine must have at least one resource"
        );
        let words_per_row = num_resources.div_ceil(64) as u32;
        let mut entries: Vec<MaskEntry> = Vec::new();
        // `uses()` is sorted by (offset, resource), so equal (offset,
        // word) pairs are adjacent and the entry list comes out sorted.
        for &(r, off) in table.uses() {
            assert!(
                r.index() < num_resources,
                "table references {r} but the machine has {num_resources} resources"
            );
            let word = (r.index() / 64) as u32;
            let bit = 1u64 << (r.index() % 64);
            match entries.last_mut() {
                Some(e) if e.offset == off && e.word == word => e.mask |= bit,
                _ => entries.push(MaskEntry {
                    offset: off,
                    word,
                    mask: bit,
                }),
            }
        }
        // Each use is one set bit, so some resource repeats exactly when
        // the union of the entries has fewer bits than the footprint.
        let distinct: u64 = (0..words_per_row)
            .map(|w| {
                let union = entries
                    .iter()
                    .filter(|e| e.word == w)
                    .fold(0, |u, e| u | e.mask);
                union.count_ones() as u64
            })
            .sum();
        ConflictMask {
            words_per_row,
            entries: entries.into_boxed_slice(),
            footprint: table.footprint(),
            max_offset: table.max_offset(),
            reuses_a_resource: distinct < table.footprint(),
        }
    }

    /// Whether two uses of one resource fall on one MRT row at `ii`:
    /// the table would collide with itself wherever it issued. Entries
    /// never repeat an `(offset, word)` pair, so a shared bit means two
    /// distinct offsets.
    pub fn collides_with_itself(&self, ii: i64) -> bool {
        if !self.reuses_a_resource || ii > self.max_offset as i64 {
            return false; // offsets closer than the II never share a row
        }
        let e = &self.entries;
        e.iter().enumerate().any(|(i, a)| {
            e[i + 1..].iter().any(|b| {
                a.word == b.word && a.mask & b.mask != 0 && (b.offset - a.offset) as i64 % ii == 0
            })
        })
    }

    /// The compiled `(offset, word, mask)` entries, sorted by
    /// `(offset, word)`, each with a nonzero mask.
    #[inline]
    pub fn entries(&self) -> &[MaskEntry] {
        &self.entries
    }

    /// The row-group stride (`⌈num_resources / 64⌉`) this mask was
    /// compiled for. A mask may only be probed against a modulo
    /// reservation table with the same stride.
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row as usize
    }

    /// The source table's [`footprint`](ReservationTable::footprint) —
    /// the deterministic probe cost charged by the MRT, identical to
    /// what the scan representation charges. Also the total number of
    /// set bits across [`entries`](ConflictMask::entries).
    #[inline]
    pub fn footprint(&self) -> u64 {
        self.footprint
    }

    /// The largest cycle offset used.
    #[inline]
    pub fn max_offset(&self) -> u32 {
        self.max_offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ResourceId;

    fn table(uses: &[(u32, u32)]) -> ReservationTable {
        ReservationTable::new(uses.iter().map(|&(r, t)| (ResourceId(r), t)).collect())
    }

    #[test]
    fn bits_cover_exactly_the_uses() {
        let t = table(&[(0, 0), (3, 0), (1, 2), (2, 2), (0, 5)]);
        let m = ConflictMask::compile(&t, 4);
        // Reconstruct the (resource, offset) set from the mask.
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for e in m.entries() {
            let mut bits = e.mask;
            while bits != 0 {
                let b = bits.trailing_zeros();
                pairs.push((e.word * 64 + b, e.offset));
                bits &= bits - 1;
            }
        }
        pairs.sort_by_key(|&(r, t)| (t, r));
        let expect: Vec<(u32, u32)> = t.uses().iter().map(|&(r, off)| (r.0, off)).collect();
        assert_eq!(pairs, expect);
        assert_eq!(m.footprint(), t.footprint());
        assert_eq!(m.max_offset(), t.max_offset());
    }

    #[test]
    fn entries_are_grouped_and_sorted() {
        let t = table(&[(2, 1), (0, 0), (1, 1), (3, 0)]);
        let m = ConflictMask::compile(&t, 4);
        assert_eq!(m.entries().len(), 2);
        assert_eq!(
            m.entries()[0],
            MaskEntry {
                offset: 0,
                word: 0,
                mask: 0b1001
            }
        );
        assert_eq!(
            m.entries()[1],
            MaskEntry {
                offset: 1,
                word: 0,
                mask: 0b0110
            }
        );
    }

    #[test]
    fn wide_machines_split_rows_into_words() {
        // Resources 1 and 100 at issue: two words per row, one entry per
        // word, same offset.
        let t = table(&[(1, 0), (100, 0)]);
        let m = ConflictMask::compile(&t, 128);
        assert_eq!(m.words_per_row(), 2);
        assert_eq!(
            m.entries(),
            &[
                MaskEntry {
                    offset: 0,
                    word: 0,
                    mask: 1 << 1
                },
                MaskEntry {
                    offset: 0,
                    word: 1,
                    mask: 1 << 36
                },
            ]
        );
    }

    #[test]
    fn a_table_collides_with_itself_where_two_uses_of_a_resource_share_a_row() {
        // Resource 0 at offsets 0 and 2: rows coincide at II 1 and 2.
        let sparse = ConflictMask::compile(&table(&[(0, 0), (0, 2), (1, 1)]), 4);
        assert!(sparse.collides_with_itself(1));
        assert!(sparse.collides_with_itself(2));
        assert!(!sparse.collides_with_itself(3));
        // A three-cycle block fits at any II of at least 3.
        let block = ConflictMask::compile(&table(&[(2, 0), (2, 1), (2, 2)]), 4);
        assert!(block.collides_with_itself(2));
        assert!(!block.collides_with_itself(3));
        // Distinct resources at congruent offsets never collide.
        let apart = ConflictMask::compile(&table(&[(0, 0), (1, 2)]), 4);
        assert!(!apart.collides_with_itself(2));
    }

    #[test]
    #[should_panic(expected = "but the machine has")]
    fn out_of_range_resource_panics() {
        let t = table(&[(7, 0)]);
        let _ = ConflictMask::compile(&t, 4);
    }
}
