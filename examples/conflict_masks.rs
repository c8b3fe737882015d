//! Conflict masks: print the word-parallel MRT encoding of a machine.
//!
//! Every alternative's reservation table is compiled once, at machine
//! construction, into a `ConflictMask`: per-cycle-offset `u64` bitmasks
//! over the resource axis. A modulo-reservation-table probe then ANDs
//! those masks against the MRT's occupancy words instead of scanning
//! `(resource, offset)` pairs one cell at a time (DESIGN.md §5d).
//!
//! This example dumps the compiled masks of the Cydra-5-like machine —
//! one line per `(offset, word, mask)` entry, with the resource names
//! each set bit stands for — and then walks one probe/install/evict
//! round on a small MRT to show the masks in action.
//!
//! Run with: `cargo run --release --example conflict_masks`

use ims::core::Mrt;
use ims::graph::NodeId;
use ims::ir::Opcode;
use ims::machine::{cydra, MachineModel};

/// The resource names behind the set bits of `mask` (bit `i` of word
/// `word` is resource `word * 64 + i`).
fn bit_names(m: &MachineModel, word: u32, mask: u64) -> String {
    let mut names = Vec::new();
    let mut bits = mask;
    while bits != 0 {
        let r = word as usize * 64 + bits.trailing_zeros() as usize;
        names.push(m.resources()[r].name.as_str());
        bits &= bits - 1;
    }
    names.join(", ")
}

fn main() {
    let m = cydra();
    println!(
        "machine `{}`: {} resources -> {} occupancy word(s) per MRT row\n",
        m.name(),
        m.num_resources(),
        m.num_resources().div_ceil(64)
    );

    // --- 1. The compiled masks, opcode by opcode ----------------------
    for (opcode, info) in m.opcodes() {
        println!("{opcode} (latency {}):", info.latency);
        for alt in &info.alternatives {
            let mask = alt.mask();
            println!(
                "  alternative `{}`: {} table use(s) -> {} mask entr{}",
                alt.fu,
                alt.table.uses().len(),
                mask.entries().len(),
                if mask.entries().len() == 1 {
                    "y"
                } else {
                    "ies"
                }
            );
            for e in mask.entries() {
                println!(
                    "    offset +{:<2} word {} mask {:#018x}  [{}]",
                    e.offset,
                    e.word,
                    e.mask,
                    bit_names(&m, e.word, e.mask)
                );
            }
        }
    }

    // --- 2. One probe/install/evict round on a small MRT --------------
    // Place a multiply at time 0 with II = 4, then probe an add. The
    // adder and multiplier are separate functional units, but every
    // operation also occupies one of the four instruction-format fields
    // on its issue cycle — so the add's *first* alternative (field f0,
    // taken by the multiply) collides while its second (field f1) is
    // free. Exactly the scan FindTimeSlot runs over an opcode's
    // alternatives, one AND per mask entry.
    let ii = 4;
    let mut mrt = Mrt::new(ii, m.num_resources());
    let mul = &m.info(Opcode::Mul).alternatives[0];

    mrt.place(NodeId(0), mul.mask(), 0);
    println!(
        "\nII = {ii}; placed a {} on `{}` at time 0",
        Opcode::Mul,
        mul.fu
    );
    println!(
        "occupancy words by row: {:?}",
        mrt.occupancy_words()
            .chunks(mul.mask().words_per_row())
            .map(|row| row.iter().map(|w| format!("{w:#x}")).collect::<Vec<_>>())
            .collect::<Vec<_>>()
    );
    for add in &m.info(Opcode::Add).alternatives {
        println!(
            "probe {} alternative `{}` at time 0 -> conflicts: {}",
            Opcode::Add,
            add.fu,
            mrt.conflicts(add.mask(), 0)
        );
    }
    let mut colliders = Vec::new();
    mrt.conflicting_nodes_into(mul.mask(), 0, &mut colliders);
    println!(
        "probe {} at time 0 -> conflicts: {} (colliders: {:?})",
        Opcode::Mul,
        mrt.conflicts(mul.mask(), 0),
        colliders
    );

    // Evict (§3.4 forced placement does exactly this) and show the table
    // drains back to all-zero words.
    mrt.remove(NodeId(0), mul.mask(), 0);
    println!(
        "after evicting: occupancy all zero = {}",
        mrt.occupancy_words().iter().all(|&w| w == 0)
    );
}
