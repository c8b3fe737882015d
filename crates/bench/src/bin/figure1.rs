//! Figure 1: reservation tables for a pipelined add and multiply.
//!
//! Prints the Cydra-5-like machine's reservation tables in the grid layout
//! of the paper's Figure 1 and demonstrates the collision narrative of
//! §2.1 ("an add may not be issued [so many] cycles after a multiply since
//! this will result in a collision on the result bus").

use ims_ir::Opcode;
use ims_machine::{figure1_machine, MachineModel, ReservationTable};
use ims_serve::pool::args_or_exit;

const USAGE: &str = "usage: figure1";

fn print_table(machine: &MachineModel, name: &str, table: &ReservationTable) {
    println!("({name})  [{} reservation table]", table.class());
    let max_t = table.max_offset();
    // Columns: the resources this table touches, in id order.
    let mut resources: Vec<_> = table.uses().iter().map(|&(r, _)| r).collect();
    resources.sort();
    resources.dedup();
    print!("{:>6} |", "time");
    for r in &resources {
        print!(" {:^12} |", machine.resource(*r).name);
    }
    println!();
    for t in 0..=max_t {
        print!("{t:>6} |");
        for r in &resources {
            let used = table.uses().contains(&(*r, t));
            print!(" {:^12} |", if used { "X" } else { "" });
        }
        println!();
    }
    println!();
}

fn main() {
    args_or_exit(USAGE);
    let m = figure1_machine();
    println!("Figure 1 — reservation tables (machine: {})\n", m.name());
    let add = &m.info(Opcode::Add).alternatives[0].table;
    let mul = &m.info(Opcode::Mul).alternatives[0].table;
    print_table(&m, "a: pipelined add", add);
    print_table(&m, "b: pipelined multiply", mul);

    println!("Collision analysis (multiply issued at cycle 0, add at cycle k):");
    for k in 0..=3 {
        let collides = mul.collides_at(add, k);
        println!(
            "  add at +{k}: {}",
            if collides { "COLLIDES" } else { "ok" }
        );
    }
    println!(
        "\nAs in the paper: the add and multiply share the source buses (cycle 0)\n\
         and the result bus (their last execution cycle), so an add cannot issue\n\
         on the same cycle as a multiply, nor late enough for their result-bus\n\
         uses to coincide."
    );
}
