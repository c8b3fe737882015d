//! Table 2: the machine model used by the scheduler in the experiments.

use ims_ir::{FuClass, Opcode};
use ims_machine::cydra;
use ims_serve::pool::args_or_exit;
use ims_stats::table::Table;

const USAGE: &str = "usage: table2";

fn main() {
    args_or_exit(USAGE);
    let m = cydra();
    println!("Table 2 — machine model ({})\n", m.name());
    let mut t = Table::new(vec![
        "Functional Unit".into(),
        "Number".into(),
        "Operations".into(),
        "Latency".into(),
    ]);
    let classes = [
        (FuClass::Memory, 2),
        (FuClass::AddressAlu, 2),
        (FuClass::Adder, 1),
        (FuClass::Multiplier, 1),
        (FuClass::Instruction, 1),
    ];
    for (class, number) in classes {
        let mut first = true;
        for op in Opcode::ALL {
            if op.fu_class() != class {
                continue;
            }
            let info = m.info(op);
            t.row(vec![
                if first {
                    class.to_string()
                } else {
                    String::new()
                },
                if first {
                    number.to_string()
                } else {
                    String::new()
                },
                op.to_string(),
                info.latency.to_string(),
            ]);
            first = false;
        }
    }
    print!("{}", t.render());
    println!(
        "\nNote: store, predicate set/reset, and branch latencies are\n\
         illegible in the scanned paper; the values above (1, 1, 3) are\n\
         conventional substitutes, flagged in DESIGN.md. The legible values\n\
         (load 20, address add 3, add 4, multiply 5, divide 22, square\n\
         root 26) are used verbatim."
    );
}
