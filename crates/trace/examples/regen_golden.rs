//! Prints the golden-test loop's trace to stdout. To regenerate the
//! pinned file after an intentional schema or scheduler change:
//!
//! ```text
//! cargo run -p ims-trace --example regen_golden \
//!     > crates/trace/tests/golden/figure1_loop.jsonl
//! ```

use ims_core::{ProblemBuilder, SchedConfig, Scheduler};
use ims_graph::DepKind;
use ims_ir::{OpId, Opcode};
use ims_machine::figure1_machine;
use ims_trace::Recorder;

fn main() {
    // Keep in sync with crates/trace/tests/golden.rs.
    let machine = figure1_machine();
    let mut pb = ProblemBuilder::new(&machine);
    let mul = pb.add_op(Opcode::Mul, OpId(0));
    let add = pb.add_op(Opcode::Add, OpId(1));
    pb.add_dep(mul, add, 5, 0, DepKind::Flow, false);
    pb.add_dep(add, mul, 4, 2, DepKind::Flow, false);
    let problem = pb.finish();

    let mut rec = Recorder::new();
    Scheduler::new(&problem)
        .config(SchedConfig::new().budget_ratio(8.0))
        .observer(&mut rec)
        .run()
        .expect("the fixed loop schedules at II 6");
    print!("{}", rec.to_jsonl());
}
