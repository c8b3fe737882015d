//! Human-readable rendering of schedules.
//!
//! [`format_schedule`] renders the flat schedule (one line per operation)
//! and [`format_kernel`] renders the kernel the way compiler writers read
//! modulo schedules: one row per issue slot (`time mod II`), showing every
//! operation that occupies that row together with its stage.

use std::fmt::Write as _;

use crate::problem::{NodeKind, Problem};
use crate::sched::Schedule;

/// Renders one line per operation: issue time, stage, opcode, chosen
/// functional-unit alternative.
pub fn format_schedule(problem: &Problem<'_>, schedule: &Schedule) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "II = {}, schedule length = {}, {} stages",
        schedule.ii,
        schedule.length,
        schedule.stage_count()
    );
    let mut rows: Vec<_> = problem.op_nodes().collect();
    rows.sort_by_key(|&n| (schedule.time_of(n), n));
    for node in rows {
        if let NodeKind::Op { opcode, op } = problem.kind(node) {
            let t = schedule.time_of(node);
            let alt = &problem
                .info(node)
                .expect("op nodes have machine info")
                .alternatives[schedule.alternative[node.index()]];
            let _ = writeln!(
                out,
                "  t={t:<4} stage {:<2} slot {:<3} {op}: {opcode:<6} on {}",
                t / schedule.ii,
                t % schedule.ii,
                alt.fu
            );
        }
    }
    out
}

/// Renders the kernel: one row per issue slot modulo II.
pub fn format_kernel(problem: &Problem<'_>, schedule: &Schedule) -> String {
    let mut out = String::new();
    for slot in 0..schedule.ii {
        let _ = write!(out, "t%{slot:<3}|");
        for node in problem.op_nodes() {
            if schedule.time_of(node) % schedule.ii != slot {
                continue;
            }
            if let NodeKind::Op { opcode, .. } = problem.kind(node) {
                let _ = write!(out, " {opcode}({})", schedule.time_of(node) / schedule.ii);
            }
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ProblemBuilder;
    use crate::Scheduler;
    use ims_graph::DepKind;
    use ims_ir::{OpId, Opcode};
    use ims_machine::minimal;

    fn scheduled() -> (String, String) {
        let m = minimal();
        let mut pb = ProblemBuilder::new(&m);
        let a = pb.add_op(Opcode::Load, OpId(0));
        let b = pb.add_op(Opcode::Add, OpId(1));
        pb.add_dep(a, b, 1, 0, DepKind::Flow, false);
        let p = pb.finish();
        let out = Scheduler::new(&p).run().unwrap();
        (
            format_schedule(&p, &out.schedule),
            format_kernel(&p, &out.schedule),
        )
    }

    #[test]
    fn schedule_listing_names_every_op() {
        let (listing, _) = scheduled();
        assert!(listing.contains("load"), "{listing}");
        assert!(listing.contains("add"), "{listing}");
        assert!(listing.contains("II = 2"), "{listing}");
    }

    #[test]
    fn kernel_listing_has_ii_rows() {
        let (_, kernel) = scheduled();
        assert_eq!(kernel.lines().count(), 2);
        assert!(kernel.contains("t%0"), "{kernel}");
        assert!(kernel.contains("t%1"), "{kernel}");
    }
}
