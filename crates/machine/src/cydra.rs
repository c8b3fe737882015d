//! Predefined machine models.
//!
//! [`cydra`] reproduces the paper's Table 2 machine with Figure-1-style
//! complex reservation tables; [`cydra_simple`] is the same machine with
//! every table abstracted to a simple table; [`minimal`], [`single_alu`] and
//! [`wide`] are synthetic machines for tests and ablations.
//!
//! Table 2 in the scanned paper is partially illegible (the store, predicate
//! set/reset, and branch latencies are garbled). The values used here and
//! flagged in `DESIGN.md` are: store 1, predicate set/reset 1, branch 3. The
//! legible values are used verbatim: load 20, address add/subtract 3,
//! add/subtract 4, multiply 5, divide 22, square root 26.

use ims_ir::Opcode;

use crate::model::{MachineBuilder, MachineModel};
use crate::reservation::ReservationTable;

/// Latencies for the Cydra-5-like machine (Table 2).
const LOAD_LATENCY: u32 = 20;
const STORE_LATENCY: u32 = 1;
const PRED_LATENCY: u32 = 1;
const ADDR_LATENCY: u32 = 3;
const ADD_LATENCY: u32 = 4;
const MUL_LATENCY: u32 = 5;
const DIV_LATENCY: u32 = 22;
const SQRT_LATENCY: u32 = 26;
const BRANCH_LATENCY: u32 = 3;

/// Rotating-register-file capacity declared on the Cydra-like machines.
/// The Cydra 5's iteration frames rotate inside a 64-register window; the
/// synthetic [`cydra_rf`] variants shrink this to study pressure.
const CYDRA_REGISTER_FILE: u32 = 64;

/// Instruction-format fields per cycle (issue width). §2.1 lists "a field
/// in the instruction format" among the resources a reservation table may
/// claim; every operation occupies one field on its issue cycle. The width
/// of 4 is reconstructed from the paper's own statistics: with median
/// N ≈ 12 operations and median MII = 3, the typical resource-constrained
/// MII must be ⌈N/4⌉, i.e. a 4-wide issue.
const ISSUE_WIDTH: usize = 4;

/// Crosses per-FU alternatives with the instruction-format fields: each
/// resulting alternative additionally reserves one field on the issue
/// cycle.
fn cross_with_fields(
    alts: Vec<(String, ReservationTable)>,
    fields: &[crate::model::ResourceId],
) -> Vec<(String, ReservationTable)> {
    let mut out = Vec::with_capacity(alts.len() * fields.len());
    for (name, table) in alts {
        for (k, &f) in fields.iter().enumerate() {
            let mut uses = table.uses().to_vec();
            uses.push((f, 0));
            out.push((format!("{name}/f{k}"), ReservationTable::new(uses)));
        }
    }
    out
}

/// The Cydra-5-like machine of the paper's Table 2, modelled with complex
/// reservation tables:
///
/// * **2 memory ports** — a load uses its port at issue, the port's bank a
///   cycle later, and the port's result slot on its last cycle; loads have
///   two alternatives (one per port).
/// * **2 address ALUs** — address adds/subtracts, one alternative per ALU
///   (simple tables).
/// * **1 adder** — its source-bus stage at issue, two pipeline stages, its
///   result bus on the last cycle (the Figure 1(a) shape, with buses
///   private to the adder).
/// * **1 multiplier** — the Figure 1(b) shape for multiply; divide and
///   square root additionally occupy the (unpipelined) divide unit for a
///   block of cycles, which is what gives the machine its block-like
///   tables and forces genuine iterative displacement.
/// * **1 instruction unit** — the loop-closing branch.
///
/// Each functional unit has private buses, matching the paper's remark that
/// private buses make tables abstractable — but the pipelines are still
/// modelled in full, and the divide unit still interacts with multiplies.
/// The literal Figure 1 machine, with the source and result buses *shared*
/// between the adder and the multiplier, is available as
/// [`figure1_machine`]; its shared buses make the MII structurally
/// unachievable for many resource-limited loops, which is useful for
/// studying the scheduler under pressure but does not match the machine
/// the paper's experiments ran on.
pub fn cydra() -> MachineModel {
    build_cydra_complex("cydra", false, CYDRA_REGISTER_FILE)
}

/// The [`cydra`] machine with its rotating register file shrunk to `n`
/// registers (name `cydra_rf{n}`): identical resources, latencies, and
/// reservation tables, but a pressure-aware run
/// (`SchedConfig::pressure_limit(n)` plus the `ims-press` observer) must
/// fit every schedule's MaxLive and rotating allocation into `n` names.
/// This is the tight-register corpus family behind `corpus
/// --pressure-limit N` and the Table-2-style pressure results in
/// `EXPERIMENTS.md`.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn cydra_rf(n: u32) -> MachineModel {
    assert!(n > 0, "register file size must be positive");
    build_cydra_complex(&format!("cydra_rf{n}"), false, n)
}

/// The literal machine of the paper's Figure 1: identical to [`cydra`]
/// except that the adder and the multiplier *share* their source-operand
/// buses and their result bus. As §2.1 narrates, an add and a multiply can
/// then never issue on the same cycle, and an add may not issue
/// `mul_latency − add_latency` cycles after a multiply (result-bus
/// collision).
pub fn figure1_machine() -> MachineModel {
    build_cydra_complex("figure1", true, CYDRA_REGISTER_FILE)
}

fn build_cydra_complex(name: &str, shared_buses: bool, register_file: u32) -> MachineModel {
    let mut b = MachineBuilder::new(name);
    b.register_file(register_file);
    let fields: Vec<_> = (0..ISSUE_WIDTH)
        .map(|k| b.resource(format!("instr_field{k}")))
        .collect();
    let port0 = b.resource("mem_port0");
    let port1 = b.resource("mem_port1");
    let bank0 = b.resource("mem_bank0");
    let bank1 = b.resource("mem_bank1");
    let mres0 = b.resource("mem_result0");
    let mres1 = b.resource("mem_result1");
    let aalu0 = b.resource("addr_alu0");
    let aalu1 = b.resource("addr_alu1");
    let src = b.resource("add_src_bus");
    let res = b.resource("add_result_bus");
    let (msrc, mres) = if shared_buses {
        (src, res)
    } else {
        (b.resource("mul_src_bus"), b.resource("mul_result_bus"))
    };
    let add1 = b.resource("add_stage1");
    let add2 = b.resource("add_stage2");
    let mul1 = b.resource("mul_stage1");
    let mul2 = b.resource("mul_stage2");
    let mul3 = b.resource("mul_stage3");
    let divu = b.resource("div_unit");
    let instr = b.resource("instr_unit");

    // Memory ports: two alternatives per memory opcode.
    let load0 = ReservationTable::new(vec![(port0, 0), (bank0, 1), (mres0, LOAD_LATENCY - 1)]);
    let load1 = ReservationTable::new(vec![(port1, 0), (bank1, 1), (mres1, LOAD_LATENCY - 1)]);
    b.op_alts(
        Opcode::Load,
        LOAD_LATENCY,
        cross_with_fields(
            vec![("mem_port0".into(), load0), ("mem_port1".into(), load1)],
            &fields,
        ),
    );
    let store0 = ReservationTable::new(vec![(port0, 0), (bank0, 1)]);
    let store1 = ReservationTable::new(vec![(port1, 0), (bank1, 1)]);
    b.op_alts(
        Opcode::Store,
        STORE_LATENCY,
        cross_with_fields(
            vec![("mem_port0".into(), store0), ("mem_port1".into(), store1)],
            &fields,
        ),
    );
    for pred_op in [Opcode::PredSet, Opcode::PredClear] {
        b.op_alts(
            pred_op,
            PRED_LATENCY,
            cross_with_fields(
                vec![
                    ("mem_port0".into(), ReservationTable::simple(port0)),
                    ("mem_port1".into(), ReservationTable::simple(port1)),
                ],
                &fields,
            ),
        );
    }

    // Address ALUs: simple tables, two alternatives.
    for addr_op in [Opcode::AddrAdd, Opcode::AddrSub] {
        b.op_alts(
            addr_op,
            ADDR_LATENCY,
            cross_with_fields(
                vec![
                    ("addr_alu0".into(), ReservationTable::simple(aalu0)),
                    ("addr_alu1".into(), ReservationTable::simple(aalu1)),
                ],
                &fields,
            ),
        );
    }

    // Adder: Figure 1(a).
    let adder_table =
        ReservationTable::new(vec![(src, 0), (add1, 1), (add2, 2), (res, ADD_LATENCY - 1)]);
    for add_op in [
        Opcode::Add,
        Opcode::Sub,
        Opcode::Abs,
        Opcode::Min,
        Opcode::Max,
        Opcode::Copy,
    ] {
        b.op_alts(
            add_op,
            ADD_LATENCY,
            cross_with_fields(vec![("adder".into(), adder_table.clone())], &fields),
        );
    }

    // Multiplier: Figure 1(b) for multiply.
    let mul_table = ReservationTable::new(vec![
        (msrc, 0),
        (mul1, 1),
        (mul2, 2),
        (mul3, 3),
        (mres, MUL_LATENCY - 1),
    ]);
    b.op_alts(
        Opcode::Mul,
        MUL_LATENCY,
        cross_with_fields(vec![("multiplier".into(), mul_table)], &fields),
    );

    // Divide and square root: unpipelined block on the divide unit.
    let mut div_uses = vec![(msrc, 0), (mres, DIV_LATENCY - 1)];
    div_uses.extend((1..DIV_LATENCY - 1).map(|t| (divu, t)));
    b.op_alts(
        Opcode::Div,
        DIV_LATENCY,
        cross_with_fields(
            vec![("multiplier".into(), ReservationTable::new(div_uses))],
            &fields,
        ),
    );
    let mut sqrt_uses = vec![(msrc, 0), (mres, SQRT_LATENCY - 1)];
    sqrt_uses.extend((1..SQRT_LATENCY - 1).map(|t| (divu, t)));
    b.op_alts(
        Opcode::Sqrt,
        SQRT_LATENCY,
        cross_with_fields(
            vec![("multiplier".into(), ReservationTable::new(sqrt_uses))],
            &fields,
        ),
    );

    // Instruction unit.
    b.op_alts(
        Opcode::Branch,
        BRANCH_LATENCY,
        cross_with_fields(
            vec![("instr_unit".into(), ReservationTable::simple(instr))],
            &fields,
        ),
    );

    b.build()
}

/// The same machine as [`cydra`], abstracted with simple reservation tables
/// (each functional unit gets private buses, so every opcode uses one
/// resource for one cycle at issue). Divide and square root remain blocking
/// on the multiplier so the single multiplier is still a genuine bottleneck.
pub fn cydra_simple() -> MachineModel {
    let mut b = MachineBuilder::new("cydra_simple");
    b.register_file(CYDRA_REGISTER_FILE);
    let fields: Vec<_> = (0..ISSUE_WIDTH)
        .map(|k| b.resource(format!("instr_field{k}")))
        .collect();
    let port0 = b.resource("mem_port0");
    let port1 = b.resource("mem_port1");
    let aalu0 = b.resource("addr_alu0");
    let aalu1 = b.resource("addr_alu1");
    let adder = b.resource("adder");
    let mult = b.resource("multiplier");
    let instr = b.resource("instr_unit");

    let two_ports =
        |b: &mut MachineBuilder, fields: &[crate::model::ResourceId], op: Opcode, lat: u32| {
            b.op_alts(
                op,
                lat,
                cross_with_fields(
                    vec![
                        ("mem_port0".into(), ReservationTable::simple(port0)),
                        ("mem_port1".into(), ReservationTable::simple(port1)),
                    ],
                    fields,
                ),
            );
        };
    two_ports(&mut b, &fields, Opcode::Load, LOAD_LATENCY);
    two_ports(&mut b, &fields, Opcode::Store, STORE_LATENCY);
    two_ports(&mut b, &fields, Opcode::PredSet, PRED_LATENCY);
    two_ports(&mut b, &fields, Opcode::PredClear, PRED_LATENCY);

    for addr_op in [Opcode::AddrAdd, Opcode::AddrSub] {
        b.op_alts(
            addr_op,
            ADDR_LATENCY,
            cross_with_fields(
                vec![
                    ("addr_alu0".into(), ReservationTable::simple(aalu0)),
                    ("addr_alu1".into(), ReservationTable::simple(aalu1)),
                ],
                &fields,
            ),
        );
    }
    for add_op in [
        Opcode::Add,
        Opcode::Sub,
        Opcode::Abs,
        Opcode::Min,
        Opcode::Max,
        Opcode::Copy,
    ] {
        b.op_alts(
            add_op,
            ADD_LATENCY,
            cross_with_fields(
                vec![("adder".into(), ReservationTable::simple(adder))],
                &fields,
            ),
        );
    }
    b.op_alts(
        Opcode::Mul,
        MUL_LATENCY,
        cross_with_fields(
            vec![("multiplier".into(), ReservationTable::simple(mult))],
            &fields,
        ),
    );
    // Unpipelined divide/sqrt: block the multiplier.
    b.op_alts(
        Opcode::Div,
        DIV_LATENCY,
        cross_with_fields(
            vec![(
                "multiplier".into(),
                ReservationTable::block(mult, DIV_LATENCY - 2),
            )],
            &fields,
        ),
    );
    b.op_alts(
        Opcode::Sqrt,
        SQRT_LATENCY,
        cross_with_fields(
            vec![(
                "multiplier".into(),
                ReservationTable::block(mult, SQRT_LATENCY - 2),
            )],
            &fields,
        ),
    );
    b.op_alts(
        Opcode::Branch,
        BRANCH_LATENCY,
        cross_with_fields(
            vec![("instr_unit".into(), ReservationTable::simple(instr))],
            &fields,
        ),
    );
    b.build()
}

/// A minimal single-issue machine: one universal unit, unit latency, simple
/// tables. Useful for tests whose answers must be computable by hand.
pub fn minimal() -> MachineModel {
    let mut b = MachineBuilder::new("minimal");
    let u = b.resource("unit");
    for op in Opcode::ALL {
        b.op(op, 1, vec![("unit", ReservationTable::simple(u))]);
    }
    b.build()
}

/// A machine with one ALU (latency 2) shared by everything except memory,
/// and one memory port (latency 3). Small enough for hand-checked resource
/// bounds, but with non-unit latencies.
pub fn single_alu() -> MachineModel {
    let mut b = MachineBuilder::new("single_alu");
    let alu = b.resource("alu");
    let mem = b.resource("mem");
    for op in Opcode::ALL {
        if op.is_mem() {
            b.op(op, 3, vec![("mem", ReservationTable::simple(mem))]);
        } else {
            b.op(op, 2, vec![("alu", ReservationTable::simple(alu))]);
        }
    }
    b.build()
}

/// A `k`-wide homogeneous VLIW: `k` universal units (alternatives), latency
/// 2 everywhere, simple tables. Useful for ablations on machine width.
///
/// # Panics
///
/// Panics if `k` is zero.
pub fn wide(k: usize) -> MachineModel {
    assert!(k > 0, "machine width must be positive");
    let mut b = MachineBuilder::new(format!("wide{k}"));
    let units: Vec<_> = (0..k).map(|i| b.resource(format!("unit{i}"))).collect();
    let names: Vec<String> = (0..k).map(|i| format!("unit{i}")).collect();
    for op in Opcode::ALL {
        let alts: Vec<(&str, ReservationTable)> = units
            .iter()
            .zip(&names)
            .map(|(&u, n)| (n.as_str(), ReservationTable::simple(u)))
            .collect();
        b.op(op, 2, alts);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reservation::TableClass;

    #[test]
    fn cydra_is_complete_and_matches_table_2() {
        let m = cydra();
        assert!(m.is_complete());
        assert_eq!(m.latency(Opcode::Load), 20);
        assert_eq!(m.latency(Opcode::AddrAdd), 3);
        assert_eq!(m.latency(Opcode::Add), 4);
        assert_eq!(m.latency(Opcode::Mul), 5);
        assert_eq!(m.latency(Opcode::Div), 22);
        assert_eq!(m.latency(Opcode::Sqrt), 26);
        // Two memory ports x four instruction fields for loads; one adder
        // x four fields for adds.
        assert_eq!(m.info(Opcode::Load).alternatives.len(), 8);
        assert_eq!(m.info(Opcode::Add).alternatives.len(), 4);
        assert_eq!(m.info(Opcode::AddrAdd).alternatives.len(), 8);
    }

    #[test]
    fn cydra_tables_are_complex() {
        let m = cydra();
        assert_eq!(
            m.info(Opcode::Add).alternatives[0].table.class(),
            TableClass::Complex
        );
        assert_eq!(
            m.info(Opcode::Load).alternatives[0].table.class(),
            TableClass::Complex
        );
        // The adder's pipeline spans several cycles; an address ALU's does
        // not (only its unit and an instruction field at issue).
        assert!(m.info(Opcode::Add).alternatives[0].table.max_offset() >= 3);
        assert_eq!(
            m.info(Opcode::AddrAdd).alternatives[0].table.max_offset(),
            0
        );
    }

    #[test]
    fn figure1_add_after_mul_result_bus_collision() {
        // §2.1: "although a multiply may be issued any number of cycles
        // after an add, an add may not be issued [mul_lat - add_lat] cycles
        // after a multiply since this will result in a collision on the
        // result bus". Holds on the literal Figure 1 machine.
        let m = figure1_machine();
        let add = &m.info(Opcode::Add).alternatives[0].table;
        let mul = &m.info(Opcode::Mul).alternatives[0].table;
        assert!(mul.collides_at(add, 0), "source-bus collision at issue");
        assert!(mul.collides_at(add, 1), "result-bus collision one apart");
        assert!(!mul.collides_at(add, 2));
        assert!(!add.collides_at(mul, 1), "multiply after add is fine");
    }

    #[test]
    fn cydra_has_private_buses() {
        // On the experimental machine an add and a multiply may issue on
        // the same cycle (on different instruction fields) — the FUs do
        // not share buses.
        let m = cydra();
        let add = &m.info(Opcode::Add).alternatives[0].table; // field 0
        let mul = &m.info(Opcode::Mul).alternatives[1].table; // field 1
        assert!(!mul.collides_at(add, 0));
        assert!(!mul.collides_at(add, 1));
        // But a multiply does collide with an in-flight divide's unit use.
        let div = &m.info(Opcode::Div).alternatives[0].table;
        assert!(div.collides_at(div, 1), "divide unit is unpipelined");
    }

    #[test]
    fn issue_width_is_a_real_resource() {
        // Five single-cycle operations cannot share one cycle: only four
        // instruction fields exist. Check via the ResMII-style usage count:
        // every alternative of every opcode claims exactly one field at
        // issue.
        let m = cydra();
        for (op, info) in m.opcodes() {
            for alt in &info.alternatives {
                let fields = alt
                    .table
                    .uses()
                    .iter()
                    .filter(|&&(r, t)| t == 0 && m.resource(r).name.starts_with("instr_field"))
                    .count();
                assert_eq!(fields, 1, "{op} alternative {}", alt.fu);
            }
        }
    }

    #[test]
    fn cydra_simple_abstracts_the_pipelines() {
        let m = cydra_simple();
        assert!(m.is_complete());
        // Everything issues in a single cycle (unit + instruction field)...
        assert_eq!(m.info(Opcode::Add).alternatives[0].table.max_offset(), 0);
        assert_eq!(m.info(Opcode::Load).alternatives[0].table.max_offset(), 0);
        // ...except the unpipelined divide, which blocks the multiplier.
        assert!(m.info(Opcode::Div).alternatives[0].table.max_offset() > 10);
    }

    #[test]
    fn minimal_and_wide_are_complete() {
        assert!(minimal().is_complete());
        assert!(single_alu().is_complete());
        let w = wide(4);
        assert!(w.is_complete());
        assert_eq!(w.info(Opcode::Add).alternatives.len(), 4);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn wide_zero_panics() {
        let _ = wide(0);
    }

    #[test]
    fn register_files_are_declared_on_the_cydra_family() {
        assert_eq!(cydra().register_file(), Some(64));
        assert_eq!(cydra_simple().register_file(), Some(64));
        assert_eq!(figure1_machine().register_file(), Some(64));
        assert_eq!(minimal().register_file(), None);
        assert_eq!(wide(2).register_file(), None);
    }

    #[test]
    fn cydra_rf_shrinks_only_the_register_file() {
        let rf = cydra_rf(16);
        assert_eq!(rf.name(), "cydra_rf16");
        assert_eq!(rf.register_file(), Some(16));
        let base = cydra();
        assert_eq!(rf.num_resources(), base.num_resources());
        for op in Opcode::ALL {
            assert_eq!(rf.latency(op), base.latency(op), "{op}");
            assert_eq!(
                rf.info(op).alternatives.len(),
                base.info(op).alternatives.len(),
                "{op}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "register file size must be positive")]
    fn cydra_rf_zero_panics() {
        let _ = cydra_rf(0);
    }

    #[test]
    fn latencies_match_between_variants() {
        let a = cydra();
        let b = cydra_simple();
        for op in Opcode::ALL {
            assert_eq!(a.latency(op), b.latency(op), "{op}");
        }
    }
}
