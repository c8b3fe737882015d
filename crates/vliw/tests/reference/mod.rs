//! Dependence construction, back-substitution, unrolling, the code
//! generator and the simulators as they stood before the def-site index:
//! every register use resolved by scanning the body, every MVE cycle built
//! by testing every operation, every executed operation looking its
//! latency up in the machine. Copied verbatim, as references for
//! `differential.rs`, apart from the `use` lines and the two calls of the
//! former `LoopBody::def_of`, whose scan of the body is written inline.

#![allow(dead_code)]

pub use codegen::{generate_mve, generate_rotating, lifetimes};
pub use deps::{back_substitute, build_problem, unroll};
pub use vliw::{run_mve, run_overlapped, run_rotating, run_sequential};

mod deps {
    use std::collections::HashMap;

    use ims_core::{Problem, ProblemBuilder};
    use ims_deps::{delay, node_of, BuildOptions, DelayModel};
    use ims_graph::DepKind;
    use ims_ir::{LiveInValue, LoopBody, OpId, Opcode, Operand, RegUse, VReg};
    use ims_machine::MachineModel;

    /// Resolves a register use at operation `at` to `(defining op, iteration
    /// distance)`, or `None` when the register is a pure live-in (defined by no
    /// operation).
    ///
    /// The distance rule is the dynamic-single-assignment positional rule: a
    /// definition strictly earlier in the body is read at distance 0; a
    /// definition at or after the use is the previous iteration's value
    /// (distance 1); [`RegUse::prev`] adds further iterations.
    ///
    /// This is the single source of truth shared by dependence construction,
    /// code generation, and the simulator.
    pub fn resolve_use(body: &LoopBody, at: OpId, u: RegUse) -> Option<(OpId, u32)> {
        body.ops()
            .iter()
            .position(|op| op.dest == Some(u.reg))
            .map(|i| OpId(i as u32))
            .map(|def_id| {
                let positional = if def_id.index() < at.index() { 0 } else { 1 };
                (def_id, positional + u.prev)
            })
    }

    /// Analyzes `body` and produces the modulo-scheduling problem for `machine`.
    ///
    /// See the crate docs for the dependence rules. The body is assumed to be
    /// valid per [`ims_ir::validate::validate`] (the `LoopBuilder` guarantees
    /// this).
    ///
    /// # Panics
    ///
    /// Panics if the machine does not implement an opcode used by the body.
    pub fn build_problem<'m>(
        body: &LoopBody,
        machine: &'m MachineModel,
        options: &BuildOptions,
    ) -> Problem<'m> {
        let mut pb = ProblemBuilder::new(machine);
        for (id, op) in body.iter() {
            let n = pb.add_op(op.opcode, id);
            debug_assert_eq!(n, node_of(id));
        }

        let lat = |op: OpId| machine.latency(body.op(op).opcode) as i64;
        let model = options.delay_model;

        // Register and predicate dependences.
        for (use_id, op) in body.iter() {
            let mut add_use = |u: RegUse, kind: DepKind| {
                if let Some((def_id, distance)) = resolve_use(body, use_id, u) {
                    let d = delay(kind, lat(def_id), lat(use_id), model);
                    pb.add_dep(node_of(def_id), node_of(use_id), d, distance, kind, false);
                }
                // Pure live-ins have no defining operation and hence no edge.
            };
            for s in &op.srcs {
                if let Some(u) = s.as_reg() {
                    add_use(u, DepKind::Flow);
                }
            }
            if let Some(p) = op.pred {
                add_use(p, DepKind::Control);
            }
        }

        // Memory dependences: every (earlier, later) pair with at least one
        // store, including an op against itself across iterations.
        let mem_ops: Vec<OpId> = body
            .iter()
            .filter(|(_, op)| op.opcode.is_mem())
            .map(|(id, _)| id)
            .collect();
        for (x, &i) in mem_ops.iter().enumerate() {
            for &j in &mem_ops[x..] {
                let oi = body.op(i);
                let oj = body.op(j);
                let i_store = oi.opcode == Opcode::Store;
                let j_store = oj.opcode == Opcode::Store;
                if !i_store && !j_store {
                    continue;
                }
                let kind_fwd = mem_dep_kind(i_store, j_store);
                match (oi.mem, oj.mem) {
                    (Some(a), Some(b)) if a.array == b.array && a.stride == b.stride => {
                        let s = a.stride;
                        if s == 0 {
                            if a.offset == b.offset {
                                // Same element every iteration.
                                conservative_pair(&mut pb, body, machine, model, i, j);
                            }
                        } else {
                            let diff = a.offset - b.offset;
                            if diff.rem_euclid(s) == 0 {
                                // op_i at iteration x touches what op_j touches
                                // at iteration x + d.
                                let d = diff / s;
                                if d > 0 {
                                    let dl = delay(kind_fwd, lat(i), lat(j), model);
                                    pb.add_dep(
                                        node_of(i),
                                        node_of(j),
                                        dl,
                                        d as u32,
                                        kind_fwd,
                                        true,
                                    );
                                } else if d < 0 {
                                    if i != j {
                                        let kind_rev = mem_dep_kind(j_store, i_store);
                                        let dl = delay(kind_rev, lat(j), lat(i), model);
                                        pb.add_dep(
                                            node_of(j),
                                            node_of(i),
                                            dl,
                                            (-d) as u32,
                                            kind_rev,
                                            true,
                                        );
                                    }
                                    // d < 0 with i == j cannot happen (diff = 0).
                                } else if i != j {
                                    // Same iteration: order by body position.
                                    let dl = delay(kind_fwd, lat(i), lat(j), model);
                                    pb.add_dep(node_of(i), node_of(j), dl, 0, kind_fwd, true);
                                }
                            }
                        }
                    }
                    (Some(a), Some(b)) if a.array != b.array => {
                        // Distinct arrays never alias: no dependence.
                    }
                    _ => {
                        // Unknown or stride-mismatched accesses: assume aliasing.
                        conservative_pair(&mut pb, body, machine, model, i, j);
                    }
                }
            }
        }

        pb.finish()
    }

    fn mem_dep_kind(pred_is_store: bool, succ_is_store: bool) -> DepKind {
        match (pred_is_store, succ_is_store) {
            (true, true) => DepKind::Output,
            (true, false) => DepKind::Flow,
            (false, true) => DepKind::Anti,
            (false, false) => unreachable!("load-load pairs are filtered out"),
        }
    }

    /// Conservative aliasing: `i` before `j` in the same iteration (distance 0,
    /// skipped when `i == j`) and `j` before next iteration's `i` (distance 1).
    fn conservative_pair(
        pb: &mut ProblemBuilder<'_>,
        body: &LoopBody,
        machine: &MachineModel,
        model: DelayModel,
        i: OpId,
        j: OpId,
    ) {
        let lat = |op: OpId| machine.latency(body.op(op).opcode) as i64;
        let i_store = body.op(i).opcode == Opcode::Store;
        let j_store = body.op(j).opcode == Opcode::Store;
        if i != j {
            let kf = mem_dep_kind(i_store, j_store);
            pb.add_dep(
                node_of(i),
                node_of(j),
                delay(kf, lat(i), lat(j), model),
                0,
                kf,
                true,
            );
        }
        let kr = mem_dep_kind(j_store, i_store);
        pb.add_dep(
            node_of(j),
            node_of(i),
            delay(kr, lat(j), lat(i), model),
            1,
            kr,
            true,
        );
    }

    /// Applies back-substitution to every eligible simple induction update in
    /// `body`, returning the transformed body (or the original if nothing was
    /// eligible).
    ///
    /// An operation is eligible when it is:
    ///
    /// * an `AddrAdd`/`AddrSub` whose destination equals its first source at
    ///   positional distance 1 (the plain `p = p ± c` induction idiom),
    /// * with an integer-immediate step, and
    /// * its register's lag-1 live-in is a constant integer or an array base
    ///   (so the pre-loop lags can be computed statically).
    ///
    /// The substitution depth is the operation's latency on `machine`, making
    /// the rewritten self-circuit constrain `II ≥ 1` only.
    pub fn back_substitute(body: &LoopBody, machine: &MachineModel) -> LoopBody {
        let mut out = body.clone();
        let mut new_lags: Vec<(ims_ir::VReg, u32, LiveInValue)> = Vec::new();

        for (id, op) in body.iter() {
            if !matches!(op.opcode, Opcode::AddrAdd | Opcode::AddrSub) {
                continue;
            }
            let Some(dest) = op.dest else { continue };
            let Some(u) = op.srcs[0].as_reg() else {
                continue;
            };
            if u.reg != dest || u.prev != 0 {
                continue;
            }
            // Positional distance must be exactly 1 (the def reads itself).
            let Some((def, 1)) = resolve_use(body, id, u) else {
                continue;
            };
            debug_assert_eq!(def, id, "single assignment");
            let Operand::ImmInt(step_mag) = op.srcs[1] else {
                continue;
            };
            let step = if op.opcode == Opcode::AddrSub {
                -step_mag
            } else {
                step_mag
            };
            // Seedable initial value?
            let Some(init) = body.live_in_value(dest, 1) else {
                continue;
            };
            let seed = |lag: u32| -> Option<LiveInValue> {
                let delta = (lag as i64 - 1) * step;
                match init {
                    LiveInValue::Const(ims_ir::Value::Int(x)) => {
                        Some(LiveInValue::Const(ims_ir::Value::Int(x - delta)))
                    }
                    LiveInValue::ArrayBase { array, offset } => Some(LiveInValue::ArrayBase {
                        array,
                        offset: offset - delta,
                    }),
                    _ => None,
                }
            };
            let k = machine.latency(op.opcode);
            if k <= 1 {
                continue; // Already unconstraining.
            }
            if (2..=k).any(|lag| seed(lag).is_none()) {
                continue;
            }

            // Rewrite: p = p[-K] + K·c (express the extra depth via `prev`).
            let new_op = out.op_mut(id);
            new_op.srcs[0] = Operand::Reg(ims_ir::RegUse::back(dest, k - 1));
            new_op.srcs[1] = Operand::ImmInt(step_mag * k as i64);
            for lag in 2..=k {
                new_lags.push((dest, lag, seed(lag).expect("checked above")));
            }
        }

        for (reg, lag, value) in new_lags {
            out.add_live_in_lag(reg, lag, value);
        }
        out
    }

    /// Unrolls `body` by `factor`, returning a new loop body whose single
    /// iteration performs `factor` original iterations.
    ///
    /// The unrolled body keeps one loop-closing branch (the last copy's); the
    /// other copies' branches are dropped, which is what an unroller's
    /// iteration-count rewrite does. The trip count becomes
    /// `trip_count / factor` (the caller is responsible for remainder
    /// iterations; for scheduling-cost analysis the remainder is irrelevant).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn unroll(body: &LoopBody, factor: u32) -> LoopBody {
        assert!(factor >= 1, "unroll factor must be at least 1");
        let u = factor;
        let mut out = LoopBody::new(
            format!("{}_x{}", body.name(), u),
            (body.trip_count() / u).max(1),
        );
        for a in body.arrays() {
            out.add_array(a.name.clone(), a.len);
        }

        // Register maps: defined registers get one fresh name per copy; pure
        // live-ins are shared across copies.
        let mut defined_map: HashMap<(u32, VReg), VReg> = HashMap::new();
        let mut shared_map: HashMap<VReg, VReg> = HashMap::new();
        for (_, op) in body.iter() {
            if let Some(d) = op.dest {
                for k in 0..u {
                    defined_map.insert((k, d), out.new_vreg());
                }
            }
        }
        let mut shared = |out: &mut LoopBody, v: VReg| -> VReg {
            *shared_map.entry(v).or_insert_with(|| out.new_vreg())
        };

        // Max original lag per register, to size the live-in seeding below.
        let mut max_lag: HashMap<VReg, u32> = HashMap::new();
        for (id, op) in body.iter() {
            for use_ in op.reg_uses() {
                if let Some((_, d)) = resolve_use(body, id, use_) {
                    let e = max_lag.entry(use_.reg).or_insert(0);
                    *e = (*e).max(d);
                }
            }
        }

        // Emit the copies.
        for k in 0..u {
            for (id, op) in body.iter() {
                if op.opcode == Opcode::Branch && k != u - 1 {
                    continue; // Only the last copy closes the loop.
                }
                let mut new_op = op.clone();
                new_op.dest = op.dest.map(|d| defined_map[&(k, d)]);
                if let Some(m) = op.mem {
                    new_op.mem = Some(ims_ir::MemRef::new(
                        m.array,
                        m.offset + m.stride * k as i64,
                        m.stride * u as i64,
                    ));
                }
                let mut remap = |out: &mut LoopBody, use_: RegUse| -> RegUse {
                    match resolve_use(body, id, use_) {
                        None => RegUse::new(shared(out, use_.reg)),
                        Some((def_id, d)) => {
                            // Source instance: copy r, `q` unrolled iterations
                            // back.
                            let t = k as i64 - d as i64;
                            let r = t.rem_euclid(u as i64) as u32;
                            let q = ((r as i64 - t) / u as i64) as u32;
                            // Positional distance of the renamed use: 1 when
                            // the def copy comes at/after this use in the new
                            // body order.
                            let positional = match r.cmp(&k) {
                                std::cmp::Ordering::Less => 0,
                                std::cmp::Ordering::Greater => 1,
                                std::cmp::Ordering::Equal => {
                                    u32::from(def_id.index() >= id.index())
                                }
                            };
                            debug_assert!(q >= positional, "distance arithmetic is consistent");
                            RegUse::back(defined_map[&(r, use_.reg)], q - positional)
                        }
                    }
                };
                for s in &mut new_op.srcs {
                    if let Operand::Reg(use_) = s {
                        *s = Operand::Reg(remap(&mut out, *use_));
                    }
                }
                if let Some(p) = op.pred {
                    new_op.pred = Some(remap(&mut out, p));
                }
                out.push(new_op);
            }
        }

        // Live-in seeding. Instance (unrolled -L, copy r) is original global
        // iteration -(L·u - r), i.e. original lag L·u - r; bind enough lags to
        // cover every read.
        let mut bound: Vec<(VReg, u32)> = Vec::new();
        for li in body.live_ins() {
            if li.lag != 1 {
                continue; // Handled through live_in_value's lag lookup below.
            }
            if body
                .ops()
                .iter()
                .position(|op| op.dest == Some(li.reg))
                .is_none()
            {
                if let Some(&nv) = shared_map.get(&li.reg) {
                    out.add_live_in(nv, li.value);
                }
                continue;
            }
            let deepest = max_lag.get(&li.reg).copied().unwrap_or(1).max(1);
            for r in 0..u {
                let nv = defined_map[&(r, li.reg)];
                let max_l = deepest / u + 2;
                for l in 1..=max_l {
                    let orig_lag = l * u - r;
                    if orig_lag == 0 {
                        continue;
                    }
                    if let Some(v) = body.live_in_value(li.reg, orig_lag) {
                        if !bound.contains(&(nv, l)) {
                            bound.push((nv, l));
                            out.add_live_in_lag(nv, l, v);
                        }
                    }
                }
            }
        }
        out
    }
}

mod codegen {
    use std::collections::HashMap;

    use ims_codegen::code::Seed;
    use ims_codegen::{
        unroll_factor, CodeOperand, CodeReg, Inst, Lifetime, MveCode, RotatingAllocation,
        RotatingCode, RotatingError, SlotOp,
    };
    use ims_core::{Problem, Schedule};
    use ims_deps::node_of;
    use ims_ir::{LoopBody, OpId, Operand, VReg};

    use super::deps::resolve_use;

    /// Computes the lifetime of every register defined in the body, under the
    /// given schedule. Registers with no defining operation (pure live-ins) get
    /// no entry.
    pub fn lifetimes(body: &LoopBody, problem: &Problem<'_>, schedule: &Schedule) -> Vec<Lifetime> {
        let mut out = Vec::new();
        for (def_id, def_op) in body.iter() {
            let Some(reg) = def_op.dest else { continue };
            let def_issue = schedule.time_of(node_of(def_id));
            let birth = def_issue + problem.latency(node_of(def_id));
            let mut death = birth;
            for (use_id, use_op) in body.iter() {
                for u in use_op.reg_uses() {
                    if u.reg != reg {
                        continue;
                    }
                    if let Some((d, distance)) = resolve_use(body, use_id, u) {
                        debug_assert_eq!(d, def_id, "single assignment: one def per register");
                        let read =
                            schedule.time_of(node_of(use_id)) + schedule.ii * distance as i64;
                        death = death.max(read);
                    }
                }
            }
            out.push(Lifetime {
                reg,
                def_issue,
                birth,
                death,
                names: unroll_factor(birth, death, schedule.ii),
            });
        }
        out
    }

    /// The MVE register map: every defined register gets `k` names (cycled by
    /// iteration index), every pure live-in gets one.
    struct MveRegs {
        /// First name of each defined register's group.
        base: Vec<Option<usize>>,
        /// The single name of each pure live-in register.
        static_of: Vec<Option<usize>>,
        /// Names per defined register (the uniform unroll factor `K`).
        k: u32,
        /// Total names allocated.
        total: usize,
    }

    impl MveRegs {
        fn build(body: &LoopBody, k: u32) -> Self {
            let nv = body.num_vregs();
            let mut base = vec![None; nv];
            let mut static_of = vec![None; nv];
            let mut next = 0usize;
            for (_, op) in body.iter() {
                if let Some(d) = op.dest {
                    if base[d.index()].is_none() {
                        base[d.index()] = Some(next);
                        next += k as usize;
                    }
                }
            }
            for li in body.live_ins() {
                if base[li.reg.index()].is_none() && static_of[li.reg.index()].is_none() {
                    static_of[li.reg.index()] = Some(next);
                    next += 1;
                }
            }
            MveRegs {
                base,
                static_of,
                k,
                total: next,
            }
        }

        /// The name holding `reg`'s value from iteration `iter` (negative
        /// iterations wrap onto the seeded names).
        fn name(&self, reg: VReg, iter: i64) -> CodeReg {
            if let Some(b) = self.base[reg.index()] {
                CodeReg::Static(b + iter.rem_euclid(self.k as i64) as usize)
            } else {
                CodeReg::Static(
                    self.static_of[reg.index()]
                        .expect("validated bodies only use defined or live-in registers"),
                )
            }
        }
    }

    /// Generates modulo-variable-expanded code for the body's trip count.
    ///
    /// The kernel is the steady-state window `[(SC−1)·II, (SC−1+K)·II)` of the
    /// flat schedule, which repeats exactly every `K·II` cycles because all
    /// register names cycle with period `K`. Trip counts too short for a full
    /// kernel repetition (`n < SC + K − 1`) are emitted entirely flat
    /// (prologue only), which is what a compiler's short-trip-count fallback
    /// does.
    ///
    /// # Panics
    ///
    /// Panics if `lifetimes` was computed for a different schedule (detected
    /// via inconsistent unroll factors).
    pub fn generate_mve(
        body: &LoopBody,
        problem: &Problem<'_>,
        schedule: &Schedule,
        lifetimes: &[Lifetime],
    ) -> MveCode {
        let _ = problem; // latencies are already folded into `lifetimes`
        let ii = schedule.ii;
        let n = body.trip_count() as i64;
        let max_t = body
            .iter()
            .map(|(id, _)| schedule.time_of(node_of(id)))
            .max()
            .unwrap_or(0);
        let stage_count = (max_t / ii + 1) as u32;
        // The unroll factor covers both value lifetimes and the deepest
        // loop-carried lag (pre-loop seeds of lag j live in name (-j mod K) and
        // must survive until their last read, about `maxlag` iterations in).
        let max_lag = body
            .iter()
            .flat_map(|(id, op)| {
                op.reg_uses()
                    .filter_map(move |u| resolve_use(body, id, u).map(|(_, d)| d))
            })
            .max()
            .unwrap_or(0);
        let k = lifetimes
            .iter()
            .map(|l| l.names)
            .max()
            .unwrap_or(1)
            .max(max_lag + 1)
            .max(1);
        let regs = MveRegs::build(body, k);

        let flat_end = if body.num_ops() == 0 {
            0
        } else {
            (n - 1) * ii + max_t + 1
        };
        let prologue_end = (stage_count as i64 - 1) * ii;

        let emit = |c: i64| -> Inst {
            let mut ops = Vec::new();
            for (id, op) in body.iter() {
                let t = schedule.time_of(node_of(id));
                if (c - t) % ii != 0 {
                    continue;
                }
                let i = (c - t) / ii;
                if i < 0 || i >= n {
                    continue;
                }
                ops.push(rename(body, regs_ref(&regs), id, op, i, t, ii));
            }
            Inst { ops }
        };

        let (prologue, kernel, kernel_reps, coda);
        if body.num_ops() > 0 && n >= stage_count as i64 + k as i64 - 1 {
            prologue = (0..prologue_end).map(emit).collect();
            kernel = (prologue_end..prologue_end + k as i64 * ii)
                .map(emit)
                .collect();
            let steady_iters = n - stage_count as i64 + 1;
            let reps = (steady_iters / k as i64) as u64;
            kernel_reps = reps;
            let coda_start = prologue_end + reps as i64 * k as i64 * ii;
            coda = (coda_start..flat_end).map(emit).collect();
        } else {
            prologue = (0..flat_end).map(emit).collect();
            kernel = Vec::new();
            kernel_reps = 0;
            coda = Vec::new();
        }

        // Seeds. Defined live-ins preload all K names: the name holding the
        // pre-loop instance of lag j is name(reg, -j), seeded with the
        // register's lag-j live-in value (explicit per-lag bindings come from
        // recurrence back-substitution; other lags fall back to the lag-1
        // value). Pure live-ins preload their single name.
        let mut seeds = Vec::new();
        let mut seeded: Vec<bool> = vec![false; body.num_vregs()];
        for li in body.live_ins() {
            if seeded[li.reg.index()] {
                continue;
            }
            seeded[li.reg.index()] = true;
            if regs.base[li.reg.index()].is_some() {
                for j in 1..=k {
                    if let Some(value) = body.live_in_value(li.reg, j) {
                        if let CodeReg::Static(name) = regs.name(li.reg, -(j as i64)) {
                            seeds.push(Seed {
                                reg: CodeReg::Static(name),
                                value,
                            });
                        }
                    }
                }
            } else if let Some(s) = regs.static_of[li.reg.index()] {
                seeds.push(Seed {
                    reg: CodeReg::Static(s),
                    value: body.live_in_value(li.reg, 1).unwrap_or(li.value),
                });
            }
        }

        MveCode {
            ii,
            stage_count,
            unroll: k,
            prologue,
            kernel,
            kernel_reps,
            coda,
            num_static_regs: regs.total,
            seeds,
        }
    }

    // Helper to appease the closure borrow (the emit closure only needs a
    // shared reference to the register map).
    fn regs_ref(r: &MveRegs) -> &MveRegs {
        r
    }

    fn rename(
        body: &LoopBody,
        regs: &MveRegs,
        id: OpId,
        op: &ims_ir::Operation,
        iter: i64,
        issue: i64,
        ii: i64,
    ) -> SlotOp {
        let mut srcs = Vec::with_capacity(op.srcs.len());
        for s in &op.srcs {
            srcs.push(match s {
                Operand::ImmInt(v) => CodeOperand::ImmInt(*v),
                Operand::ImmFloat(v) => CodeOperand::ImmFloat(*v),
                Operand::Reg(u) => {
                    let d = resolve_use(body, id, *u).map(|(_, d)| d).unwrap_or(0);
                    CodeOperand::Reg(regs.name(u.reg, iter - d as i64))
                }
            });
        }
        let pred = op.pred.map(|u| {
            let d = resolve_use(body, id, u).map(|(_, d)| d).unwrap_or(0);
            regs.name(u.reg, iter - d as i64)
        });
        SlotOp {
            op: id,
            stage: (issue / ii) as u32,
            dest: op.dest.map(|d| regs.name(d, iter)),
            srcs,
            pred,
        }
    }

    /// Allocates rotating bases with a phase-ordered rule. With registers
    /// `v₁ … vₘ` (in definition order), on any physical register the writers
    /// occur in that cyclic order, `gapⱼ` iterations apart. Because values are
    /// born at different cycles *within* an iteration, the gap between
    /// consecutive writers must account for actual birth times:
    ///
    /// ```text
    /// gapⱼ = max(1, ⌊(death(vⱼ) − birth(vⱼ₊₁)) / II⌋ + 1)
    /// ```
    ///
    /// so that `vⱼ₊₁`'s write, `gapⱼ` iterations later, commits strictly after
    /// `vⱼ`'s last read. Non-adjacent pairs are then safe by induction (the
    /// sub-additivity of `⌊·⌋` — see the brute-force check in the tests). The
    /// file size is `Σ gapⱼ`, and `base(vⱼ) = (S − Σ_{u<j} gapᵤ) mod S`.
    pub fn allocate_rotating(
        body: &LoopBody,
        lifetimes: &[Lifetime],
        ii: i64,
    ) -> RotatingAllocation {
        assert!(ii >= 1, "II must be positive");
        let nv = body.num_vregs();
        let life: HashMap<VReg, &Lifetime> = lifetimes.iter().map(|l| (l.reg, l)).collect();
        let mut base = vec![None; nv];
        let mut static_of = vec![None; nv];

        let defined: Vec<VReg> = body.iter().filter_map(|(_, op)| op.dest).collect();
        let gaps: Vec<usize> = defined
            .iter()
            .enumerate()
            .map(|(j, v)| {
                let next = defined[(j + 1) % defined.len()];
                let base = match (life.get(v), life.get(&next)) {
                    (Some(lv), Some(ln)) => {
                        ((lv.death - ln.birth).div_euclid(ii) + 1).max(1) as usize
                    }
                    _ => 1,
                };
                // Seeded registers need their pre-loop instances (physical
                // base − 1 … base − maxlag) to survive until read in the first
                // iterations; widen the gap to cover the deepest lag.
                let lag_floor = if body.is_live_in(*v) {
                    max_lag_of(body, *v) as usize + 1
                } else {
                    0
                };
                base.max(lag_floor)
            })
            .collect();
        let size: usize = gaps.iter().sum::<usize>().max(1);
        let mut prefix = 0usize;
        for (j, v) in defined.iter().enumerate() {
            base[v.index()] = Some((size - prefix % size) % size);
            prefix += gaps[j];
        }

        let mut num_static = 0usize;
        for li in body.live_ins() {
            if base[li.reg.index()].is_none() && static_of[li.reg.index()].is_none() {
                static_of[li.reg.index()] = Some(num_static);
                num_static += 1;
            }
        }

        RotatingAllocation {
            size,
            base,
            static_of,
            num_static,
        }
    }

    /// Generates kernel-only rotating code for the body's trip count.
    ///
    /// # Errors
    ///
    /// Returns [`RotatingError::SeedConflict`] when pre-loop seeding of
    /// loop-carried initial values is ambiguous; callers should fall back to
    /// [`crate::generate_mve`].
    pub fn generate_rotating(
        body: &LoopBody,
        problem: &Problem<'_>,
        schedule: &Schedule,
        lifetimes: &[Lifetime],
    ) -> Result<RotatingCode, RotatingError> {
        let _ = problem; // reserved for future latency-aware seeding
        let ii = schedule.ii;
        let alloc = allocate_rotating(body, lifetimes, schedule.ii);
        let n = body.trip_count() as i64;
        let max_t = body
            .iter()
            .map(|(id, _)| schedule.time_of(node_of(id)))
            .max()
            .unwrap_or(0);
        let stage_count = (max_t / ii + 1) as u32;

        // Encode each operation once. An instance on pass p belongs to
        // iteration i = p − stage; the rotating base advances by one per pass,
        // so the offset that yields physical (base(v) + i) mod S is
        // (base(v) − stage − lag) mod S.
        let offset = |reg: VReg, stage: i64, lag: i64| -> CodeReg {
            match alloc.base[reg.index()] {
                Some(b) => CodeReg::Rotating(
                    (b as i64 - stage - lag).rem_euclid(alloc.size as i64) as usize,
                ),
                None => CodeReg::Static(
                    alloc.static_of[reg.index()]
                        .expect("validated bodies only use defined or live-in registers"),
                ),
            }
        };

        let mut kernel: Vec<Inst> = (0..ii).map(|_| Inst::default()).collect();
        for (id, op) in body.iter() {
            let t = schedule.time_of(node_of(id));
            let stage = t / ii;
            let slot = (t % ii) as usize;
            let mut srcs = Vec::with_capacity(op.srcs.len());
            for s in &op.srcs {
                srcs.push(match s {
                    Operand::ImmInt(v) => CodeOperand::ImmInt(*v),
                    Operand::ImmFloat(v) => CodeOperand::ImmFloat(*v),
                    Operand::Reg(u) => {
                        let d = resolve_use(body, id, *u).map(|(_, d)| d).unwrap_or(0);
                        CodeOperand::Reg(offset(u.reg, stage, d as i64))
                    }
                });
            }
            let pred = op.pred.map(|u| {
                let d = resolve_use(body, id, u).map(|(_, d)| d).unwrap_or(0);
                offset(u.reg, stage, d as i64)
            });
            kernel[slot].ops.push(SlotOp {
                op: id,
                stage: stage as u32,
                dest: op.dest.map(|dreg| offset(dreg, stage, 0)),
                srcs,
                pred,
            });
        }

        // Seeds. Loop-carried reads of iterations before 0 land on physical
        // registers (base(v) + negative) mod S at pass 0; preload each with the
        // register's lag-specific live-in value (explicit per-lag bindings come
        // from recurrence back-substitution; other lags fall back to lag 1).
        let mut rot_seeds: HashMap<usize, ims_ir::LiveInValue> = HashMap::new();
        let mut seeded: Vec<bool> = vec![false; body.num_vregs()];
        for li in body.live_ins() {
            if alloc.base[li.reg.index()].is_none() || seeded[li.reg.index()] {
                continue;
            }
            seeded[li.reg.index()] = true;
            let max_lag = max_lag_of(body, li.reg);
            for lag in 1..=max_lag {
                let value = body
                    .live_in_value(li.reg, lag)
                    .expect("live-in registers always have a lag-1 binding");
                let phys = alloc.physical(li.reg, -(lag as i64));
                match rot_seeds.get(&phys) {
                    Some(existing) if *existing != value => {
                        return Err(RotatingError::SeedConflict { phys });
                    }
                    _ => {
                        rot_seeds.insert(phys, value);
                    }
                }
            }
        }
        let mut seeds: Vec<Seed> = rot_seeds
            .into_iter()
            .map(|(phys, value)| Seed {
                reg: CodeReg::Rotating(phys),
                value,
            })
            .collect();
        let mut static_seeded: Vec<bool> = vec![false; body.num_vregs()];
        for li in body.live_ins() {
            if let Some(st) = alloc.static_of[li.reg.index()] {
                if !static_seeded[li.reg.index()] {
                    static_seeded[li.reg.index()] = true;
                    seeds.push(Seed {
                        reg: CodeReg::Static(st),
                        value: body.live_in_value(li.reg, 1).unwrap_or(li.value),
                    });
                }
            }
        }
        seeds.sort_by_key(|s| match s.reg {
            CodeReg::Static(i) => (0, i),
            CodeReg::Rotating(i) => (1, i),
        });

        Ok(RotatingCode {
            ii,
            stage_count,
            kernel,
            passes: (n + stage_count as i64 - 1) as u64,
            rotating_size: alloc.size,
            num_static_regs: alloc.num_static,
            seeds,
        })
    }

    /// The largest iteration lag at which `reg` is read.
    fn max_lag_of(body: &LoopBody, reg: VReg) -> u32 {
        let mut max_lag = 0;
        for (use_id, op) in body.iter() {
            for u in op.reg_uses() {
                if u.reg == reg {
                    if let Some((_, d)) = resolve_use(body, use_id, u) {
                        max_lag = max_lag.max(d);
                    }
                }
            }
        }
        max_lag
    }
}

mod vliw {
    use std::collections::BTreeMap;

    use ims_codegen::{CodeOperand, CodeReg, Inst, MveCode, RotatingCode, SlotOp};
    use ims_core::{Problem, Schedule};
    use ims_deps::node_of;
    use ims_ir::{eval, LoopBody, OpId, Opcode, Operand, Value};
    use ims_vliw::{ExecResult, MemoryImage, SimError};

    use super::deps::resolve_use;

    /// Resolves a lag-aware live-in against a memory layout snapshot.
    fn memory_live_in(
        body: &LoopBody,
        layout: &MemoryImage,
        reg: ims_ir::VReg,
        lag: u32,
    ) -> Option<Value> {
        layout.live_in_lag(body, reg, lag)
    }

    /// Runs `body` for its trip count, one iteration at a time, with no timing
    /// model. This is the semantic ground truth the pipelined executions are
    /// compared against.
    ///
    /// Expanded-virtual-register semantics: every `(iteration, register)` pair
    /// is a distinct storage location, so loop-carried reads reference exactly
    /// the iteration the dependence analyzer resolves them to. A read of an
    /// instance whose definition was predicated off falls back to the most
    /// recent earlier instance (registers keep their value when a predicated
    /// write is squashed), then to the live-in value.
    ///
    /// # Errors
    ///
    /// See [`SimError`]; this mode cannot produce
    /// [`SimError::ReadBeforeReady`].
    pub fn run_sequential(body: &LoopBody, memory: MemoryImage) -> Result<ExecResult, SimError> {
        let n = body.trip_count() as usize;
        let nv = body.num_vregs();
        let live_in = memory.live_in_values(body);
        let live_in_seed = memory.clone();
        // history[iter][vreg]: the value written by that iteration's instance.
        let mut history: Vec<Vec<Option<Value>>> = vec![vec![None; nv]; n];
        let mut memory = memory;

        let read = |history: &[Vec<Option<Value>>],
                    at: OpId,
                    u: ims_ir::RegUse,
                    iter: usize|
         -> Result<Value, SimError> {
            match resolve_use(body, at, u) {
                None => memory_live_in(body, &live_in_seed, u.reg, 1 + u.prev)
                    .ok_or(SimError::UnwrittenRead { op: at }),
                Some((_, d)) => {
                    let target = iter as i64 - d as i64;
                    if target < 0 {
                        // A pre-loop instance: the per-lag live-in seed.
                        return memory_live_in(body, &live_in_seed, u.reg, (-target) as u32)
                            .ok_or(SimError::UnwrittenRead { op: at });
                    }
                    // Walk back over squashed (predicated-off) instances.
                    let mut j = target;
                    while j >= 0 {
                        if let Some(v) = history[j as usize][u.reg.index()] {
                            return Ok(v);
                        }
                        j -= 1;
                    }
                    memory_live_in(body, &live_in_seed, u.reg, 1)
                        .ok_or(SimError::UnwrittenRead { op: at })
                }
            }
        };

        for iter in 0..n {
            for (id, op) in body.iter() {
                // Guarding predicate.
                if let Some(p) = op.pred {
                    let pv = read(&history, id, p, iter)?;
                    if !pv.truthy() {
                        continue;
                    }
                }
                let mut srcs = Vec::with_capacity(op.srcs.len());
                for s in &op.srcs {
                    srcs.push(match s {
                        Operand::ImmInt(v) => Value::Int(*v),
                        Operand::ImmFloat(v) => Value::Float(*v),
                        Operand::Reg(u) => read(&history, id, *u, iter)?,
                    });
                }
                match op.opcode {
                    Opcode::Load => {
                        let addr = srcs[0]
                            .as_int()
                            .ok_or(SimError::BadAddressType { op: id })?;
                        let v = memory.read(id, addr)?;
                        history[iter][op.dest.expect("loads have destinations").index()] = Some(v);
                    }
                    Opcode::Store => {
                        let addr = srcs[0]
                            .as_int()
                            .ok_or(SimError::BadAddressType { op: id })?;
                        memory.write(id, addr, srcs[1])?;
                    }
                    Opcode::Branch => {
                        // DO-loop semantics: the trip count drives execution.
                    }
                    _ => {
                        let v = eval::apply(op.opcode, op.cmp, &srcs)?;
                        history[iter][op.dest.expect("value ops have destinations").index()] =
                            Some(v);
                    }
                }
            }
        }

        // Final register values: most recent executed definition, else live-in.
        let mut final_regs = vec![None; nv];
        for r in 0..nv {
            for iter in (0..n).rev() {
                if history[iter][r].is_some() {
                    final_regs[r] = history[iter][r];
                    break;
                }
            }
            if final_regs[r].is_none() {
                final_regs[r] = live_in[r];
            }
        }

        Ok(ExecResult {
            memory,
            final_regs,
            cycles: 0,
        })
    }

    /// A register cell with NUAL visibility: a write commits (becomes
    /// architecturally visible) at its `avail` cycle. Several writes to the
    /// same physical register can be in flight at once (latencies up to 26
    /// cycles versus IIs of a few), so the cell keeps the commit-ordered
    /// history of uncommitted writes plus the last committed value; a read
    /// returns the most recently committed write, and errors if the register
    /// has only uncommitted contents (hardware would return garbage).
    #[derive(Debug, Clone, Default)]
    struct Cell {
        /// `(avail, value)` sorted by `avail`; pruned to the last committed
        /// entry plus everything still in flight.
        writes: Vec<(i64, Value)>,
    }

    impl Cell {
        fn read(&self, op: ims_ir::OpId, cycle: i64) -> Result<Value, SimError> {
            if self.writes.is_empty() {
                return Err(SimError::UnwrittenRead { op });
            }
            match self.writes.iter().rev().find(|&&(a, _)| a <= cycle) {
                Some(&(_, v)) => Ok(v),
                None => Err(SimError::ReadBeforeReady {
                    op,
                    cycle,
                    available: self.writes[0].0,
                }),
            }
        }

        fn write(&mut self, avail: i64, value: Value, now: i64) {
            let pos = self.writes.partition_point(|&(a, _)| a <= avail);
            self.writes.insert(pos, (avail, value));
            // Prune: keep the latest committed entry and all in-flight ones.
            let committed = self.writes.partition_point(|&(a, _)| a <= now);
            if committed > 1 {
                self.writes.drain(..committed - 1);
            }
        }
    }

    #[derive(Debug)]
    struct CodeState {
        statics: Vec<Cell>,
        rotating: Vec<Cell>,
        memory: MemoryImage,
        pending_stores: BTreeMap<i64, Vec<(ims_ir::OpId, i64, Value)>>,
    }

    impl CodeState {
        fn resolve(&self, reg: CodeReg, pass: i64) -> (bool, usize) {
            match reg {
                CodeReg::Static(i) => (false, i),
                CodeReg::Rotating(off) => {
                    let s = self.rotating.len().max(1) as i64;
                    (true, (off as i64 + pass).rem_euclid(s) as usize)
                }
            }
        }

        fn read(
            &self,
            op: ims_ir::OpId,
            reg: CodeReg,
            pass: i64,
            cycle: i64,
        ) -> Result<Value, SimError> {
            let (rot, idx) = self.resolve(reg, pass);
            let cell = if rot {
                &self.rotating[idx]
            } else {
                &self.statics[idx]
            };
            cell.read(op, cycle)
        }

        fn write(&mut self, reg: CodeReg, pass: i64, avail: i64, cycle: i64, value: Value) {
            let (rot, idx) = self.resolve(reg, pass);
            let slot = if rot {
                &mut self.rotating[idx]
            } else {
                &mut self.statics[idx]
            };
            slot.write(avail, value, cycle);
        }

        fn commit_stores(&mut self, cycle: i64) -> Result<(), SimError> {
            let due: Vec<i64> = self
                .pending_stores
                .range(..=cycle)
                .map(|(c, _)| *c)
                .collect();
            for c in due {
                for (op, addr, v) in self.pending_stores.remove(&c).expect("key observed") {
                    self.memory.write(op, addr, v)?;
                }
            }
            Ok(())
        }

        fn exec(
            &mut self,
            body: &LoopBody,
            machine: &ims_machine::MachineModel,
            slot: &SlotOp,
            pass: i64,
            cycle: i64,
        ) -> Result<(), SimError> {
            let op = body.op(slot.op);
            if let Some(p) = slot.pred {
                if !self.read(slot.op, p, pass, cycle)?.truthy() {
                    return Ok(());
                }
            }
            let mut srcs = Vec::with_capacity(slot.srcs.len());
            for s in &slot.srcs {
                srcs.push(match s {
                    CodeOperand::ImmInt(v) => Value::Int(*v),
                    CodeOperand::ImmFloat(v) => Value::Float(*v),
                    CodeOperand::Reg(r) => self.read(slot.op, *r, pass, cycle)?,
                });
            }
            let latency = machine.latency(op.opcode) as i64;
            match op.opcode {
                Opcode::Load => {
                    let addr = srcs[0]
                        .as_int()
                        .ok_or(SimError::BadAddressType { op: slot.op })?;
                    let v = self.memory.read(slot.op, addr)?;
                    let dest = slot.dest.expect("loads have destinations");
                    self.write(dest, pass, cycle + latency, cycle, v);
                }
                Opcode::Store => {
                    let addr = srcs[0]
                        .as_int()
                        .ok_or(SimError::BadAddressType { op: slot.op })?;
                    self.pending_stores
                        .entry(cycle + latency)
                        .or_default()
                        .push((slot.op, addr, srcs[1]));
                }
                Opcode::Branch => {}
                _ => {
                    let v = eval::apply(op.opcode, op.cmp, &srcs)?;
                    let dest = slot.dest.expect("value ops have destinations");
                    self.write(dest, pass, cycle + latency, cycle, v);
                }
            }
            Ok(())
        }

        fn finish(mut self, cycles: u64) -> Result<ExecResult, SimError> {
            for (_, stores) in std::mem::take(&mut self.pending_stores) {
                for (op, addr, v) in stores {
                    self.memory.write(op, addr, v)?;
                }
            }
            Ok(ExecResult {
                memory: self.memory,
                final_regs: Vec::new(),
                cycles,
            })
        }
    }

    fn seeded_state(
        memory: MemoryImage,
        num_static: usize,
        num_rotating: usize,
        seeds: &[ims_codegen::code::Seed],
    ) -> CodeState {
        let mut st = CodeState {
            statics: vec![Cell::default(); num_static],
            rotating: vec![Cell::default(); num_rotating],
            memory,
            pending_stores: BTreeMap::new(),
        };
        for seed in seeds {
            let v = st.memory.resolve(seed.value);
            match seed.reg {
                CodeReg::Static(i) => st.statics[i].write(i64::MIN / 2, v, 0),
                // Rotating seeds are physical indices valid at pass 0.
                CodeReg::Rotating(i) => st.rotating[i].write(i64::MIN / 2, v, 0),
            }
        }
        st
    }

    /// Executes modulo-variable-expanded code: prologue, `kernel_reps`
    /// repetitions of the unrolled kernel, then the coda. Returns the final
    /// memory image (register state is renamed and not comparable directly).
    ///
    /// # Errors
    ///
    /// Any [`SimError`]; a `ReadBeforeReady` means the code generator emitted
    /// an instruction stream that violates the machine's latency contract.
    pub fn run_mve(
        code: &MveCode,
        body: &LoopBody,
        machine: &ims_machine::MachineModel,
        memory: MemoryImage,
    ) -> Result<ExecResult, SimError> {
        let mut st = seeded_state(memory, code.num_static_regs, 0, &code.seeds);
        let mut cycle = 0i64;
        let run_section =
            |st: &mut CodeState, insts: &[Inst], cycle: &mut i64| -> Result<(), SimError> {
                for inst in insts {
                    st.commit_stores(*cycle)?;
                    for slot in &inst.ops {
                        st.exec(body, machine, slot, 0, *cycle)?;
                    }
                    *cycle += 1;
                }
                Ok(())
            };
        run_section(&mut st, &code.prologue, &mut cycle)?;
        for _ in 0..code.kernel_reps {
            run_section(&mut st, &code.kernel, &mut cycle)?;
        }
        run_section(&mut st, &code.coda, &mut cycle)?;
        st.finish(cycle as u64)
    }

    /// Executes kernel-only rotating-register code: `passes` passes over the
    /// `II`-instruction kernel, the rotating base advancing each pass, each
    /// instance staged by `iteration = pass − stage` (instances outside
    /// `[0, trip_count)` are squashed, exactly what the staging predicates of
    /// the kernel-only schema do).
    ///
    /// # Errors
    ///
    /// Any [`SimError`].
    pub fn run_rotating(
        code: &RotatingCode,
        body: &LoopBody,
        machine: &ims_machine::MachineModel,
        memory: MemoryImage,
    ) -> Result<ExecResult, SimError> {
        let n = body.trip_count() as i64;
        let mut st = seeded_state(
            memory,
            code.num_static_regs,
            code.rotating_size,
            &code.seeds,
        );
        let mut cycle = 0i64;
        for pass in 0..code.passes as i64 {
            for inst in &code.kernel {
                st.commit_stores(cycle)?;
                for slot in &inst.ops {
                    let iter = pass - slot.stage as i64;
                    if iter < 0 || iter >= n {
                        continue; // Staging predicate squashes this instance.
                    }
                    st.exec(body, machine, slot, pass, cycle)?;
                }
                cycle += 1;
            }
        }
        st.finish(cycle as u64)
    }

    /// Executes the modulo schedule directly: iteration `i`'s instance of an
    /// operation issues at cycle `i·II + time(op)`, exactly the steady state
    /// the schedule promises (§1: the same schedule *"repeated at regular
    /// intervals"*).
    ///
    /// Registers follow expanded-virtual-register semantics — each
    /// `(iteration, register)` pair is distinct storage, the software
    /// equivalent of rotating registers — and are **latency-checked**: a read
    /// before the producing operation's latency has elapsed returns
    /// [`SimError::ReadBeforeReady`]. Stores become architecturally visible at
    /// `issue + latency(store)`; loads sample memory at issue.
    ///
    /// # Errors
    ///
    /// Any [`SimError`]; `ReadBeforeReady` indicates an illegal schedule.
    pub fn run_overlapped(
        body: &LoopBody,
        problem: &Problem<'_>,
        schedule: &Schedule,
        memory: MemoryImage,
    ) -> Result<ExecResult, SimError> {
        let n = body.trip_count() as i64;
        let nv = body.num_vregs();
        let ii = schedule.ii;
        let live_in = memory.live_in_values(body);
        let live_in_seed = memory.clone();
        let mut memory = memory;

        // Every (cycle, iteration, op) instance, in issue order. Within a
        // cycle, order by (iteration, op id) for determinism (the order is
        // semantically irrelevant: NUAL reads never see same-cycle writes).
        let mut instances: Vec<(i64, i64, OpId)> = Vec::new();
        for (id, _) in body.iter() {
            let t = schedule.time_of(node_of(id));
            for i in 0..n {
                instances.push((i * ii + t, i, id));
            }
        }
        instances.sort_unstable();

        // reg_file[iter][vreg]: Empty until the defining instance executes,
        // then either Written (with its visibility cycle) or Squashed (the
        // instance ran with a false predicate and wrote nothing).
        #[derive(Clone, Copy, PartialEq)]
        enum Cell {
            Empty,
            Squashed,
            Written(i64, Value),
        }
        let mut reg_file: Vec<Vec<Cell>> = vec![vec![Cell::Empty; nv]; n as usize];
        // Pending memory commits: cycle -> [(op, addr, value)].
        let mut pending_stores: BTreeMap<i64, Vec<(OpId, i64, Value)>> = BTreeMap::new();

        let read = |reg_file: &[Vec<Cell>],
                    at: OpId,
                    u: ims_ir::RegUse,
                    iter: i64,
                    cycle: i64|
         -> Result<Value, SimError> {
            match resolve_use(body, at, u) {
                None => live_in_seed
                    .live_in_lag(body, u.reg, 1 + u.prev)
                    .ok_or(SimError::UnwrittenRead { op: at }),
                Some((_, d)) => {
                    let mut j = iter - d as i64;
                    if j < 0 {
                        // A pre-loop instance: the per-lag live-in seed.
                        return live_in_seed
                            .live_in_lag(body, u.reg, (-j) as u32)
                            .ok_or(SimError::UnwrittenRead { op: at });
                    }
                    while j >= 0 {
                        match reg_file[j as usize][u.reg.index()] {
                            Cell::Written(avail, v) => {
                                if avail > cycle {
                                    return Err(SimError::ReadBeforeReady {
                                        op: at,
                                        cycle,
                                        available: avail,
                                    });
                                }
                                return Ok(v);
                            }
                            // A squashed predicated write: the register keeps
                            // its previous instance's value.
                            Cell::Squashed => j -= 1,
                            // The defining instance has not even issued yet:
                            // the schedule is broken.
                            Cell::Empty => return Err(SimError::UnwrittenRead { op: at }),
                        }
                    }
                    live_in_seed
                        .live_in_lag(body, u.reg, 1)
                        .ok_or(SimError::UnwrittenRead { op: at })
                }
            }
        };

        let mut last_cycle = 0i64;
        for (cycle, iter, id) in instances {
            last_cycle = last_cycle.max(cycle);
            // Commit stores due at or before this cycle.
            let due: Vec<i64> = pending_stores.range(..=cycle).map(|(c, _)| *c).collect();
            for c in due {
                for (op, addr, v) in pending_stores.remove(&c).expect("key just observed") {
                    memory.write(op, addr, v)?;
                }
            }

            let op = body.op(id);
            if let Some(p) = op.pred {
                let pv = read(&reg_file, id, p, iter, cycle)?;
                if !pv.truthy() {
                    if let Some(dest) = op.dest {
                        reg_file[iter as usize][dest.index()] = Cell::Squashed;
                    }
                    continue;
                }
            }
            let mut srcs = Vec::with_capacity(op.srcs.len());
            for s in &op.srcs {
                srcs.push(match s {
                    Operand::ImmInt(v) => Value::Int(*v),
                    Operand::ImmFloat(v) => Value::Float(*v),
                    Operand::Reg(u) => read(&reg_file, id, *u, iter, cycle)?,
                });
            }
            let latency = problem.latency(node_of(id));
            match op.opcode {
                Opcode::Load => {
                    let addr = srcs[0]
                        .as_int()
                        .ok_or(SimError::BadAddressType { op: id })?;
                    let v = memory.read(id, addr)?;
                    let dest = op.dest.expect("loads have destinations");
                    reg_file[iter as usize][dest.index()] = Cell::Written(cycle + latency, v);
                }
                Opcode::Store => {
                    let addr = srcs[0]
                        .as_int()
                        .ok_or(SimError::BadAddressType { op: id })?;
                    pending_stores
                        .entry(cycle + latency)
                        .or_default()
                        .push((id, addr, srcs[1]));
                }
                Opcode::Branch => {}
                _ => {
                    let v = eval::apply(op.opcode, op.cmp, &srcs)?;
                    let dest = op.dest.expect("value ops have destinations");
                    reg_file[iter as usize][dest.index()] = Cell::Written(cycle + latency, v);
                }
            }
        }

        // Drain remaining stores.
        for (_, stores) in std::mem::take(&mut pending_stores) {
            for (op, addr, v) in stores {
                memory.write(op, addr, v)?;
            }
        }

        let mut final_regs = vec![None; nv];
        for r in 0..nv {
            for iter in (0..n as usize).rev() {
                if let Cell::Written(_, v) = reg_file[iter][r] {
                    final_regs[r] = Some(v);
                    break;
                }
            }
            if final_regs[r].is_none() {
                final_regs[r] = live_in[r];
            }
        }

        Ok(ExecResult {
            memory,
            final_regs,
            cycles: (last_cycle + 1) as u64,
        })
    }
}
