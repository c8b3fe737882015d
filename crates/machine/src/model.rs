//! Machine model: resources, alternatives, and per-opcode information.

use std::fmt;

use ims_ir::Opcode;

use crate::mask::ConflictMask;
use crate::reservation::ReservationTable;

/// Identifier of a machine resource (a pipeline stage of a functional unit,
/// a bus, or a field in the instruction format — §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(pub u32);

impl ResourceId {
    /// Zero-based index of this resource.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "res{}", self.0)
    }
}

/// A named machine resource.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resource {
    /// Human-readable name, e.g. `"mem_port0"` or `"result_bus"`.
    pub name: String,
}

/// One way of executing an opcode: a named functional unit together with the
/// reservation table its use implies. *"A particular operation may be
/// executable on multiple functional units, in which case it is said to have
/// multiple alternatives, with a different reservation table corresponding
/// to each one."* (§2.1)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alternative {
    /// Name of the functional unit, e.g. `"mem_port1"`.
    pub fu: String,
    /// The resource usage pattern of this alternative.
    pub table: ReservationTable,
    /// `table` compiled to word-parallel row masks against this
    /// machine's resource axis (built once by [`MachineBuilder::build`]).
    mask: ConflictMask,
}

impl Alternative {
    /// The compiled conflict mask of [`table`](Alternative::table): the
    /// word-parallel representation every modulo-reservation-table probe,
    /// install, and evict uses (see [`ConflictMask`] and `DESIGN.md`
    /// §5d).
    #[inline]
    pub fn mask(&self) -> &ConflictMask {
        &self.mask
    }
}

/// Scheduling-relevant information about one opcode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpcodeInfo {
    /// Execution latency in cycles: a flow-dependent successor may issue
    /// this many cycles after the operation issues.
    pub latency: u32,
    /// The ways this opcode can execute, in preference order.
    pub alternatives: Vec<Alternative>,
}

/// One slot per opcode, indexed by `opcode as usize`, which is the
/// opcode's position in [`Opcode::ALL`]: every lookup is one index.
type PerOpcode<T> = [Option<T>; Opcode::ALL.len()];

/// A complete machine model: the resource set plus per-opcode latency and
/// alternatives.
///
/// Build one with [`MachineBuilder`] or use the predefined models in this
/// crate ([`crate::cydra`], [`crate::cydra_simple`], …).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineModel {
    name: String,
    resources: Vec<Resource>,
    info: PerOpcode<OpcodeInfo>,
    register_file: Option<u32>,
}

impl MachineModel {
    /// The machine's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared rotating-register-file capacity, when this machine
    /// has one. A pressure-aware scheduling run (`SchedConfig::pressure_limit`
    /// plus the `ims-press` observer) keeps MaxLive and the rotating
    /// allocation within this many registers; `None` means the register
    /// file is unbounded (the paper's post-scheduling view).
    pub fn register_file(&self) -> Option<u32> {
        self.register_file
    }

    /// Number of resources.
    pub fn num_resources(&self) -> usize {
        self.resources.len()
    }

    /// The resource with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn resource(&self, id: ResourceId) -> &Resource {
        &self.resources[id.index()]
    }

    /// All resources, indexable by [`ResourceId::index`].
    pub fn resources(&self) -> &[Resource] {
        &self.resources
    }

    /// Information for `opcode`.
    ///
    /// # Panics
    ///
    /// Panics if the machine does not implement `opcode`; use
    /// [`MachineModel::get_info`] for a fallible lookup.
    pub fn info(&self, opcode: Opcode) -> &OpcodeInfo {
        self.get_info(opcode)
            .unwrap_or_else(|| panic!("machine {} does not implement {opcode}", self.name))
    }

    /// Information for `opcode`, or `None` when this machine has no
    /// definition for it (no latency, no reservation-table alternatives —
    /// the front end must reject such operations; see
    /// [`MachineModel::is_complete`]). The infallible [`MachineModel::info`]
    /// panics in that case instead.
    ///
    /// ```
    /// use ims_machine::{MachineBuilder, ReservationTable};
    /// use ims_ir::Opcode;
    ///
    /// let mut b = MachineBuilder::new("add-only");
    /// let alu = b.resource("alu");
    /// b.op(Opcode::Add, 1, vec![("alu", ReservationTable::simple(alu))]);
    /// let m = b.build();
    /// assert!(m.get_info(Opcode::Add).is_some());
    /// assert!(m.get_info(Opcode::Mul).is_none(), "Mul is not defined");
    /// ```
    pub fn get_info(&self, opcode: Opcode) -> Option<&OpcodeInfo> {
        self.info[opcode as usize].as_ref()
    }

    /// The latency of `opcode`.
    ///
    /// # Panics
    ///
    /// Panics if the machine does not implement `opcode`.
    pub fn latency(&self, opcode: Opcode) -> u32 {
        self.info(opcode).latency
    }

    /// Iterates over implemented opcodes in declaration order, which is
    /// [`Opcode::ALL`]'s.
    pub fn opcodes(&self) -> impl Iterator<Item = (Opcode, &OpcodeInfo)> + '_ {
        Opcode::ALL
            .into_iter()
            .zip(&self.info)
            .filter_map(|(opcode, info)| Some((opcode, info.as_ref()?)))
    }

    /// Whether every opcode an IR loop can contain is implemented.
    pub fn is_complete(&self) -> bool {
        self.info.iter().all(Option::is_some)
    }
}

/// Builder for [`MachineModel`].
///
/// # Examples
///
/// ```
/// use ims_machine::{MachineBuilder, ReservationTable};
/// use ims_ir::Opcode;
///
/// let mut b = MachineBuilder::new("tiny");
/// let alu = b.resource("alu");
/// for op in Opcode::ALL {
///     b.op(op, 1, vec![("alu", ReservationTable::simple(alu))]);
/// }
/// let m = b.build();
/// assert!(m.is_complete());
/// assert_eq!(m.latency(Opcode::Add), 1);
/// ```
#[derive(Debug)]
pub struct MachineBuilder {
    name: String,
    resources: Vec<Resource>,
    /// Raw `(latency, (fu, table) list)` per opcode; conflict masks are
    /// compiled in [`MachineBuilder::build`], once the final resource
    /// count is known.
    ops: PerOpcode<(u32, Vec<(String, ReservationTable)>)>,
    register_file: Option<u32>,
}

impl MachineBuilder {
    /// Starts building a machine named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        MachineBuilder {
            name: name.into(),
            resources: Vec::new(),
            ops: Default::default(),
            register_file: None,
        }
    }

    /// Declares the rotating-register-file capacity (see
    /// [`MachineModel::register_file`]).
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn register_file(&mut self, size: u32) -> &mut Self {
        assert!(size > 0, "register file size must be positive");
        self.register_file = Some(size);
        self
    }

    /// Declares a resource, returning its id.
    pub fn resource(&mut self, name: impl Into<String>) -> ResourceId {
        self.resources.push(Resource { name: name.into() });
        ResourceId(self.resources.len() as u32 - 1)
    }

    /// Defines `opcode` with the given latency and `(fu-name, table)`
    /// alternatives, replacing any previous definition.
    ///
    /// # Panics
    ///
    /// Panics if `alternatives` is empty, if `latency` is zero, or if any
    /// table references an undeclared resource.
    pub fn op(
        &mut self,
        opcode: Opcode,
        latency: u32,
        alternatives: Vec<(&str, ReservationTable)>,
    ) -> &mut Self {
        self.op_alts(
            opcode,
            latency,
            alternatives
                .into_iter()
                .map(|(n, t)| (n.to_string(), t))
                .collect(),
        )
    }

    /// Like [`MachineBuilder::op`], with owned alternative names (useful
    /// when alternative sets are generated, e.g. the cross product of
    /// functional units and instruction-format fields).
    ///
    /// # Panics
    ///
    /// Same conditions as [`MachineBuilder::op`].
    pub fn op_alts(
        &mut self,
        opcode: Opcode,
        latency: u32,
        alternatives: Vec<(String, ReservationTable)>,
    ) -> &mut Self {
        assert!(
            !alternatives.is_empty(),
            "{opcode} must have at least one alternative"
        );
        assert!(latency > 0, "{opcode} latency must be positive");
        for (_, t) in &alternatives {
            for &(r, _) in t.uses() {
                assert!(
                    r.index() < self.resources.len(),
                    "table for {opcode} references undeclared {r}"
                );
            }
        }
        self.ops[opcode as usize] = Some((latency, alternatives));
        self
    }

    /// Finishes the build, compiling every alternative's reservation
    /// table into its word-parallel [`ConflictMask`] against the final
    /// resource count.
    pub fn build(self) -> MachineModel {
        let nres = self.resources.len();
        let info = self.ops.map(|slot| {
            let (latency, alternatives) = slot?;
            let alternatives = alternatives
                .into_iter()
                .map(|(fu, table)| {
                    let mask = ConflictMask::compile(&table, nres);
                    Alternative { fu, table, mask }
                })
                .collect();
            Some(OpcodeInfo {
                latency,
                alternatives,
            })
        });
        MachineModel {
            name: self.name,
            resources: self.resources,
            info,
            register_file: self.register_file,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MachineModel {
        let mut b = MachineBuilder::new("t");
        let alu = b.resource("alu");
        b.op(Opcode::Add, 2, vec![("alu", ReservationTable::simple(alu))]);
        b.build()
    }

    #[test]
    fn lookup_paths() {
        let m = tiny();
        assert_eq!(m.name(), "t");
        assert_eq!(m.num_resources(), 1);
        assert_eq!(m.resource(ResourceId(0)).name, "alu");
        assert_eq!(m.latency(Opcode::Add), 2);
        assert!(m.get_info(Opcode::Mul).is_none());
        assert!(!m.is_complete());
    }

    #[test]
    #[should_panic(expected = "does not implement")]
    fn missing_opcode_panics() {
        let _ = tiny().info(Opcode::Mul);
    }

    #[test]
    #[should_panic(expected = "at least one alternative")]
    fn empty_alternatives_panic() {
        let mut b = MachineBuilder::new("t");
        b.op(Opcode::Add, 1, vec![]);
    }

    #[test]
    #[should_panic(expected = "undeclared")]
    fn undeclared_resource_panics() {
        let mut b = MachineBuilder::new("t");
        b.op(
            Opcode::Add,
            1,
            vec![("x", ReservationTable::simple(ResourceId(9)))],
        );
    }

    #[test]
    #[should_panic(expected = "latency must be positive")]
    fn zero_latency_panics() {
        let mut b = MachineBuilder::new("t");
        let alu = b.resource("alu");
        b.op(Opcode::Add, 0, vec![("alu", ReservationTable::simple(alu))]);
    }

    #[test]
    fn build_compiles_masks_against_the_final_resource_count() {
        // Resources declared *after* an opcode's definition still shape
        // its mask: compilation happens in build(), not in op().
        let mut b = MachineBuilder::new("late");
        let alu = b.resource("alu");
        b.op(Opcode::Add, 1, vec![("alu", ReservationTable::simple(alu))]);
        let _late = b.resource("late");
        let m = b.build();
        let alt = &m.info(Opcode::Add).alternatives[0];
        assert_eq!(alt.mask().words_per_row(), 1);
        assert_eq!(alt.mask().footprint(), alt.table.footprint());
        assert_eq!(alt.mask().entries().len(), 1);
        assert_eq!(alt.mask().entries()[0].mask, 0b1);
    }

    #[test]
    fn register_file_defaults_to_unbounded_and_is_declarable() {
        assert_eq!(tiny().register_file(), None);
        let mut b = MachineBuilder::new("rf");
        let alu = b.resource("alu");
        b.op(Opcode::Add, 1, vec![("alu", ReservationTable::simple(alu))]);
        b.register_file(32);
        assert_eq!(b.build().register_file(), Some(32));
    }

    #[test]
    #[should_panic(expected = "register file size must be positive")]
    fn zero_register_file_panics() {
        MachineBuilder::new("rf0").register_file(0);
    }

    #[test]
    fn opcode_iteration_is_stable() {
        // `opcodes()` yields exactly the defined opcodes, in `Opcode::ALL`
        // order, whatever order they were defined in.
        let ops = |m: &MachineModel| m.opcodes().map(|(o, _)| o).collect::<Vec<_>>();
        assert_eq!(ops(&tiny()), vec![Opcode::Add]);
        for m in [crate::cydra(), crate::minimal()] {
            assert_eq!(ops(&m), Opcode::ALL, "{}", m.name());
        }
        let mut b = MachineBuilder::new("t");
        let alu = b.resource("alu");
        for op in [Opcode::Branch, Opcode::Mul, Opcode::Load] {
            b.op(op, 1, vec![("alu", ReservationTable::simple(alu))]);
        }
        assert_eq!(ops(&b.build()), [Opcode::Load, Opcode::Mul, Opcode::Branch]);
    }

    #[test]
    fn every_opcode_indexes_its_own_slot() {
        for (i, op) in Opcode::ALL.into_iter().enumerate() {
            assert_eq!(op as usize, i, "{op}");
        }
    }
}
