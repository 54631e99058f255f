//! Architecture description: buses, functional units, register files and
//! their socket/bus attachments.

use std::fmt;

/// Index of a move bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BusId(pub u8);

impl fmt::Display for BusId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bus{}", self.0)
    }
}

/// The functional-unit kinds of the paper's component library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuKind {
    /// Arithmetic-logic unit (add/sub/shift/and/or/xor/not).
    Alu,
    /// Comparator producing a 1-bit condition.
    Cmp,
    /// Multiplier.
    Mul,
    /// Load/store unit (exactly one per architecture).
    LdSt,
    /// Program counter / sequencer (exactly one per architecture).
    Pc,
    /// Immediate unit (delivers instruction constants onto buses).
    Immediate,
}

impl FuKind {
    /// Execute-stage latency in cycles (trigger → result register), i.e.
    /// the paper's relation (3) lower bound, larger for MUL/LDST.
    pub fn latency(self) -> u32 {
        match self {
            FuKind::Mul => 2,
            FuKind::LdSt => 2,
            _ => 1,
        }
    }

    /// Number of input data ports (operand + trigger).
    pub fn input_ports(self) -> usize {
        match self {
            FuKind::Immediate => 1,
            _ => 2,
        }
    }

    /// Number of output data ports (result).
    pub fn output_ports(self) -> usize {
        1
    }

    /// Mnemonic as used in Figure 9 / Table 1.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FuKind::Alu => "ALU",
            FuKind::Cmp => "CMP",
            FuKind::Mul => "MUL",
            FuKind::LdSt => "LD/ST",
            FuKind::Pc => "PC",
            FuKind::Immediate => "IMM",
        }
    }
}

impl fmt::Display for FuKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Which pipeline register a port feeds/drains (Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortRole {
    /// Operand register O (input).
    Operand,
    /// Trigger register T (input; starts the operation).
    Trigger,
    /// Result register R (output).
    Result,
    /// Register-file write port (input).
    RfWrite(u8),
    /// Register-file read port (output).
    RfRead(u8),
}

/// One functional-unit instance with its socket→bus assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuInstance {
    /// What the unit is.
    pub kind: FuKind,
    /// Instance name (unique within the architecture).
    pub name: String,
    /// Bus the operand input socket attaches to.
    pub operand_bus: BusId,
    /// Bus the trigger input socket attaches to.
    pub trigger_bus: BusId,
    /// Bus the result output socket attaches to.
    pub result_bus: BusId,
}

impl FuInstance {
    /// Connector count `nconn` of eq. (11): data ports of this unit.
    pub fn nconn(&self) -> usize {
        self.kind.input_ports() + self.kind.output_ports()
    }

    /// Buses of all ports, in (O, T, R) order (immediates have no O).
    pub fn port_buses(&self) -> Vec<BusId> {
        if self.kind == FuKind::Immediate {
            vec![self.trigger_bus, self.result_bus]
        } else {
            vec![self.operand_bus, self.trigger_bus, self.result_bus]
        }
    }
}

/// One register-file instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RfInstance {
    /// Instance name.
    pub name: String,
    /// Number of registers.
    pub regs: usize,
    /// Bus attachment of each write port (`nin = write_ports.len()`).
    pub write_ports: Vec<BusId>,
    /// Bus attachment of each read port (`nout = read_ports.len()`).
    pub read_ports: Vec<BusId>,
}

impl RfInstance {
    /// Connector count: all data ports.
    pub fn nconn(&self) -> usize {
        self.write_ports.len() + self.read_ports.len()
    }

    /// `nin` of eq. (12).
    pub fn nin(&self) -> usize {
        self.write_ports.len()
    }

    /// `nout` of eq. (12).
    pub fn nout(&self) -> usize {
        self.read_ports.len()
    }
}

/// Errors found by [`Architecture::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchitectureError {
    /// No buses declared.
    NoBuses,
    /// A port references a bus index ≥ `bus_count`.
    DanglingBus(String),
    /// Not exactly one PC / LD-ST unit.
    SingletonViolation(FuKind, usize),
    /// A register file has no registers or no ports.
    DegenerateRf(String),
    /// No register file at all (results have nowhere to live).
    NoRegisterFile,
    /// Duplicate instance name.
    DuplicateName(String),
}

impl fmt::Display for ArchitectureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchitectureError::NoBuses => write!(f, "architecture has no move buses"),
            ArchitectureError::DanglingBus(name) => {
                write!(f, "port of {name} references a bus that does not exist")
            }
            ArchitectureError::SingletonViolation(kind, n) => {
                write!(f, "architecture needs exactly one {kind}, found {n}")
            }
            ArchitectureError::DegenerateRf(name) => {
                write!(f, "register file {name} has no registers or no ports")
            }
            ArchitectureError::NoRegisterFile => write!(f, "architecture has no register file"),
            ArchitectureError::DuplicateName(name) => {
                write!(f, "duplicate instance name {name}")
            }
        }
    }
}

impl std::error::Error for ArchitectureError {}

/// A complete TTA instance: the unit of design-space exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Architecture {
    /// Human-readable configuration name.
    pub name: String,
    /// Datapath width in bits.
    pub width: usize,
    /// Number of move buses.
    pub buses: usize,
    /// Functional units.
    pub fus: Vec<FuInstance>,
    /// Register files.
    pub rfs: Vec<RfInstance>,
}

impl Architecture {
    /// Number of move buses (`nb` in the cost formulas).
    pub fn bus_count(&self) -> usize {
        self.buses
    }

    /// Functional units.
    pub fn fus(&self) -> &[FuInstance] {
        &self.fus
    }

    /// Register files.
    pub fn rfs(&self) -> &[RfInstance] {
        &self.rfs
    }

    /// Total socket count `ns` (one socket per attached data port).
    pub fn socket_count(&self) -> usize {
        let fu_ports: usize = self.fus.iter().map(FuInstance::nconn).sum();
        let rf_ports: usize = self.rfs.iter().map(RfInstance::nconn).sum();
        fu_ports + rf_ports
    }

    /// Units of a given kind.
    pub fn fus_of(&self, kind: FuKind) -> impl Iterator<Item = &FuInstance> {
        self.fus.iter().filter(move |f| f.kind == kind)
    }

    /// Checks structural invariants. Allocation-free: the sweep
    /// validates every point it schedules.
    ///
    /// # Errors
    ///
    /// Returns the first [`ArchitectureError`] found. Units are checked
    /// FUs first, then RFs, each in declaration order; a duplicate name
    /// is reported on its second occurrence.
    pub fn validate(&self) -> Result<(), ArchitectureError> {
        if self.buses == 0 {
            return Err(ArchitectureError::NoBuses);
        }
        if self.rfs.is_empty() {
            return Err(ArchitectureError::NoRegisterFile);
        }
        // An architecture has a handful of units, so scanning the names
        // declared before each one beats hashing them.
        let fu_named =
            |name: &str, before: usize| self.fus[..before].iter().any(|f| f.name == name);
        for (i, f) in self.fus.iter().enumerate() {
            if fu_named(&f.name, i) {
                return Err(ArchitectureError::DuplicateName(f.name.clone()));
            }
            // (O, T, R) ports; immediates have no O.
            let skip = usize::from(f.kind == FuKind::Immediate);
            for b in [f.operand_bus, f.trigger_bus, f.result_bus]
                .iter()
                .skip(skip)
            {
                if usize::from(b.0) >= self.buses {
                    return Err(ArchitectureError::DanglingBus(f.name.clone()));
                }
            }
        }
        for (i, r) in self.rfs.iter().enumerate() {
            if fu_named(&r.name, self.fus.len()) || self.rfs[..i].iter().any(|q| q.name == r.name) {
                return Err(ArchitectureError::DuplicateName(r.name.clone()));
            }
            if r.regs == 0 || r.write_ports.is_empty() || r.read_ports.is_empty() {
                return Err(ArchitectureError::DegenerateRf(r.name.clone()));
            }
            for b in r.write_ports.iter().chain(&r.read_ports) {
                if usize::from(b.0) >= self.buses {
                    return Err(ArchitectureError::DanglingBus(r.name.clone()));
                }
            }
        }
        for kind in [FuKind::Pc, FuKind::LdSt] {
            let n = self.fus_of(kind).count();
            if n != 1 {
                return Err(ArchitectureError::SingletonViolation(kind, n));
            }
        }
        Ok(())
    }

    /// The architecture the paper's equal-weight norm selects (Figure 9):
    /// 16-bit datapath, two move buses, ALU + CMP + LD/ST + PC +
    /// Immediate, RF1 (8 regs) and RF2 (12 regs).
    pub fn figure9() -> Self {
        crate::template::TemplateBuilder::new("figure9", 16, 2)
            .fu(FuKind::Alu)
            .fu(FuKind::Cmp)
            .fu(FuKind::LdSt)
            .fu(FuKind::Pc)
            .fu(FuKind::Immediate)
            .rf(8, 1, 2)
            .rf(12, 1, 2)
            .build()
    }
}

impl fmt::Display for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} ({}-bit, {} buses, {} sockets)",
            self.name,
            self.width,
            self.buses,
            self.socket_count()
        )?;
        for fu in &self.fus {
            let buses: Vec<String> = fu.port_buses().iter().map(|b| b.to_string()).collect();
            writeln!(f, "  {:<8} [{}]", fu.name, buses.join(", "))?;
        }
        for rf in &self.rfs {
            writeln!(
                f,
                "  {:<8} {}x{} ({}w/{}r)",
                rf.name,
                rf.regs,
                self.width,
                rf.nin(),
                rf.nout()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure9_is_valid() {
        let a = Architecture::figure9();
        assert_eq!(a.validate(), Ok(()));
        assert_eq!(a.bus_count(), 2);
        assert_eq!(a.width, 16);
        assert_eq!(a.rfs.len(), 2);
        assert_eq!(a.rfs[0].regs, 8);
        assert_eq!(a.rfs[1].regs, 12);
    }

    #[test]
    fn socket_count_counts_all_ports() {
        let a = Architecture::figure9();
        // ALU 3 + CMP 3 + LDST 3 + PC 3 + IMM 2 + RF1 3 + RF2 3 = 20.
        assert_eq!(a.socket_count(), 20);
    }

    #[test]
    fn validation_rejects_missing_pc() {
        let mut a = Architecture::figure9();
        a.fus.retain(|f| f.kind != FuKind::Pc);
        assert_eq!(
            a.validate(),
            Err(ArchitectureError::SingletonViolation(FuKind::Pc, 0))
        );
    }

    #[test]
    fn validation_rejects_dangling_bus() {
        let mut a = Architecture::figure9();
        a.fus[0].trigger_bus = BusId(9);
        assert!(matches!(
            a.validate(),
            Err(ArchitectureError::DanglingBus(_))
        ));
    }

    #[test]
    fn validation_rejects_duplicate_names() {
        let mut a = Architecture::figure9();
        let dup = a.fus[0].name.clone();
        a.fus[1].name = dup;
        assert!(matches!(
            a.validate(),
            Err(ArchitectureError::DuplicateName(_))
        ));
    }

    #[test]
    fn validation_rejects_no_buses_before_anything_else() {
        let mut a = Architecture::figure9();
        a.buses = 0;
        a.rfs.clear();
        assert_eq!(a.validate(), Err(ArchitectureError::NoBuses));
    }

    #[test]
    fn validation_rejects_a_missing_register_file() {
        let mut a = Architecture::figure9();
        a.rfs.clear();
        assert_eq!(a.validate(), Err(ArchitectureError::NoRegisterFile));
    }

    #[test]
    fn validation_rejects_degenerate_register_files() {
        for degrade in [
            |r: &mut RfInstance| r.regs = 0,
            |r: &mut RfInstance| r.write_ports.clear(),
            |r: &mut RfInstance| r.read_ports.clear(),
        ] {
            let mut a = Architecture::figure9();
            degrade(&mut a.rfs[1]);
            let name = a.rfs[1].name.clone();
            assert_eq!(a.validate(), Err(ArchitectureError::DegenerateRf(name)));
        }
    }

    #[test]
    fn validation_rejects_a_register_file_on_a_dangling_bus() {
        let mut a = Architecture::figure9();
        a.rfs[0].read_ports[1] = BusId(2);
        let name = a.rfs[0].name.clone();
        assert_eq!(a.validate(), Err(ArchitectureError::DanglingBus(name)));
    }

    #[test]
    fn an_immediate_units_unused_operand_bus_is_not_checked() {
        let mut a = Architecture::figure9();
        let imm = a.fus.iter_mut().find(|f| f.kind == FuKind::Immediate);
        imm.expect("figure9 has an immediate unit").operand_bus = BusId(9);
        assert_eq!(a.validate(), Ok(()));
    }

    #[test]
    fn duplicate_names_are_reported_on_their_second_occurrence() {
        // FU vs FU: the later unit's name, before its dangling bus.
        let mut a = Architecture::figure9();
        a.fus[2].name = a.fus[0].name.clone();
        a.fus[2].trigger_bus = BusId(9);
        assert_eq!(
            a.validate(),
            Err(ArchitectureError::DuplicateName(a.fus[0].name.clone()))
        );
        // RF vs FU: the RF carries the name, after every FU passed.
        let mut a = Architecture::figure9();
        a.rfs[1].name = a.fus[3].name.clone();
        assert_eq!(
            a.validate(),
            Err(ArchitectureError::DuplicateName(a.fus[3].name.clone()))
        );
        // RF vs RF, ahead of the second RF's degenerate geometry.
        let mut a = Architecture::figure9();
        a.rfs[1].name = a.rfs[0].name.clone();
        a.rfs[1].regs = 0;
        assert_eq!(
            a.validate(),
            Err(ArchitectureError::DuplicateName(a.rfs[0].name.clone()))
        );
        // An FU dangling before the duplicate RF is reported first.
        let mut a = Architecture::figure9();
        a.fus[4].result_bus = BusId(7);
        a.rfs[1].name = a.rfs[0].name.clone();
        assert_eq!(
            a.validate(),
            Err(ArchitectureError::DanglingBus(a.fus[4].name.clone()))
        );
    }

    #[test]
    fn validation_rejects_two_load_store_units() {
        let mut a = Architecture::figure9();
        let mut extra = a
            .fus
            .iter()
            .find(|f| f.kind == FuKind::LdSt)
            .unwrap()
            .clone();
        extra.name = "ldst1".into();
        a.fus.push(extra);
        assert_eq!(
            a.validate(),
            Err(ArchitectureError::SingletonViolation(FuKind::LdSt, 2))
        );
    }

    #[test]
    fn display_lists_units() {
        let s = Architecture::figure9().to_string();
        assert!(s.contains("alu0"));
        assert!(s.contains("8x16"));
    }
}
