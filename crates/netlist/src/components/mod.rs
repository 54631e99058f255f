//! Structural generators for every datapath component of the paper's TTA
//! template (Figure 9): ALU, comparator, multiplier, register files,
//! load/store unit, program counter, immediate unit, and the socket /
//! stage-control infrastructure of Figures 3–4.
//!
//! Each generator returns a [`Component`]: a gate-level [`Netlist`]
//! following the hybrid-pipelining structure of Figure 3 — operand (O) and
//! trigger (T) input registers, a combinational core, and a result (R)
//! register — plus interface metadata the architecture model needs
//! (connector counts, pipeline register split).
//!
//! Flip-flop naming convention: storage flip-flops of register files are
//! named `store…`; all other flip-flops (O/T/R pipeline registers, socket
//! `Fin`/`Fout`, stage-control state, opcode registers) count as *transport
//! infrastructure* and form the socket scan chains of the paper's eq. (13).

mod alu;
mod cmp;
mod immediate;
mod ldst;
mod mul;
mod pc;
mod regfile;
pub(crate) mod socket;
mod stage;

pub use alu::{alu, AluOp};
pub use cmp::{cmp, CmpOp};
pub use immediate::immediate;
pub use ldst::load_store;
pub use mul::mul;
pub use pc::pc;
pub use regfile::register_file;
pub use socket::{input_socket, output_socket, socket_group};
pub use stage::stage_control;

use tta_arch::{FuKind, RfInstance};

use crate::netlist::Netlist;

/// Width of the per-bus socket-address field: every socket group the
/// annotation database prices and every bus the elaborator cuts decodes
/// this many bits.
pub const SOCKET_ID_BITS: usize = 5;

/// Identity of a predesigned component: the annotation database's
/// record key and the elaborator's netlist-cache key, and through
/// [`ComponentKey::generate`] the one way to its generator. A unit whose
/// geometry the fields cannot hold has no key and is outside the
/// component model; the constructors narrow checked, never to a smaller
/// component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ComponentKey {
    /// ALU at the given width.
    Alu(u16),
    /// Comparator.
    Cmp(u16),
    /// Multiplier.
    Mul(u16),
    /// Register file `(width, regs, nin, nout)`.
    Rf(u16, u16, u8, u8),
    /// Load/store unit.
    LdSt(u16),
    /// Program counter.
    Pc(u16),
    /// Immediate unit.
    Imm(u16),
    /// Socket/stage-control group `(width, n_input_ports)`.
    SocketGroup(u16, u8),
}

impl ComponentKey {
    /// The key of the functional-unit component for `kind` at datapath
    /// width `width`.
    #[inline]
    pub fn for_fu(kind: FuKind, width: u16) -> ComponentKey {
        match kind {
            FuKind::Alu => ComponentKey::Alu(width),
            FuKind::Cmp => ComponentKey::Cmp(width),
            FuKind::Mul => ComponentKey::Mul(width),
            FuKind::LdSt => ComponentKey::LdSt(width),
            FuKind::Pc => ComponentKey::Pc(width),
            FuKind::Immediate => ComponentKey::Imm(width),
        }
    }

    /// The key of register file `rf` at datapath width `width`, or
    /// `None` when it has more than 65,535 registers or 255 ports of
    /// either kind.
    #[inline]
    pub fn for_rf(rf: &RfInstance, width: u16) -> Option<ComponentKey> {
        Some(ComponentKey::Rf(
            width,
            u16::try_from(rf.regs).ok()?,
            u8::try_from(rf.nin()).ok()?,
            u8::try_from(rf.nout()).ok()?,
        ))
    }

    /// The key of the socket group serving `input_ports` input ports at
    /// datapath width `width`, or `None` past 255 ports.
    #[inline]
    pub fn socket_group(width: u16, input_ports: usize) -> Option<ComponentKey> {
        u8::try_from(input_ports)
            .ok()
            .map(|ports| ComponentKey::SocketGroup(width, ports))
    }

    /// Generates the component netlist for this key.
    pub fn generate(self) -> Component {
        match self {
            ComponentKey::Alu(w) => alu(w.into()),
            ComponentKey::Cmp(w) => cmp(w.into()),
            ComponentKey::Mul(w) => mul(w.into()),
            ComponentKey::Rf(w, regs, nin, nout) => {
                register_file(w.into(), regs.into(), nin.into(), nout.into())
            }
            ComponentKey::LdSt(w) => load_store(w.into()),
            ComponentKey::Pc(w) => pc(w.into()),
            ComponentKey::Imm(w) => immediate(w.into()),
            ComponentKey::SocketGroup(w, n_in) => {
                socket_group(w.into(), n_in.into(), SOCKET_ID_BITS)
            }
        }
    }
}

/// A generated component: netlist plus the interface facts the
/// architecture and test-cost models consume.
#[derive(Debug, Clone)]
pub struct Component {
    /// The gate-level implementation.
    pub netlist: Netlist,
    /// Data width in bits.
    pub width: usize,
    /// Number of input-side data connectors (operand/trigger/write ports).
    pub data_in_ports: usize,
    /// Number of output-side data connectors (result/read ports).
    pub data_out_ports: usize,
}

impl Component {
    /// Total connector count `nconn` of the paper's eq. (11).
    pub fn nconn(&self) -> usize {
        self.data_in_ports + self.data_out_ports
    }

    /// Number of *storage* flip-flops (register-file core).
    pub fn storage_ff_count(&self) -> usize {
        self.netlist
            .dffs()
            .iter()
            .filter(|ff| ff.name().starts_with("store"))
            .count()
    }

    /// Number of transport-infrastructure flip-flops: pipeline registers
    /// (O/T/R), socket `Fin`/`Fout`, opcode and stage-control state.
    ///
    /// This is the socket scan-chain length `nl` of the paper's eq. (13).
    pub fn infrastructure_ff_count(&self) -> usize {
        self.netlist.dff_count() - self.storage_ff_count()
    }

    /// Cell area in NAND2 equivalents.
    pub fn area(&self) -> f64 {
        self.netlist.area()
    }
}

/// Number of address bits needed for `n` registers (at least 1).
pub(crate) fn addr_bits(n: usize) -> usize {
    debug_assert!(n >= 1);
    usize::BITS as usize - (n - 1).leading_zeros() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_bits_rounds_up() {
        assert_eq!(addr_bits(2), 1);
        assert_eq!(addr_bits(3), 2);
        assert_eq!(addr_bits(8), 3);
        assert_eq!(addr_bits(9), 4);
        assert_eq!(addr_bits(12), 4);
    }

    #[test]
    fn every_generator_produces_valid_netlists() {
        let comps = [
            alu(8),
            cmp(8),
            mul(8),
            register_file(8, 8, 1, 2),
            load_store(8),
            pc(8),
            immediate(8),
            input_socket(8, 4, 5),
            output_socket(8, 4, 6),
            stage_control(),
        ];
        for c in &comps {
            assert_eq!(c.netlist.validate(), Ok(()), "{}", c.netlist.name());
            assert!(c.area() > 0.0, "{}", c.netlist.name());
        }
    }
}
