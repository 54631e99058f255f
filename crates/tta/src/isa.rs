//! Instruction-format accounting.
//!
//! A TTA instruction is one move slot per bus, each encoding a source and
//! a destination socket address (plus an immediate field on buses fed by
//! an immediate unit). The paper notes the "control signals and bits are
//! not shown, they are adjoined to the data-bus" — this module makes the
//! control-path width explicit, so the area model can charge instruction
//! memory and decode fan-out for bus-rich templates.

use crate::arch::{Architecture, FuKind};

/// Bit-level layout of one move slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotFormat {
    /// Source socket address bits.
    pub src_bits: u32,
    /// Destination socket address bits.
    pub dst_bits: u32,
    /// Guard (conditional-execution) bit.
    pub guard_bits: u32,
}

impl SlotFormat {
    /// Total slot width.
    pub fn width(&self) -> u32 {
        self.src_bits + self.dst_bits + self.guard_bits
    }
}

/// Bit-level layout of a whole instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstructionFormat {
    /// The layout every move slot shares.
    pub slot: SlotFormat,
    /// Move slots: one per bus.
    pub slots: usize,
    /// Immediate field bits (one short-immediate field per immediate
    /// unit, as in MOVE's long-instruction encoding).
    pub immediate_bits: u32,
}

impl InstructionFormat {
    /// Derives the format of `arch`.
    pub fn of(arch: &Architecture) -> Self {
        // Sources: every output-side socket + immediate units; one extra
        // code for "idle".
        let n_src = arch
            .fus()
            .iter()
            .map(|f| f.kind.output_ports())
            .sum::<usize>()
            + arch.rfs().iter().map(|r| r.nout()).sum::<usize>()
            + 1;
        // Destinations: every input-side socket (+ idle).
        let n_dst = arch
            .fus()
            .iter()
            .map(|f| f.kind.input_ports())
            .sum::<usize>()
            + arch.rfs().iter().map(|r| r.nin()).sum::<usize>()
            + 1;
        let n_imm = arch.fus_of(FuKind::Immediate).count() as u32;
        InstructionFormat {
            slot: SlotFormat {
                src_bits: bits_for(n_src),
                dst_bits: bits_for(n_dst),
                guard_bits: 1,
            },
            slots: arch.bus_count(),
            immediate_bits: n_imm * arch.width as u32 / 2,
        }
    }

    /// Instruction width in bits.
    pub fn width(&self) -> u32 {
        self.slot.width() * self.slots as u32 + self.immediate_bits
    }
}

/// Bits needed to encode `n` distinct codes (at least 1).
pub fn bits_for(n: usize) -> u32 {
    usize::BITS - n.saturating_sub(1).leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Architecture;
    use crate::template::TemplateBuilder;

    #[test]
    fn bits_for_counts() {
        assert_eq!(bits_for(1), 0);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(16), 4);
        assert_eq!(bits_for(17), 5);
    }

    #[test]
    fn figure9_format_is_plausible() {
        let fmt = InstructionFormat::of(&Architecture::figure9());
        assert_eq!(fmt.slots, 2);
        // Sources: 5 FU outputs + 4 RF reads + idle = 10 -> 4 bits.
        assert_eq!(fmt.slot.src_bits, 4);
        // Destinations: 2+2+2+2+1 FU inputs + 2 RF writes + idle = 12 -> 4.
        assert_eq!(fmt.slot.dst_bits, 4);
        // 2 slots * 9 + 8 immediate bits.
        assert_eq!(fmt.width(), 2 * 9 + 8);
    }

    #[test]
    fn more_buses_widen_the_instruction() {
        let narrow = TemplateBuilder::new("n", 16, 1)
            .fu(FuKind::Alu)
            .fu(FuKind::LdSt)
            .fu(FuKind::Pc)
            .rf(8, 1, 1)
            .build();
        let wide = TemplateBuilder::new("w", 16, 4)
            .fu(FuKind::Alu)
            .fu(FuKind::LdSt)
            .fu(FuKind::Pc)
            .rf(8, 1, 1)
            .build();
        let a = InstructionFormat::of(&narrow).width();
        let b = InstructionFormat::of(&wide).width();
        assert!(b > a);
    }
}
